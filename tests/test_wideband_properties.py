"""Property tests of the dense (wideband) ADMM loop.

The loop holds the K digital matrices side by side and the targets as one
block; these properties pin what that layout must keep: identical
subcarriers stay bitwise identical, and the trace objective is the
factorization residual of the kept iterates.  The continuous projection of
each iteration is checked against its division form.
"""

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, reject, settings, strategies as st  # noqa: E402

from hybridsim.admm import (  # noqa: E402
    AdmmConfig,
    design_wideband,
    project_unit_modulus,
    scale_matched_rho,
)

PROPERTY = settings(max_examples=40, deadline=None)


def crandn(rng, *shape):
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


@st.composite
def shapes(draw):
    n_s = draw(st.integers(1, 4))
    n_rf = draw(st.integers(n_s, n_s + 3))
    n_tx = draw(st.integers(n_rf, n_rf + 12))
    return n_tx, n_rf, n_s, draw(st.integers(1, 8)), draw(st.integers(0, 10_000))


def design(targets, n_rf, cfg):
    try:
        return design_wideband(
            targets, n_rf, cfg, normalize_power=False, keep_iterates=True
        )
    except np.linalg.LinAlgError:
        # a collapsed analog matrix: no iterates to check
        reject()


@PROPERTY
@given(shapes())
def test_identical_targets_stay_bitwise_identical(shape):
    n_tx, n_rf, n_s, k, seed = shape
    rng = np.random.default_rng(seed)
    q, _ = np.linalg.qr(crandn(rng, n_tx, n_s))
    cfg = AdmmConfig(
        rho=scale_matched_rho(n_tx, n_rf, n_s, n_subcarriers=k),
        max_iters=8,
        tau=0.0,
        seed=seed,
    )
    result = design(np.broadcast_to(q, (k, n_tx, n_s)).copy(), n_rf, cfg)
    assert len(result.iterates) == 9
    for state in result.iterates:
        assert state.f_bb.shape == (k, n_rf, n_s)
        for f_bb in state.f_bb[1:]:
            assert np.array_equal(f_bb, state.f_bb[0])


@PROPERTY
@given(shapes(), st.integers(1, 3), st.sampled_from([None, 2]))
def test_trace_objective_is_the_explicit_residual(shape, batch, phase_bits):
    n_tx, n_rf, n_s, k, seed = shape
    rng = np.random.default_rng(seed)
    targets = rng.uniform(0.1, 3.0) * crandn(rng, batch, k, n_tx, n_s)
    cfg = AdmmConfig(
        rho=scale_matched_rho(n_tx, n_rf, n_s, n_subcarriers=k),
        max_iters=10,
        tau=1e-3,
        phase_bits=phase_bits,
        seed=seed,
    )
    for instance, result in zip(targets, design(targets, n_rf, cfg)):
        scale = 1.0 + np.linalg.norm(instance) ** 2
        assert len(result.trace) == len(result.iterates)
        for (_, objective, residual), state in zip(result.trace, result.iterates):
            explicit = np.linalg.norm(instance - state.r @ state.f_bb) ** 2
            assert abs(objective - explicit) <= 1e-10 * scale
            primal = np.linalg.norm(state.f_rf - state.r)
            assert abs(residual - primal) <= 1e-12 * (1.0 + primal)


def division_form(x):
    """The continuous projection as a division, the reference form."""
    mag = np.abs(x)
    return np.where(mag == 0, 1, x / np.where(mag == 0, 1, mag))


# normal magnitudes, whose reciprocal neither overflows nor is subnormal
# below |x| = 2**1022, and exact zeros
ENTRIES = st.one_of(
    st.complex_numbers(
        min_magnitude=1e-300, max_magnitude=1e300, allow_subnormal=False
    ),
    st.just(0j),
)


@PROPERTY
@given(st.lists(ENTRIES, min_size=1, max_size=64))
def test_projection_equals_division_form(entries):
    x = np.array(entries, dtype=complex)
    got, want = project_unit_modulus(x), division_form(x)
    # bit for bit, up to the sign of a zero real or imaginary part, which
    # the product and the quotient round apart (adding +0.0 clears it)
    assert (got + 0.0).tobytes() == (want + 0.0).tobytes()
