"""Property tests of the batched designers.

Instance i of a batched design call uses the seed ``cfg.seed + i``; it must
return bitwise what the single design with that seed returns, whatever else
is in the batch, and every design must be feasible and power normalized.
"""

import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from hybridsim import admm  # noqa: E402
from hybridsim.admm import (  # noqa: E402
    AdmmConfig,
    DesignBatch,
    design_fully_connected,
    design_partially_connected,
    design_wideband,
)

PROPERTY = settings(max_examples=40, deadline=None)


def column_orthonormal(rng, *stack, n_tx, n_s):
    a = rng.standard_normal((*stack, n_tx, n_s)) + 1j * rng.standard_normal(
        (*stack, n_tx, n_s)
    )
    q, _ = np.linalg.qr(a)
    return q


@st.composite
def cases(draw, structure):
    n_s = draw(st.integers(1, 3))
    n_rf = draw(st.integers(n_s, n_s + 2))
    if structure == "partial":
        n_tx = n_rf * draw(st.integers(1, 5))
    else:
        n_tx = draw(st.integers(n_rf, n_rf + 6))
    cfg = AdmmConfig(
        rho=draw(st.floats(0.01, 2.0)),
        max_iters=draw(st.integers(1, 15)),
        tau=draw(st.sampled_from([0.0, 1e-4, 1e-3, 1e-2, 1e-1])),
        phase_bits=draw(st.sampled_from([None, 1, 2, 3, 5])),
        seed=draw(st.integers(0, 10_000)),
    )
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    batch = draw(st.integers(1, 5))
    if structure == "wideband":
        k = draw(st.integers(1, 4))
        targets = column_orthonormal(rng, batch, k, n_tx=n_tx, n_s=n_s)
    else:
        targets = column_orthonormal(rng, batch, n_tx=n_tx, n_s=n_s)
    return targets, n_rf, cfg, draw(st.booleans())


DESIGNERS = {
    "full": design_fully_connected,
    "wideband": design_wideband,
    "partial": design_partially_connected,
}


def check_batch_matches_singles(structure, case):
    designer = DESIGNERS[structure]
    targets, n_rf, cfg, normalize_power = case
    singles = []
    for i in range(len(targets)):
        try:
            singles.append(
                designer(targets[i], n_rf, replace(cfg, seed=cfg.seed + i), normalize_power)
            )
        except np.linalg.LinAlgError:
            # a collapsed analog matrix fails alone, so the batch fails too
            with pytest.raises(np.linalg.LinAlgError):
                designer(targets, n_rf, cfg, normalize_power)
            return
    batch = designer(targets, n_rf, cfg, normalize_power)
    assert isinstance(batch, DesignBatch)
    assert len(batch) == len(targets)
    assert batch.iterations == sum(d.iterations for d in singles)
    for got, want in zip(batch, singles):
        assert np.array_equal(got.f_rf, want.f_rf)
        assert np.array_equal(got.f_bb, want.f_bb)
        assert got.trace == want.trace
        assert got.final_objective == want.final_objective
    for design, target in zip(batch, targets):
        check_feasible(structure, design, target, n_rf, cfg, normalize_power)


def check_feasible(structure, design, target, n_rf, cfg, normalize_power):
    n_tx, n_s = target.shape[-2:]
    f_rf = design.f_rf
    assert f_rf.shape == (n_tx, n_rf)
    if structure == "partial":
        block = n_tx // n_rf
        support = np.kron(np.eye(n_rf), np.ones((block, 1))).astype(bool)
        assert np.all(f_rf[~support] == 0)
        phases = f_rf[support]
    else:
        phases = f_rf.ravel()
    assert np.max(np.abs(np.abs(phases) - 1.0)) < 1e-12
    if cfg.phase_bits is not None:
        step = 2 * np.pi / 2**cfg.phase_bits
        pos = np.mod(np.angle(phases), 2 * np.pi) / step
        assert np.max(np.abs(pos - np.round(pos))) < 1e-9
    if not normalize_power:
        return
    if structure == "partial":
        power = np.linalg.norm(design.f_bb) ** 2
        assert abs(power - n_s * n_rf / n_tx) < 1e-10 * n_s
    composites = f_rf @ design.f_bb
    if structure != "wideband":
        composites = composites[None]
    for composite in composites:
        assert abs(np.linalg.norm(composite) ** 2 - n_s) < 1e-10 * n_s


@PROPERTY
@given(cases("full"))
def test_fully_connected_batch_matches_single_designs(case):
    check_batch_matches_singles("full", case)


@PROPERTY
@given(cases("wideband"))
def test_wideband_batch_matches_single_designs(case):
    check_batch_matches_singles("wideband", case)


@PROPERTY
@given(cases("partial"))
def test_partially_connected_batch_matches_single_designs(case):
    check_batch_matches_singles("partial", case)


@PROPERTY
@given(
    st.lists(
        st.tuples(
            st.integers(0, 12),
            st.integers(1, 5),
            st.tuples(st.integers(1, 4), st.integers(1, 6)),
            st.sampled_from([None, 3]),
        ),
        min_size=1,
        max_size=8,
    )
)
def test_shared_start_streams_match_fresh_generators(calls):
    # starts share one generator per seed across calls; in any order of
    # shapes and seed ranges each must be what a new generator per
    # instance draws, and only the last call's seeds stay in the memo
    for seed, count, shape, phase_bits in calls:
        cfg = AdmmConfig(seed=seed, phase_bits=phase_bits)
        got = admm._init_analog(cfg, count, shape)
        draws = [
            np.random.default_rng(seed + i).uniform(size=shape) for i in range(count)
        ]
        want = np.exp(2j * np.pi * np.stack(draws))
        if phase_bits is not None:
            want = admm.project_unit_modulus(want, phase_bits)
        assert got.tobytes() == want.tobytes()
        assert sorted(admm._STARTS) == list(range(seed, seed + count))


def traced_peak(fn, *args):
    """Peak bytes that NumPy and Python allocate during ``fn(*args)``, and its
    result; a first call outside the trace leaves lazy set-up out."""
    fn(*args)
    tracemalloc.start()
    try:
        result = fn(*args)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return peak, result


@pytest.mark.parametrize(
    "structure, cfg, units, bound",
    [
        # the unit is the batch's dense analog matrices; the loop once peaked
        # at 18.9 of them here, copying its whole state at each stop while
        # the old state was still alive
        ("wideband", AdmmConfig(rho=2 / 256, tau=1e-3), 64 * 4, 13.0),
        # the unit is the batch's phase vectors; once 16.2 of them here
        ("partial", AdmmConfig(rho=2 / 64, tau=1e-3, phase_bits=3), 64, 13.0),
    ],
)
def test_batched_design_memory_stays_bounded(structure, cfg, units, bound):
    batch, n_tx, n_rf, n_s = 64, 64, 4, 2
    targets = column_orthonormal(np.random.default_rng(5), batch, n_tx=n_tx, n_s=n_s)
    if structure == "wideband":
        targets = targets[:, None]
    peak, designs = traced_peak(DESIGNERS[structure], targets, n_rf, cfg, True)
    # instances stop at different iterations, so the loop compacts its batch
    assert len({design.iterations for design in designs}) > 1
    assert peak / (16 * batch * units) < bound
