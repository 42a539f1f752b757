"""Property tests of the stacked rate, SVD factors and HPD solve.

Leading axes of ``spectral_efficiency``, ``optimal_factors`` and the checked
HPD solve ``numerics._solve_rows`` are batch axes: every slice of a stacked
call must be bitwise what the call on that slice alone returns, and one bad
slice makes the whole call raise.  The factors of ``optimal_factors`` come
from the smaller Gram matrix, so they are also checked against the SVD's
subspaces.  ``_solve_rows`` solves ``X = C A^-1`` with the right-hand sides
as rows; the solve tests state their systems in column form, ``A X = B``,
and hand it the rows ``B^H``.  Their names keep ``solve_hpd``, the solve's
former public name.
"""

import re
import warnings

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from hybridsim import baseline  # noqa: E402
from hybridsim.baseline import optimal_factors, spectral_efficiency  # noqa: E402
from hybridsim.numerics import _RANK_TOL, _solve_rows  # noqa: E402

PROPERTY = settings(max_examples=40, deadline=None)


def crandn(rng, *shape):
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


def hermitian(x):
    return x.conj().swapaxes(-1, -2)


@st.composite
def stacks(draw):
    """Random (R, K) stacks of channels, precoders and combiners."""
    lead = (draw(st.integers(1, 4)), draw(st.integers(1, 4)))
    n_s = draw(st.integers(1, 3))
    n_rx = draw(st.integers(n_s, n_s + 4))
    n_tx = draw(st.integers(n_s, n_s + 6))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    snr_db = draw(st.lists(st.floats(-20.0, 30.0), min_size=1, max_size=6))
    snrs = 10.0 ** (np.array(snr_db) / 10.0)
    h = crandn(rng, *lead, n_rx, n_tx)
    f = crandn(rng, *lead, n_tx, n_s)
    wc = crandn(rng, *lead, n_rx, n_s)
    return h, f, wc, snrs, n_s


@PROPERTY
@given(stacks())
def test_stacked_rate_equals_per_slice(case):
    h, f, wc, snrs, n_s = case
    lead = h.shape[:-2]
    rates = spectral_efficiency(h, f, wc, snrs, n_s)
    scalar = spectral_efficiency(h, f, wc, snrs[0], n_s)
    assert rates.shape == (*lead, len(snrs))
    assert scalar.shape == lead
    for idx in np.ndindex(lead):
        alone = spectral_efficiency(h[idx], f[idx], wc[idx], snrs, n_s)
        assert rates[idx].tobytes() == alone.tobytes()
        alone = spectral_efficiency(h[idx], f[idx], wc[idx], snrs[0], n_s)
        assert isinstance(alone, float)
        assert scalar[idx] == alone


@PROPERTY
@given(stacks())
def test_stacked_factors_and_svd_equal_per_slice(case):
    h, _, _, _, n_s = case
    lead = h.shape[:-2]
    k = min(h.shape[-2:])
    stacked = optimal_factors(h, n_s)
    assert stacked.f_opt.shape == (*lead, h.shape[-1], n_s)
    assert stacked.w_opt.shape == (*lead, h.shape[-2], n_s)
    assert stacked.singular_values.shape == (*lead, k)
    for idx in np.ndindex(lead):
        alone = optimal_factors(h[idx], n_s)
        assert stacked.f_opt[idx].tobytes() == alone.f_opt.tobytes()
        assert stacked.w_opt[idx].tobytes() == alone.w_opt.tobytes()
        assert (
            stacked.singular_values[idx].tobytes()
            == alone.singular_values.tobytes()
        )


def test_return_types():
    rng = np.random.default_rng(0)
    h, f, wc = crandn(rng, 4, 5), crandn(rng, 5, 2), crandn(rng, 4, 2)
    assert isinstance(spectral_efficiency(h, f, wc, 2.0, 2), float)
    assert spectral_efficiency(h, f, wc, np.array([1.0, 2.0]), 2).shape == (2,)
    one = spectral_efficiency(h[None], f[None], wc[None], 2.0, 2)
    assert isinstance(one, np.ndarray) and one.shape == (1,)
    assert spectral_efficiency(h[None], f[None], wc[None], [2.0], 2).shape == (1, 1)


class TestOneBadSliceFailsTheStack:
    def setup_method(self):
        rng = np.random.default_rng(1)
        self.h = crandn(rng, 3, 2, 4, 5)
        self.f = crandn(rng, 3, 2, 5, 2)
        self.wc = crandn(rng, 3, 2, 4, 2)
        self.snrs = np.array([0.1, 1.0, 10.0])

    def test_rank_deficient_combiner(self):
        self.wc[1, 1, :, 1] = self.wc[1, 1, :, 0]
        with pytest.raises(np.linalg.LinAlgError, match="rank deficient"):
            spectral_efficiency(self.h, self.f, self.wc, self.snrs, 2)

    @pytest.mark.parametrize("which", ["h", "f", "wc"])
    def test_nonfinite_slice(self, which):
        getattr(self, which)[2, 0, 0, 0] = np.nan
        with pytest.raises(ValueError, match="non-finite"):
            spectral_efficiency(self.h, self.f, self.wc, self.snrs, 2)

    def test_nonfinite_channel_slice_in_factors(self):
        self.h[0, 1, 3, 4] = np.inf
        with pytest.raises(ValueError, match="non-finite"):
            optimal_factors(self.h, 2)

    def test_mismatched_leading_axes(self):
        with pytest.raises(ValueError, match="inconsistent shapes"):
            spectral_efficiency(self.h, self.f[:2], self.wc, self.snrs, 2)
        with pytest.raises(ValueError, match="inconsistent shapes"):
            spectral_efficiency(self.h, self.f, self.wc[:, :1], self.snrs, 2)
        with pytest.raises(ValueError, match="inconsistent shapes"):
            spectral_efficiency(self.h[0, 0, 0], self.f, self.wc, self.snrs, 2)


@st.composite
def hpd_systems(draw):
    """A (B, n, n) stack of HPD matrices and (B, K, n, m) right-hand sides."""
    bsz, k = draw(st.integers(1, 6)), draw(st.integers(1, 8))
    n, m = draw(st.integers(1, 5)), draw(st.integers(1, 4))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    g = crandn(rng, bsz, n, n)
    a = g @ g.conj().swapaxes(-1, -2) + n * np.eye(n)
    return a, crandn(rng, bsz, k, n, m)


def rows(b):
    """Right-hand sides (B, K, n, m) as the rows ``B^H`` of each slice,
    (B, K*m, n); ``rows(b)[:, :m]`` are the K = 0 systems."""
    bsz, _, n, _ = b.shape
    return hermitian(b).reshape(bsz, -1, n)


@PROPERTY
@given(hpd_systems())
def test_solve_hpd_slices_equal_single_calls(case):
    a, b = case
    m = b.shape[-1]
    x = _solve_rows(a, rows(b))
    assert x.shape == rows(b).shape
    for i in range(len(a)):
        alone = _solve_rows(a[i : i + 1], rows(b[i : i + 1]))
        assert x[i : i + 1].tobytes() == alone.tobytes()
    x3 = _solve_rows(a, rows(b)[:, :m])
    for i in range(len(a)):
        alone = _solve_rows(a[i : i + 1], rows(b[i : i + 1])[:, :m])
        assert x3[i : i + 1].tobytes() == alone.tobytes()


@PROPERTY
@given(hpd_systems())
def test_solve_hpd_identical_rhs_identical_solutions(case):
    # the kernel-level form of the identical-target collapse of the designs
    a, b = case
    same = np.broadcast_to(b[:, :1, :, :1], b.shape).copy()
    x = _solve_rows(a, rows(same))
    assert (x == x[:, :1]).all()


@PROPERTY
@given(hpd_systems())
def test_solve_hpd_residual(case):
    a, b = case
    bsz, k, n, m = b.shape
    x = hermitian(_solve_rows(a, rows(b)).reshape(bsz, k, m, n))
    residual = a[:, None] @ x - b
    assert np.linalg.norm(residual) < 1e-10 * np.linalg.norm(b)


@PROPERTY
@given(
    hpd_systems(), st.sampled_from(["indefinite", "rank", "matrix", "rhs"]), st.data()
)
def test_solve_hpd_one_bad_slice_fails_the_batch(case, kind, data):
    a, b = case
    n = a.shape[-1]
    i = data.draw(st.integers(0, len(a) - 1))
    if kind == "indefinite":
        a[i] = np.diag([1.0] * (n - 1) + [-1.0])
        expected = (np.linalg.LinAlgError, "not positive definite")
    elif kind == "rank":
        hypothesis.assume(n >= 2)
        # an exact Cholesky factor whose squared pivot ratio is _RANK_TOL / 10
        a[i] = np.diag([1.0] * (n - 1) + [_RANK_TOL / 10])
        expected = (np.linalg.LinAlgError, "rank deficient")
    elif kind == "matrix":
        a[i, 0, 0] = np.nan
        expected = (ValueError, "^matrix contains non-finite")
    else:
        b[i, -1, -1, -1] = np.inf
        expected = (ValueError, "^right-hand side contains non-finite")
    with pytest.raises(expected[0], match=expected[1]):
        _solve_rows(a, rows(b))


@st.composite
def row_systems(draw):
    """A (B, n, n) stack of HPD matrices, n <= 4, and right-hand sides as rows,
    (B, m, n), up to the 64 rows of an analog update."""
    bsz, n = draw(st.integers(1, 6)), draw(st.integers(1, 4))
    m = draw(st.integers(1, 70))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    g = crandn(rng, bsz, n, n)
    a = g @ g.conj().swapaxes(-1, -2) + n * np.eye(n)
    return a, crandn(rng, bsz, m, n)


# the kernel runs on NumPy's LAPACK gufuncs, the one path it has; the
# parameter keeps the tests' ids
ON_GUFUNCS = pytest.mark.parametrize("kernel", ["gufunc"])


@PROPERTY
@given(row_systems())
@ON_GUFUNCS
def test_row_kernel_is_solve_hpd_conj_transposed(kernel, case):
    # X = C A^-1 is the conjugate transpose of the solution of A Y = C^H
    a, c = case
    x = _solve_rows(a, c)
    residual = a @ hermitian(x) - hermitian(c)
    assert np.linalg.norm(residual) < 1e-10 * np.linalg.norm(c)
    for i in range(len(a)):
        # slice i alone, with the same row count, is bitwise slice i
        alone = _solve_rows(a[i : i + 1], c[i : i + 1])
        assert x[i : i + 1].tobytes() == alone.tobytes()


# the exact messages of the checked solve
BAD_SLICE = {
    "indefinite": (
        np.linalg.LinAlgError,
        "matrix is not positive definite: Matrix is not positive definite",
    ),
    "rank": (
        np.linalg.LinAlgError,
        "matrix is numerically rank deficient (Cholesky pivot ratio 1.000e-15)",
    ),
    "matrix": (ValueError, "matrix contains non-finite entries (corrupted data)"),
    "rhs": (
        ValueError,
        "right-hand side contains non-finite entries (corrupted data)",
    ),
}


@PROPERTY
@given(row_systems(), st.sampled_from(sorted(BAD_SLICE)), st.data())
@ON_GUFUNCS
def test_row_kernel_bad_slice_raises_as_solve_hpd(kernel, case, kind, data):
    a, c = case
    n = a.shape[-1]
    i = data.draw(st.integers(0, len(a) - 1))
    if kind == "indefinite":
        a[i] = np.diag([1.0] * (n - 1) + [-1.0])
    elif kind == "rank":
        hypothesis.assume(n >= 2)
        # an exact Cholesky factor whose squared pivot ratio is _RANK_TOL / 10
        a[i] = np.diag([1.0] * (n - 1) + [_RANK_TOL / 10])
    elif kind == "matrix":
        a[i, -1, 0] = np.nan
    else:
        c[i, -1, -1] = -np.inf
    error, message = BAD_SLICE[kind]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(error, match=f"^{re.escape(message)}$"):
            _solve_rows(a, c)


def projector(x):
    return x @ x.conj().swapaxes(-1, -2)


@st.composite
def channels(draw):
    """A channel U0 diag(s) V0^H, wide or tall, with n_s drawn within rank."""
    n_rx, n_tx = draw(st.integers(1, 8)), draw(st.integers(1, 8))
    k = min(n_rx, n_tx)
    n_s = draw(st.integers(1, k))
    s = np.sort(draw(st.lists(st.floats(1e-4, 1.0), min_size=k, max_size=k)))[::-1]
    # the leading subspace must be well defined to compare two routes to it
    hypothesis.assume(n_s == k or s[n_s - 1] - s[n_s] > 1e-3 * s[0])
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    u0, _ = np.linalg.qr(crandn(rng, n_rx, k))
    v0, _ = np.linalg.qr(crandn(rng, n_tx, k))
    return (u0 * s) @ v0.conj().T, n_s


@PROPERTY
@given(channels())
def test_gram_factors_match_svd_subspaces(case):
    h, n_s = case
    fo = optimal_factors(h, n_s)
    u, s, vh = np.linalg.svd(h)
    v = vh.conj().T
    scale = s[0]
    assert np.abs(projector(fo.f_opt) - projector(v[:, :n_s])).max() < 1e-10
    assert np.abs(projector(fo.w_opt) - projector(u[:, :n_s])).max() < 1e-10
    for x in (fo.f_opt, fo.w_opt):
        assert np.abs(x.conj().T @ x - np.eye(n_s)).max() < 1e-10
    assert np.abs(fo.singular_values[:n_s] - s[:n_s]).max() < 1e-10 * scale
    # each pair is a singular triplet of H
    resid = h @ fo.f_opt - fo.w_opt * fo.singular_values[:n_s]
    assert np.abs(resid).max() < 1e-10 * scale


@pytest.mark.parametrize("n_rx, n_tx", [(4, 6), (6, 4), (5, 5)])
def test_rank_deficient_slice_takes_the_svd_alone(n_rx, n_tx):
    # a single-path channel has rank 1 < n_s = 2: its Gram matrix has a zero
    # eigenvalue that must never be divided by
    rng = np.random.default_rng(n_rx * 10 + n_tx)
    single_path = crandn(rng, n_rx, 1) @ crandn(rng, 1, n_tx)
    h = np.stack([single_path, crandn(rng, n_rx, n_tx)])
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        stacked = optimal_factors(h, 2)
        alone = [optimal_factors(h[i], 2) for i in range(2)]
    # the second slice is well conditioned, so it takes the Gram route
    ratio = stacked.singular_values[1, 1] / stacked.singular_values[1, 0]
    assert ratio > baseline._GRAM_RATIO_TOL
    u, s, vh = np.linalg.svd(single_path, full_matrices=False)
    assert stacked.f_opt[0].tobytes() == hermitian(vh[:2]).tobytes()
    assert stacked.w_opt[0].tobytes() == u[:, :2].tobytes()
    assert stacked.singular_values[0].tobytes() == s.tobytes()
    for i in range(2):
        assert stacked.f_opt[i].tobytes() == alone[i].f_opt.tobytes()
        assert stacked.w_opt[i].tobytes() == alone[i].w_opt.tobytes()
        assert (
            stacked.singular_values[i].tobytes()
            == alone[i].singular_values.tobytes()
        )
