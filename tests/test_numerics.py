"""The checked HPD solve ``admm._solve_rows``, ``logdet_eval``, and the SVD
that ``optimal_factors`` falls back to.

``_solve_rows`` solves ``X = C A^-1`` with the right-hand sides as rows.  The
solve tests state their systems in column form, ``A X = B``, and hand the
kernel the rows ``B^H``, so ``X^H`` comes back.  Their names keep
``solve_hpd``, the solve's former public name.
"""

import numpy as np
import pytest

from hybridsim import baseline
from hybridsim.admm import _solve_rows
from hybridsim.baseline import optimal_factors
from hybridsim.numerics import logdet_eval


def crandn(rng, *shape):
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


def hermitian(x):
    return x.conj().swapaxes(-1, -2)


def solve(a, b):
    """``A X = B`` for one matrix ``a`` and an (n, m) ``b``, through the rows
    ``B^H``."""
    return hermitian(_solve_rows(a[None], hermitian(b)[None])[0])


def gauss_solve(a, b):
    """Reference solver: partial-pivot Gaussian elimination, no numpy.linalg."""
    a = np.array(a, dtype=complex)
    b = np.array(b, dtype=complex)
    n = a.shape[0]
    if b.ndim == 1:
        b = b[:, None]
    for col in range(n):
        piv = col + np.argmax(np.abs(a[col:, col]))
        if piv != col:
            a[[col, piv]] = a[[piv, col]]
            b[[col, piv]] = b[[piv, col]]
        for row in range(col + 1, n):
            m = a[row, col] / a[col, col]
            a[row, col:] -= m * a[col, col:]
            b[row] -= m * b[col]
    x = np.zeros_like(b)
    for row in range(n - 1, -1, -1):
        x[row] = (b[row] - a[row, row + 1 :] @ x[row + 1 :]) / a[row, row]
    return x


def random_hpd(rng, n):
    m = crandn(rng, n, n)
    return m @ m.conj().T + n * np.eye(n)


class TestSvd:
    """``optimal_factors`` takes all fields of a slice from ``np.linalg.svd``
    when its ratio ``sigma_ns / sigma_1`` is below ``_GRAM_RATIO_TOL``; with
    that threshold raised to infinity every slice takes it."""

    @pytest.fixture(autouse=True)
    def svd_fallback(self, monkeypatch):
        monkeypatch.setattr(baseline, "_GRAM_RATIO_TOL", np.inf)

    def test_reconstruction_and_orthonormality(self):
        rng = np.random.default_rng(0)
        for m, n in [(6, 4), (4, 6), (5, 5), (8, 2)]:
            a = crandn(rng, m, n)
            k = min(m, n)
            fo = optimal_factors(a, k)
            u, s, v = fo.w_opt, fo.singular_values, fo.f_opt
            u0, s0, vh0 = np.linalg.svd(a, full_matrices=False)
            # V, not V^H: the SVD's own bits
            assert u.tobytes() == u0.tobytes() and s.tobytes() == s0.tobytes()
            assert v.tobytes() == np.ascontiguousarray(hermitian(vh0)).tobytes()
            assert u.shape == (m, k) and v.shape == (n, k)
            assert np.linalg.norm(u @ np.diag(s) @ v.conj().T - a) < 1e-12 * s[0]
            assert np.linalg.norm(u.conj().T @ u - np.eye(k)) < 1e-12
            assert np.linalg.norm(v.conj().T @ v - np.eye(k)) < 1e-12

    def test_singular_values_sorted_nonnegative(self):
        rng = np.random.default_rng(1)
        a = crandn(rng, 7, 3)
        s = optimal_factors(a, 3).singular_values
        assert np.all(s >= 0)
        assert np.all(np.diff(s) <= 0)

    def test_known_factors_recovered(self):
        # build A from chosen singular values and unitaries, recover them
        rng = np.random.default_rng(2)
        u0, _ = np.linalg.qr(crandn(rng, 6, 3))
        v0, _ = np.linalg.qr(crandn(rng, 4, 3))
        a = u0 @ np.diag([5.0, 2.0, 0.5]) @ v0.conj().T
        s = optimal_factors(a, 4).singular_values
        assert np.allclose(s[:3], [5.0, 2.0, 0.5], atol=1e-12)
        assert s[3] < 1e-12  # rank 3 by construction

    def test_nonfinite_rejected(self):
        a = np.eye(3, dtype=complex)
        a[1, 1] = np.nan
        with pytest.raises(ValueError):
            optimal_factors(a, 1)


class TestSolveHpd:
    def test_matches_gaussian_elimination(self):
        rng = np.random.default_rng(3)
        for n in (2, 3, 5, 6):
            a = random_hpd(rng, n)
            b = crandn(rng, n, 3)
            x = solve(a, b)
            x_ref = gauss_solve(a, b)
            assert np.linalg.norm(x - x_ref) < 1e-10 * np.linalg.norm(x_ref)

    def test_residual(self):
        rng = np.random.default_rng(4)
        a = random_hpd(rng, 8)
        b = crandn(rng, 8, 2)
        x = solve(a, b)
        assert np.linalg.norm(a @ x - b) < 1e-10 * np.linalg.norm(b)

    def test_rank_deficient_gram_raises(self):
        rng = np.random.default_rng(5)
        col = crandn(rng, 6, 1)
        f = np.hstack([col, col])  # two identical columns
        gram = f.conj().T @ f
        with pytest.raises(np.linalg.LinAlgError):
            solve(gram, np.ones((2, 1), dtype=complex))

    def test_indefinite_raises(self):
        a = np.diag([1.0, -1.0]).astype(complex)
        with pytest.raises(np.linalg.LinAlgError):
            solve(a, np.ones((2, 1)))

    def test_nonfinite_rejected(self):
        a = np.eye(2, dtype=complex)
        with pytest.raises(ValueError):
            solve(a, np.array([[np.inf], [0.0]]))

    def test_stacked_rhs_matches_per_slice_solves(self):
        # K right-hand sides (K, n, m) against one matrix are the K*m rows of
        # one call
        rng = np.random.default_rng(8)
        for n, k, m in [(2, 3, 1), (4, 16, 3), (6, 5, 4)]:
            a = random_hpd(rng, n)
            b = crandn(rng, k, n, m)
            x = _solve_rows(a[None], hermitian(b).reshape(1, k * m, n))
            alone = [_solve_rows(a[None], hermitian(b[i : i + 1])) for i in range(k)]
            ref = np.concatenate(alone, axis=1)
            assert x.shape == (1, k * m, n)
            assert np.linalg.norm(x - ref) <= 1e-14 * np.linalg.norm(ref)
            for i in range(k):
                x_i = hermitian(x[0, i * m : (i + 1) * m])
                assert np.linalg.norm(a @ x_i - b[i]) < 1e-10 * np.linalg.norm(b[i])

    def test_stacked_rhs_rank_deficient_gram_raises(self):
        rng = np.random.default_rng(9)
        col = crandn(rng, 6, 1)
        f = np.hstack([col, col])
        rows = hermitian(crandn(rng, 4, 2, 3)).reshape(1, 12, 2)
        with pytest.raises(np.linalg.LinAlgError):
            _solve_rows((f.conj().T @ f)[None], rows)

    def test_stacked_rhs_indefinite_raises(self):
        a = np.diag([1.0, -1.0]).astype(complex)
        with pytest.raises(np.linalg.LinAlgError):
            _solve_rows(a[None], np.ones((1, 3, 2), dtype=complex))


class TestSolveHpdBatch:
    def test_slices_match_single_solves_bitwise(self):
        # right-hand sides (B, K, n, m), slice i against a[i], as (B, K*m, n)
        # rows; rows[:, :m] are the K = 0 systems
        rng = np.random.default_rng(10)
        for bsz, n, k, m in [(1, 2, 1, 1), (5, 4, 3, 2), (7, 3, 16, 3)]:
            a = np.stack([random_hpd(rng, n) for _ in range(bsz)])
            b = crandn(rng, bsz, k, n, m)
            rows = hermitian(b).reshape(bsz, k * m, n)
            x = _solve_rows(a, rows)
            assert x.shape == rows.shape
            for i in range(bsz):
                # a slice does not depend on the rest of the batch
                alone = _solve_rows(a[i : i + 1], rows[i : i + 1])
                assert np.array_equal(x[i : i + 1], alone)
                first = _solve_rows(a[i : i + 1], rows[i : i + 1, :m])
                assert np.array_equal(x[i, :m], first[0])
            x3 = _solve_rows(a, rows[:, :m])
            assert np.array_equal(x3, x[:, :m])
            for i in range(bsz):
                residual = a[i] @ hermitian(x3[i]) - b[i, 0]
                assert np.linalg.norm(residual) < 1e-10 * np.linalg.norm(b[i, 0])

    def test_one_bad_slice_fails_the_batch(self):
        rng = np.random.default_rng(11)
        col = crandn(rng, 6, 1)
        f = np.hstack([col, col + 1e-9 * crandn(rng, 6, 1)])  # pivot ratio ~1e-18
        good = random_hpd(rng, 2)
        rows = hermitian(crandn(rng, 3, 2, 1))
        with pytest.raises(np.linalg.LinAlgError, match="rank deficient"):
            _solve_rows(np.stack([good, f.conj().T @ f, good]), rows)
        indefinite = np.diag([1.0, -1.0]).astype(complex)
        with pytest.raises(np.linalg.LinAlgError, match="positive definite"):
            _solve_rows(np.stack([good, good, indefinite]), rows)
        corrupt = np.stack([good, good, good])
        corrupt[1, 0, 0] = np.nan
        with pytest.raises(ValueError):
            _solve_rows(corrupt, rows)


class TestLogdet:
    def test_diagonal_hand_case(self):
        a = np.diag([1.0, 2.0, 4.0]).astype(complex)
        assert abs(logdet_eval(a) - 3.0) < 1e-13

    def test_scaled_identity(self):
        for c, n in [(0.5, 4), (3.0, 7), (1e-3, 2)]:
            val = logdet_eval(c * np.eye(n, dtype=complex))
            assert abs(val - n * np.log2(c)) < 1e-11

    def test_matches_eigenvalue_route(self):
        rng = np.random.default_rng(6)
        for n in (2, 4, 9):
            a = random_hpd(rng, n)
            ref = float(np.sum(np.log2(np.linalg.eigvalsh(a))))
            assert abs(logdet_eval(a) - ref) < 1e-10 * max(1.0, abs(ref))

    def test_block_additivity(self):
        rng = np.random.default_rng(7)
        a = random_hpd(rng, 3)
        b = random_hpd(rng, 4)
        blk = np.zeros((7, 7), dtype=complex)
        blk[:3, :3] = a
        blk[3:, 3:] = b
        assert abs(logdet_eval(blk) - logdet_eval(a) - logdet_eval(b)) < 1e-10

    def test_non_hermitian_raises(self):
        a = np.array([[1.0, 1.0], [0.0, 1.0]], dtype=complex)
        with pytest.raises(np.linalg.LinAlgError):
            logdet_eval(a)

    def test_indefinite_raises(self):
        with pytest.raises(np.linalg.LinAlgError):
            logdet_eval(np.diag([2.0, -3.0]).astype(complex))

    def test_non_square_raises(self):
        with pytest.raises(ValueError, match="expected square matrix"):
            logdet_eval(np.eye(2, 3))
