import numpy as np
import pytest

from hybridsim.numerics import logdet_eval, solve_hpd, svd


def crandn(rng, *shape):
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


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
    def test_reconstruction_and_orthonormality(self):
        rng = np.random.default_rng(0)
        for m, n in [(6, 4), (4, 6), (5, 5), (8, 2)]:
            a = crandn(rng, m, n)
            u, s, v = svd(a)
            k = min(m, n)
            assert u.shape == (m, k) and v.shape == (n, k)
            assert np.linalg.norm(u @ np.diag(s) @ v.conj().T - a) < 1e-12 * s[0]
            assert np.linalg.norm(u.conj().T @ u - np.eye(k)) < 1e-12
            assert np.linalg.norm(v.conj().T @ v - np.eye(k)) < 1e-12

    def test_singular_values_sorted_nonnegative(self):
        rng = np.random.default_rng(1)
        a = crandn(rng, 7, 3)
        _, s, _ = svd(a)
        assert np.all(s >= 0)
        assert np.all(np.diff(s) <= 0)

    def test_known_factors_recovered(self):
        # build A from chosen singular values and unitaries, recover them
        rng = np.random.default_rng(2)
        u0, _ = np.linalg.qr(crandn(rng, 6, 3))
        v0, _ = np.linalg.qr(crandn(rng, 4, 3))
        a = u0 @ np.diag([5.0, 2.0, 0.5]) @ v0.conj().T
        _, s, _ = svd(a)
        assert np.allclose(s[:3], [5.0, 2.0, 0.5], atol=1e-12)
        assert s[3] < 1e-12  # rank 3 by construction

    def test_nonfinite_rejected(self):
        a = np.eye(3, dtype=complex)
        a[1, 1] = np.nan
        with pytest.raises(ValueError):
            svd(a)


class TestSolveHpd:
    def test_matches_gaussian_elimination(self):
        rng = np.random.default_rng(3)
        for n in (2, 3, 5, 6):
            a = random_hpd(rng, n)
            b = crandn(rng, n, 3)
            x = solve_hpd(a, b)
            x_ref = gauss_solve(a, b)
            assert np.linalg.norm(x - x_ref) < 1e-10 * np.linalg.norm(x_ref)

    def test_residual(self):
        rng = np.random.default_rng(4)
        a = random_hpd(rng, 8)
        b = crandn(rng, 8, 2)
        x = solve_hpd(a, b)
        assert np.linalg.norm(a @ x - b) < 1e-10 * np.linalg.norm(b)

    def test_rank_deficient_gram_raises(self):
        rng = np.random.default_rng(5)
        col = crandn(rng, 6, 1)
        f = np.hstack([col, col])  # two identical columns
        gram = f.conj().T @ f
        with pytest.raises(np.linalg.LinAlgError):
            solve_hpd(gram, np.ones((2, 1), dtype=complex))

    def test_indefinite_raises(self):
        a = np.diag([1.0, -1.0]).astype(complex)
        with pytest.raises(np.linalg.LinAlgError):
            solve_hpd(a, np.ones((2, 1)))

    def test_shape_validation(self):
        with pytest.raises(ValueError):
            solve_hpd(np.ones((2, 3)), np.ones((2, 1)))
        with pytest.raises(ValueError):
            solve_hpd(np.eye(3), np.ones((2, 1)))

    def test_nonfinite_rejected(self):
        a = np.eye(2, dtype=complex)
        with pytest.raises(ValueError):
            solve_hpd(a, np.array([[np.inf], [0.0]]))

    def test_stacked_rhs_matches_per_slice_solves(self):
        rng = np.random.default_rng(8)
        for n, k, m in [(2, 3, 1), (4, 16, 3), (6, 5, 4)]:
            a = random_hpd(rng, n)
            b = crandn(rng, k, n, m)
            x = solve_hpd(a, b)
            ref = np.stack([solve_hpd(a, b[i]) for i in range(k)])
            assert x.shape == (k, n, m)
            assert np.linalg.norm(x - ref) <= 1e-14 * np.linalg.norm(ref)
            for i in range(k):
                assert np.linalg.norm(a @ x[i] - b[i]) < 1e-10 * np.linalg.norm(b[i])

    def test_stacked_rhs_rank_deficient_gram_raises(self):
        rng = np.random.default_rng(9)
        col = crandn(rng, 6, 1)
        f = np.hstack([col, col])
        with pytest.raises(np.linalg.LinAlgError):
            solve_hpd(f.conj().T @ f, crandn(rng, 4, 2, 3))

    def test_stacked_rhs_indefinite_raises(self):
        a = np.diag([1.0, -1.0]).astype(complex)
        with pytest.raises(np.linalg.LinAlgError):
            solve_hpd(a, np.ones((3, 2, 1), dtype=complex))

    def test_stacked_rhs_shape_validation(self):
        with pytest.raises(ValueError):
            solve_hpd(np.eye(3), np.ones((4, 2, 1)))
        with pytest.raises(ValueError):
            solve_hpd(np.eye(3), np.ones((2, 4, 3, 1)))


class TestSolveHpdBatch:
    def test_slices_match_single_solves_bitwise(self):
        rng = np.random.default_rng(10)
        for bsz, n, k, m in [(1, 2, 1, 1), (5, 4, 3, 2), (7, 3, 16, 3)]:
            a = np.stack([random_hpd(rng, n) for _ in range(bsz)])
            b = crandn(rng, bsz, k, n, m)
            x = solve_hpd(a, b)
            assert x.shape == b.shape
            for i in range(bsz):
                assert np.array_equal(x[i], solve_hpd(a[i], b[i]))
                assert np.array_equal(x[i, 0], solve_hpd(a[i], b[i, 0]))
                # a slice does not depend on the rest of the batch
                assert np.array_equal(x[i : i + 1], solve_hpd(a[i : i + 1], b[i : i + 1]))
            x3 = solve_hpd(a, b[:, 0])
            assert np.array_equal(x3, x[:, 0])
            for i in range(bsz):
                assert np.linalg.norm(a[i] @ x3[i] - b[i, 0]) < 1e-10 * np.linalg.norm(b[i, 0])

    def test_one_bad_slice_fails_the_batch(self):
        rng = np.random.default_rng(11)
        col = crandn(rng, 6, 1)
        f = np.hstack([col, col + 1e-9 * crandn(rng, 6, 1)])  # pivot ratio ~1e-18
        good = random_hpd(rng, 2)
        rhs = crandn(rng, 3, 2, 1)
        with pytest.raises(np.linalg.LinAlgError, match="rank deficient"):
            solve_hpd(np.stack([good, f.conj().T @ f, good]), rhs)
        indefinite = np.diag([1.0, -1.0]).astype(complex)
        with pytest.raises(np.linalg.LinAlgError, match="positive definite"):
            solve_hpd(np.stack([good, good, indefinite]), rhs)
        corrupt = np.stack([good, good, good])
        corrupt[1, 0, 0] = np.nan
        with pytest.raises(ValueError):
            solve_hpd(corrupt, rhs)

    def test_batch_shape_validation(self):
        a = np.stack([np.eye(3)] * 4)
        with pytest.raises(ValueError):
            solve_hpd(a, np.ones((3, 3, 1)))  # batch of 3 against 4 matrices
        with pytest.raises(ValueError):
            solve_hpd(a, np.ones((4, 2, 1)))  # rows do not match
        with pytest.raises(ValueError):
            solve_hpd(a, np.ones((4, 2, 2, 3, 1)))
        with pytest.raises(ValueError):
            solve_hpd(np.ones((4, 3, 2)), np.ones((4, 3, 1)))


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
