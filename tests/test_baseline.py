import numpy as np
import pytest

from hybridsim.baseline import optimal_factors, spectral_efficiency
from hybridsim.numerics import logdet_eval


def crandn(rng, *shape):
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


def rate_ref(h, f, wc, snr, n_s):
    """Reference rate: explicit inverse and determinant, no shared code path."""
    g = wc.conj().T @ h @ f
    rn = wc.conj().T @ wc
    m = np.eye(n_s) + (snr / n_s) * np.linalg.inv(rn) @ g @ g.conj().T
    return float(np.log2(np.linalg.det(m).real))


def random_orthonormal(rng, n, k):
    q, _ = np.linalg.qr(crandn(rng, n, k))
    return q


class TestOptimalFactors:
    def test_shapes_and_orthonormal_columns(self):
        rng = np.random.default_rng(0)
        h = crandn(rng, 4, 6)
        fo = optimal_factors(h, 3)
        assert fo.f_opt.shape == (6, 3)
        assert fo.w_opt.shape == (4, 3)
        assert np.linalg.norm(fo.f_opt.conj().T @ fo.f_opt - np.eye(3)) < 1e-12
        assert np.linalg.norm(fo.w_opt.conj().T @ fo.w_opt - np.eye(3)) < 1e-12

    def test_singular_triplet_relation(self):
        # H v_i = s_i u_i for the returned leading pairs
        rng = np.random.default_rng(1)
        h = crandn(rng, 5, 7)
        fo = optimal_factors(h, 2)
        for i in range(2):
            lhs = h @ fo.f_opt[:, i]
            rhs = fo.singular_values[i] * fo.w_opt[:, i]
            assert np.linalg.norm(lhs - rhs) < 1e-12 * fo.singular_values[0]

    def test_diagonal_channel_picks_strongest_direction(self):
        h = np.diag([3.0, 1.0]).astype(complex)
        fo = optimal_factors(h, 1)
        assert abs(abs(fo.f_opt[0, 0]) - 1.0) < 1e-12
        assert abs(fo.f_opt[1, 0]) < 1e-12

    def test_n_s_out_of_range(self):
        h = np.eye(3, dtype=complex)
        with pytest.raises(ValueError):
            optimal_factors(h, 4)
        with pytest.raises(ValueError):
            optimal_factors(h, 0)

    def test_vector_channel_rejected(self):
        with pytest.raises(ValueError, match="expected a matrix or a stack"):
            optimal_factors(np.ones(4), 1)

    @pytest.mark.parametrize("n_s, match", [(2.5, "an integer"), (True, "a finite")])
    def test_n_s_must_be_integral(self, n_s, match):
        h = crandn(np.random.default_rng(2), 3, 4)
        assert optimal_factors(h, 2.0).f_opt.shape == (4, 2)
        with pytest.raises(ValueError, match=f"n_s must be {match}"):
            optimal_factors(h, n_s)

    @pytest.mark.parametrize("ratio, svd_calls", [(0.05, 0), (0.005, 1)])
    def test_gram_route_threshold(self, monkeypatch, ratio, svd_calls):
        # sigma_2 / sigma_1 = ratio: the Gram route above 1e-2, the SVD below
        rng = np.random.default_rng(7)
        u, v = random_orthonormal(rng, 4, 2), random_orthonormal(rng, 6, 2)
        h = u @ np.diag([1.0, ratio]) @ v.conj().T
        real = np.linalg.svd
        calls = []

        def counted(*args, **kwargs):
            calls.append(args)
            return real(*args, **kwargs)

        monkeypatch.setattr(np.linalg, "svd", counted)
        fo = optimal_factors(h, 2)
        assert len(calls) == svd_calls
        assert np.allclose(fo.singular_values[:2], [1.0, ratio], atol=1e-12)


class TestSpectralEfficiency:
    def test_identity_channel_closed_form(self):
        # H = I2, F = Wc = I2, snr = 1, two streams:
        # log2 det(I + 1/2 I) = 2 log2(3/2)
        eye = np.eye(2, dtype=complex)
        val = spectral_efficiency(eye, eye, eye, 1.0, 2)
        assert abs(val - 2.0 * np.log2(1.5)) < 1e-12

    def test_diagonal_hand_case_single_stream(self):
        h = np.diag([3.0, 1.0]).astype(complex)
        fo = optimal_factors(h, 1)
        val = spectral_efficiency(h, fo.f_opt, fo.w_opt, 2.0, 1)
        assert abs(val - np.log2(19.0)) < 1e-12

    def test_matches_det_reference(self):
        rng = np.random.default_rng(2)
        for _ in range(50):
            h = crandn(rng, 4, 5)
            f = crandn(rng, 5, 2)
            wc = crandn(rng, 4, 2)
            snr = float(rng.uniform(0.05, 10.0))
            got = spectral_efficiency(h, f, wc, snr, 2)
            ref = rate_ref(h, f, wc, snr, 2)
            assert abs(got - ref) < 1e-10 * max(1.0, abs(ref))

    def test_unitary_rotation_invariance(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            h = crandn(rng, 4, 6)
            f = crandn(rng, 6, 2)
            wc = crandn(rng, 4, 2)
            u = random_orthonormal(rng, 2, 2)
            base = spectral_efficiency(h, f, wc, 1.7, 2)
            assert abs(spectral_efficiency(h, f @ u, wc, 1.7, 2) - base) < 1e-10
            assert abs(spectral_efficiency(h, f, wc @ u, 1.7, 2) - base) < 1e-10

    def test_monotone_in_snr(self):
        rng = np.random.default_rng(4)
        h = crandn(rng, 4, 4)
        fo = optimal_factors(h, 2)
        vals = [
            spectral_efficiency(h, fo.f_opt, fo.w_opt, snr, 2)
            for snr in (0.1, 1.0, 10.0, 100.0)
        ]
        assert all(b > a for a, b in zip(vals, vals[1:]))
        assert spectral_efficiency(h, fo.f_opt, fo.w_opt, 0.0, 2) == 0.0

    def test_svd_factors_beat_random_factors(self):
        rng = np.random.default_rng(5)
        wins = 0
        for _ in range(20):
            h = crandn(rng, 4, 8)
            fo = optimal_factors(h, 2)
            best = spectral_efficiency(h, fo.f_opt, fo.w_opt, 1.0, 2)
            rnd = spectral_efficiency(
                h, random_orthonormal(rng, 8, 2), random_orthonormal(rng, 4, 2), 1.0, 2
            )
            wins += best > rnd
        assert wins == 20

    def test_rank_deficient_combiner_rejected(self):
        h = np.eye(3, dtype=complex)
        f = np.eye(3, dtype=complex)[:, :2]
        wc = np.zeros((3, 2), dtype=complex)
        wc[:, 0] = [1, 0, 0]
        wc[:, 1] = [1, 0, 0]  # duplicated column
        with pytest.raises(np.linalg.LinAlgError):
            spectral_efficiency(h, f, wc, 1.0, 2)

    @pytest.mark.parametrize("c", [1e-2, 1e-4, 1e-6, 1e-8])
    def test_ill_conditioned_combiner_exact_rate(self, c):
        # Wc = [diag(1, c) R^H; 0] spans the first two receive axes whatever
        # c is, so the rate is that of G = (H F)[:2] seen without whitening
        rng = np.random.default_rng(13)
        h, f = crandn(rng, 5, 7), crandn(rng, 7, 2)
        t = 0.7
        rot = np.array([[np.cos(t), -np.sin(t)], [np.sin(t), np.cos(t)]]) * np.exp(
            [[0.3j], [-1.1j]]
        )
        wc = np.zeros((5, 2), dtype=complex)
        wc[:2] = np.diag([1.0, c]) @ rot.conj().T
        g = (h @ f)[:2]
        for snr in (0.1, 1.0, 100.0):
            exact = logdet_eval(np.eye(2) + (snr / 2) * (g @ g.conj().T))
            got = spectral_efficiency(h, f, wc, snr, 2)
            assert abs(got - exact) <= 1e-12 * exact

    def test_near_parallel_combiner_is_rated(self):
        # Wc^H Wc rounds to a singular matrix; the combiner itself does not
        h = np.eye(3, dtype=complex)
        f = np.eye(3, dtype=complex)[:, :2]
        wc = np.array([[1, 1], [0, 1e-9], [0, 0]], dtype=complex)
        got = spectral_efficiency(h, f, wc, 1.0, 2)
        assert abs(got - 2 * np.log2(1.5)) <= 1e-14

    def test_zero_and_short_combiners_rejected(self):
        h = np.eye(3, dtype=complex)
        f = np.eye(3, dtype=complex)[:, :2]
        with pytest.raises(np.linalg.LinAlgError, match="rank deficient"):
            spectral_efficiency(h, f, np.zeros((3, 2), dtype=complex), 1.0, 2)
        # one receive antenna cannot separate two streams
        with pytest.raises(np.linalg.LinAlgError, match="rank deficient"):
            spectral_efficiency(h[:1], f, np.ones((1, 2), dtype=complex), 1.0, 2)

    def test_validation(self):
        h = np.eye(3, dtype=complex)
        f = np.eye(3, dtype=complex)[:, :2]
        with pytest.raises(ValueError):
            spectral_efficiency(h, f, f, -1.0, 2)  # negative snr
        with pytest.raises(ValueError, match="nonnegative"):
            spectral_efficiency(h, f, f, np.nan, 2)
        with pytest.raises(ValueError):
            spectral_efficiency(h, f[:2], f, 1.0, 2)  # bad precoder shape

    @pytest.mark.parametrize("n_s, match", [(2.5, "an integer"), (True, "a finite")])
    def test_n_s_must_be_integral(self, n_s, match):
        # on one-stream factors, True would otherwise rate as 1 stream
        h = crandn(np.random.default_rng(3), 4, 4)
        fo = optimal_factors(h, 1)
        with pytest.raises(ValueError, match=f"n_s must be {match}"):
            spectral_efficiency(h, fo.f_opt, fo.w_opt, 10.0, n_s)

    @pytest.mark.parametrize("n_s", [0, -1])
    def test_n_s_must_be_positive(self, n_s):
        # zero streams with (n, 0) composites pass the shape check; without the
        # range check the rank test indexes an empty SVD
        h = crandn(np.random.default_rng(3), 4, 4)
        empty = np.zeros((4, max(n_s, 0)), dtype=complex)
        with pytest.raises(ValueError, match="n_s must be >= 1"):
            spectral_efficiency(h, empty, empty, 10.0, n_s)

    def test_integral_float_n_s_counts_as_int(self):
        rng = np.random.default_rng(4)
        h = crandn(rng, 4, 5)
        fo = optimal_factors(h, 2)
        snrs = np.array([0.1, 1.0, 10.0])
        want = spectral_efficiency(h, fo.f_opt, fo.w_opt, snrs, 2)
        got = spectral_efficiency(h, fo.f_opt, fo.w_opt, snrs, 2.0)
        assert got.tobytes() == want.tobytes()
        assert spectral_efficiency(h, fo.f_opt, fo.w_opt, 1.0, 2.0) == want[1]

    def test_snr_list_matches_per_snr_logdet_form(self):
        # one whitening and one SVD per call must reproduce the
        # difference-of-log-dets form at every SNR point
        rng = np.random.default_rng(6)
        snrs = np.array([0.0, 0.01, 0.3, 1.0, 7.5, 100.0, 1e4])
        for n_rx, n_tx, n_s in [(4, 5, 2), (16, 64, 2), (6, 6, 3), (3, 8, 1)]:
            for _ in range(10):
                h = crandn(rng, n_rx, n_tx)
                f = crandn(rng, n_tx, n_s)
                wc = crandn(rng, n_rx, n_s)
                got = spectral_efficiency(h, f, wc, snrs, n_s)
                assert got.shape == snrs.shape
                for snr, val in zip(snrs, got):
                    ref = logdet_rate(h, f, wc, snr, n_s)
                    assert abs(val - ref) < 1e-10 * max(1.0, abs(ref))
                    scalar = spectral_efficiency(h, f, wc, float(snr), n_s)
                    assert isinstance(scalar, float)
                    assert abs(scalar - val) < 1e-12 * max(1.0, abs(val))

    def test_snr_list_rank_deficient_combiner_rejected(self):
        h = np.eye(3, dtype=complex)
        f = np.eye(3, dtype=complex)[:, :2]
        wc = np.zeros((3, 2), dtype=complex)
        wc[:, 0] = wc[:, 1] = [1, 0, 0]
        with pytest.raises(np.linalg.LinAlgError):
            spectral_efficiency(h, f, wc, np.array([0.1, 1.0, 10.0]), 2)

    def test_snr_list_validation(self):
        h = np.eye(3, dtype=complex)
        f = np.eye(3, dtype=complex)[:, :2]
        with pytest.raises(ValueError):
            spectral_efficiency(h, f, f, np.array([1.0, -1.0]), 2)
        with pytest.raises(ValueError, match="nonnegative"):
            spectral_efficiency(h, f, f, [1.0, np.nan], 2)
        with pytest.raises(ValueError):
            spectral_efficiency(h, f, f, np.ones((2, 2)), 2)
        bad = f.copy()
        bad[0, 0] = np.nan
        with pytest.raises(ValueError):
            spectral_efficiency(h, bad, f, np.array([1.0, 2.0]), 2)
        with pytest.raises(ValueError):
            spectral_efficiency(h, f, bad, 1.0, 2)


def logdet_rate(h, f, wc, snr, n_s):
    """The rate as log det(Rn + snr/n_s G G^H) - log det(Rn), per SNR."""
    rn = wc.conj().T @ wc
    g = wc.conj().T @ h @ f
    signal = rn + (snr / n_s) * (g @ g.conj().T)
    rn = 0.5 * (rn + rn.conj().T)
    signal = 0.5 * (signal + signal.conj().T)
    return logdet_eval(signal) - logdet_eval(rn)
