import math

import numpy as np
import pytest

from hybridsim.channel import (
    ArrayGeometry,
    ClusterParams,
    array_response,
    gen_narrowband,
    gen_wideband,
    sample_cluster_angles,
)


def steer_ref(geom, az, el):
    """Reference steering vector, built entry by entry."""
    out = np.zeros(geom.side**2, dtype=complex)
    for p in range(geom.side):
        for q in range(geom.side):
            phase = (
                2.0
                * np.pi
                * geom.spacing_over_lambda
                * (p * np.sin(az) * np.sin(el) + q * np.cos(el))
            )
            out[p * geom.side + q] = np.exp(1j * phase) / geom.side
    return out


def replay_channel(seed, tx_geom, rx_geom, params, n_sub):
    """Reference generator: replays the documented RNG stream order and
    accumulates the per-ray outer products with explicit loops."""
    rng = np.random.default_rng(seed)
    re = rng.standard_normal((params.n_clusters, params.n_rays))
    im = rng.standard_normal((params.n_clusters, params.n_rays))
    gains = (re + 1j * im) / np.sqrt(2.0)
    means = rng.uniform(0.0, 2.0 * np.pi, size=(params.n_clusters, 4))
    offs = params.angular_spread_rad * rng.standard_normal(
        size=(params.n_clusters, params.n_rays, 4)
    )
    gamma = np.sqrt(
        tx_geom.n_elements * rx_geom.n_elements / (params.n_clusters * params.n_rays)
    )
    out = []
    for k in range(n_sub):
        h = np.zeros((rx_geom.n_elements, tx_geom.n_elements), dtype=complex)
        for i in range(params.n_clusters):
            delay = np.exp(-2j * np.pi * i * k / n_sub)
            for l in range(params.n_rays):
                at = steer_ref(tx_geom, means[i, 0] + offs[i, l, 0], means[i, 1] + offs[i, l, 1])
                ar = steer_ref(rx_geom, means[i, 2] + offs[i, l, 2], means[i, 3] + offs[i, l, 3])
                h += gains[i, l] * delay * np.outer(ar, at.conj())
        out.append(gamma * h)
    return out


class TestArrayResponse:
    def test_hand_case_both_angles_quarter_turn(self):
        # az = el = pi/2: p-term alternates sign, q-term is flat
        a = array_response(ArrayGeometry(2), np.pi / 2, np.pi / 2)
        assert np.allclose(a, np.array([1, 1, -1, -1]) / 2.0, atol=1e-12)

    def test_hand_case_zero_azimuth(self):
        a = array_response(ArrayGeometry(3), 0.0, np.pi / 2)
        assert np.allclose(a, np.full(9, 1 / 3.0), atol=1e-12)

    def test_hand_case_zero_elevation(self):
        # el = 0: q-term alternates, p-term is flat
        a = array_response(ArrayGeometry(2), 1.234, 0.0)
        assert np.allclose(a, np.array([1, -1, 1, -1]) / 2.0, atol=1e-12)

    def test_matches_reference_loop(self):
        rng = np.random.default_rng(11)
        for side, spacing in [(2, 0.5), (4, 0.5), (3, 0.25), (5, 0.7)]:
            geom = ArrayGeometry(side, spacing)
            for _ in range(20):
                az, el = rng.uniform(0, 2 * np.pi, 2)
                assert np.allclose(
                    array_response(geom, az, el), steer_ref(geom, az, el), atol=1e-13
                )

    @pytest.mark.parametrize("side", range(1, 13))
    def test_scale_gives_the_bits_of_dividing_by_side(self, side):
        # the steering vectors are scaled by 1.0 / side; on their entries that
        # must give the bits of the quotient by side, on the oldest NumPy
        # admitted as on the newest
        geom = ArrayGeometry(side, 0.5)
        rng = np.random.default_rng(side)
        edges = np.array([0.0, -0.0, np.pi / 2, -np.pi / 2, np.pi, -np.pi])
        az = np.concatenate([rng.uniform(-7.0, 7.0, 50), edges, np.roll(edges, 1)])
        el = np.concatenate([rng.uniform(-7.0, 7.0, 50), np.roll(edges, 2), edges])
        idx = np.arange(side)
        k = 2.0 * np.pi * geom.spacing_over_lambda
        p_phase = np.exp(1j * k * np.outer(idx, np.sin(az) * np.sin(el)))
        q_phase = np.exp(1j * k * np.outer(idx, np.cos(el)))
        product = (p_phase[:, None, :] * q_phase[None, :, :]).reshape(side**2, -1)
        got = array_response(geom, az, el)
        assert got.tobytes() == (product / side).T.tobytes()

    @pytest.mark.parametrize("shape", [(7,), (3, 4)])
    @pytest.mark.parametrize("side", [2, 5, 8])
    def test_arrays_of_angles_give_the_scalar_vectors_bitwise(self, side, shape):
        geom = ArrayGeometry(side, 0.5)
        rng = np.random.default_rng(side)
        edges = np.array([0.0, -0.0, np.pi / 2, -np.pi / 2, np.pi, -np.pi])
        extra = math.prod(shape) - edges.size
        az = np.concatenate([edges, rng.uniform(-7.0, 7.0, extra)]).reshape(shape)
        el = rng.permutation(
            np.concatenate([np.roll(edges, 2), rng.uniform(-7.0, 7.0, extra)])
        ).reshape(shape)
        got = array_response(geom, az, el)
        assert got.shape == (*shape, side**2)
        for i in np.ndindex(shape):
            want = array_response(geom, float(az[i]), float(el[i]))
            assert got[i].tobytes() == want.tobytes()

    def test_unit_norm(self):
        rng = np.random.default_rng(12)
        geom = ArrayGeometry(6)
        for _ in range(200):
            az, el = rng.uniform(0, 2 * np.pi, 2)
            assert abs(np.linalg.norm(array_response(geom, az, el)) - 1.0) < 1e-14

    def test_geometry_validation(self):
        with pytest.raises(ValueError):
            ArrayGeometry(0)
        with pytest.raises(ValueError):
            ArrayGeometry(2, spacing_over_lambda=0.0)

    @pytest.mark.parametrize("side", [2.5, math.nan, math.inf, True])
    def test_non_integral_side_rejected(self, side):
        # side 2.5 would give an array of 6.25 elements
        with pytest.raises(ValueError, match="side"):
            ArrayGeometry(side)

    @pytest.mark.parametrize("spacing", [math.nan, math.inf])
    def test_non_finite_spacing_rejected(self, spacing):
        with pytest.raises(ValueError, match="spacing_over_lambda"):
            ArrayGeometry(2, spacing_over_lambda=spacing)

    def test_integral_float_side_becomes_int(self):
        geom = ArrayGeometry(3.0)
        assert type(geom.side) is int and geom.n_elements == 9


class TestClusterAngles:
    def test_shapes_and_ranges(self):
        rng = np.random.default_rng(13)
        params = ClusterParams(n_clusters=5, n_rays=7)
        means, offsets = sample_cluster_angles(rng, params)
        assert means.shape == (5, 4)
        assert np.all((means >= 0) & (means < 2 * np.pi))
        assert offsets.shape == (5, 7, 4)

    def test_offset_spread_statistics(self):
        # pooled std over all offset components should sit at the configured
        # spread; ~1.3e5 samples keeps the sampling error well under 2%
        params = ClusterParams(n_clusters=64, n_rays=128)
        _, offsets = sample_cluster_angles(np.random.default_rng(14), params)
        spread = np.radians(10.0)
        assert abs(offsets.std(ddof=1) - spread) < 0.02 * spread

    def test_params_validation(self):
        with pytest.raises(ValueError):
            ClusterParams(n_clusters=0)
        with pytest.raises(ValueError):
            ClusterParams(angular_spread_rad=-0.1)

    @pytest.mark.parametrize(
        "overrides",
        [{"n_clusters": 2.5}, {"n_rays": 1.5}, {"n_clusters": math.nan}],
    )
    def test_non_integral_counts_rejected(self, overrides):
        with pytest.raises(ValueError, match="must be an integer|finite"):
            ClusterParams(**overrides)

    @pytest.mark.parametrize("spread", [math.nan, math.inf])
    def test_non_finite_spread_rejected(self, spread):
        with pytest.raises(ValueError, match="angular_spread_rad"):
            ClusterParams(angular_spread_rad=spread)


class TestGenerator:
    def test_matches_replay_reference(self):
        # (params, tx side, rx side, subcarriers, seeds): a small draw, and the
        # default clusters at the wideband and narrowband benchmark shapes
        cases = [
            (ClusterParams(n_clusters=3, n_rays=2), 3, 2, 4, (0, 1, 42)),
            (ClusterParams(), 6, 4, 16, (0,)),
            (ClusterParams(), 8, 4, 1, (0,)),
        ]
        for params, tx_side, rx_side, n_sub, seeds in cases:
            tx, rx = ArrayGeometry(tx_side), ArrayGeometry(rx_side)
            for seed in seeds:
                channel = gen_wideband(seed, tx, rx, params, n_subcarriers=n_sub)
                ref = replay_channel(seed, tx, rx, params, n_sub)
                assert len(channel) == len(ref) == n_sub
                for h, h_ref in zip(channel, ref):
                    assert np.allclose(h, h_ref, atol=1e-13)

    def test_narrowband_equals_wideband_k1(self):
        params = ClusterParams(n_clusters=2, n_rays=3)
        a = gen_narrowband(7, ArrayGeometry(4), ArrayGeometry(2), params)
        b = gen_wideband(7, ArrayGeometry(4), ArrayGeometry(2), params, 1)
        assert a.shape == (4, 16)
        assert a.tobytes() == b[0].tobytes()

    def test_subcarrier_zero_has_no_delay_phase(self):
        # (params, tx side, rx side, subcarriers); the second case is the
        # default clusters at the narrowband benchmark shape
        cases = [
            (ClusterParams(n_clusters=4, n_rays=2), 3, 3, 8),
            (ClusterParams(), 8, 4, 16),
        ]
        for params, tx_side, rx_side, n_sub in cases:
            tx, rx = ArrayGeometry(tx_side), ArrayGeometry(rx_side)
            nb = gen_narrowband(9, tx, rx, params)
            wb = gen_wideband(9, tx, rx, params, n_sub)
            assert np.array_equal(nb, wb[0])
            assert not np.allclose(wb[0], wb[3])

    def test_determinism(self):
        params = ClusterParams()
        a = gen_narrowband(5, ArrayGeometry(4), ArrayGeometry(2), params)
        b = gen_narrowband(5, ArrayGeometry(4), ArrayGeometry(2), params)
        c = gen_narrowband(6, ArrayGeometry(4), ArrayGeometry(2), params)
        assert np.array_equal(a, b)
        assert not np.array_equal(a, c)

    def test_rank_bounded_by_ray_count(self):
        params = ClusterParams(n_clusters=2, n_rays=1)
        h = gen_narrowband(3, ArrayGeometry(4), ArrayGeometry(4), params)
        s = np.linalg.svd(h, compute_uv=False)
        assert s[2] < 1e-12 * s[0]  # at most 2 propagation paths

    def test_mean_frobenius_normalization(self):
        params = ClusterParams()
        tx, rx = ArrayGeometry(4), ArrayGeometry(2)
        acc = 0.0
        n_draws = 400
        for seed in range(n_draws):
            acc += np.linalg.norm(gen_narrowband(seed, tx, rx, params)) ** 2
        ratio = acc / n_draws / (tx.n_elements * rx.n_elements)
        assert abs(ratio - 1.0) < 0.05

    def test_realization_metadata(self):
        params = ClusterParams(n_clusters=2, n_rays=2)
        channel = gen_wideband(11, ArrayGeometry(3), ArrayGeometry(2), params, 5)
        assert type(channel) is np.ndarray
        assert channel.dtype == np.complex128
        assert channel.shape == (5, 4, 9)
        assert channel.flags.c_contiguous

    def test_integer_seeds_of_any_type_and_size(self):
        def draw(seed):
            geom = ArrayGeometry(2)
            return gen_wideband(seed, geom, geom, ClusterParams(), 2)

        assert draw(np.int64(3)).tobytes() == draw(3).tobytes()
        # a seed beyond float range draws, and is not rounded to a float
        huge = draw(2**70)
        assert huge.shape == (2, 4, 4) and np.isfinite(huge).all()
        assert huge.tobytes() != draw(2**70 + 1).tobytes()

    @pytest.mark.parametrize(
        "seed",
        [None, True, -1, 2.5, "3"],
        ids=["none", "seed_bool", "seed_negative", "seed_fraction", "seed_text"],
    )
    def test_rejects_bad_seed(self, seed):
        # checked before the generator is seeded: None would draw from OS
        # entropy, and NumPy's own error for 2.5 or "3" does not name the seed
        with pytest.raises(ValueError, match="seed"):
            gen_wideband(seed, ArrayGeometry(2), ArrayGeometry(2), ClusterParams(), 1)

    @pytest.mark.parametrize(
        "tx_geom, params",
        [
            (ArrayGeometry(2, 1e308), ClusterParams()),
            (ArrayGeometry(2), ClusterParams(angular_spread_rad=1e308)),
        ],
        ids=["spacing", "spread"],
    )
    def test_rejects_non_finite_draw(self, tx_geom, params):
        # each input passes its own validation, and its steering phases
        # overflow to inf or NaN
        with np.errstate(all="ignore"), pytest.raises(ValueError, match="non-finite"):
            gen_wideband(1, tx_geom, ArrayGeometry(2), params, 1)

    def test_invalid_subcarriers(self):
        with pytest.raises(ValueError):
            gen_wideband(0, ArrayGeometry(2), ArrayGeometry(2), ClusterParams(), 0)
        # the delay table would hold ceil(2.5) = 3 subcarriers
        with pytest.raises(ValueError, match="n_subcarriers must be an integer"):
            gen_wideband(0, ArrayGeometry(2), ArrayGeometry(2), ClusterParams(), 2.5)
