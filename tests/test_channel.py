import json
import math

import numpy as np
import pytest

from hybridsim.channel import (
    ArrayGeometry,
    ChannelRealization,
    ClusterParams,
    _response_matrix,
    array_response,
    gen_narrowband,
    gen_wideband,
    load_channel,
    sample_cluster_angles,
    save_channel,
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
        # the steering matrix is scaled by 1.0 / side; on its entries that
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
        got = _response_matrix(geom, az, el)
        assert got.tobytes() == (product / side).tobytes()

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
        ang = sample_cluster_angles(rng, params)
        for mean in (ang.tx_az_mean, ang.tx_el_mean, ang.rx_az_mean, ang.rx_el_mean):
            assert mean.shape == (5,)
            assert np.all((mean >= 0) & (mean < 2 * np.pi))
        assert ang.tx_az_offset.shape == (5, 7)
        assert ang.tx_azimuth.shape == (5, 7)
        assert np.allclose(ang.tx_azimuth, ang.tx_az_mean[:, None] + ang.tx_az_offset)

    def test_offset_spread_statistics(self):
        # pooled std over all offset components should sit at the configured
        # spread; ~1.3e5 samples keeps the sampling error well under 2%
        params = ClusterParams(n_clusters=64, n_rays=128)
        ang = sample_cluster_angles(np.random.default_rng(14), params)
        pooled = np.concatenate(
            [
                ang.tx_az_offset.ravel(),
                ang.tx_el_offset.ravel(),
                ang.rx_az_offset.ravel(),
                ang.rx_el_offset.ravel(),
            ]
        )
        spread = np.radians(10.0)
        assert abs(pooled.std(ddof=1) - spread) < 0.02 * spread

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
        params = ClusterParams(n_clusters=3, n_rays=2)
        tx, rx = ArrayGeometry(3), ArrayGeometry(2)
        for seed in (0, 1, 42):
            real = gen_wideband(seed, tx, rx, params, n_subcarriers=4)
            ref = replay_channel(seed, tx, rx, params, 4)
            for h, h_ref in zip(real.matrices, ref):
                assert np.allclose(h, h_ref, atol=1e-13)

    def test_narrowband_equals_wideband_k1(self):
        params = ClusterParams(n_clusters=2, n_rays=3)
        a = gen_narrowband(7, ArrayGeometry(4), ArrayGeometry(2), params)
        b = gen_wideband(7, ArrayGeometry(4), ArrayGeometry(2), params, 1)
        assert np.array_equal(a.matrix, b.matrix)

    def test_subcarrier_zero_has_no_delay_phase(self):
        params = ClusterParams(n_clusters=4, n_rays=2)
        nb = gen_narrowband(9, ArrayGeometry(3), ArrayGeometry(3), params)
        wb = gen_wideband(9, ArrayGeometry(3), ArrayGeometry(3), params, 8)
        assert np.array_equal(nb.matrix, wb.matrices[0])
        assert not np.allclose(wb.matrices[0], wb.matrices[3])

    def test_determinism(self):
        params = ClusterParams()
        a = gen_narrowband(5, ArrayGeometry(4), ArrayGeometry(2), params)
        b = gen_narrowband(5, ArrayGeometry(4), ArrayGeometry(2), params)
        c = gen_narrowband(6, ArrayGeometry(4), ArrayGeometry(2), params)
        assert np.array_equal(a.matrix, b.matrix)
        assert not np.array_equal(a.matrix, c.matrix)

    def test_rank_bounded_by_ray_count(self):
        params = ClusterParams(n_clusters=2, n_rays=1)
        real = gen_narrowband(3, ArrayGeometry(4), ArrayGeometry(4), params)
        s = np.linalg.svd(real.matrix, compute_uv=False)
        assert s[2] < 1e-12 * s[0]  # at most 2 propagation paths

    def test_mean_frobenius_normalization(self):
        params = ClusterParams()
        tx, rx = ArrayGeometry(4), ArrayGeometry(2)
        acc = 0.0
        n_draws = 400
        for seed in range(n_draws):
            acc += np.linalg.norm(gen_narrowband(seed, tx, rx, params).matrix) ** 2
        ratio = acc / n_draws / (tx.n_elements * rx.n_elements)
        assert abs(ratio - 1.0) < 0.05

    def test_realization_metadata(self):
        params = ClusterParams(n_clusters=2, n_rays=2)
        real = gen_wideband(11, ArrayGeometry(3), ArrayGeometry(2), params, 5)
        assert real.seed == 11
        assert real.n_subcarriers == 5
        assert len(real.matrices) == 5
        assert real.matrices[2].shape == (4, 9)
        assert real.tx_geometry.side == 3

    def test_invalid_subcarriers(self):
        with pytest.raises(ValueError):
            gen_wideband(0, ArrayGeometry(2), ArrayGeometry(2), ClusterParams(), 0)
        # the delay table would hold ceil(2.5) = 3 subcarriers
        with pytest.raises(ValueError, match="n_subcarriers must be an integer"):
            gen_wideband(0, ArrayGeometry(2), ArrayGeometry(2), ClusterParams(), 2.5)


class TestDump:
    def test_round_trip_exact(self, tmp_path):
        params = ClusterParams(n_clusters=3, n_rays=4)
        real = gen_wideband(21, ArrayGeometry(3), ArrayGeometry(2), params, 3)
        path = tmp_path / "chan.json"
        save_channel(real, path)
        back = load_channel(path)
        # repr-based JSON floats round-trip binary64 exactly
        for h, h2 in zip(real.matrices, back.matrices):
            assert np.array_equal(h, h2)
        assert back.seed == real.seed
        assert back.n_subcarriers == 3
        assert back.tx_geometry == real.tx_geometry
        assert back.rx_geometry == real.rx_geometry
        assert back.params == real.params

    def test_round_trip_keeps_signed_zeros(self, tmp_path):
        h = np.array(
            [[complex(-0.0, 0.0), complex(0.0, -0.0), complex(-0.0, -0.0), 1.5 - 2.0j]]
        )
        real = ChannelRealization(
            matrices=[h],
            tx_geometry=ArrayGeometry(2),
            rx_geometry=ArrayGeometry(1),
        )
        path = tmp_path / "chan.json"
        save_channel(real, path)
        assert load_channel(path).matrices[0].tobytes() == h.tobytes()

    @pytest.mark.parametrize(
        "matrices, tx_side, match",
        [
            # 4x4 matrices beside the default one-element geometries
            ([np.ones((4, 4), dtype=complex)], 1, r"\(1, 4, 4\) do not match"),
            # a stack of no subcarriers
            (np.ones((0, 1, 1), dtype=complex), 1, r"\(0, 1, 1\) do not match"),
            # the 4 entries of a 1x4 matrix in a 4x1 shape would load as 1x4
            (
                [np.arange(4, dtype=complex).reshape(4, 1)],
                2,
                r"\(1, 4, 1\) do not match a 1-element receive and a 4-element",
            ),
        ],
        ids=["geometry", "subcarriers", "shape"],
    )
    def test_save_rejects_unloadable_realization(self, matrices, tx_side, match):
        # a realization that would not load back as it is cannot be built,
        # so save_channel never sees one
        with pytest.raises(ValueError, match=match):
            ChannelRealization(matrices=matrices, tx_geometry=ArrayGeometry(tx_side))

    def test_realizations_compare_by_identity(self):
        args = (5, ArrayGeometry(2), ArrayGeometry(2), ClusterParams(), 2)
        a, b = gen_wideband(*args), gen_wideband(*args)
        assert (a == b) is False
        assert (a == a) is True

    def test_seed_beyond_float_range_round_trips(self, tmp_path):
        geom = ArrayGeometry(2)
        real = gen_wideband(2**70, geom, geom, ClusterParams(), 2)
        path = tmp_path / "chan.json"
        save_channel(real, path)
        back = load_channel(path)
        assert back.seed == real.seed == 2**70
        assert back.matrices.tobytes() == real.matrices.tobytes()

    def test_matrices_are_one_complex_array(self, tmp_path):
        real = gen_wideband(
            23, ArrayGeometry(3), ArrayGeometry(2), ClusterParams(3, 2), 5
        )
        path = tmp_path / "chan.json"
        save_channel(real, path)
        back = load_channel(path)
        for matrices in (real.matrices, back.matrices):
            assert isinstance(matrices, np.ndarray)
            assert matrices.dtype == np.complex128
            assert matrices.shape == (5, 4, 9)
        assert back.matrices.tobytes() == real.matrices.tobytes()

    def test_rejects_unknown_format(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"format": "something-else"}')
        with pytest.raises(ValueError):
            load_channel(path)

    @pytest.mark.parametrize(
        "edit, match",
        [
            # a 3x3 (9-element) transmit array beside 4x4 matrices
            (lambda doc: doc["tx_geometry"].update(side=3), "do not match"),
            (
                lambda doc: doc.update(n_subcarriers=5),
                "2 entry lists for 5 subcarriers",
            ),
            (lambda doc: doc["entries"][1].pop(), "holds 31 numbers"),
            (
                lambda doc: doc["rx_geometry"].update(side=2.5),
                "side must be an integer",
            ),
            (
                lambda doc: doc["tx_geometry"].update(spacing_over_lambda=math.nan),
                "spacing_over_lambda",
            ),
            (
                lambda doc: doc["cluster_params"].update(n_rays=2.5),
                "n_rays must be an integer",
            ),
            (
                lambda doc: doc["cluster_params"].update(angular_spread_rad=math.inf),
                "angular_spread_rad",
            ),
            # entry lists of the right length for (-4) x (-4) matrices
            (lambda doc: doc.update(n_rx=-4, n_tx=-4), "-4 x -4 matrices have a neg"),
            (lambda doc: doc.update(seed="abc"), "seed must be a finite number"),
            (lambda doc: doc.update(seed=-5.5), "seed must be an integer"),
            (lambda doc: doc.update(seed=True), "seed must be a finite number"),
            (lambda doc: doc.update(seed=-1), "seed must be nonnegative"),
            (lambda doc: [doc], "a channel dump is a JSON object, not a list"),
            (lambda doc: doc.__delitem__("n_rx"), r"lacks \['n_rx'\]"),
            (lambda doc: doc.update(entries=5), "entries must be a list of number"),
            (
                lambda doc: doc["entries"].__setitem__(1, 5),
                "entries must be a list of number",
            ),
            # entries that np.asarray(..., dtype=float) would take as NaN,
            # 1.0 and 0.25
            (
                lambda doc: doc["entries"][0].__setitem__(0, None),
                "entries must be JSON numbers, got None",
            ),
            (
                lambda doc: doc["entries"][1].__setitem__(3, True),
                "entries must be JSON numbers, got True",
            ),
            (
                lambda doc: doc["entries"][0].__setitem__(5, "0.25"),
                "entries must be JSON numbers, got '0.25'",
            ),
            # an integer that json.load keeps exact and no float holds
            (
                lambda doc: doc["entries"][1].__setitem__(2, 10**400),
                "an entry is an integer beyond float range",
            ),
            (
                lambda doc: doc.update(tx_geometry=[2, 0.5]),
                r"tx_geometry must be an object with the keys",
            ),
            (
                lambda doc: doc["tx_geometry"].update(rows=2),
                r"tx_geometry must be an object with the keys",
            ),
        ],
        ids=[
            "geometry",
            "subcarriers",
            "entry_length",
            "side",
            "spacing",
            "cluster_count",
            "spread",
            "negative_sizes",
            "seed_text",
            "seed_fraction",
            "seed_bool",
            "seed_negative",
            "document_list",
            "missing_key",
            "entries_number",
            "entry_number",
            "entry_null",
            "entry_bool",
            "entry_text",
            "entry_huge_int",
            "geometry_list",
            "geometry_key",
        ],
    )
    def test_rejects_inconsistent_dump(self, tmp_path, edit, match):
        real = gen_wideband(3, ArrayGeometry(2), ArrayGeometry(2), ClusterParams(), 2)
        path = tmp_path / "chan.json"
        save_channel(real, path)
        doc = json.loads(path.read_text())
        # an edit changes the document in place, or returns a list to write
        # in its place
        edited = edit(doc)
        path.write_text(json.dumps(edited if isinstance(edited, list) else doc))
        with pytest.raises(ValueError, match=match):
            load_channel(path)
