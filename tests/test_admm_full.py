import re
import sys
import warnings
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from hybridsim.admm import (
    AdmmConfig,
    design_fully_connected,
    design_partially_connected,
    design_wideband,
    least_squares_fbb,
    project_unit_modulus,
    scale_matched_rho,
    step_frf,
)
from hybridsim.admm import AdmmState
from hybridsim.channel import ArrayGeometry, array_response


def crandn(rng, *shape):
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


def gauss_solve(a, b):
    """Gaussian elimination with partial pivoting; independent of the checked solve."""
    a = np.array(a, dtype=complex)
    b = np.array(b, dtype=complex)
    n = a.shape[0]
    for col in range(n):
        piv = col + np.argmax(np.abs(a[col:, col]))
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


def grid_project_ref(x, bits):
    """Brute force: nearest of the 2^bits unit roots by chord distance.

    argmin scans angles in increasing order, so exact ties land on the
    smaller angle, including 0 beating the last grid point at wraparound.
    """
    angles = 2 * np.pi * np.arange(2**bits) / 2**bits
    grid = np.exp(1j * angles)
    out = np.empty_like(x, dtype=complex)
    for idx in np.ndindex(x.shape):
        u = x[idx] / abs(x[idx]) if x[idx] != 0 else 1.0
        out[idx] = grid[np.argmin(np.abs(u - grid))]
    return out


def exp_form_project(x, bits):
    """Quantized projection that takes exp of every entry's grid index."""
    n = 2**bits
    step = 2.0 * np.pi / n
    grid_pos = np.mod(np.angle(x), 2.0 * np.pi) / step
    k = np.ceil(grid_pos - 0.5)
    k = np.where(grid_pos == n - 0.5, 0.0, k)
    return np.exp(1j * step * np.mod(k, n))


def random_target(rng, n_tx, n_s):
    # column-orthonormal, same scale as a true precoding target
    q, _ = np.linalg.qr(crandn(rng, n_tx, n_s))
    return q


class TestProjection:
    def test_hand_values(self):
        x = np.array([3.0 + 4.0j, 0.0, np.exp(1j * np.pi / 4)])
        p = project_unit_modulus(x)
        assert abs(p[0] - (0.6 + 0.8j)) < 1e-15
        assert p[1] == 1.0 + 0.0j
        assert abs(p[2] - np.exp(1j * np.pi / 4)) < 1e-15

    def test_unit_magnitudes(self):
        rng = np.random.default_rng(3)
        x = crandn(rng, 64, 8)
        p = project_unit_modulus(x)
        assert np.max(np.abs(np.abs(p) - 1.0)) < 1e-14

    def test_idempotent(self):
        rng = np.random.default_rng(4)
        x = crandn(rng, 200)
        p = project_unit_modulus(x)
        assert np.max(np.abs(project_unit_modulus(p) - p)) < 1e-14

    def test_subnormal_entries_keep_their_phase(self):
        # 1/|x| of these overflows; a finite unit-modulus phase must come out
        x = np.array([1e-310, 5e-324, -3e-320 + 2e-320j])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            p = project_unit_modulus(x)
        assert np.all(np.isfinite(p))
        assert np.max(np.abs(np.abs(p) - 1.0)) < 1e-15
        assert np.max(np.abs(np.angle(p) - np.angle(x))) < 1e-15

    def test_quantized_idempotent_bitwise(self):
        rng = np.random.default_rng(5)
        x = crandn(rng, 500)
        p = project_unit_modulus(x, 3)
        assert np.array_equal(project_unit_modulus(p, 3), p)

    def test_quantized_matches_brute_force(self):
        rng = np.random.default_rng(6)
        x = crandn(rng, 300)
        for bits in (1, 2, 3, 5):
            p = project_unit_modulus(x, bits)
            ref = grid_project_ref(x, bits)
            assert np.max(np.abs(p - ref)) < 1e-12

    def test_quantized_hand_value(self):
        # 0.8 rad sits between 0 and pi/2 on the 2-bit grid, nearer pi/2
        p = project_unit_modulus(np.array([np.exp(0.8j)]), 2)
        assert abs(p[0] - 1j) < 1e-15

    def test_tie_rounds_to_smaller_angle(self):
        # angle(1+1j) is exactly pi/4, equidistant from 0 and pi/2
        p = project_unit_modulus(np.array([1.0 + 1.0j]), 2)
        assert p[0] == 1.0 + 0.0j

    def test_wraparound_tie_rounds_to_zero(self):
        # angle(1-1j) = -pi/4: equidistant from 3pi/2 and 2pi == 0; the
        # smaller angle value is 0, not the last grid point
        p = project_unit_modulus(np.array([1.0 - 1.0j]), 2)
        assert p[0] == 1.0 + 0.0j

    def test_quantized_zero_maps_to_one(self):
        p = project_unit_modulus(np.array([0.0 + 0.0j]), 4)
        assert p[0] == 1.0 + 0.0j

    def test_quantized_table_matches_exp_form_bitwise(self):
        # the quantized projection looks each phase up in a 2**bits table;
        # it must equal exp(1j * step * k) of the grid index k bit for bit,
        # exact ties and the wraparound tie included
        rng = np.random.default_rng(7)
        wraparound_ties = 0
        for bits in range(1, 9):
            n = 2**bits
            step = 2 * np.pi / n
            mid = (np.arange(n) + 0.5) * step
            # each midpoint angle and its neighbours a few ulps away
            angles = np.concatenate(
                [
                    mid,
                    np.nextafter(mid, np.inf),
                    np.nextafter(mid, -np.inf),
                    [-step / 2],
                    np.arange(n) * step,
                ]
            )
            x = np.concatenate(
                [
                    crandn(rng, 400),
                    np.exp(1j * angles),
                    np.cos(angles) + 1j * np.sin(angles),
                    [0, 1, -1, 1j, -1j, 1 + 1j, 1 - 1j, -1 + 1j, -1 - 1j],
                ]
            )
            grid_pos = np.mod(np.angle(x), 2 * np.pi) / step
            assert (grid_pos % 1 == 0.5).any()  # exact ties are exercised
            wraparound_ties += (grid_pos == n - 0.5).sum()
            got = project_unit_modulus(x, bits)
            assert got.tobytes() == exp_form_project(x, bits).tobytes(), bits
        assert wraparound_ties > 0

    @pytest.mark.parametrize("bits", [1, 2, 3, 5, 8, 48])
    def test_quantized_matches_the_mod_formula_bitwise(self, bits):
        # the projection lifts a negative angle by one turn where
        # exp_form_project takes np.mod of it; both must give the same bits
        # on grid points, ties, the wraparound tie, the negative real axis
        # with either sign of zero, signed zeros, tiny and huge magnitudes
        # and NaN, on the table path (bits 1 to 8) and the exp path
        rng = np.random.default_rng(bits)
        n = 2**bits
        step = 2 * np.pi / n
        k = np.concatenate([np.arange(min(n, 32)), n - 1 - np.arange(min(n, 32))])
        angles = np.concatenate([k * step, (k + 0.5) * step, [-step / 2]])
        # points a few thousand ulps around the direction -step/2, where the
        # wraparound tie sits if a float angle reaches it
        y = -np.tan(step / 2)
        near_wrap = 1.0 + 1j * (y + np.arange(-4000, 4001) * np.spacing(y))
        wrap_pos = np.mod(np.angle(near_wrap), 2 * np.pi) / step
        signed_zeros = [complex(re, im) for re in (0.0, -0.0) for im in (0.0, -0.0)]
        negative_axis = [
            complex(-m, im) for m in (1.0, 1e-300, 1e300) for im in (0.0, -0.0)
        ]
        x = np.concatenate(
            [
                np.exp(1j * angles),
                np.cos(angles) + 1j * np.sin(angles),
                near_wrap[wrap_pos == n - 0.5],
                near_wrap[::500],
                [1 + 1j, 1 - 1j, -1 + 1j, -1 - 1j],
                signed_zeros,
                negative_axis,
                1e-300 * crandn(rng, 20),
                1e300 * crandn(rng, 20),
                crandn(rng, 300),
            ]
        )
        grid_pos = np.mod(np.angle(x), 2 * np.pi) / step
        if bits <= 8:
            assert (grid_pos % 1 == 0.5).any()  # exact ties are exercised
        if bits in (1, 2, 5):
            # on the other grids no float angle lands exactly on this tie
            assert (grid_pos == n - 0.5).any()
        nans = [complex(np.nan, 0.0), complex(0.0, np.nan), complex(np.nan, -1.0)]
        for cases in (x, np.concatenate([x, nans])):
            got = project_unit_modulus(cases, bits)
            assert got.tobytes() == exp_form_project(cases, bits).tobytes()

    @pytest.mark.parametrize("bits", [2.5, 0, -1, True, 49])
    def test_bad_phase_bits_rejected_as_by_the_config(self, bits):
        # a fractional bit count would give phases on no grid, and 0, -1 or
        # True a grid the caller did not ask for
        message = f"phase_bits must be an integer from 1 to 48, got {bits!r}"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            AdmmConfig(phase_bits=bits)
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            project_unit_modulus(1j, bits)

    def test_integral_float_phase_bits_count_as_ints(self):
        x = crandn(np.random.default_rng(8), 50)
        assert np.array_equal(project_unit_modulus(x, 2.0), project_unit_modulus(x, 2))

    def test_quantized_nan_propagates(self):
        # a NaN entry has no grid point to look up; it stays NaN, as exp of
        # a NaN index would give, and the other entries are projected
        p = project_unit_modulus(np.array([np.nan + 0j, 1j]), 2)
        assert np.isnan(p[0])
        assert p[1] == exp_form_project(np.array([1j]), 2)[0]

    @pytest.mark.parametrize("bits", [20, 48])
    def test_quantized_fine_grid_matches_exp_form_bitwise(self, bits):
        # a grid of more points than entries takes the exp of each entry
        # instead of a 2**bits table (2 PiB of table at 48 bits)
        x = crandn(np.random.default_rng(bits), 8, 4)
        got = project_unit_modulus(x, bits)
        assert got.tobytes() == exp_form_project(x, bits).tobytes()


class TestLeastSquaresFbb:
    def test_hand_case(self):
        f_rf = np.array([[1.0], [1.0]], dtype=complex)
        f_target = np.array([[1.0], [0.0]], dtype=complex)
        f_bb = least_squares_fbb(f_rf, f_target)
        assert f_bb.shape == (1, 1)
        assert abs(f_bb[0, 0] - 0.5) < 1e-15
        assert abs(np.linalg.norm(f_target - f_rf @ f_bb) ** 2 - 0.5) < 1e-15

    def test_consistent_system_recovered(self):
        rng = np.random.default_rng(10)
        f_rf = crandn(rng, 16, 4)
        f_bb = crandn(rng, 4, 2)
        sol = least_squares_fbb(f_rf, f_rf @ f_bb)
        assert np.linalg.norm(sol - f_bb) < 1e-10

    def test_beats_perturbations(self):
        rng = np.random.default_rng(11)
        f_rf = crandn(rng, 12, 5)
        f_target = crandn(rng, 12, 3)
        f_bb = least_squares_fbb(f_rf, f_target)
        base = np.linalg.norm(f_target - f_rf @ f_bb)
        for _ in range(1000):
            delta = 1e-3 * crandn(rng, 5, 3)
            assert np.linalg.norm(f_target - f_rf @ (f_bb + delta)) >= base - 1e-12

    def test_matches_gaussian_elimination(self):
        rng = np.random.default_rng(12)
        f_rf = crandn(rng, 10, 4)
        f_target = crandn(rng, 10, 4)
        f_bb = least_squares_fbb(f_rf, f_target)
        ref = gauss_solve(f_rf.conj().T @ f_rf, f_rf.conj().T @ f_target)
        assert np.linalg.norm(f_bb - ref) < 1e-10


def make_state(rng, n_tx, n_rf, n_s):
    f_rf = project_unit_modulus(crandn(rng, n_tx, n_rf))
    return AdmmState(
        f_rf=f_rf,
        f_bb=crandn(rng, n_rf, n_s),
        r=project_unit_modulus(crandn(rng, n_tx, n_rf)),
        w=0.1 * crandn(rng, n_tx, n_rf),
    )


class TestStepFrf:
    def test_zero_digital_zero_dual_returns_r(self):
        # with f_bb = 0 and w = 0 the quadratic reduces to rho||X - R||^2
        rng = np.random.default_rng(20)
        st = make_state(rng, 8, 3, 2)
        st.f_bb = np.zeros((3, 2), dtype=complex)
        st.w = np.zeros((8, 3), dtype=complex)
        out = step_frf(st, crandn(rng, 8, 2), rho=1.0)
        assert np.array_equal(out, st.r)

    def test_huge_rho_pins_to_r_minus_w(self):
        rng = np.random.default_rng(21)
        st = make_state(rng, 8, 3, 2)
        out = step_frf(st, crandn(rng, 8, 2), rho=1e8)
        ref = st.r - st.w
        assert np.linalg.norm(out - ref) / np.linalg.norm(ref) < 1e-6

    def test_normal_equation_residual(self):
        rng = np.random.default_rng(22)
        n_tx, n_rf, n_s = 16, 4, 2
        st = make_state(rng, n_tx, n_rf, n_s)
        f_target = random_target(rng, n_tx, n_s)
        rho = 0.05
        out = step_frf(st, f_target, rho)
        lhs = out @ (st.f_bb @ st.f_bb.conj().T + rho * np.eye(n_rf))
        rhs = f_target @ st.f_bb.conj().T + rho * (st.r - st.w)
        assert np.linalg.norm(lhs - rhs) < 1e-9 * np.linalg.norm(rhs)

    def test_minimizes_penalized_objective(self):
        # any perturbation must not lower the augmented quadratic
        rng = np.random.default_rng(23)
        st = make_state(rng, 10, 3, 2)
        f_target = random_target(rng, 10, 2)
        rho = 0.1

        def quad(x):
            fit = np.linalg.norm(f_target - x @ st.f_bb) ** 2
            pen = rho * np.linalg.norm(x - st.r + st.w) ** 2
            return fit + pen

        out = step_frf(st, f_target, rho)
        base = quad(out)
        for _ in range(500):
            delta = 10 ** rng.uniform(-6, -2) * crandn(rng, 10, 3)
            assert quad(out + delta) >= base - 1e-12 * base


def steering_target(n_tx):
    geo = ArrayGeometry(side=int(np.sqrt(n_tx)))
    v = array_response(geo, azimuth=1.1, elevation=0.7)
    return v[:, None]


class TestDesignFullyConnected:
    def test_steering_vector_target_is_representable(self):
        # one RF chain reproduces a single steering column almost exactly
        f_target = steering_target(16)
        cfg = AdmmConfig(rho=scale_matched_rho(16, 1, 1), tau=0.0, seed=0)
        design = design_fully_connected(f_target, 1, cfg, normalize_power=False)
        assert design.final_objective < 1e-8

    def test_square_case_reaches_machine_floor(self):
        # n_rf = n_tx leaves no approximation gap; best of 3 starts
        rng = np.random.default_rng(30)
        f_target = random_target(rng, 4, 2)
        best = np.inf
        for seed in range(3):
            cfg = AdmmConfig(
                rho=scale_matched_rho(4, 4, 2), max_iters=50, tau=0.0, seed=seed
            )
            design = design_fully_connected(f_target, 4, cfg, normalize_power=False)
            best = min(best, design.final_objective)
        assert best < 1e-4

    def test_analog_entries_unit_modulus(self):
        rng = np.random.default_rng(31)
        f_target = random_target(rng, 12, 2)
        cfg = AdmmConfig(rho=scale_matched_rho(12, 3, 2), seed=1)
        design = design_fully_connected(f_target, 3, cfg, normalize_power=True)
        assert np.max(np.abs(np.abs(design.f_rf) - 1.0)) < 1e-12

    def test_power_normalization(self):
        rng = np.random.default_rng(32)
        f_target = random_target(rng, 12, 2)
        cfg = AdmmConfig(rho=scale_matched_rho(12, 4, 2), seed=2)
        design = design_fully_connected(f_target, 4, cfg, normalize_power=True)
        assert abs(np.linalg.norm(design.f_rf @ design.f_bb) ** 2 - 2.0) < 1e-9

    def test_combiner_mode_skips_normalization(self):
        rng = np.random.default_rng(33)
        f_target = random_target(rng, 12, 2)
        cfg = AdmmConfig(rho=scale_matched_rho(12, 4, 2), seed=2)
        a = design_fully_connected(f_target, 4, cfg, normalize_power=False)
        b = design_fully_connected(f_target, 4, cfg, normalize_power=True)
        # same analog matrix; digital parts differ only by the power rescale
        assert np.array_equal(a.f_rf, b.f_rf)
        scale = np.sqrt(2.0) / np.linalg.norm(a.f_rf @ a.f_bb)
        assert np.linalg.norm(b.f_bb - scale * a.f_bb) < 1e-12

    def test_final_objective_never_above_initial(self):
        # stress the update order over many random starts
        rng = np.random.default_rng(0)
        for s in range(200):
            f_target = random_target(rng, 12, 2)
            cfg = AdmmConfig(
                rho=scale_matched_rho(12, 3, 2), max_iters=30, tau=0.0, seed=s
            )
            design = design_fully_connected(f_target, 3, cfg, normalize_power=False)
            assert design.trace[-1][1] <= design.trace[0][1] + 1e-12

    def test_trace_structure(self):
        rng = np.random.default_rng(35)
        f_target = random_target(rng, 8, 2)
        cfg = AdmmConfig(rho=scale_matched_rho(8, 3, 2), max_iters=7, tau=0.0, seed=3)
        design = design_fully_connected(
            f_target, 3, cfg, normalize_power=False, keep_iterates=True
        )
        assert [row[0] for row in design.trace] == list(range(8))
        assert design.iterations == 7
        # row 0 is the starting point: analog equals its own copy, residual 0
        assert design.trace[0][2] == 0.0
        # kept iterates drop the unit subcarrier axis, as the result does
        assert all(st.f_bb.shape == (3, 2) for st in design.iterates)
        st0 = design.iterates[0]
        obj0 = np.linalg.norm(f_target - st0.r @ st0.f_bb) ** 2
        assert abs(design.trace[0][1] - obj0) < 1e-12

    def test_iterate_snapshots_replay_the_recurrences(self):
        # dual update w += f_rf - r must hold bitwise between snapshots,
        # and every stored r must sit on the unit-modulus set
        rng = np.random.default_rng(36)
        f_target = random_target(rng, 10, 2)
        cfg = AdmmConfig(rho=scale_matched_rho(10, 3, 2), max_iters=10, tau=0.0, seed=4)
        design = design_fully_connected(
            f_target, 3, cfg, normalize_power=False, keep_iterates=True
        )
        for prev, cur in zip(design.iterates, design.iterates[1:]):
            assert np.array_equal(cur.w, prev.w + (cur.f_rf - cur.r))
            assert np.max(np.abs(np.abs(cur.r) - 1.0)) < 1e-12
            # digital step is the exact lsq against the current analog matrix
            assert np.linalg.norm(
                cur.f_bb - least_squares_fbb(cur.f_rf, f_target)
            ) < 1e-12

    def test_early_stop_honors_tau(self):
        rng = np.random.default_rng(37)
        f_target = random_target(rng, 12, 3)
        rho = scale_matched_rho(12, 4, 3)
        loose = design_fully_connected(
            f_target, 4, AdmmConfig(rho=rho, max_iters=30, tau=1e6, seed=5),
            normalize_power=False,
        )
        assert loose.iterations == 1
        full = design_fully_connected(
            f_target, 4, AdmmConfig(rho=rho, max_iters=30, tau=0.0, seed=5),
            normalize_power=False,
        )
        assert full.iterations == 30

    def test_stagnation_threshold_matches_trace(self):
        # when the loop stops early the last trace step must be below tau
        rng = np.random.default_rng(38)
        f_target = random_target(rng, 16, 2)
        cfg = AdmmConfig(
            rho=scale_matched_rho(16, 4, 2), max_iters=200, tau=1e-3, seed=6
        )
        design = design_fully_connected(f_target, 4, cfg, normalize_power=False)
        if design.iterations < 200:
            assert abs(design.trace[-2][1] - design.trace[-1][1]) < 1e-3
            for a, b in zip(design.trace[1:-1], design.trace[2:-1]):
                assert abs(a[1] - b[1]) >= 1e-3

    def test_deterministic_given_seed(self):
        rng = np.random.default_rng(39)
        f_target = random_target(rng, 12, 2)
        cfg = AdmmConfig(rho=scale_matched_rho(12, 3, 2), seed=7)
        a = design_fully_connected(f_target, 3, cfg, normalize_power=True)
        b = design_fully_connected(f_target, 3, cfg, normalize_power=True)
        assert np.array_equal(a.f_rf, b.f_rf)
        assert np.array_equal(a.f_bb, b.f_bb)
        assert a.trace == b.trace

    def test_quantized_design_stays_on_grid(self):
        rng = np.random.default_rng(40)
        f_target = random_target(rng, 16, 2)
        bits = 3
        cfg = AdmmConfig(rho=scale_matched_rho(16, 4, 2), phase_bits=bits, seed=8)
        design = design_fully_connected(f_target, 4, cfg, normalize_power=True)
        step = 2 * np.pi / 2**bits
        pos = np.mod(np.angle(design.f_rf), 2 * np.pi) / step
        assert np.max(np.abs(pos - np.round(pos))) < 1e-9
        assert np.max(np.abs(np.abs(design.f_rf) - 1.0)) < 1e-12

    def test_validation_errors(self):
        rng = np.random.default_rng(41)
        f_target = random_target(rng, 8, 3)
        cfg = AdmmConfig()
        with pytest.raises(ValueError):
            design_fully_connected(f_target, 2, cfg, normalize_power=False)
        with pytest.raises(ValueError):
            design_fully_connected(f_target, 9, cfg, normalize_power=False)
        with pytest.raises(ValueError):
            design_fully_connected(f_target[:, 0], 3, cfg, normalize_power=False)
        for bad in (np.nan, np.inf):
            broken = f_target.copy()
            broken[4, 1] = bad
            with pytest.raises(ValueError, match="f_target contains non-finite"):
                design_fully_connected(broken, 3, cfg, normalize_power=False)
            with pytest.raises(ValueError, match="targets contains non-finite"):
                design_wideband(broken[None], 3, cfg, normalize_power=False)
        # no subcarrier, no stream, or an empty batch
        for designer, shape in [
            (design_wideband, (0, 8, 2)),
            (design_wideband, (2, 8, 0)),
            (design_wideband, (0, 2, 8, 2)),
            (design_fully_connected, (8, 0)),
            (design_fully_connected, (0, 8, 2)),
        ]:
            # each designer names its own argument
            name = "f_target" if designer is design_fully_connected else "targets"
            with pytest.raises(ValueError, match="at least one instance") as err:
                designer(np.zeros(shape), 2, cfg, normalize_power=True)
            assert str(err.value).startswith(f"{name} must hold")

    @staticmethod
    def unit_norm_targets():
        rng = np.random.default_rng(0)
        targets = crandn(rng, 3, 16, 2)
        return targets / np.linalg.norm(targets, axis=(1, 2), keepdims=True)

    def test_analog_solve_rejects_a_rank_deficient_gram_matrix(self):
        # n_rf = 3 > n_s = 2: F F^H has rank 2, and a rho of 1e-20 does not
        # lift F F^H + rho I off singular in floating point, however positive
        # rho is; the analog solve's check is what rejects the design
        cfg = AdmmConfig(rho=1e-20, max_iters=15, tau=0)
        targets = self.unit_norm_targets()
        with pytest.raises(np.linalg.LinAlgError, match="not positive definite") as err:
            design_fully_connected(targets, 3, cfg, normalize_power=True)
        assert "_analog_update" in [entry.name for entry in err.traceback]

    def test_full_rank_gram_matrix_designs_at_a_tiny_rho(self):
        # the control: at n_rf = n_s, F F^H has full rank
        cfg = AdmmConfig(rho=1e-300, max_iters=15, tau=0)
        designs = design_fully_connected(
            self.unit_norm_targets(), 2, cfg, normalize_power=True
        )
        assert designs.iterations == 3 * 15
        for design in designs:
            assert np.isfinite(design.f_bb).all()
            assert np.isfinite(design.final_objective)


class TestRfChainCount:
    """Every designer checks ``n_rf`` before it designs, and the power of
    the composite before it normalizes it."""

    # each designer with one 8 x 2 target (a stack of two for wideband)
    DESIGNERS = {
        "full": (design_fully_connected, (8, 2)),
        "partial": (design_partially_connected, (8, 2)),
        "wideband": (design_wideband, (2, 8, 2)),
    }

    def target(self, shape):
        rng = np.random.default_rng(43)
        return np.linalg.qr(crandn(rng, *shape))[0]

    @pytest.mark.parametrize("structure", DESIGNERS)
    @pytest.mark.parametrize("n_rf", [0, 2.5])
    def test_rejects_bad_n_rf(self, structure, n_rf):
        designer, shape = self.DESIGNERS[structure]
        with pytest.raises(ValueError, match="n_rf"):
            designer(self.target(shape), n_rf, AdmmConfig(), normalize_power=True)

    @pytest.mark.parametrize("structure", DESIGNERS)
    def test_integral_float_n_rf_designs_as_int(self, structure):
        # like every integer setting of a config, 2.0 means 2
        designer, shape = self.DESIGNERS[structure]
        target, cfg = self.target(shape), AdmmConfig(max_iters=5, seed=2)
        want = designer(target, 2, cfg, normalize_power=True)
        got = designer(target, 2.0, cfg, normalize_power=True)
        assert np.array_equal(got.f_rf, want.f_rf)
        assert np.array_equal(got.f_bb, want.f_bb)
        assert got.trace == want.trace

    @pytest.mark.parametrize("structure", DESIGNERS)
    def test_zero_power_composite_is_not_normalized(self, structure):
        # an all-zero target, or for wideband one zero subcarrier among
        # nonzero ones, has a zero composite that no scale brings to n_s
        designer, shape = self.DESIGNERS[structure]
        target, cfg = self.target(shape), AdmmConfig(max_iters=5)
        target[-1] = 0.0
        if structure != "wideband":
            target[:] = 0.0
        where = "subcarrier 1" if structure == "wideband" else "instance 0"
        with pytest.raises(ValueError, match=f"{where}.*zero power"):
            designer(target, 2, cfg, normalize_power=True)
        # the combiner side keeps the zero digital matrix
        design = designer(target, 2, cfg, normalize_power=False)
        assert not design.f_bb[-1].any()


class TestAdmmConfig:
    def test_rejects_bad_fields(self):
        with pytest.raises(ValueError):
            AdmmConfig(rho=0.0)
        with pytest.raises(ValueError):
            AdmmConfig(rho=-1.0)
        with pytest.raises(ValueError):
            AdmmConfig(max_iters=0)
        with pytest.raises(ValueError):
            AdmmConfig(tau=-1e-9)
        with pytest.raises(ValueError):
            AdmmConfig(phase_bits=0)
        with pytest.raises(ValueError, match="seed"):
            AdmmConfig(seed=-1)

    @pytest.mark.parametrize(
        "fields",
        [
            {"rho": float("nan")},
            {"rho": float("inf")},
            {"tau": float("nan")},
            {"tau": float("inf")},
            {"rho": "1.0"},
            {"max_iters": 2.5},
            {"max_iters": float("nan")},
            {"max_iters": True},
            {"phase_bits": 1.5},
            {"seed": 0.5},
        ],
    )
    def test_rejects_nonfinite_and_nonint_fields(self, fields):
        with pytest.raises(ValueError):
            AdmmConfig(**fields)

    def test_phase_bits_bounded_by_float_resolution(self):
        assert AdmmConfig(phase_bits=48).phase_bits == 48
        for bits in (49, 1024, 2000):
            with pytest.raises(ValueError, match="phase_bits"):
                AdmmConfig(phase_bits=bits)

    def test_integral_floats_become_ints(self):
        cfg = AdmmConfig(max_iters=12.0, phase_bits=3.0, seed=np.int64(4))
        assert (cfg.max_iters, cfg.phase_bits, cfg.seed) == (12, 3, 4)
        assert all(type(v) is int for v in (cfg.max_iters, cfg.phase_bits, cfg.seed))

    def test_scale_matched_rho_values(self):
        assert scale_matched_rho(64, 4, 2) == 2 / 256
        assert scale_matched_rho(36, 4, 3, n_subcarriers=16) == 16 * 3 / 144
        assert (
            scale_matched_rho(64, 4, 2, structure="partially_connected") == 2 / 64
        )

    @pytest.mark.parametrize(
        "args, match",
        [
            ((64, 0, 2), "n_rf must be >= 1, got 0"),
            ((0, 4, 2), "n_tx must be >= 1, got 0"),
            ((64, 4, 0), "n_s must be >= 1, got 0"),
            ((64, 4, 2, 0), "n_subcarriers must be >= 1, got 0"),
            ((64, True, 2), "n_rf must be a finite number"),
            ((64, 4, 2.5), "n_s must be an integer"),
        ],
        ids=["n_rf_0", "n_tx_0", "n_s_0", "n_subcarriers_0", "n_rf_bool", "n_s_2.5"],
    )
    def test_scale_matched_rho_rejects_bad_counts(self, args, match):
        for structure in ("fully_connected", "partially_connected"):
            with pytest.raises(ValueError, match=match):
                scale_matched_rho(*args, structure=structure)

    def test_scale_matched_rho_rejects_unknown_structure(self):
        with pytest.raises(ValueError, match="^unknown structure 'diagonal'$"):
            scale_matched_rho(64, 4, 2, structure="diagonal")

    def test_scale_matched_rho_integral_floats_count_as_ints(self):
        assert scale_matched_rho(64.0, 4.0, 2.0, 1.0) == scale_matched_rho(64, 4, 2)
        got = scale_matched_rho(36, 4, np.int64(3), n_subcarriers=16.0)
        assert got == 16 * 3 / 144


class TestStartDraws:
    # each designer and the doubles the start of an 8 x 2 design at n_rf = 2
    # takes
    DESIGNERS = {
        "full": (design_fully_connected, 16),
        "wideband": (design_wideband, 16),
        "partial": (design_partially_connected, 8),
    }

    def batch(self, name, count):
        """The designer, ``count`` 8 x 2 targets for it (on 3 identical
        subcarriers for the wideband one) and the doubles a start takes."""
        designer, size = self.DESIGNERS[name]
        rng = np.random.default_rng(count)
        targets = np.stack([random_target(rng, 8, 2) for _ in range(count)])
        if name == "wideband":
            targets = np.repeat(targets[:, None], 3, axis=1)
        return designer, targets, size

    @pytest.mark.parametrize("name", ["full", "wideband", "partial"])
    @pytest.mark.parametrize("rows, extra", [(2, 0), (4, 0), (3, -1)])
    def test_draws_that_do_not_fit_are_rejected(self, name, rows, extra):
        # the batch holds 3 instances, each start takes `size` doubles
        designer, targets, size = self.batch(name, 3)
        draws = np.random.default_rng(0).random((rows, size + extra))
        with pytest.raises(ValueError, match="draws must hold 3 rows of at least"):
            designer(targets, 2, AdmmConfig(), True, draws=draws)

    @pytest.mark.parametrize("name", ["full", "wideband", "partial"])
    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_draws_are_rejected(self, name, bad):
        designer, targets, size = self.batch(name, 3)
        draws = np.random.default_rng(0).random((3, size))
        draws[1, 2] = bad
        with pytest.raises(ValueError, match="draws contains non-finite"):
            designer(targets, 2, AdmmConfig(), True, draws=draws)

    @pytest.mark.parametrize("name", ["full", "wideband", "partial"])
    def test_a_single_design_takes_one_row_of_draws(self, name):
        designer, targets, size = self.batch(name, 1)
        draws = np.random.default_rng(7).random((1, size + 5))
        cfg = AdmmConfig(rho=0.1, max_iters=5, tau=0.0, seed=7)
        got = designer(targets[0], 2, cfg, True, draws=draws)
        want = designer(targets[0], 2, cfg, True)
        assert got.f_rf.tobytes() == want.f_rf.tobytes()
        assert got.trace == want.trace
        with pytest.raises(ValueError, match="draws must hold 1 rows"):
            designer(targets[0], 2, cfg, True, draws=draws[0])

    def test_designs_from_four_threads_match_serial_designs(self):
        # every design draws its own starts, so designs running at once in
        # one process give what they give one after another
        calls = []
        for seed in range(8):
            name = ("full", "wideband", "partial")[seed % 3]
            designer, targets, _ = self.batch(name, 1 + seed % 4)
            bits = None if seed % 2 else 3
            cfg = AdmmConfig(rho=0.1, max_iters=20, tau=0.0, phase_bits=bits, seed=seed)
            calls.append((designer, targets, cfg))

        def design(call):
            designer, targets, cfg = call
            return designer(targets, 2, cfg, True)

        serial = [design(call) for call in calls]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ThreadPoolExecutor(max_workers=4) as pool:
                threaded = list(pool.map(design, calls * 3, timeout=120))
        finally:
            sys.setswitchinterval(interval)
        for got, want in zip(threaded, serial * 3):
            assert len(got) == len(want)
            for g, w in zip(got, want):
                assert g.f_rf.tobytes() == w.f_rf.tobytes()
                assert g.f_bb.tobytes() == w.f_bb.tobytes()
                assert g.trace == w.trace
