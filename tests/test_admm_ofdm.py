import numpy as np
import pytest

from hybridsim.admm import (
    AdmmConfig,
    AdmmState,
    design_fully_connected,
    design_wideband,
    least_squares_fbb,
    scale_matched_rho,
)


def crandn(rng, *shape):
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


def random_targets(rng, k, n_tx, n_s):
    out = np.empty((k, n_tx, n_s), dtype=complex)
    for i in range(k):
        q, _ = np.linalg.qr(crandn(rng, n_tx, n_s))
        out[i] = q
    return out


class TestSingleCarrierReduction:
    def test_k1_matches_narrowband_iterate_for_iterate(self):
        rng = np.random.default_rng(0)
        for seed in range(20):
            q, _ = np.linalg.qr(crandn(rng, 12, 2))
            cfg = AdmmConfig(
                rho=scale_matched_rho(12, 3, 2), max_iters=12, tau=0.0, seed=seed
            )
            wide = design_wideband(
                q[None, :, :], 3, cfg, normalize_power=True, keep_iterates=True
            )
            narrow = design_fully_connected(
                q, 3, cfg, normalize_power=True, keep_iterates=True
            )
            assert len(wide.iterates) == len(narrow.iterates)
            for sw, sn in zip(wide.iterates, narrow.iterates):
                assert np.max(np.abs(sw.f_rf - sn.f_rf)) < 1e-12
                assert np.max(np.abs(sw.f_bb[0] - sn.f_bb)) < 1e-12
                assert np.max(np.abs(sw.r - sn.r)) < 1e-12
                assert np.max(np.abs(sw.w - sn.w)) < 1e-12
            assert wide.trace == narrow.trace
            assert np.array_equal(wide.f_rf, narrow.f_rf)
            assert np.array_equal(wide.f_bb[0], narrow.f_bb)

    def test_identical_targets_collapse(self):
        # K copies of one target with penalty K*rho walk the exact same
        # trajectory as the single-carrier design with penalty rho, and the
        # summed objective is K times the single-carrier one
        rng = np.random.default_rng(1)
        q, _ = np.linalg.qr(crandn(rng, 12, 2))
        k = 5
        rho0 = scale_matched_rho(12, 3, 2)
        cfg_wide = AdmmConfig(rho=k * rho0, max_iters=15, tau=0.0, seed=11)
        cfg_narrow = AdmmConfig(rho=rho0, max_iters=15, tau=0.0, seed=11)
        wide = design_wideband(
            np.broadcast_to(q, (k, 12, 2)).copy(),
            3,
            cfg_wide,
            normalize_power=False,
            keep_iterates=True,
        )
        narrow = design_fully_connected(
            q, 3, cfg_narrow, normalize_power=False, keep_iterates=True
        )
        # per-subcarrier digital matrices all see the same inputs
        for st in wide.iterates:
            for i in range(1, k):
                assert np.array_equal(st.f_bb[i], st.f_bb[0])
        for sw, sn in zip(wide.iterates, narrow.iterates):
            assert np.max(np.abs(sw.f_rf - sn.f_rf)) < 1e-10
            assert np.max(np.abs(sw.f_bb[0] - sn.f_bb)) < 1e-10
        assert abs(wide.final_objective / narrow.final_objective - k) < 1e-6 * k


    def test_fully_connected_is_wideband_with_one_subcarrier(self):
        rng = np.random.default_rng(8)
        for seed, normalize in [(0, True), (1, False), (2, True)]:
            q, _ = np.linalg.qr(crandn(rng, 16, 2))
            cfg = AdmmConfig(rho=scale_matched_rho(16, 4, 2), tau=1e-4, seed=seed)
            wide = design_wideband(q[None], 4, cfg, normalize)
            narrow = design_fully_connected(q, 4, cfg, normalize)
            assert narrow.trace == wide.trace
            assert np.array_equal(narrow.f_rf, wide.f_rf)
            assert np.array_equal(narrow.f_bb, wide.f_bb[0])
            assert narrow.final_objective == wide.final_objective


class TestStackedLeastSquares:
    def test_stack_matches_per_slice_results(self):
        rng = np.random.default_rng(9)
        f_rf = crandn(rng, 16, 4)
        targets = random_targets(rng, 6, 16, 2)
        stacked = least_squares_fbb(f_rf, targets)
        ref = np.stack([least_squares_fbb(f_rf, t) for t in targets])
        assert stacked.shape == (6, 4, 2)
        assert np.linalg.norm(stacked - ref) <= 1e-14 * np.linalg.norm(ref)

    def test_stack_rank_deficient_analog_raises(self):
        rng = np.random.default_rng(10)
        col = crandn(rng, 12, 1)
        f_rf = np.hstack([col, col, crandn(rng, 12, 1)])
        with pytest.raises(np.linalg.LinAlgError):
            least_squares_fbb(f_rf, random_targets(rng, 3, 12, 2))


class TestDesignWideband:
    def test_normal_equation_residual_from_snapshots(self):
        # the shared analog update must satisfy the summed normal equations
        # built from the previous iterate's digital matrices
        rng = np.random.default_rng(2)
        targets = random_targets(rng, 4, 16, 2)
        rho = scale_matched_rho(16, 4, 2, n_subcarriers=4)
        cfg = AdmmConfig(rho=rho, max_iters=6, tau=0.0, seed=3)
        design = design_wideband(
            targets, 4, cfg, normalize_power=False, keep_iterates=True
        )
        for prev, cur in zip(design.iterates, design.iterates[1:]):
            gram = sum(prev.f_bb[k] @ prev.f_bb[k].conj().T for k in range(4))
            num = sum(targets[k] @ prev.f_bb[k].conj().T for k in range(4))
            lhs = cur.f_rf @ (gram + rho * np.eye(4))
            rhs = num + rho * (prev.r - prev.w)
            assert np.linalg.norm(lhs - rhs) < 1e-9 * np.linalg.norm(rhs)
            assert np.array_equal(cur.w, prev.w + (cur.f_rf - cur.r))

    def test_objective_decomposes_per_subcarrier(self):
        rng = np.random.default_rng(3)
        targets = random_targets(rng, 3, 12, 2)
        cfg = AdmmConfig(
            rho=scale_matched_rho(12, 3, 2, n_subcarriers=3),
            max_iters=10,
            tau=0.0,
            seed=4,
        )
        design = design_wideband(targets, 3, cfg, normalize_power=False)
        f_bb = np.stack(
            [least_squares_fbb(design.f_rf, targets[k]) for k in range(3)]
        )
        total = sum(
            np.linalg.norm(targets[k] - design.f_rf @ f_bb[k]) ** 2
            for k in range(3)
        )
        assert abs(design.final_objective - total) < 1e-10

    def test_single_shared_analog_matrix(self):
        rng = np.random.default_rng(4)
        targets = random_targets(rng, 6, 16, 2)
        cfg = AdmmConfig(
            rho=scale_matched_rho(16, 4, 2, n_subcarriers=6), seed=5
        )
        design = design_wideband(targets, 4, cfg, normalize_power=True)
        assert design.f_rf.shape == (16, 4)
        assert design.f_bb.shape == (6, 4, 2)
        assert np.max(np.abs(np.abs(design.f_rf) - 1.0)) < 1e-12

    def test_per_subcarrier_power_normalization(self):
        rng = np.random.default_rng(5)
        targets = random_targets(rng, 5, 12, 2)
        cfg = AdmmConfig(
            rho=scale_matched_rho(12, 3, 2, n_subcarriers=5), seed=6
        )
        design = design_wideband(targets, 3, cfg, normalize_power=True)
        for k in range(5):
            comp = design.f_rf @ design.f_bb[k]
            assert abs(np.linalg.norm(comp) ** 2 - 2.0) < 1e-9

    def test_more_iterations_do_not_hurt(self):
        rng = np.random.default_rng(6)
        targets = random_targets(rng, 4, 12, 2)
        rho = scale_matched_rho(12, 3, 2, n_subcarriers=4)
        short = design_wideband(
            targets, 3, AdmmConfig(rho=rho, max_iters=5, tau=0.0, seed=7),
            normalize_power=False,
        )
        long = design_wideband(
            targets, 3, AdmmConfig(rho=rho, max_iters=60, tau=0.0, seed=7),
            normalize_power=False,
        )
        assert long.trace[-1][1] <= short.trace[-1][1] + 1e-12

    def test_validation_errors(self):
        rng = np.random.default_rng(7)
        cfg = AdmmConfig()
        with pytest.raises(ValueError):
            design_wideband(crandn(rng, 12, 2), 3, cfg, normalize_power=False)
        with pytest.raises(ValueError):
            design_wideband(
                random_targets(rng, 4, 12, 3), 2, cfg, normalize_power=False
            )


class TestTraceObjective:
    @pytest.mark.parametrize("k", [1, 4])
    def test_batched_trace_is_the_direct_residual_of_kept_iterates(self, k):
        # the loop takes the objective from n_rf-sized products; it must
        # equal ||T - R F||_F^2 formed directly from each kept iterate.  Each
        # kept iterate is the loop's own AdmmState, and carries T F^H and
        # F F^H of its digital matrices F = [F_1 ... F_K]
        rng = np.random.default_rng(30 + k)
        n_tx, n_rf, n_s, batch = 16, 4, 2, 3
        targets = np.stack([random_targets(rng, k, n_tx, n_s) for _ in range(batch)])
        cfg = AdmmConfig(
            rho=scale_matched_rho(n_tx, n_rf, n_s, n_subcarriers=k),
            max_iters=25,
            tau=1e-6,
            seed=5,
        )
        designs = design_wideband(
            targets, n_rf, cfg, normalize_power=False, keep_iterates=True
        )
        for target, design in zip(targets, designs):
            bound = 1e-12 * np.linalg.norm(target) ** 2
            assert len(design.trace) == len(design.iterates) > 1
            for (_, objective, residual), state in zip(design.trace, design.iterates):
                direct = np.linalg.norm(target - state.r @ state.f_bb) ** 2
                assert abs(objective - direct) <= bound
                # the iterate carries its objective and primal residual, the
                # trace's own
                assert state.objective == objective
                assert state.primal == residual
                gap = np.linalg.norm(state.f_rf - state.r)
                assert abs(state.primal - gap) <= 1e-12 * gap
                assert isinstance(state, AdmmState)
                assert state.f_bb.shape == (k, n_rf, n_s)
                t = np.concatenate(target, axis=1)
                f = np.concatenate(state.f_bb, axis=1)
                for got, want in (
                    (state.tf_h, t @ f.conj().T),
                    (state.ff_h, f @ f.conj().T),
                ):
                    assert np.linalg.norm(got - want) <= 1e-12 * np.linalg.norm(want)
            # the start's dual and primal residual are zero
            assert not design.iterates[0].w.any()
            assert design.iterates[0].primal == 0
