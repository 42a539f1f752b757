import numpy as np
import pytest

from hybridsim.admm import (
    PARTIALLY_CONNECTED,
    AdmmConfig,
    PartialState,
    assemble_block_diag,
    design_partially_connected,
    project_unit_modulus,
    scale_matched_rho,
)


def crandn(rng, *shape):
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


def scaled_target(rng, n_tx, n_s):
    t = crandn(rng, n_tx, n_s)
    return t * np.sqrt(n_s) / np.linalg.norm(t)


def block_support_project(x, n_rf):
    """Unit modulus on the block-diagonal support, zero elsewhere."""
    n_tx = x.shape[0]
    block = n_tx // n_rf
    out = np.zeros_like(x)
    for i in range(n_rf):
        seg = x[i * block : (i + 1) * block, i]
        out[i * block : (i + 1) * block, i] = project_unit_modulus(seg)
    return out


def generic_block_design(f_target, n_rf, rho, iters, seed):
    """Dense splitting loop with the projection swapped for block support.

    Same operator order as the dedicated designer but no per-chain
    separation: the analog step solves the full matrix quadratic and the
    structure enters only through the projection.  Returns the final
    objective after the feasible-point refit.
    """
    n_tx, n_s = f_target.shape
    rng = np.random.default_rng(seed)
    f_rf = block_support_project(
        np.exp(2j * np.pi * rng.uniform(size=(n_tx, n_rf))), n_rf
    )
    f_bb = np.linalg.lstsq(f_rf, f_target, rcond=None)[0]
    r = f_rf.copy()
    w = np.zeros_like(f_rf)
    eye = rho * np.eye(n_rf)
    for _ in range(iters):
        a = f_bb @ f_bb.conj().T + eye
        b = f_target @ f_bb.conj().T + rho * (r - w)
        f_rf = np.linalg.solve(a, b.conj().T).conj().T
        f_bb = np.linalg.lstsq(f_rf, f_target, rcond=None)[0]
        r = block_support_project(f_rf + w, n_rf)
        w = w + (f_rf - r)
    f_bb_hat = np.linalg.lstsq(r, f_target, rcond=None)[0]
    return float(np.linalg.norm(f_target - r @ f_bb_hat) ** 2)


class TestAssembleBlockDiag:
    def test_single_vector(self):
        v = np.array([[1.0, 1j, -1.0]])
        out = assemble_block_diag(v)
        assert out.shape == (3, 1)
        assert np.array_equal(out[:, 0], v[0])

    def test_two_vector_layout(self):
        vecs = np.array([[1.0, 1j], [-1.0, -1j]])
        expected = np.array(
            [
                [1.0, 0.0],
                [1j, 0.0],
                [0.0, -1.0],
                [0.0, -1j],
            ]
        )
        assert np.array_equal(assemble_block_diag(vecs), expected)

    def test_gram_is_scaled_identity(self):
        # disjoint column supports with unit-modulus entries
        rng = np.random.default_rng(0)
        vecs = project_unit_modulus(crandn(rng, 4, 8))
        f_rf = assemble_block_diag(vecs)
        gram = f_rf.conj().T @ f_rf
        assert np.linalg.norm(gram - 8.0 * np.eye(4)) < 1e-12

    def test_rejects_non_matrix(self):
        with pytest.raises(ValueError):
            assemble_block_diag(np.ones(4, dtype=complex))


class TestDesignPartiallyConnected:
    def test_block_factorable_target_recovered(self):
        # target built from an exact block-diagonal factorization
        rng = np.random.default_rng(1)
        n_rf, block, n_s = 3, 6, 2
        vecs = project_unit_modulus(crandn(rng, n_rf, block))
        f_bb_true = crandn(rng, n_rf, n_s)
        f_target = assemble_block_diag(vecs) @ f_bb_true
        cfg = AdmmConfig(
            rho=scale_matched_rho(18, 3, 2, structure=PARTIALLY_CONNECTED),
            max_iters=100,
            tau=0.0,
            seed=0,
        )
        design = design_partially_connected(f_target, n_rf, cfg, normalize_power=False)
        assert design.final_objective < 1e-6

    def test_structure_is_exact(self):
        rng = np.random.default_rng(2)
        f_target = scaled_target(rng, 24, 2)
        cfg = AdmmConfig(
            rho=scale_matched_rho(24, 4, 2, structure=PARTIALLY_CONNECTED), seed=3
        )
        design = design_partially_connected(f_target, 4, cfg, normalize_power=True)
        block = 24 // 4
        mask = np.zeros((24, 4), dtype=bool)
        for i in range(4):
            mask[i * block : (i + 1) * block, i] = True
        assert np.all(design.f_rf[~mask] == 0.0)
        assert np.max(np.abs(np.abs(design.f_rf[mask]) - 1.0)) < 1e-12

    def test_power_normalization(self):
        rng = np.random.default_rng(3)
        f_target = scaled_target(rng, 24, 2)
        cfg = AdmmConfig(
            rho=scale_matched_rho(24, 4, 2, structure=PARTIALLY_CONNECTED), seed=4
        )
        design = design_partially_connected(f_target, 4, cfg, normalize_power=True)
        assert abs(np.linalg.norm(design.f_rf @ design.f_bb) ** 2 - 2.0) < 1e-9
        # block columns carry norm sqrt(block), so the digital norm is pinned
        assert abs(np.linalg.norm(design.f_bb) ** 2 - 2.0 * 4 / 24) < 1e-9

    def test_analog_step_stationarity(self):
        # each updated phase-shifter scalar must sit at the minimum of its
        # own quadratic, checked by central finite differences on an
        # independently coded objective
        rng = np.random.default_rng(4)
        f_target = scaled_target(rng, 12, 2)
        n_rf, block, n_s = 3, 4, 2
        rho = scale_matched_rho(12, 3, 2, structure=PARTIALLY_CONNECTED)
        cfg = AdmmConfig(rho=rho, max_iters=5, tau=0.0, seed=5)
        design = design_partially_connected(
            f_target, n_rf, cfg, normalize_power=False, keep_iterates=True
        )
        target3 = f_target.reshape(n_rf, block, n_s)
        h = 1e-6
        for prev, cur in zip(design.iterates, design.iterates[1:]):
            for i in range(n_rf):
                pull = prev.r_vecs[i] - prev.w_vecs[i]
                for b in range(block):
                    def q(x):
                        fit = np.sum(
                            np.abs(target3[i, b] - x * prev.f_bb[i]) ** 2
                        )
                        return fit + rho * abs(x - pull[b]) ** 2

                    x0 = cur.f_vecs[i, b]
                    scale = max(1.0, q(x0))
                    d_re = (q(x0 + h) - q(x0 - h)) / (2 * h)
                    d_im = (q(x0 + 1j * h) - q(x0 - 1j * h)) / (2 * h)
                    assert abs(d_re) < 1e-6 * scale
                    assert abs(d_im) < 1e-6 * scale

    def test_iterate_snapshots_replay_the_recurrences(self):
        rng = np.random.default_rng(5)
        f_target = scaled_target(rng, 16, 2)
        cfg = AdmmConfig(
            rho=scale_matched_rho(16, 4, 2, structure=PARTIALLY_CONNECTED),
            max_iters=8,
            tau=0.0,
            seed=6,
        )
        design = design_partially_connected(
            f_target, 4, cfg, normalize_power=False, keep_iterates=True
        )
        for prev, cur in zip(design.iterates, design.iterates[1:]):
            assert np.array_equal(
                cur.w_vecs, prev.w_vecs + (cur.f_vecs - cur.r_vecs)
            )
            assert np.max(np.abs(np.abs(cur.r_vecs) - 1.0)) < 1e-12

    def test_matches_generic_block_projection_loop(self):
        # the per-chain separated updates and the dense loop with a block
        # projection are different implementations of the same splitting;
        # run both to convergence and compare converged objectives
        rng = np.random.default_rng(42)
        n_rf, block, n_s = 4, 8, 2
        n_tx = n_rf * block
        rho = scale_matched_rho(n_tx, n_rf, n_s, structure=PARTIALLY_CONNECTED)
        for inst in range(50):
            f_target = scaled_target(rng, n_tx, n_s)
            cfg = AdmmConfig(rho=rho, max_iters=100, tau=0.0, seed=1000 + inst)
            design = design_partially_connected(
                f_target, n_rf, cfg, normalize_power=False
            )
            ref = generic_block_design(f_target, n_rf, rho, 100, 1000 + inst)
            assert abs(design.final_objective / ref - 1.0) <= 0.10

    def test_validation_errors(self):
        rng = np.random.default_rng(6)
        cfg = AdmmConfig()
        with pytest.raises(ValueError):
            design_partially_connected(
                scaled_target(rng, 10, 2), 4, cfg, normalize_power=False
            )
        with pytest.raises(ValueError):
            design_partially_connected(
                scaled_target(rng, 12, 2), 1, cfg, normalize_power=False
            )
        with pytest.raises(ValueError, match="target must be a matrix"):
            design_partially_connected(np.ones(8), 4, cfg, normalize_power=False)
        for bad in (np.nan, np.inf):
            f_target = scaled_target(rng, 16, 2)
            f_target[5, 0] = bad
            with pytest.raises(ValueError, match="f_target contains non-finite"):
                design_partially_connected(f_target, 2, cfg, normalize_power=False)
        # no stream (n_rf 0 would divide n_tx by zero), no antenna, or an
        # empty batch
        for shape, n_rf in [((8, 0), 0), ((8, 0), 2), ((0, 2), 2), ((0, 8, 2), 2)]:
            with pytest.raises(ValueError, match="f_target must hold at least"):
                design_partially_connected(
                    np.zeros(shape), n_rf, cfg, normalize_power=True
                )

    def test_deterministic_given_seed(self):
        rng = np.random.default_rng(7)
        f_target = scaled_target(rng, 12, 2)
        cfg = AdmmConfig(
            rho=scale_matched_rho(12, 3, 2, structure=PARTIALLY_CONNECTED), seed=8
        )
        a = design_partially_connected(f_target, 3, cfg, normalize_power=True)
        b = design_partially_connected(f_target, 3, cfg, normalize_power=True)
        assert np.array_equal(a.f_rf, b.f_rf)
        assert np.array_equal(a.f_bb, b.f_bb)

    def test_quantized_design_stays_on_grid(self):
        rng = np.random.default_rng(8)
        f_target = scaled_target(rng, 16, 2)
        bits = 2
        cfg = AdmmConfig(
            rho=scale_matched_rho(16, 4, 2, structure=PARTIALLY_CONNECTED),
            phase_bits=bits,
            seed=9,
        )
        design = design_partially_connected(f_target, 4, cfg, normalize_power=True)
        on = design.f_rf[design.f_rf != 0.0]
        step = 2 * np.pi / 2**bits
        pos = np.mod(np.angle(on), 2 * np.pi) / step
        assert np.max(np.abs(pos - np.round(pos))) < 1e-9


@pytest.mark.parametrize("phase_bits", [None, 3])
@pytest.mark.parametrize("batched", [False, True])
def test_trace_objective_is_the_residual_of_its_iterate(phase_bits, batched):
    # the loop takes its objective from carried per-chain products; it must
    # equal the explicit residual of the kept iterate's feasible point, and
    # the primal residual the norm of the iterate's f - r.  Each kept iterate
    # is the loop's own PartialState, and carries the products of its digital
    # rows
    rng = np.random.default_rng(10)
    targets = np.stack([scaled_target(rng, 24, 2) for _ in range(3)])
    cfg = AdmmConfig(
        rho=scale_matched_rho(24, 4, 2, structure=PARTIALLY_CONNECTED),
        max_iters=12,
        tau=0.0,
        phase_bits=phase_bits,
        seed=11,
    )
    designs = design_partially_connected(
        targets if batched else targets[0], 4, cfg, False, keep_iterates=True
    )
    if not batched:
        designs, targets = [designs], targets[:1]
    for target, design in zip(targets, designs):
        assert len(design.iterates) == len(design.trace) == 13
        for (_, objective, residual), st in zip(design.trace, design.iterates):
            fit = target - assemble_block_diag(st.r_vecs) @ st.f_bb
            expected = np.linalg.norm(fit) ** 2
            assert abs(objective - expected) <= 1e-10 * expected
            gap = np.linalg.norm(st.f_vecs - st.r_vecs)
            assert abs(residual - gap) <= 1e-12 * gap
            assert isinstance(st, PartialState)
            # T_i conj(f_i) of chain i's (6, 2) target row block T_i
            tf = np.einsum("ils,is->il", target.reshape(4, 6, 2), st.f_bb.conj())
            assert np.linalg.norm(st.tf - tf) <= 1e-12 * np.linalg.norm(tf)
            fb_sq = np.sum(np.abs(st.f_bb) ** 2, axis=1)
            assert np.all(np.abs(st.fb_sq - fb_sq) <= 1e-12 * fb_sq)
            assert abs(st.primal - gap) <= 1e-12 * gap
        # the start's R is its analog iterate
        assert design.iterates[0].primal == 0.0
