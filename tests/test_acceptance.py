"""End-to-end acceptance checks over the full pipeline.

Each test prints one summary line (run ``pytest -s`` to see them all) and
covers one numbered criterion: rate parity in the square case, Monte Carlo
rate gaps for the three architectures, single-carrier reduction of the
multicarrier path, constraint satisfaction, per-update optimality checks,
channel statistics, rate-formula identities, and stagnation behavior.
"""

import time

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
from hybridsim.baseline import optimal_factors, spectral_efficiency
from hybridsim.channel import (
    ArrayGeometry,
    ClusterParams,
    array_response,
    gen_narrowband,
    sample_cluster_angles,
)
from hybridsim.harness import SweepSpec, run_sweep
from sweep_rows import read_sweep


def report(num, ok, detail):
    print(f"[criterion {num:02d}] {'PASS' if ok else 'FAIL'}: {detail}")
    assert ok, f"criterion {num:02d}: {detail}"


def crandn(rng, *shape):
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


def mean_rates(records, method):
    by_snr = {}
    for r in records:
        if r.method == method and np.isfinite(r.spectral_efficiency):
            by_snr.setdefault(r.snr_db, []).append(r.spectral_efficiency)
    return {k: np.asarray(v) for k, v in sorted(by_snr.items())}


def paired_gap(records_a, method_a, records_b, method_b, snr_db):
    """Mean per-run rate difference and its standard error at one SNR."""
    a = {
        r.run_index: r.spectral_efficiency
        for r in records_a
        if r.method == method_a and r.snr_db == snr_db
    }
    b = {
        r.run_index: r.spectral_efficiency
        for r in records_b
        if r.method == method_b and r.snr_db == snr_db
    }
    diffs = np.asarray([a[i] - b[i] for i in sorted(a)])
    return float(diffs.mean()), float(diffs.std(ddof=1) / np.sqrt(diffs.size))


C2_SPEC = SweepSpec(
    scenario="narrowband_full",
    n_s=2,
    n_rf=4,
    n_tx_side=8,
    n_rx_side=4,
    n_subcarriers=1,
    snr_db_list=[0.0],
    runs=200,
    base_seed=0,
    admm=AdmmConfig(rho=scale_matched_rho(64, 4, 2), max_iters=30, tau=1e-3, seed=0),
)

C3_FULL_SPEC = SweepSpec(
    scenario="narrowband_full",
    n_s=2,
    n_rf=2,
    n_tx_side=10,
    n_rx_side=4,
    n_subcarriers=1,
    snr_db_list=[-10.0, 0.0, 10.0],
    runs=200,
    base_seed=0,
    admm=AdmmConfig(rho=scale_matched_rho(100, 2, 2), max_iters=30, tau=1e-3, seed=0),
)

C3_PARTIAL_SPEC = SweepSpec(
    scenario="narrowband_partial",
    n_s=2,
    n_rf=2,
    n_tx_side=10,
    n_rx_side=4,
    n_subcarriers=1,
    snr_db_list=[-10.0, 0.0, 10.0],
    runs=200,
    base_seed=0,
    admm=AdmmConfig(
        rho=scale_matched_rho(100, 2, 2, structure="partially_connected"),
        max_iters=30,
        tau=1e-3,
        seed=0,
    ),
)

C5_WIDE_SPEC = SweepSpec(
    scenario="wideband",
    n_s=3,
    n_rf=4,
    n_tx_side=6,
    n_rx_side=4,
    n_subcarriers=16,
    snr_db_list=[0.0],
    runs=100,
    base_seed=0,
    admm=AdmmConfig(
        rho=scale_matched_rho(36, 4, 3, n_subcarriers=16),
        max_iters=30,
        tau=1e-3,
        seed=0,
    ),
    multistart=2,
)

C5_NARROW_SPEC = SweepSpec(
    scenario="narrowband_full",
    n_s=3,
    n_rf=4,
    n_tx_side=6,
    n_rx_side=4,
    n_subcarriers=1,
    snr_db_list=[0.0],
    runs=100,
    base_seed=0,
    admm=AdmmConfig(rho=scale_matched_rho(36, 4, 3), max_iters=30, tau=1e-3, seed=0),
    multistart=2,
)


@pytest.fixture(scope="module")
def sweep_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("sweeps")


@pytest.fixture(scope="module")
def c2_records(sweep_dir):
    t0 = time.perf_counter()
    run_sweep(C2_SPEC, sweep_dir / "c2.csv")
    dt = time.perf_counter() - t0
    return read_sweep(sweep_dir / "c2.csv"), dt


@pytest.fixture(scope="module")
def c2_records_tau0(sweep_dir):
    spec = SweepSpec.from_dict(
        {**C2_SPEC.to_dict(), "admm": {**C2_SPEC.to_dict()["admm"], "tau": 0.0}}
    )
    run_sweep(spec, sweep_dir / "c2_tau0.csv")
    return read_sweep(sweep_dir / "c2_tau0.csv")


@pytest.fixture(scope="module")
def c3_records(sweep_dir):
    run_sweep(C3_FULL_SPEC, sweep_dir / "c3_full.csv")
    run_sweep(C3_PARTIAL_SPEC, sweep_dir / "c3_partial.csv")
    full = read_sweep(sweep_dir / "c3_full.csv")
    return full, read_sweep(sweep_dir / "c3_partial.csv")


@pytest.fixture(scope="module")
def c5_records(sweep_dir):
    run_sweep(C5_WIDE_SPEC, sweep_dir / "c5_wide.csv")
    run_sweep(C5_NARROW_SPEC, sweep_dir / "c5_narrow.csv")
    wide = read_sweep(sweep_dir / "c5_wide.csv")
    return wide, read_sweep(sweep_dir / "c5_narrow.csv")


def test_criterion_01_square_case_matches_digital():
    t0 = time.perf_counter()
    worst_rate_dev = 0.0
    worst_obj = 0.0
    for seed in range(50):
        h = gen_narrowband(
            seed, ArrayGeometry(4), ArrayGeometry(4), ClusterParams()
        ).matrix
        fo = optimal_factors(h, 2)
        cfg = AdmmConfig(seed=seed)
        pre = design_fully_connected(fo.f_opt, 16, cfg, normalize_power=True)
        comb = design_fully_connected(fo.w_opt, 16, cfg, normalize_power=False)
        se_h = spectral_efficiency(
            h, pre.f_rf @ pre.f_bb, comb.f_rf @ comb.f_bb, 1.0, 2
        )
        se_d = spectral_efficiency(h, fo.f_opt, fo.w_opt, 1.0, 2)
        worst_rate_dev = max(worst_rate_dev, abs(se_h - se_d) / se_d)
        worst_obj = max(worst_obj, pre.final_objective, comb.final_objective)
    dt = time.perf_counter() - t0
    ok = worst_rate_dev < 1e-3 and worst_obj < 1e-4 and dt < 30.0
    report(
        1,
        ok,
        f"50 seeds, max rate dev {worst_rate_dev:.2e} (limit 1e-3), "
        f"max objective {worst_obj:.2e} (limit 1e-4), {dt:.1f}s (limit 30s)",
    )


def test_criterion_02_few_chain_rate_within_3pct(c2_records):
    records, dt = c2_records
    dig = mean_rates(records, "digital_opt")[0.0]
    hyb = mean_rates(records, "hybrid_full")[0.0]
    ratio = hyb.mean() / dig.mean()
    ok = ratio >= 0.97 and dt < 300.0
    report(
        2,
        ok,
        f"200 runs, mean hybrid {hyb.mean():.3f} vs digital {dig.mean():.3f} "
        f"bits/s/Hz, ratio {ratio:.4f} (limit 0.97), {dt:.1f}s (limit 300s)",
    )


def test_criterion_03_architecture_ordering(c3_records):
    full, part = c3_records
    details = []
    ok = True
    for snr_db in (-10.0, 0.0, 10.0):
        g1, s1 = paired_gap(full, "digital_opt", full, "hybrid_full", snr_db)
        g2, s2 = paired_gap(full, "hybrid_full", part, "hybrid_partial", snr_db)
        ok = ok and g1 >= 2 * s1 and g2 >= 2 * s2
        details.append(
            f"{snr_db:+.0f}dB: dig-full {g1:.3f} ({g1 / s1:.0f} se), "
            f"full-part {g2:.3f} ({g2 / s2:.0f} se)"
        )
    report(3, ok, "gaps " + "; ".join(details) + " (limit 2 se each)")


def test_criterion_04_single_carrier_reduction():
    worst = 0.0
    rng = np.random.default_rng(0)
    for seed in range(20):
        h = gen_narrowband(
            seed, ArrayGeometry(4), ArrayGeometry(4), ClusterParams()
        ).matrix
        f_opt = optimal_factors(h, 2).f_opt
        cfg = AdmmConfig(
            rho=scale_matched_rho(16, 4, 2), max_iters=10, tau=0.0, seed=seed
        )
        wide = design_wideband(
            f_opt[None], 4, cfg, normalize_power=True, keep_iterates=True
        )
        narrow = design_fully_connected(
            f_opt, 4, cfg, normalize_power=True, keep_iterates=True
        )
        assert len(wide.iterates) == len(narrow.iterates)
        for sw, sn in zip(wide.iterates, narrow.iterates):
            worst = max(
                worst,
                np.max(np.abs(sw.f_rf - sn.f_rf)),
                np.max(np.abs(sw.f_bb[0] - sn.f_bb)),
                np.max(np.abs(sw.r - sn.r)),
                np.max(np.abs(sw.w - sn.w)),
            )
        worst = max(
            worst,
            np.max(np.abs(wide.f_rf - narrow.f_rf)),
            np.max(np.abs(wide.f_bb[0] - narrow.f_bb)),
        )
    ok = worst < 1e-12
    report(4, ok, f"20 seeds, max iterate deviation {worst:.2e} (limit 1e-12)")


def test_criterion_05_wideband_gap_and_floor(c5_records):
    wide, narrow = c5_records
    dig_w = mean_rates(wide, "digital_opt")[0.0].mean()
    hyb_w = mean_rates(wide, "hybrid_wideband")[0.0].mean()
    dig_n = mean_rates(narrow, "digital_opt")[0.0].mean()
    hyb_n = mean_rates(narrow, "hybrid_full")[0.0].mean()
    gap_w = dig_w - hyb_w
    gap_n = dig_n - hyb_n
    ratio = hyb_w / dig_w
    ok = gap_w > gap_n and ratio >= 0.85
    report(
        5,
        ok,
        f"100 runs, wideband gap {gap_w:.3f} > narrowband gap {gap_n:.3f}, "
        f"wideband ratio {ratio:.4f} (limit 0.85)",
    )


def designs_for_constraint_suite():
    """Representative precoder/combiner designs from the scenarios above."""
    out = []
    specs = [
        ("square", SweepSpec(
            scenario="narrowband_full", n_s=2, n_rf=16, n_tx_side=4, n_rx_side=4,
            n_subcarriers=1, snr_db_list=[0.0], runs=1, base_seed=0,
            admm=AdmmConfig(seed=0),
        )),
        ("few_chain", C2_SPEC),
        ("full_vs_partial", C3_FULL_SPEC),
        ("partial", C3_PARTIAL_SPEC),
        ("wideband", C5_WIDE_SPEC),
    ]
    for label, spec in specs:
        for run in range(3):
            h = gen_narrowband(
                spec.base_seed + run,
                ArrayGeometry(spec.n_tx_side),
                ArrayGeometry(spec.n_rx_side),
                ClusterParams(),
            ).matrix
            fo = optimal_factors(h, spec.n_s)
            cfg = spec.admm
            n_rf = spec.n_rf[0]
            if spec.scenario == "wideband":
                targets = np.broadcast_to(
                    fo.f_opt, (spec.n_subcarriers,) + fo.f_opt.shape
                ).copy()
                pre = design_wideband(targets, n_rf, cfg, normalize_power=True)
                comb = design_fully_connected(fo.w_opt, n_rf, cfg, normalize_power=False)
            elif spec.scenario == "narrowband_partial":
                pre = design_partially_connected(fo.f_opt, n_rf, cfg, normalize_power=True)
                comb = design_partially_connected(fo.w_opt, n_rf, cfg, normalize_power=False)
            else:
                pre = design_fully_connected(fo.f_opt, n_rf, cfg, normalize_power=True)
                comb = design_fully_connected(fo.w_opt, n_rf, cfg, normalize_power=False)
            out.append((f"{label}/run{run}", spec, pre, comb))
    return out


def test_criterion_06_constraint_suite():
    worst_mod = 0.0
    worst_power = 0.0
    support_ok = True
    n_checked = 0
    for label, spec, pre, comb in designs_for_constraint_suite():
        n_checked += 1
        for design in (pre, comb):
            if design.structure == "partially_connected":
                n_tx = design.f_rf.shape[0]
                n_rf = design.f_rf.shape[1]
                block = n_tx // n_rf
                mask = np.zeros((n_tx, n_rf), dtype=bool)
                for i in range(n_rf):
                    mask[i * block : (i + 1) * block, i] = True
                support_ok = support_ok and bool(np.all(design.f_rf[~mask] == 0.0))
                entries = design.f_rf[mask]
            else:
                entries = design.f_rf.ravel()
            worst_mod = max(worst_mod, np.max(np.abs(np.abs(entries) - 1.0)))
        f_bb = pre.f_bb if pre.f_bb.ndim == 3 else pre.f_bb[None]
        for k in range(f_bb.shape[0]):
            power = np.linalg.norm(pre.f_rf @ f_bb[k]) ** 2
            worst_power = max(worst_power, abs(power - spec.n_s))
    ok = worst_mod < 1e-12 and worst_power < 1e-9 and support_ok
    report(
        6,
        ok,
        f"{n_checked} design pairs: max modulus dev {worst_mod:.2e} (limit 1e-12), "
        f"max power dev {worst_power:.2e} (limit 1e-9), "
        f"block support exact: {support_ok}",
    )


def test_criterion_07_update_optimality_500_instances():
    rng = np.random.default_rng(7)
    worst_normal = 0.0
    worst_lsq = 0.0
    worst_grad = 0.0
    worst_proj = 0.0
    for _ in range(500):
        n_rf = int(rng.integers(1, 5))
        n_s = int(rng.integers(1, n_rf + 1))
        block = int(rng.integers(2, 5))
        n_tx = n_rf * block
        rho = 10.0 ** rng.uniform(-2, 0)

        # analog update solves its normal equations (single carrier)
        st = AdmmState(
            f_rf=project_unit_modulus(crandn(rng, n_tx, n_rf)),
            f_bb=crandn(rng, n_rf, n_s),
            r=project_unit_modulus(crandn(rng, n_tx, n_rf)),
            w=0.1 * crandn(rng, n_tx, n_rf),
        )
        f_target = crandn(rng, n_tx, n_s)
        out = step_frf(st, f_target, rho)
        lhs = out @ (st.f_bb @ st.f_bb.conj().T + rho * np.eye(n_rf))
        rhs = f_target @ st.f_bb.conj().T + rho * (st.r - st.w)
        worst_normal = max(
            worst_normal, np.linalg.norm(lhs - rhs) / np.linalg.norm(rhs)
        )

        # digital update agrees with an independent least-squares solver
        f_bb = least_squares_fbb(st.f_rf, f_target)
        ref = np.linalg.lstsq(st.f_rf, f_target, rcond=None)[0]
        worst_lsq = max(worst_lsq, np.max(np.abs(f_bb - ref)))

        # shared analog update of the multicarrier loop solves the summed
        # normal equations; one update step via the public snapshot path
        k_sub = int(rng.integers(2, 4))
        targets = crandn(rng, k_sub, n_tx, n_s)
        cfg1 = AdmmConfig(rho=rho, max_iters=1, tau=0.0, seed=int(rng.integers(1 << 16)))
        wb = design_wideband(
            targets, n_rf, cfg1, normalize_power=False, keep_iterates=True
        )
        prev, cur = wb.iterates
        gram = sum(prev.f_bb[k] @ prev.f_bb[k].conj().T for k in range(k_sub))
        num = sum(targets[k] @ prev.f_bb[k].conj().T for k in range(k_sub))
        lhs = cur.f_rf @ (gram + rho * np.eye(n_rf))
        rhs = num + rho * (prev.r - prev.w)
        worst_normal = max(
            worst_normal, np.linalg.norm(lhs - rhs) / np.linalg.norm(rhs)
        )
        for k in range(k_sub):
            ref_k = np.linalg.lstsq(cur.f_rf, targets[k], rcond=None)[0]
            worst_lsq = max(worst_lsq, np.max(np.abs(cur.f_bb[k] - ref_k)))

        # per-scalar analog update of the block-diagonal loop is stationary
        t_block = crandn(rng, block, n_s)
        fbb_row = crandn(rng, n_s)
        pull = crandn(rng, block)
        den = np.sum(np.abs(fbb_row) ** 2) + rho
        num = t_block @ fbb_row.conj() + rho * pull
        x = num / den
        b = int(rng.integers(0, block))

        def q(v):
            return float(
                np.sum(np.abs(t_block[b] - v * fbb_row) ** 2)
                + rho * abs(v - pull[b]) ** 2
            )

        h = 1e-6
        scale = max(1.0, q(x[b]))
        d_re = (q(x[b] + h) - q(x[b] - h)) / (2 * h)
        d_im = (q(x[b] + 1j * h) - q(x[b] - 1j * h)) / (2 * h)
        worst_grad = max(worst_grad, abs(d_re) / scale, abs(d_im) / scale)

        # projection is idempotent in both phase modes
        x_raw = crandn(rng, 8)
        p = project_unit_modulus(x_raw)
        worst_proj = max(worst_proj, np.max(np.abs(project_unit_modulus(p) - p)))
        pq = project_unit_modulus(x_raw, 3)
        worst_proj = max(
            worst_proj, np.max(np.abs(project_unit_modulus(pq, 3) - pq))
        )

    ok = (
        worst_normal < 1e-9
        and worst_lsq < 1e-10
        and worst_grad < 1e-6
        and worst_proj < 1e-14
    )
    report(
        7,
        ok,
        f"500 instances: normal eq {worst_normal:.2e} (1e-9), "
        f"lsq vs oracle {worst_lsq:.2e} (1e-10), "
        f"stationarity {worst_grad:.2e} (1e-6), "
        f"projection idempotence {worst_proj:.2e} (1e-14)",
    )


def test_criterion_08_channel_statistics():
    geometries = [(4, 4), (8, 4), (5, 5)]
    worst_energy = 0.0
    for tx_side, rx_side in geometries:
        n_tx, n_rx = tx_side**2, rx_side**2
        total = 0.0
        for seed in range(2000):
            h = gen_narrowband(
                seed, ArrayGeometry(tx_side), ArrayGeometry(rx_side), ClusterParams()
            ).matrix
            total += np.linalg.norm(h) ** 2
        worst_energy = max(worst_energy, abs(total / 2000 / (n_tx * n_rx) - 1.0))

    rng = np.random.default_rng(8)
    geo = ArrayGeometry(4)
    worst_norm = 0.0
    for _ in range(10_000):
        az = rng.uniform(0, 2 * np.pi)
        el = rng.uniform(0, np.pi)
        v = array_response(geo, az, el)
        worst_norm = max(worst_norm, abs(np.linalg.norm(v) - 1.0))

    params = ClusterParams()
    pool = []
    while len(pool) * 320 < 100_000:
        pool.append(sample_cluster_angles(rng, params)[1].ravel())
    offsets = np.concatenate(pool)
    spread_dev = abs(offsets.std() / params.angular_spread_rad - 1.0)

    ok = worst_energy < 0.05 and worst_norm < 1e-14 and spread_dev < 0.02
    report(
        8,
        ok,
        f"energy dev {worst_energy:.4f} over 3 geometries x 2000 draws (limit "
        f"0.05), steering norm dev {worst_norm:.2e} over 1e4 angles (limit "
        f"1e-14), spread dev {spread_dev:.4f} over {offsets.size} offsets "
        f"(limit 0.02)",
    )


def test_criterion_09_rate_identities():
    eye = np.eye(2, dtype=complex)
    se = spectral_efficiency(eye, eye, eye, 1.0, 2)
    identity_dev = abs(se - 2 * np.log2(1.5))

    rng = np.random.default_rng(9)
    worst_inv = 0.0
    for _ in range(100):
        h = crandn(rng, 4, 6)
        u, _ = np.linalg.qr(crandn(rng, 4, 4))
        v, _ = np.linalg.qr(crandn(rng, 6, 6))
        fo = optimal_factors(h, 2)
        fo2 = optimal_factors(u @ h @ v, 2)
        a = spectral_efficiency(h, fo.f_opt, fo.w_opt, 2.0, 2)
        b = spectral_efficiency(u @ h @ v, fo2.f_opt, fo2.w_opt, 2.0, 2)
        worst_inv = max(worst_inv, abs(a - b))

    ok = identity_dev < 1e-12 and worst_inv < 1e-10
    report(
        9,
        ok,
        f"identity channel dev {identity_dev:.2e} (limit 1e-12), unitary "
        f"invariance dev {worst_inv:.2e} over 100 instances (limit 1e-10)",
    )


def test_criterion_10_stagnation_behavior(c2_records, c2_records_tau0):
    records, _ = c2_records
    iters = [
        r.iterations_used for r in records if r.method == "hybrid_full"
    ]
    median_iters = float(np.median(iters))

    hyb = mean_rates(records, "hybrid_full")[0.0].mean()
    hyb0 = mean_rates(c2_records_tau0, "hybrid_full")[0.0].mean()
    rel = abs(hyb - hyb0) / hyb0

    ok = median_iters < 30 and rel < 0.005
    report(
        10,
        ok,
        f"median iterations {median_iters:.0f} (limit 30), early-stop rate "
        f"shift {100 * rel:.3f}% (limit 0.5%)",
    )
