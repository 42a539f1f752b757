import csv
import io
import json
import multiprocessing

import numpy as np
import pytest

from hybridsim import harness
from hybridsim.admm import AdmmConfig
from hybridsim.baseline import optimal_factors, spectral_efficiency
from hybridsim.harness import SweepSpec, load_config, run_sweep
from sweep_rows import (
    group_by,
    read_meta,
    read_sweep,
    reference_lines,
    reference_rows,
    spy_columns,
)


def small_spec(**overrides):
    base = dict(
        scenario="narrowband_full",
        n_s=2,
        n_rf=2,
        n_tx_side=3,
        n_rx_side=3,
        n_subcarriers=1,
        snr_db_list=[0.0, 10.0],
        runs=3,
        base_seed=100,
        admm=AdmmConfig(rho=2 / 18, max_iters=10, tau=0.0, seed=0),
    )
    base.update(overrides)
    return SweepSpec(**base)


def read_rows(path):
    with open(path, newline="") as fh:
        return list(csv.reader(fh))


def strip_wall_time(rows):
    return [row[:-1] for row in rows]


def run_rows(spec, run_index, tmp_path):
    """The rows of one run, read from a sweep of the spec."""
    run_sweep(spec, tmp_path / "sweep.csv")
    return [r for r in read_sweep(tmp_path / "sweep.csv") if r.run_index == run_index]


def block_offset(first_run, factors, run_index):
    """Position of ``run_index`` in the block starting at ``first_run``."""
    offset = run_index - first_run
    return offset if 0 <= offset < len(factors.f_opt) else None


class TestSweepSpec:
    def test_empty_snr_axis_rejected(self):
        with pytest.raises(ValueError, match="empty sweep axis"):
            small_spec(snr_db_list=[])

    def test_empty_n_rf_axis_rejected(self):
        with pytest.raises(ValueError, match="empty sweep axis"):
            small_spec(n_rf=[])

    @pytest.mark.parametrize(
        "overrides",
        [
            {"snr_db_list": [10.0, 10]},
            {"snr_db_list": [0.0, 5.0, -0.0]},
            {"n_rf": [2, 2]},
            {"n_rf": [2, 3, 2.0]},
        ],
    )
    def test_duplicate_axis_values_rejected(self, overrides):
        # each copy would pool every run into the same sweep point twice
        with pytest.raises(ValueError, match="duplicate values in sweep axis"):
            small_spec(**overrides)

    def test_scalar_axes_promoted(self):
        spec = small_spec(n_rf=3, snr_db_list=5)
        assert spec.n_rf == (3,)
        assert spec.snr_db_list == (5.0,)

    def test_unknown_scenario_rejected(self):
        with pytest.raises(ValueError, match="unknown scenario"):
            small_spec(scenario="uplink")

    def test_stream_count_bounds(self):
        with pytest.raises(ValueError):
            small_spec(n_s=3, n_rf=2)
        with pytest.raises(ValueError):
            small_spec(n_rf=10)  # above min(n_tx, n_rx) = 9

    def test_partial_divisibility_both_sides(self):
        # 16 antennas split 4 ways works; 9 receive antennas do not
        with pytest.raises(ValueError, match="divide"):
            small_spec(scenario="narrowband_partial", n_tx_side=4, n_rf=4)
        spec = small_spec(
            scenario="narrowband_partial", n_tx_side=4, n_rx_side=4, n_rf=4
        )
        assert spec.n_tx == 16 and spec.n_rx == 16

    def test_narrowband_requires_single_subcarrier(self):
        with pytest.raises(ValueError, match="n_subcarriers"):
            small_spec(n_subcarriers=8)

    def test_from_dict_unknown_key(self):
        doc = small_spec().to_dict()
        doc["admm"] = {}
        doc["bandwidth"] = 100e6
        with pytest.raises(ValueError, match="unknown config keys"):
            SweepSpec.from_dict(doc)

    def test_from_dict_missing_key(self):
        doc = small_spec().to_dict()
        doc["admm"] = {}
        del doc["runs"]
        with pytest.raises(ValueError, match="missing config keys"):
            SweepSpec.from_dict(doc)

    def test_from_dict_unknown_admm_key(self):
        doc = small_spec().to_dict()
        doc["admm"] = {"rho": 0.1, "momentum": 0.9}
        with pytest.raises(ValueError, match="unknown admm config keys"):
            SweepSpec.from_dict(doc)

    @pytest.mark.parametrize(
        "overrides",
        [
            {"snr_db_list": [0.0, float("nan")]},
            {"snr_db_list": float("inf")},
            {"runs": 2.5},
            {"n_s": 1.5},
            {"multistart": float("nan")},
            {"base_seed": float("inf")},
            {"n_rf": [2, 2.5]},
            {"n_rf": float("nan")},
            # finite in dB, but 10 ** 400 is beyond float range
            {"snr_db_list": [0.0, 4000.0]},
        ],
    )
    def test_nonfinite_and_nonint_values_rejected(self, overrides):
        with pytest.raises(ValueError):
            small_spec(**overrides)

    @pytest.mark.parametrize(
        "overrides, match",
        [
            ({"multistart": 0}, "multistart must be >= 1"),
            ({"n_s": 0}, "n_s must be >= 1"),
            ({"n_tx_side": 0}, "array sides must be >= 1"),
            (
                {"scenario": "wideband", "n_subcarriers": 0},
                "n_subcarriers must be >= 1",
            ),
        ],
    )
    def test_counts_below_one_rejected(self, overrides, match):
        with pytest.raises(ValueError, match=match):
            small_spec(**overrides)

    def test_negative_base_seed_rejected(self):
        with pytest.raises(ValueError, match="base_seed"):
            small_spec(base_seed=-1)

    def test_from_dict_rejects_fractional_count(self):
        doc = small_spec().to_dict()
        doc["runs"] = 2.5
        with pytest.raises(ValueError, match="runs"):
            SweepSpec.from_dict(doc)

    def test_dict_roundtrip(self):
        spec = small_spec(multistart=2)
        assert SweepSpec.from_dict(spec.to_dict()) == spec


class TestRunSingle:
    """One Monte Carlo run's rows, read from a sweep: one channel draw at
    every sweep point."""

    def test_record_fields(self, tmp_path):
        spec = small_spec(runs=1)
        records = run_rows(spec, 0, tmp_path)
        assert len(records) == 4  # 2 snrs x 2 methods, one n_rf
        for rec in records:
            assert rec.scenario == "narrowband_full"
            assert rec.seed == 100
            assert rec.run_index == 0
            assert np.isfinite(rec.spectral_efficiency)
        digital = [r for r in records if r.method == "digital_opt"]
        hybrid = [r for r in records if r.method == "hybrid_full"]
        assert len(digital) == len(hybrid) == 2
        for rec in digital:
            assert rec.final_objective == 0.0
            assert rec.iterations_used == 0
        for rec in hybrid:
            assert rec.iterations_used >= 1
            assert rec.final_objective >= 0.0

    def test_hybrid_below_digital(self, tmp_path):
        # per-channel optimality of the unconstrained factorization
        spec = small_spec(runs=1)
        by_key = {}
        for rec in run_rows(spec, 0, tmp_path):
            by_key[(rec.snr_db, rec.method)] = rec.spectral_efficiency
        for snr_db in (0.0, 10.0):
            assert by_key[(snr_db, "hybrid_full")] <= by_key[(snr_db, "digital_opt")]

    def test_wideband_scenario(self, tmp_path):
        spec = small_spec(
            scenario="wideband",
            n_subcarriers=4,
            snr_db_list=[0.0],
            runs=3,
            admm=AdmmConfig(rho=4 * 2 / 18, max_iters=10, tau=0.0, seed=0),
        )
        records = run_rows(spec, 2, tmp_path)
        assert len(records) == 2
        assert records[0].seed == 102
        methods = {r.method for r in records}
        assert methods == {"digital_opt", "hybrid_wideband"}
        for rec in records:
            assert np.isfinite(rec.spectral_efficiency)


class TestRunSweep:
    def test_row_cardinality_and_sorting(self, tmp_path):
        out = tmp_path / "sweep.csv"
        spec = small_spec()
        run_sweep(spec, out)
        rows = read_rows(out)
        assert rows[0] == harness._CSV_FIELDS
        body = rows[1:]
        # 2 snrs x 3 runs x 2 methods
        assert len(body) == 12
        keys = [
            (int(r[2]), float(r[1]), int(r[3]), r[5])
            for r in body
        ]
        assert keys == sorted(keys)

    def test_deterministic_excluding_wall_time(self, tmp_path):
        spec = small_spec()
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        run_sweep(spec, a)
        run_sweep(spec, b)
        assert strip_wall_time(read_rows(a)) == strip_wall_time(read_rows(b))

    def test_parallel_matches_serial(self, tmp_path):
        spec = small_spec()
        ser, par = tmp_path / "ser.csv", tmp_path / "par.csv"
        run_sweep(spec, ser, workers=1)
        run_sweep(spec, par, workers=2)
        assert strip_wall_time(read_rows(ser)) == strip_wall_time(read_rows(par))

    @pytest.mark.parametrize(
        "overrides",
        [
            {},
            {"scenario": "wideband", "n_subcarriers": 3, "n_rf": [2, 3]},
            {
                "scenario": "narrowband_partial",
                "n_tx_side": 4,
                "n_rx_side": 4,
                "n_rf": [2, 4],
            },
        ],
        ids=["full", "wideband", "partial"],
    )
    def test_rows_independent_of_block_size_and_workers(
        self, tmp_path, monkeypatch, overrides
    ):
        # stagnation at tau > 0 stops instances at different iterations, so
        # the batched loop drops instances from its active set mid-call
        spec = small_spec(
            runs=5,
            multistart=2,
            admm=AdmmConfig(rho=2 / 18, max_iters=15, tau=3e-2, seed=3),
            **overrides,
        )
        rows = {}
        for block in (1, 2, harness._BLOCK_RUNS):
            monkeypatch.setattr(harness, "_BLOCK_RUNS", block)
            for workers in (1, 2):
                out = tmp_path / f"b{block}w{workers}.csv"
                run_sweep(spec, out, workers=workers)
                rows[block, workers] = strip_wall_time(read_rows(out))
        reference = rows[1, 1]
        assert len({int(r[8]) for r in reference[1:]}) > 3  # varied iterations
        for key, got in rows.items():
            assert got == reference, key

    def test_rejects_nonpositive_workers(self, tmp_path):
        for workers in (0, -3):
            with pytest.raises(ValueError, match="workers"):
                run_sweep(small_spec(), tmp_path / "sweep.csv", workers=workers)
        assert not (tmp_path / "sweep.csv").exists()

    def test_metadata_contents(self, tmp_path, monkeypatch):
        out = tmp_path / "sweep.csv"
        seen = spy_columns(monkeypatch)
        returned = run_sweep(spec := small_spec(), out)
        meta = read_meta(str(out) + ".meta.json")
        assert returned == meta
        # the rows of the columns the sweep wrote, with their exact rates
        (columns,) = seen
        records = reference_rows(spec, columns)
        assert out.read_text().splitlines(keepends=True) == reference_lines(records)
        assert meta["rows"] == 12
        assert meta["error_rows"] == 0
        assert SweepSpec.from_dict(meta["spec"]) == spec
        assert meta["wideband_se_convention"] == "mean over subcarriers"
        # aggregates must reproduce a direct group-by over the records
        for agg in meta["aggregates"]:
            vals = [
                r.spectral_efficiency
                for r in records
                if (r.scenario, r.snr_db, r.n_rf, r.method)
                == (agg["scenario"], agg["snr_db"], agg["n_rf"], agg["method"])
            ]
            assert agg["n"] == len(vals) == 3
            assert abs(agg["mean_spectral_efficiency"] - np.mean(vals)) < 1e-12
            expect_se = np.std(vals, ddof=1) / np.sqrt(len(vals))
            assert abs(agg["stderr"] - expect_se) < 1e-12

    def test_multistart_never_worse_on_shared_start(self, tmp_path):
        # run 0 of a multistart=2 sweep picks the best of seeds {0, 1},
        # a superset of the single-start run's seed {0}
        run_sweep(small_spec(runs=1), tmp_path / "m1.csv")
        run_sweep(small_spec(runs=1, multistart=2), tmp_path / "m2.csv")
        single = read_sweep(tmp_path / "m1.csv")
        double = read_sweep(tmp_path / "m2.csv")
        obj1 = {
            (r.snr_db,): r.final_objective
            for r in single
            if r.method == "hybrid_full"
        }
        obj2 = {
            (r.snr_db,): r.final_objective
            for r in double
            if r.method == "hybrid_full"
        }
        for key in obj1:
            assert obj2[key] <= obj1[key] + 1e-12

    def test_failed_design_yields_nan_rows(self, tmp_path, monkeypatch):
        # every batched call that covers run 1 fails, so the block falls
        # back to one run at a time and only run 1 is lost
        real = harness._design_block

        def flaky(spec, factors, n_rf, first_run, draws):
            if block_offset(first_run, factors, 1) is not None:
                raise np.linalg.LinAlgError("synthetic failure")
            return real(spec, factors, n_rf, first_run, draws)

        monkeypatch.setattr(harness, "_design_block", flaky)
        out = tmp_path / "sweep.csv"
        run_sweep(small_spec(), out)
        bad = [r for r in read_sweep(out) if np.isnan(r.spectral_efficiency)]
        assert len(bad) == 2  # hybrid rows of run 1, both snrs
        assert all(r.method == "hybrid_full" and r.run_index == 1 for r in bad)
        meta = read_meta(str(out) + ".meta.json")
        assert meta["error_rows"] == 2
        for agg in meta["aggregates"]:
            assert agg["n"] == (2 if agg["method"] == "hybrid_full" else 3)
        # nan rows appear in the CSV body, flagged not dropped
        body = read_rows(out)[1:]
        assert len(body) == 12
        assert sum("nan" in r[6] for r in body) == 2

    def test_sweep_with_every_hybrid_design_failing(self, tmp_path, monkeypatch):
        # every sweep point's hybrid runs are all NaN, so only the digital
        # aggregates are written
        def failing(spec, factors, n_rf, first_run, draws):
            raise np.linalg.LinAlgError("synthetic failure")

        monkeypatch.setattr(harness, "_design_block", failing)
        out = tmp_path / "sweep.csv"
        run_sweep(small_spec(n_rf=[2, 3]), out)
        hybrid = [r for r in read_sweep(out) if r.method == "hybrid_full"]
        assert len(hybrid) == 12
        assert all(np.isnan(r.spectral_efficiency) for r in hybrid)
        meta = read_meta(str(out) + ".meta.json")
        assert meta["rows"] == 24
        assert meta["error_rows"] == 12
        assert [agg["method"] for agg in meta["aggregates"]] == ["digital_opt"] * 4
        assert all(agg["n"] == 3 for agg in meta["aggregates"])

    def test_overflowing_rates_are_error_rows(self, tmp_path):
        # 3080 dB is a linear SNR of about 1e308: every stream gain, and so
        # every rate, overflows to inf; no rate is finite, so no aggregate
        # is written and meta.json stays strict JSON
        spec = small_spec(n_s=1, n_tx_side=2, n_rx_side=2, snr_db_list=[3080.0], runs=2)
        out = tmp_path / "sweep.csv"
        meta = run_sweep(spec, out)
        rows = read_sweep(out)
        assert len(rows) == meta["rows"] == 4
        assert all(r.spectral_efficiency == np.inf for r in rows)
        assert meta["error_rows"] == 4
        assert meta["aggregates"] == []
        assert read_meta(str(out) + ".meta.json") == meta

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_digital_rates_equal_the_rates_of_the_digital_factors(self, monkeypatch):
        # a block's digital rates come from the SVD factors' singular values;
        # they are the rates spectral_efficiency gives the factors themselves,
        # on a K = 3 stack with one slice on the SVD fallback, and at an SNR
        # whose stream gains overflow
        spec = small_spec(
            scenario="wideband",
            n_tx_side=2,
            n_rx_side=2,
            n_subcarriers=3,
            snr_db_list=[0.0, 10.0, 3080.0],
        )
        real = harness.draw_channels

        def with_fallback_slice(spec, first_run, stop_run):
            channels = real(spec, first_run, stop_run)
            u, s, vh = np.linalg.svd(channels[1, 2])
            s[1:] = s[0] * np.array([1e-3, 1e-4, 1e-5])
            channels[1, 2] = (u * s) @ vh
            return channels

        monkeypatch.setattr(harness, "draw_channels", with_fallback_slice)
        columns = harness._run_block(spec, 0, spec.runs)
        channels = harness.draw_channels(spec, 0, spec.runs)
        factors = optimal_factors(channels, spec.n_s)
        s = factors.singular_values
        assert (s[..., 1] < 1e-2 * s[..., 0]).tolist() == [
            [False] * 3,
            [False, False, True],
            [False] * 3,
        ]
        snrs = 10.0 ** (np.array(spec.snr_db_list) / 10.0)
        want = spectral_efficiency(
            channels, factors.f_opt, factors.w_opt, snrs, spec.n_s
        ).mean(axis=1)
        assert np.isinf(want[:, 2]).all()
        np.testing.assert_allclose(columns.digital_se, want, rtol=1e-12)

    @pytest.mark.parametrize("workers", [1, 2])
    def test_unrateable_design_yields_nan_rows(self, tmp_path, monkeypatch, workers):
        # a rank-deficient hybrid combiner makes spectral_efficiency raise;
        # the run's hybrid rows turn NaN and the other runs complete
        if workers > 1 and multiprocessing.get_start_method() != "fork":
            pytest.skip("worker processes only see the patch when forked")
        real = harness._design_block

        def rank_deficient_combiner(spec, factors, n_rf, first_run, draws):
            pairs = real(spec, factors, n_rf, first_run, draws)
            offset = block_offset(first_run, factors, 1)
            if offset is not None:
                comb = pairs[offset][1]
                comb.f_bb[..., 1] = comb.f_bb[..., 0]
            return pairs

        monkeypatch.setattr(harness, "_design_block", rank_deficient_combiner)
        out = tmp_path / "sweep.csv"
        run_sweep(small_spec(), out, workers=workers)
        bad = [r for r in read_sweep(out) if np.isnan(r.spectral_efficiency)]
        assert len(bad) == 2
        assert all(r.method == "hybrid_full" and r.run_index == 1 for r in bad)
        assert all(np.isnan(r.final_objective) for r in bad)
        assert read_meta(str(out) + ".meta.json")["error_rows"] == 2
        assert read_rows(out)[0] == harness._CSV_FIELDS

    def test_two_unrateable_runs_of_one_block(self, tmp_path, monkeypatch):
        # the block's stacked hybrid rate call fails; rated again run by
        # run, only runs 0 and 2 lose their hybrid rows
        real = harness._design_block

        def two_rank_deficient(spec, factors, n_rf, first_run, draws):
            pairs = real(spec, factors, n_rf, first_run, draws)
            for run_index in (0, 2):
                offset = block_offset(first_run, factors, run_index)
                if offset is not None:
                    comb = pairs[offset][1]
                    comb.f_bb[..., 1] = comb.f_bb[..., 0]
            return pairs

        spec = small_spec(runs=4)
        run_sweep(spec, tmp_path / "clean.csv")
        monkeypatch.setattr(harness, "_design_block", two_rank_deficient)
        run_sweep(spec, tmp_path / "sweep.csv")
        clean = read_sweep(tmp_path / "clean.csv")
        records = read_sweep(tmp_path / "sweep.csv")
        bad = [r for r in records if np.isnan(r.spectral_efficiency)]
        assert {(r.method, r.run_index) for r in bad} == {
            ("hybrid_full", 0),
            ("hybrid_full", 2),
        }
        assert len(bad) == 4
        assert all(np.isnan(r.final_objective) for r in bad)
        assert all(r.iterations_used == 0 for r in bad)
        for want, got in zip(clean, records):
            if (got.method, got.run_index) not in {
                ("hybrid_full", 0),
                ("hybrid_full", 2),
            }:
                assert got._replace(wall_time_ms=0) == want._replace(wall_time_ms=0)

    @pytest.mark.parametrize("workers", [1, 2])
    def test_failed_and_unrateable_runs_of_one_block(
        self, tmp_path, monkeypatch, workers
    ):
        # run 1's design raises and run 2's combiner is rank deficient, in
        # one block; the block is redone run by run and only those two runs
        # lose their hybrid rows
        if workers > 1 and multiprocessing.get_start_method() != "fork":
            pytest.skip("worker processes only see the patch when forked")
        real = harness._design_block

        def two_failure_kinds(spec, factors, n_rf, first_run, draws):
            if block_offset(first_run, factors, 1) is not None:
                raise np.linalg.LinAlgError("synthetic failure")
            pairs = real(spec, factors, n_rf, first_run, draws)
            offset = block_offset(first_run, factors, 2)
            if offset is not None:
                comb = pairs[offset][1]
                comb.f_bb[..., 1] = comb.f_bb[..., 0]
            return pairs

        spec = small_spec(runs=4)
        run_sweep(spec, tmp_path / "clean.csv")
        monkeypatch.setattr(harness, "_design_block", two_failure_kinds)
        run_sweep(spec, tmp_path / "sweep.csv", workers=workers)
        clean = read_sweep(tmp_path / "clean.csv")
        records = read_sweep(tmp_path / "sweep.csv")
        lost = {("hybrid_full", 1), ("hybrid_full", 2)}
        bad = [r for r in records if np.isnan(r.spectral_efficiency)]
        assert {(r.method, r.run_index) for r in bad} == lost
        assert len(bad) == 4
        assert all(np.isnan(r.final_objective) for r in bad)
        assert all(r.iterations_used == 0 for r in bad)
        assert len(records) == len(clean)
        for want, got in zip(clean, records):
            if (got.method, got.run_index) not in lost:
                assert got._replace(wall_time_ms=0) == want._replace(wall_time_ms=0)

    def test_nonfinite_factors_yield_nan_rows(self, tmp_path, monkeypatch):
        real = harness._design_block

        def corrupted(spec, factors, n_rf, first_run, draws):
            pairs = real(spec, factors, n_rf, first_run, draws)
            offset = block_offset(first_run, factors, 2)
            if offset is not None:
                pairs[offset][0].f_bb[..., 0, 0] = np.nan
            return pairs

        monkeypatch.setattr(harness, "_design_block", corrupted)
        run_sweep(small_spec(), tmp_path / "sweep.csv")
        records = read_sweep(tmp_path / "sweep.csv")
        bad = [r for r in records if np.isnan(r.spectral_efficiency)]
        assert {(r.method, r.run_index) for r in bad} == {("hybrid_full", 2)}
        assert len(bad) == 2

    def test_one_failing_instance_spares_the_rest_of_its_block(
        self, tmp_path, monkeypatch
    ):
        # run 1's targets turn non-finite inside the real designer, so the
        # batched call over the whole block raises; the block is redone run
        # by run and every other run matches a clean sweep row for row
        spec = small_spec(
            runs=4,
            multistart=2,
            admm=AdmmConfig(rho=2 / 18, max_iters=10, tau=1e-3, seed=0),
        )
        clean = tmp_path / "clean.csv"
        run_sweep(spec, clean)
        real = harness.design_wideband
        batch_sizes = []

        def poisoned(targets, n_rf, cfg, normalize_power, draws):
            targets = np.array(targets)
            for i in range(len(targets)):
                # instance seed = admm.seed + run * multistart + start
                if (cfg.seed + i) // spec.multistart == 1:
                    targets[i, 0, 0] = np.nan
            batch_sizes.append(len(targets))
            return real(targets, n_rf, cfg, normalize_power, draws=draws)

        monkeypatch.setattr(harness, "design_wideband", poisoned)
        hit = tmp_path / "hit.csv"
        run_sweep(spec, hit)
        assert batch_sizes[0] == spec.runs * spec.multistart
        bad = [r for r in read_sweep(hit) if np.isnan(r.spectral_efficiency)]
        assert {(r.method, r.run_index) for r in bad} == {("hybrid_full", 1)}
        clean_rows = strip_wall_time(read_rows(clean))
        hit_rows = strip_wall_time(read_rows(hit))
        assert len(hit_rows) == len(clean_rows)
        for want, got in zip(clean_rows, hit_rows):
            if got[3] == "1" and got[5] == "hybrid_full":
                assert got[6] == "nan"
            else:
                assert got == want

    def test_lines_match_the_rows_of_the_walked_columns(self, tmp_path, monkeypatch):
        # the row walk on unsorted n_rf and SNR axes, one run a block, and a
        # failing run 1, against the reference rows of the columns it walked
        real = harness._design_block

        def flaky(spec, factors, n_rf, first_run, draws):
            if block_offset(first_run, factors, 1) is not None:
                raise np.linalg.LinAlgError("synthetic failure")
            return real(spec, factors, n_rf, first_run, draws)

        monkeypatch.setattr(harness, "_BLOCK_RUNS", 1)
        monkeypatch.setattr(harness, "_design_block", flaky)
        seen = spy_columns(monkeypatch)
        spec = small_spec(n_rf=[3, 2], snr_db_list=[7.0, -2.5, 0.0, 20.0])
        out = tmp_path / "sweep.csv"
        meta = run_sweep(spec, out)
        (columns,) = seen
        assert len(columns.digital_se) == spec.runs
        rows = reference_rows(spec, columns)
        assert out.read_text().splitlines(keepends=True) == reference_lines(rows)
        assert meta["rows"] == len(rows) == 48
        assert meta["aggregates"] == group_by(rows)
        lost = [r for r in rows if np.isnan(r.spectral_efficiency)]
        assert {(r.method, r.run_index) for r in lost} == {("hybrid_full", 1)}
        assert meta["error_rows"] == len(lost) == 8

    def test_io_failure_leaves_partial_marker(self, tmp_path, monkeypatch):
        real = harness._rows

        def failing(spec, columns):
            for n, row in enumerate(real(spec, columns), 1):
                if n > 5:
                    raise OSError("disk full")
                yield row

        monkeypatch.setattr(harness, "_rows", failing)
        out = tmp_path / "sweep.csv"
        with pytest.raises(OSError):
            run_sweep(small_spec(), out)
        lines = out.read_text().splitlines()
        assert lines[-1] == "# PARTIAL: sweep aborted before completion"
        assert len(lines) == 7  # header + 5 rows + marker

    def test_failing_block_leaves_header_and_partial_marker(
        self, tmp_path, monkeypatch
    ):
        def failing(spec, first_run, stop_run):
            raise RuntimeError("block failed")

        monkeypatch.setattr(harness, "_run_block", failing)
        out = tmp_path / "sweep.csv"
        with pytest.raises(RuntimeError, match="block failed"):
            run_sweep(small_spec(), out)
        assert out.read_text().splitlines() == [
            ",".join(harness._CSV_FIELDS),
            "# PARTIAL: sweep aborted before completion",
        ]


def wideband_ofdm_spec(runs):
    """36x16 wideband, 16 subcarriers, 2 starts: the shapes of the benchmark's
    wideband workload."""
    return small_spec(
        scenario="wideband",
        n_s=3,
        n_rf=4,
        n_tx_side=6,
        n_rx_side=4,
        n_subcarriers=16,
        runs=runs,
        multistart=2,
    )


def narrowband_spec(scenario, runs):
    """64x16 narrowband at n_rf 2 and 4: the shapes of the benchmark's
    narrowband workloads."""
    return small_spec(
        scenario=scenario, n_rf=[2, 4], n_tx_side=8, n_rx_side=4, runs=runs
    )


class SerialPool:
    """A stand-in for ProcessPoolExecutor that maps in this process."""

    def __init__(self, max_workers):
        self.max_workers = max_workers

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, *iterables):
        return map(fn, *iterables)


class TestBlockLayout:
    def layout(self, spec, workers, monkeypatch, tmp_path):
        """The (first_run, stop_run) pairs that run_sweep passes to _run_block."""
        import concurrent.futures

        calls = []

        def recorded(spec, first_run, stop_run):
            calls.append((first_run, stop_run))
            n, k, j = stop_run - first_run, len(spec.n_rf), len(spec.snr_db_list)
            return harness._Columns(
                np.ones((n, j)),
                np.zeros(n),
                np.ones((n, k, j)),
                np.zeros((n, k)),
                np.zeros((n, k), dtype=int),
                np.zeros((n, k)),
            )

        monkeypatch.setattr(harness, "_run_block", recorded)
        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", SerialPool)
        run_sweep(spec, tmp_path / "sweep.csv", workers=workers)
        return calls

    @pytest.mark.parametrize("block_runs", [5, harness._BLOCK_RUNS])
    @pytest.mark.parametrize("workers", [1, 2, 3])
    @pytest.mark.parametrize("shapes", [small_spec, wideband_ofdm_spec])
    def test_even_contiguous_blocks_under_the_cap(
        self, tmp_path, monkeypatch, shapes, workers, block_runs
    ):
        monkeypatch.setattr(harness, "_BLOCK_RUNS", block_runs)
        for runs in (1, 2, 3, 7, 12, 64, 100, 129):
            calls = self.layout(shapes(runs=runs), workers, monkeypatch, tmp_path)
            firsts, stops = zip(*calls)
            assert firsts[0] == 0 and stops[-1] == runs
            assert list(firsts[1:]) == list(stops[:-1])
            sizes = [stop - first for first, stop in calls]
            assert min(sizes) >= 1
            assert max(sizes) - min(sizes) <= 1
            assert max(sizes) <= block_runs
            if workers == 2 and runs >= 2:
                assert len(calls) % 2 == 0, (runs, sizes)

    @pytest.mark.parametrize(
        "spec, sizes",
        [
            (narrowband_spec("narrowband_full", 100), [50, 50]),
            (narrowband_spec("narrowband_partial", 100), [50, 50]),
            (wideband_ofdm_spec(10), [10]),
        ],
        ids=["nb_full", "partial_snr_sweep", "wideband_ofdm"],
    )
    def test_benchmark_shapes(self, tmp_path, monkeypatch, spec, sizes):
        calls = self.layout(spec, 1, monkeypatch, tmp_path)
        assert [stop - first for first, stop in calls] == sizes

    def test_many_wideband_runs_are_capped_by_working_set(
        self, tmp_path, monkeypatch
    ):
        # 64 runs fit the run cap, but the designers of one block of them
        # would hold over three times _BLOCK_ENTRIES complex entries
        calls = self.layout(wideband_ofdm_spec(64), 1, monkeypatch, tmp_path)
        assert len(calls) >= 3

    @pytest.mark.parametrize(
        "scenario, n_subcarriers",
        [("narrowband_full", 1), ("narrowband_partial", 1), ("wideband", 2)],
    )
    def test_one_block_seeds_one_generator_per_run_and_per_start(
        self, tmp_path, monkeypatch, scenario, n_subcarriers
    ):
        # one channel generator per run and one start generator per
        # instance: the designer calls at both n_rf and on both sides share
        # the instances' draws
        spec = small_spec(
            scenario=scenario,
            n_subcarriers=n_subcarriers,
            n_rf=[2, 4],
            n_tx_side=4,
            n_rx_side=4,
            runs=3,
            multistart=2,
            admm=AdmmConfig(rho=0.1, max_iters=5, tau=0.0, seed=20),
        )
        assert harness._blocks(spec, 1) == ([0], [3])
        real = np.random.default_rng
        seeds = []

        def counted(seed):
            seeds.append(seed)
            return real(seed)

        monkeypatch.setattr(np.random, "default_rng", counted)
        run_sweep(spec, tmp_path / "sweep.csv")
        assert len(seeds) == spec.runs + spec.runs * spec.multistart
        assert sorted(seeds) == [*range(20, 26), *range(100, 103)]


class TestFormatRow:
    @pytest.mark.parametrize(
        "value", [float("nan"), float("inf"), -float("inf"), -0.0, 1e-300, 1e300]
    )
    def test_line_equals_csv_writer_line(self, value):
        row = (
            "wideband", value, 4, 17, 1017, "hybrid_wideband", value, value, 250, value
        )
        fields = [
            "wideband",
            f"{value:.12e}",
            4,
            17,
            1017,
            "hybrid_wideband",
            f"{value:.12e}",
            f"{value:.12e}",
            250,
            f"{value:.3f}",
        ]
        buf = io.StringIO()
        csv.writer(buf, lineterminator="\n").writerow(fields)
        assert harness._ROW_FORMAT % row == buf.getvalue()

    def test_header_equals_csv_writer_header(self, tmp_path):
        out = tmp_path / "sweep.csv"
        run_sweep(small_spec(runs=1), out)
        buf = io.StringIO()
        csv.writer(buf, lineterminator="\n").writerow(harness._CSV_FIELDS)
        assert out.read_text().splitlines(keepends=True)[0] == buf.getvalue()


class TestLoadConfig:
    def test_roundtrip_through_file(self, tmp_path):
        spec = small_spec()
        path = tmp_path / "cfg.json"
        doc = spec.to_dict()
        path.write_text(json.dumps(doc))
        assert load_config(path) == spec

    def test_bad_json_propagates(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text("{not json")
        with pytest.raises(json.JSONDecodeError):
            load_config(path)
