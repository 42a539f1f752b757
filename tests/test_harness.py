import csv
import io
import json
import multiprocessing

import numpy as np
import pytest

from hybridsim import harness
from hybridsim.admm import AdmmConfig
from hybridsim.harness import SweepSpec, load_config, run_sweep


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
    records = run_sweep(spec, tmp_path / "sweep.csv")
    return [r for r in records if r.run_index == run_index]


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
        ],
    )
    def test_nonfinite_and_nonint_values_rejected(self, overrides):
        with pytest.raises(ValueError):
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

    def test_metadata_contents(self, tmp_path):
        out = tmp_path / "sweep.csv"
        records = run_sweep(spec := small_spec(), out)
        with open(str(out) + ".meta.json") as fh:
            meta = json.load(fh)
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
        single = run_sweep(small_spec(runs=1), tmp_path / "m1.csv")
        double = run_sweep(
            small_spec(runs=1, multistart=2), tmp_path / "m2.csv"
        )
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

        def flaky(spec, factors, n_rf, first_run):
            if block_offset(first_run, factors, 1) is not None:
                raise np.linalg.LinAlgError("synthetic failure")
            return real(spec, factors, n_rf, first_run)

        monkeypatch.setattr(harness, "_design_block", flaky)
        out = tmp_path / "sweep.csv"
        records = run_sweep(small_spec(), out)
        bad = [r for r in records if np.isnan(r.spectral_efficiency)]
        assert len(bad) == 2  # hybrid rows of run 1, both snrs
        assert all(r.method == "hybrid_full" and r.run_index == 1 for r in bad)
        with open(str(out) + ".meta.json") as fh:
            meta = json.load(fh)
        assert meta["error_rows"] == 2
        for agg in meta["aggregates"]:
            assert agg["n"] == (2 if agg["method"] == "hybrid_full" else 3)
        # nan rows appear in the CSV body, flagged not dropped
        body = read_rows(out)[1:]
        assert len(body) == 12
        assert sum("nan" in r[6] for r in body) == 2

    @pytest.mark.parametrize("workers", [1, 2])
    def test_unrateable_design_yields_nan_rows(self, tmp_path, monkeypatch, workers):
        # a rank-deficient hybrid combiner makes spectral_efficiency raise;
        # the run's hybrid rows turn NaN and the other runs complete
        if workers > 1 and multiprocessing.get_start_method() != "fork":
            pytest.skip("worker processes only see the patch when forked")
        real = harness._design_block

        def rank_deficient_combiner(spec, factors, n_rf, first_run):
            pairs = real(spec, factors, n_rf, first_run)
            offset = block_offset(first_run, factors, 1)
            if offset is not None:
                comb = pairs[offset][1]
                comb.f_bb[..., 1] = comb.f_bb[..., 0]
            return pairs

        monkeypatch.setattr(harness, "_design_block", rank_deficient_combiner)
        out = tmp_path / "sweep.csv"
        records = run_sweep(small_spec(), out, workers=workers)
        bad = [r for r in records if np.isnan(r.spectral_efficiency)]
        assert len(bad) == 2
        assert all(r.method == "hybrid_full" and r.run_index == 1 for r in bad)
        assert all(np.isnan(r.final_objective) for r in bad)
        with open(str(out) + ".meta.json") as fh:
            assert json.load(fh)["error_rows"] == 2
        assert read_rows(out)[0] == harness._CSV_FIELDS

    def test_two_unrateable_runs_of_one_block(self, tmp_path, monkeypatch):
        # the block's stacked hybrid rate call fails; rated again run by
        # run, only runs 0 and 2 lose their hybrid rows
        real = harness._design_block

        def two_rank_deficient(spec, factors, n_rf, first_run):
            pairs = real(spec, factors, n_rf, first_run)
            for run_index in (0, 2):
                offset = block_offset(first_run, factors, run_index)
                if offset is not None:
                    comb = pairs[offset][1]
                    comb.f_bb[..., 1] = comb.f_bb[..., 0]
            return pairs

        spec = small_spec(runs=4)
        clean = run_sweep(spec, tmp_path / "clean.csv")
        monkeypatch.setattr(harness, "_design_block", two_rank_deficient)
        records = run_sweep(spec, tmp_path / "sweep.csv")
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

        def two_failure_kinds(spec, factors, n_rf, first_run):
            if block_offset(first_run, factors, 1) is not None:
                raise np.linalg.LinAlgError("synthetic failure")
            pairs = real(spec, factors, n_rf, first_run)
            offset = block_offset(first_run, factors, 2)
            if offset is not None:
                comb = pairs[offset][1]
                comb.f_bb[..., 1] = comb.f_bb[..., 0]
            return pairs

        spec = small_spec(runs=4)
        clean = run_sweep(spec, tmp_path / "clean.csv")
        monkeypatch.setattr(harness, "_design_block", two_failure_kinds)
        records = run_sweep(spec, tmp_path / "sweep.csv", workers=workers)
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

        def corrupted(spec, factors, n_rf, first_run):
            pairs = real(spec, factors, n_rf, first_run)
            offset = block_offset(first_run, factors, 2)
            if offset is not None:
                pairs[offset][0].f_bb[..., 0, 0] = np.nan
            return pairs

        monkeypatch.setattr(harness, "_design_block", corrupted)
        records = run_sweep(small_spec(), tmp_path / "sweep.csv")
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

        def poisoned(targets, n_rf, cfg, normalize_power):
            targets = np.array(targets)
            for i in range(len(targets)):
                # instance seed = admm.seed + run * multistart + start
                if (cfg.seed + i) // spec.multistart == 1:
                    targets[i, 0, 0] = np.nan
            batch_sizes.append(len(targets))
            return real(targets, n_rf, cfg, normalize_power)

        monkeypatch.setattr(harness, "design_wideband", poisoned)
        hit = tmp_path / "hit.csv"
        records = run_sweep(spec, hit)
        assert batch_sizes[0] == spec.runs * spec.multistart
        bad = [r for r in records if np.isnan(r.spectral_efficiency)]
        assert {(r.method, r.run_index) for r in bad} == {("hybrid_full", 1)}
        clean_rows = strip_wall_time(read_rows(clean))
        hit_rows = strip_wall_time(read_rows(hit))
        assert len(hit_rows) == len(clean_rows)
        for want, got in zip(clean_rows, hit_rows):
            if got[3] == "1" and got[5] == "hybrid_full":
                assert got[6] == "nan"
            else:
                assert got == want

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


class TestResultRecord:
    def test_keyword_built_immutable_and_replaceable(self):
        values = dict(
            scenario="wideband",
            snr_db=0.0,
            n_rf=4,
            run_index=3,
            seed=103,
            method="hybrid_wideband",
            spectral_efficiency=1.5,
            final_objective=0.25,
            iterations_used=30,
            wall_time_ms=2.0,
        )
        rec = harness.ResultRecord(**values)
        assert rec == harness.ResultRecord(*values.values())
        assert list(rec._fields) == harness._CSV_FIELDS == list(values)
        assert rec._asdict() == values
        with pytest.raises(AttributeError):
            rec.n_rf = 2
        assert rec._replace(n_rf=2) == harness.ResultRecord(**{**values, "n_rf": 2})
        assert rec.n_rf == 4


class TestFormatRow:
    @pytest.mark.parametrize(
        "value", [float("nan"), float("inf"), -float("inf"), -0.0, 1e-300, 1e300]
    )
    def test_line_equals_csv_writer_line(self, value):
        rec = harness.ResultRecord(
            "wideband", value, 4, 17, 1017, "hybrid_wideband",
            value, value, 250, value,
        )
        fields = [
            rec.scenario,
            f"{rec.snr_db:.12e}",
            rec.n_rf,
            rec.run_index,
            rec.seed,
            rec.method,
            f"{rec.spectral_efficiency:.12e}",
            f"{rec.final_objective:.12e}",
            rec.iterations_used,
            f"{rec.wall_time_ms:.3f}",
        ]
        buf = io.StringIO()
        csv.writer(buf, lineterminator="\n").writerow(fields)
        assert harness._format_row(rec) == buf.getvalue()

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
