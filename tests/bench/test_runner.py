"""Tests for the benchmark runner: timing, reports, comparisons."""

import json

import pytest

from repro.bench import (
    BenchCase,
    BenchReport,
    CaseResult,
    build_suite,
    compare_reports,
    load_report,
    machine_stamp,
    report_path,
    run_case,
    run_suite,
    suite_names,
    write_report,
)
from repro.errors import BenchmarkError


def tiny_case(name="noop", metrics=None):
    return BenchCase(name, lambda seed: dict(metrics or {"seed": seed}))


def make_report(times, suite="solver", hostname=None,
                model_version="1"):
    """A report with one case per (name, wall_time) entry."""
    machine = machine_stamp()
    if hostname is not None:
        machine["hostname"] = hostname
    return BenchReport(
        suite=suite,
        seed=0,
        results=[
            CaseResult(name=name, wall_times_s=[t])
            for name, t in times.items()
        ],
        machine=machine,
        created_unix=1754000000.0,
        model_version=model_version,
    )


class TestRunSuite:
    def test_runs_cases_and_stamps(self):
        report = run_suite("demo", [tiny_case("a"), tiny_case("b")],
                           seed=7, repeats=2)
        assert report.suite == "demo"
        assert report.seed == 7
        assert [r.name for r in report.results] == ["a", "b"]
        assert all(r.repeats == 2 for r in report.results)
        assert report.results[0].metrics["seed"] == 7
        assert report.machine["cpu_count"] >= 1

    def test_wall_time_is_minimum(self):
        result = run_case(tiny_case(), seed=0, repeats=3)
        assert result.wall_time_s == min(result.wall_times_s)

    def test_empty_suite_raises(self):
        with pytest.raises(BenchmarkError, match="no cases"):
            run_suite("empty", [])

    def test_zero_repeats_raises(self):
        with pytest.raises(BenchmarkError, match="repeats"):
            run_case(tiny_case(), seed=0, repeats=0)

    def test_progress_callback(self):
        seen = []
        run_suite("demo", [tiny_case("a")],
                  progress=lambda name, result: seen.append(name))
        assert seen == ["a"]

    def test_obs_disabled_after_run(self):
        from repro import obs

        run_suite("demo", [tiny_case()])
        assert not obs.is_enabled()


class TestReportIO:
    def test_write_load_round_trip(self, tmp_path):
        report = run_suite("demo", [tiny_case("a")])
        path = write_report(report, report_path(str(tmp_path), "demo"))
        assert path.endswith("BENCH_demo.json")
        loaded = load_report(path)
        assert loaded.suite == "demo"
        assert loaded.case("a").wall_times_s == \
            report.case("a").wall_times_s
        assert loaded.to_dict() == report.to_dict()

    def test_load_missing_file_raises(self, tmp_path):
        with pytest.raises(BenchmarkError, match="cannot read"):
            load_report(str(tmp_path / "BENCH_none.json"))

    def test_load_invalid_json_raises(self, tmp_path):
        path = tmp_path / "BENCH_bad.json"
        path.write_text("{not json")
        with pytest.raises(BenchmarkError, match="not valid JSON"):
            load_report(str(path))

    def test_load_schema_violation_raises(self, tmp_path):
        report = run_suite("demo", [tiny_case("a")])
        doc = report.to_dict()
        del doc["machine"]
        path = tmp_path / "BENCH_demo.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(BenchmarkError, match="machine"):
            load_report(str(path))


class TestCompareReports:
    def test_steady_within_threshold(self):
        baseline = make_report({"a": 1.0})
        current = make_report({"a": 1.1})
        outcome = compare_reports(baseline, current, threshold=0.25)
        assert not outcome.breached
        assert [c.name for c in outcome.steady] == ["a"]

    def test_threshold_breach(self):
        baseline = make_report({"a": 1.0, "b": 1.0})
        current = make_report({"a": 1.5, "b": 1.0})
        outcome = compare_reports(baseline, current, threshold=0.25)
        assert outcome.breached
        assert [c.name for c in outcome.regressions] == ["a"]
        assert outcome.regressions[0].ratio == pytest.approx(1.5)
        assert "REGRESSION a" in outcome.describe()

    def test_improvement_detected(self):
        baseline = make_report({"a": 1.0})
        current = make_report({"a": 0.4})
        outcome = compare_reports(baseline, current, threshold=0.25)
        assert [c.name for c in outcome.improvements] == ["a"]
        assert not outcome.breached

    def test_new_and_missing_cases_never_breach(self):
        baseline = make_report({"old": 1.0})
        current = make_report({"new": 1.0})
        outcome = compare_reports(baseline, current)
        assert outcome.new_cases == ["new"]
        assert outcome.missing_cases == ["old"]
        assert not outcome.breached
        assert "no baseline" in outcome.describe()

    def test_different_machine_is_advisory(self):
        baseline = make_report({"a": 1.0}, hostname="other-host")
        current = make_report({"a": 10.0})
        outcome = compare_reports(baseline, current, threshold=0.25)
        assert not outcome.comparable
        assert outcome.regressions  # still computed ...
        assert not outcome.breached  # ... but never a verdict
        assert "advisory" in outcome.describe()

    def test_different_model_version_is_advisory(self):
        baseline = make_report({"a": 1.0}, model_version="0")
        current = make_report({"a": 10.0})
        assert not compare_reports(baseline, current).breached

    def test_suite_mismatch_raises(self):
        with pytest.raises(BenchmarkError, match="compare"):
            compare_reports(make_report({"a": 1.0}, suite="solver"),
                            make_report({"a": 1.0}, suite="dse"))

    def test_non_positive_threshold_raises(self):
        report = make_report({"a": 1.0})
        with pytest.raises(BenchmarkError, match="threshold"):
            compare_reports(report, report, threshold=0.0)

    def test_zero_baseline_time(self):
        baseline = make_report({"a": 0.0})
        current = make_report({"a": 0.5})
        outcome = compare_reports(baseline, current)
        assert outcome.regressions[0].ratio == float("inf")


class TestSuiteRegistry:
    def test_registered_names(self):
        assert suite_names() == ["batch", "chaos", "dse", "dse_sharded",
                                  "scheduler", "serve", "workloads"]

    def test_unknown_suite_raises(self):
        with pytest.raises(BenchmarkError, match="unknown suite"):
            build_suite("quantum")

    def test_too_small_size_raises(self):
        with pytest.raises(BenchmarkError, match="size"):
            build_suite("scheduler", 4)

    def test_scheduler_suite_runs_smoke(self):
        report = run_suite("scheduler",
                           build_suite("scheduler", 16), seed=1)
        lpt = report.case("schedule_lpt_16")
        assert lpt.metrics["tasks"] == 16
        assert lpt.metrics["obs.schedule.cost_evaluations"] >= 1

    def test_workloads_suite_case_names(self):
        names = [case.name for case in build_suite("workloads", 16)]
        assert names == ["streaming_fold_16", "block_tall_16", "dnc_16",
                         "block_square_16"]

    def test_workloads_suite_runs_smoke(self):
        report = run_suite("workloads",
                           build_suite("workloads", 16), seed=1)
        # The dense-core legs obey the solver accuracy contract; the
        # streaming leg tracks a truncated rank so its deviation is
        # truncation-dominated but must stay bounded by the tracker's
        # own error estimate (relative to the leading singular value).
        for name in ("block_tall_16", "dnc_16", "block_square_16"):
            assert report.case(name).metrics["sigma_rel_err"] < 1e-8
        streaming = report.case("streaming_fold_16").metrics
        assert streaming["updates"] >= 2
        assert streaming["sigma_rel_err"] < 1.0
        assert streaming["error_bound"] >= 0.0

