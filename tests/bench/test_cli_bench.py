"""Tests for the ``heterosvd bench`` subcommand."""

import json

from repro.bench import load_report, report_path
from repro.cli import build_parser, main


class TestParser:
    def test_defaults(self):
        args = build_parser().parse_args(["bench", "--suite", "solver"])
        assert args.suite == "solver"
        assert args.size is None
        assert args.repeat == 1
        assert args.seed == 0
        assert args.out == "."
        assert args.threshold == 0.25
        assert args.baseline is None
        assert not args.no_compare

    def test_flags_parse(self):
        args = build_parser().parse_args([
            "bench", "--suite", "dse", "--size", "32", "--repeat", "2",
            "--seed", "9", "--out", "/tmp/x", "--threshold", "0.5",
            "--baseline", "old.json", "--no-compare",
        ])
        assert (args.size, args.repeat, args.seed) == (32, 2, 9)
        assert args.out == "/tmp/x"
        assert args.threshold == 0.5
        assert args.baseline == "old.json"
        assert args.no_compare


class TestListAndCheck:
    def test_list_suites(self, capsys):
        assert main(["bench", "--list"]) == 0
        out = capsys.readouterr().out
        for name in ("dse", "scheduler", "batch"):
            assert name in out

    def test_check_valid_report(self, tmp_path, capsys):
        assert main(["bench", "--suite", "scheduler", "--size", "16",
                     "--out", str(tmp_path)]) == 0
        capsys.readouterr()
        path = report_path(str(tmp_path), "scheduler")
        assert main(["bench", "--check", path]) == 0
        assert "valid BENCH report" in capsys.readouterr().out

    def test_check_invalid_report(self, tmp_path, capsys):
        path = tmp_path / "BENCH_bad.json"
        path.write_text("{}")
        assert main(["bench", "--check", str(path)]) == 1
        assert "error" in capsys.readouterr().err

    def test_missing_suite_is_usage_error(self, capsys):
        assert main(["bench"]) == 1
        assert "--suite is required" in capsys.readouterr().err

    def test_unknown_suite_fails(self, capsys):
        assert main(["bench", "--suite", "quantum"]) == 1
        assert "unknown suite" in capsys.readouterr().err


class TestRunAndCompare:
    def test_writes_schema_valid_report(self, tmp_path, capsys):
        assert main(["bench", "--suite", "scheduler", "--size", "16",
                     "--out", str(tmp_path), "--seed", "3"]) == 0
        out = capsys.readouterr().out
        assert "no baseline report" in out
        report = load_report(report_path(str(tmp_path), "scheduler"))
        assert report.suite == "scheduler"
        assert report.seed == 3
        assert report.case("schedule_lpt_16") is not None

    def test_second_run_compares_against_first(self, tmp_path, capsys):
        # Huge threshold: sub-millisecond cases are pure timing noise;
        # this test pins that the comparison runs, not its verdict.
        args = ["bench", "--suite", "scheduler", "--size", "16",
                "--out", str(tmp_path), "--threshold", "1000"]
        assert main(args) == 0
        capsys.readouterr()
        assert main(args) == 0
        assert "schedule_lpt_16" in capsys.readouterr().out

    def test_regression_breach_exits_3(self, tmp_path, capsys):
        assert main(["bench", "--suite", "scheduler", "--size", "16",
                     "--out", str(tmp_path)]) == 0
        path = report_path(str(tmp_path), "scheduler")
        with open(path) as handle:
            doc = json.load(handle)
        # Shrink the baseline times so the next run must regress.
        for result in doc["results"]:
            result["wall_times_s"] = [t / 1000.0
                                      for t in result["wall_times_s"]]
            result["wall_time_s"] = min(result["wall_times_s"])
        with open(path, "w") as handle:
            json.dump(doc, handle)
        capsys.readouterr()
        assert main(["bench", "--suite", "scheduler", "--size", "16",
                     "--out", str(tmp_path)]) == 3
        captured = capsys.readouterr()
        assert "REGRESSION" in captured.out
        assert "threshold breached" in captured.err

    def test_no_compare_skips_baseline(self, tmp_path, capsys):
        args = ["bench", "--suite", "scheduler", "--size", "16",
                "--out", str(tmp_path), "--no-compare"]
        assert main(args) == 0
        assert main(args) == 0
        out = capsys.readouterr().out
        assert "REGRESSION" not in out

    def test_explicit_baseline_flag(self, tmp_path, capsys):
        first = tmp_path / "first"
        second = tmp_path / "second"
        first.mkdir()
        second.mkdir()
        assert main(["bench", "--suite", "scheduler", "--size", "16",
                     "--out", str(first)]) == 0
        capsys.readouterr()
        assert main([
            "bench", "--suite", "scheduler", "--size", "16",
            "--out", str(second), "--threshold", "1000",
            "--baseline", report_path(str(first), "scheduler"),
        ]) == 0
        assert "schedule_lpt_16" in capsys.readouterr().out

    def test_corrupt_baseline_fails_cleanly(self, tmp_path, capsys):
        path = report_path(str(tmp_path), "scheduler")
        with open(path, "w") as handle:
            handle.write("{}")
        assert main(["bench", "--suite", "scheduler", "--size", "16",
                     "--out", str(tmp_path)]) == 1
        assert "baseline" in capsys.readouterr().err
