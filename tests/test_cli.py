"""Tests for the ``heterosvd`` command-line interface."""

import numpy as np
import pytest

from repro.cli import SHARDED_DEFAULTS, build_parser, main


class TestParser:
    def test_requires_subcommand(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_svd_defaults(self):
        args = build_parser().parse_args(["svd"])
        assert args.size == 128
        assert args.p_eng == 8

    def test_dse_objective_choices(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["dse", "--objective", "area"])

    def test_parallel_flag_defaults(self):
        args = build_parser().parse_args(["dse"])
        assert args.jobs is None
        assert args.cache is None

    def test_cache_flag_default_directory(self):
        args = build_parser().parse_args(["dse", "--cache"])
        assert args.cache == ".repro_cache"
        args = build_parser().parse_args(["dse", "--cache", "/tmp/c"])
        assert args.cache == "/tmp/c"

    def test_dse_sharded_flags(self):
        args = build_parser().parse_args(["dse"])
        assert args.shards is None
        assert args.shard_id is None
        # Sharded-only flags default to None; the --shards path applies
        # SHARDED_DEFAULTS (and the space's own axis defaults).
        assert args.lease_ttl is None
        assert args.shard_seed is None
        assert args.steal is None
        assert args.workdir is None
        assert args.orderings is None
        assert args.derates is None
        assert SHARDED_DEFAULTS == {
            "workdir": ".heterosvd_dse", "lease_ttl": 10.0,
            "shard_seed": 0, "steal": True,
        }
        args = build_parser().parse_args(
            ["dse", "--shards", "4", "--shard-id", "2", "--no-steal",
             "--lease-ttl", "2.5", "--orderings", "codesign",
             "--derates", "1.0,0.9"]
        )
        assert (args.shards, args.shard_id) == (4, 2)
        assert args.steal is False
        assert args.lease_ttl == 2.5
        assert args.orderings == ("codesign",)
        assert args.derates == (1.0, 0.9)

    def test_dse_merge_flags(self):
        args = build_parser().parse_args(["dse-merge"])
        assert args.workdir == ".heterosvd_dse"
        assert args.recover is False
        assert args.objective == "latency"
        with pytest.raises(SystemExit):
            build_parser().parse_args(["dse-merge", "--objective", "area"])

    def test_svd_batch_flags(self):
        args = build_parser().parse_args(["svd", "--batch", "4"])
        assert args.batch == 4
        assert args.p_task == 2
        assert args.engine == "accelerator"
        with pytest.raises(SystemExit):
            build_parser().parse_args(["svd", "--engine", "quantum"])

    def test_sensitivity_jobs_flag(self):
        args = build_parser().parse_args(["sensitivity", "--jobs", "2"])
        assert args.jobs == 2

    @pytest.mark.parametrize("argv", [
        ["svd", "--strategy", "scalar"],
        ["serve", "--strategy", "auto"],
    ], ids=["svd", "serve"])
    def test_strategy_flag_is_a_usage_error(self, argv, capsys):
        # One round kernel: there is no option to pick it.
        with pytest.raises(SystemExit) as excinfo:
            main(argv)
        assert excinfo.value.code == 2
        assert "unrecognized arguments: --strategy" in \
            capsys.readouterr().err

    def test_guard_flags(self):
        args = build_parser().parse_args(["svd"])
        assert args.validate is True
        assert args.check_invariants is False
        assert args.deadline is None
        args = build_parser().parse_args(
            ["svd", "--no-validate", "--check-invariants",
             "--deadline", "1.5"]
        )
        assert args.validate is False
        assert args.check_invariants is True
        assert args.deadline == 1.5

    def test_deadline_flag_on_sweep_commands(self):
        assert build_parser().parse_args(
            ["dse", "--deadline", "10"]
        ).deadline == 10.0
        assert build_parser().parse_args(
            ["sensitivity", "--deadline", "10"]
        ).deadline == 10.0


class TestCommands:
    def test_svd_command(self, capsys):
        assert main(["svd", "--size", "16", "--p-eng", "2"]) == 0
        out = capsys.readouterr().out
        assert "singular values" in out
        assert "LAPACK" in out

    @pytest.mark.parametrize("method", ["block", "hestenes", "dnc",
                                        "streaming"])
    def test_svd_software_methods(self, capsys, method):
        assert main(["svd", "--size", "16", "--p-eng", "2",
                     "--method", method]) == 0
        out = capsys.readouterr().out
        assert f"method={method}" in out
        deviation = float(
            out.split("max deviation vs LAPACK, relative to s_max: ")[1]
            .split()[0]
        )
        assert deviation < 1e-6

    @pytest.mark.parametrize("method", ["accelerator", "hestenes"])
    def test_svd_accuracy_lines_are_scale_free(self, tmp_path, capsys,
                                               method):
        # Entries of 1e300: sigma prints in e-notation and the deviation
        # relative to s_max, not as ~300-digit absolute numbers.
        in_path = tmp_path / "huge.npy"
        np.save(in_path, 1e300 * np.random.default_rng(0)
                .standard_normal((16, 16)))
        assert main(["svd", "--input", str(in_path), "--p-eng", "4",
                     "--method", method]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[2] == (
            "leading singular values: 7.5320e+300, 6.7482e+300, "
            "5.5746e+300, 5.0688e+300, 4.9053e+300"
        )
        prefix = "max deviation vs LAPACK, relative to s_max: "
        assert lines[3].startswith(prefix)
        assert float(lines[3][len(prefix):]) < 1e-10

    @pytest.mark.parametrize("method", ["qr", "tsqr"])
    def test_svd_method_rejects_unknown(self, method):
        with pytest.raises(SystemExit) as excinfo:
            build_parser().parse_args(["svd", "--method", method])
        assert excinfo.value.code == 2

    def test_svd_method_saves_factors(self, tmp_path, capsys, rng):
        out_path = tmp_path / "factors.npz"
        assert main(["svd", "--size", "12", "--method", "dnc",
                     "--output", str(out_path)]) == 0
        saved = np.load(out_path)
        assert set(saved.files) == {"u", "sigma", "v"}
        assert saved["u"].shape == (12, 12)

    def test_svd_batch_with_method(self, capsys):
        assert main(["svd", "--size", "16", "--batch", "3",
                     "--p-eng", "2", "--method", "dnc"]) == 0
        out = capsys.readouterr().out
        assert "software engine, dnc method" in out

    def test_svd_batch_software_engine_is_accurate(self, capsys):
        assert main([
            "svd", "--batch", "2", "--size", "16", "--p-eng", "4",
            "--engine", "software", "--jobs", "1",
        ]) == 0
        out = capsys.readouterr().out
        line = next(l for l in out.splitlines() if "max deviation" in l)
        assert float(line.split()[-1]) < 1e-6

    def test_svd_with_file_io(self, tmp_path, capsys, rng):
        matrix = rng.standard_normal((12, 12))
        in_path = tmp_path / "a.npy"
        out_path = tmp_path / "factors.npz"
        np.save(in_path, matrix)
        code = main([
            "svd", "--input", str(in_path), "--output", str(out_path),
            "--p-eng", "4",
        ])
        assert code == 0
        factors = np.load(out_path)
        assert factors["sigma"].shape == (12,)
        s_ref = np.linalg.svd(matrix, compute_uv=False)
        assert np.allclose(np.sort(factors["sigma"])[::-1], s_ref, rtol=1e-5)

    @pytest.mark.parametrize("scale", [1e300, 1e-300])
    def test_svd_extreme_scale_input(self, tmp_path, capsys, rng, scale):
        matrix = scale * rng.standard_normal((16, 16))
        in_path = tmp_path / "a.npy"
        out_path = tmp_path / "factors.npz"
        np.save(in_path, matrix)
        code = main([
            "svd", "--input", str(in_path), "--output", str(out_path),
            "--p-eng", "4",
        ])
        assert code == 0
        sigma = np.load(out_path)["sigma"]
        s_ref = np.linalg.svd(matrix, compute_uv=False)
        assert np.max(np.abs(sigma - s_ref)) <= 1e-9 * s_ref[0]

    def test_svd_complex_input_is_invalid(self, tmp_path, capsys, rng):
        matrix = rng.standard_normal((16, 16)) + 1j * rng.standard_normal(
            (16, 16)
        )
        in_path = tmp_path / "a.npy"
        np.save(in_path, matrix)
        assert main(["svd", "--input", str(in_path), "--p-eng", "4"]) == 4
        assert "complex" in capsys.readouterr().err

    def test_svd_pads_odd_widths(self, tmp_path, capsys, rng):
        matrix = rng.standard_normal((12, 10))
        in_path = tmp_path / "a.npy"
        np.save(in_path, matrix)
        assert main(["svd", "--input", str(in_path), "--p-eng", "4"]) == 0

    def test_dse_command(self, capsys):
        assert main(["dse", "--size", "128", "--top", "3"]) == 0
        out = capsys.readouterr().out
        assert "P_eng" in out
        assert "rank" in out

    def test_svd_batch_command(self, capsys):
        assert main([
            "svd", "--size", "24", "--p-eng", "4", "--batch", "3",
            "--p-task", "2", "--jobs", "1", "--precision", "1e-4",
        ]) == 0
        out = capsys.readouterr().out
        assert "3 24x24 SVDs on 2 pipelines" in out
        assert "pipeline 0" in out
        assert "LAPACK" in out

    def test_svd_batch_rejects_input_file(self, tmp_path, capsys, rng):
        in_path = tmp_path / "a.npy"
        np.save(in_path, rng.standard_normal((8, 8)))
        code = main([
            "svd", "--input", str(in_path), "--batch", "2", "--p-eng", "4",
        ])
        assert code == 2
        assert "mutually exclusive" in capsys.readouterr().err

    def test_dse_with_jobs_and_cache(self, tmp_path, capsys):
        cache_dir = str(tmp_path / "repro_cache")
        argv = [
            "dse", "--size", "64", "--jobs", "2", "--cache", cache_dir,
            "--top", "2",
        ]
        assert main(argv) == 0
        cold = capsys.readouterr().out
        assert "cache: " in cold
        assert main(argv) == 0  # warm re-run: served from disk
        warm = capsys.readouterr().out
        assert "0 misses" in warm
        assert cold.splitlines()[:7] == warm.splitlines()[:7]

    def test_dse_with_power_cap(self, capsys):
        assert main([
            "dse", "--size", "128", "--objective", "throughput",
            "--batch", "10", "--power-cap", "39", "--top", "2",
        ]) == 0

    def test_dse_sharded_worker_and_merge(self, tmp_path, capsys):
        workdir = str(tmp_path / "sweep")
        worker = [
            "dse", "--size", "32", "--shards", "1", "--shard-id", "0",
            "--workdir", workdir, "--orderings", "codesign",
            "--derates", "1.0",
        ]
        assert main(worker) == 0
        out = capsys.readouterr().out
        assert "shard 0/1" in out
        assert main(["dse-merge", "--workdir", workdir, "--top", "3"]) == 0
        merged = capsys.readouterr()
        assert "ordering" in merged.out  # widened-frontier table
        assert "merge:" in merged.err

    def test_dse_merge_incomplete_then_recovered(self, tmp_path, capsys):
        workdir = str(tmp_path / "sweep")
        # Only one of two shards ever runs; no stealing.
        assert main([
            "dse", "--size", "32", "--shards", "2", "--shard-id", "0",
            "--workdir", workdir, "--orderings", "codesign",
            "--derates", "1.0", "--no-steal",
        ]) == 0
        capsys.readouterr()
        assert main(["dse-merge", "--workdir", workdir]) == 1
        assert "merge incomplete" in capsys.readouterr().err
        assert main(["dse-merge", "--workdir", workdir, "--recover"]) == 0
        capsys.readouterr()
        # The recovery ledger persisted; a plain merge now succeeds.
        assert main(["dse-merge", "--workdir", workdir]) == 0

    @pytest.mark.parametrize("flags", [
        ["--orderings", "spiral"],
        ["--derates", "1.5"],
        ["--orderings", "codesign", "--derates", "1.0"],
        ["--shard-id", "0"],
        ["--workdir", "sweep"],
        ["--lease-ttl", "3"],
        ["--shard-seed", "5"],
        ["--steal"],
        ["--no-steal"],
        ["--lease-ttl", "3", "--shard-seed", "5", "--no-steal"],
    ])
    def test_dse_shard_flags_need_shards(self, flags, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["dse", "--size", "32", *flags])
        assert excinfo.value.code == 2
        err = capsys.readouterr().err
        assert "--shards" in err
        assert flags[0] in err

    def test_dse_bad_derate_fails_before_the_sweep_starts(
        self, tmp_path, capsys
    ):
        workdir = tmp_path / "sweep"
        assert main([
            "dse", "--size", "32", "--shards", "2", "--derates", "1.5",
            "--workdir", str(workdir),
        ]) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1
        assert err[0].startswith("error: ")
        assert "freq_derate" in err[0]
        assert not (workdir / "plan.json").exists()
        assert not list(tmp_path.rglob("shard-*"))

    @pytest.mark.parametrize("flag,value", [
        ("--derates", "abc"),
        ("--derates", "1.0,x"),
    ])
    def test_dse_non_numeric_axis_is_a_usage_error(
        self, tmp_path, capsys, flag, value
    ):
        workdir = tmp_path / "sweep"
        with pytest.raises(SystemExit) as excinfo:
            main([
                "dse", "--size", "32", "--shards", "2", flag, value,
                "--workdir", str(workdir),
            ])
        assert excinfo.value.code == 2
        err = capsys.readouterr().err
        assert flag in err
        assert "Traceback" not in err
        assert not workdir.exists()

    def test_configuration_error_is_a_usage_error(self, capsys):
        # P_eng outside Table I's range is rejected by the config.
        assert main(["model", "--size", "64", "--p-eng", "100"]) == 2
        err = capsys.readouterr().err.splitlines()
        assert err == ["error: P_eng=100 outside Table I range [1, 11]"]

    @pytest.mark.parametrize("command", [
        ["svd", "--size", "64"],
        ["model", "--size", "64"],
        ["sensitivity", "--size", "64"],
        ["placement"],
    ])
    @pytest.mark.parametrize("p_eng", ["0", "-3"])
    def test_non_positive_p_eng_is_a_usage_error(self, capsys, command,
                                                 p_eng):
        assert main([*command, "--p-eng", p_eng]) == 2
        err = capsys.readouterr().err.splitlines()
        assert err == [f"error: P_eng={p_eng} outside Table I range [1, 11]"]

    def test_model_command(self, capsys):
        assert main(["model", "--size", "128", "--p-eng", "4"]) == 0
        out = capsys.readouterr().out
        assert "t_iter" in out
        assert "simulated" in out

    def test_placement_command(self, capsys):
        assert main(["placement", "--p-eng", "8", "--p-task", "2"]) == 0
        out = capsys.readouterr().out
        assert "row 7" in out
        assert "O" in out


class TestAnalysisCommands:
    def test_sensitivity_command(self, capsys):
        assert main(["sensitivity", "--size", "128", "--p-eng", "4"]) == 0
        out = capsys.readouterr().out
        assert "plio_column_gap" in out

    def test_sensitivity_parallel_matches_serial(self, capsys):
        assert main(["sensitivity", "--size", "64", "--p-eng", "4"]) == 0
        serial = capsys.readouterr().out
        assert main([
            "sensitivity", "--size", "64", "--p-eng", "4", "--jobs", "2",
        ]) == 0
        assert capsys.readouterr().out == serial

    def test_validate_command(self, capsys):
        assert main(["validate"]) == 0
        out = capsys.readouterr().out
        assert "PASS" in out

    def test_report_command(self, tmp_path, capsys):
        out_path = tmp_path / "report.html"
        assert main(["report", "--output", str(out_path)]) == 0
        content = out_path.read_text()
        assert "Table IV" in content
        assert "Fig. 3" in content
        assert content.startswith("<!DOCTYPE html>")


class TestGuardIntegration:
    def test_nan_input_exits_4(self, tmp_path, capsys):
        a = np.eye(8)
        a[0, 3] = np.nan
        path = tmp_path / "bad.npy"
        np.save(path, a)
        assert main(["svd", "--input", str(path)]) == 4
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "invalid input" in captured.err
        assert "non-finite" in captured.err

    def test_expired_deadline_exits_5_with_partial_progress(self, capsys):
        code = main(["dse", "--size", "64", "--deadline", "0.001"])
        assert code == 5
        err = capsys.readouterr().err
        assert "deadline" in err
        assert "partial progress" in err

    def test_expired_dse_hints_at_checkpoint_resume(self, tmp_path, capsys):
        ck = tmp_path / "dse.ckpt.json"
        code = main([
            "dse", "--size", "64", "--deadline", "0.001",
            "--checkpoint", str(ck),
        ])
        assert code == 5
        assert "--resume" in capsys.readouterr().err
        assert main([
            "dse", "--size", "64", "--top", "3",
            "--checkpoint", str(ck), "--resume",
        ]) == 0

    def test_check_invariants_prints_ok_line(self, capsys):
        assert main([
            "svd", "--size", "16", "--p-eng", "2", "--check-invariants",
        ]) == 0
        assert "invariants: ok" in capsys.readouterr().out

    def test_guard_flags_leave_default_stdout_untouched(self, capsys):
        assert main(["svd", "--size", "16", "--p-eng", "2"]) == 0
        baseline = capsys.readouterr().out
        assert main([
            "svd", "--size", "16", "--p-eng", "2",
            "--deadline", "300", "--validate",
        ]) == 0
        assert capsys.readouterr().out == baseline
