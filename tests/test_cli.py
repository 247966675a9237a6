"""CLI smoke tests: every subcommand runs and reports sanely."""

import pytest

from repro.__main__ import build_parser, main


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_unknown_model_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["study", "--models", "not_a_model"])

    def test_defaults(self):
        args = build_parser().parse_args(["study"])
        assert args.molecule == "water"
        assert args.machine == "commodity"
        assert args.jobs == 1
        assert args.no_cache is False
        assert args.cache_dir is None

    def test_sweep_flags(self):
        args = build_parser().parse_args(
            ["study", "--jobs", "4", "--no-cache", "--progress"]
        )
        assert args.jobs == 4
        assert args.no_cache is True
        assert args.progress is True


class TestCommands:
    def test_info(self, capsys):
        assert main(["info"]) == 0
        out = capsys.readouterr().out
        assert "execution models" in out
        assert "work_stealing" in out

    def test_workload(self, capsys):
        assert main(["workload", "--size", "1", "--block-size", "3"]) == 0
        out = capsys.readouterr().out
        assert "tasks" in out
        assert "gini" in out

    def test_study(self, capsys, tmp_path):
        code = main(
            [
                "study", "--size", "1", "--block-size", "3",
                "--ranks", "4", "--models", "static_block", "work_stealing",
                "--cache-dir", str(tmp_path),
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "makespan_ms" in out
        assert "work_stealing" in out
        assert "cache: 0/2" in out

    def test_study_warm_cache(self, capsys, tmp_path):
        argv = [
            "study", "--size", "1", "--block-size", "3",
            "--ranks", "4", "--models", "static_block",
            "--cache-dir", str(tmp_path), "--progress",
        ]
        assert main(argv) == 0
        cold = capsys.readouterr().out
        assert main(argv) == 0
        warm = capsys.readouterr().out
        assert "cache: 1/1" in warm
        assert "cached" in warm

        def table(text):
            lines = text.splitlines()
            start = lines.index("study results")
            return lines[start:start + 4]

        # Cached rows render identically to freshly computed ones.
        assert table(cold) == table(warm)

    def test_study_no_cache(self, capsys, tmp_path):
        code = main(
            [
                "study", "--size", "1", "--block-size", "3",
                "--ranks", "4", "--models", "static_block",
                "--no-cache", "--jobs", "2",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "makespan_ms" in out
        assert "cache:" not in out

    def test_scf_serial(self, capsys):
        assert main(["scf", "--size", "1", "--block-size", "3"]) == 0
        assert "converged" in capsys.readouterr().out

    def test_scf_parallel(self, capsys):
        code = main(["scf", "--size", "1", "--block-size", "3", "--workers", "2"])
        assert code == 0

    def test_validate(self, capsys):
        code = main(
            ["validate", "--size", "1", "--block-size", "3", "--ranks", "4"]
        )
        assert code == 0
        assert "PASS" in capsys.readouterr().out

    def test_alkane_workload(self, capsys):
        assert main(["workload", "--molecule", "alkane", "--size", "3"]) == 0


class TestFaultToleranceFlags:
    def test_resume_flag_defaults(self):
        args = build_parser().parse_args(["study"])
        assert args.resume is False
        assert args.timeout is None
        assert args.max_attempts is None

    def test_resume_needs_cache(self, capsys):
        code = main(
            ["study", "--size", "1", "--block-size", "3",
             "--ranks", "4", "--models", "static_block",
             "--no-cache", "--resume"]
        )
        assert code == 2
        assert "--resume" in capsys.readouterr().err

    def test_study_resume_reuses_journal(self, capsys, tmp_path):
        argv = [
            "study", "--size", "1", "--block-size", "3",
            "--ranks", "4", "--models", "static_block", "work_stealing",
            "--cache-dir", str(tmp_path), "--progress",
        ]
        assert main(argv) == 0
        capsys.readouterr()
        # The journal lives next to the cache, one file per sweep grid.
        assert list((tmp_path / "journal").glob("sweep-*.jsonl"))
        assert main(argv + ["--resume"]) == 0
        out = capsys.readouterr().out
        assert "resumed" in out
        assert "cache: 2/2" in out

    def test_quarantine_renders_and_exits_nonzero(
        self, capsys, tmp_path, monkeypatch
    ):
        import repro.core.sweep as sweep_mod

        def fail_work_stealing(cell):
            if cell.model == "work_stealing":
                raise RuntimeError("injected CLI failure")
            return sweep_mod.execute_cell(cell)

        monkeypatch.setattr(sweep_mod, "execute_cell", fail_work_stealing)
        code = main(
            ["study", "--size", "1", "--block-size", "3",
             "--ranks", "4", "--models", "static_block", "work_stealing",
             "--cache-dir", str(tmp_path), "--max-attempts", "1"]
        )
        assert code == 1
        captured = capsys.readouterr()
        assert "quarantined cells" in captured.out
        assert "work_stealing@P=4" in captured.out
        assert "static_block" in captured.out  # partial results still shown
        assert "partial" in captured.err

    def test_chaos_parser_defaults(self):
        args = build_parser().parse_args(["chaos", "--quick"])
        assert args.quick is True
        assert args.jobs == 3
        assert args.timeout == 2.0
        assert args.workdir is None


class TestPerfCommands:
    def test_bench_parser_defaults(self):
        args = build_parser().parse_args(["bench"])
        assert args.suites == ["core", "e2e"]
        assert args.repeats == 5
        assert args.max_regression == 0.30
        assert args.baseline_dir is None

    def test_profile_requires_known_study(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["profile", "nope"])

    def test_bench_core_writes_valid_report(self, capsys, tmp_path):
        import json

        from repro.perf import validate_report

        rc = main(
            ["bench", "--suites", "core", "--repeats", "1",
             "--output-dir", str(tmp_path)]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert "engine_events" in out and "BENCH_core.json" in out
        report = json.loads((tmp_path / "BENCH_core.json").read_text())
        validate_report(report)

    def test_bench_writes_only_to_output_dir(self, capsys, tmp_path, monkeypatch):
        cwd = tmp_path / "cwd"
        cwd.mkdir()
        monkeypatch.chdir(cwd)
        rc = main(
            ["bench", "--suites", "core", "--repeats", "1",
             "--output-dir", str(tmp_path / "out")]
        )
        assert rc == 0
        assert list(cwd.iterdir()) == []
        assert (tmp_path / "out" / "BENCH_core.json").exists()

    def test_bench_regression_gate_fires(self, capsys, tmp_path):
        import json

        main(["bench", "--suites", "core", "--repeats", "1",
              "--output-dir", str(tmp_path)])
        capsys.readouterr()
        # Inflate the baseline 10x: the fresh run must look 90% slower.
        base = json.loads((tmp_path / "BENCH_core.json").read_text())
        for entry in base["benchmarks"].values():
            for key in ("events_per_second", "records_per_second"):
                if key in entry:
                    entry[key] *= 10
        (tmp_path / "BENCH_core.json").write_text(json.dumps(base))
        rc = main(
            ["bench", "--suites", "core", "--repeats", "1",
             "--output-dir", str(tmp_path / "fresh"),
             "--baseline-dir", str(tmp_path)]
        )
        assert rc == 1
        assert "REGRESSION" in capsys.readouterr().out

    def test_profile_quick(self, capsys):
        rc = main(["profile", "quick", "--top", "5"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "profiling study 'quick'" in out
        assert "cumulative" in out
