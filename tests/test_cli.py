"""Tests for the command line interface."""

import os

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_requires_subcommand(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_map_defaults(self):
        args = build_parser().parse_args(["map", "--kernel", "srand"])
        assert args.rows == 4 and args.cols == 4
        assert args.kernel == "srand"

    def test_sweep_arguments(self):
        args = build_parser().parse_args(
            ["sweep", "--kernels", "srand", "nw", "--sizes", "2", "3", "--timeout", "10"]
        )
        assert args.kernels == ["srand", "nw"]
        assert args.sizes == [2, 3]
        assert args.jobs == 1
        assert args.backend == "cdcl"
        assert args.seed is None
        assert args.amo_encoding == "auto"

    def test_solver_flags_plumbed(self):
        args = build_parser().parse_args(
            ["map", "--kernel", "srand", "--backend", "dpll", "--seed", "7",
             "--amo-encoding", "pairwise"]
        )
        assert args.backend == "dpll"
        assert args.seed == 7
        assert args.amo_encoding == "pairwise"
        args = build_parser().parse_args(
            ["sweep", "--jobs", "4", "--backend", "cdcl", "--seed", "3",
             "--amo-encoding", "commander"]
        )
        assert args.jobs == 4
        assert args.seed == 3
        assert args.amo_encoding == "commander"

    def test_unknown_backend_rejected(self, capsys):
        # Backend names are validated in the command (the registry is open
        # to engines registered at run time), not by argparse choices.
        exit_code = main(["map", "--kernel", "srand", "--backend", "z3"])
        captured = capsys.readouterr()
        assert exit_code == 2
        assert captured.err.startswith("error:")
        assert "z3" in captured.err

    def test_missing_solver_binary_is_one_line_error(self, capsys, monkeypatch):
        from repro.sat import backend as backend_module

        def unavailable(**_kwargs):
            raise backend_module.BackendUnavailableError(
                "fakesat", "apt-get install fakesat"
            )

        monkeypatch.setitem(backend_module._REGISTRY, "fakesat", unavailable)
        exit_code = main(["map", "--kernel", "srand", "--backend", "fakesat"])
        captured = capsys.readouterr()
        assert exit_code == 2
        assert captured.err.count("\n") == 1  # a single line, not a traceback
        assert "fakesat" in captured.err and "apt-get" in captured.err

    def test_proof_flags_parsed(self):
        args = build_parser().parse_args(["map", "--kernel", "srand", "--proof"])
        assert args.proof is True
        defaults = build_parser().parse_args(["map", "--kernel", "srand"])
        assert defaults.proof is False
        sweep = build_parser().parse_args(["sweep", "--proof"])
        assert sweep.proof is True

    @pytest.mark.parametrize("argv", [
        [command, *flag]
        for command in ("map", "sweep")
        for flag in (["--dimacs-dir", "d"], ["--reuse-dimacs"], ["--tuner", "t"])
    ] + [["serve", "--tuner", "t"]])
    def test_removed_flags_rejected(self, argv):
        with pytest.raises(SystemExit):
            build_parser().parse_args(argv)

    @pytest.mark.parametrize("command", ["map", "sweep"])
    def test_proof_with_non_cdcl_backend_is_one_line_error(
        self, command, capsys
    ):
        argv = [command, "--backend", "dpll", "--proof"]
        argv += ["--kernel", "srand"] if command == "map" else ["--kernels", "srand"]
        exit_code = main(argv)
        captured = capsys.readouterr()
        assert exit_code == 2
        assert captured.err.startswith("error:")
        assert captured.err.count("\n") == 1
        assert "'dpll'" in captured.err
        assert "UNSAT attempt" not in captured.out

    def test_unknown_kernel_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["map", "--kernel", "unknown"])

    def test_cache_flag_parsed(self):
        for command in (["map", "--kernel", "srand"], ["sweep"]):
            args = build_parser().parse_args([*command, "--cache", "/tmp/cache"])
            assert args.cache == "/tmp/cache"

    @pytest.mark.parametrize("argv", [
        ["map", "--kernel", "srand", "--search", "ladder"],
        ["map", "--kernel", "srand", "--jobs", "2"],
        ["map", "--kernel", "srand", "--portfolio-variants", "default"],
        ["sweep", "--search", "ladder"],
    ])
    def test_removed_search_flags_rejected(self, argv):
        with pytest.raises(SystemExit):
            build_parser().parse_args(argv)

    def test_seed_flags_parsed(self):
        args = build_parser().parse_args(
            ["map", "--kernel", "srand", "--seed-heuristic",
             "--seed-budget", "0.5", "--cache-max-mb", "16"]
        )
        assert args.seed_heuristic is True
        assert args.seed_budget == 0.5
        assert args.cache_max_mb == 16.0
        defaults = build_parser().parse_args(["map", "--kernel", "srand"])
        assert defaults.seed_heuristic is False
        assert defaults.cache_max_mb is None
        sweep = build_parser().parse_args(
            ["sweep", "--seed-heuristic", "--cache-max-mb", "8"]
        )
        assert sweep.seed_heuristic is True
        assert sweep.cache_max_mb == 8.0



class TestCommands:
    def test_map_command_prints_kernel_report(self, capsys):
        exit_code = main(["map", "--kernel", "srand", "--rows", "2", "--cols", "2",
                          "--timeout", "30"])
        captured = capsys.readouterr()
        assert exit_code == 0
        assert "II=" in captured.out
        assert "cycle" in captured.out

    def test_map_command_with_source_file(self, tmp_path, capsys):
        source = tmp_path / "loop.kernel"
        source.write_text("acc = acc + a[i]\n")
        exit_code = main(["map", "--source", str(source), "--rows", "2", "--cols", "2",
                          "--timeout", "30"])
        assert exit_code == 0
        assert "II=" in capsys.readouterr().out

    def test_map_requires_kernel_or_source(self):
        with pytest.raises(SystemExit):
            main(["map", "--rows", "2", "--cols", "2"])

    def test_show_command(self, capsys):
        exit_code = main(["show", "--kernel", "nw", "--sizes", "2", "--ii", "3"])
        captured = capsys.readouterr()
        assert exit_code == 0
        assert "MII on 2x2" in captured.out
        assert "KMS (II=3" in captured.out

    def test_closed_stdout_exits_without_a_traceback(self, tmp_path, monkeypatch):
        """``repro show ... | head``: the reader is gone, so the command
        exits non-zero quietly and later output goes to devnull."""
        target = tmp_path / "stdout"
        fd = os.open(target, os.O_WRONLY | os.O_CREAT)

        class ClosedPipe:
            def write(self, text):
                raise BrokenPipeError(32, "Broken pipe")

            def flush(self):
                raise BrokenPipeError(32, "Broken pipe")

            def fileno(self):
                return fd

        monkeypatch.setattr("sys.stdout", ClosedPipe())
        try:
            exit_code = main(["show", "--kernel", "nw", "--sizes", "2", "--ii", "3"])
            redirected = os.fstat(fd)
        finally:
            os.close(fd)
        assert exit_code == 1
        devnull = os.stat(os.devnull)
        assert (redirected.st_dev, redirected.st_ino) == (devnull.st_dev, devnull.st_ino)

    def test_sweep_command_tiny(self, capsys, tmp_path):
        report = tmp_path / "report.md"
        exit_code = main([
            "sweep", "--kernels", "srand", "--sizes", "2", "--timeout", "20",
            "--pathseeker-repeats", "1", "--write-report", str(report),
        ])
        captured = capsys.readouterr()
        assert exit_code == 0
        assert "Figure 6" in captured.out
        assert report.exists()

    def test_map_with_cache_round_trip(self, capsys, tmp_path):
        cache = tmp_path / "mapcache"
        exit_code = main([
            "map", "--kernel", "srand", "--rows", "2", "--cols", "2",
            "--timeout", "30", "--cache", str(cache),
        ])
        captured = capsys.readouterr()
        assert exit_code == 0
        assert "cache: miss" in captured.out
        assert "1 write(s)" in captured.out

        exit_code = main([
            "map", "--kernel", "srand", "--rows", "2", "--cols", "2",
            "--timeout", "30", "--cache", str(cache),
        ])
        captured = capsys.readouterr()
        assert exit_code == 0
        assert "cache: hit" in captured.out
        assert "cached" in captured.out

    def test_map_seeds_share_one_cache_entry(self, capsys, tmp_path):
        cache = tmp_path / "mapcache"
        for seed, verdict in (("1", "cache: miss"), ("2", "cache: hit")):
            exit_code = main([
                "map", "--kernel", "srand", "--rows", "2", "--cols", "2",
                "--timeout", "30", "--cache", str(cache), "--seed", seed,
            ])
            captured = capsys.readouterr()
            assert exit_code == 0
            assert verdict in captured.out
        assert len(list(cache.glob("*.json"))) == 1

    def test_map_with_seed_heuristic_reports_seed(self, capsys):
        exit_code = main([
            "map", "--kernel", "gsm", "--rows", "2", "--cols", "2",
            "--timeout", "60", "--seed-heuristic",
        ])
        captured = capsys.readouterr()
        assert exit_code == 0
        assert "seed: " in captured.out

    def test_sweep_with_cache_reuses_results(self, capsys, tmp_path):
        cache = tmp_path / "sweepcache"
        argv = [
            "sweep", "--kernels", "srand", "--sizes", "2", "--timeout", "20",
            "--pathseeker-repeats", "1", "--cache", str(cache),
        ]
        assert main(argv) == 0
        first = capsys.readouterr().out
        assert "mapping cache: 0/1" in first
        assert main(argv) == 0
        second = capsys.readouterr().out
        assert "mapping cache: 1/1" in second
        assert "[cache]" in second

    def test_map_with_dpll_backend_and_seed(self, capsys):
        exit_code = main([
            "map", "--kernel", "srand", "--rows", "2", "--cols", "2",
            "--timeout", "30", "--backend", "dpll", "--seed", "1",
            "--amo-encoding", "pairwise",
        ])
        assert exit_code == 0
        assert "II=" in capsys.readouterr().out

    def test_map_with_proof_reports_digest(self, capsys, tmp_path, monkeypatch):
        # gsm@2x2 walks through UNSAT rungs before mapping, so --proof has
        # something to certify.  The trace goes to the temp dir.
        import tempfile

        monkeypatch.setattr(tempfile, "tempdir", str(tmp_path))
        exit_code = main([
            "map", "--kernel", "gsm", "--rows", "2", "--cols", "2",
            "--timeout", "60", "--proof",
        ])
        captured = capsys.readouterr()
        assert exit_code == 0
        assert "proof: " in captured.out
        assert "UNSAT attempt(s) logged" in captured.out
        assert "digest" in captured.out
        trace = captured.out.split("trace: ", 1)[1].split()[0]
        assert trace.startswith(str(tmp_path))
        assert os.path.getsize(trace) > 0

    def test_sweep_command_parallel_jobs(self, capsys):
        exit_code = main([
            "sweep", "--kernels", "srand", "--sizes", "2", "--timeout", "20",
            "--pathseeker-repeats", "1", "--jobs", "2",
        ])
        captured = capsys.readouterr()
        assert exit_code == 0
        assert "2 parallel jobs" in captured.out
        assert "Figure 6" in captured.out


class TestArchitectureFlags:
    def test_arch_flags_parsed(self):
        args = build_parser().parse_args(
            ["map", "--kernel", "srand", "--arch-preset", "mem_edge_4x4",
             "--save-mapping", "out.json"]
        )
        assert args.arch_preset == "mem_edge_4x4"
        assert args.save_mapping == "out.json"

    def test_arch_preset_and_spec_mutually_exclusive(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(
                ["map", "--kernel", "srand", "--arch-preset", "mem_edge_4x4",
                 "--arch-spec", "arch.json"]
            )

    def test_unknown_preset_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(
                ["map", "--kernel", "srand", "--arch-preset", "nope"]
            )

    def test_sweep_scenarios_parsed(self):
        args = build_parser().parse_args(
            ["sweep", "--scenarios", "homogeneous", "mem_edge"]
        )
        assert args.scenarios == ["homogeneous", "mem_edge"]

    def test_map_with_preset_and_save_mapping(self, capsys, tmp_path):
        out = tmp_path / "mapping.json"
        exit_code = main([
            "map", "--kernel", "srand", "--arch-preset", "mem_edge_4x4",
            "--timeout", "60", "--save-mapping", str(out),
        ])
        captured = capsys.readouterr()
        assert exit_code == 0
        assert "II=" in captured.out
        assert out.exists()

        from repro.core.mapping import Mapping

        mapping = Mapping.from_json(out.read_text())
        assert mapping.is_valid()
        assert not mapping.cgra.is_homogeneous

    def test_map_with_spec_file(self, capsys, tmp_path):
        import json

        spec = {
            "rows": 2, "cols": 2, "registers_per_pe": 4,
            "pe_classes": {"full": {"capabilities": ["alu", "mul", "div", "mem"]}},
            "default_class": "full",
        }
        path = tmp_path / "arch.json"
        path.write_text(json.dumps(spec))
        exit_code = main([
            "map", "--kernel", "srand", "--arch-spec", str(path), "--timeout", "60",
        ])
        assert exit_code == 0
        assert "II=" in capsys.readouterr().out

    def test_map_reports_unmappable_kernel(self, capsys, tmp_path):
        import json

        spec = {
            "rows": 2, "cols": 2,
            "pe_classes": {"alu": {"capabilities": ["alu"]}},
            "default_class": "alu",
        }
        path = tmp_path / "arch.json"
        path.write_text(json.dumps(spec))
        # srand stores to out[i]: no memory-capable PE -> early clear error.
        exit_code = main([
            "map", "--kernel", "srand", "--arch-spec", str(path), "--timeout", "60",
        ])
        captured = capsys.readouterr()
        assert exit_code == 2
        assert "cannot fit" in captured.err

    def test_map_reports_bad_spec_file(self, capsys, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{")
        exit_code = main([
            "map", "--kernel", "srand", "--arch-spec", str(path), "--timeout", "60",
        ])
        captured = capsys.readouterr()
        assert exit_code == 2
        assert "error:" in captured.err


class TestSweepErrorPath:
    def test_mid_sweep_backend_loss_is_one_line_error(self, capsys, monkeypatch):
        """A solver binary vanishing mid-sweep must surface exactly like
        the map path: 'error: ...' on stderr, exit 2, no traceback."""
        import repro.cli as cli_module
        from repro.sat.backend import BackendUnavailableError

        def vanish(config, progress=True, jobs=1, **farm_kwargs):
            raise BackendUnavailableError(
                "kissat", "the solver disappeared mid-sweep"
            )

        monkeypatch.setattr(cli_module, "run_sweep", vanish)
        exit_code = main([
            "sweep", "--kernels", "srand", "--sizes", "2", "--timeout", "5",
        ])
        captured = capsys.readouterr()
        assert exit_code == 2
        assert captured.err.startswith("error:")
        assert captured.err.count("\n") == 1
        assert "kissat" in captured.err

    def test_mid_sweep_mapping_error_is_one_line_error(self, capsys, monkeypatch):
        import repro.cli as cli_module
        from repro.exceptions import MappingError

        def explode(config, progress=True, jobs=1, **farm_kwargs):
            raise MappingError("scenario fabric rejected kernel")

        monkeypatch.setattr(cli_module, "run_sweep", explode)
        exit_code = main([
            "sweep", "--kernels", "srand", "--sizes", "2", "--timeout", "5",
        ])
        captured = capsys.readouterr()
        assert exit_code == 2
        assert captured.err.startswith("error:")
        assert captured.err.count("\n") == 1


    def test_farm_failure_records_are_listed(self, capsys, monkeypatch):
        import repro.cli as cli_module
        from repro.experiments.runner import RunRecord, SweepResult
        from repro.farm.leases import FarmStats

        def crashed_sweep(config, progress=True, jobs=1, **farm_kwargs):
            sweep = SweepResult(config=config, farm=FarmStats(
                items=3, completed=3, worker_crashes=1))
            sweep.records = [
                RunRecord("srand", 2, "SAT-MapIt", "mapped", 3, 0.1, 3, 1, 10),
                RunRecord("srand", 2, "RAMP", "crashed", None, 0.0, 0, 0, 0,
                          failure="worker died unexpectedly (killed by SIGKILL)"),
                RunRecord("srand", 2, "PathSeeker", "mapped", 4, 0.1, 3, 2, 10),
            ]
            return sweep

        monkeypatch.setattr(cli_module, "run_sweep", crashed_sweep)
        exit_code = main([
            "sweep", "--kernels", "srand", "--sizes", "2", "--jobs", "2",
        ])
        out = capsys.readouterr().out
        assert exit_code == 0
        assert "1 worker crash(es)" in out
        assert ("  crashed: srand 2x2 RAMP [homogeneous]: "
                "worker died unexpectedly (killed by SIGKILL)") in out

class TestServeParser:
    def test_serve_defaults(self):
        args = build_parser().parse_args(["serve"])
        assert args.host == "127.0.0.1"
        assert args.port == 8157
        assert args.pool == 2
        assert args.cache == ".service-cache"
        assert args.cache_max_mb is None
        assert args.default_timeout == 60.0
        assert args.max_timeout == 600.0

    def test_serve_flags_plumbed(self):
        args = build_parser().parse_args([
            "serve", "--port", "0", "--pool", "4", "--cache", "/tmp/c",
            "--cache-max-mb", "64",
            "--default-timeout", "30", "--max-timeout", "120",
        ])
        assert args.port == 0
        assert args.pool == 4
        assert args.cache == "/tmp/c"
        assert args.cache_max_mb == 64.0
        assert args.default_timeout == 30.0
        assert args.max_timeout == 120.0
