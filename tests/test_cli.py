"""Unit tests for the command line interface."""

import dataclasses
import json

import pytest

from tgss.bench import BenchSpec, solver_config
from tgss.cli import BENCH_KEYS, build_specs, main, parse_config_file
from tgss.solvers import SolverConfig


class TestConfigFile:
    def test_parse_flat_keys(self, tmp_path):
        path = tmp_path / "cfg.txt"
        path.write_text(
            "# comment line\n"
            "solver.tau = 3.0\n"
            "bench.problem = linear-diag   # trailing comment\n"
            "\n"
            "solver.max_iters = 123\n"
        )
        cfg = parse_config_file(str(path))
        assert cfg == {
            "solver.tau": (2, "3.0"),
            "bench.problem": (3, "linear-diag"),
            "solver.max_iters": (5, "123"),
        }

    def test_malformed_line_rejected(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("just some words\n")
        with pytest.raises(ValueError):
            parse_config_file(str(path))

    def test_config_flows_into_spec(self, tmp_path):
        path = tmp_path / "cfg.txt"
        path.write_text(
            "solver.tau = 3.5\n"
            "bench.problem = linear-diag\n"
            "bench.mesh_n = 10\n"
        )
        import argparse

        from tgss.cli import add_common_flags

        parser = argparse.ArgumentParser()
        add_common_flags(parser)
        args = parser.parse_args(["--config", str(path)])
        spec = build_specs(args)
        assert spec.problem == "linear-diag"
        assert spec.mesh_n == 10
        assert spec.config["tau"] == 3.5

    def test_flag_overrides_file(self, tmp_path):
        path = tmp_path / "cfg.txt"
        path.write_text("solver.tau = 3.5\nbench.problem = linear-diag\n")
        import argparse

        from tgss.cli import add_common_flags

        parser = argparse.ArgumentParser()
        add_common_flags(parser)
        args = parser.parse_args(["--config", str(path), "--tau", "4.0"])
        spec = build_specs(args)
        assert spec.config["tau"] == 4.0

    def test_unknown_key_rejected(self, tmp_path):
        path = tmp_path / "cfg.txt"
        path.write_text("solver.bogus = 1\n")
        import argparse

        from tgss.cli import add_common_flags

        parser = argparse.ArgumentParser()
        add_common_flags(parser)
        args = parser.parse_args(["--config", str(path)])
        with pytest.raises(ValueError):
            build_specs(args)


class TestCommands:
    LINEAR = [
        "--problem", "linear-diag", "--mesh-n", "12",
        "--eta", "0.0", "--tau", "2.0", "--c-F", "1.0",
        "--max-iters", "20000",
    ]

    def test_run_writes_csv(self, tmp_path, capsys):
        out = str(tmp_path / "res")
        code = main(["run", *self.LINEAR, "--method", "land",
                     "--method", "tgss-nes", "--out", out])
        assert code == 0
        with open(out + ".csv") as fh:
            lines = fh.read().strip().split("\n")
        assert lines[0].startswith("method,delta,seed")
        assert len(lines) == 3

    def test_run_prints_csv_without_out(self, capsys):
        code = main(["run", *self.LINEAR, "--method", "land"])
        assert code == 0
        captured = capsys.readouterr().out
        assert captured.startswith("method,delta,seed")

    def test_solve_single_run(self, capsys):
        code = main(["solve", *self.LINEAR, "--method", "sesop",
                     "--delta", "1e-3", "--seed", "0"])
        assert code == 0
        out = capsys.readouterr().out
        assert "k_star" in out and "discrepancy" in out

    def test_solve_writes_the_requested_format(self, tmp_path, capsys):
        out = tmp_path / "res"
        code = main(["solve", *self.LINEAR, "--method", "sesop", "--delta", "1e-3",
                     "--seed", "0", "--out", str(out), "--format", "json"])
        assert code == 0
        assert sorted(p.name for p in tmp_path.iterdir()) == ["res.json"]
        [row] = json.loads((tmp_path / "res.json").read_text())
        assert row["method"] == "sesop"

    def test_solve_prints_the_error_of_a_failed_run(self, monkeypatch, capsys):
        from tgss import bench
        from tgss.invpot import AdmissibilityError

        def failing_run(*args, **kwargs):
            raise AdmissibilityError("coefficient min -3.4e+01 below admissibility floor")

        monkeypatch.setattr(bench, "run", failing_run)
        code = main(["solve", *self.LINEAR, "--method", "sesop",
                     "--delta", "1e-3", "--seed", "0"])
        assert code == 1
        out = capsys.readouterr().out
        assert "stopped_by  : error:AdmissibilityError\n" in out
        assert ("error       : AdmissibilityError: coefficient min -3.4e+01 "
                "below admissibility floor\n") in out

    def test_selftest_is_gone(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["selftest"])
        assert exc.value.code == 2
        assert "invalid choice: 'selftest'" in capsys.readouterr().err

    def test_solve_rejects_multiple_methods(self, capsys):
        code = main(["solve", *self.LINEAR, "--method", "land",
                     "--method", "sesop"])
        assert code == 2

    def test_noise_scale_flag(self, capsys):
        code = main(["run", *self.LINEAR, "--method", "land",
                     "--noise-scale", "norm"])
        assert code == 0

    def test_trace_output(self, tmp_path):
        out = str(tmp_path / "res")
        trace = str(tmp_path / "traces")
        code = main(["run", *self.LINEAR, "--method", "sesop",
                     "--out", out, "--trace", trace])
        assert code == 0
        import os

        files = os.listdir(trace)
        assert len(files) == 1 and files[0].startswith("trace_sesop")

    @pytest.mark.parametrize("command,methods", [
        ("run", ["land", "sesop"]),
        ("solve", ["sesop"]),
    ])
    def test_trace_without_out(self, tmp_path, capsys, command, methods):
        # --trace alone writes the traces; run still prints its table.
        import os

        trace = tmp_path / "traces"
        flags = [f for m in methods for f in ("--method", m)]
        code = main([command, *self.LINEAR, *flags, "--delta", "1e-3", "--seed", "0",
                     "--trace", str(trace)])
        assert code == 0
        assert sorted(os.listdir(tmp_path)) == ["traces"]
        files = sorted(os.listdir(trace))
        assert [f.split("_")[1] for f in files] == sorted(methods)
        for name in files:
            header, *rows = (trace / name).read_text().splitlines()
            column = header.split(",").index("re")
            assert rows and all(row.split(",")[column] != "" for row in rows)
        out = capsys.readouterr().out
        if command == "run":
            assert out.startswith("method,delta,seed") and "wrote" not in out

    def test_unknown_method_is_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["run", *self.LINEAR, "--method", "bogus", "--method", "land"])
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "bogus" in captured.err

    def test_bad_noise_scale_is_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["run", *self.LINEAR, "--method", "land", "--noise-scale", "bogus"])
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "unknown noise_scale 'bogus'" in captured.err

    @pytest.mark.parametrize("flag, message", [
        ("--delta=-1e-3", "noise level must be finite and >= 0, got -0.001"),
        ("--delta=nan", "noise level must be finite and >= 0, got nan"),
        ("--delta=inf", "noise level must be finite and >= 0, got inf"),
        ("--seed=-1", "seeds and problem_seed must be >= 0, got -1"),
        ("--problem-seed=-1", "seeds and problem_seed must be >= 0, got -1"),
    ])
    def test_bad_noise_level_or_seed_is_usage_error(self, flag, message, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["run", *self.LINEAR, "--method", "land", flag])
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert message in captured.err

    @pytest.mark.parametrize("flags, message", [
        (["--tau=inf"], "tau must be finite, got inf"),
        (["--tau=nan"], "tau must be finite, got nan"),
        (["--mu=nan"], "mu must be finite, got nan"),
        (["--c-F=nan"], "c_F must be finite, got nan"),
        (["--nesterov-alpha=inf"], "nesterov_alpha must be finite, got inf"),
        (["--eta=0.29671477163201093", "--tau=1.843796399138237"],
         "tau=1.843796399138237 must exceed"),
        (["--i0=-1"], "i0 >= 0"),
        (["--i0=-5"], "i0 >= 0"),
    ])
    def test_bad_solver_value_is_usage_error(self, flags, message, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["run", *self.LINEAR, "--method", "tpg-dbts", *flags])
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert message in captured.err

    def test_bad_config_value_is_usage_error(self, tmp_path, capsys):
        path = tmp_path / "cfg.txt"
        path.write_text("solver.tau = 1.0\n")
        with pytest.raises(SystemExit) as exc:
            main(["solve", "--config", str(path), "--problem", "linear-diag",
                  "--mesh-n", "12", "--method", "land"])
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "tau=1.0 must exceed" in captured.err

    @pytest.mark.parametrize("lines, flags, places, message", [
        (["solver.tau = 1.0"], [], ["1: solver.tau = 1.0"], "tau=1.0 must exceed"),
        # The default tau=2.8 fails only because of the file's eta.
        (["solver.eta = 0.5"], [], ["1: solver.eta = 0.5"],
         "tau=2.8 must exceed (1+eta)/(1-eta)=3"),
        # Both entries shape the message; the comment line is not counted.
        (["# strict", "solver.eta = 0.9", "solver.tau = 5"], [],
         ["2: solver.eta = 0.9", "3: solver.tau = 5"], "tau=5.0 must exceed"),
        # The first rejection is the mesh size's; tau's comes after it.
        (["solver.tau = 1.0", "bench.mesh_n = 0"], [], ["2: bench.mesh_n = 0"],
         "linear-diag needs mesh_n >= 1, got 0"),
        # The flag overrides the file, so the file is not the cause.
        (["solver.tau = 1.0"], ["--tau", "1.0"], [], "tau=1.0 must exceed"),
        ([], ["--tau", "1.0"], [], "tau=1.0 must exceed"),
    ])
    def test_rejected_config_value_names_its_file_entries(
            self, lines, flags, places, message, tmp_path, capsys):
        path = tmp_path / "cfg.txt"
        path.write_text("".join(line + "\n" for line in lines))
        config = ["--config", str(path)] if lines else []
        with pytest.raises(SystemExit) as exc:
            main(["run", "--problem", "linear-diag", "--method", "land", *config, *flags])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert message in err
        if places:
            prefix = ", ".join(f"{path}:{place}" for place in places)
            assert f"{prefix}: {message}" in err
        else:
            assert str(path) not in err

    @pytest.mark.parametrize("kind, reason", [
        ("missing", "No such file or directory"),
        ("directory", "Is a directory"),
        ("binary", "'utf-8' codec can't decode byte 0xff"),
    ])
    def test_unreadable_config_file_is_usage_error(self, kind, reason, tmp_path, capsys):
        path = {"missing": tmp_path / "missing.cfg", "directory": tmp_path,
                "binary": tmp_path / "binary.cfg"}[kind]
        (tmp_path / "binary.cfg").write_bytes(b"solver.tau = 3\xff\n")
        with pytest.raises(SystemExit) as exc:
            main(["run", *self.LINEAR, "--method", "land", "--config", str(path)])
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"cannot read config file {path}: {reason}" in captured.err

    @pytest.mark.parametrize("line, message", [
        ("solver.tau = abc",
         "solver.tau = abc: could not convert string to float: 'abc'"),
        ("bench.mesh_n = 1.5",
         "bench.mesh_n = 1.5: invalid literal for int() with base 10: '1.5'"),
        ("solver.bogus = 1", "unknown config key solver.bogus"),
        ("nosection = 1", "unknown config section 'nosection'"),
    ])
    def test_bad_config_line_names_its_place(self, line, message, tmp_path, capsys):
        path = tmp_path / "cfg.txt"
        path.write_text(f"# comment\nsolver.tau = 3.0\n{line}\n")
        with pytest.raises(SystemExit) as exc:
            main(["run", *self.LINEAR, "--method", "land", "--config", str(path)])
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"{path}:3: {message}" in captured.err


class TestBenchSchema:
    """Every BenchSpec field with a plain default is a bench key with a flag."""

    # key: (flag, type, value in the file, value on the flag)
    KEYS = {
        "problem": ("--problem", str, "linear-diag", "invpot2d"),
        "mesh_n": ("--mesh-n", int, "7", "8"),
        "problem_seed": ("--problem-seed", int, "7", "8"),
        "noise_scale": ("--noise-scale", str, "norm", "component"),
        "out": ("--out", str, "from-file", "from-flag"),
        "trace_dir": ("--trace", str, "from-file", "from-flag"),
    }

    def test_keys_are_the_fields_with_a_plain_default(self):
        assert BENCH_KEYS == {key: typ for key, (_, typ, _, _) in self.KEYS.items()}

    @pytest.mark.parametrize("key", KEYS)
    def test_file_key_and_flag_reach_spec(self, key, tmp_path):
        flag, typ, in_file, on_flag = self.KEYS[key]
        path = tmp_path / "cfg.txt"
        path.write_text(f"bench.{key} = {in_file}\n")

        spec = build_specs(_parser().parse_args(["--config", str(path)]))
        assert getattr(spec, key) == typ(in_file)
        assert type(getattr(spec, key)) is typ

        spec = build_specs(_parser().parse_args([flag, on_flag]))
        assert getattr(spec, key) == typ(on_flag)
        assert type(getattr(spec, key)) is typ

        args = _parser().parse_args(["--config", str(path), flag, on_flag])
        assert getattr(build_specs(args), key) == typ(on_flag)


class TestProblemDefaults:
    """A spec that leaves mesh_n and max_iters unset gets the problem's defaults,
    the same from BenchSpec and from the command line."""

    EXPECTED = {
        "invpot1d": (256, 50000),
        "invpot2d": (64, 20000),
        "linear-diag": (64, 50000),
    }

    @pytest.mark.parametrize("problem", EXPECTED)
    def test_library_and_command_line_agree(self, problem):
        library = BenchSpec(problem=problem)
        command_line = build_specs(_parser().parse_args(["--problem", problem]))
        for spec in (library, command_line):
            assert (spec.mesh_n, solver_config(spec).max_iters) == self.EXPECTED[problem]

    @pytest.mark.parametrize("problem, mesh_n", [("invpot1d", 1), ("invpot2d", 1),
                                                 ("linear-diag", 0)])
    def test_too_small_mesh_is_usage_error(self, problem, mesh_n, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["run", "--problem", problem, "--mesh-n", str(mesh_n), "--method", "land"])
        assert exc.value.code == 2
        assert "needs mesh_n >= " in capsys.readouterr().err

    def test_explicit_values_win(self):
        spec = BenchSpec(problem="invpot2d", mesh_n=8, config={"max_iters": 5})
        assert (spec.mesh_n, solver_config(spec).max_iters) == (8, 5)
        args = _parser().parse_args(["--problem", "invpot2d", "--mesh-n", "8",
                                     "--max-iters", "5"])
        spec = build_specs(args)
        assert (spec.mesh_n, solver_config(spec).max_iters) == (8, 5)


def _parser():
    import argparse

    from tgss.cli import add_common_flags

    parser = argparse.ArgumentParser()
    add_common_flags(parser)
    return parser


class TestSolverSchema:
    """Every SolverConfig field is a config key and a flag, and nothing else is."""

    FIELDS = dataclasses.fields(SolverConfig)
    TYPES = {"float": float, "int": int}
    VALUES = {float: ("7.25", "8.5"), int: ("7", "8")}
    # BenchSpec builds the SolverConfig, so each value must be valid: eta < 1.
    FIELD_VALUES = {"eta": ("0.25", "0.3")}
    BENCH_FLAGS = {
        "-h", "--help", "--config", "--problem", "--mesh-n", "--delta", "--seed",
        "--method", "--problem-seed", "--noise-scale", "--out", "--trace", "--format",
    }

    @staticmethod
    def flag(name):
        return "--" + name.replace("_", "-")

    @pytest.mark.parametrize("f", FIELDS, ids=lambda f: f.name)
    def test_file_key_and_flag_reach_config(self, f, tmp_path):
        typ = self.TYPES[f.type]
        in_file, on_flag = self.FIELD_VALUES.get(f.name, self.VALUES[typ])
        path = tmp_path / "cfg.txt"
        path.write_text(f"solver.{f.name} = {in_file}\n")

        spec = build_specs(_parser().parse_args(["--config", str(path)]))
        assert spec.config[f.name] == typ(in_file)
        assert type(spec.config[f.name]) is typ

        spec = build_specs(_parser().parse_args([self.flag(f.name), on_flag]))
        assert spec.config[f.name] == typ(on_flag)
        assert type(spec.config[f.name]) is typ

        args = _parser().parse_args(["--config", str(path), self.flag(f.name), on_flag])
        assert build_specs(args).config[f.name] == typ(on_flag)

    def test_no_other_solver_flag(self):
        flags = {s for a in _parser()._actions for s in a.option_strings}
        assert flags - self.BENCH_FLAGS == {self.flag(f.name) for f in self.FIELDS}

    @pytest.mark.parametrize("flag", ["--lambda-rule", "--cf", "--alpha", "--jmax",
                                      "--directions", "--delta-mode"])
    def test_removed_flags_rejected(self, flag, capsys):
        with pytest.raises(SystemExit) as exc:
            _parser().parse_args([flag, "1"])
        assert exc.value.code == 2

    def test_removed_key_rejected(self, tmp_path):
        path = tmp_path / "cfg.txt"
        for key, value in [("lambda_rule", "coupling"), ("delta_mode", "effective")]:
            path.write_text(f"solver.{key} = {value}\n")
            with pytest.raises(ValueError, match=key):
                build_specs(_parser().parse_args(["--config", str(path)]))
