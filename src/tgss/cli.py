"""Command line interface: run suites and solve single problems.

Configuration can come from a flat key-value file with dotted section
names (e.g. ``solver.tau = 2.8`` or ``bench.problem = invpot1d``); every
flag mirrors a key and command line values override the file.  The solver
keys are the fields of `SolverConfig`, and each one's flag is its name
with dashes (``solver.n_directions`` is ``--n-directions``).  The bench
keys are the fields of `bench.BenchSpec` that have a plain default; every
bench flag stores under its field's name.
"""

from __future__ import annotations

import argparse
import dataclasses
import sys
import typing

from . import bench
from .solvers import METHOD_TABLE, SolverConfig


def _config_keys(cls) -> dict:
    """Key -> value type for the fields of `cls` that have a plain default.

    The type comes from the field's type hint; an `int | None` field
    takes an int.
    """
    hints = typing.get_type_hints(cls)
    return {
        f.name: next((t for t in typing.get_args(hints[f.name]) if t is not type(None)),
                     hints[f.name])
        for f in dataclasses.fields(cls) if f.default is not dataclasses.MISSING
    }


SOLVER_KEYS = _config_keys(SolverConfig)
BENCH_KEYS = _config_keys(bench.BenchSpec)


def parse_config_file(path: str) -> dict:
    """Flat ``section.key = value`` lines; '#' starts a comment."""
    out: dict = {}
    with open(path) as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ValueError(f"{path}:{lineno}: expected 'key = value'")
            key, value = (s.strip() for s in line.split("=", 1))
            out[key] = value
    return out


def _typed(section: str, key: str, value):
    table = SOLVER_KEYS if section == "solver" else BENCH_KEYS
    if key not in table:
        raise ValueError(f"unknown config key {section}.{key}")
    return table[key](value)


def build_specs(args) -> bench.BenchSpec:
    file_cfg = parse_config_file(args.config_file) if args.config_file else {}
    solver_overrides = {}
    bench_overrides = {}
    for dotted, value in file_cfg.items():
        section, _, key = dotted.partition(".")
        if section == "solver":
            solver_overrides[key] = _typed("solver", key, value)
        elif section == "bench":
            bench_overrides[key] = _typed("bench", key, value)
        else:
            raise ValueError(f"unknown config section {section!r}")

    for key in SOLVER_KEYS:
        value = getattr(args, key)
        if value is not None:
            solver_overrides[key] = value
    for f in dataclasses.fields(bench.BenchSpec):
        # config has no flag; --config stores config_file.
        value = getattr(args, f.name, None)
        if value is not None:
            bench_overrides[f.name] = value
    return bench.BenchSpec(config=solver_overrides, **bench_overrides)


def add_common_flags(p: argparse.ArgumentParser):
    p.add_argument("--config", dest="config_file", metavar="CONFIG",
                   help="flat key-value config file")
    p.add_argument("--problem", choices=bench.PROBLEMS)
    p.add_argument("--mesh-n", dest="mesh_n", type=int)
    p.add_argument("--delta", dest="noise_levels", metavar="DELTA", type=float,
                   action="append", help="noise level, repeatable")
    p.add_argument("--seed", dest="seeds", metavar="SEED", type=int, action="append",
                   help="noise seed, repeatable")
    p.add_argument("--method", dest="methods", action="append", choices=list(METHOD_TABLE),
                   help="repeatable; default: the paper's six methods")
    for key, typ in SOLVER_KEYS.items():
        p.add_argument("--" + key.replace("_", "-"), dest=key, type=typ,
                       help=f"solver.{key}")
    p.add_argument("--problem-seed", dest="problem_seed", type=int)
    p.add_argument("--noise-scale", dest="noise_scale", metavar="{component,norm}",
                   help="interpret --delta per component or as the noise norm")
    p.add_argument("--out", help="output base path (extension added per format)")
    p.add_argument("--trace", dest="trace_dir", metavar="TRACE",
                   help="directory for per-run trace CSVs")
    p.add_argument("--format", action="append", choices=["csv", "json"])


def checked_spec(args) -> bench.BenchSpec:
    """The spec of a run; a bad option value is a usage error (exit 2)."""
    try:
        spec = build_specs(args)
        bench.solver_config(spec)
    except ValueError as exc:  # ConfigError and MetricError are ValueErrors
        args.usage_error(str(exc))
    return spec


def cmd_run(args) -> int:
    spec = checked_spec(args)
    records = bench.run_suite(spec)
    formats = tuple(args.format) if args.format else ("csv",)
    if spec.out:
        for path in bench.emit(records, spec.out, formats, spec.trace_dir):
            print(f"wrote {path}")
    else:
        print(bench.records_to_csv(records), end="")
    return 0 if all(not r.stopped_by.startswith("error") for r in records) else 1


def cmd_solve(args) -> int:
    spec = checked_spec(args)
    if len(spec.methods) != 1 or len(spec.noise_levels) != 1 or len(spec.seeds) != 1:
        print("solve expects exactly one --method, --delta and --seed", file=sys.stderr)
        return 2
    records = bench.run_suite(spec)
    rec = records[0]
    print(f"method      : {rec.method}")
    print(f"k_star      : {rec.k_star}")
    print(f"stopped_by  : {rec.stopped_by}")
    if rec.error is not None:
        print(f"error       : {rec.error}")
    print(f"re_final    : {rec.re_final:.6e}")
    print(f"wall_time_s : {rec.wall_time_s:.3f}")
    if spec.out:
        bench.emit(records, spec.out, ("csv",), spec.trace_dir)
    return 0 if not rec.stopped_by.startswith("error") else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="tgss",
        description="Iterative regularization methods for nonlinear ill-posed problems",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, fn in (("run", cmd_run), ("solve", cmd_solve)):
        p = sub.add_parser(name)
        add_common_flags(p)
        p.set_defaults(fn=fn, usage_error=p.error)
    args = parser.parse_args(argv)
    return args.fn(args)


if __name__ == "__main__":
    sys.exit(main())
