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
    """Flat ``section.key = value`` lines; '#' starts a comment.

    Returns dotted key -> (line number, value string); a key set twice
    keeps its last line.  Each key and value is checked here, so every
    error is a ValueError that names the file: one that cannot be read as
    UTF-8 text by its path, a bad line by path:line.
    """
    try:
        with open(path, encoding="utf-8") as fh:
            lines = fh.readlines()
    except (OSError, UnicodeDecodeError) as exc:
        reason = getattr(exc, "strerror", None) or exc
        raise ValueError(f"cannot read config file {path}: {reason}") from exc
    out: dict = {}
    for lineno, raw in enumerate(lines, start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValueError(f"{path}:{lineno}: expected 'key = value'")
        key, value = (s.strip() for s in line.split("=", 1))
        try:
            _typed(key, value)
        except ValueError as exc:
            raise ValueError(f"{path}:{lineno}: {exc}") from exc
        out[key] = (lineno, value)
    return out


def _typed(dotted: str, value: str) -> tuple[str, str, object]:
    """(section, key, value as the key's type) of one config file entry."""
    section, _, key = dotted.partition(".")
    table = {"solver": SOLVER_KEYS, "bench": BENCH_KEYS}.get(section)
    if table is None:
        raise ValueError(f"unknown config section {section!r}")
    if key not in table:
        raise ValueError(f"unknown config key {dotted}")
    try:
        return section, key, table[key](value)
    except ValueError as exc:
        raise ValueError(f"{dotted} = {value}: {exc}") from exc


def build_specs(args) -> bench.BenchSpec:
    """The spec of the config file's entries, each overridden by its flag.

    A rejection names, by path:line, each file entry without which the
    spec passes or is rejected with another message.
    """
    path = args.config_file
    entries = parse_config_file(path) if path else {}
    try:
        return _spec(entries, args)
    except ValueError as exc:
        involved = [f"{path}:{line}: {key} = {value}" for key, (line, value) in entries.items()
                    if _rejection(entries, key, args) != str(exc)]
        if not involved:
            raise
        raise type(exc)(f"{', '.join(involved)}: {exc}") from exc


def _rejection(entries: dict, skip: str, args) -> str | None:
    """The message rejecting the spec without the file entry `skip`, if any."""
    try:
        _spec({key: entry for key, entry in entries.items() if key != skip}, args)
    except ValueError as exc:
        return str(exc)
    return None


def _spec(entries: dict, args) -> bench.BenchSpec:
    values = {"solver": {}, "bench": {}}
    for dotted, (_, value) in entries.items():
        section, key, typed = _typed(dotted, value)
        values[section][key] = typed
    # config has no flag; --config stores config_file.
    for section, names in (("solver", SOLVER_KEYS),
                           ("bench", [f.name for f in dataclasses.fields(bench.BenchSpec)])):
        for name in names:
            if getattr(args, name, None) is not None:
                values[section][name] = getattr(args, name)
    return bench.BenchSpec(config=values["solver"], **values["bench"])


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
    except ValueError as exc:  # ConfigError and MetricError are ValueErrors
        args.usage_error(str(exc))
    return spec


def cmd_run(args) -> int:
    spec = checked_spec(args)
    records = bench.run_suite(spec)
    paths = bench.emit(records, spec, tuple(args.format or ("csv",)))
    if spec.out is not None:
        for path in paths:
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
    bench.emit(records, spec, tuple(args.format or ("csv",)))
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
