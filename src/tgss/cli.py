"""Command line interface: run suites, solve single problems, self-test.

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

import numpy as np

from . import bench
from .solvers import METHOD_TABLE, SolverConfig

SOLVER_KEYS = {f.name: type(f.default) for f in dataclasses.fields(SolverConfig)}


def _value_type(hint):
    """The type a value converts to: int for an `int | None` field."""
    return next((t for t in typing.get_args(hint) if t is not type(None)), hint)


_BENCH_HINTS = typing.get_type_hints(bench.BenchSpec)
BENCH_KEYS = {
    f.name: _value_type(_BENCH_HINTS[f.name])
    for f in dataclasses.fields(bench.BenchSpec) if f.default is not dataclasses.MISSING
}


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
        # config and method_config have no flag; --config stores config_file.
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
    print(f"re_final    : {rec.re_final:.6e}")
    print(f"wall_time_s : {rec.wall_time_s:.3f}")
    if spec.out:
        bench.emit(records, spec.out, ("csv",), spec.trace_dir)
    return 0 if not rec.stopped_by.startswith("error") else 1


def cmd_selftest(args) -> int:
    """Quick invariant suite over the geometry and solver layers."""
    from . import geometry, operator, solvers
    from .numkernel import dot, norm

    rng = np.random.Generator(np.random.PCG64(7))
    failures = []

    def check(name, ok):
        print(f"{'PASS' if ok else 'FAIL'}  {name}")
        if not ok:
            failures.append(name)

    ok = True
    for _ in range(200):
        n = int(rng.integers(2, 8))
        s = geometry.Stripe(rng.standard_normal(n), rng.standard_normal(),
                            abs(rng.standard_normal()))
        x = 3.0 * rng.standard_normal(n)
        p = geometry.project_stripe(x, s)
        p2 = geometry.project_stripe(p, s)
        ok &= norm(p2 - p) <= 1e-9
        ok &= abs(dot(s.u, p) - s.alpha) <= s.xi + 1e-9
    check("stripe projection idempotent and feasible", ok)

    d = rng.uniform(0.2, 1.0, 12)
    op = operator.DiagonalOperator(d)
    truth = rng.standard_normal(12)
    data = operator.add_noise(op.apply(truth), 1e-3, 3)
    cfg = solvers.SolverConfig(eta=0.0, tau=2.0, c_F=op.c_F, max_iters=5000)
    results = {
        method: solvers.run(method, op, data, np.zeros(12), cfg, truth=truth)
        for method in METHOD_TABLE
    }
    check("all methods stop via discrepancy on the linear test operator",
          all(res.stopped_by == "discrepancy" for res in results.values()))

    for zero, plain in (("tpg-zero", "land"), ("tgss-zero", "sesop")):
        res_a, res_b = results[zero], results[plain]
        check(f"{zero} equals {plain}",
              res_a.k_star == res_b.k_star
              and norm(res_a.x_final - res_b.x_final) <= 1e-12)

    if failures:
        print(f"{len(failures)} self-test(s) failed")
        return 1
    print("all self-tests passed")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="tgss",
        description="Iterative regularization methods for nonlinear ill-posed problems",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, fn in (("run", cmd_run), ("solve", cmd_solve), ("selftest", cmd_selftest)):
        p = sub.add_parser(name)
        add_common_flags(p)
        p.set_defaults(fn=fn, usage_error=p.error)
    args = parser.parse_args(argv)
    return args.fn(args)


if __name__ == "__main__":
    sys.exit(main())
