"""Benchmark harness: configure a problem, run method suites, emit results.

Every (noise level, seed) pair generates one noisy data set that all
methods consume identically, so iteration counts and errors are directly
comparable.  Output is a CSV/JSON table with per-run rows plus optional
per-iteration trace files.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

import numpy as np

from . import invpot
from .numkernel import Vec, empty, norm
from .operator import DiagonalOperator, ForwardOperator, add_noise
from .solvers import METHOD_TABLE, METHODS, SolveResult, SolverConfig, run

# The fields of a BenchRecord that its CSV row and JSON object hold, in order.
RECORD_FIELDS = ("method", "delta", "seed", "k_star", "wall_time_s", "re_final",
                 "rate_k", "rate_t", "stopped_by")
CSV_HEADER = ",".join(RECORD_FIELDS)

# (mesh_n, max_iters) of a spec that leaves them unset: 257 nodes in 1-D,
# a 64 x 64 mesh in 2-D, whose runs stop at fewer iterations, and 64
# unknowns for the diagonal operator.
PROBLEM_DEFAULTS = {
    "invpot1d": (256, SolverConfig.max_iters),
    "invpot2d": (64, 20000),
    "linear-diag": (64, SolverConfig.max_iters),
}
PROBLEMS = tuple(PROBLEM_DEFAULTS)


class MetricError(ValueError):
    pass


@dataclass
class BenchSpec:
    problem: str = "invpot1d"
    mesh_n: int | None = None       # None: the problem's default
    noise_levels: list[float] = field(default_factory=lambda: [1e-3])
    seeds: list[int] = field(default_factory=lambda: [0])
    methods: list[str] = field(default_factory=lambda: list(METHODS))
    config: dict = field(default_factory=dict)
    problem_seed: int = 12345
    noise_scale: str = "component"
    out: str | None = None
    trace_dir: str | None = None

    def __post_init__(self):
        if self.problem not in PROBLEMS:
            raise MetricError(f"unknown problem {self.problem!r}")
        mesh_n, max_iters = PROBLEM_DEFAULTS[self.problem]
        if self.mesh_n is None:
            self.mesh_n = mesh_n
        smallest = 1 if self.problem == "linear-diag" else 2
        if self.mesh_n < smallest:
            raise MetricError(f"{self.problem} needs mesh_n >= {smallest}, got {self.mesh_n}")
        self.config = {"max_iters": max_iters, **self.config}
        if self.noise_scale not in ("component", "norm"):
            raise MetricError(f"unknown noise_scale {self.noise_scale!r}")
        for method in self.methods:
            if method not in METHOD_TABLE:
                raise MetricError(f"unknown method {method!r}")
        if not self.methods or not self.noise_levels or not self.seeds:
            raise MetricError("need at least one method, noise level and seed")
        for delta in self.noise_levels:
            if not (delta >= 0.0 and math.isfinite(delta)):
                raise MetricError(f"noise level must be finite and >= 0, got {delta}")
        self.noise_levels = [float(delta) for delta in self.noise_levels]
        for seed in (*self.seeds, self.problem_seed):
            if seed < 0:
                raise MetricError(f"seeds and problem_seed must be >= 0, got {seed}")


@dataclass
class BenchRecord:
    method: str
    delta: float
    seed: int
    k_star: int
    wall_time_s: float
    re_final: float
    rate_k: float | None
    rate_t: float | None
    stopped_by: str
    error: str | None = None            # exception type and message of a failed run
    result: SolveResult | None = None   # not serialized

    def csv_row(self) -> str:
        """Floats as repr, None as an empty cell, anything else as str."""
        values = (getattr(self, name) for name in RECORD_FIELDS)
        return ",".join("" if v is None else repr(v) if isinstance(v, float) else str(v)
                        for v in values)

    def to_json_dict(self) -> dict:
        """The serialized fields; a non-finite float, as a failed run's times, is None."""
        values = {name: getattr(self, name) for name in (*RECORD_FIELDS, "error")}
        return {name: None if isinstance(v, float) and not math.isfinite(v) else v
                for name, v in values.items()}


def relative_error(x: Vec, truth: Vec) -> float:
    """||x - truth|| / ||truth||."""
    tn = norm(truth)
    if tn == 0.0:
        raise MetricError("relative error undefined for zero truth")
    return norm(np.asarray(x, dtype=float) - np.asarray(truth, dtype=float)) / tn


def make_problem(spec: BenchSpec) -> tuple[ForwardOperator, Vec, Vec, Vec]:
    """Operator, ground-truth coefficient, exact data and initial guess."""
    if spec.problem != "linear-diag":
        mesh = invpot.make_mesh(2 if spec.problem == "invpot2d" else 1, spec.mesh_n)
        op = invpot.InversePotentialOperator(mesh, f=1.0)
        truth = invpot.true_coefficient(mesh)
        x0 = np.ones(mesh.n_nodes)
    else:
        rng = np.random.Generator(np.random.PCG64(spec.problem_seed))
        # uniform(0.1, 1.0) is 0.1 + (1.0 - 0.1) random(), bit for bit; drawn
        # into aligned memory, d is kept by DiagonalOperator without a copy.
        d = rng.random(out=empty(spec.mesh_n))
        d *= 1.0 - 0.1
        d += 0.1
        op = DiagonalOperator(d)
        truth = rng.standard_normal(out=empty(spec.mesh_n))  # aligned: run takes it as is
        x0 = np.zeros(spec.mesh_n)
    return op, truth, op.apply(truth), x0


def solver_config(spec: BenchSpec, method: str | None = None) -> SolverConfig:
    """The SolverConfig of the spec's runs, the same for every method.

    `method` is not read; the benchmark harness passes it.
    """
    return SolverConfig(**spec.config)


def run_suite(spec: BenchSpec) -> list[BenchRecord]:
    """Run every configured method on identical data per (delta, seed) group."""
    cfg = solver_config(spec)  # a bad option raises here, before any set-up
    op, truth, y_exact, x0 = make_problem(spec)
    records: list[BenchRecord] = []
    for delta in spec.noise_levels:
        if spec.noise_scale == "norm":
            # Calibrate the per-component amplitude so the noise vector's
            # expected norm equals delta, making the recorded effective
            # bound line up with the nominal noise level.
            delta_in = delta / np.sqrt(y_exact.size)
        else:
            delta_in = delta
        for seed in spec.seeds:
            data = add_noise(y_exact, delta_in, seed)
            group: list[BenchRecord] = []
            for method in spec.methods:
                try:
                    res = run(method, op, data, x0, cfg, truth=truth)
                    rec = BenchRecord(
                        method=method, delta=delta, seed=seed,
                        k_star=res.k_star, wall_time_s=res.wall_time,
                        re_final=relative_error(res.x_final, truth),
                        rate_k=None, rate_t=None,
                        stopped_by=res.stopped_by, result=res,
                    )
                except Exception as exc:  # per-run failure, suite continues
                    rec = BenchRecord(
                        method=method, delta=delta, seed=seed,
                        k_star=-1, wall_time_s=float("nan"),
                        re_final=float("nan"), rate_k=None, rate_t=None,
                        stopped_by=f"error:{type(exc).__name__}",
                        error=f"{type(exc).__name__}: {exc}",
                    )
                group.append(rec)
            land = next((r for r in group if r.method == "land" and r.k_star >= 0), None)
            if land is not None and land.k_star > 0:
                for rec in group:
                    if rec.k_star >= 0:
                        rec.rate_k = rec.k_star / land.k_star
                        rec.rate_t = (
                            rec.wall_time_s / land.wall_time_s
                            if land.wall_time_s > 0 else None
                        )
            records.extend(group)
    return records


def records_to_csv(records: list[BenchRecord]) -> str:
    return "\n".join([CSV_HEADER] + [r.csv_row() for r in records]) + "\n"


def records_to_json(records: list[BenchRecord]) -> str:
    """Strict JSON: a non-finite float is written as null, never as NaN."""
    return json.dumps([r.to_json_dict() for r in records], indent=2, allow_nan=False)


def emit(records: list[BenchRecord], out_base: str, formats=("csv",),
         trace_dir: str | None = None) -> list[str]:
    """Write record tables (and per-run traces) to files; returns the paths."""
    import os

    paths = []
    ordered = sorted(records, key=lambda r: (r.delta, r.seed, r.method))
    for fmt in formats:
        path = f"{out_base}.{fmt}"
        try:
            with open(path, "w") as fh:
                if fmt == "csv":
                    fh.write(records_to_csv(ordered))
                elif fmt == "json":
                    fh.write(records_to_json(ordered))
                else:
                    raise MetricError(f"unknown format {fmt!r}")
        except OSError as exc:
            raise OSError(f"failed writing {path}: {exc}") from exc
        paths.append(path)
    if trace_dir is not None:
        os.makedirs(trace_dir, exist_ok=True)
        for rec in ordered:
            if rec.result is None:
                continue
            name = f"trace_{rec.method}_d{rec.delta:g}_s{rec.seed}.csv"
            path = os.path.join(trace_dir, name)
            with open(path, "w") as fh:
                fh.write("\n".join(rec.result.trace_csv_rows()) + "\n")
            paths.append(path)
    return paths
