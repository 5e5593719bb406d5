"""Workloads, correctness checks and the two kinds of benchmark run.

Every workload is a `tgss.bench.BenchSpec` whose noise seeds derive from the
workload seed.  An untraced run (`untraced_run`)

1. times problem set-up (`bench.make_problem` plus noise generation) a few
   times, then runs `bench.run_suite` on the spec once, which is what `tgss run`
   executes;
2. spends the rest of the time budget on more suites and on the benchmark's
   own `solvers.run` calls, interleaved so that every timing metric samples the
   whole run (`interleaved_solves`), and times set-up again between them.
   Each method's solves take its next data set: first the spec's data sets
   again (so `k_star` can be compared across repeats), then further data sets
   drawn from the workload seed.  Cheap methods, whose iteration counts vary
   most from one noise draw to the next, are thereby averaged over many draws.

Every timing is taken at the reference host speed: its wall time, less the
probes run inside it, divided by the host's slowdown over it, which `hostprobe`
measures all through the run.  The raw wall times of set-up and suite are in
the report.  Timings are means over the run, not medians: a shared host
switches between fast and slow spells of several seconds, and a median jumps
between the two while a mean moves smoothly with the share of time spent in
each.  `setup_s` and `suite_s` are mean times; `stop_s.<method>` is the mean
over data sets of the mean time to the discrepancy stop on each, the suites'
solves included; `us_per_iter.<family>` is the summed solve time over the
summed iterations of the family's solves.  A traced run (`traced_run`) repeats
the suite once untraced and once under `tracing.Tracer`, in wall time.

Every solve, the suite's included, is checked for correctness.
"""

from __future__ import annotations

import gc
import math
import resource
import statistics
import time
from dataclasses import dataclass, field
from typing import Callable, Iterator

import hostprobe
import numpy as np
import tracing

from tgss import bench, operator, solvers

# Set-up is timed a few times at the start and then again at this interval
# between tasks, so that its mean samples the whole run rather than the host's
# speed at the moment the process started.
SETUP_REPS_AT_START = 5
SETUP_INTERVAL_S = 0.5

# Share of the run spent on whole suites; the methods' own solves share the rest.
SUITE_SHARE = 0.25

GRADIENT_METHODS = ("land", "tpg-nes", "tpg-dbts")
STRIPE_METHODS = ("sesop", "tgss-nes", "tgss-dbts")
# Methods every workload runs; land is too slow for the 2-D mesh.
TIMED_METHODS = ("tpg-nes", "tpg-dbts", "sesop", "tgss-nes", "tgss-dbts")


def criterion6_ranking(ks: dict[str, int]) -> list[str]:
    """The 1-D trend of acceptance criterion 6 for one data set."""
    out = []
    if not ks["tgss-nes"] < ks["sesop"] < ks["tpg-nes"] < ks["land"]:
        out.append("order tgss-nes < sesop < tpg-nes < land")
    if ks["tgss-nes"] / ks["land"] > 0.05:
        out.append("k(tgss-nes)/k(land) <= 0.05")
    if ks["sesop"] / ks["land"] > 0.10:
        out.append("k(sesop)/k(land) <= 0.10")
    return out


def stripes_below(reference: str) -> Callable[[dict[str, int]], list[str]]:
    def check(ks: dict[str, int]) -> list[str]:
        return [f"k({m}) < k({reference})" for m in STRIPE_METHODS
                if not ks[m] < ks[reference]]
    return check


@dataclass(frozen=True)
class Workload:
    name: str
    problem: str
    mesh_n: int
    delta: float
    methods: tuple[str, ...]
    config: dict
    seed_offsets: tuple[int, ...]   # spec noise seeds are seed + offset
    re_bound: float
    ranking: Callable[[dict[str, int]], list[str]]

    def spec(self, seed: int) -> bench.BenchSpec:
        return bench.BenchSpec(
            problem=self.problem, mesh_n=self.mesh_n, noise_levels=[self.delta],
            seeds=[seed + o for o in self.seed_offsets], methods=list(self.methods),
            config=dict(self.config), noise_scale="norm",
        )


WORKLOADS = {w.name: w for w in (
    # Criterion-6 spec: assembly-bound (weighted_mass dominates each solve).
    # Not in BENCHMARK.json: in some runs the host probe slowed by half again
    # as much as this workload's small-vector work, so its adjusted times
    # spread by 30-40% between runs.  It stays runnable by name.
    Workload("invpot1d-trend", "invpot1d", 256, 1e-3, solvers.METHODS,
             {"eta": 0.1, "tau": 2.8, "mu": 1.01, "c_F": 0.1,
              "nesterov_alpha": 3.0, "max_iters": 50000},
             (0, 4, 6), 1e-2, criterion6_ranking),
    # 2-D mesh: factorization-bound.  No land (about 1 000 iterations, some
    # 13 s per solve, estimated from tpg-nes's cost per iteration).  At
    # mesh_n=64 a suite took half of a 60 s run on a slow host, leaving 5-10
    # noise draws per stripe method, whose k_star varies by 20-25% from draw
    # to draw; mesh_n=48 keeps the factorization the largest share.
    Workload("invpot2d-n48", "invpot2d", 48, 0.02, TIMED_METHODS,
             {"eta": 0.1, "tau": 2.8, "mu": 1.01, "c_F": 0.1,
              "nesterov_alpha": 9.0, "q_scale": 9.0, "q_power": 1.1,
              "max_iters": 20000},
             (0,), 0.1, stripes_below("tpg-nes")),
    # No PDE: projection- and solver-bound.  Vectors of 160 kB stay in a
    # core's own cache; with 1.6 MB vectors (n=200000) the shared cache made
    # run times swing by up to 50% with the load of other tenants.
    Workload("lineardiag-20k", "linear-diag", 20000, 1e-2, solvers.METHODS,
             {}, (0,), 1e-2, stripes_below("land")),
)}


def make_data(spec: bench.BenchSpec, y_exact, noise_seed: int) -> operator.NoisyData:
    """The noisy data `bench.run_suite` generates for this noise seed."""
    delta = spec.noise_levels[0]
    if spec.noise_scale == "norm":
        delta = delta / np.sqrt(y_exact.size)
    return operator.add_noise(y_exact, delta, noise_seed)


def extra_noise_seeds(seed: int) -> Iterator[int]:
    """Endless stream of further noise seeds, determined by the workload seed."""
    rng = np.random.default_rng([seed, 0x5EED])
    while True:
        yield int(rng.integers(1 << 20, 1 << 31))


@dataclass
class Solve:
    method: str
    noise_seed: int
    k_star: int
    seconds: float
    re_final: float
    stopped_by: str
    error: str | None = None
    failures: list[str] = field(default_factory=list)
    span: tuple[float, float] | None = None   # perf_counter interval of the call
    ref_seconds: float | None = None          # seconds at the reference host speed


def check_solve(s: Solve, re_bound: float) -> None:
    """Record in `s.failures` every correctness check the solve fails."""
    if s.error is not None:
        s.failures.append(f"raised {s.error}")
        return
    if s.stopped_by != "discrepancy":
        s.failures.append(f"stopped by {s.stopped_by}")
    if not s.re_final <= re_bound:
        s.failures.append(f"re_final {s.re_final:.3e} > {re_bound:g}")


def solve(problem, spec: bench.BenchSpec, method: str, noise_seed: int, data) -> Solve:
    """One `solvers.run` call; a failure keeps its full type and message."""
    op, truth, _, x0 = problem
    start = time.perf_counter()
    try:
        res = solvers.run(method, op, data, x0, bench.solver_config(spec, method),
                          truth=truth)
    except Exception as exc:  # reported per run, the benchmark continues
        kind = type(exc)
        return Solve(method, noise_seed, -1, float("nan"), float("nan"), "error",
                     error=f"{kind.__module__}.{kind.__qualname__}: {exc}")
    return Solve(method, noise_seed, res.k_star, res.wall_time,
                 bench.relative_error(res.x_final, truth), res.stopped_by,
                 span=(start, time.perf_counter()))


def time_setup(spec: bench.BenchSpec):
    """One timed set-up: the problem and the noisy data of the spec's data sets."""
    t0 = time.perf_counter()
    problem = bench.make_problem(spec)
    datasets = {s: make_data(spec, problem[2], s) for s in spec.seeds}
    return (t0, time.perf_counter()), problem, datasets


def suite_solves(spec: bench.BenchSpec) -> tuple[tuple[float, float], list[Solve]]:
    """The interval `bench.run_suite` ran in and its records as solves.

    The suite's `solvers.run` is wrapped for the call, so that each record
    gets the interval of its own solve.
    """
    spans = []
    original = bench.run

    def timed(*args, **kwargs):
        start = time.perf_counter()
        try:
            return original(*args, **kwargs)
        finally:
            spans.append((start, time.perf_counter()))

    bench.run = timed
    t0 = time.perf_counter()
    try:
        records = bench.run_suite(spec)
    finally:
        bench.run = original
    span = (t0, time.perf_counter())
    if len(spans) != len(records):       # a record without a solve: no intervals
        spans = [None] * len(records)
    return span, [Solve(r.method, r.seed, r.k_star, r.wall_time_s, r.re_final,
                        r.stopped_by, span=sp) for r, sp in zip(records, spans)]


def ranking_failures(wl: Workload, solves: list[Solve]) -> list[str]:
    """Ranking checks per spec data set, reported but not counted as failures.

    The orderings are trends over noise draws, not properties of every draw:
    on some seeds tgss-nes needs more iterations than sesop.
    """
    by_seed: dict[int, dict[str, int]] = {}
    for s in solves:
        if s.error is None:
            by_seed.setdefault(s.noise_seed, {})[s.method] = s.k_star
    out = []
    for seed, ks in sorted(by_seed.items()):
        if set(ks) >= set(wl.methods):
            out += [f"noise seed {seed}: {msg} fails, k_star={ks}" for msg in wl.ranking(ks)]
    return out


def k_star_by_method(solves: list[Solve]) -> dict[str, int]:
    """k_star summed over data sets, per method, for solves that did not raise."""
    out: dict[str, int] = {}
    for s in solves:
        if s.error is None:
            out[s.method] = out.get(s.method, 0) + s.k_star
    return out


def check_repeats(solves: list[Solve]) -> None:
    """Every repeat of a (method, data set) pair must reach the same k_star."""
    seen: dict[tuple[str, int], int] = {}
    for s in solves:
        if s.error is not None:
            continue
        first = seen.setdefault((s.method, s.noise_seed), s.k_star)
        if s.k_star != first:
            s.failures.append(f"k_star {s.k_star} differs from repeat's {first}")


def interleaved_solves(wl: Workload, spec: bench.BenchSpec, problem, datasets: dict,
                       solves: list[Solve], suite_spans: list, seed: int,
                       deadline: float, setup_spans: list,
                       host: hostprobe.HostSpeed) -> None:
    """Fill the time left with suites and solves, interleaved over the whole run.

    Each step runs the task furthest below its share of the time so far: the
    suite (SUITE_SHARE) or one method's next solve (the rest, split evenly; a
    method's solves inside suites count towards its share too).  Cheap
    methods, whose k_star varies most between noise draws, thereby get the
    most data sets, and every timing metric samples the host's speed over the
    same window, the whole run.  A task is skipped once its last run would not
    fit in the time left, and a method is dropped after a solve that raised.
    Between tasks the set-up is timed again every SETUP_INTERVAL_S, and the
    host's speed is probed when due.
    """
    share = {"suite": SUITE_SHARE}
    share.update({m: (1.0 - SUITE_SHARE) / len(wl.methods) for m in wl.methods})
    acc = {"suite": sum(end - start for start, end in suite_spans)}
    last = {"suite": suite_spans[-1][1] - suite_spans[-1][0]}
    acc.update({m: 0.0 for m in wl.methods})

    def count(s: Solve) -> None:
        if math.isfinite(s.seconds):
            acc[s.method] += s.seconds
            last[s.method] = s.seconds

    for s in solves:
        count(s)
    active = {t for t in share if acc[t]}     # a method whose suite solve failed: no more
    extra = extra_noise_seeds(seed)
    queue = list(spec.seeds)      # the spec's data sets first, then fresh draws
    position = {m: 0 for m in wl.methods}
    last_setup = time.perf_counter()
    while True:
        if host.due():
            host.probe()
        if time.perf_counter() - last_setup >= SETUP_INTERVAL_S:
            gc.collect()      # garbage of earlier tasks is freed outside the timing
            setup_spans.append(time_setup(spec)[0])
            last_setup = time.perf_counter()
        left = deadline - time.perf_counter()
        fits = [t for t in active if last[t] < left]
        if not fits:
            return
        task = min(fits, key=lambda t: (acc[t] / share[t], t))
        if task == "suite":
            span, records = suite_solves(spec)
            suite_spans.append(span)
            solves += records
            last["suite"] = span[1] - span[0]
            acc["suite"] += last["suite"]
            for s in records:
                count(s)
            continue
        while position[task] >= len(queue):
            queue.append(next(extra))
        noise_seed = queue[position[task]]
        position[task] += 1
        # Only the spec's data sets are kept, so memory does not grow with the run.
        data = (datasets[noise_seed] if noise_seed in datasets
                else make_data(spec, problem[2], noise_seed))
        s = solve(problem, spec, task, noise_seed, data)
        solves.append(s)
        if s.error is not None:
            active.discard(task)
        count(s)


def stop_seconds(solves: list[Solve], method: str) -> tuple[float, int, int]:
    """Mean over data sets of the mean time to stop; also data sets and samples."""
    per_set: dict[int, list[float]] = {}
    for s in solves:
        if s.method == method and not s.failures and s.ref_seconds is not None:
            per_set.setdefault(s.noise_seed, []).append(s.ref_seconds)
    if not per_set:
        return float("nan"), 0, 0
    means = [statistics.fmean(v) for v in per_set.values()]
    return statistics.fmean(means), len(per_set), sum(map(len, per_set.values()))


def us_per_iter(solves: list[Solve], methods) -> tuple[float, int]:
    ok = [s for s in solves if s.method in methods and not s.failures and s.k_star > 0
          and s.ref_seconds is not None]
    iters = sum(s.k_star for s in ok)
    return (1e6 * sum(s.ref_seconds for s in ok) / iters if iters else float("nan")), len(ok)


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def failure_lines(solves: list[Solve]) -> list[str]:
    return [f"{s.method} noise seed {s.noise_seed}: {'; '.join(s.failures)}"
            for s in solves if s.failures]


@dataclass
class RunResult:
    """Metrics of one run, the solves they were checked on, and a report."""

    metrics: dict[str, tuple[float, str]]
    solves: list[Solve]
    report: dict
    tracer: tracing.Tracer | None = None

    @property
    def failed(self) -> int:
        return sum(1 for s in self.solves if s.failures)


def untraced_run(wl: Workload, seed: int, seconds: float) -> RunResult:
    """The end-to-end metrics; the run ends after `seconds` where it can."""
    deadline = time.perf_counter() + seconds
    spec = wl.spec(seed)
    host = hostprobe.HostSpeed()
    host.probe()
    setup_spans = []
    for _ in range(SETUP_REPS_AT_START):
        problem = datasets = None     # one problem in memory at a time
        span, problem, datasets = time_setup(spec)
        setup_spans.append(span)
    host.probe()
    with host.probing_in(solvers, "discrepancy_met"):
        span, suite = suite_solves(spec)  # the first suite, for k_star and rankings
        suite_spans = [span]
        solves = list(suite)
        interleaved_solves(wl, spec, problem, datasets, solves, suite_spans, seed,
                           deadline, setup_spans, host)
    host.probe()                      # closes the last task's interval
    for s in solves:
        if s.span is not None and math.isfinite(s.seconds):
            s.ref_seconds = host.adjusted(*s.span, s.seconds)
    for s in solves:
        if s.stopped_by.startswith("error:"):
            # run_suite keeps only the exception's type name; repeat the
            # call to record the full type and message.
            s.error = solve(problem, spec, s.method, s.noise_seed,
                            datasets[s.noise_seed]).error or s.stopped_by
    for s in solves:
        check_solve(s, wl.re_bound)
    check_repeats(solves)

    metrics = {"setup_s": (statistics.fmean(host.adjusted(*s) for s in setup_spans), "s"),
               "suite_s": (statistics.fmean(host.adjusted(*s) for s in suite_spans), "s")}
    samples = {"setup_s": len(setup_spans), "suite_s": len(suite_spans)}
    for m in TIMED_METHODS:
        value, n_sets, n = stop_seconds(solves, m)
        metrics[f"stop_s.{m}"] = (value, "s")
        samples[f"stop_s.{m}"] = n
        samples[f"stop_s.{m}.data_sets"] = n_sets
    for family, methods in (("gradient", GRADIENT_METHODS), ("stripes", STRIPE_METHODS)):
        value, n = us_per_iter(solves, methods)
        metrics[f"us_per_iter.{family}"] = (value, "us")
        samples[f"us_per_iter.{family}"] = n
    metrics["re_final.max"] = (max((s.re_final for s in suite if s.error is None),
                                   default=float("nan")), "1")
    metrics["ok_runs"] = (1.0 - sum(1 for s in solves if s.failures) / len(solves),
                          "fraction")
    metrics["peak_rss_mb"] = (peak_rss_mb(), "MB")
    report = {
        "samples": samples,
        "wall_s": {"setup_s": statistics.fmean(e - s for s, e in setup_spans),
                   "suite_s": statistics.fmean(e - s for s, e in suite_spans)},
        "host": {"reference_s": hostprobe.REFERENCE_S,
                 "probe_mean_s": statistics.fmean(host.values),
                 "probe_points": len(host.values)},
        "k_star": k_star_by_method(suite),
        "failures": failure_lines(solves),
        "ranking_failures": ranking_failures(wl, suite),
    }
    return RunResult(metrics, solves, report)


def traced_run(wl: Workload, seed: int) -> RunResult:
    """The per-layer metrics, from one untraced and one traced suite."""
    spec = wl.spec(seed)
    (t0, t1), untraced = suite_solves(spec)
    tracer = tracing.Tracer()
    with tracer.installed():
        (t2, t3), traced = suite_solves(spec)
    untraced_s, traced_s = t1 - t0, t3 - t2
    solves = untraced + traced
    for s in solves:
        check_solve(s, wl.re_bound)
    check_repeats(solves)    # tracing must not change any k_star
    k_star = k_star_by_method(traced)
    metrics = tracing.layer_metrics(tracer, k_star)
    metrics["trace.suite_s.untraced"] = (untraced_s, "s")
    metrics["trace.suite_s.traced"] = (traced_s, "s")
    metrics["trace.overhead"] = (traced_s / untraced_s, "ratio")
    report = {
        "k_star": k_star,
        "k_star_untraced": k_star_by_method(untraced),
        "spans": len(tracer.spans),
        "tracing_overhead": traced_s / untraced_s - 1.0,
        "method_shares": tracing.method_shares(tracer),
        "failures": failure_lines(solves),
        "ranking_failures": ranking_failures(wl, traced),
    }
    return RunResult(metrics, solves, report, tracer)
