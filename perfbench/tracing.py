"""Outside-in tracing of the tgss layers for the benchmark's traced run.

`Tracer.installed()` replaces the public functions of each layer by timing
wrappers in the namespace where their callers look them up, and restores the
originals on exit.  Each call becomes a span (name, start, end, parent, the
method of the enclosing `solvers.run`), kept in memory and written out at the
end.  A span's self time is its duration minus that of its child spans.

Besides spans the wrappers count:

- operator set-ups: calls of the inverse-potential operator whose coefficient
  differs from the previous call's on the same operator, which under the
  operator's one-entry cache are exactly its factorizations;
- dbts trials: forward applies made inside `solvers.dbts_select`;
- stripe directions offered to, kept active by and dropped by each
  sequential projection, read from the returned result.
"""

from __future__ import annotations

import contextlib
import functools
import gzip
import time
from collections import Counter, defaultdict

import numpy as np

from tgss import bench, geometry, invpot, numkernel, operator, solvers

PDE_OPERATOR_CALLS = ("apply", "adjoint_apply", "derivative_apply")


class Tracer:
    def __init__(self):
        self.spans: list[list] = []     # [name, start, end, parent, method]
        self._stack: list[int] = []
        self.method: str | None = None
        self.setups: Counter = Counter()          # keyed by method (None: outside runs)
        self._last_coefficient: dict[int, np.ndarray] = {}
        self._in_dbts = 0
        self.dbts_trials = 0
        self.directions = Counter()

    def wrap(self, name: str, fn, before=None, after=None):
        """Timing wrapper of `fn`; `before(args)` and `after(args, result)` count."""
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            restore = before(args) if before is not None else None
            stack = tracer._stack
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, tracer.method]
            stack.append(len(tracer.spans))
            tracer.spans.append(span)
            span[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                stack.pop()
                if restore is not None:
                    restore()
            if after is not None:
                after(args, result)
            return result

        return wrapper

    # -- counting hooks -------------------------------------------------------

    def _enter_run(self, args):
        previous, self.method = self.method, args[0]
        return lambda: setattr(self, "method", previous)

    def _enter_dbts(self, args):
        self._in_dbts += 1
        return lambda: setattr(self, "_in_dbts", self._in_dbts - 1)

    def _count_trial(self, args):
        if self._in_dbts:
            self.dbts_trials += 1

    def _count_pde_apply(self, args):
        self._count_trial(args)
        self._count_setup(args)

    def _count_setup(self, args):
        op, c = args[0], np.asarray(args[1], dtype=float)
        last = self._last_coefficient.get(id(op))
        if last is None or not np.array_equal(last, c):
            self.setups[self.method] += 1
            self._last_coefficient[id(op)] = c.copy()

    def _count_directions(self, args, result):
        offered = len(args[1])
        self.directions["offered"] += offered
        self.directions["active"] += offered - len(result.skipped)
        self.directions["dropped"] += result.n_dropped

    # -- installation ---------------------------------------------------------

    def _targets(self):
        """(owner, attribute, span name, before, after) for every wrapped call."""
        yield bench, "make_problem", "bench.make_problem", None, None
        yield bench, "add_noise", "operator.add_noise", None, None
        yield bench, "run", "solvers.run", self._enter_run, None
        yield solvers, "build_stripe", "solvers.build_stripe", None, None
        yield solvers, "dbts_select", "solvers.dbts_select", self._enter_dbts, None
        yield (solvers, "sequential_stripe_projection",
               "geometry.sequential_stripe_projection", None, self._count_directions)
        yield (geometry, "project_hyperplane_intersection",
               "geometry.project_hyperplane_intersection", None, None)
        yield geometry, "solve_spd_dense", "numkernel.solve_spd_dense", None, None
        yield invpot, "weighted_mass", "invpot.weighted_mass", None, None
        op_cls = invpot.InversePotentialOperator
        for attr in PDE_OPERATOR_CALLS:
            before = self._count_pde_apply if attr == "apply" else self._count_setup
            yield op_cls, attr, f"invpot.{attr}", before, None
        for attr in ("apply", "adjoint_apply"):
            before = self._count_trial if attr == "apply" else None
            yield operator.DiagonalOperator, attr, f"operator.{attr}", before, None
        for module in (bench, solvers, geometry, operator, invpot):
            for attr in ("norm", "dot"):
                if getattr(module, attr, None) is getattr(numkernel, attr):
                    yield module, attr, f"numkernel.{attr}", None, None

    @contextlib.contextmanager
    def installed(self):
        """Patch every target for the duration of the block."""
        originals = []
        try:
            for owner, attr, name, before, after in self._targets():
                original = owner.__dict__[attr]
                originals.append((owner, attr, original))
                setattr(owner, attr, self.wrap(name, original, before, after))
            yield self
        finally:
            for owner, attr, original in reversed(originals):
                setattr(owner, attr, original)

    # -- results --------------------------------------------------------------

    def totals(self) -> dict[tuple[str, str | None], list[float]]:
        """[calls, seconds, self seconds] per (span name, method)."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out: dict = defaultdict(lambda: [0, 0.0, 0.0])
        for (name, start, end, _, method), c in zip(self.spans, child):
            row = out[name, method]
            row[0] += 1
            row[1] += end - start
            row[2] += end - start - c
        return dict(out)

    def by_name(self) -> dict[str, list[float]]:
        out: dict = defaultdict(lambda: [0, 0.0, 0.0])
        for (name, _), row in self.totals().items():
            out[name] = [a + b for a, b in zip(out[name], row)]
        return dict(out)

    def write_spans(self, path) -> None:
        """Spans as gzip'd CSV: id, parent, name, method, start and end in s."""
        t0 = self.spans[0][1] if self.spans else 0.0
        with gzip.open(path, "wt") as fh:
            fh.write("id,parent,name,method,start_s,end_s\n")
            for i, (name, start, end, parent, method) in enumerate(self.spans):
                fh.write(f"{i},{parent},{name},{method or ''},"
                         f"{start - t0:.9f},{end - t0:.9f}\n")


def layer_metrics(tracer: Tracer, k_star: dict[str, int]) -> dict[str, tuple[float, str]]:
    """The per-layer metrics of one traced suite, given its k_star per method."""
    totals = tracer.by_name()

    def get(name, i):
        return totals.get(name, [0, 0.0, 0.0])[i]

    out: dict[str, tuple[float, str]] = {}
    timed = ("invpot.weighted_mass", "invpot.apply", "invpot.adjoint_apply",
             "operator.apply", "operator.adjoint_apply",
             "geometry.sequential_stripe_projection",
             "geometry.project_hyperplane_intersection", "numkernel.solve_spd_dense",
             "numkernel.norm", "numkernel.dot", "solvers.build_stripe",
             "solvers.dbts_select")
    for name in timed:
        out[f"{name}.calls"] = (get(name, 0), "count")
        out[f"{name}.s"] = (get(name, 1), "s")
    out["invpot.apply.self_s"] = (get("invpot.apply", 2), "s")
    out["solvers.run.self_s"] = (get("solvers.run", 2), "s")
    out["bench.make_problem.s"] = (get("bench.make_problem", 1), "s")
    out["operator.add_noise.s"] = (get("operator.add_noise", 1), "s")
    out["invpot.setups"] = (sum(tracer.setups.values()), "count")
    out["solvers.dbts_trials"] = (tracer.dbts_trials, "count")
    for key in ("offered", "active", "dropped"):
        out[f"geometry.directions_{key}"] = (tracer.directions[key], "count")
    for m in solvers.METHODS:
        k = k_star.get(m, 0)
        out[f"invpot.setups_per_iter.{m}"] = (tracer.setups[m] / k if k else 0.0, "1")
        out[f"solvers.k_star.{m}"] = (k, "count")
    return out


def method_shares(tracer: Tracer) -> dict[str, dict]:
    """Per method: calls of each span and its inclusive and self time as a
    share of the method's solve time."""
    totals = tracer.totals()
    solve_s = {m: row[1] for (name, m), row in totals.items() if name == "solvers.run"}
    out: dict[str, dict] = {m: {"solve_s": s} for m, s in solve_s.items()}
    for (name, m), (calls, total, self_s) in totals.items():
        if m in out:
            out[m][name] = {"calls": calls, "share": total / solve_s[m],
                            "self_share": self_s / solve_s[m]}
    return out
