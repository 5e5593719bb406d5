"""Host speed, from a fixed piece of numerical work timed all through a run.

On a shared host the speed of one core moves by 10-50% over seconds to
minutes, and every timing of the program moves with it: in ten 40 s runs one
common factor per run explained all but 2-6% of each timing's spread.  The
probe shares no code with tgss and does the same kinds of work (small-vector
numpy arithmetic in a Python loop, sparse assembly, a sparse LU solve).  The
benchmark runs it every PROBE_INTERVAL_S: between its own tasks, and inside a
solve at the solver's once-per-iteration discrepancy test (`probing_in`), so
that a solve of several seconds is sampled throughout.  A task's time at the
reference speed is its wall time less the probes run inside it, divided by the
host's slowdown over it: the mean probe time from the last probe before it to
the first after it, over REFERENCE_S.  A change to tgss moves these times as it
moves wall time; a change of host speed largely cancels.
"""

from __future__ import annotations

import bisect
import statistics
import time
from contextlib import contextmanager

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

# Typical time of one probe on a 2-vCPU Intel Xeon virtual machine, so that a
# reference-speed second is about a wall-clock second there.
REFERENCE_S = 0.008
PROBE_INTERVAL_S = 0.25
PROBES_PER_POINT = 2


class HostSpeed:
    """Probe points taken during a run, and the slowdown they give for a task."""

    def __init__(self):
        rng = np.random.default_rng(20240601)
        self.d = 1.0 + rng.random(20000)
        self.x0 = rng.standard_normal(20000)
        m = 40
        ones = np.ones(m - 1)
        line = sp.diags([-ones, 4.0 * np.ones(m), -ones], [-1, 0, 1])
        self.lap = (sp.kron(sp.eye(m), line)
                    - sp.kron(sp.diags([ones, ones], [-1, 1]), sp.eye(m))).tocsc()
        self.b = rng.standard_normal(m * m)
        self.nodes = np.linspace(0.0, 1.0, 513)
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.values: list[float] = []
        self._work()      # warm-up: first calls pay for imports and allocation

    def _work(self) -> float:
        x = self.x0.copy()
        acc = 0.0
        for _ in range(60):
            y = self.d * x
            acc += float(y @ x)
            x += 1e-7 * y
            acc += float(np.sqrt(x @ x))
        h = np.diff(self.nodes)
        c = 1.0 + self.nodes
        for _ in range(4):
            diag = np.zeros(self.nodes.size)
            diag[:-1] += h * c[:-1] / 3
            diag[1:] += h * c[1:] / 3
            mass = sp.diags([h * c[:-1] / 6, diag, h * c[1:] / 6], [-1, 0, 1], format="csc")
            acc += float(mass.sum())
        shifted = self.lap + 0.01 * sp.eye(self.lap.shape[0], format="csc")
        return acc + float(spla.splu(shifted).solve(self.b).sum())

    def probe(self) -> None:
        """Take one probe point: the mean time of PROBES_PER_POINT probes."""
        start = time.perf_counter()
        times = []
        for _ in range(PROBES_PER_POINT):
            t0 = time.perf_counter()
            self._work()
            times.append(time.perf_counter() - t0)
        self.starts.append(start)
        self.ends.append(time.perf_counter())
        self.values.append(statistics.fmean(times))

    def due(self) -> bool:
        return not self.ends or time.perf_counter() - self.ends[-1] >= PROBE_INTERVAL_S

    @contextmanager
    def probing_in(self, owner, name: str):
        """Probe when due at every call of `owner.name`, patched and restored."""
        original = getattr(owner, name)

        def hooked(*args, **kwargs):
            if self.due():
                self.probe()
            return original(*args, **kwargs)

        setattr(owner, name, hooked)
        try:
            yield
        finally:
            setattr(owner, name, original)

    def adjusted(self, start: float, end: float, seconds: float | None = None) -> float:
        """Seconds at the reference speed of a task that ran over [start, end].

        `seconds` is the task's own wall time if it timed itself, by default
        end - start; the probes run inside the interval are taken off it.
        """
        first = max(bisect.bisect_right(self.ends, start) - 1, 0)
        last = min(bisect.bisect_left(self.starts, end), len(self.starts) - 1)
        points = range(first, last + 1)
        inside = sum(self.ends[i] - self.starts[i] for i in points
                     if self.starts[i] >= start and self.ends[i] <= end)
        slowdown = statistics.fmean(self.values[i] for i in points) / REFERENCE_S
        return ((end - start if seconds is None else seconds) - inside) / slowdown
