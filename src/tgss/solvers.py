"""The iterative methods and their shared machinery.

A method is a point of a grid with two axes: the update step, a gradient
step or a sequential projection onto residual stripes, and the rule that
picks the momentum weight lambda_k: zero, the Nesterov schedule
(k-1)/(k+alpha-1), the closed-form coupling weight, or discrete
backtracking search.  METHOD_TABLE maps each accepted name to its point,
and `run` looks the name up once, before the first iteration.  METHODS
are the paper's six, in its order: Landweber, TPG with Nesterov and with
backtracking weights, SESOP, and TGSS with Nesterov and with
backtracking weights.

All of them iterate on the extrapolated point z_k = x_k + lambda_k
(x_k - x_{k-1}) and stop by the discrepancy principle evaluated at z_k.
The projection methods confine x_{k+1} to the intersection of stripes
built from the current and recent residuals.

A run allocates its vectors of the problem's size once, before the first
iteration, and the iteration writes into them: the operator applies and
the stripe projection get them as `out`.  All of them, and the data and
truth vectors the iteration reads, start on a 64-byte boundary
(numkernel.ALIGN), where numpy's vector loops run at full width.  A
method with zero momentum (land, sesop, tpg-zero, tgss-zero) always
steps from z_k = x_k, so its run keeps no momentum difference dx: no dx
array, and neither dx nor its norm is computed.  The projection methods
keep their stripes in a `geometry.StripeRing`: each new direction is
built in the ring's storage, and the ring holds the stripes' Gram rows,
as lists of Python floats, across iterations, so a step computes only
the new direction's Gram row.  The projection's work on these m-sized
quantities runs in scalar arithmetic; numpy only touches vectors of the
problem's size.  Results handed to the caller are copies, never one of
these work vectors.

Every path reads one noise level, data.delta_eff = ||y_delta - y||.

The benchmark (perfbench/tracing.py, perfbench/hostprobe.py) patches
names in this module's namespace, by name: `build_stripe`, `dbts_select`
(a forward apply made inside it counts as a backtracking trial),
`sequential_stripe_projection`, `norm`, `dot`, and `discrepancy_met`,
which `run` calls once per iteration to time the host.  The code here
must keep calling them through these module globals: a renamed or
locally bound one escapes the tracer without any error.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field, fields, replace
from typing import NamedTuple

import numpy as np

from .geometry import (
    InvalidStripeError,
    ProjectionPreconditionError,
    StripeRing,
    sequential_stripe_projection,
)
from .numkernel import DimensionError, Vec, aligned, dot, empty, norm
from .operator import ForwardOperator, NoisyData


class Method(NamedTuple):
    """A point of the method grid: the update step and the momentum rule."""

    stripes: bool   # stripe projection if True, else a gradient step
    momentum: str   # "zero", "nesterov", "coupling" or "dbts"


_PAPER_METHODS = {
    "land": Method(False, "zero"),
    "tpg-nes": Method(False, "nesterov"),
    "tpg-dbts": Method(False, "dbts"),
    "sesop": Method(True, "zero"),
    "tgss-nes": Method(True, "nesterov"),
    "tgss-dbts": Method(True, "dbts"),
}
METHOD_TABLE = {
    **_PAPER_METHODS,
    "tpg-coupling": Method(False, "coupling"),
    "tpg-zero": Method(False, "zero"),
    "tgss-coupling": Method(True, "coupling"),
    "tgss-zero": Method(True, "zero"),
}
METHODS = tuple(_PAPER_METHODS)

# Residual floor standing in for tau*delta when data is exact.
EXACT_DATA_FLOOR = 1e-12


class ConfigError(ValueError):
    pass


class DivergenceError(RuntimeError):
    """The residual norm or a search direction became non-finite.

    In practice the step is too long for the operator, e.g. a Landweber
    step on an operator whose derivative norm exceeds sqrt(2), or the
    operator's adjoint returned non-finite values.
    """


class InvariantViolationError(RuntimeError):
    """An unconverged iterate landed on the wrong side of its own stripe.

    This contradicts the stripe construction and in practice means the
    configured cone constant or tau does not fit the operator.
    """


@dataclass
class SolverConfig:
    """Scalar hyperparameters shared by all methods.

    q_scale / i**q_power is the summable backtracking schedule.  Every
    float field must be finite, and every int field an int or a numpy
    integer, not a bool.
    """

    eta: float = 0.1
    tau: float = 2.8
    mu: float = 1.01
    c_F: float = 0.1
    nesterov_alpha: float = 3.0
    q_scale: float = 4.0
    q_power: float = 1.1
    j_max: int = 1
    i0: int = 2
    n_directions: int = 2
    max_iters: int = 50000

    def __post_init__(self):
        for f in fields(self):
            value = getattr(self, f.name)
            if f.type == "float" and not math.isfinite(value):
                raise ConfigError(f"{f.name} must be finite, got {value}")
            if f.type == "int" and (isinstance(value, bool)
                                    or not isinstance(value, (int, np.integer))):
                raise ConfigError(f"{f.name} must be an integer, got {value!r}")
        if not 0.0 <= self.eta < 1.0:
            raise ConfigError(f"eta must be in [0, 1), got {self.eta}")
        if self.tau <= (1.0 + self.eta) / (1.0 - self.eta) or psi(self) <= 0.0:
            raise ConfigError(
                f"tau={self.tau} must exceed (1+eta)/(1-eta)="
                f"{(1 + self.eta) / (1 - self.eta):.6g}"
            )
        if self.mu <= 1.0:
            raise ConfigError(f"mu must be > 1, got {self.mu}")
        if self.c_F <= 0.0:
            raise ConfigError(f"c_F must be > 0, got {self.c_F}")
        if self.nesterov_alpha < 3.0:
            raise ConfigError(f"nesterov_alpha must be >= 3, got {self.nesterov_alpha}")
        if self.q_scale <= 0.0 or self.q_power <= 1.0:
            raise ConfigError("need q_scale > 0 and q_power > 1 for a summable schedule")
        if self.j_max < 1 or self.n_directions < 1 or self.max_iters < 0 or self.i0 < 0:
            raise ConfigError("j_max, n_directions must be >= 1 and max_iters, i0 >= 0")

    def q(self, i: float) -> float:
        return self.q_scale / i ** self.q_power


def psi(cfg: SolverConfig) -> float:
    """The margin (1 - eta) - (1 + eta)/tau, positive for every valid SolverConfig."""
    return (1.0 - cfg.eta) - (1.0 + cfg.eta) / cfg.tau


def discrepancy_met(r_norm: float, cfg: SolverConfig, delta: float) -> bool:
    """Discrepancy principle; with exact data an absolute floor stands in."""
    if delta == 0.0:
        return r_norm <= EXACT_DATA_FLOOR
    return r_norm <= cfg.tau * delta


def lambda_nesterov(k: int, alpha: float) -> float:
    return max(0.0, (k - 1.0) / (k + alpha - 1.0))


def lambda_coupling(dx_norm: float, k: int, delta: float, cfg: SolverConfig) -> float:
    """Closed-form weight guaranteeing the coupling condition.

    min of sqrt((Psi tau delta)^2 / (mu c_F^2 ||dx||^2) + 1/4) - 1/2 and
    the k/(k+alpha) momentum schedule; the first branch is +inf for
    coincident iterates.
    """
    cap = k / (k + cfg.nesterov_alpha)
    if dx_norm == 0.0:
        return cap
    s = psi(cfg) * cfg.tau * delta
    root = math.sqrt(s * s / (cfg.mu * cfg.c_F ** 2 * dx_norm ** 2) + 0.25) - 0.5
    return min(root, cap)


def coupling_holds(lam: float, dx_norm: float, r_norm: float, coupling_scale: float) -> bool:
    """lam (lam + 1) ||dx||^2 <= coupling_scale ||r||^2, coupling_scale = psi^2/(mu c_F^2)."""
    return lam * (lam + 1.0) * dx_norm ** 2 <= coupling_scale * r_norm ** 2


@dataclass
class StripeRecord:
    """A stripe's direction, offset and half-width, and the residual it was built from.

    uz = <u, z>, the inner product of the direction with the point the
    stripe was built at.  The direction is not tested for zero until it
    is pushed on the StripeRing it was built in, which sees that from
    ||u||^2.
    """

    u: Vec
    alpha: float
    xi: float
    r_norm: float
    uz: float


def build_stripe(op: ForwardOperator, z: Vec, data: NoisyData, cfg: SolverConfig,
                 r: Vec | None = None, r_norm: float | None = None,
                 out: Vec | None = None) -> StripeRecord:
    """Residual stripe at z: direction F'(z)* w, offset and width from ||w||.

    The residual, and with it its norm, may be passed in to reuse the
    forward evaluation done for the stopping test.  `out` is passed on to
    the adjoint apply that computes the direction, and the direction is
    in `out` where one is given: a direction the operator returned in a
    new array, as the ForwardOperator contract allows, is copied into it.
    """
    if r is None:
        r = op.apply(z) - data.y_delta
    rn = norm(r) if r_norm is None else r_norm
    u = op.adjoint_apply(z, r, out=out)
    if out is not None and u is not out:
        np.copyto(out, u)
        u = out
    delta = data.delta_eff
    uz = dot(u, z)
    xi = (delta + cfg.eta * (rn + delta)) * rn
    return StripeRecord(u, uz - rn * rn, xi, rn, uz)


@dataclass
class IterationState:
    """Iterates x_{k-1} and x_k with their momentum difference dx = x_k - x_{k-1}.

    z_cur and r are the work vectors the extrapolated point and its
    residual are built in; when lambda_k = 0 the point is x_k itself and
    z_cur is not written.  dx is rewritten in place by advance.  x_prev is
    read for dx alone, so between two advances its array is free.  A
    state built with keep_dx=False, for a method whose lambda_k is always
    0, has no dx array and keeps dx_norm at 0.  r and dx are ALIGN-aligned.
    """

    x_prev: Vec
    x_cur: Vec
    z_cur: Vec
    k: int = 0
    i_dbts: int = 0
    keep_dx: bool = True
    r: Vec = field(init=False)
    dx: Vec | None = field(init=False, default=None)
    dx_norm: float = field(init=False, default=0.0)

    def __post_init__(self):
        self.r = empty(self.x_cur.shape)
        if self.keep_dx:
            self.dx = empty(self.x_cur.shape)
            self._difference()

    def advance(self, x_next: Vec) -> None:
        """Step to x_next; dx and its norm are computed here, once per iteration."""
        self.x_prev, self.x_cur = self.x_cur, x_next
        if self.keep_dx:
            self._difference()

    def _difference(self) -> None:
        np.subtract(self.x_cur, self.x_prev, out=self.dx)
        self.dx_norm = norm(self.dx)


def _trial(state: IterationState, lam: float, op: ForwardOperator, data: NoisyData):
    """The point z = x_k + lam dx, its residual F(z) - y_delta and the residual's norm.

    z is x_k itself when lam = 0 and is built in state.z_cur otherwise; the
    residual is built in the array the operator returns for state.r.
    """
    z = state.x_cur
    if lam != 0.0:
        z = np.multiply(state.dx, lam, out=state.z_cur)
        z = np.add(state.x_cur, z, out=z)
    r = op.apply(z, out=state.r)
    r = np.subtract(r, data.y_delta, out=r)
    return z, r, norm(r)


@dataclass
class TraceRow:
    k: int
    residual_norm: float
    lam: float
    n_dirs_used: int
    re: float | None = None
    coupling_slack: float | None = None
    containment_slack: float | None = None
    err: float | None = None
    x_tilde: Vec | None = None
    z: Vec | None = None


@dataclass
class SolveResult:
    x_final: Vec
    k_star: int
    stopped_by: str
    wall_time: float
    trace: list[TraceRow]
    dropped_directions: int = 0

    def trace_csv_rows(self):
        header = "k,residual_norm,lambda,n_dirs_used,re,coupling_slack,containment_slack"
        rows = [header]
        for t in self.trace:
            rows.append(
                f"{t.k},{t.residual_norm!r},{t.lam!r},{t.n_dirs_used},"
                f"{'' if t.re is None else repr(t.re)},"
                f"{'' if t.coupling_slack is None else repr(t.coupling_slack)},"
                f"{'' if t.containment_slack is None else repr(t.containment_slack)}"
            )
        return rows


def dbts_select(state: IterationState, op: ForwardOperator, data: NoisyData,
                cfg: SolverConfig, coupling_scale: float):
    """Discrete backtracking search for the momentum weight.

    Tries lambda = min(q(i)/||dx||, k/(k+alpha)) for the next j_max values
    of the counter and accepts the first trial whose extrapolated point
    either already meets the discrepancy test or satisfies the coupling
    condition, with coupling_scale = psi^2 / (mu c_F^2) as `run` computes
    it.  Falls back to the closed-form coupling weight otherwise.

    Returns (lambda, i_k, z, r, r_norm); the accepted trial's forward
    evaluation is reused by the caller.  Every trial is a `_trial`, built
    in the state's work vectors.
    """
    k = state.k
    dxn = state.dx_norm
    cap = k / (k + cfg.nesterov_alpha)

    def beta(i):
        return cap if dxn == 0.0 else min(cfg.q(i) / dxn, cap)

    for j in range(1, cfg.j_max + 1):
        lam = beta(state.i_dbts + j)
        z, r, rn = _trial(state, lam, op, data)
        if (discrepancy_met(rn, cfg, data.delta_eff)
                or coupling_holds(lam, dxn, rn, coupling_scale)):
            return lam, state.i_dbts + j, z, r, rn

    lam = lambda_coupling(dxn, k, data.delta_eff, cfg)
    return (lam, state.i_dbts + cfg.j_max, *_trial(state, lam, op, data))


def _select_lambda_z(momentum: str, state: IterationState, op, data, cfg, coupling_scale):
    """Momentum weight, extrapolated point and its residual for this iteration."""
    k = state.k
    if momentum == "zero" or k == 0:
        lam = 0.0
    elif momentum == "nesterov":
        lam = lambda_nesterov(k, cfg.nesterov_alpha)
    elif momentum == "dbts":
        lam, i_k, z, r, rn = dbts_select(state, op, data, cfg, coupling_scale)
        state.i_dbts = i_k
        return lam, z, r, rn
    else:  # "coupling"
        lam = lambda_coupling(state.dx_norm, k, data.delta_eff, cfg)
    return (lam, *_trial(state, lam, op, data))


def run(method: str, op: ForwardOperator, data: NoisyData, x0: Vec,
        cfg: SolverConfig, truth: Vec | None = None,
        record_points: bool = False) -> SolveResult:
    """Run one method until the discrepancy principle fires or budgets run out.

    The stopping test is evaluated at the extrapolated point z_k before
    stepping, and the returned final iterate is that accepted point.  The
    trace records per-iteration residual norms, momentum weights and the
    diagnostic slacks of the coupling and stripe-containment conditions.
    A non-finite residual norm raises DivergenceError, and so does a
    stripe direction whose squared norm, the ring's new Gram entry, is
    not finite.  x0 and truth must have the operator's n entries and
    data.y_delta its m entries; otherwise DimensionError is raised
    before anything is allocated.

    The work vectors are allocated here, each on an ALIGN boundary: z, r
    and dx in the state, two x arrays that swap roles (x_{k+1} is built in
    the array of x_{k-1}), and for the projection methods a StripeRing of
    n_directions stripes.  The error x_{k+1} - truth is formed in r, which
    the step has finished with.  A zero-momentum method
    keeps no dx; its trace's coupling slack is the lambda = 0 value,
    -psi^2/(mu c_F^2) ||r||^2.  data.y_delta and truth are read from
    aligned copies where they are not aligned already.  Each new direction
    is built in the ring's oldest row, whose stripe leaves the ring as the
    new one joins, and the ring's Gram matrix carries over from one
    iteration to the next.  The trace's containment slack comes from the
    projection's coefficients, not from further inner products.
    """
    if method not in METHOD_TABLE:
        raise ConfigError(
            f"unknown method {method!r}; accepted: {', '.join(METHOD_TABLE)}"
        )
    stripes, momentum = METHOD_TABLE[method]
    x0 = np.asarray(x0, dtype=float)
    for name, value, size in (("x0", x0, op.n), ("data.y_delta", data.y_delta, op.m),
                              ("truth", truth, op.n)):
        if value is not None and np.shape(value) != (size,):
            raise DimensionError(
                f"{name} has shape {np.shape(value)}; the operator needs ({size},)")
    delta = data.delta_eff
    data = replace(data, y_delta=aligned(data.y_delta))
    x_prev, x_cur = empty(x0.shape), empty(x0.shape)
    np.copyto(x_prev, x0)
    np.copyto(x_cur, x0)
    state = IterationState(
        x_prev=x_prev, x_cur=x_cur, z_cur=empty(x0.shape),
        i_dbts=cfg.i0, keep_dx=momentum != "zero",
    )
    ring = StripeRing(cfg.n_directions, x0.shape) if stripes else None
    coupling_scale = psi(cfg) ** 2 / (cfg.mu * cfg.c_F ** 2)
    trace: list[TraceRow] = []
    dropped = 0
    if truth is not None:
        truth = aligned(truth)
        truth_norm = max(norm(truth), 1e-300)

    t0 = time.perf_counter()
    for k in range(cfg.max_iters + 1):
        state.k = k
        lam, z, r, rn = _select_lambda_z(momentum, state, op, data, cfg, coupling_scale)

        if not math.isfinite(rn):
            raise DivergenceError(
                f"residual norm {rn} is not finite at k={k}: the iteration diverged"
            )
        if rn <= EXACT_DATA_FLOOR:
            stopped_by = "residual_zero"
            x_final, k_star = z.copy(), k
            break
        if discrepancy_met(rn, cfg, delta):
            stopped_by = "discrepancy"
            x_final, k_star = z.copy(), k
            break
        if k == cfg.max_iters:
            stopped_by = "max_iters"
            x_final, k_star = state.x_cur.copy(), k
            break

        row = TraceRow(k=k, residual_norm=rn, lam=lam, n_dirs_used=1)
        row.coupling_slack = (
            lam * (lam + 1.0) * state.dx_norm ** 2 - coupling_scale * rn ** 2
        )
        if record_points:
            row.z = z.copy()

        # x_{k-1} was read for dx alone, so x_{k+1} is built in its array.
        x_next = state.x_prev
        if not stripes:
            step = op.adjoint_apply(z, r, out=x_next)
            x_next = np.subtract(z, step, out=x_next)
        else:
            rec = build_stripe(op, z, data, cfg, r=r, r_norm=rn, out=ring.slot())
            try:
                ring.push(rec.alpha, rec.xi)
            except InvalidStripeError as exc:
                # The width is nonnegative by construction, so the direction
                # vanished; with a nonzero residual that breaks the cone
                # condition assumption.
                raise InvariantViolationError(
                    f"zero search direction at k={k} with residual {rn:.3e}"
                ) from exc
            if not math.isfinite(ring.gram[0][0]):
                raise DivergenceError(
                    f"search direction norm^2 {ring.gram[0][0]} is not finite at k={k}"
                )
            try:
                proj = sequential_stripe_projection(z, ring, out=x_next, uz0=rec.uz)
            except ProjectionPreconditionError as exc:
                raise InvariantViolationError(
                    f"iterate not above its own stripe at k={k} "
                    f"(residual {rn:.3e}, tau*delta {cfg.tau * delta:.3e}); "
                    "eta or tau likely misconfigured"
                ) from exc
            x_next = proj.point
            dropped += proj.n_dropped
            row.n_dirs_used = len(ring) - len(proj.skipped)
            row.containment_slack = proj.containment_slack
            if record_points:
                row.x_tilde = z - proj.first_coefficient * ring.direction(0)

        if truth is not None:
            # The residual was last read by this iteration's step, so its
            # array holds x_{k+1} - x_dagger until the next trial.
            row.err = norm(np.subtract(x_next, truth, out=state.r))
            row.re = row.err / truth_norm
        trace.append(row)
        state.advance(x_next)

    wall = time.perf_counter() - t0
    return SolveResult(
        x_final=x_final, k_star=k_star, stopped_by=stopped_by,
        wall_time=wall, trace=trace, dropped_directions=dropped,
    )
