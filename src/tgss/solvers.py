"""The five iterative methods and their shared machinery.

Methods
-------
land        gradient iteration with unit step
tpg-nes     momentum step with the classic (k-1)/(k+alpha-1) schedule
tpg-dbts    momentum step, weight picked by discrete backtracking search
sesop       sequential projection onto residual stripes, no momentum
tgss-nes    momentum + sequential stripe projection, Nesterov weights
tgss-dbts   momentum + sequential stripe projection, backtracking weights

All of them iterate on the extrapolated point z_k = x_k + lambda_k
(x_k - x_{k-1}) and stop by the discrepancy principle evaluated at z_k.
The projection methods confine x_{k+1} to the intersection of stripes
built from the current and recent residuals.
"""

from __future__ import annotations

import math
import time
from collections import deque
from dataclasses import dataclass, field

import numpy as np

from .geometry import (
    InvalidStripeError,
    ProjectionPreconditionError,
    Stripe,
    sequential_stripe_projection,
)
from .numkernel import Vec, dot, norm
from .operator import ForwardOperator, NoisyData

METHODS = ("land", "tpg-nes", "tpg-dbts", "sesop", "tgss-nes", "tgss-dbts")

# Residual floor standing in for tau*delta when data is exact.
EXACT_DATA_FLOOR = 1e-12


class ConfigError(ValueError):
    pass


class InvariantViolationError(RuntimeError):
    """An unconverged iterate landed on the wrong side of its own stripe.

    This contradicts the stripe construction and in practice means the
    configured cone constant or tau does not fit the operator.
    """


@dataclass
class SolverConfig:
    """Scalar hyperparameters shared by all methods.

    q_scale / i**q_power is the summable backtracking schedule.
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
    delta_mode: str = "effective"
    lambda_rule: str = "nesterov"

    def __post_init__(self):
        if not 0.0 <= self.eta < 1.0:
            raise ConfigError(f"eta must be in [0, 1), got {self.eta}")
        if self.tau <= (1.0 + self.eta) / (1.0 - self.eta):
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
        if self.j_max < 1 or self.n_directions < 1 or self.max_iters < 0:
            raise ConfigError("j_max, n_directions must be >= 1 and max_iters >= 0")
        if self.delta_mode not in ("effective", "nominal"):
            raise ConfigError(f"unknown delta_mode {self.delta_mode!r}")
        if self.lambda_rule not in ("zero", "nesterov", "coupling", "dbts"):
            raise ConfigError(f"unknown lambda_rule {self.lambda_rule!r}")

    def q(self, i: float) -> float:
        return self.q_scale / i ** self.q_power


def psi(cfg: SolverConfig) -> float:
    """The positive margin (1 - eta) - (1 + eta)/tau."""
    value = (1.0 - cfg.eta) - (1.0 + cfg.eta) / cfg.tau
    if value <= 0.0:
        raise ConfigError("tau too small: stopping margin not positive")
    return value


def discrepancy_met(r_norm: float, cfg: SolverConfig, delta_used: float) -> bool:
    """Discrepancy principle; with exact data an absolute floor stands in."""
    if delta_used == 0.0:
        return r_norm <= EXACT_DATA_FLOOR
    return r_norm <= cfg.tau * delta_used


def lambda_nesterov(k: int, alpha: float) -> float:
    return max(0.0, (k - 1.0) / (k + alpha - 1.0))


def lambda_coupling(dx_norm: float, k: int, delta_used: float, cfg: SolverConfig) -> float:
    """Closed-form weight guaranteeing the coupling condition.

    min of sqrt((Psi tau delta)^2 / (mu c_F^2 ||dx||^2) + 1/4) - 1/2 and
    the k/(k+alpha) momentum schedule; the first branch is +inf for
    coincident iterates.
    """
    cap = k / (k + cfg.nesterov_alpha)
    if dx_norm == 0.0:
        return cap
    s = psi(cfg) * cfg.tau * delta_used
    root = math.sqrt(s * s / (cfg.mu * cfg.c_F ** 2 * dx_norm ** 2) + 0.25) - 0.5
    return min(root, cap)


def coupling_holds(lam: float, dx_norm: float, r_norm: float, cfg: SolverConfig) -> bool:
    lhs = lam * (lam + 1.0) * dx_norm ** 2
    rhs = psi(cfg) ** 2 / (cfg.mu * cfg.c_F ** 2) * r_norm ** 2
    return lhs <= rhs


@dataclass
class StripeRecord:
    """A stripe together with the residual information it was built from."""

    stripe: Stripe
    u: Vec
    r_norm: float
    k: int


def build_stripe(op: ForwardOperator, z: Vec, data: NoisyData, cfg: SolverConfig,
                 r: Vec | None = None, k: int = 0) -> StripeRecord:
    """Residual stripe at z: direction F'(z)* w, offset and width from ||w||.

    The residual may be passed in to reuse the forward evaluation done
    for the stopping test.
    """
    if r is None:
        r = op.apply(z) - data.y_delta
    rn = norm(r)
    u = op.adjoint_apply(z, r)
    delta = data.delta_used(cfg.delta_mode)
    alpha = dot(u, z) - rn * rn
    xi = (delta + cfg.eta * (rn + delta)) * rn
    return StripeRecord(Stripe(u, alpha, xi), u, rn, k)


@dataclass
class IterationState:
    """Iterates x_{k-1} and x_k with their momentum difference dx = x_k - x_{k-1}."""

    x_prev: Vec
    x_cur: Vec
    z_cur: Vec
    k: int = 0
    i_dbts: int = 0
    lambda_cur: float = 0.0
    ring: deque = field(default_factory=deque)
    dx: Vec = field(init=False)
    dx_norm: float = field(init=False)

    def __post_init__(self):
        self._difference()

    def advance(self, x_next: Vec) -> None:
        """Step to x_next; dx and its norm are computed here, once per iteration."""
        self.x_prev, self.x_cur = self.x_cur, x_next
        self._difference()

    def _difference(self) -> None:
        self.dx = self.x_cur - self.x_prev
        self.dx_norm = norm(self.dx)


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
                cfg: SolverConfig, delta_used: float):
    """Discrete backtracking search for the momentum weight.

    Tries lambda = min(q(i)/||dx||, k/(k+alpha)) for the next j_max values
    of the counter and accepts the first trial whose extrapolated point
    either already meets the discrepancy test or satisfies the coupling
    condition.  Falls back to the closed-form coupling weight otherwise.

    Returns (lambda, i_k, z, r, r_norm); the accepted trial's forward
    evaluation is reused by the caller.
    """
    k = state.k
    dx, dxn = state.dx, state.dx_norm
    cap = k / (k + cfg.nesterov_alpha)

    def beta(i):
        return cap if dxn == 0.0 else min(cfg.q(i) / dxn, cap)

    for j in range(1, cfg.j_max + 1):
        lam = beta(state.i_dbts + j)
        z = state.x_cur + lam * dx
        r = op.apply(z) - data.y_delta
        rn = norm(r)
        if discrepancy_met(rn, cfg, delta_used) or coupling_holds(lam, dxn, rn, cfg):
            return lam, state.i_dbts + j, z, r, rn

    lam = lambda_coupling(dxn, k, delta_used, cfg)
    z = state.x_cur + lam * dx
    r = op.apply(z) - data.y_delta
    return lam, state.i_dbts + cfg.j_max, z, r, norm(r)


def _select_lambda_z(method: str, state: IterationState, op, data, cfg, delta_used):
    """Momentum weight, extrapolated point and its residual for this iteration."""
    k = state.k
    family, _, rule = method.partition("-")
    if family in ("land", "sesop") or k == 0:
        lam = 0.0
    elif rule == "nes":
        lam = lambda_nesterov(k, cfg.nesterov_alpha)
    elif rule == "dbts":
        lam, i_k, z, r, rn = dbts_select(state, op, data, cfg, delta_used)
        state.i_dbts = i_k
        return lam, z, r, rn
    elif rule == "coupling":
        lam = lambda_coupling(state.dx_norm, k, delta_used, cfg)
    elif rule == "zero":
        lam = 0.0
    else:
        raise ConfigError(f"unknown method {method!r}")
    z = state.x_cur if lam == 0.0 else state.x_cur + lam * state.dx
    r = op.apply(z) - data.y_delta
    return lam, z, r, norm(r)


def _normalize_method(method: str, cfg: SolverConfig) -> str:
    """Map the generic family names onto cfg.lambda_rule when needed."""
    if method in METHODS or method in ("tpg-coupling", "tgss-coupling",
                                       "tpg-zero", "tgss-zero"):
        return method
    if method in ("tpg", "tgss"):
        rule = {"nesterov": "nes"}.get(cfg.lambda_rule, cfg.lambda_rule)
        return f"{method}-{rule}"
    raise ConfigError(f"unknown method {method!r}")


def run(method: str, op: ForwardOperator, data: NoisyData, x0: Vec,
        cfg: SolverConfig, truth: Vec | None = None,
        record_points: bool = False) -> SolveResult:
    """Run one method until the discrepancy principle fires or budgets run out.

    The stopping test is evaluated at the extrapolated point z_k before
    stepping, and the returned final iterate is that accepted point.  The
    trace records per-iteration residual norms, momentum weights and the
    diagnostic slacks of the coupling and stripe-containment conditions.
    """
    method = _normalize_method(method, cfg)
    family = method.partition("-")[0]
    delta_used = data.delta_used(cfg.delta_mode)
    x0 = np.asarray(x0, dtype=float)
    state = IterationState(
        x_prev=x0.copy(), x_cur=x0.copy(), z_cur=x0.copy(),
        i_dbts=cfg.i0, ring=deque(maxlen=max(0, cfg.n_directions - 1)),
    )
    trace: list[TraceRow] = []
    dropped = 0
    stopped_by = "max_iters"
    x_final = state.x_cur
    k_star = cfg.max_iters

    t0 = time.perf_counter()
    for k in range(cfg.max_iters + 1):
        state.k = k
        lam, z, r, rn = _select_lambda_z(method, state, op, data, cfg, delta_used)
        state.z_cur = z
        state.lambda_cur = lam

        if rn <= EXACT_DATA_FLOOR:
            stopped_by = "residual_zero"
            x_final, k_star = z, k
            break
        if discrepancy_met(rn, cfg, delta_used):
            stopped_by = "discrepancy"
            x_final, k_star = z, k
            break
        if k == cfg.max_iters:
            x_final, k_star = state.x_cur, cfg.max_iters
            break

        row = TraceRow(k=k, residual_norm=rn, lam=lam, n_dirs_used=1)
        row.coupling_slack = (
            lam * (lam + 1.0) * state.dx_norm ** 2
            - psi(cfg) ** 2 / (cfg.mu * cfg.c_F ** 2) * rn ** 2
        )
        if record_points:
            row.z = z.copy()

        if family in ("land", "tpg"):
            x_next = z - op.adjoint_apply(z, r)
        else:
            try:
                rec = build_stripe(op, z, data, cfg, r=r, k=k)
            except InvalidStripeError as exc:
                # The width is nonnegative by construction, so the direction
                # vanished; with a nonzero residual that breaks the cone
                # condition assumption.
                raise InvariantViolationError(
                    f"zero search direction at k={k} with residual {rn:.3e}"
                ) from exc
            stripes = [rec.stripe] + [s.stripe for s in state.ring]
            try:
                proj = sequential_stripe_projection(z, stripes)
            except ProjectionPreconditionError as exc:
                raise InvariantViolationError(
                    f"iterate not above its own stripe at k={k} "
                    f"(residual {rn:.3e}, tau*delta {cfg.tau * delta_used:.3e}); "
                    "eta or tau likely misconfigured"
                ) from exc
            x_next = proj.point
            dropped += proj.n_dropped
            row.n_dirs_used = len(stripes) - len(proj.skipped)
            row.containment_slack = max(
                abs(dot(s.u, x_next) - s.alpha) - s.xi for s in stripes
            )
            if record_points:
                row.x_tilde = proj.first_step_point
            state.ring.appendleft(rec)

        if truth is not None:
            row.err = norm(x_next - truth)
            row.re = row.err / max(norm(truth), 1e-300)
        trace.append(row)
        state.advance(x_next)

    wall = time.perf_counter() - t0
    return SolveResult(
        x_final=x_final, k_star=k_star, stopped_by=stopped_by,
        wall_time=wall, trace=trace, dropped_directions=dropped,
    )
