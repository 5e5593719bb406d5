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
iteration, and the iteration writes into them, as IterationState
describes: the operator applies get them as `out`, and x_{k+1} is built
in the array of z_k.  All of them, and the data and truth vectors the
iteration reads, start on a 64-byte boundary (numkernel.ALIGN), where
numpy's vector loops run at full width.  A method with zero momentum
(land, sesop, tpg-zero, tgss-zero) always steps from z_k = x_k and keeps
no momentum difference dx; its stripe step takes the older stripes'
<u_i, z_k> = <u_i, x_k> from the previous projection's u_point, with no
inner product.  The projection methods keep their stripes in a
`geometry.StripeRing`, their only stripe record: `build_stripe` builds
each new direction in the ring's storage and pushes the stripe, and the
ring holds the stripes' offsets, half-widths and Gram rows, as lists of
Python floats, across iterations, so a step computes only the new
direction's Gram row.  The projection's work on these m-sized quantities
runs in scalar arithmetic; numpy only touches vectors of the problem's
size.  The one vector handed to the caller, the final iterate, is a
copy, never one of these work vectors; the trace holds scalars only.

Every path reads one noise level, data.delta_eff = ||y_delta - y||.

The benchmark (perfbench/tracing.py, perfbench/hostprobe.py) patches
names in this module's namespace, by name: `build_stripe`, `dbts_select`
(a forward apply made inside it counts as a backtracking trial),
`sequential_stripe_projection`, `norm`, `dot`, and `discrepancy_met`,
which times the host: `run` calls it once per iteration, and
`dbts_select` once more per backtracking trial.  The code here
must keep calling them through these module globals: a renamed or
locally bound one escapes the tracer without any error.  The same holds
for the kernels it wraps in other modules: `invpot.weighted_mass`,
`geometry.project_hyperplane_intersection` and `geometry.solve_spd_dense`.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field, fields, replace
from typing import NamedTuple

import numpy as np

from .geometry import StripeRing, sequential_stripe_projection
from .numkernel import Vec, aligned, as_vector, dot, empty, norm
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
    """A stripe step's precondition failed at an unconverged iterate.

    Its search direction is zero, or the iterate is not above its own
    stripe.  Either contradicts the stripe construction and in practice
    means the configured cone constant or tau does not fit the operator.
    """


def is_int(value) -> bool:
    """The rule for an integer option: an int or a numpy integer, not a bool."""
    return isinstance(value, (int, np.integer)) and not isinstance(value, bool)


def is_real(value) -> bool:
    """The rule for a real option: an int, a float or a numpy number, not a bool."""
    return (isinstance(value, (int, float, np.integer, np.floating))
            and not isinstance(value, bool))


@dataclass
class SolverConfig:
    """Scalar hyperparameters shared by all methods.

    q_scale / i**q_power is the summable backtracking schedule.  Every
    float field must be a finite real number (`is_real`), and every int
    field an integer (`is_int`); neither takes a bool.  The fields are
    stored as Python floats and ints, so that no numpy scalar reaches a
    trace.
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
            if f.type == "float":
                if not is_real(value):
                    raise ConfigError(f"{f.name} must be a real number, got {value!r}")
                if not math.isfinite(value):
                    raise ConfigError(f"{f.name} must be finite, got {value}")
                setattr(self, f.name, float(value))
            else:
                if not is_int(value):
                    raise ConfigError(f"{f.name} must be an integer, got {value!r}")
                setattr(self, f.name, int(value))
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


def build_stripe(op: ForwardOperator, z: Vec, data: NoisyData, cfg: SolverConfig,
                 r: Vec, r_norm: float, ring: StripeRing) -> float:
    """Push the residual stripe at z onto the ring and return <u, z>.

    r = F(z) - y_delta and r_norm = ||r|| come from the forward
    evaluation done for the stopping test.  The direction u = F'(z)* r is
    built in ring.slot(): a direction the operator returned in a new
    array, as the ForwardOperator contract allows, is copied into it.
    The stripe's offset is <u, z> - ||r||^2 and its half-width
    (delta + eta (||r|| + delta)) ||r||.  run checks the stripe.
    """
    out = ring.slot()
    u = op.adjoint_apply(z, r, out=out)
    if u is not out:
        np.copyto(out, u)
    delta = data.delta_eff
    uz = dot(out, z)
    xi = (delta + cfg.eta * (r_norm + delta)) * r_norm
    ring.push(uz - r_norm * r_norm, xi)
    return uz


@dataclass
class IterationState:
    """The iterate x = x_k and the work arrays a run steps with.

    z holds the extrapolated point z_k = x_k + lambda_k dx and r its
    residual; dx = x_k - x_{k-1}, the momentum difference, has the norm
    dx_norm.  A state built with keep_dx=False, for a method whose lambda_k
    is always 0, has no dx and keeps dx_norm at 0: its z_k is x itself.  A
    momentum method always builds z_k in z, a copy of x when lambda_k = 0.

    One rule places x_{k+1}: it is built in z_k's array, and no array holds
    x_{k-1}.  advance forms dx = x_{k+1} - x_k and swaps x and z; without
    momentum x_{k+1} is built in x itself and advance has nothing to do.
    The gradient step F'(z_k)* r goes into the array z_k leaves free: dx,
    read only to form z_k, for a momentum method, and z otherwise.  r and
    dx are ALIGN-aligned.
    """

    x: Vec
    z: Vec
    k: int = 0
    i_dbts: int = 0
    keep_dx: bool = True
    r: Vec = field(init=False)
    dx: Vec | None = field(init=False, default=None)
    dx_norm: float = field(init=False, default=0.0)

    def __post_init__(self):
        self.r = empty(self.x.shape)
        if self.keep_dx:
            self.dx = empty(self.x.shape)
            self.dx.fill(0.0)

    def advance(self, x_next: Vec) -> None:
        """Step to x_next, built in z_k's array; dx and its norm are computed here."""
        if self.keep_dx:
            np.subtract(x_next, self.x, out=self.dx)
            self.dx_norm = norm(self.dx)
            self.x, self.z = x_next, self.x


def _trial(state: IterationState, lam: float, op: ForwardOperator, data: NoisyData):
    """The point z = x_k + lam dx, its residual F(z) - y_delta and the residual's norm.

    z is built in state.z, or is x_k itself for a state without dx; the
    residual is built in the array the operator returns for state.r.
    """
    z = state.x
    if state.keep_dx:
        z = state.z
        if lam == 0.0:
            np.copyto(z, state.x)
        else:
            np.multiply(state.dx, lam, out=z)
            np.add(state.x, z, out=z)
    r = op.apply(z, out=state.r)
    r = np.subtract(r, data.y_delta, out=r)
    return z, r, norm(r)


@dataclass
class TraceRow:
    """One iteration of a run: exactly the columns of its trace CSV."""

    k: int
    residual_norm: float
    lam: float
    n_dirs_used: int
    re: float | None = None
    coupling_slack: float | None = None
    containment_slack: float | None = None


@dataclass
class SolveResult:
    x_final: Vec
    k_star: int
    stopped_by: str
    wall_time: float
    trace: list[TraceRow]
    dropped_directions: int = 0

    def trace_csv_rows(self):
        """The header and one row per iteration; a None cell is empty."""
        rows = ["k,residual_norm,lambda,n_dirs_used,re,coupling_slack,containment_slack"]
        for t in self.trace:
            values = (t.k, t.residual_norm, t.lam, t.n_dirs_used, t.re,
                      t.coupling_slack, t.containment_slack)
            rows.append(",".join("" if v is None else repr(v) for v in values))
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
        cfg: SolverConfig, truth: Vec | None = None) -> SolveResult:
    """Run one method until the discrepancy principle fires or budgets run out.

    The stopping test is evaluated at the extrapolated point z_k before
    stepping, and the returned final iterate is that accepted point.  The
    trace has a row per iteration that did not stop, with exactly the
    trace CSV's columns and no vector: residual norm, momentum weight,
    directions used, the relative error of x_{k+1} when truth is given,
    and the coupling and stripe-containment slacks.  Each such iteration
    applies the adjoint once, at z_k.
    A non-finite residual norm raises DivergenceError.  A stripe step
    reads its new direction's squared norm G_00 = ||u||^2 from the ring
    once: zero, underflow included, raises InvariantViolationError and
    a non-finite value DivergenceError; then an iterate z_k that does
    not lie strictly above its own stripe, <u, z_k> <= alpha + xi,
    raises InvariantViolationError.  x0, truth and data.y_delta follow
    numkernel's shape rule, with the operator's n, n and m, and are
    checked before anything is allocated.  These checks are all of the
    stripe step's preconditions: neither the StripeRing nor the
    projection checks them again, and run is their one caller.

    The work vectors are allocated here, each on an ALIGN boundary: the
    IterationState's, where x_{k+1} is built as its docstring describes,
    and for the projection methods a StripeRing of n_directions stripes,
    whose oldest row build_stripe overwrites with the new direction.  The
    error x_{k+1} - truth is formed in r, which the step has finished
    with.  A zero-momentum method's trace has the lambda = 0 coupling
    slack, -psi^2/(mu c_F^2) ||r||^2, and a stripe step's containment slack
    comes from the projection's u_point.  data.y_delta and truth are read
    from aligned copies where they are not aligned already.
    """
    if method not in METHOD_TABLE:
        raise ConfigError(
            f"unknown method {method!r}; accepted: {', '.join(METHOD_TABLE)}"
        )
    stripes, momentum = METHOD_TABLE[method]
    x0 = as_vector(x0, op.n, "x0")
    y_delta = as_vector(data.y_delta, op.m, "data.y_delta")
    if truth is not None:
        truth = aligned(as_vector(truth, op.n, "truth"))
        truth_norm = max(norm(truth), 1e-300)
    delta = data.delta_eff
    data = replace(data, y_delta=aligned(y_delta))
    state = IterationState(x=empty(x0.shape), z=empty(x0.shape), i_dbts=cfg.i0,
                           keep_dx=momentum != "zero")
    np.copyto(state.x, x0)
    ring = StripeRing(cfg.n_directions, x0.shape) if stripes else None
    coupling_scale = psi(cfg) ** 2 / (cfg.mu * cfg.c_F ** 2)
    trace: list[TraceRow] = []
    dropped = 0
    u_point: list[float] = []  # <u_i, x_k> of the previous projection's stripes

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
            x_final, k_star = state.x.copy(), k
            break

        row = TraceRow(k=k, residual_norm=rn, lam=lam, n_dirs_used=1)
        row.coupling_slack = (
            lam * (lam + 1.0) * state.dx_norm ** 2 - coupling_scale * rn ** 2
        )

        if not stripes:
            step = op.adjoint_apply(z, r, out=state.dx if state.keep_dx else state.z)
            x_next = np.subtract(z, step, out=z)
        else:
            uz0 = build_stripe(op, z, data, cfg, r, rn, ring)
            uu = ring.gram[0][0]
            if uu == 0.0:
                # With a nonzero residual a vanishing direction breaks the
                # cone condition assumption.
                raise InvariantViolationError(
                    f"zero search direction at k={k} with residual {rn:.3e}"
                )
            if not math.isfinite(uu):
                raise DivergenceError(
                    f"search direction norm^2 {uu} is not finite at k={k}"
                )
            if uz0 <= ring.alpha[0] + ring.xi[0]:
                raise InvariantViolationError(
                    f"iterate not above its own stripe at k={k} "
                    f"(residual {rn:.3e}, tau*delta {cfg.tau * delta:.3e}); "
                    "eta or tau likely misconfigured"
                )
            if momentum == "zero":
                # z_k = x_k, and the older stripes were the previous
                # projection's, one place further back in the ring.
                uz = [uz0, *u_point[:len(ring) - 1]]
            else:
                uz = [uz0]
                for i in range(1, len(ring)):
                    uz.append(float(np.dot(ring.direction(i), z)))
            proj = sequential_stripe_projection(z, ring, uz)
            x_next, u_point = proj.point, proj.u_point
            dropped += proj.n_dropped
            row.n_dirs_used = len(ring) - len(proj.skipped)
            row.containment_slack = proj.containment_slack

        if truth is not None:
            # The residual was last read by this iteration's step, so its
            # array holds x_{k+1} - x_dagger until the next trial.
            row.re = norm(np.subtract(x_next, truth, out=state.r)) / truth_norm
        trace.append(row)
        state.advance(x_next)

    wall = time.perf_counter() - t0
    return SolveResult(
        x_final=x_final, k_star=k_star, stopped_by=stopped_by,
        wall_time=wall, trace=trace, dropped_directions=dropped,
    )
