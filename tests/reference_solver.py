"""The paper's iterations as a plain loop, the reference for solvers.run.

reference_run follows the methods as the paper states them, not as
`solvers.run` implements them.  Every step allocates new arrays: the
operator is called without `out`, the momentum difference, extrapolated
point and next iterate are new vectors, the stripes are a Python list,
newest first, and a stripe step projects with the vector-space
`reference.reference_projection`.  The momentum weights are written out
from their formulas below; only the exception types and the exact-data
residual floor come from `solvers`.

Besides the iterates the reference reports how close the run came to a
decision that round-off could flip, so that a test can leave such runs
out: the smallest relative distance of a residual norm from tau delta,
of a backtracking coupling test from a tie and of a projection side test
from a tie, the largest condition number of a Gram block the projection
solved.  A direction dropped as dependent is a Gram block at the edge
of singularity, which round-off decides as well.
"""

import math
from dataclasses import dataclass, field

import numpy as np

from reference import Stripe, reference_projection
from tgss.solvers import EXACT_DATA_FLOOR, DivergenceError, InvariantViolationError

# name -> (stripe projection step?, momentum rule)
REFERENCE_METHODS = {
    "land": (False, "zero"),
    "tpg-zero": (False, "zero"),
    "tpg-nes": (False, "nesterov"),
    "tpg-coupling": (False, "coupling"),
    "tpg-dbts": (False, "dbts"),
    "sesop": (True, "zero"),
    "tgss-zero": (True, "zero"),
    "tgss-nes": (True, "nesterov"),
    "tgss-coupling": (True, "coupling"),
    "tgss-dbts": (True, "dbts"),
}


@dataclass
class ReferenceRun:
    """What reference_run computed, up to the iteration that raised if one did.

    trace holds one dict per completed iteration, with the keys of
    solvers.TraceRow and, for a stripe step, containment_scale, the size
    of the terms containment_slack is a difference of.  error is
    (exception type, k) of a run that raised.
    """

    x_final: np.ndarray | None = None
    k_star: int | None = None
    stopped_by: str | None = None
    dropped: int = 0
    trace: list[dict] = field(default_factory=list)
    error: tuple[type, int] | None = None
    discrepancy_margin: float = math.inf
    coupling_margin: float = math.inf
    side_margin: float = math.inf
    gram_cond: float = 1.0


def reference_run(method, op, data, x0, cfg, truth):
    """Run `method` from x0 as the plain loop; see the module docstring."""
    stripes_step, momentum = REFERENCE_METHODS[method]
    out = ReferenceRun()
    delta = data.delta_eff
    psi = (1.0 - cfg.eta) - (1.0 + cfg.eta) / cfg.tau
    coupling_scale = psi ** 2 / (cfg.mu * cfg.c_F ** 2)
    x_prev = x = np.array(x0, dtype=float)
    i_dbts = cfg.i0
    stripes = []

    def trial(lam):
        """z = x_k + lam (x_k - x_{k-1}), F(z) - y_delta and its norm."""
        z = x + lam * dx if lam != 0.0 else x
        r = op.apply(z) - data.y_delta
        r_norm = np.linalg.norm(r)
        if delta > 0.0 and math.isfinite(r_norm):
            tau_delta = cfg.tau * delta
            out.discrepancy_margin = min(out.discrepancy_margin,
                                         abs(r_norm - tau_delta) / tau_delta)
        return z, r, r_norm

    k = 0
    try:
        for k in range(cfg.max_iters + 1):
            dx = x - x_prev
            dx_norm = np.linalg.norm(dx)
            cap = k / (k + cfg.nesterov_alpha)
            if momentum == "zero" or k == 0:
                lam = 0.0
            elif momentum == "nesterov":
                lam = max(0.0, (k - 1.0) / (k + cfg.nesterov_alpha - 1.0))
            elif momentum == "coupling":
                lam = coupling_weight(dx_norm, cap, delta, psi, cfg)
            if momentum != "dbts" or k == 0:
                z, r, r_norm = trial(lam)
            else:
                # lambda = min(q(i) / ||dx||, k / (k + alpha)) for the next
                # j_max counter values; the first trial that meets the
                # discrepancy test or the coupling condition is taken.
                for j in range(1, cfg.j_max + 1):
                    q = cfg.q_scale / (i_dbts + j) ** cfg.q_power
                    lam = cap if dx_norm == 0.0 else min(q / dx_norm, cap)
                    z, r, r_norm = trial(lam)
                    lhs = lam * (lam + 1.0) * dx_norm ** 2
                    rhs = coupling_scale * r_norm ** 2
                    if lhs + rhs > 0.0:
                        out.coupling_margin = min(out.coupling_margin,
                                                  abs(lhs - rhs) / (lhs + rhs))
                    if met(r_norm, cfg.tau * delta) or lhs <= rhs:
                        i_dbts += j
                        break
                else:
                    lam = coupling_weight(dx_norm, cap, delta, psi, cfg)
                    i_dbts += cfg.j_max
                    z, r, r_norm = trial(lam)

            if not math.isfinite(r_norm):
                raise DivergenceError(f"residual norm {r_norm} at k={k}")
            if r_norm <= EXACT_DATA_FLOOR:
                out.x_final, out.k_star, out.stopped_by = z, k, "residual_zero"
                return out
            if met(r_norm, cfg.tau * delta):
                out.x_final, out.k_star, out.stopped_by = z, k, "discrepancy"
                return out
            if k == cfg.max_iters:
                out.x_final, out.k_star, out.stopped_by = x, k, "max_iters"
                return out

            row = dict(k=k, residual_norm=r_norm, lam=lam, n_dirs_used=1, z=z,
                       x_tilde=None, containment_slack=None,
                       coupling_slack=(lam * (lam + 1.0) * dx_norm ** 2
                                       - coupling_scale * r_norm ** 2))
            u = op.adjoint_apply(z, r)
            if not stripes_step:
                x_next = z - u
            else:
                # The stripe of the residual at z: <u, .> within
                # (delta + eta (||r|| + delta)) ||r|| of <u, z> - ||r||^2.
                uu = np.dot(u, u)
                if uu == 0.0:
                    raise InvariantViolationError(f"zero search direction at k={k}")
                if not math.isfinite(uu):
                    raise DivergenceError(f"search direction norm^2 {uu} at k={k}")
                xi = (delta + cfg.eta * (r_norm + delta)) * r_norm
                stripes = [Stripe(u, np.dot(u, z) - r_norm ** 2, xi)] + stripes
                stripes = stripes[:cfg.n_directions]
                s0 = stripes[0]
                if np.dot(s0.u, z) <= s0.alpha + s0.xi:
                    raise InvariantViolationError(f"iterate not above its stripe at k={k}")
                (x_next, _, row["x_tilde"], n_dropped, skipped, cond,
                 margin) = reference_projection(z, stripes)
                out.dropped += n_dropped
                out.gram_cond = max(out.gram_cond, cond)
                out.side_margin = min(out.side_margin, margin)
                row["n_dirs_used"] = len(stripes) - len(skipped)
                row["containment_slack"] = max(
                    abs(np.dot(s.u, x_next) - s.alpha) - s.xi for s in stripes)
                # The size of the terms the slack is a difference of.
                row["containment_scale"] = max(
                    np.linalg.norm(s.u) * np.linalg.norm(x_next) + abs(s.alpha) + s.xi
                    for s in stripes)
            row["err"] = np.linalg.norm(x_next - truth)
            row["re"] = row["err"] / max(np.linalg.norm(truth), 1e-300)
            out.trace.append(row)
            x_prev, x = x, x_next
    except Exception as exc:  # a run that raises is compared by type and k
        out.error = (type(exc), k)
    return out


def met(r_norm, tau_delta):
    """The discrepancy test; with exact data the residual floor stands in."""
    if tau_delta == 0.0:
        return r_norm <= EXACT_DATA_FLOOR
    return r_norm <= tau_delta


def coupling_weight(dx_norm, cap, delta, psi, cfg):
    """min(sqrt((psi tau delta)^2 / (mu c_F^2 ||dx||^2) + 1/4) - 1/2, cap)."""
    if dx_norm == 0.0:
        return cap
    s = psi * cfg.tau * delta
    return min(math.sqrt(s * s / (cfg.mu * cfg.c_F ** 2 * dx_norm ** 2) + 0.25) - 0.5, cap)
