"""Reference computations the tests compare h2blend against.

Scalar per-entity forms of the residuals that ``NlpProblem`` assembles
document the equations one segment, compressor or node at a time; the
closed-form variable count, a central-difference derivative check and a
cross-correlation transport lag check the assembled problem and the
solved trajectories.  ``on_pattern`` turns the values that an evaluation
returns back into the sparse matrix they fill.
"""

import math
from typing import Optional

import numpy as np
import scipy.sparse as sp

from h2blend.network import ParseError, SegmentedNetwork
from h2blend.solution import SolutionTrajectory
from h2blend.transcription import NlpProblem, TimeGrid


def cyclic_derivative(x_at_succ, x_at_n, dt: float):
    """Forward-difference rate (x_succ - x_n)/dt; the wrap at the horizon
    end enforces periodicity implicitly."""
    if dt <= 0.0:
        raise ValueError(f"dt must be positive, got {dt}")
    return (np.asarray(x_at_succ, dtype=float) - np.asarray(x_at_n, dtype=float)) / dt


def pipe_segment_residuals(rho_h2_i, rho_ng_i, rho_h2_j, rho_ng_j,
                           rho_h2_i_succ, rho_ng_i_succ, rho_h2_j_succ, rho_ng_j_succ,
                           eta_i, eta_j, f0, fl,
                           dt_seconds, storage, area_hat, resistance,
                           c_h2, c_ng, smoothing_eps=0.0):
    """Dimensionless H2/NG continuity and momentum residuals of one segment.

    ``storage`` is L_hat*A_hat/kappa (seconds), ``resistance`` the momentum
    coefficient in the stored flow units, ``c_h2``/``c_ng`` the partial
    pressure coefficients a_k^2/a0^2.  Steady state is the dt -> inf limit
    (zero rate), obtained by passing equal states at n and succ.
    """
    rate_h2 = ((rho_h2_i_succ + rho_h2_j_succ) - (rho_h2_i + rho_h2_j)) / (2.0 * dt_seconds)
    rate_ng = ((rho_ng_i_succ + rho_ng_j_succ) - (rho_ng_i + rho_ng_j)) / (2.0 * dt_seconds)
    r_h2 = storage * rate_h2 + (eta_j * fl - eta_i * f0)
    r_ng = storage * rate_ng + ((1.0 - eta_j) * fl - (1.0 - eta_i) * f0)
    p_i = c_h2 * rho_h2_i + c_ng * rho_ng_i
    p_j = c_h2 * rho_h2_j + c_ng * rho_ng_j
    rho_bar = 0.5 * (rho_h2_i + rho_ng_i + rho_h2_j + rho_ng_j)
    if rho_bar <= 0.0:
        raise ParseError("average segment density must be positive")
    phi_bar = (f0 + fl) / (2.0 * area_hat)
    abs_phi = math.sqrt(phi_bar ** 2 + smoothing_eps ** 2)
    r_mom = p_j - p_i + resistance * phi_bar * abs_phi / rho_bar
    return r_h2, r_ng, r_mom


def compressor_residual(p_i, p_j, alpha):
    """Squared-pressure boost equality p_j^2 - alpha^2 p_i^2."""
    return p_j ** 2 - alpha ** 2 * p_i ** 2


def nodal_balance_residuals(inflows, outflows, qs, qw, eta_node, eta_supply):
    """Species balances at a node; flows are (flow, concentration) pairs.

    Returns (H2 residual, NG residual).  Their sum is the total mass
    balance.  Positive supply adds mass, positive withdrawal removes it.
    """
    r_h2 = (sum(g * f for f, g in inflows) - sum(g * f for f, g in outflows)
            + eta_supply * qs - eta_node * qw)
    r_ng = (sum((1.0 - g) * f for f, g in inflows) - sum((1.0 - g) * f for f, g in outflows)
            + (1.0 - eta_supply) * qs - (1.0 - eta_node) * qw)
    return r_h2, r_ng


def compatibility_residuals(rho_h2, rho_ng, eta, c_h2, c_ng, p_slack=None):
    """Cleared-denominator concentration definition and, when requested,
    the slack pressure equation."""
    r_conc = eta * (rho_h2 + rho_ng) - rho_h2
    if p_slack is None:
        return (r_conc,)
    return (r_conc, c_h2 * rho_h2 + c_ng * rho_ng - p_slack)


def energy_residual(ge, eta, qw, heat_ratio):
    """Energy definition g_E - (eta*r + (1 - eta)) * q_w with r = R_H2/R_NG."""
    return ge - ((heat_ratio - 1.0) * eta + 1.0) * qw


def expected_variable_count(segnet: SegmentedNetwork, grid: TimeGrid) -> int:
    """Closed-form tally: N*(3*nodes + 2*segments + 2*compressors
    + supplies + 2*withdrawals)."""
    n_nodes = len(segnet.nodes)
    n_sup = sum(1 for n in segnet.nodes if n.role in ("slack", "injection"))
    n_wd = sum(1 for n in segnet.nodes if n.role == "withdrawal")
    return grid.n_points * (3 * n_nodes + 2 * len(segnet.segments)
                            + 2 * len(segnet.compressors) + n_sup + 2 * n_wd)


def on_pattern(pattern: sp.csr_matrix, values: np.ndarray) -> sp.csr_matrix:
    """The matrix with ``pattern``'s entries holding ``values``, in the
    order of its ``data`` (as ``eq_jacobian`` and ``lagrangian_hessian``
    return them for ``jac_const`` and ``hess_pattern``)."""
    assert values.shape == (pattern.nnz,)
    return sp.csr_matrix((values, pattern.indices, pattern.indptr), shape=pattern.shape)


def derivative_check(problem: NlpProblem, n_points: int = 20,
                     step: float = 1e-6, seed: int = 0,
                     n_columns: int = 25) -> float:
    """Max relative error of the analytic Jacobian and gradient versus
    central differences at random interior points.

    Sampled flows are kept away from zero so the friction kink (smoothed
    in the model but sharply curved) does not distort the comparison.
    """
    rng = np.random.default_rng(seed)
    n = problem.index.total
    worst = 0.0
    for _ in range(n_points):
        x = rng.uniform(0.8, 2.0, n)
        for q in ("f0", "fl"):
            blk = problem.index.block(x, q)
            blk[:] = rng.uniform(0.5, 1.5, blk.shape)
        lo = np.where(np.isfinite(problem.lb), problem.lb, -np.inf)
        hi = np.where(np.isfinite(problem.ub), problem.ub, np.inf)
        x = np.clip(x, lo + 1e-3, hi - 1e-3)
        x = np.clip(x, lo, hi)
        J = on_pattern(problem.jac_const, problem.eq_jacobian(x)).tocsc()
        g = problem.gradient(x)
        cols = rng.choice(n, size=min(n_columns, n), replace=False)
        for k in cols:
            xp = x.copy()
            xp[k] += step
            xm = x.copy()
            xm[k] -= step
            fd = (problem.eq_constraints(xp) - problem.eq_constraints(xm)) / (2 * step)
            ana = J[:, k].toarray().ravel()
            denom = max(1.0, float(np.abs(ana).max(initial=0.0)))
            worst = max(worst, float(np.abs(fd - ana).max(initial=0.0)) / denom)
            fd_g = (problem.objective(xp) - problem.objective(xm)) / (2 * step)
            worst = max(worst, abs(fd_g - g[k]) / max(1.0, abs(g[k])))
    return worst


def lag_analysis(trajectory: SolutionTrajectory, upstream: str,
                 downstream: str) -> Optional[float]:
    """Transport delay (hours) between two nodal concentration series.

    Uses circular cross-correlation of the mean-removed series; the lag is
    mapped to [-T/2, T/2) and is positive when the downstream series lags.
    A series that repeats within the horizon correlates equally at several
    lags, up to rounding: among the lags within a relative 1e-9 of the
    largest correlation, the shortest is returned (the positive one of a
    tie).  Returns None when either series is constant (lag undefined).
    """
    up = trajectory.node_series(upstream, "eta")
    down = trajectory.node_series(downstream, "eta")
    up = up - up.mean()
    down = down - down.mean()
    if np.abs(up).max(initial=0.0) < 1e-12 or np.abs(down).max(initial=0.0) < 1e-12:
        return None
    N = len(up)
    cc = np.array([float(np.dot(np.roll(up, k), down)) for k in range(N)])
    dt = trajectory.dt_hours
    period = N * dt
    lags = np.arange(N) * dt
    lags = np.where(lags >= period / 2.0, lags - period, lags)
    best = np.flatnonzero(cc >= cc.max() - 1e-9 * abs(cc.max()))
    return float(lags[best[np.argmin(np.abs(lags[best]))]])

