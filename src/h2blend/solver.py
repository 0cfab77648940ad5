"""Primal-dual interior-point solver with a filter line search.

The solver handles problems of the form

    min f(x)  s.t.  c_eq(x) = 0,  l_I <= c_in(x) <= u_I,  lb <= x <= ub

by introducing slacks for the inequalities and applying a logarithmic
barrier to all simple bounds.  Search directions come from a sparse
symmetric KKT system factored with SuperLU (fixed column ordering, so
repeated runs are bit-for-bit identical).  Curvature is controlled
without inertia information: the primal-primal block is regularized
until the computed direction has positive curvature.  Step acceptance
uses the classic filter line search with a second-order correction and
a Levenberg-Marquardt feasibility restoration as a fallback.
Constraints, Jacobian and gradient are evaluated once per accepted
iterate and shared by the KKT error, the KKT system and the line search.
"""

from __future__ import annotations

import csv
import time
from dataclasses import dataclass, field
from typing import Optional

import numpy as np
import scipy.sparse as sp
from scipy.sparse.linalg import splu

from .transcription import NlpProblem, TimeGrid, assemble_nlp
from .network import Scenario, SegmentedNetwork

_SMAX = 100.0
_KAPPA_EPS = 10.0
_KAPPA_MU = 0.2
_THETA_MU = 1.5
_GAMMA_THETA = 1e-5
_GAMMA_PHI = 1e-5
_S_THETA = 1.1
_S_PHI = 2.3
_ETA_PHI = 1e-4
_KAPPA_SOC = 0.99
_MAX_SOC = 4
_DELTA_W0 = 1e-4
_DELTA_W_MAX = 1e10
_KAPPA_SIGMA = 1e10
_BOUND_PUSH = 1e-2


@dataclass
class SolverOptions:
    kkt_tol: float = 1e-6
    max_iter: int = 3000
    mu_init: float = 1e-1
    tau_min: float = 0.99
    reg_min: float = 1e-8
    alpha_min: float = 1e-12
    iteration_log: Optional[str] = None      # CSV path, one row per iteration


@dataclass
class SolveResult:
    status: str                              # local-optimum | infeasible | iteration-limit | error
    x: np.ndarray
    objective: float
    violation: float                         # max-norm of all constraint violations
    kkt_residual: float
    iterations: int
    wall_time: float
    multipliers: dict = field(default_factory=dict)
    message: str = ""

    @property
    def success(self) -> bool:
        return self.status == "local-optimum"


class _BarrierProblem:
    """Slack-augmented view: variables y = [x; s], all inequalities become
    equalities c_in(x) - s = 0 plus simple bounds on y.  Variables whose
    bounds coincide are pinned by extra linear equality rows."""

    def __init__(self, problem: NlpProblem):
        self.p = problem
        self.n_x = problem.index.total
        self.n_s = problem.n_ineq
        self.n_y = self.n_x + self.n_s
        fixed = np.isfinite(problem.lb) & (problem.lb == problem.ub)
        self.fix_idx = np.flatnonzero(fixed)
        self.fix_val = problem.lb[self.fix_idx]
        lb = problem.lb.copy()
        ub = problem.ub.copy()
        lb[self.fix_idx] = -np.inf
        ub[self.fix_idx] = np.inf
        self.L = np.concatenate([lb, problem.ineq_lb])
        self.U = np.concatenate([ub, problem.ineq_ub])
        self.m = problem.n_eq + problem.n_ineq + len(self.fix_idx)
        if len(self.fix_idx):
            self._fix_jac = sp.csr_matrix(
                (np.ones(len(self.fix_idx)),
                 (np.arange(len(self.fix_idx)), self.fix_idx)),
                shape=(len(self.fix_idx), self.n_x))
        else:
            self._fix_jac = sp.csr_matrix((0, self.n_x))

    def split(self, y):
        return y[:self.n_x], y[self.n_x:]

    def constraints(self, y):
        x, s = self.split(y)
        parts = [self.p.eq_constraints(x), self.p.ineq_constraints(x) - s]
        if len(self.fix_idx):
            parts.append(x[self.fix_idx] - self.fix_val)
        return np.concatenate(parts)

    def jacobian(self, y) -> sp.csr_matrix:
        x, _ = self.split(y)
        j_eq = self.p.eq_jacobian(x)
        j_in = self.p.ineq_jacobian(x)
        top = sp.hstack([j_eq, sp.csr_matrix((self.p.n_eq, self.n_s))])
        mid = sp.hstack([j_in, -sp.identity(self.n_s, format="csr")])
        blocks = [top, mid]
        if len(self.fix_idx):
            blocks.append(sp.hstack([self._fix_jac,
                                     sp.csr_matrix((len(self.fix_idx), self.n_s))]))
        return sp.vstack(blocks, format="csr")

    def objective(self, y) -> float:
        return self.p.objective(y[:self.n_x])

    def gradient(self, y) -> np.ndarray:
        g = np.zeros(self.n_y)
        g[:self.n_x] = self.p.gradient(y[:self.n_x])
        return g

    def hessian(self, y, lam) -> sp.csr_matrix:
        x, _ = self.split(y)
        h_x = self.p.lagrangian_hessian(x, 1.0, lam[:self.p.n_eq])
        return sp.bmat([[h_x, None],
                        [None, sp.csr_matrix((self.n_s, self.n_s))]], format="csr")


def _push_inside(y, L, U):
    """Move a point strictly inside its bounds (relative push)."""
    y = y.copy()
    has_l = np.isfinite(L)
    has_u = np.isfinite(U)
    pl = np.where(has_l, _BOUND_PUSH * np.maximum(1.0, np.abs(L)), 0.0)
    pu = np.where(has_u, _BOUND_PUSH * np.maximum(1.0, np.abs(U)), 0.0)
    both = has_l & has_u
    width = np.where(both, U - L, np.inf)
    pl = np.minimum(pl, 0.25 * width)
    pu = np.minimum(pu, 0.25 * width)
    y = np.where(has_l, np.maximum(y, L + pl), y)
    y = np.where(has_u, np.minimum(y, U - pu), y)
    return y


def _max_step(y, dy, bound, direction):
    """Largest alpha in (0, 1] keeping y + alpha*dy on the right side of
    ``bound`` by the fraction-to-the-boundary margin ``direction``*(y-bound)."""
    gap = direction * (y - bound)
    rate = -direction * dy
    mask = np.isfinite(bound) & (rate > 0.0)
    if not np.any(mask):
        return 1.0
    return float(min(1.0, np.min(gap[mask] / rate[mask])))


class _InteriorPoint:
    def __init__(self, bp: _BarrierProblem, options: SolverOptions):
        self.bp = bp
        self.opt = options
        self.has_l = np.isfinite(bp.L)
        self.has_u = np.isfinite(bp.U)
        self.log_rows = []

    def evaluate(self, y):
        """Constraints, Jacobian and objective gradient at y: (c, J, g)."""
        bp = self.bp
        return bp.constraints(y), bp.jacobian(y), bp.gradient(y)

    # -- diagnostics --------------------------------------------------------

    def kkt_error(self, y, ev, lam, zl, zu, mu):
        bp = self.bp
        c, J, g = ev
        r_d = g + J.T @ lam - zl + zu
        dl = np.where(self.has_l, y - bp.L, 1.0)
        du = np.where(self.has_u, bp.U - y, 1.0)
        comp_l = np.where(self.has_l, zl * dl - mu, 0.0)
        comp_u = np.where(self.has_u, zu * du - mu, 0.0)
        n_mult = len(lam) + self.has_l.sum() + self.has_u.sum()
        s_d = max(_SMAX, (np.abs(lam).sum() + zl.sum() + zu.sum())
                  / max(1, n_mult)) / _SMAX
        s_c = max(_SMAX, (zl.sum() + zu.sum())
                  / max(1, self.has_l.sum() + self.has_u.sum())) / _SMAX
        return max(
            np.abs(r_d).max(initial=0.0) / s_d,
            np.abs(c).max(initial=0.0),
            max(np.abs(comp_l).max(initial=0.0),
                np.abs(comp_u).max(initial=0.0)) / s_c,
        )

    def _barrier_value(self, y, mu):
        val = self.bp.objective(y)
        if mu > 0.0:
            val -= mu * np.sum(np.log((y - self.bp.L)[self.has_l]))
            val -= mu * np.sum(np.log((self.bp.U - y)[self.has_u]))
        return val

    def _barrier_grad(self, y, g, mu):
        g = g - np.where(self.has_l, mu / (y - self.bp.L), 0.0)
        g = g + np.where(self.has_u, mu / (self.bp.U - y), 0.0)
        return g

    # -- KKT solve ----------------------------------------------------------

    def _solve_kkt(self, y, ev, lam, zl, zu, mu, delta_w_last):
        bp = self.bp
        n, m = bp.n_y, bp.m
        c, J, g = ev
        W = bp.hessian(y, lam)
        dl = np.where(self.has_l, y - bp.L, np.inf)
        du = np.where(self.has_u, bp.U - y, np.inf)
        sigma = np.where(self.has_l, zl / dl, 0.0) + np.where(self.has_u, zu / du, 0.0)
        r_d = self._barrier_grad(y, g, mu) + J.T @ lam
        rhs = -np.concatenate([r_d, c])

        delta_w = 0.0
        # a small always-on dual regularization keeps the system solvable
        # when constraint rows lose rank (zero-flow mixing degeneracy)
        delta_c = self.opt.reg_min * max(mu, 1e-20) ** 0.5
        attempts = 0
        while True:
            H = (W + sp.diags(sigma + delta_w)).tocsc()
            K = sp.bmat([[H, J.T],
                         [J, -delta_c * sp.identity(m)]], format="csc")
            try:
                lu = splu(K, permc_spec="COLAMD",
                          options=dict(SymmetricMode=True))
                d = lu.solve(rhs)
            except RuntimeError:
                d = None
            singular = True
            ok = d is not None and np.all(np.isfinite(d)) \
                and np.abs(d).max(initial=0.0) < 1e10
            if ok:
                # an inaccurate solve marks the factorization as unreliable
                lin_res = np.abs(K @ d - rhs).max(initial=0.0)
                ok = lin_res <= 1e-7 * (np.abs(rhs).max(initial=0.0) + 1.0)
            if ok:
                dy = d[:n]
                curv = float(dy @ (H @ dy))
                ok = curv >= 1e-11 * float(dy @ dy)
                singular = False
            if ok:
                return d[:n], d[n:], delta_w, lu
            attempts += 1
            if singular or delta_c > 0.0:
                delta_c = self.opt.reg_min * max(mu, 1e-20) ** 0.25 \
                    if delta_c == 0.0 else min(10.0 * delta_c, 1e-4)
            if delta_w == 0.0:
                delta_w = _DELTA_W0 if delta_w_last == 0.0 \
                    else max(self.opt.reg_min, delta_w_last / 3.0)
            else:
                delta_w *= 8.0
            if delta_w > _DELTA_W_MAX or attempts > 40:
                return None, None, delta_w, None

    # -- restoration --------------------------------------------------------

    def _restore(self, y, mu):
        """Levenberg-Marquardt steps on 0.5*||C||^2 inside the bounds.

        Returns (y_new, success).  Success means the violation dropped
        enough to resume the main algorithm.
        """
        bp = self.bp
        theta0 = np.abs(bp.constraints(y)).sum()
        lm = 1e-4
        best = y.copy()
        best_theta = theta0
        for _ in range(40):
            c = bp.constraints(y)
            theta = np.abs(c).sum()
            if theta < best_theta:
                best, best_theta = y.copy(), theta
            if theta <= 0.5 * theta0 or theta < 1e-12:
                break
            J = bp.jacobian(y).tocsc()
            A = (J.T @ J + lm * sp.identity(bp.n_y)).tocsc()
            try:
                step = splu(A, permc_spec="COLAMD").solve(-(J.T @ c))
            except RuntimeError:
                lm *= 10.0
                continue
            tau = max(self.opt.tau_min, 1.0 - mu)
            a = min(_max_step(y, step, bp.L, 1.0),
                    _max_step(y, step, bp.U, -1.0))
            a = min(1.0, tau * a)
            trial = y + a * step
            if np.abs(bp.constraints(trial)).sum() < theta:
                y = trial
                lm = max(1e-8, lm / 3.0)
            else:
                lm *= 10.0
                if lm > 1e12:
                    break
        success = best_theta <= max(0.9 * theta0, 1e-10)
        return best, success and best_theta < theta0

    # -- main loop ----------------------------------------------------------

    def solve(self, x0, lam0=None) -> SolveResult:
        t_start = time.perf_counter()
        bp = self.bp
        opt = self.opt
        mu = opt.mu_init

        y = np.zeros(bp.n_y)
        y[:bp.n_x] = x0
        x_probe = _push_inside(x0, bp.L[:bp.n_x], bp.U[:bp.n_x])
        y[bp.n_x:] = bp.p.ineq_constraints(x_probe)
        y = _push_inside(y, bp.L, bp.U)
        lam = np.zeros(bp.m) if lam0 is None else lam0.copy()
        zl = np.where(self.has_l, mu / np.where(self.has_l, y - bp.L, 1.0), 0.0)
        zu = np.where(self.has_u, mu / np.where(self.has_u, bp.U - y, 1.0), 0.0)

        ev = self.evaluate(y)
        filt: list[tuple[float, float]] = []
        theta = np.abs(ev[0]).sum()
        theta_max = 1e4 * max(1.0, theta)
        theta_min = 1e-4 * max(1.0, theta)
        delta_w_last = 0.0
        status, message = "iteration-limit", ""
        it = 0

        for it in range(1, opt.max_iter + 1):
            if self.kkt_error(y, ev, lam, zl, zu, 0.0) <= opt.kkt_tol:
                status, message = "local-optimum", "KKT conditions satisfied"
                break
            while self.kkt_error(y, ev, lam, zl, zu, mu) <= _KAPPA_EPS * mu \
                    and mu > opt.kkt_tol / _KAPPA_EPS:
                mu = max(opt.kkt_tol / _KAPPA_EPS,
                         min(_KAPPA_MU * mu, mu ** _THETA_MU))
                filt.clear()

            dy, dlam_full, delta_w, lu = self._solve_kkt(
                y, ev, lam, zl, zu, mu, delta_w_last)
            if dy is None:
                y, ok = self._restore(y, mu)
                y = _push_inside(y, bp.L, bp.U)
                ev = self.evaluate(y)
                if ok:
                    filt.clear()
                    continue
                status = "error"
                message = "KKT system could not be regularized"
                break
            if delta_w > 0.0:
                delta_w_last = delta_w
            dlam = dlam_full
            dl = np.where(self.has_l, y - bp.L, np.inf)
            du = np.where(self.has_u, bp.U - y, np.inf)
            dzl = np.where(self.has_l, (mu - zl * dy) / dl - zl, 0.0)
            dzu = np.where(self.has_u, (mu + zu * dy) / du - zu, 0.0)

            tau = max(opt.tau_min, 1.0 - mu)
            a_max = min(_max_step(y, dy / tau, bp.L, 1.0),
                        _max_step(y, dy / tau, bp.U, -1.0))
            a_z = min(_max_step(zl, dzl / tau, np.where(self.has_l, 0.0, -np.inf), 1.0),
                      _max_step(zu, dzu / tau, np.where(self.has_u, 0.0, -np.inf), 1.0))

            phi = self._barrier_value(y, mu)
            gphi = self._barrier_grad(y, ev[2], mu)
            dphi = float(gphi @ dy)
            theta = np.abs(ev[0]).sum()

            def filter_ok(th, ph):
                for th_j, ph_j in filt + [(theta, phi)]:
                    if not (th <= (1.0 - _GAMMA_THETA) * th_j
                            or ph <= ph_j - _GAMMA_PHI * th_j):
                        return False
                return True

            alpha = a_max
            accepted = False
            soc_done = False
            n_backtrack = 0
            while alpha >= opt.alpha_min:
                trial = y + alpha * dy
                c_t = bp.constraints(trial)
                theta_t = np.abs(c_t).sum()
                phi_t = self._barrier_value(trial, mu)
                switching = (dphi < 0.0
                             and alpha * (-dphi) ** _S_PHI
                             > (theta ** _S_THETA))
                if theta <= theta_min and switching:
                    if phi_t <= phi + _ETA_PHI * alpha * dphi:
                        accepted = True
                        break
                elif filter_ok(theta_t, phi_t):
                    accepted = True
                    if not (theta <= theta_min and switching
                            and phi_t <= phi + _ETA_PHI * alpha * dphi):
                        if not (phi_t <= phi - _GAMMA_PHI * theta):
                            filt.append(((1.0 - _GAMMA_THETA) * theta,
                                         phi - _GAMMA_PHI * theta))
                    break
                # second-order correction on the first rejected full-ish step
                if not soc_done and n_backtrack == 0 and lu is not None \
                        and theta_t > theta:
                    soc_done = True
                    c_soc = c_t.copy()
                    theta_old = theta_t
                    y_soc = None
                    for _ in range(_MAX_SOC):
                        rhs = -np.concatenate([np.zeros(bp.n_y), c_soc])
                        d_cor = lu.solve(rhs)
                        dy_cor = dy + d_cor[:bp.n_y]
                        a_soc = min(_max_step(y, dy_cor / tau, bp.L, 1.0),
                                    _max_step(y, dy_cor / tau, bp.U, -1.0))
                        y_try = y + min(alpha, a_soc) * dy_cor
                        c_try = bp.constraints(y_try)
                        th_try = np.abs(c_try).sum()
                        if th_try <= _KAPPA_SOC * theta_old:
                            if filter_ok(th_try, self._barrier_value(y_try, mu)):
                                y_soc = y_try
                                break
                            c_soc, theta_old = c_try, th_try
                        else:
                            break
                    if y_soc is not None:
                        trial = y_soc
                        accepted = True
                        break
                alpha *= 0.5
                n_backtrack += 1

            if not accepted:
                y_new, ok = self._restore(y, mu)
                if ok:
                    y = _push_inside(y_new, bp.L, bp.U)
                    ev = self.evaluate(y)
                    filt.clear()
                    delta_w_last = 0.0
                    continue
                if theta > 1e-6 * theta_max and theta > opt.kkt_tol:
                    status = "infeasible"
                    message = (f"restoration stalled at constraint violation "
                               f"{theta:.3e}")
                else:
                    status = "error"
                    message = "line search failed near a feasible point"
                break

            y = trial
            ev = self.evaluate(y)
            lam = lam + alpha * dlam
            zl = np.clip(zl + a_z * dzl,
                         np.where(self.has_l,
                                  mu / (_KAPPA_SIGMA
                                        * np.maximum(y - bp.L, 1e-300)), 0.0),
                         np.where(self.has_l,
                                  _KAPPA_SIGMA * mu
                                  / np.maximum(y - bp.L, 1e-300), 0.0))
            zu = np.clip(zu + a_z * dzu,
                         np.where(self.has_u,
                                  mu / (_KAPPA_SIGMA
                                        * np.maximum(bp.U - y, 1e-300)), 0.0),
                         np.where(self.has_u,
                                  _KAPPA_SIGMA * mu
                                  / np.maximum(bp.U - y, 1e-300), 0.0))
            if self.opt.iteration_log is not None:
                self.log_rows.append(dict(
                    iteration=it, mu=mu, objective=bp.objective(y),
                    violation=float(np.abs(ev[0]).max(initial=0.0)),
                    kkt=self.kkt_error(y, ev, lam, zl, zu, 0.0),
                    step=alpha, regularization=delta_w))

        wall = time.perf_counter() - t_start
        x = y[:bp.n_x]
        result = SolveResult(
            status=status, x=x, objective=bp.objective(y),
            violation=self._violation(y, ev[0]),
            kkt_residual=self.kkt_error(y, ev, lam, zl, zu, 0.0),
            iterations=it, wall_time=wall,
            multipliers=dict(equality=lam[:bp.p.n_eq],
                             inequality=lam[bp.p.n_eq:bp.p.n_eq + bp.p.n_ineq],
                             bound_lower=zl[:bp.n_x], bound_upper=zu[:bp.n_x],
                             slacks=y[bp.n_x:]),
            message=message,
        )
        if self.opt.iteration_log is not None and self.log_rows:
            with open(self.opt.iteration_log, "w", newline="") as fh:
                wr = csv.DictWriter(fh, fieldnames=list(self.log_rows[0]))
                wr.writeheader()
                for row in self.log_rows:
                    wr.writerow(row)
        return result

    def _violation(self, y, c) -> float:
        bp = self.bp
        b = np.maximum(bp.L - y, 0.0) + np.maximum(y - bp.U, 0.0)
        return float(max(np.abs(c).max(initial=0.0), b.max(initial=0.0)))


def solve_nlp(problem: NlpProblem, x0: np.ndarray,
              options: Optional[SolverOptions] = None) -> SolveResult:
    """Solve an assembled problem from the given primal starting point."""
    options = options or SolverOptions()
    return _InteriorPoint(_BarrierProblem(problem), options).solve(x0)


# ---------------------------------------------------------------------------
# Problem-level drivers


def _nearest_supply(problem: NlpProblem) -> dict:
    """Multi-source BFS over the segmented graph: maps every node id to
    (supply id, supply concentration at t=0).  Ties resolve to the supply
    listed first, so the result is deterministic."""
    idx = problem.index
    adjacency: dict = {nid: [] for nid in idx.node_ids}
    for s in problem.segnet.segments:
        adjacency[s.from_node].append(s.to_node)
        adjacency[s.to_node].append(s.from_node)
    for c in problem.segnet.compressors:
        adjacency[c.from_node].append(c.to_node)
        adjacency[c.to_node].append(c.from_node)
    assigned = {}
    queue = []
    for k, nid in enumerate(idx.supply_ids):
        assigned[nid] = (nid, float(problem.eta_s[k, 0]))
        queue.append(nid)
    while queue:
        nxt = []
        for nid in queue:
            for nb in adjacency[nid]:
                if nb not in assigned:
                    assigned[nb] = (assigned[nid][0], assigned[nid][1])
                    nxt.append(nb)
        queue = nxt
    eta0 = float(problem.eta_s[0, 0]) if problem.eta_s.size else 0.0
    for nid in idx.node_ids:
        assigned.setdefault(nid, ("", eta0))
    return assigned


def _steady_initial_point(problem: NlpProblem) -> np.ndarray:
    """Heuristic strictly-interior starting point for the steady problem.

    Each node takes the concentration of its nearest supply (steady flow
    cannot mix streams of different composition, so the solution is
    composed of single-supply regions); densities come from the slack
    pressure; withdrawals target full energy delivery served by their
    nearest supply; pipe and compressor flows solve the linear balance in
    the least-squares sense.
    """
    idx = problem.index
    segnet = problem.segnet
    x = np.zeros(idx.total)
    nearest = _nearest_supply(problem)
    p_hat = float(problem.K_p[0]) if len(problem.K_p) else 4.0
    eta_node = np.array([nearest[nid][1] for nid in idx.node_ids])
    rho_tot = p_hat / (problem.c_h2 * eta_node + problem.c_ng * (1.0 - eta_node))
    idx.block(x, "rho_h2")[:] = (eta_node * rho_tot)[:, None]
    idx.block(x, "rho_ng")[:] = ((1.0 - eta_node) * rho_tot)[:, None]
    idx.block(x, "eta")[:] = eta_node[:, None]
    if len(idx.compressor_ids):
        idx.block(x, "alpha")[:] = 1.0

    nodes = idx.node_ids
    pos = idx.node_pos
    n_nodes = len(nodes)
    node_objs = {n.id: n for n in segnet.nodes}
    qw = np.zeros(len(idx.withdrawal_ids))
    ge = np.zeros(len(idx.withdrawal_ids))
    qs = np.zeros(len(idx.supply_ids))
    sup_pos = {nid: k for k, nid in enumerate(idx.supply_ids)}
    r = problem.heat_ratio
    for k, nid in enumerate(idx.withdrawal_ids):
        node = node_objs[nid]
        target = node.gE_fixed if node.gE_fixed is not None else node.gE_max
        eta_w = eta_node[pos[nid]]
        ge[k] = target / problem.energy0
        qw[k] = ge[k] / ((r - 1.0) * eta_w + 1.0)
        source = nearest[nid][0]
        if source in sup_pos:
            qs[sup_pos[source]] += qw[k]
    if len(qs):
        qs = np.minimum(qs, problem.scenario.qs_max / problem.flow0)
        # balance any remainder through the first slack supply
        deficit = qw.sum() - qs.sum()
        if abs(deficit) > 0.0:
            qs[0] = np.clip(qs[0] + deficit, 0.0,
                            problem.scenario.qs_max / problem.flow0)

    n_flow = len(segnet.segments) + len(segnet.compressors)
    A = np.zeros((n_nodes, n_flow))
    for e, s in enumerate(segnet.segments):
        A[pos[s.to_node], e] += 1.0
        A[pos[s.from_node], e] -= 1.0
    base = len(segnet.segments)
    for e, c in enumerate(segnet.compressors):
        A[pos[c.to_node], base + e] += 1.0
        A[pos[c.from_node], base + e] -= 1.0
    b = np.zeros(n_nodes)
    for k, nid in enumerate(idx.withdrawal_ids):
        b[pos[nid]] += qw[k]
    for k, nid in enumerate(idx.supply_ids):
        b[pos[nid]] -= qs[k]
    u = np.linalg.lstsq(A, b, rcond=None)[0]
    nseg = len(segnet.segments)
    idx.block(x, "f0")[:] = u[:nseg, None]
    idx.block(x, "fl")[:] = u[:nseg, None]
    if len(segnet.compressors):
        fc = u[nseg:nseg + len(segnet.compressors)]
        ub = np.array([c.fc_max / problem.flow0 for c in segnet.compressors])
        idx.block(x, "fc")[:] = np.clip(fc, 0.0, ub)[:, None]
    if len(idx.supply_ids):
        idx.block(x, "qs")[:] = qs[:, None]
    if len(idx.withdrawal_ids):
        idx.block(x, "qw")[:] = qw[:, None]
        idx.block(x, "ge")[:] = ge[:, None]
    return x


def solve_steady(segnet: SegmentedNetwork, scenario: Scenario,
                 options: Optional[SolverOptions] = None,
                 smoothing_eps: float = 1e-8):
    """Solve the single-period problem with all data frozen at t = 0.

    On the one-point cyclic grid the forward differences cancel exactly,
    so the result is a true steady state.  Returns (result, problem).
    """
    grid = TimeGrid(n_points=1, dt=scenario.dt)
    problem = assemble_nlp(segnet, scenario, grid, smoothing_eps=smoothing_eps)
    x0 = _steady_initial_point(problem)
    result = solve_nlp(problem, x0, options)
    return result, problem


def replicate_steady(steady_problem: NlpProblem, x_steady: np.ndarray,
                     problem: NlpProblem) -> np.ndarray:
    """Tile a steady solution across the transient grid (same network)."""
    x = np.zeros(problem.index.total)
    for q in ("rho_h2", "rho_ng", "eta", "f0", "fl", "alpha", "fc",
              "qs", "qw", "ge"):
        src = steady_problem.index.block(x_steady, q)
        if src.size:
            problem.index.block(x, q)[:] = src[:, :1]
    return x


def solve_transient(segnet: SegmentedNetwork, scenario: Scenario,
                    options: Optional[SolverOptions] = None,
                    smoothing_eps: float = 1e-8,
                    steady: Optional[tuple] = None):
    """Two-stage solve: steady state first, then the cyclic transient
    problem warm-started from the replicated steady solution.

    Returns (result, problem, steady_result).
    """
    options = options or SolverOptions()
    if steady is None:
        steady_result, steady_problem = solve_steady(
            segnet, scenario, options, smoothing_eps=smoothing_eps)
    else:
        steady_result, steady_problem = steady
    grid = TimeGrid(n_points=scenario.n_steps, dt=scenario.dt)
    problem = assemble_nlp(segnet, scenario, grid, smoothing_eps=smoothing_eps)
    x0 = replicate_steady(steady_problem, steady_result.x, problem)
    result = solve_nlp(problem, x0, options)
    return result, problem, steady_result
