"""Primal-dual interior-point solver with a filter line search.

The solver handles problems of the form

    min f(x)  s.t.  c_eq(x) = 0,  l_I <= c_in(x) <= u_I,  lb <= x <= ub.

Slacks s turn the inequalities into equalities c_in(x) - s = 0, and a
linear pin row holds each variable whose bounds coincide, so every other
inequality is a simple bound on y = [x; s].  The finite bounds form one
list of one-sided bounds, each with its variable, side (lower or upper),
value, gap and multiplier; a logarithmic barrier on the gaps, their
complementarity and the dual step are all taken over that list.

Each iteration solves the primal-dual Newton system: a sparse symmetric
KKT matrix on the sparsity patterns the problem fixes at assembly
(``jac_const`` and ``hess_pattern``), held in one CSC matrix that is
refilled in place and factored by SuperLU in the order found at the first
factorization.  A matrix of 1,000 rows or more is factored without row
pivoting, in a minimum-degree order of K + K^T, and its solves are refined
against K; once such a factor fails, that build and every later one are
factored with threshold pivoting in a COLAMD order, as smaller matrices
always are.  Without inertia information, the primal block is regularized
until the direction has positive curvature.
A filter line search accepts the step: every trial, second-order
corrections included, passes one test (Armijo decrease for an f-type
step, else the filter).  When the KKT system or the line search fails, a
Levenberg-Marquardt feasibility restoration takes over; if it fails too,
the result is the last accepted iterate.  Each iterate is evaluated once,
into one record that the KKT error, the KKT system, the line search and
restoration read.

The result reports full-length bound multipliers on x.  A pinned
variable's pin-row multiplier becomes its lower or upper bound
multiplier, so the returned multipliers satisfy stationarity without the
pin rows.  solve_steady returns the problem it solved, for the post-solve
audit to reuse.  solve_transient solves one period of data that repeat
over the horizon (Scenario.periods) and returns that result repeated
onto the horizon problem, which it returns for the audit instead.
"""

from __future__ import annotations

import numbers
import time
from dataclasses import dataclass, field, replace
from types import SimpleNamespace
from typing import Optional

import numpy as np
import scipy.sparse as sp
from scipy.sparse.linalg import splu

from .transcription import NlpProblem, TimeGrid, assemble_nlp, compressed_layout
from .network import Scenario, SegmentedNetwork

_MU_INIT = 1e-1
_TAU_MIN = 0.99
_REG_MIN = 1e-8
_ALPHA_MIN = 1e-12
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
# SuperLU supernode settings for every KKT factorization (SuperLU's own
# defaults are panels of 20 columns, relaxed supernodes of 10): one-column
# panels factor the KKT matrices of both bundled cases and of the steady
# problem faster than wider ones
_LU_PANEL = 1
_LU_RELAX = 5
# a KKT matrix of at least this many rows is factored without row pivoting
# until such a factor fails (see _KktMatrix); a smaller one always pivots
_UNPIVOTED_ROWS = 1000
# a solve with an unpivoted factor is refined against K by up to
# _REFINE_STEPS steps, until its residual is at most _REFINE_TOL * (|b| + 1)
# or a step does not halve it
_REFINE_STEPS = 5
_REFINE_TOL = 1e-13


@dataclass
class SolverOptions:
    kkt_tol: float = 1e-6
    max_iter: int = 3000

    def __post_init__(self):
        if not 0.0 < self.kkt_tol < np.inf:
            raise ValueError(f"kkt_tol must be positive and finite, got {self.kkt_tol}")
        if not isinstance(self.max_iter, numbers.Integral) or self.max_iter < 1:
            raise ValueError(f"max_iter must be an integer >= 1, got {self.max_iter!r}")


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
    # one row per accepted step: iteration, mu, objective, violation, kkt,
    # step, regularization, the KKT factorizations since the row before
    # (retries, and those of an iteration that went to restoration,
    # included) and whether the step's direction came from a factor with
    # row pivoting
    log: list = field(default_factory=list)


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
        # CSR pattern of [J_eq; P, -I; pin rows], J_eq in its own order;
        # the inequality rows and the pin rows are linear, so their values
        # are set here once
        J = problem.jac_const
        self.j_pattern = sp.vstack(
            [sp.csr_matrix((J.data, J.indices, J.indptr), shape=(problem.n_eq, self.n_y)),
             sp.hstack([problem.ineq_jacobian(np.zeros(self.n_x)),
                        -sp.identity(self.n_s, format="csr")], format="csr"),
             sp.identity(self.n_y, format="csr")[self.fix_idx]], format="csr")
        self._const_values = self.j_pattern.data[J.nnz:]
        self._j_rows = np.repeat(np.arange(self.m), np.diff(self.j_pattern.indptr))

    def split(self, y):
        return y[:self.n_x], y[self.n_x:]

    def constraints(self, y):
        x, s = self.split(y)
        return np.concatenate([self.p.eq_constraints(x), self.p.ineq_constraints(x) - s,
                               x[self.fix_idx] - self.fix_val])

    def jacobian(self, y) -> np.ndarray:
        """Values of the equality rows then the constant rows, in the order
        of the CSR pattern ``j_pattern``; each call returns new values."""
        j_eq = _fitted(self.p.eq_jacobian(y[:self.n_x]), self.p.jac_const,
                       "eq_jacobian", "jac_const")
        return np.concatenate([j_eq, self._const_values])

    def jacobian_t_dot(self, J, v) -> np.ndarray:
        """J^T v for Jacobian values J from ``jacobian``, summed over the
        fixed pattern without building J^T."""
        return np.bincount(self.j_pattern.indices, weights=J * v[self._j_rows],
                           minlength=self.n_y)

    def objective(self, y) -> float:
        return self.p.objective(y[:self.n_x])

    def gradient(self, y) -> np.ndarray:
        g = np.zeros(self.n_y)
        g[:self.n_x] = self.p.gradient(y[:self.n_x])
        return g

    def hessian(self, y, lam) -> np.ndarray:
        """Values of the Hessian of the Lagrangian in x on the problem's
        ``hess_pattern`` (n_x x n_x); the slacks enter linearly, so their
        rows and columns are zero."""
        return _fitted(self.p.lagrangian_hessian(y[:self.n_x], lam[:self.p.n_eq]),
                       self.p.hess_pattern, "lagrangian_hessian", "hess_pattern")


def _fitted(values, pattern, method, pattern_name):
    """The values an evaluation returned, if they fit the pattern's entries."""
    if np.shape(values) != (pattern.nnz,):
        raise ValueError(f"{method} returned values of shape {np.shape(values)}, "
                         f"not one per entry of {pattern_name} ({pattern.nnz})")
    return values


class _KktMatrix:
    """KKT matrix [[W + diag(d), J^T], [J, -delta_c I]] on a CSC pattern
    fixed by the Hessian and Jacobian patterns and laid out by
    ``compressed_layout``.  One CSC matrix ``K`` holds it for the whole
    solve; every build writes the values in place into ``K.data``, block
    by block, with no array the size of the pattern.  The values of W (its
    lower triangle) and J come from _BarrierProblem.hessian and
    _BarrierProblem.jacobian, in the order of their patterns.

    ``slot`` maps, in order, the values of W (lower triangle) and of J
    (lower block), the same values again as their mirror images W^T and
    J^T, the n diagonal entries d and the m entries -delta_c to their
    places in the pattern.  The primal diagonal is the one set of
    positions that blocks share (the diagonal of W, of W^T and d); every
    other position has exactly one source.

    The pattern is stored symmetrically permuted: entry (i, j) of K is
    entry (q[i], q[j]) of the KKT matrix, and ``primal`` marks the entries
    with q < n.  q is the identity until the first factorization succeeds.
    That one orders K (``permc_spec``) and keeps only perm_c.  The next
    build, which callers make after releasing that factor, stores K's
    pattern and ``slot`` permuted once to that order, and every later
    factorization takes the stored order as it is (NATURAL).

    A smaller matrix is factored with threshold partial pivoting in a
    COLAMD order.  One of at least _UNPIVOTED_ROWS rows is factored without
    row pivoting (``pivoted`` false), in a minimum-degree order of K + K^T,
    and each solve with that factor is refined against K.  When such a
    factor raises or its solve misses the caller's residual tolerance, it
    is freed and the same K is factored with pivoting in a COLAMD order of
    K as stored; so is every later build of the solve, since the barrier
    parameter only falls and later matrices are worse conditioned.  Only a
    failure at the first factorization leaves K to be stored in the COLAMD
    order, which makes the rest of the solve that of a smaller matrix.
    ``factorizations`` counts every factorization."""

    def __init__(self, w_pattern, j_pattern):
        m, n = j_pattern.shape
        self.n = n
        self.size = n + m
        # W and J as entries (rows, cols) of K's lower triangle
        w, j = w_pattern.tocoo(), j_pattern.tocoo()
        rows, cols = np.concatenate([w.row, n + j.row]), np.concatenate([w.col, j.col])
        diag = np.arange(self.size)
        # listed column first (CSC): W and J, W^T and J^T, the diagonal
        indices, indptr, self.slot = compressed_layout(
            np.concatenate([cols, rows, diag]), np.concatenate([rows, cols, diag]),
            self.size, self.size)
        self.K = sp.csc_matrix((np.zeros(len(indices)), indices, indptr),
                               shape=(self.size, self.size))
        self.q = diag
        self.primal = diag < n
        self.ordered = False
        self.pivoted = self.size < _UNPIVOTED_ROWS
        self.permc_spec = "COLAMD" if self.pivoted else "MMD_AT_PLUS_A"
        self.factorizations = 0
        self._perm = None                    # the order found, for the next build

    def build(self, W, J, d, delta_c):
        if self._perm is not None:
            # entry (r, c) of K moves to (perm_c[r], perm_c[c])
            K, perm = self.K, self._perm
            cols = np.repeat(np.arange(self.size), np.diff(K.indptr))
            K.indices[:], K.indptr[:], moved = compressed_layout(
                perm[cols], perm[K.indices], self.size, self.size)
            self.slot = moved[self.slot]
            self.q = np.argsort(perm)
            self.primal = self.q < self.n
            self.ordered, self.permc_spec = True, "NATURAL"
            self._perm = None
        # W, W^T and d share the primal diagonal: reset it before W lands
        # and add d after, so no entry keeps the last build's value
        w_at, j_at, wt_at, jt_at, d_at, c_at = np.split(
            self.slot, np.cumsum([len(W), len(J), len(W), len(J), self.n]))
        data = self.K.data
        data[d_at] = 0.0
        data[w_at] = W
        data[wt_at] = W
        data[d_at] += d
        data[j_at] = J
        data[jt_at] = J
        data[c_at] = -delta_c
        return self.K

    def factor(self, K):
        """SuperLU factor of the built matrix K, in K's order q."""
        self.factorizations += 1
        options = dict(SymmetricMode=True)
        if not self.pivoted:
            options["DiagPivotThresh"] = 0.0
        lu = splu(K, permc_spec=self.permc_spec, options=options,
                  panel_size=_LU_PANEL, relax=_LU_RELAX)
        if not self.ordered:
            self._perm = lu.perm_c.astype(np.int64)
        return lu

    def solve(self, K, b, tol):
        """Factor the built matrix K and solve K d = b, both in K's order q.
        Returns (d, lu) when d is finite and its residual is at most tol,
        else (None, None); a failed unpivoted factor falls back to pivoting
        on the same K."""
        while True:
            d = None
            try:
                lu = self.factor(K)
                d, res = _refined_solve(lu, K, b, not self.pivoted)
            except RuntimeError:
                pass
            if d is not None and np.all(np.isfinite(d)) and res <= tol:
                return d, lu
            lu = None                        # free the failed factor first
            if self.pivoted:
                return None, None
            self.pivoted, self.permc_spec, self._perm = True, "COLAMD", None


def _refined_solve(lu, K, b, refine):
    """Solution d of K d = b from the factor lu of K, and its residual
    max |b - K d|; with ``refine``, after iterative refinement against K
    (see _REFINE_STEPS), each step kept if it lowers the residual."""
    d = lu.solve(b)
    r = b - K @ d
    res = np.abs(r).max(initial=0.0)
    tol = _REFINE_TOL * (np.abs(b).max(initial=0.0) + 1.0)
    for _ in range(_REFINE_STEPS if refine else 0):
        if not tol < res < np.inf:
            break
        d_new = d + lu.solve(r)
        r_new = b - K @ d_new
        res_new = np.abs(r_new).max(initial=0.0)
        halved = res_new <= 0.5 * res
        if res_new < res:
            d, r, res = d_new, r_new, res_new
        if not halved:
            break
    return d, res


def _ordered_solve(lu, K, q, refine):
    """Solve of the KKT system with the factor lu of K, which holds the KKT
    matrix in order q, refined against K if ``refine`` (_refined_solve)."""
    def solve(rhs):
        d = np.empty_like(rhs)
        d[q] = _refined_solve(lu, K, rhs[q], refine)[0]
        return d
    return solve


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


def _clip_dual(z, gap, mu):
    """Keep bound multipliers within a factor _KAPPA_SIGMA of mu / gap."""
    gap = np.maximum(gap, 1e-300)
    return np.clip(z, mu / (_KAPPA_SIGMA * gap), _KAPPA_SIGMA * mu / gap)


def _max_step(gap, rate):
    """Largest alpha in (0, 1] with alpha * rate <= gap wherever rate > 0."""
    pos = rate > 0.0
    return float(np.min(gap[pos] / rate[pos], initial=1.0))


class _InteriorPoint:
    def __init__(self, bp: _BarrierProblem, options: SolverOptions):
        self.bp = bp
        self.opt = options
        # the finite bounds of y as one list of one-sided bounds, lower
        # bounds first: bound k keeps side[k] * (y[ib[k]] - bound[k]) >= 0,
        # with side +1 for a lower and -1 for an upper bound.  Per-variable
        # sums over the list add in list order, so a variable with both
        # bounds takes its lower bound's term first.
        lower, upper = np.isfinite(bp.L), np.isfinite(bp.U)
        self.ib = np.concatenate([np.flatnonzero(lower), np.flatnonzero(upper)])
        self.side = np.repeat([1.0, -1.0], [lower.sum(), upper.sum()])
        self.bound = np.concatenate([bp.L[lower], bp.U[upper]])
        self._kkt = _KktMatrix(bp.p.hess_pattern, bp.j_pattern)

    def evaluate(self, y, lam, z, c=None, f=None):
        """Record of the iterate (y, lam, z), z the multipliers of the
        bound list: c, the values J of the Jacobian on its fixed pattern,
        f, g, J^T lam, the gaps to the bounds, their complementarity
        products comp, the mu-free part err0 of the KKT error with its
        scalings s_d and s_c, and the KKT error kkt at mu = 0.  c and f
        are evaluated unless given (the line search has them at the point
        it accepts)."""
        bp = self.bp
        pt = SimpleNamespace(y=y, lam=lam, z=z,
                             c=bp.constraints(y) if c is None else c, J=bp.jacobian(y),
                             f=bp.objective(y) if f is None else f, g=bp.gradient(y),
                             gap=self._gap(y))
        pt.jt_lam = bp.jacobian_t_dot(pt.J, lam)
        pt.comp = z * pt.gap
        z_sum, n_bounds = z.sum(), len(z)
        pt.s_d = max(_SMAX, (np.abs(lam).sum() + z_sum)
                     / max(1, len(lam) + n_bounds)) / _SMAX
        pt.s_c = max(_SMAX, z_sum / max(1, n_bounds)) / _SMAX
        stationarity = pt.g + pt.jt_lam
        np.subtract.at(stationarity, self.ib, self.side * z)
        pt.err0 = max(np.abs(stationarity).max(initial=0.0) / pt.s_d,
                      np.abs(pt.c).max(initial=0.0))
        pt.kkt = self.kkt_error(pt, 0.0)
        return pt

    def _gap(self, y):
        """Gaps of y to the bound list."""
        return self.side * (y[self.ib] - self.bound)

    # -- diagnostics --------------------------------------------------------

    def kkt_error(self, pt, mu):
        """Scaled KKT error at the record pt for barrier parameter mu."""
        return max(pt.err0, np.abs(pt.comp - mu).max(initial=0.0) / pt.s_c)

    @staticmethod
    def _barrier_value(gap, f, mu):
        """Barrier function at a point with gaps gap and objective value f."""
        if mu > 0.0:
            f -= mu * np.sum(np.log(gap))
        return f

    def _barrier_grad(self, pt, mu):
        g = pt.g.copy()
        np.subtract.at(g, self.ib, self.side * mu / pt.gap)
        return g

    def _fraction_to_boundary(self, gap, dy, tau):
        """Largest alpha in (0, 1] keeping y + alpha*dy within the bounds by
        the fraction-to-the-boundary margin (1 - tau) of the gaps of y."""
        return _max_step(gap, -self.side * dy[self.ib] / tau)

    # -- KKT solve ----------------------------------------------------------

    def _solve_kkt(self, pt, gphi, mu, delta_w_last):
        """Newton direction at the record pt; gphi is its barrier gradient."""
        n = self.bp.n_y
        J = pt.J
        W = self.bp.hessian(pt.y, pt.lam)
        sigma = np.zeros(n)
        np.add.at(sigma, self.ib, pt.z / pt.gap)
        rhs = -np.concatenate([gphi + pt.jt_lam, pt.c])
        # an inaccurate solve marks the factorization as unreliable
        res_tol = 1e-7 * (np.abs(rhs).max(initial=0.0) + 1.0)

        delta_w = 0.0
        # a small always-on dual regularization keeps the system solvable
        # when constraint rows lose rank (zero-flow mixing degeneracy)
        delta_c = _REG_MIN * max(mu, 1e-20) ** 0.5
        attempts = 0
        kkt = self._kkt
        while True:
            K = kkt.build(W, J, sigma + delta_w, delta_c)
            q = kkt.q
            d, lu = kkt.solve(K, rhs[q], res_tol)
            ok = d is not None and np.abs(d).max(initial=0.0) < 1e10
            if ok:
                # curvature dy' H dy from the H block of K ([dy; 0] in K's order)
                v = np.where(kkt.primal, d, 0.0)
                curv = float(v @ (K @ v))
                ok = curv >= 1e-11 * float(v @ v)
            if ok:
                step = np.empty_like(d)
                step[q] = d
                return step[:n], step[n:], delta_w, _ordered_solve(lu, K, q, not kkt.pivoted)
            lu = None                        # free the rejected factor before the rebuild
            attempts += 1
            delta_c = min(10.0 * delta_c, 1e-4)
            if delta_w == 0.0:
                delta_w = _DELTA_W0 if delta_w_last == 0.0 \
                    else max(_REG_MIN, delta_w_last / 3.0)
            else:
                delta_w *= 8.0
            if delta_w > _DELTA_W_MAX or attempts > 40:
                return None, None, delta_w, None

    # -- line search --------------------------------------------------------

    def _line_search(self, pt, gphi, dy, kkt_solve, mu, tau, filt, theta_min):
        """Backtracking filter line search along dy from the record pt.

        Each alpha tries the step; a rejected first step whose violation
        grew is followed by up to _MAX_SOC second-order corrections, each
        tried while it cuts the violation by _KAPPA_SOC.  Every trial passes
        one test: Armijo decrease of the barrier value when the step is
        f-type, else acceptance by the filter and the current point, which
        an accepted trial without enough barrier decrease adds to the
        filter.  A trial that rounding puts on or past a bound (a gap <= 0)
        is rejected before its objective is evaluated.  Returns (alpha, y,
        c, f) of the accepted trial, or None."""
        bp = self.bp
        y = pt.y
        theta = np.abs(pt.c).sum()
        phi = self._barrier_value(pt.gap, pt.f, mu)
        dphi = float(gphi @ dy)
        a_max = self._fraction_to_boundary(pt.gap, dy, tau)

        def trials(alpha):
            y_t = y + alpha * dy
            c_t = bp.constraints(y_t)
            theta_t = np.abs(c_t).sum()
            yield y_t, c_t, theta_t
            if not (alpha == a_max and theta_t > theta):
                return
            for _ in range(_MAX_SOC):
                dy_cor = dy + kkt_solve(-np.concatenate([np.zeros(bp.n_y), c_t]))[:bp.n_y]
                y_t = y + min(alpha, self._fraction_to_boundary(pt.gap, dy_cor, tau)) * dy_cor
                c_t, theta_old = bp.constraints(y_t), theta_t
                theta_t = np.abs(c_t).sum()
                if not theta_t <= _KAPPA_SOC * theta_old:
                    return
                yield y_t, c_t, theta_t

        alpha = a_max
        while alpha >= _ALPHA_MIN:
            f_type = (theta <= theta_min and dphi < 0.0
                      and alpha * (-dphi) ** _S_PHI > theta ** _S_THETA)
            for y_t, c_t, theta_t in trials(alpha):
                gap_t = self._gap(y_t)
                if np.any(gap_t <= 0.0):
                    continue                 # rounded onto or past a bound
                f_t = bp.objective(y_t)
                phi_t = self._barrier_value(gap_t, f_t, mu)
                accepted = phi_t <= phi + _ETA_PHI * alpha * dphi if f_type else all(
                    theta_t <= (1.0 - _GAMMA_THETA) * th_j or phi_t <= ph_j - _GAMMA_PHI * th_j
                    for th_j, ph_j in filt + [(theta, phi)])
                if accepted:
                    if not f_type and not phi_t <= phi - _GAMMA_PHI * theta:
                        filt.append(((1.0 - _GAMMA_THETA) * theta,
                                     phi - _GAMMA_PHI * theta))
                    return alpha, y_t, c_t, f_t
            alpha *= 0.5
        return None

    # -- restoration --------------------------------------------------------

    def _restore(self, pt, mu):
        """Levenberg-Marquardt steps on 0.5*||C||^2 inside the bounds,
        starting from the record pt.

        Returns (y_new, success).  Success means the violation dropped
        enough to resume the main algorithm.  The Jacobian is evaluated
        once per accepted point; rejected steps reuse J^T J and J^T c.  A
        trial equal to the last point evaluated (a step below rounding, or
        a bound-limited step whose direction did not change with lm) reuses
        its constraints.
        """
        bp = self.bp
        y, c, J = pt.y, pt.c, pt.J
        theta0 = np.abs(c).sum()
        lm = 1e-4
        best = y.copy()
        best_theta = theta0
        last, c_last = y, c
        JtJ = None
        for _ in range(40):
            theta = np.abs(c).sum()
            if theta < best_theta:
                best, best_theta = y.copy(), theta
            if theta <= 0.5 * theta0 or theta < 1e-12:
                break
            if JtJ is None:
                P = bp.j_pattern
                J = sp.csr_matrix((bp.jacobian(y) if J is None else J, P.indices, P.indptr),
                                  shape=P.shape).tocsc()
                JtJ, Jtc = J.T @ J, J.T @ c
            A = (JtJ + lm * sp.identity(bp.n_y)).tocsc()
            try:
                step = splu(A, permc_spec="COLAMD").solve(-Jtc)
            except RuntimeError:
                lm *= 10.0
                continue
            tau = max(_TAU_MIN, 1.0 - mu)
            a = min(1.0, tau * self._fraction_to_boundary(self._gap(y), step, 1.0))
            trial = y + a * step
            c_trial = c_last if np.array_equal(trial, last) else bp.constraints(trial)
            last, c_last = trial, c_trial
            if np.abs(c_trial).sum() < theta:
                y, c, J, JtJ = trial, c_trial, None, None
                lm = max(1e-8, lm / 3.0)
            else:
                lm *= 10.0
                if lm > 1e12:
                    break
        success = best_theta <= max(0.9 * theta0, 1e-10)
        return best, success and best_theta < theta0

    # -- main loop ----------------------------------------------------------

    def solve(self, x0) -> SolveResult:
        t_start = time.perf_counter()
        bp = self.bp
        opt = self.opt
        mu = _MU_INIT

        # the start point inside its bounds, slacks from its inequality values
        x = _push_inside(x0, bp.L[:bp.n_x], bp.U[:bp.n_x])
        y = np.concatenate([x, _push_inside(bp.p.ineq_constraints(x),
                                            bp.L[bp.n_x:], bp.U[bp.n_x:])])
        pt = self.evaluate(y, np.zeros(bp.m), mu / self._gap(y))
        log = []
        filt: list[tuple[float, float]] = []
        theta = np.abs(pt.c).sum()
        theta_max = 1e4 * max(1.0, theta)
        theta_min = 1e-4 * max(1.0, theta)
        delta_w_last = 0.0
        logged = 0                           # KKT factorizations in earlier log rows
        status, message = "iteration-limit", f"iteration limit of {opt.max_iter} reached"
        it = 0

        for it in range(1, opt.max_iter + 1):
            if pt.kkt <= opt.kkt_tol:
                status, message = "local-optimum", "KKT conditions satisfied"
                break
            while self.kkt_error(pt, mu) <= _KAPPA_EPS * mu \
                    and mu > opt.kkt_tol / _KAPPA_EPS:
                mu = max(opt.kkt_tol / _KAPPA_EPS,
                         min(_KAPPA_MU * mu, mu ** _THETA_MU))
                filt.clear()

            gphi = self._barrier_grad(pt, mu)
            kkt_solve = None                 # free the last factor before the next
            dy, dlam, delta_w, kkt_solve = self._solve_kkt(pt, gphi, mu, delta_w_last)
            tau = max(_TAU_MIN, 1.0 - mu)
            step = None
            if dy is not None:
                if delta_w > 0.0:
                    delta_w_last = delta_w
                step = self._line_search(pt, gphi, dy, kkt_solve, mu, tau, filt, theta_min)

            if step is None:
                y_new, ok = self._restore(pt, mu)
                if ok:
                    pt = self.evaluate(_push_inside(y_new, bp.L, bp.U), pt.lam, pt.z)
                    filt.clear()
                    delta_w_last = 0.0
                    continue
                theta = np.abs(pt.c).sum()
                if dy is None:
                    status, message = "error", "KKT system could not be regularized"
                elif theta > 1e-6 * theta_max and theta > opt.kkt_tol:
                    status, message = "infeasible", ("restoration stalled at constraint "
                                                     f"violation {theta:.3e}")
                else:
                    status, message = "error", "line search failed near a feasible point"
                break

            alpha, trial, c_t, f_t = step
            dz = (mu - self.side * pt.z * dy[self.ib]) / pt.gap - pt.z
            a_z = _max_step(pt.z, -dz / tau)
            pt = self.evaluate(trial, pt.lam + alpha * dlam,
                               _clip_dual(pt.z + a_z * dz, self._gap(trial), mu), c_t, f_t)
            log.append(dict(iteration=it, mu=mu, objective=pt.f,
                            violation=float(np.abs(pt.c).max(initial=0.0)),
                            kkt=pt.kkt, step=alpha, regularization=delta_w,
                            factorizations=self._kkt.factorizations - logged,
                            pivoted=self._kkt.pivoted))
            logged = self._kkt.factorizations

        wall = time.perf_counter() - t_start
        y, lam = pt.y, pt.lam
        # full-length bound multipliers; the multiplier lam_p of a pin row
        # goes to the side of its variable that keeps g + J^T lam - z_L + z_U
        # = 0 without the pin rows
        n_rows = bp.p.n_eq + bp.p.n_ineq
        lam_p, lower = lam[n_rows:], self.side > 0
        z_l, z_u = np.zeros(bp.n_y), np.zeros(bp.n_y)
        z_l[self.ib[lower]], z_u[self.ib[~lower]] = pt.z[lower], pt.z[~lower]
        z_l[bp.fix_idx], z_u[bp.fix_idx] = np.maximum(-lam_p, 0.0), np.maximum(lam_p, 0.0)
        return SolveResult(
            status=status, x=y[:bp.n_x], objective=pt.f,
            violation=self._violation(pt), kkt_residual=pt.kkt,
            iterations=it, wall_time=wall,
            multipliers=dict(equality=lam[:bp.p.n_eq], inequality=lam[bp.p.n_eq:n_rows],
                             bound_lower=z_l[:bp.n_x], bound_upper=z_u[:bp.n_x],
                             slacks=y[bp.n_x:]),
            message=message, log=log,
        )

    def _violation(self, pt) -> float:
        """Largest violation of a constraint or a bound at the record pt."""
        return float(max(np.abs(pt.c).max(initial=0.0), (-pt.gap).max(initial=0.0)))


def solve_nlp(problem: NlpProblem, x0: np.ndarray,
              options: Optional[SolverOptions] = None) -> SolveResult:
    """Solve an assembled problem from the given primal starting point, a
    finite array with one entry per variable; ``problem`` is an NlpProblem
    or an object with its interface, the patterns ``jac_const`` and
    ``hess_pattern`` (the Hessian's lower triangle) included."""
    x0 = np.asarray(x0, dtype=float)
    if x0.shape != (problem.index.total,):
        raise ValueError(f"x0 has shape {x0.shape}, not ({problem.index.total},)")
    if not np.all(np.isfinite(x0)):
        raise ValueError("x0 has entries that are not finite")
    options = options or SolverOptions()
    return _InteriorPoint(_BarrierProblem(problem), options).solve(x0)


# ---------------------------------------------------------------------------
# Problem-level drivers


def _steady_initial_point(problem: NlpProblem) -> np.ndarray:
    """Heuristic strictly-interior starting point for the steady problem.

    Each node takes the concentration of its nearest supply (steady flow
    cannot mix streams of different composition, so the solution is
    composed of single-supply regions); densities come from the slack
    pressure; withdrawals target full energy delivery served by their
    nearest supply; pipe and compressor flows solve the linear balance in
    the least-squares sense.

    Nearest means fewest flows away, found by a breadth-first search from
    all supplies at once; a tie goes to the supply listed first, and a node
    no supply reaches takes the first supply's concentration.
    """
    idx = problem.index
    x = np.zeros(idx.total)
    n_nodes, n_sup = len(idx.node_ids), len(problem.supply_pos)
    adjacent = [[] for _ in range(n_nodes)]
    for i, j in zip(problem.flow_from.tolist(), problem.flow_to.tolist()):
        adjacent[i].append(j)
        adjacent[j].append(i)
    # near[k]: the supply nearest to node k, n_sup while none has reached it;
    # each level lists its nodes in supply order, so a tie goes to the first
    near = [n_sup] * n_nodes
    level = problem.supply_pos.tolist()
    for k, i in enumerate(level):
        near[i] = k
    while level:
        reached = []
        for i in level:
            for j in adjacent[i]:
                if near[j] == n_sup:
                    near[j] = near[i]
                    reached.append(j)
        level = reached
    near = np.array(near, dtype=int)
    eta_sup = problem.eta_s[:, 0]
    eta_node = np.append(eta_sup, eta_sup[:1] if n_sup else 0.0)[near]
    p_hat = float(problem.K_p[0]) if len(problem.K_p) else 4.0
    rho_tot = p_hat / (problem.c_h2 * eta_node + problem.c_ng * (1.0 - eta_node))
    idx.block(x, "rho_h2")[:] = (eta_node * rho_tot)[:, None]
    idx.block(x, "rho_ng")[:] = ((1.0 - eta_node) * rho_tot)[:, None]
    idx.block(x, "eta")[:] = eta_node[:, None]
    idx.block(x, "alpha")[:] = 1.0

    # withdrawals take their upper energy bound (gE_fixed or gE_max), each
    # served by its nearest supply up to the supply cap
    wd = problem.withdrawal_pos
    ge = idx.block(problem.ub, "ge")[:, 0]
    qw = ge / ((problem.heat_ratio - 1.0) * eta_node[wd] + 1.0)
    qs_max = idx.block(problem.ub, "qs")[:, 0]
    qs = np.minimum(np.bincount(near[wd], weights=qw, minlength=n_sup + 1)[:n_sup], qs_max)
    if n_sup:
        # balance any remainder through the first slack supply
        deficit = qw.sum() - qs.sum()
        if abs(deficit) > 0.0:
            qs[0] = np.clip(qs[0] + deficit, 0.0, qs_max[0])

    n_flow = len(problem.flow_to)
    A = np.zeros((n_nodes, n_flow))
    A[problem.flow_to, np.arange(n_flow)] += 1.0
    A[problem.flow_from, np.arange(n_flow)] -= 1.0
    b = np.zeros(n_nodes)
    b[wd] = qw
    b[problem.supply_pos] -= qs
    u = np.linalg.lstsq(A, b, rcond=None)[0]
    nseg = len(idx.segment_ids)
    idx.block(x, "f0")[:] = u[:nseg, None]
    idx.block(x, "fl")[:] = u[:nseg, None]
    idx.block(x, "fc")[:] = np.clip(u[nseg:], 0.0, idx.block(problem.ub, "fc")[:, 0])[:, None]
    idx.block(x, "qs")[:] = qs[:, None]
    idx.block(x, "qw")[:] = qw[:, None]
    idx.block(x, "ge")[:] = ge[:, None]
    return x


def solve_steady(segnet: SegmentedNetwork, scenario: Scenario,
                 options: Optional[SolverOptions] = None):
    """Solve the single-period problem with all data frozen at t = 0.

    On the one-point cyclic grid the forward differences cancel exactly,
    so the result is a true steady state.  Returns (result, problem).
    """
    grid = TimeGrid(n_points=1, dt=scenario.dt)
    problem = assemble_nlp(segnet, scenario, grid)
    x0 = _steady_initial_point(problem)
    result = solve_nlp(problem, x0, options)
    return result, problem


def replicate_steady(x_steady: np.ndarray, problem: NlpProblem) -> np.ndarray:
    """Tile a steady solution across the transient grid (same network).

    Both layouts are entity-major and time-minor, so each steady value
    repeats once per time step in place.
    """
    return np.repeat(x_steady, problem.grid.n_points)


def solve_transient(segnet: SegmentedNetwork, scenario: Scenario,
                    x_steady: np.ndarray, options: Optional[SolverOptions] = None):
    """Solve the cyclic transient problem warm-started from the steady
    solution x_steady (see solve_steady), replicated across the grid.

    When the data repeat m = scenario.periods times over the horizon, the
    problem solved is that of one period, N/m steps.  This is exact: a
    shift of N/m steps leaves the horizon problem unchanged, and the
    interior-point path from the shift-invariant replicated start stays
    shift-invariant.  The result is unfolded onto the horizon problem: x,
    the multipliers and the slacks repeat m times, and the objective is
    the horizon's at that x; status, iterations, violation, KKT residual
    and log are the one-period solve's.  With m = 1 the horizon problem is
    the one solved.

    Returns (result, problem), problem the horizon problem.
    """
    m = scenario.periods
    n_period = scenario.n_steps // m
    period = assemble_nlp(segnet, scenario, TimeGrid(n_points=n_period, dt=scenario.dt))
    result = solve_nlp(period, replicate_steady(x_steady, period), options)
    if m == 1:
        return result, period
    problem = assemble_nlp(segnet, scenario,
                           TimeGrid(n_points=scenario.n_steps, dt=scenario.dt))

    def unfold(v):
        # entity-major, time-minor: each row is one entity's period
        return np.tile(v.reshape(-1, n_period), m).ravel()

    x = unfold(result.x)
    return replace(result, x=x, objective=problem.objective(x),
                   multipliers={k: unfold(v) for k, v in result.multipliers.items()}), problem
