import builtins
import copy
import dataclasses
import json
import re
import sys
import tracemalloc
import types
import warnings

import numpy as np
import pytest
import scipy.sparse as sp
from scipy.sparse.linalg import splu

import h2blend.solver
from conftest import LINE_NETWORK_DOC, line_network, short_scenario
from h2blend.cli import bundled_path
from h2blend.network import (
    Profile,
    load_network,
    load_scenario,
    parse_network,
    parse_scenario,
    segment_pipes,
)
from h2blend.physics import GasConstants
from h2blend.solution import SolutionTrajectory
from h2blend.solver import (
    SolverOptions,
    _BarrierProblem,
    _InteriorPoint,
    _KktMatrix,
    _push_inside,
    _steady_initial_point,
    replicate_steady,
    solve_nlp,
    solve_steady,
    solve_transient,
)
from h2blend.transcription import NlpProblem, TimeGrid, assemble_nlp
from h2blend.validation import run_audits


def kkt_residuals(problem, result) -> dict:
    """Stationarity of the returned multipliers, feasibility, and the scaled
    KKT error from the solver's own evaluation and KKT-error routine, for
    which the pinned variables' multipliers go back onto their pin rows."""
    bp = _BarrierProblem(problem)
    ip = _InteriorPoint(bp, SolverOptions())
    mult = result.multipliers
    y = np.concatenate([result.x, mult["slacks"]])
    zl = np.concatenate([mult["bound_lower"], np.zeros(bp.n_s)])
    zu = np.concatenate([mult["bound_upper"], np.zeros(bp.n_s)])
    lam = np.concatenate([mult["equality"], mult["inequality"],
                          zu[bp.fix_idx] - zl[bp.fix_idx]])
    pt = ip.evaluate(y, lam, np.where(ip.side > 0, zl[ip.ib], zu[ip.ib]))
    lam[problem.n_eq + problem.n_ineq:] = 0.0
    return {
        "stationarity": float(np.abs(pt.g + bp.jacobian_t_dot(pt.J, lam) - zl + zu)
                              .max(initial=0.0)),
        "feasibility": float(np.abs(pt.c).max(initial=0.0)),
        "kkt_error": float(ip.kkt_error(pt, 0.0)),
    }


class QuadraticProblem:
    """min (x0 - 2)^2 + (x1 + 1)^2  s.t.  x0 + x1 = 1, lb <= x <= ub.

    Exposes the same interface the interior-point solver consumes: the
    two sparsity patterns, and evaluations that return the values on them.
    """

    def __init__(self, lb=(-5.0, -5.0), ub=(np.inf, np.inf)):
        self.index = types.SimpleNamespace(total=2)
        self.n_eq = 1
        self.n_ineq = 0
        self.jac_const = sp.csr_matrix(np.array([[1.0, 1.0]]))
        self.hess_pattern = sp.identity(2, format="csr")
        self.lb = np.array(lb, dtype=float)
        self.ub = np.array(ub, dtype=float)
        self.ineq_lb = np.zeros(0)
        self.ineq_ub = np.zeros(0)

    def eq_constraints(self, x):
        return np.array([x[0] + x[1] - 1.0])

    def ineq_constraints(self, x):
        return np.zeros(0)

    def eq_jacobian(self, x):
        return np.array([1.0, 1.0])

    def ineq_jacobian(self, x):
        return sp.csr_matrix((0, 2))

    def objective(self, x):
        return float((x[0] - 2.0) ** 2 + (x[1] + 1.0) ** 2)

    def gradient(self, x):
        return np.array([2.0 * (x[0] - 2.0), 2.0 * (x[1] + 1.0)])

    def lagrangian_hessian(self, x, lam_eq):
        return np.array([2.0, 2.0])


class TestInteriorPointOnQuadratics:
    def test_unconstrained_vertex_satisfies_the_equality(self):
        prob = QuadraticProblem()
        result = solve_nlp(prob, np.array([0.0, 0.0]))
        assert result.status == "local-optimum"
        assert result.x == pytest.approx([2.0, -1.0], abs=1e-6)
        assert result.objective == pytest.approx(0.0, abs=1e-10)

    def test_active_upper_bound(self):
        prob = QuadraticProblem(ub=(1.0, np.inf))
        result = solve_nlp(prob, np.array([0.0, 0.0]))
        assert result.status == "local-optimum"
        assert result.x == pytest.approx([1.0, 0.0], abs=1e-6)
        assert result.objective == pytest.approx(2.0, abs=1e-6)

    @pytest.mark.parametrize("bounds, x", [
        (dict(ub=(1.0, np.inf)), (1.0, 0.0)),
        (dict(lb=(3.0, -5.0)), (3.0, -2.0)),
        (dict(lb=(0.5, -5.0), ub=(0.5, np.inf)), (0.5, 0.5)),
    ], ids=["upper-active", "lower-active", "pinned"])
    def test_kkt_residuals_at_solution(self, bounds, x):
        """The returned multipliers satisfy stationarity with an active
        upper or lower bound, and for a variable pinned by lb == ub."""
        prob = QuadraticProblem(**bounds)
        result = solve_nlp(prob, np.array([0.0, 0.0]))
        assert result.status == "local-optimum"
        assert result.x == pytest.approx(x, abs=1e-6)
        res = kkt_residuals(prob, result)
        assert res["feasibility"] <= 1e-8
        assert res["stationarity"] <= 1e-5
        assert res["kkt_error"] <= SolverOptions().kkt_tol

    def test_iteration_limit_status(self):
        prob = QuadraticProblem()
        result = solve_nlp(prob, np.array([40.0, -40.0]),
                           SolverOptions(max_iter=1))
        assert result.status == "iteration-limit"
        assert result.status != "local-optimum"
        assert result.message == "iteration limit of 1 reached"


def steady_line_case(eta_s=0.0, **scenario_overrides):
    scenario = short_scenario(**scenario_overrides)
    segnet = segment_pipes(line_network(eta_s=eta_s), scenario.dL)
    return segnet, scenario


def fixed_demand_network(eta_s=0.0):
    """The line network whose withdrawal takes a fixed 5000 MJ/s (gE_fixed)."""
    doc = copy.deepcopy(LINE_NETWORK_DOC)
    doc["nodes"][0]["eta_s"] = eta_s
    doc["nodes"][1].pop("gE_max")
    doc["nodes"][1]["gE_fixed"] = 5000.0
    return parse_network(doc)


def two_stage(segnet, scenario):
    """The steady solve, then the transient one warm-started from it."""
    steady_result, _ = solve_steady(segnet, scenario)
    return (steady_result,) + solve_transient(segnet, scenario, steady_result.x)


def restoration_line_case():
    """Line case whose transient solve ends in restoration (infeasible)."""
    doc = copy.deepcopy(LINE_NETWORK_DOC)
    doc["nodes"][1]["gE_max"] = 5000.0
    scenario = short_scenario(profiles={
        "N1": {"type": "sinusoid", "eta0": 0.1, "delta": 0.05}})
    return segment_pipes(parse_network(doc), scenario.dL), scenario


@pytest.fixture
def kkt_factorizations(monkeypatch):
    """Records (column ordering, matrix, factor, (panel_size, relax)) of
    every KKT factorization; the restoration factorizations have no
    SymmetricMode."""
    calls = []
    splu = h2blend.solver.splu

    def recorded_splu(A, *args, **kwargs):
        lu = splu(A, *args, **kwargs)
        if kwargs.get("options", {}).get("SymmetricMode"):
            calls.append((kwargs["permc_spec"], A.copy(), lu,
                          (kwargs.get("panel_size"), kwargs.get("relax"))))
        return lu

    monkeypatch.setattr(h2blend.solver, "splu", recorded_splu)
    return calls


class ConcaveProblem(QuadraticProblem):
    """max (x0 - 2)^2 + (x1 + 1)^2 on the box [-5, 5]^2 with x0 + x1 = 1:
    the Hessian is negative definite, so the curvature test forces
    regularization retries."""

    def objective(self, x):
        return -super().objective(x)

    def gradient(self, x):
        return -super().gradient(x)

    def lagrangian_hessian(self, x, lam_eq):
        return np.array([-2.0, -2.0])


class TestInputChecks:
    @pytest.mark.parametrize("make_x0, message", [
        (lambda n: np.zeros(1), "x0 has shape (1,), not ({n},)"),
        (lambda n: np.zeros(n + 1), "x0 has shape ({n1},), not ({n},)"),
        (lambda n: np.full(n, np.nan), "x0 has entries that are not finite"),
    ], ids=["one-entry", "one-too-many", "nan"])
    def test_start_point_must_fit_the_problem(self, make_x0, message):
        """A start point that numpy could broadcast, or one that is not
        finite, is rejected before the solve starts."""
        segnet, scenario = steady_line_case()
        problem = assemble_nlp(segnet, scenario, TimeGrid(1, scenario.dt))
        n = problem.index.total
        with pytest.raises(ValueError, match=re.escape(message.format(n=n, n1=n + 1))):
            solve_nlp(problem, make_x0(n))

    @pytest.mark.parametrize("kkt_tol", [0.0, -1.0, np.nan, np.inf])
    def test_kkt_tol_must_be_positive_and_finite(self, kkt_tol):
        with pytest.raises(ValueError, match="kkt_tol must be positive and finite"):
            SolverOptions(kkt_tol=kkt_tol)

    @pytest.mark.parametrize("max_iter", [0, -3, 2.5, "10"])
    def test_max_iter_must_be_a_positive_integer(self, max_iter):
        with pytest.raises(ValueError, match="max_iter must be an integer >= 1"):
            SolverOptions(max_iter=max_iter)

    def test_max_iter_takes_a_numpy_integer(self):
        assert SolverOptions(max_iter=np.int64(5)).max_iter == 5


class TestFixedKktPattern:
    def test_kkt_pattern_is_fixed_across_a_solve(self, kkt_factorizations):
        segnet, scenario = steady_line_case(profiles={
            "N1": {"type": "sinusoid", "eta0": 0.1, "delta": 0.05}})
        steady = solve_steady(segnet, scenario)
        steady_calls = list(kkt_factorizations)
        kkt_factorizations.clear()
        result, _ = solve_transient(segnet, scenario, steady[0].x)
        assert result.status == "local-optimum"
        for calls in (steady_calls, kkt_factorizations):
            # one factorization or more per iteration but the converged last
            assert len(calls) >= 4
            # COLAMD orders the first KKT matrix of each solve; every later
            # one is factored in that stored order, on one pattern
            assert [c[0] for c in calls] == ["COLAMD"] + ["NATURAL"] * (len(calls) - 1)
            first = calls[1][1]
            for _, other, _, _ in calls[2:]:
                assert np.array_equal(other.indptr, first.indptr)
                assert np.array_equal(other.indices, first.indices)
            # every factorization, the COLAMD one included, uses the
            # solver's SuperLU supernode settings
            assert {c[3] for c in calls} == {(h2blend.solver._LU_PANEL,
                                              h2blend.solver._LU_RELAX)}
        assert len(kkt_factorizations) >= result.iterations - 1

    def test_regularization_retry_reuses_the_stored_ordering(self, kkt_factorizations,
                                                             monkeypatch):
        per_call = []
        solve_kkt = _InteriorPoint._solve_kkt

        def counted_solve_kkt(self, *args):
            before = len(kkt_factorizations)
            out = solve_kkt(self, *args)
            per_call.append([c[0] for c in kkt_factorizations[before:]])
            return out

        monkeypatch.setattr(_InteriorPoint, "_solve_kkt", counted_solve_kkt)
        result = solve_nlp(ConcaveProblem(ub=(5.0, 5.0)), np.array([0.0, 0.0]))
        assert result.status == "local-optimum"
        assert result.x == pytest.approx([-4.0, 5.0], abs=1e-6)
        # the first direction needs retries after its COLAMD factorization,
        # and later directions need retries too
        assert per_call[0][0] == "COLAMD" and len(per_call[0]) > 1
        assert any(len(specs) > 1 for specs in per_call[1:])
        assert sum(specs.count("COLAMD") for specs in per_call) == 1

    def test_direction_matches_a_direct_colamd_solve(self, kkt_factorizations,
                                                     monkeypatch):
        """Each direction solved through the stored ordering, and each
        correction solve, equals a COLAMD solve of the KKT matrix in its
        own row and column order."""
        directions = []
        solve_kkt = _InteriorPoint._solve_kkt

        def checked_solve_kkt(self, pt, gphi, mu, delta_w_last):
            dy, dlam, delta_w, kkt_solve = solve_kkt(self, pt, gphi, mu, delta_w_last)
            rhs = -np.concatenate([self._barrier_grad(pt, mu)
                                   + self.bp.jacobian_t_dot(pt.J, pt.lam), pt.c])
            rhs_soc = -np.concatenate([np.zeros(len(pt.y)), pt.c])
            directions.append((kkt_factorizations[-1][1], rhs, np.concatenate([dy, dlam]),
                               rhs_soc, kkt_solve(rhs_soc)))
            return dy, dlam, delta_w, kkt_solve

        monkeypatch.setattr(_InteriorPoint, "_solve_kkt", checked_solve_kkt)
        segnet, scenario = steady_line_case(profiles={
            "N1": {"type": "sinusoid", "eta0": 0.1, "delta": 0.05}})
        steady = solve_steady(segnet, scenario)
        kkt_factorizations.clear()
        directions.clear()
        result, _ = solve_transient(segnet, scenario, steady[0].x)
        assert result.status == "local-optimum"
        assert len(directions) >= 4
        # stored matrices are K[q][:, q] with q = argsort(perm_c) of the
        # solve's first factorization, so K = stored[perm_c][:, perm_c]
        assert kkt_factorizations[0][0] == "COLAMD"
        perm = kkt_factorizations[0][2].perm_c
        for stored, rhs, d, rhs_soc, d_soc in directions[1:]:
            K = stored[perm][:, perm].tocsc()
            lu = splu(K, permc_spec="COLAMD", options=dict(SymmetricMode=True))
            for b, x in ((rhs, d), (rhs_soc, d_soc)):
                direct = lu.solve(b)
                assert np.abs(x - direct).max() <= 1e-10 * np.abs(direct).max()

    def test_kkt_matrix_is_refilled_in_place(self, kkt_factorizations, monkeypatch):
        """Every build of a solve returns the one CSC matrix of that solve,
        and each factor still solves the system it was computed for after
        the matrix has been refilled with later values."""
        built = []
        build = _KktMatrix.build

        def recorded_build(self, *args):
            K = build(self, *args)
            built.append(K)
            return K

        monkeypatch.setattr(_KktMatrix, "build", recorded_build)
        segnet, scenario = steady_line_case(profiles={
            "N1": {"type": "sinusoid", "eta0": 0.1, "delta": 0.05}})
        steady = solve_steady(segnet, scenario)
        assert steady[0].status == "local-optimum"
        assert len(built) >= 4 and all(K is built[0] for K in built)
        assert len(kkt_factorizations) == len(built)
        K = built[0]
        rng = np.random.default_rng(0)
        # every factorization but the last was followed by a refill
        for _, A, lu, _ in kkt_factorizations[:-1]:
            assert not np.array_equal(A.data, K.data)
            b = rng.standard_normal(A.shape[0])
            assert np.abs(A @ lu.solve(b) - b).max() <= 1e-7 * (np.abs(b).max() + 1.0)
        # the COLAMD factorization's matrix was in the original order
        assert not np.array_equal(kkt_factorizations[0][1].indices, K.indices)

    @staticmethod
    def transient_kkt():
        """The KKT matrix of the transient sinusoid line case, and a draw of
        random values (W, J, d, delta_c) for it."""
        segnet, scenario = steady_line_case(profiles={
            "N1": {"type": "sinusoid", "eta0": 0.1, "delta": 0.05}})
        bp = _BarrierProblem(assemble_nlp(segnet, scenario,
                                          TimeGrid(scenario.n_steps, scenario.dt)))
        rng = np.random.default_rng(7)

        def draw():
            return (rng.standard_normal(bp.p.hess_pattern.nnz),
                    rng.standard_normal(bp.j_pattern.nnz),
                    rng.standard_normal(bp.n_y), rng.uniform(1e-9, 1e-4))

        return bp, _KktMatrix(bp.p.hess_pattern, bp.j_pattern), draw

    def test_build_allocates_no_array_the_size_of_the_pattern(self):
        """A refill writes into K's own values: what it allocates stays
        below one float per stored entry."""
        _, kkt, draw = self.transient_kkt()
        K = kkt.build(*draw())
        values = draw()
        tracemalloc.start()
        try:
            tracemalloc.reset_peak()
            kkt.build(*values)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < K.nnz * K.data.itemsize

    def test_every_build_writes_exactly_the_kkt_matrix(self):
        """After a refill, and after the refill that stores K in the COLAMD
        order, K holds exactly [[W + diag(d), J^T], [J, -delta_c I]] in its
        order q, W the lower triangle drawn plus its mirror image: K is
        exactly symmetric, and no entry keeps a value of the build before,
        the diagonal of the slack columns (where W has no entry) included."""
        bp, kkt, draw = self.transient_kkt()
        n, m = bp.n_y, bp.m
        hp, jp = bp.p.hess_pattern, bp.j_pattern
        kkt.factor(kkt.build(*draw()))
        for _ in range(2):
            W, J, d, delta_c = draw()
            K = kkt.build(W, J, d, delta_c).toarray()
            assert kkt.ordered and not np.array_equal(kkt.q, np.arange(n + m))
            assert np.array_equal(K, K.T)
            W = sp.csr_matrix((W, hp.indices, hp.indptr), shape=hp.shape)
            W.resize(n, n)
            J = sp.csr_matrix((J, jp.indices, jp.indptr), shape=jp.shape)
            expected = sp.bmat([[W + sp.tril(W, -1).T + sp.diags(d), J.T],
                                [J, sp.diags(np.full(m, -delta_c))]]).toarray()
            assert np.array_equal(K, expected[np.ix_(kkt.q, kkt.q)])

    @pytest.mark.parametrize("solve, fail_at, expected", [
        (lambda: two_stage(*steady_line_case(profiles={
            "N1": {"type": "sinusoid", "eta0": 0.1, "delta": 0.05}}))[:2], 0, [0, 0, 0, 0]),
        (lambda: [solve_nlp(ConcaveProblem(ub=(5.0, 5.0)), np.array([0.0, 0.0]))],
         0, [0, 0]),
        (lambda: two_stage(*bundled_case("single-pipe"))[:2], 0, [0, 0, 0, 0]),
        (lambda: two_stage(*bundled_case("single-pipe"))[:2], 1, [0, 0, 0, 0]),
        (lambda: two_stage(*bundled_case("single-pipe"))[:2], 6, [0, 0, 0, 0]),
    ], ids=["line-steady-transient", "concave-retry", "single-pipe-unpivoted",
            "single-pipe-first-fallback", "single-pipe-later-fallback"])
    def test_reorder_runs_with_no_factor_alive(self, monkeypatch, solve, fail_at, expected):
        """Each solve lays out its KKT pattern twice: at set-up, and when the
        build after the first factorization stores K in its order.  No
        factor is alive at either, also when that factorization is rejected
        and the direction is retried with more regularization (the concave
        case).  The single pipe's transient KKT matrix is factored without
        row pivoting.  When the first such factor fails, the build after
        its pivoted replacement stores K in that one's COLAMD order; a later
        failure leaves K in its stored order, so no third layout runs."""
        live = [0]
        splu = h2blend.solver.splu

        class CountedFactor:
            def __init__(self, lu):
                self._lu = lu
                live[0] += 1

            def __del__(self):
                live[0] -= 1

            def __getattr__(self, name):
                return getattr(self._lu, name)

        live_at_layout = []
        layout = h2blend.solver.compressed_layout

        def recorded_layout(*args):
            live_at_layout.append(live[0])
            return layout(*args)

        monkeypatch.setattr(h2blend.solver, "splu",
                            lambda *args, **kwargs: CountedFactor(splu(*args, **kwargs)))
        monkeypatch.setattr(h2blend.solver, "compressed_layout", recorded_layout)
        if fail_at:
            fail_unpivoted(monkeypatch, fail_at, "residual")
        assert all(r.status == "local-optimum" for r in solve())
        assert live_at_layout == expected

    def test_changed_hessian_pattern_raises(self):
        """Hessian values that do not fit hess_pattern, at the first
        evaluation or a later one, are an error that names both."""
        class ChangingHessian(QuadraticProblem):
            def __init__(self, bad_call):
                super().__init__()
                self.bad_call, self.calls = bad_call, 0

            def lagrangian_hessian(self, x, lam_eq):
                self.calls += 1
                if self.calls < self.bad_call:
                    return super().lagrangian_hessian(x, lam_eq)
                return np.array([2.0, 0.1, 0.1, 2.0])

        for bad_call in (1, 2):
            with pytest.raises(ValueError, match=re.escape(
                    "lagrangian_hessian returned values of shape (4,), "
                    "not one per entry of hess_pattern (2)")):
                solve_nlp(ChangingHessian(bad_call), np.array([0.0, 0.0]))

    def test_jacobian_matrix_instead_of_values_raises(self):
        class MatrixJacobian(QuadraticProblem):
            def eq_jacobian(self, x):
                return self.jac_const

        with pytest.raises(ValueError, match=re.escape(
                "eq_jacobian returned values of shape (1, 2), "
                "not one per entry of jac_const (2)")):
            solve_nlp(MatrixJacobian(), np.array([0.0, 0.0]))

    def test_sparse_matrices_are_set_up_once_per_solve(self, monkeypatch):
        """A converged solve constructs as many CSR and CSC matrices in
        h2blend as a solve stopped after one iteration."""
        constructed = []
        for name in ("csr_matrix", "csc_matrix"):
            cls = getattr(sp, name)

            def counted(*args, _cls=cls, **kwargs):
                if sys._getframe(1).f_globals["__name__"].startswith("h2blend."):
                    constructed.append(_cls.__name__)
                return _cls(*args, **kwargs)
            monkeypatch.setattr(sp, name, counted)

        segnet, scenario = steady_line_case(eta_s=0.1)
        problem = assemble_nlp(segnet, scenario, TimeGrid(1, scenario.dt))
        x0 = _steady_initial_point(problem)
        counts, statuses = [], []
        for options in (SolverOptions(), SolverOptions(max_iter=1)):
            constructed.clear()
            result = solve_nlp(problem, x0, options)
            counts.append(len(constructed))
            statuses.append((result.status, result.iterations > 1))
        assert statuses == [("local-optimum", True), ("iteration-limit", False)]
        assert counts[0] == counts[1] > 0


def fail_unpivoted(monkeypatch, k, how):
    """From here on, the k-th KKT factorization without row pivoting raises
    (``how`` "raise") or solves every system to zero ("residual", which no
    refinement repairs); with k 0 none fails.  Returns the record
    (permc_spec, pivoted, matrix) of every KKT factorization."""
    calls, unpivoted = [], [0]
    splu = h2blend.solver.splu

    class ZeroSolve:
        def __init__(self, lu):
            self._lu = lu

        def solve(self, b):
            return np.zeros_like(b)

        def __getattr__(self, name):
            return getattr(self._lu, name)

    def patched(A, *args, **kwargs):
        options = kwargs.get("options", {})
        if options.get("SymmetricMode"):
            pivoted = "DiagPivotThresh" not in options
            calls.append((kwargs["permc_spec"], pivoted, A.copy()))
            if not pivoted:
                unpivoted[0] += 1
                if unpivoted[0] == k:
                    if how == "raise":
                        raise RuntimeError("Factor is exactly singular")
                    return ZeroSolve(splu(A, *args, **kwargs))
        return splu(A, *args, **kwargs)

    monkeypatch.setattr(h2blend.solver, "splu", patched)
    return calls


class TestUnpivotedFactor:
    """The bundled single pipe's transient, one period of 24 steps, has a
    KKT matrix of 1,392 rows: it is factored without row pivoting, in one
    minimum-degree order, and falls back to today's pivoted factorization
    on a failure."""

    @pytest.fixture(scope="class")
    def transient(self):
        """The transient solve, from the steady solution found once."""
        segnet, scenario = bundled_case("single-pipe")
        steady, _ = solve_steady(segnet, scenario)
        return lambda: solve_transient(segnet, scenario, steady.x)[0]

    def test_large_kkt_matrices_are_factored_without_pivoting(self, monkeypatch, transient):
        calls = fail_unpivoted(monkeypatch, 0, "raise")
        result = transient()
        assert result.status == "local-optimum"
        assert calls[0][2].shape[0] == 1392 >= h2blend.solver._UNPIVOTED_ROWS
        assert [c[:2] for c in calls] == \
            [("MMD_AT_PLUS_A", False)] + [("NATURAL", False)] * (len(calls) - 1)
        assert [row["pivoted"] for row in result.log] == [False] * len(result.log)
        assert sum(row["factorizations"] for row in result.log) == len(calls)

    def test_failed_first_factor_gives_the_pivoted_solve(self, monkeypatch, transient):
        """An unpivoted factor that raises at the first factorization leaves
        a solve bit-identical to one that pivots from the start."""
        with monkeypatch.context() as mp:
            mp.setattr(h2blend.solver, "_UNPIVOTED_ROWS", 10 ** 9)
            pivoted = transient()
        calls = fail_unpivoted(monkeypatch, 1, "raise")
        result = transient()
        assert [c[:2] for c in calls] == [("MMD_AT_PLUS_A", False), ("COLAMD", True)] \
            + [("NATURAL", True)] * (len(calls) - 2)
        assert (result.status, result.iterations) == (pivoted.status, pivoted.iterations)
        assert np.array_equal(result.x, pivoted.x)
        assert result.objective == pivoted.objective
        for key, value in pivoted.multipliers.items():
            assert np.array_equal(result.multipliers[key], value)
        # the same rows, but for the raised factorization in the first
        assert result.log[0]["factorizations"] == pivoted.log[0]["factorizations"] + 1
        result.log[0]["factorizations"] -= 1
        assert result.log == pivoted.log

    @pytest.mark.parametrize("k, later", [(1, "NATURAL"), (6, "COLAMD")])
    def test_failed_residual_falls_back_for_the_rest_of_the_solve(self, monkeypatch,
                                                                  transient, k, later):
        """The k-th unpivoted factorization misses the residual tolerance:
        the same matrix is factored with pivoting in a COLAMD order, every
        later factorization pivots, and the solve ends at the same optimum.
        After a failure at the first factorization, K is stored in the
        COLAMD order found (NATURAL later on); after a later one, K keeps
        its stored minimum-degree order, and each factorization finds a
        COLAMD order of it."""
        reference = transient()
        calls = fail_unpivoted(monkeypatch, k, "residual")
        result = transient()
        assert result.status == "local-optimum"
        assert result.objective == pytest.approx(reference.objective, rel=1e-9)
        assert [c[:2] for c in calls] == [("MMD_AT_PLUS_A", False)] \
            + [("NATURAL", False)] * (k - 1) + [("COLAMD", True)] \
            + [(later, True)] * (len(calls) - k - 1)
        failed, fallback = calls[k - 1][2], calls[k][2]
        for part in ("data", "indices", "indptr"):
            assert np.array_equal(getattr(failed, part), getattr(fallback, part))
        # the stored order changes after a failed first factorization only
        rest = [c[2] for c in calls[k + 1:]]
        assert rest and all(np.array_equal(A.indices, rest[0].indices) for A in rest)
        assert np.array_equal(rest[0].indices, failed.indices) == (k > 1)
        pivoted = [row["pivoted"] for row in result.log]
        first = pivoted.index(True)
        assert pivoted == [False] * first + [True] * (len(pivoted) - first)
        assert result.log[first]["factorizations"] >= 2

    def test_every_solve_meets_the_residual_tolerance(self, monkeypatch, transient):
        """Each direction, and each second-order correction solve, from an
        unpivoted factor solves the KKT system it was computed for within
        res_tol of _solve_kkt, refined against K."""
        ratios = []
        solve_kkt = _InteriorPoint._solve_kkt

        def residual(kkt, d, rhs):
            q, K = kkt.q, kkt.K
            res = np.abs(K @ d[q] - rhs[q]).max()
            return res / (1e-7 * (np.abs(rhs).max() + 1.0))

        def checked_solve_kkt(self, pt, gphi, mu, delta_w_last):
            dy, dlam, delta_w, kkt_solve = solve_kkt(self, pt, gphi, mu, delta_w_last)
            kkt = self._kkt
            assert not kkt.pivoted
            rhs = -np.concatenate([gphi + pt.jt_lam, pt.c])
            ratios.append(residual(kkt, np.concatenate([dy, dlam]), rhs))

            def checked(rhs_soc):
                d = kkt_solve(rhs_soc)
                ratios.append(residual(kkt, d, rhs_soc))
                return d

            checked(-np.concatenate([np.zeros(len(pt.y)), pt.c]))
            return dy, dlam, delta_w, checked

        monkeypatch.setattr(_InteriorPoint, "_solve_kkt", checked_solve_kkt)
        result = transient()
        assert result.status == "local-optimum"
        assert len(ratios) >= 2 * result.iterations - 2
        assert max(ratios) <= 1.0


class TestTightTolerance:
    def test_single_pipe_steady_at_1e_14(self):
        """A trial that rounding puts on a bound is rejected before its
        barrier value takes log(0): the steady solve at kkt_tol 1e-14 ends
        at a local optimum, with no RuntimeWarning."""
        segnet, scenario = bundled_case("single-pipe")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            result, _ = solve_steady(segnet, scenario, SolverOptions(kkt_tol=1e-14))
        assert result.status == "local-optimum"
        assert result.kkt_residual <= 1e-14


class TestSteadyState:
    def test_matches_closed_form_for_pure_ng(self):
        segnet, scenario = steady_line_case(eta_s=0.0)
        result, problem = solve_steady(segnet, scenario)
        assert result.status == "local-optimum"
        tr = SolutionTrajectory.from_solution(problem, result.x)
        g = GasConstants()
        # the full energy demand is profitable, so qw = gE_max / R_NG
        qw = tr.qw[0, 0]
        assert qw == pytest.approx(8000.0 / g.R_NG, rel=1e-6)
        # steady isothermal pipe flow: p_L^2 = p_0^2 - a^2 (lam L / D) (f/A)^2
        A = np.pi * 0.9144 ** 2 / 4.0
        phi = qw / A
        p_out_sq = (5.0e6) ** 2 - g.a_NG ** 2 * (0.01 * 30000.0 / 0.9144) * phi ** 2
        assert tr.node_series("N3", "p")[0] == pytest.approx(
            np.sqrt(p_out_sq), rel=1e-6)
        # intermediate pressures follow the same law segment by segment
        p_mid_sq = (5.0e6) ** 2 - g.a_NG ** 2 * (0.01 * 10000.0 / 0.9144) * phi ** 2
        assert tr.node_series("P1.1", "p")[0] == pytest.approx(
            np.sqrt(p_mid_sq), rel=1e-6)

    def test_blended_supply_concentration_propagates(self):
        segnet, scenario = steady_line_case(eta_s=0.1)
        result, problem = solve_steady(segnet, scenario)
        assert result.status == "local-optimum"
        tr = SolutionTrajectory.from_solution(problem, result.x)
        for nid in tr.node_ids:
            assert tr.node_series(nid, "eta")[0] == pytest.approx(0.1, abs=1e-7)
        # a hotter blend needs less mass for the same energy
        g = GasConstants()
        r = g.R_H2 / g.R_NG
        assert tr.qw[0, 0] == pytest.approx(
            8000.0 / (g.R_NG * (0.1 * r + 0.9)), rel=1e-6)

    @pytest.mark.parametrize("network", [line_network, fixed_demand_network],
                             ids=["gE_max", "gE_fixed"])
    def test_kkt_residuals_small(self, network):
        """Also when the withdrawal energy is pinned (lb == ub)."""
        scenario = short_scenario()
        segnet = segment_pipes(network(eta_s=0.1), scenario.dL)
        result, problem = solve_steady(segnet, scenario)
        assert result.status == "local-optimum"
        res = kkt_residuals(problem, result)
        assert res["feasibility"] <= 1e-7
        assert res["stationarity"] <= 1e-5
        assert res["kkt_error"] <= 1e-5


class TestOneEvaluationPerIterate:
    """The Jacobian is built once before the loop and once per accepted
    step, never again at the same iterate."""

    @pytest.fixture
    def calls(self, monkeypatch):
        calls = {"eq_jacobian": 0, "restore": 0}
        eq_jacobian = NlpProblem.eq_jacobian
        restore = _InteriorPoint._restore

        def counted_eq_jacobian(self, x):
            calls["eq_jacobian"] += 1
            return eq_jacobian(self, x)

        def counted_restore(self, *args):
            calls["restore"] += 1
            return restore(self, *args)

        monkeypatch.setattr(NlpProblem, "eq_jacobian", counted_eq_jacobian)
        monkeypatch.setattr(_InteriorPoint, "_restore", counted_restore)
        return calls

    def test_converged_solves(self, calls):
        segnet, scenario = steady_line_case()
        steady = solve_steady(segnet, scenario)
        assert steady[0].status == "local-optimum"
        assert calls == {"eq_jacobian": steady[0].iterations, "restore": 0}
        calls["eq_jacobian"] = 0
        result, _ = solve_transient(segnet, scenario, steady[0].x)
        assert result.status == "local-optimum"
        assert calls == {"eq_jacobian": result.iterations, "restore": 0}

    def test_iteration_limit_evaluates_the_last_iterate(self, calls):
        segnet, scenario = steady_line_case()
        options = SolverOptions(max_iter=3)
        steady = solve_steady(segnet, scenario, options)
        assert steady[0].status == "iteration-limit"
        assert calls == {"eq_jacobian": steady[0].iterations + 1, "restore": 0}
        calls["eq_jacobian"] = 0
        result, _ = solve_transient(segnet, scenario, steady[0].x, options)
        assert result.status == "iteration-limit"
        assert calls == {"eq_jacobian": result.iterations + 1, "restore": 0}

    def test_one_jacobian_product_per_evaluation(self, monkeypatch):
        """J^T lambda is formed once per iterate record, on converged solves
        and on a solve that ends in restoration."""
        calls = {"evaluate": 0, "jacobian_t_dot": 0}

        def counted(cls, name):
            method = getattr(cls, name)

            def wrapper(self, *args):
                calls[name] += 1
                return method(self, *args)
            monkeypatch.setattr(cls, name, wrapper)

        counted(_InteriorPoint, "evaluate")
        counted(_BarrierProblem, "jacobian_t_dot")
        segnet, scenario = steady_line_case()
        steady_result, result, _ = two_stage(segnet, scenario)
        assert steady_result.status == result.status == "local-optimum"
        _, result, _ = two_stage(*restoration_line_case())
        assert result.status == "infeasible"
        assert calls["evaluate"] > 0
        assert calls["jacobian_t_dot"] == calls["evaluate"]

    def test_accepted_point_is_not_evaluated_again(self, monkeypatch):
        """The record of an accepted trial point takes the constraints and
        objective that the line search computed there, and restoration
        does not repeat a point: no two consecutive constraint evaluations
        are at the same point, on converged solves and on a solve that
        ends in restoration."""
        points = []
        eq_constraints = NlpProblem.eq_constraints

        def recorded_eq_constraints(self, x):
            points.append(x.tobytes())
            return eq_constraints(self, x)

        monkeypatch.setattr(NlpProblem, "eq_constraints", recorded_eq_constraints)
        segnet, scenario = steady_line_case()
        steady_result, result, _ = two_stage(segnet, scenario)
        assert steady_result.status == result.status == "local-optimum"
        n_converged = len(points)
        _, result, _ = two_stage(*restoration_line_case())
        assert result.status == "infeasible"
        assert 0 < n_converged < len(points)
        assert all(a != b for a, b in zip(points, points[1:]))

    def test_restoration_evaluates_each_point_once(self, monkeypatch):
        """A line case whose transient solve ends in restoration: the
        Jacobian is never evaluated twice at the same point."""
        points = []
        eq_jacobian = NlpProblem.eq_jacobian

        def recorded_eq_jacobian(self, x):
            points.append(x.tobytes())
            return eq_jacobian(self, x)

        monkeypatch.setattr(NlpProblem, "eq_jacobian", recorded_eq_jacobian)
        _, result, _ = two_stage(*restoration_line_case())
        assert (result.status, result.iterations) == ("infeasible", 26)
        assert result.message == \
            "restoration stalled at constraint violation 6.095e-02"
        assert len(points) == len(set(points))


class TestFailedStep:
    """A step that fails, by the KKT system or by the line search, goes to
    restoration; when restoration fails too, the result is the last
    accepted iterate, not restoration's point."""

    @pytest.mark.parametrize("method, failed, message", [
        ("_solve_kkt", (None, None, 0.0, None), "KKT system could not be regularized"),
        ("_line_search", None, "line search failed near a feasible point"),
    ], ids=["kkt", "line-search"])
    def test_failed_restoration_keeps_the_last_iterate(self, monkeypatch, method, failed,
                                                       message):
        original = getattr(_InteriorPoint, method)
        points = []

        def fails_from_the_tenth_call(self, pt, *args):
            points.append(pt.y)
            return original(self, pt, *args) if len(points) < 10 else failed

        monkeypatch.setattr(_InteriorPoint, method, fails_from_the_tenth_call)
        monkeypatch.setattr(_InteriorPoint, "_restore",
                            lambda self, pt, mu: (pt.y + 1.0, False))
        scenario = load_scenario(bundled_path("single-pipe", "scenario"))
        segnet = segment_pipes(load_network(bundled_path("single-pipe", "network")),
                               scenario.dL)
        result, _ = solve_steady(segnet, scenario)
        assert (result.status, result.message, result.iterations) == ("error", message, 10)
        assert len(points) == 10
        np.testing.assert_array_equal(result.x, points[-1][:result.x.size])
        assert result.violation == result.log[-1]["violation"]
        assert result.violation == pytest.approx(3.4e-8, rel=0.05)


class TestSecondOrderCorrection:
    """Second-order-correction trials pass the same test as the step itself:
    Armijo decrease of the barrier value when the step is f-type, else the
    filter, which an accepted trial may extend.  On these points of the
    eight-node what-if grid that test refuses f-type corrections the filter
    alone would take, and an accepted correction extends the filter."""

    @pytest.mark.parametrize("xi, p_slack, iterations", [
        (0.3, 5.0e6, 23), (0.3, 5.4e6, 26), (0.6, 4.6e6, 25), (0.7, 5.2e6, 26)],
        ids=["0-2-2-0", "0-4-2-0", "3-0-2-0", "4-3-2-0"])
    def test_eight_node_what_if_points(self, xi, p_slack, iterations):
        network_doc = json.loads(bundled_path("eight-node", "network").read_text())
        scenario_doc = json.loads(bundled_path("eight-node", "scenario").read_text())
        scenario_doc["xi"] = xi
        for node in network_doc["nodes"]:
            if node["role"] == "slack":
                node.update(p_slack=p_slack, eta_s=0.08)
            elif node["role"] == "withdrawal":
                node["gE_max"] = 7000.0
        scenario = parse_scenario(scenario_doc)
        segnet = segment_pipes(parse_network(network_doc), scenario.dL)
        result, _ = solve_steady(segnet, scenario)
        assert (result.status, result.iterations) == ("local-optimum", iterations)


def two_supply_network(first_supply="S1"):
    """Slack S1 (eta_s 0.1) and injection S2 (0.3), each one pipe away from
    junction J, a pipe J-W to withdrawal W, and an isolated junction U;
    ``first_supply`` is listed first."""
    supplies = [{"id": "S1", "role": "slack", "p_slack": 5.0e6, "eta_s": 0.1},
                {"id": "S2", "role": "injection", "eta_s": 0.3}]
    if first_supply == "S2":
        supplies.reverse()
    pipe = dict(L=10000.0, D=0.9144)
    return parse_network({
        "nodes": supplies + [{"id": "J", "role": "junction"},
                             {"id": "W", "role": "withdrawal", "gE_max": 8000.0},
                             {"id": "U", "role": "junction"}],
        "pipes": [{"id": "P1", "from": "S1", "to": "J", **pipe},
                  {"id": "P2", "from": "S2", "to": "J", **pipe},
                  {"id": "P3", "from": "J", "to": "W", **pipe}]})


class TestSteadyStartPoint:
    @pytest.mark.parametrize("first_supply, eta_first", [("S1", 0.1), ("S2", 0.3)])
    def test_nearest_supply_ties_and_unreached_nodes(self, first_supply, eta_first):
        """J is one pipe from each supply: the tie goes to the supply listed
        first, and so does W behind it; U, which no supply reaches, takes the
        first supply's concentration.  Only that supply serves W."""
        scenario = short_scenario()
        segnet = segment_pipes(two_supply_network(first_supply), scenario.dL)
        problem = assemble_nlp(segnet, scenario, TimeGrid(1, scenario.dt))
        x = _steady_initial_point(problem)
        idx = problem.index
        eta = dict(zip(idx.node_ids, idx.block(x, "eta")[:, 0]))
        assert eta == {"S1": 0.1, "S2": 0.3, "J": eta_first, "W": eta_first,
                       "U": eta_first}
        qw = idx.block(x, "qw")[0, 0]
        assert qw > 0.0
        assert idx.block(x, "qs")[:, 0].tolist() == [qw, 0.0]


class TestRestoration:
    def test_restore_succeeds_from_the_steady_start_point(self):
        """Restoration alone, from the record of the solver's start point on
        the steady line case: it reports success and halves the summed
        violation."""
        segnet, scenario = steady_line_case()
        problem = assemble_nlp(segnet, scenario, TimeGrid(1, scenario.dt))
        bp = _BarrierProblem(problem)
        ip = _InteriorPoint(bp, SolverOptions())
        # the start point as _InteriorPoint.solve makes it, at mu = 0.1
        x = _push_inside(_steady_initial_point(problem), bp.L[:bp.n_x], bp.U[:bp.n_x])
        y = np.concatenate([x, _push_inside(problem.ineq_constraints(x),
                                            bp.L[bp.n_x:], bp.U[bp.n_x:])])
        mu = 0.1
        pt = ip.evaluate(y, np.zeros(bp.m), mu / ip._gap(y))
        assert np.abs(pt.c).sum() == pytest.approx(2.410, abs=5e-4)
        y_new, ok = ip._restore(pt, mu)
        assert ok
        assert np.abs(bp.constraints(y_new)).sum() == pytest.approx(1.277, abs=5e-4)


class TestTransient:
    def test_constant_data_reduces_to_replicated_steady(self):
        segnet, scenario = steady_line_case(eta_s=0.1)
        options = SolverOptions(kkt_tol=1e-8)
        steady_result, _ = solve_steady(segnet, scenario, options)
        assert steady_result.status == "local-optimum"
        result, problem = solve_transient(segnet, scenario, steady_result.x, options)
        assert result.status == "local-optimum"
        tiled = replicate_steady(steady_result.x, problem)
        assert np.abs(result.x - tiled).max() <= 1e-6

    def test_replicate_steady_layout(self):
        segnet, scenario = steady_line_case(eta_s=0.1)
        steady_problem = assemble_nlp(segnet, scenario, TimeGrid(1, scenario.dt))
        transient_problem = assemble_nlp(
            segnet, scenario, TimeGrid(scenario.n_steps, scenario.dt))
        x_steady = np.arange(steady_problem.index.total, dtype=float)
        x = replicate_steady(x_steady, transient_problem)
        for q in ("rho_h2", "eta", "f0", "qw"):
            src = steady_problem.index.block(x_steady, q)
            dst = transient_problem.index.block(x, q)
            assert np.all(dst == src[:, :1])

    def test_fixed_demand_is_delivered_at_every_step(self):
        scenario = short_scenario(profiles={
            "N1": {"type": "sinusoid", "eta0": 0.1, "delta": 0.01, "nu": 1.0}})
        segnet = segment_pipes(fixed_demand_network(), scenario.dL)
        steady_result, result, problem = two_stage(segnet, scenario)
        assert steady_result.status == result.status == "local-optimum"
        tr = SolutionTrajectory.from_solution(problem, result.x)
        assert tr.gE == pytest.approx(np.full((1, scenario.n_steps), 5000.0),
                                      abs=1e-6)
        assert run_audits(tr, segnet, scenario, feasibility_tol=1e-5).passed

    def test_solution_invariant_under_nondim_scales(self):
        base_seg, base_scn = steady_line_case(eta_s=0.1)
        alt_scn = short_scenario(scales={"l0": 5000.0, "p0": 2.0e6})
        alt_seg = segment_pipes(line_network(eta_s=0.1), alt_scn.dL)
        r1, p1 = solve_steady(base_seg, base_scn)
        r2, p2 = solve_steady(alt_seg, alt_scn)
        assert r1.status == r2.status == "local-optimum"
        t1 = SolutionTrajectory.from_solution(p1, r1.x)
        t2 = SolutionTrajectory.from_solution(p2, r2.x)
        assert t1.p == pytest.approx(t2.p, rel=1e-6)
        assert t1.qw == pytest.approx(t2.qw, rel=1e-6)
        assert t1.f0 == pytest.approx(t2.f0, rel=1e-6)

    def test_iteration_log_collected(self, monkeypatch, kkt_factorizations):
        """One row per accepted step, in the nine log columns; without
        restoration every evaluation after the first is an accepted step.
        The rows count every KKT factorization but those of the last,
        converged iterate's (none), and the line case's small KKT matrix is
        always factored with row pivoting."""
        evaluations = []
        evaluate = _InteriorPoint.evaluate

        def counted_evaluate(self, *args):
            evaluations.append(1)
            return evaluate(self, *args)

        monkeypatch.setattr(_InteriorPoint, "evaluate", counted_evaluate)
        segnet, scenario = steady_line_case(eta_s=0.1)
        result, _ = solve_steady(segnet, scenario)
        assert result.status == "local-optimum"
        assert len(result.log) == len(evaluations) - 1 == result.iterations - 1
        assert [row["iteration"] for row in result.log] == \
            list(range(1, result.iterations))
        for row in result.log:
            assert list(row) == ["iteration", "mu", "objective", "violation",
                                 "kkt", "step", "regularization", "factorizations",
                                 "pivoted"]
            assert row["factorizations"] >= 1 and row["pivoted"] is True
        assert sum(row["factorizations"] for row in result.log) == len(kkt_factorizations)

    def test_log_kkt_is_the_result_kkt(self):
        segnet, scenario = steady_line_case(eta_s=0.1)
        steady = solve_steady(segnet, scenario)
        result, _ = solve_transient(segnet, scenario, steady[0].x)
        for r in (steady[0], result):
            assert r.status == "local-optimum"
            assert r.log[-1]["kkt"] == r.kkt_residual <= SolverOptions().kkt_tol

    def test_library_solve_writes_no_file(self, tmp_path, monkeypatch):
        opened = []
        monkeypatch.setattr(builtins, "open",
                            lambda *args, **kwargs: opened.append(args))
        monkeypatch.chdir(tmp_path)
        segnet, scenario = steady_line_case(eta_s=0.1)
        steady_result, result, _ = two_stage(segnet, scenario)
        assert steady_result.status == result.status == "local-optimum"
        assert steady_result.log and result.log
        assert opened == [] and list(tmp_path.iterdir()) == []


def bundled_case(case, **profiles):
    """A bundled case's segmented network and scenario, with ``profiles``
    replacing or adding supply profiles."""
    scenario = load_scenario(bundled_path(case, "scenario"))
    scenario = dataclasses.replace(scenario, profiles={**scenario.profiles, **profiles})
    return segment_pipes(load_network(bundled_path(case, "network")), scenario.dL), scenario


class _Stop(Exception):
    pass


def record_grids(monkeypatch, stop=False):
    """The grid sizes of the problems h2blend.solver.solve_nlp receives from
    here on; with ``stop``, the first call raises _Stop instead of solving."""
    grids = []

    def recorded(problem, *args, **kwargs):
        grids.append(problem.grid.n_points)
        if stop:
            raise _Stop
        return solve_nlp(problem, *args, **kwargs)

    monkeypatch.setattr(h2blend.solver, "solve_nlp", recorded)
    return grids


class TestOnePeriodSolve:
    """Data that repeat m times over the horizon are solved over one period
    and the result is repeated; the result matches the horizon solve."""

    @pytest.mark.parametrize("nu, n_points, iterations", [
        (2.0, 24, 18), (4.0, 12, 17)], ids=["bundled", "nu-4"])
    def test_matches_the_horizon_solve(self, monkeypatch, nu, n_points, iterations):
        segnet, scenario = bundled_case("single-pipe", N1=Profile(
            kind="sinusoid", eta0=0.1, delta=0.05, nu=nu))
        steady, _ = solve_steady(segnet, scenario)
        grids = record_grids(monkeypatch)
        result, problem = solve_transient(segnet, scenario, steady.x)
        assert grids == [n_points]
        assert problem.grid.n_points == scenario.n_steps == 48

        horizon = solve_nlp(problem, replicate_steady(steady.x, problem))
        assert (result.status, result.iterations) == \
            (horizon.status, horizon.iterations) == ("local-optimum", iterations)
        assert result.objective == pytest.approx(horizon.objective, rel=1e-12)
        for q in ("rho_h2", "rho_ng", "eta", "f0", "fl", "alpha", "fc", "qs", "qw", "ge"):
            got, want = (problem.index.block(v, q) for v in (result.x, horizon.x))
            assert np.abs(got - want).max() <= 1e-9 * np.abs(want).max()
        assert {k: v.shape for k, v in result.multipliers.items()} == \
            {k: v.shape for k, v in horizon.multipliers.items()}
        assert result.objective == problem.objective(result.x)

    @pytest.mark.parametrize("case, profiles", [
        ("eight-node", {"J1": Profile(kind="sinusoid", eta0=0.08, delta=0.01, nu=2.0)}),
        ("single-pipe", {"N1": Profile(kind="series", times=(0.0, 6.0, 12.0, 18.0),
                                       values=(0.1, 0.15, 0.1, 0.15))})],
        ids=["mixed-nu", "series"])
    def test_data_that_repeat_once_are_solved_whole(self, monkeypatch, case, profiles):
        segnet, scenario = bundled_case(case, **profiles)
        steady = assemble_nlp(segnet, scenario, TimeGrid(1, scenario.dt))
        grids = record_grids(monkeypatch, stop=True)
        with pytest.raises(_Stop):
            solve_transient(segnet, scenario, _steady_initial_point(steady))
        assert grids == [scenario.n_steps]


class TestRoundingRobustness:
    """A relative 1e-12 perturbation of the steady start point keeps the
    status, the iteration counts and the objectives of both bundled cases.
    Changes of summation order alone have flipped refined grids between
    converged and infeasible."""

    @pytest.mark.parametrize("case, iterations", [
        ("single-pipe", (11, 18)), ("eight-node", (24, 27))],
        ids=["single-pipe", "eight-node"])
    def test_perturbed_start_point(self, case, iterations):
        scenario = load_scenario(bundled_path(case, "scenario"))
        segnet = segment_pipes(load_network(bundled_path(case, "network")),
                               scenario.dL)
        steady = assemble_nlp(segnet, scenario, TimeGrid(1, scenario.dt))
        transient = assemble_nlp(segnet, scenario,
                                 TimeGrid(scenario.n_steps, scenario.dt))
        x0 = _steady_initial_point(steady)

        def solve(x):
            first = solve_nlp(steady, x)
            return first, solve_nlp(transient, replicate_steady(first.x, transient))

        reference = solve(x0)
        assert [(r.status, r.iterations) for r in reference] == [
            ("local-optimum", n) for n in iterations]
        for seed in (1, 2, 3):
            rng = np.random.default_rng(seed)
            runs = solve(x0 * (1.0 + 1e-12 * rng.standard_normal(x0.size)))
            for run, ref in zip(runs, reference):
                assert (run.status, run.iterations) == (ref.status, ref.iterations)
                assert run.objective == pytest.approx(ref.objective, rel=1e-9)
