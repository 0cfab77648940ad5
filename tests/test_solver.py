import types

import numpy as np
import pytest
import scipy.sparse as sp

from conftest import line_network, short_scenario
from h2blend.network import segment_pipes
from h2blend.physics import GasConstants
from h2blend.solution import SolutionTrajectory
from h2blend.solver import (
    SolverOptions,
    _BarrierProblem,
    _InteriorPoint,
    replicate_steady,
    solve_nlp,
    solve_steady,
    solve_transient,
)
from h2blend.transcription import NlpProblem, TimeGrid, assemble_nlp


def kkt_residuals(problem, result) -> dict:
    """Stationarity, feasibility and scaled KKT error at a solution, from
    the solver's own evaluation and KKT-error routine."""
    bp = _BarrierProblem(problem)
    ip = _InteriorPoint(bp, SolverOptions())
    mult = result.multipliers
    y = np.concatenate([result.x, mult["slacks"]])
    lam = np.zeros(bp.m)
    lam[:problem.n_eq] = mult["equality"]
    lam[problem.n_eq:problem.n_eq + problem.n_ineq] = mult["inequality"]
    zl = np.concatenate([mult["bound_lower"], np.zeros(bp.n_s)])
    zu = np.concatenate([mult["bound_upper"], np.zeros(bp.n_s)])
    ev = ip.evaluate(y)
    c, J, g = ev
    return {
        "stationarity": float(np.abs(g + J.T @ lam - zl + zu).max(initial=0.0)),
        "feasibility": float(np.abs(c).max(initial=0.0)),
        "kkt_error": float(ip.kkt_error(y, ev, lam, zl, zu, 0.0)),
    }


class QuadraticProblem:
    """min (x0 - 2)^2 + (x1 + 1)^2  s.t.  x0 + x1 = 1, lb <= x <= ub.

    Exposes the same interface the interior-point solver consumes.
    """

    def __init__(self, lb=(-5.0, -5.0), ub=(np.inf, np.inf)):
        self.index = types.SimpleNamespace(total=2)
        self.n_eq = 1
        self.n_ineq = 0
        self.lb = np.array(lb, dtype=float)
        self.ub = np.array(ub, dtype=float)
        self.ineq_lb = np.zeros(0)
        self.ineq_ub = np.zeros(0)

    def eq_constraints(self, x):
        return np.array([x[0] + x[1] - 1.0])

    def ineq_constraints(self, x):
        return np.zeros(0)

    def eq_jacobian(self, x):
        return sp.csr_matrix(np.array([[1.0, 1.0]]))

    def ineq_jacobian(self, x):
        return sp.csr_matrix((0, 2))

    def objective(self, x):
        return float((x[0] - 2.0) ** 2 + (x[1] + 1.0) ** 2)

    def gradient(self, x):
        return np.array([2.0 * (x[0] - 2.0), 2.0 * (x[1] + 1.0)])

    def lagrangian_hessian(self, x, obj_factor, lam_eq, lam_ineq=None):
        return sp.csr_matrix(2.0 * obj_factor * np.eye(2))


class TestInteriorPointOnQuadratics:
    def test_unconstrained_vertex_satisfies_the_equality(self):
        prob = QuadraticProblem()
        result = solve_nlp(prob, np.array([0.0, 0.0]))
        assert result.success
        assert result.x == pytest.approx([2.0, -1.0], abs=1e-6)
        assert result.objective == pytest.approx(0.0, abs=1e-10)

    def test_active_upper_bound(self):
        prob = QuadraticProblem(ub=(1.0, np.inf))
        result = solve_nlp(prob, np.array([0.0, 0.0]))
        assert result.success
        assert result.x == pytest.approx([1.0, 0.0], abs=1e-6)
        assert result.objective == pytest.approx(2.0, abs=1e-6)

    def test_kkt_residuals_at_solution(self):
        prob = QuadraticProblem(ub=(1.0, np.inf))
        result = solve_nlp(prob, np.array([0.0, 0.0]))
        res = kkt_residuals(prob, result)
        assert res["feasibility"] <= 1e-8
        assert res["stationarity"] <= 1e-5

    def test_iteration_limit_status(self):
        prob = QuadraticProblem()
        result = solve_nlp(prob, np.array([40.0, -40.0]),
                           SolverOptions(max_iter=1))
        assert result.status == "iteration-limit"
        assert not result.success


def steady_line_case(eta_s=0.0, **scenario_overrides):
    scenario = short_scenario(**scenario_overrides)
    segnet = segment_pipes(line_network(eta_s=eta_s), scenario.dL)
    return segnet, scenario


class TestSteadyState:
    def test_matches_closed_form_for_pure_ng(self):
        segnet, scenario = steady_line_case(eta_s=0.0)
        result, problem = solve_steady(segnet, scenario)
        assert result.success
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
        assert result.success
        tr = SolutionTrajectory.from_solution(problem, result.x)
        for nid in tr.node_ids:
            assert tr.node_series(nid, "eta")[0] == pytest.approx(0.1, abs=1e-7)
        # a hotter blend needs less mass for the same energy
        g = GasConstants()
        r = g.R_H2 / g.R_NG
        assert tr.qw[0, 0] == pytest.approx(
            8000.0 / (g.R_NG * (0.1 * r + 0.9)), rel=1e-6)

    def test_kkt_residuals_small(self):
        segnet, scenario = steady_line_case(eta_s=0.1)
        result, problem = solve_steady(segnet, scenario)
        res = kkt_residuals(problem, result)
        assert res["feasibility"] <= 1e-7
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

        def counted_restore(self, y, mu):
            calls["restore"] += 1
            return restore(self, y, mu)

        monkeypatch.setattr(NlpProblem, "eq_jacobian", counted_eq_jacobian)
        monkeypatch.setattr(_InteriorPoint, "_restore", counted_restore)
        return calls

    def test_converged_solves(self, calls):
        segnet, scenario = steady_line_case()
        steady = solve_steady(segnet, scenario)
        assert steady[0].success
        assert calls == {"eq_jacobian": steady[0].iterations, "restore": 0}
        calls["eq_jacobian"] = 0
        result, _, _ = solve_transient(segnet, scenario, steady=steady)
        assert result.success
        assert calls == {"eq_jacobian": result.iterations, "restore": 0}

    def test_iteration_limit_evaluates_the_last_iterate(self, calls):
        segnet, scenario = steady_line_case()
        options = SolverOptions(max_iter=3)
        steady = solve_steady(segnet, scenario, options)
        assert steady[0].status == "iteration-limit"
        assert calls == {"eq_jacobian": steady[0].iterations + 1, "restore": 0}
        calls["eq_jacobian"] = 0
        result, _, _ = solve_transient(segnet, scenario, options, steady=steady)
        assert result.status == "iteration-limit"
        assert calls == {"eq_jacobian": result.iterations + 1, "restore": 0}


class TestTransient:
    def test_constant_data_reduces_to_replicated_steady(self):
        segnet, scenario = steady_line_case(eta_s=0.1)
        options = SolverOptions(kkt_tol=1e-8)
        steady_result, steady_problem = solve_steady(segnet, scenario, options)
        assert steady_result.success
        result, problem, _ = solve_transient(
            segnet, scenario, options,
            steady=(steady_result, steady_problem))
        assert result.success
        tiled = replicate_steady(steady_problem, steady_result.x, problem)
        assert np.abs(result.x - tiled).max() <= 1e-6

    def test_replicate_steady_layout(self):
        segnet, scenario = steady_line_case(eta_s=0.1)
        steady_problem = assemble_nlp(segnet, scenario, TimeGrid(1, scenario.dt))
        transient_problem = assemble_nlp(
            segnet, scenario, TimeGrid(scenario.n_steps, scenario.dt))
        x_steady = np.arange(steady_problem.index.total, dtype=float)
        x = replicate_steady(steady_problem, x_steady, transient_problem)
        for q in ("rho_h2", "eta", "f0", "qw"):
            src = steady_problem.index.block(x_steady, q)
            dst = transient_problem.index.block(x, q)
            assert np.all(dst == src[:, :1])

    def test_solution_invariant_under_nondim_scales(self):
        base_seg, base_scn = steady_line_case(eta_s=0.1)
        alt_scn = short_scenario(scales={"l0": 5000.0, "p0": 2.0e6})
        alt_seg = segment_pipes(line_network(eta_s=0.1), alt_scn.dL)
        r1, p1 = solve_steady(base_seg, base_scn)
        r2, p2 = solve_steady(alt_seg, alt_scn)
        assert r1.success and r2.success
        t1 = SolutionTrajectory.from_solution(p1, r1.x)
        t2 = SolutionTrajectory.from_solution(p2, r2.x)
        assert t1.p == pytest.approx(t2.p, rel=1e-6)
        assert t1.qw == pytest.approx(t2.qw, rel=1e-6)
        assert t1.f0 == pytest.approx(t2.f0, rel=1e-6)

    def test_iteration_log_written(self, tmp_path):
        segnet, scenario = steady_line_case(eta_s=0.1)
        log = tmp_path / "iters.csv"
        options = SolverOptions(iteration_log=str(log))
        result, _ = solve_steady(segnet, scenario, options)
        assert result.success
        lines = log.read_text().strip().splitlines()
        assert len(lines) >= result.iterations
        assert lines[0].startswith("iter")
