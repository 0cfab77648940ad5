import dataclasses
import json

import numpy as np
import pytest

import h2blend.solver
import h2blend.validation
from conftest import line_network, short_scenario
from h2blend.cli import bundled_path
from h2blend.network import Profile, load_network, load_scenario, segment_pipes
from h2blend.solution import SolutionTrajectory, read_solution, write_solution
from h2blend.solver import solve_steady, solve_transient
from h2blend.validation import (
    AuditReport,
    check_feasibility,
    conservation_audit,
    flow_direction_audit,
    periodicity_check,
    run_audits,
)
from reference_forms import derivative_check, lag_analysis, pipe_segment_residuals


@pytest.fixture(scope="module")
def solved_case():
    scenario = short_scenario(
        horizon_hours=8.0, dt_hours=0.5,
        profiles={"N1": {"type": "sinusoid", "eta0": 0.1, "delta": 0.02,
                         "nu": 2.0}})
    segnet = segment_pipes(line_network(), scenario.dL)
    steady_result, _ = solve_steady(segnet, scenario)
    result, problem = solve_transient(segnet, scenario, steady_result.x)
    assert result.status == "local-optimum"
    tr = SolutionTrajectory.from_solution(problem, result.x)
    return tr, segnet, scenario, problem


def synthetic_trajectory(shift_steps=2, N=24):
    """Two-node trajectory whose downstream eta is a circular shift of the
    upstream one."""
    t = np.arange(N, dtype=float)
    up = 0.1 + 0.05 * np.sin(2.0 * np.pi * t / N)
    down = np.roll(up, shift_steps)
    zeros = np.zeros((2, N))
    return SolutionTrajectory(
        times=t, node_ids=["A", "B"], segment_ids=[], segment_parents=[],
        compressor_ids=[], supply_ids=[], withdrawal_ids=[],
        rho_H2=zeros.copy(), rho_NG=zeros.copy(),
        eta=np.vstack([up, down]), p=zeros.copy(),
        f0=np.zeros((0, N)), fL=np.zeros((0, N)),
        alpha=np.zeros((0, N)), fc=np.zeros((0, N)),
        qs=np.zeros((0, N)), qw=np.zeros((0, N)), gE=np.zeros((0, N)))


class TestLagAnalysis:
    def test_recovers_synthetic_shift(self):
        tr = synthetic_trajectory(shift_steps=3)
        assert lag_analysis(tr, "A", "B") == pytest.approx(3.0)

    def test_negative_lag_when_upstream_lags(self):
        tr = synthetic_trajectory(shift_steps=3)
        assert lag_analysis(tr, "B", "A") == pytest.approx(-3.0)

    def test_aliased_lags_resolve_to_the_shortest(self):
        """A series repeating twice per horizon correlates equally at lags
        half a horizon apart; the downstream one leads by one step."""
        tr = synthetic_trajectory(N=24)
        cycle = 0.1 + 0.05 * np.sin(2.0 * np.pi * np.arange(12) / 12)
        up = np.tile(cycle, 2)
        tr.eta[:] = np.vstack([up, np.roll(up, -1)])
        assert lag_analysis(tr, "A", "B") == -1.0

    def test_constant_series_has_no_lag(self):
        tr = synthetic_trajectory()
        tr.eta[1, :] = 0.1
        assert lag_analysis(tr, "A", "B") is None

    def test_solved_case_lag_is_advective(self, solved_case):
        tr, _, _, _ = solved_case
        lag = lag_analysis(tr, "N1", "N3")
        assert lag is not None and lag > 0.0


class TestFeasibility:
    def test_solution_passes(self, solved_case):
        tr, segnet, scenario, _ = solved_case
        report = check_feasibility(tr, segnet, scenario)
        assert report.passed

    def test_tampered_density_fails(self, solved_case):
        tr, segnet, scenario, _ = solved_case
        bad = SolutionTrajectory(**{**tr.__dict__, "rho_H2": tr.rho_H2.copy()})
        bad.rho_H2[1, 2] *= 1.1
        report = check_feasibility(bad, segnet, scenario)
        assert not report.passed
        names = [c.name for c in report.checks if not c.passed and not c.advisory]
        assert any(n.startswith("residual/") for n in names)

    def test_smoothing_free_reevaluation_matches_at_moderate_flows(self):
        # away from zero flux the smoothed |phi| is indistinguishable
        args = dict(rho_h2_i=0.3, rho_ng_i=2.0, rho_h2_j=0.25, rho_ng_j=1.9,
                    rho_h2_i_succ=0.3, rho_ng_i_succ=2.0,
                    rho_h2_j_succ=0.25, rho_ng_j_succ=1.9,
                    eta_i=0.1, eta_j=0.1, dt_seconds=3600.0, storage=100.0,
                    area_hat=0.65, resistance=1.5, c_h2=2.0, c_ng=0.7)
        for phi in (0.1, -0.1):
            exact = pipe_segment_residuals(f0=phi, fl=phi, smoothing_eps=0.0,
                                           **args)[2]
            smooth = pipe_segment_residuals(f0=phi, fl=phi,
                                            smoothing_eps=1e-8, **args)[2]
            assert abs(exact - smooth) <= 1e-12


class TestConservation:
    def test_solution_conserves_both_species(self, solved_case):
        tr, segnet, scenario, _ = solved_case
        report = conservation_audit(tr, segnet, scenario)
        assert report.passed
        assert all(c.value <= 1e-6 for c in report.checks)

    def test_tampered_supply_fails(self, solved_case):
        tr, segnet, scenario, _ = solved_case
        bad = SolutionTrajectory(**{**tr.__dict__, "qs": tr.qs * 1.01})
        report = conservation_audit(bad, segnet, scenario)
        assert not report.passed


class TestPeriodicityAndFlowDirection:
    def test_periodic_solution_passes(self, solved_case):
        tr, _, _, _ = solved_case
        report = periodicity_check(tr, cycles=2)
        assert report.checks[0].passed
        assert report.checks[0].value <= 1e-4

    def test_broken_periodicity_fails(self, solved_case):
        tr, _, _, _ = solved_case
        bad = SolutionTrajectory(**{**tr.__dict__, "p": tr.p.copy()})
        bad.p[0, 0] *= 1.5
        report = periodicity_check(bad, cycles=2)
        assert not report.checks[0].passed

    def test_odd_cycle_count_not_applicable(self, solved_case):
        tr, _, _, _ = solved_case
        report = periodicity_check(tr, cycles=3)
        assert report.checks[0].detail == "not applicable"

    def test_data_that_repeat_once_are_not_applicable(self):
        """On eight-node, J1 cycling twice beside J7 cycling once makes data
        that repeat only once over the horizon: the block check reports, but
        compares nothing."""
        net = load_network(bundled_path("eight-node", "network"))
        scenario = load_scenario(bundled_path("eight-node", "scenario"))
        scenario = dataclasses.replace(scenario, profiles={
            **scenario.profiles,
            "J1": Profile(kind="sinusoid", eta0=0.08, delta=0.01, nu=2.0)})
        assert scenario.periods == 1
        segnet = segment_pipes(net, scenario.dL)
        steady_result, _ = solve_steady(segnet, scenario)
        result, problem = solve_transient(segnet, scenario, steady_result.x)
        assert result.status == "local-optimum"
        tr = SolutionTrajectory.from_solution(problem, result.x)
        report = run_audits(tr, segnet, scenario)
        block = [c for c in report.checks if c.name == "periodicity/block"]
        assert [(c.passed, c.detail) for c in block] == [(True, "not applicable")]
        assert report.passed

    def test_flow_reversal_is_advisory(self, solved_case):
        tr, _, _, _ = solved_case
        bad = SolutionTrajectory(**{**tr.__dict__, "f0": tr.f0.copy()})
        bad.f0[0, 0] = -bad.f0[0, 0]
        report = flow_direction_audit(bad)
        assert not report.checks[0].passed
        assert report.checks[0].advisory
        assert report.passed  # advisory findings do not fail the audit


class TestDerivativeCheck:
    def test_assembled_derivatives_are_exact(self, solved_case):
        _, _, _, problem = solved_case
        assert derivative_check(problem, n_points=5) <= 1e-6


class TestReporting:
    def test_run_audits_aggregates(self, solved_case):
        tr, segnet, scenario, _ = solved_case
        # the scenario's supply profile repeats twice (nu 2)
        report = run_audits(tr, segnet, scenario)
        names = [c.name for c in report.checks]
        assert "conservation/H2" in names
        assert "periodicity/block" in names
        assert report.passed

    def test_json_and_text_forms(self, solved_case):
        tr, segnet, scenario, _ = solved_case
        report = run_audits(tr, segnet, scenario)
        doc = json.loads(report.to_json())
        assert doc["passed"] is True
        assert len(doc["checks"]) == len(report.checks)
        text = report.to_text()
        assert text.endswith("overall: PASS")

    def test_failures_listed(self):
        report = AuditReport()
        report.add("a", True, 0.0, 1.0)
        report.add("b", False, 2.0, 1.0)
        report.add("c", False, 2.0, 1.0, advisory=True)
        assert not report.passed
        marks = [line.split()[:2] for line in report.to_text().splitlines()[:-1]]
        assert marks == [["[PASS]", "a:"], ["[FAIL]", "b:"], ["[WARN]", "c:"]]


class TestOneProblemPerSolveAndAudit:
    def test_audit_reuses_the_solved_problem(self, tmp_path, monkeypatch):
        """An eight-node steady solve and its audit assemble one NLP; the
        audit of the same trajectory read back from disk assembles its own
        and reports the same."""
        assembled = []
        for module in (h2blend.solver, h2blend.validation):
            def counted(*args, _assemble=module.assemble_nlp, **kwargs):
                assembled.append(args[2])
                return _assemble(*args, **kwargs)
            monkeypatch.setattr(module, "assemble_nlp", counted)
        scenario = load_scenario(bundled_path("eight-node", "scenario"))
        segnet = segment_pipes(load_network(bundled_path("eight-node", "network")),
                               scenario.dL)
        result, problem = solve_steady(segnet, scenario)
        assert result.status == "local-optimum"
        tr = SolutionTrajectory.from_solution(problem, result.x)
        report = run_audits(tr, segnet, scenario)
        assert report.passed
        assert len(assembled) == 1
        # the audit evaluated a copy: the solve's problem keeps its smoothing
        assert problem.smoothing_eps == 1e-8
        write_solution(tr, tmp_path)
        read_back = read_solution(tmp_path)
        assert read_back.problem is None
        assert run_audits(read_back, segnet, scenario).to_json() == report.to_json()
        assert len(assembled) == 2
