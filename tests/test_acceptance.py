"""End-to-end acceptance criteria for the two bundled case studies.

Each test states its tolerance inline.  The module-scoped fixtures solve
each case once; criteria then probe the shared solutions.
"""

import numpy as np
import pytest

from conftest import line_network, short_scenario
from h2blend.cli import bundled_path, main
from h2blend.network import load_network, load_scenario, segment_pipes
from h2blend.physics import GasConstants
from h2blend.solution import SolutionTrajectory
from h2blend.solver import (
    SolverOptions,
    replicate_steady,
    solve_steady,
    solve_transient,
)
from h2blend.validation import conservation_audit, periodicity_check
from reference_forms import derivative_check, expected_variable_count, lag_analysis


def solve_bundled(case):
    net = load_network(bundled_path(case, "network"))
    scenario = load_scenario(bundled_path(case, "scenario"))
    segnet = segment_pipes(net, scenario.dL)
    steady_result, _ = solve_steady(segnet, scenario)
    result, problem = solve_transient(segnet, scenario, steady_result.x)
    trajectory = SolutionTrajectory.from_solution(problem, result.x)
    return {
        "segnet": segnet,
        "scenario": scenario,
        "result": result,
        "problem": problem,
        "steady_result": steady_result,
        "trajectory": trajectory,
    }


@pytest.fixture(scope="module")
def single_pipe():
    return solve_bundled("single-pipe")


@pytest.fixture(scope="module")
def eight_node():
    return solve_bundled("eight-node")


class TestCriterion1DemandTracking:
    """Delivered energy holds the 8000 MJ/s demand within 0.1% for at
    least 75% of the steps; the shortfall forms one contiguous dip per
    supply cycle; the whole solve finishes within 5 minutes."""

    def test_delivery_and_dip_shape(self, single_pipe):
        tr = single_pipe["trajectory"]
        ge = tr.gE[tr.withdrawal_ids.index("N3")]
        ok = np.abs(ge - 8000.0) <= 0.001 * 8000.0
        assert ok.mean() >= 0.75
        # with two supply cycles the dips repeat at half-period; folded
        # onto one cycle they must form a single contiguous run
        N = tr.n_steps
        bad = sorted({i % (N // 2) for i in np.flatnonzero(~ok)})
        runs = 1 + sum(1 for a, b in zip(bad, bad[1:]) if b != a + 1)
        assert runs == 1
        # the dip never cuts delivery below 90% of demand
        assert ge.min() >= 0.9 * 8000.0

    def test_runtime(self, single_pipe):
        total = (single_pipe["result"].wall_time
                 + single_pipe["steady_result"].wall_time)
        assert total <= 300.0


class TestCriterion2PressureEnvelope:
    """The compressor outlet peaks close to the 6 MPa ceiling and no node
    leaves the [3, 6] MPa corridor (1e-6 MPa slack for solver tolerance)."""

    def test_outlet_peak(self, single_pipe):
        p2 = single_pipe["trajectory"].node_series("N2", "p")
        assert 5.94e6 <= p2.max() <= 6.0e6 + 1.0

    def test_corridor(self, single_pipe):
        p = single_pipe["trajectory"].p
        assert p.min() >= 3.0e6 - 1.0
        assert p.max() <= 6.0e6 + 1.0


class TestCriterion3Periodicity:
    """With the supply profile repeating twice over the horizon, the
    solution at t and t + 12 h agrees to a relative 1e-4."""

    def test_block_periodicity(self, single_pipe):
        report = periodicity_check(single_pipe["trajectory"], cycles=2)
        check = report.checks[0]
        assert check.passed
        assert check.value <= 1e-4


class TestCriterion4TransportLag:
    """The withdrawal concentration lags the supply concentration by a
    positive advective delay between 0.5 and 4 hours."""

    def test_lag(self, single_pipe):
        lag = lag_analysis(single_pipe["trajectory"], "N1", "N3")
        assert lag is not None
        assert 0.5 <= lag <= 4.0


class TestCriterion5SpeciesConservation:
    """Injected minus withdrawn mass vanishes per species over the cyclic
    horizon, within 1e-6 of total throughput."""

    def test_both_species(self, single_pipe):
        report = conservation_audit(single_pipe["trajectory"],
                                    single_pipe["segnet"],
                                    single_pipe["scenario"], tol=1e-6)
        assert report.passed
        assert all(c.value <= 1e-6 for c in report.checks)


class TestCriterion6ExactDerivatives:
    """Analytic Jacobian and gradient match central differences to 1e-6
    at 20 random interior points, on both assembled problems."""

    def test_single_pipe(self, single_pipe):
        assert derivative_check(single_pipe["problem"], n_points=20) <= 1e-6

    def test_eight_node(self, eight_node):
        assert derivative_check(eight_node["problem"], n_points=20) <= 1e-6


class TestCriterion7SteadyOracle:
    """For a homogeneous natural-gas line the steady solver reproduces
    the closed-form squared-pressure drop and withdrawal rate to 1e-6."""

    def test_closed_form(self):
        scenario = short_scenario()
        segnet = segment_pipes(line_network(eta_s=0.0), scenario.dL)
        result, problem = solve_steady(segnet, scenario)
        assert result.status == "local-optimum"
        tr = SolutionTrajectory.from_solution(problem, result.x)
        g = GasConstants()
        qw = tr.qw[0, 0]
        assert qw == pytest.approx(8000.0 / g.R_NG, rel=1e-6)
        A = np.pi * 0.9144 ** 2 / 4.0
        p_out_sq = 5.0e6 ** 2 - g.a_NG ** 2 * (0.01 * 30000.0 / 0.9144) * (qw / A) ** 2
        assert tr.node_series("N3", "p")[0] == pytest.approx(
            np.sqrt(p_out_sq), rel=1e-6)


class TestCriterion8SteadyLimit:
    """With constant boundary data the transient optimum equals the
    steady optimum replicated over the grid, to 1e-6."""

    def test_zero_amplitude_profile(self):
        net = load_network(bundled_path("single-pipe", "network"))
        scenario = load_scenario(bundled_path("single-pipe", "scenario"))
        doc = {"horizon_hours": scenario.T_f, "dt_hours": scenario.dt,
               "segment_length_m": scenario.dL,
               "profiles": {"N1": {"type": "constant", "eta0": 0.1}}}
        from h2blend.network import parse_scenario
        flat = parse_scenario(doc)
        segnet = segment_pipes(net, flat.dL)
        options = SolverOptions(kkt_tol=1e-8)
        steady_result, _ = solve_steady(segnet, flat, options)
        assert steady_result.status == "local-optimum"
        result, problem = solve_transient(segnet, flat, steady_result.x, options)
        assert result.status == "local-optimum"
        tiled = replicate_steady(steady_result.x, problem)
        assert np.abs(result.x - tiled).max() <= 1e-6


class TestCriterion9NetworkCase:
    """The looped network solves to a local optimum in under 15 minutes;
    the delivery compressor runs pinned at its 140 kg/s capacity while
    the counter-flow unit stays shut; the variable count matches the
    closed-form tally."""

    def test_solved(self, eight_node):
        result = eight_node["result"]
        assert result.status == "local-optimum"
        total = result.wall_time + eight_node["steady_result"].wall_time
        assert total <= 900.0

    def test_delivery_compressor_at_capacity(self, eight_node):
        tr = eight_node["trajectory"]
        fc3 = tr.fc[tr.compressor_ids.index("C3")]
        assert np.all(np.abs(fc3 - 140.0) <= 0.001 * 140.0)

    def test_counterflow_compressor_idle(self, eight_node):
        tr = eight_node["trajectory"]
        fc2 = tr.fc[tr.compressor_ids.index("C2")]
        assert fc2.max() <= 1.0

    def test_variable_count(self, single_pipe):
        problem = single_pipe["problem"]
        assert problem.index.total == expected_variable_count(
            problem.segnet, problem.grid)
        seg = problem.segnet
        N = problem.grid.n_points
        n_sup = len(problem.index.supply_ids)
        n_wd = len(problem.index.withdrawal_ids)
        assert problem.index.total == N * (
            3 * len(seg.nodes) + 2 * len(seg.segments)
            + 2 * len(seg.compressors) + n_sup + 2 * n_wd)


class TestCriterion10Reproducibility:
    """Two CLI runs on identical inputs produce byte-identical CSVs."""

    def test_byte_identical_reruns(self, tmp_path):
        out1, out2 = tmp_path / "run1", tmp_path / "run2"
        for out in (out1, out2):
            code = main(["--case", "single-pipe", "--out", str(out),
                         "--iter-log"])
            assert code == 0
        for name in ("nodes.csv", "edges.csv", "transfers.csv",
                     "objective.csv", "iterations_steady.csv",
                     "iterations_transient.csv"):
            assert (out1 / name).read_bytes() == (out2 / name).read_bytes()
