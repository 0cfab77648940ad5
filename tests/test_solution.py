import numpy as np
import pytest

from conftest import line_network, short_scenario
from h2blend.network import segment_pipes
from h2blend.solution import SolutionTrajectory, read_solution, write_solution
from h2blend.solver import solve_steady, solve_transient


@pytest.fixture(scope="module")
def solved_case():
    scenario = short_scenario(profiles={
        "N1": {"type": "sinusoid", "eta0": 0.1, "delta": 0.02, "nu": 1.0}})
    segnet = segment_pipes(line_network(), scenario.dL)
    steady_result, _ = solve_steady(segnet, scenario)
    result, problem = solve_transient(segnet, scenario, steady_result.x)
    assert result.status == "local-optimum"
    return result, problem


@pytest.fixture(scope="module")
def steady_case():
    scenario = short_scenario()
    result, problem = solve_steady(segment_pipes(line_network(), scenario.dL), scenario)
    assert result.status == "local-optimum"
    return result, problem


class TestTrajectory:
    def test_shapes(self, solved_case):
        result, problem = solved_case
        tr = SolutionTrajectory.from_solution(problem, result.x)
        N = problem.grid.n_points
        assert tr.n_steps == N
        assert tr.p.shape == (len(tr.node_ids), N)
        assert tr.f0.shape == (len(tr.segment_ids), N)
        assert tr.qs.shape == (1, N)
        assert tr.gE.shape == (1, N)
        assert tr.dt_hours == problem.grid.dt

    def test_pressure_consistent_with_densities(self, solved_case):
        result, problem = solved_case
        tr = SolutionTrajectory.from_solution(problem, result.x)
        gas = problem.scenario.gas
        p = gas.a_H2 ** 2 * tr.rho_H2 + gas.a_NG ** 2 * tr.rho_NG
        assert tr.p == pytest.approx(p, rel=1e-12)

    def test_to_variables_inverts_from_solution(self, solved_case):
        result, problem = solved_case
        tr = SolutionTrajectory.from_solution(problem, result.x)
        x = tr.to_variables(problem)
        assert np.abs(x - result.x).max() <= 1e-12

    def test_node_series(self, solved_case):
        result, problem = solved_case
        tr = SolutionTrajectory.from_solution(problem, result.x)
        assert np.all(tr.node_series("N1", "p") == tr.p[tr.node_ids.index("N1")])
        with pytest.raises(ValueError):
            tr.node_series("missing", "p")


class TestSerialization:
    def test_round_trip_is_exact(self, solved_case, steady_case, tmp_path):
        """A transient and a steady (one-step) solution read back equal."""
        for (result, problem), out in ((solved_case, tmp_path / "transient"),
                                       (steady_case, tmp_path / "steady")):
            tr = SolutionTrajectory.from_solution(problem, result.x)
            write_solution(tr, out)
            back = read_solution(out)
            assert back.node_ids == tr.node_ids
            assert back.segment_ids == tr.segment_ids
            assert back.segment_parents == tr.segment_parents
            assert back.supply_ids == tr.supply_ids
            assert back.dt_hours == tr.dt_hours
            for name in ("times", "rho_H2", "rho_NG", "eta", "p", "f0", "fL",
                         "alpha", "fc", "qs", "qw", "gE"):
                assert np.array_equal(getattr(back, name), getattr(tr, name)), name
            for key in ("economic_cost_usd", "compression_cost_usd", "objective"):
                assert back.economics[key] == tr.economics[key]

    def test_writes_expected_files(self, solved_case, tmp_path):
        result, problem = solved_case
        tr = SolutionTrajectory.from_solution(problem, result.x)
        paths = write_solution(tr, tmp_path)
        names = sorted(p.name for p in paths)
        assert names == ["edges.csv", "nodes.csv", "objective.csv",
                         "transfers.csv"]
        header = (tmp_path / "nodes.csv").read_text().splitlines()[0]
        assert header == "time_h,node,rho_H2_kg_m3,rho_NG_kg_m3,eta,p_Pa,p_MPa"
