import math

import numpy as np
import pytest

from conftest import line_network, short_scenario
from h2blend.network import segment_pipes
from h2blend.physics import (
    DomainError,
    GasConstants,
    nondim_scales,
    pipe_beta,
)
from h2blend.solution import SolutionTrajectory
from h2blend.transcription import TimeGrid, assemble_nlp

GAS = GasConstants()


@pytest.fixture(scope="module")
def problem():
    scenario = short_scenario()
    segnet = segment_pipes(line_network(), scenario.dL)
    return assemble_nlp(segnet, scenario, TimeGrid(scenario.n_steps, scenario.dt))


def state(problem, rho_H2=1.0, rho_NG=20.0, eta=1.0 / 21.0, qw=100.0, gE=0.0):
    """Variable vector holding the same SI values (kg/m^3, kg/s, MJ/s) at
    every node, withdrawal and time step; flows and supplies are zero.
    The defaults lie inside every bound of the line network."""
    idx = problem.index
    x = np.zeros(idx.total)
    idx.block(x, "rho_h2")[:] = rho_H2 / problem.scales.rho0
    idx.block(x, "rho_ng")[:] = rho_NG / problem.scales.rho0
    idx.block(x, "eta")[:] = eta
    idx.block(x, "qw")[:] = qw / problem.flow0
    idx.block(x, "ge")[:] = gE / problem.energy0
    return x


def rows(problem, x, family):
    k = problem.family_names.index(family)
    off = problem.row_offset
    return problem.eq_constraints(x)[off[k]:off[k + 1]]


def pressure(problem, rho_H2, rho_NG):
    """Pressures, Pa, that the solution output reports for these densities."""
    x = state(problem, rho_H2=rho_H2, rho_NG=rho_NG)
    return SolutionTrajectory.from_solution(problem, x).p


def sound_speed_sq(problem, eta, rho=5.0):
    """Mixture a^2 = p / rho, m^2/s^2, at hydrogen mass fraction eta."""
    return pressure(problem, eta * rho, (1.0 - eta) * rho) / rho


def energy_rate(problem, eta, qw):
    """Energy, MJ/s, that the energy rows assign to a withdrawal of qw kg/s
    at hydrogen mass fraction eta."""
    x = state(problem, eta=eta, qw=qw, gE=0.0)
    return -rows(problem, x, "energy") * problem.energy0


def outside_bounds(problem, x):
    """Whether x leaves the NLP's variable bounds or pressure bounds."""
    p = problem.ineq_constraints(x)
    return bool(np.any(x < problem.lb) or np.any(x > problem.ub)
                or np.any(p < problem.ineq_lb) or np.any(p > problem.ineq_ub))


# The mixture laws below are checked where h2blend applies them: the
# pressures the solution output reports, the NLP's pressure, concentration
# and energy rows, and the NLP's bounds.

class TestMixtureSoundSpeed:
    def test_pure_components(self, problem):
        assert sound_speed_sq(problem, 0.0) == pytest.approx(386.9 ** 2)
        assert sound_speed_sq(problem, 1.0) == pytest.approx(1091.4 ** 2)

    def test_ten_percent_blend(self, problem):
        # 0.1 * 1091.4^2 + 0.9 * 386.9^2, evaluated by hand
        assert sound_speed_sq(problem, 0.1) == pytest.approx(
            253837.845, rel=1e-9)

    def test_monotone_in_eta(self, problem):
        values = np.array([sound_speed_sq(problem, e / 10.0) for e in range(11)])
        assert np.all(np.diff(values, axis=0) > 0.0)

    def test_rejects_out_of_range(self, problem):
        assert not outside_bounds(problem, state(problem))
        assert outside_bounds(problem, state(problem, eta=-0.01))
        assert outside_bounds(problem, state(problem, eta=1.01))


class TestEosPressure:
    def test_linear_in_partial_densities(self, problem):
        # 0.5 * 1091.4^2 + 5.0 * 386.9^2 = 1344035.03 Pa
        assert pressure(problem, 0.5, 5.0) == pytest.approx(1344035.03, rel=1e-9)

    def test_additive(self, problem):
        p1 = pressure(problem, 0.3, 2.0)
        p2 = pressure(problem, 0.2, 3.0)
        assert pressure(problem, 0.5, 5.0) == pytest.approx(p1 + p2)

    def test_consistent_with_mixture_sound_speed(self, problem):
        # the pressure rows the solver bounds equal a^2(eta) * rho
        rho_h2, rho_ng = 0.4, 3.6
        eta = rho_h2 / (rho_h2 + rho_ng)
        a2 = eta * GAS.a_H2 ** 2 + (1.0 - eta) * GAS.a_NG ** 2
        x = state(problem, rho_H2=rho_h2, rho_NG=rho_ng)
        assert problem.ineq_constraints(x) * problem.scales.p0 == pytest.approx(
            a2 * (rho_h2 + rho_ng))

    def test_rejects_bad_densities(self, problem):
        assert outside_bounds(problem, state(problem, rho_H2=-0.1))
        assert outside_bounds(problem, state(problem, rho_NG=-0.1))


class TestEnergyRate:
    def test_blend_value(self, problem):
        # (0.1 * 141.8 + 0.9 * 44.2) * 100 = 5396 MJ/s
        assert energy_rate(problem, 0.1, 100.0) == pytest.approx(5396.0)

    def test_pure_ng(self, problem):
        assert energy_rate(problem, 0.0, 10.0) == pytest.approx(442.0)

    def test_rejects_negative_flow(self, problem):
        assert outside_bounds(problem, state(problem, qw=-1.0))


class TestNondimScales:
    def test_derived_quantities(self):
        sc = nondim_scales()
        assert sc.a0 == pytest.approx(math.sqrt(1091.4 * 386.9))
        assert sc.v0 == pytest.approx(sc.a0 / 300.0)
        assert sc.rho0 == pytest.approx(2.3682, rel=1e-4)
        assert sc.phi0 == pytest.approx(sc.rho0 * sc.v0)
        assert sc.kappa == pytest.approx(sc.v0 / 1000.0)
        assert sc.flow0 == pytest.approx(sc.phi0 * sc.A0)

    def test_custom_scales(self):
        sc = nondim_scales(l0=5000.0, p0=2.0e6)
        assert sc.rho0 == pytest.approx(2.0e6 / sc.a0 ** 2)
        assert sc.kappa == pytest.approx(sc.v0 / 5000.0)

    def test_rejects_non_positive(self):
        with pytest.raises(DomainError):
            nondim_scales(l0=0.0)
        with pytest.raises(DomainError):
            nondim_scales(p0=-1.0)


class TestPipeBeta:
    def test_reference_value(self):
        # 300^2 * 0.01 * 10000 / (2 * 0.9144) = 4.9213e6
        assert pipe_beta(0.01, 10000.0, 0.9144, 1.0 / 300.0) == pytest.approx(
            4.9213e6, rel=1e-4)

    def test_independent_of_length_scale(self):
        # only L/D enters, so doubling both leaves the value unchanged
        a = pipe_beta(0.01, 10000.0, 0.9, 1.0 / 300.0)
        b = pipe_beta(0.01, 20000.0, 1.8, 1.0 / 300.0)
        assert a == pytest.approx(b)

    def test_rejects_bad_arguments(self):
        with pytest.raises(DomainError):
            pipe_beta(-0.01, 1000.0, 0.9, 1.0 / 300.0)
        with pytest.raises(DomainError):
            pipe_beta(0.01, 0.0, 0.9, 1.0 / 300.0)


class TestGasConstants:
    def test_defaults_valid(self):
        g = GasConstants()
        assert g.a_H2 > g.a_NG
        assert g.R_H2 > g.R_NG

    def test_rejects_bad_ordering(self):
        with pytest.raises(DomainError):
            GasConstants(a_H2=300.0, a_NG=400.0)
        with pytest.raises(DomainError):
            GasConstants(R_H2=40.0, R_NG=44.2)


class TestMixtureState:
    """The NLP stores eta next to the partial densities, so its
    concentration rows check their consistency rather than assume it."""

    def test_from_partial_densities_is_consistent(self, problem):
        x = state(problem, rho_H2=0.5, rho_NG=5.0, eta=0.5 / 5.5)
        assert rows(problem, x, "concentration") == pytest.approx(0.0, abs=1e-15)
        tr = SolutionTrajectory.from_solution(problem, x)
        assert tr.eta == pytest.approx(tr.rho_H2 / (tr.rho_H2 + tr.rho_NG))

    def test_detects_drift(self, problem):
        x = state(problem, rho_H2=0.5, rho_NG=5.0, eta=0.2)
        assert np.abs(rows(problem, x, "concentration")).min() > 1e-2

    def test_rejects_empty_state(self, problem):
        # zero density gives zero pressure, below every node's p_min
        x = state(problem, rho_H2=0.0, rho_NG=0.0, eta=0.0)
        assert np.all(problem.ineq_constraints(x) < problem.ineq_lb)
