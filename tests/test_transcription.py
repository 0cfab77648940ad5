import dataclasses
import re

import numpy as np
import pytest
import scipy.sparse as sp

from conftest import SHORT_SCENARIO_DOC, line_network, short_scenario
from h2blend.cli import bundled_path
from h2blend.network import (
    Compressor,
    ParseError,
    load_network,
    load_scenario,
    parse_scenario,
    segment_pipes,
)
from h2blend.solution import export_nlp
from h2blend.transcription import TimeGrid, assemble_nlp
from reference_forms import (
    compatibility_residuals,
    compressor_residual,
    cyclic_derivative,
    derivative_check,
    energy_residual,
    expected_variable_count,
    nodal_balance_residuals,
    on_pattern,
    pipe_segment_residuals,
)


def bundled_segnet(scenario):
    net = load_network(bundled_path("single-pipe", "network"))
    return segment_pipes(net, scenario.dL)


@pytest.fixture
def small_problem():
    scenario = short_scenario(profiles={
        "N1": {"type": "sinusoid", "eta0": 0.1, "delta": 0.05, "nu": 1.0}})
    segnet = bundled_segnet(scenario)
    grid = TimeGrid(scenario.n_steps, scenario.dt)
    return assemble_nlp(segnet, scenario, grid)


def random_point(problem, seed=3):
    rng = np.random.default_rng(seed)
    x = rng.uniform(0.8, 2.0, problem.index.total)
    for q in ("f0", "fl", "fc"):
        blk = problem.index.block(x, q)
        blk[:] = rng.uniform(0.5, 1.5, blk.shape)
    blk = problem.index.block(x, "eta")
    blk[:] = rng.uniform(0.05, 0.3, blk.shape)
    return x


class TestTimeGrid:
    def test_points_and_wrap(self):
        scenario = short_scenario(horizon_hours=24.0, dt_hours=0.5)
        grid = TimeGrid(scenario.n_steps, scenario.dt)
        assert grid.n_points == 48
        assert grid.points[0] == 0.0
        assert grid.points[-1] == pytest.approx(23.5)
        assert grid.succ[-1] == 0
        assert grid.succ[0] == 1
        assert grid.n_points * grid.dt == pytest.approx(24.0)

    def test_rejects_non_divisible_step(self):
        for dt, reason in ((0.7, "divide"), (-1.0, "positive")):
            with pytest.raises(ParseError, match=reason):
                parse_scenario({**SHORT_SCENARIO_DOC, "horizon_hours": 24.0,
                                "dt_hours": dt})

    def test_cyclic_derivative(self):
        x = np.array([1.0, 3.0, 2.0])
        xs = x[(np.arange(3) + 1) % 3]
        d = cyclic_derivative(xs, x, 0.5)
        assert list(d) == [4.0, -2.0, -2.0]
        # the rates of a cyclic series sum to zero
        assert d.sum() == pytest.approx(0.0)
        with pytest.raises(ValueError):
            cyclic_derivative(xs, x, 0.0)


class TestAssemblyErrors:
    @pytest.mark.parametrize("node_id", ["N9", "N3"])
    def test_profile_of_a_non_supply_node(self, node_id):
        scenario = short_scenario(profiles={
            node_id: {"type": "sinusoid", "eta0": 0.1, "delta": 0.05}})
        segnet = segment_pipes(line_network(), scenario.dL)
        grid = TimeGrid(scenario.n_steps, scenario.dt)
        with pytest.raises(ParseError,
                           match=rf"profiles\['{node_id}'\]: not a supply node"):
            assemble_nlp(segnet, scenario, grid)

    def test_pipe_segment_from_a_node_to_itself(self):
        """A pipe segment or a compressor whose ends coincide repeats a
        column in its nonlinear row.  parse_network rejects such an edge,
        so the segmented network is built by hand."""
        scenario = short_scenario()
        grid = TimeGrid(scenario.n_steps, scenario.dt)
        segnet = segment_pipes(line_network(), scenario.dL)
        loop = {"from_node": "N3", "to_node": "N3"}
        segment = dataclasses.replace(segnet.segments[0], id="P9.s1", **loop)
        compressor = Compressor(id="C9", alpha_max=2.0, fc_max=100.0, **loop)
        for where, edited in (
                ("momentum: 'P9.s1'", dataclasses.replace(
                    segnet, segments=(*segnet.segments, segment))),
                ("compressor_boost: 'C9'", dataclasses.replace(
                    segnet, compressors=(compressor,)))):
            with pytest.raises(ParseError, match=re.escape(
                    f"{where} starts and ends at the same node")):
                assemble_nlp(edited, scenario, grid)


class TestCountingFormula:
    def test_matches_index(self, small_problem):
        p = small_problem
        assert p.index.total == expected_variable_count(p.segnet, p.grid)

    def test_closed_form(self, small_problem):
        seg = small_problem.segnet
        N = small_problem.grid.n_points
        n_nodes = len(seg.nodes)
        n_seg = len(seg.segments)
        n_comp = len(seg.compressors)
        n_sup = len(small_problem.index.supply_ids)
        n_wd = len(small_problem.index.withdrawal_ids)
        assert small_problem.index.total == N * (
            3 * n_nodes + 2 * n_seg + 2 * n_comp + n_sup + 2 * n_wd)


class TestReferenceResiduals:
    """The vectorized assembly must agree with the scalar per-entity forms."""

    def test_segment_and_momentum_rows(self, small_problem):
        p = small_problem
        x = random_point(p)
        c = p.eq_constraints(x)
        off = p.row_offset
        N = p.grid.n_points
        idx = p.index
        rh = idx.block(x, "rho_h2")
        rn = idx.block(x, "rho_ng")
        eta = idx.block(x, "eta")
        f0 = idx.block(x, "f0")
        fl = idx.block(x, "fl")
        pos = idx.node_pos
        for e, s in enumerate(p.segnet.segments):
            i, j = pos[s.from_node], pos[s.to_node]
            for n in range(N):
                m = (n + 1) % N
                r_h2, r_ng, r_mom = pipe_segment_residuals(
                    rh[i, n], rn[i, n], rh[j, n], rn[j, n],
                    rh[i, m], rn[i, m], rh[j, m], rn[j, m],
                    eta[i, n], eta[j, n], f0[e, n], fl[e, n],
                    p.dt_seconds, p.seg_storage[e], p.seg_area[e],
                    p.seg_resistance[e], p.c_h2, p.c_ng,
                    smoothing_eps=p.smoothing_eps)
                row = e * N + n
                assert c[off[0] + row] == pytest.approx(r_h2, abs=1e-12)
                assert c[off[1] + row] == pytest.approx(r_ng, abs=1e-12)
                assert c[off[2] + row] == pytest.approx(r_mom, abs=1e-12)

    def test_compressor_rows(self, small_problem):
        p = small_problem
        x = random_point(p)
        c = p.eq_constraints(x)
        off = p.row_offset
        N = p.grid.n_points
        idx = p.index
        rh = idx.block(x, "rho_h2")
        rn = idx.block(x, "rho_ng")
        alpha = idx.block(x, "alpha")
        pos = idx.node_pos
        for e, comp in enumerate(p.segnet.compressors):
            i, j = pos[comp.from_node], pos[comp.to_node]
            for n in range(N):
                p_i = p.c_h2 * rh[i, n] + p.c_ng * rn[i, n]
                p_j = p.c_h2 * rh[j, n] + p.c_ng * rn[j, n]
                want = compressor_residual(p_i, p_j, alpha[e, n])
                assert c[off[3] + e * N + n] == pytest.approx(want, abs=1e-12)

    def test_balance_concentration_energy_rows(self, small_problem):
        p = small_problem
        x = random_point(p)
        c = p.eq_constraints(x)
        off = p.row_offset
        N = p.grid.n_points
        idx = p.index
        eta = idx.block(x, "eta")
        f0 = idx.block(x, "f0")
        fl = idx.block(x, "fl")
        fc = idx.block(x, "fc")
        qs = idx.block(x, "qs")
        qw = idx.block(x, "qw")
        ge = idx.block(x, "ge")
        rh = idx.block(x, "rho_h2")
        rn = idx.block(x, "rho_ng")
        pos = idx.node_pos
        sup = {nid: k for k, nid in enumerate(idx.supply_ids)}
        wd = {nid: k for k, nid in enumerate(idx.withdrawal_ids)}
        for k, node in enumerate(p.segnet.nodes):
            for n in range(N):
                inflows = []
                outflows = []
                for e, s in enumerate(p.segnet.segments):
                    if s.to_node == node.id:
                        inflows.append((fl[e, n], eta[k, n]))
                    if s.from_node == node.id:
                        outflows.append((f0[e, n], eta[k, n]))
                for e, comp in enumerate(p.segnet.compressors):
                    # the compressor carries its inlet node's concentration
                    if comp.to_node == node.id:
                        inflows.append((fc[e, n], eta[pos[comp.from_node], n]))
                    if comp.from_node == node.id:
                        outflows.append((fc[e, n], eta[k, n]))
                q_s = qs[sup[node.id], n] if node.id in sup else 0.0
                q_w = qw[wd[node.id], n] if node.id in wd else 0.0
                eta_s = (p.eta_s[sup[node.id], n] if node.id in sup else 0.0)
                r_h2, r_ng = nodal_balance_residuals(
                    inflows, outflows, q_s, q_w, eta[k, n], eta_s)
                assert c[off[4] + k * N + n] == pytest.approx(
                    r_h2 + r_ng, abs=1e-12)
                if k in p.species_nodes:
                    r = p.species_nodes.index(k)
                    assert c[off[5] + r * N + n] == pytest.approx(r_h2, abs=1e-12)
                slack_ids = p.segnet.original.slack_ids
                p_slack = (p.segnet.original.node(node.id).p_slack / p.scales.p0
                           if node.id in slack_ids else None)
                comp_res = compatibility_residuals(
                    rh[k, n], rn[k, n], eta[k, n], p.c_h2, p.c_ng, p_slack)
                assert c[off[6] + k * N + n] == pytest.approx(
                    comp_res[0], abs=1e-12)
                if p_slack is not None:
                    r = list(slack_ids).index(node.id)
                    assert c[off[7] + r * N + n] == pytest.approx(
                        comp_res[1], abs=1e-12)
                if node.id in wd:
                    w = wd[node.id]
                    want = energy_residual(ge[w, n], eta[k, n], qw[w, n],
                                           p.heat_ratio)
                    assert c[off[8] + w * N + n] == pytest.approx(want, abs=1e-12)

    def test_species_plus_ng_is_total_balance(self):
        inflows = [(2.0, 0.1), (1.5, 0.3)]
        outflows = [(1.2, 0.2)]
        r_h2, r_ng = nodal_balance_residuals(inflows, outflows, 0.7, 0.9,
                                             0.2, 0.12)
        total = 2.0 + 1.5 - 1.2 + 0.7 - 0.9
        assert r_h2 + r_ng == pytest.approx(total)

    def test_momentum_friction_is_odd_in_flux(self):
        args = dict(rho_h2_i=0.3, rho_ng_i=2.0, rho_h2_j=0.25, rho_ng_j=1.9,
                    rho_h2_i_succ=0.3, rho_ng_i_succ=2.0,
                    rho_h2_j_succ=0.25, rho_ng_j_succ=1.9,
                    eta_i=0.1, eta_j=0.1,
                    dt_seconds=3600.0, storage=100.0, area_hat=0.65,
                    resistance=1.5, c_h2=2.0, c_ng=0.7)
        _, _, r_pos = pipe_segment_residuals(f0=1.2, fl=1.2, **args)
        _, _, r_neg = pipe_segment_residuals(f0=-1.2, fl=-1.2, **args)
        dp = 2.0 * (0.25 - 0.3) + 0.7 * (1.9 - 2.0)
        assert r_pos - dp == pytest.approx(-(r_neg - dp))


class TestDerivatives:
    def test_jacobian_and_gradient_match_finite_differences(self, small_problem):
        assert derivative_check(small_problem, n_points=5) <= 1e-6

    def test_hessian_matches_finite_differences(self, small_problem):
        """Besides random columns, check the density columns at both ends of
        one pipe segment at one time step, where friction's curvature in the
        mean density sits."""
        p = small_problem
        idx, N = p.index, p.grid.n_points
        seg = p.segnet.segments[0]
        ends = [idx.base(q) + idx.node_pos[nid] * N + 1
                for q in ("rho_h2", "rho_ng") for nid in (seg.from_node, seg.to_node)]
        check_hessian(p, np.random.default_rng(11), ends)

    def test_eight_node_hessian_matches_finite_differences(self):
        """C2 (J5 to J4) and C3 (J4 to J5) share boost Hessian entries, and
        three pipes' friction blocks meet at J4: check every column of both
        ends and of the three compressors at one time step."""
        scenario = load_scenario(bundled_path("eight-node", "scenario"))
        segnet = segment_pipes(load_network(bundled_path("eight-node", "network")),
                               scenario.dL)
        p = assemble_nlp(segnet, scenario, TimeGrid(scenario.n_steps, scenario.dt))
        idx, N = p.index, p.grid.n_points
        shared = [idx.base(q) + idx.node_pos[nid] * N + 5
                  for q in ("rho_h2", "rho_ng") for nid in ("J4", "J5")]
        shared += [idx.base("alpha") + k * N + 5 for k in range(3)]
        check_hessian(p, np.random.default_rng(12), shared)


def check_hessian(p, rng, extra_cols=()):
    """The Hessian's lower triangle, with its mirror image above the
    diagonal, matches central differences of the Lagrangian gradient in 15
    random columns and ``extra_cols``, to 1e-8 of each column's largest
    entry (or of 1).  Rounding leaves about 1e-9; friction's small
    coefficients on the single pipe keep a 2% error in its density
    curvature near 1e-7."""
    x = random_point(p, seed=7)
    lam = rng.standard_normal(p.n_eq)
    lower = on_pattern(p.hess_pattern, p.lagrangian_hessian(x, lam))
    H = lower + sp.tril(lower, -1).T

    def grad_lag(v):
        return p.gradient(v) + on_pattern(p.jac_const, p.eq_jacobian(v)).T @ lam

    h = 1e-6
    cols = [*rng.choice(p.index.total, size=15, replace=False), *extra_cols]
    for k in cols:
        xp = x.copy()
        xp[k] += h
        xm = x.copy()
        xm[k] -= h
        fd = (grad_lag(xp) - grad_lag(xm)) / (2.0 * h)
        ana = np.asarray(H[:, k].todense()).ravel()
        err = np.abs(fd - ana).max() / max(1.0, np.abs(ana).max())
        assert err <= 1e-8


class TestStructure:
    def test_row_offsets_and_names(self, small_problem):
        p = small_problem
        assert p.row_offset[-1] == p.n_eq
        assert len(p.eq_names()) == p.n_eq
        assert len(p.ineq_names()) == p.n_ineq
        assert len(p.family_names) == len(p.family_sizes) == 9

    def test_pressure_bounds_skip_slack_nodes(self, small_problem):
        p = small_problem
        slack = set(p.slack_pos.tolist())
        assert slack.isdisjoint(set(p.press_pos.tolist()))
        n_non_slack = len(p.segnet.nodes) - len(slack)
        assert p.n_ineq == n_non_slack * p.grid.n_points

    def test_variable_bounds(self, small_problem):
        p = small_problem
        idx = p.index
        assert np.all(p.lb[idx.base("eta"):idx.base("f0")] == 0.0)
        assert np.all(p.ub[idx.base("eta"):idx.base("f0")] == 1.0)
        comp = p.segnet.compressors[0]
        a0 = idx.base("alpha")
        N = p.grid.n_points
        assert np.all(p.lb[a0:a0 + N] == 1.0)
        assert np.all(p.ub[a0:a0 + N] == comp.alpha_max)
        fc0 = idx.base("fc")
        assert p.ub[fc0] == pytest.approx(comp.fc_max / p.flow0)
        # flows are unbounded; the physics decides their sign
        assert np.all(np.isinf(p.lb[idx.base("f0"):idx.base("alpha")]))

    def test_jacobian_pattern_is_fixed(self, small_problem):
        """Every evaluation returns one value per entry of jac_const, whose
        pattern, stacked on the inequality rows, is jacobian_sparsity."""
        p = small_problem
        J1 = p.eq_jacobian(random_point(p, seed=1))
        J2 = p.eq_jacobian(random_point(p, seed=2))
        assert J1.shape == J2.shape == (p.jac_const.nnz,)
        stacked = sp.vstack([on_pattern(p.jac_const, J1),
                             p.ineq_jacobian(random_point(p))]).tocoo()
        rows, cols = p.jacobian_sparsity()
        assert np.array_equal(rows, stacked.row)
        assert np.array_equal(cols, stacked.col)

    def test_hessian_pattern_is_fixed(self, small_problem):
        """Every evaluation returns one value per entry of hess_pattern,
        a canonical pattern of the lower triangle."""
        p = small_problem
        rng = np.random.default_rng(4)
        H1 = p.lagrangian_hessian(random_point(p, seed=1), rng.standard_normal(p.n_eq))
        H2 = p.lagrangian_hessian(random_point(p, seed=2), np.zeros(p.n_eq))
        H = p.hess_pattern
        assert H1.shape == H2.shape == (H.nnz,)
        n = p.index.total
        rows = np.repeat(np.arange(n), np.diff(H.indptr))
        keys = rows * n + H.indices
        # canonical: sorted within each row, no duplicate entries
        assert np.all(np.diff(keys) > 0)
        assert np.all(H.indices <= rows)

    def test_objective_matches_economics(self, small_problem):
        p = small_problem
        x = random_point(p, seed=5)
        econ = p.economics(x)
        want = p.obj_scale * (p.xi * econ["economic_cost_usd"]
                              + (1.0 - p.xi) * econ["compression_cost_usd"])
        assert p.objective(x) == pytest.approx(want, rel=1e-12)

    def test_economics_do_not_depend_on_xi(self):
        """Dollar figures at a fixed point are the same at every weight,
        including the ends of the xi range where one cost is unweighted."""
        econ = []
        for xi in (0.0, 0.5, 1.0):
            scenario = short_scenario(xi=xi)
            p = assemble_nlp(bundled_segnet(scenario), scenario, TimeGrid(1, scenario.dt))
            econ.append(p.economics(random_point(p)))
        assert econ[0]["gas_purchase_usd"] > 0.0 and econ[0]["compression_cost_usd"] > 0.0
        for key in ("gas_purchase_usd", "energy_revenue_usd", "economic_cost_usd",
                    "compression_cost_usd"):
            assert econ[0][key] == econ[1][key] == econ[2][key]

    def test_export_debug(self, small_problem, tmp_path):
        export_nlp(small_problem, tmp_path)
        for name in ("variables.csv", "constraints.csv",
                     "jacobian_sparsity.csv"):
            assert (tmp_path / name).stat().st_size > 0
