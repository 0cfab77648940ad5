"""Discrete nonlinear program for transient network blending optimization.

The continuous problem is transcribed on a cyclic time grid: pipe-segment
dynamics use a forward difference whose wrap-around at the horizon end is
the periodic boundary condition.  All residuals are dimensionless; exact
first and second derivatives are assembled sparsely.

Variable layout is contiguous per quantity (entity-major, time-minor):
nodal partial densities and concentration, segment endpoint flows,
compressor ratio and flow, supply flows, withdrawal flows and energies.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from .network import Node, ParseError, Scenario, SegmentedNetwork
from .physics import nondim_scales, pipe_beta


def compressed_layout(major, minor, n_major, n_minor):
    """Compressed layout (rows major for CSR, columns for CSC) of the
    entries listed at (major, minor): the sorted minor indices and indptr
    of the distinct entries, and the slot of each listed entry."""
    keys, slot = np.unique(np.asarray(major, dtype=np.int64) * n_minor + minor,
                           return_inverse=True)
    return keys % n_minor, np.searchsorted(keys // n_minor, np.arange(n_major + 1)), slot


@dataclass(frozen=True)
class TimeGrid:
    """Cyclic uniform time grid t_n = dt*(n-1), n = 1..N; succ(N) = 1."""

    n_points: int
    dt: float                                # hours

    @property
    def points(self) -> np.ndarray:
        return self.dt * np.arange(self.n_points)

    @property
    def succ(self) -> np.ndarray:
        return (np.arange(self.n_points) + 1) % self.n_points


class VariableIndex:
    """Dense index map over (quantity, entity, time).

    Index of quantity q for entity e at time step t is
    ``base[q] + e * N + t`` so each quantity occupies a contiguous range.
    """

    def __init__(self, segnet: SegmentedNetwork, grid: TimeGrid):
        self.grid = grid
        nodes = segnet.nodes
        self.node_ids = [n.id for n in nodes]
        self.node_pos = {nid: k for k, nid in enumerate(self.node_ids)}
        self.segment_ids = [s.id for s in segnet.segments]
        self.compressor_ids = [c.id for c in segnet.compressors]
        self.supply_ids = segnet.original.supply_ids
        self.withdrawal_ids = segnet.original.withdrawal_ids
        self._entities = {
            "rho_h2": self.node_ids,
            "rho_ng": self.node_ids,
            "eta": self.node_ids,
            "f0": self.segment_ids,
            "fl": self.segment_ids,
            "alpha": self.compressor_ids,
            "fc": self.compressor_ids,
            "qs": self.supply_ids,
            "qw": self.withdrawal_ids,
            "ge": self.withdrawal_ids,
        }
        self._base = {}
        offset = 0
        for q, ids in self._entities.items():
            self._base[q] = offset
            offset += len(ids) * grid.n_points
        self.total = offset

    def base(self, quantity: str) -> int:
        return self._base[quantity]

    def block(self, x: np.ndarray, quantity: str) -> np.ndarray:
        """View of x for one quantity, shaped (n_entities, N)."""
        base = self._base[quantity]
        n_ent = len(self._entities[quantity])
        return x[base:base + n_ent * self.grid.n_points].reshape(n_ent, self.grid.n_points)

    def names(self) -> list[str]:
        return [f"{q}[{eid},{t}]" for q, ids in self._entities.items()
                for eid in ids for t in range(self.grid.n_points)]


def _friction(p, xc, order, lam=None):
    """Friction B phi |phi| / rho_bar on [rho_h2_i, rho_ng_i, rho_h2_j, rho_ng_j,
    f0, fl]: phi = (f0 + fl) / 2A is the mean flux, |phi| = sqrt(phi^2 + eps^2)
    and rho_bar the mean density."""
    two_area = p.seg_two_area
    rho_bar = 0.5 * (xc[:, 0] + xc[:, 1] + xc[:, 2] + xc[:, 3])
    phi = (xc[:, 4] + xc[:, 5]) / two_area
    s_abs = np.sqrt(phi * phi + p.smoothing_eps ** 2)
    B = p.seg_B
    if order == 0:
        return B * phi * s_abs / rho_bar
    h = 1.0 / two_area                  # d(phi) along a flow; d(rho_bar) is 0.5
    if order == 1:
        g_phi = B * (s_abs + phi ** 2 / s_abs) / rho_bar
        g_rho = -B * phi * s_abs / rho_bar ** 2
        return [g_rho * 0.5] * 4 + [g_phi * h] * 2
    gpp = B * (3.0 * phi / s_abs - phi ** 3 / s_abs ** 3) / rho_bar
    gpr = -B * (s_abs + phi ** 2 / s_abs) / rho_bar ** 2
    grr = 2.0 * B * phi * s_abs / rho_bar ** 3
    # the 10 pairs of two densities, 8 of a flow and a density, 3 of two flows
    return ([grr * 0.5 * 0.5 * lam] * 10 + [gpr * (h * 0.5) * lam] * 8
            + [gpp * h * h * lam] * 3)


def _boost(p, xc, order, lam=None):
    """Boost p_j^2 - alpha^2 p_i^2 on [rho_h2_i, rho_ng_i, rho_h2_j, rho_ng_j,
    alpha], with p = c_h2 rho_h2 + c_ng rho_ng at the inlet i and outlet j."""
    cH, cN = p.c_h2, p.c_ng
    cp_i = cH * xc[:, 0] + cN * xc[:, 1]
    cp_j = cH * xc[:, 2] + cN * xc[:, 3]
    alpha = xc[:, 4]
    if order == 0:
        return cp_j ** 2 - alpha ** 2 * cp_i ** 2
    if order == 1:
        d_in = -2.0 * alpha ** 2 * cp_i          # along the inlet pressure
        d_out = 2.0 * cp_j
        return [d_in * cH, d_in * cN, d_out * cH, d_out * cN, -2.0 * alpha * cp_i ** 2]
    out = lam * 2.0                              # at two outlet pressures
    inl = -lam * 2.0 * alpha ** 2                # at two inlet pressures
    r = -lam * 4.0 * alpha * cp_i                # at alpha and an inlet pressure
    return [out * cH * cH, out * cH * cN, out * cN * cN,
            inl * cH * cH, inl * cH * cN, inl * cN * cN,
            r * cH, r * cN, -lam * 2.0 * cp_i ** 2]


# Hessian pairs (a, b) of column positions, in the order the kernels list
# their values: friction's whole lower half, boost's nine nonzero entries
_FRICTION_PAIRS = sorted(((a, b) for a in range(6) for b in range(a + 1)),
                         key=lambda ab: (ab[0] > 3) + (ab[1] > 3))
_BOOST_PAIRS = [(2, 2), (2, 3), (3, 3), (0, 0), (0, 1), (1, 1), (4, 0), (4, 1), (4, 4)]


class NlpProblem:
    """Assembled sparse NLP: bounds, residuals, objective and derivatives.

    Equality families, in row order: segment H2 continuity, segment NG
    continuity, segment momentum, compressor boost, total nodal mass
    balance, species (H2) balance at supply and compressor-outlet nodes,
    nodal concentration definition, slack pressure, withdrawal energy.
    Inequalities: nodal pressure bounds at non-slack nodes.

    Linear and bilinear terms are tabulated once at assembly.  The nonlinear
    families, friction and boost, are the entries of one table, ``kernels``;
    a new family supplies the same four items: its slice of m rows, its
    (m, k) columns, its nonzero Hessian column pairs (a, b) and a function
    fn(problem, x[cols], order, lam) returning the m residual terms (order
    0), the gradient as one array per column (1) or the second derivatives
    as one array per pair, each times its row's multiplier in lam (2; the
    product order sets the last bit).  All derivatives and patterns follow
    from these tables.

    Both sparsity patterns are fixed at assembly, as CSR matrices that
    ``compressed_layout`` lays out: ``jac_const`` (the equality Jacobian,
    holding the linear coefficients ``eq_constraints`` multiplies by x) and
    ``hess_pattern`` (the Lagrangian Hessian's lower triangle).
    ``eq_jacobian`` and ``lagrangian_hessian`` return only the values on
    them, in the order of their ``data``; a solver takes the patterns once.

    Every residual at time index n references only indices n and succ(n);
    evaluation order is fixed so identical inputs give identical outputs.
    """

    def __init__(self, segnet: SegmentedNetwork, scenario: Scenario, grid: TimeGrid,
                 smoothing_eps: float = 1e-8):
        self.segnet = segnet
        self.scenario = scenario
        self.grid = grid
        self.smoothing_eps = smoothing_eps
        self.scales = nondim_scales(scenario.l0, scenario.p0, scenario.M, scenario.gas)
        self.index = VariableIndex(segnet, grid)
        self._build()

    # -- construction -------------------------------------------------------

    def _build(self):
        sc = self.scales
        scn = self.scenario
        gas = scn.gas
        grid = self.grid
        N = grid.n_points
        idx = self.index
        nodes = self.segnet.nodes
        segs = self.segnet.segments
        comps = self.segnet.compressors
        pos = idx.node_pos

        self.c_h2 = gas.a_H2 ** 2 / sc.a0 ** 2
        self.c_ng = gas.a_NG ** 2 / sc.a0 ** 2
        self.heat_ratio = gas.R_H2 / gas.R_NG
        self.flow0 = sc.flow0
        self.energy0 = sc.flow0 * gas.R_NG          # MJ/s per dimensionless unit
        self.dt_seconds = grid.dt * 3600.0

        t = np.arange(N)
        tp = grid.succ

        # supply concentration data eta_s[node, t]
        node_by_id = {n.id: n for n in nodes}
        self.eta_s = np.array([scn.supply_fraction(node_by_id[nid], grid.points)
                               for nid in idx.supply_ids]).reshape(-1, N)
        if np.any((self.eta_s < 0.0) | (self.eta_s > 1.0)):
            raise ParseError("supply concentration profile leaves [0, 1]")
        for nid in scn.profiles:
            if nid not in idx.supply_ids:
                raise ParseError(f"profiles[{nid!r}]: not a supply node")

        # --- bounds --------------------------------------------------------
        # per quantity: lower and upper bound, each a scalar or one value per
        # entity; a fixed withdrawal energy (gE_fixed) has lb == ub
        wds = [node_by_id[nid] for nid in idx.withdrawal_ids]
        ge_fixed = np.array([w.gE_fixed is not None for w in wds], dtype=bool)
        ge_cap = np.array([w.gE_max if w.gE_fixed is None else w.gE_fixed for w in wds],
                          dtype=float) / self.energy0
        n = idx.total
        lb = np.full(n, -np.inf)
        ub = np.full(n, np.inf)
        for q, lo, hi in (
                ("rho_h2", 0.0, np.inf), ("rho_ng", 0.0, np.inf), ("eta", 0.0, 1.0),
                ("alpha", 1.0, [c.alpha_max for c in comps]),
                ("fc", 0.0, np.array([c.fc_max for c in comps], dtype=float) / self.flow0),
                ("qs", 0.0, scn.qs_max / self.flow0), ("qw", 0.0, scn.qw_max / self.flow0),
                ("ge", np.where(ge_fixed, ge_cap, 0.0), ge_cap)):
            idx.block(lb, q)[:] = np.asarray(lo, dtype=float)[..., None]
            idx.block(ub, q)[:] = np.asarray(hi, dtype=float)[..., None]
        if np.any(lb > ub):
            raise ParseError("crossed variable bounds")
        self.lb, self.ub = lb, ub

        # --- entities -------------------------------------------------------
        def at(ids):
            return np.array([pos[i] for i in ids], dtype=int)

        seg_i = at(s.from_node for s in segs)
        seg_j = at(s.to_node for s in segs)
        com_i = at(c.from_node for c in comps)
        com_j = at(c.to_node for c in comps)
        sup_pos = at(idx.supply_ids)
        wd_pos = at(idx.withdrawal_ids)
        # node positions at both ends of every flow (segments, then
        # compressors) and of the supplies and withdrawals
        self.flow_from = np.concatenate([seg_i, com_i])
        self.flow_to = np.concatenate([seg_j, com_j])
        self.supply_pos, self.withdrawal_pos = sup_pos, wd_pos
        E, C = np.arange(len(segs)), np.arange(len(comps))
        S, W = np.arange(len(sup_pos)), np.arange(len(wd_pos))
        all_nodes = np.arange(len(nodes))
        self.seg_storage = np.array(
            [(s.L / sc.l0) * (s.A / sc.A0) / sc.kappa for s in segs])
        # friction coefficient in the stored flow units: M^4 * (1/M^2) lam L/(2D)
        self.seg_resistance = np.array(
            [pipe_beta(s.lam, s.L, s.D, sc.M) * sc.M ** 4 for s in segs])
        self.seg_area = np.array([s.A / sc.A0 for s in segs])
        self.seg_B = np.repeat(self.seg_resistance, N)
        self.seg_two_area = 2.0 * np.repeat(self.seg_area, N)
        # The species (H2) balance is imposed only where it is independent of
        # the total balance: supply nodes and nodes fed by a compressor (whose
        # inlet concentration is the upstream node's, not the local one).
        self.species_nodes = list(dict.fromkeys(sup_pos.tolist() + com_j.tolist()))
        species_row = np.full(len(nodes), -1)
        species_row[self.species_nodes] = np.arange(len(self.species_nodes))
        self.slack_pos = at(i for i in self.segnet.original.slack_ids if i in pos)
        self.press_pos = np.setdiff1d(all_nodes, self.slack_pos)

        # --- equality rows --------------------------------------------------
        # each row family, in row order, with the ids of its entities
        node_ids = idx.node_ids
        self.family_ids = {
            "continuity_h2": idx.segment_ids, "continuity_ng": idx.segment_ids,
            "momentum": idx.segment_ids, "compressor_boost": idx.compressor_ids,
            "mass_balance": node_ids,
            "species_balance": [node_ids[k] for k in self.species_nodes],
            "concentration": node_ids,
            "slack_pressure": [node_ids[k] for k in self.slack_pos],
            "energy": idx.withdrawal_ids,
        }
        self.family_names = list(self.family_ids)
        self.family_sizes = [len(ids) * N for ids in self.family_ids.values()]
        self.row_offset = np.concatenate([[0], np.cumsum(self.family_sizes)])
        self.n_eq = int(self.row_offset[-1])
        first_row = dict(zip(self.family_names, self.row_offset))

        def rows(family, ents):
            """Row indices of a family's entities x time steps (entity-major)."""
            return first_row[family] + (ents[:, None] * N + t).ravel()

        def col(quantity, ents, times=t):
            """Variable indices of entities x time steps (entity-major)."""
            return (idx.base(quantity) + ents[:, None] * N + times).ravel()

        # Every residual term outside the kernel table is linear,
        # coef * x[p], or bilinear, coef * x[p] * x[q]; each is listed once.
        terms = {1: [], 2: []}

        def term(r, coef, *cols):
            terms[len(cols)].append(
                (r, *cols, np.broadcast_to(np.asarray(coef, dtype=float), r.shape)))

        # continuity: storage rate S/(2 dt) * (rho_i+ + rho_j+ - rho_i - rho_j)
        # plus the species flux eta_j*fl - eta_i*f0 (NG: (1-eta) for eta)
        rate = np.repeat(self.seg_storage, N) / (2.0 * self.dt_seconds)
        for family, rho, sign in (("continuity_h2", "rho_h2", 1.0),
                                  ("continuity_ng", "rho_ng", -1.0)):
            r = rows(family, E)
            for node_k, times, s in ((seg_i, tp, 1.0), (seg_j, tp, 1.0),
                                     (seg_i, t, -1.0), (seg_j, t, -1.0)):
                term(r, s * rate, col(rho, node_k, times))
            term(r, sign, col("eta", seg_j), col("fl", E))
            term(r, -sign, col("eta", seg_i), col("f0", E))
        r = rows("continuity_ng", E)
        term(r, 1.0, col("fl", E))
        term(r, -1.0, col("f0", E))
        # momentum: pressure difference p_j - p_i (friction is added on evaluation)
        r = rows("momentum", E)
        for rho, coef in (("rho_h2", self.c_h2), ("rho_ng", self.c_ng)):
            term(r, coef, col(rho, seg_j))
            term(r, -coef, col(rho, seg_i))
        # total mass balance: inflows minus outflows
        for node_k, flow, ents, sign in ((seg_j, "fl", E, 1.0), (seg_i, "f0", E, -1.0),
                                         (com_j, "fc", C, 1.0), (com_i, "fc", C, -1.0),
                                         (sup_pos, "qs", S, 1.0), (wd_pos, "qw", W, -1.0)):
            term(rows("mass_balance", node_k), sign, col(flow, ents))
        # species balance: eta * flow per incident flow; a compressor outlet
        # carries its inlet node's concentration; supplies bring eta_s * qs
        for node_k, eta_k, flow, ents, sign in (
                (seg_j, seg_j, "fl", E, 1.0), (seg_i, seg_i, "f0", E, -1.0),
                (com_j, com_i, "fc", C, 1.0), (com_i, com_i, "fc", C, -1.0),
                (wd_pos, wd_pos, "qw", W, -1.0)):
            keep = species_row[node_k] >= 0
            term(rows("species_balance", species_row[node_k[keep]]), sign,
                 col("eta", eta_k[keep]), col(flow, ents[keep]))
        term(rows("species_balance", species_row[sup_pos]), self.eta_s.ravel(),
             col("qs", S))
        # concentration definition: eta * (rho_h2 + rho_ng) - rho_h2
        r = rows("concentration", all_nodes)
        term(r, 1.0, col("eta", all_nodes), col("rho_h2", all_nodes))
        term(r, 1.0, col("eta", all_nodes), col("rho_ng", all_nodes))
        term(r, -1.0, col("rho_h2", all_nodes))
        # slack pressure: c_h2 rho_h2 + c_ng rho_ng = p_slack (the right-hand side)
        r = rows("slack_pressure", np.arange(len(self.slack_pos)))
        term(r, self.c_h2, col("rho_h2", self.slack_pos))
        term(r, self.c_ng, col("rho_ng", self.slack_pos))
        self.K_p = np.repeat(np.array(
            [node_by_id[nid].p_slack / sc.p0 for nid in self.segnet.original.slack_ids]), N)
        self.rhs = np.zeros(self.n_eq)
        self.rhs[r] = self.K_p
        # withdrawal energy: g_E - q_w - (r - 1) * eta * q_w
        r = rows("energy", W)
        term(r, 1.0, col("ge", W))
        term(r, -1.0, col("qw", W))
        term(r, -(self.heat_ratio - 1.0), col("eta", wd_pos), col("qw", W))

        lin_r, lin_c, lin_v = (np.concatenate(a) for a in zip(*terms[1]))
        self.bil_r, self.bil_p, self.bil_q, self.bil_v = (
            np.concatenate(a) for a in zip(*terms[2]))

        # nonlinear rows: the kernel table
        def kernel(family, cols, pairs, fn):
            cols = np.stack(cols, axis=1)
            repeats = np.flatnonzero((np.diff(np.sort(cols, axis=1)) == 0).any(axis=1))
            if len(repeats):
                eid = self.family_ids[family][repeats[0] // N]
                raise ParseError(f"{family}: {eid!r} starts and ends at the same node")
            first = first_row[family]
            return slice(first, first + len(cols)), cols, np.array(pairs), fn

        def ends(i, j):
            return [col("rho_h2", i), col("rho_ng", i), col("rho_h2", j), col("rho_ng", j)]

        self.C_alpha = col("alpha", C)
        self.C_fc = col("fc", C)
        self.kernels = (
            kernel("momentum", ends(seg_i, seg_j) + [col("f0", E), col("fl", E)],
                   _FRICTION_PAIRS, _friction),
            kernel("compressor_boost", ends(com_i, com_j) + [self.C_alpha],
                   _BOOST_PAIRS, _boost))

        # Fixed Jacobian pattern.  jac_const holds the linear coefficients on
        # it; jac_slot maps each variable entry, in the order eq_jacobian
        # lists their values, to its place in the pattern.
        jac_r = np.concatenate([lin_r, self.bil_r, self.bil_r] + [
            np.tile(np.arange(self.n_eq)[rows], cols.shape[1])
            for rows, cols, _, _ in self.kernels])
        jac_c = np.concatenate([lin_c, self.bil_p, self.bil_q]
                               + [cols.T.ravel() for _, cols, _, _ in self.kernels])
        indices, indptr, slot = compressed_layout(jac_r, jac_c, self.n_eq, n)
        self.jac_slot = slot[len(lin_r):]
        self.jac_const = sp.csr_matrix(
            (np.bincount(slot[:len(lin_r)], weights=lin_v, minlength=len(indices)),
             indices, indptr), shape=(self.n_eq, n))

        # Fixed Hessian pattern, the lower triangle.  hess_slot maps each
        # second-derivative entry, in the order lagrangian_hessian lists them
        # (bilinear terms, each kernel's pairs, objective), into hess_pattern.
        hess_i, hess_j = (np.concatenate(
            [bil] + [cols[:, pairs[:, s]].T.ravel() for _, cols, pairs, _ in self.kernels]
            + obj)
            for s, bil, obj in ((0, self.bil_p, [self.C_fc, self.C_alpha]),
                                (1, self.bil_q, [self.C_alpha, self.C_alpha])))
        indices, indptr, self.hess_slot = compressed_layout(
            np.maximum(hess_i, hess_j), np.minimum(hess_i, hess_j), n, n)
        self.hess_pattern = sp.csr_matrix((np.zeros(len(indices)), indices, indptr),
                                          shape=(n, n))

        # --- pressure bounds (inequalities) ---------------------------------
        r = np.arange(len(self.press_pos) * N)
        self.P = sp.csr_matrix(
            (np.repeat([self.c_h2, self.c_ng], len(r)),
             (np.tile(r, 2), np.concatenate([col("rho_h2", self.press_pos),
                                             col("rho_ng", self.press_pos)]))),
            shape=(len(r), n))
        self.n_ineq = len(r)
        self.ineq_lb = np.repeat(np.array([nodes[k].p_min / sc.p0 for k in self.press_pos]), N)
        self.ineq_ub = np.repeat(np.array([nodes[k].p_max / sc.p0 for k in self.press_pos]), N)

        # --- objective -------------------------------------------------------
        xi = scn.xi
        dt_h = grid.dt
        K_work = scn.compressor_work_constant()
        price = self.eta_s * scn.c_H2 + (1.0 - self.eta_s) * scn.c_NG
        qs_coef = xi * 3600.0 * dt_h * self.flow0 * price
        ge_coef = -xi * 3600.0 * dt_h * scn.C_E * self.energy0
        wc_coef = (1.0 - xi) * scn.zeta * dt_h * K_work * self.flow0 / 1000.0
        raw = max(abs(ge_coef), qs_coef.max(initial=0.0), wc_coef, 1e-30)
        self.obj_scale = 1.0 / raw
        self.obj_qs_cols = col("qs", S)
        self.obj_qs_coef = qs_coef.ravel() * self.obj_scale
        self.obj_ge_coef = ge_coef * self.obj_scale
        self.obj_ge = slice(idx.base("ge"), idx.base("ge") + len(W) * N)
        # the gradient of the linear terms
        self.obj_grad_lin = np.zeros(n)
        self.obj_grad_lin[self.obj_qs_cols] += self.obj_qs_coef
        self.obj_grad_lin[self.obj_ge] += self.obj_ge_coef
        self.obj_wc = wc_coef * self.obj_scale
        # dollar coefficients without the xi weights, for reporting
        self.econ_qs_coef = (3600.0 * dt_h * self.flow0 * price).ravel()
        self.econ_ge_coef = -3600.0 * dt_h * scn.C_E * self.energy0
        self.econ_wc = scn.zeta * dt_h * K_work * self.flow0 / 1000.0
        self.xi = xi

    # -- evaluation ---------------------------------------------------------

    def eq_constraints(self, x: np.ndarray) -> np.ndarray:
        out = self.jac_const @ x - self.rhs + np.bincount(
            self.bil_r, weights=self.bil_v * x[self.bil_p] * x[self.bil_q],
            minlength=self.n_eq)
        for rows, cols, _, fn in self.kernels:
            out[rows] += fn(self, x[cols], 0)
        return out

    def ineq_constraints(self, x: np.ndarray) -> np.ndarray:
        return self.P @ x

    def eq_jacobian(self, x: np.ndarray) -> np.ndarray:
        """Values on the pattern of ``jac_const``: the linear coefficients
        plus, per bilinear term, coef * x[q] in column p and coef * x[p] in
        column q, plus each kernel's gradient."""
        vals = np.concatenate(
            [self.bil_v * x[self.bil_q], self.bil_v * x[self.bil_p]]
            + [v for _, cols, _, fn in self.kernels for v in fn(self, x[cols], 1)])
        J = self.jac_const
        return J.data + np.bincount(self.jac_slot, weights=vals, minlength=J.nnz)

    def ineq_jacobian(self, x: np.ndarray) -> sp.csr_matrix:
        return self.P.copy()

    def jacobian_sparsity(self):
        """Row/col pattern of the stacked (equality; inequality) Jacobian."""
        pattern = sp.vstack([self.jac_const, self.P]).tocoo()
        return pattern.row, pattern.col

    # -- objective ----------------------------------------------------------

    def objective(self, x: np.ndarray) -> float:
        val = float(np.dot(self.obj_qs_coef, x[self.obj_qs_cols]))
        val += self.obj_ge_coef * float(x[self.obj_ge].sum())
        val += self.obj_wc * float(np.dot(x[self.C_fc], np.sqrt(x[self.C_alpha]) - 1.0))
        return val

    def gradient(self, x: np.ndarray) -> np.ndarray:
        g = self.obj_grad_lin.copy()
        sq = np.sqrt(x[self.C_alpha])
        g[self.C_fc] += self.obj_wc * (sq - 1.0)
        g[self.C_alpha] += self.obj_wc * x[self.C_fc] / (2.0 * sq)
        return g

    def economics(self, x: np.ndarray) -> dict:
        """Objective breakdown in dollars over the horizon."""
        purchase = float(np.dot(self.econ_qs_coef, x[self.obj_qs_cols]))
        revenue = -float(self.econ_ge_coef * self.index.block(x, "ge").sum())
        compression = float(self.econ_wc * np.dot(x[self.C_fc],
                                                  np.sqrt(x[self.C_alpha]) - 1.0))
        return {
            "gas_purchase_usd": purchase,
            "energy_revenue_usd": revenue,
            "economic_cost_usd": purchase - revenue,
            "compression_cost_usd": compression,
            "objective": self.objective(x),
        }

    # -- Hessian of the Lagrangian -----------------------------------------

    def lagrangian_hessian(self, x, lam_eq) -> np.ndarray:
        """Values of the symmetric Hessian H_f + sum lam_i * H_ci of the
        equality rows on the pattern of ``hess_pattern``, its lower triangle.

        Inequality rows are linear, so their multipliers never contribute.
        Each entry sums its second derivatives in the order of ``hess_slot``.
        """
        alpha = x[self.C_alpha]
        sq = np.sqrt(alpha)
        vals = np.concatenate(
            [lam_eq[self.bil_r] * self.bil_v]                 # bilinear terms at (p, q)
            + [v for rows, cols, _, fn in self.kernels
               for v in fn(self, x[cols], 2, lam_eq[rows])]
            # objective curvature (fc, alpha), (alpha, alpha)
            + [self.obj_wc / (2.0 * sq), -self.obj_wc * x[self.C_fc] / (4.0 * alpha * sq)])
        return np.bincount(self.hess_slot, weights=vals, minlength=self.hess_pattern.nnz)

    # -- bookkeeping --------------------------------------------------------

    def eq_names(self) -> list[str]:
        N = self.grid.n_points
        return [f"{fam}[{eid},{t}]" for fam, ids in self.family_ids.items()
                for eid in ids for t in range(N)]

    def ineq_names(self) -> list[str]:
        N = self.grid.n_points
        return [f"pressure[{self.index.node_ids[k]},{t}]"
                for k in self.press_pos for t in range(N)]


def assemble_nlp(segnet: SegmentedNetwork, scenario: Scenario, grid: TimeGrid,
                 smoothing_eps: float = 1e-8) -> NlpProblem:
    """Build the complete sparse NLP for a segmented network and scenario."""
    return NlpProblem(segnet, scenario, grid, smoothing_eps=smoothing_eps)
