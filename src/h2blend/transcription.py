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

import csv
from dataclasses import dataclass
from pathlib import Path

import numpy as np
import scipy.sparse as sp

from .network import Node, Scenario, SegmentedNetwork
from .physics import nondim_scales, pipe_beta


class ConfigurationError(ValueError):
    """Invalid time grid or discretization configuration."""


class AssemblyError(ValueError):
    """The problem data are inconsistent (for example crossed bounds)."""


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


def build_time_grid(T_f: float, dt: float) -> TimeGrid:
    if dt <= 0.0 or T_f <= 0.0:
        raise ConfigurationError(f"need positive horizon and step, got {T_f}, {dt}")
    ratio = T_f / dt
    if abs(ratio - round(ratio)) > 1e-9:
        raise ConfigurationError(f"dt={dt} h does not divide the horizon {T_f} h")
    return TimeGrid(n_points=round(ratio), dt=dt)


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
        out = []
        for q, ids in self._entities.items():
            for eid in ids:
                for t in range(self.grid.n_points):
                    out.append(f"{q}[{eid},{t}]")
        return out


def _cols(index: VariableIndex, quantity: str, ents: np.ndarray, times: np.ndarray) -> np.ndarray:
    """Flattened variable indices for entity array x time array (ent-major)."""
    N = index.grid.n_points
    return (index.base(quantity) + ents[:, None] * N + times[None, :]).ravel()


class NlpProblem:
    """Assembled sparse NLP: bounds, residuals, objective and derivatives.

    Equality families, in row order: segment H2 continuity, segment NG
    continuity, segment momentum, compressor boost, total nodal mass
    balance, species (H2) balance at supply and compressor-outlet nodes,
    nodal concentration definition, slack pressure, withdrawal energy.
    Inequalities: nodal pressure bounds at non-slack nodes.

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
        self.eta_s = np.vstack([
            scn.supply_fraction(node_by_id[nid], grid.points)
            for nid in idx.supply_ids
        ]) if idx.supply_ids else np.zeros((0, N))
        if self.eta_s.size and (self.eta_s.min() < 0.0 or self.eta_s.max() > 1.0):
            raise AssemblyError("supply concentration profile leaves [0, 1]")

        # --- bounds --------------------------------------------------------
        n = idx.total
        lb = np.full(n, -np.inf)
        ub = np.full(n, np.inf)

        def setb(quantity, ent, lo, hi):
            base = idx.base(quantity)
            rng = slice(base + ent * N, base + (ent + 1) * N)
            lb[rng] = lo
            ub[rng] = hi

        for k, _ in enumerate(nodes):
            setb("rho_h2", k, 0.0, np.inf)
            setb("rho_ng", k, 0.0, np.inf)
            setb("eta", k, 0.0, 1.0)
        for k, c in enumerate(comps):
            setb("alpha", k, 1.0, c.alpha_max)
            setb("fc", k, 0.0, c.fc_max / self.flow0)
        for k, _ in enumerate(idx.supply_ids):
            setb("qs", k, 0.0, scn.qs_max / self.flow0)
        for k, nid in enumerate(idx.withdrawal_ids):
            node = node_by_id[nid]
            setb("qw", k, 0.0, scn.qw_max / self.flow0)
            if node.gE_fixed is not None:
                v = node.gE_fixed / self.energy0
                setb("ge", k, v, v)
            else:
                setb("ge", k, 0.0, node.gE_max / self.energy0)
        if np.any(lb > ub):
            raise AssemblyError("crossed variable bounds")
        self.lb, self.ub = lb, ub

        # --- segment data ---------------------------------------------------
        nseg = len(segs)
        seg_i = np.array([pos[s.from_node] for s in segs], dtype=int)
        seg_j = np.array([pos[s.to_node] for s in segs], dtype=int)
        self.seg_i, self.seg_j = seg_i, seg_j
        self.seg_storage = np.array(
            [(s.L / sc.l0) * (s.A / sc.A0) / sc.kappa for s in segs])
        # momentum coefficient in the stored flow units: M^4 * (1/M^2) lam L/(2D)
        self.seg_resistance = np.array(
            [pipe_beta(s.lam, s.L, s.D, sc.M) * sc.M ** 4 for s in segs])
        self.seg_area = np.array([s.A / sc.A0 for s in segs])

        ents_seg = np.arange(nseg)
        self.F1_rh_i = _cols(idx, "rho_h2", seg_i, t)
        self.F1_rh_j = _cols(idx, "rho_h2", seg_j, t)
        self.F1_rh_i_p = _cols(idx, "rho_h2", seg_i, tp)
        self.F1_rh_j_p = _cols(idx, "rho_h2", seg_j, tp)
        self.F2_rn_i = _cols(idx, "rho_ng", seg_i, t)
        self.F2_rn_j = _cols(idx, "rho_ng", seg_j, t)
        self.F2_rn_i_p = _cols(idx, "rho_ng", seg_i, tp)
        self.F2_rn_j_p = _cols(idx, "rho_ng", seg_j, tp)
        self.F_eta_i = _cols(idx, "eta", seg_i, t)
        self.F_eta_j = _cols(idx, "eta", seg_j, t)
        self.F_f0 = _cols(idx, "f0", ents_seg, t)
        self.F_fl = _cols(idx, "fl", ents_seg, t)
        self.seg_S = np.repeat(self.seg_storage, N)
        self.seg_B = np.repeat(self.seg_resistance, N)
        self.seg_Ah = np.repeat(self.seg_area, N)

        # --- compressor data -----------------------------------------------
        ncomp = len(comps)
        com_i = np.array([pos[c.from_node] for c in comps], dtype=int)
        com_j = np.array([pos[c.to_node] for c in comps], dtype=int)
        ents_com = np.arange(ncomp)
        self.C_rh_i = _cols(idx, "rho_h2", com_i, t)
        self.C_rn_i = _cols(idx, "rho_ng", com_i, t)
        self.C_rh_j = _cols(idx, "rho_h2", com_j, t)
        self.C_rn_j = _cols(idx, "rho_ng", com_j, t)
        self.C_alpha = _cols(idx, "alpha", ents_com, t)
        self.C_fc = _cols(idx, "fc", ents_com, t)

        # --- total mass balance (linear) -----------------------------------
        n_nodes = len(nodes)
        bal_rows = []
        bal_cols = []
        bal_vals = []

        def add_lin(node_k, quantity, ent, sign):
            bal_rows.append((node_k * N + t))
            bal_cols.append(idx.base(quantity) + ent * N + t)
            bal_vals.append(np.full(N, float(sign)))

        for e, s in enumerate(segs):
            add_lin(pos[s.to_node], "fl", e, +1.0)
            add_lin(pos[s.from_node], "f0", e, -1.0)
        for e, c in enumerate(comps):
            add_lin(pos[c.to_node], "fc", e, +1.0)
            add_lin(pos[c.from_node], "fc", e, -1.0)
        for e, nid in enumerate(idx.supply_ids):
            add_lin(pos[nid], "qs", e, +1.0)
        for e, nid in enumerate(idx.withdrawal_ids):
            add_lin(pos[nid], "qw", e, -1.0)
        self.B_rows = np.concatenate(bal_rows) if bal_rows else np.zeros(0, dtype=int)
        self.B_cols = np.concatenate(bal_cols) if bal_cols else np.zeros(0, dtype=int)
        self.B_vals = np.concatenate(bal_vals) if bal_vals else np.zeros(0)
        self.n_balance_rows = n_nodes * N

        # --- species (H2) balance rows -------------------------------------
        # Imposed only where independent of the total balance: supply nodes
        # and nodes fed by a compressor (whose inlet concentration is the
        # upstream node's, not the local one).
        species_set = list(dict.fromkeys(
            [pos[nid] for nid in idx.supply_ids]
            + [pos[c.to_node] for c in comps]))
        self.species_nodes = species_set
        srow_of = {k: r for r, k in enumerate(species_set)}
        sp_rows, sp_eta, sp_f, sp_sign = [], [], [], []

        def add_bil(node_k, eta_node_k, quantity, ent, sign):
            sp_rows.append(srow_of[node_k] * N + t)
            sp_eta.append(idx.base("eta") + eta_node_k * N + t)
            sp_f.append(idx.base(quantity) + ent * N + t)
            sp_sign.append(np.full(N, float(sign)))

        for e, s in enumerate(segs):
            if pos[s.to_node] in srow_of:
                add_bil(pos[s.to_node], pos[s.to_node], "fl", e, +1.0)
            if pos[s.from_node] in srow_of:
                add_bil(pos[s.from_node], pos[s.from_node], "f0", e, -1.0)
        for e, c in enumerate(comps):
            if pos[c.to_node] in srow_of:
                # compressor outlet concentration equals the inlet node's
                add_bil(pos[c.to_node], pos[c.from_node], "fc", e, +1.0)
            if pos[c.from_node] in srow_of:
                add_bil(pos[c.from_node], pos[c.from_node], "fc", e, -1.0)
        for e, nid in enumerate(idx.withdrawal_ids):
            if pos[nid] in srow_of:
                add_bil(pos[nid], pos[nid], "qw", e, -1.0)
        self.S_rows = np.concatenate(sp_rows) if sp_rows else np.zeros(0, dtype=int)
        self.S_eta = np.concatenate(sp_eta) if sp_eta else np.zeros(0, dtype=int)
        self.S_f = np.concatenate(sp_f) if sp_f else np.zeros(0, dtype=int)
        self.S_sign = np.concatenate(sp_sign) if sp_sign else np.zeros(0)
        # linear supply terms eta_s(t) * qs
        sq_rows, sq_cols, sq_vals = [], [], []
        for e, nid in enumerate(idx.supply_ids):
            sq_rows.append(srow_of[pos[nid]] * N + t)
            sq_cols.append(idx.base("qs") + e * N + t)
            sq_vals.append(self.eta_s[e])
        self.SQ_rows = np.concatenate(sq_rows) if sq_rows else np.zeros(0, dtype=int)
        self.SQ_cols = np.concatenate(sq_cols) if sq_cols else np.zeros(0, dtype=int)
        self.SQ_vals = np.concatenate(sq_vals) if sq_vals else np.zeros(0)
        self.n_species_rows = len(species_set) * N

        # --- concentration definition --------------------------------------
        ents_node = np.arange(n_nodes)
        self.G_eta = _cols(idx, "eta", ents_node, t)
        self.G_rh = _cols(idx, "rho_h2", ents_node, t)
        self.G_rn = _cols(idx, "rho_ng", ents_node, t)

        # --- slack pressure -------------------------------------------------
        slack_pos = np.array([pos[nid] for nid in self.segnet.original.slack_ids
                              if nid in pos], dtype=int)
        self.slack_pos = slack_pos
        self.K_rh = _cols(idx, "rho_h2", slack_pos, t)
        self.K_rn = _cols(idx, "rho_ng", slack_pos, t)
        self.K_p = np.repeat(np.array(
            [node_by_id[nid].p_slack / sc.p0 for nid in self.segnet.original.slack_ids]), N)

        # --- energy ----------------------------------------------------------
        wd_pos = np.array([pos[nid] for nid in idx.withdrawal_ids], dtype=int)
        ents_wd = np.arange(len(idx.withdrawal_ids))
        self.E_ge = _cols(idx, "ge", ents_wd, t) if len(ents_wd) else np.zeros(0, dtype=int)
        self.E_eta = _cols(idx, "eta", wd_pos, t) if len(ents_wd) else np.zeros(0, dtype=int)
        self.E_qw = _cols(idx, "qw", ents_wd, t) if len(ents_wd) else np.zeros(0, dtype=int)

        # --- pressure bounds (inequalities) ---------------------------------
        slack_set = set(slack_pos.tolist())
        nons = np.array([k for k in range(n_nodes) if k not in slack_set], dtype=int)
        self.press_pos = nons
        self.P_rh = _cols(idx, "rho_h2", nons, t)
        self.P_rn = _cols(idx, "rho_ng", nons, t)
        self.ineq_lb = np.repeat(np.array([nodes[k].p_min / sc.p0 for k in nons]), N)
        self.ineq_ub = np.repeat(np.array([nodes[k].p_max / sc.p0 for k in nons]), N)

        # row offsets
        sizes = [nseg * N, nseg * N, nseg * N, ncomp * N, self.n_balance_rows,
                 self.n_species_rows, n_nodes * N, len(slack_pos) * N,
                 len(ents_wd) * N]
        self.family_sizes = sizes
        self.family_names = ["continuity_h2", "continuity_ng", "momentum",
                             "compressor_boost", "mass_balance", "species_balance",
                             "concentration", "slack_pressure", "energy"]
        self.row_offset = np.concatenate([[0], np.cumsum(sizes)])
        self.n_eq = int(self.row_offset[-1])
        self.n_ineq = len(self.P_rh)

        # --- objective -------------------------------------------------------
        xi = scn.xi
        dt_h = grid.dt
        K_work = scn.compressor_work_constant()
        qs_coef = (xi * 3600.0 * dt_h * self.flow0
                   * (self.eta_s * scn.c_H2 + (1.0 - self.eta_s) * scn.c_NG))
        ge_coef = -xi * 3600.0 * dt_h * scn.C_E * self.energy0
        wc_coef = (1.0 - xi) * scn.zeta * dt_h * K_work * self.flow0 / 1000.0
        raw = max(abs(ge_coef), qs_coef.max(initial=0.0), wc_coef, 1e-30)
        self.obj_scale = 1.0 / raw
        self.obj_qs_cols = _cols(idx, "qs", np.arange(len(idx.supply_ids)), t) \
            if idx.supply_ids else np.zeros(0, dtype=int)
        self.obj_qs_coef = qs_coef.ravel() * self.obj_scale
        self.obj_ge_coef = ge_coef * self.obj_scale
        self.obj_wc = wc_coef * self.obj_scale
        # unscaled coefficients for reporting in dollars
        self.econ_qs_coef = qs_coef.ravel()
        self.econ_ge_coef = ge_coef
        self.econ_wc = wc_coef
        self.xi = xi

    # -- evaluation ---------------------------------------------------------

    def _smooth_abs(self, phi):
        return np.sqrt(phi * phi + self.smoothing_eps ** 2)

    def eq_constraints(self, x: np.ndarray) -> np.ndarray:
        out = np.zeros(self.n_eq)
        off = self.row_offset
        dt2 = 2.0 * self.dt_seconds
        # continuity
        rate_h2 = (x[self.F1_rh_i_p] + x[self.F1_rh_j_p]
                   - x[self.F1_rh_i] - x[self.F1_rh_j]) / dt2
        rate_ng = (x[self.F2_rn_i_p] + x[self.F2_rn_j_p]
                   - x[self.F2_rn_i] - x[self.F2_rn_j]) / dt2
        eta_i, eta_j = x[self.F_eta_i], x[self.F_eta_j]
        f0, fl = x[self.F_f0], x[self.F_fl]
        out[off[0]:off[1]] = self.seg_S * rate_h2 + (eta_j * fl - eta_i * f0)
        out[off[1]:off[2]] = self.seg_S * rate_ng + ((1.0 - eta_j) * fl
                                                     - (1.0 - eta_i) * f0)
        # momentum
        p_i = self.c_h2 * x[self.F1_rh_i] + self.c_ng * x[self.F2_rn_i]
        p_j = self.c_h2 * x[self.F1_rh_j] + self.c_ng * x[self.F2_rn_j]
        rho_bar = 0.5 * (x[self.F1_rh_i] + x[self.F2_rn_i]
                         + x[self.F1_rh_j] + x[self.F2_rn_j])
        phi_bar = (f0 + fl) / (2.0 * self.seg_Ah)
        out[off[2]:off[3]] = p_j - p_i + self.seg_B * phi_bar * self._smooth_abs(phi_bar) / rho_bar
        # compressor boost
        cp_i = self.c_h2 * x[self.C_rh_i] + self.c_ng * x[self.C_rn_i]
        cp_j = self.c_h2 * x[self.C_rh_j] + self.c_ng * x[self.C_rn_j]
        out[off[3]:off[4]] = cp_j ** 2 - x[self.C_alpha] ** 2 * cp_i ** 2
        # total balance
        bal = np.zeros(self.n_balance_rows)
        np.add.at(bal, self.B_rows, self.B_vals * x[self.B_cols])
        out[off[4]:off[5]] = bal
        # species balance
        spc = np.zeros(self.n_species_rows)
        np.add.at(spc, self.S_rows, self.S_sign * x[self.S_eta] * x[self.S_f])
        np.add.at(spc, self.SQ_rows, self.SQ_vals * x[self.SQ_cols])
        out[off[5]:off[6]] = spc
        # concentration definition
        out[off[6]:off[7]] = x[self.G_eta] * (x[self.G_rh] + x[self.G_rn]) - x[self.G_rh]
        # slack pressure
        out[off[7]:off[8]] = (self.c_h2 * x[self.K_rh] + self.c_ng * x[self.K_rn]
                              - self.K_p)
        # energy
        out[off[8]:off[9]] = x[self.E_ge] - ((self.heat_ratio - 1.0) * x[self.E_eta]
                                             + 1.0) * x[self.E_qw]
        return out

    def ineq_constraints(self, x: np.ndarray) -> np.ndarray:
        return self.c_h2 * x[self.P_rh] + self.c_ng * x[self.P_rn]

    def eq_jacobian(self, x: np.ndarray) -> sp.csr_matrix:
        rows, cols, vals = self._eq_jacobian_triplets(x)
        return sp.csr_matrix((vals, (rows, cols)), shape=(self.n_eq, self.index.total))

    def _eq_jacobian_triplets(self, x):
        off = self.row_offset
        dt2 = 2.0 * self.dt_seconds
        nsegN = len(self.F_f0)
        r1 = np.arange(off[0], off[1])
        r2 = np.arange(off[1], off[2])
        r3 = np.arange(off[2], off[3])
        rows, cols, vals = [], [], []

        def add(r, c, v):
            rows.append(r)
            cols.append(c)
            vals.append(np.broadcast_to(v, r.shape).astype(float, copy=False))

        Sdt = self.seg_S / dt2
        eta_i, eta_j = x[self.F_eta_i], x[self.F_eta_j]
        f0, fl = x[self.F_f0], x[self.F_fl]
        # H2 continuity
        add(r1, self.F1_rh_i_p, Sdt)
        add(r1, self.F1_rh_j_p, Sdt)
        add(r1, self.F1_rh_i, -Sdt)
        add(r1, self.F1_rh_j, -Sdt)
        add(r1, self.F_eta_j, fl)
        add(r1, self.F_fl, eta_j)
        add(r1, self.F_eta_i, -f0)
        add(r1, self.F_f0, -eta_i)
        # NG continuity
        add(r2, self.F2_rn_i_p, Sdt)
        add(r2, self.F2_rn_j_p, Sdt)
        add(r2, self.F2_rn_i, -Sdt)
        add(r2, self.F2_rn_j, -Sdt)
        add(r2, self.F_eta_j, -fl)
        add(r2, self.F_fl, 1.0 - eta_j)
        add(r2, self.F_eta_i, f0)
        add(r2, self.F_f0, -(1.0 - eta_i))
        # momentum
        rho_bar = 0.5 * (x[self.F1_rh_i] + x[self.F2_rn_i]
                         + x[self.F1_rh_j] + x[self.F2_rn_j])
        phi_bar = (f0 + fl) / (2.0 * self.seg_Ah)
        s_abs = self._smooth_abs(phi_bar)
        g_phi = self.seg_B * (s_abs + phi_bar ** 2 / s_abs) / rho_bar
        g_rho = -self.seg_B * phi_bar * s_abs / rho_bar ** 2
        add(r3, self.F_f0, g_phi / (2.0 * self.seg_Ah))
        add(r3, self.F_fl, g_phi / (2.0 * self.seg_Ah))
        add(r3, self.F1_rh_i, -self.c_h2 + 0.5 * g_rho)
        add(r3, self.F2_rn_i, -self.c_ng + 0.5 * g_rho)
        add(r3, self.F1_rh_j, self.c_h2 + 0.5 * g_rho)
        add(r3, self.F2_rn_j, self.c_ng + 0.5 * g_rho)
        # compressor boost
        r4 = np.arange(off[3], off[4])
        cp_i = self.c_h2 * x[self.C_rh_i] + self.c_ng * x[self.C_rn_i]
        cp_j = self.c_h2 * x[self.C_rh_j] + self.c_ng * x[self.C_rn_j]
        alpha = x[self.C_alpha]
        add(r4, self.C_rh_j, 2.0 * cp_j * self.c_h2)
        add(r4, self.C_rn_j, 2.0 * cp_j * self.c_ng)
        add(r4, self.C_rh_i, -2.0 * alpha ** 2 * cp_i * self.c_h2)
        add(r4, self.C_rn_i, -2.0 * alpha ** 2 * cp_i * self.c_ng)
        add(r4, self.C_alpha, -2.0 * alpha * cp_i ** 2)
        # total balance (constant)
        add(off[4] + self.B_rows, self.B_cols, self.B_vals)
        # species balance
        add(off[5] + self.S_rows, self.S_f, self.S_sign * x[self.S_eta])
        add(off[5] + self.S_rows, self.S_eta, self.S_sign * x[self.S_f])
        add(off[5] + self.SQ_rows, self.SQ_cols, self.SQ_vals)
        # concentration
        r7 = np.arange(off[6], off[7])
        add(r7, self.G_eta, x[self.G_rh] + x[self.G_rn])
        add(r7, self.G_rh, x[self.G_eta] - 1.0)
        add(r7, self.G_rn, x[self.G_eta])
        # slack pressure
        r8 = np.arange(off[7], off[8])
        add(r8, self.K_rh, self.c_h2)
        add(r8, self.K_rn, self.c_ng)
        # energy
        r9 = np.arange(off[8], off[9])
        if len(r9):
            add(r9, self.E_ge, 1.0)
            add(r9, self.E_eta, -(self.heat_ratio - 1.0) * x[self.E_qw])
            add(r9, self.E_qw, -((self.heat_ratio - 1.0) * x[self.E_eta] + 1.0))
        return (np.concatenate(rows), np.concatenate(cols), np.concatenate(vals))

    def ineq_jacobian(self, x: np.ndarray) -> sp.csr_matrix:
        r = np.arange(self.n_ineq)
        rows = np.concatenate([r, r])
        cols = np.concatenate([self.P_rh, self.P_rn])
        vals = np.concatenate([np.full(self.n_ineq, self.c_h2),
                               np.full(self.n_ineq, self.c_ng)])
        return sp.csr_matrix((vals, (rows, cols)), shape=(self.n_ineq, self.index.total))

    def jacobian_sparsity(self):
        """Row/col pattern of the stacked (equality; inequality) Jacobian."""
        x = np.where(np.isfinite(self.lb), np.maximum(self.lb, 0.5), 0.5)
        x = np.where(np.isfinite(self.ub), np.minimum(x, self.ub), x)
        rows, cols, _ = self._eq_jacobian_triplets(x + 1e-3)
        ji = self.ineq_jacobian(x).tocoo()
        return (np.concatenate([rows, self.n_eq + ji.row]),
                np.concatenate([cols, ji.col]))

    # -- objective ----------------------------------------------------------

    def objective(self, x: np.ndarray) -> float:
        ge = self.index.block(x, "ge")
        fc = x[self.C_fc]
        alpha = x[self.C_alpha]
        val = float(np.dot(self.obj_qs_coef, x[self.obj_qs_cols]))
        val += self.obj_ge_coef * float(ge.sum())
        val += self.obj_wc * float(np.dot(fc, np.sqrt(alpha) - 1.0))
        return val

    def gradient(self, x: np.ndarray) -> np.ndarray:
        g = np.zeros(self.index.total)
        g[self.obj_qs_cols] += self.obj_qs_coef
        base = self.index.base("ge")
        g[base:base + len(self.index.withdrawal_ids) * self.grid.n_points] += self.obj_ge_coef
        alpha = x[self.C_alpha]
        fc = x[self.C_fc]
        g[self.C_fc] += self.obj_wc * (np.sqrt(alpha) - 1.0)
        g[self.C_alpha] += self.obj_wc * fc / (2.0 * np.sqrt(alpha))
        return g

    def economics(self, x: np.ndarray) -> dict:
        """Objective breakdown in dollars over the horizon."""
        purchase = float(np.dot(self.econ_qs_coef, x[self.obj_qs_cols])) / max(self.xi, 1e-30)
        revenue = -float(self.econ_ge_coef * self.index.block(x, "ge").sum()) / max(self.xi, 1e-30)
        xi_c = 1.0 - self.xi
        compression = (float(self.econ_wc * np.dot(x[self.C_fc],
                                                   np.sqrt(x[self.C_alpha]) - 1.0))
                       / max(xi_c, 1e-30))
        return {
            "gas_purchase_usd": purchase,
            "energy_revenue_usd": revenue,
            "economic_cost_usd": purchase - revenue,
            "compression_cost_usd": compression,
            "objective": self.objective(x),
        }

    # -- Hessian of the Lagrangian -----------------------------------------

    def lagrangian_hessian(self, x, lam_eq) -> sp.csr_matrix:
        """Symmetric Hessian H_f + sum lam_i * H_ci of the equality rows.

        Inequality rows are linear, so their multipliers never contribute.
        """
        off = self.row_offset
        rows, cols, vals = [], [], []

        def addsym(i, j, v):
            rows.append(i)
            cols.append(j)
            vals.append(v)
            same = i == j
            rows.append(np.where(same, i, j))
            cols.append(np.where(same, j, i))
            vals.append(np.where(same, 0.0, v))

        lam1 = lam_eq[off[0]:off[1]]
        lam2 = lam_eq[off[1]:off[2]]
        # continuity bilinear terms
        addsym(self.F_eta_j, self.F_fl, lam1 - lam2)
        addsym(self.F_eta_i, self.F_f0, -lam1 + lam2)
        # momentum blocks
        lam3 = lam_eq[off[2]:off[3]]
        rho_bar = 0.5 * (x[self.F1_rh_i] + x[self.F2_rn_i]
                         + x[self.F1_rh_j] + x[self.F2_rn_j])
        phi_bar = (x[self.F_f0] + x[self.F_fl]) / (2.0 * self.seg_Ah)
        s_abs = self._smooth_abs(phi_bar)
        gpp = self.seg_B * (3.0 * phi_bar / s_abs - phi_bar ** 3 / s_abs ** 3) / rho_bar
        gpr = -self.seg_B * (s_abs + phi_bar ** 2 / s_abs) / rho_bar ** 2
        grr = 2.0 * self.seg_B * phi_bar * s_abs / rho_bar ** 3
        m = len(phi_bar)
        vars6 = np.stack([self.F1_rh_i, self.F2_rn_i, self.F1_rh_j, self.F2_rn_j,
                          self.F_f0, self.F_fl], axis=1)
        u = np.zeros((m, 6))
        u[:, 4] = u[:, 5] = 1.0
        u[:, 4:] /= (2.0 * self.seg_Ah)[:, None]
        w = np.zeros((m, 6))
        w[:, :4] = 0.5
        block = (gpp[:, None, None] * u[:, :, None] * u[:, None, :]
                 + gpr[:, None, None] * (u[:, :, None] * w[:, None, :]
                                         + w[:, :, None] * u[:, None, :])
                 + grr[:, None, None] * w[:, :, None] * w[:, None, :])
        block *= lam3[:, None, None]
        rows.append(np.broadcast_to(vars6[:, :, None], (m, 6, 6)).ravel())
        cols.append(np.broadcast_to(vars6[:, None, :], (m, 6, 6)).ravel())
        vals.append(block.ravel())
        # compressor boost blocks
        lam4 = lam_eq[off[3]:off[4]]
        if len(lam4):
            alpha = x[self.C_alpha]
            cp_i = self.c_h2 * x[self.C_rh_i] + self.c_ng * x[self.C_rn_i]
            cH, cN = self.c_h2, self.c_ng
            addsym(self.C_rh_j, self.C_rh_j, lam4 * 2.0 * cH * cH)
            addsym(self.C_rh_j, self.C_rn_j, lam4 * 2.0 * cH * cN)
            addsym(self.C_rn_j, self.C_rn_j, lam4 * 2.0 * cN * cN)
            a2 = alpha ** 2
            addsym(self.C_rh_i, self.C_rh_i, -lam4 * 2.0 * a2 * cH * cH)
            addsym(self.C_rh_i, self.C_rn_i, -lam4 * 2.0 * a2 * cH * cN)
            addsym(self.C_rn_i, self.C_rn_i, -lam4 * 2.0 * a2 * cN * cN)
            addsym(self.C_alpha, self.C_rh_i, -lam4 * 4.0 * alpha * cp_i * cH)
            addsym(self.C_alpha, self.C_rn_i, -lam4 * 4.0 * alpha * cp_i * cN)
            addsym(self.C_alpha, self.C_alpha, -lam4 * 2.0 * cp_i ** 2)
        # species balance bilinear terms
        lam6 = lam_eq[off[5]:off[6]]
        if len(self.S_rows):
            lam_term = lam6[self.S_rows] * self.S_sign
            addsym(self.S_eta, self.S_f, lam_term)
        # concentration definition
        lam7 = lam_eq[off[6]:off[7]]
        addsym(self.G_eta, self.G_rh, lam7)
        addsym(self.G_eta, self.G_rn, lam7)
        # energy
        lam9 = lam_eq[off[8]:off[9]]
        if len(lam9):
            addsym(self.E_eta, self.E_qw, -lam9 * (self.heat_ratio - 1.0))
        # objective curvature
        if len(self.C_alpha):
            alpha = x[self.C_alpha]
            fc = x[self.C_fc]
            sq = np.sqrt(alpha)
            addsym(self.C_fc, self.C_alpha, self.obj_wc / (2.0 * sq))
            addsym(self.C_alpha, self.C_alpha, -self.obj_wc * fc / (4.0 * alpha * sq))
        n = self.index.total
        return sp.csr_matrix((np.concatenate(vals),
                              (np.concatenate(rows), np.concatenate(cols))),
                             shape=(n, n))

    # -- bookkeeping --------------------------------------------------------

    def eq_names(self) -> list[str]:
        names = []
        N = self.grid.n_points
        nodes = self.index.node_ids
        fam_entities = {
            "continuity_h2": self.index.segment_ids,
            "continuity_ng": self.index.segment_ids,
            "momentum": self.index.segment_ids,
            "compressor_boost": self.index.compressor_ids,
            "mass_balance": nodes,
            "species_balance": [nodes[k] for k in self.species_nodes],
            "concentration": nodes,
            "slack_pressure": [nodes[k] for k in self.slack_pos],
            "energy": self.index.withdrawal_ids,
        }
        for fam in self.family_names:
            for eid in fam_entities[fam]:
                for t in range(N):
                    names.append(f"{fam}[{eid},{t}]")
        return names

    def ineq_names(self) -> list[str]:
        N = self.grid.n_points
        return [f"pressure[{self.index.node_ids[k]},{t}]"
                for k in self.press_pos for t in range(N)]

    def export_debug(self, out_dir: str | Path):
        """Write variable, constraint and sparsity tables as CSV."""
        out = Path(out_dir)
        out.mkdir(parents=True, exist_ok=True)
        with open(out / "variables.csv", "w", newline="") as fh:
            wr = csv.writer(fh)
            wr.writerow(["name", "lower", "upper"])
            for name, lo, hi in zip(self.index.names(), self.lb, self.ub):
                wr.writerow([name, repr(lo), repr(hi)])
        with open(out / "constraints.csv", "w", newline="") as fh:
            wr = csv.writer(fh)
            wr.writerow(["name", "kind", "lower", "upper"])
            for name in self.eq_names():
                wr.writerow([name, "equality", "0.0", "0.0"])
            for name, lo, hi in zip(self.ineq_names(), self.ineq_lb, self.ineq_ub):
                wr.writerow([name, "inequality", repr(lo), repr(hi)])
        rows, cols = self.jacobian_sparsity()
        with open(out / "jacobian_sparsity.csv", "w", newline="") as fh:
            wr = csv.writer(fh)
            wr.writerow(["row", "col"])
            for r, c in zip(rows.tolist(), cols.tolist()):
                wr.writerow([r, c])


def expected_variable_count(segnet: SegmentedNetwork, grid: TimeGrid) -> int:
    """Closed-form tally: N*(3*nodes + 2*segments + 2*compressors
    + supplies + 2*withdrawals)."""
    n_nodes = len(segnet.nodes)
    n_sup = sum(1 for n in segnet.nodes if n.role in ("slack", "injection"))
    n_wd = sum(1 for n in segnet.nodes if n.role == "withdrawal")
    return grid.n_points * (3 * n_nodes + 2 * len(segnet.segments)
                            + 2 * len(segnet.compressors) + n_sup + 2 * n_wd)


def assemble_nlp(segnet: SegmentedNetwork, scenario: Scenario, grid: TimeGrid,
                 smoothing_eps: float = 1e-8) -> NlpProblem:
    """Build the complete sparse NLP for a segmented network and scenario."""
    problem = NlpProblem(segnet, scenario, grid, smoothing_eps=smoothing_eps)
    if problem.index.total != expected_variable_count(segnet, grid):
        raise AssemblyError("variable index does not match the counting formula")
    return problem
