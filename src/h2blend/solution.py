"""Physical-unit solution time series and CSV serialization.

A SolutionTrajectory holds the optimization result re-dimensionalized to
SI units (densities kg/m^3, flows kg/s, pressures Pa, energies MJ/s).
Serialization writes one CSV per entity family with 17 significant
digits so a read-back reproduces every value exactly.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional

import numpy as np

from .transcription import NlpProblem


def _fmt(v: float) -> str:
    return f"{float(v):.17g}"


@dataclass
class SolutionTrajectory:
    times: np.ndarray                        # hours, shape (N,)
    node_ids: list
    segment_ids: list
    segment_parents: list
    compressor_ids: list
    supply_ids: list
    withdrawal_ids: list
    rho_H2: np.ndarray                       # (nodes, N), kg/m^3
    rho_NG: np.ndarray
    eta: np.ndarray
    p: np.ndarray                            # Pa
    f0: np.ndarray                           # (segments, N), kg/s
    fL: np.ndarray
    alpha: np.ndarray                        # (compressors, N)
    fc: np.ndarray                           # kg/s
    qs: np.ndarray                           # (supplies, N), kg/s
    qw: np.ndarray                           # (withdrawals, N), kg/s
    gE: np.ndarray                           # MJ/s
    economics: dict = field(default_factory=dict)
    dt_hours: float = 0.0
    # the problem from_solution read, which the audits reuse; None for a
    # trajectory read from disk
    problem: Optional[NlpProblem] = field(default=None, compare=False, repr=False)

    @property
    def n_steps(self) -> int:
        return len(self.times)

    @classmethod
    def from_solution(cls, problem: NlpProblem, x: np.ndarray) -> "SolutionTrajectory":
        idx = problem.index
        sc = problem.scales
        rho_h2 = idx.block(x, "rho_h2") * sc.rho0
        rho_ng = idx.block(x, "rho_ng") * sc.rho0
        p = (problem.c_h2 * idx.block(x, "rho_h2")
             + problem.c_ng * idx.block(x, "rho_ng")) * sc.p0
        return cls(
            times=problem.grid.points.copy(),
            node_ids=list(idx.node_ids),
            segment_ids=list(idx.segment_ids),
            segment_parents=[s.parent for s in problem.segnet.segments],
            compressor_ids=list(idx.compressor_ids),
            supply_ids=list(idx.supply_ids),
            withdrawal_ids=list(idx.withdrawal_ids),
            rho_H2=rho_h2, rho_NG=rho_ng,
            eta=idx.block(x, "eta").copy(),
            p=p,
            f0=idx.block(x, "f0") * problem.flow0,
            fL=idx.block(x, "fl") * problem.flow0,
            alpha=idx.block(x, "alpha").copy(),
            fc=idx.block(x, "fc") * problem.flow0,
            qs=idx.block(x, "qs") * problem.flow0,
            qw=idx.block(x, "qw") * problem.flow0,
            gE=idx.block(x, "ge") * problem.energy0,
            economics=problem.economics(x),
            dt_hours=problem.grid.dt,
            problem=problem,
        )

    def to_variables(self, problem: NlpProblem) -> np.ndarray:
        """Inverse of from_solution: dimensionless variable vector."""
        idx = problem.index
        sc = problem.scales
        x = np.zeros(idx.total)
        idx.block(x, "rho_h2")[:] = self.rho_H2 / sc.rho0
        idx.block(x, "rho_ng")[:] = self.rho_NG / sc.rho0
        idx.block(x, "eta")[:] = self.eta
        idx.block(x, "f0")[:] = self.f0 / problem.flow0
        idx.block(x, "fl")[:] = self.fL / problem.flow0
        if self.alpha.size:
            idx.block(x, "alpha")[:] = self.alpha
            idx.block(x, "fc")[:] = self.fc / problem.flow0
        if self.qs.size:
            idx.block(x, "qs")[:] = self.qs / problem.flow0
        if self.qw.size:
            idx.block(x, "qw")[:] = self.qw / problem.flow0
            idx.block(x, "ge")[:] = self.gE / problem.energy0
        return x

    def node_series(self, node_id: str, quantity: str) -> np.ndarray:
        k = self.node_ids.index(node_id)
        return getattr(self, quantity)[k]


def write_solution(trajectory: SolutionTrajectory, out_dir) -> list:
    """Write nodes/edges/transfers/objective CSV files; returns the paths."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    tr = trajectory
    paths = []

    path = out / "nodes.csv"
    with open(path, "w", newline="") as fh:
        wr = csv.writer(fh)
        wr.writerow(["time_h", "node", "rho_H2_kg_m3", "rho_NG_kg_m3",
                     "eta", "p_Pa", "p_MPa"])
        for k, nid in enumerate(tr.node_ids):
            for t, time in enumerate(tr.times):
                wr.writerow([_fmt(time), nid, _fmt(tr.rho_H2[k, t]),
                             _fmt(tr.rho_NG[k, t]), _fmt(tr.eta[k, t]),
                             _fmt(tr.p[k, t]), _fmt(tr.p[k, t] / 1e6)])
    paths.append(path)

    path = out / "edges.csv"
    with open(path, "w", newline="") as fh:
        wr = csv.writer(fh)
        wr.writerow(["time_h", "edge", "kind", "parent",
                     "f0_kg_s", "fL_kg_s", "alpha"])
        for e, sid in enumerate(tr.segment_ids):
            for t, time in enumerate(tr.times):
                wr.writerow([_fmt(time), sid, "segment", tr.segment_parents[e],
                             _fmt(tr.f0[e, t]), _fmt(tr.fL[e, t]), ""])
        for e, cid in enumerate(tr.compressor_ids):
            for t, time in enumerate(tr.times):
                wr.writerow([_fmt(time), cid, "compressor", cid,
                             _fmt(tr.fc[e, t]), _fmt(tr.fc[e, t]),
                             _fmt(tr.alpha[e, t])])
    paths.append(path)

    path = out / "transfers.csv"
    with open(path, "w", newline="") as fh:
        wr = csv.writer(fh)
        wr.writerow(["time_h", "node", "q_s_kg_s", "q_w_kg_s", "g_E_MJ_s"])
        for k, nid in enumerate(tr.supply_ids):
            for t, time in enumerate(tr.times):
                wr.writerow([_fmt(time), nid, _fmt(tr.qs[k, t]), "", ""])
        for k, nid in enumerate(tr.withdrawal_ids):
            for t, time in enumerate(tr.times):
                wr.writerow([_fmt(time), nid, "", _fmt(tr.qw[k, t]),
                             _fmt(tr.gE[k, t])])
    paths.append(path)

    path = out / "objective.csv"
    with open(path, "w", newline="") as fh:
        wr = csv.writer(fh)
        econ = tr.economics
        wr.writerow(["R_e_usd", "R_c_usd", "objective"])
        wr.writerow([_fmt(econ.get("economic_cost_usd", 0.0)),
                     _fmt(econ.get("compression_cost_usd", 0.0)),
                     _fmt(econ.get("objective", 0.0))])
    paths.append(path)
    return paths


def read_solution(out_dir) -> SolutionTrajectory:
    """Read a solution written by write_solution (exact round-trip)."""
    out = Path(out_dir)
    with open(out / "nodes.csv") as fh:
        node_rows = list(csv.DictReader(fh))
    with open(out / "edges.csv") as fh:
        edge_rows = list(csv.DictReader(fh))
    with open(out / "transfers.csv") as fh:
        transfer_rows = list(csv.DictReader(fh))
    with open(out / "objective.csv") as fh:
        obj_rows = list(csv.DictReader(fh))

    times = sorted({float(r["time_h"]) for r in node_rows})
    t_index = {_fmt(t): i for i, t in enumerate(times)}
    node_ids = list(dict.fromkeys(r["node"] for r in node_rows))
    n_pos = {nid: k for k, nid in enumerate(node_ids)}
    N = len(times)
    shape = (len(node_ids), N)
    rho_h2 = np.zeros(shape)
    rho_ng = np.zeros(shape)
    eta = np.zeros(shape)
    p = np.zeros(shape)
    for r in node_rows:
        k, t = n_pos[r["node"]], t_index[_fmt(float(r["time_h"]))]
        rho_h2[k, t] = float(r["rho_H2_kg_m3"])
        rho_ng[k, t] = float(r["rho_NG_kg_m3"])
        eta[k, t] = float(r["eta"])
        p[k, t] = float(r["p_Pa"])

    seg_ids = list(dict.fromkeys(r["edge"] for r in edge_rows
                                 if r["kind"] == "segment"))
    comp_ids = list(dict.fromkeys(r["edge"] for r in edge_rows
                                  if r["kind"] == "compressor"))
    parents = {}
    s_pos = {sid: k for k, sid in enumerate(seg_ids)}
    c_pos = {cid: k for k, cid in enumerate(comp_ids)}
    f0 = np.zeros((len(seg_ids), N))
    fL = np.zeros((len(seg_ids), N))
    fc = np.zeros((len(comp_ids), N))
    alpha = np.zeros((len(comp_ids), N))
    for r in edge_rows:
        t = t_index[_fmt(float(r["time_h"]))]
        if r["kind"] == "segment":
            k = s_pos[r["edge"]]
            parents[r["edge"]] = r["parent"]
            f0[k, t] = float(r["f0_kg_s"])
            fL[k, t] = float(r["fL_kg_s"])
        else:
            k = c_pos[r["edge"]]
            fc[k, t] = float(r["f0_kg_s"])
            alpha[k, t] = float(r["alpha"])

    supply_ids = list(dict.fromkeys(r["node"] for r in transfer_rows
                                    if r["q_s_kg_s"] != ""))
    wd_ids = list(dict.fromkeys(r["node"] for r in transfer_rows
                                if r["q_w_kg_s"] != ""))
    qs = np.zeros((len(supply_ids), N))
    qw = np.zeros((len(wd_ids), N))
    gE = np.zeros((len(wd_ids), N))
    sup_pos = {nid: k for k, nid in enumerate(supply_ids)}
    wd_pos = {nid: k for k, nid in enumerate(wd_ids)}
    for r in transfer_rows:
        t = t_index[_fmt(float(r["time_h"]))]
        if r["q_s_kg_s"] != "":
            qs[sup_pos[r["node"]], t] = float(r["q_s_kg_s"])
        else:
            qw[wd_pos[r["node"]], t] = float(r["q_w_kg_s"])
            gE[wd_pos[r["node"]], t] = float(r["g_E_MJ_s"])

    economics = {}
    if obj_rows:
        economics = {"economic_cost_usd": float(obj_rows[0]["R_e_usd"]),
                     "compression_cost_usd": float(obj_rows[0]["R_c_usd"]),
                     "objective": float(obj_rows[0]["objective"])}
    dt = times[1] - times[0] if N > 1 else 0.0
    return SolutionTrajectory(
        times=np.array(times), node_ids=node_ids,
        segment_ids=seg_ids, segment_parents=[parents[s] for s in seg_ids],
        compressor_ids=comp_ids,
        supply_ids=supply_ids, withdrawal_ids=wd_ids,
        rho_H2=rho_h2, rho_NG=rho_ng, eta=eta, p=p,
        f0=f0, fL=fL, alpha=alpha, fc=fc, qs=qs, qw=qw, gE=gE,
        economics=economics, dt_hours=dt,
    )
