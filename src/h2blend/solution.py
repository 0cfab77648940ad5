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


def _series(problem: NlpProblem) -> tuple:
    """(field, variable block, SI scale) of each series that is a block of
    the variable vector; the pressure follows from the two densities."""
    rho0, flow0 = problem.scales.rho0, problem.flow0
    return (("rho_H2", "rho_h2", rho0), ("rho_NG", "rho_ng", rho0),
            ("eta", "eta", 1.0), ("f0", "f0", flow0), ("fL", "fl", flow0),
            ("alpha", "alpha", 1.0), ("fc", "fc", flow0), ("qs", "qs", flow0),
            ("qw", "qw", flow0), ("gE", "ge", problem.energy0))


def _table(rows, key, columns, t_index, N) -> tuple:
    """Ids in first-seen order, and one (ids, N) array per column."""
    ids = list(dict.fromkeys(r[key] for r in rows))
    pos = {i: k for k, i in enumerate(ids)}
    arrays = [np.zeros((len(ids), N)) for _ in columns]
    for r in rows:
        k, t = pos[r[key]], t_index[_fmt(float(r["time_h"]))]
        for a, column in zip(arrays, columns):
            a[k, t] = float(r[column])
    return ids, arrays


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
        p = (problem.c_h2 * idx.block(x, "rho_h2")
             + problem.c_ng * idx.block(x, "rho_ng")) * problem.scales.p0
        return cls(
            times=problem.grid.points.copy(),
            node_ids=list(idx.node_ids),
            segment_ids=list(idx.segment_ids),
            segment_parents=[s.parent for s in problem.segnet.segments],
            compressor_ids=list(idx.compressor_ids),
            supply_ids=list(idx.supply_ids),
            withdrawal_ids=list(idx.withdrawal_ids),
            p=p,
            **{name: idx.block(x, block) * scale
               for name, block, scale in _series(problem)},
            economics=problem.economics(x),
            dt_hours=problem.grid.dt,
            problem=problem,
        )

    def to_variables(self, problem: NlpProblem) -> np.ndarray:
        """Inverse of from_solution: dimensionless variable vector."""
        x = np.zeros(problem.index.total)
        for name, block, scale in _series(problem):
            problem.index.block(x, block)[:] = getattr(self, name) / scale
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
    N = len(times)
    node_ids, (rho_h2, rho_ng, eta, p) = _table(
        node_rows, "node", ("rho_H2_kg_m3", "rho_NG_kg_m3", "eta", "p_Pa"), t_index, N)
    segments = [r for r in edge_rows if r["kind"] == "segment"]
    seg_ids, (f0, fL) = _table(segments, "edge", ("f0_kg_s", "fL_kg_s"), t_index, N)
    parents = {r["edge"]: r["parent"] for r in segments}
    comp_ids, (fc, alpha) = _table(
        [r for r in edge_rows if r["kind"] == "compressor"], "edge",
        ("f0_kg_s", "alpha"), t_index, N)
    supply_ids, (qs,) = _table([r for r in transfer_rows if r["q_s_kg_s"] != ""],
                               "node", ("q_s_kg_s",), t_index, N)
    wd_ids, (qw, gE) = _table([r for r in transfer_rows if r["q_w_kg_s"] != ""],
                              "node", ("q_w_kg_s", "g_E_MJ_s"), t_index, N)

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
