"""Physical-unit solution time series and CSV serialization.

A SolutionTrajectory holds the optimization result re-dimensionalized to
SI units (densities kg/m^3, flows kg/s, pressures Pa, energies MJ/s).
Serialization writes one CSV per entity family with 17 significant
digits so a read-back reproduces every value exactly.  Every CSV file
h2blend writes goes through write_csv: these, the per-iteration logs and
the exported NLP tables.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass, field
from itertools import chain
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
    # the problem from_solution read, which the audits reuse; None for a
    # trajectory read from disk
    problem: Optional[NlpProblem] = field(default=None, compare=False, repr=False)

    @property
    def n_steps(self) -> int:
        return len(self.times)

    @property
    def dt_hours(self) -> float:
        """The time step; 0.0 for a steady (one-step) trajectory."""
        return float(self.times[1] - self.times[0]) if self.n_steps > 1 else 0.0

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


def write_csv(path: Path, header, rows) -> Path:
    """Write a header row and then ``rows`` as one CSV file; returns the path."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)
    return path


def _rows(times, entities, columns):
    """[time, *labels, *values] per entity and time step ("" for a None column)."""
    for k, labels in enumerate(entities):
        for t, time in enumerate(times):
            yield [time, *labels, *("" if c is None else _fmt(c[k, t]) for c in columns)]


def write_solution(trajectory: SolutionTrajectory, out_dir) -> list:
    """Write nodes/edges/transfers/objective CSV files; returns the paths."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    tr = trajectory
    times = [_fmt(time) for time in tr.times]
    econ = tr.economics
    return [
        write_csv(out / "nodes.csv", ["time_h", "node", "rho_H2_kg_m3",
                                      "rho_NG_kg_m3", "eta", "p_Pa", "p_MPa"],
                  _rows(times, [(nid,) for nid in tr.node_ids],
                        (tr.rho_H2, tr.rho_NG, tr.eta, tr.p, tr.p / 1e6))),
        write_csv(out / "edges.csv", ["time_h", "edge", "kind", "parent",
                                      "f0_kg_s", "fL_kg_s", "alpha"],
                  chain(_rows(times, [(sid, "segment", parent) for sid, parent
                                      in zip(tr.segment_ids, tr.segment_parents)],
                              (tr.f0, tr.fL, None)),
                        _rows(times, [(cid, "compressor", cid)
                                      for cid in tr.compressor_ids],
                              (tr.fc, tr.fc, tr.alpha)))),
        write_csv(out / "transfers.csv",
                  ["time_h", "node", "q_s_kg_s", "q_w_kg_s", "g_E_MJ_s"],
                  chain(_rows(times, [(nid,) for nid in tr.supply_ids],
                              (tr.qs, None, None)),
                        _rows(times, [(nid,) for nid in tr.withdrawal_ids],
                              (None, tr.qw, tr.gE)))),
        write_csv(out / "objective.csv", ["R_e_usd", "R_c_usd", "objective"],
                  [[_fmt(econ.get(key, 0.0)) for key in
                    ("economic_cost_usd", "compression_cost_usd", "objective")]]),
    ]


def export_nlp(problem: NlpProblem, out_dir) -> list:
    """Write the variable, constraint and Jacobian sparsity tables of an
    assembled problem as CSV files, for debugging; returns the paths."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    rows, cols = problem.jacobian_sparsity()
    return [
        write_csv(out / "variables.csv", ["name", "lower", "upper"],
                  ([name, repr(lo), repr(hi)] for name, lo, hi
                   in zip(problem.index.names(), problem.lb, problem.ub))),
        write_csv(out / "constraints.csv", ["name", "kind", "lower", "upper"],
                  chain(([name, "equality", "0.0", "0.0"]
                         for name in problem.eq_names()),
                        ([name, "inequality", repr(lo), repr(hi)] for name, lo, hi
                         in zip(problem.ineq_names(), problem.ineq_lb,
                                problem.ineq_ub)))),
        write_csv(out / "jacobian_sparsity.csv", ["row", "col"],
                  zip(rows.tolist(), cols.tolist())),
    ]


def read_solution(out_dir) -> SolutionTrajectory:
    """Read a solution written by write_solution (exact round-trip)."""
    def rows(name: str) -> list:
        with open(Path(out_dir) / name) as fh:
            return list(csv.DictReader(fh))

    node_rows, edge_rows, transfer_rows, obj_rows = map(
        rows, ("nodes.csv", "edges.csv", "transfers.csv", "objective.csv"))

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
    return SolutionTrajectory(
        times=np.array(times), node_ids=node_ids,
        segment_ids=seg_ids, segment_parents=[parents[s] for s in seg_ids],
        compressor_ids=comp_ids,
        supply_ids=supply_ids, withdrawal_ids=wd_ids,
        rho_H2=rho_h2, rho_NG=rho_ng, eta=eta, p=p,
        f0=f0, fL=fL, alpha=alpha, fc=fc, qs=qs, qw=qw, gE=gE,
        economics=economics,
    )
