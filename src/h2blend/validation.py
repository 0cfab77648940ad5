"""Post-solve audits: feasibility in physical units, cyclic species
conservation, flow-direction assumptions and block periodicity.

All audits work on an immutable SolutionTrajectory; feasibility residuals
are re-evaluated with the exact |phi| (no smoothing).  A trajectory made
by SolutionTrajectory.from_solution keeps the problem it was read from;
when that problem was assembled from the audited network and scenario on
the trajectory's grid, the feasibility audit evaluates a copy of it with
the exact |phi| instead of assembling the NLP again.
"""

from __future__ import annotations

import copy
import json
from dataclasses import dataclass, field, asdict

import numpy as np

from .network import Scenario, SegmentedNetwork
from .solution import SolutionTrajectory
from .transcription import NlpProblem, TimeGrid, assemble_nlp


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    value: float
    tolerance: float
    advisory: bool = False
    detail: str = ""


@dataclass
class AuditReport:
    checks: list = field(default_factory=list)

    def add(self, *args, **kwargs):
        self.checks.append(CheckResult(*args, **kwargs))

    def extend(self, other: "AuditReport"):
        self.checks.extend(other.checks)

    @property
    def passed(self) -> bool:
        """Overall verdict; advisory checks warn but do not fail the audit."""
        return all(c.passed or c.advisory for c in self.checks)

    def to_json(self) -> str:
        return json.dumps(
            {"passed": self.passed,
             "checks": [asdict(c) for c in self.checks]},
            indent=2)

    def to_text(self) -> str:
        lines = []
        for c in self.checks:
            mark = "PASS" if c.passed else ("WARN" if c.advisory else "FAIL")
            line = (f"[{mark}] {c.name}: value={c.value:.6e} "
                    f"tolerance={c.tolerance:.2e}")
            if c.detail:
                line += f" ({c.detail})"
            lines.append(line)
        lines.append(f"overall: {'PASS' if self.passed else 'FAIL'}")
        return "\n".join(lines)


def _rebuild_problem(trajectory: SolutionTrajectory, segnet: SegmentedNetwork,
                     scenario: Scenario) -> NlpProblem:
    n_steps = trajectory.n_steps
    if n_steps not in (1, scenario.n_steps):
        raise ValueError(f"trajectory has {n_steps} time steps, the scenario "
                         f"{scenario.n_steps}")
    if n_steps > 1 and trajectory.dt_hours != scenario.dt:
        raise ValueError(f"trajectory time step {trajectory.dt_hours} h differs "
                         f"from the scenario's {scenario.dt} h")
    grid = TimeGrid(n_points=n_steps, dt=scenario.dt)
    problem = trajectory.problem
    if (problem is not None and problem.segnet is segnet
            and problem.scenario is scenario and problem.grid == grid):
        # the solve's own NLP; only the friction smoothing differs
        problem = copy.copy(problem)
        problem.smoothing_eps = 0.0
    else:
        problem = assemble_nlp(segnet, scenario, grid, smoothing_eps=0.0)
    for entities, ids in (("nodes", "node_ids"), ("segments", "segment_ids"),
                          ("compressors", "compressor_ids"),
                          ("supplies", "supply_ids"),
                          ("withdrawals", "withdrawal_ids")):
        if list(getattr(problem.index, ids)) != list(getattr(trajectory, ids)):
            raise ValueError(f"trajectory {entities} do not match the "
                             "segmented network")
    return problem


def check_feasibility(trajectory: SolutionTrajectory, segnet: SegmentedNetwork,
                      scenario: Scenario, tol: float = 1e-5) -> AuditReport:
    """Re-evaluate all residuals and bounds with the exact |phi|.

    Residuals are dimensionless; bound checks are reported in physical
    units (tolerance interpreted in the same units as the bound).
    """
    problem = _rebuild_problem(trajectory, segnet, scenario)
    x = trajectory.to_variables(problem)
    report = AuditReport()
    c = problem.eq_constraints(x)
    off = problem.row_offset
    for k, fam in enumerate(problem.family_names):
        block = c[off[k]:off[k + 1]]
        worst = float(np.abs(block).max(initial=0.0))
        report.add(f"residual/{fam}", worst <= tol, worst, tol)
    ci = problem.ineq_constraints(x)
    p_tol = tol * problem.scales.p0
    low = float(np.max(problem.ineq_lb - ci, initial=0.0)) * problem.scales.p0
    high = float(np.max(ci - problem.ineq_ub, initial=0.0)) * problem.scales.p0
    report.add("bounds/pressure_lower", low <= p_tol, low, p_tol, detail="Pa")
    report.add("bounds/pressure_upper", high <= p_tol, high, p_tol, detail="Pa")
    bl = float(np.max(problem.lb - x, initial=0.0))
    bu = float(np.max(x - problem.ub, initial=0.0))
    report.add("bounds/variables_lower", bl <= tol, bl, tol)
    report.add("bounds/variables_upper", bu <= tol, bu, tol)
    return report


def conservation_audit(trajectory: SolutionTrajectory, segnet: SegmentedNetwork,
                       scenario: Scenario, tol: float = 1e-6) -> AuditReport:
    """Per-species net injected-minus-withdrawn mass over the cyclic horizon.

    Computed by direct accounting of boundary transfers (no reuse of the
    assembled residuals): over a full cycle the linepack returns to its
    starting value, so the nets must vanish relative to the throughput or,
    when it is larger, the linepack: the most gas the segments held at one
    time step, sum L A (rho_i + rho_j) / 2 over the segments.
    """
    tr = trajectory
    dt_s = tr.dt_hours * 3600.0 if tr.n_steps > 1 else scenario.dt * 3600.0
    node_by_id = {n.id: n for n in segnet.nodes}
    inj = {"H2": 0.0, "NG": 0.0}
    wdr = {"H2": 0.0, "NG": 0.0}
    for k, nid in enumerate(tr.supply_ids):
        eta_s = np.asarray(scenario.supply_fraction(node_by_id[nid], tr.times))
        inj["H2"] += float(np.sum(eta_s * tr.qs[k]) * dt_s)
        inj["NG"] += float(np.sum((1.0 - eta_s) * tr.qs[k]) * dt_s)
    for k, nid in enumerate(tr.withdrawal_ids):
        eta = tr.node_series(nid, "eta")
        wdr["H2"] += float(np.sum(eta * tr.qw[k]) * dt_s)
        wdr["NG"] += float(np.sum((1.0 - eta) * tr.qw[k]) * dt_s)
    report = AuditReport()
    # normalize by total gas throughput or, where larger, the linepack, so
    # no species or demand of zero is failed on numerical dust
    rho = dict(zip(tr.node_ids, tr.rho_H2 + tr.rho_NG))
    linepack = sum(s.L * s.A * (rho[s.from_node] + rho[s.to_node]) / 2.0
                   for s in segnet.segments)
    scale = max(inj["H2"] + inj["NG"], wdr["H2"] + wdr["NG"],
                float(np.max(linepack, initial=0.0)), 1e-300)
    for sp in ("H2", "NG"):
        rel = abs(inj[sp] - wdr[sp]) / scale
        report.add(f"conservation/{sp}", rel <= tol, rel, tol,
                   detail=f"injected {inj[sp]:.6e} kg, withdrawn {wdr[sp]:.6e} kg")
    return report


def flow_direction_audit(trajectory: SolutionTrajectory,
                         tol: float = 1e-9) -> AuditReport:
    """Flag pipe flow reversals; the edge-concentration aliasing used in
    the transcription assumes unidirectional design flow."""
    report = AuditReport()
    reversed_ids = []
    for e, sid in enumerate(trajectory.segment_ids):
        flows = np.concatenate([trajectory.f0[e], trajectory.fL[e]])
        if flows.max(initial=0.0) > tol and flows.min(initial=0.0) < -tol:
            reversed_ids.append(sid)
    report.add("flow_direction/aliasing", not reversed_ids,
               float(len(reversed_ids)), 0.0, advisory=True,
               detail=("flow sign changes on: " + ", ".join(reversed_ids))
               if reversed_ids else "all pipe flows unidirectional")
    return report


def periodicity_check(trajectory: SolutionTrajectory, cycles: int,
                      tol: float = 1e-4) -> AuditReport:
    """Block periodicity: with data repeating ``cycles`` times over the
    horizon, compare the solution at t and t + T/cycles."""
    report = AuditReport()
    N = trajectory.n_steps
    if cycles < 2 or N % cycles != 0:
        report.add("periodicity/block", True, 0.0, tol, advisory=True,
                   detail="not applicable")
        return report
    shift = N // cycles
    worst = 0.0
    for name in ("p", "eta", "f0", "fL", "qw", "gE", "qs", "fc", "alpha"):
        a = getattr(trajectory, name)
        if a.size == 0:
            continue
        b = np.roll(a, -shift, axis=1)
        scale = max(1.0, float(np.abs(a).max(initial=0.0)))
        worst = max(worst, float(np.abs(a - b).max(initial=0.0)) / scale)
    report.add("periodicity/block", worst <= tol, worst, tol, advisory=True)
    return report


def run_audits(trajectory: SolutionTrajectory, segnet: SegmentedNetwork,
               scenario: Scenario, feasibility_tol: float = 1e-5) -> AuditReport:
    """Standard post-solve audit battery.  The block periodicity check is
    reported when a supply profile cycles more than once over the horizon;
    it compares blocks of the scenario's periods (Scenario.periods), and is
    not applicable when the data as a whole repeat only once."""
    report = check_feasibility(trajectory, segnet, scenario, feasibility_tol)
    report.extend(conservation_audit(trajectory, segnet, scenario))
    report.extend(flow_direction_audit(trajectory))
    if any(p.kind == "sinusoid" and p.delta != 0.0 and abs(p.nu) > 1.0
           for p in scenario.profiles.values()):
        report.extend(periodicity_check(trajectory, scenario.periods))
    return report
