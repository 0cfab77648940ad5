"""Benchmark worker: one fresh process per probe or measured run.

    python3 perfbench/worker.py setup --workload W --seed S
    python3 perfbench/worker.py run --workload W --seed S --seconds T --trace 0|1

``setup`` times the import of h2blend, input load/segmentation and NLP
assembly.  ``run`` solves the workload in a closed loop (one caller, one
thread) until the time is up.  Both print one JSON object on stdout.
Run them through perfbench/run.py, which pins the BLAS threads and sets
PYTHONPATH before this process imports numpy.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import platform
import re
import resource
import shutil
import statistics
import sys
import traceback
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

import workloads as wl

ROOT = Path(__file__).resolve().parent.parent
WORK = ROOT / ".perfbench_work"
CSV_FILES = ("nodes.csv", "edges.csv", "transfers.csv", "objective.csv")
_STAGE = re.compile(r"^(steady|transient): (\S+) in (\d+) iterations", re.M)


@dataclass
class Outcome:
    key: str                    # input identity: the case, or the sweep point
    wall: float                 # seconds for the whole solve
    status: str                 # local-optimum unless a stage failed
    iterations: int             # steady + transient interior-point iterations
    audit_passed: bool
    objective: float | None
    digest: str                 # SHA-256 of the CSVs (case) or the objective
    message: str = ""


def _bundled_documents(case: str):
    from h2blend.cli import bundled_path
    return (json.loads(bundled_path(case, "network").read_text()),
            json.loads(bundled_path(case, "scenario").read_text()))


# -- setup probe ---------------------------------------------------------------

def setup_probe(workload: str, seed: int) -> dict:
    t0 = perf_counter()
    import h2blend
    from h2blend.transcription import TimeGrid
    if workload == wl.SWEEP:
        network_doc, scenario_doc = _bundled_documents("eight-node")
        net_doc, scen_doc = wl.sweep_documents(network_doc, scenario_doc,
                                               wl.sweep_keys(seed)[0])
        net = h2blend.parse_network(net_doc)
        scenario = h2blend.parse_scenario(scen_doc)
        grids = [TimeGrid(n_points=1, dt=scenario.dt)]
    else:
        from h2blend.cli import _load_inputs, build_parser
        args = build_parser().parse_args(wl.CASE_ARGS[workload])
        net, scenario = _load_inputs(args)
        grids = [TimeGrid(n_points=1, dt=scenario.dt),
                 TimeGrid(n_points=scenario.n_steps, dt=scenario.dt)]
    segnet = h2blend.segment_pipes(net, scenario.dL)
    n_vars = [h2blend.assemble_nlp(segnet, scenario, g).index.total
              for g in grids]
    return {"setup_s": perf_counter() - t0, "variables": n_vars}


# -- one solve -----------------------------------------------------------------

def solve_case(workload: str, out_dir: Path, tracer=None) -> Outcome:
    import h2blend.cli
    argv = [*wl.CASE_ARGS[workload], "--out", str(out_dir)]
    stdout = io.StringIO()
    stderr = io.StringIO()
    root = tracer.solve("cli.main") if tracer else contextlib.nullcontext()
    shutil.rmtree(out_dir, ignore_errors=True)
    t0 = perf_counter()
    with root, contextlib.redirect_stdout(stdout), \
            contextlib.redirect_stderr(stderr):
        code = h2blend.cli.main(argv)
    wall = perf_counter() - t0
    stages = _STAGE.findall(stdout.getvalue())
    status = next((s for _, s, _ in stages if s != "local-optimum"),
                  "local-optimum" if len(stages) == 2 else "no-result")
    iterations = sum(int(n) for _, _, n in stages)
    audit_path = out_dir / "audit.json"
    audit_passed = (status == "local-optimum" and audit_path.exists()
                    and json.loads(audit_path.read_text())["passed"])
    objective, digest = None, ""
    if audit_passed:
        sha = hashlib.sha256()
        for name in CSV_FILES:
            sha.update((out_dir / name).read_bytes())
        digest = sha.hexdigest()
        rows = (out_dir / "objective.csv").read_text().splitlines()
        objective = float(rows[1].split(",")[2])
    message = "" if code == 0 else (stderr.getvalue().strip()
                                    or f"exit code {code}")
    return Outcome(workload, wall, status, iterations, audit_passed,
                   objective, digest, message)


def solve_sweep_point(key: str, documents, tracer=None) -> Outcome:
    """One what-if scenario: parse, segment, steady solve, audit."""
    import h2blend
    root = tracer.solve("sweep.point") if tracer else contextlib.nullcontext()
    t0 = perf_counter()
    try:
        with root:
            status, iterations, audit_passed, objective, message = \
                _sweep_point(h2blend, *documents)
    except Exception:                  # a library error is one failed solve
        traceback.print_exc()
        status, iterations, audit_passed, objective = "exception", 0, False, None
        message = traceback.format_exc().strip().splitlines()[-1]
    wall = perf_counter() - t0
    return Outcome(key, wall, status, iterations, audit_passed, objective,
                   repr(objective), message)


def _sweep_point(h2blend, net_doc, scen_doc):
    net = h2blend.parse_network(net_doc)
    scenario = h2blend.parse_scenario(scen_doc)
    problems = h2blend.validate_topology(net)
    segnet = h2blend.segment_pipes(net, scenario.dL)
    result, problem = h2blend.solve_steady(segnet, scenario,
                                           h2blend.SolverOptions())
    if result.status != "local-optimum":
        return result.status, result.iterations, False, None, result.message
    trajectory = h2blend.SolutionTrajectory.from_solution(problem, result.x)
    report = h2blend.run_audits(trajectory, segnet, scenario,
                                feasibility_tol=1e-5)
    return (result.status, result.iterations, report.passed and not problems,
            trajectory.economics["objective"], "")


def check_outcome(outcome: Outcome, reference: dict) -> tuple[bool, bool]:
    """(passed, correct): a solve passes if it converged, its audit passed
    and its objective matches the reference; it is incorrect if it claims
    a local optimum that the audit or the reference rejects."""
    if outcome.status != "local-optimum":
        return False, True
    ref = reference["solves"].get(outcome.key, {}).get("objective")
    matches = ref is None or (
        outcome.objective is not None
        and abs(outcome.objective - ref)
        <= reference["objective_rtol"] * max(1.0, abs(ref)))
    ok = outcome.audit_passed and matches
    return ok, ok


# -- measured run --------------------------------------------------------------

def _environment() -> dict:
    import numpy
    import scipy
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "nproc": os.cpu_count(),
        "threads": {k: v for k, v in os.environ.items()
                    if k.endswith("_THREADS")},
    }


def measured_run(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    import h2blend   # noqa: F401  imported before the clock starts
    tracer = None
    if trace:
        from tracing import Tracer
        tracer = Tracer()
    reference = wl.load_reference()
    out_dir = WORK / f"out-{workload}-{seed}-{int(trace)}"
    if workload == wl.SWEEP:
        network_doc, scenario_doc = _bundled_documents("eight-node")
        keys = wl.sweep_keys(seed)
        batch = [(k, wl.sweep_documents(network_doc, scenario_doc, k))
                 for k in keys]

        def one_pass(traced):
            return [solve_sweep_point(k, docs, traced) for k, docs in batch]
    else:
        def one_pass(traced):
            return [solve_case(workload, out_dir, traced)]

    # Alternate untraced and traced passes, so both see the same machine.
    # Start another pass only if at least half of it fits in the time, so
    # a run of long solves overruns --seconds by half a pass on average.
    untraced, traced, pass_s = [], [], []
    deadline = perf_counter() + seconds
    try:
        while (not untraced or (trace and not traced)
               or perf_counter() + statistics.median(pass_s) / 2 < deadline):
            start = perf_counter()
            if trace and len(traced) < len(untraced):
                with tracer.installed():
                    traced.append(one_pass(tracer))
            else:
                untraced.append(one_pass(None))
                if len(untraced) == 1:
                    # high-water mark of one pass, whatever the run length
                    peak_rss_mb = resource.getrusage(
                        resource.RUSAGE_SELF).ru_maxrss / 1024
            pass_s.append(perf_counter() - start)
    finally:
        shutil.rmtree(out_dir, ignore_errors=True)

    problems = []
    first = {o.key: o for o in untraced[0]}
    for passes, label in ((untraced, "untraced"), (traced, "traced")):
        for run in passes:
            for o in run:
                f = first[o.key]
                if (o.status, o.iterations, o.digest) != \
                        (f.status, f.iterations, f.digest):
                    problems.append(
                        f"{label} rerun of {o.key} differs from the first "
                        f"solve: {(o.status, o.iterations, o.digest[:12])} "
                        f"vs {(f.status, f.iterations, f.digest[:12])}")
    # Every solve is checked, but an operation is one input of the pass:
    # reruns must reproduce the first solve (checked above), so a failing
    # input counts once and the counts do not depend on the run length.
    outcomes = [o for run in untraced + traced for o in run]
    checks = [check_outcome(o, reference) for o in outcomes]
    failures = {o.key: {"status": o.status, "message": o.message,
                        "audit_passed": o.audit_passed,
                        "objective": o.objective}
                for o, (ok, _) in zip(outcomes, checks) if not ok}
    first_pass = untraced[0]
    result = {
        "environment": _environment(),
        "solve_s": [o.wall for run in untraced for o in run],
        "attempted": len(first_pass),
        "failed": sum(not ok for ok, _ in checks[:len(first_pass)]),
        "failures": failures,
        "incorrect": sum(not correct for _, correct in checks),
        "iterations": sum(o.iterations for o in first_pass) / len(first_pass),
        "peak_rss_mb": peak_rss_mb,
        "counts": {o.key: [o.status, o.iterations, o.digest]
                   for o in first_pass},
        "problems": problems,
    }
    if trace:
        result.update(_trace_summary(tracer, untraced, traced, problems))
    return result


def _trace_summary(tracer, untraced, traced, problems) -> dict:
    from tracing import check_nesting, layer_totals
    problems.extend(check_nesting(tracer.spans)[:5])
    per_solve = layer_totals(tracer.spans)
    # solve ids run 1, 2, ... in the order of the traced solves
    keys = [o.key for run in traced for o in run]
    count_names = ("solver.kkt_factor_calls", "solver.restoration_factor_calls",
                   "solver.backsolve_calls", "solver.factor_fill_nnz",
                   "transcription.jacobian_calls",
                   "transcription.constraints_calls",
                   "transcription.hessian_calls",
                   "transcription.objective_calls",
                   "transcription.assemble_calls", "solution.bytes_written")
    counts: dict[str, list] = {}
    for solve_id, key in enumerate(keys, start=1):
        acc = per_solve.get(solve_id, {})
        vector = [acc.get(name, 0) for name in count_names]
        if key in counts and counts[key] != vector:
            problems.append(f"traced layer counts of {key} differ between "
                            f"reruns: {vector} vs {counts[key]}")
        counts.setdefault(key, vector)
    n_solves = len(keys)
    totals: dict[str, float] = {}
    for acc in per_solve.values():
        for name, value in acc.items():
            if name == "solver.factor_fill_nnz":
                totals[name] = max(totals.get(name, 0), value)
            else:
                totals[name] = totals.get(name, 0) + value
    mean = {name: (value if name == "solver.factor_fill_nnz"
                   else value / n_solves) for name, value in totals.items()}
    return {"layers": mean, "layer_counts": {k: dict(zip(count_names, v))
                                             for k, v in counts.items()},
            "traced_solve_s": [o.wall for run in traced for o in run]}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("mode", choices=("setup", "run"))
    parser.add_argument("--workload", choices=wl.WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.mode == "setup":
        result = setup_probe(args.workload, args.seed)
    else:
        result = measured_run(args.workload, args.seed, args.seconds,
                              bool(args.trace))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except Exception:
        traceback.print_exc()
        sys.exit(1)
