"""h2blend benchmark.

    python3 perfbench/run.py --workload W --seed N --seconds T --trace 0|1

Run from the root of a source checkout; the program is imported from
./src.  Workloads (see BENCHMARK.json for the reasons):

  eight-node        the bundled 8-node network through ``cli.main``
  single-pipe-fine  the bundled single pipe at dt 0.1 h, dL 2 km
  steady-sweep      seeded what-if steady solves on the 8-node network

Each workload runs as a closed loop (one caller, one thread) in a fresh
worker process with the BLAS/OpenMP thread variables pinned to 1.  With
``--trace 0`` it prints the end-to-end metrics; with ``--trace 1`` it
alternates untraced and traced solves and prints the per-layer metrics
from spans recorded around the public calls into each module.  Every
solve is checked (status, audit, objective against reference.json);
``attempted`` and ``failed`` count the inputs of one pass, since reruns of
an input must reproduce its first solve.  The last stdout line is the JSON
result.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
COUNTS = ROOT / ".perfbench_work" / "counts"
sys.path.insert(0, str(HERE))

import workloads as wl                                # noqa: E402

SETUP_PROBES = 5
TIME_LIMIT_S = 170.0
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS",
               "NUMEXPR_NUM_THREADS")


class BenchError(RuntimeError):
    pass


def _child_env() -> dict:
    env = dict(os.environ)
    env.update({var: "1" for var in THREAD_VARS})
    env["PYTHONPATH"] = str(SRC)
    return env


def _worker(args: list[str], deadline: float) -> dict:
    timeout = deadline - perf_counter()
    if timeout <= 0:
        raise BenchError("out of time before the worker started")
    try:
        proc = subprocess.run(
            [sys.executable, str(HERE / "worker.py"), *args], cwd=ROOT,
            env=_child_env(), stdout=subprocess.PIPE, text=True,
            timeout=timeout)
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"worker {args[:3]} timed out") from exc
    if proc.returncode != 0 or not proc.stdout.strip():
        raise BenchError(f"worker {args[:3]} exited with {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _source_hash() -> str:
    """Identity of the code under test: the package and the benchmark."""
    sha = hashlib.sha256()
    files = sorted((SRC / "h2blend").rglob("*.py")) \
        + sorted((SRC / "h2blend" / "data").glob("*.json")) \
        + sorted(HERE.glob("*.py")) + [wl.REFERENCE_PATH]
    for path in files:
        sha.update(str(path.relative_to(ROOT)).encode())
        sha.update(path.read_bytes())
    return sha.hexdigest()[:16]


def _count_drift(workload: str, seed: int, trace: int, record: dict) -> list:
    """Exact counts must repeat across runs of the same code: compare with
    the record an earlier run of this code and input left behind."""
    path = COUNTS / f"{_source_hash()}-{workload}-{seed}-{trace}.json"
    if path.exists():
        earlier = json.loads(path.read_text())
        if earlier != record:
            return [f"exact counts differ from an earlier run of the same "
                    f"code ({path.name}): nondeterminism"]
        return []
    COUNTS.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(record, sort_keys=True))
    return []


def _metric(value, unit: str) -> dict:
    return {"value": value, "unit": unit}


def end_to_end(run: dict, setup: list[float]) -> dict:
    samples = run["solve_s"]
    p75 = (statistics.quantiles(samples, n=4, method="inclusive")[2]
           if len(samples) > 1 else samples[0])
    return {
        "solve_s": _metric(statistics.median(samples), "s"),
        "solve_s_p75": _metric(p75, "s"),
        "setup_s": _metric(statistics.median(setup), "s"),
        "iterations": _metric(run["iterations"], "count"),
        "pass_share": _metric(1.0 - run["failed"] / run["attempted"],
                              "share"),
        "peak_rss_mb": _metric(run["peak_rss_mb"], "MB"),
    }


def per_layer(run: dict) -> dict:
    layer = run["layers"]

    def get(name):
        return layer.get(name, 0)

    iterations = run["iterations"]
    factorizations = (get("solver.kkt_factor_calls")
                      + get("solver.restoration_factor_calls"))
    overhead = (statistics.median(run["traced_solve_s"])
                - statistics.median(run["solve_s"]))
    metrics = {
        "solver.solve_s": (get("solver.solve_nlp_s"), "s"),
        "solver.self_s": (get("solver.self_s"), "s"),
        "solver.iterations": (iterations, "count"),
        "solver.kkt_factor_s": (get("solver.kkt_factor_s"), "s"),
        "solver.kkt_factorizations": (get("solver.kkt_factor_calls"), "count"),
        "solver.factor_fill_nnz": (get("solver.factor_fill_nnz"), "count"),
        "solver.factorizations_per_iter": (factorizations / iterations,
                                           "1/iter"),
        "solver.restoration_factorizations": (
            get("solver.restoration_factor_calls"), "count"),
        "solver.restoration_factor_s": (get("solver.restoration_factor_s"),
                                        "s"),
        "solver.backsolves": (get("solver.backsolve_calls"), "count"),
        "solver.backsolve_s": (get("solver.backsolve_s"), "s"),
        "transcription.jacobian_s": (get("transcription.jacobian_s"), "s"),
        "transcription.jacobian_calls": (get("transcription.jacobian_calls"),
                                         "count"),
        "transcription.jacobian_per_iter": (
            get("transcription.jacobian_calls") / iterations, "1/iter"),
        "transcription.constraints_s": (get("transcription.constraints_s"),
                                        "s"),
        "transcription.constraints_calls": (
            get("transcription.constraints_calls"), "count"),
        "transcription.hessian_s": (get("transcription.hessian_s"), "s"),
        "transcription.hessian_calls": (get("transcription.hessian_calls"),
                                        "count"),
        "transcription.objective_s": (get("transcription.objective_s"), "s"),
        "transcription.objective_calls": (
            get("transcription.objective_calls"), "count"),
        "transcription.assemble_s": (get("transcription.assemble_s"), "s"),
        "transcription.assemble_calls": (get("transcription.assemble_calls"),
                                         "count"),
        "network.load_s": (get("network.load_s"), "s"),
        "solution.trajectory_s": (get("solution.trajectory_s"), "s"),
        "solution.write_s": (get("solution.write_s"), "s"),
        "solution.bytes_written": (get("solution.bytes_written"), "bytes"),
        "validation.audit_s": (get("validation.audit_s"), "s"),
        "cli.self_s": (get("root.self_s"), "s"),
        "trace.bookkeeping_s": (get("trace.bookkeeping_s"), "s"),
        "trace.overhead_s": (overhead, "s"),
    }
    return {name: _metric(value, unit)
            for name, (value, unit) in metrics.items()}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="h2blend benchmark")
    parser.add_argument("--workload", choices=wl.WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    deadline = perf_counter() + TIME_LIMIT_S
    if not (SRC / "h2blend" / "__init__.py").is_file() \
            or not wl.REFERENCE_PATH.is_file():
        print(f"error: no h2blend sources under {SRC}", file=sys.stderr)
        return 2

    common = ["--workload", args.workload, "--seed", str(args.seed)]
    try:
        # fresh processes, so each set-up pays imports and first calls
        setup = [] if args.trace else [
            _worker(["setup", *common], deadline)["setup_s"]
            for _ in range(SETUP_PROBES)]
        run = _worker(["run", *common, "--seconds", str(args.seconds),
                       "--trace", str(args.trace)], deadline)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    record = {"iterations": run["iterations"], "counts": run["counts"],
              "layer_counts": run.get("layer_counts")}
    problems = run["problems"] + _count_drift(args.workload, args.seed,
                                              args.trace, record)
    for key, failure in sorted(run["failures"].items()):
        print(f"failed solve {key}: {failure}", file=sys.stderr)
    for problem in problems:
        print(f"check failed: {problem}", file=sys.stderr)
    print(json.dumps({"environment": run["environment"]}))
    metrics = per_layer(run) if args.trace else end_to_end(run, setup)
    print(json.dumps({
        "correct": run["incorrect"] == 0 and not problems,
        "attempted": run["attempted"],
        "failed": run["failed"],
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
