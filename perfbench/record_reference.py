"""Regenerate perfbench/reference.json: the objective and status of each
case workload and of every point of the steady-sweep grid.

    python3 perfbench/record_reference.py

Run it only when the model itself changes on purpose; the benchmark
checks every solve against this file.
"""

from __future__ import annotations

import json
import os
import sys
import tempfile
from pathlib import Path

for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[var] = "1"
HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import worker                                 # noqa: E402
import workloads as wl                        # noqa: E402

OBJECTIVE_RTOL = 1e-5


def main() -> int:
    solves = {}
    for case in wl.CASE_ARGS:
        with tempfile.TemporaryDirectory() as tmp:
            o = worker.solve_case(case, Path(tmp))
        solves[case] = {"status": o.status, "iterations": o.iterations,
                        "objective": o.objective}
        print(case, solves[case], f"{o.wall:.2f} s", flush=True)
    network_doc, scenario_doc = worker._bundled_documents("eight-node")
    for key in wl.all_sweep_keys():
        docs = wl.sweep_documents(network_doc, scenario_doc, key)
        o = worker.solve_sweep_point(key, docs)
        entry = {"status": o.status, "iterations": o.iterations,
                 "objective": o.objective}
        if o.status != "local-optimum" or not o.audit_passed:
            entry["message"] = o.message or "audit failed"
            print(key, entry, flush=True)
        solves[key] = entry
    write_reference(solves)
    return 0


def write_reference(solves: dict):
    """One solve per line, so a changed point shows as one changed line."""
    lines = [f"  {json.dumps(k)}: {json.dumps(v)}" for k, v in solves.items()]
    wl.REFERENCE_PATH.write_text(
        "{\n"
        f' "objective_rtol": {OBJECTIVE_RTOL},\n'
        f' "levels": {json.dumps(wl.SWEEP_LEVELS)},\n'
        ' "solves": {\n' + ",\n".join(lines) + "\n }\n}\n")


if __name__ == "__main__":
    sys.exit(main())
