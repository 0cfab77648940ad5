"""Command-line front end: load a network and scenario, optimize, audit
and write time-series CSV outputs.

Exit codes: 0 success, 2 invalid or unreadable input or unwritable output,
3 infeasible or a solver error, 4 iteration limit, 5 post-solve audit
failure, 1 internal failure.
"""

from __future__ import annotations

import argparse
import importlib.resources
import os
import sys
from pathlib import Path

from .network import (
    ParseError,
    load_network,
    parse_scenario,
    read_json,
    segment_pipes,
    validate_topology,
)
from .physics import DomainError
from .solution import (
    SolutionTrajectory,
    export_nlp,
    read_solution,
    write_csv,
    write_solution,
)
from .solver import SolverOptions, solve_steady, solve_transient
from .validation import run_audits

EXIT_OK = 0
EXIT_PARSE = 2
EXIT_INFEASIBLE = 3
EXIT_ITERATION_LIMIT = 4
EXIT_AUDIT = 5

BUNDLED_CASES = ("single-pipe", "eight-node")


def bundled_path(case: str, kind: str) -> Path:
    """Path of a bundled network or scenario JSON ('single-pipe'/'eight-node')."""
    stem = case.replace("-", "_")
    resource = importlib.resources.files("h2blend").joinpath(
        f"data/{stem}_{kind}.json")
    return Path(str(resource))


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="h2blend",
        description="Transient optimization of hydrogen blending in gas "
                    "pipeline networks.")
    parser.add_argument("--network", help="network JSON path")
    parser.add_argument("--scenario", help="scenario JSON path")
    parser.add_argument("--case", choices=BUNDLED_CASES,
                        help="use a bundled case study instead of "
                             "--network/--scenario")
    parser.add_argument("--out", default=None,
                        help="output directory (default: $H2BLEND_OUT or "
                             "./h2blend_out)")
    parser.add_argument("--dt", type=float, default=None,
                        help="override time step, hours")
    parser.add_argument("--dl", type=float, default=None,
                        help="override segmentation length, m")
    parser.add_argument("--xi", type=float, default=None,
                        help="override economic/compression weight in [0, 1]")
    parser.add_argument("--tol", type=float, default=1e-6,
                        help="KKT tolerance")
    parser.add_argument("--mode", choices=("steady", "transient",
                                           "validate-only"),
                        default="transient")
    parser.add_argument("--iter-log", action="store_true",
                        help="write per-iteration solver log CSV")
    parser.add_argument("--export-nlp", action="store_true",
                        help="export assembled problem tables for debugging")
    return parser


def _load_inputs(args):
    if args.case is not None:
        network_path, scenario_path = (bundled_path(args.case, kind)
                                       for kind in ("network", "scenario"))
    elif args.network and args.scenario:
        network_path, scenario_path = args.network, args.scenario
    else:
        raise ParseError("either --case or both --network and --scenario are required")
    net = load_network(network_path)
    scenario_doc = read_json(scenario_path)
    # parse_scenario reports a document that is not an object
    if isinstance(scenario_doc, dict):
        for key, value in (("dt_hours", args.dt), ("segment_length_m", args.dl),
                           ("xi", args.xi)):
            if value is not None:
                scenario_doc[key] = value
    scenario = parse_scenario(scenario_doc)
    return net, scenario


def _audit(trajectory, segnet, scenario, tol: float, out_dir: Path):
    """Run the post-solve audits, write audit.json and audit.txt, print."""
    report = run_audits(trajectory, segnet, scenario, feasibility_tol=10.0 * tol)
    (out_dir / "audit.json").write_text(report.to_json())
    (out_dir / "audit.txt").write_text(report.to_text() + "\n")
    print(report.to_text())
    return report


def _stage(name: str, result, log_dir: Path | None) -> int:
    """Write a solve stage's iteration log into ``log_dir`` (if given), print
    its summary line and return the exit code its status calls for."""
    if log_dir is not None and result.log:
        header = list(result.log[0])
        write_csv(log_dir / f"iterations_{name}.csv", header,
                  ([row[key] for key in header] for row in result.log))
    print(f"{name}: {result.status} in {result.iterations} "
          f"iterations ({result.wall_time:.2f} s), "
          f"violation {result.violation:.2e}")
    if result.status == "local-optimum":
        return EXIT_OK
    print(f"error: {name} stage: {result.message}", file=sys.stderr)
    return (EXIT_ITERATION_LIMIT if result.status == "iteration-limit"
            else EXIT_INFEASIBLE)


def run(args) -> int:
    out_dir = Path(args.out or os.environ.get("H2BLEND_OUT", "h2blend_out"))
    try:
        options = SolverOptions(kkt_tol=args.tol)
    except ValueError as exc:
        raise ParseError(f"--tol: {exc}")
    net, scenario = _load_inputs(args)
    diagnostics = validate_topology(net)
    if diagnostics:
        raise ParseError("\n".join(f"topology: {diag}" for diag in diagnostics))
    segnet = segment_pipes(net, scenario.dL)

    if args.mode == "validate-only":
        try:
            trajectory = read_solution(out_dir)
        except (OSError, KeyError, ValueError) as exc:
            raise ParseError(f"cannot read solution from {out_dir}: {exc}")
        try:
            report = _audit(trajectory, segnet, scenario, args.tol, out_dir)
        except ValueError as exc:            # written for another network or grid
            raise ParseError(f"solution in {out_dir} does not fit the inputs: {exc}")
        return EXIT_OK if report.passed else EXIT_AUDIT

    try:
        out_dir.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise ParseError(f"cannot create output directory {out_dir}: {exc}")
    log_dir = out_dir if args.iter_log else None
    result, problem = solve_steady(segnet, scenario, options)
    code = _stage("steady", result, log_dir)
    if code == EXIT_OK and args.mode == "transient":
        result, problem = solve_transient(segnet, scenario, result.x, options)
        code = _stage("transient", result, log_dir)
    if code != EXIT_OK:
        return code

    if args.export_nlp:
        export_nlp(problem, out_dir / "nlp_debug")
    trajectory = SolutionTrajectory.from_solution(problem, result.x)
    write_solution(trajectory, out_dir)
    report = _audit(trajectory, segnet, scenario, args.tol, out_dir)
    econ = trajectory.economics
    print(f"objective {econ['objective']:.6f} | economic "
          f"{econ['economic_cost_usd']:.2f} $ | compression "
          f"{econ['compression_cost_usd']:.2f} $")
    if not report.passed:
        print("error: post-solve audit failed", file=sys.stderr)
        return EXIT_AUDIT
    return EXIT_OK


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return run(args)
    # h2blend raises OSError only where it reads inputs or writes outputs
    except (ParseError, DomainError, OSError) as exc:
        for line in str(exc).splitlines():
            print(f"error: {line}", file=sys.stderr)
        return EXIT_PARSE
    except Exception as exc:                 # pragma: no cover - safety net
        print(f"error: unexpected failure: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
