"""Tests of the benchmark itself: tracing must not change results, the
sweep inputs follow the seed, and the runner refuses to run without the
program's sources.

    PYTHONPATH=src python3 -m pytest -q perfbench
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import worker
import workloads as wl
from tracing import SOLVE_NLP, Tracer, layer_totals

HERE = Path(__file__).resolve().parent


def _sweep_batch(seed, n):
    network_doc, scenario_doc = worker._bundled_documents("eight-node")
    return [(k, wl.sweep_documents(network_doc, scenario_doc, k))
            for k in wl.sweep_keys(seed, n)]


def test_tracing_leaves_case_results_unchanged(tmp_path):
    plain = worker.solve_case("eight-node", tmp_path / "plain")
    tracer = Tracer()
    with tracer.installed():
        traced = worker.solve_case("eight-node", tmp_path / "traced", tracer)
    assert plain.status == traced.status == "local-optimum"
    assert plain.audit_passed and traced.audit_passed
    assert (plain.iterations, plain.objective, plain.digest) == \
        (traced.iterations, traced.objective, traced.digest)
    for name in worker.CSV_FILES:
        assert (tmp_path / "plain" / name).read_bytes() == \
            (tmp_path / "traced" / name).read_bytes()
    assert worker.check_outcome(plain, wl.load_reference()) == (True, True)


def test_tracing_leaves_sweep_results_unchanged():
    batch = _sweep_batch(seed=3, n=3)
    plain = [worker.solve_sweep_point(k, docs) for k, docs in batch]
    tracer = Tracer()
    with tracer.installed():
        traced = [worker.solve_sweep_point(k, docs, tracer)
                  for k, docs in batch]
    for a, b in zip(plain, traced):
        assert (a.status, a.iterations, a.objective) == \
            (b.status, b.iterations, b.objective)
    reference = wl.load_reference()
    for o in plain:
        assert worker.check_outcome(o, reference)[1]


def test_spans_account_for_solve_nlp_time():
    tracer = Tracer()
    with tracer.installed():
        for k, docs in _sweep_batch(seed=5, n=2):
            worker.solve_sweep_point(k, docs, tracer)
    spans = tracer.spans
    assert {s[4] for s in spans} == {1, 2}
    totals = layer_totals(spans)
    for acc in totals.values():
        children = sum(v for name, v in acc.items()
                       if name.endswith("_s") and name.startswith(
                           ("solver.kkt", "solver.restoration", "solver.back",
                            "transcription.jacobian", "transcription.constr",
                            "transcription.hessian", "transcription.objective",
                            "trace.bookkeeping")))
        assert acc["solver.self_s"] > 0.0
        assert children + acc["solver.self_s"] == \
            pytest.approx(acc[SOLVE_NLP + "_s"], rel=1e-9)
        assert acc["solver.kkt_factor_calls"] >= acc[SOLVE_NLP + "_calls"]
        assert acc["solver.factor_fill_nnz"] > 0
    # the first sweep point is the one that reaches restoration
    assert totals[1].get("solver.restoration_factor_calls", 0) > 0


def test_uninstall_restores_every_patch():
    import h2blend
    import h2blend.cli
    import h2blend.solver
    from h2blend.transcription import NlpProblem
    before = (h2blend.solver.splu, h2blend.solver.solve_nlp,
              h2blend.cli.run_audits, h2blend.parse_network,
              NlpProblem.__dict__["eq_jacobian"])
    with Tracer().installed():
        assert h2blend.solver.splu is not before[0]
    after = (h2blend.solver.splu, h2blend.solver.solve_nlp,
             h2blend.cli.run_audits, h2blend.parse_network,
             NlpProblem.__dict__["eq_jacobian"])
    assert all(a is b for a, b in zip(after, before))


def test_sweep_keys_follow_the_seed_and_are_stratified():
    assert wl.sweep_keys(7) == wl.sweep_keys(7)
    assert wl.sweep_keys(7) != wl.sweep_keys(8)
    for seed in range(40):
        keys = wl.sweep_keys(seed)
        assert len(keys) == wl.SWEEP_POINTS
        assert keys[0] == wl.RESTORATION_POINT
        assert keys.count(wl.RESTORATION_POINT) == 1
        drawn = keys[1:]
        for column in range(len(wl.SWEEP_LEVELS)):
            levels = [int(k.split("-")[column]) for k in drawn]
            assert all(levels.count(v) == len(drawn) // 5 for v in range(5))
    reference = wl.load_reference()["solves"]
    assert set(wl.all_sweep_keys()) <= set(reference)


def test_runner_refuses_without_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "eight-node",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert not proc.stdout.strip()
    assert json.loads((tmp_path / "BENCHMARK.json").read_text())["paths"] \
        == ["perfbench"]
