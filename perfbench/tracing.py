"""Per-layer tracing of h2blend from outside the package.

A Tracer wraps the public entry points of each module (and SuperLU as the
solver module sees it) and records one span per call: name, start, end,
parent span and solve id.  Spans stay in memory until the run ends; then
``layer_metrics`` reduces them to per-solve layer totals.  Installing
patches changes no result, only adds timing around the original calls.
"""

from __future__ import annotations

import contextlib
import functools
import os
from time import perf_counter

import h2blend
import h2blend.cli
import h2blend.solver
from h2blend.solution import SolutionTrajectory
from h2blend.transcription import NlpProblem

SOLVE_NLP = "solver.solve_nlp"
KKT_FACTOR = "solver.kkt_factor"
RESTORATION_FACTOR = "solver.restoration_factor"
BACKSOLVE = "solver.backsolve"
BOOKKEEPING = "trace.bookkeeping"

# NlpProblem evaluation methods and the layer span each one records.
_EVALUATIONS = {
    "eq_constraints": "transcription.constraints",
    "ineq_constraints": "transcription.constraints",
    "eq_jacobian": "transcription.jacobian",
    "ineq_jacobian": "transcription.jacobian",
    "lagrangian_hessian": "transcription.hessian",
    "objective": "transcription.objective",
    "gradient": "transcription.objective",
}
_EVALUATION_SPANS = frozenset(_EVALUATIONS.values())

# Public functions as the CLI and the package namespace see them.
_NETWORK_FUNCTIONS = ("load_network", "parse_network", "parse_scenario",
                      "segment_pipes", "validate_topology")


class _TimedFactor:
    """Proxy of a SuperLU factor whose ``solve`` calls are traced."""

    def __init__(self, lu, tracer: "Tracer"):
        self._lu = lu
        self.solve = tracer.wrap(BACKSOLVE, lu.solve)

    def __getattr__(self, name):
        return getattr(self._lu, name)


class Tracer:
    def __init__(self):
        # span: [name, start, end, parent index or -1, solve id, fill nnz]
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._n_y: list[int] = []
        self._solve_id = 0
        self._saved: list[tuple] = []

    # -- recording ----------------------------------------------------------

    def _open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, perf_counter(), 0.0, parent, self._solve_id, 0])
        self._stack.append(len(self.spans) - 1)
        return self._stack[-1]

    def _close(self, index: int):
        self.spans[index][2] = perf_counter()
        self._stack.pop()

    @contextlib.contextmanager
    def span(self, name: str):
        index = self._open(name)
        try:
            yield index
        finally:
            self._close(index)

    @contextlib.contextmanager
    def solve(self, name: str):
        """Root span of one solve; its children share a fresh solve id."""
        self._solve_id += 1
        with self.span(name) as index:
            yield index

    def wrap(self, name: str, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            # a layer calling itself is one span, counted once
            if self._stack and self.spans[self._stack[-1]][0] == name:
                return fn(*args, **kwargs)
            with self.span(name):
                return fn(*args, **kwargs)
        return traced

    # -- patches ------------------------------------------------------------

    def _patch(self, owner, attr: str, replacement):
        self._saved.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, replacement)

    def install(self):
        for method, name in _EVALUATIONS.items():
            self._patch(NlpProblem, method,
                        self.wrap(name, getattr(NlpProblem, method)))
        self._patch(h2blend.solver, "solve_nlp",
                    self._traced_solve_nlp(h2blend.solver.solve_nlp))
        self._patch(h2blend.solver, "assemble_nlp",
                    self.wrap("transcription.assemble",
                              h2blend.solver.assemble_nlp))
        self._patch(h2blend.solver, "splu",
                    self._traced_splu(h2blend.solver.splu))
        for module in (h2blend.cli, h2blend):
            for fn in _NETWORK_FUNCTIONS:
                if fn in module.__dict__:
                    self._patch(module, fn,
                                self.wrap("network.load", getattr(module, fn)))
            self._patch(module, "run_audits",
                        self.wrap("validation.audit", module.run_audits))
            if "write_solution" in module.__dict__:
                self._patch(module, "write_solution",
                            self._traced_write(module.write_solution))
        from_solution = SolutionTrajectory.__dict__["from_solution"].__func__
        self._patch(SolutionTrajectory, "from_solution",
                    classmethod(self.wrap("solution.trajectory", from_solution)))

    def uninstall(self):
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    @contextlib.contextmanager
    def installed(self):
        self.install()
        try:
            yield self
        finally:
            self.uninstall()

    def _traced_solve_nlp(self, solve_nlp):
        @functools.wraps(solve_nlp)
        def traced(problem, *args, **kwargs):
            self._n_y.append(problem.index.total + problem.n_ineq)
            try:
                with self.span(SOLVE_NLP):
                    return solve_nlp(problem, *args, **kwargs)
            finally:
                self._n_y.pop()
        return traced

    def _traced_splu(self, splu):
        @functools.wraps(splu)
        def traced(A, *args, **kwargs):
            # restoration factors the n_y x n_y normal equations, the KKT
            # step the (n_y + m) x (n_y + m) augmented system
            restoration = bool(self._n_y) and A.shape[0] == self._n_y[-1]
            with self.span(RESTORATION_FACTOR if restoration
                           else KKT_FACTOR) as index:
                lu = splu(A, *args, **kwargs)
            with self.span(BOOKKEEPING):
                self.spans[index][5] = lu.L.nnz + lu.U.nnz
            return _TimedFactor(lu, self)
        return traced

    def _traced_write(self, write_solution):
        @functools.wraps(write_solution)
        def traced(*args, **kwargs):
            with self.span("solution.write") as index:
                paths = write_solution(*args, **kwargs)
            with self.span(BOOKKEEPING):
                self.spans[index][5] = sum(os.path.getsize(p) for p in paths)
            return paths
        return traced


# -- reduction ---------------------------------------------------------------

def _children(spans):
    children = [[] for _ in spans]
    for i, span in enumerate(spans):
        if span[3] >= 0:
            children[span[3]].append(i)
    return children


def _inside_solve_nlp(spans):
    inside = [False] * len(spans)
    for i, span in enumerate(spans):       # parents precede children
        parent = span[3]
        inside[i] = parent >= 0 and (inside[parent]
                                     or spans[parent][0] == SOLVE_NLP)
    return inside


def check_nesting(spans) -> list[str]:
    """Span-tree sanity: every child lies within its parent's interval."""
    problems = []
    for i, (name, start, end, parent, _, _) in enumerate(spans):
        if end < start:
            problems.append(f"span {i} ({name}) ends before it starts")
        if parent >= 0:
            p_start, p_end = spans[parent][1], spans[parent][2]
            if start < p_start or end > p_end:
                problems.append(f"span {i} ({name}) leaves its parent")
    return problems


def layer_totals(spans) -> dict:
    """Per solve id: layer times, call counts, fills and self times."""
    children = _children(spans)
    inside = _inside_solve_nlp(spans)
    per_solve: dict[int, dict] = {}
    for i, (name, start, end, parent, solve_id, extra) in enumerate(spans):
        if name in _EVALUATION_SPANS and not inside[i]:
            continue                       # audit-time evaluations count as audit
        acc = per_solve.setdefault(solve_id, {})
        duration = end - start
        acc[name + "_s"] = acc.get(name + "_s", 0.0) + duration
        acc[name + "_calls"] = acc.get(name + "_calls", 0) + 1
        if name in (KKT_FACTOR, RESTORATION_FACTOR):
            acc["solver.factor_fill_nnz"] = max(
                acc.get("solver.factor_fill_nnz", 0), extra)
        if name == "solution.write":
            acc["solution.bytes_written"] = (
                acc.get("solution.bytes_written", 0) + extra)
        if name == SOLVE_NLP or parent < 0:
            own = duration - sum(spans[c][2] - spans[c][1] for c in children[i])
            key = "solver.self_s" if name == SOLVE_NLP else "root.self_s"
            acc[key] = acc.get(key, 0.0) + own
    return per_solve
