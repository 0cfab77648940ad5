"""Pipeline network graph, uniform pipe segmentation and scenario data.

Networks and scenarios are read from JSON documents (SI units throughout)
and are immutable after construction, so they are safe for shared reads.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional, Sequence

import numpy as np

from .physics import (
    DEFAULT_L0,
    DEFAULT_MACH,
    DEFAULT_P0,
    GasConstants,
)

ROLES = ("slack", "injection", "withdrawal", "junction")
# Discretization limits.  The steady start point solves a dense nodes x
# flows system, which grows with the square of the segment count (32 MB at
# 2,000 segments); the finest grids of the refinement ladder need 60
# segments and 240 time steps.
MAX_SEGMENTS = 2000
MAX_TIME_STEPS = 10000


class ParseError(ValueError):
    """A network or scenario document is malformed.

    The message carries the location (array and id) of the offending entry.
    """


@dataclass(frozen=True)
class Node:
    id: str
    role: str = "junction"
    p_min: float = 3.0e6
    p_max: float = 6.0e6
    p_slack: Optional[float] = None          # slack nodes only, Pa
    eta_s: Optional[float] = None            # constant supply fraction (scenario may override)
    gE_max: Optional[float] = None           # withdrawal bound mode, MJ/s
    gE_fixed: Optional[float] = None         # withdrawal fixed mode, MJ/s


@dataclass(frozen=True)
class Pipe:
    id: str
    from_node: str
    to_node: str
    L: float                                 # m
    D: float                                 # m
    lam: float                               # Darcy friction factor
    A: float                                 # m^2


@dataclass(frozen=True)
class Compressor:
    id: str
    from_node: str
    to_node: str
    alpha_max: float
    fc_max: float                            # kg/s


@dataclass(frozen=True)
class Network:
    nodes: tuple[Node, ...]
    pipes: tuple[Pipe, ...]
    compressors: tuple[Compressor, ...]

    def node(self, node_id: str) -> Node:
        for n in self.nodes:
            if n.id == node_id:
                return n
        raise KeyError(node_id)

    @property
    def slack_ids(self) -> tuple[str, ...]:
        return tuple(n.id for n in self.nodes if n.role == "slack")

    @property
    def withdrawal_ids(self) -> tuple[str, ...]:
        return tuple(n.id for n in self.nodes if n.role == "withdrawal")

    @property
    def supply_ids(self) -> tuple[str, ...]:
        """Nodes that can inject gas: slack plus injection nodes."""
        return tuple(n.id for n in self.nodes if n.role in ("slack", "injection"))


def _require(cond: bool, where: str, msg: str):
    if not cond:
        raise ParseError(f"{where}: {msg}")


def _object(value, where: str) -> dict:
    """``value`` if it is a JSON object; ParseError naming ``where`` if not."""
    _require(isinstance(value, dict), where,
             f"must be an object, got {type(value).__name__}")
    return value


def _objects(document: dict, key: str) -> list[dict]:
    """The array ``document[key]`` (empty if absent); every entry an object."""
    entries = document.get(key, [])
    _require(isinstance(entries, list), key,
             f"must be an array, got {type(entries).__name__}")
    return [_object(entry, f"{key}[{k}]") for k, entry in enumerate(entries)]


def _number(value, where: str, key: str) -> float:
    """``value`` as a float; ParseError naming ``where`` and ``key`` if it is
    missing, not a number or not finite (Python's json reads NaN and
    Infinity, which JSON itself does not have)."""
    _require(value is not None, where, f"{key} is missing")
    try:
        number = float(value)
    except (TypeError, ValueError):
        raise ParseError(f"{where}: {key} must be a number, got {value!r}") from None
    _require(math.isfinite(number), where, f"{key} must be finite, got {value!r}")
    return number


def _entries(document: dict, key: str, seen: set[str]):
    """(id, location, entry) of each entry of the array ``document[key]``.
    Ids are non-empty strings, unique across every array read with the same
    ``seen``."""
    for entry in _objects(document, key):
        eid = entry.get("id")
        where = f"{key}[{eid!r}]"
        _require(isinstance(eid, str) and eid, where, "missing id")
        _require(eid not in seen, where, "duplicate id")
        seen.add(eid)
        yield eid, where, entry


def _ends(entry: dict, where: str, node_ids: set[str]) -> tuple[str, str]:
    """The ``from`` and ``to`` of a pipe or compressor: two different nodes."""
    ends = entry.get("from"), entry.get("to")
    for nid in ends:
        _require(isinstance(nid, str) and nid in node_ids, where,
                 f"unknown node reference {nid!r}")
    _require(ends[0] != ends[1], where, "starts and ends at the same node")
    return ends


def parse_network(document: dict) -> Network:
    """Build a Network from a parsed JSON document.

    Raises ParseError (with the offending array and id in the message) for
    a missing or duplicate id (ids are unique across nodes, pipes and
    compressors), a pipe or compressor whose ends are not two different
    nodes, a network without a slack node, role data on a node of another
    role, and numbers that are missing, not finite or out of range.
    """
    _object(document, "network")
    seen: set[str] = set()
    nodes = []
    for nid, where, entry in _entries(document, "nodes", seen):
        role = entry.get("role", "junction")
        _require(role in ROLES, where, f"unknown role {role!r}")
        p_min = _number(entry.get("p_min", 3.0e6), where, "p_min")
        p_max = _number(entry.get("p_max", 6.0e6), where, "p_max")
        _require(0.0 < p_min < p_max, where, f"need 0 < p_min < p_max, got [{p_min}, {p_max}]")
        p_slack = entry.get("p_slack")
        if role == "slack":
            p_slack = _number(p_slack, where, "p_slack")
            _require(p_min <= p_slack <= p_max, where, "p_slack outside pressure bounds")
        else:
            _require(p_slack is None, where, "p_slack only valid on slack nodes")
        eta_s = entry.get("eta_s")
        if eta_s is not None:
            _require(role in ("slack", "injection"), where, "eta_s only valid on supply nodes")
            eta_s = _number(eta_s, where, "eta_s")
            _require(0.0 <= eta_s <= 1.0, where, "eta_s must be in [0, 1]")
        gE_max = entry.get("gE_max")
        gE_fixed = entry.get("gE_fixed")
        if gE_max is not None or gE_fixed is not None:
            _require(role == "withdrawal", where, "energy demand only valid on withdrawal nodes")
            _require(gE_max is None or gE_fixed is None, where,
                     "gE_max and gE_fixed are mutually exclusive")
        if gE_max is not None:
            gE_max = _number(gE_max, where, "gE_max")
            _require(gE_max >= 0.0, where, "gE_max must be non-negative")
        if gE_fixed is not None:
            gE_fixed = _number(gE_fixed, where, "gE_fixed")
            _require(gE_fixed >= 0.0, where, "gE_fixed must be non-negative")
        if role == "withdrawal":
            _require(gE_max is not None or gE_fixed is not None, where,
                     "withdrawal node needs gE_max or gE_fixed")
        nodes.append(Node(id=nid, role=role, p_min=p_min, p_max=p_max,
                          p_slack=p_slack, eta_s=eta_s, gE_max=gE_max, gE_fixed=gE_fixed))
    node_ids = {n.id for n in nodes}

    pipes = []
    for pid, where, entry in _entries(document, "pipes", seen):
        frm, to = _ends(entry, where, node_ids)
        L = _number(entry.get("L"), where, "L")
        D = _number(entry.get("D"), where, "D")
        lam = _number(entry.get("lambda", 0.01), where, "lambda")
        A = _number(entry.get("A", math.pi * D ** 2 / 4.0), where, "A")
        _require(L > 0 and D > 0 and A > 0, where, "L, D, A must be positive")
        _require(lam > 0, where, "friction factor must be positive")
        pipes.append(Pipe(id=pid, from_node=frm, to_node=to, L=L, D=D, lam=lam, A=A))

    compressors = []
    for cid, where, entry in _entries(document, "compressors", seen):
        frm, to = _ends(entry, where, node_ids)
        alpha_max = _number(entry.get("alpha_max", 2.0), where, "alpha_max")
        fc_max = _number(entry.get("fc_max"), where, "fc_max")
        _require(alpha_max >= 1.0, where, "alpha_max must be >= 1")
        _require(fc_max > 0.0, where, "fc_max must be positive")
        compressors.append(Compressor(id=cid, from_node=frm, to_node=to,
                                      alpha_max=alpha_max, fc_max=fc_max))

    net = Network(nodes=tuple(nodes), pipes=tuple(pipes), compressors=tuple(compressors))
    _require(len(net.slack_ids) >= 1, "network", "at least one slack node is required")
    return net


def read_json(path: str | Path):
    """The JSON document in ``path``.  Text that is not JSON (or not in a
    JSON encoding) is a ParseError; a file that cannot be read, an OSError."""
    try:
        return json.loads(Path(path).read_bytes())
    except ValueError as exc:        # JSONDecodeError or UnicodeDecodeError
        raise ParseError(f"{path}: invalid JSON ({exc})") from exc


def load_network(path: str | Path) -> Network:
    return parse_network(read_json(path))


def validate_topology(net: Network) -> list[str]:
    """Return a list of diagnostics, one per node that no chain of pipes and
    compressors joins to the first node; an empty list means the network is
    connected.  Everything else about the graph is checked by parse_network.
    """
    adjacency: dict[str, set[str]] = {n.id: set() for n in net.nodes}
    for edge in (*net.pipes, *net.compressors):
        adjacency[edge.from_node].add(edge.to_node)
        adjacency[edge.to_node].add(edge.from_node)
    reached = {net.nodes[0].id}
    stack = [net.nodes[0].id]
    while stack:
        for nxt in adjacency[stack.pop()] - reached:
            reached.add(nxt)
            stack.append(nxt)
    return [f"unreachable node {n.id!r}" for n in net.nodes if n.id not in reached]


@dataclass(frozen=True)
class Segment:
    """One short pipe produced by uniform segmentation of a parent pipe."""

    id: str
    parent: str
    from_node: str
    to_node: str
    L: float
    D: float
    lam: float
    A: float


@dataclass(frozen=True)
class SegmentedNetwork:
    """Original network plus auxiliary junctions and equal-length segments."""

    original: Network
    nodes: tuple[Node, ...]                  # original nodes followed by auxiliaries
    segments: tuple[Segment, ...]
    compressors: tuple[Compressor, ...]


def segment_pipes(net: Network, dL: float) -> SegmentedNetwork:
    """Split every pipe into ceil(L/dL) equal-length segments; a dL that
    would make more than MAX_SEGMENTS segments is a ParseError.

    Auxiliary node ids are deterministic: ``<pipe id>.<segment index>``;
    a network node that already holds one of them is a ParseError.
    Auxiliary nodes are junctions carrying the parent pipe's endpoint
    pressure bounds; a pipe whose endpoint pressure ranges do not overlap
    cannot be split.
    """
    if dL <= 0.0:
        raise ParseError(f"segmentation length must be positive, got {dL}")
    quotients = [pipe.L / dL for pipe in net.pipes]
    # each quotient is compared before math.ceil, which fails on an
    # infinite one (a dL near the smallest positive float)
    counts = [max(1, math.ceil(q - 1e-12)) for q in quotients if q <= MAX_SEGMENTS]
    if len(counts) < len(quotients) or sum(counts) > MAX_SEGMENTS:
        raise ParseError(f"segmentation length {dL} m would split the pipes into "
                         f"more than {MAX_SEGMENTS} segments")
    nodes = list(net.nodes)
    node_ids = {n.id for n in nodes}
    segments: list[Segment] = []
    for pipe, count in zip(net.pipes, counts):
        seg_len = pipe.L / count
        frm_node = net.node(pipe.from_node)
        to_node = net.node(pipe.to_node)
        p_min = max(frm_node.p_min, to_node.p_min)
        p_max = min(frm_node.p_max, to_node.p_max)
        if count > 1 and p_min >= p_max:
            raise ParseError(
                f"pipe {pipe.id!r}: endpoint pressure ranges do not overlap "
                f"(auxiliary junctions would need [{p_min}, {p_max}] Pa)")
        prev = pipe.from_node
        for k in range(count):
            last = k == count - 1
            nxt = pipe.to_node if last else f"{pipe.id}.{k + 1}"
            if not last:
                _require(nxt not in node_ids, f"nodes[{nxt!r}]",
                         f"id taken by an auxiliary junction of pipe {pipe.id!r}")
                nodes.append(Node(id=nxt, role="junction", p_min=p_min, p_max=p_max))
            segments.append(
                Segment(id=f"{pipe.id}.s{k + 1}", parent=pipe.id,
                        from_node=prev, to_node=nxt,
                        L=seg_len, D=pipe.D, lam=pipe.lam, A=pipe.A)
            )
            prev = nxt
    return SegmentedNetwork(
        original=net, nodes=tuple(nodes), segments=tuple(segments),
        compressors=net.compressors,
    )


@dataclass(frozen=True)
class Profile:
    """Time profile for supply concentration: sinusoid or sampled series.

    Sampled series are piecewise constant over each sampling interval and
    periodic: before the first sample time the last value still holds,
    carried over from the previous period.  Sinusoids,
    ``eta0 + delta*sin(2*pi*nu*t/T)`` with T the period, are evaluated
    exactly at grid points.
    """

    kind: str                                 # "sinusoid" | "series" | "constant"
    eta0: float = 0.0
    delta: float = 0.0
    nu: float = 1.0
    times: Optional[tuple[float, ...]] = None
    values: Optional[tuple[float, ...]] = None

    def evaluate(self, t_hours, period_hours: float) -> np.ndarray:
        t = np.atleast_1d(np.asarray(t_hours, dtype=float))
        if self.kind == "constant":
            return np.full_like(t, self.eta0)
        if self.kind == "sinusoid":
            return self.eta0 + self.delta * np.sin(
                2.0 * np.pi * self.nu * t / period_hours)
        # before the first sample the index is -1, which picks the last value
        idx = np.searchsorted(np.asarray(self.times), t, side="right") - 1
        return np.asarray(self.values, dtype=float)[idx]


@dataclass(frozen=True)
class Scenario:
    """Time horizon, discretization, supply profiles, prices and weights."""

    T_f: float = 24.0                        # hours
    dt: float = 0.5                          # hours
    dL: float = 10000.0                      # m
    profiles: dict[str, Profile] = field(default_factory=dict)
    c_H2: float = 1.5                        # $/kg
    c_NG: float = 0.18                       # $/kg
    C_E: float = 0.01                        # $/MJ
    zeta: float = 0.07                       # $/kWh
    xi: float = 0.5
    mu: float = 1.31
    G: float = 0.505
    T_suction: float = 288.7                 # K
    gas: GasConstants = field(default_factory=GasConstants)
    l0: float = DEFAULT_L0
    p0: float = DEFAULT_P0
    M: float = DEFAULT_MACH
    qs_max: float = 1000.0                   # kg/s, supply flow cap
    qw_max: float = 2000.0                   # kg/s, withdrawal flow cap

    def __post_init__(self):
        if self.T_f <= 0.0 or self.dt <= 0.0:
            raise ParseError(f"scenario: horizon and dt must be positive")
        ratio = self.T_f / self.dt
        # compared before round, which fails on an infinite ratio
        if ratio > MAX_TIME_STEPS + 0.5:
            raise ParseError(f"scenario: dt={self.dt} h gives more than "
                             f"{MAX_TIME_STEPS} time steps over the horizon {self.T_f} h")
        if round(ratio) < 1 or abs(ratio - round(ratio)) > 1e-9:
            raise ParseError(
                f"scenario: dt={self.dt} h does not divide the horizon {self.T_f} h"
            )
        if not 0.0 <= self.xi <= 1.0:
            raise ParseError(f"scenario: xi must be in [0, 1], got {self.xi}")
        # the compression work constant divides by G and by mu - 1
        for key, value, low in (("mu", self.mu, 1.0), ("G", self.G, 0.0),
                                ("T", self.T_suction, 0.0)):
            if not value > low:
                raise ParseError(f"scenario.compressor_cost: {key} must be "
                                 f"greater than {low:g}, got {value}")
        # a negative price pays the optimizer to buy gas or to compress
        for key in ("c_H2", "c_NG", "C_E", "zeta"):
            if getattr(self, key) < 0.0:
                raise ParseError(f"scenario.prices: {key} must be non-negative, "
                                 f"got {getattr(self, key)}")

    @property
    def n_steps(self) -> int:
        return round(self.T_f / self.dt)

    @property
    def periods(self) -> int:
        """m, the number of identical periods of the horizon's data: the
        gcd of the step count and the integer frequency nu of every varying
        sinusoid profile.  It is 1 when a varying profile is a series or has
        a frequency that is not an integer, or when nothing varies."""
        frequencies = []
        for profile in self.profiles.values():
            if profile.kind == "series":
                return 1
            if profile.kind == "sinusoid" and profile.delta != 0.0 and profile.nu != 0.0:
                if not float(profile.nu).is_integer():
                    return 1
                frequencies.append(int(profile.nu))
        return math.gcd(self.n_steps, *frequencies) if frequencies else 1

    def supply_fraction(self, node: Node, t_hours) -> np.ndarray:
        """Supply concentration profile for a node at the given grid times."""
        profile = self.profiles.get(node.id)
        if profile is None:
            eta = node.eta_s if node.eta_s is not None else 0.0
            profile = Profile(kind="constant", eta0=eta)
        return profile.evaluate(t_hours, self.T_f)

    def compressor_work_constant(self) -> float:
        """Adiabatic-compression constant K, J per kg of compressed gas."""
        return 286.76 * self.mu * self.T_suction / (self.G * (self.mu - 1.0))


def _parse_profile(node_id: str, entry: dict) -> Profile:
    where = f"profiles[{node_id!r}]"
    kind = _object(entry, where).get("type")
    if kind == "sinusoid":
        eta0 = _number(entry.get("eta0"), where, "eta0")
        delta = _number(entry.get("delta", 0.0), where, "delta")
        nu = _number(entry.get("nu", 1.0), where, "nu")
        _require(0.0 <= eta0 - abs(delta) and eta0 + abs(delta) <= 1.0, where,
                 "eta0 +/- delta must stay within [0, 1]")
        return Profile(kind="sinusoid", eta0=eta0, delta=delta, nu=nu)
    if kind == "series":
        times, values = entry.get("times"), entry.get("values")
        _require(isinstance(times, list) and isinstance(values, list)
                 and len(times) == len(values) > 0, where,
                 "times and values must be equal-length, non-empty lists")
        times = tuple(_number(v, where, "times") for v in times)
        values = tuple(_number(v, where, "values") for v in values)
        _require(all(a < b for a, b in zip(times, times[1:])), where,
                 "series times must strictly increase")
        _require(all(0.0 <= v <= 1.0 for v in values), where,
                 "series values must be in [0, 1]")
        return Profile(kind="series", times=times, values=values)
    if kind == "constant":
        eta0 = _number(entry.get("eta0"), where, "eta0")
        _require(0.0 <= eta0 <= 1.0, where, "eta0 must be in [0, 1]")
        return Profile(kind="constant", eta0=eta0)
    raise ParseError(f"{where}: unknown profile type {kind!r}")


# Numbers read from a scenario document as (section, key, field), in the
# order they are checked; an absent key keeps the field's default.  Section
# None is the top level of the document.
_GAS_NUMBERS = tuple(("gas", key, key) for key in ("a_H2", "a_NG", "R_H2", "R_NG"))
_SCENARIO_NUMBERS = (
    (None, "horizon_hours", "T_f"), (None, "dt_hours", "dt"),
    (None, "segment_length_m", "dL"),
    ("prices", "c_H2", "c_H2"), ("prices", "c_NG", "c_NG"),
    ("prices", "C_E", "C_E"), ("prices", "zeta", "zeta"), (None, "xi", "xi"),
    ("compressor_cost", "mu", "mu"), ("compressor_cost", "G", "G"),
    ("compressor_cost", "T", "T_suction"),
    ("scales", "l0", "l0"), ("scales", "p0", "p0"), ("scales", "M", "M"),
    (None, "qs_max", "qs_max"), (None, "qw_max", "qw_max"),
)


def parse_scenario(document: dict) -> Scenario:
    _object(document, "scenario")

    def section(key: str) -> dict:
        return _object(document.get(key, {}), f"scenario.{key}")

    profiles = {
        node_id: _parse_profile(node_id, entry)
        for node_id, entry in section("profiles").items()
    }
    docs = {None: document, **{key: section(key) for key in
                               ("prices", "compressor_cost", "gas", "scales")}}

    def numbers(entries) -> dict:
        return {name: _number(docs[sec][key],
                              "scenario" if sec is None else f"scenario.{sec}", key)
                for sec, key, name in entries if key in docs[sec]}

    gas = GasConstants(**numbers(_GAS_NUMBERS))
    return Scenario(profiles=profiles, gas=gas, **numbers(_SCENARIO_NUMBERS))


def load_scenario(path: str | Path) -> Scenario:
    return parse_scenario(read_json(path))
