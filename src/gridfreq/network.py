"""Static description of the electrical network and the controller
communication graph.

A network couples two graphs over the same bus set: the power graph
(buses joined by lossless lines) and the communication graph (generator
buses exchanging power commands).  Everything here is immutable data plus
pure functions; the simulator owns all dynamics.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from operator import attrgetter
from typing import Dict, Iterable, List, Sequence, Tuple


class BusKind(str, Enum):
    GENERATOR = "generator"
    LOAD = "load"


@dataclass(frozen=True)
class Bus:
    """A single bus.

    Attributes:
        id: integer index; generators occupy the low indices.
        kind: generator or load.
        inertia: rotating mass constant, p.u.*s. Positive for generators,
            0.0 for load buses, which have no rotating mass.
        damping: frequency damping, p.u. per rad/s. Must be strictly
            positive at load buses because their frequency is recovered
            algebraically by dividing through it.
    """

    id: int
    kind: BusKind
    inertia: float = 0.0
    damping: float = 0.0


@dataclass(frozen=True)
class Line:
    """Lossless transmission line with an arbitrary stored orientation.

    Power transferred from `from_bus` toward `to_bus` is
    ``susceptance * sin(theta_from - theta_to)``.  All formulas in this
    package are written so that flipping the stored orientation changes
    nothing observable.
    """

    from_bus: int
    to_bus: int
    susceptance: float


@dataclass(frozen=True)
class CommEdge:
    """Undirected communication link between two generator buses.

    The averaging weight applies in both directions; the edge is stored
    once.
    """

    a: int
    b: int
    weight: float = 1.0


@dataclass(frozen=True)
class PowerNetwork:
    buses: Tuple[Bus, ...]
    lines: Tuple[Line, ...]
    comm: Tuple[CommEdge, ...]

    def __init__(self, buses: Sequence[Bus], lines: Sequence[Line],
                 comm: Sequence[CommEdge]):
        object.__setattr__(self, "buses", tuple(buses))
        object.__setattr__(self, "lines", tuple(lines))
        object.__setattr__(self, "comm", tuple(comm))
        # bus(id)'s index, outside the fields; the first bus of an id wins.
        object.__setattr__(self, "_by_id",
                           {b.id: b for b in reversed(self.buses)})

    @property
    def generator_ids(self) -> List[int]:
        return [b.id for b in self.buses if b.kind is BusKind.GENERATOR]

    @property
    def load_ids(self) -> List[int]:
        return [b.id for b in self.buses if b.kind is BusKind.LOAD]

    def bus(self, bus_id: int) -> Bus:
        try:
            return self._by_id[bus_id]
        except KeyError:
            raise KeyError(f"no bus with id {bus_id}") from None


def _number_fault(value: float, sign: str = "positive") -> str:
    """The number rule: value must be positive (with sign "nonnegative",
    at least zero), then finite.  Returns the word of the first test value
    fails, or "" when it passes both.  A NaN fails the sign test where zero
    fails it too, and the finite test otherwise."""
    if value < 0.0 or not (value > 0.0 or sign == "nonnegative"):
        return sign
    return "" if math.isfinite(value) else "finite"


def _graph_faults(edges: Iterable[Tuple[int, int, float]], nodes: List[int],
                  noun: str, weight: str, stray: str, graph: str) -> List[str]:
    """The graph rules for edges, each (end, end, weight), over nodes: no
    self-loop, both ends among the nodes, the number rule on the weight, no
    pair twice and, when there are nodes, one connected graph.  noun names
    an edge, and its last word a repeated one; weight names the weight,
    stray the fault of an end outside the nodes, and graph the whole."""
    adj: Dict[int, List[int]] = {n: [] for n in nodes}
    faults: List[str] = []
    seen = set()
    for a, b, w in edges:
        if a == b:
            faults.append(f"{noun} {a}-{b} is a self-loop")
        if a in adj and b in adj:
            adj[a].append(b)
            adj[b].append(a)
        else:
            faults.append(f"{noun} {a}-{b} {stray}")
        word = _number_fault(w)
        if word:
            faults.append(f"{noun} {a}-{b} {weight} must be {word}")
        key = frozenset((a, b))
        if key in seen:
            faults.append(f"{noun} {a}-{b} duplicates an existing {noun.split()[-1]}")
        seen.add(key)
    if nodes:
        reached = {nodes[0]}
        stack = [nodes[0]]
        while stack:
            for nb in adj[stack.pop()]:
                if nb not in reached:
                    reached.add(nb)
                    stack.append(nb)
        if len(reached) != len(adj):
            faults.append(f"{graph} is not connected")
    return faults


def validate(net: PowerNetwork) -> List[str]:
    """Check every structural invariant and report all violations at once.

    Returns a sorted list of human-readable reasons; an empty list means
    the network is valid.  Violations are data, not exceptions, so
    sim.Scenario, which calls this on every construction, can name the
    full set in one error.
    """
    problems: List[str] = []
    ids = [b.id for b in net.buses]

    if not net.buses:
        return ["network has no buses"]

    if sorted(ids) != list(range(len(ids))):
        problems.append("bus ids must be exactly 0..n-1 with no gaps or repeats")
    gens = net.generator_ids
    loads = net.load_ids
    if gens and loads and max(gens, default=-1) > min(loads, default=len(ids)):
        problems.append("generator buses must precede load buses in the id order")
    if not gens:
        problems.append("network needs at least one generator bus")

    for b in net.buses:
        if b.kind is BusKind.GENERATOR:
            numbers = (("generator", "inertia", b.inertia, "positive"),
                       ("generator", "damping", b.damping, "nonnegative"))
        else:
            numbers = (("load", "damping", b.damping, "positive"),)
            if b.inertia != 0.0:
                problems.append(f"load bus {b.id} inertia must be zero")
        for kind, name, value, sign in numbers:
            word = _number_fault(value, sign)
            if word:
                problems.append(f"{kind} bus {b.id} {name} must be {word}")

    lines = map(attrgetter("from_bus", "to_bus", "susceptance"), net.lines)
    problems += _graph_faults(lines, ids, "line", "susceptance",
                              "references an unknown bus", "power graph")
    comm = map(attrgetter("a", "b", "weight"), net.comm)
    problems += _graph_faults(comm, gens, "communication edge", "weight",
                              "must join generator buses",
                              "communication graph over generator buses")
    return sorted(problems)
