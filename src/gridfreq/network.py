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
from typing import Dict, List, Sequence, Tuple


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

    @property
    def generator_ids(self) -> List[int]:
        return [b.id for b in self.buses if b.kind is BusKind.GENERATOR]

    @property
    def load_ids(self) -> List[int]:
        return [b.id for b in self.buses if b.kind is BusKind.LOAD]

    def bus(self, bus_id: int) -> Bus:
        for b in self.buses:
            if b.id == bus_id:
                return b
        raise KeyError(f"no bus with id {bus_id}")


def _connected(node_ids: Sequence[int], edges: Sequence[Tuple[int, int]]) -> bool:
    if not node_ids:
        return False
    adj: Dict[int, List[int]] = {n: [] for n in node_ids}
    for a, b in edges:
        if a in adj and b in adj:
            adj[a].append(b)
            adj[b].append(a)
    seen = {node_ids[0]}
    stack = [node_ids[0]]
    while stack:
        for nb in adj[stack.pop()]:
            if nb not in seen:
                seen.add(nb)
                stack.append(nb)
    return len(seen) == len(node_ids)


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
            if not b.inertia > 0.0:
                problems.append(f"generator bus {b.id} inertia must be positive")
            elif not math.isfinite(b.inertia):
                problems.append(f"generator bus {b.id} inertia must be finite")
            if b.damping < 0.0:
                problems.append(f"generator bus {b.id} damping must be nonnegative")
            elif not math.isfinite(b.damping):
                problems.append(f"generator bus {b.id} damping must be finite")
        else:
            if not b.damping > 0.0:
                problems.append(f"load bus {b.id} damping must be positive")
            elif not math.isfinite(b.damping):
                problems.append(f"load bus {b.id} damping must be finite")
            if b.inertia != 0.0:
                problems.append(f"load bus {b.id} inertia must be zero")

    id_set = set(ids)
    seen_pairs = set()
    for ln in net.lines:
        if ln.from_bus == ln.to_bus:
            problems.append(f"line {ln.from_bus}-{ln.to_bus} is a self-loop")
        if ln.from_bus not in id_set or ln.to_bus not in id_set:
            problems.append(f"line {ln.from_bus}-{ln.to_bus} references an unknown bus")
        if not ln.susceptance > 0.0:
            problems.append(f"line {ln.from_bus}-{ln.to_bus} susceptance must be positive")
        elif not math.isfinite(ln.susceptance):
            problems.append(f"line {ln.from_bus}-{ln.to_bus} susceptance must be finite")
        key = frozenset((ln.from_bus, ln.to_bus))
        if key in seen_pairs:
            problems.append(f"line {ln.from_bus}-{ln.to_bus} duplicates an existing line")
        seen_pairs.add(key)

    gen_set = set(gens)
    seen_edges = set()
    for e in net.comm:
        if e.a not in gen_set or e.b not in gen_set:
            problems.append(f"communication edge {e.a}-{e.b} must join generator buses")
        if e.a == e.b:
            problems.append(f"communication edge {e.a}-{e.b} is a self-loop")
        if not e.weight > 0.0:
            problems.append(f"communication edge {e.a}-{e.b} weight must be positive")
        elif not math.isfinite(e.weight):
            problems.append(f"communication edge {e.a}-{e.b} weight must be finite")
        key = frozenset((e.a, e.b))
        if key in seen_edges:
            problems.append(f"communication edge {e.a}-{e.b} duplicates an existing edge")
        seen_edges.add(key)

    if not _connected(ids, [(ln.from_bus, ln.to_bus) for ln in net.lines]):
        problems.append("power graph is not connected")
    if gens and not _connected(gens, [(e.a, e.b) for e in net.comm]):
        problems.append("communication graph over generator buses is not connected")

    return sorted(problems)

