"""Seeded ring-with-chords networks: closed loops large enough to leave the
dense kernel's budget, built from the public scenario types.

Generator buses come first.  One ring runs through every bus in a seeded
order, so generators and loads interleave along it, and chords join buses
at least three ring hops apart.  The generators alternate first-order
lags and second-order turbine-governor cascades; the communication graph
is a ring over the generators plus a chord from every second one to the
one seven places on, each pair joined once.  Gains are cost-optimal
(k_c = 1/(q K)) with k_d below k_c, which keeps every closed-form damping
threshold under the generator damping, so every generator certifies
analytically.  with_generic_blocks swaps some of the blocks for ones
with feedthrough and a dense A, outside the worked shapes.
"""

import dataclasses

import numpy as np

from gridfreq.control import ControllerGains
from gridfreq.generation import LtiGenerator, make_first_order, make_second_order
from gridfreq.network import Bus, BusKind, CommEdge, Line, PowerNetwork
from gridfreq.sim import Scenario


def ring_with_chords(seed: int, buses: int = 100, generators: int = 25,
                     chords: int = 30) -> Scenario:
    """A connected network of ``buses`` buses, ``generators`` of them
    generators, with a ring plus ``chords`` chords, and a small step load
    at every load bus at t = 1 s."""
    rng = np.random.default_rng(seed)

    def u(lo, hi):
        return float(rng.uniform(lo, hi))

    bus_list = [Bus(id=g, kind=BusKind.GENERATOR, inertia=u(1.0, 2.0),
                    damping=u(1.0, 1.5)) for g in range(generators)]
    bus_list += [Bus(id=b, kind=BusKind.LOAD, damping=u(0.3, 0.5))
                 for b in range(generators, buses)]

    ring = [int(b) for b in rng.permutation(buses)]
    place = {b: k for k, b in enumerate(ring)}
    lines = [Line(a, b, u(4.0, 8.0)) for a, b in zip(ring, ring[1:] + ring[:1])]
    joined = {frozenset((ln.from_bus, ln.to_bus)) for ln in lines}
    while len(lines) < buses + chords:
        a, b = (int(v) for v in rng.choice(buses, size=2, replace=False))
        hops = abs(place[a] - place[b])
        if min(hops, buses - hops) >= 3 and frozenset((a, b)) not in joined:
            joined.add(frozenset((a, b)))
            lines.append(Line(a, b, u(2.0, 4.0)))

    # an edge that repeats a pair or joins a generator to itself draws its
    # weight but is left out: the ring meets itself with one or two
    # generators, and a chord wraps onto the ring with 2, 3, 4, 6 or 8 (7
    # is +-1 modulo these) and onto its own generator with 7
    comm, linked = [], set()
    for a, b in ([(g, (g + 1) % generators) for g in range(generators)]
                 + [(g, (g + 7) % generators) for g in range(0, generators, 2)]):
        weight = u(1.5, 3.0)
        if a != b and frozenset((a, b)) not in linked:
            linked.add(frozenset((a, b)))
            comm.append(CommEdge(a, b, weight))

    gens, controllers = {}, {}
    for g in range(generators):
        k = u(0.8, 1.2)
        gens[g] = (make_first_order(tau=u(0.3, 0.6), k=k) if g % 2 == 0 else
                   make_second_order(tau_a=u(0.25, 0.4), tau_p=u(0.8, 1.4), k=k))
        q = u(1.0, 3.0)
        k_c = 1.0 / (q * k)
        controllers[g] = ControllerGains(gamma=0.3, k_f=k * k_c, k_c=k_c,
                                         k_d=u(0.6, 1.0) * k_c, q=q)

    loads = {b: u(0.002, 0.006) for b in range(generators, buses)}
    return Scenario(network=PowerNetwork(bus_list, lines, comm),
                    generators=gens, controllers=controllers,
                    disturbance_time=1.0, step_loads=loads, t_end=10.0,
                    dt=0.01, output_stride=10, name=f"ring_with_chords_{seed}")


def with_generic_blocks(scn: Scenario, seed: int) -> Scenario:
    """The scenario with every third generator's block (from the first)
    replaced by a seeded third-order block outside the worked shapes: a
    dense A holding zero entries (Hurwitz by diagonal dominance), B and C
    each with a zero entry and a feedthrough D of -0.3 or 0.7; and the
    second generator bus with damping 0."""
    rng = np.random.default_rng(seed)
    gens = dict(scn.generators)
    for k, g in enumerate(sorted(gens)[::3]):
        off = rng.uniform(-0.5, 0.5, size=(3, 3)) * (rng.random((3, 3)) < 0.6)
        np.fill_diagonal(off, 0.0)
        a = off - np.diag(np.abs(off).sum(axis=1) + rng.uniform(0.5, 2.0, 3))
        b, c = rng.uniform(0.2, 1.0, 3), rng.uniform(0.2, 1.0, 3)
        b[k % 3], c[(k + 1) % 3] = 0.0, 0.0
        gens[g] = LtiGenerator(a_matrix=tuple(map(tuple, a.tolist())),
                               b_vector=tuple(b.tolist()),
                               c_vector=tuple(c.tolist()),
                               d_scalar=(-0.3, 0.7)[k % 2], order=3)
    second = sorted(gens)[1]
    buses = [dataclasses.replace(b, damping=0.0) if b.id == second else b
             for b in scn.network.buses]
    net = PowerNetwork(buses, scn.network.lines, scn.network.comm)
    return dataclasses.replace(scn, network=net, generators=gens,
                               name=f"{scn.name}_generic")
