"""Scalar physics references, written apart from the closed loop that
sim.assemble builds, so tests can check the program's matrices against
them term by term."""

import math


def net_injection(net, bus, angles):
    """Net line power flowing into ``bus`` for the angles (a mapping from
    bus id): b sin(theta_from - theta_to) in at the to-bus, out at the
    from-bus, summed over the incident lines."""
    total = 0.0
    for ln in net.lines:
        flow = ln.susceptance * math.sin(angles[ln.from_bus] - angles[ln.to_bus])
        if ln.to_bus == bus:
            total += flow
        elif ln.from_bus == bus:
            total -= flow
    return total


def output(gen, state, u):
    """A generation block's mechanical power C state + D u."""
    acc = gen.d_scalar * u
    for c, x in zip(gen.c_vector, state):
        acc += c * x
    return acc
