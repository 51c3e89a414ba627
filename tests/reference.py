"""Physics references written apart from the program.

The scalar ones stand apart from the closed loop that sim.assemble
builds, so tests can check the program's matrices against them term by
term.  The dense ones evaluate the closed loop's series as whole-matrix
products, where the program sums over the nonzeros alone.
"""

import math

import numpy as np

from gridfreq import sim


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


def derivative(loop, x, t):
    """x' of a sim.ClosedLoop for one state at time t, or for a (samples,
    states) array at the sample times t."""
    return (x @ loop.jac.T + np.multiply.outer(loop.loaded(t), loop.load)
            + np.sin(x @ loop.incidence.T) @ loop.spread.T)


def series(scn, traj):
    """A trajectory's bus frequencies and generator outputs p_m."""
    loop = sim.assemble(scn)
    return (derivative(loop, traj.states, traj.times)[:, :loop.layout.n_bus],
            traj.states @ loop.pm_rows.T)


def angle_peak(scn, traj):
    """transient_angle_peak: the largest line angle difference over the
    samples, and the first time it occurs."""
    e, _ = sim._lines(scn.network, traj.layout.n_bus)
    peak = np.max(np.abs(traj.states[:, :traj.layout.n_bus] @ e.T), axis=1,
                  initial=0.0)
    i = int(np.argmax(peak))
    return float(peak[i]), float(traj.times[i])


def lyapunov(scn, certs, eq, state):
    """lyapunov_value: the energy-style distance of each state from the
    equilibrium, with its quadratic form and line incidence dense."""
    lay = sim.state_layout(scn)
    weights = np.zeros((lay.size, lay.size))
    for i, g in enumerate(lay.gen_ids):
        om, pc, xs = lay.omega.start + i, lay.pc.start + i, lay.x[i]
        weights[om, om] = scn.network.bus(g).inertia
        weights[xs, xs] = certs[g].p_matrix.to_array()
        weights[pc, pc] = scn.controllers[g].gamma
    e, b = sim._lines(scn.network, lay.size)
    x_star = sim.equilibrium_system_state(scn, eq)
    d = state - x_star
    eta_s = x_star @ e.T
    delta = state @ e.T - eta_s
    potential = (2.0 * np.sin(eta_s + delta / 2.0) * np.sin(delta / 2.0)
                 - np.sin(eta_s) * delta) @ b
    return 0.5 * np.sum((d @ weights) * d, axis=-1) + potential
