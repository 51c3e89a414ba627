"""Closed-loop time-domain simulation, equilibria, and Lyapunov monitoring.

The dynamic state is one flat vector: bus angles (bus b at index b),
generator frequencies, generator internal states and power commands, in
the order a StateLayout records.  Load-bus frequencies are not states:
they are the load-bus angle rates, fixed algebraically by the damping
balance at each load bus, which is why load damping must be positive.

Generation blocks, controller and damping are linear; the only
nonlinearity is the line flow b*sin(theta_i - theta_k).  So the whole
closed loop is

    x' = J x + c(t) + S sin(E x)

with J the linear part, c the step loads (zero before the disturbance
time), E the line incidence and S each line's flow carried into the rows
it drives.  assemble() builds these once per scenario; the integrator,
the derived series, the equilibrium and the Lyapunov function all read
them.  Integration is classical fixed-step RK4.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, Mapping, Optional, Tuple

import numpy as np

from . import generation
from .certify import Certificate
from .control import ControllerGains
from .generation import LtiGenerator
from .network import PowerNetwork

NEWTON_TOL = 1e-12
NEWTON_MAX_ITER = 100

#: Allowed positive slack for the Lyapunov monitor: RK4 truncation error
#: accumulates in a quantity the theory only makes non-increasing.
EPSILON_V = 1e-8

#: Slack when comparing sample times against the disturbance time, so that
#: binary rounding of k*dt cannot shift the step by one sample.
_TIME_EPS = 1e-12


@dataclass(frozen=True)
class Scenario:
    """Everything needed for one closed-loop run."""

    network: PowerNetwork
    generators: Mapping[int, LtiGenerator]
    controllers: Mapping[int, ControllerGains]
    disturbance_time: float
    step_loads: Mapping[int, float]
    t_end: float
    dt: float
    output_stride: int = 10
    name: str = field(default="", compare=False)

    def __post_init__(self):
        if not self.dt > 0.0:
            raise ValueError("dt must be positive")
        if not self.disturbance_time < self.t_end:
            raise ValueError("disturbance_time must lie before t_end")
        if self.output_stride < 1:
            raise ValueError("output_stride must be at least 1")
        gens = set(self.network.generator_ids)
        if set(self.generators) != gens or set(self.controllers) != gens:
            raise ValueError("generators and controllers must cover exactly the generator buses")


@dataclass(frozen=True)
class StateLayout:
    """Where each quantity sits in the flat state vector.

    Bus b's angle is at index b.  Generator gen_ids[i] has its frequency
    at n_bus + i, its internal state in the slice x[i] and its command at
    pc.start + i.  labels names every slot.
    """

    n_bus: int
    gen_ids: Tuple[int, ...]
    x: Tuple[slice, ...]
    labels: Tuple[str, ...]

    @property
    def size(self) -> int:
        return len(self.labels)

    @property
    def omega(self) -> slice:
        return slice(self.n_bus, self.n_bus + len(self.gen_ids))

    @property
    def pc(self) -> slice:
        return slice(self.size - len(self.gen_ids), self.size)


def state_layout(scn: Scenario) -> StateLayout:
    """The layout of a scenario's flat state."""
    n_bus = len(scn.network.buses)
    gens = tuple(sorted(scn.network.generator_ids))
    labels = [f"theta_{b}" for b in range(n_bus)] + [f"omega_{g}" for g in gens]
    x = []
    for g in gens:
        order = scn.generators[g].order
        x.append(slice(len(labels), len(labels) + order))
        labels += [f"x_{g}[{i}]" for i in range(order)]
    labels += [f"pc_{g}" for g in gens]
    return StateLayout(n_bus=n_bus, gen_ids=gens, x=tuple(x), labels=tuple(labels))


def _lines(net: PowerNetwork, size: int) -> Tuple[np.ndarray, np.ndarray]:
    """Line incidence E (+1 at the from-bus angle, -1 at the to-bus angle,
    over ``size`` state columns) and the line susceptances."""
    rows = np.arange(len(net.lines))
    e = np.zeros((len(net.lines), size))
    e[rows, np.array([ln.from_bus for ln in net.lines], dtype=int)] = 1.0
    e[rows, np.array([ln.to_bus for ln in net.lines], dtype=int)] = -1.0
    return e, np.array([ln.susceptance for ln in net.lines])


@dataclass(frozen=True, eq=False)
class ClosedLoop:
    """The closed loop x' = J x + c(t) + S sin(E x) of one scenario.

    jac is J.  load is c once the step is on (c is zero before
    load_time).  incidence is E.  spread is S: line l's flow b_l sin((E x)_l) leaves its from-bus and
    enters its to-bus, in the frequency row of a generator bus (divided
    by its inertia) or the angle row of a load bus (divided by its
    damping).  pm_rows maps the state to the generator outputs p_m.
    """

    layout: StateLayout
    jac: np.ndarray
    load: np.ndarray
    load_time: float
    incidence: np.ndarray
    spread: np.ndarray
    pm_rows: np.ndarray

    def loaded(self, t):
        """Whether the step load is on at time t (a scalar or an array)."""
        return np.asarray(t) >= self.load_time - _TIME_EPS

    def derivative(self, x: np.ndarray, t) -> np.ndarray:
        """x' for one state at time t, or for a (samples, states) array at
        the sample times t."""
        return (x @ self.jac.T + np.multiply.outer(self.loaded(t), self.load)
                + np.sin(x @ self.incidence.T) @ self.spread.T)


def assemble(scn: Scenario) -> ClosedLoop:
    """Read every parameter of the dynamics into J, c, E, S and p_m's rows.

    Generator bus g (the i-th generator) contributes, with the input
    u = k_c pc - k_d omega and p_m = C x_g + D u:
      theta_g' = omega,
      M omega' = p_m - step - Lambda_g omega + line inflow,
      x_g'     = A x_g + B u,
      gamma pc' = p_m - K u - k_f omega + sum_j alpha_ij (pc_j - pc_i);
    load bus l contributes  Lambda_l theta_l' = -step + line inflow.
    """
    net = scn.network
    lay = state_layout(scn)
    n, n_bus = lay.size, lay.n_bus
    pc0 = lay.pc.start
    jac = np.zeros((n, n))
    pm_rows = np.zeros((len(lay.gen_ids), n))
    gamma = np.empty(len(lay.gen_ids))
    # The state row a bus's line inflow and step load drive, and what they
    # are divided by there: a load bus's angle row and damping; a generator
    # bus's frequency row and inertia (set in the loop below).
    flow_row = np.arange(n_bus)
    divisor = np.array([b.damping for b in sorted(net.buses, key=lambda b: b.id)])
    for i, g in enumerate(lay.gen_ids):
        gen, prm, bus = scn.generators[g], scn.controllers[g], net.bus(g)
        om, pc, xs = lay.omega.start + i, pc0 + i, lay.x[i]
        u = np.zeros(n)
        u[pc], u[om] = prm.k_c, -prm.k_d
        pm = pm_rows[i]
        pm[xs] = gen.c_vector
        pm += gen.d_scalar * u
        jac[g, om] = 1.0
        jac[om] = pm
        jac[om, om] -= bus.damping
        jac[om] /= bus.inertia
        jac[xs] = np.outer(gen.b_vector, u)
        jac[xs, xs] += np.array(gen.a_matrix)
        jac[pc] = pm - generation.dc_gain(gen) * u
        jac[pc, om] -= prm.k_f
        gamma[i] = prm.gamma
        flow_row[g], divisor[g] = om, bus.inertia
    index = {g: pc0 + i for i, g in enumerate(lay.gen_ids)}
    for e in net.comm:
        a, b = index[e.a], index[e.b]
        jac[[a, b], [b, a]] += e.weight
        jac[[a, b], [a, b]] -= e.weight
    jac[lay.pc] /= gamma[:, None]

    incidence, susceptance = _lines(net, n)
    spread = np.zeros((n, len(net.lines)))
    spread[flow_row] = -(incidence[:, :n_bus].T * susceptance) / divisor[:, None]
    load = np.zeros(n)
    for bus, delta in scn.step_loads.items():
        load[flow_row[bus]] = -delta / divisor[bus]
    return ClosedLoop(layout=lay, jac=jac, load=load,
                      load_time=scn.disturbance_time, incidence=incidence,
                      spread=spread, pm_rows=pm_rows)


@dataclass(frozen=True)
class Equilibrium:
    """Synchronous steady state after the load step.

    All frequencies are zero and every power command equals the common
    value nu.  security_ok records whether every line angle difference
    stays strictly inside (-pi/2, pi/2).
    """

    angles_star: Dict[int, float]
    nu: float
    gen_states_star: Dict[int, Tuple[float, ...]]
    p_m_star: Dict[int, float]
    flows_star: Dict[Tuple[int, int], float]
    security_ok: bool
    max_abs_angle_diff: float


@dataclass(eq=False)
class Trajectory:
    """Sampled run: the states as one (samples, states) array, plus the
    series derived from them.

    freqs has one column per bus (the angle rates: generator frequency or
    algebraic load-bus frequency); p_m and marginal_cost one per
    generator, in layout.gen_ids order.  lyapunov is None unless the run
    had certificates and an equilibrium.
    """

    layout: StateLayout
    times: np.ndarray
    states: np.ndarray
    freqs: np.ndarray
    p_m: np.ndarray
    marginal_cost: np.ndarray
    lyapunov: Optional[np.ndarray]

    @property
    def commands(self) -> np.ndarray:
        return self.states[:, self.layout.pc]


def integrate(scn: Scenario, *, initial_state: Optional[np.ndarray] = None,
              certs: Optional[Mapping[int, Certificate]] = None,
              equilibrium: Optional[Equilibrium] = None) -> Trajectory:
    """Fixed-step RK4 run over [0, t_end] from initial_state (default: the
    all-zero rest state).

    Records the state every output_stride steps (plus the initial and
    final states), then derives the per-bus and per-generator series.  The
    Lyapunov series is filled only when both certificates and an
    equilibrium are supplied.  Bitwise reproducible: no randomness, fixed
    operation order.
    """
    loop = assemble(scn)
    lay = loop.layout
    n = lay.size
    dt = scn.dt
    nsteps = int(round(scn.t_end / dt))
    if abs(nsteps * dt - scn.t_end) > 1e-9 * max(1.0, abs(scn.t_end)):
        raise ValueError("t_end must be an integer multiple of dt")
    stride = scn.output_stride
    recorded = list(range(0, nsteps + 1, stride))
    if recorded[-1] != nsteps:
        recorded.append(nsteps)
    times = np.array(recorded) * dt
    states = np.empty((len(recorded), n))
    load_step = int(np.searchsorted(loop.loaded(np.arange(nsteps) * dt), True))

    # Preallocated buffers keep a slope evaluation to four numpy calls.  With
    # z = [x, 1] the product m @ z is [J x + c, E x]: the constant 1 carries
    # c.  Row 0 of v is [x, 1] and rows 1-4 the stage slopes [k, 0], so each
    # stage input, and the step itself, is one product of RK4 weights with v.
    n_lines = len(loop.incidence)
    m = np.zeros((n + n_lines, n + 1))
    m[:n, :n] = loop.jac
    m[n:, :n] = loop.incidence
    spread = loop.spread
    v = np.zeros((5, n + 1))
    x = v[0]
    if initial_state is not None:
        x[:n] = initial_state
    x[n] = 1.0
    k1, *later = (v[i, :n] for i in range(1, 5))
    y = np.empty(n + n_lines)
    lin, flow = y[:n], y[n:]
    z = np.empty(n + 1)
    stages = [np.array([1.0, dt / 2.0, 0.0, 0.0, 0.0]),
              np.array([1.0, 0.0, dt / 2.0, 0.0, 0.0]),
              np.array([1.0, 0.0, 0.0, dt, 0.0])]
    combine = np.array([1.0, dt / 6.0, dt / 3.0, dt / 3.0, dt / 6.0])

    # positional out arguments: the keyword form costs as much again
    def slope(z, out):
        m.dot(z, y)
        np.sin(flow, flow)
        spread.dot(flow, out)
        np.add(out, lin, out)

    states[0] = x[:n]
    j = 1
    # a diverging state runs to inf/nan: the run stops at the first such
    # sample, and the check after the loop names it
    with np.errstate(over="ignore", invalid="ignore"):
        for k in range(nsteps):
            if k == load_step:
                m[:n, n] = loop.load
            slope(x, k1)
            for weights, out in zip(stages, later):
                weights.dot(v, z)
                slope(z, out)
            combine.dot(v, z)
            x[:] = z
            if k + 1 == recorded[j]:
                states[j] = z[:n]
                j += 1
                if not np.isfinite(z).all():
                    break
    bad = np.argwhere(~np.isfinite(states[:j]))
    if len(bad):
        # by the first bad sample one inf has usually spread to every slot,
        # so name the slot that was largest in the last finite sample
        i, col = bad[0]
        if i > 0:
            col = int(np.argmax(np.abs(states[i - 1])))
        raise ArithmeticError(
            f"non-finite value in {lay.labels[col]} at t={float(times[i])}")

    p_m = states @ loop.pm_rows.T
    cost = np.array([scn.controllers[g].q for g in lay.gen_ids])
    with_v = certs is not None and equilibrium is not None
    return Trajectory(
        layout=lay, times=times, states=states,
        freqs=loop.derivative(states, times)[:, :lay.n_bus],
        p_m=p_m, marginal_cost=p_m * cost,
        lyapunov=lyapunov_value(scn, certs, equilibrium, states) if with_v else None)


def compute_equilibrium(scn: Scenario) -> Equilibrium:
    """Post-step synchronous equilibrium.

    nu = total load / sum_j K_j k_c_j; each generator settles at
    p_m = K k_c nu; the angles solve the lossless flow balance by damped
    Newton iteration with bus 0 pinned as the angle reference.
    """
    net = scn.network
    gens = sorted(net.generator_ids)
    k_eff = {g: generation.dc_gain(scn.generators[g]) * scn.controllers[g].k_c
             for g in gens}
    total_load = sum(scn.step_loads.values())
    nu = total_load / sum(k_eff.values())
    p_m_star = {g: k_eff[g] * nu for g in gens}
    gen_states_star = {
        g: generation.equilibrium_state(scn.generators[g],
                                        scn.controllers[g].k_c * nu)
        for g in gens
    }

    # Power that each bus must push into the network at equilibrium.
    nbus = len(net.buses)
    target = np.zeros(nbus)
    for g in gens:
        target[g] = p_m_star[g]
    for bus, delta in scn.step_loads.items():
        target[bus] -= delta
    e, b = _lines(net, nbus)

    def residual(theta: np.ndarray) -> np.ndarray:
        return target - e.T @ (b * np.sin(e @ theta))

    theta = np.zeros(nbus)
    r = residual(theta)
    for _ in range(NEWTON_MAX_ITER):
        if float(np.max(np.abs(r))) < NEWTON_TOL or nbus == 1:
            break
        jac = -(e.T * (b * np.cos(e @ theta))) @ e
        try:
            step = np.linalg.solve(jac[1:, 1:], r[1:])
        except np.linalg.LinAlgError as exc:
            raise RuntimeError(
                "equilibrium Newton hit a singular Jacobian; "
                "try smaller loads or larger susceptances") from exc
        alpha = 1.0
        best = float(np.max(np.abs(r)))
        while alpha > 1e-6:
            cand = theta.copy()
            cand[1:] -= alpha * step
            rc = residual(cand)
            if float(np.max(np.abs(rc))) < best:
                theta, r = cand, rc
                break
            alpha /= 2.0
        else:
            raise RuntimeError(
                "equilibrium Newton stalled; "
                "try smaller loads or larger susceptances")
    if float(np.max(np.abs(r))) >= NEWTON_TOL:
        raise RuntimeError(
            f"equilibrium Newton did not converge in {NEWTON_MAX_ITER} "
            "iterations; try smaller loads or larger susceptances")

    eta = e @ theta
    flows = b * np.sin(eta)
    max_eta = float(np.max(np.abs(eta), initial=0.0))
    return Equilibrium(
        angles_star={bid: float(theta[bid]) for bid in range(nbus)},
        nu=nu,
        gen_states_star=gen_states_star,
        p_m_star=p_m_star,
        flows_star={(ln.from_bus, ln.to_bus): float(f)
                    for ln, f in zip(net.lines, flows)},
        security_ok=max_eta < math.pi / 2.0,
        max_abs_angle_diff=max_eta,
    )


def equilibrium_system_state(scn: Scenario, eq: Equilibrium) -> np.ndarray:
    """The equilibrium as a flat state (frequencies zero, commands at nu)."""
    lay = state_layout(scn)
    x = np.zeros(lay.size)
    x[:lay.n_bus] = [eq.angles_star[b] for b in range(lay.n_bus)]
    for g, xs in zip(lay.gen_ids, lay.x):
        x[xs] = eq.gen_states_star[g]
    x[lay.pc] = eq.nu
    return x


def lyapunov_value(scn: Scenario, certs: Mapping[int, Certificate],
                   eq: Equilibrium, state: np.ndarray):
    """Energy-style distance of a state from the equilibrium.

    Sum of a kinetic term over generator frequencies, a line potential
    term evaluated in closed form, certificate-weighted quadratic terms on
    generator internal states, and a quadratic term on the power
    commands.  Zero exactly at the equilibrium, positive nearby while the
    security constraint holds.  ``state`` is one flat state (the result
    is a scalar) or a (samples, states) array (one value per sample).
    """
    lay = state_layout(scn)
    weights = np.zeros((lay.size, lay.size))
    for i, g in enumerate(lay.gen_ids):
        if g not in certs:
            raise ValueError(f"missing certificate for generator bus {g}")
        om, pc, xs = lay.omega.start + i, lay.pc.start + i, lay.x[i]
        weights[om, om] = scn.network.bus(g).inertia
        weights[xs, xs] = certs[g].p_matrix.to_array()
        weights[pc, pc] = scn.controllers[g].gamma
    e, b = _lines(scn.network, lay.size)
    x_star = equilibrium_system_state(scn, eq)
    d = state - x_star
    eta_s = x_star @ e.T
    delta = state @ e.T - eta_s
    # cos(eta_s) - cos(eta_s + delta) written as a product of sines, so that
    # rounding cannot leave a first-order term behind when delta is tiny
    potential = (2.0 * np.sin(eta_s + delta / 2.0) * np.sin(delta / 2.0)
                 - np.sin(eta_s) * delta) @ b
    return 0.5 * np.sum((d @ weights) * d, axis=-1) + potential


def dissipation_check(scn: Scenario, certs: Mapping[int, Certificate],
                      eq: Equilibrium, trajectory: Trajectory) -> float:
    """Largest increase of the Lyapunov value between consecutive samples.

    Reads the series the run stored, or evaluates it when the run had no
    certificates.  Theory predicts no increase at all along converging
    trajectories; numerically anything at or below EPSILON_V counts as
    clean.
    """
    values = trajectory.lyapunov
    if values is None:
        values = lyapunov_value(scn, certs, eq, trajectory.states)
    if len(values) < 2:
        return 0.0
    return float(np.max(np.diff(values)))
