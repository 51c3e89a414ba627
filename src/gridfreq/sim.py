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
them.  Integration is classical fixed-step RK4.  Scenarios on one time
grid can be integrated together (integrate_many): uncoupled loops side
by side are one loop with block-diagonal J, E and S, which
integrate_many stacks once and hands to a kernel; packs() cuts a sweep's
scenarios into such unions.  A step runs on one of two kernels, chosen
by the union's size alone.  The dense one fuses the whole RK4 step into
five matrix products and four sines over the line arguments; it runs
loops up to DENSE_ENTRIES matrix entries (the shipped fixtures and every
pack of two or more).  The sparse one evaluates the slope four times
with a gather and a bincount over the nonzeros; it runs larger networks,
whose matrices are almost all zeros.  Across 1.05e5-1.2e5 entries the
two cost the same, about 35 us per step.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

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
        for name in ("dt", "t_end", "disturbance_time"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite, got {getattr(self, name)!r}")
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
    load_time).  incidence is E.  spread is S: line l's flow
    b_l sin((E x)_l) leaves its from-bus and enters its to-bus, in the
    frequency row of a generator bus (divided by its inertia) or the
    angle row of a load bus (divided by its damping).  pm_rows maps the
    state to the generator outputs p_m.
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
    stays strictly inside (-pi/2, pi/2).  equilibrium_system_state
    assembles the full state x* from it.
    """

    angles_star: Dict[int, float]
    nu: float
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
    return integrate_many([scn], initial_states=[initial_state], certs=[certs],
                          equilibria=[equilibrium])[0]


#: Largest closed loop, in entries of its dense kernel matrices (see
#: kernel_entries), that integrate_many runs on the dense kernel; a larger
#: one runs on the sparse kernel.  packs() cuts unions to fit it, so a
#: pack never lands on the sparse side.  A dense step costs nine numpy
#: calls whatever the loop's size, until its products outgrow the per-call
#: overhead and then the cache: the fused matrices grow as the square of
#: the loop, while the sparse step grows with its nonzeros.  Per RK4 step
#: on unions of fixture copies (medians of 25 interleaved rounds, 2 CPUs,
#: python 3.11, numpy 2.4), dense against sparse: 8 two_gen copies (94 632
#: entries) 29.5 against 34.0 us, 3 ring9 copies (104 517) 33.1 against
#: 35.0, 9 two_gen copies (119 745) 35.9 against 34.9, 4 ring9 copies
#: (185 732) 62.3 against 36.3.  The budget sits at that crossover.
DENSE_ENTRIES = 110_000


def kernel_entries(states: int, lines: int) -> int:
    """Entries of the matrices the dense kernel holds for a closed loop
    with N states and L lines: m = [J | c; E], (N+L) x (N+1); the three
    stage matrices, (N+L) x (N+2L) and twice (N+L) x (2N+3L); and the
    final one, N x (5N+5L+1) (see _dense_kernel)."""
    u = states + lines
    return (u * (states + 1) + u * (u + lines) + 2 * u * (2 * u + lines)
            + states * (states + 1 + 4 * u + lines))


def _grid(scn: Scenario) -> tuple:
    """The time grid: scenarios that share it integrate together."""
    return (scn.dt, scn.t_end, scn.output_stride, scn.disturbance_time)


def packs(scns: Sequence[Scenario]) -> List[List[int]]:
    """The indices of scns cut into unions for integrate_many: runs of
    scenarios on one time grid, in order, within DENSE_ENTRIES (a scenario
    over it alone makes a pack of one), grid after grid.  The scenarios
    alone decide the cut, so it is the same on any machine."""
    sizes = [(state_layout(s).size, len(s.network.lines)) for s in scns]
    grids: Dict[tuple, List[List[int]]] = {}
    for i, s in enumerate(scns):
        cut = grids.setdefault(_grid(s), [[]])
        n, lines = map(sum, zip(*[sizes[k] for k in cut[-1] + [i]]))
        if cut[-1] and kernel_entries(n, lines) > DENSE_ENTRIES:
            cut.append([])
        cut[-1].append(i)
    return [pack for cut in grids.values() for pack in cut]


def _block_diag(blocks: Sequence[np.ndarray]) -> np.ndarray:
    if len(blocks) == 1:
        return blocks[0]
    out = np.zeros((sum(b.shape[0] for b in blocks),
                    sum(b.shape[1] for b in blocks)))
    r = c = 0
    for b in blocks:
        out[r:r + b.shape[0], c:c + b.shape[1]] = b
        r, c = r + b.shape[0], c + b.shape[1]
    return out


def _dense_kernel(jac, load, incidence, spread, dt: float, x0: np.ndarray):
    """RK4 on the closed loop x' = J x + c + S sin(E x) as one fused step
    of five dense products and four in-place sines: step() advances the
    state from x0 by dt and returns it (a view that a later step
    overwrites), and load_on() switches the step load c on.

    The step works in the argument space u = m [x; 1] = [J x + c; E x]
    with m = [J | c; E], whose constant column stays zero until
    load_on().  With phi(u) = [u_lin; sin(u_flow)] a stage slope is
    G phi(u) for G = [I | S], so the stage arguments are
    u_i = u_1 + a_i H phi(u_{i-1}) with H = [J; E] G and a_i = dt/2,
    dt/2, dt, and the step is
    x + dt/6 G (phi_1 + 2 phi_2 + 2 phi_3 + phi_4).  A buffer holds
    [x | 1 | phi_3 | sin(u_1 flow) | u_1 | phi_2 | phi_4], so every
    product reads one contiguous slice (phi_1 is u_1's linear part and
    the sines of its flow part); two buffers alternate, so the final
    product writes the next state without overwriting its input.
    """
    n_lines, n = incidence.shape
    nu = n + n_lines
    m = np.zeros((nu, n + 1))
    m[:n, :n] = jac
    m[n:, :n] = incidence
    g = np.hstack([np.eye(n), spread])
    hg = m[:, :n] @ g  # H
    eye = np.eye(nu)

    # buffer offsets of phi_3, sin(u_1 flow), u_1, phi_2 and phi_4
    p3 = n + 1
    s1 = p3 + nu
    u1 = s1 + n_lines
    p2 = u1 + nu
    p4 = p2 + nu
    # u_2 = u_1 + dt/2 H phi_1, from [sin(u_1 flow) | u_1]
    stage2 = np.hstack([dt / 2 * hg[:, n:], eye])
    stage2[:, n_lines:n_lines + n] += dt / 2 * hg[:, :n]
    # u_3 = u_1 + dt/2 H phi_2, from [sin(u_1 flow) | u_1 | phi_2]
    stage3 = np.hstack([np.zeros((nu, n_lines)), eye, dt / 2 * hg])
    # u_4 = u_1 + dt H phi_3, from [phi_3 | sin(u_1 flow) | u_1]
    stage4 = np.hstack([dt * hg, np.zeros((nu, n_lines)), eye])
    # x + dt/6 G (phi_1 + 2 phi_2 + 2 phi_3 + phi_4), from the whole buffer
    final = np.zeros((n, p4 + nu))
    final[:, :n] = np.eye(n)
    final[:, p3:s1] = dt / 3 * g
    final[:, s1:u1] = dt / 6 * spread
    final[:, u1:u1 + n] = dt / 6 * np.eye(n)
    final[:, p2:p4] = dt / 3 * g
    final[:, p4:] = dt / 6 * g

    bufs = np.zeros((2, p4 + nu))
    bufs[:, n] = 1.0
    bufs[0, :n] = x0

    def fused(b, out):
        """One RK4 step from buffer b into out."""
        z, s, u = b[:p3], b[s1:u1], b[u1:p2]
        phi2, phi3, phi4 = b[p2:p4], b[p3:s1], b[p4:]
        into2, into3, into4 = b[s1:p2], b[s1:p4], b[p3:p2]
        flow1, flow2, flow3, flow4 = u[n:], phi2[n:], phi3[n:], phi4[n:]

        # positional out arguments: the keyword form costs as much again
        def step():
            m.dot(z, u)
            np.sin(flow1, s)
            stage2.dot(into2, phi2)
            np.sin(flow2, flow2)
            stage3.dot(into3, phi3)
            np.sin(flow3, flow3)
            stage4.dot(into4, phi4)
            np.sin(flow4, flow4)
            final.dot(b, out)
            return out

        return step

    turns = itertools.cycle([fused(bufs[0], bufs[1, :n]),
                             fused(bufs[1], bufs[0, :n])])

    def step():
        return next(turns)()

    def load_on():
        m[:n, n] = load

    return step, load_on


def _sparse_slope(jac, load, incidence, spread):
    """The slope of the closed loop from the fixed nonzero pattern of
    [J | c; E] and S: slope(z, out) writes x' into out for z = [x, 1],
    with one gather, E x as z[from] - z[to], and one np.bincount that
    sums J x + c and S sin(E x) row by row; load_on() switches the step
    load on.

    The pattern's c entries hold zero until load_on() writes the loads
    into them.
    """
    n_lines, n = incidence.shape
    jac_rows, jac_cols = np.nonzero(jac)
    spread_rows, spread_cols = np.nonzero(spread)
    load_rows = np.flatnonzero(load)
    # the terms are [J | c | S]; every c entry reads the constant z[n] = 1
    rows = np.concatenate([jac_rows, load_rows, spread_rows])
    vals = np.concatenate([jac[jac_rows, jac_cols], np.zeros(len(load_rows)),
                           spread[spread_rows, spread_cols]])
    load_slots = slice(len(jac_rows), len(jac_rows) + len(load_rows))
    # buf is [z at each line's from-bus | z at its to-bus | J and c terms |
    # S terms]: one take fills the first three parts from z, and the last
    # two are the weights that bincount sums
    gather = np.concatenate([np.nonzero(incidence > 0)[1],
                             np.nonzero(incidence < 0)[1], jac_cols,
                             np.full(len(load_rows), n)])
    buf = np.empty(len(gather) + len(spread_cols))
    gathered, spread_terms = buf[:len(gather)], buf[len(gather):]
    head, tail, terms = buf[:n_lines], buf[n_lines:2 * n_lines], buf[2 * n_lines:]
    flow = np.empty(n_lines)

    def slope(z, out):
        z.take(gather, None, gathered, "clip")
        np.subtract(head, tail, flow)
        np.sin(flow, flow)
        flow.take(spread_cols, None, spread_terms, "clip")
        np.multiply(terms, vals, terms)
        out[:] = np.bincount(rows, terms, n)

    def load_on():
        vals[load_slots] = load[load_rows]

    return slope, load_on


def _sparse_kernel(jac, load, incidence, spread, dt: float, x0: np.ndarray):
    """The same step and load switch as _dense_kernel, as four evaluations
    of _sparse_slope: step() returns the new state (a view that the next
    step overwrites)."""
    slope, load_on = _sparse_slope(jac, load, incidence, spread)
    n = len(x0)
    # Row 0 of v is [x, 1] and rows 1-4 the stage slopes [k, 0], so each
    # stage input, and the step itself, is one product of RK4 weights with v.
    v = np.zeros((5, n + 1))
    x = v[0]
    x[:n], x[n] = x0, 1.0
    state = x[:n]
    k1, *later = (v[i, :n] for i in range(1, 5))
    z = np.empty(n + 1)
    stages = [np.array([1.0, dt / 2.0, 0.0, 0.0, 0.0]),
              np.array([1.0, 0.0, dt / 2.0, 0.0, 0.0]),
              np.array([1.0, 0.0, 0.0, dt, 0.0])]
    combine = np.array([1.0, dt / 6.0, dt / 3.0, dt / 3.0, dt / 6.0])

    def step():
        slope(x, k1)
        for weights, out in zip(stages, later):
            weights.dot(v, z)
            slope(z, out)
        combine.dot(v, z)
        x[:] = z
        return state

    return step, load_on


def integrate_many(scns: Sequence[Scenario], *,
                   initial_states: Optional[Sequence[Optional[np.ndarray]]] = None,
                   certs: Optional[Sequence[Optional[Mapping[int, Certificate]]]] = None,
                   equilibria: Optional[Sequence[Optional[Equilibrium]]] = None,
                   ) -> List[Trajectory]:
    """integrate() for several scenarios on one time grid, as one run.

    Uncoupled closed loops taken together are one closed loop whose J, E
    and S are block-diagonal and whose c is the concatenation, so one RK4
    kernel advances them all with one numpy call per product.  The
    optional sequences hold one entry per scenario.  A single scenario
    runs on its own matrices and is bitwise what integrate() gives; in a
    union the block products sum in another order, so a member may
    differ from its lone run in the last digits.  The union runs on the
    dense kernel while kernel_entries() stays within DENSE_ENTRIES and on
    the sparse kernel above it; the two differ in the last digits too.
    The union is stacked densely, so one above the budget is held dense
    while the sparse kernel reads its nonzeros; packs() never forms one.
    A non-finite sample raises ArithmeticError; in a union it may have
    spread to every member.
    """
    scn = scns[0]
    if any(_grid(s) != _grid(scn) for s in scns):
        raise ValueError("integrate_many needs one time grid: dt, t_end, "
                         "output_stride and disturbance_time must agree")
    loops = [assemble(s) for s in scns]
    nones = [None] * len(scns)
    initial_states = initial_states or nones
    certs = certs or nones
    equilibria = equilibria or nones
    jac = _block_diag([loop.jac for loop in loops])
    load = np.concatenate([loop.load for loop in loops])
    incidence = _block_diag([loop.incidence for loop in loops])
    spread = _block_diag([loop.spread for loop in loops])
    n_lines, n = incidence.shape
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
    load_step = int(np.searchsorted(loops[0].loaded(np.arange(nsteps) * dt), True))

    kernel = (_dense_kernel if kernel_entries(n, n_lines) <= DENSE_ENTRIES
              else _sparse_kernel)
    members = np.split(states, np.cumsum([loop.layout.size for loop in loops])[:-1],
                       axis=1)
    states[0] = 0.0
    for own, x0 in zip(members, initial_states):
        if x0 is not None:
            own[0] = x0
    step, load_on = kernel(jac, load, incidence, spread, dt, states[0])

    j = 1
    # a diverging state runs to inf/nan: the run stops at the first such
    # sample, and the check after the loop names it
    with np.errstate(over="ignore", invalid="ignore"):
        for k in range(nsteps):
            if k == load_step:
                load_on()
            x = step()
            if k + 1 == recorded[j]:
                states[j] = x
                j += 1
                if not np.isfinite(x).all():
                    break
    bad = np.argwhere(~np.isfinite(states[:j]))
    if len(bad):
        # by the first bad sample one inf has usually spread to every slot,
        # so name the slot that was largest in the last finite sample
        i, col = bad[0]
        if i > 0:
            col = int(np.argmax(np.abs(states[i - 1])))
        labels = [f"{label} of member {m}" if len(loops) > 1 else label
                  for m, loop in enumerate(loops) for label in loop.layout.labels]
        raise ArithmeticError(f"non-finite value in {labels[col]} at t={float(times[i])}")

    out = []
    for loop, s, own, cert, eq in zip(loops, scns, members, certs, equilibria):
        lay = loop.layout
        p_m = own @ loop.pm_rows.T
        cost = np.array([s.controllers[g].q for g in lay.gen_ids])
        with_v = cert is not None and eq is not None
        out.append(Trajectory(
            layout=lay, times=times, states=own,
            freqs=loop.derivative(own, times)[:, :lay.n_bus].copy(),
            p_m=p_m, marginal_cost=p_m * cost,
            lyapunov=lyapunov_value(s, cert, eq, own) if with_v else None))
    return out


def transient_angle_peak(scn: Scenario, traj: Trajectory) -> Tuple[float, float]:
    """Largest |theta_i - theta_k| over the lines and the recorded samples,
    and the first sample time where it occurs."""
    e, _ = _lines(scn.network, traj.layout.n_bus)
    peak = np.max(np.abs(traj.states[:, :traj.layout.n_bus] @ e.T), axis=1,
                  initial=0.0)
    i = int(np.argmax(peak))
    return float(peak[i]), float(traj.times[i])


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

    # Power that each bus must push into the network at equilibrium.
    nbus = len(net.buses)
    target = np.zeros(nbus)
    for g in gens:
        target[g] = k_eff[g] * nu
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
        flows_star={(ln.from_bus, ln.to_bus): float(f)
                    for ln, f in zip(net.lines, flows)},
        security_ok=max_eta < math.pi / 2.0,
        max_abs_angle_diff=max_eta,
    )


def equilibrium_system_state(scn: Scenario, eq: Equilibrium) -> np.ndarray:
    """The equilibrium as a flat state x*: the angles, zero frequencies,
    each generator block at rest under its input k_c nu, and every command
    at nu."""
    lay = state_layout(scn)
    x = np.zeros(lay.size)
    x[:lay.n_bus] = [eq.angles_star[b] for b in range(lay.n_bus)]
    for g, xs in zip(lay.gen_ids, lay.x):
        x[xs] = generation.equilibrium_state(scn.generators[g],
                                             scn.controllers[g].k_c * eq.nu)
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
