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
it drives.  assemble() builds these once per scenario and is the only
code that knows their form (ClosedLoop): J and p_m's rows as their
nonzeros, written entry by entry from the equations with no matrix
behind them, E as each line's two ends and S as each line's two rows and
values, so a loop grows with its nonzeros, not with the square of the
network.  One helper, _row_major, puts every set of (row, col, value)
triplets here (J, p_m's rows, S's bus rows, the Lyapunov weights) in
np.nonzero's row-major order, which fixes the order of every sum over
them.  The run computes the Lyapunov series from a trajectory's
states (lyapunov_value), not the integrator.  Integration is classical
fixed-step RK4.  Scenarios on one time grid can be integrated together
(integrate_many): uncoupled loops side by side are one loop (_union),
each member's indices shifted past the members before it; packs() cuts
a sweep's scenarios into such unions, each within PACK_ENTRIES and of
balanced member counts, so that the packs of one sweep run side by side
on the CPUs a sweep's pool has.  A step runs on one of two kernels,
chosen by the union's size alone, and advances a block of steps per
call: one call runs from the load step or a recorded sample to the next.
The run checks its recorded states for inf and nan once per sample
block (_sample_blocks, below), after the block's last sample, not once
per sample.  A run from the all-zero rest state starts the kernel at the
load step: with the load off, every earlier step leaves x at exactly
+0.0, so those steps are skipped, not approximated.  The dense kernel
writes every RK4 stage as linear in x, the constant 1 and the stages'
line sines, so a step is three products of L rows for the stage line
arguments, one product for the state's increment and the next step's
line arguments, four sines and one add; it runs loops up to
DENSE_ENTRIES matrix entries (the shipped fixtures and every pack of two
or more).  The sparse one evaluates the slope four times with a gather
and a bincount over the nonzeros; it runs larger networks.  Around 1.2e5
entries the two cost the same, about 20 us per step.

The series derived from the recorded states (bus frequencies, p_m, the
Lyapunov value, the transient angle peak) are computed over blocks of
about SAMPLE_BLOCK samples (_sample_blocks), so no temporary is larger
than a block times the nonzeros or lines it reads, and a run's memory
grows with its recorded states.  Each sample's terms are added in the
same order in any block, so the series are bitwise the whole-array ones.

A run stays on one core.  The derived series are summed over nonzeros
and line ends, and the dense kernel builds its matrices from them,
because a dense matrix product wakes the BLAS thread pool, which then
spins on a second core after the call returns; the dense step's
matrix-vector products run on one thread.  The equilibrium's Newton
steps solve by conjugate gradients from the line ends
(_solve_laplacian), since LAPACK's solvers wake that pool from about
100 buses.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from itertools import repeat
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from . import generation
from .certify import Certificate
from .control import ControllerGains
from .generation import LtiGenerator
from .network import PowerNetwork, validate

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
    """Everything needed for one closed-loop run, valid by construction:
    __post_init__ raises ValueError naming every problem it finds."""

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
        problems = validate(self.network)
        known = {b.id for b in self.network.buses}
        problems += [f"generator record references unknown bus {bus}"
                     for bus in self.generators if bus not in known]
        problems += [f"disturbance record references unknown bus {bus}"
                     for bus in self.step_loads if bus not in known]
        problems += [f"step load at bus {bus} must be finite"
                     for bus, delta in self.step_loads.items()
                     if not math.isfinite(delta)]
        gens = set(self.network.generator_ids)
        if set(self.generators) != gens:
            problems.append("every generator bus needs exactly one [generators] record")
        if set(self.controllers) != gens:
            problems.append("every generator bus needs exactly one [controllers] record")
        if problems:
            raise ValueError("invalid scenario: " + "; ".join(sorted(problems)))
        for name in ("dt", "t_end", "disturbance_time"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite, got {getattr(self, name)!r}")
        if not self.dt > 0.0:
            raise ValueError("dt must be positive")
        if self.t_end < 0.0:
            raise ValueError("t_end must not be negative")
        if not self.disturbance_time < self.t_end:
            raise ValueError("disturbance_time must lie before t_end")
        if abs(self.steps * self.dt - self.t_end) > 1e-9 * max(1.0, abs(self.t_end)):
            raise ValueError("t_end must be an integer multiple of dt")
        if self.output_stride < 1:
            raise ValueError("output_stride must be at least 1")

    @property
    def steps(self) -> int:
        """The number of RK4 steps from 0 to t_end."""
        return int(round(self.t_end / self.dt))


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


def _line_ends(net: PowerNetwork) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Each line's from-bus, its to-bus and its susceptance."""
    return (np.array([ln.from_bus for ln in net.lines], dtype=int),
            np.array([ln.to_bus for ln in net.lines], dtype=int),
            np.array([ln.susceptance for ln in net.lines]))


@dataclass(frozen=True, eq=False)
class ClosedLoop:
    """The closed loop x' = J x + c(t) + S sin(E x) of one scenario (with
    no layout, of a union of loops: _union), held as its nonzeros.

    jac is J and pm_rows the map from the state to the generator outputs
    p_m, each as (rows, cols, values) in np.nonzero's row-major order.
    load is c once the step is on (c is zero before load_time).  ends is
    E as each line's from-bus and to-bus: (E x)_l = x[from_l] - x[to_l].
    spread is S as (rows, values), each (2, lines): line l's flow
    b_l sin((E x)_l) leaves its from-bus's row rows[0, l] with -b_l/d < 0
    and enters its to-bus's row rows[1, l] with b_l/d > 0, the frequency
    row of a generator bus (d its inertia) or the angle row of a load bus
    (d its damping).
    """

    layout: Optional[StateLayout]
    jac: Tuple[np.ndarray, np.ndarray, np.ndarray]
    load: np.ndarray
    load_time: float
    ends: Tuple[np.ndarray, np.ndarray]
    spread: Tuple[np.ndarray, np.ndarray]
    pm_rows: Tuple[np.ndarray, np.ndarray, np.ndarray]

    def loaded(self, t):
        """Whether the step load is on at time t (a scalar or an array)."""
        return np.asarray(t) >= self.load_time - _TIME_EPS


def _row_major(rows, cols, vals) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Triplets (rows, cols, values) of distinct entries with the exact
    zeros dropped, sorted by row, then column: the order in which
    np.nonzero finds the nonzeros of the matrix they make."""
    rows, cols = np.asarray(rows, dtype=np.intp), np.asarray(cols, dtype=np.intp)
    vals = np.asarray(vals, dtype=float)
    at = np.flatnonzero(vals)
    at = at[np.lexsort((cols[at], rows[at]))]
    return rows[at], cols[at], vals[at]


def assemble(scn: Scenario) -> ClosedLoop:
    """Read every parameter of the dynamics into J, c, E, S and p_m's rows.

    Generator bus g (the i-th generator) contributes, with the input
    u = k_c pc - k_d omega and p_m = C x_g + D u:
      theta_g' = omega,
      M omega' = p_m - step - Lambda_g omega + line inflow,
      x_g'     = A x_g + B u,
      gamma pc' = p_m - K u - k_f omega + sum_j alpha_ij (pc_j - pc_i);
    load bus l contributes  Lambda_l theta_l' = -step + line inflow.

    J is written entry by entry from these, each row over the columns
    [omega, x_g, pc] of its own generator (K its DC gain), in this order
    of operations:
      angle row:      J[g, omega] = 1;
      frequency row:  [(D (-k_d) - Lambda_g)/M, C/M, D k_c/M];
      block row r:    [B_r (-k_d), A_r, B_r k_c];
      command row:    [(D (-k_d) - K (-k_d) - k_f)/gamma, C/gamma,
                       (D k_c - K k_c - alpha_1 - alpha_2 ...)/gamma],
    then alpha_j/gamma at each comm neighbour j's command, the weights
    taken in net.comm order.  p_m's row is [D (-k_d), C, D k_c].
    """
    net = scn.network
    lay = state_layout(scn)
    n, n_bus = lay.size, lay.n_bus
    pc = {g: lay.pc.start + i for i, g in enumerate(lay.gen_ids)}
    # each generator's comm neighbours, as (their command, weight)
    comm: Dict[int, list] = {g: [] for g in lay.gen_ids}
    for e in net.comm:
        comm[e.a].append((pc[e.b], e.weight))
        comm[e.b].append((pc[e.a], e.weight))
    jac, pm_rows = [], []  # (row, col, value) triplets
    # The state row a bus's line inflow and step load drive, and what they
    # are divided by there: a load bus's angle row and damping; a generator
    # bus's frequency row and inertia (set in the loop below).
    flow_row = np.arange(n_bus)
    divisor = np.array([b.damping for b in sorted(net.buses, key=lambda b: b.id)])
    for i, g in enumerate(lay.gen_ids):
        gen, prm, bus = scn.generators[g], scn.controllers[g], net.bus(g)
        om, xs = lay.omega.start + i, lay.x[i]
        d, k, k_c, k_d, m, gm = (gen.d_scalar, gen.dc_gain, prm.k_c, prm.k_d,
                                 bus.inertia, prm.gamma)
        own = [om, *range(xs.start, xs.stop), pc[g]]
        pm_rows += zip(repeat(i), own, [d * -k_d, *gen.c_vector, d * k_c])
        jac.append((g, om, 1.0))
        jac += zip(repeat(om), own, [(d * -k_d - bus.damping) / m,
                                     *(c / m for c in gen.c_vector), d * k_c / m])
        for r, (a_row, b_r) in enumerate(zip(gen.a_matrix, gen.b_vector)):
            jac += zip(repeat(xs.start + r), own, [b_r * -k_d, *a_row, b_r * k_c])
        diagonal = d * k_c - k * k_c
        for _, w in comm[g]:
            diagonal -= w
        jac += zip(repeat(pc[g]), own + [j for j, _ in comm[g]],
                   [(d * -k_d - k * -k_d - prm.k_f) / gm, *(c / gm for c in gen.c_vector),
                    diagonal / gm, *(w / gm for _, w in comm[g])])
        flow_row[g], divisor[g] = om, m

    frm, to, b = _line_ends(net)
    load = np.zeros(n)
    for bus, delta in scn.step_loads.items():
        load[flow_row[bus]] = -delta / divisor[bus]
    return ClosedLoop(layout=lay, jac=_row_major(*zip(*jac)), load=load,
                      load_time=scn.disturbance_time, ends=(frm, to),
                      spread=(np.array([flow_row[frm], flow_row[to]]),
                              np.array([-b / divisor[frm], b / divisor[to]])),
                      pm_rows=_row_major(*zip(*pm_rows)))


@dataclass(frozen=True)
class Equilibrium:
    """Synchronous steady state after the load step.

    All frequencies are zero and every power command equals the common
    value nu.  max_abs_angle_diff is the largest line angle difference
    |eta*|, which security needs strictly inside (-pi/2, pi/2).
    equilibrium_system_state assembles the full state x* from it.
    """

    angles_star: Dict[int, float]
    nu: float
    flows_star: Dict[Tuple[int, int], float]
    max_abs_angle_diff: float


@dataclass(eq=False)
class Trajectory:
    """Sampled run: the states as one (samples, states) array, plus the
    series derived from them.

    freqs has one column per bus (the angle rates: generator frequency or
    algebraic load-bus frequency); p_m and marginal_cost one per
    generator, in layout.gen_ids order.  No Lyapunov series: the run
    computes that from states (lyapunov_value) when it has certificates.
    """

    layout: StateLayout
    times: np.ndarray
    states: np.ndarray
    freqs: np.ndarray
    p_m: np.ndarray
    marginal_cost: np.ndarray

    @property
    def commands(self) -> np.ndarray:
        return self.states[:, self.layout.pc]


def integrate(scn: Scenario, *, initial_state: Optional[np.ndarray] = None
              ) -> Trajectory:
    """Fixed-step RK4 run over [0, t_end] from initial_state (default: the
    all-zero rest state).

    Records the state every output_stride steps (plus the initial and
    final states), then derives the per-bus and per-generator series.  It
    computes no Lyapunov series: the run does, from the states, with
    lyapunov_value.  Bitwise reproducible: no randomness, fixed operation
    order.
    """
    return integrate_many([scn], initial_states=[initial_state])[0]


#: Largest closed loop, in entries of its dense kernel matrices (see
#: kernel_entries), that integrate_many runs on the dense kernel; a larger
#: one runs on the sparse kernel.  A dense step costs nine numpy calls
#: whatever the loop's size, until its products outgrow the per-call
#: overhead and then the cache: the matrices grow as the square of the
#: loop, while the sparse step grows with its nonzeros.  Per RK4 step
#: (medians of 15 interleaved rounds of 2 000 steps, two runs, 2 CPUs,
#: python 3.11, numpy 2.4, every timed block at 1.00 CPU s per wall s),
#: dense against sparse: 17 two_gen copies (112 200 entries) 18.6-21.8
#: against 20.4-22.9 us, a 56-bus mesh (119 210) 19.4-22.2 against
#: 18.6-21.9, 18 two_gen copies (125 766) 23.2-24.0 against 22.5-24.5,
#: 6 ring9 copies (135 870) 24.4-27.2 against 21.1-26.1, 7 ring9 copies
#: (184 856) 32.8-37.9 against 23.8-24.4.  The limit sits just below
#: that crossover.
DENSE_ENTRIES = 115_000

#: Largest union, in kernel entries, that packs() forms from two or more
#: scenarios.  A member costs less the more members share a step, down
#: to about 1 us at 7 or 8 two_gen members; beyond that the step grows
#: about as fast as its members, and from about 6e4 entries faster.  Per
#: RK4 step of a dense union of fixture copies (medians of 15 interleaved
#: rounds of 2 000 steps, two runs, one BLAS thread, 2 CPUs, python 3.11,
#: numpy 2.4), in us per step and per member:
#:
#:   two_gen  members  entries   per step     per member
#:            1            408    3.4-4.7     3.4-4.7
#:            2          1 590    3.7-4.6     1.8-2.3
#:            4          6 276    4.5-4.8     1.1-1.2
#:            5          9 780    5.2-5.7     1.0-1.1
#:            6         14 058    6.0-6.5     1.0-1.1
#:            7         19 110    6.4-7.1     0.9-1.0
#:            8         24 936    7.3-7.9     0.9-1.0
#:           10         38 910    9.9-11.7    1.0-1.2
#:           12         55 980   12.7-13.0    1.1
#:           16         99 408   18.2-19.3    1.1-1.2
#:   ring9    1          3 830    4.4-5.4     4.4-5.4
#:            2         15 186    6.5-6.6     3.3
#:            3         34 068    9.1-10.0    3.0-3.3
#:            4         60 476   13.0-15.3    3.3-3.8
#:
#: 2**14 holds up to 6 two_gen members or 2 ring9 members, as the
#: previous step's budget did, so sweeps pack as before, and the smaller
#: packs of a sweep run side by side in its pool (cli.run_sweep): eight
#: two_gen values are two packs of four, 4.5-4.8 us per step each on two
#: CPUs, against 7.3-7.9 us as one pack of eight.  Per member, the cost
#: is least at about 7 or 8 two_gen or 2 or 3 ring9 members; a budget
#: there would save CPU time on one CPU but make those eight values one
#: pack.  It stays within DENSE_ENTRIES, so a pack never lands on the
#: sparse kernel.
PACK_ENTRIES = 2 ** 14


def kernel_entries(states: int, lines: int) -> int:
    """Entries of the matrices the dense kernel holds for a closed loop
    with N states and L lines: the three stage matrices, L x (N+1+L),
    L x (N+1+2L) and L x (N+1+3L), and the final one, (N+L) x (N+1+4L)
    (see _dense_kernel)."""
    head = states + 1
    return (lines * (3 * head + 6 * lines)
            + (states + lines) * (head + 4 * lines))


def _grid(scn: Scenario) -> tuple:
    """The time grid: scenarios that share it integrate together."""
    return (scn.dt, scn.t_end, scn.output_stride, scn.disturbance_time)


def packs(scns: Sequence[Scenario]) -> List[List[int]]:
    """The indices of scns cut into unions for integrate_many, grid after
    grid.  A pack holds at most ``fit`` members: as many copies of the
    largest scenario (the most states and the most lines of any) as stay
    within PACK_ENTRIES, and at least one.  Each time grid's scenarios are
    split in order into ceil(r / fit) packs for its r scenarios, whose
    member counts differ by at most one, the larger packs first.  A
    sweep's values all have one size, so its packs are the fewest within
    the budget.  The scenarios alone decide the cut, so it is the same on
    any machine."""
    if not scns:
        return []
    n, lines = (max(sizes) for sizes in zip(*[
        (state_layout(s).size, len(s.network.lines)) for s in scns]))
    fit = 1
    while kernel_entries((fit + 1) * n, (fit + 1) * lines) <= PACK_ENTRIES:
        fit += 1
    grids: Dict[tuple, List[int]] = {}
    for i, s in enumerate(scns):
        grids.setdefault(_grid(s), []).append(i)
    return [pack.tolist() for members in grids.values()
            for pack in np.array_split(members, -(-len(members) // fit))]


def _union(loops: Sequence[ClosedLoop]) -> ClosedLoop:
    """Uncoupled closed loops side by side as one, with no layout: each
    member's state indices shifted by its first state (p_m's rows by its
    first generator), then the members' arrays joined, which keeps J's
    nonzeros row by row.  A lone loop is its own union."""
    if len(loops) == 1:
        return loops[0]
    states = np.cumsum([0] + [len(loop.load) for loop in loops])
    gens = np.cumsum([0] + [len(loop.layout.gen_ids) for loop in loops])
    # each field's arrays, and the offsets each takes (None for values)
    shifts = {"jac": (states, states, None), "ends": (states, states),
              "spread": (states, None), "pm_rows": (gens, states, None)}

    def joined(name):
        members = zip(*(getattr(loop, name) for loop in loops))  # array by array
        return tuple(np.concatenate([a if at is None else a + at[m]
                                     for m, a in enumerate(arrays)], axis=-1)
                     for arrays, at in zip(members, shifts[name]))

    return ClosedLoop(layout=None, load=np.concatenate([loop.load for loop in loops]),
                      load_time=loops[0].load_time,
                      **{name: joined(name) for name in shifts})


def _dense_kernel(loop: ClosedLoop, dt: float, x0: np.ndarray):
    """RK4 on the closed loop x' = J x + c + S sin(E x) as one fused step
    of four dense products, four sines and one add: advance(count) runs
    count steps of dt from where the last call left the state (x0 at
    first) and returns the state (a view that a later call overwrites),
    and load_on() switches the step load c on.  The numpy callables are
    bound once, when the kernel is built.

    A buffer holds z = [x | 1 | s_1 | s_2 | s_3 | s_4], where s_i is
    sin(E y_i), the line sines at stage i's input y_i.  Every stage
    quantity is linear in z: with Y_1 = [I | 0 ...], the stage slope is
    K_i = J Y_i + [0 | c | S in s_i's columns], and the next stage input
    is Y_{i+1} = Y_1 + a_i K_i for a_i = dt/2, dt/2, dt.  Y_{i+1} reads z
    only up to s_i, so each of the three stage products is the L rows
    E Y_{i+1} over that prefix, followed by an in-place sine into
    s_{i+1}.  The fourth product, from all of z, gives the increment
    D = dt/6 (K_1 + 2 K_2 + 2 K_3 + K_4) and the next step's line
    arguments E (Y_1 + D); the state takes the increment with one add,
    so x's own coefficient is exactly 1 and an equilibrium stays put to
    within the rounding of its increment, and one sine of the arguments
    gives the next step's s_1.  The 1 slot is the load switch: c enters
    the four matrices only through its column, which is linear in c, so
    the slot holds 0 until load_on() sets it to 1.

    The matrices are built from J's nonzeros and the line ends (E y as
    y[from] - y[to]), not by BLAS matrix products, which would wake the
    BLAS thread pool through the first steps.
    """
    n, (frm, to), (flow_rows, flow_vals) = len(x0), loop.ends, loop.spread
    n_lines = len(frm)
    # buffer offsets: s_i starts at ends[i - 1] and ends at ends[i]
    ends = [n + 1 + i * n_lines for i in range(5)]
    # J's nonzeros come row by row: each row with any is one reduceat run
    rows, cols, vals = loop.jac
    terms = vals[:, None]
    present, starts = np.unique(rows, return_index=True)
    first = np.eye(n, ends[4])  # Y_1
    y, increment, stages = first, np.zeros_like(first), []
    for i, (a, weight) in enumerate(((dt / 2, 1.0), (dt / 2, 2.0),
                                     (dt, 2.0), (None, 1.0))):
        # K_{i+1}, where Y_{i+1} reads z only up to s_i
        k = np.zeros_like(first)
        k[present, :ends[i]] = np.add.reduceat(terms * y[cols, :ends[i]], starts)
        k[:, n] += loop.load
        k[flow_rows, ends[i] + np.arange(n_lines)] = flow_vals
        increment += weight * k
        if a is not None:
            y = first + a * k
            stages.append(y[frm, :ends[i + 1]] - y[to, :ends[i + 1]])
    increment *= dt / 6
    y = first + increment
    mats = stages + [np.vstack([increment, y[frm] - y[to]])]

    z = np.zeros(ends[4])
    x = z[:n]
    x[:] = x0
    s1, s2, s3, s4 = (z[start:end] for start, end in zip(ends, ends[1:]))
    np.sin(x[frm] - x[to], s1)
    into2, into3, into4 = (z[:end] for end in ends[1:4])
    scratch = np.empty(n + n_lines)
    step, args = scratch[:n], scratch[n:]
    sin, add = np.sin, np.add
    dot2, dot3, dot4, final_dot = (mat.dot for mat in mats)

    def advance(count):
        # positional out arguments: the keyword form costs as much again
        for _ in range(count):
            dot2(into2, s2)
            sin(s2, s2)
            dot3(into3, s3)
            sin(s3, s3)
            dot4(into4, s4)
            sin(s4, s4)
            final_dot(z, scratch)
            add(x, step, x)
            sin(args, s1)
        return x

    def load_on():
        z[n] = 1.0

    return advance, load_on


def _sparse_slope(loop: ClosedLoop):
    """The slope of the closed loop from the nonzeros of J and S:
    slope(x, out) writes x' into out, with one gather, E x as
    x[from] - x[to], one sine per line, one np.bincount that sums J x and
    S sin(E x) row by row, and c added to its result; load_on() switches
    the step load on.

    Each line's flow enters S at its two ends' rows: the terms hold S's
    entries as [from-end rows | to-end rows] line by line, so the sines
    fill the first half and one copy fills the second.
    """
    (jac_rows, jac_cols, jac_vals), (flow_rows, flow_vals) = loop.jac, loop.spread
    n, n_lines = len(loop.load), flow_rows.shape[1]
    rows = np.concatenate([jac_rows, *flow_rows])
    vals = np.concatenate([jac_vals, *flow_vals])
    # buf is [x at each line's from-bus | x at its to-bus | J terms |
    # sines | their copy]: one take fills the first three parts from x,
    # and the last three are the weights that bincount sums
    gather = np.concatenate([*loop.ends, jac_cols])
    nj = len(jac_cols)
    buf = np.empty(len(gather) + 2 * n_lines)
    gathered, terms = buf[:len(gather)], buf[2 * n_lines:]
    head, tail = buf[:n_lines], buf[n_lines:2 * n_lines]
    flow, copy = terms[nj:nj + n_lines], terms[nj + n_lines:]
    c = np.zeros(n)
    take, subtract, sin, copyto, multiply, bincount, add = (
        np.ndarray.take, np.subtract, np.sin, np.copyto, np.multiply,
        np.bincount, np.add)

    def slope(x, out):
        take(x, gather, None, gathered, "clip")
        subtract(head, tail, flow)
        sin(flow, flow)
        copyto(copy, flow)
        multiply(terms, vals, terms)
        add(bincount(rows, terms, n), c, out)

    def load_on():
        c[:] = loop.load

    return slope, load_on


def _sparse_kernel(loop: ClosedLoop, dt: float, x0: np.ndarray):
    """The same advance(count) and load switch as _dense_kernel, each step
    four evaluations of _sparse_slope."""
    slope, load_on = _sparse_slope(loop)
    n = len(x0)
    # Row 0 of v is x and rows 1-4 the stage slopes, so each stage input,
    # and the step itself, is one product of RK4 weights with v.
    v = np.zeros((5, n))
    x, k1, k2, k3, k4 = v
    x[:] = x0
    z = np.empty(n)
    dot2, dot3, dot4, combine = (
        np.array(w).dot for w in ([1.0, dt / 2.0, 0.0, 0.0, 0.0],
                                  [1.0, 0.0, dt / 2.0, 0.0, 0.0],
                                  [1.0, 0.0, 0.0, dt, 0.0],
                                  [1.0, dt / 6.0, dt / 3.0, dt / 3.0, dt / 6.0]))
    copyto = np.copyto

    def advance(count):
        for _ in range(count):
            slope(x, k1)
            dot2(v, z)
            slope(z, k2)
            dot3(v, z)
            slope(z, k3)
            dot4(v, z)
            slope(z, k4)
            combine(v, z)
            copyto(x, z)
        return x

    return advance, load_on


def integrate_many(scns: Sequence[Scenario], *,
                   initial_states: Optional[Sequence[Optional[np.ndarray]]] = None,
                   ) -> List[Trajectory]:
    """integrate() for several scenarios on one time grid, as one run.

    Uncoupled closed loops taken together are one closed loop (_union),
    so one RK4 kernel advances them all with one numpy call per product.
    initial_states holds one entry per scenario; like integrate(), it
    computes no Lyapunov series.  A single scenario runs on its own loop
    and is bitwise what integrate() gives; in a union the block products
    sum in another order, so a member may differ from its lone run in the
    last digits.  The union runs on the dense kernel while
    kernel_entries() stays within DENSE_ENTRIES and on the sparse kernel
    above it; the two differ in the last digits too.
    A non-finite sample raises ArithmeticError; in a union it may have
    spread to every member.  Finiteness is checked once per sample block
    (_sample_blocks), after its last sample, so a diverging run steps on
    to the end of the block that holds its first non-finite sample.  The
    error names the slot that was largest in the last finite sample and
    the time of the first non-finite one.  From the all-zero rest state
    (every start +0.0) the kernel starts at the load step, and the samples
    before it are the rest state: bitwise what stepping there from t = 0
    gives.
    No scenarios, no trajectories.
    """
    if not scns:
        return []
    scn = scns[0]
    if any(_grid(s) != _grid(scn) for s in scns):
        raise ValueError("integrate_many needs one time grid: dt, t_end, "
                         "output_stride and disturbance_time must agree")
    loops = [assemble(s) for s in scns]
    initial_states = initial_states or [None] * len(scns)
    union = _union(loops)
    n = len(union.load)
    dt, nsteps, stride = scn.dt, scn.steps, scn.output_stride
    # sample j is step j * stride, the last one step nsteps
    samples = -(-nsteps // stride) + 1
    times = np.minimum(np.arange(samples) * stride, nsteps) * dt
    states = np.empty((samples, n))
    # the first step k < nsteps whose time k * dt is loaded, else nsteps,
    # by bisection: loaded is monotone in k
    load_step, above = 0, nsteps
    while load_step < above:
        mid = (load_step + above) // 2
        if loops[0].loaded(mid * dt):
            above = mid
        else:
            load_step = mid + 1

    kernel = (_dense_kernel if kernel_entries(n, len(union.ends[0])) <= DENSE_ENTRIES
              else _sparse_kernel)
    members = np.split(states, np.cumsum([loop.layout.size for loop in loops])[:-1],
                       axis=1)
    states[0] = 0.0
    for own, x0 in zip(members, initial_states):
        if x0 is not None:
            own[0] = x0
    advance, load_on = kernel(union, dt, states[0])

    # each product and sine of +0.0 is +0.0, so from there the kernel
    # starts at the load step; a -0.0 start is not at rest, since its first
    # step turns it into +0.0
    rest = not (states[0].any() or np.signbit(states[0]).any())
    done, load_off = (load_step if rest else 0), True
    # a diverging state runs to inf/nan: finiteness is checked once per
    # sample block, after its last sample, so the run stops at the end of
    # the block that holds the first such sample, and the check after the
    # loop names it
    with np.errstate(over="ignore", invalid="ignore"):
        for block in _sample_blocks(samples):
            for j in range(max(block.start, 1), block.stop):
                stop = min(j * stride, nsteps)
                if load_off and load_step <= stop:
                    advance(max(load_step - done, 0))
                    done, load_off = max(load_step, done), False
                    load_on()
                states[j] = advance(max(stop - done, 0))
                done = max(stop, done)
            if not np.isfinite(states[block]).all():
                break
    bad = np.argwhere(~np.isfinite(states[:block.stop]))
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
    for loop, s, own in zip(loops, scns, members):
        lay, n_bus = loop.layout, loop.layout.n_bus
        # the bus rows of x' = J x + c + S sin(E x) are the bus frequencies:
        # J's come first, and S's are summed row by row, line by line
        (frm, to), (flow_rows, flow_vals) = loop.ends, loop.spread
        jac = [a[:np.searchsorted(loop.jac[0], n_bus)] for a in loop.jac]
        flows = _row_major(flow_rows.ravel(), np.tile(np.arange(len(frm)), 2),
                           flow_vals.ravel())
        flows = [a[:np.searchsorted(flows[0], n_bus)] for a in flows]
        p_m = np.zeros((len(times), len(lay.gen_ids)))
        freqs = np.multiply.outer(loop.loaded(times), loop.load[:n_bus])
        for block in _sample_blocks(len(times)):
            x = own[block]
            _add_product(p_m[block], loop.pm_rows, x)
            _add_product(freqs[block], jac, x)
            _add_product(freqs[block], flows, np.sin(x[:, frm] - x[:, to]))
        cost = np.array([s.controllers[g].q for g in lay.gen_ids])
        out.append(Trajectory(layout=lay, times=times, states=own, freqs=freqs,
                              p_m=p_m, marginal_cost=p_m * cost))
    return out


#: Recorded samples that a series derived after integration reads at once
#: (_sample_blocks; the last block may hold one more).  A block's
#: temporaries hold this many samples times the nonzeros or lines the
#: series reads, so a run's memory grows with its recorded states, not
#: with samples times nonzeros.  Each block costs a few short numpy calls,
#: which tell on narrow loops with many samples; wide blocks outgrow the
#: cache.  The derived series of one run (integrate with its kernel
#: stubbed out, then the angle peak and V; medians of 25 interleaved
#: rounds, 2 CPUs, python 3.11, numpy 2.4), in ms, for blocks of 32, 64,
#: 128, 256 samples and the whole array:
#:
#:   ring9, 4 001 samples, 23 states      24.9  20.8  18.7  17.8   18.9
#:   mesh200, 301 samples, 375 states     10.1   9.8  11.6  12.1   14.1
#:   mesh200 at t_end 600, 3 001 samples  83.0  84.0  77.7  80.8  138.5
#:   a pack of four two_gen runs, 3 001
#:   samples of 9 states each             44.3  29.9  26.2  22.6   18.0
#:
#: 128 costs ring9 nothing and is near the least on both meshes, where
#: memory matters; the narrowest loops pay about 2 ms a run.
SAMPLE_BLOCK = 128


def _sample_blocks(samples: int) -> List[slice]:
    """Slices that cut range(samples) into blocks of SAMPLE_BLOCK samples,
    the last of 2 to SAMPLE_BLOCK + 1 (of 1 only when samples is 1).

    A series then adds each sample's terms in the same order whatever
    block holds it, so it is bitwise what the whole array gives.  A lone
    sample would not: the line and weight terms that lyapunov_value
    gathers by column come out column-major, and np.sum along their rows
    adds each row's terms one by one for two rows or more, but pairwise
    for a single row."""
    starts = list(range(0, max(samples - 1, 1), SAMPLE_BLOCK))
    return [slice(start, stop) for start, stop in zip(starts, starts[1:] + [samples])]


def _add_product(out: np.ndarray, mat, x: np.ndarray) -> None:
    """out += x @ M.T for the (samples, columns) array x and the matrix M
    whose nonzeros mat holds as (rows, cols, values), summed in their
    order.  A dense product of this size wakes the BLAS thread pool, which
    then spins on a second core."""
    rows, cols, vals = mat
    np.add.at(out, (slice(None), rows), x[:, cols] * vals)


def transient_angle_peak(scn: Scenario, traj: Trajectory) -> Tuple[float, float]:
    """Largest |theta_i - theta_k| over the lines and the recorded samples,
    and the first sample time where it occurs."""
    frm, to, _ = _line_ends(scn.network)
    x = traj.states
    peak = np.empty(len(x))
    for block in _sample_blocks(len(x)):
        np.max(np.abs(x[block, frm] - x[block, to]), axis=1, initial=0.0,
               out=peak[block])
    i = int(np.argmax(peak))
    return float(peak[i]), float(traj.times[i])


def _solve_laplacian(frm: np.ndarray, to: np.ndarray, w: np.ndarray,
                     rhs: np.ndarray) -> np.ndarray:
    """The Newton step s (s[0] = 0) with (L s)[1:] = rhs[1:] for the
    weighted Laplacian L = E^T diag(w) E of the lines frm -> to, by
    conjugate gradients preconditioned with L's diagonal (Jacobi).

    L is applied from the line ends, E p as p[frm] - p[to] and E^T f as
    two bincounts, and never built, so the solve makes no BLAS or LAPACK
    call.  It ends once every residual entry is within NEWTON_TOL / 1000.
    A non-positive diagonal entry or curvature (L is not positive
    definite with bus 0 pinned) raises RuntimeError, as does a solve
    still short of that after 10 n iterations for n buses: exact
    arithmetic ends within n - 1, and rounding delays that on a long ring
    of thin lines.
    """
    n = len(rhs)
    diag = np.bincount(frm, w, n) + np.bincount(to, w, n)
    if (diag[1:] > 0.0).all():
        inv = np.zeros(n)
        inv[1:] = 1.0 / diag[1:]
        s = np.zeros(n)
        r = rhs.copy()
        r[0] = 0.0
        z = inv * r
        p = z
        rz = (r * z).sum()
        for _ in range(10 * n):
            if np.abs(r).max() <= NEWTON_TOL * 1e-3:
                return s
            f = w * (p.take(frm) - p.take(to))
            q = np.bincount(frm, f, n) - np.bincount(to, f, n)
            q[0] = 0.0
            curvature = (p * q).sum()
            if not curvature > 0.0:
                break
            a = rz / curvature
            s += a * p
            r -= a * q
            z = inv * r
            rz, previous = (r * z).sum(), rz
            p = z + (rz / previous) * p
    raise RuntimeError("equilibrium Newton hit a singular Jacobian; "
                       "try smaller loads or larger susceptances")


def compute_equilibrium(scn: Scenario) -> Equilibrium:
    """Post-step synchronous equilibrium.

    nu = total load / sum_j K_j k_c_j; each generator settles at
    p_m = K k_c nu; the angles solve the lossless flow balance by damped
    Newton iteration with bus 0 pinned as the angle reference.  Each
    Newton step solves the reduced weighted Laplacian by matrix-free,
    Jacobi-preconditioned conjugate gradients over the line ends
    (_solve_laplacian), so the solve stays on one core.
    """
    net = scn.network
    gens = sorted(net.generator_ids)
    k_eff = {g: scn.generators[g].dc_gain * scn.controllers[g].k_c for g in gens}
    total_load = sum(scn.step_loads.values())
    nu = total_load / sum(k_eff.values())

    # Power that each bus must push into the network at equilibrium.
    nbus = len(net.buses)
    target = np.zeros(nbus)
    for g in gens:
        target[g] = k_eff[g] * nu
    for bus, delta in scn.step_loads.items():
        target[bus] -= delta
    frm, to, b = _line_ends(net)

    def residual(theta: np.ndarray) -> np.ndarray:
        f = b * np.sin(theta[frm] - theta[to])
        return target - np.bincount(frm, f, nbus) + np.bincount(to, f, nbus)

    theta = np.zeros(nbus)
    r = residual(theta)
    for _ in range(NEWTON_MAX_ITER):
        if float(np.max(np.abs(r))) < NEWTON_TOL or nbus == 1:
            break
        # the residual's Jacobian is -L for the weights b cos(eta)
        step = _solve_laplacian(frm, to, b * np.cos(theta[frm] - theta[to]), r)
        alpha = 1.0
        best = float(np.max(np.abs(r)))
        while alpha > 1e-6:
            cand = theta + alpha * step
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

    eta = theta[frm] - theta[to]
    flows = b * np.sin(eta)
    max_eta = float(np.max(np.abs(eta), initial=0.0))
    return Equilibrium(
        angles_star={bid: float(theta[bid]) for bid in range(nbus)},
        nu=nu,
        flows_star={(ln.from_bus, ln.to_bus): float(f)
                    for ln, f in zip(net.lines, flows)},
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
    is a scalar) or a (samples, states) array (one value per sample,
    taken a block of samples at a time: _sample_blocks).
    """
    lay = state_layout(scn)
    # the weights as (row, col, value) triplets, generator by generator: M
    # at the frequency, P on the block's states and gamma at the command
    # (M and gamma are positive by construction; P's zeros are dropped)
    weights = []
    for i, g in enumerate(lay.gen_ids):
        if g not in certs:
            raise ValueError(f"missing certificate for generator bus {g}")
        om, pc, x0 = lay.omega.start + i, lay.pc.start + i, lay.x[i].start
        weights += [(om, om, scn.network.bus(g).inertia), (pc, pc, scn.controllers[g].gamma)]
        weights += [(x0 + r, x0 + c, v)
                    for (r, c), v in np.ndenumerate(certs[g].p_matrix.to_array())]
    # summed row by row, column by column, an order that fixes the sum's
    # rounding; sums over the nonzeros and the line ends, not dense
    # products, which would wake the BLAS thread pool on a sample series
    rows, cols, vals = _row_major(*zip(*weights))
    frm, to, b = _line_ends(scn.network)
    x_star = equilibrium_system_state(scn, eq)
    eta_s = x_star[frm] - x_star[to]

    def value(x):
        d = x - x_star
        delta = x[..., frm] - x[..., to] - eta_s
        # cos(eta_s) - cos(eta_s + delta) written as a product of sines, so
        # that rounding cannot leave a first-order term behind when delta is
        # tiny
        potential = (2.0 * np.sin(eta_s + delta / 2.0) * np.sin(delta / 2.0)
                     - np.sin(eta_s) * delta) * b
        return (0.5 * np.sum(d[..., rows] * vals * d[..., cols], axis=-1)
                + np.sum(potential, axis=-1))

    if np.ndim(state) == 1:
        return value(state)
    values = np.empty(len(state))
    for block in _sample_blocks(len(state)):
        values[block] = value(state[block])
    return values


def dissipation_check(values: np.ndarray) -> float:
    """Largest increase between consecutive values of a Lyapunov series
    (lyapunov_value over a trajectory's states), 0.0 for fewer than two.

    Theory predicts no increase at all along converging trajectories;
    numerically anything at or below EPSILON_V counts as clean.
    """
    if len(values) < 2:
        return 0.0
    return float(np.max(np.diff(values)))
