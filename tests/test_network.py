import dataclasses
import math
import pickle

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gridfreq.control import ControllerGains
from gridfreq.generation import make_first_order
from gridfreq.network import (Bus, BusKind, CommEdge, Line, PowerNetwork,
                              validate)
from gridfreq.sim import Scenario, assemble
from meshes import ring_with_chords
from reference import dense


def _two_bus(comm=True, susceptance=1.0):
    return PowerNetwork(
        buses=[Bus(0, BusKind.GENERATOR, inertia=1.0, damping=0.5),
               Bus(1, BusKind.GENERATOR, inertia=1.0, damping=0.5)],
        lines=[Line(0, 1, susceptance)],
        comm=[CommEdge(0, 1, 1.0)] if comm else [],
    )


def _line_terms(scn, angles):
    """The net line power into each bus at the angles, read off the closed
    loop's S sin(E x): the line term in the row each bus drives (a
    generator's frequency row, a load bus's angle row) times the divisor
    of that row (the inertia or the damping)."""
    loop = assemble(scn)
    lay = loop.layout
    x = np.zeros(lay.size)
    x[:lay.n_bus] = angles
    _, e, spread, _ = dense(loop)
    terms = spread @ np.sin(e @ x)
    rows = np.arange(lay.n_bus)
    divisor = np.array([scn.network.bus(b).damping for b in rows])
    for i, g in enumerate(lay.gen_ids):
        rows[g], divisor[g] = lay.omega.start + i, scn.network.bus(g).inertia
    return terms[rows] * divisor


def _inflow(net, angles):
    """_line_terms on the network with a first-order lag at every
    generator bus."""
    gens = net.generator_ids
    gains = ControllerGains(gamma=1.0, k_f=1.0, k_c=1.0, k_d=1.0, q=1.0)
    scn = Scenario(network=net,
                   generators={g: make_first_order(1.0, 1.0) for g in gens},
                   controllers={g: gains for g in gens},
                   disturbance_time=0.0, step_loads={}, t_end=1.0, dt=0.1)
    return _line_terms(scn, angles)


def _line_power(eta, susceptance):
    """The power a single line carries into its to-bus when its from-bus
    leads by eta."""
    return _inflow(_two_bus(susceptance=susceptance), [eta, 0.0])[1]


class TestValidate:
    def test_minimal_network_is_valid(self):
        assert validate(_two_bus()) == []

    def test_missing_comm_edge_breaks_connectivity(self):
        problems = validate(_two_bus(comm=False))
        assert any("communication graph" in p for p in problems)

    def test_load_bus_needs_positive_damping(self):
        net = PowerNetwork(
            buses=[Bus(0, BusKind.GENERATOR, inertia=1.0, damping=0.5),
                   Bus(1, BusKind.LOAD, damping=0.0)],
            lines=[Line(0, 1, 1.0)],
            comm=[],
        )
        problems = validate(net)
        assert any("load bus 1 damping must be positive" == p for p in problems)

    def test_load_bus_takes_no_inertia(self):
        net = PowerNetwork(
            buses=[Bus(0, BusKind.GENERATOR, inertia=1.0, damping=0.5),
                   Bus(1, BusKind.LOAD, inertia=7.0, damping=0.9)],
            lines=[Line(0, 1, 1.0)], comm=[])
        assert validate(net) == ["load bus 1 inertia must be zero"]

    def test_generator_needs_positive_inertia(self):
        net = PowerNetwork(
            buses=[Bus(0, BusKind.GENERATOR, inertia=0.0, damping=0.5)],
            lines=[], comm=[])
        assert any("inertia" in p for p in validate(net))

    def test_negative_susceptance_reported(self):
        net = _two_bus()
        bad = PowerNetwork(buses=net.buses, lines=[Line(0, 1, -2.0)], comm=net.comm)
        assert any("susceptance" in p for p in validate(bad))

    def test_duplicate_line_reported(self):
        net = _two_bus()
        bad = PowerNetwork(buses=net.buses,
                           lines=[Line(0, 1, 1.0), Line(1, 0, 2.0)],
                           comm=net.comm)
        assert any("duplicates" in p for p in validate(bad))

    @pytest.mark.parametrize("again", [CommEdge(0, 1, 2.0), CommEdge(1, 0, 2.0)])
    def test_duplicate_comm_edge_reported(self, again):
        net = _two_bus()
        bad = PowerNetwork(buses=net.buses, lines=net.lines,
                           comm=[CommEdge(0, 1, 1.0), again])
        assert validate(bad) == [f"communication edge {again.a}-{again.b} "
                                 "duplicates an existing edge"]

    # a NaN that no sign test catches, or an infinity, is a problem of its
    # own; the sign tests keep their messages
    def test_generator_bus_inertia_must_be_finite(self):
        net = _two_bus()
        bad = PowerNetwork(buses=[Bus(0, BusKind.GENERATOR, inertia=math.inf,
                                      damping=0.5), net.buses[1]],
                           lines=net.lines, comm=net.comm)
        assert validate(bad) == ["generator bus 0 inertia must be finite"]

    @pytest.mark.parametrize("value", [math.nan, math.inf])
    def test_generator_bus_damping_must_be_finite(self, value):
        net = _two_bus()
        bad = PowerNetwork(buses=[Bus(0, BusKind.GENERATOR, inertia=1.0,
                                      damping=value), net.buses[1]],
                           lines=net.lines, comm=net.comm)
        assert validate(bad) == ["generator bus 0 damping must be finite"]

    def test_load_bus_damping_must_be_finite(self):
        net = PowerNetwork(
            buses=[Bus(0, BusKind.GENERATOR, inertia=1.0, damping=0.5),
                   Bus(1, BusKind.LOAD, damping=math.inf)],
            lines=[Line(0, 1, 1.0)], comm=[])
        assert validate(net) == ["load bus 1 damping must be finite"]

    def test_line_susceptance_must_be_finite(self):
        net = _two_bus()
        bad = PowerNetwork(buses=net.buses, lines=[Line(0, 1, math.inf)],
                           comm=net.comm)
        assert validate(bad) == ["line 0-1 susceptance must be finite"]

    def test_comm_weight_must_be_finite(self):
        net = _two_bus()
        bad = PowerNetwork(buses=net.buses, lines=net.lines,
                           comm=[CommEdge(0, 1, math.inf)])
        assert validate(bad) == ["communication edge 0-1 weight must be finite"]

    @pytest.mark.parametrize("generators", range(1, 13))
    def test_meshes_are_valid(self, generators):
        # few generators wrap the comm ring and its chords onto one another
        scn = ring_with_chords(3, buses=40, generators=generators, chords=6)
        assert validate(scn.network) == []

    @pytest.mark.parametrize("buses", [4, 5, 6, 9])
    def test_meshes_take_every_chord_the_ring_has(self, buses):
        # buses (buses - 5) / 2 pairs lie three or more ring hops apart: a
        # mesh may join them all, and one chord more is refused, not drawn
        # forever
        pairs = max(buses * (buses - 5) // 2, 0)
        scn = ring_with_chords(1, buses=buses, generators=2, chords=pairs)
        assert len(scn.network.lines) == buses + pairs
        with pytest.raises(ValueError, match="three or more hops"):
            ring_with_chords(1, buses=buses, generators=2, chords=pairs + 1)

    def test_generators_must_precede_loads(self):
        net = PowerNetwork(
            buses=[Bus(0, BusKind.LOAD, damping=1.0),
                   Bus(1, BusKind.GENERATOR, inertia=1.0, damping=0.5)],
            lines=[Line(0, 1, 1.0)], comm=[])
        assert any("precede" in p for p in validate(net))

    def test_report_is_sorted_and_stable(self):
        net = PowerNetwork(
            buses=[Bus(0, BusKind.GENERATOR, inertia=-1.0, damping=0.5),
                   Bus(1, BusKind.LOAD, damping=0.0)],
            lines=[Line(0, 1, -1.0)], comm=[])
        first = validate(net)
        assert first == sorted(first)
        assert first == validate(net)


_GEN = Bus(0, BusKind.GENERATOR, inertia=1.0, damping=0.5)
_LOAD = Bus(1, BusKind.LOAD, damping=1.0)


def _two_bus_with(bus0=_GEN, lines=(), comm=()):
    """_two_bus with bus0 as its bus 0, and more lines and comm edges after
    its own."""
    net = _two_bus()
    return PowerNetwork([bus0, net.buses[1]], net.lines + tuple(lines),
                        net.comm + tuple(comm))


def _gen_and_load(load):
    """Generator bus 0 and the load bus, joined by a line."""
    return PowerNetwork([_GEN, load], [Line(0, 1, 1.0)], [])


# validate's 23 messages: 13 from the networks below, each with the whole
# list it gives, and the number rule's two words for each of five numbers
# (_NUMBERS)
_MESSAGES = {
    "no-buses": (PowerNetwork([], [], []), ["network has no buses"]),
    "id-gap": (PowerNetwork([_GEN, dataclasses.replace(_GEN, id=2)],
                            [Line(0, 2, 1.0)], [CommEdge(0, 2)]),
               ["bus ids must be exactly 0..n-1 with no gaps or repeats"]),
    "order": (PowerNetwork([dataclasses.replace(_LOAD, id=0),
                            dataclasses.replace(_GEN, id=1)],
                           [Line(0, 1, 1.0)], []),
              ["generator buses must precede load buses in the id order"]),
    "no-generator": (PowerNetwork([dataclasses.replace(_LOAD, id=0)], [], []),
                     ["network needs at least one generator bus"]),
    "load-inertia": (_gen_and_load(dataclasses.replace(_LOAD, inertia=7.0)),
                     ["load bus 1 inertia must be zero"]),
    "line-self-loop": (_two_bus_with(lines=[Line(0, 0, 1.0)]),
                       ["line 0-0 is a self-loop"]),
    "line-unknown-bus": (_two_bus_with(lines=[Line(0, 5, 1.0)]),
                         ["line 0-5 references an unknown bus"]),
    "line-repeat": (_two_bus_with(lines=[Line(1, 0, 2.0)]),
                    ["line 1-0 duplicates an existing line"]),
    "comm-off-generators": (
        PowerNetwork([_GEN, dataclasses.replace(_GEN, id=1),
                      dataclasses.replace(_LOAD, id=2)],
                     [Line(0, 1, 1.0), Line(1, 2, 1.0)],
                     [CommEdge(0, 1), CommEdge(0, 2)]),
        ["communication edge 0-2 must join generator buses"]),
    "comm-self-loop": (_two_bus_with(comm=[CommEdge(0, 0)]),
                       ["communication edge 0-0 is a self-loop"]),
    "comm-repeat": (_two_bus_with(comm=[CommEdge(1, 0)]),
                    ["communication edge 1-0 duplicates an existing edge"]),
    "power-graph": (dataclasses.replace(_two_bus(), lines=[]),
                    ["power graph is not connected"]),
    "comm-graph": (_two_bus(comm=False),
                   ["communication graph over generator buses is not connected"]),
    # a network without generator buses still holds its comm edges to them;
    # only the comm graph's connectivity has no nodes to test
    "comm-without-generators": (
        PowerNetwork([dataclasses.replace(_LOAD, id=0), _LOAD],
                     [Line(0, 1, 1.0)], [CommEdge(0, 1)]),
        ["communication edge 0-1 must join generator buses",
         "network needs at least one generator bus"]),
    # a repeated id is one node of either graph, so it alone leaves no
    # graph disconnected
    "id-repeat": (PowerNetwork([_GEN, _GEN], [], []),
                  ["bus ids must be exactly 0..n-1 with no gaps or repeats"]),
    "id-repeat-across-kinds": (
        PowerNetwork([_GEN, dataclasses.replace(_GEN, id=1), _LOAD],
                     [Line(0, 1, 1.0)], [CommEdge(0, 1)]),
        ["bus ids must be exactly 0..n-1 with no gaps or repeats"]),
    "id-repeat-and-island": (
        PowerNetwork([_GEN, dataclasses.replace(_GEN, id=1), _LOAD,
                      dataclasses.replace(_LOAD, id=3)],
                     [Line(0, 1, 1.0)], [CommEdge(0, 1)]),
        ["bus ids must be exactly 0..n-1 with no gaps or repeats",
         "power graph is not connected"]),
}

_VALUES = [0.0, -1.0, math.nan, math.inf, -math.inf]
# the word each of _VALUES draws from the number rule: the sign test, which
# a NaN fails only where zero is refused too, then the finite test
_WORDS = {"positive": ["positive", "positive", "positive", "finite", "positive"],
          "nonnegative": [None, "nonnegative", "finite", "finite", "nonnegative"]}
# each number validate checks: the name it reports, the sign it must have
# and a valid network with that number set to a value
_NUMBERS = [
    ("generator bus 0 inertia", "positive",
     lambda v: _two_bus_with(dataclasses.replace(_GEN, inertia=v))),
    ("generator bus 0 damping", "nonnegative",
     lambda v: _two_bus_with(dataclasses.replace(_GEN, damping=v))),
    ("load bus 1 damping", "positive",
     lambda v: _gen_and_load(dataclasses.replace(_LOAD, damping=v))),
    ("line 0-1 susceptance", "positive",
     lambda v: dataclasses.replace(_two_bus(), lines=[Line(0, 1, v)])),
    ("communication edge 0-1 weight", "positive",
     lambda v: dataclasses.replace(_two_bus(), comm=[CommEdge(0, 1, v)])),
]


class TestValidateMessages:
    """Every message validate gives, word for word."""

    @pytest.mark.parametrize("name", _MESSAGES)
    def test_message(self, name):
        net, expected = _MESSAGES[name]
        assert validate(net) == expected

    @pytest.mark.parametrize("at", range(len(_VALUES)),
                             ids=[repr(v) for v in _VALUES])
    @pytest.mark.parametrize("number, sign, build", _NUMBERS,
                             ids=[n.replace(" ", "-") for n, *_ in _NUMBERS])
    def test_number_rule(self, number, sign, build, at):
        word = _WORDS[sign][at]
        assert validate(build(_VALUES[at])) == (
            [f"{number} must be {word}"] if word else [])


class TestBusLookup:
    def test_every_id_finds_its_bus(self):
        net = ring_with_chords(2, buses=40, generators=10, chords=8).network
        for b in net.buses:
            assert net.bus(b.id) is b

    @pytest.mark.parametrize("missing", [2, -1, 7])
    def test_unknown_id_raises_key_error(self, missing):
        with pytest.raises(KeyError, match=f"no bus with id {missing}"):
            _two_bus().bus(missing)

    def test_first_bus_of_a_repeated_id_wins(self):
        # validate reports the repeat; the lookup answers as a scan would
        first = Bus(0, BusKind.GENERATOR, inertia=1.0, damping=0.5)
        net = PowerNetwork(buses=[first, Bus(0, BusKind.LOAD, damping=1.0)],
                           lines=[], comm=[])
        assert net.bus(0) is first

    def test_index_follows_replace_and_pickle(self):
        net = _two_bus()
        moved = dataclasses.replace(
            net, buses=[dataclasses.replace(b, damping=2.0) for b in net.buses])
        assert moved.bus(1).damping == 2.0
        again = pickle.loads(pickle.dumps(moved))
        assert again == moved
        assert again.bus(1) == moved.bus(1)


class TestLinePower:
    """The closed loop's line term b sin(eta)."""

    def test_zero_angle(self):
        assert _line_power(0.0, 1.0) == 0.0

    def test_quarter_turn_transfers_full_capacity(self):
        assert _line_power(math.pi / 2, 2.0) == pytest.approx(2.0)

    def test_odd_symmetry_example(self):
        assert _line_power(-math.pi / 6, 1.0) == pytest.approx(-0.5)

    @given(st.floats(-10.0, 10.0), st.floats(0.01, 100.0))
    def test_odd_in_angle(self, eta, b):
        assert _line_power(-eta, b) == pytest.approx(-_line_power(eta, b),
                                                     abs=1e-12)

    @given(st.floats(-10.0, 10.0), st.floats(0.01, 100.0))
    def test_two_pi_periodic(self, eta, b):
        assert _line_power(eta + 2 * math.pi, b) == pytest.approx(
            _line_power(eta, b), abs=1e-9 * b)


class TestNetInjection:
    """The net line power into each bus, as the closed loop's S sin(E x)
    carries it."""

    def test_equal_angles_inject_nothing(self):
        assert list(_inflow(_two_bus(), [0.3, 0.3])) == [0.0, 0.0]

    def test_two_bus_reference_value(self):
        # bus 0 exports 0.1 toward the lagging bus
        inflow = _inflow(_two_bus(), [0.0, -math.asin(0.1)])
        assert inflow == pytest.approx([-0.1, 0.1], abs=1e-15)

    @settings(max_examples=20, deadline=None)
    @given(st.integers(0, 2**32 - 1))
    def test_meshes_conserve_power(self, seed):
        # lossless lines: whatever the angles, what leaves one bus enters
        # another, so the inflows sum to zero over the buses
        scn = ring_with_chords(seed, buses=30, generators=8, chords=10)
        angles = np.random.default_rng(seed).uniform(-math.pi, math.pi, 30)
        inflow = _line_terms(scn, angles)
        scale = sum(ln.susceptance for ln in scn.network.lines)
        assert abs(inflow.sum()) <= 1e-13 * scale

    def test_orientation_flip_changes_nothing(self):
        net = _two_bus()
        flipped = PowerNetwork(buses=net.buses, lines=[Line(1, 0, 1.0)],
                               comm=net.comm)
        angles = [0.4, -0.2]
        assert list(_inflow(net, angles)) == list(_inflow(flipped, angles))
