"""Seeded inputs for the benchmark workloads.

Everything here is a pure function of the seed: the same seed gives the
same mesh200 scenario text, the same certify_search block set and the same
sweep values.  The program under test only ever sees the generated files.

    python3 perfbench/inputs.py --seed 7 --out perfbench/out/inputs-7

writes the generated inputs out for inspection.
"""

from __future__ import annotations

import argparse
import json
import random
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
FIXTURES = ROOT / "src" / "gridfreq" / "fixtures"
RING9 = FIXTURES / "ring9.scn"
TWO_GEN = FIXTURES / "two_gen.scn"

# --- mesh200 ---------------------------------------------------------------

#: mesh200 timing: 3000 RK4 steps.  The slowest closed-loop mode decays at
#: about 0.2/s, so 60 s brings every seed's marginal costs within a few
#: 1e-4 of the dispatch price, inside MARGINAL_TOL = 1e-3.  The stiffest
#: mode (load-bus angles, about -100/s) keeps dt * lambda near 2, inside
#: RK4's stability interval.
MESH_DT = 0.02
MESH_T_END = 60.0


def mesh200_scenario(seed: int):
    """A 200-bus ring-with-chords network with 50 generators.

    Buses 0-49 are generators (inertia 1-2, damping 1-1.5), buses 50-199
    loads (damping 0.3-0.5), each taking a step of 0.002-0.006 at t = 1 s.
    Lines: one ring through all buses in a seeded order, so generator and
    load buses interleave (susceptance 4-8), plus 60 chords between buses
    at least three ring hops apart (susceptance 2-4).  Communication: a
    ring over the generators plus a chord from every second generator to
    the one seven places on (weights 1.5-3); a ring alone settles too
    slowly.  Generators alternate first-order lags (tau 0.3-0.6) and
    turbine-governor cascades (tau_a 0.25-0.4, tau_p 0.8-1.4), gain
    0.8-1.2.  Controllers: gamma 0.3, cost q 1-3, k_c = 1/(q K) (the value
    --optimal-gains writes anyway), k_f = K k_c, k_d = r k_c with r 0.6-1.
    That keeps every closed-form damping threshold below 0.34, under the
    generator damping, so every generator certifies analytically.
    """
    from gridfreq.control import ControllerGains
    from gridfreq.generation import make_first_order, make_second_order
    from gridfreq.network import Bus, BusKind, CommEdge, Line, PowerNetwork
    from gridfreq.sim import Scenario

    rng = random.Random(f"mesh200:{seed}")
    u = rng.uniform
    n, ng = 200, 50

    buses = [Bus(id=i, kind=BusKind.GENERATOR, inertia=u(1.0, 2.0),
                 damping=u(1.0, 1.5)) for i in range(ng)]
    buses += [Bus(id=i, kind=BusKind.LOAD, damping=u(0.3, 0.5))
              for i in range(ng, n)]

    order = list(range(n))
    rng.shuffle(order)
    pos = {bus: k for k, bus in enumerate(order)}
    lines = [Line(order[k], order[(k + 1) % n], u(4.0, 8.0)) for k in range(n)]
    taken = {frozenset((ln.from_bus, ln.to_bus)) for ln in lines}
    while len(lines) < n + 60:
        a, b = rng.sample(range(n), 2)
        hops = abs(pos[a] - pos[b])
        if min(hops, n - hops) < 3 or frozenset((a, b)) in taken:
            continue
        taken.add(frozenset((a, b)))
        lines.append(Line(a, b, u(2.0, 4.0)))

    comm = [CommEdge(g, (g + 1) % ng, u(1.5, 3.0)) for g in range(ng)]
    comm += [CommEdge(g, (g + 7) % ng, u(1.5, 3.0)) for g in range(0, ng, 2)]

    generators, controllers = {}, {}
    for g in range(ng):
        k = u(0.8, 1.2)
        if g % 2 == 0:
            generators[g] = make_first_order(tau=u(0.3, 0.6), k=k)
        else:
            generators[g] = make_second_order(tau_a=u(0.25, 0.4),
                                              tau_p=u(0.8, 1.4), k=k)
        q = u(1.0, 3.0)
        k_c = 1.0 / (q * k)
        controllers[g] = ControllerGains(gamma=0.3, k_f=k * k_c, k_c=k_c,
                                         k_d=u(0.6, 1.0) * k_c, q=q)

    loads = {bus: u(0.002, 0.006) for bus in range(ng, n)}
    return Scenario(network=PowerNetwork(buses, lines, comm),
                    generators=generators, controllers=controllers,
                    disturbance_time=1.0, step_loads=loads, t_end=MESH_T_END,
                    dt=MESH_DT, output_stride=10, name="mesh200")


def mesh200_text(seed: int) -> str:
    from gridfreq.cli import serialize_scenario
    header = (f"# mesh200, generated by perfbench/inputs.py from seed {seed}.\n"
              f"# Run with --optimal-gains.\n")
    return header + serialize_scenario(mesh200_scenario(seed))


# --- certify_search ----------------------------------------------------------

#: Blocks per kind in one round of certify_search.  Each lag is searched
#: twice: at a bus damping below its threshold and at one above it.
BLOCKS_PER_KIND = {"reheat": 2, "cascade": 2, "lag": 1}


def _reheat(rng: random.Random) -> dict:
    """Governor lag -> steam chest -> reheater, HP fraction F.

    p_m = F x_ch + (1 - F) x_rh, DC gain K.  Third order, so no analytic
    certificate applies and the search runs its grid and descent.
    """
    u = rng.uniform
    t_g, t_ch, t_rh = u(0.18, 0.22), u(0.27, 0.33), u(5.4, 6.6)
    f_hp, k = u(0.27, 0.33), u(0.9, 1.1)
    return {
        "kind": "reheat",
        "params": {"tau_g": t_g, "tau_ch": t_ch, "tau_rh": t_rh, "F": f_hp,
                   "K": k},
        "a": [[-1.0 / t_g, 0.0, 0.0], [1.0 / t_ch, -1.0 / t_ch, 0.0],
              [0.0, 1.0 / t_rh, -1.0 / t_rh]],
        "b": [k / t_g, 0.0, 0.0],
        "c": [0.0, f_hp, 1.0 - f_hp],
        "d": 0.0,
    }


def _cascade(rng: random.Random) -> dict:
    """Two-lag cascade with direct feedthrough: p_m = (1 - f) x_2 + f K u.

    The feedthrough takes the block outside the worked second-order shape.
    """
    u = rng.uniform
    t_a, t_p, f, k = u(0.27, 0.33), u(1.0, 1.2), u(0.18, 0.22), u(0.9, 1.1)
    return {
        "kind": "cascade",
        "params": {"tau_a": t_a, "tau_p": t_p, "f": f, "K": k},
        "a": [[-1.0 / t_a, 0.0], [1.0 / t_p, -1.0 / t_p]],
        "b": [k / t_a, 0.0],
        "c": [0.0, 1.0 - f],
        "d": f * k,
    }


def _lag(rng: random.Random) -> dict:
    u = rng.uniform
    tau, k = u(0.42, 0.48), u(0.95, 1.05)
    return {
        "kind": "lag",
        "params": {"tau": tau, "K": k},
        "a": [[-1.0 / tau]],
        "b": [k / tau],
        "c": [1.0],
        "d": 0.0,
    }


def certify_blocks(seed: int) -> list:
    """The certify_search block set: a list of JSON-ready dicts.

    Each record holds the block (a, b, c, d), its gains and the bus damping
    Lambda.  Reheat and cascade blocks get k_c = k_d in 0.9-1.1 and Lambda
    in 0.9-1.1.  Each lag gets k_d = s k_c with s in 2.9-3.1, which puts
    its threshold K (k_c - k_d)^2 / (4 k_c) near K k_c; the 'lag_below'
    copy sits at 0.88-0.92 of the threshold, where the search runs its
    descent to the 200-round cap and finds nothing, and the 'lag_above'
    copy at 1.1-1.3 of it, where the analytic certificate holds.  Every
    k_f starts at K (k_c + k_d) / 2.

    The parameters vary by about +-10 % around fixed centres, so the number
    of eigenvalue evaluations per round varies by about 2 % between seeds;
    wider ranges made it vary by 10 % and show in wall_s.
    """
    rng = random.Random(f"certify:{seed}")
    u = rng.uniform
    blocks = []
    for make, n in ((_reheat, BLOCKS_PER_KIND["reheat"]),
                    (_cascade, BLOCKS_PER_KIND["cascade"])):
        for _ in range(n):
            blk = make(rng)
            k_c = u(0.9, 1.1)
            blocks.append(dict(blk, k_c=k_c, k_d=k_c, lambda_bus=u(0.9, 1.1)))
    for _ in range(BLOCKS_PER_KIND["lag"]):
        blk = _lag(rng)
        k_c = u(0.95, 1.05)
        k_d = u(2.9, 3.1) * k_c
        k = blk["params"]["K"]
        threshold = k * (k_c - k_d) ** 2 / (4.0 * k_c)
        blocks.append(dict(blk, kind="lag_below", k_c=k_c, k_d=k_d,
                           lambda_bus=u(0.88, 0.92) * threshold))
        blocks.append(dict(blk, kind="lag_above", k_c=k_c, k_d=k_d,
                           lambda_bus=u(1.1, 1.3) * threshold))
    for blk in blocks:
        k = blk["params"]["K"]
        blk.update(gamma=1.0, q=1.0,
                   k_f=k * (blk["k_c"] + blk["k_d"]) / 2.0)
    return blocks


def build_blocks(records: list) -> list:
    """(record, LtiGenerator, ControllerGains, Lambda) per block record."""
    from gridfreq.control import ControllerGains
    from gridfreq.generation import LtiGenerator
    built = []
    for rec in records:
        gen = LtiGenerator(
            a_matrix=tuple(tuple(row) for row in rec["a"]),
            b_vector=tuple(rec["b"]), c_vector=tuple(rec["c"]),
            d_scalar=rec["d"], order=len(rec["b"]))
        gains = ControllerGains(gamma=rec["gamma"], k_f=rec["k_f"],
                                k_c=rec["k_c"], k_d=rec["k_d"], q=rec["q"])
        built.append((rec, gen, gains, rec["lambda_bus"]))
    return built


# --- sweep_two_gen -----------------------------------------------------------

SWEEP_PARAM = "controllers.1.k_d"
SWEEP_VALUES = 8
SWEEP_RANGE = (0.4, 1.0)


def sweep_values(seed: int) -> list:
    """SWEEP_VALUES distinct k_d values for generator 1 of two_gen.scn.

    One value per equal slice of SWEEP_RANGE, placed at random inside its
    slice and rounded to three decimals.  Values at or above 1.2 do not
    settle in the 30 s horizon, so the range stops at 1.0.
    """
    rng = random.Random(f"sweep:{seed}")
    lo, hi = SWEEP_RANGE
    width = (hi - lo) / SWEEP_VALUES
    return [round(lo + width * (i + rng.uniform(0.05, 0.95)), 3)
            for i in range(SWEEP_VALUES)]


# --- writing the inputs --------------------------------------------------------

def write_inputs(workload: str, seed: int, outdir: Path) -> Path:
    """Write one workload's generated inputs into outdir; return the path the
    set-up step loads (a scenario file, or the JSON block set)."""
    outdir.mkdir(parents=True, exist_ok=True)
    if workload == "ring9":
        return RING9
    if workload == "mesh200":
        path = outdir / "mesh200.scn"
        path.write_text(mesh200_text(seed), encoding="utf-8")
        return path
    if workload == "certify_search":
        path = outdir / "blocks.json"
        path.write_text(json.dumps(certify_blocks(seed), indent=1) + "\n",
                        encoding="utf-8")
        return path
    if workload == "sweep_two_gen":
        path = outdir / "sweep.json"
        path.write_text(json.dumps({"scenario": str(TWO_GEN.relative_to(ROOT)),
                                    "param": SWEEP_PARAM,
                                    "values": sweep_values(seed)}, indent=1)
                        + "\n", encoding="utf-8")
        return TWO_GEN
    raise ValueError(f"unknown workload {workload!r}")


WORKLOADS = ("ring9", "mesh200", "certify_search", "sweep_two_gen")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", required=True, help="directory to write into")
    args = parser.parse_args(argv)
    sys.path.insert(0, str(ROOT / "src"))
    out = Path(args.out)
    for workload in WORKLOADS:
        path = write_inputs(workload, args.seed, out)
        print(f"{workload}: {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
