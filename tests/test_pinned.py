"""The simulator against trajectories stored from commit a2d6fc8.

tests/data/pinned_a2d6fc8.json holds, for two_gen.scn and ring9.scn, the
sample count, nu, the largest V jump and every 100th sample (full state
plus the trajectory.csv columns) written by the dict-state simulator that
the matrix-form closed loop replaced; tests/data/pin_trajectories.py
says how it was made.  Both sides run the same RK4 on the same model, so
they may differ only by floating-point summation order.
"""

import dataclasses
import json
from pathlib import Path

import pytest

from gridfreq import sim
from gridfreq.certify import search_certificate
from gridfreq.cli import load_scenario
from gridfreq.fixtures import fixture_path

PINS = json.loads((Path(__file__).parent / "data" / "pinned_a2d6fc8.json")
                  .read_text(encoding="utf-8"))

#: Absolute tolerance on every pinned value.
TOL = 1e-12


def certified_run(name):
    scn = load_scenario(fixture_path(name))
    gens = sorted(scn.network.generator_ids)
    certs = {g: search_certificate(scn.generators[g], scn.controllers[g],
                                   scn.network.bus(g).damping) for g in gens}
    scn = dataclasses.replace(scn, controllers={
        g: dataclasses.replace(scn.controllers[g], k_f=certs[g].k_f)
        for g in gens})
    eq = sim.compute_equilibrium(scn)
    traj = sim.integrate(scn)
    return scn, certs, eq, traj


@pytest.mark.parametrize("name", sorted(PINS))
def test_trajectory_matches_pin(name):
    pin = PINS[name]
    scn, certs, eq, traj = certified_run(name)
    gens = traj.layout.gen_ids
    assert len(traj.times) == pin["samples"]
    assert eq.nu == pytest.approx(pin["nu"], rel=0, abs=TOL)
    lyapunov = sim.lyapunov_value(scn, certs, eq, traj.states)
    assert sim.dissipation_check(lyapunov) == pytest.approx(
        pin["max_v_jump"], rel=0, abs=TOL)
    for row in pin["rows"]:
        i = row["index"]
        got = {"t": traj.times[i], "V": lyapunov[i]}
        got.update({f"omega_{b}": w for b, w in enumerate(traj.freqs[i])})
        for name, series in (("pm", traj.p_m), ("pc", traj.commands),
                             ("mc", traj.marginal_cost)):
            got.update({f"{name}_{g}": v for g, v in zip(gens, series[i])})
        assert list(traj.states[i]) == pytest.approx(
            row["state"], rel=0, abs=TOL), f"state at sample {i}"
        for key, value in got.items():
            assert value == pytest.approx(row[key], rel=0, abs=TOL), \
                f"{key} at sample {i}"
