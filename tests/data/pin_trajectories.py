"""Write the pinned reference trajectories in pinned_a2d6fc8.json.

The references were produced by the dict-state simulator of commit
a2d6fc8, before the closed loop was rewritten in matrix form, and this
script is written against that commit's API.  To regenerate them:

    mkdir OLD && git archive a2d6fc8 src | tar -x -C OLD
    PYTHONPATH=OLD/src python3 tests/data/pin_trajectories.py \
        > tests/data/pinned_a2d6fc8.json

For two_gen.scn and ring9.scn it certifies every generator, adopts the
certified k_f (as ``gridfreq simulate`` does), integrates with the
Lyapunov monitor on, and records the sample count, nu, the largest V
jump, and every 100th sample: the full flat state (angles, generator
frequencies, generator internal states, commands) and the trajectory.csv
columns omega_*, pm_*, pc_*, mc_* and V.
"""

import dataclasses
import json

from gridfreq import sim
from gridfreq.certify import search_certificate
from gridfreq.cli import load_scenario
from gridfreq.fixtures import fixture_path

EVERY = 100


def reference(name):
    scn = load_scenario(fixture_path(name))
    gens = sorted(scn.network.generator_ids)
    certs = {g: search_certificate(scn.generators[g], scn.controllers[g],
                                   scn.network.bus(g).damping) for g in gens}
    scn = dataclasses.replace(scn, controllers={
        g: dataclasses.replace(scn.controllers[g], k_f=certs[g].k_f)
        for g in gens})
    eq = sim.compute_equilibrium(scn)
    traj = sim.integrate(scn, certs=certs, equilibrium=eq)
    packed = sim._Packed(scn)
    samples = []
    for i in range(0, len(traj.times), EVERY):
        row = {"index": i, "t": traj.times[i],
               "state": packed.pack(traj.states[i])}
        row.update({f"omega_{b}": traj.freqs[b][i] for b in sorted(traj.freqs)})
        row.update({f"pm_{g}": traj.p_m[g][i] for g in gens})
        row.update({f"pc_{g}": traj.states[i].power_commands[g] for g in gens})
        row.update({f"mc_{g}": traj.marginal_cost[g][i] for g in gens})
        row["V"] = traj.lyapunov[i]
        samples.append(row)
    return {"samples": len(traj.times), "nu": eq.nu,
            "max_v_jump": sim.dissipation_check(scn, certs, eq, traj),
            "rows": samples}


def dumps(refs) -> str:
    """JSON with one line per sample row."""
    parts = []
    for name, ref in refs.items():
        head = {k: v for k, v in ref.items() if k != "rows"}
        rows = ",\n  ".join(json.dumps(row) for row in ref["rows"])
        parts.append(f" {json.dumps(name)}: {json.dumps(head)[:-1]},\n"
                     f'  "rows": [\n  {rows}]}}')
    return "{\n" + ",\n".join(parts) + "\n}"


if __name__ == "__main__":
    print(dumps({name: reference(name) for name in ("two_gen.scn", "ring9.scn")}))
