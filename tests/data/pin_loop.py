"""Write the pinned closed loops in pinned_loop_ba485bb.json.

The references are the sim.ClosedLoop that ``sim.assemble`` built at
commit ba485bb, the last commit that built J as a dense matrix and took
its nonzeros: J's and p_m's rows as (rows, cols, values), the step load
c, the line ends E and S as (rows, values), every float as float.hex.
Three cases: two_gen.scn, ring9.scn and a seeded 40-bus
``tests/meshes.ring_with_chords`` mesh with generic blocks (feedthrough
D != 0, a dense A with zero entries) and a generator bus of damping 0.
To regenerate them:

    mkdir OLD && git archive ba485bb src | tar -x -C OLD
    PYTHONPATH=OLD/src:tests python3 tests/data/pin_loop.py \\
        > tests/data/pinned_loop_ba485bb.json
"""

import json

from gridfreq.cli import load_scenario
from gridfreq.fixtures import fixture_path
from gridfreq.sim import assemble
from meshes import ring_with_chords, with_generic_blocks


def cases() -> dict:
    """The pinned scenarios by name."""
    mesh = ring_with_chords(11, buses=40, generators=10, chords=12)
    return {"two_gen": load_scenario(fixture_path("two_gen.scn")),
            "ring9": load_scenario(fixture_path("ring9.scn")),
            "mesh40_generic": with_generic_blocks(mesh, seed=12)}


def loop_values(scn) -> dict:
    """The closed loop of scn: index arrays as ints, floats as float.hex."""
    loop = assemble(scn)

    def hexed(values):
        return [float(v).hex() for v in values]

    return {
        "jac": [loop.jac[0].tolist(), loop.jac[1].tolist(), hexed(loop.jac[2])],
        "pm_rows": [loop.pm_rows[0].tolist(), loop.pm_rows[1].tolist(),
                    hexed(loop.pm_rows[2])],
        "load": hexed(loop.load),
        "load_time": float(loop.load_time).hex(),
        "ends": [end.tolist() for end in loop.ends],
        "spread": [[rows.tolist() for rows in loop.spread[0]],
                   [hexed(vals) for vals in loop.spread[1]]],
    }


def dumps(loops: dict) -> str:
    """JSON with one line per array of each loop."""
    return "{\n" + ",\n".join(
        f"{json.dumps(name)}: {{\n" + ",\n".join(
            f" {json.dumps(key)}: {json.dumps(value)}" for key, value in loop.items())
        + "}" for name, loop in loops.items()) + "}"


if __name__ == "__main__":
    print(dumps({name: loop_values(scn) for name, scn in cases().items()}))
