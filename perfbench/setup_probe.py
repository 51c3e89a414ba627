"""Set-up probe: a fresh interpreter imports gridfreq and loads one input.

    python3 perfbench/setup_probe.py <scenario .scn or blocks .json>

Prints one JSON line: the CLOCK_MONOTONIC time at which the process was
ready, the import and load spans, and the time of the host-speed reference
(hostspeed.py) run right after.  run.py starts several of these and takes
set-up time as ready minus the moment it started the process.
"""

import time

T_START = time.monotonic()

import json  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import gridfreq.cli  # noqa: E402

T_IMPORTED = time.monotonic()

path = Path(sys.argv[1])
if path.suffix == ".json":
    import inputs  # noqa: E402
    loaded = inputs.build_blocks(json.loads(path.read_text(encoding="utf-8")))
    load_span = "inputs.build_blocks"
else:
    loaded = gridfreq.cli.load_scenario(path)
    load_span = "cli.load_scenario"
T_READY = time.monotonic()

import hostspeed  # noqa: E402

print(json.dumps({
    "ready": T_READY,
    "reference_s": hostspeed.reference(),
    "gridfreq": gridfreq.cli.__file__,
    "spans": [
        {"name": "import.gridfreq", "start": T_START, "end": T_IMPORTED},
        {"name": load_span, "start": T_IMPORTED, "end": T_READY},
    ],
}))
