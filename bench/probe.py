"""Set-up probe, run in a fresh interpreter by run.py:

    python3 bench/probe.py <workload> <seed>

Imports xroad as the workload's entry point does, builds and validates the
workload's inputs, and prints one JSON line with CLOCK_MONOTONIC readings:
when the import started, when it ended, and when the inputs were ready.
The parent subtracts its own reading from just before it started this
process, so set-up time counts interpreter start-up too.
"""

import json
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

workload, seed = sys.argv[1], int(sys.argv[2])
t_import = time.monotonic()
import xroad.cli  # noqa: E402  (every workload's entry points, CLI included)
t_imported = time.monotonic()

import inputs  # noqa: E402

if workload == "analytic-sweeps":
    inputs.analytic_specs(seed)
    inputs.spot_scenarios(seed)
elif workload == "mc-presets":
    inputs.preset_inputs(ROOT)
elif workload == "verify-2w":
    inputs.verify_grid()
else:
    sys.exit(f"unknown workload {workload!r}")
print(json.dumps({"import_start": t_import, "imported": t_imported,
                  "ready": time.monotonic()}))
