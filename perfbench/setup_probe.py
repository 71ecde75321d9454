"""One set-up sample: a fresh interpreter made ready for a workload.

Imports ``repro.api`` (through the workload module), runs the
workload's one-point warm-up of each objective it uses (lazy template
compilation, first context), then prints ``ready``.  ``run.py`` times
it from spawn to that line.

Run:  python3 perfbench/setup_probe.py <workload>
"""

import pathlib
import sys

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parents[1] / "src"))

from workloads import WORKLOADS  # noqa: E402  (needs the src path above)

WORKLOADS[sys.argv[1]].warm_up()
print("ready", flush=True)
