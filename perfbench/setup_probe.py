"""Set-up probe: import the library, build one workload's inputs, say "ready".

run.py times this child from spawn to its "ready" line, which is the
interpreter start, `import dipolegauge` and the input generation that come
before the first timed call of a run.

    python3 perfbench/setup_probe.py WORKLOAD SEED
"""

import sys
from pathlib import Path

import workloads

workloads.WORKLOADS[sys.argv[1]](int(sys.argv[2]), Path(__file__).resolve().parent.parent / ".perfbench_out")
print("ready", flush=True)
