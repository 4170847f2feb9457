"""Import etkit and build one workload's inputs from its seed, then exit.

``run.py`` times this script in a fresh interpreter for ``setup_s``: it
is what every etkit command pays before doing any work.

    python3 perfbench/setup_probe.py <workload> <seed>
"""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import workloads  # noqa: E402  (imports etkit from the path set above)

if __name__ == "__main__":
    workloads.build(sys.argv[1], int(sys.argv[2]))
