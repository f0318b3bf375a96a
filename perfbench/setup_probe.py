"""Set-up probe: import snailtwpa.cli and make one small warm-up call.

    python3 perfbench/setup_probe.py WORKLOAD WORKDIR

The parent (run.py) times this process from launch until it prints its
first line.  The second line is a JSON object: ``inside``, the host-speed
probe times taken while importing and warming up (see hostspeed.py), and
``speed``, those the correction uses.  With them the parent corrects the
set-up time for host speed as it does operation times.
"""

import json
import sys
from pathlib import Path

import hostspeed

with hostspeed.Sampled() as timing:
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
    from workloads import WORKLOADS

    WORKLOADS[sys.argv[1]].warm_up(Path(sys.argv[2]))
print("ready", flush=True)
print(json.dumps({"inside": timing.samples, "speed": timing.speed}), flush=True)
