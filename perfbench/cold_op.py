"""The first op in a fresh process.

    python3 perfbench/cold_op.py IN_DIR OUT_DIR

Imports siegelq, then runs op 0 of the run whose inputs are in IN_DIR,
writing to OUT_DIR, and prints {"seconds": ..., "failure": ...,
"peak_mb": ...}, the last being this process's peak RSS.  The import is
not timed: setup_s covers it.
"""

import json
import sys
from pathlib import Path
from time import perf_counter

from siegelq import cli

import workloads


def peak_rss_mb():
    """Peak RSS of this process since it started, in MB.  It is VmHWM, not
    ru_maxrss: on Linux ru_maxrss also covers the parent's RSS when it
    forked this process."""
    for line in Path("/proc/self/status").read_text().splitlines():
        if line.startswith("VmHWM:"):
            return int(line.split()[1]) / 1024
    raise RuntimeError("no VmHWM in /proc/self/status")


if __name__ == "__main__":
    in_dir, out_dir = (Path(a) for a in sys.argv[1:])
    steps = workloads.op_steps(workloads.read_manifest(in_dir), 0, in_dir, out_dir)
    start = perf_counter()
    failure, _ = workloads.execute(cli, steps)
    seconds = perf_counter() - start
    print(json.dumps({"seconds": seconds, "failure": failure, "peak_mb": peak_rss_mb()}))
