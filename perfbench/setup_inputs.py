"""Set-up as a CLI user pays it: a fresh interpreter imports siegelq and
writes one run's seeded inputs.

    python3 perfbench/setup_inputs.py WORKLOAD SEED OUT_DIR

run.py times this (with ``src`` on PYTHONPATH) and reports the median.
"""

import sys

import siegelq.cli  # noqa: F401  (the import is part of what is timed)

import workloads

if __name__ == "__main__":
    workload, seed, out_dir = sys.argv[1:]
    workloads.write_inputs(workload, int(seed), out_dir)
