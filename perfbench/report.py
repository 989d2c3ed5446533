"""Print every benchmark metric, with its unit, for all three workloads.

    python3 perfbench/report.py

Runs run.py once untraced and once traced per workload, at seed 1 and
for the ``run_seconds`` of BENCHMARK.json, and prints one line per
metric: the end-to-end metrics, the fail ratio, the median op, cold op
and reference times in seconds, the fastest op time, the sample count,
the fastest time of each input key's steps within an op, every
per-layer metric, each layer's share of traced self time, and the
environment of each run.
"""

import json
import subprocess
import sys
from pathlib import Path

import spans
import workloads

HERE = Path(__file__).resolve().parent
SEED = 1


def run(workload, seconds, trace):
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(SEED), "--seconds", str(seconds), "--trace", str(trace)],
        cwd=HERE.parent, capture_output=True, text=True, check=True)
    lines = proc.stdout.splitlines()
    return json.loads(lines[-2])["info"], json.loads(lines[-1])


def main():
    seconds = json.loads((HERE.parent / "BENCHMARK.json").read_text())["run_seconds"]
    row = "%-13s %-30s %16s  %s"
    print(row % ("workload", "metric", "value", "unit"))
    for workload in sorted(workloads.WORKLOADS):
        info, result = run(workload, seconds, 0)
        for name, m in result["metrics"].items():
            print(row % (workload, name, "%.6g" % m["value"], m["unit"]))
        print(row % (workload, "fail_ratio", "%.6g" % info["fail_ratio"], "ratio"))
        for name in ("op_s.p50", "cold_op_s.p50", "ref_s.p50", "op_s.min"):
            print(row % (workload, name + " (not gated)", "%.6g" % info[name], "s"))
        print(row % (workload, "op_s samples", len(info["op_s"]), "count"))
        print(row % (workload, "attempted", result["attempted"], "count"))
        for key, t in info["key_s.min"].items():
            print(row % (workload, "key_s.min " + key, "%.6g" % t, "s"))
        env = info["env"]
        traced_info, traced = run(workload, seconds, 1)
        metrics = traced["metrics"]
        for name, m in metrics.items():
            print(row % (workload, name, "%.6g" % m["value"], m["unit"]))
        print(row % (workload, "traced fail_ratio", "%.6g" % traced_info["fail_ratio"], "ratio"))
        total = sum(metrics[layer + ".self_s"]["value"] for layer in spans.LAYERS)
        for layer in spans.LAYERS:
            share = metrics[layer + ".self_s"]["value"] / total if total else 0.0
            print(row % (workload, "share " + layer, "%.1f" % (100 * share), "%"))
        print("%-13s env: Python %s, nproc %d, load %s; one worker process, "
              "single-threaded by design; spans in %s" % (
                  workload, env["python"], env["nproc"], env["loadavg"],
                  traced_info["spans"]))


if __name__ == "__main__":
    main()
