"""Benchmark of the siegelq command line, driven in-process.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; the program is imported from ``src/``.
The seed fixes the run's inputs (see workloads.py).  A run times, with
tracing off:

  setup_s      median of 21 fresh interpreters that import siegelq and
               write the run's seeded inputs: one before the ops, the
               others spread through them;
  cold_op_ref  median first op in a fresh process, in reference units:
               this process's op 0, then child processes alternating
               with the warm ops (imports excluded; setup_s has them);
  op_ref.p50   median op after the first, in reference units, ops
               repeated until ``--seconds`` have passed (at least 3);
  peak_rss_mb  median peak RSS of the child processes of the cold ops,
               each of which imported siegelq and ran one op.

An op's time in reference units is its wall seconds over the mean of the
two timings of the fixed reference computation (reference.py) made
just before and just after it, on the same core.  The machines this
runs on are shared: other tenants slow this process by up to 2x,
switching every few seconds, and the share of slow time drifts over
minutes, so over 10 seeds the median op in seconds spread 13 to 43%,
in reference units 2 to 6% (README.md).  The
seconds of every op and reference timing are in the info line, with
their medians, and so is the fastest time of each input key's steps
within an op (``key_s.min``).

With ``--trace 1`` it instead alternates untraced and traced ops (spans.py)
and reports per-layer self time and work counters per traced op, plus
the tracing overhead; the spans go to
``.perfbench/spans-<workload>-seed<N>.json.gz``.

Every output is checked against an exact oracle (oracles.py) and against
earlier outputs of the same inputs in the run, which must be
byte-identical.  An op fails when a step raises, exits with a code other
than 0, fails its oracle or differs on repeat.  The last line of stdout is
the result, the line before it the environment and fail ratio.  One
process, one thread: the load is sequential by design.
"""

import argparse
import gc
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import traceback
from pathlib import Path
from time import perf_counter

import reference
import spans
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
STATE = ROOT / ".perfbench"

SETUP_SAMPLES = 21
MIN_OPS = 3
MIN_TRACE_OPS = 2
CHILD_TIMEOUT_S = 150


def environment():
    return {
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "loadavg": [round(x, 2) for x in os.getloadavg()],
        "workers": 1,
        "threads": 1,
    }


def child_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    return env


def child(argv):
    """Run a helper script of this directory in a fresh interpreter with
    src/ on the path; returns (returncode, stdout, stderr), with returncode
    None if it timed out."""
    try:
        proc = subprocess.run([sys.executable] + argv, env=child_env(), text=True,
                              capture_output=True, timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return None, "", "timed out after %d s" % CHILD_TIMEOUT_S
    return proc.returncode, proc.stdout, proc.stderr


def set_up(workload, seed, out):
    """Wall seconds of a fresh interpreter importing siegelq and writing
    the seeded inputs to ``out``."""
    start = perf_counter()
    code, _, err = child([str(HERE / "setup_inputs.py"), workload, str(seed), str(out)])
    seconds = perf_counter() - start
    if code != 0:
        raise RuntimeError("set-up failed: " + err[-2000:])
    return seconds


class Bench:
    """Runs ops, keeps the first output of every (step, input key) and
    judges every op after the timed part is over."""

    def __init__(self, manifest, in_dir, work, cli):
        self.manifest = manifest
        self.in_dir = in_dir
        self.work = work
        self.cli = cli
        self.first = {}
        self.ops = []
        self.key_s = {}
        self.cold_peak_mb = []

    def steps(self, index, out_dir):
        return workloads.op_steps(self.manifest, index, self.in_dir, out_dir)

    def op(self, index):
        """Run op ``index`` in this process; returns its wall seconds."""
        out = self.work / "out"
        shutil.rmtree(out, ignore_errors=True)
        out.mkdir()
        steps = self.steps(index, out)
        gc.collect()
        start = perf_counter()
        step_s = []
        try:
            failure, step_s = workloads.execute(self.cli, steps)
        except Exception:
            failure = traceback.format_exc()
        seconds = perf_counter() - start
        self.record(steps, failure)
        if not failure:
            per_key = {}
            for (_, key, _), t in zip(steps, step_s):
                per_key[str(key)] = per_key.get(str(key), 0.0) + t
            for key, t in per_key.items():
                self.key_s.setdefault(key, []).append(t)
        return seconds

    def cold_op(self, sample):
        """Run op 0 in a fresh child process; returns its wall seconds and
        keeps the child's peak RSS."""
        out = self.work / ("cold%d" % sample)
        out.mkdir()
        code, stdout, stderr = child([str(HERE / "cold_op.py"), str(self.in_dir), str(out)])
        steps = self.steps(0, out)
        if code != 0:
            self.record(steps, "cold op exited %d: %s" % (code, stderr[-2000:]))
            return None
        result = json.loads(stdout.splitlines()[-1])
        self.record(steps, result["failure"])
        self.cold_peak_mb.append(result["peak_mb"])
        shutil.rmtree(out)
        return result["seconds"]

    def record(self, steps, failure):
        problems = [failure] if failure else []
        if not failure:
            for label, key, argv in steps:
                data = Path(argv[argv.index("-o") + 1]).read_bytes()
                if data != self.first.setdefault((label, key), data):
                    problems.append("%s %r: output differs from an earlier run "
                                    "of the same input" % (label, key))
        self.ops.append(([(label, key) for label, key, _ in steps], problems))

    def judge(self):
        """Check each first output against its oracle; returns the number
        of failed ops and prints the reason for each failure to stderr."""
        w = workloads.WORKLOADS[self.manifest["workload"]]
        size = self.manifest["size"]
        wrong = {}
        for (label, key), data in self.first.items():
            try:
                w.expected(size, label, key)(json.loads(data))
            except Exception as exc:
                wrong[(label, key)] = "%s %r: %s: %s" % (
                    label, key, type(exc).__name__, exc)
        failed = 0
        for keys, problems in self.ops:
            problems = problems + [wrong[k] for k in keys if k in wrong]
            if problems:
                failed += 1
                print("op failed: " + "; ".join(problems), file=sys.stderr)
        return failed


def metric(value, unit):
    return {"value": value, "unit": unit}


def time_reference():
    gc.collect()
    start = perf_counter()
    reference.reference()
    return perf_counter() - start


def end_to_end(bench, setup_s, set_up_again, seconds):
    """Op 0 in this process, then, until ``seconds`` have passed, cold ops
    in child processes alternating with warm ops in this one, and the
    set-ups spread evenly through that window, so that every statistic
    samples the same stretch of machine time.  The reference computation
    is timed before the first op and after every op, so each op is
    bracketed by two reference times; an op's time in reference units is
    its seconds over their mean.  Everything runs on one core (children
    inherit the pinning), so that the reference is timed where the ops
    ran.  ``setup_s`` holds the first set-up's seconds; the others are
    appended by ``set_up_again(sample_index)``."""
    cpus = os.sched_getaffinity(0)
    os.sched_setaffinity(0, {max(cpus)})
    try:
        ref = [time_reference()]
        ops = [("cold", bench.op(0))]
        ref.append(time_reference())
        start = perf_counter()
        while (len(ops) <= 2 * MIN_OPS or len(setup_s) < SETUP_SAMPLES
               or perf_counter() - start < seconds):
            if (len(setup_s) < SETUP_SAMPLES and perf_counter() - start
                    >= seconds * len(setup_s) / SETUP_SAMPLES):
                setup_s.append(set_up_again(len(setup_s)))
                continue
            if len(ops) % 2 == 0:
                ops.append(("cold", bench.cold_op(len(ops) // 2)))
            else:
                ops.append(("warm", bench.op(1 + len(ops) // 2)))
            ref.append(time_reference())
    finally:
        os.sched_setaffinity(0, cpus)
    seconds_of = {"cold": [], "warm": []}
    refs_of = {"cold": [], "warm": []}
    for i, (kind, t) in enumerate(ops):
        if t is not None:
            seconds_of[kind].append(t)
            refs_of[kind].append(2 * t / (ref[i] + ref[i + 1]))
    metrics = {
        "setup_s": metric(statistics.median(setup_s), "s"),
        "cold_op_ref": metric(statistics.median(refs_of["cold"]), "ref"),
        "op_ref.p50": metric(statistics.median(refs_of["warm"]), "ref"),
        "peak_rss_mb": metric(statistics.median(bench.cold_peak_mb), "MB"),
    }
    return metrics, {"setup_s": setup_s, "cold_op_s": seconds_of["cold"],
                     "op_s": seconds_of["warm"], "ref_s": ref,
                     "cold_op_s.p50": statistics.median(seconds_of["cold"]),
                     "op_s.p50": statistics.median(seconds_of["warm"]),
                     "ref_s.p50": statistics.median(ref),
                     "op_s.min": min(seconds_of["warm"])}


def per_layer(bench, seconds, workload, seed, env):
    """Op 0, then ops for ``seconds``, alternately untraced and traced so
    that both halves sample the same stretch of machine time."""
    bench.op(0)
    tracer = spans.Tracer()
    untraced, traced = [], []
    start = perf_counter()
    while len(traced) < MIN_TRACE_OPS or perf_counter() - start < seconds:
        index = 1 + len(untraced) + len(traced)
        if len(traced) < len(untraced):
            restore = spans.install(tracer)
            try:
                traced.append(bench.op(index))
            finally:
                spans.uninstall(restore)
        else:
            untraced.append(bench.op(index))
    path = STATE / ("spans-%s-seed%d.json.gz" % (workload, seed))
    tracer.write(path, {"workload": workload, "seed": seed, "env": env,
                        "traced_op_s": traced})
    n = len(traced)
    c = tracer.counts

    def count(name):
        return metric(c[name] / n, "count")

    def self_s(*names):
        return metric(tracer.named_self_s(*names) / n, "s")

    def ratio(a, b):
        return metric(a / b if b else 0.0, "ratio")

    metrics = {}
    for layer in spans.LAYERS:
        metrics[layer + ".self_s"] = metric(tracer.layer_self_s(layer) / n, "s")
    metrics.update({
        "theta.calls": count("theta.calls"),
        "theta.vectors": count("theta.vectors"),
        "theta.tuples": count("theta.tuples"),
        "theta.keys_per_tuple": ratio(c["theta.keys"], c["theta.tuples"]),
        "qexpansion.mul_calls": count("qexpansion.mul_calls"),
        "qexpansion.mul_pairs": count("qexpansion.mul_pairs"),
        "qexpansion.mul_self_s": self_s("qexpansion:FourierExpansion.__mul__"),
        "qexpansion.json_self_s": self_s(
            "qexpansion:to_json_dict", "qexpansion:from_json_dict",
            "qexpansion:dumps", "qexpansion:loads"),
        "qexpansion.terms_out": count("qexpansion.terms_out"),
        "diffops.bracket_pairs": count("diffops.bracket_pairs"),
        "diffops.bracket_self_s": self_s("diffops:rankin_cohen"),
        "diffops.thetaop_self_s": self_s("diffops:theta_operator"),
        "padic.keys_compared": count("padic.keys_compared"),
        "symplectic.cosets_built": count("symplectic.cosets_built"),
        "symplectic.elements_checked": count("symplectic.elements_checked"),
        "symplectic.cosets_per_check": ratio(c["symplectic.cosets_built"],
                                             c["symplectic.elements_checked"]),
        "cli.calls": count("cli.calls"),
        "halfint.psd_checks": count("halfint.psd_checks"),
        "trace.overhead_ratio": metric(
            statistics.median(traced) / statistics.median(untraced) - 1, "ratio"),
    })
    return metrics, {"op_s": untraced, "traced_op_s": traced, "spans": str(path)}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "siegelq" / "__init__.py").is_file():
        print("error: %s has no siegelq sources; run from a checkout of the "
              "repository" % SRC, file=sys.stderr)
        return 2
    env = environment()
    STATE.mkdir(exist_ok=True)
    work = STATE / ("work-%d" % os.getpid())
    work.mkdir()
    try:
        in_dir = work / "inputs0"
        setup_s = [set_up(args.workload, args.seed, in_dir)]
        manifest = (in_dir / "manifest.json").read_bytes()

        def set_up_again(sample):
            out = work / ("inputs%d" % sample)
            seconds = set_up(args.workload, args.seed, out)
            if (out / "manifest.json").read_bytes() != manifest:
                raise RuntimeError("the same seed gave different inputs")
            shutil.rmtree(out)
            return seconds

        sys.path.insert(0, str(SRC))
        from siegelq import cli

        bench = Bench(json.loads(manifest), in_dir, work, cli)
        if args.trace:
            metrics, info = per_layer(bench, args.seconds, args.workload, args.seed, env)
        else:
            metrics, info = end_to_end(bench, setup_s, set_up_again, args.seconds)
        failed = bench.judge()
    finally:
        shutil.rmtree(work, ignore_errors=True)
    attempted = len(bench.ops)
    info.update({"env": env, "fail_ratio": failed / attempted,
                 "key_s.min": {k: min(v) for k, v in bench.key_s.items()}})
    print(json.dumps({"info": info}))
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
