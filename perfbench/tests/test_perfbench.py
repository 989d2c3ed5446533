"""Tests of the benchmark itself, at tiny sizes.

    python3 -m pytest perfbench/tests

They show that every workload passes its oracles, that a corrupted or
non-deterministic output is counted as a failed op, and that the oracles
agree with independent formulas.
"""

import ast
import itertools
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
BENCH = HERE.parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(BENCH.parent / "src"))

import oracles  # noqa: E402
import reference  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402
from siegelq import cli  # noqa: E402

TINY = {
    "thm41-deg2": {"trace_bound": 2},
    "series-deg1": {"trace_bound": 20},
    "coset-system": {"listing": [2, 3], "count_degree": 2, "count_primes": [3, 5]},
}


class Corrupting:
    """A cli stand-in that runs the real command, then rewrites the output
    of the ``nth`` call whose command is ``command``."""

    def __init__(self, command, edit, nth=0):
        self.command, self.edit, self.nth = command, edit, nth
        self.seen = 0

    def run(self, argv):
        code = cli.run(argv)
        if argv[0] == self.command:
            if self.seen == self.nth:
                path = Path(argv[argv.index("-o") + 1])
                path.write_text(self.edit(path.read_text()))
            self.seen += 1
        return code


def bench_for(tmp_path, workload, seed=1, runner=cli):
    manifest = workloads.write_inputs(workload, seed, tmp_path / "in", TINY[workload])
    work = tmp_path / "work"
    work.mkdir()
    return run.Bench(manifest, tmp_path / "in", work, runner)


def run_ops(bench, count):
    for i in range(count):
        bench.op(i)
    return bench.judge()


@pytest.mark.parametrize("workload", sorted(TINY))
def test_workload_passes_its_oracles(tmp_path, workload):
    bench = bench_for(tmp_path, workload)
    ops = 2 * len(bench.manifest["schedule"]) + 1
    assert run_ops(bench, ops) == 0
    assert len(bench.ops) == ops


@pytest.mark.parametrize("lattice", sorted(workloads.LATTICES))
def test_every_lattice_meets_the_thm41_verdict(tmp_path, lattice):
    bench = bench_for(tmp_path, "thm41-deg2")
    for entry in bench.manifest["schedule"]:
        entry["lattice"] = lattice
        gram = workloads._transform(workloads.LATTICES[lattice], entry["u"])
        (tmp_path / "in" / entry["gram_file"]).write_text(
            json.dumps({"rank": 4, "gram": gram}))
    assert run_ops(bench, 2) == 0


def bump_first_coefficient(text):
    doc = json.loads(text)
    entry = doc["coeffs"][1]
    value = entry["value"]
    if isinstance(value, list):
        value[0][0] = str(oracles.Fraction(value[0][0]) + 1)
    else:
        entry["value"] = str(oracles.Fraction(value) + 1)
    return json.dumps(doc, sort_keys=True, indent=2) + "\n"


def duplicate_a_coset(text):
    doc = json.loads(text)
    doc[-1]["mat"] = doc[-2]["mat"]
    return json.dumps(doc, sort_keys=True, indent=2) + "\n"


def flip_verdict(text):
    doc = json.loads(text)
    doc["min_valuation"] = 2
    return json.dumps(doc, sort_keys=True, indent=2) + "\n"


@pytest.mark.parametrize("workload, command, edit", [
    ("thm41-deg2", "theta", bump_first_coefficient),
    ("thm41-deg2", "thm41", flip_verdict),
    ("series-deg1", "mul", bump_first_coefficient),
    ("series-deg1", "bracket", bump_first_coefficient),
    ("series-deg1", "frobenius", bump_first_coefficient),
    ("coset-system", "cosets", duplicate_a_coset),
])
def test_corrupted_output_counts_as_failure(tmp_path, workload, command, edit):
    bench = bench_for(tmp_path, workload, runner=Corrupting(command, edit))
    # The corrupted first output is the reference for its repeats, so the
    # oracle must catch it: every op that emits it fails.
    failed = run_ops(bench, 1)
    assert failed == 1


def test_output_differing_on_repeat_counts_as_failure(tmp_path):
    # Same JSON value, different bytes: only the determinism check sees it.
    # Each tiny op runs cosets three times; call 3 is op 1's listing.
    bench = bench_for(tmp_path, "coset-system", runner=Corrupting(
        "cosets", lambda text: text + " ", nth=3))
    assert run_ops(bench, 2) == 1


def test_failing_exit_code_counts_as_failure(tmp_path):
    bench = bench_for(tmp_path, "series-deg1")
    bench.steps = lambda index, out: [
        ("vp", ("x",), ["vp", "--value", "1/0", "--prime", "5", "-o", str(out / "v.json")])]
    bench.op(0)
    assert bench.judge() == 1


def test_seed_fixes_inputs(tmp_path):
    a = workloads.write_inputs("thm41-deg2", 7, tmp_path / "a")
    b = workloads.write_inputs("thm41-deg2", 7, tmp_path / "b")
    assert a == b
    assert (tmp_path / "a" / "gram0.json").read_bytes() == (tmp_path / "b" / "gram0.json").read_bytes()
    others = [workloads.write_inputs("thm41-deg2", s, tmp_path / str(s))["schedule"]
              for s in range(1, 5)]
    assert any(o != a["schedule"] for o in others)


def test_tracing_counts_calls_and_restores_entry_points(tmp_path):
    bench = bench_for(tmp_path, "series-deg1")
    from siegelq import padic, qexpansion
    original_mul = qexpansion.FourierExpansion.__mul__
    original_bracket = padic.rankin_cohen
    tracer = spans.Tracer()
    restore = spans.install(tracer)
    try:
        assert padic.rankin_cohen is not original_bracket
        bench.op(0)
    finally:
        spans.uninstall(restore)
    assert qexpansion.FourierExpansion.__mul__ is original_mul
    assert padic.rankin_cohen is original_bracket
    steps = bench.steps(0, tmp_path)
    assert tracer.counts["cli.calls"] == len(steps)
    # One bracket per (k, l) pair, each over the 21 * 22 / 2 index pairs
    # with sum at most 20.
    assert tracer.counts["diffops.bracket_pairs"] == 3 * 21 * 22 // 2
    assert tracer.layer_self_s("qexpansion") > 0
    assert bench.judge() == 0


def test_oracles_agree_with_independent_formulas():
    assert oracles.delta(30) == oracles.delta_product(30)
    assert oracles.delta(5)[:4] == [0, 1, -24, 252]
    theta = oracles.theta2(workloads.LATTICES["A4"], 1, 4)
    assert theta[((2, 0), (0, 0))] == 20  # the 20 roots of A4
    assert oracles.gaussian_binomial(3, 1, 3) == 13
    assert oracles.coset_count(3, 3) == 1120
    with pytest.raises(oracles.Mismatch):
        oracles.theta2(workloads.LATTICES["D4"], 4, 2)


def test_ops_are_reported_in_reference_units(monkeypatch):
    """Each op is divided by the mean of the reference timings just before
    and just after it; set-up stays in seconds."""

    class Stub:
        cold_peak_mb = [30.0]

        def op(self, index):
            return 2.0

        def cold_op(self, sample):
            return 3.0

    timings = itertools.cycle([0.5, 1.0])
    monkeypatch.setattr(run, "time_reference", lambda: next(timings))
    metrics, info = run.end_to_end(Stub(), [0.1], lambda sample: 0.2, 0)
    assert metrics["op_ref.p50"]["value"] == pytest.approx(2.0 / 0.75)
    assert metrics["cold_op_ref"]["value"] == pytest.approx(3.0 / 0.75)
    assert metrics["setup_s"]["value"] == 0.2
    assert info["op_s.p50"] == 2.0 and info["cold_op_s.p50"] == 3.0


def test_reference_is_fixed_work_outside_the_program():
    assert reference.reference() == reference.reference()
    tree = ast.parse((BENCH / "reference.py").read_text())
    imported = {alias.name for node in ast.walk(tree)
                if isinstance(node, ast.Import) for alias in node.names}
    imported |= {node.module for node in ast.walk(tree)
                 if isinstance(node, ast.ImportFrom)}
    assert imported <= {"itertools", "json", "random"}


def test_run_without_sources_exits_nonzero(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", "tests"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "series-deg1",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
