"""The three benchmark workloads: seeded inputs, CLI steps and oracles.

An op is one full pipeline pass: a list of ``siegelq`` commands run in
order, each writing its output to a file.  ``write_inputs`` draws a run's
inputs from the seed and writes them with a manifest; op ``i`` of a run
uses ``manifest["schedule"][i % len(schedule)]``.  Each workload then
says, for every step, which exit code to expect, which inputs its output
depends on (outputs that share that key must be byte-identical within a
run), and how to check the output against ``oracles``.

Why these workloads: each stresses a different layer, so an optimisation
of one layer has a workload that exercises it and others that should not
move.  ``thm41-deg2`` is almost all theta enumeration, ``series-deg1`` is
ring convolution and the bracket pair loop on long series with large
rationals, and ``coset-system`` is symplectic matrix work plus large
output writing.
"""

import json
import random
from math import isqrt
from pathlib import Path
from time import perf_counter

import oracles

# -- thm41-deg2 ---------------------------------------------------------------

# Rank-4 even lattices; theta^2 of each has weight 4 and is 1 mod 5.
LATTICES = {
    "A4": [[2, -1, 0, 0], [-1, 2, -1, 0], [0, -1, 2, -1], [0, 0, -1, 2]],
    "D4": [[2, -1, 0, 0], [-1, 2, -1, -1], [0, -1, 2, 0], [0, -1, 0, 2]],
    "A2+A2": [[2, -1, 0, 0], [-1, 2, 0, 0], [0, 0, 2, -1], [0, 0, -1, 2]],
    "A3+A1": [[2, -1, 0, 0], [-1, 2, -1, 0], [0, -1, 2, 0], [0, 0, 0, 2]],
}
# Every Gram above has least eigenvalue above 1/4 (D4 has 2 - sqrt 3), so
# x^t Q x <= 2N forces |x|^2 <= 8N: a box of radius isqrt(8N) + 1 holds
# every vector the oracle must count.
THM41_PRIME = 5
THM41_WITNESS = {1: [[0, 0], [0, 2]], 2: [[2, -1], [-1, 2]]}


def _unimodular(rng, m):
    """A random matrix of determinant +-1: four elementary column
    operations with coefficient +-1, then a signed column permutation."""
    u = [[int(i == j) for j in range(m)] for i in range(m)]
    for _ in range(4):
        i, j = rng.sample(range(m), 2)
        s = rng.choice((-1, 1))
        for row in u:
            row[j] += s * row[i]
    perm = rng.sample(range(m), m)
    signs = [rng.choice((-1, 1)) for _ in range(m)]
    return [[signs[j] * row[perm[j]] for j in range(m)] for row in u]


def _transform(gram, u):
    m = len(gram)
    qu = [[sum(gram[i][k] * u[k][j] for k in range(m)) for j in range(m)]
          for i in range(m)]
    return [[sum(u[k][i] * qu[k][j] for k in range(m)) for j in range(m)]
            for i in range(m)]


class Thm41:
    """theta of U^t Q U at degree 2, its square, and thm41 at p = 5 for
    both minor orders.  The run draws Q and two distinct U from the seed;
    ops alternate between the two transforms.  Everything an op emits
    depends on Q alone (theta coefficients are GL_n(Z)-invariant), so the
    determinism key is Q: two different U must give identical bytes."""

    name = "thm41-deg2"
    # Trace bound 3, not the paper's 4: at 4 an op takes 3.5 to 7.5 s
    # here, a 25 s run gets 3 samples, and the spread over seeds of the
    # fastest op reached 29%.  At 3 theta still dominates and an op takes
    # about 0.6 to 1.1 s.
    default_size = {"trace_bound": 3}

    def inputs(self, rng, size, out_dir):
        lattice = rng.choice(sorted(LATTICES))
        gram = LATTICES[lattice]
        schedule = []
        while len(schedule) < 2:
            u = _unimodular(rng, len(gram))
            if all(entry["u"] != u for entry in schedule):
                schedule.append({"lattice": lattice, "u": u})
        for i, entry in enumerate(schedule):
            entry["gram_file"] = "gram%d.json" % i
            doc = {"rank": len(gram), "gram": _transform(gram, entry["u"])}
            (out_dir / entry["gram_file"]).write_text(json.dumps(doc) + "\n")
        return schedule

    def steps(self, size, entry, in_dir, out_dir):
        bound = str(size["trace_bound"])
        key = entry["lattice"]
        theta_out, pow_out = out_dir / "theta.json", out_dir / "pow.json"
        steps = [
            ("theta", key, ["theta", "--gram", str(in_dir / entry["gram_file"]),
                            "--degree", "2", "--trace-bound", bound,
                            "-o", str(theta_out)]),
            ("pow", key, ["pow", "--f", str(theta_out), "--exp", "2",
                          "-o", str(pow_out)]),
        ]
        for r in (1, 2):
            steps.append((
                "thm41-r%d" % r, key,
                ["thm41", "--f", str(pow_out), "--weight", "4",
                 "--prime", str(THM41_PRIME), "--m", "1", "--dilate-exp", "1",
                 "--minor-order", str(r), "-o", str(out_dir / ("thm41-r%d.json" % r))]))
        return steps

    def expected(self, size, label, key):
        bound = size["trace_bound"]
        theta = oracles.theta2(LATTICES[key], bound, isqrt(8 * bound) + 1)
        if label == "theta":
            return lambda doc: oracles.check_expansion(doc, theta, 2, bound)
        square = oracles.keys_mul(theta, theta, bound)
        if label == "pow":
            return lambda doc: oracles.check_expansion(doc, square, 2, bound)
        r = int(label[-1])
        report = {"p": THM41_PRIME, "m": 1, "holds": True, "min_valuation": 1,
                  "witness_t2": THM41_WITNESS[r], "bound": bound,
                  "normalized": False}
        return lambda doc: oracles.check_report(doc, report)


# -- series-deg1 ----------------------------------------------------------------

# (k, l) -> c with [E_k, E_l] = c * Delta * E_{k+l-10} (E_0 = 1).
BRACKET_CONSTANT = {(4, 6): -3456, (4, 10): -3456, (6, 8): 6912}
SERIES_PRIMES = (5, 7)


class Series:
    """Degree-1 ring at a long trace bound, for each (k, l) of
    BRACKET_CONSTANT: E_k, E_l, Delta, E_k E_l, E_k^3, the Frobenius
    descent of E_k and its congruence report at p = 5 and 7, and the
    bracket [E_k, E_l].  The pairs cost different amounts (the Eisenstein
    coefficients and the bracket weights differ), so every op runs all
    three and the seed only orders the pairs and, for each, the primes."""

    name = "series-deg1"
    # Trace bound 60, not 200: at 200 one pair took 2 to 3.5 s here, and an
    # op of three pairs took 1.8 s at 100 and 1.2 s at 80, which left too
    # few warm ops beside the cold ones for a steady fastest op.  At 60 an
    # op takes about 0.7 s and the convolution and bracket loops still do
    # about 80% of the work.
    default_size = {"trace_bound": 60}

    def inputs(self, rng, size, out_dir):
        pairs = sorted(BRACKET_CONSTANT)
        rng.shuffle(pairs)
        return [{"pairs": [{"k": k, "l": l, "primes": rng.sample(SERIES_PRIMES, 2)}
                           for k, l in pairs]}]

    def steps(self, size, entry, in_dir, out_dir):
        steps = []
        for pair in entry["pairs"]:
            steps += self.pair_steps(size, pair, out_dir)
        return steps

    def pair_steps(self, size, pair, out_dir):
        bound = str(size["trace_bound"])
        k, l = pair["k"], pair["l"]
        key = (k, l)

        def out(name):
            return str(out_dir / ("%d-%d-%s.json" % (k, l, name)))

        ek, el = out("ek"), out("el")
        steps = [
            ("ek", key, ["eisenstein", "--weight", str(k), "--trace-bound", bound, "-o", ek]),
            ("el", key, ["eisenstein", "--weight", str(l), "--trace-bound", bound, "-o", el]),
            ("delta", key, ["delta", "--trace-bound", bound, "-o", out("delta")]),
            ("mul", key, ["mul", "--f", ek, "--g", el, "-o", out("mul")]),
            ("pow3", key, ["pow", "--f", ek, "--exp", "3", "-o", out("pow3")]),
        ]
        for p in pair["primes"]:
            frob = out("frob%d" % p)
            steps.append(("frob%d" % p, key, ["frobenius", "--f", ek, "--prime", str(p), "-o", frob]))
            steps.append(("cong%d" % p, key, [
                "congruent", "--f", frob, "--g", ek, "--prime", str(p), "--m", "1",
                "-o", out("cong%d" % p)]))
        steps.append(("bracket", key, [
            "bracket", "--f", ek, "--g", el, "--minor-order", "1",
            "--weight-f", str(k), "--weight-g", str(l), "-o", out("bracket")]))
        return steps

    def expected(self, size, label, key):
        n = size["trace_bound"]
        k, l = key
        ek = oracles.eisenstein(k, n)

        def expansion(series, bound=n, block=None):
            keys = oracles.series_keys(series)
            return lambda doc: oracles.check_expansion(doc, keys, 1, bound, block)

        if label in ("ek", "el"):
            return expansion(oracles.eisenstein(k if label == "ek" else l, n))
        if label == "delta":
            return expansion(oracles.delta(n))
        if label == "mul":
            return expansion(oracles.eisenstein(k + l, n))
        if label == "pow3":
            return expansion(oracles.series_pow(ek, 3))
        if label == "bracket":
            rest = [1] + [0] * n if k + l == 10 else oracles.eisenstein(k + l - 10, n)
            series = oracles.series_mul(oracles.delta(n), rest)
            c = BRACKET_CONSTANT[key]
            return expansion([c * x for x in series], block=1)
        p = int(label[4:])
        frob = oracles.series_pow(ek, p)[::p]
        if label.startswith("frob"):
            return expansion(frob, bound=n // p)
        report = oracles.congruence_report(frob, ek[:len(frob)], p, 1)
        return lambda doc: oracles.check_report(doc, report)


# -- coset-system ------------------------------------------------------------------


class Cosets:
    """The full listing of the degree-3 coset system at p = 3 (about
    0.9 MB of JSON), then the degree-2 counts at p = 5 and 7 in a seeded
    order.  The counts' cost grows steeply with p, so every op runs both
    and the seed only orders them."""

    name = "coset-system"
    # Count primes 5 and 7, not 7, 11, 13: p = 13 alone took 0.8 s, and
    # with it an op took 1.5 to 3 s on a shared 2-core machine.  With 5, 7,
    # 11 an op took 1.0 to 2.1 s, p = 11 a quarter of it; the listing
    # dominates either way, and shorter ops give a run more samples.
    default_size = {"listing": [3, 3], "count_degree": 2, "count_primes": [5, 7]}

    def inputs(self, rng, size, out_dir):
        return [{"primes": rng.sample(size["count_primes"], len(size["count_primes"]))}]

    def steps(self, size, entry, in_dir, out_dir):
        n, p = size["listing"]
        steps = [("listing", (n, p), ["cosets", "--degree", str(n), "--prime", str(p),
                                       "-o", str(out_dir / "listing.json")])]
        d = size["count_degree"]
        for q in entry["primes"]:
            steps.append(("count", (d, q), [
                "cosets", "--degree", str(d), "--prime", str(q), "--count-only",
                "-o", str(out_dir / ("count%d.json" % q))]))
        return steps

    def expected(self, size, label, key):
        n, p = key
        if label == "listing":
            return lambda doc: oracles.check_coset_listing(doc, n, p)
        report = {"degree": n, "p": p, "count": oracles.coset_count(n, p)}
        return lambda doc: oracles.check_report(doc, report)


WORKLOADS = {w.name: w for w in (Thm41(), Series(), Cosets())}


def write_inputs(workload, seed, out_dir, size=None):
    """Draw the run's inputs from the seed, write them under out_dir with
    manifest.json, and return the manifest."""
    w = WORKLOADS[workload]
    size = dict(w.default_size if size is None else size)
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    rng = random.Random("%s:%d" % (workload, seed))
    manifest = {"workload": workload, "seed": seed, "size": size,
                "schedule": w.inputs(rng, size, out_dir)}
    (out_dir / "manifest.json").write_text(json.dumps(manifest, indent=1) + "\n")
    return manifest


def read_manifest(in_dir):
    return json.loads((Path(in_dir) / "manifest.json").read_text())


def op_steps(manifest, index, in_dir, out_dir):
    """The (label, key, argv) steps of op ``index``."""
    w = WORKLOADS[manifest["workload"]]
    schedule = manifest["schedule"]
    entry = schedule[index % len(schedule)]
    return w.steps(manifest["size"], entry, Path(in_dir), Path(out_dir))


def execute(cli, steps):
    """Run the steps in order through ``cli.run`` (looked up per call, so
    a traced run sees the wrapped entry point).  Returns (failure,
    seconds): failure is None, or why the op failed at the first step that
    exited with a code other than 0; seconds lists the wall time of each
    step that ran."""
    seconds = []
    for label, _, argv in steps:
        start = perf_counter()
        code = cli.run(argv)
        seconds.append(perf_counter() - start)
        if code != 0:
            return "%s exited %r" % (label, code), seconds
    return None, seconds
