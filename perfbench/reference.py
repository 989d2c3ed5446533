"""A fixed reference computation, timed between ops to gauge how fast the
shared machine runs at that moment.

Other tenants of the machine slow this process by up to 2x, switching
every few seconds, and the share of slow time drifts over minutes, so
the same op reads differently from one run to the next.  run.py
therefore divides a run's median op time by the run's median time of
this computation, timed between the same ops on the same core: a slow
stretch lengthens both.  The code is frozen and imports nothing from
siegelq or the rest of the benchmark, so the ratio compares versions of
the program, not versions of the reference.  It mixes the kinds of
plain-Python work the workloads do: lattice vector enumeration with
dict counting, convolution of big-integer series, row reduction mod p,
a walk over some megabytes of small objects, and JSON text.
"""

import json
import random
from itertools import product

A4 = ((2, -1, 0, 0), (-1, 2, -1, 0), (0, -1, 2, -1), (0, 0, -1, 2))


def enumerate_norms():
    counts = {}
    for x in product(range(-3, 4), repeat=4):
        qx = [sum(g * v for g, v in zip(row, x)) for row in A4]
        key = (sum(a * b for a, b in zip(x, qx)), x[0] * qx[1])
        counts[key] = counts.get(key, 0) + 1
    return sorted(counts.items())


def convolve_series(bound=100):
    a = [1] + [240 * sum(d ** 3 for d in range(1, n + 1) if n % d == 0)
               for n in range(1, bound + 1)]
    out = a
    for _ in range(6):
        out = [sum(out[i] * a[n - i] for i in range(n + 1)) for n in range(bound + 1)]
    return out


def reduce_mod(p=3, size=6, count=480):
    ranks = []
    for s in range(count):
        rows = [[(s * 7 + i * 5 + j * j * 3 + i * j) % p for j in range(size)]
                for i in range(size)]
        rank = 0
        for col in range(size):
            pivot = next((i for i in range(rank, size) if rows[i][col]), None)
            if pivot is None:
                continue
            rows[rank], rows[pivot] = rows[pivot], rows[rank]
            inv = pow(rows[rank][col], -1, p)
            rows[rank] = [x * inv % p for x in rows[rank]]
            for i in range(size):
                if i != rank and rows[i][col]:
                    f = rows[i][col]
                    rows[i] = [(x - f * y) % p for x, y in zip(rows[i], rows[rank])]
            rank += 1
        ranks.append(rank)
    return ranks


def walk_objects(n=15000):
    rng = random.Random(1)
    nodes = [(i, [i % 7, i % 11, i % 13], {"k": i}) for i in range(n)]
    order = list(range(n))
    rng.shuffle(order)
    total = 0
    for i in order:
        total += nodes[i][1][1] + nodes[i][2]["k"]
    return total


def reference():
    """Run the reference computation once; returns the length of its
    results as JSON text, so that nothing can be skipped."""
    doc = {"norms": enumerate_norms(), "series": convolve_series(),
           "ranks": reduce_mod(), "walk": walk_objects(),
           "rows": [[[(i * j + k) % 3 for k in range(6)] for j in range(6)]
                    for i in range(1000)]}
    return len(json.dumps(json.loads(json.dumps(doc))))
