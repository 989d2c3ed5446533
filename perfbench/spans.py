"""Span tracing of siegelq's layers, installed from outside the program.

``install`` wraps the public entry points of each module (the layers
``cli``, ``halfint``, ``qexpansion``, ``theta``, ``diffops``, ``padic``
and ``symplectic``) on every name a caller binds: the defining module,
every other siegelq module that imported the function by name, and the
class attribute for methods, so ``a * b`` on two expansions goes through
the wrapped ``FourierExpansion.__mul__``.  Each wrapped call records a
span (name, start, end, parent).  The program is single-process and
sequential, so a layer never waits on another and its time is its self
time: span duration minus the time its child spans cover.

Helpers called once per term pair (``diffops.polarize_compound`` and the
``halfint`` matrix helpers the ring loops use) are not wrapped: a span per
pair would cost more than the pair.  Their time stays in the caller.

Work counters are read from the arguments and results of the wrapped
calls, so they size the problem rather than count the program's steps.
That bookkeeping runs inside a ``trace:bookkeeping`` span with tracing
paused, so it is excluded from every layer's self time.
"""

import functools
import gzip
import json
import sys
from array import array
from collections import Counter
from time import perf_counter

ENTRY_POINTS = {
    "cli": ["run"],
    "halfint": ["HalfIntegralMatrix.is_psd", "compound", "enumerate_indices",
                "block_count"],
    "qexpansion": [
        "FourierExpansion.__init__", "FourierExpansion.__add__",
        "FourierExpansion.__sub__", "FourierExpansion.__neg__",
        "FourierExpansion.scale", "FourierExpansion.__mul__",
        "FourierExpansion.__rmul__", "FourierExpansion.__pow__",
        "FourierExpansion.u_p", "FourierExpansion.dilate",
        "FourierExpansion.truncate", "FourierExpansion.support",
        "FourierExpansion.coefficient", "eisenstein", "delta",
        "to_json_dict", "from_json_dict", "dumps", "loads"],
    "theta": ["GramLattice.__init__", "gram_a", "direct_sum", "rep_numbers",
              "cycle_isometry", "is_free_isometry", "gram_from_json",
              "gram_to_json"],
    "diffops": ["rankin_cohen", "theta_operator", "leading_part", "half_rising"],
    "padic": ["vp", "vp_expansion", "congruent", "frobenius_descent",
              "unit_ladder", "limit_profile", "bracket_theta_congruence"],
    "symplectic": ["SymplecticModP.__init__", "SymplecticModP.__mul__",
                   "SymplecticModP.inverse", "partial_involution", "levi",
                   "unipotent", "gl_parabolic_reps", "coset_reps",
                   "same_coset"],
}
LAYERS = tuple(ENTRY_POINTS)

CALL_COUNTERS = {
    "cli:run": "cli.calls",
    "halfint:HalfIntegralMatrix.is_psd": "halfint.psd_checks",
    "theta:rep_numbers": "theta.calls",
    "symplectic:SymplecticModP.__init__": "symplectic.elements_checked",
}


def _trace(key):
    return sum(key[i][i] for i in range(len(key))) // 2


def _pairs(f, g):
    """Term pairs (T1, T2) of the supports with trace sum within the
    shared bound: the pairs a product or bracket has to visit."""
    bound = min(f.trace_bound, g.trace_bound)
    per_trace = []
    for e in (f, g):
        hist = [0] * (bound + 1)
        for key in e.support():
            if _trace(key) <= bound:
                hist[_trace(key)] += 1
        per_trace.append(hist)
    within = [0] * (bound + 1)
    running = 0
    for t, c in enumerate(per_trace[1]):
        running += c
        within[t] = running
    return sum(c * within[bound - t] for t, c in enumerate(per_trace[0]))


def _theta_sizes(counts, args, kwargs, result):
    # vectors: sum of a(diag(t, 0, ...)); tuples: sum of a(T); keys: #T.
    for key in result.support():
        a = int(result.coefficient(key))
        counts["theta.tuples"] += a
        counts["theta.keys"] += 1
        if all(x == 0 for i, row in enumerate(key) for j, x in enumerate(row)
               if i or j):
            counts["theta.vectors"] += a


def _mul_sizes(counts, args, kwargs, result):
    f, g = args
    if hasattr(g, "support"):
        counts["qexpansion.mul_calls"] += 1
        counts["qexpansion.mul_pairs"] += _pairs(f, g)
        counts["qexpansion.terms_out"] += len(result.support())


def _bracket_pairs(counts, args, kwargs, result):
    counts["diffops.bracket_pairs"] += _pairs(args[0], args[1])


def _keys_compared(counts, args, kwargs, result):
    f, g = args[0], args[1]
    bound = min(f.trace_bound, g.trace_bound)
    keys = {k for e in (f, g) for k in e.support() if _trace(k) <= bound}
    counts["padic.keys_compared"] += len(keys)


def _cosets_built(counts, args, kwargs, result):
    counts["symplectic.cosets_built"] += len(result)


OUTPUT_HOOKS = {
    "theta:rep_numbers": _theta_sizes,
    "qexpansion:FourierExpansion.__mul__": _mul_sizes,
    "diffops:rankin_cohen": _bracket_pairs,
    "padic:congruent": _keys_compared,
    "symplectic:coset_reps": _cosets_built,
}


class Tracer:
    """Spans kept in memory as parallel arrays, self time summed as spans
    close, and named work counters."""

    def __init__(self):
        self.origin = perf_counter()
        self.names = []
        self._ids = {}
        self.name = array("l")
        self.parent = array("l")
        self.start = array("d")
        self.end = array("d")
        self.self_s = []
        self.counts = Counter()
        self.paused = False
        self._open = []
        self._child = []

    def name_id(self, name):
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
            self.self_s.append(0.0)
        return self._ids[name]

    def open(self, name_id):
        self.name.append(name_id)
        self.parent.append(self._open[-1] if self._open else -1)
        self.end.append(0.0)
        self._open.append(len(self.start))
        self._child.append(0.0)
        self.start.append(perf_counter())

    def close(self):
        end = perf_counter()
        idx = self._open.pop()
        duration = end - self.start[idx]
        self.end[idx] = end
        self.self_s[self.name[idx]] += duration - self._child.pop()
        if self._child:
            self._child[-1] += duration

    def wrap(self, name, fn):
        name_id = self.name_id(name)
        bookkeeping = self.name_id("trace:bookkeeping")
        counter = CALL_COUNTERS.get(name)
        hook = OUTPUT_HOOKS.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if self.paused:
                return fn(*args, **kwargs)
            self.open(name_id)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.close()
            if counter is not None:
                self.counts[counter] += 1
            if hook is not None:
                self.open(bookkeeping)
                self.paused = True
                try:
                    hook(self.counts, args, kwargs, result)
                finally:
                    self.paused = False
                    self.close()
            return result

        return wrapper

    def layer_self_s(self, layer):
        return sum(s for name, s in zip(self.names, self.self_s)
                   if name.split(":")[0] == layer)

    def named_self_s(self, *names):
        return sum(self.self_s[self._ids[n]] for n in names if n in self._ids)

    def write(self, path, extra):
        """Write every span (times in seconds from tracer creation) and
        ``extra`` as gzipped JSON."""
        doc = dict(extra)
        doc["names"] = self.names
        doc["spans"] = {
            "name": list(self.name),
            "parent": list(self.parent),
            "start": [t - self.origin for t in self.start],
            "end": [t - self.origin for t in self.end],
        }
        with gzip.open(path, "wt", encoding="utf-8") as handle:
            json.dump(doc, handle)


def install(tracer):
    """Wrap every entry point; returns what ``uninstall`` restores."""
    modules = [m for n, m in sorted(sys.modules.items())
               if n == "siegelq" or n.startswith("siegelq.")]
    restore = []
    for layer, targets in ENTRY_POINTS.items():
        module = sys.modules["siegelq." + layer]
        for target in targets:
            name = "%s:%s" % (layer, target)
            if "." in target:
                cls_name, attr = target.split(".")
                cls = getattr(module, cls_name)
                original = cls.__dict__[attr]
                restore.append((cls, attr, original))
                setattr(cls, attr, tracer.wrap(name, original))
                continue
            original = getattr(module, target)
            wrapper = tracer.wrap(name, original)
            for m in modules:
                for bound_name, value in list(vars(m).items()):
                    if value is original:
                        restore.append((m, bound_name, original))
                        setattr(m, bound_name, wrapper)
    return restore


def uninstall(restore):
    for obj, attr, original in reversed(restore):
        setattr(obj, attr, original)
