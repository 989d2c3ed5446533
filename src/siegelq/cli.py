"""Command-line front end.

Each subcommand is declared once, in build_parser: its options and its
action, a function of the parsed arguments set as the subparser's run
default.  An action returns an expansion, a congruence report or plain
JSON data (the coset listing as an iterator of its records), and one
function, _run_command, turns that into the output and the exit code.
Every subcommand reads and writes the documented JSON formats.  Input is
strict JSON, read by qexpansion.json_parse: duplicate object keys, NaN,
Infinity, -Infinity and nesting too deep to parse are rejected.  Output
is written by qexpansion.json_write, a listing one element at a time,
and is deterministic, byte for byte: two-space indent, sorted keys,
non-ASCII as \\u escapes, a trailing newline, rationals in lowest terms; the
bytes are those of Python's json.dumps(obj, sort_keys=True, indent=2)
plus the newline.  Exit codes: 0 success, 1 only for a congruence
report (congruent, thm41) that does not hold, 2 usage or input errors.
"""

import argparse
import contextlib
import functools
import sys

from . import diffops, padic, qexpansion, symplectic, theta
from .qexpansion import json_parse, json_write, rational_from_str


def _read_json(path):
    with open(path, "r", encoding="utf-8") as handle:
        return json_parse(handle.read())


def _read_expansion(path):
    return qexpansion.from_json_dict(_read_json(path))


def _read_gram(path):
    return theta.gram_from_json(_read_json(path))


def _emit(obj, path):
    """Write obj through json_write to the file at path, or to stdout if
    path is None; an iterator, such as a coset listing, is written one
    element at a time."""
    if path is None:
        json_write(obj, lambda: contextlib.nullcontext(sys.stdout))
    else:
        json_write(obj, lambda: open(path, "w", encoding="utf-8"))


def _rational(text):
    try:
        return rational_from_str(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise argparse.ArgumentTypeError("bad rational %r" % text) from exc


def _vp(a):
    if a.f is not None:
        v = padic.vp_expansion(_read_expansion(a.f), a.prime)
    else:
        v = padic.vp(a.value, a.prime)
    return {"p": a.prime, "vp": padic.valuation_to_json(v)}


def _limit(a):
    seq = [_read_expansion(path) for path in a.members]
    profile = padic.limit_profile(seq, _read_expansion(a.target), a.prime)
    return {"p": a.prime, "profile": [padic.valuation_to_json(v) for v in profile]}


def _cosets(a):
    if a.count_only:
        return {"degree": a.degree, "p": a.prime,
                "count": symplectic.coset_count(a.degree, a.prime)}
    # coset_reps refuses an oversized system here, before _emit opens the
    # output; json_write writes an iterator's records one at a time
    return iter(symplectic.coset_reps(a.degree, a.prime))


def build_parser():
    """A fresh parser.  Actions look up library functions when they run,
    not when the parser is built: run's parser is cached per process, and
    a wrapper installed on a module attribute later must still be
    called."""
    parser = argparse.ArgumentParser(
        prog="siegelq",
        description="Exact Fourier expansions of Siegel modular forms: "
                    "theta series, theta operators, Rankin-Cohen brackets, "
                    "p-adic congruence checks and symplectic coset systems.")
    # dest only names the missing subcommand in argparse's usage error
    subs = parser.add_subparsers(dest="command", required=True)

    sub = subs.add_parser("theta", help="degree-n theta series of a lattice")
    sub.add_argument("--gram", required=True, help="Gram JSON file")
    sub.add_argument("--degree", type=int, required=True)
    sub.add_argument("--trace-bound", type=int, required=True)
    sub.set_defaults(run=lambda a: theta.rep_numbers(
        _read_gram(a.gram), a.degree, a.trace_bound))

    sub = subs.add_parser("gram-a", help="Gram matrix of the root lattice A_m")
    sub.add_argument("--rank", type=int, required=True)
    sub.set_defaults(run=lambda a: theta.gram_to_json(theta.gram_a(a.rank)))

    sub = subs.add_parser("eisenstein", help="degree-1 Eisenstein series E_k")
    sub.add_argument("--weight", type=int, required=True)
    sub.add_argument("--trace-bound", type=int, required=True)
    sub.set_defaults(run=lambda a: qexpansion.eisenstein(a.weight, a.trace_bound))

    sub = subs.add_parser("delta", help="degree-1 weight-12 cusp form")
    sub.add_argument("--trace-bound", type=int, required=True)
    sub.set_defaults(run=lambda a: qexpansion.delta(a.trace_bound))

    sub = subs.add_parser("mul", help="product of two expansions")
    sub.add_argument("--f", required=True)
    sub.add_argument("--g", required=True)
    sub.set_defaults(run=lambda a: _read_expansion(a.f) * _read_expansion(a.g))

    sub = subs.add_parser("pow", help="integer power of an expansion")
    sub.add_argument("--f", required=True)
    sub.add_argument("--exp", type=int, required=True)
    sub.set_defaults(run=lambda a: _read_expansion(a.f) ** a.exp)

    sub = subs.add_parser("up", help="apply the coefficient operator a(T) -> a(pT)")
    sub.add_argument("--f", required=True)
    sub.add_argument("--prime", type=int, required=True)
    sub.set_defaults(run=lambda a: _read_expansion(a.f).u_p(a.prime))

    sub = subs.add_parser("dilate", help="substitute q^T -> q^(cT)")
    sub.add_argument("--f", required=True)
    sub.add_argument("--factor", type=int, required=True)
    sub.set_defaults(run=lambda a: _read_expansion(a.f).dilate(a.factor))

    sub = subs.add_parser("thetaop", help="order-r minor theta operator")
    sub.add_argument("--f", required=True)
    sub.add_argument("--minor-order", type=int, required=True)
    sub.set_defaults(run=lambda a: diffops.theta_operator(
        _read_expansion(a.f), a.minor_order))

    sub = subs.add_parser("bracket", help="Rankin-Cohen bracket of order r")
    sub.add_argument("--f", required=True)
    sub.add_argument("--g", required=True)
    sub.add_argument("--minor-order", type=int, required=True)
    sub.add_argument("--weight-f", type=_rational, required=True,
                     help="weight of f, a rational a/b; a negative one "
                          "as --weight-f=-1/2")
    sub.add_argument("--weight-g", type=_rational, required=True,
                     help="weight of g, a rational a/b; a negative one "
                          "as --weight-g=-1/2")
    sub.set_defaults(run=lambda a: diffops.rankin_cohen(
        _read_expansion(a.f), _read_expansion(a.g), a.minor_order,
        a.weight_f, a.weight_g))

    sub = subs.add_parser("vp", help="p-adic valuation of an expansion or rational")
    group = sub.add_mutually_exclusive_group(required=True)
    group.add_argument("--f", help="expansion JSON file")
    group.add_argument("--value", type=_rational,
                       help="a rational a/b; a negative one as --value=-7/9")
    sub.add_argument("--prime", type=int, required=True)
    sub.set_defaults(run=_vp)

    sub = subs.add_parser("congruent", help="check f = g mod p^m up to the shared bound")
    sub.add_argument("--f", required=True)
    sub.add_argument("--g", required=True)
    sub.add_argument("--prime", type=int, required=True)
    sub.add_argument("--m", type=int, required=True)
    sub.add_argument("--normalized", action="store_true",
                     help="shift the threshold m by the valuation of f")
    sub.set_defaults(run=lambda a: padic.congruent(
        _read_expansion(a.f), _read_expansion(a.g), a.prime, a.m,
        normalized=a.normalized))

    sub = subs.add_parser("frobenius", help="(f^p)|U(p), congruent to f mod p")
    sub.add_argument("--f", required=True)
    sub.add_argument("--prime", type=int, required=True)
    sub.set_defaults(run=lambda a: padic.frobenius_descent(
        _read_expansion(a.f), a.prime))

    sub = subs.add_parser("limit", help="valuation profile of a sequence against a target")
    sub.add_argument("members", nargs="+", help="expansion JSON files, in order")
    sub.add_argument("--target", required=True)
    sub.add_argument("--prime", type=int, required=True)
    sub.set_defaults(run=_limit)

    sub = subs.add_parser(
        "thm41",
        help="bracket-vs-theta-operator congruence report for a p-integral form")
    sub.add_argument("--f", required=True)
    sub.add_argument("--weight", type=_rational, required=True,
                     help="scalar weight of f, a rational a/b; a negative one "
                          "as --weight=-1/2")
    sub.add_argument("--prime", type=int, required=True)
    sub.add_argument("--m", type=int, required=True)
    sub.add_argument("--minor-order", type=int, required=True)
    sub.add_argument("--dilate-exp", type=int, required=True,
                     help="dilation exponent (p^(e-1) scaling of the unit form)")
    sub.set_defaults(run=lambda a: padic.bracket_theta_congruence(
        _read_expansion(a.f), a.weight, a.prime, a.m, a.minor_order,
        a.dilate_exp))

    sub = subs.add_parser("cosets", help="theta-stable coset system of Sp_n(F_p)")
    sub.add_argument("--degree", type=int, required=True)
    sub.add_argument("--prime", type=int, required=True)
    sub.add_argument("--count-only", action="store_true")
    sub.set_defaults(run=_cosets)

    for sub in subs.choices.values():
        sub.add_argument("-o", "--output", default=None,
                         help="output file (default: stdout)")
    return parser


@functools.cache
def _parser():
    """The parser run uses, built once per process: parse_args keeps no
    state between calls."""
    return build_parser()


def _run_command(args):
    """Run the parsed command and write its result; returns the exit
    code, 1 only for a congruence report that does not hold."""
    out = args.run(args)
    code = 0
    if isinstance(out, qexpansion.FourierExpansion):
        out = qexpansion.to_json_dict(out)
    elif isinstance(out, padic.CongruenceReport):
        code = 0 if out.holds else 1
        out = out.to_json_dict()
    _emit(out, args.output)
    return code


def run(argv):
    """Parse argv (no program name) and execute; returns the exit code."""
    try:
        args = _parser().parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code else 0
    try:
        return _run_command(args)
    except (ValueError, TypeError, KeyError, OSError, ZeroDivisionError) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 2


def main():
    sys.exit(run(sys.argv[1:]))
