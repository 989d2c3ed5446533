"""Command-line front end.

Every subcommand reads and writes the documented JSON formats.  Input is
read by qexpansion.json_parse, which rejects duplicate object keys and
documents nested too deeply to parse.  Output is written by
qexpansion.json_text and is deterministic, byte for byte: two-space
indent, sorted keys, non-ASCII as \\u escapes, a trailing newline, and
rationals in lowest terms; the bytes are those of Python's
json.dumps(obj, sort_keys=True, indent=2) plus the newline.  Exit codes:
0 success, 1 a check ran fine but the verdict is negative (congruence
fails), 2 usage or input errors.
"""

import argparse
import functools
import sys

from . import diffops, padic, qexpansion, symplectic, theta
from .qexpansion import json_parse, json_text, rational_from_str


def _read_json(path):
    with open(path, "r", encoding="utf-8") as handle:
        return json_parse(handle.read())


def _read_expansion(path):
    return qexpansion.from_json_dict(_read_json(path))


def _read_gram(path):
    return theta.gram_from_json(_read_json(path))


def _emit(obj, path):
    text = json_text(obj) + "\n"
    if path is None:
        sys.stdout.write(text)
    else:
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(text)


def _add_output(sub):
    sub.add_argument("-o", "--output", default=None,
                     help="output file (default: stdout)")


def _rational(text):
    try:
        return rational_from_str(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise argparse.ArgumentTypeError("bad rational %r" % text) from exc


def build_parser():
    parser = argparse.ArgumentParser(
        prog="siegelq",
        description="Exact Fourier expansions of Siegel modular forms: "
                    "theta series, theta operators, Rankin-Cohen brackets, "
                    "p-adic congruence checks and symplectic coset systems.")
    subs = parser.add_subparsers(dest="command", required=True)

    sub = subs.add_parser("theta", help="degree-n theta series of a lattice")
    sub.add_argument("--gram", required=True, help="Gram JSON file")
    sub.add_argument("--degree", type=int, required=True)
    sub.add_argument("--trace-bound", type=int, required=True)
    _add_output(sub)

    sub = subs.add_parser("gram-a", help="Gram matrix of the root lattice A_m")
    sub.add_argument("--rank", type=int, required=True)
    _add_output(sub)

    sub = subs.add_parser("eisenstein", help="degree-1 Eisenstein series E_k")
    sub.add_argument("--weight", type=int, required=True)
    sub.add_argument("--trace-bound", type=int, required=True)
    _add_output(sub)

    sub = subs.add_parser("delta", help="degree-1 weight-12 cusp form")
    sub.add_argument("--trace-bound", type=int, required=True)
    _add_output(sub)

    sub = subs.add_parser("mul", help="product of two expansions")
    sub.add_argument("--f", required=True)
    sub.add_argument("--g", required=True)
    _add_output(sub)

    sub = subs.add_parser("pow", help="integer power of an expansion")
    sub.add_argument("--f", required=True)
    sub.add_argument("--exp", type=int, required=True)
    _add_output(sub)

    sub = subs.add_parser("up", help="apply the coefficient operator a(T) -> a(pT)")
    sub.add_argument("--f", required=True)
    sub.add_argument("--prime", type=int, required=True)
    _add_output(sub)

    sub = subs.add_parser("dilate", help="substitute q^T -> q^(cT)")
    sub.add_argument("--f", required=True)
    sub.add_argument("--factor", type=int, required=True)
    _add_output(sub)

    sub = subs.add_parser("thetaop", help="order-r minor theta operator")
    sub.add_argument("--f", required=True)
    sub.add_argument("--minor-order", type=int, required=True)
    _add_output(sub)

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
    _add_output(sub)

    sub = subs.add_parser("vp", help="p-adic valuation of an expansion or rational")
    group = sub.add_mutually_exclusive_group(required=True)
    group.add_argument("--f", help="expansion JSON file")
    group.add_argument("--value", type=_rational,
                       help="a rational a/b; a negative one as --value=-7/9")
    sub.add_argument("--prime", type=int, required=True)
    _add_output(sub)

    sub = subs.add_parser("congruent", help="check f = g mod p^m up to the shared bound")
    sub.add_argument("--f", required=True)
    sub.add_argument("--g", required=True)
    sub.add_argument("--prime", type=int, required=True)
    sub.add_argument("--m", type=int, required=True)
    sub.add_argument("--normalized", action="store_true",
                     help="shift the threshold m by the valuation of f")
    _add_output(sub)

    sub = subs.add_parser("frobenius", help="(f^p)|U(p), congruent to f mod p")
    sub.add_argument("--f", required=True)
    sub.add_argument("--prime", type=int, required=True)
    _add_output(sub)

    sub = subs.add_parser("limit", help="valuation profile of a sequence against a target")
    sub.add_argument("members", nargs="+", help="expansion JSON files, in order")
    sub.add_argument("--target", required=True)
    sub.add_argument("--prime", type=int, required=True)
    _add_output(sub)

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
    _add_output(sub)

    sub = subs.add_parser("cosets", help="theta-stable coset system of Sp_n(F_p)")
    sub.add_argument("--degree", type=int, required=True)
    sub.add_argument("--prime", type=int, required=True)
    sub.add_argument("--count-only", action="store_true")
    _add_output(sub)

    return parser


@functools.cache
def _parser():
    """The parser run uses, built once per process: parse_args keeps no
    state between calls."""
    return build_parser()


def _run_command(args):
    cmd = args.command

    if cmd == "theta":
        lattice = _read_gram(args.gram)
        out = theta.rep_numbers(lattice, args.degree, args.trace_bound)
        _emit(qexpansion.to_json_dict(out), args.output)
        return 0
    if cmd == "gram-a":
        _emit(theta.gram_to_json(theta.gram_a(args.rank)), args.output)
        return 0
    if cmd == "eisenstein":
        _emit(qexpansion.to_json_dict(
            qexpansion.eisenstein(args.weight, args.trace_bound)), args.output)
        return 0
    if cmd == "delta":
        _emit(qexpansion.to_json_dict(qexpansion.delta(args.trace_bound)),
              args.output)
        return 0
    if cmd == "mul":
        out = _read_expansion(args.f) * _read_expansion(args.g)
        _emit(qexpansion.to_json_dict(out), args.output)
        return 0
    if cmd == "pow":
        _emit(qexpansion.to_json_dict(_read_expansion(args.f) ** args.exp),
              args.output)
        return 0
    if cmd == "up":
        _emit(qexpansion.to_json_dict(_read_expansion(args.f).u_p(args.prime)),
              args.output)
        return 0
    if cmd == "dilate":
        _emit(qexpansion.to_json_dict(_read_expansion(args.f).dilate(args.factor)),
              args.output)
        return 0
    if cmd == "thetaop":
        out = diffops.theta_operator(_read_expansion(args.f), args.minor_order)
        _emit(qexpansion.to_json_dict(out), args.output)
        return 0
    if cmd == "bracket":
        f = _read_expansion(args.f)
        g = _read_expansion(args.g)
        params = diffops.BracketParams(
            f.degree, args.minor_order, args.weight_f, args.weight_g)
        _emit(qexpansion.to_json_dict(diffops.rankin_cohen(f, g, params)),
              args.output)
        return 0
    if cmd == "vp":
        if args.f is not None:
            v = padic.vp_expansion(_read_expansion(args.f), args.prime)
        else:
            v = padic.vp(args.value, args.prime)
        _emit({"p": args.prime, "vp": "inf" if v == float("inf") else int(v)},
              args.output)
        return 0
    if cmd == "congruent":
        report = padic.congruent(
            _read_expansion(args.f), _read_expansion(args.g),
            args.prime, args.m, normalized=args.normalized)
        _emit(report.to_json_dict(), args.output)
        return 0 if report.holds else 1
    if cmd == "frobenius":
        out = padic.frobenius_descent(_read_expansion(args.f), args.prime)
        _emit(qexpansion.to_json_dict(out), args.output)
        return 0
    if cmd == "limit":
        seq = [_read_expansion(path) for path in args.members]
        target = _read_expansion(args.target)
        profile = padic.limit_profile(seq, target, args.prime)
        _emit({"p": args.prime,
               "profile": ["inf" if v == float("inf") else int(v) for v in profile]},
              args.output)
        return 0
    if cmd == "thm41":
        report = padic.bracket_theta_congruence(
            _read_expansion(args.f), args.weight, args.prime,
            args.m, args.minor_order, args.dilate_exp)
        _emit(report.to_json_dict(), args.output)
        return 0 if report.holds else 1
    if cmd == "cosets":
        if args.count_only:
            count = symplectic.coset_count(args.degree, args.prime)
            _emit({"degree": args.degree, "p": args.prime, "count": count},
                  args.output)
        else:
            reps = symplectic.coset_reps(args.degree, args.prime)
            _emit([r.to_json_dict() for r in reps], args.output)
        return 0
    raise ValueError("unknown command %r" % cmd)


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


if __name__ == "__main__":
    main()
