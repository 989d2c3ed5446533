"""Command-line front end.

Each subcommand is declared once, in the _COMMANDS table: its help, its
options and its action, a function of the parsed arguments set as the
subparser's run default.  run builds only what it needs: a command run
in a process adds its own subparser, on first use, to one parser kept
for the process, and the full parser of build_parser, built once on
first need, serves help and the errors raised before a subcommand is
named.  An action returns an expansion, a congruence report or plain
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


_REQ = {"required": True}
_INT = {"type": int, "required": True}
_RATIONAL = {"type": _rational, "required": True}

# Each subcommand once, in listing order: name -> (help, action, option,
# ...).  An option is (flag, add_argument keywords); a tuple of options is
# one required mutually exclusive group.  An action is a function of the
# parsed arguments; it looks up library functions when it runs, not when
# its parser is built: parsers are cached per process, and a wrapper
# installed on a module attribute later must still be called.
_COMMANDS = {
    "theta": ("degree-n theta series of a lattice",
              lambda a: theta.rep_numbers(_read_gram(a.gram), a.degree, a.trace_bound),
              ("--gram", dict(_REQ, help="Gram JSON file")), ("--degree", _INT),
              ("--trace-bound", _INT)),
    "gram-a": ("Gram matrix of the root lattice A_m",
               lambda a: theta.gram_to_json(theta.gram_a(a.rank)), ("--rank", _INT)),
    "eisenstein": ("degree-1 Eisenstein series E_k",
                   lambda a: qexpansion.eisenstein(a.weight, a.trace_bound),
                   ("--weight", _INT), ("--trace-bound", _INT)),
    "delta": ("degree-1 weight-12 cusp form",
              lambda a: qexpansion.delta(a.trace_bound), ("--trace-bound", _INT)),
    "mul": ("product of two expansions",
            lambda a: _read_expansion(a.f) * _read_expansion(a.g),
            ("--f", _REQ), ("--g", _REQ)),
    "pow": ("integer power of an expansion",
            lambda a: _read_expansion(a.f) ** a.exp, ("--f", _REQ), ("--exp", _INT)),
    "up": ("apply the coefficient operator a(T) -> a(pT)",
           lambda a: _read_expansion(a.f).u_p(a.prime), ("--f", _REQ), ("--prime", _INT)),
    "dilate": ("substitute q^T -> q^(cT)",
               lambda a: _read_expansion(a.f).dilate(a.factor),
               ("--f", _REQ), ("--factor", _INT)),
    "thetaop": ("order-r minor theta operator",
                lambda a: diffops.theta_operator(_read_expansion(a.f), a.minor_order),
                ("--f", _REQ), ("--minor-order", _INT)),
    "bracket": ("Rankin-Cohen bracket of order r",
                lambda a: diffops.rankin_cohen(
                    _read_expansion(a.f), _read_expansion(a.g), a.minor_order,
                    a.weight_f, a.weight_g),
                ("--f", _REQ), ("--g", _REQ), ("--minor-order", _INT),
                ("--weight-f", dict(_RATIONAL, help="weight of f, a rational a/b; a "
                                    "negative one as --weight-f=-1/2")),
                ("--weight-g", dict(_RATIONAL, help="weight of g, a rational a/b; a "
                                    "negative one as --weight-g=-1/2"))),
    "vp": ("p-adic valuation of an expansion or rational", _vp,
           (("--f", {"help": "expansion JSON file"}),
            ("--value", {"type": _rational,
                         "help": "a rational a/b; a negative one as --value=-7/9"})),
           ("--prime", _INT)),
    "congruent": ("check f = g mod p^m up to the shared bound",
                  lambda a: padic.congruent(
                      _read_expansion(a.f), _read_expansion(a.g), a.prime, a.m,
                      normalized=a.normalized),
                  ("--f", _REQ), ("--g", _REQ), ("--prime", _INT), ("--m", _INT),
                  ("--normalized", {"action": "store_true",
                                    "help": "shift the threshold m by the valuation of f"})),
    "frobenius": ("(f^p)|U(p), congruent to f mod p",
                  lambda a: padic.frobenius_descent(_read_expansion(a.f), a.prime),
                  ("--f", _REQ), ("--prime", _INT)),
    "limit": ("valuation profile of a sequence against a target", _limit,
              ("members", {"nargs": "+", "help": "expansion JSON files, in order"}),
              ("--target", _REQ), ("--prime", _INT)),
    "thm41": ("bracket-vs-theta-operator congruence report for a p-integral form",
              lambda a: padic.bracket_theta_congruence(
                  _read_expansion(a.f), a.weight, a.prime, a.m, a.minor_order,
                  a.dilate_exp),
              ("--f", _REQ),
              ("--weight", dict(_RATIONAL, help="scalar weight of f, a rational a/b; a "
                                "negative one as --weight=-1/2")),
              ("--prime", _INT), ("--m", _INT), ("--minor-order", _INT),
              ("--dilate-exp", dict(_INT, help="dilation exponent (p^(e-1) scaling of "
                                    "the unit form)"))),
    "cosets": ("theta-stable coset system of Sp_n(F_p)", _cosets,
               ("--degree", _INT), ("--prime", _INT),
               ("--count-only", {"action": "store_true"})),
}


def _top(metavar=None):
    """A parser with no subcommands yet, and its subparsers action."""
    parser = argparse.ArgumentParser(
        prog="siegelq",
        description="Exact Fourier expansions of Siegel modular forms: "
                    "theta series, theta operators, Rankin-Cohen brackets, "
                    "p-adic congruence checks and symplectic coset systems.")
    # dest only names the missing subcommand in argparse's usage error
    return parser, parser.add_subparsers(dest="command", required=True,
                                           metavar=metavar)


def _add_command(subs, name):
    """Add the subcommand name, as _COMMANDS declares it, to subs."""
    help_text, action, *options = _COMMANDS[name]
    sub = subs.add_parser(name, help=help_text)
    for option in options:
        if isinstance(option[0], str):
            sub.add_argument(option[0], **option[1])
        else:
            group = sub.add_mutually_exclusive_group(required=True)
            for flag, keywords in option:
                group.add_argument(flag, **keywords)
    sub.add_argument("-o", "--output", default=None, help="output file (default: stdout)")
    sub.set_defaults(run=action)


def build_parser():
    """A fresh parser of every subcommand, in the order of _COMMANDS.  run
    keeps one, built on first need, for an argv that does not start with a
    subcommand's name: no argument, -h, an unknown command or an option
    first, so top-level help and the invalid-choice and missing-command
    errors are this parser's."""
    parser, subs = _top()
    for name in _COMMANDS:
        _add_command(subs, name)
    return parser


@functools.cache
def _full_parser():
    return build_parser()


@functools.cache
def _parser():
    """The parser run uses when argv starts with a subcommand's name, and
    its subparsers action: built once per process with no subcommands, it
    gains each the first time argv names it, so a process pays argparse's
    set-up once and declares only the commands it runs.  parse_args keeps
    no state between calls.  The metavar is the string argparse builds
    from all choices, so the usage line that an unrecognized-arguments
    error prints names every subcommand, as the full parser's does; the
    full parser has none, as it would replace "command" in its errors."""
    return _top(metavar="{%s}" % ",".join(_COMMANDS))


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
    if argv and argv[0] in _COMMANDS:
        parser, subs = _parser()
        if argv[0] not in subs.choices:
            _add_command(subs, argv[0])
    else:
        parser = _full_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code else 0
    try:
        return _run_command(args)
    except (ValueError, TypeError, KeyError, OSError, ZeroDivisionError) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 2


def main():
    sys.exit(run(sys.argv[1:]))
