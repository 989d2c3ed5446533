"""Command-line interface: formats, determinism and exit codes."""

import argparse
import hashlib
import json
import os
import re
import subprocess
import sys
import time
from fractions import Fraction

import siegelq
from siegelq import cli, diffops, padic, qexpansion, theta
from siegelq.cli import run
from siegelq.halfint import SIZE_LIMIT

README = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                      "README.md")


def read(path):
    with open(path, "r", encoding="utf-8") as handle:
        return json.load(handle)


def write(path, obj):
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(obj, handle)


class TestBasicCommands:
    def test_gram_a(self, tmp_path):
        out = tmp_path / "a2.json"
        assert run(["gram-a", "--rank", "2", "-o", str(out)]) == 0
        assert read(out) == {"rank": 2, "gram": [[2, -1], [-1, 2]]}

    def test_theta_pipeline(self, tmp_path):
        gram = tmp_path / "a2.json"
        th = tmp_path / "th.json"
        assert run(["gram-a", "--rank", "2", "-o", str(gram)]) == 0
        assert run(["theta", "--gram", str(gram), "--degree", "1",
                    "--trace-bound", "4", "-o", str(th)]) == 0
        f = qexpansion.from_json_dict(read(th))
        assert f == theta.rep_numbers(theta.gram_a(2), 1, 4)

    def test_eisenstein_and_delta(self, tmp_path):
        e = tmp_path / "e4.json"
        d = tmp_path / "d.json"
        assert run(["eisenstein", "--weight", "4", "--trace-bound", "3",
                    "-o", str(e)]) == 0
        assert run(["delta", "--trace-bound", "3", "-o", str(d)]) == 0
        assert qexpansion.from_json_dict(read(e)) == qexpansion.eisenstein(4, 3)
        assert qexpansion.from_json_dict(read(d)) == qexpansion.delta(3)

    def test_mul_pow_up_dilate(self, tmp_path):
        e = tmp_path / "e4.json"
        run(["eisenstein", "--weight", "4", "--trace-bound", "6", "-o", str(e)])
        sq = tmp_path / "sq.json"
        assert run(["mul", "--f", str(e), "--g", str(e), "-o", str(sq)]) == 0
        pw = tmp_path / "pw.json"
        assert run(["pow", "--f", str(e), "--exp", "2", "-o", str(pw)]) == 0
        assert read(sq) == read(pw)
        up = tmp_path / "up.json"
        assert run(["up", "--f", str(e), "--prime", "3", "-o", str(up)]) == 0
        assert qexpansion.from_json_dict(read(up)).trace_bound == 2
        di = tmp_path / "di.json"
        assert run(["dilate", "--f", str(e), "--factor", "2", "-o", str(di)]) == 0
        assert qexpansion.from_json_dict(read(di)).trace_bound == 12

    def test_up_at_two_writes_keys_it_reads_back(self, tmp_path):
        e = tmp_path / "e4.json"
        run(["eisenstein", "--weight", "4", "--trace-bound", "6", "-o", str(e)])
        once = tmp_path / "once.json"
        twice = tmp_path / "twice.json"
        assert run(["up", "--f", str(e), "--prime", "2", "-o", str(once)]) == 0
        assert run(["up", "--f", str(once), "--prime", "2", "-o", str(twice)]) == 0
        assert [c["t2"] for c in read(once)["coeffs"]] == [[[0]], [[2]], [[4]], [[6]]]
        assert [c["value"] for c in read(twice)["coeffs"]] == ["1/1", "17520/1"]

    def test_series_bytes_pinned(self, tmp_path):
        # sha256 and size of the series pipeline's files at trace bound 30,
        # as written when delta was (E4^3 - E6^2) / 1728 and every power
        # was a chain of ring products; "frac" is a power of a series with
        # coprime value denominators
        frac = tmp_path / "frac.json"
        write(frac, {"degree": 1, "trace_bound": 30, "shape": "scalar",
                     "coeffs": [{"t2": [[2 * m]], "value": "%d/%d" % (m - 3, m + 2)}
                                for m in range(31)]})

        def path(name):
            return str(tmp_path / (name + ".json"))

        steps = [("e%d" % k, ["eisenstein", "--weight", str(k), "--trace-bound", "30"])
                 for k in (4, 6, 10)]
        steps += [
            ("delta", ["delta", "--trace-bound", "30"]),
            ("mul", ["mul", "--f", path("e4"), "--g", path("e6")]),
            ("pow", ["pow", "--f", path("e4"), "--exp", "3"]),
            ("powfrac", ["pow", "--f", str(frac), "--exp", "5"]),
            ("frob5", ["frobenius", "--f", path("e4"), "--prime", "5"]),
            ("frob7", ["frobenius", "--f", path("delta"), "--prime", "7"]),
            ("bracket", ["bracket", "--f", path("e4"), "--g", path("e6"),
                         "--minor-order", "1", "--weight-f", "4", "--weight-g", "6"]),
        ]
        got = {}
        for name, argv in steps:
            assert run(argv + ["-o", path(name)]) == 0
            with open(path(name), "rb") as handle:
                data = handle.read()
            got[name] = (len(data), hashlib.sha256(data).hexdigest())
        assert got == {
            "e4": (3093, "28adf8f28ff24738aae8dd858e79f2fc28bee0c74a28835653af018f5523943b"),
            "e6": (3197, "ec3ec925e1bd9875374fb8f2ae13bf79905097487c4cb082c685964352c39a65"),
            "e10": (3321, "2d02aa3eb96984d0379411ee20baeb4b760af1337b57ad9357d771303c0652aa"),
            "delta": (3022, "8265c4a14e0f08617b275dc67bb387326238872a7cbe91159dace3bfb7caa44e"),
            "mul": (3321, "2d02aa3eb96984d0379411ee20baeb4b760af1337b57ad9357d771303c0652aa"),
            "pow": (3341, "b55af6d08b837de2f048d93df6c352f806ec578fe3cd84503dbbbccbdb926f7e"),
            "powfrac": (3650, "03c37fed08e24e736b27d0190de6ef5811cedbbc27362571f7ff20c6d2d2f16e"),
            "frob5": (903, "0c1d4e54811efefb5285d94dbe3abb9ae642d025a3c6718c332fe22be41b51e1"),
            "frob7": (566, "cb75eaecb8d3e7ffbad4bfd555e8a8699706b8e980d3e6d8c3fe5d8b1935bae6"),
            "bracket": (4343, "5ed91785bca2aebb8a6f21d70894681bff7ec2b4dfe91f8e2568076f58013644"),
        }

    def test_thetaop_and_bracket(self, tmp_path):
        e4 = tmp_path / "e4.json"
        e6 = tmp_path / "e6.json"
        run(["eisenstein", "--weight", "4", "--trace-bound", "5", "-o", str(e4)])
        run(["eisenstein", "--weight", "6", "--trace-bound", "5", "-o", str(e6)])
        th = tmp_path / "th.json"
        assert run(["thetaop", "--f", str(e4), "--minor-order", "1",
                    "-o", str(th)]) == 0
        got = qexpansion.from_json_dict(read(th))
        assert got == diffops.theta_operator(qexpansion.eisenstein(4, 5), 1)
        br = tmp_path / "br.json"
        assert run(["bracket", "--f", str(e4), "--g", str(e6),
                    "--minor-order", "1", "--weight-f", "4",
                    "--weight-g", "6", "-o", str(br)]) == 0
        want = diffops.rankin_cohen(
            qexpansion.eisenstein(4, 5), qexpansion.eisenstein(6, 5),
            diffops.BracketParams(1, 1, 4, 6))
        assert qexpansion.from_json_dict(read(br)) == want
        # a negative weight is given in the OPTION=VALUE form
        assert run(["bracket", "--f", str(e4), "--g", str(e6),
                    "--minor-order", "1", "--weight-f=-1/2",
                    "--weight-g", "6", "-o", str(br)]) == 0
        want = diffops.rankin_cohen(
            qexpansion.eisenstein(4, 5), qexpansion.eisenstein(6, 5),
            diffops.BracketParams(1, 1, Fraction(-1, 2), 6))
        assert qexpansion.from_json_dict(read(br)) == want


class TestCongruenceCommands:
    def test_congruent_exit_codes(self, tmp_path):
        th = tmp_path / "th.json"
        fd = tmp_path / "fd.json"
        gram = tmp_path / "a2.json"
        run(["gram-a", "--rank", "2", "-o", str(gram)])
        run(["theta", "--gram", str(gram), "--degree", "1",
             "--trace-bound", "6", "-o", str(th)])
        assert run(["frobenius", "--f", str(th), "--prime", "3",
                    "-o", str(fd)]) == 0
        rep = tmp_path / "rep.json"
        assert run(["congruent", "--f", str(fd), "--g", str(th), "--prime", "3",
                    "--m", "1", "-o", str(rep)]) == 0
        assert read(rep)["holds"] is True
        assert run(["congruent", "--f", str(fd), "--g", str(th), "--prime", "3",
                    "--m", "3", "-o", str(rep)]) == 1
        body = read(rep)
        assert body["holds"] is False
        assert set(body) == {"p", "m", "holds", "min_valuation", "witness_t2",
                             "bound", "normalized"}

    def test_normalized_flag(self, tmp_path):
        f = tmp_path / "f.json"
        g = tmp_path / "g.json"
        fe = qexpansion.FourierExpansion(
            1, 2, {((0,),): Fraction(1, 3), ((2,),): 3})
        ge = qexpansion.FourierExpansion(1, 2, {((0,),): Fraction(1, 3)})
        write(f, qexpansion.to_json_dict(fe))
        write(g, qexpansion.to_json_dict(ge))
        assert run(["congruent", "--f", str(f), "--g", str(g), "--prime", "3",
                    "--m", "2", "--normalized"]) == 0
        assert run(["congruent", "--f", str(f), "--g", str(g), "--prime", "3",
                    "--m", "2"]) == 1

    def test_vp(self, tmp_path, capsys):
        assert run(["vp", "--value", "18/5", "--prime", "3"]) == 0
        assert json.loads(capsys.readouterr().out) == {"p": 3, "vp": 2}
        assert run(["vp", "--value", "3", "--prime", str(2 ** 61 - 1)]) == 0
        assert json.loads(capsys.readouterr().out) == {"p": 2 ** 61 - 1, "vp": 0}
        # a negative rational needs the OPTION=VALUE form: argparse reads a
        # separate "-7/9" as an option
        assert run(["vp", "--value=-7/9", "--prime", "3"]) == 0
        assert json.loads(capsys.readouterr().out) == {"p": 3, "vp": -2}
        assert run(["vp", "--value=-18/5", "--prime", "3"]) == 0
        assert json.loads(capsys.readouterr().out) == {"p": 3, "vp": 2}
        assert run(["vp", "--value", "-7/9", "--prime", "3"]) == 2
        assert "expected one argument" in capsys.readouterr().err
        f = tmp_path / "f.json"
        write(f, qexpansion.to_json_dict(qexpansion.eisenstein(4, 2)))
        assert run(["vp", "--f", str(f), "--prime", "3"]) == 0
        assert json.loads(capsys.readouterr().out) == {"p": 3, "vp": 0}

    def test_limit(self, tmp_path, capsys):
        th = theta.rep_numbers(theta.gram_a(2), 1, 4)
        one = qexpansion.FourierExpansion.constant(1, 1, 4)
        paths = []
        for m in (1, 2, 3):
            path = tmp_path / ("m%d.json" % m)
            write(path, qexpansion.to_json_dict(th ** (3 ** m)))
            paths.append(str(path))
        target = tmp_path / "one.json"
        write(target, qexpansion.to_json_dict(one))
        assert run(["limit", *paths, "--target", str(target),
                    "--prime", "3"]) == 0
        assert json.loads(capsys.readouterr().out) == {"p": 3, "profile": [2, 3, 4]}

    def test_thm41(self, tmp_path):
        f = tmp_path / "f.json"
        write(f, qexpansion.to_json_dict(qexpansion.eisenstein(4, 4)))
        rep = tmp_path / "rep.json"
        assert run(["thm41", "--f", str(f), "--weight", "4", "--prime", "3",
                    "--m", "1", "--minor-order", "1", "--dilate-exp", "1",
                    "-o", str(rep)]) == 0
        body = read(rep)
        assert body["holds"] is True
        assert body == padic.bracket_theta_congruence(
            qexpansion.eisenstein(4, 4), 4, 3, 1, 1, 1).to_json_dict()


class TestCosetsCommand:
    def test_count_only(self, capsys):
        assert run(["cosets", "--degree", "2", "--prime", "3",
                    "--count-only"]) == 0
        assert json.loads(capsys.readouterr().out) == {
            "degree": 2, "p": 3, "count": 40}
        start = time.perf_counter()
        assert run(["cosets", "--degree", "3", "--prime", "101",
                    "--count-only"]) == 0
        assert time.perf_counter() - start < 1.0
        assert json.loads(capsys.readouterr().out) == {
            "degree": 3, "p": 101, "count": 1072136382408}
        assert run(["cosets", "--degree", "4", "--prime", "3", "--count-only"]) == 2
        assert run(["cosets", "--degree", "2", "--prime", "9", "--count-only"]) == 2

    def test_full_listing(self, tmp_path):
        out = tmp_path / "c.json"
        assert run(["cosets", "--degree", "1", "--prime", "3",
                    "-o", str(out)]) == 0
        body = read(out)
        assert isinstance(body, list) and len(body) == 4
        assert body[0]["cell"] == 0
        for entry in body:
            assert set(entry) == {"cell", "b", "a", "mat"}

    def test_listing_bytes_pinned(self, tmp_path):
        # sha256 and size of listings written by the product-based builder
        # (partial_involution * unipotent * levi) before the closed form
        for n, p, size, digest in (
            (3, 3, 935691,
             "d0e8cc206f8e81d022a435d932a232edeaefee43a70a5c7f1a991d6b0250f105"),
            (2, 5, 71461,
             "67800ade39e6637d821667d413cc08b40aa9393db88317f72734f4fca40924e2"),
        ):
            out = tmp_path / ("c%d_%d.json" % (n, p))
            assert run(["cosets", "--degree", str(n), "--prime", str(p),
                        "-o", str(out)]) == 0
            data = out.read_bytes()
            assert len(data) == size
            assert hashlib.sha256(data).hexdigest() == digest

    def test_oversized_listing_fails_fast(self, tmp_path, capsys):
        start = time.perf_counter()
        assert run(["cosets", "--degree", "3", "--prime", "101"]) == 2
        assert time.perf_counter() - start < 1.0
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "1072136382408" in captured.err
        assert "--count-only" in captured.err
        # the refusal comes before the output file is opened
        out = tmp_path / "big.json"
        assert run(["cosets", "--degree", "3", "--prime", "7", "-o", str(out)]) == 2
        assert not out.exists()
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "137600" in captured.err


class TestRobustness:
    def test_deterministic_output(self, tmp_path):
        a = tmp_path / "a.json"
        b = tmp_path / "b.json"
        run(["delta", "--trace-bound", "5", "-o", str(a)])
        run(["delta", "--trace-bound", "5", "-o", str(b)])
        assert a.read_bytes() == b.read_bytes()

    def test_usage_errors(self, tmp_path, capsys):
        assert run([]) == 2
        assert run(["nonsense"]) == 2
        assert run(["eisenstein", "--weight", "4"]) == 2  # missing bound
        capsys.readouterr()

    def test_computation_errors_exit_two(self, tmp_path, capsys):
        f = tmp_path / "f.json"
        write(f, qexpansion.to_json_dict(qexpansion.eisenstein(4, 2)))
        assert run(["eisenstein", "--weight", "5", "--trace-bound", "2"]) == 2
        assert run(["up", "--f", str(f), "--prime", "1"]) == 2
        assert run(["mul", "--f", str(f), "--g", "/nonexistent.json"]) == 2
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        assert run(["up", "--f", str(bad), "--prime", "3"]) == 2
        capsys.readouterr()
        dup = read(f)
        dup["coeffs"].append(dup["coeffs"][1])
        write(bad, dup)
        assert run(["up", "--f", str(bad), "--prime", "3"]) == 2
        assert "duplicate t2" in capsys.readouterr().err
        frac = read(f)
        frac["degree"] = 1.7
        write(bad, frac)
        assert run(["up", "--f", str(bad), "--prime", "3"]) == 2
        write(bad, {"rank": 1, "gram": [[2.9]]})
        assert run(["theta", "--gram", str(bad), "--degree", "1",
                    "--trace-bound", "2"]) == 2
        # values are "num/den" or integer strings only
        for edit in (lambda d: d["coeffs"][0].update(value=0.1),
                     lambda d: d["coeffs"][0].update(value="2.5e3"),
                     lambda d: d["coeffs"][0].update(value="1/0"),
                     lambda d: d["meta"].update(weight="0.5"),
                     lambda d: d["meta"].update(character=[{"a": 1}]),
                     lambda d: d.update(meta=[1])):
            doc = read(f)
            edit(doc)
            write(bad, doc)
            assert run(["up", "--f", str(bad), "--prime", "3"]) == 2
        for value in ("0.1", "2.5e3", "1/0", "1_0", " 3"):
            assert run(["vp", "--value", value, "--prime", "3"]) == 2
        # block values are arrays of arrays of rationals
        for degree, t2, value in ((1, [[0]], "1"), (1, [[0]], ["1"]),
                                  (1, [[0]], {"7": "x"}),
                                  (2, [[0, 0], [0, 0]], ["11", "00"])):
            doc = qexpansion.to_json_dict(
                qexpansion.FourierExpansion(degree, 1, {}, shape=("compound", 1)))
            doc["coeffs"].append({"t2": t2, "value": value})
            write(bad, doc)
            assert run(["dilate", "--f", str(bad), "--factor", "1"]) == 2
        # documents name the object they should be and the missing field
        capsys.readouterr()
        missing = read(f)
        del missing["shape"]
        del missing["coeffs"][0]["value"]
        for doc, expansion_error in (
                ([1, 2], "expansion: expected a JSON object, got list"),
                (missing, "expansion object has no 'shape' field"),
                (dict(read(f), coeffs=[[0]]),
                 "coefficient entry: expected a JSON object, got list"),
                (dict(read(f), shape="scalar", coeffs=missing["coeffs"]),
                 "coefficient entry object has no 'value' field"),
                (dict(read(f), coeffs=[{"t2": [[[0]]], "value": "1"}]),
                 "t2 entry must be an integer, got [0]")):
            write(bad, doc)
            assert run(["up", "--f", str(bad), "--prime", "3"]) == 2
            assert capsys.readouterr().err == "error: %s\n" % expansion_error
        for doc, gram_error in (
                ([[2]], "Gram: expected a JSON object, got list"),
                ({"rank": 1}, "Gram object has no 'gram' field"),
                ({"gram": [[[2]]]}, "gram entry must be an integer, got [2]")):
            write(bad, doc)
            assert run(["theta", "--gram", str(bad), "--degree", "1",
                        "--trace-bound", "2"]) == 2
            assert capsys.readouterr().err == "error: %s\n" % gram_error
        g = str(f)
        assert run(["thm41", "--f", g, "--weight", "4.0", "--prime", "3",
                    "--m", "1", "--minor-order", "1", "--dilate-exp", "1"]) == 2
        for wf, wg in (("4e0", "4"), ("4", "4e0")):
            assert run(["bracket", "--f", g, "--g", g, "--minor-order", "1",
                        "--weight-f", wf, "--weight-g", wg]) == 2
        # strong pseudoprimes and primes past the limit fail fast
        for prime in ("3215031751", "3825123056546413051",
                      "3317044064679887385961981"):
            assert run(["vp", "--value", "3", "--prime", prime]) == 2
        capsys.readouterr()

    def test_malformed_matrices_exit_two(self, tmp_path, capsys):
        # each message names the JSON field and quotes what it holds
        path = str(tmp_path / "bad.json")
        scalar = qexpansion.to_json_dict(qexpansion.FourierExpansion(2, 1))
        scalar["coeffs"].append({"t2": [[0, 0], [0]], "value": "1"})
        block = qexpansion.to_json_dict(
            qexpansion.FourierExpansion(2, 1, shape=("compound", 1)))
        block["coeffs"].append({"t2": [[0, 0], [0, 0]], "value": [["1", "0"], ["0"]]})
        for doc, argv, field, rows in (
                (scalar, ["up", "--f", path, "--prime", "3"], "t2", [[0, 0], [0]]),
                ({"gram": []}, ["theta", "--gram", path, "--degree", "1",
                                "--trace-bound", "2"], "gram", []),
                (block, ["dilate", "--f", path, "--factor", "2"], "block value",
                 [["1", "0"], ["0"]])):
            write(path, doc)
            assert run(argv) == 2
            captured = capsys.readouterr()
            assert captured.out == ""
            assert captured.err == (
                "error: %s must be a non-empty square array of arrays, got %r\n"
                % (field, rows))

    def test_mismatched_expansions_exit_two(self, tmp_path, capsys):
        # the message names the argument, what it must be and what it is
        paths = {}
        for name, f in (("e4", qexpansion.eisenstein(4, 2)),
                        ("th2", theta.rep_numbers(theta.gram_a(2), 2, 1)),
                        ("block", diffops.theta_operator(qexpansion.eisenstein(4, 2), 1))):
            paths[name] = str(tmp_path / (name + ".json"))
            write(paths[name], qexpansion.to_json_dict(f))
        scalar = "of degree 1 with shape 'scalar'"
        for argv, error in (
                (["congruent", "--f", "e4", "--g", "th2", "--prime", "3", "--m", "1"],
                 "g: expected a FourierExpansion %s, got degree 2 and shape 'scalar'"
                 % scalar),
                (["congruent", "--f", "e4", "--g", "block", "--prime", "3", "--m", "1"],
                 "g: expected a FourierExpansion %s, got degree 1 and shape "
                 "('compound', 1)" % scalar),
                (["bracket", "--f", "e4", "--g", "th2", "--minor-order", "1",
                  "--weight-f", "4", "--weight-g", "1"],
                 "g: expected a FourierExpansion %s, got degree 2 and shape 'scalar'"
                 % scalar),
                (["bracket", "--f", "block", "--g", "e4", "--minor-order", "1",
                  "--weight-f", "4", "--weight-g", "4"],
                 "f: expected a FourierExpansion %s, got degree 1 and shape "
                 "('compound', 1)" % scalar),
                (["thm41", "--f", "block", "--weight", "4", "--prime", "3", "--m", "1",
                  "--minor-order", "1", "--dilate-exp", "1"],
                 "f: expected a FourierExpansion with shape 'scalar', got degree 1 "
                 "and shape ('compound', 1)")):
            argv = [paths.get(a, a) for a in argv]
            assert run(argv) == 2
            captured = capsys.readouterr()
            assert captured.out == ""
            assert captured.err == "error: %s\n" % error

    def test_malformed_keys_and_shape_exit_two(self, tmp_path, capsys):
        # the message keeps its old phrase and quotes the key 2T or the value
        path = str(tmp_path / "bad.json")
        for degree, bound, shape, t2, error in (
                (2, 3, "scalar", [[2, 3], [3, 2]],
                 "keys must be positive semidefinite, got 2T ((2, 3), (3, 2))"),
                (1, 1, "scalar", [[2, 0], [0, 2]],
                 "key degree mismatch: 2T ((2, 0), (0, 2)) has degree 2, the series 1"),
                (1, 1, "scalar", [[4]],
                 "key beyond the trace bound: 2T ((4,),) has trace 2 > 1"),
                (1, 1, "bogus", [[2]],
                 """shape must be "scalar" or {"compound": r}, got 'bogus'""")):
            write(path, {"degree": degree, "trace_bound": bound, "shape": shape,
                         "coeffs": [{"t2": t2, "value": "1"}]})
            assert run(["pow", "--f", path, "--exp", "2"]) == 2
            captured = capsys.readouterr()
            assert captured.out == ""
            assert captured.err == "error: %s\n" % error

    def test_duplicate_keys_exit_two(self, tmp_path, capsys):
        # read last-wins, each of these files passes as valid input
        path = str(tmp_path / "dup.json")
        expansion = qexpansion.dumps(qexpansion.eisenstein(4, 2))
        vp = ["vp", "--f", path, "--prime", "5"]
        for key, text, argv in (
                ("degree", expansion.replace(
                    '"degree": 1', '"degree": 2, "degree": 1', 1), vp),
                ("weight", expansion.replace(
                    '"weight": "4/1"', '"weight": "6/1", "weight": "4/1"', 1), vp),
                ("gram", '{"rank": 1, "gram": [[4]], "gram": [[2]]}',
                 ["theta", "--gram", path, "--degree", "1", "--trace-bound", "2"])):
            assert text != expansion
            with open(path, "w", encoding="utf-8") as handle:
                handle.write(text)
            assert run(argv) == 2
            captured = capsys.readouterr()
            assert captured.out == ""
            assert "duplicate key '%s'" % key in captured.err

    def test_integers_past_the_string_limit_exit_two(self, tmp_path, capsys):
        # Python converts ints of at most sys.get_int_max_str_digits()
        # digits to and from strings; past it, the field, the digit count
        # and the limit are named, and no file is written
        limit = sys.get_int_max_str_digits()
        f = tmp_path / "f.json"
        write(f, {"degree": 1, "trace_bound": 1, "shape": "scalar",
                  "coeffs": [{"t2": [[0]], "value": "2"}, {"t2": [[2]], "value": "1"}]})
        out = tmp_path / "out.json"
        # the constant term of (2 + q)^15000 is 2^15000, with 4516 digits
        assert run(["pow", "--f", str(f), "--exp", "15000", "-o", str(out)]) == 2
        assert not out.exists()
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            "error: value: the numerator has 4516 digits, more than the %d that "
            "Python converts between integers and strings\n" % limit)
        for value, part in (("1" * 5000, "numerator"),
                            ("-1/" + "3" * 5000, "denominator")):
            write(f, {"degree": 1, "trace_bound": 1, "shape": "scalar",
                      "coeffs": [{"t2": [[0]], "value": value}]})
            assert run(["pow", "--f", str(f), "--exp", "1", "-o", str(out)]) == 2
            assert not out.exists()
            captured = capsys.readouterr()
            assert captured.out == ""
            assert captured.err == (
                "error: value: the %s has 5000 digits, more than the %d that "
                "Python converts between integers and strings\n" % (part, limit))
        # a value at the limit is read and written as it is
        value = "9" * limit
        write(f, {"degree": 1, "trace_bound": 1, "shape": "scalar",
                  "coeffs": [{"t2": [[0]], "value": value}]})
        assert run(["pow", "--f", str(f), "--exp", "1", "-o", str(out)]) == 0
        assert read(out)["coeffs"][0]["value"] == value + "/1"

    def test_large_zero_key_reads_fast(self, tmp_path):
        # one 18 x 18 key: deciding it psd must not take 2^18 - 1 minors
        zero = [[0] * 18] * 18
        f = tmp_path / "z18.json"
        write(f, {"degree": 18, "trace_bound": 1, "shape": "scalar",
                  "coeffs": [{"t2": zero, "value": "1"}]})
        out = tmp_path / "up.json"
        start = time.perf_counter()
        assert run(["up", "--f", str(f), "--prime", "3", "-o", str(out)]) == 0
        assert time.perf_counter() - start < 1.0
        assert read(out)["coeffs"] == [{"t2": zero, "value": "1/1"}]

    def test_size_limit_exits_two_fast(self, tmp_path, capsys):
        # a single number in a document or an option asks for no matrix
        # past SIZE_LIMIT; at the limit both build at once
        big = SIZE_LIMIT + 1
        f = tmp_path / "big.json"
        write(f, {"degree": big, "trace_bound": 1, "shape": "scalar", "coeffs": []})
        start = time.perf_counter()
        assert run(["pow", "--f", str(f), "--exp", "0"]) == 2
        assert run(["mul", "--f", str(f), "--g", str(f)]) == 2
        assert run(["gram-a", "--rank", str(big)]) == 2
        assert time.perf_counter() - start < 1.0
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            "error: degree must be an integer in 1..%d, got %d\n" % (SIZE_LIMIT, big) * 2
            + "error: rank must be an integer in 1..%d, got %d\n" % (SIZE_LIMIT, big))
        write(f, {"degree": SIZE_LIMIT, "trace_bound": 1, "shape": "scalar",
                  "coeffs": []})
        out = tmp_path / "out.json"
        start = time.perf_counter()
        assert run(["pow", "--f", str(f), "--exp", "0", "-o", str(out)]) == 0
        assert run(["gram-a", "--rank", str(SIZE_LIMIT), "-o", str(out)]) == 0
        assert time.perf_counter() - start < 1.0

    def test_gram_rank_limit_exits_two_fast(self, tmp_path, capsys):
        # a Gram document's rank is bounded before definiteness is decided
        big = SIZE_LIMIT + 1
        f = tmp_path / "big.json"
        write(f, {"rank": big, "gram": [[{0: 2, 1: -1, -1: -1}.get(j - i, 0)
                                         for j in range(big)] for i in range(big)]})
        start = time.perf_counter()
        assert run(["theta", "--gram", str(f), "--degree", "1", "--trace-bound", "1"]) == 2
        assert time.perf_counter() - start < 1.0
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: rank must be an integer in 1..%d, got %d\n" % (
            SIZE_LIMIT, big)

    def test_deep_nesting_exits_two(self, tmp_path, capsys):
        # the parser's recursion limit is an input error, not a traceback
        deep = tmp_path / "deep.json"
        deep.write_text("[" * 200000 + "]" * 200000)
        assert run(["vp", "--f", str(deep), "--prime", "5"]) == 2
        assert run(["theta", "--gram", str(deep), "--degree", "1",
                    "--trace-bound", "2"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.count("nested too deeply") == 2

    def test_parser_reuse_keeps_no_state(self, tmp_path, capsys):
        # one process: an error, then outputs equal to a fresh parser's
        assert run(["eisenstein", "--weight", "4"]) == 2
        capsys.readouterr()
        for argv in (["gram-a", "--rank", "3"],
                     ["eisenstein", "--weight", "6", "--trace-bound", "4"]):
            assert run(argv) == 0
            reused = capsys.readouterr().out
            assert cli._run_command(cli.build_parser().parse_args(argv)) == 0
            assert capsys.readouterr().out == reused
        assert cli.build_parser() is not cli.build_parser()
        # a flag given in one call is not a default in the next
        f = tmp_path / "f.json"
        write(f, qexpansion.to_json_dict(qexpansion.eisenstein(4, 2)))
        args = ["congruent", "--f", str(f), "--g", str(f), "--prime", "3",
                "--m", "1"]
        assert run(args + ["--normalized"]) == 0
        assert json.loads(capsys.readouterr().out)["normalized"] is True
        assert run(args) == 0
        assert json.loads(capsys.readouterr().out)["normalized"] is False

    def test_python_dash_m(self, capsys):
        src = os.path.dirname(os.path.dirname(os.path.abspath(siegelq.__file__)))
        env = dict(os.environ, PYTHONPATH=src)
        done = subprocess.run([sys.executable, "-m", "siegelq", "gram-a", "--rank", "2"],
                              capture_output=True, env=env, check=False)
        assert run(["gram-a", "--rank", "2"]) == 0
        assert done.returncode == 0
        assert done.stdout.decode("utf-8") == capsys.readouterr().out

    def test_stdout_default(self, capsys):
        assert run(["gram-a", "--rank", "1"]) == 0
        assert json.loads(capsys.readouterr().out) == {"rank": 1, "gram": [[2]]}


class TestParser:
    def subcommands(self):
        parser = cli.build_parser()
        (subs,) = [a for a in parser._actions
                   if isinstance(a, argparse._SubParsersAction)]
        return subs.choices

    def test_readme_table_matches_parser(self):
        with open(README, "r", encoding="utf-8") as handle:
            text = handle.read()
        section = text.split("## Command line", 1)[1].split("\n## ", 1)[0]
        names = []
        for line in section.splitlines():
            if line.startswith("| `"):
                names += re.findall(r"`([^`]+)`", line.split("|")[1])
        assert sorted(names) == sorted(self.subcommands())
        assert len(names) == len(set(names))

    def test_every_subcommand_has_an_action(self):
        for name, sub in self.subcommands().items():
            assert callable(sub.get_default("run")), name
            assert sub.get_default("output") is None, name
