"""The names the package exports and the benchmark's tracer wraps exist.

perfbench/spans.py wraps the entry points listed in its ENTRY_POINTS and
raises AttributeError on a missing one, so a rename here would break the
benchmark while every other test stays green.
"""

import importlib
import importlib.util
from pathlib import Path

import siegelq

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def test_public_and_traced_names_resolve():
    for name in siegelq.__all__:
        assert hasattr(siegelq, name), name
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    for layer, targets in spans.ENTRY_POINTS.items():
        module = importlib.import_module("siegelq." + layer)
        for target in targets:
            if "." in target:
                cls_name, attr = target.split(".")
                assert attr in vars(getattr(module, cls_name)), target
            else:
                assert callable(getattr(module, target)), target


def test_cli_actions_resolve_when_they_run(tmp_path, monkeypatch, capsys):
    # The parser is cached per process and the tracer wraps module
    # attributes after it exists, so an action holding a function taken
    # when the parser was built would bypass the wrapper.
    from siegelq import cli, padic, qexpansion, symplectic, theta

    gram = tmp_path / "a2.json"
    assert cli.run(["gram-a", "--rank", "2", "-o", str(gram)]) == 0
    calls = {}

    def counting(module, name):
        inner = getattr(module, name)

        def wrapper(*args, **kwargs):
            calls[name] = calls.get(name, 0) + 1
            return inner(*args, **kwargs)

        monkeypatch.setattr(module, name, wrapper)

    counting(theta, "rep_numbers")
    counting(qexpansion, "to_json_dict")
    counting(padic, "congruent")
    counting(symplectic, "coset_reps")
    th = tmp_path / "th.json"
    for argv in (["theta", "--gram", str(gram), "--degree", "1",
                  "--trace-bound", "2", "-o", str(th)],
                 ["congruent", "--f", str(th), "--g", str(th), "--prime", "3",
                  "--m", "1"],
                 ["cosets", "--degree", "1", "--prime", "3"]):
        assert cli.run(argv) == 0
    capsys.readouterr()
    assert sorted(calls) == ["congruent", "coset_reps", "rep_numbers",
                             "to_json_dict"]
