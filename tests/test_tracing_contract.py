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
