"""Every lagraph attribute the benchmark tracer wraps still exists.

``perfbench/spans.py`` replaces module attributes by name, so a refactor
that drops or renames one breaks traced benchmark runs only. This test loads
the tracer's target list and resolves each entry.
"""

import importlib.util
import sys
from pathlib import Path

SPANS_PATH = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def load_spans():
    spec = importlib.util.spec_from_file_location("_perfbench_spans", SPANS_PATH)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up while the class is built
    try:
        spec.loader.exec_module(module)
    finally:
        del sys.modules[spec.name]
    return module


def test_every_traced_name_resolves():
    spans = load_spans()
    missing = []
    for target in spans.targets():
        try:
            _, _, value = spans.lookup(target)
        except (AttributeError, KeyError, ImportError):
            missing.append(f"{target.module}.{target.attr}")
            continue
        assert callable(value) or isinstance(value, classmethod), f"{target.module}.{target.attr}"
    assert missing == []
