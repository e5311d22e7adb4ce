"""Every binding the traced benchmark hooks must exist in the package.

``bench/spans.py`` patches module attributes by name; a refactor that
renames or moves one would otherwise fail only the traced benchmark run.
"""

import importlib.util
from pathlib import Path

import pytest

_SPANS = Path(__file__).resolve().parent.parent / "bench" / "spans.py"


def _load_spans():
    spec = importlib.util.spec_from_file_location("nbreserve_bench_spans", _SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


spans = _load_spans()


@pytest.mark.parametrize(
    "binding",
    [b for _, bindings, _ in spans.HOOKS for b in bindings] + [b for _, b in spans.COUNTERS],
)
def test_binding_resolves(binding):
    owner, attr, value = spans._resolve(binding)
    assert getattr(owner, attr) is value
    assert callable(value)
