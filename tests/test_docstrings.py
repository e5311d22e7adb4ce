"""Every Sphinx cross-reference in the package's docstrings, and every private name README names, exists.

A ``:func:``, ``:class:``, ``:mod:``, ``:meth:`` or ``:attr:`` target
resolves either by attribute lookup from the module that names it or by
absolute import (``nbreserve.glm._irls``), so a rename that misses a
docstring fails here. A private name (``_irls``, ``glm._prepare``) in
README's inline code, outside fenced blocks, must be an attribute of some
``nbreserve`` module, so a rename that misses README fails too.
"""

import importlib
import re
from pathlib import Path

import pytest

_SRC = Path(__file__).resolve().parent.parent / "src" / "nbreserve"
_README = _SRC.parent.parent / "README.md"
_ROLE = re.compile(r":(?:func|class|mod|meth|attr):`~?([^`]+)`")
_FENCED = re.compile(r"^```.*?^```", re.S | re.M)
_INLINE = re.compile(r"`([^`]+)`")
_PRIVATE = re.compile(r"(?<!\w)_[A-Za-z]\w*")


def _lookup(owner, path):
    for name in path:
        owner = getattr(owner, name)
    return owner


def _resolves(module, target: str) -> bool:
    parts = target.split(".")
    try:
        _lookup(module, parts)
        return True
    except AttributeError:
        pass
    for cut in range(len(parts), 0, -1):
        try:
            owner = importlib.import_module(".".join(parts[:cut]))
        except ImportError:
            continue
        try:
            _lookup(owner, parts[cut:])
            return True
        except AttributeError:
            return False
    return False


@pytest.mark.parametrize("path", sorted(_SRC.glob("*.py")), ids=lambda p: p.stem)
def test_references_resolve(path):
    module = importlib.import_module(f"nbreserve.{path.stem}" if path.stem != "__init__" else "nbreserve")
    targets = _ROLE.findall(path.read_text(encoding="utf-8"))
    assert [t for t in targets if not _resolves(module, t)] == []


def test_readme_private_names_resolve():
    modules = [importlib.import_module(f"nbreserve.{p.stem}") for p in _SRC.glob("*.py") if p.stem != "__init__"]
    text = _FENCED.sub("", _README.read_text(encoding="utf-8"))
    names = {name for span in _INLINE.findall(text) for name in _PRIVATE.findall(span)}
    assert "_irls" in names  # the scan finds README's private names
    assert sorted(n for n in names if not any(hasattr(m, n) for m in modules)) == []
