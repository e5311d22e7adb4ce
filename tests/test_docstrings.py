"""Every cross-reference and raised error in the package's docstrings, and every private name README names, exists.

A ``:func:``, ``:class:``, ``:mod:``, ``:meth:`` or ``:attr:`` target
resolves either by attribute lookup from the module that names it or by
absolute import (``nbreserve.glm._irls``), so a rename that misses a
docstring fails here. A private name (``_irls``, ``glm._prepare``) in
README's inline code, outside fenced blocks, must be an attribute of some
``nbreserve`` module, so a rename that misses README fails too. Each
entry of a ``Raises:`` section names a class of ``nbreserve.errors`` or
a builtin exception, so a deleted error cannot linger in a docstring.
"""

import builtins
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
# a Raises: header and the indented lines under it
_RAISES = re.compile(r"^( *)Raises:\n((?:\1 +\S.*\n)+)", re.M)


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


def test_raised_names_are_exceptions():
    from nbreserve import errors

    def known(name):
        cls = getattr(errors, name, None) or getattr(builtins, name, None)
        return isinstance(cls, type) and issubclass(cls, BaseException)

    names = set()
    for path in _SRC.glob("*.py"):
        for indent, block in _RAISES.findall(path.read_text(encoding="utf-8")):
            # an entry sits one level below the header; deeper lines continue it
            names.update(re.findall(rf"^{indent}    (\w+):", block, re.M))
    assert {"NotConvergedError", "SeparationError"} <= names  # the scan finds the sections
    assert sorted(n for n in names if not known(n)) == []
