"""The package ships only code it runs.

Every private top-level function or class of ``src/nbreserve`` is read
by code in ``src/`` outside its own definition; docstrings and comments
are not code. Two names stay only as aliases that the traced benchmark
hooks (``bench/spans.py``), and no code in ``src/`` names them: the
benchmark's observer on ``_bootstrap:_refit`` reads its arguments as one
replicate's, so a batch reaching it would be miscounted.
"""

import ast
import importlib
from pathlib import Path

_SRC = Path(__file__).resolve().parent.parent / "src" / "nbreserve"

# alias -> (module, the function it names)
_ALIASES = {"_refit": ("_bootstrap", "_refit_batch"), "_solve_kappa": ("dispersion", "_start_kappa")}


def _modules():
    return {path.stem: ast.parse(path.read_text(encoding="utf-8")) for path in sorted(_SRC.glob("*.py"))}


def _is_alias(stmt) -> bool:
    return (
        isinstance(stmt, ast.Assign)
        and len(stmt.targets) == 1
        and isinstance(stmt.targets[0], ast.Name)
        and stmt.targets[0].id in _ALIASES
    )


def _read_names(node):
    """Every name the code under ``node`` reads, as a variable or an attribute."""
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name) and isinstance(sub.ctx, ast.Load):
            yield sub.id
        elif isinstance(sub, ast.Attribute) and isinstance(sub.ctx, ast.Load):
            yield sub.attr


def test_private_definitions_are_used():
    defined, read = [], {}
    for module, tree in _modules().items():
        for stmt in tree.body:
            if isinstance(stmt, (ast.FunctionDef, ast.ClassDef)) and stmt.name.startswith("_"):
                defined.append((module, stmt.name))
            if not _is_alias(stmt):  # an alias is kept for the benchmark, not used
                for name in _read_names(stmt):
                    read.setdefault(name, set()).add((module, getattr(stmt, "name", None)))
    assert ("glm", "_irls") in defined  # the scan finds the definitions
    # a use inside the definition itself, as a recursion, does not count
    unused = [(m, f) for m, f in defined if not read.get(f, set()) - {(m, f)}]
    assert unused == []


def test_benchmark_aliases_are_not_called():
    lines = []
    for module, tree in _modules().items():
        for stmt in tree.body:
            if _is_alias(stmt):
                lines.append((module, stmt.targets[0].id, ast.unparse(stmt.value)))
                continue
            for sub in ast.walk(stmt):
                names = []
                if isinstance(sub, ast.Name):
                    names = [sub.id]
                elif isinstance(sub, ast.Attribute):
                    names = [sub.attr]
                elif isinstance(sub, (ast.FunctionDef, ast.ClassDef)):
                    names = [sub.name]
                elif isinstance(sub, (ast.Import, ast.ImportFrom)):
                    names = [n for alias in sub.names for n in (alias.name, alias.asname)]
                for name in set(names) & set(_ALIASES):
                    raise AssertionError(f"src/nbreserve/{module}.py:{sub.lineno} names {name}")
    assert sorted(lines) == sorted((module, alias, target) for alias, (module, target) in _ALIASES.items())
    for alias, (module, target) in _ALIASES.items():
        owner = importlib.import_module(f"nbreserve.{module}")
        assert getattr(owner, alias) is getattr(owner, target)
