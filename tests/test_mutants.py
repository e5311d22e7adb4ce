"""The mutant catalogue (``tools/mutants.py``) stays current as the code moves.

Only the catalogue's occurrence rule is checked here: each mutant's old
text occurs exactly once in its file, and each names tests that exist as
files. Running the mutants takes ``python3 tools/mutants.py``.
"""

import importlib.util
from pathlib import Path

import pytest

_ROOT = Path(__file__).resolve().parent.parent
_spec = importlib.util.spec_from_file_location("mutants", _ROOT / "tools" / "mutants.py")
mutants = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(mutants)


@pytest.mark.parametrize("mutant", mutants.MUTANTS, ids=lambda m: m.name)
def test_old_text_occurs_once(mutant):
    mutants.check(mutant)
    assert mutant.new != mutant.old
    assert mutant.tests and all((_ROOT / node.partition("::")[0]).is_file() for node in mutant.tests)


def test_names_are_unique():
    names = [m.name for m in mutants.MUTANTS]
    assert len(names) >= 8 and len(set(names)) == len(names)


def test_text_in_no_file_or_twice_is_an_error(tmp_path):
    package = tmp_path / mutants.PACKAGE
    package.mkdir(parents=True)
    (package / "glm.py").write_text("x = 1\nx = 1\n")
    for old in ("x = 1", "y = 2"):
        with pytest.raises(ValueError, match="not once"):
            mutants.check(mutants.Mutant("m", "glm.py", old, "z", ("tests/test_glm.py",), ""), tmp_path)
