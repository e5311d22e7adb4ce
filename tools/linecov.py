"""List the executable lines of ``src/nbreserve/`` that a pytest run never executes.

Run from the repository root; the package is imported from ``src/`` of
that checkout, and any arguments are passed on to pytest (default: the
whole suite, quietly)::

    python3 tools/linecov.py [pytest args]

The tool runs pytest in its own process with ``-p no:cacheprovider`` under
a ``sys.settrace`` tracer that records a line only in frames whose code
lies in ``src/nbreserve/``, so it writes no tracked file and needs nothing
beyond the standard library and the test suite's own dependencies. A
line counts as executable when a code object compiled from the file
attributes an instruction to it (``co_lines``). Lines that run only in a
worker process, such as a bootstrap with more than one worker, or in a
subprocess the tests start are not seen, and are listed as never run.

It prints pytest's exit status, then one ``path:line: source`` per line
that never ran and their count. Its exit status is pytest's.
"""

from __future__ import annotations

import sys
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "nbreserve"


def executable_lines(path: Path) -> set:
    """The lines of ``path`` to which some code object compiled from it attributes an instruction."""
    lines, todo = set(), [compile(path.read_text(encoding="utf-8"), str(path), "exec")]
    while todo:
        code = todo.pop()
        lines.update(line for _, _, line in code.co_lines() if line)  # a module's first instruction is at line 0
        todo.extend(c for c in code.co_consts if hasattr(c, "co_lines"))
    return lines


def main(args) -> int:
    import pytest

    prefix = str(PACKAGE) + "/"
    seen = defaultdict(set)

    def local(frame, event, arg):
        if event == "line":
            seen[frame.f_code.co_filename].add(frame.f_lineno)
        return local

    def call(frame, event, arg):
        return local if frame.f_code.co_filename.startswith(prefix) else None

    sys.path.insert(0, str(ROOT / "src"))
    sys.settrace(call)
    try:
        status = pytest.main(["-p", "no:cacheprovider", *(args or ["-q", str(ROOT / "tests")])])
    finally:
        sys.settrace(None)

    missed = []
    for path in sorted(PACKAGE.rglob("*.py")):
        source = path.read_text(encoding="utf-8").splitlines()
        for line in sorted(executable_lines(path) - seen[str(path)]):
            missed.append(f"{path.relative_to(ROOT)}:{line}: {source[line - 1].strip()}")
    print(f"pytest exit status {int(status)}")
    print("\n".join(missed))
    print(f"{len(missed)} executable lines of src/nbreserve never ran in this process")
    return int(status)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
