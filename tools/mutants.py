"""Run the catalogue of mutants: broken copies of ``src/`` that named tests must fail.

Run from the repository root, for every mutant or the named ones::

    python3 tools/mutants.py
    python3 tools/mutants.py reader-reads-attributes year-truncated

Each mutant is one exact replacement of text in a file of
``src/nbreserve``, the pytest node ids expected to kill it, and the rule
it guards (a ROADMAP item, a FOUND line of CHANGES.md or a fix). For each
one the script copies the tree to a new temporary directory, applies the
replacement there and runs pytest on the node ids against that copy's
``src/``; the checkout is never edited. It prints ``killed`` (a test
failed), ``survived`` (every test passed) and the seconds taken, and exits
with status 1 when a mutant survives or a run cannot tell (its tests were
not found or did not import). A survivor is a fault the suite misses: it
stays in the catalogue and gets a test.

An old text that does not occur exactly once in its file is an error
(:func:`check`), so that the catalogue stays current as the code moves;
``tests/test_mutants.py`` checks that alone.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import NamedTuple, Tuple

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = Path("src") / "nbreserve"


class Mutant(NamedTuple):
    name: str
    path: str  # under src/nbreserve
    old: str
    new: str
    tests: Tuple[str, ...]  # pytest node ids, relative to the repository root
    guards: str


MUTANTS = [
    Mutant(
        "reader-reads-attributes", "triangle.py",
        "ay, dy, counts = zip(*records, strict=True)",
        "ay, dy, counts = zip(*[(r.ay, r.dy, r.count) for r in records], strict=True)",
        ("tests/test_triangle.py::TestRecordReader::test_plain_triples_read_as_records",),
        "one reader of long-format records: a plain triple reads as a CellRecord",
    ),
    Mutant(
        "reader-count-by-attribute", "triangle.py",
        "ay, dy, count = record\n",
        "ay, dy, count = record.ay, record.dy, record.count\n",
        ("tests/test_triangle.py::TestRecordReader::test_whole_years_read_as_integers",),
        "one reader of long-format records: a record whose years are checked one by one is a triple too",
    ),
    Mutant(
        "bad-count-by-attribute", "glm.py",
        "value = float(y[k]) if records is None else _read_records(records)[2][k]",
        "value = float(y[k]) if records is None else records[k].count",
        ("tests/test_triangle.py::TestRecordReader::test_bad_count_of_a_triple_named_as_held",),
        "one reader of long-format records: a bad count's error names it as a triple holds it",
    ),
    Mutant(
        "loglik-counts-by-attribute", "glm.py",
        "else _prepare(counts)[0]",
        "else np.array([r.count for r in counts], dtype=float)",
        ("tests/test_triangle.py::TestRecordReader::test_plain_triples_read_as_records",),
        "one reader of long-format records: poisson_loglik and nb_loglik read a triple's count",
    ),
    Mutant(
        "year-truncated", "triangle.py",
        "whole = ay.dtype == dy.dtype == np.int64",
        "whole = True",
        ("tests/test_triangle.py::TestRecordReader::test_year_not_a_whole_number_refused[ay-1.5]",),
        "the year rule: a year that is not a whole number is refused, not truncated",
    ),
    Mutant(
        "layout-positions-overflow", "triangle.py",
        "m = min(I, n + 1)",
        "m = I",
        ("tests/test_triangle.py::TestRecordReader::test_year_past_the_records_is_a_missing_cell[4611686018427387904]",),
        "the year rule: a year past the records names a missing cell, with no int64 overflow",
    ),
    Mutant(
        "layout-dy-overflow", "triangle.py",
        "+ np.minimum(dy, n), n)",
        "+ dy, n)",
        ("tests/test_triangle.py::TestRecordReader::test_year_past_the_records_is_a_missing_cell[9223372036854775807-far-dy]",),
        "the year rule: a dy far past the records names a missing cell, with no int64 overflow",
    ),
    Mutant(
        "layout-row-wraps", "triangle.py",
        "i = np.minimum(np.maximum(ay, 0), m + 1) - 1",
        "i = np.minimum(ay - 1, m)",
        ("tests/test_triangle.py::TestRecordReader::test_most_negative_year_is_outside",),
        "the year rule: ay = -2**63 is outside the triangle, not a wrapped row",
    ),
    Mutant(
        "year-text-refused", "triangle.py",
        "year = value if isinstance(value, numbers.Integral) else float(value)",
        "year = value if isinstance(value, numbers.Integral) else float(value) + 0 * value",
        ("tests/test_triangle.py::TestRecordReader::test_whole_years_read_as_integers",),
        "the year rule: a year that reads as a whole number reads as before, its text and Decimal too",
    ),
    Mutant(
        "loglik-list-records-as-counts", "glm.py",
        "flat = np.ndim(counts) < 2",
        "flat = not isinstance(counts[0], tuple)",
        ("tests/test_triangle.py::TestRecordReader::test_plain_triples_read_as_records",),
        "the one reader: list records are records in the log-likelihoods too",
    ),
    Mutant(
        "loglik-array-as-counts", "glm.py",
        "return np.asarray(counts, dtype=float) if flat else",
        "return np.asarray(counts, dtype=float) if flat or isinstance(counts, np.ndarray) else",
        ("tests/test_triangle.py::TestRecordReader::test_logliks_read_every_container[2x2]",),
        "the one reader: an (n, 3) array is records in the log-likelihoods, not a block of counts",
    ),
    Mutant(
        "reader-not-three-fields", "triangle.py",
        "zip(*records, strict=True)",
        "zip(*records)",
        ("tests/test_triangle.py::TestRecordReader::test_record_not_three_fields_refused[5-four fields]",),
        "a record is three fields: a fourth is refused, not ignored",
    ),
    Mutant(
        "reader-array-rows-as-numpy", "triangle.py",
        "records = records.tolist()",
        "records = list(records)",
        ("tests/test_triangle.py::TestRecordReader::test_array_count_named_as_a_list_holds_it",),
        "an (n, 3) array's records give the outcome of the same records as a list",
    ),
    Mutant(
        "year-sequence-read", "triangle.py",
        " and ay.ndim == dy.ndim == 1",
        "",
        ("tests/test_triangle.py::TestRecordReader::test_years_that_are_sequences_refused",),
        "the year rule: a year that is a sequence is refused, also when every year is one",
    ),
    Mutant(
        "counts-shape-unchecked", "glm.py",
        "    if y.shape != (design.n,):\n        raise TriangleError(",
        "    if False:\n        raise TriangleError(",
        ("tests/test_dispersion.py::TestJointMle::test_one_count_per_cell",),
        "nb_mle takes one count per design cell, a TriangleError otherwise",
    ),
    Mutant(
        "table-rounds-each-year", "cli.py",
        "{point:<10}",
        "{row.point:<10.0f}",
        ("tests/test_cli.py::TestReserve::test_table_points_add_up",),
        "README's Rounding bullet: the reserve table's years add up to its total",
    ),
    Mutant(
        "invoke-bypasses-boundary", "cli.py",
        "return _reported(super().invoke, ctx)",
        "return super().invoke(ctx)",
        ("tests/test_cli.py::TestErrors::test_missing_file", "tests/test_cli.py::TestErrors::test_bad_triangle"),
        "one error boundary for every command (ROADMAP item 10)",
    ),
    Mutant(
        "byte-order-mark-kept", "triangle.py",
        'lines = _split_lines(text.removeprefix("\\ufeff"))',
        "lines = _split_lines(text)",
        ("tests/test_cli.py::TestFit::test_byte_order_mark_is_read",),
        "parse_triangle is the one home of the byte-order-mark rule (ROADMAP item 10)",
    ),
    Mutant(
        "diagnose-ignores-round-amounts", "cli.py",
        't = _load_triangle(triangle, round_amounts)\n    run = _Run("diagnose"',
        't = _load_triangle(triangle, False)\n    run = _Run("diagnose"',
        ("tests/test_cli.py::TestErrors::test_commands_agree_on_csv_text[fractional count, rounded]",),
        "every command that takes --round-amounts honours it (ROADMAP item 10)",
    ),
    Mutant(
        "kernel-without-dy-baseline", "glm.py",
        "            held[rows, np.argmax(dy_weighted, axis=1)] |= ~grid[:, :, 0].any(axis=1)\n",
        "",
        ("tests/test_glm.py::TestTwoWayStep", "tests/test_dispersion.py::test_one_joint_estimator"),
        "one kept-cell mask: a row without development year 0 takes its next year as the baseline",
    ),
    Mutant(
        "ci95-upper-capped", "dispersion.py",
        "ci95=(lower, upper),",
        "ci95=(lower, min(upper, 1e7)),",
        ("tests/test_dispersion.py::test_ci95_contains_kappa_hat",),
        "the interval contains kappa-hat, also at the cap (ROADMAP item 10)",
    ),
    Mutant(
        "chain-ladder-wrong-sums", "chainladder.py",
        "den = sums[j] - grid[I - 1 - j][j]",
        "den = sums[j]",
        ("tests/test_chainladder.py",),
        "the chain-ladder factor from the years that hold both columns (ROADMAP item 17)",
    ),
    Mutant(
        "substream-keyed-by-chunk", "_bootstrap.py",
        "substream(specs[i].seed, *specs[i].prefix, first // _BLOCK)",
        "substream(specs[i].seed, *specs[i].prefix, (first - lo) // _BLOCK)",
        ("tests/test_predictive.py::TestBootstrap::test_worker_count_invariance",),
        "draws do not depend on the worker count (ROADMAP item 17)",
    ),
]


def check(mutant: Mutant, root: Path = ROOT) -> None:
    """Raise ValueError unless the mutant's old text occurs exactly once in its file under ``root``."""
    count = (root / PACKAGE / mutant.path).read_text(encoding="utf-8").count(mutant.old)
    if count != 1:
        raise ValueError(f"{mutant.name}: its old text occurs {count} times in src/nbreserve/{mutant.path}, not once")


def run(mutant: Mutant) -> Tuple[str, float]:
    """(``killed``, ``survived`` or ``undecided``, seconds) of one mutant's tests on a mutated copy of the tree."""
    started = time.perf_counter()
    with tempfile.TemporaryDirectory(prefix="nbreserve-mutant-") as tmp:
        tree = Path(tmp) / "tree"
        shutil.copytree(ROOT, tree, ignore=shutil.ignore_patterns(".git", "__pycache__", ".hypothesis", ".pytest_cache"))
        target = tree / PACKAGE / mutant.path
        target.write_text(target.read_text(encoding="utf-8").replace(mutant.old, mutant.new), encoding="utf-8")
        env = {**os.environ, "PYTHONPATH": str(tree / "src"), "PYTHONDONTWRITEBYTECODE": "1"}
        done = subprocess.run(
            [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider", *mutant.tests],
            cwd=tree, env=env, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
        )
    # pytest exits 1 when a test failed; 0 when all passed; else it could not run them
    outcome = {0: "survived", 1: "killed"}.get(done.returncode, "undecided")
    return outcome, time.perf_counter() - started


def main(names) -> int:
    chosen = [m for m in MUTANTS if not names or m.name in names]
    unknown = set(names) - {m.name for m in MUTANTS}
    if unknown:
        print(f"unknown mutants: {', '.join(sorted(unknown))}", file=sys.stderr)
        return 2
    for mutant in chosen:
        check(mutant)
    started, failed = time.perf_counter(), 0
    for mutant in chosen:
        outcome, seconds = run(mutant)
        failed += outcome != "killed"
        print(f"{mutant.name:<32} {outcome:<10} {seconds:6.1f} s  ({mutant.guards})", flush=True)
    print(f"{len(chosen) - failed} of {len(chosen)} killed in {time.perf_counter() - started:.1f} s")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
