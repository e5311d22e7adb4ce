"""Run-off triangle data model and CSV ingestion.

Incremental claim counts are indexed by accident year ``i`` (1-based)
and development year ``j`` (0-based). For a square triangle of
dimension ``I`` the cell ``(i, j)`` is observed exactly when
``i + j <= I``; the remaining cells form the future region that
reserving techniques must predict. :func:`triangle_cells` states that
rule once for every module, :func:`_read_records` reads long-format records,
:func:`_check_layout` checks that they are those cells, :func:`_coerce_count` a
cell's count and :func:`_check_year_totals` a year's total.
"""

from __future__ import annotations

import csv
import io
import math
import numbers
from typing import Iterator, List, NamedTuple, Optional, Sequence, Tuple, Union

import numpy as np

from .errors import (
    CountTooLargeError,
    FutureCellError,
    MissingCellError,
    NegativeCountError,
    NonIntegerCountError,
    RaggedRowsError,
    TriangleError,
)

Label = Union[int, str]

# The largest count accepted. Every integer up to 2**53 is exact in
# float64, which the fits use; 2**53 itself is refused because a text
# cell parsed as float64 cannot tell it from 2**53 + 1.
_MAX_COUNT = 2**53 - 1


class CellRecord(NamedTuple):
    """One observed cell in long format."""

    ay: int
    dy: int
    count: int


def triangle_cells(I: int) -> Tuple[Tuple[np.ndarray, np.ndarray], Tuple[np.ndarray, np.ndarray]]:
    """0-based (ay, dy) indices of the observed and the future cells of an I x I triangle.

    A cell is future when ay + dy >= I. Both sets are row-major, so the
    observed cells come in the order of :func:`to_long`.
    """
    future = np.add.outer(np.arange(I), np.arange(I)) >= I
    return np.nonzero(~future), np.nonzero(future)


def _check_layout(ay: np.ndarray, dy: np.ndarray) -> int:
    """The dimension I of the run-off triangle whose observed cells are the pairs (ay, dy), each once.

    ``ay`` is 1-based, ``dy`` 0-based; I is the largest ``ay``. Raises
    :class:`RaggedRowsError` for I < 2, then names the first observed cell
    in row-major order with no pair (:class:`MissingCellError`) or more
    (:class:`RaggedRowsError`), then the smallest pair outside them
    (:class:`FutureCellError`). Every entry point that takes records runs
    it through :func:`_read_records`, and ``nb_mle`` on its design.
    """
    if ay.size == 0:
        raise MissingCellError("no records supplied")
    I = int(ay.max())
    if I < 2:
        raise RaggedRowsError("a triangle needs at least 2 accident years")
    # positions count only up to n, so the dimension, the rows and dy are
    # capped past it, where no sum or product of them overflows int64; a row
    # or dy capped inside the layout gives a position past n all the same
    n = ay.size
    m = min(I, n + 1)
    i = np.minimum(np.maximum(ay, 0), m + 1) - 1
    outside = (i | dy | (I - ay - dy)) < 0  # ay below 1, dy below 0, or ay + dy > I
    # each pair's row-major position among the observed cells: n pairs miss one of
    # the first n + 1, so one last bin takes the later positions and the pairs outside
    pos = np.minimum(i * (2 * m + 1 - i) // 2 + np.minimum(dy, n), n)
    pos[outside] = n
    hits = np.bincount(pos, minlength=n + 1)[: min(n + 1, I * (I + 1) // 2)]
    fault = hits != 1
    if np.count_nonzero(fault):
        k = int(np.argmax(fault))
        rows = np.arange(min(I, k + 1))
        starts = rows * (2 * m + 1 - rows) // 2
        row = int(np.searchsorted(starts, k, side="right")) - 1
        cell = (row + 1, k - int(starts[row]))
        if hits[k] == 0:
            raise MissingCellError(f"observed cell {cell} missing from records")
        raise RaggedRowsError(f"duplicate record for cell {cell}")
    if np.count_nonzero(outside):
        a, d = ay[outside], dy[outside]
        raise FutureCellError(f"record for future cell {(int(a.min()), int(d[a == a.min()].min()))} not allowed")
    return I


def _read_records(records: Sequence[Sequence]) -> Tuple[np.ndarray, np.ndarray, Sequence, int]:
    """(ay, dy, counts, I) of long-format records, each an ``(ay, dy, count)`` triple.

    A record is a :class:`CellRecord`, a tuple, a list or a row of an
    (n, 3) array, its three fields read in order; an array's rows read as
    lists of Python numbers. The years become int64 arrays, the counts stay
    as the records hold them, and I is :func:`_check_layout`'s, which runs
    here. :func:`from_long`, every fit and both log-likelihoods read records
    here alone.

    Raises:
        TriangleError: a record is not three fields, or a year is not a
            whole number in int64's range (``1.5``, ``'x'``, None, NaN,
            ``10**30``, ``[1]``; the text ``'3'`` reads as 3), naming the
            first such record, or as :func:`_check_layout`.
    """
    if isinstance(records, np.ndarray):
        records = records.tolist()  # so that an error names a count as a list of records holds it
    try:
        ay, dy, counts = zip(*records, strict=True)
        ay, dy = np.array(ay), np.array(dy)
        whole = ay.dtype == dy.dtype == np.int64 and ay.ndim == dy.ndim == 1  # every year an integer: nothing to check
    except (TypeError, ValueError):  # no records, a record that is not three fields, or years that are sequences
        whole = False
    if not whole:
        read = [_read_record(r, k) for k, r in enumerate(records)]
        ay, dy = np.array([r[:2] for r in read], dtype=np.int64).reshape(-1, 2).T.copy()
        counts = [r[2] for r in read]
    return ay, dy, counts, _check_layout(ay, dy)


def _read_record(record, k: int) -> tuple:
    """Record ``k`` as ``(ay, dy, count)`` with int years, when it is three fields whose years are whole numbers."""
    try:
        ay, dy, count = record
    except (TypeError, ValueError):  # not a sequence, or not of three fields
        raise TriangleError(f"record {k}: {record!r} is not an (ay, dy, count) triple") from None
    return _whole_year(ay, k, 0), _whole_year(dy, k, 1), count


def _whole_year(value, k: int, axis: int) -> int:
    """Year ``axis`` (0 accident, 1 development) of record ``k``, ``value``, when it is a whole number in int64's range.

    An integer (``True`` too) reads as itself; any other value (``2.0``,
    ``Decimal('3')``, the text ``'3'``) as the float it converts to.
    """
    try:
        year = value if isinstance(value, numbers.Integral) else float(value)
        if year == int(year) and -(2**63) <= year < 2**63:
            return int(year)
    except (TypeError, ValueError, OverflowError):  # None, 'x', NaN, inf
        pass
    raise TriangleError(f"record {k}: {('accident', 'development')[axis]} year {value!r} is not a whole number in int64's range")


def _coerce_count(value, where: str, round_amounts: bool) -> int:
    """Validate a single cell value and return it as a nonnegative int below 2**53.

    ``round_amounts`` rounds half up first; the cap applies to the
    rounded count. An integer beyond float64's range is not finite.
    """
    try:
        x = float(value)
    except OverflowError:
        x = math.inf
    except (TypeError, ValueError):
        raise NonIntegerCountError(f"cell {where}: {value!r} is not a number")
    if not math.isfinite(x):
        raise NonIntegerCountError(f"cell {where}: {value!r} is not finite")
    if x < 0:
        raise NegativeCountError(f"cell {where}: negative count {value!r}")
    if round_amounts:
        n = math.floor(x + 0.5)
    elif x != int(x):
        raise NonIntegerCountError(
            f"cell {where}: non-integer count {value!r} "
            "(pass round_amounts=True to round monetary amounts)"
        )
    else:
        n = int(x)
    if n > _MAX_COUNT:
        once = " once rounded" if round_amounts else ""
        raise CountTooLargeError(f"cell {where}: count {value!r} is 2**53 or more{once}")
    return n


def _check_year_totals(counts: np.ndarray, ay: np.ndarray) -> None:
    """Refuse the first accident year (``ay``: each count's, 0-based) whose total is 2**53 or more, naming the total."""
    # a float64 sum of counts is exact below 2**53 and rounds monotonically above
    big = np.bincount(ay, weights=counts) > _MAX_COUNT
    if np.count_nonzero(big):
        i = int(np.argmax(big))
        total = sum(map(int, counts[ay == i].tolist()))
        raise CountTooLargeError(f"accident year {i + 1}: total {total} is 2**53 or more")


def _count_grid(rows: Sequence[Sequence], round_amounts: bool) -> np.ndarray:
    """The I x I int64 counts of per-accident-year rows, each cell checked by :func:`_coerce_count`."""
    checked = [[_coerce_count(v, f"({i + 1}, {j})", round_amounts) for j, v in enumerate(row)] for i, row in enumerate(rows)]
    I = len(checked)
    if I < 2:
        raise RaggedRowsError("a triangle needs at least 2 accident years")
    grid = np.zeros((I, I), dtype=np.int64)
    for i, row in enumerate(checked):
        if len(row) != I - i:
            raise RaggedRowsError(f"accident year {i + 1}: expected {I - i} observed cells, got {len(row)}")
        grid[i, : I - i] = row
    return grid


class _TriangleBase:
    """Shared storage for incremental and cumulative triangles."""

    def __init__(self, rows: Sequence[Sequence[int]], origin_label: Optional[Label] = None):
        self._adopt(_count_grid(rows, False), origin_label)

    def _adopt(self, grid: np.ndarray, origin_label: Optional[Label]) -> None:
        grid.setflags(write=False)
        self.dimension = len(grid)
        self.origin_label = origin_label
        self._grid = grid

    @classmethod
    def _from_grid(cls, grid: np.ndarray, origin_label: Optional[Label] = None):
        """The triangle of ``grid``, an I x I int64 array of counts below 2**53, zero in the future region.

        The caller has checked every cell (and that a cumulative triangle's
        rows do not fall); the array becomes read-only.
        """
        if len(grid) < 2:
            raise RaggedRowsError("a triangle needs at least 2 accident years")
        t = cls.__new__(cls)
        t._adopt(grid, origin_label)
        return t

    @property
    def n_dev(self) -> int:
        return self.dimension

    @property
    def grid(self) -> np.ndarray:
        """The read-only I x I int64 counts, zero in the future region."""
        return self._grid

    def cell(self, ay: int, dy: int) -> int:
        """Return the count for accident year ``ay`` (1-based), development year ``dy``."""
        if not (1 <= ay <= self.dimension and 0 <= dy <= self.dimension - ay):
            raise KeyError(f"cell ({ay}, {dy}) is not observed in a {self.dimension}-dimension triangle")
        return int(self._grid[ay - 1, dy])

    def row(self, ay: int) -> np.ndarray:
        """Observed counts for one accident year, in development order."""
        if not 1 <= ay <= self.dimension:
            raise KeyError(f"accident year {ay} out of range")
        return self._grid[ay - 1, : self.dimension - ay + 1].copy()

    def observed_cells(self) -> Iterator[CellRecord]:
        (ay, dy), _ = triangle_cells(self.dimension)
        return map(CellRecord._make, zip((ay + 1).tolist(), dy.tolist(), self._grid[ay, dy].tolist()))

    def to_matrix(self) -> np.ndarray:
        """Dense float matrix with NaN in the future region."""
        out = self._grid.astype(float)
        out[triangle_cells(self.dimension)[1]] = np.nan
        return out

    def __eq__(self, other) -> bool:
        # origin_label is display metadata and does not affect equality
        if type(other) is not type(self):
            return NotImplemented
        return self.dimension == other.dimension and np.array_equal(self._grid, other._grid)

    def __repr__(self) -> str:
        return f"{type(self).__name__}(dimension={self.dimension}, origin_label={self.origin_label!r})"


class RunOffTriangle(_TriangleBase):
    """Square triangle of incremental claim counts.

    Construct from per-accident-year rows of observed counts, where row
    ``i`` (1-based) holds the ``I - i + 1`` observed development years::

        RunOffTriangle.from_rows([[10, 5], [20]])
    """

    @classmethod
    def from_rows(
        cls,
        rows: Sequence[Sequence[int]],
        origin_label: Optional[Label] = None,
        round_amounts: bool = False,
    ) -> "RunOffTriangle":
        return cls._from_grid(_count_grid(rows, round_amounts), origin_label=origin_label)

    def total(self) -> int:
        return int(self._grid.sum())


class CumulativeTriangle(_TriangleBase):
    """Square triangle of cumulative claim counts, nondecreasing along each row."""

    def __init__(self, rows, origin_label=None):
        super().__init__(rows, origin_label=origin_label)
        # a fall between two observed cells of a row; the future region is zero
        falling = np.diff(self._grid, axis=1) < 0
        fut_ay, fut_dy = triangle_cells(self.dimension)[1]
        falling[fut_ay, fut_dy - 1] = False
        if falling.any():
            i = int(np.argmax(falling.any(axis=1))) + 1
            raise NegativeCountError(f"accident year {i}: cumulative counts must be nondecreasing")

    def latest(self) -> np.ndarray:
        """Latest observed diagonal C[i, I - i], one entry per accident year."""
        I = self.dimension
        return self._grid[np.arange(I), np.arange(I - 1, -1, -1)]


def cumulate(t: RunOffTriangle) -> CumulativeTriangle:
    """Row-wise cumulative sums over the observed region, which do not fall; each year's total is below 2**53."""
    _check_year_totals(t.grid.ravel(), np.arange(t.dimension).repeat(t.dimension))
    grid = np.cumsum(t.grid, axis=1)
    grid[triangle_cells(t.dimension)[1]] = 0
    return CumulativeTriangle._from_grid(grid, origin_label=t.origin_label)


def decumulate(c: CumulativeTriangle) -> RunOffTriangle:
    """Inverse of :func:`cumulate`; a cumulative triangle's increments are valid counts."""
    grid = np.diff(c.grid, axis=1, prepend=0)
    grid[triangle_cells(c.dimension)[1]] = 0
    return RunOffTriangle._from_grid(grid, origin_label=c.origin_label)


def _observed_part(square: np.ndarray) -> RunOffTriangle:
    """The triangle of the observed cells of a full I x I matrix of counts."""
    I = len(square)
    return RunOffTriangle.from_rows([row[: I - i] for i, row in enumerate(square.tolist())])


def to_long(t: RunOffTriangle) -> List[CellRecord]:
    """Observed cells in long format, row-major (ay ascending, then dy)."""
    return list(t.observed_cells())


def from_long(records: Sequence[CellRecord]) -> RunOffTriangle:
    """Rebuild a square triangle from long-format records, read as :func:`_read_records` reads them.

    The records must cover the observed region exactly once
    (:func:`_check_layout`); the dimension is the largest accident year.
    """
    ay, dy, counts, I = _read_records(records)
    counts = [counts[k] for k in np.lexsort((dy, ay)).tolist()]
    starts = [i * (2 * I + 1 - i) // 2 for i in range(I + 1)]
    return RunOffTriangle.from_rows([counts[a:b] for a, b in zip(starts, starts[1:])])


def _split_lines(text: str) -> List[List[str]]:
    return [row for row in csv.reader(io.StringIO(text)) if any(f.strip() for f in row)]


def parse_triangle(text: str, round_amounts: bool = False) -> RunOffTriangle:
    """Parse a triangle from CSV text.

    Format: an optional header ``ay,dy0,dy1,...`` followed by one line
    per accident year. With the header present each line starts with the
    accident-year label; without it every field is a count. Future cells
    must be empty strings. ``round_amounts`` rounds monetary amounts to
    the nearest integer instead of rejecting non-integer cells. A leading
    byte-order mark, as spreadsheets export, is skipped.
    """
    lines = _split_lines(text.removeprefix("\ufeff"))
    if not lines:
        raise RaggedRowsError("empty input")

    has_header = lines[0][0].strip().lower() == "ay"
    data = lines[1:] if has_header else lines
    if not data:
        raise RaggedRowsError("no data rows")
    width = len(lines[0])
    n_dev = width - 1 if has_header else width
    dimension = len(data)
    if dimension != n_dev:
        raise RaggedRowsError(
            f"square triangle required: {dimension} accident years but {n_dev} development years"
        )

    origin_label: Optional[Label] = None
    grid = np.zeros((dimension, dimension), dtype=np.int64)
    for idx, line in enumerate(data):
        if len(line) != width:
            raise RaggedRowsError(f"row {idx + 1}: expected {width} fields, got {len(line)}")
        fields = line[1:] if has_header else line
        if has_header and idx == 0:
            label = line[0].strip()
            origin_label = int(label) if label.lstrip("-").isdigit() else label
        observed = dimension - idx
        row = []
        for j, field in enumerate(fields):
            field = field.strip()
            if j < observed:
                if field == "":
                    raise MissingCellError(f"cell ({idx + 1}, {j}): observed cell is empty")
                row.append(_coerce_count(field, f"({idx + 1}, {j})", round_amounts))
            elif field != "":
                raise FutureCellError(f"cell ({idx + 1}, {j}): future cell must be empty")
        grid[idx, :observed] = row
    return RunOffTriangle._from_grid(grid, origin_label=origin_label)


def serialize_triangle(t: _TriangleBase) -> str:
    """Render a triangle as CSV text, inverse of :func:`parse_triangle`."""
    I = t.dimension
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(["ay"] + [f"dy{j}" for j in range(I)])
    base = t.origin_label if isinstance(t.origin_label, int) else 1
    for i, counts in enumerate(t.grid.tolist()):
        writer.writerow([base + i] + counts[: I - i] + [""] * i)
    return out.getvalue()


def read_triangle(path, round_amounts: bool = False) -> RunOffTriangle:
    """Read a UTF-8 triangle CSV from disk and parse it (:func:`parse_triangle`)."""
    with open(path, "r", encoding="utf-8") as fh:
        return parse_triangle(fh.read(), round_amounts=round_amounts)
