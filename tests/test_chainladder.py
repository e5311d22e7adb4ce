import csv
import io

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from nbreserve import (
    CellRecord, CumulativeTriangle, RunOffTriangle, chain_ladder, cumulate, dev_factors, parse_triangle, project,
    serialize_triangle, to_long,
)
from nbreserve.errors import (
    CountTooLargeError, FutureCellError, MissingCellError, RaggedRowsError, ReservingError, ZeroColumnSumError,
)
from nbreserve.triangle import _coerce_count
from conftest import random_triangle


class TestFactors:
    def test_first_factor_exact(self, australian):
        f = dev_factors(cumulate(australian))
        # column sums over the six accident years with both cells observed
        assert f[0] == 8834 / 2129

    def test_factor_count(self, australian):
        assert dev_factors(cumulate(australian)).shape == (6,)

    def test_all_factors(self, australian):
        f = dev_factors(cumulate(australian))
        expected = [4.1493659, 1.54108316, 1.22169285, 1.115, 1.06218044, 1.01504788]
        assert f == pytest.approx(expected, abs=5e-9)

    def test_zero_column_sum_raises(self):
        t = RunOffTriangle.from_rows([[0, 1], [0]])
        with pytest.raises(ZeroColumnSumError):
            dev_factors(cumulate(t))

    def test_constant_development(self):
        # doubling each period gives factors of exactly 2
        t = RunOffTriangle.from_rows([[100, 100, 200], [50, 50], [75]])
        f = dev_factors(cumulate(t))
        assert f[0] == pytest.approx(2.0)


class TestProjection:
    def test_total_reserve(self, australian):
        res = chain_ladder(australian)
        assert res.total_reserve == pytest.approx(3191.036414143154, rel=1e-12)

    def test_per_ay_reserves(self, australian):
        res = chain_ladder(australian)
        expected = [0.0, 52.90834473, 293.03684387, 657.40110834, 1204.46021116, 966.44714075, 16.78276529]
        assert res.reserves == pytest.approx(expected, abs=5e-7)

    def test_first_year_fully_developed(self, australian):
        res = chain_ladder(australian)
        assert res.reserves[0] == 0.0
        assert res.ultimates[0] == res.latest[0]

    def test_ultimate_minus_latest(self, australian):
        res = chain_ladder(australian)
        assert res.reserves == pytest.approx(res.ultimates - res.latest)
        assert res.total_reserve == pytest.approx(res.reserves.sum())

    def test_explicit_factors(self, australian):
        c = cumulate(australian)
        res = project(c, factors=dev_factors(c))
        assert res.total_reserve == pytest.approx(chain_ladder(australian).total_reserve)

    def test_wrong_factor_count_rejected(self, australian):
        with pytest.raises(ValueError):
            project(cumulate(australian), factors=[2.0, 1.5])

    def test_scale_equivariance(self):
        rng = np.random.default_rng(19)
        for _ in range(10):
            t = random_triangle(rng, int(rng.integers(3, 8)))
            scaled = RunOffTriangle.from_rows([(7 * t.row(i)).tolist() for i in range(1, t.dimension + 1)])
            a = chain_ladder(t)
            b = chain_ladder(scaled)
            assert b.factors == pytest.approx(a.factors, rel=1e-12)
            assert b.total_reserve == pytest.approx(7 * a.total_reserve, rel=1e-12)

    def test_origin_label_carried(self, australian):
        assert chain_ladder(australian).origin_label == 1993


class TestRounding:
    def test_reference_reserves(self, australian):
        res = chain_ladder(australian)
        assert res.rounded_reserves.tolist() == [0, 53, 293, 657, 1205, 966, 17]
        assert res.rounded_total == 3191

    def test_per_ay_sum_reconciles(self, australian):
        res = chain_ladder(australian)
        assert res.rounded_reserves.sum() == res.rounded_total

    def test_reconciliation_random(self):
        # largest-remainder apportionment keeps the identity that plain
        # half-up rounding of each year does not guarantee
        rng = np.random.default_rng(23)
        for _ in range(50):
            t = random_triangle(rng, int(rng.integers(3, 9)))
            res = chain_ladder(t)
            assert res.rounded_reserves.sum() == res.rounded_total
            assert np.all(np.abs(res.rounded_reserves - res.reserves) < 1.0)

    def test_rounded_total_half_up(self, australian):
        assert chain_ladder(australian).rounded_total == int(np.floor(3191.0364 + 0.5))


# The per-cell implementations the grid paths must reproduce bit for bit,
# errors included.


def _cell_cumulate(t):
    rows = [np.cumsum(t.row(i)).tolist() for i in range(1, t.dimension + 1)]
    for i, row in enumerate(rows):  # a year's total, its last cumulative count, is refused as the fits refuse it
        if row[-1] >= 2**53:
            raise CountTooLargeError(f"accident year {i + 1}: total {row[-1]} is 2**53 or more")
    return CumulativeTriangle(rows, origin_label=t.origin_label)


def _cell_dev_factors(c):
    I = c.dimension
    factors = np.empty(I - 1)
    for j in range(I - 1):
        rows = range(1, I - j)
        num = sum(c.cell(i, j + 1) for i in rows)
        den = sum(c.cell(i, j) for i in rows)
        if den == 0:
            raise ZeroColumnSumError(f"development year {j}: column sum is zero")
        factors[j] = num / den
    return factors


def _cell_chain_ladder(t):
    c = _cell_cumulate(t)
    I = c.dimension
    f = _cell_dev_factors(c)
    latest = np.array([c.cell(i, I - i) for i in range(1, I + 1)], dtype=np.int64).astype(float)
    ultimates = np.empty(I)
    for i in range(1, I + 1):
        ultimates[i - 1] = latest[i - 1] * np.prod(f[I - i : I - 1])
    return f.tolist(), latest.tolist(), ultimates.tolist(), (ultimates - latest).tolist()


def _cell_serialize(t):
    I = t.dimension
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(["ay"] + [f"dy{j}" for j in range(I)])
    base = t.origin_label if isinstance(t.origin_label, int) else 1
    for i in range(1, I + 1):
        writer.writerow([base + i - 1] + [int(v) for v in t.row(i)] + [""] * (i - 1))
    return out.getvalue()


def _cell_parse(text, round_amounts):
    lines = [row for row in csv.reader(io.StringIO(text)) if any(f.strip() for f in row)]
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
        raise RaggedRowsError(f"square triangle required: {dimension} accident years but {n_dev} development years")
    origin_label = None
    rows = []
    for idx, line in enumerate(data):
        if len(line) != width:
            raise RaggedRowsError(f"row {idx + 1}: expected {width} fields, got {len(line)}")
        fields = line[1:] if has_header else line
        if has_header and idx == 0:
            label = line[0].strip()
            origin_label = int(label) if label.lstrip("-").isdigit() else label
        row = []
        for j, field in enumerate(fields):
            field = field.strip()
            if j < dimension - idx:
                if field == "":
                    raise MissingCellError(f"cell ({idx + 1}, {j}): observed cell is empty")
                row.append(_coerce_count(field, f"({idx + 1}, {j})", round_amounts))
            elif field != "":
                raise FutureCellError(f"cell ({idx + 1}, {j}): future cell must be empty")
        rows.append(row)
    return RunOffTriangle.from_rows(rows, origin_label=origin_label)


def _outcome(fn, *args):
    try:
        return "ok", fn(*args)
    except ReservingError as exc:
        return type(exc), str(exc)


def _chain_ladder_lists(t):
    cl = chain_ladder(t)
    return cl.factors.tolist(), cl.latest.tolist(), cl.ultimates.tolist(), cl.reserves.tolist()


@st.composite
def _triangles(draw):
    """Triangles of dimension 2-30 with counts up to 20, 2**47 or 2**53 - 1 and a share of zero cells."""
    I = draw(st.integers(2, 30))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    top = draw(st.sampled_from([20, 2**47, 2**53 - 1]))
    counts = rng.integers(0, top, size=(I, I), endpoint=True) * (rng.random((I, I)) >= draw(st.floats(0.0, 1.0)))
    rows = [counts[i, : I - i].tolist() for i in range(I)]
    return RunOffTriangle(rows, origin_label=draw(st.sampled_from([None, 1993, "q1"])))


class TestGridAgainstCells:
    """Chain-ladder and the CSV round trip on the int64 grid against the per-cell reference."""

    @given(_triangles())
    @settings(max_examples=200, deadline=None)
    def test_chain_ladder_bit_identical(self, t):
        kind, grid = _outcome(cumulate, t)
        ref_kind, ref = _outcome(_cell_cumulate, t)
        assert kind == ref_kind
        if kind != "ok":
            assert grid == ref  # the error's message
            return
        assert np.array_equal(grid.grid, ref.grid) and grid.latest().tolist() == ref.latest().tolist()
        assert _outcome(_chain_ladder_lists, t) == _outcome(_cell_chain_ladder, t)

    @given(_triangles())
    @settings(max_examples=200, deadline=None)
    def test_csv_and_long_records_bit_identical(self, t):
        text = serialize_triangle(t)
        assert text == _cell_serialize(t)
        assert to_long(t) == [CellRecord(i, j, t.cell(i, j)) for i in range(1, t.dimension + 1)
                              for j in range(t.dimension - i + 1)]
        parsed = parse_triangle(text)
        ref = _cell_parse(text, False)
        assert np.array_equal(parsed.grid, ref.grid) and parsed.origin_label == ref.origin_label

    @given(
        _triangles(),
        st.data(),
        st.sampled_from(["", " ", "-1", "1.5", "2.4999", "x", "nan", "inf", "1e300", str(2**53), str(2**53 - 1),
                         "9007199254740991.4", "9007199254740991.6", "9007199254740990.5", "0"]),
        st.booleans(),
    )
    @settings(max_examples=200, deadline=None)
    def test_parse_errors_identical(self, t, data, token, round_amounts):
        lines = serialize_triangle(t).splitlines()
        r = data.draw(st.integers(0, len(lines) - 1))
        fields = lines[r].split(",")
        fields[data.draw(st.integers(0, len(fields) - 1))] = token
        lines[r] = ",".join(fields)
        text = "\n".join(lines) + "\n"
        new, ref = _outcome(parse_triangle, text, round_amounts), _outcome(_cell_parse, text, round_amounts)
        if new[0] == "ok" and ref[0] == "ok":
            assert np.array_equal(new[1].grid, ref[1].grid) and new[1].origin_label == ref[1].origin_label
        else:
            assert new == ref

    def test_column_sums_past_2_pow_63(self):
        # 1100 accident years of counts near 2**53: a column sums past 2**63,
        # where int64 wraps and float64 rounds, and each factor is the quotient
        # of the exact integer sums
        I, top = 1100, 2**53 - 1
        rows = [[top - 2 * (I - j) - r % 7 for j in range(I - r)] for r in range(I)]
        c = CumulativeTriangle(rows)
        assert sum(row[0] for row in rows) > 2**63
        f = dev_factors(c)
        for j in (0, 1, 500, I - 2):
            live = range(I - j - 1)
            assert f[j] == sum(rows[r][j + 1] for r in live) / sum(rows[r][j] for r in live)
