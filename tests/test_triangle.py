import dataclasses
import decimal
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from nbreserve import (
    CellRecord,
    CumulativeTriangle,
    RunOffTriangle,
    cumulate,
    decumulate,
    from_long,
    parse_triangle,
    serialize_triangle,
    to_long,
)
from nbreserve.errors import (
    CountTooLargeError,
    FutureCellError,
    MissingCellError,
    NegativeCountError,
    NonIntegerCountError,
    RaggedRowsError,
    ReservingError,
    TriangleError,
)
from conftest import random_triangle


class TestConstruction:
    def test_from_rows_basic(self):
        t = RunOffTriangle.from_rows([[10, 5, 2], [20, 8], [30]])
        assert t.dimension == 3
        assert t.cell(1, 0) == 10
        assert t.cell(1, 2) == 2
        assert t.cell(3, 0) == 30
        assert t.total() == 75

    def test_row_lengths_must_decrease(self):
        with pytest.raises(RaggedRowsError):
            RunOffTriangle.from_rows([[1, 2], [3, 4]])
        with pytest.raises(RaggedRowsError):
            RunOffTriangle.from_rows([[1], [2, 3]])

    def test_needs_two_accident_years(self):
        with pytest.raises(RaggedRowsError):
            RunOffTriangle.from_rows([[1]])

    def test_negative_count_rejected(self):
        with pytest.raises(NegativeCountError):
            RunOffTriangle.from_rows([[1, -2], [3]])

    def test_non_integer_rejected_unless_rounding(self):
        with pytest.raises(NonIntegerCountError):
            RunOffTriangle.from_rows([[1.5, 2], [3]])
        t = RunOffTriangle.from_rows([[1.5, 2.4], [3.0]], round_amounts=True)
        # half-up rounding
        assert t.cell(1, 0) == 2
        assert t.cell(1, 1) == 2

    def test_nan_rejected(self):
        with pytest.raises(NonIntegerCountError):
            RunOffTriangle.from_rows([[float("nan"), 2], [3]])

    def test_counts_from_2_pow_53_rejected(self):
        # every accepted count is exact in float64; a text cell of 2**53 + 1
        # parses to the float 2**53, so 2**53 itself is refused as well
        assert RunOffTriangle.from_rows([[str(2**53 - 1), 2], [3]]).cell(1, 0) == 2**53 - 1
        for value in (str(2**53), str(2**53 + 1), 5e18, 1e300):
            with pytest.raises(CountTooLargeError):
                RunOffTriangle.from_rows([[value, 2], [3]])
        with pytest.raises(CountTooLargeError):
            RunOffTriangle([[2**53, 2], [3]])

    def test_constructors_check_counts(self):
        # the constructors run the check of from_rows on every cell
        with pytest.raises(NegativeCountError):
            RunOffTriangle([[-1, 2], [3]])
        with pytest.raises(NonIntegerCountError):
            RunOffTriangle([[1, 2.5], [3]])
        with pytest.raises(NonIntegerCountError):
            CumulativeTriangle([[1, 2.5], [3]])

    def test_cumulative_counts_from_2_pow_53_rejected(self):
        # incremental counts that fit, whose running sum does not
        t = RunOffTriangle.from_rows([[2**52, 2**52], [3]])
        with pytest.raises(CountTooLargeError):
            cumulate(t)

    def test_future_cell_access_raises(self):
        t = RunOffTriangle.from_rows([[10, 5], [20]])
        with pytest.raises(KeyError):
            t.cell(2, 1)
        with pytest.raises(KeyError):
            t.cell(3, 0)

    def test_observed_cell_count(self):
        t = RunOffTriangle.from_rows([[1, 2, 3, 4], [5, 6, 7], [8, 9], [10]])
        cells = list(t.observed_cells())
        assert len(cells) == 4 * 5 // 2
        assert cells[0] == CellRecord(1, 0, 1)
        assert cells[-1] == CellRecord(4, 0, 10)

    def test_to_matrix_future_region_nan(self):
        t = RunOffTriangle.from_rows([[1, 2], [3]])
        m = t.to_matrix()
        assert m[0, 0] == 1 and m[0, 1] == 2 and m[1, 0] == 3
        assert np.isnan(m[1, 1])

    def test_equality_ignores_origin_label(self):
        a = RunOffTriangle.from_rows([[1, 2], [3]], origin_label=1993)
        b = RunOffTriangle.from_rows([[1, 2], [3]])
        c = RunOffTriangle.from_rows([[1, 9], [3]])
        assert a == b
        assert a != c

    def test_grid_is_immutable(self):
        t = RunOffTriangle.from_rows([[1, 2], [3]])
        with pytest.raises(ValueError):
            t._grid[0, 0] = 99


class TestCumulative:
    def test_cumulate_values(self, australian):
        c = cumulate(australian)
        # first-row running sums of the incremental counts
        assert c.row(1).tolist() == [220, 1075, 1819, 2233, 2620, 2924, 2968]
        assert c.latest().tolist() == [2968, 3516, 3749, 3252, 2570, 765, 2]

    def test_decumulate_round_trip(self, australian):
        assert decumulate(cumulate(australian)) == australian

    def test_round_trip_random(self):
        rng = np.random.default_rng(7)
        for _ in range(25):
            t = random_triangle(rng, int(rng.integers(2, 9)))
            assert decumulate(cumulate(t)) == t

    def test_monotonicity_enforced(self):
        with pytest.raises(NegativeCountError):
            CumulativeTriangle([[5, 3], [1]])


class TestLongFormat:
    def test_round_trip(self, australian):
        assert from_long(to_long(australian)) == australian

    def test_round_trip_random(self):
        rng = np.random.default_rng(11)
        for _ in range(25):
            t = random_triangle(rng, int(rng.integers(2, 9)))
            assert from_long(to_long(t)) == t

    def test_order_does_not_matter(self, australian):
        recs = to_long(australian)
        assert from_long(recs[::-1]) == australian

    def test_duplicate_rejected(self):
        recs = [CellRecord(1, 0, 1), CellRecord(1, 1, 2), CellRecord(2, 0, 3), CellRecord(1, 0, 9)]
        with pytest.raises(RaggedRowsError):
            from_long(recs)

    def test_missing_cell_rejected(self):
        with pytest.raises(MissingCellError):
            from_long([CellRecord(1, 0, 1), CellRecord(2, 0, 3)])

    def test_future_cell_rejected(self):
        recs = [
            CellRecord(1, 0, 1),
            CellRecord(1, 1, 2),
            CellRecord(2, 0, 3),
            CellRecord(2, 1, 4),
        ]
        with pytest.raises(FutureCellError):
            from_long(recs)

    def test_empty_rejected(self):
        with pytest.raises(MissingCellError):
            from_long([])


def _bits(value):
    """Every bit of a result: a triangle by its counts, a dataclass field by field, an array by its bytes, a float by its repr."""
    if isinstance(value, RunOffTriangle):
        return _bits(value.grid)
    if dataclasses.is_dataclass(value):
        return tuple((f.name, _bits(getattr(value, f.name))) for f in dataclasses.fields(value))
    if isinstance(value, np.ndarray):
        return value.dtype.str, value.shape, value.tobytes()
    if isinstance(value, (list, tuple)):
        return tuple(map(_bits, value))
    return repr(value)


def _entry_points():
    """(name, call) of each entry point that takes long-format records: from_long and the fits."""
    from nbreserve import Family, fit, overdispersion_test, profile_kappa

    families = [Family.poisson(), Family.quasi_poisson(), Family.negbin(5.0)]
    calls = [("from_long", from_long), ("profile_kappa", profile_kappa), ("overdispersion_test", overdispersion_test)]
    return calls + [(f"fit {f.tag}", lambda records, f=f: fit(records, f)) for f in families]


def _record_calls(n: int):
    """:func:`_entry_points` and the other entry points that take records, the log-likelihoods at n means."""
    from nbreserve import adjusted_profile_loglik, nb_loglik, poisson_loglik

    mu = np.linspace(1.0, 2.0, n)
    return _entry_points() + [
        ("adjusted_profile_loglik", lambda r: adjusted_profile_loglik(r, 5.0)),
        ("poisson_loglik", lambda r: poisson_loglik(r, mu)),
        ("nb_loglik", lambda r: nb_loglik(r, mu, 5.0)),
    ]


def _outcome(call, records):
    """Every bit of ``call(records)``, or its package error's class and message, from a cold start."""
    from nbreserve import glm

    glm._last_joint_fit = ((), None)
    try:
        return _bits(call(records))
    except ReservingError as exc:
        return type(exc), str(exc)


def _containers(records):
    """``records`` as CellRecords, tuples and lists, and as an (n, 3) int array when every record is an int triple.

    An entry that is not a triple stays as it is in every container.
    """
    def each(make):
        return [make(r) if isinstance(r, tuple) and len(r) == 3 else r for r in records]

    forms = {"CellRecord": each(CellRecord._make), "tuple": each(tuple), "list": each(list)}
    if all(isinstance(r, tuple) and len(r) == 3 and all(type(v) is int for v in r) for r in records):
        forms["array"] = np.array(records)
    return forms


def _agree_in_every_container(records, clean: bool):
    """Check that each entry point's outcome on ``records`` (tuples) is the same in every container.

    On ``clean`` records the log-likelihoods equal their value at the
    count array; on faulty ones they raise what ``fit`` raises.
    """
    forms = _containers(records)
    calls = _record_calls(len(records))
    outcomes = {}
    for name, call in calls:
        got = {kind: _outcome(call, form) for kind, form in forms.items()}
        assert len(set(got.values())) == 1, (name, got)
        outcomes[name] = got["tuple"]
    for name, call in calls[-2:]:
        if clean:
            counts = np.array([r[2] for r in records], dtype=float)
            assert outcomes[name] == _bits(call(counts)), name
        else:
            assert outcomes[name] == outcomes["fit poisson"], name
    return outcomes


_RECORD_FAULTS = [
    None, "short", "non-sequence", "four fields", "bad year", "missing", "repeated", "future", "negative",
    "fractional", "unreadable",
]


class TestRecordReader:
    """Every entry point reads a record as an (ay, dy, count) triple, its years by one rule."""

    def test_plain_triples_read_as_records(self, australian, taylor):
        for t in (australian, taylor):
            outcomes = _agree_in_every_container([tuple(r) for r in to_long(t)], clean=True)
            assert not any(isinstance(got[0], type) for got in outcomes.values()), outcomes

    @pytest.mark.parametrize("rows", [[[5, 3], [4]], "australian", "taylor"], ids=["2x2", "australian", "taylor"])
    def test_logliks_read_every_container(self, rows, request):
        # an (n, 3) array is records, not a block of counts: both
        # log-likelihoods give the count array's value, bit for bit
        from nbreserve import fit, Family, nb_loglik, poisson_loglik

        t = RunOffTriangle.from_rows(rows) if isinstance(rows, list) else request.getfixturevalue(rows)
        records = to_long(t)
        counts = np.array([r.count for r in records], dtype=float)
        mu = fit(records, Family.poisson()).fitted_mu
        for form in [counts, *_containers([tuple(r) for r in records]).values()]:
            assert repr(poisson_loglik(form, mu)) == repr(poisson_loglik(counts, mu))
            assert repr(nb_loglik(form, mu, 5.0)) == repr(nb_loglik(counts, mu, 5.0))

    @pytest.mark.parametrize("record", [(2, 0), 7, (1, 0, 5, 99)], ids=["short", "non-sequence", "four fields"])
    @pytest.mark.parametrize("k", [0, 5])
    def test_record_not_three_fields_refused(self, australian, record, k):
        # one TriangleError naming the record from every entry point, the
        # log-likelihoods too: no IndexError, TypeError, or ignored field
        records = [tuple(r) for r in to_long(australian)]
        records[k] = record
        outcomes = _agree_in_every_container(records, clean=False)
        message = f"record {k}: {record!r} is not an (ay, dy, count) triple"
        assert set(outcomes.values()) == {(TriangleError, message)}

    def test_years_that_are_sequences_refused(self, australian):
        # a year is a number even when every year is a one-element list
        records = [([r.ay], [r.dy], r.count) for r in to_long(australian)]
        message = "record 0: accident year [1] is not a whole number in int64's range"
        for name, call in _record_calls(len(records)):
            assert _outcome(call, records) == (TriangleError, message), name

    def test_array_count_named_as_a_list_holds_it(self, australian):
        # an (n, 3) array's rows read as lists of Python numbers, so a bad
        # count is named as -5, not np.int64(-5)
        records = np.array(to_long(australian))
        records[5, 2] = -5
        for name, call in _record_calls(len(records)):
            assert _outcome(call, records) == (NegativeCountError, "cell (1, 5): negative count -5"), name

    @pytest.mark.parametrize("fault", _RECORD_FAULTS, ids=str)
    @given(dimension=st.integers(2, 6), seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=10, deadline=None, derandomize=True, database=None)
    def test_every_container_agrees(self, fault, dimension, seed):
        # a staircase's records, clean or with one fault, give every entry
        # point one outcome in every container: the same bits or the same
        # error, and the log-likelihoods the fits' reading of the records
        rng = np.random.default_rng(seed)
        records = [tuple(r) for r in to_long(random_triangle(rng, dimension))]
        k = int(rng.integers(len(records)))
        ay, dy, count = records[k]
        if fault == "short":
            records[k] = (ay, dy)
        elif fault == "non-sequence":
            records[k] = count
        elif fault == "four fields":
            records[k] = (ay, dy, count, 99)
        elif fault == "bad year":
            year = [1.5, "x", None, math.nan][int(rng.integers(4))]
            records[k] = (year, dy, count) if rng.integers(2) else (ay, year, count)
        elif fault == "missing":
            del records[k]
        elif fault == "repeated":
            records.append((ay, dy, count + 1))
        elif fault == "future":
            ay = int(rng.integers(2, dimension + 1))
            records.append((ay, int(rng.integers(dimension - ay + 1, dimension)), 1))
        elif fault is not None:
            records[k] = (ay, dy, {"negative": -5, "fractional": 2.5, "unreadable": "abc"}[fault])
        records = [records[j] for j in rng.permutation(len(records))]
        outcomes = _agree_in_every_container(records, clean=fault is None)
        refused = isinstance(outcomes["from_long"][0], type)
        assert refused == (fault is not None)
        assert not refused or issubclass(outcomes["from_long"][0], TriangleError)

    @pytest.mark.parametrize("count", [2.5, -5, "abc"], ids=repr)
    def test_bad_count_of_a_triple_named_as_held(self, australian, count):
        # a bad count of a plain triple gets a CellRecord's error, naming its value as the record holds it
        records = to_long(australian)
        records[5] = records[5]._replace(count=count)
        for name, call in _entry_points():
            got = []
            for form in (records, [tuple(r) for r in records]):
                with pytest.raises(TriangleError) as raised:
                    call(form)
                got.append((type(raised.value), str(raised.value)))
            assert got[0] == got[1] and repr(count) in got[0][1], name

    @pytest.mark.parametrize("year", [1.5, "x", None, 10**30, math.nan, 2**63], ids=repr)
    @pytest.mark.parametrize("axis", [0, 1], ids=["ay", "dy"])
    def test_year_not_a_whole_number_refused(self, australian, year, axis):
        # one error, naming the first such record and its value, from every
        # entry point; a fractional year is not truncated
        field = ("ay", "dy")[axis]
        records = to_long(australian)
        records[5] = records[5]._replace(**{field: year})
        records[9] = records[9]._replace(**{field: 2.5})
        what = ("accident", "development")[axis]
        message = f"record 5: {what} year {year!r} is not a whole number in int64's range"
        for name, call in _entry_points():
            with pytest.raises(TriangleError) as got:
                call(records)
            assert (type(got.value), str(got.value)) == (TriangleError, message), name

    @pytest.mark.parametrize(
        "convert",
        [np.int32, np.uint64, float, np.float32, lambda v: True if v == 1 else v, lambda v: np.bool_(v) if v < 2 else v, str, decimal.Decimal],
        ids=["int32", "uint64", "float", "float32", "True", "numpy-bool", "text", "Decimal"],
    )
    def test_whole_years_read_as_integers(self, australian, convert):
        # a whole number of any numeric type reads as that year, in from_long and the fits alike
        records = to_long(australian)
        converted = [(convert(r.ay), convert(r.dy), r.count) for r in records]
        for name, call in _entry_points():
            assert _bits(call(converted)) == _bits(call(records)), name

    @pytest.mark.parametrize(
        "year, far",
        [(2**62, []), (2**63 - 1, []), (2**63 - 1, [(2, 2**63 - 10, 1)])],
        ids=["4611686018427387904", "9223372036854775807", "9223372036854775807-far-dy"],
    )
    def test_year_past_the_records_is_a_missing_cell(self, year, far):
        # a year int64 holds, whose triangle is far larger than the records,
        # names the first missing cell, with no int64 overflow on the way,
        # also for a record inside that triangle with a dy far past the records
        records = [(a, d, 1) for a in range(1, 6) for d in range(6 - a)] + [(year, 0, 1)] + far
        for name, call in _entry_points():
            with pytest.raises(MissingCellError, match=r"observed cell \(1, 5\) missing from records"):
                call(records)

    def test_most_negative_year_is_outside(self):
        # ay = -2**63 has no ay - 1 in int64: it is still outside the triangle
        records = [(1, 0, 1), (1, 1, 1), (2, 0, 1), (-(2**63), 2**63 - 1, 1)]
        for name, call in _entry_points():
            with pytest.raises(FutureCellError, match=rf"future cell \({-(2**63)}, {2**63 - 1}\)"):
                call(records)


class TestCsv:
    def test_serialize_parse_round_trip(self, australian):
        text = serialize_triangle(australian)
        again = parse_triangle(text)
        assert again == australian
        assert again.origin_label == australian.origin_label

    def test_round_trip_random(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            t = random_triangle(rng, int(rng.integers(2, 9)))
            assert parse_triangle(serialize_triangle(t)) == t

    def test_headerless_square(self):
        t = parse_triangle("10,5\n20,\n")
        assert t.dimension == 2
        assert t.cell(2, 0) == 20

    def test_header_label_parsed(self):
        t = parse_triangle("ay,dy0,dy1\n2001,10,5\n2002,20,\n")
        assert t.origin_label == 2001

    def test_non_square_rejected(self):
        with pytest.raises(RaggedRowsError):
            parse_triangle("1,2,3\n4,5,\n")

    def test_empty_observed_cell_rejected(self):
        with pytest.raises(MissingCellError):
            parse_triangle("10,\n20,\n")

    def test_populated_future_cell_rejected(self):
        with pytest.raises(FutureCellError):
            parse_triangle("10,5\n20,7\n")

    def test_empty_input_rejected(self):
        with pytest.raises(RaggedRowsError):
            parse_triangle("")

    @pytest.mark.parametrize("text", ["ay,dy0,dy1\n2001,10,5\n2002,20,\n", "10,5\n20,\n"], ids=["header", "no-header"])
    def test_byte_order_mark_is_skipped(self, text):
        # a spreadsheet's "CSV UTF-8" export starts with U+FEFF: text read
        # with encoding="utf-8" parses as the plain text does, and the mark
        # is skipped once, not stripped from the counts
        plain, marked = parse_triangle(text), parse_triangle("\ufeff" + text)
        assert marked == plain and marked.origin_label == plain.origin_label
        with pytest.raises(NonIntegerCountError, match="is not a number"):
            parse_triangle("\ufeff\ufeff" + text)

    def test_amount_rounding(self):
        t = parse_triangle("10.6,5.2\n20.5,\n", round_amounts=True)
        assert t.cell(1, 0) == 11
        assert t.cell(1, 1) == 5
        assert t.cell(2, 0) == 21

    def test_amounts_rejected_without_flag(self):
        with pytest.raises(NonIntegerCountError):
            parse_triangle("10.6,5.2\n20.5,\n")


# cell values each constructor must treat alike: negative, fractional,
# the largest count, values that round to 2**53 as float64, and huge ones
_SPECIAL_COUNTS = [-1, -0.5, 2.5, 0.5, 2**53 - 1, float(2**53 - 1), 2**53 + 1, 9007199254740991.5, 1e300, 2**64, 10**400]


@st.composite
def _count_rows(draw):
    I = draw(st.integers(2, 6))
    value = st.one_of(st.integers(0, 50), st.sampled_from(_SPECIAL_COUNTS))
    rows = [[draw(value) for _ in range(I - i)] for i in range(I)]
    return [sorted(r) for r in rows] if draw(st.booleans()) else rows


def _as_csv(rows):
    I = len(rows)
    return "".join(",".join([repr(v) for v in row] + [""] * (I - len(row))) + "\n" for row in rows)


def _ingest(build, rows):
    try:
        return build(rows).grid.tolist()
    except ReservingError as exc:
        return type(exc)


class TestOneIngestionRule:
    """Every way into a triangle checks its counts by the same rule."""

    @given(_count_rows())
    @settings(max_examples=300, deadline=None)
    def test_paths_agree(self, rows):
        want = _ingest(RunOffTriangle.from_rows, rows)
        assert _ingest(RunOffTriangle, rows) == want
        assert _ingest(lambda r: parse_triangle(_as_csv(r)), rows) == want
        records = [CellRecord(i + 1, j, v) for i, row in enumerate(rows) for j, v in enumerate(row)]
        assert _ingest(lambda _: from_long(records), rows) == want
        if all(a <= b for row in rows for a, b in zip(row, row[1:])):
            assert _ingest(CumulativeTriangle, rows) == want

    @given(
        dimension=st.integers(2, 7),
        fault=st.sampled_from(["dropped", "duplicated", "future"]),
        seed=st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=100, deadline=None, derandomize=True, database=None)
    def test_layout_faults_agree(self, dimension, fault, seed):
        # records that are not each cell of a triangle once, in any order,
        # get one error kind and message from every entry point, naming the
        # cell at fault
        from nbreserve import Family, fit, nb_mle, overdispersion_test, profile_kappa
        from nbreserve.glm import build_design

        rng = np.random.default_rng(seed)
        records = to_long(random_triangle(rng, dimension))
        r = records[int(rng.integers(len(records)))]
        if fault == "dropped":
            records.remove(r)
            message = f"observed cell {(r.ay, r.dy)} missing from records"
        elif fault == "duplicated":
            records.append(r._replace(count=int(rng.integers(100))))
            message = f"duplicate record for cell {(r.ay, r.dy)}"
        else:
            ay = int(rng.integers(2, dimension + 1))
            r = CellRecord(ay, int(rng.integers(dimension - ay + 1, dimension)), 1)
            records.append(r)
            message = f"record for future cell {(r.ay, r.dy)} not allowed"
        records = [records[k] for k in rng.permutation(len(records))]
        with pytest.raises(ReservingError) as want:
            from_long(records)
        if (fault, r.ay, r.dy) != ("dropped", dimension, 0):  # which moves the largest accident year
            assert str(want.value) == message
        y = np.array([r.count for r in records], dtype=float)
        design = build_design([r.ay for r in records], [r.dy for r in records])
        calls = [lambda f=f: fit(records, f) for f in (Family.poisson(), Family.quasi_poisson(), Family.negbin(5.0))]
        calls += [lambda: profile_kappa(records), lambda: overdispersion_test(records), lambda: nb_mle(y, design)]
        for call in calls:
            with pytest.raises(ReservingError) as got:
                call()
            assert (type(got.value), str(got.value)) == (type(want.value), str(want.value))

    @given(
        dimension=st.integers(2, 7),
        fault=st.sampled_from(
            ["zero year", "zero development year", "2.5", "-5", "nan", "inf", "2**53", "total", "'abc'", "10**400"]
        ),
        seed=st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=100, deadline=None, derandomize=True, database=None)
    def test_count_faults_agree(self, dimension, fault, seed):
        # records with an all-zero level or a bad count get one error kind,
        # naming the same level, cell or accident year, from every entry
        # point, whatever joint fit is remembered; a bad count's cell is the
        # one the triangle constructors name, also for a count numpy cannot
        # read as a float ('abc', 10**400), which nb_mle cannot take
        from nbreserve import Family, fit, glm, nb_mle, overdispersion_test, profile_kappa
        from nbreserve.datasets import AUSTRALIAN_BI_ROWS
        from nbreserve.dispersion import adjusted_profile_loglik
        from nbreserve.errors import SeparationError, TriangleError
        from nbreserve.glm import build_design

        rng = np.random.default_rng(seed)
        t = random_triangle(rng, dimension)
        rows = [t.row(i).tolist() for i in range(1, dimension + 1)]
        if fault.startswith("zero"):
            level, by_year = int(rng.integers(dimension)), fault == "zero year"
            rows = [
                [0 if (i if by_year else j) == level else v for j, v in enumerate(row)] for i, row in enumerate(rows)
            ]
            # the first level with no count, accident years first, by its 0-based index
            totals = {
                "accident year": [sum(row) for row in rows],
                "development year": [sum(row[j] for row in rows[: dimension - j]) for j in range(dimension)],
            }
            name = next(name for name in totals if 0 in totals[name])
            message = f"{name} level {totals[name].index(0)} has all-zero counts; its coefficient diverges"
            want = (SeparationError, message)
        elif fault == "total":
            rows[0][:2] = [2**52, 2**52]
            want = (CountTooLargeError, "accident year 1")
        else:
            i = int(rng.integers(dimension))
            value = {"2.5": 2.5, "-5": -5, "nan": math.nan, "inf": math.inf, "'abc'": "abc", "10**400": 10**400}.get(
                fault, 2**53
            )
            rows[i][int(rng.integers(dimension - i))] = value
            with pytest.raises(TriangleError) as constructed:
                RunOffTriangle.from_rows(rows)
            want = (type(constructed.value), str(constructed.value).partition(":")[0])
        records = [CellRecord(i + 1, j, v) for i, row in enumerate(rows) for j, v in enumerate(row)]
        records = [records[k] for k in rng.permutation(len(records))]
        calls = [lambda f=f: fit(records, f) for f in (Family.poisson(), Family.quasi_poisson(), Family.negbin(5.0))]
        calls += [lambda: profile_kappa(records), lambda: overdispersion_test(records)]
        calls += [lambda: adjusted_profile_loglik(records, 5.0)]
        if fault not in ("'abc'", "10**400"):
            y = np.array([r.count for r in records], dtype=float)
            design = build_design([r.ay for r in records], [r.dy for r in records])
            calls.append(lambda: nb_mle(y, design))
        glm._last_joint_fit = ((), None)
        for memo in ("cleared", "after a fit of other data"):
            for call in calls:
                with pytest.raises(ReservingError) as got:
                    call()
                assert (type(got.value), str(got.value).partition(":")[0]) == want, memo
            profile_kappa(to_long(RunOffTriangle.from_rows(AUSTRALIAN_BI_ROWS)))


def test_accessors_and_comparisons(australian):
    # n_dev is the dimension, a row outside the triangle is a KeyError, a
    # triangle equals no other type, and the repr names the dimension
    assert australian.n_dev == australian.dimension == 7
    for ay in (0, 8):
        with pytest.raises(KeyError, match=f"accident year {ay} out of range"):
            australian.row(ay)
    assert australian.__eq__(5) is NotImplemented and australian != 5
    assert repr(australian) == f"RunOffTriangle(dimension=7, origin_label={australian.origin_label!r})"
