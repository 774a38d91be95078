"""The shared file-format code, and both JSONL formats as properties.

Small generated datasets and description sets round-trip write -> ingest
-> write byte for byte, and a file with one line k corrupted raises the
format's named error with a message that starts with ``line k:``.
"""

import json
import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from fcre.continual import Task
from fcre.datagen import DatasetFormatError, ingest_dataset, write_dataset
from fcre.descriptions import DescriptionFormatError, DescriptionSet, ingest_descriptions
from fcre.formats import _as_labels, _as_matrix, _at_least, _floats_from_b64, _floats_to_b64, checked

FEW = settings(max_examples=25)
CORRUPTIONS = ("not JSON", "missing key", "true entry", "numeric string", "NaN", "wrong length")
# a finite entry whose square overflows; only description vectors are checked for it
DESCRIPTION_CORRUPTIONS = CORRUPTIONS + ("overflow",)


class TestB64Codec:
    def test_round_trip_exact(self):
        rng = np.random.default_rng(42)
        arr = rng.normal(size=17)
        assert np.array_equal(_floats_from_b64(_floats_to_b64(arr), 17, "block"), arr)

    def test_length_checked(self):
        with pytest.raises(ValueError, match=r"^block\.data: payload holds 2 floats, expected 3$"):
            _floats_from_b64(_floats_to_b64(np.zeros(2)), 3, "block")

    @pytest.mark.parametrize("payload", ["@@@@", "AAAA", "AAAAAAAAAA=="])
    def test_other_payloads_are_value_errors(self, payload):
        with pytest.raises(ValueError, match=r"^block\.data: "):
            _floats_from_b64(payload, 1, "block")


class TestChecks:
    @pytest.mark.parametrize(
        "value, kind, message",
        [
            (True, int, "x must be an integer, got True"),
            (1.0, int, "x must be an integer, got 1.0"),
            ("1", float, "x must be a finite numeric value, got '1'"),
            (math.inf, float, "x must be a finite numeric value, got inf"),
            (10**400, float, "x must be a finite numeric value, got an integer of 401 digits"),
            (-(10**400), float, "x must be a finite numeric value, got an integer of 401 digits"),
            (None, str, "x must be a string, got None"),
            ((), list, "x must be a list, got ()"),
        ],
    )
    def test_checked_names_the_value(self, value, kind, message):
        with pytest.raises(ValueError) as err:
            checked(value, kind, "x")
        assert str(err.value) == message

    def test_an_integer_beyond_the_float_range_is_shown_by_its_size(self):
        # the whole integer was printed, 449 characters in all
        with pytest.raises(ValueError) as err:
            checked([1.0, 10**400], [float], "features")
        assert str(err.value) == "features[1] must be a finite numeric value, got an integer of 401 digits"
        assert len(str(err.value)) == 72

    @pytest.mark.parametrize(
        "value, message",
        [
            ([], "the record must be an object, got []"),
            ({"a": [1]}, "missing key b"),
            ({"a": [1, True], "b": {"c": "s"}}, "a[1] must be an integer, got True"),
            ({"a": [], "b": {}}, "missing key b.c"),
            ({"a": [], "b": {"c": 1}}, "b.c must be a string, got 1"),
        ],
    )
    def test_checked_names_the_part_of_a_record(self, value, message):
        with pytest.raises(ValueError) as err:
            checked(value, {"a": [int], "b": {"c": str}}, "")
        assert str(err.value) == message

    def test_checked_takes_an_integer_as_a_float(self):
        assert type(checked(2, float, "x")) is float
        record = {"a": [1], "b": {"c": "s"}, "other": None}
        assert checked(record, {"a": [int], "b": {"c": str}}, "") is record

    @pytest.mark.parametrize(
        "value, kind, message",
        [
            (True, int, "x must be an integer, got True"),
            (1.0, int, "x must be an integer, got 1.0"),
            (math.nan, float, "x must be a finite numeric value, got nan"),
            (0, int, "x must be >= 1, got 0"),
        ],
    )
    def test_at_least_checks_the_kind_then_the_bound(self, value, kind, message):
        with pytest.raises(ValueError) as err:
            _at_least(value, 1, "x", kind)
        assert str(err.value) == message

    def test_at_least_returns_the_checked_value(self):
        value = _at_least(0, 0, "x", float)
        assert value == 0.0 and type(value) is float
        assert _at_least(np.int64(3), 1, "x") == 3

    @pytest.mark.parametrize(
        "values, ndim",
        [
            ([1, 2.5], 1),
            ([1e308, 1e308, -1e308], 1),  # finite entries whose sum overflows
            (np.ones((2, 3), np.float32), 2),
            ([[[0.5]]], 3),
            ((np.int64(3), np.float64(0.5)), 1),
            ([np.ones(2, np.uint8), [1, 2**70]], 2),
        ],
    )
    def test_as_matrix_takes_a_finite_array_of_its_rank_as_float64(self, values, ndim):
        arr = _as_matrix(values, "x", ndim)
        assert arr.dtype == np.float64 and arr.ndim == ndim
        assert np.array_equal(arr, np.asarray(values, dtype=np.float64))

    @pytest.mark.parametrize(
        "values, ndim, message",
        [
            (np.ones((1, 2)), 1, "x must be a non-empty 1-D array, got shape (1, 2)"),
            ([1.0, 2.0], 2, "x must be a non-empty 2-D array, got shape (2,)"),
            ([], 1, "x must be a non-empty 1-D array, got shape (0,)"),
            (np.ones((2, 0)), 2, "x must be a non-empty 2-D array, got shape (2, 0)"),
            (np.ones((2, 3)), 3, "x must be a non-empty 3-D array, got shape (2, 3)"),
            (np.ones((2, 0, 4)), 3, "x must be a non-empty 3-D array, got shape (2, 0, 4)"),
            (np.array([1.0, math.nan]), 1, "x contains non-finite entries"),
            ([1.0, math.nan], 1, "x[1] must be a finite numeric value, got nan"),
            ([[1.0], [-math.inf]], 2, "x[1][0] must be a finite numeric value, got -inf"),
            ([np.ones(2), np.array([0.0, math.inf])], 2, "x[1] contains non-finite entries"),
            (np.full((1, 1, 1), -math.inf), 3, "x contains non-finite entries"),
        ],
    )
    def test_as_matrix_names_the_rule_a_value_breaks(self, values, ndim, message):
        with pytest.raises(ValueError) as err:
            _as_matrix(values, "x", ndim)
        assert str(err.value) == message

    @pytest.mark.parametrize(
        "values, ndim, message",
        [
            # each raised NumPy's "setting an array element with a sequence" text
            ([[1.0], [1.0, 2.0]], 2, "x[1] has 2 entries, expected 1"),
            ([[1.0, 0.0], [1.0]], 2, "x[1] has 1 entries, expected 2"),
            ([[1.0], 2.0], 2, "x[1] is a number, expected a list"),
            ([2.0, [1.0]], 2, "x[1] is a list, expected a number"),
            ([[], [0.5]], 2, "x[1] has 1 entries, expected 0"),
            ([[[1.0, 2.0]], [[1.0, 2.0], [3.0]]], 3, "x[1] has 2 entries, expected 1"),
            ([[[1.0, 2.0]], [[1.0]]], 3, "x[1][0] has 1 entries, expected 2"),
            ([np.ones(2), np.ones(3)], 2, "x[1] has 3 entries, expected 2"),
            ([np.ones((2, 2)), np.ones((2, 3))], 3, "x[1][0] has 3 entries, expected 2"),
        ],
    )
    def test_as_matrix_names_rows_numpy_cannot_stack(self, values, ndim, message):
        with pytest.raises(ValueError) as err:
            _as_matrix(values, "x", ndim)
        assert str(err.value) == message

    @pytest.mark.parametrize(
        "values, ndim, message",
        [
            # each of these was taken, read as NaN, or raised a bare TypeError or OverflowError
            ([True, 0.5], 1, "x[0] must be a finite numeric value, got True"),
            (["1.0", "2"], 1, "x[0] must be a finite numeric value, got '1.0'"),
            (np.array([True, False]), 1, "x must hold integers or floats, got dtype bool"),
            ([[1.0, None]], 2, "x[0][1] must be a finite numeric value, got None"),
            ([[1.0, {}]], 2, "x[0][1] must be a finite numeric value, got {}"),
            ([[10**400, 1.0]], 2, "x[0][0] must be a finite numeric value, got an integer of 401 digits"),
            # a list one level deeper than the array, an array of strings or objects
            ([[1.0, 2.0]], 1, "x[0] must be a finite numeric value, got [1.0, 2.0]"),
            (["0.5", "a"], 2, "x[0] must be a finite numeric value, got '0.5'"),
            (np.array(["1.0"]), 1, "x must hold integers or floats, got dtype <U3"),
            ([np.ones(2), np.array([1, None])], 2, "x[1] must hold integers or floats, got dtype object"),
            ([np.float64(0.5), np.bool_(True)], 1, "x[1] must be a finite numeric value, got True"),
            ([(1.0, 2.0), (3.0, -(2**1024))], 2, "x[1][1] must be a finite numeric value, got an integer of 309 digits"),
        ],
    )
    def test_as_matrix_names_an_entry_that_is_not_a_number(self, values, ndim, message):
        with pytest.raises(ValueError) as err:
            _as_matrix(values, "x", ndim)
        assert str(err.value) == message

    @settings(max_examples=300)
    @given(st.data())
    def test_as_matrix_takes_exactly_the_regular_lists_of_checked_floats(self, data):
        values, depth = data.draw(nested_lists())
        ndim = data.draw(st.sampled_from([depth, 1, 2, 3]))
        expected = checked_floats(values, ndim)
        if expected is None:
            with pytest.raises(ValueError) as err:  # never a TypeError or OverflowError
                _as_matrix(values, "x", ndim)
            assert str(err.value).startswith("x")
        else:
            arr = _as_matrix(values, "x", ndim)
            assert arr.dtype == np.float64
            assert arr.tobytes() == np.array(expected, dtype=np.float64).tobytes()
            assert arr.shape == np.shape(expected)

    @settings(max_examples=300)
    @given(st.data())
    def test_as_labels_takes_int64_entries_of_any_iterable_and_names_the_first_other(self, data):
        wrap = data.draw(st.sampled_from([list, tuple, iter]))
        ints = data.draw(st.lists(INT64, max_size=8))
        labels = _as_labels(wrap(ints), "x")
        assert labels.dtype == np.int64
        assert labels.tobytes() == np.array(ints, np.int64).tobytes()
        assert labels.tobytes() == _as_labels(np.array(ints, np.int64), "x").tobytes()
        bad = data.draw(NOT_INT64)
        at = data.draw(st.integers(0, len(ints)))
        rest = data.draw(st.lists(st.one_of(INT64, NOT_INT64), max_size=3))
        if type(bad) is int:
            digits = len(str(abs(bad)))
            shown = bad if digits <= 20 else f"an integer of {digits} digits"
            message = f"must fit in an int64, got {shown}"
        else:
            message = f"must be an integer, got {bad!r}"
        with pytest.raises(ValueError) as err:
            _as_labels(wrap(ints[:at] + [bad] + ints[at:] + rest), "x")
        assert str(err.value) == f"x[{at}] {message}"


INT64 = st.integers(-(2**63), 2**63 - 1)
NOT_INT64 = st.one_of(
    st.booleans(),
    st.floats(),
    st.text(max_size=3),
    st.none(),
    st.integers(2**63, 2**70),
    st.integers(-(2**70), -(2**63) - 1),
    st.integers(10**20, 10**30),
)


JSON_SCALARS = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False),
    st.sampled_from([math.nan, math.inf, -math.inf]),  # json reads NaN and Infinity
    st.integers(-(10**6), 10**6),
    st.integers(2**1023, 2**1030).flatmap(lambda n: st.sampled_from([n, -n])),  # some beyond floats
    st.booleans(),
    st.text(max_size=3),
    st.none(),
)


@st.composite
def nested_lists(draw):
    """A list 1-3 levels deep of JSON scalars, and its depth: regular, with a
    ragged, empty or mis-nested part, or with an entry one level too deep."""
    depth = draw(st.integers(1, 3))
    shape = draw(st.lists(st.integers(1, 3), min_size=depth, max_size=depth))

    def build(axes):
        if not axes:
            return draw(JSON_SCALARS)
        return [build(axes[1:]) for _ in range(axes[0])]

    values = build(shape)
    part, axis = values, draw(st.integers(0, depth - 1))
    for _ in range(axis):
        part = part[0]
    defect = draw(st.sampled_from(["none", "none", "drop", "empty", "scalar", "deeper"]))
    if defect == "drop":  # ragged, or an empty axis when it held one entry
        part.pop()
    elif defect == "empty":
        part[-1] = []
    elif defect == "scalar":
        part[-1] = draw(JSON_SCALARS)
    elif defect == "deeper":
        part[-1] = [part[-1]]
    return values, depth


def checked_floats(values, depth: int):
    """``values`` as nested lists of ``checked`` floats, ``depth`` levels regular
    with no empty axis; None when any entry fails ``checked`` or the nesting is not so."""
    if depth == 0:
        try:
            return checked(values, float, "")
        except ValueError:
            return None
    if type(values) is not list or not values:
        return None
    rows = [checked_floats(v, depth - 1) for v in values]
    if any(row is None for row in rows) or len({np.shape(row) for row in rows}) != 1:
        return None
    return rows


def finite_floats(**kwargs):
    return st.floats(allow_nan=False, allow_infinity=False, **kwargs)


@st.composite
def streams(draw):
    """A small valid task stream: 1-3 tasks of 1-2 relations, 1-3 features."""
    dim = draw(st.integers(1, 3))
    tasks, first = [], 0
    for index in range(1, draw(st.integers(1, 3)) + 1):
        relations = list(range(first, first + draw(st.integers(1, 2))))
        first += len(relations)
        pools = []
        for _ in ("train", "test"):  # every relation in both pools
            extra = draw(st.lists(st.sampled_from(relations), max_size=2))
            labels = draw(st.permutations(relations + extra))
            row = st.lists(finite_floats(), min_size=dim, max_size=dim)
            rows = draw(st.lists(row, min_size=len(labels), max_size=len(labels)))
            pools.append((np.array(rows), np.array(labels)))
        (train_x, train_y), (test_x, test_y) = pools
        tasks.append(Task(index, train_x, train_y, test_x, test_y))
    return tuple(tasks)


def nonzero_rows(dim):
    row = st.lists(finite_floats(min_value=-1e3, max_value=1e3), min_size=dim, max_size=dim)
    return row.filter(lambda r: float(np.dot(r, r)) > 0.0)


@st.composite
def description_sets(draw):
    """A small valid description set: 1-3 relations of K = 1-3 rows of d = 1-3."""
    k, dim = draw(st.integers(1, 3)), draw(st.integers(1, 3))
    relations = draw(st.lists(st.integers(0, 50), min_size=1, max_size=3, unique=True))
    block = st.lists(nonzero_rows(dim), min_size=k, max_size=k)
    return DescriptionSet({rel: np.array(draw(block)) for rel in relations})


def corrupt(data, line: str, kind: str, rows) -> str:
    """``line`` with one defect of ``kind``; ``rows(obj)`` lists a parsed line's float rows."""
    if kind == "not JSON":  # a proper prefix of an object never closes it
        return line[: data.draw(st.integers(1, len(line) - 1))]
    obj = json.loads(line)
    if kind == "missing key":
        del obj[data.draw(st.sampled_from(sorted(obj)))]
        return json.dumps(obj)
    row = data.draw(st.sampled_from(rows(obj)))
    j = data.draw(st.integers(0, len(row) - 1))
    if kind == "true entry":
        row[j] = True
    elif kind == "numeric string":
        row[j] = repr(row[j])
    elif kind == "NaN":
        row[j] = math.nan
    elif kind == "overflow":
        row[j] = 1e200
    elif len(row) > 1 and data.draw(st.booleans()):  # wrong length
        del row[j]
    else:
        row.append(0.5)
    return json.dumps(obj)


def assert_line_k_is_named(data, tmp_path_factory, text, rows, ingest, error, kinds=CORRUPTIONS):
    lines = text.splitlines()
    kind = data.draw(st.sampled_from(kinds))
    # the first line fixes the row length, so only a later line can break it
    first = 2 if kind == "wrong length" else 1
    assume(len(lines) >= first)
    k = data.draw(st.integers(first, len(lines)))
    lines[k - 1] = corrupt(data, lines[k - 1], kind, rows)
    path = tmp_path_factory.mktemp("corrupt") / "bad.jsonl"
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(error) as err:
        ingest(path)
    assert str(err.value).startswith(f"line {k}:"), (kind, str(err.value))


@pytest.mark.parametrize(
    "ingest, error",
    [(ingest_dataset, DatasetFormatError), (ingest_descriptions, DescriptionFormatError)],
)
def test_a_line_that_is_not_utf8_is_named(tmp_path, ingest, error):
    path = tmp_path / "bad.jsonl"
    path.write_bytes(b'\n{"relation": [\xff]}\n')  # line 1 is blank
    with pytest.raises(error, match="^line 2: invalid JSON: 'utf-8' codec can't decode"):
        ingest(path)


class TestDatasetJsonlProperties:
    @FEW
    @given(streams())
    def test_write_ingest_write_is_byte_identical(self, tmp_path_factory, stream):
        first = tmp_path_factory.mktemp("dataset") / "a.jsonl"
        second = first.with_name("b.jsonl")
        write_dataset(stream, first)
        write_dataset(ingest_dataset(first), second)
        assert first.read_bytes() == second.read_bytes()

    @FEW
    @given(streams(), st.data())
    def test_a_corrupted_line_is_named(self, tmp_path_factory, stream, data):
        path = tmp_path_factory.mktemp("dataset") / "good.jsonl"
        write_dataset(stream, path)
        assert_line_k_is_named(
            data, tmp_path_factory, path.read_text(), lambda obj: [obj["features"]],
            ingest_dataset, DatasetFormatError,
        )


class TestDescriptionJsonlProperties:
    @FEW
    @given(description_sets())
    def test_write_ingest_write_is_byte_identical(self, tmp_path_factory, descriptions):
        first = tmp_path_factory.mktemp("descriptions") / "a.jsonl"
        second = first.with_name("b.jsonl")
        descriptions.write(first)
        ingest_descriptions(first).write(second)
        assert first.read_bytes() == second.read_bytes()

    @FEW
    @given(description_sets(), st.data())
    def test_a_corrupted_line_is_named(self, tmp_path_factory, descriptions, data):
        path = tmp_path_factory.mktemp("descriptions") / "good.jsonl"
        descriptions.write(path)
        assert_line_k_is_named(
            data, tmp_path_factory, path.read_text(), lambda obj: obj["vectors"],
            ingest_descriptions, DescriptionFormatError, DESCRIPTION_CORRUPTIONS,
        )
