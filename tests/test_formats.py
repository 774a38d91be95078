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

from fcre.continual import Task, TaskStream
from fcre.datagen import DatasetFormatError, ingest_dataset, write_dataset
from fcre.descriptions import DescriptionFormatError, DescriptionSet, ingest_descriptions
from fcre.formats import _floats_from_b64, _floats_to_b64, checked, float_row

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
            (10**400, float, "x must be a finite numeric value, got 1" + "0" * 400),
            (None, str, "x must be a string, got None"),
            ((), list, "x must be a list, got ()"),
        ],
    )
    def test_checked_names_the_value(self, value, kind, message):
        with pytest.raises(ValueError) as err:
            checked(value, kind, "x")
        assert str(err.value) == message

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

    def test_float_row_converts_and_checks_length(self):
        assert float_row([1, 2.5], None, "row") == [1.0, 2.5]
        with pytest.raises(DatasetFormatError, match="^row has dimension 2, expected 3$"):
            float_row([1.0, 2.0], 3, "row", DatasetFormatError)


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
    return TaskStream(tuple(tasks))


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
