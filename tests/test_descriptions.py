"""Description registry behavior and the JSONL exchange format."""

import json
import math

import numpy as np
import pytest

from fcre import descriptions
from fcre.descriptions import (
    DescriptionFormatError,
    DescriptionSet,
    ingest_descriptions,
    synth_descriptions,
)


def simple_set():
    return DescriptionSet(
        {
            0: np.array([[1.0, 0.0], [0.0, 1.0]]),
            1: np.array([[0.0, 1.0], [1.0, 1.0]]),
        }
    )


class TestDescriptionSet:
    def test_relations_sorted(self):
        ds = DescriptionSet(
            {
                5: np.ones((1, 2)),
                1: np.ones((1, 2)),
                3: np.ones((1, 2)),
            }
        )
        assert ds.relations == (1, 3, 5)

    @pytest.mark.parametrize(
        "key, shown",
        [(2.5, r"2\.5"), (3.0, r"3\.0"), (True, "True"), ("7", "'7'")],
    )
    def test_a_relation_id_that_is_not_an_integer_is_rejected(self, key, shown):
        # 2.5 was stored as relation 2 beside a real relation 2, "7" as relation 7
        with pytest.raises(ValueError, match=rf"^relation id must be an integer, got {shown}$"):
            DescriptionSet({2: np.ones((1, 2)), key: np.ones((1, 2))})

    def test_a_numpy_integer_relation_id_is_accepted(self):
        ds = DescriptionSet({np.int64(4): np.ones((1, 2)), np.uint8(1): np.ones((1, 2))})
        assert ds.relations == (1, 4)
        assert all(type(rel) is int for rel in ds.relations)

    def test_vectors_and_shape_accessors(self):
        ds = simple_set()
        assert ds.k_desc == 2
        assert ds.dim == 2
        np.testing.assert_array_equal(ds.vectors(0), [[1.0, 0.0], [0.0, 1.0]])

    def test_empty_set(self):
        ds = DescriptionSet.empty()
        assert ds.relations == ()
        assert ds.k_desc is None and ds.dim is None

    def test_mean_is_cached_row_mean(self):
        ds = simple_set()
        np.testing.assert_allclose(ds.mean(0), [0.5, 0.5])
        assert ds.mean(0) is ds.mean(0)  # same array object: computed once
        np.testing.assert_allclose(ds.mean(1), [0.5, 1.0])

    def test_unknown_relation(self):
        with pytest.raises(KeyError):
            simple_set().vectors(9)

    def test_ragged_k_rejected(self):
        with pytest.raises(ValueError, match="description vectors, expected"):
            DescriptionSet({0: np.ones((2, 3)), 1: np.ones((1, 3))})

    def test_dim_mismatch_rejected(self):
        with pytest.raises(ValueError, match="dimension"):
            DescriptionSet({0: np.ones((1, 3)), 1: np.ones((1, 4))})

    def test_zero_vector_rejected(self):
        with pytest.raises(ValueError, match="zero norm"):
            DescriptionSet({0: np.array([[0.0, 0.0]])})

    def test_zero_mean_warns(self):
        vectors = np.array([[1.0, 0.0], [-1.0, 0.0]])
        with pytest.warns(RuntimeWarning, match="average to the zero"):
            ds = DescriptionSet({0: vectors})
            ds.mean(0)

    def test_subset(self):
        ds = simple_set()
        sub = ds.subset([1])
        assert sub.relations == (1,)
        np.testing.assert_array_equal(sub.vectors(1), ds.vectors(1))
        with pytest.raises(KeyError):
            ds.subset([7])

    def test_union_disjoint(self):
        a = DescriptionSet({0: np.ones((1, 2))})
        b = DescriptionSet({1: np.full((1, 2), 2.0)})
        merged = a.union(b)
        assert merged.relations == (0, 1)
        np.testing.assert_array_equal(merged.vectors(0), a.vectors(0))

    def test_union_overlap_rejected(self):
        a = DescriptionSet({0: np.ones((1, 2))})
        with pytest.raises(ValueError, match="already registered"):
            a.union(a)

    def test_union_shape_mismatches_rejected(self):
        a = DescriptionSet({0: np.ones((1, 2))})
        with pytest.raises(ValueError, match="K=1 and K=2"):
            a.union(DescriptionSet({1: np.ones((2, 2))}))
        with pytest.raises(ValueError, match="d=2 and d=3"):
            a.union(DescriptionSet({1: np.ones((1, 3))}))

    def test_union_with_empty(self):
        a = simple_set()
        assert a.union(DescriptionSet.empty()).relations == a.relations
        assert DescriptionSet.empty().union(a).relations == a.relations

    def test_union_and_subset_equal_sets_built_from_the_merged_dict(self):
        rng = np.random.default_rng(0)
        blocks = {r: rng.normal(size=(3, 4)) for r in (9, 2, 5, 7)}
        a = DescriptionSet({r: blocks[r] for r in (9, 2)})
        b = DescriptionSet({r: blocks[r] for r in (5, 7)})
        cases = [
            (a.union(b), blocks),
            (b.union(a), blocks),
            (a.union(DescriptionSet.empty()), {r: blocks[r] for r in (9, 2)}),
            (DescriptionSet.empty().union(b), {r: blocks[r] for r in (5, 7)}),
            (a.union(b).subset([7, 2]), {r: blocks[r] for r in (7, 2)}),
            (a.subset([]), {}),
        ]
        for merged, source in cases:
            expected = DescriptionSet(source)
            assert merged.relations == expected.relations
            assert merged.k_desc == expected.k_desc
            assert merged.dim == expected.dim
            for r in expected.relations:
                np.testing.assert_array_equal(merged.vectors(r), expected.vectors(r))
                np.testing.assert_array_equal(merged.mean(r), expected.mean(r))


class TestSynthDescriptions:
    def test_deterministic(self):
        centers = {0: np.array([1.0, 0.0, 0.0]), 1: np.array([0.0, 1.0, 0.0])}
        a = synth_descriptions(7, centers, k_desc=3, spread=0.2)
        b = synth_descriptions(7, centers, k_desc=3, spread=0.2)
        for rel in a.relations:
            np.testing.assert_array_equal(a.vectors(rel), b.vectors(rel))

    def test_seed_changes_output(self):
        centers = {0: np.array([1.0, 0.0])}
        a = synth_descriptions(0, centers, k_desc=2, spread=0.2)
        b = synth_descriptions(1, centers, k_desc=2, spread=0.2)
        assert not np.array_equal(a.vectors(0), b.vectors(0))

    def test_rows_are_unit_norm(self):
        rng = np.random.default_rng(42)
        centers = {r: rng.normal(size=5) for r in range(4)}
        ds = synth_descriptions(3, centers, k_desc=4, spread=0.3)
        for rel in ds.relations:
            np.testing.assert_allclose(
                np.linalg.norm(ds.vectors(rel), axis=1), np.ones(4), rtol=1e-12
            )

    def test_zero_spread_collapses_to_center_direction(self):
        center = np.array([3.0, 4.0])
        ds = synth_descriptions(0, {2: center}, k_desc=3, spread=0.0)
        expected = np.tile(center / 5.0, (3, 1))
        np.testing.assert_allclose(ds.vectors(2), expected, rtol=1e-12)

    def test_invalid_arguments(self):
        centers = {0: np.array([1.0, 0.0])}
        with pytest.raises(ValueError, match="k_desc"):
            synth_descriptions(0, centers, k_desc=0, spread=0.1)
        with pytest.raises(ValueError, match="spread"):
            synth_descriptions(0, centers, k_desc=1, spread=-0.5)
        with pytest.raises(ValueError, match="at least one"):
            synth_descriptions(0, {}, k_desc=1, spread=0.1)


class TestDescriptionsJsonl:
    def test_write_then_ingest_round_trip(self, tmp_path):
        path = tmp_path / "desc.jsonl"
        ds = simple_set()
        ds.write(path)
        back = ingest_descriptions(path)
        assert back.relations == ds.relations
        for rel in ds.relations:
            np.testing.assert_array_equal(back.vectors(rel), ds.vectors(rel))

    def test_round_trip_is_byte_identical(self, tmp_path):
        rng = np.random.default_rng(42)
        centers = {r: rng.normal(size=6) for r in range(5)}
        ds = synth_descriptions(11, centers, k_desc=3, spread=0.25)
        first = tmp_path / "a.jsonl"
        second = tmp_path / "b.jsonl"
        ds.write(first)
        ingest_descriptions(first).write(second)
        assert first.read_bytes() == second.read_bytes()

    def test_lines_ordered_by_relation(self, tmp_path):
        ds = DescriptionSet({4: np.ones((1, 2)), 2: np.full((1, 2), 3.0)})
        path = tmp_path / "desc.jsonl"
        ds.write(path)
        rows = [json.loads(line) for line in path.read_text().splitlines()]
        assert [row["relation"] for row in rows] == [2, 4]
        assert rows[0]["vectors"] == [[3.0, 3.0]]

    def test_expected_dim_enforced(self, tmp_path):
        path = tmp_path / "desc.jsonl"
        simple_set().write(path)
        assert ingest_descriptions(path, expected_dim=2).dim == 2
        with pytest.raises(DescriptionFormatError, match="expected 3"):
            ingest_descriptions(path, expected_dim=3)

    @pytest.mark.parametrize(
        "lines, pattern",
        [
            (["not json"], r"line 1.*JSON"),
            (['{"vectors": [[1.0]]}'], r"line 1.*relation"),
            (['{"relation": 0}'], r"line 1.*vectors"),
            (['{"relation": "a", "vectors": [[1.0]]}'], r"line 1.*integer"),
            (
                [
                    '{"relation": 0, "vectors": [[1.0]]}',
                    '{"relation": 0, "vectors": [[2.0]]}',
                ],
                r"line 2.*duplicate",
            ),
            (
                [
                    '{"relation": 0, "vectors": [[1.0, 0.0]]}',
                    '{"relation": 1, "vectors": [[1.0, 0.0], [0.0, 1.0]]}',
                ],
                r"line 2.*vectors, expected 1",
            ),
            (
                [
                    '{"relation": 0, "vectors": [[1.0, 0.0]]}',
                    '{"relation": 1, "vectors": [[1.0]]}',
                ],
                r"line 2.*dimension",
            ),
            (['{"relation": 0, "vectors": [[0.0, 0.0]]}'], r"line 1.*zero vector"),
            (['{"relation": 0, "vectors": [[1.0, NaN]]}'], r"line 1"),
            (['{"relation": 0, "vectors": [[1.0, "x"]]}'], r"line 1.*numeric"),
            (['{"relation": 0, "vectors": []}'], r"line 1.*non-empty"),
            (['{"relation": 0, "vectors": [[1.0, true]]}'], r"line 1.*vector 0.*numeric"),
            (
                ['{"relation": 0, "vectors": [[1.0, 0.0], ["0.5", 1.0]]}'],
                r"line 1.*vector 1.*numeric",
            ),
            (
                [
                    '{"relation": 0, "vectors": [[1.0]]}',
                    '{"relation": 1, "vectors": [[false]]}',
                ],
                r"line 2.*numeric",
            ),
            (['{"relation": 0, "vectors": [[1e-200, 0.0]]}'], r"line 1: vector 0 .*underflow"),
        ],
    )
    def test_malformed_lines_name_the_line(self, tmp_path, lines, pattern):
        path = tmp_path / "bad.jsonl"
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(DescriptionFormatError, match=pattern):
            ingest_descriptions(path)

    def test_empty_file_rejected(self, tmp_path):
        path = tmp_path / "empty.jsonl"
        path.write_text("")
        with pytest.raises(DescriptionFormatError, match="file is empty"):
            ingest_descriptions(path)

    def test_missing_file_is_os_error(self, tmp_path):
        with pytest.raises(OSError):
            ingest_descriptions(tmp_path / "nope.jsonl")

    def test_parsed_set_equals_the_checked_constructor_without_checking_again(self, tmp_path, monkeypatch):
        rng = np.random.default_rng(3)
        # K = 9: from 8 rows up a mean summed in another order can round differently
        ds = DescriptionSet({r: rng.normal(size=(9, 5)) for r in (7, 2, 4)})
        path = tmp_path / "desc.jsonl"
        ds.write(path)
        monkeypatch.setattr(descriptions, "_check_block", None)  # the parser checked each line
        back = ingest_descriptions(path)
        assert back.relations == ds.relations
        assert back.table.tobytes() == ds.table.tobytes()
        assert back.means.tobytes() == ds.means.tobytes()

    def test_parsed_zero_mean_warns(self, tmp_path):
        path = tmp_path / "desc.jsonl"
        path.write_text('{"relation": 0, "vectors": [[1.0, 0.0], [-1.0, 0.0]]}\n')
        with pytest.warns(RuntimeWarning, match="^relation 0: description vectors average to the zero"):
            ingest_descriptions(path)
