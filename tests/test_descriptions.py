"""Description registry behavior and the JSONL exchange format."""

import json
import math
import re

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

    @pytest.mark.parametrize("key", [2**63, -(2**63) - 1])
    def test_a_relation_id_beyond_int64_is_rejected(self, key):
        with pytest.raises(ValueError, match=rf"^relation id must fit in an int64, got {key}$"):
            DescriptionSet({2: np.ones((1, 2)), key: np.ones((1, 2))})

    def test_the_int64_extremes_are_accepted(self):
        ds = DescriptionSet({2**63 - 1: np.ones((1, 2)), -(2**63): np.ones((1, 2))})
        assert ds.relations == (-(2**63), 2**63 - 1)
        np.testing.assert_array_equal(ds.rows([2**63 - 1, -(2**63)]), [1, 0])

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

    def test_mean_is_the_row_mean(self):
        ds = simple_set()
        np.testing.assert_allclose(ds.mean(0), [0.5, 0.5])
        np.testing.assert_allclose(ds.mean(1), [0.5, 1.0])

    def test_unknown_relation(self):
        with pytest.raises(KeyError):
            simple_set().vectors(9)

    def test_rows_of_ids_in_any_order_with_repeats(self):
        ds = DescriptionSet({r: np.ones((1, 2)) for r in (3, 8, 20)})
        ids = [20, 3, 20, 8, 3]
        for given in (ids, tuple(ids), iter(ids), np.array(ids), np.array(ids, dtype=np.uint8)):
            assert ds.rows(given).tolist() == [2, 0, 2, 1, 0]
        assert ds.rows([]).shape == (0,)

    @pytest.mark.parametrize(
        "ids, unknown",
        [([8, 1, 25], 1), ([3, 5, 1], 5), ([20, 21, 5], 21)],
        ids=["below", "between", "above"],
    )
    def test_rows_of_an_unknown_id_name_the_first(self, ids, unknown):
        ds = DescriptionSet({r: np.ones((1, 2)) for r in (3, 8, 20)})
        with pytest.raises(KeyError, match=rf"^'unknown relation {unknown}'$"):
            ds.rows(ids)
        with pytest.raises(KeyError, match=rf"^'unknown relation {unknown}'$"):
            ds.rows(np.array(ids))

    def test_rows_of_an_array_take_only_int64_ids(self):
        ds = DescriptionSet({-1: np.ones((1, 2)), 2: np.ones((1, 2))})
        with pytest.raises(ValueError, match=r"^relation ids must fit in an int64, got 18446744073709551615$"):
            ds.rows(np.array([2**64 - 1], dtype=np.uint64))  # a cast would make it relation -1
        with pytest.raises(ValueError, match=r"^relation ids must hold integers, got dtype float64$"):
            ds.rows(np.array([2.0]))

    def test_rows_on_an_empty_set(self):
        empty = DescriptionSet.empty()
        assert empty.rows([]).shape == (0,)
        with pytest.raises(KeyError, match=r"^'unknown relation 4'$"):
            empty.rows([4, 2])

    def test_rows_agree_with_the_per_id_lookup(self):
        rng = np.random.default_rng(5)
        for _ in range(30):
            registered = rng.choice(np.arange(-20, 40), size=int(rng.integers(1, 12)), replace=False)
            ds = DescriptionSet({int(r): rng.normal(size=(2, 3)) for r in registered})
            order = np.argsort(registered)
            ids = rng.choice(registered, size=int(rng.integers(0, 40)))
            expected = np.searchsorted(registered[order], ids)
            assert ds.rows(ids).tolist() == ds.rows(ids.tolist()).tolist() == expected.tolist()
            for rel, row in zip(ids.tolist(), expected):
                assert rel in ds
                assert ds.vectors(rel).tobytes() == ds.table[row].tobytes()
                assert ds.mean(rel).tobytes() == ds.means[row].tobytes()
            lookups = (ds.vectors, ds.mean, lambda r: ds.rows([r]), lambda r: ds.rows(np.array([r])))
            for rel in set(range(-25, 45)) - set(registered.tolist()):
                assert rel not in ds
                for lookup in lookups:
                    with pytest.raises(KeyError, match=rf"^'unknown relation {rel}'$"):
                        lookup(rel)

    @pytest.mark.parametrize("rel", [2.5, 2.0, "x", "5", True, np.float64(5.0), 2**63, None])
    def test_an_id_that_rows_would_reject_is_not_in_the_set(self, rel):
        # 2.5 was relation 2, and 2**63 raised OverflowError
        assert rel not in DescriptionSet({2: np.ones((1, 2)), 5: np.ones((1, 2))})

    @pytest.mark.parametrize(
        "lookup, rel, message",
        [
            ("vectors", 2.9, "must be an integer, got 2.9"),  # was relation 2's block
            ("mean", "5", "must be an integer, got '5'"),
            ("rows", [2.5], "must be an integer, got 2.5"),  # was row 0
            ("rows", ["5"], "must be an integer, got '5'"),  # was row 1
            ("rows", [True], "must be an integer, got True"),
            ("rows", [2**63], f"must fit in an int64, got {2**63}"),  # was OverflowError
        ],
    )
    def test_a_lookup_of_an_id_that_is_not_an_int64_integer_names_it(self, lookup, rel, message):
        ds = DescriptionSet({2: np.ones((1, 2)), 5: np.ones((1, 2))})
        with pytest.raises(ValueError, match=rf"^relation id {re.escape(message)}$"):
            getattr(ds, lookup)(rel)

    def test_ragged_k_rejected(self):
        with pytest.raises(ValueError, match="description vectors, expected"):
            DescriptionSet({0: np.ones((2, 3)), 1: np.ones((1, 3))})

    def test_dim_mismatch_rejected(self):
        with pytest.raises(ValueError, match="dimension"):
            DescriptionSet({0: np.ones((1, 3)), 1: np.ones((1, 4))})

    def test_zero_vector_rejected(self):
        with pytest.raises(ValueError, match="zero norm"):
            DescriptionSet({0: np.array([[0.0, 0.0]])})

    def test_a_vector_whose_squared_norm_overflows_is_rejected(self):
        # 1e200 is finite, but its square is not: training's norms would be inf
        with pytest.raises(
            ValueError, match=r"^relation 0: the squared norm of description vector 1 overflows$"
        ):
            DescriptionSet({0: np.array([[1.0, 0.0], [1e200, 1.0]]), 3: np.ones((2, 2))})

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_entry_rejected(self, bad):
        # training reads the set's table unchecked, so this is the one check
        with pytest.raises(ValueError, match=r"^relation 0: non-finite description entries$"):
            DescriptionSet({0: [[bad, 1.0]]})

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

    @pytest.mark.parametrize("key, shown", [(2.5, r"2\.5"), (True, "True"), ("3", "'3'")])
    def test_a_relation_id_that_is_not_an_integer_is_rejected_before_a_draw(self, key, shown):
        # {2: c, 2.5: c2} was one relation 2 holding the block drawn for 2.5; True was relation 1
        centers = {2: np.array([1.0, 0.0]), key: np.array([0.0, 1.0])}
        with pytest.raises(ValueError, match=rf"^relation id must be an integer, got {shown}$"):
            synth_descriptions(0, centers, k_desc=2, spread=0.1)

    def test_numpy_integer_ids_draw_as_the_same_python_ints(self):
        centers = {np.int64(4): np.array([1.0, 0.0]), np.uint8(1): np.array([0.0, 1.0])}
        ds = synth_descriptions(3, centers, k_desc=2, spread=0.1)
        plain = synth_descriptions(3, {4: centers[4], 1: centers[1]}, k_desc=2, spread=0.1)
        assert ds.relations == plain.relations == (1, 4)
        assert ds.table.tobytes() == plain.table.tobytes()

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
            (['{"relation": 0, "vectors": [[0.0, 0.0]]}'], r"line 1.*zero norm"),
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
            (
                ['{"relation": 0, "vectors": [[1e-200, 0.0]]}'],
                r"^line 1: relation 0: description vector 0 has zero norm$",
            ),
            (
                [
                    '{"relation": 0, "vectors": [[1.0, 0.0]]}',
                    '{"relation": 1, "vectors": [[0.0, 1e200]]}',
                ],
                r"^line 2: relation 1: the squared norm of description vector 0 overflows$",
            ),
            (
                ['{"relation": 0, "vectors": [[1.0, 0.0], [1.0]]}'],
                r"^line 1: vector 1 of relation 0 has dimension 1, expected 2$",
            ),
        ],
    )
    def test_malformed_lines_name_the_line(self, tmp_path, lines, pattern):
        path = tmp_path / "bad.jsonl"
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(DescriptionFormatError, match=pattern):
            ingest_descriptions(path)

    @pytest.mark.parametrize("relation", [2**63, -(2**63) - 1])
    def test_a_relation_beyond_int64_is_rejected_on_its_line(self, tmp_path, relation):
        path = tmp_path / "big.jsonl"
        lines = [{"relation": 0, "vectors": [[1.0]]}, {"relation": relation, "vectors": [[1.0]]}]
        path.write_text("".join(json.dumps(line) + "\n" for line in lines))
        with pytest.raises(
            DescriptionFormatError, match=rf"^line 2: relation must fit in an int64, got {relation}$"
        ):
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
        calls, check_block = [], descriptions._check_block

        def counted(rel, *args):
            calls.append(rel)
            return check_block(rel, *args)

        monkeypatch.setattr(descriptions, "_check_block", counted)
        back = ingest_descriptions(path)
        assert calls == [2, 4, 7]  # one check per line, in file order; ``_fill`` checks none again
        assert back.relations == ds.relations
        assert back.table.tobytes() == ds.table.tobytes()
        assert back.means.tobytes() == ds.means.tobytes()

    def test_parsed_zero_mean_warns(self, tmp_path):
        path = tmp_path / "desc.jsonl"
        path.write_text('{"relation": 0, "vectors": [[1.0, 0.0], [-1.0, 0.0]]}\n')
        with pytest.warns(RuntimeWarning, match="^relation 0: description vectors average to the zero"):
            ingest_descriptions(path)
