"""Synthetic stream generation and the dataset JSONL exchange format."""

import dataclasses
import json
import math
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fcre.continual import Task
from fcre.datagen import (
    DatasetFormatError,
    GenerationError,
    SyntheticSpec,
    generate_stream,
    ingest_dataset,
    sample_separated_centers,
    write_dataset,
)

SMALL = SyntheticSpec(
    n_tasks=3,
    n_way=2,
    shots=4,
    test_per_relation=3,
    feature_dim=8,
    cluster_separation=0.4,
    within_class_noise=0.05,
    task1_oversample=6,
    seed=0,
)


class TestSyntheticSpec:
    def test_defaults_validate(self):
        assert SyntheticSpec().n_relations == 40

    @pytest.mark.parametrize(
        "kwargs, pattern",
        [
            ({"n_tasks": 0}, "n_tasks"),
            ({"n_way": 0}, "n_way"),
            ({"shots": 0}, "shots"),
            ({"test_per_relation": 0}, "test_per_relation"),
            ({"feature_dim": 0}, "feature_dim"),
            ({"cluster_separation": 0.0}, "cluster_separation"),
            ({"cluster_separation": math.pi}, "cluster_separation"),
            ({"within_class_noise": -0.1}, "within_class_noise"),
            ({"task1_oversample": 0}, "task1_oversample"),
            ({"n_tasks": 2.5}, r"^n_tasks must be an integer, got 2\.5$"),
            ({"shots": True}, r"^shots must be an integer, got True$"),
            ({"within_class_noise": math.nan}, r"^within_class_noise must be a finite numeric value, got nan$"),
            ({"seed": -1}, r"^seed must be >= 0, got -1$"),
        ],
    )
    def test_constraint_violations(self, kwargs, pattern):
        base = {"shots": 5, "task1_oversample": 5}
        base.update(kwargs)
        with pytest.raises(ValueError, match=pattern):
            SyntheticSpec(**base)

    def test_numpy_scalars_accepted(self):
        SyntheticSpec(n_tasks=np.int64(2), seed=np.uint32(7), within_class_noise=np.float64(0.2))

    def test_replace_checks_the_new_value(self):
        with pytest.raises(ValueError, match=r"^seed must be >= 0, got -1$"):
            dataclasses.replace(SyntheticSpec(), seed=-1)


class TestSampleSeparatedCenters:
    def test_unit_norm_and_pairwise_angle(self):
        rng = np.random.default_rng(42)
        centers = sample_separated_centers(rng, count=10, dim=16, min_angle=0.5)
        assert centers.shape == (10, 16)
        np.testing.assert_allclose(
            np.linalg.norm(centers, axis=1), np.ones(10), rtol=1e-12
        )
        dots = centers @ centers.T
        off_diag = dots[~np.eye(10, dtype=bool)]
        assert np.all(off_diag <= math.cos(0.5) + 1e-12)

    def test_deterministic_given_rng_state(self):
        a = sample_separated_centers(np.random.default_rng(3), 5, 8, 0.4)
        b = sample_separated_centers(np.random.default_rng(3), 5, 8, 0.4)
        np.testing.assert_array_equal(a, b)

    def test_infeasible_packing_raises(self):
        # three directions pairwise > 171 degrees apart cannot exist in 2-D
        rng = np.random.default_rng(0)
        with pytest.raises(GenerationError, match="smaller cluster_separation"):
            sample_separated_centers(rng, count=3, dim=2, min_angle=3.0)


class TestGenerateStream:
    def test_deterministic(self):
        s1, c1 = generate_stream(SMALL)
        s2, c2 = generate_stream(SMALL)
        assert len(s1) == len(s2)
        for t1, t2 in zip(s1, s2):
            np.testing.assert_array_equal(t1.train_x, t2.train_x)
            np.testing.assert_array_equal(t1.test_x, t2.test_x)
            np.testing.assert_array_equal(t1.train_y, t2.train_y)
        for rel in c1:
            np.testing.assert_array_equal(c1[rel], c2[rel])

    def test_seed_changes_stream(self):
        s1, _ = generate_stream(SMALL)
        s2, _ = generate_stream(dataclasses.replace(SMALL, seed=1))
        assert not np.array_equal(s1[0].train_x, s2[0].train_x)

    def test_shapes_and_counts(self):
        stream, centers = generate_stream(SMALL)
        assert len(stream) == 3
        assert len(centers) == 6
        first = stream[0]
        # task 1 is oversampled: 2 relations x 6 shots
        assert first.train_x.shape == (12, 8)
        assert first.test_x.shape == (6, 8)
        for task in stream[1:]:
            assert task.train_x.shape == (8, 8)
            assert task.test_x.shape == (6, 8)
            for rel in task.relations:
                assert int(np.sum(task.train_y == rel)) == 4
                assert int(np.sum(task.test_y == rel)) == 3

    def test_relation_ids_dense_and_disjoint(self):
        stream, centers = generate_stream(SMALL)
        seen: list[int] = []
        for i, task in enumerate(stream, start=1):
            assert task.index == i
            assert list(task.relations) == [(i - 1) * 2, (i - 1) * 2 + 1]
            seen.extend(task.relations)
        assert seen == sorted(set(seen)) == list(range(6))
        assert sorted(centers) == list(range(6))

    def test_centers_respect_separation(self):
        _, centers = generate_stream(SMALL)
        mat = np.stack([centers[r] for r in sorted(centers)])
        dots = mat @ mat.T
        off = dots[~np.eye(len(mat), dtype=bool)]
        assert np.all(off <= math.cos(SMALL.cluster_separation) + 1e-12)

    def test_zero_noise_collapses_to_center(self):
        spec = dataclasses.replace(SMALL, within_class_noise=0.0)
        stream, centers = generate_stream(spec)
        for task in stream:
            for row, rel in zip(task.train_x, task.train_y):
                np.testing.assert_allclose(row, centers[int(rel)], atol=1e-12)

    def test_noise_widens_clusters(self):
        tight, centers = generate_stream(
            dataclasses.replace(SMALL, within_class_noise=0.01)
        )
        loose, _ = generate_stream(
            dataclasses.replace(SMALL, within_class_noise=0.5)
        )

        def mean_spread(stream):
            total, n = 0.0, 0
            for task in stream:
                for row, rel in zip(task.train_x, task.train_y):
                    total += float(np.linalg.norm(row - centers[int(rel)]))
                    n += 1
            return total / n

        assert mean_spread(loose) > mean_spread(tight) * 5


class TestDatasetJsonl:
    def test_write_then_ingest_round_trip(self, tmp_path):
        stream, _ = generate_stream(SMALL)
        path = tmp_path / "data.jsonl"
        write_dataset(stream, path)
        back = ingest_dataset(path)
        assert type(stream) is type(back) is tuple
        assert len(back) == len(stream)
        for a, b in zip(stream, back):
            assert a.index == b.index and a.relations == b.relations
            np.testing.assert_array_equal(a.train_x, b.train_x)
            np.testing.assert_array_equal(a.train_y, b.train_y)
            np.testing.assert_array_equal(a.test_x, b.test_x)
            np.testing.assert_array_equal(a.test_y, b.test_y)

    def test_round_trip_is_byte_identical(self, tmp_path):
        stream, _ = generate_stream(SMALL)
        first = tmp_path / "a.jsonl"
        second = tmp_path / "b.jsonl"
        write_dataset(stream, first)
        write_dataset(ingest_dataset(first), second)
        assert first.read_bytes() == second.read_bytes()

    def test_parse_peaks_under_three_times_the_feature_bytes(self, tmp_path):
        # rows held as Python floats until the file ended peaked at 5.5x
        stream, _ = generate_stream(
            SyntheticSpec(n_tasks=16, shots=10, task1_oversample=10, test_per_relation=2)
        )
        assert stream[0].feature_dim == 32
        path = tmp_path / "data.jsonl"
        write_dataset(stream, path)
        feature_bytes = sum(task.train_x.nbytes + task.test_x.nbytes for task in stream)
        ingest_dataset(path)  # warm caches outside the measurement
        tracemalloc.start()
        try:
            ingest_dataset(path)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 3 * feature_bytes, f"ingest_dataset peaked at {peak / feature_bytes:.2f}x"

    def test_canonical_row_order(self, tmp_path):
        stream, _ = generate_stream(SMALL)
        path = tmp_path / "data.jsonl"
        write_dataset(stream, path)
        rows = [json.loads(line) for line in path.read_text().splitlines()]
        keys = [(row["task"], 0 if row["split"] == "train" else 1) for row in rows]
        assert keys == sorted(keys)

    def _write_rows(self, tmp_path, rows):
        path = tmp_path / "bad.jsonl"
        path.write_text("\n".join(rows) + "\n")
        return path

    def _valid_row(self, task=1, relation=0, split="train"):
        return json.dumps(
            {"task": task, "relation": relation, "split": split, "features": [1.0, 0.0]}
        )

    def test_minimal_valid_file(self, tmp_path):
        rows = [
            self._valid_row(split="train"),
            self._valid_row(split="test"),
        ]
        stream = ingest_dataset(self._write_rows(tmp_path, rows))
        assert len(stream) == 1
        assert stream[0].relations == (0,)

    @pytest.mark.parametrize(
        "rows, pattern",
        [
            (["{broken"], r"line 1.*JSON"),
            (['{"task": 1}'], r"line 1"),
            (
                ['{"task": 0, "relation": 0, "split": "train", "features": [1.0]}'],
                r"line 1.*task",
            ),
            (
                ['{"task": 1, "relation": -1, "split": "train", "features": [1.0]}'],
                r"line 1.*relation",
            ),
            (
                ['{"task": 1, "relation": 0, "split": "dev", "features": [1.0]}'],
                r"line 1.*split",
            ),
            (
                ['{"task": 1, "relation": 0, "split": "train", "features": "x"}'],
                r"line 1.*features",
            ),
            (
                ['{"task": 1, "relation": 0, "split": "train", "features": [1.0, NaN]}'],
                r"line 1",
            ),
            (
                ['{"task": 1, "relation": 0, "split": "train", "features": [true, 0.5]}'],
                r"line 1.*numeric",
            ),
            (
                ['{"task": 1, "relation": 0, "split": "train", "features": [1.0, "0.5"]}'],
                r"line 1.*numeric",
            ),
            (
                ['{"task": 1, "relation": 0, "split": "train", "features": [1' + "0" * 400 + "]}"],
                r"line 1.*numeric",
            ),
        ],
    )
    def test_malformed_rows_name_the_line(self, tmp_path, rows, pattern):
        with pytest.raises(DatasetFormatError, match=pattern):
            ingest_dataset(self._write_rows(tmp_path, rows))

    @pytest.mark.parametrize("relation", [2**63, 2**64])
    def test_a_relation_beyond_int64_is_rejected_on_its_line(self, tmp_path, relation):
        # 2**63 once raised a bare OverflowError with no line number
        rows = [self._valid_row(split="train"), self._valid_row(relation=relation, split="test")]
        with pytest.raises(
            DatasetFormatError, match=rf"^line 2: relation must fit in an int64, got {relation}$"
        ):
            ingest_dataset(self._write_rows(tmp_path, rows))

    def test_the_largest_int64_relation_accepted(self, tmp_path):
        rows = [self._valid_row(relation=2**63 - 1, split=split) for split in ("train", "test")]
        assert ingest_dataset(self._write_rows(tmp_path, rows))[0].relations == (2**63 - 1,)

    def test_ragged_features_rejected(self, tmp_path):
        rows = [
            self._valid_row(),
            '{"task": 1, "relation": 0, "split": "test", "features": [1.0, 0.0, 0.0]}',
        ]
        with pytest.raises(DatasetFormatError, match=r"line 2"):
            ingest_dataset(self._write_rows(tmp_path, rows))

    def test_relation_in_two_tasks_rejected(self, tmp_path):
        rows = [
            self._valid_row(task=1, split="train"),
            self._valid_row(task=1, split="test"),
            self._valid_row(task=2, split="train"),
            self._valid_row(task=2, split="test"),
        ]
        with pytest.raises(DatasetFormatError, match="relation 0"):
            ingest_dataset(self._write_rows(tmp_path, rows))

    def test_non_contiguous_task_indices_rejected(self, tmp_path):
        rows = [
            self._valid_row(task=1, split="train"),
            self._valid_row(task=1, split="test"),
            self._valid_row(task=3, relation=1, split="train"),
            self._valid_row(task=3, relation=1, split="test"),
        ]
        with pytest.raises(DatasetFormatError, match="contiguous"):
            ingest_dataset(self._write_rows(tmp_path, rows))

    def test_missing_split_rejected(self, tmp_path):
        rows = [self._valid_row(split="train")]
        with pytest.raises(DatasetFormatError, match="test"):
            ingest_dataset(self._write_rows(tmp_path, rows))

    @pytest.mark.parametrize(
        "rows, message",
        [
            # once "task 1: task 1: relation 1 has no test samples", with no line
            (
                [(1, 0, "train"), (1, 1, "train"), (1, 0, "test"), (1, 2, "test")],
                "line 2: relation 1 of task 1 has no test rows",
            ),
            (
                [(1, 2, "test"), (1, 0, "train"), (1, 0, "test"), (1, 1, "train")],
                "line 1: relation 2 of task 1 has no train rows",
            ),
            # once "task 2 has no test samples"
            (
                [(1, 0, "train"), (1, 0, "test"), (2, 1, "train"), (2, 1, "train")],
                "line 3: relation 1 of task 2 has no test rows",
            ),
        ],
    )
    def test_a_relation_missing_a_split_is_named_at_its_first_line(self, tmp_path, rows, message):
        rows = [self._valid_row(task, relation, split) for task, relation, split in rows]
        with pytest.raises(DatasetFormatError, match=f"^{message}$"):
            ingest_dataset(self._write_rows(tmp_path, rows))

    def test_empty_file_rejected(self, tmp_path):
        path = tmp_path / "empty.jsonl"
        path.write_text("")
        with pytest.raises(DatasetFormatError, match="empty"):
            ingest_dataset(path)

    @pytest.mark.parametrize(
        "line, message",
        [
            ('{"task": 0, "relation": 1, "split": "train", "features": [1.0, 0.0]}',
             "task must be >= 1, got 0"),
            ('{"task": 1, "relation": -1, "split": "train", "features": [1.0, 0.0]}',
             "relation must be >= 0, got -1"),
            ('{"task": 1, "relation": 0, "split": "dev", "features": [1.0, 0.0]}',
             "split must be 'train' or 'test', got 'dev'"),
            ('{"task": 1, "relation": 0, "split": "test", "features": "x"}',
             "features must be a list, got 'x'"),
            ('{"task": 1, "relation": 0, "split": "test", "features": [true, 0.5]}',
             "features[0] must be a finite numeric value, got True"),
            ('{"task": 1, "relation": 0, "split": "test", "features": [1.0, NaN]}',
             "features[1] must be a finite numeric value, got nan"),
            ('{"task": 1, "relation": 0, "split": "test", "features": []}',
             "features must be a non-empty 1-D array, got shape (0,)"),
            ('{"task": 1, "relation": 0, "split": "test", "features": [1.0, null]}',
             "features[1] must be a finite numeric value, got None"),
            ('{"task": 1, "relation": 0, "split": "test", "features": [[1.0], 0.0]}',
             "features[0] must be a finite numeric value, got [1.0]"),
            ('{"task": 1, "relation": 0, "split": "test", "features": [-1' + "0" * 400 + ', 0.0]}',
             "features[0] must be a finite numeric value, got an integer of 401 digits"),
            ('{"task": 1, "relation": 0, "split": "test", "features": [1.0]}',
             "features has dimension 1, expected 2"),
            ('{"task": 2, "relation": 0, "split": "test", "features": [1.0, 0.0]}',
             "relation 0 appears in both task 1 and task 2"),
            ('{"task": 1, "relation": 0, "features": [1.0, 0.0]}', "missing key split"),
            ("[1, 2]", "the record must be an object, got [1, 2]"),
            ('{"task": "1", "relation": 0, "split": "test", "features": [1.0, 0.0]}',
             "task must be an integer, got '1'"),
            ('{"task": 1, "relation": 9223372036854775808, "split": "test", "features": [1.0]}',
             "relation must fit in an int64, got 9223372036854775808"),
            ('{"task": 1, "relation": 1' + "0" * 400 + ', "split": "test", "features": [1.0]}',
             "relation must fit in an int64, got an integer of 401 digits"),
            ('{"task": 1, "relation": -1' + "0" * 400 + ', "split": "test", "features": [1.0]}',
             "relation must fit in an int64, got an integer of 401 digits"),
            ('{"task": 1' + "0" * 400 + ', "relation": 1, "split": "test", "features": [1.0]}',
             "task must fit in an int64, got an integer of 401 digits"),
        ],
    )
    def test_each_rule_names_its_line_with_the_exact_message(self, tmp_path, line, message):
        path = self._write_rows(tmp_path, [self._valid_row(), line])
        with pytest.raises(DatasetFormatError) as info:
            ingest_dataset(path)
        assert info.type is DatasetFormatError and str(info.value) == f"line 2: {message}"

    @pytest.mark.parametrize(
        "tasks, message",
        [
            # once a 0-byte file
            ((), "cannot write an empty stream"),
            # once files the parser refused, or (2, 1) read back as (1, 2)
            (((1, 0), (2, 0)), "relation 0 appears in both task 1 and task 2"),
            (((1, 0), (3, 1)), "tasks must run 1..n in order: expected task 2, got 3"),
            (((1, 0, 3), (2, 1, 4)), "task 2 has feature dimension 4, expected 3"),
            (((2, 0), (1, 1)), "tasks must run 1..n in order: expected task 1, got 2"),
        ],
    )
    def test_a_stream_the_parser_refuses_is_not_written(self, tmp_path, tasks, message):
        def task(index, relation, width=2):
            x = np.ones((1, width))
            return Task(index, x, [relation], x, [relation])

        path = tmp_path / "data.jsonl"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            write_dataset(tuple(task(*t) for t in tasks), path)
        assert not path.exists()


def assert_stream_rules(stream, spec):
    """The rules that every stream producer keeps."""
    assert [task.index for task in stream] == list(range(1, spec.n_tasks + 1))
    relations = [rel for task in stream for rel in task.relations]
    assert len(relations) == len(set(relations)) == spec.n_relations
    assert {task.feature_dim for task in stream} == {spec.feature_dim}


small_specs = st.builds(
    SyntheticSpec,
    n_tasks=st.integers(1, 4),
    n_way=st.integers(1, 3),
    shots=st.integers(1, 3),
    test_per_relation=st.integers(1, 3),
    feature_dim=st.integers(3, 6),
    cluster_separation=st.floats(0.05, 0.3),
    task1_oversample=st.integers(1, 4),
    seed=st.integers(0, 2**16),
)


class TestStreamRules:
    @given(spec=small_specs)
    @settings(max_examples=40)
    def test_generated_and_parsed_streams_keep_the_stream_rules(self, tmp_path_factory, spec):
        stream, _ = generate_stream(spec)
        path = tmp_path_factory.mktemp("stream") / "data.jsonl"
        write_dataset(stream, path)
        assert_stream_rules(stream, spec)
        assert_stream_rules(ingest_dataset(path), spec)


class TestLearnability:
    """The generator must produce streams whose difficulty tracks the noise."""

    def _frozen_encoder_accuracy(self, noise, seed):
        # nearest-class-mean in raw feature space: no training involved, so
        # accuracy reflects the intrinsic cluster overlap
        spec = dataclasses.replace(
            SMALL, n_tasks=2, within_class_noise=noise, seed=seed
        )
        stream, _ = generate_stream(spec)
        means = {}
        for task in stream:
            for rel in task.relations:
                means[rel] = task.train_x[task.train_y == rel].mean(axis=0)
        hits, total = 0, 0
        for task in stream:
            for row, rel in zip(task.test_x, task.test_y):
                pred = min(means, key=lambda r: float(np.linalg.norm(row - means[r])))
                hits += int(pred == int(rel))
                total += 1
        return hits / total

    def test_zero_noise_is_perfectly_separable(self):
        assert self._frozen_encoder_accuracy(0.0, seed=0) == 1.0

    def test_accuracy_decays_with_noise(self):
        levels = [0.05, 0.2, 0.45]
        means = []
        for noise in levels:
            accs = [self._frozen_encoder_accuracy(noise, seed) for seed in range(5)]
            means.append(sum(accs) / len(accs))
        assert means[0] >= means[1] >= means[2]
        assert means[0] > means[2]  # strictly easier at the extremes
