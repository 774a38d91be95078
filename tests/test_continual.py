"""Task lifecycle: memory selection, prototypes, replay, checkpoints."""

import gc
import json
import logging
import weakref

import numpy as np
import pytest

import fcre.continual as continual
import fcre.losses as losses
from fcre.continual import (
    ContinualState,
    MemoryBuffer,
    ProtocolError,
    Prototypes,
    Task,
    TaskStream,
    _epoch_batches,
    _train,
    build_prototypes,
    init_state,
    read_checkpoint,
    run_task,
    select_memory,
    write_checkpoint,
)
from fcre.descriptions import DescriptionSet, synth_descriptions
from fcre.encoder import BilinearForm, encode, encode_batch
from fcre.inference import evaluate
from fcre.losses import HyperParams

HP = HyperParams(epochs_current=2, epochs_memory=2)


def make_task(index, relations, rng, feature_dim=6, shots=4, test_n=3):
    rels = list(relations)
    train_x, train_y, test_x, test_y = [], [], [], []
    for rel in rels:
        center = rng.normal(size=feature_dim)
        center /= np.linalg.norm(center)
        train_x.append(center + 0.05 * rng.normal(size=(shots, feature_dim)))
        train_y.extend([rel] * shots)
        test_x.append(center + 0.05 * rng.normal(size=(test_n, feature_dim)))
        test_y.extend([rel] * test_n)
    return Task(
        index=index,
        train_x=np.concatenate(train_x),
        train_y=np.array(train_y),
        test_x=np.concatenate(test_x),
        test_y=np.array(test_y),
    )


def make_descriptions(relations, embed_dim, seed=0, k_desc=2):
    rng = np.random.default_rng(seed + 100)
    centers = {r: rng.normal(size=embed_dim) for r in relations}
    return synth_descriptions(seed, centers, k_desc=k_desc, spread=0.1)


def fresh_state(seed=0, feature_dim=6, hidden_dim=8, embed_dim=4):
    return init_state(feature_dim, hidden_dim, embed_dim, seed)


def record_layouts(monkeypatch):
    """A list to which ``_Layout.of_rows`` appends each layout it builds from now on."""
    built = []
    real = losses._Layout.of_rows

    def building(table_row, table, norms, unit):
        built.append(real(table_row, table, norms, unit))
        return built[-1]

    monkeypatch.setattr(losses._Layout, "of_rows", staticmethod(building))
    return built


def stored(memory, rel):
    """The memory rows of one relation."""
    return memory.features[memory.labels == rel]


class TestTaskValidation:
    def test_relations_sorted_and_deduped(self):
        rng = np.random.default_rng(42)
        assert make_task(1, [3, 1], rng).relations == (1, 3)
        # the distinct train labels in ascending order, as Python ints
        task = Task(1, np.ones((5, 2)), np.array([9, 2, 9, 5, 2]), np.ones((3, 2)), np.array([5, 9, 2]))
        assert task.relations == (2, 5, 9) and all(type(r) is int for r in task.relations)

    def test_labels_outside_relations_rejected(self):
        # a test label that no train sample carries is not one of the task's relations
        rng = np.random.default_rng(42)
        base = make_task(1, [0, 1], rng)
        test_y = base.test_y.copy()
        test_y[-1] = 2
        with pytest.raises(ValueError, match=r"^task 1: relation 2 has no train samples$"):
            Task(1, base.train_x, base.train_y, base.test_x, test_y)

    def test_empty_test_pool_rejected(self):
        with pytest.raises(ValueError, match="non-empty"):
            Task(
                1,
                np.ones((2, 3)),
                np.zeros(2, dtype=int),
                np.empty((0, 3)),
                np.empty(0, dtype=int),
            )

    def test_relation_without_test_samples_rejected(self):
        with pytest.raises(ValueError, match="relation 1 has no test samples"):
            Task(
                1,
                np.ones((2, 3)),
                np.array([0, 1]),
                np.ones((2, 3)),
                np.array([0, 0]),
            )

    def test_relation_without_train_samples_rejected(self):
        with pytest.raises(ValueError, match="relation 1 has no train samples"):
            Task(
                1,
                np.ones((2, 3)),
                np.array([0, 0]),
                np.ones((2, 3)),
                np.array([0, 1]),
            )

    def test_the_lowest_relation_in_one_split_only_is_named(self):
        # 3 has no test samples and 2 no train samples: 2 is the lower id
        with pytest.raises(ValueError, match=r"^task 4: relation 2 has no train samples$"):
            Task(4, np.ones((2, 3)), np.array([0, 3]), np.ones((2, 3)), np.array([2, 0]))

    @pytest.mark.parametrize(
        "train_y, test_y, pattern",
        [
            ([1.0, 2.0], [1, 2], r"^train_y must hold integers, got dtype float64$"),
            ([0, 1], [False, True], r"^test_y must hold integers, got dtype bool$"),
            ([1, 2], np.array([1, 2], dtype=object), r"^test_y must hold integers, got dtype object$"),
        ],
    )
    def test_non_integer_labels_rejected(self, train_y, test_y, pattern):
        # each was once cast to int64 labels: [2.5, 3.7] became [2, 3]
        with pytest.raises(ValueError, match=pattern):
            Task(1, np.ones((2, 3)), train_y, np.ones((2, 3)), test_y)

    @pytest.mark.parametrize("labels, shown", [([True, 2], "True"), ([3, np.False_], "np.False_")])
    def test_a_bool_among_integer_labels_is_rejected(self, labels, shown):
        # [True, 2] was stored as labels [1, 2]; a memory append and a Batch read it alike
        x = np.ones((2, 3))
        for name, build in (
            ("train_y", lambda: Task(1, x, labels, x, [1, 2])),
            ("test_y", lambda: Task(1, x, [1, 2], x, labels)),
            ("memory labels", lambda: MemoryBuffer(2).append(x[:, :2], labels)),
            ("labels", lambda: losses.Batch(z=np.eye(2), labels=labels, descriptions=np.ones((2, 1, 2)))),
        ):
            with pytest.raises(ValueError, match=rf"^{name} must hold integers, got {shown}$"):
                build()

    def test_integers_of_any_width_accepted(self):
        task = Task(
            1,
            np.ones((2, 3)),
            np.array([1, 2], dtype=np.uint16),
            np.ones((2, 3)),
            np.array([2, 1], dtype=np.int8),
        )
        assert task.relations == (1, 2) and all(type(r) is int for r in task.relations)
        assert task.train_y.dtype == task.test_y.dtype == np.int64
        np.testing.assert_array_equal(task.test_y, [2, 1])

    @pytest.mark.parametrize(
        "train_y, shown",
        [
            (np.array([0, 2**63], dtype=np.uint64), "9223372036854775808"),
            ([2**63], "9223372036854775808"),  # NumPy makes this list uint64
            ([0, 2**63], "9223372036854775808"),  # and this one float64
            (np.array([2**64 - 1], dtype=np.uint64), "18446744073709551615"),
        ],
    )
    def test_labels_beyond_int64_rejected(self, train_y, shown):
        # np.array([0, 2**63], dtype=np.uint64) was once taken as labels 0 and -2**63
        with pytest.raises(ValueError, match=rf"^train_y must fit in an int64, got {shown}$"):
            Task(1, np.ones((len(train_y), 3)), train_y, np.ones((1, 3)), [0])

    def test_the_largest_int64_label_accepted(self):
        labels = np.array([2**63 - 1], dtype=np.uint64)
        task = Task(1, np.ones((1, 3)), labels, np.ones((1, 3)), labels)
        assert task.relations == (2**63 - 1,)

    def test_index_must_be_positive(self):
        rng = np.random.default_rng(42)
        base = make_task(1, [0], rng)
        with pytest.raises(ValueError, match="task index"):
            Task(0, base.train_x, base.train_y, base.test_x, base.test_y)

    @pytest.mark.parametrize(
        "index, shown", [(1.0, r"1\.0"), (np.float64(1.0), r"1\.0"), (True, "True"), ("1", "'1'")]
    )
    def test_non_integer_index_rejected(self, index, shown):
        # 1.0 was once accepted, and a run then failed after its first task
        # when the checkpoint name formatted it with ":02d"
        with pytest.raises(ValueError, match=rf"^task index must be an integer, got {shown}$"):
            Task(index, np.ones((1, 3)), [0], np.ones((1, 3)), [0])

    def test_numpy_integer_index_stored_as_python_int(self):
        task = Task(np.int64(2), np.ones((1, 3)), [0], np.ones((1, 3)), [0])
        assert task.index == 2 and type(task.index) is int


class TestTaskStream:
    def test_valid_stream(self):
        rng = np.random.default_rng(42)
        stream = TaskStream(tasks=(make_task(1, [0, 1], rng), make_task(2, [2, 3], rng)))
        assert stream.n_tasks == 2
        assert stream.relations == (0, 1, 2, 3)
        assert stream.feature_dim == 6

    def test_non_contiguous_indices_rejected(self):
        rng = np.random.default_rng(42)
        with pytest.raises(ValueError, match="contiguous from 1"):
            TaskStream(tasks=(make_task(1, [0], rng), make_task(3, [1], rng)))

    def test_shared_relations_rejected(self):
        rng = np.random.default_rng(42)
        with pytest.raises(ValueError, match="reuses relations"):
            TaskStream(tasks=(make_task(1, [0], rng), make_task(2, [0], rng)))

    def test_mixed_feature_dims_rejected(self):
        rng = np.random.default_rng(42)
        with pytest.raises(ValueError, match="feature dim"):
            TaskStream(
                tasks=(
                    make_task(1, [0], rng, feature_dim=6),
                    make_task(2, [1], rng, feature_dim=7),
                )
            )


class TestMemoryBuffer:
    def test_append_only(self):
        buf = MemoryBuffer(4)
        buf.append(np.ones((2, 4)), [3, 3])
        with pytest.raises(ProtocolError, match="relation 3 .* append-only"):
            buf.append(np.zeros((2, 4)), [4, 3])
        assert buf.total_samples == 2  # a rejected append stores nothing

    @pytest.mark.parametrize(
        "labels, dtype", [([0.9], "float64"), ([True], "bool"), (np.array([7], dtype=object), "object")]
    )
    def test_non_integer_labels_rejected(self, labels, dtype):
        # [0.9] was once stored as label 0
        buf = MemoryBuffer(2)
        with pytest.raises(ValueError, match=rf"^memory labels must hold integers, got dtype {dtype}$"):
            buf.append(np.ones((1, 2)), labels)
        assert buf.total_samples == 0

    def test_labels_beyond_int64_rejected(self):
        # 2**64 - 1 was once stored as label -1
        buf = MemoryBuffer(2)
        with pytest.raises(ValueError, match=r"^memory labels must fit in an int64, got 18446744073709551615$"):
            buf.append(np.ones((1, 2)), np.array([2**64 - 1], dtype=np.uint64))
        assert buf.total_samples == 0

    def test_integer_labels_of_any_width_accepted(self):
        buf = MemoryBuffer(2)
        buf.append(np.ones((2, 2)), np.array([4, 1], dtype=np.uint8))
        assert buf.labels.dtype == np.int64 and buf.relations == (4, 1)

    @pytest.mark.parametrize(
        "feature_dim, message",
        [
            (0, r"^feature_dim must be >= 1, got 0$"),  # was accepted
            (-1, r"^feature_dim must be >= 1, got -1$"),  # NumPy's negative-dimensions error
            (2.5, r"^feature_dim must be an integer, got 2\.5$"),  # NumPy's TypeError
            (True, r"^feature_dim must be an integer, got True$"),
        ],
    )
    def test_feature_dim_is_checked(self, feature_dim, message):
        with pytest.raises(ValueError, match=message):
            MemoryBuffer(feature_dim)
        assert MemoryBuffer(np.int64(3)).features.shape == (0, 3)

    def test_insertion_order_preserved(self):
        buf = MemoryBuffer(2)
        buf.append(np.ones((1, 2)), [5])
        buf.append(np.full((3, 2), 2.0), [2, 9, 2])
        assert buf.relations == (5, 2, 9)
        np.testing.assert_array_equal(buf.labels, [5, 2, 9, 2])
        np.testing.assert_array_equal(buf.features[:, 0], [1.0, 2.0, 2.0, 2.0])
        assert buf.total_samples == 4

    def test_stacked_excludes_requested_relations(self, monkeypatch):
        # replay stacks the memory of earlier tasks, never the current task's picks
        pools = []
        real = continual._train

        def recording(state, x, y, *args, **kwargs):
            pools.append((kwargs["phase"], x.copy(), y.copy()))
            return real(state, x, y, *args, **kwargs)

        monkeypatch.setattr(continual, "_train", recording)
        hp = HyperParams(epochs_current=1, epochs_memory=1, memory_size=2)
        state = fresh_state()
        rng = np.random.default_rng(3)
        for t in (1, 2, 3):
            rels = [2 * t + 1, 2 * t]
            before_x, before_y = state.memory.features, state.memory.labels
            task = make_task(t, rels, rng)
            run_task(state, task, make_descriptions(rels, 4, seed=t), hp)
            phase, x, y = pools[-1]
            assert phase == "replay" and before_y.size == 4 * (t - 1)
            np.testing.assert_array_equal(x, np.concatenate([before_x, task.train_x]))
            np.testing.assert_array_equal(y, np.concatenate([before_y, task.train_y]))

    def test_stacked_empty(self):
        # memory is always one stacked matrix; empty, it keeps its width
        buf = MemoryBuffer(3)
        assert buf.features.shape == (0, 3) and buf.labels.shape == (0,)
        assert buf.relations == () and buf.total_samples == 0
        with pytest.raises(ValueError, match="dimension 2, expected 3"):
            buf.append(np.ones((1, 2)), [0])
        with pytest.raises(ValueError, match="labels do not match"):
            buf.append(np.ones((2, 3)), [0])

    def test_stored_features_copied(self):
        buf = MemoryBuffer(2)
        block = np.ones((1, 2))
        buf.append(block, [0])
        block[0, 0] = 99.0
        assert buf.features[0, 0] == 1.0

    def test_entries_never_change_across_tasks(self):
        # the buffer only grows: earlier blocks stay bitwise intact
        rng = np.random.default_rng(42)
        hp = HyperParams(epochs_current=1, epochs_memory=1, memory_size=2)
        state = fresh_state()
        snapshots = {}
        for t in range(1, 4):
            rels = [2 * (t - 1), 2 * t - 1]
            task = make_task(t, rels, rng)
            descriptions = make_descriptions(rels, 4, seed=t)
            run_task(state, task, descriptions, hp, heads=("ncm",))
            for rel in state.memory.relations:
                rows = stored(state.memory, rel)
                if rel in snapshots:
                    np.testing.assert_array_equal(rows, snapshots[rel])
                else:
                    snapshots[rel] = rows
        assert len(snapshots) == 6


class TestSelectMemory:
    def test_keeps_most_central_sample(self):
        # embeddings 0, 1, 10 have centroid 11/3; sample 1 is nearest
        samples = {0: np.array([[0.0], [1.0], [10.0]])}
        kept = select_memory(samples, lambda row: row, memory_size=1)
        np.testing.assert_array_equal(kept[0], [[1.0]])

    def test_distance_tie_prefers_lower_index(self):
        samples = {0: np.array([[-1.0], [1.0]])}  # both 1 away from centroid 0
        kept = select_memory(samples, lambda row: row, memory_size=1)
        np.testing.assert_array_equal(kept[0], [[-1.0]])

    def test_small_relations_keep_everything(self):
        samples = {0: np.array([[1.0], [2.0]])}
        kept = select_memory(samples, lambda row: row, memory_size=5)
        assert kept[0].shape == (2, 1)

    def test_selection_uses_embedding_space(self):
        # the encoder flips sign of the second coordinate's contribution,
        # changing which sample is central
        samples = {0: np.array([[0.0, 3.0], [1.0, 0.0], [2.0, 0.0]])}

        def encode_fn(row):
            return np.array([row[0]])  # drop the second feature entirely

        kept = select_memory(samples, encode_fn, memory_size=1)
        np.testing.assert_array_equal(kept[0], [[1.0, 0.0]])  # central in x only

    def test_matches_brute_force(self):
        from fcre.geometry import euclidean

        rng = np.random.default_rng(42)
        for _ in range(25):
            n_rel = int(rng.integers(1, 4))
            samples = {
                int(r): rng.normal(size=(int(rng.integers(1, 8)), 3))
                for r in rng.choice(20, size=n_rel, replace=False)
            }
            size = int(rng.integers(1, 4))
            proj = rng.normal(size=(3, 2))
            encode_fn = lambda row: row @ proj
            kept = select_memory(samples, encode_fn, size)
            assert sorted(kept) == sorted(samples)
            for rel, block in samples.items():
                emb = np.stack([encode_fn(row) for row in block])
                centroid = emb.mean(axis=0)
                dists = [euclidean(e, centroid) for e in emb]
                order = sorted(range(len(dists)), key=lambda i: (dists[i], i))
                expected = block[order[: min(size, len(dists))]]
                np.testing.assert_array_equal(kept[rel], expected)

    @pytest.mark.parametrize("key, shown", [(2.5, r"2\.5"), (True, "True"), ("7", "'7'")])
    def test_a_relation_id_that_is_not_an_integer_is_rejected(self, key, shown):
        # {2.5: rows, 7: rows} came back keyed [2, 7]
        samples = {key: np.ones((2, 3)), 9: np.ones((2, 3))}
        with pytest.raises(ValueError, match=rf"^relation id must be an integer, got {shown}$"):
            select_memory(samples, lambda row: row, 1)

    def test_numpy_integer_ids_come_back_as_python_ints(self):
        kept = select_memory({np.int64(4): np.ones((2, 3)), np.uint8(1): np.ones((1, 3))}, lambda r: r, 1)
        assert list(kept) == [1, 4]
        assert all(type(rel) is int for rel in kept)

    def test_rejects_bad_arguments(self):
        with pytest.raises(ValueError, match="memory_size"):
            select_memory({0: np.ones((1, 2))}, lambda r: r, 0)
        # 1.5 kept two rows per relation and True one; "2" raised a TypeError
        for size, shown in ((1.5, r"1\.5"), (True, "True"), ("2", "'2'")):
            with pytest.raises(ValueError, match=rf"^memory_size must be an integer, got {shown}$"):
                select_memory({0: np.ones((3, 2))}, lambda r: r, size)
        assert select_memory({0: np.eye(3)}, lambda r: r, np.int64(2))[0].shape == (2, 3)
        with pytest.raises(ValueError, match="no relations"):
            select_memory({}, lambda r: r, 1)


class TestBuildPrototypes:
    def test_mean_of_encoded_memory(self):
        buf = MemoryBuffer(2)
        buf.append(np.array([[1.0, 0.0], [3.0, 0.0]]), [0, 0])
        protos = build_prototypes(buf, lambda row: row * 2.0)
        np.testing.assert_array_equal(protos.relations, [0])
        np.testing.assert_allclose(protos.vectors, [[4.0, 0.0]])

    def test_idempotent_bitwise(self):
        rng = np.random.default_rng(42)
        buf = MemoryBuffer(5)
        buf.append(rng.normal(size=(3, 5)), [0, 0, 0])
        buf.append(rng.normal(size=(2, 5)), [1, 1])
        state = fresh_state(feature_dim=5)
        fn = lambda rows: encode_batch(state.encoder, rows)
        a = build_prototypes(buf, fn)
        b = build_prototypes(buf, fn)
        np.testing.assert_array_equal(a.relations, b.relations)
        np.testing.assert_array_equal(a.vectors, b.vectors)

    def test_store_is_mapping_like(self):
        # rows follow ascending relation ids, whatever the memory's order
        buf = MemoryBuffer(2)
        buf.append(np.ones((2, 2)), [3, 3])
        buf.append(np.zeros((1, 2)), [1])
        store = build_prototypes(buf, lambda rows: rows)
        np.testing.assert_array_equal(store.relations, [1, 3])
        np.testing.assert_array_equal(store.vectors, [[0.0, 0.0], [1.0, 1.0]])
        for relations in ([3, 1], [1, 1]):
            with pytest.raises(ValueError, match="ascending"):
                Prototypes(np.array(relations), np.ones((2, 2)))
        with pytest.raises(ValueError, match="one prototype row per relation"):
            Prototypes(np.array([1, 3]), np.ones((3, 2)))
        for relations in ([1, 2], []):  # zero-width rows were accepted
            with pytest.raises(ValueError, match=r"of width >= 1, got shape \(\d, 0\)"):
                Prototypes(np.array(relations, dtype=np.int64), np.zeros((len(relations), 0)))
        with pytest.raises(ValueError, match="memory is empty"):
            build_prototypes(MemoryBuffer(2), lambda rows: rows)

    @pytest.mark.parametrize(
        "relations, message",
        [
            ([2.5, 3.9], r"^relation id must be an integer, got 2\.5$"),  # was stored as [2, 3]
            ([True, 2], r"^relation id must be an integer, got True$"),  # was stored as [1, 2]
            (  # was stored as -9223372036854775803
                np.array([2**63 + 5], dtype=np.uint64),
                r"^prototype relations must fit in an int64, got 9223372036854775813$",
            ),
        ],
    )
    def test_relation_ids_are_checked_not_truncated(self, relations, message):
        with pytest.raises(ValueError, match=message):
            Prototypes(relations, np.ones((len(relations), 2)))
        assert Prototypes([], np.zeros((0, 2))).relations.dtype == np.int64


class TestEpochBatches:
    def test_small_pool_is_one_full_batch(self):
        rng = np.random.default_rng(0)
        batches = _epoch_batches(10, rng)
        assert len(batches) == 1
        np.testing.assert_array_equal(batches[0], np.arange(10))
        assert len(_epoch_batches(64, rng)) == 1

    def test_straggler_folded_into_last_batch(self):
        rng = np.random.default_rng(0)
        batches = _epoch_batches(65, rng)
        assert sorted(b.size for b in batches) == [32, 33]
        covered = np.sort(np.concatenate(batches))
        np.testing.assert_array_equal(covered, np.arange(65))

    def test_exact_multiple_keeps_uniform_batches(self):
        rng = np.random.default_rng(0)
        batches = _epoch_batches(96, rng)
        assert [b.size for b in batches] == [32, 32, 32]

    def test_shuffle_is_seeded(self):
        a = _epoch_batches(100, np.random.default_rng(5))
        b = _epoch_batches(100, np.random.default_rng(5))
        for x, y in zip(a, b):
            np.testing.assert_array_equal(x, y)


class TestTrainDescriptionTable:
    """``_train`` gathers each minibatch's descriptions from a per-pool table."""

    def recorded_batches(self, monkeypatch, labels):
        """Each step's labels and each sample's description block, as its class holds it."""
        state = fresh_state()
        state.descriptions = make_descriptions([2, 5, 9, 14], 4, k_desc=3)
        batches = []
        real = continual._epoch_batches

        def drawing(n, rng):
            epoch = real(n, rng)
            batches.extend(epoch)
            return epoch

        built = record_layouts(monkeypatch)
        monkeypatch.setattr(continual, "_epoch_batches", drawing)
        x = np.random.default_rng(1).normal(size=(labels.size, 6))
        _train(state, x, labels, HP, 2, task_index=1, phase="current")
        seen = [(labels[idx], layout.class_desc[layout.class_of])
                for idx, layout in zip(batches, built, strict=True)]
        return state.descriptions, seen

    def test_matches_per_sample_lookup(self, monkeypatch):
        # non-contiguous ids, one registered relation (5) absent from the
        # pool, and 70 samples: three shuffled minibatches per epoch
        labels = np.random.default_rng(0).choice([14, 2, 9], size=70)
        descriptions, seen = self.recorded_batches(monkeypatch, labels)
        assert len(seen) == 6
        for batch_labels, block in seen:
            expected = np.stack([descriptions.vectors(rel) for rel in batch_labels])
            np.testing.assert_array_equal(block, expected)

    def test_relation_without_descriptions_raises(self):
        state = fresh_state()
        state.descriptions = make_descriptions([2, 9], 4)
        before = state.encoder.to_vector().copy()
        labels = np.array([2, 9, 12, 2, 9, 12])
        x = np.random.default_rng(1).normal(size=(labels.size, 6))
        with pytest.raises(KeyError, match=r"^'unknown relation 12'$"):
            _train(state, x, labels, HP, 1, task_index=1, phase="current")
        np.testing.assert_array_equal(state.encoder.to_vector(), before)

    def test_a_one_sample_pool_warns_and_trains_nothing(self, caplog):
        state = fresh_state()
        state.descriptions = make_descriptions([2], 4)
        encoder, bilinear, optimizer = state.encoder, state.bilinear, state.optimizer
        before = [encoder.to_vector(), bilinear.matrix, optimizer.m, optimizer.v]
        before = [a.copy() for a in before]
        with caplog.at_level(logging.WARNING, logger="fcre.continual"):
            _train(state, np.ones((1, 6)), np.array([2]), HP, 3, task_index=1, phase="current")
        assert "training pool has a single sample; nothing to contrast, skipping" in caplog.messages
        assert state.encoder is encoder and state.bilinear is bilinear and state.optimizer is optimizer
        after = [encoder.to_vector(), bilinear.matrix, optimizer.m, optimizer.v]
        assert all(np.array_equal(a, b) for a, b in zip(after, before, strict=True))
        assert optimizer.step_count == 0


class TestRunTaskProtocol:
    def setup_method(self):
        self.rng = np.random.default_rng(42)
        self.state = fresh_state()
        self.task1 = make_task(1, [0, 1], self.rng)
        self.task2 = make_task(2, [2, 3], self.rng)
        self.descriptions = make_descriptions([0, 1, 2, 3], 4)

    def test_out_of_order_task_rejected(self):
        with pytest.raises(ProtocolError, match="expected task 1"):
            run_task(self.state, self.task2, self.descriptions, HP)

    def test_repeated_relations_rejected(self):
        run_task(self.state, self.task1, self.descriptions, HP)
        again = make_task(2, [1, 4], self.rng)
        descriptions = self.descriptions.union(make_descriptions([4], 4, seed=9))
        with pytest.raises(ProtocolError, match="already-seen"):
            run_task(self.state, again, descriptions, HP)

    def test_missing_descriptions_rejected(self):
        with pytest.raises(ProtocolError, match="missing for relations"):
            run_task(self.state, self.task1, make_descriptions([0], 4), HP)

    def test_feature_dim_mismatch_rejected(self):
        wide = make_task(1, [0, 1], self.rng, feature_dim=9)
        with pytest.raises(ValueError, match="dimension 9"):
            run_task(self.state, wide, self.descriptions, HP)

    def test_description_dim_mismatch_rejected(self):
        bad = make_descriptions([0, 1], 5)
        with pytest.raises(ValueError, match="does not match"):
            run_task(self.state, bad and make_task(1, [0, 1], self.rng), bad, HP)

    def test_unknown_head_rejected(self):
        with pytest.raises(ValueError, match="unknown head"):
            run_task(self.state, self.task1, self.descriptions, HP, heads=("knn",))

    def test_wrong_sized_w_rejected_before_the_state_changes(self):
        state = self.state
        state.bilinear = BilinearForm(np.eye(3))  # the encoder embeds into 4 dims
        encoder, optimizer = state.encoder.to_vector(), state.optimizer
        rng = state.rng.bit_generator.state
        with pytest.raises(ValueError, match=r"^W must be \(4, 4\), got \(3, 3\)$"):
            run_task(state, self.task1, self.descriptions, HP)
        np.testing.assert_array_equal(state.encoder.to_vector(), encoder)
        np.testing.assert_array_equal(state.bilinear.matrix, np.eye(3))
        assert state.optimizer is optimizer and state.rng.bit_generator.state == rng
        assert len(state.descriptions) == 0 and state.memory.total_samples == 0
        assert state.completed_tasks == [] and state.report.rows == []


class TestRunTaskBehavior:
    def run_stream(self, state, hp, n_tasks=3, heads=("ncm", "dri"), seed=42):
        rng = np.random.default_rng(seed)
        for t in range(1, n_tasks + 1):
            rels = [2 * (t - 1), 2 * t - 1]
            task = make_task(t, rels, rng)
            descriptions = make_descriptions(rels, state.encoder.embed_dim, seed=t)
            run_task(state, task, descriptions, hp, heads=heads)
        return state

    def test_state_bookkeeping(self):
        state = self.run_stream(fresh_state(), HP)
        assert state.seen_relations == (0, 1, 2, 3, 4, 5)
        assert state.memory.relations == (0, 1, 2, 3, 4, 5)
        assert state.prototypes.relations.tolist() == [0, 1, 2, 3, 4, 5]
        assert state.descriptions.relations == (0, 1, 2, 3, 4, 5)
        # one row per head per task, cumulative accuracy vectors grow
        assert len(state.report.rows) == 6
        for row in state.report.rows:
            assert len(row.acc_per_task) == row.task_index

    def test_memory_keeps_l_per_relation(self):
        hp = HyperParams(epochs_current=1, epochs_memory=1, memory_size=2)
        state = self.run_stream(fresh_state(), hp)
        for rel in state.memory.relations:
            assert stored(state.memory, rel).shape == (2, 6)

    def test_prototypes_match_final_encoder(self):
        state = self.run_stream(fresh_state(), HP)
        rebuilt = build_prototypes(state.memory, lambda rows: encode_batch(state.encoder, rows))
        np.testing.assert_array_equal(rebuilt.relations, state.prototypes.relations)
        np.testing.assert_array_equal(rebuilt.vectors, state.prototypes.vectors)

    def test_zero_epochs_leaves_encoder_untouched(self):
        hp = HyperParams(epochs_current=0, epochs_memory=0)
        state = fresh_state()
        before = state.encoder.to_vector().copy()
        w_before = state.bilinear.matrix.copy()
        state = self.run_stream(state, hp, n_tasks=2)
        np.testing.assert_array_equal(state.encoder.to_vector(), before)
        np.testing.assert_array_equal(state.bilinear.matrix, w_before)

    def test_zero_epoch_metrics_equal_frozen_encoder_evaluation(self):
        hp = HyperParams(epochs_current=0, epochs_memory=0)
        state = self.run_stream(fresh_state(), hp, n_tasks=2, heads=("ncm",))
        # recompute by hand with the frozen encoder
        protos = dict(zip(state.prototypes.relations.tolist(), state.prototypes.vectors))
        for row in state.report.rows:
            for i in range(1, row.task_index + 1):
                task = state.completed_tasks[i - 1]
                hits = 0
                for x_row, y in zip(task.test_x, task.test_y):
                    z = encode(state.encoder, x_row)
                    pred = min(
                        sorted(protos),
                        key=lambda r: (float(np.linalg.norm(z - protos[r])), r),
                    )
                    hits += int(pred == int(y))
                np.testing.assert_allclose(
                    row.acc_per_task[i], hits / task.test_y.size, rtol=1e-12
                )

    def test_run_task_trains_at_its_own_learning_rate(self):
        task = make_task(1, [0, 1], np.random.default_rng(42))
        trained = []
        for rate in (1e-3, 0.5):
            state = fresh_state()
            run_task(state, task, make_descriptions([0, 1], 4), HyperParams(learning_rate=rate))
            trained.append(state.encoder.to_vector())
        assert not np.array_equal(*trained)

    def test_same_seed_reproduces_run_bitwise(self):
        a = self.run_stream(fresh_state(seed=3), HP)
        b = self.run_stream(fresh_state(seed=3), HP)
        np.testing.assert_array_equal(a.encoder.to_vector(), b.encoder.to_vector())
        np.testing.assert_array_equal(a.bilinear.matrix, b.bilinear.matrix)
        assert len(a.report.rows) == len(b.report.rows)
        for ra, rb in zip(a.report.rows, b.report.rows):
            assert ra == rb

    def test_different_seeds_diverge(self):
        a = self.run_stream(fresh_state(seed=3), HP)
        b = self.run_stream(fresh_state(seed=4), HP)
        assert not np.array_equal(a.encoder.to_vector(), b.encoder.to_vector())

    def test_evaluation_is_order_independent(self):
        state = self.run_stream(fresh_state(), HP, n_tasks=2, heads=("ncm",))
        # permute the last task's test pool and re-evaluate
        last = state.completed_tasks[-1]
        perm = np.random.default_rng(0).permutation(last.test_y.size)
        shuffled = Task(
            index=last.index,
            train_x=last.train_x,
            train_y=last.train_y,
            test_x=last.test_x[perm],
            test_y=last.test_y[perm],
        )
        baseline = evaluate(state, 2, ("ncm",), HP)
        state.completed_tasks[-1] = shuffled
        permuted = evaluate(state, 2, ("ncm",), HP)
        assert baseline == permuted

    @pytest.mark.parametrize("shots, memory_size", [(5, 3), (100, 10)])
    def test_memory_picks_match_per_row_selection(self, shots, memory_size):
        # no replay epochs, so the final encoder is the one that selected
        hp = HyperParams(epochs_current=1, epochs_memory=0, memory_size=memory_size)
        state = fresh_state()
        rng = np.random.default_rng(7)
        for t in (1, 2):
            rels = [2 * t, 2 * t + 1, 2 * t + 7]
            task = make_task(t, rels, rng, shots=shots)
            run_task(state, task, make_descriptions(rels, 4, seed=t), hp)
            expected = select_memory(
                {r: task.train_x[task.train_y == r] for r in rels},
                lambda row: encode(state.encoder, row),
                memory_size,
            )
            for rel in rels:
                np.testing.assert_array_equal(stored(state.memory, rel), expected[rel])


class TestCheckpoint:
    def test_round_trip_restores_live_objects(self, tmp_path):
        rng = np.random.default_rng(42)
        state = fresh_state()
        task = make_task(1, [0, 1], rng)
        run_task(state, task, make_descriptions([0, 1], 4), HP)
        path = tmp_path / "task_01.json"
        write_checkpoint(path, state)
        loaded = read_checkpoint(path)
        assert loaded.keys() == {"task_index", "encoder", "bilinear", "memory"}
        assert loaded["task_index"] == 1
        np.testing.assert_array_equal(
            loaded["encoder"].to_vector(), state.encoder.to_vector()
        )
        np.testing.assert_array_equal(
            loaded["bilinear"].matrix, state.bilinear.matrix
        )
        np.testing.assert_array_equal(loaded["memory"].labels, state.memory.labels)
        np.testing.assert_array_equal(loaded["memory"].features, state.memory.features)

    def test_a_state_rebuilt_from_a_checkpoint_writes_the_same_checkpoint(self, tmp_path):
        rng = np.random.default_rng(7)
        state = fresh_state(seed=7)
        run_task(state, make_task(1, [0, 1], rng), make_descriptions([0, 1], 4), HP)
        path = tmp_path / "task_01.json"
        write_checkpoint(path, state)
        loaded = read_checkpoint(path)
        state.encoder, state.bilinear = loaded["encoder"], loaded["bilinear"]
        state.memory = loaded["memory"]
        assert continual.checkpoint_dict(state) == json.loads(path.read_text())

    @pytest.mark.parametrize(
        "edit, message",
        [
            (lambda ck: ck.pop("encoder"), "missing key encoder"),
            (lambda ck: ck.update(task_index=-3), "task_index must be >= 0, got -3"),
            (lambda ck: ck["encoder"].pop("hidden_dim"), "missing key encoder.hidden_dim"),
            (lambda ck: ck["bilinear"].update(data=4), "bilinear.data must be a string, got 4"),
            (lambda ck: ck["memory"].update(labels=[0, True]), "memory.labels[1] must be an integer, got True"),
            (lambda ck: ck["memory"].update(labels=None), "memory.labels must be a list, got None"),
            (lambda ck: ck["encoder"].update(data=""), "encoder.data: payload holds 0 floats, expected 92"),
            (
                lambda ck: ck["bilinear"].update(data=ck["memory"]["data"]),
                "bilinear.data: payload holds 12 floats, expected 16",
            ),
            (lambda ck: ck["memory"].update(data="@@@@"), "memory.data: "),
            (lambda ck: ck["memory"]["labels"].pop(), "memory.data: payload holds 12 floats, expected 6"),
            (
                lambda ck: ck["memory"].update(labels=[0, 2**63]),
                "memory labels must fit in an int64, got 9223372036854775808",
            ),
        ],
    )
    def test_malformed_file_names_the_file_and_the_key(self, tmp_path, edit, message):
        state = fresh_state()
        run_task(state, make_task(1, [0, 1], np.random.default_rng(42)), make_descriptions([0, 1], 4), HP)
        path = tmp_path / "task_01.json"
        write_checkpoint(path, state)
        checkpoint = json.loads(path.read_text())
        edit(checkpoint)
        path.write_text(json.dumps(checkpoint))
        with pytest.raises(ValueError) as err:
            read_checkpoint(path)
        assert str(err.value).startswith(f"{path}: {message}")

    def test_a_memory_that_interleaves_relations_reads_back_in_insertion_order(self, tmp_path):
        state = fresh_state()
        rows = np.random.default_rng(5).normal(size=(3, 6))
        state.memory.append(rows, [1, 0, 1])
        path = tmp_path / "ck.json"
        write_checkpoint(path, state)
        memory = read_checkpoint(path)["memory"]
        assert memory.labels.tolist() == [1, 0, 1]
        np.testing.assert_array_equal(memory.features, rows)

    def test_checkpoint_bytes_stable(self, tmp_path):
        rng = np.random.default_rng(42)
        state = fresh_state()
        task = make_task(1, [0, 1], rng)
        run_task(state, task, make_descriptions([0, 1], 4), HP)
        first = tmp_path / "a.json"
        second = tmp_path / "b.json"
        write_checkpoint(first, state)
        write_checkpoint(second, state)
        assert first.read_bytes() == second.read_bytes()

    def test_bytes_equal_streamed_json_dump(self, tmp_path):
        rng = np.random.default_rng(42)
        state = fresh_state()
        for t, rels in ((1, [0, 1]), (2, [2, 3])):
            run_task(state, make_task(t, rels, rng), make_descriptions(rels, 4), HP)
        path = tmp_path / "task_02.json"
        write_checkpoint(path, state)
        streamed = tmp_path / "streamed.json"
        with open(streamed, "w", encoding="utf-8", newline="\n") as fh:
            json.dump(continual.checkpoint_dict(state), fh, sort_keys=True)
            fh.write("\n")
        assert path.read_bytes() == streamed.read_bytes()


class TestTrainingLayouts:
    """``_train`` gathers each pool's description table once and builds layouts from it."""

    def recorded_steps(self, monkeypatch, n_rows, epochs):
        """The layouts ``_Layout.of_rows`` built and those each ``_joint`` call got, in order."""
        used = []
        real_joint = continual._joint

        def joint(z, layout, hp, w):
            used.append(layout)
            return real_joint(z, layout, hp, w)

        built = record_layouts(monkeypatch)
        monkeypatch.setattr(continual, "_joint", joint)
        state = fresh_state()
        state.descriptions = make_descriptions([0, 1], 4)
        labels = np.array([0, 1] * (n_rows // 2))
        x = np.random.default_rng(1).normal(size=(n_rows, 6))
        _train(state, x, labels, HP, epochs, task_index=1, phase="current")
        return built, used

    def test_a_full_batch_pool_builds_one_layout_for_every_epoch(self, monkeypatch):
        built, used = self.recorded_steps(monkeypatch, 20, 3)
        assert len(built) == 1
        assert len(used) == 3 and all(layout is built[0] for layout in used)

    def test_a_minibatch_pool_builds_one_layout_per_step(self, monkeypatch):
        # 70 rows: minibatches of 32, 32 and 6 in each of 2 epochs
        built, used = self.recorded_steps(monkeypatch, 70, 2)
        assert len(built) == 6
        assert all(a is b for a, b in zip(used, built, strict=True))
        assert len({id(layout) for layout in built}) == 6

    def test_pool_state_is_freed_without_the_cycle_collector(self, monkeypatch):
        layouts = []
        real = continual._joint

        def recording(z, layout, hp, w):
            layouts.append(weakref.ref(layout))
            return real(z, layout, hp, w)

        monkeypatch.setattr(continual, "_joint", recording)
        state = fresh_state()
        state.descriptions = make_descriptions([0, 1], 4)
        labels = np.array([0, 1] * 10)
        x = np.random.default_rng(1).normal(size=(20, 6))
        gc.disable()
        try:
            _train(state, x, labels, HP, 3, task_index=1, phase="current")
            assert len(layouts) == 3
            assert all(ref() is None for ref in layouts)
        finally:
            gc.enable()

    def test_trained_state_does_not_alias_the_training_buffers(self):
        # a later _train updates its own flat vector and moments in place;
        # what an earlier one left in the state must not move with them
        state = fresh_state()
        state.descriptions = make_descriptions([0, 1], 4)
        labels = np.array([0, 1] * 10)
        x = np.random.default_rng(1).normal(size=(20, 6))
        _train(state, x, labels, HP, 2, task_index=1, phase="current")
        encoder, bilinear, optimizer = state.encoder, state.bilinear, state.optimizer
        kept = [a.copy() for a in (encoder.w1, encoder.b1, encoder.w2, encoder.b2, bilinear.matrix)]
        kept_moments = optimizer.m.copy(), optimizer.v.copy(), optimizer.step_count
        _train(state, x, labels, HP, 2, task_index=1, phase="current")
        assert state.optimizer.step_count == kept_moments[2] + 2
        assert not np.array_equal(state.encoder.to_vector(), encoder.to_vector())
        for now, then in zip((encoder.w1, encoder.b1, encoder.w2, encoder.b2, bilinear.matrix), kept):
            np.testing.assert_array_equal(now, then)
        np.testing.assert_array_equal(optimizer.m, kept_moments[0])
        np.testing.assert_array_equal(optimizer.v, kept_moments[1])
        assert optimizer.step_count == kept_moments[2]


class TestNonFiniteGradient:
    """A non-finite gradient names where training stopped and which term caused it."""

    def nan_term(self, monkeypatch, name, from_call=1):
        real = getattr(losses._Kernel, name)
        calls = []

        def broken(self, *args):
            term = real(self, *args)
            calls.append(None)
            if len(calls) >= from_call:
                term = term._replace(grad_z=np.full_like(term.grad_z, np.nan))
            return term

        monkeypatch.setattr(losses._Kernel, name, broken)

    def run_two_tasks(self, hp):
        rng = np.random.default_rng(4)
        state = fresh_state()
        for index, rels in ((1, [0, 1]), (2, [2, 3])):
            run_task(state, make_task(index, rels, rng), make_descriptions([0, 1, 2, 3], 4), hp)

    def test_names_task_phase_epoch_and_term(self, monkeypatch):
        # one full batch per epoch: task 1 takes calls 1-2 (current) and 3-4
        # (replay), task 2's current phase calls 5-6; call 6 is its epoch 2
        self.nan_term(monkeypatch, "hm", from_call=6)
        with pytest.raises(
            ValueError,
            match=r"^task 2, current phase, epoch 2: non-finite gradient, first from the hm term$",
        ):
            self.run_two_tasks(HP)

    def test_names_the_replay_phase(self, monkeypatch):
        self.nan_term(monkeypatch, "mi")
        hp = HyperParams(epochs_current=0, epochs_memory=2)
        with pytest.raises(ValueError, match=r"^task 1, replay phase, epoch 1: .* the mi term$"):
            self.run_two_tasks(hp)

    def test_names_the_first_broken_term(self, monkeypatch):
        self.nan_term(monkeypatch, "mi")
        self.nan_term(monkeypatch, "hsmt")
        with pytest.raises(ValueError, match=r"first from the hsmt term$") as err:
            self.run_two_tasks(HP)
        assert "gradient contains non-finite entries" in str(err.value.__cause__)
