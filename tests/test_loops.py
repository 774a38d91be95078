"""The array code outside the loss kernel against its loop versions, bit for bit.

``loop_reference`` holds the per-relation and per-row loops that data
generation, memory selection, prototypes, checkpoints and ``evaluate``'s
rank step ran before they became array operations, and the description
checks that ``DescriptionSet`` keeps.  Every property here requires the same bits, the same picks
and the same errors, on random inputs and on the adversarial ones: a
center candidate at the separation bound, coincident rows, labels
interleaved within one append, keys with many exact ties, zero-norm
vectors and zero means.
"""

import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import loop_reference as ref
from fcre.cli import _description_centers
from fcre.continual import (
    MemoryBuffer,
    Task,
    _central_rows,
    build_prototypes,
    checkpoint_dict,
    init_state,
    read_checkpoint,
    write_checkpoint,
)
from fcre.datagen import SyntheticSpec, generate_stream, sample_separated_centers
from fcre.descriptions import DescriptionSet, synth_descriptions
from fcre.encoder import floats_to_b64
from fcre.geometry import row_dots, unit_normalize
from fcre.inference import _ranks
from fcre.losses import HyperParams

seeds = st.integers(0, 2**32 - 1)
dims = st.sampled_from([1, 2, 3, 16, 33])


def same_bits(a, b) -> bool:
    a, b = np.asarray(a, dtype=np.float64), np.asarray(b, dtype=np.float64)
    return a.shape == b.shape and np.array_equal(a.view(np.int64), b.view(np.int64))


def outcome(fn, *args):
    """What ``fn(*args)`` returns, or the type and text of what it raises."""
    try:
        return fn(*args)
    except (ValueError, RuntimeError) as err:
        return ("raised", type(err).__name__, str(err))


class TestRowDots:
    @given(seeds, st.integers(1, 60), st.integers(1, 70))
    def test_each_entry_has_the_bits_of_np_dot(self, seed, n, d):
        rng = np.random.default_rng(seed)
        a = rng.normal(size=(n, d)) * 10.0 ** rng.integers(-3, 3, size=(n, 1))
        v = rng.normal(size=d)
        assert same_bits(row_dots(a, a), [np.dot(row, row) for row in a])
        # at d = 1 a product of zero may differ in sign only
        assert np.array_equal(row_dots(a, v), [np.dot(v, row) for row in a])
        if d > 1:
            assert same_bits(row_dots(a, v), [np.dot(v, row) for row in a])


class TestDataGeneration:
    @given(seeds, st.integers(1, 8), st.integers(2, 24), st.floats(0.05, 0.6))
    def test_centers_match_the_per_pair_loop(self, seed, count, dim, angle):
        got = sample_separated_centers(np.random.default_rng(seed), count, dim, angle)
        want = ref.sample_separated_centers(np.random.default_rng(seed), count, dim, angle)
        assert same_bits(got, want)

    def test_candidate_exactly_at_the_separation_bound(self):
        # six accepted centers, then a candidate whose largest np.dot with
        # them is exactly cos(min_angle): accepted by the per-pair loop, and
        # rejected by any product that rounds that entry one bit higher
        class Stream:
            def __init__(self, rows):
                self.rows = iter(rows)

            def standard_normal(self, dim):
                return next(self.rows)

        exact = 0
        for seed in range(150):
            raw = np.random.default_rng(seed).normal(size=(40, 24))
            units = np.stack([unit_normalize(row) for row in raw])
            # the closest pair of the first seven; one of them goes last
            dots = {(i, j): float(np.dot(units[i], units[j])) for i in range(7) for j in range(i)}
            closest = max(dots, key=dots.get)
            order = [i for i in range(7) if i != closest[0]] + [closest[0]]
            raw[:7], units[:7] = raw[order], units[order]
            bound = dots[closest]
            angle = math.acos(bound)
            angles = [angle + k * math.ulp(angle) for k in range(-64, 65)]
            angles = [a for a in angles if math.cos(a) == bound]
            if not angles:
                continue
            exact += 1
            got = sample_separated_centers(Stream(raw), 7, 24, angles[0])
            want = ref.sample_separated_centers(Stream(raw), 7, 24, angles[0])
            assert same_bits(got, want)
            assert same_bits(got[6], units[6])
        assert exact >= 30

    @given(seeds, st.integers(1, 4), st.integers(1, 5), st.integers(1, 6), st.integers(2, 5))
    @settings(max_examples=40)
    def test_stream_matches_per_relation_draws(self, seed, n_tasks, n_way, oversample, dim):
        spec = SyntheticSpec(
            n_tasks=n_tasks, n_way=n_way, shots=2, test_per_relation=3, feature_dim=dim,
            cluster_separation=0.1, within_class_noise=0.3, task1_oversample=oversample,
            seed=seed,
        )
        stream, center_map = generate_stream(spec)
        rng = np.random.default_rng(seed)
        centers = ref.sample_separated_centers(rng, spec.n_relations, dim, 0.1)
        for task in stream.tasks:
            relations = range((task.index - 1) * n_way, task.index * n_way)
            n_train = oversample if task.index == 1 else 2
            want = ref.task_samples(rng, centers, relations, n_train, 3, 0.3)
            got = (task.train_x, task.train_y, task.test_x, task.test_y)
            for a, b in zip(got, want):
                assert a.dtype == b.dtype and np.array_equal(a, b)
                if a.dtype == np.float64:
                    assert same_bits(a, b)
        assert all(same_bits(center_map[r], centers[r]) for r in range(spec.n_relations))


class TestDescriptionSynthesis:
    @given(seeds, st.integers(1, 6), st.integers(1, 5), dims, st.floats(0.0, 2.0))
    @pytest.mark.filterwarnings("ignore:relation .* average to the zero vector")
    def test_blocks_match_per_vector_normalization(self, seed, n_rel, k_desc, dim, spread):
        rng = np.random.default_rng(seed)
        centers = {int(r): rng.normal(size=dim) for r in rng.permutation(3 * n_rel)[:n_rel]}
        got = synth_descriptions(seed, centers, k_desc, spread)
        want = ref.description_blocks(seed, centers, k_desc, spread)
        assert got.relations == tuple(sorted(want))
        assert all(same_bits(got.vectors(r), want[r]) for r in want)

    @pytest.mark.parametrize("bad", ["zero", "nan", "inf"])
    def test_bad_center_raises_the_per_vector_error(self, bad):
        value = {"zero": 0.0, "nan": math.nan, "inf": math.inf}[bad]
        centers = {1: np.ones(3), 4: np.full(3, value), 6: np.full(3, value)}
        got = outcome(synth_descriptions, 5, centers, 2, 0.0)
        want = outcome(ref.description_blocks, 5, centers, 2, 0.0)
        assert got[0] == "raised" and got == want
        assert "relation 4 description" in got[2]

    @given(seeds, st.integers(1, 8), st.integers(1, 6), st.integers(1, 9))
    def test_projected_centers_match_per_relation_normalization(self, seed, n_rel, f, d):
        rng = np.random.default_rng(seed)
        centers = {int(r): rng.normal(size=f) for r in rng.permutation(2 * n_rel)[:n_rel]}
        got = _description_centers(centers, d, seed)
        want = ref.description_centers(centers, d, seed)
        assert list(got) == list(want)
        assert all(same_bits(got[r], want[r]) for r in want)

    def test_zero_projected_center_names_its_relation(self):
        centers = {0: np.ones(4), 2: np.zeros(4)}
        got = outcome(_description_centers, centers, 3, 0)
        assert got == outcome(ref.description_centers, centers, 3, 0)
        assert "projected center 2" in got[2]


@st.composite
def description_blocks(draw):
    """Blocks by relation id, sometimes with one flaw of the kind the checks reject."""
    rng = np.random.default_rng(draw(seeds))
    n_rel, k, d = draw(st.integers(1, 6)), draw(st.integers(1, 4)), draw(dims)
    relations = [int(r) for r in rng.permutation(4 * n_rel)[:n_rel]]
    blocks = {r: rng.normal(size=(k, d)) for r in relations}
    flaw = draw(st.sampled_from([
        "none", "none", "zero vector", "zero mean", "nan", "inf", "tiny", "K", "d", "1-D",
        "empty K", "zero vector, then K", "nan and d", "nan, then zero vector",
    ]))
    first, last = relations[0], relations[-1]
    row = int(rng.integers(k))
    if flaw.startswith("zero vector"):
        blocks[first][row] = 0.0
    elif flaw == "zero mean" and k % 2 == 0:  # x + -x sums to exactly 0.0
        blocks[first][1::2] = -blocks[first][0::2]
    elif flaw.startswith("nan,"):
        blocks[first][row, 0] = math.nan
        blocks[last][row] = 0.0
    elif flaw == "nan":
        blocks[first][row, 0] = math.nan
    elif flaw == "inf":
        blocks[first][row, -1] = -math.inf
    elif flaw == "tiny":  # the squares underflow: zero norm to every check
        blocks[first][row] = 1e-200
    elif flaw == "d":
        blocks[last] = rng.normal(size=(k, d + 1))
    elif flaw == "1-D":
        blocks[last] = rng.normal(size=d)
    elif flaw == "empty K":
        blocks[last] = np.zeros((0, d))
    elif flaw == "nan and d":  # one relation fails two checks: the first one names it
        blocks[last] = rng.normal(size=(k, d + 1))
        blocks[last][0, 0] = math.nan
    if flaw.endswith("K") and flaw != "empty K":
        blocks[last] = rng.normal(size=(k + 1, d))
    return blocks


class TestDescriptionChecks:
    @given(description_blocks())
    @settings(max_examples=200)
    def test_set_matches_the_per_relation_checks(self, blocks):
        with warnings.catch_warnings(record=True) as got_warnings:
            warnings.simplefilter("always")
            got = outcome(DescriptionSet, blocks)
        with warnings.catch_warnings(record=True) as want_warnings:
            warnings.simplefilter("always")
            want = outcome(ref.checked_descriptions, blocks)
        if isinstance(want, tuple) and want[0] == "raised":
            assert got == want
            return
        assert [str(w.message) for w in got_warnings] == [str(w.message) for w in want_warnings]
        vectors, means = want
        assert got.relations == tuple(sorted(vectors))
        for r in vectors:
            assert same_bits(got.vectors(r), vectors[r])
            assert same_bits(got.mean(r), means[r])
        assert same_bits(got.means, np.stack([means[r] for r in sorted(means)]))

    @given(description_blocks(), st.integers(0, 6))
    @settings(max_examples=100)
    def test_union_and_subset_keep_the_rows(self, blocks, cut):
        relations = list(blocks)  # random id order, so the two halves interleave
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            try:
                whole = DescriptionSet(blocks)
            except ValueError:
                return
            a = DescriptionSet({r: blocks[r] for r in relations[:cut]})
            b = DescriptionSet({r: blocks[r] for r in relations[cut:]})
        for merged in (a.union(b), b.union(a)):
            assert merged.relations == whole.relations
            assert same_bits(merged.table, whole.table)
            assert same_bits(merged.means, whole.means)
        some = relations[::2]
        sub = whole.subset(some)
        assert sub.relations == tuple(sorted(some))
        assert same_bits(sub.table, whole.table[whole.rows(sub.relations)])
        assert same_bits(sub.means, whole.means[whole.rows(sub.relations)])


class TestTaskChecks:
    @given(seeds, st.integers(1, 5))
    @settings(max_examples=80)
    def test_coverage_errors_match_the_per_relation_loop(self, seed, n_rel):
        rng = np.random.default_rng(seed)
        relations = [int(r) for r in rng.permutation(3 * n_rel)[:n_rel]]
        pool = relations + [int(r) for r in rng.integers(0, 4 * n_rel, size=2)]
        train_y = rng.choice(pool, size=int(rng.integers(1, 12)))
        test_y = rng.choice(pool, size=int(rng.integers(1, 12)))

        def build():
            return Task(1, tuple(relations), np.ones((train_y.size, 2)), train_y,
                        np.ones((test_y.size, 2)), test_y)

        got = outcome(build)
        want = outcome(ref.check_task_coverage, 1, relations, train_y, test_y)
        if want is None:
            assert isinstance(got, Task)
        else:
            assert got == want


@st.composite
def labelled_rows(draw):
    """Rows with labels, often quantized so that rows coincide and distances tie."""
    rng = np.random.default_rng(draw(seeds))
    n_rel, d = draw(st.integers(1, 5)), draw(dims)
    relations = np.sort(rng.permutation(5 * n_rel)[:n_rel])
    labels = np.concatenate([relations, rng.choice(relations, size=int(rng.integers(0, 30)))])
    rng.shuffle(labels)
    rows = rng.normal(size=(labels.size, d))
    if draw(st.booleans()):
        rows = np.round(rows * 2.0) / 2.0  # coincident rows, tied distances
    if draw(st.booleans()):
        rows[rng.integers(labels.size)] = -0.0
    return rows, labels.astype(np.int64), relations


class TestMemoryAndPrototypes:
    @given(labelled_rows(), st.integers(1, 6))
    @settings(max_examples=150)
    def test_memory_picks_match_the_per_relation_loop(self, case, memory_size):
        rows, labels, relations = case
        group = np.searchsorted(relations, labels)
        got = _central_rows(rows, group, relations.size, memory_size)
        want = ref.memory_picks(rows, labels, relations, memory_size)
        assert got.tolist() == want.tolist()

    def test_coincident_rows_tie_at_the_centroid_distance(self):
        # rows 1, 3 and 4 coincide at the centroid; the two lower indices make the memory
        rows = np.array([[2.0, 0.0], [0.0, 0.0], [-2.0, 0.0], [0.0, 0.0], [0.0, 0.0]])
        labels = np.zeros(5, dtype=np.int64)
        got = _central_rows(rows, labels, 1, 2)
        assert got.tolist() == [1, 3] == ref.memory_picks(rows, labels, [0], 2).tolist()

    @given(labelled_rows())
    @settings(max_examples=150)
    def test_prototypes_match_one_mask_per_relation(self, case):
        rows, labels, _ = case
        memory = MemoryBuffer(rows.shape[1])
        memory.append(rows, labels)  # labels interleave within this one append
        got = build_prototypes(memory, lambda x: x * 3.0)
        relations, vectors = ref.prototype_rows(rows * 3.0, labels)
        assert got.relations.tolist() == relations.tolist()
        assert same_bits(got.vectors, vectors)

    @given(labelled_rows(), labelled_rows())
    @settings(max_examples=60)
    def test_checkpoint_blocks_keep_first_appearance_order(self, first, second):
        (rows_a, labels_a, _), (rows_b, labels_b, _) = first, second
        if rows_a.shape[1] != rows_b.shape[1]:
            rows_b = np.resize(rows_b, (rows_b.shape[0], rows_a.shape[1]))
        state = init_state(rows_a.shape[1], 3, 2, HyperParams(), 0)
        state.memory.append(rows_a, labels_a)
        state.memory.append(rows_b, labels_b + 1000)
        got = checkpoint_dict(state)["memory"]
        blocks = ref.memory_blocks(state.memory.features, state.memory.labels)
        assert [entry["relation"] for entry in got] == [rel for rel, _ in blocks]
        for entry, (_, block) in zip(got, blocks):
            assert entry["count"] == block.shape[0]
            assert entry["data"] == floats_to_b64(block.ravel())

    def test_checkpoint_of_empty_memory_lists_no_blocks(self, tmp_path):
        state = init_state(4, 3, 2, HyperParams(), 0)  # before any task
        assert checkpoint_dict(state)["memory"] == []
        assert ref.memory_blocks(state.memory.features, state.memory.labels) == []
        write_checkpoint(tmp_path / "ck.json", state)
        memory = read_checkpoint(tmp_path / "ck.json")["memory"]
        assert memory.labels.size == 0 and memory.features.shape == (0, 4)


class TestRanks:
    @given(seeds, st.integers(1, 40), st.integers(1, 90), st.sampled_from([0, 2, 5]))
    @settings(max_examples=150)
    def test_ranks_match_take_and_put_along_axis(self, seed, n_rows, n_cols, levels):
        rng = np.random.default_rng(seed)
        if levels:  # many exact ties per row
            keys = rng.integers(0, levels, size=(n_rows, n_cols)).astype(np.float64)
        else:
            keys = rng.normal(size=(n_rows, n_cols))
        assert np.array_equal(_ranks(keys), ref.ranks(keys))
