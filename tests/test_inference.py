"""Prediction heads, rank fusion, and the metrics CSV."""

import dataclasses
import itertools
import math
import re
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import loop_reference as ref
from fcre.cli import ExperimentConfig, run_single_seed
from fcre.continual import Prototypes, Task, run_task
from fcre.descriptions import DescriptionSet
from fcre.encoder import EncoderParams, encode, encode_batch, init_encoder
from fcre.geometry import _ranks, rank_scores
from fcre.inference import (
    MetricsReport,
    TaskAccuracy,
    _fuse,
    check_heads,
    evaluate,
    dri_predict,
    dri_predict_from_scores,
    dri_score,
    ncm_predict,
)
import fcre.inference as inference
from test_continual import HP, fresh_state, make_descriptions, make_task, prototypes_of


def unit(v):
    v = np.asarray(v, dtype=np.float64)
    return v / np.linalg.norm(v)


def key_rows(*tables):
    """One row of ``_fuse`` keys per score table: the negated scores in ascending id order."""
    return [np.array([[-table[r] for r in sorted(table)]]) for table in tables]


class TestNcmPredict:
    def test_picks_nearest_prototype(self):
        protos = {0: np.array([1.0, 0.0]), 1: np.array([0.0, 1.0])}
        assert ncm_predict(np.array([0.9, 0.1]), protos) == 0
        assert ncm_predict(np.array([0.1, 0.9]), protos) == 1

    def test_exact_tie_prefers_lower_id(self):
        protos = {7: np.array([1.0, 0.0]), 3: np.array([-1.0, 0.0])}
        assert ncm_predict(np.array([0.0, 1.0]), protos) == 3

    def test_matches_brute_force(self):
        rng = np.random.default_rng(42)
        for _ in range(100):
            n = int(rng.integers(2, 11))
            ids = rng.choice(50, size=n, replace=False)
            protos = {int(r): rng.normal(size=4) for r in ids}
            z = rng.normal(size=4)
            expected = min(
                sorted(protos),
                key=lambda r: (float(np.linalg.norm(z - protos[r])), r),
            )
            assert ncm_predict(z, protos) == expected

    def test_empty_prototypes_rejected(self):
        with pytest.raises(ValueError, match="empty"):
            ncm_predict(np.ones(2), {})

    @pytest.mark.parametrize("key, shown", [(2.5, r"2\.5"), (True, "True"), ("7", "'7'")])
    def test_a_relation_id_that_is_not_an_integer_is_rejected(self, key, shown):
        # {2.5: p, 7: q} predicted relation 2, which was never given
        protos = {key: np.array([1.0, 0.0]), 9: np.array([0.0, 1.0])}
        ds = DescriptionSet({2: np.ones((1, 2)), 9: np.ones((1, 2))})
        for predict in (
            lambda z: ncm_predict(z, protos),
            lambda z: dri_predict(z, protos, ds, 0.5, 60.0),
        ):
            with pytest.raises(ValueError, match=rf"^relation id must be an integer, got {shown}$"):
                predict(np.array([1.0, 0.0]))


class TestScoreTables:
    def test_description_channel_uses_mean_vector(self):
        # relation 0's mean [0.5, 0.5] points at z, though neither of its
        # descriptions is as close to z as relation 1's
        ds = DescriptionSet({0: np.array([[1.0, 0.0], [0.0, 1.0]]), 1: np.array([[1.0, 0.8]] * 2)})
        protos = {0: np.zeros(2), 1: np.zeros(2)}
        assert dri_predict(np.array([1.0, 1.0]), protos, ds, 0.0, 60.0) == 0


class TestFuseRankedScores:
    """Reciprocal-rank fusion through ``inference._fuse`` and the public DRI heads."""

    def test_single_relation_hits_upper_bound_for_any_alpha(self):
        for alpha in (0.0, 0.1, 0.4, 0.5, 0.9, 1.0):
            fused, best = _fuse(*key_rows({5: -1.0}, {5: 0.3}), alpha, 60.0)
            np.testing.assert_allclose(fused[0, 0], 1.0 / 61.0, rtol=1e-12)
            assert best.tolist() == [0]

    def test_upper_bound_attained_iff_rank_one_on_both(self):
        e = {0: 3.0, 1: 2.0, 2: 1.0}
        c_aligned = {0: 0.9, 1: 0.5, 2: 0.1}
        c_flipped = {0: 0.1, 1: 0.5, 2: 0.9}
        bound = 1.0 / 61.0
        fused, _ = _fuse(*key_rows(e, c_aligned), 0.4, 60.0)
        np.testing.assert_allclose(fused[0, 0], bound, rtol=1e-12)
        fused, _ = _fuse(*key_rows(e, c_flipped), 0.4, 60.0)
        assert np.all(fused < bound)

    def test_hand_computed_fusion(self):
        e = {0: 10.0, 1: 5.0}  # ranks: 0 -> 1, 1 -> 2
        c = {0: 0.1, 1: 0.9}  # ranks: 0 -> 2, 1 -> 1
        fused, best = _fuse(*key_rows(e, c), alpha=0.25, epsilon=2.0)
        np.testing.assert_allclose(fused[0, 0], 0.25 / 3.0 + 0.75 / 4.0, rtol=1e-12)
        np.testing.assert_allclose(fused[0, 1], 0.25 / 4.0 + 0.75 / 3.0, rtol=1e-12)
        assert best.tolist() == [1]
        assert dri_predict_from_scores(e, c, 0.25, 2.0) == 1

    def test_alpha_extremes_defer_to_one_channel(self):
        rng = np.random.default_rng(42)
        for _ in range(20):
            ids = [int(r) for r in rng.choice(30, size=5, replace=False)]
            e = {r: float(rng.normal()) for r in ids}
            c = {r: float(rng.normal()) for r in ids}
            only_e, _ = _fuse(*key_rows(e, c), 1.0, 60.0)
            only_c, _ = _fuse(*key_rows(e, c), 0.0, 60.0)
            e_ranks, c_ranks = ref.sorted_ranks(e), ref.sorted_ranks(c)
            for col, r in enumerate(sorted(ids)):
                np.testing.assert_allclose(only_e[0, col], 1.0 / (60.0 + e_ranks[r]), rtol=1e-12)
                np.testing.assert_allclose(only_c[0, col], 1.0 / (60.0 + c_ranks[r]), rtol=1e-12)

    def test_validation(self):
        with pytest.raises(ValueError, match="alpha"):
            dri_predict_from_scores({0: 1.0}, {0: 1.0}, 1.5, 60.0)
        with pytest.raises(ValueError, match="epsilon"):
            dri_predict_from_scores({0: 1.0}, {0: 1.0}, 0.5, 0.0)
        with pytest.raises(ValueError, match="mismatched relation registries"):
            dri_predict_from_scores({0: 1.0}, {1: 1.0}, 0.5, 60.0)
        with pytest.raises(ValueError, match="empty"):
            dri_predict_from_scores({}, {}, 0.5, 60.0)
        with pytest.raises(ValueError, match="NaN"):
            dri_predict_from_scores({0: 1.0}, {0: math.nan}, 0.5, 60.0)
        z, protos = np.ones(2), {0: np.ones(2), 1: np.zeros(2)}
        ds = DescriptionSet({0: np.ones((1, 2)), 2: np.ones((1, 2))})
        cases = ((1.5, 60.0, "alpha"), (0.5, 0.0, "epsilon"), (0.5, 60.0, "registries"))
        for alpha, eps, message in cases:
            with pytest.raises(ValueError, match=message):
                dri_predict(z, protos, ds, alpha, eps)


class TestDriPredict:
    def build(self, rng, n=4):
        ids = [int(r) for r in rng.choice(20, size=n, replace=False)]
        protos = {r: rng.normal(size=3) for r in ids}
        ds = DescriptionSet({r: unit(rng.normal(size=(2, 3))) for r in ids})
        z = rng.normal(size=3)
        return z, protos, ds

    def oracle(self, z, protos, ds, alpha, eps):
        return ref.best(ref.fuse_ranked_scores(*ref.head_scores(z, protos, ds), alpha, eps))

    def test_matches_brute_force(self):
        rng = np.random.default_rng(42)
        for _ in range(100):
            z, protos, ds = self.build(rng, n=int(rng.integers(2, 8)))
            alpha = float(rng.uniform(0.0, 1.0))
            assert dri_predict(z, protos, ds, alpha, 60.0) == self.oracle(
                z, protos, ds, alpha, 60.0
            )

    def test_dri_score_decomposes_prediction(self):
        rng = np.random.default_rng(7)
        z, protos, ds = self.build(rng)
        scores = {r: dri_score(z, r, protos, ds, 0.4, 60.0) for r in protos}
        best = max(scores.values())
        expected = min(r for r in scores if scores[r] == best)
        assert dri_predict(z, protos, ds, 0.4, 60.0) == expected

    def test_dri_score_takes_only_an_integer_relation_id(self):
        z, protos, ds = self.build(np.random.default_rng(7))
        rel = min(protos)
        assert dri_score(z, np.int64(rel), protos, ds, 0.4, 60.0) == dri_score(z, rel, protos, ds, 0.4, 60.0)
        for bad, shown in ((rel + 0.9, re.escape(repr(rel + 0.9))), (True, "True"), (str(rel), f"'{rel}'")):
            # rel + 0.9 was scored as relation rel
            with pytest.raises(ValueError, match=rf"^relation id must be an integer, got {shown}$"):
                dri_score(z, bad, protos, ds, 0.4, 60.0)

    def test_dri_score_of_an_unknown_relation_rejected(self):
        z, protos, ds = self.build(np.random.default_rng(7))
        rel = max(protos) + 1
        with pytest.raises(ValueError, match=rf"^relation {rel} is not registered$"):
            dri_score(z, rel, protos, ds, 0.4, 60.0)

    def test_alpha_one_matches_ncm(self):
        rng = np.random.default_rng(42)
        for _ in range(50):
            z, protos, ds = self.build(rng)
            assert dri_predict(z, protos, ds, 1.0, 60.0) == ncm_predict(z, protos)

    def test_invariant_to_monotone_score_transforms(self):
        # fusion only consumes ranks, so any strictly increasing remap of
        # either score table keeps every fused value identical
        rng = np.random.default_rng(42)
        transforms = [
            lambda s: 2.0 * s + 1.0,
            lambda s: s**3,
            lambda s: math.tanh(s),
            lambda s: math.exp(0.5 * s),
        ]
        for _ in range(50):
            ids = [int(r) for r in rng.choice(30, size=5, replace=False)]
            e = {r: float(rng.normal()) for r in ids}
            c = {r: float(rng.normal()) for r in ids}
            base, base_best = _fuse(*key_rows(e, c), 0.4, 60.0)
            for t in transforms:
                e_t = {r: t(e[r]) for r in ids}
                c_t = {r: t(c[r]) for r in ids}
                warped, warped_best = _fuse(*key_rows(e_t, c_t), 0.4, 60.0)
                np.testing.assert_array_equal(warped, base)
                assert warped_best == base_best

    def test_exhaustive_rank_permutations(self):
        # every possible disagreement pattern between the two channels on
        # four relations, checked against the literal fusion formula
        ids = [0, 1, 2, 3]
        for e_perm in itertools.permutations(range(1, 5)):
            e = {r: -float(rank) for r, rank in zip(ids, e_perm)}
            for c_perm in itertools.permutations(range(1, 5)):
                c = {r: -float(rank) for r, rank in zip(ids, c_perm)}
                fused = {
                    r: 0.4 / (60.0 + e_perm[i]) + 0.6 / (60.0 + c_perm[i])
                    for i, r in enumerate(ids)
                }
                best = max(fused.values())
                expected = min(r for r in fused if fused[r] == best)
                assert dri_predict_from_scores(e, c, 0.4, 60.0) == expected


QUANTA = np.array([-1.0, -0.0, 0.0, 1.0])


def quantized_rows(rng, n, dim):
    """n rows of -1/-0.0/0.0/1 entries, none all zero: every sum is exact in any order."""
    rows = QUANTA[rng.integers(0, QUANTA.size, size=(n, dim))]
    rows[~np.any(rows, axis=1), 0] = 1.0
    return rows


@st.composite
def query_cases(draw):
    """One quantized query against relations that share prototypes and mean descriptions.

    Relation i takes the prototype of relation ``proto_src[i] <= i`` and
    the description block of ``desc_src[i] <= i``, so both channels meet
    exact ties between relations.  Entries include -0.0, but a distance
    or a cosine of them comes out as 0.0, so the signed zeros that reach
    a rank key are drawn in the score tables below.
    """
    n_rel = draw(st.integers(1, 10))
    dim = draw(st.integers(1, 5))
    proto_src = [draw(st.integers(0, i)) for i in range(n_rel)]
    desc_src = [draw(st.integers(0, i)) for i in range(n_rel)]
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    ids = [int(r) for r in rng.choice(60, size=n_rel, replace=False)]
    protos = quantized_rows(rng, n_rel, dim)
    blocks = []
    for _ in ids:
        block = quantized_rows(rng, 2, dim)
        while not np.any(block.mean(axis=0)):
            block = quantized_rows(rng, 2, dim)
        blocks.append(block)
    ds = DescriptionSet({r: blocks[src] for r, src in zip(ids, desc_src)})
    z = quantized_rows(rng, 1, dim)[0]
    return z, {r: protos[src] for r, src in zip(ids, proto_src)}, ds


fusion_weights = st.tuples(
    st.sampled_from([0.0, 0.25, 0.4, 0.5, 1.0]), st.sampled_from([1.0, 60.0])
)


class TestHeadsMatchTheSortOracle:
    """Each per-query head against the literal ``sorted(ids, key=(-score, id))`` oracle."""

    @given(query_cases())
    @settings(max_examples=200)
    def test_ncm_predict(self, case):
        z, protos, ds = case
        e_scores, _ = ref.head_scores(z, protos, ds)
        assert ncm_predict(z, protos) == ref.best(e_scores)

    @given(query_cases(), fusion_weights)
    @settings(max_examples=200)
    def test_dri_predict_and_dri_score(self, case, weights):
        z, protos, ds = case
        fused = ref.fuse_ranked_scores(*ref.head_scores(z, protos, ds), *weights)
        assert dri_predict(z, protos, ds, *weights) == ref.best(fused)
        assert {r: dri_score(z, r, protos, ds, *weights) for r in protos} == fused

    @given(
        st.lists(st.integers(0, 60), min_size=1, max_size=10, unique=True),
        st.data(),
        fusion_weights,
    )
    @settings(max_examples=200)
    def test_dri_predict_from_scores_and_rank_scores(self, ids, data, weights):
        quantized = st.sampled_from([-1.0, -0.5, -0.0, 0.0, 0.5, 1.0])  # -0.0 ties with 0.0
        e = {r: data.draw(quantized) for r in ids}
        c = {r: data.draw(quantized) for r in ids}
        expected = ref.fuse_ranked_scores(e, c, *weights)
        assert dri_predict_from_scores(e, c, *weights) == ref.best(expected)
        assert rank_scores(e).ranks == ref.sorted_ranks(e)


class TestCheckHeads:
    @pytest.mark.parametrize(
        "heads, pattern",
        [
            ((), r"^at least one prediction head is required$"),
            (("ncm", "dri", "ncm"), r"^duplicate heads: \('ncm', 'dri', 'ncm'\)$"),
            (("knn",), r"^unknown head 'knn'; expected one of \('ncm', 'dri'\)$"),
        ],
    )
    def test_rejected_heads(self, heads, pattern):
        with pytest.raises(ValueError, match=pattern):
            check_heads(heads)


class TestEvaluate:
    def test_chance_level_when_labels_are_independent(self):
        # labels carry no information about the features, so any decision
        # rule hovers at 1/n_relations
        rng = np.random.default_rng(42)
        n_rel, n_samples = 5, 1000
        protos = {r: unit(rng.normal(size=8)) for r in range(n_rel)}
        hits = 0
        labels = rng.integers(0, n_rel, size=n_samples)
        for y in labels:
            z = rng.normal(size=8)
            hits += int(ncm_predict(z, protos) == int(y))
        acc = hits / n_samples
        assert abs(acc - 0.2) < 0.06

    def test_registry_mismatch_detected_for_dri(self):
        state = fresh_state()
        rng = np.random.default_rng(42)
        task = make_task(1, [0, 1], rng)
        run_task(state, task, make_descriptions([0, 1], 4), HP, heads=("ncm",))
        # descriptions for a relation the prototypes do not know
        state.descriptions = state.descriptions.union(make_descriptions([9], 4, seed=5))
        with pytest.raises(ValueError, match="registries"):
            evaluate(state, prototypes_of(state), ("dri",), HP)

    def test_a_zero_query_embedding_fails_dri_only(self):
        state = fresh_state()
        run_task(state, make_task(1, [0, 1], np.random.default_rng(42)), make_descriptions([0, 1], 4), HP)
        # an all-zero encoder embeds every query, and every prototype, as the zero vector
        state.encoder = state.encoder.with_vector(np.zeros(state.encoder.n_params))
        prototypes = prototypes_of(state)
        with pytest.raises(ValueError, match=r"^cosine undefined: first argument has zero norm$"):
            evaluate(state, prototypes, ("dri",), HP)
        (row,) = evaluate(state, prototypes, ("ncm",), HP)
        assert row.head == "ncm" and row.acc_avg == 0.5  # every tie goes to relation 0


def nonzero_rows(rng, n, dim, quantized):
    """n rows of dim entries; quantized rows hold -1/0/1 and are never all zero."""
    if not quantized:
        return rng.normal(size=(n, dim))
    rows = rng.integers(-1, 2, size=(n, dim)).astype(np.float64)
    rows[np.all(rows == 0.0, axis=1), 0] = 1.0
    return rows


def pool_state(rng, quantized, n_tasks=3, n_way=5, test_n=8, n_extra=4, dim=4):
    """An untrained state with completed tasks and descriptions, and its prototypes.

    Tasks 1..n_tasks test n_way relations with test_n queries each; the
    ``n_extra`` relations make up one more task of one query each, whose
    features are the relation's prototype row.  The quantized variant
    uses a saturating identity encoder, so every embedding is a -1/0/1
    vector computed exactly by any summation order, and -1/0/1 prototypes
    and descriptions: distances and cosines then tie exactly between
    relations in both rank channels.
    """
    n_rel = n_tasks * n_way + n_extra
    relations = [int(r) for r in rng.choice(500, size=n_rel, replace=False)]
    if quantized:
        steep = 30.0 * np.eye(dim)  # tanh(30) rounds to 1.0
        encoder = EncoderParams(w1=steep, b1=np.zeros(dim), w2=steep, b2=np.zeros(dim))
    else:
        encoder = init_encoder(dim, 6, dim, rng)
    state = fresh_state(feature_dim=dim, hidden_dim=encoder.hidden_dim, embed_dim=dim)
    state.encoder = encoder
    protos = nonzero_rows(rng, n_rel, dim, quantized)
    order = np.argsort(relations)
    prototypes = Prototypes(np.array(relations)[order], protos[order])
    blocks = {}
    for rel in relations:
        block = nonzero_rows(rng, 2, dim, quantized)
        while not np.any(block.mean(axis=0)):
            block = nonzero_rows(rng, 2, dim, quantized)
        blocks[rel] = block
    state.descriptions = DescriptionSet(blocks)
    for t in range(n_tasks):
        rels = relations[t * n_way : (t + 1) * n_way]
        x = nonzero_rows(rng, n_way * test_n, dim, quantized)
        y = np.repeat(rels, test_n)
        state.completed_tasks.append(Task(t + 1, x, y, x, y))
    if n_extra:  # no draw: the rng stream stays as it was
        x, y = protos[n_tasks * n_way :], relations[n_tasks * n_way :]
        state.completed_tasks.append(Task(n_tasks + 1, x, y, x, y))
    return state, prototypes


def first_tasks(state, prototypes, k):
    """``state`` with its first ``k >= 1`` tasks completed, and the prototypes it scores against."""
    done = state.completed_tasks[:k]
    seen = np.isin(prototypes.relations, [r for task in done for r in task.relations])
    relations = prototypes.relations[seen]
    descriptions = state.descriptions.subset(relations)
    cut = dataclasses.replace(state, completed_tasks=done, descriptions=descriptions)
    return cut, Prototypes(relations, prototypes.vectors[seen])


def per_query_evaluate(state, prototypes, head, hp):
    """Literal loop: encode and predict one query at a time."""
    protos = dict(zip(prototypes.relations.tolist(), prototypes.vectors))
    acc = {}
    for task in state.completed_tasks:
        hits = 0
        for features, label in zip(task.test_x, task.test_y):
            z = encode(state.encoder, features)
            if head == "ncm":
                pred = ncm_predict(z, protos)
            else:
                pred = dri_predict(z, protos, state.descriptions, hp.alpha, hp.epsilon)
            hits += int(pred == int(label))
        acc[task.index] = hits / len(task.test_y)
    return TaskAccuracy(len(state.completed_tasks), head, acc, sum(acc.values()) / len(acc))


def tied_queries(state, prototypes):
    """Queries whose best distance, or best cosine, is shared by two relations."""
    protos = prototypes.vectors
    means = np.stack([state.descriptions.mean(r) for r in prototypes.relations])
    e_ties = c_ties = 0
    for task in state.completed_tasks:
        for features in task.test_x:
            z = encode(state.encoder, features)
            dist = np.linalg.norm(z - protos, axis=1)
            cos = (means @ z) / (np.linalg.norm(means, axis=1) * np.linalg.norm(z))
            e_ties += int(np.count_nonzero(dist == dist.min()) > 1)
            c_ties += int(np.count_nonzero(cos == cos.max()) > 1)
    return e_ties, c_ties


def share_nearest_prototype(state, prototypes):
    """Give the one tested relation and the highest other id one prototype.

    It is the mean embedding of the test pool, so it is nearest to most
    queries.  Returns the new prototypes, the relation and its twin.
    """
    task = state.completed_tasks[0]
    (rel,) = task.relations
    relations = prototypes.relations
    twin = int(relations[relations != rel].max())
    vectors = prototypes.vectors.copy()
    vectors[np.isin(relations, [rel, twin])] = encode_batch(state.encoder, task.test_x).mean(axis=0)
    return Prototypes(relations, vectors), rel, twin


@st.composite
def shared_row_states(draw):
    """A state whose relations share prototypes and mean descriptions, with those prototypes.

    Task 1 tests ``n_tested`` of the relations, and task 2, if any are
    left, the rest with one query each.

    Relation i takes the prototype of relation ``proto_src[i] <= i`` and
    the description block of ``desc_src[i] <= i``, so both heads and both
    rank channels meet exact ties.  Source prototypes are means of query
    embeddings, and unquantized source blocks are query embeddings, so
    shared rows are often a query's best.
    """
    n_rel = draw(st.integers(2, 12))
    dim = draw(st.sampled_from([3, 32, 48]))
    quantized = draw(st.booleans())
    proto_src = [draw(st.integers(0, i)) for i in range(n_rel)]
    desc_src = [draw(st.integers(0, i)) for i in range(n_rel)]
    n_tested = draw(st.integers(1, n_rel))
    test_n = draw(st.integers(1, 12))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    relations = np.sort(rng.choice(500, size=n_rel, replace=False))
    if quantized:  # the saturating identity encoder of ``pool_state``
        steep = 30.0 * np.eye(dim)
        encoder = EncoderParams(w1=steep, b1=np.zeros(dim), w2=steep, b2=np.zeros(dim))
    else:
        encoder = init_encoder(dim, 6, dim, rng)
    state = fresh_state(feature_dim=dim, hidden_dim=encoder.hidden_dim, embed_dim=dim)
    state.encoder = encoder
    tested = rng.choice(relations, size=n_tested, replace=False)
    x = nonzero_rows(rng, n_tested * test_n, dim, quantized)
    y = np.repeat(tested, test_n)
    state.completed_tasks.append(Task(1, x, y, x, y))
    z = encode_batch(encoder, x)
    protos = np.stack([z[rng.choice(z.shape[0], size=2)].mean(axis=0) for _ in relations])
    prototypes = Prototypes(relations, protos[proto_src])
    blocks = []
    for _ in relations:
        if quantized:
            block = nonzero_rows(rng, 2, dim, quantized)
            while not np.any(block.mean(axis=0)):
                block = nonzero_rows(rng, 2, dim, quantized)
        else:
            block = z[rng.choice(z.shape[0], size=2)]
        blocks.append(block)
    state.descriptions = DescriptionSet(
        {int(r): blocks[src] for r, src in zip(relations, desc_src)}
    )
    untested = np.setdiff1d(relations, tested)
    if untested.size:
        x = nonzero_rows(rng, untested.size, dim, quantized)
        state.completed_tasks.append(Task(2, x, untested, x, untested))
    return state, prototypes


class TestBatchedEvaluate:
    @given(shared_row_states(), st.sampled_from([0.0, 0.4, 1.0]))
    @settings(max_examples=160)
    def test_shared_prototypes_and_means_match_per_query_oracle(self, pair, alpha):
        state, prototypes = pair
        hp = dataclasses.replace(HP, alpha=alpha)
        expected = [per_query_evaluate(state, prototypes, head, hp) for head in ("ncm", "dri")]
        assert evaluate(state, prototypes, ("ncm", "dri"), hp) == expected

    @pytest.mark.parametrize("quantized", [False, True])
    def test_matches_per_query_loop(self, quantized):
        rng = np.random.default_rng(42)
        for _ in range(4):
            state, prototypes = pool_state(rng, quantized)
            if quantized:
                e_ties, c_ties = tied_queries(state, prototypes)
                assert e_ties > 0 and c_ties > 0
            runs = [("ncm", HP)] + [
                ("dri", dataclasses.replace(HP, alpha=alpha)) for alpha in (0.0, 0.5, 1.0)
            ]
            for head, hp in runs:
                expected = per_query_evaluate(state, prototypes, head, hp)
                assert evaluate(state, prototypes, (head,), hp) == [expected]
            first, first_prototypes = first_tasks(state, prototypes, 1)
            expected = per_query_evaluate(first, first_prototypes, "dri", HP)
            assert evaluate(first, first_prototypes, ("dri",), HP) == [expected]

    @pytest.mark.parametrize("quantized", [False, True])
    def test_both_heads_from_one_call_match_per_query_loop(self, quantized):
        rng = np.random.default_rng(11)
        for _ in range(3):
            state, prototypes = pool_state(rng, quantized)
            for heads in (("ncm", "dri"), ("dri", "ncm")):
                expected = [per_query_evaluate(state, prototypes, head, HP) for head in heads]
                assert evaluate(state, prototypes, heads, HP) == expected

    def test_relations_sharing_a_prototype_tie_exactly(self):
        # Two relation ids share the prototype nearest to every query, so
        # each NCM prediction, and each distance rank, rests on an exact
        # tie that the lower id must win.  A BLAS matrix product may sum
        # the two key columns in different orders and split the tie
        # (OpenBLAS 0.3.31 does at d >= 32 for the last R mod 4 columns
        # of a block whose query count is not a multiple of 8).
        rng = np.random.default_rng(42)
        runs = [("ncm", HP)] + [
            ("dri", dataclasses.replace(HP, alpha=alpha)) for alpha in (0.0, 0.5, 1.0)
        ]
        for _ in range(4):
            state, prototypes = pool_state(
                rng, False, n_tasks=1, n_way=1, test_n=7, n_extra=18, dim=32
            )
            prototypes = share_nearest_prototype(state, prototypes)[0]
            for head, hp in runs:
                expected = per_query_evaluate(state, prototypes, head, hp)
                assert evaluate(state, prototypes, (head,), hp) == [expected]
        # The twins also share a description block, so at alpha 0 each DRI
        # prediction rests on an exact cosine tie too.  A matrix product
        # for the cosines split it in two of these ten states (seeds 5, 8).
        hp = dataclasses.replace(HP, alpha=0.0)
        for seed in range(10):
            state, prototypes = pool_state(
                np.random.default_rng(seed), False, n_tasks=1, n_way=1, test_n=7,
                n_extra=18, dim=32,
            )
            prototypes, rel, twin = share_nearest_prototype(state, prototypes)
            blocks = {r: state.descriptions.vectors(r) for r in state.descriptions.relations}
            blocks[rel] = blocks[twin]
            state.descriptions = DescriptionSet(blocks)
            expected = per_query_evaluate(state, prototypes, "dri", hp)
            assert evaluate(state, prototypes, ("dri",), hp) == [expected]

    def test_artifacts_do_not_depend_on_the_block_budget(self, tmp_path, monkeypatch):
        # One query per pass, the default, and every pool in one pass, on the
        # default stream with two epochs per phase.  Only metrics.csv and the
        # checkpoints are compared: config.json records out_dir.
        runs = []
        for budget in (1, inference.EVAL_BLOCK_ENTRIES, 10**7):
            monkeypatch.setattr(inference, "EVAL_BLOCK_ENTRIES", budget)
            out = tmp_path / str(budget)
            config = ExperimentConfig(hyper=HP, seeds=(0, 1, 2), out_dir=str(out))
            artifacts = {}
            for seed in config.seeds:
                run_dir = Path(run_single_seed(config, seed)["run_dir"])
                for path in [run_dir / "metrics.csv", *(run_dir / "checkpoints").iterdir()]:
                    artifacts[str(path.relative_to(out))] = path.read_bytes()
            runs.append(artifacts)
        assert len(runs[0]) == 3 * 9
        assert runs[0] == runs[1] == runs[2]

    def test_rows_are_labelled_with_the_number_of_completed_tasks(self):
        state, prototypes = pool_state(np.random.default_rng(5), False)
        for k in (1, 2, 3, 4):
            rows = evaluate(*first_tasks(state, prototypes, k), ("ncm", "dri"), HP)
            assert [row.task_index for row in rows] == [k, k]
            assert all(list(row.acc_per_task) == list(range(1, k + 1)) for row in rows)
        with pytest.raises(ValueError, match="^no task has been completed$"):
            evaluate(dataclasses.replace(state, completed_tasks=[]), prototypes, ("ncm",), HP)

    def test_prototypes_must_cover_exactly_the_seen_relations(self):
        # prototypes cut to relations 0-1 once scored a 2-task state's
        # task 2 (relations 2-3) at 0.0 without an error
        rng = np.random.default_rng(0)
        state = fresh_state(feature_dim=4, hidden_dim=6, embed_dim=4)
        for t, rels in ((1, [0, 1]), (2, [2, 3])):
            x, y = rng.normal(size=(4, 4)), np.repeat(rels, 2)
            state.completed_tasks.append(Task(t, x, y, x, y))
        cases = [(np.arange(2), "[0, 1]"), (np.arange(1, 5), "[1, 2, 3, 4]")]
        for relations, shown in cases:
            prototypes = Prototypes(relations, rng.normal(size=(relations.size, 4)))
            with pytest.raises(ValueError, match=re.escape(
                f"prototypes cover relations {shown} but the state has seen [0, 1, 2, 3]"
            )):
                evaluate(state, prototypes, ("ncm",), HP)
        [row] = evaluate(state, Prototypes(np.arange(4), rng.normal(size=(4, 4))), ("ncm",), HP)
        assert list(row.acc_per_task) == [1, 2]

    def test_each_pool_is_encoded_once_for_both_heads(self, monkeypatch):
        state, prototypes = pool_state(np.random.default_rng(3), False)
        encoded = []
        real = inference._embed

        def counting(params, rows):
            encoded.append(len(rows))
            return real(params, rows)

        monkeypatch.setattr(inference, "_embed", counting)
        evaluate(state, prototypes, ("ncm", "dri"), HP)
        assert sum(encoded) == sum(t.test_y.size for t in state.completed_tasks)

    def test_zero_norm_mean_description_rejected_for_dri(self):
        state, prototypes = pool_state(np.random.default_rng(0), quantized=True)
        rel = int(prototypes.relations[0])
        blocks = {r: state.descriptions.vectors(r) for r in state.descriptions.relations}
        blocks[rel] = np.stack([blocks[rel][0], -blocks[rel][0]])
        with pytest.warns(RuntimeWarning):
            state.descriptions = DescriptionSet(blocks)
        with pytest.raises(ValueError, match="zero norm"):
            evaluate(state, prototypes, ("dri",), HP)
        with pytest.raises(ValueError, match="zero norm"):
            evaluate(state, prototypes, ("ncm", "dri"), HP)
        evaluate(state, prototypes, ("ncm",), HP)  # NCM never takes a cosine

    def test_transient_memory_stays_under_one_megabyte(self):
        # an eval_wide-sized pool: 150 queries against 80 relations; a
        # (queries, relations, d) block of differences alone takes 1.5 MB
        rng = np.random.default_rng(42)
        state, prototypes = pool_state(
            rng, False, n_tasks=1, n_way=10, test_n=15, n_extra=70, dim=16
        )
        state.encoder = init_encoder(16, 32, 16, rng)
        for head in ("ncm", "dri"):
            evaluate(state, prototypes, (head,), HP)  # warm caches outside the measurement
            tracemalloc.start()
            try:
                evaluate(state, prototypes, (head,), HP)
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            assert peak < 1_000_000, f"evaluate[{head}] peaked at {peak} bytes"


def reflection(v, normal):
    """``v`` reflected through the hyperplane through the origin with unit ``normal``."""
    return v - 2.0 * np.dot(v, normal) * normal


def reflected_state(rng):
    """A one-query state whose query lies within rounding of a tie in both channels.

    The query's embedding z is nearest to relation 0's prototype p0 and
    to relation 1's, p0 reflected through a random hyperplane through z;
    relation 1's mean description is relation 0's reflected through a
    random hyperplane through the origin and z, so the two cosines with z
    tie too.  Both reflections are offset by noise of about 1e-15, and
    two farther relations take random rows.  So the two channels' best
    keys agree only up to rounding, and the form of the key decides.
    About half the states get their prototypes in column-major order,
    whose einsum keys would round differently were they not stored contiguous.
    Returns the state, its prototypes, its one query's features and their embedding.
    """
    dim = int(rng.integers(2, 33))
    state = fresh_state(feature_dim=dim, hidden_dim=6, embed_dim=dim)
    x = rng.normal(size=(1, dim))
    (z,) = encode_batch(state.encoder, x)
    u = unit(rng.normal(size=dim))
    p0 = z + 0.1 * rng.normal(size=dim)
    p1 = z + reflection(p0 - z, u) + 1e-15 * rng.normal(size=dim)
    v = rng.normal(size=dim)
    v = unit(v - np.dot(v, z) / np.dot(z, z) * z)  # orthogonal to z
    m0 = z + 0.1 * rng.normal(size=dim)
    m1 = reflection(m0, v) + 1e-15 * rng.normal(size=dim)
    relations = np.arange(4)
    vectors = np.stack([p0, p1, *rng.normal(size=(2, dim))])
    prototypes = Prototypes(relations, np.asfortranarray(vectors) if rng.random() < 0.5 else vectors)
    means = np.stack([m0, m1, *rng.normal(size=(2, dim))])
    state.descriptions = DescriptionSet({int(r): m[None, :] for r, m in zip(relations, means)})
    return state, prototypes, x, z


class TestReflectedNearTies:
    """``evaluate`` and the per-query heads take their keys from one ``_keys``,
    so they decide a near-tie alike, whichever way the rounding goes."""

    def test_evaluate_matches_the_per_query_heads(self):
        rng = np.random.default_rng(2025)
        disagree = {"ncm": 0, "dri": 0}
        for _ in range(1_000):
            state, prototypes, x, z = reflected_state(rng)
            protos = dict(zip(prototypes.relations.tolist(), prototypes.vectors))
            z = np.repeat(z, 2)[::2]  # a strided view: the heads take any 1-D vector
            ncm = ncm_predict(z, protos)
            dri = dri_predict(z, protos, state.descriptions, HP.alpha, HP.epsilon)
            # task r + 1 labels the query with relation r: NCM's is task ncm + 1, DRI's dri + 1
            state.completed_tasks = [Task(r + 1, x, [r], x, [r]) for r in range(4)]
            rows = evaluate(state, prototypes, ("ncm", "dri"), HP)
            disagree["ncm"] += rows[0].acc_per_task[ncm + 1] != 1.0
            disagree["dri"] += rows[1].acc_per_task[dri + 1] != 1.0
        assert disagree == {"ncm": 0, "dri": 0}


class TestRanks:
    def test_equals_stable_argsort_ranks(self):
        rng = np.random.default_rng(5)
        keys = np.concatenate(
            [
                rng.normal(size=(3, 12)),  # no ties
                rng.integers(-1, 2, size=(4, 12)).astype(np.float64),  # many ties
                np.full((1, 12), 0.25),  # all tied
                np.array([[0.0, -0.0] * 6]),  # signed zeros are equal keys
            ]
        )
        keys[1, 7] = keys[1, 2]  # one tie in an otherwise distinct row
        for matrix in (keys, keys[:, :1]):
            order = np.argsort(matrix, axis=1, kind="stable")
            expected = np.empty(matrix.shape)
            np.put_along_axis(
                expected, order, np.arange(1.0, matrix.shape[1] + 1.0)[None, :], axis=1
            )
            np.testing.assert_array_equal(_ranks(matrix), expected)


class TestMetricsReport:
    def make_report(self):
        report = MetricsReport()
        report.add(TaskAccuracy(1, "ncm", {1: 1.0}, 1.0))
        report.add(TaskAccuracy(1, "dri", {1: 0.9}, 0.9))
        report.add(TaskAccuracy(2, "ncm", {1: 0.8, 2: 0.6}, 0.7))
        report.add(TaskAccuracy(2, "dri", {1: 0.7, 2: 0.7}, 0.7))
        report.add(TaskAccuracy(3, "ncm", {1: 0.5, 2: 0.5, 3: 0.5}, 0.5))
        report.add(TaskAccuracy(3, "dri", {1: 0.6, 2: 0.6, 3: 0.6}, 0.6))
        return report

    def test_drop_and_delta(self):
        report = self.make_report()
        np.testing.assert_allclose(report.final_drop("ncm"), 0.5)
        np.testing.assert_allclose(report.final_drop("dri"), 0.9 - 0.6)
        rising = MetricsReport()
        rising.add(TaskAccuracy(1, "ncm", {1: 0.5}, 0.5))
        rising.add(TaskAccuracy(2, "ncm", {1: 0.75, 2: 0.75}, 0.75))
        assert rising.final_drop("ncm") == -0.25  # a gain is a negative drop

    def test_from_csv_rejects_unknown_head(self):
        text = self.make_report().to_csv().replace(",dri,", ",knn,")
        with pytest.raises(ValueError, match="^line 3: unknown head 'knn';"):
            MetricsReport.from_csv(text)

    HEADER = "task,head,acc_avg,acc_per_task_1,drop\r\n"

    @pytest.mark.parametrize(
        "text, message",
        [
            (HEADER + "1\r\n", "line 2: 1 cells, expected 5"),
            (HEADER + "1,ncm,1.0,1.0,0.0\r\n2,ncm,1.0,1.0,0.0,0.0\r\n", "line 3: 6 cells, expected 5"),
            (HEADER + "x,ncm,1.0,1.0,0.0\r\n", "line 2: invalid literal for int() with base 10: 'x'"),
            (HEADER + "1.5,ncm,1.0,1.0,0.0\r\n", "line 2: invalid literal for int() with base 10: '1.5'"),
            (HEADER + "1,ncm,abc,1.0,0.0\r\n", "line 2: could not convert string to float: 'abc'"),
            # the blank line 3 still counts
            (HEADER + "1,ncm,1.0,1.0,0.0\r\n\r\n2,ncm,1.0,?,0.0\r\n", "line 4: could not convert string to float: '?'"),
            ("task,head,acc_avg,acc_per_task_x,drop\r\n", "line 1: column 'acc_per_task_x' is not acc_per_task_<task>"),
            ("task,head,acc_avg,acc_per_task_,drop\r\n", "line 1: column 'acc_per_task_' is not acc_per_task_<task>"),
            ("task,head,acc_avg,score_1,drop\r\n", "line 1: column 'score_1' is not acc_per_task_<task>"),
            # to_csv writes task columns from 1, as str(int) writes them
            (
                "task,head,acc_avg,acc_per_task_0,acc_per_task_1,drop\r\n",
                "line 1: column 'acc_per_task_0' is not acc_per_task_<task>",
            ),
            ("task,head,acc_avg,acc_per_task_01,drop\r\n", "line 1: column 'acc_per_task_01' is not acc_per_task_<task>"),
            ("task,head,acc_avg,acc_per_task_+1,drop\r\n", "line 1: column 'acc_per_task_+1' is not acc_per_task_<task>"),
            # a second column for one task would drop one of its cells
            (
                "task,head,acc_avg,acc_per_task_1,acc_per_task_1,drop\r\n1,ncm,0.5,0.25,0.75,0.0\r\n",
                "line 1: column 'acc_per_task_1' names task 1 a second time",
            ),
            (HEADER + "0,ncm,1.0,1.0,0.0\r\n", "line 2: task '0' is not a canonical task index >= 1"),
            (HEADER + "-1,ncm,1.0,1.0,0.0\r\n", "line 2: task '-1' is not a canonical task index >= 1"),
            (HEADER + "01,ncm,1.0,1.0,0.0\r\n", "line 2: task '01' is not a canonical task index >= 1"),
            (HEADER + "1,ncm,nan,1.0,0.0\r\n", "line 2: accuracy nan is not in [0, 1]"),
            (HEADER + "1,ncm,1.0,1.0,inf\r\n", "line 2: drop 'inf' is not finite"),
            (HEADER + "1,ncm,1.0,2.5,0.0\r\n", "line 2: accuracy 2.5 is not in [0, 1]"),
            (HEADER + "1,ncm,-0.25,1.0,0.0\r\n", "line 2: accuracy -0.25 is not in [0, 1]"),
            (HEADER + "1,ncm,1.0,1.0,zz\r\n", "line 2: could not convert string to float: 'zz'"),
            (
                HEADER + "1,ncm,1.0,1.0,0.0\r\n1,dri,1.0,1.0,0.0\r\n1,ncm,0.5,0.5,0.5\r\n",
                "line 4: a second row for task 1, head 'ncm'",
            ),
        ],
    )
    def test_from_csv_names_the_malformed_line(self, text, message):
        with pytest.raises(ValueError) as err:
            MetricsReport.from_csv(text)
        assert str(err.value) == message

    def test_csv_header_and_line_endings(self):
        text = self.make_report().to_csv()
        lines = text.split("\r\n")
        assert lines[0] == "task,head,acc_avg,acc_per_task_1,acc_per_task_2,acc_per_task_3,drop"
        assert text.endswith("\r\n")
        assert len([l for l in lines if l]) == 7  # header + 6 rows

    def test_csv_cells(self):
        text = self.make_report().to_csv()
        rows = [l.split(",") for l in text.split("\r\n") if l][1:]
        first_ncm = next(r for r in rows if r[1] == "ncm")
        assert first_ncm[0] == "1" and first_ncm[2] == "1.0"
        assert first_ncm[4] == "" and first_ncm[5] == ""  # future tasks blank
        last_ncm = [r for r in rows if r[1] == "ncm"][-1]
        np.testing.assert_allclose(float(last_ncm[-1]), 0.5)  # drop column

    def test_round_trip_and_stability(self):
        report = self.make_report()
        text = report.to_csv()
        back = MetricsReport.from_csv(text)
        assert len(back.rows) == len(report.rows)
        for a, b in zip(report.rows, back.rows):
            assert a == b
        assert back.to_csv() == text

    def test_repr_floats_survive(self):
        report = MetricsReport()
        report.add(TaskAccuracy(1, "ncm", {1: 2.0 / 3.0}, 2.0 / 3.0))
        back = MetricsReport.from_csv(report.to_csv())
        assert back.rows[0].acc_avg == 2.0 / 3.0

    def test_head_rows_filter(self):
        report = self.make_report()
        assert [r.task_index for r in report.head_rows("ncm")] == [1, 2, 3]

    def test_drop_needs_rows(self):
        with pytest.raises(ValueError, match="no rows"):
            MetricsReport().final_drop("ncm")
