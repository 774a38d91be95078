"""Loss values against literal-formula oracles; gradients against FD."""

import cProfile
import dataclasses
import gc
import math
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fcre.geometry import cosine, euclidean
from fcre.losses import (
    Batch,
    HyperParams,
    hm_loss,
    hsmt_loss,
    joint_loss,
    mi_loss,
    mine_hard,
    scl_loss,
)
import fcre.losses as losses
import loss_reference
from helpers import num_grad, random_batch, rel_err


def orthogonal_batch(labels, k_desc=1):
    """Batch whose embeddings are distinct standard basis vectors."""
    n = len(labels)
    z = np.eye(n)
    descriptions = np.tile(np.eye(n)[0], (n, k_desc, 1))
    return Batch(z=z, labels=np.array(labels), descriptions=descriptions)


# ---------------------------------------------------------------- oracles


def scl_oracle(batch, x, tau):
    """Literal formula: -sum_p log(f(x,p) / sum_{u != x} f(x,u))."""
    pos = [u for u in range(batch.size) if u != x and batch.labels[u] == batch.labels[x]]
    denom = sum(
        math.exp(cosine(batch.z[x], batch.z[u]) / tau)
        for u in range(batch.size)
        if u != x
    )
    return -sum(
        math.log(math.exp(cosine(batch.z[x], batch.z[p]) / tau) / denom) for p in pos
    )


def hsmt_oracle(batch, x):
    pos = [u for u in range(batch.size) if u != x and batch.labels[u] == batch.labels[x]]
    neg = [u for u in range(batch.size) if batch.labels[u] != batch.labels[x]]
    biggest = max(math.exp(euclidean(batch.z[x], batch.z[p])) for p in pos)
    smallest = min(math.exp(euclidean(batch.z[x], batch.z[n])) for n in neg)
    return -math.log(max(1.0 + biggest - smallest, 1e-6))


def mine_oracle(batch, x, k):
    pos = [u for u in range(batch.size) if u != x and batch.labels[u] == batch.labels[x]]
    neg = [u for u in range(batch.size) if batch.labels[u] != batch.labels[x]]
    anchor = batch.descriptions[x, k]
    pd = {p: 1.0 - cosine(anchor, batch.z[p]) for p in pos}
    nd = {n: 1.0 - cosine(anchor, batch.z[n]) for n in neg}
    hard_pos = tuple(p for p in pos if pd[p] > min(nd.values()))
    hard_neg = tuple(n for n in neg if nd[n] < max(pd.values()))
    return hard_pos, hard_neg


def hm_oracle(batch, x, margin):
    pos = [u for u in range(batch.size) if u != x and batch.labels[u] == batch.labels[x]]
    neg = [u for u in range(batch.size) if batch.labels[u] != batch.labels[x]]
    if not pos or not neg:
        return 0.0
    total = 0.0
    for k in range(batch.k_desc):
        anchor = batch.descriptions[x, k]
        hard_pos, hard_neg = mine_oracle(batch, x, k)
        for p in hard_pos:
            total += (1.0 - cosine(anchor, batch.z[p])) ** 2
        for n in hard_neg:
            total += max(0.0, margin - 1.0 + cosine(anchor, batch.z[n])) ** 2
    return total


def mi_oracle(batch, x, w, tau):
    neg = [u for u in range(batch.size) if batch.labels[u] != batch.labels[x]]
    if not neg:
        return 0.0
    zx = batch.z[x]

    def h(d):
        return math.exp(float(zx @ w @ d) / tau)

    s_pos = sum(h(batch.descriptions[x, k]) for k in range(batch.k_desc))
    s_neg = sum(
        h(batch.descriptions[n, k]) for n in neg for k in range(batch.k_desc)
    )
    return -math.log(s_pos / (s_pos + s_neg))


# ------------------------------------------------------------------ Batch


class TestBatch:
    def test_positive_and_negative_index_sets(self):
        batch = orthogonal_batch([0, 0, 1, 0, 1])
        assert list(batch.positives(0)) == [1, 3]
        assert list(batch.negatives(0)) == [2, 4]
        assert list(batch.positives(2)) == [4]

    @pytest.mark.parametrize(
        "x, pattern",
        [
            (2, "out of range"),
            (1.0, r"^sample index must be an integer, got 1\.0$"),
            (True, r"^sample index must be an integer, got True$"),
            ("0", r"^sample index must be an integer, got '0'$"),
        ],
    )
    def test_index_out_of_range(self, x, pattern):
        batch = orthogonal_batch([0, 1])
        with pytest.raises(ValueError, match=pattern):
            batch.positives(x)
        with pytest.raises(ValueError, match=pattern):
            scl_loss(batch, x, 0.5)

    def test_label_shape_mismatch(self):
        with pytest.raises(ValueError, match="labels"):
            Batch(z=np.eye(3), labels=np.array([0, 1]), descriptions=np.ones((3, 1, 3)))

    @pytest.mark.parametrize(
        "labels, message",
        [
            (np.array([0.0, 1.5, 1.0]), " must hold integers, got dtype float64"),
            ([0.0, 1.5, 1.0], r"\[0\] must be an integer, got 0\.0"),
            (np.array([False, True, True]), " must hold integers, got dtype bool"),
            ([False, True, True], r"\[0\] must be an integer, got False"),
        ],
    )
    def test_non_integer_labels_rejected(self, labels, message):
        with pytest.raises(ValueError, match=rf"^labels{message}$"):
            Batch(z=np.eye(3), labels=labels, descriptions=np.ones((3, 1, 3)))

    def test_labels_beyond_int64_rejected(self):
        labels = np.array([0, 2**63, 1], dtype=np.uint64)
        with pytest.raises(ValueError, match=r"^labels must fit in an int64, got 9223372036854775808$"):
            Batch(z=np.eye(3), labels=labels, descriptions=np.ones((3, 1, 3)))

    def test_integer_labels_of_any_width_accepted(self):
        batch = Batch(z=np.eye(3), labels=np.array([0, 1, 1], dtype=np.int16), descriptions=np.ones((3, 1, 3)))
        assert batch.labels.dtype == np.int64
        assert list(batch.positives(1)) == [2]

    def test_description_dim_mismatch(self):
        with pytest.raises(ValueError, match="description dim"):
            Batch(z=np.eye(3), labels=np.zeros(3, dtype=int), descriptions=np.ones((3, 1, 4)))

    @pytest.mark.parametrize(
        "descriptions, pattern",
        [
            (np.ones((3, 3)), r"^descriptions must be a non-empty 3-D array, got shape \(3, 3\)$"),
            (np.ones((2, 1, 3)), r"^descriptions must be \(B, K, d\), got \(2, 1, 3\)$"),
            (np.full((3, 1, 3), np.nan), r"^descriptions contains non-finite entries$"),
            (np.ones((3, 0, 3)), r"^descriptions must be a non-empty 3-D array, got shape \(3, 0, 3\)$"),
        ],
    )
    def test_malformed_descriptions_rejected(self, descriptions, pattern):
        with pytest.raises(ValueError, match=pattern):
            Batch(z=np.eye(3), labels=np.zeros(3, dtype=int), descriptions=descriptions)

    def test_non_finite_rejected(self):
        z = np.eye(2)
        z[0, 0] = float("nan")
        with pytest.raises(ValueError, match="non-finite"):
            Batch(z=z, labels=np.zeros(2, dtype=int), descriptions=np.ones((2, 1, 2)))


class TestHyperParams:
    def test_defaults_validate(self):
        HyperParams()

    def test_zero_epochs_allowed(self):
        HyperParams(epochs_current=0, epochs_memory=0)

    @pytest.mark.parametrize(
        "kwargs, pattern",
        [
            ({"tau": 0.0}, "tau"),
            ({"margin": 0.0}, "margin"),
            ({"margin": 1.5}, "margin"),
            ({"beta_sc": -0.1}, "non-negative"),
            ({"beta_sc": 0.0, "beta_st": 0.0, "beta_hm": 0.0, "beta_mi": 0.0}, "at least one"),
            ({"alpha": 1.2}, "alpha"),
            ({"epsilon": 0.0}, "epsilon"),
            ({"k_desc": 0}, "k_desc"),
            ({"memory_size": 0}, "memory_size"),
            ({"epochs_current": -1}, "epoch"),
            ({"learning_rate": 0.0}, "learning_rate"),
            ({"epochs_current": 2.5}, r"^epochs_current must be an integer, got 2\.5$"),
            ({"memory_size": 2.5}, r"^memory_size must be an integer, got 2\.5$"),
            ({"k_desc": True}, r"^k_desc must be an integer, got True$"),
            ({"beta_sc": math.nan}, r"^beta_sc must be a finite numeric value, got nan$"),
            ({"beta_mi": math.inf}, r"^beta_mi must be a finite numeric value, got inf$"),
            ({"tau": "0.1"}, r"^tau must be a finite numeric value, got '0\.1'$"),
        ],
    )
    def test_constraint_violations(self, kwargs, pattern):
        with pytest.raises(ValueError, match=pattern):
            HyperParams(**kwargs)

    def test_numpy_scalars_accepted(self):
        HyperParams(tau=np.float64(0.2), k_desc=np.int64(3), alpha=np.float32(0.5))

    def test_replace_checks_the_new_value(self):
        with pytest.raises(ValueError, match=r"^tau must be positive, got 0\.0$"):
            dataclasses.replace(HyperParams(), tau=0.0)
        with pytest.raises(ValueError, match=r"^k_desc must be an integer, got 2\.5$"):
            dataclasses.replace(HyperParams(), k_desc=2.5)


# -------------------------------------------------------------------- SCL


class TestSclLoss:
    def test_two_sample_same_label_is_exactly_zero(self):
        batch = orthogonal_batch([0, 0])
        result = scl_loss(batch, 0, tau=0.5)
        assert result.value == 0.0
        assert np.array_equal(result.grad_z, np.zeros((2, 2)))
        assert not result.no_positive

    def test_orthogonal_triple_gives_log_two(self):
        batch = orthogonal_batch([0, 0, 1])
        result = scl_loss(batch, 0, tau=1.0)
        np.testing.assert_allclose(result.value, math.log(2.0), rtol=1e-12)

    def test_no_positive_flag(self):
        batch = orthogonal_batch([0, 1, 1])
        result = scl_loss(batch, 0, tau=1.0)
        assert result.value == 0.0
        assert result.no_positive
        assert np.array_equal(result.grad_z, np.zeros((3, 3)))

    def test_denominator_spans_whole_batch(self):
        # Adding an extra positive to the batch must change the denominator
        # for x even though it is not a negative.
        rng = np.random.default_rng(42)
        batch3 = random_batch(rng, size=4, n_relations=2)
        np.testing.assert_allclose(
            scl_loss(batch3, 0, 0.7).value, scl_oracle(batch3, 0, 0.7), rtol=1e-10
        )

    def test_value_matches_oracle(self):
        rng = np.random.default_rng(42)
        for _ in range(30):
            batch = random_batch(rng)
            tau = float(rng.uniform(0.1, 1.5))
            for x in range(batch.size):
                result = scl_loss(batch, x, tau)
                if result.no_positive:
                    continue
                np.testing.assert_allclose(
                    result.value, scl_oracle(batch, x, tau), rtol=1e-10
                )

    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(42)
        checked = 0
        while checked < 20:
            batch = random_batch(rng)
            x = int(rng.integers(0, batch.size))
            result = scl_loss(batch, x, 0.5)
            if result.no_positive:
                continue

            def objective(flat):
                z = flat.reshape(batch.z.shape)
                return scl_loss(
                    Batch(z=z, labels=batch.labels, descriptions=batch.descriptions),
                    x,
                    0.5,
                ).value

            fd = num_grad(objective, batch.z.ravel(), eps=1e-6)
            assert rel_err(result.grad_z.ravel(), fd) < 1e-6
            checked += 1

    def test_small_batch_rejected(self):
        batch = orthogonal_batch([0])
        with pytest.raises(ValueError, match="two samples"):
            scl_loss(batch, 0, 1.0)

    def test_tau_must_be_positive(self):
        with pytest.raises(ValueError, match="tau"):
            scl_loss(orthogonal_batch([0, 0]), 0, 0.0)


# ------------------------------------------------------------------- HSMT


class TestHsmtLoss:
    def test_equidistant_pos_neg_is_zero(self):
        batch = orthogonal_batch([0, 0, 1])  # both pairs at distance sqrt(2)
        result = hsmt_loss(batch, 0)
        assert result.value == 0.0
        assert not result.clamped

    def test_hand_value_negative_one(self):
        # positive at distance 1, negative at distance 0:
        # -log(1 + e^1 - e^0) = -log(e) = -1
        batch = Batch(
            z=np.array([[0.0], [1.0], [0.0]]),
            labels=np.array([0, 0, 1]),
            descriptions=np.ones((3, 1, 1)),
        )
        result = hsmt_loss(batch, 0)
        np.testing.assert_allclose(result.value, -1.0, rtol=1e-12)

    def test_clamp_floors_argument(self):
        # positive at distance 0, negative far away: 1 + 1 - e^big <= 1e-6
        batch = Batch(
            z=np.array([[0.0], [0.0], [10.0]]),
            labels=np.array([0, 0, 1]),
            descriptions=np.ones((3, 1, 1)),
        )
        result = hsmt_loss(batch, 0)
        np.testing.assert_allclose(result.value, -math.log(1e-6), rtol=1e-12)
        assert result.clamped
        assert np.array_equal(result.grad_z, np.zeros((3, 1)))

    def test_missing_pair_flag(self):
        all_same = orthogonal_batch([0, 0, 0])
        result = hsmt_loss(all_same, 0)
        assert result.value == 0.0 and result.no_pair
        no_pos = orthogonal_batch([0, 1, 1])
        assert hsmt_loss(no_pos, 0).no_pair

    def test_value_matches_oracle(self):
        rng = np.random.default_rng(42)
        for _ in range(30):
            batch = random_batch(rng)
            for x in range(batch.size):
                result = hsmt_loss(batch, x)
                if result.no_pair:
                    continue
                np.testing.assert_allclose(
                    result.value, hsmt_oracle(batch, x), rtol=1e-10
                )

    def test_selection_ties_prefer_lowest_index(self):
        # two positives at identical distance; gradient must hit index 1 only
        batch = Batch(
            z=np.array([[0.0, 0.0], [1.0, 0.0], [-1.0, 0.0], [0.0, 1.2]]),
            labels=np.array([0, 0, 0, 1]),
            descriptions=np.ones((4, 1, 2)),
        )
        result = hsmt_loss(batch, 0)
        assert not result.clamped
        assert np.any(result.grad_z[1] != 0.0)
        assert np.array_equal(result.grad_z[2], np.zeros(2))

    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(42)
        checked = 0
        while checked < 20:
            batch = random_batch(rng)
            x = int(rng.integers(0, batch.size))
            result = hsmt_loss(batch, x)
            if result.no_pair or result.clamped:
                continue
            pos = batch.positives(x)
            neg = batch.negatives(x)
            pos_d = sorted(euclidean(batch.z[x], batch.z[p]) for p in pos)
            neg_d = sorted(euclidean(batch.z[x], batch.z[n]) for n in neg)
            # skip instances near a selection tie; the subgradient jumps there
            if len(pos_d) > 1 and pos_d[-1] - pos_d[-2] < 1e-4:
                continue
            if len(neg_d) > 1 and neg_d[1] - neg_d[0] < 1e-4:
                continue

            def objective(flat):
                z = flat.reshape(batch.z.shape)
                return hsmt_loss(
                    Batch(z=z, labels=batch.labels, descriptions=batch.descriptions), x
                ).value

            fd = num_grad(objective, batch.z.ravel(), eps=1e-6)
            assert rel_err(result.grad_z.ravel(), fd) < 1e-6
            checked += 1


# ------------------------------------------------------------- mining / HM


class TestMineHard:
    def test_perfectly_separated_clusters_mine_nothing(self):
        anchor = np.array([1.0, 0.0])
        batch = Batch(
            z=np.array([[1.0, 0.0], [1.0, 0.0], [-1.0, 0.0]]),
            labels=np.array([0, 0, 1]),
            descriptions=np.tile(anchor, (3, 1, 1)),
        )
        sets = mine_hard(batch, 0, 0)
        assert sets.hard_positives == ()
        assert sets.hard_negatives == ()

    def test_inverted_geometry_mines_everything(self):
        anchor = np.array([1.0, 0.0])
        batch = Batch(
            z=np.array([[1.0, 0.0], [-1.0, 0.0], [1.0, 0.0]]),
            labels=np.array([0, 0, 1]),
            descriptions=np.tile(anchor, (3, 1, 1)),
        )
        sets = mine_hard(batch, 0, 0)
        assert sets.hard_positives == (1,)
        assert sets.hard_negatives == (2,)

    def test_exact_threshold_equality_is_not_hard(self):
        # positive and negative at identical cosine distance: strict
        # inequalities keep both sets empty
        anchor = np.array([1.0, 0.0])
        batch = Batch(
            z=np.array([[1.0, 0.0], [0.0, 1.0], [0.0, 1.0]]),
            labels=np.array([0, 0, 1]),
            descriptions=np.tile(anchor, (3, 1, 1)),
        )
        sets = mine_hard(batch, 0, 0)
        assert sets.hard_positives == ()
        assert sets.hard_negatives == ()

    def test_matches_oracle(self):
        rng = np.random.default_rng(42)
        for _ in range(60):
            batch = random_batch(rng, k_desc=3)
            for x in range(batch.size):
                if batch.positives(x).size == 0 or batch.negatives(x).size == 0:
                    continue
                for k in range(batch.k_desc):
                    sets = mine_hard(batch, x, k)
                    hard_pos, hard_neg = mine_oracle(batch, x, k)
                    assert sets.hard_positives == hard_pos
                    assert sets.hard_negatives == hard_neg

    def test_per_k_mining_differs_across_descriptions(self):
        # anchors pointing at opposite clusters flip which examples are hard
        batch = Batch(
            z=np.array([[1.0, 0.0], [0.9, 0.1], [-1.0, 0.0]]),
            labels=np.array([0, 0, 1]),
            descriptions=np.stack(
                [np.array([[1.0, 0.0], [-1.0, 0.0]])] * 3
            ),
        )
        near = mine_hard(batch, 0, 0)
        far = mine_hard(batch, 0, 1)
        assert near.hard_positives != far.hard_positives or (
            near.hard_negatives != far.hard_negatives
        )

    def test_empty_sets_rejected(self):
        batch = orthogonal_batch([0, 0])
        with pytest.raises(ValueError, match="no negatives"):
            mine_hard(batch, 0, 0)
        batch = orthogonal_batch([0, 1])
        with pytest.raises(ValueError, match="no positives"):
            mine_hard(batch, 0, 0)

    @pytest.mark.parametrize(
        "x, k, pattern",
        [
            (0, 1, "description index"),
            (0, True, r"^description index must be an integer, got True$"),
            (1.0, 0, r"^sample index must be an integer, got 1\.0$"),
        ],
    )
    def test_k_out_of_range(self, x, k, pattern):
        batch = orthogonal_batch([0, 0, 1])
        with pytest.raises(ValueError, match=pattern):
            mine_hard(batch, x, k)


class TestHmLoss:
    def test_empty_hard_sets_give_exact_zero(self):
        anchor = np.array([1.0, 0.0])
        batch = Batch(
            z=np.array([[1.0, 0.0], [1.0, 0.0], [-1.0, 0.0]]),
            labels=np.array([0, 0, 1]),
            descriptions=np.tile(anchor, (3, 1, 1)),
        )
        result = hm_loss(batch, 0, margin=0.5)
        assert result.value == 0.0
        assert np.array_equal(result.grad_z, np.zeros((3, 2)))

    def test_hand_value_inverted_pair(self):
        # hard positive at cos -1 contributes (1-(-1))^2 = 4; hard negative
        # at cos 1 contributes (0.5 - 1 + 1)^2 = 0.25; total 4.25
        anchor = np.array([1.0, 0.0])
        batch = Batch(
            z=np.array([[1.0, 0.0], [-1.0, 0.0], [1.0, 0.0]]),
            labels=np.array([0, 0, 1]),
            descriptions=np.tile(anchor, (3, 1, 1)),
        )
        result = hm_loss(batch, 0, margin=0.5)
        np.testing.assert_allclose(result.value, 4.25, rtol=1e-12)

    def test_margin_gate_zeroes_far_negatives(self):
        # hard negative with cos < 1 - margin contributes nothing
        anchor = np.array([1.0, 0.0])
        z_neg = np.array([math.cos(1.4), math.sin(1.4)])  # cos ~ 0.17 < 0.5
        batch = Batch(
            z=np.array([[1.0, 0.0], [-1.0, 0.0], z_neg]),
            labels=np.array([0, 0, 1]),
            descriptions=np.tile(anchor, (3, 1, 1)),
        )
        result = hm_loss(batch, 0, margin=0.5)
        np.testing.assert_allclose(result.value, 4.0, rtol=1e-12)
        assert np.array_equal(result.grad_z[2], np.zeros(2))

    def test_missing_pair_contributes_zero(self):
        batch = orthogonal_batch([0, 0, 0])
        result = hm_loss(batch, 0, margin=0.5)
        assert result.value == 0.0 and result.no_pair

    def test_value_matches_oracle(self):
        rng = np.random.default_rng(42)
        for _ in range(30):
            batch = random_batch(rng, k_desc=3)
            margin = float(rng.uniform(0.2, 1.0))
            for x in range(batch.size):
                result = hm_loss(batch, x, margin)
                np.testing.assert_allclose(
                    result.value, hm_oracle(batch, x, margin), rtol=1e-10, atol=1e-14
                )

    def test_anchor_sample_receives_no_gradient(self):
        rng = np.random.default_rng(42)
        for _ in range(20):
            batch = random_batch(rng, k_desc=2)
            for x in range(batch.size):
                result = hm_loss(batch, x, 0.5)
                assert np.array_equal(result.grad_z[x], np.zeros(batch.embed_dim))

    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(42)
        checked = 0
        while checked < 20:
            batch = random_batch(rng, k_desc=2)
            x = int(rng.integers(0, batch.size))
            result = hm_loss(batch, x, 0.5)
            if result.no_pair or result.value == 0.0:
                continue
            if _near_mining_boundary(batch, x, 0.5):
                continue

            def objective(flat):
                z = flat.reshape(batch.z.shape)
                return hm_loss(
                    Batch(z=z, labels=batch.labels, descriptions=batch.descriptions),
                    x,
                    0.5,
                ).value

            fd = num_grad(objective, batch.z.ravel(), eps=1e-6)
            assert rel_err(result.grad_z.ravel(), fd) < 1e-6
            checked += 1

    def test_margin_validated(self):
        with pytest.raises(ValueError, match="margin"):
            hm_loss(orthogonal_batch([0, 0, 1]), 0, margin=0.0)


def _near_mining_boundary(batch, x, margin, gap=1e-4):
    """True when FD perturbation could flip a mining set or margin gate."""
    pos = batch.positives(x)
    neg = batch.negatives(x)
    for k in range(batch.k_desc):
        anchor = batch.descriptions[x, k]
        pd = [1.0 - cosine(anchor, batch.z[p]) for p in pos]
        nd = [1.0 - cosine(anchor, batch.z[n]) for n in neg]
        lo = min(nd)
        hi = max(pd)
        if any(abs(d - lo) < gap for d in pd):
            return True
        if any(abs(d - hi) < gap for d in nd):
            return True
        if any(abs(margin - d) < gap for d in nd):  # max(0, margin - dist) kink
            return True
    return False


# --------------------------------------------------------------------- MI


class TestMiLoss:
    def test_no_negatives_exactly_zero(self):
        batch = orthogonal_batch([0, 0, 0])
        result = mi_loss(batch, 0, np.eye(3), tau=0.5)
        assert result.value == 0.0
        assert np.array_equal(result.grad_z_x, np.zeros(3))
        assert np.array_equal(result.grad_w, np.zeros((3, 3)))
        assert result.no_negative

    def test_uniform_scores_give_log_two(self):
        # zero embedding makes every bilinear score equal, so one negative
        # sample halves the positive mass
        batch = Batch(
            z=np.array([[0.0, 0.0], [1.0, 0.0]]),
            labels=np.array([0, 1]),
            descriptions=np.stack([np.eye(2), np.eye(2)]),
        )
        result = mi_loss(batch, 0, np.eye(2), tau=1.0)
        np.testing.assert_allclose(result.value, math.log(2.0), rtol=1e-12)

    def test_value_matches_oracle(self):
        rng = np.random.default_rng(42)
        for _ in range(30):
            batch = random_batch(rng, k_desc=3)
            w = np.eye(batch.embed_dim) + 0.1 * rng.normal(
                size=(batch.embed_dim, batch.embed_dim)
            )
            tau = float(rng.uniform(0.3, 1.5))
            for x in range(batch.size):
                result = mi_loss(batch, x, w, tau)
                np.testing.assert_allclose(
                    result.value, mi_oracle(batch, x, w, tau), rtol=1e-10, atol=1e-14
                )

    def test_value_non_negative(self):
        rng = np.random.default_rng(9)
        for _ in range(30):
            batch = random_batch(rng, k_desc=2)
            w = np.eye(batch.embed_dim)
            for x in range(batch.size):
                assert mi_loss(batch, x, w, 0.5).value >= 0.0

    def test_duplicate_relation_negatives_count_per_sample(self):
        z = np.array([[1.0, 0.0], [0.0, 1.0], [0.0, 1.0], [0.5, 0.5]])
        desc = np.stack([np.eye(2)[0:1], np.eye(2)[1:2], np.eye(2)[1:2], np.eye(2)[1:2]])
        one = Batch(z=z[:2], labels=np.array([0, 1]), descriptions=desc[:2])
        two = Batch(z=z[:3], labels=np.array([0, 1, 1]), descriptions=desc[:3])
        v1 = mi_loss(one, 0, np.eye(2), 1.0).value
        v2 = mi_loss(two, 0, np.eye(2), 1.0).value
        assert v2 > v1  # the second copy of the same relation adds mass

    def test_gradients_match_finite_differences(self):
        rng = np.random.default_rng(42)
        checked = 0
        while checked < 20:
            batch = random_batch(rng, k_desc=2)
            x = int(rng.integers(0, batch.size))
            w = np.eye(batch.embed_dim) + 0.1 * rng.normal(
                size=(batch.embed_dim, batch.embed_dim)
            )
            result = mi_loss(batch, x, w, 0.5)
            if result.no_negative:
                continue

            def objective_z(zx):
                z = batch.z.copy()
                z[x] = zx
                return mi_loss(
                    Batch(z=z, labels=batch.labels, descriptions=batch.descriptions),
                    x,
                    w,
                    0.5,
                ).value

            def objective_w(flat):
                return mi_loss(batch, x, flat.reshape(w.shape), 0.5).value

            fd_z = num_grad(objective_z, batch.z[x], eps=1e-6)
            fd_w = num_grad(objective_w, w.ravel(), eps=1e-6)
            assert rel_err(result.grad_z_x, fd_z) < 1e-6
            assert rel_err(result.grad_w.ravel(), fd_w) < 1e-6
            checked += 1

    def test_monotone_in_own_alignment(self):
        # raising z^T W d for the own description, all else fixed, must
        # lower the loss along the whole path
        desc = np.stack([np.eye(2)[0:1], np.eye(2)[1:2]])
        values = []
        for t in np.linspace(-1.0, 1.0, 21):
            batch = Batch(
                z=np.array([[t, 0.5], [0.0, 1.0]]),
                labels=np.array([0, 1]),
                descriptions=desc,
            )
            values.append(mi_loss(batch, 0, np.eye(2), 0.5).value)
        assert all(a > b for a, b in zip(values, values[1:]))

    def test_w_shape_checked(self):
        batch = orthogonal_batch([0, 1])
        with pytest.raises(ValueError, match="W must be"):
            mi_loss(batch, 0, np.eye(3), 1.0)


# ------------------------------------------------------------------ joint


def described_batch(rng, z, labels, k_desc=2):
    """Batch over given embeddings with K random unit descriptions per label."""
    z = np.asarray(z, dtype=np.float64)
    labels = np.asarray(labels)
    per_label = {}
    for label in np.unique(labels):
        block = rng.normal(size=(k_desc, z.shape[1]))
        per_label[int(label)] = block / np.linalg.norm(block, axis=1, keepdims=True)
    descriptions = np.stack([per_label[int(l)] for l in labels])
    return Batch(z=z, labels=labels, descriptions=descriptions)


def perturbed_copy(batch, rng):
    """``batch`` with one sample's description block moved off its label's block."""
    i = next(j for j in range(batch.size) if np.count_nonzero(batch.labels == batch.labels[j]) > 1)
    descriptions = batch.descriptions.copy()
    descriptions[i] += 0.05 * rng.normal(size=descriptions[i].shape)
    return Batch(z=batch.z, labels=batch.labels, descriptions=descriptions)


def tied_farthest_batch():
    """Label 0's positives 1 and 2 tie for the farthest spot from its description.

    Both sit at cosine 0 from d = (1, 0), so top2 = top1: anchor 1, the
    lowest-index farthest, still has sample 2 at that distance, and the
    negative 3 at distance 0.4 is hard for every anchor of label 0.
    """
    z = np.array([[1.0, 0.1], [0.0, 1.0], [0.0, -1.0], [0.6, 0.8], [-0.5, 0.2]])
    descriptions = np.array([[[1.0, 0.0]]] * 3 + [[[0.0, 1.0]]] * 2)
    return Batch(z=z, labels=np.array([0, 0, 0, 1, 1]), descriptions=descriptions)


def farthest_positive_batch(rng, same_pass):
    """B=64 at d=16 built around label 0's farthest positive.

    Label 0 holds samples 0-3 next to its description d and one more at
    cosine distance 0.4 from d, its farthest positive, with a negative
    (sample 7) at 0.3: hard for every anchor of label 0 but the farthest
    one, and inside the 0.5 margin, so HM counts it.  The farthest
    positive is sample 5, next to 0-3, or 50, far from them in the
    batch order.
    """
    far = 5 if same_pass else 50
    labels = rng.integers(1, 6, size=64)
    labels[[0, 1, 2, 3, far]] = 0
    batch = described_batch(rng, rng.normal(size=(64, 16)), labels, k_desc=1)
    d = batch.descriptions[0, 0]
    side = rng.normal(size=16)
    side -= (side @ d) * d
    side /= np.linalg.norm(side)
    z = batch.z.copy()
    z[:4] = d + 0.05 * rng.normal(size=(4, 16))
    z[far] = 0.6 * d + 0.8 * side
    z[7] = 0.7 * d + math.sqrt(0.51) * side
    return Batch(z=z, labels=labels, descriptions=batch.descriptions)


def kernel_oracle_cases():
    """Batches on which the kernel must match the per-anchor reference."""
    rng = np.random.default_rng(42)
    cases = [random_batch(rng, k_desc=2) for _ in range(10)]
    z = rng.normal(size=(5, 4))
    cases.append(described_batch(rng, z, [0, 1, 2, 3, 4]))  # every label a singleton
    cases.append(described_batch(rng, z[:4], [3, 3, 3, 3]))  # one label only
    cases.append(described_batch(rng, z[:2], [0, 1]))  # B=2, no positives
    cases.append(described_batch(rng, z[:2], [0, 0]))  # B=2, no negatives
    coincident = z.copy()
    coincident[1] = coincident[0]  # the only positive of 0 sits on it
    coincident[4] = coincident[0]  # and so does a negative
    cases.append(described_batch(rng, coincident, [0, 0, 1, 1, 2]))
    # positives 1 and 2 both exactly at distance 1 from sample 0
    equal = np.array([[0.0, 1.0], [1.0, 1.0], [-1.0, 1.0], [0.0, 2.2]])
    cases.append(described_batch(rng, equal, [0, 0, 0, 1], k_desc=1))
    # coincident positives and a negative at log(2) - 1e-7: the argument
    # 1 + e^0 - e^dn is about 2e-7, positive but below the 1e-6 clamp
    near_floor = 1.0 + math.log(2.0) - 1e-7
    cases.append(described_batch(rng, [[1.0], [1.0], [near_floor]], [0, 0, 1]))
    cases.append(random_batch(rng, k_desc=1))  # K=1
    cases.append(random_batch(rng, size=64, embed_dim=16, k_desc=7, n_relations=8))  # 4 passes
    cases.append(random_batch(rng, size=32, embed_dim=16, k_desc=7, n_relations=5))  # 1 pass
    shared = random_batch(rng, size=12, k_desc=3, n_relations=3)  # one class per label
    cases += [shared, perturbed_copy(shared, rng)]  # and classes of one
    cases.append(tied_farthest_batch())
    cases.append(farthest_positive_batch(rng, same_pass=False))
    cases.append(farthest_positive_batch(rng, same_pass=True))
    return cases


def kernel_blocks(batch, layout=None):
    """(start, stop) anchor rows of each kernel pass of one ``joint_loss`` call.

    With a ``layout``, of one ``_joint`` call on the batch's z and that layout.
    """
    blocks = []
    real = losses._Kernel.scl

    def counting(self, *args):
        blocks.append((self.layout.rows.start, self.layout.rows.stop))
        return real(self, *args)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(losses._Kernel, "scl", counting)
        if layout is None:
            joint_loss(batch, HyperParams(), np.eye(batch.embed_dim))
        else:
            losses._joint(batch.z, layout, HyperParams(), np.eye(batch.embed_dim))
    return blocks


def same_bits(a, b) -> bool:
    a, b = np.asarray(a, dtype=np.float64), np.asarray(b, dtype=np.float64)
    return a.shape == b.shape and np.array_equal(a.view(np.int64), b.view(np.int64))


def assert_close(actual, expected):
    np.testing.assert_allclose(actual, expected, rtol=1e-10, atol=1e-13)


def training_batch_64(rng):
    """A 64-row training batch over 8 relations, at d=16 and K=7.

    Returns its plain twin and its training layout.
    """
    table, rows = rng.normal(size=(8, 7, 16)), rng.integers(0, 8, size=64)
    return plain_twin(table, rows, embedded(rng, 64, 16)), layout_for(table, rows)


class TestKernelBlocks:
    @pytest.mark.parametrize(
        "make",
        [
            lambda rng: (random_batch(rng, size=32, embed_dim=16, k_desc=7, n_relations=4), None),
            lambda rng: (random_batch(rng, size=64, embed_dim=16, k_desc=7, n_relations=4), None),
            lambda rng: (random_batch(rng, size=64, embed_dim=4, k_desc=7, n_relations=4), None),  # K > d
            lambda rng: (random_batch(rng, size=20, embed_dim=1024, k_desc=1, n_relations=4), None),
            training_batch_64,
            lambda rng: (training_batch_64(rng)[0], None),
        ],
        ids=["32-16-7", "64-16-7", "64-4-7", "20-1024-1", "training-64", "plain-twin-64"],
    )
    def test_every_batch_is_one_pass(self, make):
        batch, layout = make(np.random.default_rng(5))
        assert kernel_blocks(batch, layout) == [(0, batch.size)]


class TestDescriptionClasses:
    def test_labels_sharing_descriptions_form_one_class_each(self):
        rng = np.random.default_rng(1)
        batch = random_batch(rng, size=12, k_desc=3, n_relations=3)
        layout = losses._Layout.of_batch(batch, slice(0, batch.size))
        first = [int(np.flatnonzero(batch.labels == label)[0]) for label in (0, 1, 2)]
        assert list(layout.leads) == sorted(first)
        assert np.array_equal(layout.leads[layout.class_of], [first[l] for l in batch.labels])
        assert np.array_equal(layout.class_size, np.bincount(batch.labels)[batch.labels[layout.leads]])

    def test_one_differing_block_makes_every_sample_its_own_class(self):
        rng = np.random.default_rng(1)
        batch = perturbed_copy(random_batch(rng, size=12, k_desc=3, n_relations=3), rng)
        layout = losses._Layout.of_batch(batch, slice(0, batch.size))
        assert np.array_equal(layout.leads, np.arange(12))
        assert np.array_equal(layout.class_of, np.arange(12))

    def test_multi_pass_cases_put_the_farthest_positive_where_named(self):
        rng = np.random.default_rng(2)
        for same_pass, far in ((True, 5), (False, 50)):
            batch = farthest_positive_batch(rng, same_pass)
            assert kernel_blocks(batch) == [(0, 64)]
            dist = np.array([1.0 - cosine(batch.descriptions[0, 0], z) for z in batch.z])
            label0 = np.flatnonzero(batch.labels == 0)
            assert label0[np.argmax(dist[label0])] == far
            # the negative 7 lies between the second-farthest positive and
            # far, inside the margin
            assert sorted(dist[label0])[-2] <= dist[7] < dist[far]
            assert dist[7] < TestJointLoss.HP.margin


class TestJointLoss:
    HP = HyperParams(tau=0.5, margin=0.5, beta_sc=1.0, beta_st=0.7, beta_hm=0.4, beta_mi=1.3)

    def test_equals_weighted_mean_of_parts(self):
        rng = np.random.default_rng(42)
        hp = self.HP
        for batch in kernel_oracle_cases():
            w = np.eye(batch.embed_dim) + 0.05 * rng.normal(
                size=(batch.embed_dim, batch.embed_dim)
            )
            expected = 0.0
            expected_gz = np.zeros_like(batch.z)
            expected_gw = np.zeros_like(w)
            for x in range(batch.size):
                r1 = scl_loss(batch, x, hp.tau)
                r2 = hsmt_loss(batch, x)
                r3 = hm_loss(batch, x, hp.margin)
                r4 = mi_loss(batch, x, w, hp.tau)
                expected += (
                    hp.beta_sc * r1.value
                    + hp.beta_st * r2.value
                    + hp.beta_hm * r3.value
                    + hp.beta_mi * r4.value
                )
                expected_gz += hp.beta_sc * r1.grad_z + hp.beta_st * r2.grad_z
                expected_gz += hp.beta_hm * r3.grad_z
                expected_gz[x] += hp.beta_mi * r4.grad_z_x
                expected_gw += hp.beta_mi * r4.grad_w
            result = joint_loss(batch, hp, w)
            np.testing.assert_allclose(result.value, expected / batch.size, rtol=1e-12)
            np.testing.assert_allclose(result.grad_z, expected_gz / batch.size, rtol=1e-10, atol=1e-15)
            np.testing.assert_allclose(result.grad_w, expected_gw / batch.size, rtol=1e-10, atol=1e-15)

            reference = loss_reference.joint_loss(batch, hp, w)
            assert result.no_positive_count == reference.no_positive_count
            assert result.no_pair_count == reference.no_pair_count
            assert result.clamped_count == reference.clamped_count
            assert_close(result.value, reference.value)
            assert_close(result.grad_z, reference.grad_z)
            assert_close(result.grad_w, reference.grad_w)

    def test_batch_hsmt_scatters_in_the_reference_order(self):
        # two samples often share a p* or an n*, so the order of the
        # scatter-adds sets the gradient's bits
        rng = np.random.default_rng(8)
        cases = kernel_oracle_cases() + [tied_batch(rng, 64, 16), tied_batch(rng, 33, 4)]
        for batch in cases:
            term = losses._Kernel(batch.z, losses._Layout.of_batch(batch, slice(0, batch.size))).hsmt()
            values, grad = loss_reference.batch_hard_hsmt(batch.z, batch.labels)
            assert same_bits(term.values, values)
            assert same_bits(term.grad_z, grad)

    def test_terms_add_up_from_zero_in_order(self):
        # SCL, HSMT, HM and MI, each onto zeros: a zero start turns a
        # -0.0 into 0.0, so it is part of the bits
        rng = np.random.default_rng(9)
        hp = self.HP
        for batch in kernel_oracle_cases():
            w = np.eye(batch.embed_dim) + 0.05 * rng.normal(size=(batch.embed_dim,) * 2)
            kernel = losses._Kernel(batch.z, losses._Layout.of_batch(batch, slice(0, batch.size)))
            terms = [
                (hp.beta_sc, kernel.scl(hp.tau)),
                (hp.beta_st, kernel.hsmt()),
                (hp.beta_hm, kernel.hm(hp.margin)),
                (hp.beta_mi, kernel.mi(w, hp.tau)),
            ]
            total, grad_z, grad_w = 0.0, np.zeros(batch.z.shape), np.zeros(w.shape)
            for beta, term in terms:
                total += beta * float(np.sum(term.values))
                grad_z += beta * term.grad_z
            grad_w += hp.beta_mi * terms[3][1].grad_w
            result = joint_loss(batch, hp, w)
            assert result.value == total * (1.0 / batch.size)
            assert same_bits(result.grad_z, grad_z * (1.0 / batch.size))
            assert same_bits(result.grad_w, grad_w * (1.0 / batch.size))

    def test_views_match_per_anchor_reference(self):
        rng = np.random.default_rng(7)
        hp = self.HP
        for batch in kernel_oracle_cases():
            w = np.eye(batch.embed_dim) + 0.05 * rng.normal(
                size=(batch.embed_dim, batch.embed_dim)
            )
            for x in range(batch.size):
                got, ref = scl_loss(batch, x, hp.tau), loss_reference.scl_loss(batch, x, hp.tau)
                assert got.no_positive == ref.no_positive
                assert_close(got.value, ref.value)
                assert_close(got.grad_z, ref.grad_z)

                got, ref = hsmt_loss(batch, x), loss_reference.hsmt_loss(batch, x)
                assert (got.no_pair, got.clamped) == (ref.no_pair, ref.clamped)
                assert_close(got.value, ref.value)
                assert_close(got.grad_z, ref.grad_z)

                got = hm_loss(batch, x, hp.margin)
                ref = loss_reference.hm_loss(batch, x, hp.margin)
                assert got.no_pair == ref.no_pair
                assert_close(got.value, ref.value)
                assert_close(got.grad_z, ref.grad_z)

                got = mi_loss(batch, x, w, hp.tau)
                ref = loss_reference.mi_loss(batch, x, w, hp.tau)
                assert got.no_negative == ref.no_negative
                assert_close(got.value, ref.value)
                assert_close(got.grad_z_x, ref.grad_z_x)
                assert_close(got.grad_w, ref.grad_w)

                if batch.positives(x).size and batch.negatives(x).size:
                    for k in range(batch.k_desc):
                        assert mine_hard(batch, x, k) == loss_reference.mine_hard(batch, x, k)

    def test_coincident_points_get_the_zero_subgradient(self):
        # sample 1 coincides with anchor 0 and is its only positive; the
        # distance has no derivative there, so the pair contributes nothing
        rng = np.random.default_rng(3)
        z = rng.normal(size=(3, 4))
        z[1] = z[0]
        z[2] = z[0] + np.array([0.3, -0.2, 0.0, 0.1])  # near enough to stay off the clamp
        batch = described_batch(rng, z, [0, 0, 1])
        result = hsmt_loss(batch, 0)
        assert not result.clamped and np.all(np.isfinite(result.grad_z))
        assert np.array_equal(result.grad_z[1], np.zeros(4))
        unit = (z[0] - z[2]) / np.linalg.norm(z[0] - z[2])
        d_n = np.linalg.norm(z[0] - z[2])
        coeff = math.exp(d_n) / (2.0 - math.exp(d_n))
        np.testing.assert_allclose(result.grad_z[0], coeff * unit, rtol=1e-12)
        np.testing.assert_allclose(result.grad_z[2], -coeff * unit, rtol=1e-12)

    def test_transient_memory_stays_under_one_megabyte(self):
        rng = np.random.default_rng(42)
        batch = random_batch(rng, size=64, embed_dim=16, k_desc=7, n_relations=8)
        w = np.eye(16)
        joint_loss(batch, HyperParams(), w)  # warm caches outside the measurement
        tracemalloc.start()
        try:
            joint_loss(batch, HyperParams(), w)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1_000_000, f"joint_loss peaked at {peak} bytes"

    def test_linear_in_each_beta(self):
        rng = np.random.default_rng(7)
        batch = random_batch(rng, k_desc=2)
        w = np.eye(batch.embed_dim)

        def value(beta_mi):
            return joint_loss(
                batch, HyperParams(beta_mi=beta_mi, tau=0.5), w
            ).value

        base = value(0.0)
        np.testing.assert_allclose(
            value(2.0) - base, 2.0 * (value(1.0) - base), rtol=1e-12
        )

    def test_degenerate_flags_counted(self):
        # one singleton label: its sample has no positives (counted once by
        # SCL) and no positive-negative pair (counted once by HSMT)
        batch = orthogonal_batch([0, 0, 1])
        result = joint_loss(batch, HyperParams(), np.eye(3))
        assert result.no_positive_count == 1
        assert result.no_pair_count == 1

    def test_disabled_terms_are_skipped(self):
        batch = orthogonal_batch([0, 0, 1])
        hp = HyperParams(beta_sc=1.0, beta_st=0.0, beta_hm=0.0, beta_mi=0.0)
        result = joint_loss(batch, hp, np.eye(3))
        assert result.no_pair_count == 0  # HSMT never ran

    def test_invalid_hyperparams_rejected(self):
        batch = orthogonal_batch([0, 0])
        with pytest.raises(ValueError, match="tau"):
            joint_loss(batch, HyperParams(tau=-1.0), np.eye(2))


# ------------------------------------------------------- mining at exact ties


def tied_batch(rng, size, dim, k_desc=3):
    """Three labels in turn, and three points each shared by a positive and a negative.

    The shared points sit along or against one description of the first
    member's label, at the first, middle and last columns, so they are
    often the closest negative or the farthest positive: an exact tie
    there decides a hard set.
    """
    labels = np.arange(size) % 3
    blocks = rng.normal(size=(3, k_desc, dim))
    blocks /= np.linalg.norm(blocks, axis=2, keepdims=True)
    z = rng.normal(size=(size, dim))
    for first, sign in ((0, 1.0), (size // 2, -1.0), (size - 1, 1.0)):
        group = [first, (first + 1) % size, (first + 3) % size]
        point = sign * blocks[labels[first], rng.integers(k_desc)] + 1e-3 * rng.normal(size=dim)
        z[group] = rng.uniform(0.5, 1.5) * point
    return Batch(z=z, labels=labels, descriptions=blocks[labels])


class TestZeroNormRows:
    """A zero row of z leaves every cosine with it undefined, so the cosine terms reject it."""

    @staticmethod
    def zero_row_batch(labels):
        z = np.array([[1.0, 0.0], [0.0, 0.0], [0.0, 1.0], [1.0, 1.0]])[: len(labels)]
        return Batch(z=z, labels=np.array(labels), descriptions=np.tile(np.eye(2), (len(labels), 1, 1)))

    @pytest.mark.parametrize(
        "call",
        [
            lambda b: scl_loss(b, 0, 0.5),
            lambda b: hm_loss(b, 0, 0.5),
            lambda b: mine_hard(b, 0, 0),
            lambda b: joint_loss(b, HyperParams(), np.eye(2)),
        ],
        ids=["scl", "hm", "mine_hard", "joint"],
    )
    def test_a_zero_row_is_rejected_by_name(self, call):
        batch = self.zero_row_batch([0, 0, 1, 1])
        with pytest.raises(ValueError, match=r"^batch sample 1 has zero norm; cosine is undefined$"):
            call(batch)

    def test_scl_without_a_positive_ignores_a_zero_row(self):
        batch = self.zero_row_batch([0, 1, 2])  # no anchor has a positive
        for x in range(3):
            result = scl_loss(batch, x, 0.5)
            assert result.value == 0.0 and result.no_positive
            assert not result.grad_z.any()


class TestMiningAtTies:
    @pytest.mark.parametrize("size, dim", [(7, 3), (12, 4), (33, 16), (64, 16), (29, 32)])
    def test_coincident_samples_mine_as_the_reference(self, size, dim):
        rng = np.random.default_rng(size * dim)
        for _ in range(4):
            batch = tied_batch(rng, size, dim)
            for x in range(size):
                for k in range(batch.k_desc):
                    assert mine_hard(batch, x, k) == loss_reference.mine_hard(batch, x, k)


@st.composite
def near_tie_batches(draw):
    """Rows that repeat a few points, exactly or one ulp away in one coordinate.

    At the smallest scale, where squared distances underflow, the rows
    may also lie a little apart.  Returns the batch and whether its scale
    keeps every ``joint_loss`` term finite (the smallest underflows SCL's
    norm products).
    """
    dim = draw(st.integers(1, 6))
    size = draw(st.integers(3, 12))
    scale = draw(st.sampled_from([1.0, 2.0**-30, 1e-161]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    points = rng.normal(size=(draw(st.integers(1, 4)), dim)) * scale
    z = points[draw(st.lists(st.integers(0, len(points) - 1), min_size=size, max_size=size))]
    if scale < 1e-100 and draw(st.booleans()):
        z += rng.normal(size=z.shape) * (scale * 0.01)
    moves = st.tuples(st.integers(0, size - 1), st.integers(0, dim - 1), st.sampled_from([-1.0, 1.0]))
    for row, col, toward in draw(st.lists(moves, max_size=size)):
        z[row, col] = np.nextafter(z[row, col], toward * math.inf)
    labels = draw(st.lists(st.integers(0, 2), min_size=size, max_size=size))
    return Batch(z, labels, rng.normal(size=(size, 2, dim))), scale > 1e-100


class TestHsmtNearTies:
    def test_pairs_match_the_full_difference_form(self):
        # where Gram-form distances cannot order the best two candidates,
        # the anchor is decided again from its (B, d) differences, so ties
        # and one-ulp gaps go as the full tensor decided them
        exact_star = losses._Kernel._exact_star
        fallbacks = []

        def counted(kernel, near):
            fallbacks.append(near.size)
            return exact_star(kernel, near)

        hp = HyperParams()

        @given(near_tie_batches())
        @settings(max_examples=300)
        def check(case):
            batch, finite = case
            w = np.eye(batch.embed_dim)
            with mock.patch.object(losses._Kernel, "_exact_star", counted):
                got = [hsmt_loss(batch, x) for x in range(batch.size)]
                got_joint = joint_loss(batch, hp, w) if finite else None
            with mock.patch.object(losses._Kernel, "hsmt", loss_reference.full_difference_hsmt):
                expected = [hsmt_loss(batch, x) for x in range(batch.size)]
                expected_joint = joint_loss(batch, hp, w) if finite else None
            for g, e in zip(got, expected):
                assert (g.no_pair, g.clamped) == (e.no_pair, e.clamped)
                assert same_bits(g.value, e.value)
                assert same_bits(g.grad_z, e.grad_z)
            if finite:
                assert got_joint[3:] == expected_joint[3:]  # clamp and pair counts
                assert same_bits(got_joint.value, expected_joint.value)
                assert same_bits(got_joint.grad_z, expected_joint.grad_z)
                assert same_bits(got_joint.grad_w, expected_joint.grad_w)

        check()
        assert fallbacks, "no case reached the reference form"


# ------------------------------------------------------------ training layouts


TRAINING_HPS = (HyperParams(), TestJointLoss.HP)


def layout_for(table, rows):
    """The layout training builds for samples where sample i carries ``table[rows[i]]``."""
    return losses._Layout.of_rows(np.asarray(rows), losses._stacked(table))


def plain_twin(table, rows, z):
    """Samples where sample i carries ``table[rows[i]]``, with embeddings z, as a plain ``Batch``.

    A sample of table row r has relation id 10 * r + 3.
    """
    rows = np.asarray(rows)
    return Batch(z=z.copy(), labels=10 * rows + 3, descriptions=table[rows])


def assert_same_result(got, expected):
    assert got[3:] == expected[3:]  # the degenerate-input counters
    assert got.value == expected.value
    assert np.array_equal(got.grad_z, expected.grad_z)
    assert np.array_equal(got.grad_w, expected.grad_w)


@st.composite
def pool_cases(draw):
    """A description table, a pool's rows in it, and which pool rows form the batch."""
    dim = draw(st.sampled_from([2, 4, 16]))
    k_desc = draw(st.sampled_from([1, 3, 7]))
    n_rel = draw(st.integers(1, 12))
    size = draw(st.integers(2, 64))
    rows = draw(st.lists(st.integers(0, n_rel - 1), min_size=size, max_size=size))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    table = rng.normal(size=(n_rel, k_desc, dim))
    if n_rel > 1 and draw(st.booleans()):
        table[1] = table[0]  # two relations share one description block
    full = draw(st.booleans())  # the batch is the whole pool, else a minibatch of a larger one
    extra = [] if full else draw(st.lists(st.integers(0, n_rel - 1), min_size=1, max_size=40))
    pool = np.array(rows + extra)
    idx = np.arange(size) if full else rng.permutation(pool.size)[:size]
    duplicates = draw(st.lists(st.tuples(st.integers(0, size - 1), st.integers(0, size - 1)), max_size=4))
    hp = draw(st.sampled_from(TRAINING_HPS))
    return table, pool, idx, duplicates, hp, rng


def embedded(rng, size, dim, duplicates=()):
    z = np.tanh(rng.normal(size=(size, dim)))
    for i, j in duplicates:
        z[j] = z[i]
    return z


class TestTrainingLayout:
    @given(pool_cases())
    @settings(max_examples=120)
    def test_training_layout_equals_a_plain_batch(self, case):
        table, pool, idx, duplicates, hp, rng = case
        dim = table.shape[2]
        w = np.eye(dim) + 0.05 * rng.normal(size=(dim, dim))
        layout = layout_for(table, pool[idx])
        for _ in range(3):  # epochs: a layout holds nothing of z, so one serves every epoch
            z = embedded(rng, idx.size, dim, duplicates)
            twin = plain_twin(table, pool[idx], z)
            assert np.array_equal(twin.descriptions, table[pool[idx]])
            assert_same_result(losses._joint(z, layout, hp, w), joint_loss(twin, hp, w))

    @pytest.mark.parametrize(
        "rows",
        [
            [0, 1, 2, 3, 4, 0],  # singleton labels
            [2, 2, 2, 2],  # one label only
            [0, 1, 0, 1, 2, 2, 0],  # relations 0 and 1 share one block (below)
        ],
    )
    def test_named_cases_are_bit_identical(self, rows):
        rng = np.random.default_rng(len(rows))
        table = rng.normal(size=(5, 3, 4))
        table[1] = table[0]
        for hp in TRAINING_HPS:
            z = embedded(rng, len(rows), 4, [(0, 2)])
            assert_same_result(
                losses._joint(z, layout_for(table, rows), hp, np.eye(4)),
                joint_loss(plain_twin(table, rows, z), hp, np.eye(4)),
            )

    @pytest.mark.parametrize("rows, raises", [([0, 0, 1, 1], True), ([0, 1, 1, 2, 2], False)])
    def test_zero_norm_description_fails_only_when_its_class_is_mined(self, rows, raises):
        rng = np.random.default_rng(3)
        table = rng.normal(size=(3, 2, 4))
        table[0, 1] = 0.0  # relation 0's second description; mined only when 0 has a pair
        hp = HyperParams()
        z = embedded(rng, len(rows), 4)
        twin = plain_twin(table, rows, z)
        for run in (lambda: losses._joint(z, layout_for(table, rows), hp, np.eye(4)),
                    lambda: joint_loss(twin, hp, np.eye(4))):
            if raises:
                with pytest.raises(ValueError, match=r"^anchor has zero norm; cosine is undefined$"):
                    run()
            else:
                run()

    def test_hyperparameters_and_w_are_checked_on_a_plain_batch(self):
        # training's _joint runs no checks: run_task checked W, and hp
        # checks itself when it is built
        rng = np.random.default_rng(4)
        batch = plain_twin(rng.normal(size=(2, 3, 4)), [0, 1, 0, 1], embedded(rng, 4, 4))
        with pytest.raises(ValueError, match=r"^tau must be positive, got 0\.0$"):
            joint_loss(batch, HyperParams(tau=0.0), np.eye(4))
        with pytest.raises(ValueError, match=r"^W must be \(4, 4\), got \(3, 3\)$"):
            joint_loss(batch, HyperParams(), np.eye(3))

    @pytest.mark.parametrize("beta_mi", [0.0, 2.0])
    def test_w_shape_is_checked_whatever_beta_mi(self, beta_mi):
        rng = np.random.default_rng(4)
        batch = plain_twin(rng.normal(size=(2, 3, 4)), [0, 1, 0, 1], embedded(rng, 4, 4))
        with pytest.raises(ValueError, match=r"^W must be \(4, 4\), got \(1, 2\)$"):
            joint_loss(batch, HyperParams(beta_mi=beta_mi), [[1.0, math.nan]])

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_a_non_finite_w_is_rejected(self, bad):
        # both returned a NaN value and non-finite gradients
        rng = np.random.default_rng(4)
        batch = plain_twin(rng.normal(size=(2, 3, 4)), [0, 1, 0, 1], embedded(rng, 4, 4))
        w = np.eye(4)
        w[1, 2] = bad
        with pytest.raises(ValueError, match=r"^W contains non-finite entries$"):
            joint_loss(batch, HyperParams(), w)
        with pytest.raises(ValueError, match=r"^W contains non-finite entries$"):
            mi_loss(batch, 0, w, tau=0.5)

    def test_a_training_step_stays_under_its_call_ceiling(self):
        # cProfile's count of Python and built-in calls in one B=32
        # minibatch step (R=5, K=7, d=16) as training makes it, without
        # values and into a W-gradient buffer: per-call overhead, not
        # arithmetic, sets the cost of a step at training sizes
        rng = np.random.default_rng(0)
        labels = rng.integers(0, 5, size=100)
        hp = HyperParams()
        stack = losses._stacked(rng.normal(size=(5, 7, 16)))
        idx, z, w = rng.permutation(100)[:32], embedded(rng, 32, 16), np.eye(16)
        grad_w = np.empty((16, 16))
        # a first step imports anything imported lazily
        losses._joint(z, losses._Layout.of_rows(labels[idx], stack), hp, w, grad_w, values=False)
        # a collection inside the step would add the calls of gc.callbacks
        # (Hypothesis registers one), which depend on what ran before
        gc.collect()
        gc.disable()
        profile = cProfile.Profile()
        try:
            profile.enable()
            losses._joint(z, losses._Layout.of_rows(labels[idx], stack), hp, w, grad_w, values=False)
            profile.disable()
        finally:
            gc.enable()
        # summed per code object: pstats keys by (file, line, name) and keeps
        # one of the entries that share a key, such as two namedtuples' __new__
        calls = sum(entry.callcount for entry in profile.getstats())
        assert calls <= 106, f"a training step made {calls} calls"

    def test_transient_memory_of_a_full_batch_stays_under_one_megabyte(self):
        # the largest training batch (64 rows) over 40 relations, as the
        # last replay pool of a default run; the table's norms and unit
        # descriptions and the layout are built inside the measurement
        rng = np.random.default_rng(42)
        rows = np.concatenate([np.arange(40), rng.integers(0, 40, size=24)])
        table = rng.normal(size=(40, 7, 16))
        z = embedded(rng, 64, 16)
        hp = HyperParams()
        losses._joint(z, layout_for(table, rows), hp, np.eye(16))
        tracemalloc.start()
        try:
            losses._joint(z, layout_for(table, rows), hp, np.eye(16))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1_000_000, f"a 64-row training batch peaked at {peak} bytes"

    def test_transient_memory_of_the_last_replay_batch_stays_under_320_kib(self):
        # the last replay pool of a default run, one training step: 35 old
        # relations with one memory row each, then the 5 new ones with 5
        # rows each (B = 60, d = 16, K = 7); it peaked at 620 KiB while
        # HSMT built every anchor's (B, d) differences
        rng = np.random.default_rng(42)
        rows = np.concatenate([np.arange(35), np.repeat(np.arange(35, 40), 5)])
        layout = layout_for(rng.normal(size=(40, 7, 16)), rows)
        z, w, grad_w = embedded(rng, rows.size, 16), np.eye(16), np.empty((16, 16))
        hp = HyperParams()
        losses._joint(z, layout, hp, w, grad_w, values=False)
        tracemalloc.start()
        try:
            losses._joint(z, layout, hp, w, grad_w, values=False)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 320 * 1024, f"the last replay batch's step peaked at {peak} bytes"


def training_step(z, table, rows, hp, w):
    """``_joint`` as a training step calls it: no values, W's gradient into a given buffer."""
    grad_w = np.full(w.shape, np.nan)  # the step must write every entry
    result = losses._joint(z, layout_for(table, rows), hp, w, grad_w, values=False)
    assert result.grad_w is grad_w
    assert result.value is None
    return result


def step_case(name):
    """(table, rows, z) of a named training batch whose lean paths differ from a full pass."""
    rng = np.random.default_rng(len(name))
    table = rng.normal(size=(8, 3, 4))
    if name == "one relation":  # no negatives: no HSMT, HM or MI
        rows = [5] * 6
    elif name == "all singletons":  # no positives: no SCL, HSMT or HM
        rows = [0, 1, 2, 3, 4, 5]
    elif name == "duplicated rows":  # a p* and an n* at distance 0
        rows = [0, 0, 1, 1, 2, 2]
    elif name == "B=2":
        rows = [3, 6]
    else:  # B=64 over every relation, at d=16 and K=7
        table = rng.normal(size=(8, 7, 16))
        rows = rng.integers(0, 8, size=64)
    z = embedded(rng, len(rows), table.shape[2])
    if name == "duplicated rows":
        z[1] = z[0]  # sample 0's only positive
        z[2] = z[0]  # and a negative, so both its p* and its n* lie at distance 0
    return table, np.asarray(rows), z


ONE_BETA_OFF = [
    dataclasses.replace(TestJointLoss.HP, **{beta: 0.0})
    for beta in ("beta_sc", "beta_st", "beta_hm", "beta_mi")
]


class TestTrainingStep:
    """A training step's gradients have ``joint_loss``'s bits, signed zeros included."""

    @pytest.mark.parametrize(
        "name", ["one relation", "all singletons", "duplicated rows", "B=2", "B=64"]
    )
    @pytest.mark.parametrize(
        "hp", [HyperParams(), TestJointLoss.HP] + ONE_BETA_OFF,
        ids=["default", "joint-hp", "no-sc", "no-st", "no-hm", "no-mi"],
    )
    def test_gradients_equal_joint_loss_bit_for_bit(self, name, hp):
        table, rows, z = step_case(name)
        d = table.shape[2]
        w = np.eye(d) + 0.05 * np.random.default_rng(d).normal(size=(d, d))
        got = training_step(z, table, rows, hp, w)
        expected = joint_loss(plain_twin(table, rows, z), hp, w)
        assert got[3:] == expected[3:]  # the degenerate-input counters
        assert same_bits(got.grad_z, expected.grad_z)
        assert same_bits(got.grad_w, expected.grad_w)

    def test_the_duplicated_case_has_a_pair_at_distance_zero(self):
        table, rows, z = step_case("duplicated rows")
        assert list(np.flatnonzero(rows == rows[0])) == [0, 1]
        assert rows[2] != rows[0]
        assert np.array_equal(z[0], z[1]) and np.array_equal(z[0], z[2])
