"""Training objectives over a batch of embeddings, with analytic gradients.

A ``Batch`` carries, per sample: the embedding z (row of ``z``), an
integer relation label, and the K frozen description vectors of that
sample's relation.  Four objectives are defined per anchor sample x:

* ``scl_loss``   -- supervised contrastive loss over the batch, using
  exp(cos/tau) scores with a shared denominator over all other samples.
* ``hsmt_loss``  -- hardest-pair margin term
  -log(1 + exp(d(z_x, p*)) - exp(d(z_x, n*))) where p* is the farthest
  positive and n* the nearest negative (Euclidean distance), clamped
  below at 1e-6 before the log.
* ``hm_loss``    -- description-anchored hard-example mining: per
  description vector k, positives farther (in cosine distance from the
  anchor description) than the closest negative are pulled in
  quadratically, negatives closer than the farthest positive are pushed
  out against a margin m.
* ``mi_loss``    -- InfoNCE-style bound contrasting bilinear scores
  z^T W d of the sample's own K descriptions against the descriptions
  of the batch negatives, computed in log-space.

All four are computed by one kernel that evaluates a set of anchor
rows at once with masked array operations, from z and a ``_Layout``
that holds everything the terms read from the labels: the anchors'
positive and negative masks are shared by the four terms.  SCL and
HSMT read (rows, B) cosine and Euclidean matrices.  The description
side of HM and MI depends on an anchor only through its label and its
description block, so it is done once per *description class*: within
one label, samples share a class when each carries the (K, d) block of
the label's first sample; when some label's samples differ, every
sample is its own class.  Mining and HM then read a (C, K, B) block of
description cosines, one row per active class, and turn each class's
hard sets into per-sample counts of the anchors they apply to (see
``_Kernel``); MI scores each anchor against the (C, K) class
descriptions, weighting each class by the anchor's negatives in it plus
one for its own class.  The per-anchor functions above run the same
kernel over a one-row layout, with classes of one anchor.

``joint_loss`` takes every row of a batch as an anchor, so its
transients grow as B^2 * max(d, K) floats: HSMT's (B, B, d)
differences, mining's (C, K, B) cosines, MI's (B, C*K) scores.  Training
batches hold at most 64 rows, so HSMT's differences, the largest,
take 512 KiB.
A caller's ``Batch`` is validated when it is built; ``joint_loss``
checks its size and W, builds its layout and calls ``_joint``, the
kernel pass.  Training builds no ``Batch``: a ``_Plan``, built once per
pool, validates the pool's (R, K, d) description table and W once and
builds each batch's layout from its relations (a table row is one
relation's block), and the trainer hands z and that layout to
``_joint``, which does only the work that depends on z.

Every loss returns its value together with d(value)/d(z) for the whole
batch (and d(value)/dW where W participates).  Description vectors are
constants: no gradient ever flows into them.  Degenerate inputs (no
positive partner, no negatives, empty mined sets) contribute zero with
an explicit flag rather than raising, so a trainer can skip them while
still counting how often they occur.  ``joint_loss`` averages the
beta-weighted sum of the four terms over the batch.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from fcre.formats import _checked_fields, checked


@dataclass(frozen=True)
class HyperParams:
    """All tunables of the training and inference pipeline, valid once built.

    ``epochs_current``/``epochs_memory`` may be zero (frozen-encoder
    runs are legitimate baselines); every other constraint is checked
    at construction, ``dataclasses.replace`` included, after each field
    is found to hold a number of its default's kind (an integer that is
    not a bool, or a finite real) and stored as the Python int or float
    it holds.
    """

    tau: float = 0.1
    margin: float = 0.5
    beta_sc: float = 1.0
    beta_st: float = 1.0
    beta_hm: float = 0.5
    beta_mi: float = 2.0
    alpha: float = 0.4
    epsilon: float = 60.0
    k_desc: int = 7
    memory_size: int = 1
    epochs_current: int = 10
    epochs_memory: int = 10
    learning_rate: float = 1e-3

    def __post_init__(self) -> None:
        _checked_fields(self)
        _require_tau(self.tau)
        _require_margin(self.margin)
        betas = (self.beta_sc, self.beta_st, self.beta_hm, self.beta_mi)
        if any(b < 0.0 for b in betas):
            raise ValueError(f"loss weights must be non-negative, got {betas}")
        if all(b == 0.0 for b in betas):
            raise ValueError("at least one loss weight must be positive")
        _check_fusion_weights(self.alpha, self.epsilon)
        if self.k_desc < 1:
            raise ValueError(f"k_desc must be >= 1, got {self.k_desc}")
        if self.memory_size < 1:
            raise ValueError(f"memory_size must be >= 1, got {self.memory_size}")
        if self.epochs_current < 0 or self.epochs_memory < 0:
            raise ValueError("epoch counts must be >= 0")
        if not self.learning_rate > 0.0:
            raise ValueError(f"learning_rate must be positive, got {self.learning_rate}")


@dataclass
class Batch:
    """Embeddings, labels, and per-sample description vectors.

    ``descriptions[i]`` holds the K description vectors of sample i's
    relation, shape (K, d).  K must be uniform across the batch, which
    the array shape enforces.
    """

    z: np.ndarray  # (B, d)
    labels: np.ndarray  # (B,)
    descriptions: np.ndarray  # (B, K, d)

    def __post_init__(self) -> None:
        self.z = np.asarray(self.z, dtype=np.float64)
        self.labels = np.asarray(self.labels, dtype=np.int64)
        self.descriptions = np.asarray(self.descriptions, dtype=np.float64)
        if self.z.ndim != 2:
            raise ValueError(f"z must be (B, d), got shape {self.z.shape}")
        b, d = self.z.shape
        if b < 1:
            raise ValueError("batch must contain at least one sample")
        if self.labels.shape != (b,):
            raise ValueError(
                f"labels must have shape ({b},), got {self.labels.shape}"
            )
        if self.descriptions.ndim != 3 or self.descriptions.shape[0] != b:
            raise ValueError(
                f"descriptions must be (B, K, d), got {self.descriptions.shape}"
            )
        _check_descriptions(self.descriptions, d)
        if self.descriptions.shape[1] < 1:
            raise ValueError("need at least one description vector per sample")
        if not np.all(np.isfinite(self.z)):
            raise ValueError("z contains non-finite entries")

    @property
    def size(self) -> int:
        return self.z.shape[0]

    @property
    def embed_dim(self) -> int:
        return self.z.shape[1]

    @property
    def k_desc(self) -> int:
        return self.descriptions.shape[1]

    def positives(self, x: int) -> np.ndarray:
        """Indices u != x with the same label as x."""
        self._check_index(x)
        mask = self.labels == self.labels[x]
        mask[x] = False
        return np.flatnonzero(mask)

    def negatives(self, x: int) -> np.ndarray:
        """Indices with a different label than x."""
        self._check_index(x)
        return np.flatnonzero(self.labels != self.labels[x])

    def _check_index(self, x: int) -> None:
        if not 0 <= checked(x, int, "sample index") < self.size:
            raise ValueError(f"sample index {x} out of range for batch of {self.size}")


def _check_descriptions(descriptions: np.ndarray, embed_dim: int) -> None:
    """(.., K, d) description vectors must match the embedding dim and be finite."""
    if descriptions.shape[2] != embed_dim:
        raise ValueError(f"description dim {descriptions.shape[2]} != embedding dim {embed_dim}")
    if not np.all(np.isfinite(descriptions)):
        raise ValueError("descriptions contain non-finite entries")


class MiningSets(NamedTuple):
    """Hard-example selection for one sample and one description index."""

    k: int
    positives: tuple[int, ...]
    negatives: tuple[int, ...]
    hard_positives: tuple[int, ...]
    hard_negatives: tuple[int, ...]


class SclResult(NamedTuple):
    value: float
    grad_z: np.ndarray
    no_positive: bool


class HsmtResult(NamedTuple):
    value: float
    grad_z: np.ndarray
    no_pair: bool
    clamped: bool


class HmResult(NamedTuple):
    value: float
    grad_z: np.ndarray
    no_pair: bool


class MiResult(NamedTuple):
    value: float
    grad_z_x: np.ndarray
    grad_w: np.ndarray
    no_negative: bool


class JointResult(NamedTuple):
    value: float
    grad_z: np.ndarray
    grad_w: np.ndarray
    no_positive_count: int
    no_pair_count: int
    clamped_count: int


HSMT_FLOOR = 1e-6


class _Term(NamedTuple):
    """One objective evaluated for the anchor rows of a layout."""

    values: np.ndarray  # (rows,) value per anchor; (C,) per description class for HM
    grad_z: np.ndarray  # (B, d) gradient of the anchors' summed value
    degenerate: np.ndarray  # (rows,) no positive / no pair / no negative
    clamped: np.ndarray | None = None  # (rows,) HSMT clamp hits
    grad_w: np.ndarray | None = None  # (d, d) MI only


class _Layout:
    """What the four terms read from a batch's labels and description classes.

    It is built for a fixed set of anchor rows, ``rows``: every row for
    ``joint_loss``, one row for the per-anchor functions.  Within one
    label, samples share a class when each carries the (K, d) block of
    the label's first sample; a plain ``Batch`` checks this by comparing
    its blocks, and when some label's samples differ every sample is its
    own class.  ``class_desc`` holds each class's (K, d) block.  Nothing
    here depends on z: besides the masks, the layout holds whether each
    term has an anchor to evaluate (``any_pos``, ``any_paired``,
    ``any_neg``), the degenerate-anchor counts, and the mined classes'
    description blocks, norms and unit descriptions.  So a pool that
    trains as one full batch has its layout built once for every epoch.
    """

    def __init__(
        self, same: np.ndarray, lead: np.ndarray, rows: slice,
        table: np.ndarray, norms: np.ndarray, unit: np.ndarray, table_row: np.ndarray,
    ) -> None:
        """Classes from ``lead``, each sample's class leader, over the anchors ``rows``.

        ``same`` is the (B, B) same-label mask.  Sample i carries the
        (K, d) block ``table[table_row[i]]``, whose (K,) norms are
        ``norms[table_row[i]]`` and unit vectors ``unit[table_row[i]]``.
        """
        b = same.shape[0]
        n_same = np.add.reduce(same, axis=1)  # (B,) samples of each sample's label
        has_pos, has_neg = n_same > 1, n_same < b
        paired = has_pos & has_neg
        index = np.arange(b)
        self.leads = leads = (lead == index).nonzero()[0]  # (C,) first sample of each class
        self.class_of = class_of = leads.searchsorted(lead)  # (B,) class of each sample
        self.class_size = class_size = np.bincount(class_of, minlength=leads.size)
        block = table_row[leads]  # (C,) table row of each class
        self.class_desc = table[block]  # (C, K, d)

        self.rows = rows
        self.anchors = anchors = index[rows]  # batch index of each anchor
        self.local = local = index[: anchors.size]  # (local, anchors) is each anchor's own entry
        self.pos = pos = same[rows].copy()  # (rows, B) same label, the anchor itself excluded
        pos[local, anchors] = False
        self.neg = neg = ~same[rows]  # (rows, B) different label
        # HSMT ranks (2, rows, B) keys: the distance to a positive and minus
        # the distance to a negative, with -inf at every other sample
        self.sign = np.array([[[1.0]], [[-1.0]]])
        self.pair_fill = np.where((pos, neg), 0.0, -np.inf)
        self.n_pos = n_same[rows] - 1  # (rows,) positives of each anchor
        self.has_pos, self.paired = has_pos[rows], paired[rows]
        # the anchors each term skips, and whether it has any other; an
        # anchor has a negative exactly when the batch holds two labels,
        # so has_neg is all true or all false
        self.no_pos, self.no_neg, self.no_pair = ~self.has_pos, ~has_neg[rows], ~self.paired
        self.n_no_pos = int(np.add.reduce(self.no_pos))
        self.n_no_pair = int(np.add.reduce(self.no_pair))
        self.any_pos = self.n_no_pos < anchors.size
        self.any_paired = self.n_no_pair < anchors.size
        self.any_neg = bool(has_neg[0])
        self.own = own = class_of[rows]  # (rows,) description class of each anchor
        # mining: the live classes, those with an anchor here that has a
        # positive and a negative, and member: u is one of the class's anchors
        if own.size == b:  # every sample is an anchor
            n_anchors = class_size
            live = paired[leads].nonzero()[0]
            member = class_of == live[:, None]
        else:
            n_anchors = np.bincount(own, minlength=leads.size)
            live = ((n_anchors > 0) & paired[leads]).nonzero()[0]
            member = np.zeros((live.size, b), dtype=bool)
            member[:, rows] = own == live[:, None]
        self.member = member  # (C', B)
        live_same = same[leads[live]][:, None, :]  # (C', 1, B) same label as the live class
        # mining's distances to the live class's label, and to the other labels
        self.same_fill = np.where(live_same, 0.0, -np.inf)
        self.other_fill = np.where(live_same, np.inf, 0.0)
        self.n_a = n_anchors[live][:, None, None]  # (C', 1, 1) |A|
        self.pos_count = self.n_a - member[:, None, :]  # |A| - [u in A]: anchors u is a hard positive for
        self.live_index = np.arange(live.size)[:, None]
        live_block = block[live]
        self.live_desc, self.live_norms = table[live_block], norms[live_block]  # (C', K, d), (C', K)
        self.live_unit = unit[live_block]  # (C', K, d)
        # MI: each anchor's negatives in each class, plus one for its own
        weight = neg[:, leads] * class_size
        weight[local, own] = 1  # the own class holds no negative
        self.weight = weight[:, :, None]  # (rows, C, 1)
        self.score_fill = np.where(self.weight > 0, 0.0, -np.inf)  # MI scores no empty class

    @classmethod
    def of_batch(cls, batch: Batch, rows: slice) -> "_Layout":
        same = batch.labels[:, None] == batch.labels[None, :]
        lead = same.argmax(axis=1)  # first sample of each sample's label
        if (batch.descriptions[lead] != batch.descriptions).any():
            lead = np.arange(batch.size)
        norms, unit = _unit_blocks(batch.descriptions)
        return cls(same, lead, rows, batch.descriptions, norms, unit, np.arange(batch.size))


def _unit_blocks(blocks: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The (.., K) norms of (.., K, d) description blocks and their unit vectors.

    A zero-norm vector gets a zero unit vector and no warning: mining
    rejects a zero norm before it reads the unit vector.
    """
    norms = np.sqrt(np.einsum("...kd,...kd->...k", blocks, blocks))
    unit = np.zeros(blocks.shape)
    np.divide(blocks, norms[..., None], out=unit, where=norms[..., None] != 0.0)
    return norms, unit


class _Kernel:
    """The four objectives of one batch's embeddings z over a ``_Layout``.

    It holds z, its row norms and unit rows, and the layout: the anchor
    rows with their masks and the description classes.  SCL and HSMT
    evaluate every anchor at once from (rows, B) similarity and distance
    matrices, and MI scores each anchor against the (C, K) class
    descriptions.  The transients grow as rows * B * max(d, K) floats.

    Mining and HM work on one (K, B) cosine block per active class: a
    class whose anchors have a positive and a negative.  With
    dist = 1 - cos(d_c^k, z_u) and A the class's anchors:

    * a same-label u with dist > the closest negative is a hard positive
      for |A| - [u in A] anchors (an anchor is never its own positive);
    * a negative u is a hard negative for
      |A| [dist < top1] - [arg1 in A] [top2 <= dist < top1] anchors,
      where top1/arg1 is the farthest same-label sample (lowest index on
      ties) and top2 the farthest once arg1 is removed: every anchor but
      arg1 has arg1 as its farthest positive, arg1 has top2.

    HM's values and gradients are these counts times the per-class
    terms.  The distances come from one (K, d) @ (d, B) product per
    class, so the strict inequalities and the ties resolve as they do
    per anchor.  The per-anchor functions of this module run the same
    methods over a one-row layout, with classes of one anchor.
    """

    def __init__(self, z: np.ndarray, layout: _Layout) -> None:
        self.z = z
        self.norms = norms = np.sqrt(np.einsum("ij,ij->i", z, z))
        self.nonzero = norms.all()
        # Every term that takes a cosine against a zero-norm row rejects
        # it first; the stand-in norm only keeps unused entries finite.
        self.safe_norms = norms if self.nonzero else np.where(norms == 0.0, 1.0, norms)
        self.z_hat = z / self.safe_norms[:, None]
        self.layout = layout

    def _require_nonzero(self, used: np.ndarray) -> None:
        bad = (used & (self.norms == 0.0)).nonzero()[0]
        if bad.size:
            raise ValueError(
                f"batch sample {int(bad[0])} has zero norm; cosine is undefined"
            )

    def scl(self, tau: float) -> _Term:
        """Masked log-softmax over the rows of the cosine matrix."""
        z, lay, norms = self.z, self.layout, self.norms
        rows, pos, active = lay.rows, lay.pos, lay.has_pos
        if not lay.any_pos:
            return _Term(np.zeros(active.size), np.zeros(z.shape), lay.no_pos)
        if not self.nonzero:  # an active anchor takes its cosine with every row
            self._require_nonzero(np.ones(self.norms.size, dtype=bool))
        cos = (z[rows] @ z.T) / (norms[rows, None] * norms[None, :])
        np.minimum(np.maximum(cos, -1.0, out=cos), 1.0, out=cos)  # np.clip, in place
        s = cos / tau
        s_other = s.copy()
        s_other[lay.local, lay.anchors] = -np.inf  # u != x
        shift = np.maximum.reduce(s_other, axis=1, keepdims=True)
        w = np.exp(s_other - shift)
        total = np.add.reduce(w, axis=1, keepdims=True)
        log_total = shift[:, 0] + np.log(total[:, 0])
        n_pos = lay.n_pos
        pos_s = np.add.reduce(np.where(pos, s, 0.0), axis=1)
        values = np.where(active, n_pos * log_total - pos_s, 0.0)

        # dL/ds_u = n_pos * softmax_u - [u is positive]; rows without
        # positives have n_pos == 0 and no positive, so a zero row.
        coeff = (n_pos[:, None] * (w / total) - pos) / tau
        # dcos/dz_u = (x_hat - cos u_hat) / |u|, dcos/dz_x = (u_hat - cos x_hat) / |x|
        weighted_cos = coeff * cos
        z_hat = self.z_hat
        grad = coeff.T @ z_hat[rows] - np.add.reduce(weighted_cos, axis=0)[:, None] * z_hat
        grad /= norms[:, None]
        grad[rows] += (
            coeff @ z_hat - np.add.reduce(weighted_cos, axis=1)[:, None] * z_hat[rows]
        ) / norms[rows, None]
        return _Term(values, grad, lay.no_pos)

    def hsmt(self) -> _Term:
        """Batch-hard pairs: row-wise argmax over positives, argmin over negatives."""
        z, lay = self.z, self.layout
        rows, a, paired = lay.rows, lay.local, lay.paired
        grad = np.zeros(z.shape)
        if not lay.any_paired:
            return _Term(np.zeros(a.size), grad, lay.no_pair, np.zeros(a.size, dtype=bool))
        diff = z[rows][:, None, :] - z[None, :, :]  # (rows, B, d), the kernel's largest transient
        dist = np.sqrt(np.einsum("abk,abk->ab", diff, diff))
        del diff
        # (2, rows): p*, the farthest positive, and n*, the nearest negative
        # as the farthest of -dist; argmax takes the lowest index on ties
        key = dist * lay.sign
        key += lay.pair_fill
        star = key.argmax(axis=2)
        d_star = np.where(paired, dist[a, star], 0.0)
        exp_p, exp_n = e = np.exp(d_star)
        arg = 1.0 + exp_p - exp_n
        clamped = paired & (arg <= HSMT_FLOOR)
        live = paired & ~clamped
        arg = np.where(live, arg, 1.0)
        values = np.where(live, -np.log(arg), 0.0)
        values[clamped] = -math.log(HSMT_FLOOR)

        # dL/d(dp) = -exp_p / arg, dL/d(dn) = +exp_n / arg; only the
        # selected pair of a live anchor receives gradient, along
        # d||a - b||/da = (a - b) / ||a - b||, taken as zero where a == b
        coeff = np.where(live, -lay.sign[:, :, 0] * e / arg, 0.0)
        diff_star = z[rows] - z[star]  # (2, rows, d), the rows of diff at p* and n*
        unit = np.zeros(diff_star.shape)
        np.divide(diff_star, d_star[:, :, None], out=unit, where=d_star[:, :, None] != 0.0)
        g = coeff[:, :, None] * unit
        grad[rows] += g[0] + g[1]
        # the p* rows, then the n* rows, added in order to the flat gradient
        d = z.shape[1]
        np.add.at(grad.reshape(-1), (star[:, :, None] * d + np.arange(d)).reshape(-1), -g.reshape(-1))
        return _Term(values, grad, lay.no_pair, clamped)

    def mine(
        self, ks: slice = slice(None)
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """Hard sets of each active class against its descriptions ``ks``.

        Returns the raw cosines cos(d_c^k, z_u) of shape (C, K', B), the
        unit descriptions, and the (C, K', B) counts of the class's
        anchors for which u is a hard positive and a hard negative, as
        the class docstring sets out.
        """
        lay = self.layout
        an = lay.live_norms[:, ks]  # (C, K')
        if not an.all():
            raise ValueError("anchor has zero norm; cosine is undefined")
        if not self.nonzero:  # reject a zero-norm sample an active anchor compares with
            self._require_nonzero((lay.pos | lay.neg)[lay.paired].any(axis=0))
        # one product over every k, sliced after
        cos = (lay.live_desc @ self.z.T)[:, ks] / (an[:, :, None] * self.safe_norms)
        dist = 1.0 - np.minimum(np.maximum(cos, -1.0), 1.0)  # np.clip
        b = self.z.shape[0]
        n_a = lay.n_a
        neg_dist = dist + lay.other_fill
        same_dist = dist + lay.same_fill
        arg1 = same_dist.argmax(axis=2)  # lowest index among the farthest
        top = same_dist.copy()
        top.partition(b - 2, axis=2)
        top1, top2 = top[:, :, b - 1 :], top[:, :, b - 2 : b - 1]  # top2 = top1 on a tie
        arg1_in_a = lay.member[lay.live_index, arg1][:, :, None]
        closest_neg = np.minimum.reduce(neg_dist, axis=2, keepdims=True)
        hard_pos = np.where(same_dist > closest_neg, lay.pos_count, 0)
        hard_neg = np.where(neg_dist < top1, n_a - (arg1_in_a & (neg_dist >= top2)), 0)
        return cos, lay.live_unit[:, ks], hard_pos, hard_neg

    def hm(self, margin: float) -> _Term:
        """Quadratic pulls on hard positives and pushes on hard negatives, per class."""
        z, lay = self.z, self.layout
        if not lay.any_paired:
            return _Term(np.zeros(lay.paired.size), np.zeros(z.shape), lay.no_pair)
        cos, a_hat, hard_pos, hard_neg = self.mine()
        t_pos = 1.0 - cos
        t_neg = margin - 1.0 + cos
        hard_neg = np.where(t_neg > 0.0, hard_neg, 0)
        values = np.add.reduce(hard_pos * (t_pos * t_pos) + hard_neg * (t_neg * t_neg), axis=(1, 2))
        # dL/dcos per (class, k, sample); dcos/dz_u = (a_hat - cos z_hat_u) / |z_u|
        g = hard_neg * (2.0 * t_neg) - hard_pos * (2.0 * t_pos)
        b, d = z.shape
        grad = g.reshape(-1, b).T @ a_hat.reshape(-1, d)
        grad -= np.einsum("ckb,ckb->b", g, cos)[:, None] * self.z_hat
        grad /= self.safe_norms[:, None]
        return _Term(values, grad, lay.no_pair)

    def mi(self, w_matrix: np.ndarray, tau: float) -> _Term:
        """InfoNCE over one (rows, C, K) block of bilinear scores against the classes.

        Class c enters an anchor's denominator once per negative sample
        it holds, plus once as the anchor's own class (the numerator).
        """
        z, lay = self.z, self.layout
        c, k, d = lay.class_desc.shape
        rows, local, own, weight = lay.rows, lay.local, lay.own, lay.weight
        grad = np.zeros(z.shape)
        if not lay.any_neg:
            return _Term(np.zeros(local.size), grad, lay.no_neg, grad_w=np.zeros(w_matrix.shape))
        desc = lay.class_desc.reshape(c * k, d)
        z_rows = z[rows]
        scores = ((z_rows @ w_matrix) @ desc.T).reshape(-1, c, k) / tau  # z_x^T W d_c^k / tau
        scores += lay.score_fill
        e = np.exp(scores - np.maximum.reduce(scores, axis=(1, 2), keepdims=True))
        e_all = weight * e
        e_own = e[local, own]  # (rows, K)
        s_all = np.add.reduce(e_all, axis=(1, 2))
        s_pos = np.add.reduce(e_own, axis=1)
        values = np.log(s_all) - np.log(s_pos)  # every anchor has a negative here

        coeff = e_all / s_all[:, None, None]
        coeff[local, own] -= e_own / s_pos[:, None]
        weighted = coeff.reshape(-1, c * k) @ desc  # sum_i coeff_i * d_i, per anchor
        grad[rows] = (weighted @ w_matrix.T) / tau
        grad_w = (z_rows.T @ weighted) / tau
        return _Term(values, grad, lay.no_neg, grad_w=grad_w)


def _one_row(batch: Batch, x: int) -> _Kernel:
    """The kernel of ``batch`` over the one-row layout of anchor x."""
    batch._check_index(x)
    return _Kernel(batch.z, _Layout.of_batch(batch, slice(x, x + 1)))


def _require_pair(batch: Batch, what: str) -> None:
    if batch.size < 2:
        raise ValueError(f"{what} needs a batch of at least two samples")


def _require_tau(tau: float) -> None:
    if not tau > 0.0:
        raise ValueError(f"tau must be positive, got {tau}")


def _require_margin(margin: float) -> None:
    if not 0.0 < margin <= 1.0:
        raise ValueError(f"margin must lie in (0, 1], got {margin}")


def _check_fusion_weights(alpha: float, epsilon: float) -> None:
    if not 0.0 <= alpha <= 1.0:
        raise ValueError(f"alpha must lie in [0, 1], got {alpha}")
    if not epsilon > 0.0:
        raise ValueError(f"epsilon must be positive, got {epsilon}")


def _as_bilinear(w_matrix, d: int) -> np.ndarray:
    w_matrix = np.asarray(w_matrix, dtype=np.float64)
    if w_matrix.shape != (d, d):
        raise ValueError(f"W must be ({d}, {d}), got {w_matrix.shape}")
    return w_matrix


def scl_loss(batch: Batch, x: int, tau: float) -> SclResult:
    """Supervised contrastive loss for sample x.

    L = -sum_{p in P(x)} log( exp(cos(z_x,z_p)/tau) /
                              sum_{u != x} exp(cos(z_x,z_u)/tau) )

    The denominator runs over every other batch sample, positives
    included.  Returns zero with ``no_positive`` set when x has no
    same-label partner.
    """
    _require_tau(tau)
    _require_pair(batch, "scl_loss")
    term = _one_row(batch, x).scl(tau)
    return SclResult(float(term.values[0]), term.grad_z, bool(term.degenerate[0]))


def hsmt_loss(batch: Batch, x: int) -> HsmtResult:
    """Hardest-pair margin loss for sample x.

    With p* the positive farthest from z_x and n* the negative nearest
    to z_x (Euclidean; ties go to the lowest index), the loss is
    -log(max(1 + exp(d(z_x,z_p*)) - exp(d(z_x,z_n*)), 1e-6)).
    Only the selected pair receives gradient; when the clamp is active
    the gradient is zero everywhere.  Missing positives or negatives
    yield zero with ``no_pair`` set.
    """
    _require_pair(batch, "hsmt_loss")
    term = _one_row(batch, x).hsmt()
    return HsmtResult(
        float(term.values[0]), term.grad_z, bool(term.degenerate[0]), bool(term.clamped[0])
    )


def mine_hard(batch: Batch, x: int, k: int) -> MiningSets:
    """Mine hard examples for sample x against its k-th description.

    With dist(u) = 1 - cos(d_x^k, z_u): hard positives are positives
    farther than the closest negative, hard negatives are negatives
    closer than the farthest positive.  Both P(x) and N(x) must be
    non-empty.
    """
    pos = batch.positives(x)
    neg = batch.negatives(x)
    if pos.size == 0:
        raise ValueError(f"sample {x} has no positives to mine")
    if neg.size == 0:
        raise ValueError(f"sample {x} has no negatives to mine")
    if not 0 <= checked(k, int, "description index") < batch.k_desc:
        raise ValueError(f"description index {k} out of range for K={batch.k_desc}")
    # x is its class's one anchor
    _, _, hard_pos, hard_neg = _one_row(batch, x).mine(slice(k, k + 1))
    return MiningSets(
        k=k,
        positives=tuple(int(p) for p in pos),
        negatives=tuple(int(n) for n in neg),
        hard_positives=tuple(int(p) for p in np.flatnonzero(hard_pos[0, 0])),
        hard_negatives=tuple(int(n) for n in np.flatnonzero(hard_neg[0, 0])),
    )


def hm_loss(batch: Batch, x: int, margin: float) -> HmResult:
    """Description-anchored hard-mining loss for sample x.

    Per description vector k:
      sum_{p in hard P} (1 - cos(d_x^k, z_p))^2
    + sum_{n in hard N} max(0, margin - 1 + cos(d_x^k, z_n))^2

    The anchor is the (constant) description vector, so z_x itself only
    receives gradient if it appears as somebody's mined example --
    never through its own anchor.  Empty P(x) or N(x) contributes zero.
    """
    _require_margin(margin)
    term = _one_row(batch, x).hm(margin)
    return HmResult(float(term.values[0]), term.grad_z, bool(term.degenerate[0]))


def mi_loss(batch: Batch, x: int, w_matrix: np.ndarray, tau: float) -> MiResult:
    """InfoNCE-style mutual-information bound for sample x.

    With h(z, d) = exp(z^T W d / tau):
    L = -log( sum_k h(z_x, d_x^k) /
              (sum_k h(z_x, d_x^k) + sum_{n in N(x)} sum_k h(z_x, d_n^k)) )

    Negatives contribute one block of K description terms per negative
    *sample* (duplicate relations count multiply).  Computed in
    log-space.  Returns zero (value and both gradients) when N(x) is
    empty.
    """
    _require_tau(tau)
    w_matrix = _as_bilinear(w_matrix, batch.embed_dim)
    term = _one_row(batch, x).mi(w_matrix, tau)
    return MiResult(float(term.values[0]), term.grad_z[x], term.grad_w, bool(term.degenerate[0]))


class _Plan:
    """One training pool's loss inputs, validated once, and the layouts built on them.

    Holds the pool's (R, K, d) description table, each sample's row in
    it, and the table's (R, K) description norms and unit descriptions;
    ``w_matrix``'s shape is checked before training starts when one is
    given and ``hp`` enables MI.  A table row is one relation's block,
    so a batch's description classes are its relations in order of first
    appearance: what ``_Layout.of_batch`` finds for such blocks, without
    comparing them.  Training's batches hold at least two rows, so
    ``_joint`` runs no checks on a plan's layout.  Neither the plan nor a
    layout refers to a batch or a kernel, so the per-pool state goes as
    soon as the caller drops the plan.
    """

    def __init__(
        self,
        table: np.ndarray,
        row_of: np.ndarray,
        embed_dim: int,
        hp: HyperParams,
        w_matrix: np.ndarray | None = None,
    ) -> None:
        table = np.asarray(table, dtype=np.float64)
        _check_descriptions(table, embed_dim)
        if w_matrix is not None and hp.beta_mi != 0.0:
            _as_bilinear(w_matrix, embed_dim)
        self.table = table
        self.norms, self.unit = _unit_blocks(table)
        self.row_of = row_of

    def layout(self, idx: np.ndarray) -> _Layout:
        """The layout of the pool rows ``idx``, every row an anchor."""
        rows = self.row_of[idx]
        same = rows[:, None] == rows[None, :]
        return _Layout(
            same, same.argmax(axis=1), slice(0, idx.size), self.table, self.norms, self.unit, rows
        )


def joint_loss(batch: Batch, hp: HyperParams, w_matrix: np.ndarray) -> JointResult:
    """Batch-mean of the beta-weighted sum of all four objectives.

    Every row is an anchor, so the kernel's transients grow as
    B^2 * max(d, K) floats (training batches hold at most 64 rows).  The
    batch's size and W are checked, and its layout is built by comparing
    its description blocks; training calls ``_joint`` on a ``_Plan``'s
    layout instead.  Linear in each beta; terms with beta == 0 are
    skipped entirely, so disabling a loss also disables its
    degenerate-input flags.
    """
    w_matrix = np.asarray(w_matrix, dtype=np.float64)
    if hp.beta_sc != 0.0:
        _require_pair(batch, "scl_loss")
    if hp.beta_st != 0.0:
        _require_pair(batch, "hsmt_loss")
    if hp.beta_mi != 0.0:
        _as_bilinear(w_matrix, batch.embed_dim)
    return _joint(batch.z, _Layout.of_batch(batch, slice(0, batch.size)), hp, w_matrix)


def _joint(z: np.ndarray, layout: _Layout, hp: HyperParams, w_matrix: np.ndarray) -> JointResult:
    """``joint_loss`` of the (B, d) embeddings z over a layout of every row, unchecked."""
    kernel = _Kernel(z, layout)
    total = 0.0
    grad_z = np.zeros(z.shape)
    grad_w = np.zeros(w_matrix.shape)
    no_positive = 0
    no_pair = 0
    clamped = 0
    terms = []
    if hp.beta_sc != 0.0:
        no_positive = layout.n_no_pos
        terms.append((hp.beta_sc, kernel.scl(hp.tau)))
    if hp.beta_st != 0.0:
        term = kernel.hsmt()
        no_pair = layout.n_no_pair
        clamped = int(np.count_nonzero(term.clamped))
        terms.append((hp.beta_st, term))
    if hp.beta_hm != 0.0:
        terms.append((hp.beta_hm, kernel.hm(hp.margin)))
    if hp.beta_mi != 0.0:
        term = kernel.mi(w_matrix, hp.tau)
        grad_w += hp.beta_mi * term.grad_w
        terms.append((hp.beta_mi, term))
    # the terms add up from zero in this order (a zero start turns a
    # -0.0 entry into 0.0, so it is part of the bits)
    for beta, term in terms:
        total += beta * float(np.add.reduce(term.values))
        grad_z += beta * term.grad_z
    scale = 1.0 / z.shape[0]
    grad_z *= scale
    grad_w *= scale
    return JointResult(
        value=total * scale,
        grad_z=grad_z,
        grad_w=grad_w,
        no_positive_count=no_positive,
        no_pair_count=no_pair,
        clamped_count=clamped,
    )
