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

All four are computed by one kernel that evaluates a block of anchor
rows at once with masked array operations; the four terms of a block
share its positive and negative masks.  SCL and HSMT read (rows, B)
cosine and Euclidean matrices.  The description side of HM and MI
depends on an anchor only through its label and its description block,
so it is done once per *description class*: within one label, samples
share a class when each carries the (K, d) block of the label's first
sample; when some label's samples differ, every sample is its own
class.  Mining and HM then read a (C, K, B) block of description
cosines, one row per active class of the pass, and turn each class's
hard sets into per-sample counts of the anchors they apply to (see
``_Kernel``); MI scores each anchor against the (C, K) class
descriptions, weighting each class by the anchor's negatives in it plus
one for its own class.  The per-anchor functions above are one-row
views of the same kernel, with classes of one anchor.

``joint_loss`` evaluates every anchor of a batch in one kernel pass, so
its transients grow as B^2 * max(d, K) floats: HSMT's (B, B, d)
differences, mining's (C, K, B) cosines, MI's (B, C*K) scores.  Training
batches hold at most 64 rows, so HSMT's block, the largest, is 512 KiB.
A caller's ``Batch`` is validated when it is built.  Training goes
through a ``_Plan`` instead, built once per pool: it validates the pool's
(R, K, d) description table once, takes each batch's classes from its
relations (a table row is one relation's block), and keeps the label
layout of a pool that trains as one full batch for every epoch.

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


@dataclass
class HyperParams:
    """All tunables of the training and inference pipeline.

    ``epochs_current``/``epochs_memory`` may be zero (frozen-encoder
    runs are legitimate baselines); every other constraint is enforced
    by ``validate``.
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

    def validate(self) -> "HyperParams":
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
        return self


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
        if not 0 <= x < self.size:
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
    """One objective evaluated for a block of anchor rows."""

    values: np.ndarray  # (rows,) value per anchor; (C,) per description class for HM
    grad_z: np.ndarray  # (B, d) gradient of the block's summed value
    degenerate: np.ndarray  # (rows,) no positive / no pair / no negative
    clamped: np.ndarray | None = None  # (rows,) HSMT clamp hits
    grad_w: np.ndarray | None = None  # (d, d) MI only


class _Block(NamedTuple):
    """A block of anchor rows and what every term reads from its labels."""

    rows: slice
    anchors: np.ndarray  # (rows,) batch index of each anchor
    local: np.ndarray  # (rows,) 0..rows-1; (local, anchors) is each anchor's own entry
    pos: np.ndarray  # (rows, B) same label, the anchor itself excluded
    neg: np.ndarray  # (rows, B) different label
    own: np.ndarray  # (rows,) description class of each anchor
    live: np.ndarray  # (C',) classes with an anchor here that has a positive and a negative
    live_same: np.ndarray  # (C', 1, B) same label as the live class
    member: np.ndarray  # (C', 1, B) u is one of the live class's anchors here (u in A)
    n_a: np.ndarray  # (C', 1, 1) |A|
    pos_count: np.ndarray  # (C', 1, B) |A| - [u in A]: anchors u can be a hard positive for
    n_pos: np.ndarray  # (rows,) positives of each anchor
    paired: np.ndarray  # (rows,) anchors with a positive and a negative
    weight: np.ndarray  # (rows, C, 1) MI: anchor's negatives in each class, plus one for its own
    scored: np.ndarray  # (rows, C, 1) weight > 0


class _Layout:
    """What a batch's terms read from its labels and its description classes.

    Within one label, samples share a class when each carries the (K, d)
    block of the label's first sample; a plain ``Batch`` checks this by
    comparing its blocks, and when some label's samples differ every
    sample is its own class.  ``class_desc`` holds each class's (K, d)
    block and ``class_norms`` its (K,) description norms.  Nothing here
    depends on z, so a ``_Plan`` builds a full-batch pool's layout once
    and reuses it every epoch.
    """

    def __init__(
        self, same: np.ndarray, lead: np.ndarray, descriptions: np.ndarray, desc_norms: np.ndarray
    ) -> None:
        """Classes from ``lead``, each sample's class leader; blocks from ``descriptions``.

        ``desc_norms`` holds each sample's (K,) description norms.
        """
        b = same.shape[0]
        self.same = same
        self.n_same = n_same = same.sum(axis=1)  # (B,) samples of each sample's label
        self.has_pos = n_same > 1
        self.has_neg = n_same < b
        self.leads = np.flatnonzero(lead == np.arange(b))  # (C,) first sample of each class
        class_index = np.empty(b, dtype=np.intp)
        class_index[self.leads] = np.arange(self.leads.size)
        self.class_of = class_index[lead]  # (B,) class of each sample
        self.class_size = np.bincount(self.class_of, minlength=self.leads.size)
        self.class_desc = descriptions[self.leads]  # (C, K, d)
        self.class_norms = desc_norms[self.leads]  # (C, K)

    @classmethod
    def of_batch(cls, batch: Batch) -> "_Layout":
        same = batch.labels[:, None] == batch.labels[None, :]
        lead = np.argmax(same, axis=1)  # first sample of each sample's label
        if (batch.descriptions[lead] != batch.descriptions).any():
            lead = np.arange(batch.size)
        norms = np.sqrt(np.einsum("bkd,bkd->bk", batch.descriptions, batch.descriptions))
        return cls(same, lead, batch.descriptions, norms)

    def block(self, rows: slice) -> _Block:
        """Anchor rows ``rows`` with their masks, live mining classes and MI weights."""
        anchors = np.arange(rows.start, rows.stop)
        local = np.arange(anchors.size)
        pos = self.same[rows].copy()
        pos[local, anchors] = False
        neg = ~self.same[rows]
        own = self.class_of[rows]
        leads = self.leads
        n_anchors = np.bincount(own, minlength=leads.size)
        live = np.flatnonzero((n_anchors > 0) & self.has_pos[leads] & self.has_neg[leads])
        member = np.zeros((live.size, 1, self.same.shape[0]), dtype=bool)
        member[:, 0, rows] = own == live[:, None]
        n_a = n_anchors[live][:, None, None]
        weight = neg[:, leads] * self.class_size
        weight[local, own] = 1  # the own class holds no negative
        return _Block(
            rows, anchors, local, pos, neg, own, live, self.same[leads[live]][:, None, :],
            member, n_a, n_a - member, self.n_same[rows] - 1,
            self.has_pos[rows] & self.has_neg[rows], weight[:, :, None], weight[:, :, None] > 0,
        )


def _unit_differences(diff: np.ndarray, dist: np.ndarray) -> np.ndarray:
    """Rows of d||a - b||/da = (a - b) / ||a - b||; zero at coincident points.

    The distance is not differentiable at a == b; the zero subgradient is
    used there so no NaN reaches a caller.
    """
    out = np.zeros_like(diff)
    np.divide(diff, dist[:, None], out=out, where=dist[:, None] != 0.0)
    return out


class _Kernel:
    """The four objectives for a block of anchor rows of one batch.

    Built once per batch, it holds the row norms and unit rows of z and
    the batch's ``_Layout``: the same-label mask and the description
    classes.  ``_Layout.block`` cuts a slice of anchor rows with its
    masks: every row for ``joint_loss``, one row for the per-anchor
    functions.  SCL and HSMT evaluate all of the block's anchors at once
    from (rows, B) similarity and distance matrices, and MI scores each
    anchor against the (C, K) class descriptions.  The transients of a
    block grow as rows * B * max(d, K) floats.

    Mining and HM work on one (K, B) cosine block per active class of
    the block: a class whose anchors there have a positive and a
    negative.  With dist = 1 - cos(d_c^k, z_u) and A the class's anchors
    in the block:

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
    per anchor.  The per-anchor functions of this module are one-row
    views of the same methods, with classes of one anchor.
    """

    def __init__(self, batch: Batch, layout: _Layout) -> None:
        self.batch = batch
        z = batch.z
        self.norms = np.sqrt(np.einsum("ij,ij->i", z, z))
        # Every term that takes a cosine against a zero-norm row rejects
        # it first; the stand-in norm only keeps unused entries finite.
        self.safe_norms = np.where(self.norms == 0.0, 1.0, self.norms)
        self.z_hat = z / self.safe_norms[:, None]
        self.layout = layout

    def _require_nonzero(self, used: np.ndarray) -> None:
        bad = np.flatnonzero(used & (self.norms == 0.0))
        if bad.size:
            raise ValueError(
                f"batch sample {int(bad[0])} has zero norm; cosine is undefined"
            )

    def scl(self, blk: _Block, tau: float) -> _Term:
        """Masked log-softmax over the rows of the cosine matrix."""
        z = self.batch.z
        rows, pos = blk.rows, blk.pos
        active = self.layout.has_pos[rows]
        if not active.any():
            return _Term(np.zeros(active.size), np.zeros_like(z), ~active)
        # an active anchor takes its cosine with every row: all must be nonzero
        self._require_nonzero(np.ones(self.norms.size, dtype=bool))
        cos = (z[rows] @ z.T) / (self.norms[rows, None] * self.norms[None, :])
        cos = np.clip(cos, -1.0, 1.0)
        s = cos / tau
        s_other = s.copy()
        s_other[blk.local, blk.anchors] = -np.inf  # u != x
        shift = s_other.max(axis=1, keepdims=True)
        w = np.exp(s_other - shift)
        total = w.sum(axis=1, keepdims=True)
        log_total = shift[:, 0] + np.log(total[:, 0])
        n_pos = blk.n_pos
        values = np.where(active, n_pos * log_total - np.where(pos, s, 0.0).sum(axis=1), 0.0)

        # dL/ds_u = n_pos * softmax_u - [u is positive]; rows without
        # positives have n_pos == 0 and no positive, so a zero row.
        coeff = (n_pos[:, None] * (w / total) - pos) / tau
        # dcos/dz_u = (x_hat - cos u_hat) / |u|, dcos/dz_x = (u_hat - cos x_hat) / |x|
        weighted_cos = coeff * cos
        z_hat = self.z_hat
        grad = (coeff.T @ z_hat[rows] - weighted_cos.sum(axis=0)[:, None] * z_hat)
        grad /= self.norms[:, None]
        grad[rows] += (
            coeff @ z_hat - weighted_cos.sum(axis=1)[:, None] * z_hat[rows]
        ) / self.norms[rows, None]
        return _Term(values, grad, ~active)

    def hsmt(self, blk: _Block) -> _Term:
        """Batch-hard pairs: row-wise argmax over positives, argmin over negatives."""
        z = self.batch.z
        rows, a = blk.rows, blk.local
        paired = blk.paired
        grad = np.zeros_like(z)
        if not paired.any():
            return _Term(np.zeros(a.size), grad, ~paired, np.zeros_like(paired))
        diff = z[rows][:, None, :] - z[None, :, :]
        dist = np.sqrt(np.einsum("abk,abk->ab", diff, diff))
        # argmax/argmin take the first hit, i.e. the lowest sample index
        p_star = np.argmax(np.where(blk.pos, dist, -np.inf), axis=1)
        n_star = np.argmin(np.where(blk.neg, dist, np.inf), axis=1)
        dp = np.where(paired, dist[a, p_star], 0.0)
        dn = np.where(paired, dist[a, n_star], 0.0)
        exp_p = np.exp(dp)
        exp_n = np.exp(dn)
        arg = 1.0 + exp_p - exp_n
        clamped = paired & (arg <= HSMT_FLOOR)
        live = paired & ~clamped
        arg = np.where(live, arg, 1.0)
        values = np.where(live, -np.log(arg), 0.0)
        values[clamped] = -math.log(HSMT_FLOOR)

        # dL/d(dp) = -exp_p / arg, dL/d(dn) = +exp_n / arg; only the
        # selected pair of a live anchor receives gradient.
        g_p = np.where(live, -exp_p / arg, 0.0)[:, None] * _unit_differences(diff[a, p_star], dp)
        g_n = np.where(live, exp_n / arg, 0.0)[:, None] * _unit_differences(diff[a, n_star], dn)
        grad[rows] += g_p + g_n
        np.add.at(grad, p_star, -g_p)
        np.add.at(grad, n_star, -g_n)
        return _Term(values, grad, ~paired, clamped)

    def mine(
        self, blk: _Block, ks: slice = slice(None)
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """Hard sets of each active class of the block against its descriptions ``ks``.

        Returns the raw cosines cos(d_c^k, z_u) of shape (C, K', B), the
        unit descriptions, and the (C, K', B) counts of the class's
        anchors for which u is a hard positive and a hard negative, as
        the class docstring sets out.
        """
        lay = self.layout
        live = blk.live
        an = lay.class_norms[live, ks]  # (C, K')
        if (an == 0.0).any():
            raise ValueError("anchor has zero norm; cosine is undefined")
        if not self.norms.all():  # reject a zero-norm sample an active anchor compares with
            self._require_nonzero(np.any((blk.pos | blk.neg)[blk.paired], axis=0))
        vectors = lay.class_desc[live]  # (C, K, d): one product over every k, sliced after
        cos = (vectors @ self.batch.z.T)[:, ks] / (an[:, :, None] * self.safe_norms)
        dist = 1.0 - np.clip(cos, -1.0, 1.0)
        b = self.batch.size
        same, member, n_a = blk.live_same, blk.member, blk.n_a
        neg_dist = np.where(same, np.inf, dist)
        same_dist = np.where(same, dist, -np.inf)
        arg1 = np.argmax(same_dist, axis=2)  # lowest index among the farthest
        top = np.partition(same_dist, b - 2, axis=2)
        top1, top2 = top[:, :, b - 1 :], top[:, :, b - 2 : b - 1]  # top2 = top1 on a tie
        arg1_in_a = member[np.arange(live.size)[:, None], 0, arg1][:, :, None]
        closest_neg = neg_dist.min(axis=2, keepdims=True)
        hard_pos = np.where(same_dist > closest_neg, blk.pos_count, 0)
        hard_neg = np.where(neg_dist < top1, n_a - (arg1_in_a & (neg_dist >= top2)), 0)
        return cos, vectors[:, ks] / an[:, :, None], hard_pos, hard_neg

    def hm(self, blk: _Block, margin: float) -> _Term:
        """Quadratic pulls on hard positives and pushes on hard negatives, per class."""
        z = self.batch.z
        active = blk.paired
        if not active.any():
            return _Term(np.zeros(active.size), np.zeros_like(z), ~active)
        cos, a_hat, hard_pos, hard_neg = self.mine(blk)
        t_pos = 1.0 - cos
        t_neg = margin - 1.0 + cos
        hard_neg = np.where(t_neg > 0.0, hard_neg, 0)
        values = (hard_pos * (t_pos * t_pos) + hard_neg * (t_neg * t_neg)).sum(axis=(1, 2))
        # dL/dcos per (class, k, sample); dcos/dz_u = (a_hat - cos z_hat_u) / |z_u|
        g = hard_neg * (2.0 * t_neg) - hard_pos * (2.0 * t_pos)
        b, d = z.shape
        grad = g.reshape(-1, b).T @ a_hat.reshape(-1, d)
        grad -= np.einsum("ckb,ckb->b", g, cos)[:, None] * self.z_hat
        grad /= self.safe_norms[:, None]
        return _Term(values, grad, ~active)

    def mi(self, blk: _Block, w_matrix: np.ndarray, tau: float) -> _Term:
        """InfoNCE over one (rows, C, K) block of bilinear scores against the classes.

        Class c enters an anchor's denominator once per negative sample
        it holds, plus once as the anchor's own class (the numerator).
        """
        z = self.batch.z
        c, k, d = self.layout.class_desc.shape
        rows, local, own, weight = blk.rows, blk.local, blk.own, blk.weight
        has_neg = self.layout.has_neg[rows]
        grad = np.zeros_like(z)
        if not has_neg.any():
            return _Term(np.zeros(local.size), grad, ~has_neg, grad_w=np.zeros_like(w_matrix))
        desc = self.layout.class_desc.reshape(c * k, d)
        z_rows = z[rows]
        scores = ((z_rows @ w_matrix) @ desc.T).reshape(-1, c, k) / tau  # z_x^T W d_c^k / tau
        scores = np.where(blk.scored, scores, -np.inf)
        e = np.exp(scores - scores.max(axis=(1, 2), keepdims=True))
        e_all = weight * e
        e_own = e[local, own]  # (rows, K)
        s_all = e_all.sum(axis=(1, 2))
        s_pos = e_own.sum(axis=1)
        values = np.where(has_neg, np.log(s_all) - np.log(s_pos), 0.0)

        coeff = e_all / s_all[:, None, None]
        coeff[local, own] -= e_own / s_pos[:, None]
        coeff[~has_neg] = 0.0
        weighted = coeff.reshape(-1, c * k) @ desc  # sum_i coeff_i * d_i, per anchor
        grad[rows] = (weighted @ w_matrix.T) / tau
        grad_w = (z_rows.T @ weighted) / tau
        return _Term(values, grad, ~has_neg, grad_w=grad_w)


def _one_row(batch: Batch, x: int) -> tuple[_Kernel, _Block]:
    """The kernel of ``batch`` and the one-row block of anchor x."""
    batch._check_index(x)
    layout = _Layout.of_batch(batch)
    return _Kernel(batch, layout), layout.block(slice(x, x + 1))


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
    kernel, blk = _one_row(batch, x)
    term = kernel.scl(blk, tau)
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
    kernel, blk = _one_row(batch, x)
    term = kernel.hsmt(blk)
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
    if not 0 <= k < batch.k_desc:
        raise ValueError(f"description index {k} out of range for K={batch.k_desc}")
    kernel, blk = _one_row(batch, x)
    _, _, hard_pos, hard_neg = kernel.mine(blk, slice(k, k + 1))  # x is its class's one anchor
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
    kernel, blk = _one_row(batch, x)
    term = kernel.hm(blk, margin)
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
    kernel, blk = _one_row(batch, x)
    term = kernel.mi(blk, w_matrix, tau)
    return MiResult(float(term.values[0]), term.grad_z[x], term.grad_w, bool(term.degenerate[0]))


class _PlanBatch(Batch):
    """A training batch whose inputs a ``_Plan`` validated, with its label layout.

    ``_Plan.batch`` builds it without ``Batch``'s checks and sets
    ``layout`` and ``block``, the block of every anchor that
    ``joint_loss`` evaluates; a whole-pool batch shares both across
    epochs.
    """

    layout: _Layout
    block: _Block


class _Plan:
    """One training pool's loss inputs, validated once, and the batches built on them.

    Holds the pool's (R, K, d) description table, each sample's row in
    it and the table's (R, K) description norms; the hyperparameters are
    checked before training starts.  A table row is one relation's block,
    so a batch's description classes are its relations in order of first
    appearance: what ``_Layout.of_batch`` finds for such blocks, without
    comparing them.  A pool that trains as one full batch (the same rows
    in the same order every epoch) has its layout built once.  Neither
    the plan nor a layout refers to a batch or a kernel, so the per-pool
    state goes as soon as the caller drops the plan.
    """

    def __init__(
        self,
        table: np.ndarray,
        row_of: np.ndarray,
        labels: np.ndarray,
        embed_dim: int,
        hp: HyperParams,
    ) -> None:
        hp.validate()
        table = np.asarray(table, dtype=np.float64)
        _check_descriptions(table, embed_dim)
        self.table = table
        self.norms = np.sqrt(np.einsum("rkd,rkd->rk", table, table))
        self.row_of = row_of
        self.labels = np.asarray(labels, dtype=np.int64)
        self._whole: tuple[np.ndarray, _Layout, _Block] | None = None

    def batch(self, idx: np.ndarray, z: np.ndarray) -> Batch:
        """The pool rows ``idx`` with their embeddings z = tanh(...) of validated inputs."""
        rows = self.row_of[idx]
        descriptions = self.table[rows]
        whole = self._whole
        if whole is None or not np.array_equal(whole[0], idx):
            same = rows[:, None] == rows[None, :]
            layout = _Layout(same, np.argmax(same, axis=1), descriptions, self.norms[rows])
            whole = (idx.copy(), layout, layout.block(slice(0, idx.size)))
            if idx.size == self.labels.size:  # the whole pool trains as the same batch every epoch
                self._whole = whole
        batch = object.__new__(_PlanBatch)  # z is finite, and the rest was checked here
        batch.z, batch.labels, batch.descriptions = z, self.labels[idx], descriptions
        _, batch.layout, batch.block = whole
        return batch


def joint_loss(batch: Batch, hp: HyperParams, w_matrix: np.ndarray) -> JointResult:
    """Batch-mean of the beta-weighted sum of all four objectives.

    Every anchor is evaluated in one kernel pass, whose transients grow
    as B^2 * max(d, K) floats (training batches hold at most 64 rows); a
    ``_Plan`` batch brings its label layout, any other batch has it built
    here.  ``hp`` is validated on every call.  Linear in each beta;
    terms with beta == 0 are skipped entirely, so disabling a loss also
    disables its degenerate-input flags.
    """
    hp.validate()
    b = batch.size
    w_matrix = np.asarray(w_matrix, dtype=np.float64)
    if hp.beta_sc != 0.0:
        _require_pair(batch, "scl_loss")
    if hp.beta_st != 0.0:
        _require_pair(batch, "hsmt_loss")
    if hp.beta_mi != 0.0:
        _as_bilinear(w_matrix, batch.embed_dim)
    if isinstance(batch, _PlanBatch):
        layout, blk = batch.layout, batch.block
    else:
        layout = _Layout.of_batch(batch)
        blk = layout.block(slice(0, b))
    kernel = _Kernel(batch, layout)
    total = 0.0
    grad_z = np.zeros_like(batch.z)
    grad_w = np.zeros_like(w_matrix)
    no_positive = 0
    no_pair = 0
    clamped = 0
    terms = []
    if hp.beta_sc != 0.0:
        term = kernel.scl(blk, hp.tau)
        no_positive = int(np.count_nonzero(term.degenerate))
        terms.append((hp.beta_sc, term))
    if hp.beta_st != 0.0:
        term = kernel.hsmt(blk)
        no_pair = int(np.count_nonzero(term.degenerate))
        clamped = int(np.count_nonzero(term.clamped))
        terms.append((hp.beta_st, term))
    if hp.beta_hm != 0.0:
        terms.append((hp.beta_hm, kernel.hm(blk, hp.margin)))
    if hp.beta_mi != 0.0:
        term = kernel.mi(blk, w_matrix, hp.tau)
        grad_w += hp.beta_mi * term.grad_w
        terms.append((hp.beta_mi, term))
    for beta, term in terms:
        total += beta * float(np.sum(term.values))
        grad_z += beta * term.grad_z
    scale = 1.0 / b
    return JointResult(
        value=total * scale,
        grad_z=grad_z * scale,
        grad_w=grad_w * scale,
        no_positive_count=no_positive,
        no_pair_count=no_pair,
        clamped_count=clamped,
    )
