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

``joint_loss`` averages the beta-weighted sum of the four over every
sample of the batch as an anchor.  Each runs the one kernel,
``_Kernel``, over a ``_Layout`` of its anchors; training calls
``_joint`` on a layout of its own.

Every public loss returns its value together with d(value)/d(z) for
the whole batch (and d(value)/dW where W participates).  Description
vectors are constants: no gradient ever flows into them.  Degenerate
inputs (no positive partner, no negatives, empty mined sets) contribute
zero with an explicit flag rather than raising, so a trainer can skip
them while still counting how often they occur.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from fcre.formats import _as_labels, _as_matrix, _at_least, _checked_fields, checked


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
        _at_least(self.k_desc, 1, "k_desc")
        _at_least(self.memory_size, 1, "memory_size")
        _at_least(self.epochs_current, 0, "epochs_current")
        _at_least(self.epochs_memory, 0, "epochs_memory")
        if not self.learning_rate > 0.0:
            raise ValueError(f"learning_rate must be positive, got {self.learning_rate}")


@dataclass
class Batch:
    """Embeddings, labels, and per-sample description vectors.

    ``descriptions[i]`` holds the K description vectors of sample i's
    relation, shape (K, d).  K must be uniform across the batch, which
    the array shape enforces.  ``formats._as_matrix`` checks z and the
    descriptions, each a finite array with no empty axis; the batch
    checks that the labels, B and d agree.
    """

    z: np.ndarray  # (B, d)
    labels: np.ndarray  # (B,)
    descriptions: np.ndarray  # (B, K, d)

    def __post_init__(self) -> None:
        self.z = _as_matrix(self.z, "z")
        self.labels = _as_labels(self.labels, "labels")
        b, d = self.z.shape
        if self.labels.shape != (b,):
            raise ValueError(
                f"labels must have shape ({b},), got {self.labels.shape}"
            )
        self.descriptions = _as_matrix(self.descriptions, "descriptions", 3)
        if self.descriptions.shape[0] != b:
            raise ValueError(
                f"descriptions must be (B, K, d), got {self.descriptions.shape}"
            )
        if self.descriptions.shape[2] != d:
            raise ValueError(f"description dim {self.descriptions.shape[2]} != embedding dim {d}")

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
_PAIR_SIGN = np.array([[[1.0]], [[-1.0]]])  # HSMT's keys: +distance to a positive, -to a negative
_PAIR_PULL = -_PAIR_SIGN[:, :, 0]  # (2, 1): the sign of dL/d(distance) at p* and at n*
_NO_KEY = np.finfo(np.float64).min  # HSMT's key off the pairs: a side's gap stays finite
_SUBNORMAL = np.finfo(np.float64).smallest_subnormal


class _Term(NamedTuple):
    """One objective evaluated for the anchor rows of a layout."""

    values: np.ndarray | None  # (rows,) per anchor, (C,) per description class for HM; None unasked
    grad_z: np.ndarray  # (B, d) gradient of the anchors' summed value
    clamped: np.ndarray | None = None  # (rows,) HSMT clamp hits
    grad_w: np.ndarray | None = None  # (d, d) MI only


class _Layout:
    """What the four terms read from a batch's labels and description classes.

    It is built for a fixed set of anchor rows, ``rows``: every row for
    ``joint_loss`` and training, one row for the per-anchor functions.
    Within one label, samples share a class when each carries the (K, d)
    block of the label's first sample; when some label's samples differ,
    every sample is its own class.  Nothing here depends on z, so a pool
    that trains as one full batch builds its layout once for every epoch.
    """

    def __init__(
        self, same: np.ndarray, first: np.ndarray, lead: np.ndarray | None, rows: slice,
        blocks: np.ndarray, table_row: np.ndarray,
    ) -> None:
        """Classes from ``lead``, each sample's class leader, over the anchors ``rows``.

        ``same`` is the (B, B) same-label mask and ``first`` each
        sample's first same-label sample; ``lead`` is None when each
        label is one class, led by ``first``.  Sample i carries the (K, d)
        block ``blocks[table_row[i]]``.
        """
        b = same.shape[0]
        index = np.arange(b)
        by_label = lead is None
        lead = first if by_label else lead
        self.leads = leads = (lead == index).nonzero()[0]  # (C,) first sample of each class
        self.class_of = class_of = leads.searchsorted(lead)  # (B,) class of each sample
        self.class_size = class_size = np.bincount(class_of, minlength=leads.size)
        # (B,) samples of each sample's label
        n_same = class_size[class_of] if by_label else np.bincount(first)[first]
        # an anchor has a negative exactly when the batch holds two labels
        self.any_neg = any_neg = bool(n_same[0] < b)
        has_pos = n_same > 1
        paired = has_pos & any_neg
        self.class_desc = blocks[table_row[leads]]  # (C, K, d), the one gather from the table
        self.class_flat = self.class_desc.reshape(-1, blocks.shape[2])  # (C * K, d)

        self.rows = rows
        anchors = index[rows]  # batch index of each anchor
        n = anchors.size
        local = index[:n]  # each anchor's place among the anchors
        self.own_entry = own_entry = local * b + anchors  # flat index of each anchor's own entry
        # (2, rows, B): same label, the anchor itself excluded, then different label
        self.pair = pair = np.empty((2, n, b), dtype=bool)
        self.pos, self.neg = pos, neg = pair[0], pair[1]
        pos[...] = same[rows]
        np.logical_not(pos, out=neg)
        pos.flat[own_entry] = False
        self.n_pos = n_same[rows, None] - 1.0  # (rows, 1) positives of each anchor
        self.has_pos, self.paired = has_pos[rows], paired[rows]
        # the anchors each term skips, and whether it has any other
        self.n_no_pos = n - int(np.add.reduce(self.has_pos))  # one call where count_nonzero makes three
        self.n_no_pair = self.n_no_pos if any_neg else n
        self.any_pos = self.n_no_pos < n
        self.any_paired = self.n_no_pair < n
        own = class_of[rows]  # (rows,) description class of each anchor
        self.own_class = own_class = local * leads.size + own  # flat into (rows, C)
        # mining: the live classes, those with an anchor here that has a
        # positive and a negative, and member: u is one of the class's anchors
        every = n == b  # every sample is an anchor
        if every:
            n_anchors, anchor_class = class_size, class_of
            live = paired[leads].nonzero()[0]
        else:
            n_anchors = np.bincount(own, minlength=leads.size)
            live = ((n_anchors > 0) & paired[leads]).nonzero()[0]
            anchor_class = -1 - index  # each anchor's class, a negative number at other samples
            anchor_class[rows] = own
        self.member = member = anchor_class == live[:, None]  # (C', B)
        # (C', 1, B) same label as the live class: its members, when classes are labels
        self.live_same = member[:, None, :] if by_label and every else same[leads[live], None]
        self.n_a = n_a = n_anchors[live, None, None].astype(np.float64)  # (C', 1, 1) |A|
        # |A| - [u in A]: the anchors u is a hard positive for
        self.pos_count = n_a - member[:, None, :]
        self.live_index = index[: live.size, None]  # (C', 1)
        self.live_desc = desc = self.class_desc[live]  # (C', K, d)
        self.live_norms = norms = np.sqrt(np.einsum("ckd,ckd->ck", desc, desc))  # (C', K)
        # a zero norm gets a zero unit vector: mining rejects it before reading this
        self.live_unit = np.zeros(desc.shape)
        np.divide(desc, norms[:, :, None], out=self.live_unit, where=norms[:, :, None] != 0.0)
        # MI: each anchor's negatives in each class, plus one for its own,
        # which holds no negative; only a class of the anchor's own label
        # but not its own class weighs 0 (none when each label is one
        # class), and MI scores no such class
        weight = np.where(neg.take(leads, axis=1), class_size, 0.0)
        weight.flat[own_class] = 1.0
        self.weight = weight[:, :, None]  # (rows, C, 1)
        some_empty = not by_label and 0.0 in weight
        self.score_fill = np.where(self.weight > 0.0, 0.0, -np.inf) if some_empty else None

    @classmethod
    def of_batch(cls, batch: Batch, rows: slice) -> "_Layout":
        same = batch.labels[:, None] == batch.labels[None, :]
        first = same.argmax(axis=1)  # first sample of each sample's label
        lead = None
        if (batch.descriptions[first] != batch.descriptions).any():
            lead = np.arange(batch.size)
        return cls(same, first, lead, rows, batch.descriptions, np.arange(batch.size))

    @classmethod
    def of_rows(cls, table_row: np.ndarray, table: np.ndarray) -> "_Layout":
        """The layout of samples that carry rows ``table_row`` of an (R, K, d) ``table``.

        Every sample is an anchor.  A table row is one relation's block,
        so the labels are the table rows and the classes the relations in
        order of first appearance: what ``of_batch`` finds, without
        comparing blocks.
        """
        same = table_row[:, None] == table_row[None, :]
        return cls(same, same.argmax(axis=1), None, slice(0, table_row.size), table, table_row)


class _Kernel:
    """The four objectives of one batch's embeddings z over a ``_Layout``.

    SCL and HSMT evaluate every anchor at once from one Gram block
    z[rows] @ z.T, and MI scores each anchor against the (C * K) class
    descriptions.  The transients grow as rows * max(B, C * K) floats,
    and mining's as C' * K * B.  A term asked for no ``values`` skips its
    value arithmetic and returns ``values=None``, with the same gradient
    bits.

    The description side of mining and HM depends on an anchor only
    through its class, so it is done once per live class: one whose
    anchors have a positive and a negative.  With
    dist = 1 - cos(d_c^k, z_u) and A the class's anchors:

    * a same-label u with dist > the closest negative is a hard positive
      for |A| - [u in A] anchors (an anchor is never its own positive);
    * a negative u is a hard negative for
      |A| [dist < top1] - [arg1 in A] [top2 <= dist < top1] anchors,
      where top1/arg1 is the farthest same-label sample (lowest index on
      ties) and top2 the farthest once arg1 is removed: every anchor but
      arg1 has arg1 as its farthest positive, arg1 has top2.

    HM's values and gradients are these counts times the per-class terms.
    """

    def __init__(self, z: np.ndarray, layout: _Layout) -> None:
        self.z = z
        self.sq_norms = np.einsum("ij,ij->i", z, z)
        self.norms = norms = np.sqrt(self.sq_norms)
        self.nonzero = 0.0 not in norms  # a test made in C, no call of NumPy's Python layer
        # Every term that takes a cosine against a zero-norm row rejects
        # it first; the stand-in norm only keeps unused entries finite.
        self.safe_norms = norms if self.nonzero else np.where(norms == 0.0, 1.0, norms)
        self.z_hat = z / self.safe_norms[:, None]
        self.layout = layout
        self.gram = z[layout.rows] @ z.T  # (rows, B), read by SCL and HSMT, written by neither

    def _require_nonzero(self, used: np.ndarray) -> None:
        bad = (used & (self.norms == 0.0)).nonzero()[0]
        if bad.size:
            raise ValueError(
                f"batch sample {int(bad[0])} has zero norm; cosine is undefined"
            )

    def scl(self, tau: float, values: bool = True) -> _Term:
        """Masked log-softmax over the rows of the cosine matrix."""
        z, lay, norms = self.z, self.layout, self.norms
        rows, active = lay.rows, lay.has_pos
        if not lay.any_pos:
            return _Term(np.zeros(active.size), np.zeros(z.shape))
        if not self.nonzero:  # an active anchor takes its cosine with every row
            self._require_nonzero(np.ones(self.norms.size, dtype=bool))
        cos = self.gram / (norms[rows, None] * norms[None, :])
        np.minimum(np.maximum(cos, -1.0, out=cos), 1.0, out=cos)  # np.clip, in place
        s = cos / tau
        s.flat[lay.own_entry] = -np.inf  # u != x
        shift = np.maximum.reduce(s, axis=1, keepdims=True)
        n_pos = lay.n_pos
        term_values = None
        if values:
            pos_s = np.add.reduce(np.where(lay.pos, s, 0.0), axis=1)
        w = s  # in place from here: the softmax's terms, then the coefficients
        w -= shift
        np.exp(w, out=w)
        total = np.add.reduce(w, axis=1, keepdims=True)
        if values:
            log_total = shift[:, 0] + np.log(total[:, 0])
            term_values = np.where(active, n_pos[:, 0] * log_total - pos_s, 0.0)

        # dL/ds_u = n_pos * softmax_u - [u is positive]; rows without
        # positives have n_pos == 0 and no positive, so a zero row.
        coeff = w
        coeff /= total
        coeff *= n_pos
        coeff -= lay.pos
        coeff /= tau
        # dcos/dz_u = (x_hat - cos u_hat) / |u|, dcos/dz_x = (u_hat - cos x_hat) / |x|
        weighted_cos = coeff * cos
        z_hat = self.z_hat
        grad = coeff.T @ z_hat[rows] - np.add.reduce(weighted_cos, axis=0)[:, None] * z_hat
        grad /= norms[:, None]
        grad[rows] += (
            coeff @ z_hat - np.add.reduce(weighted_cos, axis=1)[:, None] * z_hat[rows]
        ) / norms[rows, None]
        return _Term(term_values, grad)

    def hsmt(self, values: bool = True) -> _Term:
        """Batch-hard pairs: the farthest positive and the nearest negative of each anchor.

        Squared distances in Gram form choose p* and n*.  An anchor whose
        best two candidates on a side lie within the form's error bound
        is decided again by ``_exact_star``, so every choice, ties to the
        lowest index included, is the one the (B, d) differences make.
        """
        z, lay = self.z, self.layout
        rows, paired = lay.rows, lay.paired
        grad = np.zeros(z.shape)
        if not lay.any_paired:
            return _Term(np.zeros(paired.size), grad, np.zeros(paired.size, dtype=bool))
        b, d = z.shape
        sq, z_rows = self.sq_norms, z[rows]
        # (rows, B): |z_a|^2 + |z_b|^2 - 2 z_a.z_b, each within 2(d + 2)u(|z_a|^2 + |z_b|^2)
        # of the exact square, u = 2^-53 (Higham, Accuracy and Stability of
        # Numerical Algorithms, 3.1), plus a few subnormal steps where it underflows
        gram = self.gram * -2.0
        gram += sq[rows, None]
        gram += sq
        # (2, rows, B) keys, +distance^2 to a positive and -distance^2 to a
        # negative, the lowest float off the pairs; argmax takes the lowest
        # index on ties, and the partition puts each side's runner-up at B - 2
        keys = np.where(lay.pair, gram * _PAIR_SIGN, _NO_KEY)
        star = keys.argmax(axis=2)
        keys.partition(b - 2, axis=2)
        gap = keys[:, :, b - 1] - keys[:, :, b - 2]
        # a gap's rounding in this form and in the reference form stays
        # within 8(d + 2.5)u(|z_a|^2 + max |z_b|^2); the reference form
        # decides a side whose gap is within twice that, or NaN
        bound = (16 * (d + 2)) * (2.0**-53 * (sq[rows] + np.maximum.reduce(sq)) + _SUBNORMAL)
        close = ~(gap > bound)
        near = (paired & (close[0] | close[1])).nonzero()[0]
        if near.size:
            star[:, near] = self._exact_star(near)
        # (2, rows, d): z[rows] - z[star]; an einsum over them gives the
        # bits of the full tensor's entries
        diff_star = z_rows - z[star]
        d_star = np.where(paired, np.sqrt(np.einsum("abk,abk->ab", diff_star, diff_star)), 0.0)
        exp_p, exp_n = e = np.exp(d_star)
        arg = 1.0 + exp_p - exp_n
        clamped = paired & (arg <= HSMT_FLOOR)
        live = paired ^ clamped
        arg = np.where(live, arg, 1.0)
        term_values = None
        if values:
            term_values = np.where(live, -np.log(arg), 0.0)
            term_values[clamped] = -math.log(HSMT_FLOOR)

        # dL/d(dp) = -exp_p / arg, dL/d(dn) = +exp_n / arg; only the
        # selected pair of a live anchor receives gradient, along
        # d||a - b||/da = (a - b) / ||a - b||, taken as zero where a == b
        coeff = np.where(live, _PAIR_PULL * e / arg, 0.0)
        unit = np.zeros(diff_star.shape)
        length = d_star[:, :, None]
        np.divide(diff_star, length, out=unit, where=length != 0.0)
        g = coeff[:, :, None] * unit
        grad[rows] += g[0] + g[1]
        # the p* rows, then the n* rows, subtracted in order from the flat
        # gradient (a flat ufunc.at takes NumPy's fast path, a row-wise one not)
        flat = (star[:, :, None] * d + np.arange(d)).reshape(-1)
        np.subtract.at(grad.reshape(-1), flat, g.reshape(-1))
        return _Term(term_values, grad, clamped)

    def _exact_star(self, near: np.ndarray) -> np.ndarray:
        """(2, n) p* and n* of the anchors at places ``near`` among the rows, in the reference form.

        The form is the (n, B, d) differences z[rows][near][:, None] - z,
        their distances by one einsum and a masked argmax.
        """
        z, lay = self.z, self.layout
        b, d = z.shape
        diff = z[lay.rows][near].repeat(b, axis=0).reshape(-1, b, d)
        diff -= z
        dist = np.sqrt(np.einsum("abk,abk->ab", diff, diff))
        return np.where(lay.pair[:, near], dist * _PAIR_SIGN, -np.inf).argmax(axis=2)

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
        if 0.0 in an:
            raise ValueError("anchor has zero norm; cosine is undefined")
        if not self.nonzero:  # reject a zero-norm sample an active anchor compares with
            self._require_nonzero((lay.pos | lay.neg)[lay.paired].any(axis=0))
        # one product over every k, sliced after
        cos = (lay.live_desc @ self.z.T)[:, ks] / (an[:, :, None] * self.safe_norms)
        dist = np.maximum(cos, -1.0)
        np.subtract(1.0, np.minimum(dist, 1.0, out=dist), out=dist)  # 1 - np.clip
        b = self.z.shape[0]
        # mining's distances to the live class's label, and to the other labels
        same_dist = np.where(lay.live_same, dist, -np.inf)
        neg_dist = np.where(lay.live_same, np.inf, dist)
        arg1 = same_dist.argmax(axis=2)  # lowest index among the farthest
        top = same_dist.copy()
        top.partition(b - 2, axis=2)
        top1, top2 = top[:, :, b - 1 :], top[:, :, b - 2 : b - 1]  # top2 = top1 on a tie
        arg1_in_a = lay.member[lay.live_index, arg1, None]
        closest_neg = np.minimum.reduce(neg_dist, axis=2, keepdims=True)
        hard_pos = np.where(same_dist > closest_neg, lay.pos_count, 0.0)
        hard_neg = np.where(neg_dist < top1, lay.n_a - (arg1_in_a & (neg_dist >= top2)), 0.0)
        return cos, lay.live_unit[:, ks], hard_pos, hard_neg

    def hm(self, margin: float, values: bool = True) -> _Term:
        """Quadratic pulls on hard positives and pushes on hard negatives, per class."""
        z, lay = self.z, self.layout
        if not lay.any_paired:
            return _Term(np.zeros(lay.paired.size), np.zeros(z.shape))
        cos, a_hat, hard_pos, hard_neg = self.mine()
        t_pos = 1.0 - cos
        t_neg = margin - 1.0 + cos
        hard_neg = np.where(t_neg > 0.0, hard_neg, 0.0)
        term_values = None
        if values:
            term_values = np.add.reduce(
                hard_pos * (t_pos * t_pos) + hard_neg * (t_neg * t_neg), axis=(1, 2)
            )
        # dL/dcos per (class, k, sample); dcos/dz_u = (a_hat - cos z_hat_u) / |z_u|
        g = hard_neg * (2.0 * t_neg) - hard_pos * (2.0 * t_pos)
        b, d = z.shape
        grad = g.reshape(-1, b).T @ a_hat.reshape(-1, d)
        grad -= np.einsum("ckb,ckb->b", g, cos)[:, None] * self.z_hat
        grad /= self.safe_norms[:, None]
        return _Term(term_values, grad)

    def mi(self, w_matrix: np.ndarray, tau: float, values: bool = True) -> _Term:
        """InfoNCE over one (rows, C * K) block of bilinear scores against the classes.

        Class c enters an anchor's denominator once per negative sample
        it holds, plus once as the anchor's own class (the numerator).
        """
        z, lay = self.z, self.layout
        c, k, _ = lay.class_desc.shape
        rows, own_class, desc = lay.rows, lay.own_class, lay.class_flat
        grad = np.zeros(z.shape)
        if not lay.any_neg:
            return _Term(np.zeros(lay.paired.size), grad, grad_w=np.zeros(w_matrix.shape))
        z_rows = z[rows]
        # (rows, C * K) scores z_x^T W d_c^k / tau; in place below, their
        # shifted exponentials, weighted, then the gradient's coefficients
        e = (z_rows @ w_matrix) @ desc.T
        e /= tau
        by_class = e.reshape(-1, c, k)  # (rows, C, K) view
        if lay.score_fill is not None:
            by_class += lay.score_fill
        e -= np.maximum.reduce(e, axis=1, keepdims=True)
        np.exp(e, out=e)
        e_own = e.reshape(-1, k).take(own_class, axis=0)  # (rows, K)
        by_class *= lay.weight
        s_all = np.add.reduce(e, axis=1)
        s_pos = np.add.reduce(e_own, axis=1)
        # every anchor has a negative here
        term_values = np.log(s_all) - np.log(s_pos) if values else None

        coeff = e
        coeff /= s_all[:, None]
        coeff.reshape(-1, k)[own_class] -= e_own / s_pos[:, None]
        weighted = coeff @ desc  # sum_i coeff_i * d_i, per anchor
        grad[rows] = (weighted @ w_matrix.T) / tau
        grad_w = (z_rows.T @ weighted) / tau
        return _Term(term_values, grad, grad_w=grad_w)


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
    """W as a (d, d) matrix: its shape is checked first, then ``formats._as_matrix``."""
    shape = np.shape(w_matrix)
    if shape != (d, d):
        raise ValueError(f"W must be ({d}, {d}), got {shape}")
    return _as_matrix(w_matrix, "W")


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
    kernel = _one_row(batch, x)
    term = kernel.scl(tau)
    return SclResult(float(term.values[0]), term.grad_z, not kernel.layout.has_pos[0])


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
    kernel = _one_row(batch, x)
    term = kernel.hsmt()
    no_pair, clamped = not kernel.layout.paired[0], bool(term.clamped[0])
    return HsmtResult(float(term.values[0]), term.grad_z, no_pair, clamped)


def mine_hard(batch: Batch, x: int, k: int) -> MiningSets:
    """Mine hard examples for sample x against its k-th description.

    With dist(u) = 1 - cos(d_x^k, z_u): hard positives are positives
    farther than the closest negative, hard negatives are negatives
    closer than the farthest positive.  Both P(x) and N(x) must be
    non-empty.
    """
    kernel = _one_row(batch, x)
    pos, neg = np.flatnonzero(kernel.layout.pos[0]), np.flatnonzero(kernel.layout.neg[0])
    if pos.size == 0:
        raise ValueError(f"sample {x} has no positives to mine")
    if neg.size == 0:
        raise ValueError(f"sample {x} has no negatives to mine")
    if not 0 <= checked(k, int, "description index") < batch.k_desc:
        raise ValueError(f"description index {k} out of range for K={batch.k_desc}")
    # x is its class's one anchor
    _, _, hard_pos, hard_neg = kernel.mine(slice(k, k + 1))
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
    kernel = _one_row(batch, x)
    term = kernel.hm(margin)
    return HmResult(float(term.values[0]), term.grad_z, not kernel.layout.paired[0])


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
    kernel = _one_row(batch, x)
    term = kernel.mi(w_matrix, tau)
    return MiResult(float(term.values[0]), term.grad_z[x], term.grad_w, not kernel.layout.any_neg)


def joint_loss(batch: Batch, hp: HyperParams, w_matrix: np.ndarray) -> JointResult:
    """Batch-mean of the beta-weighted sum of all four objectives.

    The batch's size is checked for SCL and HSMT, and W's (d, d) shape
    whatever ``beta_mi`` is; the layout is built by comparing the
    description blocks.  Linear in each beta; terms with beta == 0 are
    skipped entirely, so disabling a loss also disables its
    degenerate-input flags.
    """
    if hp.beta_sc != 0.0:
        _require_pair(batch, "scl_loss")
    if hp.beta_st != 0.0:
        _require_pair(batch, "hsmt_loss")
    w_matrix = _as_bilinear(w_matrix, batch.embed_dim)
    return _joint(batch.z, _Layout.of_batch(batch, slice(0, batch.size)), hp, w_matrix)


def _joint(
    z: np.ndarray, layout: _Layout, hp: HyperParams, w_matrix: np.ndarray,
    grad_w: np.ndarray | None = None, values: bool = True,
) -> JointResult:
    """``joint_loss`` of the (B, d) embeddings z over a layout of every row, unchecked.

    The W gradient is written into ``grad_w`` when one is given, a
    (d, d) array such as a view of a trainer's flat gradient.  With
    ``values`` false no term computes its value and ``value`` is None;
    the three counts are made either way.
    """
    kernel = _Kernel(z, layout)
    sc = kernel.scl(hp.tau, values) if hp.beta_sc != 0.0 else None
    st = kernel.hsmt(values) if hp.beta_st != 0.0 else None
    del kernel.gram  # SCL's and HSMT's block, freed before HM and MI
    hm = kernel.hm(hp.margin, values) if hp.beta_hm != 0.0 else None
    mi = kernel.mi(w_matrix, hp.tau, values) if hp.beta_mi != 0.0 else None
    if grad_w is None:
        grad_w = np.zeros(w_matrix.shape)
    else:
        grad_w[...] = 0.0
    if mi is not None:
        grad_w += hp.beta_mi * mi.grad_w
    # the terms add up from zero in this order (a zero start turns a
    # -0.0 entry into 0.0, so it is part of the bits)
    total = 0.0
    grad_z = np.zeros(z.shape)
    for beta, term in ((hp.beta_sc, sc), (hp.beta_st, st), (hp.beta_hm, hm), (hp.beta_mi, mi)):
        if term is not None:
            if values:
                total += beta * float(np.add.reduce(term.values))
            grad_z += beta * term.grad_z
    scale = 1.0 / z.shape[0]
    grad_z *= scale
    grad_w *= scale
    return JointResult(
        value=total * scale if values else None,
        grad_z=grad_z,
        grad_w=grad_w,
        no_positive_count=0 if sc is None else layout.n_no_pos,
        no_pair_count=0 if st is None else layout.n_no_pair,
        clamped_count=0 if st is None else int(np.add.reduce(st.clamped)),
    )
