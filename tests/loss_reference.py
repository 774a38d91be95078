"""Per-anchor reference implementation of the four losses and of mining.

These are the loop bodies ``fcre.losses`` evaluated one anchor at a
time before it computed every anchor of a batch in one blocked kernel.
They are kept here, outside the package, as the oracle that
``tests/test_losses.py`` compares the kernel and its per-anchor views
against: values, gradients, hard sets and degenerate counters.
``batch_hard_hsmt`` is the whole-batch HSMT of the kernel with its pair
selection and scatters spelled out one at a time, the order that fixes
the gradient's bits.
"""

import math

import numpy as np

from fcre.geometry import euclidean
from fcre.losses import (
    Batch,
    HmResult,
    HsmtResult,
    HyperParams,
    JointResult,
    MiningSets,
    MiResult,
    SclResult,
)


def euclidean_gradients(a, b) -> tuple[np.ndarray, np.ndarray]:
    """Partial derivatives of ``euclidean(a, b)``; zero at coincident points.

    The distance is not differentiable at a == b; the zero subgradient is
    returned there so callers never see NaN.
    """
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    diff = a - b
    dist = math.sqrt(float(np.dot(diff, diff)))
    if dist == 0.0:
        zero = np.zeros_like(a)
        return zero, zero.copy()
    grad_a = diff / dist
    return grad_a, -grad_a



def _row_norms(rows: np.ndarray, what: str) -> np.ndarray:
    norms = np.sqrt(np.einsum("ij,ij->i", rows, rows))
    if np.any(norms == 0.0):
        idx = int(np.flatnonzero(norms == 0.0)[0])
        raise ValueError(f"{what} {idx} has zero norm; cosine is undefined")
    return norms


def _cosines_to(anchor: np.ndarray, rows: np.ndarray, what: str) -> np.ndarray:
    """cos(anchor, rows[i]) for every row, with zero-norm rejection."""
    an = math.sqrt(float(np.dot(anchor, anchor)))
    if an == 0.0:
        raise ValueError("anchor has zero norm; cosine is undefined")
    norms = _row_norms(rows, what)
    vals = (rows @ anchor) / (norms * an)
    return np.clip(vals, -1.0, 1.0)


def scl_loss(batch: Batch, x: int, tau: float) -> SclResult:
    """Supervised contrastive loss for sample x.

    L = -sum_{p in P(x)} log( exp(cos(z_x,z_p)/tau) /
                              sum_{u != x} exp(cos(z_x,z_u)/tau) )

    The denominator runs over every other batch sample, positives
    included.  Returns zero with ``no_positive`` set when x has no
    same-label partner.
    """
    if not tau > 0.0:
        raise ValueError(f"tau must be positive, got {tau}")
    if batch.size < 2:
        raise ValueError("scl_loss needs a batch of at least two samples")
    grad = np.zeros_like(batch.z)
    pos = batch.positives(x)
    if pos.size == 0:
        return SclResult(0.0, grad, True)

    others = np.flatnonzero(np.arange(batch.size) != x)
    zx = batch.z[x]
    zu = batch.z[others]
    cos_vals = _cosines_to(zx, zu, "batch sample")
    s = cos_vals / tau
    shift = float(np.max(s))
    w = np.exp(s - shift)
    total = float(np.sum(w))
    log_total = shift + math.log(total)

    pos_mask = batch.labels[others] == batch.labels[x]
    n_pos = int(np.count_nonzero(pos_mask))
    value = n_pos * log_total - float(np.sum(s[pos_mask]))

    # dL/ds_u = n_pos * softmax_u - [u is positive]
    coeff = (n_pos * (w / total) - pos_mask.astype(np.float64)) / tau

    xn = math.sqrt(float(np.dot(zx, zx)))
    un = np.sqrt(np.einsum("ij,ij->i", zu, zu))
    x_hat = zx / xn
    u_hat = zu / un[:, None]
    cos_col = cos_vals[:, None]
    dcos_dzu = (x_hat[None, :] - cos_col * u_hat) / un[:, None]
    dcos_dzx = (u_hat - cos_col * x_hat[None, :]) / xn

    grad[others] += coeff[:, None] * dcos_dzu
    grad[x] += coeff @ dcos_dzx
    return SclResult(float(value), grad, False)


def hsmt_loss(batch: Batch, x: int) -> HsmtResult:
    """Hardest-pair margin loss for sample x.

    With p* the positive farthest from z_x and n* the negative nearest
    to z_x (Euclidean), the loss is
    -log(max(1 + exp(d(z_x,z_p*)) - exp(d(z_x,z_n*)), 1e-6)).
    Only the selected pair receives gradient; when the clamp is active
    the gradient is zero everywhere.  Missing positives or negatives
    yield zero with ``no_pair`` set.
    """
    if batch.size < 2:
        raise ValueError("hsmt_loss needs a batch of at least two samples")
    grad = np.zeros_like(batch.z)
    pos = batch.positives(x)
    neg = batch.negatives(x)
    if pos.size == 0 or neg.size == 0:
        return HsmtResult(0.0, grad, True, False)

    zx = batch.z[x]
    pos_dists = np.array([euclidean(zx, batch.z[p]) for p in pos])
    neg_dists = np.array([euclidean(zx, batch.z[n]) for n in neg])
    p_star = int(pos[np.argmax(pos_dists)])  # argmax takes first, i.e. lowest index
    n_star = int(neg[np.argmin(neg_dists)])
    dp = float(np.max(pos_dists))
    dn = float(np.min(neg_dists))

    exp_p = math.exp(dp)
    exp_n = math.exp(dn)
    arg = 1.0 + exp_p - exp_n
    floor = 1e-6
    if arg <= floor:
        return HsmtResult(-math.log(floor), grad, False, True)

    value = -math.log(arg)
    # dL/d(dp) = -exp_p / arg, dL/d(dn) = +exp_n / arg
    gp_x, gp_p = euclidean_gradients(zx, batch.z[p_star])
    gn_x, gn_n = euclidean_gradients(zx, batch.z[n_star])
    grad[x] += (-exp_p / arg) * gp_x + (exp_n / arg) * gn_x
    grad[p_star] += (-exp_p / arg) * gp_p
    grad[n_star] += (exp_n / arg) * gn_n
    return HsmtResult(value, grad, False, False)


def batch_hard_hsmt(z: np.ndarray, labels: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Every anchor's HSMT value and the (B, d) gradient of their sum.

    p* is an argmax over the positives, n* an argmin over the negatives,
    and the pair gradients scatter by one ``np.add.at`` per side, the
    p* side first.
    """
    b = z.shape[0]
    same = labels[:, None] == labels[None, :]
    pos = same & ~np.eye(b, dtype=bool)
    neg = ~same
    paired = pos.any(axis=1) & neg.any(axis=1)
    diff = z[:, None, :] - z[None, :, :]
    dist = np.sqrt(np.einsum("abk,abk->ab", diff, diff))
    p_star = np.argmax(np.where(pos, dist, -np.inf), axis=1)
    n_star = np.argmin(np.where(neg, dist, np.inf), axis=1)
    a = np.arange(b)
    dp = np.where(paired, dist[a, p_star], 0.0)
    dn = np.where(paired, dist[a, n_star], 0.0)
    exp_p, exp_n = np.exp(dp), np.exp(dn)
    arg = 1.0 + exp_p - exp_n
    clamped = paired & (arg <= 1e-6)
    live = paired & ~clamped
    arg = np.where(live, arg, 1.0)
    values = np.where(live, -np.log(arg), 0.0)
    values[clamped] = -math.log(1e-6)
    g_p = np.where(live, -exp_p / arg, 0.0)[:, None] * _unit_rows(diff[a, p_star], dp)
    g_n = np.where(live, exp_n / arg, 0.0)[:, None] * _unit_rows(diff[a, n_star], dn)
    grad = np.zeros_like(z)
    grad += g_p + g_n
    np.add.at(grad, p_star, -g_p)
    np.add.at(grad, n_star, -g_n)
    return values, grad


def _unit_rows(diff: np.ndarray, dist: np.ndarray) -> np.ndarray:
    out = np.zeros_like(diff)
    np.divide(diff, dist[:, None], out=out, where=dist[:, None] != 0.0)
    return out


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

    # One (K, d) @ (d, B) product over every sample, as the kernel takes
    # it, then split by label: coincident samples get equal distances.
    anchors = batch.descriptions[x]
    an = np.sqrt(np.einsum("kd,kd->k", anchors, anchors))
    if an[k] == 0.0:
        raise ValueError("anchor has zero norm; cosine is undefined")
    norms = np.sqrt(np.einsum("ij,ij->i", batch.z, batch.z))
    others = np.sort(np.concatenate([pos, neg]))
    if np.any(norms[others] == 0.0):
        idx = int(others[norms[others] == 0.0][0])
        raise ValueError(f"batch sample {idx} has zero norm; cosine is undefined")
    safe = np.where(norms == 0.0, 1.0, norms)  # x's own column is never read
    dist = 1.0 - np.clip((anchors @ batch.z.T)[k] / (an[k] * safe), -1.0, 1.0)
    pos_dist = dist[pos]
    neg_dist = dist[neg]
    closest_neg = float(np.min(neg_dist))
    farthest_pos = float(np.max(pos_dist))
    hard_pos = tuple(int(p) for p, dist in zip(pos, pos_dist) if dist > closest_neg)
    hard_neg = tuple(int(n) for n, dist in zip(neg, neg_dist) if dist < farthest_pos)
    return MiningSets(
        k=k,
        positives=tuple(int(p) for p in pos),
        negatives=tuple(int(n) for n in neg),
        hard_positives=hard_pos,
        hard_negatives=hard_neg,
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
    if not 0.0 < margin <= 1.0:
        raise ValueError(f"margin must lie in (0, 1], got {margin}")
    grad = np.zeros_like(batch.z)
    pos = batch.positives(x)
    neg = batch.negatives(x)
    if pos.size == 0 or neg.size == 0:
        return HmResult(0.0, grad, True)

    value = 0.0
    for k in range(batch.k_desc):
        sets = mine_hard(batch, x, k)
        anchor = batch.descriptions[x, k]
        an = math.sqrt(float(np.dot(anchor, anchor)))
        if an == 0.0:
            raise ValueError("description anchor has zero norm")
        a_hat = anchor / an
        for p in sets.hard_positives:
            zp = batch.z[p]
            pn = math.sqrt(float(np.dot(zp, zp)))
            c = float(np.dot(a_hat, zp)) / pn
            t = 1.0 - c
            value += t * t
            dcos_dzp = (a_hat - c * (zp / pn)) / pn
            grad[p] += -2.0 * t * dcos_dzp
        for n in sets.hard_negatives:
            zn = batch.z[n]
            nn = math.sqrt(float(np.dot(zn, zn)))
            c = float(np.dot(a_hat, zn)) / nn
            t = margin - 1.0 + c
            if t > 0.0:
                value += t * t
                dcos_dzn = (a_hat - c * (zn / nn)) / nn
                grad[n] += 2.0 * t * dcos_dzn
    return HmResult(float(value), grad, False)


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
    if not tau > 0.0:
        raise ValueError(f"tau must be positive, got {tau}")
    w_matrix = np.asarray(w_matrix, dtype=np.float64)
    d = batch.embed_dim
    if w_matrix.shape != (d, d):
        raise ValueError(f"W must be ({d}, {d}), got {w_matrix.shape}")
    grad_w = np.zeros_like(w_matrix)
    neg = batch.negatives(x)
    zx = batch.z[x]
    if neg.size == 0:
        return MiResult(0.0, np.zeros(d), grad_w, True)

    k = batch.k_desc
    own = batch.descriptions[x]  # (K, d)
    neg_desc = batch.descriptions[neg].reshape(-1, d)  # (|N|*K, d)
    all_desc = np.vstack([own, neg_desc])
    wt_zx = w_matrix.T @ zx
    scores = (all_desc @ wt_zx) / tau

    shift = float(np.max(scores))
    e = np.exp(scores - shift)
    s_all = float(np.sum(e))
    s_pos = float(np.sum(e[:k]))
    value = math.log(s_all) - math.log(s_pos)

    coeff = e / s_all
    coeff[:k] -= e[:k] / s_pos
    weighted = coeff @ all_desc  # sum_i coeff_i * d_i
    grad_zx = (w_matrix @ weighted) / tau
    grad_w = np.outer(zx, weighted) / tau
    return MiResult(float(value), grad_zx, grad_w, False)


def joint_loss(batch: Batch, hp: HyperParams, w_matrix: np.ndarray) -> JointResult:
    """Batch-mean of the beta-weighted sum of all four objectives.

    Linear in each beta; terms with beta == 0 are skipped entirely, so
    disabling a loss also disables its degenerate-input flags.
    """
    b = batch.size
    w_matrix = np.asarray(w_matrix, dtype=np.float64)
    total = 0.0
    grad_z = np.zeros_like(batch.z)
    grad_w = np.zeros_like(w_matrix)
    no_positive = 0
    no_pair = 0
    clamped = 0
    for x in range(b):
        if hp.beta_sc != 0.0:
            r = scl_loss(batch, x, hp.tau)
            total += hp.beta_sc * r.value
            grad_z += hp.beta_sc * r.grad_z
            no_positive += int(r.no_positive)
        if hp.beta_st != 0.0:
            r = hsmt_loss(batch, x)
            total += hp.beta_st * r.value
            grad_z += hp.beta_st * r.grad_z
            no_pair += int(r.no_pair)
            clamped += int(r.clamped)
        if hp.beta_hm != 0.0:
            r = hm_loss(batch, x, hp.margin)
            total += hp.beta_hm * r.value
            grad_z += hp.beta_hm * r.grad_z
        if hp.beta_mi != 0.0:
            r = mi_loss(batch, x, w_matrix, hp.tau)
            total += hp.beta_mi * r.value
            grad_z[x] += hp.beta_mi * r.grad_z_x
            grad_w += hp.beta_mi * r.grad_w
    scale = 1.0 / b
    return JointResult(
        value=total * scale,
        grad_z=grad_z * scale,
        grad_w=grad_w * scale,
        no_positive_count=no_positive,
        no_pair_count=no_pair,
        clamped_count=clamped,
    )
