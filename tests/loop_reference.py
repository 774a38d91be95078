"""Per-relation and per-row loop versions of the array code outside the loss kernel.

These are the loops that data generation, memory selection, prototypes
and the rank step of ``evaluate`` ran before they became
array operations, the score tables that the per-query heads ranked and
fused as dicts, the relation-by-relation checks whose errors and bits
``DescriptionSet`` keeps, and the training step from before the encoder,
W and the gradient shared one flat buffer each: a fresh parameter
vector per Adam step, rebuilt weights, and a ``joint_loss`` that
validates a plain ``Batch``.  They are kept as the oracle:
``tests/test_loops.py`` requires the array code to give the same bits,
the same picks and the same errors.
"""

from __future__ import annotations

import math
import warnings

import numpy as np

from fcre.encoder import step
from fcre.geometry import cosine, euclidean, unit_normalize
from fcre.losses import Batch, joint_loss

_MAX_ATTEMPTS_PER_CENTER = 10_000


def sample_separated_centers(rng, count, dim, min_angle):
    """Unit vectors with pairwise angle >= min_angle, one ``np.dot`` per accepted center."""
    max_dot = math.cos(min_angle)
    centers = []
    for i in range(count):
        for _ in range(_MAX_ATTEMPTS_PER_CENTER):
            candidate = unit_normalize(rng.standard_normal(dim))
            if all(float(np.dot(candidate, c)) <= max_dot for c in centers):
                centers.append(candidate)
                break
        else:
            raise RuntimeError(f"placed only {i} of {count} class centers")
    return np.stack(centers)


def task_samples(rng, centers, relations, n_train, n_test, noise):
    """One task's pools, drawn relation by relation, train rows before test rows."""
    dim = centers.shape[1]
    train_blocks, train_labels, test_blocks, test_labels = [], [], [], []
    for rel in relations:
        center = centers[rel]
        train_blocks.append(center + noise * rng.standard_normal((n_train, dim)))
        train_labels.append(np.full(n_train, rel, dtype=np.int64))
        test_blocks.append(center + noise * rng.standard_normal((n_test, dim)))
        test_labels.append(np.full(n_test, rel, dtype=np.int64))
    return (
        np.concatenate(train_blocks),
        np.concatenate(train_labels),
        np.concatenate(test_blocks),
        np.concatenate(test_labels),
    )


def description_blocks(seed, class_centers, k_desc, spread):
    """``synth_descriptions``' blocks: one draw and one ``unit_normalize`` per vector."""
    rng = np.random.default_rng(seed)
    out = {}
    for rel in sorted(class_centers):
        center = np.asarray(class_centers[rel], dtype=np.float64)
        if center.ndim != 1 or center.size < 1:
            raise ValueError(
                f"relation {rel}: center must be a non-empty 1-D array, got shape {center.shape}"
            )
        if not np.all(np.isfinite(center)):
            raise ValueError(f"relation {rel}: center contains non-finite entries")
        rows = []
        for _ in range(k_desc):
            g = rng.standard_normal(center.size)
            rows.append(unit_normalize(center + spread * g, name=f"relation {rel} description"))
        out[int(rel)] = np.stack(rows)
    return out


def description_centers(center_map, embed_dim, seed):
    """``cli._description_centers`` with one ``unit_normalize`` per relation."""
    rng = np.random.default_rng(seed)
    feature_dim = next(iter(center_map.values())).size
    proj = rng.standard_normal((embed_dim, feature_dim)) / math.sqrt(feature_dim)
    return {
        rel: unit_normalize(proj @ center_map[rel], name=f"projected center {rel}")
        for rel in sorted(center_map)
    }


def checked_descriptions(vectors_by_relation):
    """``DescriptionSet``'s checks relation by relation; returns (blocks, means) by id."""
    blocks, means = {}, {}
    k_desc = dim = None
    for rel in sorted(vectors_by_relation):
        block = np.asarray(vectors_by_relation[rel], dtype=np.float64)
        if block.ndim != 2 or block.size == 0:
            raise ValueError(
                f"relation {rel}: vectors must be a non-empty 2-D array, got shape {block.shape}"
            )
        if not np.all(np.isfinite(block)):
            raise ValueError(f"relation {rel}: vectors contains non-finite entries")
        k, d = block.shape
        if k_desc is None:
            k_desc, dim = k, d
        elif k != k_desc:
            raise ValueError(f"relation {rel} has {k} description vectors, expected {k_desc}")
        elif d != dim:
            raise ValueError(f"relation {rel} has dimension {d}, expected {dim}")
        norms = np.sqrt(np.einsum("ij,ij->i", block, block))
        if np.any(norms == 0.0):
            bad = int(np.flatnonzero(norms == 0.0)[0])
            raise ValueError(f"relation {rel}: description vector {bad} has zero norm")
        mean = block.mean(axis=0)
        if math.sqrt(float(np.dot(mean, mean))) == 0.0:
            warnings.warn(
                f"relation {rel}: description vectors average to the zero "
                "vector; cosine-based inference against it will fail",
                RuntimeWarning,
                stacklevel=2,
            )
        blocks[int(rel)] = block.copy()
        means[int(rel)] = mean
    return blocks, means


def check_task_coverage(index, train_y, test_y):
    """``Task``'s label check: each label of either split, lowest first, must be in both."""
    for r in sorted(set(int(v) for v in train_y) | set(int(v) for v in test_y)):
        if not np.any(train_y == r):
            raise ValueError(f"task {index}: relation {r} has no train samples")
        if not np.any(test_y == r):
            raise ValueError(f"task {index}: relation {r} has no test samples")


def central_rows(embedded, memory_size):
    """One ``euclidean`` per row to the centroid; ties to the lower row index."""
    centroid = embedded.mean(axis=0)
    dists = [euclidean(row, centroid) for row in embedded]
    order = sorted(range(len(dists)), key=lambda i: (dists[i], i))
    return order[:memory_size]


def memory_picks(embedded, labels, relations, memory_size):
    """``run_task``'s picks: relations ascending, each relation's rows by distance."""
    keep = []
    for rel in relations:
        rows = np.flatnonzero(labels == rel)
        keep.extend(rows[central_rows(embedded[rows], memory_size)])
    return np.array(keep, dtype=np.int64)


def prototype_rows(embedded, labels):
    """Ascending relation ids and one boolean-mask mean per relation."""
    relations = np.array(sorted(set(labels.tolist())), dtype=np.int64)
    vectors = np.stack([embedded[labels == rel].mean(axis=0) for rel in relations])
    return relations, vectors


def ranks(keys):
    """``geometry._ranks`` through ``take_along_axis`` and ``put_along_axis``."""
    order = np.argsort(keys, axis=1)
    ordered = np.take_along_axis(keys, order, axis=1)
    tied = np.flatnonzero(np.any(ordered[:, 1:] == ordered[:, :-1], axis=1))
    if tied.size:
        order[tied] = np.argsort(keys[tied], axis=1, kind="stable")
    out = np.empty(keys.shape, dtype=np.float64)
    np.put_along_axis(out, order, np.arange(1.0, keys.shape[1] + 1.0)[None, :], axis=1)
    return out


def sorted_ranks(scores):
    """1-based ranks by the literal sort ``sorted(ids, key=(-score, id))``: ties to the lower id."""
    return {r: k for k, r in enumerate(sorted(scores, key=lambda r: (-scores[r], r)), start=1)}


def head_scores(z, prototypes, descriptions):
    """The two score tables of one query: -euclidean(z, p_r) and cos(z, mean description of r)."""
    e_scores = {r: -euclidean(z, p) for r, p in prototypes.items()}
    c_scores = {r: cosine(z, descriptions.mean(r)) for r in prototypes}
    return e_scores, c_scores


def fuse_ranked_scores(e_scores, c_scores, alpha, epsilon):
    """DRI of every relation from the ``sorted_ranks`` of two score tables."""
    e_ranks, c_ranks = sorted_ranks(e_scores), sorted_ranks(c_scores)
    return {
        r: alpha / (epsilon + e_ranks[r]) + (1.0 - alpha) / (epsilon + c_ranks[r])
        for r in e_ranks
    }


def best(scores):
    """The relation that ``sorted_ranks`` ranks first."""
    return sorted(scores, key=lambda r: (-scores[r], r))[0]


def forward(params, x):
    """``encoder._embed`` from fresh products: the (x, hidden, z) of a (n, f) block."""
    hidden = np.tanh(x @ params.w1.T + params.b1)
    return x, hidden, np.tanh(hidden @ params.w2.T + params.b2)


def backward(params, acts, grad_out):
    """``encoder._backward`` from fresh products, packed by one ``np.concatenate``."""
    x, hidden, z = acts
    dz_pre = grad_out * (1.0 - z * z)
    dw2 = dz_pre.T @ hidden
    db2 = dz_pre.sum(axis=0)
    dh_pre = (dz_pre @ params.w2) * (1.0 - hidden * hidden)
    dw1 = dh_pre.T @ x
    db1 = dh_pre.sum(axis=0)
    return np.concatenate([dw1.ravel(), db1, dw2.ravel(), db2])


def adam_step(m, v, step_count, learning_rate, params, grads):
    """Adam as one expression per array, on fresh arrays: (params, m, v, step_count)."""
    t = step_count + 1
    m = 0.9 * m + (1.0 - 0.9) * grads
    v = 0.999 * v + (1.0 - 0.999) * grads * grads
    m_hat = m / (1.0 - 0.9**t)
    v_hat = v / (1.0 - 0.999**t)
    return params - learning_rate * m_hat / (np.sqrt(v_hat) + 1e-8), m, v, t


def epoch_batches(n, rng):
    """One full batch up to 64 rows, else shuffled minibatches of 32, a straggler folded in."""
    if n <= 64:
        return [np.arange(n)]
    perm = rng.permutation(n)
    batches = [perm[i : i + 32] for i in range(0, n, 32)]
    if len(batches) > 1 and batches[-1].size == 1:
        batches[-2] = np.concatenate([batches[-2], batches[-1]])
        batches.pop()
    return batches


def train(state, train_x, train_y, hp, epochs):
    """``_train`` step by step: (encoder, W, optimizer), with ``state.rng`` advanced.

    Each step embeds the batch, builds a validated ``Batch`` from the
    samples' own description blocks, and concatenates the encoder and W
    gradients into a new vector for the pure ``encoder.step``.
    """
    blocks = np.stack([state.descriptions.vectors(int(r)) for r in train_y])
    encoder, w, opt = state.encoder, state.bilinear.matrix, state.optimizer
    n_enc = encoder.n_params
    vec = np.concatenate([encoder.to_vector(), w.ravel()])
    for _ in range(epochs):
        for idx in epoch_batches(train_x.shape[0], state.rng):
            acts = forward(encoder, train_x[idx])
            result = joint_loss(Batch(acts[2], train_y[idx], blocks[idx]), hp, w)
            grads = np.concatenate([backward(encoder, acts, result.grad_z), result.grad_w.ravel()])
            vec, opt = step(opt, vec, grads, hp.learning_rate)
            encoder = encoder.with_vector(vec[:n_enc])
            w = vec[n_enc:].reshape(w.shape)
    return encoder, w, opt
