"""Per-relation and per-row loop versions of the array code outside the loss kernel.

These are the loops that data generation, memory selection, prototypes,
checkpoints and the rank step of ``evaluate`` ran before they became
array operations, and the relation-by-relation checks whose errors and
bits ``DescriptionSet`` keeps.  They are kept as the oracle:
``tests/test_loops.py`` requires the array code to give the same bits,
the same picks and the same errors.
"""

from __future__ import annotations

import math
import warnings

import numpy as np

from fcre.geometry import euclidean, unit_normalize

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
            raise ValueError(f"relation {rel}: center must be a 1-D vector")
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
        if block.ndim != 2:
            raise ValueError(
                f"relation {rel}: vectors must be a (K, d) array, got shape {block.shape}"
            )
        if not np.all(np.isfinite(block)):
            raise ValueError(f"relation {rel}: non-finite description entries")
        k, d = block.shape
        if k < 1 or d < 1:
            raise ValueError(f"relation {rel}: K and d must be >= 1")
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


def check_task_coverage(index, relations, train_y, test_y):
    """``Task``'s label checks: one set per split, then one ``np.any`` per relation."""
    rel_set = set(relations)
    for split, labels in ("train", train_y), ("test", test_y):
        extra = set(int(v) for v in labels) - rel_set
        if extra:
            raise ValueError(
                f"task {index} {split} labels {sorted(extra)} are not in its relation set"
            )
    for r in relations:
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


def memory_blocks(features, labels):
    """Checkpoint blocks: relations in first-appearance order, one mask each."""
    return [(rel, features[labels == rel]) for rel in dict.fromkeys(labels.tolist())]


def ranks(keys):
    """``evaluate``'s ranks through ``take_along_axis`` and ``put_along_axis``."""
    order = np.argsort(keys, axis=1)
    ordered = np.take_along_axis(keys, order, axis=1)
    tied = np.flatnonzero(np.any(ordered[:, 1:] == ordered[:, :-1], axis=1))
    if tied.size:
        order[tied] = np.argsort(keys[tied], axis=1, kind="stable")
    out = np.empty(keys.shape, dtype=np.float64)
    np.put_along_axis(out, order, np.arange(1.0, keys.shape[1] + 1.0)[None, :], axis=1)
    return out
