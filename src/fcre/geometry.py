"""Vector similarity primitives and deterministic score ranking.

These are the one-vector primitives: memory selection and the
per-query prediction heads call them, and they validate every input: an
embedding is a finite, non-empty 1-D vector, and any operation that
divides by a norm rejects zero-norm input with an error naming the
offending argument.  The batched loss kernel and ``evaluate`` work on
whole matrices instead and validate once, at the batch.  ``row_dots``
and ``unit_rows`` are block forms with the bits that ``np.dot`` and
``unit_normalize`` give each row alone, for the callers whose results
must not depend on whether a vector is handled alone or in a block:
data generation, description synthesis and memory selection.  All
arithmetic is done in float64 regardless of the caller's storage dtype.
"""

from __future__ import annotations

import math
from typing import Mapping, NamedTuple

import numpy as np


def as_embedding(values, *, name: str = "embedding") -> np.ndarray:
    """Coerce ``values`` to a finite 1-D float64 vector.

    Raises ValueError if the input is empty, not 1-D, or contains
    NaN/inf entries.
    """
    arr = np.asarray(values, dtype=np.float64)
    if arr.ndim != 1:
        raise ValueError(f"{name} must be a 1-D vector, got shape {arr.shape}")
    if arr.size == 0:
        raise ValueError(f"{name} must be non-empty")
    if not np.all(np.isfinite(arr)):
        raise ValueError(f"{name} contains non-finite entries")
    return arr


def _pair(a, b) -> tuple[np.ndarray, np.ndarray]:
    a = as_embedding(a, name="first argument")
    b = as_embedding(b, name="second argument")
    if a.shape != b.shape:
        raise ValueError(
            f"dimension mismatch: first argument has {a.size} entries, "
            f"second has {b.size}"
        )
    return a, b


def cosine(a, b) -> float:
    """Cosine similarity of two equal-length vectors, in [-1, 1]."""
    a, b = _pair(a, b)
    na = math.sqrt(float(np.dot(a, a)))
    nb = math.sqrt(float(np.dot(b, b)))
    if na == 0.0:
        raise ValueError("cosine undefined: first argument has zero norm")
    if nb == 0.0:
        raise ValueError("cosine undefined: second argument has zero norm")
    value = float(np.dot(a, b)) / (na * nb)
    # Clip floating spill so downstream acos/comparisons stay in range.
    return min(1.0, max(-1.0, value))


def euclidean(a, b) -> float:
    """Euclidean distance between two equal-length vectors."""
    a, b = _pair(a, b)
    diff = a - b
    return math.sqrt(float(np.dot(diff, diff)))


def unit_normalize(v, *, name: str = "vector") -> np.ndarray:
    """Scale ``v`` to unit Euclidean norm; zero-norm input is rejected."""
    v = as_embedding(v, name=name)
    n = math.sqrt(float(np.dot(v, v)))
    if n == 0.0:
        raise ValueError(f"cannot normalize {name} with zero norm")
    return v / n


def row_dots(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """``np.dot(a[i], b[i])`` for every row of an (n, d) block; ``b`` may be one (d,) vector.

    The stacked (1, d) @ (d, 1) product runs NumPy's vector dot on each
    row, so every entry has the bits of ``np.dot`` on that row (at d = 1
    a zero may differ in sign, which no comparison sees).  A reduction
    such as ``einsum("nd,nd->n", a, b)`` sums in another order and gave
    other bits on about 40% of random rows.
    """
    return np.matmul(a[:, None, :], b[..., :, None])[:, 0, 0]


def unit_rows(block: np.ndarray, names) -> np.ndarray:
    """``unit_normalize`` of every row of a (n, d) block, with its bits and its errors.

    ``names[i]`` names row i; the first row that is non-finite or has
    zero norm raises the error ``unit_normalize`` gives for it.
    """
    sq_norms = row_dots(block, block)
    bad = ~np.isfinite(block).all(axis=1) | (sq_norms == 0.0)
    if bad.any():
        i = int(np.argmax(bad))
        unit_normalize(block[i], name=names[i])
    return block / np.sqrt(sq_norms)[:, None]


class Ranking(NamedTuple):
    """Scores keyed by relation id and their 1-based ranks; rank 1 is the highest score."""

    scores: dict[int, float]
    ranks: dict[int, int]


def rank_scores(scores: Mapping[int, float]) -> Ranking:
    """Assign deterministic 1-based ranks to per-relation scores.

    Higher score gets the smaller rank; ties are broken by ascending
    relation id, so the ranks are always a bijection onto 1..len(scores).
    NaN scores and empty input are rejected.
    """
    if len(scores) == 0:
        raise ValueError("cannot rank an empty score table")
    clean: dict[int, float] = {}
    for rel, value in scores.items():
        value = float(value)
        if math.isnan(value):
            raise ValueError(f"score for relation {rel} is NaN")
        clean[int(rel)] = value
    order = sorted(clean, key=lambda rel: (-clean[rel], rel))
    ranks = {rel: i + 1 for i, rel in enumerate(order)}
    return Ranking(clean, ranks)
