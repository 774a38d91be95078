"""Vector similarity primitives and deterministic score ranking.

These are the one-vector primitives: memory selection and the
per-query prediction heads call them, and they validate every input: an
embedding is a finite, non-empty 1-D vector, and any operation that
divides by a norm rejects zero-norm input with an error naming the
offending argument.  The batched loss kernel and ``evaluate`` work on
whole matrices instead and validate once, at the batch.  All arithmetic
is done in float64 regardless of the caller's storage dtype.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Mapping

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


def cosine_gradients(a, b) -> tuple[np.ndarray, np.ndarray]:
    """Partial derivatives of ``cosine(a, b)`` with respect to a and b.

    d cos / d a = (b_hat - cos * a_hat) / ||a||, symmetrically for b.
    """
    a, b = _pair(a, b)
    na = math.sqrt(float(np.dot(a, a)))
    nb = math.sqrt(float(np.dot(b, b)))
    if na == 0.0 or nb == 0.0:
        raise ValueError("cosine gradient undefined for zero-norm input")
    a_hat = a / na
    b_hat = b / nb
    c = float(np.dot(a_hat, b_hat))
    grad_a = (b_hat - c * a_hat) / na
    grad_b = (a_hat - c * b_hat) / nb
    return grad_a, grad_b


def euclidean(a, b) -> float:
    """Euclidean distance between two equal-length vectors."""
    a, b = _pair(a, b)
    diff = a - b
    return math.sqrt(float(np.dot(diff, diff)))


def exp_cos_score(a, b, tau: float) -> float:
    """exp(cosine(a, b) / tau) for a temperature tau > 0."""
    if not tau > 0.0:
        raise ValueError(f"tau must be positive, got {tau}")
    return math.exp(cosine(a, b) / tau)


def unit_normalize(v, *, name: str = "vector") -> np.ndarray:
    """Scale ``v`` to unit Euclidean norm; zero-norm input is rejected."""
    v = as_embedding(v, name=name)
    n = math.sqrt(float(np.dot(v, v)))
    if n == 0.0:
        raise ValueError(f"cannot normalize {name} with zero norm")
    return v / n


@dataclass(frozen=True)
class RankTable:
    """Scores keyed by relation id together with their 1-based ranks.

    Rank 1 is the highest score; exact score ties are broken by ascending
    relation id, so the rank assignment is always a bijection onto
    1..len(scores).
    """

    scores: dict[int, float]
    ranks: dict[int, int]

    def __post_init__(self) -> None:
        if set(self.scores) != set(self.ranks):
            raise ValueError("scores and ranks must cover the same relation ids")
        n = len(self.ranks)
        if sorted(self.ranks.values()) != list(range(1, n + 1)):
            raise ValueError("ranks must be a bijection onto 1..n")


def rank_scores(scores: Mapping[int, float]) -> RankTable:
    """Assign deterministic 1-based ranks to per-relation scores.

    Higher score gets the smaller rank; ties are broken by ascending
    relation id.  NaN scores and empty input are rejected.
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
    return RankTable(scores=clean, ranks=ranks)
