"""Vector similarity primitives and the one ordering of relations.

The one-vector primitives validate every input: an embedding is a
finite, non-empty 1-D vector, checked by ``formats._as_matrix``, and an
operation that divides by a norm rejects zero-norm input with an error
naming the offending argument.
``euclidean`` and ``cosine`` are the reference key forms that
``tests/loop_reference.py`` scores with; no module of the package calls
them, for the prediction heads take their keys, one row or a block, from
``inference._keys``.  ``row_dots`` and ``unit_rows`` are block forms with
the bits that ``np.dot`` and ``unit_normalize`` give each row alone, for
the callers whose results must not depend on whether a vector is handled
alone or in a block: data generation, description synthesis and memory
selection.  ``_ranks`` orders relations for ``rank_scores`` and both
heads, smaller key first and exact ties to the lower relation id.  All
arithmetic is done in float64 regardless of the caller's storage dtype.
"""

from __future__ import annotations

import math
from typing import Mapping, NamedTuple

import numpy as np

from fcre.formats import _as_matrix, _relation_id


# no module calls this; it stays while perfbench's tracer wraps the name
def as_embedding(values, *, name: str = "embedding") -> np.ndarray:
    """``values`` as a finite, non-empty 1-D float64 vector, checked by ``formats._as_matrix``."""
    return _as_matrix(values, name, 1)


def _pair(a, b) -> tuple[np.ndarray, np.ndarray]:
    a = _as_matrix(a, "first argument", 1)
    b = _as_matrix(b, "second argument", 1)
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
    v = _as_matrix(v, name, 1)
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


def _ranks(keys: np.ndarray) -> np.ndarray:
    """1-based rank of every column per row: smaller key first, ties by column.

    Columns are relations in ascending id order, so exact ties go to the
    lower relation id.  The default sort is not stable, but a row whose
    sorted keys hold no two equal neighbours has one order only, which is
    the stable one; only rows with an exact tie (two equal neighbours in
    the sorted keys) are sorted again, stably.  The ranks are scattered
    into place with one fancy-indexed assignment.
    """
    n_rows, n_cols = keys.shape
    # Two sorts, not one kind="stable" argsort: that gives identical ranks
    # but is slower on the blocks the pooled heads score, and faster only
    # on one-query blocks, which only the per-query heads score (CHANGES.md,
    # "A task stream is a plain tuple of tasks").
    order = np.argsort(keys, axis=1)
    ordered = np.sort(keys, axis=1)
    tied = np.flatnonzero(np.any(ordered[:, 1:] == ordered[:, :-1], axis=1))
    # freed before the ranks are allocated, which keeps a scoring pass under
    # the heap trim threshold glibc sets from a seed's earlier transients;
    # above it, each pass returned its memory and faulted it in again
    # (BENCH_hsmt_gram.json, traced_peak_kib and page_faults)
    del ordered
    if tied.size:
        order[tied] = np.argsort(keys[tied], axis=1, kind="stable")
    ranks = np.empty(keys.shape)
    # order[q, k] is the column ranked k + 1 in row q
    ranks[np.arange(n_rows)[:, None], order] = np.arange(1.0, n_cols + 1.0)
    return ranks


class Ranking(NamedTuple):
    """Scores keyed by relation id and their 1-based ranks; rank 1 is the highest score."""

    scores: dict[int, float]
    ranks: dict[int, int]


def _checked_scores(scores: Mapping[int, float]) -> dict[int, float]:
    """A non-empty score table as a dict of checked relation ids to floats, none NaN."""
    if len(scores) == 0:
        raise ValueError("cannot rank an empty score table")
    clean: dict[int, float] = {}
    for rel, value in scores.items():
        rel, value = _relation_id(rel, "relation id"), float(value)
        if math.isnan(value):
            raise ValueError(f"score for relation {rel} is NaN")
        clean[rel] = value
    return clean


def rank_scores(scores: Mapping[int, float]) -> Ranking:
    """Assign deterministic 1-based ranks to per-relation scores.

    Higher score gets the smaller rank; ties are broken by ascending
    relation id, so the ranks are always a bijection onto 1..len(scores).
    The ranks are ``_ranks`` of the negated scores, in rank order.
    NaN scores and empty input are rejected.
    """
    clean = _checked_scores(scores)
    relations = sorted(clean)
    ranks = _ranks(-np.array([[clean[rel] for rel in relations]]))[0]
    return Ranking(clean, {relations[i]: k for k, i in enumerate(np.argsort(ranks), start=1)})
