"""Per-relation description vectors: storage, synthesis, file ingestion.

Each relation carries exactly K description vectors of the embedding
dimension d.  K and d are uniform across the whole set, which holds them
as one (R, K, d) table and their means as one (R, d) matrix over the
ascending int64 relation ids, the one index that every lookup searches.
Construction checks each relation's block in ascending id order and
raises for the first bad one; the file parser checks the same rules line
by line.  Both then stack the blocks and their means the same way.
Synthesis checks every id, then draws each relation's (K, d) block in
one call and normalizes its rows with the bits of ``unit_normalize``.
Description vectors are frozen inputs to training and inference --
nothing in the package ever writes gradient into them.

File format (JSONL, one relation per line); this module owns its
schema, and ``formats`` the line reader, the checks and the writer:

    {"relation": 3, "vectors": [[0.1, ...], [0.2, ...]]}

Parsing errors carry 1-based line numbers; vector entries must be JSON
numbers, so ``true`` or ``"0.5"`` is rejected.
"""

from __future__ import annotations

import warnings
from typing import Iterable, Mapping

import numpy as np

from fcre.formats import _relation_id, _relation_ids, _relation_items, float_row, read_jsonl
from fcre.formats import write_jsonl
from fcre.geometry import unit_rows

_SCHEMA = {"relation": int, "vectors": list}


class DescriptionFormatError(ValueError):
    """Raised when a description file violates the JSONL contract."""


class DescriptionSet:
    """Immutable-by-convention map of relation id -> (K, d) vectors.

    The blocks are held as one (R, K, d) table and their means as one
    (R, d) matrix, both over ascending relation ids; ``vectors`` and
    ``mean`` hand out rows of them, and ``evaluate`` reads ``means`` as
    it is.  Every lookup goes through ``rows``, so ``in``, ``vectors``
    and ``mean`` take exactly the ids that ``rows`` takes.  A zero-norm
    mean (opposite vectors cancelling) is legal but degenerate: it is
    surfaced as a warning here and will fail later only if something
    actually asks for a cosine against it.
    """

    def __init__(self, vectors_by_relation: Mapping[int, np.ndarray]):
        blocks = {}
        k_desc = dim = None
        for rel, vectors in _relation_items(vectors_by_relation):  # raises for the first bad one
            blocks[rel] = np.asarray(vectors, dtype=np.float64)
            k_desc, dim = _check_block(rel, blocks[rel], k_desc, dim)
        self._fill(blocks)

    def _fill(self, blocks: Mapping[int, np.ndarray]) -> None:
        """Stack checked (K, d) blocks and their ``block.mean(axis=0)`` over ascending relations.

        A zero mean warns, naming its relation.
        """
        rels = self._relations = tuple(sorted(blocks))
        self._ids = np.array(rels, dtype=np.int64)
        means = [blocks[rel].mean(axis=0) for rel in rels]
        for rel, mean in zip(rels, means):
            if np.dot(mean, mean) == 0.0:
                warnings.warn(
                    f"relation {rel}: description vectors average to the zero "
                    "vector; cosine-based inference against it will fail",
                    RuntimeWarning,
                    stacklevel=3,
                )
        self._table = np.stack([blocks[rel] for rel in rels]) if rels else np.zeros((0, 0, 0))
        self._means = np.stack(means) if rels else np.zeros((0, 0))

    @staticmethod
    def _of_rows(sets: list["DescriptionSet"], rows) -> "DescriptionSet":
        """The ``rows`` of the sets' stacked arrays, as a set; their constructors checked them."""
        out = DescriptionSet.__new__(DescriptionSet)
        out._ids = np.concatenate([s._ids for s in sets])[rows]
        out._relations = tuple(out._ids.tolist())
        out._table = np.concatenate([s._table for s in sets])[rows]
        out._means = np.concatenate([s._means for s in sets])[rows]
        return out

    @classmethod
    def empty(cls) -> "DescriptionSet":
        return cls({})

    @property
    def relations(self) -> tuple[int, ...]:
        return self._relations

    @property
    def k_desc(self) -> int | None:
        """Vectors per relation, or None while the set is empty."""
        return self._table.shape[1] if self._relations else None

    @property
    def dim(self) -> int | None:
        return self._table.shape[2] if self._relations else None

    @property
    def table(self) -> np.ndarray:
        """The (R, K, d) description blocks, one per relation in ascending id."""
        return self._table

    @property
    def means(self) -> np.ndarray:
        """The (R, d) mean descriptions, one row per relation in ascending id."""
        return self._means

    def __len__(self) -> int:
        return len(self._relations)

    def __contains__(self, rel) -> bool:
        try:
            return self.rows((rel,)).size == 1
        except (KeyError, ValueError):
            return False

    def rows(self, relations: Iterable[int]) -> np.ndarray:
        """Row of each id in ``table`` and ``means``; the first unknown id raises ``KeyError``."""
        ids = _relation_ids(relations, "relation ids")
        at = np.searchsorted(self._ids, ids)
        known = at < self._ids.size
        known[known] = self._ids[at[known]] == ids[known]
        if not known.all():
            raise KeyError(f"unknown relation {ids[~known][0]}")
        return at

    def vectors(self, rel: int) -> np.ndarray:
        return self._table[self.rows((rel,))[0]]

    def mean(self, rel: int) -> np.ndarray:
        """Mean description of ``rel``: its row of ``means``."""
        return self._means[self.rows((rel,))[0]]

    def subset(self, relations: Iterable[int]) -> "DescriptionSet":
        return DescriptionSet._of_rows([self], sorted(set(self.rows(relations).tolist())))

    def union(self, other: "DescriptionSet") -> "DescriptionSet":
        """Merge two sets; overlapping relations or K/d mismatch are errors."""
        if len(self) == 0 or len(other) == 0:
            return DescriptionSet._of_rows([self if len(self) > 0 else other], slice(None))
        overlap = set(self._relations) & set(other._relations)
        if overlap:
            raise ValueError(f"relations already registered: {sorted(overlap)}")
        if other.k_desc != self.k_desc:
            raise ValueError(
                f"cannot merge description sets with K={self.k_desc} and K={other.k_desc}"
            )
        if other.dim != self.dim:
            raise ValueError(
                f"cannot merge description sets with d={self.dim} and d={other.dim}"
            )
        order = np.argsort(np.concatenate([self._ids, other._ids]), kind="stable")
        return DescriptionSet._of_rows([self, other], order)

    def write(self, path) -> None:
        """Write the canonical JSONL form: relations ascending, repr-exact floats."""
        blocks = zip(self._relations, self._table.tolist())
        write_jsonl(path, ({"relation": rel, "vectors": block} for rel, block in blocks))


def _check_block(
    rel: int, block: np.ndarray, k_desc: int | None, dim: int | None
) -> tuple[int, int]:
    """One relation's checks, in the order that decides which error a bad block raises."""
    if block.ndim != 2:
        raise ValueError(
            f"relation {rel}: vectors must be a (K, d) array, got shape {block.shape}"
        )
    if not np.all(np.isfinite(block)):
        raise ValueError(f"relation {rel}: non-finite description entries")
    k, d = block.shape
    if k < 1 or d < 1:
        raise ValueError(f"relation {rel}: K and d must be >= 1")
    if k_desc is not None and k != k_desc:
        raise ValueError(f"relation {rel} has {k} description vectors, expected {k_desc}")
    if dim is not None and d != dim:
        raise ValueError(f"relation {rel} has dimension {d}, expected {dim}")
    zero = np.flatnonzero(np.einsum("ij,ij->i", block, block) == 0.0)
    if zero.size:
        raise ValueError(f"relation {rel}: description vector {int(zero[0])} has zero norm")
    return k, d


def synth_descriptions(
    seed: int,
    class_centers: Mapping[int, np.ndarray],
    k_desc: int,
    spread: float,
) -> DescriptionSet:
    """K unit-norm description vectors per relation around its center.

    Each vector is normalize(center + spread * g) with g drawn from a
    generator seeded by ``seed``; relations are processed in ascending
    id order, one (K, d) draw each, so the draw sequence is reproducible
    and is the one K separate draws would take.
    """
    if k_desc < 1:
        raise ValueError(f"k_desc must be >= 1, got {k_desc}")
    if spread < 0.0:
        raise ValueError(f"spread must be >= 0, got {spread}")
    if len(class_centers) == 0:
        raise ValueError("need at least one class center")
    rng = np.random.default_rng(seed)
    out: dict[int, np.ndarray] = {}
    for rel, center in _relation_items(class_centers):  # every id checked before the first draw
        center = np.asarray(center, dtype=np.float64)
        if center.ndim != 1 or center.size < 1:
            raise ValueError(f"relation {rel}: center must be a 1-D vector")
        block = center + spread * rng.standard_normal((k_desc, center.size))
        out[rel] = unit_rows(block, (f"relation {rel} description",) * k_desc)
    return DescriptionSet(out)


def ingest_descriptions(path) -> DescriptionSet:
    """Parse a JSONL description file; all errors carry line numbers."""
    vectors: dict[int, list[list[float]]] = {}
    k_desc: int | None = None
    dim: int | None = None
    for lineno, obj in read_jsonl(path, _SCHEMA, DescriptionFormatError):
        rel = _relation_id(obj["relation"], f"line {lineno}: relation", DescriptionFormatError)
        rows = obj["vectors"]
        if rel in vectors:
            raise DescriptionFormatError(f"line {lineno}: duplicate relation {rel}")
        if not rows:
            raise DescriptionFormatError(f"line {lineno}: 'vectors' must be a non-empty list")
        block: list[list[float]] = []
        for i, row in enumerate(rows):
            name = f"line {lineno}: vector {i} of relation {rel}"
            block.append(float_row(row, dim, name, DescriptionFormatError))
            dim = len(block[-1])
            if not any(map(float.__mul__, block[-1], block[-1])):  # the rule of ``_check_block``
                raise DescriptionFormatError(f"{name} is a zero vector, or its squares underflow")
        k_desc = k_desc or len(block)  # the first line sets K
        if len(block) != k_desc:
            raise DescriptionFormatError(
                f"line {lineno}: relation {rel} has {len(block)} vectors, expected {k_desc}"
            )
        vectors[rel] = block
    if not vectors:
        raise DescriptionFormatError("description file is empty")
    # the lines above checked every rule of ``_check_block``, so the blocks go in unchecked
    out = DescriptionSet.__new__(DescriptionSet)
    out._fill({rel: np.array(rows) for rel, rows in vectors.items()})
    return out
