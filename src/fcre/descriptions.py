"""Per-relation description vectors: storage, synthesis, file ingestion.

Each relation carries exactly K description vectors of the embedding
dimension d.  K and d are uniform across the whole set, which holds them
as one (R, K, d) table and their means as one (R, d) matrix over
ascending relation ids.  Construction checks each relation's block in
ascending id order and raises for the first bad one, naming the
relation and vector; the file parser checks the same rules line by line
and assembles its set without checking the blocks again.  Synthesis
draws each relation's (K, d) block in one call and normalizes its rows
with the bits of ``unit_normalize``.
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

from fcre.formats import checked, float_row, read_jsonl, write_jsonl
from fcre.geometry import unit_rows

_SCHEMA = {"relation": int, "vectors": list}


class DescriptionFormatError(ValueError):
    """Raised when a description file violates the JSONL contract."""


class DescriptionSet:
    """Immutable-by-convention map of relation id -> (K, d) vectors.

    The blocks are held as one (R, K, d) table and their means as one
    (R, d) matrix, both over ascending relation ids; ``vectors`` and
    ``mean`` hand out rows of them, and ``evaluate`` reads ``means`` as
    it is.  A zero-norm mean (opposite vectors cancelling) is legal but
    degenerate: it is surfaced as a warning here and will fail later only
    if something actually asks for a cosine against it.
    """

    def __init__(self, vectors_by_relation: Mapping[int, np.ndarray]):
        for rel in vectors_by_relation:  # the table stores int(rel): 2.5 is not relation 2
            checked(rel, int, "relation id")
        blocks = {}
        k_desc = dim = None
        for rel in sorted(vectors_by_relation):  # raises for the first bad relation
            blocks[rel] = np.asarray(vectors_by_relation[rel], dtype=np.float64)
            k_desc, dim = _check_block(rel, blocks[rel], k_desc, dim)
        self._set_blocks(blocks)

    def _set_blocks(self, blocks: Mapping[int, np.ndarray]) -> None:
        """Hold checked (K, d) blocks by relation, one ``block.mean(axis=0)`` each.

        A zero mean warns, naming its relation.
        """
        relations = sorted(blocks)
        means = [blocks[rel].mean(axis=0) for rel in relations]
        for rel, mean in zip(relations, means):
            if np.dot(mean, mean) == 0.0:
                warnings.warn(
                    f"relation {rel}: description vectors average to the zero "
                    "vector; cosine-based inference against it will fail",
                    RuntimeWarning,
                    stacklevel=3,
                )
        if not relations:
            self._set((), np.zeros((0, 0, 0)), np.zeros((0, 0)))
            return
        table = np.stack([blocks[rel] for rel in relations])
        self._set(tuple(int(r) for r in relations), table, np.stack(means))

    def _set(self, relations: tuple[int, ...], table: np.ndarray, means: np.ndarray) -> None:
        self._relations = relations
        self._table = table
        self._means = means
        self._index = {r: i for i, r in enumerate(relations)}
        self._mean_rows = list(means)  # one view per row, so ``mean`` returns the same object

    @classmethod
    def _from_arrays(
        cls, relations: tuple[int, ...], table: np.ndarray, means: np.ndarray
    ) -> "DescriptionSet":
        """Assemble a set from rows that a constructor already checked."""
        out = cls.__new__(cls)
        out._set(relations, table, means)
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

    def __contains__(self, rel: int) -> bool:
        return int(rel) in self._index

    def _row(self, rel: int) -> int:
        try:
            return self._index[int(rel)]
        except KeyError:
            raise KeyError(f"unknown relation {rel}") from None

    def rows(self, relations: Iterable[int]) -> np.ndarray:
        """Row of each of ``relations`` in ``table`` and ``means``."""
        return np.array([self._row(r) for r in relations], dtype=np.int64)

    def vectors(self, rel: int) -> np.ndarray:
        return self._table[self._row(rel)]

    def mean(self, rel: int) -> np.ndarray:
        """Mean description of ``rel``: the same array object on every call."""
        return self._mean_rows[self._row(rel)]

    def subset(self, relations: Iterable[int]) -> "DescriptionSet":
        rows = sorted(set(self.rows(relations).tolist()))
        return DescriptionSet._from_arrays(
            tuple(self._relations[i] for i in rows), self._table[rows], self._means[rows]
        )

    def union(self, other: "DescriptionSet") -> "DescriptionSet":
        """Merge two sets; overlapping relations or K/d mismatch are errors."""
        if len(self) == 0 or len(other) == 0:
            first = self if len(self) > 0 else other
            return DescriptionSet._from_arrays(first._relations, first._table, first._means)
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
        relations = self._relations + other._relations
        order = np.argsort(relations, kind="stable")
        return DescriptionSet._from_arrays(
            tuple(relations[i] for i in order),
            np.concatenate([self._table, other._table])[order],
            np.concatenate([self._means, other._means])[order],
        )

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
    for rel in sorted(class_centers):
        center = np.asarray(class_centers[rel], dtype=np.float64)
        if center.ndim != 1 or center.size < 1:
            raise ValueError(f"relation {rel}: center must be a 1-D vector")
        block = center + spread * rng.standard_normal((k_desc, center.size))
        out[int(rel)] = unit_rows(block, (f"relation {rel} description",) * k_desc)
    return DescriptionSet(out)


def ingest_descriptions(path, expected_dim: int | None = None) -> DescriptionSet:
    """Parse a JSONL description file; all errors carry line numbers."""
    vectors: dict[int, list[list[float]]] = {}
    k_desc: int | None = None
    dim: int | None = None
    for lineno, obj in read_jsonl(path, _SCHEMA, DescriptionFormatError):
        rel, rows = obj["relation"], obj["vectors"]
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
    if expected_dim is not None and dim != expected_dim:
        raise DescriptionFormatError(
            f"description dimension {dim} does not match expected {expected_dim}"
        )
    # the lines above checked every rule of ``_check_block``, so the blocks go in unchecked
    out = DescriptionSet.__new__(DescriptionSet)
    out._set_blocks({rel: np.array(rows) for rel, rows in vectors.items()})
    return out
