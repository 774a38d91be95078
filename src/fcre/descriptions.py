"""Per-relation description vectors: storage, synthesis, file ingestion.

Each relation carries exactly K description vectors of the embedding
dimension d.  K and d are uniform across the whole set, which holds them
as one (R, K, d) table and their means as one (R, d) matrix over the
ascending int64 relation ids, the one index that every lookup searches.
Construction checks each relation's block in ascending id order with
``_check_block`` and raises for the first bad one: ``formats._as_matrix``
checks the block, which must then have the set's K and d, and each
vector's squared norm must be neither zero nor beyond the float range.
A block whose vectors average to the zero vector passes with a warning,
given once, as it enters.
The file parser checks each line's JSON, then runs ``_check_block`` on
its block in file order and names the line in the error.  Every set,
``subset`` and ``union`` included, is made by one constructor from its
ascending ids and (R, K, d) table, which also takes the means; a set
cut or merged from checked sets is not checked or warned of again.
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

from fcre.formats import _as_labels, _as_matrix, _at_least, _relation_id, _relation_items
from fcre.formats import checked, read_jsonl, write_jsonl
from fcre.geometry import unit_rows

_SCHEMA = {"relation": int, "vectors": list}


class DescriptionFormatError(ValueError):
    """Raised when a description file violates the JSONL contract."""


class DescriptionSet:
    """Immutable-by-convention map of relation id -> (K, d) vectors.

    The blocks are held as one (R, K, d) table and their means as one
    (R, d) matrix, both over ascending relation ids; ``vectors`` and
    ``mean`` hand out rows of them, and ``evaluate`` reads ``means`` as
    it is.  Every set's arrays, ``__init__``'s too, are built by
    ``_of_table``.  Every lookup goes through ``rows``, so ``in``,
    ``vectors`` and ``mean`` take exactly the ids that ``rows`` takes.
    A zero-norm mean (opposite vectors cancelling) is legal but
    degenerate: ``_check_block`` warns of it as the block enters, and it
    will fail later only if something actually asks for a cosine
    against it.
    """

    def __init__(self, vectors_by_relation: Mapping[int, np.ndarray]):
        items = _relation_items(vectors_by_relation)  # raises for the first bad id
        blocks: list[np.ndarray] = []
        for rel, vectors in items:
            blocks.append(_check_block(rel, vectors, blocks[0].shape if blocks else None))
        table = np.stack(blocks) if blocks else np.zeros((0, 0, 0))
        vars(self).update(vars(DescriptionSet._of_table([rel for rel, _ in items], table)))

    @staticmethod
    def _of_table(ids, table: np.ndarray) -> "DescriptionSet":
        """The one constructor: ascending ``ids`` and their checked (R, K, d) ``table``.

        ``means`` is ``table.mean(axis=1)``, which has the bits of each
        block's own ``mean(axis=0)``; an empty set takes no mean.
        """
        out = DescriptionSet.__new__(DescriptionSet)
        out._ids = np.asarray(ids, dtype=np.int64)
        out._table = table
        out._means = table.mean(axis=1) if out._ids.size else np.zeros((0, table.shape[2]))
        return out

    @classmethod
    def empty(cls) -> "DescriptionSet":
        return cls({})

    @property
    def relations(self) -> tuple[int, ...]:
        return tuple(self._ids.tolist())

    @property
    def k_desc(self) -> int | None:
        """Vectors per relation, or None while the set is empty."""
        return self._table.shape[1] if len(self) else None

    @property
    def dim(self) -> int | None:
        return self._table.shape[2] if len(self) else None

    @property
    def table(self) -> np.ndarray:
        """The (R, K, d) description blocks, one per relation in ascending id."""
        return self._table

    @property
    def means(self) -> np.ndarray:
        """The (R, d) mean descriptions, one row per relation in ascending id."""
        return self._means

    def __len__(self) -> int:
        return self._ids.size

    def __contains__(self, rel) -> bool:
        try:
            return self.rows((rel,)).size == 1
        except (KeyError, ValueError):
            return False

    def rows(self, relations: Iterable[int]) -> np.ndarray:
        """Row of each id in ``table`` and ``means``; the first unknown id raises ``KeyError``."""
        ids = _as_labels(relations, "relation ids")
        at = np.searchsorted(self._ids, ids)
        known = at < self._ids.size
        known[known] = self._ids[at[known]] == ids[known]
        if not known.all():
            raise KeyError(f"unknown relation {ids[~known][0]}")
        return at

    def vectors(self, rel: int) -> np.ndarray:
        return self._table[self.rows((_relation_id(rel, "relation id"),))[0]]

    def mean(self, rel: int) -> np.ndarray:
        """Mean description of ``rel``: its row of ``means``."""
        return self._means[self.rows((_relation_id(rel, "relation id"),))[0]]

    def subset(self, relations: Iterable[int]) -> "DescriptionSet":
        rows = sorted(set(self.rows(relations).tolist()))
        return DescriptionSet._of_table(self._ids[rows], self._table[rows])

    def union(self, other: "DescriptionSet") -> "DescriptionSet":
        """Merge two sets; overlapping relations or K/d mismatch are errors."""
        if len(other) == 0:
            return self
        if len(self) == 0:
            return other
        overlap = set(self.relations) & set(other.relations)
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
        ids = np.concatenate([self._ids, other._ids])
        order = np.argsort(ids, kind="stable")
        table = np.concatenate([self._table, other._table])
        return DescriptionSet._of_table(ids[order], table[order])

    def write(self, path) -> None:
        """Write the canonical JSONL form: relations ascending, repr-exact floats."""
        blocks = zip(self._ids.tolist(), self._table.tolist())
        write_jsonl(path, ({"relation": rel, "vectors": block} for rel, block in blocks))


def _check_block(rel: int, block, shape: tuple[int, int] | None) -> np.ndarray:
    """One relation's block, checked in the order that decides which error a bad block raises.

    ``formats._as_matrix`` checks it first; it must then have the set's
    (K, d) ``shape``, once one is known.  A block that passes them with a
    zero mean warns to the caller's caller.
    """
    block = _as_matrix(block, f"relation {rel}: vectors")
    k, d = block.shape
    if shape is not None and k != shape[0]:
        raise ValueError(f"relation {rel} has {k} description vectors, expected {shape[0]}")
    if shape is not None and d != shape[1]:
        raise ValueError(f"relation {rel} has dimension {d}, expected {shape[1]}")
    squares = np.einsum("ij,ij->i", block, block)  # inf where a squared norm overflows
    if squares.min() == 0.0:
        raise ValueError(f"relation {rel}: description vector {squares.argmin()} has zero norm")
    if squares.max() == np.inf:
        raise ValueError(
            f"relation {rel}: the squared norm of description vector {squares.argmax()} overflows"
        )
    mean = block.mean(axis=0)
    if np.dot(mean, mean) == 0.0:
        warnings.warn(
            f"relation {rel}: description vectors average to the zero "
            "vector; cosine-based inference against it will fail",
            RuntimeWarning,
            stacklevel=3,
        )
    return block


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
    _at_least(seed, 0, "seed")
    _at_least(k_desc, 1, "k_desc")
    _at_least(spread, 0, "spread", float)
    if len(class_centers) == 0:
        raise ValueError("need at least one class center")
    rng = np.random.default_rng(seed)
    out: dict[int, np.ndarray] = {}
    for rel, center in _relation_items(class_centers):  # every id checked before the first draw
        center = _as_matrix(center, f"relation {rel}: center", 1)
        block = center + spread * rng.standard_normal((k_desc, center.size))
        out[rel] = unit_rows(block, (f"relation {rel} description",) * k_desc)
    return DescriptionSet(out)


def ingest_descriptions(path) -> DescriptionSet:
    """Parse a JSONL description file; all errors carry line numbers.

    Each line's JSON is checked here; its block then goes through
    ``_check_block`` as the constructor's do, and ``_of_table`` stacks
    the checked blocks without checking them again.
    """
    blocks: dict[int, np.ndarray] = {}
    shape: tuple[int, int] | None = None
    for lineno, obj in read_jsonl(path, DescriptionFormatError):
        try:
            rel = _relation_id(checked(obj, _SCHEMA, "")["relation"], "relation")
            if rel in blocks:
                raise ValueError(f"duplicate relation {rel}")
            blocks[rel] = _check_block(rel, obj["vectors"], shape)
            shape = blocks[rel].shape
        except ValueError as exc:
            raise DescriptionFormatError(f"line {lineno}: {exc}") from None
    if not blocks:
        raise DescriptionFormatError("description file is empty")
    ids = sorted(blocks)
    return DescriptionSet._of_table(ids, np.stack([blocks[rel] for rel in ids]))
