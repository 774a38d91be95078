"""Per-relation description vectors: storage, synthesis, file ingestion.

Each relation carries exactly K description vectors of the embedding
dimension d.  K and d are uniform across the whole set.  Description
vectors are frozen inputs to training and inference -- nothing in the
package ever writes gradient into them.

File format (JSONL, one relation per line):

    {"relation": 3, "vectors": [[0.1, ...], [0.2, ...]]}

Parsing errors carry 1-based line numbers.
"""

from __future__ import annotations

import json
import math
import warnings
from typing import Iterable, Mapping

import numpy as np

from fcre.geometry import unit_normalize


class DescriptionFormatError(ValueError):
    """Raised when a description file violates the JSONL contract."""


class DescriptionSet:
    """Immutable-by-convention map of relation id -> (K, d) vectors.

    Means are cached at construction.  A zero-norm mean (opposite
    vectors cancelling) is legal but degenerate: it is surfaced as a
    warning here and will fail later only if something actually asks
    for a cosine against it.
    """

    def __init__(self, vectors_by_relation: Mapping[int, np.ndarray]):
        self._vectors: dict[int, np.ndarray] = {}
        self._means: dict[int, np.ndarray] = {}
        k_desc: int | None = None
        dim: int | None = None
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
                raise ValueError(
                    f"relation {rel} has {k} description vectors, expected {k_desc}"
                )
            elif d != dim:
                raise ValueError(
                    f"relation {rel} has dimension {d}, expected {dim}"
                )
            norms = np.sqrt(np.einsum("ij,ij->i", block, block))
            if np.any(norms == 0.0):
                bad = int(np.flatnonzero(norms == 0.0)[0])
                raise ValueError(
                    f"relation {rel}: description vector {bad} has zero norm"
                )
            mean = block.mean(axis=0)
            if math.sqrt(float(np.dot(mean, mean))) == 0.0:
                warnings.warn(
                    f"relation {rel}: description vectors average to the zero "
                    "vector; cosine-based inference against it will fail",
                    RuntimeWarning,
                    stacklevel=2,
                )
            self._vectors[int(rel)] = block.copy()
            self._means[int(rel)] = mean
        self._k_desc = k_desc
        self._dim = dim

    @classmethod
    def empty(cls) -> "DescriptionSet":
        return cls({})

    @property
    def relations(self) -> tuple[int, ...]:
        return tuple(sorted(self._vectors))

    @property
    def k_desc(self) -> int | None:
        """Vectors per relation, or None while the set is empty."""
        return self._k_desc

    @property
    def dim(self) -> int | None:
        return self._dim

    def __len__(self) -> int:
        return len(self._vectors)

    def __contains__(self, rel: int) -> bool:
        return int(rel) in self._vectors

    def vectors(self, rel: int) -> np.ndarray:
        try:
            return self._vectors[int(rel)]
        except KeyError:
            raise KeyError(f"unknown relation {rel}") from None

    def mean(self, rel: int) -> np.ndarray:
        try:
            return self._means[int(rel)]
        except KeyError:
            raise KeyError(f"unknown relation {rel}") from None

    @classmethod
    def _from_validated(
        cls,
        vectors: dict[int, np.ndarray],
        means: dict[int, np.ndarray],
        k_desc: int | None,
        dim: int | None,
    ) -> "DescriptionSet":
        """Assemble a set from blocks and means that a constructor already checked."""
        out = cls.__new__(cls)
        out._vectors = vectors
        out._means = {r: means[r] for r in vectors}
        out._k_desc, out._dim = (k_desc, dim) if vectors else (None, None)
        return out

    def subset(self, relations: Iterable[int]) -> "DescriptionSet":
        vectors = {int(r): self.vectors(r) for r in relations}
        return DescriptionSet._from_validated(vectors, self._means, self._k_desc, self._dim)

    def union(self, other: "DescriptionSet") -> "DescriptionSet":
        """Merge two sets; overlapping relations or K/d mismatch are errors."""
        if len(self) > 0 and len(other) > 0:
            overlap = set(self._vectors) & set(other._vectors)
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
        first = self if len(self) > 0 else other
        return DescriptionSet._from_validated(
            {**self._vectors, **other._vectors},
            {**self._means, **other._means},
            first.k_desc,
            first.dim,
        )

    def to_jsonl(self) -> str:
        """Canonical serialization: relations ascending, repr-exact floats."""
        lines = []
        for rel in self.relations:
            block = self._vectors[rel]
            obj = {"relation": rel, "vectors": [[float(v) for v in row] for row in block]}
            lines.append(json.dumps(obj, separators=(", ", ": ")))
        return "\n".join(lines) + ("\n" if lines else "")

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(self.to_jsonl())


def synth_descriptions(
    seed: int,
    class_centers: Mapping[int, np.ndarray],
    k_desc: int,
    spread: float,
) -> DescriptionSet:
    """K unit-norm description vectors per relation around its center.

    Each vector is normalize(center + spread * g) with g drawn from a
    generator seeded by ``seed``; relations are processed in ascending
    id order so the draw sequence is reproducible.
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
        rows = []
        for _ in range(k_desc):
            g = rng.standard_normal(center.size)
            rows.append(unit_normalize(center + spread * g, name=f"relation {rel} description"))
        out[int(rel)] = np.stack(rows)
    return DescriptionSet(out)


def ingest_descriptions(path, expected_dim: int | None = None) -> DescriptionSet:
    """Parse a JSONL description file; all errors carry line numbers."""
    vectors: dict[int, list[list[float]]] = {}
    k_desc: int | None = None
    dim: int | None = None
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.strip()
            if not line:
                continue
            try:
                obj = json.loads(line)
            except json.JSONDecodeError as exc:
                raise DescriptionFormatError(f"line {lineno}: invalid JSON: {exc}") from None
            if not isinstance(obj, dict) or "relation" not in obj or "vectors" not in obj:
                raise DescriptionFormatError(
                    f"line {lineno}: expected an object with 'relation' and 'vectors'"
                )
            rel = obj["relation"]
            if not isinstance(rel, int) or isinstance(rel, bool):
                raise DescriptionFormatError(
                    f"line {lineno}: relation id must be an integer, got {rel!r}"
                )
            if rel in vectors:
                raise DescriptionFormatError(f"line {lineno}: duplicate relation {rel}")
            rows = obj["vectors"]
            if not isinstance(rows, list) or not rows:
                raise DescriptionFormatError(
                    f"line {lineno}: 'vectors' must be a non-empty list of rows"
                )
            parsed_rows: list[list[float]] = []
            for i, row in enumerate(rows):
                if not isinstance(row, list) or not row:
                    raise DescriptionFormatError(
                        f"line {lineno}: vector {i} of relation {rel} is not a non-empty list"
                    )
                try:
                    values = [float(v) for v in row]
                except (TypeError, ValueError):
                    raise DescriptionFormatError(
                        f"line {lineno}: vector {i} of relation {rel} has non-numeric entries"
                    ) from None
                if not all(math.isfinite(v) for v in values):
                    raise DescriptionFormatError(
                        f"line {lineno}: vector {i} of relation {rel} has non-finite entries"
                    )
                if dim is None:
                    dim = len(values)
                elif len(values) != dim:
                    raise DescriptionFormatError(
                        f"line {lineno}: vector {i} of relation {rel} has dimension "
                        f"{len(values)}, expected {dim}"
                    )
                if all(v == 0.0 for v in values):
                    raise DescriptionFormatError(
                        f"line {lineno}: vector {i} of relation {rel} is the zero vector"
                    )
                parsed_rows.append(values)
            if k_desc is None:
                k_desc = len(parsed_rows)
            elif len(parsed_rows) != k_desc:
                raise DescriptionFormatError(
                    f"line {lineno}: relation {rel} has {len(parsed_rows)} vectors, "
                    f"expected {k_desc}"
                )
            vectors[rel] = parsed_rows
    if not vectors:
        raise DescriptionFormatError("description file is empty")
    if expected_dim is not None and dim != expected_dim:
        raise DescriptionFormatError(
            f"description dimension {dim} does not match expected {expected_dim}"
        )
    return DescriptionSet({r: np.array(rows) for r, rows in vectors.items()})
