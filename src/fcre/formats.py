"""The code every file format shares: writes, JSON and JSONL readers, checks, the float codec.

Each schema lives beside the type it builds (the dataset in ``datagen``,
descriptions in ``descriptions``, checkpoints in ``continual``, the
config in ``cli``, ``metrics.csv`` in ``inference``); this module alone
parses JSON and encodes base64.  A leaf: it imports nothing from ``fcre``.
"""

from __future__ import annotations

import base64
import json
import math
import os
from dataclasses import fields
from pathlib import Path
from typing import Iterable, Iterator

import numpy as np

_KINDS = {int: "an integer", float: "a finite numeric value", str: "a string",
          list: "a list", dict: "an object"}


def write_atomic(path, text: str) -> None:
    """Write ``text`` to ``path`` whole or not at all.

    The text goes to a temporary file in the same directory, which
    ``os.replace`` then renames over ``path``: a run killed mid-write
    leaves the previous file, or none, never a partial one.  The bytes
    are the text's UTF-8 encoding, with no newline translation.  The
    temporary file is removed when the write or the rename fails.
    """
    path = Path(path)
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        with open(tmp, "wb") as fh:
            fh.write(text.encode("utf-8"))
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def write_jsonl(path, records: Iterable[dict]) -> None:
    """Write one JSON object per line, whole or not at all, in the canonical form:
    keys in record order, ``", "``/``": "`` separators, repr-exact floats."""
    write_atomic(path, "".join([json.dumps(r, separators=(", ", ": ")) + "\n" for r in records]))


def read_json(path):
    """The parsed contents of a whole JSON file; text that is not JSON names the file."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            return json.load(fh)
        except (ValueError, RecursionError) as exc:  # not JSON, not UTF-8, or nested too deep
            raise ValueError(f"{path} is not valid JSON: {exc}") from None


def read_jsonl(path, schema: dict, error: type[ValueError]) -> Iterator[tuple[int, dict]]:
    """Yield ``(line number, object)`` for each non-blank line, 1-based, of a JSONL file.

    A line that is not JSON or does not match ``schema`` (see ``checked``)
    raises ``error`` with a message that starts with ``line N:``.
    """
    with open(path, "rb") as fh:  # bytes, so a line that is not UTF-8 is named too
        for lineno, line in enumerate(fh, start=1):
            if not line.strip():
                continue
            try:
                obj = checked(json.loads(line.decode("utf-8")), schema, "", error)
            except error as exc:
                raise error(f"line {lineno}: {exc}") from None
            except (ValueError, RecursionError) as exc:  # not JSON, not UTF-8, or nested too deep
                raise error(f"line {lineno}: invalid JSON: {exc}") from None
            yield lineno, obj


def checked(value, schema, name: str, error: type[ValueError] = ValueError):
    """``value`` if it matches ``schema``; else ``error`` naming the first part that does not.

    A schema is a JSON kind (int, float, str, list or dict), ``[s]`` for a
    list of ``s``, or a dict of the keys an object must hold and their
    schemas; parts are named ``name.key`` and ``name[i]``.  An int takes
    no bool (``json`` parses ``true`` to one); a float must be finite and
    takes an integer too, which a float schema returns as a float.  A
    NumPy scalar counts as, and is returned as, the Python value it holds.
    A list schema returns a new list of its checked entries.
    """
    if isinstance(schema, dict):
        checked(value, dict, name or "the record", error)
        for key, part in schema.items():
            child = f"{name}.{key}" if name else key
            if key not in value:
                raise error(f"missing key {child}")
            checked(value[key], part, child, error)
        return value
    if isinstance(schema, list):
        return [checked(entry, schema[0], f"{name}[{i}]", error)
                for i, entry in enumerate(checked(value, list, name, error))]
    if isinstance(value, np.generic):
        value = value.item()
    if type(value) is schema:
        if schema is not float or math.isfinite(value):
            return value
    elif schema is float and type(value) is int:
        try:
            return float(value)
        except OverflowError:  # an integer beyond the float range
            pass
    raise error(f"{name} must be {_KINDS[schema]}, got {value!r}")


def _relation_id(value, name: str, error: type[ValueError] = ValueError) -> int:
    """``checked(value, int, name, error)`` that also fits in an int64, as a relation id must."""
    if not -(2**63) <= checked(value, int, name, error) < 2**63:
        raise error(f"{name} must fit in an int64, got {value}")
    return int(value)


def _relation_items(mapping) -> list[tuple[int, object]]:
    """The (relation id, value) pairs of ``mapping`` in ascending id, every id checked first."""
    pairs = [(_relation_id(rel, "relation id"), value) for rel, value in mapping.items()]
    return sorted(pairs, key=lambda pair: pair[0])


def _as_labels(values, name: str) -> np.ndarray:
    """``values`` as an int64 array; a float, bool or other array is an error naming ``name``.

    Integer arrays of any width are taken, so no label is silently
    truncated; a label beyond the int64 range is an error, and so is a
    bool in a list of integers, which NumPy would read as one.
    """
    labels = np.asarray(values)
    if not isinstance(values, np.ndarray):  # np.asarray([True, 2]) is int64, [0, 2**63] float64
        for value in np.asarray(values, dtype=object).flat:
            if type(value) is int and not -(2**63) <= value < 2**63:
                raise ValueError(f"{name} must fit in an int64, got {value}")
            if isinstance(value, (bool, np.bool_)) and labels.dtype.kind in "iu":
                raise ValueError(f"{name} must hold integers, got {value!r}")
    if labels.dtype.kind not in "iu":
        raise ValueError(f"{name} must hold integers, got dtype {labels.dtype}")
    if labels.dtype.kind == "u" and labels.size and labels.max() >= 2**63:
        raise ValueError(f"{name} must fit in an int64, got {labels.max()}")
    return labels.astype(np.int64, copy=False)


def _as_matrix(values, name: str) -> np.ndarray:
    """``values`` as a finite, non-empty (n, f) float64 block; else an error naming ``name``."""
    arr = np.asarray(values, dtype=np.float64)
    if arr.ndim != 2 or arr.shape[0] < 1 or arr.shape[1] < 1:
        raise ValueError(f"{name} must be a non-empty 2-D array, got shape {arr.shape}")
    if not np.all(np.isfinite(arr)):
        raise ValueError(f"{name} contains non-finite entries")
    return arr


def _relation_ids(values, name: str) -> np.ndarray:
    """Relation ids as an int64 array: an array checked by ``_as_labels``, others one by one."""
    if isinstance(values, np.ndarray):
        return _as_labels(values, name)
    return np.array([_relation_id(v, "relation id") for v in values], dtype=np.int64)


def _checked_fields(config, prefix: str = "") -> None:
    """Store each field of a frozen dataclass as ``checked`` returns it for its default's kind.

    So a field holds a Python int or float whatever number it was given:
    ``alpha=1`` is stored as ``1.0`` and ``np.int64(7)`` as ``7``, and a
    config serializes the same as one built from the stored values.
    Errors name the field as ``prefix + name``.
    """
    for f in fields(config):
        value = checked(getattr(config, f.name), type(f.default), prefix + f.name)
        object.__setattr__(config, f.name, value)


def float_row(entries, length: int | None, name: str, error=ValueError) -> list[float]:
    """A parsed JSON array as floats (the list itself if it holds only floats).

    It must be a non-empty list of finite JSON numbers (see ``checked``),
    of ``length`` entries unless that is None, or ``error`` names ``name``.
    """
    if type(entries) is not list or not entries:
        raise error(f"{name} must be a non-empty list")
    if set(map(type, entries)) != {float}:  # each entry checked, and named if it fails
        entries = [checked(v, float, f"{name}[{i}]", error) for i, v in enumerate(entries)]
    if not all(map(math.isfinite, entries)):
        raise error(f"{name} has non-finite entries")
    if length is not None and len(entries) != length:
        raise error(f"{name} has dimension {len(entries)}, expected {length}")
    return entries


def _floats_to_b64(arr: np.ndarray) -> str:
    """Base64 of the little-endian float64 bytes; exact round-trip."""
    return base64.b64encode(np.ascontiguousarray(arr, dtype="<f8").tobytes()).decode("ascii")


def _floats_from_b64(payload: str, n: int, name: str) -> np.ndarray:
    """The ``n`` floats of the payload ``name.data``; ``ValueError`` naming it for any other."""
    try:
        arr = np.frombuffer(base64.b64decode(payload.encode("ascii"), validate=True), dtype="<f8")
        if arr.size != n:
            raise ValueError(f"payload holds {arr.size} floats, expected {n}")
    except ValueError as exc:  # not base64, not whole float64 values, or too few or many
        raise ValueError(f"{name}.data: {exc}") from None
    return arr.astype(np.float64)
