"""The code every file format shares: writes, JSON and JSONL readers, checks, the float codec.

Each schema lives beside the type it builds (the dataset in ``datagen``,
descriptions in ``descriptions``, checkpoints in ``continual``, the
config in ``cli``, ``metrics.csv`` in ``inference``); this module alone
parses JSON and encodes base64.  It also holds the checks the package
shares: ``_as_matrix``, the one check of float input, by which every
module and both JSONL parsers take features, descriptions, weights and
embeddings, and ``_as_labels`` and ``_relation_id``, the one check of
integer ids and labels.  A leaf: it imports nothing from ``fcre``.
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


def read_jsonl(path, error: type[ValueError]) -> Iterator[tuple[int, object]]:
    """Yield ``(line number, parsed JSON)`` for each non-blank line, 1-based, of a JSONL file.

    A line that is not JSON raises ``error`` with ``line N: invalid JSON: ...``.
    """
    with open(path, "rb") as fh:  # bytes, so a line that is not UTF-8 is named too
        for lineno, line in enumerate(fh, start=1):
            if not line.strip():
                continue
            try:
                obj = json.loads(line.decode("utf-8"))
            except (ValueError, RecursionError) as exc:  # not JSON, not UTF-8, or nested too deep
                raise error(f"line {lineno}: invalid JSON: {exc}") from None
            yield lineno, obj


def checked(value, schema, name: str):
    """``value`` if it matches ``schema``; else ``ValueError`` naming the first part that does not.

    A schema is a JSON kind (int, float, str, list or dict), ``[s]`` for a
    list of ``s``, or a dict of the keys an object must hold and their
    schemas; parts are named ``name.key`` and ``name[i]``.  An int takes
    no bool (``json`` parses ``true`` to one); a float must be finite and
    takes an integer too, which a float schema returns as a float.  A
    NumPy scalar counts as, and is returned as, the Python value it holds.
    A list schema returns a new list of its checked entries.
    """
    if isinstance(schema, dict):
        checked(value, dict, name or "the record")
        for key, part in schema.items():
            child = f"{name}.{key}" if name else key
            if key not in value:
                raise ValueError(f"missing key {child}")
            checked(value[key], part, child)
        return value
    if isinstance(schema, list):
        return [checked(entry, schema[0], f"{name}[{i}]")
                for i, entry in enumerate(checked(value, list, name))]
    if isinstance(value, np.generic):
        value = value.item()
    if type(value) is schema:
        if schema is not float or math.isfinite(value):
            return value
    elif schema is float and type(value) is int:
        try:
            return float(value)
        except OverflowError:  # an integer beyond the float range, shown by its size
            raise ValueError(f"{name} must be {_KINDS[float]}, got an integer of "
                             f"{len(str(abs(value)))} digits") from None
    raise ValueError(f"{name} must be {_KINDS[schema]}, got {value!r}")


def _at_least(value, low, name: str, kind: type = int):
    """``checked(value, kind, name)``; a value below ``low`` is an error naming ``name``."""
    value = checked(value, kind, name)
    if value < low:
        raise ValueError(f"{name} must be >= {low}, got {value}")
    return value


def _relation_id(value, name: str) -> int:
    """``checked(value, int, name)`` that also fits in an int64, as an id or label must;
    one wider than any 64-bit integer is shown by its digit count, as ``checked`` shows it."""
    value = checked(value, int, name)
    if not -(2**63) <= value < 2**63:
        digits = len(str(abs(value)))
        shown = value if digits <= 20 else f"an integer of {digits} digits"
        raise ValueError(f"{name} must fit in an int64, got {shown}")
    return value


def _relation_items(mapping) -> list[tuple[int, object]]:
    """The (relation id, value) pairs of ``mapping`` in ascending id, every id checked first."""
    pairs = [(_relation_id(rel, "relation id"), value) for rel, value in mapping.items()]
    return sorted(pairs, key=lambda pair: pair[0])


def _as_labels(values, name: str) -> np.ndarray:
    """``values`` as an int64 array; else a ``ValueError`` naming ``name`` or the entry.

    The one check of integer input, ids and labels alike: an ndarray
    must have an integer dtype, of any width, and an unsigned one's
    maximum must pass ``_relation_id``; each entry of any other iterable
    must pass ``_relation_id`` as ``name[i]``, so a bool, float, string or
    out-of-range integer is named, not truncated or read as an integer.
    """
    if isinstance(values, np.ndarray):
        if values.dtype.kind not in "iu":
            raise ValueError(f"{name} must hold integers, got dtype {values.dtype}")
        if values.dtype.kind == "u" and values.size:
            _relation_id(values.max(), name)
        return values.astype(np.int64, copy=False)
    try:
        entries = iter(values)
    except TypeError:
        kind = type(values).__name__
        raise ValueError(f"{name} must be an iterable of integers, got {kind}") from None
    return np.array([_relation_id(v, f"{name}[{i}]") for i, v in enumerate(entries)], np.int64)


def _as_matrix(values, name: str, ndim: int = 2) -> np.ndarray:
    """``values`` as a finite float64 array of ``ndim`` non-empty axes; else an error naming ``name``.

    The one check of float input, arrays and parsed JSON lists alike:
    an ndarray must hold finite integers or floats, and each entry of a
    list or tuple, down to ``ndim`` levels, must pass ``checked(v, float)``,
    so a bool, string, None or NaN is an error naming the entry; rows
    that do not stack name the first row unlike the first of its level.
    Callers keep only the rules that relate one array to another.
    """
    entries = _float_entries(values, name, ndim)
    try:
        arr = np.asarray(entries, np.float64)
    except ValueError:  # ragged rows
        raise ValueError(_uneven_row(entries, name)) from None
    if arr.ndim != ndim or 0 in arr.shape:
        raise ValueError(f"{name} must be a non-empty {ndim}-D array, got shape {arr.shape}")
    return arr


def _float_entries(values, name: str, depth: int):
    """``values`` with each entry, ``depth`` lists deep, checked as ``_as_matrix`` says;
    a list of finite Python floats alone, as a parsed JSON row is, is taken whole."""
    if isinstance(values, (list, tuple)) and depth:
        # a sum is finite only if every entry is; a row whose sum overflows goes entry by entry
        if set(map(type, values)) <= {float} and math.isfinite(sum(values)):
            return values
        return [_float_entries(v, f"{name}[{i}]", depth - 1) for i, v in enumerate(values)]
    if not isinstance(values, np.ndarray):
        return checked(values, float, name)
    if values.dtype.kind not in "iuf":
        raise ValueError(f"{name} must hold integers or floats, got dtype {values.dtype}")
    values = values.astype(np.float64, copy=False)
    if not np.isfinite(values).all():
        raise ValueError(f"{name} contains non-finite entries")
    return values


def _uneven_row(values, name: str) -> str:
    """Why nested rows do not stack: level by level, the first row unlike its level's first."""
    level = [(name, values)]
    while True:
        sizes = [len(v) if isinstance(v, (list, tuple)) or np.ndim(v) else None for _, v in level]
        for (row, _), size in zip(level, sizes):
            if size != sizes[0]:
                if None in (size, sizes[0]):
                    kinds = ["a number" if n is None else "a list" for n in (size, sizes[0])]
                    return f"{row} is {kinds[0]}, expected {kinds[1]}"
                return f"{row} has {size} entries, expected {sizes[0]}"
        level = [(f"{row}[{i}]", v) for row, entries in level for i, v in enumerate(entries)]


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
