"""Whole-file writes for every artifact the package saves, and JSON numbers.

A leaf module: it imports nothing from ``fcre``, so any module can route
its file output, and its parsers' numeric entries, through it.
"""

from __future__ import annotations

import os
from pathlib import Path


def write_atomic(path, text: str) -> None:
    """Write ``text`` to ``path`` whole or not at all.

    The text goes to a temporary file in the same directory, which
    ``os.replace`` then renames over ``path``: a run killed mid-write
    leaves the previous file, or none, never a partial one.  No newline
    translation, so the bytes are the text's UTF-8 encoding.
    """
    path = Path(path)
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        with open(tmp, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
        os.replace(tmp, path)
    finally:
        tmp.unlink(missing_ok=True)  # left only when the write or the rename failed


def json_floats(entries: list) -> list[float]:
    """The entries of a parsed JSON array as floats (the list itself if it holds only floats).

    Raises ``TypeError`` unless every entry is a JSON number that a float
    can hold.  ``json`` parses ``true`` and ``false`` to ``bool``, which
    ``float`` would take as 1.0 and 0.0, and ``float`` also parses numeric
    strings, so the type is checked first.
    """
    types = set(map(type, entries))
    if types == {float}:
        return entries
    if not types <= {float, int}:
        raise TypeError("entries must be JSON numbers")
    try:
        return [float(v) for v in entries]
    except OverflowError:  # an integer beyond the float range
        raise TypeError("entries must be JSON numbers a float can hold") from None
