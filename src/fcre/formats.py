"""Whole-file writes for every artifact the package saves.

A leaf module: it imports nothing from ``fcre``, so any module can route
its file output through it.
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
