"""Deterministic artifact writing: CSV, verdict summaries, atomic files.

Floats are rendered with ``repr`` (shortest round-trip form), so a rerun
with the same seed produces byte-identical files.  All writes go through
a temp file plus rename.  Constants reported anywhere in these artifacts
are measured on the periodic box and labeled as such.
"""

from __future__ import annotations

import json
import os
from typing import Iterable, Sequence


def fmt(value) -> str:
    if isinstance(value, float):
        # plain-float repr even for numpy scalars, shortest round-trip form
        return repr(float(value))
    return str(value)


def _atomic_write(path: str, text: str):
    os.makedirs(os.path.dirname(os.path.abspath(path)), exist_ok=True)
    tmp = f"{path}.tmp{os.getpid()}"
    with open(tmp, "w", encoding="utf-8") as fh:
        fh.write(text)
    os.replace(tmp, path)


def write_csv(path: str, header: Sequence[str], rows: Iterable[Sequence]):
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(fmt(v) for v in row))
    _atomic_write(path, "\n".join(lines) + "\n")


def write_json(path: str, payload):
    _atomic_write(path, json.dumps(payload, indent=2, sort_keys=True) + "\n")
