"""Binary field snapshots.

Layout (all little-endian):

    magic   4 bytes  b"FBL1"
    n       u32      points per axis
    length  f64      box period
    count   u16      number of fields
    names   count times { u16 byte-length, utf-8 name }
    data    count blocks of n*n f64, row-major physical samples,
            in the order the names were written
"""

from __future__ import annotations

import os
import struct
from typing import Dict, Tuple

import numpy as np

from .fields import SpectralField
from .grid import Grid, make_grid

MAGIC = b"FBL1"


class SnapshotFormatError(ValueError):
    pass


def write_snapshot(path: str, grid: Grid, fields: Dict[str, SpectralField | np.ndarray]):
    """Atomically write named fields as physical samples."""
    chunks = [MAGIC, struct.pack("<I", grid.n), struct.pack("<d", grid.length),
              struct.pack("<H", len(fields))]
    arrays = []
    for name, f in fields.items():
        raw = name.encode("utf-8")
        chunks.append(struct.pack("<H", len(raw)))
        chunks.append(raw)
        values = f.physical() if isinstance(f, SpectralField) else np.asarray(f, dtype=np.float64)
        if values.shape != (grid.n, grid.n):
            raise ValueError(f"field {name!r} has shape {values.shape}, expected {(grid.n, grid.n)}")
        arrays.append(np.ascontiguousarray(values, dtype="<f8"))
    tmp = f"{path}.tmp{os.getpid()}"
    with open(tmp, "wb") as fh:
        for c in chunks:
            fh.write(c)
        for a in arrays:
            fh.write(a.tobytes(order="C"))
    os.replace(tmp, path)


def read_snapshot(path: str) -> Tuple[Grid, Dict[str, np.ndarray]]:
    """Read a snapshot; any malformed input raises SnapshotFormatError naming the file."""
    with open(path, "rb") as fh:
        blob = fh.read()
    if blob[:4] != MAGIC:
        raise SnapshotFormatError(f"{path}: bad magic {blob[:4]!r}")
    off = 4
    try:
        (n,) = struct.unpack_from("<I", blob, off); off += 4
        (length,) = struct.unpack_from("<d", blob, off); off += 8
        (count,) = struct.unpack_from("<H", blob, off); off += 2
        names = []
        for _ in range(count):
            (ln,) = struct.unpack_from("<H", blob, off); off += 2
            names.append(blob[off:off + ln].decode("utf-8")); off += ln
    except (struct.error, UnicodeDecodeError) as exc:
        raise SnapshotFormatError(f"{path}: malformed header ({exc})") from exc
    if count == 0:
        raise SnapshotFormatError(f"{path}: header lists no fields")
    block = n * n * 8
    # checked before the grid is built, so a damaged n allocates nothing
    if len(blob) != off + count * block:
        raise SnapshotFormatError(f"{path}: {len(blob) - off} data bytes, "
                                  f"expected {count} blocks of {block}")
    try:
        grid = make_grid(int(n), float(length))
    except ValueError as exc:
        raise SnapshotFormatError(f"{path}: {exc}") from exc
    out = {}
    for name in names:
        out[name] = np.frombuffer(blob[off:off + block], dtype="<f8").reshape(n, n).copy()
        off += block
    return grid, out
