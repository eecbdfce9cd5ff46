"""Bit-exact parameter archives (FTNT format).

Layout, all little endian:

    magic   4 bytes  "FTNT"
    version u32      (currently 1)
    count   u32      number of entries
    entry   name_len u32, name bytes (UTF-8), dtype u8 (0=f32, 1=f64),
            rank u8 (at most 4), dims u64 each, raw row-major payload

Entries are written sorted by name, so saving the same parameters twice
produces byte-identical files.
"""

from __future__ import annotations

import math
import os
import struct
from collections.abc import Mapping
from pathlib import Path
from typing import BinaryIO

import numpy as np

from .autodiff import MAX_RANK, Tensor

MAGIC = b"FTNT"
VERSION = 1
_DTYPE_CODES = {np.dtype(np.float32): 0, np.dtype(np.float64): 1}
_CODE_DTYPES = {0: np.dtype("<f4"), 1: np.dtype("<f8")}


class CheckpointError(RuntimeError):
    """Base for malformed or mismatched archives."""


class BadMagic(CheckpointError):
    pass


class BadVersion(CheckpointError):
    pass


class CorruptHeader(CheckpointError):
    pass


class TruncatedPayload(CheckpointError):
    pass


class ShapeMismatch(CheckpointError):
    pass


def save(params: dict[str, Tensor], path: str | Path) -> None:
    """Write the parameter tree; deterministic byte-for-byte.

    Entry names are the dict keys, so duplicates are impossible by
    construction; ``load`` still rejects archives that contain them.  The
    archive is written to a temporary file beside ``path`` and moved over
    it only once complete, so a save that fails leaves an earlier archive
    at ``path`` intact and no temporary file behind.
    """
    names = sorted(params)
    tmp = Path(f"{path}.{os.getpid()}.tmp")
    try:
        with open(tmp, "wb") as f:
            f.write(MAGIC)
            f.write(struct.pack("<II", VERSION, len(names)))
            for name in names:
                data = params[name].data
                code = _DTYPE_CODES.get(data.dtype)
                if code is None:
                    raise CheckpointError(f"{name}: unsupported dtype {data.dtype}")
                raw = name.encode("utf-8")
                f.write(struct.pack("<I", len(raw)))
                f.write(raw)
                f.write(struct.pack("<BB", code, data.ndim))
                f.write(struct.pack(f"<{data.ndim}Q", *data.shape))
                f.write(memoryview(np.ascontiguousarray(data, dtype=_CODE_DTYPES[code])))
        os.replace(tmp, path)
    except OSError as e:
        raise CheckpointError(f"cannot write {path}: {e}") from e
    finally:
        tmp.unlink(missing_ok=True)                    # gone already after a replace


def load(path: str | Path, expected: Mapping | None = None) -> dict[str, Tensor]:
    """Read an archive back into a name -> Tensor mapping; every tensor requires grad.

    The file is streamed: each payload is read straight into its own
    freshly allocated array, so loading holds no second copy of the
    archive.  An entry's byte count is checked against the bytes left in
    the file before its array is allocated, so a corrupt size raises
    ``TruncatedPayload`` instead of attempting a huge allocation.

    With ``expected`` (name -> template with ``.shape`` and ``.dtype``,
    e.g. ``model.param_specs(config)`` or a built tree) missing or extra
    names are rejected and each entry's shape and dtype must match.
    """
    try:
        with open(path, "rb") as f:
            out = _read_entries(f, path)
    except OSError as e:
        raise CheckpointError(f"cannot read {path}: {e}") from e

    if expected is not None:
        missing = sorted(set(expected) - set(out))
        extra = sorted(set(out) - set(expected))
        if missing or extra:
            raise ShapeMismatch(f"{path}: missing {missing}, unexpected {extra}")
        for name, template in expected.items():
            got = out[name]
            if got.shape != template.shape or got.dtype != template.dtype:
                raise ShapeMismatch(
                    f"{path}: {name!r} is {got.dtype} {got.shape}, "
                    f"expected {template.dtype} {template.shape}")
    return out


def _read_entries(f: BinaryIO, path) -> dict[str, Tensor]:
    """Parse an open archive, reading each payload straight into its array."""
    size = os.fstat(f.fileno()).st_size
    head = f.read(12)
    if len(head) < 12:
        raise CorruptHeader(f"{path}: file shorter than the fixed header")
    if head[:4] != MAGIC:
        raise BadMagic(f"{path}: bad magic {head[:4]!r}")
    version, count = struct.unpack_from("<II", head, 4)
    if version != VERSION:
        raise BadVersion(f"{path}: unsupported version {version}")

    def fields(fmt: str) -> tuple:
        n = struct.calcsize(fmt)
        raw = f.read(n)
        if len(raw) < n:
            raise CorruptHeader(f"{path}: entry header runs past end of file")
        return struct.unpack(fmt, raw)

    out: dict[str, Tensor] = {}
    for _ in range(count):
        (name_len,) = fields("<I")
        if name_len > size - f.tell():
            raise CorruptHeader(f"{path}: entry name runs past end of file")
        try:
            name = f.read(name_len).decode("utf-8")
        except UnicodeDecodeError as e:
            raise CorruptHeader(f"{path}: {e}") from e
        code, rank = fields("<BB")
        if rank > MAX_RANK:
            raise CorruptHeader(f"{path}: {name!r} has rank {rank} > {MAX_RANK}")
        dims = fields(f"<{rank}Q")
        if code not in _CODE_DTYPES:
            raise CorruptHeader(f"{path}: unknown dtype code {code}")
        if name in out:
            raise CorruptHeader(f"{path}: duplicate entry {name!r}")
        dt = _CODE_DTYPES[code]
        n_bytes = math.prod(dims) * dt.itemsize
        if n_bytes > size - f.tell():
            raise TruncatedPayload(f"{path}: payload of {name!r} is truncated")
        arr = np.empty(dims, dtype=dt)
        # a flat byte view of the array itself, valid for rank 0 and size 0 alike
        if f.readinto(arr.reshape(-1).view(np.uint8)) != n_bytes:
            raise TruncatedPayload(f"{path}: payload of {name!r} is truncated")
        out[name] = Tensor(arr, requires_grad=True)
    if f.tell() != size:
        raise CorruptHeader(f"{path}: {size - f.tell()} trailing bytes")
    return out
