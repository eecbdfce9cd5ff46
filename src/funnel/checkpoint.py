"""Bit-exact parameter archives (FTNT format).

Layout, all little endian:

    magic   4 bytes  "FTNT"
    version u32      (currently 2)
    count   u32      number of entries
    entry   name_len u32, name bytes (UTF-8), dtype u8 (0=f32, 1=f64),
            rank u8 (at most 4), dims u64 each, zero bytes up to the
            next 64-byte boundary of the file, raw row-major payload

Entries are written sorted by name, so saving the same parameters twice
produces byte-identical files.  The padding lets ``load`` map the file.
"""

from __future__ import annotations

import math
import mmap
import os
import struct
from collections.abc import Mapping
from pathlib import Path
from typing import BinaryIO

import numpy as np

from .autodiff import MAX_RANK, Tensor

MAGIC = b"FTNT"
VERSION = 2
ALIGN = 64
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
                f.write(struct.pack(f"<I{len(raw)}sBB{data.ndim}Q", len(raw), raw, code,
                                    data.ndim, *data.shape))
                f.write(bytes(-f.tell() % ALIGN))
                f.write(memoryview(np.ascontiguousarray(data, dtype=_CODE_DTYPES[code])))
        os.replace(tmp, path)
    except OSError as e:
        raise CheckpointError(f"cannot write {path}: {e}") from e
    finally:
        tmp.unlink(missing_ok=True)                    # gone already after a replace


def load(path: str | Path, expected: Mapping | None = None) -> dict[str, Tensor]:
    """Map an archive into a name -> Tensor mapping; every tensor requires grad.

    Headers are read first, so a corrupt size raises ``TruncatedPayload``
    before anything is mapped.  The file is then mapped once, copy-on-write:
    each tensor is a 64-byte aligned view, and writes to it stay private to
    the process.  Do not truncate the archive in place while a loaded tree
    lives; ``save`` writes a temporary file and renames it.

    With ``expected`` (name -> template with ``.shape`` and ``.dtype``,
    e.g. ``model.param_specs(config)`` or a built tree) missing or extra
    names are rejected and each entry's shape and dtype must match.
    """
    try:
        with open(path, "rb") as f:
            index = _read_index(f, path)
            view = mmap.mmap(f.fileno(), 0, access=mmap.ACCESS_COPY)
    except OSError as e:
        raise CheckpointError(f"cannot read {path}: {e}") from e
    out = {name: Tensor(np.ndarray(dims, dt, view, offset), requires_grad=True)
           for name, (dt, dims, offset) in index.items()}

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


def _read_index(f: BinaryIO, path) -> dict[str, tuple[np.dtype, tuple, int]]:
    """Parse an open archive's headers into name -> (dtype, dims, payload offset)."""
    size = os.fstat(f.fileno()).st_size

    def fields(fmt: str) -> tuple:
        n = struct.calcsize(fmt)
        if n > size - f.tell():
            raise CorruptHeader(f"{path}: header runs past end of file")
        return struct.unpack(fmt, f.read(n))

    magic, version, count = fields("<4sII")
    if magic != MAGIC:
        raise BadMagic(f"{path}: bad magic {magic!r}")
    if version != VERSION:
        raise BadVersion(f"{path}: unsupported version {version}")

    index: dict[str, tuple[np.dtype, tuple, int]] = {}
    for _ in range(count):
        (name_len,) = fields("<I")
        try:
            name = fields(f"{name_len}s")[0].decode("utf-8")
        except UnicodeDecodeError as e:
            raise CorruptHeader(f"{path}: {e}") from e
        code, rank = fields("<BB")
        if rank > MAX_RANK:
            raise CorruptHeader(f"{path}: {name!r} has rank {rank} > {MAX_RANK}")
        dims = fields(f"<{rank}Q")
        if code not in _CODE_DTYPES:
            raise CorruptHeader(f"{path}: unknown dtype code {code}")
        if name in index:
            raise CorruptHeader(f"{path}: duplicate entry {name!r}")
        if any(fields(f"{-f.tell() % ALIGN}s")[0]):
            raise CorruptHeader(f"{path}: non-zero padding before {name!r}")
        dt = _CODE_DTYPES[code]
        n_bytes = math.prod(dims) * dt.itemsize
        if n_bytes > size - f.tell():
            raise TruncatedPayload(f"{path}: payload of {name!r} is truncated")
        index[name] = dt, dims, f.tell()
        f.seek(n_bytes, os.SEEK_CUR)
    if f.tell() != size:
        raise CorruptHeader(f"{path}: {size - f.tell()} trailing bytes")
    return index
