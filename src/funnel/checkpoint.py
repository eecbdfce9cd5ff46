"""Bit-exact parameter archives (FTNT format).

Layout, all little endian:

    magic   4 bytes  "FTNT"
    version u32      (currently 1)
    count   u32      number of entries
    entry   name_len u32, name bytes (UTF-8), dtype u8 (0=f32, 1=f64),
            rank u8, dims u64 each, raw row-major payload

Entries are written sorted by name, so saving the same parameters twice
produces byte-identical files.
"""

from __future__ import annotations

import struct
from collections.abc import Mapping
from pathlib import Path

import numpy as np

from .autodiff import Tensor

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
    construction; ``load`` still rejects archives that contain them.
    """
    names = sorted(params)
    try:
        with open(path, "wb") as f:
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
                f.write(np.ascontiguousarray(data, dtype=_CODE_DTYPES[code]).tobytes())
    except OSError as e:
        raise CheckpointError(f"cannot write {path}: {e}") from e


def load(path: str | Path, expected: Mapping | None = None) -> dict[str, Tensor]:
    """Read an archive back into a name -> Tensor mapping; every tensor requires grad.

    With ``expected`` (name -> template with ``.shape`` and ``.dtype``,
    e.g. ``model.param_specs(config)`` or a built tree) missing or extra
    names are rejected and each entry's shape and dtype must match.
    """
    try:
        blob = Path(path).read_bytes()
    except OSError as e:
        raise CheckpointError(f"cannot read {path}: {e}") from e
    if len(blob) < 12:
        raise CorruptHeader(f"{path}: file shorter than the fixed header")
    if blob[:4] != MAGIC:
        raise BadMagic(f"{path}: bad magic {blob[:4]!r}")
    version, count = struct.unpack_from("<II", blob, 4)
    if version != VERSION:
        raise BadVersion(f"{path}: unsupported version {version}")
    ofs = 12
    out: dict[str, Tensor] = {}
    for _ in range(count):
        try:
            (name_len,) = struct.unpack_from("<I", blob, ofs)
            ofs += 4
            if len(blob) < ofs + name_len:
                raise CorruptHeader(f"{path}: entry name runs past end of file")
            name = blob[ofs: ofs + name_len].decode("utf-8")
            ofs += name_len
            code, rank = struct.unpack_from("<BB", blob, ofs)
            ofs += 2
            dims = struct.unpack_from(f"<{rank}Q", blob, ofs)
            ofs += 8 * rank
        except (struct.error, UnicodeDecodeError) as e:
            raise CorruptHeader(f"{path}: {e}") from e
        if code not in _CODE_DTYPES:
            raise CorruptHeader(f"{path}: unknown dtype code {code}")
        if name in out:
            raise CorruptHeader(f"{path}: duplicate entry {name!r}")
        dt = _CODE_DTYPES[code]
        n_bytes = int(np.prod(dims, dtype=np.int64)) * dt.itemsize if rank else dt.itemsize
        if len(blob) < ofs + n_bytes:
            raise TruncatedPayload(f"{path}: payload of {name!r} is truncated")
        arr = np.frombuffer(blob[ofs: ofs + n_bytes], dtype=dt).reshape(dims).copy()
        ofs += n_bytes
        out[name] = Tensor(arr, requires_grad=True)
    if ofs != len(blob):
        raise CorruptHeader(f"{path}: {len(blob) - ofs} trailing bytes")

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
