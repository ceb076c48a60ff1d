"""Deterministic checkpoint archive: named float32 or float64 tensors plus a
manifest.

Layout: magic line, 8-byte little-endian header length, JSON header (version,
a ``config_hash`` key that is empty if no reader checks one, per-tensor name,
shape, dtype, offset and byte count), then raw little-endian C-order blobs.
Each tensor is stored in its own dtype, ``float32`` for everything fmash
trains; a header dtype other than ``float32``/``float64``, a dimension,
offset or byte count that is not a non-negative integer, or a byte count
that does not match the shape, is rejected.  No timestamps or other
environment-dependent bytes, so identical inputs give identical files.
"""

from __future__ import annotations

import json
import math
import struct
from pathlib import Path

import numpy as np

from .errors import SchemaError

MAGIC = b"FMASHCKPT1\n"
VERSION = 1
# header dtype name -> little-endian storage type
_DTYPES = {"float32": np.dtype("<f4"), "float64": np.dtype("<f8")}


def _size(value) -> bool:
    """Whether a header's dimension, offset or byte count is a non-negative
    int: ``frombuffer`` reads a count of -1 to the end of the file."""
    return type(value) is int and value >= 0


def save_checkpoint(path: str | Path, tensors: dict[str, np.ndarray],
                    config_hash: str = "") -> None:
    records = []
    blobs = []
    offset = 0
    for name in sorted(tensors):
        arr = np.asarray(tensors[name])
        if arr.dtype.name not in _DTYPES:
            raise TypeError(f"checkpoint tensor {name!r} has dtype {arr.dtype}; "
                            f"only {', '.join(_DTYPES)} are stored")
        blob = np.ascontiguousarray(arr, dtype=_DTYPES[arr.dtype.name]).tobytes()
        records.append({"name": name, "shape": list(arr.shape),
                        "dtype": arr.dtype.name, "offset": offset,
                        "nbytes": len(blob)})
        blobs.append(blob)
        offset += len(blob)
    header = json.dumps({"version": VERSION, "config_hash": config_hash,
                         "tensors": records}, sort_keys=True).encode("utf-8")
    with open(path, "wb") as fh:
        fh.write(MAGIC)
        fh.write(struct.pack("<Q", len(header)))
        fh.write(header)
        for blob in blobs:
            fh.write(blob)


def load_checkpoint(path: str | Path, raw: bytes | None = None,
                    ) -> tuple[dict[str, np.ndarray], str]:
    """The tensors and config hash of the checkpoint at ``path``, parsed from
    ``raw`` when the caller has already read its bytes."""
    path = Path(path)
    if raw is None:
        if not path.exists():
            raise SchemaError(f"checkpoint not found: {path}")
        raw = path.read_bytes()
    if not raw.startswith(MAGIC):
        raise SchemaError(f"{path}: not a checkpoint file")
    try:
        cursor = len(MAGIC)
        (header_len,) = struct.unpack_from("<Q", raw, cursor)
        cursor += 8
        header = json.loads(raw[cursor:cursor + header_len].decode("utf-8"))
        if header.get("version") != VERSION:
            raise SchemaError(f"{path}: unsupported checkpoint version "
                              f"{header.get('version')!r}")
        base = cursor + header_len
        tensors = {}
        for rec in header["tensors"]:
            name, dtype = rec["name"], _DTYPES.get(rec["dtype"])
            if dtype is None:
                raise SchemaError(f"{path}: tensor {name!r} has unknown dtype "
                                  f"{rec['dtype']!r}")
            shape, offset, nbytes = rec["shape"], rec["offset"], rec["nbytes"]
            if not (isinstance(shape, list) and all(map(_size, shape))
                    and _size(offset) and _size(nbytes)):
                raise SchemaError(f"{path}: tensor {name!r} has shape {shape!r}, offset "
                                  f"{offset!r} and nbytes {nbytes!r}; each size must "
                                  f"be a non-negative integer")
            count = math.prod(shape)
            if nbytes != count * dtype.itemsize:
                raise SchemaError(f"{path}: tensor {name!r} holds {nbytes} "
                                  f"bytes, but shape {shape} of "
                                  f"{rec['dtype']} needs {count * dtype.itemsize}")
            tensors[name] = np.frombuffer(raw, dtype=dtype, count=count,
                                          offset=base + offset).reshape(shape).copy()
        return tensors, header.get("config_hash", "")
    except (struct.error, ValueError, KeyError, TypeError, AttributeError,
            OverflowError) as exc:
        # a cut or damaged file fails in the header length, the header
        # JSON or a tensor blob; a length or offset past any index overflows
        raise SchemaError(f"{path}: truncated or corrupt checkpoint ({exc})") from exc
