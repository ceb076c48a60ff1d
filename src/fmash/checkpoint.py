"""Deterministic checkpoint archive: named float64 tensors plus a manifest.

Layout: magic line, 8-byte little-endian header length, JSON header (version,
a ``config_hash`` key that is empty if no reader checks one, per-tensor name,
shape and offset), then raw little-endian C-order blobs.  No timestamps or
other environment-dependent bytes, so identical inputs give identical files.
"""

from __future__ import annotations

import json
import struct
from pathlib import Path

import numpy as np

from .errors import SchemaError

MAGIC = b"FMASHCKPT1\n"
VERSION = 1


def save_checkpoint(path: str | Path, tensors: dict[str, np.ndarray],
                    config_hash: str = "") -> None:
    records = []
    blobs = []
    offset = 0
    for name in sorted(tensors):
        arr = np.ascontiguousarray(np.asarray(tensors[name], dtype=np.float64))
        blob = arr.tobytes()
        records.append({"name": name, "shape": list(arr.shape),
                        "dtype": "float64", "offset": offset,
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


def load_checkpoint(path: str | Path) -> tuple[dict[str, np.ndarray], str]:
    path = Path(path)
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
            start = base + rec["offset"]
            arr = np.frombuffer(raw, dtype=np.float64, count=rec["nbytes"] // 8,
                                offset=start).reshape(rec["shape"]).copy()
            tensors[rec["name"]] = arr
        return tensors, header.get("config_hash", "")
    except (struct.error, ValueError, KeyError, TypeError, AttributeError) as exc:
        # a cut or damaged file fails in the header length, the header
        # JSON or a tensor blob
        raise SchemaError(f"{path}: truncated or corrupt checkpoint ({exc})") from exc
