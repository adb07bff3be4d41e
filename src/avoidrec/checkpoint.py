"""Deterministic named-tensor checkpoint files.

Layout (version 3, little-endian, stable across releases):

    bytes 0..3      magic ``NTCK``
    bytes 4..7      uint32 header length ``H``
    bytes 8..8+H    UTF-8 JSON header
    then            the payload: raw C-order tensor buffers, in header order
    last 32 bytes   the sha256 of every byte before them

The JSON header is ``{"format_version": 3, "meta": {...}, "tensors":
[{"name", "dtype", "shape", "offset", "nbytes"}, ...]}`` with tensors
sorted by name.  No timestamps or platform fields are embedded, so
identical tensors and meta always serialize to identical bytes.  The
sha256 covers the magic, the header with its meta and tensor entries,
and the payload, so flipping any one bit of a file makes it fail to
load.  Tensor buffers tile the payload exactly, and only the dtypes in
``DTYPES`` are written or read; a file that breaks any of this, or a file
of another format version (versions 1 and 2 had no trailing sha256),
raises ``CheckpointError`` naming the file.
"""

from __future__ import annotations

import hashlib
import json
import math

import numpy as np

MAGIC = b"NTCK"
FORMAT_VERSION = 3
_DIGEST_BYTES = 32  # the trailing sha256
DTYPES = ("float32", "float64")  # what model parameters use


class CheckpointError(Exception):
    pass


def save_checkpoint(path, tensors: dict[str, np.ndarray], meta: dict | None = None):
    entries = []
    buffers = []
    offset = 0
    for name in sorted(tensors):
        arr = np.ascontiguousarray(tensors[name])
        if arr.dtype.name not in DTYPES:
            raise CheckpointError(f"{name}: dtype {arr.dtype} is not one of {DTYPES}")
        buf = arr.astype(arr.dtype.newbyteorder("<"), copy=False).tobytes()
        entries.append({
            "name": name,
            "dtype": arr.dtype.name,
            "shape": list(arr.shape),
            "offset": offset,
            "nbytes": len(buf),
        })
        buffers.append(buf)
        offset += len(buf)
    header = json.dumps({"format_version": FORMAT_VERSION, "meta": meta or {}, "tensors": entries},
                        sort_keys=True, separators=(",", ":")).encode("utf-8")
    digest = hashlib.sha256()
    with open(path, "wb") as fh:
        for part in (MAGIC, len(header).to_bytes(4, "little"), header, *buffers):
            fh.write(part)
            digest.update(part)
        fh.write(digest.digest())


def load_checkpoint(path) -> tuple[dict[str, np.ndarray], dict]:
    with open(path, "rb") as fh:
        raw = fh.read()
    if raw[:4] != MAGIC:
        raise CheckpointError(f"{path}: not a checkpoint file")
    header_len = int.from_bytes(raw[4:8], "little")
    if len(raw) < 8 or 8 + header_len > len(raw):
        raise CheckpointError(f"{path}: header length {header_len} runs past the end of the file")
    try:
        header = json.loads(raw[8:8 + header_len].decode("utf-8"))
    except (UnicodeDecodeError, ValueError) as exc:
        raise CheckpointError(f"{path}: unreadable header: {exc}") from None
    version = header.get("format_version") if isinstance(header, dict) else None
    if version != FORMAT_VERSION:
        raise CheckpointError(f"{path}: unsupported format version {version!r}, "
                              f"expected {FORMAT_VERSION}")
    body_len = len(raw) - _DIGEST_BYTES
    if body_len < 8 + header_len:
        raise CheckpointError(f"{path}: the file ends before its sha256")
    payload = memoryview(raw)[8 + header_len:body_len]
    entries, meta = header.get("tensors"), header.get("meta", {})
    if not isinstance(entries, list) or not isinstance(meta, dict):
        raise CheckpointError(f"{path}: header needs a tensor list and a meta object")
    tensors = {}
    offset = 0
    for entry in entries:
        name, dtype, shape, nbytes = _checked_entry(path, entry, offset)
        if name in tensors:
            raise CheckpointError(f"{path}: tensor {name!r} appears twice")
        end = offset + nbytes
        if end > len(payload):
            raise CheckpointError(f"{path}: tensor {name!r} runs past the end of the file")
        tensors[name] = np.frombuffer(payload[offset:end], dtype=dtype).reshape(shape).copy()
        offset = end
    if offset != len(payload):
        raise CheckpointError(f"{path}: {len(payload) - offset} bytes after the last tensor")
    if hashlib.sha256(memoryview(raw)[:body_len]).digest() != raw[body_len:]:
        raise CheckpointError(f"{path}: the file does not match its sha256")
    return tensors, meta


def _checked_entry(path, entry, offset):
    """(name, little-endian dtype, shape, nbytes) of a header entry that agrees with itself."""
    if not isinstance(entry, dict) or not isinstance(entry.get("name"), str):
        raise CheckpointError(f"{path}: malformed tensor entry {entry!r}")
    name, shape = entry["name"], entry.get("shape")
    if entry.get("dtype") not in DTYPES:
        raise CheckpointError(f"{path}: tensor {name!r} has dtype {entry.get('dtype')!r}, "
                              f"expected one of {DTYPES}")
    dtype = np.dtype(entry["dtype"]).newbyteorder("<")
    if not (isinstance(shape, list)
            and all(isinstance(n, int) and not isinstance(n, bool) and n >= 0 for n in shape)):
        raise CheckpointError(f"{path}: tensor {name!r} has a malformed shape {shape!r}")
    nbytes = math.prod(shape) * dtype.itemsize
    if entry.get("offset") != offset or entry.get("nbytes") != nbytes:
        raise CheckpointError(f"{path}: tensor {name!r} offset/nbytes disagree with its shape "
                              f"and position")
    return name, dtype, shape, nbytes
