"""Deterministic named-tensor checkpoint files.

Layout (version 2, little-endian, stable across releases):

    bytes 0..3    magic ``NTCK``
    bytes 4..7    uint32 header length ``H``
    bytes 8..8+H  UTF-8 JSON header
    rest          the payload: raw C-order tensor buffers, in header order

The JSON header is ``{"format_version": 2, "meta": {...}, "payload_sha256":
hex, "tensors": [{"name", "dtype", "shape", "offset", "nbytes"}, ...]}``
with tensors sorted by name.  No timestamps or platform fields are
embedded, so identical tensors always serialize to identical bytes.
Tensor buffers tile the payload exactly and hash to ``payload_sha256``,
and only the dtypes in ``DTYPES`` are written or read; a file that breaks
any of this, or a version-1 file (no ``payload_sha256``), raises
``CheckpointError``.
"""

from __future__ import annotations

import hashlib
import json
import math

import numpy as np

MAGIC = b"NTCK"
FORMAT_VERSION = 2
DTYPES = ("float32", "float64")  # what model parameters use


class CheckpointError(Exception):
    pass


def save_checkpoint(path, tensors: dict[str, np.ndarray], meta: dict | None = None):
    entries = []
    buffers = []
    digest = hashlib.sha256()
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
        digest.update(buf)
        offset += len(buf)
    header = json.dumps({"format_version": FORMAT_VERSION, "meta": meta or {},
                         "payload_sha256": digest.hexdigest(), "tensors": entries},
                        sort_keys=True, separators=(",", ":")).encode("utf-8")
    with open(path, "wb") as fh:
        fh.write(MAGIC)
        fh.write(len(header).to_bytes(4, "little"))
        fh.write(header)
        for buf in buffers:
            fh.write(buf)


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
    if not isinstance(header, dict) or not isinstance(header.get("payload_sha256"), str):
        raise CheckpointError(f"{path}: header (format version {version!r}) has no "
                              f"payload_sha256 field")
    if version != FORMAT_VERSION:
        raise CheckpointError(f"{path}: unsupported format version {version!r}")
    payload = memoryview(raw)[8 + header_len:]
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
    if hashlib.sha256(payload).hexdigest() != header["payload_sha256"]:
        raise CheckpointError(f"{path}: the payload does not match its payload_sha256")
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
