"""Versioned binary checkpoint container.

Layout (all integers little-endian):

====== ======================================================
bytes  content
====== ======================================================
4      magic ``RBKP``
4      uint32 format version
8      uint64 manifest length in bytes
...    manifest, UTF-8 JSON
...    the arrays listed in ``manifest["arrays"]``, in order,
       as little-endian float64 in C order
====== ======================================================

The manifest records the model kind, hyperparameters, config hash,
training epoch, early-stopping bookkeeping, RNG state, and each array's
name and shape.  Every value is stored as exact ``<f8``, so files are
bit-identical across platforms; integer-valued arrays round-trip
losslessly below 2**53 and are cast back by the owning model.
"""

from __future__ import annotations

import json
import os
import struct

import numpy as np

from ..errors import CheckpointError

MAGIC = b"RBKP"
FORMAT_VERSION = 1


def save_state(path, manifest: dict, arrays: dict):
    """Write a checkpoint; ``manifest`` must be JSON-serializable.

    Writes ``<path>.tmp`` and renames it onto ``path``, so a save that fails
    partway leaves the previous checkpoint intact.
    """
    manifest = dict(manifest)
    manifest["format_version"] = FORMAT_VERSION
    manifest["arrays"] = [{"name": name, "shape": list(arr.shape)}
                          for name, arr in arrays.items()]
    blob = json.dumps(manifest, sort_keys=True).encode("utf-8")
    tmp = f"{os.fspath(path)}.tmp"
    try:
        with open(tmp, "wb") as handle:
            handle.write(MAGIC)
            handle.write(struct.pack("<I", FORMAT_VERSION))
            handle.write(struct.pack("<Q", len(blob)))
            handle.write(blob)
            for name in arrays:
                handle.write(np.ascontiguousarray(arrays[name], dtype="<f8").tobytes())
        os.replace(tmp, path)
    except OSError as exc:
        raise CheckpointError(f"cannot write checkpoint {path}: {exc}") from None
    finally:
        if os.path.exists(tmp):
            os.remove(tmp)


def load_state(path):
    """Read a checkpoint back as ``(manifest, arrays)``.

    Truncated or tampered files raise :class:`CheckpointError`; no partial
    state is ever returned.
    """
    try:
        with open(path, "rb") as handle:
            raw = handle.read()
    except OSError as exc:
        raise CheckpointError(f"cannot read checkpoint {path}: {exc}") from None
    if len(raw) < 16 or raw[:4] != MAGIC:
        raise CheckpointError(f"{path} is not a checkpoint file")
    (version,) = struct.unpack_from("<I", raw, 4)
    if version != FORMAT_VERSION:
        raise CheckpointError(f"{path}: format version {version} is not "
                              f"supported (expected {FORMAT_VERSION})")
    (blob_len,) = struct.unpack_from("<Q", raw, 8)
    end = 16 + blob_len
    if end > len(raw):
        raise CheckpointError(f"{path}: truncated manifest")
    try:
        manifest = json.loads(raw[16:end].decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise CheckpointError(f"{path}: corrupt manifest ({exc})") from None
    arrays = {}
    offset = end
    for entry in manifest.get("arrays", []):
        shape = tuple(entry["shape"])
        count = int(np.prod(shape)) if shape else 1
        nbytes = count * 8
        if offset + nbytes > len(raw):
            raise CheckpointError(f"{path}: truncated array {entry['name']!r}")
        arr = np.frombuffer(raw, dtype="<f8", count=count, offset=offset)
        arrays[entry["name"]] = arr.reshape(shape).astype(np.float64)
        offset += nbytes
    if offset != len(raw):
        raise CheckpointError(f"{path}: {len(raw) - offset} trailing bytes")
    return manifest, arrays
