"""Binary checkpoint container.

Layout (all integers little-endian):
  magic "ZRXN" | version u16 | config length u32 + UTF-8 key=value lines |
  tensor count u32 | per tensor: name length u32 + UTF-8 name, rank u32,
  dims u32 each, dtype tag u8 (0 = f32, 1 = f64), raw little-endian values |
  trailing 8-byte checksum (first 8 bytes of SHA-256 over everything before).

Round trips are bit-exact per tensor; the checksum is verified on load.
The config block is also the flat form of the run settings (FlatConfig).
"""

import hashlib
import struct
from dataclasses import fields

import numpy as np

from .errors import CheckpointError, UsageError

MAGIC = b"ZRXN"
FORMAT_VERSION = 1

_DTYPE_TAGS = {np.dtype("<f4"): 0, np.dtype("<f8"): 1}
_TAG_DTYPES = {0: np.dtype("<f4"), 1: np.dtype("<f8")}


def _checksum(payload):
    return hashlib.sha256(payload).digest()[:8]


def config_to_text(config):
    """Flat key=value block; keys sorted for byte-stable output."""
    lines = []
    for key in sorted(config):
        value = str(config[key])
        if "\n" in key or "=" in key or "\n" in value:
            raise UsageError(f"config entry {key!r} cannot be serialized flat")
        lines.append(f"{key}={value}")
    return "\n".join(lines)


def text_to_config(text):
    """Inverse of config_to_text. Lines end at "\n" only, the one line break
    that config_to_text rejects, so values may hold any other."""
    config = {}
    for line in text.split("\n"):
        if not line:
            continue
        key, sep, value = line.partition("=")
        if not sep:
            raise CheckpointError(f"malformed config line {line!r}")
        config[key] = value
    return config


def flat_to_fields(cls, prefix, flat):
    """Typed keyword arguments for the dataclass cls from the entries
    `prefix.field` of a flat config. Each value takes the type of the
    field's default; booleans are true or false in any case."""
    kwargs = {}
    for f in fields(cls):
        key = f"{prefix}.{f.name}"
        if key not in flat:
            continue
        raw, kind = str(flat[key]), type(f.default)
        if kind is bool:
            if raw.lower() not in ("true", "false"):
                raise UsageError(f"{key}={raw!r} is not true or false")
            kwargs[f.name] = raw.lower() == "true"
            continue
        try:
            kwargs[f.name] = kind(raw)
        except ValueError:
            raise UsageError(f"{key}={raw!r} is not a valid {kind.__name__}") from None
    return kwargs


class FlatConfig:
    """Base of the run-setting dataclasses: each field travels as the flat
    entry `PREFIX.field=value` in config files and checkpoints."""

    PREFIX = ""

    def to_flat(self):
        return {f"{self.PREFIX}.{f.name}": str(getattr(self, f.name))
                for f in fields(self)}

    @classmethod
    def from_flat(cls, flat):
        return cls(**flat_to_fields(cls, cls.PREFIX, flat))

    def check(self, rules):
        """Raise UsageError for the first (field, holds, rule) that fails."""
        for name, ok, rule in rules:
            if not ok:
                raise UsageError(
                    f"{self.PREFIX}.{name} must be {rule}, got {getattr(self, name)}")


def save_checkpoint(path, config, tensors):
    """Write config (dict of str->str-able) and named float arrays."""
    parts = [MAGIC, struct.pack("<H", FORMAT_VERSION)]
    config_bytes = config_to_text(config).encode("utf-8")
    parts.append(struct.pack("<I", len(config_bytes)))
    parts.append(config_bytes)
    parts.append(struct.pack("<I", len(tensors)))
    for name in sorted(tensors):
        arr = np.asarray(tensors[name])
        if arr.dtype not in _DTYPE_TAGS:
            arr = arr.astype(np.float64)
        arr = np.ascontiguousarray(arr)
        name_bytes = name.encode("utf-8")
        parts.append(struct.pack("<I", len(name_bytes)))
        parts.append(name_bytes)
        parts.append(struct.pack("<I", arr.ndim))
        for dim in arr.shape:
            parts.append(struct.pack("<I", dim))
        parts.append(struct.pack("<B", _DTYPE_TAGS[arr.dtype.newbyteorder("<")]))
        parts.append(arr.astype(arr.dtype.newbyteorder("<")).tobytes())
    payload = b"".join(parts)
    with open(path, "wb") as fh:
        fh.write(payload)
        fh.write(_checksum(payload))


def load_checkpoint(path):
    """Read a checkpoint; returns (config dict, dict of name -> array)."""
    with open(path, "rb") as fh:
        blob = fh.read()
    if len(blob) < len(MAGIC) + 2 + 8:
        raise CheckpointError("file too short to be a checkpoint")
    payload, stored = blob[:-8], blob[-8:]
    if _checksum(payload) != stored:
        raise CheckpointError("checksum mismatch: file is corrupt")
    if payload[:4] != MAGIC:
        raise CheckpointError("bad magic bytes")
    offset = 4
    (version,) = struct.unpack_from("<H", payload, offset)
    offset += 2
    if version != FORMAT_VERSION:
        raise CheckpointError(
            f"unsupported checkpoint version {version} (expected {FORMAT_VERSION})"
        )
    (config_len,) = struct.unpack_from("<I", payload, offset)
    offset += 4
    config = text_to_config(payload[offset : offset + config_len].decode("utf-8"))
    offset += config_len
    (count,) = struct.unpack_from("<I", payload, offset)
    offset += 4
    tensors = {}
    for _ in range(count):
        (name_len,) = struct.unpack_from("<I", payload, offset)
        offset += 4
        name = payload[offset : offset + name_len].decode("utf-8")
        offset += name_len
        (rank,) = struct.unpack_from("<I", payload, offset)
        offset += 4
        shape = struct.unpack_from(f"<{rank}I", payload, offset)
        offset += 4 * rank
        (tag,) = struct.unpack_from("<B", payload, offset)
        offset += 1
        if tag not in _TAG_DTYPES:
            raise CheckpointError(f"unknown dtype tag {tag}")
        dtype = _TAG_DTYPES[tag]
        n_bytes = int(np.prod(shape, dtype=np.int64)) * dtype.itemsize
        data = payload[offset : offset + n_bytes]
        if len(data) != n_bytes:
            raise CheckpointError("truncated tensor data")
        offset += n_bytes
        tensors[name] = np.frombuffer(data, dtype=dtype).reshape(shape).copy()
    if offset != len(payload):
        raise CheckpointError("trailing bytes after tensor section")
    return config, tensors
