"""Binary checkpoint container.

Layout: magic "LOAE", u32 version, u64 header length, JSON header (config,
vocabulary, feature stats, tensor table of names and shapes), raw
little-endian f32 tensor blobs in header-declared order, then a u32 CRC-32
of every byte before it. The checksum guards against corruption, not
tampering. Only `VERSION` loads, so every loaded file has passed its
checksum; any other version raises `VersionMismatch`. The header is
serialized with sorted keys and the tensor table sorted by name, so
save -> load -> save round-trips byte-identically.
"""

from __future__ import annotations

import contextlib
import json
import math
import os
import struct
import zlib

import numpy as np

from . import nn
from .data import IoError
from .decoder import Vocabulary
from .model import CaptionModel, PipelineConfig, build_model

MAGIC = b"LOAE"
VERSION = 4


class CorruptCheckpoint(ValueError):
    pass


class VersionMismatch(ValueError):
    pass


def _tensor_table(model: CaptionModel) -> list[tuple[str, "np.ndarray"]]:
    params = model.named_parameters()
    return sorted(((name, p.data) for name, p in params.items()),
                  key=lambda kv: kv[0])


def serialize(model: CaptionModel) -> bytearray:
    """The checkpoint file's bytes, written into one buffer of its size."""
    table = _tensor_table(model)
    header = {
        "config": model.cfg.to_dict(),
        "vocab": model.vocab.tokens,
        "feature_stats": {"mean": model.encoder.feat_mean,
                          "std": model.encoder.feat_std},
        "tensors": [{"name": name, "shape": list(arr.shape)}
                    for name, arr in table],
    }
    header_bytes = json.dumps(header, sort_keys=True,
                              separators=(",", ":")).encode("utf-8")
    offset = 16 + len(header_bytes)
    end = offset + sum(4 * arr.size for _, arr in table)
    blob = bytearray(end + 4)
    struct.pack_into("<4sIQ", blob, 0, MAGIC, VERSION, len(header_bytes))
    blob[16:offset] = header_bytes
    for _, arr in table:
        np.frombuffer(blob, dtype="<f4", count=arr.size,
                      offset=offset)[:] = arr.reshape(-1)
        offset += 4 * arr.size
    struct.pack_into("<I", blob, end, zlib.crc32(memoryview(blob)[:end]))
    return blob


def save_checkpoint(model: CaptionModel, path) -> None:
    """Write the checkpoint to a sibling temporary file, then move it over
    `path`, so a failed or interrupted save leaves any old file whole."""
    blob = serialize(model)
    tmp = f"{os.fspath(path)}.{os.getpid()}.tmp"
    try:
        with open(tmp, "wb") as fh:
            fh.write(blob)
        os.replace(tmp, path)
    except OSError as e:
        raise IoError(str(e)) from e
    finally:
        with contextlib.suppress(OSError):  # gone once it has replaced `path`
            os.remove(tmp)


def _shape(dims) -> tuple[int, ...]:
    if not isinstance(dims, list) or not all(
            isinstance(n, int) and not isinstance(n, bool) and n >= 0
            for n in dims):
        raise ValueError(f"tensor shape {dims!r} is not a list of sizes")
    return tuple(dims)


def deserialize(blob: bytes) -> CaptionModel:
    if len(blob) < 16 or blob[:4] != MAGIC:
        raise CorruptCheckpoint("bad magic bytes")
    (version,) = struct.unpack_from("<I", blob, 4)
    if version != VERSION:
        raise VersionMismatch(f"format version {version}, expected {VERSION}")
    (header_len,) = struct.unpack_from("<Q", blob, 8)
    body_start = 16 + header_len
    if len(blob) < body_start:
        raise CorruptCheckpoint("truncated header")
    try:
        header = json.loads(blob[16:body_start].decode("utf-8"))
    except (ValueError, RecursionError) as e:  # bad UTF-8 or JSON, or too many digits
        raise CorruptCheckpoint(f"unreadable header ({e})") from e
    try:
        cfg = PipelineConfig.from_dict(header["config"])
        vocab = Vocabulary(header["vocab"])
        mean, std = (header["feature_stats"][k] for k in ("mean", "std"))
        if not all(isinstance(v, (int, float)) and not isinstance(v, bool)
                   and math.isfinite(v) for v in (mean, std)) or std <= 0:
            raise ValueError(f"feature stats mean {mean!r}, std {std!r}")
        tensors = [(t["name"], _shape(t["shape"])) for t in header["tensors"]]
        with nn.no_init():  # every weight is read from the blob below
            model = build_model(cfg, vocab)  # a LoRA rank past a layer's width raises
    except (KeyError, TypeError, ValueError, OverflowError) as e:
        raise CorruptCheckpoint(f"invalid header contents ({e})") from e

    end = body_start + sum(4 * math.prod(shape) for _, shape in tensors)
    if len(blob) < end + 4:
        raise CorruptCheckpoint("truncated tensor data")
    if len(blob) > end + 4:
        raise CorruptCheckpoint("trailing bytes after tensor data")
    if zlib.crc32(memoryview(blob)[:end]) != struct.unpack_from("<I", blob, end)[0]:
        raise CorruptCheckpoint("checksum mismatch")

    model.encoder.set_feature_stats(mean, std)
    params = model.named_parameters()
    if [name for name, _ in tensors] != sorted(params.keys()):
        raise CorruptCheckpoint("tensor table does not match the model")

    offset = body_start
    for name, shape in tensors:
        param = params[name]
        if param.data.shape != shape:
            raise CorruptCheckpoint(
                f"shape mismatch for {name}: {shape} vs {param.data.shape}")
        arr = np.frombuffer(blob, dtype="<f4", count=param.data.size,
                            offset=offset)
        param.data = np.ascontiguousarray(arr.reshape(shape).astype(np.float32))
        offset += param.data.size * 4
    return model


def load_checkpoint(path) -> CaptionModel:
    try:
        with open(path, "rb") as fh:
            blob = fh.read()
    except OSError as e:
        raise IoError(str(e)) from e
    return deserialize(blob)
