"""Checkpoint files: a text manifest followed by flat 64-bit LE float data.

Layout: UTF-8 header lines (format tag, data checksum, extra key=value
metadata, then one ``tensor <name> <shape-json> <offset>`` line per array,
offsets in bytes from the start of the data segment), a blank line, then
the concatenated float64 little-endian arrays. Writes are atomic
(write-then-rename).

A model file (``save_params``) holds the parameters under their own names
and the model config as ``meta config``. A training run's file
(``run.ckpt``, written by ``harness``) holds everything a resume needs in
one such file, so one checksum and one rename cover it:

- tensor sections ``params/<name>`` (current parameters), ``best/<name>``
  (best-dev parameters), ``adam_m/<name>`` and ``adam_v/<name>`` (AdamW
  moments);
- meta ``config`` (model config), ``experiment`` (experiment config),
  ``trainer`` (epoch, step and early-stopping counters, and the lines of
  the augmentation audit written so far), ``adam_t`` (AdamW step count),
  ``tokenizer_sha256`` and ``run_log`` (the run-log entries so far).
"""

from __future__ import annotations

import hashlib
import json
import os

import numpy as np

from .errors import CheckpointError

_MAGIC = "mtlab-checkpoint v1"


def save_arrays(path, arrays: dict[str, np.ndarray], meta: dict | None = None) -> None:
    """Write named arrays (any float dtype; stored as f64 LE) atomically."""
    offset = 0
    lines = [_MAGIC]
    meta_lines = []
    for key, value in sorted((meta or {}).items()):
        meta_lines.append(f"meta {key}={json.dumps(value, ensure_ascii=False)}")
    tensor_lines = []
    blobs = []
    digest = hashlib.sha256()
    for name in arrays:
        if " " in name:
            raise CheckpointError(f"tensor name {name!r} must not contain spaces")
        # hashed and written as buffers, so no bytes copy of the data is made
        blob = np.ascontiguousarray(arrays[name], dtype="<f8")
        shape_json = json.dumps(list(blob.shape), separators=(",", ":"))
        tensor_lines.append(f"tensor {name} {shape_json} {offset}")
        digest.update(blob)
        blobs.append(blob)
        offset += blob.nbytes
    lines.append(f"checksum sha256:{digest.hexdigest()}")
    lines.extend(meta_lines)
    lines.extend(tensor_lines)
    header = ("\n".join(lines) + "\n\n").encode("utf-8")
    tmp = f"{path}.tmp"
    with open(tmp, "wb") as f:
        f.write(header)
        for blob in blobs:
            f.write(blob)
    os.replace(tmp, path)


def load_arrays(path) -> tuple[dict[str, np.ndarray], dict]:
    """Read a checkpoint; returns (arrays as float64, metadata dict)."""
    try:
        with open(path, "rb") as f:
            raw = f.read()
    except OSError as exc:
        raise CheckpointError(f"cannot read checkpoint {path}: {exc}") from None
    sep = raw.find(b"\n\n")
    if sep < 0:
        raise CheckpointError(f"{path}: missing header separator")
    header = raw[:sep].decode("utf-8").splitlines()
    data = raw[sep + 2 :]
    if not header or header[0] != _MAGIC:
        raise CheckpointError(f"{path}: bad magic line {header[:1]!r}")
    checksum = None
    meta: dict = {}
    entries = []
    for line in header[1:]:
        kind, _, rest = line.partition(" ")
        if kind == "checksum":
            checksum = rest
        elif kind == "meta":
            key, _, value = rest.partition("=")
            meta[key] = json.loads(value)
        elif kind == "tensor":
            name, shape_json, offset = rest.rsplit(" ", 2)
            entries.append((name, tuple(json.loads(shape_json)), int(offset)))
        else:
            raise CheckpointError(f"{path}: unknown header line {line!r}")
    if checksum != f"sha256:{hashlib.sha256(data).hexdigest()}":
        raise CheckpointError(f"{path}: data checksum mismatch")
    arrays = {}
    for name, shape, offset in entries:
        count = int(np.prod(shape)) if shape else 1
        end = offset + count * 8
        if end > len(data):
            raise CheckpointError(f"{path}: tensor {name} runs past end of data")
        arrays[name] = (
            np.frombuffer(data[offset:end], dtype="<f8").reshape(shape).copy()
        )
    return arrays, meta


def save_params(path, params, extra_meta: dict | None = None) -> None:
    """Persist model parameters with their config in the manifest."""
    from dataclasses import asdict

    meta = {"config": asdict(params.config)}
    if extra_meta:
        meta.update(extra_meta)
    save_arrays(path, {k: v.data for k, v in params.tensors.items()}, meta)


def load_params(path):
    """Restore Params; arrays cast to the current default dtype."""
    arrays, meta = load_arrays(path)
    if "config" not in meta:
        raise CheckpointError(f"{path}: missing model config metadata")
    return params_from_arrays(path, arrays, meta["config"]), meta


def params_from_arrays(path, arrays: dict[str, np.ndarray], config: dict):
    """Params of the model config ``config`` (a dict) from named arrays.

    The names must be exactly the config's parameter names; arrays are cast
    to the current default dtype.
    """
    from .model import ModelConfig, Params, _layer_names
    from .numerics import autodiff as T

    config = ModelConfig(**config)
    want = T.default_dtype()
    tensors = {k: T.Tensor(v.astype(want)) for k, v in arrays.items()}
    expected = {name for name, _ in _layer_names(config)}
    if set(tensors) != expected:
        missing = expected - set(tensors)
        surplus = set(tensors) - expected
        raise CheckpointError(
            f"{path}: parameter names do not match config "
            f"(missing {sorted(missing)[:3]}, surplus {sorted(surplus)[:3]})"
        )
    return Params(config, tensors)
