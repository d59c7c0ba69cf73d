"""Checkpoint files: a text manifest followed by flat 64-bit LE float data.

Layout: UTF-8 header lines (format tag, data checksum, extra key=value
metadata, then one ``tensor <name> <shape-json> <offset>`` line per array,
offsets in bytes from the start of the data segment), a blank line, then
the concatenated float64 little-endian arrays. Writes are atomic
(write-then-rename).
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
    names = list(arrays)
    blobs = []
    offset = 0
    lines = [_MAGIC]
    meta_lines = []
    for key, value in sorted((meta or {}).items()):
        meta_lines.append(f"meta {key}={json.dumps(value, ensure_ascii=False)}")
    tensor_lines = []
    for name in names:
        if " " in name:
            raise CheckpointError(f"tensor name {name!r} must not contain spaces")
        arr = np.ascontiguousarray(arrays[name], dtype="<f8")
        blob = arr.tobytes()
        shape_json = json.dumps(list(arr.shape), separators=(",", ":"))
        tensor_lines.append(f"tensor {name} {shape_json} {offset}")
        blobs.append(blob)
        offset += len(blob)
    data = b"".join(blobs)
    checksum = hashlib.sha256(data).hexdigest()
    lines.append(f"checksum sha256:{checksum}")
    lines.extend(meta_lines)
    lines.extend(tensor_lines)
    header = ("\n".join(lines) + "\n\n").encode("utf-8")
    tmp = f"{path}.tmp"
    with open(tmp, "wb") as f:
        f.write(header)
        f.write(data)
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
    from .model import ModelConfig, Params
    from .numerics import autodiff as T

    arrays, meta = load_arrays(path)
    if "config" not in meta:
        raise CheckpointError(f"{path}: missing model config metadata")
    config = ModelConfig(**meta["config"])
    want = T.default_dtype()
    tensors = {k: T.Tensor(v.astype(want)) for k, v in arrays.items()}
    expected = {name for name, _ in _expected_names(config)}
    if set(tensors) != expected:
        missing = expected - set(tensors)
        surplus = set(tensors) - expected
        raise CheckpointError(
            f"{path}: parameter names do not match config "
            f"(missing {sorted(missing)[:3]}, surplus {sorted(surplus)[:3]})"
        )
    return Params(config, tensors), meta


def _expected_names(config):
    from .model import _layer_names

    return _layer_names(config)


def save_optimizer(path, state) -> None:
    arrays = {}
    for name, arr in state.m.items():
        arrays[f"m.{name}"] = arr
    for name, arr in state.v.items():
        arrays[f"v.{name}"] = arr
    save_arrays(path, arrays, {"t": state.t})


def load_optimizer(path, params):
    """Restore AdamW state for ``params`` (moment dtypes follow params)."""
    from .optim import AdamWState

    arrays, meta = load_arrays(path)
    state = AdamWState(params)
    state.t = int(meta.get("t", 0))
    for name, tensor in params.tensors.items():
        try:
            state.m[name] = arrays[f"m.{name}"].astype(tensor.data.dtype)
            state.v[name] = arrays[f"v.{name}"].astype(tensor.data.dtype)
        except KeyError:
            raise CheckpointError(f"{path}: missing optimizer buffers for {name!r}") from None
    return state, meta
