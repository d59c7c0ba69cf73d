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

Configs saved by earlier versions carry retired keys. A reader drops each
one that holds the value the program now always uses and refuses any other
value with CheckpointError naming the key (``drop_retired``). Model
configs: ``tie_embeddings`` true, ``activation`` "gelu",
``label_smoothing`` 0, ``layer_norm_eps`` 1e-5, ``pad_id`` 0, ``eos_id`` 1.
Experiment configs: ``total_steps`` 0 (count the schedule from the
data), ``mono_langs`` null (every run language with data),
``bt.temperature`` 1, ``rec.n_swaps`` 2, ``rec.p_del`` 0.2,
``optimizer.beta1`` 0.9, ``beta2`` 0.999, ``eps`` 1e-8, ``weight_decay`` 0.01.

Tensors saved by earlier versions include each attention block's key bias
``<block>.bk``, which has no effect on the model's output. A reader drops
it whatever its value, unlike a retired config key, in every tensor
section (``params_from_arrays``).
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
    """Read a checkpoint once; returns (read-only float64 views of it, metadata dict)."""
    try:
        with open(path, "rb") as f:
            raw = f.read()
    except OSError as exc:
        raise CheckpointError(f"cannot read checkpoint {path}: {exc}") from None
    sep = raw.find(b"\n\n")
    if sep < 0:
        raise CheckpointError(f"{path}: missing header separator")
    header = raw[:sep].decode("utf-8").splitlines()
    data = memoryview(raw)[sep + 2 :]
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
        if offset < 0 or end > len(data):
            raise CheckpointError(f"{path}: tensor {name} runs past end of data")
        arrays[name] = np.frombuffer(data, "<f8", count, offset).reshape(shape)
    return arrays, meta


def drop_retired(saved: dict, retired: dict, what: str) -> dict:
    """``saved`` without its ``retired`` keys, each at the one value it may hold.

    A dict value in ``retired`` lists a nested section's retired keys.
    """
    out = dict(saved)
    for key, value in retired.items():
        if key not in out:
            continue
        if isinstance(value, dict):
            out[key] = drop_retired(out[key], value, f"{what} section {key!r}")
        elif out.pop(key) != value:
            raise CheckpointError(
                f"saved {what} has {key}={saved[key]!r}; this version only supports {value!r}"
            )
    return out


def save_params(path, params) -> None:
    """Persist model parameters with their config in the manifest."""
    from dataclasses import asdict

    meta = {"config": asdict(params.config)}
    save_arrays(path, {k: v.data for k, v in params.tensors.items()}, meta)


def load_params(path):
    """Restore Params; arrays cast to float32."""
    arrays, meta = load_arrays(path)
    if "config" not in meta:
        raise CheckpointError(f"{path}: missing model config metadata")
    return params_from_arrays(path, arrays, meta["config"]), meta


def params_from_arrays(path, arrays: dict[str, np.ndarray], config: dict):
    """Params of the model config ``config`` (a dict) from named arrays.

    The names must be exactly the config's parameter names, apart from the
    retired ``<block>.bk`` of each of the config's attention blocks, which
    is dropped; arrays are cast to float32, the model's parameter dtype.
    """
    from .model import Params, _layer_names, config_from_saved
    from .numerics import autodiff as T

    config = config_from_saved(config)
    expected = {name for name, _ in _layer_names(config)}
    retired = {name[: -len("wk")] + "bk" for name in expected if name.endswith(".wk")}
    tensors = {k: T.Tensor(v.astype(np.float32)) for k, v in arrays.items() if k not in retired}
    if set(tensors) != expected:
        missing = expected - set(tensors)
        surplus = set(tensors) - expected
        raise CheckpointError(
            f"{path}: parameter names do not match config "
            f"(missing {sorted(missing)[:3]}, surplus {sorted(surplus)[:3]})"
        )
    return Params(config, tensors)
