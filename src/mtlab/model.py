"""Compact transformer encoder-decoder trained with teacher forcing.

Pre-layer-norm residual blocks, learned absolute positions, tied input and
output embeddings by default. The decoder starts from the eos token and
predicts the target sequence; loss is the mean token cross entropy over
non-pad target positions.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, ShapeError
from .numerics import rng_fork
from .numerics import autodiff as T

NEG_INF = -np.inf


@dataclass(frozen=True)
class ModelConfig:
    vocab_size: int = 0  # 0 means "take it from the tokenizer at run start"
    d_model: int = 128
    n_heads: int = 4
    n_enc_layers: int = 2
    n_dec_layers: int = 2
    d_ff: int = 256
    max_positions: int = 64
    dropout: float = 0.1
    tie_embeddings: bool = True
    activation: str = "gelu"
    label_smoothing: float = 0.0
    layer_norm_eps: float = 1e-5
    pad_id: int = 0
    eos_id: int = 1

    def validate(self) -> None:
        if self.vocab_size < 4:
            raise ConfigError(f"vocab_size {self.vocab_size} is too small")
        if self.d_model % self.n_heads != 0:
            raise ConfigError(
                f"d_model {self.d_model} not divisible by n_heads {self.n_heads}"
            )
        if self.activation not in ("gelu", "relu"):
            raise ConfigError(f"unknown activation {self.activation!r}")
        if not 0.0 <= self.dropout < 1.0:
            raise ConfigError(f"dropout must be in [0, 1), got {self.dropout}")
        if self.max_positions < 2:
            raise ConfigError("max_positions must be at least 2")


class Params:
    """Named parameter tensors plus the config they were built for."""

    def __init__(self, config: ModelConfig, tensors: dict[str, T.Tensor]):
        self.config = config
        self.tensors = tensors

    def __getitem__(self, name: str) -> T.Tensor:
        return self.tensors[name]

    def __contains__(self, name: str) -> bool:
        return name in self.tensors

    def names(self) -> list[str]:
        return list(self.tensors)

    def copy(self) -> "Params":
        return Params(
            self.config,
            {k: T.Tensor(v.data.copy()) for k, v in self.tensors.items()},
        )

    def astype(self, dtype) -> "Params":
        return Params(
            self.config,
            {k: T.Tensor(v.data.astype(dtype)) for k, v in self.tensors.items()},
        )


def _layer_names(config: ModelConfig):
    names: list[tuple[str, tuple[int, ...]]] = []
    d, ff = config.d_model, config.d_ff

    def attn(prefix):
        for p in ("wq", "wk", "wv", "wo"):
            names.append((f"{prefix}.{p}", (d, d)))
        for p in ("bq", "bk", "bv", "bo"):
            names.append((f"{prefix}.{p}", (d,)))

    def ln(prefix):
        names.append((f"{prefix}.g", (d,)))
        names.append((f"{prefix}.b", (d,)))

    def ffn(prefix):
        names.append((f"{prefix}.w1", (d, ff)))
        names.append((f"{prefix}.b1", (ff,)))
        names.append((f"{prefix}.w2", (ff, d)))
        names.append((f"{prefix}.b2", (d,)))

    names.append(("embed", (config.vocab_size, d)))
    names.append(("pos_enc", (config.max_positions, d)))
    names.append(("pos_dec", (config.max_positions, d)))
    for i in range(config.n_enc_layers):
        ln(f"enc{i}.ln1")
        attn(f"enc{i}.attn")
        ln(f"enc{i}.ln2")
        ffn(f"enc{i}.ffn")
    ln("enc_final_ln")
    for i in range(config.n_dec_layers):
        ln(f"dec{i}.ln1")
        attn(f"dec{i}.self_attn")
        ln(f"dec{i}.ln2")
        attn(f"dec{i}.cross_attn")
        ln(f"dec{i}.ln3")
        ffn(f"dec{i}.ffn")
    ln("dec_final_ln")
    if not config.tie_embeddings:
        names.append(("out_proj", (d, config.vocab_size)))
    return names


def init(config: ModelConfig, seed: int) -> Params:
    """Initialize parameters: N(0, 0.02) weights, unit gains, zero biases."""
    config.validate()
    rng = rng_fork(seed, "model-init")
    dtype = T.default_dtype()
    tensors: dict[str, T.Tensor] = {}
    for name, shape in _layer_names(config):
        leaf = name.split(".")[-1]
        if leaf == "g":
            data = np.ones(shape, dtype=dtype)
        elif leaf.startswith("b"):
            data = np.zeros(shape, dtype=dtype)
        else:
            data = rng.normal(0.0, 0.02, size=shape).astype(dtype)
        tensors[name] = T.Tensor(data)
    return Params(config, tensors)


@dataclass
class Batch:
    """Padded id matrices with boolean masks (True at real tokens)."""

    src_ids: np.ndarray
    tgt_ids: np.ndarray
    src_mask: np.ndarray
    tgt_mask: np.ndarray


def make_batch(src_id_seqs, tgt_id_seqs, pad_id: int) -> Batch:
    if len(src_id_seqs) != len(tgt_id_seqs) or not src_id_seqs:
        raise ShapeError("make_batch needs equally many non-empty src/tgt sequences")
    b = len(src_id_seqs)
    ts = max(len(s) for s in src_id_seqs)
    tt = max(len(t) for t in tgt_id_seqs)
    src = np.full((b, ts), pad_id, dtype=np.int64)
    tgt = np.full((b, tt), pad_id, dtype=np.int64)
    for i, (s, t) in enumerate(zip(src_id_seqs, tgt_id_seqs)):
        src[i, : len(s)] = s
        tgt[i, : len(t)] = t
    return Batch(src, tgt, src != pad_id, tgt != pad_id)


def shift_right(tgt_ids: np.ndarray, eos_id: int) -> np.ndarray:
    """Decoder input: eos then the target shifted one position right."""
    out = np.empty_like(tgt_ids)
    out[:, 0] = eos_id
    out[:, 1:] = tgt_ids[:, :-1]
    return out


def _key_bias(mask: np.ndarray, dtype) -> np.ndarray:
    # [B, Tk] bool -> additive [B, 1, 1, Tk]: 0 at real keys, -inf at pad.
    bias = np.where(mask, 0.0, NEG_INF).astype(dtype)
    return bias[:, None, None, :]


def _causal_bias(t: int, dtype) -> np.ndarray:
    bias = np.where(np.tril(np.ones((t, t), dtype=bool)), 0.0, NEG_INF).astype(dtype)
    return bias[None, None, :, :]


def _split_heads(x: T.Tensor, n_heads: int) -> T.Tensor:
    b, t, d = x.shape
    x = T.reshape(x, (b, t, n_heads, d // n_heads))
    return T.transpose(x, (0, 2, 1, 3))


def _merge_heads(x: T.Tensor) -> T.Tensor:
    b, h, t, dh = x.shape
    x = T.transpose(x, (0, 2, 1, 3))
    return T.reshape(x, (b, t, h * dh))


def _attention(params, prefix, q_in, kv_in, bias, n_heads):
    q = T.add(T.matmul(q_in, params[f"{prefix}.wq"]), params[f"{prefix}.bq"])
    k = T.add(T.matmul(kv_in, params[f"{prefix}.wk"]), params[f"{prefix}.bk"])
    v = T.add(T.matmul(kv_in, params[f"{prefix}.wv"]), params[f"{prefix}.bv"])
    qh = _split_heads(q, n_heads)
    kh = _split_heads(k, n_heads)
    vh = _split_heads(v, n_heads)
    dh = qh.shape[-1]
    scores = T.scale(T.matmul(qh, T.transpose(kh, (0, 1, 3, 2))), 1.0 / math.sqrt(dh))
    scores = T.add(scores, T.Tensor(bias))
    ctx = T.matmul(T.softmax(scores, axis=-1), vh)
    merged = _merge_heads(ctx)
    return T.add(T.matmul(merged, params[f"{prefix}.wo"]), params[f"{prefix}.bo"])


def _ln(params, prefix, x, eps):
    return T.add(T.mul(T.layer_norm(x, eps), params[f"{prefix}.g"]), params[f"{prefix}.b"])


def _ffn(params, prefix, x, activation):
    h = T.add(T.matmul(x, params[f"{prefix}.w1"]), params[f"{prefix}.b1"])
    h = T.gelu(h) if activation == "gelu" else T.relu(h)
    return T.add(T.matmul(h, params[f"{prefix}.w2"]), params[f"{prefix}.b2"])


def _embed(params, table_name, ids, dropout_p, rng):
    t = ids.shape[1]
    tok = T.embedding_lookup(params["embed"], ids)
    pos = T.embedding_lookup(params[table_name], np.arange(t))
    x = T.add(tok, pos)
    if rng is not None and dropout_p > 0.0:
        x = T.dropout(x, dropout_p, rng)
    return x


def encode_source(params: Params, src_ids: np.ndarray, src_mask: np.ndarray, dropout_rng=None):
    """Run the encoder stack; returns the final-norm encoder states."""
    cfg = params.config
    _check_len(cfg, src_ids.shape[1], "source")
    p = cfg.dropout if dropout_rng is not None else 0.0
    x = _embed(params, "pos_enc", src_ids, p, dropout_rng)
    bias = _key_bias(src_mask, x.dtype)
    for i in range(cfg.n_enc_layers):
        h = _ln(params, f"enc{i}.ln1", x, cfg.layer_norm_eps)
        a = _attention(params, f"enc{i}.attn", h, h, bias, cfg.n_heads)
        if dropout_rng is not None and p > 0.0:
            a = T.dropout(a, p, dropout_rng)
        x = T.add(x, a)
        h = _ln(params, f"enc{i}.ln2", x, cfg.layer_norm_eps)
        f = _ffn(params, f"enc{i}.ffn", h, cfg.activation)
        if dropout_rng is not None and p > 0.0:
            f = T.dropout(f, p, dropout_rng)
        x = T.add(x, f)
    return _ln(params, "enc_final_ln", x, cfg.layer_norm_eps)


def decoder_logits(
    params: Params,
    enc_out: T.Tensor,
    src_mask: np.ndarray,
    dec_in_ids: np.ndarray,
    dec_in_mask: np.ndarray,
    dropout_rng=None,
) -> T.Tensor:
    """Causally masked decoder over shifted target input ids."""
    cfg = params.config
    _check_len(cfg, dec_in_ids.shape[1], "target")
    p = cfg.dropout if dropout_rng is not None else 0.0
    x = _embed(params, "pos_dec", dec_in_ids, p, dropout_rng)
    tt = dec_in_ids.shape[1]
    self_bias = _causal_bias(tt, x.dtype) + _key_bias(dec_in_mask, x.dtype)
    cross_bias = _key_bias(src_mask, x.dtype)
    for i in range(cfg.n_dec_layers):
        h = _ln(params, f"dec{i}.ln1", x, cfg.layer_norm_eps)
        a = _attention(params, f"dec{i}.self_attn", h, h, self_bias, cfg.n_heads)
        if dropout_rng is not None and p > 0.0:
            a = T.dropout(a, p, dropout_rng)
        x = T.add(x, a)
        h = _ln(params, f"dec{i}.ln2", x, cfg.layer_norm_eps)
        a = _attention(params, f"dec{i}.cross_attn", h, enc_out, cross_bias, cfg.n_heads)
        if dropout_rng is not None and p > 0.0:
            a = T.dropout(a, p, dropout_rng)
        x = T.add(x, a)
        h = _ln(params, f"dec{i}.ln3", x, cfg.layer_norm_eps)
        f = _ffn(params, f"dec{i}.ffn", h, cfg.activation)
        if dropout_rng is not None and p > 0.0:
            f = T.dropout(f, p, dropout_rng)
        x = T.add(x, f)
    x = _ln(params, "dec_final_ln", x, cfg.layer_norm_eps)
    if cfg.tie_embeddings:
        logits = T.matmul(x, T.transpose(params["embed"], (1, 0)))
    else:
        logits = T.matmul(x, params["out_proj"])
    return logits


def forward_logits(params: Params, batch: Batch, dropout_rng=None) -> T.Tensor:
    """Logits [B, Tt, V] for a teacher-forced batch."""
    cfg = params.config
    _check_ids(cfg, batch.src_ids)
    _check_ids(cfg, batch.tgt_ids)
    enc = encode_source(params, batch.src_ids, batch.src_mask, dropout_rng)
    dec_in = shift_right(batch.tgt_ids, cfg.eos_id)
    dec_in_mask = np.concatenate(
        [np.ones((batch.tgt_ids.shape[0], 1), dtype=bool), batch.tgt_mask[:, :-1]], axis=1
    )
    return decoder_logits(params, enc, batch.src_mask, dec_in, dec_in_mask, dropout_rng)


def loss_teacher_forcing(params: Params, batch: Batch, dropout_rng=None) -> T.Tensor:
    """Mean token cross entropy over non-pad target positions."""
    if not batch.tgt_mask.any():
        raise ShapeError("loss_teacher_forcing: batch target is all padding")
    logits = forward_logits(params, batch, dropout_rng)
    return T.cross_entropy(
        logits, batch.tgt_ids, params.config.pad_id, params.config.label_smoothing
    )


def _check_len(cfg: ModelConfig, length: int, side: str) -> None:
    if length > cfg.max_positions:
        raise ShapeError(
            f"{side} length {length} exceeds max_positions {cfg.max_positions}"
        )


def _check_ids(cfg: ModelConfig, ids: np.ndarray) -> None:
    if ids.size and (ids.min() < 0 or ids.max() >= cfg.vocab_size):
        raise ShapeError(f"token id out of range [0, {cfg.vocab_size})")
