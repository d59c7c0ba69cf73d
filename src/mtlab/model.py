"""Compact transformer encoder-decoder trained with teacher forcing.

Pre-layer-norm residual blocks, learned absolute positions, a GeLU
feed-forward layer, and tied embeddings: the output projection is the
transposed input embedding. Each layer norm is one ``layer_norm`` node
with its gain and bias. Attention projects keys without a bias: a key bias
adds the same ``q . bk`` to all of a query's scores, which softmax ignores,
so the loss would not depend on it. Parameters are float32 (``checkpoint``
casts loaded ones to float32); every op computes in its inputs' dtype. Pad
and eos ids are the tokenizer's. The decoder starts from the eos token and
predicts the target sequence; loss is the mean token cross entropy over
non-pad target positions.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .checkpoint import drop_retired
from .errors import CheckpointError, ConfigError, ShapeError
from .numerics import rng_fork
from .numerics import autodiff as T
from .tokenizer import EOS_ID, PAD_ID

NEG_INF = -np.inf


@dataclass(frozen=True)
class ModelConfig:
    """Model shape and dropout, checked when built. ``vocab_size`` 0 means the
    tokenizer's size: ``run_experiment`` fills it in, and ``init`` refuses 0."""

    vocab_size: int = 0
    d_model: int = 128
    n_heads: int = 4
    n_enc_layers: int = 2
    n_dec_layers: int = 2
    d_ff: int = 256
    max_positions: int = 64
    dropout: float = 0.1
    # Class constants, not fields: the ids are the tokenizer's.
    pad_id = PAD_ID
    eos_id = EOS_ID

    def __post_init__(self):
        if self.vocab_size != 0 and self.vocab_size < 4:
            raise ConfigError(f"vocab_size {self.vocab_size} is too small")
        for name in ("d_model", "n_heads", "d_ff", "n_enc_layers", "n_dec_layers"):
            if getattr(self, name) < 1:
                raise ConfigError(f"{name} must be >= 1, got {getattr(self, name)}")
        if self.d_model % self.n_heads != 0:
            raise ConfigError(
                f"d_model {self.d_model} not divisible by n_heads {self.n_heads}"
            )
        if self.max_positions < 2:
            raise ConfigError(f"max_positions must be at least 2, got {self.max_positions}")
        if not 0.0 <= self.dropout < 1.0:
            raise ConfigError(f"dropout must be in [0, 1), got {self.dropout}")


# Keys that configs saved by earlier versions carry, with the one value each
# may hold: the layout this model always has.
RETIRED_KEYS = {
    "tie_embeddings": True,
    "activation": "gelu",
    "label_smoothing": 0.0,
    "layer_norm_eps": 1e-5,
    "pad_id": PAD_ID,
    "eos_id": EOS_ID,
}


def config_from_saved(saved: dict) -> ModelConfig:
    """The ModelConfig of a saved config dict; see ``checkpoint.drop_retired``."""
    try:
        return ModelConfig(**drop_retired(saved, RETIRED_KEYS, "model config"))
    except (TypeError, ConfigError) as exc:
        raise CheckpointError(f"saved model config does not fit ModelConfig: {exc}") from None


class Params:
    """Named parameter tensors plus the config they were built for.

    The tensors live in one contiguous buffer ``flat`` of their one dtype:
    first the weight matrices (every tensor of two or more axes, which
    AdamW decays), then the vectors; ``n_decayed`` is the length of the
    first part. Building a Params packs the given tensors into a new buffer
    and makes each one's ``data`` a view into it, so an in-place update of
    ``flat`` is an update of every tensor. ``tensors`` keeps the names in
    the order given, which is the order checkpoints store them in.
    """

    def __init__(self, config: ModelConfig, tensors: dict[str, T.Tensor]):
        dtypes = {t.dtype for t in tensors.values()}
        if len(dtypes) > 1:
            raise ShapeError(f"parameter tensors mix dtypes {sorted(map(str, dtypes))}")
        self.config = config
        self.tensors = tensors
        order = sorted(tensors, key=lambda k: tensors[k].ndim < 2)  # stable: dict order within
        self._spans, start = {}, 0
        for name in order:
            self._spans[name] = (start, start + tensors[name].size)
            start += tensors[name].size
        self.n_decayed = sum(t.size for t in tensors.values() if t.ndim >= 2)
        self.flat = np.empty(start, dtype=dtypes.pop() if dtypes else np.float32)
        for name, view in self.views(self.flat).items():
            view[...] = tensors[name].data
            tensors[name].data = view

    def __getitem__(self, name: str) -> T.Tensor:
        return self.tensors[name]

    def views(self, buffer: np.ndarray) -> dict[str, np.ndarray]:
        """Name -> view of ``buffer`` (laid out like ``flat``) in the tensor's shape."""
        return {
            name: buffer[slice(*self._spans[name])].reshape(t.shape)
            for name, t in self.tensors.items()
        }

    def flat_grad(self, grads: dict[T.Tensor, np.ndarray]) -> np.ndarray:
        """``backward``'s gradients of these tensors as one float64 vector laid out like ``flat``."""
        return np.concatenate(
            [grads[self.tensors[name]].reshape(-1) for name in self._spans], dtype=np.float64
        )

    def copy(self) -> "Params":
        """Params on a new buffer: one copy of the data."""
        return Params(self.config, {k: T.Tensor(t.data) for k, t in self.tensors.items()})


def _layer_names(config: ModelConfig):
    names: list[tuple[str, tuple[int, ...]]] = []
    d, ff = config.d_model, config.d_ff

    def attn(prefix):
        for p in ("wq", "wk", "wv", "wo"):
            names.append((f"{prefix}.{p}", (d, d)))
        for p in ("bq", "bv", "bo"):
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
    return names


def init(config: ModelConfig, seed: int) -> Params:
    """Initialize float32 parameters: N(0, 0.02) weights, unit gains, zero biases."""
    if config.vocab_size == 0:
        raise ConfigError("vocab_size 0 (the tokenizer's size) must be resolved before init")
    rng = rng_fork(seed, "model-init")
    tensors: dict[str, T.Tensor] = {}
    for name, shape in _layer_names(config):
        leaf = name.split(".")[-1]
        if leaf == "g":
            data = np.ones(shape, dtype=np.float32)
        elif leaf.startswith("b"):
            data = np.zeros(shape, dtype=np.float32)
        else:
            data = rng.normal(0.0, 0.02, size=shape).astype(np.float32)
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
    k = T.matmul(kv_in, params[f"{prefix}.wk"])
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


def _ln(params, prefix, x):
    return T.layer_norm(x, params[f"{prefix}.g"], params[f"{prefix}.b"])


def _ffn(params, prefix, x):
    h = T.gelu(T.add(T.matmul(x, params[f"{prefix}.w1"]), params[f"{prefix}.b1"]))
    return T.add(T.matmul(h, params[f"{prefix}.w2"]), params[f"{prefix}.b2"])


def _embed(params, table_name, ids, dropout_p, rng):
    t = ids.shape[1]
    tok = T.embedding_lookup(params["embed"], ids)
    pos = T.embedding_lookup(params[table_name], np.arange(t))
    return T.dropout(T.add(tok, pos), dropout_p, rng)


def encode_source(params: Params, src_ids: np.ndarray, src_mask: np.ndarray, dropout_rng=None):
    """Run the encoder stack; returns the final-norm encoder states."""
    cfg = params.config
    _check_len(cfg, src_ids.shape[1], "source")
    p = cfg.dropout if dropout_rng is not None else 0.0
    x = _embed(params, "pos_enc", src_ids, p, dropout_rng)
    bias = _key_bias(src_mask, x.dtype)
    for i in range(cfg.n_enc_layers):
        h = _ln(params, f"enc{i}.ln1", x)
        a = _attention(params, f"enc{i}.attn", h, h, bias, cfg.n_heads)
        x = T.add(x, T.dropout(a, p, dropout_rng))
        h = _ln(params, f"enc{i}.ln2", x)
        x = T.add(x, T.dropout(_ffn(params, f"enc{i}.ffn", h), p, dropout_rng))
    return _ln(params, "enc_final_ln", x)


def decoder_logits(
    params: Params,
    enc_out: T.Tensor,
    src_mask: np.ndarray,
    dec_in_ids: np.ndarray,
    dropout_rng=None,
) -> T.Tensor:
    """Causally masked decoder over shifted target input ids.

    Only the causal mask applies to the decoder's own keys. That is exact
    for right-padded targets: a real query position sees only earlier
    positions, which are real, and padded query positions carry no loss.
    """
    cfg = params.config
    _check_len(cfg, dec_in_ids.shape[1], "target")
    p = cfg.dropout if dropout_rng is not None else 0.0
    x = _embed(params, "pos_dec", dec_in_ids, p, dropout_rng)
    self_bias = _causal_bias(dec_in_ids.shape[1], x.dtype)
    cross_bias = _key_bias(src_mask, x.dtype)
    for i in range(cfg.n_dec_layers):
        h = _ln(params, f"dec{i}.ln1", x)
        a = _attention(params, f"dec{i}.self_attn", h, h, self_bias, cfg.n_heads)
        x = T.add(x, T.dropout(a, p, dropout_rng))
        h = _ln(params, f"dec{i}.ln2", x)
        a = _attention(params, f"dec{i}.cross_attn", h, enc_out, cross_bias, cfg.n_heads)
        x = T.add(x, T.dropout(a, p, dropout_rng))
        h = _ln(params, f"dec{i}.ln3", x)
        x = T.add(x, T.dropout(_ffn(params, f"dec{i}.ffn", h), p, dropout_rng))
    x = _ln(params, "dec_final_ln", x)
    return T.matmul(x, T.transpose(params["embed"], (1, 0)))


def forward_logits(params: Params, batch: Batch, dropout_rng=None) -> T.Tensor:
    """Logits [B, Tt, V] for a teacher-forced batch."""
    cfg = params.config
    _check_ids(cfg, batch.src_ids)
    _check_ids(cfg, batch.tgt_ids)
    enc = encode_source(params, batch.src_ids, batch.src_mask, dropout_rng)
    dec_in = shift_right(batch.tgt_ids, cfg.eos_id)
    return decoder_logits(params, enc, batch.src_mask, dec_in, dropout_rng)


def loss_teacher_forcing(params: Params, batch: Batch, dropout_rng=None) -> T.Tensor:
    """Mean token cross entropy over non-pad target positions."""
    if not batch.tgt_mask.any():
        raise ShapeError("loss_teacher_forcing: batch target is all padding")
    logits = forward_logits(params, batch, dropout_rng)
    return T.cross_entropy(logits, batch.tgt_ids, params.config.pad_id)


def _check_len(cfg: ModelConfig, length: int, side: str) -> None:
    if length > cfg.max_positions:
        raise ShapeError(
            f"{side} length {length} exceeds max_positions {cfg.max_positions}"
        )


def _check_ids(cfg: ModelConfig, ids: np.ndarray) -> None:
    if ids.size and (ids.min() < 0 or ids.max() >= cfg.vocab_size):
        raise ShapeError(f"token id out of range [0, {cfg.vocab_size})")
