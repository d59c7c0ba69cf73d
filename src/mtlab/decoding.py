"""Autoregressive generation: greedy, ancestral sampling, and beam search.

Generation runs item by item on the calling thread, each item on its own
rng stream, so outputs are independent of batching and partitioning. Pad
and language-tag ids are suppressed from the output distribution; tags are
input-only vocabulary.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import model as M
from .errors import ConfigError, DecodeError
from .numerics import no_grad, rng_fork, sample_categorical
from .tokenizer import EOS_ID, PAD_ID

GREEDY_TEMPERATURE_FLOOR = 1e-4


@dataclass(frozen=True)
class DecodeConfig:
    max_new_tokens: int = 50
    mode: str = "greedy"
    temperature: float = 1.0
    beam_size: int = 4
    length_penalty: float = 1.0

    def __post_init__(self):
        if self.max_new_tokens < 1:
            raise ConfigError("max_new_tokens must be >= 1")
        if self.mode not in ("greedy", "sample", "beam"):
            raise ConfigError(f"unknown decode mode {self.mode!r}")
        if self.mode == "sample" and self.temperature <= 0:
            raise ConfigError("sampling temperature must be > 0")
        if self.beam_size < 1:
            raise ConfigError("beam_size must be >= 1")


@dataclass
class GenerationResult:
    text: str
    token_ids: list[int]
    truncated: bool
    score: float | None = None
    error: str | None = None


def _suppressed_ids(tokenizer) -> list[int]:
    return [PAD_ID] + list(tokenizer.tag_ids)


def _last_logits(params, enc_out, src_mask, dec_ids):
    dec = np.asarray([dec_ids], dtype=np.int64)
    mask = np.ones_like(dec, dtype=bool)
    logits = M.decoder_logits(params, enc_out, src_mask, dec, mask)
    return logits.data[0, -1].astype(np.float64)


def _log_softmax(row: np.ndarray) -> np.ndarray:
    m = row.max()
    shifted = row - m
    return shifted - np.log(np.exp(shifted).sum())


def generate(
    params,
    tokenizer,
    input_text: str,
    config: DecodeConfig = DecodeConfig(),
    rng=None,
) -> GenerationResult:
    """Generate a translation of one tagged input.

    Greedy picks the argmax (ties -> lowest id); sample draws from the
    temperature-scaled softmax (temperatures below 1e-4 collapse to exact
    argmax); beam keeps beam_size hypotheses and returns the best
    length-normalized score. Decoding stops at eos or max_new_tokens;
    hitting the cap flags the result as truncated.
    """
    cfg = params.config
    src = tokenizer.encode(input_text)
    if len(src) > cfg.max_positions:
        raise DecodeError(
            f"input is {len(src)} tokens, exceeding max_positions {cfg.max_positions}"
        )
    if config.mode == "sample" and rng is None:
        raise DecodeError("sampling mode needs an rng")
    src_ids = np.asarray([src], dtype=np.int64)
    src_mask = np.ones_like(src_ids, dtype=bool)
    suppress = _suppressed_ids(tokenizer)
    max_len = min(config.max_new_tokens, cfg.max_positions - 1)
    with no_grad():
        enc_out = M.encode_source(params, src_ids, src_mask)
        if config.mode == "beam":
            ids, score, truncated = _beam_search(
                params, enc_out, src_mask, suppress, config, max_len, cfg.eos_id
            )
        else:
            ids, score, truncated = _step_decode(
                params, enc_out, src_mask, suppress, config, max_len, cfg.eos_id, rng
            )
    return GenerationResult(
        text=tokenizer.decode(ids),
        token_ids=ids,
        truncated=truncated,
        score=score,
    )


def _step_decode(params, enc_out, src_mask, suppress, config, max_len, eos_id, rng):
    dec = [eos_id]
    out: list[int] = []
    logp_total = 0.0
    sample_mode = config.mode == "sample" and config.temperature >= GREEDY_TEMPERATURE_FLOOR
    for _ in range(max_len):
        logits = _last_logits(params, enc_out, src_mask, dec)
        logits[suppress] = -np.inf
        if sample_mode:
            probs = np.exp(_log_softmax(logits / config.temperature))
            probs = probs / probs.sum()
            nxt = sample_categorical(probs, rng)
        else:
            nxt = int(np.argmax(logits))
        logp_total += float(_log_softmax(logits)[nxt])
        dec.append(nxt)
        if nxt == eos_id:
            return out, logp_total, False
        out.append(nxt)
    return out, logp_total, True


def _beam_search(params, enc_out, src_mask, suppress, config, max_len, eos_id):
    # hypotheses: (ids tuple without leading eos, total logp, finished)
    beams = [((), 0.0, False)]
    finished: list[tuple[tuple, float, bool]] = []
    for _ in range(max_len):
        candidates = []
        for ids, logp, done in beams:
            if done:
                continue
            logits = _last_logits(params, enc_out, src_mask, [eos_id, *ids])
            logits[suppress] = -np.inf
            logps = _log_softmax(logits)
            for tok in np.argsort(-logps, kind="stable")[: config.beam_size]:
                tok = int(tok)
                candidates.append((ids + (tok,), logp + float(logps[tok])))
        if not candidates:
            break
        candidates.sort(key=lambda c: (-c[1], c[0]))
        beams = []
        for ids, logp in candidates[: config.beam_size]:
            if ids[-1] == eos_id:
                finished.append((ids, logp, True))
            else:
                beams.append((ids, logp, False))
        if not beams:
            break

    def norm(entry):
        ids, logp, done = entry
        length = max(len(ids), 1)
        return logp / (length**config.length_penalty)

    pool = finished if finished else [(ids, logp, False) for ids, logp, _ in beams]
    best = max(pool, key=norm)
    ids, logp, done = best
    out = list(ids[:-1]) if done else list(ids)
    return out, norm(best), not done


def generate_batch(
    params,
    tokenizer,
    inputs,
    config: DecodeConfig = DecodeConfig(),
    seed: int = 0,
) -> list[GenerationResult]:
    """Elementwise generate() with rng_fork(seed, index) per item.

    Per-item failures land in the result's ``error`` field instead of
    failing the batch; outputs are order-preserving.
    """

    def one(index, text):
        rng = rng_fork(seed, index) if config.mode == "sample" else None
        try:
            return generate(params, tokenizer, text, config, rng=rng)
        except DecodeError as exc:
            return GenerationResult(
                text="", token_ids=[], truncated=False, error=str(exc)
            )

    return [one(index, text) for index, text in enumerate(inputs)]
