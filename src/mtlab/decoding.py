"""Autoregressive generation: greedy, ancestral sampling, and beam search.

One search loop serves every mode. It keeps a list of live hypotheses
(token ids, total log-probability); each step extends every live
hypothesis, keeps the best ``width`` candidates, and moves a candidate
that ends in eos to the finished list. Greedy and sample keep one
hypothesis; beam keeps ``beam_size``. Modes differ only in which next
tokens a step proposes.

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
from .tokenizer import PAD_ID

GREEDY_TEMPERATURE_FLOOR = 1e-4


@dataclass(frozen=True)
class DecodeConfig:
    max_new_tokens: int = 50
    mode: str = "greedy"
    temperature: float = 1.0
    beam_size: int = 4

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


def _last_logits(params, enc_out, src_mask, dec_ids):
    dec = np.asarray([dec_ids], dtype=np.int64)
    mask = np.ones_like(dec, dtype=bool)
    logits = M.decoder_logits(params, enc_out, src_mask, dec, mask)
    return logits.data[0, -1].astype(np.float64)


def _log_softmax(row: np.ndarray) -> np.ndarray:
    m = row.max()
    shifted = row - m
    return shifted - np.log(np.exp(shifted).sum())


def _next_tokens(logits, logps, config, rng):
    """The tokens one step proposes to extend a hypothesis with."""
    if config.mode == "beam":
        return np.argsort(-logps, kind="stable")[: config.beam_size]
    if config.mode == "sample" and config.temperature >= GREEDY_TEMPERATURE_FLOOR:
        probs = np.exp(_log_softmax(logits / config.temperature))
        return [sample_categorical(probs / probs.sum(), rng)]
    return [np.argmax(logits)]


def _per_token(hypothesis) -> float:
    return hypothesis[1] / max(len(hypothesis[0]), 1)


def generate(
    params,
    tokenizer,
    input_text: str,
    config: DecodeConfig = DecodeConfig(),
    rng=None,
) -> GenerationResult:
    """Generate a translation of one tagged input.

    Each step, greedy proposes the argmax (ties -> lowest id); sample one
    draw from the temperature-scaled softmax (temperatures below 1e-4
    collapse to exact argmax); beam each hypothesis's beam_size best tokens.
    Decoding stops at eos or max_new_tokens; hitting the cap flags the
    result as truncated. The result is the finished hypothesis (the live
    one if none finished) with the best ``score``: its untempered
    log-probability per decoded token, eos included.
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
    suppress = [PAD_ID, *tokenizer.tag_ids]
    eos = cfg.eos_id
    width = config.beam_size if config.mode == "beam" else 1
    live = [((), 0.0)]  # (token ids, total log-probability)
    finished = []
    with no_grad():
        enc_out = M.encode_source(params, src_ids, src_mask)
        for _ in range(min(config.max_new_tokens, cfg.max_positions - 1)):
            candidates = []
            for ids, logp in live:
                logits = _last_logits(params, enc_out, src_mask, [eos, *ids])
                logits[suppress] = -np.inf
                logps = _log_softmax(logits)
                for tok in map(int, _next_tokens(logits, logps, config, rng)):
                    candidates.append((ids + (tok,), logp + float(logps[tok])))
            candidates.sort(key=lambda c: (-c[1], c[0]))
            live = []
            for hyp in candidates[:width]:
                (finished if hyp[0][-1] == eos else live).append(hyp)
            if not live:
                break
    best = max(finished or live, key=_per_token)
    ids = list(best[0][:-1] if finished else best[0])
    return GenerationResult(
        text=tokenizer.decode(ids),
        token_ids=ids,
        truncated=not finished,
        score=_per_token(best),
    )


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
