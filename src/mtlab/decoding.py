"""Autoregressive generation: greedy, ancestral sampling, and beam search.

One search loop serves every mode. It keeps a list of live hypotheses
(token ids, total log-probability); each step extends every live
hypothesis, keeps the best ``width`` candidates, and moves a candidate
that ends in eos to the finished list. Greedy and sample keep one
hypothesis; beam keeps ``beam_size``. Modes differ only in which next
tokens a step proposes.

A request runs on the calling thread. Its texts are tokenized once, and a
source longer than max_positions gets its error result there, before the
request is sliced, so it takes no slice row. A slice's sources are padded
and run through the encoder once, and each step makes one decoder call
whose rows are every live hypothesis of every item; a row leaves when its
hypothesis ends in eos. Requests with more rows than MAX_ROWS run in
consecutive slices of items, taken in order of source length so that a
slice's items end at similar steps; results come back in caller order.
A sampled item draws from its own rng stream. Batched float32 products
round differently from single-row ones, so token ids do not depend on
batching or partitioning except at ties within float rounding. Pad and
language-tag ids are suppressed from the output distribution; tags are
input-only vocabulary.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import model as M
from .errors import ConfigError, DecodeError
from .numerics import autodiff as T
from .numerics import no_grad, rng_fork, sample_categorical

GREEDY_TEMPERATURE_FLOOR = 1e-4
# Rows of one decoder call. The per-row cost has levelled off by 32 rows;
# the cap bounds the [rows, t, vocab] logits of a large request.
MAX_ROWS = 64


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
        if not math.isfinite(self.temperature):
            raise ConfigError(f"temperature must be finite, got {self.temperature}")
        if self.mode == "sample" and self.temperature <= 0:
            raise ConfigError("sampling temperature must be > 0")
        if not 1 <= self.beam_size <= MAX_ROWS:
            raise ConfigError(f"beam_size must be in [1, {MAX_ROWS}]")


@dataclass
class GenerationResult:
    text: str
    token_ids: list[int]
    truncated: bool
    score: float | None = None
    error: str | None = None


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


def _search(params, tokenizer, srcs, config, rngs) -> list[GenerationResult]:
    """The search over one slice of encoded items that fit max_positions, all
    live rows in one decoder call per step."""
    cfg = params.config
    src_ids = np.full((len(srcs), max(map(len, srcs))), cfg.pad_id, dtype=np.int64)
    for j, src in enumerate(srcs):
        src_ids[j, : len(src)] = src
    src_mask = src_ids != cfg.pad_id
    suppress = [cfg.pad_id, *tokenizer.tag_ids]
    eos = cfg.eos_id
    width = config.beam_size if config.mode == "beam" else 1
    live = [[((), 0.0)] for _ in srcs]  # per item: (token ids, total log-probability)
    finished = [[] for _ in srcs]
    with no_grad():
        enc_out = M.encode_source(params, src_ids, src_mask).data
        for _ in range(min(config.max_new_tokens, cfg.max_positions - 1)):
            owner = [j for j, hyps in enumerate(live) for _ in hyps]
            if not owner:
                break
            dec = np.asarray([[eos, *ids] for hyps in live for ids, _ in hyps], dtype=np.int64)
            out = M.decoder_logits(params, T.Tensor(enc_out[owner]), src_mask[owner], dec)
            logits = out.data[:, -1].astype(np.float64)
            logits[:, suppress] = -np.inf
            row = 0
            for j, hyps in enumerate(live):
                if not hyps:
                    continue
                candidates = []
                for ids, logp in hyps:
                    logps = _log_softmax(logits[row])
                    for tok in map(int, _next_tokens(logits[row], logps, config, rngs[j])):
                        candidates.append((ids + (tok,), logp + float(logps[tok])))
                    row += 1
                candidates.sort(key=lambda c: (-c[1], c[0]))
                live[j] = []
                for hyp in candidates[:width]:
                    (finished[j] if hyp[0][-1] == eos else live[j]).append(hyp)
    results = []
    for done, hyps in zip(finished, live):
        best = max(done or hyps, key=_per_token)
        ids = list(best[0][:-1] if done else best[0])
        results.append(GenerationResult(text=tokenizer.decode(ids), token_ids=ids,
                                        truncated=not done, score=_per_token(best)))
    return results


def generate(params, tokenizer, input_text, config: DecodeConfig = DecodeConfig(), rng=None):
    """Generate a translation of one tagged input, or of a list of them.

    Each step, greedy proposes the argmax (ties -> lowest id); sample one
    draw from the temperature-scaled softmax (temperatures below 1e-4
    collapse to exact argmax); beam each hypothesis's beam_size best tokens.
    Decoding stops at eos or max_new_tokens; hitting the cap flags the
    result as truncated. The result is the finished hypothesis (the live
    one if none finished) with the best ``score``: its untempered
    log-probability per decoded token, eos included.

    One text (with one rng in sample mode) gives one result and raises
    DecodeError if it cannot be decoded. A list of texts (with a list of
    one rng per text in sample mode) gives a list of results in order; an
    item that cannot be decoded gets a result with ``error`` set. Token
    ids do not depend on batching or partitioning, except at ties within
    float rounding.
    """
    single = isinstance(input_text, str)
    texts = [input_text] if single else list(input_text)
    rngs = [rng] if single else list(rng or [None] * len(texts))
    if config.mode == "sample" and None in rngs:
        raise DecodeError("sampling mode needs an rng")
    if len(rngs) != len(texts):
        raise DecodeError(f"{len(texts)} inputs but {len(rngs)} rngs")
    per_slice = MAX_ROWS // (config.beam_size if config.mode == "beam" else 1)
    srcs = [tokenizer.encode(text) for text in texts]
    limit = params.config.max_positions
    results = [
        GenerationResult(text="", token_ids=[], truncated=False,
                         error=f"input is {len(src)} tokens, exceeding max_positions {limit}")
        if len(src) > limit else None
        for src in srcs
    ]
    order = [i for i, result in enumerate(results) if result is None]
    if len(order) > per_slice:  # slices of similar lengths finish together
        order.sort(key=lambda i: len(srcs[i]))
    for start in range(0, len(order), per_slice):
        part = order[start : start + per_slice]
        found = _search(params, tokenizer, [srcs[i] for i in part], config, [rngs[i] for i in part])
        for i, result in zip(part, found):
            results[i] = result
    if single and results[0].error:
        raise DecodeError(results[0].error)
    return results[0] if single else results


def generate_batch(
    params,
    tokenizer,
    inputs,
    config: DecodeConfig = DecodeConfig(),
    seed: int = 0,
) -> list[GenerationResult]:
    """generate() on a list of inputs, with rng_fork(seed, index) per item.

    Per-item failures land in the result's ``error`` field instead of
    failing the batch; outputs are order-preserving.
    """
    inputs = list(inputs)
    rngs = [rng_fork(seed, i) for i in range(len(inputs))] if config.mode == "sample" else None
    return generate(params, tokenizer, inputs, config, rng=rngs)
