"""Corpus-level translation metrics and per-direction evaluation reports.

BLEU uses modified n-gram precisions with exponential smoothing (a factor
that doubles at each all-miss order) and skips orders with no candidate
n-grams. chrF is the character n-gram F-score with corpus-aggregated
statistics. TER counts word edits plus greedy block shifts against the
reference length.

The "sp" variants (spBLEU, spCHRF, spTER) run the same metrics over
subword pieces from the shared evaluation tokenizer; chrF and TER on raw
text stay available under their own names.
"""

from __future__ import annotations

import json
import math
from collections import Counter
from dataclasses import dataclass, field

import numpy as np

from . import kernels
from .errors import MetricError

BLEU_MAX_N = 4
CHRF_ORDER = 6
CHRF_BETA = 2.0
TER_MAX_SHIFT = 10


def _ngrams(tokens, n: int) -> Counter:
    return Counter(tuple(tokens[i : i + n]) for i in range(len(tokens) - n + 1))


def bleu(hyps, refs, max_n: int = BLEU_MAX_N) -> float:
    """Corpus BLEU over pre-tokenized segments, 0-100.

    Exponential smoothing: a factor s starts at 1; an order with zero
    matches but a nonzero candidate count sets s <- 2s and scores
    1/(s * total_n). Orders with zero candidate n-grams drop out of the
    geometric mean. Brevity penalty exp(1 - r/c) applies when c < r.
    """
    if len(hyps) != len(refs):
        raise MetricError(f"got {len(hyps)} hypotheses for {len(refs)} references")
    if not hyps:
        raise MetricError("need at least one segment")
    matches = [0] * max_n
    totals = [0] * max_n
    hyp_len = 0
    ref_len = 0
    for hyp, ref in zip(hyps, refs):
        hyp = list(hyp)
        ref = list(ref)
        hyp_len += len(hyp)
        ref_len += len(ref)
        for n in range(1, max_n + 1):
            hyp_ngrams = _ngrams(hyp, n)
            if not hyp_ngrams:
                continue
            ref_ngrams = _ngrams(ref, n)
            totals[n - 1] += sum(hyp_ngrams.values())
            matches[n - 1] += sum((hyp_ngrams & ref_ngrams).values())
    if hyp_len == 0:
        return 0.0
    smooth = 1.0
    log_sum = 0.0
    orders = 0
    for n in range(max_n):
        if totals[n] == 0:
            continue
        orders += 1
        if matches[n] == 0:
            smooth *= 2.0
            p = 1.0 / (smooth * totals[n])
        else:
            p = matches[n] / totals[n]
        log_sum += math.log(p)
    if orders == 0:
        return 0.0
    bp = 1.0 if hyp_len >= ref_len else math.exp(1.0 - ref_len / hyp_len)
    return 100.0 * bp * math.exp(log_sum / orders)


def spbleu(hyps_text, refs_text, subword_model) -> float:
    """BLEU over subword pieces of the shared evaluation tokenizer."""
    return bleu(
        [subword_model.encode_pieces(h) for h in hyps_text],
        [subword_model.encode_pieces(r) for r in refs_text],
    )


def chrf(hyps_text, refs_text, n: int = CHRF_ORDER, beta: float = CHRF_BETA) -> float:
    """Character n-gram F-score on whitespace-stripped text, 0-100.

    Precision and recall are corpus totals per order, averaged over orders
    where both sides have n-grams, then combined with weight beta on
    recall.
    """
    if len(hyps_text) != len(refs_text):
        raise MetricError(f"got {len(hyps_text)} hypotheses for {len(refs_text)} references")
    if not hyps_text:
        raise MetricError("need at least one segment")
    stats = [[0, 0, 0] for _ in range(n)]  # hyp total, ref total, matches
    for hyp, ref in zip(hyps_text, refs_text):
        h = "".join(hyp.split())
        r = "".join(ref.split())
        for order in range(1, n + 1):
            hn = _ngrams(h, order)
            rn = _ngrams(r, order)
            stats[order - 1][0] += sum(hn.values())
            stats[order - 1][1] += sum(rn.values())
            stats[order - 1][2] += sum((hn & rn).values())
    precision = 0.0
    recall = 0.0
    effective = 0
    for hyp_total, ref_total, match in stats:
        if hyp_total > 0 and ref_total > 0:
            precision += match / hyp_total
            recall += match / ref_total
            effective += 1
    if effective == 0:
        return 0.0
    precision /= effective
    recall /= effective
    if precision + recall == 0.0:
        return 0.0
    b2 = beta * beta
    return 100.0 * (1 + b2) * precision * recall / (b2 * precision + recall)


def spchrf(hyps_text, refs_text, subword_model) -> float:
    """chrF over the piece rendering of the evaluation tokenizer."""
    return chrf(
        [" ".join(subword_model.encode_pieces(h)) for h in hyps_text],
        [" ".join(subword_model.encode_pieces(r)) for r in refs_text],
    )


# ---------------------------------------------------------------------------
# TER
# ---------------------------------------------------------------------------

def _edit_distance(hyp_ids, ref_ids) -> int:
    return int(
        kernels.levenshtein(
            np.asarray(hyp_ids, dtype=np.int64), np.asarray(ref_ids, dtype=np.int64)
        )
    )


def _ref_spans(ref_ids) -> set[tuple]:
    spans = set()
    for length in range(1, min(TER_MAX_SHIFT, len(ref_ids)) + 1):
        for i in range(len(ref_ids) - length + 1):
            spans.add(tuple(ref_ids[i : i + length]))
    return spans


def _segment_edits(hyp_ids: list[int], ref_ids: list[int]) -> int:
    """Edits for one segment: greedy best-improvement block shifts, then
    word-level edit distance. Each applied shift costs one edit.

    A shiftable block must exactly match a contiguous reference
    subsequence and be at most TER_MAX_SHIFT words long.
    """
    allowed = _ref_spans(ref_ids)
    shifts = 0
    current = list(hyp_ids)
    dist = _edit_distance(current, ref_ids)
    while dist > 0:
        best = None
        for start in range(len(current)):
            for length in range(1, min(TER_MAX_SHIFT, len(current) - start) + 1):
                block = tuple(current[start : start + length])
                if block not in allowed:
                    continue
                rest = current[:start] + current[start + length :]
                for dest in range(len(rest) + 1):
                    if dest == start:
                        continue
                    candidate = rest[:dest] + list(block) + rest[dest:]
                    d = _edit_distance(candidate, ref_ids)
                    if best is None or d < best[0]:
                        best = (d, candidate)
        if best is None or best[0] >= dist:
            break
        shifts += 1
        dist, current = best[0], best[1]
    return shifts + dist


def ter(hyps_text, refs_text) -> float:
    """Corpus TER on whitespace tokens: 100 * edits / reference words."""
    if len(hyps_text) != len(refs_text):
        raise MetricError(f"got {len(hyps_text)} hypotheses for {len(refs_text)} references")
    if not hyps_text:
        raise MetricError("need at least one segment")
    vocab: dict[str, int] = {}

    def ids(tokens):
        return [vocab.setdefault(t, len(vocab)) for t in tokens]

    total_edits = 0
    total_ref = 0
    for hyp, ref in zip(hyps_text, refs_text):
        ref_tokens = ref.split()
        if not ref_tokens:
            raise MetricError("empty reference segment")
        hyp_ids = ids(hyp.split())
        ref_ids = ids(ref_tokens)
        total_edits += _segment_edits(hyp_ids, ref_ids)
        total_ref += len(ref_tokens)
    return 100.0 * total_edits / total_ref


def spter(hyps_text, refs_text, subword_model) -> float:
    """TER where the words are subword pieces of the evaluation tokenizer."""
    return ter(
        [" ".join(subword_model.encode_pieces(h)) for h in hyps_text],
        [" ".join(subword_model.encode_pieces(r)) for r in refs_text],
    )


# ---------------------------------------------------------------------------
# direction-level reports
# ---------------------------------------------------------------------------

@dataclass
class EvalReport:
    direction: str
    test_size: int
    spbleu: float
    spchrf: float
    spter: float
    metadata: dict = field(default_factory=dict)

    def to_json(self) -> str:
        return json.dumps(
            {
                "direction": self.direction,
                "test_size": self.test_size,
                "spBLEU": round(self.spbleu, 6),
                "spCHRF": round(self.spchrf, 6),
                "spTER": round(self.spter, 6),
                "metadata": self.metadata,
            },
            ensure_ascii=False,
            sort_keys=True,
        )

    @classmethod
    def from_json(cls, text: str) -> "EvalReport":
        obj = json.loads(text)
        return cls(
            obj["direction"],
            obj["test_size"],
            obj["spBLEU"],
            obj["spCHRF"],
            obj["spTER"],
            obj.get("metadata", {}),
        )

    def to_text(self) -> str:
        return (
            f"{self.direction}  size={self.test_size}  "
            f"spBLEU {self.spbleu:.2f}  spCHRF {self.spchrf:.2f}  spTER {self.spter:.2f}"
        )


def report_csv(reports) -> str:
    lines = ["direction,test_size,spBLEU,spCHRF,spTER"]
    for r in reports:
        lines.append(
            f"{r.direction},{r.test_size},{r.spbleu:.2f},{r.spchrf:.2f},{r.spter:.2f}"
        )
    return "\n".join(lines) + "\n"


def evaluate_direction(
    params,
    tokenizer,
    test_pairs,
    subword_model=None,
    decode_config=None,
    generate_fn=None,
) -> EvalReport:
    """Greedy-decode a direction's test pairs and score them.

    ``subword_model`` defaults to the shared tokenizer; ``generate_fn``
    (input_text -> output_text) overrides model decoding, which keeps the
    metric path testable against stub translators.
    """
    from . import decoding  # late import; decoding depends on model

    if not test_pairs:
        raise MetricError("empty test set")
    directions = {p.direction for p in test_pairs}
    if len(directions) != 1:
        raise MetricError(f"test pairs span {len(directions)} directions, expected 1")
    direction = next(iter(directions))
    sp_model = subword_model if subword_model is not None else tokenizer
    inputs = [f"{p.direction.tgt.surface} {p.src_text}" for p in test_pairs]
    refs = [p.tgt_text for p in test_pairs]
    if generate_fn is not None:
        hyps = [generate_fn(text) for text in inputs]
    else:
        config = decode_config if decode_config is not None else decoding.DecodeConfig()
        results = decoding.generate_batch(params, tokenizer, inputs, config, seed=0)
        hyps = [r.text for r in results]
    return EvalReport(
        direction=direction.key,
        test_size=len(test_pairs),
        spbleu=spbleu(hyps, refs, sp_model),
        spchrf=spchrf(hyps, refs, sp_model),
        spter=spter(hyps, refs, sp_model),
        metadata={
            "tokenizer_sha256": sp_model.hash(),
            "bleu_smoothing": "exp",
            "bleu_max_n": BLEU_MAX_N,
            "chrf_order": CHRF_ORDER,
            "chrf_beta": CHRF_BETA,
            "ter_max_shift": TER_MAX_SHIFT,
            "sp_variant": "subword-piece chrF/TER",
        },
    )
