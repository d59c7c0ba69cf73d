"""Corpus-level translation metrics and per-direction evaluation reports.

BLEU uses modified n-gram precisions with exponential smoothing (a factor
that doubles at each all-miss order) and skips orders with no candidate
n-grams. chrF is the character n-gram F-score with corpus-aggregated
statistics. TER counts token edits plus greedy block shifts against the
reference length.

BLEU and TER take token sequences, chrF text or piece sequences. The "sp"
variants (spBLEU, spCHRF, spTER) hand them the shared evaluation
tokenizer's ``encode_pieces`` output as it is.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass, field

from . import decoding, kernels
from .errors import MetricError
from .objectives import format_translation

BLEU_MAX_N = 4
CHRF_ORDER = 6
CHRF_BETA = 2.0
TER_MAX_SHIFT = 10


def _ngrams(tokens, n: int) -> Counter:
    """Counts of the n-grams of a str (character n-grams) or a tuple.

    Slices of both are hashable, so they are counted as they are.
    """
    return Counter(tokens[i : i + n] for i in range(len(tokens) - n + 1))


def _segments(hyps, refs):
    """(hypothesis, reference) pairs; a MetricError unless there are as many
    hypotheses as references, and at least one."""
    if len(hyps) != len(refs):
        raise MetricError(f"got {len(hyps)} hypotheses for {len(refs)} references")
    if not hyps:
        raise MetricError("need at least one segment")
    return zip(hyps, refs)


def _pieces(texts, subword_model) -> list[list[str]]:
    return [subword_model.encode_pieces(t) for t in texts]


def bleu(hyps, refs) -> float:
    """Corpus BLEU up to ``BLEU_MAX_N``-grams over pre-tokenized segments, 0-100.

    Exponential smoothing: a factor s starts at 1; an order with zero
    matches but a nonzero candidate count sets s <- 2s and scores
    1/(s * total_n). Orders with zero candidate n-grams drop out of the
    geometric mean. Brevity penalty exp(1 - r/c) applies when c < r.
    """
    matches = [0] * BLEU_MAX_N
    totals = [0] * BLEU_MAX_N
    hyp_len = 0
    ref_len = 0
    for hyp, ref in _segments(hyps, refs):
        hyp = tuple(hyp)
        ref = tuple(ref)
        hyp_len += len(hyp)
        ref_len += len(ref)
        for n in range(1, BLEU_MAX_N + 1):
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
    for n in range(BLEU_MAX_N):
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
    return bleu(_pieces(hyps_text, subword_model), _pieces(refs_text, subword_model))


def chrf(hyps, refs) -> float:
    """Character n-gram F-score on whitespace-stripped text, 0-100.

    Each segment is a string or a sequence of strings, joined before the
    whitespace is stripped. Precision and recall are corpus totals per
    order up to ``CHRF_ORDER``, averaged over orders where both sides have
    n-grams, then combined with weight ``CHRF_BETA`` on recall.
    """
    stats = [[0, 0, 0] for _ in range(CHRF_ORDER)]  # hyp total, ref total, matches
    for hyp, ref in _segments(hyps, refs):
        h = "".join("".join(hyp).split())
        r = "".join("".join(ref).split())
        for order in range(1, CHRF_ORDER + 1):
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
    b2 = CHRF_BETA * CHRF_BETA
    return 100.0 * (1 + b2) * precision * recall / (b2 * precision + recall)


def spchrf(hyps_text, refs_text, subword_model) -> float:
    """chrF over the subword pieces of the evaluation tokenizer."""
    return chrf(_pieces(hyps_text, subword_model), _pieces(refs_text, subword_model))


# ---------------------------------------------------------------------------
# TER
# ---------------------------------------------------------------------------

def _ref_spans(ref) -> set[tuple]:
    spans = set()
    for length in range(1, min(TER_MAX_SHIFT, len(ref)) + 1):
        for i in range(len(ref) - length + 1):
            spans.add(tuple(ref[i : i + length]))
    return spans


def _best_shift(current, ref, allowed, floor):
    """(edits, shifted hypothesis) of the first candidate shift with the
    fewest edits in scan order, or None when no block may move.

    The scan stops at the first candidate at ``floor``: no later one can
    score lower, so it is the first minimum the full scan would find.
    """
    best = None
    for start in range(len(current)):
        for length in range(1, min(TER_MAX_SHIFT, len(current) - start) + 1):
            block = current[start : start + length]
            if tuple(block) not in allowed:
                continue
            rest = current[:start] + current[start + length :]
            for dest in range(len(rest) + 1):
                if dest == start:
                    continue
                candidate = rest[:dest] + block + rest[dest:]
                d = kernels.levenshtein(candidate, ref)
                if best is None or d < best[0]:
                    best = (d, candidate)
                    if d == floor:
                        return best
    return best


def _segment_edits(hyp, ref) -> int:
    """Edits for one segment: greedy best-improvement block shifts, then
    word-level edit distance. Each applied shift costs one edit.

    A shiftable block must exactly match a contiguous reference
    subsequence and be at most TER_MAX_SHIFT words long. A shift keeps the
    hypothesis length, so no candidate scores below the length floor
    ``abs(len(hyp) - len(ref))``: the search stops once the distance
    reaches it, and a scan stops at the first candidate on it. Both exits
    leave the chosen shifts and the score as the exhaustive search has them.
    """
    allowed = _ref_spans(ref)
    floor = abs(len(hyp) - len(ref))
    shifts = 0
    current = list(hyp)
    dist = kernels.levenshtein(current, ref)
    while dist > floor:
        best = _best_shift(current, ref, allowed, floor)
        if best is None or best[0] >= dist:
            break
        shifts += 1
        dist, current = best
    return shifts + dist


def ter(hyps, refs) -> float:
    """Corpus TER over pre-tokenized segments: 100 * edits / reference tokens."""
    total_edits = 0
    total_ref = 0
    for hyp, ref in _segments(hyps, refs):
        if not ref:
            raise MetricError("empty reference segment")
        total_edits += _segment_edits(hyp, ref)
        total_ref += len(ref)
    return 100.0 * total_edits / total_ref


def spter(hyps_text, refs_text, subword_model) -> float:
    """TER where the tokens are subword pieces of the evaluation tokenizer."""
    return ter(_pieces(hyps_text, subword_model), _pieces(refs_text, subword_model))


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

    def to_dict(self) -> dict:
        """The report's JSON record; scores rounded to 6 decimals."""
        return {
            "direction": self.direction,
            "test_size": self.test_size,
            "spBLEU": round(self.spbleu, 6),
            "spCHRF": round(self.spchrf, 6),
            "spTER": round(self.spter, 6),
            "metadata": self.metadata,
        }

    @classmethod
    def from_dict(cls, obj: dict) -> "EvalReport":
        """The report of a ``to_dict`` record; a TypeError or ValueError for a
        score that is not a number."""
        scores = (float(obj[key]) for key in ("spBLEU", "spCHRF", "spTER"))
        return cls(obj["direction"], obj["test_size"], *scores, obj.get("metadata", {}))

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
    generate_fn=None,
) -> EvalReport:
    """Greedy-decode a direction's test pairs and score them.

    spBLEU, spCHRF and spTER segment with ``tokenizer``'s subword pieces.
    ``generate_fn`` (input_text -> output_text) overrides model decoding,
    which keeps the metric path testable against stub translators. When the
    model decodes, ``metadata`` counts the sources that failed to decode
    (``decode_errors``; each is scored as an empty hypothesis) and the
    outputs cut at the token limit (``truncated``). In both cases it counts
    the distinct hypotheses (``distinct_hypotheses``): a model that gives
    one output for every source reads 1, whatever its scores.
    """
    if not test_pairs:
        raise MetricError("empty test set")
    directions = {p.direction for p in test_pairs}
    if len(directions) != 1:
        raise MetricError(f"test pairs span {len(directions)} directions, expected 1")
    direction = next(iter(directions))
    inputs = [format_translation(p).input_text for p in test_pairs]
    refs = [p.tgt_text for p in test_pairs]
    decode_counts = {}
    if generate_fn is not None:
        hyps = [generate_fn(text) for text in inputs]
    else:
        results = decoding.generate_batch(params, tokenizer, inputs, decoding.DecodeConfig(), seed=0)
        hyps = [r.text for r in results]
        decode_counts = {
            "decode_errors": sum(r.error is not None for r in results),
            "truncated": sum(r.truncated for r in results),
        }
    return EvalReport(
        direction=direction.key,
        test_size=len(test_pairs),
        spbleu=spbleu(hyps, refs, tokenizer),
        spchrf=spchrf(hyps, refs, tokenizer),
        spter=spter(hyps, refs, tokenizer),
        metadata={
            "tokenizer_sha256": tokenizer.hash(),
            "bleu_smoothing": "exp",
            "bleu_max_n": BLEU_MAX_N,
            "chrf_order": CHRF_ORDER,
            "chrf_beta": CHRF_BETA,
            "ter_max_shift": TER_MAX_SHIFT,
            "sp_variant": "subword-piece chrF/TER",
            **decode_counts,
            "distinct_hypotheses": len(set(hyps)),
        },
    )
