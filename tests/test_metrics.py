"""Metric conformance against hand-derived oracles, plus invariants."""

import json
import math

import numpy as np
import pytest

from mtlab import decoding, kernels
from mtlab import model as M
from mtlab.corpus import Direction, LangTag, ParallelPair
from mtlab.errors import MetricError
from mtlab.metrics import (
    EvalReport,
    bleu,
    chrf,
    evaluate_direction,
    report_csv,
    spbleu,
    spchrf,
    spter,
    ter,
)

# Frozen oracle values, derived by hand before implementation:
#   short-hyp case: p1=p2=p3=1, no 4-grams (order skipped), BP=exp(1-6/3)
BLEU_SHORT_HYP = 100.0 * math.exp(-1.0)
#   disjoint case: all-miss smoothing 1/(2*5), 1/(4*4), 1/(8*3), 1/(16*2); BP=1
BLEU_DISJOINT = 100.0 * math.exp(
    (math.log(1 / 10) + math.log(1 / 16) + math.log(1 / 24) + math.log(1 / 32)) / 4
)
#   chrF on "abcd"/"abce": P=R=mean(3/4, 2/3, 1/2, 0); F(beta=2)=P when P==R
CHRF_ABCD = 100.0 * (3 / 4 + 2 / 3 + 1 / 2 + 0) / 4


class TestBleu:
    def test_perfect_match(self):
        hyp = [["the", "cat", "sat"]]
        assert bleu(hyp, hyp) == pytest.approx(100.0, abs=1e-9)

    def test_short_hypothesis_oracle(self):
        score = bleu([["the", "cat", "sat"]], [["the", "cat", "sat", "on", "the", "mat"]])
        assert score == pytest.approx(BLEU_SHORT_HYP, abs=1e-6)

    def test_disjoint_tokens_smoothing_floor(self):
        score = bleu([["a", "b", "c", "d", "e"]], [["f", "g", "h", "i", "j"]])
        assert score == pytest.approx(BLEU_DISJOINT, abs=1e-6)

    def test_clipping(self):
        # "the the the" vs "the cat": p1 clipped to 1/3
        score = bleu([["the", "the", "the"]], [["the", "cat"]])
        assert 0 < score < 100

    def test_all_empty_hypotheses(self):
        assert bleu([[]], [["a", "b"]]) == 0.0

    def test_length_mismatch(self):
        with pytest.raises(MetricError):
            bleu([["a"]], [["a"], ["b"]])

    def test_permutation_invariance(self):
        hyps = [["a", "b"], ["c", "d", "e"], ["f"]]
        refs = [["a", "x"], ["c", "d", "y"], ["f"]]
        assert bleu(hyps, refs) == pytest.approx(bleu(hyps[::-1], refs[::-1]))

    def test_corpus_duplication_invariance(self):
        # holds when every order has matches (smoothed orders scale with totals)
        hyps = [["a", "b", "c", "d", "e"], ["d", "e"]]
        refs = [["a", "b", "c", "d", "x"], ["d", "y"]]
        assert bleu(hyps + hyps, refs + refs) == pytest.approx(bleu(hyps, refs))

    def test_range(self):
        rng = np.random.default_rng(0)
        vocab = [str(i) for i in range(8)]
        for _ in range(30):
            hyps = [[vocab[i] for i in rng.integers(0, 8, rng.integers(1, 10))]]
            refs = [[vocab[i] for i in rng.integers(0, 8, rng.integers(1, 10))]]
            assert 0.0 <= bleu(hyps, refs) <= 100.0


class TestChrf:
    def test_identity(self):
        assert chrf(["identical text"], ["identical text"]) == pytest.approx(100.0)

    def test_two_char_perfect(self):
        assert chrf(["ab"], ["ab"]) == pytest.approx(100.0)

    def test_hand_derived_case(self):
        assert chrf(["abcd"], ["abce"]) == pytest.approx(CHRF_ABCD, abs=1e-6)

    def test_whitespace_stripped(self):
        assert chrf(["a b c d"], ["abcd"]) == pytest.approx(100.0)

    def test_disjoint_is_zero(self):
        assert chrf(["aaaa"], ["bbbb"]) == 0.0

    def test_duplication_invariance(self):
        hyps, refs = ["abcd", "xy"], ["abce", "xz"]
        assert chrf(hyps + hyps, refs + refs) == pytest.approx(chrf(hyps, refs))


def _words(*texts):
    """Whitespace-tokenized segments, the form ``ter`` takes."""
    return [t.split() for t in texts]


class TestTer:
    def test_identity(self):
        assert ter(_words("a b c"), _words("a b c")) == 0.0

    def test_substitution_oracle(self):
        # 1 substitution / 5 reference words; edit-distance DP confirms 1
        assert ter(_words("a b x d e"), _words("a b c d e")) == pytest.approx(20.0)

    def test_shift_oracle(self):
        # moving "a b c" to the front is a single shift; exhaustive
        # enumeration of one-shift candidates confirms no cheaper path
        assert ter(_words("d e a b c"), _words("a b c d e")) == pytest.approx(20.0)

    def test_empty_reference_rejected(self):
        with pytest.raises(MetricError):
            ter(_words("a"), _words(""))

    def test_can_exceed_100(self):
        assert ter(_words("a b c d e f g h"), _words("x")) > 100.0

    def test_insertion_and_deletion(self):
        assert ter(_words("a b"), _words("a b c")) == pytest.approx(100.0 / 3)
        assert ter(_words("a b c d"), _words("a b c")) == pytest.approx(100.0 / 3)

    def test_shift_beats_resubstitution(self):
        # block move of 2 words = 1 edit, not 4
        assert ter(_words("c d a b"), _words("a b c d")) == pytest.approx(25.0)

    def test_subsequence_hypothesis_needs_no_shift_search(self, monkeypatch):
        # Deletions only: the edit distance equals the length floor that no
        # shift can beat, so the distance is computed once.
        calls = []
        levenshtein = kernels.levenshtein
        monkeypatch.setattr(
            kernels, "levenshtein", lambda a, b: calls.append(1) or levenshtein(a, b)
        )
        assert ter(_words("a c d f"), _words("a b c d e f")) == pytest.approx(200.0 / 6)
        assert len(calls) == 1

    def test_long_segment_block_move_and_substitution(self):
        # 25 words: move a 3-word block and substitute one word = 2 edits.
        ref = [f"w{i}" for i in range(25)]
        hyp = ref[:3] + ref[6:16] + ref[3:6] + ref[16:]
        hyp[20] = "x"
        assert ter([hyp], [ref]) == pytest.approx(100.0 * 2 / 25)


class TestSubwordVariants:
    def test_identical_texts(self, tiny_tokenizer):
        texts = ["a b c", "c a b"]
        assert spbleu(texts, texts, tiny_tokenizer) == pytest.approx(100.0, abs=1e-9)
        assert spchrf(texts, texts, tiny_tokenizer) == pytest.approx(100.0)
        assert spter(texts, texts, tiny_tokenizer) == 0.0

    def test_corruption_never_raises_spbleu(self, tiny_tokenizer):
        refs = ["a b c", "c a b a", "b b a"]
        hyps = ["a b c", "c a b a", "b b a"]
        base = spbleu(hyps, refs, tiny_tokenizer)
        for i in range(len(hyps)):
            corrupted = list(hyps)
            words = corrupted[i].split()
            words[0] = "zzz"
            corrupted[i] = " ".join(words)
            assert spbleu(corrupted, refs, tiny_tokenizer) <= base + 1e-9

class TestEvaluateDirection:
    def _pairs(self):
        d = Direction(LangTag("sy1"), LangTag("sy2"))
        return [
            ParallelPair(d, "a b c", "c a b"),
            ParallelPair(d, "b b a", "a c c b"),
        ]

    def test_perfect_mock_model(self, tiny_tokenizer):
        pairs = self._pairs()
        answers = {f"<{p.direction.tgt.code}> {p.src_text}": p.tgt_text for p in pairs}
        report = evaluate_direction(
            None, tiny_tokenizer, pairs, generate_fn=lambda text: answers[text]
        )
        assert report.spbleu == pytest.approx(100.0, abs=1e-9)
        assert report.spchrf == pytest.approx(100.0)
        assert report.spter == 0.0
        assert report.test_size == len(pairs)
        assert report.metadata["tokenizer_sha256"] == tiny_tokenizer.hash()

    def test_decode_failures_and_truncations_counted(self, tiny_tokenizer, tiny_model_config):
        # The second source is longer than max_positions and cannot be decoded.
        d = Direction(LangTag("sy1"), LangTag("sy2"))
        pairs = [
            ParallelPair(d, "a b c", "c a b"),
            ParallelPair(d, " ".join(["a b c"] * 10), "a b c"),
            ParallelPair(d, "b b a", "a c c b"),
        ]
        params = M.init(tiny_model_config, seed=0)
        report = evaluate_direction(params, tiny_tokenizer, pairs)
        inputs = [f"{d.tgt.surface} {p.src_text}" for p in pairs]
        results = decoding.generate_batch(params, tiny_tokenizer, inputs)
        assert report.metadata["decode_errors"] == 1
        assert report.metadata["truncated"] == sum(r.truncated for r in results)
        assert report.metadata["distinct_hypotheses"] == len({r.text for r in results})

    def test_constant_output_counts_one_distinct_hypothesis(self, tiny_tokenizer):
        pairs = self._pairs()
        report = evaluate_direction(None, tiny_tokenizer, pairs, generate_fn=lambda _: "c a b")
        assert report.metadata["distinct_hypotheses"] == 1
        answers = {f"<{p.direction.tgt.code}> {p.src_text}": p.tgt_text for p in pairs}
        report = evaluate_direction(
            None, tiny_tokenizer, pairs, generate_fn=lambda text: answers[text]
        )
        assert report.metadata["distinct_hypotheses"] == len(pairs)

    def test_empty_test_set_rejected(self, tiny_tokenizer):
        with pytest.raises(MetricError):
            evaluate_direction(None, tiny_tokenizer, [], generate_fn=lambda t: t)

    def test_mixed_directions_rejected(self, tiny_tokenizer):
        d1 = Direction(LangTag("sy1"), LangTag("sy2"))
        d2 = Direction(LangTag("sy2"), LangTag("sy1"))
        pairs = [ParallelPair(d1, "a b", "b a"), ParallelPair(d2, "b a", "a b")]
        with pytest.raises(MetricError):
            evaluate_direction(None, tiny_tokenizer, pairs, generate_fn=lambda t: t)

    def test_report_json_round_trip(self):
        report = EvalReport("sy1-sy2", 30, 34.89, 47.38, 68.28, {"k": "v"})
        again = EvalReport.from_dict(json.loads(json.dumps(report.to_dict())))
        assert again == report

    def test_report_csv(self):
        report = EvalReport("sy1-sy2", 30, 34.891, 47.384, 68.285)
        assert "sy1-sy2,30,34.89,47.38,68.28" in report_csv([report])
