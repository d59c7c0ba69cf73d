"""Metric conformance against hand-derived oracles, plus invariants."""

import math

import numpy as np
import pytest

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


class TestTer:
    def test_identity(self):
        assert ter(["a b c"], ["a b c"]) == 0.0

    def test_substitution_oracle(self):
        # 1 substitution / 5 reference words; edit-distance DP confirms 1
        assert ter(["a b x d e"], ["a b c d e"]) == pytest.approx(20.0)

    def test_shift_oracle(self):
        # moving "a b c" to the front is a single shift; exhaustive
        # enumeration of one-shift candidates confirms no cheaper path
        assert ter(["d e a b c"], ["a b c d e"]) == pytest.approx(20.0)

    def test_empty_reference_rejected(self):
        with pytest.raises(MetricError):
            ter(["a"], [""])

    def test_can_exceed_100(self):
        assert ter(["a b c d e f g h"], ["x"]) > 100.0

    def test_insertion_and_deletion(self):
        assert ter(["a b"], ["a b c"]) == pytest.approx(100.0 / 3)
        assert ter(["a b c d"], ["a b c"]) == pytest.approx(100.0 / 3)

    def test_shift_beats_resubstitution(self):
        # block move of 2 words = 1 edit, not 4
        assert ter(["c d a b"], ["a b c d"]) == pytest.approx(25.0)


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
        again = EvalReport.from_json(report.to_json())
        assert again == report

    def test_report_csv(self):
        report = EvalReport("sy1-sy2", 30, 34.891, 47.384, 68.285)
        assert "sy1-sy2,30,34.89,47.38,68.28" in report_csv([report])
