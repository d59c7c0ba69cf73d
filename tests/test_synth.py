"""Synthetic languages: generation and ground truth."""

import pytest

from mtlab.corpus import Direction, LangTag
from mtlab.errors import SynthError
from mtlab.synth import (
    GroundTruth,
    SyntheticLangSpec,
    gen_synthetic,
)


def _specs():
    return [
        SyntheticLangSpec("sy1", lexicon_seed=1, surface_prefix="ka"),
        SyntheticLangSpec("sy2", lexicon_seed=2, surface_prefix="bu"),
        SyntheticLangSpec("sy3", lexicon_seed=3, surface_prefix="zo",
                          reorder_rule="swap_adjacent_pairs"),
        SyntheticLangSpec("sy4", lexicon_seed=4, surface_prefix="fe",
                          reorder_rule="reverse_windows:3"),
    ]


class TestSpecs:
    def test_bad_rule_rejected(self):
        with pytest.raises(SynthError):
            SyntheticLangSpec("sy1", 1, "ka", reorder_rule="shuffle")

    def test_non_integer_window_rejected(self):
        with pytest.raises(SynthError, match="integer"):
            SyntheticLangSpec("sy1", 1, "ka", reorder_rule="reverse_windows:x")

    def test_duplicate_prefixes_rejected(self):
        specs = [
            SyntheticLangSpec("sy1", 1, "ka"),
            SyntheticLangSpec("sy2", 2, "ka"),
        ]
        with pytest.raises(SynthError):
            gen_synthetic(specs, 5, 5, (3, 5), seed=0)

    def test_overlapping_prefixes_rejected(self):
        specs = [
            SyntheticLangSpec("sy1", 1, "k"),
            SyntheticLangSpec("sy2", 2, "ka"),
        ]
        with pytest.raises(SynthError):
            gen_synthetic(specs, 5, 5, (3, 5), seed=0)


class TestGroundTruth:
    def test_identity_rule_is_relexicalization(self):
        truth = GroundTruth(_specs()[:2])
        src = truth.render([5, 7, 9], "sy1")
        tgt = truth.translate(src, "sy1", "sy2")
        assert tgt == truth.render([5, 7, 9], "sy2")
        assert all(w.startswith("bu") for w in tgt.split())

    def test_round_trip_exact_all_rules(self):
        truth = GroundTruth(_specs())
        for src in ("sy1", "sy2", "sy3", "sy4"):
            for tgt in ("sy1", "sy2", "sy3", "sy4"):
                if src == tgt:
                    continue
                sent = truth.render([0, 1, 2, 3, 4, 5, 6], src)
                back = truth.translate(truth.translate(sent, src, tgt), tgt, src)
                assert back == sent

    def test_rendering_uses_prefix_plus_base36(self):
        spec = SyntheticLangSpec("sy1", lexicon_seed=1, surface_prefix="ka",
                                 concept_vocab_size=50)
        truth = GroundTruth([spec])
        for word in truth.render([5, 7], "sy1").split():
            assert word.startswith("ka")
            int(word[2:], 36)  # the remainder is a base-36 id

    def test_ground_truth_always_on_target(self):
        truth = GroundTruth(_specs())
        for i in range(30):
            assert all(w.startswith("bu") for w in truth.render([i, i + 1, i + 2], "sy2").split())

    def test_unknown_word_rejected(self):
        truth = GroundTruth(_specs())
        with pytest.raises(SynthError):
            truth.translate("unknown words here", "sy1", "sy2")


class TestGenSynthetic:
    def test_store_counts_and_low_resource_scaling(self):
        specs = _specs()
        parallel, mono, truth = gen_synthetic(
            specs, 100, 40, (3, 6), seed=5, low_resource=["sy4"],
            low_resource_factor=0.05, n_dev_per_direction=4, n_test_per_direction=6,
        )
        by_dir = parallel.by_direction()
        hi = [p for p in by_dir[Direction(LangTag("sy1"), LangTag("sy2"))] if p.split == "train"]
        lo = [p for p in by_dir[Direction(LangTag("sy1"), LangTag("sy4"))] if p.split == "train"]
        assert len(hi) == 100
        assert len(lo) == 5
        test = [p for p in by_dir[Direction(LangTag("sy1"), LangTag("sy4"))] if p.split == "test"]
        assert len(test) == 6  # dev/test are NOT scaled down
        assert len(mono.by_lang()[LangTag("sy4")]) == 40  # mono stays full

    def test_pairs_are_exact_translations(self):
        specs = _specs()
        parallel, _, truth = gen_synthetic(specs, 20, 5, (3, 6), seed=6)
        for pair in parallel.pairs[:200]:
            assert truth.translate(
                pair.src_text, pair.direction.src.code, pair.direction.tgt.code
            ) == pair.tgt_text

    def test_deterministic(self):
        a = gen_synthetic(_specs(), 10, 10, (3, 5), seed=9)
        b = gen_synthetic(_specs(), 10, 10, (3, 5), seed=9)
        assert a[0].pairs == b[0].pairs
        assert a[1].sentences == b[1].sentences

    def test_sentence_lengths_in_range(self):
        parallel, mono, _ = gen_synthetic(_specs()[:2], 50, 20, (2, 4), seed=1)
        for pair in parallel.pairs:
            assert 2 <= len(pair.src_text.split()) <= 4

