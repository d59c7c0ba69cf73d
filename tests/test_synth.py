"""Synthetic languages: generation, ground truth, off-target measurement."""

import pytest

from mtlab.corpus import Direction, LangTag
from mtlab.errors import SynthError
from mtlab.synth import (
    GroundTruth,
    SyntheticLangSpec,
    gen_synthetic,
    load_specs,
    off_target_rate,
    save_specs,
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

    def test_save_load_round_trip(self, tmp_path):
        path = tmp_path / "specs.json"
        save_specs(path, _specs())
        assert load_specs(path) == _specs()


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
        specs = _specs()
        truth = GroundTruth(specs)
        outs = [truth.render([i, i + 1, i + 2], "sy2") for i in range(30)]
        assert off_target_rate(outs, "sy2", specs) == 0.0

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


class TestOffTarget:
    def test_all_expected(self):
        specs = _specs()
        assert off_target_rate(["ka1 ka2", "ka3"], "sy1", specs) == 0.0

    def test_all_wrong_language(self):
        specs = _specs()
        assert off_target_rate(["bu1 bu2", "bu3 bu4"], "sy1", specs) == 1.0

    def test_mixed_fixture(self):
        specs = _specs()
        outs = ["ka1 ka2"] * 7 + ["bu1 bu2"] * 3
        assert off_target_rate(outs, "sy1", specs) == pytest.approx(0.3)

    def test_majority_rule(self):
        specs = _specs()
        # 2 of 3 tokens on-target -> on-target; 1 of 2 -> off-target
        assert off_target_rate(["ka1 ka2 bu1"], "sy1", specs) == 0.0
        assert off_target_rate(["ka1 bu1"], "sy1", specs) == 1.0

    def test_unknown_tokens_count_as_off_target(self):
        specs = _specs()
        assert off_target_rate(["qq1 qq2 ka1"], "sy1", specs) == 1.0

    def test_empty_output_off_target(self):
        assert off_target_rate([""], "sy1", _specs()) == 1.0
