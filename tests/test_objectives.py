"""Direction building, tagging, noising, and BT/REC example construction."""

import numpy as np
import pytest

from mtlab.corpus import Direction, LangTag, MonoSentence, MonoStore, ParallelPair
from mtlab.errors import ConfigError, FormatError
from mtlab.numerics import rng_fork
from mtlab.objectives import (
    BTConfig,
    FinetuneSetting,
    RECConfig,
    TaggedExample,
    build_directions,
    format_translation,
    make_bt_examples,
    make_rec_examples,
    noise,
    write_audit,
)


def _mono(langs_sentences):
    sentences = []
    for code, texts in langs_sentences.items():
        for t in texts:
            sentences.append(MonoSentence(LangTag(code), t))
    return MonoStore(tuple(sentences))


class TestDirections:
    def test_four_languages_minus_eng_fra_is_ten(self):
        dirs = build_directions(["eng", "fra", "ibo", "fon"], [("eng", "fra")])
        assert len(dirs) == 10
        keys = {d.key for d in dirs}
        assert "eng-fra" not in keys and "fra-eng" not in keys
        assert "fon-ibo" in keys

    def test_eight_languages_minus_eng_fra_is_fifty_four(self):
        langs = ["eng", "fra", "ibo", "fon", "swa", "kin", "xho", "yor"]
        dirs = build_directions(langs, [("eng", "fra")])
        assert len(dirs) == len(langs) * (len(langs) - 1) - 2 == 54

    def test_two_languages_no_exclusions(self):
        dirs = build_directions(["sy1", "sy2"])
        assert [d.key for d in dirs] == ["sy1-sy2", "sy2-sy1"]

    def test_stable_lexicographic_order(self):
        dirs = build_directions(["sy2", "sy1", "sy3"])
        assert [d.key for d in dirs] == sorted(d.key for d in dirs)

    def test_too_few_languages(self):
        with pytest.raises(ConfigError):
            build_directions(["eng"])


class TestTagging:
    def test_format_translation(self):
        pair = ParallelPair(
            Direction(LangTag("ibo"), LangTag("eng")),
            "Daalụ maka ikwu eziokwu nke Chineke",
            "Thank you for telling God's truth",
        )
        ex = format_translation(pair)
        assert ex.input_text == "<eng> Daalụ maka ikwu eziokwu nke Chineke"
        assert ex.target_text == "Thank you for telling God's truth"

    def test_stripping_tag_recovers_source(self):
        pair = ParallelPair(Direction(LangTag("sy1"), LangTag("sy2")), "a b c", "d e f")
        ex = format_translation(pair)
        assert ex.input_text.split(" ", 1)[1] == pair.src_text

    def test_tagged_example_invariant(self):
        with pytest.raises(FormatError):
            TaggedExample("no tag here", "target")

    def test_setting_parse(self):
        assert FinetuneSetting.parse("btrec") is FinetuneSetting.BT_REC
        assert FinetuneSetting.parse("BT&REC") is FinetuneSetting.BT_REC
        assert FinetuneSetting.parse("base") is FinetuneSetting.BASE
        with pytest.raises(ConfigError):
            FinetuneSetting.parse("extra")


class TestNoise:
    def test_single_token_unchanged(self):
        rng = rng_fork(0, "n")
        for _ in range(20):
            assert noise("word", n_swaps=2, p_del=0.9, rng=rng) == "word"

    def test_identity_config(self):
        rng = rng_fork(1, "n")
        s = "a b c d e"
        assert noise(s, n_swaps=0, p_del=0.0, rng=rng) == s

    def test_swaps_preserve_token_multiset(self):
        rng = rng_fork(2, "n")
        s = "a b c d e f g"
        for _ in range(50):
            out = noise(s, n_swaps=2, p_del=0.0, rng=rng)
            assert sorted(out.split()) == sorted(s.split())

    def test_deletion_keep_rate(self):
        # binomial(n>=1e4, p=0.8): 99.9% interval ~ [0.785, 0.815]
        rng = rng_fork(3, "n")
        total = kept = 0
        sentence = " ".join(f"w{i}" for i in range(20))
        while total < 10_000:
            out = noise(sentence, n_swaps=0, p_del=0.2, rng=rng)
            total += 20
            kept += len(out.split())
        assert 0.785 <= kept / total <= 0.815

    def test_never_empty(self):
        rng = rng_fork(4, "n")
        for _ in range(200):
            assert noise("a b", n_swaps=0, p_del=0.99, rng=rng).split()

    def test_empty_sentence_rejected(self):
        with pytest.raises(FormatError):
            noise("", 2, 0.2, rng_fork(0, "n"))


class TestRecExamples:
    def test_counts_per_language(self):
        mono = _mono({
            "sy1": [f"s{i} t{i} u{i}" for i in range(20)],
            "sy2": [f"v{i} w{i} x{i}" for i in range(20)],
            "sy3": [f"y{i} z{i} q{i}" for i in range(20)],
        })
        out = make_rec_examples(mono, RECConfig(num_rec=50), rng_fork(0, "rec"))
        assert len(out) == 150
        assert all(ex.kind == "reconstruction" for ex in out)

    def test_noiseless_config_input_equals_target(self):
        mono = _mono({"sy1": ["alpha beta gamma"]})
        out = make_rec_examples(
            mono, RECConfig(num_rec=5, n_swaps=0, p_del=0.0), rng_fork(1, "rec")
        )
        for ex in out:
            assert ex.input_text == f"<sy1> {ex.target_text}"

    def test_deterministic(self):
        mono = _mono({"sy1": [f"a{i} b{i} c{i}" for i in range(30)]})
        cfg = RECConfig(num_rec=20)
        a = make_rec_examples(mono, cfg, rng_fork(7, "rec"))
        b = make_rec_examples(mono, cfg, rng_fork(7, "rec"))
        assert a == b

    def test_language_without_data_skipped(self):
        mono = _mono({"sy1": ["a b c"]})
        out = make_rec_examples(
            mono, RECConfig(num_rec=3), rng_fork(0, "rec"), langs=["sy1", "sy2"]
        )
        assert len(out) == 3
        assert all(ex.input_text.startswith("<sy1>") for ex in out)

    def test_tag_prefix_wellformed(self):
        mono = _mono({"sy1": ["one two three four"]})
        for ex in make_rec_examples(mono, RECConfig(num_rec=10), rng_fork(2, "rec")):
            head, payload = ex.input_text.split(" ", 1)
            assert head == "<sy1>" and payload


class TestBtExamples:
    def _mono_store(self, n=10):
        return _mono({
            "sy1": [f"ka{i} ka{i+1} ka{i+2}" for i in range(n)],
            "sy2": [f"bu{i} bu{i+1} bu{i+2}" for i in range(n)],
            "sy3": [f"zo{i} zo{i+1} zo{i+2}" for i in range(n)],
        })

    def test_constant_stub_model(self):
        calls = []

        def stub(text, rng):
            calls.append(text)
            return "Z"

        mono = self._mono_store()
        out = make_bt_examples(
            None, None, mono, ["sy1", "sy2", "sy3"],
            BTConfig(num_bt=10, num_sample=2), rng_fork(0, "bt"), generate_fn=stub,
        )
        assert len(out) == 30  # 10 sentences x 3 languages
        assert len(calls) == 60  # 2 candidates per sentence
        mono_texts = {s.text for s in mono.sentences}
        for ex in out:
            tag, payload = ex.input_text.split(" ", 1)
            assert payload == "Z"
            assert ex.target_text in mono_texts  # targets stay genuine
            assert ex.kind == "backtranslation"
            assert ex.pivot is not None and f"<{ex.pivot}>" != tag

    def test_num_sample_one_uses_single_candidate(self):
        returned = []

        def stub(text, rng):
            returned.append(f"out{len(returned)}")
            return returned[-1]

        out = make_bt_examples(
            None, None, self._mono_store(3), ["sy1", "sy2", "sy3"],
            BTConfig(num_bt=3, num_sample=1), rng_fork(1, "bt"), generate_fn=stub,
        )
        payloads = {ex.input_text.split(" ", 1)[1] for ex in out}
        assert payloads == set(returned)  # every single candidate was chosen

    def test_pivot_respects_exclusions(self):
        out = make_bt_examples(
            None, None, self._mono_store(5), ["sy1", "sy2", "sy3"],
            BTConfig(num_bt=20, num_sample=1), rng_fork(2, "bt"),
            exclusions=[("sy1", "sy2")], generate_fn=lambda t, r: "x",
        )
        for ex in out:
            tag = ex.input_text.split(" ", 1)[0]
            if tag == "<sy1>":
                assert ex.pivot == "sy3"
            if tag == "<sy2>":
                assert ex.pivot == "sy3"

    def test_no_eligible_pivot_is_error(self):
        with pytest.raises(ConfigError):
            make_bt_examples(
                None, None, self._mono_store(2), ["sy1", "sy2"],
                BTConfig(num_bt=1), rng_fork(3, "bt"),
                exclusions=[("sy1", "sy2")], generate_fn=lambda t, r: "x",
            )

    def test_reproducible(self):
        def stub(text, rng):
            return f"w{int(rng.integers(1000))}"

        def run():
            return make_bt_examples(
                None, None, self._mono_store(8), ["sy1", "sy2", "sy3"],
                BTConfig(num_bt=8, num_sample=2), rng_fork(5, "bt"), generate_fn=stub,
            )

        assert run() == run()

    def test_decay_schedule(self):
        cfg = BTConfig(num_bt=500, num_bt_decay=(100, 50, 10))
        assert [cfg.num_bt_for_round(i) for i in range(5)] == [100, 50, 10, 10, 10]
        assert BTConfig(num_bt=77).num_bt_for_round(3) == 77


def test_audit_log(tmp_path):
    examples = [
        TaggedExample("<sy1> a b", "b a", kind="backtranslation", pivot="sy2"),
        TaggedExample("<sy1> c", "c d", kind="reconstruction"),
    ]
    path = tmp_path / "audit.jsonl"
    write_audit(path, examples, round_index=2)
    import json

    lines = [json.loads(l) for l in path.read_text(encoding="utf-8").splitlines()]
    assert lines[0]["kind"] == "backtranslation"
    assert lines[0]["pivot"] == "sy2"
    assert all(l["round"] == 2 for l in lines)
