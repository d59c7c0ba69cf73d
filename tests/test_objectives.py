"""Direction building, tagging, noising, and BT/REC example construction."""

import numpy as np
import pytest

from mtlab import decoding, objectives
from mtlab import model as M
from mtlab.corpus import Direction, LangTag, MonoSentence, MonoStore, ParallelPair
from mtlab.decoding import GenerationResult
from mtlab.errors import ConfigError, FormatError
from mtlab.numerics import rng_fork, sample_categorical
from mtlab.objectives import (
    BTConfig,
    FinetuneSetting,
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
        out = make_rec_examples(mono, 50, rng_fork(0, "rec"))
        assert len(out) == 150
        assert all(ex.kind == "reconstruction" for ex in out)

    def test_noiseless_config_input_equals_target(self, monkeypatch):
        monkeypatch.setattr(objectives, "REC_N_SWAPS", 0)
        monkeypatch.setattr(objectives, "REC_P_DEL", 0.0)
        mono = _mono({"sy1": ["alpha beta gamma"]})
        out = make_rec_examples(mono, 5, rng_fork(1, "rec"))
        for ex in out:
            assert ex.input_text == f"<sy1> {ex.target_text}"

    def test_deterministic(self):
        mono = _mono({"sy1": [f"a{i} b{i} c{i}" for i in range(30)]})
        a = make_rec_examples(mono, 20, rng_fork(7, "rec"))
        b = make_rec_examples(mono, 20, rng_fork(7, "rec"))
        assert a == b

    def test_language_without_data_skipped(self):
        mono = _mono({"sy1": ["a b c"], "sy2": []})
        out = make_rec_examples(mono, 3, rng_fork(0, "rec"))
        assert len(out) == 3
        assert all(ex.input_text.startswith("<sy1>") for ex in out)

    def test_tag_prefix_wellformed(self):
        mono = _mono({"sy1": ["one two three four"]})
        for ex in make_rec_examples(mono, 10, rng_fork(2, "rec")):
            head, payload = ex.input_text.split(" ", 1)
            assert head == "<sy1>" and payload


def _stub_decoder(monkeypatch, stub):
    """Replace ``decoding.generate`` by ``stub(texts, rngs) -> list[str | None]``;
    None marks a failed decode."""
    def generate(params, tokenizer, texts, config, rng=None):
        return [
            GenerationResult(text=o or "", token_ids=[], truncated=False,
                             error="stub decode failed" if o is None else None)
            for o in stub(texts, rng)
        ]

    monkeypatch.setattr(decoding, "generate", generate)


def _bt_reference(params, tokenizer, mono_store, langs, n, rng, num_bt):
    """The round as it was before one decode per sentence: decode all ``n``
    candidates of every sentence, skip a sentence if any of them failed,
    and keep one chosen uniformly."""
    langs = sorted(LangTag(l) for l in langs)
    directions = build_directions(langs)
    by_lang = mono_store.by_lang()
    base_seed = int(rng.integers(2**63))
    jobs, inputs, rngs = [], [], []
    for lang in langs:
        sentences = by_lang.get(lang, ())
        if not sentences:
            continue
        pivots = [d.tgt for d in directions if d.src == lang]
        pick_rng = rng_fork(base_seed, f"bt-pick:{lang.code}")
        for index in range(num_bt):
            text = sentences[int(pick_rng.integers(len(sentences)))].text
            item_rng = rng_fork(base_seed, f"bt:{lang.code}:{index}")
            pivot = pivots[int(item_rng.integers(len(pivots)))]
            jobs.append((lang, pivot, text, item_rng))
            inputs += [f"{pivot.surface} {text}"] * n
            rngs += [rng_fork(base_seed, f"bt:{lang.code}:{index}:{k}") for k in range(n)]
    results = decoding.generate(params, tokenizer, inputs, decoding.DecodeConfig(mode="sample"),
                                rng=rngs)
    out = []
    for j, (lang, pivot, text, item_rng) in enumerate(jobs):
        candidates = results[j * n : (j + 1) * n]
        if any(r.error for r in candidates):
            continue
        chosen = candidates[sample_categorical(np.full(n, 1.0 / n), item_rng)].text
        out.append(TaggedExample(f"{lang.surface} {chosen}", text, "backtranslation", pivot.code))
    return out


class TestBtExamples:
    def _mono_store(self, n=10):
        return _mono({
            "sy1": [f"ka{i} ka{i+1} ka{i+2}" for i in range(n)],
            "sy2": [f"bu{i} bu{i+1} bu{i+2}" for i in range(n)],
            "sy3": [f"zo{i} zo{i+1} zo{i+2}" for i in range(n)],
        })

    def test_constant_stub_model(self, monkeypatch):
        calls = []

        def stub(texts, rngs):
            calls.extend(texts)
            return ["Z"] * len(texts)

        _stub_decoder(monkeypatch, stub)
        mono = self._mono_store()
        out = make_bt_examples(
            None, None, mono, ["sy1", "sy2", "sy3"],
            BTConfig(num_sample=2), rng_fork(0, "bt"), num_bt=10,
        )
        assert len(out) == 30  # 10 sentences x 3 languages
        assert len(calls) == 30  # one decode per sentence, whatever num_sample is
        mono_texts = {s.text for s in mono.sentences}
        for ex in out:
            tag, payload = ex.input_text.split(" ", 1)
            assert payload == "Z"
            assert ex.target_text in mono_texts  # targets stay genuine
            assert ex.kind == "backtranslation"
            assert ex.pivot is not None and f"<{ex.pivot}>" != tag

    def test_num_sample_one_uses_single_candidate(self, monkeypatch):
        returned = []

        def stub(texts, rngs):
            returned.extend(f"out{i}" for i in range(len(texts)))
            return list(returned)

        _stub_decoder(monkeypatch, stub)
        out = make_bt_examples(
            None, None, self._mono_store(3), ["sy1", "sy2", "sy3"],
            BTConfig(num_sample=1), rng_fork(1, "bt"), num_bt=3,
        )
        payloads = {ex.input_text.split(" ", 1)[1] for ex in out}
        assert payloads == set(returned)  # every single candidate was chosen

    def test_pivot_respects_exclusions(self, monkeypatch):
        _stub_decoder(monkeypatch, lambda t, r: ["x"] * len(t))
        out = make_bt_examples(
            None, None, self._mono_store(5), ["sy1", "sy2", "sy3"],
            BTConfig(num_sample=1), rng_fork(2, "bt"), num_bt=20,
            exclusions=[("sy1", "sy2")],
        )
        for ex in out:
            tag = ex.input_text.split(" ", 1)[0]
            if tag == "<sy1>":
                assert ex.pivot == "sy3"
            if tag == "<sy2>":
                assert ex.pivot == "sy3"

    def test_no_eligible_pivot_is_error(self, monkeypatch):
        _stub_decoder(monkeypatch, lambda t, r: ["x"] * len(t))
        with pytest.raises(ConfigError):
            make_bt_examples(
                None, None, self._mono_store(2), ["sy1", "sy2"],
                BTConfig(), rng_fork(3, "bt"), num_bt=1,
                exclusions=[("sy1", "sy2")],
            )

    def test_reproducible(self, monkeypatch):
        _stub_decoder(monkeypatch, lambda texts, rngs: [f"w{int(r.integers(1000))}" for r in rngs])

        def run():
            return make_bt_examples(
                None, None, self._mono_store(8), ["sy1", "sy2", "sy3"],
                BTConfig(num_sample=2), rng_fork(5, "bt"), num_bt=8,
            )

        assert run() == run()

    def test_each_sample_draws_its_own_stream(self, monkeypatch):
        outputs = []

        def stub(texts, rngs):
            outputs.extend(f"w{int(r.integers(2**62))}" for r in rngs)
            return outputs[-len(rngs):]

        _stub_decoder(monkeypatch, stub)
        make_bt_examples(
            None, None, self._mono_store(), ["sy1", "sy2", "sy3"],
            BTConfig(num_sample=2), rng_fork(6, "bt"), num_bt=10,
        )
        # sentence i of a language draws from stream bt:<lang>:<i>:<k>, k its pick
        base_seed = int(rng_fork(6, "bt").integers(2**63))
        expected = []
        for code in ("sy1", "sy2", "sy3"):
            for index in range(10):
                item_rng = rng_fork(base_seed, f"bt:{code}:{index}")
                item_rng.integers(2)  # the pivot
                k = sample_categorical(np.full(2, 0.5), item_rng)
                stream = rng_fork(base_seed, f"bt:{code}:{index}:{k}")
                expected.append(f"w{int(stream.integers(2**62))}")
        assert outputs == expected
        assert len(set(outputs)) == 30

    def test_failed_decode_skips_its_sentence(self, caplog, monkeypatch):
        _stub_decoder(monkeypatch, lambda texts, rngs: [None if " ka" in t else "x" for t in texts])
        with caplog.at_level("WARNING", logger="mtlab.objectives"):
            out = make_bt_examples(
                None, None, self._mono_store(), ["sy1", "sy2", "sy3"],
                BTConfig(num_sample=2), rng_fork(7, "bt"), num_bt=4,
            )
        assert len(out) == 8
        assert not any(ex.target_text.startswith("ka") for ex in out)
        assert sum("skipping backtranslation" in r.message for r in caplog.records) == 4

    def test_one_decode_call_per_round(self, tiny_tokenizer, tiny_model_config, monkeypatch):
        params = M.init(tiny_model_config, seed=0)
        calls = []
        generate = decoding.generate

        def counting(params, tokenizer, texts, config, rng=None):
            calls.append((len(texts), len(rng)))
            return generate(params, tokenizer, texts, config, rng=rng)

        monkeypatch.setattr(decoding, "generate", counting)
        mono = _mono({"sy1": ["a b c", "c a b"], "sy2": ["b b a", "hello world"]})
        out = make_bt_examples(
            params, tiny_tokenizer, mono, ["sy1", "sy2"],
            BTConfig(num_sample=3), rng_fork(8, "bt"), num_bt=5,
        )
        assert calls == [(5 * 2, 5 * 2)]
        assert len(out) == 10

    @pytest.mark.parametrize("with_failure", [False, True])
    @pytest.mark.parametrize("num_sample", [1, 2, 3])
    def test_same_examples_as_decoding_every_candidate(
        self, tiny_tokenizer, tiny_model_config, num_sample, with_failure
    ):
        params = M.init(tiny_model_config, seed=1)
        texts = {"sy1": ["a b c", "c a b", "a c c b"], "sy2": ["b b a", "hello world"]}
        if with_failure:  # 24 pieces plus the pivot tag exceed max_positions 24
            texts["sy2"].append(" ".join(["a"] * 12))
        mono = _mono(texts)
        args = (mono, ["sy1", "sy2"])
        out = make_bt_examples(params, tiny_tokenizer, *args, BTConfig(num_sample=num_sample),
                               rng_fork(9, "bt"), num_bt=8)
        reference = _bt_reference(params, tiny_tokenizer, *args, num_sample,
                                  rng_fork(9, "bt"), num_bt=8)
        assert out == reference
        assert (len(out) < 16) == with_failure
        assert len({ex.input_text for ex in out}) > 4  # the samples differ

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
