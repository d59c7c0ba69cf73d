"""Generation: greedy/sample/beam behavior, the shared search loop, batch contracts."""

import numpy as np
import pytest

from mtlab import decoding, optim
from mtlab import model as M
from mtlab.decoding import MAX_ROWS, DecodeConfig, GenerationResult, generate, generate_batch
from mtlab.errors import ConfigError, DecodeError
from mtlab.numerics import backward, no_grad, rng_fork
from mtlab.tokenizer import PAD_ID

MODES = {
    "greedy": DecodeConfig(mode="greedy"),
    "sample": DecodeConfig(mode="sample", temperature=1.0),
    "beam": DecodeConfig(mode="beam", beam_size=3),
}


@pytest.fixture(scope="module")
def copy_model():
    """A model overfit on copy pairs; greedy must reproduce inputs."""
    from mtlab.tokenizer import train_subword

    sents = ["a b c", "c a b", "b b a", "a c c b", "c b a a b", "b c"]
    tok = train_subword([sents], 3 + 1 + 256 + 8, ["sy1"])
    cfg = M.ModelConfig(
        vocab_size=tok.vocab_size, d_model=32, n_heads=2, n_enc_layers=1,
        n_dec_layers=1, d_ff=64, max_positions=16, dropout=0.0,
    )
    params = M.init(cfg, seed=0)
    batch = M.make_batch(
        [tok.encode(f"<sy1> {s}") for s in sents],
        [tok.encode(s) for s in sents],
        cfg.pad_id,
    )
    state = optim.AdamWState(params)
    flat_grad = np.empty(params.flat.size)
    for step in range(1, 401):
        loss = M.loss_teacher_forcing(params, batch)
        grads = backward(loss, list(params.tensors.values()))
        optim.adamw_step(params, params.flat_grad(grads, flat_grad), state, step, 3e-3)
    assert loss.item() < 0.05
    return params, tok, sents


class TestConfig:
    def test_invalid_configs(self):
        with pytest.raises(ConfigError):
            DecodeConfig(max_new_tokens=0)
        with pytest.raises(ConfigError):
            DecodeConfig(mode="fancy")
        with pytest.raises(ConfigError):
            DecodeConfig(mode="sample", temperature=0.0)
        for mode in ("sample", "greedy"):
            for temperature in (float("nan"), float("inf")):
                with pytest.raises(ConfigError, match="temperature"):
                    DecodeConfig(mode=mode, temperature=temperature)
        with pytest.raises(ConfigError):
            DecodeConfig(mode="beam", beam_size=MAX_ROWS + 1)


class TestGreedy:
    def test_copy_model_reproduces_input(self, copy_model):
        params, tok, sents = copy_model
        for s in sents:
            out = generate(params, tok, f"<sy1> {s}", DecodeConfig(mode="greedy"))
            assert out.text == s
            assert not out.truncated

    def test_deterministic(self, copy_model):
        params, tok, _ = copy_model
        a = generate(params, tok, "<sy1> a b c", DecodeConfig())
        b = generate(params, tok, "<sy1> a b c", DecodeConfig())
        assert a.text == b.text and a.token_ids == b.token_ids

    def test_never_emits_pad_or_tags(self, copy_model):
        params, tok, sents = copy_model
        for s in sents:
            out = generate(params, tok, f"<sy1> {s}", DecodeConfig())
            assert PAD_ID not in out.token_ids
            assert not set(out.token_ids) & set(tok.tag_ids)

    def test_output_is_valid_text(self, copy_model):
        params, tok, _ = copy_model
        out = generate(params, tok, "<sy1> b c", DecodeConfig())
        out.text.encode("utf-8")  # must not raise

    def test_too_long_input_rejected(self, copy_model):
        params, tok, _ = copy_model
        with pytest.raises(DecodeError):
            generate(params, tok, "<sy1> " + "a " * 40, DecodeConfig())


def _teacher_forced_score(params, tok, text, ids):
    """Mean log-softmax of ids + eos in one teacher-forced pass, pad and tags masked."""
    tgt = list(ids) + [params.config.eos_id]
    batch = M.make_batch([tok.encode(text)], [tgt], params.config.pad_id)
    with no_grad():
        logits = M.forward_logits(params, batch).data[0].astype(np.float64)
    logits[:, [PAD_ID, *tok.tag_ids]] = -np.inf
    logps = logits - logits.max(axis=1, keepdims=True)
    logps -= np.log(np.exp(logps).sum(axis=1, keepdims=True))
    return float(logps[np.arange(len(tgt)), tgt].mean())


class TestEveryMode:
    @pytest.mark.parametrize("mode", list(MODES))
    def test_truncation_flagged(self, copy_model, mode):
        params, tok, _ = copy_model
        config = DecodeConfig(mode=mode, max_new_tokens=1)
        out = generate(params, tok, "<sy1> a b c", config, rng=rng_fork(0, 0))
        assert out.truncated
        assert len(out.token_ids) == 1

    @pytest.mark.parametrize("mode", list(MODES))
    def test_score_is_mean_logp_per_token(self, copy_model, mode):
        params, tok, sents = copy_model
        for i, s in enumerate(sents):
            text = f"<sy1> {s}"
            out = generate(params, tok, text, MODES[mode], rng=rng_fork(0, i))
            assert not out.truncated
            expected = _teacher_forced_score(params, tok, text, out.token_ids)
            assert out.score == pytest.approx(expected, abs=1e-4)


class TestSampling:
    def test_tiny_temperature_equals_greedy(self, copy_model):
        params, tok, sents = copy_model
        for s in sents[:3]:
            g = generate(params, tok, f"<sy1> {s}", DecodeConfig(mode="greedy"))
            smp = generate(
                params, tok, f"<sy1> {s}",
                DecodeConfig(mode="sample", temperature=1e-5), rng=rng_fork(0, 1),
            )
            assert smp.token_ids == g.token_ids

    def test_sampling_reproducible_per_stream(self, copy_model):
        params, tok, _ = copy_model
        cfg = DecodeConfig(mode="sample", temperature=1.5)
        a = generate(params, tok, "<sy1> a b c", cfg, rng=rng_fork(3, "s"))
        b = generate(params, tok, "<sy1> a b c", cfg, rng=rng_fork(3, "s"))
        assert a.token_ids == b.token_ids

    def test_sampling_requires_rng(self, copy_model):
        params, tok, _ = copy_model
        with pytest.raises(DecodeError):
            generate(params, tok, "<sy1> a", DecodeConfig(mode="sample"))
        with pytest.raises(DecodeError):
            generate(params, tok, ["<sy1> a", "<sy1> b"], DecodeConfig(mode="sample"))


class TestBeam:
    def test_beam_one_equals_greedy(self, copy_model):
        params, tok, sents = copy_model
        for s in sents:
            g = generate(params, tok, f"<sy1> {s}", DecodeConfig(mode="greedy"))
            b = generate(params, tok, f"<sy1> {s}", DecodeConfig(mode="beam", beam_size=1))
            assert b.token_ids == g.token_ids

    def test_beam_finds_copy(self, copy_model):
        params, tok, sents = copy_model
        out = generate(params, tok, "<sy1> c a b", DecodeConfig(mode="beam", beam_size=4))
        assert out.text == "c a b"
        assert out.score == pytest.approx(
            _teacher_forced_score(params, tok, "<sy1> c a b", out.token_ids), abs=1e-4
        )


class TestBatch:
    def test_identical_inputs_identical_outputs(self, copy_model):
        params, tok, _ = copy_model
        results = generate_batch(params, tok, ["<sy1> a b c"] * 5, DecodeConfig(), seed=0)
        assert len({r.text for r in results}) == 1

    def test_matches_single_generation(self, copy_model):
        params, tok, sents = copy_model
        inputs = [f"<sy1> {s}" for s in sents]
        cfg = DecodeConfig(mode="sample", temperature=1.2)
        batch = generate_batch(params, tok, inputs, cfg, seed=11)
        singles = [
            generate(params, tok, text, cfg, rng=rng_fork(11, i))
            for i, text in enumerate(inputs)
        ]
        assert [r.token_ids for r in batch] == [r.token_ids for r in singles]

    def test_partition_invariance(self, copy_model):
        params, tok, sents = copy_model
        inputs = [f"<sy1> {s}" for s in sents]
        cfg = DecodeConfig(mode="sample", temperature=1.2)
        whole = generate_batch(params, tok, inputs, cfg, seed=4)
        # outputs must not depend on what else is in the batch
        first = generate_batch(params, tok, inputs[:2], cfg, seed=4)
        assert [r.token_ids for r in whole[:2]] == [r.token_ids for r in first]

    def test_per_item_errors_do_not_fail_batch(self, copy_model):
        params, tok, _ = copy_model
        inputs = ["<sy1> a b", "<sy1> " + "a " * 40]
        results = generate_batch(params, tok, inputs, DecodeConfig(), seed=0)
        assert results[0].error is None
        assert results[1].error is not None
        assert isinstance(results[1], GenerationResult)


def _mixed_request(sents):
    """Sources of different lengths with an over-long one in the middle."""
    inputs = [f"<sy1> {s}" for s in sents]
    return inputs[:3] + ["<sy1> " + "a " * 40] + inputs[3:]


def _count_rows(monkeypatch):
    """Record the rows of every decoder call."""
    rows = []
    decoder_logits = M.decoder_logits

    def counting(params, enc_out, src_mask, dec_in_ids, *args, **kwargs):
        assert enc_out.shape[0] == src_mask.shape[0] == dec_in_ids.shape[0]
        rows.append(dec_in_ids.shape[0])
        return decoder_logits(params, enc_out, src_mask, dec_in_ids, *args, **kwargs)

    monkeypatch.setattr(M, "decoder_logits", counting)
    return rows


class TestBatchedRows:
    @pytest.mark.parametrize("mode", list(MODES))
    def test_mixed_request_matches_per_item_generation(self, copy_model, mode):
        params, tok, sents = copy_model
        inputs = _mixed_request(sents)
        batch = generate_batch(params, tok, inputs, MODES[mode], seed=5)
        assert batch[3].error is not None and batch[3].token_ids == []
        for i, (text, r) in enumerate(zip(inputs, batch)):
            if i == 3:
                continue
            single = generate(params, tok, text, MODES[mode], rng=rng_fork(5, i))
            assert r.error is None
            assert (r.token_ids, r.truncated) == (single.token_ids, single.truncated)
            assert r.score == pytest.approx(single.score, abs=1e-5)

    def test_one_call_per_step_holds_exactly_the_live_rows(self, copy_model, monkeypatch):
        params, tok, sents = copy_model
        rows = _count_rows(monkeypatch)
        out = generate_batch(params, tok, _mixed_request(sents), DecodeConfig())
        # decoder steps per item: its tokens, plus the eos that ended it
        steps = [len(r.token_ids) + (0 if r.truncated else 1) for r in out if r.error is None]
        assert len(set(steps)) > 1
        assert rows == [sum(n > k for n in steps) for k in range(max(steps))]

    def test_request_above_row_cap_equals_its_slices(self, copy_model, monkeypatch):
        params, tok, sents = copy_model
        inputs = [f"<sy1> {s}" for s in sents] * 23  # 138 items, over two caps
        rows = _count_rows(monkeypatch)
        whole = generate(params, tok, inputs, DecodeConfig())
        assert max(rows) == MAX_ROWS
        parts = [
            r for start in range(0, len(inputs), 50)
            for r in generate(params, tok, inputs[start : start + 50], DecodeConfig())
        ]
        assert [r.token_ids for r in whole] == [r.token_ids for r in parts]

    def test_request_above_row_cap_is_sliced_by_source_length(self, copy_model, monkeypatch):
        params, tok, sents = copy_model
        # 139 items of mixed lengths in caller order, one of them over-long
        inputs = _mixed_request(sents) + [f"<sy1> {s}" for s in sents] * 22
        per_item = {t: generate(params, tok, t, DecodeConfig()) for t in set(inputs) - {inputs[3]}}
        rows = _count_rows(monkeypatch)
        in_caller_order = [
            r for start in range(0, len(inputs), MAX_ROWS)
            for r in generate(params, tok, inputs[start : start + MAX_ROWS], DecodeConfig())
        ]
        calls_in_caller_order = len(rows)
        rows.clear()
        whole = generate(params, tok, inputs, DecodeConfig())
        assert len(rows) < calls_in_caller_order
        assert whole[3].error is not None
        for i, (text, r) in enumerate(zip(inputs, whole)):
            if i != 3:
                single = per_item[text]
                assert (r.token_ids, r.truncated) == (single.token_ids, single.truncated)
        assert [r.token_ids for r in whole] == [r.token_ids for r in in_caller_order]

    @pytest.mark.parametrize("mode", list(MODES))
    def test_small_row_cap_keeps_every_mode_per_item(self, copy_model, monkeypatch, mode):
        params, tok, sents = copy_model
        inputs = _mixed_request(sents)
        whole = generate_batch(params, tok, inputs, MODES[mode], seed=2)
        monkeypatch.setattr(decoding, "MAX_ROWS", 4)
        rows = _count_rows(monkeypatch)
        capped = generate_batch(params, tok, inputs, MODES[mode], seed=2)
        assert max(rows) <= 4
        assert [(r.token_ids, r.error) for r in capped] == [(r.token_ids, r.error) for r in whole]
