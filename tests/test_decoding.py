"""Generation: greedy/sample/beam behavior and batch contracts."""

import numpy as np
import pytest

from mtlab import model as M
from mtlab import optim
from mtlab.decoding import DecodeConfig, GenerationResult, generate, generate_batch
from mtlab.errors import ConfigError, DecodeError
from mtlab.numerics import backward, rng_fork
from mtlab.tokenizer import PAD_ID


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
    ocfg = optim.AdamWConfig(lr=3e-3)
    names = list(params.tensors.items())
    for _ in range(400):
        loss = M.loss_teacher_forcing(params, batch)
        grads = backward(loss, [t for _, t in names])
        optim.adamw_step(params, {n: grads[t] for n, t in names}, state, ocfg)
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

    def test_truncation_flagged(self, copy_model):
        params, tok, _ = copy_model
        out = generate(params, tok, "<sy1> a b c", DecodeConfig(max_new_tokens=1))
        assert out.truncated


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
        assert out.score is not None


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
