"""Training orchestration: curricula, determinism, early stop, resume."""

import builtins
import json
import os
from collections import Counter
from dataclasses import fields, is_dataclass

import numpy as np
import pytest

from mtlab import checkpoint as ckpt
from mtlab import harness, optim
from mtlab import model as M
from mtlab.config import PRESETS, build_experiment_config, parse_config_file
from mtlab.corpus import LangTag, MonoSentence, MonoStore, ParallelStore
from mtlab.errors import CheckpointError, ConfigError
from mtlab.harness import (
    RUN_FILES,
    ComparisonTable,
    ExperimentConfig,
    RunLog,
    compare_settings,
    load_model,
    run_experiment,
)
from mtlab.numerics import backward, rng_fork
from mtlab.objectives import (
    BTConfig,
    FinetuneSetting,
    RECConfig,
    build_directions,
    format_translation,
)
from mtlab.optim import AdamWConfig
from mtlab.synth import SyntheticLangSpec, gen_synthetic
from mtlab.tokenizer import SubwordModel, train_subword


@pytest.fixture(scope="module")
def small_world():
    specs = [
        SyntheticLangSpec("sy1", 1, "ka", concept_vocab_size=30),
        SyntheticLangSpec("sy2", 2, "bu", concept_vocab_size=30),
        SyntheticLangSpec("sy3", 3, "zo", concept_vocab_size=30),
    ]
    parallel, mono, truth = gen_synthetic(
        specs, 40, 30, (2, 5), seed=1, n_dev_per_direction=3, n_test_per_direction=4
    )
    texts = [p.src_text for p in parallel.pairs] + [p.tgt_text for p in parallel.pairs]
    texts += [s.text for s in mono.sentences]
    tokenizer = train_subword([texts], 3 + 3 + 256 + 120, ["sy1", "sy2", "sy3"])
    return specs, parallel, mono, tokenizer


def _jsonl(path):
    with open(path, encoding="utf-8") as f:
        return [json.loads(line) for line in f]


def _config(setting=FinetuneSetting.BASE, **kw):
    defaults = dict(
        languages=("sy1", "sy2", "sy3"),
        setting=setting,
        epochs=2,
        model=M.ModelConfig(d_model=32, n_heads=2, n_enc_layers=1, n_dec_layers=1,
                            d_ff=48, max_positions=24, dropout=0.1),
        bt=BTConfig(num_bt=5, num_sample=2, start_epoch=2),
        rec=RECConfig(num_rec=4),
        optimizer=AdamWConfig(lr=1e-3),
        warmup_steps=10,
        batch_size_sentences=16,
        eval_every_steps=10,
        seed=11,
    )
    defaults.update(kw)
    return ExperimentConfig(**defaults)


class TestRunExperiment:
    def test_base_setting_has_no_bt_or_rec_rounds(self, small_world):
        _, parallel, mono, tokenizer = small_world
        params, log = run_experiment(_config(FinetuneSetting.BASE), parallel, mono, tokenizer)
        assert log.entries_of("bt_round") == []
        assert log.entries_of("rec_round") == []
        assert log.entries_of("finish")

    def test_bt_round_schedule_and_decay(self, small_world):
        _, parallel, mono, tokenizer = small_world
        config = _config(
            FinetuneSetting.BT_REC,
            epochs=3,
            bt=BTConfig(num_bt=999, num_bt_decay=(6, 4, 2), num_sample=1, start_epoch=1),
        )
        params, log = run_experiment(config, parallel, mono, tokenizer)
        rounds = log.entries_of("bt_round")
        assert [r["epoch"] for r in rounds] == [1, 2, 3]
        assert [r["num_bt"] for r in rounds] == [6, 4, 2]
        assert [r["emitted"] for r in rounds] == [18, 12, 6]  # x 3 mono languages
        recs = log.entries_of("rec_round")
        assert [r["epoch"] for r in recs] == [1, 2, 3]
        assert all(r["emitted"] == 12 for r in recs)  # num_rec=4 x 3 languages

    def test_bt_only_setting_skips_rec(self, small_world):
        _, parallel, mono, tokenizer = small_world
        config = _config(FinetuneSetting.BT, epochs=2, bt=BTConfig(num_bt=3, start_epoch=2))
        _, log = run_experiment(config, parallel, mono, tokenizer)
        assert len(log.entries_of("bt_round")) == 1
        assert log.entries_of("rec_round") == []

    def test_identical_seed_identical_trace(self, small_world):
        _, parallel, mono, tokenizer = small_world
        config = _config(FinetuneSetting.BT_REC, epochs=2)
        _, log_a = run_experiment(config, parallel, mono, tokenizer)
        _, log_b = run_experiment(config, parallel, mono, tokenizer)
        assert log_a.loss_trace == log_b.loss_trace

    def test_different_seed_different_trace(self, small_world):
        _, parallel, mono, tokenizer = small_world
        _, log_a = run_experiment(_config(seed=1), parallel, mono, tokenizer)
        _, log_b = run_experiment(_config(seed=2), parallel, mono, tokenizer)
        assert log_a.loss_trace != log_b.loss_trace

    def test_early_stopping(self, small_world):
        _, parallel, mono, tokenizer = small_world
        config = _config(
            epochs=4, patience_evals=1, eval_every_steps=2,
            optimizer=AdamWConfig(lr=2.0),  # divergent on purpose
        )
        _, log = run_experiment(config, parallel, mono, tokenizer)
        assert log.entries_of("early_stop")
        evals = log.entries_of("eval")
        best = min(e["dev_loss"] for e in evals)
        non_improving = 0
        for e in evals:
            non_improving = 0 if e["improved"] else non_improving + 1
        assert non_improving >= 1

    def test_best_checkpoint_returned(self, small_world):
        _, parallel, mono, tokenizer = small_world
        config = _config(epochs=2, eval_every_steps=5)
        params, log = run_experiment(config, parallel, mono, tokenizer)
        # dev loss of returned params equals the best eval seen
        from mtlab.harness import _dev_loss, _encode_examples

        dev = [
            format_translation(p) for p in parallel.pairs
            if p.split == "dev" and p.direction.key != "excluded"
        ]
        got = _dev_loss(params, _encode_examples(tokenizer, dev, params.config.max_positions), 16)
        best = min(e["dev_loss"] for e in log.entries_of("eval"))
        assert got == pytest.approx(best, abs=1e-6)

    def test_each_train_and_dev_text_encoded_once(self, small_world, tmp_path, monkeypatch):
        _, parallel, mono, tokenizer = small_world
        calls = Counter()
        encode = SubwordModel.encode

        def counting_encode(self, text):
            calls[text] += 1
            return encode(self, text)

        monkeypatch.setattr(SubwordModel, "encode", counting_encode)
        config = _config(FinetuneSetting.BT_REC, epochs=3, eval_every_steps=4,
                         bt=BTConfig(num_bt=5, num_sample=2, start_epoch=2))
        run_experiment(config, parallel, mono, tokenizer, checkpoint_dir=tmp_path)
        texts = set()
        for p in parallel.pairs:
            if p.split in ("train", "dev"):
                ex = format_translation(p)
                texts |= {ex.input_text, ex.target_text}
        # a BT or REC example may repeat a translation text; its round encodes it anew
        for rec in _jsonl(tmp_path / "augmentation_audit.jsonl"):
            texts -= {rec["input"], rec["target"]}
        assert len(texts) > 200
        assert {t: calls[t] for t in texts if calls[t] != 1} == {}

    def test_schedule_counts_every_step(self, small_world):
        # 16 pairs, 2 languages with monolingual data, num_bt 10, batch 2 accumulated 8:
        # one step per epoch's 8 micro-batches and one for the rest, 1 + 3 + 3
        _, parallel, mono, tokenizer = small_world
        pairs = [p for p in parallel.pairs if p.split == "train"
                 and {p.direction.src.code, p.direction.tgt.code} == {"sy1", "sy2"}]
        config = _config(
            FinetuneSetting.BT, languages=("sy1", "sy2"), epochs=3, batch_size_sentences=2,
            accumulation_factor=8, eval_every_steps=1000,
            bt=BTConfig(num_bt=10, num_sample=1, start_epoch=2),
        )
        _, log = run_experiment(config, ParallelStore(tuple(pairs[:16])), mono, tokenizer)
        steps = log.entries_of("step")
        assert len(steps) == log.entries_of("start")[0]["total_steps"] == 7
        assert steps[-1]["lr"] > 0

    def test_schedule_counts_bt_rec_rounds_with_decay(self, small_world):
        # BT&REC from epoch 2 with a decay list; sy3 has no monolingual data, so each
        # round covers sy1 and sy2 only, and the lr schedule must count just those
        _, parallel, mono, tokenizer = small_world
        no_sy3 = MonoStore(tuple(s for s in mono.sentences if s.lang.code != "sy3"))
        config = _config(
            FinetuneSetting.BT_REC, epochs=4, batch_size_sentences=8, accumulation_factor=2,
            eval_every_steps=1000, rec=RECConfig(num_rec=5),
            bt=BTConfig(num_bt=99, num_bt_decay=(6, 3), num_sample=1, start_epoch=2),
        )
        _, log = run_experiment(config, parallel, no_sy3, tokenizer)
        rounds = log.entries_of("bt_round")
        assert [(r["epoch"], r["round"], r["num_bt"]) for r in rounds] == [
            (2, 0, 6), (3, 1, 3), (4, 2, 3)
        ]
        assert [(r["emitted"], r["skipped"]) for r in rounds] == [(12, 0), (6, 0), (6, 0)]
        assert [r["emitted"] for r in log.entries_of("rec_round")] == [10, 10, 10]
        n = log.entries_of("start")[0]["train_examples"]
        sizes = [n, n + 2 * (6 + 5), n + 2 * (3 + 5), n + 2 * (3 + 5)]
        assert [e["examples"] for e in log.entries_of("epoch")] == sizes
        steps = log.entries_of("step")
        assert len(steps) == log.entries_of("start")[0]["total_steps"]
        assert len(steps) == sum(-(-k // 16) for k in sizes)

    def test_ragged_last_step_takes_the_rest_of_the_epoch(self, small_world, monkeypatch):
        # 16 pairs, batch 5 accumulated 2: a step of 10 sentences, then one of 6
        _, parallel, mono, tokenizer = small_world
        pairs = [p for p in parallel.pairs if p.split == "train"
                 and {p.direction.src.code, p.direction.tgt.code} == {"sy1", "sy2"}][:16]
        config = _config(languages=("sy1", "sy2"), epochs=1, batch_size_sentences=5,
                         accumulation_factor=2, eval_every_steps=1000)
        sizes = []
        train_step = harness._train_step

        def counting_step(config, run, epoch, pairs, lr):
            sizes.append(len(pairs))
            return train_step(config, run, epoch, pairs, lr)

        monkeypatch.setattr(harness, "_train_step", counting_step)
        _, log = run_experiment(config, ParallelStore(tuple(pairs)), mono, tokenizer)
        steps = log.entries_of("step")
        assert len(steps) == log.entries_of("start")[0]["total_steps"] == 2
        assert sizes == [10, 6]
        targets = [tokenizer.encode(format_translation(p).target_text) for p in pairs]
        assert sum(e["tokens"] for e in steps) == sum(map(len, targets))

    def test_step_logs_gradient_norm(self, small_world):
        _, parallel, mono, tokenizer = small_world
        model = M.ModelConfig(vocab_size=tokenizer.vocab_size, d_model=32, n_heads=2,
                              n_enc_layers=1, n_dec_layers=1, d_ff=48, max_positions=24,
                              dropout=0.0)
        config = _config(epochs=1, model=model, batch_size_sentences=10_000)
        init = M.init(model, seed=4)
        _, log = run_experiment(config, parallel, mono, tokenizer, init_params=init)
        [step] = log.entries_of("step")
        wanted = {d.key for d in build_directions(config.languages, ())}
        examples = [format_translation(p) for p in parallel.pairs
                    if p.split == "train" and p.direction.key in wanted]
        assert step["tokens"] == sum(len(tokenizer.encode(ex.target_text)) for ex in examples)
        batch = M.make_batch([tokenizer.encode(ex.input_text) for ex in examples],
                             [tokenizer.encode(ex.target_text) for ex in examples], 0)
        loss = M.loss_teacher_forcing(init, batch)
        grads = backward(loss, list(init.tensors.values()))
        norm = np.sqrt(sum(np.sum(g.astype(np.float64) ** 2) for g in grads.values()))
        assert step["grad_norm"] == pytest.approx(norm, rel=1e-5)
        # one micro-batch of every example, so its padding whatever their order
        real = batch.src_mask.sum() + batch.tgt_mask.sum()
        assert step["pad_share"] == pytest.approx(
            1 - real / (batch.src_ids.size + batch.tgt_ids.size))

    def test_in_place_step_equals_whole_array_arithmetic(self, small_world, tmp_path,
                                                         monkeypatch):
        # three micro-batches per step, fewer in an epoch's last step
        _, parallel, mono, tokenizer = small_world
        config = _config(FinetuneSetting.BT_REC, accumulation_factor=3, batch_size_sentences=6)
        buffers = []
        train_step = harness._train_step

        def recording_step(config, run, *args):
            out = train_step(config, run, *args)
            buffers.append(run.grad)
            return out

        monkeypatch.setattr(harness, "_train_step", recording_step)
        params, log = run_experiment(config, parallel, mono, tokenizer,
                                     checkpoint_dir=tmp_path)
        monkeypatch.setattr(harness, "_train_step", _whole_array_train_step)
        ref_params, ref_log = run_experiment(config, parallel, mono, tokenizer)
        steps, ref_steps = log.entries_of("step"), ref_log.entries_of("step")
        assert len(steps) == len(ref_steps) == len(buffers) > 2
        for key in ("loss", "grad_norm"):
            assert [e[key].hex() for e in steps] == [e[key].hex() for e in ref_steps], key
        assert params.flat.tobytes() == ref_params.flat.tobytes()
        assert all(b is buffers[0] for b in buffers)
        arrays, _ = ckpt.load_arrays(tmp_path / "run.ckpt")
        assert {a.dtype for a in arrays.values()} == {np.dtype(np.float32)}

    def test_overlong_mono_sentence_skipped_in_bt(self, small_world, caplog):
        _, parallel, mono, tokenizer = small_world
        sy1_words = " ".join(s.text for s in mono.sentences if s.lang.code == "sy1").split()
        long_text = " ".join(sy1_words[:30])
        assert len(tokenizer.encode(f"<sy2> {long_text}")) > 24  # max_positions
        sy1 = LangTag("sy1")
        mono_long = MonoStore(
            tuple(s for s in mono.sentences if s.lang != sy1) + (MonoSentence(sy1, long_text),)
        )
        config = _config(
            FinetuneSetting.BT, epochs=1, bt=BTConfig(num_bt=3, num_sample=1, start_epoch=1)
        )
        with caplog.at_level("WARNING", logger="mtlab.objectives"):
            _, log = run_experiment(config, parallel, mono_long, tokenizer)
        (bt_round,) = log.entries_of("bt_round")
        assert bt_round["num_bt"] == 3
        assert bt_round["emitted"] == 6  # sy2 and sy3 only; every sy1 pick is over-long
        assert bt_round["skipped"] == 3
        assert sum("skipping backtranslation" in r.message for r in caplog.records) == 3
        assert log.entries_of("finish")

    def test_bt_pivots_include_languages_without_monolingual_data(self, small_world, tmp_path):
        _, parallel, mono, tokenizer = small_world
        sy1_only = MonoStore(tuple(s for s in mono.sentences if s.lang.code == "sy1"))
        config = _config(
            FinetuneSetting.BT, epochs=1, bt=BTConfig(num_bt=6, num_sample=1, start_epoch=1)
        )
        run_experiment(config, parallel, sy1_only, tokenizer, checkpoint_dir=tmp_path / "run")
        audit = _jsonl(tmp_path / "run" / "augmentation_audit.jsonl")
        assert len(audit) == 6
        assert all(e["target"] in {s.text for s in sy1_only.sentences} for e in audit)
        assert {e["pivot"] for e in audit} <= {"sy2", "sy3"}

    def test_config_validation_precedes_training(self, small_world, monkeypatch):
        # a config is checked when built, so no bad one reaches run_experiment
        for key, value, message in [
            ("epochs", 0, "epochs"), ("bt_workers", 2, "bt_workers"),
            ("warmup_steps", -1, "warmup_steps"), ("accumulation_factor", 0, "accumulation"),
            ("languages", ("sy1",), "2 languages"), ("languages", ("sy1", "sy2", "sy1"), "duplicate"),
            ("languages", ("sy1", "fr"), "languages: .*'fr'"),
            ("exclusions", (("sy1", "zz"),), "exclusions: .*'zz'"),
        ]:
            with pytest.raises(ConfigError, match=message):
                _config(**{key: value})
        with pytest.raises(ConfigError, match="d_model"):
            _config(model=M.ModelConfig(d_model=30, n_heads=4))
        with pytest.raises(ConfigError, match="n_heads"):
            build_experiment_config({"languages": "sy1,sy2,sy3", "model.n_heads": "0"})
        # a vocabulary other than the tokenizer's is refused before any text is encoded
        _, parallel, mono, tokenizer = small_world
        monkeypatch.setattr(harness, "_encode_examples", None)
        for vocab_size in (tokenizer.vocab_size - 1, tokenizer.vocab_size + 1):
            config = _config(model=M.ModelConfig(vocab_size=vocab_size))
            with pytest.raises(ConfigError, match="vocab_size"):
                run_experiment(config, parallel, mono, tokenizer)

    def test_run_language_without_tokenizer_tag_rejected(self, small_world):
        # "<zzz>" is not a tag of this tokenizer; it would be encoded as bytes
        _, parallel, mono, tokenizer = small_world
        config = _config(languages=("sy1", "sy2", "zzz"), epochs=1)
        with pytest.raises(ConfigError, match="zzz"):
            run_experiment(config, parallel, mono, tokenizer)


def _whole_array_train_step(config, run, epoch, pairs, lr):
    """``harness._train_step`` with its gradient arithmetic as whole-array
    expressions: each micro-batch's gradients concatenated to float64 in the
    layout of ``Params.flat`` and times its tokens, summed, then divided by
    the step's tokens."""
    order = sorted(run.params.tensors, key=lambda k: run.params[k].ndim < 2)
    loss_sum, tokens = 0.0, 0
    for start in range(0, len(pairs), config.batch_size_sentences):
        batch = harness._make_batch(pairs[start : start + config.batch_size_sentences])
        run.trainer.micro_step += 1
        drop_rng = rng_fork(config.seed, f"dropout:{run.trainer.micro_step}")
        loss = M.loss_teacher_forcing(run.params, batch, dropout_rng=drop_rng)
        n_tok = int(batch.tgt_mask.sum())
        grads = backward(loss, list(run.params.tensors.values()))
        grad = np.concatenate([grads[run.params[k]].reshape(-1) for k in order],
                              dtype=np.float64) * n_tok
        grad_sum = grad_sum + grad if start else grad
        loss_sum += loss.item() * n_tok
        tokens += n_tok
    mean_grad = grad_sum / tokens
    optim.adamw_step(run.params, mean_grad, run.opt_state, run.trainer.opt_step + 1, lr)
    run.trainer.opt_step += 1
    entry = dict(type="step", step=run.trainer.opt_step, epoch=epoch, loss=loss_sum / tokens,
                 lr=lr, tokens=tokens, grad_norm=float(np.sqrt(np.dot(mean_grad, mean_grad))))
    return entry, loss_sum


class TestEpochOrder:
    """``_epoch_order``: windows of step slices sorted by length, slices shuffled."""

    @pytest.fixture(scope="class")
    def pairs(self, small_world):
        # a 3-7-word store of the small world's languages, encoded
        specs, _, _, tokenizer = small_world
        parallel, _, _ = gen_synthetic(specs, 40, 0, (3, 7), seed=3)
        examples = [format_translation(p) for p in parallel.pairs]
        return harness._encode_examples(tokenizer, examples, 64)

    @staticmethod
    def _key(pair):
        return tuple(pair[0]), tuple(pair[1])

    @staticmethod
    def _pad_share(stream, batch, accumulation):
        # padding share of the full step slices' micro-batches
        size = batch * accumulation
        positions = real = 0
        for start in range(0, len(stream) - len(stream) % size, batch):
            b = M.make_batch(*zip(*stream[start : start + batch]), 0)
            positions += b.src_ids.size + b.tgt_ids.size
            real += b.src_mask.sum() + b.tgt_mask.sum()
        return 1 - real / positions

    def test_stream_is_a_permutation_of_the_pairs(self, pairs):
        stream = harness._epoch_order(_config(batch_size_sentences=7), 1, pairs)
        assert Counter(map(self._key, stream)) == Counter(map(self._key, pairs))

    def test_short_slice_comes_last(self, pairs):
        # 100 pairs, slices of 4 * 2: one window of 12 full slices and a short one of 4,
        # the window's longest examples
        config = _config(batch_size_sentences=4, accumulation_factor=2)
        stream = harness._epoch_order(config, 1, pairs[:100])
        lengths = [(len(t), len(s)) for s, t in stream]
        assert min(lengths[96:]) >= max(lengths[:96])
        assert lengths[:96] != sorted(lengths[:96])  # the full slices are shuffled

    def test_same_seed_and_epoch_give_the_same_stream(self, pairs):
        config = _config(batch_size_sentences=5)
        first = harness._epoch_order(config, 2, pairs)
        assert harness._epoch_order(config, 2, pairs) == first
        assert harness._epoch_order(config, 3, pairs) != first
        assert harness._epoch_order(_config(batch_size_sentences=5, seed=12), 2, pairs) != first

    def test_full_slices_pad_less_than_a_uniform_shuffle(self, pairs):
        config = _config(batch_size_sentences=8, accumulation_factor=2)
        uniform = [pairs[i] for i in rng_fork(config.seed, "shuffle:1").permutation(len(pairs))]
        bucketed = harness._epoch_order(config, 1, pairs)
        assert self._pad_share(bucketed, 8, 2) < self._pad_share(uniform, 8, 2)


class _Crash(Exception):
    """A simulated process death at one write."""


class _TornFile:
    """A file whose process dies in its first write, half of it written,
    or at close if nothing was written."""

    def __init__(self, f):
        self._f = f

    def write(self, data):
        self._f.write(data[: len(data) // 2])
        self._f.close()
        raise _Crash

    def close(self):
        if not self._f.closed:
            self._f.close()
            raise _Crash

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()


class _WriteInjector:
    """Numbers the writes under ``directory``: files opened for writing and
    renames onto a path. The ``crash_at``-th write dies: a file keeps half
    of its first write, a rename does not happen."""

    def __init__(self, directory, crash_at=None):
        self.directory = os.fspath(directory)
        self.crash_at = crash_at
        self.events = []
        self._open = builtins.open
        self._replace = os.replace

    def install(self, monkeypatch):
        monkeypatch.setattr(builtins, "open", self.open)
        monkeypatch.setattr(os, "replace", self.replace)

    def _crashes(self, kind, path):
        self.events.append((kind, os.path.basename(path)))
        return len(self.events) - 1 == self.crash_at

    def open(self, file, mode="r", *args, **kwargs):
        f = self._open(file, mode, *args, **kwargs)
        mine = os.fspath(file).startswith(self.directory)
        if mine and set(mode) & set("wa+") and self._crashes("write", file):
            return _TornFile(f)
        return f

    def replace(self, src, dst, *args, **kwargs):
        if os.fspath(dst).startswith(self.directory) and self._crashes("rename", dst):
            raise _Crash
        return self._replace(src, dst, *args, **kwargs)


class _Stop(Exception):
    """The end of a run stopped after an epoch's checkpoint."""


def _stop_after_epoch(k, *args, **kwargs):
    """Run ``run_experiment`` until epoch ``k``'s checkpoint is written, then stop it there."""
    save_run = harness._save_run

    def save_then_stop(directory, config, run, tokenizer):
        save_run(directory, config, run, tokenizer)
        if run.trainer.epoch_done >= k:
            raise _Stop

    with pytest.MonkeyPatch.context() as m:
        m.setattr(harness, "_save_run", save_then_stop)
        with pytest.raises(_Stop):
            run_experiment(*args, **kwargs)


class TestCheckpointResume:
    def test_resume_reproduces_trace(self, small_world, tmp_path):
        # The decay schedule makes each BT round's budget depend on its index.
        _, parallel, mono, tokenizer = small_world
        config = _config(
            FinetuneSetting.BT_REC, epochs=4, eval_every_steps=7,
            bt=BTConfig(num_bt=5, num_bt_decay=(5, 3, 2), num_sample=2, start_epoch=2),
        )

        params_full, log_full = run_experiment(
            config, parallel, mono, tokenizer, checkpoint_dir=tmp_path / "full"
        )

        resume_dir = tmp_path / "run"
        _stop_after_epoch(2, config, parallel, mono, tokenizer, checkpoint_dir=resume_dir)
        params_resumed, log_resumed = run_experiment(
            config, parallel, mono, tokenizer, checkpoint_dir=resume_dir, resume=True
        )
        assert log_resumed.loss_trace == log_full.loss_trace
        for name in params_full.tensors:
            np.testing.assert_array_equal(
                params_resumed[name].data, params_full[name].data
            )
        rounds = log_full.entries_of("bt_round")
        assert [(r["round"], r["num_bt"]) for r in rounds] == [(0, 5), (1, 3), (2, 2)]
        assert log_resumed.entries_of("bt_round") == rounds
        audit_full = _jsonl(tmp_path / "full" / "augmentation_audit.jsonl")
        audit_resumed = _jsonl(resume_dir / "augmentation_audit.jsonl")
        assert audit_resumed == audit_full

    def test_run_file_with_retired_model_keys_resumes(self, small_world, tmp_path):
        # a run.ckpt as written before the model config lost its retired keys
        # and attention its key bias
        _, parallel, mono, tokenizer = small_world
        config = _config(FinetuneSetting.BT_REC, epochs=2)
        params_full, log_full = run_experiment(config, parallel, mono, tokenizer)
        _stop_after_epoch(1, config, parallel, mono, tokenizer, checkpoint_dir=tmp_path / "r")
        path = tmp_path / "r" / "run.ckpt"
        arrays, meta = ckpt.load_arrays(path)
        # the attention key biases, in every tensor section, of earlier versions
        rng = np.random.default_rng(3)
        for name in [k for k in arrays if k.endswith(".wk")]:
            arrays[name[:-2] + "bk"] = rng.standard_normal(arrays[name].shape[1])
        assert len([k for k in arrays if k.endswith(".bk")]) == 4 * 3
        meta["trainer"]["bt_rounds_done"] = 0  # the BT round count earlier versions kept
        meta["adam_t"] = meta["trainer"]["opt_step"]  # and their AdamW step count
        retired = {"tie_embeddings": True, "activation": "gelu", "label_smoothing": 0.0,
                   "layer_norm_eps": 1e-05, "pad_id": 0, "eos_id": 1}
        meta["config"].update(retired)
        experiment = meta["experiment"]
        experiment["model"].update(retired)
        # and before the experiment config lost the recipe's fixed values
        experiment.update(total_steps=0, mono_langs=None)
        experiment["bt"]["temperature"] = 1.0
        experiment["rec"].update(n_swaps=2, p_del=0.2)
        experiment["optimizer"].update(beta1=0.9, beta2=0.999, eps=1e-08, weight_decay=0.01)
        good = json.dumps(meta)
        for section, key, value in [("model", "activation", "relu"), (None, "total_steps", 100),
                                    (None, "mono_langs", ["sy1"]), ("bt", "temperature", 0.5),
                                    ("rec", "p_del", 0.3), ("optimizer", "beta1", 0.8)]:
            bad = json.loads(good)
            (bad["experiment"][section] if section else bad["experiment"])[key] = value
            ckpt.save_arrays(path, arrays, bad)
            with pytest.raises(CheckpointError, match=key):
                run_experiment(config, parallel, mono, tokenizer, checkpoint_dir=tmp_path / "r",
                               resume=True)
        ckpt.save_arrays(path, arrays, json.loads(good))
        params_resumed, log_resumed = run_experiment(
            config, parallel, mono, tokenizer, checkpoint_dir=tmp_path / "r", resume=True
        )
        assert log_resumed.loss_trace == log_full.loss_trace
        assert log_resumed.entries[-1]["type"] == "finish"
        np.testing.assert_array_equal(params_resumed.flat, params_full.flat)

    def test_resume_config_mismatch_rejected(self, small_world, tmp_path):
        _, parallel, mono, tokenizer = small_world
        config = _config(epochs=1)
        run_experiment(config, parallel, mono, tokenizer, checkpoint_dir=tmp_path / "r")
        other = _config(epochs=1, seed=999)
        with pytest.raises(CheckpointError):
            run_experiment(other, parallel, mono, tokenizer, checkpoint_dir=tmp_path / "r",
                           resume=True)
        with pytest.raises(ConfigError, match="checkpoint_dir"):
            run_experiment(config, parallel, mono, tokenizer, resume=True)

    @pytest.mark.parametrize("field", ["train_examples", "dev_examples", "total_steps"])
    def test_resume_on_other_stores_rejected(self, small_world, tmp_path, field):
        _, parallel, mono, tokenizer = small_world
        config = _config(FinetuneSetting.BT_REC, epochs=3)
        params_full, log_full = run_experiment(config, parallel, mono, tokenizer)
        run_dir = tmp_path / "r"
        _stop_after_epoch(1, config, parallel, mono, tokenizer, checkpoint_dir=run_dir)
        other_parallel, other_mono = parallel, mono
        if field == "train_examples":
            other_parallel = ParallelStore(parallel.pairs[::2])
        elif field == "dev_examples":
            other_parallel = ParallelStore(tuple(p for p in parallel.pairs if p.split != "dev"))
        else:  # without monolingual text the run makes no BT or REC examples
            other_mono = MonoStore()
        with pytest.raises(CheckpointError, match=field):
            run_experiment(config, other_parallel, other_mono, tokenizer, checkpoint_dir=run_dir,
                           resume=True)
        params, log = run_experiment(config, parallel, mono, tokenizer, checkpoint_dir=run_dir,
                                     resume=True)
        assert log.loss_trace == log_full.loss_trace
        np.testing.assert_array_equal(params.flat, params_full.flat)

    def test_crash_at_any_write_resumes_exactly_or_is_refused(
        self, small_world, tmp_path, monkeypatch
    ):
        _, parallel, mono, tokenizer = small_world
        config = _config(
            FinetuneSetting.BT_REC, epochs=2, eval_every_steps=7,
            bt=BTConfig(num_bt=3, num_sample=1, start_epoch=1), rec=RECConfig(num_rec=2),
        )
        full_dir = tmp_path / "full"
        recorder = _WriteInjector(full_dir)
        with monkeypatch.context() as m:
            recorder.install(m)
            params_full, log_full = run_experiment(
                config, parallel, mono, tokenizer, checkpoint_dir=full_dir
            )
        audit_full = (full_dir / "augmentation_audit.jsonl").read_text(encoding="utf-8")
        # Once the first epoch's run-log export starts, its checkpoint is complete.
        first_export = recorder.events.index(("write", "runlog.jsonl"))
        resumed = 0
        for k, event in enumerate(recorder.events):
            run_dir = tmp_path / f"crash-{k}"
            with monkeypatch.context() as m:
                _WriteInjector(run_dir, crash_at=k).install(m)
                with pytest.raises(_Crash):
                    run_experiment(config, parallel, mono, tokenizer, checkpoint_dir=run_dir)
            try:
                params, log = run_experiment(
                    config, parallel, mono, tokenizer, checkpoint_dir=run_dir, resume=True
                )
            except CheckpointError:
                assert k < first_export, f"crash at {event} left a run that cannot resume"
                continue
            assert log.loss_trace == log_full.loss_trace, event
            for name in params_full.tensors:
                np.testing.assert_array_equal(params[name].data, params_full[name].data)
            audit = (run_dir / "augmentation_audit.jsonl").read_text(encoding="utf-8")
            assert audit == audit_full, event
            on_disk = _jsonl(run_dir / "runlog.jsonl")
            assert [e["loss"] for e in on_disk if e["type"] == "step"] == log_full.loss_trace, event
            assert on_disk[-1]["type"] == "finish", event
            resumed += 1
        assert resumed == len(recorder.events) - first_export

    def test_resume_with_other_tokenizer_rejected(self, small_world, tmp_path):
        _, parallel, mono, tokenizer = small_world
        other = train_subword(
            [[p.src_text for p in parallel.pairs]], tokenizer.vocab_size, ["sy1", "sy2", "sy3"]
        )
        assert other.vocab_size == tokenizer.vocab_size and other.hash() != tokenizer.hash()
        config = _config(epochs=2)
        _stop_after_epoch(1, config, parallel, mono, tokenizer, checkpoint_dir=tmp_path / "r")
        with pytest.raises(CheckpointError, match="tokenizer"):
            run_experiment(config, parallel, mono, other, checkpoint_dir=tmp_path / "r",
                           resume=True)

    # 1000: no dev evaluation runs, so the run returns its last parameters
    @pytest.mark.parametrize("eval_every_steps", [5, 1000])
    def test_run_dir_holds_run_files_and_log_ends_with_finish(
        self, small_world, tmp_path, eval_every_steps
    ):
        _, parallel, mono, tokenizer = small_world
        run_dir = tmp_path / "r"
        config = _config(epochs=1, eval_every_steps=eval_every_steps)
        params, log = run_experiment(config, parallel, mono, tokenizer, checkpoint_dir=run_dir)
        assert sorted(os.listdir(run_dir)) == sorted(RUN_FILES)
        on_disk = _jsonl(run_dir / "runlog.jsonl")
        meta = {"type": "meta", "seed": config.seed, "config_hash": config.config_hash()}
        assert on_disk[0] == meta
        assert on_disk[1:] == log.entries
        assert on_disk[-1]["type"] == "finish"
        loaded, _, _ = load_model(run_dir)
        for name in params.tensors:
            np.testing.assert_array_equal(loaded[name].data, params[name].data)

    def test_audit_log_written(self, small_world, tmp_path):
        _, parallel, mono, tokenizer = small_world
        config = _config(FinetuneSetting.BT_REC, epochs=2)
        run_experiment(config, parallel, mono, tokenizer, checkpoint_dir=tmp_path / "a")
        audit = (tmp_path / "a" / "augmentation_audit.jsonl").read_text().splitlines()
        kinds = {json.loads(l)["kind"] for l in audit}
        assert kinds == {"backtranslation", "reconstruction"}
        # an audit shorter than the checkpoint records cannot be resumed
        (tmp_path / "a" / "augmentation_audit.jsonl").write_text("\n".join(audit[:3]) + "\n")
        with pytest.raises(CheckpointError, match="audit"):
            run_experiment(config, parallel, mono, tokenizer, checkpoint_dir=tmp_path / "a",
                           resume=True)


class TestRunLog:
    def test_jsonl_round_trip(self, tmp_path):
        log = RunLog(seed=3, config_hash="abc")
        log.log("step", step=1, loss=2.5)
        log.log("epoch", epoch=1, mean_loss=2.5)
        path = tmp_path / "log.jsonl"
        log.save(path)
        lines = _jsonl(path)
        assert lines[0] == {"type": "meta", "seed": 3, "config_hash": "abc"}
        assert lines[1:] == log.entries
        assert log.loss_trace == [2.5]


class TestCompareSettings:
    def test_table_shape_and_artifacts(self, small_world, tmp_path):
        _, parallel, mono, tokenizer = small_world
        config = _config(epochs=1, bt=BTConfig(num_bt=3, start_epoch=1))
        table = compare_settings(config, parallel, mono, tokenizer, tmp_path)
        assert table.settings == ["BASE", "BT", "BT&REC"]
        rounds = {
            label: {e["type"] for e in _jsonl(tmp_path / f"run-{label}" / "runlog.jsonl")}
            & {"bt_round", "rec_round"}
            for label in table.settings
        }
        assert rounds == {"BASE": set(), "BT": {"bt_round"}, "BT&REC": {"bt_round", "rec_round"}}
        assert len(table.directions) == 6  # 3 languages, no exclusions
        for direction in table.directions:
            for setting in table.settings:
                assert np.isfinite(table.score(setting, direction))
        assert (tmp_path / "comparison.csv").exists()
        table2 = ComparisonTable.from_json((tmp_path / "comparison.json").read_text())
        assert table2.directions == table.directions
        lines = table.to_text().splitlines()
        assert len(lines) == 1 + len(table.directions)
        for line, direction in zip(lines[1:], table.directions):
            assert line.split() == [direction] + [
                f"{table.score(s, direction):.2f}" for s in table.settings
            ]


class TestConfigFiles:
    def test_parse_and_build(self, tmp_path):
        cfg_file = tmp_path / "exp.cfg"
        cfg_file.write_text(
            """
            # experiment
            languages = sy1,sy2
            setting = btrec
            epochs = 4
            model.d_model = 48
            model.n_heads = 4
            bt.num_bt = 7
            bt.num_bt_decay = 7,3
            rec.num_rec = 30
            optimizer.lr = 2e-4
            exclusions =
            """,
            encoding="utf-8",
        )
        values = parse_config_file(cfg_file)
        config = build_experiment_config(values)
        assert config.languages == ("sy1", "sy2")
        assert config.setting is FinetuneSetting.BT_REC
        assert config.model.d_model == 48
        assert config.bt.num_bt_decay == (7, 3)
        assert config.rec.num_rec == 30
        assert config.optimizer.lr == 2e-4

    def test_preset_paper_baseline(self):
        config = build_experiment_config(
            {"languages": "eng,fra,ibo,fon", "setting": "btrec"},
            preset="paper-baseline",
        )
        assert config.bt.num_bt == 500
        assert config.rec.num_rec == 50  # the 500:50 ratio
        assert config.optimizer.lr == 5e-4
        assert config.batch_size_sentences == 32
        assert config.batch_size_sentences * config.accumulation_factor == 256
        assert config.patience_evals == 100
        assert config.resolved_exclusions() == (("eng", "fra"),)

    def test_preset_paper_final(self):
        config = build_experiment_config(
            {"languages": "eng,fra,ibo,fon,swa,kin,xho,yor"}, preset="paper-final"
        )
        assert config.optimizer.lr == 3e-6
        assert config.batch_size_sentences * config.accumulation_factor == 4096
        assert config.bt.num_bt_decay == (100, 50, 10)
        assert config.rec.num_rec == 50  # the 100:50 ratio
        assert config.bt.start_epoch == 4  # three plain epochs first

    def test_overrides_win_over_file_and_preset(self):
        config = build_experiment_config(
            {"languages": "sy1,sy2", "epochs": "9"},
            preset="paper-baseline",
            overrides={"epochs": "2", "optimizer.lr": "1e-3"},
        )
        assert config.epochs == 2
        assert config.optimizer.lr == 1e-3

    def test_unknown_key_rejected(self):
        with pytest.raises(ConfigError):
            build_experiment_config({"languages": "sy1,sy2", "nonsense": "1"})

    @pytest.mark.parametrize(
        "key, value",
        [("tie_embeddings", "false"), ("activation", "relu"), ("label_smoothing", "0.1"),
         ("layer_norm_eps", "1e-6"), ("pad_id", "3"), ("eos_id", "5")],
    )
    def test_retired_model_keys_rejected(self, key, value):
        with pytest.raises(ConfigError, match=key):
            build_experiment_config({"languages": "sy1,sy2", f"model.{key}": value})

    @pytest.mark.parametrize(
        "key, value",
        [("optimizer.beta1", "0.8"), ("optimizer.beta2", "0.99"), ("optimizer.eps", "1e-6"),
         ("optimizer.weight_decay", "0"), ("bt.temperature", "0"), ("rec.n_swaps", "1"),
         ("rec.p_del", "0.3"), ("total_steps", "100"), ("mono_langs", "sy1,sy2,sy3")],
    )
    def test_retired_recipe_keys_rejected(self, key, value):
        with pytest.raises(ConfigError, match=f"unknown config key '{key}'"):
            build_experiment_config({"languages": "sy1,sy2", key: value})

    def test_non_finite_floats_rejected(self):
        keys = [f.name for f in fields(ExperimentConfig) if f.type == "float"]
        for section in fields(ExperimentConfig):
            if is_dataclass(section.default_factory):
                keys += [f"{section.name}.{f.name}"
                         for f in fields(section.default_factory) if f.type == "float"]
        assert {"model.dropout", "optimizer.lr"} <= set(keys)
        for key in keys:
            for value in ("nan", "inf", "-inf"):
                with pytest.raises(ConfigError, match=key.rpartition(".")[2]):
                    build_experiment_config({"languages": "sy1,sy2", key: value})

    @pytest.mark.parametrize("preset", sorted(PRESETS))
    def test_each_preset_builds(self, preset):
        config = build_experiment_config({"languages": "sy1,sy2"}, preset=preset)
        assert config.languages == ("sy1", "sy2")
