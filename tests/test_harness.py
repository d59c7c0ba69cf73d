"""Training orchestration: curricula, determinism, early stop, resume."""

import builtins
import os

import numpy as np
import pytest

from mtlab import model as M
from mtlab.config import build_experiment_config, parse_config_file
from mtlab.corpus import LangTag, MonoSentence, MonoStore
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
from mtlab.objectives import BTConfig, FinetuneSetting, RECConfig
from mtlab.optim import AdamWConfig
from mtlab.synth import SyntheticLangSpec, gen_synthetic
from mtlab.tokenizer import train_subword


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
        from mtlab.harness import _dev_loss
        from mtlab.objectives import format_translation

        dev = [
            format_translation(p) for p in parallel.pairs
            if p.split == "dev" and p.direction.key != "excluded"
        ]
        got = _dev_loss(params, tokenizer, dev, 16)
        best = min(e["dev_loss"] for e in log.entries_of("eval"))
        assert got == pytest.approx(best, abs=1e-6)

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
        assert sum("skipping backtranslation" in r.message for r in caplog.records) == 3
        assert log.entries_of("finish")

    def test_config_validation_precedes_training(self, small_world):
        _, parallel, mono, tokenizer = small_world
        with pytest.raises(ConfigError):
            run_experiment(_config(epochs=0), parallel, mono, tokenizer)
        with pytest.raises(ConfigError):
            run_experiment(_config(bt_workers=2), parallel, mono, tokenizer)
        bad_model = _config(model=M.ModelConfig(d_model=30, n_heads=4))
        with pytest.raises(ConfigError):
            run_experiment(bad_model, parallel, mono, tokenizer)


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


class TestCheckpointResume:
    def test_resume_reproduces_trace(self, small_world, tmp_path):
        _, parallel, mono, tokenizer = small_world
        config = _config(FinetuneSetting.BT_REC, epochs=4, eval_every_steps=7)

        params_full, log_full = run_experiment(config, parallel, mono, tokenizer)

        resume_dir = tmp_path / "run"
        run_experiment(
            config, parallel, mono, tokenizer,
            checkpoint_dir=resume_dir, stop_after_epoch=2,
        )
        params_resumed, log_resumed = run_experiment(
            config, parallel, mono, tokenizer, resume_from=resume_dir
        )
        assert log_resumed.loss_trace == log_full.loss_trace
        for name in params_full.names():
            np.testing.assert_array_equal(
                params_resumed[name].data, params_full[name].data
            )

    def test_resume_config_mismatch_rejected(self, small_world, tmp_path):
        _, parallel, mono, tokenizer = small_world
        config = _config(epochs=1)
        run_experiment(config, parallel, mono, tokenizer, checkpoint_dir=tmp_path / "r")
        other = _config(epochs=1, seed=999)
        with pytest.raises(CheckpointError):
            run_experiment(other, parallel, mono, tokenizer, resume_from=tmp_path / "r")
        with pytest.raises(ConfigError):
            run_experiment(
                config, parallel, mono, tokenizer,
                checkpoint_dir=tmp_path / "elsewhere", resume_from=tmp_path / "r",
            )

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
                    config, parallel, mono, tokenizer, resume_from=run_dir
                )
            except CheckpointError:
                assert k < first_export, f"crash at {event} left a run that cannot resume"
                continue
            assert log.loss_trace == log_full.loss_trace, event
            for name in params_full.names():
                np.testing.assert_array_equal(params[name].data, params_full[name].data)
            audit = (run_dir / "augmentation_audit.jsonl").read_text(encoding="utf-8")
            assert audit == audit_full, event
            on_disk = RunLog.load(run_dir / "runlog.jsonl")
            assert on_disk.loss_trace == log_full.loss_trace, event
            assert on_disk.entries[-1]["type"] == "finish", event
            resumed += 1
        assert resumed == len(recorder.events) - first_export

    def test_resume_with_other_tokenizer_rejected(self, small_world, tmp_path):
        _, parallel, mono, tokenizer = small_world
        other = train_subword(
            [[p.src_text for p in parallel.pairs]], tokenizer.vocab_size, ["sy1", "sy2", "sy3"]
        )
        assert other.vocab_size == tokenizer.vocab_size and other.hash() != tokenizer.hash()
        config = _config(epochs=2)
        run_experiment(
            config, parallel, mono, tokenizer, checkpoint_dir=tmp_path / "r", stop_after_epoch=1
        )
        with pytest.raises(CheckpointError, match="tokenizer"):
            run_experiment(config, parallel, mono, other, resume_from=tmp_path / "r")

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
        on_disk = RunLog.load(run_dir / "runlog.jsonl")
        assert on_disk.entries == log.entries
        assert on_disk.entries[-1]["type"] == "finish"
        loaded, _, _ = load_model(run_dir)
        for name in params.names():
            np.testing.assert_array_equal(loaded[name].data, params[name].data)

    def test_audit_log_written(self, small_world, tmp_path):
        _, parallel, mono, tokenizer = small_world
        config = _config(FinetuneSetting.BT_REC, epochs=2)
        run_experiment(config, parallel, mono, tokenizer, checkpoint_dir=tmp_path / "a")
        audit = (tmp_path / "a" / "augmentation_audit.jsonl").read_text().splitlines()
        import json

        kinds = {json.loads(l)["kind"] for l in audit}
        assert kinds == {"backtranslation", "reconstruction"}
        # an audit shorter than the checkpoint records cannot be resumed
        (tmp_path / "a" / "augmentation_audit.jsonl").write_text("\n".join(audit[:3]) + "\n")
        with pytest.raises(CheckpointError, match="audit"):
            run_experiment(config, parallel, mono, tokenizer, resume_from=tmp_path / "a")


class TestRunLog:
    def test_jsonl_round_trip(self, tmp_path):
        log = RunLog(seed=3, config_hash="abc")
        log.log("step", step=1, loss=2.5)
        log.log("epoch", epoch=1, mean_loss=2.5)
        path = tmp_path / "log.jsonl"
        log.save(path)
        again = RunLog.load(path)
        assert again.seed == 3
        assert again.config_hash == "abc"
        assert again.entries == log.entries
        assert again.loss_trace == [2.5]


class TestCompareSettings:
    def test_table_shape_and_artifacts(self, small_world, tmp_path):
        _, parallel, mono, tokenizer = small_world
        configs = {
            "BASE": _config(FinetuneSetting.BASE, epochs=1),
            "BT": _config(FinetuneSetting.BT, epochs=1, bt=BTConfig(num_bt=3, start_epoch=1)),
            "BT&REC": _config(FinetuneSetting.BT_REC, epochs=1,
                              bt=BTConfig(num_bt=3, start_epoch=1)),
        }
        table, logs = compare_settings(
            configs, parallel, mono, tokenizer, out_dir=tmp_path
        )
        assert table.settings == ["BASE", "BT", "BT&REC"]
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

    def test_mismatched_configs_rejected(self, small_world):
        _, parallel, mono, tokenizer = small_world
        configs = {
            "BASE": _config(FinetuneSetting.BASE),
            "BT": _config(FinetuneSetting.BT, seed=999),
        }
        with pytest.raises(ConfigError):
            compare_settings(configs, parallel, mono, tokenizer)


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
            rec.p_del = 0.3
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
        assert config.rec.p_del == 0.3
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
