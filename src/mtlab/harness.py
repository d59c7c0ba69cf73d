"""Experiment orchestration: curricula, early stopping, checkpoints.

One coordinating thread runs the epoch loop. From the configured start
epoch, BT settings run one backtranslation round per epoch (num_bt follows
the decay list across rounds) and BT&REC additionally one reconstruction
round; the synthetic examples are shuffled uniformly into that epoch's
training stream. Dev loss is evaluated every ``eval_every_steps`` optimizer
steps; training stops early after ``patience_evals`` non-improving evals
and the best-dev checkpoint is returned.

All randomness is derived from ``(seed, epoch or counter)`` streams, so a
run resumed from an epoch checkpoint reproduces the uninterrupted run's
loss trace exactly.

A run directory holds:

- ``run.ckpt``: the whole resume state, rewritten atomically at every
  epoch end (sections and meta in ``checkpoint``'s docstring);
- ``runlog.jsonl``: an export of the run log, rewritten after each
  ``run.ckpt`` and once more at finish;
- ``augmentation_audit.jsonl``: one line per emitted BT/REC example;
- ``tokenizer.txt``: written once, when the run starts.

Resume reads only ``run.ckpt``. It rejects a different config or
tokenizer and cuts the audit back to the lines the checkpoint covers, so
a crash at any write leaves a run that resumes exactly or is refused.
"""

from __future__ import annotations

import hashlib
import json
import os
import time
from dataclasses import asdict, dataclass, field, replace

import numpy as np

from . import checkpoint as ckpt
from . import model as M
from . import optim
from .corpus import LangTag, MonoStore, ParallelStore
from .errors import CheckpointError, ConfigError
from .metrics import EvalReport, evaluate_direction
from .numerics import backward, no_grad, rng_fork
from .objectives import (
    BTConfig,
    FinetuneSetting,
    RECConfig,
    TaggedExample,
    build_directions,
    format_translation,
    make_bt_examples,
    make_rec_examples,
    write_audit,
)
from .tokenizer import SubwordModel


# The files of a run directory, as listed in the module docstring.
RUN_FILES = ("run.ckpt", "runlog.jsonl", "augmentation_audit.jsonl", "tokenizer.txt")


@dataclass(frozen=True)
class ExperimentConfig:
    languages: tuple[str, ...]
    setting: FinetuneSetting = FinetuneSetting.BASE
    exclusions: tuple[tuple[str, str], ...] | None = None  # None -> eng/fra if present
    epochs: int = 3
    model: M.ModelConfig = field(default_factory=M.ModelConfig)
    bt: BTConfig = field(default_factory=BTConfig)
    rec: RECConfig = field(default_factory=RECConfig)
    optimizer: optim.AdamWConfig = field(default_factory=optim.AdamWConfig)
    warmup_steps: int = 200
    total_steps: int = 0  # 0 -> estimated from the data at run start
    batch_size_sentences: int = 32
    accumulation_factor: int = 1
    eval_every_steps: int = 50
    patience_evals: int = 100
    mono_langs: tuple[str, ...] | None = None  # None -> every language with data
    # Always 1; kept because saved run configs, which resume compares, carry it.
    bt_workers: int = 1
    seed: int = 13

    def resolved_exclusions(self) -> tuple[tuple[str, str], ...]:
        if self.exclusions is not None:
            return self.exclusions
        if "eng" in self.languages and "fra" in self.languages:
            return (("eng", "fra"),)
        return ()

    def validate(self) -> None:
        if len(self.languages) < 2:
            raise ConfigError("need at least 2 languages")
        if len(set(self.languages)) != len(self.languages):
            raise ConfigError("duplicate language codes")
        if self.epochs < 1:
            raise ConfigError("epochs must be >= 1")
        if self.patience_evals < 1:
            raise ConfigError("patience_evals must be >= 1")
        if self.batch_size_sentences < 1 or self.accumulation_factor < 1:
            raise ConfigError("batch size and accumulation factor must be >= 1")
        if self.eval_every_steps < 1:
            raise ConfigError("eval_every_steps must be >= 1")
        if self.bt_workers != 1:
            raise ConfigError("bt_workers must be 1; backtranslation runs on the calling thread")
        self.optimizer.validate()
        for code in self.languages:
            LangTag(code)

    def config_hash(self) -> str:
        blob = json.dumps(_config_dict(self), sort_keys=True)
        return hashlib.sha256(blob.encode("utf-8")).hexdigest()


def _config_dict(config: ExperimentConfig) -> dict:
    d = asdict(config)
    d["setting"] = config.setting.value
    return d


class RunLog:
    """Append-only training log, replayable from jsonl."""

    def __init__(self, seed: int, config_hash: str):
        self.seed = seed
        self.config_hash = config_hash
        self.entries: list[dict] = []

    def log(self, kind: str, **fields) -> None:
        self.entries.append({"type": kind, **fields})

    @property
    def loss_trace(self) -> list[float]:
        return [e["loss"] for e in self.entries if e["type"] == "step"]

    def entries_of(self, kind: str) -> list[dict]:
        return [e for e in self.entries if e["type"] == kind]

    def to_jsonl(self) -> str:
        head = {"type": "meta", "seed": self.seed, "config_hash": self.config_hash}
        lines = [json.dumps(head, sort_keys=True)]
        lines += [json.dumps(e, sort_keys=True, ensure_ascii=False) for e in self.entries]
        return "\n".join(lines) + "\n"

    def save(self, path) -> None:
        with open(path, "w", encoding="utf-8") as f:
            f.write(self.to_jsonl())

    @classmethod
    def load(cls, path) -> "RunLog":
        with open(path, encoding="utf-8") as f:
            lines = [json.loads(line) for line in f if line.strip()]
        if not lines or lines[0].get("type") != "meta":
            raise CheckpointError(f"{path}: missing run-log meta line")
        log = cls(lines[0]["seed"], lines[0]["config_hash"])
        log.entries = lines[1:]
        return log


def _encode_example(tokenizer, example: TaggedExample, max_positions: int):
    src = tokenizer.encode(example.input_text)
    tgt = tokenizer.encode(example.target_text)
    truncated = False
    if len(src) > max_positions:
        src = src[: max_positions - 1] + [src[-1]]
        truncated = True
    if len(tgt) > max_positions:
        tgt = tgt[: max_positions - 1] + [tgt[-1]]
        truncated = True
    return src, tgt, truncated


def _dev_loss(params, tokenizer, dev_examples, batch_size: int) -> float:
    cfg = params.config
    total = 0.0
    tokens = 0
    with no_grad():
        for start in range(0, len(dev_examples), batch_size):
            chunk = dev_examples[start : start + batch_size]
            srcs, tgts = [], []
            for ex in chunk:
                s, t, _ = _encode_example(tokenizer, ex, cfg.max_positions)
                srcs.append(s)
                tgts.append(t)
            batch = M.make_batch(srcs, tgts, cfg.pad_id)
            n_tok = int(batch.tgt_mask.sum())
            loss = M.loss_teacher_forcing(params, batch)
            total += loss.item() * n_tok
            tokens += n_tok
    return total / max(tokens, 1)


@dataclass
class _TrainerState:
    epoch_done: int = 0
    opt_step: int = 0
    micro_step: int = 0
    bt_rounds_done: int = 0
    best_dev: float = float("inf")
    evals_since_best: int = 0
    stopped_early: bool = False
    audit_lines: int = 0  # lines of augmentation_audit.jsonl written so far


def _estimate_total_steps(config, n_translation, n_mono_langs) -> int:
    total_examples = 0
    rounds = 0
    for epoch in range(1, config.epochs + 1):
        n = n_translation
        if config.setting in (FinetuneSetting.BT, FinetuneSetting.BT_REC):
            if epoch >= config.bt.start_epoch:
                n += config.bt.num_bt_for_round(rounds) * n_mono_langs
                if config.setting is FinetuneSetting.BT_REC:
                    n += config.rec.num_rec * n_mono_langs
                rounds += 1
        total_examples += n
    micro_per_epoch = -(-total_examples // (config.epochs * config.batch_size_sentences))
    steps = config.epochs * (micro_per_epoch // config.accumulation_factor + 1)
    return max(steps, 1)


def run_experiment(
    config: ExperimentConfig,
    parallel: ParallelStore,
    mono: MonoStore,
    tokenizer,
    checkpoint_dir=None,
    resume_from=None,
    init_params=None,
    stop_after_epoch=None,
):
    """Train one setting end to end; returns (best Params, RunLog).

    ``checkpoint_dir`` enables epoch-boundary checkpoints plus a jsonl
    audit of emitted BT/REC examples; ``resume_from`` continues a
    checkpointed run in its own directory (``checkpoint_dir`` must then be
    unset or the same) and reproduces its uninterrupted loss trace.
    ``stop_after_epoch`` interrupts the run at an epoch boundary (the
    config, and with it the lr schedule, is unchanged, so a later resume
    matches the uninterrupted run).
    """
    config.validate()
    model_cfg = config.model
    if model_cfg.vocab_size == 0:
        model_cfg = replace(model_cfg, vocab_size=tokenizer.vocab_size)
    model_cfg.validate()
    exclusions = config.resolved_exclusions()
    directions = build_directions(config.languages, exclusions)
    by_direction = parallel.by_direction()
    train_examples = []
    dev_examples = []
    for direction in directions:
        for pair in by_direction.get(direction, ()):
            if pair.split == "train":
                train_examples.append(format_translation(pair))
            elif pair.split == "dev":
                dev_examples.append(format_translation(pair))
    if not train_examples:
        raise ConfigError("no training pairs for the configured directions")

    mono_langs = config.mono_langs
    if mono_langs is None:
        mono_langs = tuple(
            l.code for l in mono.languages() if l.code in set(config.languages)
        )
    active_mono = MonoStore(
        tuple(s for s in mono.sentences if s.lang.code in set(mono_langs) and s.split == "train")
    )
    n_mono_langs = len(active_mono.languages())

    total_steps = config.total_steps or _estimate_total_steps(
        config, len(train_examples), n_mono_langs
    )
    schedule = optim.ScheduleConfig(min(config.warmup_steps, total_steps), total_steps)
    schedule.validate()

    state = _TrainerState()
    run_log = RunLog(config.seed, config.config_hash())
    if resume_from is not None:
        if os.path.abspath(checkpoint_dir or resume_from) != os.path.abspath(resume_from):
            raise ConfigError("a resumed run checkpoints into the directory it resumes from")
        checkpoint_dir = resume_from
        params, best_params, opt_state, state, run_log = _load_run(resume_from, config, tokenizer)
    else:
        params = init_params.copy() if init_params is not None else M.init(model_cfg, config.seed)
        opt_state = optim.AdamWState(params)
        best_params = params.copy()
        run_log.log(
            "start",
            directions=[d.key for d in directions],
            train_examples=len(train_examples),
            dev_examples=len(dev_examples),
            total_steps=total_steps,
            tokenizer_sha256=tokenizer.hash(),
        )

    audit_path = None
    if checkpoint_dir is not None:
        audit_path = os.path.join(checkpoint_dir, "augmentation_audit.jsonl")
        if resume_from is None:
            os.makedirs(checkpoint_dir, exist_ok=True)
            tokenizer.save(os.path.join(checkpoint_dir, "tokenizer.txt"))
            open(audit_path, "w", encoding="utf-8").close()

    accumulator = optim.GradAccumulator(config.accumulation_factor)
    tensors_by_name = None
    wall_start = time.time()

    start_epoch = state.epoch_done + 1
    stop = state.stopped_early
    for epoch in range(start_epoch, config.epochs + 1):
        if stop:
            break
        epoch_examples = list(train_examples)
        use_bt = config.setting in (FinetuneSetting.BT, FinetuneSetting.BT_REC)
        if use_bt and epoch >= config.bt.start_epoch and n_mono_langs > 0:
            n_bt = config.bt.num_bt_for_round(state.bt_rounds_done)
            bt_examples = make_bt_examples(
                params,
                tokenizer,
                active_mono,
                [LangTag(c) for c in config.languages if c in set(mono_langs)],
                config.bt,
                rng_fork(config.seed, f"bt-round:{epoch}"),
                exclusions=exclusions,
                num_bt=n_bt,
            )
            epoch_examples.extend(bt_examples)
            run_log.log(
                "bt_round",
                epoch=epoch,
                round=state.bt_rounds_done,
                num_bt=n_bt,
                emitted=len(bt_examples),
            )
            if audit_path:
                write_audit(audit_path, bt_examples, state.bt_rounds_done)
                state.audit_lines += len(bt_examples)
            if config.setting is FinetuneSetting.BT_REC:
                rec_examples = make_rec_examples(
                    active_mono, config.rec, rng_fork(config.seed, f"rec-round:{epoch}")
                )
                epoch_examples.extend(rec_examples)
                run_log.log(
                    "rec_round",
                    epoch=epoch,
                    round=state.bt_rounds_done,
                    emitted=len(rec_examples),
                )
                if audit_path:
                    write_audit(audit_path, rec_examples, state.bt_rounds_done)
                    state.audit_lines += len(rec_examples)
            state.bt_rounds_done += 1

        order = rng_fork(config.seed, f"shuffle:{epoch}").permutation(len(epoch_examples))
        epoch_examples = [epoch_examples[i] for i in order]

        epoch_loss_sum = 0.0
        epoch_token_sum = 0
        pending_loss = 0.0
        pending_tokens = 0
        for start in range(0, len(epoch_examples), config.batch_size_sentences):
            if stop:
                break
            chunk = epoch_examples[start : start + config.batch_size_sentences]
            srcs, tgts = [], []
            for ex in chunk:
                s, t, _ = _encode_example(tokenizer, ex, model_cfg.max_positions)
                srcs.append(s)
                tgts.append(t)
            batch = M.make_batch(srcs, tgts, model_cfg.pad_id)
            state.micro_step += 1
            drop_rng = (
                rng_fork(config.seed, f"dropout:{state.micro_step}")
                if model_cfg.dropout > 0
                else None
            )
            loss = M.loss_teacher_forcing(params, batch, dropout_rng=drop_rng)
            if tensors_by_name is None:
                tensors_by_name = list(params.tensors.items())
            grad_map = backward(loss, [t for _, t in tensors_by_name])
            grads = {name: grad_map[t] for name, t in tensors_by_name}
            n_tok = int(batch.tgt_mask.sum())
            accumulator.add(grads, float(n_tok))
            pending_loss += loss.item() * n_tok
            pending_tokens += n_tok
            if accumulator.ready or start + config.batch_size_sentences >= len(epoch_examples):
                mean_grads = accumulator.flush()
                lr = optim.lr_at(schedule, config.optimizer.lr, state.opt_step)
                optim.adamw_step(params, mean_grads, opt_state, config.optimizer, lr=lr)
                state.opt_step += 1
                run_log.log(
                    "step",
                    step=state.opt_step,
                    epoch=epoch,
                    loss=pending_loss / max(pending_tokens, 1),
                    lr=lr,
                    tokens=pending_tokens,
                )
                epoch_loss_sum += pending_loss
                epoch_token_sum += pending_tokens
                pending_loss = 0.0
                pending_tokens = 0
                if dev_examples and state.opt_step % config.eval_every_steps == 0:
                    dev = _dev_loss(params, tokenizer, dev_examples, config.batch_size_sentences)
                    improved = dev < state.best_dev
                    if improved:
                        state.best_dev = dev
                        state.evals_since_best = 0
                        best_params = params.copy()
                    else:
                        state.evals_since_best += 1
                    run_log.log(
                        "eval",
                        step=state.opt_step,
                        epoch=epoch,
                        dev_loss=dev,
                        best=state.best_dev,
                        improved=improved,
                    )
                    if state.evals_since_best >= config.patience_evals:
                        state.stopped_early = True
                        stop = True
                        run_log.log("early_stop", step=state.opt_step, epoch=epoch)

        run_log.log(
            "epoch",
            epoch=epoch,
            mean_loss=epoch_loss_sum / max(epoch_token_sum, 1),
            examples=len(epoch_examples),
        )
        state.epoch_done = epoch
        if checkpoint_dir is not None:
            _save_run(checkpoint_dir, config, params, best_params, opt_state, state, run_log, tokenizer)
        if stop_after_epoch is not None and epoch >= stop_after_epoch:
            return params, run_log

    if dev_examples and np.isfinite(state.best_dev):
        final = best_params
    else:
        final = params
    run_log.log(
        "finish",
        epochs=state.epoch_done,
        steps=state.opt_step,
        best_dev=None if not np.isfinite(state.best_dev) else state.best_dev,
        stopped_early=state.stopped_early,
        wall_seconds=round(time.time() - wall_start, 3),
    )
    if checkpoint_dir is not None:
        run_log.save(os.path.join(checkpoint_dir, "runlog.jsonl"))
    return final, run_log


def _save_run(directory, config, params, best_params, opt_state, state, run_log, tokenizer):
    sections = {
        "params": {k: t.data for k, t in params.tensors.items()},
        "best": {k: t.data for k, t in best_params.tensors.items()},
        "adam_m": opt_state.m,
        "adam_v": opt_state.v,
    }
    arrays = {f"{s}/{k}": v for s, tensors in sections.items() for k, v in tensors.items()}
    meta = {
        "config": asdict(params.config),
        "experiment": _config_dict(config),
        "trainer": asdict(state),
        "adam_t": opt_state.t,
        "tokenizer_sha256": tokenizer.hash(),
        "run_log": run_log.entries,
    }
    ckpt.save_arrays(os.path.join(directory, "run.ckpt"), arrays, meta)
    run_log.save(os.path.join(directory, "runlog.jsonl"))


def _load_run(directory, config, tokenizer):
    path = os.path.join(directory, "run.ckpt")
    arrays, meta = ckpt.load_arrays(path)
    live = json.loads(json.dumps(_config_dict(config)))  # tuples -> lists
    if meta.get("experiment") != live:
        raise CheckpointError("resume config does not match the checkpointed config")
    if meta.get("tokenizer_sha256") != tokenizer.hash():
        raise CheckpointError("resume tokenizer does not match the checkpointed tokenizer")
    params = _section(path, arrays, meta, "params")
    best_params = _section(path, arrays, meta, "best")
    opt_state = optim.AdamWState(params)
    opt_state.t = meta["adam_t"]
    opt_state.m = {k: t.data for k, t in _section(path, arrays, meta, "adam_m").tensors.items()}
    opt_state.v = {k: t.data for k, t in _section(path, arrays, meta, "adam_v").tensors.items()}
    run_log = RunLog(config.seed, config.config_hash())
    run_log.entries = meta["run_log"]
    state = _TrainerState(**meta["trainer"])
    _trim_audit(os.path.join(directory, "augmentation_audit.jsonl"), state.audit_lines)
    return params, best_params, opt_state, state, run_log


def _section(path, arrays, meta, name):
    """Params built from one ``<name>/`` tensor section of a run file."""
    prefix = f"{name}/"
    part = {k[len(prefix):]: v for k, v in arrays.items() if k.startswith(prefix)}
    return ckpt.params_from_arrays(f"{path} [{name}]", part, meta["config"])


def _trim_audit(path, lines: int) -> None:
    """Cut the audit back to its first ``lines`` lines, the ones the checkpoint covers."""
    try:
        with open(path, "r+b") as f:
            data = f.read()
            end = 0
            for _ in range(lines):
                end = data.index(b"\n", end) + 1
            f.truncate(end)
    except (OSError, ValueError):
        raise CheckpointError(
            f"{path} holds fewer than the {lines} audit lines checkpointed"
        ) from None


def load_model(directory):
    """(Params, tokenizer, checkpoint path) of a model or run directory.

    A run directory yields what ``run_experiment`` returns: the best-dev
    parameters from ``run.ckpt``, or the last ones if no dev evaluation
    ran. Any other directory yields its ``params.ckpt``. Both need
    ``tokenizer.txt``.
    """
    tok_path = os.path.join(directory, "tokenizer.txt")
    path = os.path.join(directory, "run.ckpt")
    if os.path.exists(path):
        arrays, meta = ckpt.load_arrays(path)
        evaluated = np.isfinite(meta["trainer"]["best_dev"])
        params = _section(path, arrays, meta, "best" if evaluated else "params")
    else:
        path = os.path.join(directory, "params.ckpt")
        if not os.path.exists(path):
            raise CheckpointError(f"no checkpoint found under {directory!r}")
        params, meta = ckpt.load_params(path)
    if not os.path.exists(tok_path):
        raise CheckpointError(f"no tokenizer.txt under {directory!r}")
    tokenizer = SubwordModel.load(tok_path)
    if meta.get("tokenizer_sha256", tokenizer.hash()) != tokenizer.hash():
        raise CheckpointError(f"{tok_path} is not the tokenizer the model was trained with")
    return params, tokenizer, path


# ---------------------------------------------------------------------------
# setting comparison
# ---------------------------------------------------------------------------

@dataclass
class ComparisonTable:
    directions: list[str]
    settings: list[str]
    reports: dict  # (setting, direction) -> EvalReport

    def score(self, setting: str, direction: str) -> float:
        return self.reports[(setting, direction)].spbleu

    def to_csv(self) -> str:
        lines = ["direction," + ",".join(self.settings)]
        for d in self.directions:
            row = [d] + [f"{self.score(s, d):.2f}" for s in self.settings]
            lines.append(",".join(row))
        return "\n".join(lines) + "\n"

    def to_text(self) -> str:
        header = f"{'direction':>12} " + " ".join(f"{s:>16}" for s in self.settings)
        lines = [header]
        for d in self.directions:
            cells = " ".join(f"{self.score(s, d):>16.2f}" for s in self.settings)
            lines.append(f"{d:>12} {cells}")
        return "\n".join(lines)

    def to_json(self) -> str:
        obj = {
            "directions": self.directions,
            "settings": self.settings,
            "reports": {
                f"{s}|{d}": json.loads(self.reports[(s, d)].to_json())
                for (s, d) in self.reports
            },
        }
        return json.dumps(obj, sort_keys=True, ensure_ascii=False)

    @classmethod
    def from_json(cls, text: str) -> "ComparisonTable":
        obj = json.loads(text)
        reports = {
            tuple(key.split("|", 1)): EvalReport.from_json(json.dumps(rep))
            for key, rep in obj["reports"].items()
        }
        return cls(obj["directions"], obj["settings"], reports)


def compare_settings(
    configs: dict,
    parallel: ParallelStore,
    mono: MonoStore,
    tokenizer,
    out_dir=None,
):
    """Run BASE/BT/BT&REC on shared stores and score the shared test split.

    ``configs`` maps setting name -> ExperimentConfig; configs must agree
    on everything except the setting and its BT/REC knobs. Returns
    (ComparisonTable, {setting: RunLog}).
    """
    names = list(configs)
    base_fingerprint = None
    for name, config in configs.items():
        fp = _config_dict(config)
        fp.pop("setting")
        fp.pop("bt")
        fp.pop("rec")
        if base_fingerprint is None:
            base_fingerprint = fp
        elif fp != base_fingerprint:
            raise ConfigError(
                f"config {name!r} differs from the others beyond setting/bt/rec"
            )
    test_by_direction = ParallelStore(
        tuple(p for p in parallel.pairs if p.split == "test")
    ).by_direction()
    if not test_by_direction:
        raise ConfigError("no test split in the parallel store")

    reports = {}
    logs = {}
    directions = None
    for name in names:
        config = configs[name]
        run_dir = os.path.join(out_dir, f"run-{name}") if out_dir else None
        params, run_log = run_experiment(
            config, parallel, mono, tokenizer, checkpoint_dir=run_dir
        )
        logs[name] = run_log
        wanted = build_directions(config.languages, config.resolved_exclusions())
        if directions is None:
            directions = [d.key for d in wanted if d in test_by_direction]
        for direction in wanted:
            pairs = test_by_direction.get(direction)
            if not pairs:
                continue
            reports[(name, direction.key)] = evaluate_direction(
                params, tokenizer, pairs
            )
    table = ComparisonTable(directions or [], names, reports)
    if out_dir:
        with open(os.path.join(out_dir, "comparison.csv"), "w", encoding="utf-8") as f:
            f.write(table.to_csv())
        with open(os.path.join(out_dir, "comparison.json"), "w", encoding="utf-8") as f:
            f.write(table.to_json())
    return table, logs
