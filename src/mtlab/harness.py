"""Experiment orchestration: curricula, early stopping, checkpoints.

One coordinating thread runs the epoch loop. Each epoch runs four phases,
and the run log records what each returns:

- ``_augment``: from the configured start epoch, BT settings run one
  backtranslation round (``bt_round``) and BT&REC also one reconstruction
  round (``rec_round``), each over every run language with monolingual
  training data. ``_epoch_budget`` fixes each epoch's round and budgets
  (num_bt follows the decay list across rounds), for the rounds and the lr
  schedule alike.
- ``_epoch_order``: the translation and synthetic examples shuffled into
  the epoch's training stream, each window of step slices sorted by length.
- ``_train_step``: one optimizer step (``step``) on the next slice of
  ``batch_size_sentences * accumulation_factor`` examples of the stream.
- ``_evaluate``: dev loss every ``eval_every_steps`` optimizer steps
  (``eval``); after ``patience_evals`` non-improving evals training stops
  early (``early_stop``).

Each epoch ends with an ``epoch`` entry and its checkpoint; a run begins
with ``start`` and ends with ``finish``. The lr schedule's length is the
number of step slices the epochs hold, counted before the first epoch;
only a failed BT decode or an early stop ends a run sooner. The run
returns the best-dev parameters once an evaluation has run.

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

``compare_settings`` runs the paper's comparison: one config trained as
BASE, BT and BT&REC on the same stores, each in its own run directory
``run-<label>``, and every setting scored on the shared test split.
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
from .errors import CheckpointError, ConfigError, FormatError
from .metrics import EvalReport, evaluate_direction
from .numerics import backward, no_grad, rng_fork
from .objectives import (
    REC_N_SWAPS,
    REC_P_DEL,
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
_AUDIT = "augmentation_audit.jsonl"
RUN_FILES = ("run.ckpt", "runlog.jsonl", _AUDIT, "tokenizer.txt")


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
    batch_size_sentences: int = 32
    accumulation_factor: int = 1
    eval_every_steps: int = 50
    patience_evals: int = 100
    # Always 1; kept because the perfbench workloads set it (ROADMAP item 6).
    bt_workers: int = 1
    seed: int = 13

    def resolved_exclusions(self) -> tuple[tuple[str, str], ...]:
        if self.exclusions is not None:
            return self.exclusions
        if "eng" in self.languages and "fra" in self.languages:
            return (("eng", "fra"),)
        return ()

    def __post_init__(self):
        # checked when built, so a bad value fails before any data loads
        if len(self.languages) < 2:
            raise ConfigError("need at least 2 languages")
        if len(set(self.languages)) != len(self.languages):
            raise ConfigError("duplicate language codes")
        for name in ("epochs", "patience_evals", "batch_size_sentences", "accumulation_factor",
                     "eval_every_steps"):
            if getattr(self, name) < 1:
                raise ConfigError(f"{name} must be >= 1, got {getattr(self, name)}")
        if self.warmup_steps < 0:
            raise ConfigError(f"warmup_steps must be >= 0, got {self.warmup_steps}")
        if self.bt_workers != 1:
            raise ConfigError("bt_workers must be 1; backtranslation runs on the calling thread")
        codes = [("languages", c) for c in self.languages]
        codes += [("exclusions", c) for pair in self.exclusions or () for c in pair]
        for key, code in codes:
            try:
                LangTag(code)
            except FormatError as exc:
                raise ConfigError(f"{key}: {exc}") from None

    def to_dict(self) -> dict:
        """The config as nested dicts of plain values, the setting by its value, as
        ``run.ckpt`` and run manifests store it."""
        d = asdict(self)
        d["setting"] = self.setting.value
        return d

    def config_hash(self) -> str:
        blob = json.dumps(self.to_dict(), sort_keys=True)
        return hashlib.sha256(blob.encode("utf-8")).hexdigest()


# Keys that experiment configs saved by earlier versions carry, with the one
# value each may hold (see ``checkpoint.drop_retired``).
_RETIRED_KEYS = {
    "model": M.RETIRED_KEYS,
    "total_steps": 0,
    "mono_langs": None,
    "bt": {"temperature": 1.0},
    "rec": {"n_swaps": REC_N_SWAPS, "p_del": REC_P_DEL},
    "optimizer": {"beta1": optim.BETA1, "beta2": optim.BETA2, "eps": optim.EPS,
                  "weight_decay": optim.WEIGHT_DECAY},
}


class RunLog:
    """Append-only training log, exported as jsonl."""

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

    def save(self, path) -> None:
        """Write a ``meta`` line, then one line per entry."""
        head = {"type": "meta", "seed": self.seed, "config_hash": self.config_hash}
        with open(path, "w", encoding="utf-8") as f:
            f.write(json.dumps(head, sort_keys=True) + "\n")
            for e in self.entries:
                f.write(json.dumps(e, sort_keys=True, ensure_ascii=False) + "\n")


def _encode_examples(tokenizer, examples: list[TaggedExample], max_positions: int):
    """(source ids, target ids) of each example, encoding each distinct text
    once; an over-long sequence keeps its last id, the eos.
    """
    ids: dict[str, list[int]] = {}

    def encode(text):
        seq = ids.get(text)
        if seq is None:
            seq = tokenizer.encode(text)
            if len(seq) > max_positions:
                seq = seq[: max_positions - 1] + [seq[-1]]
            ids[text] = seq
        return seq

    return [(encode(ex.input_text), encode(ex.target_text)) for ex in examples]


def _make_batch(pairs) -> M.Batch:
    return M.make_batch([s for s, _ in pairs], [t for _, t in pairs], M.ModelConfig.pad_id)


def _dev_loss(params, dev_pairs, batch_size: int) -> float:
    total = 0.0
    tokens = 0
    with no_grad():
        for start in range(0, len(dev_pairs), batch_size):
            batch = _make_batch(dev_pairs[start : start + batch_size])
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
    best_dev: float = float("inf")
    evals_since_best: int = 0
    stopped_early: bool = False
    audit_lines: int = 0  # lines of augmentation_audit.jsonl written so far


@dataclass
class _Run:
    """What ``run.ckpt`` saves: everything a resume needs. It also owns the
    float64 gradient buffers of ``_train_step``, laid out like
    ``params.flat``, made by the run's first step and never saved: ``grad``,
    the step's token-weighted sum and then its mean, and ``micro_grad``, a
    later micro-batch's gradient."""

    params: M.Params
    best_params: M.Params
    opt_state: optim.AdamWState
    trainer: _TrainerState
    log: RunLog
    grad: np.ndarray | None = field(default=None, init=False, repr=False)
    micro_grad: np.ndarray | None = field(default=None, init=False, repr=False)


def _epoch_budget(config, epoch: int) -> tuple[int | None, int, int]:
    """(0-based BT round, BT sentences per language, REC sentences per
    language) of ``epoch``: (None, 0, 0) if it runs no round."""
    if config.setting is FinetuneSetting.BASE or epoch < config.bt.start_epoch:
        return None, 0, 0
    bt_round = epoch - config.bt.start_epoch
    num_rec = config.rec.num_rec if config.setting is FinetuneSetting.BT_REC else 0
    return bt_round, config.bt.num_bt_for_round(bt_round), num_rec


def _total_steps(config, n_translation, n_mono_langs) -> int:
    """Optimizer steps of the run if every BT decode succeeds: the number of
    step slices each epoch's examples are cut into."""
    step_size = config.batch_size_sentences * config.accumulation_factor
    steps = 0
    for epoch in range(1, config.epochs + 1):
        _, num_bt, num_rec = _epoch_budget(config, epoch)
        steps += -(-(n_translation + (num_bt + num_rec) * n_mono_langs) // step_size)
    return steps


def _model_config(config, tokenizer) -> M.ModelConfig:
    """``config.model`` with the tokenizer's vocabulary; a ConfigError for a
    run language the tokenizer has no tag for or another nonzero vocab_size."""
    tokenizer.require_tags(config.languages)
    if config.model.vocab_size not in (0, tokenizer.vocab_size):
        raise ConfigError(f"model.vocab_size {config.model.vocab_size} is not the "
                          f"tokenizer's {tokenizer.vocab_size}; 0 takes the tokenizer's")
    return replace(config.model, vocab_size=tokenizer.vocab_size)


def _run_data(config, parallel: ParallelStore, mono: MonoStore, tokenizer, max_positions: int):
    """(directions, encoded train and dev translation examples in direction
    order, the run languages' monolingual train sentences) of a run."""
    directions = build_directions(config.languages, config.resolved_exclusions())
    by_direction = parallel.by_direction()
    examples = {"train": [], "dev": []}
    for direction in directions:
        for pair in by_direction.get(direction, ()):
            if pair.split in examples:
                examples[pair.split].append(format_translation(pair))
    train = examples["train"]
    if not train:
        raise ConfigError("no training pairs for the configured directions")
    encoded = _encode_examples(tokenizer, train + examples["dev"], max_positions)
    run_langs = set(config.languages)
    mono = MonoStore(
        tuple(s for s in mono.sentences if s.lang.code in run_langs and s.split == "train")
    )
    return directions, encoded[: len(train)], encoded[len(train) :], mono


def _new_run(config, model_cfg, init_params, tokenizer, checkpoint_dir, **start) -> _Run:
    """A run before its first epoch, with its ``start`` entry; makes its run
    directory if ``checkpoint_dir`` is set."""
    params = init_params.copy() if init_params is not None else M.init(model_cfg, config.seed)
    run = _Run(params, params.copy(), optim.AdamWState(params), _TrainerState(),
               RunLog(config.seed, config.config_hash()))
    run.log.log("start", **start, tokenizer_sha256=tokenizer.hash())
    if checkpoint_dir is not None:
        os.makedirs(checkpoint_dir, exist_ok=True)
        tokenizer.save(os.path.join(checkpoint_dir, "tokenizer.txt"))
        open(os.path.join(checkpoint_dir, _AUDIT), "w", encoding="utf-8").close()
    return run


def _augment(config, params, tokenizer, mono: MonoStore, epoch: int):
    """(BT and REC examples of ``epoch``, their ``bt_round`` and ``rec_round``
    entries); none if the epoch runs no round or no language has data."""
    bt_round, num_bt, num_rec = _epoch_budget(config, epoch)
    n_langs = len(mono.languages())
    if bt_round is None or n_langs == 0:
        return [], []
    examples = make_bt_examples(params, tokenizer, mono, config.languages, config.bt,
                                rng_fork(config.seed, f"bt-round:{epoch}"), num_bt,
                                exclusions=config.resolved_exclusions())
    # skipped: budgeted sentences of languages with data whose decode failed
    entries = [dict(type="bt_round", epoch=epoch, round=bt_round, num_bt=num_bt,
                    emitted=len(examples), skipped=num_bt * n_langs - len(examples))]
    if num_rec:
        rec = make_rec_examples(mono, num_rec, rng_fork(config.seed, f"rec-round:{epoch}"))
        entries.append(dict(type="rec_round", epoch=epoch, round=bt_round, emitted=len(rec)))
        examples += rec
    return examples, entries


# Step slices per window that ``_epoch_order`` sorts by (target, source)
# length; the target comes first because decoder positions cost more.
_BUCKET_SLICES = 16


def _epoch_order(config, epoch: int, pairs: list) -> list:
    """The epoch's training stream: ``pairs`` shuffled from the epoch's rng
    stream, each window of ``_BUCKET_SLICES`` step slices stable-sorted by
    length and cut into slices, then the full slices shuffled by the same
    rng and the one short slice, if any, last."""
    rng = rng_fork(config.seed, f"shuffle:{epoch}")
    shuffled = [pairs[i] for i in rng.permutation(len(pairs))]
    size = config.batch_size_sentences * config.accumulation_factor
    window = _BUCKET_SLICES * size
    slices = []
    for start in range(0, len(shuffled), window):
        bucket = sorted(shuffled[start : start + window], key=lambda p: (len(p[1]), len(p[0])))
        slices += [bucket[i : i + size] for i in range(0, len(bucket), size)]
    full = len(pairs) // size
    order = [*rng.permutation(full), *range(full, len(slices))]
    return [pair for i in order for pair in slices[i]]


def _train_step(config, run: _Run, epoch: int, pairs: list, lr: float):
    """One optimizer step on ``pairs``; returns its ``step`` entry and the
    summed token loss.

    The step cuts ``pairs`` into micro-batches of ``batch_size_sentences``,
    takes the token-weighted mean of their flat gradients
    (``Params.flat_grad``), summed in float64 in place in ``run.grad``.
    Its entry holds the mean loss, lr, target tokens, ``grad_norm``, the
    L2 norm of that mean gradient in float64, and ``pad_share``, the share
    of the micro-batches' source and target positions that are padding.
    """
    loss_sum = 0.0
    tokens = 0
    positions = real = 0
    for start in range(0, len(pairs), config.batch_size_sentences):
        batch = _make_batch(pairs[start : start + config.batch_size_sentences])
        n_tok = int(batch.tgt_mask.sum())
        positions += batch.src_ids.size + batch.tgt_ids.size
        real += int(batch.src_mask.sum()) + n_tok
        run.trainer.micro_step += 1
        drop_rng = rng_fork(config.seed, f"dropout:{run.trainer.micro_step}")
        loss = M.loss_teacher_forcing(run.params, batch, dropout_rng=drop_rng)
        grads = backward(loss, list(run.params.tensors.values()))
        if run.grad is None:
            # Made while the first step's graph is alive, the buffers sit above
            # the memory that each step frees, so the allocator keeps that memory
            # for the next step rather than returning it and faulting it back in.
            run.grad, run.micro_grad = np.empty((2, run.params.flat.size))
        grad = run.micro_grad if start else run.grad
        run.params.flat_grad(grads, grad)
        grad *= n_tok
        if start:
            run.grad += grad
        loss_sum += loss.item() * n_tok
        tokens += n_tok
    run.grad /= tokens
    optim.adamw_step(run.params, run.grad, run.opt_state, run.trainer.opt_step + 1, lr)
    run.trainer.opt_step += 1
    entry = dict(type="step", step=run.trainer.opt_step, epoch=epoch, loss=loss_sum / tokens,
                 lr=lr, tokens=tokens, grad_norm=float(np.sqrt(np.dot(run.grad, run.grad))),
                 pad_share=1 - real / positions)
    return entry, loss_sum


def _evaluate(config, run: _Run, epoch: int, dev_pairs: list) -> list[dict]:
    """The dev evaluation due after the current step: its ``eval`` entry, then
    ``early_stop`` if patience ran out; none if no evaluation is due."""
    t = run.trainer
    if not dev_pairs or t.opt_step % config.eval_every_steps:
        return []
    dev = _dev_loss(run.params, dev_pairs, config.batch_size_sentences)
    improved = dev < t.best_dev
    if improved:
        t.best_dev = dev
        t.evals_since_best = 0
        # both Params come from one Params or one run file, so their layouts match
        run.best_params.flat[...] = run.params.flat
    else:
        t.evals_since_best += 1
    entries = [dict(type="eval", step=t.opt_step, epoch=epoch, dev_loss=dev, best=t.best_dev,
                    improved=improved)]
    if t.evals_since_best >= config.patience_evals:
        t.stopped_early = True
        entries.append(dict(type="early_stop", step=t.opt_step, epoch=epoch))
    return entries


def run_experiment(config: ExperimentConfig, parallel: ParallelStore, mono: MonoStore, tokenizer,
                   checkpoint_dir=None, resume=False, init_params=None):
    """Train one setting end to end; returns (best Params, RunLog).

    ``checkpoint_dir`` enables epoch-boundary checkpoints plus a jsonl
    audit of emitted BT/REC examples; ``resume=True`` continues the run
    checkpointed in ``checkpoint_dir`` and reproduces its uninterrupted loss
    trace. ``init_params`` starts a new run from a copy of these parameters
    instead of ``model.init``. A nonzero ``model.vocab_size`` other than the
    tokenizer's is a ConfigError, raised before any work.

    Translation and dev examples are encoded once, before the first epoch;
    BT and REC examples when their round makes them.
    """
    if resume and checkpoint_dir is None:
        raise ConfigError("resume needs the checkpoint_dir of the run to resume")
    model_cfg = _model_config(config, tokenizer)
    directions, train_pairs, dev_pairs, active_mono = _run_data(
        config, parallel, mono, tokenizer, model_cfg.max_positions
    )
    total_steps = _total_steps(config, len(train_pairs), len(active_mono.languages()))
    warmup_steps = min(config.warmup_steps, total_steps)
    step_size = config.batch_size_sentences * config.accumulation_factor

    start = dict(directions=[d.key for d in directions], train_examples=len(train_pairs),
                 dev_examples=len(dev_pairs), total_steps=total_steps)
    if resume:
        run = _load_run(checkpoint_dir, config, tokenizer, start)
    else:
        run = _new_run(config, model_cfg, init_params, tokenizer, checkpoint_dir, **start)

    wall_start = time.time()
    for epoch in range(run.trainer.epoch_done + 1, config.epochs + 1):
        if run.trainer.stopped_early:
            break
        synthetic, rounds = _augment(config, run.params, tokenizer, active_mono, epoch)
        run.log.entries += rounds
        if checkpoint_dir is not None and rounds:
            write_audit(os.path.join(checkpoint_dir, _AUDIT), synthetic, rounds[0]["round"])
            run.trainer.audit_lines += len(synthetic)
        synthetic_pairs = _encode_examples(tokenizer, synthetic, model_cfg.max_positions)
        epoch_pairs = _epoch_order(config, epoch, train_pairs + synthetic_pairs)
        loss_sum, tokens = 0.0, 0
        for start in range(0, len(epoch_pairs), step_size):
            lr = optim.lr_at(warmup_steps, total_steps, config.optimizer.lr, run.trainer.opt_step)
            step_pairs = epoch_pairs[start : start + step_size]
            step, step_loss = _train_step(config, run, epoch, step_pairs, lr)
            run.log.entries.append(step)
            loss_sum += step_loss
            tokens += step["tokens"]
            run.log.entries += _evaluate(config, run, epoch, dev_pairs)
            if run.trainer.stopped_early:
                break
        run.log.log("epoch", epoch=epoch, mean_loss=loss_sum / max(tokens, 1),
                    examples=len(epoch_pairs))
        run.trainer.epoch_done = epoch
        if checkpoint_dir is not None:
            _save_run(checkpoint_dir, config, run, tokenizer)

    evaluated = np.isfinite(run.trainer.best_dev)
    run.log.log("finish", epochs=run.trainer.epoch_done, steps=run.trainer.opt_step,
                best_dev=run.trainer.best_dev if evaluated else None,
                stopped_early=run.trainer.stopped_early,
                wall_seconds=round(time.time() - wall_start, 3))
    if checkpoint_dir is not None:
        run.log.save(os.path.join(checkpoint_dir, "runlog.jsonl"))
    return (run.best_params if evaluated else run.params), run.log


def _save_run(directory, config, run: _Run, tokenizer):
    sections = {
        "params": {k: t.data for k, t in run.params.tensors.items()},
        "best": {k: t.data for k, t in run.best_params.tensors.items()},
        "adam_m": run.params.views(run.opt_state.m_flat),
        "adam_v": run.params.views(run.opt_state.v_flat),
    }
    arrays = {f"{s}/{k}": v for s, tensors in sections.items() for k, v in tensors.items()}
    meta = {
        "config": asdict(run.params.config),
        "experiment": config.to_dict(),
        "trainer": asdict(run.trainer),
        "tokenizer_sha256": tokenizer.hash(),
        "run_log": run.log.entries,
    }
    ckpt.save_arrays(os.path.join(directory, "run.ckpt"), arrays, meta)
    run.log.save(os.path.join(directory, "runlog.jsonl"))


def _load_run(directory, config, tokenizer, start: dict) -> _Run:
    """The run checkpointed in ``directory``; a CheckpointError unless its
    config, tokenizer and the ``start`` entry fields that the stores fix
    (directions, example counts, total steps) are this run's."""
    path = os.path.join(directory, "run.ckpt")
    arrays, meta = ckpt.load_arrays(path)
    live = json.loads(json.dumps(config.to_dict()))  # tuples -> lists
    saved = ckpt.drop_retired(meta.get("experiment") or {}, _RETIRED_KEYS, "experiment config")
    if saved != live:
        raise CheckpointError("resume config does not match the checkpointed config")
    if meta.get("tokenizer_sha256") != tokenizer.hash():
        raise CheckpointError("resume tokenizer does not match the checkpointed tokenizer")
    params = _section(path, arrays, meta, "params")
    # the moment sections are stored in the params section's order, so their flat layouts match
    opt_state = optim.AdamWState(params)
    opt_state.m_flat[...] = _section(path, arrays, meta, "adam_m").flat
    opt_state.v_flat[...] = _section(path, arrays, meta, "adam_v").flat
    entries = meta.get("run_log")
    if not isinstance(entries, list) or not all(isinstance(e, dict) for e in entries):
        raise CheckpointError(f"{path}: meta run_log is not a list of run-log entries")
    saved_start = next((e for e in entries if e.get("type") == "start"), {})
    for key, value in start.items():
        if saved_start.get(key) != value:
            raise CheckpointError(f"resume {key} {value!r} does not match the "
                                  f"checkpointed {saved_start.get(key)!r}")
    run_log = RunLog(config.seed, config.config_hash())
    run_log.entries = entries
    run = _Run(params, _section(path, arrays, meta, "best"), opt_state, _trainer_state(path, meta),
               run_log)
    _trim_audit(os.path.join(directory, _AUDIT), run.trainer.audit_lines)
    return run


def _section(path, arrays, meta, name):
    """Params built from one ``<name>/`` tensor section of a run file."""
    prefix = f"{name}/"
    part = {k[len(prefix):]: v for k, v in arrays.items() if k.startswith(prefix)}
    return ckpt.params_from_arrays(f"{path} [{name}]", part, meta.get("config"))


def _trainer_state(path, meta) -> _TrainerState:
    """The ``trainer`` meta of a run file; a CheckpointError unless it holds
    every field of ``_TrainerState``, and no other, with the field's type."""
    saved = meta.get("trainer")
    if isinstance(saved, dict):
        # earlier versions also kept bt_rounds_done; the epoch fixes the round
        saved = {k: v for k, v in saved.items() if k != "bt_rounds_done"}
        types = {k: type(v) for k, v in asdict(_TrainerState()).items()}
        if {k: type(v) for k, v in saved.items()} == types:
            return _TrainerState(**saved)
    raise CheckpointError(f"{path}: meta trainer {saved!r} is not a trainer state")


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
        evaluated = np.isfinite(_trainer_state(path, meta).best_dev)
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
            "reports": {f"{s}|{d}": rep.to_dict() for (s, d), rep in self.reports.items()},
        }
        return json.dumps(obj, sort_keys=True, ensure_ascii=False)

    @classmethod
    def from_json(cls, text: str) -> "ComparisonTable":
        """The table ``to_json`` wrote; a ValueError, KeyError or TypeError
        unless it holds a report with numeric scores for every setting and
        direction."""
        obj = json.loads(text)
        reports = {tuple(key.split("|", 1)): EvalReport.from_dict(rep)
                   for key, rep in obj["reports"].items()}
        table = cls(obj["directions"], obj["settings"], reports)
        missing = {(s, d) for s in table.settings for d in table.directions} - reports.keys()
        if missing:
            raise KeyError(f"no report for {sorted(missing)}")
        return table


# The settings ``compare_settings`` trains, in table order, with their labels.
_COMPARED = (
    ("BASE", FinetuneSetting.BASE),
    ("BT", FinetuneSetting.BT),
    ("BT&REC", FinetuneSetting.BT_REC),
)


def compare_settings(config, parallel: ParallelStore, mono: MonoStore, tokenizer, out_dir):
    """Train ``config`` as BASE, BT and BT&REC and score each on the test split.

    Each setting runs in ``out_dir/run-<label>``; the table goes to
    ``comparison.csv`` and ``comparison.json`` in ``out_dir`` and is
    returned.
    """
    test_by_direction = ParallelStore(
        tuple(p for p in parallel.pairs if p.split == "test")
    ).by_direction()
    if not test_by_direction:
        raise ConfigError("no test split in the parallel store")
    wanted = build_directions(config.languages, config.resolved_exclusions())
    directions = [d for d in wanted if d in test_by_direction]

    reports = {}
    for label, setting in _COMPARED:
        params, _ = run_experiment(
            replace(config, setting=setting), parallel, mono, tokenizer,
            checkpoint_dir=os.path.join(out_dir, f"run-{label}"),
        )
        for direction in directions:
            reports[(label, direction.key)] = evaluate_direction(
                params, tokenizer, test_by_direction[direction]
            )
    table = ComparisonTable(
        [d.key for d in directions], [label for label, _ in _COMPARED], reports
    )
    with open(os.path.join(out_dir, "comparison.csv"), "w", encoding="utf-8") as f:
        f.write(table.to_csv())
    with open(os.path.join(out_dir, "comparison.json"), "w", encoding="utf-8") as f:
        f.write(table.to_json())
    return table
