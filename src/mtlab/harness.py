"""Experiment orchestration: curricula, early stopping, checkpoints.

One coordinating thread runs the epoch loop. From the configured start
epoch, BT settings run one backtranslation round per epoch (num_bt follows
the decay list across rounds) and BT&REC additionally one reconstruction
round, each over every run language with monolingual training data; the
synthetic examples are shuffled uniformly into that epoch's training
stream. The lr schedule's length is the number of optimizer steps the
epochs take, counted before the first epoch from the data and each round's
budget; only a failed BT decode or an early stop ends a run sooner. Dev
loss is evaluated every ``eval_every_steps`` optimizer steps; training
stops early after ``patience_evals`` non-improving evals and the best-dev
checkpoint is returned.

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

    def config_hash(self) -> str:
        blob = json.dumps(_config_dict(self), sort_keys=True)
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


def _config_dict(config: ExperimentConfig) -> dict:
    d = asdict(config)
    d["setting"] = config.setting.value
    return d


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

    def to_jsonl(self) -> str:
        head = {"type": "meta", "seed": self.seed, "config_hash": self.config_hash}
        lines = [json.dumps(head, sort_keys=True)]
        lines += [json.dumps(e, sort_keys=True, ensure_ascii=False) for e in self.entries]
        return "\n".join(lines) + "\n"

    def save(self, path) -> None:
        with open(path, "w", encoding="utf-8") as f:
            f.write(self.to_jsonl())


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


def _bt_round(config, epoch: int) -> int | None:
    """0-based BT round that ``epoch`` runs, or None if it runs none."""
    if config.setting is FinetuneSetting.BASE or epoch < config.bt.start_epoch:
        return None
    return epoch - config.bt.start_epoch


def _total_steps(config, n_translation, n_mono_langs) -> int:
    """Optimizer steps of the run if every BT decode succeeds: per epoch, one
    per ``accumulation_factor`` micro-batches and one for the rest."""
    steps = 0
    for epoch in range(1, config.epochs + 1):
        n = n_translation
        bt_round = _bt_round(config, epoch)
        if bt_round is not None:
            n += config.bt.num_bt_for_round(bt_round) * n_mono_langs
            if config.setting is FinetuneSetting.BT_REC:
                n += config.rec.num_rec * n_mono_langs
        micro = -(-n // config.batch_size_sentences)
        steps += -(-micro // config.accumulation_factor)
    return steps


def run_experiment(
    config: ExperimentConfig,
    parallel: ParallelStore,
    mono: MonoStore,
    tokenizer,
    checkpoint_dir=None,
    resume=False,
    init_params=None,
):
    """Train one setting end to end; returns (best Params, RunLog).

    ``checkpoint_dir`` enables epoch-boundary checkpoints plus a jsonl
    audit of emitted BT/REC examples; ``resume=True`` continues the run
    checkpointed in ``checkpoint_dir`` and reproduces its uninterrupted loss
    trace. ``init_params`` starts a new run from a copy of these parameters
    instead of ``model.init``. A nonzero ``model.vocab_size`` other than the
    tokenizer's is a ConfigError, raised before any work.

    Translation and dev examples are encoded once, before the first epoch;
    BT and REC examples when their round makes them. Batches are cut from
    the stored ids. Each optimizer step takes the token-weighted mean of its
    ``accumulation_factor`` micro-batches' flat gradients
    (``Params.flat_grad``), summed in float64, and logs a ``step``
    entry with the mean loss, lr, target tokens and ``grad_norm``, the L2
    norm of that mean gradient in float64.
    """
    if resume and checkpoint_dir is None:
        raise ConfigError("resume needs the checkpoint_dir of the run to resume")
    tokenizer.require_tags(config.languages)
    model_cfg = config.model
    if model_cfg.vocab_size == 0:
        model_cfg = replace(model_cfg, vocab_size=tokenizer.vocab_size)
    elif model_cfg.vocab_size != tokenizer.vocab_size:
        raise ConfigError(f"model.vocab_size {model_cfg.vocab_size} is not the "
                          f"tokenizer's {tokenizer.vocab_size}; 0 takes the tokenizer's")
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
    encoded = _encode_examples(tokenizer, train_examples + dev_examples, model_cfg.max_positions)
    train_pairs, dev_pairs = encoded[: len(train_examples)], encoded[len(train_examples) :]

    run_langs = set(config.languages)
    active_mono = MonoStore(
        tuple(s for s in mono.sentences if s.lang.code in run_langs and s.split == "train")
    )
    n_mono_langs = len(active_mono.languages())

    total_steps = _total_steps(config, len(train_examples), n_mono_langs)
    warmup_steps = min(config.warmup_steps, total_steps)

    state = _TrainerState()
    run_log = RunLog(config.seed, config.config_hash())
    if resume:
        params, best_params, opt_state, state, run_log = _load_run(checkpoint_dir, config, tokenizer)
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
        if not resume:
            os.makedirs(checkpoint_dir, exist_ok=True)
            tokenizer.save(os.path.join(checkpoint_dir, "tokenizer.txt"))
            open(audit_path, "w", encoding="utf-8").close()

    wall_start = time.time()

    for epoch in range(state.epoch_done + 1, config.epochs + 1):
        if state.stopped_early:
            break
        epoch_pairs = list(train_pairs)
        bt_round = _bt_round(config, epoch)
        if bt_round is not None and n_mono_langs > 0:
            n_bt = config.bt.num_bt_for_round(bt_round)
            synthetic = make_bt_examples(
                params,
                tokenizer,
                active_mono,
                config.languages,
                config.bt,
                rng_fork(config.seed, f"bt-round:{epoch}"),
                exclusions=exclusions,
                num_bt=n_bt,
            )
            run_log.log(
                "bt_round",
                epoch=epoch,
                round=bt_round,
                num_bt=n_bt,
                emitted=len(synthetic),
                # budgeted sentences of languages with data whose decode failed
                skipped=n_bt * n_mono_langs - len(synthetic),
            )
            if config.setting is FinetuneSetting.BT_REC:
                rec_examples = make_rec_examples(
                    active_mono, config.rec, rng_fork(config.seed, f"rec-round:{epoch}")
                )
                run_log.log("rec_round", epoch=epoch, round=bt_round, emitted=len(rec_examples))
                synthetic = synthetic + rec_examples
            epoch_pairs += _encode_examples(tokenizer, synthetic, model_cfg.max_positions)
            if audit_path:
                write_audit(audit_path, synthetic, bt_round)
                state.audit_lines += len(synthetic)

        order = rng_fork(config.seed, f"shuffle:{epoch}").permutation(len(epoch_pairs))
        epoch_pairs = [epoch_pairs[i] for i in order]

        epoch_loss_sum = 0.0
        epoch_token_sum = 0
        # token-weighted sums over the micro-batches of the next optimizer step
        pending_loss = 0.0
        pending_tokens = 0
        pending_micro = 0
        for start in range(0, len(epoch_pairs), config.batch_size_sentences):
            if state.stopped_early:
                break
            batch = _make_batch(epoch_pairs[start : start + config.batch_size_sentences])
            state.micro_step += 1
            drop_rng = (
                rng_fork(config.seed, f"dropout:{state.micro_step}")
                if model_cfg.dropout > 0
                else None
            )
            loss = M.loss_teacher_forcing(params, batch, dropout_rng=drop_rng)
            grads = backward(loss, list(params.tensors.values()))
            n_tok = int(batch.tgt_mask.sum())
            weighted = params.flat_grad(grads) * n_tok
            if pending_micro:
                pending_grad += weighted
            else:
                pending_grad = weighted
            pending_loss += loss.item() * n_tok
            pending_tokens += n_tok
            pending_micro += 1
            if (pending_micro == config.accumulation_factor
                    or start + config.batch_size_sentences >= len(epoch_pairs)):
                mean_grad = pending_grad / pending_tokens
                lr = optim.lr_at(warmup_steps, total_steps, config.optimizer.lr, state.opt_step)
                optim.adamw_step(params, mean_grad, opt_state, lr)
                state.opt_step += 1
                run_log.log(
                    "step",
                    step=state.opt_step,
                    epoch=epoch,
                    loss=pending_loss / pending_tokens,
                    lr=lr,
                    tokens=pending_tokens,
                    grad_norm=float(np.sqrt(np.dot(mean_grad, mean_grad))),
                )
                epoch_loss_sum += pending_loss
                epoch_token_sum += pending_tokens
                pending_loss = 0.0
                pending_tokens = 0
                pending_micro = 0
                if dev_examples and state.opt_step % config.eval_every_steps == 0:
                    dev = _dev_loss(params, dev_pairs, config.batch_size_sentences)
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
                        run_log.log("early_stop", step=state.opt_step, epoch=epoch)

        run_log.log(
            "epoch",
            epoch=epoch,
            mean_loss=epoch_loss_sum / max(epoch_token_sum, 1),
            examples=len(epoch_pairs),
        )
        state.epoch_done = epoch
        if checkpoint_dir is not None:
            _save_run(checkpoint_dir, config, params, best_params, opt_state, state, run_log, tokenizer)

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
    saved = ckpt.drop_retired(meta.get("experiment") or {}, _RETIRED_KEYS, "experiment config")
    if saved != live:
        raise CheckpointError("resume config does not match the checkpointed config")
    if meta.get("tokenizer_sha256") != tokenizer.hash():
        raise CheckpointError("resume tokenizer does not match the checkpointed tokenizer")
    params = _section(path, arrays, meta, "params")
    best_params = _section(path, arrays, meta, "best")
    opt_state = optim.AdamWState(params)
    opt_state.t = meta["adam_t"]
    for moments, name in ((opt_state.m, "adam_m"), (opt_state.v, "adam_v")):
        for k, t in _section(path, arrays, meta, name).tensors.items():
            moments[k][...] = t.data
    run_log = RunLog(config.seed, config.config_hash())
    run_log.entries = meta["run_log"]
    trainer = dict(meta["trainer"])
    trainer.pop("bt_rounds_done", None)  # kept by earlier versions; the epoch fixes the round
    state = _TrainerState(**trainer)
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
