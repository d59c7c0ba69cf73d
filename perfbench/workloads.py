"""The three workloads, each driven through the public API of ``mtlab``.

Set-up loads what the workload needs, builds the inputs of the first
pass and warms up on inputs that do not depend on the seed. A run then
makes passes: each has inputs of its own, drawn from the run's seed and
the pass index, and the same number and kind of operations. A pass returns
one latency per operation and its outputs, which ``check`` inspects
outside the timed region. All load comes from this one process and one
client in a closed loop: the next call starts when the previous one has
returned.
"""

from __future__ import annotations

import json
import os
import shutil
import tempfile
import time
from dataclasses import dataclass, field

import checks
import common
from mtlab import decoding, harness, metrics, optim, synth
from mtlab import model as M
from mtlab.numerics import backward, rng_fork
from mtlab.objectives import BTConfig, FinetuneSetting, RECConfig, build_directions


@dataclass
class PassResult:
    seconds: float = 0.0  # timed wall time of the pass
    work: float = 0.0  # units of the workload's throughput
    attempted: int = 0
    failed: int = 0
    latencies_s: list = field(default_factory=list)  # one per timed operation
    outputs: object = None  # what ``check`` inspects


def _pass_seed(seed: int, index: int, what: str) -> int:
    return int(rng_fork(seed, f"{what}:{index}").integers(2**31))


def _directions():
    return build_directions(common.LANGS, common.EXCLUSIONS)


def _test_split(seed: int, per_direction: int):
    parallel, _, _ = synth.gen_synthetic(
        common.lang_specs(), 0, 0, common.SENT_LEN, seed=seed,
        n_test_per_direction=per_direction,
    )
    return parallel.by_direction()


# ---------------------------------------------------------------------------
# train_btrec
# ---------------------------------------------------------------------------

class TrainBTREC:
    """A pass is one BT&REC finetuning job from the base model, on a
    corpus of its own.

    BT and REC run from the first epoch; checkpoints go to a temporary
    directory under ``perfbench/out/``. The timed operations are the
    intervals between the ends of consecutive optimizer steps (the first
    from the start of the job); the tail after the last step (final dev
    evaluation and checkpoint write) is in the pass's time but is no step.
    Throughput counts the target tokens of every step, translation, BT and
    REC examples alike.
    """

    name = "train_btrec"
    EPOCHS = 3
    NUM_BT = 3
    NUM_SAMPLE = 2
    # REC is new to a BASE model, so a large REC share gives a loss drop
    # across the epochs that the per-epoch resampling noise cannot hide.
    NUM_REC = 18
    PAIRS_PER_DIRECTION = 6
    MONO_PER_LANG = 12
    LR = 3e-3
    # 60 pairs + 12 BT + 72 REC = 144 examples: 6 steps of 24 per epoch, so
    # the steps that wait for a BT round are 1 in 6 of all steps.
    BATCH = 24

    def __init__(self, seed: int):
        self.seed = seed

    def setup(self):
        self.params, self.tokenizer = common.load_base_model()
        self.base_tensors = {k: v.data.copy() for k, v in self.params.tensors.items()}
        self.make_pass(0)
        # warm-up: one teacher-forced forward and backward, one sampled decode
        texts = [(" ".join(["ka1"] * n), " ".join(["bu1"] * n)) for n in range(2, 7)]
        srcs = [self.tokenizer.encode(f"<sy2> {s}") for s, _ in texts]
        tgts = [self.tokenizer.encode(t) for _, t in texts]
        loss = M.loss_teacher_forcing(self.params, M.make_batch(srcs, tgts, 0))
        backward(loss, list(self.params.tensors.values()))
        decoding.generate(
            self.params, self.tokenizer, "<sy2> ka1 ka2 ka3",
            decoding.DecodeConfig(mode="sample"), rng=rng_fork(common.BASE_SEED, "warm-up"),
        )

    def make_pass(self, index: int):
        seed = _pass_seed(self.seed, index, "train")
        parallel, mono, _ = synth.gen_synthetic(
            common.lang_specs(), self.PAIRS_PER_DIRECTION, self.MONO_PER_LANG,
            common.SENT_LEN, seed=seed, n_dev_per_direction=1,
        )
        config = harness.ExperimentConfig(
            languages=common.LANGS,
            setting=FinetuneSetting.BT_REC,
            exclusions=common.EXCLUSIONS,
            epochs=self.EPOCHS,
            model=self.params.config,
            bt=BTConfig(num_bt=self.NUM_BT, num_sample=self.NUM_SAMPLE, start_epoch=1),
            rec=RECConfig(num_rec=self.NUM_REC),
            optimizer=optim.AdamWConfig(lr=self.LR),
            warmup_steps=2,
            batch_size_sentences=self.BATCH,
            eval_every_steps=3,
            patience_evals=100,
            bt_workers=1,
            seed=seed,
        )
        return {"config": config, "parallel": parallel, "mono": mono}

    def run_pass(self, job) -> PassResult:
        common.OUT_DIR.mkdir(parents=True, exist_ok=True)
        ckpt_dir = tempfile.mkdtemp(prefix="train-", dir=common.OUT_DIR)
        marks = []
        adamw_step = optim.adamw_step

        def timed_step(*args, **kwargs):
            out = adamw_step(*args, **kwargs)
            marks.append(time.perf_counter())
            return out

        optim.adamw_step = timed_step
        try:
            start = time.perf_counter()
            params, run_log = harness.run_experiment(
                job["config"], job["parallel"], job["mono"], self.tokenizer,
                checkpoint_dir=ckpt_dir, init_params=self.params,
            )
            end = time.perf_counter()
            with open(os.path.join(ckpt_dir, "augmentation_audit.jsonl"), encoding="utf-8") as f:
                audit = [json.loads(line) for line in f]
        finally:
            optim.adamw_step = adamw_step
            shutil.rmtree(ckpt_dir, ignore_errors=True)
        steps = run_log.entries_of("step")
        bounds = [start] + marks
        return PassResult(
            seconds=end - start,
            work=float(sum(e["tokens"] for e in steps)),
            attempted=len(steps),
            latencies_s=[b - a for a, b in zip(bounds, bounds[1:])],
            outputs=(params, run_log, audit),
        )

    def check(self, job, result: PassResult) -> list[str]:
        params, run_log, audit = result.outputs
        problems = []
        if len(result.latencies_s) != result.attempted:
            problems.append(
                f"{len(result.latencies_s)} optimizer steps seen, {result.attempted} logged"
            )
        mono_by_lang = {}
        for s in job["mono"].sentences:
            mono_by_lang.setdefault(s.lang.code, set()).add(s.text)
        problems += checks.check_augmentation(
            audit, mono_by_lang, common.LANGS, common.EXCLUSIONS,
            self.NUM_BT, self.NUM_REC, self.EPOCHS,
        )
        problems += checks.check_training(
            run_log.loss_trace,
            [e["mean_loss"] for e in run_log.entries_of("epoch")],
            self.base_tensors,
            {k: v.data for k, v in params.tensors.items()},
        )
        return problems


# ---------------------------------------------------------------------------
# translate_greedy
# ---------------------------------------------------------------------------

class TranslateGreedy:
    """A pass translates a fresh test split into each of the four languages.

    A request is what ``mtlab translate`` sends for one input file: one
    greedy ``generate_batch`` call on every test source of one target
    language, from every language that may translate into it (2 or 3
    source languages, so 2 or 3 times ``PER_DIRECTION`` sentences).
    Throughput is output tokens per second; latency is per request.
    """

    name = "translate_greedy"
    # Sentences per direction in a pass's test split: the largest size at
    # which a 30 s run on a host 30% slower than measured (81 sentences/s,
    # README) still makes the 100 requests that put ten latency samples
    # beyond p90. A pass is 4 requests of 10 * PER_DIRECTION sentences.
    PER_DIRECTION = 6

    def __init__(self, seed: int):
        self.seed = seed
        self.config = decoding.DecodeConfig(mode="greedy")

    def setup(self):
        self.params, self.tokenizer = common.load_base_model()
        self.make_pass(0)
        warm = ["<sy2> ka1 ka2 ka3", "<sy3> bu1 bu2 bu3 bu4"]
        decoding.generate_batch(self.params, self.tokenizer, warm, self.config)

    def make_pass(self, index: int):
        by_direction = _test_split(_pass_seed(self.seed, index, "translate"), self.PER_DIRECTION)
        files = {}
        for d in _directions():
            files.setdefault(d.tgt, []).extend(
                f"{d.tgt.surface} {p.src_text}" for p in by_direction[d]
            )
        return [files[tgt] for tgt in sorted(files)]

    def run_pass(self, requests) -> PassResult:
        result = PassResult()
        outputs = []
        for inputs in requests:
            start = time.perf_counter()
            out = decoding.generate_batch(self.params, self.tokenizer, inputs, self.config)
            latency = time.perf_counter() - start
            result.seconds += latency
            result.latencies_s.append(latency)
            outputs.append(out)
            result.attempted += len(out)
            result.failed += sum(1 for r in out if r.error is not None)
            result.work += sum(len(r.token_ids) for r in out if r.error is None)
        result.outputs = outputs
        return result

    def check(self, requests, result: PassResult) -> list[str]:
        problems = []
        for inputs, out in zip(requests, result.outputs):
            problems += checks.check_greedy_outputs(self.params, self.tokenizer, inputs, out)
        return problems


# ---------------------------------------------------------------------------
# score_test_set
# ---------------------------------------------------------------------------

def noisy_hypothesis(words, rng, lexicon_words, deletion_only: bool) -> list[str]:
    """One or two word edits of a reference: deletions only, or a mix of
    deletion, adjacent swap and substitution by another word of the same
    language. At least one word is kept.
    """
    hyp = list(words)
    for _ in range(int(rng.integers(1, 3))):
        kind = "delete" if deletion_only else ("delete", "swap", "substitute")[int(rng.integers(3))]
        if kind == "delete" and len(hyp) > 1:
            del hyp[int(rng.integers(len(hyp)))]
        elif kind == "swap" and len(hyp) > 1:
            i = int(rng.integers(len(hyp) - 1))
            hyp[i], hyp[i + 1] = hyp[i + 1], hyp[i]
        elif kind == "substitute":
            hyp[int(rng.integers(len(hyp)))] = lexicon_words[int(rng.integers(len(lexicon_words)))]
    return hyp


class ScoreTestSet:
    """A pass scores a fresh synthetic test split of every direction.

    A request is what ``mtlab evaluate`` and ``harness.run_comparison``
    send: one ``metrics.evaluate_direction`` call on one direction's whole
    split, here with ``generate_fn`` returning hypotheses made from the
    references by word edits, so no model runs. In two of the ten
    directions the hypotheses only delete words, which makes spTER exact. Throughput is segments per second;
    latency is per request.
    """

    name = "score_test_set"
    # Segments per direction's split: the largest size at which a 30 s run
    # on a host 30% slower than measured (75 segments/s, README) still
    # makes the 100 requests that put ten latency samples beyond p90. A
    # pass is 10 requests of PER_DIRECTION segments.
    PER_DIRECTION = 15

    def __init__(self, seed: int):
        self.seed = seed

    def setup(self):
        from mtlab.tokenizer import SubwordModel

        self.tokenizer = SubwordModel.load(common.BASE_MODEL_DIR / "tokenizer.txt")
        self.truth = synth.GroundTruth(common.lang_specs())
        self.make_pass(0)
        # warm-up: two 6-word segments, each with a swap and a substitution
        warm = synth.gen_synthetic(common.lang_specs()[:2], 0, 0, (6, 6), seed=common.BASE_SEED,
                                   n_test_per_direction=2)[0].pairs[:2]
        hyps = []
        for p in warm:
            words = p.tgt_text.split()
            hyps.append(" ".join([words[1], words[0], *words[2:5], words[0]]))
        metrics.evaluate_direction(None, self.tokenizer, warm, generate_fn=_replay(hyps))

    def make_pass(self, index: int):
        seed = _pass_seed(self.seed, index, "score")
        by_direction = _test_split(seed, self.PER_DIRECTION)
        rng = rng_fork(seed, "hypotheses")
        requests = []
        for d in _directions():
            lexicon = self.truth.lexicons[d.tgt.code].words
            pairs = by_direction[d]
            deletion_only = len(requests) % 5 == 0
            hyps = [
                " ".join(noisy_hypothesis(p.tgt_text.split(), rng, lexicon, deletion_only))
                for p in pairs
            ]
            requests.append((pairs, hyps, deletion_only))
        return requests

    def run_pass(self, requests) -> PassResult:
        result = PassResult()
        reports = []
        for pairs, hyps, _ in requests:
            start = time.perf_counter()
            report = metrics.evaluate_direction(
                None, self.tokenizer, pairs, generate_fn=_replay(hyps)
            )
            latency = time.perf_counter() - start
            result.seconds += latency
            result.latencies_s.append(latency)
            reports.append(report)
            result.attempted += len(pairs)
            result.work += len(pairs)
        result.outputs = reports
        return result

    def check(self, requests, result: PassResult) -> list[str]:
        problems = []
        pieces = self.tokenizer.encode_pieces
        for (pairs, hyps, deletion_only), report in zip(requests, result.outputs):
            refs = [p.tgt_text for p in pairs]
            problems += checks.check_scores(
                report.spbleu, report.spchrf, report.spter,
                [pieces(h) for h in hyps], [pieces(r) for r in refs], deletion_only,
            )
            same = metrics.spter(refs[:1], refs[:1], self.tokenizer)
            if same != 0.0:
                problems.append(f"spTER of an identical hypothesis is {same}")
        return problems


def _replay(hyps):
    """A ``generate_fn`` that returns the prepared hypotheses in order."""
    it = iter(hyps)
    return lambda _input_text: next(it)


WORKLOADS = {w.name: w for w in (TrainBTREC, TranslateGreedy, ScoreTestSet)}
