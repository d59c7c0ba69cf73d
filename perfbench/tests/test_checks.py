"""Tests of the benchmark's own output checks and tracer.

    python3 -m pytest perfbench/tests -q

Each check must pass on correct output and fail on deliberately wrong
output.
"""

from __future__ import annotations

import math
import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

import common  # noqa: E402

common.use_checkout_source()

import checks  # noqa: E402
import tracer as tracing  # noqa: E402
import workloads  # noqa: E402
from mtlab import decoding, metrics  # noqa: E402
from mtlab import model as M  # noqa: E402
from mtlab.corpus import Direction, LangTag, ParallelPair  # noqa: E402
from mtlab.numerics import no_grad, rng_fork  # noqa: E402


@pytest.fixture(scope="module")
def base():
    return common.load_base_model()


# ---------------------------------------------------------------------------
# translate_greedy
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def greedy_outputs(base):
    params, tokenizer = base
    inputs = workloads.TranslateGreedy(5).make_pass(0)[3]
    return inputs, decoding.generate_batch(params, tokenizer, inputs)


def _copy(result, token_ids):
    return decoding.GenerationResult(
        text="", token_ids=token_ids, truncated=result.truncated, error=result.error
    )


def test_greedy_check_passes_on_greedy_output(base, greedy_outputs):
    inputs, results = greedy_outputs
    assert checks.check_greedy_outputs(*base, inputs, results) == []


def test_greedy_check_fails_on_non_argmax_token(base, greedy_outputs):
    params, tokenizer = base
    inputs, results = greedy_outputs
    r = results[0]
    batch = M.make_batch([tokenizer.encode(inputs[0])], [r.token_ids + [1]], 0)
    with no_grad():
        row = M.forward_logits(params, batch).data[0, 1].copy()
    row[[0, 1, *tokenizer.tag_ids]] = np.inf
    worst = int(np.argmin(row))  # the allowed id with the lowest logit
    wrong = list(r.token_ids)
    wrong[1] = worst
    bad = [_copy(r, wrong)] + list(results[1:])
    assert checks.check_greedy_outputs(params, tokenizer, inputs, bad)


def test_greedy_check_fails_on_tag_or_pad_ids(base, greedy_outputs):
    params, tokenizer = base
    inputs, results = greedy_outputs
    r = results[0]
    for banned in (0, tokenizer.tag_ids[0]):
        bad = [_copy(r, [banned] + list(r.token_ids[1:]))] + list(results[1:])
        assert checks.check_greedy_outputs(params, tokenizer, inputs, bad)


# ---------------------------------------------------------------------------
# train_btrec
# ---------------------------------------------------------------------------

MONO = {"sy1": {"ka1 ka2 ka3", "ka4 ka5"}, "sy2": {"bu1 bu2", "bu3 bu4 bu5"}}
LANGS = ("sy1", "sy2", "sy3")
EXCL = (("sy1", "sy3"),)


def _records():
    return [
        {"kind": "backtranslation", "input": "<sy1> bu9 bu8", "target": "ka4 ka5",
         "pivot": "sy2", "round": 0},
        {"kind": "backtranslation", "input": "<sy2> zo1", "target": "bu1 bu2",
         "pivot": "sy3", "round": 0},
        {"kind": "reconstruction", "input": "<sy1> ka3 ka1", "target": "ka1 ka2 ka3",
         "round": 0},
        {"kind": "reconstruction", "input": "<sy2> bu5", "target": "bu3 bu4 bu5",
         "round": 0},
    ]


def _augmentation(records):
    return checks.check_augmentation(records, MONO, LANGS, EXCL, 1, 1, 1)


def test_augmentation_check_passes():
    assert _augmentation(_records()) == []


@pytest.mark.parametrize("index,field,value", [
    (2, "input", "<sy1> ka3 ka9"),        # REC input word not in its target
    (2, "input", "<sy1> ka3 ka3"),        # REC input repeats a word once in the target
    (0, "pivot", "sy3"),                  # excluded pivot
    (0, "pivot", "sy1"),                  # pivot is the language itself
    (1, "target", "bu1 bu2 bu9"),         # BT target not in the monolingual store
])
def test_augmentation_check_fails(index, field, value):
    records = _records()
    records[index][field] = value
    assert _augmentation(records)


def test_augmentation_check_fails_on_counts():
    assert _augmentation(_records()[1:])
    assert checks.check_augmentation(_records(), MONO, LANGS, EXCL, 2, 1, 1)


def test_training_check():
    before = {"w": np.zeros((2, 2)), "b": np.zeros(2)}
    after = {"w": np.ones((2, 2)), "b": np.ones(2)}
    assert checks.check_training([2.0, 1.5], [2.0, 1.0], before, after) == []
    assert checks.check_training([2.0, math.nan], [2.0, 1.0], before, after)
    assert checks.check_training([2.0, 1.5], [1.0, 1.2], before, after)
    assert checks.check_training([2.0, 1.5], [2.0, 1.0], before, {**after, "b": np.zeros(2)})


# ---------------------------------------------------------------------------
# score_test_set
# ---------------------------------------------------------------------------

def test_reference_metrics_on_known_values():
    assert checks.word_edit_distance("abc", "abc") == 0
    assert checks.word_edit_distance("kitten", "sitting") == 3
    assert checks.bleu_from_stats(*checks.bleu_stats([list("abcde")], [list("abcde")])) == 100.0
    assert checks.chrf_ref(["ab cd"], ["abcd"]) == pytest.approx(100.0)
    assert checks.bleu_from_stats([0, 0, 0, 0], [3, 2, 1, 0], 3, 3) == pytest.approx(
        100.0 * math.exp((math.log(1 / 6) + math.log(1 / 8) + math.log(1 / 8)) / 3)
    )


@pytest.fixture(scope="module")
def scored(base):
    _, tokenizer = base
    wl = workloads.ScoreTestSet(3)
    wl.setup()
    out = []
    for pairs, hyps, deletion_only in wl.make_pass(0)[:2]:
        it = iter(hyps)
        report = metrics.evaluate_direction(None, tokenizer, pairs, generate_fn=lambda _: next(it))
        pieces = tokenizer.encode_pieces
        out.append((report, [pieces(h) for h in hyps],
                    [pieces(p.tgt_text) for p in pairs], deletion_only))
    return out


def test_score_check_passes(scored):
    assert [d for _, _, _, d in scored] == [True, False]
    for report, hp, rp, deletion_only in scored:
        assert checks.check_scores(
            report.spbleu, report.spchrf, report.spter, hp, rp, deletion_only) == []


def test_score_check_fails_on_bleu_count_off_by_one(scored):
    report, hp, rp, deletion_only = scored[1]
    matches, totals, hl, rl = checks.bleu_stats(hp, rp)
    matches[0] -= 1
    wrong = checks.bleu_from_stats(matches, totals, hl, rl)
    assert checks.check_scores(wrong, report.spchrf, report.spter, hp, rp, deletion_only)


def test_score_check_fails_on_wrong_chrf_and_ter(scored):
    for report, hp, rp, deletion_only in scored:
        ref_len = sum(map(len, rp))
        one_edit = 100.0 / ref_len
        assert checks.check_scores(
            report.spbleu, report.spchrf * (1 + 1e-6), report.spter, hp, rp, deletion_only)
        high = sum(checks.word_edit_distance(h, r) for h, r in zip(hp, rp))
        assert checks.check_scores(
            report.spbleu, report.spchrf, 100.0 * (high + 1) / ref_len, hp, rp, deletion_only)
        if deletion_only:
            assert checks.check_scores(
                report.spbleu, report.spchrf, report.spter + one_edit, hp, rp, True)


def test_noisy_hypothesis_deletion_only_is_a_subsequence():
    rng = rng_fork(0, "t")
    words = "a b c d e f".split()
    for _ in range(50):
        hyp = workloads.noisy_hypothesis(words, rng, ["x", "y"], deletion_only=True)
        it = iter(words)
        assert hyp and all(w in it for w in hyp)


# ---------------------------------------------------------------------------
# tracer
# ---------------------------------------------------------------------------

def test_tracer_self_times_add_up_and_originals_return(base):
    params, tokenizer = base
    original = decoding.generate
    tr = tracing.Tracer()
    with tr.installed(), tr.span("bench.round"):
        assert decoding.generate is not original
        out = decoding.generate_batch(params, tokenizer, ["<sy2> ka1 ka2 ka3"])
        pairs = [ParallelPair(Direction(LangTag("sy1"), LangTag("sy2")), "ka1", "bu1 bu2")]
        metrics.evaluate_direction(None, tokenizer, pairs, generate_fn=lambda _: "bu2")
    assert decoding.generate is original
    assert tr.total_self_s() == pytest.approx(tr.wall_s, rel=1e-9)
    m = tr.per_layer_metrics(tr.wall_s, 0.0)
    generated = len(out[0].token_ids) + (0 if out[0].truncated else 1)
    assert m["decoding.output_tokens"][0] == len(out[0].token_ids)
    # no KV cache: step k re-runs all k decoder positions
    assert m["model.decoder_positions_per_output_token"][0] == pytest.approx((generated + 1) / 2)
    assert m["model.decoder_logits.calls"][0] == generated
    assert m["decoding.generate.calls"][0] == 1
    assert m["metrics.spter.self_s"][0] > 0  # opens its own span under evaluate_direction
    assert m["kernels.levenshtein.calls"][0] > 0


def test_tracer_counts_decoder_calls_of_generation_only(base):
    params, tokenizer = base
    srcs = [tokenizer.encode("<sy2> ka1 ka2 ka3")]
    tgts = [tokenizer.encode("bu2 bu1 bu3")]
    tr = tracing.Tracer()
    with tr.installed(), tr.span("bench.round"):
        M.loss_teacher_forcing(params, M.make_batch(srcs, tgts, params.config.pad_id))
    m = tr.per_layer_metrics(tr.wall_s, 0.0)
    assert m["model.loss_teacher_forcing.calls"][0] == 1
    assert m["model.decoder_logits.calls"][0] == 0
