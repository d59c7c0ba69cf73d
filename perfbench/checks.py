"""Output checks for the three workloads.

Each check returns a list of problems (empty when the output is right).
The checks test a property of the method, or compare with a computation
written here independently of the program: they never compare with a
stored copy of earlier output.
"""

from __future__ import annotations

import math
from collections import Counter

import numpy as np

# Largest gap, in logits, between an emitted token and the best allowed
# token of the batched teacher-forced pass. The two passes compute the same
# float32 function with different matrix shapes, so only rounding differs.
ARGMAX_TOL = 1e-3
SCORE_REL_TOL = 1e-9


# ---------------------------------------------------------------------------
# translate_greedy
# ---------------------------------------------------------------------------

def check_greedy_outputs(params, tokenizer, inputs, results) -> list[str]:
    """Every emitted token is the argmax of one batched teacher-forced
    ``model.forward_logits`` pass, over all but pad and tag ids; no output
    holds a pad, tag or eos id.
    """
    from mtlab import model as M
    from mtlab.numerics import no_grad

    cfg = params.config
    banned = {cfg.pad_id, *tokenizer.tag_ids}
    problems = []
    srcs, tgts = [], []
    for text, r in zip(inputs, results):
        if r.error is not None:
            continue
        bad = banned.intersection(r.token_ids)
        if bad:
            problems.append(f"output of {text!r} holds pad/tag ids {sorted(bad)}")
        if cfg.eos_id in r.token_ids:
            problems.append(f"output of {text!r} holds eos before its end")
        srcs.append(tokenizer.encode(text))
        tgts.append(list(r.token_ids) + ([] if r.truncated else [cfg.eos_id]))
    if problems or not srcs:
        return problems
    with no_grad():
        logits = M.forward_logits(params, M.make_batch(srcs, tgts, cfg.pad_id)).data
    allowed = np.ones(logits.shape[-1], dtype=bool)
    allowed[sorted(banned)] = False
    for i, tgt in enumerate(tgts):
        rows = logits[i, : len(tgt)].astype(np.float64)
        best = np.where(allowed, rows, -np.inf).max(axis=1)
        emitted = rows[np.arange(len(tgt)), tgt]
        gap = best - emitted
        worst = int(np.argmax(gap))
        if gap[worst] > ARGMAX_TOL:
            problems.append(
                f"sentence {i}: token {tgt[worst]} at position {worst} is "
                f"{gap[worst]:.4g} below the argmax logit"
            )
    return problems


# ---------------------------------------------------------------------------
# train_btrec
# ---------------------------------------------------------------------------

def _tag_and_text(input_text: str) -> tuple[str, str]:
    tag, _, text = input_text.partition(" ")
    return tag[1:-1], text


def check_augmentation(records, mono_by_lang, langs, exclusions, num_bt, num_rec, rounds) -> list[str]:
    """BT and REC examples from the run's audit log.

    ``records`` are the audit entries (dicts with input, target, kind,
    pivot, round); ``mono_by_lang`` maps a language code to its set of
    monolingual sentences.
    """
    problems = []
    excluded = {frozenset(pair) for pair in exclusions}
    counts = Counter()
    for rec in records:
        lang, text = _tag_and_text(rec["input"])
        counts[(rec["kind"], rec["round"])] += 1
        if rec["target"] not in mono_by_lang.get(lang, ()):
            problems.append(f"{rec['kind']} target {rec['target']!r} is not a {lang} sentence")
        if rec["kind"] == "backtranslation":
            pivot = rec.get("pivot")
            if pivot not in langs or pivot == lang or frozenset((pivot, lang)) in excluded:
                problems.append(f"BT example for {lang} has pivot {pivot!r}")
        elif rec["kind"] == "reconstruction":
            if Counter(text.split()) - Counter(rec["target"].split()):
                problems.append(
                    f"REC input {text!r} has words that are not in {rec['target']!r}"
                )
        else:
            problems.append(f"unexpected audit kind {rec['kind']!r}")
    n_langs = len(mono_by_lang)
    for r in range(rounds):
        for kind, per_lang in (("backtranslation", num_bt), ("reconstruction", num_rec)):
            if counts[(kind, r)] != per_lang * n_langs:
                problems.append(
                    f"round {r}: {counts[(kind, r)]} {kind} examples, "
                    f"expected {per_lang} x {n_langs}"
                )
    return problems


def check_training(losses, epoch_losses, base_tensors, trained_tensors) -> list[str]:
    """Finite losses, a falling epoch loss, and every tensor updated."""
    problems = []
    if not losses or not all(math.isfinite(x) for x in losses):
        problems.append("a training loss is missing or not finite")
    if len(epoch_losses) < 2 or not epoch_losses[-1] < epoch_losses[0]:
        problems.append(f"epoch losses do not fall: {epoch_losses}")
    for name, before in base_tensors.items():
        if np.array_equal(before, trained_tensors[name]):
            problems.append(f"parameter {name} did not change")
    return problems


# ---------------------------------------------------------------------------
# score_test_set: reference BLEU, chrF and edit distance
# ---------------------------------------------------------------------------

def _grams(seq, n):
    return Counter(tuple(seq[i : i + n]) for i in range(len(seq) - n + 1))


def bleu_stats(hyps, refs, max_n=4):
    """(clipped matches per order, candidate n-grams per order, hyp len, ref len)."""
    matches = [0] * max_n
    totals = [0] * max_n
    for hyp, ref in zip(hyps, refs):
        for n in range(1, max_n + 1):
            h = _grams(hyp, n)
            r = _grams(ref, n)
            totals[n - 1] += sum(h.values())
            matches[n - 1] += sum(min(c, r[g]) for g, c in h.items())
    return matches, totals, sum(map(len, hyps)), sum(map(len, refs))


def bleu_from_stats(matches, totals, hyp_len, ref_len) -> float:
    """BLEU with exponential smoothing; orders without candidates drop out."""
    if hyp_len == 0:
        return 0.0
    logs = []
    halvings = 0
    for m, t in zip(matches, totals):
        if t == 0:
            continue
        if m == 0:
            halvings += 1
            logs.append(math.log(1.0 / (2.0**halvings * t)))
        else:
            logs.append(math.log(m / t))
    if not logs:
        return 0.0
    brevity = 1.0 if hyp_len >= ref_len else math.exp(1.0 - ref_len / hyp_len)
    return 100.0 * brevity * math.exp(sum(logs) / len(logs))


def chrf_ref(hyp_texts, ref_texts, order=6, beta=2.0) -> float:
    """Character n-gram F-beta with corpus totals, spaces removed."""
    hyp_total = [0] * order
    ref_total = [0] * order
    match = [0] * order
    for hyp, ref in zip(hyp_texts, ref_texts):
        h = hyp.replace(" ", "")
        r = ref.replace(" ", "")
        for n in range(1, order + 1):
            hg, rg = _grams(h, n), _grams(r, n)
            hyp_total[n - 1] += sum(hg.values())
            ref_total[n - 1] += sum(rg.values())
            match[n - 1] += sum(min(c, rg[g]) for g, c in hg.items())
    used = [i for i in range(order) if hyp_total[i] and ref_total[i]]
    if not used:
        return 0.0
    p = sum(match[i] / hyp_total[i] for i in used) / len(used)
    r = sum(match[i] / ref_total[i] for i in used) / len(used)
    if p + r == 0.0:
        return 0.0
    return 100.0 * (1 + beta**2) * p * r / (beta**2 * p + r)


def word_edit_distance(a, b) -> int:
    """Levenshtein distance between two token lists."""
    prev = list(range(len(b) + 1))
    for i, x in enumerate(a, 1):
        cur = [i]
        for j, y in enumerate(b, 1):
            cur.append(min(prev[j] + 1, cur[j - 1] + 1, prev[j - 1] + (x != y)))
        prev = cur
    return prev[-1]


def _close(a: float, b: float) -> bool:
    return abs(a - b) <= SCORE_REL_TOL * max(1.0, abs(a), abs(b))


def check_scores(spbleu, spchrf, spter, hyp_pieces, ref_pieces, deletion_only) -> list[str]:
    """One direction's scores against the reference metrics over the same
    pieces. spTER must lie between the summed length differences and the
    summed plain edit distances, and equal the former when every
    hypothesis only deletes words.
    """
    problems = []
    want_bleu = bleu_from_stats(*bleu_stats(hyp_pieces, ref_pieces))
    if not _close(spbleu, want_bleu):
        problems.append(f"spBLEU {spbleu!r} != reference {want_bleu!r}")
    want_chrf = chrf_ref([" ".join(h) for h in hyp_pieces], [" ".join(r) for r in ref_pieces])
    if not _close(spchrf, want_chrf):
        problems.append(f"spCHRF {spchrf!r} != reference {want_chrf!r}")
    ref_len = sum(map(len, ref_pieces))
    edits = spter * ref_len / 100.0
    low = sum(abs(len(h) - len(r)) for h, r in zip(hyp_pieces, ref_pieces))
    high = sum(word_edit_distance(h, r) for h, r in zip(hyp_pieces, ref_pieces))
    if not low - 1e-6 <= edits <= high + 1e-6:
        problems.append(f"spTER edits {edits:.6g} outside [{low}, {high}]")
    if deletion_only and abs(edits - low) > 1e-6:
        problems.append(f"spTER edits {edits:.6g} on deletions only, expected {low}")
    return problems
