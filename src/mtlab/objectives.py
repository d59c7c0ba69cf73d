"""Training-example construction for the three finetuning settings.

BASE uses tagged translation pairs only. BT adds examples whose input is a
model-generated translation of a monolingual sentence into a pivot
language and whose target is the genuine sentence. REC adds denoising
examples: the input is a noised copy of a monolingual sentence tagged with
its own language; the target is the original.
"""

from __future__ import annotations

import enum
import json
import logging
from dataclasses import dataclass

import numpy as np

from . import decoding
from .corpus import Direction, LangTag, MonoStore, ParallelPair
from .errors import ConfigError, FormatError
from .numerics import rng_fork, sample_categorical

log = logging.getLogger(__name__)


class FinetuneSetting(enum.Enum):
    BASE = "base"
    BT = "bt"
    BT_REC = "bt_rec"

    @classmethod
    def parse(cls, text: str) -> "FinetuneSetting":
        key = text.strip().lower().replace("&", "_").replace("-", "_")
        aliases = {"base": cls.BASE, "bt": cls.BT, "bt_rec": cls.BT_REC, "btrec": cls.BT_REC}
        try:
            return aliases[key]
        except KeyError:
            raise ConfigError(f"unknown finetune setting {text!r}") from None


@dataclass(frozen=True)
class BTConfig:
    """Online BT budgets. A round decodes one sample per sentence whatever
    ``num_sample`` is; it only picks which of that many rng streams the
    sample comes from (``make_bt_examples``)."""

    num_bt: int = 100
    num_bt_decay: tuple[int, ...] = ()
    num_sample: int = 2
    start_epoch: int = 2

    def __post_init__(self):
        if self.num_bt < 1 or self.num_sample < 1:
            raise ConfigError("num_bt and num_sample must be >= 1")
        if self.start_epoch < 1:
            raise ConfigError("start_epoch is 1-based and must be >= 1")
        if any(n < 1 for n in self.num_bt_decay):
            raise ConfigError("decay entries must be >= 1")

    def num_bt_for_round(self, round_index: int) -> int:
        """Per-language sentence budget for the given 0-based BT round.

        The decay list maps one entry per round; past the end the last
        entry repeats. Without a decay list, num_bt applies throughout.
        """
        if not self.num_bt_decay:
            return self.num_bt
        return self.num_bt_decay[min(round_index, len(self.num_bt_decay) - 1)]


# The reconstruction noise: swaps per sentence, then the per-token deletion rate.
REC_N_SWAPS = 2
REC_P_DEL = 0.2


@dataclass(frozen=True)
class RECConfig:
    num_rec: int = 50

    def __post_init__(self):
        if self.num_rec < 1:
            raise ConfigError("num_rec must be >= 1")


@dataclass(frozen=True)
class TaggedExample:
    """One "<tag> payload" -> target training record; every maker here
    prefixes a ``LangTag.surface``."""

    input_text: str
    target_text: str
    kind: str = "translation"
    pivot: str | None = None

    def to_dict(self) -> dict:
        """The example's audit record, without its round."""
        obj = {"input": self.input_text, "target": self.target_text, "kind": self.kind}
        if self.pivot is not None:
            obj["pivot"] = self.pivot
        return obj


def build_directions(langs, exclusions=()) -> list[Direction]:
    """All ordered pairs over langs minus excluded unordered pairs.

    ``exclusions`` holds unordered pairs; both orders are removed. The
    result is in stable lexicographic order.
    """
    langs = [l if isinstance(l, LangTag) else LangTag(l) for l in langs]
    if len(langs) < 2:
        raise ConfigError("need at least 2 languages")
    excluded = set()
    for pair in exclusions:
        a, b = sorted(l if isinstance(l, LangTag) else LangTag(l) for l in pair)
        excluded.add((a, b))
    out = []
    for src in sorted(langs):
        for tgt in sorted(langs):
            if src == tgt:
                continue
            if (min(src, tgt), max(src, tgt)) in excluded:
                continue
            out.append(Direction(src, tgt))
    return out


def format_translation(pair: ParallelPair) -> TaggedExample:
    """Input '<tgt_code> src_text', target tgt_text."""
    return TaggedExample(
        input_text=f"{pair.direction.tgt.surface} {pair.src_text}",
        target_text=pair.tgt_text,
        kind="translation",
    )


def noise(sentence: str, n_swaps: int, p_del: float, rng: np.random.Generator) -> str:
    """Corrupt a sentence at the whitespace-token level.

    First ``n_swaps`` swaps (two distinct positions each, positions may
    repeat across swaps), then independent deletion with probability
    ``p_del``; if everything would be deleted one uniformly chosen token
    is kept.
    """
    tokens = sentence.split()
    if not tokens:
        raise FormatError("cannot noise an empty sentence")
    if len(tokens) >= 2:
        for _ in range(n_swaps):
            i, j = rng.choice(len(tokens), size=2, replace=False)
            tokens[i], tokens[j] = tokens[j], tokens[i]
    if p_del > 0.0:
        keep = rng.random(len(tokens)) >= p_del
        if not keep.any():
            keep[rng.integers(len(tokens))] = True
        tokens = [t for t, k in zip(tokens, keep) if k]
    return " ".join(tokens)


def make_rec_examples(mono_store: MonoStore, num_rec: int,
                      rng: np.random.Generator) -> list[TaggedExample]:
    """Reconstruction examples: '<m> noised(x)' -> x, ``num_rec`` per language
    with data.

    Sentences are sampled with replacement and noised with ``REC_N_SWAPS``
    swaps and deletion rate ``REC_P_DEL``.
    """
    by_lang = mono_store.by_lang()
    out: list[TaggedExample] = []
    for lang in sorted(by_lang):
        sentences = by_lang[lang]
        for _ in range(num_rec):
            sent = sentences[int(rng.integers(len(sentences)))]
            noisy = noise(sent.text, REC_N_SWAPS, REC_P_DEL, rng)
            out.append(
                TaggedExample(
                    input_text=f"{lang.surface} {noisy}",
                    target_text=sent.text,
                    kind="reconstruction",
                )
            )
    return out


def make_bt_examples(
    params,
    tokenizer,
    mono_store: MonoStore,
    langs,
    bt_config: BTConfig,
    rng: np.random.Generator,
    num_bt: int,
    exclusions=(),
) -> list[TaggedExample]:
    """Backtranslation examples: '<m> model(y -> pivot)' -> y.

    ``langs`` are the run's languages. For each language m among them
    with monolingual data, ``num_bt`` sentences (the round's budget, from
    ``BTConfig.num_bt_for_round``) are sampled with replacement; each picks
    a uniform pivot s among the targets of m's directions in
    ``build_directions(langs, exclusions)`` (with or without monolingual
    data), and one translation of '<s> y' sampled at temperature 1 becomes
    the synthetic source. The whole round is one decoding call of one row
    per sentence. Each sentence draws its pivot, then a uniform index k
    below ``bt_config.num_sample``, from its own rng stream, and its sample
    from stream k of ``num_sample`` sample streams; only that one is
    decoded, so ``num_sample`` selects a stream and costs nothing. A
    sentence with a failed decode (e.g. longer than max_positions) is
    skipped with a warning, so a round may emit fewer than its budget.
    """
    langs = sorted(l if isinstance(l, LangTag) else LangTag(l) for l in langs)
    directions = build_directions(langs, exclusions)
    by_lang = mono_store.by_lang()

    base_seed = int(rng.integers(2**63))
    n = bt_config.num_sample
    jobs, inputs, rngs = [], [], []  # jobs: (language, pivot, sentence)
    for lang in langs:
        sentences = by_lang.get(lang, ())
        if not sentences:
            continue
        pivots = [d.tgt for d in directions if d.src == lang]
        if not pivots:
            raise ConfigError(f"no eligible pivot language for {lang}")
        pick_rng = rng_fork(base_seed, f"bt-pick:{lang.code}")
        for index in range(num_bt):
            text = sentences[int(pick_rng.integers(len(sentences)))].text
            item_rng = rng_fork(base_seed, f"bt:{lang.code}:{index}")
            pivot = pivots[int(item_rng.integers(len(pivots)))]
            k = sample_categorical(np.full(n, 1.0 / n), item_rng)
            jobs.append((lang, pivot, text))
            inputs.append(f"{pivot.surface} {text}")
            rngs.append(rng_fork(base_seed, f"bt:{lang.code}:{index}:{k}"))
    results = decoding.generate(params, tokenizer, inputs, decoding.DecodeConfig(mode="sample"),
                                rng=rngs)
    out: list[TaggedExample] = []
    for (lang, pivot, text), result in zip(jobs, results):
        if result.error:
            log.warning("skipping backtranslation of a %s sentence: its decode failed", lang)
            continue
        out.append(
            TaggedExample(
                input_text=f"{lang.surface} {result.text}",
                target_text=text,
                kind="backtranslation",
                pivot=pivot.code,
            )
        )
    return out


def write_audit(path, examples, round_index: int) -> None:
    """Append emitted BT/REC examples to a jsonl audit file."""
    with open(path, "a", encoding="utf-8") as f:
        for ex in examples:
            obj = {**ex.to_dict(), "round": round_index}
            f.write(json.dumps(obj, ensure_ascii=False, sort_keys=True) + "\n")
