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

from .corpus import Direction, LangTag, MonoStore, ParallelPair
from .errors import ConfigError, DecodeError, FormatError
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
    num_bt: int = 100
    num_bt_decay: tuple[int, ...] = ()
    num_sample: int = 2
    start_epoch: int = 2
    temperature: float = 1.0

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


@dataclass(frozen=True)
class RECConfig:
    num_rec: int = 50
    n_swaps: int = 2
    p_del: float = 0.2

    def __post_init__(self):
        if self.num_rec < 1:
            raise ConfigError("num_rec must be >= 1")
        if self.n_swaps < 0:
            raise ConfigError("n_swaps must be >= 0")
        if not 0.0 <= self.p_del < 1.0:
            raise ConfigError(f"p_del must be in [0, 1), got {self.p_del}")


@dataclass(frozen=True)
class TaggedExample:
    """One "<tag> payload" -> target training record."""

    input_text: str
    target_text: str
    kind: str = "translation"
    pivot: str | None = None

    def __post_init__(self):
        head = self.input_text.split(" ", 1)[0]
        if not (head.startswith("<") and head.endswith(">") and len(head) > 2):
            raise FormatError(f"input must start with a language tag, got {self.input_text!r}")

    def to_json(self) -> str:
        obj = {"input": self.input_text, "target": self.target_text, "kind": self.kind}
        if self.pivot is not None:
            obj["pivot"] = self.pivot
        return json.dumps(obj, ensure_ascii=False, sort_keys=True)


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


def make_rec_examples(
    mono_store: MonoStore, rec_config: RECConfig, rng: np.random.Generator, langs=None
) -> list[TaggedExample]:
    """Reconstruction examples: '<m> noised(x)' -> x, per language.

    Sentences are sampled with replacement; languages with no monolingual
    data are skipped with a warning.
    """
    by_lang = mono_store.by_lang()
    if langs is None:
        wanted = sorted(by_lang)
    else:
        wanted = sorted(l if isinstance(l, LangTag) else LangTag(l) for l in langs)
    out: list[TaggedExample] = []
    for lang in wanted:
        sentences = by_lang.get(lang, ())
        if not sentences:
            log.warning("no monolingual data for %s; skipping reconstruction", lang)
            continue
        for _ in range(rec_config.num_rec):
            sent = sentences[int(rng.integers(len(sentences)))]
            noisy = noise(sent.text, rec_config.n_swaps, rec_config.p_del, rng)
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
    exclusions=(),
    num_bt: int | None = None,
    generate_fn=None,
) -> list[TaggedExample]:
    """Backtranslation examples: '<m> model(y -> pivot)' -> y.

    For each language m with monolingual data, ``num_bt`` sentences are
    sampled with replacement; each picks a uniform pivot s among the
    non-excluded partners, gets ``num_sample`` sampled translations of
    '<s> y', and one candidate chosen uniformly becomes the synthetic
    source. Each sentence draws from its own rng stream. A sentence whose
    decoding raises DecodeError (e.g. longer than max_positions) is
    skipped with a warning, so a round may emit fewer than its budget.

    ``generate_fn(input_text, rng) -> str`` overrides model decoding.
    """
    langs = sorted(l if isinstance(l, LangTag) else LangTag(l) for l in langs)
    excluded = {frozenset((LangTag(str(a)), LangTag(str(b)))) for a, b in exclusions}
    budget = bt_config.num_bt if num_bt is None else num_bt
    by_lang = mono_store.by_lang()

    if generate_fn is None:
        from . import decoding

        config = decoding.DecodeConfig(
            mode="sample", temperature=bt_config.temperature
        )

        def generate_fn(text, item_rng):
            return decoding.generate(params, tokenizer, text, config, rng=item_rng).text

    base_seed = int(rng.integers(2**63))
    out: list[TaggedExample] = []
    for lang in langs:
        sentences = by_lang.get(lang, ())
        if not sentences:
            continue
        pivots = [s for s in langs if s != lang and frozenset((s, lang)) not in excluded]
        if not pivots:
            raise ConfigError(f"no eligible pivot language for {lang}")
        pick_rng = rng_fork(base_seed, f"bt-pick:{lang.code}")
        for index in range(budget):
            text = sentences[int(pick_rng.integers(len(sentences)))].text
            item_rng = rng_fork(base_seed, f"bt:{lang.code}:{index}")
            pivot = pivots[int(item_rng.integers(len(pivots)))]
            try:
                candidates = [
                    generate_fn(f"{pivot.surface} {text}", item_rng)
                    for _ in range(bt_config.num_sample)
                ]
            except DecodeError as exc:
                log.warning("skipping backtranslation of a %s sentence: %s", lang, exc)
                continue
            probs = np.full(len(candidates), 1.0 / len(candidates))
            chosen = candidates[sample_categorical(probs, item_rng)]
            out.append(
                TaggedExample(
                    input_text=f"{lang.surface} {chosen}",
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
            obj = json.loads(ex.to_json())
            obj["round"] = round_index
            f.write(json.dumps(obj, ensure_ascii=False, sort_keys=True) + "\n")
