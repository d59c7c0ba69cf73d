"""Synthetic cipher languages with exact ground-truth translation.

Each language renders integer concept sequences as words
``prefix + base36(permuted concept id)`` and then applies a word-order
rule. Parallel pairs share the concept sequence, so the true translation
function is known exactly in both directions; vocabularies are disjoint
because surface prefixes are required to be prefix-free.
"""

from __future__ import annotations

from dataclasses import dataclass

from .corpus import (
    Direction,
    LangTag,
    MonoSentence,
    MonoStore,
    ParallelPair,
    ParallelStore,
)
from .errors import SynthError
from .numerics import rng_fork

_BASE36 = "0123456789abcdefghijklmnopqrstuvwxyz"


def _to_base36(n: int) -> str:
    if n == 0:
        return "0"
    digits = []
    while n:
        n, rem = divmod(n, 36)
        digits.append(_BASE36[rem])
    return "".join(reversed(digits))


@dataclass(frozen=True)
class SyntheticLangSpec:
    code: str
    lexicon_seed: int
    surface_prefix: str
    reorder_rule: str = "identity"  # identity | swap_adjacent_pairs | reverse_windows:k
    concept_vocab_size: int = 200

    def __post_init__(self):
        LangTag(self.code)  # validates the code format
        if not self.surface_prefix:
            raise SynthError("surface_prefix must be non-empty")
        if self.concept_vocab_size < 2:
            raise SynthError("concept_vocab_size must be >= 2")
        _parse_rule(self.reorder_rule)

    @property
    def lang(self) -> LangTag:
        return LangTag(self.code)


def _parse_rule(rule: str):
    if rule == "identity":
        return ("identity", 0)
    if rule == "swap_adjacent_pairs":
        return ("swap_adjacent_pairs", 0)
    if rule.startswith("reverse_windows:"):
        try:
            k = int(rule.split(":", 1)[1])
        except ValueError:
            raise SynthError(f"reverse_windows window must be an integer, got {rule!r}") from None
        if k < 2:
            raise SynthError(f"reverse_windows window must be >= 2, got {k}")
        return ("reverse_windows", k)
    raise SynthError(f"unknown reorder rule {rule!r}")


def _apply_rule(rule: str, items: list) -> list:
    kind, k = _parse_rule(rule)
    out = list(items)
    if kind == "swap_adjacent_pairs":
        for i in range(0, len(out) - 1, 2):
            out[i], out[i + 1] = out[i + 1], out[i]
    elif kind == "reverse_windows":
        for i in range(0, len(out), k):
            out[i : i + k] = reversed(out[i : i + k])
    return out


class Lexicon:
    """Word rendering for one synthetic language."""

    def __init__(self, spec: SyntheticLangSpec):
        self.spec = spec
        perm = rng_fork(spec.lexicon_seed, "lexicon").permutation(spec.concept_vocab_size)
        self.words = [spec.surface_prefix + _to_base36(int(p)) for p in perm]
        self.word_to_concept = {w: i for i, w in enumerate(self.words)}

    def render(self, concepts) -> str:
        words = [self.words[c] for c in concepts]
        return " ".join(_apply_rule(self.spec.reorder_rule, words))

    def parse(self, sentence: str) -> list[int]:
        words = sentence.split()
        # all three rules are involutive, so applying the rule again
        # restores concept order
        words = _apply_rule(self.spec.reorder_rule, words)
        try:
            return [self.word_to_concept[w] for w in words]
        except KeyError as exc:
            raise SynthError(f"word {exc.args[0]!r} is not in {self.spec.code}") from None


class GroundTruth:
    """Exact translation oracle over a set of synthetic languages."""

    def __init__(self, specs):
        self.specs = {s.code: s for s in specs}
        self.lexicons = {s.code: Lexicon(s) for s in specs}

    def translate(self, sentence: str, src: str, tgt: str) -> str:
        concepts = self.lexicons[str(src)].parse(sentence)
        return self.lexicons[str(tgt)].render(concepts)

    def render(self, concepts, lang: str) -> str:
        return self.lexicons[str(lang)].render(concepts)


def _check_prefix_free(specs) -> None:
    prefixes = [s.surface_prefix for s in specs]
    if len(set(prefixes)) != len(prefixes):
        raise SynthError("surface prefixes must be distinct")
    for a in prefixes:
        for b in prefixes:
            if a != b and b.startswith(a):
                raise SynthError(
                    f"prefix {a!r} is a prefix of {b!r}; vocabularies would overlap"
                )


def gen_synthetic(
    specs,
    n_parallel_per_direction: int,
    n_mono_per_lang: int,
    sentence_len_range: tuple[int, int],
    seed: int,
    low_resource=(),
    low_resource_factor: float = 0.05,
    n_dev_per_direction: int = 0,
    n_test_per_direction: int = 0,
) -> tuple[ParallelStore, MonoStore, GroundTruth]:
    """Build parallel/monolingual stores plus the exact translation oracle.

    Every ordered direction gets ``n_parallel_per_direction`` training
    pairs; directions touching a ``low_resource`` language get the count
    scaled by ``low_resource_factor`` (monolingual data stays full-size).
    Dev/test pairs are generated separately, equally sized per direction.
    """
    specs = list(specs)
    if len(specs) < 2:
        raise SynthError("need at least 2 synthetic languages")
    if len({s.code for s in specs}) != len(specs):
        raise SynthError("duplicate language codes")
    _check_prefix_free(specs)
    lo, hi = sentence_len_range
    if not 1 <= lo <= hi:
        raise SynthError(f"bad sentence length range {sentence_len_range}")
    truth = GroundTruth(specs)
    low = {str(l) for l in low_resource}

    def sample_sentence(rng, size):
        length = int(rng.integers(lo, hi + 1))
        return [int(c) for c in rng.integers(0, size, length)]

    pairs: list[ParallelPair] = []
    for a in specs:
        for b in specs:
            if a.code == b.code:
                continue
            direction = Direction(LangTag(a.code), LangTag(b.code))
            size = min(a.concept_vocab_size, b.concept_vocab_size)
            n_train = n_parallel_per_direction
            if a.code in low or b.code in low:
                n_train = max(1, round(n_train * low_resource_factor))
            plan = [("train", n_train), ("dev", n_dev_per_direction), ("test", n_test_per_direction)]
            for split_name, count in plan:
                rng = rng_fork(seed, f"synth-par:{direction.key}:{split_name}")
                for _ in range(count):
                    concepts = sample_sentence(rng, size)
                    pairs.append(
                        ParallelPair(
                            direction,
                            truth.render(concepts, a.code),
                            truth.render(concepts, b.code),
                            domain="synthetic",
                            split=split_name,
                        )
                    )

    sentences: list[MonoSentence] = []
    for spec in specs:
        rng = rng_fork(seed, f"synth-mono:{spec.code}")
        for _ in range(n_mono_per_lang):
            concepts = sample_sentence(rng, spec.concept_vocab_size)
            sentences.append(
                MonoSentence(LangTag(spec.code), truth.render(concepts, spec.code), domain="synthetic")
            )
    return ParallelStore(tuple(pairs)), MonoStore(tuple(sentences)), truth


def save_specs(path, specs) -> None:
    import json
    from dataclasses import asdict

    with open(path, "w", encoding="utf-8") as f:
        json.dump([asdict(s) for s in specs], f, indent=2, sort_keys=True)

