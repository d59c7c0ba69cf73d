"""Parallel and monolingual corpus handling: load, clean, split, report.

All operations are pure: they return new stores and leave their inputs
untouched. Text is normalized on the way in by ``tokenizer.normalize``, the
one normalizer (NFC, trimmed, internal whitespace collapsed), and files
must be valid UTF-8. A language code is checked, and its tag spelled, by
``tokenizer.tag_surface`` alone.
"""

from __future__ import annotations

import json
import os
from collections import Counter
from dataclasses import dataclass, field, replace

from .errors import EmptyCorpusError, FormatError, SplitError
from .numerics import rng_fork
from .tokenizer import normalize, tag_surface

SPLITS = ("train", "dev", "test")


@dataclass(frozen=True, order=True)
class LangTag:
    """A language code, ``surface`` its ``<code>`` tag; a FormatError unless
    ``tag_surface`` accepts the code."""

    code: str
    surface: str = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "surface", tag_surface(self.code))

    def __str__(self):
        return self.code


@dataclass(frozen=True, order=True)
class Direction:
    """An ordered translation pair src -> tgt."""

    src: LangTag
    tgt: LangTag

    def __post_init__(self):
        if self.src == self.tgt:
            raise FormatError(f"direction needs distinct languages, got {self.src}")

    @property
    def key(self) -> str:
        return f"{self.src.code}-{self.tgt.code}"

    @classmethod
    def parse(cls, text: str) -> "Direction":
        parts = text.split("-")
        if len(parts) != 2:
            raise FormatError(f"direction must look like 'src-tgt', got {text!r}")
        return cls(LangTag(parts[0]), LangTag(parts[1]))

    def __str__(self):
        return self.key


@dataclass(frozen=True)
class ParallelPair:
    direction: Direction
    src_text: str
    tgt_text: str
    domain: str = ""
    split: str = "train"


@dataclass(frozen=True)
class MonoSentence:
    lang: LangTag
    text: str
    domain: str = ""
    split: str = "train"


@dataclass(frozen=True)
class ParallelStore:
    pairs: tuple[ParallelPair, ...] = ()
    malformed: int = 0

    def __len__(self):
        return len(self.pairs)

    def by_direction(self) -> dict[Direction, list[ParallelPair]]:
        out: dict[Direction, list[ParallelPair]] = {}
        for p in self.pairs:
            out.setdefault(p.direction, []).append(p)
        return out

    def languages(self) -> list[LangTag]:
        langs = {p.direction.src for p in self.pairs} | {p.direction.tgt for p in self.pairs}
        return sorted(langs)

    def merge(self, other: "ParallelStore") -> "ParallelStore":
        return ParallelStore(self.pairs + other.pairs, self.malformed + other.malformed)


@dataclass(frozen=True)
class MonoStore:
    sentences: tuple[MonoSentence, ...] = ()

    def __len__(self):
        return len(self.sentences)

    def by_lang(self) -> dict[LangTag, list[MonoSentence]]:
        out: dict[LangTag, list[MonoSentence]] = {}
        for s in self.sentences:
            out.setdefault(s.lang, []).append(s)
        return out

    def languages(self) -> list[LangTag]:
        return sorted({s.lang for s in self.sentences})

    def merge(self, other: "MonoStore") -> "MonoStore":
        return MonoStore(self.sentences + other.sentences)


@dataclass
class CleanReport:
    input_count: int = 0
    kept: int = 0
    dropped_too_long: int = 0
    dropped_too_short: int = 0
    dropped_duplicate: int = 0

    def rows(self) -> list[tuple[str, int]]:
        """(reason, count) rows: the input count, the kept count, then each drop reason."""
        return [("input", self.input_count), ("kept", self.kept),
                ("too_long", self.dropped_too_long), ("too_short", self.dropped_too_short),
                ("duplicate", self.dropped_duplicate)]


# ---------------------------------------------------------------------------
# loading
# ---------------------------------------------------------------------------

def _read_lines(path) -> list[str]:
    try:
        with open(path, encoding="utf-8") as f:
            return f.read().split("\n")
    except OSError as exc:
        raise FormatError(f"cannot read {path}: {exc}") from None
    except UnicodeDecodeError as exc:
        raise FormatError(f"{path} is not valid UTF-8: {exc}") from None


def load_parallel(path, direction: Direction, fmt: str = "tsv2") -> ParallelStore:
    """Load a parallel file; malformed lines are counted, not fatal.

    tsv2: one pair per line, exactly one TAB. jsonl: one object per line
    with keys src, tgt, and optional domain.
    """
    if fmt not in ("tsv2", "jsonl"):
        raise FormatError(f"unknown parallel format {fmt!r}")
    pairs: list[ParallelPair] = []
    malformed = 0
    for line in _read_lines(path):
        if not line.strip():
            continue
        if fmt == "tsv2":
            fields = line.split("\t")
            if len(fields) != 2:
                malformed += 1
                continue
            src, tgt, domain = fields[0], fields[1], ""
        else:
            try:
                obj = json.loads(line)
            except json.JSONDecodeError:
                malformed += 1
                continue
            if not isinstance(obj, dict) or not isinstance(obj.get("src"), str) or not isinstance(obj.get("tgt"), str):
                malformed += 1
                continue
            src, tgt, domain = obj["src"], obj["tgt"], str(obj.get("domain", ""))
        src, tgt = normalize(src), normalize(tgt)
        if not src or not tgt:
            malformed += 1
            continue
        pairs.append(ParallelPair(direction, src, tgt, domain))
    if not pairs:
        raise EmptyCorpusError(f"no well-formed pairs in {path}")
    return ParallelStore(tuple(pairs), malformed)


def load_mono(path, lang: LangTag) -> MonoStore:
    """Load monolingual text, one sentence per line."""
    sentences = []
    for line in _read_lines(path):
        text = normalize(line)
        if text:
            sentences.append(MonoSentence(lang, text))
    if not sentences:
        raise EmptyCorpusError(f"no sentences in {path}")
    return MonoStore(tuple(sentences))


# ---------------------------------------------------------------------------
# cleaning
# ---------------------------------------------------------------------------

def _token_count(text: str) -> int:
    return len(text.split())


def clean(store, *, max_len: int, min_len: int, dedup: bool):
    """Drop records longer than ``max_len`` or shorter than ``min_len``
    tokens and, with ``dedup``, repeats; returns (store', report).

    Length bounds are whitespace-token counts on the normalized text and
    apply to both sides of a pair; ``1 <= min_len <= max_len`` or it is a
    FormatError. Deduplication is exact match within a direction (or
    language, for monolingual stores).
    """
    if not 1 <= min_len <= max_len:
        raise FormatError(f"need 1 <= min_len <= max_len, got {min_len}, {max_len}")
    if isinstance(store, ParallelStore):
        name, fields, group = "pairs", ("src_text", "tgt_text"), lambda p: p.direction.key
    elif isinstance(store, MonoStore):
        name, fields, group = "sentences", ("text",), lambda s: s.lang.code
    else:
        raise FormatError(f"clean expects a store, got {type(store).__name__}")
    records = getattr(store, name)
    report = CleanReport(input_count=len(records))
    seen: set[tuple[str, ...]] = set()
    kept = []
    for record in records:
        texts = {f: normalize(getattr(record, f)) for f in fields}
        lengths = [_token_count(t) for t in texts.values()]
        if max(lengths) > max_len:
            report.dropped_too_long += 1
            continue
        if min(lengths) < min_len:
            report.dropped_too_short += 1
            continue
        if dedup:
            key = (group(record), *texts.values())
            if key in seen:
                report.dropped_duplicate += 1
                continue
            seen.add(key)
        kept.append(replace(record, **texts))
    report.kept = len(kept)
    return replace(store, **{name: tuple(kept)}), report


# ---------------------------------------------------------------------------
# splitting
# ---------------------------------------------------------------------------

def _quotas(n: int, k: int) -> list[int]:
    base, rem = divmod(n, k)
    return [base + (1 if i < rem else 0) for i in range(k)]


def split(store: ParallelStore, *, dev_per_direction: int, test_per_direction: int, seed: int,
          stratify_by_domain: bool) -> ParallelStore:
    """Label ``dev_per_direction`` pairs of each direction dev and
    ``test_per_direction`` test, the rest train, deterministically per
    ``seed``; a negative size is a FormatError.

    With ``stratify_by_domain``, dev and test draw equally (plus-minus one)
    from each domain present in a direction; when a domain cannot fill its
    quota the deficit moves to the other domains in sorted order.
    """
    if dev_per_direction < 0 or test_per_direction < 0:
        raise FormatError("split sizes must be non-negative")
    need = dev_per_direction + test_per_direction
    labeled: list[ParallelPair] = []
    for direction, pairs in sorted(store.by_direction().items(), key=lambda kv: kv[0]):
        if len(pairs) <= need:
            raise SplitError(
                f"direction {direction} has {len(pairs)} pairs, "
                f"needs more than dev+test={need}"
            )
        domains = sorted({p.domain for p in pairs}) if stratify_by_domain else [None]
        groups: dict[object, list[int]] = {d: [] for d in domains}
        for idx, p in enumerate(pairs):
            groups[p.domain if stratify_by_domain else None].append(idx)
        for d in domains:
            rng_fork(seed, f"split:{direction.key}:{d}").shuffle(groups[d])
        dev_set = set(_draw(groups, domains, dev_per_direction))
        test_set = set(_draw(groups, domains, test_per_direction))
        for idx, p in enumerate(pairs):
            label = "dev" if idx in dev_set else "test" if idx in test_set else "train"
            labeled.append(replace(p, split=label))
    return ParallelStore(tuple(labeled), store.malformed)


def _draw(groups: dict, domains: list, count: int) -> list[int]:
    chosen: list[int] = []
    for d, quota in zip(domains, _quotas(count, len(domains))):
        chosen += groups[d][:quota]
        del groups[d][:quota]
    # the quota a domain could not fill is drawn from the others, one at a time in order
    while len(chosen) < count and any(groups[d] for d in domains):
        for d in domains:
            if groups[d] and len(chosen) < count:
                chosen.append(groups[d].pop(0))
    return chosen


# ---------------------------------------------------------------------------
# stats
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class DirectionCountTable:
    langs: tuple[LangTag, ...]
    counts: dict

    def cell(self, src: LangTag, tgt: LangTag) -> int:
        return self.counts.get((src, tgt), 0)

    def to_text(self) -> str:
        codes = [l.code for l in self.langs]
        width = max([3] + [len(str(v)) for v in self.counts.values()] + [len(c) for c in codes])
        header = " " * (width + 2) + " ".join(c.rjust(width) for c in codes)
        lines = [header]
        for src in self.langs:
            cells = []
            for tgt in self.langs:
                cells.append(("-" if src == tgt else str(self.cell(src, tgt))).rjust(width))
            lines.append(f"{src.code.ljust(width)}  " + " ".join(cells))
        return "\n".join(lines)

    def to_csv(self) -> str:
        codes = [l.code for l in self.langs]
        lines = ["src," + ",".join(codes)]
        for src in self.langs:
            row = [src.code]
            for tgt in self.langs:
                row.append("" if src == tgt else str(self.cell(src, tgt)))
            lines.append(",".join(row))
        return "\n".join(lines) + "\n"


def stats(store: ParallelStore) -> DirectionCountTable:
    """Square per-direction count table over the store's languages, sorted by code."""
    counter: Counter = Counter()
    for p in store.pairs:
        counter[(p.direction.src, p.direction.tgt)] += 1
    return DirectionCountTable(tuple(store.languages()), dict(counter))


# ---------------------------------------------------------------------------
# store persistence (jsonl, one record per line)
# ---------------------------------------------------------------------------

# The files of a store directory: what save_stores writes and load_stores reads.
STORE_FILES = ("parallel.jsonl", "mono.jsonl")


def save_stores(directory, parallel: ParallelStore, mono: MonoStore) -> None:
    os.makedirs(directory, exist_ok=True)
    records = (
        [{"direction": p.direction.key, "src": p.src_text, "tgt": p.tgt_text,
          "domain": p.domain, "split": p.split} for p in parallel.pairs],
        [{"lang": s.lang.code, "text": s.text, "domain": s.domain, "split": s.split}
         for s in mono.sentences],
    )
    for name, objs in zip(STORE_FILES, records):
        with open(os.path.join(directory, name), "w", encoding="utf-8") as f:
            for obj in objs:
                f.write(json.dumps(obj, ensure_ascii=False, sort_keys=True) + "\n")


def _load_records(path, keys, make) -> tuple:
    """``make(record)`` for each record of a jsonl file; () if it is absent.

    A line that is not JSON, or a record that is not an object, lacks a
    key, holds a non-string value under one of ``keys`` or an empty or
    all-whitespace text, has a split outside ``SPLITS`` or a malformed
    direction or language code, is a FormatError naming the file and line.
    """
    if not os.path.exists(path):
        return ()
    out = []
    for lineno, line in enumerate(_read_lines(path), 1):
        if not line.strip():
            continue
        where = f"{path} line {lineno}"
        try:
            obj = json.loads(line)
        except json.JSONDecodeError as exc:
            raise FormatError(f"{where}: invalid JSON: {exc}") from None
        if not isinstance(obj, dict):
            raise FormatError(f"{where}: record is not a JSON object")
        for key in keys:
            if key in obj and not isinstance(obj[key], str):
                raise FormatError(f"{where}: {key} is {obj[key]!r}, not a string")
            if key in ("src", "tgt", "text") and key in obj and not obj[key].strip():
                raise FormatError(f"{where}: {key} is empty")
        if obj.get("split", "train") not in SPLITS:
            raise FormatError(f"{where}: split {obj['split']!r} is not one of {SPLITS}")
        try:
            out.append(make(obj))
        except KeyError as exc:
            raise FormatError(f"{where}: record has no {exc} key") from None
        except FormatError as exc:
            raise FormatError(f"{where}: {exc}") from None
    return tuple(out)


def load_stores(directory) -> tuple[ParallelStore, MonoStore]:
    pairs = _load_records(
        os.path.join(directory, "parallel.jsonl"),
        ("direction", "src", "tgt", "domain", "split"),
        lambda obj: ParallelPair(
            Direction.parse(obj["direction"]),
            obj["src"],
            obj["tgt"],
            obj.get("domain", ""),
            obj.get("split", "train"),
        ),
    )
    sentences = _load_records(
        os.path.join(directory, "mono.jsonl"),
        ("lang", "text", "domain", "split"),
        lambda obj: MonoSentence(
            LangTag(obj["lang"]), obj["text"], obj.get("domain", ""), obj.get("split", "train")
        ),
    )
    return ParallelStore(pairs), MonoStore(sentences)
