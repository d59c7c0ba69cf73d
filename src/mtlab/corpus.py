"""Parallel and monolingual corpus handling: load, clean, split, report.

All operations are pure: they return new stores and leave their inputs
untouched. Text is normalized on the way in (NFC, trimmed, internal
whitespace collapsed) and files must be valid UTF-8.
"""

from __future__ import annotations

import json
import os
import re
import unicodedata
from collections import Counter
from dataclasses import dataclass, replace

from .errors import EmptyCorpusError, FormatError, SplitError
from .numerics import rng_fork

_WS_RE = re.compile(r"\s+")
_CODE_RE = re.compile(r"^[a-z][a-z0-9]{2}$")

SPLITS = ("train", "dev", "test")


def normalize_text(text: str) -> str:
    """NFC, trim, collapse internal whitespace runs to single spaces."""
    return _WS_RE.sub(" ", unicodedata.normalize("NFC", text).strip())


@dataclass(frozen=True, order=True)
class LangTag:
    """Three-character lowercase language code; rendered as ``<code>``."""

    code: str

    def __post_init__(self):
        if not _CODE_RE.match(self.code):
            raise FormatError(
                f"language code must be 3 lowercase chars starting with a letter, got {self.code!r}"
            )

    @property
    def surface(self) -> str:
        return f"<{self.code}>"

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

    def directions(self) -> list[Direction]:
        return sorted({p.direction for p in self.pairs})

    def languages(self) -> list[LangTag]:
        langs = {p.direction.src for p in self.pairs} | {p.direction.tgt for p in self.pairs}
        return sorted(langs)

    def merge(self, other: "ParallelStore") -> "ParallelStore":
        return ParallelStore(self.pairs + other.pairs, self.malformed + other.malformed)


@dataclass(frozen=True)
class MonoStore:
    sentences: tuple[MonoSentence, ...] = ()
    malformed: int = 0

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
        return MonoStore(self.sentences + other.sentences, self.malformed + other.malformed)


@dataclass(frozen=True)
class CleaningConfig:
    max_len: int = 50
    min_len: int = 2
    dedup: bool = True

    def __post_init__(self):
        if not 1 <= self.min_len <= self.max_len:
            raise FormatError(
                f"need 1 <= min_len <= max_len, got {self.min_len}, {self.max_len}"
            )


@dataclass(frozen=True)
class SplitSpec:
    dev_per_direction: int
    test_per_direction: int
    seed: int
    stratify_by_domain: bool = True

    def __post_init__(self):
        if self.dev_per_direction < 0 or self.test_per_direction < 0:
            raise FormatError("split sizes must be non-negative")


@dataclass
class CleanReport:
    input_count: int = 0
    kept: int = 0
    dropped_too_long: int = 0
    dropped_too_short: int = 0
    dropped_duplicate: int = 0

    def to_csv(self) -> str:
        return (
            "reason,count\n"
            f"input,{self.input_count}\n"
            f"kept,{self.kept}\n"
            f"too_long,{self.dropped_too_long}\n"
            f"too_short,{self.dropped_too_short}\n"
            f"duplicate,{self.dropped_duplicate}\n"
        )


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
        src, tgt = normalize_text(src), normalize_text(tgt)
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
    malformed = 0
    for line in _read_lines(path):
        text = normalize_text(line)
        if text:
            sentences.append(MonoSentence(lang, text))
        elif line.strip():
            malformed += 1
    if not sentences:
        raise EmptyCorpusError(f"no sentences in {path}")
    return MonoStore(tuple(sentences), malformed)


# ---------------------------------------------------------------------------
# cleaning
# ---------------------------------------------------------------------------

def _token_count(text: str) -> int:
    return len(text.split())


def clean(store, config: CleaningConfig = CleaningConfig()):
    """Drop too-long/too-short records, optionally dedup; returns (store', report).

    Length bounds are whitespace-token counts on the normalized text and
    apply to both sides of a pair. Deduplication is exact match within a
    direction (or language, for monolingual stores).
    """
    if isinstance(store, ParallelStore):
        return _clean_parallel(store, config)
    if isinstance(store, MonoStore):
        return _clean_mono(store, config)
    raise FormatError(f"clean expects a store, got {type(store).__name__}")


def _clean_parallel(store: ParallelStore, config: CleaningConfig):
    report = CleanReport(input_count=len(store.pairs))
    seen: set[tuple[str, str, str]] = set()
    kept: list[ParallelPair] = []
    for pair in store.pairs:
        src = normalize_text(pair.src_text)
        tgt = normalize_text(pair.tgt_text)
        ns, nt = _token_count(src), _token_count(tgt)
        if ns > config.max_len or nt > config.max_len:
            report.dropped_too_long += 1
            continue
        if ns < config.min_len or nt < config.min_len:
            report.dropped_too_short += 1
            continue
        if config.dedup:
            key = (pair.direction.key, src, tgt)
            if key in seen:
                report.dropped_duplicate += 1
                continue
            seen.add(key)
        kept.append(replace(pair, src_text=src, tgt_text=tgt))
    report.kept = len(kept)
    return ParallelStore(tuple(kept), store.malformed), report


def _clean_mono(store: MonoStore, config: CleaningConfig):
    report = CleanReport(input_count=len(store.sentences))
    seen: set[tuple[str, str]] = set()
    kept: list[MonoSentence] = []
    for sent in store.sentences:
        text = normalize_text(sent.text)
        n = _token_count(text)
        if n > config.max_len:
            report.dropped_too_long += 1
            continue
        if n < config.min_len:
            report.dropped_too_short += 1
            continue
        if config.dedup:
            key = (sent.lang.code, text)
            if key in seen:
                report.dropped_duplicate += 1
                continue
            seen.add(key)
        kept.append(replace(sent, text=text))
    report.kept = len(kept)
    return MonoStore(tuple(kept), store.malformed), report


# ---------------------------------------------------------------------------
# splitting
# ---------------------------------------------------------------------------

def _quotas(n: int, k: int) -> list[int]:
    base, rem = divmod(n, k)
    return [base + (1 if i < rem else 0) for i in range(k)]


def split(store: ParallelStore, spec: SplitSpec) -> ParallelStore:
    """Assign train/dev/test labels, deterministically per seed.

    With stratification, dev and test draw equally (plus-minus one) from
    each domain present in a direction; when a domain cannot fill its
    quota the deficit moves to the other domains in sorted order.
    """
    need = spec.dev_per_direction + spec.test_per_direction
    labeled: list[ParallelPair] = []
    for direction, pairs in sorted(store.by_direction().items(), key=lambda kv: kv[0]):
        if len(pairs) <= need:
            raise SplitError(
                f"direction {direction} has {len(pairs)} pairs, "
                f"needs more than dev+test={need}"
            )
        domains = sorted({p.domain for p in pairs}) if spec.stratify_by_domain else [None]
        groups: dict[object, list[int]] = {d: [] for d in domains}
        for idx, p in enumerate(pairs):
            groups[p.domain if spec.stratify_by_domain else None].append(idx)
        for d in domains:
            rng = rng_fork(spec.seed, f"split:{direction.key}:{d}")
            order = list(groups[d])
            rng.shuffle(order)
            groups[d] = order
        dev_idx = _draw(groups, domains, spec.dev_per_direction)
        test_idx = _draw(groups, domains, spec.test_per_direction)
        dev_set, test_set = set(dev_idx), set(test_idx)
        for idx, p in enumerate(pairs):
            if idx in dev_set:
                labeled.append(replace(p, split="dev"))
            elif idx in test_set:
                labeled.append(replace(p, split="test"))
            else:
                labeled.append(replace(p, split="train"))
    return ParallelStore(tuple(labeled), store.malformed)


def _draw(groups: dict, domains: list, count: int) -> list[int]:
    quotas = dict(zip(domains, _quotas(count, len(domains))))
    chosen: list[int] = []
    deficit = 0
    for d in domains:
        q = quotas[d]
        take = min(q, len(groups[d]))
        chosen.extend(groups[d][:take])
        groups[d] = groups[d][take:]
        deficit += q - take
    while deficit > 0:
        progressed = False
        for d in domains:
            if deficit <= 0:
                break
            if groups[d]:
                chosen.append(groups[d].pop(0))
                deficit -= 1
                progressed = True
        if not progressed:
            break
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

    @property
    def total(self) -> int:
        return sum(self.counts.values())

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


def stats(store: ParallelStore, langs=None) -> DirectionCountTable:
    """Square per-direction count table, rows and columns sorted by code."""
    counter: Counter = Counter()
    for p in store.pairs:
        counter[(p.direction.src, p.direction.tgt)] += 1
    if langs is None:
        langs = store.languages()
    return DirectionCountTable(tuple(sorted(langs)), dict(counter))


# ---------------------------------------------------------------------------
# store persistence (jsonl, one record per line)
# ---------------------------------------------------------------------------

def save_stores(directory, parallel: ParallelStore, mono: MonoStore) -> None:
    os.makedirs(directory, exist_ok=True)
    with open(os.path.join(directory, "parallel.jsonl"), "w", encoding="utf-8") as f:
        for p in parallel.pairs:
            f.write(
                json.dumps(
                    {
                        "direction": p.direction.key,
                        "src": p.src_text,
                        "tgt": p.tgt_text,
                        "domain": p.domain,
                        "split": p.split,
                    },
                    ensure_ascii=False,
                    sort_keys=True,
                )
                + "\n"
            )
    with open(os.path.join(directory, "mono.jsonl"), "w", encoding="utf-8") as f:
        for s in mono.sentences:
            f.write(
                json.dumps(
                    {"lang": s.lang.code, "text": s.text, "domain": s.domain, "split": s.split},
                    ensure_ascii=False,
                    sort_keys=True,
                )
                + "\n"
            )


def _load_records(path, make) -> tuple:
    """``make(record)`` for each record of a jsonl file; () if it is absent.

    A line that is not JSON, or a record that lacks a key, is a
    FormatError naming the file and line.
    """
    if not os.path.exists(path):
        return ()
    out = []
    for lineno, line in enumerate(_read_lines(path), 1):
        if not line.strip():
            continue
        try:
            out.append(make(json.loads(line)))
        except json.JSONDecodeError as exc:
            raise FormatError(f"{path} line {lineno}: invalid JSON: {exc}") from None
        except KeyError as exc:
            raise FormatError(f"{path} line {lineno}: record has no {exc} key") from None
    return tuple(out)


def load_stores(directory) -> tuple[ParallelStore, MonoStore]:
    pairs = _load_records(
        os.path.join(directory, "parallel.jsonl"),
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
        lambda obj: MonoSentence(
            LangTag(obj["lang"]), obj["text"], obj.get("domain", ""), obj.get("split", "train")
        ),
    )
    return ParallelStore(pairs), MonoStore(sentences)
