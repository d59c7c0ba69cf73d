"""Shared multilingual subword model: byte-level BPE with atomic specials.

One model serves both the translation model and the subword-piece metrics.
The base alphabet is the 256 byte values rendered as visible characters
(printable bytes map to themselves, the rest to remapped code points, so a
space becomes a visible word-boundary marker and pieces concatenate
losslessly). Merges never cross chunk boundaries, where a chunk is a run
of non-space characters or a run of whitespace.

Ids are fixed as pad=0, eos=1, unk=2, then one ``<code>`` tag per language,
then the 256 byte pieces, then merge outputs. A leading ``<code>`` on the
input maps to its single tag id; tags are never produced by merges.
"""

from __future__ import annotations

import hashlib
import re
import unicodedata
from collections import Counter

from .errors import ConfigError, FormatError, VocabularyError

PAD_ID = 0
EOS_ID = 1
UNK_ID = 2

PAD_PIECE = "<pad>"
EOS_PIECE = "</s>"
UNK_PIECE = "<unk>"

UNK_MARKER = "⁇"  # "⁇", rendered for unk ids on decode

_CHUNK_RE = re.compile(r"\S+|\s+")


def _byte_to_char_table() -> dict[int, str]:
    # Printable bytes map to themselves; the remainder get 256+n code
    # points, keeping every piece a clean printable string.
    keep = (
        list(range(ord("!"), ord("~") + 1))
        + list(range(ord("\xa1"), ord("\xac") + 1))
        + list(range(ord("\xae"), ord("\xff") + 1))
    )
    table = {}
    shifted = 0
    for b in range(256):
        if b in keep:
            table[b] = chr(b)
        else:
            table[b] = chr(256 + shifted)
            shifted += 1
    return table


_BYTE_TO_CHAR = _byte_to_char_table()
_CHAR_TO_BYTE = {c: b for b, c in _BYTE_TO_CHAR.items()}


def normalize(text: str) -> str:
    """NFC-normalize, trim and collapse internal whitespace runs to single
    spaces; the tokenizer sees only normalized text, and the corpus loaders
    store it."""
    return " ".join(unicodedata.normalize("NFC", text).split())


def _to_visible(chunk: str) -> str:
    return "".join(_BYTE_TO_CHAR[b] for b in chunk.encode("utf-8"))


class SubwordModel:
    """Trained BPE vocabulary; immutable after construction."""

    def __init__(self, lang_tags: list[str], merges: list[tuple[str, str]], vocab_size: int):
        self.lang_tags = list(lang_tags)
        self.special_tokens = [PAD_PIECE, EOS_PIECE, UNK_PIECE] + [
            f"<{code}>" for code in self.lang_tags
        ]
        if len(set(self.special_tokens)) != len(self.special_tokens):
            raise VocabularyError("duplicate language tags")
        self.merges = [tuple(m) for m in merges]
        pieces = list(self.special_tokens)
        pieces += [_BYTE_TO_CHAR[b] for b in range(256)]
        for a, b in self.merges:
            pieces.append(a + b)
        if len(set(pieces)) != len(pieces):
            raise VocabularyError("merge list produces duplicate pieces")
        self.pieces = pieces
        self.vocab_size = vocab_size
        if vocab_size != len(pieces):
            raise VocabularyError(
                f"vocab_size {vocab_size} does not match {len(pieces)} pieces"
            )
        self.piece_to_id = {p: i for i, p in enumerate(pieces)}
        self._ranks = {m: i for i, m in enumerate(self.merges)}
        self._tag_ids = {
            f"<{code}>": self.piece_to_id[f"<{code}>"] for code in self.lang_tags
        }
        self._chunk_cache: dict[str, tuple[str, ...]] = {}
        # longest first, so a tag that prefixes another cannot shadow it
        self._tag_surfaces = sorted(self.special_tokens[3:], key=len, reverse=True)

    # -- encoding ----------------------------------------------------------

    @property
    def tag_ids(self) -> list[int]:
        return [self._tag_ids[f"<{code}>"] for code in self.lang_tags]

    def require_tags(self, codes) -> None:
        """ConfigError for a language code with no tag here: it would encode as bytes."""
        missing = [code for code in codes if code not in self.lang_tags]
        if missing:
            raise ConfigError(f"no tokenizer tag for {missing}; its tags are {self.lang_tags}")

    def _merge_chunk(self, visible: str) -> tuple[str, ...]:
        cached = self._chunk_cache.get(visible)
        if cached is not None:
            return cached
        parts = list(visible)
        while len(parts) > 1:
            best_rank = None
            best_i = -1
            for i in range(len(parts) - 1):
                rank = self._ranks.get((parts[i], parts[i + 1]))
                if rank is not None and (best_rank is None or rank < best_rank):
                    best_rank = rank
                    best_i = i
            if best_rank is None:
                break
            parts[best_i : best_i + 2] = [parts[best_i] + parts[best_i + 1]]
        result = tuple(parts)
        self._chunk_cache[visible] = result
        return result

    def _pieces_of(self, text: str) -> list[str]:
        out: list[str] = []
        remainder = normalize(text)
        while True:
            matched = next((s for s in self._tag_surfaces if remainder.startswith(s)), None)
            if matched is None:
                break
            out.append(matched)
            remainder = remainder[len(matched):]
        for chunk in _CHUNK_RE.findall(remainder):
            out.extend(self._merge_chunk(_to_visible(chunk)))
        return out

    def encode(self, text: str) -> list[int]:
        """Encode to ids, tag-aware, with a trailing eos."""
        ids = [self.piece_to_id[p] for p in self._pieces_of(text)]
        ids.append(EOS_ID)
        return ids

    def encode_pieces(self, text: str) -> list[str]:
        """Piece strings (no eos); the tokenization step of the sp metrics."""
        return self._pieces_of(text)

    def decode(self, ids) -> str:
        """Inverse of encode up to the first eos; unk renders as ⁇."""
        out: list[str] = []
        buf = bytearray()

        def flush():
            if buf:
                out.append(buf.decode("utf-8", errors="replace"))
                buf.clear()

        for raw in ids:
            i = int(raw)
            if i < 0 or i >= self.vocab_size:
                raise VocabularyError(f"id {i} out of range [0, {self.vocab_size})")
            if i == EOS_ID:
                break
            if i == PAD_ID:
                continue
            if i == UNK_ID:
                flush()
                out.append(UNK_MARKER)
                continue
            piece = self.pieces[i]
            if i < len(self.special_tokens):
                flush()
                out.append(piece)
                continue
            buf.extend(_CHAR_TO_BYTE[c] for c in piece)
        flush()
        return "".join(out)

    # -- persistence -------------------------------------------------------

    def serialize(self) -> str:
        lines = ["subword-model v1"]
        lines.append(f"vocab_size\t{self.vocab_size}")
        lines.append("tags\t" + ",".join(self.lang_tags))
        lines.append(f"merges\t{len(self.merges)}")
        lines.extend(f"{a}\t{b}" for a, b in self.merges)
        lines.append(f"pieces\t{len(self.pieces)}")
        lines.extend(self.pieces)
        return "\n".join(lines) + "\n"

    def save(self, path) -> None:
        with open(path, "w", encoding="utf-8", newline="\n") as f:
            f.write(self.serialize())

    def hash(self) -> str:
        return hashlib.sha256(self.serialize().encode("utf-8")).hexdigest()

    @classmethod
    def deserialize(cls, text: str) -> "SubwordModel":
        lines = text.splitlines()
        try:
            if lines[0] != "subword-model v1":
                raise FormatError(f"unknown tokenizer header {lines[0]!r}")
            vocab_size = int(lines[1].split("\t")[1])
            tags_field = lines[2].split("\t")
            tags = tags_field[1].split(",") if len(tags_field) > 1 and tags_field[1] else []
            n_merges = int(lines[3].split("\t")[1])
            merges = []
            for line in lines[4 : 4 + n_merges]:
                a, b = line.split("\t")
                merges.append((a, b))
            n_pieces = int(lines[4 + n_merges].split("\t")[1])
            listed = lines[5 + n_merges : 5 + n_merges + n_pieces]
        except (IndexError, ValueError) as exc:
            raise FormatError(f"corrupt tokenizer file: {exc}") from None
        model = cls(tags, merges, vocab_size)
        if listed != model.pieces:
            raise FormatError("tokenizer file pieces do not match its merge list")
        return model

    @classmethod
    def load(cls, path) -> "SubwordModel":
        try:
            with open(path, encoding="utf-8") as f:
                return cls.deserialize(f.read())
        except (UnicodeDecodeError, FormatError) as exc:
            raise FormatError(f"tokenizer file {path}: {exc}") from None


def train_subword(corpora, vocab_size: int, lang_tags) -> SubwordModel:
    """Train byte-level BPE over text collections.

    ``corpora`` is an iterable of iterables of sentences; ``lang_tags`` the
    language codes whose ``<code>`` tags become atomic specials. Merges are
    greedy most-frequent-pair with ties broken by the lexicographically
    smaller pair, and stop at ``vocab_size`` or when no pair repeats.
    """
    lang_tags = list(lang_tags)
    n_base = 3 + len(lang_tags) + 256
    if vocab_size <= n_base:
        raise VocabularyError(
            f"vocab_size {vocab_size} must exceed specials + byte alphabet ({n_base})"
        )
    specials = [PAD_PIECE, EOS_PIECE, UNK_PIECE] + [f"<{code}>" for code in lang_tags]
    chunk_counts: Counter[str] = Counter()
    total_lines = 0
    for collection in corpora:
        for line in collection:
            total_lines += 1
            for chunk in _CHUNK_RE.findall(normalize(line)):
                chunk_counts[_to_visible(chunk)] += 1
    if not chunk_counts:
        raise VocabularyError("cannot train a subword model on an empty corpus")

    words: dict[str, tuple[list[str], int]] = {
        w: (list(w), c) for w, c in chunk_counts.items()
    }
    merges: list[tuple[str, str]] = []
    n_merges = vocab_size - n_base
    for _ in range(n_merges):
        pair_counts: Counter[tuple[str, str]] = Counter()
        for parts, count in words.values():
            for i in range(len(parts) - 1):
                pair_counts[(parts[i], parts[i + 1])] += count
        best = None
        for pair, count in pair_counts.items():
            if count < 2:
                continue
            joined = pair[0] + pair[1]
            if any(s in joined for s in specials):
                continue
            if best is None or count > best[1] or (count == best[1] and pair < best[0]):
                best = (pair, count)
        if best is None:
            break
        pair = best[0]
        merged = pair[0] + pair[1]
        for parts, _count in words.values():
            i = 0
            while i < len(parts) - 1:
                if parts[i] == pair[0] and parts[i + 1] == pair[1]:
                    parts[i : i + 2] = [merged]
                else:
                    i += 1
        merges.append(pair)
    return SubwordModel(lang_tags, merges, 3 + len(lang_tags) + 256 + len(merges))
