"""Corpus loading, cleaning, splitting, and stats."""

import json

import pytest

from mtlab.corpus import (
    Direction,
    LangTag,
    MonoSentence,
    MonoStore,
    ParallelPair,
    ParallelStore,
    clean,
    load_mono,
    load_parallel,
    load_stores,
    save_stores,
    split,
    stats,
)
from mtlab.errors import EmptyCorpusError, FormatError, SplitError

FRA_ENG = Direction(LangTag("fra"), LangTag("eng"))


def _pair(src, tgt, direction=FRA_ENG, domain=""):
    return ParallelPair(direction, src, tgt, domain)


class TestTypes:
    def test_lang_tag_surface(self):
        assert LangTag("eng").surface == "<eng>"

    @pytest.mark.parametrize("bad", ["EN", "english", "e!", "", "1ab"])
    def test_lang_tag_validation(self, bad):
        with pytest.raises(FormatError):
            LangTag(bad)

    def test_synthetic_codes_allowed(self):
        assert LangTag("sy1").code == "sy1"

    def test_direction_needs_distinct_languages(self):
        with pytest.raises(FormatError):
            Direction(LangTag("eng"), LangTag("eng"))

    def test_direction_parse(self):
        assert Direction.parse("fra-eng") == FRA_ENG


class TestLoadParallel:
    def test_tsv2_line(self, tmp_path):
        path = tmp_path / "p.tsv"
        path.write_text("bonjour\thello\n", encoding="utf-8")
        store = load_parallel(path, FRA_ENG)
        assert len(store) == 1
        assert store.pairs[0].src_text == "bonjour"
        assert store.pairs[0].tgt_text == "hello"
        assert store.malformed == 0

    def test_three_field_line_is_malformed(self, tmp_path):
        path = tmp_path / "p.tsv"
        path.write_text("a\tb\tc\nbonjour\thello\n", encoding="utf-8")
        store = load_parallel(path, FRA_ENG)
        assert len(store) == 1
        assert store.malformed == 1

    def test_jsonl_with_missing_tgt(self, tmp_path):
        # 100 records, 2 missing "tgt" -> 98 kept, malformed 2
        path = tmp_path / "p.jsonl"
        lines = []
        for i in range(100):
            obj = {"src": f"source {i}", "tgt": f"target {i}", "domain": "news"}
            if i in (17, 54):
                del obj["tgt"]
            lines.append(json.dumps(obj))
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        store = load_parallel(path, FRA_ENG, "jsonl")
        assert len(store) == 98
        assert store.malformed == 2
        assert store.pairs[0].domain == "news"

    def test_zero_wellformed_lines_is_error(self, tmp_path):
        path = tmp_path / "p.tsv"
        path.write_text("no tabs here\n", encoding="utf-8")
        with pytest.raises(EmptyCorpusError):
            load_parallel(path, FRA_ENG)

    def test_unreadable_file_is_io_error(self, tmp_path):
        with pytest.raises(FormatError):
            load_parallel(tmp_path / "absent.tsv", FRA_ENG)

    def test_invalid_utf8_rejected(self, tmp_path):
        path = tmp_path / "p.tsv"
        path.write_bytes(b"caf\xff\thello\n")
        with pytest.raises(FormatError):
            load_parallel(path, FRA_ENG)

    def test_load_mono(self, tmp_path):
        path = tmp_path / "m.txt"
        path.write_text("one sentence\nanother one\n\n", encoding="utf-8")
        store = load_mono(path, LangTag("fon"))
        assert len(store) == 2


class TestClean:
    def test_too_long_source_dropped(self):
        long_src = " ".join(["w"] * 51)
        store = ParallelStore((_pair(long_src, "ok ok"),))
        cleaned, report = clean(store, max_len=50, min_len=2, dedup=True)
        assert len(cleaned) == 0
        assert report.dropped_too_long == 1

    def test_boundary_lengths_kept(self):
        store = ParallelStore(
            (_pair(" ".join(["w"] * 50), "a b"), _pair("a b", "c d"))
        )
        cleaned, report = clean(store, max_len=50, min_len=2, dedup=True)
        assert report.kept == 2

    def test_single_token_pair_dropped(self):
        store = ParallelStore((_pair("hi", "yo"),))
        cleaned, report = clean(store, max_len=50, min_len=2, dedup=True)
        assert len(cleaned) == 0
        assert report.dropped_too_short == 1

    def test_exact_duplicates_collapse(self):
        store = ParallelStore((_pair("a b", "c d"), _pair("a b", "c d")))
        cleaned, report = clean(store, max_len=50, min_len=2, dedup=True)
        assert len(cleaned) == 1
        assert report.dropped_duplicate == 1

    def test_dedup_respects_whitespace_normalization(self):
        store = ParallelStore((_pair("a  b", "c d"), _pair("a b", "c d")))
        cleaned, _ = clean(store, max_len=50, min_len=2, dedup=True)
        assert len(cleaned) == 1

    def test_dedup_disabled(self):
        store = ParallelStore((_pair("a b", "c d"), _pair("a b", "c d")))
        cleaned, _ = clean(store, max_len=50, min_len=2, dedup=False)
        assert len(cleaned) == 2

    def test_idempotent(self):
        store = ParallelStore(
            (
                _pair("a b", "c d"),
                _pair("x  y", "z w"),
                _pair("hi", "yo"),
                _pair("a b", "c d"),
            )
        )
        once, _ = clean(store, max_len=50, min_len=2, dedup=True)
        twice, report = clean(once, max_len=50, min_len=2, dedup=True)
        assert twice.pairs == once.pairs
        assert report.dropped_too_long == report.dropped_too_short == 0
        assert report.dropped_duplicate == 0

    def test_mono_clean(self):
        store = MonoStore(
            (
                MonoSentence(LangTag("fon"), "ok sentence"),
                MonoSentence(LangTag("fon"), "ok sentence"),
                MonoSentence(LangTag("fon"), "x"),
            )
        )
        cleaned, report = clean(store, max_len=50, min_len=2, dedup=True)
        assert len(cleaned) == 1
        assert report.dropped_duplicate == 1
        assert report.dropped_too_short == 1

    def test_diacritics_preserved(self):
        store = ParallelStore((_pair("Daalụ ọba", "état fédéral"),))
        cleaned, _ = clean(store, max_len=50, min_len=2, dedup=True)
        assert cleaned.pairs[0].src_text == "Daalụ ọba"

    def test_invalid_config(self):
        with pytest.raises(FormatError):
            clean(ParallelStore(), max_len=50, min_len=0, dedup=True)
        with pytest.raises(FormatError):
            clean(ParallelStore(), max_len=4, min_len=5, dedup=True)


def _bulk_store(n=1000, domains=("",)):
    pairs = []
    for i in range(n):
        pairs.append(
            _pair(f"src sentence {i}", f"tgt sentence {i}", domain=domains[i % len(domains)])
        )
    return ParallelStore(tuple(pairs))


class TestSplit:
    def test_sizes(self):
        store = _bulk_store(1000)
        out = split(store, dev_per_direction=30, test_per_direction=30, seed=1,
                    stratify_by_domain=True)
        counts = {s: sum(1 for p in out.pairs if p.split == s) for s in ("train", "dev", "test")}
        assert counts == {"train": 940, "dev": 30, "test": 30}

    def test_partition_disjoint_and_complete(self):
        store = _bulk_store(200)
        out = split(store, dev_per_direction=10, test_per_direction=20, seed=3,
                    stratify_by_domain=True)
        texts = sorted(p.src_text for p in out.pairs)
        assert texts == sorted(p.src_text for p in store.pairs)

    def test_deterministic_per_seed(self):
        store = _bulk_store(300)
        a = split(store, dev_per_direction=20, test_per_direction=20, seed=7,
                  stratify_by_domain=True)
        b = split(store, dev_per_direction=20, test_per_direction=20, seed=7,
                  stratify_by_domain=True)
        assert a.pairs == b.pairs

    def test_different_seeds_differ(self):
        store = _bulk_store(1000)
        a = split(store, dev_per_direction=30, test_per_direction=30, seed=1,
                  stratify_by_domain=True)
        b = split(store, dev_per_direction=30, test_per_direction=30, seed=2,
                  stratify_by_domain=True)
        test_a = {p.src_text for p in a.pairs if p.split == "test"}
        test_b = {p.src_text for p in b.pairs if p.split == "test"}
        assert test_a != test_b

    def test_stratified_equal_draw(self):
        store = _bulk_store(1000, domains=("news", "bible"))
        out = split(store, dev_per_direction=0, test_per_direction=30, seed=5,
                    stratify_by_domain=True)
        per_domain = {"news": 0, "bible": 0}
        for p in out.pairs:
            if p.split == "test":
                per_domain[p.domain] += 1
        assert per_domain == {"news": 15, "bible": 15}

    def test_insufficient_pairs_names_direction(self):
        store = ParallelStore(tuple(_pair(f"s {i}", f"t {i}") for i in range(10)))
        with pytest.raises(SplitError, match="fra-eng"):
            split(store, dev_per_direction=5, test_per_direction=5, seed=1, stratify_by_domain=True)


class TestStats:
    def test_empty_store_all_zero(self):
        table = stats(ParallelStore())
        assert table.langs == () and sum(table.counts.values()) == 0
        assert table.cell(LangTag("fra"), LangTag("eng")) == 0

    def test_counts(self):
        store = ParallelStore(tuple(_pair(f"s {i}", f"t {i}") for i in range(3)))
        table = stats(store)
        assert table.cell(LangTag("fra"), LangTag("eng")) == 3
        assert sum(table.counts.values()) == len(store)

    def test_large_cell_renders(self):
        # row mirroring a six-figure per-direction count renders intact
        ibo_yor = Direction(LangTag("ibo"), LangTag("yor"))
        pairs = tuple(_pair(f"s {i}", f"t {i}", direction=ibo_yor) for i in range(5))
        table = stats(ParallelStore(pairs))
        assert table.cell(LangTag("ibo"), LangTag("yor")) == 5
        assert "ibo" in table.to_text() and "5" in table.to_text()
        assert table.to_csv().count("\n") == 3  # header + 2 lang rows

    def test_totals_match_store(self):
        store = _bulk_store(77)
        assert sum(stats(store).counts.values()) == 77


class TestStoreRoundTrip:
    def test_save_load(self, tmp_path):
        parallel = _bulk_store(10)
        parallel = split(parallel, dev_per_direction=2, test_per_direction=3, seed=0,
                         stratify_by_domain=True)
        mono = MonoStore((MonoSentence(LangTag("fon"), "ok sentence"),))
        save_stores(tmp_path, parallel, mono)
        p2, m2 = load_stores(tmp_path)
        assert p2.pairs == parallel.pairs
        assert m2.sentences == mono.sentences

    @pytest.mark.parametrize(
        "name, bad_line",
        [("parallel", '{"direction": "fra-eng", "src": "a'),
         ("parallel", '{"direction": "fra-eng", "src": "a"}'), ("parallel", "[1, 2]"),
         ("parallel", '{"direction": "fra-eng", "src": "a", "tgt": null}'),
         ("parallel", '{"direction": "fra-eng", "src": "a", "tgt": "b", "split": "Train"}'),
         ("parallel", '{"direction": "fraeng", "src": "a", "tgt": "b"}'),
         # an empty sentence would fail a run at its first REC round, far from its file
         ("parallel", '{"direction": "fra-eng", "src": "", "tgt": "b"}'),
         ("parallel", '{"direction": "fra-eng", "src": "a", "tgt": " \\t "}'),
         ("mono", '{"lang": "fon", "text": ""}')],
        ids=["truncated_json", "missing_key", "not_an_object", "null_text", "unknown_split",
             "bad_direction", "empty_src", "blank_tgt", "empty_mono_text"],
    )
    def test_bad_record_names_file_and_line(self, tmp_path, name, bad_line):
        mono = MonoStore(tuple(MonoSentence(LangTag("fon"), f"s {i}") for i in range(3)))
        save_stores(tmp_path, _bulk_store(3), mono)
        path = tmp_path / f"{name}.jsonl"
        lines = path.read_text(encoding="utf-8").splitlines()
        path.write_text("\n".join(lines[:2] + [bad_line]) + "\n", encoding="utf-8")
        with pytest.raises(FormatError, match=f"{name}.jsonl line 3"):
            load_stores(tmp_path)
