"""Subword model: BPE training, encoding, round-trips, persistence."""

import numpy as np
import pytest

from mtlab.errors import VocabularyError
from mtlab.tokenizer import (
    EOS_ID,
    PAD_ID,
    UNK_ID,
    UNK_MARKER,
    SubwordModel,
    normalize,
    train_subword,
)

BASE = 3 + 256  # pad/eos/unk + byte alphabet, before tags and merges


class TestTraining:
    def test_single_merge_corpus(self):
        # "aaaa aaaa": most frequent pair is ("a","a"); room for one merge
        model = train_subword([["aaaa aaaa"]], BASE + 1, [])
        assert model.merges == [("a", "a")]
        assert model.encode_pieces("aaaa") == ["aa", "aa"]

    def test_empty_corpus_rejected(self):
        with pytest.raises(VocabularyError):
            train_subword([[]], BASE + 10, [])
        with pytest.raises(VocabularyError):
            train_subword([["   "]], BASE + 10, [])

    def test_vocab_size_too_small_rejected(self):
        with pytest.raises(VocabularyError):
            train_subword([["abc"]], BASE, [])

    def test_specials_present_exactly_once(self):
        model = train_subword([["some words here"]], BASE + 2 + 8, ["eng", "fra"])
        for tok in ("<pad>", "</s>", "<unk>", "<eng>", "<fra>"):
            assert model.pieces.count(tok) == 1

    def test_fixed_special_ids(self):
        model = train_subword([["x y"]], BASE + 1 + 4, ["eng"])
        assert model.pieces[PAD_ID] == "<pad>"
        assert model.pieces[EOS_ID] == "</s>"
        assert model.pieces[UNK_ID] == "<unk>"
        assert model.tag_ids == [3]

    def test_determinism(self):
        corpus = ["the cat sat", "the dog sat", "a cat ran"]
        a = train_subword([corpus], BASE + 20, [])
        b = train_subword([corpus], BASE + 20, [])
        assert a.merges == b.merges
        assert a.serialize() == b.serialize()

    def test_merges_never_contain_special_surfaces(self):
        corpus = ["<eng> <eng> <eng> <eng> hello hello"]
        model = train_subword([corpus], BASE + 1 + 30, ["eng"])
        for a, b in model.merges:
            assert "<eng>" not in a + b


class TestEncodeDecode:
    def test_tag_is_atomic(self, tiny_tokenizer):
        ids = tiny_tokenizer.encode("<sy1> hello")
        assert ids[0] == tiny_tokenizer.tag_ids[0]  # sy1

    def test_empty_text_is_just_eos(self, tiny_tokenizer):
        assert tiny_tokenizer.encode("") == [EOS_ID]

    def test_encode_appends_eos(self, tiny_tokenizer):
        assert tiny_tokenizer.encode("a b")[-1] == EOS_ID

    @pytest.mark.parametrize(
        "text",
        [
            "Daalụ maka ikwu eziokwu nke Chineke",
            "état fédéral",
            "a b c",
            "<sy1> a b",
            "ọmọ àti ọba",
        ],
    )
    def test_round_trip(self, tiny_tokenizer, text):
        assert tiny_tokenizer.decode(tiny_tokenizer.encode(text)) == normalize(text)

    def test_round_trip_random_ascii(self, tiny_tokenizer):
        rng = np.random.default_rng(0)
        alphabet = list("abc xyz.!?")
        for _ in range(50):
            s = "".join(rng.choice(alphabet, size=rng.integers(1, 30)))
            assert tiny_tokenizer.decode(tiny_tokenizer.encode(s)) == normalize(s)

    def test_decode_stops_at_eos(self, tiny_tokenizer):
        ids = tiny_tokenizer.encode("a b")
        tail = tiny_tokenizer.encode("c")
        assert tiny_tokenizer.decode(ids + tail) == "a b"

    def test_decode_eos_only(self, tiny_tokenizer):
        assert tiny_tokenizer.decode([EOS_ID]) == ""

    def test_decode_unk_marker(self, tiny_tokenizer):
        assert tiny_tokenizer.decode([UNK_ID]) == UNK_MARKER

    def test_decode_drops_pad(self, tiny_tokenizer):
        ids = tiny_tokenizer.encode("a b")
        assert tiny_tokenizer.decode([PAD_ID] + ids) == "a b"

    def test_decode_out_of_range_rejected(self, tiny_tokenizer):
        with pytest.raises(VocabularyError):
            tiny_tokenizer.decode([tiny_tokenizer.vocab_size])

    def test_never_produces_unk(self, tiny_tokenizer):
        # byte fallback covers arbitrary text, even unseen scripts
        ids = tiny_tokenizer.encode("Ωμέγα ≠ nothing-seen-before")
        assert UNK_ID not in ids

    def test_encode_pieces_no_eos_and_lossless_markers(self, tiny_tokenizer):
        pieces = tiny_tokenizer.encode_pieces("a b")
        assert pieces and "</s>" not in pieces
        assert all(" " not in p for p in pieces)  # boundary is a visible marker

    def test_encode_pieces_empty(self, tiny_tokenizer):
        assert tiny_tokenizer.encode_pieces("") == []


def test_normalize_text():
    assert normalize("  a\t b\xa0 c ") == "a b c"
    assert normalize("e\u0301  x") == "\u00e9 x"


class TestPersistence:
    def test_save_load_byte_exact(self, tiny_tokenizer, tmp_path):
        path = tmp_path / "tok.txt"
        tiny_tokenizer.save(path)
        loaded = SubwordModel.load(path)
        assert loaded.serialize() == tiny_tokenizer.serialize()
        assert loaded.hash() == tiny_tokenizer.hash()
        text = "c b a a b"
        assert loaded.encode(text) == tiny_tokenizer.encode(text)

    def test_hash_changes_with_vocab(self):
        a = train_subword([["aa aa aa"]], BASE + 4, [])
        b = train_subword([["bb bb bb"]], BASE + 4, [])
        assert a.merges != b.merges
        assert a.hash() != b.hash()
