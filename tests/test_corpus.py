"""Tokenizer, vocabulary and batch construction."""

import numpy as np
import pytest
from hypothesis import given, strategies as st

from funnel.corpus import (CLS, MASK, PAD, SEP, SPECIALS, UNK, Vocab, build_vocab,
                           encode_line)


class TestVocab:
    def test_frequency_then_lexicographic(self):
        v = build_vocab(["a a b"], max_size=10)
        assert v.id_to_token == list(SPECIALS) + ["a", "b"]

    def test_tie_break(self):
        v = build_vocab(["b a"], max_size=10)
        assert v.id_to_token[5:] == ["a", "b"]

    def test_rebuild_is_identical(self):
        lines = ["the cat sat", "the dog ran", "a cat ran fast"]
        a, b = build_vocab(lines, 12), build_vocab(lines, 12)
        assert a.id_to_token == b.id_to_token

    def test_max_size_truncates(self):
        v = build_vocab(["a b c d e f"], max_size=8)
        assert len(v) == 8

    def test_empty_corpus_specials_only(self):
        v = build_vocab([], max_size=10)
        assert v.id_to_token == list(SPECIALS)

    def test_save_load_roundtrip(self, tmp_path):
        v = build_vocab(["alpha beta beta"], max_size=10)
        v.save(tmp_path / "vocab.txt")
        w = Vocab.load(tmp_path / "vocab.txt")
        assert w.id_to_token == v.id_to_token

    def test_blank_line_refused(self, tmp_path):
        # skipping it would give every later token the id of the line above
        path = tmp_path / "vocab.txt"
        path.write_text("\n".join(SPECIALS) + "\nalpha\n\nbeta\n")
        with pytest.raises(ValueError, match="line 7 is blank"):
            Vocab.load(path)


    def test_duplicate_token_refused(self):
        with pytest.raises(ValueError, match="duplicate tokens"):
            Vocab(["alpha", "alpha"])

    def test_file_without_the_special_tokens_refused(self, tmp_path):
        path = tmp_path / "vocab.txt"
        path.write_text("alpha\n" + "\n".join(SPECIALS) + "\n")
        with pytest.raises(ValueError, match="does not start with the special tokens"):
            Vocab.load(path)

class TestEncodeLine:
    def test_empty_line(self):
        v = build_vocab([], 10)
        enc = encode_line("", v, 8)
        assert enc.token_ids[0] == CLS
        assert enc.token_ids[1] == SEP
        assert (enc.token_ids[2:] == PAD).all()
        np.testing.assert_array_equal(enc.pad_mask, [True, True] + [False] * 6)

    def test_unknown_word(self):
        v = build_vocab(["known"], 10)
        enc = encode_line("mystery known", v, 8)
        assert enc.token_ids[1] == UNK
        assert enc.token_ids[2] == v.id_of("known")

    def test_truncation_at_t_minus_2(self):
        v = build_vocab(["a b c d e f g h i j"], 16)
        enc = encode_line("a b c d e f g h i j", v, 8)
        assert len(enc.token_ids) == 8
        assert enc.token_ids[-1] == SEP
        assert [v.id_to_token[i] for i in enc.token_ids[1:-1]] == list("abcdef")

    def test_cls_first_and_power_of_two(self):
        v = build_vocab(["x y"], 10)
        with pytest.raises(ValueError):
            encode_line("x", v, 6)
        enc = encode_line("x y", v, 8)
        assert enc.token_ids[0] == CLS


def test_encode_line_roundtrips_through_vocab():
    lines = ["the cat sat on the mat"]
    v = build_vocab(lines, 16)
    enc = encode_line(lines[0], v, 16)
    assert [v.id_to_token[i] for i in enc.token_ids[enc.pad_mask][1:-1]] == lines[0].split()


@given(st.lists(st.text(alphabet="abcdef ", min_size=0, max_size=30), max_size=6),
       st.sampled_from([8, 16, 32]))
def test_batch_invariants_property(lines, seq_len):
    from funnel.corpus import Batch
    vocab = build_vocab(lines, 20)
    encoded = []
    for line in lines:
        enc = encode_line(line, vocab, seq_len)
        encoded.append(enc)
        assert len(enc.token_ids) == seq_len
        assert enc.token_ids[0] == CLS
        assert enc.pad_mask[0] and enc.pad_mask[1]
        # mask is a prefix: no real token after the first pad
        first_pad = np.argmin(enc.pad_mask) if not enc.pad_mask.all() else seq_len
        assert not enc.pad_mask[first_pad:].any()
        assert (enc.token_ids[~enc.pad_mask] == PAD).all()
        assert MASK not in enc.token_ids
    if encoded:
        batch = Batch.stack(encoded)
        assert batch.token_ids.shape == (len(encoded), seq_len)
        assert len(batch) == len(encoded)
        for row, enc in zip(batch.token_ids, encoded):
            np.testing.assert_array_equal(row, enc.token_ids)


class TestBatch:
    def test_rejects_non_power_of_two(self):
        from funnel.corpus import Batch
        with pytest.raises(ValueError, match="power of two"):
            Batch(np.full((1, 6), CLS), np.ones((1, 6), bool))

    def test_rejects_fields_of_different_shapes(self):
        from funnel.corpus import Batch
        with pytest.raises(ValueError, match="disagree on their shape"):
            Batch(np.full((2, 8), CLS), np.ones((2, 4), bool))

    def test_rejects_missing_cls(self):
        from funnel.corpus import Batch
        ids = np.full((2, 8), 7)
        with pytest.raises(ValueError, match="CLS"):
            Batch(ids, np.ones((2, 8), bool))
