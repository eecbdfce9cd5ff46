"""Toy text ingestion: whitespace tokenizer, vocabulary, power-of-two batches.

One document per line, lowercased, split on whitespace.  Ids 0..4 are
reserved for [PAD], [UNK], [CLS], [SEP], [MASK]; the remaining slots are
filled by corpus tokens ordered by descending frequency, ties broken
lexicographically, so rebuilding from the same text is reproducible.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass

import numpy as np

from .layout import is_pow2

PAD, UNK, CLS, SEP, MASK = 0, 1, 2, 3, 4
SPECIALS = ("[PAD]", "[UNK]", "[CLS]", "[SEP]", "[MASK]")


class Vocab:
    """Dense, deterministic id <-> token maps with five reserved specials."""

    def __init__(self, tokens: list[str]):
        self.id_to_token = list(SPECIALS) + list(tokens)
        self.token_to_id = {t: i for i, t in enumerate(self.id_to_token)}
        if len(self.token_to_id) != len(self.id_to_token):
            raise ValueError("duplicate tokens in vocabulary")

    def __len__(self) -> int:
        return len(self.id_to_token)

    def id_of(self, token: str) -> int:
        return self.token_to_id.get(token, UNK)

    def save(self, path) -> None:
        """One token per line; the line number is the id."""
        with open(path, "w", encoding="utf-8") as f:
            for t in self.id_to_token:
                f.write(t + "\n")

    @classmethod
    def load(cls, path) -> "Vocab":
        """Inverse of ``save``; a blank line would shift every later id, so it is refused."""
        with open(path, encoding="utf-8") as f:
            toks = [line.rstrip("\n") for line in f]
        if "" in toks:
            raise ValueError(f"vocabulary file {path}: line {toks.index('') + 1} is blank")
        if toks[:5] != list(SPECIALS):
            raise ValueError(f"vocabulary file {path} does not start with the special tokens")
        return cls(toks[5:])


def tokenize(line: str) -> list[str]:
    return line.lower().split()


def build_vocab(lines, max_size: int) -> Vocab:
    """Top (max_size - 5) tokens by frequency, then lexicographic order."""
    counts = Counter()
    for line in lines:
        counts.update(tokenize(line))
    ranked = sorted(counts.items(), key=lambda kv: (-kv[1], kv[0]))
    return Vocab([t for t, _ in ranked[: max(0, max_size - 5)]])


@dataclass
class EncodedLine:
    """One sequence ready for the model."""

    token_ids: np.ndarray  # [T] int64, CLS first
    pad_mask: np.ndarray   # [T] bool, True at real positions


def encode_line(line: str, vocab: Vocab, seq_len: int) -> EncodedLine:
    """[CLS] + tokens + [SEP], truncated/padded to ``seq_len`` (a power of two)."""
    if seq_len < 2 or not is_pow2(seq_len):
        raise ValueError(f"sequence length {seq_len} must be a power of two >= 2")
    ids = [CLS] + [vocab.id_of(w) for w in tokenize(line)[: seq_len - 2]] + [SEP]
    real = len(ids)
    ids.extend([PAD] * (seq_len - real))
    mask = np.zeros(seq_len, dtype=bool)
    mask[:real] = True
    return EncodedLine(np.array(ids, dtype=np.int64), mask)


def load_corpus(path) -> list[str]:
    with open(path, encoding="utf-8") as f:
        return [line.rstrip("\n") for line in f]


@dataclass
class Batch:
    """Stacked sequences: [B, T] ids and pad mask.

    The model reads a batch time-major, as ``token_ids.T`` and ``pad_mask.T``.
    """

    token_ids: np.ndarray
    pad_mask: np.ndarray

    def __post_init__(self):
        b, t = self.token_ids.shape
        if self.pad_mask.shape != (b, t):
            raise ValueError("batch fields disagree on their shape")
        if t < 2 or not is_pow2(t):
            raise ValueError(f"batch length {t} must be a power of two")
        if (self.token_ids[:, 0] != CLS).any():
            raise ValueError("every sequence must start with [CLS]")

    def __len__(self) -> int:
        return self.token_ids.shape[0]

    @classmethod
    def stack(cls, lines: list[EncodedLine]) -> "Batch":
        return cls(np.stack([ln.token_ids for ln in lines]),
                   np.stack([ln.pad_mask for ln in lines]))
