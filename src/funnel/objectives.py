"""Training objectives: masked-token reconstruction and replaced-token detection.

Masking replaces selected positions with the [MASK] token outright (no
80/10/10 split): the reconstruction loss is the mean negative
log-likelihood of the original tokens under an output softmax tied to the
input embedding.  The ELECTRA-style objective pairs a quarter-width
generator trained with that loss against a discriminator that classifies
every non-pad position of the generator-sampled sequence as kept or
replaced, weighted by a coefficient of 50.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .autodiff import (ContractError, NumericError, Rng, Tape, Tensor, add,
                       bce_with_logits_mean, cross_entropy_mean, gather_rows, matmul, mul,
                       reshape, softmax_lastdim, transpose)
from .corpus import MASK, UNK, Batch
from .model import FunnelModel

DISC_LOSS_WEIGHT = 50.0
MAX_SPAN = 5  # longest span, in positions, that sample_mask_span draws


@dataclass
class MaskPlan:
    """Chosen mask positions and the tokens they hid."""

    positions: np.ndarray  # sorted int64 indices
    originals: np.ndarray  # token ids at those indices

    def __len__(self) -> int:
        return len(self.positions)

    def apply(self, token_ids: np.ndarray) -> np.ndarray:
        corrupted = np.array(token_ids, dtype=np.int64)
        corrupted[self.positions] = MASK
        return corrupted


def maskable_positions(token_ids: np.ndarray) -> np.ndarray:
    """Indices eligible for masking: UNK or an id past the specials, never CLS/SEP/PAD/MASK."""
    token_ids = np.asarray(token_ids)
    return np.flatnonzero((token_ids == UNK) | (token_ids > MASK))


def sample_mask_single(token_ids: np.ndarray, rate: float = 0.15, *, rng: Rng) -> MaskPlan:
    """Uniform subset of exactly floor(rate * n) maskable positions."""
    if not 0.0 < rate < 1.0:
        raise ContractError(f"mask rate must be in (0,1), got {rate}")
    pool = maskable_positions(token_ids)
    count = int(rate * len(pool))
    if count == 0:
        return MaskPlan(np.array([], dtype=np.int64), np.array([], dtype=np.int64))
    chosen = np.sort(rng.generator.choice(pool, size=count, replace=False))
    return MaskPlan(chosen, np.asarray(token_ids)[chosen].astype(np.int64))


def sample_mask_span(token_ids: np.ndarray, rate: float = 0.15, *, rng: Rng) -> MaskPlan:
    """Span sampling over token positions.

    Spans of Uniform{1..MAX_SPAN} consecutive maskable positions at
    uniform starts are drawn until floor(rate * n) positions are masked;
    the last span is cut short to hit that count exactly.
    """
    if not 0.0 < rate < 1.0:
        raise ContractError(f"mask rate must be in (0,1), got {rate}")
    token_ids = np.asarray(token_ids)
    pool = maskable_positions(token_ids)
    taken = np.zeros(len(pool), dtype=bool)
    left = int(rate * len(pool))
    while left:
        span = int(rng.integers(1, MAX_SPAN + 1))
        start = int(rng.integers(0, len(pool)))
        fresh = start + np.flatnonzero(~taken[start:start + span])[:left]
        taken[fresh] = True
        left -= len(fresh)
    positions = pool[taken].astype(np.int64)
    return MaskPlan(positions, token_ids[positions].astype(np.int64))


def _plan_list(plans) -> list[MaskPlan]:
    """One plan per batch column; a lone plan is a batch of one."""
    plans = [plans] if isinstance(plans, MaskPlan) else list(plans)
    if not plans or any(len(p) == 0 for p in plans):
        raise ContractError("mask plan is empty; skip this sequence instead")
    return plans


def _sequence_weights(counts) -> np.ndarray:
    """Per-row weights giving each of the sequences an equal share: 1 / (n_s * B)."""
    return np.concatenate([np.full(n, 1.0 / (n * len(counts))) for n in counts])


def _masked_token_loss(hidden: Tensor, embedding: Tensor,
                       plans: list[MaskPlan]) -> tuple[Tensor, Tensor]:
    """Tied-output logits h_i . e(x') for every x' at every plan's positions, and their loss.

    ``hidden`` is [T, D] for one plan or [T, B, D] for B plans, read as
    its time-major flattening [T*B, D]; rows run sequence by sequence.
    """
    b = len(plans)
    if len(hidden.shape) not in (2, 3) or math.prod(hidden.shape[1:-1]) != b:
        raise ContractError(f"{b} mask plans for hidden states of shape {hidden.shape}")
    rows = np.concatenate([p.positions * b + i for i, p in enumerate(plans)])
    selected = gather_rows(reshape(hidden, (-1, hidden.shape[-1])), rows)
    logits = matmul(selected, transpose(embedding))
    loss = cross_entropy_mean(logits, np.concatenate([p.originals for p in plans]),
                              _sequence_weights([len(p) for p in plans]))
    return logits, loss


def mlm_loss(decoder_hidden: Tensor, embedding: Tensor, plans) -> Tensor:
    """Mean over sequences of each one's mean -log softmax(e(x)' h_i)[original token].

    ``decoder_hidden`` is time-major [T, B, D] with one plan per column,
    or [T, D] with a single plan.  Every sequence weighs the same,
    however many of its positions are masked.
    """
    return _masked_token_loss(decoder_hidden, embedding, _plan_list(plans))[1]


@dataclass
class ElectraBatch:
    """Generator-sampled sequences plus per-position replaced labels, [T] or [B, T]."""

    sampled_ids: np.ndarray  # original sequences with masked slots re-sampled
    labels: np.ndarray       # 1.0 where the token differs from the original


def build_electra_batch(token_ids: np.ndarray, plan: MaskPlan,
                        gen_probs: np.ndarray, rng: Rng) -> ElectraBatch:
    """Sample each masked slot from the generator distribution.

    Labels satisfy: replaced <=> sampled token != original token.
    Unmasked positions always copy the original (label 0).
    """
    token_ids = np.asarray(token_ids, dtype=np.int64)
    sampled = token_ids.copy()
    for row, pos in enumerate(plan.positions):
        sampled[pos] = rng.generator.choice(len(gen_probs[row]), p=gen_probs[row])
    labels = (sampled != token_ids).astype(np.float64)
    return ElectraBatch(sampled, labels)


def electra_step(gen: FunnelModel, disc: FunnelModel, disc_head: tuple[Tensor, Tensor],
                 batch: Batch, plans: list[MaskPlan], rng: Rng,
                 sink: Callable[[int, np.ndarray], None]) -> tuple[Tape, Tensor, ElectraBatch]:
    """One replaced-token-detection step on a batch of sequences, on two tapes.

    ``batch`` holds [B, T] ids and mask, with one plan per sequence.  The
    generator is trained by its reconstruction loss on the masked
    positions; its tape is recorded, loss-checked (NumericError) and
    walked before the discriminator runs, each of its leaf gradients
    handed to ``sink(key, g)`` (``Tape.backward``) once final.  Its
    tokens are drawn sequence by sequence, in batch order; the sampled
    sequences are rebuilt from raw token ids, so no gradient can flow from
    the discriminator loss into the generator.  The discriminator's binary
    loss averages over each sequence's non-pad positions.  Both losses are
    means over sequences.  Returns the discriminator's tape, not yet
    walked, its root gen + DISC_LOSS_WEIGHT * disc (the generator's term a
    constant) and the sampled [B, T] batch.
    """
    plans = _plan_list(plans)
    ids, mask = batch.token_ids, batch.pad_mask              # [B, T]
    corrupted = np.stack([p.apply(row) for p, row in zip(plans, ids)])
    with Tape() as gen_tape:
        gen_hidden = gen.token_hidden(corrupted.T, mask.T, rng=rng)
        logits, gen_loss = _masked_token_loss(gen_hidden, gen.params["embed/token"], plans)
    if not math.isfinite(gen_loss.item()):
        raise NumericError("generator loss is not finite")
    probs = softmax_lastdim(Tensor(logits.data)).data
    gen_tape.backward(gen_loss, sink)

    per_seq = np.split(probs, np.cumsum([len(p) for p in plans])[:-1])
    sampled = [build_electra_batch(row, p, pr, rng) for row, p, pr in zip(ids, plans, per_seq)]
    sampled_ids = np.stack([s.sampled_ids for s in sampled])
    labels = np.stack([s.labels for s in sampled])

    w, b = disc_head
    with Tape() as tape:
        disc_hidden = disc.token_hidden(sampled_ids.T, mask.T, rng=rng)
        seq, pos = np.nonzero(mask)                          # real slots, sequence by sequence
        sel = gather_rows(reshape(disc_hidden, (-1, disc_hidden.shape[-1])),
                          pos * len(plans) + seq)
        disc_logits = matmul(sel, reshape(w, (sel.shape[1], 1)), b)
        disc_loss = bce_with_logits_mean(disc_logits, labels[mask][:, None],
                                         _sequence_weights(mask.sum(axis=1))[:, None])
        total = add(Tensor(gen_loss.data), mul(disc_loss, DISC_LOSS_WEIGHT))
    return tape, total, ElectraBatch(sampled_ids, labels)
