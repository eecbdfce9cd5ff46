"""Compressing encoder: blocks of transformer layers with inter-block pooling.

Block 1 runs full-length layers.  Every later block starts by pooling the
previous block's output (windows of two rows, stride 2) and then attends
with the pooled sequence as queries against the unpooled sequence as
keys/values (pool-query-only attention), after which standard layers
continue at the reduced length.

Every pooling op reads windows of two row indices, and a window may name
one row twice.  That one rule covers the classification token at index
0, kept out of the other tokens' windows (``separate_cls``), an odd tail
and each state top-attention pooling keeps: each pairs with itself.  To
keep lengths at powers of two afterwards, the same row index leaves out
the final pooled state (``truncate_seq``).  Pooled states keep the
position id of the first token of their window so relative distances
against unpooled keys stay meaningful; an all-pad window pools to 0.0.

States are time-major, [T, D] for one sequence or [T, B, D] for a batch,
with pad masks [T] or [T, B]; every pooling op works along axis 0, one
column at a time.  Positions stay 1-D while every column shares them and
become [T, B] once top-attention pooling keeps different states per
column.

No layer computes a row past its column's last real one (see
``relattn``): mean and max pooling skip pads and top-attention keeps real
states first, so such rows never reach a real output.  They come out
exactly 0.0, except in the final block, which also computes the rows the
decoder up-samples real positions from (``encoder_forward``).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .autodiff import (ContractError, Tensor, dropout, gather_rows, max_pool_pairs,
                       mean_pool_pairs, window_index)
from .decoder import upsample_source
from .layout import is_pow2, layer_plan, pooled_length
# attention and pffn stay bound here though only relattn calls them: the
# benchmark's tracer wraps encoder.attention and encoder.pffn by name.  Tests
# swap encoder.row_extent, like relattn's, for a full-length stand-in.
from .relattn import (RelPosEncoding, attention, layer_view, pffn,  # noqa: F401
                      row_extent, run_layer, transformer_layer)

POOL_OPS = ("mean", "max", "top_attn")


@dataclass
class PooledState:
    """Hidden states plus the bookkeeping that rides along through pooling."""

    hidden: Tensor    # [T, D] or [T, B, D]
    pos: np.ndarray   # absolute position ids, int64: [T], or [T, B] per column
    mask: np.ndarray  # True where the state is real (not padding): [T] or [T, B]


@dataclass
class EncoderState:
    """Per-block outputs of one encoder pass."""

    encoding: RelPosEncoding  # the pass's tables, reused by the decoder
    block_hidden: list[Tensor]
    block_mask: list[np.ndarray]

    @property
    def h_first(self) -> Tensor:
        """Full-length output of block 1 (the decoder's skip input)."""
        return self.block_hidden[0]

    @property
    def h_last(self) -> Tensor:
        return self.block_hidden[-1]


def top_attn_rows(mask: np.ndarray, prev_attn: np.ndarray | None, skip: int = 0) -> np.ndarray:
    """Rows kept by top-attention pooling among rows ``skip``.., [ceil(n/2)] or [ceil(n/2), B].

    ``mask`` is the full [t] or [t, B] mask, n = t - skip.  A key's score is
    the map as computed ([heads, q, k] or [B, heads, q, k], q, k <= t)
    summed over heads and real queries (a pad query's row depends on the
    ids at pad positions); keys past k score 0.  Exactly ceil(n/2) rows are
    kept per column, ties broken toward the lower index, in original order.
    The map must come from a same-length attention layer, so blocks need at
    least one standard layer after a pool-query-only transition.
    """
    if prev_attn is None:
        raise ContractError("top-attention pooling needs the previous layer's attention map")
    t = mask.shape[0]
    q, k = prev_attn.shape[-2:]
    if prev_attn.ndim != mask.ndim + 2 or prev_attn.shape[:-3] != mask.shape[1:] or max(q, k) > t:
        raise ContractError(f"attention map {prev_attn.shape} does not fit states {mask.shape}")
    scores = np.zeros(mask.shape[1:] + (t,), dtype=prev_attn.dtype)  # [*cols, t]
    scores[..., :k] = np.where(mask[:q].T[..., None, :, None], prev_attn, 0.0).sum(axis=(-3, -2))
    keep = (t - skip + 1) // 2
    # a stable sort of the negated scores puts ties in index order
    chosen = np.argsort(-scores[..., skip:], axis=-1, kind="stable")[..., :keep]
    return np.moveaxis(np.sort(chosen, axis=-1), -1, 0) + skip


def pool_step(state: PooledState, op: str, separate_cls: bool, truncate: bool,
              prev_attn: np.ndarray | None = None) -> PooledState:
    """One inter-block compression step: one row index, then one pooling op.

    Every op pools windows of two row indices (``autodiff.window_index``).
    Mean and max take them in order from the rows 0, 1, ..., t-1, or with
    ``separate_cls`` from 0, 0, 1, ..., t-1: the index-0 state shares a
    window only with itself and comes through unchanged (``(x + x) / 2 ==
    x``; max ties go to the first member), and so does an odd tail.
    Top-attention pairs row 0, then its choice among the rest, each with
    itself, one window per column, and pools them as max does.  A pooled
    state keeps its window's first position and is real iff any member is;
    an all-pad window pools to exactly 0.0.  The index stops at
    ``layout.pooled_length`` states: with ``separate_cls`` and ``truncate``
    it leaves out the final state of a power-of-two input.  Top-attention
    reads ``prev_attn`` as computed, [..., q, k] for q, k <= t, and never
    ranks a separate CLS (``top_attn_rows``' ``skip``).
    """
    if op not in POOL_OPS:
        raise ValueError(f"unknown pool op {op!r}")
    t = state.hidden.shape[0]
    if separate_cls and t <= 1:
        return state
    cls, n = int(separate_cls), pooled_length(t, separate_cls, truncate)
    hidden, pos, mask = state.hidden, np.asarray(state.pos), np.asarray(state.mask, dtype=bool)
    if op == "top_attn":
        chosen = top_attn_rows(mask, prev_attn, cls)  # after CLS; each pairs with itself
        windows = np.concatenate([np.zeros_like(chosen[:cls]), chosen])[:n, None].repeat(2, axis=1)
    else:  # rows 0, 0, 1, ... with separate CLS; a last window past row t - 1 repeats it
        windows = np.clip(np.arange(-cls, 2 * n - cls), 0, t - 1).reshape(-1, 2)
    idx = window_index(windows, mask)  # positions from first members: [T] ones skip columns
    pool = mean_pool_pairs if op == "mean" else max_pool_pairs
    return PooledState(pool(hidden, mask, windows), pos[(idx[0][:, 0],) + idx[1:pos.ndim]],
                       mask[idx].any(axis=1))


def block_transition_attention(pooled: PooledState, unpooled: PooledState, params,
                               config, enc: RelPosEncoding, rng=None,
                               extent: np.ndarray | None = None) -> tuple[Tensor, np.ndarray]:
    """First layer of a block: pooled queries, unpooled keys/values, then the FFN.

    The residual comes from the pooled sequence, so the output length is
    the pooled length.  With ``config.pool_query_only`` off the keys and
    values are the pooled sequence too: a standard layer over it alone.
    Like ``transformer_layer`` it runs on query rows up to ``extent`` only,
    by default each column's last real pooled row.
    """
    kv = unpooled if config.pool_query_only else pooled
    return run_layer(pooled.hidden, kv.hidden, pooled.pos, kv.pos, kv.mask,
                     row_extent(pooled.mask) if extent is None else extent,
                     params, config, enc, rng)


def encoder_forward(config, params, token_ids: np.ndarray,
                    pad_mask: np.ndarray | None = None, rng=None) -> EncoderState:
    """Run the full encoder: embedding lookup then per-block processing.

    ``token_ids`` is one sequence [T] or a time-major batch [T, B]; T must
    be a power of two when truncation is enabled, and every id must lie in
    [0, vocab_size): a negative id would wrap to the end of the embedding
    table.  ``pad_mask`` has the same shape, True at real positions.
    Returns every block's final hidden states (block 1 is kept for the
    decoder's skip connection), [T_m, D] or [T_m, B, D].

    Each layer runs up to each column's last real row only, and rows past
    it are exactly 0.0.  The final block is the exception: the decoder
    up-samples real position i from its row ``upsample_source(i, T_M, T)``,
    which can lie past the block's real rows: with truncation off, or on
    when it left out the window of the last real token.  Its extent is
    widened to cover that row, and the widened rows carry computed states.
    """
    token_ids = np.asarray(token_ids, dtype=np.int64)
    t = len(token_ids)
    if config.truncate_seq and not is_pow2(t):
        raise ContractError(f"sequence length {t} must be a power of two with truncation on")
    if token_ids.min() < 0 or token_ids.max() >= config.vocab_size:
        raise ContractError(f"token ids must lie in [0, {config.vocab_size}), got "
                            f"{token_ids.min()}..{token_ids.max()}")
    if pad_mask is None:
        pad_mask = np.ones(token_ids.shape, dtype=bool)
    pad_mask = np.asarray(pad_mask, dtype=bool)
    if pad_mask.shape != token_ids.shape:
        raise ContractError(f"pad mask {pad_mask.shape} does not match token ids {token_ids.shape}")
    enc: RelPosEncoding = config.encoding()
    real = row_extent(pad_mask)

    hidden = dropout(gather_rows(params["embed/token"], token_ids), config.dropout, rng)
    state = PooledState(hidden, np.arange(t, dtype=np.int64), pad_mask)

    kept, extent, attn = [], real, None  # kept: each finished block's final state
    for run in layer_plan(config.layout, t, config.separate_cls, config.truncate_seq,
                          config.pool_query_only):
        if run.kind == "decoder":
            break
        lp = layer_view(params, run.prefix)
        if run.kind == "transition":
            kept.append(state)
            pooled = pool_step(state, config.pool_op, config.separate_cls, config.truncate_seq,
                               prev_attn=attn)
            attn = None  # read: the block's last map is not held through the transition
            extent = row_extent(pooled.mask)
            if len(kept) == len(config.layout.blocks) - 1:  # final block: rows the decoder reads
                extent = np.maximum(extent, upsample_source(real - 1, len(pooled.mask), t) + 1)
            hidden, attn = block_transition_attention(pooled, state, lp, config, enc, rng, extent)
            state = PooledState(hidden, pooled.pos, pooled.mask)
        else:
            hidden, attn = transformer_layer(state.hidden, state.pos, state.mask, lp, config,
                                             enc, rng, extent)
            state = PooledState(hidden, state.pos, state.mask)
        if config.pool_op != "top_attn":  # no other op reads a map: drop it with its layer
            attn = None
    kept.append(state)
    return EncoderState(enc, [s.hidden for s in kept], [s.mask for s in kept])
