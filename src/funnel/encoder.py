"""Compressing encoder: blocks of transformer layers with inter-block pooling.

Block 1 runs full-length layers.  Every later block starts by pooling the
previous block's output (window 2, stride 2) and then attends with the
pooled sequence as queries against the unpooled sequence as keys/values
(pool-query-only attention), after which standard layers continue at the
reduced length.

The classification token at index 0 can be kept out of the other
tokens' pooling windows (``separate_cls``): pooling reads it twice, so it
shares a window only with itself.  To keep lengths at powers of two
afterwards, the same row index leaves out the final pooled state
(``truncate_seq``).  Pooled states keep the position id of the first
token of their window so relative distances against unpooled keys stay
meaningful.

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

from dataclasses import dataclass, field

import numpy as np

from .autodiff import (ContractError, Tensor, dropout, gather_rows, max_pool_pairs,
                       mean_pool_pairs, reshape)
from .decoder import upsample_source
# attention and pffn stay bound here though only relattn calls them: the
# benchmark's tracer wraps encoder.attention and encoder.pffn by name.  Tests
# swap encoder.row_extent, like relattn's, for a full-length stand-in.
from .relattn import (RelPosEncoding, attention, pffn, row_extent,  # noqa: F401
                      run_layer, transformer_layer)

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
    block_hidden: list[Tensor] = field(default_factory=list)
    block_pos: list[np.ndarray] = field(default_factory=list)
    block_mask: list[np.ndarray] = field(default_factory=list)
    last_attn: np.ndarray | None = None  # attention map of the final layer run

    @property
    def h_first(self) -> Tensor:
        """Full-length output of block 1 (the decoder's skip input)."""
        return self.block_hidden[0]

    @property
    def h_last(self) -> Tensor:
        return self.block_hidden[-1]


def pool_pair(h: Tensor, pos: np.ndarray, mask: np.ndarray, op: str
              ) -> tuple[Tensor, np.ndarray, np.ndarray]:
    """Window-2 stride-2 pooling of states, positions and mask.

    An odd tail forms a singleton window.  The pooled position is the
    first position of the window; the pooled mask is True iff any member
    is real; mean pooling averages only real members (an all-pad window
    stays pad with value 0).
    """
    if op not in ("mean", "max"):
        raise ValueError(f"pool_pair op must be mean or max, got {op!r}")
    pooled = mean_pool_pairs(h, mask) if op == "mean" else max_pool_pairs(h, mask)
    mask = np.asarray(mask, dtype=bool)
    new_mask = mask[0::2].copy()
    new_mask[:len(mask) // 2] |= mask[1::2]
    return pooled, np.asarray(pos)[0::2].copy(), new_mask


def _column_pos(pos: np.ndarray, mask: np.ndarray) -> np.ndarray:
    """Positions broadcast to the mask's shape: one position id per state and column."""
    pos = np.asarray(pos)
    return np.broadcast_to(pos.reshape(pos.shape + (1,) * (mask.ndim - pos.ndim)), mask.shape)


def top_attn_rows(mask: np.ndarray, prev_attn: np.ndarray | None) -> np.ndarray:
    """Rows kept by top-attention pooling, [ceil(n/2)] or [ceil(n/2), B] like the mask.

    Per-key score = attention map summed over heads and queries.  Exactly
    ceil(n/2) rows are kept per column, ties broken toward the lower index,
    in original order.  The map ([heads, Tq, n], or [B, heads, Tq, n] for a
    batch) must come from a same-length attention layer, so blocks need at
    least one standard layer after a pool-query-only transition.
    """
    if prev_attn is None:
        raise ContractError("top-attention pooling needs the previous layer's attention map")
    n = mask.shape[0]
    scores = prev_attn.sum(axis=(-3, -2))                    # [*cols, n]
    if scores.shape != mask.shape[1:] + (n,):
        raise ContractError(f"attention map keys ({scores.shape}) do not match states ({n})")
    keep = (n + 1) // 2
    # a stable sort of the negated scores puts ties in index order
    chosen = np.sort(np.argsort(-scores, axis=-1, kind="stable")[..., :keep], axis=-1)
    return np.moveaxis(chosen, -1, 0)


def gather_column_rows(h: Tensor, pos: np.ndarray, mask: np.ndarray, rows: np.ndarray
                       ) -> tuple[Tensor, np.ndarray, np.ndarray]:
    """States, positions and mask at ``rows``, which has the mask's shape: one gather.

    A batch [n, B, D] is gathered from its [n*B, D] rows, so each column
    keeps its own states; positions come back with the mask's shape.
    """
    cols = mask[0].size
    flat = h if mask.ndim == 1 else reshape(h, (mask.size,) + h.shape[2:])
    return (gather_rows(flat, rows * cols + np.arange(cols)),
            np.take_along_axis(_column_pos(pos, mask), rows, axis=0),
            np.take_along_axis(mask, rows, axis=0))


def pool_top_attn(h: Tensor, pos: np.ndarray, mask: np.ndarray,
                  prev_attn: np.ndarray | None) -> tuple[Tensor, np.ndarray, np.ndarray]:
    """Keep the half of the states that drew the most attention (``top_attn_rows``).

    ``h`` is [n, D] with a [heads, Tq, n] map, or [n, B, D] with a
    [B, heads, Tq, n] map; survivors keep their position ids.
    """
    mask = np.asarray(mask, dtype=bool)
    return gather_column_rows(h, pos, mask, top_attn_rows(mask, prev_attn))


def pool_step(state: PooledState, op: str, separate_cls: bool, truncate: bool,
              prev_attn: np.ndarray | None = None) -> PooledState:
    """One inter-block compression step: one row index, then one pooling op.

    With ``separate_cls`` mean and max pool the rows [0, 0, 1, 2, ...]: the
    index-0 state shares a window only with itself and comes through
    unchanged (``(x + x) / 2 == x``; max ties go to the first member), so a
    pad index 0 pools to zero like any all-pad window.  Top-attention keeps
    row 0 ahead of its choice among the rest.  The result then has one state
    too many for a power-of-two input, so with ``truncate`` the index leaves
    out the final pooled state's rows.  Without ``separate_cls`` the whole
    sequence is pooled stride-2 (already a power of two; no drop).
    Top-attention scores count only real queries: a pad query's attention
    row depends on the ids at pad positions.
    """
    if op not in POOL_OPS:
        raise ValueError(f"unknown pool op {op!r}")
    t = state.hidden.shape[0]
    if separate_cls and t <= 1:
        return state
    cls = int(separate_cls)
    drop = int(separate_cls and truncate and _is_pow2(t))
    hidden, pos, mask = state.hidden, np.asarray(state.pos), np.asarray(state.mask, dtype=bool)
    if op == "top_attn":
        if prev_attn is not None:
            prev_attn = (prev_attn * np.moveaxis(mask, 0, -1)[..., None, :, None])[..., cls:]
        chosen = top_attn_rows(mask[cls:], prev_attn) + cls
        rows = np.concatenate([np.zeros_like(chosen[:cls]), chosen])
        return PooledState(*gather_column_rows(hidden, pos, mask, rows[:len(rows) - drop]))
    if separate_cls:
        rows = np.maximum(np.arange(-1, t - drop), 0)
        hidden, pos, mask = gather_rows(hidden, rows), pos[rows], mask[rows]
    return PooledState(*pool_pair(hidden, pos, mask, op))


def _is_pow2(n: int) -> bool:
    return n >= 1 and (n & (n - 1)) == 0


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
    be a power of two when truncation is enabled.  ``pad_mask`` has the
    same shape, True at real positions.  Returns every block's final
    hidden states (block 1 is kept for the decoder's skip connection),
    [T_m, D] or [T_m, B, D].

    Each layer runs up to each column's last real row only, and rows past
    it are exactly 0.0.  The final block is the exception: the decoder
    up-samples real position i from its row ``upsample_source(i, T_M, T)``,
    which can lie past the block's real rows when truncation is off.  Its
    extent is widened to cover that row, and the widened rows carry
    computed states.
    """
    token_ids = np.asarray(token_ids, dtype=np.int64)
    t = len(token_ids)
    if config.truncate_seq and not _is_pow2(t):
        raise ContractError(f"sequence length {t} must be a power of two with truncation on")
    if pad_mask is None:
        pad_mask = np.ones(token_ids.shape, dtype=bool)
    pad_mask = np.asarray(pad_mask, dtype=bool)
    if pad_mask.shape != token_ids.shape:
        raise ContractError(f"pad mask {pad_mask.shape} does not match token ids {token_ids.shape}")
    enc: RelPosEncoding = config.encoding()
    real = row_extent(pad_mask)

    hidden = dropout(gather_rows(params["embed/token"], token_ids), config.dropout, rng)
    state = PooledState(hidden, np.arange(t, dtype=np.int64), pad_mask)

    out = EncoderState(encoding=enc)
    last_attn = None
    blocks = config.layout.blocks
    for m, block in enumerate(blocks):
        pooled = state if m == 0 else pool_step(state, config.pool_op, config.separate_cls,
                                                config.truncate_seq, prev_attn=last_attn)
        extent = row_extent(pooled.mask)
        if m == len(blocks) - 1:  # cover the rows the decoder up-samples real positions from
            extent = np.maximum(extent, upsample_source(real - 1, len(pooled.mask), t) + 1)
        if m > 0:
            lp = config.layer_params(params, m, 0)
            hidden, last_attn = block_transition_attention(pooled, state, lp, config, enc, rng,
                                                           extent)
            state = PooledState(hidden, pooled.pos, pooled.mask)
        for t_idx in range(int(m > 0), block.total_layers):
            lp = config.layer_params(params, m, t_idx)
            hidden, last_attn = transformer_layer(state.hidden, state.pos, state.mask, lp,
                                                  config, enc, rng, extent)
            state = PooledState(hidden, state.pos, state.mask)
        out.block_hidden.append(state.hidden)
        out.block_pos.append(state.pos)
        out.block_mask.append(state.mask)
    out.last_attn = last_attn
    return out
