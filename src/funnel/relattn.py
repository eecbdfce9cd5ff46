"""Relative positional multi-head attention.

The pre-softmax score between query position i and key position j is

    A[i,j] = (q_i + v)' k_j  +  (q_i + u)' (W_R r_{i-j})

with q = x W_Q, k = x W_K, a sinusoidal encoding r of the signed distance
i-j, and trainable biases u (position) and v (content).  The content
product adds the position term in place: the sum is no node of its own.
Each bias shifts the query inside the product that reads it (``matmul``'s
``left``), so a sub-layer keeps its query once, not two biased copies.
Three interchangeable implementations of the position term are provided:

* ``naive``      -- materializes every r_{i-j}; the reference/oracle form.
* ``gather``     -- one projection of a 2L-1 distance table, then a
                    per-(i,j) gather (the classic shift trick).
* ``factorized`` -- the two outer products against position encodings
                    phi/psi/pi/omega derived from the angle-difference
                    identities, run as one product of rotated queries
                    and key encodings; no gather at all.

All three accept arbitrary integer position ids so pooled queries can
attend to unpooled keys.  Scores are scaled by 1/sqrt(head_dim); applied
uniformly, the scaling does not affect cross-variant agreement.

Activations are time-major: [T, D] for one sequence or [T, B, D] for a
batch.  Attention splits each projection into heads in one node and merges
them back in one, so every score term is one broadcast matmul over
[B, H, Tq, Tk].  Positions are 1-D when every column shares them, or
[T, B] when they differ per column (after top-attention pooling).

A layer computes no row past the last real one.  Pad keys are masked, so
a row after a column's last real token never reaches a real output: every
layer, standard or transition, runs through ``run_layer`` on the first
max(extent) rows and the keys up to the last real one, where a column's
extent is one past its last real row (``row_extent``), and pads the
result back to full length.  Rows past each column's own extent come
back exactly 0.0, so a batch still equals its sequences run one at a
time.  With dropout on, fewer elements draw masks than a full-length pass
would draw.
"""

from __future__ import annotations

from dataclasses import make_dataclass

import numpy as np

from .autodiff import (NumericError, ShapeError, Tensor, dropout, einsum_id_ijd,
                       fit_rows, gelu, layer_norm, matmul, merge_heads, reshape, rotate,
                       softmax_lastdim, split_heads, take_along_last, transpose)

VARIANTS = ("naive", "gather", "factorized")


class RelPosEncoding:
    """Sinusoidal encoding tables of width D (even), one kind for distances and positions.

    ``encode(t)`` = r_t = cat(sin_t, cos_t), where component i (1-based,
    i = 1..D/2) of sin_t is sin(t / 10000^(2i/D)) and likewise for cos_t.
    The paper's factorized form splits r_{i-j} into four per-position
    tables, all made of r's halves:

        phi_i   = cat(sin_i,  cos_i) = r_i
        psi_j   = cat(cos_j,  cos_j)
        pi_i    = cat(-cos_i, sin_i)
        omega_j = cat(sin_j,  sin_j)

    psi and omega repeat their halves, so the factorized term rotates the
    query by r_i (``autodiff.rotate``) and takes cat(cos_j, sin_j) from
    r_j's halves on the key side (see ``position_term_factorized``); it
    reads ``encode`` only.  ``psi``, ``pi`` and ``omega`` keep the
    definitions for reference.

    Positions may be any integer array; tables gain a trailing axis of
    width D.  ``encode`` tables are memoised on the instance, keyed by the
    position array's dtype, shape and bytes, so each distinct array's
    angles are computed once; ``psi``, ``pi`` and ``omega`` are built from
    them on each call.  The memo lives as long as the instance, which the
    encoder builds once per forward call and hands on to the decoder, so
    every head and layer of a model pass shares its tables and nothing
    outlives the pass.  Returned tables are read-only.
    """

    def __init__(self, width: int, dtype=np.float64):
        if width % 2 != 0 or width < 2:
            raise ShapeError(f"encoding width must be even and >= 2, got {width}")
        self.width = width
        self.dtype = np.dtype(dtype)
        i = np.arange(1, width // 2 + 1, dtype=np.float64)
        self.inv_freq = 10000.0 ** (-2.0 * i / width)
        self._memo: dict = {}

    def _angles(self, t: np.ndarray) -> np.ndarray:
        # angles in f64 regardless of output dtype: positions can be large
        return np.asarray(t, dtype=np.float64)[..., None] * self.inv_freq

    def _frozen(self, halves) -> np.ndarray:
        table = np.concatenate(halves, axis=-1).astype(self.dtype, copy=False)
        table.setflags(write=False)
        return table

    def encode(self, t: np.ndarray) -> np.ndarray:
        """r_t rows for an array of signed distances or positions: [..., D], memoised."""
        t = np.asarray(t)
        key = (t.dtype.str, t.shape, t.tobytes())
        table = self._memo.get(key)
        if table is None:
            a = self._angles(t)
            table = self._memo[key] = self._frozen([np.sin(a), np.cos(a)])
        return table

    def _halves(self, pos: np.ndarray, pick) -> np.ndarray:
        r, h = self.encode(pos), self.width // 2
        return self._frozen(pick(r[..., :h], r[..., h:]))

    def phi(self, pos: np.ndarray) -> np.ndarray:
        return self.encode(pos)

    def psi(self, pos: np.ndarray) -> np.ndarray:
        return self._halves(pos, lambda s, c: (c, c))

    def pi(self, pos: np.ndarray) -> np.ndarray:
        return self._halves(pos, lambda s, c: (-c, s))

    def omega(self, pos: np.ndarray) -> np.ndarray:
        return self._halves(pos, lambda s, c: (s, s))


def _by_column(a: np.ndarray, pos: np.ndarray) -> np.ndarray:
    """Lay out per-position data [T, ...] so it broadcasts against [..., H, T, ...].

    Shared 1-D positions pass through.  Per-column positions [T, B] move
    the column axis first and gain a head axis: [B, 1, T, ...].
    """
    if np.ndim(pos) == 1:
        return a
    return np.moveaxis(a, 1, 0)[:, None]


def position_term_naive(proj_q: Tensor, q_pos: np.ndarray, k_pos: np.ndarray,
                        w_r: Tensor, u: Tensor, enc: RelPosEncoding) -> Tensor:
    """Reference form: scores[i,j] = (proj_q[i] + u)' (w_r' r_{q_pos[i]-k_pos[j]}).

    Every distance encoding is materialized explicitly, one per (i, j)
    pair, as rows picked from the memoised ascending table (the array is
    transient); this is the oracle the cheaper forms are tested against.
    The query is mapped into the encoding space first, (w_r (q + u))' r,
    so the pairs enter through one inner product each.

    ``proj_q`` is [..., Tq, dh] with ``w_r`` [..., D, dh] and ``u``
    broadcasting against it: [Tq, dh] with [D, dh] and [dh] for one head,
    or [B, H, Tq, dh] with [H, D, dh] and [H, 1, dh] for a batch of heads.
    Every variant takes the same shapes and returns [..., Tq, Tk].
    """
    idx, span = gather_index_matrix(q_pos, k_pos)
    table = enc.encode(np.arange(-span, span + 1))           # the gather form's table
    qr = matmul(proj_q, transpose(w_r), left=u)              # [..., tq, D]
    return einsum_id_ijd(qr, table[idx])                     # r: [..., tq, tk, D]


def gather_index_matrix(q_pos: np.ndarray, k_pos: np.ndarray) -> tuple[np.ndarray, int]:
    """Index matrix into the ascending distance table, plus the table half-span.

    The table rows run r_{-(L-1)} .. r_{L-1}; entry [i,j] points at
    r_{q_pos[i]-k_pos[j]}.  For stride-1 positions, consecutive row
    entries differ by exactly 1 (idx[i,j] - idx[i,j+1] == 1): the shift
    structure.  Per-column positions [T, B] give a [B, 1, Tq, Tk] matrix.
    """
    q_pos = np.asarray(q_pos, dtype=np.int64)
    k_pos = np.asarray(k_pos, dtype=np.int64)
    dist = _by_column(q_pos, q_pos)[..., :, None] - _by_column(k_pos, k_pos)[..., None, :]
    span = int(np.abs(dist).max()) if dist.size else 0
    return dist + span, span


def position_term_gather(proj_q: Tensor, q_pos: np.ndarray, k_pos: np.ndarray,
                         w_r: Tensor, u: Tensor, enc: RelPosEncoding) -> Tensor:
    """Shift-trick form: project a 2L-1 distance table once, then gather."""
    idx, span = gather_index_matrix(q_pos, k_pos)
    table = Tensor(enc.encode(np.arange(-span, span + 1)))  # ascending distances
    table_w = matmul(table, w_r)                             # [..., 2L-1, dh]
    full = matmul(proj_q, transpose(table_w), left=u)        # [..., tq, 2L-1]
    return take_along_last(full, idx)


def position_term_factorized(proj_q: Tensor, q_pos: np.ndarray, k_pos: np.ndarray,
                             w_r: Tensor, u: Tensor, enc: RelPosEncoding) -> Tensor:
    """Gather-free form: [(q+u) w_r' (.) phi] psi' + [(q+u) w_r' (.) pi] omega', as one product.

    psi = cat(cos, cos) and omega = cat(sin, sin) repeat their halves, so
    each outer product's halves fold into one: the query side becomes
    cat(fold(qr (.) phi), fold(qr (.) pi)), the query rotated by its
    position angle (``rotate`` by r_i), and the key side cat(cos, sin),
    the halves of r_j swapped.  One [..., Tq, D] @ [..., D, Tk] product
    replaces two.
    """
    q_pos = np.asarray(q_pos, dtype=np.int64)
    k_pos = np.asarray(k_pos, dtype=np.int64)
    qr = matmul(proj_q, transpose(w_r), left=u)              # [..., tq, D]
    rotated = rotate(qr, _by_column(enc.encode(q_pos), q_pos))
    r_k, h = _by_column(enc.encode(k_pos), k_pos), enc.width // 2
    # cat(cos, sin)', laid out contiguously as [..., D, tk] for the product
    keys = np.concatenate([np.swapaxes(half, -1, -2) for half in (r_k[..., h:], r_k[..., :h])],
                          axis=-2)
    return matmul(rotated, Tensor(keys))


_POSITION_TERMS = {
    "naive": position_term_naive,
    "gather": position_term_gather,
    "factorized": position_term_factorized,
}


def variant_deviation(proj_q: Tensor, q_pos: np.ndarray, k_pos: np.ndarray,
                      w_r: Tensor, u: Tensor, enc: RelPosEncoding) -> float:
    """Largest |gather - naive| and |factorized - naive| over one case's scores."""
    ref = position_term_naive(proj_q, q_pos, k_pos, w_r, u, enc).data
    return max(float(np.abs(fn(proj_q, q_pos, k_pos, w_r, u, enc).data - ref).max())
               for fn in (position_term_gather, position_term_factorized))


# One row per tensor of a layer: (LayerParams attribute, name under the
# layer prefix, dims, init).  Dims name the hidden size "d" or the FFN width
# "inner"; row order is draw order (``model.param_specs``).  Projections are
# packed [D, D], head h owning columns h*dh..(h+1)*dh; u and v are the packed
# per-head position and content biases.
LAYER_TENSORS = (
    ("w_q", "attn/w_q", ("d", "d"), "normal"), ("b_q", "attn/b_q", ("d",), "zeros"),
    ("w_k", "attn/w_k", ("d", "d"), "normal"), ("b_k", "attn/b_k", ("d",), "zeros"),
    ("w_v", "attn/w_v", ("d", "d"), "normal"), ("b_v", "attn/b_v", ("d",), "zeros"),
    ("w_o", "attn/w_o", ("d", "d"), "normal"), ("b_o", "attn/b_o", ("d",), "zeros"),
    ("u", "attn/u", ("d",), "normal"), ("v", "attn/v", ("d",), "normal"),
    ("ln_attn_g", "attn/ln_g", ("d",), "ones"), ("ln_attn_b", "attn/ln_b", ("d",), "zeros"),
    ("w_ffn1", "ffn/w1", ("d", "inner"), "normal"), ("b_ffn1", "ffn/b1", ("inner",), "zeros"),
    ("w_ffn2", "ffn/w2", ("inner", "d"), "normal"), ("b_ffn2", "ffn/b2", ("d",), "zeros"),
    ("ln_ffn_g", "ffn/ln_g", ("d",), "ones"), ("ln_ffn_b", "ffn/ln_b", ("d",), "zeros"),
)

LayerParams = make_dataclass(
    "LayerParams", [(attr, Tensor) for attr, *_ in LAYER_TENSORS] + [("w_r", Tensor)],
    namespace={"__module__": __name__, "__doc__": "One layer's parameters: a ``LAYER_TENSORS`` "
               "row each, plus ``w_r``, the encoding projection every layer shares."})


def layer_view(params: dict, prefix: str) -> LayerParams:
    """The layer whose tensors are named ``<prefix>/<key>`` in the flat ``params`` tree."""
    return LayerParams(**{attr: params[f"{prefix}/{key}"] for attr, key, _, _ in LAYER_TENSORS},
                       w_r=params["rel/w_r"])


def attention(q_in: Tensor, kv_in: Tensor, q_pos: np.ndarray, k_pos: np.ndarray,
              key_mask: np.ndarray, params: LayerParams, config, enc: RelPosEncoding,
              rng=None) -> tuple[Tensor, np.ndarray]:
    """One post-norm relative-attention sub-layer.

    ``q_in`` is [Tq, D] or time-major [Tq, B, D]; ``kv_in`` and
    ``key_mask`` ([Tk] or [Tk, B], True at real keys) match it.  ``config``
    supplies ``heads``, ``attn_variant``, ``attn_dropout`` and ``dropout``.
    Per head: scores = (content + position) / sqrt(head_dim), masked keys
    forced to -inf before the softmax; the content product shifts the
    query by v and adds the position term as its bias, so neither the
    biased query nor the sum is a node of its own.  Head
    outputs are merged, projected by w_o, added to the residual ``q_in``
    and layer normed.  Returns the new hidden states and the attention map
    over the queries and keys given (detached; used by top-attention
    pooling): [heads, Tq, Tk] for one sequence, [B, heads, Tq, Tk] for a batch.
    """
    n_heads, dh = config.heads, q_in.shape[-1] // config.heads
    scale = 1.0 / np.sqrt(dh)
    key_mask = np.asarray(key_mask, dtype=bool)
    if not key_mask.any(axis=0).all():
        raise NumericError("attention with every key masked")

    q = split_heads(matmul(q_in, params.w_q, params.b_q), n_heads)             # [*cols, H, T, dh]
    k_t = split_heads(matmul(kv_in, params.w_k, params.b_k), n_heads, keys=True)
    val = split_heads(matmul(kv_in, params.w_v, params.b_v), n_heads)

    position = _POSITION_TERMS[config.attn_variant](  # w_r's head view: [H, D, dh]
        q, q_pos, k_pos, split_heads(params.w_r, n_heads), reshape(params.u, (n_heads, 1, dh)), enc)
    scores = matmul(q, k_t, position, left=reshape(params.v, (n_heads, 1, dh)))
    weights = softmax_lastdim(scores, scale, key_mask.T[..., None, None, :])
    maps = weights.data
    weights = dropout(weights, config.attn_dropout, rng)
    merged = merge_heads(matmul(weights, val))
    out = dropout(matmul(merged, params.w_o, params.b_o), config.dropout, rng)
    hidden = layer_norm(q_in, params.ln_attn_g, params.ln_attn_b, residual=out)
    return hidden, maps


def pffn(x: Tensor, params: LayerParams, config, rng=None) -> Tensor:
    """Position-wise FFN, wrapped in residual + layer norm; both products and GeLU are one node."""
    out = gelu(x, params.w_ffn2, params.b_ffn2, w_in=params.w_ffn1, b_in=params.b_ffn1)
    out = dropout(out, config.dropout, rng)
    return layer_norm(x, params.ln_ffn_g, params.ln_ffn_b, residual=out)


def row_extent(mask: np.ndarray) -> np.ndarray:
    """One past the last real row of each column of a [T] or [T, B] mask: [] or [B] ints."""
    mask = np.asarray(mask, dtype=bool)
    last = mask.shape[0] - np.argmax(mask[::-1], axis=0)
    return np.where(mask.any(axis=0), last, 0)


def run_layer(q_in: Tensor, kv_in: Tensor, q_pos: np.ndarray, k_pos: np.ndarray,
              key_mask: np.ndarray, extent: np.ndarray, params: LayerParams, config,
              enc: RelPosEncoding, rng=None) -> tuple[Tensor, np.ndarray]:
    """``attention`` then ``pffn`` on the first max(``extent``) queries and the real keys.

    ``extent`` holds one query row count per column ([] or [B]).  Hidden
    states come back at full length, exactly 0.0 past each column's extent,
    and the attention map as computed, [..., n, nk] for the n queries and
    the nk keys up to the last real one.  With every row real, nothing is copied.
    """
    key_mask = np.asarray(key_mask, dtype=bool)
    extent = np.asarray(extent)
    tq = q_in.shape[0]
    n, nk = int(extent.max()), int(row_extent(key_mask).max())
    q = fit_rows(q_in, n)
    kv = q if kv_in is q_in and nk == n else fit_rows(kv_in, nk)
    hidden, maps = attention(q, kv, np.asarray(q_pos)[:n], np.asarray(k_pos)[:nk],
                             key_mask[:nk], params, config, enc, rng)
    hidden = pffn(hidden, params, config, rng)
    keep = np.arange(tq).reshape((tq,) + (1,) * extent.ndim) < extent  # [Tq] or [Tq, B]
    return fit_rows(hidden, tq, keep), maps


def transformer_layer(x: Tensor, pos: np.ndarray, key_mask: np.ndarray, params: LayerParams,
                      config, enc: RelPosEncoding, rng=None,
                      extent: np.ndarray | None = None) -> tuple[Tensor, np.ndarray]:
    """Self-attention over ``x`` (``run_layer``), by default up to each column's last real row,
    where its map is [..., n, n] for n one past the last real row of any column."""
    extent = row_extent(key_mask) if extent is None else extent
    return run_layer(x, x, pos, pos, key_mask, extent, params, config, enc, rng)
