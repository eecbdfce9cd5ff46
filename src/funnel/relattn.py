"""Relative positional multi-head attention.

The pre-softmax score between query position i and key position j is

    A[i,j] = (q_i + v)' k_j  +  (q_i + u)' (W_R r_{i-j})

with q = x W_Q, k = x W_K, a sinusoidal encoding r of the signed distance
i-j, and trainable biases u (position) and v (content).  Three
interchangeable implementations of the position term are provided:

* ``naive``      -- materializes every r_{i-j}; the reference/oracle form.
* ``gather``     -- one projection of a 2L-1 distance table, then a
                    per-(i,j) gather (the classic shift trick).
* ``factorized`` -- the two outer products against position encodings
                    phi/psi/pi/omega derived from the angle-difference
                    identities, folded into one product; no gather at all.

All three accept arbitrary integer position ids so pooled queries can
attend to unpooled keys.  Scores are scaled by 1/sqrt(head_dim); applied
uniformly, the scaling does not affect cross-variant agreement.

Activations are time-major: [T, D] for one sequence or [T, B, D] for a
batch.  Attention splits the packed projections into heads with one
reshape, so every score term is a single broadcast matmul over
[B, H, Tq, Tk].  Positions are 1-D when every column shares them, or
[T, B] when they differ per column (after top-attention pooling).

A layer computes no row past the last real one.  Pad keys are masked, so
a row after a column's last real token never reaches a real output: every
layer, standard or transition, runs through ``run_layer`` on the first
max(extent) rows and the keys up to the last real one, where a column's
extent is one past its last real row (``row_extent``), and pads the
result back to full length.  Rows past each column's own extent come
back exactly 0.0, and so do their rows of the attention map, so a batch
still equals its sequences run one at a time.  With dropout on, fewer
elements draw masks than a full-length pass would draw.
"""

from __future__ import annotations

from dataclasses import make_dataclass

import numpy as np

from .autodiff import (NumericError, ShapeError, Tensor, add, dropout, einsum_id_ijd,
                       fit_rows, fold_products, gelu, layer_norm, matmul, permute, reshape,
                       softmax_lastdim, take_along_last, transpose)

VARIANTS = ("naive", "gather", "factorized")


class RelPosEncoding:
    """Sinusoidal distance encoding tables of width D (even).

    r_t = cat(sin_t, cos_t) where component i (1-based, i = 1..D/2) of
    sin_t is sin(t / 10000^(2i/D)) and likewise for cos_t.  phi/psi/pi/
    omega are the four per-position concatenations used by the factorized
    form:

        phi_i   = cat(sin_i,  cos_i)
        psi_j   = cat(cos_j,  cos_j)
        pi_i    = cat(-cos_i, sin_i)
        omega_j = cat(sin_j,  sin_j)

    psi and omega repeat their halves, so the factorized term folds each
    product's halves and keeps only the first halves of psi and omega,
    cat(cos_j, sin_j), on the key side (see ``position_term_factorized``).

    Positions may be any integer array; tables gain a trailing axis of
    width D.  Tables are memoised on the instance, keyed by the position
    array's dtype, shape and bytes; phi/psi/pi/omega are built together
    from one angle computation per distinct array.  The memo lives as
    long as the instance, which the encoder builds once per forward call
    and hands on to the decoder, so every head and layer of a model pass
    shares its tables and nothing outlives the pass.  Returned tables are
    read-only.
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

    def _memoised(self, kind: str, pos: np.ndarray, build):
        pos = np.asarray(pos)
        key = (kind, pos.dtype.str, pos.shape, pos.tobytes())
        value = self._memo.get(key)
        if value is None:
            value = self._memo[key] = build(pos)
        return value

    def _frozen(self, halves) -> np.ndarray:
        table = np.concatenate(halves, axis=-1).astype(self.dtype, copy=False)
        table.setflags(write=False)
        return table

    def encode(self, distances: np.ndarray) -> np.ndarray:
        """r_d rows for an array of signed distances: [..., D]."""
        def build(d):
            a = self._angles(d)
            return self._frozen([np.sin(a), np.cos(a)])
        return self._memoised("encode", distances, build)

    def _factors(self, pos: np.ndarray) -> tuple[np.ndarray, ...]:
        # all four from one angle computation: every position vector of a
        # pass serves as both queries and keys, so each table gets used
        def build(p):
            a = self._angles(p)
            s, c = np.sin(a), np.cos(a)
            return tuple(self._frozen(h) for h in ((s, c), (c, c), (-c, s), (s, s)))
        return self._memoised("factors", pos, build)

    def phi(self, pos: np.ndarray) -> np.ndarray:
        return self._factors(pos)[0]

    def psi(self, pos: np.ndarray) -> np.ndarray:
        return self._factors(pos)[1]

    def pi(self, pos: np.ndarray) -> np.ndarray:
        return self._factors(pos)[2]

    def omega(self, pos: np.ndarray) -> np.ndarray:
        return self._factors(pos)[3]


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
    qr = matmul(add(proj_q, u), transpose(w_r))              # [..., tq, D]
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
    qu = add(proj_q, u)
    full = matmul(qu, transpose(table_w))                    # [..., tq, 2L-1]
    return take_along_last(full, idx)


def position_term_factorized(proj_q: Tensor, q_pos: np.ndarray, k_pos: np.ndarray,
                             w_r: Tensor, u: Tensor, enc: RelPosEncoding) -> Tensor:
    """Gather-free form: [(q+u) w_r' (.) phi] psi' + [(q+u) w_r' (.) pi] omega', as one product.

    psi = cat(cos, cos) and omega = cat(sin, sin) repeat their halves, so
    each outer product's halves are folded first (``fold_products``):
    the query side becomes cat(fold(qr (.) phi), fold(qr (.) pi)), the
    query rotated by its position angle, and the key side cat(cos, sin),
    the first halves of psi and omega.  One [..., Tq, D] @ [..., D, Tk]
    product replaces two.
    """
    q_pos = np.asarray(q_pos, dtype=np.int64)
    k_pos = np.asarray(k_pos, dtype=np.int64)
    qu = add(proj_q, u)
    qr = matmul(qu, transpose(w_r))                          # [..., tq, D]
    rotated = fold_products(qr, _by_column(enc.phi(q_pos), q_pos),
                            _by_column(enc.pi(q_pos), q_pos))
    h = enc.width // 2
    # cat(cos, sin)', laid out contiguously as [..., D, tk] for the product
    keys = np.concatenate([np.swapaxes(_by_column(t, k_pos)[..., :h], -1, -2)
                           for t in (enc.psi(k_pos), enc.omega(k_pos))], axis=-2)
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


def attention(q_in: Tensor, kv_in: Tensor, q_pos: np.ndarray, k_pos: np.ndarray,
              key_mask: np.ndarray, params: LayerParams, config, enc: RelPosEncoding,
              rng=None) -> tuple[Tensor, np.ndarray]:
    """One post-norm relative-attention sub-layer.

    ``q_in`` is [Tq, D] or time-major [Tq, B, D]; ``kv_in`` and
    ``key_mask`` ([Tk] or [Tk, B], True at real keys) match it.  ``config``
    supplies ``heads``, ``attn_variant``, ``attn_dropout`` and ``dropout``.
    Per head: scores = (content + position) / sqrt(head_dim), masked keys
    forced to -inf before the softmax.  Head outputs are merged, projected
    by w_o, added to the residual ``q_in`` and layer normed.  Returns the
    new hidden states and the attention map (detached; used by
    top-attention pooling): [heads, Tq, Tk] for one sequence,
    [B, heads, Tq, Tk] for a batch.
    """
    n_heads, d = config.heads, q_in.shape[-1]
    dh = d // n_heads
    scale = 1.0 / np.sqrt(dh)
    key_mask = np.asarray(key_mask, dtype=bool)
    if not key_mask.any(axis=0).all():
        raise NumericError("attention with every key masked")

    # [T, *cols, D] -> [T, *cols, H, dh] -> [*cols, H, T, dh] (keys: [*cols, H, dh, T])
    n = q_in.data.ndim
    to_heads = tuple(range(1, n)) + (0, n)
    to_keys = tuple(range(1, n)) + (n, 0)

    def heads(x, w, b, axes):
        y = matmul(x, w, b)
        return permute(reshape(y, y.shape[:-1] + (n_heads, dh)), axes)

    q = heads(q_in, params.w_q, params.b_q, to_heads)
    k_t = heads(kv_in, params.w_k, params.b_k, to_keys)
    val = heads(kv_in, params.w_v, params.b_v, to_heads)
    bias_shape = (n_heads, 1, dh)
    w_r_heads = permute(reshape(params.w_r, (d, n_heads, dh)), (1, 0, 2))  # [H, D, dh]

    content = matmul(add(q, reshape(params.v, bias_shape)), k_t)
    position = _POSITION_TERMS[config.attn_variant](q, q_pos, k_pos, w_r_heads,
                                                    reshape(params.u, bias_shape), enc)
    weights = softmax_lastdim(add(content, position), scale,
                              np.moveaxis(key_mask, 0, -1)[..., None, None, :])
    maps = weights.data
    weights = dropout(weights, config.attn_dropout, rng)
    merged = reshape(permute(matmul(weights, val), np.argsort(to_heads)), q_in.shape)
    out = dropout(matmul(merged, params.w_o, params.b_o), config.dropout, rng)
    hidden = layer_norm(q_in, params.ln_attn_g, params.ln_attn_b, residual=out)
    return hidden, maps


def pffn(x: Tensor, params: LayerParams, config, rng=None) -> Tensor:
    """Position-wise FFN with GeLU, wrapped in residual + layer norm."""
    inner = gelu(matmul(x, params.w_ffn1, params.b_ffn1))
    out = dropout(matmul(inner, params.w_ffn2, params.b_ffn2), config.dropout, rng)
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
    states and attention map come back at full length ([Tq, ...] and
    [..., Tq, Tk]), exactly 0.0 past each column's extent.  With every row
    real, ``fit_rows`` returns its inputs and only the map is copied.
    """
    key_mask = np.asarray(key_mask, dtype=bool)
    extent = np.asarray(extent)
    tq, tk = q_in.shape[0], kv_in.shape[0]
    n, nk = int(extent.max()), int(row_extent(key_mask).max())
    q = fit_rows(q_in, n)
    kv = q if kv_in is q_in and nk == n else fit_rows(kv_in, nk)
    hidden, maps = attention(q, kv, np.asarray(q_pos)[:n], np.asarray(k_pos)[:nk],
                             key_mask[:nk], params, config, enc, rng)
    hidden = pffn(hidden, params, config, rng)
    keep = np.arange(tq).reshape((tq,) + (1,) * extent.ndim) < extent  # [Tq] or [Tq, B]
    full = np.zeros(maps.shape[:-2] + (tq, tk), dtype=maps.dtype)
    np.copyto(full[..., :n, :nk], maps, where=np.moveaxis(keep[:n], 0, -1)[..., None, :, None])
    return fit_rows(hidden, tq, keep), full


def transformer_layer(x: Tensor, pos: np.ndarray, key_mask: np.ndarray, params: LayerParams,
                      config, enc: RelPosEncoding, rng=None,
                      extent: np.ndarray | None = None) -> tuple[Tensor, np.ndarray]:
    """Self-attention over ``x`` (``run_layer``), by default up to each column's last real row."""
    extent = row_extent(key_mask) if extent is None else extent
    return run_layer(x, x, pos, pos, key_mask, extent, params, config, enc, rng)
