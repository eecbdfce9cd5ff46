"""Minimal dense tensor engine with a reverse-mode gradient tape.

Tensors wrap numpy arrays (f32 or f64, rank <= 4) and are treated as
immutable values once created.  Parameters are the one exception: the
optimizer (``training.AdamW``) updates their buffers in place after a
step's walks, never while a tape records or walks.  While a Tape is
active, every operation appends a node holding a backward closure;
``Tape.backward`` walks the node list in reverse, which is a valid
reverse topological order because inputs are always recorded before the
ops that consume them.

The tape holds keys, not tensors: a node names its output and inputs by
``Tensor.key``, and each pull-back keeps only the arrays it reads, so an
intermediate array no pull-back reads is freed during the forward pass
once the caller drops it.  The walk frees as it goes: a node's output
gradient is final when the walk reaches it (every consumer comes later
on the tape), so once its pull-back has run the gradient is dropped and
the node lets go of its pull-back.  A leaf's gradient is final once the
earliest node reading it has run; given a sink, ``backward`` hands it
over then (``training.AdamW.fold`` folds it into the moments).  After
``backward`` only the leaf gradients not handed over remain, and the
tape cannot be walked a second time.

The engine implements exactly the operations the funnel model needs:
matmul, elementwise arithmetic, softmax, layer norm, GeLU, gathers, axis
moves (reshape, transpose and the attention head split and merge, one
node kind), row cuts and zero-padding, pooling over windows of two row
indices, fused losses and the factorized position term's rotation.
Binary ops and matmul broadcast as numpy does; their backward sums over
the broadcast axes.
Some nodes fold a neighbour's work into their own pass: matmul adds a
bias, softmax applies the attention scale and key mask, layer norm
adds the residual, and ``gelu(x, w, bias)`` the product that reads
GeLU's output.  That node keeps ``x`` only and reruns GeLU in its
pull-back, so each feed-forward sub-layer keeps one inner activation,
not three; GeLU walks 256 KiB blocks, so its scratch stays in cache.
"""

from __future__ import annotations

import itertools
import math
from typing import Callable, Sequence

import numpy as np

DTYPES = {"f32": np.float32, "f64": np.float64}
MAX_RANK = 4

# tanh-approximation GeLU constants: gelu(x) = 0.5x(1 + tanh(c*(x + a*x^3)))
GELU_C = math.sqrt(2.0 / math.pi)
GELU_A = 0.044715
GELU_BLOCK = 1 << 18  # bytes: GeLU's kernel walks its input in blocks of this size

_KEYS = itertools.count()


class ShapeError(ValueError):
    """Raised when operand shapes do not satisfy an op's contract."""


class NumericError(ArithmeticError):
    """Raised on non-finite inputs where the contract requires finite ones."""


class ContractError(RuntimeError):
    """Raised when a documented precondition is violated."""


class Tensor:
    """Dense numeric array with shape metadata, optionally tracked for grads.

    ``recorded`` is True for the output of an op recorded on a tape: not a
    leaf, so no gradient of it outlives ``Tape.backward``.  ``key`` names
    it on a tape for the process's lifetime, as a reusable ``id()`` cannot.
    """

    __slots__ = ("data", "requires_grad", "recorded", "key")

    def __init__(self, data, dtype=None, requires_grad: bool = False):
        arr = np.asarray(data, dtype=dtype)
        if arr.dtype not in (np.float32, np.float64):
            arr = arr.astype(np.float64)
        if arr.ndim > MAX_RANK:
            raise ShapeError(f"rank {arr.ndim} > {MAX_RANK} not supported")
        self.data = arr
        self.requires_grad = requires_grad
        self.recorded = False
        self.key = next(_KEYS)

    @property
    def shape(self) -> tuple:
        return self.data.shape

    @property
    def dtype(self):
        return self.data.dtype

    def item(self) -> float:
        return float(self.data)

    def __repr__(self):
        return f"Tensor(shape={self.shape}, dtype={self.data.dtype.name})"


class Node:
    """One executed op on the tape: output and input keys, and a pull-back.

    An input's key is None when it requires no grad.  The pull-back maps the
    output gradient to one gradient per input (an optional input's comes
    last, ignored when the op got none) and keeps only the arrays it reads.
    ``Tape.backward`` sets all three to None once it has run it.
    """

    __slots__ = ("out", "inputs", "backward", "name")

    def __init__(self, out: int, inputs: tuple, backward: Callable, name: str):
        self.out = out
        self.inputs = inputs
        self.backward = backward
        self.name = name


_ACTIVE_TAPE: "Tape | None" = None


class Tape:
    """Ordered record of executed ops for one reverse-mode pass.

    A tape is single threaded: use one tape per loss (an ELECTRA step
    records two, and walks the generator's first).  Entering the context
    makes it the active tape; ops executed while it is active are
    recorded in execution order.  ``taken`` holds the keys of the leaf
    gradients ``backward`` handed to a sink.
    """

    def __init__(self):
        self.nodes: list[Node] = []
        self.grads: dict[int, np.ndarray] = {}
        self.taken: set[int] = set()
        self.walked = False

    def __enter__(self):
        global _ACTIVE_TAPE
        if _ACTIVE_TAPE is not None:
            raise ContractError("a tape is already active")
        _ACTIVE_TAPE = self
        return self

    def __exit__(self, *exc):
        global _ACTIVE_TAPE
        if _ACTIVE_TAPE is not self:
            raise ContractError("exiting a tape that is not the active one")
        _ACTIVE_TAPE = None
        return False

    def backward(self, root: Tensor,
                 sink: Callable[[int, np.ndarray], None] | None = None) -> None:
        """Accumulate gradients of ``root`` into ``grads`` for every leaf that requires grad.

        ``root`` must be a scalar recorded on this tape.  Deterministic:
        nodes are replayed in strict reverse execution order, and each input
        gradient is stored by key, or added out of place to the one stored.
        Each node's output gradient and pull-back are released once it has
        run.  Given a ``sink``, each leaf's gradient (a leaf is an input no
        node here outputs) leaves ``grads`` for ``sink(key, g)``, its key for
        ``taken``, once the earliest node reading it has run.  Afterwards
        ``grads`` holds the leaf gradients not taken and the tape cannot be
        walked again (``nodes`` keeps its length).
        """
        if root.data.ndim != 0:
            raise ContractError(f"backward root must be scalar, got shape {root.shape}")
        if self.walked:
            raise ContractError("backward already ran on this tape; record a new one")
        if not any(node.out == root.key for node in reversed(self.nodes)):
            raise ContractError("backward root was not recorded on this tape; "
                                "compute it inside the tape from a tensor that requires grad")
        self.walked = True
        due: dict[int, list[int]] = {}  # node index -> the leaves it is the earliest reader of
        if sink is not None:
            seen: set[int] = set()  # an output enters before any node reads it
            for i, node in enumerate(self.nodes):
                for key in node.inputs:
                    if key is not None and key not in seen:
                        seen.add(key)
                        due.setdefault(i, []).append(key)
                seen.add(node.out)
        grads = self.grads = {root.key: np.ones((), dtype=root.data.dtype)}
        for i in reversed(range(len(self.nodes))):
            node = self.nodes[i]
            g = grads.pop(node.out, None)
            if g is not None:
                for key, gi in zip(node.inputs, node.backward(g)):
                    if key is not None:
                        prev = grads.get(key)
                        grads[key] = gi if prev is None else prev + gi
            node.out = node.inputs = node.backward = None
            for key in due.get(i, ()):
                g = grads.pop(key, None)
                if g is not None:
                    self.taken.add(key)
                    sink(key, g)

    def grad(self, t: Tensor) -> np.ndarray:
        """Gradient for leaf ``t``; zeros if the walk never reached it.

        Only leaves that require grad have one, and only once ``backward``
        has run.  Asking before the walk, for a tensor that does not require
        grad, for the output of a recorded op (its gradient was freed
        during the walk, or it belongs to another tape) or for a leaf whose
        gradient went to a sink raises ContractError rather than reading as zeros.
        """
        if not self.walked:
            raise ContractError("grad before backward has run on this tape")
        if not t.requires_grad:
            raise ContractError("grad of a tensor that does not require grad")
        if t.recorded:
            raise ContractError("grad of a tensor a recorded op produced; "
                                "only leaf gradients outlive backward")
        if t.key in self.taken:
            raise ContractError("grad of a leaf whose gradient was taken during the walk")
        g = self.grads.get(t.key)
        if g is None:
            return np.zeros_like(t.data)  # a disconnected parameter
        return g


def _record(out: Tensor, inputs: Sequence[Tensor], backward: Callable, name: str):
    tape = _ACTIVE_TAPE
    if tape is not None and any(t.requires_grad for t in inputs):
        out.requires_grad = out.recorded = True
        keys = tuple(t.key if t.requires_grad else None for t in inputs)
        tape.nodes.append(Node(out.key, keys, backward, name))
    return out


def _as_tensor(x, like: Tensor) -> Tensor:
    if isinstance(x, Tensor):
        return x
    return Tensor(np.asarray(x, dtype=like.data.dtype))


# ---------------------------------------------------------------------------
# primitive ops
# ---------------------------------------------------------------------------

def add(a: Tensor, b) -> Tensor:
    """Elementwise a + b with numpy broadcasting (e.g. a [D] bias or an [H,1,dh] one)."""
    b = _as_tensor(b, a)
    try:
        out = Tensor(a.data + b.data)
    except ValueError:
        raise ShapeError(f"add: incompatible shapes {a.shape} and {b.shape}") from None
    shapes = [t.shape if t.requires_grad else None for t in (a, b)]

    def backward(g):
        return [None if shape is None else _unbroadcast(g, shape) for shape in shapes]

    return _record(out, (a, b), backward, "add")


def mul(a: Tensor, b) -> Tensor:
    """Elementwise product with numpy broadcasting."""
    b = _as_tensor(b, a)
    try:
        out = Tensor(a.data * b.data)
    except ValueError:
        raise ShapeError(f"mul: incompatible shapes {a.shape} and {b.shape}") from None
    a_shape, b_shape = a.shape, b.shape
    ad, bd = (a.data if b.requires_grad else None), (b.data if a.requires_grad else None)

    def backward(g):
        return (None if bd is None else _unbroadcast(g * bd, a_shape),
                None if ad is None else _unbroadcast(g * ad, b_shape))

    return _record(out, (a, b), backward, "mul")


def _unbroadcast(g: np.ndarray, shape: tuple) -> np.ndarray:
    """Sum ``g`` over the axes along which an operand of ``shape`` was broadcast."""
    if g.shape == shape:
        return g
    lead = g.ndim - len(shape)
    if lead:
        g = g.sum(axis=tuple(range(lead)))
    stretched = tuple(i for i, n in enumerate(shape) if n == 1 and g.shape[i] != 1)
    if stretched:
        g = g.sum(axis=stretched, keepdims=True)
    return g


def _mm(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """``np.matmul``, with a 2-D right operand folded into one GEMM over every row of ``x``."""
    if y.ndim == 2 and x.ndim > 2:
        return (x.reshape(-1, x.shape[-1]) @ y).reshape(x.shape[:-1] + y.shape[1:])
    return np.matmul(x, y)


def _product(a: Tensor, ad: np.ndarray, b: Tensor, bias: Tensor | None, op: str) -> tuple:
    """``ad @ b + bias`` (bias added in place), ``ad`` being ``a``'s data or made from it, and
    its pull-back ``(g, ad) -> (a's, b's, bias's gradient)``, which keeps ``b`` only when ``a``
    requires grad and reads ``ad`` only when ``b`` does: the caller keeps or remakes it."""
    if ad.ndim < 2 or b.data.ndim < 2 or ad.shape[-1] != b.shape[-2]:
        raise ShapeError(f"{op}: incompatible shapes {ad.shape} and {b.shape}")
    y = _mm(ad, b.data)
    if bias is not None:
        try:
            y += bias.data
        except ValueError:
            raise ShapeError(f"{op}: bias {bias.shape} does not broadcast to {y.shape}") from None
    a_shape, b_shape, b_grad = ad.shape, b.shape, b.requires_grad
    bias_shape = bias.shape if bias is not None and bias.requires_grad else None
    bd = b.data if a.requires_grad else None

    def pull(g, ad):
        ga = gb = None
        if bd is not None:
            ga = _unbroadcast(_mm(g, np.swapaxes(bd, -1, -2)), a_shape)
        if b_grad:
            if len(b_shape) == 2:
                # a shared weight: one product over every row of the batch
                k, n = b_shape
                gb = ad.reshape(-1, k).T @ g.reshape(-1, n)
            else:
                gb = _unbroadcast(np.matmul(np.swapaxes(ad, -1, -2), g), b_shape)
        return ga, gb, None if bias_shape is None else _unbroadcast(g, bias_shape)

    return y, pull


def matmul(a: Tensor, b: Tensor, bias: Tensor | None = None) -> Tensor:
    """Matrix product with ``np.matmul`` semantics: [..., m, k] @ [..., k, n], plus ``bias``.

    Both operands have rank 2 or more; their batch axes broadcast.  The
    optional ``bias`` (e.g. [n]) broadcasts against the product and is
    added in place, one node for ``a @ b + bias``.  An operand is kept for
    the backward pass only when the other one requires grad.
    """
    y, pull = _product(a, a.data, b, bias, "matmul")
    ad = a.data if b.requires_grad else None
    inputs = (a, b) if bias is None else (a, b, bias)
    return _record(Tensor(y), inputs, lambda g: pull(g, ad), "matmul")


def _move(a: Tensor, before: tuple, axes: tuple, name: str, after: tuple | None = None) -> Tensor:
    """The one axis-move node: ``a`` reshaped to ``before``, axes reordered (out axis i is
    ``axes[i]`` >= 0), reshaped to ``after`` (default: as reordered); backward inverts all three."""
    moved = np.transpose(a.data.reshape(before), axes)
    mid, shape = moved.shape, a.shape
    inverse = sorted(range(len(axes)), key=axes.__getitem__)
    out = Tensor(moved.reshape(mid if after is None else after))

    def backward(g):
        return (np.transpose(g.reshape(mid), inverse).reshape(shape),)

    return _record(out, (a,), backward, name)


def transpose(a: Tensor) -> Tensor:
    """Swap the last two axes."""
    if a.data.ndim < 2:
        raise ShapeError(f"transpose expects rank >= 2, got {a.shape}")
    n = a.data.ndim
    return _move(a, a.shape, tuple(range(n - 2)) + (n - 1, n - 2), "transpose")


def reshape(a: Tensor, shape: tuple) -> Tensor:
    return _move(a, a.shape, tuple(range(a.data.ndim)), "reshape", shape)


def split_heads(x: Tensor, n_heads: int, keys: bool = False) -> Tensor:
    """[T, *cols, H * dh] -> [*cols, H, T, dh], head h owning columns h*dh..(h+1)*dh.

    ``keys`` puts time last, [*cols, H, dh, T], ready to right-multiply the queries.
    """
    n = x.data.ndim - 1                                      # T and the column axes
    return _move(x, x.shape[:-1] + (n_heads, x.shape[-1] // n_heads),
                 tuple(range(1, n)) + ((n, n + 1, 0) if keys else (n, 0, n + 1)), "split_heads")


def merge_heads(x: Tensor) -> Tensor:
    """Inverse of ``split_heads`` in the query layout: [*cols, H, T, dh] -> [T, *cols, H * dh]."""
    *cols, h, t, dh = x.shape
    n = len(cols)                                            # axes: cols, then H = n, T, dh
    return _move(x, x.shape, (n + 1, *range(n + 1), n + 2), "merge_heads", (t, *cols, h * dh))


def softmax_lastdim(x: Tensor, scale: float = 1.0, keep: np.ndarray | None = None) -> Tensor:
    """Row-stochastic softmax over the last axis of ``scale * x``, max-subtracted.

    ``keep`` (bool, broadcasting against ``x``) masks logits to -inf where
    False; they get zero weight and no gradient.  Raises NumericError
    when a row holds a NaN, a +inf scaled logit (infinite, or overflowed by
    ``scale``) or has every logit masked, all read off the row maxima.
    """
    y = x.data * x.data.dtype.type(scale)
    if keep is not None:
        np.copyto(y, -np.inf, where=~np.asarray(keep, dtype=bool))
    m = np.max(y, axis=-1, keepdims=True)
    if not np.isfinite(m).all():
        if np.isnan(m).any():
            raise NumericError("softmax input contains NaN")
        if (m == np.inf).any():
            raise NumericError("softmax input is +inf once scaled")
        # -inf entries are legal (masked logits); a row of all -inf is not
        raise NumericError("softmax row with every logit masked")
    y -= m
    np.exp(y, out=y)
    y /= y.sum(axis=-1, keepdims=True)
    out = Tensor(y)

    def backward(g):
        d = g * y
        dot = np.sum(d, axis=-1, keepdims=True)
        np.subtract(g, dot, out=d)
        d *= y
        d *= d.dtype.type(scale)
        return (d,)

    return _record(out, (x,), backward, "softmax")


def layer_norm(x: Tensor, gamma: Tensor, beta: Tensor, eps: float = 1e-6,
               residual: Tensor | None = None) -> Tensor:
    """Per-row normalization over the last axis of ``x`` (+ ``residual``), then affine gamma/beta.

    With ``residual`` the sum ``x + residual`` is normalised in the same
    node, and both inputs receive its gradient.
    """
    d = x.shape[-1]
    if gamma.shape != (d,) or beta.shape != (d,):
        raise ShapeError(f"layer_norm: gamma/beta must be ({d},), got {gamma.shape}/{beta.shape}")
    if residual is not None and residual.shape != x.shape:
        raise ShapeError(f"layer_norm: residual {residual.shape} does not match {x.shape}")
    # means as add.reduce / d: np.mean's own arithmetic without its Python overhead
    xd = x.data if residual is None else x.data + residual.data
    mu = np.add.reduce(xd, axis=-1, keepdims=True) / d
    xc = np.subtract(xd, mu, out=None if residual is None else xd)  # centre a fresh sum in place
    sq = xc * xc
    inv = 1.0 / np.sqrt(np.add.reduce(sq, axis=-1, keepdims=True) / d + eps)
    xhat = np.multiply(xc, inv, out=xc)
    y = np.multiply(xhat, gamma.data, out=sq)
    y += beta.data
    out = Tensor(y)
    gd = gamma.data

    def backward(g):
        dx = g * gd
        t = dx * xhat
        m2 = np.add.reduce(t, axis=-1, keepdims=True) / d
        m1 = np.add.reduce(dx, axis=-1, keepdims=True) / d
        np.multiply(xhat, m2, out=t)
        dx -= m1
        dx -= t
        dx *= inv
        axes = tuple(range(g.ndim - 1))
        np.multiply(g, xhat, out=t)
        return dx, t.sum(axis=axes), g.sum(axis=axes), dx  # the last for a residual

    inputs = (x, gamma, beta) if residual is None else (x, gamma, beta, residual)
    return _record(out, inputs, backward, "layer_norm")


def _gelu(xd: np.ndarray, slope: bool = False) -> list[np.ndarray]:
    """GeLU's output 0.5 x (1 + t), t = tanh(c x (1 + a x^2)), then given ``slope`` its
    derivative 0.5 (1 + t) + 0.5 x (1 - t^2) c (1 + 3 a x^2), each in a fresh array.

    Each pass walks ``GELU_BLOCK``-byte blocks of the flat input, t forming in an output
    block beside one scratch block (two with ``slope``); x^2, 0.5 x and 1 + t are formed
    once.  The cubic is c*x*(1 + a*x*x), not ``x ** 3``, which numpy sends to libm ``pow``.
    Every step rounds as the one-expression form does, so both calls give the same bytes.
    """
    outs = [np.empty(xd.shape, xd.dtype) for _ in range(1 + slope)]  # C order: views write them
    flats = [f.reshape(-1) for f in (xd, *outs)]
    step = GELU_BLOCK // xd.itemsize
    rows = np.empty((1 + slope, min(step, xd.size)), xd.dtype)
    for lo in range(0, xd.size, step):
        x, y, *d = (f[lo:lo + step] for f in flats)
        a, b = rows[0, :len(x)], rows[-1, :len(x)]  # one row in the forward pass: b is a
        t = d[0] if d else y
        np.multiply(x, x, out=a)                     # x^2
        np.multiply(a, GELU_A, out=t)
        t += 1.0
        t *= np.multiply(x, GELU_C, out=b)
        np.tanh(t, out=t)                            # tanh(c x (1 + a x^2))
        if not d:
            t += 1.0
            t *= np.multiply(x, 0.5, out=a)          # 0.5 x (1 + t)
            continue
        np.add(t, 1.0, out=y)                        # 1 + t
        np.multiply(t, t, out=b)
        np.subtract(1.0, b, out=b)
        b *= np.multiply(x, 0.5, out=t)              # t holds 0.5 x from here
        b *= GELU_C
        a *= 3.0 * GELU_A
        a += 1.0
        b *= a                                       # 0.5 x (1 - t^2) c (1 + 3 a x^2)
        np.multiply(y, 0.5, out=a)
        y *= t                                       # 0.5 x (1 + t)
        np.add(a, b, out=t)
    return outs


def gelu(x: Tensor, w: Tensor | None = None, bias: Tensor | None = None) -> Tensor:
    """GeLU, tanh approximation (constants GELU_C, GELU_A above); given ``w``,
    GeLU(x) @ w + bias in one node, with ``matmul``'s shapes and broadcasting.

    The pull-back keeps ``x`` only and reruns ``_gelu``, in ``GELU_BLOCK``-byte blocks, once
    for the output (``w``'s gradient) and the derivative, so neither outlives the forward
    pass.  A matmul whose weight requires grad keeps a plain GeLU's output it reads.
    """
    xd, pull = x.data, None
    out, inputs = _gelu(xd)[0], (x,)
    if w is not None:
        out, pull = _product(x, out, w, bias, "gelu")
        inputs = (x, w) if bias is None else (x, w, bias)

    def backward(g):
        # the derivative first: its scratch is gone before w's gradient exists
        y, slope = _gelu(xd, slope=True)
        g, *tail = (g,) if pull is None else pull(g, y)  # tail: w's and bias's gradients
        return (None if g is None else np.multiply(slope, g, out=slope), *tail)

    return _record(Tensor(out), inputs, backward, "gelu")


def dropout(x: Tensor, rate: float, rng) -> Tensor:
    """Inverted dropout.

    Returns the input untouched at rate 0 or when ``rng`` is None.
    Inference passes no rng, so dropout is active only in training.
    """
    if not 0.0 <= rate < 1.0:
        raise ContractError(f"dropout rate must be in [0,1), got {rate}")
    if rate == 0.0 or rng is None:
        return x
    keep = rng.generator.random(x.shape) >= rate
    scale = 1.0 / (1.0 - rate)
    out = Tensor(np.where(keep, x.data * scale, 0.0))

    def backward(g):
        return (np.where(keep, g * scale, 0.0),)

    return _record(out, (x,), backward, "dropout")


def gather_rows(x: Tensor, idx: np.ndarray) -> Tensor:
    """Select rows (axis 0) of ``x``: out[...] = x[idx[...]]; backward scatter-adds.

    ``idx`` may have any shape, e.g. [T, B] token ids into an embedding.
    The backward scatter sums rows sharing an index (lookups, up-sampling)
    with ``np.bincount`` in index order, without ``np.add.at``'s
    per-element cost; a row hit once gets its gradient unchanged.
    """
    idx = np.asarray(idx, dtype=np.int64)
    out = Tensor(x.data[idx])
    shape, dtype = x.shape, x.dtype

    def backward(g):
        flat = idx.reshape(-1) % shape[0]  # -1 and n-1 name the same row
        width = math.prod(shape[1:])
        cells = (flat[:, None] * width + np.arange(width)).reshape(-1)
        dx = np.bincount(cells, weights=g.reshape(-1), minlength=shape[0] * width)
        return (dx.reshape(shape).astype(dtype, copy=False),)

    return _record(out, (x,), backward, "gather_rows")


def _fit(a: np.ndarray, t: int, keep: np.ndarray | None) -> np.ndarray:
    """``a`` cut or zero-padded along axis 0 to ``t`` rows, rows where ``keep`` is False zeroed."""
    if keep is None and t <= len(a):
        return a[:t]
    m = min(t, len(a))
    out = np.zeros((t,) + a.shape[1:], dtype=a.dtype)
    if keep is None:
        out[:m] = a[:m]
    else:
        keep = keep[:m].reshape((m,) + keep.shape[1:] + (1,) * (a.ndim - keep.ndim))
        np.copyto(out[:m], a[:m], where=keep)
    return out


def fit_rows(x: Tensor, t: int, keep: np.ndarray | None = None) -> Tensor:
    """The first ``t`` rows of ``x`` (axis 0), zero-filled past its end and where ``keep`` is False.

    ``keep`` (bool, [t] or [t, B] over the leading axes of the result)
    marks the rows and columns to copy; every other entry is exactly 0.0.
    The adjoint is the same op back to ``len(x)`` rows with the same
    ``keep``: cutting rows pads the gradient with zeros, padding cuts it.
    Returns ``x`` itself when there is nothing to cut, pad or zero.
    """
    n = x.shape[0]
    if keep is not None:
        keep = np.asarray(keep, dtype=bool)
        if keep.shape[0] != t or x.data.ndim <= keep.ndim or keep.shape[1:] != x.shape[1:keep.ndim]:
            raise ShapeError(f"fit_rows: keep {keep.shape} does not match {t} rows of {x.shape}")
        if t == n and keep.all():
            keep = None
    if t == n and keep is None:
        return x
    out = Tensor(_fit(x.data, t, keep))

    def backward(g):
        return (_fit(g, n, keep),)

    return _record(out, (x,), backward, "fit_rows")


def take_along_last(x: Tensor, idx: np.ndarray) -> Tensor:
    """Gather on the last axis: out[..., j] = x[..., idx[..., j]].

    ``idx`` broadcasts against the leading axes of ``x``.
    """
    idx = np.asarray(idx, dtype=np.int64)
    idx = np.broadcast_to(idx, x.shape[:-1] + idx.shape[-1:])
    n = x.shape[-1]
    if idx.size and (idx.min() < 0 or idx.max() >= n):
        raise ShapeError(
            f"take_along_last: index range [{idx.min()}, {idx.max()}] outside 0..{n - 1}")
    out = Tensor(np.take_along_axis(x.data, idx, axis=-1))
    shape, dtype, size = x.shape, x.dtype, x.data.size

    def backward(g):
        rows = np.arange(size // n).reshape(shape[:-1] + (1,))
        flat = (idx + n * rows).ravel()
        dx = np.bincount(flat, weights=g.ravel(), minlength=size)
        return (dx.reshape(shape).astype(dtype, copy=False),)

    return _record(out, (x,), backward, "take_along_last")


def einsum_id_ijd(q: Tensor, r: np.ndarray) -> Tensor:
    """scores[..., i, j] = sum_d q[..., i, d] * r[..., i, j, d] against a constant ``r``.

    The leading axes broadcast (naive position-term pairing); no gradient
    flows to ``r``.
    """
    r = np.asarray(r)
    if q.data.ndim < 2 or r.ndim < 3 or q.shape[-2] != r.shape[-3] or q.shape[-1] != r.shape[-1]:
        raise ShapeError(f"einsum_id_ijd: got {q.shape} and {r.shape}")
    out = Tensor(np.einsum("...id,...ijd->...ij", q.data, r))
    shape = q.shape

    def backward(g):
        return (_unbroadcast(np.einsum("...ij,...ijd->...id", g, r), shape),)

    return _record(out, (q,), backward, "einsum_id_ijd")


def rotate(x: Tensor, r: np.ndarray) -> Tensor:
    """x * cat(s, s) + swap(x) * cat(c, -c) for the table r = cat(s, c).

    swap(v) = cat(v[..., h:], v[..., :h]), h = width / 2, so each pair
    (x[k], x[k + h]) is rotated by the angle whose sine and cosine are
    ``r``'s halves.  ``r`` broadcasts to the shape of ``x``, which the
    result keeps; no gradient flows to it.  With phi = r and
    pi = cat(-c, s), the result is cat(fold(x * phi), fold(x * pi)),
    fold(y) = y[..., :h] + y[..., h:], so two products against tables
    whose halves repeat become one (the factorized position term):
    (x * phi) cat(k, k)' + (x * pi) cat(l, l)' = rotate(x, r) cat(k, l)'.
    Whole-width passes only: half-width strided passes cost more than the
    arithmetic here.
    """
    r = np.asarray(r)
    width = x.shape[-1]
    try:
        fits = np.broadcast_shapes(x.shape, r.shape) == x.shape
    except ValueError:
        fits = False
    if not fits or width % 2 or r.shape[-1:] != (width,):
        raise ShapeError(f"rotate: got {x.shape} and {r.shape}")
    h = width // 2

    def swap(v):
        return np.concatenate([v[..., h:], v[..., :h]], axis=-1)

    s, c = r[..., :h], r[..., h:]
    p = np.concatenate([s, s], axis=-1)
    q = np.concatenate([c, -c], axis=-1)
    y = x.data * p
    rotated = swap(x.data)
    rotated *= q
    y += rotated
    out = Tensor(y)

    def backward(g):
        dx = g * p
        dx += swap(g * q)
        return (dx,)

    return _record(out, (x,), backward, "rotate")


def window_index(windows: np.ndarray, real: np.ndarray) -> tuple[np.ndarray, ...]:
    """Index of each window's members, [n, 2, ...]: ``windows`` is [n, 2] row
    indices shared by every column, or [n, 2, B], one window per column of a
    [T, B] ``real``.  A window may name one row twice, but each column names
    a row at most once."""
    windows, real = np.asarray(windows, dtype=np.int64), np.asarray(real)
    if windows.ndim not in (2, 3) or windows.shape[1:] != (2,) + real.shape[1:windows.ndim - 1]:
        raise ShapeError(f"windows {windows.shape} not [n, 2] or [n, 2, B] for real {real.shape}")
    return (windows,) + tuple(np.arange(b) for b in windows.shape[2:])


def _windows(x: np.ndarray, real: np.ndarray, windows: np.ndarray
             ) -> tuple[np.ndarray, np.ndarray, tuple[np.ndarray, ...]]:
    """Members of each window, [n, 2, ...], a real mask broadcast to them and ``window_index``;
    ``real`` covers the leading axes of ``x``: [T], or [T, B] for a time-major batch."""
    idx = window_index(windows, real)
    xr, real = x[idx], np.asarray(real, dtype=bool)[idx]
    return xr, real.reshape(real.shape + (1,) * (xr.ndim - real.ndim)), idx


def _unwindow(gw: np.ndarray, idx: tuple[np.ndarray, ...], shape: tuple) -> np.ndarray:
    """Adjoint of the windowed read ``x[idx]``: each member's gradient added back to its row."""
    dx = np.zeros(shape, dtype=gw.dtype)
    dx[(idx[0][:, 0],) + idx[1:]] = gw[:, 0]  # a column names a row at most once: store the first
    dx[(idx[0][:, 1],) + idx[1:]] += gw[:, 1]
    return dx


def mean_pool_pairs(x: Tensor, real: np.ndarray, windows: np.ndarray) -> Tensor:
    """Mean of each window's members (``_windows``); only rows flagged real contribute.

    A window naming one real row twice yields that row, (x + x) / 2 == x,
    and sends g/2 + g/2 back to it, exact except for subnormal g.
    All-pad windows yield zeros.
    """
    xr, rr, idx = _windows(x.data, real, windows)
    counts = rr.sum(axis=1)
    divisor = np.maximum(counts, 1).astype(x.dtype)
    # -0.0 is the exact additive identity, so a lone member passes unchanged
    members = np.where(rr, xr, x.dtype.type(-0.0))
    out = Tensor(np.where(counts > 0, (members[:, 0] + members[:, 1]) / divisor, 0.0))
    shape = x.shape

    def backward(g):
        return (_unwindow(np.where(rr, (g / divisor)[:, None], 0.0), idx, shape),)

    return _record(out, (x,), backward, "mean_pool_pairs")


def max_pool_pairs(x: Tensor, real: np.ndarray, windows: np.ndarray) -> Tensor:
    """Elementwise max of each window's members (``_windows``), padded rows excluded.

    Ties go to the first member, so a window naming one row twice yields
    it and routes its whole gradient back once: top-attention pooling
    keeps rows this way.  All-pad windows yield zeros and pass no gradient.
    """
    xr, rr, idx = _windows(x.data, real, windows)
    has_real, a, b = rr.any(axis=1), xr[:, 0], xr[:, 1]
    # argmax over each pair, elementwise: ties and a NaN first member keep the first
    second = ~rr[:, 0] | rr[:, 1] & ~(a >= b) & (a == a)
    out = Tensor(np.where(has_real, np.where(second, b, a), 0.0))
    shape = x.shape

    def backward(g):
        route = np.stack([~second, second], axis=1) & has_real[:, None]
        return (_unwindow(np.where(route, g[:, None], 0.0), idx, shape),)

    return _record(out, (x,), backward, "max_pool_pairs")


def cross_entropy_mean(logits: Tensor, targets: np.ndarray, weights: np.ndarray) -> Tensor:
    """Weighted mean of -log softmax(logits)[target] over rows; fused, stable.

    ``weights`` has one entry per row; 1/N each gives the plain mean.
    """
    targets = np.asarray(targets, dtype=np.int64)
    n = logits.shape[0]
    if n == 0:
        raise ContractError("cross_entropy_mean over zero rows")
    w = np.asarray(weights).astype(logits.dtype, copy=False)[:, None]
    m = logits.data.max(axis=-1, keepdims=True)
    z = logits.data - m
    lse = np.log(np.exp(z).sum(axis=-1)) + m[:, 0]
    nll = lse - logits.data[np.arange(n), targets]
    out = Tensor((w[:, 0] * nll).sum())
    probs = np.exp(logits.data - lse[:, None])

    def backward(g):
        d = probs.copy()
        d[np.arange(n), targets] -= 1.0
        return (g * d * w,)

    return _record(out, (logits,), backward, "cross_entropy_mean")


def bce_with_logits_mean(logits: Tensor, labels: np.ndarray, weights: np.ndarray) -> Tensor:
    """Weighted mean binary cross-entropy on raw logits (stable log1p form).

    ``weights`` has the shape of ``logits``; 1/N each gives the plain mean.
    """
    labels = np.asarray(labels, dtype=logits.data.dtype)
    if logits.data.size == 0:
        raise ContractError("bce_with_logits_mean over zero elements")
    w = np.asarray(weights).astype(logits.dtype, copy=False)
    x = logits.data
    loss = np.maximum(x, 0.0) - x * labels + np.log1p(np.exp(-np.abs(x)))
    out = Tensor((w * loss).sum())
    sig = 1.0 / (1.0 + np.exp(-x))

    def backward(g):
        return (g * (sig - labels) * w,)

    return _record(out, (logits,), backward, "bce_with_logits_mean")


# ---------------------------------------------------------------------------
# rng and parameter initialization
# ---------------------------------------------------------------------------

class Rng:
    """Deterministic random stream: Philox 4x64 counter-based generator.

    Identical seeds produce identical streams on every platform, which is
    what makes mask sampling and toy training reproducible.
    """

    def __init__(self, seed: int):
        self.generator = np.random.Generator(np.random.Philox(int(seed)))

    def truncated_normal(self, shape, std: float, dtype=np.float64) -> np.ndarray:
        """Normal(0, std) with draws beyond two std redrawn, in ascending flat order."""
        out = self.generator.normal(0.0, std, size=shape)
        idx = np.flatnonzero(np.abs(out) > 2.0 * std)
        while idx.size:
            out.flat[idx] = redraw = self.generator.normal(0.0, std, size=idx.size)
            idx = idx[np.abs(redraw) > 2.0 * std]
        return out.astype(dtype, copy=False)

    def integers(self, low: int, high: int, size=None):
        return self.generator.integers(low, high, size=size)


# ---------------------------------------------------------------------------
# finite-difference oracle
# ---------------------------------------------------------------------------

def grad_check(f: Callable[[], Tensor], params: Sequence[Tensor],
               eps: float = 1e-5, max_coords_per_param: int | None = None,
               seed: int = 0, denominator_floor: float = 1e-8) -> float:
    """Compare analytic gradients of a scalar function against central differences.

    ``f`` is re-evaluated for each probe; it must depend on ``params`` only
    through their ``.data`` buffers.  Relative error uses the denominator
    max(|analytic|, |numeric|, denominator_floor).  When
    ``max_coords_per_param`` is set, a seeded subset of coordinates per
    tensor is probed instead of all of them (needed to keep whole-model
    checks fast).  Returns the max error seen; 0.0 for an empty list.

    Calibration note: central differences in f64 resolve a derivative
    coordinate only down to roughly 1e-11 absolute (roundoff of a
    unit-scale loss divided by 2 eps).  Whole-model losses have
    coordinates with true gradients below that resolution, where the
    quotient against a 1e-8 floor measures nothing but noise; checks over
    whole models should pass denominator_floor=1e-6, which keeps the
    noise quotient near 1e-5 while still flagging any backward bug whose
    absolute effect on a coordinate exceeds 1e-10.
    """
    params = list(params)
    if not params:
        return 0.0
    flags = [p.requires_grad for p in params]
    for p in params:
        p.requires_grad = True
    try:
        with Tape() as tape:
            out = f()
        if not np.isfinite(out.data):
            raise NumericError("grad_check: function value is not finite")
        tape.backward(out)
        analytic = [tape.grad(p).copy() for p in params]
    finally:
        for p, flag in zip(params, flags):
            p.requires_grad = flag

    picker = np.random.Generator(np.random.Philox(seed))
    worst = 0.0
    for p, an in zip(params, analytic):
        n_el = p.data.size
        if max_coords_per_param is not None and n_el > max_coords_per_param:
            coords = picker.choice(n_el, size=max_coords_per_param, replace=False)
        else:
            coords = range(n_el)
        flat = p.data.reshape(-1)
        for c in coords:
            orig = flat[c]
            flat[c] = orig + eps
            hi = f().item()
            flat[c] = orig - eps
            lo = f().item()
            flat[c] = orig
            if not (math.isfinite(hi) and math.isfinite(lo)):
                raise NumericError("grad_check: perturbed function value is not finite")
            num = (hi - lo) / (2.0 * eps)
            a = an.reshape(-1)[c]
            err = abs(a - num) / max(abs(a), abs(num), denominator_floor)
            worst = max(worst, err)
    return worst
