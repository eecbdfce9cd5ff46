"""Test-only helpers: a scalar root for gradient checks and a spy on pooled positions.

Neither is part of the model: nothing in ``src`` sums a whole tensor or
keeps the positions of a finished block.
"""

import numpy as np

from funnel import encoder
from funnel.autodiff import Tensor, _record


def sum_all(a: Tensor) -> Tensor:
    """Scalar sum of every element, recorded as one ``sum_all`` tape node."""
    out = Tensor(a.data.sum())
    shape, dtype = a.shape, a.dtype

    def backward(g):
        return (np.full(shape, g, dtype=dtype),)

    return _record(out, (a,), backward, "sum_all")


def record_pooled_positions(monkeypatch) -> list[np.ndarray]:
    """Patch ``encoder.pool_step`` to append each pooled state's positions, in call order.

    An encoder pass of n blocks appends n - 1 arrays, one per block after
    the first: [T_m], or [T_m, B] once top-attention keeps per-column rows.
    """
    seen, step = [], encoder.pool_step

    def spy(*args, **kwargs):
        pooled = step(*args, **kwargs)
        seen.append(pooled.pos)
        return pooled

    monkeypatch.setattr(encoder, "pool_step", spy)
    return seen
