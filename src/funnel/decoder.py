"""Decoder: recover full-length token representations from the funnel output.

The compressed final-block states are up-sampled in one shot by index,
out[i] = h_last[i * n // T] for n compressed and T full-length rows: each
vector repeats T / n times where n divides T, and is stretched evenly
otherwise.  The result is added to the full-length block-1 states as a skip
connection and refined by a few standard full-length layers.  Like the
encoder's, those layers stop at each column's last real row, so their
output is exactly 0.0 past it.  Only token-level objectives need this
path; sequence-level use reads the CLS vector straight off the encoder.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .autodiff import ContractError, Tensor, add, gather_rows
from .relattn import RelPosEncoding, transformer_layer


@dataclass
class DecoderOutput:
    fused: Tensor   # h1 + upsample(hM), length T: [T, D] or [T, B, D]
    hidden: Tensor  # after the decoder layers, length T


def upsample_source(i, n: int, t: int):
    """Row of the ``n`` compressed rows that full-length row ``i`` of ``t`` reads: i * n // t."""
    return i * n // t


def upsample(h_last: Tensor, t: int) -> Tensor:
    """Stretch the n rows of ``h_last`` to ``t``: out[i] = h_last[i * n // t].

    For t = r * n this is i // r, each row repeated r times.  Applied
    literally to the whole sequence including the CLS slot, so the
    up-sampled CLS block overlaps the first positions.
    """
    n = h_last.shape[0]
    if n > t:
        raise ContractError(f"cannot up-sample {n} rows to the shorter length {t}")
    if n == t:
        return h_last
    return gather_rows(h_last, upsample_source(np.arange(t, dtype=np.int64), n, t))


def decoder_forward(h_first: Tensor, h_last: Tensor, config, params, enc: RelPosEncoding,
                    pad_mask: np.ndarray | None = None, rng=None) -> DecoderOutput:
    """Fuse skip + up-sampled states, then run the decoder layers.

    ``h_first`` is the full-length block-1 output; ``h_last`` the final
    block's output, both time-major.  ``enc`` is the encoder pass's
    encoding, whose tables already hold the full-length positions.  With
    zero decoder layers the fused representation is returned unchanged;
    otherwise ``hidden`` is 0.0 past each column's last real row.
    """
    t = h_first.shape[0]
    fused = add(h_first, upsample(h_last, t))
    if pad_mask is None:
        pad_mask = np.ones(h_first.shape[:-1], dtype=bool)
    hidden = fused
    pos = np.arange(t, dtype=np.int64)
    for i in range(config.layout.decoder_layers):
        lp = config.decoder_layer_params(params, i)
        hidden, _ = transformer_layer(hidden, pos, pad_mask, lp, config, enc, rng)
    return DecoderOutput(fused=fused, hidden=hidden)
