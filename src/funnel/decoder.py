"""Decoder: recover full-length token representations from the funnel output.

The compressed final-block states are up-sampled in one shot by repeating
each vector 2^(M-1) times, added to the full-length block-1 states as a
skip connection, and refined by a few standard full-length layers.  Only
token-level objectives need this path; sequence-level use reads the CLS
vector straight off the encoder.
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


def upsample(h_last: Tensor, rate: int) -> Tensor:
    """Repeat each row ``rate`` times: out[i] = h_last[i // rate].

    Applied literally to the whole sequence including the CLS slot, so the
    up-sampled CLS block overlaps the first ``rate`` positions.
    """
    if rate < 1:
        raise ContractError(f"upsample rate must be >= 1, got {rate}")
    if rate == 1:
        return h_last
    t = h_last.shape[0] * rate
    idx = np.arange(t, dtype=np.int64) // rate
    return gather_rows(h_last, idx)


def decoder_forward(h_first: Tensor, h_last: Tensor, config, params, enc: RelPosEncoding,
                    pad_mask: np.ndarray | None = None, rng=None) -> DecoderOutput:
    """Fuse skip + up-sampled states, then run the decoder layers.

    ``h_first`` is the full-length block-1 output; ``h_last`` the final
    block's output, both time-major.  The up-sampling rate is inferred
    from the length ratio, which must be exact.  ``enc`` is the encoder
    pass's encoding, whose tables already hold the full-length positions.
    With zero decoder layers the fused
    representation is returned unchanged.
    """
    t, t_last = h_first.shape[0], h_last.shape[0]
    if t % t_last != 0:
        raise ContractError(f"full length {t} is not a multiple of compressed length {t_last}")
    fused = add(h_first, upsample(h_last, t // t_last))
    if pad_mask is None:
        pad_mask = np.ones(h_first.shape[:-1], dtype=bool)
    hidden = fused
    pos = np.arange(t, dtype=np.int64)
    for i in range(config.layout.decoder_layers):
        lp = config.decoder_layer_params(params, i)
        hidden, _ = transformer_layer(hidden, pos, pad_mask, lp, config, enc, rng)
    return DecoderOutput(fused=fused, hidden=hidden)
