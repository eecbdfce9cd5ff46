"""Model configuration, parameter tree construction, and full forward passes.

Parameters live in a flat name -> Tensor mapping so checkpointing and the
cost model can account for every tensor.  Per unique layer there are 18
tensors (packed QKVO projections with biases, the position/content biases
u and v, two layer-norm pairs and the FFN); the projection of the
positional encodings (``rel/w_r``) is a single model-level tensor shared
by all layers, and the token embedding is tied to the output softmax.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, replace

import numpy as np

from .autodiff import DTYPES, Rng, Tensor, add, gather_rows, matmul
from .decoder import DecoderOutput, decoder_forward
from .encoder import POOL_OPS, EncoderState, encoder_forward
from .layout import HEAD_DIM, LayoutSpec, format_layout, parse_layout
from .relattn import VARIANTS, LayerParams, RelPosEncoding

INIT_STD = 0.02


@dataclass
class ModelConfig:
    """Everything needed to build and run one model; JSON round-trippable."""

    layout: LayoutSpec
    vocab_size: int
    pool_op: str = "mean"
    pool_query_only: bool = True
    separate_cls: bool = True
    truncate_seq: bool = True
    attn_variant: str = "factorized"
    dropout: float = 0.0
    attn_dropout: float = 0.0
    dtype: str = "f64"
    seed: int = 0

    def __post_init__(self):
        if isinstance(self.layout, str):
            self.layout = parse_layout(self.layout)
        if self.pool_op not in POOL_OPS:
            raise ValueError(f"pool_op must be one of {POOL_OPS}, got {self.pool_op!r}")
        if self.attn_variant not in VARIANTS:
            raise ValueError(f"attn_variant must be one of {VARIANTS}, got {self.attn_variant!r}")
        if self.dtype not in DTYPES:
            raise ValueError(f"dtype must be one of {tuple(DTYPES)}, got {self.dtype!r}")
        if self.vocab_size < 5:
            raise ValueError("vocab_size must cover the five special tokens")

    @property
    def hidden(self) -> int:
        return self.layout.hidden

    @property
    def heads(self) -> int:
        return self.layout.heads

    def encoding(self) -> RelPosEncoding:
        return RelPosEncoding(self.hidden, dtype=DTYPES[self.dtype])

    def to_json(self) -> str:
        if self.layout.head_dim != HEAD_DIM:
            raise ValueError("layouts off the 64-wide head grid have no string form")
        d = {
            "layout": format_layout(self.layout),
            "vocab_size": self.vocab_size,
            "pool_op": self.pool_op,
            "pool_query_only": self.pool_query_only,
            "separate_cls": self.separate_cls,
            "truncate_seq": self.truncate_seq,
            "attn_variant": self.attn_variant,
            "dropout": self.dropout,
            "attn_dropout": self.attn_dropout,
            "dtype": self.dtype,
            "seed": self.seed,
        }
        return json.dumps(d, indent=2, sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "ModelConfig":
        d = json.loads(text)
        known = {f for f in cls.__dataclass_fields__}
        unknown = set(d) - known
        if unknown:
            raise ValueError(f"unknown config fields: {sorted(unknown)}")
        return cls(**d)

    # -- parameter tree -----------------------------------------------------

    def layer_names(self) -> list[str]:
        """Prefixes of every unique parameter set, encoder blocks then decoder."""
        names = []
        for m, block in enumerate(self.layout.blocks):
            for s in range(block.unique_layers):
                names.append(f"enc/b{m}/l{s}")
        for i in range(self.layout.decoder_layers):
            names.append(f"dec/l{i}")
        return names

    def layer_params(self, params: dict, m: int, t: int) -> LayerParams:
        """Parameter set for layer ``t`` (0-based) of encoder block ``m``.

        Tied blocks reuse sets consecutively: set index is t // repeat.
        """
        s = self.layout.blocks[m].param_set_for_layer(t)
        return _layer_view(params, f"enc/b{m}/l{s}")

    def decoder_layer_params(self, params: dict, i: int) -> LayerParams:
        return _layer_view(params, f"dec/l{i}")


_LAYER_FIELDS = (
    ("attn/w_q", "w_q"), ("attn/b_q", "b_q"),
    ("attn/w_k", "w_k"), ("attn/b_k", "b_k"),
    ("attn/w_v", "w_v"), ("attn/b_v", "b_v"),
    ("attn/w_o", "w_o"), ("attn/b_o", "b_o"),
    ("attn/u", "u"), ("attn/v", "v"),
    ("attn/ln_g", "ln_attn_g"), ("attn/ln_b", "ln_attn_b"),
    ("ffn/w1", "w_ffn1"), ("ffn/b1", "b_ffn1"),
    ("ffn/w2", "w_ffn2"), ("ffn/b2", "b_ffn2"),
    ("ffn/ln_g", "ln_ffn_g"), ("ffn/ln_b", "ln_ffn_b"),
)


def _layer_view(params: dict, prefix: str) -> LayerParams:
    return LayerParams(**{attr: params[f"{prefix}/{key}"] for key, attr in _LAYER_FIELDS},
                       w_r=params["rel/w_r"])


def build_params(config: ModelConfig) -> dict[str, Tensor]:
    """Freshly initialized parameter tree: truncated normal, std 0.02.

    Biases and layer-norm shifts start at zero, layer-norm gains at one.
    Deterministic given ``config.seed``; tensors are created in a fixed
    name order so identical seeds give identical models.
    """
    rng = Rng(config.seed)
    dt = DTYPES[config.dtype]
    d = config.hidden
    inner = config.layout.ffn_inner

    def w(shape):
        return Tensor(rng.truncated_normal(shape, INIT_STD, dt), requires_grad=True)

    def zeros(shape):
        return Tensor(np.zeros(shape, dtype=dt), requires_grad=True)

    def ones(shape):
        return Tensor(np.ones(shape, dtype=dt), requires_grad=True)

    params: dict[str, Tensor] = {}
    params["embed/token"] = w((config.vocab_size, d))
    params["rel/w_r"] = w((d, d))
    for prefix in config.layer_names():
        params[f"{prefix}/attn/w_q"] = w((d, d))
        params[f"{prefix}/attn/b_q"] = zeros((d,))
        params[f"{prefix}/attn/w_k"] = w((d, d))
        params[f"{prefix}/attn/b_k"] = zeros((d,))
        params[f"{prefix}/attn/w_v"] = w((d, d))
        params[f"{prefix}/attn/b_v"] = zeros((d,))
        params[f"{prefix}/attn/w_o"] = w((d, d))
        params[f"{prefix}/attn/b_o"] = zeros((d,))
        params[f"{prefix}/attn/u"] = w((d,))
        params[f"{prefix}/attn/v"] = w((d,))
        params[f"{prefix}/attn/ln_g"] = ones((d,))
        params[f"{prefix}/attn/ln_b"] = zeros((d,))
        params[f"{prefix}/ffn/w1"] = w((d, inner))
        params[f"{prefix}/ffn/b1"] = zeros((inner,))
        params[f"{prefix}/ffn/w2"] = w((inner, d))
        params[f"{prefix}/ffn/b2"] = zeros((d,))
        params[f"{prefix}/ffn/ln_g"] = ones((d,))
        params[f"{prefix}/ffn/ln_b"] = zeros((d,))
    return params


class FunnelModel:
    """A config plus its parameter tree, with the two forward entry points."""

    def __init__(self, config: ModelConfig, params: dict[str, Tensor] | None = None):
        self.config = config
        self.params = params if params is not None else build_params(config)

    def encode(self, token_ids: np.ndarray, pad_mask: np.ndarray | None = None,
               rng: Rng | None = None) -> EncoderState:
        """Encoder pass over one sequence [T] or a time-major batch [T, B] of ids.

        A 1-D sequence is a batch of one without the batch axis: its
        states come back as [T_m, D].
        """
        return encoder_forward(self.config, self.params, token_ids, pad_mask, rng=rng)

    def token_hidden(self, token_ids: np.ndarray, pad_mask: np.ndarray | None = None,
                     rng: Rng | None = None) -> Tensor:
        """Full-length hidden states for token-level objectives: [T, D] or [T, B, D].

        Funnel layouts go through fuse + decoder; a plain single-block
        stack is already full length, so its encoder output is used as is.
        """
        state = self.encode(token_ids, pad_mask, rng=rng)
        if len(self.config.layout.blocks) == 1 and self.config.layout.decoder_layers == 0:
            return state.h_last
        out = self.decode(state, pad_mask, rng=rng)
        return out.hidden

    def decode(self, state: EncoderState, pad_mask: np.ndarray | None = None,
               rng: Rng | None = None) -> DecoderOutput:
        return decoder_forward(state.h_first, state.h_last, self.config, self.params,
                               state.encoding, pad_mask, rng=rng)

    def trainable(self) -> list[tuple[str, Tensor]]:
        return sorted(self.params.items())


def sequence_logits(state: EncoderState, w: Tensor, b: Tensor) -> Tensor:
    """Sequence-level demo head: a linear layer on the CLS vector.

    The compressed final-block output keeps CLS at index 0, so downstream
    classification never needs the decoder.
    """
    cls = gather_rows(state.h_last, np.arange(1))
    return add(matmul(cls, w), b)


def generator_config(config: ModelConfig) -> ModelConfig:
    """Shrink a discriminator config into its generator: a quarter of the hidden size.

    The scaled hidden size may fall off the 64-wide head grid, in which
    case it becomes a single wide head.
    """
    gen_hidden = max(2, config.hidden // 4)
    if gen_hidden % 2:
        gen_hidden += 1
    heads = max(1, gen_hidden // 64)
    gen_layout = LayoutSpec(blocks=config.layout.blocks, hidden=gen_hidden,
                            decoder_layers=config.layout.decoder_layers,
                            pooled=config.layout.pooled,
                            head_dim=gen_hidden // heads)
    return replace(config, layout=gen_layout, seed=config.seed + 1)
