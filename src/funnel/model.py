"""Model configuration, parameter tree construction, and full forward passes.

Parameters live in a flat name -> Tensor mapping laid out by one table,
``param_specs``, which init, checkpoint checks and weight decay all read.
The positional-encoding projection ``rel/w_r`` is shared by all layers,
and the token embedding is tied to the output softmax.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, fields, replace
from typing import NamedTuple

import numpy as np

from .autodiff import DTYPES, Rng, Tensor, gather_rows, matmul
from .decoder import DecoderOutput, decoder_forward
from .encoder import POOL_OPS, EncoderState, encoder_forward
from .layout import HEAD_DIM, LayoutSpec, format_layout, parse_layout
from .relattn import LAYER_TENSORS, VARIANTS, LayerParams, RelPosEncoding

INIT_STD = 0.02


# Annotation -> accepted value types; "float" fields take ints too.  The
# layout is parsed instead.
_FIELD_TYPES = {"bool": bool, "int": int, "float": (int, float), "str": str}


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
        for f in fields(self):
            value, allowed = getattr(self, f.name), _FIELD_TYPES.get(f.type)
            # bool is an int subclass: only a bool field takes one
            if allowed and (not isinstance(value, allowed)
                            or isinstance(value, bool) != (f.type == "bool")):
                raise TypeError(f"{f.name} must be {f.type}, got {value!r}")
        if not isinstance(self.layout, LayoutSpec):
            self.layout = parse_layout(self.layout)
        for name, allowed in (("pool_op", POOL_OPS), ("attn_variant", VARIANTS),
                              ("dtype", tuple(DTYPES))):
            if getattr(self, name) not in allowed:
                raise ValueError(f"{name} must be one of {allowed}, got {getattr(self, name)!r}")
        if (self.pool_op == "top_attn" and self.pool_query_only
                and any(b.total_layers == 1 for b in self.layout.blocks[1:-1])):
            # a lone transition's map has unpooled keys: the next pooling cannot use it
            raise ValueError("top_attn pooling with pool_query_only needs at least two "
                             "layers in every block that is followed by pooling")
        if self.vocab_size < 5:
            raise ValueError("vocab_size must cover the five special tokens")
        for name in ("dropout", "attn_dropout"):
            if not 0.0 <= getattr(self, name) < 1.0:
                raise ValueError(f"{name} must be in [0,1), got {getattr(self, name)!r}")

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
        d = {f.name: getattr(self, f.name) for f in fields(self)}
        d["layout"] = format_layout(self.layout)
        return json.dumps(d, indent=2, sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "ModelConfig":
        return cls.from_dict(json.loads(text))

    @classmethod
    def from_dict(cls, d: dict) -> "ModelConfig":
        """Config from the fields of a parsed JSON object; unknown fields are refused."""
        unknown = set(d) - {f.name for f in fields(cls)}
        if unknown:
            raise ValueError(f"unknown config fields: {sorted(unknown)}")
        return cls(**d)

    # -- parameter tree -----------------------------------------------------

    def layer_params(self, params: dict, m: int, t: int) -> LayerParams:
        """Parameter set for layer ``t`` (0-based) of encoder block ``m``.

        Tied blocks reuse sets consecutively: set index is t // repeat.
        """
        s = self.layout.blocks[m].param_set_for_layer(t)
        return _layer_view(params, f"enc/b{m}/l{s}")

    def decoder_layer_params(self, params: dict, i: int) -> LayerParams:
        return _layer_view(params, f"dec/l{i}")


class ParamSpec(NamedTuple):
    """What ``build_params`` makes for one name, without drawing it."""

    shape: tuple[int, ...]
    dtype: np.dtype
    init: str  # "normal" (truncated, std INIT_STD), "zeros" or "ones"


def _layer_view(params: dict, prefix: str) -> LayerParams:
    return LayerParams(**{attr: params[f"{prefix}/{key}"] for attr, key, _, _ in LAYER_TENSORS},
                       w_r=params["rel/w_r"])


def param_specs(config: ModelConfig) -> dict[str, ParamSpec]:
    """Every parameter's shape, dtype and init by name, in ``build_params`` draw order."""
    dt = np.dtype(DTYPES[config.dtype])
    d = config.hidden
    size = {"d": d, "inner": config.layout.ffn_inner}
    specs = {"embed/token": ParamSpec((config.vocab_size, d), dt, "normal"),
             "rel/w_r": ParamSpec((d, d), dt, "normal")}
    prefixes = [f"enc/b{m}/l{s}" for m, block in enumerate(config.layout.blocks)
                for s in range(block.unique_layers)]
    prefixes += [f"dec/l{i}" for i in range(config.layout.decoder_layers)]
    for prefix in prefixes:
        for _, key, dims, init in LAYER_TENSORS:
            specs[f"{prefix}/{key}"] = ParamSpec(tuple(size[n] for n in dims), dt, init)
    return specs


def build_params(config: ModelConfig) -> dict[str, Tensor]:
    """Fresh parameter tree drawn in ``param_specs`` order; same seed, same model.

    Weights are truncated normal with std 0.02; biases and layer-norm
    shifts start at zero, layer-norm gains at one.
    """
    rng = Rng(config.seed)
    fill = {"normal": lambda shape, dtype: rng.truncated_normal(shape, INIT_STD, dtype),
            "zeros": np.zeros, "ones": np.ones}
    return {name: Tensor(fill[s.init](s.shape, dtype=s.dtype), requires_grad=True)
            for name, s in param_specs(config).items()}


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
    return matmul(cls, w, b)


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
