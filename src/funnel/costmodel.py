"""Analytical FLOPs and parameter accounting for layout comparisons.

Two FLOPs models:

* The *linear* model counts effective full-length layers: a layer running
  at half length costs half a layer, so a layout's cost is
  sum_m layers_m / 2^(m-1), plus one per decoder layer in pretrain mode.
  Ratios of these drive the relative-FLOPs comparison tables.
* The *exact* model counts multiply-adds per layer at that layer's true
  query/key lengths, including the quadratic attention terms, and doubles
  them (one multiply-add = 2 FLOPs).

The parameter inventory sums the shapes of the model's own table,
``model.param_specs``, so it is the built model's tensor tree.

Display convention for relative FLOPs, matching the published comparison
tables cell for cell: finetune-mode ratios round half up to 2 decimals,
pretrain-mode ratios truncate toward zero (e.g. 16/24 prints as 0.66).
Exact rational values are returned by the API; rounding is display-only.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, fields
from decimal import ROUND_DOWN, ROUND_HALF_UP, Decimal
from fractions import Fraction

from .corpus import SPECIALS
from .layout import FFN_MULTIPLIER, LayoutSpec, format_layout, is_pow2, layer_plan, parse_layout
from .model import ModelConfig, param_specs

MODES = ("finetune", "pretrain")
DEFAULT_VOCAB = 30522  # uncased wordpiece vocabulary size ("about 30K")
FLOPS_PER_MAC = 2


class CostModelError(ValueError):
    pass


def _as_layout(layout) -> LayoutSpec:
    return parse_layout(layout) if isinstance(layout, str) else layout


def _check_mode(mode: str) -> None:
    if mode not in MODES:
        raise CostModelError(f"mode must be one of {MODES}, got {mode!r}")


def effective_layers(layout, mode: str = "finetune") -> Fraction:
    """Full-length-layer equivalents: sum_m layers_m / 2^(m-1) (+ decoder)."""
    _check_mode(mode)
    layout = _as_layout(layout)
    total = Fraction(0)
    for m, block in enumerate(layout.blocks):
        total += Fraction(block.total_layers, 2 ** m)
    if mode == "pretrain":
        total += layout.decoder_layers
    return total


def flops_ratio(layout_a, layout_b, mode: str = "finetune") -> Fraction:
    """Linear-model relative cost of a versus b, as an exact rational."""
    a, b = _as_layout(layout_a), _as_layout(layout_b)
    if a.hidden != b.hidden:
        raise CostModelError(
            f"layouts must share a hidden size: {a.hidden} vs {b.hidden}")
    return effective_layers(a, mode) / effective_layers(b, mode)


def display_ratio(value: Fraction, mode: str = "finetune") -> str:
    """Publication-convention 2-decimal display (see module docstring)."""
    _check_mode(mode)
    d = Decimal(value.numerator) / Decimal(value.denominator)
    rounding = ROUND_HALF_UP if mode == "finetune" else ROUND_DOWN
    return str(d.quantize(Decimal("0.01"), rounding=rounding))


def layer_flops(q_len: int, k_len: int, hidden: int, variant: str = "factorized") -> int:
    """FLOPs of one attention + FFN layer at the given query/key lengths.

    Multiply-add counts, doubled at the end:
      projections   q and output at q_len, key and value at k_len
      content       scores q*k*D plus the weighted value sum
      position      per variant; factorized costs 2 q D^2 + 4 q k D FLOPs
      FFN           two matmuls FFN_MULTIPLIER * D wide at q_len

    Position-term costs follow the published single-head analysis (the
    width-D outer-product form); the per-head implementation of the
    factorized variant folds the two outer products into one width-D
    product per head, head-count / 2 times this count, which is the
    price it pays to avoid the gather.
    """
    d = hidden
    macs = 0
    macs += 2 * q_len * d * d + 2 * k_len * d * d      # Q,O and K,V projections
    macs += 2 * q_len * k_len * d                      # scores + weighted sum
    if variant == "factorized":
        macs += q_len * d * d + 2 * q_len * k_len * d  # encoding projection + 2 outer products
    elif variant == "gather":
        table = 2 * k_len - 1
        macs += table * d * d + q_len * table * d      # table projection + full product
        macs += (q_len * k_len + 1) // 2               # the gather itself, 2 lookups ~ 1 MAC
    elif variant == "naive":
        macs += q_len * k_len * d * d + q_len * k_len * d
    else:
        raise CostModelError(f"unknown attention variant {variant!r}")
    macs += 2 * q_len * d * (FFN_MULTIPLIER * d)       # FFN in and out
    return FLOPS_PER_MAC * macs


def flops_exact(layout, seq_len: int, mode: str = "finetune",
                variant: str = "factorized") -> int:
    """Exact FLOPs for one forward pass at length ``seq_len``.

    ``layer_flops`` summed over the layer plan at the encoder's defaults,
    separate CLS and truncation on (block lengths halve, never below 1);
    decoder layers in pretrain mode only, no embedding or softmax.
    """
    _check_mode(mode)
    layout = _as_layout(layout)
    if not is_pow2(seq_len):
        raise CostModelError(f"sequence length {seq_len} must be a power of two")
    return sum(layer_flops(run.q_len, run.k_len, layout.hidden, variant)
               for run in layer_plan(layout, seq_len, True, True, True)
               if mode == "pretrain" or run.kind != "decoder")


@dataclass(frozen=True)
class CostReport:
    """Full cost accounting of one layout at one mode and length."""

    layout: str
    mode: str
    seq_len: int
    params_total: int
    params_transformer: int
    params_embedding: int
    params_shared: int
    effective_layers: Fraction
    flops_exact: int

    def to_dict(self) -> dict:
        """Fields in order; a Fraction is [numerator, denominator] then ``<name>_float``."""
        d = {}
        for f in fields(self):
            value = getattr(self, f.name)
            if isinstance(value, Fraction):
                d[f.name] = [value.numerator, value.denominator]
                d[f"{f.name}_float"] = float(value)
            else:
                d[f.name] = value
        return d


def param_count(layout, vocab: int = DEFAULT_VOCAB, mode: str = "finetune") -> dict:
    """Sizes of the model's parameter table: embedding ``embed/token``, shared
    ``rel/w_r``, and as transformer every ``enc/`` tensor and, in pretrain
    mode only, every ``dec/`` one."""
    _check_mode(mode)
    layout = _as_layout(layout)
    if vocab < len(SPECIALS):
        raise CostModelError(f"vocab must cover the {len(SPECIALS)} special tokens, got {vocab}")
    sizes = {name: math.prod(spec.shape) for name, spec
             in param_specs(ModelConfig(layout=layout, vocab_size=vocab)).items()
             if mode == "pretrain" or not name.startswith("dec/")}
    embedding, shared = sizes.pop("embed/token"), sizes.pop("rel/w_r")
    transformer = sum(sizes.values())
    return {
        "params_transformer": transformer,
        "params_embedding": embedding,
        "params_shared": shared,
        "params_total": transformer + embedding + shared,
    }


def cost_report(layout, seq_len: int = 512, mode: str = "finetune",
                vocab: int = DEFAULT_VOCAB) -> CostReport:
    layout = _as_layout(layout)
    return CostReport(
        layout=format_layout(layout),
        mode=mode,
        seq_len=seq_len,
        **param_count(layout, vocab, mode),
        effective_layers=effective_layers(layout, mode),
        flops_exact=flops_exact(layout, seq_len, mode),
    )


def compare_report(layouts, baseline, seq_len: int = 512, mode: str = "finetune",
                   vocab: int = DEFAULT_VOCAB, fmt: str = "text") -> str:
    """Ratio table of the given layouts against a shared-hidden baseline.

    Columns: linear-model FLOPs ratio (publication display convention),
    exact-model FLOPs ratio, and total-parameter ratio.
    """
    layouts = list(layouts)
    if not layouts:
        raise CostModelError("no layouts to compare")
    base = _as_layout(baseline)
    rows = []
    base_exact = flops_exact(base, seq_len, mode)
    base_params = param_count(base, vocab, mode)["params_total"]
    for layout in layouts:
        spec = _as_layout(layout)
        ratio = flops_ratio(spec, base, mode)
        exact_ratio = Fraction(flops_exact(spec, seq_len, mode), base_exact)
        params_ratio = Fraction(param_count(spec, vocab, mode)["params_total"], base_params)
        rows.append({
            "layout": format_layout(spec),
            "flops_ratio_linear": display_ratio(ratio, mode),
            "flops_ratio_exact": display_ratio(exact_ratio, "finetune"),
            "params_ratio": display_ratio(params_ratio, "finetune"),
        })
    if fmt == "json":
        return json.dumps({"baseline": format_layout(base), "mode": mode,
                           "seq_len": seq_len, "rows": rows}, indent=2)
    if fmt != "text":
        raise CostModelError(f"format must be text or json, got {fmt!r}")
    headers = list(rows[0])
    widths = {h: max(len(h), *(len(r[h]) for r in rows)) for h in headers}
    lines = ["  ".join(h.ljust(widths[h]) for h in headers)]
    lines.append("  ".join("-" * widths[h] for h in headers))
    for r in rows:
        lines.append("  ".join(r[h].ljust(widths[h]) for h in headers))
    lines.append(f"baseline: {format_layout(base)}  mode: {mode}")
    return "\n".join(lines)
