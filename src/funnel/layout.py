"""Architecture layout strings: parsing, validation, derived dimensions.

Grammar (case sensitive, no whitespace):

    layout  := "L" int "H" int
             | "B" spec ("-" spec)* "H" int ("D" int)?
    spec    := int | int "x" int

``L12H768`` is a plain 12-layer stack (one block, no pooling, no decoder).
``B6-3x2-3x2H768D2`` is a three-block funnel whose second and third blocks
each hold 3 unique parameter sets reused 2x consecutively, with a 2-layer
decoder.  Hidden size must be a multiple of 64 because the attention head
width is fixed at 64.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from typing import NamedTuple

HEAD_DIM = 64
FFN_MULTIPLIER = 4


class LayoutError(ValueError):
    """Malformed or invalid layout string; carries the byte offset."""

    def __init__(self, message: str, offset: int | None = None):
        self.offset = offset
        if offset is not None:
            message = f"{message} (byte offset {offset})"
        super().__init__(message)


@dataclass(frozen=True)
class BlockSpec:
    """One encoder block: ``unique_layers`` parameter sets, each reused ``repeat`` times."""

    unique_layers: int
    repeat: int = 1

    def __post_init__(self):
        if self.unique_layers < 1 or self.repeat < 1:
            raise LayoutError(f"block {self.unique_layers}x{self.repeat} must be >= 1x1")

    @property
    def total_layers(self) -> int:
        return self.unique_layers * self.repeat


@dataclass(frozen=True)
class LayoutSpec:
    """Parsed layout plus all derived dimensions.

    Every layout built from a string uses the fixed 64-wide attention
    heads; ``head_dim`` can only differ for programmatically constructed
    specs (tiny test models, scaled-down generators).
    """

    blocks: tuple[BlockSpec, ...]
    hidden: int
    decoder_layers: int = 0
    pooled: bool = True  # False for plain L-form layouts
    head_dim: int = HEAD_DIM
    # derived
    heads: int = field(init=False)
    ffn_inner: int = field(init=False)

    def __post_init__(self):
        if not self.blocks:
            raise LayoutError("layout needs at least one block")
        if not 1 <= self.head_dim <= self.hidden:
            raise LayoutError(
                f"hidden size {self.hidden} holds no {self.head_dim}-wide attention head")
        if self.hidden % self.head_dim != 0:
            raise LayoutError(f"hidden size {self.hidden} not divisible by {self.head_dim}")
        if self.decoder_layers < 0:
            raise LayoutError("decoder layer count must be >= 0")
        object.__setattr__(self, "heads", self.hidden // self.head_dim)
        object.__setattr__(self, "ffn_inner", FFN_MULTIPLIER * self.hidden)


def is_pow2(n: int) -> bool:
    return n >= 1 and (n & (n - 1)) == 0


def pooled_length(t: int, separate_cls: bool, truncate: bool) -> int:
    """Rows one pooling step leaves of ``t`` rows: one per window of two.

    With ``separate_cls`` CLS is a window alone (one row passes through), so
    2^p rows pool to 2^(p-1)+1 unless ``truncate`` drops the last."""
    if separate_cls and t <= 1:
        return t
    cls, drop = int(separate_cls), int(separate_cls and truncate and is_pow2(t))
    return (t + cls - drop + 1) // 2


class LayerRun(NamedTuple):
    """One layer of a forward pass: its weights, its role and its padded lengths."""

    prefix: str  # parameter-name prefix, shared by the runs of a tied set
    kind: str    # "layer", "transition" (pooled queries) or "decoder"
    q_len: int
    k_len: int


def layer_plan(layout: LayoutSpec, seq_len: int, separate_cls: bool, truncate: bool,
               pool_query_only: bool) -> list[LayerRun]:
    """Every layer a forward pass over ``seq_len`` rows runs, in order.

    Block m > 0 opens with a transition: pooled queries over the previous
    block's keys, or over the pooled rows with ``pool_query_only`` off.  A tied
    block runs its sets in turn, 3x2 as 0, 0, 1, 1, 2, 2; decoder layers run
    at full length."""
    runs, t = [], seq_len
    for m, block in enumerate(layout.blocks):
        k, t = t, pooled_length(t, separate_cls, truncate) if m else t
        runs.append(LayerRun(f"enc/b{m}/l0", "transition" if m else "layer", t,
                             k if pool_query_only else t))
        runs += [LayerRun(f"enc/b{m}/l{i // block.repeat}", "layer", t, t)
                 for i in range(1, block.total_layers)]
    return runs + [LayerRun(f"dec/l{i}", "decoder", seq_len, seq_len)
                   for i in range(layout.decoder_layers)]


_INT_RE = re.compile(r"\d+")


def _read_int(s: str, pos: int, what: str) -> tuple[int, int]:
    m = _INT_RE.match(s, pos)
    if m is None:
        raise LayoutError(f"expected {what} in {s!r}", pos)
    return int(m.group()), m.end()


def parse_layout(s: str) -> LayoutSpec:
    """Parse a layout string, reporting the byte offset of the first bad character."""
    if not s:
        raise LayoutError("empty layout string", 0)
    if s[0] not in "LB":
        raise LayoutError(f"layout must start with 'L' or 'B', got {s[0]!r}", 0)
    pooled = s[0] == "B"
    if pooled:  # each block follows the 'B' or a '-', and is checked as it is read
        blocks, pos = [], 0
        while pos == 0 or pos < len(s) and s[pos] == "-":
            unique, pos = _read_int(s, pos + 1, "block layer count")
            repeat = 1
            if pos < len(s) and s[pos] == "x":
                repeat, pos = _read_int(s, pos + 1, "tying multiplier")
            blocks.append(BlockSpec(unique, repeat))
    else:
        layers, pos = _read_int(s, 1, "layer count")
    if pos >= len(s) or s[pos] != "H":
        raise LayoutError(f"expected 'H<hidden>' in {s!r}", pos)
    hidden, pos = _read_int(s, pos + 1, "hidden size")
    decoder = 0
    if pooled and pos < len(s):
        if s[pos] != "D":
            raise LayoutError(f"unexpected character {s[pos]!r} in {s!r}", pos)
        decoder, pos = _read_int(s, pos + 1, "decoder depth")
    if pos != len(s):
        raise LayoutError(f"trailing characters in {s!r}", pos)
    # the L form's one block is checked only once the whole string has parsed
    return LayoutSpec(blocks=tuple(blocks) if pooled else (BlockSpec(layers),), hidden=hidden,
                      decoder_layers=decoder, pooled=pooled)


def format_layout(spec: LayoutSpec) -> str:
    """Inverse of parse_layout: parse(format(x)) == x for every valid spec."""
    if not spec.pooled:
        return f"L{spec.blocks[0].unique_layers}H{spec.hidden}"
    parts = [str(b.unique_layers) if b.repeat == 1 else f"{b.unique_layers}x{b.repeat}"
             for b in spec.blocks]
    s = "B" + "-".join(parts) + f"H{spec.hidden}"
    if spec.decoder_layers:
        s += f"D{spec.decoder_layers}"
    return s
