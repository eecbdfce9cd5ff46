"""Layout string grammar: parsing, validation, derived dimensions, round-trips."""

import pytest
from hypothesis import given, strategies as st

from funnel.layout import (BlockSpec, LayoutError, LayoutSpec, format_layout, layer_plan,
                           parse_layout, pooled_length)


def unique_encoder_sets(spec):
    """Parameter sets the encoder's runs use: one per distinct prefix."""
    return len({run.prefix for run in layer_plan(spec, 1, False, False, True)
                if run.kind != "decoder"})


def block_lengths(spec, t, separate_cls=True, truncate=True):
    """Each encoder block's length: the query length of its first run."""
    runs = layer_plan(spec, t, separate_cls, truncate, True)
    return [runs[0].q_len] + [run.q_len for run in runs if run.kind == "transition"]


class TestParse:
    def test_three_block_base(self):
        spec = parse_layout("B6-6-6H768")
        assert [(b.unique_layers, b.repeat) for b in spec.blocks] == [(6, 1)] * 3
        assert spec.hidden == 768
        assert spec.heads == 12
        assert spec.ffn_inner == 3072
        assert spec.decoder_layers == 0

    def test_tied_blocks_with_decoder(self):
        spec = parse_layout("B6-3x2-3x2H768D2")
        assert [(b.unique_layers, b.repeat) for b in spec.blocks] == [(6, 1), (3, 2), (3, 2)]
        assert spec.hidden == 768
        assert spec.decoder_layers == 2
        assert sum(b.total_layers for b in spec.blocks) == 18
        assert unique_encoder_sets(spec) == 12

    def test_plain_stack(self):
        spec = parse_layout("L12H768")
        assert len(spec.blocks) == 1
        assert not spec.pooled
        assert spec.blocks[0].total_layers == 12
        assert spec.decoder_layers == 0

    def test_hidden_not_multiple_of_64(self):
        with pytest.raises(LayoutError, match="770"):
            parse_layout("B6-6H770")

    @pytest.mark.parametrize("bad,offset", [
        ("B6-6XH768", 4),
        ("", 0),
        ("X12H768", 0),
        ("B6-", 3),
        ("L12", 3),
        ("B6-6H768D", 9),
        ("B6-6H768D2x", 10),
        ("b6-6h768", 0),
        ("L12H768x", 7),
        ("B6-6H768X", 8),
    ])
    def test_malformed_reports_offset(self, bad, offset):
        with pytest.raises(LayoutError) as e:
            parse_layout(bad)
        assert e.value.offset == offset

    @pytest.mark.parametrize("bad,message,offset", [
        ("L0", "expected 'H<hidden>'", 2),          # the L form's block waits for the whole string
        ("L0H64", "block 0x1 must be >= 1x1", None),
        ("B0-x", "block 0x1 must be >= 1x1", None),  # a B block is refused as it is read
        ("Lx", "expected layer count", 1),
        ("Bx", "expected block layer count", 1),
    ])
    def test_refusal_precedence(self, bad, message, offset):
        with pytest.raises(LayoutError) as e:
            parse_layout(bad)
        assert message in str(e.value)
        assert e.value.offset == offset

    def test_case_sensitive_tying_marker(self):
        with pytest.raises(LayoutError):
            parse_layout("B3X2H64")

    def test_zero_block_rejected(self):
        with pytest.raises(LayoutError):
            parse_layout("B0H64")

    @pytest.mark.parametrize("text", ["L1H0", "B2-2H0D1"])
    def test_no_attention_head_rejected(self, text):
        with pytest.raises(LayoutError, match="hidden size 0 holds no 64-wide attention head"):
            parse_layout(text)

    @pytest.mark.parametrize("kw,match", [
        (dict(blocks=()), "at least one block"),
        (dict(decoder_layers=-1), "decoder layer count must be >= 0"),
    ])
    def test_spec_fields_checked(self, kw, match):
        with pytest.raises(LayoutError, match=match):
            LayoutSpec(**{"blocks": (BlockSpec(1),), "hidden": 64, **kw})

    def test_hidden_narrower_than_a_head_rejected(self):
        with pytest.raises(LayoutError, match="hidden size 4 holds no 8-wide"):
            LayoutSpec(blocks=(BlockSpec(1),), hidden=4, head_dim=8)


class TestDerived:
    def test_block_lengths_halve(self):
        spec = parse_layout("B2-2-2H64")
        assert block_lengths(spec, 16) == [16, 8, 4]
        assert block_lengths(spec, 2) == [2, 1, 1]

    def test_consecutive_tying_assignment(self):
        spec = LayoutSpec(blocks=(BlockSpec(3, 2),), hidden=64)
        assert [run.prefix for run in layer_plan(spec, 8, True, True, True)] == [
            f"enc/b0/l{s}" for s in (0, 0, 1, 1, 2, 2)]

    def test_head_dim_override_for_programmatic_specs(self):
        spec = LayoutSpec(blocks=(BlockSpec(2),), hidden=16, head_dim=8)
        assert spec.heads == 2


class TestFormat:
    def test_plain_blocks(self):
        assert format_layout(parse_layout("B6-6-6H768")) == "B6-6-6H768"

    def test_decoder_suffix(self):
        assert format_layout(parse_layout("B4-4H128D2")) == "B4-4H128D2"

    def test_tied_segment(self):
        assert format_layout(parse_layout("B6-3x2H256")) == "B6-3x2H256"


block_strategy = st.builds(
    BlockSpec,
    unique_layers=st.integers(min_value=1, max_value=24),
    repeat=st.integers(min_value=1, max_value=4),
)


@given(
    blocks=st.lists(block_strategy, min_size=1, max_size=5),
    hidden=st.sampled_from([64, 128, 512, 768, 1024]),
    decoder=st.integers(min_value=0, max_value=4),
)
def test_roundtrip_property(blocks, hidden, decoder):
    spec = LayoutSpec(blocks=tuple(blocks), hidden=hidden, decoder_layers=decoder)
    assert parse_layout(format_layout(spec)) == spec


@given(layers=st.integers(min_value=1, max_value=48),
       hidden=st.sampled_from([64, 448, 768]))
def test_roundtrip_plain_form(layers, hidden):
    spec = LayoutSpec(blocks=(BlockSpec(layers),), hidden=hidden, pooled=False)
    assert parse_layout(format_layout(spec)) == spec


def test_total_vs_unique_layer_accounting():
    spec = parse_layout("B8-4x2-2x4H64")
    assert sum(b.total_layers for b in spec.blocks) == 8 + 8 + 8
    assert unique_encoder_sets(spec) == 8 + 4 + 2


class TestLayerPlan:
    def test_runs_in_order(self):
        runs = layer_plan(parse_layout("B2-1x2H64D2"), 16, True, True, True)
        assert runs == [("enc/b0/l0", "layer", 16, 16), ("enc/b0/l1", "layer", 16, 16),
                        ("enc/b1/l0", "transition", 8, 16), ("enc/b1/l0", "layer", 8, 8),
                        ("dec/l0", "decoder", 16, 16), ("dec/l1", "decoder", 16, 16)]

    def test_plain_stack_has_no_transition(self):
        runs = layer_plan(parse_layout("L3H64"), 12, True, False, True)
        assert [run.kind for run in runs] == ["layer"] * 3
        assert {(run.q_len, run.k_len) for run in runs} == {(12, 12)}

    @pytest.mark.parametrize("t,separate_cls,truncate,rows", [
        (512, True, False, 257), (512, True, True, 256), (512, False, False, 256),
        (257, True, True, 129), (257, False, True, 129), (12, True, True, 7),
        (2, True, False, 2), (2, True, True, 1), (1, True, True, 1), (1, False, False, 1),
    ])
    def test_pooled_length(self, t, separate_cls, truncate, rows):
        assert pooled_length(t, separate_cls, truncate) == rows

    def test_paper_separate_cls_lengths(self):
        # CLS out of pooling, no truncation: 2^p rows pool to 2^(p-1)+1
        spec = parse_layout("B4-4-4H256D2")
        transitions = [(run.q_len, run.k_len) for run in layer_plan(spec, 512, True, False, True)
                       if run.kind == "transition"]
        assert transitions == [(257, 512), (129, 257)]
        assert block_lengths(spec, 128, truncate=False) == [128, 65, 33]
        assert block_lengths(spec, 128) == [128, 64, 32]
