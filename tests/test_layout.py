"""Layout string grammar: parsing, validation, derived dimensions, round-trips."""

import pytest
from hypothesis import given, strategies as st

from funnel.layout import BlockSpec, LayoutError, LayoutSpec, format_layout, parse_layout


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
        assert spec.unique_encoder_layers == 12

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
    ])
    def test_malformed_reports_offset(self, bad, offset):
        with pytest.raises(LayoutError) as e:
            parse_layout(bad)
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

    def test_hidden_narrower_than_a_head_rejected(self):
        with pytest.raises(LayoutError, match="hidden size 4 holds no 8-wide"):
            LayoutSpec(blocks=(BlockSpec(1),), hidden=4, head_dim=8)


class TestDerived:
    def test_block_lengths_halve(self):
        spec = parse_layout("B2-2-2H64")
        assert [spec.block_length(m, 16) for m in range(3)] == [16, 8, 4]
        assert [spec.block_length(m, 2) for m in range(3)] == [2, 1, 1]

    def test_consecutive_tying_assignment(self):
        block = BlockSpec(3, 2)
        assert [block.param_set_for_layer(t) for t in range(6)] == [0, 0, 1, 1, 2, 2]

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
    assert spec.unique_encoder_layers == 8 + 4 + 2
