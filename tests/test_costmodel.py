"""Analytical cost model: effective layers, ratio tables, parameter inventory."""

import json
from fractions import Fraction

import numpy as np
import pytest

from funnel.costmodel import (CostModelError, compare_report, cost_report,
                              display_ratio, effective_layers, flops_exact,
                              flops_ratio, layer_flops, param_count)
from funnel.layout import BlockSpec, LayoutSpec, layer_plan, parse_layout
from funnel.model import FunnelModel, ModelConfig, build_params


def per_layer(d):
    """One layer's parameters in closed form: packed QKVO with biases (4 D^2 + 4 D),
    u and v (2 D), the 4D FFN with biases (8 D^2 + 5 D), two norm pairs (4 D)."""
    return 12 * d * d + 15 * d


class TestEffectiveLayers:
    def test_three_block_base(self):
        assert effective_layers("B6-6-6H768") == Fraction(21, 2)

    def test_plain_stack(self):
        assert effective_layers("L12H768") == 12

    def test_geometric_sum(self):
        assert effective_layers("B8-8-8H1024") == 8 + 4 + 2

    def test_pretrain_adds_decoder(self):
        assert effective_layers("B6-6-6H768D2", "pretrain") == Fraction(25, 2)
        assert effective_layers("B6-6-6H768D2", "finetune") == Fraction(21, 2)

    def test_tying_does_not_change_flops(self):
        assert effective_layers("B6-3x2-3x2H768") == effective_layers("B6-6-6H768")


class TestRatios:
    @pytest.mark.parametrize("a,b,expected", [
        ("B10-10-10H1024", "L24H1024", "0.73"),
        ("B8-8-8H1024", "L24H1024", "0.58"),
        ("B6-6-6H768", "L12H768", "0.88"),
        ("B6-3x2-3x2H768", "L12H768", "0.88"),
        ("B4-4-4H768", "L12H768", "0.58"),
        ("B3-4-4H768", "L6H768", "1.00"),
    ])
    def test_finetune_table_cells(self, a, b, expected):
        assert display_ratio(flops_ratio(a, b, "finetune"), "finetune") == expected

    @pytest.mark.parametrize("a,b,expected", [
        ("B6-6-6H768D2", "L12H768", "1.04"),
        ("B6-3x2-3x2H768D2", "L12H768", "1.04"),
        ("B4-4-4H768D2", "L12H768", "0.75"),
        ("B10-10-10H1024D2", "L24H1024", "0.81"),
        ("B8-8-8H1024D2", "L24H1024", "0.66"),
    ])
    def test_pretrain_table_cells(self, a, b, expected):
        assert display_ratio(flops_ratio(a, b, "pretrain"), "pretrain") == expected

    def test_mixed_hidden_rejected(self):
        with pytest.raises(CostModelError):
            flops_ratio("B6-6-6H768", "L24H1024")

    def test_self_ratio_is_one(self):
        assert flops_ratio("L6H768", "L6H768") == 1

    def test_block_count_study_cells(self):
        # two- and four-block alternatives measured against the three-block
        # default at width 512: FLOPs 1.14x / 0.89x, params 0.91x / 1.08x
        base = "B6-6-6H512"
        assert display_ratio(flops_ratio("B8-8H512", base), "finetune") == "1.14"
        assert display_ratio(flops_ratio("B5-5-5-5H512", base), "finetune") == "0.89"
        pb = param_count(base)["params_total"]
        assert abs(param_count("B8-8H512")["params_total"] / pb - 0.91) <= 0.02
        assert abs(param_count("B5-5-5-5H512")["params_total"] / pb - 1.08) <= 0.02


class TestFlopsExact:
    def test_single_layer_hand_count(self):
        # q=k=1, D=64, factorized: MACs = 4*64^2 (projections) + 2*64
        # (scores+sum) + 64^2 + 2*64 (position) + 8*64^2 (FFN), all doubled
        d = 64
        macs = 4 * d * d + 2 * d + (d * d + 2 * d) + 8 * d * d
        assert layer_flops(1, 1, d, "factorized") == 2 * macs
        assert flops_exact("L1H64", 1) == 2 * macs

    def test_superlinear_in_length(self):
        assert flops_exact("L2H128", 256) > 2 * flops_exact("L2H128", 128)

    def test_linear_in_layer_count(self):
        one = flops_exact("L1H64", 64)
        assert flops_exact("L4H64", 64) == 4 * one

    def test_self_ratio(self):
        assert flops_exact("L1H64", 64) / flops_exact("L1H64", 64) == 1.0

    def test_funnel_cheaper_than_equal_depth_stack(self):
        assert flops_exact("B6-6-6H768", 512) < flops_exact("L18H768", 512)

    @pytest.mark.parametrize("variant,macs", [
        ("factorized", 352 + 144),        # + q D^2 + 2 q k D
        ("gather", 352 + 180 + 16),       # + (2k - 1) D^2 + q (2k - 1) D, + ceil(q k / 2)
        ("naive", 352 + 192),             # + q k D^2 + q k D
    ])
    def test_position_term_per_variant(self, variant, macs):
        # q = 4, k = 8, D = 2: projections 96, scores and sum 128, FFN 128 MACs
        assert layer_flops(4, 8, 2, variant) == 2 * macs

    def test_non_power_of_two_rejected(self):
        with pytest.raises(CostModelError):
            flops_exact("L2H64", 24)

    def test_transition_layer_uses_unpooled_keys(self):
        # a 2-block funnel costs more than the same layers all run pooled,
        # because its transition layer reads full-length keys
        funnel = flops_exact("B1-1H64", 64)
        all_short = layer_flops(64, 64, 64) + layer_flops(32, 32, 64)
        assert funnel == layer_flops(64, 64, 64) + layer_flops(32, 64, 64)
        assert funnel > all_short

    @pytest.mark.parametrize("layout", ["B1-1H64", "B2-1-1H64"])
    @pytest.mark.parametrize("t", [1, 2, 4, 8])
    def test_block_lengths_are_the_encoders(self, layout, t):
        # pooling passes a length-1 state through, so no block runs empty
        config = ModelConfig(layout=layout, vocab_size=11)
        state = FunnelModel(config).encode(np.full(t, 5))
        lengths = [h.shape[0] for h in state.block_hidden]
        keys = lengths[:1] + lengths[:-1]
        expected = sum(layer_flops(q, k, 64) + (b.total_layers - 1) * layer_flops(q, q, 64)
                       for q, k, b in zip(lengths, keys, config.layout.blocks))
        assert flops_exact(layout, t) == expected

    def test_separate_cls_ratio_summed_over_the_plan(self):
        # README's separate-CLS paragraph quotes these pretrain-mode ratios:
        # truncation off (blocks of T, T/2+1, T/4+1) against on
        spec = parse_layout("B4-4-4H256D2")

        def flops(t, truncate):
            return sum(layer_flops(run.q_len, run.k_len, 256)
                       for run in layer_plan(spec, t, True, truncate, True))

        assert flops(128, True) == flops_exact(spec, 128, "pretrain")
        assert round(flops(128, False) / flops(128, True), 4) == 1.0067
        assert round(flops(512, False) / flops(512, True), 4) == 1.0017


class TestParams:
    def test_per_layer_closed_form(self):
        # one layer of L1H768 is the transformer count
        assert param_count("L1H768")["params_transformer"] == 12 * 768 * 768 + 15 * 768

    @pytest.mark.parametrize("layout,unique,decoder", [
        ("B6-3x2-3x2H768", 12, 0), ("B6-6-6H768", 18, 0), ("L12H768", 12, 0),
        ("B2-2H128D2", 4, 2), ("B2-1x2-2H64D2", 5, 2),
    ])
    @pytest.mark.parametrize("mode", ["finetune", "pretrain"])
    @pytest.mark.parametrize("vocab", [5, 37, 30522])
    def test_closed_form_grid(self, layout, unique, decoder, mode, vocab):
        # unique layers x (12 D^2 + 15 D) + V x D + D x D; decoder layers in pretrain only
        d = parse_layout(layout).hidden
        layers = unique + (decoder if mode == "pretrain" else 0)
        assert param_count(layout, vocab, mode) == {
            "params_transformer": layers * per_layer(d),
            "params_embedding": vocab * d,
            "params_shared": d * d,
            "params_total": layers * per_layer(d) + vocab * d + d * d,
        }

    def test_transformer_ratio_exactly_1_5(self):
        a = param_count("B6-6-6H768")
        b = param_count("L12H768")
        assert a["params_transformer"] * 2 == b["params_transformer"] * 3

    @pytest.mark.parametrize("a,b,target", [
        ("B10-10-10H1024", "L24H1024", 1.22),
        ("B8-8-8H1024", "L24H1024", 1.00),
        ("B6-6-6H768", "L12H768", 1.39),
        ("B6-3x2-3x2H768", "L12H768", 1.00),
        ("B4-4-4H768", "L12H768", 1.00),
        ("B3-4-4H768", "L6H768", 1.53),
    ])
    def test_total_ratio_within_tolerance(self, a, b, target):
        ratio = param_count(a)["params_total"] / param_count(b)["params_total"]
        assert abs(ratio - target) <= 0.02

    def test_pretrain_counts_decoder(self):
        ft = param_count("B2-2H128D2", mode="finetune")
        pt = param_count("B2-2H128D2", mode="pretrain")
        assert pt["params_transformer"] - ft["params_transformer"] == 2 * per_layer(128)

    def test_matches_built_model_exactly(self):
        # the inventory is not an estimate: it equals the real tensor tree
        layout = LayoutSpec(blocks=(BlockSpec(2), BlockSpec(3, 2)), hidden=64,
                            decoder_layers=2)
        config = ModelConfig(layout=layout, vocab_size=37, seed=0)
        params = build_params(config)
        actual = sum(int(np.prod(p.shape)) for p in params.values())
        assert param_count(layout, vocab=37, mode="pretrain")["params_total"] == actual

    def test_tied_blocks_count_unique_only(self):
        tied = param_count("B6-3x2-3x2H768")["params_transformer"]
        untied = param_count("B6-6-6H768")["params_transformer"]
        assert tied == 12 * per_layer(768)
        assert untied == 18 * per_layer(768)

    @pytest.mark.parametrize("call,match", [
        (lambda: effective_layers("L12H768", mode="train"), "mode must be one of"),
        (lambda: compare_report([], "L12H768"), "no layouts to compare"),
        (lambda: compare_report(["L12H768"], "L12H768", fmt="csv"), "format must be text or json"),
        (lambda: layer_flops(4, 8, 2, "flash"), "unknown attention variant"),
    ], ids=["mode", "no_layouts", "format", "variant"])
    def test_argument_refused(self, call, match):
        with pytest.raises(CostModelError, match=match):
            call()

    def test_bad_vocab_rejected(self):
        # below the 5 special tokens ModelConfig refuses the model: nothing to count
        for vocab in (-1, 0, 1, 4):
            with pytest.raises(CostModelError, match="special tokens"):
                param_count("L1H64", vocab=vocab)


class TestCompareReport:
    def test_base_group_text(self):
        out = compare_report(["B6-6-6H768", "B6-3x2-3x2H768", "B4-4-4H768"],
                             "L12H768")
        cells = [line.split()[1] for line in out.splitlines()[2:5]]
        assert cells == ["0.88", "0.88", "0.58"]

    def test_large_group(self):
        out = compare_report(["B10-10-10H1024", "B8-8-8H1024"], "L24H1024")
        cells = [line.split()[1] for line in out.splitlines()[2:4]]
        assert cells == ["0.73", "0.58"]

    def test_small_group(self):
        out = compare_report(["B3-4-4H768"], "L6H768")
        assert out.splitlines()[2].split()[1] == "1.00"

    def test_pretrain_group_json(self):
        out = json.loads(compare_report(
            ["B6-6-6H768D2", "B6-3x2-3x2H768D2", "B4-4-4H768D2"], "L12H768",
            mode="pretrain", fmt="json"))
        assert [r["flops_ratio_linear"] for r in out["rows"]] == ["1.04", "1.04", "0.75"]

    def test_json_schema_stable(self):
        out = json.loads(compare_report(["B2-2H64"], "L2H64", fmt="json"))
        assert set(out) == {"baseline", "mode", "seq_len", "rows"}
        assert set(out["rows"][0]) == {"layout", "flops_ratio_linear",
                                       "flops_ratio_exact", "params_ratio"}


def test_cost_report_fields():
    r = cost_report("B6-6-6H768D2", seq_len=512, mode="pretrain")
    assert r.effective_layers == Fraction(25, 2)
    d = r.to_dict()
    assert d["effective_layers"] == [25, 2]
    assert d["params_total"] == r.params_total
