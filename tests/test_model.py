"""Model assembly: config JSON, parameter tree, tying, determinism."""

from dataclasses import fields

import numpy as np
import pytest

from funnel.model import FunnelModel, ModelConfig, build_params, generator_config, param_specs
from funnel.relattn import LAYER_TENSORS, LayerParams


class TestConfig:
    def test_json_roundtrip(self):
        cfg = ModelConfig(layout="B6-3x2-3x2H768D2", vocab_size=100, pool_op="max",
                          pool_query_only=False, separate_cls=False, truncate_seq=False,
                          attn_variant="gather", dropout=0.1, attn_dropout=0.05,
                          dtype="f32", seed=9)
        again = ModelConfig.from_json(cfg.to_json())
        assert again.layout == cfg.layout
        assert again.pool_op == "max"
        assert again.attn_variant == "gather"
        assert again.dtype == "f32"
        assert not again.separate_cls

    def test_unknown_field_rejected(self):
        with pytest.raises(ValueError, match="unknown config fields"):
            ModelConfig.from_json('{"layout": "L1H64", "vocab_size": 10, "extra": 1}')

    @pytest.mark.parametrize("field,value", [
        ("pool_op", "median"),
        ("attn_variant", "flash"),
        ("dtype", "f16"),
        ("vocab_size", 3),
        ("dropout", 1.5),
        ("dropout", 1.0),
        ("attn_dropout", -0.1),
    ])
    def test_invalid_values_rejected(self, field, value):
        kw = dict(layout="L1H64", vocab_size=10)
        kw[field] = value
        with pytest.raises(ValueError):
            ModelConfig(**kw)

    @pytest.mark.parametrize("field,value", [
        ("separate_cls", "no"), ("truncate_seq", 1), ("pool_query_only", None),
        ("seed", "x"), ("seed", True), ("vocab_size", 20.5), ("vocab_size", "20"),
        ("dropout", "0.1"), ("attn_dropout", False), ("pool_op", 3), ("dtype", None),
    ])
    def test_field_types_checked(self, field, value):
        kw = dict(layout="L1H64", vocab_size=10)
        kw[field] = value
        with pytest.raises(TypeError, match=f"{field} must be"):
            ModelConfig(**kw)

    def test_float_fields_take_ints(self):
        config = ModelConfig(layout="L1H64", vocab_size=10, dropout=0, attn_dropout=0)
        assert config.dropout == 0 and config.attn_dropout == 0

    @pytest.mark.parametrize("layout", ["B2-1-2H64D2", "B1-1-1H64D1", "B2-1-1-2H64D2",
                                        "B3-1-3H64D2"])
    def test_top_attn_after_lone_transition_refused(self, layout):
        # a one-layer middle block leaves only the transition's map, whose keys
        # are unpooled; such a config failed to encode at every length
        with pytest.raises(ValueError, match="top_attn pooling with pool_query_only"):
            ModelConfig(layout=layout, vocab_size=20, pool_op="top_attn")
        ModelConfig(layout=layout, vocab_size=20, pool_op="top_attn", pool_query_only=False)
        ModelConfig(layout=layout, vocab_size=20, pool_op="mean")

    @pytest.mark.parametrize("layout", ["B2-1H64D2", "B1-1H64D1", "B1-2-1H64D1"])
    def test_top_attn_lone_transition_in_last_block_runs(self, layout):
        config = ModelConfig(layout=layout, vocab_size=20, pool_op="top_attn")
        state = FunnelModel(config).encode(np.full(16, 7))
        assert state.h_last.shape[0] == 16 >> (len(config.layout.blocks) - 1)


class TestParams:
    def test_same_seed_identical_tree(self):
        cfg = lambda: ModelConfig(layout="B2-2H64D1", vocab_size=11, seed=4)
        a, b = build_params(cfg()), build_params(cfg())
        assert set(a) == set(b)
        for k in a:
            np.testing.assert_array_equal(a[k].data, b[k].data)

    def test_tied_block_reuses_tensor_objects(self):
        cfg = ModelConfig(layout="B2-1x2H64", vocab_size=11, seed=0)
        params = build_params(cfg)
        first = cfg.layer_params(params, 1, 0)
        second = cfg.layer_params(params, 1, 1)
        assert first.w_q is second.w_q

    def test_untied_layers_differ(self):
        cfg = ModelConfig(layout="B2-2H64", vocab_size=11, seed=0)
        params = build_params(cfg)
        assert cfg.layer_params(params, 0, 0).w_q is not cfg.layer_params(params, 0, 1).w_q

    def test_decoder_params_never_tied_to_encoder(self):
        cfg = ModelConfig(layout="B1-1H64D2", vocab_size=11, seed=0)
        params = build_params(cfg)
        enc_ids = {id(params[k]) for k in params if k.startswith("enc/")}
        dec_ids = {id(params[k]) for k in params if k.startswith("dec/")}
        assert not enc_ids & dec_ids

    @pytest.mark.parametrize("layout", ["B2-1x2H64D2", "B3-2-1H128D1", "L2H64"])
    @pytest.mark.parametrize("dtype", ["f32", "f64"])
    def test_specs_match_built_tree(self, layout, dtype):
        cfg = ModelConfig(layout=layout, vocab_size=11, dtype=dtype, seed=2)
        specs, params = param_specs(cfg), build_params(cfg)
        assert list(specs) == list(params)
        for name, spec in specs.items():
            assert params[name].shape == spec.shape, name
            assert params[name].dtype == spec.dtype, name
            fill = {"zeros": 0.0, "ones": 1.0}.get(spec.init)
            if fill is not None:
                assert (params[name].data == fill).all(), name

    def test_names_in_draw_order(self):
        # spelled out: moving, renaming or dropping a table row fails here
        names = list(param_specs(ModelConfig(layout="B2-2H64D2", vocab_size=20)))
        assert names[:20] == [
            "embed/token", "rel/w_r",
            "enc/b0/l0/attn/w_q", "enc/b0/l0/attn/b_q", "enc/b0/l0/attn/w_k",
            "enc/b0/l0/attn/b_k", "enc/b0/l0/attn/w_v", "enc/b0/l0/attn/b_v",
            "enc/b0/l0/attn/w_o", "enc/b0/l0/attn/b_o", "enc/b0/l0/attn/u", "enc/b0/l0/attn/v",
            "enc/b0/l0/attn/ln_g", "enc/b0/l0/attn/ln_b",
            "enc/b0/l0/ffn/w1", "enc/b0/l0/ffn/b1", "enc/b0/l0/ffn/w2", "enc/b0/l0/ffn/b2",
            "enc/b0/l0/ffn/ln_g", "enc/b0/l0/ffn/ln_b",
        ]
        assert len(names) == 2 + 6 * 18
        assert [n.rsplit("/", 2)[0] for n in names[2::18]] == [
            "enc/b0/l0", "enc/b0/l1", "enc/b1/l0", "enc/b1/l1", "dec/l0", "dec/l1"]

    def test_layer_view_fields_follow_the_table(self):
        attrs = [f.name for f in fields(LayerParams)]
        assert attrs == [attr for attr, *_ in LAYER_TENSORS] + ["w_r"]
        assert attrs == ["w_q", "b_q", "w_k", "b_k", "w_v", "b_v", "w_o", "b_o", "u", "v",
                         "ln_attn_g", "ln_attn_b", "w_ffn1", "b_ffn1", "w_ffn2", "b_ffn2",
                         "ln_ffn_g", "ln_ffn_b", "w_r"]
        cfg = ModelConfig(layout="B2-2H64D1", vocab_size=11, seed=0)
        params = build_params(cfg)
        lp = cfg.layer_params(params, 1, 1)
        for attr, key, *_ in LAYER_TENSORS:
            assert getattr(lp, attr) is params[f"enc/b1/l1/{key}"], attr
        assert lp.w_r is params["rel/w_r"]

    def test_dtype_respected(self):
        cfg = ModelConfig(layout="L1H64", vocab_size=11, dtype="f32", seed=0)
        params = build_params(cfg)
        assert all(p.data.dtype == np.float32 for p in params.values())


class TestGeneratorConfig:
    def test_quarter_hidden(self):
        cfg = ModelConfig(layout="B2-2H64D2", vocab_size=11, seed=0)
        gen = generator_config(cfg)
        assert gen.hidden == 16
        assert gen.layout.blocks == cfg.layout.blocks
        assert gen.layout.decoder_layers == 2
        assert gen.seed == cfg.seed + 1

    def test_wide_model_stays_on_head_grid(self):
        cfg = ModelConfig(layout="L12H768", vocab_size=11, seed=0)
        gen = generator_config(cfg)
        assert gen.hidden == 192
        assert gen.layout.head_dim == 64


class TestTokenHidden:
    def test_plain_stack_skips_decoder(self):
        cfg = ModelConfig(layout="L2H64", vocab_size=11, seed=0)
        model = FunnelModel(cfg)
        toks = np.arange(8) % 5 + 5
        hidden = model.token_hidden(toks)
        state = model.encode(toks)
        np.testing.assert_array_equal(hidden.data, state.h_last.data)

    def test_funnel_restores_full_length(self):
        cfg = ModelConfig(layout="B2-2H64D1", vocab_size=11, seed=0)
        model = FunnelModel(cfg)
        toks = np.arange(16) % 5 + 5
        assert model.token_hidden(toks).shape == (16, 64)


class TestSequenceHead:
    def test_cls_linear_demo(self):
        from funnel.autodiff import Tape, Tensor, grad_check, sum_all
        from funnel.model import sequence_logits
        cfg = ModelConfig(layout="B2-2H64", vocab_size=11, seed=0)
        model = FunnelModel(cfg)
        toks = np.arange(16) % 5 + 5
        w = Tensor(np.random.Generator(np.random.Philox(0)).standard_normal((64, 3)),
                   requires_grad=True)
        b = Tensor(np.zeros(3), requires_grad=True)
        state = model.encode(toks)
        logits = sequence_logits(state, w, b)
        assert logits.shape == (1, 3)
        np.testing.assert_allclose(logits.data[0],
                                   state.h_last.data[0] @ w.data + b.data)
        # gradients reach the head through the compressed CLS vector
        err = grad_check(lambda: sum_all(sequence_logits(model.encode(toks), w, b)),
                         [w, b], seed=1)
        assert err < 1e-6


class TestDtypePurity:
    def test_f32_forward_and_step_stay_f32(self):
        from funnel.training import TrainSettings, OptimizerConfig, train_toy
        cfg = ModelConfig(layout="B2-2H64D1", vocab_size=20, dtype="f32", seed=0)
        settings = TrainSettings(steps=2, batch_size=2, seq_len=16, mask_rate=0.3,
                                 optimizer=OptimizerConfig(lr=1e-3, warmup_steps=1))
        corpus = ["w0 w1 w2 w3 w4 w5 w6 w7", "w3 w1 w0 w2 w5 w4 w7 w6"]
        model_cfg = cfg
        train_toy(model_cfg, corpus, settings)
        model = FunnelModel(ModelConfig(layout="B2-2H64D1", vocab_size=20,
                                        dtype="f32", seed=0))
        toks = np.arange(16) % 5 + 5
        assert model.token_hidden(toks).data.dtype == np.float32
        for p in model.params.values():
            assert p.data.dtype == np.float32
