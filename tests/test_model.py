"""Model assembly: config JSON, parameter tree, tying, determinism."""

import hashlib
from dataclasses import fields

import numpy as np
import pytest

from funnel import checkpoint
from funnel.autodiff import Rng, grad_check
from funnel.corpus import CLS, SEP
from funnel.layout import BlockSpec, LayoutSpec, layer_plan
from funnel.model import FunnelModel, ModelConfig, build_params, generator_config, param_specs
from funnel.objectives import mlm_loss, sample_mask_single
from funnel.relattn import LAYER_TENSORS, LayerParams, layer_view


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

    def test_layout_off_the_head_grid_has_no_json_form(self):
        layout = LayoutSpec(blocks=(BlockSpec(1),), hidden=16, head_dim=8)
        with pytest.raises(ValueError, match="no string form"):
            ModelConfig(layout=layout, vocab_size=10).to_json()

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
        # block 1's transition and the layer after it run the one tied set
        first, second = (layer_view(params, run.prefix)
                         for run in layer_plan(cfg.layout, 16, True, True, True)[2:4])
        assert first.w_q is second.w_q

    def test_untied_layers_differ(self):
        cfg = ModelConfig(layout="B2-2H64", vocab_size=11, seed=0)
        params = build_params(cfg)
        first, second = (layer_view(params, run.prefix)
                         for run in layer_plan(cfg.layout, 16, True, True, True)[:2])
        assert first.w_q is not second.w_q

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
        lp = layer_view(params, "enc/b1/l1")
        for attr, key, *_ in LAYER_TENSORS:
            assert getattr(lp, attr) is params[f"enc/b1/l1/{key}"], attr
        assert lp.w_r is params["rel/w_r"]

    @pytest.mark.parametrize("layout,dtype,vocab,seed,sha256", [
        ("B4-4-4H256D2", "f64", 1000, 0,
         "d77aff33ce113b55aa9b8f6b35343b8c1d445dcb3ce0b95678aa429233fd4157"),
        ("B2-2H128D2", "f32", 64, 3,
         "4c8e8fe7daa1ab7eb90656113f5639129840038f627bcad9ab631952a91c3a44"),
        ("B2-2H64D2", "f64", 20, 0,
         "b3d5be28ae47e04652ac8ca1f62d0bae986f2fa8f3b794955b67045e4af35987"),
        ("L2H64", "f32", 11, 9,
         "8acbecef756e6510bf3789c6c60e4484b98fb0a76cc5d0a83e074686ba22a4ed"),
    ])
    def test_init_bytes_pinned(self, tmp_path, layout, dtype, vocab, seed, sha256):
        # a changed init stream, draw order or dtype cast changes these digests; they
        # hash the saved and reloaded payloads in spec order, not the archive's layout
        cfg = ModelConfig(layout=layout, vocab_size=vocab, dtype=dtype, seed=seed)
        path = tmp_path / "init.ftnt"
        checkpoint.save(build_params(cfg), path)
        loaded = checkpoint.load(path)
        payload = b"".join(loaded[name].data.tobytes() for name in param_specs(cfg))
        assert hashlib.sha256(payload).hexdigest() == sha256

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

    @pytest.mark.parametrize("hidden,heads,head_dim", [(768, 3, 64), (576, 2, 72),
                                                       (832, 2, 104)])
    def test_head_split(self, hidden, heads, head_dim):
        gen = generator_config(ModelConfig(layout=f"B2-2H{hidden}D2", vocab_size=11, seed=0))
        assert (gen.layout.heads, gen.layout.head_dim) == (heads, head_dim)

    def test_every_width_on_the_head_grid_builds(self):
        for hidden in range(64, 2049, 64):
            gen = generator_config(ModelConfig(layout=f"B2-2H{hidden}D2", vocab_size=11,
                                               seed=0))
            heads, most = gen.layout.heads, max(1, gen.hidden // 64)
            assert gen.hidden == hidden // 4 and heads * gen.layout.head_dim == gen.hidden
            # the most heads up to hidden // 64: a width that built before keeps its heads
            assert heads <= most
            assert all(gen.hidden % h for h in range(heads + 1, most + 1)), hidden

    def test_odd_quarter_rounds_up_to_an_even_width(self):
        # 20 // 4 is 5, but the sinusoidal position tables need an even width
        layout = LayoutSpec(blocks=(BlockSpec(1), BlockSpec(1)), hidden=20, decoder_layers=1,
                            head_dim=20)
        gen = generator_config(ModelConfig(layout=layout, vocab_size=11, seed=0))
        assert gen.hidden == 6 and gen.layout.head_dim == 6
        assert FunnelModel(gen).token_hidden(np.arange(8) % 5 + 5).shape == (8, 6)


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


def test_grad_check_through_dropout():
    """The whole-model check of ``funnel gradcheck`` with both dropouts on; a fresh ``Rng``
    per call draws the same masks on every probe, so the loss is a smooth function."""
    config = ModelConfig(layout="B2-2H64D2", vocab_size=11, dropout=0.2, attn_dropout=0.2,
                         seed=0)
    model = FunnelModel(config)
    toks = np.concatenate([[CLS], Rng(7).integers(5, 11, 6), [SEP]])
    plan = sample_mask_single(toks, rate=0.3, rng=Rng(3))
    corrupted = plan.apply(toks)

    def loss():
        hidden = model.token_hidden(corrupted, rng=Rng(5))
        return mlm_loss(hidden, model.params["embed/token"], plan)

    dropped = model.token_hidden(corrupted, rng=Rng(5)).data
    assert not np.array_equal(dropped, model.token_hidden(corrupted).data)  # dropout is on
    err = grad_check(loss, [p for _, p in model.trainable()], max_coords_per_param=4, seed=0,
                     denominator_floor=1e-6)
    assert err < 1e-4, f"gradient error through dropout {err:.3e}"


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
