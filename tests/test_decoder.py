"""Decoder: up-sampling, skip fusion, full-length recovery."""

import itertools

import numpy as np
import pytest

from funnel.autodiff import ContractError, Rng, Tape, Tensor, mul, sum_all
from funnel.decoder import decoder_forward, upsample, upsample_source
from funnel.layout import BlockSpec, LayoutSpec
from funnel.model import FunnelModel, ModelConfig


class TestUpsample:
    def test_rate_one_is_identity(self):
        x = Tensor(np.arange(6.0).reshape(3, 2))
        assert upsample(x, 3) is x

    def test_repeat_by_four(self):
        x = Tensor(np.array([[1.0], [2.0]]))
        out = upsample(x, 8)
        np.testing.assert_allclose(out.data[:, 0], [1, 1, 1, 1, 2, 2, 2, 2])

    def test_pretraining_scale_arithmetic(self):
        # three blocks compress 512 to 128; one shot expands it back
        x = Tensor(np.zeros((128, 4)))
        assert upsample(x, 512).shape == (512, 4)

    @pytest.mark.parametrize("n,r", [(1, 2), (2, 4), (3, 3), (4, 2), (5, 1), (9, 2)])
    def test_multiples_equal_repeat_bit_for_bit(self, n, r):
        gen = np.random.Generator(np.random.Philox(n * 10 + r))
        h = Tensor(gen.standard_normal((n, 2, 3)), requires_grad=True)
        g = gen.standard_normal((n * r, 2, 3))
        with Tape() as tape:
            out = upsample(h, n * r)
            tape.backward(sum_all(mul(out, Tensor(g))))
        np.testing.assert_array_equal(out.data, np.repeat(h.data, r, axis=0))
        np.testing.assert_array_equal(tape.grad(h), g.reshape(n, r, 2, 3).sum(axis=1))

    def test_uneven_lengths_stretch_evenly(self):
        # out[i] = h[i * n // t]: 3 rows over 7 positions, 9 over 16
        x = Tensor(np.arange(3.0)[:, None])
        np.testing.assert_array_equal(upsample(x, 7).data[:, 0], [0, 0, 0, 1, 1, 2, 2])
        counts = np.bincount(upsample(Tensor(np.arange(9.0)[:, None]), 16).data[:, 0]
                             .astype(int))
        assert set(counts) == {1, 2}

    def test_source_rows_of_the_ends(self):
        # the encoder computes upsample_source(real - 1, n, t) + 1 final-block rows:
        # none for an all-pad column, all n for a full one
        for t in range(1, 20):
            for n in range(1, t + 1):
                assert upsample_source(-1, n, t) + 1 == 0
                assert upsample_source(t - 1, n, t) + 1 == n

    def test_fewer_target_rows_rejected(self):
        with pytest.raises(ContractError, match="shorter length"):
            upsample(Tensor(np.zeros((5, 2))), 4)

    def test_bad_rate_rejected(self):
        with pytest.raises(ContractError, match="shorter length"):
            upsample(Tensor(np.zeros((2, 2))), 0)


@pytest.fixture
def funnel_model():
    layout = LayoutSpec(blocks=(BlockSpec(2), BlockSpec(2)), hidden=16,
                        decoder_layers=2, head_dim=8)
    return FunnelModel(ModelConfig(layout=layout, vocab_size=11, seed=0))


def encode(model, seed=0, t=8):
    toks = np.concatenate([[2], Rng(seed).integers(5, 11, t - 2), [3]])
    return toks, model.encode(toks)


class TestDecoderForward:
    def test_zero_compressed_states_give_skip_only(self, funnel_model):
        _, state = encode(funnel_model)
        zero_last = Tensor(np.zeros_like(state.h_last.data))
        out = decoder_forward(state.h_first, zero_last, funnel_model.config,
                              funnel_model.params, state.encoding)
        np.testing.assert_array_equal(out.fused.data, state.h_first.data)

    def test_zero_decoder_layers_returns_fusion(self):
        layout = LayoutSpec(blocks=(BlockSpec(2), BlockSpec(2)), hidden=16,
                            decoder_layers=0, head_dim=8)
        model = FunnelModel(ModelConfig(layout=layout, vocab_size=11, seed=0))
        _, state = encode(model)
        out = model.decode(state)
        assert out.hidden is out.fused

    def test_output_length_equals_input_length(self, funnel_model):
        toks, state = encode(funnel_model)
        out = funnel_model.decode(state)
        assert out.hidden.shape == (len(toks), 16)

    def test_fusion_additivity(self, funnel_model):
        _, state = encode(funnel_model)
        delta = np.zeros_like(state.h_first.data)
        delta[3] = 1.25
        base = decoder_forward(state.h_first, state.h_last, funnel_model.config,
                               funnel_model.params, state.encoding)
        shifted = decoder_forward(Tensor(state.h_first.data + delta), state.h_last,
                                  funnel_model.config, funnel_model.params, state.encoding)
        np.testing.assert_allclose(shifted.fused.data - base.fused.data, delta,
                                   atol=1e-12)

    def test_token_detail_preserved(self, funnel_model):
        # changing h1 at one position changes the decoder input only there
        _, state = encode(funnel_model)
        for i in range(8):
            bumped = state.h_first.data.copy()
            bumped[i] += 0.5
            out = decoder_forward(Tensor(bumped), state.h_last, funnel_model.config,
                                  funnel_model.params, state.encoding)
            base = decoder_forward(state.h_first, state.h_last, funnel_model.config,
                                   funnel_model.params, state.encoding)
            diff = np.abs(out.fused.data - base.fused.data).sum(axis=1)
            assert diff[i] > 0
            assert np.count_nonzero(diff) == 1

    def test_length_mismatch_rejected(self, funnel_model):
        # a full length shorter than the compressed one would skip states
        _, state = encode(funnel_model)
        t_last = state.h_last.shape[0]
        with pytest.raises(ContractError):
            decoder_forward(Tensor(np.zeros((t_last - 1, 16))), state.h_last,
                            funnel_model.config, funnel_model.params, state.encoding)


GRID_LAYOUTS = ("B2-2H64D2", "B2-2-2H64D2", "B1-1-1-1H64D1")


def grid_configs():
    """Every layout x pool x (separate_cls, truncate_seq, pool_query_only) ModelConfig accepts."""
    for layout in GRID_LAYOUTS:
        for pool_op in ("mean", "max", "top_attn"):
            for flags in itertools.product((True, False), repeat=3):
                kw = dict(layout=layout, vocab_size=11, pool_op=pool_op,
                          separate_cls=flags[0], truncate_seq=flags[1],
                          pool_query_only=flags[2])
                try:
                    yield ModelConfig(**kw)
                except ValueError:
                    assert layout == "B1-1-1-1H64D1" and pool_op == "top_attn" and flags[2]


def test_every_grid_config_decodes_at_every_length():
    configs = list(grid_configs())
    assert len(configs) == 68
    cases = 0
    for config in configs:
        model = FunnelModel(config)
        lengths = (2, 4, 8, 16) if config.truncate_seq else range(2, 18)
        for t in lengths:
            gen = np.random.Generator(np.random.Philox(t))
            ids = gen.integers(5, 11, size=(t, 3))
            ids[0] = 2
            mask = np.ones((t, 3), dtype=bool)
            mask[t // 2 + 1:, 1] = False  # one padded column
            ids[~mask] = 0
            hidden = model.token_hidden(ids, mask).data
            assert hidden.shape == (t, 3, 64), (config, t)
            assert np.isfinite(hidden).all(), (config, t)
            cases += 1
    assert cases == 680
