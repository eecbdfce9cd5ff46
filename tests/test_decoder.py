"""Decoder: up-sampling, skip fusion, full-length recovery."""

import itertools

import numpy as np
import pytest

from funnel.autodiff import ContractError, Rng, Tape, Tensor, add, mul
from funnel.decoder import decoder_forward, upsample, upsample_source
from funnel.layout import BlockSpec, LayoutSpec
from funnel.model import FunnelModel, ModelConfig

from helpers import sum_all


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

    def test_two_rows_to_length_zero_rejected(self):
        with pytest.raises(ContractError, match="shorter length"):
            upsample(Tensor(np.zeros((2, 2))), 0)


@pytest.fixture
def funnel_model():
    layout = LayoutSpec(blocks=(BlockSpec(2), BlockSpec(2)), hidden=16,
                        decoder_layers=2, head_dim=8)
    return FunnelModel(ModelConfig(layout=layout, vocab_size=11, seed=0))


@pytest.fixture
def fusion_model():
    """No decoder layers: ``decode(...).hidden`` is the skip fusion itself."""
    layout = LayoutSpec(blocks=(BlockSpec(2), BlockSpec(2)), hidden=16,
                        decoder_layers=0, head_dim=8)
    return FunnelModel(ModelConfig(layout=layout, vocab_size=11, seed=0))


def encode(model, seed=0, t=8):
    toks = np.concatenate([[2], Rng(seed).integers(5, 11, t - 2), [3]])
    return toks, model.encode(toks)


def fuse(model, state, h_first):
    """The decoder's output for ``h_first`` in place of block 1's states."""
    return decoder_forward(h_first, state.h_last, model.config, model.params, state.encoding,
                           state.block_mask[0]).hidden


class TestDecoderForward:
    def test_zero_compressed_states_give_skip_only(self, fusion_model):
        _, state = encode(fusion_model)
        zero_last = Tensor(np.zeros_like(state.h_last.data))
        out = decoder_forward(state.h_first, zero_last, fusion_model.config,
                              fusion_model.params, state.encoding, state.block_mask[0])
        np.testing.assert_array_equal(out.hidden.data, state.h_first.data)

    def test_zero_decoder_layers_returns_fusion(self, fusion_model):
        toks, state = encode(fusion_model)
        out = fusion_model.decode(state)
        fused = add(state.h_first, upsample(state.h_last, len(toks)))
        np.testing.assert_array_equal(out.hidden.data, fused.data)

    def test_output_length_equals_input_length(self, funnel_model):
        toks, state = encode(funnel_model)
        out = funnel_model.decode(state)
        assert out.hidden.shape == (len(toks), 16)

    def test_fusion_additivity(self, fusion_model):
        _, state = encode(fusion_model)
        delta = np.zeros_like(state.h_first.data)
        delta[3] = 1.25
        base = fuse(fusion_model, state, state.h_first)
        shifted = fuse(fusion_model, state, Tensor(state.h_first.data + delta))
        np.testing.assert_allclose(shifted.data - base.data, delta, atol=1e-12)

    def test_token_detail_preserved(self, fusion_model):
        # changing h1 at one position changes the decoder input only there
        _, state = encode(fusion_model)
        base = fuse(fusion_model, state, state.h_first)
        for i in range(8):
            bumped = state.h_first.data.copy()
            bumped[i] += 0.5
            diff = np.abs(fuse(fusion_model, state, Tensor(bumped)).data - base.data).sum(axis=1)
            assert diff[i] > 0
            assert np.count_nonzero(diff) == 1

    def test_decode_reads_the_encoders_pad_mask(self):
        model = FunnelModel(ModelConfig(layout="B2-2H64D2", vocab_size=11, seed=0))
        toks = np.concatenate([[2], Rng(0).integers(5, 11, 3), [3], [0, 0, 0]])
        mask = np.arange(8) < 5
        state = model.encode(toks, mask)
        np.testing.assert_array_equal(model.decode(state).hidden.data,
                                      model.decode(state, mask).hidden.data)
        with pytest.raises(ContractError, match="pad mask differs"):
            model.decode(state, np.ones(8, dtype=bool))
        with pytest.raises(ContractError, match="pad mask differs"):
            model.decode(state, mask[:4])

    def test_pad_mask_required(self, funnel_model):
        # no default that would treat every row as real
        _, state = encode(funnel_model)
        with pytest.raises(TypeError, match="pad_mask"):
            decoder_forward(state.h_first, state.h_last, funnel_model.config,
                            funnel_model.params, state.encoding)

    def test_length_mismatch_rejected(self, funnel_model):
        # a full length shorter than the compressed one would skip states
        _, state = encode(funnel_model)
        t_last = state.h_last.shape[0]
        with pytest.raises(ContractError):
            decoder_forward(Tensor(np.zeros((t_last - 1, 16))), state.h_last,
                            funnel_model.config, funnel_model.params, state.encoding,
                            state.block_mask[0])


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
