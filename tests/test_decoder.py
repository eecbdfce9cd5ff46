"""Decoder: up-sampling, skip fusion, full-length recovery."""

import numpy as np
import pytest

from funnel.autodiff import ContractError, Rng, Tensor
from funnel.decoder import decoder_forward, upsample
from funnel.layout import BlockSpec, LayoutSpec
from funnel.model import FunnelModel, ModelConfig


class TestUpsample:
    def test_rate_one_is_identity(self):
        x = Tensor(np.arange(6.0).reshape(3, 2))
        assert upsample(x, 1) is x

    def test_repeat_by_four(self):
        x = Tensor(np.array([[1.0], [2.0]]))
        out = upsample(x, 4)
        np.testing.assert_allclose(out.data[:, 0], [1, 1, 1, 1, 2, 2, 2, 2])

    def test_pretraining_scale_arithmetic(self):
        # three blocks compress 512 to 128; one shot expands it back
        x = Tensor(np.zeros((128, 4)))
        assert upsample(x, 512 // 128).shape == (512, 4)

    def test_bad_rate_rejected(self):
        with pytest.raises(ContractError):
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
        _, state = encode(funnel_model)
        with pytest.raises(ContractError):
            decoder_forward(Tensor(np.zeros((7, 16))), state.h_last,
                            funnel_model.config, funnel_model.params, state.encoding)
