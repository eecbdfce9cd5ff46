"""Time-major batches: a batch equals its sequences run one at a time, and pads are inert."""

import numpy as np
import pytest

from funnel.autodiff import Rng, Tape
from funnel.corpus import CLS, PAD
from funnel.layout import BlockSpec, LayoutSpec
from funnel.model import FunnelModel, ModelConfig
from funnel.objectives import mlm_loss, sample_mask_single

from helpers import record_pooled_positions

POOL_OPS = ("mean", "max", "top_attn")
VARIANTS = ("naive", "gather", "factorized")
T, B = 16, 3


def make_model(pool_op, variant, seed=0):
    # three blocks, so the second pooling step sees per-column positions
    # under top-attention; two heads, so the head split is exercised
    layout = LayoutSpec(blocks=(BlockSpec(2), BlockSpec(2), BlockSpec(2)), hidden=16,
                        decoder_layers=1, head_dim=8)
    return FunnelModel(ModelConfig(layout=layout, vocab_size=20, pool_op=pool_op,
                                   attn_variant=variant, seed=seed))


def random_batch(seed):
    """[T, B] ids and a random pad mask per column (CLS always real)."""
    gen = np.random.Generator(np.random.Philox(seed))
    ids = gen.integers(5, 20, size=(T, B))
    ids[0] = CLS
    mask = gen.random((T, B)) < 0.6
    mask[0] = True
    ids[~mask] = PAD
    return ids, mask


@pytest.mark.parametrize("variant", VARIANTS)
@pytest.mark.parametrize("pool_op", POOL_OPS)
def test_batched_forward_equals_stacked_sequences(pool_op, variant, monkeypatch):
    pooled = record_pooled_positions(monkeypatch)
    model = make_model(pool_op, variant)
    ids, mask = random_batch(seed=POOL_OPS.index(pool_op) * 10 + VARIANTS.index(variant))
    state = model.encode(ids, mask)
    hidden = model.decode(state, mask).hidden.data
    assert hidden.shape == (T, B, 16)
    batch_pos = pooled[:]  # one per pooled block: [T_m], or [T_m, B] after top-attention
    assert len(batch_pos) == 2
    for b in range(B):
        pooled.clear()
        one = model.encode(ids[:, b], mask[:, b])
        np.testing.assert_allclose(model.decode(one, mask[:, b]).hidden.data, hidden[:, b],
                                   rtol=0, atol=1e-12)
        for block, h in enumerate(one.block_hidden):
            np.testing.assert_allclose(h.data, state.block_hidden[block].data[:, b],
                                       rtol=0, atol=1e-12)
            np.testing.assert_array_equal(one.block_mask[block], state.block_mask[block][:, b])
        for pos, one_pos in zip(batch_pos, pooled, strict=True):
            np.testing.assert_array_equal(one_pos, pos if pos.ndim == 1 else pos[:, b])


@pytest.mark.parametrize("pool_op", POOL_OPS)
def test_batched_mlm_gradients_are_the_mean_of_per_sequence_gradients(pool_op):
    model = make_model(pool_op, "factorized", seed=1)
    ids, mask = random_batch(seed=40 + POOL_OPS.index(pool_op))
    ids[1:6] = np.where(mask[1:6], ids[1:6], 7)
    mask[1:6] = True  # every column has something to mask
    plans = [sample_mask_single(ids[:, b], rate=0.3, rng=Rng(b)) for b in range(B)]
    corrupted = np.stack([p.apply(ids[:, b]) for b, p in enumerate(plans)], axis=1)
    params = [p for _, p in model.trainable()]

    def grads(token_ids, pad_mask, plan_arg):
        with Tape() as tape:
            loss = mlm_loss(model.token_hidden(token_ids, pad_mask),
                            model.params["embed/token"], plan_arg)
            tape.backward(loss)
        return loss.item(), [tape.grad(p).copy() for p in params]

    batch_loss, batch_grads = grads(corrupted, mask, plans)
    singles = [grads(corrupted[:, b], mask[:, b], plans[b]) for b in range(B)]
    assert batch_loss == pytest.approx(np.mean([loss for loss, _ in singles]), rel=1e-12)
    for i, g in enumerate(batch_grads):
        mean = sum(s[1][i] for s in singles) / B
        np.testing.assert_allclose(g, mean, rtol=0, atol=1e-12)


@pytest.mark.parametrize("variant", VARIANTS)
@pytest.mark.parametrize("pool_op", POOL_OPS)
def test_real_outputs_ignore_token_ids_at_pad_positions(pool_op, variant):
    model = make_model(pool_op, variant, seed=2)
    gen = np.random.Generator(np.random.Philox(7))
    ids = gen.integers(5, 20, size=(T, B))
    ids[0] = CLS
    # pads form a suffix, as encode_line makes them; at length 12 top-attention
    # must drop real states, so pad queries could sway the choice
    lengths = np.array([3, 12, 16])
    mask = np.arange(T)[:, None] < lengths
    base_state = model.encode(ids, mask)
    base = model.decode(base_state, mask).hidden.data
    other = np.where(mask, ids, gen.integers(0, 20, size=(T, B)))
    state = model.encode(other, mask)
    out = model.decode(state, mask).hidden.data
    np.testing.assert_allclose(out[mask], base[mask], rtol=0, atol=1e-12)
    real = base_state.block_mask[-1]
    np.testing.assert_array_equal(state.block_mask[-1], real)
    np.testing.assert_allclose(state.h_last.data[real], base_state.h_last.data[real],
                               rtol=0, atol=1e-12)
