"""Encoder: pooling semantics, separate-CLS handling, length schedules."""

import weakref
from dataclasses import replace

import numpy as np
import pytest

from funnel import autodiff, encoder, relattn
from funnel.autodiff import (ContractError, Rng, Tape, Tensor, fit_rows, gather_rows, grad_check,
                             mul, reshape)
from funnel.encoder import PooledState, block_transition_attention, pool_step, top_attn_rows
from funnel.layout import BlockSpec, LayoutSpec, is_pow2, layer_plan
from funnel.model import FunnelModel, ModelConfig
from funnel.relattn import layer_view

from helpers import record_pooled_positions, sum_all


def make_state(values, pos=None, mask=None):
    values = np.asarray(values, dtype=np.float64)
    if values.ndim == 1:
        values = values[:, None]
    t = values.shape[0]
    return PooledState(Tensor(values),
                       np.arange(t) if pos is None else np.asarray(pos),
                       np.ones(t, bool) if mask is None else np.asarray(mask))


def stride2(values, pos=None, mask=None, op="mean"):
    """Plain window-2 stride-2 pooling: ``pool_step`` without separate CLS."""
    out = pool_step(make_state(values, pos, mask), op, separate_cls=False, truncate=True)
    return out.hidden, out.pos, out.mask


def column_pos(pos, mask):
    """Positions broadcast to the mask's shape: one position id per state and column."""
    pos = np.asarray(pos)
    return np.broadcast_to(pos.reshape(pos.shape + (1,) * (mask.ndim - pos.ndim)), mask.shape)


def gather_top(h, pos, mask, rows):
    """The ``rows`` ([m] or [m, B]) of each column as a plain gather, with the picked pad rows zeroed."""
    cols = mask[0].size
    flat = h if mask.ndim == 1 else reshape(h, (mask.size,) + h.shape[2:])
    picked = np.take_along_axis(mask, rows, axis=0)
    return (fit_rows(gather_rows(flat, rows * cols + np.arange(cols)), len(rows), picked),
            np.take_along_axis(column_pos(pos, mask), rows, axis=0), picked)


def top_attn(h, pos, mask, attn):
    """Top-attention pooling over all rows: the rows ``top_attn_rows`` keeps in each column."""
    return gather_top(h, pos, mask, top_attn_rows(mask, attn))


class TestPoolPair:
    def test_mean_even_length(self):
        out, pos, mask = stride2([[1.0], [3.0], [5.0], [7.0]])
        np.testing.assert_allclose(out.data, [[2.0], [6.0]])
        np.testing.assert_array_equal(pos, [0, 2])
        assert mask.all()

    def test_mean_singleton_tail(self):
        out, pos, _ = stride2([[1.0], [3.0], [5.0]])
        np.testing.assert_allclose(out.data, [[2.0], [5.0]])
        np.testing.assert_array_equal(pos, [0, 2])

    def test_max(self):
        out, _, _ = stride2([[1.0], [3.0], [5.0], [7.0]], op="max")
        np.testing.assert_allclose(out.data, [[3.0], [7.0]])

    def test_pad_window_semantics(self):
        mask = np.array([True, True, False, False])
        out, _, pooled_mask = stride2([[1.0], [3.0], [9.0], [9.0]], mask=mask)
        np.testing.assert_allclose(out.data, [[2.0], [0.0]])
        np.testing.assert_array_equal(pooled_mask, [True, False])

    def test_pooled_position_is_first_of_window(self):
        _, pos, _ = stride2(np.zeros((6, 2)), pos=[3, 4, 7, 8, 11, 12])
        np.testing.assert_array_equal(pos, [3, 7, 11])


class TestPoolTopAttn:
    def test_keeps_top_half_in_order(self):
        h = Tensor(np.arange(8.0).reshape(4, 2))
        attn = np.zeros((1, 1, 4))
        attn[0, 0] = [0.1, 0.9, 0.5, 0.3]
        out, pos, mask = top_attn(h, np.arange(4), np.ones(4, bool), attn)
        np.testing.assert_array_equal(pos, [1, 2])
        np.testing.assert_allclose(out.data, [[2.0, 3.0], [4.0, 5.0]])

    def test_tie_break_toward_lower_index(self):
        h = Tensor(np.arange(8.0).reshape(4, 2))
        attn = np.full((2, 3, 4), 0.25)
        out, pos, _ = top_attn(h, np.arange(4), np.ones(4, bool), attn)
        np.testing.assert_array_equal(pos, [0, 1])

    def test_uniform_attention_column_sums(self):
        # row-stochastic uniform map: every column sums to Tq/T, a pure tie
        tq, t = 3, 4
        attn = np.full((2, tq, t), 1.0 / t)
        scores = attn.sum(axis=(0, 1))
        np.testing.assert_allclose(scores, np.full(t, 2 * tq / t))
        out, pos, _ = top_attn(Tensor(np.arange(8.0).reshape(4, 2)),
                               np.arange(4), np.ones(4, bool), attn)
        np.testing.assert_array_equal(pos, [0, 1])

    def test_keeps_exactly_ceil_half(self):
        for t in range(1, 9):
            gen = np.random.Generator(np.random.Philox(t))
            attn = gen.random((2, t, t))
            out, pos, _ = top_attn(Tensor(gen.standard_normal((t, 3))),
                                   np.arange(t), np.ones(t, bool), attn)
            assert out.shape[0] == (t + 1) // 2
            assert (np.diff(pos) > 0).all()

    def test_skip_ranks_later_rows_of_a_computed_size_map(self):
        # t = 8 rows, two columns; the layer computed q = k = 7 rows and keys
        mask = np.ones((8, 2), bool)
        mask[[2, 7], 0] = False                   # column 0: a pad among the real rows
        mask[5:, 1] = False                       # column 1: real rows 0..4
        attn = np.zeros((2, 2, 7, 7))             # [B, heads, q, k]
        col = attn[0]
        col[:, :, 0] = 1.0                        # CLS draws the most but is skipped
        col[1, 4, [1, 5, 6]] = [2.0, 1.5, 1.0]
        col[0, [0, 1, 3], 3] = [0.3, 0.2, 0.1]    # summed in head, query order: 0.6
        col[0, [0, 1, 3], 4] = [0.1, 0.2, 0.3]    # 0.6000000000000001: row 4 takes the slot
        col[0, 2, 3] = 10.0                       # a pad query's row is left out
        attn[1, :, :5, :5] = 0.2                  # uniform over keys 0..4: a pure tie
        attn[1, :, 5:, 6] = 5.0                   # pad queries of column 1
        rows = top_attn_rows(mask, attn, skip=1)
        np.testing.assert_array_equal(rows, [[1, 1], [4, 2], [5, 3], [6, 4]])

    def test_missing_map_is_contract_error(self):
        with pytest.raises(ContractError):
            top_attn_rows(np.ones(4, bool), None)


class TestPoolStep:
    def test_separate_cls_with_truncation(self):
        # T=8 keeps CLS intact, pools pairs of the rest, drops the tail singleton
        vals = np.array([100.0, 1, 3, 5, 7, 9, 11, 13])
        out = pool_step(make_state(vals), "mean", separate_cls=True, truncate=True)
        np.testing.assert_allclose(out.hidden.data[:, 0], [100.0, 2.0, 6.0, 10.0])
        np.testing.assert_array_equal(out.pos, [0, 1, 3, 5])
        assert len(out.pos) == 4

    def test_no_separate_cls_plain_stride2(self):
        vals = np.array([100.0, 1, 3, 5, 7, 9, 11, 13])
        out = pool_step(make_state(vals), "mean", separate_cls=False, truncate=True)
        np.testing.assert_allclose(out.hidden.data[:, 0], [50.5, 4.0, 8.0, 12.0])
        assert len(out.pos) == 4

    @pytest.mark.parametrize("cols", [None, 3])
    def test_top_attn_reads_a_map_of_computed_size(self, cols):
        # a layer computes q = max(extent) query rows, pads among them, and k keys
        # up to the last real one; q exceeds k where the final block's extent widens
        for t in (8, 9):
            gen = np.random.Generator(np.random.Philox(t + (cols or 0)))
            shape = (t,) if cols is None else (t, cols)
            mask = gen.random(shape) > 0.4
            mask[0], mask[6:] = True, False
            q, k = 7, int(relattn.row_extent(mask).max())
            m = gen.random(((cols,) if cols else ()) + (2, t, t))  # random pad-query rows
            full = np.zeros_like(m)
            full[..., :q, :k] = m[..., :q, :k]
            state = PooledState(Tensor(gen.standard_normal(shape + (4,))), np.arange(t), mask)
            for separate_cls in (True, False):
                for truncate in (True, False):
                    got, ref = (pool_step(state, "top_attn", separate_cls, truncate, prev_attn=a)
                                for a in (m[..., :q, :k], full))
                    assert got.hidden.data.tobytes() == ref.hidden.data.tobytes()
                    np.testing.assert_array_equal(got.pos, ref.pos)
                    np.testing.assert_array_equal(got.mask, ref.mask)

    @pytest.mark.parametrize("attn_shape", [(1, 8, 9), (1, 9, 8), (2, 1, 8, 8)])
    def test_top_attn_refuses_a_map_that_does_not_fit(self, attn_shape):
        with pytest.raises(ContractError):
            pool_step(make_state(np.arange(8.0)), "top_attn", separate_cls=True, truncate=True,
                      prev_attn=np.ones(attn_shape))

    def test_unknown_op_refused(self):
        with pytest.raises(ValueError, match="unknown pool op 'sum'"):
            pool_step(make_state(np.arange(8.0)), "sum", separate_cls=True, truncate=True)

    def test_length_one_rest_unchanged(self):
        out = pool_step(make_state([5.0]), "mean", separate_cls=True, truncate=True)
        np.testing.assert_allclose(out.hidden.data, [[5.0]])

    def test_cls_bit_identical(self):
        gen = np.random.Generator(np.random.Philox(2))
        vals = gen.standard_normal((8, 4))
        out = pool_step(make_state(vals), "mean", separate_cls=True, truncate=True)
        assert (out.hidden.data[0] == vals[0]).all()

    def test_cls_perturbation_does_not_leak(self):
        gen = np.random.Generator(np.random.Philox(3))
        vals = gen.standard_normal((8, 4))
        a = pool_step(make_state(vals), "mean", separate_cls=True, truncate=True)
        vals2 = vals.copy()
        vals2[0] += 10.0
        b = pool_step(make_state(vals2), "mean", separate_cls=True, truncate=True)
        np.testing.assert_array_equal(a.hidden.data[1:], b.hidden.data[1:])

    def test_without_separate_cls_leaks_cls_into_first_window(self):
        gen = np.random.Generator(np.random.Philox(4))
        vals = gen.standard_normal((8, 4))
        a = pool_step(make_state(vals), "mean", separate_cls=False, truncate=True)
        vals2 = vals.copy()
        vals2[0] += 10.0
        b = pool_step(make_state(vals2), "mean", separate_cls=False, truncate=True)
        assert not np.allclose(a.hidden.data[0], b.hidden.data[0])


def concat_rows(parts):
    """Row concatenation with a pull-back that slices the gradient per part."""
    parts = list(parts)
    out = Tensor(np.concatenate([p.data for p in parts], axis=0))
    ends = np.cumsum([p.shape[0] for p in parts])[:-1]

    def backward(g):
        return np.split(g, ends)

    return autodiff._record(out, tuple(parts), backward, "concat_rows")


def split_concat_drop(state, op, separate_cls, truncate, prev_attn=None):
    """Separate-CLS pooling as three steps: split CLS off, pool the rest, put
    CLS back in front, then drop the last pooled state of a power-of-two input."""
    t = state.hidden.shape[0]
    if separate_cls and t <= 1:
        return state
    pos = state.pos
    if op == "top_attn":
        pos = column_pos(pos, state.mask)
        if prev_attn is not None:
            prev_attn = prev_attn * np.moveaxis(state.mask, 0, -1)[..., None, :, None]
    rest = slice(1, None) if separate_cls else slice(None)
    hidden = gather_rows(state.hidden, np.arange(1, t)) if separate_cls else state.hidden
    if op == "top_attn":
        # rank the keys after CLS by the query-masked map summed over heads and queries
        scores = prev_attn.sum(axis=(-3, -2))[..., rest]
        keep = (scores.shape[-1] + 1) // 2
        rows = np.sort(np.argsort(-scores, axis=-1, kind="stable")[..., :keep], axis=-1)
        pooled, ppos, pmask = gather_top(hidden, pos[rest], state.mask[rest],
                                         np.moveaxis(rows, -1, 0))
    else:
        plain = pool_step(PooledState(hidden, pos[rest], state.mask[rest]), op,
                          separate_cls=False, truncate=truncate)
        pooled, ppos, pmask = plain.hidden, plain.pos, plain.mask
    if not separate_cls:
        return PooledState(pooled, ppos, pmask)
    hidden = concat_rows([gather_rows(state.hidden, np.arange(1)), pooled])
    pos = np.concatenate([pos[:1], ppos])
    mask = np.concatenate([state.mask[:1], pmask])
    if truncate and is_pow2(t) and hidden.shape[0] > 1:
        hidden = gather_rows(hidden, np.arange(hidden.shape[0] - 1))
        pos, mask = pos[:-1], mask[:-1]
    return PooledState(hidden, pos, mask)


def pooled_with_grad(pool, state, op, separate_cls, truncate, prev_attn, weights_seed):
    """Pooled state, d(sum(pooled * w))/d(hidden) from one tape walk, and the tape's node names."""
    h = Tensor(state.hidden.data, requires_grad=True)
    with Tape() as tape:
        out = pool(PooledState(h, state.pos, state.mask), op, separate_cls, truncate, prev_attn)
        gen = np.random.Generator(np.random.Philox(weights_seed))
        tape.backward(sum_all(mul(out.hidden, Tensor(gen.standard_normal(out.hidden.shape)))))
    return out, tape.grad(h), [node.name for node in tape.nodes]


class TestPoolStepMatchesSplitConcatDrop:
    """One row index plus one pooling op gives the three-step composition's
    states, positions, mask and gradients bit for bit."""

    @pytest.mark.parametrize("op", ["mean", "max", "top_attn"])
    @pytest.mark.parametrize("cols", [None, 3])
    def test_bit_identical(self, op, cols):
        for t in list(range(1, 10)) + [16]:
            gen = np.random.Generator(np.random.Philox(t * 10 + (cols or 0)))
            shape = (t,) if cols is None else (t, cols)
            mask = gen.random(shape) > 0.4
            mask[0] = True                                 # position 0 is real
            pos = np.arange(t)
            attn = None
            if op == "top_attn":
                attn = gen.random(((cols,) if cols else ()) + (2, t, t))
                if cols:                                   # as after a top_attn step
                    pos = np.sort(gen.choice(4 * t, (t, cols), replace=False), axis=0)
            state = PooledState(Tensor(gen.standard_normal(shape + (4,))), pos, mask)
            for separate_cls in (True, False):
                for truncate in (True, False):
                    args = (state, op, separate_cls, truncate, attn, t)
                    got, dgot, _ = pooled_with_grad(pool_step, *args)
                    ref, dref, _ = pooled_with_grad(split_concat_drop, *args)
                    where = f"t={t} separate_cls={separate_cls} truncate={truncate}"
                    assert got.hidden.data.tobytes() == ref.hidden.data.tobytes(), where
                    assert got.hidden.shape == ref.hidden.shape, where
                    np.testing.assert_array_equal(got.pos, ref.pos, err_msg=where)
                    np.testing.assert_array_equal(got.mask, ref.mask, err_msg=where)
                    assert dgot.tobytes() == dref.tobytes(), where

    @pytest.mark.parametrize("op,cols,nodes", [("mean", None, 1), ("max", 3, 1),
                                               ("top_attn", None, 1), ("top_attn", 3, 1)])
    def test_tape_nodes(self, op, cols, nodes):
        # the three-step composition records 5 (mean, max) or 6 (top_attn) nodes
        gen = np.random.Generator(np.random.Philox(1))
        shape = (8,) if cols is None else (8, cols)
        attn = gen.random(((cols,) if cols else ()) + (2, 8, 8))
        state = PooledState(Tensor(gen.standard_normal(shape + (4,))), np.arange(8),
                            np.ones(shape, bool))
        out, _, names = pooled_with_grad(pool_step, state, op, True, True, attn, 2)
        assert out.hidden.shape[0] == 4
        assert len(names) == nodes + 2                     # plus mul and sum_all
        assert "gather_rows" not in names

    @pytest.mark.parametrize("op", ["mean", "max", "top_attn"])
    def test_pad_cls_pools_like_an_all_pad_window(self, op):
        # encode_line and Batch always make position 0 real; a hand-built
        # state with a pad CLS reads it twice, an all-pad window: zero, still pad
        vals = np.array([100.0, 1, 3, 5, 7, 9, 11, 13])
        mask = np.ones(8, bool)
        mask[0] = False
        attn = np.zeros((1, 8, 8))
        attn[..., 1::2] = 1.0                              # top-attention: CLS, 1, 3, 5
        out = pool_step(make_state(vals, mask=mask), op, separate_cls=True, truncate=True,
                        prev_attn=attn)
        assert out.hidden.data[0, 0] == 0.0
        np.testing.assert_array_equal(out.mask, [False, True, True, True])
        np.testing.assert_array_equal(out.pos, [0, 1, 3, 5])


@pytest.fixture
def tiny_config():
    layout = LayoutSpec(blocks=(BlockSpec(2), BlockSpec(2)), hidden=16,
                        decoder_layers=2, head_dim=8)
    return ModelConfig(layout=layout, vocab_size=11, seed=0)


class TestBlockTransition:
    def test_output_length_equals_pooled_length(self, tiny_config):
        model = FunnelModel(tiny_config)
        gen = np.random.Generator(np.random.Philox(5))
        unpooled = make_state(gen.standard_normal((8, 16)))
        pooled = pool_step(unpooled, "mean", True, True)
        lp = layer_view(model.params, "enc/b1/l0")
        out, _ = block_transition_attention(pooled, unpooled, lp, tiny_config,
                                            tiny_config.encoding())
        assert out.shape == (4, 16)

    def test_pool_query_only_off_matches_standard_layer(self, tiny_config):
        from funnel.relattn import transformer_layer
        model = FunnelModel(tiny_config)
        gen = np.random.Generator(np.random.Philox(6))
        unpooled = make_state(gen.standard_normal((8, 16)))
        pooled = pool_step(unpooled, "mean", True, True)
        lp = layer_view(model.params, "enc/b1/l0")
        config = replace(tiny_config, pool_query_only=False)
        out, _ = block_transition_attention(pooled, unpooled, lp, config,
                                            tiny_config.encoding())
        ref, _ = transformer_layer(pooled.hidden, pooled.pos, pooled.mask, lp, tiny_config,
                                   tiny_config.encoding())
        np.testing.assert_array_equal(out.data, ref.data)

    def test_zero_scores_average_unpooled_states(self, tiny_config):
        # identity-ish params with a zeroed score path: every query sees the
        # uniform average of the unpooled states, plus its own residual; the
        # FFN follows
        from funnel.autodiff import layer_norm
        from funnel.relattn import pffn
        model = FunnelModel(tiny_config)
        lp = layer_view(model.params, "enc/b1/l0")
        d = 16
        for t, v in [(lp.w_q, 0.0), (lp.w_k, 0.0), (lp.b_q, 0.0), (lp.b_k, 0.0),
                     (lp.u, 0.0), (lp.v, 0.0), (lp.b_v, 0.0), (lp.b_o, 0.0)]:
            t.data[:] = v
        lp.w_v.data[:] = np.eye(d)
        lp.w_o.data[:] = np.eye(d)
        model.params["rel/w_r"].data[:] = 0.0
        gen = np.random.Generator(np.random.Philox(7))
        unpooled = make_state(gen.standard_normal((4, d)))
        pooled = pool_step(unpooled, "mean", True, True)
        out, _ = block_transition_attention(pooled, unpooled, lp, tiny_config,
                                            tiny_config.encoding())
        mean_state = unpooled.hidden.data.mean(axis=0)
        expected = pffn(layer_norm(Tensor(pooled.hidden.data + mean_state),
                                   lp.ln_attn_g, lp.ln_attn_b), lp, tiny_config).data
        np.testing.assert_allclose(out.data, expected, atol=1e-10)


class TestEncoderForward:
    def test_block_length_schedule(self):
        layout = LayoutSpec(blocks=(BlockSpec(2), BlockSpec(2), BlockSpec(2)),
                            hidden=64, head_dim=64)
        config = ModelConfig(layout=layout, vocab_size=11, seed=0)
        model = FunnelModel(config)
        toks = np.concatenate([[2], Rng(1).integers(5, 11, 14), [3]])
        state = model.encode(toks)
        assert [h.shape[0] for h in state.block_hidden] == [16, 8, 4]

    def test_single_block_no_pooling(self):
        config = ModelConfig(layout="L4H64", vocab_size=11, seed=0)
        model = FunnelModel(config)
        toks = np.concatenate([[2], Rng(2).integers(5, 11, 14), [3]])
        state = model.encode(toks)
        assert [h.shape[0] for h in state.block_hidden] == [16]

    def test_two_block_final_length(self, tiny_config):
        model = FunnelModel(tiny_config)
        toks = np.concatenate([[2], Rng(3).integers(5, 11, 6), [3]])
        state = model.encode(toks)
        assert state.h_last.shape[0] == 4

    def test_non_power_of_two_rejected(self, tiny_config):
        model = FunnelModel(tiny_config)
        with pytest.raises(ContractError):
            model.encode(np.arange(6) % 5)

    def test_negative_token_id_rejected(self, tiny_config):
        # numpy indexing would wrap -6 to id 5 of the 11-row embedding
        with pytest.raises(ContractError, match=r"token ids must lie in \[0, 11\)"):
            FunnelModel(tiny_config).encode(np.array([2, -6, 6, 3]))

    def test_pad_mask_of_another_shape_rejected(self, tiny_config):
        with pytest.raises(ContractError, match=r"pad mask \(4,\) does not match token ids \(4, 2\)"):
            encoder.encoder_forward(tiny_config, FunnelModel(tiny_config).params,
                                    np.full((4, 2), 5), np.ones(4, bool))

    def test_token_id_at_vocab_size_rejected(self, tiny_config):
        with pytest.raises(ContractError, match=r"token ids must lie in \[0, 11\)"):
            FunnelModel(tiny_config).encode(np.array([[2, 2], [5, 11], [6, 6], [3, 3]]))

    def test_cls_row_propagates_through_pooling(self, tiny_config, monkeypatch):
        # position 0 keeps pos id 0 and real mask in every block
        pooled = record_pooled_positions(monkeypatch)
        model = FunnelModel(tiny_config)
        toks = np.concatenate([[2], Rng(4).integers(5, 11, 6), [3]])
        state = model.encode(toks)
        assert len(pooled) == len(state.block_mask) - 1
        for pos, mask in zip([np.arange(8)] + pooled, state.block_mask):
            assert pos[0] == 0
            assert mask[0]

    def test_top_attn_encoder_runs(self, monkeypatch):
        pooled = record_pooled_positions(monkeypatch)
        layout = LayoutSpec(blocks=(BlockSpec(2), BlockSpec(2)), hidden=16, head_dim=8)
        config = ModelConfig(layout=layout, vocab_size=11, pool_op="top_attn", seed=0)
        model = FunnelModel(config)
        toks = np.concatenate([[2], Rng(5).integers(5, 11, 6), [3]])
        state = model.encode(toks)
        assert state.h_last.shape[0] == 4
        [pos] = pooled
        assert pos[0] == 0

    @pytest.mark.parametrize("op", ["mean", "max", "top_attn"])
    def test_a_map_outlives_its_layer_only_for_top_attention(self, monkeypatch, op):
        # no tape: a map is held by nothing but the encoder loop.  Under top_attn a
        # block's last map lives until pool_step has read it, not into the transition.
        maps, pools = [], []

        def track(layer, transition):
            def run(*args, **kwargs):
                if op != "top_attn" or transition:
                    assert all(ref() is None for ref in maps), "a map outlived its layer"
                hidden, attn = layer(*args, **kwargs)
                maps.append(weakref.ref(attn))
                return hidden, attn
            return run

        def pool(state, pool_op, separate_cls, truncate, prev_attn=None):
            pools.append(prev_attn is None)
            if op == "top_attn":  # the map of the block's last layer, still alive
                assert prev_attn is maps[-1]()
            return pool_step(state, pool_op, separate_cls, truncate, prev_attn)

        for name in ("transformer_layer", "block_transition_attention"):
            monkeypatch.setattr(encoder, name,
                                track(getattr(encoder, name), name == "block_transition_attention"))
        monkeypatch.setattr(encoder, "pool_step", pool)
        model = FunnelModel(ModelConfig(layout="B2-2-2H64D1", vocab_size=20, pool_op=op, seed=0))
        ids = np.random.Generator(np.random.Philox(6)).integers(5, 20, size=(16, 2))
        model.encode(ids, np.arange(16)[:, None] < np.array([16, 11]))
        assert len(maps) == 6 and pools == [op != "top_attn"] * 2

    def test_variant_swap_equivalent_through_whole_model(self):
        # pooled queries against unpooled keys included: the decoder output
        # must agree across all three score implementations
        from funnel.model import build_params
        outs = {}
        for variant in ("naive", "gather", "factorized"):
            layout = LayoutSpec(blocks=(BlockSpec(2), BlockSpec(2)), hidden=16,
                                decoder_layers=1, head_dim=8)
            config = ModelConfig(layout=layout, vocab_size=11, seed=5,
                                 attn_variant=variant)
            model = FunnelModel(config)
            toks = np.concatenate([[2], Rng(9).integers(5, 11, 6), [3]])
            outs[variant] = model.decode(model.encode(toks)).hidden.data
        assert np.abs(outs["naive"] - outs["gather"]).max() < 1e-8
        assert np.abs(outs["naive"] - outs["factorized"]).max() < 1e-8

    def test_grad_flows_through_two_blocks(self, tiny_config):
        model = FunnelModel(tiny_config)
        toks = np.concatenate([[2], Rng(6).integers(5, 11, 6), [3]])

        def f():
            state = model.encode(toks)
            return sum_all(mul(state.h_last, weights))

        gen = np.random.Generator(np.random.Philox(8))
        weights = Tensor(gen.standard_normal((4, 16)))
        keys = ["embed/token", "rel/w_r", "enc/b0/l0/attn/w_q", "enc/b1/l0/attn/w_v",
                "enc/b1/l1/ffn/w2", "enc/b0/l1/attn/ln_g"]
        err = grad_check(f, [model.params[k] for k in keys], eps=1e-4,
                         denominator_floor=1e-6, max_coords_per_param=6, seed=8)
        assert err < 1e-4


PLAN_CASES = [(sep, trunc, pqo, t) for sep in (True, False) for trunc in (True, False)
              for pqo in (True, False) for t in (1, 2, 4, 8, 16)] + [
    (sep, False, pqo, 12) for sep in (True, False) for pqo in (True, False)]


# top_attn is left out for B1-1-1H64D1: with pool_query_only on, its middle
# block's lone transition has no same-length map for the next pooling
@pytest.mark.parametrize("layout,op", [
    (layout, op) for layout in ("B2-1x2-2H64D2", "B1-1-1H64D1", "L3H64")
    for op in ("mean", "max", "top_attn") if (layout, op) != ("B1-1-1H64D1", "top_attn")])
def test_layer_plan_describes_what_runs(layout, op, monkeypatch):
    # every run_layer call of encode + decode, in order: its padded query and
    # key rows and its weights are the plan entry's.  Transitions look
    # run_layer up in encoder, other layers in relattn.
    calls, run_layer = [], relattn.run_layer

    def record(q_in, kv_in, q_pos, k_pos, key_mask, extent, params, *args):
        calls.append((q_in.shape[0], kv_in.shape[0], params))
        return run_layer(q_in, kv_in, q_pos, k_pos, key_mask, extent, params, *args)

    monkeypatch.setattr(relattn, "run_layer", record)
    monkeypatch.setattr(encoder, "run_layer", record)
    params = FunnelModel(ModelConfig(layout=layout, vocab_size=11, seed=0)).params
    for sep, trunc, pqo, t in PLAN_CASES:
        config = ModelConfig(layout=layout, vocab_size=11, pool_op=op, separate_cls=sep,
                             truncate_seq=trunc, pool_query_only=pqo, seed=0)
        model = FunnelModel(config, params)
        ids = Rng(t).integers(5, 11, (t, 2))
        mask = np.arange(t)[:, None] < np.array([t, (t + 1) // 2])  # column 1 padded
        calls.clear()
        model.decode(model.encode(ids, mask))
        plan = layer_plan(config.layout, t, sep, trunc, pqo)
        case = f"{op} separate_cls={sep} truncate={trunc} pool_query_only={pqo} T={t}"
        assert [(q, k) for q, k, _ in calls] == [(run.q_len, run.k_len) for run in plan], case
        # LayerParams compare field by field, and a Tensor equals only itself
        assert [lp for _, _, lp in calls] == [layer_view(params, run.prefix) for run in plan], case
