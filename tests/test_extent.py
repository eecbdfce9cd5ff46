"""Layers stop at each column's last real row: real rows are unchanged, rows past it are 0.0."""

import numpy as np
import pytest

from funnel import encoder, relattn
from funnel.autodiff import gather_rows
from funnel.model import FunnelModel
from funnel.relattn import layer_view, row_extent

from test_decoder import grid_configs

CONFIGS = list(grid_configs())
NON_POWERS = (3, 5, 6, 9, 18)


def lengths(config):
    return (8, 16, 32) if config.truncate_seq else NON_POWERS


def config_id(config):
    flags = "".join("TF"[not v] for v in (config.separate_cls, config.truncate_seq,
                                          config.pool_query_only))
    return f"{len(config.layout.blocks)}blk-{config.pool_op}-{flags}"


def suffix_batch(t, lengths_):
    """[T, B] ids and mask, column b real up to ``lengths_[b]``; pads hold id 0."""
    ids = np.random.Generator(np.random.Philox(t)).integers(5, 11, size=t)
    ids[0] = 2
    mask = np.arange(t)[:, None] < np.asarray(lengths_)
    return np.where(mask, ids[:, None], 0), mask


def run(model, ids, mask):
    state = model.encode(ids, mask)
    return state, model.decode(state, mask).hidden.data


def full_length(monkeypatch):
    """Every layer computes every row: the reference the cut layers are checked against."""
    every_row = lambda mask: np.full(np.shape(mask)[1:], len(mask))  # noqa: E731
    monkeypatch.setattr(relattn, "row_extent", every_row)
    monkeypatch.setattr(encoder, "row_extent", every_row)


def last_block_rows(mask_last, real, t):
    """Rows the final block computes: its real rows, widened to those the decoder reads."""
    return np.maximum(row_extent(mask_last), (real - 1) * len(mask_last) // t + 1)


def test_row_extent_is_one_past_the_last_real_row():
    assert row_extent(np.array([True, False, True, False])) == 3
    mask = np.array([[True, True, False], [False, True, False], [False, False, False]])
    np.testing.assert_array_equal(row_extent(mask), [1, 2, 0])


@pytest.mark.parametrize("config", CONFIGS, ids=config_id)
def test_real_rows_match_full_length_layers(config, monkeypatch):
    """Every real length, in pairs (r, r - 1), against a full-length batch of all of them.

    Each pair runs up to row r, so the cut falls at every other extent and
    the shorter column is zeroed past its own.
    """
    model = FunnelModel(config)
    for t in lengths(config):
        ids, mask = suffix_batch(t, range(1, t + 1))
        with monkeypatch.context() as m:
            full_length(m)
            ref_state, ref_hidden = run(model, ids, mask)
        for pair in (np.arange(r, max(r - 2, 0), -1) for r in range(t, 0, -2)):
            state, hidden = run(model, *suffix_batch(t, pair))
            for col, r in enumerate(pair):
                case = (config_id(config), t, r)
                np.testing.assert_allclose(hidden[:r, col], ref_hidden[:r, r - 1], rtol=0,
                                           atol=1e-12, err_msg=str(case))
                for h, ref, real in zip(state.block_hidden, ref_state.block_hidden,
                                        ref_state.block_mask):
                    keep = real[:, r - 1]
                    np.testing.assert_allclose(h.data[keep, col], ref.data[keep, r - 1], rtol=0,
                                               atol=1e-12, err_msg=str(case))


@pytest.mark.parametrize("config", CONFIGS, ids=config_id)
def test_rows_past_each_extent_are_zero(config):
    """A batch whose longest column falls short of T: every block, then the decoder."""
    model = FunnelModel(config)
    for t in lengths(config):
        real = np.array([1, t // 2, t - 1])
        state, hidden = run(model, *suffix_batch(t, real))
        last = len(state.block_hidden) - 1
        for m, (h, mask) in enumerate(zip(state.block_hidden, state.block_mask)):
            rows = last_block_rows(mask, real, t) if m == last else row_extent(mask)
            past = np.arange(len(mask))[:, None] >= rows
            assert (h.data[past] == 0.0).all(), (config_id(config), t, m)
        past = np.arange(t)[:, None] >= real
        assert (hidden[past] == 0.0).all() and not np.signbit(hidden[past]).any()


def test_layer_returns_the_map_at_its_computed_size():
    """A [64, 2] batch with real lengths 5 and 9: the map covers the first 9 queries and keys."""
    config = CONFIGS[0]
    model = FunnelModel(config)
    ids, mask = suffix_batch(64, [5, 9])
    x = gather_rows(model.params["embed/token"], ids)
    lp = layer_view(model.params, "enc/b0/l0")
    _, maps = relattn.transformer_layer(x, np.arange(64), mask, lp, config, config.encoding())
    assert maps.shape == (2, config.heads, 9, 9)
    np.testing.assert_allclose(maps.sum(axis=-1), 1.0, rtol=1e-12)
    assert (maps[0, ..., 5:] == 0.0).all()                   # column 0's pad keys
