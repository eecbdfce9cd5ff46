"""Relative attention: encodings, three-way score equivalence, layer semantics."""

import math
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from funnel.autodiff import (NumericError, Tape, Tensor, add, grad_check, layer_norm, matmul,
                             merge_heads, mul, reshape, softmax_lastdim, split_heads)
from funnel.layout import BlockSpec, LayoutSpec
from funnel.model import FunnelModel, ModelConfig
from funnel import relattn
from funnel.relattn import (RelPosEncoding, attention, gather_index_matrix, layer_view, pffn,
                            position_term_factorized, position_term_gather,
                            position_term_naive, transformer_layer, variant_deviation)

from helpers import record_pooled_positions, sum_all

VARIANT_FNS = {
    "naive": position_term_naive,
    "gather": position_term_gather,
    "factorized": position_term_factorized,
}


def scalar_double_loop(proj_q, q_pos, k_pos, w_r, u, enc):
    """Independent oracle: per-pair scalar evaluation of the position score."""
    tq, tk = len(q_pos), len(k_pos)
    out = np.zeros((tq, tk))
    for i in range(tq):
        qu = proj_q[i] + u
        for j in range(tk):
            r = enc.encode(np.array([q_pos[i] - k_pos[j]]))[0]
            out[i, j] = qu @ (r @ w_r)
    return out


def random_case(seed, tq=4, tk=6, d=8, dh=4):
    gen = np.random.Generator(np.random.Philox(seed))
    return (Tensor(gen.standard_normal((tq, dh))),
            np.sort(gen.choice(20, size=tq, replace=False)),
            np.sort(gen.choice(20, size=tk, replace=False)),
            Tensor(gen.standard_normal((d, dh))),
            Tensor(gen.standard_normal(dh)),
            RelPosEncoding(d))


class TestEncoding:
    def test_distance_zero_is_zeros_then_ones(self):
        enc = RelPosEncoding(8)
        r0 = enc.encode(np.array([0]))[0]
        np.testing.assert_allclose(r0, [0, 0, 0, 0, 1, 1, 1, 1])

    def test_frequency_exponents_start_at_two_over_d(self):
        enc = RelPosEncoding(8)
        np.testing.assert_allclose(enc.inv_freq,
                                   [10000 ** (-2 / 8), 10000 ** (-4 / 8),
                                    10000 ** (-6 / 8), 10000 ** (-1.0)])

    def test_four_position_encodings(self):
        enc = RelPosEncoding(4)
        p = np.array([3])
        a = 3 * enc.inv_freq
        np.testing.assert_allclose(enc.phi(p)[0], np.concatenate([np.sin(a), np.cos(a)]))
        np.testing.assert_allclose(enc.psi(p)[0], np.concatenate([np.cos(a), np.cos(a)]))
        np.testing.assert_allclose(enc.pi(p)[0], np.concatenate([-np.cos(a), np.sin(a)]))
        np.testing.assert_allclose(enc.omega(p)[0], np.concatenate([np.sin(a), np.sin(a)]))

    def test_odd_width_rejected(self):
        with pytest.raises(Exception):
            RelPosEncoding(7)


class TestEncodingMemo:
    TABLES = ("encode", "phi", "psi", "pi", "omega")

    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    def test_memoised_table_equals_fresh_instance(self, dtype):
        enc = RelPosEncoding(16, dtype=dtype)
        pos = np.array([0, 1, 3, 7, 15, 100000])
        for name in self.TABLES:
            first = getattr(enc, name)(pos)
            again = getattr(enc, name)(pos.copy())
            assert (again is first) == (name in ("encode", "phi"))  # only encode is memoised
            np.testing.assert_array_equal(again, first)
            fresh = getattr(RelPosEncoding(16, dtype=dtype), name)(pos)
            assert first.dtype == fresh.dtype == dtype
            np.testing.assert_array_equal(first, fresh)

    def test_memoised_table_is_read_only(self):
        enc = RelPosEncoding(8)
        pos = np.arange(4)
        for name in self.TABLES:
            table = getattr(enc, name)(pos)
            assert not table.flags.writeable
            with pytest.raises(ValueError):
                table[0, 0] = 1.0

    def test_key_distinguishes_dtype(self):
        enc = RelPosEncoding(8)
        ints = np.array([4607182418800017408], dtype=np.int64)  # the bytes of 1.0 as f64
        one = enc.phi(ints.view(np.float64))
        np.testing.assert_array_equal(one, RelPosEncoding(8).phi(np.array([1.0])))
        assert not np.array_equal(enc.phi(ints), one)

    def test_factorized_forward_computes_angles_once_per_position_vector(self, monkeypatch):
        calls = []
        angles = RelPosEncoding._angles

        def spy(self, t):
            calls.append((self, np.asarray(t).tobytes()))  # holding self keeps ids unique
            return angles(self, t)

        monkeypatch.setattr(RelPosEncoding, "_angles", spy)
        pooled = record_pooled_positions(monkeypatch)
        model = FunnelModel(ModelConfig(layout="B4-4-4H256D2", vocab_size=30, seed=0))
        ids = np.random.Generator(np.random.Philox(0)).integers(5, 30, size=128)
        state = model.encode(ids)
        model.decode(state)
        # one encoding object per model pass, shared by encoder and
        # decoder, computing angles for every distinct position vector once
        assert {owner for owner, _ in calls} == {state.encoding}
        blocks = [np.arange(128)] + pooled
        assert sorted(key for _, key in calls) == sorted({p.tobytes() for p in blocks})

    def test_factorized_pass_memoises_one_encode_table_per_position_vector(self, monkeypatch):
        pooled = record_pooled_positions(monkeypatch)
        model = FunnelModel(ModelConfig(layout="B4-4-4H256D2", vocab_size=30, seed=0,
                                        attn_variant="factorized"))
        ids = np.random.Generator(np.random.Philox(0)).integers(5, 30, size=128)
        state = model.encode(ids)
        model.decode(state)
        memo = state.encoding._memo
        blocks = [np.arange(128)] + pooled
        assert sorted(key[-1] for key in memo) == sorted({p.tobytes() for p in blocks})

    def test_naive_memo_holds_no_more_than_twice_the_gather_tables(self):
        # the naive form picks its pairwise rows out of the gather form's
        # ascending table, so it memoises no [Tq*Tk, D] table per pair set
        ids = np.random.Generator(np.random.Philox(1)).integers(5, 30, size=128)
        held = {}
        for variant in ("gather", "naive"):
            model = FunnelModel(ModelConfig(layout="B4-4-4H256D2", vocab_size=30, seed=0,
                                            attn_variant=variant))
            state = model.encode(ids)
            model.decode(state)
            held[variant] = sum(np.asarray(t).nbytes for v in state.encoding._memo.values()
                                for t in (v if isinstance(v, tuple) else (v,)))
        assert held["naive"] <= 2 * held["gather"]


class TestNaive:
    def test_zero_query_gives_zero_scores(self):
        _, q_pos, k_pos, w_r, u, enc = random_case(0)
        proj_q = Tensor(np.zeros((4, 4)))
        zero_u = Tensor(np.zeros(4))
        out = position_term_naive(proj_q, q_pos, k_pos, w_r, zero_u, enc)
        np.testing.assert_allclose(out.data, np.zeros((4, 6)), atol=1e-15)

    def test_distance_zero_scores_cosine_half(self):
        gen = np.random.Generator(np.random.Philox(1))
        d, dh = 8, 4
        enc = RelPosEncoding(d)
        proj_q = Tensor(gen.standard_normal((1, dh)))
        w_r = Tensor(gen.standard_normal((d, dh)))
        u = Tensor(gen.standard_normal(dh))
        out = position_term_naive(proj_q, np.array([0]), np.array([0]), w_r, u, enc)
        projected_query = (proj_q.data[0] + u.data) @ w_r.data.T
        assert out.data[0, 0] == pytest.approx(projected_query[d // 2:].sum(), rel=1e-12)

    def test_matches_scalar_double_loop(self):
        proj_q, q_pos, k_pos, w_r, u, enc = random_case(2)
        out = position_term_naive(proj_q, q_pos, k_pos, w_r, u, enc)
        oracle = scalar_double_loop(proj_q.data, q_pos, k_pos, w_r.data, u.data, enc)
        np.testing.assert_allclose(out.data, oracle, atol=1e-12)


class TestGather:
    def test_matches_naive_oracle_100_cases(self):
        for seed in range(100):
            proj_q, q_pos, k_pos, w_r, u, enc = random_case(seed)
            ref = position_term_naive(proj_q, q_pos, k_pos, w_r, u, enc).data
            out = position_term_gather(proj_q, q_pos, k_pos, w_r, u, enc).data
            np.testing.assert_allclose(out, ref, atol=1e-10)

    def test_shift_structure_for_stride_one(self):
        idx, _ = gather_index_matrix(np.arange(6), np.arange(6))
        assert (idx[:, :-1] - idx[:, 1:] == 1).all()

    def test_pooled_queries_against_unpooled_keys(self):
        gen = np.random.Generator(np.random.Philox(3))
        q_pos, k_pos = np.array([1, 3, 5, 7]), np.arange(8)
        proj_q = Tensor(gen.standard_normal((4, 4)))
        w_r = Tensor(gen.standard_normal((8, 4)))
        u = Tensor(gen.standard_normal(4))
        enc = RelPosEncoding(8)
        ref = position_term_naive(proj_q, q_pos, k_pos, w_r, u, enc).data
        out = position_term_gather(proj_q, q_pos, k_pos, w_r, u, enc).data
        np.testing.assert_allclose(out, ref, atol=1e-10)


class TestFactorized:
    def test_matches_naive_oracle_100_cases(self):
        gen = np.random.Generator(np.random.Philox(77))
        for seed in range(100):
            tq = int(gen.integers(1, 9))
            tk = int(gen.integers(2, 9))
            d = int(gen.choice([4, 8, 16]))
            proj_q, q_pos, k_pos, w_r, u, enc = random_case(seed, tq, tk, d, d // 2)
            ref = position_term_naive(proj_q, q_pos, k_pos, w_r, u, enc).data
            out = position_term_factorized(proj_q, q_pos, k_pos, w_r, u, enc).data
            np.testing.assert_allclose(out, ref, atol=1e-10)

    def test_single_frequency_hand_case(self):
        # D=2: one frequency f; score = a sin((i-j)f) + b cos((i-j)f) for
        # projected query (a, b), expanded per the two angle-difference rules
        enc = RelPosEncoding(2)
        f = enc.inv_freq[0]
        a, b = 0.7, -1.3
        i, j = 5, 2
        proj_q = Tensor(np.array([[a, b]]))
        w_r = Tensor(np.eye(2))
        u = Tensor(np.zeros(2))
        out = position_term_factorized(proj_q, np.array([i]), np.array([j]), w_r, u, enc)
        expected = a * math.sin((i - j) * f) + b * math.cos((i - j) * f)
        assert out.data[0, 0] == pytest.approx(expected, rel=1e-12)

    def test_origin_only_reduces_to_cosine_half(self):
        gen = np.random.Generator(np.random.Philox(4))
        d, dh = 8, 4
        enc = RelPosEncoding(d)
        proj_q = Tensor(gen.standard_normal((1, dh)))
        w_r = Tensor(gen.standard_normal((d, dh)))
        u = Tensor(gen.standard_normal(dh))
        out = position_term_factorized(proj_q, np.array([0]), np.array([0]), w_r, u, enc)
        projected_query = (proj_q.data[0] + u.data) @ w_r.data.T
        assert out.data[0, 0] == pytest.approx(projected_query[d // 2:].sum(), rel=1e-12)


def two_product_reference(proj_q, q_pos, k_pos, w_r, u, enc):
    """The factorized term before folding: [qr (.) phi] psi' + [qr (.) pi] omega'."""
    def lay(table, pos):  # [T, ...] tables against [..., H, T, D]; [T, B] ones -> [B, 1, T, D]
        return table if np.ndim(pos) == 1 else np.moveaxis(table, 1, 0)[:, None]

    qr = (proj_q.data + u.data) @ np.swapaxes(w_r.data, -1, -2)
    phi, pi = lay(enc.phi(q_pos), q_pos), lay(enc.pi(q_pos), q_pos)
    psi_t = np.swapaxes(lay(enc.psi(k_pos), k_pos), -1, -2)
    omega_t = np.swapaxes(lay(enc.omega(k_pos), k_pos), -1, -2)
    return (qr * phi) @ psi_t + (qr * pi) @ omega_t


def folded_cases(dtype):
    """Shared 1-D positions, pooled queries against unpooled keys, per-column [T, B] positions."""
    gen = np.random.Generator(np.random.Philox(88))
    h, d, dh, b = 3, 16, 4, 2

    def draw(*shape):
        return Tensor(gen.standard_normal(shape).astype(dtype))

    w_r, u = draw(h, d, dh), draw(h, 1, dh)
    per_column_k = np.stack([np.arange(8), np.arange(8) + 3], axis=1)   # [8, 2]
    return [
        (draw(h, 7, dh), np.arange(7), np.arange(7), w_r, u),
        (draw(h, 4, dh), np.array([0, 2, 4, 6]), np.arange(8), w_r, u),
        (draw(b, h, 4, dh), per_column_k[[0, 3, 5, 6]], per_column_k, w_r, u),
    ]


@pytest.mark.parametrize("dtype, rel", [(np.float64, 1e-12), (np.float32, 1e-5)])
def test_folded_factorized_equals_two_product_form(dtype, rel):
    for proj_q, q_pos, k_pos, w_r, u in folded_cases(dtype):
        enc = RelPosEncoding(16, dtype)
        out = position_term_factorized(proj_q, q_pos, k_pos, w_r, u, enc).data
        ref = two_product_reference(proj_q, q_pos, k_pos, w_r, u, enc)
        assert out.dtype == dtype and out.shape == ref.shape
        assert np.abs(out - ref).max() <= rel * np.abs(ref).max()


def test_factorized_issues_one_score_sized_matmul(monkeypatch):
    shapes = []
    real = relattn.matmul

    def spy(a, b, bias=None, left=None):
        out = real(a, b, bias, left)
        shapes.append(out.shape)
        return out

    monkeypatch.setattr(relattn, "matmul", spy)
    for proj_q, q_pos, k_pos, w_r, u in folded_cases(np.float64):
        shapes.clear()
        position_term_factorized(proj_q, q_pos, k_pos, w_r, u, RelPosEncoding(16))
        tq, tk = len(q_pos), len(k_pos)
        assert sum(shape[-2:] == (tq, tk) for shape in shapes) == 1, shapes


def test_three_way_equivalence_property():
    """Random configs with arbitrary integer positions agree to 1e-10."""
    gen = np.random.Generator(np.random.Philox(123))
    for _ in range(60):
        tk = int(gen.integers(2, 17))
        tq = int(gen.integers(1, tk + 1))
        d = int(gen.choice([4, 8, 16]))
        dh = int(gen.choice([2, 4, d]))
        q_pos = gen.choice(64, size=tq, replace=False)
        k_pos = gen.choice(64, size=tk, replace=False)
        enc = RelPosEncoding(d)
        proj_q = Tensor(gen.standard_normal((tq, dh)))
        w_r = Tensor(gen.standard_normal((d, dh)))
        u = Tensor(gen.standard_normal(dh))
        assert variant_deviation(proj_q, q_pos, k_pos, w_r, u, enc) < 1e-10


def test_equivalence_survives_pretraining_scale_positions():
    # absolute positions to 2048: the angle-difference rewrite must not lose
    # accuracy to argument reduction at large angles
    gen = np.random.Generator(np.random.Philox(321))
    for d in (16, 64):
        enc = RelPosEncoding(d)
        k_pos = np.sort(gen.choice(2048, size=12, replace=False))
        q_pos = np.sort(gen.choice(2048, size=7, replace=False))
        proj_q = Tensor(gen.standard_normal((7, d)))
        w_r = Tensor(gen.standard_normal((d, d)))
        u = Tensor(gen.standard_normal(d))
        dev = variant_deviation(proj_q, q_pos, k_pos, w_r, u, enc)
        assert dev < 1e-9, f"deviation {dev:.2e} at D={d}"


@pytest.mark.parametrize("variant", ["naive", "gather", "factorized"])
def test_layer_output_is_invariant_to_shifting_every_position(variant):
    """Attention reads positions only through the distances i - j, so shifting every
    position by c leaves ``transformer_layer``'s output unchanged: byte for byte for
    ``naive`` and ``gather``, which build their tables from the distances, and within 1e-14
    for ``factorized``, which rotates by each absolute position's own angles.  At
    ``B2-2H128D1`` with a padded [16, 3] batch."""
    config = ModelConfig(layout="B2-2H128D1", vocab_size=11, attn_variant=variant, seed=0)
    lp = layer_view(FunnelModel(config).params, "enc/b0/l0")
    x = Tensor(np.random.Generator(np.random.Philox(17)).standard_normal((16, 3, 128)))
    mask = np.arange(16)[:, None] < np.array([16, 11, 5])
    pos, enc = np.arange(16), config.encoding()
    ref = transformer_layer(x, pos, mask, lp, config, enc)[0].data
    for c in (1, 7, 1000, 100000):
        out = transformer_layer(x, pos + c, mask, lp, config, enc)[0].data
        if variant == "factorized":
            assert np.abs(out - ref).max() <= 1e-14, f"shift {c}"
        else:
            assert out.tobytes() == ref.tobytes(), f"shift {c}"


@pytest.fixture
def tiny_layer():
    layout = LayoutSpec(blocks=(BlockSpec(1),), hidden=8, head_dim=4)
    config = ModelConfig(layout=layout, vocab_size=11, seed=0)
    model = FunnelModel(config)
    lp = layer_view(model.params, "enc/b0/l0")
    return config, model, lp


class TestAttentionLayer:
    def test_single_key_attends_fully(self, tiny_layer):
        config, model, lp = tiny_layer
        gen = np.random.Generator(np.random.Philox(5))
        q_in = Tensor(gen.standard_normal((3, 8)))
        kv = Tensor(gen.standard_normal((1, 8)))
        _, maps = attention(q_in, kv, np.arange(3), np.arange(1), np.ones(1, bool), lp,
                            config, config.encoding())
        np.testing.assert_allclose(maps, np.ones((2, 3, 1)))

    def test_variant_swap_changes_layer_output_below_1e8(self, tiny_layer):
        config, model, lp = tiny_layer
        gen = np.random.Generator(np.random.Philox(6))
        x = Tensor(gen.standard_normal((5, 8)))
        pos = np.arange(5)
        outs = {}
        for variant in ("naive", "gather", "factorized"):
            out, _ = attention(x, x, pos, pos, np.ones(5, bool), lp,
                               replace(config, attn_variant=variant), config.encoding())
            outs[variant] = out.data
        assert np.abs(outs["naive"] - outs["gather"]).max() < 1e-8
        assert np.abs(outs["naive"] - outs["factorized"]).max() < 1e-8

    def test_masked_key_gets_exactly_zero_weight(self, tiny_layer):
        config, model, lp = tiny_layer
        gen = np.random.Generator(np.random.Philox(7))
        x = Tensor(gen.standard_normal((4, 8)))
        mask = np.array([True, True, False, True])
        _, maps = attention(x, x, np.arange(4), np.arange(4), mask, lp, config,
                            config.encoding())
        assert (maps[:, :, 2] == 0.0).all()
        np.testing.assert_allclose(maps.sum(axis=-1), np.ones((2, 4)), atol=1e-9)

    def test_all_keys_masked_is_numeric_error(self, tiny_layer):
        config, model, lp = tiny_layer
        x = Tensor(np.zeros((2, 8)))
        with pytest.raises(NumericError):
            attention(x, x, np.arange(2), np.arange(2), np.zeros(2, bool), lp, config,
                      config.encoding())

    def test_content_term_matches_outer_product_form(self, tiny_layer):
        # with the position projection zeroed, scores reduce to the
        # content outer product (q + v) k' per head
        config, model, lp = tiny_layer
        model.params["rel/w_r"].data[:] = 0.0
        gen = np.random.Generator(np.random.Philox(8))
        x = Tensor(gen.standard_normal((4, 8)))
        pos = np.arange(4)
        _, maps = attention(x, x, pos, pos, np.ones(4, bool), lp, config, config.encoding())
        dh = 4
        for h in range(2):
            lo, hi = h * dh, (h + 1) * dh
            q = x.data @ lp.w_q.data[:, lo:hi] + lp.b_q.data[lo:hi]
            k = x.data @ lp.w_k.data[:, lo:hi] + lp.b_k.data[lo:hi]
            scores = (q + lp.v.data[lo:hi]) @ k.T / math.sqrt(dh)
            e = np.exp(scores - scores.max(axis=-1, keepdims=True))
            np.testing.assert_allclose(maps[h], e / e.sum(axis=-1, keepdims=True),
                                       atol=1e-12)


def composed_attention(q_in, kv_in, q_pos, k_pos, key_mask, p, config, enc):
    """``attention`` without dropout, its score sum a standalone ``add(content, position)``."""
    n_heads, dh = config.heads, q_in.shape[-1] // config.heads
    q = split_heads(matmul(q_in, p.w_q, p.b_q), n_heads)
    k_t = split_heads(matmul(kv_in, p.w_k, p.b_k), n_heads, keys=True)
    val = split_heads(matmul(kv_in, p.w_v, p.b_v), n_heads)
    content = matmul(add(q, reshape(p.v, (n_heads, 1, dh))), k_t)
    position = VARIANT_FNS[config.attn_variant](
        q, q_pos, k_pos, split_heads(p.w_r, n_heads), reshape(p.u, (n_heads, 1, dh)), enc)
    weights = softmax_lastdim(add(content, position), 1.0 / np.sqrt(dh),
                              key_mask.T[..., None, None, :])
    out = matmul(merge_heads(matmul(weights, val)), p.w_o, p.b_o)
    return layer_norm(q_in, p.ln_attn_g, p.ln_attn_b, residual=out), weights.data


@pytest.mark.parametrize("variant", relattn.VARIANTS)
@pytest.mark.parametrize("per_column", [False, True])
def test_content_product_adds_the_position_term(tiny_layer, variant, per_column):
    """Softmax reads the content ``matmul`` that took the position term as its bias and ``v``
    as its left shift, and the position term's query product takes ``u`` the same way, so
    the split query is read by those two nodes and the sub-layer records no ``add``; hidden
    states, map and every gradient keep the bytes of ``add(content, position)`` over
    ``add(q, v)``.  Pooled queries [3, 2, 8] attend to keys [5, 2, 8]."""
    config, model, lp = tiny_layer
    config = replace(config, attn_variant=variant)
    gen = np.random.Generator(np.random.Philox(13))
    q_data, kv_data = gen.standard_normal((3, 2, 8)), gen.standard_normal((5, 2, 8))
    w = Tensor(gen.standard_normal((3, 2, 8)))
    k_pos = np.arange(5)
    q_pos = np.array([[0, 0], [2, 1], [4, 3]]) if per_column else np.array([0, 2, 4])
    mask = np.array([[True, True], [True, False], [False, True], [True, True], [True, False]])
    params = [lp.w_q, lp.b_q, lp.w_k, lp.b_k, lp.w_v, lp.b_v, lp.w_o, lp.b_o, lp.u, lp.v,
              lp.ln_attn_g, lp.ln_attn_b, lp.w_r]
    runs = []
    for fn in (attention, composed_attention):
        q_in, kv_in = Tensor(q_data, requires_grad=True), Tensor(kv_data, requires_grad=True)
        with Tape() as tape:
            hidden, maps = fn(q_in, kv_in, q_pos, k_pos, mask, lp, config, config.encoding())
            loss = sum_all(mul(hidden, w))
        nodes = [(node.name, node.out, node.inputs) for node in tape.nodes]
        tape.backward(loss)
        grads = [tape.grad(t) for t in [q_in, kv_in] + params]
        runs.append((nodes, hidden.data, maps, grads))
    (nodes, hidden, maps, grads), (_, ref_hidden, ref_maps, ref_grads) = runs
    made_by = {out: (name, inputs) for name, out, inputs in nodes}
    (softmax_input,), = [inputs for name, _, inputs in nodes if name == "softmax"]
    name, (q, k_t, position, v) = made_by[softmax_input]
    assert name == "matmul" and made_by[position][0] != "add"
    assert [made_by[key][0] for key in (q, k_t, v)] == ["split_heads", "split_heads", "reshape"]
    query_product, content = [inputs for _, _, inputs in nodes if q in inputs]
    assert content == (q, k_t, position, v) and made_by[query_product[-1]][0] == "reshape"
    assert "add" not in [name for name, _, _ in nodes]
    assert hidden.tobytes() == ref_hidden.tobytes()
    assert maps.tobytes() == ref_maps.tobytes()
    for g, ref in zip(grads, ref_grads):
        assert g.tobytes() == ref.tobytes()


def test_encode_request_holds_no_separate_score_sum():
    """Peak traced memory of one no-tape encode request (encoder then decoder) at the
    ``encode_long`` benchmark's config, B4-4-4H256D2 in f64, on a line of 128 real rows.

    The content product adds the position term in place, and the peak is 5.64 MiB.  A
    score sum in a node of its own would hold one more [4, 128, 128] f64 array (0.5 MiB),
    6.14 MiB; the bound lies 0.2 MiB above 5.64.
    """
    config = ModelConfig(layout="B4-4-4H256D2", vocab_size=1000, pool_op="mean",
                         attn_variant="factorized", dtype="f64", seed=0)
    model = FunnelModel(config)
    ids = np.random.Generator(np.random.Philox(14)).integers(5, 1000, 128)
    tracemalloc.start()
    try:
        model.decode(model.encode(ids))
        peak = tracemalloc.get_traced_memory()[1] / 2**20
    finally:
        tracemalloc.stop()
    assert peak < 5.85, f"one encode request peaked at {peak:.3f} MiB"


class TestPffn:
    def test_zero_weights_reduce_to_layer_norm(self, tiny_layer):
        config, model, lp = tiny_layer
        for t in (lp.w_ffn1, lp.b_ffn1, lp.w_ffn2, lp.b_ffn2):
            t.data[:] = 0.0
        gen = np.random.Generator(np.random.Philox(9))
        x = Tensor(gen.standard_normal((3, 8)))
        out = pffn(x, lp, config)
        from funnel.autodiff import layer_norm
        expected = layer_norm(x, lp.ln_ffn_g, lp.ln_ffn_b).data
        np.testing.assert_allclose(out.data, expected, atol=1e-12)

    def test_position_equivariance(self, tiny_layer):
        config, model, lp = tiny_layer
        gen = np.random.Generator(np.random.Philox(10))
        x = gen.standard_normal((5, 8))
        perm = np.array([4, 2, 0, 1, 3])
        out = pffn(Tensor(x), lp, config).data
        out_perm = pffn(Tensor(x[perm]), lp, config).data
        np.testing.assert_allclose(out_perm, out[perm], atol=1e-12)

    def test_grad_check(self, tiny_layer):
        config, model, lp = tiny_layer
        gen = np.random.Generator(np.random.Philox(11))
        x = Tensor(gen.standard_normal((4, 8)), requires_grad=True)
        w = Tensor(gen.standard_normal((4, 8)))
        params = [x, lp.w_ffn1, lp.b_ffn1, lp.w_ffn2, lp.b_ffn2, lp.ln_ffn_g, lp.ln_ffn_b]
        err = grad_check(lambda: sum_all(mul(pffn(x, lp, config), w)), params, seed=11)
        assert err < 1e-4


def test_full_layer_grad_check(tiny_layer_factory=None):
    layout = LayoutSpec(blocks=(BlockSpec(1),), hidden=8, head_dim=4)
    config = ModelConfig(layout=layout, vocab_size=11, seed=3)
    model = FunnelModel(config)
    lp = layer_view(model.params, "enc/b0/l0")
    gen = np.random.Generator(np.random.Philox(12))
    x = Tensor(gen.standard_normal((4, 8)), requires_grad=True)
    w = Tensor(gen.standard_normal((4, 8)))
    pos = np.arange(4)

    def f():
        out, _ = transformer_layer(x, pos, np.ones(4, bool), lp, config, config.encoding())
        return sum_all(mul(out, w))

    params = [x, model.params["rel/w_r"]] + [
        model.params[k] for k in model.params if k.startswith("enc/")]
    # eps sized for this O(10) test functional, floor per whole-model calibration
    assert grad_check(f, params, eps=1e-4, seed=12, denominator_floor=1e-6) < 1e-4
