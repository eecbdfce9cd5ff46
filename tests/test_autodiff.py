"""Tensor engine: forward semantics, reverse-mode gradients, the FD oracle."""

import math
import tracemalloc
import weakref

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from funnel import autodiff
from funnel.autodiff import (GELU_A, GELU_C, ContractError, NumericError, Rng, ShapeError, Tape, Tensor,
                             add, bce_with_logits_mean,
                             cross_entropy_mean, dropout, einsum_id_ijd, fit_rows,
                             gather_rows,
                             gelu, grad_check, layer_norm, matmul,
                             max_pool_pairs, mean_pool_pairs, merge_heads, mul, reshape, rotate,
                             softmax_lastdim, split_heads, take_along_last, transpose)
from funnel.model import FunnelModel, ModelConfig
from funnel.training import TrainSettings, train_toy

from helpers import sum_all


def rand(shape, seed=0):
    return np.random.Generator(np.random.Philox(seed)).standard_normal(shape)


def kept_arrays(tape):
    """Every array a pull-back on ``tape`` reaches through its closures."""
    kept, stack, seen = [], [node.backward for node in tape.nodes], set()
    while stack:
        v = stack.pop()
        if id(v) in seen:
            continue
        seen.add(id(v))
        if isinstance(v, np.ndarray):
            kept.append(v)
        elif isinstance(v, (tuple, list)):
            stack.extend(v)
        elif callable(v) and getattr(v, "__closure__", None):
            stack.extend(cell.cell_contents for cell in v.__closure__)
    return kept


class TestMatmul:
    def test_identity(self):
        a = Tensor([[1.0, 2.0], [3.0, 4.0]])
        out = matmul(a, Tensor(np.eye(2)))
        np.testing.assert_array_equal(out.data, [[1.0, 2.0], [3.0, 4.0]])

    def test_row_times_column(self):
        out = matmul(Tensor([[1.0, 2.0]]), Tensor([[3.0], [4.0]]))
        np.testing.assert_array_equal(out.data, [[11.0]])

    def test_matches_triple_loop_oracle(self):
        a, b = rand((3, 4), 1), rand((4, 2), 2)
        expected = np.zeros((3, 2))
        for i in range(3):
            for j in range(2):
                for k in range(4):
                    expected[i, j] += a[i, k] * b[k, j]
        out = matmul(Tensor(a), Tensor(b))
        np.testing.assert_allclose(out.data, expected, atol=1e-12)

    def test_shape_mismatch_names_both_shapes(self):
        with pytest.raises(ShapeError, match=r"\(3, 4\).*\(3, 2\)"):
            matmul(Tensor(rand((3, 4))), Tensor(rand((3, 2))))

    def test_bias_form_equals_separate_add(self):
        a, b, bias = Tensor(rand((5, 2, 3), 27)), Tensor(rand((3, 4), 28)), Tensor(rand(4, 29))
        np.testing.assert_array_equal(matmul(a, b, bias).data, add(matmul(a, b), bias).data)
        with pytest.raises(ShapeError, match="bias"):
            matmul(a, b, Tensor(rand((2, 1, 4))))

    @pytest.mark.parametrize("taped", [True, False], ids=["tape", "no_tape"])
    @pytest.mark.parametrize("case", ["shared_weight", "heads", "constant_b"])
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_left_shift_equals_separate_add(self, dtype, case, taped):
        """``matmul(a, b, bias, left=s)`` gives ``matmul(add(a, s), b, bias)``'s value and every
        gradient byte for byte, as one node that keeps ``a`` and not the sum: a shared 2-D
        weight with an [n] bias and a [k] shift, batched [B, H, T, dh] operands with an
        [H, 1, dh] shift and a score-sized bias (attention's content product), and a constant
        ``b`` broadcast over the batch."""
        gen = np.random.Generator(np.random.Philox(44))
        a_shape, s_shape, b_shape, bias_shape = {      # a [..., m, k], s, b [..., k, n], bias
            "shared_weight": ((5, 2, 3), (3,), (3, 4), (4,)),
            "heads": ((2, 3, 4, 5), (3, 1, 5), (2, 3, 5, 6), (2, 3, 4, 6)),
            "constant_b": ((2, 3, 4, 5), (3, 1, 5), (3, 5, 6), (6,))}[case]
        a, s, b, bias = (Tensor(gen.standard_normal(shape).astype(dtype), requires_grad=True)
                         for shape in (a_shape, s_shape, b_shape, bias_shape))
        b.requires_grad = case != "constant_b"
        up = Tensor(gen.standard_normal(a_shape[:-1] + b_shape[-1:]).astype(dtype))

        def run(fused):
            out = matmul(a, b, bias, left=s) if fused else matmul(add(a, s), b, bias)
            return out, sum_all(mul(out, up))

        if not taped:
            out, ref = run(True)[0].data, run(False)[0].data
            assert out.dtype == dtype and out.tobytes() == ref.tobytes()
            return
        leaves = [t for t in (a, b, bias, s) if t.requires_grad]
        outs, grads, nodes = [], [], []
        for fused in (True, False):
            with Tape() as tape:
                out, root = run(fused)
            nodes.append([node.name for node in tape.nodes])
            if fused:
                kept = [k for k in kept_arrays(tape) if k.shape == a_shape]
                assert len(kept) == b.requires_grad and all(k is a.data for k in kept)
            tape.backward(root)
            outs.append(out.data)
            grads.append([tape.grad(t) for t in leaves])
        assert nodes == [["matmul", "mul", "sum_all"], ["add", "matmul", "mul", "sum_all"]]
        assert outs[0].dtype == dtype and outs[0].tobytes() == outs[1].tobytes()
        for g, ref in zip(*grads):
            assert g.dtype == dtype and g.tobytes() == ref.tobytes()


class TestSoftmax:
    def test_symmetric_pair(self):
        np.testing.assert_allclose(softmax_lastdim(Tensor([0.0, 0.0])).data, [0.5, 0.5])

    def test_huge_logits_no_overflow(self):
        out = softmax_lastdim(Tensor([1000.0, 1000.0]))
        np.testing.assert_allclose(out.data, [0.5, 0.5])

    def test_log3_quarters(self):
        out = softmax_lastdim(Tensor([0.0, math.log(3.0)]))
        np.testing.assert_allclose(out.data, [0.25, 0.75], atol=1e-12)

    def test_rows_sum_to_one(self):
        out = softmax_lastdim(Tensor(rand((5, 7), 3)))
        np.testing.assert_allclose(out.data.sum(axis=-1), np.ones(5), atol=1e-6)

    def test_nan_input_rejected(self):
        with pytest.raises(NumericError):
            softmax_lastdim(Tensor([np.nan, 1.0]))

    def test_all_masked_row_rejected(self):
        with pytest.raises(NumericError):
            softmax_lastdim(Tensor([-np.inf, -np.inf]))

    @staticmethod
    def textbook(x, scale, keep):
        z = np.where(keep, scale * x, -np.inf)
        e = np.exp(z - z.max(axis=-1, keepdims=True))
        return e / e.sum(axis=-1, keepdims=True)

    def test_scaled_masked_matches_textbook(self):
        x = 30.0 * rand((2, 6, 9), 12)
        keep = np.random.Generator(np.random.Philox(13)).random((2, 1, 9)) > 0.4
        keep[0, 0] = np.arange(9) == 4                       # a row with one real key
        keep[1, 0, :] = True                                 # and one with no masked key
        out = softmax_lastdim(Tensor(x), 0.125, keep).data
        np.testing.assert_allclose(out, self.textbook(x, 0.125, keep), rtol=1e-14, atol=0.0)
        assert (out[np.broadcast_to(~keep, out.shape)] == 0.0).all()

    def test_scaled_masked_backward_matches_textbook(self):
        x = Tensor(rand((4, 7), 14), requires_grad=True)
        keep = np.arange(7) % 3 != 1
        g = rand((4, 7), 15)
        with Tape() as tape:
            y = softmax_lastdim(x, 0.5, keep)
            tape.backward(sum_all(mul(y, Tensor(g))))
        p = self.textbook(x.data, 0.5, keep)
        ref = 0.5 * p * (g - (g * p).sum(axis=-1, keepdims=True))
        np.testing.assert_allclose(tape.grad(x), ref, rtol=1e-14, atol=1e-300)
        assert (tape.grad(x)[:, ~keep] == 0.0).all()

    def test_masked_nan_ignored_kept_nan_rejected(self):
        keep = np.array([True, False])
        out = softmax_lastdim(Tensor([[1.0, np.nan]]), 2.0, keep).data
        np.testing.assert_array_equal(out, [[1.0, 0.0]])
        with pytest.raises(NumericError, match="NaN"):
            softmax_lastdim(Tensor([[np.nan, 1.0]]), 2.0, keep)

    @pytest.mark.parametrize("x,scale", [([[1.0, np.inf, 0.0]], 1.0),
                                         ([[1e308, 1e308, 0.0]], 10.0)])
    def test_plus_inf_row_maximum_rejected(self, x, scale):
        # max-subtracting a +inf maximum gives inf - inf: a row of NaN weights
        with np.errstate(over="ignore"), pytest.raises(NumericError, match=r"\+inf"):
            softmax_lastdim(Tensor(x), scale)
        out = softmax_lastdim(Tensor([[1.0, np.inf]]), 1.0, np.array([True, False])).data
        np.testing.assert_array_equal(out, [[1.0, 0.0]])  # a masked +inf is no fault

    def test_all_masked_by_keep_rejected(self):
        keep = np.array([[True, True], [False, False]])
        with pytest.raises(NumericError, match="every logit masked"):
            softmax_lastdim(Tensor(rand((2, 2), 16)), 1.0, keep)


class TestLayerNorm:
    def test_two_point_row(self):
        out = layer_norm(Tensor([[1.0, -1.0]]), Tensor(np.ones(2)), Tensor(np.zeros(2)),
                         eps=1e-12)
        np.testing.assert_allclose(out.data, [[1.0, -1.0]], atol=1e-6)

    def test_constant_row_is_zero(self):
        out = layer_norm(Tensor([[3.0, 3.0, 3.0]]), Tensor(np.ones(3)), Tensor(np.zeros(3)))
        np.testing.assert_allclose(out.data, np.zeros((1, 3)), atol=1e-9)

    def test_output_statistics(self):
        x = Tensor(rand((1, 64), 4))
        out = layer_norm(x, Tensor(np.ones(64)), Tensor(np.zeros(64)), eps=1e-12).data
        assert abs(out.mean()) < 1e-10
        assert 1.0 - 1e-6 <= out.var() <= 1.0

    def test_residual_form_matches_textbook(self):
        x, r = rand((3, 5, 16), 17), 4.0 + rand((3, 5, 16), 18)
        gamma, beta = rand(16, 19), rand(16, 20)
        out = layer_norm(Tensor(x), Tensor(gamma), Tensor(beta), residual=Tensor(r)).data
        s = x + r
        ref = (s - s.mean(axis=-1, keepdims=True)) / np.sqrt(s.var(axis=-1, keepdims=True)
                                                             + 1e-6) * gamma + beta
        np.testing.assert_allclose(out, ref, rtol=1e-14, atol=0.0)

    def test_residual_form_equals_separate_add(self):
        x = Tensor(rand((6, 8), 21), requires_grad=True)
        r = Tensor(rand((6, 8), 22), requires_grad=True)
        gamma = Tensor(rand(8, 23), requires_grad=True)
        beta = Tensor(rand(8, 24), requires_grad=True)
        w = Tensor(rand((6, 8), 25))
        runs, nodes = [], []
        for fused in (True, False):
            with Tape() as tape:
                y = (layer_norm(x, gamma, beta, residual=r) if fused
                     else layer_norm(add(x, r), gamma, beta))
                tape.backward(sum_all(mul(y, w)))
            runs.append([y.data] + [tape.grad(t) for t in (x, r, gamma, beta)])
            nodes.append(len(tape.nodes))
        for a, b in zip(*runs):
            np.testing.assert_array_equal(a, b)
        assert nodes == [3, 4]


class TestGelu:
    def test_zero(self):
        assert gelu(Tensor([0.0])).data[0] == 0.0

    def test_positive_asymptote(self):
        assert gelu(Tensor([10.0])).data[0] == pytest.approx(10.0, abs=1e-6)

    def test_negative_asymptote(self):
        assert gelu(Tensor([-10.0])).data[0] == pytest.approx(0.0, abs=1e-6)

    @staticmethod
    def textbook(x):
        return 0.5 * x * (1.0 + np.tanh(GELU_C * (x + GELU_A * np.power(x, 3))))

    def test_matches_textbook_form_on_grid(self):
        grid = np.array([0.0, 1e-8, -1e-8, 0.1, -0.1, 0.5, -0.5, 1.0, -1.0, 2.0, -2.0,
                         3.0, -3.0, 5.0, 10.0, 20.0, -20.0])
        out = gelu(Tensor(grid)).data
        ref = self.textbook(grid)
        np.testing.assert_allclose(out, ref, rtol=1e-14, atol=0.0)

    def test_matches_textbook_form_dense(self):
        # Below about x = -3.4, 1 + tanh(.) cancels and the textbook form
        # itself holds only an absolute accuracy in its factor (1 + tanh)/2,
        # so the dense sweep compares that factor: |out - ref| <= 1e-14 |x|.
        x = np.linspace(-20.0, 20.0, 40001)
        out = gelu(Tensor(x)).data
        assert (np.abs(out - self.textbook(x)) <= 1e-14 * np.abs(x)).all()

    def test_backward_matches_textbook_derivative(self):
        x = Tensor(np.linspace(-20.0, 20.0, 4001), requires_grad=True)
        g = rand(4001, 26)
        with Tape() as tape:
            tape.backward(sum_all(mul(gelu(x), Tensor(g))))
        xd = x.data
        t = np.tanh(GELU_C * (xd + GELU_A * np.power(xd, 3)))
        ref = g * (0.5 * (1.0 + t)
                   + 0.5 * xd * (1.0 - t ** 2) * GELU_C * (1.0 + 3.0 * GELU_A * xd ** 2))
        # the same 1 + tanh cancellation as the forward sweep bounds it by |x|
        assert (np.abs(tape.grad(x) - ref) <= 1e-14 * np.abs(g) * np.maximum(np.abs(xd), 1.0)).all()

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("shape", [(), (7,), (3, 4, 33)])
    def test_bit_identical_to_expression_form(self, dtype, shape):
        xd = (np.random.Generator(np.random.Philox(4)).standard_normal(shape) * 4).astype(dtype)
        g = np.full(shape, 0.75, dtype)
        x = Tensor(xd, requires_grad=True)
        with Tape() as tape:
            y = gelu(x)
            tape.backward(sum_all(mul(y, Tensor(g))))
        # the one-expression form the in-place passes must round exactly like
        t = np.tanh(GELU_C * xd * (1.0 + GELU_A * (xd * xd)))
        d = 0.5 * (1.0 + t) + 0.5 * xd * (1.0 - t * t) * GELU_C * (1.0 + 3.0 * GELU_A * (xd * xd))
        assert y.data.shape == shape and y.data.dtype == dtype
        assert y.data.tobytes() == np.asarray(0.5 * xd * (1.0 + t)).tobytes()
        assert tape.grad(x).tobytes() == np.asarray(g * d).tobytes()

    def test_f32_stays_f32(self):
        x = np.linspace(-4.0, 4.0, 9, dtype=np.float32)
        out = gelu(Tensor(x)).data
        assert out.dtype == np.float32
        np.testing.assert_allclose(out, self.textbook(x.astype(np.float64)), rtol=1e-6,
                                   atol=1e-7)

    @staticmethod
    def whole_array(xd):
        """The earlier whole-array kernel: output and derivative, each pass over all of ``xd``,
        its rerun forming x^2 and 0.5 x twice; the blocked kernel must round exactly like it."""
        t, scaled = np.empty_like(xd), np.empty_like(xd)
        np.multiply(xd, xd, out=t)
        t *= GELU_A
        t += 1.0
        t *= np.multiply(xd, GELU_C, out=scaled)
        np.tanh(t, out=t)
        y = np.add(t, 1.0, out=np.empty_like(xd))
        y *= np.multiply(xd, 0.5, out=scaled)
        d, rest = np.empty_like(t), np.empty_like(t)
        np.multiply(t, t, out=d)
        np.subtract(1.0, d, out=d)
        np.multiply(xd, 0.5, out=rest)
        rest *= d
        rest *= GELU_C
        np.multiply(xd, xd, out=d)
        d *= 3.0 * GELU_A
        d += 1.0
        rest *= d
        np.add(t, 1.0, out=t)
        t *= 0.5
        t += rest
        return y, t

    SPECIALS = [0.0, 1e-300, -1e-300, 30.0, -30.0, 1e200, -1e200, np.inf, -np.inf, np.nan]

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("size", ["0-d", "1", "block-1", "block", "block+1", "3block+5",
                                      "[n,1,1024]", "[n,4,512]"])
    def test_blocks_match_whole_array_bytes(self, dtype, size):
        """Blocked output and derivative equal the whole-array kernel's bytes on both sides of
        each block edge, at FFN shapes ending in a part block, and at zero, subnormal-sized,
        saturating (+-30), overflowing (+-1e200), infinite and NaN inputs; the pull-back pass
        writing the output over its input gives the same bytes, and the plain ``gelu`` node
        gives them too, leaving its input's array unchanged."""
        k = autodiff.GELU_BLOCK // np.dtype(dtype).itemsize
        shape = {"0-d": (), "1": (1,), "block-1": (k - 1,), "block": (k,), "block+1": (k + 1,),
                 "3block+5": (3 * k + 5,), "[n,1,1024]": (k // 1024 + 1, 1, 1024),
                 "[n,4,512]": (3 * k // 2048 + 1, 4, 512)}[size]
        if len(shape) < 2 and math.prod(shape) == 1:
            inputs = [np.full(shape, v) for v in self.SPECIALS + [0.3, -2.5]]
        else:
            x = rand(shape, 5) * 4
            n = x.size
            edges = [e + o for e in range(k, n, k) for o in (-2, -1, 0, 1) if e + o < n]
            at = np.unique(np.r_[np.arange(0, n, 7), np.array(edges, int), n - 1])
            x.flat[at] = np.resize(self.SPECIALS, len(at))
            inputs = [x]
        for x in inputs:
            with np.errstate(all="ignore"):
                xd = x.astype(dtype)
                ref_y, ref_d = self.whole_array(xd)
                inners, before = [xd.copy(), xd.copy()], xd.tobytes()
                (y,), (y2, d) = autodiff._gelu(inners[0]), autodiff._gelu(inners[1], slope=True)
                y3 = gelu(Tensor(xd)).data
            for out in (y, y2, d, y3):
                assert (out.shape, out.dtype) == (shape, np.dtype(dtype))
            assert y is inners[0] and y2 is inners[1] and xd.tobytes() == before
            assert y.tobytes() == y2.tobytes() == y3.tobytes() == ref_y.tobytes()
            assert d.tobytes() == ref_d.tobytes()

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("blocks", [4, 0.25])
    def test_kernel_scratch_is_blocks(self, dtype, blocks):
        """Writing over its input, the forward pass peaks at two blocks and the pull-back at
        the derivative plus two blocks (a sub-block input's whole size being its block), plus
        4 KiB of array headers and views: no full-size temporary.  The output has the bytes
        of a plain ``gelu`` node's."""
        n = int(blocks * autodiff.GELU_BLOCK) // np.dtype(dtype).itemsize
        xd = rand((n // 1024, 1, 1024), 6).astype(dtype)
        block = min(xd.nbytes, autodiff.GELU_BLOCK)
        autodiff._gelu(xd.copy(), slope=True)                # first-call caches out of the count
        peaks, inners = [], [xd.copy(), xd.copy()]
        for slope, inner in zip((False, True), inners):
            tracemalloc.start()
            try:
                autodiff._gelu(inner, slope)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert peaks[0] <= 2 * block + 4096
        assert peaks[1] <= xd.nbytes + 2 * block + 4096
        for inner in inners:
            assert inner.tobytes() == gelu(Tensor(xd)).data.tobytes()


class TestBackward:
    def test_square_sum(self):
        x = Tensor([3.0], requires_grad=True)
        with Tape() as tape:
            out = sum_all(mul(x, x))
            tape.backward(out)
        np.testing.assert_allclose(tape.grad(x), [6.0])

    def test_matmul_grad_matches_finite_differences(self):
        a = Tensor(rand((2, 2), 5), requires_grad=True)
        b = Tensor(rand((2, 2), 6), requires_grad=True)
        err = grad_check(lambda: sum_all(matmul(a, b)), [a, b])
        assert err < 1e-8

    def test_disconnected_param_zero_grad(self):
        x = Tensor([2.0], requires_grad=True)
        unused = Tensor(rand((3, 2), 7), requires_grad=True)
        with Tape() as tape:
            out = sum_all(mul(x, x))
            tape.backward(out)
        g = tape.grad(unused)
        assert g.shape == (3, 2)
        np.testing.assert_array_equal(g, np.zeros((3, 2)))

    def test_exiting_inactive_tape_raises_and_keeps_active_one(self):
        outer, inner = Tape(), Tape()
        outer.__enter__()
        outer.__exit__(None, None, None)
        x = Tensor([2.0], requires_grad=True)
        with inner:
            with pytest.raises(ContractError, match="not the active one"):
                outer.__exit__(None, None, None)
            y = mul(x, x)                                    # still recorded on ``inner``
        assert [n.out for n in inner.nodes] == [y.key]
        with pytest.raises(ContractError):
            Tape().__exit__(None, None, None)                # never entered, nothing active
        with Tape():                                         # and the slot is free again
            pass

    def test_non_scalar_root_rejected(self):
        x = Tensor(rand((2, 2)), requires_grad=True)
        with Tape() as tape:
            y = mul(x, 2.0)
            with pytest.raises(ContractError):
                tape.backward(y)

    def test_grad_accumulates_across_consumers(self):
        x = Tensor([1.5], requires_grad=True)
        with Tape() as tape:
            out = sum_all(add(mul(x, x), mul(x, 3.0)))
            tape.backward(out)
        np.testing.assert_allclose(tape.grad(x), [2 * 1.5 + 3.0])


def train_one_step(objective, dtype, on_backward):
    """One ``train_toy`` step on a small config, with ``on_backward(real, tape, root, sink)``
    standing in for ``Tape.backward``; ``real(tape, root, sink)`` is the engine's own walk,
    and ``sink`` the optimizer's fold.  It runs once per tape: once on an MLM step, twice on
    an ELECTRA step (generator, then discriminator)."""
    if objective == "mlm":
        config = ModelConfig(layout="B2-2H64D2", vocab_size=20, pool_op="mean",
                             attn_variant="factorized", dtype=dtype, seed=0)
        settings = TrainSettings(steps=1, batch_size=8, seq_len=16, objective="mlm")
    else:
        config = ModelConfig(layout="B2-2H64D2", vocab_size=30, pool_op="max",
                             attn_variant="gather", dtype=dtype, seed=0)
        settings = TrainSettings(steps=1, batch_size=4, seq_len=16, objective="electra",
                                 mask_sampler="span")
    gen = Rng(3)
    corpus = [" ".join(f"w{int(gen.integers(0, 15))}" for _ in range(8 + i)) for i in range(8)]
    real = Tape.backward
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(Tape, "backward", lambda tape, root, sink=None: on_backward(
            real, tape, root, sink))
        train_toy(config, corpus, settings)


@pytest.mark.parametrize("model, train, nodes, adds", [
    (dict(layout="B2-2H64D2", vocab_size=20, pool_op="mean", attn_variant="factorized"),
     dict(batch_size=8, seq_len=16, objective="mlm"), 141, 1),
    (dict(layout="B2-2H128D2", vocab_size=64, pool_op="max", attn_variant="gather"),
     dict(batch_size=4, seq_len=32, objective="electra", mask_sampler="span"), 298, 3),
])
def test_training_step_tape_census(model, train, nodes, adds):
    """One training step's tapes, counted together (an ELECTRA step records the generator's
    and the discriminator's): each attention sub-layer moves axes in five nodes (three head
    splits, one merge, the shared ``w_r``'s head view), and no generic permute is left; its
    content product shifts the query by v and adds the position term, and the position
    term's query product shifts it by u, so neither bias nor the score sum is an ``add``.
    Each model pass adds one ``add`` for the decoder's input, and an ELECTRA step one for its
    total loss.  A factorized sub-layer rotates its query in one node, and each FFN records
    both its products and its GeLU as one ``gelu`` node."""
    gen = Rng(5)
    corpus = [" ".join(f"w{int(gen.integers(0, 40))}" for _ in range(10 + 3 * i))
              for i in range(8)]
    names, walks, real = [], [], Tape.backward

    def census(tape, root, sink=None):
        names.extend(node.name for node in tape.nodes)
        walks.append(len(tape.nodes))
        real(tape, root, sink)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(Tape, "backward", census)
        train_toy(ModelConfig(dtype="f64", seed=0, **model), corpus, TrainSettings(steps=1, **train))
    electra = train["objective"] == "electra"
    assert "permute" not in names and "fold_products" not in names
    assert names.count("split_heads") == 4 * names.count("merge_heads") > 0
    assert names.count("gelu") == names.count("merge_heads")
    if model["attn_variant"] == "factorized":
        assert names.count("rotate") == names.count("merge_heads")
    assert len(walks) == (2 if electra else 1)
    assert names.count("add") == len(walks) + electra == adds
    assert len(names) == nodes


class TestBackwardFrees:
    """``backward`` releases each node once its pull-back has run and keeps leaf gradients only."""

    @staticmethod
    def reference_walk(tape, root):
        """Replay every pull-back into a fresh dict, freeing nothing."""
        grads = {root.key: np.ones((), dtype=root.data.dtype)}
        for node in reversed(tape.nodes):
            g = grads.get(node.out)
            if g is not None:
                for key, gi in zip(node.inputs, node.backward(g)):
                    if key is not None:
                        grads[key] = gi if key not in grads else grads[key] + gi
        return grads

    @pytest.mark.parametrize("objective, dtype", [("mlm", "f64"), ("electra", "f32")])
    def test_train_step_grads_equal_reference_walk(self, objective, dtype):
        """Each leaf gradient the optimizer's sink receives during the walk is already final:
        its bytes equal the full reference walk's, and nothing is left on the tape afterwards."""
        walks = []

        def check(real, tape, root, sink):
            ref = self.reference_walk(tape, root)
            outputs = {n.out for n in tape.nodes}
            leaves = {key for n in tape.nodes for key in n.inputs
                      if key is not None and key not in outputs}
            n_nodes = len(tape.nodes)
            taken = {}

            def capture(key, g):
                assert key not in taken
                taken[key] = g.copy()
                sink(key, g)

            real(tape, root, capture)
            assert len(tape.nodes) == n_nodes
            assert not tape.grads and tape.taken == set(taken)  # train_toy takes every one
            assert set(taken) == set(ref) - outputs
            assert set(taken) <= leaves
            for key, g in taken.items():
                assert g.dtype == ref[key].dtype and g.shape == ref[key].shape
                assert g.tobytes() == ref[key].tobytes()
            assert all(n.out is None and n.inputs is None and n.backward is None
                       for n in tape.nodes)
            walks.append(len(taken))

        train_one_step(objective, dtype, check)
        assert len(walks) == (2 if objective == "electra" else 1) and min(walks) > 10

    @staticmethod
    def small_tape():
        """Six nodes over five leaves.  ``x``, ``w`` and ``b`` are first read by node 0 (``x``
        and ``w`` again later), ``u`` by node 1, whose output nothing reads, and ``v`` by
        node 3."""
        x, w, b, u, v = (Tensor(rand(shape, seed), requires_grad=True) for seed, shape in
                         enumerate([(3, 2), (2, 2), (2,), (3, 2), (3, 2)], start=20))
        with Tape() as tape:
            h = matmul(x, w, b)
            mul(u, u)
            z = mul(matmul(h, w), v)
            out = sum_all(mul(z, x))
        return tape, out, dict(x=x, w=w, b=b, u=u, v=v)

    def test_sink_receives_each_leaf_once_right_after_its_earliest_reader(self):
        tape, out, leaves = self.small_tape()
        ref = self.reference_walk(tape, out)
        got = []

        def sink(key, g):  # the node just run is the earliest one released
            ran = next(i for i, node in enumerate(tape.nodes) if node.backward is None)
            got.append((key, ran, g.tobytes() == ref[key].tobytes()))

        tape.backward(out, sink)
        name = {t.key: n for n, t in leaves.items()}
        assert sorted((name[key], ran, final) for key, ran, final in got) == [
            ("b", 0, True), ("v", 3, True), ("w", 0, True), ("x", 0, True)]
        assert not tape.grads and tape.taken == {leaves[n].key for n in "bvwx"}
        np.testing.assert_array_equal(tape.grad(leaves["u"]), 0.0)  # reached by no gradient
        with pytest.raises(ContractError, match="taken during the walk"):
            tape.grad(leaves["x"])

    def test_backward_without_sink_keeps_every_leaf_gradient(self):
        tape, out, leaves = self.small_tape()
        ref = self.reference_walk(tape, out)
        tape.backward(out)
        assert not tape.taken and set(tape.grads) == {leaves[n].key for n in "bvwx"}
        for n in "bvwx":
            assert tape.grad(leaves[n]).tobytes() == ref[leaves[n].key].tobytes()
        np.testing.assert_array_equal(tape.grad(leaves["u"]), 0.0)

    def test_only_leaf_grads_remain(self):
        x = Tensor(rand((3, 2), 12), requires_grad=True)
        c = Tensor(rand((3, 2), 13))                       # a constant
        with Tape() as tape:
            y = mul(x, c)
            out = sum_all(add(add(y, y), c))
            tape.backward(out)
        assert set(tape.grads) == {x.key}
        assert len(tape.nodes) == 4
        np.testing.assert_array_equal(tape.grad(x), 2.0 * c.data)
        with Tape():
            elsewhere = mul(x, c)                          # recorded on another tape
        for produced in (y, elsewhere):                    # y: freed by the walk
            with pytest.raises(ContractError, match="a recorded op produced"):
                tape.grad(produced)
        with pytest.raises(ContractError, match="does not require grad"):
            tape.grad(c)                                   # never formed

    def test_grad_before_backward_raises(self):
        # zeros here would let a caller who forgot backward step on nothing
        x = Tensor(rand((3, 2), 14), requires_grad=True)
        with Tape() as tape:
            out = sum_all(mul(x, x))
            with pytest.raises(ContractError, match="before backward"):
                tape.grad(x)
            tape.backward(out)
        np.testing.assert_array_equal(tape.grad(x), 2.0 * x.data)
        with pytest.raises(ContractError, match="before backward"):
            Tape().grad(x)                                 # an empty tape too

    def test_second_backward_raises(self):
        x = Tensor([2.0], requires_grad=True)
        with Tape() as tape:
            out = sum_all(mul(x, x))
            tape.backward(out)
            with pytest.raises(ContractError, match="already ran"):
                tape.backward(out)
        np.testing.assert_array_equal(tape.grad(x), [4.0])

    def test_root_not_recorded_on_this_tape_raises(self):
        x = Tensor([2.0], requires_grad=True)
        with Tape() as other:
            on_other = sum_all(mul(x, x))
        with Tape() as tape:
            sum_all(mul(x, x))
            constant = sum_all(Tensor(rand((2, 2), 14)))   # depends on no trainable tensor
        outside = sum_all(mul(x, x))                       # no tape active
        leaf = Tensor(1.0, requires_grad=True)
        for root in (on_other, constant, outside, leaf):
            with pytest.raises(ContractError, match="not recorded on this tape"):
                tape.backward(root)
        assert not tape.grads
        other.backward(on_other)
        np.testing.assert_array_equal(other.grad(x), [4.0])

    def test_walk_memory_growth_is_bounded(self):
        """The benchmark's ``mlm_toy`` step: peak traced memory during ``backward`` over its start.

        A walk that keeps every node's gradient and saved arrays grows by
        about 9.9 MiB here; one that frees as it goes grows by about 1.0 MiB.
        """
        growth = []

        def measure(real, tape, root, sink):
            tracemalloc.reset_peak()
            start = tracemalloc.get_traced_memory()[0]
            real(tape, root, sink)
            growth.append((tracemalloc.get_traced_memory()[1] - start) / 2**20)

        tracemalloc.start()
        try:
            train_one_step("mlm", "f64", measure)
        finally:
            tracemalloc.stop()
        assert len(growth) == 1
        assert growth[0] < 4.0, f"backward grew traced memory by {growth[0]:.2f} MiB"

    def test_electra_step_memory_peak_is_bounded(self):
        """One f64 ELECTRA step, both walks and ``AdamW.step``: peak traced memory over its
        value on entering the first tape, when AdamW's [3, N] buffer is already held.

        Holding every leaf gradient until ``AdamW.step``, on one tape that keeps the
        generator's activations through the discriminator's pass, peaks 3.56 MiB above;
        folding each gradient into the moments once the walk has finished it, on two tapes
        walked one after the other, 2.50 MiB; with each FFN one node that keeps its input
        only, 2.02 MiB; with each attention query kept once and GeLU's output written over
        the activation the FFN's pull-back rebuilt, 1.84 MiB.  The bound is 10% above that.
        """
        from funnel.training import AdamW

        marks = {}
        real_enter, real_step = Tape.__enter__, AdamW.step

        def enter(tape):
            if "start" not in marks:
                tracemalloc.reset_peak()
                marks["start"] = tracemalloc.get_traced_memory()[0]
            return real_enter(tape)

        def step(opt, tape, lr):
            real_step(opt, tape, lr)
            marks["peak"] = tracemalloc.get_traced_memory()[1]

        tracemalloc.start()
        try:
            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(Tape, "__enter__", enter)
                mp.setattr(AdamW, "step", step)
                train_one_step("electra", "f64",
                               lambda real, tape, root, sink: real(tape, root, sink))
        finally:
            tracemalloc.stop()
        peak = (marks["peak"] - marks["start"]) / 2**20
        assert peak < 2.02, f"one ELECTRA step peaked {peak:.2f} MiB above its start"


class TestTapeKeeps:
    """The tape holds keys, and each pull-back keeps only the arrays it reads."""

    @pytest.mark.parametrize("objective, bounds", [("electra", [0.52, 1.49]), ("mlm", [3.32])],
                             ids=["electra", "mlm"])
    def test_forward_memory_growth_is_bounded(self, objective, bounds):
        """One f64 training step: traced memory at the start of each tape's ``backward`` over
        its value on entering that tape, bounded 10% above what the engine keeps.  The
        ELECTRA step has one bound per tape: the generator's, then the discriminator's.

        A tape that holds every op's output and inputs keeps 5.02 MiB on the
        ELECTRA step.  Pull-backs that keep only the arrays they read keep
        3.99 MiB (ELECTRA) and 7.06 MiB (MLM); with GeLU and the second FFN
        projection one node that keeps GeLU's input only, 2.70 and 4.56 MiB.
        The ELECTRA step's 2.70 MiB then split over its two tapes: 0.66 MiB
        on the generator's and 2.01 MiB on the discriminator's.  With the whole
        FFN one node that keeps its input only, 0.52 and 1.48 MiB (ELECTRA)
        and 3.32 MiB (MLM).  With each attention query kept once, not as two
        biased copies, 0.47 and 1.35 MiB (ELECTRA; 0.49 and 1.47 before, on
        the same host) and 3.01 MiB (MLM).
        """
        start, growth = [], []
        real_enter = Tape.__enter__

        def enter(tape):
            start.append(tracemalloc.get_traced_memory()[0])
            return real_enter(tape)

        def measure(real, tape, root, sink):
            growth.append((tracemalloc.get_traced_memory()[0] - start[-1]) / 2**20)
            real(tape, root, sink)

        tracemalloc.start()
        try:
            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(Tape, "__enter__", enter)
                train_one_step(objective, "f64", measure)
        finally:
            tracemalloc.stop()
        assert len(start) == len(growth) == len(bounds)
        for kept, bound in zip(growth, bounds):
            assert kept < bound, f"a forward pass kept {kept:.2f} MiB for backward"

    def test_tape_keeps_only_what_pull_backs_read(self):
        """An intermediate array dies with the caller's last reference when no pull-back reads
        it: add's operands, softmax's input, layer norm's residual, and a matmul operand whose
        partner is a constant.  One whose partner requires grad stays alive."""
        gen = np.random.Generator(np.random.Philox(40))
        x, w, gamma, beta = (Tensor(gen.standard_normal(shape), requires_grad=True)
                             for shape in ((3, 4), (4, 4), 4, 4))
        c = Tensor(gen.standard_normal((4, 4)))                  # a constant

        def step(hold):
            """Forward and backward; ``hold`` is None or a list that keeps every intermediate."""
            with Tape() as tape:
                a, b = mul(x, 2.0), mul(x, 3.0)
                m1, m2 = matmul(a, c), matmul(b, w)
                s = add(m1, m2)
                p = softmax_lastdim(s)
                r = matmul(p, w)
                y = layer_norm(p, gamma, beta, residual=r)
                refs = {name: weakref.ref(t.data) for name, t in [
                    ("const partner", a), ("grad partner", b), ("add lhs", m1), ("add rhs", m2),
                    ("softmax input", s), ("residual", r)]}
                if hold is not None:
                    hold.extend([a, b, m1, m2, s, r])
                del a, b, m1, m2, s, r
                alive = {name for name, ref in refs.items() if ref() is not None}
                tape.backward(sum_all(mul(y, y)))
            return alive, [tape.grad(t) for t in (x, w, gamma, beta)]

        alive, grads = step(None)
        assert alive == {"grad partner"}
        held_alive, held_grads = step([])
        assert len(held_alive) == 6
        for g, ref in zip(grads, held_grads):
            assert g.tobytes() == ref.tobytes()

    @pytest.mark.parametrize("reader, kept", [
        ("sum_all", {"input"}), ("matmul", {"input", "output"})], ids=["sum_all", "matmul"])
    def test_gelu_keeps_only_its_input(self, reader, kept):
        """A plain ``gelu`` read by ``sum_all`` keeps only its input ``h``: GeLU's output dies
        in the forward pass (its tanh lives in the kernel's blocks only), and the pull-back
        reruns ``_gelu`` once for the output and the derivative, so ``_gelu`` runs twice per
        step.  A plain ``gelu`` output read by a matmul whose weight requires grad is kept by
        that matmul, as any left operand is (by every such matmul, if several read it); no
        model code has that pattern, since ``pffn`` is one ``gelu`` node.  Holding every
        array changes no gradient byte."""
        gen = np.random.Generator(np.random.Philox(41))
        x, w1, w2 = (Tensor(gen.standard_normal(shape), requires_grad=True)
                     for shape in ((3, 2, 4), (4, 8), (8, 5)))
        up = Tensor(gen.standard_normal((3, 2, 5)))               # a constant: mul keeps nothing
        real, made = autodiff._gelu, []

        def step(hold):
            """Forward and backward; ``hold`` is None or a list that keeps every array."""
            def spy(xd, slope=False):
                outs = real(xd, slope)
                made.append((slope, dict(zip(("output", "slope"), map(weakref.ref, outs)))))
                if hold is not None:
                    hold.extend(outs)
                return outs

            made.clear()
            with pytest.MonkeyPatch.context() as mp, Tape() as tape:
                mp.setattr(autodiff, "_gelu", spy)
                h = matmul(x, w1)
                if reader == "sum_all":
                    root = sum_all(gelu(h))
                else:
                    root = sum_all(mul(matmul(gelu(h), w2), up))
                refs = dict(made[0][1], input=weakref.ref(h.data))
                if hold is not None:
                    hold.append(h)
                del h
                alive = {name for name, ref in refs.items() if ref() is not None}
                tape.backward(root)
            return alive, [slope for slope, _ in made], [tape.grad(t) for t in (x, w1, w2)]

        alive, runs, grads = step(None)
        held_alive, held_runs, held_grads = step([])
        assert (alive, runs) == (kept, [False, True])
        assert (held_alive, held_runs) == ({"input", "output"}, [False, True])
        for g, r in zip(grads, held_grads):
            assert g.tobytes() == r.tobytes()

    @pytest.mark.parametrize("taped", [True, False], ids=["tape", "no_tape"])
    @pytest.mark.parametrize("shape", [(520, 32), (130, 4, 32)], ids=["rows", "time_major"])
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_ffn_node_equals_composed_nodes(self, dtype, shape, taped):
        """``gelu(x, w2, b2, w_in=w1, b_in=b1)``, the FFN as one node, gives the output and the
        five gradients of ``matmul(gelu(matmul(x, w1, b1)), w2, b2)`` byte for byte, inside the
        residual layer norm ``pffn`` wraps it in, so ``x``'s two gradients add in the same
        order.  The inner activation spans more than one GeLU block in both dtypes."""
        gen = np.random.Generator(np.random.Philox(43))
        d = shape[-1]
        x, w1, b1, w2, b2, gamma, beta = (
            Tensor(gen.standard_normal(s).astype(dtype), requires_grad=True)
            for s in (shape, (d, 4 * d), 4 * d, (4 * d, d), d, d, d))
        up = Tensor(gen.standard_normal(shape).astype(dtype))
        leaves = (x, w1, b1, w2, b2)

        def run(fused):
            ffn = (gelu(x, w2, b2, w_in=w1, b_in=b1) if fused
                   else matmul(gelu(matmul(x, w1, b1)), w2, b2))
            return ffn, sum_all(mul(layer_norm(x, gamma, beta, residual=ffn), up))

        if not taped:
            assert run(True)[0].data.tobytes() == run(False)[0].data.tobytes()
            return
        outs, grads, nodes = [], [], []
        for fused in (True, False):
            with Tape() as tape:
                ffn, root = run(fused)
            nodes.append([node.name for node in tape.nodes])
            tape.backward(root)
            outs.append(ffn.data)
            grads.append([tape.grad(t) for t in leaves])
        assert nodes == [["gelu", "layer_norm", "mul", "sum_all"],
                         ["matmul", "gelu", "matmul", "layer_norm", "mul", "sum_all"]]
        assert outs[0].dtype == dtype and outs[0].tobytes() == outs[1].tobytes()
        for g, ref in zip(*grads):
            assert g.dtype == dtype and g.tobytes() == ref.tobytes()

    def test_ffn_pull_back_writes_gelu_over_its_rebuilt_activation(self):
        """The FFN node's pull-back allocates no second array of its inner width for GeLU's
        output: the slope pass writes it over the activation the pull-back rebuilt, and it is
        dead before the input product's gradient ``g @ w_in'`` forms."""
        gen = np.random.Generator(np.random.Philox(45))
        x, w1, b1, w2, b2 = (Tensor(gen.standard_normal(shape), requires_grad=True)
                             for shape in ((6, 2, 8), (8, 32), 32, (32, 8), 8))
        up = Tensor(gen.standard_normal((6, 2, 8)))
        real_gelu, real_mm, seen = autodiff._gelu, autodiff._mm, {}

        def gelu_spy(xd, slope=False):
            outs = real_gelu(xd, slope)
            if slope:
                seen.update(rebuilt=outs[0] is xd, output=weakref.ref(outs[0]))
            return outs

        def mm_spy(a, b):
            if b.base is w1.data:                            # w_in's transpose
                seen["output alive"] = seen["output"]() is not None
            return real_mm(a, b)

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(autodiff, "_gelu", gelu_spy)
            mp.setattr(autodiff, "_mm", mm_spy)
            with Tape() as tape:
                root = sum_all(mul(gelu(x, w2, b2, w_in=w1, b_in=b1), up))
            tape.backward(root)
        assert seen.pop("output")() is None
        assert seen == {"rebuilt": True, "output alive": False}

    def test_discriminator_forward_keeps_no_inner_activation(self):
        """An ``electra_span``-config discriminator forward (``B2-2H128D2``, max pooling, the
        gather term, a padded [32, 4] batch): no pull-back on its tape keeps an
        array as wide as the FFN's inner activation besides parameters (``w_ffn1`` and
        ``b_ffn1``), and only ``gelu`` nodes read a ``w_ffn1``."""
        config = ModelConfig(layout="B2-2H128D2", vocab_size=64, pool_op="max",
                             attn_variant="gather", dtype="f64", seed=0)
        model = FunnelModel(config)
        ids = Rng(7).integers(0, 64, (32, 4))
        mask = np.arange(32)[:, None] < np.array([32, 27, 20, 32])
        with Tape() as tape:
            model.token_hidden(ids, mask, rng=Rng(8))
        width = config.layout.ffn_inner
        w1 = [t for name, t in model.trainable() if name.endswith("ffn/w1")]
        params = [t.data for _, t in model.trainable()]
        wide = [a.shape for a in kept_arrays(tape) if a.shape[-1:] == (width,)
                and not any(a is p for p in params)]
        assert len(w1) == 6 and wide == []
        readers = [node.name for node in tape.nodes if {w.key for w in w1} & set(node.inputs)]
        assert readers == ["gelu"] * 6


class TestGradCheck:
    def test_quadratic_form(self):
        q = rand((4, 4), 8)
        q = q + q.T
        x = Tensor(rand(4, 9), requires_grad=True)

        def f():
            col = reshape(x, (4, 1))
            return sum_all(mul(col, matmul(Tensor(q), col)))

        assert grad_check(f, [x]) < 1e-9

    def test_zero_parameters(self):
        assert grad_check(lambda: Tensor(1.0), []) == 0.0

    def test_restores_requires_grad_flags(self):
        x = Tensor(rand(3, 10))
        y = Tensor(rand(3, 11), requires_grad=True)
        assert grad_check(lambda: sum_all(mul(x, y)), [x, y]) < 1e-8
        assert not x.requires_grad and y.requires_grad

    def test_non_finite_value_rejected(self):
        x = Tensor([1.0], requires_grad=True)
        with pytest.raises(NumericError):
            grad_check(lambda: sum_all(mul(x, np.inf)), [x])

    def test_non_finite_perturbed_value_rejected(self):
        x = Tensor([1.0], requires_grad=True)
        with pytest.raises(NumericError, match="perturbed"):  # finite only at x = 1
            grad_check(lambda: sum_all(mul(x, 1.0 if x.data[0] == 1.0 else np.inf)), [x])


class TestRefusals:
    """An op refuses a misuse with its own error rather than computing on it."""

    @pytest.mark.parametrize("call,error,match", [
        (lambda: Tensor(np.zeros((1,) * 5)), ShapeError, "rank 5 > 4"),
        (lambda: add(Tensor(np.zeros(3)), Tensor(np.zeros(4))), ShapeError, "add: incompatible"),
        (lambda: mul(Tensor(np.zeros(3)), Tensor(np.zeros(4))), ShapeError, "mul: incompatible"),
        (lambda: matmul(Tensor(np.zeros((2, 3))), Tensor(np.zeros((3, 2))),
                        left=Tensor(np.zeros(4))), ShapeError, "matmul: left shift"),
        (lambda: gelu(Tensor(np.zeros((2, 3))), Tensor(np.zeros((3, 3)))), ContractError,
         "gelu takes x alone or all"),
        (lambda: transpose(Tensor(np.zeros(3))), ShapeError, "rank >= 2"),
        (lambda: layer_norm(Tensor(np.zeros((2, 3))), Tensor(np.ones(4)), Tensor(np.zeros(3))),
         ShapeError, "gamma/beta"),
        (lambda: layer_norm(Tensor(np.zeros((2, 3))), Tensor(np.ones(3)), Tensor(np.zeros(3)),
                            residual=Tensor(np.zeros((3, 3)))), ShapeError, "residual"),
        (lambda: dropout(Tensor(np.zeros(3)), 1.0, Rng(0)), ContractError, "dropout rate"),
        (lambda: take_along_last(Tensor(np.zeros((2, 3))), np.array([[0, 3]])), ShapeError,
         r"outside 0\.\.2"),
        (lambda: einsum_id_ijd(Tensor(np.zeros((2, 3))), np.zeros((3, 4, 3))), ShapeError,
         "einsum_id_ijd"),
        (lambda: cross_entropy_mean(Tensor(np.zeros((0, 5))), [], []), ContractError,
         "zero rows"),
        (lambda: bce_with_logits_mean(Tensor(np.zeros(0)), [], []), ContractError,
         "zero elements"),
    ], ids=["rank", "add", "mul", "left_shift", "gelu_partial_ffn", "transpose", "norm_affine",
            "norm_residual", "dropout", "take_along_last", "einsum_id_ijd", "cross_entropy", "bce"])
    def test_misuse_refused(self, call, error, match):
        with pytest.raises(error, match=match):
            call()

    def test_second_active_tape_refused(self):
        with Tape():
            with pytest.raises(ContractError, match="already active"):
                Tape().__enter__()

    def test_integer_data_becomes_f64(self):
        t = Tensor([[1, 2]])
        assert t.data.dtype == np.float64
        assert repr(t) == "Tensor(shape=(1, 2), dtype=float64)"


def test_rotate_folds_each_product_by_halves():
    """rotate(x, r) is the paper's cat(fold(x * phi), fold(x * pi)), phi = r, pi = cat(-c, s)."""
    x = Tensor(rand((2, 3, 6), 20))
    r = rand((3, 6), 21)
    phi, pi = r, np.concatenate([-r[..., 3:], r[..., :3]], axis=-1)
    pa, pb = x.data * phi, x.data * pi
    expected = np.concatenate([pa[..., :3] + pa[..., 3:], pb[..., :3] + pb[..., 3:]], axis=-1)
    assert rotate(x, r).data.tobytes() == expected.tobytes()
    for bad in (rand((3, 4), 23), rand((2, 2, 6), 24), rand((4, 2, 3, 6), 28)):
        # wrong width; no broadcast; would grow the result
        with pytest.raises(ShapeError, match="rotate"):
            rotate(x, bad)
    with pytest.raises(ShapeError, match="rotate"):   # odd width
        rotate(Tensor(rand((2, 5), 25)), rand(5, 26))


class TestFitRows:
    def test_cut_and_pad_keep_leading_rows(self):
        x = Tensor(rand((4, 3), 30))
        np.testing.assert_array_equal(fit_rows(x, 2).data, x.data[:2])
        padded = fit_rows(x, 6).data
        np.testing.assert_array_equal(padded[:4], x.data)
        np.testing.assert_array_equal(padded[4:], 0.0)

    def test_keep_zeroes_rows_per_column_to_positive_zero(self):
        x = Tensor(-np.abs(rand((3, 2, 4), 31)) - 1.0)  # all negative: no -0.0 may leak
        keep = np.array([[True, True], [True, False], [False, False], [False, False]])
        out = fit_rows(x, 4, keep).data
        np.testing.assert_array_equal(out[keep], x.data[keep[:3]])
        assert not np.signbit(out[~keep]).any() and (out[~keep] == 0.0).all()

    def test_nothing_to_do_returns_input(self):
        x = Tensor(rand((3, 2), 32))
        assert fit_rows(x, 3) is x
        assert fit_rows(x, 3, np.ones(3, bool)) is x

    def test_keep_must_cover_result_rows(self):
        with pytest.raises(ShapeError):
            fit_rows(Tensor(np.zeros((3, 2, 4))), 5, np.ones((4, 2), bool))
        with pytest.raises(ShapeError):
            fit_rows(Tensor(np.zeros((3, 2, 4))), 5, np.ones((5, 3), bool))


@pytest.mark.parametrize("seed", range(10))
def test_every_op_grad_below_1e4(seed):
    """Per-op reverse-mode correctness across seeds (spec gradient invariant)."""
    gen = np.random.Generator(np.random.Philox(seed))
    x = Tensor(gen.standard_normal((3, 4)), requires_grad=True)
    y = Tensor(gen.standard_normal((3, 4)), requires_grad=True)
    m = Tensor(gen.standard_normal((4, 2)), requires_grad=True)
    bias = Tensor(gen.standard_normal(4), requires_grad=True)
    gamma = Tensor(gen.standard_normal(4), requires_grad=True)
    w = Tensor(gen.standard_normal((3, 4)))
    real = gen.random(5) > 0.2
    real[0] = True
    x5 = Tensor(gen.standard_normal((5, 3)), requires_grad=True)
    w3 = Tensor(gen.standard_normal((3, 3)))
    r3 = gen.standard_normal((3, 5, 4))
    x3 = Tensor(gen.standard_normal((2, 3, 4)), requires_grad=True)
    b4 = Tensor(gen.standard_normal((2, 1, 4, 2)), requires_grad=True)
    col3 = Tensor(gen.standard_normal((3, 1)), requires_grad=True)
    row4 = Tensor(gen.standard_normal((2, 1, 4)), requires_grad=True)
    col4 = Tensor(gen.standard_normal((4, 1)))
    idx = gen.integers(0, 4, size=(3, 2))
    rows = gen.integers(0, 3, size=4)
    rows5 = gen.integers(0, 4, size=(3, 5))
    targets = gen.integers(0, 4, size=3)
    labels = (gen.random((3, 1)) > 0.5).astype(float)
    row_w = np.array([0.5, 0.3, 0.2])

    w32 = Tensor(gen.standard_normal((3, 2)))
    w44 = Tensor(gen.standard_normal((4, 4)))
    gen.standard_normal((6, 4))  # a removed case's weights: later tables keep their values
    w35 = Tensor(gen.standard_normal((3, 5)))
    w43 = Tensor(gen.standard_normal((4, 3)))
    w26 = Tensor(gen.standard_normal((2, 6)))
    keep = gen.random((3, 4)) > 0.3
    w2232 = Tensor(gen.standard_normal((2, 2, 3, 2)))
    w232 = Tensor(gen.standard_normal((2, 3, 2)))
    gen.standard_normal((4, 2, 3))  # a removed case's weights: later tables keep their values
    w234 = Tensor(gen.standard_normal((2, 3, 4)))
    w235 = Tensor(gen.standard_normal((2, 3, 5)))
    real2 = gen.random((5, 2)) > 0.3
    x52 = Tensor(gen.standard_normal((5, 2, 3)), requires_grad=True)
    w32_3 = Tensor(gen.standard_normal((3, 2, 3)))
    tail = np.array([[0, 1], [2, 3], [4, 4]])  # stride 2, the odd tail paired with itself
    cls = np.array([[0, 0], [1, 2], [3, 4]])   # row 0 in a window of its own
    bias2 = Tensor(gen.standard_normal(2), requires_grad=True)
    bias_b = Tensor(gen.standard_normal((2, 1, 2)), requires_grad=True)
    keep3 = gen.random((2, 1, 4)) > 0.4
    keep3[..., 0] = True
    keep[:, 0] = True
    # drawn after every table above, so the earlier cases keep their values
    fold_a = gen.standard_normal((3, 4))
    gen.standard_normal(4)  # a removed table: later tables keep their values
    fold_c = gen.standard_normal((2, 1, 4))
    keep72 = gen.random((7, 2)) > 0.3  # a [t, B] keep mask for padding 5 rows to 7
    w72_3 = Tensor(gen.standard_normal((7, 2, 3)))
    w223 = Tensor(gen.standard_normal((2, 2, 3)))
    w243 = Tensor(gen.standard_normal((2, 4, 3)))
    x328 = Tensor(gen.standard_normal((3, 2, 8)), requires_grad=True)  # [T, B, D], 2 heads of 4
    w2234 = Tensor(gen.standard_normal((2, 2, 3, 4)))
    w2243 = Tensor(gen.standard_normal((2, 2, 4, 3)))
    heads = Tensor(gen.standard_normal((2, 2, 3, 4)), requires_grad=True)  # [B, H, T, dh]
    w328 = Tensor(gen.standard_normal((3, 2, 8)))
    w83 = Tensor(gen.standard_normal((8, 3)), requires_grad=True)
    bias3 = Tensor(gen.standard_normal(3), requires_grad=True)
    w_in = Tensor(gen.standard_normal((4, 4)), requires_grad=True)
    w33 = Tensor(gen.standard_normal((3, 3)), requires_grad=True)
    bias3_out = Tensor(gen.standard_normal(3), requires_grad=True)
    # drawn after every operand above, so the earlier cases keep their values
    shift = Tensor(gen.standard_normal((2, 1, 4)), requires_grad=True)    # [H, 1, dh]
    k243 = Tensor(gen.standard_normal((2, 4, 3)), requires_grad=True)
    w2233 = Tensor(gen.standard_normal((2, 2, 3, 3)))

    cases = {
        "matmul": (lambda: sum_all(mul(matmul(x, m), w32)), [x, m]),
        "matmul_bias": (lambda: sum_all(mul(matmul(x, m, bias2), w32)), [x, m, bias2]),
        "batched_matmul_bias": (lambda: sum_all(mul(matmul(x3, m, bias_b), w232)),
                                [x3, m, bias_b]),
        "matmul_left": (lambda: sum_all(mul(matmul(heads, k243, bias3, left=shift), w2233)),
                        [heads, k243, bias3, shift]),
        "add_bias": (lambda: sum_all(mul(add(x, bias), w)), [x, bias]),
        "mul": (lambda: sum_all(mul(mul(x, y), w)), [x, y]),
        "softmax": (lambda: sum_all(mul(softmax_lastdim(x), w)), [x]),
        "softmax_scaled_masked": (lambda: sum_all(mul(softmax_lastdim(x, 0.7, keep), w)), [x]),
        "softmax_broadcast_mask": (lambda: sum_all(mul(softmax_lastdim(x3, 0.7, keep3), w234)),
                                  [x3]),
        "layer_norm": (lambda: sum_all(mul(layer_norm(x, gamma, bias), w)), [x, gamma, bias]),
        "layer_norm_residual": (lambda: sum_all(mul(layer_norm(x, gamma, bias, residual=y), w)),
                                [x, gamma, bias, y]),
        "gelu": (lambda: sum_all(mul(gelu(x), w)), [x]),
        "gelu_ffn": (lambda: sum_all(mul(gelu(x, m, bias2, w_in=w_in, b_in=bias), w32)),
                     [x, w_in, bias, m, bias2]),
        "gelu_ffn_time_major": (lambda: sum_all(mul(gelu(x328, w33, bias3_out, w_in=w83,
                                                         b_in=bias3), w32_3)),
                                [x328, w83, bias3, w33, bias3_out]),
        "gather_rows": (lambda: sum_all(mul(gather_rows(x, rows), w44)), [x]),
        "gather_rows_distinct": (lambda: sum_all(mul(gather_rows(x3, [1, 0]), w234)), [x3]),
        "gather_rows_negative": (lambda: sum_all(mul(gather_rows(x3, [-1, 1]), w234)), [x3]),
        "take_along_last": (lambda: sum_all(mul(take_along_last(x, idx), w32)), [x]),
        "batched_matmul": (lambda: sum_all(mul(matmul(x3, b4), w2232)), [x3, b4]),
        "shared_weight_matmul": (lambda: sum_all(mul(matmul(x3, m), w232)), [x3, m]),
        "broadcast_add": (lambda: sum_all(mul(add(x3, col3), w234)), [x3, col3]),
        "broadcast_mul": (lambda: sum_all(mul(mul(x3, row4), w234)), [x3, row4]),
        "take_along_last_broadcast": (lambda: sum_all(mul(take_along_last(x3, rows5), w235)), [x3]),
        "per_column_pools": (lambda: sum_all(mul(add(mean_pool_pairs(x52, real2, tail),
                                                     max_pool_pairs(x52, real2, cls)), w32_3)),
                             [x52]),
        "einsum_id_ijd": (lambda: sum_all(mul(einsum_id_ijd(x, r3), w35)), [x]),
        "mean_pool": (lambda: sum_all(mul(mean_pool_pairs(x5, real, tail), w3)), [x5]),
        "max_pool": (lambda: sum_all(mul(max_pool_pairs(x5, real, tail), w3)), [x5]),
        "mean_pool_cls": (lambda: sum_all(mul(mean_pool_pairs(x5, real, cls), w3)), [x5]),
        "max_pool_cls": (lambda: sum_all(mul(max_pool_pairs(x5, real, cls), w3)), [x5]),
        "cross_entropy": (lambda: cross_entropy_mean(x, targets, row_w), [x]),
        "bce": (lambda: bce_with_logits_mean(matmul(x, col4), labels, row_w[:, None]), [x]),
        "transpose": (lambda: sum_all(mul(transpose(x), w43)), [x]),
        "transpose_rank3": (lambda: sum_all(mul(transpose(x3), w243)), [x3]),
        "split_heads": (lambda: sum_all(mul(split_heads(x, 2), w232)), [x]),
        "split_heads_keys": (lambda: sum_all(mul(split_heads(x, 2, keys=True), w223)), [x]),
        "split_heads_batch": (lambda: sum_all(mul(split_heads(x328, 2), w2234)), [x328]),
        "split_heads_batch_keys": (lambda: sum_all(mul(split_heads(x328, 2, keys=True), w2243)),
                                   [x328]),
        "merge_heads": (lambda: sum_all(mul(merge_heads(heads), w328)), [heads]),
        "reshape": (lambda: sum_all(mul(reshape(x, (2, 6)), w26)), [x]),
        "rotate": (lambda: sum_all(mul(rotate(x3, fold_a), w234)), [x3]),
        "rotate_per_column": (lambda: sum_all(mul(rotate(x3, fold_c), w234)), [x3]),
        "fit_rows_cut": (lambda: sum_all(mul(fit_rows(x52, 3), w32_3)), [x52]),
        "fit_rows_pad_keep": (lambda: sum_all(mul(fit_rows(x52, 7, keep72), w72_3)), [x52]),
    }
    for name, (f, params) in cases.items():
        err = grad_check(f, params, seed=seed)
        assert err < 1e-4, f"{name} grad error {err:.3e} at seed {seed}"


@pytest.mark.parametrize("shape", [(5, 12), (5, 3, 12)])
def test_head_split_and_merge_only_move_values(shape):
    """``split_heads`` is numpy's reshape + transpose and ``merge_heads`` its inverse, forward
    and backward, to the byte: [T, *cols, 12] in 3 heads of 4."""
    x = Tensor(rand(shape, 40), requires_grad=True)
    n = len(shape) - 1
    heads = x.data.reshape(shape[:-1] + (3, 4))
    query, keys = (*range(1, n), n, 0, n + 1), (*range(1, n), n, n + 1, 0)
    for axes in (query, keys):
        ref = heads.transpose(axes)
        up = rand(ref.shape, 41)
        with Tape() as tape:
            y = split_heads(x, 3, keys=axes == keys)
            tape.backward(sum_all(mul(y, Tensor(up))))
        assert y.shape == ref.shape and y.data.tobytes() == ref.tobytes()
        assert tape.grad(x).tobytes() == up.transpose(np.argsort(axes)).reshape(shape).tobytes()
    q = Tensor(split_heads(x, 3).data, requires_grad=True)
    up = rand(shape, 42)
    with Tape() as tape:
        y = merge_heads(q)
        tape.backward(sum_all(mul(y, Tensor(up))))
    assert y.shape == shape and y.data.tobytes() == x.data.tobytes()
    assert tape.grad(q).tobytes() == up.reshape(heads.shape).transpose(query).tobytes()


class TestDeterminismAndRng:
    def test_same_seed_same_stream(self):
        a = Rng(123).generator.random(16)
        b = Rng(123).generator.random(16)
        np.testing.assert_array_equal(a, b)

    def test_replay_is_bit_identical(self):
        def run():
            gen = Rng(9)
            x = Tensor(gen.truncated_normal((4, 4), 0.02), requires_grad=True)
            w = Tensor(gen.truncated_normal((4, 4), 0.02), requires_grad=True)
            with Tape() as tape:
                out = sum_all(gelu(matmul(x, w)))
                tape.backward(out)
            return out.data.copy(), tape.grad(w).copy()

        (v1, g1), (v2, g2) = run(), run()
        np.testing.assert_array_equal(v1, v2)
        np.testing.assert_array_equal(g1, g2)

    def test_truncated_normal_bounds(self):
        draws = Rng(4).truncated_normal((10000,), 0.02)
        assert np.abs(draws).max() <= 0.04

    @staticmethod
    def _rescan_truncated_normal(generator, shape, std, dtype):
        """Reference: the full-rescan redraw loop the init stream was defined by."""
        out = generator.normal(0.0, std, size=shape)
        bad = np.abs(out) > 2.0 * std
        while bad.any():
            out[bad] = generator.normal(0.0, std, size=int(bad.sum()))
            bad = np.abs(out) > 2.0 * std
        return out.astype(dtype)

    @pytest.mark.parametrize("shape", [(), (0,), (5,), (7, 3), (256, 1024)])
    @pytest.mark.parametrize("std", [0.02, 1.0])
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_truncated_normal_matches_rescan_stream(self, shape, std, dtype):
        for seed in range(5):
            ref_gen = np.random.Generator(np.random.Philox(seed))
            want = self._rescan_truncated_normal(ref_gen, shape, std, dtype)
            rng = Rng(seed)
            got = rng.truncated_normal(shape, std, dtype)
            assert got.shape == want.shape and got.dtype == want.dtype
            assert got.tobytes() == want.tobytes(), seed
            # same number of draws consumed: the streams stay in step
            assert rng.generator.random() == ref_gen.random(), seed

    def test_dropout_off_is_identity(self):
        x = Tensor(rand((3, 3), 11))
        assert dropout(x, 0.0, None) is x

    def test_dropout_scales_and_masks(self):
        x = Tensor(np.ones((100, 10)))
        out = dropout(x, 0.25, Rng(0))
        vals = np.unique(out.data)
        assert set(np.round(vals, 6)) <= {0.0, np.round(1 / 0.75, 6)}


STRIDE2 = np.array([[0, 1], [2, 3]])


class TestPoolingOps:
    def test_mean_even(self):
        out = mean_pool_pairs(Tensor([[1.0], [3.0], [5.0], [7.0]]), np.ones(4, bool), STRIDE2)
        np.testing.assert_allclose(out.data, [[2.0], [6.0]])

    def test_mean_singleton_tail(self):
        out = mean_pool_pairs(Tensor([[1.0], [3.0], [5.0]]), np.ones(3, bool),
                              [[0, 1], [2, 2]])
        np.testing.assert_allclose(out.data, [[2.0], [5.0]])

    def test_max(self):
        out = max_pool_pairs(Tensor([[1.0], [3.0], [5.0], [7.0]]), np.ones(4, bool), STRIDE2)
        np.testing.assert_allclose(out.data, [[3.0], [7.0]])

    def test_mean_skips_padding(self):
        out = mean_pool_pairs(Tensor([[2.0], [100.0]]), np.array([True, False]), [[0, 1]])
        np.testing.assert_allclose(out.data, [[2.0]])

    def test_all_pad_window_is_zero(self):
        out = mean_pool_pairs(Tensor([[5.0], [7.0]]), np.array([False, False]), [[0, 1]])
        np.testing.assert_allclose(out.data, [[0.0]])

    def test_row_named_twice_passes_through(self):
        x = Tensor([[1.5], [3.0], [5.0]], requires_grad=True)
        for op in (mean_pool_pairs, max_pool_pairs):
            with Tape() as tape:
                out = op(x, np.ones(3, bool), [[0, 0], [1, 2]])
                tape.backward(sum_all(mul(out, Tensor([[0.7], [1.0]]))))
            assert out.data[0, 0] == 1.5
            assert tape.grad(x)[0, 0] == 0.7

    def test_max_keeps_a_nan_member(self):
        # as np.argmax does: NaN propagates, and its member gets the gradient
        x = Tensor([[1.0], [np.nan], [np.nan], [2.0]], requires_grad=True)
        with Tape() as tape:
            out = max_pool_pairs(x, np.ones(4, bool), STRIDE2)
            tape.backward(sum_all(mul(out, Tensor([[0.5], [0.25]]))))
        assert np.isnan(out.data).all()
        np.testing.assert_array_equal(tape.grad(x)[:, 0], [0.0, 0.5, 0.25, 0.0])

    def test_windows_must_be_pairs(self):
        with pytest.raises(ShapeError):
            mean_pool_pairs(Tensor(np.zeros((4, 1))), np.ones(4, bool), [0, 1, 2, 3])

    def test_windows_shared_or_one_per_column(self):
        x, real = rand((4, 3, 2)), np.ones((4, 3), bool)
        per_column = np.array([[[0, 1, 2], [0, 1, 2]], [[3, 2, 0], [3, 3, 1]]])   # [2, 2, 3]
        xr, rr, _ = autodiff._windows(x, real, per_column)
        assert xr.shape == (2, 2, 3, 2) and rr.shape == (2, 2, 3, 1)
        for b in range(3):
            np.testing.assert_array_equal(xr[:, :, b], x[per_column[:, :, b], b])
        assert autodiff._windows(x, real, STRIDE2)[0].shape == (2, 2, 3, 2)
        for bad in (per_column[..., :2], [[0, 1, 2], [1, 2, 3]], [0, 1, 2, 3]):
            with pytest.raises(ShapeError):
                autodiff._windows(x, real, bad)

    @pytest.mark.parametrize("op", [mean_pool_pairs, max_pool_pairs])
    def test_per_column_windows_pool_each_column_alone(self, op):
        gen = np.random.Generator(np.random.Philox(9))
        x, g = rand((6, 3, 2), 1), rand((3, 3, 2), 2)
        real = gen.random((6, 3)) > 0.3
        windows = np.stack([np.stack([gen.permutation(6)[:3], gen.permutation(6)[:3]], axis=1)
                            for _ in range(3)], axis=-1)                    # [3, 2, 3]
        xt = Tensor(x, requires_grad=True)
        with Tape() as tape:
            out = op(xt, real, windows)
            tape.backward(sum_all(mul(out, Tensor(g))))
        for b in range(3):
            xb = Tensor(x[:, b], requires_grad=True)
            with Tape() as tape_b:
                out_b = op(xb, real[:, b], windows[:, :, b])
                tape_b.backward(sum_all(mul(out_b, Tensor(g[:, b]))))
            assert out.data[:, b].tobytes() == out_b.data.tobytes()
            assert tape.grad(xt)[:, b].tobytes() == tape_b.grad(xb).tobytes()


def loop_mean_pool(x, real, windows):
    """Per-window reference: (pooled, dpooled -> dx) for mean_pool_pairs."""
    pooled = np.zeros((len(windows),) + x.shape[1:])
    groups = []
    for w, window in enumerate(windows):
        members = [i for i in window if real[i]]
        groups.append(members)
        if members:
            pooled[w] = x[members].sum(axis=0) / len(members)

    def backward(g):
        dx = np.zeros_like(x)
        for w, members in enumerate(groups):
            for i in members:
                dx[i] += g[w] / len(members)
        return dx

    return pooled, backward


def loop_max_pool(x, real, windows):
    """Per-window, per-feature reference for max_pool_pairs (ties to the first)."""
    n_win = len(windows)
    flat = x.reshape(x.shape[0], -1)
    pooled = np.zeros((n_win, flat.shape[1]))
    src = np.full((n_win, flat.shape[1]), -1)
    for w, window in enumerate(windows):
        members = [i for i in window if real[i]]
        for d in range(flat.shape[1]):
            best = None
            for i in members:
                if best is None or flat[i, d] > flat[best, d]:
                    best = i
            if best is not None:
                pooled[w, d], src[w, d] = flat[best, d], best

    def backward(g):
        dx = np.zeros_like(flat)
        gf = g.reshape(n_win, -1)
        for w in range(n_win):
            for d in range(flat.shape[1]):
                if src[w, d] >= 0:
                    dx[src[w, d], d] += gf[w, d]
        return dx.reshape(x.shape)

    return pooled.reshape((n_win,) + x.shape[1:]), backward


POOL_REFERENCES = {"mean": (mean_pool_pairs, loop_mean_pool),
                   "max": (max_pool_pairs, loop_max_pool)}


def draw_windows(gen, t, kind):
    """[n, 2] pooling windows over t rows; no column names a row twice.

    ``stride2`` pairs rows in order, ``cls`` reads row 0 twice first, and
    both pair an odd tail with itself; ``shuffled`` pairs two random
    selections of rows, so a window may name one row twice anywhere.
    """
    if kind == "shuffled":
        n = int(gen.integers(1, t + 1))
        return np.stack([gen.permutation(t)[:n], gen.permutation(t)[:n]], axis=1)
    rows = np.maximum(np.arange(-int(kind == "cls"), t), 0)
    return np.append(rows, rows[-1:] if len(rows) % 2 else []).astype(np.int64).reshape(-1, 2)


@settings(max_examples=60, deadline=None)
@given(op=st.sampled_from(sorted(POOL_REFERENCES)), t=st.integers(1, 11),
       width=st.sampled_from([None, 1, 3]), seed=st.integers(0, 2**32 - 1),
       pad_rate=st.sampled_from([0.0, 0.3, 0.7, 1.0]), ties=st.booleans(),
       kind=st.sampled_from(["stride2", "cls", "shuffled"]))
def test_pooling_matches_loop_reference_bitwise(op, t, width, seed, pad_rate, ties, kind):
    gen = np.random.Generator(np.random.Philox(seed))
    shape = (t,) if width is None else (t, width)
    x = gen.standard_normal(shape)
    if ties:  # few distinct values, so windows often hold equal members
        x = np.round(x)
    real = gen.random(t) >= pad_rate
    windows = draw_windows(gen, t, kind)
    g = gen.standard_normal((len(windows),) + shape[1:])
    op_fn, reference = POOL_REFERENCES[op]
    ref_out, ref_backward = reference(x, real, windows)

    xt = Tensor(x.copy(), requires_grad=True)
    with Tape() as tape:
        out = op_fn(xt, real, windows)
        tape.backward(sum_all(mul(out, Tensor(g))))
    np.testing.assert_array_equal(out.data, ref_out)
    np.testing.assert_array_equal(tape.grad(xt), ref_backward(g))


def test_max_pool_excludes_pad_rows_and_keeps_f32():
    x = Tensor(np.array([[1.0, 9.0], [5.0, 2.0], [100.0, 100.0]], dtype=np.float32))
    out = max_pool_pairs(x, np.array([True, True, False]), [[0, 1], [2, 2]])
    assert out.dtype == np.float32
    np.testing.assert_array_equal(out.data, [[5.0, 9.0], [0.0, 0.0]])
