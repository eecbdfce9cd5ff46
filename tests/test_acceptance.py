"""Acceptance suite: one test per criterion, one printed line per criterion.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines as the
criteria execute.  Every tolerance is pinned here, not in helper code.
"""

import contextlib
import math
import time

import numpy as np
import pytest

from funnel.autodiff import Rng, Tensor, bce_with_logits_mean, grad_check
from funnel.checkpoint import (BadMagic, ShapeMismatch, TruncatedPayload, load, save)
from funnel.corpus import CLS, SEP, Batch, build_vocab, encode_line
from funnel.costmodel import display_ratio, flops_ratio, param_count
from funnel.encoder import PooledState, pool_step
from funnel.layout import BlockSpec, LayoutSpec
from funnel.model import FunnelModel, ModelConfig, build_params, generator_config
from funnel.objectives import electra_step, mlm_loss, sample_mask_single
from funnel.relattn import RelPosEncoding, variant_deviation
from funnel.training import OptimizerConfig, TrainSettings, train_toy


@contextlib.contextmanager
def criterion(number: int, description: str, budget_seconds: float):
    start = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {number:2d} FAIL: {description}")
        raise
    elapsed = time.perf_counter() - start
    print(f"ACCEPTANCE {number:2d} PASS: {description} ({elapsed:.2f}s)")
    assert elapsed < budget_seconds, f"criterion {number} took {elapsed:.1f}s"


def test_criterion_1_table_flops_ratios():
    cells = [
        ("B10-10-10H1024", "L24H1024", "0.73"),
        ("B8-8-8H1024", "L24H1024", "0.58"),
        ("B6-6-6H768", "L12H768", "0.88"),
        ("B6-3x2-3x2H768", "L12H768", "0.88"),
        ("B4-4-4H768", "L12H768", "0.58"),
        ("B3-4-4H768", "L6H768", "1.00"),
    ]
    with criterion(1, "relative-FLOPs table, finetune column", 1.0):
        for a, b, expected in cells:
            shown = display_ratio(flops_ratio(a, b, "finetune"), "finetune")
            assert shown == expected, f"{a} vs {b}: {shown} != {expected}"


def test_criterion_2_pretrain_flops_column():
    cells = [
        ("B6-6-6H768D2", "L12H768", "1.04"),
        ("B6-3x2-3x2H768D2", "L12H768", "1.04"),
        ("B4-4-4H768D2", "L12H768", "0.75"),
        ("B10-10-10H1024D2", "L24H1024", "0.81"),
        ("B8-8-8H1024D2", "L24H1024", "0.66"),
    ]
    with criterion(2, "relative-FLOPs table, pretraining column", 1.0):
        for a, b, expected in cells:
            shown = display_ratio(flops_ratio(a, b, "pretrain"), "pretrain")
            assert shown == expected, f"{a} vs {b}: {shown} != {expected}"


def test_criterion_3_param_ratios():
    vocab = 30522
    cells = [
        ("B10-10-10H1024", "L24H1024", 1.22),
        ("B8-8-8H1024", "L24H1024", 1.00),
        ("B6-6-6H768", "L12H768", 1.39),
        ("B6-3x2-3x2H768", "L12H768", 1.00),
        ("B4-4-4H768", "L12H768", 1.00),
        ("B3-4-4H768", "L6H768", 1.53),
    ]
    with criterion(3, "parameter-count ratios within 0.02; 1.5x transformer core", 1.0):
        for a, b, target in cells:
            ratio = (param_count(a, vocab)["params_total"]
                     / param_count(b, vocab)["params_total"])
            assert abs(ratio - target) <= 0.02, f"{a} vs {b}: {ratio:.4f} != {target}"
        core_a = param_count("B6-6-6H768", vocab)["params_transformer"]
        core_b = param_count("L12H768", vocab)["params_transformer"]
        assert core_a * 2 == core_b * 3  # exactly 1.5x


def test_criterion_4_attention_equivalence():
    with criterion(4, "three-way attention-score equivalence, 100 cases", 10.0):
        gen = np.random.Generator(np.random.Philox(2024))
        worst = 0.0
        for case in range(100):
            tk = int(gen.integers(2, 17))
            d = int(gen.choice([4, 8, 16]))
            dh = int(gen.choice([2, 4, d]))
            k_pos = np.arange(tk)
            if case % 2 == 0:
                q_pos = k_pos[int(gen.integers(0, 2))::2].copy()  # pooled ids
            else:
                tq = int(gen.integers(1, tk + 1))
                q_pos = np.sort(gen.choice(tk, size=tq, replace=False))
            enc = RelPosEncoding(d)
            proj_q = Tensor(gen.standard_normal((len(q_pos), dh)))
            w_r = Tensor(gen.standard_normal((d, dh)))
            u = Tensor(gen.standard_normal(dh))
            worst = max(worst, variant_deviation(proj_q, q_pos, k_pos, w_r, u, enc))
        assert worst < 1e-10, f"max deviation {worst:.3e}"


def test_criterion_5_gradient_correctness():
    with criterion(5, "finite-difference gradient checks, end-to-end and per-op", 120.0):
        # end-to-end: B2-2H64D2, T=8, masked-token loss, f64, dropout off
        config = ModelConfig(layout="B2-2H64D2", vocab_size=11, dtype="f64", seed=0)
        assert config.dropout == 0.0 and config.attn_dropout == 0.0
        model = FunnelModel(config)
        toks = np.concatenate([[CLS], Rng(7).integers(5, 11, 6), [SEP]])
        plan = sample_mask_single(toks, rate=0.3, rng=Rng(3))
        corrupted = plan.apply(toks)

        def loss():
            hidden = model.token_hidden(corrupted)
            return mlm_loss(hidden, model.params["embed/token"], plan)

        err = grad_check(loss, [p for _, p in model.trainable()],
                         max_coords_per_param=4, seed=0, denominator_floor=1e-6)
        assert err < 1e-4, f"end-to-end gradient error {err:.3e}"

        # per-op checks on 10 seeds
        from funnel.autodiff import (add, cross_entropy_mean, gelu, layer_norm,
                                     matmul, mean_pool_pairs, mul, softmax_lastdim)
        from helpers import sum_all
        for seed in range(10):
            g = np.random.Generator(np.random.Philox(seed))
            x = Tensor(g.standard_normal((3, 4)), requires_grad=True)
            w = Tensor(g.standard_normal((3, 4)))
            m = Tensor(g.standard_normal((4, 4)), requires_grad=True)
            gam = Tensor(g.standard_normal(4), requires_grad=True)
            bet = Tensor(g.standard_normal(4), requires_grad=True)
            w2 = Tensor(g.standard_normal((2, 4)))
            tgt = g.integers(0, 4, size=3)
            ops = [
                (lambda: sum_all(mul(matmul(x, m), w)), [x, m]),
                (lambda: sum_all(mul(softmax_lastdim(x), w)), [x]),
                (lambda: sum_all(mul(layer_norm(x, gam, bet), w)), [x, gam, bet]),
                (lambda: sum_all(mul(gelu(x), w)), [x]),
                (lambda: sum_all(mul(mean_pool_pairs(x, np.ones(3, bool), [[0, 1], [2, 2]]),
                                     w2)), [x]),
                (lambda: cross_entropy_mean(x, tgt, np.full(3, 1 / 3)), [x]),
                (lambda: sum_all(mul(add(x, bet), w)), [x, bet]),
            ]
            for f, params in ops:
                assert grad_check(f, params, seed=seed) < 1e-4


def test_criterion_6_length_schedule():
    with criterion(6, "length schedule and full-length decoder output", 30.0):
        shapes = {"B2-2": 2, "B2-2-2": 3, "B2-2-2-2": 4}
        for name, n_blocks in shapes.items():
            for t in (8, 16, 32, 64):
                if t // 2 ** (n_blocks - 1) < 1:
                    continue
                config = ModelConfig(layout=f"{name}H64D2", vocab_size=11, seed=0,
                                     separate_cls=True, truncate_seq=True)
                model = FunnelModel(config)
                toks = np.concatenate([[CLS], Rng(t).integers(5, 11, t - 2), [SEP]])
                state = model.encode(toks)
                lengths = [h.shape[0] for h in state.block_hidden]
                assert lengths == [t // 2 ** m for m in range(n_blocks)], \
                    f"{name} T={t}: {lengths}"
                out = model.decode(state)
                assert out.hidden.shape[0] == t


def test_criterion_7_pooling_semantics():
    with criterion(7, "pooling semantics: CLS isolation, stride-2, top-attention", 10.0):
        for t in range(2, 9):
            for seed in range(5):
                gen = np.random.Generator(np.random.Philox(t * 100 + seed))
                vals = gen.standard_normal((t, 4))
                state = PooledState(Tensor(vals), np.arange(t), np.ones(t, bool))

                # separate-CLS: the CLS row passes through bit-identical
                out = pool_step(state, "mean", separate_cls=True, truncate=True)
                assert (out.hidden.data[0] == vals[0]).all()
                assert out.pos[0] == 0

                # no separate-CLS: exactly plain stride-2 pooling, an odd tail kept as is
                out_plain = pool_step(state, "mean", separate_cls=False, truncate=True)
                ref = np.concatenate([(vals[0:t - 1:2] + vals[1::2]) / 2, vals[t - t % 2:]])
                np.testing.assert_array_equal(out_plain.hidden.data, ref)
                np.testing.assert_array_equal(out_plain.pos, np.arange(0, t, 2))

                # top-attention keeps exactly ceil(n/2), original order,
                # ties toward the lower index (checked against a brute force)
                attn = gen.random((2, t, t))
                if seed == 0:
                    attn[:] = 1.0 / t  # pure tie case
                scores = attn.sum(axis=(0, 1))
                keep = (t + 1) // 2
                expected = sorted(sorted(range(t), key=lambda i: (-scores[i], i))[:keep])
                top = pool_step(state, "top_attn", separate_cls=False, truncate=True,
                                prev_attn=attn)
                got, got_pos = top.hidden, top.pos
                np.testing.assert_array_equal(got_pos, expected)
                np.testing.assert_array_equal(got.data, vals[expected])
                assert got.shape[0] == keep


def test_criterion_8_toy_mlm_learnability():
    with criterion(8, "toy masked-token training learns a repeated corpus", 300.0):
        words = [f"w{i}" for i in range(15)]
        gen = Rng(42)
        sentences = [" ".join(words[int(gen.integers(0, 15))] for _ in range(8))
                     for _ in range(8)]
        corpus = sentences * 25

        def run():
            config = ModelConfig(layout="B2-2H64D2", vocab_size=20, dtype="f64", seed=0)
            settings = TrainSettings(steps=300, batch_size=8, seq_len=16,
                                     optimizer=OptimizerConfig(lr=1e-3, warmup_steps=20))
            return train_toy(config, corpus, settings)

        trace = run()
        assert abs(trace[0].loss - math.log(20)) < 0.5, f"start {trace[0].loss:.4f}"
        assert trace[-1].loss < 0.7 * math.log(20), f"final {trace[-1].loss:.4f}"

        again = run()
        assert [(r.step, r.loss, r.lr) for r in trace] == \
               [(r.step, r.loss, r.lr) for r in again], "trace not bit-identical"


def test_criterion_9_electra_scaffold():
    with criterion(9, "replaced-token detection labels and ln 2 baseline", 10.0):
        layout = LayoutSpec(blocks=(BlockSpec(1), BlockSpec(1)), hidden=16,
                            decoder_layers=1, head_dim=8)
        config = ModelConfig(layout=layout, vocab_size=16, seed=1)
        disc = FunnelModel(config)
        gen_model = FunnelModel(generator_config(config))
        head = (Tensor(np.zeros(16), requires_grad=True),
                Tensor(np.zeros(()), requires_grad=True))
        vocab = build_vocab([], 16)
        for seed in range(8):
            toks = np.concatenate([[CLS], Rng(seed + 50).integers(5, 16, 6), [SEP]])
            line = encode_line("", vocab, 8)
            line.token_ids[:] = toks
            line.pad_mask[:] = True
            plan = sample_mask_single(toks, rate=0.3, rng=Rng(seed + 90))
            _, _, batch = electra_step(gen_model, disc, head, Batch.stack([line]), [plan],
                                       Rng(seed), lambda key, g: None)
            # exhaustive per-position consistency: replaced <=> token changed
            np.testing.assert_array_equal(batch.labels[0] == 1.0,
                                          batch.sampled_ids[0] != toks)

        logits = Tensor(np.zeros((32, 1)))  # probability one half everywhere
        labels = (np.arange(32) % 3 == 0).astype(float)[:, None]
        loss = bce_with_logits_mean(logits, labels, np.full((32, 1), 1 / 32))
        assert abs(loss.item() - math.log(2)) <= 1e-9


def test_criterion_10_checkpoint_roundtrip(tmp_path):
    with criterion(10, "checkpoint round-trip and error taxonomy", 5.0):
        config = ModelConfig(layout="B2-2H64D2", vocab_size=23, seed=3)
        params = build_params(config)
        path = tmp_path / "model.ftnt"
        save(params, path)
        loaded = load(path, expected=build_params(config))
        for name in params:
            assert (loaded[name].data == params[name].data).all(), name
        save(params, tmp_path / "again.ftnt")
        assert path.read_bytes() == (tmp_path / "again.ftnt").read_bytes()

        blob = bytearray(path.read_bytes())
        blob[:4] = b"XXXX"
        (tmp_path / "magic.ftnt").write_bytes(bytes(blob))
        with pytest.raises(BadMagic):
            load(tmp_path / "magic.ftnt")

        (tmp_path / "short.ftnt").write_bytes(path.read_bytes()[:-7])
        with pytest.raises(TruncatedPayload):
            load(tmp_path / "short.ftnt")

        other = ModelConfig(layout="B2-2-2H64D2", vocab_size=23, seed=3)
        with pytest.raises(ShapeMismatch):
            load(path, expected=build_params(other))
