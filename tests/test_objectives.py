"""Mask samplers, reconstruction loss, replaced-token detection."""

import math

import numpy as np
import pytest

from funnel.autodiff import ContractError, Rng, Tape, Tensor, bce_with_logits_mean
from funnel.corpus import CLS, MASK, PAD, SEP, UNK, Batch, build_vocab, encode_line
from funnel.layout import BlockSpec, LayoutSpec
from funnel.model import FunnelModel, ModelConfig, generator_config
from funnel.objectives import (MAX_SPAN, MaskPlan, build_electra_batch, electra_step,
                               maskable_positions, mlm_loss, sample_mask_single,
                               sample_mask_span)


def toy_tokens(n_content=100, seed=0):
    gen = Rng(seed)
    return np.concatenate([[CLS], gen.integers(5, 25, n_content), [SEP]])


class TestSingleTokenSampler:
    def test_exact_fifteen_of_hundred(self):
        plan = sample_mask_single(toy_tokens(100), rate=0.15, rng=Rng(1))
        assert len(plan) == 15

    def test_floor_to_zero_gives_empty_plan(self):
        plan = sample_mask_single(toy_tokens(5), rate=0.15, rng=Rng(2))
        assert len(plan) == 0

    def test_same_seed_identical_plan(self):
        a = sample_mask_single(toy_tokens(64), rng=Rng(3))
        b = sample_mask_single(toy_tokens(64), rng=Rng(3))
        np.testing.assert_array_equal(a.positions, b.positions)
        np.testing.assert_array_equal(a.originals, b.originals)

    def test_never_touches_specials(self):
        toks = toy_tokens(62)
        toks[10] = PAD
        for seed in range(25):
            plan = sample_mask_single(toks, rate=0.5, rng=Rng(seed))
            chosen = toks[plan.positions]
            assert not np.isin(chosen, [PAD, CLS, SEP, MASK]).any()
            assert 0 not in plan.positions and len(toks) - 1 not in plan.positions

    def test_apply_replaces_with_mask_token(self):
        toks = toy_tokens(20)
        plan = sample_mask_single(toks, rate=0.2, rng=Rng(4))
        corrupted = plan.apply(toks)
        assert (corrupted[plan.positions] == MASK).all()
        untouched = np.setdiff1d(np.arange(len(toks)), plan.positions)
        np.testing.assert_array_equal(corrupted[untouched], toks[untouched])


def span_plan_loop(token_ids, rate, rng):
    """Reference: add each drawn span's unmasked positions one by one until the budget."""
    pool = maskable_positions(token_ids).tolist()
    budget = int(rate * len(pool))
    masked = set()
    while len(masked) < budget:
        span = int(rng.integers(1, MAX_SPAN + 1))
        start = int(rng.integers(0, len(pool)))
        for i in pool[start:start + span]:
            if len(masked) < budget:
                masked.add(i)
    return sorted(masked)


class TestSpanSampler:
    def test_matches_loop_reference(self):
        for n in range(0, 63, 3):
            toks = toy_tokens(n, seed=n)
            for seed in range(5):
                plan = sample_mask_span(toks, rate=0.4, rng=Rng(seed))
                assert plan.positions.tolist() == span_plan_loop(toks, 0.4, Rng(seed))

    def test_single_token_words_hit_exact_budget(self):
        for n in range(63):
            for rate in (0.15, 0.5):
                plan = sample_mask_span(toy_tokens(n), rate=rate, rng=Rng(n))
                assert len(plan) == int(rate * n)
                assert len(np.unique(plan.positions)) == len(plan)

    def test_budget_truncates_long_span(self):
        plan = sample_mask_span(toy_tokens(20), rate=0.15, rng=Rng(6))
        assert len(plan) == 3

    def test_no_words_empty_plan(self):
        toks = np.array([CLS, SEP])
        plan = sample_mask_span(toks, rate=0.5, rng=Rng(7))
        assert len(plan) == 0

    def test_draws_pinned(self):
        # spans of 1..MAX_SPAN positions at uniform starts, in this draw order
        toks = toy_tokens(40)
        plan = sample_mask_span(toks, rate=0.3, rng=Rng(3))
        assert plan.positions.tolist() == [2, 3, 4, 5, 6, 7, 9, 10, 11, 30, 39, 40]
        np.testing.assert_array_equal(plan.originals, toks[plan.positions])

    def test_never_touches_specials(self):
        toks = toy_tokens(30)
        toks[[5, 6, 7]] = PAD
        for seed in range(25):
            plan = sample_mask_span(toks, rate=0.5, rng=Rng(seed))
            assert not np.isin(toks[plan.positions], [PAD, CLS, SEP, MASK]).any()


@pytest.mark.parametrize("rate", [0.0, 1.0, -0.5])
@pytest.mark.parametrize("sampler", [sample_mask_single, sample_mask_span])
def test_mask_rate_outside_zero_one_refused(sampler, rate):
    with pytest.raises(ContractError, match="mask rate must be in"):
        sampler(toy_tokens(), rate=rate, rng=Rng(0))


class TestMlmLoss:
    @pytest.mark.parametrize("shape,n_plans", [((8, 4, 6), 3), ((8,), 2), ((8, 6), 2)],
                             ids=["four_columns_three_plans", "one_dim", "no_column_axis"])
    def test_plan_count_must_match_columns(self, shape, n_plans):
        plan = MaskPlan(np.array([1]), np.array([2]))
        with pytest.raises(ContractError, match="mask plans for hidden states"):
            mlm_loss(Tensor(np.ones(shape)), Tensor(np.ones((5, 6))), [plan] * n_plans)

    def test_uniform_logits_log_v(self):
        v, d, n = 10, 4, 3
        hidden = Tensor(np.zeros((8, d)))
        embedding = Tensor(np.zeros((v, d)))
        plan = MaskPlan(np.arange(1, n + 1), np.array([2, 5, 9]))
        loss = mlm_loss(hidden, embedding, plan)
        assert loss.item() == pytest.approx(math.log(10), rel=1e-12)

    def test_confident_correct_logits_drive_loss_to_zero(self):
        v, d = 6, 4
        embedding = np.zeros((v, d))
        embedding[3, 0] = 100.0
        hidden = np.zeros((8, d))
        hidden[2, 0] = 1.0
        plan = MaskPlan(np.array([2]), np.array([3]))
        loss = mlm_loss(Tensor(hidden), Tensor(embedding), plan)
        assert loss.item() < 1e-6

    def test_matches_scalar_recomputation(self):
        gen = np.random.Generator(np.random.Philox(8))
        v, d, t = 7, 5, 8
        hidden = gen.standard_normal((t, d))
        embedding = gen.standard_normal((v, d))
        plan = MaskPlan(np.array([1, 4, 6]), np.array([2, 0, 5]))
        loss = mlm_loss(Tensor(hidden), Tensor(embedding), plan).item()
        total = 0.0
        for pos, orig in zip(plan.positions, plan.originals):
            logits = embedding @ hidden[pos]
            log_probs = logits - math.log(np.exp(logits - logits.max()).sum()) - logits.max()
            total -= log_probs[orig]
        assert loss == pytest.approx(total / 3, rel=1e-10)

    def test_empty_plan_contract_error(self):
        with pytest.raises(ContractError):
            mlm_loss(Tensor(np.zeros((4, 2))), Tensor(np.zeros((5, 2))),
                     MaskPlan(np.array([], dtype=np.int64), np.array([], dtype=np.int64)))

    def test_fresh_model_loss_near_log_v(self):
        layout = LayoutSpec(blocks=(BlockSpec(2), BlockSpec(2)), hidden=16,
                            decoder_layers=1, head_dim=8)
        model = FunnelModel(ModelConfig(layout=layout, vocab_size=20, seed=0))
        toks = np.concatenate([[CLS], Rng(9).integers(5, 20, 6), [SEP]])
        plan = sample_mask_single(toks, rate=0.3, rng=Rng(10))
        hidden = model.token_hidden(plan.apply(toks))
        loss = mlm_loss(hidden, model.params["embed/token"], plan)
        assert abs(loss.item() - math.log(20)) < 0.5


@pytest.fixture
def electra_pair():
    layout = LayoutSpec(blocks=(BlockSpec(1), BlockSpec(1)), hidden=16,
                        decoder_layers=1, head_dim=8)
    config = ModelConfig(layout=layout, vocab_size=16, seed=1)
    disc = FunnelModel(config)
    gen_cfg = generator_config(config)
    assert gen_cfg.hidden == 4  # quarter width
    gen = FunnelModel(gen_cfg)
    head = (Tensor(np.zeros(16), requires_grad=True),
            Tensor(np.zeros(()), requires_grad=True))
    return gen, disc, head


class TestElectra:
    def test_labels_iff_changed(self, electra_pair):
        gen_model, disc, head = electra_pair
        toks = np.concatenate([[CLS], Rng(12).integers(5, 16, 6), [SEP]])
        line = encode_line(" ", build_vocab([], 16), 8)
        line.token_ids[:] = toks
        line.pad_mask[:] = True
        plan = sample_mask_single(toks, rate=0.3, rng=Rng(13))
        for seed in range(10):
            _, _, batch = electra_step(gen_model, disc, head, Batch.stack([line]), [plan],
                                       Rng(seed), lambda key, g: None)
            np.testing.assert_array_equal(batch.labels[0] == 1.0,
                                          batch.sampled_ids[0] != toks)
            unmasked = np.setdiff1d(np.arange(8), plan.positions)
            np.testing.assert_array_equal(batch.sampled_ids[0, unmasked], toks[unmasked])

    def test_uniform_discriminator_loss_ln2(self):
        logits = Tensor(np.zeros((12, 1)))
        labels = (np.arange(12) % 2).astype(float)[:, None]
        loss = bce_with_logits_mean(logits, labels, np.full((12, 1), 1 / 12))
        assert loss.item() == pytest.approx(math.log(2), abs=1e-9)

    def test_generator_copying_originals_gives_all_real(self):
        toks = np.array([CLS, 7, 8, 9, SEP])
        plan = MaskPlan(np.array([1, 3]), toks[[1, 3]])
        probs = np.zeros((2, 16))
        probs[0, 7] = 1.0
        probs[1, 9] = 1.0
        batch = build_electra_batch(toks, plan, probs, Rng(0))
        assert (batch.labels == 0).all()

    def test_no_gradient_flows_from_disc_loss_to_generator(self, electra_pair):
        """The generator's tape is walked inside ``electra_step``, before the discriminator
        runs, and hands its gradients to the sink; the discriminator's tape reaches no
        generator tensor, and the generator's gradients equal those of its loss walked on a
        tape of its own."""
        from funnel.objectives import mlm_loss
        gen_model, disc, head = electra_pair
        toks = np.concatenate([[CLS], Rng(14).integers(5, 16, 6), [SEP]])
        line = encode_line(" ", build_vocab([], 16), 8)
        line.token_ids[:] = toks
        line.pad_mask[:] = True
        plan = sample_mask_single(toks, rate=0.3, rng=Rng(15))
        for _, p in gen_model.trainable() + disc.trainable():
            p.requires_grad = True
        gen_grads = {}
        tape, total, _ = electra_step(gen_model, disc, head, Batch.stack([line]), [plan],
                                      Rng(16), gen_grads.__setitem__)
        assert gen_grads and not tape.walked                 # the discriminator's is left
        tape.backward(total)
        assert not set(tape.grads) & {p.key for _, p in gen_model.trainable()}
        assert np.abs(tape.grad(head[0])).sum() > 0         # the weighted term trains the head
        with Tape() as alone:
            hidden = gen_model.token_hidden(plan.apply(toks)[:, None], line.pad_mask[:, None],
                                            rng=Rng(16))
            alone.backward(mlm_loss(hidden, gen_model.params["embed/token"], [plan]))
        assert set(gen_grads) <= {p.key for _, p in gen_model.trainable()}
        for _, p in gen_model.trainable():
            np.testing.assert_array_equal(gen_grads.get(p.key, 0.0), alone.grad(p))

    def test_quarter_width_generator_heads(self):
        config = ModelConfig(layout="B6-6-6H768D2", vocab_size=100, seed=0)
        gen_cfg = generator_config(config)
        assert gen_cfg.hidden == 192
        assert gen_cfg.layout.head_dim == 64
        assert gen_cfg.heads == 3

    def test_empty_plan_contract_error(self, electra_pair):
        gen_model, disc, head = electra_pair
        line = encode_line("", build_vocab([], 16), 8)
        empty = MaskPlan(np.array([], dtype=np.int64), np.array([], dtype=np.int64))
        with pytest.raises(ContractError):
            electra_step(gen_model, disc, head, Batch.stack([line]), [empty], Rng(0),
                         lambda key, g: None)


def test_maskable_excludes_all_specials():
    toks = np.array([CLS, 5, MASK, PAD, 6, SEP])
    np.testing.assert_array_equal(maskable_positions(toks), [1, 4])


def test_maskable_matches_set_exclusion_for_every_id():
    """The range test picks what excluding the four unmaskable specials picks, UNK included."""
    ids = np.arange(64)
    for toks in (ids, ids[::-1], np.random.Generator(np.random.Philox(3)).integers(0, 64, 200)):
        np.testing.assert_array_equal(maskable_positions(toks),
                                      np.flatnonzero(~np.isin(toks, (PAD, CLS, SEP, MASK))))
    assert UNK in maskable_positions(ids)                # position i holds id i
