"""Toy trainer: determinism, schedules, outputs, divergence handling."""

import csv
import json
import math

import pytest

from funnel.autodiff import Rng
from funnel.checkpoint import load
from funnel.model import ModelConfig, build_params
from funnel.training import (AdamW, OptimizerConfig, TrainSettings, linear_schedule,
                             settings_from_json, train_toy)


def tiny_corpus(n_sentences=4, n_words=8, vocab_words=10, seed=1):
    gen = Rng(seed)
    words = [f"w{i}" for i in range(vocab_words)]
    return [" ".join(words[int(gen.integers(0, vocab_words))] for _ in range(n_words))
            for _ in range(n_sentences)]


def tiny_settings(**kw):
    defaults = dict(steps=4, batch_size=2, seq_len=16, mask_rate=0.3,
                    optimizer=OptimizerConfig(lr=1e-3, warmup_steps=2))
    defaults.update(kw)
    return TrainSettings(**defaults)


def tiny_config(seed=0):
    return ModelConfig(layout="B2-2H64D2", vocab_size=20, dtype="f64", seed=seed)


class TestSchedule:
    def test_warmup_then_decay(self):
        lrs = [linear_schedule(s, 10, 4, 1.0) for s in range(10)]
        assert lrs[:4] == [0.25, 0.5, 0.75, 1.0]
        assert lrs[4] == 1.0
        assert lrs[-1] == pytest.approx(1 / 6)

    def test_no_warmup(self):
        assert linear_schedule(0, 10, 0, 2.0) == 2.0


class TestAdamW:
    def test_decay_exemptions(self):
        assert not AdamW.decays("enc/b0/l0/attn/ln_g")
        assert not AdamW.decays("enc/b0/l0/attn/b_q")
        assert not AdamW.decays("enc/b0/l0/ffn/b1")
        assert AdamW.decays("enc/b0/l0/ffn/w1")
        assert AdamW.decays("embed/token")
        assert AdamW.decays("rel/w_r")
        assert not AdamW.decays("disc/head/b")
        assert AdamW.decays("disc/head/w")


class TestTrainToy:
    def test_zero_steps_empty_trace(self):
        trace = train_toy(tiny_config(), tiny_corpus(), tiny_settings(steps=0))
        assert trace == []

    def test_same_seed_identical_traces(self):
        a = train_toy(tiny_config(), tiny_corpus(), tiny_settings())
        b = train_toy(tiny_config(), tiny_corpus(), tiny_settings())
        assert [(r.step, r.loss, r.lr) for r in a] == [(r.step, r.loss, r.lr) for r in b]

    def test_different_seed_differs(self):
        a = train_toy(tiny_config(seed=0), tiny_corpus(), tiny_settings())
        b = train_toy(tiny_config(seed=1), tiny_corpus(), tiny_settings())
        assert [r.loss for r in a] != [r.loss for r in b]

    def test_outputs_written(self, tmp_path):
        out = tmp_path / "run"
        config = tiny_config()
        train_toy(config, tiny_corpus(), tiny_settings(), out_dir=out)
        with open(out / "trace.csv") as f:
            rows = list(csv.reader(f))
        assert rows[0] == ["step", "loss", "lr"]
        assert len(rows) == 5
        summary = json.loads((out / "summary.json").read_text())
        assert summary["steps"] == 4
        assert (out / "vocab.txt").exists()
        template = build_params(ModelConfig.from_json((out / "config.json").read_text()))
        loaded = load(out / "model.ftnt", expected=template)
        assert set(loaded) == set(template)

    def test_vocab_size_shrinks_to_actual(self):
        config = tiny_config()
        train_toy(config, tiny_corpus(vocab_words=3), tiny_settings(steps=1))
        assert config.vocab_size == 8  # 3 words + 5 specials

    def test_electra_objective_runs_and_is_deterministic(self):
        a = train_toy(tiny_config(), tiny_corpus(),
                      tiny_settings(objective="electra", steps=2))
        b = train_toy(tiny_config(), tiny_corpus(),
                      tiny_settings(objective="electra", steps=2))
        assert [r.loss for r in a] == [r.loss for r in b]
        assert all(math.isfinite(r.loss) for r in a)

    def test_span_sampler_runs(self):
        trace = train_toy(tiny_config(), tiny_corpus(),
                          tiny_settings(mask_sampler="span", steps=2))
        assert len(trace) == 2

    def test_unknown_objective_rejected(self):
        with pytest.raises(ValueError):
            train_toy(tiny_config(), tiny_corpus(), tiny_settings(objective="rtd"))

    def test_empty_corpus_rejected(self):
        with pytest.raises(ValueError):
            train_toy(tiny_config(), [], tiny_settings())

    def test_loss_decreases_over_short_run(self):
        trace = train_toy(tiny_config(), tiny_corpus(n_sentences=2) * 8,
                          tiny_settings(steps=40, batch_size=4,
                                        optimizer=OptimizerConfig(lr=2e-3,
                                                                  warmup_steps=5)))
        assert trace[-1].loss < trace[0].loss

    def test_divergence_aborts_with_step_index(self):
        import numpy as np
        from funnel.training import TrainingDiverged
        settings = tiny_settings(steps=50,
                                 optimizer=OptimizerConfig(lr=1e18, warmup_steps=0))
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(TrainingDiverged) as e:
                train_toy(tiny_config(), tiny_corpus(), settings)
        assert e.value.step > 0
        assert "step" in str(e.value)


def test_settings_from_json_flat_keys():
    s = settings_from_json({"steps": 7, "lr": 0.5, "warmup_steps": 3,
                            "mask_sampler": "span", "batch_size": 2})
    assert s.steps == 7
    assert s.mask_sampler == "span"
    assert s.optimizer.lr == 0.5
    assert s.optimizer.warmup_steps == 3


def test_settings_from_json_rejects_unknown_keys():
    with pytest.raises(ValueError, match="learning_rate"):
        settings_from_json({"learning_rate": 0.5})
