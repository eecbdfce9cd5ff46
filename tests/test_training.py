"""Toy trainer: determinism, schedules, outputs, divergence handling."""

import csv
import functools
import json
import math
import tracemalloc

import numpy as np
import pytest

from funnel import training
from funnel.autodiff import ContractError, Rng, Tape, Tensor, add, mul
from funnel.checkpoint import load
from funnel.model import ModelConfig, param_specs
from funnel.training import (AdamW, OptimizerConfig, TrainSettings, linear_schedule,
                             settings_from_json, train_toy)

from helpers import sum_all


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

    def test_no_decay_span_returns_the_base_rate(self):
        # total <= 0 means no schedule at all; total == warmup leaves no steps to decay over
        assert [linear_schedule(s, 0, 3, 2.0) for s in range(5)] == [2.0] * 5
        assert linear_schedule(0, -1, 0, 2.0) == 2.0
        assert [linear_schedule(s, 4, 4, 2.0) for s in range(6)] == [0.5, 1.0, 1.5, 2.0, 2.0, 2.0]


def optimizer_decays(config, objective):
    """name -> decays flag of every tensor ``train_toy`` hands to AdamW."""
    seen = []

    class Spy(AdamW):
        def __init__(self, params, cfg):
            seen.extend(params)
            super().__init__(params, cfg)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(training, "AdamW", Spy)
        train_toy(config, tiny_corpus(), tiny_settings(objective=objective, steps=0))
    return {name: decays for name, _, decays in seen}


def suffix_rule(name):
    """The name-suffix decay rule the optimizer applied before ``param_specs``."""
    return not (name.endswith(("_g", "_b", "ln_g", "ln_b", "/b", "/b1", "/b2"))
                or "/b_" in name)


class TestAdamW:
    def test_decay_exemptions(self):
        decays = optimizer_decays(tiny_config(), "mlm")
        assert not decays["enc/b0/l0/attn/ln_g"]
        assert not decays["enc/b0/l0/attn/b_q"]
        assert not decays["enc/b0/l0/ffn/b1"]
        assert decays["enc/b0/l0/ffn/w1"]
        assert decays["embed/token"]
        assert decays["rel/w_r"]
        decays = optimizer_decays(tiny_config(), "electra")
        assert not decays["disc/head/b"]
        assert decays["disc/head/w"]

    @pytest.mark.parametrize("config,objective", [
        (ModelConfig(layout="B2-2H64D2", vocab_size=20, pool_op="mean",
                     attn_variant="factorized", seed=0), "mlm"),
        (ModelConfig(layout="B2-2H128D2", vocab_size=64, pool_op="max",
                     attn_variant="gather", seed=0), "electra"),
    ])
    def test_decayed_set_matches_suffix_rule(self, config, objective):
        decays = optimizer_decays(config, objective)
        decayed = {name for name, flag in decays.items() if flag}
        assert decayed == {name for name in decays if suffix_rule(name)}
        assert 0 < len(decayed) < len(decays)


class ReferenceAdamW:
    """The per-tensor AdamW update the flat optimizer must reproduce bit for bit."""

    def __init__(self, params, cfg):
        self.params = params
        self.cfg = cfg
        self.m = [np.zeros_like(t.data) for _, t, _ in params]
        self.v = [np.zeros_like(t.data) for _, t, _ in params]
        self.t = 0

    def step(self, tape, lr):
        self.t += 1
        c = self.cfg
        bc1 = 1.0 - c.beta1 ** self.t
        bc2 = 1.0 - c.beta2 ** self.t
        for i, (_, p, decays) in enumerate(self.params):
            g = tape.grad(p)
            self.m[i] = c.beta1 * self.m[i] + (1.0 - c.beta1) * g
            self.v[i] = c.beta2 * self.v[i] + (1.0 - c.beta2) * g * g
            update = (self.m[i] / bc1) / (np.sqrt(self.v[i] / bc2) + c.eps)
            if c.weight_decay and decays:
                update = update + c.weight_decay * p.data
            p.data = (p.data - lr * update).astype(p.data.dtype, copy=False)


class TestFlatAdamW:
    SHAPES = [("a", (5, 3), True), ("b", (7,), False), ("c", (4, 4), True),
              ("unused", (3, 2), True), ("d", (), False), ("e", (2, 9), False)]

    def triples(self, dtype):
        gen = Rng(5)
        return [(name, Tensor(gen.truncated_normal(shape, 0.5, dtype), requires_grad=True), d)
                for name, shape, d in self.SHAPES]

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("chunk", [AdamW.CHUNK, 7, 1])  # at 1 every edge is a chunk edge
    @pytest.mark.parametrize("weight_decay", [0.01, 0.0])
    def test_bit_identical_to_reference(self, dtype, chunk, weight_decay, monkeypatch):
        monkeypatch.setattr(AdamW, "CHUNK", chunk)  # 7 splits tensors and the decay prefix
        cfg = OptimizerConfig(weight_decay=weight_decay)
        flat, ref = AdamW(self.triples(dtype), cfg), ReferenceAdamW(self.triples(dtype), cfg)
        gen = np.random.Generator(np.random.Philox(6))
        ref_tensor = {name: t for name, t, _ in ref.params}
        for step in range(20):
            # the walk of sum(p * g) gives each tensor exactly g; "unused" stays disconnected
            with Tape() as tape:
                terms, drawn = [], {}
                for name, p, _ in flat.params:
                    if name != "unused":
                        g = drawn[name] = Tensor(gen.standard_normal(p.shape).astype(dtype))
                        terms += [sum_all(mul(p, g)), sum_all(mul(ref_tensor[name], g))]
                tape.backward(functools.reduce(add, terms))
            for name, g in drawn.items():
                assert tape.grad(ref_tensor[name]).tobytes() == g.data.tobytes()
            flat.step(tape, 1e-2 * (step + 1))
            ref.step(tape, 1e-2 * (step + 1))
        by_name = {name: i for i, (name, _, _) in enumerate(ref.params)}
        ofs = 0
        for name, p, _ in flat.params:
            i, n = by_name[name], p.data.size
            q = ref.params[i][1]
            assert p.data.dtype == q.data.dtype == dtype
            np.testing.assert_array_equal(p.data, q.data)
            np.testing.assert_array_equal(flat.m[ofs:ofs + n].reshape(p.shape), ref.m[i])
            np.testing.assert_array_equal(flat.v[ofs:ofs + n].reshape(p.shape), ref.v[i])
            ofs += n

    def test_memory_is_three_rows_and_chunk_scratch(self):
        chunk = AdamW.CHUNK
        shapes = [(5 * chunk + 3,), (7,), (2 * chunk - 1, 3), (8 * chunk + 11,)]
        gen = np.random.Generator(np.random.Philox(2))
        triples = [(str(i), Tensor(gen.standard_normal(shape), requires_grad=True), i % 2 == 0)
                   for i, shape in enumerate(shapes)]
        n = sum(t.data.size for _, t, _ in triples)
        with Tape() as tape:
            tape.backward(functools.reduce(add, [
                sum_all(mul(t, Tensor(gen.standard_normal(t.shape)))) for _, t, _ in triples]))
        tracemalloc.start()
        try:
            opt = AdamW(triples, OptimizerConfig())
            opt.step(tape, 1e-3)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= (3 * n + 3 * chunk) * 8  # two scratch rows, no whole-length gradient row
        assert opt.buffer.shape == (3, n)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("chunk", [AdamW.CHUNK, 7, 1])
    def test_walk_folds_like_the_reference(self, dtype, chunk, monkeypatch):
        """Folding each gradient as the walk hands it to ``fold`` gives the reference's bytes.
        No walk reaches "unused", so ``step`` folds zeros for it; ``tape.grad`` of a folded
        tensor raises rather than reading as zeros.  The reference's tensors are walked on a
        tape of their own, since every leaf of a tape with a sink goes to the sink."""
        monkeypatch.setattr(AdamW, "CHUNK", chunk)
        cfg = OptimizerConfig()
        flat, ref = AdamW(self.triples(dtype), cfg), ReferenceAdamW(self.triples(dtype), cfg)
        gen = np.random.Generator(np.random.Philox(7))
        ref_tensor = {name: t for name, t, _ in ref.params}
        for step in range(20):
            drawn = {name: Tensor(gen.standard_normal(p.shape).astype(dtype))
                     for name, p, _ in flat.params if name != "unused"}
            with Tape() as tape:
                root = functools.reduce(add, [sum_all(mul(p, drawn[name]))
                                              for name, p, _ in flat.params if name in drawn])
            with Tape() as ref_tape:
                ref_root = functools.reduce(add, [sum_all(mul(ref_tensor[name], g))
                                                  for name, g in drawn.items()])
            tape.backward(root, flat.fold)
            ref_tape.backward(ref_root)
            for name, p, _ in flat.params:
                if name != "unused":
                    with pytest.raises(ContractError, match="taken during the walk"):
                        tape.grad(p)
            np.testing.assert_array_equal(ref_tape.grad(ref_tensor["unused"]), 0.0)
            flat.step(tape, 1e-2 * (step + 1))
            ref.step(ref_tape, 1e-2 * (step + 1))
        by_name = {name: i for i, (name, _, _) in enumerate(ref.params)}
        for (name, p, _), ofs in zip(flat.params, flat._offsets):
            i, n = by_name[name], p.data.size
            assert p.data.tobytes() == ref.params[i][1].data.tobytes()
            assert flat.m[ofs:ofs + n].tobytes() == ref.m[i].tobytes()
            assert flat.v[ofs:ofs + n].tobytes() == ref.v[i].tobytes()

    def test_folding_one_tensor_twice_in_a_step_raises(self):
        """A parameter read on two tapes of one step (as if the ELECTRA generator and
        discriminator shared one) would have its moments folded twice."""
        for name in ("a", "d"):
            opt = AdamW(self.triples(np.float64), OptimizerConfig())
            p = next(t for n, t, _ in opt.params if n == name)
            walks = []
            for _ in range(2):
                with Tape() as tape:
                    walks.append((tape, sum_all(mul(p, p))))
            walks[0][0].backward(walks[0][1], opt.fold)
            with pytest.raises(ContractError, match=f"{name} was folded twice"):
                walks[1][0].backward(walks[1][1], opt.fold)

    def test_folding_a_tensor_it_does_not_hold_raises(self):
        """A sink for a tape that also reads a tensor outside the optimizer refuses it rather
        than dropping its gradient."""
        opt = AdamW(self.triples(np.float64), OptimizerConfig())
        p = next(t for n, t, _ in opt.params if n == "a")
        stranger = Tensor(np.ones(p.shape), requires_grad=True)
        with Tape() as tape:
            root = sum_all(mul(p, stranger))
        with pytest.raises(ContractError, match="no parameter"):
            tape.backward(root, opt.fold)
        with pytest.raises(ContractError, match="no parameter"):
            opt.fold(stranger.key, np.ones(p.shape))

    def test_parameters_alias_the_buffer_decaying_first(self):
        triples = self.triples(np.float64)
        before = {name: t.data.copy() for name, t, _ in triples}
        opt = AdamW(triples, OptimizerConfig())
        assert [d for _, _, d in opt.params] == sorted((d for _, _, d in triples), reverse=True)
        ofs = 0
        for name, t, _ in opt.params:
            np.testing.assert_array_equal(t.data, before[name])
            assert np.shares_memory(t.data, opt.flat)
            assert t.data.ctypes.data == opt.flat[ofs:].ctypes.data
            ofs += t.data.size
        assert ofs == opt.flat.size
        assert opt.n_decay == sum(t.data.size for _, t, d in triples if d)

    def test_mixed_dtypes_rejected(self):
        triples = self.triples(np.float64)
        triples[0] = ("a", Tensor(np.zeros((5, 3), np.float32), requires_grad=True), True)
        with pytest.raises(ValueError, match="one dtype"):
            AdamW(triples, OptimizerConfig())

    @pytest.mark.parametrize("objective,dtype", [("mlm", "f64"), ("electra", "f32")])
    def test_checkpoint_after_training_round_trips(self, objective, dtype, tmp_path):
        opts = []

        class Spy(AdamW):
            def __init__(self, params, cfg):
                super().__init__(params, cfg)
                opts.append(self)

        config = ModelConfig(layout="B2-2H64D2", vocab_size=20, dtype=dtype, seed=0)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(training, "AdamW", Spy)
            train_toy(config, tiny_corpus(), tiny_settings(objective=objective), out_dir=tmp_path)
        (opt,) = opts
        assert opt.buffer.dtype == np.dtype(np.float32 if dtype == "f32" else np.float64)
        prefix = "disc/" if objective == "electra" else ""
        trained = {name[len(prefix):]: t.data for name, t, _ in opt.params
                   if name.startswith(prefix) and not name.startswith("disc/head")}
        loaded = load(tmp_path / "model.ftnt", expected=param_specs(config))
        assert set(loaded) == set(trained)
        for name, t in loaded.items():
            np.testing.assert_array_equal(t.data, trained[name])


@pytest.mark.parametrize("objective, shared", [
    ("mlm", ["rel/w_r", "embed/token"]),
    ("electra", ["gen/rel/w_r", "disc/rel/w_r", "gen/embed/token"]),
])
def test_shared_leaves_fold_once_after_their_earliest_reader(objective, shared):
    """``rel/w_r`` is read by every attention layer, and the MLM head reads ``embed/token``
    in the lookup and the tied output.  Each goes from its tape to the optimizer's sink once
    per step, right after the earliest node reading it has run, with the gradient a walk
    that frees nothing gives."""
    opts, seen = [], []
    real_backward = Tape.backward

    class Spy(AdamW):
        def __init__(self, params, cfg):
            super().__init__(params, cfg)
            opts.append(self)

    def backward(tape, root, sink=None):
        readers, ref = {}, {root.key: np.ones((), dtype=root.data.dtype)}
        for i, node in enumerate(tape.nodes):
            for key in node.inputs:
                readers.setdefault(key, []).append(i)
        for node in reversed(tape.nodes):
            g = ref.get(node.out)
            if g is not None:
                for key, gi in zip(node.inputs, node.backward(g)):
                    if key is not None:
                        ref[key] = gi if key not in ref else ref[key] + gi
        def capture(key, g):  # the node just run is the earliest one released
            ran = next(i for i, node in enumerate(tape.nodes) if node.backward is None)
            seen.append((key, ran, readers[key], g.tobytes() == ref[key].tobytes()))
            sink(key, g)

        real_backward(tape, root, capture)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(training, "AdamW", Spy)
        mp.setattr(Tape, "backward", backward)
        train_toy(*_benchmark_config(objective, "f64", steps=1))
    keys = {name: t.key for name, t, _ in opts[0].params}
    for name in shared:
        (folded,) = [(i, readers, final) for key, i, readers, final in seen if key == keys[name]]
        i, readers, final = folded
        assert len(readers) > 1 and i == min(readers) and final, name
    assert all(final for *_, final in seen)


def _benchmark_config(objective, dtype, steps):
    """(config, corpus, settings) of the benchmark's ``mlm_toy`` or ``electra_span`` model."""
    if objective == "mlm":
        config = ModelConfig(layout="B2-2H64D2", vocab_size=20, pool_op="mean",
                             attn_variant="factorized", dtype=dtype, seed=0)
        settings = TrainSettings(steps=steps, batch_size=8, seq_len=16, objective="mlm")
    else:
        config = ModelConfig(layout="B2-2H128D2", vocab_size=64, pool_op="max",
                             attn_variant="gather", dtype=dtype, seed=0)
        settings = TrainSettings(steps=steps, batch_size=4, seq_len=32, objective="electra",
                                 mask_sampler="span")
    gen = Rng(5)
    corpus = [" ".join(f"w{int(gen.integers(0, 40))}" for _ in range(10 + 3 * i))
              for i in range(8)]
    return config, corpus, settings


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
        template = param_specs(ModelConfig.from_json((out / "config.json").read_text()))
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

    def test_non_finite_loss_that_no_op_refuses_diverges(self, monkeypatch):
        """An infinite embedding row for [UNK], which no batch holds, reaches only the
        tied output logits; ``cross_entropy_mean`` returns NaN there without raising,
        so the loss check names the step and no op is the cause."""
        from funnel.corpus import UNK
        from funnel.training import TrainingDiverged
        build = training.FunnelModel

        def poisoned(config):
            model = build(config)
            model.params["embed/token"].data[UNK] = np.inf
            return model

        monkeypatch.setattr(training, "FunnelModel", poisoned)
        with np.errstate(invalid="ignore", over="ignore"):
            with pytest.raises(TrainingDiverged, match="step 0") as e:
                train_toy(tiny_config(), tiny_corpus(), tiny_settings())
        assert e.value.step == 0 and e.value.__cause__ is None

    def test_non_finite_generator_loss_stops_before_the_discriminator(self, monkeypatch):
        """The generator's loss goes non-finite at step 1: ``TrainingDiverged`` names the
        step, the generator's tape is not walked and the discriminator never runs."""
        from funnel import objectives
        from funnel.model import FunnelModel
        from funnel.training import TrainingDiverged
        runs, walks = [], []
        real_loss, real_hidden = objectives.cross_entropy_mean, FunnelModel.token_hidden
        real_backward = Tape.backward

        def loss(*args):  # only the generator's reconstruction loss calls it
            out = real_loss(*args)
            return Tensor(out.data * np.nan) if len(runs) == 3 else out

        def hidden(model, *args, **kw):
            runs.append(model)
            return real_hidden(model, *args, **kw)

        def backward(tape, root, sink=None):
            walks.append(len(runs))
            real_backward(tape, root, sink)

        monkeypatch.setattr(objectives, "cross_entropy_mean", loss)
        monkeypatch.setattr(FunnelModel, "token_hidden", hidden)
        monkeypatch.setattr(Tape, "backward", backward)
        with pytest.raises(TrainingDiverged, match="step 1") as e:
            train_toy(tiny_config(), tiny_corpus(), tiny_settings(objective="electra"))
        assert e.value.step == 1
        gen, disc = runs[:2]
        assert runs == [gen, disc, gen] and walks == [1, 2]


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


@pytest.mark.parametrize("field,value", [
    ("steps", -3), ("batch_size", 0), ("seq_len", 12), ("seq_len", 1),
    ("lr", 0), ("lr", -1e-3), ("beta1", 1.0), ("beta1", -0.1), ("beta2", 1.0), ("eps", 0.0),
    ("weight_decay", -0.01), ("warmup_steps", -1), ("mask_rate", 0.0), ("mask_rate", 1.0),
    ("mask_rate", 1.5), ("lr", float("nan"))])
def test_settings_out_of_range_rejected(field, value):
    with pytest.raises(ValueError, match=field):
        settings_from_json({field: value})


@pytest.mark.parametrize("field,value", [("steps", "2"), ("batch_size", 2.5), ("batch_size", True),
                                         ("warmup_steps", 2.5), ("lr", "1e-3"), ("mask_rate", None)])
def test_settings_wrong_type_rejected(field, value):
    with pytest.raises(TypeError, match=f"{field} must be"):
        settings_from_json({field: value})


def test_zero_steps_is_a_valid_setting():
    assert TrainSettings(steps=0).steps == 0
