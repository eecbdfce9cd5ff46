"""Command-line interface: outputs, exit codes, determinism."""

import json

import numpy as np
import pytest

from funnel.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


class TestAnalyze:
    def test_effective_layers_base(self, capsys):
        code, out, _ = run(capsys, "analyze", "--layout", "B6-6-6H768",
                           "--mode", "finetune")
        assert code == 0
        assert "effective_layers    10.5" in out

    def test_plain_stack(self, capsys):
        code, out, _ = run(capsys, "analyze", "--layout", "L12H768")
        assert code == 0
        assert "effective_layers    12" in out

    def test_bad_layout_exit_2(self, capsys):
        code, _, err = run(capsys, "analyze", "--layout", "B6-6XH768")
        assert code == 2
        assert err.startswith("error: parse:")

    def test_json_format(self, capsys):
        code, out, _ = run(capsys, "analyze", "--layout", "B6-6-6H768D2",
                           "--mode", "pretrain", "--format", "json")
        assert code == 0
        d = json.loads(out)
        assert d["effective_layers"] == [25, 2]


class TestCompare:
    def test_base_group(self, capsys):
        code, out, _ = run(capsys, "compare", "--layouts", "B6-6-6H768,B4-4-4H768",
                           "--baseline", "L12H768")
        assert code == 0
        lines = out.splitlines()
        assert lines[2].split()[1] == "0.88"
        assert lines[3].split()[1] == "0.58"

    def test_pretrain_decoder_layouts(self, capsys):
        code, out, _ = run(capsys, "compare", "--layouts",
                           "B6-6-6H768D2,B4-4-4H768D2", "--baseline", "L12H768",
                           "--mode", "pretrain")
        assert code == 0
        lines = out.splitlines()
        assert lines[2].split()[1] == "1.04"
        assert lines[3].split()[1] == "0.75"

    def test_baseline_against_itself(self, capsys):
        code, out, _ = run(capsys, "compare", "--layouts", "L12H768",
                           "--baseline", "L12H768")
        assert code == 0
        assert out.splitlines()[2].split()[1] == "1.00"

    def test_mixed_hidden_exit_2(self, capsys):
        code, _, err = run(capsys, "compare", "--layouts", "B6-6-6H768",
                           "--baseline", "L24H1024")
        assert code == 2
        assert "error:" in err


class TestVerifyAttn:
    def test_default_run_passes(self, capsys):
        code, out, _ = run(capsys, "verify-attn", "--trials", "30", "--seed", "1")
        assert code == 0
        dev = float(out.split()[2])
        assert dev < 1e-10

    def test_seeded_run_reproducible(self, capsys):
        _, out1, _ = run(capsys, "verify-attn", "--trials", "10", "--seed", "7")
        _, out2, _ = run(capsys, "verify-attn", "--trials", "10", "--seed", "7")
        assert out1 == out2

    def test_zero_trials_vacuous_pass(self, capsys):
        code, out, _ = run(capsys, "verify-attn", "--trials", "0")
        assert code == 0
        assert "warning" in out


class TestGradcheck:
    def test_funnel_passes(self, capsys):
        code, out, _ = run(capsys, "gradcheck", "--layout", "B2-2H64",
                           "--seq-len", "8", "--coords-per-param", "2")
        assert code == 0
        assert float(out.split()[-1]) < 1e-4

    def test_plain_stack_passes(self, capsys):
        code, out, _ = run(capsys, "gradcheck", "--layout", "L2H64",
                           "--seq-len", "8", "--coords-per-param", "2")
        assert code == 0

    def test_dropout_refused(self, capsys):
        code, _, err = run(capsys, "gradcheck", "--layout", "B2-2H64",
                           "--dropout", "0.1")
        assert code == 2
        assert "unrecognized arguments: --dropout" in err


@pytest.fixture
def train_setup(tmp_path):
    corpus = tmp_path / "corpus.txt"
    gen = np.random.Generator(np.random.Philox(3))
    words = [f"w{i}" for i in range(10)]
    corpus.write_text("\n".join(
        " ".join(words[int(gen.integers(0, 10))] for _ in range(8))
        for _ in range(16)) + "\n")
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({
        "layout": "B2-2H64D2", "vocab_size": 20, "dtype": "f64", "seed": 5,
        "train": {"steps": 3, "batch_size": 2, "seq_len": 16, "mask_rate": 0.3,
                  "lr": 1e-3, "warmup_steps": 2},
    }))
    return cfg, corpus, tmp_path


class TestTrainToy:
    def test_writes_outputs_and_reruns_identically(self, train_setup, capsys):
        cfg, corpus, tmp = train_setup
        code, _, _ = run(capsys, "train-toy", "--config", str(cfg),
                         "--corpus", str(corpus), "--out", str(tmp / "run1"))
        assert code == 0
        code, _, _ = run(capsys, "train-toy", "--config", str(cfg),
                         "--corpus", str(corpus), "--out", str(tmp / "run2"))
        assert code == 0
        assert (tmp / "run1" / "trace.csv").read_text() == \
               (tmp / "run2" / "trace.csv").read_text()
        assert (tmp / "run1" / "model.ftnt").read_bytes() == \
               (tmp / "run2" / "model.ftnt").read_bytes()

    def test_missing_corpus_exit_2(self, train_setup, capsys):
        cfg, _, tmp = train_setup
        code, _, err = run(capsys, "train-toy", "--config", str(cfg),
                           "--corpus", str(tmp / "nope.txt"), "--out", str(tmp / "o"))
        assert code == 2
        assert "error: input:" in err

    def test_nothing_to_mask_exit_2(self, train_setup, capsys):
        # floor(0.15 * 4) = 0: no line of four words has a token to mask
        cfg, _, tmp = train_setup
        short = tmp / "short.txt"
        short.write_text("w1 w2 w3 w4\nw5 w6 w7 w8\n")
        d = json.loads(cfg.read_text())
        d["train"]["mask_rate"] = 0.15
        cfg.write_text(json.dumps(d))
        code, _, err = run(capsys, "train-toy", "--config", str(cfg),
                           "--corpus", str(short), "--out", str(tmp / "o"))
        assert code == 2
        assert "error: input:" in err
        assert not (tmp / "o" / "model.ftnt").exists()

    def test_removed_training_field_refused(self, train_setup, capsys):
        cfg, corpus, tmp = train_setup
        d = json.loads(cfg.read_text())
        d["train"]["disc_loss_weight"] = 50.0
        cfg.write_text(json.dumps(d))
        code, _, err = run(capsys, "train-toy", "--config", str(cfg),
                           "--corpus", str(corpus), "--out", str(tmp / "o"))
        assert code == 2
        assert "error: config: unknown training fields" in err

    def test_unknown_model_field_refused(self, train_setup, capsys):
        cfg, corpus, tmp = train_setup
        d = json.loads(cfg.read_text())
        d["extra"] = 1
        cfg.write_text(json.dumps(d))
        code, _, err = run(capsys, "train-toy", "--config", str(cfg),
                           "--corpus", str(corpus), "--out", str(tmp / "o"))
        assert code == 2
        assert err == "error: config: unknown config fields: ['extra']\n"
        assert not (tmp / "o").exists()

    @pytest.mark.parametrize("field,value,message", [
        pytest.param("objective", "spam", "objective must be one of", id="objective"),
        pytest.param("mask_sampler", "spam", "mask_sampler must be one of", id="mask_sampler"),
        pytest.param("steps", -3, "steps must be >= 0", id="steps"),
        pytest.param("batch_size", 0, "batch_size must be >= 1", id="batch_size"),
        pytest.param("seq_len", 12, "seq_len must be a power of two", id="seq_len"),
    ])
    def test_unknown_choice_refused(self, train_setup, capsys, field, value, message):
        cfg, corpus, tmp = train_setup
        d = json.loads(cfg.read_text())
        d["train"][field] = value
        cfg.write_text(json.dumps(d))
        code, _, err = run(capsys, "train-toy", "--config", str(cfg),
                           "--corpus", str(corpus), "--out", str(tmp / "o"))
        assert code == 2
        assert f"error: config: {message}" in err
        assert not (tmp / "o").exists()

    @pytest.mark.parametrize("text", [
        '["layout", "B2-2H64D2"]',
        '{"layout": "B2-2H64D2", "vocab_size": 20,',
        '{"layout": "B2-2H64D2", "vocab_size": 20, "dropout": 1.5}',
        '{"layout": "B2-2H64D2", "vocab_size": 20, "attn_dropout": -0.1}',
        '{"layout": "B2-2H64D2", "vocab_size": 20, "train": 5}',
        '{"layout": 5, "vocab_size": 20}',
        '{"layout": "B2-2H64D2", "vocab_size": 20, "separate_cls": "no"}',
        '{"layout": "B2-2H64D2", "vocab_size": 20, "seed": "x"}',
        '{"layout": "B2-2H64D2", "vocab_size": 20.5}',
    ], ids=["array", "bad_json", "dropout", "attn_dropout", "train_not_object", "layout_number",
            "bool_as_string", "seed_string", "vocab_size_float"])
    def test_malformed_config_refused(self, train_setup, capsys, text):
        cfg, corpus, tmp = train_setup
        cfg.write_text(text)
        code, _, err = run(capsys, "train-toy", "--config", str(cfg),
                           "--corpus", str(corpus), "--out", str(tmp / "o"))
        assert code == 2
        assert "error: config:" in err
        assert not (tmp / "o").exists()

    def test_untruncated_separate_cls_trains(self, train_setup, capsys):
        # 16 pools to 9 with CLS kept apart and nothing dropped; the decoder stretches 9 to 16
        cfg, corpus, tmp = train_setup
        d = json.loads(cfg.read_text())
        d.update(separate_cls=True, truncate_seq=False)
        cfg.write_text(json.dumps(d))
        code, out, _ = run(capsys, "train-toy", "--config", str(cfg),
                           "--corpus", str(corpus), "--out", str(tmp / "o"))
        assert code == 0
        assert out.startswith("trained 3 steps")

    def test_top_attn_after_lone_transition_refused(self, train_setup, capsys):
        cfg, corpus, tmp = train_setup
        d = json.loads(cfg.read_text())
        d.update(layout="B2-1-2H64D2", pool_op="top_attn")
        cfg.write_text(json.dumps(d))
        code, _, err = run(capsys, "train-toy", "--config", str(cfg),
                           "--corpus", str(corpus), "--out", str(tmp / "o"))
        assert code == 2
        assert "error: config: top_attn pooling with pool_query_only" in err
        assert not (tmp / "o").exists()


class TestEncode:
    def test_shapes_cls_tokens(self, train_setup, capsys):
        cfg, corpus, tmp = train_setup
        code, _, _ = run(capsys, "train-toy", "--config", str(cfg),
                         "--corpus", str(corpus), "--out", str(tmp / "run"))
        assert code == 0
        trained_cfg = tmp / "run" / "config.json"
        ckpt = tmp / "run" / "model.ftnt"

        code, out, _ = run(capsys, "encode", "--config", str(trained_cfg),
                           "--checkpoint", str(ckpt), "--input", str(corpus),
                           "--dump", "shapes", "--seq-len", "16")
        assert code == 0
        first = json.loads(out.splitlines()[0])
        assert first["block_shapes"] == [[16, 64], [8, 64]]

        code, out, _ = run(capsys, "encode", "--config", str(trained_cfg),
                           "--checkpoint", str(ckpt), "--input", str(corpus),
                           "--dump", "cls", "--seq-len", "16")
        assert code == 0
        assert len(json.loads(out.splitlines()[0])["cls"]) == 64

        code, out, _ = run(capsys, "encode", "--config", str(trained_cfg),
                           "--checkpoint", str(ckpt), "--input", str(corpus),
                           "--dump", "tokens", "--seq-len", "16")
        assert code == 0
        first = json.loads(out.splitlines()[0])
        assert first["tokens"] == 16
        # CLS + 8 words + SEP are real; the six pad rows are never computed
        vectors = np.array(first["vectors"])
        assert (vectors[10:] == 0.0).all() and not np.signbit(vectors[10:]).any()
        assert (vectors[:10] != 0.0).any(axis=1).all()

    def test_explicit_vocab_flag(self, train_setup, capsys):
        cfg, corpus, tmp = train_setup
        run(capsys, "train-toy", "--config", str(cfg), "--corpus", str(corpus),
            "--out", str(tmp / "run"))
        moved = tmp / "elsewhere.txt"
        moved.write_bytes((tmp / "run" / "vocab.txt").read_bytes())
        code, out, _ = run(capsys, "encode", "--config", str(tmp / "run" / "config.json"),
                           "--checkpoint", str(tmp / "run" / "model.ftnt"),
                           "--input", str(corpus), "--dump", "shapes",
                           "--seq-len", "16", "--vocab", str(moved))
        assert code == 0
        assert json.loads(out.splitlines()[0])["block_shapes"] == [[16, 64], [8, 64]]

    def test_dropout_is_off_at_inference(self, train_setup, capsys):
        cfg, corpus, tmp = train_setup
        run(capsys, "train-toy", "--config", str(cfg), "--corpus", str(corpus),
            "--out", str(tmp / "run"))
        outputs = []
        for rate in (0.0, 0.1):
            d = json.loads((tmp / "run" / "config.json").read_text())
            d["dropout"] = d["attn_dropout"] = rate
            rate_cfg = tmp / f"cfg_{rate}.json"
            rate_cfg.write_text(json.dumps(d))
            code, out, _ = run(capsys, "encode", "--config", str(rate_cfg),
                               "--checkpoint", str(tmp / "run" / "model.ftnt"),
                               "--vocab", str(tmp / "run" / "vocab.txt"),
                               "--input", str(corpus), "--dump", "tokens", "--seq-len", "16")
            assert code == 0
            outputs.append(out)
        assert outputs[0] == outputs[1]

    def test_missing_vocab_exit_2(self, train_setup, capsys):
        cfg, corpus, tmp = train_setup
        run(capsys, "train-toy", "--config", str(cfg), "--corpus", str(corpus),
            "--out", str(tmp / "run"))
        (tmp / "run" / "vocab.txt").unlink()
        code, out, err = run(capsys, "encode", "--config", str(tmp / "run" / "config.json"),
                             "--checkpoint", str(tmp / "run" / "model.ftnt"),
                             "--input", str(corpus))
        assert code == 2
        assert "error: vocab:" in err
        assert out == ""

    def test_missing_checkpoint_exit_2(self, train_setup, capsys):
        cfg, corpus, tmp = train_setup
        code, _, err = run(capsys, "encode", "--config", str(cfg),
                           "--checkpoint", str(tmp / "none.ftnt"),
                           "--input", str(corpus))
        assert code == 2
        assert "error: checkpoint:" in err

    @pytest.mark.parametrize("fields", [
        {"layout": "B2-2H64D2"},
        {"layout": "B2-2H64D2", "vocab_size": "20"},
        {"layout": "B2-2H64D2", "vocab_size": 20, "dropout": 1.5},
    ], ids=["no_vocab_size", "string_vocab_size", "dropout"])
    def test_malformed_config_exit_2(self, train_setup, capsys, fields):
        # the config is refused before the checkpoint is read
        _, corpus, tmp = train_setup
        (tmp / "cfg_enc.json").write_text(json.dumps(fields))
        (tmp / "model.ftnt").write_bytes(b"")
        code, out, err = run(capsys, "encode", "--config", str(tmp / "cfg_enc.json"),
                             "--checkpoint", str(tmp / "model.ftnt"), "--input", str(corpus))
        assert code == 2
        assert err.startswith("error: config:")
        assert out == ""

    def test_wrong_layout_checkpoint_exit_2(self, train_setup, capsys):
        cfg, corpus, tmp = train_setup
        run(capsys, "train-toy", "--config", str(cfg), "--corpus", str(corpus),
            "--out", str(tmp / "run"))
        other_cfg = tmp / "other.json"
        d = json.loads((tmp / "run" / "config.json").read_text())
        d["layout"] = "B2-2-2H64D2"
        other_cfg.write_text(json.dumps(d))
        code, _, err = run(capsys, "encode", "--config", str(other_cfg),
                           "--checkpoint", str(tmp / "run" / "model.ftnt"),
                           "--input", str(corpus))
        assert code == 2
        assert "error: checkpoint:" in err

    def test_wrong_dtype_checkpoint_exit_2(self, train_setup, capsys):
        cfg, corpus, tmp = train_setup
        run(capsys, "train-toy", "--config", str(cfg), "--corpus", str(corpus),
            "--out", str(tmp / "run"))
        f32_cfg = tmp / "f32.json"
        d = json.loads((tmp / "run" / "config.json").read_text())
        d["dtype"] = "f32"
        f32_cfg.write_text(json.dumps(d))
        code, out, err = run(capsys, "encode", "--config", str(f32_cfg),
                             "--checkpoint", str(tmp / "run" / "model.ftnt"),
                             "--input", str(corpus))
        assert code == 2
        assert "error: checkpoint:" in err and "float64" in err
        assert out == ""

    def test_loading_draws_no_initial_parameters(self, train_setup, capsys, monkeypatch):
        from funnel.autodiff import Rng
        cfg, corpus, tmp = train_setup
        run(capsys, "train-toy", "--config", str(cfg), "--corpus", str(corpus),
            "--out", str(tmp / "run"))

        def refuse(*args, **kwargs):
            raise AssertionError("encode drew an initial parameter")

        monkeypatch.setattr(Rng, "truncated_normal", refuse)
        code, out, _ = run(capsys, "encode", "--config", str(tmp / "run" / "config.json"),
                           "--checkpoint", str(tmp / "run" / "model.ftnt"),
                           "--input", str(corpus), "--dump", "tokens", "--seq-len", "16")
        assert code == 0
        assert len(out.splitlines()) == 16


def test_shapes_three_blocks(tmp_path, capsys):
    corpus = tmp_path / "c.txt"
    corpus.write_text("k0 k1 k2 k3 k4 k5\n")
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({
        "layout": "B2-2-2H64D2", "vocab_size": 15, "dtype": "f64", "seed": 0,
        "train": {"steps": 1, "batch_size": 1, "seq_len": 16, "mask_rate": 0.3},
    }))
    code, _, _ = run(capsys, "train-toy", "--config", str(cfg),
                     "--corpus", str(corpus), "--out", str(tmp_path / "r"))
    assert code == 0
    code, out, _ = run(capsys, "encode", "--config", str(tmp_path / "r" / "config.json"),
                       "--checkpoint", str(tmp_path / "r" / "model.ftnt"),
                       "--input", str(corpus), "--dump", "shapes", "--seq-len", "16")
    assert code == 0
    assert json.loads(out.splitlines()[0])["block_shapes"] == [[16, 64], [8, 64], [4, 64]]
