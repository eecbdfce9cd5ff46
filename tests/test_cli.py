"""Command-line interface: outputs, exit codes, determinism."""

import itertools
import json
import struct
import warnings

import numpy as np
import pytest

from funnel import cli
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

    def test_layout_with_no_attention_head_exit_2(self, capsys):
        code, out, err = run(capsys, "analyze", "--layout", "L1H0")
        assert (code, out) == (2, "")
        assert err.startswith("error: parse: layout 'L1H0': hidden size 0 holds no")

    def test_vocab_below_the_special_tokens_exit_2(self, capsys):
        code, out, err = run(capsys, "analyze", "--layout", "B2-2H64", "--vocab", "4")
        assert (code, out) == (2, "")
        assert err == "error: input: vocab must cover the 5 special tokens, got 4\n"

    def test_json_format(self, capsys):
        code, out, _ = run(capsys, "analyze", "--layout", "B6-6-6H768D2",
                           "--mode", "pretrain", "--format", "json")
        assert code == 0
        d = json.loads(out)
        assert d["effective_layers"] == [25, 2]

    REPORT_ARGS = ("analyze", "--layout", "B6-6-6H768D2", "--mode", "pretrain",
                   "--seq-len", "128", "--vocab", "1000")

    def test_full_text_report(self, capsys):
        # params: 20 layers of 12 D^2 + 15 D, a 1000 x D embedding, one D x D
        # projection; effective layers: 6 + 6/2 + 6/4 + 2 decoder layers
        code, out, err = run(capsys, *self.REPORT_ARGS)
        assert (code, err) == (0, "")
        assert out.splitlines() == [
            "layout              B6-6-6H768D2",
            "mode                pretrain",
            "seq_len             128",
            "params_total        143145984",
            "params_transformer  141788160",
            "params_embedding    768000",
            "params_shared       589824",
            "effective_layers    12.5 (25/2)",
            "flops_exact         25788678144",
        ]

    def test_full_json_report(self, capsys):
        code, out, err = run(capsys, *self.REPORT_ARGS, "--format", "json")
        assert (code, err) == (0, "")
        assert list(json.loads(out).items()) == [
            ("layout", "B6-6-6H768D2"),
            ("mode", "pretrain"),
            ("seq_len", 128),
            ("params_total", 143145984),
            ("params_transformer", 141788160),
            ("params_embedding", 768000),
            ("params_shared", 589824),
            ("effective_layers", [25, 2]),
            ("effective_layers_float", 12.5),
            ("flops_exact", 25788678144),
        ]


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

    def test_no_layouts_exit_2(self, capsys):
        code, out, err = run(capsys, "compare", "--layouts", ",", "--baseline", "L12H768")
        assert code == 2
        assert err == "error: usage: no layouts given\n"
        assert out == ""

    # README's two compare commands, byte for byte; cells are left-justified
    # to the header width, so rows end in spaces
    def test_readme_finetune_table(self, capsys):
        code, out, err = run(capsys, "compare", "--layouts",
                             "B6-6-6H768,B6-3x2-3x2H768,B4-4-4H768", "--baseline", "L12H768")
        assert (code, err) == (0, "")
        assert out == "\n".join([
            "layout          flops_ratio_linear  flops_ratio_exact  params_ratio",
            "--------------  ------------------  -----------------  ------------",
            "B6-6-6H768      0.88                0.85               1.39        ",
            "B6-3x2-3x2H768  0.88                0.85               1.00        ",
            "B4-4-4H768      0.58                0.57               1.00        ",
            "baseline: L12H768  mode: finetune",
        ]) + "\n"

    PRETRAIN_ARGS = ("compare", "--layouts", "B6-6-6H768D2,B4-4-4H768D2",
                     "--baseline", "L12H768", "--mode", "pretrain")

    def test_readme_pretrain_table(self, capsys):
        code, out, err = run(capsys, *self.PRETRAIN_ARGS)
        assert (code, err) == (0, "")
        assert out == "\n".join([
            "layout        flops_ratio_linear  flops_ratio_exact  params_ratio",
            "------------  ------------------  -----------------  ------------",
            "B6-6-6H768D2  1.04                1.02               1.52        ",
            "B4-4-4H768D2  0.75                0.74               1.13        ",
            "baseline: L12H768  mode: pretrain",
        ]) + "\n"

    def test_readme_pretrain_table_json(self, capsys):
        code, out, err = run(capsys, *self.PRETRAIN_ARGS, "--format", "json")
        assert (code, err) == (0, "")
        rows = [{"layout": "B6-6-6H768D2", "flops_ratio_linear": "1.04",
                 "flops_ratio_exact": "1.02", "params_ratio": "1.52"},
                {"layout": "B4-4-4H768D2", "flops_ratio_linear": "0.75",
                 "flops_ratio_exact": "0.74", "params_ratio": "1.13"}]
        assert out == json.dumps({"baseline": "L12H768", "mode": "pretrain", "seq_len": 512,
                                  "rows": rows}, indent=2) + "\n"


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

    def test_negative_trials_refused(self, capsys):
        code, out, err = run(capsys, "verify-attn", "--trials", "-1")
        assert code == 2
        assert err.startswith("error: usage: --trials must be >= 0")
        assert "max deviation" not in out


    def test_deviation_exit_1(self, capsys, monkeypatch):
        monkeypatch.setattr(cli, "variant_deviation", lambda *args: 2e-8)
        code, out, err = run(capsys, "verify-attn", "--trials", "3")
        assert code == 1
        assert out == "max deviation 2.000e-08 over 3 trials\n"
        assert err == "error: verify: attention variants deviate by 2.000e-08\n"


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


    def test_error_above_bound_exit_1(self, capsys, monkeypatch):
        monkeypatch.setattr(cli, "grad_check", lambda *args, **kwargs: 2e-4)
        code, out, err = run(capsys, "gradcheck", "--layout", "B2-2H64")
        assert code == 1
        assert out == "max relative error 2.000e-04\n"
        assert err == "error: gradcheck: max relative error 2.000e-04 above 1e-4\n"


class TestFlagMinimums:
    @pytest.mark.parametrize("argv,flag,low", [
        (("gradcheck", "--layout", "B2-2H64", "--coords-per-param", "0"), "--coords-per-param", 1),
        (("gradcheck", "--layout", "B2-2H64", "--coords-per-param", "-2"), "--coords-per-param", 1),
        (("verify-attn", "--max-t", "1"), "--max-t", 2),
        (("verify-attn", "--max-d", "3"), "--max-d", 4),
        (("gradcheck", "--layout", "B2-2H64", "--seq-len", "4"), "--seq-len", 8),
        (("gradcheck", "--layout", "B2-2H64", "--seq-len", "1"), "--seq-len", 8),
        (("gradcheck", "--layout", "B2-2H64", "--vocab", "5"), "--vocab", 6),
    ])
    def test_below_minimum_refused(self, capsys, argv, flag, low):
        code, out, err = run(capsys, *argv)
        assert code == 2
        assert err.startswith(f"error: usage: {flag} must be >= {low}")
        assert out == ""

    def test_minimums_accepted(self, capsys):
        code, out, _ = run(capsys, "verify-attn", "--trials", "5", "--max-t", "2", "--max-d", "4")
        assert code == 0
        assert "over 5 trials" in out
        code, out, _ = run(capsys, "gradcheck", "--layout", "B2-2H64", "--seq-len", "8",
                           "--vocab", "6", "--coords-per-param", "1")
        assert code == 0
        assert float(out.split()[-1]) < 1e-4

    @pytest.mark.parametrize("command,value", [
        (command, value) for command in ("analyze", "compare", "gradcheck", "encode")
        for value in ("12", "1", "0", "-4") if command != "gradcheck" or int(value) >= 8])
    def test_seq_len_not_a_power_of_two_refused(self, train_setup, capsys, command, value):
        cfg, corpus, tmp = train_setup
        argv = {"analyze": ("--layout", "B2-2H64"),
                "compare": ("--layouts", "B2-2H64", "--baseline", "L4H64"),
                "gradcheck": ("--layout", "B2-2H64")}.get(command)
        if command == "encode":  # a working model and an empty input: no line to fault
            run(capsys, "train-toy", "--config", str(cfg), "--corpus", str(corpus),
                "--out", str(tmp / "run"))
            (tmp / "empty.txt").write_text("")
            argv = ("--config", str(tmp / "run" / "config.json"),
                    "--checkpoint", str(tmp / "run" / "model.ftnt"),
                    "--input", str(tmp / "empty.txt"))
        code, out, err = run(capsys, command, *argv, "--seq-len", value)
        assert code == 2
        assert err == f"error: usage: --seq-len must be a power of two >= 2, got {value}\n"
        assert out == ""

    def test_bounds_belong_to_their_command(self, capsys):
        code, out, _ = run(capsys, "analyze", "--layout", "B2-2H64", "--seq-len", "4")
        assert code == 0  # gradcheck's --seq-len bound does not reach analyze
        assert "seq_len             4" in out


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

    def test_divergence_exit_1(self, train_setup, capsys):
        cfg, corpus, tmp = train_setup
        d = json.loads(cfg.read_text())
        d["train"].update(lr=1e18, warmup_steps=0, steps=50)
        cfg.write_text(json.dumps(d))
        code, out, err = run(capsys, "train-toy", "--config", str(cfg), "--corpus", str(corpus),
                             "--out", str(tmp / "run"))
        assert code == 1
        assert err.startswith("error: diverged: loss is not finite at step ")
        assert len(err.splitlines()) == 1 and out == ""
        assert not (tmp / "run").exists()

    def test_missing_corpus_exit_2(self, train_setup, capsys):
        cfg, _, tmp = train_setup
        code, _, err = run(capsys, "train-toy", "--config", str(cfg),
                           "--corpus", str(tmp / "nope.txt"), "--out", str(tmp / "o"))
        assert code == 2
        assert "error: input:" in err

    @pytest.mark.parametrize("flag,bad", [("--config", "."), ("--corpus", "."),
                                          ("--config", "none.json"), ("--out", "corpus.txt/o")])
    def test_file_system_error_exit_2(self, train_setup, capsys, flag, bad):
        # a directory where a file belongs, a missing file, or an --out below a plain file
        cfg, corpus, tmp = train_setup
        paths = {"--config": str(cfg), "--corpus": str(corpus), "--out": str(tmp / "o")}
        paths[flag] = str(tmp / bad)
        code, out, err = run(capsys, "train-toy", "--steps", "1",
                             *(x for kv in paths.items() for x in kv))
        assert code == 2
        assert err.startswith("error: input: ") and err.count("\n") == 1

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
        '{"layout": "B2-2H64D2", "vocab_size": 20, "train": {"batch_size": 2.5}}',
        '{"layout": "B2-2H64D2", "vocab_size": 20, "train": {"batch_size": true}}',
        '{"layout": "B2-2H64D2", "vocab_size": 20, "train": {"warmup_steps": 2.5}}',
        '{"layout": "B2-2H64D2", "vocab_size": 20, "train": {"steps": "2"}}',
        '{"layout": "B2-2H64D2", "vocab_size": 20, "train": {"lr": -1}}',
        '{"layout": "B2-2H64D2", "vocab_size": 20, "train": {"mask_rate": 1.5}}',
    ], ids=["array", "bad_json", "dropout", "attn_dropout", "train_not_object", "layout_number",
            "bool_as_string", "seed_string", "vocab_size_float", "batch_size_float",
            "batch_size_bool", "warmup_steps_float", "steps_string", "lr_negative",
            "mask_rate_above_one"])
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


def dump_by_numpy_scalars(cfg, ckpt, corpus, dump):
    """``encode --dump cls|tokens --seq-len 16`` stdout, each value written as
    ``round(float(x), 6)`` of a numpy scalar of the output rows."""
    from funnel.cli import load_encoder
    from funnel.corpus import encode_line, load_corpus

    model, vocab = load_encoder(cfg, ckpt)
    out = []
    for line in load_corpus(corpus):
        enc = encode_line(line, vocab, 16)
        state = model.encode(enc.token_ids, enc.pad_mask)
        if dump == "cls":
            record = {"line": line, "cls": [round(float(x), 6) for x in state.h_last.data[0]]}
        else:
            hidden = model.decode(state).hidden.data
            record = {"line": line, "tokens": len(hidden),
                      "vectors": [[round(float(x), 6) for x in row] for row in hidden]}
        out.append(json.dumps(record) + "\n")
    return "".join(out)


# one element of each tensor made non-finite: NaN before the first softmax, or NaN in the
# decoder's last layer and inf in the encoder's
NON_FINITE = {"nan_attention": {"enc/b0/l0/attn/w_q": np.nan},
              "nan_decoder_inf_encoder": {"dec/l1/ffn/w2": np.nan, "enc/b1/l1/ffn/w2": np.inf}}


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
        assert out == dump_by_numpy_scalars(trained_cfg, ckpt, corpus, "cls")

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
        assert out == dump_by_numpy_scalars(trained_cfg, ckpt, corpus, "tokens")

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

    def test_vocab_size_mismatch_exit_2(self, train_setup, capsys):
        cfg, corpus, tmp = train_setup
        run(capsys, "train-toy", "--config", str(cfg), "--corpus", str(corpus),
            "--out", str(tmp / "run"))
        vocab = tmp / "run" / "vocab.txt"
        size = len(vocab.read_text().splitlines())
        vocab.write_text(vocab.read_text() + "extra\n")
        code, out, err = run(capsys, "encode", "--config", str(tmp / "run" / "config.json"),
                             "--checkpoint", str(tmp / "run" / "model.ftnt"),
                             "--input", str(corpus))
        assert code == 2
        assert err == (f"error: vocab: vocabulary size {size + 1} does not match config "
                       f"{size}\n")
        assert out == ""

    def test_blank_vocab_line_exit_2(self, train_setup, capsys):
        cfg, corpus, tmp = train_setup
        run(capsys, "train-toy", "--config", str(cfg), "--corpus", str(corpus),
            "--out", str(tmp / "run"))
        vocab = tmp / "run" / "vocab.txt"
        vocab.write_text(vocab.read_text().replace("[MASK]\n", "[MASK]\n\n"))
        code, out, err = run(capsys, "encode", "--config", str(tmp / "run" / "config.json"),
                             "--checkpoint", str(tmp / "run" / "model.ftnt"),
                             "--input", str(corpus))
        assert code == 2
        assert err.startswith("error: vocab: ") and "line 6 is blank" in err
        assert out == ""

    def test_missing_checkpoint_exit_2(self, train_setup, capsys):
        cfg, corpus, tmp = train_setup
        code, _, err = run(capsys, "encode", "--config", str(cfg),
                           "--checkpoint", str(tmp / "none.ftnt"),
                           "--input", str(corpus))
        assert code == 2
        assert "error: checkpoint:" in err

    def test_rank_above_four_checkpoint_exit_2(self, train_setup, capsys):
        _, corpus, tmp = train_setup
        (tmp / "cfg_enc.json").write_text(json.dumps({"layout": "B2-2H64D2", "vocab_size": 20}))
        rank5 = (b"FTNT" + struct.pack("<III", 2, 1, 1) + b"x"
                 + struct.pack("<BB5Q", 1, 5, *(1,) * 5))
        (tmp / "rank5.ftnt").write_bytes(rank5 + bytes(-len(rank5) % 64) + bytes(8))
        code, out, err = run(capsys, "encode", "--config", str(tmp / "cfg_enc.json"),
                             "--checkpoint", str(tmp / "rank5.ftnt"), "--input", str(corpus))
        assert code == 2
        assert err.startswith("error: checkpoint:") and "rank 5" in err
        assert out == ""

    def test_version_1_checkpoint_exit_2(self, train_setup, capsys):
        _, corpus, tmp = train_setup
        (tmp / "cfg_enc.json").write_text(json.dumps({"layout": "B2-2H64D2", "vocab_size": 20}))
        # a well-formed version 1 archive: one f64 [1] entry, no padding
        v1 = b"FTNT" + struct.pack("<III", 1, 1, 1) + b"x" + struct.pack("<BBQ", 1, 1, 1)
        (tmp / "v1.ftnt").write_bytes(v1 + bytes(8))
        code, out, err = run(capsys, "encode", "--config", str(tmp / "cfg_enc.json"),
                             "--checkpoint", str(tmp / "v1.ftnt"), "--input", str(corpus))
        assert code == 2
        assert err.startswith("error: checkpoint:") and "unsupported version 1" in err
        assert out == ""

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
        from funnel.cli import load_encoder
        cfg, corpus, tmp = train_setup
        run(capsys, "train-toy", "--config", str(cfg), "--corpus", str(corpus),
            "--out", str(tmp / "run"))

        def refuse(*args, **kwargs):
            raise AssertionError("encode drew an initial parameter")

        monkeypatch.setattr(Rng, "truncated_normal", refuse)
        load_encoder(tmp / "run" / "config.json", tmp / "run" / "model.ftnt")
        code, out, _ = run(capsys, "encode", "--config", str(tmp / "run" / "config.json"),
                           "--checkpoint", str(tmp / "run" / "model.ftnt"),
                           "--input", str(corpus), "--dump", "tokens", "--seq-len", "16")
        assert code == 0
        assert len(out.splitlines()) == 16

    @pytest.mark.parametrize("poison,dump,code", [
        ("nan_attention", "shapes", 2), ("nan_attention", "cls", 2),
        ("nan_attention", "tokens", 2),
        ("nan_decoder_inf_encoder", "shapes", 0),  # shapes hold no value to poison
        ("nan_decoder_inf_encoder", "cls", 2), ("nan_decoder_inf_encoder", "tokens", 2),
    ])
    def test_non_finite_checkpoint_exit_2(self, train_setup, capsys, poison, dump, code):
        from funnel.checkpoint import load, save
        cfg, corpus, tmp = train_setup
        run(capsys, "train-toy", "--config", str(cfg), "--corpus", str(corpus),
            "--out", str(tmp / "run"))
        params = load(tmp / "run" / "model.ftnt")
        for name, value in NON_FINITE[poison].items():
            params[name].data.flat[0] = value
        save(params, tmp / "run" / "poisoned.ftnt")

        def refuse(constant):
            raise AssertionError(f"stdout holds {constant}")

        with warnings.catch_warnings(record=True) as caught:  # a process would print them
            warnings.simplefilter("always")
            got, out, err = run(capsys, "encode", "--config", str(tmp / "run" / "config.json"),
                                "--checkpoint", str(tmp / "run" / "poisoned.ftnt"),
                                "--input", str(corpus), "--dump", dump, "--seq-len", "16")
        assert [str(w.message) for w in caught] == []
        assert got == code
        for line in out.splitlines():
            json.loads(line, parse_constant=refuse)
        if code:  # every line meets the poisoned values, so the first one fails
            assert err.startswith(f"error: input: {corpus} line 1: ")
            assert len(err.splitlines()) == 1
            assert out == ""
        else:
            assert len(out.splitlines()) == 16


# the faults funnel encode checks for, in the order it checks them: the error names the
# first one present.  Each entry is (fault, category, a fragment of the detail).  Breaking
# a file both ways at once is not possible.
ENCODE_FAULTS = [("missing_config", "config", "does not exist"),
                 ("missing_checkpoint", "checkpoint", "does not exist"),
                 ("missing_input", "input", "does not exist"),
                 ("bad_config", "config", "vocab_size"),
                 ("bad_checkpoint", "checkpoint", "bad magic"),
                 ("vocab", "vocab", "does not exist")]
SAME_FILE = {("missing_config", "bad_config"), ("missing_checkpoint", "bad_checkpoint")}


@pytest.mark.parametrize("faults", [
    c for n in (1, 2) for c in itertools.combinations(ENCODE_FAULTS, n)
    if tuple(f[0] for f in c) not in SAME_FILE
], ids=lambda c: "+".join(f[0] for f in c))
def test_encode_reports_the_first_fault(train_setup, capsys, faults):
    cfg, corpus, tmp = train_setup
    run(capsys, "train-toy", "--config", str(cfg), "--corpus", str(corpus),
        "--out", str(tmp / "run"))
    paths = {"--config": tmp / "run" / "config.json",
             "--checkpoint": tmp / "run" / "model.ftnt", "--input": corpus}
    for fault, _, _ in faults:
        if fault.startswith("missing_"):
            flag = "--" + fault.removeprefix("missing_")
            paths[flag] = tmp / f"absent{paths[flag].suffix}"
        elif fault == "bad_config":
            paths["--config"].write_text(json.dumps({"layout": "B2-2H64D2"}))
        elif fault == "bad_checkpoint":
            paths["--checkpoint"].write_bytes(b"JUNK" + bytes(60))
        else:
            (tmp / "run" / "vocab.txt").unlink()
    code, out, err = run(capsys, "encode", *(a for k, v in paths.items() for a in (k, str(v))))
    _, category, detail = faults[0]
    assert code == 2
    assert err.startswith(f"error: {category}: ") and detail in err
    assert out == ""


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
