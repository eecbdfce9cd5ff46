"""The three benchmark workloads, their inputs, output checks and metrics.

Each workload runs in this process as a closed loop with one client: the
next op starts when the previous one ends.  An op is one training step
(``mlm_toy``, ``electra_span``) or one encode request (``encode_long``).
Inputs are generated from the workload seed with numpy's own generator,
so the program under test receives only text.

The timed op count is fixed by ``--seconds`` at a nominal rate
(``OPS_PER_S``), not by the clock: the same seed and seconds always run
the same ops, so ``final_loss`` repeats exactly and every run has at
least 100 timed ops at the benchmark's own run length.  The rates are the
reference machine's (2 cores, OpenBLAS, one BLAS thread), so a run lasts
about ``--seconds``.

A traced run leaves every third op untraced (``traced_op``), so its
tokens/s with and without tracing come from the same mix of inputs.
"""

from __future__ import annotations

import math
import statistics
import sys
import time
import traceback
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from funnel import checkpoint, corpus, costmodel, training
from funnel import model as fmodel
from funnel.model import FunnelModel, ModelConfig
from funnel.training import AdamW, OptimizerConfig, TrainSettings

from tracer import Tracer

OPS_PER_S = {"mlm_toy": 10, "encode_long": 3.5, "electra_span": 4}
SETUP_REPEATS = {"mlm_toy": 25, "encode_long": 5, "electra_span": 25}
ENCODE_LEN = 128
ENCODE_VOCAB = 1000
EQUIVALENCE_REQUESTS = 3
EQUIVALENCE_TOL = 1e-10
WALL_RATIO_LINES = 6


@dataclass
class Outcome:
    """Raw measurements of one run, before they become metrics."""

    setup_s: list[float] = field(default_factory=list)
    op_s: list[float] = field(default_factory=list)       # one per timed op
    op_tokens: list[int] = field(default_factory=list)    # real input tokens per timed op
    op_traced: list[bool] = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    first_loss: float | None = None
    final_loss: float | None = None
    extra: dict = field(default_factory=dict)


def traced_op(i: int) -> bool:
    return i % 3 != 0


def _lengths(rng: np.random.Generator, n: int, lo: int, hi: int) -> np.ndarray:
    """A fixed multiset of lengths spread over [lo, hi], in seeded order.

    Every seed sees the same lengths, so the real-token total (and hence
    tokens/s) differs between seeds only by timing, not by input size.
    The order is shuffled in groups of three neighbouring lengths, so the
    untraced third of a traced run sees the same length mix as the rest.
    """
    ladder = np.linspace(lo, hi, n).round().astype(int)
    groups = [rng.permutation(ladder[k:k + 3]) for k in range(0, n, 3)]
    return np.concatenate([groups[k] for k in rng.permutation(len(groups))])


def _zipf_words(rng: np.random.Generator, types: int, count: int) -> list[str]:
    weights = 1.0 / np.arange(1, types + 1)
    ids = rng.choice(types, size=count, p=weights / weights.sum())
    return [f"w{i}" for i in ids]


def mlm_corpus(seed: int) -> list[str]:
    """8 lines of 8 words from a 15-word vocabulary, repeated 25 times."""
    rng = np.random.default_rng(seed)
    sentences = [" ".join(f"w{i}" for i in rng.integers(0, 15, 8)) for _ in range(8)]
    return sentences * 25


def electra_corpus(seed: int) -> list[str]:
    """16 lines of 10..30 words from 40 word types, repeated 8 times."""
    rng = np.random.default_rng(seed)
    lines = [" ".join(_zipf_words(rng, 40, n)) for n in _lengths(rng, 16, 10, 30)]
    return lines * 8


def encode_texts(seed: int, requests: int) -> tuple[list[str], list[str]]:
    """(vocabulary text, request lines) for ``encode_long``.

    The vocabulary text names all 1200 word types, so the top 995 fill a
    1000-entry vocabulary; requests draw from the same types, so some of
    their words are unknown.  Request lengths run from 4 to 126 words, so
    the padded share of the 128 slots varies from request to request.
    """
    rng = np.random.default_rng(seed)
    vocab_text = [" ".join(_zipf_words(rng, 1200, 64)) for _ in range(300)]
    vocab_text += [" ".join(f"w{i}" for i in range(lo, lo + 100)) for lo in range(0, 1200, 100)]
    lines = [" ".join(_zipf_words(rng, 1200, n)) for n in _lengths(rng, requests, 4, 126)]
    return vocab_text, lines


def _fail(outcome: Outcome, what: str) -> None:
    outcome.failed += 1
    print(f"benchmark: failed op: {what}", file=sys.stderr)


# -- training workloads -----------------------------------------------------


def training_setup(name: str) -> tuple[ModelConfig, TrainSettings]:
    if name == "mlm_toy":
        config = ModelConfig(layout="B2-2H64D2", vocab_size=20, pool_op="mean",
                             attn_variant="factorized", dtype="f64", seed=0)
        settings = TrainSettings(batch_size=8, seq_len=16, objective="mlm",
                                 mask_sampler="single")
    else:
        config = ModelConfig(layout="B2-2H128D2", vocab_size=64, pool_op="max",
                             attn_variant="gather", dtype="f64", seed=0)
        settings = TrainSettings(batch_size=4, seq_len=32, objective="electra",
                                 mask_sampler="span")
    return config, settings


def run_training(name: str, seed: int, seconds: int, tracer: Tracer | None) -> Outcome:
    """``train_toy`` end to end; one op is one step.

    Step times come from one clock read at each ``AdamW.step`` call, the
    only hook in an untraced run.  Op ``i`` is the interval between calls
    ``i-1`` and ``i``: the optimizer update of step ``i-1``, then batching,
    forward and backward of step ``i``.  Step 0 also holds set-up, so it
    is not timed; set-up is timed on its own by ``train_toy`` with zero
    steps, which runs exactly the loop's prologue.
    """
    lines = mlm_corpus(seed) if name == "mlm_toy" else electra_corpus(seed)
    config, settings = training_setup(name)
    steps = round(OPS_PER_S[name] * seconds) + 1  # step 0 is not timed
    settings.steps = steps
    settings.optimizer = OptimizerConfig(lr=1e-3, warmup_steps=min(20, steps // 10))
    out = Outcome()

    for _ in range(SETUP_REPEATS[name]):
        t0 = time.perf_counter()
        training.train_toy(replace(config), lines, replace(settings, steps=0))
        out.setup_s.append(time.perf_counter() - t0)

    real = [min(len(corpus.tokenize(s)), settings.seq_len - 2) + 2 for s in lines]
    b = settings.batch_size
    step_tokens = [sum(real[(i * b + r) % len(real)] for r in range(b)) for i in range(steps)]

    stamps: list[float] = []
    opt_end = [0.0]
    original = AdamW.step

    def clocked_step(opt, tape, lr):
        t0 = time.perf_counter()
        stamps.append(t0)
        j = len(stamps) - 1  # this call ends step j's forward and backward
        if tracer is not None:
            if j == 0:
                tracer.reset_ops()  # the prologue and step 0 were set-up
            elif tracer.installed:
                tracer.record("training.forward", opt_end[0], tracer.backward_start)
            tracer.toggle(j + 1 < steps and traced_op(j + 1))
            tracer.request = j + 1
        original(opt, tape, lr)
        if tracer is not None and tracer.installed:
            opt_end[0] = time.perf_counter()
            tracer.record("training.optimizer", t0, opt_end[0])

    if tracer is not None:
        tracer.install()
    AdamW.step = clocked_step
    trace = []
    try:
        trace = training.train_toy(replace(config), lines, settings)
    except Exception:  # noqa: BLE001 -- a failed step is counted, not fatal
        traceback.print_exc()
        _fail(out, f"{name} step {len(stamps)} raised")
    finally:
        AdamW.step = original
        if tracer is not None and tracer.installed:
            tracer.uninstall()

    out.attempted = len(stamps) + out.failed
    for i in range(1, len(stamps)):
        out.op_s.append(stamps[i] - stamps[i - 1])
        out.op_tokens.append(step_tokens[i])
        out.op_traced.append(tracer is not None and traced_op(i))
    if trace:
        losses = [row.loss for row in trace]
        out.first_loss, out.final_loss = losses[0], losses[-1]
        for row in trace:
            if not math.isfinite(row.loss):
                _fail(out, f"{name} step {row.step} loss {row.loss}")
        if not losses[-1] < losses[0]:
            _fail(out, f"{name} final loss {losses[-1]} not below first {losses[0]}")
    return out


# -- encode workload ----------------------------------------------------------


def encode_config() -> ModelConfig:
    return ModelConfig(layout="B4-4-4H256D2", vocab_size=ENCODE_VOCAB, pool_op="mean",
                       attn_variant="factorized", dtype="f64", seed=0)


def load_like_cli(work: Path):
    """The set-up calls ``funnel encode`` makes, in its order."""
    config = ModelConfig.from_json((work / "config.json").read_text())
    template = fmodel.build_params(config)
    params = checkpoint.load(work / "model.ftnt", expected=template)
    model = FunnelModel(config, params)
    vocab = corpus.Vocab.load(work / "vocab.txt")
    if len(vocab) != config.vocab_size:
        raise ValueError(f"vocabulary size {len(vocab)} does not match config "
                         f"{config.vocab_size}")
    return model, vocab


def _encode_request(model: FunnelModel, vocab, line: str):
    enc = corpus.encode_line(line, vocab, ENCODE_LEN)
    state = model.encode(enc.token_ids, enc.pad_mask)
    return enc, model.decode(state, enc.pad_mask).hidden.data


def run_encode(seed: int, seconds: int, tracer: Tracer | None, work: Path) -> Outcome:
    """The ``funnel encode`` path; one op is one request (one line).

    Set-up writes a freshly built checkpoint, vocabulary and config into
    ``work`` untimed, then times the CLI's loading sequence several times.
    """
    requests = round(OPS_PER_S["encode_long"] * seconds)
    vocab_text, lines = encode_texts(seed, requests)
    out = Outcome()
    if tracer is not None:
        tracer.install()

    config = encode_config()
    vocab = corpus.build_vocab(vocab_text, config.vocab_size)
    if len(vocab) != config.vocab_size:
        raise RuntimeError(f"generated vocabulary has {len(vocab)} entries")
    work.mkdir(parents=True, exist_ok=True)
    vocab.save(work / "vocab.txt")
    (work / "config.json").write_text(config.to_json())
    checkpoint.save(fmodel.build_params(config), work / "model.ftnt")
    out.extra["checkpoint_mb"] = (work / "model.ftnt").stat().st_size / 1e6

    model = None
    for _ in range(SETUP_REPEATS["encode_long"]):
        model = vocab = None  # let the previous copy go before loading the next
        t0 = time.perf_counter()
        model, vocab = load_like_cli(work)
        out.setup_s.append(time.perf_counter() - t0)
    if tracer is not None:
        tracer.uninstall()

    _encode_request(model, vocab, lines[0])  # warm-up, untimed
    if tracer is not None:
        tracer.reset_ops()
    check_rng = np.random.default_rng(seed + 1)
    checked = {int(i): None for i in check_rng.choice(requests, EQUIVALENCE_REQUESTS,
                                                      replace=False)}
    d = config.hidden
    for i, line in enumerate(lines):
        if tracer is not None:
            tracer.toggle(traced_op(i))
            tracer.request = i
        out.attempted += 1
        t0 = time.perf_counter()
        try:
            enc, hidden = _encode_request(model, vocab, line)
        except Exception:  # noqa: BLE001 -- a failed request is counted, not fatal
            traceback.print_exc()
            _fail(out, f"request {i} raised")
            continue
        out.op_s.append(time.perf_counter() - t0)
        out.op_tokens.append(int(enc.pad_mask.sum()))
        out.op_traced.append(tracer is not None and traced_op(i))
        if hidden.shape != (ENCODE_LEN, d) or not np.isfinite(hidden).all():
            _fail(out, f"request {i} output shape {hidden.shape} or non-finite values")
        elif i in checked:
            checked[i] = hidden
    if tracer is not None:
        tracer.toggle(False)

    gather = FunnelModel(replace(model.config, attn_variant="gather"), model.params)
    for i, hidden in checked.items():
        if hidden is None:
            continue
        dev = float(np.abs(_encode_request(gather, vocab, lines[i])[1] - hidden).max())
        if not dev <= EQUIVALENCE_TOL:
            _fail(out, f"request {i}: factorized and gather outputs differ by {dev:.3e}")

    if tracer is not None:
        out.extra.update(wall_ratio(model, vocab, lines[:WALL_RATIO_LINES]))
    return out


def wall_ratio(funnel: FunnelModel, vocab, lines: list[str]) -> dict:
    """Forward wall time of the funnel over ``L12H256`` on the same lines.

    Both run ``token_hidden`` (encoder plus decoder for the funnel), taking
    turns line by line; the ratio of medians sits beside the cost model's
    pretrain-mode ratio.
    """
    base = FunnelModel(replace(funnel.config, layout="L12H256"))
    times = {"funnel": [], "base": []}
    for line in lines:
        enc = corpus.encode_line(line, vocab, ENCODE_LEN)
        for key, m in (("funnel", funnel), ("base", base)):
            t0 = time.perf_counter()
            m.token_hidden(enc.token_ids, enc.pad_mask)
            times[key].append(time.perf_counter() - t0)
    layout = funnel.config.layout
    return {
        "wall_ratio": statistics.median(times["funnel"]) / statistics.median(times["base"]),
        "flops_ratio": float(costmodel.flops_ratio(layout, base.config.layout, mode="pretrain")),
        "forward_macs": costmodel.flops_exact(layout, ENCODE_LEN, mode="pretrain",
                                              variant=funnel.config.attn_variant) / 2,
    }


# -- metrics ------------------------------------------------------------------

END_TO_END_UNITS = {
    "setup_s": "s",
    "op_ms_p50": "ms",
    "op_ms_p90": "ms",
    "tokens_per_s": "tokens/s",
    "peak_rss_mb": "MB",
}

OP_SPANS = [
    "autodiff.matmul", "autodiff.gelu", "autodiff.softmax", "autodiff.layer_norm",
    "autodiff.backward",
    "relattn.attention", "relattn.position", "relattn.pffn", "relattn.encoding",
    "encoder.forward", "encoder.pool", "encoder.transition",
    "encoder.layer.t8", "encoder.layer.t16", "encoder.layer.t32", "encoder.layer.t64",
    "encoder.layer.t128",
    "decoder.forward", "decoder.upsample", "decoder.layer",
    "model.encode", "model.decode", "model.token_hidden",
    "objectives.mask", "objectives.loss", "objectives.electra_sample",
    "training.forward", "training.optimizer",
    "corpus.encode", "corpus.batch",
]
SETUP_SPANS = ["model.build_params", "checkpoint.load", "checkpoint.save"]


def _stem(span: str, suffix: str) -> str:
    """``encoder.layer.t128`` -> ``encoder.layer_ms.t128``; others get the suffix."""
    if span.startswith("encoder.layer."):
        return f"encoder.layer_{suffix}.{span.rsplit('.', 1)[1]}"
    return f"{span}_{suffix}"


def per_layer_units() -> dict[str, str]:
    units = {}
    for span in OP_SPANS:
        units[_stem(span, "ms")] = "ms/op"
        units[_stem(span, "calls")] = "calls/op"
    for span in SETUP_SPANS:
        units[_stem(span, "ms")] = "ms/call"
        units[_stem(span, "calls")] = "calls"
    units.update({
        "autodiff.tape_nodes": "nodes/op",
        "autodiff.matmul_gmacs": "GMAC/op",
        "relattn.encoding_builds": "builds/op",
        "objectives.masked_tokens": "tokens/op",
        "objectives.replaced_ratio": "ratio",
        "training.used_sequences_ratio": "ratio",
        "corpus.real_token_ratio": "ratio",
        "checkpoint.mb": "MB",
        "costmodel.macs_ratio": "ratio",
        "costmodel.flops_ratio": "ratio",
        "encoder.wall_ratio": "ratio",
        "trace.tokens_per_s": "tokens/s",
        "trace.untraced_tokens_per_s": "tokens/s",
    })
    return units


# Spans each workload must reach; a zero count means a wrapper lost its target.
_FORWARD = {"autodiff.matmul", "autodiff.gelu", "autodiff.softmax", "autodiff.layer_norm",
            "relattn.attention", "relattn.position", "relattn.pffn", "relattn.encoding",
            "encoder.forward", "encoder.pool", "encoder.transition",
            "decoder.forward", "decoder.upsample", "decoder.layer",
            "model.encode", "model.decode", "model.build_params"}
_TRAIN = _FORWARD | {"autodiff.backward", "model.token_hidden", "objectives.mask",
                     "objectives.loss", "training.forward", "training.optimizer",
                     "corpus.batch"}
EXPECTED_SPANS = {
    "mlm_toy": _TRAIN | {"encoder.layer.t16", "encoder.layer.t8"},
    "electra_span": _TRAIN | {"encoder.layer.t32", "encoder.layer.t16",
                              "objectives.electra_sample"},
    "encode_long": _FORWARD | {"encoder.layer.t128", "encoder.layer.t64", "encoder.layer.t32",
                               "corpus.encode", "checkpoint.load", "checkpoint.save"},
}


def _tokens_per_s(out: Outcome, traced: bool) -> float:
    pairs = [(s, n) for s, n, t in zip(out.op_s, out.op_tokens, out.op_traced) if t == traced]
    return sum(n for _, n in pairs) / sum(s for s, _ in pairs) if pairs else 0.0


def end_to_end(out: Outcome, peak_rss_mb: float) -> dict[str, float]:
    ms = [s * 1e3 for s in out.op_s]
    return {
        "setup_s": statistics.median(out.setup_s),
        "op_ms_p50": statistics.median(ms),
        "op_ms_p90": float(np.percentile(ms, 90)),
        "tokens_per_s": _tokens_per_s(out, False),
        "peak_rss_mb": peak_rss_mb,
    }


def per_layer(workload: str, out: Outcome, tracer: Tracer) -> dict[str, float]:
    """Self time and calls per traced op, set-up spans per call, plus ratios.

    Raises if a span the workload must reach recorded no calls.
    """
    missing = sorted(s for s in EXPECTED_SPANS[workload]
                     if tracer.calls.get(s, 0) + tracer.setup_calls.get(s, 0) == 0)
    if missing:
        raise RuntimeError(f"traced run of {workload}: no calls recorded for {missing}; "
                           "a traced function was renamed or is no longer looked up "
                           "where it is wrapped")
    ops = sum(out.op_traced)
    c = tracer.counts
    m = {}
    for span in OP_SPANS:
        m[_stem(span, "ms")] = tracer.self_s.get(span, 0.0) * 1e3 / ops
        m[_stem(span, "calls")] = tracer.calls.get(span, 0) / ops
    for span in SETUP_SPANS:
        calls = tracer.setup_calls.get(span, 0)
        m[_stem(span, "ms")] = tracer.setup_self_s.get(span, 0.0) * 1e3 / calls if calls else 0.0
        m[_stem(span, "calls")] = calls
    macs = c["autodiff.matmul_macs"] / ops
    m.update({
        "autodiff.tape_nodes": c["autodiff.tape_nodes"] / ops,
        "autodiff.matmul_gmacs": macs / 1e9,
        "relattn.encoding_builds": c["relattn.encoding_builds"] / ops,
        "objectives.masked_tokens": c["objectives.masked_tokens"] / ops,
        "objectives.replaced_ratio": _ratio(c["objectives.replaced"], c["objectives.replace_slots"]),
        "training.used_sequences_ratio": _ratio(c["training.used"], c["training.sequences"]),
        "corpus.real_token_ratio": _ratio(c["corpus.real_tokens"], c["corpus.slots"]),
        "checkpoint.mb": out.extra.get("checkpoint_mb", 0.0),
        "costmodel.macs_ratio": _ratio(macs, out.extra.get("forward_macs", 0.0)),
        "costmodel.flops_ratio": out.extra.get("flops_ratio", 0.0),
        "encoder.wall_ratio": out.extra.get("wall_ratio", 0.0),
        "trace.tokens_per_s": _tokens_per_s(out, True),
        "trace.untraced_tokens_per_s": _tokens_per_s(out, False),
    })
    return m


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0
