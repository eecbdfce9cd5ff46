"""The benchmark tracer's contract with the package, checked in a few seconds.

``benchmark/tracer.py`` wraps functions by the name each caller looks
them up under, and a traced benchmark run fails when a span it expects
records no calls.  This test installs the tracer, runs two training steps
of each training workload's configuration and one encode + decode, and
checks that every expected span was reached and that ``uninstall`` puts
every binding back.  A second test runs both training workloads for a
few steps and checks what the benchmark's op timing rests on.  The
benchmark modules are imported, never changed.
"""

import sys
from collections import defaultdict
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parents[1] / "benchmark"
sys.path.insert(0, str(BENCH))
import tracer as bench_tracer  # noqa: E402
import workloads  # noqa: E402

from funnel import autodiff, corpus, training  # noqa: E402
from funnel.model import FunnelModel, ModelConfig  # noqa: E402

# recorded by the benchmark's own step clock around AdamW.step, not by a wrapper
LOOP_SPANS = {"training.forward", "training.optimizer"}


def bindings():
    out = {(id(owner), attr): owner.__dict__[attr] for owner, attr, _, _ in bench_tracer.PATCHES}
    out.update({("terms", k): v for k, v in bench_tracer.POSITION_TERMS.items()})
    return out


def test_every_expected_span_is_reached_and_uninstall_restores_bindings():
    before = bindings()
    tr = bench_tracer.Tracer()
    tr.install()
    try:
        assert all(bindings()[key] is not fn for key, fn in before.items())
        for name, lines in (("mlm_toy", workloads.mlm_corpus(0)),
                            ("electra_span", workloads.electra_corpus(0))):
            config, settings = workloads.training_setup(name)
            settings.steps = 2
            training.train_toy(config, lines, settings)
        # full length 128 reaches the t128 and t64 layer spans
        model = FunnelModel(ModelConfig(layout="B2-2H64D2", vocab_size=30, seed=0))
        vocab = corpus.build_vocab(["a b c d e f"], 30)
        enc = corpus.encode_line("a b c d e f g", vocab, workloads.ENCODE_LEN)
        hidden = model.decode(model.encode(enc.token_ids, enc.pad_mask), enc.pad_mask).hidden
        assert hidden.shape == (workloads.ENCODE_LEN, 64) and np.isfinite(hidden.data).all()
    finally:
        tr.uninstall()
    assert all(bindings()[key] is fn for key, fn in before.items())
    expected = set().union(*workloads.EXPECTED_SPANS.values())
    expected -= set(workloads.SETUP_SPANS) | LOOP_SPANS
    missing = sorted(s for s in expected if tr.calls.get(s, 0) == 0)
    assert not missing, f"traced spans with no calls: {missing}"


def test_step_clock_fires_once_per_step_and_tape_nodes_sum_both_tapes():
    """The benchmark times a training op between two calls of its clock, a wrapper on
    ``AdamW.step``, so that wrapper must fire once per training step.  Its per-op
    ``autodiff.tape_nodes`` is the tracer's node count summed over every ``Tape.backward``
    of an op: both tapes of an ELECTRA step."""
    real_backward, real_schedule = autodiff.Tape.backward, training.linear_schedule
    for name, tapes_per_step in (("mlm_toy", 1), ("electra_span", 2)):
        tr = bench_tracer.Tracer()
        walks, steps = [], []

        def backward(tape, root, sink=None):
            walks.append((tr.installed, tr.request, len(tape.nodes)))
            real_backward(tape, root, sink)

        def schedule(*args):  # train_toy asks for one learning rate per step
            steps.append(args[0])
            return real_schedule(*args)

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(autodiff.Tape, "backward", backward)
            mp.setattr(training, "linear_schedule", schedule)
            out = workloads.run_training(name, 0, 1, tr)
        assert not out.failed and steps == list(range(len(steps))) and len(steps) > 3
        assert out.attempted == len(steps) and len(out.op_s) == len(steps) - 1
        per_op = defaultdict(list)
        for installed, request, nodes in walks:
            if installed and request >= 1:  # request -1 is step 0, counted as set-up
                per_op[request].append(nodes)
        traced = [i for i in range(1, len(steps)) if workloads.traced_op(i)]
        assert sorted(per_op) == traced
        assert all(len(n) == tapes_per_step for n in per_op.values())
        assert tr.calls["autodiff.backward"] == tapes_per_step * len(traced)
        assert tr.counts["autodiff.tape_nodes"] == sum(map(sum, per_op.values()))
        assert workloads.per_layer(name, out, tr)["autodiff.tape_nodes"] == \
            sum(map(sum, per_op.values())) / len(traced)
