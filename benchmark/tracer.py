"""Span tracer for the benchmark's traced runs.

Spans are recorded by wrapping module attributes from outside the
package: nothing under ``src/funnel`` knows it is being traced.  Each
function is wrapped where it is looked up, not where it is defined.
Modules import names directly (``from .autodiff import matmul``), so
``relattn.matmul`` and ``objectives.matmul`` are separate bindings of the
same function and each must be wrapped on its own.

Every span carries its name, parent span, request id (the op index; -1
during set-up) and start/end clock reads.  Spans stay in memory until
``write_spans`` at the end of the run.  A span's self time is its duration
minus the time covered by its child spans.
"""

from __future__ import annotations

import csv
import time
from collections import defaultdict

from funnel import (autodiff, checkpoint, corpus, decoder, encoder, model, objectives, relattn,
                    training)
from funnel.corpus import Batch
from funnel.relattn import RelPosEncoding


def _layer_len(args, kwargs):
    return f"encoder.layer.t{args[0].shape[0]}"


def _matmul_macs(tr, args, result):
    a, b = args[0].shape, args[1].shape
    tr.add("autodiff.matmul_macs", a[0] * a[1] * b[1])


def _tape_nodes(tr, args, result):
    tr.add("autodiff.tape_nodes", len(args[0].nodes))
    tr.backward_start = tr.last_start


def _mask_tokens(tr, args, result):
    tr.add("objectives.masked_tokens", len(result))


def _replaced(tr, args, result):
    plan = args[1]
    tr.add("objectives.replaced", float(result.labels[plan.positions].sum()))
    tr.add("objectives.replace_slots", len(plan))


def _line_tokens(tr, args, result):
    tr.add("corpus.real_tokens", int(result.pad_mask.sum()))
    tr.add("corpus.slots", result.pad_mask.size)


def _batch_tokens(tr, args, result):
    tr.add("corpus.real_tokens", int(result.pad_mask.sum()))
    tr.add("corpus.slots", result.pad_mask.size)
    tr.add("training.sequences", len(result))


def _sequence_used(tr, args, result):
    tr.add("training.used", 1)


def _encoding_built(tr, args, result):
    tr.add("relattn.encoding_builds", 1)


# (owner, attribute, span name or name function, post-call hook).  The
# owner is the namespace the caller looks the name up in.  A None name
# only counts: the hook runs but no span is recorded.
PATCHES = [
    (relattn, "matmul", "autodiff.matmul", _matmul_macs),
    (objectives, "matmul", "autodiff.matmul", _matmul_macs),
    (relattn, "gelu", "autodiff.gelu", None),
    (relattn, "softmax_lastdim", "autodiff.softmax", None),
    (relattn, "layer_norm", "autodiff.layer_norm", None),
    (autodiff.Tape, "backward", "autodiff.backward", _tape_nodes),
    (relattn, "attention", "relattn.attention", None),
    (encoder, "attention", "relattn.attention", None),
    (relattn, "pffn", "relattn.pffn", None),
    (encoder, "pffn", "relattn.pffn", None),
    (RelPosEncoding, "encode", "relattn.encoding", None),
    (RelPosEncoding, "phi", "relattn.encoding", None),
    (RelPosEncoding, "psi", "relattn.encoding", None),
    (RelPosEncoding, "pi", "relattn.encoding", None),
    (RelPosEncoding, "omega", "relattn.encoding", None),
    (RelPosEncoding, "__init__", None, _encoding_built),
    (model, "encoder_forward", "encoder.forward", None),
    (encoder, "pool_step", "encoder.pool", None),
    (encoder, "block_transition_attention", "encoder.transition", None),
    (encoder, "transformer_layer", _layer_len, None),
    (model, "decoder_forward", "decoder.forward", None),
    (decoder, "upsample", "decoder.upsample", None),
    (decoder, "transformer_layer", "decoder.layer", None),
    (model.FunnelModel, "encode", "model.encode", None),
    (model.FunnelModel, "decode", "model.decode", None),
    (model.FunnelModel, "token_hidden", "model.token_hidden", None),
    (model, "build_params", "model.build_params", None),
    (training, "sample_mask_single", "objectives.mask", _mask_tokens),
    (training, "sample_mask_span", "objectives.mask", _mask_tokens),
    (training, "mlm_loss", None, _sequence_used),
    (training, "electra_step", None, _sequence_used),
    (objectives, "cross_entropy_mean", "objectives.loss", None),
    (objectives, "bce_with_logits_mean", "objectives.loss", None),
    (objectives, "build_electra_batch", "objectives.electra_sample", _replaced),
    (corpus, "encode_line", "corpus.encode", _line_tokens),
    (Batch, "stack", "corpus.batch", _batch_tokens),
    (checkpoint, "load", "checkpoint.load", None),
    (checkpoint, "save", "checkpoint.save", None),
]
# relattn picks the position term out of this table at call time.
POSITION_TERMS = relattn._POSITION_TERMS


class Tracer:
    """Records spans while installed; ``uninstall`` restores every binding."""

    def __init__(self):
        self.spans: list = []
        self.stack: list[list] = []  # [span index, child time] per open span
        self.request = -1
        self.self_s: dict[str, float] = defaultdict(float)
        self.calls: dict[str, int] = defaultdict(int)
        self.counts: dict[str, float] = defaultdict(float)
        self.setup_self_s: dict[str, float] = {}
        self.setup_calls: dict[str, int] = {}
        self.last_start = 0.0
        self.backward_start = None
        self._saved: list = []

    @property
    def installed(self) -> bool:
        return bool(self._saved)

    def reset_ops(self) -> None:
        """Start the op phase: what was aggregated so far becomes set-up."""
        if not self.setup_calls:
            self.setup_self_s, self.setup_calls = dict(self.self_s), dict(self.calls)
        self.self_s.clear()
        self.calls.clear()
        self.counts.clear()

    def add(self, key: str, value) -> None:
        self.counts[key] += value

    def record(self, name: str, t0: float, t1: float) -> None:
        """A span timed by the caller (a phase with no function boundary).

        It is recorded after the spans inside its interval, so those keep
        their own parents; its time counts whole, children included.
        """
        parent = self.stack[-1][0] if self.stack else -1
        self.spans.append((name, parent, self.request, t0, t1))
        self.self_s[name] += t1 - t0
        self.calls[name] += 1
        if self.stack:
            self.stack[-1][1] += t1 - t0

    def _wrap(self, fn, name, hook):
        tracer = self

        if name is None:
            def counted(*args, **kwargs):
                result = fn(*args, **kwargs)
                hook(tracer, args, result)
                return result
            return counted

        def traced(*args, **kwargs):
            nm = name if isinstance(name, str) else name(args, kwargs)
            stack = tracer.stack
            parent = stack[-1][0] if stack else -1
            idx = len(tracer.spans)
            tracer.spans.append(None)
            frame = [idx, 0.0]
            stack.append(frame)
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = time.perf_counter()
                stack.pop()
                dur = t1 - t0
                tracer.self_s[nm] += dur - frame[1]
                tracer.calls[nm] += 1
                if stack:
                    stack[-1][1] += dur
                tracer.spans[idx] = (nm, parent, tracer.request, t0, t1)
            if hook is not None:
                tracer.last_start = t0  # lets a hook see when its call began
                hook(tracer, args, result)
            return result

        return traced

    def install(self) -> None:
        if self._saved:
            raise RuntimeError("tracer already installed")
        for owner, attr, name, hook in PATCHES:
            raw = owner.__dict__[attr]
            if isinstance(raw, classmethod):
                wrapped = classmethod(self._wrap(raw.__func__, name, hook))
            else:
                wrapped = self._wrap(raw, name, hook)
            self._saved.append((owner, attr, raw))
            setattr(owner, attr, wrapped)
        for variant, fn in list(POSITION_TERMS.items()):
            self._saved.append((POSITION_TERMS, variant, fn))
            POSITION_TERMS[variant] = self._wrap(fn, "relattn.position", None)

    def uninstall(self) -> None:
        for owner, attr, raw in reversed(self._saved):
            if owner is POSITION_TERMS:
                POSITION_TERMS[attr] = raw
            else:
                setattr(owner, attr, raw)
        self._saved = []

    def toggle(self, on: bool) -> None:
        if on and not self.installed:
            self.install()
        elif not on and self.installed:
            self.uninstall()

    def write_spans(self, path) -> None:
        """One CSV row per span: id, name, parent id, request id, start/end in s."""
        base = min((s[3] for s in self.spans if s is not None), default=0.0)
        with open(path, "w", newline="") as f:
            w = csv.writer(f)
            w.writerow(["id", "name", "parent", "request", "start_s", "end_s"])
            for i, (name, parent, request, t0, t1) in enumerate(self.spans):
                w.writerow([i, name, parent, request, f"{t0 - base:.7f}", f"{t1 - base:.7f}"])
