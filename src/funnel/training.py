"""Toy training: AdamW with linear warmup/decay, loss traces, checkpoints.

Deliberately single threaded and deterministic: batches cycle through the
encoded corpus in order and all sampling comes from one counter-based
stream, so the same seed reproduces a bit-identical loss trace.  Each
step runs the whole batch through the model as one time-major tensor.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .autodiff import DTYPES, ContractError, NumericError, Rng, Tape, Tensor
from .corpus import Batch, EncodedLine, Vocab, build_vocab, encode_line
from .layout import is_pow2
from .model import (INIT_STD, FunnelModel, ModelConfig, check_fields, generator_config,
                    param_specs)
from .objectives import electra_step, mlm_loss, sample_mask_single, sample_mask_span


class TrainingDiverged(ArithmeticError):
    """Loss became non-finite; carries the failing step index."""

    def __init__(self, step: int):
        self.step = step
        super().__init__(f"loss is not finite at step {step}")


@dataclass
class OptimizerConfig:
    lr: float = 1e-3
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-6
    weight_decay: float = 0.01
    warmup_steps: int = 20

    def __post_init__(self):
        check_fields(self, {"lr": "> 0", "beta1": "in [0,1)", "beta2": "in [0,1)", "eps": "> 0",
                            "weight_decay": ">= 0", "warmup_steps": ">= 0"})


@dataclass
class TrainSettings:
    """Knobs of the toy loop, loadable from the same JSON as the model config."""

    steps: int = 300
    batch_size: int = 8
    seq_len: int = 16
    objective: str = "mlm"       # "mlm" | "electra"
    mask_sampler: str = "single"  # "single" | "span"
    mask_rate: float = 0.15
    optimizer: OptimizerConfig = field(default_factory=OptimizerConfig)

    def __post_init__(self):
        check_fields(self, {"steps": ">= 0", "batch_size": ">= 1", "mask_rate": "in (0,1)",
                            "objective": ("mlm", "electra"), "mask_sampler": ("single", "span")})
        if self.seq_len < 2 or not is_pow2(self.seq_len):
            raise ValueError(f"seq_len must be a power of two >= 2, got {self.seq_len}")


class AdamW:
    """Adam with decoupled weight decay over ``(name, tensor, decays)`` triples.

    Parameters and both moments live in one [3, N] buffer of the
    parameters' shared dtype, decaying tensors first (``params`` is kept in
    that order).  Each tensor's ``.data`` becomes a view into the parameter
    row.  ``fold`` is a sink for ``Tape.backward``: it folds each gradient
    into ``m`` and ``v`` as soon as the walk has finished it, so no
    gradient outlives its fold.  ``step`` first folds what no sink received
    (from ``tape.grad``: zeros for a tensor no walk reached), then moves
    the parameters: they change only there, so no pull-back reads an
    updated weight.  Both run ``CHUNK`` elements at a time through two
    chunk-sized scratch rows, and every element sees the same operations
    in the same order as the textbook per-tensor formula.
    """

    CHUNK = 1 << 15

    def __init__(self, params: list[tuple[str, Tensor, bool]], cfg: OptimizerConfig):
        self.params = sorted(params, key=lambda p: not p[2])  # stable: decaying first
        dtypes = {t.data.dtype for _, t, _ in self.params}
        if len(dtypes) != 1:
            raise ValueError(f"parameters must share one dtype, got {sorted(map(str, dtypes))}")
        sizes = [t.data.size for _, t, _ in self.params]
        self.buffer = np.zeros((3, sum(sizes)), dtype=dtypes.pop())
        self.flat, self.m, self.v = self.buffer
        self.n_decay = sum(n for n, (_, _, decays) in zip(sizes, self.params) if decays)
        self._offsets = np.cumsum([0] + sizes[:-1]).tolist()
        self._index = {t.key: i for i, (_, t, _) in enumerate(self.params)}
        for (_, t, _), ofs in zip(self.params, self._offsets):
            view = self.flat[ofs:ofs + t.data.size].reshape(t.shape)
            view[...] = t.data
            t.data = view
        self._folded: set[int] = set()  # the keys of the tensors folded this step
        self._scratch = np.empty((2, min(self.CHUNK, self.flat.size)), dtype=self.flat.dtype)
        self.cfg = cfg
        # arrays of the buffer's dtype round as Python scalars do against its rows
        self._betas = np.array([[cfg.beta1], [cfg.beta2]], self.flat.dtype)
        self._rates = np.array([[1.0 - cfg.beta1], [1.0 - cfg.beta2]], self.flat.dtype)
        self.t = 0

    def step(self, tape: Tape, lr: float) -> None:
        """Fold what no sink received from ``tape``, then move the parameters."""
        self.t += 1
        for _, t, _ in self.params:
            if t.key not in self._folded:
                self.fold(t.key, tape.grad(t))
        self._folded.clear()
        self._move(lr)

    def fold(self, key: int, g: np.ndarray) -> None:
        """A ``Tape.backward`` sink: fold the gradient of the tensor with ``key`` into m and v.

        A key this optimizer does not hold, or a second fold of one tensor
        in one step, raises ContractError.
        """
        i = self._index.get(key)
        if i is None:
            raise ContractError(f"no parameter with tensor key {key} in this optimizer")
        if key in self._folded:
            raise ContractError(f"{self.params[i][0]} was folded twice in one step")
        self._folded.add(key)
        self._fold(g, self._offsets[i])

    def _fold(self, g: np.ndarray, lo: int) -> None:
        """m = beta1 m + (1 - beta1) g and v = beta2 v + (1 - beta2) g g on [lo, lo + g.size),
        both moments at once as a [2, n] view."""
        g = g.reshape(-1).astype(self.flat.dtype, copy=False)
        for at in range(0, len(g), self.CHUNK):
            gc = g[at:at + self.CHUNK]
            mv = self.buffer[1:, lo + at:lo + at + len(gc)]
            s = self._scratch[:, :len(gc)]
            mv *= self._betas
            np.multiply(gc, self._rates, out=s)
            s[1] *= gc
            mv += s

    def _move(self, lr: float) -> None:
        """p = p - lr ((m / bc1) / (sqrt(v / bc2) + eps) [+ weight_decay p]) over the buffer."""
        c = self.cfg
        bc = np.array([[1.0 - c.beta1 ** self.t], [1.0 - c.beta2 ** self.t]], self.flat.dtype)
        n_decay = self.n_decay if c.weight_decay else 0
        for lo in range(0, self.flat.size, self.CHUNK):
            p = self.flat[lo:lo + self.CHUNK]
            s, u = np.divide(self.buffer[1:, lo:lo + len(p)], bc, out=self._scratch[:, :len(p)])
            np.sqrt(u, out=u)
            u += c.eps
            s /= u
            k = min(max(n_decay - lo, 0), len(p))  # decaying elements of this chunk
            if k:
                np.multiply(p[:k], c.weight_decay, out=u[:k])
                s[:k] += u[:k]
            s *= lr
            p -= s


def model_params(model: FunnelModel, prefix: str = "") -> list[tuple[str, Tensor, bool]]:
    """``AdamW`` triples: weights (normal init) decay; biases and norm params do not."""
    specs = param_specs(model.config)
    return [(prefix + name, t, specs[name].init == "normal") for name, t in model.trainable()]


def linear_schedule(step: int, total: int, warmup: int, base_lr: float) -> float:
    """Linear warmup to base_lr, then linear decay to zero at ``total``."""
    if total <= 0:
        return base_lr
    if warmup > 0 and step < warmup:
        return base_lr * (step + 1) / warmup
    if total == warmup:
        return base_lr
    return base_lr * max(0.0, (total - step) / (total - warmup))


@dataclass
class TraceRow:
    step: int
    loss: float
    lr: float


def _sample_plan(settings: TrainSettings, line: EncodedLine, rng: Rng):
    if settings.mask_sampler == "span":
        return sample_mask_span(line.token_ids, rate=settings.mask_rate, rng=rng)
    return sample_mask_single(line.token_ids, rate=settings.mask_rate, rng=rng)


def train_toy(config: ModelConfig, corpus_lines: list[str], settings: TrainSettings,
              out_dir: str | Path | None = None) -> list[TraceRow]:
    """Run the toy loop; returns the per-step loss trace.

    ``config.vocab_size`` is shrunk in place to the size of the built
    vocabulary so the saved config matches the checkpoint.  When
    ``out_dir`` is given, writes ``trace.csv`` (step,loss,lr),
    ``summary.json``, ``vocab.txt``, a copy of the config and a final
    ``model.ftnt`` checkpoint there.  Raises ValueError when ``steps`` > 0
    but no step ran because no line had anything to mask.
    """
    vocab = build_vocab(corpus_lines, config.vocab_size)
    config.vocab_size = len(vocab)
    lines = [encode_line(line, vocab, settings.seq_len) for line in corpus_lines]
    if not lines:
        raise ValueError("empty corpus")

    model = FunnelModel(config)
    rng = Rng(config.seed)
    gen = disc_head = None
    params = model_params(model, "disc/" if settings.objective == "electra" else "")
    if settings.objective == "electra":
        gen = FunnelModel(generator_config(config))
        dtype = DTYPES[config.dtype]
        w = Rng(config.seed + 2).truncated_normal((config.hidden,), INIT_STD, dtype)
        disc_head = (Tensor(w, requires_grad=True), Tensor(np.zeros((), dtype), requires_grad=True))
        params += model_params(gen, "gen/") + [("disc/head/w", disc_head[0], True),
                                               ("disc/head/b", disc_head[1], False)]

    opt = AdamW(params, settings.optimizer)
    trace: list[TraceRow] = []
    for step in range(settings.steps):
        rows = [lines[(step * settings.batch_size + i) % len(lines)]
                for i in range(settings.batch_size)]
        # every plan first, in sequence order; sequences with nothing to mask sit out
        plans = [_sample_plan(settings, line, rng) for line in rows]
        used = [i for i, plan in enumerate(plans) if len(plan)]
        if not used:
            continue
        batch = Batch.stack([rows[i] for i in used])
        plans = [plans[i] for i in used]
        try:
            if settings.objective == "electra":  # walks the generator's tape first
                tape, total, _ = electra_step(gen, model, disc_head, batch, plans, rng, opt.fold)
            else:
                with Tape() as tape:
                    corrupted = np.stack([p.apply(ids) for p, ids in zip(plans, batch.token_ids)])
                    hidden = model.token_hidden(corrupted.T, batch.pad_mask.T, rng=rng)
                    total = mlm_loss(hidden, model.params["embed/token"], plans)
        except NumericError as e:
            raise TrainingDiverged(step) from e
        if not math.isfinite(total.item()):
            raise TrainingDiverged(step)
        tape.backward(total, opt.fold)
        lr = linear_schedule(step, settings.steps, settings.optimizer.warmup_steps,
                             settings.optimizer.lr)
        opt.step(tape, lr)
        trace.append(TraceRow(step, total.item(), lr))
    if settings.steps > 0 and not trace:
        raise ValueError(f"no line has a maskable token at mask rate {settings.mask_rate}; "
                         "nothing was trained")

    if out_dir is not None:
        _write_outputs(Path(out_dir), config, settings, model, vocab, trace)
    return trace


def _write_outputs(out: Path, config: ModelConfig, settings: TrainSettings,
                   model: FunnelModel, vocab: Vocab, trace: list[TraceRow]) -> None:
    from .checkpoint import save

    out.mkdir(parents=True, exist_ok=True)
    with open(out / "trace.csv", "w", newline="") as f:
        w = csv.writer(f)
        w.writerow(["step", "loss", "lr"])
        for row in trace:
            w.writerow([row.step, repr(row.loss), repr(row.lr)])
    summary = {
        "steps": len(trace),
        "final_loss": trace[-1].loss if trace else None,
        "objective": settings.objective,
        "mask_sampler": settings.mask_sampler,
        "vocab_size": len(vocab),
    }
    (out / "summary.json").write_text(json.dumps(summary, indent=2, sort_keys=True))
    (out / "config.json").write_text(config.to_json())
    vocab.save(out / "vocab.txt")
    save(model.params, out / "model.ftnt")


def settings_from_json(d: dict) -> TrainSettings:
    """Build TrainSettings from the flat keys of a config's train section."""
    opt_keys = {f for f in OptimizerConfig.__dataclass_fields__}
    s_keys = {f for f in TrainSettings.__dataclass_fields__} - {"optimizer"}
    unknown = set(d) - opt_keys - s_keys
    if unknown:
        raise ValueError(f"unknown training fields: {sorted(unknown)}")
    opt = OptimizerConfig(**{k: v for k, v in d.items() if k in opt_keys})
    settings = TrainSettings(**{k: v for k, v in d.items() if k in s_keys})
    settings.optimizer = opt
    return settings
