"""Command-line interface: analysis, verification, toy training, inference.

Exit codes: 0 success, 1 verification failure, 2 usage or input error.
Failures print a single machine-parseable line ``error: <category>: <detail>``
to stderr.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

import numpy as np

from . import costmodel
from .autodiff import ContractError, Rng, Tensor, grad_check
from .checkpoint import CheckpointError, load
from .corpus import Vocab, encode_line, load_corpus
from .layout import LayoutError, parse_layout
from .model import FunnelModel, ModelConfig, param_specs
from .objectives import mlm_loss, sample_mask_single
from .relattn import RelPosEncoding, variant_deviation
from .training import TrainingDiverged, settings_from_json, train_toy


class CliError(Exception):
    def __init__(self, category: str, message: str, code: int = 2):
        self.category = category
        self.code = code
        super().__init__(message)


def _parse_layout(s: str):
    try:
        return parse_layout(s)
    except LayoutError as e:
        raise CliError("parse", f"layout {s!r}: {e}") from e


def _load_config(path: Path, train: bool = False, steps: int | None = None):
    """Model config from ``path``; with ``train`` also the settings of its ``train``
    section, ``steps`` overriding theirs.  Any fault in the file is ``error: config:``."""
    try:
        d = json.loads(path.read_text())
        if not isinstance(d, dict):
            raise ValueError(f"{path} does not hold a JSON object")
        train_d = d.pop("train", {}) if train else {}
        if steps is not None:
            train_d["steps"] = steps
        return ModelConfig.from_dict(d), settings_from_json(train_d) if train else None
    except (TypeError, ValueError, LayoutError) as e:
        raise CliError("config", str(e)) from e


def cmd_analyze(args) -> int:
    layout = _parse_layout(args.layout)
    report = costmodel.cost_report(layout, seq_len=args.seq_len, mode=args.mode,
                                   vocab=args.vocab)
    if args.format == "json":
        print(json.dumps(report.to_dict(), indent=2))
        return 0
    eff = report.effective_layers
    rows = [
        ("layout", report.layout),
        ("mode", report.mode),
        ("seq_len", report.seq_len),
        ("params_total", report.params_total),
        ("params_transformer", report.params_transformer),
        ("params_embedding", report.params_embedding),
        ("params_shared", report.params_shared),
        ("effective_layers", f"{float(eff):g} ({eff.numerator}/{eff.denominator})"),
        ("flops_exact", report.flops_exact),
    ]
    for label, value in rows:
        print(f"{label:<19} {value}")
    return 0


def cmd_compare(args) -> int:
    layouts = [_parse_layout(s) for s in args.layouts.split(",") if s]
    if not layouts:
        raise CliError("usage", "no layouts given")
    base = _parse_layout(args.baseline)
    try:
        print(costmodel.compare_report(layouts, base, seq_len=args.seq_len,
                                       mode=args.mode, vocab=args.vocab,
                                       fmt=args.format))
    except costmodel.CostModelError as e:
        raise CliError("input", str(e)) from e
    return 0


def cmd_verify_attn(args) -> int:
    if args.trials == 0:
        print("warning: 0 trials requested; nothing verified")
        print("max deviation 0.0")
        return 0
    rng = Rng(args.seed)
    gen = rng.generator
    worst = 0.0
    for _ in range(args.trials):
        tk = int(gen.integers(2, args.max_t + 1))
        d = int(gen.choice([w for w in (4, 8, 16, 32) if w <= args.max_d]))
        dh = int(gen.choice([2, 4, d]))
        enc = RelPosEncoding(d)
        k_pos = np.arange(tk)
        if gen.random() < 0.5:
            q_pos = k_pos[int(gen.integers(0, 2))::2].copy()  # pooled-style ids
        else:
            tq = int(gen.integers(1, tk + 1))
            q_pos = np.sort(gen.choice(tk, size=tq, replace=False))
        proj_q = Tensor(gen.standard_normal((len(q_pos), dh)))
        w_r = Tensor(gen.standard_normal((d, dh)))
        u = Tensor(gen.standard_normal(dh))
        worst = max(worst, variant_deviation(proj_q, q_pos, k_pos, w_r, u, enc))
    print(f"max deviation {worst:.3e} over {args.trials} trials")
    if worst > 1e-8:
        raise CliError("verify", f"attention variants deviate by {worst:.3e}", code=1)
    return 0


def cmd_gradcheck(args) -> int:
    layout = _parse_layout(args.layout)
    config = ModelConfig(layout=layout, vocab_size=args.vocab, dtype="f64",
                         seed=args.seed)
    model = FunnelModel(config)
    t = args.seq_len
    rng = Rng(args.seed + 1)
    token_ids = np.concatenate([[2], rng.integers(5, config.vocab_size, t - 2), [3]])
    # rate 0.3 keeps the plan non-empty at the short gradcheck lengths
    plan = sample_mask_single(token_ids, rate=0.3, rng=Rng(args.seed + 2))
    corrupted = plan.apply(token_ids)

    def loss():
        hidden = model.token_hidden(corrupted)
        return mlm_loss(hidden, model.params["embed/token"], plan)

    # whole-model calibration: floor above the f64 finite-difference
    # resolution limit (see grad_check docstring)
    err = grad_check(loss, [p for _, p in model.trainable()],
                     denominator_floor=1e-6,
                     max_coords_per_param=args.coords_per_param, seed=args.seed)
    print(f"max relative error {err:.3e}")
    if err > 1e-4:
        raise CliError("gradcheck", f"max relative error {err:.3e} above 1e-4", code=1)
    return 0


def cmd_train_toy(args) -> int:
    for what, p in (("config", Path(args.config)), ("corpus", Path(args.corpus))):
        if not p.exists():
            raise CliError("input", f"{what} file {p} does not exist")
    config, settings = _load_config(Path(args.config), train=True, steps=args.steps)
    lines = load_corpus(args.corpus)
    try:
        trace = train_toy(config, lines, settings, out_dir=args.out)
    except TrainingDiverged as e:
        raise CliError("diverged", str(e), code=1) from e
    final = trace[-1].loss if trace else float("nan")
    print(f"trained {len(trace)} steps; final loss {final:.6f}; outputs in {args.out}")
    return 0


def cmd_encode(args) -> int:
    cfg_path = Path(args.config)
    ckpt_path = Path(args.checkpoint)
    input_path = Path(args.input)
    for p, cat in ((cfg_path, "config"), (ckpt_path, "checkpoint"), (input_path, "input")):
        if not p.exists():
            raise CliError(cat, f"{p} does not exist")
    config, _ = _load_config(cfg_path)
    try:
        params = load(ckpt_path, expected=param_specs(config))
    except CheckpointError as e:
        raise CliError("checkpoint", str(e)) from e
    model = FunnelModel(config, params)

    vocab_path = Path(args.vocab) if args.vocab else ckpt_path.parent / "vocab.txt"
    if not vocab_path.exists():
        raise CliError("vocab", f"{vocab_path} does not exist")
    vocab = Vocab.load(vocab_path)
    if len(vocab) != config.vocab_size:
        raise CliError("vocab", f"vocabulary size {len(vocab)} does not match config "
                                f"{config.vocab_size}")

    for line in load_corpus(input_path):
        enc = encode_line(line, vocab, args.seq_len)
        state = model.encode(enc.token_ids, enc.pad_mask)
        if args.dump == "shapes":
            shapes = [list(h.shape) for h in state.block_hidden]
            print(json.dumps({"line": line, "block_shapes": shapes}))
        elif args.dump == "cls":
            print(json.dumps({"line": line,
                              "cls": [round(float(x), 6) for x in state.h_last.data[0]]}))
        else:
            out = model.decode(state, enc.pad_mask)
            print(json.dumps({"line": line, "tokens": len(out.hidden.data),
                              "vectors": [[round(float(x), 6) for x in row]
                                          for row in out.hidden.data]}))
    return 0


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="funnel",
                                description="funnel transformer toolkit")
    sub = p.add_subparsers(dest="command", required=True)

    a = sub.add_parser("analyze", help="cost report for one layout")
    a.add_argument("--layout", required=True)
    a.add_argument("--seq-len", type=int, default=512)
    a.add_argument("--mode", choices=costmodel.MODES, default="finetune")
    a.add_argument("--format", choices=("text", "json"), default="text")
    a.add_argument("--vocab", type=int, default=costmodel.DEFAULT_VOCAB)
    a.set_defaults(fn=cmd_analyze)

    c = sub.add_parser("compare", help="ratio table against a baseline layout")
    c.add_argument("--layouts", required=True, help="comma separated layout strings")
    c.add_argument("--baseline", required=True)
    c.add_argument("--seq-len", type=int, default=512)
    c.add_argument("--mode", choices=costmodel.MODES, default="finetune")
    c.add_argument("--format", choices=("text", "json"), default="text")
    c.add_argument("--vocab", type=int, default=costmodel.DEFAULT_VOCAB)
    c.set_defaults(fn=cmd_compare)

    v = sub.add_parser("verify-attn", help="three-way position-term equivalence check")
    v.add_argument("--trials", type=int, default=100)
    v.add_argument("--max-t", type=int, default=16)
    v.add_argument("--max-d", type=int, default=16)
    v.add_argument("--seed", type=int, default=0)
    v.set_defaults(fn=cmd_verify_attn)

    g = sub.add_parser("gradcheck", help="end-to-end finite-difference check")
    g.add_argument("--layout", required=True)
    g.add_argument("--seq-len", type=int, default=8)
    g.add_argument("--vocab", type=int, default=11)
    g.add_argument("--seed", type=int, default=0)
    g.add_argument("--coords-per-param", type=int, default=4)
    g.set_defaults(fn=cmd_gradcheck)

    t = sub.add_parser("train-toy", help="deterministic toy training run")
    t.add_argument("--config", required=True)
    t.add_argument("--corpus", required=True)
    t.add_argument("--steps", type=int, default=None)
    t.add_argument("--out", required=True)
    t.set_defaults(fn=cmd_train_toy)

    e = sub.add_parser("encode", help="run the encoder (and decoder) on text")
    e.add_argument("--config", required=True)
    e.add_argument("--checkpoint", required=True)
    e.add_argument("--input", required=True)
    e.add_argument("--dump", choices=("shapes", "cls", "tokens"), default="shapes")
    e.add_argument("--seq-len", type=int, default=16)
    e.add_argument("--vocab", default=None, help="vocabulary file (default: next to checkpoint)")
    e.set_defaults(fn=cmd_encode)
    return p


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return 2 if e.code not in (0, None) else 0
    try:
        return args.fn(args)
    except CliError as e:
        print(f"error: {e.category}: {e}", file=sys.stderr)
        return e.code
    except (ContractError, ValueError) as e:
        print(f"error: input: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
