"""Command-line interface: analysis, verification, toy training, inference.

Exit codes: 0 success, 1 verification failure, 2 usage or input error.
Failures print a single machine-parseable line ``error: <category>: <detail>``
to stderr.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import fields
from fractions import Fraction
from pathlib import Path

import numpy as np

from . import costmodel
from .autodiff import ContractError, NumericError, Rng, Tensor, grad_check
from .checkpoint import CheckpointError, load
from .corpus import CLS, SEP, SPECIALS, Vocab, encode_line, load_corpus
from .layout import LayoutError, is_pow2, parse_layout
from .model import FunnelModel, ModelConfig, param_specs
from .objectives import mlm_loss, sample_mask_single
from .relattn import RelPosEncoding, variant_deviation
from .training import TrainingDiverged, settings_from_json, train_toy


class CliError(Exception):
    def __init__(self, category: str, message: str, code: int = 2):
        self.category = category
        self.code = code
        super().__init__(message)


# lower bounds of integer flags, by command: a flag such as --seq-len means
# different things to different commands.  gradcheck draws its content ids
# from above the special tokens, so its vocabulary needs one more.
FLAG_MINIMUMS = {
    "verify-attn": {"--trials": 0, "--max-t": 2, "--max-d": 4},
    "gradcheck": {"--coords-per-param": 1, "--seq-len": 8, "--vocab": len(SPECIALS) + 1},
}


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
    for f in fields(report):
        value = getattr(report, f.name)
        if isinstance(value, Fraction):
            value = f"{float(value):g} ({value.numerator}/{value.denominator})"
        print(f"{f.name:<19} {value}")
    return 0


def cmd_compare(args) -> int:
    layouts = [_parse_layout(s) for s in args.layouts.split(",") if s]
    if not layouts:
        raise CliError("usage", "no layouts given")
    base = _parse_layout(args.baseline)
    print(costmodel.compare_report(layouts, base, seq_len=args.seq_len, mode=args.mode,
                                   vocab=args.vocab, fmt=args.format))
    return 0


def cmd_verify_attn(args) -> int:
    if args.trials == 0:
        print("warning: 0 trials requested; nothing verified")
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
    token_ids = np.concatenate([[CLS], rng.integers(len(SPECIALS), config.vocab_size, t - 2),
                                [SEP]])
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
    config, settings = _load_config(Path(args.config), train=True, steps=args.steps)
    lines = load_corpus(args.corpus)
    try:
        trace = train_toy(config, lines, settings, out_dir=args.out)
    except TrainingDiverged as e:
        raise CliError("diverged", str(e), code=1) from e
    final = trace[-1].loss if trace else float("nan")
    print(f"trained {len(trace)} steps; final loss {final:.6f}; outputs in {args.out}")
    return 0


def load_encoder(config_path: Path, checkpoint_path: Path,
                 vocab_path: Path | None = None) -> tuple[FunnelModel, Vocab]:
    """The model and vocabulary ``funnel encode`` runs.

    Reads the config, loads the checkpoint against its ``param_specs`` (no
    parameter is drawn) and loads the vocabulary, ``vocab.txt`` next to the
    checkpoint unless ``vocab_path`` is given, whose size must match the
    config.  Faults are ``CliError`` of category ``config``, ``checkpoint`` or
    ``vocab``, in that order; a config file that cannot be read is ``OSError``.
    """
    config, _ = _load_config(config_path)
    try:
        params = load(checkpoint_path, expected=param_specs(config))
    except CheckpointError as e:
        raise CliError("checkpoint", str(e)) from e
    model = FunnelModel(config, params)

    vocab_path = vocab_path or checkpoint_path.parent / "vocab.txt"
    if not vocab_path.exists():
        raise CliError("vocab", f"{vocab_path} does not exist")
    try:
        vocab = Vocab.load(vocab_path)
    except ValueError as e:
        raise CliError("vocab", str(e)) from e
    if len(vocab) != config.vocab_size:
        raise CliError("vocab", f"vocabulary size {len(vocab)} does not match config "
                                f"{config.vocab_size}")
    return model, vocab


def encode_request(model: FunnelModel, vocab: Vocab, line: str, seq_len: int,
                   dump: str) -> str:
    """The JSON line ``funnel encode --dump <dump>`` prints for one input line.

    ``shapes`` gives each encoder block's output shape, ``cls`` the top
    block's CLS row, and ``tokens`` the full-length rows token-level
    training reads; values are rounded to 6 decimals.  A value that is not
    finite raises ``ValueError`` rather than being printed as ``NaN`` or ``Infinity``.
    """
    enc = encode_line(line, vocab, seq_len)
    state = model.encode(enc.token_ids, enc.pad_mask)
    if dump == "shapes":
        record = {"line": line, "block_shapes": [list(h.shape) for h in state.block_hidden]}
    elif dump == "cls":
        record = {"line": line, "cls": [round(x, 6) for x in state.h_last.data[0].tolist()]}
    else:
        hidden = model.decode(state).hidden.data
        record = {"line": line, "tokens": len(hidden),
                  "vectors": [[round(x, 6) for x in row] for row in hidden.tolist()]}
    return json.dumps(record, allow_nan=False)


def cmd_encode(args) -> int:
    cfg_path = Path(args.config)
    ckpt_path = Path(args.checkpoint)
    input_path = Path(args.input)
    for p, cat in ((cfg_path, "config"), (ckpt_path, "checkpoint"), (input_path, "input")):
        if not p.exists():
            raise CliError(cat, f"{p} does not exist")
    model, vocab = load_encoder(cfg_path, ckpt_path, Path(args.vocab) if args.vocab else None)
    for number, line in enumerate(load_corpus(input_path), start=1):
        try:
            print(encode_request(model, vocab, line, args.seq_len, args.dump))
        except (NumericError, ValueError) as e:
            raise CliError("input", f"{input_path} line {number}: {e}") from e
    return 0


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="funnel",
                                description="funnel transformer toolkit")
    sub = p.add_subparsers(dest="command", required=True)

    a = sub.add_parser("analyze", help="cost report for one layout")
    a.add_argument("--layout", required=True)
    a.set_defaults(fn=cmd_analyze)
    c = sub.add_parser("compare", help="ratio table against a baseline layout")
    c.add_argument("--layouts", required=True, help="comma separated layout strings")
    c.add_argument("--baseline", required=True)
    c.set_defaults(fn=cmd_compare)
    for cost in (a, c):  # the cost model's own flags
        cost.add_argument("--seq-len", type=int, default=512)
        cost.add_argument("--mode", choices=costmodel.MODES, default="finetune")
        cost.add_argument("--format", choices=("text", "json"), default="text")
        cost.add_argument("--vocab", type=int, default=costmodel.DEFAULT_VOCAB)

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
        for flag, low in FLAG_MINIMUMS.get(args.command, {}).items():
            value = getattr(args, flag[2:].replace("-", "_"))
            if value < low:
                raise CliError("usage", f"{flag} must be >= {low}, got {value}")
        seq_len = getattr(args, "seq_len", 2)  # analyze, compare, gradcheck, encode
        if seq_len < 2 or not is_pow2(seq_len):
            raise CliError("usage", f"--seq-len must be a power of two >= 2, got {seq_len}")
        with np.errstate(all="ignore"):  # softmax and json refuse non-finite values
            return args.fn(args)
    except CliError as e:
        print(f"error: {e.category}: {e}", file=sys.stderr)
        return e.code
    except (ContractError, NumericError, ValueError, OSError) as e:
        print(f"error: input: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
