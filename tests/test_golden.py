"""Pinned outputs: a refactor that claims "same results" must reproduce these.

``golden.json`` holds, for each case, the sha256 of its output bytes and a
few values: the loss trace itself, or the sum, sum of squares, max and sum
of absolute values of each output array.  Bytes hold only on one numpy,
BLAS and CPU (the SIMD paths of ``tanh`` and ``exp`` differ between CPUs),
so the file also stores the fingerprint of the host that wrote it.  On
that fingerprint a case must match its digest; on any host its values
must match within a relative tolerance of the case's largest stored
magnitude: 1e-10 for f64 cases.  f32 cases use 1e-5, since f32 rounds
at 6e-8 and 1e-10 would pin their bytes on every host.  A command's
printed line holds a rounding-level error (three digits of a finite
difference or of a variant deviation) that another CPU moves freely, so
off that fingerprint its number must only stay within the bound the
command itself enforces.  ``funnel encode`` stdout prints its values
rounded to 6 decimals, and another CPU may move any printed value by one
step of that grid, so off the fingerprint each summary value of its
numbers may move only as far as such steps allow.  A change that moves
results on purpose rewrites the pins in the same commit
(``OPENBLAS_NUM_THREADS=1 PYTHONPATH=src python tests/test_golden.py``)
and states old and new values and the reason.
"""

import atexit
import contextlib
import functools
import hashlib
import io
import json
import os
import platform
import re
import shutil
import sys
import tempfile
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from funnel import cli
from funnel.autodiff import Rng
from funnel.model import FunnelModel, ModelConfig
from funnel.training import OptimizerConfig, TrainSettings, train_toy

PINS = Path(__file__).with_name("golden.json")
TOLERANCE = {"f64": 1e-10, "f32": 1e-5}
LINES = {"verify-attn": (("--trials", "100", "--seed", "0"), 1e-8),
         "gradcheck": (("--layout", "B2-2H64", "--seq-len", "8"), 1e-4)}
ENCODE_T, ENCODE_LENGTHS = 32, (32, 17, 3)
CHECKPOINT_STEPS = 30
STDOUT_FIELDS = {"shapes": "block_shapes", "cls": "cls", "tokens": "vectors"}
PRINT_GRID = 1e-6  # funnel encode prints values rounded to 6 decimals


def fingerprint() -> dict:
    """numpy version, its BLAS build, and the CPU's architecture and feature flags."""
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    flags = ""
    try:
        with open("/proc/cpuinfo") as f:
            flags = next((line for line in f if line.startswith("flags")), "")
    except OSError:
        pass
    flags = " ".join(sorted(flags.partition(":")[2].split())) or platform.processor()
    return {"numpy": np.__version__, "machine": platform.machine(),
            "blas": f"{blas.get('name')} {blas.get('version')} "
                    f"{blas.get('openblas configuration', '')}".strip(),
            "cpu_flags_sha256": hashlib.sha256(flags.encode()).hexdigest()}


def corpus() -> list[str]:
    gen = Rng(11)
    return [" ".join(f"w{int(gen.integers(0, 50))}" for _ in range(6 + 3 * i))
            for i in range(12)]


def train_trace(name: str, dtype: str, steps: int = 15, **changes) -> np.ndarray:
    """The loss trace of one benchmark training config, ``mlm_toy`` or ``electra_span``,
    with the model fields in ``changes`` replaced (``mlm_toy``'s position term is
    ``factorized``)."""
    if name == "mlm_toy":
        config = ModelConfig(layout="B2-2H64D2", vocab_size=20, pool_op="mean",
                             attn_variant="factorized", dtype=dtype, seed=0)
        settings = TrainSettings(steps=steps, batch_size=8, seq_len=16, objective="mlm",
                                 mask_sampler="single")
    else:
        config = ModelConfig(layout="B2-2H128D2", vocab_size=64, pool_op="max",
                             attn_variant="gather", dtype=dtype, seed=0)
        settings = TrainSettings(steps=steps, batch_size=4, seq_len=32, objective="electra",
                                 mask_sampler="span")
    config = replace(config, **changes)
    return np.array([row.loss for row in train_toy(config, corpus(), settings)])


def trace_case(name: str, dtype: str, **changes):
    """The 15-step loss trace of ``train_trace``."""
    trace = train_trace(name, dtype, **changes)
    return trace.tobytes(), [trace]


@functools.cache
def readme_run() -> Path:
    """A directory holding ``train_toy``'s outputs under README's config, for fewer
    steps, and the golden corpus as ``corpus.txt``; trained once per process."""
    config = ModelConfig(layout="B2-2H64D2", vocab_size=20, pool_op="mean",
                         attn_variant="factorized", dtype="f64", seed=0)
    settings = TrainSettings(steps=CHECKPOINT_STEPS, batch_size=8, seq_len=16,
                             objective="mlm", mask_sampler="single",
                             optimizer=OptimizerConfig(lr=1e-3, warmup_steps=20))
    out = Path(tempfile.mkdtemp())
    atexit.register(shutil.rmtree, out, ignore_errors=True)
    train_toy(config, corpus(), settings, out_dir=out)
    (out / "corpus.txt").write_text("\n".join(corpus()) + "\n")
    return out


def checkpoint_case():
    """``model.ftnt`` written by ``train_toy`` under README's config, for fewer steps.

    The digest covers its tensors' payload bytes in name order, not the
    archive's layout; the values are those of the same tensors.
    """
    from funnel.checkpoint import load

    params = load(readme_run() / "model.ftnt")
    arrays = [params[name].data for name in sorted(params)]
    return b"".join(a.tobytes() for a in arrays), arrays


def encode_case(pool_op: str, truncate: bool):
    """Encoder top block and decoder output of a padded [32, 3] batch on a small funnel."""
    config = ModelConfig(layout="B2-1x2-2H128D2", vocab_size=40, pool_op=pool_op,
                         truncate_seq=truncate, seed=3)
    gen = np.random.Generator(np.random.Philox(12))
    ids = gen.integers(5, config.vocab_size, size=(ENCODE_T, len(ENCODE_LENGTHS)))
    mask = np.arange(ENCODE_T)[:, None] < np.array(ENCODE_LENGTHS)
    model = FunnelModel(config)
    state = model.encode(ids, mask)
    arrays = [state.h_last.data, model.decode(state, mask).hidden.data]
    return b"".join(np.ascontiguousarray(a).tobytes() for a in arrays), arrays


def line_case(command: str):
    """The line ``funnel <command>`` prints; the value is the error it reports."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert cli.main([command, *LINES[command][0]]) == 0
    line = out.getvalue()
    return line.encode(), [np.array([float(re.search(r"\d\.\d+e[-+]\d+", line)[0])])]


def stdout_case(dump: str, seq_len: int):
    """``funnel encode`` stdout for the ``readme_run`` model over the golden corpus.

    The value array is the printed numbers of ``dump``'s field, one row per line.
    """
    run = readme_run()
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert cli.main(["encode", "--config", str(run / "config.json"),
                         "--checkpoint", str(run / "model.ftnt"),
                         "--input", str(run / "corpus.txt"), "--dump", dump,
                         "--seq-len", str(seq_len)]) == 0
    text = out.getvalue()
    rows = [json.loads(line)[STDOUT_FIELDS[dump]] for line in text.splitlines()]
    return text.encode(), [np.array(rows, dtype=np.float64)]


def grid_bounds(arrays, values) -> np.ndarray:
    """How far ``summarise``'s values of printed arrays may move when each printed
    number moves by one step of the print grid, as it may on another CPU, plus
    1e-12 relative for the order of summation."""
    bounds = []
    for a, (_, _, _, abs_sum) in zip(arrays, np.reshape(values, (-1, 4))):
        n = a.size
        bounds += [n * PRINT_GRID, 2 * abs_sum * PRINT_GRID + n * PRINT_GRID ** 2,
                   PRINT_GRID, n * PRINT_GRID]
    return np.array(bounds) + 1e-12 * np.abs(values)


CASES = {
    **{f"trace/{name}/{dtype}": (dtype, lambda name=name, dtype=dtype: trace_case(name, dtype))
       for name in ("mlm_toy", "electra_span") for dtype in ("f64", "f32")},
    **{f"trace/electra_span_factorized/{dtype}":
       (dtype, lambda dtype=dtype: trace_case("electra_span", dtype, attn_variant="factorized"))
       for dtype in ("f64", "f32")},
    **{f"trace/mlm_top_attn/truncate_{'on' if t else 'off'}/{dtype}":
       (dtype, lambda dtype=dtype, t=t: trace_case("mlm_toy", dtype, layout="B2-2-2H64D2",
                                                   pool_op="top_attn", truncate_seq=t))
       for t in (True, False) for dtype in ("f64", "f32")},
    "checkpoint/readme_mlm/f64": ("f64", checkpoint_case),
    **{f"encode/{op}/truncate_{'on' if t else 'off'}":
       ("f64", lambda op=op, t=t: encode_case(op, t))
       for op in ("mean", "max", "top_attn") for t in (True, False)},
    **{f"line/{command}": (command, lambda command=command: line_case(command))
       for command in LINES},
    **{f"stdout/encode/{dump}/seq_len_{t}": ("stdout", lambda dump=dump, t=t: stdout_case(dump, t))
       for dump in STDOUT_FIELDS for t in (16, 64)},
}


def summarise(case) -> dict:
    """sha256 of a case's bytes, and the values compared off the fingerprint."""
    raw, arrays = case
    if len(arrays) == 1 and arrays[0].ndim == 1:
        values = arrays[0].tolist()                       # a loss trace
    else:
        values = [float(s) for a in arrays for s in
                  (a.sum(), (a * a).sum(), a.max(), np.abs(a).sum())]
    return {"sha256": hashlib.sha256(raw).hexdigest(), "values": values}


@pytest.fixture(scope="module")
def pins() -> dict:
    return json.loads(PINS.read_text())


@pytest.mark.parametrize("case", list(CASES))
def test_pinned_output(case, pins):
    kind, run = CASES[case]  # a dtype, "stdout", or the command whose line is pinned
    output = run()
    got, want = summarise(output), pins["cases"][case]
    same_host = pins["fingerprint"] == fingerprint()
    if kind in LINES:
        bound = LINES[kind][1]
        assert got["values"][0] <= bound, f"{case}: {got['values'][0]:.3e} above {bound:g}"
    elif kind == "stdout":
        off = np.abs(np.subtract(got["values"], want["values"]))
        bounds = grid_bounds(output[1], want["values"])
        assert (off <= bounds).all(), (
            f"{case}: printed values off the pins by {off.tolist()}, beyond the print "
            f"grid's {bounds.tolist()}")
    else:
        tol = TOLERANCE[kind]
        scale = max(abs(v) for v in want["values"])
        np.testing.assert_allclose(got["values"], want["values"], rtol=tol, atol=tol * scale,
                                   err_msg=f"{case}: values off the pins beyond relative "
                                           f"{tol:g} (on {'the' if same_host else 'another'} host)")
    if same_host:
        assert got["sha256"] == want["sha256"], (
            f"{case}: bytes differ from the pins on the host that wrote them")


def test_f32_trace_tracks_f64():
    """Over 100 ``mlm_toy`` steps the f32 loss trace stays within 1e-5 relative of the f64
    trace; a property of the arithmetic, so it holds on any host."""
    f64, f32 = (train_trace("mlm_toy", dtype, steps=100) for dtype in ("f64", "f32"))
    np.testing.assert_allclose(f32, f64, rtol=1e-5, atol=0)


def test_pins_cover_every_case(pins):
    assert set(pins["cases"]) == set(CASES)
    assert set(pins["fingerprint"]) == set(fingerprint())


if __name__ == "__main__":
    if os.environ.get("OPENBLAS_NUM_THREADS") != "1":
        sys.exit("run with OPENBLAS_NUM_THREADS=1, as the test session does")
    out = {"fingerprint": fingerprint(),
           "cases": {case: summarise(run()) for case, (_, run) in CASES.items()}}
    PINS.write_text(json.dumps(out, indent=1) + "\n")
    print(f"wrote {len(out['cases'])} cases to {PINS}")
