"""Outputs do not depend on the BLAS thread count.

OpenBLAS reads ``OPENBLAS_NUM_THREADS`` when numpy loads, so each thread
count gets its own process.  Each process trains one toy model per
objective and dtype and encodes a padded input; every file and all of
stdout must match byte for byte.  The shapes are large enough that
OpenBLAS splits the matmuls across threads ([64, 64] @ [64, 256] and up).
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np

SRC = Path(__file__).resolve().parents[1] / "src"

RUNS = [(objective, dtype) for objective in ("mlm", "electra") for dtype in ("f64", "f32")]

# Runs in the child, whose working directory is its own output directory
# (train-toy prints its --out path): train-toy per (objective, dtype), then
# encode --dump tokens with the first model at a length that pads every line.
CHILD = """
import sys
from pathlib import Path
from funnel.cli import main
shared, runs = Path(sys.argv[1]), sys.argv[2:]
corpus = str(shared / "corpus.txt")
for name in runs:
    assert main(["train-toy", "--config", str(shared / f"{name}.json"), "--corpus", corpus,
                 "--out", name]) == 0
assert main(["encode", "--config", f"{runs[0]}/config.json", "--checkpoint",
             f"{runs[0]}/model.ftnt", "--input", corpus, "--dump", "tokens",
             "--seq-len", "32"]) == 0
"""


def run_child(tmp_path, threads, names):
    out = tmp_path / f"threads{threads}"
    out.mkdir()
    env = dict(os.environ, OPENBLAS_NUM_THREADS=str(threads), OMP_NUM_THREADS=str(threads),
               PYTHONPATH=str(SRC))
    proc = subprocess.run([sys.executable, "-c", CHILD, str(tmp_path), *names], cwd=out,
                          env=env, capture_output=True, timeout=120)
    assert proc.returncode == 0, proc.stderr.decode()
    return out, proc.stdout


def test_outputs_identical_at_one_and_two_blas_threads(tmp_path):
    gen = np.random.Generator(np.random.Philox(3))
    words = [f"w{i}" for i in range(10)]
    corpus = tmp_path / "corpus.txt"
    corpus.write_text("\n".join(" ".join(words[int(gen.integers(0, 10))] for _ in range(8))
                                for _ in range(16)) + "\n")
    names = []
    for objective, dtype in RUNS:
        names.append(f"{objective}-{dtype}")
        (tmp_path / f"{names[-1]}.json").write_text(json.dumps({
            "layout": "B2-2H64D2", "vocab_size": 20, "dtype": dtype, "seed": 5,
            "train": {"steps": 10, "batch_size": 4, "seq_len": 16, "mask_rate": 0.3,
                      "lr": 1e-3, "warmup_steps": 2, "objective": objective}}))
    one, stdout_one = run_child(tmp_path, 1, names)
    two, stdout_two = run_child(tmp_path, 2, names)
    assert stdout_one.count(b'"vectors"') == 16
    assert stdout_one == stdout_two
    for name in names:
        for file in ("trace.csv", "model.ftnt"):
            assert (one / name / file).read_bytes() == (two / name / file).read_bytes(), \
                f"{name}/{file}"
