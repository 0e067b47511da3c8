"""What stays the same across OpenBLAS kernels: the envelope of README's "Determinism".

numpy's OpenBLAS, when built ``DYNAMIC_ARCH``, picks its compute kernel per
CPU, and ``OPENBLAS_CORETYPE`` forces one. The kernels sum the similarity
and MLP products in different orders, so output floats move in their last
bits. Each kernel below runs in its own child process, with the variable set
in that child's environment only, and runs ``cli.main`` in process on a small
verify grid, a 60-step train and ``gradcheck --trials 3 --seed 0``. Against
the child with the variable unset (the machine's default kernel):

* every exit code, integer, count and verdict is equal;
* every float agrees to ``REL_BOUND`` relative;
* gradcheck is compared on its verdict, line count and exit code only, since
  its worst-error digits are finite-difference noise and the FAIL set moves
  between kernels; seed 0 passes under every kernel tried.

``REL_BOUND`` comes from seeds 0-5 of these configs (the verify seed and the
train seed) under the three kernels, each against the default kernel of a
2-vCPU x86-64 VM with numpy 2.4 and OpenBLAS 0.3.31. Haswell moved no float
by more than 2.5e-16. Sandybridge and Prescott moved the train trace at every
seed, by up to 5.9e-13 (``grad_norm``, seed 3), and the verify summary at
seeds 1, 4 and 5, by up to 2.1e-14. The bound is 1e-11, a margin of 17 over
the largest. It is a hundredth of ``VIOLATION_SLACK``: a gap that moves by
1e-11 of itself cannot cross -1e-9 unless it was within 1e-20 of it, so no
violation count moves between kernels. The test runs seed 1, where both the
verify summary and the trace move.
"""

import json
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from ntxbound.bounds import VIOLATION_SLACK

SRC = Path(__file__).resolve().parent.parent / "src"
KERNELS = ("Haswell", "Sandybridge", "Prescott")
REL_BOUND = 1e-11

VERIFY = {"ns": [2, 4, 8], "ms": [4], "taus": [0.1, 0.5], "distributions": ["uniform_sphere", "gaussian", "clustered"],
          "trials": 50}
TRAIN = {"n_pairs": 8, "input_dim": 8, "encoder_dims": [16, 16], "projector_dims": [16, 8], "tau": 0.5,
         "learning_rate": 0.05, "steps": 60, "augment": {"noise_sigma": 0.1, "dropout_prob": 0.1},
         "dataset": {"clusters": 4, "spread": 0.1, "points": 64}}

#: Runs each command in process; prints {command: [exit code, stdout]} as JSON.
CHILD = """
import contextlib, io, json, sys
from ntxbound import cli
runs = {}
for name, argv in json.loads(sys.argv[1]).items():
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        runs[name] = [cli.main(argv), out.getvalue()]
print(json.dumps(runs))
"""


def _dynamic_openblas() -> bool:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return "openblas" in blas["name"] and "DYNAMIC_ARCH" in blas.get("openblas configuration", "")


def run_kernels(tmp: Path, seed: int, kernels=(None, *KERNELS)) -> dict:
    """Each kernel's (runs, files): the commands' exit codes and stdout, and the text of each file they wrote."""
    (tmp / "verify.json").write_text(json.dumps({**VERIFY, "seed": seed}))
    (tmp / "train.json").write_text(json.dumps({**TRAIN, "seed": seed}))
    children = {}
    for kernel in kernels:
        out = tmp / str(kernel)
        argv = {
            "verify": ["verify", "--config", str(tmp / "verify.json"), "--out", str(out)],
            "train": ["train", "--config", str(tmp / "train.json"), "--out", str(out)],
            "gradcheck": ["gradcheck", "--trials", "3", "--seed", "0"],
        }
        env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_CORETYPE"}
        env["PYTHONPATH"] = os.pathsep.join([str(SRC), *filter(None, [env.get("PYTHONPATH")])])
        if kernel:
            env["OPENBLAS_CORETYPE"] = kernel
        cmd = [sys.executable, "-c", CHILD, json.dumps(argv)]
        children[kernel] = (out, subprocess.Popen(cmd, env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE))
    results = {}
    for kernel, (out, child) in children.items():
        stdout, stderr = child.communicate(timeout=60)
        assert child.returncode == 0, stderr.decode()
        files = {p.name: p.read_text() for p in sorted(out.iterdir())}
        results[kernel] = json.loads(stdout), files
    return results


_NUMBER = re.compile(r"(-?\d+(?:\.\d*)?(?:e[+-]?\d+)?)")


def max_rel_diff(text: str, other: str) -> float:
    """Largest relative difference between the floats of two texts that are equal apart from their floats.

    Both texts split into the same words and numbers; integers (no point and
    no exponent in either text) must be equal, and so must every word.
    """
    words, others = _NUMBER.split(text), _NUMBER.split(other)
    assert len(words) == len(others), (text, other)
    worst = 0.0
    for k, (a, b) in enumerate(zip(words, others)):
        if k % 2 == 0 or not re.search("[.e]", a + b):
            assert a == b, (a, b)
        elif a != b:
            x, y = float(a), float(b)
            worst = max(worst, abs(x - y) / max(abs(x), abs(y)))
    return worst


def envelope(base, other) -> float:
    """The largest float difference of ``other`` against ``base``; every other part of the outputs is asserted equal."""
    (runs, files), (other_runs, other_files) = base, other
    assert sorted(files) == sorted(other_files) == ["train_summary.json", "train_trace.csv", "verify_summary.json"]
    worst = max(max_rel_diff(files[name], other_files[name]) for name in files)
    for command in ("verify", "train"):
        assert runs[command][0] == other_runs[command][0]
        worst = max(worst, max_rel_diff(runs[command][1], other_runs[command][1]))
    (code, printout), (other_code, other_printout) = runs["gradcheck"], other_runs["gradcheck"]
    assert code == other_code
    assert printout.count("\n") == other_printout.count("\n")
    assert printout.rsplit(" ", 1)[-1] == other_printout.rsplit(" ", 1)[-1]  # PASS or FAIL
    return worst


def test_bound_is_far_below_the_violation_slack():
    assert REL_BOUND <= VIOLATION_SLACK / 100


@pytest.mark.skipif(not _dynamic_openblas(), reason="numpy's BLAS is not a DYNAMIC_ARCH OpenBLAS: no kernel to choose")
def test_outputs_agree_across_kernels(tmp_path):
    results = run_kernels(tmp_path, seed=1)
    base = results.pop(None)
    assert base[0]["gradcheck"][0] == 0  # the seed whose verdict does not move
    for kernel, other in results.items():
        assert envelope(base, other) <= REL_BOUND, kernel
