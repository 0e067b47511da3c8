"""Committed sha256 digests of the commands' outputs, so that "byte-identical" is a tier-1 check.

``tests/golden.json`` maps an environment key (numpy version, OpenBLAS core
name, machine) to the digest of each output of ``COMMANDS``: exit code and
stdout per command, and every file they write. Another numpy, another BLAS
kernel or another machine moves last bits (README "Determinism"), so
``tests/test_golden.py`` compares only where its key is in the file.

Run from the repository root with ``src`` on ``PYTHONPATH``::

    python tests/golden.py

lists each digest that was added, changed or is missing against this
environment's committed entry, and exits 1 if any differ (0, saying "no
entry", where the environment has none). A change that means to alter an
output prints the same list and then rewrites this environment's entry,
keeping the others, with::

    python tests/golden.py --update

The diff of ``golden.json`` then shows which outputs changed. Never rewrite
it to make a failure pass without saying what changed the output and why.
"""

import argparse
import contextlib
import ctypes
import hashlib
import io
import json
import platform
import sys
import tempfile
from pathlib import Path

import numpy as np

from ntxbound import cli

GOLDEN = Path(__file__).with_name("golden.json")
DESK = Path(__file__).resolve().parent.parent / "configs" / "train_desk.json"
TRAIN_SEEDS = (0, 1, 2)
#: A non-desk layout: a hidden ReLU layer before the encoder's linear output, and a one-layer projector.
LAYOUT = {"encoder_dims": [5, 7, 3], "projector_dims": [6]}
#: A step so large that the second step's latents are not finite: the run stops after one row, with exit code 1.
DIVERGE = {"learning_rate": 1e300}
#: A small verify grid at both ends of the accepted tau range, with a single pair and a single dimension.
GRID = {
    "ns": [1, 3],
    "ms": [1, 5],
    "taus": [1e-12, 10000.0],
    "distributions": ["uniform_sphere", "gaussian", "clustered"],
    "trials": 20,
    "seed": 3,
}

#: The stock verify and a small grid, the desk train at three seeds, in another layout and diverging, gradcheck at
#: a passing and a failing seed and at another shape and tau, and a report.
COMMANDS = {
    "verify": ["verify", "--out", "{tmp}/out/verify"],
    "verify_grid": ["verify", "--config", "{tmp}/grid.json", "--out", "{tmp}/out/verify_grid"],
    **{f"train{s}": ["train", "--config", f"{{tmp}}/desk{s}.json", "--out", f"{{tmp}}/out/train{s}"] for s in TRAIN_SEEDS},
    "train_layout": ["train", "--config", "{tmp}/layout.json", "--out", "{tmp}/out/train_layout"],
    "train_diverge": ["train", "--config", "{tmp}/diverge.json", "--out", "{tmp}/out/train_diverge"],
    **{f"gradcheck{s}": ["gradcheck", "--trials", "20", "--seed", str(s)] for s in (0, 2)},
    "gradcheck_shape": ["gradcheck", "--trials", "5", "--n-pairs", "3", "--dim", "5", "--tau", "0.05"],
    "report": ["report", "--trace", "{tmp}/out/train0/train_trace.csv", "--out", "{tmp}/out/report"],
}


def run_commands(tmp: Path, configs: dict, commands: dict) -> dict[str, bytes]:
    """Run ``commands`` in process, in order, after writing each config to ``tmp/<name>.json``.

    ``{tmp}`` in an argument, and ``tmp`` in what a command prints, read as
    the literal ``{tmp}``. Returns each command's exit code and stdout under
    its name, and each file written under ``tmp/out`` under its path there.
    """
    for name, config in configs.items():
        (tmp / f"{name}.json").write_text(json.dumps(config))
    outputs = {}
    for name, argv in commands.items():
        printed = io.StringIO()
        with contextlib.redirect_stdout(printed):
            code = cli.main([arg.format(tmp=tmp) for arg in argv])
        outputs[name] = f"{code}\n{printed.getvalue()}".replace(str(tmp), "{tmp}").encode()
    out = tmp / "out"
    outputs.update((p.relative_to(out).as_posix(), p.read_bytes()) for p in sorted(out.rglob("*")) if p.is_file())
    return outputs


def openblas_core() -> str:
    """The kernel numpy's bundled OpenBLAS runs, or "unknown" where numpy bundles no scipy-openblas."""
    for lib in sorted((Path(np.__file__).parent.parent / "numpy.libs").glob("libscipy_openblas*")):
        corename = getattr(ctypes.CDLL(str(lib)), "scipy_openblas_get_corename64_", None)
        if corename is not None:
            corename.argtypes, corename.restype = [], ctypes.c_char_p
            return corename().decode()
    return "unknown"


def environment_key() -> str:
    return f"numpy {np.__version__} / OpenBLAS {openblas_core()} / {platform.machine()}"


def digests(commands: dict = COMMANDS) -> dict[str, str]:
    """The digest of each output of ``commands``, a part of ``COMMANDS`` in its order or all of it."""
    desk = json.loads(DESK.read_text())
    configs = {f"desk{seed}": {**desk, "seed": seed} for seed in TRAIN_SEEDS}
    configs["layout"] = {**desk, **LAYOUT}
    configs["diverge"] = {**desk, **DIVERGE}
    configs["grid"] = GRID
    with tempfile.TemporaryDirectory() as tmp:
        outputs = run_commands(Path(tmp), configs, commands)
    return {name: hashlib.sha256(data).hexdigest() for name, data in outputs.items()}


def differences(committed: dict[str, str], now: dict[str, str]) -> list[str]:
    """One line per output whose digest was added, changed or is missing in ``now`` against ``committed``."""
    lines = []
    for name in sorted(committed.keys() | now.keys()):
        if name not in committed:
            lines.append(f"added {name}")
        elif name not in now:
            lines.append(f"missing {name}")
        elif committed[name] != now[name]:
            lines.append(f"changed {name}")
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--update", action="store_true", help="rewrite this environment's digests in golden.json")
    update = parser.parse_args(argv).update
    table = json.loads(GOLDEN.read_text()) if GOLDEN.exists() else {}
    key, now = environment_key(), digests()
    if key not in table:
        print(f"golden: no entry for {key}")
        diff = []
    else:
        diff = differences(table[key], now)
        print("\n".join(f"golden: {line}" for line in diff) or f"golden: all {len(now)} digests match for {key}")
    if update:
        table[key] = now
        GOLDEN.write_text(json.dumps(table, indent=2, sort_keys=True) + "\n")
        print(f"golden: wrote {len(now)} digests for {key}")
    return 1 if diff and not update else 0


if __name__ == "__main__":
    sys.exit(main())
