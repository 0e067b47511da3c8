"""Smoke test of the benchmark: result form, and checks that reject tampered outputs.

    python3 bench/smoke.py

Runs every workload for one second with and without tracing and compares the
result line with BENCHMARK.json. Runs the benchmark in a directory that holds
only BENCHMARK.json and bench/, where it must fail without a result. Then
feeds the output checks genuine program outputs, which they must accept, and
tampered copies, which they must reject. Exits 0 when all of this holds. It
takes about half a minute, so it is not part of the test suite.
"""

from __future__ import annotations

import contextlib
import dataclasses
import io
import json
import math
import re
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

import checks
import run

HERE = Path(__file__).resolve().parent
FAILURES: list[str] = []


def expect(ok: bool, what: str) -> None:
    print(f"{'ok  ' if ok else 'FAIL'} {what}")
    if not ok:
        FAILURES.append(what)


def bench(*args: str, cwd: Path = run.ROOT) -> subprocess.CompletedProcess:
    command = [sys.executable, str(cwd / "bench" / "run.py"), *args]
    return subprocess.run(command, cwd=cwd, capture_output=True, text=True, timeout=180)


def check_result_form(spec: dict) -> None:
    for workload in sorted(run.WORKLOADS):
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            done = bench("--workload", workload, "--seed", "7", "--seconds", "1", "--trace", str(trace))
            what = f"{workload} --trace {trace}"
            expect(done.returncode == 0, f"{what}: exit 0")
            result = json.loads(done.stdout.strip().splitlines()[-1])
            expect(set(result) == {"correct", "attempted", "failed", "metrics"}, f"{what}: result keys")
            expect(result["correct"] is True and result["failed"] == 0, f"{what}: correct, nothing failed")
            expect(isinstance(result["attempted"], int) and result["attempted"] >= 1, f"{what}: attempted >= 1")
            want = {m["name"]: m["unit"] for m in spec[key]}
            got = {name: m["unit"] for name, m in result["metrics"].items()}
            expect(got == want, f"{what}: metric names and units match BENCHMARK.json")
            values = [m["value"] for m in result["metrics"].values()]
            finite = all(isinstance(v, (int, float)) and math.isfinite(v) for v in values)
            expect(finite and (trace or all(v > 0 for v in values)), f"{what}: finite values, end-to-end above 0")


def check_needs_source(spec_path: Path) -> None:
    with tempfile.TemporaryDirectory(dir=run.ROOT / ".bench_out") as tmp:
        bare = Path(tmp)
        shutil.copy(spec_path, bare / "BENCHMARK.json")
        shutil.copytree(HERE, bare / "bench", ignore=shutil.ignore_patterns("__pycache__"))
        done = bench("--workload", "train_desk", "--seed", "1", "--seconds", "1", cwd=bare)
        expect(done.returncode != 0 and "{" not in done.stdout, "without src/: nonzero exit and no result")


def _cli(argv: list[str]) -> tuple[int, str]:
    from ntxbound import cli

    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        rc = cli.main(argv)
    return rc, out.getvalue()


def check_verify_tampering(out: Path) -> None:
    doc = {"ns": [2, 4], "ms": [8], "taus": [0.05, 1.0], "distributions": ["gaussian", "clustered"], "trials": 20, "seed": 3}
    (out / "verify.json").write_text(json.dumps(doc))
    rc, _ = _cli(["verify", "--config", str(out / "verify.json"), "--out", str(out)])
    summary = json.loads((out / "verify_summary.json").read_text())
    expect(checks.check_verify(rc, summary, doc, 20, 3) == [], "verify: genuine summary accepted")
    tampered = {
        "a violation": {"violations_strict": 1},
        "a lost trial": {"total_trials": summary["total_trials"] - 1},
        "strict gap above paper gap": {"min_strict_gap": summary["min_paper_gap"] + 1.0},
        "negative variant margin": {"min_variant_margin": -1e-6},
        "another seed": {"seed": 4},
    }
    for what, change in tampered.items():
        expect(checks.check_verify(rc, {**summary, **change}, doc, 20, 3) != [], f"verify: {what} rejected")
    expect(checks.check_verify(1, summary, doc, 20, 3) != [], "verify: exit 1 rejected")
    expect(checks.check_verify(0, None, doc, 20, 3) != [], "verify: missing summary rejected")


def _set_field(text: str, line: int, column: str, value: float) -> str:
    lines = text.splitlines()
    parts = lines[line].split(",")
    parts[checks.TRACE_COLUMNS.index(column)] = repr(value)
    lines[line] = ",".join(parts)
    return "\n".join(lines) + "\n"


def check_train_tampering(out: Path) -> None:
    doc = dict(run.TRAIN_DESK, steps=100, seed=5)
    (out / "train.json").write_text(json.dumps(doc))
    rc, _ = _cli(["train", "--config", str(out / "train.json"), "--out", str(out)])
    trace = (out / "train_trace.csv").read_text()
    summary = json.loads((out / "train_summary.json").read_text())
    expect(checks.check_train(rc, trace, summary, doc) == ([], 0), "train: genuine trace accepted")
    row = trace.splitlines()[10].split(",")
    paper, avg = float(row[5]), float(row[4])
    lines = trace.splitlines(keepends=True)
    tampered_rows = {
        "paper_bound off its closed form": _set_field(trace, 10, "paper_bound", paper + 1e-6),
        "a gap that is not bound minus average": _set_field(trace, 10, "paper_gap", paper - avg + 1e-6),
        "a broken decomposition identity": _set_field(trace, 10, "loss_alignment", float(row[2]) + 1e-6),
        "an average above the strict bound": _set_field(trace, 10, "avg_pos_sim", float(row[6]) + 1e-3),
    }
    for what, text in tampered_rows.items():
        problems, failed = checks.check_train(rc, text, summary, doc)
        expect(problems != [] and failed == 1, f"train: {what} fails its step")
    reversed_rows = [",".join([str(i), *line.split(",")[1:]]) for i, line in enumerate(trace.splitlines()[:0:-1])]
    tampered_runs = {
        "a missing step": ("".join(lines[:20] + lines[21:]), summary, "steps"),
        "a summary that disagrees": (trace, {**summary, "final_loss": summary["final_loss"] + 1e-3}, "summary"),
        "a loss that did not fall": ("\n".join([lines[0].rstrip(), *reversed_rows]) + "\n", summary, "last tenth"),
    }
    for what, (text, summ, needle) in tampered_runs.items():
        problems, failed = checks.check_train(rc, text, summ, doc)
        expect(any(needle in p for p in problems) and failed == doc["steps"], f"train: {what} fails every step")
    expect(checks.check_train(3, trace, summary, doc)[1] == doc["steps"], "train: exit 3 fails every step")


def check_gradcheck_tampering() -> None:
    rc, printout = _cli(["gradcheck", "--trials", "3"])
    expect(checks.check_gradcheck(rc, printout, 3) == ([], 0), "gradcheck: genuine printout accepted")
    lines = printout.splitlines(keepends=True)
    tampered = {
        "a missing trial line": ("".join(lines[1:]), 1),
        "an error above tolerance": (re.sub(r"(loss-level trial +1: worst rel err )\S+", r"\g<1>9.000e-01", printout), 1),
        "a FAIL verdict": (printout.replace("-> PASS", "-> FAIL"), 3),
        "an orthogonality defect": (re.sub(r"orthogonality max \S+", "orthogonality max 1.000e-06", printout), 3),
    }
    for what, (text, want) in tampered.items():
        problems, failed = checks.check_gradcheck(rc, text, 3)
        expect(problems != [] and failed == want, f"gradcheck: {what} fails {want} trial(s)")


def check_reference() -> None:
    import numpy as np
    from ntxbound import EmbeddingBatch, LossConfig, evaluate_batch

    rows = checks.draw_reference_rows(np.random.default_rng(0), 8, 8)
    evaluation = evaluate_batch(EmbeddingBatch(rows), LossConfig(tau=0.1))
    expect(checks.check_against_reference(evaluation, rows, 0.1) == [], "reference: program matches the plain formula")
    off = dataclasses.replace(evaluation.report, strict_bound=evaluation.report.strict_bound + 1e-6)
    expect(checks.check_against_reference(dataclasses.replace(evaluation, report=off), rows, 0.1) != [], "reference: a shifted strict bound is rejected")
    expect(checks.check_against_reference(evaluation, rows, 0.2) != [], "reference: a loss at another tau is rejected")


def main() -> int:
    spec_path = run.ROOT / "BENCHMARK.json"
    spec = json.loads(spec_path.read_text())
    sys.path.insert(0, str(run.ROOT / "src"))
    (run.ROOT / ".bench_out").mkdir(exist_ok=True)
    check_result_form(spec)
    check_needs_source(spec_path)
    with tempfile.TemporaryDirectory(dir=run.ROOT / ".bench_out") as tmp:
        check_verify_tampering(Path(tmp))
        check_train_tampering(Path(tmp))
    check_gradcheck_tampering()
    check_reference()
    print(f"smoke: {len(FAILURES)} failure(s)")
    return 1 if FAILURES else 0


if __name__ == "__main__":
    sys.exit(main())
