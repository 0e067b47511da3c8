"""Output checks for the benchmark workloads.

Every check compares the program against the paper's formulas or against a
property the method must have; none compares against a stored copy of an
earlier output. Each check returns a list of problems (empty when the output
is correct) and, where outputs map to single operations, which of them failed.
"""

from __future__ import annotations

import csv
import io
import math
import re

#: Absolute slack the program itself allows before calling a bound violated.
SLACK = 1e-9

#: Relative tolerance between the program's loss and the plain reference.
REFERENCE_RTOL = 1e-9

#: Gradcheck tolerances documented for `ntxb gradcheck`.
LOSS_LEVEL_TOL = 1e-5
END_TO_END_TOL = 1e-4

#: An analytic gradient row dotted with its latent must vanish up to rounding.
ORTHOGONALITY_TOL = 1e-12

TRACE_COLUMNS = (
    "step",
    "loss_total",
    "loss_alignment",
    "loss_distribution",
    "avg_pos_sim",
    "paper_bound",
    "strict_bound",
    "paper_gap",
    "strict_gap",
    "grad_norm",
)


def _close(a: float, b: float, rtol: float) -> bool:
    return abs(a - b) <= rtol * max(1.0, abs(a), abs(b))


# ----------------------------------------------------------------------
# Independent reference, written from the formulas in plain Python
# ----------------------------------------------------------------------


def reference_evaluation(rows, tau: float) -> dict:
    """NT-Xent with one anchor per pair, average positive similarity, and both bounds.

    ``rows`` is a list of 2N vectors in pairing order (rows 2t and 2t+1 form
    pair t). For anchor a = 2t with x[a, k] = cos(z_a, z_k) / tau:
    loss = (1/N) sum_a (-x[a, a+1] + log sum_{k != a} exp x[a, k]);
    paper = tau log 2N - tau loss + 1 (the self column always attains the max);
    strict = tau log(2N - 1) - tau loss + (tau/N) sum_a max_{k != a} x[a, k].
    """
    unit = []
    for r in rows:
        norm = math.sqrt(math.fsum(v * v for v in r))
        unit.append([v / norm for v in r])
    n_rows = len(unit)
    n = n_rows // 2

    def cos(i: int, k: int) -> float:
        return min(1.0, max(-1.0, math.fsum(a * b for a, b in zip(unit[i], unit[k]))))

    terms, maxes, pos = [], [], []
    for a in range(0, n_rows, 2):
        others = [cos(a, k) / tau for k in range(n_rows) if k != a]
        top = max(others)
        lse = top + math.log(math.fsum(math.exp(v - top) for v in others))
        pos.append(cos(a, a + 1))
        terms.append(lse - pos[-1] / tau)
        maxes.append(top)
    loss = math.fsum(terms) / n
    return {
        "loss": loss,
        "avg_pos_sim": math.fsum(pos) / n,
        "paper_bound": tau * math.log(2 * n) - tau * loss + 1.0,
        "strict_bound": tau * math.log(2 * n - 1) - tau * loss + tau * math.fsum(maxes) / n,
    }


def check_against_reference(evaluation, rows, tau: float) -> list[str]:
    """Compare one program ``BatchEvaluation`` with the plain reference on the same rows."""
    ref = reference_evaluation(rows, tau)
    shape = f"N={len(rows) // 2} m={len(rows[0])} tau={tau}"
    bd, rep = evaluation.breakdown, evaluation.report
    problems = []
    if not _close(bd.total, ref["loss"], REFERENCE_RTOL):
        problems.append(f"reference {shape}: loss {bd.total!r} != reference {ref['loss']!r}")
    if not _close(bd.total, bd.alignment + bd.distribution, 1e-10):
        problems.append(f"reference {shape}: total != alignment + distribution")
    for key in ("avg_pos_sim", "paper_bound", "strict_bound"):
        if not _close(getattr(rep, key), ref[key], REFERENCE_RTOL):
            problems.append(f"reference {shape}: {key} {getattr(rep, key)!r} != reference {ref[key]!r}")
    closed = tau * math.log(len(rows)) - tau * bd.total + 1.0
    if not _close(rep.paper_bound, closed, 1e-12):
        problems.append(f"reference {shape}: paper_bound {rep.paper_bound!r} != closed form {closed!r}")
    if not (rep.avg_pos_sim <= rep.strict_bound + SLACK and rep.strict_bound <= rep.paper_bound + SLACK):
        problems.append(f"reference {shape}: avg <= strict <= paper does not hold")
    return problems


def draw_reference_rows(rng, n_pairs: int, dim: int) -> list[list[float]]:
    """A batch the benchmark draws itself: clustered pairs with per-row scales over six decades."""
    bases = rng.standard_normal((n_pairs, dim))
    noise = rng.choice([1e-3, 0.1, 1.0]) * rng.standard_normal((2 * n_pairs, dim))
    rows = bases.repeat(2, axis=0) + noise
    rows *= 10.0 ** rng.uniform(-3.0, 3.0, size=(2 * n_pairs, 1))
    return rows.tolist()


# ----------------------------------------------------------------------
# ntxb verify
# ----------------------------------------------------------------------


def check_verify(rc: int, summary: dict | None, grid: dict, trials: int, seed: int) -> list[str]:
    """A verify summary must report the requested grid, every trial, and no violation."""
    if summary is None:
        return [f"verify: exit {rc} and no summary written"]
    problems = []
    if rc != 0:
        problems.append(f"verify: exit code {rc}")
    cells = len(grid["ns"]) * len(grid["ms"]) * len(grid["taus"]) * len(grid["distributions"])
    expected = {
        "grid": {key: grid[key] for key in ("ns", "ms", "taus", "distributions")},
        "seed": seed,
        "trials_per_cell": trials,
        "cells": cells,
        "total_trials": cells * trials,
        "violations_paper": 0,
        "violations_strict": 0,
    }
    for key, want in expected.items():
        if summary.get(key) != want:
            problems.append(f"verify: {key} is {summary.get(key)!r}, expected {want!r}")
    try:
        paper, strict, margin = (float(summary[k]) for k in ("min_paper_gap", "min_strict_gap", "min_variant_margin"))
    except (KeyError, TypeError, ValueError):
        return problems + ["verify: summary lacks a numeric minimum gap or margin"]
    if not strict <= paper:
        problems.append(f"verify: min_strict_gap {strict!r} > min_paper_gap {paper!r}")
    if not margin >= 0.0:
        problems.append(f"verify: min_variant_margin {margin!r} < 0")
    if not strict >= -SLACK:
        problems.append(f"verify: min_strict_gap {strict!r} is a violation the counts do not report")
    return problems


# ----------------------------------------------------------------------
# ntxb train
# ----------------------------------------------------------------------


def _parse_trace(text: str) -> tuple[list[dict], list[str]]:
    reader = csv.reader(io.StringIO(text))
    header = tuple(next(reader, ()))
    if header != TRACE_COLUMNS:
        return [], [f"train: trace header {header!r}"]
    rows, problems = [], []
    for lineno, parts in enumerate(reader, start=2):
        try:
            row = {"step": int(parts[0])}
            row.update((col, float(v)) for col, v in zip(TRACE_COLUMNS[1:], parts[1:], strict=True))
        except (IndexError, ValueError) as exc:
            problems.append(f"train: trace line {lineno}: {exc!r}")
            continue
        rows.append(row)
    return rows, problems


def _row_problems(row: dict, n_pairs: int, tau: float) -> list[str]:
    step = row["step"]
    total, avg, paper, strict = row["loss_total"], row["avg_pos_sim"], row["paper_bound"], row["strict_bound"]
    out = []
    if not all(math.isfinite(v) for v in row.values()):
        return [f"train step {step}: non-finite value"]
    if not _close(total, row["loss_alignment"] + row["loss_distribution"], 1e-10):
        out.append(f"train step {step}: loss_total != loss_alignment + loss_distribution")
    closed = tau * math.log(2 * n_pairs) - tau * total + 1.0
    if not _close(paper, closed, 1e-12):
        out.append(f"train step {step}: paper_bound {paper!r} != closed form {closed!r}")
    if not _close(row["paper_gap"], paper - avg, 1e-12) or not _close(row["strict_gap"], strict - avg, 1e-12):
        out.append(f"train step {step}: a gap is not bound minus avg_pos_sim")
    if not (-1.0 <= avg <= strict + SLACK and strict <= paper + SLACK):
        out.append(f"train step {step}: -1 <= avg <= strict <= paper does not hold")
    if not row["grad_norm"] >= 0.0:
        out.append(f"train step {step}: negative grad_norm")
    return out


def _summary_problems(summary: dict | None, rows: list[dict]) -> list[str]:
    if summary is None:
        return ["train: no summary written"]
    first, last = rows[0], rows[-1]
    expected = {
        "status": "ok",
        "steps_completed": len(rows),
        "initial_loss": first["loss_total"],
        "final_loss": last["loss_total"],
        "initial_avg_pos_sim": first["avg_pos_sim"],
        "final_avg_pos_sim": last["avg_pos_sim"],
        "final_paper_gap": last["paper_gap"],
        "final_strict_gap": last["strict_gap"],
        "min_paper_gap": min(r["paper_gap"] for r in rows),
        "min_strict_gap": min(r["strict_gap"] for r in rows),
        "nonfinite_step": None,
    }
    problems = [
        f"train: summary {key} is {summary.get(key)!r}, trace says {want!r}"
        for key, want in expected.items()
        if summary.get(key) != want
    ]
    if summary.get("collapse") != (summary.get("collapse_step") is not None):
        problems.append("train: summary collapse flag disagrees with collapse_step")
    return problems


def check_train(rc: int, trace_text: str | None, summary: dict | None, cfg: dict) -> tuple[list[str], int]:
    """Check a train run step by step; returns (problems, failed steps).

    A row that breaks a per-step identity fails its own step. A wrong exit
    code, a missing or misnumbered step, a summary that disagrees with the
    trace, or a loss that did not fall fails every step of the run.
    """
    steps = cfg["steps"]
    if trace_text is None:
        return [f"train: exit {rc} and no trace written"], steps
    rows, problems = _parse_trace(trace_text)
    if problems or [r["step"] for r in rows] != list(range(steps)):
        return problems + [f"train: trace steps are not 0..{steps - 1}"], steps
    failed = 0
    for row in rows:
        row_problems = _row_problems(row, cfg["n_pairs"], cfg["tau"])
        failed += bool(row_problems)
        problems += row_problems
    run_problems = [] if rc == 0 else [f"train: exit code {rc}"]
    run_problems += _summary_problems(summary, rows)
    tenth = max(1, steps // 10)
    head = math.fsum(r["loss_total"] for r in rows[:tenth]) / tenth
    tail = math.fsum(r["loss_total"] for r in rows[-tenth:]) / tenth
    if not tail < head:
        run_problems.append(f"train: mean loss of the last tenth {tail!r} is not below the first tenth {head!r}")
    if run_problems:
        failed = steps
    return problems + run_problems, failed


# ----------------------------------------------------------------------
# ntxb gradcheck
# ----------------------------------------------------------------------

_TRIAL_LINE = re.compile(r"gradcheck (loss-level|end-to-end) trial\s+(\d+): worst rel err (\S+) at ")
_SUMMARY_LINE = re.compile(r"gradcheck summary: .* orthogonality max (\S+) -> (PASS|FAIL)$")


def check_gradcheck(rc: int, stdout: str, trials: int) -> tuple[list[str], int]:
    """Check gradcheck's printout; returns (problems, failed trials).

    Each trial needs exactly one line per level with an error inside that
    level's tolerance. A wrong exit code, a missing PASS, or an orthogonality
    defect above rounding level fails every trial.
    """
    tol = {"loss-level": LOSS_LEVEL_TOL, "end-to-end": END_TO_END_TOL}
    seen = {level: {} for level in tol}
    summary = None
    for line in stdout.splitlines():
        if m := _TRIAL_LINE.match(line):
            seen[m[1]].setdefault(int(m[2]), []).append(float(m[3]))
        elif m := _SUMMARY_LINE.match(line):
            summary = m
    problems, bad = [], set()
    for level, by_trial in seen.items():
        for trial in range(trials):
            errs = by_trial.get(trial, [])
            if len(errs) != 1 or not errs[0] <= tol[level]:
                problems.append(f"gradcheck {level} trial {trial}: errors {errs}, tolerance {tol[level]:g}")
                bad.add(trial)
    run_problems = [] if rc == 0 else [f"gradcheck: exit code {rc}"]
    extra = sorted({t for by_trial in seen.values() for t in by_trial} - set(range(trials)))
    if extra:
        run_problems.append(f"gradcheck: lines for trials {extra} that were not asked for")
    if summary is None:
        run_problems.append("gradcheck: no summary line")
    else:
        if summary[2] != "PASS":
            run_problems.append("gradcheck: summary says FAIL")
        if not float(summary[1]) <= ORTHOGONALITY_TOL:
            run_problems.append(f"gradcheck: orthogonality max {summary[1]} above {ORTHOGONALITY_TOL:g}")
    return problems + run_problems, trials if run_problems else len(bad)
