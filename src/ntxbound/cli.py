"""Command-line entry point: verify, gradcheck, train, report.

Exit codes: 0 success, 1 scientific failure (bound violation in verify,
divergence, gradient threshold breach), 2 usage or config error, 3 a bound
violated during training, 130 interrupted (Ctrl-C), 141 stdout closed before
the command finished (the code a shell gives a process that SIGPIPE ended).
Every command is deterministic given its config and seed; output files are
byte-identical across repeated runs.
"""

from __future__ import annotations

import argparse
import dataclasses
import math
import os
import sys
import typing
from pathlib import Path

from .bounds import VIOLATION_SLACK, VerifyGrid, default_grid, monte_carlo_verify
from .errors import (
    ConfigError,
    DimensionMismatchError,
    InvalidDatasetParamsError,
    InvalidGridError,
    InvalidTemperatureError,
    NonFiniteLossError,
)
from .serialize import (
    TRACE_COLUMNS,
    check_writable,
    format_float,
    load_json,
    read_trace_csv,
    trace_to_csv,
    write_json,
    write_text,
)
from .sim import _check_seed

# The trainer and gradcheck modules are imported by the functions that use them; `verify` and `report` load neither.
if typing.TYPE_CHECKING:
    from .trainer import TrainConfig

#: Exit code of a run whose stdout was closed before it finished, as in ``ntxb gradcheck | head -1``.
EXIT_BROKEN_PIPE = 141

#: Exit code of a run ended by Ctrl-C, the code a shell gives a process that SIGINT ended.
EXIT_INTERRUPTED = 130

_USAGE_ERRORS = (
    ConfigError,
    InvalidGridError,
    InvalidDatasetParamsError,
    InvalidTemperatureError,
    DimensionMismatchError,
)


# ----------------------------------------------------------------------
# Config documents (strict: unknown keys are errors)
# ----------------------------------------------------------------------


def _reject_unknown(doc: dict, allowed, ctx: str) -> None:
    unknown = sorted(set(doc) - set(allowed))
    if unknown:
        raise ConfigError(f"{ctx}: unknown keys {unknown}; allowed keys are {sorted(allowed)}")


def _get(doc: dict, key: str, ctx: str):
    if key not in doc:
        raise ConfigError(f"{ctx}: missing required key {key!r}")
    return doc[key]


def _as_int(value, ctx: str) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise ConfigError(f"{ctx}: expected an integer, got {value!r}")
    return value


def _as_num(value, ctx: str) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(f"{ctx}: expected a number, got {value!r}")
    try:
        return float(value)
    except OverflowError as exc:  # an integer beyond float64's range
        digits = len(str(value))
        raise ConfigError(f"{ctx}: expected a number within float range, got an integer of {digits} digits") from exc


def _as_str(value, ctx: str) -> str:
    if not isinstance(value, str):
        raise ConfigError(f"{ctx}: expected a string, got {value!r}")
    return value


def _as_list(value, ctx: str) -> list | tuple:
    if not isinstance(value, (list, tuple)) or not value:
        raise ConfigError(f"{ctx}: expected a nonempty array, got {value!r}")
    return value


_SCALARS = {int: _as_int, float: _as_num, str: _as_str}


def _load(hint, value, ctx: str):
    """Check a document value against a field's type hint and convert it.

    A dataclass is an object holding exactly its fields, each a required key;
    ``tuple[T, ...]`` is a nonempty array of T; int, float and str are scalars.
    """
    if dataclasses.is_dataclass(hint):
        if not isinstance(value, dict):
            raise ConfigError(f"{ctx} must be an object")
        names = [f.name for f in dataclasses.fields(hint)]
        _reject_unknown(value, names, ctx)
        hints = typing.get_type_hints(hint)
        return hint(**{name: _load(hints[name], _get(value, name, ctx), f"{ctx}: {name}") for name in names})
    if typing.get_origin(hint) is tuple:
        item = typing.get_args(hint)[0]
        return tuple(_load(item, v, ctx) for v in _as_list(value, ctx))
    return _SCALARS[hint](value, ctx)


def parse_verify_config(doc: dict) -> tuple[VerifyGrid, int, int]:
    """Validate a verify config document; returns (grid, trials, seed).

    Besides the grid's fields, ``trials`` (at least 1) is required and
    ``seed`` (a u64) defaults to 0.
    """
    ctx = "verify config"
    grid_keys = [f.name for f in dataclasses.fields(VerifyGrid)]
    _reject_unknown(doc, grid_keys + ["trials", "seed"], ctx)
    grid = _load(VerifyGrid, {k: doc[k] for k in grid_keys if k in doc}, ctx)
    trials = _as_int(_get(doc, "trials", ctx), f"{ctx}: trials")
    seed = _as_int(doc.get("seed", 0), f"{ctx}: seed")
    if trials < 1:
        raise ConfigError(f"{ctx}: trials must be >= 1, got {trials}")
    _check_seed(seed, ConfigError)
    return grid, trials, seed


def parse_train_config(doc: dict) -> TrainConfig:
    """Validate a train config document and build the TrainConfig."""
    from .trainer import TrainConfig

    return _load(TrainConfig, doc, "train config")


# ----------------------------------------------------------------------
# Commands
# ----------------------------------------------------------------------


def _outdir(path: str, names) -> Path:
    """Create the output directory and check each named output in it, before any work starts."""
    out = Path(path)
    try:
        out.mkdir(parents=True, exist_ok=True)
    except OSError as exc:  # a file in the way, or no permission
        raise ConfigError(f"cannot create output directory {out}: {exc}") from exc
    for name in names:
        check_writable(out / name)
    return out


def cmd_verify(args) -> int:
    if args.config is None:
        grid, trials, seed = default_grid(), 1000, 0
    else:
        grid, trials, seed = parse_verify_config(load_json(args.config))
    if args.seed is not None:
        seed = args.seed
    out = _outdir(args.out, ["verify_summary.json"])
    summary = monte_carlo_verify(grid, trials, seed)
    write_json(out / "verify_summary.json", dataclasses.asdict(summary))
    print(
        f"verify: cells={summary.cells} total_trials={summary.total_trials} "
        f"violations_paper={summary.violations_paper} violations_strict={summary.violations_strict} "
        f"min_paper_gap={format_float(summary.min_paper_gap)} min_strict_gap={format_float(summary.min_strict_gap)}"
    )
    return 0 if summary.ok else 1


def _print_trials(trials, line: str) -> tuple[float, float]:
    """Print each gradcheck trial as ``line.format(t=trial)`` as it comes; return the largest error and orthogonality.

    The maxima run as ``max`` over the whole sequence would take them, so no
    trial is kept.
    """
    worst = ortho = None
    for t in trials:
        print(line.format(t=t))
        worst = t.worst_rel_err if worst is None else max(worst, t.worst_rel_err)
        ortho = t.orthogonality if ortho is None else max(ortho, t.orthogonality)
    return worst, ortho


def cmd_gradcheck(args) -> int:
    from . import gradcheck as gc

    worst_loss, ortho_loss = _print_trials(
        gc.iter_loss_level(args.trials, n_pairs=args.n_pairs, dim=args.dim, tau=args.tau, seed=args.seed),
        "gradcheck loss-level trial {t.trial:3d}: worst rel err {t.worst_rel_err:.3e} at entry {t.worst_index}",
    )
    worst_e2e, ortho_e2e = _print_trials(
        gc.iter_end_to_end(args.trials, seed=args.seed),
        "gradcheck end-to-end trial {t.trial:3d}: worst rel err {t.worst_rel_err:.3e} at param {t.worst_index[0]}",
    )
    worst_ortho = max(ortho_loss, ortho_e2e)
    ok = worst_loss <= gc.LOSS_LEVEL_TOL and worst_e2e <= gc.END_TO_END_TOL
    print(
        f"gradcheck summary: loss-level max {worst_loss:.3e} (tol {gc.LOSS_LEVEL_TOL:g}), "
        f"end-to-end max {worst_e2e:.3e} (tol {gc.END_TO_END_TOL:g}), "
        f"orthogonality max {worst_ortho:.3e} -> {'PASS' if ok else 'FAIL'}"
    )
    return 0 if ok else 1


def _write_run(out: Path, trace, status: str, nonfinite=None) -> dict:
    """Write a run's trace, then its summary document, read from the trace's columns; returns the summary."""
    write_text(out / "train_trace.csv", trace_to_csv(trace))
    loss, avg = trace.loss_total.tolist(), trace.avg_pos_sim.tolist()
    paper, strict = trace.paper_gap.tolist(), trace.strict_gap.tolist()
    collapse_step = trace.collapse_step
    summary = {
        "status": status,
        "steps_completed": len(loss),
        "collapse": collapse_step is not None,
        "collapse_step": collapse_step,
        "initial_loss": loss[0] if loss else None,
        "final_loss": loss[-1] if loss else None,
        "initial_avg_pos_sim": avg[0] if avg else None,
        "final_avg_pos_sim": avg[-1] if avg else None,
        "final_paper_gap": paper[-1] if paper else None,
        "final_strict_gap": strict[-1] if strict else None,
        "min_paper_gap": min(paper) if paper else None,
        "min_strict_gap": min(strict) if strict else None,
        "nonfinite_step": nonfinite.step if nonfinite else None,
        "nonfinite_reason": nonfinite.reason if nonfinite else None,
    }
    write_json(out / "train_summary.json", summary)
    return summary


def cmd_train(args) -> int:
    from .trainer import train

    cfg = parse_train_config(load_json(args.config))
    out = _outdir(args.out, ["train_trace.csv", "train_summary.json"])
    nonfinite = None
    try:
        trace = train(cfg)
    except NonFiniteLossError as exc:
        nonfinite = exc
        trace = exc.trace
    except KeyboardInterrupt as exc:
        if hasattr(exc, "trace"):  # the trace of the steps completed, if the run had begun
            _write_run(out, exc.trace, "interrupted")
        raise

    status = "ok" if nonfinite is None else "nonfinite_loss"
    summary = _write_run(out, trace, status, nonfinite)

    violated = bool((trace.paper_gap < -VIOLATION_SLACK).any() or (trace.strict_gap < -VIOLATION_SLACK).any())
    if len(trace):
        print(
            f"train: status={status} steps={len(trace)} final_loss={format_float(summary['final_loss'])} "
            f"min_strict_gap={format_float(summary['min_strict_gap'])} "
            f"collapse={summary['collapse']}"
        )
    else:
        print(f"train: status={status} steps=0")
    if violated:
        print("train: similarity bound violated during training", file=sys.stderr)
        return 3
    if nonfinite is not None:
        print(f"train: diverged at step {nonfinite.step}: {nonfinite.reason}", file=sys.stderr)
        return 1
    return 0


def report_aggregates(columns: dict) -> dict:
    """Min/mean/final for both gap series of a trace's columns; the mean is fsum's correctly rounded sum of v / n."""
    agg = {}
    for col in ("paper_gap", "strict_gap"):
        series = columns[col]
        agg[col] = {"min": min(series), "mean": math.fsum(v / len(series) for v in series), "final": series[-1]}
    return agg


def cmd_report(args) -> int:
    columns = read_trace_csv(args.trace)
    series = {metric: f"series_{metric}.csv" for metric in TRACE_COLUMNS[1:]}
    out = _outdir(args.out, [*series.values(), "gap_tightness.json"])
    aggregates = report_aggregates(columns)
    for metric, name in series.items():
        rows = (f"{metric},{step},{format_float(value)}" for step, value in zip(columns["step"], columns[metric]))
        write_text(out / name, "\n".join(["metric,step,value", *rows, ""]))  # "" ends the text with a newline
    write_json(out / "gap_tightness.json", aggregates)
    print(f"report: {len(columns['step'])} steps, {len(TRACE_COLUMNS) - 1} series files written to {out}")
    return 0


# ----------------------------------------------------------------------
# Parser and entry point
# ----------------------------------------------------------------------


def _seed_type(value: str) -> int:
    seed = int(value)
    _check_seed(seed, argparse.ArgumentTypeError)
    return seed


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="ntxb", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("verify", help="Monte Carlo check of both similarity-bound variants")
    p.add_argument("--config", help="verify grid JSON (omit for the default grid)")
    p.add_argument("--seed", type=_seed_type, help="override the config seed")
    p.add_argument("--out", default=".", help="output directory (default: current)")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("gradcheck", help="finite-difference check of the analytic gradients")
    p.add_argument("--trials", type=int, default=100, help="trials at each level (default: 100)")
    p.add_argument("--seed", type=_seed_type, default=0, help="seed of every trial's draws, a u64 (default: 0)")
    p.add_argument("--n-pairs", type=int, default=4, help="loss-level pairs N; end to end is N=2 (default: 4)")
    p.add_argument("--dim", type=int, default=8, help="loss-level latent dimension m (default: 8)")
    p.add_argument("--tau", type=float, default=0.5, help="loss-level temperature; end to end is 0.5 (default: 0.5)")
    p.set_defaults(func=cmd_gradcheck)

    p = sub.add_parser("train", help="desk-scale contrastive training run with bound instrumentation")
    p.add_argument("--config", required=True, help="train config JSON")
    p.add_argument("--out", required=True, help="output directory for trace CSV and summary JSON")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("report", help="plot-ready per-metric series from a trace CSV")
    p.add_argument("--trace", required=True, help="trace CSV produced by `ntxb train`")
    p.add_argument("--out", required=True, help="output directory for series files")
    p.set_defaults(func=cmd_report)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse handles usage errors and --help itself
        return int(exc.code or 0)
    try:
        return args.func(args)
    except _USAGE_ERRORS as exc:
        print(f"ntxb {args.command}: {exc}", file=sys.stderr)
        return 2
    except KeyboardInterrupt as exc:
        exc.command = args.command  # for entry's one line; the interrupt goes on, so a caller's loop ends too
        raise


def entry() -> None:
    """The console script: exit with :func:`main`'s code, EXIT_BROKEN_PIPE when stdout was closed early, or
    EXIT_INTERRUPTED with one stderr line on Ctrl-C."""
    try:
        code = main()
        sys.stdout.flush()  # a pipe closed after the last print shows here, not in the flush at exit
    except BrokenPipeError:
        # As the Python docs' note on SIGPIPE does: point stdout at devnull, so the flush at exit cannot fail again.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        code = EXIT_BROKEN_PIPE
    except KeyboardInterrupt as exc:
        command = getattr(exc, "command", None)
        print(f"ntxb {command}: interrupted" if command else "ntxb: interrupted", file=sys.stderr)
        code = EXIT_INTERRUPTED
    sys.exit(code)
