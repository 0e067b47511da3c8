"""Command-line entry point: verify, gradcheck, train, report.

Exit codes: 0 success, 1 scientific failure (bound violation in verify,
divergence, gradient threshold breach), 2 usage or config error, 3 a bound
violated during training. Every command is deterministic given its config and
seed; output files are byte-identical across repeated runs.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from . import gradcheck as gc
from .bounds import VIOLATION_SLACK, VerifyGrid, default_grid, monte_carlo_verify
from .errors import (
    ConfigError,
    DimensionMismatchError,
    InvalidDatasetParamsError,
    InvalidGridError,
    InvalidTemperatureError,
    NonFiniteLossError,
)
from .serialize import TRACE_COLUMNS, format_float, load_json, read_trace_csv, trace_to_csv, write_json
from .trainer import AugmentConfig, DatasetParams, TrainConfig, train

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
    return float(value)


def _as_list(value, ctx: str) -> list:
    if not isinstance(value, list) or not value:
        raise ConfigError(f"{ctx}: expected a nonempty array, got {value!r}")
    return value


def parse_verify_config(doc: dict) -> tuple[VerifyGrid, int, int]:
    """Validate a verify config document; returns (grid, trials, seed)."""
    _reject_unknown(doc, {"ns", "ms", "taus", "distributions", "trials", "seed"}, "verify config")
    ns = tuple(_as_int(v, "verify config: ns") for v in _as_list(_get(doc, "ns", "verify config"), "verify config: ns"))
    ms = tuple(_as_int(v, "verify config: ms") for v in _as_list(_get(doc, "ms", "verify config"), "verify config: ms"))
    taus = tuple(_as_num(v, "verify config: taus") for v in _as_list(_get(doc, "taus", "verify config"), "verify config: taus"))
    dists = _as_list(_get(doc, "distributions", "verify config"), "verify config: distributions")
    for d in dists:
        if not isinstance(d, str):
            raise ConfigError(f"verify config: distributions must be strings, got {d!r}")
    trials = _as_int(_get(doc, "trials", "verify config"), "verify config: trials")
    seed = _as_int(doc.get("seed", 0), "verify config: seed")
    return VerifyGrid(ns=ns, ms=ms, taus=taus, distributions=tuple(dists)), trials, seed


def parse_train_config(doc: dict) -> TrainConfig:
    """Validate a train config document and build the TrainConfig."""
    _reject_unknown(
        doc,
        {
            "n_pairs",
            "input_dim",
            "encoder_dims",
            "projector_dims",
            "tau",
            "learning_rate",
            "steps",
            "seed",
            "augment",
            "dataset",
        },
        "train config",
    )
    aug_doc = _get(doc, "augment", "train config")
    if not isinstance(aug_doc, dict):
        raise ConfigError("train config: augment must be an object")
    _reject_unknown(aug_doc, {"noise_sigma", "dropout_prob"}, "train config: augment")
    data_doc = _get(doc, "dataset", "train config")
    if not isinstance(data_doc, dict):
        raise ConfigError("train config: dataset must be an object")
    _reject_unknown(data_doc, {"clusters", "spread", "points"}, "train config: dataset")

    return TrainConfig(
        n_pairs=_as_int(_get(doc, "n_pairs", "train config"), "train config: n_pairs"),
        input_dim=_as_int(_get(doc, "input_dim", "train config"), "train config: input_dim"),
        encoder_dims=tuple(
            _as_int(v, "train config: encoder_dims")
            for v in _as_list(_get(doc, "encoder_dims", "train config"), "train config: encoder_dims")
        ),
        projector_dims=tuple(
            _as_int(v, "train config: projector_dims")
            for v in _as_list(_get(doc, "projector_dims", "train config"), "train config: projector_dims")
        ),
        tau=_as_num(_get(doc, "tau", "train config"), "train config: tau"),
        learning_rate=_as_num(_get(doc, "learning_rate", "train config"), "train config: learning_rate"),
        steps=_as_int(_get(doc, "steps", "train config"), "train config: steps"),
        seed=_as_int(_get(doc, "seed", "train config"), "train config: seed"),
        augment=AugmentConfig(
            noise_sigma=_as_num(_get(aug_doc, "noise_sigma", "train config: augment"), "train config: noise_sigma"),
            dropout_prob=_as_num(_get(aug_doc, "dropout_prob", "train config: augment"), "train config: dropout_prob"),
        ),
        dataset=DatasetParams(
            clusters=_as_int(_get(data_doc, "clusters", "train config: dataset"), "train config: clusters"),
            spread=_as_num(_get(data_doc, "spread", "train config: dataset"), "train config: spread"),
            points=_as_int(_get(data_doc, "points", "train config: dataset"), "train config: points"),
        ),
    )


def train_config_to_dict(cfg: TrainConfig) -> dict:
    """Config document form of a TrainConfig (fixed key order)."""
    return {
        "n_pairs": cfg.n_pairs,
        "input_dim": cfg.input_dim,
        "encoder_dims": list(cfg.encoder_dims),
        "projector_dims": list(cfg.projector_dims),
        "tau": cfg.tau,
        "learning_rate": cfg.learning_rate,
        "steps": cfg.steps,
        "seed": cfg.seed,
        "augment": {"noise_sigma": cfg.augment.noise_sigma, "dropout_prob": cfg.augment.dropout_prob},
        "dataset": {"clusters": cfg.dataset.clusters, "spread": cfg.dataset.spread, "points": cfg.dataset.points},
    }


# ----------------------------------------------------------------------
# Commands
# ----------------------------------------------------------------------


def _outdir(path: str) -> Path:
    out = Path(path)
    out.mkdir(parents=True, exist_ok=True)
    return out


def cmd_verify(args) -> int:
    if args.config is None:
        grid, trials, seed = default_grid(), 1000, 0
    else:
        grid, trials, seed = parse_verify_config(load_json(args.config))
    if args.seed is not None:
        seed = args.seed
    summary = monte_carlo_verify(grid, trials, seed)
    out = _outdir(args.out)
    write_json(out / "verify_summary.json", summary.to_dict())
    print(
        f"verify: cells={summary.cells} total_trials={summary.total_trials} "
        f"violations_paper={summary.violations_paper} violations_strict={summary.violations_strict} "
        f"min_paper_gap={format_float(summary.min_paper_gap)} min_strict_gap={format_float(summary.min_strict_gap)}"
    )
    return 0 if summary.ok else 1


def cmd_gradcheck(args) -> int:
    if args.trials < 1:
        raise ConfigError(f"--trials must be >= 1, got {args.trials}")
    if args.n_pairs < 1 or args.dim < 1:
        raise ConfigError("--n-pairs and --dim must be >= 1")

    loss_trials = gc.loss_level_check(
        args.trials, n_pairs=args.n_pairs, dim=args.dim, tau=args.tau, seed=args.seed, corrupt=args.corrupt_gradient
    )
    e2e_trials = gc.end_to_end_check(args.trials, seed=args.seed)

    for t in loss_trials:
        print(f"gradcheck loss-level trial {t.trial:3d}: worst rel err {t.worst_rel_err:.3e} at entry {t.worst_index}")
    for t in e2e_trials:
        print(f"gradcheck end-to-end trial {t.trial:3d}: worst rel err {t.worst_rel_err:.3e} at param {t.worst_index[0]}")

    worst_loss = max(t.worst_rel_err for t in loss_trials)
    worst_e2e = max(t.worst_rel_err for t in e2e_trials)
    worst_ortho = max(max(t.orthogonality for t in loss_trials), max(t.orthogonality for t in e2e_trials))
    ok = worst_loss <= gc.LOSS_LEVEL_TOL and worst_e2e <= gc.END_TO_END_TOL
    print(
        f"gradcheck summary: loss-level max {worst_loss:.3e} (tol {gc.LOSS_LEVEL_TOL:g}), "
        f"end-to-end max {worst_e2e:.3e} (tol {gc.END_TO_END_TOL:g}), "
        f"orthogonality max {worst_ortho:.3e} -> {'PASS' if ok else 'FAIL'}"
    )
    return 0 if ok else 1


def _train_summary(trace_records, collapse_step, status: str, nonfinite=None) -> dict:
    recs = trace_records
    summary = {
        "status": status,
        "steps_completed": len(recs),
        "collapse": collapse_step is not None,
        "collapse_step": collapse_step,
        "initial_loss": recs[0].loss_total if recs else None,
        "final_loss": recs[-1].loss_total if recs else None,
        "initial_avg_pos_sim": recs[0].avg_pos_sim if recs else None,
        "final_avg_pos_sim": recs[-1].avg_pos_sim if recs else None,
        "final_paper_gap": recs[-1].paper_gap if recs else None,
        "final_strict_gap": recs[-1].strict_gap if recs else None,
        "min_paper_gap": min(r.paper_gap for r in recs) if recs else None,
        "min_strict_gap": min(r.strict_gap for r in recs) if recs else None,
        "nonfinite_step": nonfinite.step if nonfinite else None,
        "nonfinite_reason": nonfinite.reason if nonfinite else None,
    }
    return summary


def cmd_train(args) -> int:
    cfg = parse_train_config(load_json(args.config))
    out = _outdir(args.out)
    nonfinite = None
    try:
        trace = train(cfg)
    except NonFiniteLossError as exc:
        nonfinite = exc
        trace = exc.trace

    records = trace.records if trace is not None else []
    collapse_step = trace.collapse_step if trace is not None else None
    status = "ok" if nonfinite is None else "nonfinite_loss"

    (out / "train_trace.csv").write_text(trace_to_csv(records), encoding="utf-8")
    write_json(out / "train_summary.json", _train_summary(records, collapse_step, status, nonfinite))

    violated = any(r.paper_gap < -VIOLATION_SLACK or r.strict_gap < -VIOLATION_SLACK for r in records)
    if records:
        print(
            f"train: status={status} steps={len(records)} final_loss={format_float(records[-1].loss_total)} "
            f"min_strict_gap={format_float(min(r.strict_gap for r in records))} "
            f"collapse={collapse_step is not None}"
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


def report_aggregates(rows: list[dict]) -> dict:
    """Min/mean/final for both gap series of a parsed trace."""
    agg = {}
    for col in ("paper_gap", "strict_gap"):
        series = [row[col] for row in rows]
        agg[col] = {"min": min(series), "mean": sum(series) / len(series), "final": series[-1]}
    return agg


def cmd_report(args) -> int:
    rows = read_trace_csv(args.trace)
    out = _outdir(args.out)
    for metric in TRACE_COLUMNS[1:]:
        lines = ["metric,step,value"]
        lines += [f"{metric},{row['step']},{format_float(row[metric])}" for row in rows]
        (out / f"series_{metric}.csv").write_text("\n".join(lines) + "\n", encoding="utf-8")
    write_json(out / "gap_tightness.json", report_aggregates(rows))
    print(f"report: {len(rows)} steps, {len(TRACE_COLUMNS) - 1} series files written to {out}")
    return 0


# ----------------------------------------------------------------------
# Parser and entry point
# ----------------------------------------------------------------------


def _seed_type(value: str) -> int:
    seed = int(value)
    if seed < 0 or seed >= 2**64:
        raise argparse.ArgumentTypeError(f"seed must fit in u64, got {value}")
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
    p.add_argument("--trials", type=int, default=100)
    p.add_argument("--seed", type=_seed_type, default=0)
    p.add_argument("--n-pairs", type=int, default=4, dest="n_pairs")
    p.add_argument("--dim", type=int, default=8)
    p.add_argument("--tau", type=float, default=0.5)
    p.add_argument("--corrupt-gradient", action="store_true", help=argparse.SUPPRESS)  # test hook
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


def entry() -> None:
    sys.exit(main())
