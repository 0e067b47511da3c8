"""Acceptance suite: one test per exit criterion, one printed PASS/FAIL line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines. Every tolerance is pinned here; the heavy Monte Carlo and training
criteria drive the CLI so that determinism can be checked on the actual
output files.
"""

import dataclasses
import json
import math
import time

import numpy as np
import pytest

from ntxbound import (
    EmbeddingBatch,
    LossConfig,
    forward,
    lse_bounds,
    nt_xent,
    nt_xent_grad,
    similarity_bound,
)
from ntxbound.cli import main
from ntxbound.serialize import dumps, parse_trace_csv
from ntxbound.trainer import TrainConfig
from oracle import init_net, latent_fd, param_grads, unit_rms, worst_rel_error

LOG3 = 1.0986122886681098


def _finish(num: int, label: str, elapsed: float, limit: float, checks: list):
    if limit is not None:
        checks.append((elapsed < limit, f"runtime {elapsed:.2f}s exceeds {limit:.0f}s"))
    failures = [msg for ok, msg in checks if not ok]
    verdict = "PASS" if not failures else "FAIL: " + "; ".join(failures)
    print(f"[acceptance] criterion {num} ({label}): {verdict} [{elapsed:.2f}s]")
    assert not failures, f"criterion {num}: {failures}"


# ----------------------------------------------------------------------
# Shared CLI runs (criteria 3 and 6 assert on them; criterion 7 repeats them)
# ----------------------------------------------------------------------


@pytest.fixture(scope="module")
def desk_config_path(tmp_path_factory):
    path = tmp_path_factory.mktemp("config") / "desk_train.json"
    path.write_text(dumps(dataclasses.asdict(TrainConfig())), encoding="utf-8")
    return path


@pytest.fixture(scope="module")
def verify_run(tmp_path_factory):
    out = tmp_path_factory.mktemp("verify_a")
    start = time.monotonic()
    rc = main(["verify", "--seed", "0", "--out", str(out)])
    return out, rc, time.monotonic() - start


@pytest.fixture(scope="module")
def train_run(tmp_path_factory, desk_config_path):
    out = tmp_path_factory.mktemp("train_a")
    start = time.monotonic()
    rc = main(["train", "--config", str(desk_config_path), "--out", str(out)])
    return out, rc, time.monotonic() - start


# ----------------------------------------------------------------------
# Criterion 1: the alignment/distribution split reproduces the loss
# ----------------------------------------------------------------------


def test_criterion_1_decomposition_identity():
    start = time.monotonic()
    rng = np.random.default_rng(1001)
    max_resid = 0.0
    for _ in range(1000):
        n_pairs = int(rng.integers(2, 33))
        m = int(rng.integers(2, 65))
        tau = float(rng.uniform(0.05, 1.0))
        bd = nt_xent(EmbeddingBatch(rng.standard_normal((2 * n_pairs, m))), LossConfig(tau))
        max_resid = max(max_resid, abs(bd.total - (bd.alignment + bd.distribution)) / max(1.0, abs(bd.total)))
    elapsed = time.monotonic() - start
    checks = [(max_resid <= 1e-10, f"worst relative residual {max_resid:.3e} > 1e-10")]
    _finish(1, "decomposition identity, 1000 batches", elapsed, 10.0, checks)


# ----------------------------------------------------------------------
# Criterion 2: LSE sandwich over 10^4 vectors, magnitudes to 1e3
# ----------------------------------------------------------------------


def test_criterion_2_lse_sandwich():
    """Strictness of value > lower is asserted wherever the analytic margin is
    representable in float64 at the vector's magnitude; beyond that the margin
    underflows against ulp(max) and the sandwich closes with equality, which
    is the best 64-bit arithmetic can express."""
    start = time.monotonic()
    rng = np.random.default_rng(1002)
    sandwich_bad = strict_bad = upper_bad = 0
    strict_checked = saturated = allequal_seen = 0
    allequal_err = 0.0
    for i in range(10_000):
        n = int(rng.integers(1, 129))
        scale = 10.0 ** rng.uniform(-3, 3)
        if i % 10 == 0:
            xs = np.full(n, rng.uniform(-1, 1) * scale)
        else:
            xs = rng.uniform(-1, 1, size=n) * scale
        b = lse_bounds(xs)
        if not (b.lower <= b.value <= b.upper):
            sandwich_bad += 1
        if n > 1:
            top = float(np.max(xs))
            gap = top - float(np.max(np.partition(xs, n - 2)[: n - 1]))
            margin_lb = math.log1p(math.exp(-gap)) if gap < 700 else 0.0
            if margin_lb > 8 * np.spacing(max(1.0, abs(top))):
                strict_checked += 1
                if not b.value > b.lower:
                    strict_bad += 1
            else:
                saturated += 1
        if float(np.max(xs)) - float(np.min(xs)) >= 1e-9 and not b.value < b.upper:
            upper_bad += 1
        if n >= 1 and np.all(xs == xs[0]):
            allequal_seen += 1
            allequal_err = max(allequal_err, abs(b.upper - b.value))
    elapsed = time.monotonic() - start
    checks = [
        (sandwich_bad == 0, f"{sandwich_bad} sandwich violations"),
        (strict_bad == 0, f"{strict_bad} lower-strictness violations of {strict_checked} representable cases"),
        (strict_checked > 9000, f"only {strict_checked} strictness checks ran"),
        (upper_bad == 0, f"{upper_bad} upper-strictness violations"),
        (allequal_seen >= 900 and allequal_err <= 1e-12, f"all-equal upper attainment off by {allequal_err:.3e}"),
    ]
    _finish(2, f"LSE sandwich, 10^4 vectors ({saturated} saturated)", elapsed, 5.0, checks)


# ----------------------------------------------------------------------
# Criterion 3: Monte Carlo bound validity over the full grid
# ----------------------------------------------------------------------


def test_criterion_3_bound_validity(verify_run):
    out, rc, elapsed = verify_run
    doc = json.loads((out / "verify_summary.json").read_text(encoding="utf-8"))
    checks = [
        (rc == 0, f"verify exit code {rc}"),
        (doc["grid"]["ns"] == [2, 4, 8, 16, 32], "unexpected N axis"),
        (doc["grid"]["taus"] == [0.05, 0.1, 0.5, 1.0], "unexpected tau axis"),
        (len(doc["grid"]["distributions"]) == 3, "expected three embedding distributions"),
        (doc["trials_per_cell"] == 1000, "expected 1000 trials per cell"),
        (doc["violations_paper"] == 0, f'{doc["violations_paper"]} paper-variant violations'),
        (doc["violations_strict"] == 0, f'{doc["violations_strict"]} strict-variant violations'),
        (doc["min_paper_gap"] >= -1e-9, f'min paper gap {doc["min_paper_gap"]}'),
        (doc["min_strict_gap"] >= -1e-9, f'min strict gap {doc["min_strict_gap"]}'),
        (doc["min_variant_margin"] >= 0.0, "strict bound exceeded paper bound in some trial"),
    ]
    _finish(3, "Monte Carlo bound validity, 60 cells x 1000 trials", elapsed, 60.0, checks)


# ----------------------------------------------------------------------
# Criterion 4: closed-form anchor values
# ----------------------------------------------------------------------


def test_criterion_4_closed_forms():
    start = time.monotonic()
    cfg = LossConfig(tau=1.0)

    identical = EmbeddingBatch(np.tile([0.4, -0.8, 1.5], (4, 1)))  # N = 2
    loss_err = abs(nt_xent(identical, cfg).total - LOG3)
    strict_gap = similarity_bound(identical, cfg).strict_gap

    rng = np.random.default_rng(1004)
    single_pair_worst = max(
        abs(nt_xent(EmbeddingBatch(rng.standard_normal((2, 5))), cfg).total) for _ in range(10)
    )
    elapsed = time.monotonic() - start
    checks = [
        (loss_err <= 1e-12, f"all-identical N=2 loss off log(3) by {loss_err:.3e}"),
        (abs(strict_gap) <= 1e-9, f"all-identical strict gap {strict_gap:.3e} not 0"),
        (single_pair_worst <= 1e-12, f"N=1 loss {single_pair_worst:.3e} not 0"),
    ]
    _finish(4, "closed-form anchors", elapsed, None, checks)


# ----------------------------------------------------------------------
# Criterion 5: gradient correctness
# ----------------------------------------------------------------------


def test_criterion_5_gradient_correctness():
    start = time.monotonic()
    rng = np.random.default_rng(1005)
    loss_level, end_to_end, worst_ortho = [], [], 0.0
    for _ in range(100):
        n_pairs = int(rng.integers(2, 7))
        m = int(rng.integers(2, 10))
        cfg = LossConfig(tau=float(rng.uniform(0.1, 1.0)))
        rows = unit_rms(rng.standard_normal((2 * n_pairs, m)))
        grad = nt_xent_grad(EmbeddingBatch(rows), cfg)
        worst_ortho = max(worst_ortho, float(np.max(np.abs(np.sum(grad * rows, axis=1)))))
        loss_level.append(worst_rel_error(grad, latent_fd(rows, cfg))[0])

    # end to end: tiny two-layer encoder and projector, d0 = d = m = 2, N = 2
    tiny = TrainConfig(n_pairs=2, input_dim=2, encoder_dims=(2, 2), projector_dims=(2, 2), tau=0.5, steps=1)
    loss_cfg = LossConfig(tau=tiny.tau)
    for trial in range(5):
        trng = np.random.default_rng(7000 + trial)
        model = init_net(tiny.blocks, trng)
        views = unit_rms(trng.standard_normal((4, 2)))
        latents = forward(model, views).act[-1]
        gz = nt_xent_grad(EmbeddingBatch(latents), loss_cfg)
        worst_ortho = max(worst_ortho, float(np.max(np.abs(np.sum(gz * latents, axis=1)))))
        end_to_end.append(worst_rel_error(*param_grads(model, views, loss_cfg))[0])

    # np.max, unlike max, carries a nan error through to fail its check
    worst_loss_level, worst_e2e = float(np.max(loss_level)), float(np.max(end_to_end))
    elapsed = time.monotonic() - start
    checks = [
        (worst_loss_level <= 1e-5, f"loss-level worst {worst_loss_level:.3e} > 1e-5"),
        (worst_e2e <= 1e-4, f"end-to-end worst {worst_e2e:.3e} > 1e-4"),
        (worst_ortho <= 1e-8, f"orthogonality worst {worst_ortho:.3e} > 1e-8"),
    ]
    _finish(5, "gradients vs finite differences", elapsed, 30.0, checks)


# ----------------------------------------------------------------------
# Criterion 6: the bound holds live across a full desk training run
# ----------------------------------------------------------------------


def test_criterion_6_bound_under_training(train_run):
    out, rc, elapsed = train_run
    columns = parse_trace_csv((out / "train_trace.csv").read_text(encoding="utf-8").splitlines())
    summary = json.loads((out / "train_summary.json").read_text(encoding="utf-8"))
    loss, avg = columns["loss_total"], columns["avg_pos_sim"]
    min_strict = min(columns["strict_gap"])
    checks = [
        (rc == 0, f"train exit code {rc}"),
        (len(columns["step"]) == 500, f"expected 500 steps, got {len(columns['step'])}"),
        (summary["status"] == "ok", f'status {summary["status"]}'),
        (loss[-1] < loss[0], "final loss did not decrease"),
        (avg[-1] > avg[0], "average positive similarity did not increase"),
        (min_strict >= -1e-9, f"min strict gap {min_strict:.3e} below -1e-9"),
    ]
    _finish(6, "bound under training, N=16 x 500 steps", elapsed, 60.0, checks)


# ----------------------------------------------------------------------
# Criterion 7: byte-identical reruns of criteria 3 and 6
# ----------------------------------------------------------------------


def test_criterion_7_determinism(tmp_path, verify_run, train_run, desk_config_path):
    start = time.monotonic()
    verify_out, _, _ = verify_run
    train_out, _, _ = train_run

    rc_v = main(["verify", "--seed", "0", "--out", str(tmp_path / "verify_b")])
    rc_t = main(["train", "--config", str(desk_config_path), "--out", str(tmp_path / "train_b")])

    same_verify = (verify_out / "verify_summary.json").read_bytes() == (
        tmp_path / "verify_b" / "verify_summary.json"
    ).read_bytes()
    same_trace = (train_out / "train_trace.csv").read_bytes() == (tmp_path / "train_b" / "train_trace.csv").read_bytes()
    same_summary = (train_out / "train_summary.json").read_bytes() == (
        tmp_path / "train_b" / "train_summary.json"
    ).read_bytes()

    elapsed = time.monotonic() - start
    checks = [
        (rc_v == 0 and rc_t == 0, f"rerun exit codes verify={rc_v} train={rc_t}"),
        (same_verify, "verify summary differs between identical runs"),
        (same_trace, "train trace differs between identical runs"),
        (same_summary, "train summary differs between identical runs"),
    ]
    _finish(7, "byte-identical reruns", elapsed, None, checks)
