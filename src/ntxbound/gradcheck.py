"""Finite-difference verification of the analytic gradients.

Two levels are checked: the loss gradient with respect to raw latents, and
the end-to-end parameter gradient through projector and encoder on a tiny
model. Central differences with step 1e-5 on inputs pre-scaled to unit RMS
balance truncation against rounding at 64-bit precision.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .loss import LossConfig, nt_xent, nt_xent_grad
from .sim import EmbeddingBatch
from .trainer import ForwardResult, Mlp, SimclrModel, TrainConfig, forward, loss_and_param_grads

FD_STEP = 1e-5
LOSS_LEVEL_TOL = 1e-5
END_TO_END_TOL = 1e-4
ABS_FLOOR = 1e-8

#: Redraws allowed for an end-to-end trial whose hidden ReLU layer is dead on every row.
DEAD_RELU_REDRAWS = 10


def central_difference(f, x: np.ndarray, step: float = FD_STEP) -> np.ndarray:
    """Central-difference gradient of scalar f at x, one entry at a time."""
    grad = np.zeros_like(x, dtype=np.float64)
    out = grad.reshape(-1)
    for j in range(x.size):
        xp = x.copy()
        xp.flat[j] += step
        fp = f(xp)
        xm = x.copy()
        xm.flat[j] -= step
        fm = f(xm)
        out[j] = (fp - fm) / (2.0 * step)
    return grad


def worst_error(analytic: np.ndarray, numeric: np.ndarray, floor: float = ABS_FLOOR) -> tuple[float, tuple]:
    """Largest per-entry discrepancy and its index.

    Entries are compared relatively against max(|analytic|, |numeric|);
    entries where both magnitudes fall below ``floor`` pass when the absolute
    difference stays below ``floor`` (reported as error 0) and fail hard
    otherwise.
    """
    a = analytic.astype(np.float64)
    n = numeric.astype(np.float64)
    denom = np.maximum(np.abs(a), np.abs(n))
    diff = np.abs(a - n)
    big = denom >= floor
    err = np.zeros_like(denom)
    err[big] = diff[big] / denom[big]
    err[~big] = np.where(diff[~big] <= floor, 0.0, np.inf)
    j = int(np.argmax(err))
    return float(err.flat[j]), np.unravel_index(j, a.shape)


@dataclass(frozen=True)
class GradCheckTrial:
    """Worst entry of one trial, plus the orthogonality defect of the analytic gradient."""

    trial: int
    worst_rel_err: float
    worst_index: tuple
    orthogonality: float


def _unit_rms(x: np.ndarray) -> np.ndarray:
    return x / math.sqrt(float(np.mean(x * x)))


def loss_level_check(
    trials: int,
    n_pairs: int = 4,
    dim: int = 8,
    tau: float = 0.5,
    seed: int = 0,
    corrupt: bool = False,
) -> list[GradCheckTrial]:
    """Analytic latent gradient vs central differences on random batches.

    ``corrupt`` perturbs one gradient entry of the first trial by 1e-2; a test
    hook proving the check can fail.
    """
    rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence(entropy=seed, spawn_key=(0,))))
    cfg = LossConfig(tau=tau)
    results = []
    for trial in range(trials):
        rows = _unit_rms(rng.standard_normal((2 * n_pairs, dim)))
        batch = EmbeddingBatch(rows)
        analytic = nt_xent_grad(batch, cfg)
        ortho = float(np.max(np.abs(np.sum(analytic * rows, axis=1))))
        if corrupt and trial == 0:
            analytic = analytic.copy()
            analytic[0, 0] += 1e-2
        numeric = central_difference(lambda r: nt_xent(EmbeddingBatch(r), cfg).total, rows)
        err, idx = worst_error(analytic, numeric)
        results.append(GradCheckTrial(trial=trial, worst_rel_err=err, worst_index=idx, orthogonality=ortho))
    return results


def flatten_params(model: SimclrModel) -> np.ndarray:
    chunks = []
    for mlp in (model.encoder, model.projector):
        for w, b in zip(mlp.weights, mlp.biases):
            chunks.append(w.ravel())
            chunks.append(b.ravel())
    return np.concatenate(chunks)


def set_params(model: SimclrModel, vec: np.ndarray) -> None:
    offset = 0
    for mlp in (model.encoder, model.projector):
        for l in range(mlp.n_layers):
            for arr_list, l_idx in ((mlp.weights, l), (mlp.biases, l)):
                size = arr_list[l_idx].size
                arr_list[l_idx] = vec[offset : offset + size].reshape(arr_list[l_idx].shape).copy()
                offset += size


def flatten_param_grads(model: SimclrModel, enc_grads, proj_grads) -> np.ndarray:
    chunks = []
    for grads in (enc_grads, proj_grads):
        gw, gb = grads
        for w, b in zip(gw, gb):
            chunks.append(w.ravel())
            chunks.append(b.ravel())
    return np.concatenate(chunks)


def _tiny_config(seed: int) -> TrainConfig:
    # d0 = d = m = 2, N = 2; two layers each so the ReLU path is exercised.
    return TrainConfig(
        n_pairs=2,
        input_dim=2,
        encoder_dims=(2, 2),
        projector_dims=(2, 2),
        tau=0.5,
        learning_rate=1e-3,
        steps=1,
        seed=seed,
    )


def _dead_relu(fwd: ForwardResult) -> bool:
    """A hidden layer is zero on every row: all gradients vanish and the trial checks nothing."""
    return any(not np.any(pre > 0) for trace in (fwd.encoder_trace, fwd.projector_trace) for pre in trace.pre[:-1])


def end_to_end_check(trials: int, seed: int = 0) -> list[GradCheckTrial]:
    """Full parameter gradient of the tiny model vs central differences.

    Trial t draws its model and views from spawn key (1, t). A draw with a
    dead hidden layer is replaced by one from (1, t, k), k = 1, 2, ...; a
    trial still dead after DEAD_RELU_REDRAWS redraws reports an infinite error.
    """
    results = []
    cfg = _tiny_config(seed)
    cfg_loss = LossConfig(tau=cfg.tau)
    for trial in range(trials):
        for k in range(DEAD_RELU_REDRAWS + 1):
            key = (1, trial) if k == 0 else (1, trial, k)
            rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence(entropy=seed, spawn_key=key)))
            model = SimclrModel.init(cfg, rng)
            views = _unit_rms(rng.standard_normal((2 * cfg.n_pairs, cfg.input_dim)))
            out = loss_and_param_grads(model, views, cfg)
            if not _dead_relu(out.forward):
                break
        else:
            results.append(GradCheckTrial(trial=trial, worst_rel_err=math.inf, worst_index=(0,), orthogonality=0.0))
            continue

        analytic = flatten_param_grads(model, out.encoder_grads, out.projector_grads)
        ortho = float(np.max(np.abs(np.sum(out.latent_grad * out.forward.batch.rows, axis=1))))

        def loss_at(vec: np.ndarray) -> float:
            probe = SimclrModel(
                encoder=Mlp(model.encoder.layer_dims, list(model.encoder.weights), list(model.encoder.biases)),
                projector=Mlp(model.projector.layer_dims, list(model.projector.weights), list(model.projector.biases)),
            )
            set_params(probe, vec)
            return nt_xent(forward(probe.encoder, probe.projector, views).batch, cfg_loss).total

        numeric = central_difference(loss_at, flatten_params(model))
        err, idx = worst_error(analytic, numeric)
        results.append(GradCheckTrial(trial=trial, worst_rel_err=err, worst_index=idx, orthogonality=ortho))
    return results
