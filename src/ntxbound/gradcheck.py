"""Finite-difference verification of the analytic gradients.

Two levels are checked: the loss gradient with respect to raw latents, and
the end-to-end parameter gradient through projector and encoder on a tiny
model. Central differences with step 1e-5 on inputs pre-scaled to unit RMS
balance truncation against rounding at 64-bit precision. All probes of a
trial are evaluated as stacks in single NT-Xent passes, up to
``bounds.CHUNK_BYTES`` per stack: latent probes as a stack of batches, and
parameter probes as a stack (K, P) of flat parameter vectors, which is K
models run through one MLP forward. Parameter j is entry j of
``SimclrModel.params``: the encoder's layers, then the projector's, each
layer's weights row-major followed by its biases.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .bounds import _stack_size, _stream
from .loss import LossConfig, _breakdown, _checked_pass, _latent_grad
from .trainer import ForwardResult, SimclrModel, TrainConfig, loss_and_param_grads

FD_STEP = 1e-5
LOSS_LEVEL_TOL = 1e-5
END_TO_END_TOL = 1e-4
ABS_FLOOR = 1e-8

#: Redraws allowed for an end-to-end trial whose hidden ReLU layer is dead on every row.
DEAD_RELU_REDRAWS = 10


def central_difference(f, x: np.ndarray, step: float = FD_STEP, *, chunk: int) -> np.ndarray:
    """Central-difference gradient of a scalar function at x, from stacked probes.

    The 2 * x.size probes are x + step * e_j for every entry j, then
    x - step * e_j. ``f`` maps a stack (K, *x.shape) of probes to their K
    values. Probes are built and evaluated ``chunk`` at a time, so memory
    stays bounded however large x is.
    """
    n = x.size
    flat = x.reshape(-1)
    k = np.arange(2 * n)
    entry = k % n
    delta = np.where(k < n, step, -step)  # x + (-step) rounds as x - step: probes match in-place edits bit for bit
    values = np.empty(2 * n)
    for start in range(0, 2 * n, chunk):
        stop = min(start + chunk, 2 * n)
        probes = np.tile(flat, (stop - start, 1))
        probes[np.arange(stop - start), entry[start:stop]] += delta[start:stop]
        values[start:stop] = f(probes.reshape(stop - start, *x.shape))
    return ((values[:n] - values[n:]) / (2.0 * step)).reshape(x.shape)


def _stack_losses(rows: np.ndarray, cfg: LossConfig) -> np.ndarray:
    """Total loss of each batch in a stack (K, 2N, m), refusing what EmbeddingBatch refuses."""
    return _breakdown(_checked_pass(rows, cfg.tau, cfg.anchor_mode)).total


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
    rng = _stream(seed, 0)
    cfg = LossConfig(tau=tau)
    chunk = _stack_size(n_pairs, dim)
    results = []
    for trial in range(trials):
        rows = _unit_rms(rng.standard_normal((2 * n_pairs, dim)))
        analytic = _latent_grad(_checked_pass(rows, cfg.tau, cfg.anchor_mode))
        ortho = float(np.max(np.abs(np.sum(analytic * rows, axis=1))))
        if corrupt and trial == 0:
            analytic = analytic.copy()
            analytic[0, 0] += 1e-2
        numeric = central_difference(lambda stack: _stack_losses(stack, cfg), rows, chunk=chunk)
        err, idx = worst_error(analytic, numeric)
        results.append(GradCheckTrial(trial=trial, worst_rel_err=err, worst_index=idx, orthogonality=ortho))
    return results


# Shim: bench/tracer.py wraps this name; it goes with the tracer rework (ROADMAP item 1).
def flatten_params(model: SimclrModel) -> np.ndarray:
    return model.params


# Shim: bench/tracer.py wraps this name; it goes with the tracer rework (ROADMAP item 1).
def set_params(model: SimclrModel, vec: np.ndarray) -> None:
    model.params = vec


# Shim: bench/tracer.py wraps this name; it goes with the tracer rework (ROADMAP item 1).
def flatten_param_grads(enc_grads: np.ndarray, proj_grads: np.ndarray) -> np.ndarray:
    return np.concatenate([enc_grads, proj_grads])


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
    chunk = _stack_size(cfg.n_pairs, cfg.latent_dim)
    for trial in range(trials):
        for k in range(DEAD_RELU_REDRAWS + 1):
            rng = _stream(seed, 1, trial) if k == 0 else _stream(seed, 1, trial, k)
            model = SimclrModel.init(cfg, rng)
            views = _unit_rms(rng.standard_normal((2 * cfg.n_pairs, cfg.input_dim)))
            out = loss_and_param_grads(model, views, cfg)
            if not _dead_relu(out.forward):
                break
        else:
            results.append(GradCheckTrial(trial=trial, worst_rel_err=math.inf, worst_index=(0,), orthogonality=0.0))
            continue

        ortho = float(np.max(np.abs(np.sum(out.latent_grad * out.forward.batch.rows, axis=1))))

        def loss_at(vecs: np.ndarray) -> np.ndarray:
            probe = SimclrModel(model.encoder_dims, model.projector_dims, vecs)
            hidden = probe.encoder.forward_trace(views).act[-1]
            return _stack_losses(probe.projector.forward_trace(hidden).act[-1], cfg_loss)

        numeric = central_difference(loss_at, model.params, chunk=chunk)
        err, idx = worst_error(out.param_grad, numeric)
        results.append(GradCheckTrial(trial=trial, worst_rel_err=err, worst_index=idx, orthogonality=ortho))
    return results
