"""Finite-difference verification of the analytic gradients.

Two levels are checked: the loss gradient with respect to raw latents, and the
end-to-end parameter gradient through the encoder and projection head blocks
of a tiny network, NET_BLOCKS at NET_N_PAIRS and NET_TAU, by central
differences with step 1e-5 on inputs pre-scaled to unit RMS. No float64 step
avoids both truncation and rounding on every draw: seeds 2, 17, 19, 28, 30,
42, 52 and 53 of 0-59 FAIL ``ntxb gradcheck --trials 20`` on correct gradients
(ROADMAP item 1).

Each level takes its trials in groups. A group gets its analytic gradients
from one pass (end to end: one forward, pass and backward of a stack of
networks, after redraws of dead trials that run the forward alone), its
records from one error pass, and the (trial, entry) pairs of all its trials
run as one sequence of stacks: a stack can end inside one trial's entries and
hold the next trial's first ones. Each stack is evaluated as its +1e-5 probes,
then its -1e-5 probes, and every probe comes with its trial and entry. A group
holds as many trials as fit ``bounds.CHUNK_BYTES``, each counted with one
probe of its own at its peak, and a stack as many pairs as the group has
trials, so memory does not grow with the trial count. An end-to-end trial is
counted by its probing bytes alone, which cover its analytic step. Both levels
evaluate their probes with :func:`_stack_losses`, the one NT-Xent pass, which
normalizes every row of every probe. Parameter probes are a stack (K, P) of
flat parameter vectors, ``Mlp(NET_BLOCKS, probes)``: K networks run through
one forward on their trials' views. Parameter j is entry j of the network's
``params``: the encoder block's layers, then the projection head's, each
layer's weights row-major followed by its biases.
"""

from __future__ import annotations

import math
from collections.abc import Iterator
from dataclasses import dataclass

import numpy as np

from . import bounds
from .bounds import _check_memory, _pass_bytes, _stream
from .errors import ConfigError
from .loss import AnchorMode, LossConfig, _breakdown, _latent_grad, _nt_xent_pass
from .sim import _check_seed
from .trainer import Mlp, MlpTrace, _backprop, _forward_floats, _init_params, _param_count, forward

FD_STEP = 1e-5
LOSS_LEVEL_TOL = 1e-5
END_TO_END_TOL = 1e-4
ABS_FLOOR = 1e-8

#: Redraws allowed for an end-to-end trial whose hidden ReLU layer is dead on every row.
DEAD_RELU_REDRAWS = 10

#: The end-to-end network: d0 = d = m = 2, two layers per block so the ReLU path is exercised, at N = 2 and tau 0.5.
NET_BLOCKS = ((2, 2, 2), (2, 2, 2))
NET_N_PAIRS = 2
NET_TAU = 0.5

#: Bytes an end-to-end trial holds while its probes run: its parameters, analytic gradient, two values per parameter
#: and their difference, and one probe's parameters, forward and normalization. The error pass's three floats per
#: parameter, beside the parameters and both gradients, fit in that, and so does the trial's analytic step.
_NET_TRIAL_BYTES = 8 * 6 * _param_count(NET_BLOCKS)
_NET_TRIAL_BYTES += _pass_bytes(NET_N_PAIRS, _forward_floats(NET_BLOCKS) + 2 * NET_BLOCKS[-1][-1])


def central_difference(f, points: np.ndarray, *, chunk: int) -> np.ndarray:
    """Central-difference gradients of a scalar function at each of a stack of points (T, *shape).

    The T * n (point, entry) pairs, point by point, are cut into stacks of
    ``chunk``, so memory stays bounded however many probes there are. Each
    stack is evaluated twice: ``f((probes, point, entry))`` gets its probes
    x + FD_STEP * e_j (K, *shape), with each probe's point and entry (K,),
    and returns their K values; then the same for its probes x - FD_STEP * e_j.
    """
    t = len(points)
    flat = points.reshape(t, -1)
    n = flat.shape[1]
    values = np.empty((2, t * n))
    for start in range(0, t * n, chunk):
        stop = min(start + chunk, t * n)
        point, entry = np.divmod(np.arange(start, stop), n)
        k = np.arange(stop - start)
        for sign, step in enumerate((FD_STEP, -FD_STEP)):
            probes = flat[point]
            # x + (-step) rounds as x - step: probes match in-place edits bit for bit
            probes[k, entry] += step
            values[sign, start:stop] = f((probes.reshape(stop - start, *points.shape[1:]), point, entry))
    grad = values[0] - values[1]
    grad /= 2.0 * FD_STEP
    return grad.reshape(points.shape)


def _stack_losses(rows: np.ndarray, cfg: LossConfig) -> np.ndarray:
    """Total loss of each batch in a stack (K, 2N, m), refusing what EmbeddingBatch refuses."""
    p = _nt_xent_pass(rows, cfg.tau, cfg.anchor_mode)
    return _breakdown(p.lse, p.pos, p.n_pairs).total


def _worst_errors(analytic: np.ndarray, numeric: np.ndarray) -> tuple[np.ndarray, list[tuple[int, ...]]]:
    """Each trial's largest per-entry discrepancy (T,) and its index, as Python ints, over gradients (T, ...).

    Entries are compared relatively against max(|analytic|, |numeric|);
    entries where both magnitudes fall below ABS_FLOOR pass when the absolute
    difference stays below ABS_FLOOR (reported as error 0) and fail hard
    otherwise.
    """
    a, n = analytic.reshape(len(analytic), -1), numeric.reshape(len(numeric), -1)
    err = np.abs(a - n)
    denom = np.abs(a)
    np.maximum(denom, np.abs(n), out=denom)
    big = denom >= ABS_FLOOR
    np.divide(err, denom, out=err, where=big)
    err[~big] = np.where(err[~big] <= ABS_FLOOR, 0.0, np.inf)
    j, shape = np.argmax(err, axis=1), analytic.shape[1:]
    index = list(zip(*(i.tolist() for i in np.unravel_index(j, shape)))) if shape else [()] * len(j)
    return err[np.arange(len(j)), j], index


def worst_error(analytic: np.ndarray, numeric: np.ndarray) -> tuple[float, tuple[int, ...]]:
    """Largest per-entry discrepancy of one gradient and its index: the one-trial case of :func:`_worst_errors`."""
    err, index = _worst_errors(np.asarray(analytic, np.float64)[None], np.asarray(numeric, np.float64)[None])
    return float(err[0]), index[0]


@dataclass(frozen=True, slots=True)
class GradCheckTrial:
    """Worst entry of one trial, plus the orthogonality defect of the analytic gradient."""

    trial: int
    worst_rel_err: float
    worst_index: tuple
    orthogonality: float


def _unit_rms(x: np.ndarray) -> np.ndarray:
    """Scale each batch of a stack (..., 2N, m) to unit RMS."""
    return x / np.sqrt(np.mean(x * x, axis=(-2, -1), keepdims=True))


def _orthogonality(grad: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """Largest |<grad_i, z_i>| of each batch of a stack: zero in exact arithmetic, by scale invariance."""
    return np.abs(np.sum(grad * rows, axis=-1)).max(axis=-1)


def _trial_records(first: int, analytic: np.ndarray, numeric: np.ndarray, ortho: np.ndarray) -> list[GradCheckTrial]:
    """One record per trial of a group, the first of which is trial ``first``."""
    err, index = _worst_errors(analytic, numeric)
    return [GradCheckTrial(first + i, *rec) for i, rec in enumerate(zip(err.tolist(), index, ortho.tolist()))]


def _loss_level_group(rows: np.ndarray, cfg: LossConfig, first: int, chunk: int) -> list[GradCheckTrial]:
    """Check a stack of trials' batches (T, 2N, m), the first of which is trial ``first``."""
    analytic = _latent_grad(_nt_xent_pass(rows, cfg.tau, cfg.anchor_mode))
    ortho = _orthogonality(analytic, rows)

    def losses(probes) -> np.ndarray:
        return _stack_losses(probes[0], cfg)

    return _trial_records(first, analytic, central_difference(losses, rows, chunk=chunk), ortho)


def _check_counts(**counts: int) -> None:
    """Raise ConfigError unless every count is at least 1."""
    for name, value in counts.items():
        if value < 1:
            raise ConfigError(f"{name} must be >= 1, got {value}")


def iter_loss_level(
    trials: int, n_pairs: int = 4, dim: int = 8, tau: float = 0.5, seed: int = 0
) -> Iterator[GradCheckTrial]:
    """Analytic latent gradient vs central differences on random batches, trial by trial.

    Trial t's batch is the t-th draw of shape (2N, m) from stream (0,). Each
    group's trials are yielded as soon as it is checked, so nothing is kept
    across groups. A count below 1, or a seed that is not a u64, raises
    ConfigError before any draw.
    """
    _check_counts(trials=trials, n_pairs=n_pairs, dim=dim)
    _check_seed(seed, ConfigError)
    # A trial peaks while its probes run, or while its record is made; it keeps its rows and analytic
    # gradient throughout. While probing it also keeps two probe values per entry, and a probe holds its
    # rows and unit rows. The analytic pass holds N anchor rows each of similarities and logits, and their
    # gradient's weights. Whatever the shape, a probe holds ten scalars (its point and entry, the index
    # arrays built from them and its loss terms). While recording, the probe values have become one
    # numeric gradient per entry, and the group's error pass holds three floats per entry more (its errors,
    # denominators and one absolute value): 6.0-6.5 floats per entry under tracemalloc, records included.
    # The trial's record with its index tuple, floats and trial number takes under 256 bytes.
    probing = _pass_bytes(n_pairs, 6 * dim) + 8 * 10
    recording = 8 * 2 * n_pairs * 6 * dim + 256
    trial_bytes = max(probing, recording)
    _check_memory(trial_bytes, f"a trial at N={n_pairs}, m={dim}", ConfigError)
    group = max(1, bounds.CHUNK_BYTES // trial_bytes)
    rng = _stream(seed, 0)
    cfg = LossConfig(tau=tau)
    for first in range(0, trials, group):
        rows = _unit_rms(rng.standard_normal((min(group, trials - first), 2 * n_pairs, dim)))
        yield from _loss_level_group(rows, cfg, first, group)


def loss_level_check(trials: int, **kwargs) -> list[GradCheckTrial]:
    """Every trial of :func:`iter_loss_level`, which takes the same arguments, as a list."""
    return list(iter_loss_level(trials, **kwargs))


# Shim: bench/tracer.py wraps this name; it goes with the tracer rework (ROADMAP item 2).
def flatten_params(net: Mlp) -> np.ndarray:
    return net.params


# Shim: bench/tracer.py wraps this name; it goes with the tracer rework (ROADMAP item 2).
def set_params(net: Mlp, vec: np.ndarray) -> None:
    net.params[...] = vec


# Shim: bench/tracer.py wraps this name; it goes with the tracer rework (ROADMAP item 2).
def flatten_param_grads(enc_grads: np.ndarray, proj_grads: np.ndarray) -> np.ndarray:
    return np.concatenate([enc_grads, proj_grads])


def _dead_relu(net: Mlp, trace: MlpTrace) -> np.ndarray:
    """Per network: some hidden layer is zero on every row, so all gradients vanish and the trial checks nothing."""
    dead = np.zeros(trace.act[-1].shape[:-2], dtype=bool)
    for pre, relu in zip(trace.pre, net.relu):
        if relu:
            dead |= ~(pre > 0).any(axis=(-2, -1))
    return dead


def _end_to_end_group(seed: int, first: int, size: int, chunk: int) -> list[GradCheckTrial]:
    """Check trials first..first+size-1 as one stack of networks.

    Each trial draws its network's ``random(P)``, then its views' normals, into its rows of the stack.
    """
    uniforms = np.empty((size, _param_count(NET_BLOCKS)))
    normals = np.empty((size, 2 * NET_N_PAIRS, NET_BLOCKS[0][0]))
    dead = np.ones(size, dtype=bool)
    for k in range(DEAD_RELU_REDRAWS + 1):
        for i in np.flatnonzero(dead).tolist():
            rng = _stream(seed, 1, first + i, k) if k else _stream(seed, 1, first + i)
            rng.random(out=uniforms[i])
            rng.standard_normal(out=normals[i])
        net, views = Mlp(NET_BLOCKS, _init_params(uniforms, NET_BLOCKS)), _unit_rms(normals)
        trace = forward(net, views)
        dead = _dead_relu(net, trace)
        if not dead.any():
            break
    latent_grad, analytic = _backprop(net, trace, _nt_xent_pass(trace.act[-1], NET_TAU, AnchorMode.PAPER_N))
    ortho = _orthogonality(latent_grad, trace.act[-1])
    del latent_grad, trace, uniforms, normals  # the probes need only the parameters and views

    cfg_loss = LossConfig(tau=NET_TAU)

    def loss_at(probes) -> np.ndarray:
        vecs, point, _ = probes
        return _stack_losses(forward(Mlp(NET_BLOCKS, vecs), views[point]).act[-1], cfg_loss)

    records = _trial_records(first, analytic, central_difference(loss_at, net.params, chunk=chunk), ortho)
    # A trial still dead after every redraw checked nothing: it fails.
    return [
        GradCheckTrial(trial=r.trial, worst_rel_err=math.inf, worst_index=(0,), orthogonality=0.0) if d else r
        for r, d in zip(records, dead)
    ]


def iter_end_to_end(trials: int, seed: int = 0) -> Iterator[GradCheckTrial]:
    """Full parameter gradient of the tiny network vs central differences, trial by trial.

    Trial t draws its network and views from spawn key (1, t). A draw with a
    dead hidden layer is replaced by one from (1, t, k), k = 1, 2, ...; a
    trial still dead after DEAD_RELU_REDRAWS redraws reports an infinite error.
    Each group's trials are yielded as soon as it is checked. A trial count
    below 1, or a seed that is not a u64, raises ConfigError before any draw.
    """
    _check_counts(trials=trials)
    _check_seed(seed, ConfigError)
    group = max(1, bounds.CHUNK_BYTES // _NET_TRIAL_BYTES)
    for first in range(0, trials, group):
        yield from _end_to_end_group(seed, first, min(group, trials - first), group)


def end_to_end_check(trials: int, seed: int = 0) -> list[GradCheckTrial]:
    """Every trial of :func:`iter_end_to_end`, as a list."""
    return list(iter_end_to_end(trials, seed))
