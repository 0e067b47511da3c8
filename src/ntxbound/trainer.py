"""Desk-scale SimCLR on synthetic data, instrumented with loss and bound diagnostics.

The four classic components, shrunk to laptop size: a stochastic augmentation
(Gaussian noise then coordinate dropout), an MLP encoder and an MLP projection
head, and the NT-Xent loss. Encoder and head are the two blocks of one
:class:`Mlp` (module ``mlp``) over one flat parameter vector, with ReLU between the layers of
each block and a linear output at each block's end. Every training step
keeps the per-anchor terms of its NT-Xent pass *before* the parameter update,
so the loss breakdown and both similarity-bound variants can be watched live
while training. A step does only the math that feeds its update, writes its
collapse flag and gradient norm into the trace, and keeps its pass values in
block arrays of BLOCK_STEPS rows. One stacked evaluation per block (and one
for the last, short block) gives every step's loss and bound diagnostics, bit
for bit as one step evaluated alone, with every check of
:class:`LossBreakdown` and :class:`BoundReport`. A refusal found in a block
is evaluated again step by step, so it names its step. A :class:`TrainTrace`
of columns (steps,), defined in ``serialize`` beside its CSV, is the one
per-step record; :func:`train_step` returns a trace of one row.

Randomness is PCG64 throughout. A run derives three independent streams from
the config seed via SeedSequence spawn keys: (0,) for the dataset, (1,) for
weight init, (2,) for minibatch sampling and augmentation. Each step takes
three draws from stream (2,) in this order: the N point indices, the noise
for all 2N views, then their dropout mask.

:func:`train` and :func:`train_step` share one driver, ``_Run.run``, which
enters numpy's error state once, quiet on overflow and invalid values, which
its checks refuse; direct :func:`forward` calls follow the caller's error state.
"""

from __future__ import annotations

import math
from collections.abc import Iterable
from dataclasses import dataclass, field

import numpy as np

from .bounds import _check_memory, _evaluation, _pass_bytes, _stream
from .errors import (
    DimensionMismatchError,
    InvalidDatasetParamsError,
    NonFiniteLossError,
    ZeroVectorError,
)
from .loss import AnchorMode, _latent_grad, _Pass
from .mlp import Mlp, MlpTrace, _forward_floats, _init_params, _param_count, forward
from .serialize import _TRACE_ROW_BYTES, TrainTrace
from .sim import _check_seed, _check_tau, _cosine_matrix, _unit_rows

#: Every anchor-row similarity at least this close to 1 counts as a collapsed batch. The anchor rows hold
#: every latent's similarity to each anchor, so within this tolerance every pair is at least 1 - 4 * tol.
COLLAPSE_TOL = 1e-12

#: Steps whose diagnostics are evaluated at once, from the pass values they keep in one block.
BLOCK_STEPS = 64


def _block_bytes(cfg: TrainConfig) -> int:
    """Bytes of a run's block: four (rows, N) arrays of pass values."""
    return 8 * min(BLOCK_STEPS, cfg.steps) * 4 * cfg.n_pairs


def _step_bytes(cfg: TrainConfig) -> int:
    """Bytes one step of one model holds at its peak: forward, NT-Xent pass with its gradient, and backward.

    Per row: the forward's floats, three rows of the widest layer for the
    backward's incoming, masked and outgoing gradients, and four latent-sized
    rows for the unit rows and the latent gradient. The pass holds N anchor
    rows of similarities, which its logits overwrite, and their gradient's
    weights. On top come the parameters, their gradient and the update's
    product.
    """
    widest = max(cfg.input_dim, *cfg.encoder_dims, *cfg.projector_dims)
    row_floats = _forward_floats(cfg.blocks) + 3 * widest + 4 * cfg.latent_dim
    return _pass_bytes(cfg.n_pairs, row_floats) + 8 * 3 * cfg.n_params



@dataclass(frozen=True)
class AugmentConfig:
    """Synthetic-data augmentation: additive Gaussian noise, then coordinate dropout."""

    noise_sigma: float = 0.1
    dropout_prob: float = 0.1

    def __post_init__(self):
        if not (np.isfinite(self.noise_sigma) and self.noise_sigma >= 0):
            raise InvalidDatasetParamsError(f"noise_sigma must be >= 0, got {self.noise_sigma}")
        if not (0 <= self.dropout_prob < 1):
            raise InvalidDatasetParamsError(f"dropout_prob must be in [0, 1), got {self.dropout_prob}")


@dataclass(frozen=True)
class DatasetParams:
    """Gaussian-mixture dataset shape: cluster count, per-cluster spread, total points."""

    clusters: int = 4
    spread: float = 0.1
    points: int = 256

    def __post_init__(self):
        if self.clusters < 1:
            raise InvalidDatasetParamsError(f"clusters must be >= 1, got {self.clusters}")
        if not (np.isfinite(self.spread) and self.spread > 0):
            raise InvalidDatasetParamsError(f"spread must be > 0, got {self.spread}")
        if self.points < 1:
            raise InvalidDatasetParamsError(f"points must be >= 1, got {self.points}")


@dataclass(frozen=True)
class TrainConfig:
    """Everything a training run needs, seed included."""

    n_pairs: int = 16
    input_dim: int = 8
    encoder_dims: tuple[int, ...] = (16, 16)
    projector_dims: tuple[int, ...] = (16, 8)
    tau: float = 0.5
    learning_rate: float = 0.05
    steps: int = 500
    seed: int = 0
    augment: AugmentConfig = field(default_factory=AugmentConfig)
    dataset: DatasetParams = field(default_factory=DatasetParams)

    def __post_init__(self):
        if self.n_pairs < 2:
            raise InvalidDatasetParamsError(f"n_pairs must be >= 2, got {self.n_pairs}")
        dims = (self.input_dim, *self.encoder_dims, *self.projector_dims)
        if len(self.encoder_dims) < 1 or len(self.projector_dims) < 1 or any(d < 1 for d in dims):
            raise DimensionMismatchError(f"all layer dims must be >= 1, got {dims}")
        _check_tau(self.tau, InvalidDatasetParamsError)
        if not (np.isfinite(self.learning_rate) and self.learning_rate > 0):
            raise InvalidDatasetParamsError(f"learning_rate must be > 0, got {self.learning_rate}")
        if self.steps < 1:
            raise InvalidDatasetParamsError(f"steps must be >= 1, got {self.steps}")
        _check_seed(self.seed, InvalidDatasetParamsError)
        if self.dataset.points < 2 * self.n_pairs:
            raise InvalidDatasetParamsError(
                f"dataset needs at least 2*n_pairs={2 * self.n_pairs} points, got {self.dataset.points}"
            )
        # gen_synthetic holds the (clusters, input_dim) means, three (points, input_dim) arrays and the labels at
        # once; one step and the block run beside them, and every step keeps its row of the trace.
        data = self.dataset
        need = 8 * (data.clusters * self.input_dim + data.points * (3 * self.input_dim + 1))
        need += _step_bytes(self) + _block_bytes(self) + self.steps * _TRACE_ROW_BYTES
        what = (
            f"training {self.steps} steps on {data.points} points in {data.clusters} clusters"
            f" of dimension {self.input_dim} at N={self.n_pairs}"
        )
        _check_memory(need, what, InvalidDatasetParamsError)

    @property
    def blocks(self) -> tuple[tuple[int, ...], ...]:
        """The desk model's blocks: the encoder's widths from the input's, then the projection head's."""
        return (self.input_dim, *self.encoder_dims), (self.encoder_dims[-1], *self.projector_dims)

    @property
    def latent_dim(self) -> int:
        return self.projector_dims[-1]

    @property
    def n_params(self) -> int:
        return _param_count(self.blocks)


def gen_synthetic(dim: int, params: DatasetParams, seed) -> np.ndarray:
    """Gaussian-mixture points (points, dim) in R^dim, deterministic given the seed.

    ``seed`` is anything ``np.random.default_rng`` takes: an int, a
    SeedSequence or a Generator. Cluster means are the stream's first draw,
    ``standard_normal((clusters, dim))``; point p is mean p % clusters plus
    ``spread`` times row p of its next, ``standard_normal((points, dim))``.
    """
    if dim < 1:
        raise InvalidDatasetParamsError(f"dim must be >= 1, got {dim}")
    rng = np.random.default_rng(seed)
    means = rng.standard_normal((params.clusters, dim))
    labels = np.arange(params.points) % params.clusters
    return means[labels] + params.spread * rng.standard_normal((params.points, dim))


def augment(x: np.ndarray, cfg: AugmentConfig, rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray]:
    """Two independent stochastic views of one point: the one-point case of the batch augmentation.

    Each view adds N(0, noise_sigma^2) noise, then zeroes each coordinate
    independently with probability dropout_prob. Returns rows 0 and 1 of
    ``_augment_batch(x[None], cfg, rng)``, so it takes the same two draws.
    """
    views = _augment_batch(np.asarray(x, dtype=np.float64)[None], cfg, rng)
    return views[0], views[1]


def _augment_batch(points: np.ndarray, cfg: AugmentConfig, rng: np.random.Generator) -> np.ndarray:
    """2N views of N points; views 2t and 2t+1 come from point t.

    Two draws per call, in fixed order, so a seeded generator reproduces: the
    noise for all views as one ``normal`` of shape (2N, d), then the dropout
    mask as one ``random`` of the same shape.
    """
    views = np.repeat(points, 2, axis=0)
    views += rng.normal(0.0, cfg.noise_sigma, size=views.shape)
    views[rng.random(views.shape) < cfg.dropout_prob] = 0.0
    return views


def _forward_pass(net: Mlp, views: np.ndarray, cfg: TrainConfig) -> tuple[MlpTrace, _Pass, np.ndarray]:
    """Forward the views and take their NT-Xent pass, with each batch's smallest anchor-row similarity.

    The minimum is read before the pass overwrites the similarities with its
    logits. A stack of K networks, ``params`` (K, P), on views (K, 2N, d)
    gives K of each from one forward and one pass. Degenerate latents raise
    ZeroVectorError or ValueError.
    """
    trace = forward(net, views)
    unit, norms = _unit_rows(trace.act[-1])
    sims = _cosine_matrix(unit, AnchorMode.PAPER_N.step)
    min_similarity = sims.min(axis=(-2, -1))
    return trace, _Pass(sims, cfg.tau, AnchorMode.PAPER_N, unit, norms), min_similarity


class _Run:
    """A run of one network's steps, and its trace, filled a block of steps at a time.

    Each step writes its parameter gradient into ``grads``, a network built
    once per run, its collapse flag and gradient norm into its trace row, and
    its pass's ``lse``, ``pos``, ``max_excl`` and pair similarities (rows, N)
    into row ``kept`` of the block. A full block, and the last one, is
    evaluated into the trace's loss and bound columns by one stacked
    :func:`_evaluation`. A divergence raises NonFiniteLossError carrying the
    trace of the steps before it. :meth:`run` drives the steps.
    """

    def __init__(self, net: Mlp, cfg: TrainConfig, steps: int, first: int = 0):
        self.net, self.cfg, self.first = net, cfg, first
        self.grads = Mlp(net.blocks, np.empty_like(net.params))
        self.trace = TrainTrace._empty(steps, first)
        rows = min(BLOCK_STEPS, steps)
        self.lse, self.pos, self.max_excl, self.pair_sims = (np.empty((rows, cfg.n_pairs)) for _ in range(4))
        self.start = 0  # the trace row of the block's first step
        self.kept = 0  # block rows holding a pass
        self.done = 0  # trace rows of completed steps

    def run(self, batches: Iterable[np.ndarray], rng: np.random.Generator) -> TrainTrace:
        """Take one step on each batch of points in turn, then evaluate the last block; returns the trace.

        A KeyboardInterrupt drops the step it lands in; it goes on with the
        trace of the steps completed before it, evaluated, as its ``trace``.
        """
        with np.errstate(over="ignore", invalid="ignore"):  # a diverging step is refused by its checks, not warned of
            try:
                for points in batches:
                    self.step(points, rng)
                self.flush()
            except KeyboardInterrupt as exc:
                self.kept = self.done - self.start  # an interrupted flush evaluates its rows again
                self.flush()
                exc.trace = self.trace._head(self.done)
                raise
        return self.trace

    def step(self, points: np.ndarray, rng: np.random.Generator) -> None:
        """One full-batch gradient-descent update of the network on 2N views of the points, its diagnostics kept.

        Degenerate latents (non-finite entries or a zero-norm row) and
        non-finite gradients raise NonFiniteLossError, once the steps kept
        before, and this step's pass if it was taken, are evaluated: the
        first step that fails is the one named.
        """
        cfg, i = self.cfg, self.kept
        row = self.start + i
        views = _augment_batch(points, cfg.augment, rng)
        try:
            trace, p, min_similarity = _forward_pass(self.net, views, cfg)
            self.trace.collapsed[row] = min_similarity >= 1.0 - COLLAPSE_TOL
            self.lse[i], self.pos[i], self.max_excl[i], self.pair_sims[i] = p.lse, p.pos, p.max_excl, p.pair_sims
            self.kept = i + 1
            grad = self.net.backward(trace, _latent_grad(p), out=self.grads)
        except (ZeroVectorError, ValueError) as exc:
            self._fail(row, f"degenerate latents or loss: {exc}", exc)
        sq = np.vdot(grad, grad)
        if not math.isfinite(sq):
            self._fail(row, "non-finite parameter gradient")
        self.trace.grad_norm[row] = math.sqrt(sq)
        params = self.net.params
        params -= cfg.learning_rate * grad
        self.done = row + 1
        if self.kept == len(self.lse):
            self.flush()

    def _fail(self, row: int, reason: str, cause: Exception | None = None):
        """Raise NonFiniteLossError at trace row ``row``, with the rows before it, once the kept steps are evaluated."""
        self.flush()
        raise NonFiniteLossError(self.first + row, reason, self.trace._head(row)) from cause

    def flush(self) -> None:
        """Evaluate the kept steps at once; a refusal is evaluated again step by step, to name its first step."""
        n, self.kept = self.kept, 0  # taken first, so that the flush of a refusal's _fail finds nothing kept
        if not n:
            return
        try:
            self._evaluate(slice(0, n), slice(self.start, self.start + n))
        except ValueError:
            for i in range(n):
                try:
                    self._evaluate(i, self.start + i)
                except ValueError as exc:
                    self._fail(self.start + i, f"degenerate latents or loss: {exc}", exc)
            raise
        self.start += n

    def _evaluate(self, rows, at) -> None:
        """Diagnostics of block ``rows`` into trace rows ``at``: slices, or one index each, so a refusal shows scalars."""
        ev = _evaluation(self.cfg.tau, self.lse[rows], self.pos[rows], self.max_excl[rows], self.pair_sims[rows])
        t, b, r = self.trace, ev.breakdown, ev.report
        t.loss_total[at], t.loss_alignment[at], t.loss_distribution[at] = b.total, b.alignment, b.distribution
        t.avg_pos_sim[at], t.paper_bound[at], t.strict_bound[at] = r.avg_pos_sim, r.paper_bound, r.strict_bound
        t.paper_gap[at], t.strict_gap[at] = r.paper_gap, r.strict_gap


def train_step(
    net: Mlp,
    points: np.ndarray,
    cfg: TrainConfig,
    rng: np.random.Generator,
    step: int = 0,
) -> TrainTrace:
    """One full-batch gradient-descent update, as a run of one step; the network's params are updated in place.

    Augments the N points (N, input_dim) into 2N views, takes one NT-Xent
    pass on the resulting latents, backpropagates its loss gradient through
    the network, and applies ``-learning_rate * grad``. Returns the run's
    trace: one row of pre-update diagnostics, whose step is ``step``. A
    network whose blocks are not ``cfg.blocks``, and points of another shape,
    raise DimensionMismatchError before any draw. Degenerate latents
    (non-finite entries or a zero-norm row), a loss or bound that its checks
    refuse, and non-finite gradients raise NonFiniteLossError.
    """
    if net.blocks != cfg.blocks:
        raise DimensionMismatchError(f"network blocks {net.blocks} are not the config's {cfg.blocks}")
    points = np.asarray(points, dtype=np.float64)
    if points.shape != (cfg.n_pairs, cfg.input_dim):
        want = (cfg.n_pairs, cfg.input_dim)
        raise DimensionMismatchError(f"points must have shape (n_pairs, input_dim) = {want}, got {points.shape}")
    return _Run(net, cfg, 1, step).run([points], rng)


def train(cfg: TrainConfig) -> TrainTrace:
    """Run the configured training loop; deterministic given the config.

    Each step samples N dataset points with replacement and takes the update
    of :func:`train_step`; the diagnostics are evaluated a block of
    BLOCK_STEPS steps at a time. On divergence the NonFiniteLossError carries
    the trace of the steps before it in its ``trace`` attribute.
    """
    points = gen_synthetic(cfg.input_dim, cfg.dataset, _stream(cfg.seed, 0))
    net = Mlp(cfg.blocks, _init_params(_stream(cfg.seed, 1).random(cfg.n_params), cfg.blocks))
    loop_rng = _stream(cfg.seed, 2)
    # Each step's indices are drawn just before its augmentation, as the stream order asks.
    batches = (points[loop_rng.integers(0, cfg.dataset.points, size=cfg.n_pairs)] for _ in range(cfg.steps))
    return _Run(net, cfg, cfg.steps).run(batches, loop_rng)
