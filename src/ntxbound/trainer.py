"""Desk-scale SimCLR on synthetic data, instrumented with loss and bound diagnostics.

The four classic components, shrunk to laptop size: a stochastic augmentation
(Gaussian noise then coordinate dropout), an MLP encoder, an MLP projection
head with ReLU between layers, and the NT-Xent loss. Every training step
records the loss breakdown and both similarity-bound variants *before* the
parameter update, so the bound can be watched live while training.

Randomness is PCG64 throughout. A run derives three independent streams from
the config seed via SeedSequence spawn keys: (0,) for the dataset, (1,) for
weight init, (2,) for minibatch sampling and augmentation. Each step takes
three draws from stream (2,) in this order: the N point indices, the noise
for all 2N views, then their dropout mask.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .bounds import BatchEvaluation, _check_memory, _evaluation, _pass_bytes, _stream
from .errors import (
    DimensionMismatchError,
    InvalidDatasetParamsError,
    NonFiniteLossError,
    ZeroVectorError,
)
from .loss import AnchorMode, _latent_grad, _nt_xent_pass
from .sim import EmbeddingBatch, _check_seed, _check_tau

#: Every anchor-row similarity at least this close to 1 counts as a collapsed batch. The anchor rows hold
#: every latent's similarity to each anchor, so within this tolerance every pair is at least 1 - 4 * tol.
COLLAPSE_TOL = 1e-12

#: Bytes each step adds to a run: its StepRecord, and while the trace is written its CSV line as a line,
#: in the joined text and encoded. The desk run measures 807 under tracemalloc; numbers of 23 characters
#: (a sign, 17 digits and an exponent), against 18.4 on average there, would add under 100.
_RECORD_BYTES = 1024


@dataclass
class MlpTrace:
    """Forward-pass intermediates kept for backpropagation, with the weight views the pass ran with."""

    pre: list[np.ndarray]
    act: list[np.ndarray]  # act[0] is the input; act[-1] the output
    weights: list[np.ndarray]


def _param_count(layer_dims: tuple[int, ...]) -> int:
    return sum((fan_in + 1) * fan_out for fan_in, fan_out in zip(layer_dims[:-1], layer_dims[1:]))


def _layer_views(layer_dims: tuple[int, ...], params: np.ndarray) -> list[tuple[np.ndarray, np.ndarray]]:
    """Each layer's weights (..., fan_in, fan_out) and biases (..., 1, fan_out) as views of params (..., P).

    The flat layout is, per layer, the weights row-major, then the biases.
    This is the one place that walks it.
    """
    lead, views, offset = params.shape[:-1], [], 0
    for fan_in, fan_out in zip(layer_dims[:-1], layer_dims[1:]):
        mid = offset + fan_in * fan_out
        w = params[..., offset:mid].reshape(lead + (fan_in, fan_out))
        offset = mid + fan_out
        views.append((w, params[..., None, mid:offset]))
    return views


def _forward_floats(cfg: TrainConfig) -> int:
    """Floats per row a model forward keeps: its view, and each layer's pre-activation and activation."""
    return cfg.input_dim + 2 * sum(cfg.encoder_dims + cfg.projector_dims)


def _step_bytes(cfg: TrainConfig) -> int:
    """Bytes one step of one model holds at its peak: forward, NT-Xent pass with its gradient, and backward.

    Per row: the forward's floats, three rows of the widest layer for the
    backward's incoming, masked and outgoing gradients, and four latent-sized
    rows for the unit rows and the latent gradient. The pass holds N anchor
    rows each of similarities and logits, and their gradient takes the Gram
    matrix's place. On top come the parameters, their gradient and the
    update's product.
    """
    widest = max(cfg.input_dim, *cfg.encoder_dims, *cfg.projector_dims)
    row_floats = _forward_floats(cfg) + 3 * widest + 4 * cfg.latent_dim
    return _pass_bytes(cfg.n_pairs, row_floats, cfg.n_pairs) + 8 * 3 * cfg.n_params


@dataclass(eq=False)
class Mlp:
    """Fully connected network, ReLU between layers, identity at the output.

    The parameters are one flat vector ``params`` (P,) in the layout of
    :func:`_layer_views`; ``weights`` and ``biases`` are tuples of views into
    it. Forward maps a (batch, d) array through ``x @ W + b`` per layer, with
    the ReLU subgradient at 0 taken as 0. A stack ``params`` (K, P) is K
    networks, run at once into (K, batch, d) activations and backpropagated
    into a stack (K, P) of gradients. Networks compare by identity.
    """

    layer_dims: tuple[int, ...]
    params: np.ndarray

    def __post_init__(self):
        if self.params.shape[-1] != _param_count(self.layer_dims):
            raise DimensionMismatchError(f"{self.params.shape[-1]} parameters do not fit layer dims {self.layer_dims}")

    @classmethod
    def init(cls, layer_dims, rng: np.random.Generator) -> "Mlp":
        """Seeded init: weights uniform in [-1/sqrt(fan_in), +1/sqrt(fan_in)].

        Biases use a tenth of that range: nonzero, so a fully dead ReLU layer
        still emits a latent with a direction, but small, because the bias is
        shared across rows and would otherwise dominate the initial cosine
        geometry with a common component. Draws run layer by layer, weights
        then biases: the order of the flat layout.
        """
        dims = tuple(int(d) for d in layer_dims)
        if len(dims) < 2 or any(d < 1 for d in dims):
            raise DimensionMismatchError(f"need at least input and output dims >= 1, got {dims}")
        mlp = cls(layer_dims=dims, params=np.empty(_param_count(dims)))
        for w, b in _layer_views(dims, mlp.params):
            bound = 1.0 / math.sqrt(w.shape[-2])
            w[...] = rng.uniform(-bound, bound, size=w.shape)
            b[0] = rng.uniform(-0.1 * bound, 0.1 * bound, size=b.shape[-1])
        return mlp

    @property
    def weights(self) -> tuple[np.ndarray, ...]:
        return tuple(w for w, _ in _layer_views(self.layer_dims, self.params))

    @property
    def biases(self) -> tuple[np.ndarray, ...]:
        return tuple(b for _, b in _layer_views(self.layer_dims, self.params))

    @property
    def n_layers(self) -> int:
        return len(self.layer_dims) - 1

    def forward_trace(self, x: np.ndarray) -> MlpTrace:
        x = np.asarray(x, dtype=np.float64)
        if x.ndim < 2 or x.shape[-1] != self.layer_dims[0]:
            raise DimensionMismatchError(
                f"input shape {x.shape} does not match first layer dim {self.layer_dims[0]}"
            )
        pre, act, weights = [], [x], []
        # Overflow to inf is a handled divergence signal, not a warning-worthy event.
        with np.errstate(over="ignore", invalid="ignore"):
            for l, (w, b) in enumerate(_layer_views(self.layer_dims, self.params)):
                z = act[-1] @ w + b
                pre.append(z)
                act.append(np.maximum(z, 0.0) if l < self.n_layers - 1 else z)
                weights.append(w)
        return MlpTrace(pre=pre, act=act, weights=weights)

    def backward(self, trace: MlpTrace, grad_out: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Backpropagate ``grad_out`` (w.r.t. the output) through the trace.

        Returns (parameter gradient in the layout of ``params``, grad w.r.t. the input).
        A stack of networks takes a stack of traces and gradients, one per network.
        """
        grad = np.empty_like(self.params)
        layers = _layer_views(self.layer_dims, grad)
        g = np.asarray(grad_out, dtype=np.float64)
        for l in reversed(range(self.n_layers)):
            gw, gb = layers[l]
            d_pre = g if l == self.n_layers - 1 else g * (trace.pre[l] > 0)
            np.matmul(trace.act[l].swapaxes(-1, -2), d_pre, out=gw)
            d_pre.sum(axis=-2, keepdims=True, out=gb)
            g = d_pre @ trace.weights[l].swapaxes(-1, -2)
        return grad, g


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
        # once; one step runs beside them, and every step keeps its record.
        data = self.dataset
        need = 8 * (data.clusters * self.input_dim + data.points * (3 * self.input_dim + 1))
        need += _step_bytes(self) + self.steps * _RECORD_BYTES
        what = (
            f"training {self.steps} steps on {data.points} points in {data.clusters} clusters"
            f" of dimension {self.input_dim} at N={self.n_pairs}"
        )
        _check_memory(need, what, InvalidDatasetParamsError)

    @property
    def encoder_out(self) -> int:
        return self.encoder_dims[-1]

    @property
    def latent_dim(self) -> int:
        return self.projector_dims[-1]

    @property
    def n_params(self) -> int:
        encoder, projector = (self.input_dim, *self.encoder_dims), (self.encoder_out, *self.projector_dims)
        return _param_count(encoder) + _param_count(projector)


@dataclass
class SyntheticDataset:
    """Sampled mixture points plus the ground truth used to generate them."""

    points: np.ndarray  # (points, dim)
    means: np.ndarray  # (clusters, dim)
    labels: np.ndarray  # (points,) cluster index per point


def gen_synthetic(dim: int, params: DatasetParams, seed) -> SyntheticDataset:
    """Gaussian-mixture points in R^dim, deterministic given the seed.

    ``seed`` is anything ``np.random.default_rng`` takes: an int, a
    SeedSequence or a Generator. Cluster means are standard normal; point p
    belongs to cluster p % clusters and equals its mean plus ``spread``-scaled
    Gaussian noise.
    """
    if dim < 1:
        raise InvalidDatasetParamsError(f"dim must be >= 1, got {dim}")
    rng = np.random.default_rng(seed)
    means = rng.standard_normal((params.clusters, dim))
    labels = np.arange(params.points) % params.clusters
    points = means[labels] + params.spread * rng.standard_normal((params.points, dim))
    return SyntheticDataset(points=points, means=means, labels=labels)


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


@dataclass(eq=False)
class SimclrModel:
    """Encoder and projection head over one flat vector (or a stack (K, P) of K models).

    ``params`` holds the encoder's parameters, then the projector's; the two
    networks are views of it built on access, so a copy copies one array.
    Models compare by identity.
    """

    encoder_dims: tuple[int, ...]
    projector_dims: tuple[int, ...]
    params: np.ndarray

    @classmethod
    def init(cls, cfg: TrainConfig, rng: np.random.Generator) -> "SimclrModel":
        encoder = Mlp.init((cfg.input_dim, *cfg.encoder_dims), rng)
        projector = Mlp.init((cfg.encoder_out, *cfg.projector_dims), rng)
        return cls(encoder.layer_dims, projector.layer_dims, np.concatenate([encoder.params, projector.params]))

    @property
    def encoder(self) -> Mlp:
        return Mlp(self.encoder_dims, self.params[..., : _param_count(self.encoder_dims)])

    @property
    def projector(self) -> Mlp:
        return Mlp(self.projector_dims, self.params[..., _param_count(self.encoder_dims) :])


@dataclass
class ForwardResult:
    """Latents in pairing order, (2N, m) or a stack (K, 2N, m), with both networks' traces kept for backpropagation."""

    latents: np.ndarray
    encoder_trace: MlpTrace
    projector_trace: MlpTrace

    @property
    def batch(self) -> EmbeddingBatch:
        """The latents of one model as a batch."""
        return EmbeddingBatch(self.latents)


def forward(encoder: Mlp, projector: Mlp, views: np.ndarray) -> ForwardResult:
    """Map 2N augmented views through encoder then projector; K stacked models map views (K, 2N, d) to K batches.

    The latents are not checked here: the NT-Xent pass refuses non-finite
    entries and zero-norm rows as it normalizes them, and ``batch`` refuses
    what :class:`EmbeddingBatch` refuses.
    """
    if encoder.layer_dims[-1] != projector.layer_dims[0]:
        raise DimensionMismatchError(
            f"encoder output dim {encoder.layer_dims[-1]} != projector input dim {projector.layer_dims[0]}"
        )
    etrace = encoder.forward_trace(views)
    ptrace = projector.forward_trace(etrace.act[-1])
    return ForwardResult(latents=ptrace.act[-1], encoder_trace=etrace, projector_trace=ptrace)


@dataclass(frozen=True)
class StepRecord:
    """Per-step diagnostics, evaluated before the parameter update."""

    step: int
    loss_total: float
    loss_alignment: float
    loss_distribution: float
    avg_pos_sim: float
    paper_bound: float
    strict_bound: float
    paper_gap: float
    strict_gap: float
    grad_norm: float
    collapsed: bool = False


@dataclass
class TrainTrace:
    """All step records of a run, plus where (if anywhere) the latents collapsed."""

    records: list[StepRecord]

    @property
    def collapse_step(self):
        for rec in self.records:
            if rec.collapsed:
                return rec.step
        return None

    @property
    def collapsed(self) -> bool:
        return self.collapse_step is not None

    def __len__(self) -> int:
        return len(self.records)


@dataclass
class LossAndGrads:
    """One forward and backward pass: diagnostics, latent gradient, and the gradient in the layout of ``params``.

    ``min_similarity`` is the smallest anchor-row similarity of each batch, which the collapse flag reads.
    """

    forward: ForwardResult
    evaluation: BatchEvaluation
    min_similarity: np.ndarray
    latent_grad: np.ndarray
    param_grad: np.ndarray


def loss_and_param_grads(model: SimclrModel, views: np.ndarray, cfg: TrainConfig) -> LossAndGrads:
    """Forward 2N views, take loss, bounds and latent gradient from one NT-Xent pass, and backpropagate.

    A stack of K models, ``params`` (K, P), on views (K, 2N, d) gives K of
    each from one forward, one pass and one backward. Degenerate latents
    raise ZeroVectorError or ValueError.
    """
    encoder, projector = model.encoder, model.projector
    fwd = forward(encoder, projector, views)
    p = _nt_xent_pass(fwd.latents, cfg.tau, AnchorMode.PAPER_N)
    evaluation, min_similarity = _evaluation(p), p.sims.min(axis=(-2, -1))
    grad_z = _latent_grad(p)
    projector_grad, grad_hidden = projector.backward(fwd.projector_trace, grad_z)
    encoder_grad, _ = encoder.backward(fwd.encoder_trace, grad_hidden)
    param_grad = np.concatenate([encoder_grad, projector_grad], axis=-1)
    return LossAndGrads(fwd, evaluation, min_similarity, grad_z, param_grad)


def train_step(
    model: SimclrModel,
    points: np.ndarray,
    cfg: TrainConfig,
    rng: np.random.Generator,
    step: int = 0,
) -> StepRecord:
    """One full-batch gradient-descent update; the model is mutated in place.

    Augments the N points into 2N views, evaluates loss and bounds on the
    resulting latents, backpropagates the loss gradient through projector and
    encoder, and applies ``-learning_rate * grad``. The returned record holds
    the pre-update diagnostics. Degenerate latents (non-finite entries or a
    zero-norm row) and non-finite gradients raise NonFiniteLossError.
    """
    views = _augment_batch(np.asarray(points, dtype=np.float64), cfg.augment, rng)
    try:
        out = loss_and_param_grads(model, views, cfg)
    except (ZeroVectorError, ValueError) as exc:
        raise NonFiniteLossError(step, f"degenerate latents or loss: {exc}") from exc
    sq = float(np.vdot(out.param_grad, out.param_grad))
    if not np.isfinite(sq):
        raise NonFiniteLossError(step, "non-finite parameter gradient")
    grad_norm = math.sqrt(sq)
    model.params -= cfg.learning_rate * out.param_grad

    breakdown, report = out.evaluation.breakdown, out.evaluation.report
    return StepRecord(
        step=step,
        loss_total=breakdown.total,
        loss_alignment=breakdown.alignment,
        loss_distribution=breakdown.distribution,
        avg_pos_sim=report.avg_pos_sim,
        paper_bound=report.paper_bound,
        strict_bound=report.strict_bound,
        paper_gap=report.paper_gap,
        strict_gap=report.strict_gap,
        grad_norm=grad_norm,
        collapsed=bool(out.min_similarity >= 1.0 - COLLAPSE_TOL),
    )


def train(cfg: TrainConfig) -> TrainTrace:
    """Run the configured training loop; deterministic given the config.

    Each step samples N dataset points with replacement, augments them, and
    applies :func:`train_step`. On divergence the NonFiniteLossError carries
    the trace accumulated so far in its ``trace`` attribute.
    """
    dataset = gen_synthetic(cfg.input_dim, cfg.dataset, _stream(cfg.seed, 0))
    model = SimclrModel.init(cfg, _stream(cfg.seed, 1))
    loop_rng = _stream(cfg.seed, 2)

    records: list[StepRecord] = []
    for step in range(cfg.steps):
        idx = loop_rng.integers(0, cfg.dataset.points, size=cfg.n_pairs)
        try:
            records.append(train_step(model, dataset.points[idx], cfg, loop_rng, step))
        except NonFiniteLossError as exc:
            exc.trace = TrainTrace(records=records)
            raise
    return TrainTrace(records=records)
