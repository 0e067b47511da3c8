"""Desk-scale SimCLR on synthetic data, instrumented with loss and bound diagnostics.

The four classic components, shrunk to laptop size: a stochastic augmentation
(Gaussian noise then coordinate dropout), an MLP encoder, an MLP projection
head with ReLU between layers, and the NT-Xent loss. Every training step
keeps the per-anchor terms of its NT-Xent pass *before* the parameter update,
so the loss breakdown and both similarity-bound variants can be watched live
while training. A step does only the math that feeds its update, and writes
what the diagnostics need into block arrays of BLOCK_STEPS rows. One stacked
evaluation per block (and one for the last, short block) gives every step's
diagnostics, bit for bit as one step evaluated alone, with every check of
:class:`LossBreakdown` and :class:`BoundReport`. A refusal found in a block
is evaluated again step by step, so it names its step. The trace is columns
(steps,); its :class:`StepRecord` rows are built on demand.

Randomness is PCG64 throughout. A run derives three independent streams from
the config seed via SeedSequence spawn keys: (0,) for the dataset, (1,) for
weight init, (2,) for minibatch sampling and augmentation. Each step takes
three draws from stream (2,) in this order: the N point indices, the noise
for all 2N views, then their dropout mask.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field, fields

import numpy as np

from .bounds import _check_memory, _evaluation, _pass_bytes, _stream
from .errors import (
    DimensionMismatchError,
    InvalidDatasetParamsError,
    NonFiniteLossError,
    ZeroVectorError,
)
from .loss import AnchorMode, _latent_grad, _Pass
from .sim import _check_seed, _check_tau, _cosine_matrix, _unit_rows

#: Every anchor-row similarity at least this close to 1 counts as a collapsed batch. The anchor rows hold
#: every latent's similarity to each anchor, so within this tolerance every pair is at least 1 - 4 * tol.
COLLAPSE_TOL = 1e-12

#: Steps whose diagnostics are evaluated at once, from the pass values they keep in one block.
BLOCK_STEPS = 64

#: Bytes each step adds to a run: its row of the trace columns, and while the trace is written its values as
#: Python numbers and its CSV line as a line, in the joined text and encoded. The desk run grows by 530-546
#: per step under tracemalloc (steps 40 against 400, seeds 0-2). Numbers of 23 characters (a sign, 17 digits
#: and an exponent), against 18.4 on average there, would add under 90: a line is held twice at most.
_RECORD_BYTES = 640


@dataclass
class MlpTrace:
    """Forward-pass intermediates kept for backpropagation."""

    pre: list[np.ndarray]
    act: list[np.ndarray]  # act[0] is the input; act[-1] the output


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


@functools.lru_cache(maxsize=16)
def _init_scale(*layouts: tuple[int, ...]) -> tuple[np.ndarray, np.ndarray]:
    """Each parameter's init uniform as ``low`` and ``high - low`` (P,), over layouts laid end to end."""
    low = []
    for dims in layouts:
        for fan_in, fan_out in zip(dims[:-1], dims[1:]):
            bound = 1.0 / math.sqrt(fan_in)
            low += [np.full(fan_in * fan_out, -bound), np.full(fan_out, -0.1 * bound)]
    low = np.concatenate(low)
    span = -2.0 * low  # high is -low: high - low exactly as rng.uniform computes it
    low.flags.writeable = span.flags.writeable = False  # cached, so shared by every caller
    return low, span


def _init_params(uniforms: np.ndarray, *layouts: tuple[int, ...]) -> np.ndarray:
    """Parameters (..., P) from draws U[0, 1) (..., P): ``low + (high - low) * u``, as ``rng.uniform`` makes them."""
    low, span = _init_scale(*layouts)
    return uniforms * span + low


def _forward_floats(cfg: TrainConfig) -> int:
    """Floats per row a model forward keeps: its view, and each layer's pre-activation and activation."""
    return cfg.input_dim + 2 * sum(cfg.encoder_dims + cfg.projector_dims)


def _block_bytes(cfg: TrainConfig) -> int:
    """Bytes of a run's block: four (rows, N) arrays of pass values and two (rows,) of scalars per step."""
    return 8 * min(BLOCK_STEPS, cfg.steps) * (4 * cfg.n_pairs + 2)


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
    row_floats = _forward_floats(cfg) + 3 * widest + 4 * cfg.latent_dim
    return _pass_bytes(cfg.n_pairs, row_floats) + 8 * 3 * cfg.n_params


@dataclass(eq=False, frozen=True)
class Mlp:
    """Fully connected network, ReLU between layers, identity at the output.

    The parameters are one flat vector ``params`` (P,) in the layout of
    :func:`_layer_views`; ``weights`` and ``biases`` are tuples of views into
    it, built once at construction. The fields are frozen, so the views
    cannot fall out of step with ``params``, and a copy views its own copy
    of ``params``. Forward maps a (batch, d) array through ``x @ W + b`` per
    layer, with the ReLU subgradient at 0 taken as 0. A stack ``params``
    (K, P) is K networks, run at once into (K, batch, d) activations and
    backpropagated into a stack (K, P) of gradients. Networks compare by
    identity.
    """

    layer_dims: tuple[int, ...]
    params: np.ndarray
    weights: tuple[np.ndarray, ...] = field(init=False, repr=False)
    biases: tuple[np.ndarray, ...] = field(init=False, repr=False)

    def __post_init__(self):
        if self.params.shape[-1] != _param_count(self.layer_dims):
            raise DimensionMismatchError(f"{self.params.shape[-1]} parameters do not fit layer dims {self.layer_dims}")
        layers = _layer_views(self.layer_dims, self.params)
        object.__setattr__(self, "weights", tuple(w for w, _ in layers))
        object.__setattr__(self, "biases", tuple(b for _, b in layers))

    def __reduce__(self):
        # Copies rebuild their views on the copied params: copied views would not share its memory.
        return type(self), (self.layer_dims, self.params)

    @classmethod
    def init(cls, layer_dims, rng: np.random.Generator) -> "Mlp":
        """Seeded init: weights uniform in [-1/sqrt(fan_in), +1/sqrt(fan_in)].

        Biases use a tenth of that range: nonzero, so a fully dead ReLU layer
        still emits a latent with a direction, but small, because the bias is
        shared across rows and would otherwise dominate the initial cosine
        geometry with a common component. One ``rng.random(P)`` draws every
        parameter in the order of the flat layout, scaled per layer: the same
        numbers as one ``rng.uniform`` per layer's weights, then biases.
        """
        dims = tuple(int(d) for d in layer_dims)
        if len(dims) < 2 or any(d < 1 for d in dims):
            raise DimensionMismatchError(f"need at least input and output dims >= 1, got {dims}")
        return cls(layer_dims=dims, params=_init_params(rng.random(_param_count(dims)), dims))

    def forward_trace(self, x: np.ndarray) -> MlpTrace:
        x = np.asarray(x, dtype=np.float64)
        if x.ndim < 2 or x.shape[-1] != self.layer_dims[0]:
            raise DimensionMismatchError(
                f"input shape {x.shape} does not match first layer dim {self.layer_dims[0]}"
            )
        pre, act, last = [], [x], len(self.weights) - 1
        # Overflow to inf is a handled divergence signal, not a warning-worthy event.
        with np.errstate(over="ignore", invalid="ignore"):
            for l, (w, b) in enumerate(zip(self.weights, self.biases)):
                z = act[-1] @ w + b
                pre.append(z)
                act.append(np.maximum(z, 0.0) if l < last else z)
        return MlpTrace(pre=pre, act=act)

    def backward(
        self, trace: MlpTrace, grad_out: np.ndarray, out: Mlp | None = None, input_grad: bool = True
    ) -> tuple[np.ndarray, np.ndarray | None]:
        """Backpropagate ``grad_out`` (w.r.t. the output) through the trace of a forward of this network.

        Returns (parameter gradient in the layout of ``params``, grad w.r.t. the input).
        The parameter gradient is written into the layers of ``out``, a network of
        this one's shape whose ``params`` receive it, or else of a new one. With
        ``input_grad`` false the input's gradient is not formed, and None is
        returned for it. A stack of networks takes a stack of traces and
        gradients, one per network.
        """
        grads = Mlp(self.layer_dims, np.empty_like(self.params)) if out is None else out
        g = np.asarray(grad_out, dtype=np.float64)
        last = len(self.weights) - 1
        for l in range(last, -1, -1):
            d_pre = g if l == last else g * (trace.pre[l] > 0)
            np.matmul(trace.act[l].swapaxes(-1, -2), d_pre, out=grads.weights[l])
            d_pre.sum(axis=-2, keepdims=True, out=grads.biases[l])
            g = d_pre @ self.weights[l].swapaxes(-1, -2) if l or input_grad else None
        return grads.params, g


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
        need += _step_bytes(self) + _block_bytes(self) + self.steps * _RECORD_BYTES
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

    ``params`` holds the encoder's parameters, then the projector's. The two
    networks are views of it, built on first access and handed out again for
    as long as ``params`` is the same array: an update in place keeps them,
    and rebinding ``params`` builds new ones on the new array. The gradient
    array that backpropagation writes, and the networks viewing it, are kept
    the same way from the first backward on. A copy copies one array and
    builds its own networks. Models compare by identity.
    """

    encoder_dims: tuple[int, ...]
    projector_dims: tuple[int, ...]
    params: np.ndarray

    def __reduce__(self):
        # Copies leave the networks behind: copied views would not share the copied params' memory.
        return type(self), (self.encoder_dims, self.projector_dims, self.params)

    @classmethod
    def init(cls, cfg: TrainConfig, rng: np.random.Generator) -> "SimclrModel":
        """Both networks as :meth:`Mlp.init` draws them, the encoder first, from one ``rng.random(P)``."""
        dims = (cfg.input_dim, *cfg.encoder_dims), (cfg.encoder_out, *cfg.projector_dims)
        return cls(*dims, _init_params(rng.random(cfg.n_params), *dims))

    def _over(self, flat: np.ndarray) -> tuple[Mlp, Mlp]:
        """An encoder and a projector viewing ``flat``, an array in the layout of ``params``."""
        split = _param_count(self.encoder_dims)
        return Mlp(self.encoder_dims, flat[..., :split]), Mlp(self.projector_dims, flat[..., split:])

    def _networks(self) -> tuple[np.ndarray, Mlp, Mlp]:
        """The params array the networks view, the encoder and the projector; rebuilt once params is rebound."""
        nets = self.__dict__.get("_nets")
        if nets is None or nets[0] is not self.params:
            nets = self._nets = (self.params, *self._over(self.params))
        return nets

    def _gradient(self) -> tuple[np.ndarray, Mlp, Mlp]:
        """An array shaped like params for its gradient, and an encoder and a projector viewing it.

        Built on first use, so a model that only runs forward never holds it,
        and rebuilt once params is rebound.
        """
        grads = self.__dict__.get("_grads")
        if grads is None or grads[0] is not self.params:
            grad = np.empty_like(self.params, order="C")
            grads = self._grads = (self.params, grad, *self._over(grad))
        return grads[1:]

    @property
    def encoder(self) -> Mlp:
        return self._networks()[1]

    @property
    def projector(self) -> Mlp:
        return self._networks()[2]


@dataclass
class ForwardResult:
    """Latents in pairing order, (2N, m) or a stack (K, 2N, m), with both networks' traces kept for backpropagation."""

    latents: np.ndarray
    encoder_trace: MlpTrace
    projector_trace: MlpTrace


def forward(encoder: Mlp, projector: Mlp, views: np.ndarray) -> ForwardResult:
    """Map 2N augmented views through encoder then projector; K stacked models map views (K, 2N, d) to K batches.

    The latents are not checked here: the NT-Xent pass refuses non-finite
    entries and zero-norm rows as it normalizes them.
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
    """Per-step diagnostics, evaluated before the parameter update, as Python numbers: one row of a trace."""

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


@dataclass(eq=False)
class TrainTrace:
    """A run's diagnostics as columns (steps,), one per :class:`StepRecord` field and in its order.

    ``records`` builds the records from the columns on demand. Traces
    compare by identity; compare their records or columns instead.
    """

    step: np.ndarray
    loss_total: np.ndarray
    loss_alignment: np.ndarray
    loss_distribution: np.ndarray
    avg_pos_sim: np.ndarray
    paper_bound: np.ndarray
    strict_bound: np.ndarray
    paper_gap: np.ndarray
    strict_gap: np.ndarray
    grad_norm: np.ndarray
    collapsed: np.ndarray

    @classmethod
    def _empty(cls, steps: int, first: int = 0) -> "TrainTrace":
        """Columns of steps first, first + 1, ..., whose values are to be filled in."""
        floats = [np.empty(steps) for _ in fields(cls)[1:-1]]
        return cls(np.arange(first, first + steps), *floats, np.zeros(steps, dtype=bool))

    def _head(self, steps: int) -> "TrainTrace":
        """The first ``steps`` rows, as views."""
        return TrainTrace(*(getattr(self, f.name)[:steps] for f in fields(self)))

    @property
    def records(self) -> list[StepRecord]:
        return [StepRecord(*row) for row in zip(*(getattr(self, f.name).tolist() for f in fields(self)))]

    @property
    def collapse_step(self) -> int | None:
        """The first collapsed step, or None."""
        hit = np.flatnonzero(self.collapsed)
        return int(self.step[hit[0]]) if hit.size else None

    def __len__(self) -> int:
        return len(self.step)


def _forward_pass(model: SimclrModel, views: np.ndarray, cfg: TrainConfig) -> tuple[ForwardResult, _Pass, np.ndarray]:
    """Forward the views and take their NT-Xent pass, with each batch's smallest anchor-row similarity.

    The minimum is read before the pass overwrites the similarities with its
    logits. A stack of K models, ``params`` (K, P), on views (K, 2N, d) gives
    K of each from one forward and one pass. Degenerate latents raise
    ZeroVectorError or ValueError.
    """
    fwd = forward(model.encoder, model.projector, views)
    unit, norms = _unit_rows(fwd.latents)
    sims = _cosine_matrix(unit, AnchorMode.PAPER_N.step)
    min_similarity = sims.min(axis=(-2, -1))
    return fwd, _Pass(sims, cfg.tau, AnchorMode.PAPER_N, unit, norms), min_similarity


def _backprop(model: SimclrModel, fwd: ForwardResult, p: _Pass) -> tuple[np.ndarray, np.ndarray]:
    """The pass's latent gradient, and the model's gradient array (..., P) it is backpropagated into.

    A non-finite latent gradient raises ValueError. The encoder's input is
    data, so its gradient is not formed. The model's next backward writes the
    same gradient array again.
    """
    grad_z = _latent_grad(p)
    grad, encoder_grad, projector_grad = model._gradient()
    _, grad_hidden = model.projector.backward(fwd.projector_trace, grad_z, out=projector_grad)
    model.encoder.backward(fwd.encoder_trace, grad_hidden, out=encoder_grad, input_grad=False)
    return grad_z, grad


class _Run:
    """A run's trace, filled a block of steps at a time.

    Each step writes what its diagnostics need into row ``kept`` of the block:
    its pass's ``lse``, ``pos`` and ``max_excl`` and its pair similarities
    (rows, N), its smallest anchor-row similarity and its squared gradient
    norm (rows,). A full block, and the last one, is evaluated into the trace
    columns by one stacked :func:`_evaluation`.
    """

    def __init__(self, cfg: TrainConfig, steps: int, first: int = 0):
        self.cfg, self.first = cfg, first
        self.trace = TrainTrace._empty(steps, first)
        rows = min(BLOCK_STEPS, steps)
        self.lse, self.pos, self.max_excl, self.pair_sims = (np.empty((rows, cfg.n_pairs)) for _ in range(4))
        self.min_similarity = np.empty(rows)
        self.grad_sq = np.zeros(rows)  # a step that fails leaves its row; zeros keep its square root quiet
        self.start = 0  # the trace row of the block's first step
        self.kept = 0  # block rows holding a pass

    def step(self, model: SimclrModel, points: np.ndarray, rng: np.random.Generator) -> None:
        """One full-batch gradient-descent update of ``model`` on 2N views of the points, its diagnostics kept.

        Degenerate latents (non-finite entries or a zero-norm row) and
        non-finite gradients raise NonFiniteLossError, once the steps kept
        before, and this step's pass if it was taken, are evaluated: the
        first step that fails is the one named.
        """
        cfg, i = self.cfg, self.kept
        row = self.start + i
        views = _augment_batch(points, cfg.augment, rng)
        try:
            fwd, p, self.min_similarity[i] = _forward_pass(model, views, cfg)
            self.lse[i], self.pos[i], self.max_excl[i], self.pair_sims[i] = p.lse, p.pos, p.max_excl, p.pair_sims
            self.kept = i + 1
            _, grad = _backprop(model, fwd, p)
        except (ZeroVectorError, ValueError) as exc:
            self._fail(row, f"degenerate latents or loss: {exc}", exc)
        sq = np.vdot(grad, grad)
        if not math.isfinite(sq):
            self._fail(row, "non-finite parameter gradient")
        self.grad_sq[i] = sq
        model.params -= cfg.learning_rate * grad
        if self.kept == len(self.lse):
            self.flush()

    def _fail(self, row: int, reason: str, cause: Exception | None = None):
        self.flush()
        raise NonFiniteLossError(self.first + row, reason) from cause

    def flush(self) -> None:
        """Evaluate the kept steps at once; a refusal is evaluated again step by step, to name its first step."""
        n = self.kept
        if not n:
            return
        try:
            self._evaluate(slice(0, n), slice(self.start, self.start + n))
        except ValueError:
            for i in range(n):
                try:
                    self._evaluate(i, self.start + i)
                except ValueError as exc:
                    raise NonFiniteLossError(self.first + self.start + i, f"degenerate latents or loss: {exc}") from exc
            raise
        self.start += n
        self.kept = 0

    def _evaluate(self, rows, at) -> None:
        """Diagnostics of block ``rows`` into trace rows ``at``: slices, or one index each, so a refusal shows scalars."""
        ev = _evaluation(self.cfg.tau, self.lse[rows], self.pos[rows], self.max_excl[rows], self.pair_sims[rows])
        t, b, r = self.trace, ev.breakdown, ev.report
        t.loss_total[at], t.loss_alignment[at], t.loss_distribution[at] = b.total, b.alignment, b.distribution
        t.avg_pos_sim[at], t.paper_bound[at], t.strict_bound[at] = r.avg_pos_sim, r.paper_bound, r.strict_bound
        t.paper_gap[at], t.strict_gap[at] = r.paper_gap, r.strict_gap
        t.grad_norm[at] = np.sqrt(self.grad_sq[rows])
        t.collapsed[at] = self.min_similarity[rows] >= 1.0 - COLLAPSE_TOL


def train_step(
    model: SimclrModel,
    points: np.ndarray,
    cfg: TrainConfig,
    rng: np.random.Generator,
    step: int = 0,
) -> StepRecord:
    """One full-batch gradient-descent update, as a run of one step; the model is mutated in place.

    Augments the N points into 2N views, takes one NT-Xent pass on the
    resulting latents, backpropagates its loss gradient through projector and
    encoder, and applies ``-learning_rate * grad``. The returned record holds
    the pre-update diagnostics. Degenerate latents (non-finite entries or a
    zero-norm row), a loss or bound that its checks refuse, and non-finite
    gradients raise NonFiniteLossError.
    """
    run = _Run(cfg, 1, step)
    run.step(model, np.asarray(points, dtype=np.float64), rng)
    run.flush()
    return run.trace.records[0]


def train(cfg: TrainConfig) -> TrainTrace:
    """Run the configured training loop; deterministic given the config.

    Each step samples N dataset points with replacement and takes the update
    of :func:`train_step`; the diagnostics are evaluated a block of
    BLOCK_STEPS steps at a time. On divergence the NonFiniteLossError carries
    the trace of the steps before it in its ``trace`` attribute.
    """
    dataset = gen_synthetic(cfg.input_dim, cfg.dataset, _stream(cfg.seed, 0))
    model = SimclrModel.init(cfg, _stream(cfg.seed, 1))
    loop_rng = _stream(cfg.seed, 2)

    run = _Run(cfg, cfg.steps)
    try:
        for _ in range(cfg.steps):
            idx = loop_rng.integers(0, cfg.dataset.points, size=cfg.n_pairs)
            run.step(model, dataset.points[idx], loop_rng)
        run.flush()
    except NonFiniteLossError as exc:
        exc.trace = run.trace._head(exc.step)
        raise
    return run.trace
