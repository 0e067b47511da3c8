"""The desk network: a fully connected MLP over one flat parameter vector, its forward and its backward.

``train`` runs it as the encoder and projection head of the desk model, and
``gradcheck`` checks its parameter gradient end to end. It needs nothing
else of the package, so a command that loads it loads no training loop.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import DimensionMismatchError


@dataclass
class MlpTrace:
    """Forward-pass intermediates kept for backpropagation."""

    pre: list[np.ndarray]
    act: list[np.ndarray]  # act[0] is the input; act[-1] the output, the latents of a desk model


def _layers(blocks: tuple[tuple[int, ...], ...]) -> list[tuple[int, int]]:
    """Each layer's (fan_in, fan_out): the layers of every block, laid end to end."""
    return [(fan_in, fan_out) for dims in blocks for fan_in, fan_out in zip(dims[:-1], dims[1:])]


def _param_count(blocks: tuple[tuple[int, ...], ...]) -> int:
    return sum((fan_in + 1) * fan_out for fan_in, fan_out in _layers(blocks))


def _layer_views(blocks: tuple[tuple[int, ...], ...], params: np.ndarray) -> list[tuple[np.ndarray, np.ndarray]]:
    """Each layer's weights (..., fan_in, fan_out) and biases (..., 1, fan_out) as views of params (..., P).

    The flat layout is, per layer, the weights row-major, then the biases.
    This is the one place that walks it.
    """
    lead, views, offset = params.shape[:-1], [], 0
    for fan_in, fan_out in _layers(blocks):
        mid = offset + fan_in * fan_out
        w = params[..., offset:mid].reshape(lead + (fan_in, fan_out))
        offset = mid + fan_out
        views.append((w, params[..., None, mid:offset]))
    return views


def _init_scale(blocks: tuple[tuple[int, ...], ...]) -> tuple[np.ndarray, np.ndarray]:
    """Each parameter's init uniform as ``low`` and ``high - low`` (P,), over the layers of the blocks.

    Weights are uniform in [-1/sqrt(fan_in), 1/sqrt(fan_in)] and biases in a
    tenth of that: nonzero, so a dead ReLU layer still emits a direction, and
    small, so their shared component does not dominate the initial cosines.
    One ``rng.random(P)`` scaled by these draws every parameter in flat order:
    the numbers of one ``rng.uniform`` per layer's weights, then biases.
    """
    low = []
    for fan_in, fan_out in _layers(blocks):
        bound = 1.0 / math.sqrt(fan_in)
        low += [np.full(fan_in * fan_out, -bound), np.full(fan_out, -0.1 * bound)]
    low = np.concatenate(low)
    span = -2.0 * low  # high is -low: high - low exactly as rng.uniform computes it
    return low, span


def _init_params(uniforms: np.ndarray, blocks: tuple[tuple[int, ...], ...]) -> np.ndarray:
    """Parameters (..., P) from draws U[0, 1) (..., P): ``low + (high - low) * u``, as ``rng.uniform`` makes them."""
    low, span = _init_scale(blocks)
    return uniforms * span + low


def _forward_floats(blocks: tuple[tuple[int, ...], ...]) -> int:
    """Floats per row a forward of the blocks keeps: its view, and each layer's pre-activation and activation."""
    return blocks[0][0] + 2 * sum(fan_out for _, fan_out in _layers(blocks))


@dataclass(eq=False, frozen=True)
class Mlp:
    """Fully connected network of blocks laid end to end: ReLU between the layers of a block, identity at its end.

    ``blocks`` holds each block's widths, its input's first; each block
    starts at the width the one before it ends at. The desk model is
    ``Mlp(cfg.blocks, params)``: the encoder, then the projection head. The
    parameters are one flat float64 array ``params`` (P,) in the layout of
    :func:`_layer_views`; ``weights`` and ``biases`` are tuples of views into
    it, and ``relu`` says of each layer whether a ReLU follows it, all built
    once at construction. The fields are frozen, so the views cannot fall out
    of step with ``params``, and a copy views its own copy of ``params``.
    :func:`forward` maps a (batch, d) array through ``x @ W + b`` per layer,
    with the ReLU subgradient at 0 taken as 0. A stack ``params`` (K, P) is K
    networks, run at once into (K, batch, d) activations and backpropagated
    into a stack (K, P) of gradients. Networks compare by identity.
    """

    blocks: tuple[tuple[int, ...], ...]
    params: np.ndarray
    weights: tuple[np.ndarray, ...] = field(init=False, repr=False)
    biases: tuple[np.ndarray, ...] = field(init=False, repr=False)
    relu: tuple[bool, ...] = field(init=False, repr=False)

    def __post_init__(self):
        if not self.blocks or any(len(dims) < 2 or min(dims) < 1 for dims in self.blocks):
            raise DimensionMismatchError(f"blocks must be one or more of at least two widths >= 1, got {self.blocks}")
        if any(dims[-1] != after[0] for dims, after in zip(self.blocks, self.blocks[1:])):
            raise DimensionMismatchError(f"each block must start at the width the one before it ends at: {self.blocks}")
        if not isinstance(self.params, np.ndarray) or self.params.ndim < 1:
            raise DimensionMismatchError(f"params must be an array of at least one dimension, got {self.params!r:.60}")
        if self.params.dtype != np.float64:
            raise ValueError(f"params must be float64, got {self.params.dtype}")
        if self.params.shape[-1] != _param_count(self.blocks):
            raise DimensionMismatchError(f"{self.params.shape[-1]} parameters do not fit blocks {self.blocks}")
        layers = _layer_views(self.blocks, self.params)
        object.__setattr__(self, "weights", tuple(w for w, _ in layers))
        object.__setattr__(self, "biases", tuple(b for _, b in layers))
        object.__setattr__(self, "relu", tuple(l < len(dims) - 2 for dims in self.blocks for l in range(len(dims) - 1)))

    def __reduce__(self):
        # Copies rebuild their views on the copied params: copied views would not share its memory.
        return type(self), (self.blocks, self.params)

    def backward(self, trace: MlpTrace, grad_out: np.ndarray, out: Mlp | None = None) -> np.ndarray:
        """Backpropagate ``grad_out`` (w.r.t. the output) through the trace of a forward of this network.

        Returns the parameter gradient in the layout of ``params``, written into
        the layers of ``out``, a network of this one's shape whose ``params``
        receive it, or else of a new one. The input's gradient is not formed.
        A stack of networks takes a stack of traces and gradients, one per
        network.
        """
        grads = Mlp(self.blocks, np.empty_like(self.params)) if out is None else out
        g = np.asarray(grad_out, dtype=np.float64)
        for l in range(len(self.weights) - 1, -1, -1):
            d_pre = g * (trace.pre[l] > 0) if self.relu[l] else g
            np.matmul(trace.act[l].swapaxes(-1, -2), d_pre, out=grads.weights[l])
            d_pre.sum(axis=-2, keepdims=True, out=grads.biases[l])
            if l:
                g = d_pre @ self.weights[l].swapaxes(-1, -2)
        return grads.params


def forward(net: Mlp, views: np.ndarray) -> MlpTrace:
    """Map views (..., 2N, d) through the network, keeping its trace; the latents, in pairing order, are ``act[-1]``.

    K stacked networks, ``params`` (K, P), map views (K, 2N, d) to K batches.
    The latents are not checked here: the NT-Xent pass refuses non-finite
    entries and zero-norm rows as it normalizes them.
    """
    x = np.asarray(views, dtype=np.float64)
    if x.ndim < 2 or x.shape[-1] != net.blocks[0][0]:
        raise DimensionMismatchError(f"input shape {x.shape} does not match first layer dim {net.blocks[0][0]}")
    pre, act = [], [x]
    for w, b, relu in zip(net.weights, net.biases, net.relu):
        z = act[-1] @ w + b
        pre.append(z)
        act.append(np.maximum(z, 0.0) if relu else z)
    return MlpTrace(pre=pre, act=act)
