"""The NT-Xent contrastive loss, its alignment/distribution split, and analytic gradients.

Conventions
-----------
With 2N latents in pairing order, write ``x[i, k] = sim(z_i, z_k) / tau``.
Each anchor ``a`` with partner ``p(a)`` contributes

    -x[a, p(a)] + LSE({x[a, k] : k != a})

and the loss is the sum of contributions divided by N. The anchor set depends
on :class:`AnchorMode`:

* ``PAPER_N``: the first element of each pair anchors it (N terms). With this
  set the alignment + distribution split reproduces the loss exactly.
* ``SYMMETRIC_2N``: every row anchors once (2N terms), both orderings of each
  pair; the normalizer stays N.

The split is ``alignment = -(1/N) sum x[a, p(a)]`` (pulls positives together)
and ``distribution = (1/N) sum LSE`` (pushes everything apart).
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

from .errors import EmptyInputError, InvalidTemperatureError
from .sim import EmbeddingBatch, SimilarityMatrix, _check_tau, _cosine_matrix, _unit_rows


class AnchorMode(enum.Enum):
    PAPER_N = "paper_n"
    SYMMETRIC_2N = "symmetric_2n"

    @property
    def step(self) -> int:
        """Anchors are rows 0, step, 2*step, ...: the first row of each pair, or every row."""
        return 2 if self is AnchorMode.PAPER_N else 1


@dataclass(frozen=True)
class LossConfig:
    """Temperature and anchor convention for the loss."""

    tau: float
    anchor_mode: AnchorMode = AnchorMode.PAPER_N

    def __post_init__(self):
        _check_tau(self.tau)


@dataclass(frozen=True)
class LossBreakdown:
    """Total loss with its alignment and distribution components.

    ``total`` is computed by summing per-anchor terms, the components by
    summing each part separately; the identity ``total = alignment +
    distribution`` is validated at construction to 1e-10 relative to the
    largest of the three magnitudes (at small tau the components reach
    1/tau while the total stays O(1), and float64 resolves their sum only to
    a few ulps of the components). Evaluated on a stack of batches, each
    field holds one entry per batch and is validated entry by entry.
    """

    total: float
    alignment: float
    distribution: float

    def __post_init__(self):
        vals = (self.total, self.alignment, self.distribution)
        scale = np.maximum(1.0, np.abs(vals).max(axis=0))  # finite iff every component is
        if not (scale < math.inf).all():
            raise ValueError(f"loss components must be finite, got {vals}")
        residual = abs(self.total - (self.alignment + self.distribution))
        if not (residual <= 1e-10 * scale).all():
            raise ValueError(
                f"decomposition identity violated: total={self.total!r}, "
                f"alignment+distribution={self.alignment + self.distribution!r}"
            )


def logsumexp(xs) -> float:
    """log(sum(exp(x_i))) via max-shift; safe for magnitudes up to 1e6.

    Raises EmptyInputError for an empty sequence.
    """
    arr = np.asarray(xs, dtype=np.float64)
    if arr.size == 0:
        raise EmptyInputError("logsumexp of an empty sequence")
    if not np.all(np.isfinite(arr)):
        raise ValueError("logsumexp arguments must be finite")
    m = float(np.max(arr))
    return m + float(np.log(np.sum(np.exp(arr - m))))


def anchor_indices(n_rows: int, mode: AnchorMode) -> tuple[np.ndarray, np.ndarray]:
    """Anchor rows and their positive partners for a batch of ``n_rows`` latents."""
    anchors = np.arange(0, n_rows, mode.step)
    return anchors, anchors ^ 1  # 2t <-> 2t+1


class _Pass:
    """One NT-Xent evaluation of a batch ``(2N, m)`` or a stack of batches ``(..., 2N, m)``.

    ``sims`` holds only the anchor rows of the similarity matrix, ``(..., A,
    2N)`` with A = 2N / ``mode.step`` (see :func:`_cosine_matrix`): the loss,
    both bounds and the pair similarities read no other row. With ``x[a, k] =
    sims[a, k] / tau``, each anchor ``a`` gets ``lse`` = LSE({x[a, k] : k !=
    a}), ``pos`` = x[a, p(a)] and ``max_excl`` = max({x[a, k] : k != a}).
    ``expd`` holds exp(x[a, k] - max_excl[a]), zero at k = a, and ``denom``
    its row sums: the softmax weights are their quotient, which only the
    gradient forms. ``unit`` and ``norms`` are None when the pass starts from
    a similarity matrix rather than from rows.
    """

    def __init__(self, sims: np.ndarray, tau: float, mode: AnchorMode, unit=None, norms=None):
        self.sims = sims
        self.tau = tau
        self.unit = unit
        self.norms = norms
        self.step = mode.step
        anchors, self.partners = anchor_indices(sims.shape[-1], mode)
        self.rows = np.arange(len(anchors))
        x = sims / tau
        x[..., self.rows, anchors] = -np.inf  # the k != a exclusion; exp(-inf) = 0
        self.pos = x[..., self.rows, self.partners]
        self.max_excl = x.max(axis=-1)
        x -= self.max_excl[..., None]
        self.expd = np.exp(x, out=x)
        self.denom = x.sum(axis=-1)
        self.lse = self.max_excl + np.log(self.denom)


def _nt_xent_pass(rows: np.ndarray, tau: float, mode: AnchorMode) -> _Pass:
    """Normalize the rows once, build their anchor rows of similarities once, and evaluate them.

    Rows are refused as :func:`_unit_rows` refuses them: non-finite entries
    raise ValueError and zero-norm rows ZeroVectorError, so a stack no
    :class:`EmbeddingBatch` has validated needs no other check.
    """
    unit, norms = _unit_rows(rows)
    return _Pass(_cosine_matrix(unit, mode.step), tau, mode, unit, norms)


def _breakdown(p: _Pass) -> LossBreakdown:
    n_pairs = p.sims.shape[-1] // 2
    return LossBreakdown(
        total=(p.lse - p.pos).sum(axis=-1) / n_pairs,
        alignment=-p.pos.sum(axis=-1) / n_pairs,
        distribution=p.lse.sum(axis=-1) / n_pairs,
    )


def _latent_grad(p: _Pass) -> np.ndarray:
    """Gradient of the total loss w.r.t. the raw latent rows of a pass built from rows."""
    # w[a, k] = d(total)/d(sim[a, k]) for anchor rows a: the softmax weights less 1 at the partner.
    w = p.expd / p.denom[..., None]
    w[..., p.rows, p.partners] -= 1.0
    w /= (p.sims.shape[-1] // 2) * p.tau

    # sim[a, k] depends on unit rows a and k symmetrically: row k gets w[a, k] unit[a], anchor a gets w[a, k] unit[k].
    grad_unit = np.swapaxes(w, -1, -2) @ p.unit[..., :: p.step, :]
    grad_unit[..., :: p.step, :] += w @ p.unit
    radial = np.sum(grad_unit * p.unit, axis=-1, keepdims=True)
    grad = (grad_unit - radial * p.unit) / p.norms[..., None]
    if not np.all(np.isfinite(grad)):
        raise ValueError("gradient has non-finite entries")
    return grad


def nt_xent_from_sims(simmat: SimilarityMatrix, cfg: LossConfig) -> LossBreakdown:
    """NT-Xent loss evaluated on a precomputed similarity matrix."""
    if abs(simmat.tau - cfg.tau) > 1e-15 * max(1.0, cfg.tau):
        raise InvalidTemperatureError(
            f"similarity matrix was scaled with tau={simmat.tau}, config has tau={cfg.tau}"
        )
    return _breakdown(_Pass(simmat.sims[:: cfg.anchor_mode.step], simmat.tau, cfg.anchor_mode))


def nt_xent(batch: EmbeddingBatch, cfg: LossConfig) -> LossBreakdown:
    """NT-Xent loss of a batch of raw latents."""
    return _breakdown(_nt_xent_pass(batch.rows, cfg.tau, cfg.anchor_mode))


def nt_xent_grad(batch: EmbeddingBatch, cfg: LossConfig) -> np.ndarray:
    """Gradient of ``nt_xent(batch, cfg).total`` w.r.t. every raw latent row.

    Chains through the normalization inside the cosine similarity, so each
    gradient row is orthogonal to its latent (the loss is scale-invariant
    per row). Returns a 2N x m array matching ``batch.rows``.
    """
    return _latent_grad(_nt_xent_pass(batch.rows, cfg.tau, cfg.anchor_mode))
