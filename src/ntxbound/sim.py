"""Dense-vector kernels: L2 normalization, cosine similarity, batch similarity matrices.

All functions are pure and operate on float64 numpy arrays. Latent vectors are
plain 1-D arrays; a batch of 2N latents with the pairing convention
"rows (2t, 2t+1) form positive pair t" is wrapped in :class:`EmbeddingBatch`.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatchError, InvalidTemperatureError, ZeroVectorError

#: Accepted temperatures, inclusive. Logits reach 1/tau and the loss sums N
#: of them: at tau = 1e-308 the loss overflows, and TAU_MIN keeps such sums,
#: squares and finite differences far from float64's range. The bounds
#: ``tau*log(n) - tau*L + ...`` lose about tau * 1e-15 to cancellation: at
#: tau = 1e6 a collapsed batch shows a false violation beyond the 1e-9 slack,
#: and at TAU_MAX the error stays near 1e-11.
TAU_MIN, TAU_MAX = 1e-12, 1e4


def _check_tau(tau, error: type[Exception] = InvalidTemperatureError) -> None:
    """Raise ``error`` unless tau is one real number in [TAU_MIN, TAU_MAX]."""
    if not (np.ndim(tau) == 0 and TAU_MIN <= tau <= TAU_MAX):
        raise error(f"tau must be in [{TAU_MIN:g}, {TAU_MAX:g}], got {tau!r}")


def _check_seed(seed: int, error: type[Exception]) -> None:
    """Raise ``error`` unless the seed fits in an unsigned 64-bit integer."""
    if not (0 <= seed < 2**64):
        raise error(f"seed must fit in u64, got {seed}")


def _as_vector(v) -> np.ndarray:
    arr = np.asarray(v, dtype=np.float64)
    if arr.ndim != 1 or arr.size < 1:
        raise DimensionMismatchError(f"expected a nonempty 1-D vector, got shape {arr.shape}")
    if not np.all(np.isfinite(arr)):
        raise ValueError("vector entries must be finite")
    if not arr.any():
        raise ZeroVectorError("cannot normalize a zero vector")
    return arr


def _row_scales(rows: np.ndarray) -> np.ndarray:
    """Largest absolute entry of each row along the last axis.

    This one pass also refuses what :class:`EmbeddingBatch` refuses in the
    entries: a non-finite entry (nan and inf carry through the max) raises
    ValueError and a zero-norm row ZeroVectorError.
    """
    scales = np.abs(rows).max(axis=-1)
    if not np.isfinite(scales).all():
        raise ValueError("batch entries must be finite")
    if (scales == 0.0).any():
        raise ZeroVectorError("batch contains a zero-norm row")
    return scales


#: Sums of squares strictly inside this range take the fast path: the row's
#: squares did not overflow, and underflow cost them at most m * 5e-324, far
#: below rounding, so one square root and one division are accurate to
#: rounding. Zero, tiny, huge and non-finite rows fall outside it.
_SUMSQ_RANGE = (1e-290, 1e290)


def _prescaled_unit_rows(rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """:func:`_unit_rows` of rows whose squares would leave the float64 range.

    Rows are pre-scaled by their max-abs entry so norms never overflow or
    underflow, and refused as :func:`_row_scales` refuses them.
    """
    scales = _row_scales(rows)
    scaled = rows / scales[..., None]
    partial = np.sqrt((scaled * scaled).sum(axis=-1))
    scaled /= partial[..., None]
    return scaled, scales * partial


def _unit_rows(rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Normalize along the last axis, returning (unit rows, Euclidean norms).

    Each row's sum of squares is taken directly; a row whose sum falls
    outside ``_SUMSQ_RANGE`` is normalized by :func:`_prescaled_unit_rows`
    instead (Blue's safe norm, ACM TOMS 4, 1978). The choice is made row by
    row, so a row's unit vector and norm depend on that row alone. Rows are
    refused as :func:`_row_scales` refuses them (only the out-of-range rows
    can be refused), so unchecked rows need no other check.
    """
    sumsq = np.einsum("...i,...i->...", rows, rows)
    lo, hi = _SUMSQ_RANGE
    inside = (sumsq > lo) & (sumsq < hi)
    if inside.all():
        norms = np.sqrt(sumsq)
        return rows / norms[..., None], norms
    outside = ~inside
    norms = np.where(inside, sumsq, 1.0)  # an array even for one row, so its entries can be set
    np.sqrt(norms, out=norms)
    unit = rows / norms[..., None]
    unit[outside], norms[outside] = _prescaled_unit_rows(rows[outside])
    return unit, norms


@functools.lru_cache(maxsize=128)
def _anchor_index(n_rows: int, step: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Anchor rows ``0, step, 2*step, ...`` of ``n_rows`` rows: (positions, anchor rows, their partners).

    Position a holds anchor row ``step * a``, whose positive partner is row
    ``step * a ^ 1`` (2t <-> 2t+1). The arrays are built once per shape and
    are read-only.
    """
    anchors = np.arange(0, n_rows, step)
    index = (np.arange(len(anchors)), anchors, anchors ^ 1)
    for arr in index:
        arr.setflags(write=False)
    return index


def _cosine_matrix(unit: np.ndarray, step: int) -> np.ndarray:
    """Rows ``0, step, 2*step, ...`` of the all-pairs cosines of unit rows ``(..., k, m)``, as ``(..., k // step, k)``.

    Step 2 gives the anchor rows of the N-anchor loss, an N x 2N product;
    step 1 the whole matrix. Each kept row is one matmul of its unit row
    against every unit row, clamped to [-1, 1], with its self entry pinned
    to exactly 1. Nothing makes ``sims[a, k]`` equal ``sims[k, a]``: the
    loss and both bounds read each anchor row alone, so their inequalities
    hold row by row on the values the loss uses.
    """
    sims = unit[..., ::step, :] @ unit.swapaxes(-1, -2)
    sims.real.clip(-1.0, 1.0, out=sims.real)  # a complex entry of real part 1 clipped whole loses its imaginary part
    rows, anchors, _ = _anchor_index(unit.shape[-2], step)
    sims[..., rows, anchors] = 1.0
    return sims


class EmbeddingBatch:
    """2N latent vectors in pairing order: rows (2t, 2t+1) are positive pair t.

    Rows are copied to C-ordered float64 and frozen, so the same rows give the
    same bits whatever their input layout. Construction validates the batch
    invariants: an even row count >= 2, a shared dimension m >= 1, finite
    entries, and a nonzero norm for every row.
    """

    __slots__ = ("rows",)

    def __init__(self, rows):
        arr = np.array(rows, dtype=np.float64, order="C")
        if arr.ndim != 2:
            raise DimensionMismatchError(f"batch must be 2-D, got shape {arr.shape}")
        n, m = arr.shape
        if n < 2 or n % 2 != 0:
            raise ValueError(f"row count must be even and >= 2, got {n}")
        if m < 1:
            raise DimensionMismatchError("latent dimension must be >= 1")
        _row_scales(arr)
        arr.setflags(write=False)
        self.rows = arr

    @property
    def n_pairs(self) -> int:
        return self.rows.shape[0] // 2

    def unit_rows(self) -> tuple[np.ndarray, np.ndarray]:
        """Unit-norm rows and the original row norms."""
        return _unit_rows(self.rows)

    def __repr__(self) -> str:
        return f"EmbeddingBatch(n_pairs={self.n_pairs}, dim={self.rows.shape[1]})"


@dataclass
class SimilarityMatrix:
    """Full 2N x 2N cosine-similarity matrix at a temperature.

    The matrix is exactly symmetric, its diagonal is exactly 1, and entries
    are clamped to [-1, 1]. Construction refuses what :class:`EmbeddingBatch`
    refuses in rows: a side that is odd or below 2, and non-finite entries.
    """

    sims: np.ndarray
    tau: float

    def __post_init__(self):
        if self.sims.ndim != 2 or self.sims.shape[0] != self.sims.shape[1]:
            raise DimensionMismatchError("similarity matrix must be square")
        if self.sims.shape[0] < 2 or self.sims.shape[0] % 2:
            raise DimensionMismatchError(f"similarity matrix side must be even and >= 2, got {self.sims.shape[0]}")
        if not np.isfinite(self.sims).all():
            raise ValueError("similarity matrix entries must be finite")
        _check_tau(self.tau)


def l2_normalize(v) -> np.ndarray:
    """Scale ``v`` to unit Euclidean norm, preserving direction.

    Raises ZeroVectorError when the norm is zero (no direction to preserve).
    """
    return _unit_rows(_as_vector(v))[0]


def cosine_sim(a, b) -> float:
    """Cosine similarity (a . b) / (|a| |b|), clamped to [-1, 1].

    The clamp absorbs floating-point rounding so downstream exponentials see
    arguments inside the analytic range.
    """
    va, vb = _as_vector(a), _as_vector(b)
    if va.shape != vb.shape:
        raise DimensionMismatchError(f"dimensions differ: {va.shape[0]} vs {vb.shape[0]}")
    dot = float(np.dot(_unit_rows(va)[0], _unit_rows(vb)[0]))
    return min(1.0, max(-1.0, dot))


def similarity_matrix(batch: EmbeddingBatch, tau: float) -> SimilarityMatrix:
    """All-pairs cosine similarities of a batch, at temperature tau.

    The diagonal is computed (and pinned to exactly 1); the k != i exclusion
    of the loss is applied downstream, because the bound variants need
    diagonal access. The matrix is made exactly symmetric by averaging the
    whole product with its transpose, which keeps the diagonal at 1.
    """
    _check_tau(tau)
    unit, _ = batch.unit_rows()
    sims = _cosine_matrix(unit, 1)
    sims = (sims + sims.T) * 0.5
    return SimilarityMatrix(sims=sims, tau=float(tau))
