"""Log-sum-exp sandwich bounds and the upper bound on average positive-pair similarity.

Two variants of the similarity bound are computed side by side:

* ``paper``: uses log(2N) and the per-anchor max over *all* columns,
  including the self-similarity (which always dominates at 1/tau).
* ``strict``: uses log(2N-1) and the max over non-self columns only, matching
  the index set actually present in the loss; this variant is tighter and is
  attained exactly when all latents coincide.

Both are valid upper bounds on the average cosine similarity of the N
positive pairs; ``strict_bound <= paper_bound`` always.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import EmptyInputError, InvalidGridError, UnsupportedModeError
from .loss import AnchorMode, LossBreakdown, LossConfig, _breakdown, _nt_xent_pass, _Pass, logsumexp
from .sim import EmbeddingBatch, _check_seed, _check_tau, _unit_rows

#: Distributions understood by the Monte Carlo verifier.
DISTRIBUTIONS = ("uniform_sphere", "gaussian", "clustered")

#: Noise scale for the "clustered" distribution (pair = base vector + noise).
CLUSTERED_NOISE_SCALE = 0.1

#: Absolute slack for declaring a bound violated; only rounding noise is tolerated.
VIOLATION_SLACK = 1e-9

#: Bytes evaluated at once, so peak memory does not grow with the trial or
#: probe count. Verify stacks its trials and gradcheck groups its trials to
#: it, each counted by ``_pass_bytes`` as what it holds at its peak.
CHUNK_BYTES = 1 << 20

#: Largest peak a run may need at one trial per stack (verify, gradcheck) or
#: for its dataset and one step (train); larger inputs are refused up front.
MEMORY_BUDGET = 1 << 30


def _stream(seed: int, *key: int) -> np.random.Generator:
    """The PCG64 stream of SeedSequence(seed, spawn_key=key).

    Streams under different keys are independent, so each consumer (a verify
    cell, a training phase, a gradcheck trial) draws from its own key and
    nothing one draws shifts another.
    """
    return np.random.default_rng(np.random.SeedSequence(seed, spawn_key=key))


def _pass_bytes(n_pairs: int, row_floats: int) -> int:
    """Bytes one batch of 2N rows holds at once in a stacked pass, in float64.

    ``row_floats`` floats per row (its rows, unit rows and whatever else the
    caller keeps per row), and 8N^2 floats per batch: the N anchor rows of 2N
    similarities, which the logits overwrite, and their gradient's weights,
    2N^2 each, and 4N^2 for the temporaries of the product, the exclusion and
    the softmax. Those take less, but the count stays: it sizes the stock
    verify stacks, a measured optimum, at ``CHUNK_BYTES // _pass_bytes(...)``.
    """
    return 8 * (2 * n_pairs * row_floats + 8 * n_pairs * n_pairs)


def _check_memory(need: int, what: str, error: type[Exception]) -> None:
    """Refuse with ``error`` an input whose least run needs more than MEMORY_BUDGET bytes."""
    if need > MEMORY_BUDGET:
        raise error(f"{what} needs at least {need >> 20} MiB, over the {MEMORY_BUDGET >> 20} MiB memory budget")


@dataclass(frozen=True)
class LseBounds:
    """The sandwich max <= LSE <= max + log(n) for one argument vector.

    The sandwich itself is enforced here. The strict forms (value > lower for
    n > 1, value < upper unless all arguments are equal) hold in real
    arithmetic but can saturate in float64 when the spread of the arguments
    exceeds the exponent range, so they are verified by tests on
    representable inputs rather than asserted at construction.
    """

    lower: float
    upper: float
    value: float
    n: int

    def __post_init__(self):
        if self.n < 1:
            raise EmptyInputError("LSE bounds need at least one argument")
        if not (self.lower <= self.value <= self.upper):
            raise ValueError(
                f"sandwich violated: lower={self.lower!r}, value={self.value!r}, upper={self.upper!r}"
            )


@dataclass(frozen=True)
class BoundReport:
    """Average positive-pair similarity with both upper-bound variants and gaps.

    Gap signs are deliberately not enforced at construction: the Monte Carlo
    verifier and the trainer exist to *observe* violations, so a violated
    bound must surface as data, not as an exception. Over a stack of
    batches, each field holds one entry per batch.
    """

    avg_pos_sim: float
    paper_bound: float
    strict_bound: float
    paper_gap: float
    strict_gap: float

    def __post_init__(self):
        vals = (self.avg_pos_sim, self.paper_bound, self.strict_bound, self.paper_gap, self.strict_gap)
        # Finite iff every field is: maximum, unlike fmax, carries a nan through.
        scale = np.maximum(np.maximum(abs(self.avg_pos_sim), abs(self.paper_bound)), abs(self.strict_bound))
        scale = np.maximum(np.maximum(scale, abs(self.paper_gap)), abs(self.strict_gap))
        if not (scale < math.inf).all():
            raise ValueError(f"bound report fields must be finite, got {vals}")


@dataclass(frozen=True)
class BatchEvaluation:
    """Loss breakdown and bound report computed from one pass over the anchor rows (one per batch of a stack)."""

    breakdown: LossBreakdown
    report: BoundReport


def lse_bounds(xs) -> LseBounds:
    """Evaluate LSE(xs) together with its lower (max) and upper (max + log n) bounds."""
    arr = np.asarray(xs, dtype=np.float64)
    value, lower = logsumexp(arr), float(np.max(arr))  # logsumexp refuses an empty or non-finite sequence
    return LseBounds(lower=lower, upper=lower + math.log(arr.size), value=value, n=arr.size)


def avg_positive_similarity(batch: EmbeddingBatch) -> float:
    """Mean cosine similarity over the N positive pairs (rows 2t and 2t+1): a pass's pair similarities at tau 1."""
    return float(np.mean(_nt_xent_pass(batch.rows, 1.0, AnchorMode.PAPER_N).pair_sims))


def _evaluation(
    tau: float, lse: np.ndarray, pos: np.ndarray, max_excl: np.ndarray, pair_sims: np.ndarray
) -> BatchEvaluation:
    """Loss and bounds of PAPER_N batches from their pass's per-anchor terms, each (..., N).

    ``lse``, ``pos`` and ``max_excl`` are a pass's attributes of those names,
    ``pair_sims`` its positive-pair similarities. Any stack of them is
    evaluated at once, each batch bit for bit as on its own. The self column
    always wins the paper variant's max at 1/tau, so that variant takes its
    closed form ``tau log(2N) - tau L + 1``.
    """
    n_pairs = lse.shape[-1]
    breakdown = _breakdown(lse, pos, n_pairs)
    total, n_rows = breakdown.total, 2 * n_pairs
    avg = pair_sims.sum(axis=-1) / n_pairs  # what .mean computes, bit for bit, without its Python wrapper
    paper = tau * math.log(n_rows) - tau * total + 1.0
    strict = tau * math.log(n_rows - 1) - tau * total + tau * (max_excl.sum(axis=-1) / n_pairs)
    report = BoundReport(
        avg_pos_sim=avg,
        paper_bound=paper,
        strict_bound=strict,
        paper_gap=paper - avg,
        strict_gap=strict - avg,
    )
    return BatchEvaluation(breakdown=breakdown, report=report)


def _pass_evaluation(p: _Pass) -> BatchEvaluation:
    """Loss and bounds of every batch of a PAPER_N pass."""
    return _evaluation(p.tau, p.lse, p.pos, p.max_excl, p.pair_sims)


def similarity_bound(batch: EmbeddingBatch, cfg: LossConfig) -> BoundReport:
    """Upper-bound the average positive-pair similarity via the LSE sandwich."""
    return evaluate_batch(batch, cfg).report


def evaluate_batch(batch: EmbeddingBatch, cfg: LossConfig) -> BatchEvaluation:
    """Loss breakdown and bound report from one pass over the anchor rows of the similarity matrix.

    Requires the N-anchor convention; the bound derivation sums one LSE per
    pair, so the symmetric mode has no matching bound.
    """
    if cfg.anchor_mode is not AnchorMode.PAPER_N:
        raise UnsupportedModeError(f"similarity bound requires PAPER_N anchors, got {cfg.anchor_mode}")
    return _pass_evaluation(_nt_xent_pass(batch.rows, cfg.tau, cfg.anchor_mode))


def sample_embeddings(distribution: str, n_pairs: int, dim: int, rng: np.random.Generator) -> EmbeddingBatch:
    """Draw a 2N x m batch from one of the named embedding distributions.

    ``uniform_sphere`` normalizes standard normals; ``gaussian`` uses them
    raw; ``clustered`` draws one base vector per pair plus small noise,
    mimicking a trained encoder. Draw order is fixed so runs reproduce.
    """
    return EmbeddingBatch(_sample_rows(distribution, 1, n_pairs, dim, rng)[0])


def _sample_rows(distribution: str, trials: int, n_pairs: int, dim: int, rng: np.random.Generator) -> np.ndarray:
    """``trials`` batches as one (trials, 2N, m) array, drawn as ``trials`` single batches would be.

    Each batch takes one contiguous run of standard normals (for ``clustered``,
    N base rows then 2N noise rows), so one bulk draw reproduces the stream.
    """
    if distribution == "uniform_sphere":
        return _unit_rows(rng.standard_normal((trials, 2 * n_pairs, dim)))[0]
    if distribution == "gaussian":
        return rng.standard_normal((trials, 2 * n_pairs, dim))
    if distribution == "clustered":
        draws = rng.standard_normal((trials, 3 * n_pairs, dim))
        noise = draws[:, n_pairs:]
        noise *= CLUSTERED_NOISE_SCALE
        rows = np.repeat(draws[:, :n_pairs], 2, axis=1)
        rows += noise
        return rows
    raise InvalidGridError(f"unknown embedding distribution {distribution!r}")


@dataclass(frozen=True)
class VerifyGrid:
    """Parameter grid for Monte Carlo bound verification."""

    ns: tuple[int, ...]
    ms: tuple[int, ...]
    taus: tuple[float, ...]
    distributions: tuple[str, ...]

    def __post_init__(self):
        for name, vals in (("ns", self.ns), ("ms", self.ms), ("taus", self.taus), ("distributions", self.distributions)):
            if len(vals) == 0:
                raise InvalidGridError(f"grid axis {name!r} is empty")
        if any(n < 1 for n in self.ns):
            raise InvalidGridError(f"pair counts must be >= 1, got {self.ns}")
        if any(m < 1 for m in self.ms):
            raise InvalidGridError(f"dimensions must be >= 1, got {self.ms}")
        for tau in self.taus:
            _check_tau(tau, InvalidGridError)
        for d in self.distributions:
            if d not in DISTRIBUTIONS:
                raise InvalidGridError(f"unknown distribution {d!r}; expected one of {DISTRIBUTIONS}")
        n, m = max(self.ns), max(self.ms)
        _check_memory(_pass_bytes(n, 3 * m), f"a trial at N={n}, m={m}", InvalidGridError)

    def cells(self) -> list[tuple[int, int, float, str]]:
        """Grid cells in their fixed evaluation order."""
        return [(n, m, tau, dist) for n in self.ns for m in self.ms for tau in self.taus for dist in self.distributions]


def default_grid() -> VerifyGrid:
    """The stock verification grid used by the CLI when no config is given."""
    return VerifyGrid(ns=(2, 4, 8, 16, 32), ms=(8,), taus=(0.05, 0.1, 0.5, 1.0), distributions=DISTRIBUTIONS)


@dataclass(frozen=True)
class VerifySummary:
    """Outcome of a Monte Carlo verification run."""

    grid: VerifyGrid
    seed: int
    trials_per_cell: int
    cells: int
    total_trials: int
    violations_paper: int
    violations_strict: int
    min_paper_gap: float
    min_strict_gap: float
    min_variant_margin: float

    @property
    def ok(self) -> bool:
        return self.violations_paper == 0 and self.violations_strict == 0


def _run_cell(
    rng: np.random.Generator, n_pairs: int, dim: int, tau: float, distribution: str, trials: int
) -> tuple[int, int, float, float, float]:
    """Violation counts and minimum paper gap, strict gap and paper-strict margin over one cell.

    Trials are drawn and evaluated as stacks of at most CHUNK_BYTES, through
    the same constructors and checks as a single batch.
    """
    # Per row: the rows and their unit rows, and the base and noise draws a clustered stack is made from.
    chunk = max(1, CHUNK_BYTES // _pass_bytes(n_pairs, 3 * dim))
    viol_paper = viol_strict = 0
    min_paper = min_strict = min_margin = math.inf
    for start in range(0, trials, chunk):
        rows = _sample_rows(distribution, min(chunk, trials - start), n_pairs, dim, rng)
        report = _pass_evaluation(_nt_xent_pass(rows, tau, AnchorMode.PAPER_N)).report
        viol_paper += int(np.count_nonzero(report.paper_gap < -VIOLATION_SLACK))
        viol_strict += int(np.count_nonzero(report.strict_gap < -VIOLATION_SLACK))
        min_paper = min(min_paper, float(report.paper_gap.min()))
        min_strict = min(min_strict, float(report.strict_gap.min()))
        min_margin = min(min_margin, float((report.paper_bound - report.strict_bound).min()))
    return viol_paper, viol_strict, min_paper, min_strict, min_margin


def monte_carlo_verify(grid: VerifyGrid, trials: int, seed: int) -> VerifySummary:
    """Check both bound variants on random batches over the whole grid.

    Deterministic given ``seed``: cell k draws from stream (k,), so its draws
    depend on neither the other cells nor the chunking. Violations
    are counted beyond an absolute slack of 1e-9; the minimum observed gap of
    each variant and the minimum paper-strict margin are recorded.
    """
    if trials < 1:
        raise InvalidGridError(f"trials per cell must be >= 1, got {trials}")
    _check_seed(seed, InvalidGridError)
    cells = grid.cells()
    results = [_run_cell(_stream(seed, i), n, m, tau, dist, trials) for i, (n, m, tau, dist) in enumerate(cells)]

    viol_paper = sum(r[0] for r in results)
    viol_strict = sum(r[1] for r in results)
    return VerifySummary(
        grid=grid,
        seed=seed,
        trials_per_cell=trials,
        cells=len(cells),
        total_trials=trials * len(cells),
        violations_paper=viol_paper,
        violations_strict=viol_strict,
        min_paper_gap=min(r[2] for r in results),
        min_strict_gap=min(r[3] for r in results),
        min_variant_margin=min(r[4] for r in results),
    )
