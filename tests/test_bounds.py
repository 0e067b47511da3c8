"""LSE sandwich, similarity-bound variants, and the Monte Carlo verifier."""

import math
import tracemalloc
from dataclasses import asdict

import numpy as np
import pytest

from ntxbound import (
    AnchorMode,
    BoundReport,
    EmbeddingBatch,
    EmptyInputError,
    InvalidGridError,
    LossConfig,
    UnsupportedModeError,
    VerifyGrid,
    avg_positive_similarity,
    evaluate_batch,
    lse_bounds,
    monte_carlo_verify,
    nt_xent,
    nt_xent_grad,
    sample_embeddings,
    similarity_bound,
)
from ntxbound import bounds, gradcheck, trainer
from ntxbound.bounds import DISTRIBUTIONS, VIOLATION_SLACK, _run_cell, _sample_rows
from ntxbound.loss import _nt_xent_pass
from ntxbound.sim import TAU_MAX, TAU_MIN
from ntxbound.serialize import dumps
from ntxbound.trainer import TrainConfig, gen_synthetic, train_step
from oracle import cosine, init_net

LOG3 = 1.0986122886681098
LOG4 = 1.3862943611198906
LSE_0_10 = 10.000045398899218  # 10 + log1p(exp(-10)), evaluated by hand


class TestLseBounds:
    def test_single_argument_collapses(self):
        b = lse_bounds([5.0])
        assert (b.lower, b.value, b.upper) == (5.0, 5.0, 5.0)

    def test_all_equal_attains_upper(self):
        b = lse_bounds([2.0, 2.0, 2.0])
        assert b.lower == 2.0
        assert b.value == pytest.approx(2.0 + math.log(3.0), abs=1e-15)
        assert b.value == b.upper

    def test_two_spread_arguments(self):
        b = lse_bounds([0.0, 10.0])
        assert b.lower == 10.0
        assert b.value == pytest.approx(LSE_0_10, abs=1e-12)
        assert b.upper == pytest.approx(10.0 + math.log(2.0), abs=1e-15)

    def test_empty_rejected(self):
        with pytest.raises(EmptyInputError):
            lse_bounds([])

    def test_sandwich_on_random_vectors(self):
        """At moderate spreads the strict inequalities survive rounding, so they
        are asserted unconditionally here; the wide-magnitude sweep lives in the
        acceptance suite with a representability guard."""
        rng = np.random.default_rng(31)
        for _ in range(1000):
            n = int(rng.integers(1, 65))
            xs = rng.uniform(-1, 1, size=n) * 10.0 ** rng.uniform(-2, 1)
            b = lse_bounds(xs)
            assert b.lower <= b.value <= b.upper
            if n > 1:
                assert b.value > b.lower
            if np.max(xs) - np.min(xs) >= 1e-9:
                assert b.value < b.upper

    def test_extreme_spread_saturates_to_lower(self):
        """Once every non-max term underflows against ulp(max), the float64
        LSE equals the max exactly; the sandwich still holds with equality."""
        b = lse_bounds([-1000.0, 1000.0])
        assert b.value == b.lower == 1000.0
        assert b.upper == pytest.approx(1000.0 + math.log(2.0))


class TestAvgPositiveSimilarity:
    def test_identical_rows(self):
        batch = EmbeddingBatch(np.tile([1.0, -1.0], (6, 1)))
        assert avg_positive_similarity(batch) == pytest.approx(1.0, abs=1e-12)

    def test_orthogonal_pairs(self):
        rows = np.array([[1.0, 0.0], [0.0, 1.0], [0.0, -2.0], [3.0, 0.0]])
        assert avg_positive_similarity(EmbeddingBatch(rows)) == pytest.approx(0.0, abs=1e-15)

    def test_matches_bruteforce(self):
        rng = np.random.default_rng(8)
        rows = rng.standard_normal((10, 4))
        want = sum(cosine(rows[2 * t], rows[2 * t + 1]) for t in range(5)) / 5.0
        assert avg_positive_similarity(EmbeddingBatch(rows)) == pytest.approx(want, abs=1e-12)


class TestSimilarityBound:
    def test_identical_batch_hand_values(self):
        """N = 2, all rows equal, tau = 1: loss log 3, bounds log4 - log3 + 1 and 1."""
        batch = EmbeddingBatch(np.tile([2.0, 1.0, 0.5], (4, 1)))
        report = similarity_bound(batch, LossConfig(tau=1.0))
        assert report.avg_pos_sim == pytest.approx(1.0, abs=1e-12)
        assert report.paper_bound == pytest.approx(LOG4 - LOG3 + 1.0, abs=1e-12)
        assert report.strict_bound == pytest.approx(1.0, abs=1e-12)
        assert report.strict_gap == pytest.approx(0.0, abs=1e-9)
        assert report.paper_gap == pytest.approx(LOG4 - LOG3, abs=1e-12)

    def test_single_pair_strict_bound_is_tight(self):
        rng = np.random.default_rng(44)
        for _ in range(20):
            batch = EmbeddingBatch(rng.standard_normal((2, 5)))
            report = similarity_bound(batch, LossConfig(tau=1.0))
            sim = avg_positive_similarity(batch)
            assert report.strict_bound == pytest.approx(sim, abs=1e-12)
            assert report.strict_gap == pytest.approx(0.0, abs=1e-12)

    def test_symmetric_mode_rejected(self):
        batch = EmbeddingBatch(np.eye(4))
        with pytest.raises(UnsupportedModeError):
            similarity_bound(batch, LossConfig(tau=1.0, anchor_mode=AnchorMode.SYMMETRIC_2N))

    def test_random_batches_bounds_hold_and_order(self):
        rng = np.random.default_rng(2718)
        for _ in range(200):
            n_pairs = int(rng.integers(1, 33))
            m = int(rng.integers(2, 17))
            tau = float(rng.choice([0.05, 0.1, 0.5, 1.0]))
            batch = EmbeddingBatch(rng.standard_normal((2 * n_pairs, m)))
            report = similarity_bound(batch, LossConfig(tau=tau))
            assert report.paper_gap >= -1e-9
            assert report.strict_gap >= -1e-9
            assert report.strict_bound <= report.paper_bound + 1e-12
            assert report.avg_pos_sim <= report.strict_bound + 1e-9

    def test_paper_bound_closed_form(self):
        """The self column always wins the paper-variant max, so that variant
        reduces to tau log(2N) - tau L + 1."""
        rng = np.random.default_rng(55)
        for _ in range(50):
            n_pairs = int(rng.integers(1, 9))
            tau = float(rng.uniform(0.05, 1.0))
            batch = EmbeddingBatch(rng.standard_normal((2 * n_pairs, 6)))
            cfg = LossConfig(tau=tau)
            report = similarity_bound(batch, cfg)
            expect = tau * math.log(2 * n_pairs) - tau * nt_xent(batch, cfg).total + 1.0
            assert report.paper_bound == pytest.approx(expect, rel=1e-12)

    def test_tau_consistency(self):
        """Rescaling the temperature changes the loss but never the gap signs."""
        rng = np.random.default_rng(66)
        batch = EmbeddingBatch(rng.standard_normal((12, 5)))
        base = similarity_bound(batch, LossConfig(tau=0.5))
        for c in (0.1, 0.2, 2.0, 10.0):
            report = similarity_bound(batch, LossConfig(tau=0.5 * c))
            assert report.paper_gap >= -1e-9
            assert report.strict_gap >= -1e-9
            assert report.avg_pos_sim == pytest.approx(base.avg_pos_sim, abs=1e-12)

    def test_tau_range_ends(self):
        """At TAU_MAX a near-collapsed batch, which attains the strict bound, keeps its
        cancellation error within the slack; at TAU_MIN loss, bounds and gradient stay finite."""
        rng = np.random.default_rng(0)
        collapsed = EmbeddingBatch(1.0 + 1e-9 * rng.standard_normal((64, 8)))
        assert similarity_bound(collapsed, LossConfig(tau=TAU_MAX)).strict_gap >= -VIOLATION_SLACK
        spread = EmbeddingBatch(rng.standard_normal((64, 8)))
        evaluate_batch(spread, LossConfig(tau=TAU_MIN))  # its constructors refuse non-finite values
        assert np.isfinite(nt_xent_grad(spread, LossConfig(tau=TAU_MIN))).all()

    def test_evaluate_batch_consistency(self):
        rng = np.random.default_rng(10)
        batch = EmbeddingBatch(rng.standard_normal((8, 4)))
        cfg = LossConfig(tau=0.5)
        ev = evaluate_batch(batch, cfg)
        assert ev.breakdown.total == nt_xent(batch, cfg).total
        assert ev.report == similarity_bound(batch, cfg)
        # alignment and average positive similarity describe the same quantity
        assert ev.breakdown.alignment == pytest.approx(-ev.report.avg_pos_sim / cfg.tau, abs=1e-12)

    @pytest.mark.parametrize("field", ["avg_pos_sim", "paper_bound", "strict_bound", "paper_gap", "strict_gap"])
    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_report_refuses_a_non_finite_field(self, field, bad):
        """Alone, as a scalar or as one entry of a stack, each non-finite field is refused, nan included."""
        good = {"avg_pos_sim": 0.5, "paper_bound": 1.5, "strict_bound": 0.75, "paper_gap": 1.0, "strict_gap": 0.25}
        BoundReport(**good)
        with pytest.raises(ValueError, match="must be finite"):
            BoundReport(**{**good, field: bad})
        stack = {name: np.full(4, value) for name, value in good.items()}
        BoundReport(**stack)
        stack[field][2] = bad
        with pytest.raises(ValueError, match="must be finite"):
            BoundReport(**stack)


class TestSampleEmbeddings:
    def test_uniform_sphere_rows_are_unit(self):
        rng = np.random.default_rng(1)
        batch = sample_embeddings("uniform_sphere", 4, 3, rng)
        np.testing.assert_allclose(np.linalg.norm(batch.rows, axis=1), 1.0, atol=1e-12)

    def test_clustered_pairs_are_close(self):
        rng = np.random.default_rng(2)
        batch = sample_embeddings("clustered", 50, 8, rng)
        assert avg_positive_similarity(batch) > 0.9

    def test_unknown_distribution(self):
        with pytest.raises(InvalidGridError):
            sample_embeddings("lattice", 2, 2, np.random.default_rng(0))


class TestMonteCarloVerify:
    def test_small_grid_no_violations(self):
        grid = VerifyGrid(ns=(2,), ms=(3,), taus=(1.0,), distributions=("uniform_sphere",))
        summary = monte_carlo_verify(grid, trials=1000, seed=0)
        assert summary.violations_paper == 0
        assert summary.violations_strict == 0
        assert summary.total_trials == 1000
        assert summary.min_paper_gap >= -1e-9
        assert summary.min_strict_gap >= -1e-9
        assert summary.min_variant_margin >= 0.0
        assert summary.ok

    def test_zero_trials_rejected(self):
        grid = VerifyGrid(ns=(2,), ms=(3,), taus=(1.0,), distributions=("gaussian",))
        with pytest.raises(InvalidGridError):
            monte_carlo_verify(grid, trials=0, seed=0)

    def test_empty_axis_rejected(self):
        with pytest.raises(InvalidGridError):
            VerifyGrid(ns=(), ms=(3,), taus=(1.0,), distributions=("gaussian",))

    def test_bad_values_rejected(self):
        with pytest.raises(InvalidGridError):
            VerifyGrid(ns=(2,), ms=(3,), taus=(0.0,), distributions=("gaussian",))
        with pytest.raises(InvalidGridError):
            VerifyGrid(ns=(2,), ms=(3,), taus=(1.0,), distributions=("weird",))

    def test_same_seed_identical_summary(self):
        grid = VerifyGrid(ns=(2, 4), ms=(3,), taus=(0.5, 1.0), distributions=("gaussian", "clustered"))
        a = monte_carlo_verify(grid, trials=50, seed=123)
        b = monte_carlo_verify(grid, trials=50, seed=123)
        assert a == b
        assert dumps(asdict(a)) == dumps(asdict(b))

    def test_different_seed_differs(self):
        grid = VerifyGrid(ns=(4,), ms=(3,), taus=(0.5,), distributions=("gaussian",))
        a = monte_carlo_verify(grid, trials=50, seed=1)
        b = monte_carlo_verify(grid, trials=50, seed=2)
        assert a.min_strict_gap != b.min_strict_gap

    @pytest.mark.parametrize("distribution", ["uniform_sphere", "gaussian", "clustered"])
    def test_stacked_cell_matches_per_trial_loop(self, distribution):
        """The stacked cell draws and scores its trials as one batch at a time would."""
        n_pairs, dim, tau, trials = 3, 4, 0.1, 300
        got = _run_cell(np.random.default_rng(42), n_pairs, dim, tau, distribution, trials)

        rng = np.random.default_rng(42)
        reports = [
            similarity_bound(sample_embeddings(distribution, n_pairs, dim, rng), LossConfig(tau=tau))
            for _ in range(trials)
        ]
        assert got[0] == sum(r.paper_gap < -VIOLATION_SLACK for r in reports)
        assert got[1] == sum(r.strict_gap < -VIOLATION_SLACK for r in reports)
        want = (
            min(r.paper_gap for r in reports),
            min(r.strict_gap for r in reports),
            min(r.paper_bound - r.strict_bound for r in reports),
        )
        np.testing.assert_allclose(got[2:], want, rtol=1e-12, atol=0.0)

    def test_cell_count(self):
        grid = VerifyGrid(ns=(2, 4), ms=(3, 5), taus=(0.5,), distributions=("gaussian", "clustered"))
        summary = monte_carlo_verify(grid, trials=5, seed=0)
        assert summary.cells == 8
        assert summary.total_trials == 40


def _full(trials):
    """A stack's trial count, asserted to be a full stack and not the floor of one trial."""
    assert trials > 1
    return trials


def _verify_stack(n_pairs, distribution):
    """One verify stack at m = 8, which holds as many trials as fit CHUNK_BYTES at 3m floats per row."""
    trials = _full(bounds.CHUNK_BYTES // bounds._pass_bytes(n_pairs, 3 * 8))
    return trials, bounds.CHUNK_BYTES, lambda: _run_cell(bounds._stream(0, 0), n_pairs, 8, 0.5, distribution, trials)


def _loss_level_group(n_pairs, dim):
    """A loss-level run of one full group: as many trials as fit CHUNK_BYTES at its count."""
    trials = _full(bounds.CHUNK_BYTES // gradcheck._loss_trial_bytes(n_pairs, dim))
    return trials, bounds.CHUNK_BYTES, lambda: gradcheck.loss_level_check(trials, n_pairs=n_pairs, dim=dim)


def _end_to_end_group():
    """An end-to-end run of one full group: as many trials as fit CHUNK_BYTES at its count."""
    trials = _full(bounds.CHUNK_BYTES // gradcheck._NET_TRIAL_BYTES)
    return trials, bounds.CHUNK_BYTES, lambda: gradcheck.end_to_end_check(trials)


def _train_step(layout):
    """One train_step (a stack of one step) of a model of the given layout, counted by trainer._step_bytes(cfg)."""
    cfg = TrainConfig(**layout)
    net = init_net(cfg.blocks, bounds._stream(0, 1))
    points = gen_synthetic(cfg.input_dim, cfg.dataset, bounds._stream(0, 0))[: cfg.n_pairs]
    rng = bounds._stream(0, 2)
    return 1, trainer._step_bytes(cfg), lambda: train_step(net, points, cfg, rng)


#: The least share of its count that a full stack of each kind peaks at under tracemalloc, so a count that grows
#: past what a stack holds shows. Peaks measured on a 2-vCPU x86-64 VM with numpy 2.4.6: verify stacks at 0.386-0.770
#: of CHUNK_BYTES (0.386 at N = 32, 0.770 at N = 2, alike for every distribution), loss-level groups at 0.604-0.964,
#: end-to-end groups at 0.792, and a train step at 0.629 (N 64, widths 64) and 0.758 (desk) of _step_bytes. The
#: margins below the lowest peak of each kind: verify 1.10, loss level 1.12, end to end 1.12, train step 1.10.
LOWER = {_verify_stack: 0.35, _loss_level_group: 0.54, _end_to_end_group: 0.71, _train_step: 0.57}

FULL_STACKS = [
    *(pytest.param(_verify_stack, (n, d), id=f"{n}-{d}") for n in (2, 4, 8, 16, 32) for d in DISTRIBUTIONS),
    *(pytest.param(_loss_level_group, (n, m), id=f"loss-level-{n}-{m}") for n, m in ((1, 1), (8, 64), (4, 8), (16, 4))),
    pytest.param(_end_to_end_group, (), id="end-to-end"),
    pytest.param(_train_step, ({},), id="train-step-desk"),
    pytest.param(_train_step, (dict(n_pairs=64, input_dim=32, encoder_dims=(64, 64), projector_dims=(64, 64)),),
                 id="train-step-64"),
]


class TestVerifyStackMemory:
    """Verify stacks, gradcheck groups and train steps are sized by counts built on one estimate, ``_pass_bytes``, and
    peak within them."""

    def test_pass_bytes_counts_by_hand(self):
        # 2N = 8 rows of 24 floats, then 8N^2 floats: 4 anchor rows of 8 similarities and 4 of their gradient's
        # weights, and 8 x 8 for the pass's temporaries.
        assert bounds._pass_bytes(4, 24) == 8 * (8 * 24 + 8 * 8 + 2 * 4 * 8)
        assert bounds._pass_bytes(1, 1) == 8 * (2 * 1 + 2 * 2 + 2 * 1 * 2)

    @pytest.mark.parametrize("n_pairs", [8, 16, 32])
    def test_a_pass_holds_one_anchor_rows_array(self, n_pairs):
        """A pass over a full verify stack peaks below its unit rows plus two anchor-rows arrays.

        Its logits overwrite its similarities, and the exclusion and softmax work in place; the second array
        covers the product's operands and the per-anchor terms.
        """
        trials, _, _ = _verify_stack(n_pairs, "gaussian")
        rows = _sample_rows("gaussian", trials, n_pairs, 8, bounds._stream(0, 0))
        anchor_rows = 8 * trials * n_pairs * 2 * n_pairs

        def one_pass():
            _nt_xent_pass(rows, 0.5, AnchorMode.PAPER_N)

        one_pass()  # warm-up: first-call allocations are not the pass's
        tracemalloc.start()
        try:
            one_pass()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < rows.nbytes + 2 * anchor_rows

    @pytest.mark.parametrize(("kind", "args"), FULL_STACKS)
    def test_one_stack_fits_the_chunk_budget(self, kind, args, gradcheck_chunks):
        """A full stack, drawn and evaluated, peaks within its count, and above LOWER of it: the sizing counts what a
        trial holds, and not much more."""
        trials, budget, one_stack = kind(*args)
        one_stack()  # warm-up: first-call allocations are not the stack's
        tracemalloc.start()
        try:
            one_stack()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # A gradcheck run of `trials` trials is one group of that size.
        assert all(chunk == trials for _, chunk in gradcheck_chunks)
        assert LOWER[kind] * budget <= peak <= budget
