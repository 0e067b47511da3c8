"""NT-Xent loss values, the alignment/distribution split, and stable LSE."""

import math

import numpy as np
import pytest

from ntxbound import (
    AnchorMode,
    EmbeddingBatch,
    EmptyInputError,
    InvalidDatasetParamsError,
    InvalidGridError,
    InvalidTemperatureError,
    LossBreakdown,
    LossConfig,
    SimilarityMatrix,
    TrainConfig,
    VerifyGrid,
    evaluate_batch,
    logsumexp,
    nt_xent,
    nt_xent_grad,
    similarity_matrix,
)
from ntxbound.loss import nt_xent_from_sims
from ntxbound.sim import TAU_MAX, TAU_MIN
from oracle import nt_xent_loss

LOG3 = 1.0986122886681098
LOG4 = 1.3862943611198906


class TestLogsumexp:
    def test_single_zero(self):
        assert logsumexp([0.0]) == 0.0

    def test_equal_zeros_give_log_n(self):
        assert logsumexp([0.0, 0.0, 0.0, 0.0]) == pytest.approx(LOG4, abs=1e-15)

    def test_large_inputs_no_overflow(self):
        assert logsumexp([1000.0, 1000.0]) == pytest.approx(1000.0 + math.log(2.0), abs=1e-12)

    def test_magnitude_1e6(self):
        assert logsumexp([1e6, 1e6, 1e6]) == pytest.approx(1e6 + math.log(3.0), rel=1e-15)
        assert math.isfinite(logsumexp([-1e6, 1e6]))

    def test_empty_rejected(self):
        with pytest.raises(EmptyInputError):
            logsumexp([])

    def test_non_finite_rejected(self):
        with pytest.raises(ValueError):
            logsumexp([0.0, math.inf])

    def test_agrees_with_naive_form(self):
        """Max-shift vs direct log(sum(exp)) wherever the naive form is safe."""
        rng = np.random.default_rng(5)
        for _ in range(500):
            xs = rng.uniform(-700, 700, size=int(rng.integers(1, 40)))
            naive = math.log(sum(math.exp(x) for x in xs))
            assert logsumexp(xs) == pytest.approx(naive, rel=1e-12)


class TestNtXentClosedForms:
    def test_single_pair_loss_is_zero(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            batch = EmbeddingBatch(rng.standard_normal((2, 4)))
            assert nt_xent(batch, LossConfig(tau=1.0)).total == pytest.approx(0.0, abs=1e-12)

    def test_all_identical_rows_give_log3(self):
        batch = EmbeddingBatch(np.tile([0.3, -1.2, 0.7], (4, 1)))
        breakdown = nt_xent(batch, LossConfig(tau=1.0))
        assert breakdown.total == pytest.approx(LOG3, abs=1e-12)
        # alignment is -1 per anchor, distribution is 1 + log 3
        assert breakdown.alignment == pytest.approx(-1.0, abs=1e-12)
        assert breakdown.distribution == pytest.approx(1.0 + LOG3, abs=1e-12)

    def test_all_identical_general_closed_form(self):
        """All-equal latents give log(2N - 1) whatever N and tau."""
        for n_pairs in (2, 3, 8):
            batch = EmbeddingBatch(np.tile([1.0, 1.0], (2 * n_pairs, 1)))
            for tau in (0.1, 0.5, 1.0):
                total = nt_xent(batch, LossConfig(tau=tau)).total
                assert total == pytest.approx(math.log(2 * n_pairs - 1), abs=1e-12)


class TestNtXentOracle:
    def test_random_batch_matches_bruteforce(self):
        rng = np.random.default_rng(2024)
        rows = rng.standard_normal((8, 8))  # N = 4, m = 8
        got = nt_xent(EmbeddingBatch(rows), LossConfig(tau=0.5)).total
        want = nt_xent_loss([list(r) for r in rows], 0.5)
        assert got == pytest.approx(want, rel=1e-10)

    def test_more_random_batches_both_modes(self):
        rng = np.random.default_rng(77)
        for _ in range(25):
            n_pairs = int(rng.integers(1, 7))
            m = int(rng.integers(2, 10))
            tau = float(rng.uniform(0.2, 1.5))
            rows = rng.standard_normal((2 * n_pairs, m))
            batch = EmbeddingBatch(rows)
            listed = [list(r) for r in rows]
            got_paper = nt_xent(batch, LossConfig(tau=tau)).total
            assert got_paper == pytest.approx(nt_xent_loss(listed, tau), rel=1e-10)
            got_sym = nt_xent(batch, LossConfig(tau=tau, anchor_mode=AnchorMode.SYMMETRIC_2N)).total
            assert got_sym == pytest.approx(nt_xent_loss(listed, tau, symmetric=True), rel=1e-10)

    def test_modes_differ_in_general(self):
        rng = np.random.default_rng(3)
        rows = rng.standard_normal((8, 5))
        paper = nt_xent(EmbeddingBatch(rows), LossConfig(tau=0.5)).total
        sym = nt_xent(EmbeddingBatch(rows), LossConfig(tau=0.5, anchor_mode=AnchorMode.SYMMETRIC_2N)).total
        assert paper != pytest.approx(sym, rel=1e-6)


class TestLossInvariants:
    def test_decomposition_identity_sample(self):
        """Spot check of the identity; the full 1000-batch sweep runs in acceptance."""
        rng = np.random.default_rng(314)
        for _ in range(100):
            n_pairs = int(rng.integers(2, 33))
            m = int(rng.integers(2, 65))
            tau = float(rng.uniform(0.05, 1.0))
            for mode in AnchorMode:
                bd = nt_xent(EmbeddingBatch(rng.standard_normal((2 * n_pairs, m))), LossConfig(tau, mode))
                assert abs(bd.total - (bd.alignment + bd.distribution)) <= 1e-10 * max(1.0, abs(bd.total))

    def test_per_row_rescaling_invariance(self):
        rng = np.random.default_rng(271)
        for _ in range(50):
            rows = rng.standard_normal((8, 6))
            scales = 10.0 ** rng.uniform(-3, 3, size=(8, 1))
            cfg = LossConfig(tau=float(rng.uniform(0.1, 1.0)))
            base = nt_xent(EmbeddingBatch(rows), cfg).total
            scaled = nt_xent(EmbeddingBatch(rows * scales), cfg).total
            assert scaled == pytest.approx(base, abs=1e-9)

    def test_pair_permutation_invariance(self):
        rng = np.random.default_rng(161)
        for _ in range(50):
            n_pairs = int(rng.integers(2, 10))
            rows = rng.standard_normal((2 * n_pairs, 5))
            perm = rng.permutation(n_pairs)
            permuted = np.concatenate([rows[2 * t : 2 * t + 2] for t in perm])
            cfg = LossConfig(tau=0.5)
            a = nt_xent(EmbeddingBatch(rows), cfg).total
            b = nt_xent(EmbeddingBatch(permuted), cfg).total
            assert b == pytest.approx(a, abs=1e-12)

    @pytest.mark.parametrize("mode", list(AnchorMode))
    def test_inputs_are_left_bit_identical(self, mode):
        """A pass overwrites the similarities it is handed with its logits: a caller's matrix and rows are never handed."""
        batch = EmbeddingBatch(np.random.default_rng(11).standard_normal((8, 5)))
        simmat = similarity_matrix(batch, 0.5)
        sims, rows = simmat.sims.tobytes(), batch.rows.tobytes()
        cfg = LossConfig(tau=0.5, anchor_mode=mode)
        first = nt_xent_from_sims(simmat, cfg)
        assert simmat.sims.tobytes() == sims
        assert nt_xent_from_sims(simmat, cfg) == first  # a second evaluation still sees similarities, not logits
        nt_xent(batch, cfg)
        nt_xent_grad(batch, cfg)
        if mode is AnchorMode.PAPER_N:
            evaluate_batch(batch, cfg)
        assert batch.rows.tobytes() == rows


class TestConfigValidation:
    def test_nonpositive_tau_rejected(self):
        for tau in (0.0, -0.5, math.nan):
            with pytest.raises(InvalidTemperatureError):
                LossConfig(tau=tau)

    @pytest.mark.parametrize(
        "tau, accepted",
        [
            (TAU_MIN, True),
            (1e-8, True),
            (10.0, True),
            (TAU_MAX, True),
            (TAU_MIN / 2, False),
            (2 * TAU_MAX, False),
            (1e-320, False),
            (1e-308, False),
            (1e300, False),
            (1e308, False),
            (math.inf, False),
        ],
    )
    def test_one_tau_range_for_every_caller(self, tau, accepted):
        """Each of the five temperature checks takes the same range and raises its own type."""
        eye = np.eye(2)
        callers = [
            (InvalidTemperatureError, lambda: LossConfig(tau=tau)),
            (InvalidTemperatureError, lambda: similarity_matrix(EmbeddingBatch(eye), tau)),
            (InvalidTemperatureError, lambda: SimilarityMatrix(sims=eye, tau=tau)),
            (InvalidGridError, lambda: VerifyGrid(ns=(2,), ms=(3,), taus=(tau,), distributions=("gaussian",))),
            (InvalidDatasetParamsError, lambda: TrainConfig(tau=tau)),
        ]
        for error, build in callers:
            if accepted:
                build()
            else:
                with pytest.raises(error):
                    build()

    @pytest.mark.parametrize("tau", [0.5, 1000.0])
    def test_a_matrix_tau_matches_within_1e_15_of_the_larger_of_1_and_tau(self, tau):
        """At tau 1000 the match is 1e-12, about 8.8 ulps: 4 ulps off is the same tau, 16 ulps off is not."""
        batch, cfg = EmbeddingBatch(np.random.default_rng(3).standard_normal((4, 3))), LossConfig(tau=tau)
        ulp = math.ulp(tau)
        assert 4 * ulp < 1e-15 * max(1.0, tau) < 16 * ulp
        nt_xent_from_sims(similarity_matrix(batch, tau + 4 * ulp), cfg)
        with pytest.raises(InvalidTemperatureError, match="scaled with tau"):
            nt_xent_from_sims(similarity_matrix(batch, tau + 16 * ulp), cfg)

    def test_breakdown_identity_enforced(self):
        with pytest.raises(ValueError):
            LossBreakdown(total=1.0, alignment=0.2, distribution=0.2)

    def test_breakdown_requires_finite(self):
        with pytest.raises(ValueError):
            LossBreakdown(total=math.inf, alignment=math.inf, distribution=0.0)

    @pytest.mark.parametrize("field", ["total", "alignment", "distribution"])
    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_breakdown_refuses_a_non_finite_field(self, field, bad):
        """Alone, as a scalar or as one entry of a stack, each non-finite field is refused, nan included."""
        good = {"total": 1.0, "alignment": -0.25, "distribution": 1.25}
        LossBreakdown(**good)
        with pytest.raises(ValueError, match="must be finite"):
            LossBreakdown(**{**good, field: bad})
        stack = {name: np.full(4, value) for name, value in good.items()}
        LossBreakdown(**stack)
        stack[field][2] = bad
        with pytest.raises(ValueError, match="must be finite"):
            LossBreakdown(**stack)

    def test_breakdown_refuses_one_broken_identity_in_a_stack(self):
        total, alignment = np.array([1.0, 2.0, 3.0]), np.array([-0.5, 0.5, 1.5])
        distribution = total - alignment
        LossBreakdown(total=total, alignment=alignment, distribution=distribution)
        distribution[1] += 1e-8
        with pytest.raises(ValueError, match="decomposition identity"):
            LossBreakdown(total=total, alignment=alignment, distribution=distribution)
