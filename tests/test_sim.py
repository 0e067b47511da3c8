"""Vector kernels: normalization, cosine similarity, batch similarity matrices."""

import math
import warnings

import numpy as np
import pytest

from ntxbound import (
    DimensionMismatchError,
    EmbeddingBatch,
    InvalidTemperatureError,
    LossConfig,
    SimilarityMatrix,
    ZeroVectorError,
    cosine_sim,
    l2_normalize,
    nt_xent,
    nt_xent_grad,
    similarity_bound,
    similarity_matrix,
)
from ntxbound import sim
from ntxbound.sim import _unit_rows
from oracle import cosine


class TestL2Normalize:
    def test_three_four_five(self):
        np.testing.assert_allclose(l2_normalize([3.0, 4.0]), [0.6, 0.8], atol=1e-12)

    def test_already_unit(self):
        np.testing.assert_allclose(l2_normalize([1.0, 0.0, 0.0]), [1.0, 0.0, 0.0], atol=0)

    def test_zero_vector_rejected(self):
        with pytest.raises(ZeroVectorError):
            l2_normalize([0.0, 0.0])

    def test_unit_norm_and_direction(self):
        rng = np.random.default_rng(42)
        for _ in range(200):
            v = rng.standard_normal(rng.integers(1, 20)) * 10.0 ** rng.uniform(-6, 6)
            if np.max(np.abs(v)) == 0:
                continue
            u = l2_normalize(v)
            assert np.linalg.norm(u) == pytest.approx(1.0, abs=1e-12)
            # direction preserved: u is a positive multiple of v
            assert float(np.dot(u, v)) > 0
            np.testing.assert_allclose(u * np.linalg.norm(v), v, rtol=1e-10)

    def test_huge_entries_do_not_overflow(self):
        u = l2_normalize([1e300, 1e300])
        np.testing.assert_allclose(u, [math.sqrt(0.5)] * 2, rtol=1e-12)


class TestCosineSim:
    def test_identical_directions(self):
        assert cosine_sim([1.0, 2.0], [1.0, 2.0]) == pytest.approx(1.0, abs=1e-12)

    def test_orthogonal(self):
        assert cosine_sim([1.0, 0.0], [0.0, 1.0]) == 0.0

    def test_opposite(self):
        assert cosine_sim([1.0, 1.0], [-1.0, -1.0]) == pytest.approx(-1.0, abs=1e-12)

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatchError):
            cosine_sim([1.0, 0.0], [1.0, 0.0, 0.0])

    def test_zero_vector(self):
        with pytest.raises(ZeroVectorError):
            cosine_sim([0.0, 0.0], [1.0, 0.0])

    def test_matches_oracle(self):
        rng = np.random.default_rng(7)
        for _ in range(300):
            m = int(rng.integers(1, 16))
            a, b = rng.standard_normal(m), rng.standard_normal(m)
            assert cosine_sim(a, b) == pytest.approx(cosine(a, b), abs=1e-12)

    def test_scale_invariance(self):
        rng = np.random.default_rng(11)
        for _ in range(200):
            m = int(rng.integers(1, 10))
            a, b = rng.standard_normal(m), rng.standard_normal(m)
            alpha, beta = 10.0 ** rng.uniform(-8, 8), 10.0 ** rng.uniform(-8, 8)
            assert cosine_sim(alpha * a, beta * b) == pytest.approx(cosine_sim(a, b), abs=1e-10)

    def test_symmetry_exact(self):
        rng = np.random.default_rng(13)
        for _ in range(200):
            a, b = rng.standard_normal(6), rng.standard_normal(6)
            assert cosine_sim(a, b) == cosine_sim(b, a)

    def test_always_in_unit_interval(self):
        rng = np.random.default_rng(17)
        for _ in range(500):
            a, b = rng.standard_normal(3), rng.standard_normal(3)
            assert -1.0 <= cosine_sim(a, b) <= 1.0


class TestEmbeddingBatch:
    def test_basic_properties(self):
        b = EmbeddingBatch(np.ones((6, 3)))
        assert (b.rows.shape, b.n_pairs) == ((6, 3), 3)
        assert repr(b) == "EmbeddingBatch(n_pairs=3, dim=3)"

    def test_odd_row_count_rejected(self):
        with pytest.raises(ValueError):
            EmbeddingBatch(np.ones((3, 2)))

    def test_zero_row_rejected(self):
        rows = np.ones((4, 2))
        rows[2] = 0.0
        with pytest.raises(ZeroVectorError):
            EmbeddingBatch(rows)

    def test_non_finite_rejected(self):
        rows = np.ones((2, 2))
        rows[0, 0] = np.nan
        with pytest.raises(ValueError):
            EmbeddingBatch(rows)

    def test_memory_layout_does_not_change_the_bits(self):
        """The same rows, Fortran- or C-ordered, give bit-equal loss, gradient and bound."""
        rng = np.random.default_rng(606)
        cfg = LossConfig(tau=0.5)
        for _ in range(200):
            rows = rng.standard_normal((16, 8))
            c_order, f_order = EmbeddingBatch(rows), EmbeddingBatch(np.asfortranarray(rows))
            assert f_order.rows.flags.c_contiguous
            assert nt_xent(f_order, cfg) == nt_xent(c_order, cfg)
            assert nt_xent_grad(f_order, cfg).tobytes() == nt_xent_grad(c_order, cfg).tobytes()
            assert similarity_bound(f_order, cfg) == similarity_bound(c_order, cfg)

    def test_rows_are_frozen_copies(self):
        src = np.ones((2, 2))
        b = EmbeddingBatch(src)
        src[0, 0] = 5.0
        assert b.rows[0, 0] == 1.0
        with pytest.raises(ValueError):
            b.rows[0, 0] = 2.0


class TestSimilarityMatrix:
    def test_identical_rows(self):
        sm = similarity_matrix(EmbeddingBatch([[1.0, 2.0], [1.0, 2.0]]), tau=1.0)
        np.testing.assert_allclose(sm.sims, np.ones((2, 2)), atol=1e-12)

    def test_orthogonal_rows_scaled(self):
        sm = similarity_matrix(EmbeddingBatch([[1.0, 0.0], [0.0, 1.0]]), tau=0.5)
        np.testing.assert_array_equal(sm.sims, np.eye(2))
        assert sm.tau == 0.5

    def test_matches_entrywise_oracle(self):
        rng = np.random.default_rng(123)
        rows = rng.standard_normal((4, 3))
        sm = similarity_matrix(EmbeddingBatch(rows), tau=0.7)
        for i in range(4):
            for k in range(4):
                assert sm.sims[i, k] == pytest.approx(cosine(rows[i], rows[k]), abs=1e-12)

    def test_invalid_temperature(self):
        b = EmbeddingBatch(np.ones((2, 2)))
        for tau in (0.0, -1.0, math.nan):
            with pytest.raises(InvalidTemperatureError):
                similarity_matrix(b, tau)

    def test_invariants_on_random_batches(self):
        rng = np.random.default_rng(99)
        for _ in range(50):
            n_pairs = int(rng.integers(1, 9))
            m = int(rng.integers(1, 12))
            tau = float(rng.uniform(0.05, 2.0))
            sm = similarity_matrix(EmbeddingBatch(rng.standard_normal((2 * n_pairs, m))), tau)
            assert np.array_equal(sm.sims, sm.sims.T)  # exact symmetry
            np.testing.assert_allclose(np.diag(sm.sims), 1.0, atol=1e-12)
            assert np.all(sm.sims >= -1.0) and np.all(sm.sims <= 1.0)

    @pytest.mark.parametrize("side", [0, 1, 3, 5])
    def test_odd_or_short_side_is_refused(self, side):
        """As EmbeddingBatch refuses such row counts: no loss can index a partner past the last row."""
        with pytest.raises(DimensionMismatchError, match="even and >= 2"):
            SimilarityMatrix(sims=np.eye(side), tau=0.5)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_entries_are_refused_without_a_warning(self, bad):
        sims = np.eye(4)
        sims[1, 2] = bad
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="finite"):
                SimilarityMatrix(sims=sims, tau=0.5)


EPS = np.finfo(np.float64).eps
OUT_OF_RANGE_SCALES = (1e200, 1e-200, 1e300, 1e-300)


class TestRangeRule:
    """Rows whose sum of squares leaves ``_SUMSQ_RANGE`` are pre-scaled; every other row takes one root and one division."""

    @pytest.mark.parametrize("scale", (*OUT_OF_RANGE_SCALES, 5e-324))
    @pytest.mark.parametrize(("legs", "hypotenuse"), [((3, 4), 5), ((5, 12), 13), ((8, -15), 17), ((1, 0), 1)])
    def test_pythagorean_rows_at_extreme_scales(self, scale, legs, hypotenuse):
        """Entries near the ends of the range, subnormal ones included, give norms within 1 ulp."""
        unit, norm = _unit_rows(np.array(legs, dtype=np.float64) * scale)
        assert abs(math.sqrt(math.fsum(unit * unit)) - 1.0) <= EPS
        np.testing.assert_allclose(unit, np.array(legs) / hypotenuse, rtol=EPS, atol=0)
        assert norm == pytest.approx(hypotenuse * scale, rel=EPS, abs=0)

    @pytest.mark.parametrize("scale", OUT_OF_RANGE_SCALES)
    def test_out_of_range_rows_match_their_in_range_direction(self, scale):
        """Pre-scaled rows are unit to the accuracy of the fast path: a few products' rounding."""
        rng = np.random.default_rng(41)
        for m in range(1, 9):
            rows = rng.standard_normal((200, m))
            unit, norms = _unit_rows(rows * scale)
            want_unit, want_norms = _unit_rows(rows)
            np.testing.assert_allclose(np.sqrt(np.sum(unit * unit, axis=-1)), 1.0, rtol=0, atol=2 * EPS)
            np.testing.assert_allclose(unit, want_unit, rtol=0, atol=2 * EPS)
            np.testing.assert_allclose(norms, want_norms * scale, rtol=4 * EPS, atol=0)

    def test_a_row_normalizes_alone_as_in_any_stack(self):
        """Unit rows and norms are bit-equal alone, in an in-range stack and in a stack with out-of-range rows."""
        rng = np.random.default_rng(43)
        for m in (1, 2, 5, 8, 33):
            rows = rng.standard_normal((3, 6, m)) * 10.0 ** rng.uniform(-50, 50, size=(3, 6, 1))
            in_range = _unit_rows(rows)
            mixed = rows.copy()
            mixed[:, ::3] *= 1e250
            mixed_unit, mixed_norms = _unit_rows(mixed)
            for t, i in np.ndindex(3, 6):
                unit, norm = _unit_rows(rows[t, i])
                np.testing.assert_array_equal(in_range[0][t, i], unit)
                assert in_range[1][t, i] == norm
                if i % 3:
                    np.testing.assert_array_equal(mixed_unit[t, i], unit)
                    assert mixed_norms[t, i] == norm
                else:
                    np.testing.assert_array_equal(mixed_unit[t, i], _unit_rows(mixed[t, i])[0])

    @pytest.mark.parametrize(
        ("bad", "error", "message"),
        [
            (np.nan, ValueError, "batch entries must be finite"),
            (np.inf, ValueError, "batch entries must be finite"),
            (-np.inf, ValueError, "batch entries must be finite"),
            (0.0, ZeroVectorError, "zero-norm row"),
        ],
    )
    @pytest.mark.parametrize("others", [1.0, 1e300], ids=["in-range", "out-of-range"])
    def test_refusals_in_either_path(self, bad, error, message, others):
        """A bad row is refused alone, beside in-range rows, and beside out-of-range rows."""
        rows = np.full((2, 4, 3), others)
        rows[1, 2] = bad
        for stack in (rows[1, 2], rows):
            with pytest.raises(error, match=message):
                _unit_rows(stack)

    def test_in_range_stacks_never_take_the_max_abs_pass(self, monkeypatch):
        """The short-axis max stays off the hot path: in-range rows never reach ``_row_scales``."""
        calls = []
        real = sim._row_scales

        def spy(rows):
            calls.append(rows.copy())
            return real(rows)

        monkeypatch.setattr(sim, "_row_scales", spy)
        rng = np.random.default_rng(47)
        for shape in [(4,), (2, 8), (13, 64, 8), (3, 6, 1), (5, 2, 130)]:
            rows = rng.standard_normal(shape) * 10.0 ** rng.uniform(-140, 140, size=(*shape[:-1], 1))
            _unit_rows(rows)
        assert calls == []

        rows = rng.standard_normal((3, 8, 5))
        rows[:, 1::2] *= 1e-300
        _unit_rows(rows)
        assert len(calls) == 1
        np.testing.assert_array_equal(calls[0], rows[:, 1::2].reshape(-1, 5))
