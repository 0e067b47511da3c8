"""Property tests of the loss, the bounds and the latent gradient over random shapes and temperatures."""

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st

from ntxbound import EmbeddingBatch, LossConfig, evaluate_batch, nt_xent_grad, similarity_matrix
from ntxbound.bounds import VIOLATION_SLACK, _pass_evaluation
from ntxbound.loss import AnchorMode, _breakdown, _latent_grad, _nt_xent_pass, anchor_indices, nt_xent_from_sims
from ntxbound.sim import _cosine_matrix, _unit_rows

SETTINGS = settings(max_examples=40, deadline=None)
FEW = settings(max_examples=20, deadline=None)


@st.composite
def batches(draw, max_stack=1):
    """Rows (T, 2N, m): pairs are a base row plus noise of a drawn spread, each row scaled by 10^[-3, 3]."""
    stack = draw(st.integers(1, max_stack))
    n_pairs = draw(st.integers(1, 8))
    dim = draw(st.integers(1, 8))
    spread = draw(st.floats(1e-9, 10.0))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    bases = np.repeat(rng.standard_normal((stack, n_pairs, dim)), 2, axis=1)
    rows = bases + spread * rng.standard_normal((stack, 2 * n_pairs, dim))
    rows *= 10.0 ** rng.uniform(-3.0, 3.0, size=(stack, 2 * n_pairs, 1))
    return rows


taus = st.floats(1e-8, 10.0)


@SETTINGS
@given(rows=batches(), tau=taus)
def test_avg_below_strict_below_paper(rows, tau):
    report = evaluate_batch(EmbeddingBatch(rows[0]), LossConfig(tau=tau)).report
    assert report.avg_pos_sim <= report.strict_bound + VIOLATION_SLACK
    assert report.strict_bound <= report.paper_bound + VIOLATION_SLACK


@SETTINGS
@given(rows=batches(), tau=taus)
def test_decomposition_identity(rows, tau):
    breakdown = evaluate_batch(EmbeddingBatch(rows[0]), LossConfig(tau=tau)).breakdown
    residual = abs(breakdown.total - (breakdown.alignment + breakdown.distribution))
    # Relative to the largest term: at tau = 1e-8 the components reach 1e8 while the total stays O(1).
    assert residual <= 1e-10 * max(1.0, abs(breakdown.total), abs(breakdown.alignment), abs(breakdown.distribution))


@SETTINGS
@given(rows=batches(), tau=taus, mode=st.sampled_from(AnchorMode))
def test_gradient_rows_orthogonal_to_latents(rows, tau, mode):
    grad = nt_xent_grad(EmbeddingBatch(rows[0]), LossConfig(tau=tau, anchor_mode=mode))
    inner = np.abs(np.sum(grad * rows[0], axis=1))
    # Rounding leaves a radial residue of a few ulps of the unit-row gradient, which scales as 1/tau.
    assert np.max(inner) <= 1e-12 * (1.0 + 1.0 / tau)


@SETTINGS
@given(rows=batches(max_stack=5), tau=taus)
def test_stacked_evaluation_matches_each_batch(rows, tau):
    """A stacked anchor-row pass gives each batch's loss and bounds."""
    stacked = _pass_evaluation(_nt_xent_pass(rows, tau, AnchorMode.PAPER_N))
    for t in range(rows.shape[0]):
        single = evaluate_batch(EmbeddingBatch(rows[t]), LossConfig(tau=tau))
        for part in ("breakdown", "report"):
            got, want = getattr(stacked, part), getattr(single, part)
            for name in got.__dataclass_fields__:
                np.testing.assert_allclose(getattr(got, name)[t], getattr(want, name), rtol=1e-12, atol=1e-12)


@SETTINGS
@given(rows=batches(), tau=taus)
def test_similarity_matrix_is_exactly_symmetric(rows, tau):
    """The public matrix averages the product with its transpose: symmetric bit for bit, diagonal exactly 1."""
    sims = similarity_matrix(EmbeddingBatch(rows[0]), tau).sims
    np.testing.assert_array_equal(sims, sims.T)
    np.testing.assert_array_equal(np.diag(sims), 1.0)
    assert np.all(np.abs(sims) <= 1.0)


def _whole_matrix_grad(batch, tau, mode):
    """The latent gradient through the whole 2N x 2N similarity gradient: zero off the anchor rows, then symmetrized."""
    unit, norms = batch.unit_rows()
    x = similarity_matrix(batch, tau).sims / tau
    n_rows = batch.rows.shape[0]
    anchors, partners = anchor_indices(n_rows, mode)
    x[anchors, anchors] = -np.inf
    weights = np.exp(x[anchors] - x[anchors].max(axis=1, keepdims=True))
    grad_s = np.zeros((n_rows, n_rows))
    grad_s[anchors] = weights / weights.sum(axis=1, keepdims=True)
    grad_s[anchors, partners] -= 1.0
    grad_s /= batch.n_pairs * tau
    grad_unit = (grad_s + grad_s.T) @ unit
    radial = np.sum(grad_unit * unit, axis=1, keepdims=True)
    return (grad_unit - radial * unit) / norms[:, None]


@SETTINGS
@given(rows=batches(max_stack=5), tau=taus, mode=st.sampled_from(AnchorMode))
def test_anchor_rows_match_the_whole_matrix(rows, tau, mode):
    """A stacked pass over the anchor rows alone gives each batch's loss, bounds and gradient of the whole matrix.

    Its rows are the clipped, self-pinned product of the anchors' unit rows with every unit row, exactly;
    the whole matrix averages each entry with its transpose, which moves an entry by at most 2 ulp at 1.
    The pass overwrites its rows with logits, so they are built again here; its pair similarities are
    their partner entries and its positive logits those divided by tau, bit for bit.
    """
    p = _nt_xent_pass(rows, tau, mode)
    sims = _cosine_matrix(_unit_rows(rows)[0], mode.step)
    assert sims.shape[-2] == rows.shape[-2] // mode.step
    breakdown, grad = _breakdown(p.lse, p.pos, p.n_pairs), _latent_grad(p)
    report = _pass_evaluation(p).report if mode is AnchorMode.PAPER_N else None
    cfg = LossConfig(tau=tau, anchor_mode=mode)
    anchors, partners = anchor_indices(rows.shape[-2], mode)
    assert p.pair_sims.tobytes() == sims[:, np.arange(len(anchors)), partners].tobytes()
    assert p.pos.tobytes() == (p.pair_sims / tau).tobytes()
    for t in range(rows.shape[0]):
        batch = EmbeddingBatch(rows[t])
        unit, _ = batch.unit_rows()
        product = np.clip(unit[:: mode.step] @ unit.T, -1.0, 1.0)
        product[np.arange(len(anchors)), anchors] = 1.0
        np.testing.assert_array_equal(sims[t], product)
        whole = similarity_matrix(batch, tau)
        np.testing.assert_allclose(sims[t], whole.sims[:: mode.step], rtol=0, atol=4.5e-16)
        want = nt_xent_from_sims(whole, cfg)
        for name in want.__dataclass_fields__:
            np.testing.assert_allclose(getattr(breakdown, name)[t], getattr(want, name), rtol=1e-12, atol=1e-12)
        want_grad = _whole_matrix_grad(batch, tau, mode)
        np.testing.assert_allclose(grad[t], want_grad, rtol=1e-12, atol=1e-12 * np.abs(want_grad).max())
        if report is not None:
            want_report = evaluate_batch(batch, cfg).report
            for name in want_report.__dataclass_fields__:
                np.testing.assert_allclose(getattr(report, name)[t], getattr(want_report, name), rtol=1e-12, atol=1e-12)


def _loss_and_bounds(rows, tau):
    evaluation = evaluate_batch(EmbeddingBatch(rows), LossConfig(tau=tau))
    return evaluation.breakdown, evaluation.report


def _assert_same_loss_and_bounds(rows, other, tau):
    """Loss terms to a few ulps of 1/tau (logits are sims / tau); bounds, which carry a factor tau, absolutely."""
    (b1, r1), (b2, r2) = _loss_and_bounds(rows, tau), _loss_and_bounds(other, tau)
    for name in ("total", "alignment", "distribution"):
        assert getattr(b2, name) == pytest.approx(getattr(b1, name), rel=0, abs=1e-12 * (1.0 + 1.0 / tau))
    for name in ("avg_pos_sim", "paper_bound", "strict_bound"):
        assert getattr(r2, name) == pytest.approx(getattr(r1, name), rel=0, abs=1e-12 * (1.0 + tau))


@FEW
@given(rows=batches(), tau=taus, seed=st.integers(0, 2**32 - 1))
def test_per_row_rescaling_changes_nothing(rows, tau, seed):
    scales = 10.0 ** np.random.default_rng(seed).uniform(-3.0, 3.0, size=(rows.shape[1], 1))
    _assert_same_loss_and_bounds(rows[0], rows[0] * scales, tau)


@FEW
@given(rows=batches(), tau=taus, seed=st.integers(0, 2**32 - 1))
def test_permuting_pairs_changes_nothing(rows, tau, seed):
    order = np.random.default_rng(seed).permutation(rows.shape[1] // 2)
    rows_by_pair = rows[0].reshape(-1, 2, rows.shape[2])
    _assert_same_loss_and_bounds(rows[0], rows_by_pair[order].reshape(rows[0].shape), tau)
