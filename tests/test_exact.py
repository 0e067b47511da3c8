"""``evaluate_batch`` against the 60-digit references: each output within a stated rounding-error bound.

The logits are cos / tau, so each of the loss, its alignment and its
distribution carries an absolute error of order u (1/tau + log 2N + |L|),
with u = 2**-53 and L the exact loss (Blanchard, Higham & Higham, "Accurately
computing the log-sum-exp and softmax functions", IMA J. Numer. Anal. 41,
2021). The report's fields (``avg_pos_sim``, both bounds and both gaps) are
tau times those, so the stated bound on each is ``C u (1 + tau (log 2N +
|L|))``, and on each loss field that over tau. The 1 stands outside the tau
factor because ``avg_pos_sim`` and the paper bound's ``+ 1`` are rounded at
about u whatever tau is: the form ``c u tau (log 2N + |L| + 1)`` needed
c = 1,560 at tau 1e-3 in the sweep below, and the two forms agree within 2x
at tau >= 1.

``C`` = 8. Over seeds 0-999 of the batches ``draw_rows`` makes (3,000
batches: Gaussian, clustered and near-collapsed, N 1-16, m 8, the taus of
``TAUS``), the largest error over its bound at C = 1 was 3.37 (``strict_gap``
at tau 1e-3, N 9, clustered), so C leaves a margin of 2.4.

``nt_xent_grad`` against the exact latent gradient, entry by entry. Row i's
gradient sums terms of size about 1 / (tau |z_i|): softmax weights less 1 at
the partner, over N tau, times unit rows, over the row's norm. Each term is
rounded at about u relative, and a softmax weight strictly between 0 and 1
also moves by about u / tau relative, the rounding of its logit cos / tau. So
the stated bound on entry (i, j) is ``C_GRAD u (1 + 1/tau) / (tau |z_i|)``.
The 1/tau term is earned by near-ties at small tau: a batch whose anchor is
equally close to its partner and to another row (``tie_rows``) has errors of
46-180 times ``u / (tau |z_i|)`` at tau 1e-3.

``C_GRAD`` = 6. Over seeds 0-299 of ``draw_rows`` at m 4 and at m 8 (N 1-4,
every kind, taus of ``GRAD_TAUS``: 5,400 batches) and 60 ``tie_rows``
batches at tau 1e-3 and 0.5, the largest error over its bound at C_GRAD = 1
was 2.00 (tau 1e4, N 2, Gaussian, m 4), so C_GRAD leaves a margin of 3.0.

A complex step of gradcheck's NT-Xent pass, ``Im L(z + ih e_ij) / h`` at
h = 1e-30, against the same exact gradient and the same bound form, with
``C_STEP`` = 4. Over seeds 0-2 of ``draw_rows`` at m 4 (N 1-3, every kind, taus
1e-3, 0.01, 0.5, 1e3 and 1e4: 135 batches) the largest error over its bound at
C_STEP = 1 was 1.93 (Gaussian; clustered 1.21, near-collapsed 0.36), so C_STEP
leaves a margin of 2.07. The pass must keep each probe's imaginary part: the
clip of the cosines to [-1, 1] reads their real parts only, since a complex
number of real part 1 compares above 1 and would be clipped to a real 1.

The tightness witnesses, ``oracle.collapse`` and ``oracle.simplex``: at 60
digits the strict gap is 0 and the paper gap ``tau log(2N/(2N-1))`` at
collapse and that plus ``2N/(2N-1)`` at the simplex, and ``evaluate_batch``
is within the bound above of both, whose exact loss is ``log(2N-1)``.
"""

import dataclasses
import math

import numpy as np
import pytest

mpmath = pytest.importorskip("mpmath")

from ntxbound import EmbeddingBatch, LossConfig, evaluate_batch, nt_xent_grad
from ntxbound.bounds import VIOLATION_SLACK
from ntxbound.gradcheck import _stack_losses
from ntxbound.sim import TAU_MAX
from oracle import collapse, exact_evaluation, exact_latent_grad, exact_simplex, simplex

U = 2.0**-53
C = 8.0
C_GRAD = 6.0
C_STEP = 4.0
TAUS = (1e-3, 0.05, 0.5, 1.0, 100.0, 1e4)
GRAD_TAUS = (1e-3, 0.5, 1e4)
KINDS = ("gaussian", "clustered", "collapsed")
LOSS_FIELDS = ("total", "alignment", "distribution")


def error_bound(tau, n_pairs, loss):
    """The stated bound on a report field's rounding error; a loss field's is this over tau."""
    return C * U * (1.0 + tau * (math.log(2 * n_pairs) + abs(loss)))


def draw_rows(kind, n_pairs, rng, dim=8):
    """A (2N, dim) batch: standard normals, pairs around a shared normal, or one direction plus 1e-9 noise."""
    if kind == "gaussian":
        return rng.standard_normal((2 * n_pairs, dim))
    if kind == "clustered":
        return np.repeat(rng.standard_normal((n_pairs, dim)), 2, axis=0) + 0.1 * rng.standard_normal((2 * n_pairs, dim))
    return rng.standard_normal(dim) + 1e-9 * rng.standard_normal((2 * n_pairs, dim))


def tie_rows(rng, dim=5):
    """Four rows: an anchor, its partner, a third row at the partner's angle mirrored about the anchor, and a normal.

    Each row is scaled by a factor in [0.5, 2], which the cosines do not see.
    """
    basis = np.linalg.qr(rng.standard_normal((dim, dim)))[0]
    angle = rng.uniform(0.2, 1.2)
    side = np.sin(angle) * basis[1]
    rows = np.array([basis[0], np.cos(angle) * basis[0] + side, np.cos(angle) * basis[0] - side, rng.standard_normal(dim)])
    return rows * rng.uniform(0.5, 2.0, (4, 1))


def complex_step_grad(rows, tau, h=1e-30):
    """``Im L / h`` of ``_stack_losses`` over one probe per entry of the rows, each moved by ih at its entry."""
    probes = rows + 1j * h * np.eye(rows.size).reshape(rows.size, *rows.shape)
    return (_stack_losses(probes, LossConfig(tau)).imag / h).reshape(rows.shape)


def grad_errors(rows, tau, c, got=None):
    """Each entry's |got - exact| over ``c u (1 + 1/tau) / (tau |z_i|)``; ``got`` is ``nt_xent_grad``'s if not given."""
    if got is None:
        got = nt_xent_grad(EmbeddingBatch(rows), LossConfig(tau))
    want = exact_latent_grad(rows, tau)
    scale = c * U * (1.0 + 1.0 / tau) / (tau * np.linalg.norm(rows, axis=1))
    errors = [[float(abs(mpmath.mpf(float(g)) - w)) for g, w in zip(*pair)] for pair in zip(got, want)]
    return np.array(errors) / scale[:, None]


@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("tau", GRAD_TAUS)
def test_nt_xent_grad_is_within_its_error_bound_of_exact(tau, kind):
    for seed in range(4):
        rows = draw_rows(kind, seed + 1, np.random.default_rng(seed), dim=4)
        assert grad_errors(rows, tau, C_GRAD).max() <= 1.0, (seed, kind, tau)


@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("tau", GRAD_TAUS)
def test_a_complex_step_of_the_pass_is_within_its_error_bound_of_exact(tau, kind):
    for seed in range(4):
        rows = draw_rows(kind, seed + 1, np.random.default_rng(seed), dim=4)
        assert grad_errors(rows, tau, C_STEP, complex_step_grad(rows, tau)).max() <= 1.0, (seed, kind, tau)


def test_a_near_tie_at_small_tau_needs_the_bounds_one_over_tau_term():
    rows, tau = tie_rows(np.random.default_rng(1)), 1e-3
    errors = grad_errors(rows, tau, C_GRAD)
    assert errors.max() <= 1.0
    assert errors.max() * (1.0 + 1.0 / tau) > 1.0  # over C_GRAD u / (tau |z_i|), the bound without the term


def test_evaluate_batch_is_within_its_error_bound_of_exact():
    """The one test that draws with hypothesis, so only it skips without hypothesis."""
    pytest.importorskip("hypothesis")
    from hypothesis import given, settings, strategies as st

    @settings(max_examples=30, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), n_pairs=st.integers(1, 16), tau=st.sampled_from(TAUS), kind=st.sampled_from(KINDS))
    def check(seed, n_pairs, tau, kind):
        rows = draw_rows(kind, n_pairs, np.random.default_rng(seed))
        ev = evaluate_batch(EmbeddingBatch(rows), LossConfig(tau))
        got = {**dataclasses.asdict(ev.breakdown), **dataclasses.asdict(ev.report)}
        want = exact_evaluation(rows, tau)
        bound = error_bound(tau, n_pairs, float(want["total"]))
        for name, exact in want.items():
            err = float(abs(mpmath.mpf(float(got[name])) - exact))
            assert err <= (bound / tau if name in LOSS_FIELDS else bound), (name, err)

    check()


def test_error_bound_at_tau_max_is_far_below_the_violation_slack():
    """At TAU_MAX and the stock grid's largest N, 32, the bound is 7.4e-11: 13x under VIOLATION_SLACK.

    So rounding alone does not move a gap across -VIOLATION_SLACK. The loss is
    at most log(2N - 1) + 2/tau, since every logit lies in [-1/tau, 1/tau].
    """
    n_pairs = 32
    bound = error_bound(TAU_MAX, n_pairs, math.log(2 * n_pairs - 1) + 2 / TAU_MAX)
    assert 7e-11 < bound <= VIOLATION_SLACK / 13


def test_exact_references_meet_closed_forms():
    """All-identical rows at N = 2, tau = 1: the loss is log 3 and the strict gap 0, to 60 digits."""
    want = exact_evaluation(np.tile([0.4, -0.8, 1.5], (4, 1)), 1.0)
    with mpmath.mp.workdps(60):
        assert abs(want["total"] - mpmath.log(3)) < mpmath.mpf(10) ** -55
        assert abs(want["strict_gap"]) < mpmath.mpf(10) ** -55
        assert abs(want["avg_pos_sim"] - 1) < mpmath.mpf(10) ** -55


def witness_paper_gaps(n_pairs, tau):
    """The paper gap at collapse, ``tau log(2N/(2N-1))``, and at the simplex, that plus ``2N/(2N-1)``, in mpf."""
    ratio = mpmath.mpf(2 * n_pairs) / (2 * n_pairs - 1)
    least = tau * mpmath.log(ratio)
    return least, least + ratio


@pytest.mark.parametrize("tau", [0.05, 1.0, 1e4])
@pytest.mark.parametrize("n_pairs", [1, 2, 3, 8])
def test_the_witnesses_meet_their_closed_forms_to_60_digits(n_pairs, tau):
    """The strict gap is 0 and the paper gap its closed form. The terms reach tau log 2N, about 1e4 at tau 1e4, so
    60 digits hold them to about 1e-55: the tolerance, 1e-50, is far below any float64 difference."""
    with mpmath.mp.workdps(60):
        at_collapse, at_simplex = witness_paper_gaps(n_pairs, tau)
        collapsed = collapse(n_pairs, 5, np.random.default_rng(n_pairs))
        for rows, paper_gap in ((collapsed, at_collapse), (exact_simplex(n_pairs), at_simplex)):
            want = exact_evaluation(rows, tau)
            assert abs(want["strict_gap"]) < mpmath.mpf(10) ** -50
            assert abs(want["paper_gap"] - paper_gap) < mpmath.mpf(10) ** -50


@pytest.mark.parametrize("tau", [0.05, 1e4])
@pytest.mark.parametrize("n_pairs", [1, 2, 3, 8, 32])
def test_evaluate_batch_is_within_its_error_bound_of_the_witnesses(n_pairs, tau):
    """At both witnesses the exact loss is log(2N - 1): every logit of an anchor is the same."""
    rng = np.random.default_rng(n_pairs)
    bound = error_bound(tau, n_pairs, math.log(2 * n_pairs - 1))
    with mpmath.mp.workdps(60):
        at_collapse, at_simplex = witness_paper_gaps(n_pairs, tau)
        witnesses = ((collapse(n_pairs, 8, rng), at_collapse), (simplex(n_pairs, 2 * n_pairs + 3, rng), at_simplex))
        for rows, paper_gap in witnesses:
            report = evaluate_batch(EmbeddingBatch(rows), LossConfig(tau)).report
            assert abs(report.strict_gap) <= bound
            assert float(abs(mpmath.mpf(report.paper_gap) - paper_gap)) <= bound
