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
"""

import dataclasses
import math

import numpy as np
import pytest

mpmath = pytest.importorskip("mpmath")
hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st

from ntxbound import EmbeddingBatch, LossConfig, evaluate_batch
from ntxbound.bounds import VIOLATION_SLACK
from ntxbound.sim import TAU_MAX
from oracle import exact_evaluation

U = 2.0**-53
C = 8.0
TAUS = (1e-3, 0.05, 0.5, 1.0, 100.0, 1e4)
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


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n_pairs=st.integers(1, 16), tau=st.sampled_from(TAUS), kind=st.sampled_from(KINDS))
def test_evaluate_batch_is_within_its_error_bound_of_exact(seed, n_pairs, tau, kind):
    rows = draw_rows(kind, n_pairs, np.random.default_rng(seed))
    ev = evaluate_batch(EmbeddingBatch(rows), LossConfig(tau))
    got = {**dataclasses.asdict(ev.breakdown), **dataclasses.asdict(ev.report)}
    want = exact_evaluation(rows, tau)
    bound = error_bound(tau, n_pairs, float(want["total"]))
    for name, exact in want.items():
        err = float(abs(mpmath.mpf(float(got[name])) - exact))
        assert err <= (bound / tau if name in LOSS_FIELDS else bound), (name, err)


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
