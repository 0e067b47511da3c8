"""The references the tests check the package against, one definition each.

Float64 references:

* ``cosine`` and ``nt_xent_loss`` are scalar loops over plain Python floats
  and share no code with ``src/``.
* ``latent_fd`` and ``param_grads``' numeric half are central differences of
  the package's own ``nt_xent`` (and, for parameters, its ``forward``), one
  entry at a time; ``param_grads``' analytic half is ``forward`` ->
  ``nt_xent_grad`` -> ``chain_grads``, a layer walk of its own that shares no
  code with ``Mlp.backward``.
* ``worst_rel_error`` is the per-entry error rule of ``gradcheck``, written
  out entry set by entry set; a nan entry on either side fails.
* ``unit_rms`` scales a test input to unit root mean square.
* ``init_net`` draws a network as ``train`` draws its model: one
  ``random(P)``, scaled per layer.

Exact references (60 digits, mpmath): ``exact_cosines``,
``exact_anchor_terms`` and ``exact_evaluation`` evaluate the cosines, the
per-anchor terms and every output of ``evaluate_batch`` from the float64
inputs taken as exact, and share no code with ``src/``. mpmath comes with the
``test`` extra; without it they are unavailable and their tests skip.
"""

import math

import numpy as np

from ntxbound import EmbeddingBatch, Mlp, forward, nt_xent, nt_xent_grad
from ntxbound.trainer import _init_params, _param_count

try:
    from mpmath import mp
except ImportError:
    mp = None

#: Decimal digits of the exact references.
DIGITS = 60


def cosine(a, b):
    dot = sum(x * y for x, y in zip(a, b))
    return dot / (math.sqrt(sum(x * x for x in a)) * math.sqrt(sum(y * y for y in b)))


def nt_xent_loss(rows, tau, symmetric=False):
    """Term-by-term loss evaluation with plain Python floats.

    Follows the ratio form directly: numerator exp of the positive-pair
    similarity, denominator the sum over non-self similarities, spelled out
    per anchor with no vectorization.
    """
    n = len(rows)
    sims = [[cosine(rows[i], rows[k]) for k in range(n)] for i in range(n)]
    anchors = range(n) if symmetric else range(0, n, 2)
    total = 0.0
    for a in anchors:
        partner = a + 1 if a % 2 == 0 else a - 1
        numerator = math.exp(sims[a][partner] / tau)
        denominator = sum(math.exp(sims[a][k] / tau) for k in range(n) if k != a)
        total += -math.log(numerator / denominator)
    return total / (n // 2)


def unit_rms(x):
    return x / math.sqrt(float(np.mean(x * x)))


def init_net(blocks, rng):
    return Mlp(blocks, _init_params(rng.random(_param_count(blocks)), blocks))


def latent_fd(rows, cfg, h=1e-5):
    """Central differences of the loss w.r.t. every latent entry."""
    grad = np.zeros_like(rows)
    for i in range(rows.shape[0]):
        for j in range(rows.shape[1]):
            plus = rows.copy()
            plus[i, j] += h
            minus = rows.copy()
            minus[i, j] -= h
            grad[i, j] = (nt_xent(EmbeddingBatch(plus), cfg).total - nt_xent(EmbeddingBatch(minus), cfg).total) / (2 * h)
    return grad


def chain_grads(net, trace, latent_grad):
    """The parameter gradient, flat in the layout of ``params``, walking the layers from the last.

    Per layer: the weights' gradient is the layer input's transpose times the
    pre-activation gradient, the biases' is its sum over rows, and the input's
    is the pre-activation gradient times the weights' transpose. Below a hidden
    layer (one that is not its block's last) the gradient is masked where its
    ReLU was off.
    """
    hidden = [l < len(dims) - 2 for dims in net.blocks for l in range(len(dims) - 1)]
    lead, g, parts = latent_grad.shape[:-2], latent_grad, []
    for l in reversed(range(len(hidden))):
        d = g * (trace.pre[l] > 0) if hidden[l] else g
        parts = [(trace.act[l].swapaxes(-1, -2) @ d).reshape(lead + (-1,)), d.sum(axis=-2)] + parts
        g = d @ net.weights[l].swapaxes(-1, -2)
    return np.concatenate(parts, axis=-1)


def param_grads(net, views, loss_cfg, h=1e-5):
    """A network's parameter gradient on ``views``, analytic and by central differences, entry for entry (flat).

    Analytic: ``forward``, ``nt_xent_grad``, then :func:`chain_grads`.
    Numeric: each entry of ``params`` is bumped by +-h in a copy, and the
    loss re-run through ``forward`` on a network over that copy and ``nt_xent``.
    """
    trace = forward(net, views)
    analytic = chain_grads(net, trace, nt_xent_grad(EmbeddingBatch(trace.act[-1]), loss_cfg))

    def loss_with_bump(j, delta):
        params = net.params.copy()
        params[j] += delta
        return nt_xent(EmbeddingBatch(forward(Mlp(net.blocks, params), views).act[-1]), loss_cfg).total

    numeric = [(loss_with_bump(j, +h) - loss_with_bump(j, -h)) / (2 * h) for j in range(net.params.size)]
    return analytic, np.array(numeric)


def worst_rel_error(a, n, floor=1e-8):
    """The worst entry's error and index: relative where either magnitude reaches ``floor``.

    Below the floor an entry's error is 0 if the absolute difference stays
    within it and inf otherwise; a nan entry reads inf (or nan for inf/inf).
    """
    denom = np.maximum(np.abs(a), np.abs(n))
    diff = np.abs(a - n)
    big = denom >= floor
    err = np.zeros_like(denom)
    err[big] = diff[big] / denom[big]
    err[~big] = np.where(diff[~big] <= floor, 0.0, np.inf)
    j = int(np.argmax(err))
    return float(err.flat[j]), tuple(int(i) for i in np.unravel_index(j, np.shape(a)))


def exact_cosines(rows):
    """The cosine of every pair of rows, as a list of rows of mpf."""
    with mp.workdps(DIGITS):
        vecs = [[mp.mpf(float(x)) for x in row] for row in rows]
        norms = [mp.sqrt(mp.fdot(v, v)) for v in vecs]
        return [[mp.fdot(a, b) / (na * nb) for b, nb in zip(vecs, norms)] for a, na in zip(vecs, norms)]


def exact_anchor_terms(rows, tau):
    """Each N-anchor convention anchor's ``(lse, pos, max_excl)``, in logits cos / tau, as the NT-Xent pass defines them."""
    cos = exact_cosines(rows)
    with mp.workdps(DIGITS):
        t = mp.mpf(tau)
        terms = []
        for a in range(0, len(rows), 2):
            logits = [cos[a][k] / t for k in range(len(rows)) if k != a]
            terms.append((mp.log(mp.fsum(mp.exp(x) for x in logits)), cos[a][a + 1] / t, max(logits)))
        return terms


def exact_evaluation(rows, tau):
    """``evaluate_batch``'s outputs, keyed by their field names in its breakdown and report."""
    terms = exact_anchor_terms(rows, tau)
    with mp.workdps(DIGITS):
        t, n = mp.mpf(tau), len(terms)
        distribution = mp.fsum(lse for lse, _, _ in terms) / n
        alignment = -mp.fsum(pos for _, pos, _ in terms) / n
        total = distribution + alignment
        avg = -t * alignment
        paper = t * mp.log(2 * n) - t * total + 1
        strict = t * mp.log(2 * n - 1) - t * total + t * mp.fsum(top for _, _, top in terms) / n
        return {
            "total": total,
            "alignment": alignment,
            "distribution": distribution,
            "avg_pos_sim": avg,
            "paper_bound": paper,
            "strict_bound": strict,
            "paper_gap": paper - avg,
            "strict_gap": strict - avg,
        }
