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
* ``mixture_truth`` gives the cluster means and labels ``gen_synthetic``
  draws its points from: the stream's first ``standard_normal((clusters,
  dim))``, and ``p % clusters`` for point p.
* ``collapse`` and ``simplex`` build the two tightness witnesses, the
  batches at which the strict bound is exact: every row parallel, and 2N
  rows of pairwise cosine -1/(2N-1).

Exact references (60 digits, mpmath): ``exact_cosines``,
``exact_anchor_terms`` and ``exact_evaluation`` evaluate the cosines, the
per-anchor terms and every output of ``evaluate_batch`` from the float64
inputs taken as exact, and ``exact_latent_grad`` the loss's gradient with
respect to every latent entry, by a 60-digit central difference.
``exact_simplex`` is the simplex witness in 60-digit entries. They share
no code with ``src/``. mpmath comes with the ``test`` extra; without it they
are unavailable and their tests skip.
"""

import math

import numpy as np

from ntxbound import EmbeddingBatch, Mlp, forward, nt_xent, nt_xent_grad
from ntxbound.mlp import _init_params, _param_count

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


def mixture_truth(dim, params, seed):
    """The (clusters, dim) means and (points,) cluster labels of ``gen_synthetic(dim, params, seed)``."""
    means = np.random.default_rng(seed).standard_normal((params.clusters, dim))
    return means, np.arange(params.points) % params.clusters


def collapse(n_pairs, dim, rng):
    """The collapse witness: one drawn row repeated 2N times, so every cosine is 1."""
    return np.tile(rng.standard_normal(dim), (2 * n_pairs, 1))


def simplex(n_pairs, dim, rng):
    """The regular simplex witness: 2N rows of pairwise cosine -1/(2N-1), for ``dim`` >= 2N.

    They are the rows of I - 1/(2N), whose dot products are 1 - 1/(2N) on
    the diagonal and -1/(2N) off it, padded with zeros to ``dim`` columns and
    rotated by an orthogonal matrix drawn from ``rng``, so every entry is
    nonzero and the float64 cosines are -1/(2N-1) only to rounding.
    """
    rows = np.zeros((2 * n_pairs, dim))
    rows[:, : 2 * n_pairs] = np.eye(2 * n_pairs) - 1.0 / (2 * n_pairs)
    return rows @ np.linalg.qr(rng.standard_normal((dim, dim)))[0]


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
    """The cosine of every pair of rows, float64 or mpf entries, as a list of rows of mpf."""
    with mp.workdps(DIGITS):
        vecs = [[mp.mpf(x) for x in row] for row in rows]
        norms = [mp.sqrt(mp.fdot(v, v)) for v in vecs]
        return [[mp.fdot(a, b) / (na * nb) for b, nb in zip(vecs, norms)] for a, na in zip(vecs, norms)]


def exact_simplex(n_pairs):
    """The rows of I - 1/(2N) as lists of mpf: the simplex witness, unrotated, to 60 digits."""
    with mp.workdps(DIGITS):
        return [[int(i == k) - mp.mpf(1) / (2 * n_pairs) for k in range(2 * n_pairs)] for i in range(2 * n_pairs)]


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


def exact_latent_grad(rows, tau):
    """d(loss)/d(rows[i][j]) for every entry, as a list of rows of mpf: a central difference of the exact loss.

    The step is h = 1e-25 at 60 digits. The truncation error is about h**2
    times the loss's third derivative, ~1e-50 at unit scale (~1e-41 at tau
    1e-3), and the rounding about 10**-60 |loss| / h, ~1e-35: exact for float64
    purposes.
    """
    with mp.workdps(DIGITS):
        base, h = [[mp.mpf(float(x)) for x in row] for row in rows], mp.mpf("1e-25")

        def loss(i, j, delta):
            moved = [row[:] for row in base]
            moved[i][j] += delta
            terms = exact_anchor_terms(moved, tau)
            return mp.fsum(lse - pos for lse, pos, _ in terms) / len(terms)

        return [[(loss(i, j, h) - loss(i, j, -h)) / (2 * h) for j in range(len(row))] for i, row in enumerate(base)]
