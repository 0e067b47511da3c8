"""Analytic latent gradients against an independent central-difference oracle."""

import math

import numpy as np
import pytest

import ntxbound.bounds as bounds
from ntxbound import AnchorMode, EmbeddingBatch, LossConfig, nt_xent, nt_xent_grad
from ntxbound.cli import main
from ntxbound.errors import ZeroVectorError
from ntxbound.gradcheck import END_TO_END_TOL, _stack_losses, central_difference, end_to_end_check
from ntxbound.trainer import Mlp

FD_STEP = 1e-5


def fd_gradient(rows, cfg, step=FD_STEP):
    """Central differences of the loss w.r.t. every latent entry."""
    grad = np.zeros_like(rows)
    for i in range(rows.shape[0]):
        for j in range(rows.shape[1]):
            plus = rows.copy()
            plus[i, j] += step
            minus = rows.copy()
            minus[i, j] -= step
            grad[i, j] = (
                nt_xent(EmbeddingBatch(plus), cfg).total - nt_xent(EmbeddingBatch(minus), cfg).total
            ) / (2.0 * step)
    return grad


def assert_grads_close(analytic, numeric, rel_tol, floor=1e-8):
    """Per-entry: relative when either magnitude reaches the floor, absolute below it."""
    for a, n in zip(analytic.ravel(), numeric.ravel()):
        denom = max(abs(a), abs(n))
        if denom >= floor:
            assert abs(a - n) <= rel_tol * denom, f"analytic={a!r} numeric={n!r}"
        else:
            assert abs(a - n) <= floor


def unit_rms(x):
    return x / math.sqrt(float(np.mean(x * x)))


class TestGradientVsFiniteDifferences:
    def test_random_batches_paper_mode(self):
        rng = np.random.default_rng(808)
        for _ in range(20):
            n_pairs = int(rng.integers(1, 6))
            m = int(rng.integers(2, 9))
            rows = unit_rms(rng.standard_normal((2 * n_pairs, m)))
            cfg = LossConfig(tau=float(rng.uniform(0.2, 1.0)))
            assert_grads_close(nt_xent_grad(EmbeddingBatch(rows), cfg), fd_gradient(rows, cfg), rel_tol=1e-5)

    def test_random_batches_symmetric_mode(self):
        rng = np.random.default_rng(809)
        for _ in range(10):
            rows = unit_rms(rng.standard_normal((6, 4)))
            cfg = LossConfig(tau=0.5, anchor_mode=AnchorMode.SYMMETRIC_2N)
            assert_grads_close(nt_xent_grad(EmbeddingBatch(rows), cfg), fd_gradient(rows, cfg), rel_tol=1e-5)


class TestGradientOrthogonality:
    def test_gradient_orthogonal_to_each_latent(self):
        """Scale invariance per row forces <grad_i, z_i> = 0."""
        rng = np.random.default_rng(515)
        for mode in AnchorMode:
            for _ in range(50):
                rows = rng.standard_normal((8, 5)) * 10.0 ** rng.uniform(-2, 2)
                grad = nt_xent_grad(EmbeddingBatch(rows), LossConfig(tau=0.4, anchor_mode=mode))
                inner = np.abs(np.sum(grad * rows, axis=1))
                assert np.max(inner) <= 1e-8


class TestGradientUnderRescaling:
    def test_loss_invariant_and_gradient_inverse_scales(self):
        rng = np.random.default_rng(606)
        for _ in range(20):
            rows = unit_rms(rng.standard_normal((6, 4)))
            scales = 10.0 ** rng.uniform(-2, 2, size=(6, 1))
            cfg = LossConfig(tau=0.5)
            base_total = nt_xent(EmbeddingBatch(rows), cfg).total
            scaled_rows = rows * scales
            assert nt_xent(EmbeddingBatch(scaled_rows), cfg).total == pytest.approx(base_total, abs=1e-9)

            grad_base = nt_xent_grad(EmbeddingBatch(rows), cfg)
            grad_scaled = nt_xent_grad(EmbeddingBatch(scaled_rows), cfg)
            # degree-0 homogeneity per row: grad(D z) = grad(z) / D
            np.testing.assert_allclose(grad_scaled, grad_base / scales, rtol=1e-11, atol=1e-14)
            # and the scaled-batch gradient still matches finite differences
            assert_grads_close(grad_scaled, fd_gradient(scaled_rows, cfg), rel_tol=1e-5)

    def test_gradient_shape_and_finiteness(self):
        rng = np.random.default_rng(9)
        rows = rng.standard_normal((10, 7))
        grad = nt_xent_grad(EmbeddingBatch(rows), LossConfig(tau=0.3))
        assert grad.shape == rows.shape
        assert np.all(np.isfinite(grad))


class TestEndToEndCheck:
    @pytest.mark.parametrize("seed", [0, 3])
    def test_no_vacuous_trials(self, seed):
        """A dead hidden layer zeroes every gradient, so a trial would read error 0; such draws are redrawn."""
        trials = end_to_end_check(20, seed=seed)
        assert all(t.worst_rel_err != 0.0 for t in trials)
        assert max(t.worst_rel_err for t in trials) <= END_TO_END_TOL


class TestStackedCentralDifference:
    @pytest.mark.parametrize("chunk", [1, 5, 24])
    def test_quadratic_gradient_is_exact(self, chunk):
        """Central differences are exact on a quadratic, whatever the stack size (24 is one stack)."""
        rng = np.random.default_rng(31)
        a = rng.standard_normal((12, 12))
        b = rng.standard_normal(12)
        x = rng.standard_normal((3, 4))

        def f(stack):
            flat = stack.reshape(len(stack), -1)
            return np.einsum("ki,ij,kj->k", flat, a, flat) + flat @ b

        expected = ((a + a.T) @ x.ravel() + b).reshape(x.shape)
        np.testing.assert_allclose(central_difference(f, x, chunk=chunk), expected, rtol=0, atol=1e-9)

    @pytest.mark.parametrize("mode", list(AnchorMode))
    def test_nt_xent_matches_per_entry_loop(self, mode):
        rng = np.random.default_rng(32)
        for chunk in (48, 3):
            rows = unit_rms(rng.standard_normal((6, 4)))
            cfg = LossConfig(tau=0.4, anchor_mode=mode)
            numeric = central_difference(lambda stack: _stack_losses(stack, cfg), rows, chunk=chunk)
            np.testing.assert_allclose(numeric, fd_gradient(rows, cfg), rtol=0, atol=1e-12)

    def test_probes_are_refused_like_a_batch(self):
        cfg = LossConfig(tau=0.5)
        stack = np.ones((3, 4, 2))
        stack[1, 2, 0] = np.nan
        with pytest.raises(ValueError, match="batch entries must be finite"):
            _stack_losses(stack, cfg)
        stack[1, 2] = 0.0
        with pytest.raises(ZeroVectorError):
            _stack_losses(stack, cfg)

    def test_stacked_mlp_forward_matches_each_slice(self):
        rng = np.random.default_rng(33)
        dims = (3, 5, 4)
        x = rng.standard_normal((6, 3))
        nets = [Mlp.init(dims, rng) for _ in range(4)]
        trace = Mlp(dims, np.stack([n.params for n in nets])).forward_trace(x)
        for k, net in enumerate(nets):
            single = net.forward_trace(x)
            for got, want in zip(trace.pre + trace.act[1:], single.pre + single.act[1:]):
                np.testing.assert_allclose(got[k], want, rtol=0, atol=1e-14)

    @pytest.mark.parametrize("seed", ["2", "35"])
    def test_small_chunks_do_not_change_printout(self, seed, capsys, monkeypatch):
        """A budget that splits every trial's probes into many stacks prints the same bytes."""
        argv = ["gradcheck", "--trials", "20", "--seed", seed]
        rc_default = main(argv)
        default = capsys.readouterr().out
        monkeypatch.setattr(bounds, "CHUNK_BYTES", 700)
        assert bounds._stack_size(4, 8) == 1  # loss level: one probe per stack
        assert bounds._stack_size(2, 2) == 3  # end to end: three probes per stack
        assert main(argv) == rc_default == 1
        assert capsys.readouterr().out == default
