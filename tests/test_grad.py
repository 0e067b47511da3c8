"""Analytic latent gradients against an independent central-difference oracle."""

import collections
import math

import numpy as np
import pytest

import ntxbound.bounds as bounds
import ntxbound.gradcheck as gradcheck
from ntxbound import AnchorMode, EmbeddingBatch, LossConfig, forward, nt_xent, nt_xent_grad
from ntxbound.cli import main
from ntxbound.errors import ConfigError, ZeroVectorError
from ntxbound.gradcheck import (
    DEAD_RELU_REDRAWS,
    END_TO_END_TOL,
    _stack_losses,
    central_difference,
    end_to_end_check,
    loss_level_check,
    worst_error,
)
from ntxbound.trainer import Mlp, TrainConfig, _backprop, _forward_pass, _step_bytes
from oracle import init_net, latent_fd, unit_rms, worst_rel_error


class TestGradientVsFiniteDifferences:
    def test_random_batches_paper_mode(self):
        rng = np.random.default_rng(808)
        for _ in range(20):
            n_pairs = int(rng.integers(1, 6))
            m = int(rng.integers(2, 9))
            rows = unit_rms(rng.standard_normal((2 * n_pairs, m)))
            cfg = LossConfig(tau=float(rng.uniform(0.2, 1.0)))
            assert worst_rel_error(nt_xent_grad(EmbeddingBatch(rows), cfg), latent_fd(rows, cfg))[0] <= 1e-5

    def test_random_batches_symmetric_mode(self):
        rng = np.random.default_rng(809)
        for _ in range(10):
            rows = unit_rms(rng.standard_normal((6, 4)))
            cfg = LossConfig(tau=0.5, anchor_mode=AnchorMode.SYMMETRIC_2N)
            assert worst_rel_error(nt_xent_grad(EmbeddingBatch(rows), cfg), latent_fd(rows, cfg))[0] <= 1e-5


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
            assert worst_rel_error(grad_scaled, latent_fd(scaled_rows, cfg))[0] <= 1e-5

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


class TestCountsAreChecked:
    """Trial, pair and dimension counts below 1 are refused by the library, before any draw."""

    @pytest.mark.parametrize(
        "kwargs",
        [{"trials": -2}, {"trials": 0}, {"trials": 3, "n_pairs": -1}, {"trials": 3, "n_pairs": 0}, {"trials": 3, "dim": 0}],
    )
    def test_loss_level(self, kwargs):
        with pytest.raises(ConfigError, match="must be >= 1"):
            loss_level_check(**kwargs)

    @pytest.mark.parametrize("trials", [-2, 0])
    def test_end_to_end(self, trials):
        with pytest.raises(ConfigError, match="trials must be >= 1"):
            end_to_end_check(trials)


class TestSeedIsChecked:
    """A seed that is not a u64 is refused by either level as the CLI refuses it, as ConfigError, before any draw."""

    @pytest.fixture(autouse=True)
    def no_draws(self, monkeypatch):
        def drawn(*args):
            raise AssertionError("a stream was drawn from")

        monkeypatch.setattr(gradcheck, "_stream", drawn)

    @pytest.mark.parametrize("seed", [-1, 2**64])
    def test_loss_level(self, seed):
        with pytest.raises(ConfigError, match="u64"):
            loss_level_check(1, seed=seed)

    @pytest.mark.parametrize("seed", [-1, 2**64])
    def test_end_to_end(self, seed):
        with pytest.raises(ConfigError, match="u64"):
            end_to_end_check(1, seed=seed)


class TestStackedCentralDifference:
    @pytest.mark.parametrize("chunk", [1, 5, 24])
    def test_quadratic_gradient_is_exact(self, chunk):
        """Central differences are exact on a quadratic, whatever the stack size (24 is one stack)."""
        rng = np.random.default_rng(31)
        a = rng.standard_normal((12, 12))
        b = rng.standard_normal(12)
        x = rng.standard_normal((3, 4))

        def f(probes):
            flat = probes[0].reshape(len(probes[0]), -1)
            return np.einsum("ki,ij,kj->k", flat, a, flat) + flat @ b

        expected = ((a + a.T) @ x.ravel() + b).reshape(x.shape)
        np.testing.assert_allclose(central_difference(f, x[None], chunk=chunk)[0], expected, rtol=0, atol=1e-9)

    @pytest.mark.parametrize("mode", list(AnchorMode))
    def test_nt_xent_matches_per_entry_loop(self, mode):
        rng = np.random.default_rng(32)
        for chunk in (48, 3):
            rows = unit_rms(rng.standard_normal((6, 4)))
            cfg = LossConfig(tau=0.4, anchor_mode=mode)
            numeric = central_difference(lambda probes: _stack_losses(probes[0], cfg), rows[None], chunk=chunk)[0]
            np.testing.assert_allclose(numeric, latent_fd(rows, cfg), rtol=0, atol=1e-12)

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
        blocks = ((3, 5, 4),)
        x = rng.standard_normal((6, 3))
        nets = [init_net(blocks, rng) for _ in range(4)]
        trace = forward(Mlp(blocks, np.stack([n.params for n in nets])), x)
        for k, net in enumerate(nets):
            single = forward(net, x)
            for got, want in zip(trace.pre + trace.act[1:], single.pre + single.act[1:]):
                np.testing.assert_allclose(got[k], want, rtol=0, atol=1e-14)

    @pytest.mark.parametrize("seed", ["2", "97"])
    def test_small_chunks_do_not_change_printout(self, seed, capsys, monkeypatch, gradcheck_chunks):
        """A budget that splits every trial's probes into many stacks prints the same bytes.

        Both seeds FAIL on rounding noise: seed 2 at the end-to-end level, seed 97 at the loss level.
        """
        argv = ["gradcheck", "--trials", "20", "--seed", seed]
        rc_default = main(argv)
        default = capsys.readouterr().out
        gradcheck_chunks.clear()
        monkeypatch.setattr(bounds, "CHUNK_BYTES", 700)
        assert main(argv) == rc_default == 1
        assert capsys.readouterr().out == default
        assert set(gradcheck_chunks) == {(1, 1)}  # both levels: one trial per group, one probe per stack

    @pytest.mark.parametrize("chunk", [1, 7, 20, 30, 60, 100])
    def test_each_probe_moves_its_point_at_its_entry(self, chunk):
        """A probe differs from its point only at its entry: +FD_STEP in a stack's first call, -FD_STEP in its second.

        Points have 20 entries, so stacks of 7 and 30 end inside a point, and stacks of 30, 60 and 100 span points.
        """
        rng = np.random.default_rng(37)
        points = rng.standard_normal((3, 4, 5))
        flat = points.reshape(3, -1)
        calls = []

        def f(probes):
            rows, point, entry = probes
            calls.append((rows.reshape(len(rows), -1).copy(), point.copy(), entry.copy()))
            return np.zeros(len(rows))

        central_difference(f, points, chunk=chunk)
        pairs = []
        for (plus, point, entry), (minus, point_minus, entry_minus) in zip(calls[::2], calls[1::2]):
            np.testing.assert_array_equal(point, point_minus)
            np.testing.assert_array_equal(entry, entry_minus)
            k = np.arange(len(point))
            for rows, step in ((plus, gradcheck.FD_STEP), (minus, -gradcheck.FD_STEP)):
                np.testing.assert_array_equal(rows[k, entry], flat[point, entry] + step)
                rows[k, entry] = flat[point, entry]
                np.testing.assert_array_equal(rows, flat[point])
            pairs += zip(point.tolist(), entry.tolist())
        assert len(calls) == 2 * math.ceil(60 / chunk)
        assert pairs == [(t, j) for t in range(3) for j in range(20)]

    @pytest.mark.parametrize("points", [1, 3])
    @pytest.mark.parametrize("chunk", [1, 5, 24, 100])
    def test_stacked_points_match_each_point(self, points, chunk):
        """Stacks that end inside a point's probes, or hold several points, give each point's own differences."""
        rng = np.random.default_rng(34)
        a = rng.standard_normal((12, 12))
        xs = rng.standard_normal((points, 3, 4))

        def f(probes):
            flat = probes[0].reshape(len(probes[0]), -1)
            return np.einsum("ki,ij,kj->k", flat, a, flat)

        stacked = central_difference(f, xs, chunk=chunk)
        for x, got in zip(xs, stacked):
            np.testing.assert_array_equal(got, central_difference(f, x[None], chunk=24)[0])


def _records(trials):
    return [(t.trial, t.worst_rel_err, t.worst_index, t.orthogonality) for t in trials]


#: Probes per stack of the one-trial references, which split a loss-level trial's 128 probes in two.
REFERENCE_CHUNK = 100


def reference_loss_level(trials, seed, n_pairs=4, dim=8, tau=0.5):
    """One trial at a time: its own draw, analytic pass and probe stacks."""
    rng = bounds._stream(seed, 0)
    cfg = LossConfig(tau=tau)
    records = []
    for trial in range(trials):
        rows = unit_rms(rng.standard_normal((2 * n_pairs, dim)))
        analytic = nt_xent_grad(EmbeddingBatch(rows), cfg)
        ortho = float(np.max(np.abs(np.sum(analytic * rows, axis=1))))
        numeric = central_difference(lambda probes: _stack_losses(probes[0], cfg), rows[None], chunk=REFERENCE_CHUNK)[0]
        records.append((trial, *worst_error(analytic, numeric), ortho))
    return records


#: The end-to-end network's layout as a training config, written out apart from gradcheck's constants.
TINY = TrainConfig(n_pairs=2, input_dim=2, encoder_dims=(2, 2), projector_dims=(2, 2), tau=0.5, steps=1)


def test_reference_layout_is_the_end_to_end_network():
    assert (TINY.blocks, TINY.n_pairs, TINY.tau) == (gradcheck.NET_BLOCKS, gradcheck.NET_N_PAIRS, gradcheck.NET_TAU)


def test_a_trials_analytic_step_holds_less_than_its_probes():
    """An end-to-end trial is counted by its probing bytes alone, since one training step of its network holds less."""
    assert _step_bytes(TINY) < gradcheck._NET_TRIAL_BYTES


def reference_draw(cfg, seed, trial):
    """One end-to-end trial drawn alone: its model, views, analytic pass and the redraw k they came from.

    The analytic pass is the forward and its latent and parameter gradients. k is None when the trial is
    still dead after every redraw.
    """
    for k in range(DEAD_RELU_REDRAWS + 1):
        rng = bounds._stream(seed, 1, trial) if k == 0 else bounds._stream(seed, 1, trial, k)
        model = init_net(cfg.blocks, rng)
        views = unit_rms(rng.standard_normal((2 * cfg.n_pairs, cfg.input_dim)))
        trace, p, _ = _forward_pass(model, views, cfg)
        latent_grad, param_grad = _backprop(model, trace, p)
        if all(np.any(pre > 0) for pre, relu in zip(trace.pre, model.relu) if relu):
            return model, views, (trace, latent_grad, param_grad), k
    return model, views, (trace, latent_grad, param_grad), None


def reference_end_to_end(trials, seed):
    """One model at a time, with its probes on its own views; returns the records and the redrawn trials."""
    cfg = TINY
    cfg_loss = LossConfig(tau=cfg.tau)
    records, redrawn = [], []
    for trial in range(trials):
        model, views, (trace, latent_grad, param_grad), k = reference_draw(cfg, seed, trial)
        if k != 0:
            redrawn.append(trial)
        if k is None:
            records.append((trial, math.inf, (0,), 0.0))
            continue
        ortho = float(np.max(np.abs(np.sum(latent_grad * EmbeddingBatch(trace.act[-1]).rows, axis=1))))

        def loss_at(probes, model=model, views=views):
            return _stack_losses(forward(Mlp(model.blocks, probes[0]), views).act[-1], cfg_loss)

        numeric = central_difference(loss_at, model.params[None], chunk=REFERENCE_CHUNK)[0]
        records.append((trial, *worst_error(param_grad, numeric), ortho))
    return records, redrawn


class TestStackedTrials:
    """Both levels, stacked across trials, against the one-trial-at-a-time algorithm, bit for bit."""

    @pytest.mark.parametrize("seed", [0, 3, 17, 35])
    def test_loss_level_matches_per_trial_loop(self, seed):
        assert _records(loss_level_check(20, seed=seed)) == reference_loss_level(20, seed)

    def test_loss_level_other_shape(self):
        got = loss_level_check(7, n_pairs=3, dim=5, tau=0.2, seed=11)
        assert _records(got) == reference_loss_level(7, 11, n_pairs=3, dim=5, tau=0.2)

    @pytest.mark.parametrize("seed", [0, 3, 17, 35])
    def test_end_to_end_matches_per_trial_loop(self, seed):
        want, redrawn = reference_end_to_end(20, seed)
        assert bool(redrawn) == (seed != 35)  # seeds 0, 3 and 17 exercise the dead-ReLU redraws
        assert _records(end_to_end_check(20, seed=seed)) == want

    def test_trial_dead_after_every_redraw_fails(self, monkeypatch):
        want, redrawn = reference_end_to_end(20, 0)
        monkeypatch.setattr(gradcheck, "DEAD_RELU_REDRAWS", 0)
        got = _records(end_to_end_check(20, seed=0))
        assert redrawn and [got[t] for t in redrawn] == [(t, math.inf, (0,), 0.0) for t in redrawn]
        assert [g for g in got if g[0] not in redrawn] == [w for w in want if w[0] not in redrawn]

    @pytest.mark.parametrize("budget", [2 * 2560 * 200, 2 * 2560 * 6])
    @pytest.mark.parametrize("seed", ["3", "35"])
    def test_stacks_across_trials_do_not_change_printout(self, budget, seed, capsys, monkeypatch, gradcheck_chunks):
        """Stacks that end inside one trial's probes and hold the next trial's first ones print the same bytes.

        At 245 (point, entry) pairs a stack of the loss level (64 per trial) and at 484 one of the end-to-end
        level (24 per trial) straddles trials; at 7 and 14 the 20 trials also fall into several groups.
        """
        argv = ["gradcheck", "--trials", "20", "--seed", seed]
        rc_default = main(argv)
        default = capsys.readouterr().out
        gradcheck_chunks.clear()
        monkeypatch.setattr(bounds, "CHUNK_BYTES", budget)
        assert main(argv) == rc_default
        assert capsys.readouterr().out == default
        # Loss level, then end to end: neither stack size divides its level's pairs per trial.
        assert {chunk for _, chunk in gradcheck_chunks} in ({245, 484}, {7, 14})


class TestGroupDraws:
    @pytest.mark.parametrize("seed", [0, 3])
    def test_stacked_draws_equal_per_trial_draws(self, seed, monkeypatch):
        """The group's parameters and views, redraws included, are each trial's own draws bit for bit."""
        stacks = []
        real = gradcheck._backprop

        def spy(model, trace, p):
            stacks.append((model.params.copy(), trace.act[0].copy()))
            return real(model, trace, p)

        monkeypatch.setattr(gradcheck, "_backprop", spy)
        end_to_end_check(20, seed=seed)
        ((params, views),) = stacks
        cfg = TINY
        ks = []
        for trial in range(20):
            model, want_views, _, k = reference_draw(cfg, seed, trial)
            np.testing.assert_array_equal(params[trial], model.params)
            np.testing.assert_array_equal(views[trial], want_views)
            ks.append(k)
        assert max(ks) >= 1  # some trial's draws come from a redraw key (1, t, k)


def awkward_gradients(shape):
    """Seven trials' gradients of one shape, each with entries that test one rule of the error pass."""
    rng = np.random.default_rng(41)
    a = rng.standard_normal((7, *shape))
    n = a * (1.0 + 1e-7 * rng.standard_normal(a.shape))
    flat_a, flat_n = a.reshape(7, -1), n.reshape(7, -1)
    flat_n[0] = flat_a[0]  # every error 0: a tie over all entries
    flat_a[1, [2, 5]], flat_n[1, [2, 5]] = 1.0, 1.5  # two entries tie for the worst
    flat_a[2, 3], flat_n[2, 3] = 4e-9, -5e-9  # both under the floor, difference 9e-9: error 0
    flat_a[3, 1], flat_n[3, 1] = 6e-9, -5e-9  # both under the floor, difference 1.1e-8: error inf
    flat_n[4, 4] = np.nan
    flat_a[5, 2] = np.inf  # inf / inf: nan
    flat_a[6, [1, 3]], flat_n[6, [1, 3]] = np.inf, [np.inf, -np.inf]  # inf - inf: nan, then inf
    return a, n


class TestGroupErrorPass:
    @pytest.mark.parametrize("shape", [(6, 4), (24,)])
    def test_matches_per_trial_oracle(self, shape):
        a, n = awkward_gradients(shape)
        with np.errstate(invalid="ignore"):
            want = [worst_rel_error(x, y, gradcheck.ABS_FLOOR) for x, y in zip(a, n)]
            err, index = gradcheck._worst_errors(a, n)
            singles = [worst_error(x, y) for x, y in zip(a, n)]
        np.testing.assert_array_equal(err, [w[0] for w in want])
        np.testing.assert_array_equal([s[0] for s in singles], [w[0] for w in want])
        assert index == [s[1] for s in singles] == [w[1] for w in want]
        at = [tuple(np.unravel_index(j, shape)) for j in range(5)]
        assert (err[0], index[0]) == (0.0, at[0]) and (err[1], index[1]) == (0.5 / 1.5, at[2])  # first of a tie
        assert err[2] < 1e-6 and (err[3], index[3]) == (np.inf, at[1])  # under the floor
        assert (err[4], index[4]) == (np.inf, at[4])  # a nan numeric fails hard
        assert math.isnan(err[5]) and index[5] == at[2] and math.isnan(err[6]) and index[6] == at[1]
        with np.errstate(invalid="ignore"):
            records = gradcheck._trial_records(3, a, n, np.zeros(7))
        assert [r.trial for r in records] == list(range(3, 10)) and [r.worst_index for r in records] == index
        assert all(type(i) is int for r in records for i in r.worst_index)
        assert all(type(r.worst_rel_err) is float and type(r.orthogonality) is float for r in records)


class CountingGenerator:
    """A generator that counts its method calls by name into ``calls``."""

    def __init__(self, rng, calls):
        self._rng, self._calls = rng, calls

    def __getattr__(self, name):
        method = getattr(self._rng, name)

        def counted(*args, **kwargs):
            self._calls[name] += 1
            return method(*args, **kwargs)

        return counted


class TestNoPerTrialWork:
    """Draws, analytic passes and error passes are counted per model and per group, so per-trial work shows."""

    @pytest.mark.parametrize(("budget", "groups"), [(bounds.CHUNK_BYTES, (1, 1)), (2 * 2560 * 6, (3, 2))])
    def test_gradcheck_counts(self, budget, groups, capsys, monkeypatch):
        """Groups of 251 and 496 trials hold all 20 at the stock budget; at the small one, groups of 7 and 14."""
        calls, keys, passes = collections.Counter(), [], collections.Counter()

        def stream(seed, *key):
            keys.append(key)
            return CountingGenerator(bounds._stream(seed, *key), calls)

        def counting(name):
            real = getattr(gradcheck, name)

            def spy(*args):
                passes[name] += 1
                return real(*args)

            monkeypatch.setattr(gradcheck, name, spy)

        monkeypatch.setattr(gradcheck, "_stream", stream)
        for name in ("_backprop", "_worst_errors", "worst_error"):
            counting(name)
        monkeypatch.setattr(bounds, "CHUNK_BYTES", budget)
        assert main(["gradcheck", "--trials", "20", "--seed", "0"]) == 0
        capsys.readouterr()
        redraws = [key for key in keys if len(key) == 3]
        assert len(redraws) == 2  # seed 0 redraws two trials once each
        assert calls["uniform"] == 0 and calls["random"] == 20 + len(redraws)
        # Loss-level and end-to-end groups: one error pass per group of each, and one backward per end-to-end group.
        assert passes == {"_backprop": groups[1], "_worst_errors": sum(groups)}


class TestStackedBackward:
    def test_stacked_backward_equals_each_model(self):
        rng = np.random.default_rng(36)
        blocks = ((3, 5, 4, 2),)
        nets = [init_net(blocks, rng) for _ in range(4)]
        x = rng.standard_normal((4, 6, 3))
        grad_out = rng.standard_normal((4, 6, 2))
        stack = Mlp(blocks, np.stack([n.params for n in nets]))
        grad = stack.backward(forward(stack, x), grad_out)
        assert grad.shape == (4, stack.params.shape[-1])
        for k, net in enumerate(nets):
            np.testing.assert_array_equal(grad[k], net.backward(forward(net, x[k]), grad_out[k]))
