"""Synthetic data, augmentation, MLP forward/backward, and the training loop."""

import copy
import math
import tracemalloc

import numpy as np
import pytest

from ntxbound import (
    AugmentConfig,
    DatasetParams,
    DimensionMismatchError,
    EmbeddingBatch,
    InvalidDatasetParamsError,
    LossConfig,
    Mlp,
    NonFiniteLossError,
    SimclrModel,
    TrainConfig,
    augment,
    forward,
    gen_synthetic,
    nt_xent,
    similarity_matrix,
    train,
    train_step,
)
from ntxbound import bounds
from ntxbound.trainer import COLLAPSE_TOL, _augment_batch, loss_and_param_grads


def make_rng(seed):
    return np.random.Generator(np.random.PCG64(seed))


class TestGenSynthetic:
    def test_tiny_spread_concentrates(self):
        params = DatasetParams(clusters=1, spread=1e-4, points=10)
        ds = gen_synthetic(6, params, seed=0)
        deviations = np.linalg.norm(ds.points - ds.means[0], axis=1)
        assert np.max(deviations) < 10 * params.spread * math.sqrt(6)

    def test_same_seed_identical(self):
        params = DatasetParams(clusters=3, spread=0.5, points=64)
        a = gen_synthetic(4, params, seed=9)
        b = gen_synthetic(4, params, seed=9)
        np.testing.assert_array_equal(a.points, b.points)
        np.testing.assert_array_equal(a.means, b.means)

    def test_cluster_means_recovered(self):
        """Law of large numbers: empirical cluster means approach the truth."""
        dim, params = 5, DatasetParams(clusters=4, spread=0.2, points=1000)
        ds = gen_synthetic(dim, params, seed=3)
        for c in range(params.clusters):
            member = ds.points[ds.labels == c]
            err = np.linalg.norm(member.mean(axis=0) - ds.means[c])
            assert err < 3 * params.spread / math.sqrt(len(member)) * math.sqrt(dim)

    def test_bad_params_rejected(self):
        with pytest.raises(InvalidDatasetParamsError):
            DatasetParams(clusters=0, spread=0.1, points=10)
        with pytest.raises(InvalidDatasetParamsError):
            DatasetParams(clusters=1, spread=0.0, points=10)
        with pytest.raises(InvalidDatasetParamsError):
            DatasetParams(clusters=1, spread=0.1, points=0)


class TestAugment:
    def test_identity_augmentation(self):
        x = np.array([1.0, -2.0, 3.0])
        vi, vj = augment(x, AugmentConfig(noise_sigma=0.0, dropout_prob=0.0), make_rng(0))
        np.testing.assert_array_equal(vi, x)
        np.testing.assert_array_equal(vj, x)

    def test_noise_standard_deviation(self):
        """Per-coordinate std of view - x approaches sigma over many draws."""
        sigma, x = 0.37, np.zeros(4)
        cfg = AugmentConfig(noise_sigma=sigma, dropout_prob=0.0)
        rng = make_rng(1)
        draws = np.array([np.concatenate(augment(x, cfg, rng)) for _ in range(10_000)])
        np.testing.assert_allclose(draws.std(axis=0), sigma, rtol=0.05)

    def test_dropout_zeroes_at_given_rate(self):
        cfg = AugmentConfig(noise_sigma=0.0, dropout_prob=0.25)
        rng = make_rng(2)
        x = np.ones(8)
        draws = np.array([np.concatenate(augment(x, cfg, rng)) for _ in range(5000)])
        assert np.mean(draws == 0.0) == pytest.approx(0.25, abs=0.01)

    def test_reproducible_with_fixed_seed(self):
        cfg = AugmentConfig(noise_sigma=0.5, dropout_prob=0.3)
        x = np.arange(5.0)
        a = augment(x, cfg, make_rng(42))
        b = augment(x, cfg, make_rng(42))
        np.testing.assert_array_equal(a[0], b[0])
        np.testing.assert_array_equal(a[1], b[1])

    def test_views_differ_in_general(self):
        vi, vj = augment(np.ones(16), AugmentConfig(noise_sigma=1.0, dropout_prob=0.0), make_rng(3))
        assert not np.array_equal(vi, vj)

    def test_augment_is_the_one_point_batch(self):
        cfg = AugmentConfig(noise_sigma=0.3, dropout_prob=0.2)
        x = np.arange(6.0)
        vi, vj = augment(x, cfg, make_rng(8))
        views = _augment_batch(x[None], cfg, make_rng(8))
        np.testing.assert_array_equal(vi, views[0])
        np.testing.assert_array_equal(vj, views[1])

    def test_identity_batch_repeats_each_point(self):
        points = make_rng(0).standard_normal((5, 3))
        views = _augment_batch(points, AugmentConfig(noise_sigma=0.0, dropout_prob=0.0), make_rng(1))
        assert views.shape == (10, 3)
        for t in range(5):
            np.testing.assert_array_equal(views[2 * t], points[t])
            np.testing.assert_array_equal(views[2 * t + 1], points[t])

    def test_draw_order_is_all_noise_then_all_masks(self):
        """One normal((2N, d)) draw, then one random((2N, d)) draw, replayed on a twin generator."""
        cfg = AugmentConfig(noise_sigma=0.2, dropout_prob=0.3)
        points = make_rng(0).standard_normal((4, 3))
        rng, twin = make_rng(9), make_rng(9)
        views = _augment_batch(points, cfg, rng)
        noise = twin.normal(0.0, cfg.noise_sigma, size=(8, 3))
        mask = twin.random((8, 3)) < cfg.dropout_prob
        np.testing.assert_array_equal(views, np.where(mask, 0.0, np.repeat(points, 2, axis=0) + noise))
        assert rng.bit_generator.state == twin.bit_generator.state

    def test_batch_noise_and_dropout_rates(self):
        sigma = 0.37
        views = _augment_batch(np.zeros((5000, 4)), AugmentConfig(noise_sigma=sigma, dropout_prob=0.0), make_rng(4))
        np.testing.assert_allclose(views.std(axis=0), sigma, rtol=0.05)
        views = _augment_batch(np.ones((2500, 8)), AugmentConfig(noise_sigma=0.0, dropout_prob=0.25), make_rng(5))
        assert np.mean(views == 0.0) == pytest.approx(0.25, abs=0.01)

    def test_config_validation(self):
        with pytest.raises(InvalidDatasetParamsError):
            AugmentConfig(noise_sigma=-0.1)
        with pytest.raises(InvalidDatasetParamsError):
            AugmentConfig(dropout_prob=1.0)


class TestMlpForward:
    def test_identity_network_passes_views_through(self):
        eye, proj = Mlp((3, 3), np.zeros(12)), Mlp((3, 3), np.zeros(12))
        eye.weights[0][...] = np.eye(3)
        proj.weights[0][...] = np.eye(3)
        views = np.array([[1.0, 2.0, 3.0], [4.0, 5.0, 6.0]])
        out = forward(eye, proj, views)
        np.testing.assert_array_equal(out.batch.rows, views)
        np.testing.assert_array_equal(out.encoder_trace.act[-1], views)

    def test_zero_weight_projector_constant_output(self):
        """Constant latents: every cosine similarity is 1, loss hits log(2N-1)."""
        enc, proj = Mlp((2, 2), np.zeros(6)), Mlp((2, 3), np.zeros(9))
        enc.weights[0][...] = np.eye(2)
        proj.biases[0][...] = [0.5, -1.0, 2.0]
        views = make_rng(0).standard_normal((8, 2))
        out = forward(enc, proj, views)
        np.testing.assert_array_equal(out.batch.rows, np.tile([0.5, -1.0, 2.0], (8, 1)))
        total = nt_xent(out.batch, LossConfig(tau=0.5)).total
        assert total == pytest.approx(math.log(7), abs=1e-12)

    def test_matches_scalar_loop_oracle(self):
        """Independent per-layer forward pass written with plain loops."""
        rng = make_rng(7)
        enc = Mlp.init((3, 4, 2), rng)
        proj = Mlp.init((2, 5, 3), rng)
        views = rng.standard_normal((4, 3))

        def mlp_oracle(mlp, xs):
            outs = []
            for x in xs:
                h = list(x)
                for l, (w, b) in enumerate(zip(mlp.weights, mlp.biases)):
                    nxt = []
                    for j in range(w.shape[1]):
                        acc = b[0, j]
                        for i in range(w.shape[0]):
                            acc += h[i] * w[i, j]
                        if l < len(mlp.weights) - 1:
                            acc = acc if acc > 0 else 0.0
                        nxt.append(acc)
                    h = nxt
                outs.append(h)
            return np.array(outs)

        out = forward(enc, proj, views)
        np.testing.assert_allclose(out.encoder_trace.act[-1], mlp_oracle(enc, views), rtol=1e-12, atol=1e-14)
        np.testing.assert_allclose(out.batch.rows, mlp_oracle(proj, mlp_oracle(enc, views)), rtol=1e-12, atol=1e-14)

    def test_hidden_layers_nonnegative(self):
        rng = make_rng(12)
        mlp = Mlp.init((4, 8, 8, 2), rng)
        trace = mlp.forward_trace(rng.standard_normal((10, 4)))
        for act in trace.act[1:-1]:
            assert np.all(act >= 0.0)

    def test_init_parameter_range(self):
        mlp = Mlp.init((9, 5), make_rng(0))
        bound = 1.0 / 3.0
        assert np.all(np.abs(mlp.weights[0]) <= bound)
        assert np.all(np.abs(mlp.biases[0]) <= bound)


class TestParameterLayout:
    def test_init_is_uniform_draws_in_layout_order(self):
        """Per network, per layer: the weights row-major, then the biases, drawn in that order."""
        cfg = TrainConfig(input_dim=3, encoder_dims=(4, 2), projector_dims=(5, 3))
        rng, twin = make_rng(21), make_rng(21)
        model = SimclrModel.init(cfg, rng)
        expected = []
        for dims in ((3, 4, 2), (2, 5, 3)):
            for fan_in, fan_out in zip(dims[:-1], dims[1:]):
                bound = 1.0 / math.sqrt(fan_in)
                expected.append(twin.uniform(-bound, bound, size=(fan_in, fan_out)).ravel())
                expected.append(twin.uniform(-0.1 * bound, 0.1 * bound, size=fan_out))
        np.testing.assert_array_equal(model.params, np.concatenate(expected))
        assert rng.bit_generator.state == twin.bit_generator.state
        assert model.encoder_dims == (3, 4, 2) and model.projector_dims == (2, 5, 3)

    def test_weights_and_biases_are_views_of_params(self):
        mlp = Mlp((3, 2, 4), np.zeros(3 * 2 + 2 + 2 * 4 + 4))
        mlp.weights[0][1, 0] = 1.0
        mlp.biases[0][0, 1] = 2.0
        mlp.weights[1][0, 3] = 3.0
        mlp.biases[1][0, 2] = 4.0
        assert [mlp.weights[0].shape, mlp.biases[0].shape] == [(3, 2), (1, 2)]
        assert np.flatnonzero(mlp.params).tolist() == [2, 7, 11, 18]
        assert mlp.params[[2, 7, 11, 18]].tolist() == [1.0, 2.0, 3.0, 4.0]

    def test_assigning_a_layer_raises(self):
        mlp = Mlp.init((3, 2), make_rng(0))
        with pytest.raises(TypeError):
            mlp.weights[0] = np.zeros((3, 2))
        with pytest.raises(TypeError):
            mlp.biases[0] = np.zeros((1, 2))

    def test_wrong_parameter_count_is_refused(self):
        with pytest.raises(DimensionMismatchError):
            Mlp((3, 2), np.zeros(7))
        with pytest.raises(DimensionMismatchError):
            SimclrModel((3, 2), (2, 2), np.zeros(13)).projector

    def test_deepcopy_stays_independent(self):
        model = SimclrModel.init(tiny_config(), make_rng(3))
        twin = copy.deepcopy(model)
        snapshot = model.params.copy()
        model.params -= 1.0
        np.testing.assert_array_equal(twin.params, snapshot)
        twin.encoder.weights[0][...] = 5.0
        np.testing.assert_array_equal(model.params, snapshot - 1.0)
        assert np.shares_memory(twin.projector.biases[-1], twin.params)

    def test_models_compare_by_identity(self):
        """Array fields make value equality ambiguous, so models and networks compare as objects."""
        model = SimclrModel.init(tiny_config(), make_rng(3))
        twin = copy.deepcopy(model)
        assert (model == model) is True
        assert (model == twin) is False and (model != twin) is True
        net = model.projector
        assert (net == net) is True
        assert (net == copy.deepcopy(net)) is False

    def test_stacked_model_is_one_model_per_row(self):
        cfg = tiny_config()
        models = [SimclrModel.init(cfg, make_rng(s)) for s in range(3)]
        stacked = SimclrModel(models[0].encoder_dims, models[0].projector_dims, np.stack([m.params for m in models]))
        views = make_rng(9).standard_normal((4, cfg.input_dim))
        hidden = stacked.encoder.forward_trace(views).act[-1]
        latents = stacked.projector.forward_trace(hidden).act[-1]
        for k, model in enumerate(models):
            want = forward(model.encoder, model.projector, views).batch.rows
            np.testing.assert_allclose(latents[k], want, rtol=0, atol=1e-14)


def _near_constant_model(cfg, scale):
    """A model whose latents are the projector's last bias plus ``scale`` times the last layer's weighted input."""
    model = SimclrModel.init(cfg, make_rng(0))
    model.projector.weights[-1][:] *= scale
    model.projector.biases[-1][:] = np.arange(1.0, 1.0 + model.projector.biases[-1].size)
    return model


def tiny_config(**overrides):
    defaults = dict(
        n_pairs=2,
        input_dim=2,
        encoder_dims=(2, 2),
        projector_dims=(2, 2),
        tau=0.5,
        learning_rate=1e-3,
        steps=1,
        seed=0,
        augment=AugmentConfig(noise_sigma=0.05, dropout_prob=0.0),
        dataset=DatasetParams(clusters=2, spread=0.3, points=16),
    )
    defaults.update(overrides)
    return TrainConfig(**defaults)


class TestTrainStep:
    def test_vanishing_learning_rate_is_a_null_update(self):
        """The update is -lr * grad, so at the smallest admissible lr the
        parameters are unchanged to ~1e-295 and the pre-update loss of a
        repeated step (same rng stream) is bit-identical."""
        cfg = tiny_config(learning_rate=1e-300)  # config requires lr > 0
        model = SimclrModel.init(cfg, make_rng(5))
        frozen = copy.deepcopy(model)
        points = make_rng(6).standard_normal((cfg.n_pairs, cfg.input_dim))

        rec1 = train_step(model, points, cfg, make_rng(7), step=0)
        np.testing.assert_allclose(frozen.params, model.params, atol=1e-290)
        rec2 = train_step(frozen, points, cfg, make_rng(7), step=0)
        assert rec1.loss_total == rec2.loss_total

    def test_update_is_minus_lr_times_grad(self):
        """grad_norm is the norm of every parameter gradient; each parameter moves by -lr * grad."""
        cfg = tiny_config(learning_rate=0.1, augment=AugmentConfig(noise_sigma=0.1, dropout_prob=0.2))
        model = SimclrModel.init(cfg, make_rng(5))
        before = copy.deepcopy(model)
        points = make_rng(6).standard_normal((cfg.n_pairs, cfg.input_dim))
        rec = train_step(model, points, cfg, make_rng(7), step=0)

        out = loss_and_param_grads(before, _augment_batch(points, cfg.augment, make_rng(7)), cfg)
        assert rec.grad_norm == pytest.approx(float(np.linalg.norm(out.param_grad)), rel=1e-12)
        np.testing.assert_array_equal(model.params, before.params - cfg.learning_rate * out.param_grad)

    def test_descent_direction(self):
        """A small step decreases the loss on the same views nearly always."""
        wins = 0
        trials = 100
        for seed in range(trials):
            cfg = tiny_config(learning_rate=1e-3, n_pairs=4, dataset=DatasetParams(2, 0.3, 16))
            model = SimclrModel.init(cfg, make_rng(1000 + seed))
            points = make_rng(2000 + seed).standard_normal((cfg.n_pairs, cfg.input_dim))

            before = train_step(model, points, cfg, make_rng(3000 + seed), step=0).loss_total
            # re-evaluate the updated model on the same augmented views
            after = train_step(model, points, tiny_config(learning_rate=1e-300, n_pairs=4), make_rng(3000 + seed), step=0).loss_total
            if after <= before:
                wins += 1
        assert wins >= 95, f"loss decreased in only {wins}/{trials} trials"

    def test_end_to_end_gradient_matches_finite_differences(self):
        """Full parameter gradient on the tiny model vs an independent FD loop."""
        cfg = tiny_config()
        loss_cfg = LossConfig(tau=cfg.tau)
        for seed in range(5):
            rng = make_rng(400 + seed)
            model = SimclrModel.init(cfg, rng)
            views = rng.standard_normal((2 * cfg.n_pairs, cfg.input_dim))
            views /= math.sqrt(float(np.mean(views * views)))

            fwd = forward(model.encoder, model.projector, views)
            from ntxbound import nt_xent_grad

            gz = nt_xent_grad(fwd.batch, loss_cfg)
            pg, ghid = model.projector.backward(fwd.projector_trace, gz)
            eg, _ = model.encoder.backward(fwd.encoder_trace, ghid)
            analytic = {"enc": Mlp(model.encoder_dims, eg), "proj": Mlp(model.projector_dims, pg)}

            def loss_with(mutate):
                probe = copy.deepcopy(model)
                mutate(probe)
                out = forward(probe.encoder, probe.projector, views)
                return nt_xent(out.batch, loss_cfg).total

            h = 1e-5
            for which, mlps in (("enc", "encoder"), ("proj", "projector")):
                mlp = getattr(model, mlps)
                for l in range(mlp.n_layers):
                    for kind, arrs in (("w", mlp.weights), ("b", mlp.biases)):
                        arr = arrs[l]
                        for idx in np.ndindex(arr.shape):
                            def bump(probe, delta, l=l, idx=idx, kind=kind, mlps=mlps):
                                target = getattr(probe, mlps)
                                (target.weights if kind == "w" else target.biases)[l][idx] += delta

                            fp = loss_with(lambda p: bump(p, +h))
                            fm = loss_with(lambda p: bump(p, -h))
                            numeric = (fp - fm) / (2 * h)
                            a = (analytic[which].weights if kind == "w" else analytic[which].biases)[l][idx]
                            denom = max(abs(a), abs(numeric))
                            if denom >= 1e-8:
                                assert abs(a - numeric) <= 1e-4 * denom
                            else:
                                assert abs(a - numeric) <= 1e-8

    def test_divergent_latents_raise_nonfinite(self):
        cfg = tiny_config()
        model = SimclrModel.init(cfg, make_rng(0))
        model.projector.weights[-1][...] = np.inf
        points = make_rng(1).standard_normal((cfg.n_pairs, cfg.input_dim))
        with pytest.raises(NonFiniteLossError):
            train_step(model, points, cfg, make_rng(2), step=3)


class TestTrain:
    def test_single_step_trace(self):
        trace = train(tiny_config(steps=1))
        assert len(trace) == 1
        assert trace.records[0].step == 0

    def test_deterministic_traces(self):
        cfg = tiny_config(steps=25, seed=11)
        a, b = train(cfg), train(cfg)
        assert a.records == b.records
        assert a.collapse_step == b.collapse_step

    def test_records_and_bound_hold(self):
        trace = train(tiny_config(steps=50, n_pairs=4, seed=2, dataset=DatasetParams(2, 0.3, 32)))
        assert len(trace) == 50
        for rec in trace.records:
            assert rec.paper_gap >= -1e-9
            assert rec.strict_gap >= -1e-9
            assert rec.strict_bound <= rec.paper_bound + 1e-12
            assert math.isfinite(rec.grad_norm)

    def test_desk_config_learns(self):
        cfg = TrainConfig(steps=120)
        trace = train(cfg)
        first, last = trace.records[0], trace.records[-1]
        assert last.loss_total < first.loss_total
        assert last.avg_pos_sim > first.avg_pos_sim

    def test_huge_learning_rate_diverges_with_partial_trace(self):
        """Forward-pass overflow raises NonFiniteLossError carrying the trace
        accumulated so far. A rate around 1e80 overflows the four-layer product;
        mere millions only stall the run because the loss is scale-invariant."""
        cfg = TrainConfig(learning_rate=1e80, steps=10)
        with pytest.raises(NonFiniteLossError) as err:
            train(cfg)
        assert err.value.trace is not None
        assert len(err.value.trace) == err.value.step

    def test_collapsed_batch_is_flagged(self):
        """Force constant latents through a zero-weight projector."""
        cfg = tiny_config()
        model = SimclrModel.init(cfg, make_rng(0))
        for l in range(model.projector.n_layers):
            model.projector.weights[l][:] = 0.0
            model.projector.biases[l][:] = np.arange(1.0, 1.0 + model.projector.biases[l].size)
        points = make_rng(1).standard_normal((cfg.n_pairs, cfg.input_dim))
        rec = train_step(model, points, cfg, make_rng(2), step=0)
        assert rec.collapsed
        assert rec.loss_total == pytest.approx(math.log(2 * cfg.n_pairs - 1), abs=1e-12)

    def test_spread_just_beyond_tolerance_is_not_flagged(self):
        """Latents spread so their smallest anchor-row similarity sits between 1 - 4 tol and 1 - tol: not collapsed.

        The spread grows as the square of the last projector layer's weight scale, which sets it; a tenth of
        that scale is flagged.
        """
        cfg = tiny_config()
        points = make_rng(1).standard_normal((cfg.n_pairs, cfg.input_dim))
        views = _augment_batch(points, cfg.augment, make_rng(2))  # the views train_step draws from make_rng(2)

        def spread(scale):
            return 1.0 - loss_and_param_grads(_near_constant_model(cfg, scale), views, cfg).min_similarity

        scale = 1e-3 * math.sqrt(2 * COLLAPSE_TOL / spread(1e-3))
        assert COLLAPSE_TOL < spread(scale) < 4 * COLLAPSE_TOL
        assert not train_step(_near_constant_model(cfg, scale), points, cfg, make_rng(2)).collapsed
        assert train_step(_near_constant_model(cfg, scale / 10), points, cfg, make_rng(2)).collapsed

    def test_min_similarity_is_the_smallest_anchor_row_similarity(self):
        """One model and a stack of three: the minimum over the anchor rows, never below the whole matrix's."""
        cfg = TrainConfig()
        models = [SimclrModel.init(cfg, make_rng(s)) for s in range(3)]
        stacked = SimclrModel(models[0].encoder_dims, models[0].projector_dims, np.stack([m.params for m in models]))
        views = make_rng(7).standard_normal((3, 2 * cfg.n_pairs, cfg.input_dim))
        outs = [loss_and_param_grads(stacked, views, cfg)]
        outs += [loss_and_param_grads(model, v, cfg) for model, v in zip(models, views)]
        for out in outs:
            latents = out.forward.latents.reshape(-1, 2 * cfg.n_pairs, cfg.latent_dim)
            for rows, got in zip(latents, np.reshape(out.min_similarity, -1)):
                whole = similarity_matrix(EmbeddingBatch(rows), cfg.tau).sims
                assert got == whole[::2].min() >= whole.min()

    def test_config_validation(self):
        with pytest.raises(InvalidDatasetParamsError):
            tiny_config(n_pairs=1)
        with pytest.raises(InvalidDatasetParamsError):
            tiny_config(steps=0)
        with pytest.raises(InvalidDatasetParamsError):
            tiny_config(learning_rate=0.0)
        with pytest.raises(InvalidDatasetParamsError):
            tiny_config(dataset=DatasetParams(clusters=2, spread=0.3, points=3))

    def test_memory_estimate_covers_a_desk_run(self, monkeypatch):
        """A budget just under the traced peak of a short desk run refuses its config; twice that peak admits it."""
        train(TrainConfig(steps=3))  # warm-up: first-call allocations are not the run's
        tracemalloc.start()
        try:
            train(TrainConfig(steps=3))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        monkeypatch.setattr(bounds, "MEMORY_BUDGET", peak - 1)
        with pytest.raises(InvalidDatasetParamsError, match="memory budget"):
            TrainConfig(steps=3)
        monkeypatch.setattr(bounds, "MEMORY_BUDGET", 2 * peak)
        TrainConfig(steps=3)
