"""Synthetic data, augmentation, MLP forward/backward, and the training loop."""

import copy
import dataclasses
import json
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
    TrainConfig,
    augment,
    forward,
    gen_synthetic,
    nt_xent,
    similarity_matrix,
    train,
    train_step,
)
from ntxbound import bounds, cli, trainer
from ntxbound.loss import _latent_grad
from ntxbound.serialize import _TRACE_ROW_BYTES
from ntxbound.trainer import (
    BLOCK_STEPS,
    COLLAPSE_TOL,
    TrainTrace,
    _augment_batch,
    _forward_pass,
)
from oracle import chain_grads, init_net, mixture_truth, param_grads, unit_rms, worst_rel_error


def make_rng(seed):
    return np.random.Generator(np.random.PCG64(seed))


class TestGenSynthetic:
    def test_tiny_spread_concentrates(self):
        params = DatasetParams(clusters=1, spread=1e-4, points=10)
        points = gen_synthetic(6, params, seed=0)
        means, _ = mixture_truth(6, params, seed=0)
        deviations = np.linalg.norm(points - means[0], axis=1)
        assert np.max(deviations) < 10 * params.spread * math.sqrt(6)

    def test_same_seed_identical(self):
        params = DatasetParams(clusters=3, spread=0.5, points=64)
        a = gen_synthetic(4, params, seed=9)
        b = gen_synthetic(4, params, seed=9)
        np.testing.assert_array_equal(a, b)
        np.testing.assert_array_equal(mixture_truth(4, params, seed=9)[0], mixture_truth(4, params, seed=9)[0])

    def test_cluster_means_recovered(self):
        """Law of large numbers: empirical cluster means approach the truth."""
        dim, params = 5, DatasetParams(clusters=4, spread=0.2, points=1000)
        points = gen_synthetic(dim, params, seed=3)
        means, labels = mixture_truth(dim, params, seed=3)
        for c in range(params.clusters):
            member = points[labels == c]
            err = np.linalg.norm(member.mean(axis=0) - means[c])
            assert err < 3 * params.spread / math.sqrt(len(member)) * math.sqrt(dim)

    def test_points_are_the_truths_means_plus_the_streams_next_draw(self):
        """The oracle's means and labels are the ones gen_synthetic draws from, bit for bit."""
        dim, params = 3, DatasetParams(clusters=5, spread=0.3, points=40)
        points = gen_synthetic(dim, params, seed=7)
        means, labels = mixture_truth(dim, params, seed=7)
        rng = np.random.default_rng(7)
        rng.standard_normal((params.clusters, dim))  # the means' draw
        assert isinstance(points, np.ndarray) and points.shape == (params.points, dim)
        np.testing.assert_array_equal(points, means[labels] + params.spread * rng.standard_normal((params.points, dim)))

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
        net = Mlp(((3, 3), (3, 3)), np.zeros(24))
        net.weights[0][...] = np.eye(3)
        net.weights[1][...] = np.eye(3)
        views = np.array([[1.0, 2.0, 3.0], [4.0, 5.0, 6.0]])
        out = forward(net, views)
        np.testing.assert_array_equal(EmbeddingBatch(out.act[-1]).rows, views)
        np.testing.assert_array_equal(out.act[1], views)

    def test_zero_weight_projector_constant_output(self):
        """Constant latents: every cosine similarity is 1, loss hits log(2N-1)."""
        net = Mlp(((2, 2), (2, 3)), np.zeros(15))
        net.weights[0][...] = np.eye(2)
        net.biases[1][...] = [0.5, -1.0, 2.0]
        views = make_rng(0).standard_normal((8, 2))
        out = forward(net, views)
        batch = EmbeddingBatch(out.act[-1])
        np.testing.assert_array_equal(batch.rows, np.tile([0.5, -1.0, 2.0], (8, 1)))
        total = nt_xent(batch, LossConfig(tau=0.5)).total
        assert total == pytest.approx(math.log(7), abs=1e-12)

    def test_matches_scalar_loop_oracle(self):
        """Independent per-layer forward pass written with plain loops, block by block."""
        rng = make_rng(7)
        net = init_net(((3, 4, 2), (2, 5, 3)), rng)
        views = rng.standard_normal((4, 3))

        def block_oracle(weights, biases, xs):
            outs = []
            for x in xs:
                h = list(x)
                for l, (w, b) in enumerate(zip(weights, biases)):
                    nxt = []
                    for j in range(w.shape[1]):
                        acc = b[0, j]
                        for i in range(w.shape[0]):
                            acc += h[i] * w[i, j]
                        if l < len(weights) - 1:
                            acc = acc if acc > 0 else 0.0
                        nxt.append(acc)
                    h = nxt
                outs.append(h)
            return np.array(outs)

        out = forward(net, views)
        hidden = block_oracle(net.weights[:2], net.biases[:2], views)
        np.testing.assert_allclose(out.act[2], hidden, rtol=1e-12, atol=1e-14)
        latents = block_oracle(net.weights[2:], net.biases[2:], hidden)
        np.testing.assert_allclose(EmbeddingBatch(out.act[-1]).rows, latents, rtol=1e-12, atol=1e-14)

    def test_hidden_layers_nonnegative(self):
        rng = make_rng(12)
        mlp = init_net(((4, 8, 8, 2),), rng)
        trace = forward(mlp, rng.standard_normal((10, 4)))
        for act in trace.act[1:-1]:
            assert np.all(act >= 0.0)

    def test_block_outputs_pass_negatives_and_hidden_layers_clip_them(self):
        """ReLU follows each layer inside a block; the last layer of every block, not only the network's, is linear."""
        net = Mlp(((2, 2, 2), (2, 2, 2)), np.zeros(24))
        for w, b in zip(net.weights, net.biases):
            w[...] = np.eye(2)
            b[...] = -1.0
        trace = forward(net, np.array([[3.0, 0.5], [0.5, 3.0]]))
        assert net.relu == (True, False, True, False)
        for pre, act, relu in zip(trace.pre, trace.act[1:], net.relu):
            assert (pre < 0).any()
            np.testing.assert_array_equal(act, np.maximum(pre, 0.0) if relu else pre)
        assert (trace.act[2] < 0).any()  # the encoder's output reaches the projection head unclipped

    def test_init_parameter_range(self):
        mlp = init_net(((9, 5),), make_rng(0))
        bound = 1.0 / 3.0
        assert np.all(np.abs(mlp.weights[0]) <= bound)
        assert np.all(np.abs(mlp.biases[0]) <= bound)


def per_layer_uniforms(layouts, rng):
    """An init drawn layer by layer: one ``rng.uniform`` for each layer's weights, then one for its biases."""
    draws = []
    for dims in layouts:
        for fan_in, fan_out in zip(dims[:-1], dims[1:]):
            bound = 1.0 / math.sqrt(fan_in)
            draws.append(rng.uniform(-bound, bound, size=(fan_in, fan_out)).ravel())
            draws.append(rng.uniform(-0.1 * bound, 0.1 * bound, size=fan_out))
    return np.concatenate(draws)


INIT_LAYOUTS = [(8, 16, 16), (16, 16, 8), (2, 2, 2), (3, 4, 2), (9, 5), (4, 8, 8, 2)]


class TestOneDrawInit:
    """One ``random(P)`` per model, scaled per layer, gives the per-layer uniforms bit for bit."""

    @pytest.mark.parametrize("dims", INIT_LAYOUTS)
    def test_mlp_init_equals_per_layer_uniforms(self, dims):
        for seed in range(50):
            rng, twin = make_rng(seed), make_rng(seed)
            np.testing.assert_array_equal(init_net((dims,), rng).params, per_layer_uniforms([dims], twin))
            assert rng.random() == twin.random()

    @pytest.mark.parametrize(
        ("encoder", "projector"), [((8, 16, 16), (16, 8)), ((2, 2, 2), (2, 2)), ((3, 4, 2), (8, 8, 2))]
    )
    def test_model_init_equals_per_layer_uniforms(self, encoder, projector):
        cfg = TrainConfig(input_dim=encoder[0], encoder_dims=encoder[1:], projector_dims=projector)
        for seed in range(50):
            rng, twin = make_rng(seed), make_rng(seed)
            want = per_layer_uniforms([encoder, (encoder[-1], *projector)], twin)
            np.testing.assert_array_equal(init_net(cfg.blocks, rng).params, want)
            assert rng.random() == twin.random()


class TestParameterLayout:
    def test_init_is_uniform_draws_in_layout_order(self):
        """Per network, per layer: the weights row-major, then the biases, drawn in that order."""
        cfg = TrainConfig(input_dim=3, encoder_dims=(4, 2), projector_dims=(5, 3))
        rng, twin = make_rng(21), make_rng(21)
        model = init_net(cfg.blocks, rng)
        expected = []
        for dims in ((3, 4, 2), (2, 5, 3)):
            for fan_in, fan_out in zip(dims[:-1], dims[1:]):
                bound = 1.0 / math.sqrt(fan_in)
                expected.append(twin.uniform(-bound, bound, size=(fan_in, fan_out)).ravel())
                expected.append(twin.uniform(-0.1 * bound, 0.1 * bound, size=fan_out))
        np.testing.assert_array_equal(model.params, np.concatenate(expected))
        assert rng.bit_generator.state == twin.bit_generator.state
        assert cfg.blocks == ((3, 4, 2), (2, 5, 3))

    def test_weights_and_biases_are_views_of_params(self):
        mlp = Mlp(((3, 2, 4),), np.zeros(3 * 2 + 2 + 2 * 4 + 4))
        mlp.weights[0][1, 0] = 1.0
        mlp.biases[0][0, 1] = 2.0
        mlp.weights[1][0, 3] = 3.0
        mlp.biases[1][0, 2] = 4.0
        assert [mlp.weights[0].shape, mlp.biases[0].shape] == [(3, 2), (1, 2)]
        assert np.flatnonzero(mlp.params).tolist() == [2, 7, 11, 18]
        assert mlp.params[[2, 7, 11, 18]].tolist() == [1.0, 2.0, 3.0, 4.0]

    def test_assigning_a_layer_raises(self):
        mlp = init_net(((3, 2),), make_rng(0))
        with pytest.raises(TypeError):
            mlp.weights[0] = np.zeros((3, 2))
        with pytest.raises(TypeError):
            mlp.biases[0] = np.zeros((1, 2))

    def test_wrong_parameter_count_is_refused(self):
        with pytest.raises(DimensionMismatchError):
            Mlp(((3, 2),), np.zeros(7))
        with pytest.raises(DimensionMismatchError):
            Mlp(((3, 2), (2, 2)), np.zeros(13))

    def test_blocks_that_do_not_meet_are_refused(self):
        with pytest.raises(DimensionMismatchError, match="start at the width"):
            Mlp(((3, 2), (3, 2)), np.zeros(16))

    def test_blocks_a_train_config_refuses_are_refused(self):
        """No blocks, a block of fewer than two widths, or a width below 1, each with as many params as it counts."""
        for blocks in [(), ((),), ((3,),), ((3, 2), (2,)), ((8, 0, 4),), ((8, -1, 4),), ((0, 4),)]:
            params = np.zeros(max(trainer._param_count(blocks), 0))
            with pytest.raises(DimensionMismatchError, match="at least two widths >= 1"):
                Mlp(blocks, params)

    def test_params_other_than_a_float64_array_are_refused(self):
        """A list or a 0-d array is a shape error; an int64 or a float32 vector, of the right length, a dtype error."""
        blocks = ((3, 2),)
        for params in ([0.0] * 8, np.array(0.0)):
            with pytest.raises(DimensionMismatchError, match="array of at least one dimension"):
                Mlp(blocks, params)
        for dtype in (np.int64, np.float32):
            with pytest.raises(ValueError, match="params must be float64"):
                Mlp(blocks, np.zeros(8, dtype=dtype))

    def test_deepcopy_stays_independent(self):
        model = init_net(tiny_config().blocks, make_rng(3))
        twin = copy.deepcopy(model)
        snapshot = model.params.copy()
        model.params[...] -= 1.0
        np.testing.assert_array_equal(twin.params, snapshot)
        twin.weights[0][...] = 5.0
        np.testing.assert_array_equal(model.params, snapshot - 1.0)
        assert np.shares_memory(twin.biases[-1], twin.params)

    def test_copy_after_access_views_its_own_params(self):
        """A twin's layers view the twin's params, never the original's."""
        model = init_net(tiny_config().blocks, make_rng(3))
        twin = copy.deepcopy(model)
        for arr in (*twin.weights, *twin.biases):
            assert np.shares_memory(arr, twin.params) and not np.shares_memory(arr, model.params)
        snapshot = model.params.copy()
        twin.weights[0][...] = 5.0
        twin.biases[-1][...] = 6.0
        assert np.count_nonzero(twin.params == 5.0) == twin.weights[0].size
        assert np.count_nonzero(twin.params == 6.0) == twin.biases[-1].size
        np.testing.assert_array_equal(model.params, snapshot)

    @pytest.mark.parametrize("models", [1, 3])
    def test_param_grad_matches_the_oracle(self, models):
        """The gradient written in place equals, bit for bit, the oracle's own walk over the layers."""
        cfg = tiny_config(n_pairs=3, input_dim=3, encoder_dims=(5, 4), projector_dims=(6, 3))
        params = np.stack([init_net(cfg.blocks, make_rng(50 + s)).params for s in range(models)])
        views = make_rng(7).standard_normal((models, 2 * cfg.n_pairs, cfg.input_dim))
        if models == 1:
            params, views = params[0], views[0]
        model, grads = Mlp(cfg.blocks, params), Mlp(cfg.blocks, np.empty_like(params))
        trace, p, _ = _forward_pass(model, views, cfg)
        latent_grad = _latent_grad(p)
        param_grad = model.backward(trace, latent_grad, out=grads)
        assert param_grad is grads.params and param_grad.shape == params.shape
        assert param_grad.tobytes() == chain_grads(model, trace, latent_grad).tobytes()

    def test_models_compare_by_identity(self):
        """Array fields make value equality ambiguous, so networks compare as objects."""
        model = init_net(tiny_config().blocks, make_rng(3))
        assert (model == model) is True
        assert (model == copy.deepcopy(model)) is False and (model != copy.deepcopy(model)) is True

    def test_stacked_model_is_one_model_per_row(self):
        cfg = tiny_config()
        models = [init_net(cfg.blocks, make_rng(s)) for s in range(3)]
        stacked = Mlp(cfg.blocks, np.stack([m.params for m in models]))
        views = make_rng(9).standard_normal((4, cfg.input_dim))
        latents = forward(stacked, views).act[-1]
        for k, model in enumerate(models):
            want = EmbeddingBatch(forward(model, views).act[-1]).rows
            np.testing.assert_allclose(latents[k], want, rtol=0, atol=1e-14)


def _near_constant_model(cfg, scale):
    """A model whose latents are the projector's last bias plus ``scale`` times the last layer's weighted input."""
    model = init_net(cfg.blocks, make_rng(0))
    model.weights[-1][:] *= scale
    model.biases[-1][:] = np.arange(1.0, 1.0 + model.biases[-1].size)
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
        model = init_net(cfg.blocks, make_rng(5))
        frozen = copy.deepcopy(model)
        points = make_rng(6).standard_normal((cfg.n_pairs, cfg.input_dim))

        rec1 = train_step(model, points, cfg, make_rng(7), step=0)
        np.testing.assert_allclose(frozen.params, model.params, atol=1e-290)
        rec2 = train_step(frozen, points, cfg, make_rng(7), step=0)
        assert rec1.loss_total[0] == rec2.loss_total[0]

    def test_a_step_returns_its_one_row_trace(self):
        """The step label is the one row's step; every column has that one row, in the dtype a run's trace has."""
        cfg = tiny_config()
        points = make_rng(6).standard_normal((cfg.n_pairs, cfg.input_dim))
        rec = train_step(init_net(cfg.blocks, make_rng(5)), points, cfg, make_rng(7), step=41)
        assert isinstance(rec, TrainTrace) and len(rec) == 1
        assert rec.step.tolist() == [41]
        assert all(getattr(rec, name).shape == (1,) for name in TrainTrace.__dataclass_fields__)
        run = train(cfg)
        assert [getattr(rec, name).dtype for name in TrainTrace.__dataclass_fields__] == [
            getattr(run, name).dtype for name in TrainTrace.__dataclass_fields__
        ]

    def test_update_is_minus_lr_times_grad(self):
        """grad_norm is the norm of every parameter gradient; each parameter moves by -lr * grad."""
        cfg = tiny_config(learning_rate=0.1, augment=AugmentConfig(noise_sigma=0.1, dropout_prob=0.2))
        model = init_net(cfg.blocks, make_rng(5))
        before = copy.deepcopy(model)
        points = make_rng(6).standard_normal((cfg.n_pairs, cfg.input_dim))
        rec = train_step(model, points, cfg, make_rng(7), step=0)

        trace, p, _ = _forward_pass(before, _augment_batch(points, cfg.augment, make_rng(7)), cfg)
        grad = before.backward(trace, _latent_grad(p))
        assert rec.grad_norm[0] == pytest.approx(float(np.linalg.norm(grad)), rel=1e-12)
        np.testing.assert_array_equal(model.params, before.params - cfg.learning_rate * grad)

    def test_descent_direction(self):
        """A small step decreases the loss on the same views nearly always."""
        wins = 0
        trials = 100
        for seed in range(trials):
            cfg = tiny_config(learning_rate=1e-3, n_pairs=4, dataset=DatasetParams(2, 0.3, 16))
            model = init_net(cfg.blocks, make_rng(1000 + seed))
            points = make_rng(2000 + seed).standard_normal((cfg.n_pairs, cfg.input_dim))

            before = train_step(model, points, cfg, make_rng(3000 + seed), step=0).loss_total[0]
            # re-evaluate the updated model on the same augmented views
            frozen = tiny_config(learning_rate=1e-300, n_pairs=4)
            after = train_step(model, points, frozen, make_rng(3000 + seed), step=0).loss_total[0]
            if after <= before:
                wins += 1
        assert wins >= 95, f"loss decreased in only {wins}/{trials} trials"

    def test_end_to_end_gradient_matches_finite_differences(self):
        """Full parameter gradient on the tiny model vs an independent FD loop."""
        cfg = tiny_config()
        loss_cfg = LossConfig(tau=cfg.tau)
        for seed in range(5):
            rng = make_rng(400 + seed)
            model = init_net(cfg.blocks, rng)
            views = unit_rms(rng.standard_normal((2 * cfg.n_pairs, cfg.input_dim)))
            assert worst_rel_error(*param_grads(model, views, loss_cfg))[0] <= 1e-4

    @pytest.mark.parametrize("shape", [(3, 8), (16, 5), (8,)])
    def test_points_of_another_shape_are_refused_before_any_draw(self, shape):
        """A short batch, a wrong width or 1-D points is the caller's shape error, not a diverging step."""
        cfg = TrainConfig(steps=1)
        model, rng = init_net(cfg.blocks, make_rng(0)), make_rng(1)
        params, state = model.params.copy(), rng.bit_generator.state
        with pytest.raises(DimensionMismatchError, match=r"\(n_pairs, input_dim\) = \(16, 8\)"):
            train_step(model, np.ones(shape), cfg, rng)
        np.testing.assert_array_equal(model.params, params)
        assert rng.bit_generator.state == state

    @pytest.mark.parametrize("blocks", [((8, 16, 16), (16, 4)), ((5, 16, 16), (16, 16, 8))], ids=["head", "input"])
    def test_a_network_of_other_blocks_is_refused_before_any_draw(self, blocks):
        """Another projection head, or another input width, is refused with params and generator state untouched."""
        cfg = TrainConfig(steps=1)
        model, rng = init_net(blocks, make_rng(0)), make_rng(1)
        params, state = model.params.copy(), rng.bit_generator.state
        with pytest.raises(DimensionMismatchError):
            train_step(model, np.ones((cfg.n_pairs, cfg.input_dim)), cfg, rng)
        np.testing.assert_array_equal(model.params, params)
        assert rng.bit_generator.state == state

    def test_divergent_latents_raise_nonfinite(self):
        cfg = tiny_config()
        model = init_net(cfg.blocks, make_rng(0))
        model.weights[-1][...] = np.inf
        points = make_rng(1).standard_normal((cfg.n_pairs, cfg.input_dim))
        with pytest.raises(NonFiniteLossError):
            train_step(model, points, cfg, make_rng(2), step=3)


class TestTrainTrace:
    @pytest.mark.parametrize(
        "columns",
        [
            # len 3, while trace_to_csv, which zips the columns, would write two rows
            (np.arange(3), *[np.ones(2)] * 9, np.zeros(3, bool)),
            (np.arange(3), *[np.ones((3, 1))] * 9, np.zeros(3, bool)),
            (np.array(0), *[np.array(1.0)] * 9, np.array(False)),
            (np.arange(3), *[np.ones(3)] * 9, np.zeros(2, bool)),
        ],
        ids=["short-floats", "2-d", "0-d", "short-collapsed"],
    )
    def test_columns_that_are_not_1d_of_the_steps_length_are_refused(self, columns):
        with pytest.raises(DimensionMismatchError):
            TrainTrace(*columns)


class TestTrain:
    def test_single_step_trace(self):
        trace = train(tiny_config(steps=1))
        assert len(trace) == 1
        assert trace.step.tolist() == [0]

    def test_deterministic_traces(self):
        cfg = tiny_config(steps=25, seed=11)
        a, b = train(cfg), train(cfg)
        assert _columns(a) == _columns(b)
        assert a.collapse_step == b.collapse_step

    def test_records_and_bound_hold(self):
        trace = train(tiny_config(steps=50, n_pairs=4, seed=2, dataset=DatasetParams(2, 0.3, 32)))
        assert len(trace) == 50
        assert (trace.paper_gap >= -1e-9).all()
        assert (trace.strict_gap >= -1e-9).all()
        assert (trace.strict_bound <= trace.paper_bound + 1e-12).all()
        assert np.isfinite(trace.grad_norm).all()

    def test_desk_config_learns(self):
        cfg = TrainConfig(steps=120)
        trace = train(cfg)
        assert trace.loss_total[-1] < trace.loss_total[0]
        assert trace.avg_pos_sim[-1] > trace.avg_pos_sim[0]

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
        model = init_net(cfg.blocks, make_rng(0))
        for l in range(len(cfg.encoder_dims), len(model.weights)):
            model.weights[l][:] = 0.0
            model.biases[l][:] = np.arange(1.0, 1.0 + model.biases[l].size)
        points = make_rng(1).standard_normal((cfg.n_pairs, cfg.input_dim))
        rec = train_step(model, points, cfg, make_rng(2), step=0)
        assert rec.collapsed[0]
        assert rec.loss_total[0] == pytest.approx(math.log(2 * cfg.n_pairs - 1), abs=1e-12)

    def test_spread_just_beyond_tolerance_is_not_flagged(self):
        """Latents spread so their smallest anchor-row similarity sits between 1 - 4 tol and 1 - tol: not collapsed.

        The spread grows as the square of the last projector layer's weight scale, which sets it; a tenth of
        that scale is flagged.
        """
        cfg = tiny_config()
        points = make_rng(1).standard_normal((cfg.n_pairs, cfg.input_dim))
        views = _augment_batch(points, cfg.augment, make_rng(2))  # the views train_step draws from make_rng(2)

        def spread(scale):
            return 1.0 - _forward_pass(_near_constant_model(cfg, scale), views, cfg)[2]

        scale = 1e-3 * math.sqrt(2 * COLLAPSE_TOL / spread(1e-3))
        assert COLLAPSE_TOL < spread(scale) < 4 * COLLAPSE_TOL
        assert not train_step(_near_constant_model(cfg, scale), points, cfg, make_rng(2)).collapsed[0]
        assert train_step(_near_constant_model(cfg, scale / 10), points, cfg, make_rng(2)).collapsed[0]

    def test_min_similarity_is_the_smallest_anchor_row_similarity(self):
        """One model and a stack of three: the minimum over the anchor rows, never below the whole matrix's."""
        cfg = TrainConfig()
        models = [init_net(cfg.blocks, make_rng(s)) for s in range(3)]
        stacked = Mlp(cfg.blocks, np.stack([m.params for m in models]))
        views = make_rng(7).standard_normal((3, 2 * cfg.n_pairs, cfg.input_dim))
        outs = [_forward_pass(stacked, views, cfg)]
        outs += [_forward_pass(model, v, cfg) for model, v in zip(models, views)]
        for trace, _, min_similarity in outs:
            latents = trace.act[-1].reshape(-1, 2 * cfg.n_pairs, cfg.latent_dim)
            for rows, got in zip(latents, np.reshape(min_similarity, -1)):
                whole = similarity_matrix(EmbeddingBatch(rows), cfg.tau).sims
                assert got == whole[::2].min() >= whole.min()

    def test_networks_are_built_once_per_run(self, monkeypatch):
        """A run builds its networks before the first step: no step constructs an Mlp."""
        built = []
        post_init = Mlp.__post_init__

        def counted(self):
            built.append(self.blocks)
            post_init(self)

        monkeypatch.setattr(Mlp, "__post_init__", counted)
        counts = []
        for steps in (2, 20):
            built.clear()
            train(TrainConfig(steps=steps))
            counts.append(len(built))
        assert counts[0] == counts[1] > 0

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

    def test_each_step_adds_at_most_its_record_bytes(self, tmp_path, capsys):
        """Traced peaks of the train command at 40 and 400 desk steps, trace and summary written, differ by at most
        _TRACE_ROW_BYTES per step."""
        peaks = []
        for steps in (40, 400):
            config = tmp_path / f"train{steps}.json"
            config.write_text(json.dumps(dataclasses.asdict(TrainConfig(steps=steps))), encoding="utf-8")
            argv = ["train", "--config", str(config), "--out", str(tmp_path / f"run{steps}")]
            assert cli.main(argv) == 0  # warm-up: first-call allocations are not the run's
            tracemalloc.start()
            try:
                assert cli.main(argv) == 0
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        growth = (peaks[1] - peaks[0]) / 360
        assert 0 < growth <= _TRACE_ROW_BYTES


def _step_by_step(cfg):
    """The oracle of the block path: train(cfg) as a loop of train_step; returns its one-row traces and its error."""
    points = gen_synthetic(cfg.input_dim, cfg.dataset, bounds._stream(cfg.seed, 0))
    model = init_net(cfg.blocks, bounds._stream(cfg.seed, 1))
    rng = bounds._stream(cfg.seed, 2)
    rows = []
    for step in range(cfg.steps):
        idx = rng.integers(0, cfg.dataset.points, size=cfg.n_pairs)
        try:
            rows.append(train_step(model, points[idx], cfg, rng, step))
        except NonFiniteLossError as exc:
            return rows, exc
    return rows, None


def _columns(trace):
    """Every column of a trace as bytes, so equal columns are equal bit for bit."""
    return {name: getattr(trace, name).tobytes() for name in TrainTrace.__dataclass_fields__}


_REAL_PASS, _REAL_GRAD = trainer._Pass, trainer._latent_grad


def _force(monkeypatch, failures):
    """From now on, call k of the pass or of the latent gradient fails as ``failures[k]`` says.

    "pass" raises in the pass, "evaluation" puts a nan into one of the pass's
    LSE terms, which the loss breakdown refuses, and "gradient" raises in the
    latent gradient. Each step takes one call of each, so call k is step k.
    """
    calls = {"pass": 0, "gradient": 0}

    def nt_pass(*args):
        kind = failures.get(calls["pass"])
        calls["pass"] += 1
        if kind == "pass":
            raise ValueError("forced failure in the pass")
        p = _REAL_PASS(*args)
        if kind == "evaluation":
            p.lse[3] = np.nan
        return p

    def latent_grad(p):
        kind = failures.get(calls["gradient"])
        calls["gradient"] += 1
        if kind == "gradient":
            raise ValueError("forced failure in the gradient")
        return _REAL_GRAD(p)

    monkeypatch.setattr(trainer, "_Pass", nt_pass)
    monkeypatch.setattr(trainer, "_latent_grad", latent_grad)


class TestBlocks:
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_train_is_a_loop_of_train_step(self, seed, concat_traces):
        """Blocks of evaluations give every row of a step-by-step run bit for bit, over several blocks."""
        cfg = TrainConfig(seed=seed)
        trace = train(cfg)
        rows, error = _step_by_step(cfg)
        assert error is None and len(trace) == len(rows) == cfg.steps > 3 * BLOCK_STEPS
        assert _columns(trace) == _columns(concat_traces(rows))
        assert trace.collapse_step == concat_traces(rows).collapse_step

    @pytest.mark.parametrize("kind", ["pass", "evaluation", "gradient"])
    @pytest.mark.parametrize("step", [0, BLOCK_STEPS - 1, BLOCK_STEPS, BLOCK_STEPS + 6, 199])
    def test_a_failing_step_is_named_as_step_by_step(self, monkeypatch, kind, step, concat_traces):
        """The error names the step, reason and trace a step-by-step run gives, in a full block or the short last one."""
        cfg = TrainConfig(steps=200)
        _force(monkeypatch, {step: kind})
        with pytest.raises(NonFiniteLossError) as err:
            train(cfg)
        _force(monkeypatch, {step: kind})
        rows, want = _step_by_step(cfg)
        got = err.value
        assert (got.step, got.reason) == (want.step, want.reason) == (step, got.reason)
        assert ("forced" in got.reason) == (kind != "evaluation")
        assert len(got.trace) == step
        assert _columns(got.trace) == _columns(concat_traces(rows))

    @pytest.mark.parametrize(
        "failures",
        [
            {70: "evaluation", 75: "pass"},
            {70: "evaluation", 75: "gradient"},
            {66: "evaluation", 70: "evaluation"},
            {64: "evaluation", 65: "pass"},
            {70: "gradient", 71: "evaluation"},
        ],
    )
    def test_the_first_failing_step_wins(self, monkeypatch, failures, concat_traces):
        """A refusal found only when its block is evaluated still stops the run at its own, earlier, step."""
        cfg = TrainConfig(steps=200)
        _force(monkeypatch, failures)
        with pytest.raises(NonFiniteLossError) as err:
            train(cfg)
        _force(monkeypatch, failures)
        rows, want = _step_by_step(cfg)
        assert (err.value.step, err.value.reason) == (want.step, want.reason) == (min(failures), want.reason)
        assert _columns(err.value.trace) == _columns(concat_traces(rows))

    def test_a_step_whose_evaluation_and_gradient_fail_names_its_evaluation(self, monkeypatch):
        """As before blocks, a step's diagnostics are checked before its gradient is formed."""
        _force(monkeypatch, {5: "evaluation"})
        calls = []

        def latent_grad(p):
            calls.append(None)
            if len(calls) == 6:
                raise ValueError("forced failure in the gradient")
            return _REAL_GRAD(p)

        monkeypatch.setattr(trainer, "_latent_grad", latent_grad)
        with pytest.raises(NonFiniteLossError) as err:
            train(TrainConfig(steps=20))
        assert err.value.step == 5
        assert err.value.reason.startswith("degenerate latents or loss: loss components must be finite")

    def test_one_evaluation_per_block(self, monkeypatch):
        """Per-step work cannot creep back: a run evaluates its diagnostics once per block of BLOCK_STEPS steps."""
        calls = []
        real = trainer._evaluation

        def counted(*args):
            calls.append(args[1].shape)
            return real(*args)

        monkeypatch.setattr(trainer, "_evaluation", counted)
        counts = []
        for steps in (2, 64, 65, 200):
            calls.clear()
            train(TrainConfig(steps=steps))
            counts.append(len(calls))
        assert counts == [1, 1, 2, 4]
        assert calls == [(64, 16), (64, 16), (64, 16), (8, 16)]
