"""Tests for the NN substrate: layer backprop vs finite differences,
flat-parameter plumbing, and basic training behaviour."""

import numpy as np
import pytest

from repro.nn import (
    Conv2D,
    Dense,
    Dropout,
    Flatten,
    LSTMClassifier,
    ReLU,
    Sequential,
    Tanh,
    make_cnn_lite,
    make_lstm,
    make_mlp,
    softmax_cross_entropy,
)


def numeric_grad_check(net, x, y, n_probe=20, eps=1e-6, atol=5e-7, seed=0):
    """Central-difference check of net.batch_grad on random coordinates."""
    p0 = net.param_vector()
    _, grad = net.batch_grad(x, y)
    gen = np.random.default_rng(seed)
    for i in gen.choice(p0.size, size=min(n_probe, p0.size), replace=False):
        p = p0.copy()
        p[i] += eps
        net.set_param_vector(p)
        lp = net.loss_and_grad(x, y)
        p[i] -= 2 * eps
        net.set_param_vector(p)
        lm = net.loss_and_grad(x, y)
        numeric = (lp - lm) / (2 * eps)
        assert numeric == pytest.approx(grad[i], abs=atol), f"coordinate {i}"
    net.set_param_vector(p0)


class TestSoftmaxCrossEntropy:
    def test_uniform_logits(self):
        loss, _ = softmax_cross_entropy(np.zeros((4, 10)), np.zeros(4, dtype=int))
        assert loss == pytest.approx(np.log(10))

    def test_gradient_sums_to_zero_per_row(self, rng):
        logits = rng.standard_normal((6, 5))
        _, dlogits = softmax_cross_entropy(logits, rng.integers(0, 5, 6))
        assert np.allclose(dlogits.sum(axis=1), 0.0, atol=1e-12)

    def test_shift_invariance(self, rng):
        logits = rng.standard_normal((3, 4))
        y = np.array([0, 1, 2])
        l1, _ = softmax_cross_entropy(logits, y)
        l2, _ = softmax_cross_entropy(logits + 100.0, y)
        assert l1 == pytest.approx(l2, abs=1e-9)

    def test_rejects_1d(self):
        with pytest.raises(ValueError):
            softmax_cross_entropy(np.zeros(4), np.zeros(1, dtype=int))


class TestLayerGradients:
    def test_dense_relu_mlp(self, rng):
        net = make_mlp(10, 3, hidden=(7,), seed=1)
        numeric_grad_check(net, rng.standard_normal((4, 10)), rng.integers(0, 3, 4))

    def test_tanh(self, rng):
        gen = np.random.default_rng(3)
        net = Sequential([Dense(6, 5, gen), Tanh(), Dense(5, 3, gen)])
        numeric_grad_check(net, rng.standard_normal((3, 6)), rng.integers(0, 3, 3))

    def test_conv2d(self, rng):
        net = make_cnn_lite(8, 2, 4, channels=(3,), seed=2)
        x = rng.standard_normal((2, 2, 8, 8))
        numeric_grad_check(net, x, rng.integers(0, 4, 2), n_probe=25)

    def test_conv2d_stride_one_with_pad(self, rng):
        gen = np.random.default_rng(5)
        net = Sequential([Conv2D(1, 2, 3, gen, stride=1, pad=1), Flatten(), Dense(2 * 36, 2, gen)])
        x = rng.standard_normal((2, 1, 6, 6))
        numeric_grad_check(net, x, rng.integers(0, 2, 2), n_probe=20)

    def test_lstm(self, rng):
        net = make_lstm(15, 3, embed_dim=5, hidden_dim=6, seed=4)
        toks = rng.integers(0, 15, (3, 7))
        numeric_grad_check(net, toks, rng.integers(0, 3, 3), n_probe=30)


class TestLayers:
    def test_relu_masks_negative(self):
        layer = ReLU()
        out = layer.forward(np.array([[-1.0, 2.0]]))
        assert np.array_equal(out, [[0.0, 2.0]])
        back = layer.backward(np.array([[5.0, 5.0]]))
        assert np.array_equal(back, [[0.0, 5.0]])

    def test_dropout_eval_mode_identity(self, rng):
        layer = Dropout(0.5, np.random.default_rng(0))
        x = rng.standard_normal((4, 8))
        assert np.array_equal(layer.forward(x, train=False), x)

    def test_dropout_scales_at_train(self):
        layer = Dropout(0.5, np.random.default_rng(0))
        x = np.ones((100, 100))
        out = layer.forward(x, train=True)
        # inverted dropout preserves the expectation
        assert out.mean() == pytest.approx(1.0, abs=0.05)

    def test_dropout_invalid_rate(self):
        with pytest.raises(ValueError):
            Dropout(1.0, np.random.default_rng(0))

    def test_flatten_roundtrip(self, rng):
        layer = Flatten()
        x = rng.standard_normal((2, 3, 4))
        out = layer.forward(x)
        assert out.shape == (2, 12)
        assert layer.backward(out).shape == (2, 3, 4)

    def test_conv_output_shape(self, rng):
        conv = Conv2D(3, 8, 3, np.random.default_rng(1), stride=2, pad=1)
        out = conv.forward(rng.standard_normal((2, 3, 16, 16)))
        assert out.shape == (2, 8, 8, 8)

    def test_conv_channel_mismatch(self, rng):
        conv = Conv2D(3, 8, 3, np.random.default_rng(1))
        with pytest.raises(ValueError):
            conv.forward(rng.standard_normal((1, 2, 8, 8)))

    def test_conv_too_small_input(self, rng):
        conv = Conv2D(1, 1, 5, np.random.default_rng(1))
        with pytest.raises(ValueError):
            conv.forward(rng.standard_normal((1, 1, 3, 3)))

    def test_backward_before_forward_asserts(self):
        with pytest.raises(AssertionError):
            ReLU().backward(np.ones((1, 2)))


class TestFlatParameters:
    def test_roundtrip(self, rng):
        net = make_mlp(8, 4, hidden=(6,), seed=3)
        vec = net.param_vector()
        net.set_param_vector(np.zeros_like(vec))
        assert np.allclose(net.param_vector(), 0.0)
        net.set_param_vector(vec)
        assert np.allclose(net.param_vector(), vec)

    def test_n_params_consistent(self):
        net = make_mlp(8, 4, hidden=(6,), seed=3)
        assert net.param_vector().size == net.n_params
        assert net.grad_vector().size == net.n_params

    def test_wrong_size_rejected(self):
        net = make_mlp(8, 4, hidden=(6,), seed=3)
        with pytest.raises(ValueError):
            net.set_param_vector(np.zeros(3))

    def test_width_multiplier_grows_params(self):
        base = make_mlp(32, 10, hidden=(64,), width_multiplier=1, seed=0)
        wide = make_mlp(32, 10, hidden=(64,), width_multiplier=4, seed=0)
        assert wide.n_params > 3 * base.n_params

    def test_lstm_flat_roundtrip(self, rng):
        net = make_lstm(20, 4, embed_dim=6, hidden_dim=8, seed=5)
        vec = net.param_vector()
        net.set_param_vector(vec * 2)
        assert np.allclose(net.param_vector(), vec * 2)

    def test_seeded_factories_identical(self):
        a = make_mlp(16, 4, seed=9).param_vector()
        b = make_mlp(16, 4, seed=9).param_vector()
        assert np.array_equal(a, b)


def full_backward_grad(net, x, y):
    """The per-layer path: backward through every layer, then concatenate."""
    for layer in net.layers:
        layer.zero_grads()
    _, dlogits = softmax_cross_entropy(net.forward(x, train=True), y)
    grad = dlogits
    for layer in reversed(net.layers):
        grad = layer.backward(grad)
    return np.concatenate([g.ravel() for layer in net.layers for g in layer.grads]).astype(
        np.float64
    )


class TestFlatBuffers:
    def test_vectors_are_copies(self, rng):
        net = make_mlp(8, 4, hidden=(6,), seed=3)
        net.batch_grad(rng.standard_normal((5, 8)), rng.integers(0, 4, 5))
        params, grads = net.param_vector(), net.grad_vector()
        for vec in (params, grads):
            for layer in net.layers:
                for arr in layer.params + layer.grads:
                    assert not np.shares_memory(vec, arr)
        params_before, grads_before = params.copy(), grads.copy()
        params += 1.0
        grads += 1.0
        assert np.array_equal(net.param_vector(), params_before)
        assert np.array_equal(net.grad_vector(), grads_before)

    def test_layers_view_the_buffer(self):
        net = make_mlp(8, 4, hidden=(6,), seed=3)
        net.set_param_vector(np.arange(net.n_params, dtype=np.float64))
        first = net.layers[0]
        assert first.W is first.params[0] and first.b is first.params[1]
        assert first.W[0, 0] == 0.0 and first.b[0] == first.W.size
        assert net.layers[-1].b[-1] == net.n_params - 1

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_set_param_vector_accepts_float_dtypes(self, dtype):
        net = make_mlp(8, 4, hidden=(6,), seed=3)
        vec = np.random.default_rng(0).standard_normal(net.n_params).astype(dtype)
        net.set_param_vector(vec)
        out = net.param_vector()
        assert out.dtype == np.float64
        assert np.array_equal(out, vec.astype(np.float64))

    def test_set_param_vector_rejects_wrong_shape(self):
        net = make_mlp(8, 4, hidden=(6,), seed=3)
        with pytest.raises(ValueError):
            net.set_param_vector(np.zeros(net.n_params + 1, dtype=np.float32))
        with pytest.raises(ValueError):
            net.set_param_vector(np.zeros((1, net.n_params)))

    @pytest.mark.parametrize("build", ["mlp", "cnn"])
    def test_batch_grad_matches_full_backward(self, build, rng):
        if build == "mlp":
            net = make_mlp(12, 5, hidden=(9, 7), seed=4)
            x = rng.standard_normal((6, 12))
        else:
            net = make_cnn_lite(8, 2, 5, channels=(3, 4), seed=4)
            x = rng.standard_normal((6, 2, 8, 8))
        y = rng.integers(0, 5, 6)
        _, grad = net.batch_grad(x, y)
        assert np.array_equal(grad, full_backward_grad(net, x, y))
        # a second batch starts from zeroed gradients
        x2 = rng.standard_normal(x.shape)
        _, grad2 = net.batch_grad(x2, y)
        assert np.array_equal(grad2, full_backward_grad(net, x2, y))

    def test_backward_stops_at_lowest_parameterised_layer(self, rng):
        gen = np.random.default_rng(6)
        net = Sequential([Flatten(), Dense(12, 6, gen), ReLU(), Dense(6, 3, gen)])
        calls = []
        for i, layer in enumerate(net.layers):
            def spy(dout, need_input_grad=True, _i=i, _backward=layer.backward):
                calls.append((_i, need_input_grad))
                return _backward(dout, need_input_grad=need_input_grad)

            layer.backward = spy
        net.loss_and_grad(rng.standard_normal((4, 3, 4)), rng.integers(0, 3, 4))
        assert calls == [(3, True), (2, True), (1, False)]

    def test_stateless_network(self, rng):
        net = Sequential([Flatten()])
        assert net.n_params == 0 and net.param_vector().shape == (0,)
        loss, grad = net.batch_grad(rng.standard_normal((2, 2, 2)), np.array([0, 1]))
        assert np.isfinite(loss) and grad.shape == (0,)


class TestTrainingBehaviour:
    def test_mlp_learns_blobs(self, rng):
        from repro.mlopt import make_dense_classification

        ds = make_dense_classification(256, 32, 4, seed=6, class_separation=4.0)
        net = make_mlp(32, 4, hidden=(32,), seed=1)
        p = net.param_vector()
        gen = np.random.default_rng(0)
        for _ in range(150):
            rows = gen.choice(256, 32, replace=False)
            net.set_param_vector(p)
            _, g = net.batch_grad(ds.X[rows], ds.y[rows])
            p -= 0.1 * g
        net.set_param_vector(p)
        assert net.accuracy(ds.X, ds.y) > 0.9

    def test_lstm_learns_triggers(self):
        from repro.mlopt import make_sequence_task

        ds = make_sequence_task(n_samples=192, seq_len=8, vocab_size=40, n_classes=3, seed=8)
        net = make_lstm(40, 3, embed_dim=12, hidden_dim=16, seed=2)
        p = net.param_vector()
        gen = np.random.default_rng(1)
        for _ in range(120):
            rows = gen.choice(192, 24, replace=False)
            net.set_param_vector(p)
            _, g = net.batch_grad(ds.tokens[rows], ds.y[rows])
            p -= 0.5 * g
        net.set_param_vector(p)
        assert net.accuracy(ds.tokens, ds.y) > 0.8

    def test_lstm_token_out_of_range(self):
        net = make_lstm(10, 2, seed=0)
        with pytest.raises(IndexError):
            net.forward(np.array([[11]]))

    def test_lstm_invalid_dims(self):
        with pytest.raises(ValueError):
            LSTMClassifier(0, 4, 4, 2, np.random.default_rng(0))
