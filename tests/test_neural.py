"""Network forward/backward correctness, optimizer arithmetic, serialization."""

import math

import numpy as np
import pytest

from rlapso.neural import (
    LEAKY_SLOPE,
    AdamState,
    GradientTape,
    Mlp,
    WeightsFormatError,
    WeightsShapeError,
    WeightsTruncatedError,
    adam_update,
    load_weights,
    save_weights,
    soft_update,
)


def zero_net(dims, activation="tanh"):
    n_params = sum(o * i + o for i, o in zip(dims[:-1], dims[1:]))
    return Mlp(dims, np.zeros(n_params), activation)


def finite_difference(net, x, out_grad, param, index, eps=1e-5):
    """Central-difference derivative of sum(out_grad * net(x)) wrt one parameter."""
    original = param[index]
    param[index] = original + eps
    f_plus = float(np.sum(out_grad * net.forward(x)))
    param[index] = original - eps
    f_minus = float(np.sum(out_grad * net.forward(x)))
    param[index] = original
    return (f_plus - f_minus) / (2.0 * eps)


def reference_backward(net, x, out_grad):
    """Parameter and input gradients of a tanh-output net from freshly
    allocated arrays, with the textbook derivative formulas."""
    inputs, pre_acts, a = [], [], x
    for k, (w, b) in enumerate(zip(net.weights, net.biases)):
        inputs.append(a)
        z = a @ w.T + b
        pre_acts.append(z)
        a = np.where(z > 0.0, z, LEAKY_SLOPE * z) if k < net.n_layers - 1 else np.tanh(z)
    w_grads, b_grads = [None] * net.n_layers, [None] * net.n_layers
    upstream = out_grad
    for k in reversed(range(net.n_layers)):
        if k == net.n_layers - 1:
            dz = upstream * (1.0 - a**2)
        else:
            dz = np.where(pre_acts[k] > 0.0, upstream, LEAKY_SLOPE * upstream)
        w_grads[k], b_grads[k] = dz.T @ inputs[k], dz.sum(axis=0)
        upstream = dz @ net.weights[k]
    return np.concatenate([g.ravel() for g in w_grads + b_grads]), upstream


def check_gradients(net, rng, probes=100, tol=1e-5):
    x = rng.uniform(-1.0, 1.0, net.layer_dims[0])
    out_grad = rng.uniform(-1.0, 1.0, net.layer_dims[-1])
    tape = GradientTape()
    net.forward(x, tape)
    grads, input_grad = net.backward(tape, out_grad)
    for _ in range(probes):
        layer = int(rng.integers(net.n_layers))
        if rng.random() < 0.8:
            param = net.weights[layer]
            analytic = grads.weights[layer]
        else:
            param = net.biases[layer]
            analytic = grads.biases[layer]
        index = tuple(int(rng.integers(s)) for s in param.shape)
        numeric = finite_difference(net, x, out_grad, param, index)
        denom = max(abs(analytic[index]), abs(numeric), 1e-6)
        assert abs(analytic[index] - numeric) / denom < tol
    # input gradient via the same oracle
    for d in range(net.layer_dims[0]):
        numeric = finite_difference(net, x, out_grad, x, d)
        denom = max(abs(input_grad[d]), abs(numeric), 1e-6)
        assert abs(input_grad[d] - numeric) / denom < tol


class TestForward:
    def test_zero_weights_tanh_gives_zeros(self):
        net = zero_net([4, 8, 3], "tanh")
        assert np.array_equal(net.forward(np.ones(4)), np.zeros(3))

    def test_single_layer_identity(self):
        net = Mlp([1, 1], np.array([2.0, 0.0]), "identity")  # weight, then bias
        assert net.forward(np.array([3.0]))[0] == 6.0

    def test_forward_is_pure_and_deterministic(self):
        net = Mlp.init([5, 7, 2], "tanh", np.random.default_rng(0))
        x = np.random.default_rng(1).uniform(-1, 1, 5)
        snapshot = [w.copy() for w in net.weights]
        a = net.forward(x)
        b = net.forward(x)
        assert np.array_equal(a, b)
        for w0, w1 in zip(snapshot, net.weights):
            assert np.array_equal(w0, w1)

    def test_batched_forward_matches_per_row(self):
        net = Mlp.init([4, 6, 3], "tanh", np.random.default_rng(2))
        xs = np.random.default_rng(3).uniform(-1, 1, (10, 4))
        batched = net.forward(xs)
        rows = np.stack([net.forward(x) for x in xs])
        # BLAS batches sum in a different order than single-row matvecs
        assert np.allclose(batched, rows, rtol=1e-13, atol=1e-15)

    def test_dimension_mismatch_rejected(self):
        net = zero_net([4, 2])
        with pytest.raises(ValueError, match="input width"):
            net.forward(np.zeros(5))


class TestBackward:
    def test_single_layer_weight_gradient(self):
        # f(x) = w*x, x = 3, dL/dy = 1 -> dL/dw = 3
        net = Mlp([1, 1], np.array([0.5, 0.0]), "identity")
        tape = GradientTape()
        net.forward(np.array([3.0]), tape)
        grads, input_grad = net.backward(tape, np.array([1.0]))
        assert grads.weights[0][0, 0] == 3.0
        assert input_grad[0] == 0.5

    def test_leaky_negative_branch_scales_gradient(self):
        # hidden pre-activation is negative, so the 0.01 slope applies
        net = Mlp([1, 1, 1], np.array([1.0, 1.0, 0.0, 0.0]), "identity")  # weights, biases
        tape = GradientTape()
        net.forward(np.array([-3.0]), tape)
        _, input_grad = net.backward(tape, np.array([1.0]))
        assert input_grad[0] == pytest.approx(0.01, rel=1e-12)

    def test_backward_without_forward_rejected(self):
        net = zero_net([2, 2])
        with pytest.raises(RuntimeError, match="forward"):
            net.backward(GradientTape(), np.zeros(2))

    @pytest.mark.parametrize("dims,act", [
        ([5, 8, 3], "tanh"),                      # 2 weight layers
        ([5, 8, 8, 6, 3], "tanh"),                # 4 weight layers
        ([6, 16, 16, 8, 8, 4, 1], "identity"),    # 6 weight layers
    ])
    def test_gradients_match_finite_differences(self, dims, act):
        rng = np.random.default_rng(len(dims) * 1000 + dims[-1])
        net = Mlp.init(dims, act, rng)
        check_gradients(net, rng)

    def test_actor_and_critic_shapes_match_finite_differences(self):
        rng = np.random.default_rng(99)
        actor = Mlp.init([15, 64, 64, 20], "tanh", rng)
        critic = Mlp.init([35, 128, 128, 64, 64, 1], "identity", rng)
        check_gradients(actor, rng)
        check_gradients(critic, rng)

    def test_batch_gradients_sum_over_rows(self):
        net = Mlp.init([3, 5, 2], "tanh", np.random.default_rng(5))
        xs = np.random.default_rng(6).uniform(-1, 1, (4, 3))
        gs = np.random.default_rng(7).uniform(-1, 1, (4, 2))
        tape = GradientTape()
        net.forward(xs, tape)
        batch_grads, batch_input = net.backward(tape, gs)
        acc_w = [np.zeros_like(w) for w in net.weights]
        for x, g in zip(xs, gs):
            t = GradientTape()
            net.forward(x, t)
            grads, _ = net.backward(t, g)
            for a, b in zip(acc_w, grads.weights):
                a += b
        for a, b in zip(acc_w, batch_grads.weights):
            assert np.allclose(a, b, rtol=1e-12, atol=1e-14)
        assert batch_input.shape == (4, 3)


class TestFlatLayout:
    def test_params_are_weights_then_biases_row_major(self):
        net = Mlp.init([3, 4, 2], "tanh", np.random.default_rng(15))
        expected = np.concatenate([w.ravel() for w in net.weights] + list(net.biases))
        assert np.array_equal(net.params, expected)
        net.weights[1][1, 2] = 7.0
        assert net.params[12 + 4 + 2] == 7.0  # a view, not a copy

    def test_weight_file_payload_is_params(self, tmp_path):
        net = Mlp.init([3, 4, 2], "tanh", np.random.default_rng(16))
        path = tmp_path / "w.bin"
        save_weights(net, path)
        assert path.read_bytes()[-8 * net.params.size:] == net.params.astype("<f8").tobytes()

    def test_clone_owns_its_params(self):
        net = Mlp.init([3, 4, 2], "tanh", np.random.default_rng(17))
        copy = net.clone()
        copy.params[:] = 0.0
        assert not np.array_equal(net.params, copy.params)

    def test_gradients_are_views_into_one_buffer(self):
        net = Mlp.init([3, 5, 2], "tanh", np.random.default_rng(18))
        tape = GradientTape()
        net.forward(np.random.default_rng(19).uniform(-1, 1, (4, 3)), tape)
        grads, _ = net.backward(tape, np.ones((4, 2)))
        expected = np.concatenate([g.ravel() for g in grads.weights] + list(grads.biases))
        assert np.array_equal(grads.params, expected)
        first = grads.params.copy()
        reused, _ = net.backward(tape, np.ones((4, 2)))
        assert reused is grads
        assert np.array_equal(reused.params, first)

    def test_input_gradient_alone_matches_full_backward(self):
        net = Mlp.init([6, 8, 8, 1], "identity", np.random.default_rng(20))
        tape = GradientTape()
        net.forward(np.random.default_rng(21).uniform(-1, 1, (5, 6)), tape)
        _, full = net.backward(tape, np.full((5, 1), 0.2))
        full = full.copy()  # the next pass on this tape overwrites it
        grads, alone = net.backward(tape, np.full((5, 1), 0.2), param_grads=False)
        assert grads is None
        assert np.array_equal(full, alone)

    @pytest.mark.parametrize("batch", [None, 5])
    def test_parameter_gradients_do_not_depend_on_input_gradient(self, batch):
        net = Mlp.init([6, 8, 8, 2], "tanh", np.random.default_rng(22))
        shape = (6,) if batch is None else (batch, 6)
        tape = GradientTape()
        net.forward(np.random.default_rng(23).uniform(-1, 1, shape), tape)
        out_grad = np.full(shape[:-1] + (2,), 0.3)
        with_input, full = net.backward(tape, out_grad)
        with_input = with_input.params.copy()  # the next pass on this tape overwrites it
        without, skipped = net.backward(tape, out_grad, input_grad=False)
        assert skipped is None and full.shape == shape
        assert np.array_equal(with_input, without.params)

    def test_taped_passes_across_batch_shapes_match_untaped(self):
        net = Mlp.init([4, 6, 6, 3], "tanh", np.random.default_rng(24))
        rng = np.random.default_rng(25)
        tape = GradientTape()
        for batch in (4, 7, 4):
            x = rng.uniform(-1, 1, (batch, 4))
            out_grad = rng.uniform(-1, 1, (batch, 3))
            taped = net.forward(x, tape)
            grads, input_grad = net.backward(tape, out_grad)
            expected_grads, expected_input = reference_backward(net, x, out_grad)
            assert np.array_equal(taped, net.forward(x))
            assert np.array_equal(grads.params, expected_grads)
            assert np.array_equal(input_grad, expected_input)

    def test_wrong_weight_shape_rejected(self):
        with pytest.raises(ValueError, match=r"layer dims \[2, 3\] need 9 float64 parameters"):
            Mlp([2, 3], np.zeros(8), "tanh")


class TestAdam:
    def test_zero_gradients_do_not_move_parameters(self):
        net = Mlp.init([3, 4, 2], "tanh", np.random.default_rng(8))
        snapshot = [w.copy() for w in net.weights]
        grads = Mlp(net.layer_dims, np.zeros_like(net.params), net.output_activation)
        adam_update(net, grads, AdamState(net), lr=0.1)
        for w0, w1 in zip(snapshot, net.weights):
            assert np.array_equal(w0, w1)

    def test_constant_gradient_moves_against_its_sign(self):
        net = Mlp([1, 1], np.zeros(2), "identity")
        state = AdamState(net)
        grads = Mlp([1, 1], np.array([2.5, -2.5]), "identity")  # weight, then bias
        for _ in range(20):
            adam_update(net, grads, state, lr=0.01)
        assert net.weights[0][0, 0] < 0.0
        assert net.biases[0][0] > 0.0

    def test_three_steps_match_hand_arithmetic(self):
        net = Mlp([1, 1], np.array([0.2, 0.1]), "identity")
        state = AdamState(net)
        grads = Mlp([1, 1], np.array([1.0, 0.5]), "identity")  # weight, then bias
        lr, b1, b2, eps = 0.1, 0.9, 0.999, 1e-8

        expect = {"w": 0.2, "b": 0.1}
        moments = {"w": [0.0, 0.0], "b": [0.0, 0.0]}
        gval = {"w": 1.0, "b": 0.5}
        for t in range(1, 4):
            for key in ("w", "b"):
                m, v = moments[key]
                m = m * b1 + (1.0 - b1) * gval[key]
                v = v * b2 + (1.0 - b2) * gval[key] * gval[key]
                moments[key] = [m, v]
                expect[key] -= lr * (m / (1.0 - b1**t)) / (math.sqrt(v / (1.0 - b2**t)) + eps)
            adam_update(net, grads, state, lr=lr)
            assert net.weights[0][0, 0] == pytest.approx(expect["w"], rel=1e-12)
            assert net.biases[0][0] == pytest.approx(expect["b"], rel=1e-12)

    def test_shape_mismatch_rejected(self):
        net = zero_net([2, 2])
        grads = Mlp([3, 3], np.zeros(12), "identity")
        with pytest.raises(ValueError, match="shape"):
            adam_update(net, grads, AdamState(net), lr=0.1)


class TestSoftUpdate:
    def test_tau_one_copies_source(self):
        rng = np.random.default_rng(10)
        source = Mlp.init([3, 4, 2], "tanh", rng)
        target = Mlp.init([3, 4, 2], "tanh", rng)
        soft_update(target, source, 1.0)
        for t_arr, s_arr in zip(target.weights, source.weights):
            assert np.array_equal(t_arr, s_arr)

    def test_tau_zero_leaves_target(self):
        rng = np.random.default_rng(11)
        source = Mlp.init([3, 4, 2], "tanh", rng)
        target = Mlp.init([3, 4, 2], "tanh", rng)
        before = [w.copy() for w in target.weights]
        soft_update(target, source, 0.0)
        for b_arr, t_arr in zip(before, target.weights):
            assert np.array_equal(b_arr, t_arr)

    @pytest.mark.parametrize("scratch", [None, np.empty(9)])
    def test_tau_half_is_midpoint(self, scratch):
        rng = np.random.default_rng(12)
        source = Mlp.init([2, 3], "tanh", rng)
        target = Mlp.init([2, 3], "tanh", rng)
        expected = 0.5 * source.weights[0] + 0.5 * target.weights[0]
        soft_update(target, source, 0.5, scratch)
        assert np.allclose(target.weights[0], expected, rtol=0, atol=1e-12)


class TestSerialization:
    def test_round_trip_bit_exact(self, tmp_path):
        net = Mlp.init([15, 64, 64, 20], "tanh", np.random.default_rng(13))
        path = tmp_path / "actor.bin"
        save_weights(net, path)
        loaded = load_weights(path)
        assert loaded.layer_dims == net.layer_dims
        assert loaded.output_activation == net.output_activation
        for a, b in zip(loaded.weights + loaded.biases, net.weights + net.biases):
            assert np.array_equal(a, b)

    def test_wrong_magic_rejected(self, tmp_path):
        net = zero_net([2, 2])
        path = tmp_path / "w.bin"
        save_weights(net, path)
        data = bytearray(path.read_bytes())
        data[:6] = b"NOTME1"
        path.write_bytes(bytes(data))
        with pytest.raises(WeightsFormatError, match="magic"):
            load_weights(path)

    def test_truncated_payload_rejected(self, tmp_path):
        net = Mlp.init([3, 4, 4, 4, 2], "tanh", np.random.default_rng(14))
        path = tmp_path / "w.bin"
        save_weights(net, path)
        data = path.read_bytes()
        path.write_bytes(data[: len(data) - 16])  # drop the tail of the last bias
        with pytest.raises(WeightsTruncatedError, match="payload"):
            load_weights(path)

    def test_header_without_payload_rejected(self, tmp_path):
        path = tmp_path / "w.bin"
        path.write_bytes(b"RLAMW1")
        with pytest.raises(WeightsTruncatedError):
            load_weights(path)

    def test_trailing_garbage_rejected(self, tmp_path):
        net = zero_net([2, 2])
        path = tmp_path / "w.bin"
        save_weights(net, path)
        path.write_bytes(path.read_bytes() + b"\x00" * 8)
        with pytest.raises(WeightsFormatError, match="trailing"):
            load_weights(path)

    @pytest.mark.parametrize("value", [np.nan, np.inf])
    def test_non_finite_parameters_rejected(self, tmp_path, value):
        net = Mlp.init([3, 4, 2], "tanh", np.random.default_rng(15))
        net.params[[0, 17]] = value  # one weight, one bias
        path = tmp_path / "w.bin"
        save_weights(net, path)
        with pytest.raises(WeightsFormatError, match="2 of 26 parameters are not finite"):
            load_weights(path)

    def test_zero_layer_count_rejected(self, tmp_path):
        import struct

        path = tmp_path / "w.bin"
        path.write_bytes(b"RLAMW1" + struct.pack("<I", 0) + struct.pack("<I", 3) + b"\x00")
        with pytest.raises(WeightsShapeError, match="layer count"):
            load_weights(path)

    def test_unknown_activation_tag_rejected(self, tmp_path):
        net = zero_net([2, 2])
        path = tmp_path / "w.bin"
        save_weights(net, path)
        data = bytearray(path.read_bytes())
        data[6 + 4 + 8] = 7  # activation tag byte
        path.write_bytes(bytes(data))
        with pytest.raises(WeightsFormatError, match="activation"):
            load_weights(path)
