"""Tensor engine: forward semantics, reverse-mode gradients, SGD, checkpoints."""

import numpy as np
import pytest

from epinmt import model as M
from epinmt import tensor as T

from helpers import check_grad, finite_diff, max_rel_err, FD_TOL, tiny_config


def _rng(seed=0):
    return np.random.default_rng(seed)


class TestMatmul:
    def test_identity(self):
        a = T.tensor([[1.0, 2.0], [3.0, 4.0]])
        out = T.matmul(a, T.tensor(np.eye(2)))
        assert np.array_equal(out.data, [[1, 2], [3, 4]])

    def test_direct_arithmetic(self):
        a = T.tensor([[1.0, 2.0], [3.0, 4.0]])
        b = T.tensor([[5.0, 6.0], [7.0, 8.0]])
        assert np.array_equal(T.matmul(a, b).data, [[19, 22], [43, 50]])

    def test_shape_mismatch_names_both_shapes(self):
        a, b = T.zeros((2, 3)), T.zeros((2, 3))
        with pytest.raises(T.DimensionError, match=r"2, 3"):
            T.matmul(a, b)

    def test_grad_matches_finite_differences(self):
        rng = _rng(1)
        a = T.Tensor(rng.uniform(-1, 1, (3, 3)), grad_enabled=True)
        b = T.Tensor(rng.uniform(-1, 1, (3, 3)), grad_enabled=True)
        # standalone finite-difference oracle, before any reverse pass
        fd_a = finite_diff(lambda: float(np.matmul(a.data, b.data).sum()), a)
        loss = T.reduce_sum(T.matmul(a, b))
        T.backward(loss)
        assert max_rel_err(a.grad, fd_a) < FD_TOL

    def test_batched_grad(self):
        rng = _rng(2)
        a = T.Tensor(rng.uniform(-1, 1, (2, 3, 4)), grad_enabled=True)
        b = T.Tensor(rng.uniform(-1, 1, (4, 5)), grad_enabled=True)
        check_grad(lambda: T.reduce_sum(T.mul(T.matmul(a, b), T.matmul(a, b))), [a, b])


class TestElementwise:
    def test_add_identity(self):
        x = T.tensor([1.0, -2.0, 3.5])
        out = T.add(x, T.zeros((3,)))
        assert np.array_equal(out.data, x.data)

    def test_relu_definition(self):
        assert np.array_equal(T.relu(T.tensor([-1.0, 0.0, 2.0])).data, [0, 0, 2])

    def test_incompatible_shapes(self):
        with pytest.raises(T.DimensionError):
            T.add(T.zeros((2, 3)), T.zeros((4,)))

    @pytest.mark.parametrize("op", [T.mul, None])
    def test_mul_gelu_grads_match_fd(self, op):
        rng = _rng(3)
        x = T.Tensor(rng.uniform(-1, 1, (4, 3)), grad_enabled=True)
        if op is T.mul:
            y = T.Tensor(rng.uniform(-1, 1, (3,)), grad_enabled=True)
            check_grad(lambda: T.reduce_sum(T.mul(x, y)), [x, y])
        else:
            check_grad(lambda: T.reduce_sum(T.gelu(x)), [x])

    def test_broadcast_trailing_alignment(self):
        x = T.tensor(np.ones((2, 3)))
        y = T.tensor([1.0, 2.0, 3.0])
        assert np.array_equal(T.add(x, y).data, [[2, 3, 4], [2, 3, 4]])


class TestLayerNorm:
    def test_constant_row_maps_near_zero(self):
        eps = 1e-5
        x = T.tensor(np.full((1, 8), 3.7))
        out = T.layer_norm(x, T.tensor(np.ones(8)), T.tensor(np.zeros(8)), eps)
        assert np.all(np.abs(out.data) < np.sqrt(eps))

    def test_mean_zero_unit_variance(self):
        rng = _rng(4)
        x = T.tensor(rng.normal(0, 10, (1, 32)))
        out = T.layer_norm(x, T.tensor(np.ones(32)), T.tensor(np.zeros(32)), 1e-5).data
        assert abs(out.mean()) < 1e-9
        assert abs(out.var() - 1.0) < 1e-6

    def test_empty_last_axis_rejected(self):
        with pytest.raises(T.DimensionError):
            T.layer_norm(T.zeros((2, 0)), T.zeros((0,)), T.zeros((0,)))

    def test_grad_matches_fd(self):
        rng = _rng(5)
        x = T.Tensor(rng.uniform(-1, 1, (2, 6)), grad_enabled=True)
        g = T.Tensor(rng.uniform(0.5, 1.5, (6,)), grad_enabled=True)
        b = T.Tensor(rng.uniform(-0.5, 0.5, (6,)), grad_enabled=True)
        check_grad(lambda: T.reduce_sum(T.mul(T.layer_norm(x, g, b),
                                              T.layer_norm(x, g, b))), [x, g, b])


class TestSoftmaxCrossEntropy:
    def test_uniform_logits(self):
        loss = T.softmax_cross_entropy(T.zeros((3, 8)), np.array([0, 3, 7]))
        assert loss.item() == pytest.approx(np.log(8), abs=1e-12)

    def test_saturation(self):
        logits = np.zeros((1, 5))
        logits[0, 2] = 1e3
        loss = T.softmax_cross_entropy(T.tensor(logits), np.array([2]))
        assert loss.item() < 1e-6

    def test_out_of_range_target(self):
        with pytest.raises(IndexError):
            T.softmax_cross_entropy(T.zeros((1, 4)), np.array([4]))

    def test_grad_is_softmax_minus_onehot(self):
        rng = _rng(6)
        logits = T.Tensor(rng.uniform(-1, 1, (3, 5)), grad_enabled=True)
        targets = np.array([1, 0, 4])
        loss = T.softmax_cross_entropy(logits, targets)
        T.backward(loss)
        e = np.exp(logits.data - logits.data.max(axis=1, keepdims=True))
        p = e / e.sum(axis=1, keepdims=True)
        p[np.arange(3), targets] -= 1
        assert np.allclose(logits.grad, p / 3, atol=1e-12)

    def test_grad_matches_fd(self):
        rng = _rng(7)
        logits = T.Tensor(rng.uniform(-1, 1, (4, 6)), grad_enabled=True)
        targets = np.array([0, 5, 2, 2])
        check_grad(lambda: T.softmax_cross_entropy(logits, targets), [logits])


class TestBackward:
    def test_square_gradient(self):
        x = T.Tensor(3.0, grad_enabled=True)
        x.data = x.data.reshape(())
        loss = T.reduce_sum(T.mul(x, x))
        T.backward(loss)
        assert x.grad == pytest.approx(6.0, abs=1e-12)

    def test_disabled_parameter_gets_no_grad(self):
        x = T.Tensor([1.0, 2.0], grad_enabled=True)
        frozen = T.Tensor([3.0, 4.0], grad_enabled=False)
        loss = T.reduce_sum(T.mul(x, frozen))
        T.backward(loss)
        assert x.grad is not None
        assert frozen.grad is None

    def test_non_scalar_loss_rejected(self):
        x = T.Tensor([1.0, 2.0], grad_enabled=True)
        with pytest.raises(T.ContractError):
            T.backward(T.mul(x, x))

    def test_three_layer_composite_matches_fd(self):
        rng = _rng(8)
        ws = [T.Tensor(rng.uniform(-1, 1, (4, 4)), grad_enabled=True) for _ in range(3)]
        x = T.constant(rng.uniform(-1, 1, (2, 4)))

        def loss_fn():
            h = x
            for w in ws:
                h = T.gelu(T.matmul(h, w))
            return T.reduce_sum(T.mul(h, h))

        check_grad(loss_fn, ws)

    def test_accumulation_matches_single_path(self):
        rng = _rng(9)
        data = rng.uniform(-1, 1, (3, 3))
        x1 = T.Tensor(data.copy(), grad_enabled=True)
        loss = T.reduce_sum(T.add(T.mul(x1, x1), T.scale(x1, 2.0)))
        T.backward(loss)
        x2 = T.Tensor(data.copy(), grad_enabled=True)
        # equivalent single-path formulation: x^2 + 2x has gradient 2x + 2
        T.backward(T.reduce_sum(T.add(T.mul(x2, x2), T.scale(x2, 2.0))))
        assert np.allclose(x1.grad, 2 * data + 2, atol=1e-12)
        assert np.array_equal(x1.grad, x2.grad)

    def test_determinism_bitwise(self):
        def run():
            rng = _rng(10)
            w = T.Tensor(rng.uniform(-1, 1, (5, 5)), grad_enabled=True)
            x = T.constant(rng.uniform(-1, 1, (2, 5)))
            loss = T.reduce_sum(T.gelu(T.matmul(x, w)))
            T.backward(loss)
            return w.data.tobytes(), w.grad.tobytes()

        assert run() == run()


class TestSgdStep:
    def _ps(self):
        ps = T.ParameterSet()
        ps["w"] = T.Tensor([1.0], grad_enabled=True)
        ps["w"].grad = np.array([0.5])
        return ps

    def test_zero_lr_bitwise_unchanged(self):
        ps = self._ps()
        before = ps["w"].data.tobytes()
        T.sgd_step(ps, 0.0)
        assert ps["w"].data.tobytes() == before

    def test_direct_arithmetic(self):
        ps = self._ps()
        T.sgd_step(ps, 0.1)
        assert ps["w"].data[0] == pytest.approx(0.95, abs=1e-15)
        assert ps["w"].grad is None

    def test_missing_grad_names_parameter(self):
        ps = T.ParameterSet()
        ps["layer.weight"] = T.Tensor([1.0], grad_enabled=True)
        with pytest.raises(T.ContractError, match="layer.weight"):
            T.sgd_step(ps, 0.1)

    def test_sgd_loop_steps_every_module(self):
        a = T.ParameterSet({"w": T.Tensor([1.0], grad_enabled=True)})
        b = T.ParameterSet({"w": T.Tensor([2.0], grad_enabled=True)})

        def loss_of(c):          # c * (a + b): both gradients are c
            return T.reduce_sum(T.scale(T.add(a["w"], b["w"]), c))

        curve = T.sgd_loop([a, b], loss_of, iter([1.0, 2.0]), 0.1)
        assert curve == pytest.approx([3.0, 5.6], abs=1e-12)
        assert (a["w"].data[0], b["w"].data[0]) == pytest.approx((0.7, 1.7), abs=1e-12)

    def test_sgd_loop_stops_before_a_nonfinite_step(self):
        ps = T.ParameterSet({"w": T.Tensor([1.0], grad_enabled=True)})
        with pytest.raises(T.ContractError, match="non-finite loss inf at step 1"):
            T.sgd_loop([ps], lambda c: T.reduce_sum(T.scale(ps["w"], c)),
                       [1.0, float("inf")], 0.1)
        assert ps["w"].data[0] == pytest.approx(0.9, abs=1e-12)

    def test_quadratic_loss_decreases(self):
        rng = _rng(11)
        w = T.Tensor(rng.uniform(-1, 1, (4,)), grad_enabled=True)
        target = rng.uniform(-1, 1, (4,))

        def loss():
            d = T.sub(w, T.constant(target))
            return T.reduce_sum(T.mul(d, d))

        before = loss().item()
        T.backward(loss())
        ps = T.ParameterSet({"w": w})
        T.sgd_step(ps, 0.05)
        assert loss().item() < before

    def test_freeze_masking(self):
        frozen = T.Tensor([2.0], grad_enabled=False)
        live = T.Tensor([3.0], grad_enabled=True)
        ps = T.ParameterSet({"frozen": frozen, "live": live})
        before = frozen.data.tobytes()
        for _ in range(3):
            loss = T.reduce_sum(T.mul(T.mul(live, live), frozen))
            T.backward(loss)
            T.sgd_step(ps, 0.01)
        assert frozen.data.tobytes() == before
        assert frozen.grad is None


class TestParameterSet:
    def test_frozen_view_shares_data(self):
        ps = T.ParameterSet({"w": T.Tensor([1.0, 2.0], grad_enabled=True)})
        view = ps.frozen_view()
        assert view["w"].data is ps["w"].data
        assert not view["w"].grad_enabled

    def test_structural_compatibility(self):
        a = T.ParameterSet({"w": T.zeros((2, 3)), "b": T.zeros((3,))})
        b = T.ParameterSet({"w": T.zeros((2, 3)), "b": T.zeros((3,))})
        c = T.ParameterSet({"w": T.zeros((3, 2)), "b": T.zeros((3,))})
        assert a.structurally_compatible(b)
        assert not a.structurally_compatible(c)

    def test_checkpoint_roundtrip_lossless(self, tmp_path):
        """Any ordered ParameterSet survives the checkpoint format exactly."""
        rng = _rng(12)
        ps = T.ParameterSet({
            "a.w": T.Tensor(rng.uniform(-1, 1, (3, 4)), grad_enabled=True),
            "a.b": T.Tensor(rng.uniform(-1, 1, (4,)), grad_enabled=True),
        })
        path = tmp_path / "ckpt.json"
        M.save_lm(M.LanguageModel(tiny_config(), ps), path)
        loaded = M.load_lm(path).params
        assert list(loaded) == list(ps)
        for k in ps:
            assert np.array_equal(loaded[k].data, ps[k].data)
            assert loaded[k].data.dtype == np.float64
