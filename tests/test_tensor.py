"""Tensor engine: forward semantics, reverse-mode gradients, SGD, checkpoints."""

import os
import subprocess
import sys

import numpy as np
import pytest

from epinmt import model as M
from epinmt import pipeline as P
from epinmt import tensor as T
from epinmt.errors import InternalError

import reference_ops as R
from helpers import (check_grad, child_env, finite_diff, max_rel_err, FD_TOL,
                     tiny_config)


def _rng(seed=0):
    return np.random.default_rng(seed)


class TestMatmul:
    def test_identity(self):
        a = T.Tensor([[1.0, 2.0], [3.0, 4.0]])
        out = T.matmul(a, T.Tensor(np.eye(2)))
        assert np.array_equal(out.data, [[1, 2], [3, 4]])

    def test_direct_arithmetic(self):
        a = T.Tensor([[1.0, 2.0], [3.0, 4.0]])
        b = T.Tensor([[5.0, 6.0], [7.0, 8.0]])
        assert np.array_equal(T.matmul(a, b).data, [[19, 22], [43, 50]])

    def test_shape_mismatch_names_both_shapes(self):
        a, b = T.Tensor(np.zeros((2, 3))), T.Tensor(np.zeros((2, 3)))
        with pytest.raises(InternalError, match=r"inner dims disagree for \(2, 3\) x \(2, 3\)"):
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
        x = T.Tensor([1.0, -2.0, 3.5])
        out = T.add(x, T.Tensor(np.zeros((3,))))
        assert np.array_equal(out.data, x.data)

    def test_relu_definition(self):
        assert np.array_equal(T.relu(T.Tensor([-1.0, 0.0, 2.0])).data, [0, 0, 2])

    def test_incompatible_shapes(self):
        with pytest.raises(InternalError, match="add: incompatible shapes"):
            T.add(T.Tensor(np.zeros((2, 3))), T.Tensor(np.zeros((4,))))

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
        x = T.Tensor(np.ones((2, 3)))
        y = T.Tensor([1.0, 2.0, 3.0])
        assert np.array_equal(T.add(x, y).data, [[2, 3, 4], [2, 3, 4]])


# Run in a fresh interpreter, so that GELU loads erf before anything imports
# scipy.special; prints the scipy modules left in sys.modules at that point.
_ERF_AGAINST_SCIPY = """
import sys
import numpy as np
from epinmt import tensor as T
T.gelu(T.Tensor(np.ones(3)))
print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))
tiny = np.finfo(np.float64).smallest_subnormal
x = np.concatenate([
    [0.0, -0.0, np.inf, -np.inf, np.nan, tiny, -tiny, 1e3 * tiny, -1e3 * tiny,
     np.finfo(np.float64).tiny, -np.finfo(np.float64).tiny],
    *(c + np.linspace(-1e-3, 1e-3, 2001) for c in (-8.0, -1.0, 1.0, 8.0)),
    # lab scale: GELU inputs scaled by 1/sqrt(2)
    np.random.default_rng(0).normal(0.0, 3.0, 100_000) * T._INV_SQRT2])
ours = T._erf()(x)
import scipy.special, scipy.stats
assert ours.tobytes() == scipy.special.erf(x).tobytes()
assert scipy.stats.norm.cdf(0.0) == 0.5
print(T._erf() is scipy.special.erf)
"""


class TestErf:
    def test_is_scipys_erf_bit_for_bit(self):
        proc = subprocess.run([sys.executable, "-c", _ERF_AGAINST_SCIPY],
                              env=child_env(), capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.split("\n")[:2] == ["[]", "True"]

    def test_missing_extension_names_the_scipy_version(self, monkeypatch):
        import importlib.machinery
        import importlib.metadata
        import importlib.util
        # a scipy package directory without the extension
        monkeypatch.delitem(sys.modules, "scipy.special._special_ufuncs", raising=False)
        monkeypatch.setattr(importlib.util, "find_spec", lambda name: (
            importlib.machinery.ModuleSpec(name, None, is_package=True)))
        with pytest.raises(ImportError, match=importlib.metadata.version("scipy")):
            T._erf.__wrapped__()


class TestLayerNorm:
    def test_constant_row_maps_near_zero(self):
        eps = 1e-5
        x = T.Tensor(np.full((1, 8), 3.7))
        out = T.layer_norm(x, T.Tensor(np.ones(8)), T.Tensor(np.zeros(8)), eps)
        assert np.all(np.abs(out.data) < np.sqrt(eps))

    def test_mean_zero_unit_variance(self):
        rng = _rng(4)
        x = T.Tensor(rng.normal(0, 10, (1, 32)))
        out = T.layer_norm(x, T.Tensor(np.ones(32)), T.Tensor(np.zeros(32)), 1e-5).data
        assert abs(out.mean()) < 1e-9
        assert abs(out.var() - 1.0) < 1e-6

    def test_empty_last_axis_rejected(self):
        with pytest.raises(InternalError, match="layer_norm: empty last axis"):
            T.layer_norm(T.Tensor(np.zeros((2, 0))), T.Tensor(np.zeros(0)),
                         T.Tensor(np.zeros(0)))

    def test_grad_matches_fd(self):
        rng = _rng(5)
        x = T.Tensor(rng.uniform(-1, 1, (2, 6)), grad_enabled=True)
        g = T.Tensor(rng.uniform(0.5, 1.5, (6,)), grad_enabled=True)
        b = T.Tensor(rng.uniform(-0.5, 0.5, (6,)), grad_enabled=True)
        check_grad(lambda: T.reduce_sum(T.mul(T.layer_norm(x, g, b),
                                              T.layer_norm(x, g, b))), [x, g, b])


class TestSoftmaxCrossEntropy:
    def test_uniform_logits(self):
        loss = T.softmax_cross_entropy(T.Tensor(np.zeros((3, 8))), np.array([0, 3, 7]))
        assert loss.item() == pytest.approx(np.log(8), abs=1e-12)

    def test_saturation(self):
        logits = np.zeros((1, 5))
        logits[0, 2] = 1e3
        loss = T.softmax_cross_entropy(T.Tensor(logits), np.array([2]))
        assert loss.item() < 1e-6

    def test_out_of_range_target(self):
        with pytest.raises(IndexError):
            T.softmax_cross_entropy(T.Tensor(np.zeros((1, 4))), np.array([4]))

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


# all-zero operands of the shapes the contract tests need
_VEC4, _MAT44 = T.Tensor(np.zeros(4)), T.Tensor(np.zeros((4, 4)))


class TestFusedOpContracts:
    @pytest.mark.parametrize("call", [
        lambda x: T.linear(x, T.Tensor(np.zeros((3, 4)))),
        lambda x: R.attention(x, x, T.Tensor(np.zeros((2, 5, 4))), None, 2),
        lambda x: R.attention(x, *[T.Tensor(np.zeros((1, 3, 4)))] * 2, None, 2),
        lambda x: R.attention(x, x, x, None, 3),
        lambda x: T.masked_cross_entropy(x, np.zeros((2, 2), dtype=int),
                                         np.ones((2, 3), dtype=bool)),
        # a self-attention block without K/V weights, a cross block with them
        lambda x: T.attn_block(x, _VEC4, _VEC4, *[None] * 3, _MAT44, None, 2),
        lambda x: T.attn_block(x, _VEC4, _VEC4, *[_MAT44] * 4, None, 2, (x, x)),
        lambda x: T.attn_block(x, _VEC4, _VEC4, *[_MAT44] * 4, None, 3),
        lambda x: T.ff_block(x, _VEC4, _VEC4, T.Tensor(np.zeros((3, 5))),
                             T.Tensor(np.zeros(5)), T.Tensor(np.zeros((5, 4))), _VEC4)])
    def test_incompatible_shapes_rejected(self, call):
        with pytest.raises(InternalError,
                           match="^(linear|attention|masked_cross_entropy|attn_block|ff_block): "):
            call(T.Tensor(np.zeros((2, 3, 4))))

    def test_kv_cache_only_for_self_attention_without_gradients(self):
        x, bufs = T.Tensor(np.zeros((2, 3, 4))), (np.zeros((2, 5, 4)), np.zeros((2, 5, 4)), 0)
        trained = T.Tensor(np.zeros((4, 4)), grad_enabled=True)
        for call in (lambda: T.attn_block(x, _VEC4, _VEC4, trained, *[_MAT44] * 3, None, 2,
                                          cache=bufs),
                     lambda: T.attn_block(x, _VEC4, _VEC4, _MAT44, None, None, _MAT44, None, 2,
                                          (x, x), cache=bufs)):
            with pytest.raises(InternalError, match="a K/V cache is for self-attention"):
                call()
        T.attn_block(x, _VEC4, _VEC4, *[_MAT44] * 4, None, 2, cache=bufs)

    def test_out_of_range_ids_rejected(self):
        with pytest.raises(IndexError):
            T.embed(T.Tensor(np.zeros((4, 2))), np.array([[0, 4]]), 1.0, np.zeros((2, 2)))
        with pytest.raises(IndexError):
            T.masked_cross_entropy(T.Tensor(np.zeros((1, 2, 4))), np.array([[1, 4]]),
                                   np.array([[True, True]]))


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
        with pytest.raises(InternalError,
                           match=r"backward expects a scalar loss, got shape \(2,\)"):
            T.backward(T.mul(x, x))

    def test_three_layer_composite_matches_fd(self):
        rng = _rng(8)
        ws = [T.Tensor(rng.uniform(-1, 1, (4, 4)), grad_enabled=True) for _ in range(3)]
        x = T.Tensor(rng.uniform(-1, 1, (2, 4)))

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

    def test_same_tensor_twice_in_add_gets_twice_the_gradient(self):
        rng = _rng(11)
        a = T.Tensor(rng.uniform(-1, 1, (3, 4)), grad_enabled=True)
        w = rng.uniform(-1, 1, (3, 4))
        T.backward(T.reduce_sum(T.mul(T.add(a, a), T.Tensor(w))))
        assert np.array_equal(a.grad, 2 * w)

    def test_later_backward_leaves_a_shared_gradient_alone(self):
        """`add` hands one gradient buffer to both parents; accumulating into
        one parent afterwards must not change the other's gradient."""
        rng = _rng(12)
        a = T.Tensor(rng.uniform(-1, 1, (3, 4)), grad_enabled=True)
        b = T.Tensor(rng.uniform(-1, 1, (3, 4)), grad_enabled=True)
        w1, w2 = rng.uniform(-1, 1, (2, 3, 4))
        T.backward(T.reduce_sum(T.mul(T.add(a, b), T.Tensor(w1))))
        before = b.grad.copy()
        T.backward(T.reduce_sum(T.mul(a, T.Tensor(w2))))
        assert np.array_equal(a.grad, w1 + w2)
        assert np.array_equal(b.grad, before)

    def test_determinism_bitwise(self):
        def run():
            rng = _rng(10)
            w = T.Tensor(rng.uniform(-1, 1, (5, 5)), grad_enabled=True)
            x = T.Tensor(rng.uniform(-1, 1, (2, 5)))
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
        with pytest.raises(InternalError, match="layer.weight"):
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
        with pytest.raises(InternalError, match="non-finite loss inf at step 1"):
            T.sgd_loop([ps], lambda c: T.reduce_sum(T.scale(ps["w"], c)),
                       [1.0, float("inf")], 0.1)
        assert ps["w"].data[0] == pytest.approx(0.9, abs=1e-12)

    def test_quadratic_loss_decreases(self):
        rng = _rng(11)
        w = T.Tensor(rng.uniform(-1, 1, (4,)), grad_enabled=True)
        target = rng.uniform(-1, 1, (4,))

        def loss():
            d = T.sub(w, T.Tensor(target))
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

    def test_checkpoint_roundtrip_lossless(self, tmp_path):
        """Any ordered ParameterSet survives the checkpoint format exactly."""
        rng = _rng(12)
        ps = T.ParameterSet({
            "a.w": T.Tensor(rng.uniform(-1, 1, (3, 4)), grad_enabled=True),
            "a.b": T.Tensor(rng.uniform(-1, 1, (4,)), grad_enabled=True),
        })
        path = tmp_path / "ckpt.json"
        M.save_model(M.EncoderDecoderModel(tiny_config(), ps, T.ParameterSet()), path)
        loaded = M.load_model(path).encoder
        assert list(loaded) == list(ps)
        for k in ps:
            assert np.array_equal(loaded[k].data, ps[k].data)
            assert loaded[k].data.dtype == np.float64


def _libc() -> str:
    try:
        return os.confstr("CS_GNU_LIBC_VERSION") or "no CS_GNU_LIBC_VERSION"
    except (AttributeError, ValueError, OSError) as e:
        return f"no CS_GNU_LIBC_VERSION ({e})"


def _faults_per_step() -> float:
    """Minor page faults per batch-64 training step (`nll_batch`, `backward`,
    `sgd_step`) at the lab shape, on 64 random pairs of 13 tokens: the mean
    over 5 steps after 2 warm-up steps."""
    import resource   # POSIX only; the test skips off glibc first
    cfg = M.ModelConfig(d_model=24, n_layers=1, n_heads=4, d_ff=48, max_len=16,
                        vocab_size=30)
    model, rng = M.init_model(cfg, _rng(0)), _rng(1)
    srcs, tgts = ([[int(x) for x in rng.integers(4, 30, 13)] for _ in range(64)]
                  for _ in range(2))

    def step():
        T.backward(M.nll_batch(model, srcs, tgts))
        T.sgd_step(model.encoder, 0.01)
        T.sgd_step(model.decoder, 0.01)

    for _ in range(2):   # warm-up
        step()
    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    for _ in range(5):
        step()
    return (resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before) / 5


@pytest.mark.skipif(not _libc().startswith("glibc"),
                    reason=f"the malloc top pad is a glibc setting; this libc: {_libc()}")
@pytest.mark.parametrize("where", ["in_process", "in_a_pool_worker"])
def test_batch64_steps_take_no_page_faults(where):
    """Importing `epinmt.tensor` keeps freed heap in the process, so a
    batch-64 step's arrays of 128 KB or more are not faulted in afresh
    (about 3,400 faults per step without it), in forked workers too."""
    if where == "in_process":
        faults = _faults_per_step()
    else:
        with P._pool(1) as pool:
            faults, = P._results(P._submit(pool, [("faults", _faults_per_step)]))
    assert faults <= 50, f"{faults:.0f} minor page faults per step"
