"""Tensor core: forward values against scipy/manual oracles, gradients
against finite differences, optimizer against a hand-rolled reference."""

import json
import os
import weakref
import zipfile

import numpy as np
import pytest
from scipy.special import expit
from scipy.special import log_softmax as sp_log_softmax
from scipy.special import softmax as sp_softmax

from mrparse import autodiff as ad

from conftest import bilinear, bilinear_label, check_gradients, scalarize

N_TRIALS = 24


def leaf(rng, shape, lo=-2.0, hi=2.0):
    return ad.Tensor(rng.uniform(lo, hi, size=shape), requires_grad=True)


class TestForward:
    def test_softmax_matches_scipy(self):
        rng = np.random.default_rng(0)
        x = rng.normal(size=(5, 7))
        for axis in (0, 1, -1):
            got = ad.softmax(ad.Tensor(x), axis=axis).data
            np.testing.assert_allclose(got, sp_softmax(x, axis=axis), atol=1e-12)

    def test_sigmoid_matches_expit(self):
        x = np.array([-800.0, -5.0, 0.0, 5.0, 800.0])
        got = ad.sigmoid(ad.Tensor(x)).data
        np.testing.assert_allclose(got, expit(x), atol=1e-12)
        assert np.all(np.isfinite(got))

    def test_elu_values(self):
        x = np.array([-2.0, -0.5, 0.5, 3.0])
        want = np.where(x > 0, x, np.exp(x) - 1.0)
        np.testing.assert_allclose(ad.elu(ad.Tensor(x)).data, want, atol=1e-12)

    def test_binary_cross_entropy_value(self):
        p = np.array([0.9, 0.2, 0.5])
        t = np.array([1.0, 0.0, 1.0])
        want = -(np.log(0.9) + np.log(0.8) + np.log(0.5))
        got = ad.binary_cross_entropy(ad.Tensor(p), t).item()
        assert abs(got - want) < 1e-12

    def test_binary_cross_entropy_clips_saturated_probs(self):
        p = np.array([0.0, 1.0])
        t = np.array([1.0, 0.0])
        got = ad.binary_cross_entropy(ad.Tensor(p), t).item()
        assert np.isfinite(got)
        assert abs(got - 2 * -np.log(1e-9)) < 1e-3

    def test_cross_entropy_logits_value(self):
        rng = np.random.default_rng(2)
        logits = rng.normal(size=(6, 5))
        targets = rng.integers(0, 5, size=6)
        want = -sp_log_softmax(logits, axis=-1)[np.arange(6), targets].sum()
        got = ad.cross_entropy_logits(ad.Tensor(logits), targets).item()
        assert abs(got - want) < 1e-10

    def test_matmul_batch_broadcast(self):
        rng = np.random.default_rng(3)
        a = rng.normal(size=(3, 4, 5))
        b = rng.normal(size=(5, 6))
        got = ad.matmul(ad.Tensor(a), ad.Tensor(b)).data
        np.testing.assert_allclose(got, a @ b, atol=1e-12)

    def test_matmul_rejects_vectors(self):
        with pytest.raises(ValueError):
            ad.matmul(ad.Tensor(np.ones(3)), ad.Tensor(np.ones((3, 2))))

    def test_concat_split_roundtrip(self):
        rng = np.random.default_rng(4)
        x = rng.normal(size=(4, 9))
        parts = ad.split(ad.Tensor(x), [2, 4, 3], axis=1)
        back = ad.concat(parts, axis=1)
        np.testing.assert_array_equal(back.data, x)

    def test_dropout_eval_is_identity(self):
        x = ad.Tensor(np.ones((3, 3)), requires_grad=True)
        out = ad.dropout(x, 0.5, np.random.default_rng(0), train=False)
        np.testing.assert_array_equal(out.data, x.data)

    def test_dropout_full_rate_zeroes(self):
        x = ad.Tensor(np.ones(5), requires_grad=True)
        out = ad.dropout(x, 1.0, np.random.default_rng(0))
        np.testing.assert_array_equal(out.data, np.zeros(5))

    def test_dropout_scales_survivors(self):
        rng = np.random.default_rng(5)
        x = ad.Tensor(np.ones(10000))
        out = ad.dropout(x, 0.25, rng).data
        kept = out[out != 0]
        np.testing.assert_allclose(kept, 1.0 / 0.75)
        assert 0.2 < 1.0 - kept.size / 10000 < 0.3


class TestGradients:
    """Finite-difference checks, >= 20 random instances per op."""

    def test_add_sub_mul_broadcast(self):
        for trial in range(N_TRIALS):
            rng = np.random.default_rng(100 + trial)
            a = leaf(rng, (3, 1))
            b = leaf(rng, (4,))
            proj = rng.normal(size=(3, 4))
            check_gradients(lambda: scalarize(ad.add(a, b), proj), [a, b])
            check_gradients(lambda: scalarize(ad.sub(a, b), proj), [a, b])
            check_gradients(lambda: scalarize(ad.mul(a, b), proj), [a, b])

    def test_neg(self):
        for trial in range(N_TRIALS):
            rng = np.random.default_rng(130 + trial)
            a = leaf(rng, (5,))
            proj = rng.normal(size=(5,))
            check_gradients(lambda: scalarize(ad.neg(a), proj), [a])

    def test_matmul_2d(self):
        for trial in range(N_TRIALS):
            rng = np.random.default_rng(200 + trial)
            a = leaf(rng, (3, 4))
            b = leaf(rng, (4, 2))
            proj = rng.normal(size=(3, 2))
            check_gradients(lambda: scalarize(ad.matmul(a, b), proj), [a, b])

    def test_matmul_batched(self):
        for trial in range(N_TRIALS):
            rng = np.random.default_rng(230 + trial)
            a = leaf(rng, (2, 3, 4))
            b = leaf(rng, (4, 3))
            proj = rng.normal(size=(2, 3, 3))
            check_gradients(lambda: scalarize(ad.matmul(a, b), proj), [a, b])

    def test_transpose_reshape(self):
        for trial in range(N_TRIALS):
            rng = np.random.default_rng(260 + trial)
            a = leaf(rng, (3, 4))
            proj_t = rng.normal(size=(4, 3))
            proj_r = rng.normal(size=(12,))
            check_gradients(lambda: scalarize(ad.transpose(a), proj_t), [a])
            check_gradients(lambda: scalarize(ad.reshape(a, (12,)), proj_r), [a])

    def test_concat(self):
        for trial in range(N_TRIALS):
            rng = np.random.default_rng(300 + trial)
            a = leaf(rng, (2, 3))
            b = leaf(rng, (2, 2))
            proj = rng.normal(size=(2, 5))
            check_gradients(lambda: scalarize(ad.concat([a, b], axis=1), proj), [a, b])

    def test_split(self):
        for trial in range(N_TRIALS):
            rng = np.random.default_rng(330 + trial)
            a = leaf(rng, (2, 6))
            p0 = rng.normal(size=(2, 2))
            p1 = rng.normal(size=(2, 4))

            def build():
                lo, hi = ad.split(a, [2, 4], axis=1)
                return ad.add(scalarize(lo, p0), scalarize(hi, p1))

            check_gradients(build, [a])

    def test_stack(self):
        for trial in range(N_TRIALS):
            rng = np.random.default_rng(360 + trial)
            a = leaf(rng, (3,))
            b = leaf(rng, (3,))
            proj = rng.normal(size=(2, 3))
            check_gradients(lambda: scalarize(ad.stack([a, b], axis=0), proj), [a, b])

    def test_rows_with_duplicate_indices(self):
        # duplicates force the scatter-add path
        for trial in range(N_TRIALS):
            rng = np.random.default_rng(400 + trial)
            table = leaf(rng, (7, 3))
            idx = rng.integers(0, 7, size=6)
            idx[1] = idx[0]
            proj = rng.normal(size=(6, 3))
            check_gradients(lambda: scalarize(ad.rows(table, idx), proj), [table])

    def test_pick(self):
        for trial in range(N_TRIALS):
            rng = np.random.default_rng(430 + trial)
            a = leaf(rng, (5, 4))
            idx = rng.integers(0, 4, size=5)
            proj = rng.normal(size=(5,))
            check_gradients(lambda: scalarize(ad.pick(a, idx), proj), [a])

    def test_tanh_sigmoid_exp(self):
        for trial in range(N_TRIALS):
            rng = np.random.default_rng(500 + trial)
            a = leaf(rng, (4, 3))
            proj = rng.normal(size=(4, 3))
            check_gradients(lambda: scalarize(ad.tanh(a), proj), [a])
            check_gradients(lambda: scalarize(ad.sigmoid(a), proj), [a])
            check_gradients(lambda: scalarize(ad.exp(a), proj), [a])

    def test_log(self):
        for trial in range(N_TRIALS):
            rng = np.random.default_rng(530 + trial)
            a = leaf(rng, (6,), lo=0.2, hi=3.0)
            proj = rng.normal(size=(6,))
            check_gradients(lambda: scalarize(ad.log(a), proj), [a])

    def test_elu(self):
        for trial in range(N_TRIALS):
            rng = np.random.default_rng(560 + trial)
            # keep points away from the kink at zero
            raw = rng.uniform(0.05, 2.0, size=(4, 4)) * rng.choice([-1.0, 1.0], size=(4, 4))
            a = ad.Tensor(raw, requires_grad=True)
            proj = rng.normal(size=(4, 4))
            check_gradients(lambda: scalarize(ad.elu(a), proj), [a])

    def test_softmax_both_axes(self):
        for trial in range(N_TRIALS):
            rng = np.random.default_rng(600 + trial)
            a = leaf(rng, (3, 5))
            proj = rng.normal(size=(3, 5))
            check_gradients(lambda: scalarize(ad.softmax(a, axis=-1), proj), [a])
            check_gradients(lambda: scalarize(ad.softmax(a, axis=0), proj), [a])

    def test_minimum(self):
        for trial in range(N_TRIALS):
            rng = np.random.default_rng(660 + trial)
            a = leaf(rng, (5,))
            # keep a clear winner at every position
            b = ad.Tensor(a.data + rng.choice([-1.0, 1.0], size=5) * rng.uniform(0.05, 1.0, size=5),
                          requires_grad=True)
            proj = rng.normal(size=(5,))
            check_gradients(lambda: scalarize(ad.minimum(a, b), proj), [a, b])

    def test_dropout(self):
        for trial in range(N_TRIALS):
            rng = np.random.default_rng(700 + trial)
            a = leaf(rng, (4, 4))
            proj = rng.normal(size=(4, 4))
            seed = 9000 + trial

            def build():
                return scalarize(ad.dropout(a, 0.4, np.random.default_rng(seed)), proj)

            check_gradients(build, [a])

    def test_reductions(self):
        for trial in range(N_TRIALS):
            rng = np.random.default_rng(730 + trial)
            a = leaf(rng, (3, 4))
            proj_row = rng.normal(size=(4,))
            proj_keep = rng.normal(size=(3, 1))
            check_gradients(lambda: ad.reduce_sum(a), [a])
            check_gradients(lambda: scalarize(ad.reduce_sum(a, axis=0), proj_row), [a])
            check_gradients(lambda: scalarize(ad.reduce_sum(a, axis=1, keepdims=True), proj_keep), [a])

    def test_binary_cross_entropy(self):
        for trial in range(N_TRIALS):
            rng = np.random.default_rng(760 + trial)
            p = ad.Tensor(rng.uniform(0.05, 0.95, size=(4, 4)), requires_grad=True)
            t = (rng.random((4, 4)) < 0.5).astype(float)
            check_gradients(lambda: ad.binary_cross_entropy(p, t), [p])

    def test_cross_entropy_logits(self):
        for trial in range(N_TRIALS):
            rng = np.random.default_rng(790 + trial)
            logits = leaf(rng, (5, 4))
            targets = rng.integers(0, 4, size=5)
            check_gradients(lambda: ad.cross_entropy_logits(logits, targets), [logits])

    def test_cross_entropy_logits_3d(self):
        for trial in range(N_TRIALS):
            rng = np.random.default_rng(820 + trial)
            logits = leaf(rng, (2, 3, 4))
            targets = rng.integers(0, 4, size=(2, 3))
            check_gradients(lambda: ad.cross_entropy_logits(logits, targets), [logits])

    def test_nll_of_probs(self):
        for trial in range(N_TRIALS):
            rng = np.random.default_rng(850 + trial)
            p = ad.Tensor(rng.uniform(0.1, 1.0, size=(4, 5)), requires_grad=True)
            targets = rng.integers(0, 5, size=4)
            check_gradients(lambda: ad.nll_of_probs(p, targets), [p])

    def test_bilinear(self):
        for trial in range(N_TRIALS):
            rng = np.random.default_rng(880 + trial)
            x = leaf(rng, (4,))
            y = leaf(rng, (3,))
            u = leaf(rng, (4, 3))
            w = leaf(rng, (7,))
            b = leaf(rng, ())
            check_gradients(lambda: bilinear(x, y, u, w, b), [x, y, u, w, b])

    def test_bilinear_value_matches_numpy(self):
        rng = np.random.default_rng(907)
        x, y = rng.normal(size=4), rng.normal(size=3)
        u, w, b = rng.normal(size=(4, 3)), rng.normal(size=7), rng.normal()
        want = x @ u @ y + w @ np.concatenate([x, y]) + b
        got = bilinear(ad.Tensor(x), ad.Tensor(y), ad.Tensor(u), ad.Tensor(w), ad.Tensor(b)).item()
        assert abs(got - want) < 1e-10

    def test_bilinear_label(self):
        for trial in range(N_TRIALS):
            rng = np.random.default_rng(910 + trial)
            x = leaf(rng, (3,))
            y = leaf(rng, (4,))
            u = leaf(rng, (5, 3, 4))
            w = leaf(rng, (5, 4))
            proj = rng.normal(size=(5,))
            check_gradients(lambda: scalarize(bilinear_label(x, y, u, w), proj), [x, y, u, w])

    def test_bilinear_label_value_matches_loop(self):
        rng = np.random.default_rng(940)
        x, y = rng.normal(size=3), rng.normal(size=4)
        u, w = rng.normal(size=(5, 3, 4)), rng.normal(size=(5, 4))
        want = np.array([x @ u[c] @ y + w[c] @ y for c in range(5)])
        got = bilinear_label(ad.Tensor(x), ad.Tensor(y), ad.Tensor(u), ad.Tensor(w)).data
        np.testing.assert_allclose(got, want, atol=1e-10)


class TestGraph:
    def test_diamond_accumulates_both_paths(self):
        x = ad.Tensor(3.0, requires_grad=True)
        y = ad.Tensor(5.0, requires_grad=True)
        z = ad.add(ad.mul(x, y), x)  # dz/dx = y + 1, dz/dy = x
        z.backward()
        assert x.grad == pytest.approx(6.0)
        assert y.grad == pytest.approx(3.0)

    def test_deep_chain_is_iterative(self):
        # would blow the recursion limit if backward recursed
        x = ad.Tensor(0.0, requires_grad=True)
        y = x
        for _ in range(3000):
            y = ad.add(y, 1.0)
        y.backward()
        assert x.grad == pytest.approx(1.0)

    def test_constant_branches_are_pruned(self):
        c = ad.Tensor(np.ones(3))
        x = ad.Tensor(np.ones(3), requires_grad=True)
        out = ad.reduce_sum(ad.mul(c, x))
        out.backward()
        assert c.grad is None
        np.testing.assert_allclose(x.grad, np.ones(3))

    def test_backward_needs_scalar(self):
        x = ad.Tensor(np.ones(3), requires_grad=True)
        with pytest.raises(ValueError):
            ad.add(x, 1.0).backward()

    def test_reused_node_single_rule_firing(self):
        x = ad.Tensor(2.0, requires_grad=True)
        shared = ad.mul(x, x)  # x^2
        out = ad.add(shared, shared)  # 2 x^2, d/dx = 4x = 8
        out.backward()
        assert x.grad == pytest.approx(8.0)



class TestNoGrad:
    def test_ops_on_parameters_record_nothing(self):
        w = ad.Tensor(np.ones((2, 3)), requires_grad=True)
        with ad.no_grad():
            out = ad.tanh(ad.matmul(ad.Tensor(np.ones((1, 2))), w))
            fused = ad.lstm_step(np.ones((1, 1)), np.zeros((1, 1)), np.zeros((1, 1)),
                                 np.ones((1, 4)), np.ones((1, 4)),
                                 ad.Tensor(np.zeros(4), requires_grad=True))
        for t in (out, fused):
            assert t.requires_grad is False
            assert t.parents == ()
            assert t.backward_rule is None
        np.testing.assert_array_equal(out.data, np.tanh(np.ones((1, 3)) * 2.0))

    def test_values_equal_the_recorded_ones(self):
        rng = np.random.default_rng(0)
        x = leaf(rng, (3, 4))
        w = leaf(rng, (4, 5))

        def f():
            row = ad.split(ad.sigmoid(w), [1, 3], axis=0)[0]
            return ad.softmax(ad.add(ad.matmul(x, w), row), axis=-1)

        taped = f()
        with ad.no_grad():
            bare = f()
        assert taped.requires_grad and not bare.requires_grad
        assert bare.data.tobytes() == taped.data.tobytes()

    def test_nested_context_restores_the_outer_state(self):
        x = ad.Tensor(1.0, requires_grad=True)
        with ad.no_grad():
            with ad.no_grad():
                pass
            assert not ad.mul(x, 2.0).requires_grad
        assert ad.mul(x, 2.0).requires_grad

    def test_exception_restores_the_state(self):
        x = ad.Tensor(1.0, requires_grad=True)
        with pytest.raises(RuntimeError):
            with ad.no_grad():
                raise RuntimeError("inside")
        assert ad.mul(x, 2.0).requires_grad

    def test_works_as_a_decorator(self):
        x = ad.Tensor(1.0, requires_grad=True)

        @ad.no_grad()
        def double(t):
            return ad.mul(t, 2.0)

        assert not double(x).requires_grad
        assert ad.mul(x, 2.0).requires_grad

    def test_gradcheck_passes_after_the_context(self):
        rng = np.random.default_rng(1)
        a = leaf(rng, (2, 3))
        b = leaf(rng, (3, 2))
        with ad.no_grad():
            ad.matmul(a, b)
        proj = rng.normal(size=(2, 2))
        check_gradients(lambda: scalarize(ad.tanh(ad.matmul(a, b)), proj), [a, b])


class TestOptimizer:
    def test_adam_first_step_is_scaled_sign(self):
        rng = np.random.default_rng(10)
        w = ad.Tensor(rng.normal(size=6), requires_grad=True)
        g = rng.normal(size=6)
        w.grad = g.copy()
        before = w.data.copy()
        opt = ad.Adam([w], lr=0.1)
        opt.step()
        want = before - 0.1 * g / (np.abs(g) + 1e-8)
        np.testing.assert_allclose(w.data, want, atol=1e-12)

    def test_adam_matches_reference_loop(self):
        rng = np.random.default_rng(11)
        init = rng.normal(size=4)
        grads = [rng.normal(size=4) for _ in range(5)]
        lr, b1, b2, eps = 0.05, 0.9, 0.999, 1e-8

        w = ad.Tensor(init.copy(), requires_grad=True)
        opt = ad.Adam([w], lr=lr, beta1=b1, beta2=b2, eps=eps)
        for g in grads:
            w.grad = g.copy()
            opt.step()

        ref = init.copy()
        m = np.zeros(4)
        v = np.zeros(4)
        for t, g in enumerate(grads, start=1):
            m = b1 * m + (1 - b1) * g
            v = b2 * v + (1 - b2) * g * g
            ref -= lr * (m / (1 - b1 ** t)) / (np.sqrt(v / (1 - b2 ** t)) + eps)
        np.testing.assert_allclose(w.data, ref, atol=1e-12)

    def test_adam_zero_beta1(self):
        # the momentum-free setting some frameworks train with
        w = ad.Tensor(np.zeros(3), requires_grad=True)
        w.grad = np.array([1.0, -2.0, 0.5])
        opt = ad.Adam([w], lr=0.2, beta1=0.0, beta2=0.95)
        opt.step()
        want = -0.2 * w.grad / (np.abs(w.grad) + 1e-8)
        np.testing.assert_allclose(w.data, want, atol=1e-12)

    def test_adam_minimizes_quadratic(self):
        target = np.array([1.5, -2.0, 0.25])
        w = ad.Tensor(np.zeros(3), requires_grad=True)
        opt = ad.Adam([w], lr=0.05)
        for _ in range(600):
            opt.zero_grad()
            diff = ad.sub(w, target)
            loss = ad.reduce_sum(ad.mul(diff, diff))
            loss.backward()
            opt.step()
        np.testing.assert_allclose(w.data, target, atol=1e-3)

    def test_adam_never_graded_tensor_has_no_slots(self):
        rng = np.random.default_rng(12)
        used = ad.Tensor(rng.normal(size=3), requires_grad=True)
        idle = ad.Tensor(rng.normal(size=(40, 40)), requires_grad=True)
        opt = ad.Adam([idle, used], lr=0.1)
        for _ in range(3):
            used.grad = rng.normal(size=3)
            opt.step()
        assert list(opt.slots) == [1]

    def test_adam_late_first_gradient_matches_eager_slots(self):
        # first graded at step 3: the same update as with slots zeroed at
        # construction, the reference repeating the optimizer's arithmetic
        rng = np.random.default_rng(13)
        init = rng.normal(size=4)
        grads = [None, None] + [rng.normal(size=4) for _ in range(3)]
        lr, b1, b2, eps = 0.05, 0.9, 0.999, 1e-8
        w = ad.Tensor(init.copy(), requires_grad=True)
        opt = ad.Adam([w], lr=lr, beta1=b1, beta2=b2, eps=eps)
        for g in grads:
            w.grad = None if g is None else g.copy()
            opt.step()

        ref, m, v = init.copy(), np.zeros(4), np.zeros(4)
        for t, g in enumerate(grads, start=1):
            if g is None:
                continue
            m *= b1
            m += (1 - b1) * g
            v *= b2
            v += (1 - b2) * g * g
            ref -= lr * (m / (1 - b1 ** t)) / (np.sqrt(v / (1 - b2 ** t)) + eps)
        assert np.array_equal(w.data, ref)

    def test_clip_rescales_to_bound(self):
        a = ad.Tensor(np.zeros(2), requires_grad=True)
        b = ad.Tensor(np.zeros(1), requires_grad=True)
        a.grad = np.array([3.0, 0.0])
        b.grad = np.array([4.0])  # global norm 5
        factor, norm = ad.clip_gradients([a, b], max_norm=1.0)
        assert factor == pytest.approx(0.2) and norm == pytest.approx(5.0)
        total = np.sqrt((a.grad ** 2).sum() + (b.grad ** 2).sum())
        assert total == pytest.approx(1.0)

    def test_clip_noop_under_bound(self):
        a = ad.Tensor(np.zeros(2), requires_grad=True)
        a.grad = np.array([0.3, 0.4])
        factor, norm = ad.clip_gradients([a], max_norm=1.0)
        assert factor == 1.0 and norm == pytest.approx(0.5)
        np.testing.assert_array_equal(a.grad, [0.3, 0.4])


class TestParamSet:
    def test_checkpoint_roundtrip_bytes_identical(self, tmp_path):
        rng = np.random.default_rng(20)
        ps = ad.ParamSet()
        ps.new("enc.w", (3, 4), rng)
        ps.new("enc.b", (4,), rng, scale=0.1)

        first = tmp_path / "a.ckpt"
        second = tmp_path / "b.ckpt"
        ps.save(first, extra={"epoch": 3})

        state, extra = ad.ParamSet.read(first)
        assert extra == {"epoch": 3}
        other = ad.ParamSet(state)
        other.new("enc.w", (3, 4), np.random.default_rng(99))
        other.new("enc.b", (4,), np.random.default_rng(99))
        other.save(second, extra={"epoch": 3})
        assert first.read_bytes() == second.read_bytes()
        with zipfile.ZipFile(first) as zf:
            infos = zf.infolist()
        assert [i.filename for i in infos] == ["enc.w.npy", "enc.b.npy", "__meta__.npy"]
        assert all(i.date_time == ad.ZIP_DATE_TIME for i in infos)

    def test_container_is_exact_npz(self, tmp_path):
        rng = np.random.default_rng(22)
        ps = ad.ParamSet()
        ps.new("w", (3, 5), rng)
        ps.new_from("b_edge", np.array(rng.normal()))  # 0-d
        ps.new_from("empty", np.zeros((0, 4)))
        path = tmp_path / "m.bundle"
        ps.save(path, extra={"kind": "multi", "lr": 0.1})
        assert os.listdir(tmp_path) == ["m.bundle"]  # no .npz suffix, no .tmp
        with np.load(path, allow_pickle=False) as npz:
            assert npz.files == ["w", "b_edge", "empty", "__meta__"]
        state, extra = ad.ParamSet.read(path)
        assert extra == {"kind": "multi", "lr": 0.1}
        assert list(state) == ["w", "b_edge", "empty"]
        for name, want in ps.state_dict().items():
            assert state[name].dtype == want.dtype, name
            assert state[name].shape == want.shape, name
            assert state[name].tobytes() == want.tobytes(), name

    @pytest.mark.parametrize("content", [
        b"",
        b"PK\x03\x04 truncated zip",
        b'{"format_version": 1, "params": {}}',  # the JSON container of format 1
    ])
    def test_unreadable_file_is_value_error_naming_path(self, tmp_path, content):
        path = tmp_path / "bad.ckpt"
        path.write_bytes(content)
        with pytest.raises(ValueError, match="bad.ckpt: not a format-2 checkpoint"):
            ad.ParamSet.read(path)

    def test_other_version_or_missing_meta_rejected(self, tmp_path):
        ps = ad.ParamSet()
        ps.new_from("w", np.ones(2))
        path = tmp_path / "m.ckpt"
        ps.save(path)
        with zipfile.ZipFile(path) as zf:
            members = {i.filename: zf.read(i) for i in zf.infolist()}
        for name, meta in [("future.ckpt", {"format_version": 3, "extra": {}}),
                           ("nometa.ckpt", None)]:
            with zipfile.ZipFile(tmp_path / name, "w") as zf:
                zf.writestr("w.npy", members["w.npy"])
                if meta is not None:
                    arr = np.frombuffer(json.dumps(meta).encode(), dtype=np.uint8)
                    with zf.open("__meta__.npy", "w") as fh:
                        np.lib.format.write_array(fh, arr)
            with pytest.raises(ValueError, match=f"{name}: not a format-2"):
                ad.ParamSet.read(tmp_path / name)

    def test_failed_save_keeps_previous_file(self, tmp_path):
        ps = ad.ParamSet()
        ps.new("w", (50, 40), np.random.default_rng(21))
        path = tmp_path / "model.ckpt"
        ps.save(path, extra={"epoch": 1})
        before = path.read_bytes()
        ps["w"].data += 1.0
        with pytest.raises(TypeError):
            ps.save(path, extra={"epoch": object()})  # not JSON-serializable
        assert path.read_bytes() == before
        assert os.listdir(tmp_path) == ["model.ckpt"]
        state, extra = ad.ParamSet.read(path)
        assert extra == {"epoch": 1}

    def test_duplicate_name_rejected(self):
        ps = ad.ParamSet()
        ps.new("w", (2,), np.random.default_rng(0))
        with pytest.raises(ValueError):
            ps.new("w", (2,), np.random.default_rng(0))

    def test_built_from_state_copies_and_draws_nothing(self):
        state = {"w": np.arange(6.0).reshape(2, 3), "b": np.array(0.5)}
        rng = np.random.default_rng(0)
        ps = ad.ParamSet(state)
        w = ps.new("w", (2, 3), rng)
        b = ps.new_from("b", 0.0)
        assert rng.uniform() == np.random.default_rng(0).uniform()
        assert w.data.tobytes() == state["w"].tobytes() and w.data.shape == (2, 3)
        assert b.data.shape == () and b.data == 0.5
        w.data += 1.0  # the parameter never aliases the state
        assert state["w"][0, 0] == 0.0
        assert list(ps.state_dict()) == ["w", "b"]
        assert list(state) == ["w", "b"]  # the caller's map is left whole

    def test_built_from_state_keeps_no_taken_array(self):
        arr = np.ones(2)
        taken = weakref.ref(arr)
        ps = ad.ParamSet({"w": arr})
        ps.new("w", (2,), None)
        del arr
        assert taken() is None

    def test_missing_param_rejected(self):
        for build in (lambda ps: ps.new("w", (2,), None),
                      lambda ps: ps.new_from("w", np.zeros(2))):
            with pytest.raises(KeyError, match="missing parameter w"):
                build(ad.ParamSet({"v": np.zeros(2)}))

    def test_shape_mismatch_rejected(self):
        for build in (lambda ps: ps.new("w", (2,), None),
                      lambda ps: ps.new_from("w", np.zeros(2))):
            with pytest.raises(ValueError,
                               match=r"shape mismatch for w: \(3,\) vs \(2,\)"):
                build(ad.ParamSet({"w": np.zeros(3)}))
