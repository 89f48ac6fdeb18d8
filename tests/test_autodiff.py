"""Tensor core: forward values against scipy/manual oracles, gradients
against finite differences, optimizer against a hand-rolled reference."""

import ast
import io
import json
import os
import sys
import tracemalloc
import weakref
import zipfile
from pathlib import Path

import numpy as np
import pytest
from scipy.special import expit
from scipy.special import log_softmax as sp_log_softmax
from scipy.special import softmax as sp_softmax

from mrparse import autodiff as ad

from conftest import (assert_same_arrays, bilinear, bilinear_label, byte_flips,
                      check_gradients, reference_adam, reference_additive_attention,
                      reference_elu, reference_nll_of_probs, reference_pointer_mixture,
                      reference_read_npz, reference_save, reference_sigmoid,
                      reference_tanh, reference_transpose, scalarize)

N_TRIALS = 24


def leaf(rng, shape, lo=-2.0, hi=2.0):
    return ad.Tensor(rng.uniform(lo, hi, size=shape), requires_grad=True)


# (k rows, n keys, keys shared by the rows, rows given as (k, 1, H))
ATTENTION_CASES = [(1, 4, True, False), (3, 4, True, False), (3, 4, False, False),
                   (1, 1, False, False), (3, 2, False, True)]

# (k rows, n history columns, masked as teacher forcing masks them)
MIXTURE_CASES = [(1, 0, False), (3, 0, False), (1, 2, False), (3, 2, False), (4, 3, True)]


def attention_inputs(rng, k, n, shared, three_d):
    """Leaves ``(h, keys, w_dec, v)`` of ``ad.additive_attention``."""
    h = leaf(rng, (k, 1, 3) if three_d else (k, 3))
    keys = leaf(rng, (n, 4) if shared else (k, n, 4))
    return h, keys, leaf(rng, (3, 4)), leaf(rng, (4, 1))


def mixture_inputs(rng, k, n, masked):
    """``ad.pointer_mixture``'s tensors (source attentions, history scores
    or None, vocabulary and switch logits) and biases (history, switch):
    without history the decoder step's switch bias, masked the
    teacher-forced rows' strict lower triangle of history and no history
    switch on row 0."""
    hist = leaf(rng, (k, n)) if n else None
    tensors = (leaf(rng, (k, 4), 0.0, 1.0), hist, leaf(rng, (k, 5)), leaf(rng, (k, 3)))
    if not n:
        return tensors, (None, np.array([[0.0, -1e30, 0.0]]))
    if not masked:
        return tensors, (None, None)
    gate_bias = np.zeros((k, 3))
    gate_bias[0, 1] = -1e30
    return tensors, (np.triu(np.full((k, n), -1e30)), gate_bias)


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

    def test_sigmoid_is_bytewise_the_two_branch_formula(self):
        rng = np.random.default_rng(12)
        draws = [rng.normal(scale=s, size=200_000) for s in (0.1, 1.0, 10.0, 100.0, 400.0)]
        edges = [v * s for v in (0.0, np.inf, 1e-320, 710.0, 745.0) for s in (1.0, -1.0)]
        x = np.concatenate(draws + [edges])
        assert ad._sigmoid(x).tobytes() == reference_sigmoid(x).tobytes()

    def test_elu_values(self):
        # the rectifier of ad.mlp, through an identity layer
        x = np.array([[-2.0, -0.5, 0.5, 3.0]])
        want = np.where(x > 0, x, np.exp(x) - 1.0)
        got = ad.mlp(ad.Tensor(x), ad.Tensor(np.eye(4)), ad.Tensor(np.zeros(4))).data
        np.testing.assert_allclose(got, want, atol=1e-12)

    def test_binary_cross_entropy_value(self):
        p = np.array([0.9, 0.2, 0.5])
        t = np.array([1.0, 0.0, 1.0])
        want = -(np.log(0.9) + np.log(0.8) + np.log(0.5))
        got = ad.binary_cross_entropy(ad.Tensor(p), t).data.item()
        assert abs(got - want) < 1e-12

    def test_binary_cross_entropy_clips_saturated_probs(self):
        p = np.array([0.0, 1.0])
        t = np.array([1.0, 0.0])
        got = ad.binary_cross_entropy(ad.Tensor(p), t).data.item()
        assert np.isfinite(got)
        assert abs(got - 2 * -np.log(1e-9)) < 1e-3

    def test_cross_entropy_logits_value(self):
        rng = np.random.default_rng(2)
        logits = rng.normal(size=(6, 5))
        targets = rng.integers(0, 5, size=6)
        want = -sp_log_softmax(logits, axis=-1)[np.arange(6), targets].sum()
        got = ad.cross_entropy_logits(ad.Tensor(logits), targets).data.item()
        assert abs(got - want) < 1e-10

    def test_nll_of_probs_is_bytewise_the_composed_ops(self):
        """Value and gradient equal the old five-op composition's; a
        target probability below the 1e-9 clip gets a zero gradient."""
        rng = np.random.default_rng(11)
        for trial in range(N_TRIALS):
            raw = rng.dirichlet(np.full(6, 0.3), size=7)
            targets = rng.integers(0, 6, size=7)
            raw[0, targets[0]] = 3e-10  # clipped
            raw[1, targets[1]] = 1e-9   # the clip itself, kept
            p = ad.Tensor(raw, requires_grad=True)
            g = rng.uniform(0.1, 3.0)
            out = ad.nll_of_probs(p, targets)
            ad.mul(out, g).backward()
            value, grad = reference_nll_of_probs(raw, targets, g)
            assert out.data.tobytes() == np.float64(value).tobytes()
            assert p.grad.tobytes() == grad.tobytes()
            assert p.grad[0, targets[0]] == 0.0 and p.grad[1, targets[1]] != 0.0

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
        # evaluation applies no dropout: a zero rate hands the input back
        x = ad.Tensor(np.ones((3, 3)), requires_grad=True)
        assert ad.dropout(x, 0.0, np.random.default_rng(0)) is x

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

    def test_add_mul_broadcast(self):
        for trial in range(N_TRIALS):
            rng = np.random.default_rng(100 + trial)
            a = leaf(rng, (3, 1))
            b = leaf(rng, (4,))
            proj = rng.normal(size=(3, 4))
            check_gradients(lambda: scalarize(ad.add(a, b), proj), [a, b])
            check_gradients(lambda: scalarize(ad.mul(a, b), proj), [a, b])

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
            check_gradients(lambda: scalarize(reference_transpose(a), proj_t), [a])
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

    def test_rows_with_duplicate_indices(self):
        # duplicates force the scatter-add path
        for trial in range(N_TRIALS):
            rng = np.random.default_rng(400 + trial)
            table = leaf(rng, (7, 3))
            idx = rng.integers(0, 7, size=6)
            idx[1] = idx[0]
            proj = rng.normal(size=(6, 3))
            check_gradients(lambda: scalarize(ad.rows(table, idx), proj), [table])

    def test_tanh_sigmoid_exp(self):
        for trial in range(N_TRIALS):
            rng = np.random.default_rng(500 + trial)
            a = leaf(rng, (4, 3))
            proj = rng.normal(size=(4, 3))
            check_gradients(lambda: scalarize(reference_tanh(a), proj), [a])
            check_gradients(lambda: scalarize(ad.sigmoid(a), proj), [a])

    def test_elu(self):
        for trial in range(N_TRIALS):
            rng = np.random.default_rng(560 + trial)
            # keep points away from the kink at zero
            raw = rng.uniform(0.05, 2.0, size=(4, 4)) * rng.choice([-1.0, 1.0], size=(4, 4))
            a = ad.Tensor(raw, requires_grad=True)
            eye, zero = ad.Tensor(np.eye(4)), ad.Tensor(np.zeros(4))
            proj = rng.normal(size=(4, 4))
            check_gradients(lambda: scalarize(ad.mlp(a, eye, zero), proj), [a])
            check_gradients(lambda: scalarize(reference_elu(a), proj), [a])

    @pytest.mark.parametrize("k, p, elu", [(1, 0.0, True), (1, 0.0, False), (2, 0.3, True),
                                           (3, 0.5, True), (2, 1.0, True), (3, 0.4, False)])
    def test_mlp(self, k, p, elu):
        for trial in range(N_TRIALS // 4):
            rng = np.random.default_rng(1000 + trial)
            x = leaf(rng, (4, 3))
            ws = tuple(leaf(rng, (3, 2)) for _ in range(k))
            bs = tuple(leaf(rng, (2,)) for _ in range(k))
            proj = rng.normal(size=(4, 2 * k))

            def build():
                out = ad.mlp(x, ws, bs, p, np.random.default_rng(trial), elu=elu)
                return scalarize(out, proj)

            check_gradients(build, [x, *ws, *bs])

    def test_biaffine_edge(self):
        for trial in range(N_TRIALS):
            rng = np.random.default_rng(1100 + trial)
            pair = leaf(rng, (4, 6))
            u, w, b = leaf(rng, (3, 3)), leaf(rng, (6, 1)), leaf(rng, ())
            proj = rng.normal(size=(4, 4))
            check_gradients(lambda: scalarize(ad.biaffine_edge(pair, u, w, b), proj),
                            [pair, u, w, b])

    def test_biaffine_label(self):
        for trial in range(N_TRIALS):
            rng = np.random.default_rng(1200 + trial)
            pair = leaf(rng, (3, 4))
            u, w = leaf(rng, (5, 2, 2)), leaf(rng, (5, 1, 2))
            proj = rng.normal(size=(9, 5))
            check_gradients(lambda: scalarize(ad.biaffine_label(pair, u, w), proj),
                            [pair, u, w])

    @pytest.mark.parametrize("case", ATTENTION_CASES)
    def test_additive_attention(self, case):
        for trial in range(N_TRIALS // 4):
            rng = np.random.default_rng(1300 + trial)
            h, keys, w_dec, v = attention_inputs(rng, *case)
            proj = rng.normal(size=(h.shape[0], keys.shape[-2]))
            check_gradients(lambda: scalarize(ad.additive_attention(h, keys, w_dec, v), proj),
                            [h, keys, w_dec, v])

    @pytest.mark.parametrize("case", MIXTURE_CASES)
    def test_pointer_mixture(self, case):
        for trial in range(N_TRIALS // 4):
            rng = np.random.default_rng(1400 + trial)
            tensors, biases = mixture_inputs(rng, *case)
            proj = rng.normal(size=ad.pointer_mixture(*tensors, *biases).shape)
            check_gradients(lambda: scalarize(ad.pointer_mixture(*tensors, *biases), proj),
                            [t for t in tensors if t is not None])

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
            check_gradients(lambda: ad.reduce_sum(a), [a])
            check_gradients(lambda: scalarize(ad.reduce_sum(a, axis=0), proj_row), [a])

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
        got = bilinear(ad.Tensor(x), ad.Tensor(y), ad.Tensor(u), ad.Tensor(w), ad.Tensor(b)).data.item()
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


class TestDecoderOps:
    """The decoders' two fused ops against the compositions they
    replaced: one node over the inputs, whose value and gradients are
    the composition's byte for byte."""

    @staticmethod
    def run(build, leaves):
        for t in leaves:
            t.zero_grad()
        out = build()
        proj = np.random.default_rng(7).normal(size=out.shape)
        scalarize(out, proj).backward()
        return [out.data.tobytes()] + [t.grad.tobytes() for t in leaves]

    @pytest.mark.parametrize("case", ATTENTION_CASES)
    def test_additive_attention_is_bytewise_the_composition(self, case):
        leaves = attention_inputs(np.random.default_rng(1500), *case)
        assert ad.additive_attention(*leaves).parents == leaves
        assert (self.run(lambda: ad.additive_attention(*leaves), leaves)
                == self.run(lambda: reference_additive_attention(*leaves), leaves))

    @pytest.mark.parametrize("case", MIXTURE_CASES)
    def test_pointer_mixture_is_bytewise_the_composition(self, case):
        tensors, biases = mixture_inputs(np.random.default_rng(1600), *case)
        leaves = tuple(t for t in tensors if t is not None)
        assert ad.pointer_mixture(*tensors, *biases).parents == leaves
        assert (self.run(lambda: ad.pointer_mixture(*tensors, *biases), leaves)
                == self.run(lambda: reference_pointer_mixture(*tensors, *biases), leaves))


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

    def test_first_gradient_is_an_owned_copy(self):
        x = ad.Tensor(np.ones(3), requires_grad=True)
        g = np.array([-0.0, 1.0, 2.0])
        x.accumulate(g)
        assert np.signbit(x.grad[0])  # zeros plus -0.0 would give +0.0
        assert not np.shares_memory(x.grad, g)
        g[1] = 7.0
        x.accumulate(np.ones(3))
        np.testing.assert_array_equal(x.grad, [1.0, 2.0, 3.0])

    def test_first_gradient_of_another_layout_takes_the_data_layout(self):
        x = ad.Tensor(np.ones((2, 3)), requires_grad=True)
        g = np.arange(6.0).reshape(3, 2).T
        x.accumulate(g)
        assert x.grad.flags.c_contiguous
        np.testing.assert_array_equal(x.grad, g)

    @pytest.mark.parametrize("g", [np.ones(3), np.ones((2, 3), dtype=np.float32),
                                   np.float64(2.0)])
    def test_first_gradient_of_another_shape_or_dtype_adds_to_zeros(self, g):
        x = ad.Tensor(np.ones((2, 3)), requires_grad=True)
        x.accumulate(g)
        want = np.zeros((2, 3))
        want += g
        assert x.grad.dtype == np.float64
        assert x.grad.tobytes() == want.tobytes()


class TestNoGrad:
    def test_ops_on_parameters_record_nothing(self):
        w = ad.Tensor(np.ones((2, 3)), requires_grad=True)
        with ad.no_grad():
            out = reference_tanh(ad.matmul(ad.Tensor(np.ones((1, 2))), w))
            fused = ad.lstm_sequence(np.ones((1, 1, 1)), np.ones((1, 4)), np.ones((1, 4)),
                                     ad.Tensor(np.zeros(4), requires_grad=True),
                                     h0=np.zeros((1, 1)), c0=np.zeros((1, 1)))
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
        check_gradients(lambda: scalarize(reference_tanh(ad.matmul(a, b)), proj), [a, b])


def give_gradients(params, grads, deliver):
    """Set each parameter's gradient (None: none): ``backward`` from one
    graph whose gradients are exactly ``grads``, ``assigned`` directly."""
    if deliver == "assigned":
        for p, g in zip(params, grads):
            p.grad = None if g is None else g.copy()
        return
    terms = [ad.reduce_sum(ad.mul(p, g)) for p, g in zip(params, grads) if g is not None]
    if terms:
        total = terms[0]
        for term in terms[1:]:
            total = ad.add(total, term)
        total.backward()


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
        lr, b1, b2, eps = 0.05, 0.9, 0.999, ad.ADAM_EPS

        w = ad.Tensor(init.copy(), requires_grad=True)
        opt = ad.Adam([w], lr=lr, beta1=b1, beta2=b2)
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
            diff = ad.add(w, -target)
            loss = ad.reduce_sum(ad.mul(diff, diff))
            loss.backward()
            opt.step()
        np.testing.assert_allclose(w.data, target, atol=1e-3)

    def test_adam_never_graded_tensor_has_no_slots(self):
        """A parameter never graded gets no slot in the store: its values
        stay its own array, it has no gradient home, and the optimizer
        keeps less memory than its two moments would take."""
        rng = np.random.default_rng(12)
        used = ad.Tensor(rng.normal(size=3), requires_grad=True)
        idle = ad.Tensor(rng.normal(size=(40, 40)), requires_grad=True)
        idle_values = idle.data
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            opt = ad.Adam([idle, used], lr=0.1)
            for _ in range(3):
                used.grad = rng.normal(size=3)
                opt.step()
            kept = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert idle.grad_home is None and idle.data is idle_values
        assert used.grad_home is not None and used.grad is used.grad_home
        assert kept < idle.data.nbytes

    def test_adam_late_first_gradient_matches_eager_slots(self):
        # first graded at step 3: the same update as with slots zeroed at
        # construction, the reference repeating the optimizer's arithmetic
        rng = np.random.default_rng(13)
        init = rng.normal(size=4)
        grads = [None, None] + [rng.normal(size=4) for _ in range(3)]
        lr, b1, b2, eps = 0.05, 0.9, 0.999, ad.ADAM_EPS
        w = ad.Tensor(init.copy(), requires_grad=True)
        opt = ad.Adam([w], lr=lr, beta1=b1, beta2=b2)
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

    def test_adam_steps_bytewise_as_the_textbook_formula(self):
        """In place through the store, the same bits as fresh temporaries;
        a parameter without a gradient in a step does not move, and its
        moments stay as they were, or its later steps would differ."""
        rng = np.random.default_rng(14)
        shapes = [(3, 5), (), (7,), (2, 2, 2)]
        inits = [rng.normal(size=s) for s in shapes]
        params = [ad.Tensor(a.copy(), requires_grad=True) for a in inits]
        lr, b1, b2, eps = 0.02, 0.9, 0.999, ad.ADAM_EPS
        opt = ad.Adam(params, lr=lr, beta1=b1, beta2=b2)
        ref = [a.copy() for a in inits]
        slots = [None] * len(shapes)
        for t in range(1, 9):
            grads = [None if (t + k) % 3 == 0 else rng.normal(size=s)
                     for k, s in enumerate(shapes)]
            moved = [p.data.copy() for p in params]
            for p, g in zip(params, grads):
                p.grad = None if g is None else g.copy()
            opt.step()
            for k, g in enumerate(grads):
                if g is None:
                    assert params[k].data.tobytes() == moved[k].tobytes()
                    continue
                if slots[k] is None:
                    slots[k] = (np.zeros(shapes[k]), np.zeros(shapes[k]))
                m, v = slots[k]
                m = b1 * m + (1 - b1) * g
                v = b2 * v + (1 - b2) * g * g
                slots[k] = (m, v)
                ref[k] = ref[k] - lr * (m / (1 - b1 ** t)) / (np.sqrt(v / (1 - b2 ** t)) + eps)
            for p, want in zip(params, ref):
                assert p.data.tobytes() == np.asarray(want).tobytes()

    @pytest.mark.parametrize("deliver", ["backward", "assigned"])
    @pytest.mark.parametrize("block", [None, 4], ids=["block", "block4"])
    def test_store_steps_bytewise_as_the_per_array_loop(self, monkeypatch, block, deliver):
        """Eight steps of every pattern of grading against the oracle:
        always graded, missing on some steps, a late first gradient, graded
        once and then rarely, never graded; a 0-d parameter, and one that
        spans blocks (or, at 4 values a block, blocks that span
        parameters).  Gradients come from a backward pass, so they land in
        their gradient homes, or are set from outside."""
        if block is not None:
            monkeypatch.setattr(ad, "ADAM_BLOCK", block)
        rng = np.random.default_rng(15)
        shapes = [(3, 5), (), (7,), (2, 2, 2), (4,), (6, 3), (181, 200)]
        graded = [lambda t: True, lambda t: t % 3 != 0, lambda t: (t + 2) % 3 != 0,
                  lambda t: t >= 5, lambda t: t in (1, 7), lambda t: False,
                  lambda t: t != 4]
        inits = [rng.normal(size=s) for s in shapes]
        store = [ad.Tensor(a.copy(), requires_grad=True) for a in inits]
        oracle = [ad.Tensor(a.copy(), requires_grad=True) for a in inits]
        opt = ad.Adam(store, lr=0.03, beta1=0.8, beta2=0.99)
        ref_step = reference_adam(oracle, lr=0.03, beta1=0.8, beta2=0.99)
        for t in range(1, 9):
            grads = [rng.normal(size=s) if graded[k](t) else None
                     for k, s in enumerate(shapes)]
            for params, step in ((store, opt.step), (oracle, ref_step)):
                for p in params:
                    p.zero_grad()
                give_gradients(params, grads, deliver)
                step()
            for p, q in zip(store, oracle):
                assert p.data.tobytes() == q.data.tobytes()
        assert store[5].grad_home is None and store[5].data.base is None
        stored = [p for k, p in enumerate(store) if k != 5]
        assert all(p.data.ctypes.data % 64 == 0 and p.grad_home.ctypes.data % 64 == 0
                   for p in stored)  # where BLAS reads a weight fastest

    def test_store_over_part_of_a_param_set(self):
        """``eds.train_abstract_models``'s pattern: an optimizer over some
        parameters of a set steps them as the oracle does; the rest keep
        their values and their gradients, outside the store."""
        rng = np.random.default_rng(16)
        spec = [("enc.w", (4, 3)), ("det.w", (3, 2)), ("enc.b", (3,)),
                ("det.b", (2,)), ("lab.w", (3, 5))]
        store, oracle = ad.ParamSet(), None
        for name, shape in spec:
            store.new(name, shape, rng)
        oracle = ad.ParamSet(store.state_dict())
        for name, shape in spec:
            oracle.new(name, shape, rng)
        fitted = ("det.w", "det.b", "lab.w")
        opt = ad.Adam([store[n] for n in fitted], lr=0.05)
        ref_step = reference_adam([oracle[n] for n in fitted], lr=0.05)
        frozen = {n: store[n].data.copy() for n, _ in spec if n not in fitted}
        for t in range(1, 9):
            grads = [None if name == "lab.w" and t % 2 else rng.normal(size=shape)
                     for name, shape in spec]
            for params, step in ((store, opt.step), (oracle, ref_step)):
                params = params.tensors()
                for p in params:
                    p.zero_grad()
                give_gradients(params, grads, "backward")
                step()
            for name, _ in spec:
                assert store[name].data.tobytes() == oracle[name].data.tobytes()
            for name, before in frozen.items():
                assert store[name].data.tobytes() == before.tobytes()
                assert store[name].grad_home is None and store[name].grad is not None

    @pytest.mark.parametrize("op", ["rows", "split", "nll_of_probs"])
    def test_a_scattered_gradient_lands_in_the_store(self, op):
        """A table graded only through an op that scatters into part of
        its gradient: once the table has a slot, the gradient is written
        there, and the table steps to the oracle's bytes."""
        rng = np.random.default_rng(17)
        inits = [rng.normal(size=3), rng.uniform(0.5, 1.0, size=(6, 4))]
        store = [ad.Tensor(a.copy(), requires_grad=True) for a in inits]
        oracle = [ad.Tensor(a.copy(), requires_grad=True) for a in inits]
        opt = ad.Adam(store, lr=0.01)
        ref_step = reference_adam(oracle, lr=0.01)

        def loss(params, t, proj, g):
            other, table = params
            if op == "rows":
                picked = ad.rows(table, [t % 6, 2, 2])
            elif op == "split":
                picked = ad.split(table, [2, 3, 1])[t % 3]
            else:
                picked = ad.nll_of_probs(table, [t % 4, 1, 1, 3, 0, 2])
            term = ad.reduce_sum(ad.mul(picked, proj[:picked.data.size].reshape(picked.shape)))
            return ad.add(term, ad.reduce_sum(ad.mul(other, g)))

        for t in range(1, 9):
            proj, g = rng.normal(size=12), rng.normal(size=3)
            for params, step in ((store, opt.step), (oracle, ref_step)):
                for p in params:
                    p.zero_grad()
                loss(params, t, proj, g).backward()
                if params is store and t > 1:
                    assert params[1].grad is params[1].grad_home
                step()
            for p, q in zip(store, oracle):
                assert p.data.tobytes() == q.data.tobytes()

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


def rezip(path, compression):
    """Rewrite the zip at ``path`` with every member compressed."""
    with zipfile.ZipFile(path) as zf:
        members = [(info.filename, zf.read(info)) for info in zf.infolist()]
    with zipfile.ZipFile(path, "w", compression) as zf:
        for name, data in members:
            zf.writestr(name, data)


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
        ps.new_from("f", np.asfortranarray(rng.normal(size=(4, 3))))
        path = tmp_path / "m.bundle"
        ps.save(path, extra={"kind": "multi", "lr": 0.1})
        assert os.listdir(tmp_path) == ["m.bundle"]  # no .npz suffix, no .tmp
        with np.load(path, allow_pickle=False) as npz:
            assert npz.files == ["w", "b_edge", "empty", "f", "__meta__"]
        with zipfile.ZipFile(path) as zf:
            assert b"'fortran_order': True" in zf.read("f.npy")
        state, extra = ad.ParamSet.read(path)
        assert extra == {"kind": "multi", "lr": 0.1}
        assert_same_arrays(ps.state_dict(), state)
        assert state["f"].flags.f_contiguous and not state["f"].flags.c_contiguous
        # an object array is refused, as np.load(allow_pickle=False) refuses it
        with zipfile.ZipFile(path, "a") as zf, zf.open("o.npy", "w") as fh:
            np.lib.format.write_array(fh, np.array([1, None], dtype=object),
                                      allow_pickle=True)
        with pytest.raises(ValueError, match="m.bundle: not a format-2 checkpoint"):
            ad.ParamSet.read(path)

    @pytest.mark.parametrize("compression", [zipfile.ZIP_DEFLATED], ids=["deflated"])
    def test_compressed_bundle_reads_the_same(self, tmp_path, compression):
        ps = ad.ParamSet()
        ps.new("w", (30, 20), np.random.default_rng(25))
        ps.new_from("b", np.zeros(20))
        path = tmp_path / "m.ckpt"
        ps.save(path, extra={"epoch": 2})
        rezip(path, compression)
        with zipfile.ZipFile(path) as zf:
            assert {i.compress_type for i in zf.infolist()} == {compression}
        state, extra = ad.ParamSet.read(path)
        assert extra == {"epoch": 2}
        assert_same_arrays(ps.state_dict(), state)

    @pytest.mark.parametrize("compression", [zipfile.ZIP_STORED, zipfile.ZIP_DEFLATED],
                             ids=["stored", "deflated"])
    def test_corrupted_byte_reads_the_same_or_is_value_error_naming_path(
            self, tmp_path, compression):
        """Every byte of a bundle, as saved or re-zipped with DEFLATE, flipped
        in turn: the read gives the saved arrays back or the one
        ValueError, never another error."""
        ps = ad.ParamSet()
        ps.new("w", (2, 3), np.random.default_rng(26))
        ps.new("b", (3,), np.random.default_rng(27))
        path = tmp_path / "m.ckpt"
        ps.save(path, extra={"epoch": 1})
        if compression != zipfile.ZIP_STORED:
            rezip(path, compression)
        want = ps.state_dict()
        refused = 0
        for offset, mask in byte_flips(path):
            try:
                state, extra = ad.ParamSet.read(path)
            except ValueError as err:
                assert str(err) == f"{path}: not a format-2 checkpoint", (offset, mask)
                refused += 1
                continue
            assert extra == {"epoch": 1}, (offset, mask)
            assert_same_arrays(want, state)
        assert refused > 0

    @pytest.mark.parametrize("kind", ["bzip2", "lzma", "comment", "prepended"])
    def test_bzip2_lzma_comment_or_prefix_is_value_error_naming_path(self, tmp_path, kind):
        """zipfile reads a bundle re-zipped with BZIP2 or LZMA, given an
        archive comment, or behind other bytes; ``ParamSet.read`` refuses
        each, as neither it nor ``np.savez`` writes them."""
        path = tmp_path / "m.ckpt"
        param_set({"w": np.arange(6.0), "b": np.zeros(2)}).save(path)
        if kind in ("bzip2", "lzma"):
            rezip(path, getattr(zipfile, f"ZIP_{kind.upper()}"))
        elif kind == "comment":
            with zipfile.ZipFile(path, "a") as zf:
                zf.comment = b"an archive comment"
        else:
            path.write_bytes(b"#!/bin/sh\n" + path.read_bytes())
        assert read_outcome(reference_read_npz, path) is not None
        with pytest.raises(ValueError) as err:
            ad.ParamSet.read(path)
        assert str(err.value) == f"{path}: not a format-2 checkpoint"

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
                           ("nometa.ckpt", None),
                           ("listmeta.ckpt", [2]),
                           ("listextra.ckpt", {"format_version": 2, "extra": [1]})]:
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


def param_set(arrays):
    """A ParamSet holding ``arrays`` as they are: dtype and layout kept,
    where a parameter built from them would be float64."""
    ps = ad.ParamSet()
    for name, arr in arrays.items():
        ps.new_from(name, arr).data = arr
    return ps


def bundle_cases():
    rng = np.random.default_rng(30)
    return {
        "float64": ({"w": rng.normal(size=(3, 5))}, None),
        "fortran": ({"f": np.asfortranarray(rng.normal(size=(4, 3))),
                     "f1": np.asfortranarray(rng.normal(size=(1, 2, 3)))}, None),
        "strided": ({"s": rng.normal(size=(4, 6))[:, ::2]}, None),
        "0-d": ({"b": np.array(rng.normal())}, None),
        "empty": ({"e": np.zeros((0, 4)),
                   "ef": np.asfortranarray(np.zeros((4, 0, 2)))}, None),
        "int64": ({"i": np.arange(12, dtype=np.int64).reshape(3, 4)}, None),
        "float32": ({"h": rng.normal(size=(2, 7)).astype(np.float32)}, None),
        "many": ({f"layer{k}.w": rng.normal(size=(k % 5, 3)) for k in range(160)},
                 {"epoch": 4}),
        "non-ascii": ({"wört.ü": rng.normal(size=3), "ω": np.ones(2)}, None),
        "nested extra": ({"w": np.ones(2)},
                         {"config": {"widths": [1, 2, {"deep": None}], "name": "ü"},
                          "lr": 0.1, "flag": True}),
    }


CASES = bundle_cases()


def assert_saves_like_reference(ps, tmp_path, extra=None):
    """``ps.save`` gives a bundle that zipfile checks clean and np.load and
    ParamSet.read give back exactly, and, on Python 3.11 and later, the
    bytes of ``reference_save``."""
    path, want = tmp_path / "one-pass.bundle", tmp_path / "zipfile.bundle"
    ps.save(path, extra)
    reference_save(ps, want, extra)
    if sys.version_info >= (3, 11):
        assert path.read_bytes() == want.read_bytes()
    # else: Python 3.10's zipfile rewrites each local header with extract
    # version 20 and the real sizes, so its bytes differ; both load the same
    with zipfile.ZipFile(path) as zf:
        assert zf.testzip() is None
    arrays = {name: p.data for name, p in ps._params.items()}
    with np.load(path, allow_pickle=False) as npz:
        assert npz.files == [*arrays, "__meta__"]
        assert_same_arrays(arrays, {name: npz[name] for name in arrays})
    state, got_extra = ad.ParamSet.read(path)
    assert_same_arrays(arrays, state)
    assert got_extra == (extra or {})
    for name, arr in arrays.items():
        assert state[name].flags.f_contiguous == arr.flags.f_contiguous, name


class TestOnePassWriter:
    @pytest.mark.parametrize("case", CASES)
    def test_bytes_equal_zipfile_and_write_array(self, tmp_path, case):
        arrays, extra = CASES[case]
        assert_saves_like_reference(param_set(arrays), tmp_path, extra)

    @pytest.mark.parametrize("size_limit, count_limit", [
        (300, zipfile.ZIP_FILECOUNT_LIMIT),  # sizes, offsets and the directory
        (zipfile.ZIP64_LIMIT, 3),            # the member count only
        (300, 3),
    ], ids=["sizes", "count", "both"])
    def test_zip64_records_where_zipfile_writes_them(
            self, tmp_path, monkeypatch, size_limit, count_limit):
        """Limits patched low, as a bundle past 2 GiB or 65,535 members
        meets them, drive both writers through their zip64 records."""
        monkeypatch.setattr(zipfile, "ZIP64_LIMIT", size_limit)
        monkeypatch.setattr(zipfile, "ZIP_FILECOUNT_LIMIT", count_limit)
        rng = np.random.default_rng(31)
        ps = param_set({"small": rng.normal(size=2), "large": rng.normal(size=(8, 9)),
                        "b": np.array(0.5), "f": np.asfortranarray(rng.normal(size=(5, 4))),
                        "tiny": np.zeros(1)})
        assert_saves_like_reference(ps, tmp_path, {"epoch": 2})
        path = tmp_path / "one-pass.bundle"
        assert path.read_bytes()[-42:-38] == b"PK\x06\x07"  # the zip64 locator
        with zipfile.ZipFile(path) as zf:
            central_zip64 = [info.extra[:2] == b"\x01\x00" for info in zf.infolist()]
        assert any(central_zip64) == (size_limit == 300)

    def test_member_count_past_16_bits(self, tmp_path):
        """65,537 members, unpatched: the end record's count saturates at
        0xFFFF and the zip64 end record holds the real one."""
        ps = ad.ParamSet()
        for k in range(65536):
            ps.new_from(str(k), np.zeros(0))
        path, want = tmp_path / "one-pass.bundle", tmp_path / "zipfile.bundle"
        ps.save(path)
        reference_save(ps, want)
        if sys.version_info >= (3, 11):  # see assert_saves_like_reference
            assert path.read_bytes() == want.read_bytes()
        assert path.read_bytes()[-12:-10] == b"\xff\xff"  # the end record's count
        with zipfile.ZipFile(path) as zf:
            assert len(zf.infolist()) == 65537


def read_outcome(read, path):
    """The arrays ``read`` gives of the archive at ``path``, or None where
    it refuses the archive with a ValueError."""
    with open(path, "rb") as fh:
        try:
            return read(fh)
        except ValueError:
            return None


def assert_reads_like_zipfile(path):
    """``read_npz`` gives the names, order, dtypes, shapes, layouts and
    bits that ``reference_read_npz`` gives of the archive at ``path``."""
    want, got = read_outcome(reference_read_npz, path), read_outcome(ad.read_npz, path)
    assert want is not None and got is not None
    assert_same_arrays(want, got)
    for name, arr in want.items():
        assert got[name].flags.f_contiguous == arr.flags.f_contiguous, name


def npy_bytes(arr):
    fh = io.BytesIO()
    np.lib.format.write_array(fh, arr)
    return fh.getvalue()


class Unseekable:
    """A write-only stream that cannot tell or seek, so ``zipfile``
    writes each member's sizes and CRC-32 after its data."""

    def __init__(self, fh):
        self.write, self.flush = fh.write, fh.flush


def foreign_archive(kind, path):
    """Write to ``path`` an archive of the kind ``kind`` that another
    writer than ``ParamSet.save`` makes."""
    rng = np.random.default_rng(32)
    arrays = {"w": rng.normal(size=(3, 5)), "f": np.asfortranarray(rng.normal(size=(4, 3))),
              "i": np.arange(6, dtype=np.int32), "ü": np.array(2.5)}
    if kind == "savez":
        np.savez(path, **arrays)
    elif kind == "savez_compressed":
        np.savez_compressed(path, **arrays)
    elif kind == "unseekable":  # as np.savez writes, to a stream
        with open(path, "wb") as fh, zipfile.ZipFile(Unseekable(fh), "w") as zf:
            for name, arr in arrays.items():
                with zf.open(f"{name}.npy", "w", force_zip64=True) as member:
                    np.lib.format.write_array(member, arr)
        with zipfile.ZipFile(path) as zf:
            assert all(info.flag_bits & 0x08 for info in zf.infolist())  # data descriptors
    elif kind == "writestr":  # local headers without a zip64 extra
        with zipfile.ZipFile(path, "w") as zf:
            for name, arr in arrays.items():
                zf.writestr(f"{name}.npy", npy_bytes(arr))
        assert path.read_bytes()[28:30] == b"\x00\x00"  # the first local extra's length


FOREIGN = ["savez", "savez_compressed", "unseekable", "writestr"]


def zip64_bundle(path, monkeypatch):
    """Save to ``path``, under zip64 limits patched low, a bundle with
    zip64 extras in its local and central headers, a zip64 end record and
    its locator; return its parameters."""
    monkeypatch.setattr(zipfile, "ZIP64_LIMIT", 300)
    monkeypatch.setattr(zipfile, "ZIP_FILECOUNT_LIMIT", 3)
    rng = np.random.default_rng(33)
    ps = param_set({"small": rng.normal(size=2), "large": rng.normal(size=(6, 5)),
                    "f": np.asfortranarray(rng.normal(size=(3, 2))), "b": np.array(0.5)})
    ps.save(path, extra={"epoch": 3})
    monkeypatch.undo()
    return ps


def non_ascii_bundle(path, monkeypatch):
    """Save to ``path`` a bundle whose first member's name is not ASCII."""
    ps = param_set({"wört": np.random.default_rng(34).normal(size=3), "b": np.ones(2)})
    ps.save(path, extra={"epoch": 3})
    return ps


class TestOnePassReader:
    @pytest.mark.parametrize("case", CASES)
    def test_reads_like_zipfile(self, tmp_path, case):
        arrays, extra = CASES[case]
        path = tmp_path / "m.bundle"
        param_set(arrays).save(path, extra)
        assert_reads_like_zipfile(path)

    @pytest.mark.parametrize("size_limit, count_limit", [
        (300, zipfile.ZIP_FILECOUNT_LIMIT), (zipfile.ZIP64_LIMIT, 3), (300, 3),
    ], ids=["sizes", "count", "both"])
    def test_zip64_records_read_like_zipfile(
            self, tmp_path, monkeypatch, size_limit, count_limit):
        monkeypatch.setattr(zipfile, "ZIP64_LIMIT", size_limit)
        monkeypatch.setattr(zipfile, "ZIP_FILECOUNT_LIMIT", count_limit)
        arrays, extra = CASES["many"]
        path = tmp_path / "m.bundle"
        param_set(arrays).save(path, extra)
        assert_reads_like_zipfile(path)

    @pytest.mark.parametrize("kind", FOREIGN)
    def test_other_writers_read_like_zipfile(self, tmp_path, kind):
        path = tmp_path / "m.npz"
        foreign_archive(kind, path)
        assert_reads_like_zipfile(path)

    def test_stored_arrays_are_views_of_one_buffer(self, tmp_path):
        path = tmp_path / "m.bundle"
        param_set({"w": np.ones((2, 3)), "b": np.zeros(3)}).save(path)
        with open(path, "rb") as fh:
            state = ad.read_npz(fh)
        owners = set()
        for arr in state.values():
            while isinstance(arr, np.ndarray):
                arr = arr.base
            owners.add(arr.obj)  # what the memoryview views
        assert owners == {path.read_bytes()} and type(owners.pop()) is bytes

    @pytest.mark.parametrize("field", ["count", "comment length"])
    def test_directory_not_filled_by_its_entries_is_refused(self, tmp_path, field):
        """zipfile walks the directory by its size alone and reads past a
        last entry that overruns it; the one-pass reader refuses both."""
        path = tmp_path / "m.ckpt"
        param_set({"w": np.ones(2), "b": np.zeros(3)}).save(path)
        data = bytearray(path.read_bytes())
        end = len(data) - 22  # the end record, behind the last entry, __meta__.npy's
        if field == "count":  # of the entries on this disk and in all
            data[end + 8] -= 1
            data[end + 10] -= 1
        else:
            data[end - len(b"__meta__.npy") - 46 + 32] += 1
        path.write_bytes(bytes(data))
        assert read_outcome(reference_read_npz, path) is not None
        assert read_outcome(ad.read_npz, path) is None

    @pytest.mark.parametrize("build", [zip64_bundle, non_ascii_bundle],
                             ids=["zip64", "non-ascii"])
    def test_corrupted_byte_is_refused_where_zipfile_refuses(
            self, tmp_path, monkeypatch, build):
        """Every byte flipped in turn, zip64 records and a UTF-8 name
        included: the read gives the saved arrays back or the one
        ValueError, and always the ValueError where zipfile refuses."""
        path = tmp_path / "m.ckpt"
        want = build(path, monkeypatch).state_dict()
        refused = 0
        for offset, mask in byte_flips(path):
            try:
                state, extra = ad.ParamSet.read(path)
            except ValueError as err:
                assert str(err) == f"{path}: not a format-2 checkpoint", (offset, mask)
                refused += 1
                continue
            assert read_outcome(reference_read_npz, path) is not None, (offset, mask)
            assert extra == {"epoch": 3}, (offset, mask)
            assert_same_arrays(want, state)
        assert refused > 0

    @pytest.mark.parametrize("build", [zip64_bundle, non_ascii_bundle],
                             ids=["zip64", "non-ascii"])
    def test_truncated_bundle_is_value_error_naming_path(self, tmp_path, monkeypatch, build):
        path = tmp_path / "m.ckpt"
        build(path, monkeypatch)
        clean = path.read_bytes()
        for length in range(len(clean)):
            path.write_bytes(clean[:length])
            with pytest.raises(ValueError) as err:
                ad.ParamSet.read(path)
            assert str(err.value) == f"{path}: not a format-2 checkpoint", length


# ---------------------------------------------------------------------------
# every differentiable op meets the finite-difference gradcheck

TESTS = sorted(Path(__file__).resolve().parent.glob("*.py"))
GRADCHECKS = ("check_gradients", "gradcheck")  # the oracle and its fixture


def builds_a_node(node):
    """Whether ``node`` is a call of ``_make`` or ``ad._make``."""
    if not isinstance(node, ast.Call):
        return False
    f = node.func
    return getattr(f, "id", None) == "_make" or (
        isinstance(f, ast.Attribute) and f.attr == "_make"
        and getattr(f.value, "id", None) == "ad")


def differentiable_ops(source):
    """Public functions of ``source``, module-level or methods as
    ``Class.method``, that build a result with ``_make`` or ``ad._make``,
    in a nested function or not.  A dunder method counts as public."""
    body = ast.parse(source).body
    fns = [(fn.name, fn) for fn in body if isinstance(fn, ast.FunctionDef)]
    fns += [(f"{cls.name}.{fn.name}", fn) for cls in body if isinstance(cls, ast.ClassDef)
            for fn in cls.body if isinstance(fn, ast.FunctionDef)]
    return {name for name, fn in fns
            if (not fn.name.startswith("_") or fn.name.endswith("__"))
            and any(builds_a_node(n) for n in ast.walk(fn))}


def gradchecked_ops(sources):
    """Attributes read as ``ad.<name>`` inside a test function (module
    level or method) that calls the gradcheck oracle or its fixture."""
    found = set()
    for source in sources:
        for fn in ast.walk(ast.parse(source)):
            if not (isinstance(fn, ast.FunctionDef) and fn.name.startswith("test")):
                continue
            inside = list(ast.walk(fn))
            if any(isinstance(n, ast.Call) and getattr(n.func, "id", None) in GRADCHECKS
                   for n in inside):
                found |= {n.attr for n in inside if isinstance(n, ast.Attribute)
                          and isinstance(n.value, ast.Name) and n.value.id == "ad"}
    return found


def test_every_differentiable_op_is_gradchecked():
    """Ops live in ``autodiff``: one built with ``ad._make`` in another
    module is flagged under its module's name, which no test covers."""
    ops = set()
    for path in sorted(Path(ad.__file__).parent.glob("*.py")):
        found = differentiable_ops(path.read_text(encoding="utf-8"))
        ops |= found if path.stem == "autodiff" else {f"{path.stem}.{f}" for f in found}
    covered = gradchecked_ops(p.read_text(encoding="utf-8") for p in TESTS)
    assert {"lstm_sequence", "mlp", "biaffine_edge", "biaffine_label"} <= ops
    assert sorted(ops - covered) == []


def test_scan_flags_an_op_without_gradcheck():
    library = ("def _make(data, parents, rule):\n    pass\n\n"
               "def checked(a):\n    return _make(a, (), None)\n\n"
               "def by_fixture(a):\n    return _make(a, (), None)\n\n"
               "def forward_only(a):\n    return _make(a, (), None)\n\n"
               "def via_helper(a):\n    def inner():\n"
               "        return _make(a, (), None)\n    return inner()\n\n"
               "def composite(a):\n    return checked(a)\n\n"
               "def _private(a):\n    return _make(a, (), None)\n\n"
               "def elsewhere(a):\n    return ad._make(a, (), None)\n\n"
               "def other_make(a):\n    return zf._make(a)\n\n"
               "class Layer:\n    def __call__(self, a):\n        return ad._make(a, (), None)\n\n"
               "    def _private(self, a):\n        return ad._make(a, (), None)\n")
    tests = ("def helper():\n    return ad.via_helper(1)\n\n"
             "def test_forward():\n    ad.forward_only(1)\n\n"
             "def test_fixture(gradcheck):\n    gradcheck(lambda: ad.by_fixture(1), [])\n\n"
             "class TestOps:\n    def test_grad(self):\n"
             "        check_gradients(lambda: helper() + ad.checked(1), [])\n")
    ops = differentiable_ops(library)
    assert sorted(ops) == ["Layer.__call__", "by_fixture", "checked", "elsewhere",
                           "forward_only", "via_helper"]
    assert sorted(ops - gradchecked_ops([tests])) == ["Layer.__call__", "elsewhere",
                                                      "forward_only", "via_helper"]
