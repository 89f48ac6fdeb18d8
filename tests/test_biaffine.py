"""Pair scoring, threshold decoding, and the edge/label losses."""

import numpy as np
import pytest

from mrparse import autodiff as ad
from mrparse import biaffine as bf
from mrparse import encoder as enc
from mrparse import sdp

from conftest import (bilinear, bilinear_label, check_gradients, reference_frame_predict,
                      reference_head_score)


def mk_head(in_dim=6, labels=("A", "B", "C"), seed=0, **kw):
    params = ad.ParamSet()
    head = bf.BiaffineHead(params, "h", in_dim, list(labels),
                           np.random.default_rng(seed), edge_mlp=5, label_mlp=4, **kw)
    return head, params


def mk_scores(edge_probs, label_logits, labels):
    """Hand-built PairScores, bypassing the network."""
    n = edge_probs.shape[0]
    return bf.PairScores(edge_probs=ad.Tensor(edge_probs),
                         label_logits=ad.Tensor(label_logits.reshape(n * n, -1)),
                         n_positions=n, labels=list(labels))


def decode(edge_probs, label_logits, labels):
    """``decode_flavor0`` of hand-set edge probabilities and label logits."""
    probs = mk_scores(edge_probs, label_logits, labels).label_probs()
    return bf.decode_flavor0(edge_probs, probs, list(labels))


class TestScoring:
    def test_zero_parameters_give_half_everywhere(self):
        head, _ = mk_head()
        head.u_edge.data[...] = 0.0
        head.w_edge.data[...] = 0.0
        head.b_edge.data[...] = 0.0
        states = ad.Tensor(np.random.default_rng(1).normal(size=(4, 6)))
        out = head.score(states)
        np.testing.assert_allclose(out.edge_probs.data, 0.5, atol=1e-12)

    def test_shape_includes_root_row(self):
        head, _ = mk_head()
        states = ad.Tensor(np.random.default_rng(2).normal(size=(5, 6)))
        out = head.score(states)
        assert out.edge_probs.shape == (5, 5)
        assert out.label_logits.shape == (25, 3)

    def test_single_class_probability_one(self):
        head, _ = mk_head(labels=("ONLY",))
        states = ad.Tensor(np.random.default_rng(3).normal(size=(3, 6)))
        probs = head.score(states).label_probs()
        np.testing.assert_allclose(probs, 1.0, atol=1e-12)

    def test_label_distributions_sum_to_one(self):
        head, _ = mk_head()
        states = ad.Tensor(np.random.default_rng(4).normal(size=(4, 6)))
        probs = head.score(states).label_probs()
        np.testing.assert_allclose(probs.sum(axis=-1), 1.0, atol=1e-12)

    def test_scores_match_per_pair_bilinear(self):
        # vectorized scorer equals the reference pairwise computation
        head, _ = mk_head()
        states = ad.Tensor(np.random.default_rng(5).normal(size=(4, 6)))
        out = head.score(states)
        ef = head.edge_from(states).data
        et = head.edge_to(states).data
        w = head.w_edge.data[:, 0]
        for i in range(4):
            for j in range(4):
                ref = bilinear(ad.Tensor(ef[i]), ad.Tensor(et[j]), head.u_edge,
                               ad.Tensor(w), head.b_edge).data.item()
                got = out.edge_probs.data[i, j]
                assert got == pytest.approx(1.0 / (1.0 + np.exp(-ref)), abs=1e-10)

    def test_label_scores_match_reference_form(self):
        head, _ = mk_head()
        states = ad.Tensor(np.random.default_rng(6).normal(size=(3, 6)))
        out = head.score(states)
        lf = head.label_from(states).data
        lt = head.label_to(states).data
        for i in range(3):
            for j in range(3):
                ref = bilinear_label(ad.Tensor(lf[i]), ad.Tensor(lt[j]),
                                     head.u_label,
                                     ad.Tensor(head.w_label.data[:, 0, :])).data
                got = out.label_logits.data[i * 3 + j]
                np.testing.assert_allclose(got, ref, atol=1e-10)

    def test_gradcheck_through_full_scorer(self):
        # finite differences through MLPs, bilinear forms, sigmoid and CE
        for trial in range(20):
            head, params = mk_head(in_dim=4, labels=("A", "B"), seed=50 + trial)
            rng = np.random.default_rng(trial)
            states = ad.Tensor(rng.normal(size=(3, 4)), requires_grad=True)
            target = (rng.random((3, 3)) < 0.4).astype(float)
            gold = [(1, 2, 0), (2, 1, 1)]

            def build():
                out = head.score(states)
                e, l = bf.edge_and_label_loss(out, gold, gold_tops=[1])
                return ad.add(e, l)

            leaves = [states, head.u_edge, head.w_edge, head.b_edge,
                      head.u_label, head.w_label, head.edge_from.w, head.label_to.w]
            check_gradients(build, leaves)


# width-0.05 shapes of the paper recipe: states 2·26 wide, MLPs of 30
# (the UCCA recipe's 500/400 give 25 and 20), a DM-sized label inventory
WIDTH_005 = dict(in_dim=52, n_labels=12, edge_mlp=30, label_mlp=30)
UCCA_005 = dict(in_dim=52, n_labels=8, edge_mlp=25, label_mlp=20)
RATES = dict(input_dropout=0.45, edge_dropout=0.25, label_dropout=0.33)


def paper_head(in_dim, n_labels, edge_mlp, label_mlp, seed=0, **kw):
    params = ad.ParamSet()
    head = bf.BiaffineHead(params, "h", in_dim, [f"L{c}" for c in range(n_labels)],
                           np.random.default_rng(seed), edge_mlp=edge_mlp,
                           label_mlp=label_mlp, **kw)
    return head, params


def head_loss(scores, n, seed):
    """Edge and label loss of random gold over ``n`` positions."""
    rng = np.random.default_rng(seed)
    gold = [(i, j, int(rng.integers(len(scores.labels))))
            for i in range(1, n) for j in range(1, n) if i != j and rng.random() < 0.3]
    edge, label = bf.edge_and_label_loss(scores, gold, [1])
    return ad.add(edge, label)


def gradients(build, params, states):
    for t in params.tensors() + [states]:
        t.zero_grad()
    build().backward()
    return [t.grad for t in params.tensors() + [states]]


def assert_close_gradients(got, want, rtol=1e-10):
    for g, w in zip(got, want):
        assert (g is None) == (w is None)
        if g is not None:
            scale = max(1.0, float(np.abs(w).max()))
            assert np.abs(g - w).max() <= rtol * scale


SHAPES = pytest.mark.parametrize("shape", [WIDTH_005, UCCA_005], ids=["dm", "ucca"])


class TestAgainstComposedOracle:
    """The fused head against ``conftest.reference_head_score``: the
    elementary ops as they composed it."""

    @SHAPES
    @pytest.mark.parametrize("n", [1, 2, 9, 17])
    def test_inference_forward_is_bytewise_the_oracle(self, shape, n):
        head, _ = paper_head(**shape, **RATES)
        states = ad.Tensor(np.random.default_rng(n).normal(size=(n, shape["in_dim"])))
        got, want = head.score(states), reference_head_score(head, states)
        assert got.edge_probs.data.tobytes() == want.edge_probs.data.tobytes()
        assert got.label_logits.data.tobytes() == want.label_logits.data.tobytes()
        assert got.label_logits.data.strides == want.label_logits.data.strides
        assert got.label_probs().tobytes() == want.label_probs().tobytes()

    @SHAPES
    def test_training_forward_and_gradients_match_the_oracle(self, shape):
        head, params = paper_head(**shape, **RATES)
        states = ad.Tensor(np.random.default_rng(3).normal(size=(11, shape["in_dim"])),
                           requires_grad=True)

        def build(score):
            return lambda: head_loss(score(head, states, np.random.default_rng(5)), 11, 6)

        fused = lambda h, x, rng: h.score(x, rng)
        assert build(fused)().data.tobytes() == build(reference_head_score)().data.tobytes()
        got = gradients(build(fused), params, states)
        want = gradients(build(reference_head_score), params, states)
        assert sum(g is not None for g in got) == len(got)
        assert_close_gradients(got, want)

    @pytest.mark.parametrize("rate", [0.0, 0.25, 1.0])
    def test_generator_ends_where_the_oracle_leaves_it(self, rate):
        head, _ = paper_head(**UCCA_005, input_dropout=rate, edge_dropout=rate,
                             label_dropout=rate)
        states = ad.Tensor(np.random.default_rng(8).normal(size=(7, 52)))
        rngs = [np.random.default_rng(9), np.random.default_rng(9)]
        got = head.score(states, rngs[0])
        want = reference_head_score(head, states, rngs[1])
        assert rngs[0].bit_generator.state == rngs[1].bit_generator.state
        assert got.edge_probs.data.tobytes() == want.edge_probs.data.tobytes()
        assert got.label_logits.data.tobytes() == want.label_logits.data.tobytes()

    def test_frame_classifier_matches_the_oracle(self):
        params = ad.ParamSet()
        clf = sdp.FrameClassifier(params, "fc", 52, [f"t{i}" for i in range(9)],
                                  ["<NONE>"] + [f"a{i}" for i in range(6)],
                                  np.random.default_rng(1), hidden=30, drop=0.55)
        states = ad.Tensor(np.random.default_rng(2).normal(size=(10, 52)), requires_grad=True)
        got, want = clf.predict(states), reference_frame_predict(clf, states)
        for g, w in zip([got.type_logits] + got.arg_logits, [want.type_logits] + want.arg_logits):
            assert g.data.tobytes() == w.data.tobytes()
        frames = ["t1:a1-a2", "t3:a0", "t2:a4-a5-a1-a3-a2", "t8:a1"]
        positions = [1, 4, 5, 9]

        def build(predict):
            pred = predict(clf, states, np.random.default_rng(4))
            return lambda: sdp.frame_loss(pred, positions, frames, clf)

        fused = lambda c, x, rng: c.predict(x, rng)
        assert build(fused)().data.tobytes() == build(reference_frame_predict)().data.tobytes()
        assert_close_gradients(gradients(lambda: build(fused)(), params, states),
                               gradients(lambda: build(reference_frame_predict)(), params,
                                         states))
        rngs = [np.random.default_rng(7), np.random.default_rng(7)]
        clf.predict(states, rngs[0])
        reference_frame_predict(clf, states, rngs[1])
        assert rngs[0].bit_generator.state == rngs[1].bit_generator.state


def count_tensors(monkeypatch, call):
    """Tensors constructed while ``call()`` runs."""
    made, init = [], ad.Tensor.__init__

    def counting(self, *args, **kwargs):
        made.append(self)
        init(self, *args, **kwargs)

    monkeypatch.setattr(ad.Tensor, "__init__", counting)
    call()
    monkeypatch.setattr(ad.Tensor, "__init__", init)
    return len(made)


class TestTensorCounts:
    """A head's score is five nodes in training (input dropout, the two
    MLP pairs, the edge and label scorers) and four in inference."""

    def test_head_score(self, monkeypatch):
        head, _ = paper_head(**WIDTH_005, **RATES)
        states = ad.Tensor(np.random.default_rng(0).normal(size=(6, 52)))
        rng = np.random.default_rng(1)
        assert count_tensors(monkeypatch, lambda: head.score(states, rng)) == 5
        with ad.no_grad():
            assert count_tensors(monkeypatch, lambda: head.score(states)) == 4

    def test_frame_classifier(self, monkeypatch):
        """One MLP node, its five chunks and five linear layers."""
        params = ad.ParamSet()
        clf = sdp.FrameClassifier(params, "fc", 52, ["t0", "t1"], ["<NONE>", "a"],
                                  np.random.default_rng(1), hidden=30, drop=0.55)
        states = ad.Tensor(np.random.default_rng(0).normal(size=(6, 52)))
        rng = np.random.default_rng(1)
        assert count_tensors(monkeypatch, lambda: clf.predict(states, rng)) == 11

    def test_mlp_call(self, monkeypatch):
        mlp = enc.Mlp(ad.ParamSet(), "m", 4, 3, np.random.default_rng(0))
        x = ad.Tensor(np.ones((2, 4)))
        assert count_tensors(monkeypatch, lambda: mlp(x)) == 1


class TestDecode:
    def test_edge_above_half_adopted(self):
        p = np.full((3, 3), 0.1)
        p[1, 2] = 0.6
        logits = np.zeros((3, 3, 2))
        logits[1, 2, 1] = 5.0
        out = decode(p, logits, ["A", "B"])
        assert out.edges == [(1, 2, "B")]
        assert out.kept == [1, 2]

    def test_tie_at_half_not_adopted(self):
        p = np.full((3, 3), 0.5)
        out = decode(p, np.zeros((3, 3, 1)), ["A"])
        assert out.edges == [] and out.tops == []

    def test_multiple_tops(self):
        p = np.full((4, 4), 0.2)
        p[0, 1] = 0.7
        p[0, 3] = 0.8
        out = decode(p, np.zeros((4, 4, 1)), ["A"])
        assert out.tops == [1, 3]
        assert out.kept == [1, 3]

    def test_isolated_non_top_discarded(self):
        p = np.full((4, 4), 0.1)
        p[0, 1] = 0.9   # top
        p[1, 2] = 0.9   # edge 1->2
        out = decode(p, np.zeros((4, 4, 1)), ["A"])
        assert 3 not in out.kept
        assert out.kept == [1, 2]

    def test_top_with_no_edges_is_kept(self):
        p = np.full((3, 3), 0.1)
        p[0, 2] = 0.9
        out = decode(p, np.zeros((3, 3, 1)), ["A"])
        assert out.kept == [2] and out.edges == []

    def test_invariant_under_crossing_preserving_recalibration(self):
        rng = np.random.default_rng(9)
        p = rng.random((5, 5))
        logits = rng.normal(size=(5, 5, 3))
        a = decode(p, logits, ["A", "B", "C"])
        squeezed = 0.5 + (p - 0.5) / 4  # strictly monotone, same 0.5 crossings
        b = decode(squeezed, logits, ["A", "B", "C"])
        assert a == b

    def test_label_tie_breaks_to_lowest_index(self):
        p = np.full((3, 3), 0.1)
        p[1, 2] = 0.9
        logits = np.zeros((3, 3, 3))  # all classes tie
        out = decode(p, logits, ["A", "B", "C"])
        assert out.edges == [(1, 2, "A")]

    @pytest.mark.parametrize("seed", range(6))
    def test_vectorized_threshold_equals_scalar_loops(self, seed):
        """Off the diagonal, strictly above 0.5, row-major, tops from row
        0, as Python ints; cells at exactly 0.5 stay out."""
        rng = np.random.default_rng(seed)
        n = int(rng.integers(1, 9))
        p = rng.choice([0.1, 0.5, np.nextafter(0.5, 1.0), 0.9], size=(n, n))
        label_probs = rng.random((n, n, 3))
        labels = ["A", "B", "C"]
        edges = [(i, j, labels[int(np.argmax(label_probs[i, j]))])
                 for i in range(1, n) for j in range(1, n) if i != j and p[i, j] > 0.5]
        tops = [j for j in range(1, n) if p[0, j] > 0.5]
        kept = sorted({k for i, j, _ in edges for k in (i, j)} | set(tops))
        assert bf.threshold_pairs(p) == [(i, j) for i, j, _ in edges]
        out = bf.decode_flavor0(p, label_probs, labels)
        assert (out.edges, out.tops, out.kept) == (edges, tops, kept)
        assert all(type(k) is int for i, j, _ in out.edges for k in (i, j))
        assert all(type(k) is int for k in out.tops + out.kept)


class TestLoss:
    def test_perfect_predictions_near_zero(self):
        p = np.full((3, 3), 1e-12)
        p[1, 2] = 1.0 - 1e-12
        p[0, 1] = 1.0 - 1e-12
        logits = np.zeros((3, 3, 2))
        logits[1, 2, 0] = 50.0
        scores = mk_scores(p, logits, ["A", "B"])
        e, l = bf.edge_and_label_loss(scores, [(1, 2, 0)], [1])
        assert e.data.item() < 1e-6
        assert l.data.item() < 1e-6

    def test_two_node_hand_computation(self):
        p = np.array([[0.1, 0.7, 0.2],
                      [0.3, 0.4, 0.8],
                      [0.2, 0.1, 0.5]])
        logits = np.zeros((3, 3, 2))
        logits[1, 2] = [1.0, -1.0]
        scores = mk_scores(p, logits, ["A", "B"])
        e, l = bf.edge_and_label_loss(scores, [(1, 2, 0)], [1])
        # BCE: target 1 at (0,1) and (1,2); 0 elsewhere
        want = 0.0
        target = np.zeros((3, 3))
        target[0, 1] = 1.0
        target[1, 2] = 1.0
        for i in range(3):
            for j in range(3):
                t = target[i, j]
                want += -(t * np.log(p[i, j]) + (1 - t) * np.log(1 - p[i, j]))
        assert e.data.item() == pytest.approx(want, abs=1e-10)
        soft = np.exp([1.0, -1.0]) / np.exp([1.0, -1.0]).sum()
        assert l.data.item() == pytest.approx(-np.log(soft[0]), abs=1e-10)

    def test_gold_top_charged_through_root_cell(self):
        p = np.full((3, 3), 0.5)
        scores = mk_scores(p, np.zeros((3, 3, 1)), ["A"])
        e_without, _ = bf.edge_and_label_loss(scores, [], [])
        e_with, _ = bf.edge_and_label_loss(scores, [], [2])
        # flipping one cell's target at p=0.5 leaves -log(0.5) unchanged
        assert e_with.data.item() == pytest.approx(e_without.data.item())
        p2 = p.copy()
        p2[0, 2] = 0.9
        scores2 = mk_scores(p2, np.zeros((3, 3, 1)), ["A"])
        e2_without, _ = bf.edge_and_label_loss(scores2, [], [])
        e2_with, _ = bf.edge_and_label_loss(scores2, [], [2])
        assert e2_with.data.item() < e2_without.data.item()  # target now matches the confident cell

    def test_no_gold_edges_zero_label_loss(self):
        scores = mk_scores(np.full((2, 2), 0.5), np.zeros((2, 2, 1)), ["A"])
        _, l = bf.edge_and_label_loss(scores, [], [1])
        assert l.data.item() == 0.0


class TestOverfit:
    def test_toy_graph_separates_edges(self):
        # gold edges must reach >0.9, non-edges <0.1 after a short fit
        rng = np.random.default_rng(77)
        head, params = mk_head(in_dim=5, labels=("A", "B"), seed=3)
        states = ad.Tensor(rng.normal(size=(5, 5)))
        gold = [(1, 2, 0), (2, 3, 1), (4, 1, 0)]
        tops = [1]
        opt = ad.Adam(params.tensors(), lr=0.01)
        for _ in range(300):
            opt.zero_grad()
            out = head.score(states)
            e, l = bf.edge_and_label_loss(out, gold, tops)
            ad.add(e, l).backward()
            opt.step()
        p = head.score(states).edge_probs.data
        target = np.zeros((5, 5))
        for i, j, _ in gold:
            target[i, j] = 1.0
        target[0, 1] = 1.0
        assert p[target == 1.0].min() > 0.9
        assert p[target == 0.0].max() < 0.1
        scores = head.score(states)
        decoded = bf.decode_flavor0(scores.edge_probs.data, scores.label_probs(),
                                    scores.labels)
        assert sorted((i, j) for i, j, _ in decoded.edges) == sorted((i, j) for i, j, _ in gold)
        assert decoded.tops == tops
