"""Frame classification, joint loss, lexicon postprocessing, graph building."""

import numpy as np
import pytest

from mrparse import autodiff as ad
from mrparse import graphs as G
from mrparse import sdp
from mrparse.biaffine import PairScores
from mrparse.config import TrainConfig
from mrparse.training import multitask_loss


def mk_tokens(words, lemmas=None, xpos=None):
    lemmas = lemmas or words
    xpos = xpos or ["X"] * len(words)
    rows = []
    pos = 0
    for i, w in enumerate(words):
        rows.append(G.TokenRow(i, w, lemmas[i], "X", xpos[i], "O",
                               G.Anchor(pos, pos + len(w))))
        pos += len(w) + 1
    return rows


def mk_scores(edge_probs, label_logits, labels):
    n = edge_probs.shape[0]
    return PairScores(edge_probs=ad.Tensor(edge_probs),
                      label_logits=ad.Tensor(label_logits.reshape(n * n, -1)),
                      n_positions=n, labels=list(labels))


PARSE_LEXICON = sdp.FrameLexicon([
    sdp.FrameEntry("parse", "", "n", ("x",), 3),
    sdp.FrameEntry("parse", "", "v", ("e", "i", "p"), 7),
])


class TestFrameStrings:
    def test_parse_two_arg_frame(self):
        assert sdp.parse_frame("named:x-c") == ("named", ("x", "c"))

    def test_parse_single_arg(self):
        assert sdp.parse_frame("n:x") == ("n", ("x",))

    def test_parse_no_args(self):
        assert sdp.parse_frame("q") == ("q", ())

    def test_render_roundtrip(self):
        for s in ("named:x-c", "n:x", "v:e-i-p", "q"):
            assert sdp.render_frame(*sdp.parse_frame(s)) == s


class TestLexicon:
    def test_parse_has_exactly_two_candidates(self):
        frames = {sdp.render_frame(e.frame, e.args) for e in PARSE_LEXICON.by_lemma("parse")}
        assert frames == {"n:x", "v:e-i-p"}

    def test_first_arg_inferred_from_type(self):
        assert PARSE_LEXICON.first_arg_for_type("v") == "e"
        assert PARSE_LEXICON.first_arg_for_type("n") == "x"
        assert PARSE_LEXICON.first_arg_for_type("zz") is None

    def test_pos_keyed_lookup(self):
        lex = sdp.FrameLexicon([sdp.FrameEntry("run", "VB", "f1", ("ACT",), 2),
                                sdp.FrameEntry("run", "NN", "f2", (), 1)])
        assert [e.frame for e in lex.by_lemma_pos("run", "VB")] == ["f1"]


def uniform_prediction(types, arg_classes):
    """Type/argument rows that give every candidate the same joint probability."""
    t = np.full(len(types), 1.0 / len(types))
    a = [np.full(len(arg_classes), 1.0 / len(arg_classes)) for _ in range(sdp.N_ARG_HEADS)]
    return t, a


class TestDmReconstruction:
    TYPES = ["<UNK>", "n", "v"]
    ARGS = ["<NONE>", "x", "e", "i", "p"]

    def test_equal_probability_frequent_frame_wins(self):
        # equal joint probability -> score ratio is exactly the frequency ratio
        lex = sdp.FrameLexicon([sdp.FrameEntry("w", "", "n", ("x",), 1),
                                sdp.FrameEntry("w", "", "v", ("e",), 9)])
        t, a = uniform_prediction(self.TYPES, self.ARGS)
        assert sdp.reconstruct_dm_frame(t, a, "w", lex, self.TYPES, self.ARGS) == "v:e"

    def test_single_candidate_chosen_regardless(self):
        lex = sdp.FrameLexicon([sdp.FrameEntry("w", "", "n", ("x",), 1)])
        t = np.zeros(len(self.TYPES))
        t[self.TYPES.index("v")] = 1.0  # prediction favors an absent frame
        _, a = uniform_prediction(self.TYPES, self.ARGS)
        assert sdp.reconstruct_dm_frame(t, a, "w", lex, self.TYPES, self.ARGS) == "n:x"

    def test_uniform_frequency_reduces_to_joint_argmax(self):
        lex_lo = sdp.FrameLexicon([sdp.FrameEntry("w", "", "n", ("x",), 2),
                                   sdp.FrameEntry("w", "", "v", ("e",), 2)])
        lex_hi = sdp.FrameLexicon([sdp.FrameEntry("w", "", "n", ("x",), 8),
                                   sdp.FrameEntry("w", "", "v", ("e",), 8)])
        t = np.array([0.1, 0.6, 0.3])
        _, a = uniform_prediction(self.TYPES, self.ARGS)
        first = sdp.reconstruct_dm_frame(t, a, "w", lex_lo, self.TYPES, self.ARGS)
        second = sdp.reconstruct_dm_frame(t, a, "w", lex_hi, self.TYPES, self.ARGS)
        assert first == second == "n:x"

    def test_result_always_in_candidate_set(self):
        rng = np.random.default_rng(5)
        lex = sdp.FrameLexicon([sdp.FrameEntry("w", "", "n", ("x",), 3),
                                sdp.FrameEntry("w", "", "v", ("e", "i"), 5),
                                sdp.FrameEntry("w", "", "v", ("e", "i", "p"), 2)])
        allowed = {sdp.render_frame(e.frame, e.args) for e in lex.by_lemma("w")}
        for _ in range(50):
            t = rng.dirichlet(np.ones(len(self.TYPES)))
            a = [rng.dirichlet(np.ones(len(self.ARGS))) for _ in range(sdp.N_ARG_HEADS)]
            assert sdp.reconstruct_dm_frame(t, a, "w", lex, self.TYPES, self.ARGS) in allowed

    def test_missing_lemma_falls_back_to_argmax(self):
        t = np.array([0.0, 0.2, 0.8])
        a = [np.array([0.1, 0.1, 0.1, 0.6, 0.1]),   # i
             np.array([0.1, 0.1, 0.1, 0.1, 0.6]),   # p
             np.array([0.6, 0.1, 0.1, 0.1, 0.1]),   # <NONE> stops the list
             np.array([0.1, 0.6, 0.1, 0.1, 0.1])]
        got = sdp.reconstruct_dm_frame(t, a, "zzz", PARSE_LEXICON, self.TYPES, self.ARGS)
        # type v, first arg from lexicon statistics (e), then predicted i, p
        assert got == "v:e-i-p"


class TestPsdReconstruction:
    LEX = sdp.FrameLexicon([
        sdp.FrameEntry("give", "VB", "give-f1", ("ACT", "PAT"), 5),
        sdp.FrameEntry("give", "VB", "give-f2", ("ACT",), 2),
        sdp.FrameEntry("give", "VB", "give-f3", ("ACT", "PAT", "ADDR"), 7),
    ])

    def test_suffix_stripped_before_matching(self):
        assert sdp.strip_label_suffix("ACT-arg") == "ACT"
        assert sdp.strip_label_suffix("RSTR") == "RSTR"

    def test_required_args_filter_and_frequency(self):
        # ACT and PAT present: f1 (5) and f2 (2) survive; f3 needs ADDR
        frame = sdp.reconstruct_psd_frame("give", "VB", ["ACT-arg", "PAT-arg"], self.LEX)
        assert frame == "give-f1"

    def test_all_args_present_lets_most_frequent_win(self):
        frame = sdp.reconstruct_psd_frame("give", "VB",
                                          ["ACT-arg", "PAT-arg", "ADDR-arg"], self.LEX)
        assert frame == "give-f3"

    def test_no_survivor_falls_back_to_most_frequent(self):
        frame = sdp.reconstruct_psd_frame("give", "VB", [], self.LEX)
        assert frame == "give-f3"  # nothing matches ACT; unfiltered max freq

    def test_single_candidate(self):
        lex = sdp.FrameLexicon([sdp.FrameEntry("x", "NN", "only", (), 1)])
        assert sdp.reconstruct_psd_frame("x", "NN", [], lex) == "only"

    def test_unknown_lemma_gives_none(self):
        assert sdp.reconstruct_psd_frame("zzz", "NN", [], self.LEX) is None


class TestFrameClassifier:
    TYPES = ["<UNK>", "n", "v", "named"]
    ARGS = ["<NONE>", "x", "e", "i", "p", "c"]

    def mk(self, seed=0, in_dim=5, hidden=8):
        params = ad.ParamSet()
        clf = sdp.FrameClassifier(params, "fc", in_dim, self.TYPES, self.ARGS,
                                  np.random.default_rng(seed), hidden=hidden)
        return clf, params

    def test_four_argument_heads(self):
        clf, _ = self.mk()
        pred = clf.predict(ad.Tensor(np.random.default_rng(1).normal(size=(4, 5))))
        assert pred.type_logits.shape == (4, len(self.TYPES))
        assert [a.shape for a in pred.arg_logits] == [(4, len(self.ARGS))] * 4

    def test_distributions_sum_to_one(self):
        clf, _ = self.mk()
        states = ad.Tensor(np.random.default_rng(1).normal(size=(4, 5)))
        pred = clf.predict(states)
        np.testing.assert_allclose(pred.type_probs().sum(axis=-1), 1.0, atol=1e-12)
        for k in range(4):
            np.testing.assert_allclose(pred.arg_probs(k).sum(axis=-1), 1.0, atol=1e-12)

    def test_targets_skip_first_argument(self):
        clf, _ = self.mk()
        t, arg_ids = clf.frame_targets("v:e-i-p")
        assert clf.types[t] == "v"
        assert [clf.arg_classes[i] for i in arg_ids] == ["i", "p", "<NONE>", "<NONE>"]

    def test_unknown_type_maps_to_unk(self):
        clf, _ = self.mk()
        t, _ = clf.frame_targets("mystery:z")
        assert clf.types[t] == "<UNK>"

    def test_overfit_type_accuracy(self):
        # toy corpus: states are separable, so type accuracy must hit 1.0
        clf, params = self.mk(seed=3)
        rng = np.random.default_rng(4)
        states = ad.Tensor(rng.normal(size=(6, 5)))
        positions = [1, 2, 3, 4, 5]
        frames = ["n:x", "v:e-i-p", "named:x-c", "n:x", "v:e"]
        opt = ad.Adam(params.tensors(), lr=0.02)
        for _ in range(200):
            opt.zero_grad()
            pred = clf.predict(states)
            sdp.frame_loss(pred, positions, frames, clf).backward()
            opt.step()
        pred = clf.predict(states)
        got = pred.type_probs()[positions].argmax(axis=-1)
        want = [clf.frame_targets(f)[0] for f in frames]
        accuracy = (got == np.array(want)).mean()
        assert accuracy >= 0.99


class TestJointLoss:
    """The DM/PSD part of the one objective, ``training.multitask_loss``."""

    def loss(self, lam_label, lam_frame, **bumped):
        values = {"dm.edge": 2.0, "dm.label": 3.0, "psd.edge": 5.0,
                  "psd.label": 7.0, "dm.frame": 11.0, **bumped}
        cfg = TrainConfig(lam_label=lam_label, lam_frame=lam_frame)
        terms = {k: ad.Tensor(v) for k, v in values.items()}
        return multitask_loss(cfg, terms).data.item()

    def test_label_zero_keeps_edges_only(self):
        assert self.loss(0.0, 0.5) == pytest.approx(2.0 + 5.0)

    def test_label_one_frame_zero_keeps_labels_only(self):
        assert self.loss(1.0, 0.0) == pytest.approx(3.0 + 7.0)

    def test_submitted_configuration_formula(self):
        want = 0.0210 * (3.0 + 7.0 + 0.5 * 11.0) + (1 - 0.0210) * (2.0 + 5.0)
        assert self.loss(0.0210, 0.5) == pytest.approx(want, abs=1e-12)

    def test_linear_in_each_component(self):
        lam_label, lam_frame = 0.3, 0.5
        base = self.loss(lam_label, lam_frame)
        bumped = self.loss(lam_label, lam_frame, **{"dm.edge": 3.0})
        assert bumped - base == pytest.approx(1.0 - lam_label)
        bumped_f = self.loss(lam_label, lam_frame, **{"dm.frame": 12.0})
        assert bumped_f - base == pytest.approx(lam_label * lam_frame)

    def test_invalid_coefficient_rejected(self):
        with pytest.raises(ValueError):
            TrainConfig(lam_label=1.5)


class TestNodeLabels:
    def test_lemma_by_default(self):
        toks = mk_tokens(["dogs"], lemmas=["dog"])
        assert sdp.assign_node_labels([0], toks) == {0: "dog"}


class TestGoldAndBuild:
    def gold(self):
        toks = mk_tokens(["the", "cat", "slept"])
        nodes = (G.MrpNode(0, "cat", properties=(("pos", "X"), ("frame", "n:x")),
                           anchors=(G.Anchor(4, 7),)),
                 G.MrpNode(1, "sleep", properties=(("pos", "X"), ("frame", "v:e")),
                           anchors=(G.Anchor(8, 13),)))
        g = G.MrpGraph("s1", 0, "dm", "the cat slept", tops=(1,),
                       nodes=nodes, edges=(G.MrpEdge(1, 0, "ARG1"),))
        return g, toks

    def test_gold_targets_position_space(self):
        g, toks = self.gold()
        edges, tops, frames = sdp.gold_targets(g, toks, {"ARG1": 0})
        assert edges == [(3, 2, 0)]   # slept(token 2) -> cat(token 1), +1 shift
        assert tops == [3]
        assert frames == {2: "n:x", 3: "v:e"}

    def test_build_graph_validates_and_keeps_structure(self):
        toks = mk_tokens(["the", "cat", "slept", "x"])
        p = np.full((5, 5), 0.01)
        p[3, 2] = 0.95   # slept -> cat
        p[0, 3] = 0.9    # top: slept
        logits = np.zeros((5, 5, 2))
        logits[3, 2, 1] = 9.0
        label_probs = mk_scores(p, logits, ["ARG1", "ARG2"]).label_probs()
        g = sdp.build_graph("psd", "s7", toks, "the cat slept x", p, label_probs,
                            ["ARG1", "ARG2"],
                            sdp.psd_frame_rule(sdp.FrameLexicon([]), toks))
        assert G.validate_graph(g) == []
        assert [n.label for n in g.nodes] == ["cat", "slept"]
        assert g.edges[0].label == "ARG2"
        assert g.tops == (1,)
        assert g.nodes[0].anchors == (G.Anchor(4, 7),)
        # token 'x' was isolated: no node for it
        assert len(g.nodes) == 2

    def test_build_graph_dm_attaches_frames(self):
        toks = mk_tokens(["parse"], lemmas=["parse"])
        p = np.full((2, 2), 0.01)
        p[0, 1] = 0.9
        types = ["<UNK>", "n", "v"]
        args = ["<NONE>", "x", "e", "i", "p"]
        t_logits = np.zeros((2, len(types)))
        t_logits[1, types.index("v")] = 8.0
        pred = sdp.FramePrediction(
            type_logits=ad.Tensor(t_logits),
            arg_logits=[ad.Tensor(np.zeros((2, len(args)))) for _ in range(4)])
        arg_probs = [pred.arg_probs(k) for k in range(4)]
        g = sdp.build_graph("dm", "s8", toks, "parse", p, np.ones((2, 2, 1)), ["A"],
                            sdp.dm_frame_rule(pred.type_probs(), arg_probs, types,
                                              args, PARSE_LEXICON, toks))
        assert g.nodes[0].property_map()["frame"] == "v:e-i-p"

    def test_collect_inventories(self):
        g, _ = self.gold()
        labels, types, args = sdp.collect_inventories([g])
        assert labels == ["ARG1"]
        assert types == ["<UNK>", "n", "v"]
        assert args == ["<NONE>", "x", "e"]
