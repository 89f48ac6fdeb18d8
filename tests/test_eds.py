import math
import os

import numpy as np
import pytest

import mrparse.autodiff as ad
import mrparse.eds as eds
import mrparse.graphs as G
from mrparse.graphs import Anchor, MrpEdge, MrpGraph, MrpNode, TokenRow, validate_graph


def rules_fixture():
    return eds.ConversionRuleSet.from_dict({
        "surface": [
            {"match": {"label": "and"}, "template": "_and_c"},
            {"match": {"frame_type": "n"}, "template": "_{label}_n_1"},
            {"match": {"frame_type": "v"}, "template": "_{label}_v_1"},
        ],
        "edge_map": {"compound": "compound_rel"},
        "implications": [
            {"if_label": "_and_c", "add_label": "_q", "edge": "BV"},
        ],
    })


def dm_node(nid, label, frame=None, start=0, end=1):
    props = (("frame", frame),) if frame else ()
    return MrpNode(nid, label=label, properties=props, anchors=(Anchor(start, end),))


def dm_graph(nodes, edges, text="x", gid="d0", tops=(0,)):
    return MrpGraph(id=gid, flavor=0, framework="dm", input=text,
                    tops=tuple(tops), nodes=tuple(nodes), edges=tuple(edges))


class TestSurfaceConversion:
    def test_empty_graph_stays_empty(self):
        g = dm_graph([], [], tops=())
        out = eds.dm_to_eds_surface(g, rules_fixture())
        assert out.nodes == () and out.edges == ()
        assert out.framework == "eds" and out.flavor == 1

    def test_coordination_label(self):
        g = dm_graph([dm_node(0, "and")], [])
        out = eds.dm_to_eds_surface(g, rules_fixture())
        assert out.nodes[0].label == "_and_c"

    def test_frame_type_template(self):
        g = dm_graph([dm_node(0, "chicken", frame="n:x")], [])
        out = eds.dm_to_eds_surface(g, rules_fixture())
        assert out.nodes[0].label == "_chicken_n_1"

    def test_unmatched_passes_through(self):
        g = dm_graph([dm_node(0, "almost")], [])
        out = eds.dm_to_eds_surface(g, rules_fixture())
        assert out.nodes[0].label == "almost"

    def test_node_count_preserved(self):
        rng = np.random.default_rng(7)
        rules = rules_fixture()
        for _ in range(25):
            k = int(rng.integers(0, 9))
            nodes = [dm_node(i, f"w{i}", start=i, end=i + 1) for i in range(k)]
            g = dm_graph(nodes, [], tops=(0,) if k else ())
            out = eds.dm_to_eds_surface(g, rules)
            assert len(out.nodes) == k

    def test_anchors_ids_edges_carried(self):
        g = dm_graph([dm_node(0, "noun", frame="n:x", start=0, end=4),
                      dm_node(1, "eat", frame="v:e-x", start=5, end=8)],
                     [MrpEdge(1, 0, "ARG1"), MrpEdge(1, 0, "compound")])
        out = eds.dm_to_eds_surface(g, rules_fixture())
        assert out.nodes[0].anchors == (Anchor(0, 4),)
        assert {e.label for e in out.edges} == {"ARG1", "compound_rel"}
        assert out.tops == g.tops

    def test_rule_order_first_match_wins(self):
        rules = eds.ConversionRuleSet.from_dict({"surface": [
            {"match": {"label": "and"}, "template": "first"},
            {"match": {"label": "and"}, "template": "second"},
        ]})
        g = dm_graph([dm_node(0, "and")], [])
        assert eds.dm_to_eds_surface(g, rules).nodes[0].label == "first"

    def test_rule_file_roundtrip(self, tmp_path):
        rules = rules_fixture()
        path = tmp_path / "rules.json"
        rules.save(path)
        back = eds.ConversionRuleSet.load(path)
        assert back.to_dict() == rules.to_dict()

    def test_failed_save_keeps_previous_file(self, tmp_path):
        rules = rules_fixture()
        path = tmp_path / "rules.json"
        rules.save(path)
        before = path.read_bytes()
        rules.edge_map = {"ARG1": object()}  # not JSON-serializable
        with pytest.raises(TypeError):
            rules.save(path)
        assert path.read_bytes() == before
        assert os.listdir(tmp_path) == ["rules.json"]


def constant_detector(p, node_label="udef_q", edge_label="BV"):
    # zero weights, bias fixed: fires with probability p at every site
    params = ad.ParamSet()
    rng = np.random.default_rng(0)
    models = eds.AbstractModels(
        detector=eds.LogRegModel(params, "d", 1, 32, rng),
        node_labeler=eds.LogRegModel(params, "n", 1, 32, rng).attach_classes([node_label]),
        edge_labeler=eds.LogRegModel(params, "e", 1, 32, rng).attach_classes([edge_label]),
    )
    models.detector.w.data[:] = 0.0
    models.detector.b.data[:] = math.log(p / (1.0 - p))
    return models


class TestAbstractNodes:
    def test_implication_adds_quantifier(self):
        g = dm_graph([dm_node(0, "and")], [])
        surface = eds.dm_to_eds_surface(g, rules_fixture())
        out = eds.generate_abstract_nodes(surface, rules_fixture())
        labels = sorted(n.label for n in out.nodes)
        assert labels == ["_and_c", "_q"]
        (edge,) = out.edges
        assert edge.label == "BV"
        assert out.node_by_id()[edge.source].label == "_q"

    def test_detector_at_0p9_attaches_node(self):
        g = dm_graph([dm_node(0, "chicken", frame="n:x")], [])
        surface = eds.dm_to_eds_surface(g, rules_fixture())
        models = constant_detector(0.9)
        assert models.detector.probability(["anything"]) == pytest.approx(0.9)
        out = eds.generate_abstract_nodes(surface, rules_fixture(), models=models)
        by_label = {n.label: n for n in out.nodes}
        assert "_chicken_n_1" in by_label and "udef_q" in by_label
        (edge,) = out.edges
        assert edge.source == by_label["udef_q"].id
        assert edge.target == by_label["_chicken_n_1"].id
        assert edge.label == "BV"

    def test_threshold_one_disables_detectors(self):
        g = dm_graph([dm_node(0, "chicken", frame="n:x"), dm_node(1, "and", start=2, end=3)],
                     [])
        surface = eds.dm_to_eds_surface(g, rules_fixture())
        out = eds.generate_abstract_nodes(surface, rules_fixture(),
                                          models=constant_detector(0.9), threshold=1.0)
        # only the rule-implied _q next to _and_c survives
        assert sorted(n.label for n in out.nodes) == ["_and_c", "_chicken_n_1", "_q"]

    def test_below_threshold_means_no_node(self):
        g = dm_graph([dm_node(0, "chicken", frame="n:x")], [])
        surface = eds.dm_to_eds_surface(g, rules_fixture())
        out = eds.generate_abstract_nodes(surface, rules_fixture(),
                                          models=constant_detector(0.4))
        assert [n.label for n in out.nodes] == ["_chicken_n_1"]

    def test_deterministic_without_detectors(self):
        g = dm_graph([dm_node(0, "and"), dm_node(1, "chicken", frame="n:x", start=2, end=3)],
                     [MrpEdge(0, 1, "ARG1")])
        surface = eds.dm_to_eds_surface(g, rules_fixture())
        a = eds.generate_abstract_nodes(surface, rules_fixture())
        b = eds.generate_abstract_nodes(surface, rules_fixture())
        assert G.graph_to_json(a) == G.graph_to_json(b)

    def test_abstract_nodes_always_connected(self):
        g = dm_graph([dm_node(0, "and"), dm_node(1, "chicken", frame="n:x", start=2, end=3)],
                     [])
        surface = eds.dm_to_eds_surface(g, rules_fixture())
        out = eds.generate_abstract_nodes(surface, rules_fixture(),
                                          models=constant_detector(0.9))
        anchored = {n.id for n in surface.nodes}
        for n in out.nodes:
            if n.id in anchored:
                continue
            assert any(e.source == n.id or e.target == n.id for e in out.edges)


class TestHashedLogReg:
    def test_binary_probability_in_unit_interval(self):
        params = ad.ParamSet()
        m = eds.LogRegModel(params, "m", 1, 64, np.random.default_rng(3))
        p = m.probability(["label=x", "pos=NN"])
        assert 0.0 < p < 1.0

    def test_multiclass_distribution(self):
        params = ad.ParamSet()
        m = eds.LogRegModel(params, "m", 3, 64, np.random.default_rng(3))
        m.attach_classes(["a", "b", "c"])
        dist = ad.softmax(m.logits(["f1", "f2"]), axis=-1).data[0]
        assert dist.shape == (3,)
        np.testing.assert_allclose(dist.sum(), 1.0, atol=1e-12)

    def test_hashing_is_process_stable(self):
        x = eds.hash_features(["label=_and_c", "pos=CC"], 128)
        y = eds.hash_features(["pos=CC", "label=_and_c"], 128)
        np.testing.assert_array_equal(x, y)
        assert x.sum() in (1.0, 2.0)  # collisions allowed, order is not a feature

    def test_detector_training_recovers_noun_rule(self):
        # gold: every *_n_1 surface node carries a udef_q via BV
        rng = np.random.default_rng(11)
        rules = rules_fixture()
        examples = []
        for k, (lemma, frame) in enumerate([("chicken", "n:x"), ("pork", "n:x"),
                                            ("beef", "n:x"), ("eat", "v:e-x"),
                                            ("sleep", "v:e")] * 3):
            g = dm_graph([dm_node(0, lemma, frame=frame)], [], gid=f"s{k}")
            surface = eds.dm_to_eds_surface(g, rules)
            noun = frame.startswith("n")
            gold_nodes = [surface.nodes[0]]
            gold_edges = []
            if noun:
                gold_nodes.append(MrpNode(1, label="udef_q"))
                gold_edges.append(MrpEdge(1, 0, "BV"))
            gold = MrpGraph(id=f"s{k}", flavor=1, framework="eds", input=g.input,
                            tops=(0,), nodes=tuple(gold_nodes), edges=tuple(gold_edges))
            examples.extend(eds.abstract_training_examples(gold, surface, rules))
        models = eds.build_abstract_models(ad.ParamSet(), rng=rng,
                                           **eds.abstract_shape(examples))
        eds.train_abstract_models(models, examples, epochs=80, lr=0.2)
        for feats, fired, nlab, elab in examples:
            assert (models.detector.probability(feats) > 0.5) == bool(fired)
            if fired:
                assert models.node_labeler.best_class(feats) == "udef_q"
                assert models.edge_labeler.best_class(feats) == "BV"

    def test_implied_labels_excluded_from_examples(self):
        rules = rules_fixture()
        g = dm_graph([dm_node(0, "and")], [])
        surface = eds.dm_to_eds_surface(g, rules)
        gold = eds.generate_abstract_nodes(surface, rules)  # contains the rule _q
        examples = eds.abstract_training_examples(gold, surface, rules)
        assert [fired for _, fired, _, _ in examples] == [0]


def tokens_fixture(words):
    pos = 0
    rows = []
    for i, w in enumerate(words):
        rows.append(TokenRow(i, w, w, "NN", "NN", "O", Anchor(pos, pos + len(w))))
        pos += len(w) + 1
    return rows


class TestDescendantTokens:
    def test_descendants_cross_surface_nodes(self):
        nodes = (MrpNode(0, label="_q"), MrpNode(1, label="_a_n_1", anchors=(Anchor(0, 1),)),
                 MrpNode(2, label="_b_n_1", anchors=(Anchor(2, 3),)))
        g = MrpGraph(id="g", flavor=1, framework="eds", input="a b", tops=(0,),
                     nodes=nodes, edges=(MrpEdge(0, 1, "BV"), MrpEdge(1, 2, "ARG1")))
        toks = tokens_fixture(["a", "b"])
        mapping = eds.token_of_anchored_node(g, toks)
        assert mapping == {1: 0, 2: 1}
        assert eds.descendant_token_set(g, 0, mapping) == {0, 1}

    def test_cycle_terminates(self):
        nodes = (MrpNode(0, label="x"), MrpNode(1, label="y", anchors=(Anchor(0, 1),)))
        g = MrpGraph(id="g", flavor=1, framework="eds", input="a", tops=(0,),
                     nodes=nodes, edges=(MrpEdge(0, 1, "e"), MrpEdge(1, 0, "e")))
        mapping = {1: 0}
        assert eds.descendant_token_set(g, 0, mapping) == {0}


def make_anchor_net(labels, width, seed=0, **kw):
    params = ad.ParamSet()
    rng = np.random.default_rng(seed)
    net = eds.AnchorNet(params, "anchor", labels, width, rng, **kw)
    return net, params


class TestAnchorNet:
    def test_endpoint_distributions_sum_to_one(self):
        net, _ = make_anchor_net(["_q"], width=6)
        states = ad.Tensor(np.random.default_rng(1).normal(size=(5, 6)))
        f, t = net.endpoint_logits("_q", {1, 2}, states)
        for logits in (f, t):
            probs = ad.softmax(logits, axis=-1).data
            np.testing.assert_allclose(probs.sum(), 1.0, atol=1e-12)

    def test_unknown_feature_off_token_set(self):
        # empty T_i: every position reads <UNK>, so the label cannot matter
        net, _ = make_anchor_net(["_q", "udef_q"], width=6)
        states = ad.Tensor(np.random.default_rng(2).normal(size=(4, 6)))
        fa, ta = net.endpoint_logits("_q", set(), states)
        fb, tb = net.endpoint_logits("udef_q", set(), states)
        np.testing.assert_array_equal(fa.data, fb.data)
        np.testing.assert_array_equal(ta.data, tb.data)
        fc, _ = net.endpoint_logits("udef_q", {0}, states)
        assert not np.array_equal(fb.data, fc.data)

    def test_unseen_label_falls_back_to_unk(self):
        net, _ = make_anchor_net(["_q"], width=6)
        assert net._label_id("never-seen") == 0
        assert net._label_id(eds.UNK_FEATURE) == 0

    def test_span_endpoints_index_real_tokens(self):
        net, _ = make_anchor_net(["_q"], width=6)
        rng = np.random.default_rng(3)
        for _ in range(10):
            L = int(rng.integers(1, 7))
            states = ad.Tensor(rng.normal(size=(L, 6)))
            i, j, _ = net.predict_span("_q", {0}, states)
            assert 0 <= i <= j < L

    def test_degenerate_span_swapped_and_flagged(self):
        class Pinned(eds.AnchorNet):
            def endpoint_logits(self, label, token_set, token_states):
                f = ad.Tensor(np.array([[0.0, 0.0, 9.0]]))
                t = ad.Tensor(np.array([[9.0, 0.0, 0.0]]))
                return f, t

        params = ad.ParamSet()
        net = Pinned(params, "p", ["_q"], 6, np.random.default_rng(0))
        states = ad.Tensor(np.zeros((3, 6)))
        i, j, swapped = net.predict_span("_q", {0}, states)
        assert (i, j, swapped) == (0, 2, True)

    def test_gradients_reach_all_parameters(self, gradcheck):
        net, params = make_anchor_net(["_q"], width=4, emb_dim=5, hidden=3)
        rng = np.random.default_rng(5)
        states = ad.Tensor(rng.normal(size=(3, 4)), requires_grad=True)
        leaves = [states] + list(params.tensors())

        def build():
            f, t = net.endpoint_logits("_q", {1}, states)
            return eds.anchor_loss([(f, t)], [(1, 2)])

        gradcheck(build, leaves)

    def test_overfit_single_token_span(self):
        # one abstract node whose T_i is a single token: the net must point there
        net, params = make_anchor_net(["_q"], width=6, emb_dim=8, hidden=8)
        rng = np.random.default_rng(9)
        states_data = rng.normal(size=(5, 6))
        opt = ad.Adam(params.tensors(), lr=0.05)
        cases = [("_q", {2}, (2, 2)), ("_q", {0}, (0, 0)), ("_q", {4}, (4, 4))]
        for _ in range(150):
            opt.zero_grad()
            pairs, golds = [], []
            for label, tset, span in cases:
                pairs.append(net.endpoint_logits(label, tset, ad.Tensor(states_data)))
                golds.append(span)
            eds.anchor_loss(pairs, golds).backward()
            opt.step()
        for label, tset, span in cases:
            i, j, swapped = net.predict_span(label, tset, ad.Tensor(states_data))
            assert (i, j) == span and not swapped


class TestAnchorLoss:
    def test_perfect_one_hot_is_zero(self):
        f = ad.Tensor(np.array([[80.0, 0.0, 0.0]]))
        t = ad.Tensor(np.array([[0.0, 0.0, 80.0]]))
        loss = eds.anchor_loss([(f, t)], [(0, 2)])
        assert float(loss.data) == pytest.approx(0.0, abs=1e-12)

    def test_uniform_is_two_log_l_per_node(self):
        for L in (2, 3, 7):
            f = ad.Tensor(np.zeros((1, L)))
            t = ad.Tensor(np.zeros((1, L)))
            loss = eds.anchor_loss([(f, t), (f, t)], [(0, L - 1), (1, 1)])
            assert float(loss.data) == pytest.approx(2 * 2 * math.log(L), abs=1e-10)

    def test_hand_three_token_case(self):
        # from probs (.2,.5,.3) gold 1; to probs (.1,.2,.7) gold 2
        f = ad.Tensor(np.log(np.array([[0.2, 0.5, 0.3]])))
        t = ad.Tensor(np.log(np.array([[0.1, 0.2, 0.7]])))
        loss = eds.anchor_loss([(f, t)], [(1, 2)])
        expected = -math.log(0.5) - math.log(0.7)
        assert float(loss.data) == pytest.approx(expected, abs=1e-12)


class TestFullConversion:
    def graph_and_tokens(self):
        toks = tokens_fixture(["chicken", "and", "pork"])
        nodes = [dm_node(0, "chicken", frame="n:x", start=toks[0].anchor.start,
                         end=toks[0].anchor.end),
                 dm_node(1, "and", start=toks[1].anchor.start, end=toks[1].anchor.end),
                 dm_node(2, "pork", frame="n:x", start=toks[2].anchor.start,
                         end=toks[2].anchor.end)]
        edges = [MrpEdge(1, 0, "ARG1"), MrpEdge(1, 2, "ARG2")]
        g = dm_graph(nodes, edges, text="chicken and pork", tops=(1,))
        return g, toks

    def test_output_validates_and_anchors_everything(self):
        g, toks = self.graph_and_tokens()
        net, _ = make_anchor_net(["_q", "udef_q"], width=6)
        states = ad.Tensor(np.random.default_rng(4).normal(size=(3, 6)))
        out, diag = eds.convert(g, toks, rules_fixture(), models=constant_detector(0.9),
                                anchor_net=net, token_states=states)
        validate_graph(out)
        assert all(n.anchors for n in out.nodes)
        assert "swapped" in diag
        starts = {t.anchor.start for t in toks}
        ends = {t.anchor.end for t in toks}
        for n in out.nodes:
            assert n.anchors[0].start in starts and n.anchors[0].end in ends

    def test_convert_without_models_is_deterministic(self):
        g, toks = self.graph_and_tokens()
        a, _ = eds.convert(g, toks, rules_fixture())
        b, _ = eds.convert(g, toks, rules_fixture())
        assert G.graph_to_json(a) == G.graph_to_json(b)
        # rule nodes remain unanchored without an anchor net; surface ones keep theirs
        assert sum(1 for n in a.nodes if not n.anchors) == 1
