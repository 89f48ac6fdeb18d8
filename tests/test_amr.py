"""Entity anonymization, sense handling, tree linearization, the
three-way generation mixture, beam search, arborescence decoding and
graph reassembly."""

import itertools
from types import SimpleNamespace

import numpy as np
import pytest

from mrparse import amr
from mrparse import autodiff as ad
from mrparse import encoder as enc
from mrparse import graphs as G
from mrparse.biaffine import PairScores, edge_and_label_loss
from mrparse.config import TrainConfig, single_config
from mrparse.training import TASKS, multitask_loss

from conftest import (BEAM_TOL, arborescence_score, assert_same_generation,
                      check_gradients, count_decoder_steps, normalized_score,
                      reference_beam_search, reference_coverage_loss,
                      reference_decoder_loss, reference_expand,
                      reference_next_inputs, reference_teacher_forced,
                      replication_count, scalarize, spy, tree_round_trip)


def mk_tokens(words, lemmas=None, ne=None):
    lemmas = lemmas or [w.lower() for w in words]
    ne = ne or ["O"] * len(words)
    rows, pos = [], 0
    for i, w in enumerate(words):
        rows.append(G.TokenRow(i, w, lemmas[i], "X", "XX", ne[i],
                               G.Anchor(pos, pos + len(w))))
        pos += len(w) + 1
    return tuple(rows)


def graph(nodes, edges, tops=(0,), gid="g0", text="t"):
    return G.MrpGraph(id=gid, flavor=2, framework="amr", input=text,
                      tops=tops, nodes=tuple(nodes), edges=tuple(edges))


class TestSenseStripping:
    def test_two_digit_sense_removed(self):
        assert amr.strip_sense("want-01") == "want"

    def test_plain_label_untouched(self):
        assert amr.strip_sense("dog") == "dog"

    def test_hyphenated_base_keeps_inner_hyphens(self):
        assert amr.strip_sense("look-up-03") == "look-up"

    def test_idempotent(self):
        for lab in ("want-01", "dog", "look-up-03", "have-org-role-91"):
            once = amr.strip_sense(lab)
            assert amr.strip_sense(once) == once

    def test_bare_suffix_without_base_untouched(self):
        assert amr.strip_sense("-01") == "-01"

    def test_single_digit_is_not_a_sense(self):
        assert amr.strip_sense("covid-1") == "covid-1"

    def test_table_prefers_most_frequent(self):
        t = amr.build_sense_table(["want-01", "want-01", "want-02", "dog"])
        assert t == {"want": "want-01"}

    def test_table_tie_breaks_alphabetically(self):
        t = amr.build_sense_table(["run-02", "run-01"])
        assert t["run"] == "run-01"

    def test_restore_unknown_base_unchanged(self):
        assert amr.restore_sense("cat", {"want": "want-01"}) == "cat"


class TestFindTokenSpan:
    def test_exact_run(self):
        toks = mk_tokens(["Barack", "Obama", "spoke"])
        assert amr.find_token_span(toks, [("Barack",), ("Obama",)]) == (0, 2)

    def test_prefix_match_either_direction(self):
        toks = mk_tokens(["Obama's"])
        assert amr.find_token_span(toks, [("Obama",)]) == (0, 1)
        toks = mk_tokens(["Obama"])
        assert amr.find_token_span(toks, [("Obama's",)]) == (0, 1)

    def test_leftmost_longest_wins(self):
        # "New" alone matches at 0, but the 2-token run at 2 is longer
        toks = mk_tokens(["New", "potatoes", "New", "York"])
        span = amr.find_token_span(toks, [("New",), ("York",)])
        assert span == (2, 4)

    def test_no_match_is_none(self):
        toks = mk_tokens(["a", "b"])
        assert amr.find_token_span(toks, [("zzz",)]) is None

    def test_alternatives_accepted(self):
        toks = mk_tokens(["Nov", "5"])
        assert amr.find_token_span(toks, [("11", "November", "Nov")]) == (0, 1)


def person_graph():
    # wants(ARG0=person named Anna, ARG1=leave)
    nodes = [
        G.MrpNode(0, label="want-01"),
        G.MrpNode(1, label="person"),
        G.MrpNode(2, label="name", properties=(("op1", "Anna"),)),
        G.MrpNode(3, label="leave-01"),
    ]
    edges = [G.MrpEdge(0, 1, "ARG0"), G.MrpEdge(1, 2, "name"),
             G.MrpEdge(0, 3, "ARG1")]
    return graph(nodes, edges, text="Anna wants to leave")


class TestAnonymize:
    def test_name_subgraph_collapses(self):
        toks = mk_tokens(["Anna", "wants", "to", "leave"])
        out = amr.anonymize(person_graph(), toks)
        labels = {n.label for n in out.graph.nodes}
        assert labels == {"want-01", "PERSON.0", "leave-01"}
        assert all(e.label != "name" for e in out.graph.edges)
        rec = out.records[0]
        assert rec.anon_label == "PERSON.0"
        assert rec.head_label == "person"
        assert rec.ops == ("Anna",)
        assert rec.span == (0, 1)

    def test_no_entities_graph_unchanged(self):
        g = graph([G.MrpNode(0, label="run-02"), G.MrpNode(1, label="dog")],
                  [G.MrpEdge(0, 1, "ARG0")])
        out = amr.anonymize(g, mk_tokens(["dogs", "run"]))
        assert out.graph == g
        assert out.records == ()

    def test_numbered_per_kind_in_node_order(self):
        nodes = [G.MrpNode(0, label="meet-03"),
                 G.MrpNode(1, label="person"),
                 G.MrpNode(2, label="name", properties=(("op1", "Ada"),)),
                 G.MrpNode(3, label="person"),
                 G.MrpNode(4, label="name", properties=(("op1", "Bo"),))]
        edges = [G.MrpEdge(0, 1, "ARG0"), G.MrpEdge(1, 2, "name"),
                 G.MrpEdge(0, 3, "ARG1"), G.MrpEdge(3, 4, "name")]
        out = amr.anonymize(graph(nodes, edges), mk_tokens(["Ada", "met", "Bo"]))
        labels = [n.label for n in out.graph.nodes]
        assert labels == ["meet-03", "PERSON.0", "PERSON.1"]
        assert [r.span for r in out.records] == [(0, 1), (2, 3)]

    def test_date_entity_month_name_expansion(self):
        nodes = [G.MrpNode(0, label="date-entity",
                           properties=(("month", "11"), ("day", "5")))]
        out = amr.anonymize(graph(nodes, []), mk_tokens(["November", "5"]))
        assert out.graph.nodes[0].label == "DATE.0"
        assert out.records[0].kind == "attribute"
        assert out.records[0].span == (0, 2)
        # the abbreviated month works too
        out2 = amr.anonymize(graph(nodes, []), mk_tokens(["Nov", "5"]))
        assert out2.records[0].span == (0, 2)

    def test_unlocatable_entity_skipped_and_kept(self):
        toks = mk_tokens(["nothing", "matches"])
        out = amr.anonymize(person_graph(), toks)
        assert out.records == ()
        labels = {n.label for n in out.graph.nodes}
        assert "person" in labels and "name" in labels

    def test_expand_inverts_anonymize(self):
        g = person_graph()
        toks = mk_tokens(["Anna", "wants", "to", "leave"])
        out = amr.anonymize(g, toks)
        by_label = {r.anon_label: r for r in out.records}
        nodes, edges, flags = amr.expand_entities(
            list(out.graph.nodes), list(out.graph.edges), by_label,
            max(n.id for n in out.graph.nodes) + 1)
        assert flags == []
        lab = {n.id: n.label for n in nodes}
        assert sorted(lab.values()) == sorted(n.label for n in g.nodes)
        rebuilt = {(lab[e.source], lab[e.target], e.label) for e in edges}
        original = {("want-01", "person", "ARG0"), ("person", "name", "name"),
                    ("want-01", "leave-01", "ARG1")}
        assert rebuilt == original
        name_node = next(n for n in nodes if n.label == "name")
        assert name_node.properties == (("op1", "Anna"),)


class TestRecordsFromNe:
    def test_contiguous_run_becomes_one_record(self):
        toks = mk_tokens(["Barack", "Obama", "spoke"], ne=["PERSON", "PERSON", "O"])
        recs = amr.records_from_ne(toks, {"PERSON": "person"})
        assert len(recs) == 1
        assert recs[0].anon_label == "PERSON.0"
        assert recs[0].ops == ("Barack", "Obama")
        assert recs[0].span == (0, 2)

    def test_unknown_tag_ignored(self):
        toks = mk_tokens(["x"], ne=["WEIRD"])
        assert amr.records_from_ne(toks, {"PERSON": "person"}) == ()

    def test_ne_map_majority(self):
        m = amr.build_ne_map([("PERSON", "person"), ("PERSON", "person"),
                              ("PERSON", "people"), ("GPE", "city")])
        assert m == {"PERSON": "person", "GPE": "city"}


def reentrant_graph():
    # want(ARG0=boy, ARG1=believe(ARG0=boy))
    nodes = [G.MrpNode(0, label="want"), G.MrpNode(1, label="boy"),
             G.MrpNode(2, label="believe")]
    edges = [G.MrpEdge(0, 1, "ARG0"), G.MrpEdge(0, 2, "ARG1"),
             G.MrpEdge(2, 1, "ARG0")]
    return graph(nodes, edges)


class TestDagToTree:
    def test_plain_tree_has_no_replicas(self):
        g = graph([G.MrpNode(0, label="a"), G.MrpNode(1, label="b")],
                  [G.MrpEdge(0, 1, "ARG0")])
        tree = amr.dag_to_tree(g)
        assert len(tree.nodes) == 2
        assert all(n.copy_of is None for n in tree.nodes)
        assert tree.nodes[0].parent == -1

    def test_reentrancy_becomes_leaf_replica(self):
        tree = amr.dag_to_tree(reentrant_graph())
        assert [n.label for n in tree.nodes] == ["want", "boy", "believe", "boy"]
        rep = tree.nodes[3]
        assert rep.copy_of == 1
        assert rep.parent == 2
        assert rep.edge_label == "ARG0"

    def test_children_ordered_by_edge_then_child_label(self):
        nodes = [G.MrpNode(0, label="root"), G.MrpNode(1, label="zebra"),
                 G.MrpNode(2, label="apple"), G.MrpNode(3, label="mango")]
        edges = [G.MrpEdge(0, 1, "ARG1"), G.MrpEdge(0, 2, "ARG0"),
                 G.MrpEdge(0, 3, "ARG1")]
        tree = amr.dag_to_tree(graph(nodes, edges))
        # ARG0 first; between the two ARG1 children, mango < zebra
        assert [n.label for n in tree.nodes] == ["root", "apple", "mango", "zebra"]

    def test_triple_indegree_gives_two_replicas(self):
        nodes = [G.MrpNode(0, label="r"), G.MrpNode(1, label="hub"),
                 G.MrpNode(2, label="x"), G.MrpNode(3, label="y")]
        edges = [G.MrpEdge(0, 1, "a"), G.MrpEdge(0, 2, "b"), G.MrpEdge(0, 3, "c"),
                 G.MrpEdge(2, 1, "d"), G.MrpEdge(3, 1, "e")]
        g = graph(nodes, edges)
        tree = amr.dag_to_tree(g)
        assert sum(n.copy_of is not None for n in tree.nodes) == 2
        assert len(tree.nodes) == replication_count(g)

    def test_cycle_rejected(self):
        nodes = [G.MrpNode(0, label="a"), G.MrpNode(1, label="b"),
                 G.MrpNode(2, label="c")]
        edges = [G.MrpEdge(0, 1, "x"), G.MrpEdge(1, 2, "y"), G.MrpEdge(2, 1, "z")]
        with pytest.raises(ValueError, match="cycle"):
            amr.dag_to_tree(graph(nodes, edges))

    def test_multiple_tops_rejected(self):
        g = graph([G.MrpNode(0, label="a"), G.MrpNode(1, label="b")], [],
                  tops=(0, 1))
        with pytest.raises(ValueError, match="top"):
            amr.dag_to_tree(g)

    def test_unreachable_node_rejected(self):
        g = graph([G.MrpNode(0, label="a"), G.MrpNode(1, label="b")], [])
        with pytest.raises(ValueError, match="unreachable"):
            amr.dag_to_tree(g)

    def test_replication_formula_on_random_dags(self):
        rng = np.random.default_rng(2019)
        for k in range(100):
            g = amr.sample_dag(rng, gid=f"d{k}")
            tree = amr.dag_to_tree(g)
            assert len(tree.nodes) == replication_count(g)

    def test_round_trip_restores_node_and_edge_multisets(self):
        rng = np.random.default_rng(7)
        for k in range(60):
            g = amr.sample_dag(rng, gid=f"r{k}")
            tree = amr.dag_to_tree(g)
            back, flags = tree_round_trip(tree, g.id, g.input)
            assert flags == ()
            # ids are renumbered by first visit; compare through labels
            old = {n.id: n.label for n in g.nodes}
            new = {n.id: n.label for n in back.nodes}
            assert sorted(old.values()) == sorted(new.values())
            want = sorted((old[e.source], e.label, old[e.target]) for e in g.edges)
            got = sorted((new[e.source], e.label, new[e.target]) for e in back.edges)
            assert want == got
            assert new[back.tops[0]] == old[g.tops[0]]


# ---------------------------------------------------------------------------
# decoder fixtures

def small_config(hidden):
    return TrainConfig(surface_dim=3, lemma_dim=3, pos_dim=2, ne_dim=2,
                       static_mlp=3, contextual_mlp=3, layers=1,
                       hidden=hidden, word_drop=0.0, pos_drop=0.0,
                       lemma_drop=0.0, encoder_dropout=0.0)


def make_ctx(lemmas, extra_labels=(), seed=0, enc_hidden=4, dec_hidden=6,
             grad=False, dec_layers=1, dropout=0.0):
    rng = np.random.default_rng(seed)
    words = list(lemmas) or ["pad"]
    sents = [G.Sentence(id=f"s{k}", tokens=mk_tokens(words, lemmas=words),
                        graphs={}) for k in range(4)]
    vocab = enc.Vocabulary.build(sents)
    static_words = words + list(extra_labels) + [enc.ROOT]
    static = enc.StaticEmbeddings(
        {w: rng.normal(size=3) for w in static_words}, 3, rng)
    params = ad.ParamSet()
    encoder = enc.Encoder(params, vocab, small_config(enc_hidden), static,
                          ctx_layers=1, ctx_width=3, rng=rng)
    dvocab = amr.DecoderVocab(extra_labels)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(amr, "ATT_DIM", 5)
        decoder = amr.AmrDecoder(params, "amr", enc_hidden,
                                 amr.node_feature_width(encoder), dec_hidden,
                                 len(dvocab), rng, layers=dec_layers,
                                 dropout=dropout)
    L = len(lemmas)
    token_states = ad.Tensor(rng.normal(size=(L, 2 * enc_hidden)),
                             requires_grad=grad)
    h_fwd, c_fwd, h_bwd, c_bwd = (rng.normal(size=(1, enc_hidden)) for _ in range(4))
    finals = ad.Tensor(np.concatenate([h_fwd, h_bwd, c_fwd, c_bwd], axis=1),
                       requires_grad=grad)
    ctx = amr.AmrContext(encoder, decoder, dvocab, token_states, finals,
                         tuple(lemmas), tuple("XX" for _ in lemmas))
    return ctx, params


def padded_targets(gold, n_tokens):
    """Gold mixture columns on the rows of ``run_teacher_forced``, whose
    vocabulary segment starts at L + n on every row."""
    n = len(gold.labels)
    return [t + n - i if t >= n_tokens + i else t
            for i, t in enumerate(gold.targets)]


def history_keys(dec, states):
    """(1, s, att) history keys of one hypothesis's (1, H) state rows."""
    if not states:
        return None
    keys = ad.matmul(ad.concat(list(states), axis=0), dec.hist_enc)
    return ad.reshape(keys, (1,) + keys.shape)


class TestGoldSequence:
    def ctx(self):
        ctx, _ = make_ctx(["boy", "wants"], extra_labels=("want", "believe"))
        return ctx

    def test_priority_copy_over_vocab(self):
        tree = amr.dag_to_tree(reentrant_graph())
        ctx = self.ctx()
        gold = amr.gold_sequence(tree, ctx)
        L = 2
        # want: in vocab (not a lemma); boy: source copy; believe: vocab;
        # boy again: decoder copy of position 1
        assert gold.targets[0] == L + 0 + ctx.vocab.index("want")
        assert gold.targets[1] == 0          # token "boy"
        assert gold.targets[2] == L + 2 + ctx.vocab.index("believe")
        assert gold.targets[3] == L + 1      # history position of first "boy"
        # closing step points at <END> in the vocabulary segment
        assert gold.targets[4] == L + 4 + ctx.vocab.end_index

    def test_unknown_label_falls_back_to_unk(self):
        tree = amr.AmrTree((amr.TreeNode(0, "zuzax", -1),))
        ctx = self.ctx()
        gold = amr.gold_sequence(tree, ctx)
        assert gold.targets[0] == 2 + ctx.vocab.index(amr.UNK_LABEL)


class TestDecoderMixture:
    def test_rows_are_normalized_distributions(self):
        ctx, _ = make_ctx(["a", "b", "c"], extra_labels=("want", "dog"), seed=3)
        tree = amr.dag_to_tree(reentrant_graph())
        gold = amr.gold_sequence(tree, ctx)
        p, attns, states = amr.run_teacher_forced(ctx, gold)
        L, n = 3, 4
        assert p.shape == (n + 1, L + n + len(ctx.vocab))
        assert attns.shape == (n + 1, L) and states.shape == (n, 6)
        assert np.all(p.data >= 0)
        np.testing.assert_allclose(p.data.sum(axis=1), 1.0, atol=1e-9)
        for i in range(n + 1):  # step i copies only nodes before it
            assert not p.data[i, L + i:L + n].any()

    def test_stacked_decoder_keeps_state_per_layer(self):
        ctx, _ = make_ctx(["a", "b", "c"], extra_labels=("want", "dog"),
                          seed=3, dec_hidden=5, dec_layers=3)
        x, state = ctx.decoder.initial(ctx.finals)
        assert state.shape == (1, 2 * 3 * 5)  # [h | c] of each of 3 layers
        tree = amr.dag_to_tree(reentrant_graph())
        gold = amr.gold_sequence(tree, ctx)
        p, attns, states = amr.run_teacher_forced(ctx, gold)
        # biaffine/history rows come from the top layer only
        assert states.shape == (4, 5)
        np.testing.assert_allclose(p.data.sum(axis=1), 1.0, atol=1e-9)

    def test_stacked_decoder_uses_every_cell(self):
        ctx, params = make_ctx(["a", "b"], extra_labels=("want",), seed=9,
                               dec_hidden=3, dec_layers=2, grad=True)
        tree = amr.dag_to_tree(reentrant_graph())
        gold = amr.gold_sequence(tree, ctx)
        p, _, _ = amr.run_teacher_forced(ctx, gold)
        loss = amr.decoder_loss(p, gold.targets, 2)
        loss.backward()
        for name in ("amr.cell0.wx", "amr.cell1.wx"):
            assert params[name].grad is not None
            assert np.abs(params[name].grad).sum() > 0

    def test_first_step_has_no_history_segment(self):
        ctx, _ = make_ctx(["tok"], extra_labels=("x",), seed=4)
        x, state = ctx.decoder.initial(ctx.finals)
        _, _, p = ctx.decoder.step(
            x, state, ctx.decoder.source_keys(ctx.token_states), None)
        assert p.data.shape == (1, 1 + len(ctx.vocab))
        np.testing.assert_allclose(p.data.sum(), 1.0, atol=1e-9)

    def test_attention_covers_tokens_only(self):
        ctx, _ = make_ctx(["a", "b", "c", "d"], seed=5)
        gold = amr.gold_sequence(amr.dag_to_tree(reentrant_graph()), ctx)
        _, a, _ = amr.run_teacher_forced(ctx, gold)
        assert a.data.shape == (len(gold.labels) + 1, 4)
        np.testing.assert_allclose(a.data.sum(axis=1), 1.0, atol=1e-9)

    def test_gradients_flow_to_all_parts(self, gradcheck):
        ctx, params = make_ctx(["a", "b"], extra_labels=("want",), seed=6,
                               grad=True)
        tree = amr.dag_to_tree(reentrant_graph())
        gold = amr.gold_sequence(tree, ctx)

        def build():
            p, attns, _ = amr.run_teacher_forced(ctx, gold)
            loss = amr.decoder_loss(p, gold.targets, 2)
            return ad.add(loss, amr.coverage_loss(attns))

        leaves = [t for t in params.tensors() if t.data.size <= 60]
        gradcheck(build, leaves[:8] + [ctx.token_states])

    def test_overfits_a_tiny_graph(self):
        ctx, params = make_ctx(["boy", "wants"], extra_labels=("want", "believe"),
                               seed=7)
        tree = amr.dag_to_tree(reentrant_graph())
        gold = amr.gold_sequence(tree, ctx)
        opt = ad.Adam(params.tensors(), lr=0.05)
        for _ in range(150):
            opt.zero_grad()
            p, _, _ = amr.run_teacher_forced(ctx, gold)
            amr.decoder_loss(p, gold.targets, 2).backward()
            opt.step()
        p, _, _ = amr.run_teacher_forced(ctx, gold)
        for i, t in enumerate(padded_targets(gold, 2)):
            assert p.data[i, t] > 0.9
        gen = amr.beam_search(ctx, width=1)
        assert gen.labels == gold.labels
        assert gen.copy_of == gold.copy_of
        assert gen.src_token[1] is not None and gen.copy_of[3] is not None


class TestBatchedStep:
    """``AmrDecoder.step`` on k rows at once: (k, F) inputs, one packed
    (k, 2LH) state, shared source keys and per-row history keys."""

    def batch(self, ctx, k, s, seed):
        rng = np.random.default_rng(seed)
        dec = ctx.decoder
        x = ad.Tensor(rng.normal(size=(k, dec.feat_width)), requires_grad=True)
        state = ad.Tensor(rng.normal(size=(k, 2 * dec.n_layers * dec.hidden)),
                          requires_grad=True)
        hist = None
        if s:
            hist = ad.Tensor(rng.normal(size=(k, s, dec.hist_enc.shape[1])),
                             requires_grad=True)
        return x, state, hist

    @pytest.mark.parametrize("s", [0, 2])
    @pytest.mark.parametrize("k", [1, 3])
    def test_gradcheck(self, k, s):
        ctx, params = make_ctx(["a", "b", "c"], extra_labels=("dog",), seed=40,
                               dec_hidden=3, dec_layers=2, grad=True)
        dec = ctx.decoder
        x, state, hist = self.batch(ctx, k, s, seed=41)
        rng = np.random.default_rng(42)
        width = 3 + s + len(ctx.vocab)
        proj = [rng.normal(size=shape) for shape in
                [(k, 1, 2 * dec.n_layers * dec.hidden), (k, dec.hidden), (k, width)]]

        def build():
            total = ad.Tensor(0.0)
            for out, w in zip(dec.step(x, state, dec.source_keys(ctx.token_states), hist),
                              proj):
                assert out.shape == w.shape
                total = ad.add(total, scalarize(out, w))
            return total

        decoder_params = [params[name] for name in params.state_dict()
                          if name.startswith("amr.")
                          and not name.startswith("amr.init")]
        leaves = [x, state, ctx.token_states] + decoder_params
        if hist is not None:
            leaves.append(hist)
        check_gradients(build, leaves)
        if hist is None:
            assert dec.hist_enc.grad is None

    def test_rows_match_single_row_steps(self):
        ctx, _ = make_ctx(["a", "b", "c", "d"], extra_labels=("dog", "cat"),
                          seed=43, dec_hidden=4, dec_layers=2)
        dec = ctx.decoder
        keys = dec.source_keys(ctx.token_states)
        x, state, hist = self.batch(ctx, 3, 2, seed=44)
        batched = dec.step(x, state, keys, hist)
        for j in range(3):
            alone = dec.step(ad.rows(x, [j]), ad.rows(state, [j]), keys,
                             ad.rows(hist, [j]))
            for b, o in zip(batched, alone):
                np.testing.assert_allclose(b.data[j:j + 1], o.data,
                                           rtol=0.0, atol=1e-12)

    def test_a_step_makes_two_reshapes_whatever_its_depth(self, monkeypatch):
        """A step reshapes twice, its input to (k, 1, F) and the packed
        rows to (k·2L, H) blocks, whose top-layer h rows one gather takes,
        at 1 and at 3 layers (the attentions are one node each and
        reshape inside it); it makes one ``lstm_stack`` call, no
        ``lstm_sequence`` call, and as many tensors whatever its depth."""
        counted, reshapes = [], []
        init, reshape = ad.Tensor.__init__, ad.reshape

        def counting(self, *args, **kwargs):
            init(self, *args, **kwargs)
            counted.append(1)

        def recording(a, shape):
            reshapes.append(shape)
            return reshape(a, shape)

        monkeypatch.setattr(ad, "reshape", recording)
        calls = spy(monkeypatch, ad, "lstm_stack")
        layer_calls = spy(monkeypatch, ad, "lstm_sequence")
        built = {}
        for layers in (1, 3):
            ctx, _ = make_ctx(["a", "b", "c"], extra_labels=("dog",), seed=47,
                              dec_hidden=4, dec_layers=layers)
            dec = ctx.decoder
            x, state, hist = self.batch(ctx, 3, 2, seed=48)
            keys = dec.source_keys(ctx.token_states)
            calls.clear()
            monkeypatch.setattr(ad.Tensor, "__init__", counting)
            dec.step(x, state, keys, hist)
            monkeypatch.setattr(ad.Tensor, "__init__", init)
            built[layers] = len(counted)
            counted.clear()
            assert reshapes == [(3, 1, dec.feat_width), (3 * 2 * layers, dec.hidden)]
            assert len(calls) == 1 and not layer_calls
            reshapes.clear()
        assert built[3] == built[1]

    @pytest.mark.parametrize("train", [False, True])
    @pytest.mark.parametrize("layers", [1, 3])
    def test_teacher_forcing_matches_reference(self, layers, train):
        """Loss terms, mixture rows, node states and the gradient of every
        parameter as a teacher-forced loop over single-row reference
        steps, to 1e-10 relative; with dropout on, both runs draw the
        same masks from the same stream."""
        ctx, params = make_ctx(["boy", "wants"], extra_labels=("want", "believe"),
                               seed=45, dec_hidden=4, dec_layers=layers,
                               grad=True, dropout=0.4)
        gold = amr.gold_sequence(amr.dag_to_tree(reentrant_graph()), ctx)
        assert any(t is not None for t in gold.src_token)
        assert any(t is not None for t in gold.copy_of)
        leaves = params.tensors() + [ctx.token_states]
        L, n = 2, len(gold.labels)
        runs = []
        for batched in (True, False):
            for t in leaves:
                t.zero_grad()
            rng = np.random.default_rng(46)
            if batched:
                p, attns, states = amr.run_teacher_forced(ctx, gold,
                                                          rng if train else None)
                terms = (amr.decoder_loss(p, gold.targets, L),
                         amr.coverage_loss(attns))
                rows = p.data
            else:
                ps, attns, states = reference_teacher_forced(ctx, gold,
                                                             train=train, rng=rng)
                terms = (reference_decoder_loss(ps, gold.targets),
                         reference_coverage_loss(attns))
                # pad row i's history segment from i to n columns
                rows = np.concatenate(
                    [np.concatenate([q.data[:, :L + i], np.zeros((1, n - i)),
                                     q.data[:, L + i:]], axis=1)
                     for i, q in enumerate(ps)])
                states = ad.concat(states, axis=0)
            ad.add(*terms).backward()
            grads = [np.zeros_like(t.data) if t.grad is None else t.grad
                     for t in leaves]
            runs.append(([t.data.item() for t in terms], rows, states.data, grads,
                         rng.random()))
        (got_terms, got_rows, got_states, got_grads, got_next), want = runs
        want_terms, want_rows, want_states, want_grads, want_next = want
        assert got_next == want_next  # as many draws
        assert got_terms == pytest.approx(want_terms, rel=1e-10, abs=0.0)
        np.testing.assert_allclose(got_rows, want_rows, rtol=1e-10, atol=1e-14)
        np.testing.assert_allclose(got_states, want_states, rtol=1e-10, atol=1e-14)
        for g, w in zip(got_grads, want_grads):
            scale = max(1.0, float(np.abs(w).max()))
            assert float(np.abs(g - w).max()) <= 1e-10 * scale


class TestCoverage:
    def rows(self, *dists):
        return ad.Tensor(np.array(dists, dtype=float))

    def test_disjoint_one_hots_cost_nothing(self):
        attns = self.rows([1, 0, 0], [0, 1, 0], [0, 0, 1])
        assert amr.coverage_loss(attns).data == pytest.approx(0.0, abs=1e-12)

    def test_repeated_attention_is_charged(self):
        # second step overlaps fully: min(a, a) sums to 1
        attns = self.rows([0.5, 0.5], [0.5, 0.5])
        assert amr.coverage_loss(attns).data == pytest.approx(1.0, abs=1e-12)

    def test_hand_value_three_steps(self):
        attns = self.rows([1, 0], [0.25, 0.75], [0.5, 0.5])
        # step2: min(.25,1)+min(.75,0) = .25; step3: min(.5,1.25)+min(.5,.75) = 1
        assert amr.coverage_loss(attns).data == pytest.approx(1.25, abs=1e-12)

    def test_empty_is_zero(self):
        assert amr.coverage_loss(ad.Tensor(np.zeros((0, 3)))).data == pytest.approx(0.0)


def amr_terms(edge, label, dec, cov):
    return {"amr.edge": ad.Tensor(edge), "amr.label": ad.Tensor(label),
            "amr.dec": ad.Tensor(dec), "amr.cov": ad.Tensor(cov)}


class TestAmrLoss:
    def test_pure_decoder_when_other_weights_vanish(self):
        cfg = TrainConfig(lam_biaf=0.0, lam_label=0.5, lam_cov=0.0, lam_dec_amr=1.0)
        val = multitask_loss(cfg, amr_terms(2.0, 3.0, 5.0, 7.0))
        assert val.data == pytest.approx(5.0, abs=1e-12)

    def test_submitted_weights_hand_value(self):
        val = multitask_loss(single_config("amr"), amr_terms(2.0, 3.0, 5.0, 7.0))
        expect = 0.39 * (0.395 * 3.0 + 0.605 * 2.0) + 0.339 * 7.0 + 0.271 * 5.0
        assert val.data == pytest.approx(expect, abs=1e-12)

    def test_out_of_range_weight_rejected(self):
        with pytest.raises(ValueError):
            TrainConfig(lam_biaf=-0.1)

    LABELS = ["ARG0", "ARG1"]

    def prepared_cells(self):
        """``AmrTask.prepare``'s edge cells for the reentrant graph."""
        model = SimpleNamespace(heads={"amr": SimpleNamespace(labels=self.LABELS)},
                                amr_vocab=amr.DecoderVocab(("want", "believe")))
        sent = G.Sentence(id="g0", tokens=mk_tokens(["boy", "wants"]),
                          graphs={"amr": reentrant_graph()})
        cells, _ = TASKS["amr"].prepare(model, sent)
        return cells

    def test_edge_loss_has_no_top_row(self):
        cells = self.prepared_cells()
        assert all(j != 0 for _, j, _ in cells)  # nothing points at the root
        assert cells == [(0, 1, 0), (0, 2, 1), (2, 3, 0)]  # tree-node order

    def test_edge_loss_perfect_scores_near_zero(self):
        cells = self.prepared_cells()
        target = np.zeros((4, 4))
        logits = np.full((16, 2), -80.0)
        for p, j, c in cells:
            target[p, j] = 1.0
            logits[p * 4 + j, c] = 80.0
        scores = PairScores(edge_probs=ad.Tensor(np.clip(target, 1e-15, 1 - 1e-15)),
                            label_logits=ad.Tensor(logits),
                            n_positions=4, labels=self.LABELS)
        e, l = edge_and_label_loss(scores, cells, [])
        # the probability clip floors the edge term around n*n * 1e-9
        assert float(e.data) == pytest.approx(0.0, abs=1e-6)
        assert float(l.data) == pytest.approx(0.0, abs=1e-10)


def fix_cap(monkeypatch, cap):
    """Cut every AMR decode after ``cap`` generation steps."""
    monkeypatch.setattr(amr, "default_cap", lambda n_tokens: cap)


class TestBeamSearch:
    def greedy(self, ctx, cap):
        """Independent argmax rollout with the same END convention."""
        x, state = ctx.decoder.initial(ctx.finals)
        labels, states, logp = [], [], 0.0
        L = len(ctx.lemmas)
        for step in range(cap + 1):
            state, h, p = ctx.decoder.step(
                x, state, ctx.decoder.source_keys(ctx.token_states),
                history_keys(ctx.decoder, states))
            row = p.data[0].copy()
            if step == 0:
                row[L + len(labels) + ctx.vocab.end_index] = -1.0
            idx = int(np.argmax(row))
            logp += float(np.log(p.data[0, idx]))
            if idx >= L + len(labels) and idx - L - len(labels) == 0:
                return tuple(labels), logp, True
            if idx < L:
                lab, pos = ctx.lemmas[idx], ctx.xpos[idx]
            elif idx < L + len(labels):
                lab, pos = labels[idx - L], None
            else:
                lab, pos = ctx.vocab.labels[idx - L - len(labels)], None
            labels.append(lab)
            states.append(h)
            x = amr.node_features(ctx.encoder, [lab], [pos if idx < L else None])
        return tuple(labels), logp, False

    def test_width_one_matches_greedy(self, monkeypatch):
        fix_cap(monkeypatch, 6)
        for seed in range(6):
            ctx, _ = make_ctx(["a", "b"], extra_labels=("dog", "run"), seed=seed)
            gen = amr.beam_search(ctx, width=1)
            labels, logp, finished = self.greedy(ctx, cap=6)
            if finished:
                assert gen.labels == labels
                assert gen.log_prob == pytest.approx(logp, abs=1e-9)

    def test_wider_beam_never_scores_worse(self, monkeypatch):
        fix_cap(monkeypatch, 5)
        for seed in range(10):
            ctx, _ = make_ctx(["a", "b", "c"], extra_labels=("dog",), seed=seed)
            g1 = amr.beam_search(ctx, width=1)
            g5 = amr.beam_search(ctx, width=5)
            if not g1.truncated and not g5.truncated:
                assert normalized_score(g5) >= normalized_score(g1) - 1e-12

    def exhaustive_best(self, ctx, max_nodes):
        """Enumerate every finished sequence of at most max_nodes nodes."""
        L = len(ctx.lemmas)
        x0, state0 = ctx.decoder.initial(ctx.finals)
        best = [None]

        def recurse(x, state, labels, states, logp):
            state2, h2, p = ctx.decoder.step(
                x, state, ctx.decoder.source_keys(ctx.token_states),
                history_keys(ctx.decoder, states))
            row = p.data[0]
            n = len(labels)
            if n > 0:
                end_lp = logp + float(np.log(row[L + n]))
                score = end_lp / (n + 1)
                if best[0] is None or score > best[0][0]:
                    best[0] = (score, labels)
            if n == max_nodes:
                return
            for idx in range(len(row)):
                if idx == L + n:
                    continue
                if idx < L:
                    lab, pos = ctx.lemmas[idx], ctx.xpos[idx]
                elif idx < L + n:
                    lab, pos = labels[idx - L], None
                else:
                    lab, pos = ctx.vocab.labels[idx - L - n], None
                recurse(amr.node_features(ctx.encoder, [lab],
                                          [pos if idx < L else None]),
                        state2, labels + (lab,), states + (h2,),
                        logp + float(np.log(row[idx])))

        recurse(x0, state0, (), (), 0.0)
        return best[0]

    def test_wide_beam_is_exhaustive_on_a_toy(self, monkeypatch):
        fix_cap(monkeypatch, 3)
        ctx, _ = make_ctx(["t"], extra_labels=("dog",), seed=11)
        score, labels = self.exhaustive_best(ctx, max_nodes=3)
        gen = amr.beam_search(ctx, width=75)
        assert normalized_score(gen) == pytest.approx(score, abs=1e-10)
        assert gen.labels == labels

    def test_never_generates_the_empty_graph(self, monkeypatch):
        fix_cap(monkeypatch, 4)
        for seed in range(5):
            ctx, _ = make_ctx(["u", "v"], extra_labels=(), seed=seed + 30)
            gen = amr.beam_search(ctx, width=2)
            assert len(gen.labels) >= 1

    def test_zero_cap_truncates(self, monkeypatch):
        fix_cap(monkeypatch, 0)
        ctx, _ = make_ctx(["w"], extra_labels=("dog",), seed=13)
        gen = amr.beam_search(ctx, width=2)
        assert gen.truncated
        assert len(gen.labels) == 1

    def test_bad_width_rejected(self):
        ctx, _ = make_ctx(["w"], seed=14)
        with pytest.raises(ValueError):
            amr.beam_search(ctx, width=0)

    def test_early_stop_decodes_what_running_to_the_cap_decodes(self,
                                                                monkeypatch):
        steps = count_decoder_steps(monkeypatch)
        early = 0
        # every (width, cap) pair once per END bias; a raised END finishes
        # early enough for the stop to fire
        for end_bias, seed in itertools.product((0.0, 3.0), range(20)):
            width, cap = 2 + seed % 5, 3 + seed % 4
            fix_cap(monkeypatch, cap)
            ctx, _ = make_ctx(["a", "b", "c"][:1 + seed % 3],
                              extra_labels=("dog", "run"), seed=seed + 40)
            ctx.decoder.vocab_head.b.data[ctx.vocab.end_index] = end_bias
            steps.clear()
            got = amr.beam_search(ctx, width=width)
            early += len(steps) < cap + 1
            assert_same_generation(reference_beam_search(ctx, width=width), got,
                                   tol=BEAM_TOL)
        assert early

    @pytest.mark.parametrize("second, labels, steps", [
        (0.25, ("dog", "cat", "cat"), 4),  # log(.25) / 4 > log(.45) / 2
        (0.1, ("a",), 2),                  # log(.1) / 4 < log(.45) / 2
    ])
    def test_the_stop_waits_while_a_live_hypothesis_can_win(
            self, monkeypatch, second, labels, steps):
        """Planned rows: [a] finishes at step 1; the runner-up "dog" then
        continues with probability 1 and finishes at the cap.  The search
        must run on while that path can still outscore [a], and stop at
        the first step where it cannot."""
        fix_cap(monkeypatch, 3)
        ctx, _ = make_ctx(["a"], extra_labels=("dog", "cat"), seed=3)
        end = amr.END_LABEL
        plans = [  # per step, one {label: probability} per beam row
            [{"a": 0.5, "dog": second, "cat": second}],
            [{end: 0.9, "dog": 0.05, "cat": 0.05}, {"cat": 1.0}],
            [{"cat": 1.0}, {"cat": 1.0}],
            [{end: 1.0}, {end: 1.0}],
        ]
        calls = []
        step = amr.AmrDecoder.step

        def planned(self, x, state, keys, hist_keys):
            state, h, p = step(self, x, state, keys, hist_keys)
            s = len(calls)
            calls.append(s)
            rows = np.zeros(p.shape)
            for j, plan in enumerate(plans[s]):
                for label, prob in plan.items():
                    col = (0 if label == "a"
                           else len(ctx.lemmas) + s + ctx.vocab.index(label))
                    rows[j, col] = prob
            return state, h, ad.Tensor(rows)

        monkeypatch.setattr(amr.AmrDecoder, "step", planned)
        got = amr.beam_search(ctx, width=2)
        assert (got.labels, len(calls), got.truncated) == (labels, steps, False)

    def test_a_cap_too_short_for_any_finish_truncates(self, monkeypatch):
        steps = count_decoder_steps(monkeypatch)
        fix_cap(monkeypatch, 4)
        ctx, _ = make_ctx(["w", "x"], extra_labels=("dog",), seed=15)
        # END never ranks among the width + 1 best entries of a row
        ctx.decoder.vocab_head.b.data[ctx.vocab.end_index] = -60.0
        got = amr.beam_search(ctx, width=3)
        assert got.truncated and len(got.labels) == 5 and len(steps) == 5
        assert_same_generation(reference_beam_search(ctx, width=3), got,
                               tol=BEAM_TOL)


class TestBeamRanking:
    """``amr._expand`` ranks a step's candidates from arrays, and the beam
    builds each node feature once per decode."""

    @pytest.mark.parametrize("can_finish", [False, True])
    @pytest.mark.parametrize("end_rank", [0, 2, None])  # None: END ranks below the cut
    def test_expand_ranks_as_the_scalar_loop(self, can_finish, end_rank):
        """Ties within and across rows, entries below the 1e-12 floor,
        and END first, in the cut or below it, at step 0 (no finish) and
        later."""
        rng = np.random.default_rng(17 + (end_rank or 0))
        width, end_at = 3, 4
        for trial in range(20):
            p = rng.dirichlet(np.ones(9), size=3)
            p[:, 1] = p[:, 6]          # a tie within each row
            p[2] = p[0]                # and one across rows
            p[1, np.argsort(-p[1])[2:]] = 0.0  # below the floor, and in the cut
            order = np.argsort(-p[0], kind="stable")
            if end_rank is None:
                p[:, end_at] = 0.0
            else:
                p[:, [end_at, order[end_rank]]] = p[:, [order[end_rank], end_at]]
            lead = 0.0 if trial % 2 else -30.0  # -30: row 1's floored entries survive
            beams = [amr.AmrGeneration((), (), (), (), float(lp))
                     for lp in (lead, -rng.random(), lead)]
            got = amr._expand(p, beams, end_at, width, can_finish)
            assert got == reference_expand(p, beams, end_at, width, can_finish)
            assert len(got[0]) == width
            assert bool(got[1]) == (can_finish and end_rank is not None)

    def test_node_features_built_once_per_distinct_key(self, monkeypatch):
        built = spy(monkeypatch, amr, "node_features")
        fed = spy(monkeypatch, amr, "_next_inputs")
        fix_cap(monkeypatch, 6)
        reused = 0
        for seed, width in itertools.product(range(4), (1, 3, 5)):
            ctx, _ = make_ctx(["a", "b", "a"], extra_labels=("dog", "run"), seed=seed + 60)
            amr.beam_search(ctx, width=width)
            keys = [key for _, labels, poses in built for key in zip(labels, poses)]
            assert keys and len(keys) == len(set(keys))
            reused += sum(len(args[1]) for args in fed) - len(keys)
            built.clear()
            fed.clear()
        assert reused > 0  # the decodes did meet a (label, POS) again

    def test_log_probs_match_features_built_per_step(self, monkeypatch):
        """The feature rows, built over fewer rows, move the beam's
        log-probabilities within 1e-12 relative of building every
        hypothesis's feature at every step; the decodes are the same."""
        fix_cap(monkeypatch, 6)
        for seed, width in itertools.product(range(6), (1, 2, 5)):
            ctx, _ = make_ctx(["a", "b", "c"], extra_labels=("dog", "run"), seed=seed + 70)
            got = amr.beam_search(ctx, width=width)
            with monkeypatch.context() as mp:
                mp.setattr(amr, "_next_inputs", reference_next_inputs)
                want = amr.beam_search(ctx, width=width)
            assert (got.labels, got.copy_of, got.src_token, got.truncated) == \
                (want.labels, want.copy_of, want.src_token, want.truncated)
            assert got.log_prob == pytest.approx(want.log_prob, rel=1e-12, abs=0.0)


def brute_force_arborescence(scores, root=0):
    n = scores.shape[0]
    others = [j for j in range(n) if j != root]
    best, best_parents = -np.inf, None
    for combo in itertools.product(range(n), repeat=len(others)):
        parents = np.full(n, -1, dtype=int)
        for j, p in zip(others, combo):
            if p == j:
                break
            parents[j] = p
        else:
            ok = True
            for j in others:
                seen = set()
                u = j
                while u != root and u not in seen:
                    seen.add(u)
                    u = parents[u]
                if u != root:
                    ok = False
                    break
            if ok:
                score = arborescence_score(scores, parents, root)
                if score > best:
                    best, best_parents = score, parents
    return best, best_parents


class TestChuLiuEdmonds:
    def test_single_node(self):
        assert amr.chu_liu_edmonds(np.zeros((1, 1))).tolist() == [-1]

    def test_greedy_compatible_matrix_unchanged(self):
        s = np.array([[0.0, 9.0, 1.0],
                      [0.0, 0.0, 8.0],
                      [0.0, 2.0, 0.0]])
        assert amr.chu_liu_edmonds(s).tolist() == [-1, 0, 1]

    def test_hand_cycle_is_broken_optimally(self):
        # greedy picks the 1<->2 cycle; breaking it at 1 keeps 10+5=15
        s = np.array([[0.0, 5.0, 4.0],
                      [0.0, 0.0, 10.0],
                      [0.0, 10.0, 0.0]])
        assert amr.chu_liu_edmonds(s).tolist() == [-1, 0, 1]

    def test_matches_brute_force_on_random_matrices(self):
        rng = np.random.default_rng(2019)
        for k in range(60):
            n = int(rng.integers(2, 7))
            s = rng.normal(size=(n, n))
            parents = amr.chu_liu_edmonds(s)
            best, _ = brute_force_arborescence(s)
            got = arborescence_score(s, parents)
            assert got == pytest.approx(best, abs=1e-9), f"case {k}"
            # and the result is a genuine arborescence
            for j in range(1, n):
                seen, u = set(), j
                while u != 0 and u not in seen:
                    seen.add(u)
                    u = parents[u]
                assert u == 0

    def test_degenerate_matrix_rejected(self):
        s = np.array([[0.0, -np.inf], [0.0, 0.0]])
        with pytest.raises(ValueError, match="degenerate"):
            amr.chu_liu_edmonds(s)


class TestAssembleGraph:
    def test_first_generated_node_is_top(self):
        g, flags = amr.assemble_graph(["see", "dog"], [None, None], [-1, 0],
                                      [None, "ARG1"], "a1", "text")
        assert flags == ()
        assert g.tops == (0,)
        assert g.nodes[0].label == "see"

    def test_copy_chain_merges_to_first(self):
        labels = ["see", "dog", "dog", "dog"]
        copy_of = [None, None, 1, 2]
        parents = [-1, 0, 0, 2]
        e_labels = [None, "ARG0", "ARG1", "mod"]
        g, _ = amr.assemble_graph(labels, copy_of, parents, e_labels, "a2", "t")
        assert len(g.nodes) == 2
        lab = {n.id: n.label for n in g.nodes}
        got = sorted((lab[e.source], e.label, lab[e.target]) for e in g.edges)
        assert got == [("dog", "mod", "dog"), ("see", "ARG0", "dog"),
                       ("see", "ARG1", "dog")]

    def test_senses_restored(self):
        table = {"want": "want-01"}
        g, _ = amr.assemble_graph(["want", "boy"], [None, None], [-1, 0],
                                  [None, "ARG0"], "a3", "t", sense_table=table)
        assert g.nodes[0].label == "want-01"

    def test_unknown_anonymized_label_kept_and_flagged(self):
        g, flags = amr.assemble_graph(["see", "PERSON.9"], [None, None],
                                      [-1, 0], [None, "ARG0"], "a4", "t",
                                      records=())
        assert flags == ("PERSON.9",)
        assert {n.label for n in g.nodes} == {"see", "PERSON.9"}

    def test_entity_expansion_through_records(self):
        recs = (amr.EntityRecord("PERSON.0", "person", "name",
                                 ops=("Anna",), span=(0, 1)),)
        g, flags = amr.assemble_graph(["want", "PERSON.0"], [None, None],
                                      [-1, 0], [None, "ARG0"], "a5", "t",
                                      records=recs)
        assert flags == ()
        labels = sorted(n.label for n in g.nodes)
        assert labels == ["name", "person", "want"]
        name = next(n for n in g.nodes if n.label == "name")
        assert name.properties == (("op1", "Anna"),)


class TestFullRoundTrip:
    def test_entity_plus_reentrancy(self):
        # want(ARG0=PERSON named Anna, ARG1=leave(ARG0=same person))
        nodes = [G.MrpNode(0, label="want-01"), G.MrpNode(1, label="person"),
                 G.MrpNode(2, label="name", properties=(("op1", "Anna"),)),
                 G.MrpNode(3, label="leave-01")]
        edges = [G.MrpEdge(0, 1, "ARG0"), G.MrpEdge(1, 2, "name"),
                 G.MrpEdge(0, 3, "ARG1"), G.MrpEdge(3, 1, "ARG0")]
        g = graph(nodes, edges, text="Anna wants to leave")
        toks = mk_tokens(["Anna", "wants", "to", "leave"])

        anon = amr.anonymize(g, toks)
        stripped = G.replace(
            anon.graph,
            nodes=tuple(G.replace(n, label=amr.strip_sense(n.label))
                        for n in anon.graph.nodes))
        table = amr.build_sense_table(n.label for n in g.nodes)
        tree = amr.dag_to_tree(stripped)
        back, flags = tree_round_trip(tree, g.id, g.input,
                                          records=anon.records,
                                          sense_table=table)
        assert flags == ()
        assert G.validate_graph(back) == []
        lab = {n.id: n.label for n in back.nodes}
        assert sorted(lab.values()) == sorted(n.label for n in g.nodes)
        got = sorted((lab[e.source], e.label, lab[e.target]) for e in back.edges)
        want = [("leave-01", "ARG0", "person"), ("person", "name", "name"),
                ("want-01", "ARG0", "person"), ("want-01", "ARG1", "leave-01")]
        assert got == want
        assert lab[back.tops[0]] == "want-01"
        name = next(n for n in back.nodes if n.label == "name")
        assert name.properties == (("op1", "Anna"),)

    def test_fifty_random_graphs_survive(self):
        rng = np.random.default_rng(11)
        for k in range(50):
            g = amr.sample_dag(rng, gid=f"rt{k}")
            tree = amr.dag_to_tree(g)
            back, _ = tree_round_trip(tree, g.id, g.input)
            old = {n.id: n.label for n in g.nodes}
            new = {n.id: n.label for n in back.nodes}
            assert sorted(old.values()) == sorted(new.values())
            want = sorted((old[e.source], e.label, old[e.target])
                          for e in g.edges)
            got = sorted((new[e.source], e.label, new[e.target])
                         for e in back.edges)
            assert want == got


class TestDecodeGraph:
    LABELS = ["ARG0", "ARG1"]

    def probs_for(self, n, parent_of):
        """(edge probabilities, label probabilities) of a prediction."""
        probs = np.full((n, n), 0.01)
        label_probs = np.full((n, n, len(self.LABELS)), 1 / len(self.LABELS))
        for j, (p, lab) in parent_of.items():
            probs[p, j] = 0.99
            label_probs[p, j] = [0.9 if c == lab else 0.1 for c in self.LABELS]
        return probs, label_probs

    def gen(self, labels, copy_of=None, src=None):
        n = len(labels)
        return amr.AmrGeneration(tuple(labels), tuple(copy_of or [None] * n),
                                 tuple(src or [None] * n), [], 0.0)

    def test_arborescence_and_labels(self):
        gen = self.gen(["see", "dog", "cat"])
        probs = self.probs_for(3, {1: (0, "ARG0"), 2: (0, "ARG1")})
        g, flags = amr.decode_graph(gen, *probs, self.LABELS, "d1", "t")
        assert flags == ()
        assert g.tops == (0,)
        got = {(e.source, e.target, e.label) for e in g.edges}
        assert got == {(0, 1, "ARG0"), (0, 2, "ARG1")}

    def test_decoder_copy_merges_in_decode(self):
        gen = self.gen(["see", "dog", "dog"], copy_of=[None, None, 1])
        probs = self.probs_for(3, {1: (0, "ARG0"), 2: (0, "ARG1")})
        g, _ = amr.decode_graph(gen, *probs, self.LABELS, "d2", "t")
        assert len(g.nodes) == 2
        got = {(e.source, e.target, e.label) for e in g.edges}
        assert got == {(0, 1, "ARG0"), (0, 1, "ARG1")}

    def test_empty_generation_yields_placeholder(self):
        gen = self.gen([])
        probs = self.probs_for(1, {})
        g, flags = amr.decode_graph(gen, *probs, self.LABELS, "d3", "t")
        assert flags == ("empty",)
        assert len(g.nodes) == 1 and g.tops == (0,)
