import numpy as np
import pytest

from mrparse import amr
from mrparse import datagen as D
from mrparse import eds
from mrparse import graphs as G
from mrparse import sdp
from mrparse import ucca as U
from mrparse.encoder import StaticEmbeddings, ContextualEmbeddings

from conftest import replication_count, write_corpus


@pytest.fixture(scope="module")
def corpus():
    return D.build_corpus(n=32, seed=7)


class TestCorpusShape:
    def test_sentence_count_and_frameworks(self, corpus):
        assert len(corpus.sentences) == 32
        for s in corpus.sentences:
            assert set(s.graphs) == set(G.FRAMEWORKS)

    def test_every_gold_graph_validates(self, corpus):
        for s in corpus.sentences:
            for fw, g in s.graphs.items():
                assert G.validate_graph(g) == [], (s.id, fw)
                assert g.framework == fw
                assert g.flavor == G.FLAVOR[fw]

    def test_builds_are_deterministic(self):
        a = D.build_corpus(n=6, seed=3)
        b = D.build_corpus(n=6, seed=3)
        assert [s.tokens for s in a.sentences] == [s.tokens for s in b.sentences]
        for sa, sb in zip(a.sentences, b.sentences):
            assert sa.graphs == sb.graphs

    def test_seeds_differ(self):
        a = D.build_corpus(n=8, seed=3)
        b = D.build_corpus(n=8, seed=4)
        assert any(sa.tokens != sb.tokens
                   for sa, sb in zip(a.sentences, b.sentences))

    def test_text_matches_anchors(self, corpus):
        for s in corpus.sentences:
            text = s.graphs["dm"].input
            for row in s.tokens:
                assert text[row.anchor.start:row.anchor.end] == row.surface


class TestFrameworkGold:
    def test_dm_psd_supervision_extracts(self, corpus):
        for s in corpus.sentences:
            for fw in ("dm", "psd"):
                g = s.graphs[fw]
                labels = sorted({e.label for e in g.edges})
                index = {l: i for i, l in enumerate(labels)}
                edges, tops, frames = sdp.gold_targets(g, s.tokens, index)
                assert tops and edges
                assert frames  # every sentence has a framed predicate

    def test_ucca_gold_serializes_and_round_trips(self, corpus):
        for s in corpus.sentences:
            ser = U.serialize_ucca(s.graphs["ucca"], s.tokens)
            back = U.deserialize_ucca(ser.pointers, ser.edges, ser.tops,
                                      ser.remotes, s.tokens,
                                      s.graphs["ucca"].input, s.id)
            assert len(back.nodes) == len(s.graphs["ucca"].nodes)

    def test_amr_gold_anonymizes_and_treeifies(self, corpus):
        for s in corpus.sentences:
            anon = amr.anonymize(s.graphs["amr"], s.tokens)
            # every entity found its tokens: no head or name node is left
            assert not any(n.label == "name" or n.label.endswith("-entity")
                           for n in anon.graph.nodes)
            stripped = G.replace(anon.graph, nodes=tuple(
                G.replace(n, label=amr.strip_sense(n.label))
                for n in anon.graph.nodes))
            tree = amr.dag_to_tree(stripped)
            assert len(tree.nodes) == replication_count(stripped)

    def test_amr_concepts_are_copyable_or_closed_class(self, corpus):
        # every desensed non-entity concept matches a token lemma, so the
        # generator can learn it through the source-copy head
        closed = {"person", "name", "date-entity"}
        for s in corpus.sentences:
            lemmas = {t.lemma for t in s.tokens}
            for n in s.graphs["amr"].nodes:
                base = amr.strip_sense(n.label)
                assert base in lemmas or base in closed

    def test_eds_gold_follows_the_rules(self, corpus):
        rules = corpus.rules
        for s in corpus.sentences:
            surface = eds.dm_to_eds_surface(s.graphs["dm"], rules)
            surface_ids, abstract_ids = eds.split_surface_abstract(
                s.graphs["eds"], surface)
            assert len(surface_ids) == len(surface.nodes)
            by_id = s.graphs["eds"].node_by_id()
            kinds = {by_id[a].label for a in abstract_ids}
            assert kinds <= {"udef_q", "proper_q"}

    def test_eds_abstract_nodes_are_anchored(self, corpus):
        for s in corpus.sentences:
            for n in s.graphs["eds"].nodes:
                assert n.anchors


class TestFixture:
    def test_fixture_signature(self):
        rng = np.random.default_rng(11)
        n_dates = n_reentrant = 0
        for i in range(50):
            template = (1, 2, 3, 5)[i % 4]
            g = D.make_sentence(rng, f"fx{i:03d}", template=template).graphs["amr"]
            assert G.validate_graph(g) == []
            labels = [n.label for n in g.nodes]
            assert any(amr.strip_sense(l) != l for l in labels)  # sensed
            assert "person" in labels                          # named entity
            indeg = {}
            for e in g.edges:
                indeg[e.target] = indeg.get(e.target, 0) + 1
            assert max(indeg.values()) <= 3
            if "date-entity" in labels:
                n_dates += 1
            if max(indeg.values()) > 1:
                n_reentrant += 1
        assert n_dates >= 10 and n_reentrant >= 10


class TestFiles:
    def test_write_and_reload(self, tmp_path, corpus):
        paths = write_corpus(corpus, str(tmp_path / "corpus"))
        companion = G.load_companion(paths["companion"])
        assert len(companion) == 32
        for fw in G.FRAMEWORKS:
            graphs = G.load_mrp(paths[fw])
            assert len(graphs) == 32
        rng = np.random.default_rng(0)
        static = StaticEmbeddings.load(paths["static"], rng)
        assert static.dim == D.STATIC_DIM
        ctx = ContextualEmbeddings.load(paths["contextual"])
        first = corpus.sentences[0]
        arr = ctx.for_sentence(first.id, len(first.tokens))
        assert arr.shape == (D.CTX_LAYERS, len(first.tokens) + 1, D.CTX_WIDTH)

    def test_rebuilt_corpus_joins_with_build_corpus(self, tmp_path, corpus):
        paths = write_corpus(corpus, str(tmp_path / "c2"))
        companion = G.load_companion(paths["companion"])
        lists = [G.load_mrp(paths[fw]) for fw in G.FRAMEWORKS]
        sentences = G.build_corpus(companion, lists)
        assert len(sentences) == 32
        assert all(len(s.graphs) == 5 for s in sentences)
