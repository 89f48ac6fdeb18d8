"""Graph model, interchange I/O, companion parsing, alignment."""

import io
import json

import numpy as np
import pytest

from mrparse import graphs as G

from conftest import write_companion


def toy_dm_graph():
    nodes = (
        G.MrpNode(0, "cat", properties=(("pos", "NN"),), anchors=(G.Anchor(4, 7),)),
        G.MrpNode(1, "sleep", properties=(("pos", "VBZ"), ("frame", "v:e-i")),
                  anchors=(G.Anchor(8, 14),)),
    )
    edges = (G.MrpEdge(1, 0, "ARG1"),)
    return G.MrpGraph("s1", 0, "dm", "the cat sleeps", tops=(1,), nodes=nodes, edges=edges)


def roundtrip(graphs):
    buf = io.StringIO()
    G.write_mrp(graphs, buf)
    return G.read_mrp(io.StringIO(buf.getvalue()))


class TestMrpIO:
    def test_minimal_graph_line(self):
        line = ('{"id":"x","flavor":0,"framework":"dm","input":"like",'
                '"nodes":[{"id":0,"label":"like"}]}')
        gs = G.read_mrp(io.StringIO(line))
        assert len(gs) == 1
        assert len(gs[0].nodes) == 1
        assert gs[0].nodes[0].label == "like"
        assert gs[0].edges == ()

    def test_frame_property_parses_to_one_entry(self):
        line = ('{"id":"x","flavor":0,"framework":"dm","input":"named",'
                '"nodes":[{"id":0,"label":"named","properties":["frame"],'
                '"values":["named:x-c"]}]}')
        g = G.read_mrp(io.StringIO(line))[0]
        assert g.nodes[0].properties == (("frame", "named:x-c"),)

    def test_anchor_serialization_matches_reference(self):
        # hand-written reference line, checked before trusting the writer
        g = G.MrpGraph("a", 1, "eds", "go home",
                       nodes=(G.MrpNode(0, "_go_v_1", anchors=(G.Anchor(0, 2),)),))
        buf = io.StringIO()
        G.write_mrp([g], buf)
        assert '"anchors":[{"from":0,"to":2}]' in buf.getvalue()
        doc = json.loads(buf.getvalue())
        assert doc["nodes"][0]["anchors"] == [{"from": 0, "to": 2}]

    def test_two_tops_serialize_as_list(self):
        g = G.MrpGraph("t", 0, "dm", "a b",
                       tops=(0, 1),
                       nodes=(G.MrpNode(0, "a", anchors=(G.Anchor(0, 1),)),
                              G.MrpNode(1, "b", anchors=(G.Anchor(2, 3),))))
        buf = io.StringIO()
        G.write_mrp([g], buf)
        assert json.loads(buf.getvalue())["tops"] == [0, 1]

    def test_empty_list_writes_nothing(self):
        buf = io.StringIO()
        G.write_mrp([], buf)
        assert buf.getvalue() == ""

    def test_write_read_write_is_identity(self):
        g = toy_dm_graph()
        remote = G.MrpGraph(
            "u1", 1, "ucca", "Madrid calling",
            tops=(2,),
            nodes=(G.MrpNode(0, anchors=(G.Anchor(0, 6),)),
                   G.MrpNode(1, anchors=(G.Anchor(7, 14),)),
                   G.MrpNode(2)),
            edges=(G.MrpEdge(2, 0, "A"),
                   G.MrpEdge(2, 1, "P"),
                   G.MrpEdge(2, 0, "A", attributes=(("remote", True),))))
        amr = G.MrpGraph("a1", 2, "amr", "he works",
                         tops=(0,),
                         nodes=(G.MrpNode(0, "work-01"), G.MrpNode(1, "he")),
                         edges=(G.MrpEdge(0, 1, "ARG0"),))
        first = io.StringIO()
        G.write_mrp([g, remote, amr], first)
        second = io.StringIO()
        G.write_mrp(roundtrip([g, remote, amr]), second)
        assert first.getvalue() == second.getvalue()
        assert roundtrip([g, remote, amr]) == [g, remote, amr]

    def test_field_order_is_stable(self):
        buf = io.StringIO()
        G.write_mrp([toy_dm_graph()], buf)
        keys = list(json.loads(buf.getvalue()).keys())
        assert keys == ["id", "flavor", "framework", "input", "tops", "nodes", "edges"]

    def test_malformed_json_names_line(self):
        stream = io.StringIO('{"id":"ok","framework":"dm","input":""}\n{oops\n')
        with pytest.raises(G.FormatError, match="line 2"):
            G.read_mrp(stream)

    def test_invalid_graph_rejected_on_read(self):
        line = ('{"id":"bad","flavor":0,"framework":"dm","input":"x",'
                '"nodes":[{"id":0}],"edges":[{"source":0,"target":99}]}')
        with pytest.raises(G.FormatError, match="target 99"):
            G.read_mrp(io.StringIO(line))

    def test_random_graphs_roundtrip(self):
        rng = np.random.default_rng(33)
        gs = []
        for i in range(40):
            n = int(rng.integers(1, 6))
            text = " ".join("w%d" % j for j in range(n))
            nodes = []
            pos = 0
            for j in range(n):
                word = "w%d" % j
                anch = (G.Anchor(pos, pos + len(word)),) if rng.random() < 0.7 else ()
                props = (("p", "v%d" % int(rng.integers(5))),) if rng.random() < 0.5 else ()
                nodes.append(G.MrpNode(j, label="w%d" % j, properties=props, anchors=anch))
                pos += len(word) + 1
            edges = []
            for s in range(n):
                for t in range(n):
                    if s != t and rng.random() < 0.2:
                        edges.append(G.MrpEdge(s, t, "L%d" % int(rng.integers(3))))
            gs.append(G.MrpGraph("g%d" % i, 0, "dm", text, tops=(0,),
                                 nodes=tuple(nodes), edges=tuple(edges)))
        assert roundtrip(gs) == gs

    def test_failed_save_keeps_previous_file(self, tmp_path):
        path = tmp_path / "out.mrp"
        G.save_mrp([toy_dm_graph()], path)
        before = path.read_bytes()
        with pytest.raises(AttributeError):
            # the first graph is written before the second one fails
            G.save_mrp([G.replace(toy_dm_graph(), id="s2"), "not a graph"], path)
        assert path.read_bytes() == before
        assert [p.name for p in tmp_path.iterdir()] == ["out.mrp"]


class TestCompanion:
    SAMPLE = (
        "#s1\n"
        "0\tPierre\tPierre\tPROPN\tNNP\tB-PER\t0\t6\n"
        "1\tsleeps\tsleep\tVERB\tVBZ\tO\t7\t13\n"
        "2\tnow\tnow\tADV\tRB\tO\t14\t17\n"
        "3\t.\t.\tPUNCT\t.\tO\t17\t18\n"
    )

    def test_four_tokens(self):
        rows = G.read_companion(io.StringIO(self.SAMPLE))["s1"]
        assert [r.index for r in rows] == [0, 1, 2, 3]
        assert rows[1].surface == "sleeps"
        assert rows[1].anchor == G.Anchor(7, 13)

    def test_lemma_verbatim_no_casefolding(self):
        rows = G.read_companion(io.StringIO(self.SAMPLE))["s1"]
        assert rows[0].lemma == "Pierre"  # vocabulary lower-cases surfaces, not lemmas

    def test_seven_columns_defaults_ne(self):
        text = "#s2\n0\thi\thi\tINTJ\tUH\t0\t2\n"
        rows = G.read_companion(io.StringIO(text))["s2"]
        assert rows[0].ne == "O"

    def test_wrong_column_count_rejected(self):
        text = "#s3\n0\thi\thi\tINTJ\n"
        with pytest.raises(G.FormatError, match="columns"):
            G.read_companion(io.StringIO(text))

    def test_overlapping_anchors_rejected(self):
        text = ("#s4\n"
                "0\tab\tab\tX\tX\t0\t3\n"
                "1\tbc\tbc\tX\tX\t2\t4\n")
        with pytest.raises(G.FormatError, match="overlap"):
            G.read_companion(io.StringIO(text))

    def test_repeated_sentence_id_rejected(self):
        text = self.SAMPLE + "#s2\n0\thi\thi\tINTJ\tUH\t0\t2\n" + self.SAMPLE
        with pytest.raises(G.FormatError, match="^line 8: repeated sentence id s1$"):
            G.read_companion(io.StringIO(text))

    def test_write_read_roundtrip(self):
        sents = G.read_companion(io.StringIO(self.SAMPLE))
        buf = io.StringIO()
        write_companion(sents, buf)
        assert G.read_companion(io.StringIO(buf.getvalue())) == sents


class TestValidate:
    def test_valid_toy_graph_is_clean(self):
        assert G.validate_graph(toy_dm_graph()) == []

    def test_edge_to_missing_node(self):
        g = G.MrpGraph("v", 0, "dm", "x", nodes=(G.MrpNode(0, "x"),),
                       edges=(G.MrpEdge(0, 99, "A"),))
        problems = G.validate_graph(g)
        assert len(problems) == 1
        assert "99" in problems[0]

    def test_duplicate_node_id(self):
        g = G.MrpGraph("v", 0, "dm", "x x", nodes=(G.MrpNode(0, "a"), G.MrpNode(0, "b")))
        problems = G.validate_graph(g)
        assert len(problems) == 1
        assert "duplicate" in problems[0]

    def test_anchor_out_of_bounds(self):
        g = G.MrpGraph("v", 1, "eds", "ab",
                       nodes=(G.MrpNode(0, "x", anchors=(G.Anchor(0, 5),)),))
        assert any("anchor" in p for p in G.validate_graph(g))

    def test_top_must_exist(self):
        g = G.MrpGraph("v", 0, "dm", "x", tops=(3,), nodes=(G.MrpNode(0, "x"),))
        assert any("top 3" in p for p in G.validate_graph(g))


def token(i, surface, start):
    return G.TokenRow(i, surface, surface, "X", "X", "O", G.Anchor(start, start + len(surface)))


class TestAlignment:
    def test_exact_match_full_alignment(self):
        # "no feathers" -> two terminals, two tokens
        toks = [token(0, "no", 0), token(1, "feathers", 3)]
        g = G.MrpGraph("u", 1, "ucca", "no feathers",
                       nodes=(G.MrpNode(0, anchors=(G.Anchor(0, 2),)),
                              G.MrpNode(1, anchors=(G.Anchor(3, 11),)),
                              G.MrpNode(2)))
        assert G.align_ucca_tokens(g, toks) == {0: (0, 1), 1: (1, 2)}

    def test_one_terminal_spans_four_bang_tokens(self):
        # companion splits "!!!!" into four tokens; the terminal covers all of them
        text = "stock!!!!"
        toks = [token(0, "stock", 0), token(1, "!", 5), token(2, "!", 6),
                token(3, "!", 7), token(4, "!", 8)]
        g = G.MrpGraph("u", 1, "ucca", text,
                       nodes=(G.MrpNode(0, anchors=(G.Anchor(0, 5),)),
                              G.MrpNode(1, anchors=(G.Anchor(5, 9),))))
        assert G.align_ucca_tokens(g, toks) == {0: (0, 1), 1: (1, 5)}

    def test_mid_token_split_is_discrepancy(self):
        toks = [token(0, "abcd", 0)]
        g = G.MrpGraph("u", 1, "ucca", "abcd",
                       nodes=(G.MrpNode(0, anchors=(G.Anchor(0, 2),)),))
        assert G.align_ucca_tokens(g, toks) is None

    def test_multiword_terminal_with_space(self):
        toks = [token(0, "New", 0), token(1, "York", 4)]
        g = G.MrpGraph("u", 1, "ucca", "New York",
                       nodes=(G.MrpNode(0, anchors=(G.Anchor(0, 8),)),))
        assert G.align_ucca_tokens(g, toks) == {0: (0, 2)}

    def test_shared_token_is_discrepancy(self):
        toks = [token(0, "ab", 0)]
        g = G.MrpGraph("u", 1, "ucca", "ab",
                       nodes=(G.MrpNode(0, anchors=(G.Anchor(0, 2),)),
                              G.MrpNode(1, anchors=(G.Anchor(0, 2),))))
        assert G.align_ucca_tokens(g, toks) is None

    def test_noncontiguous_coverage_is_discrepancy(self):
        toks = [token(0, "a", 0), token(1, "b", 2), token(2, "c", 4)]
        g = G.MrpGraph("u", 1, "ucca", "a b c",
                       nodes=(G.MrpNode(0, anchors=(G.Anchor(0, 1), G.Anchor(4, 5))),))
        assert G.align_ucca_tokens(g, toks) is None


class TestCorpus:
    def test_join_by_sentence_id(self):
        comp = G.read_companion(io.StringIO(TestCompanion.SAMPLE))
        g = toy_dm_graph()
        g = G.replace(g, id="s1")
        sents = G.build_corpus(comp, [[g]])
        assert len(sents) == 1
        assert sents[0].graphs["dm"].id == "s1"
        assert len(sents[0].tokens) == 4

    def test_repeated_graph_rejected_across_files(self):
        comp = G.read_companion(io.StringIO(TestCompanion.SAMPLE))
        g = G.replace(toy_dm_graph(), id="s1")
        psd = G.replace(g, framework="psd")
        assert G.build_corpus(comp, [[g], [psd]])[0].graphs == {"dm": g, "psd": psd}
        with pytest.raises(G.FormatError, match="^repeated graph dm/s1$"):
            G.build_corpus(comp, [[g], [psd, g]])
