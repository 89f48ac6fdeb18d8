"""Correspondence search, per-component tuple F1 and macro averaging."""

import itertools

import numpy as np
import pytest

from mrparse import amr
from mrparse import graphs as G
from mrparse import scoring as S

from conftest import _reference_signatures, reference_correspondence


def dm_like(ids=(0, 1, 2), text="The cat sat"):
    spans = [(0, 3), (4, 7), (8, 11)]
    labels = ["the", "cat", "sit"]
    nodes = [G.MrpNode(ids[k], label=labels[k],
                       properties=((("pos", "NN"),) if k == 1 else ()),
                       anchors=(G.Anchor(*spans[k]),))
             for k in range(3)]
    edges = [G.MrpEdge(ids[2], ids[1], "ARG1"), G.MrpEdge(ids[1], ids[0], "BV")]
    return G.MrpGraph(id="s1", flavor=0, framework="dm", input=text,
                      tops=(ids[2],), nodes=tuple(nodes), edges=tuple(edges))


def amr_like(ids=(0, 1, 2), gid="s2"):
    nodes = [G.MrpNode(ids[0], label="want-01"),
             G.MrpNode(ids[1], label="boy"),
             G.MrpNode(ids[2], label="go-02")]
    edges = [G.MrpEdge(ids[0], ids[1], "ARG0"),
             G.MrpEdge(ids[0], ids[2], "ARG1"),
             G.MrpEdge(ids[2], ids[1], "ARG0")]
    return G.MrpGraph(id=gid, flavor=2, framework="amr", input="boy wants to go",
                      tops=(ids[0],), nodes=tuple(nodes), edges=tuple(edges))


class TestCounts:
    def test_zero_over_zero_is_zero(self):
        c = S.Counts(0, 0, 0)
        assert c.precision == 0.0 and c.recall == 0.0 and c.f1 == 0.0

    def test_addition_pools(self):
        c = S.Counts(2, 1, 1) + S.Counts(1, 2, 1)
        assert (c.gold, c.pred, c.matched) == (3, 3, 2)

    def test_f1_formula(self):
        c = S.Counts(gold=2, pred=1, matched=1)
        assert c.f1 == pytest.approx(2 * 1.0 * 0.5 / 1.5)


class TestIdentity:
    def test_anchored_identity_is_perfect(self):
        g = dm_like()
        r = S.mrp_f1(g, g)
        for comp in S.COMPONENTS:
            if r[comp].gold:
                assert r[comp].f1 == 1.0, comp
        assert r["all"].f1 == 1.0

    def test_unanchored_identity_is_perfect(self):
        g = amr_like()
        assert S.mrp_f1(g, g)["all"].f1 == 1.0

    def test_empty_prediction_scores_zero(self):
        g = dm_like()
        empty = G.replace(g, nodes=(), edges=(), tops=())
        r = S.mrp_f1(g, empty)
        assert r["all"].recall == 0.0
        assert r["all"].f1 == 0.0

    def test_framework_mismatch_rejected(self):
        g = dm_like()
        other = G.replace(amr_like(), id="s1")
        with pytest.raises(ValueError, match="framework"):
            S.mrp_f1(g, other)

    def test_sentence_id_mismatch_rejected(self):
        g = dm_like()
        with pytest.raises(ValueError, match="id"):
            S.mrp_f1(g, G.replace(g, id="other"))


class TestHandCases:
    def test_one_of_two_edges_gives_two_thirds(self):
        g = dm_like()
        pred = G.replace(g, edges=(g.edges[0],))
        r = S.mrp_f1(g, pred)
        assert r["edges"].precision == 1.0
        assert r["edges"].recall == 0.5
        assert r["edges"].f1 == pytest.approx(2 / 3, abs=1e-12)

    def test_wrong_label_counts_against_both(self):
        g = dm_like()
        nodes = list(g.nodes)
        nodes[0] = G.replace(nodes[0], label="a")
        r = S.mrp_f1(g, G.replace(g, nodes=tuple(nodes)))
        assert r["labels"].matched == 2
        assert r["labels"].gold == 3 and r["labels"].pred == 3

    def test_swapping_gold_and_pred_swaps_p_and_r(self):
        g = dm_like()
        pred = G.replace(g, edges=(g.edges[0],))
        a = S.mrp_f1(g, pred)
        b = S.mrp_f1(pred, g)
        for comp in S.COMPONENTS + ("all",):
            assert a[comp].precision == pytest.approx(b[comp].recall)
            assert a[comp].recall == pytest.approx(b[comp].precision)
            assert a[comp].f1 == pytest.approx(b[comp].f1)


class TestCorrespondence:
    def test_scores_invariant_to_id_relabeling(self):
        g = dm_like()
        relabeled = dm_like(ids=(30, 10, 20))
        r = S.mrp_f1(g, relabeled)
        assert r["all"].f1 == 1.0

    def test_amr_relabeling_found_by_search(self):
        g = amr_like()
        r = S.mrp_f1(g, amr_like(ids=(7, 5, 3)))
        assert r["all"].f1 == 1.0

    def test_anchored_correspondence_is_repeatable(self):
        g = dm_like()
        p = dm_like(ids=(2, 1, 0))
        assert S.correspondence(g, p) == S.correspondence(g, p)

    def test_unary_chain_pairs_by_depth(self):
        # two unanchored parents over one terminal, same yield everywhere
        def chain(ids):
            nodes = [G.MrpNode(ids[0]), G.MrpNode(ids[1]),
                     G.MrpNode(ids[2], anchors=(G.Anchor(0, 4),))]
            edges = [G.MrpEdge(ids[0], ids[1], "H"),
                     G.MrpEdge(ids[1], ids[2], "C")]
            return G.MrpGraph(id="u1", flavor=1, framework="ucca", input="word",
                              tops=(ids[0],), nodes=tuple(nodes),
                              edges=tuple(edges))
        r = S.mrp_f1(chain((10, 5, 3)), chain((0, 1, 2)))
        assert r["edges"].f1 == 1.0
        assert r["tops"].f1 == 1.0
        assert r["all"].f1 == 1.0

    def test_hill_climb_matches_exhaustive_on_small_graphs(self, monkeypatch):
        rng = np.random.default_rng(17)
        for k in range(10):
            g = amr.sample_dag(rng, gid=f"h{k}", n_nodes=int(rng.integers(3, 7)))
            ids = list(range(len(g.nodes)))
            perm = [int(x) for x in rng.permutation(ids)]
            nodes = tuple(G.MrpNode(perm[n.id], label=n.label) for n in g.nodes)
            edges = tuple(G.MrpEdge(perm[e.source], perm[e.target], e.label)
                          for e in g.edges)
            if rng.random() < 0.5 and len(edges) > 1:
                edges = edges[:-1]  # drop one edge so the match is imperfect
            pred = G.replace(g, tops=(perm[g.tops[0]],), nodes=nodes, edges=edges)
            via_exh = S.mrp_f1(g, pred)
            with monkeypatch.context() as m:
                m.setattr(S, "EXHAUSTIVE_LIMIT", 0)
                via_hill = S.mrp_f1(g, pred)
            assert via_hill["all"].matched == via_exh["all"].matched, f"case {k}"

    def test_remote_edges_score_attributes(self):
        nodes = [G.MrpNode(0), G.MrpNode(1, anchors=(G.Anchor(0, 4),)),
                 G.MrpNode(2, anchors=(G.Anchor(5, 9),))]
        edges = [G.MrpEdge(0, 1, "C"), G.MrpEdge(0, 2, "C"),
                 G.MrpEdge(2, 1, None, attributes=(("remote", True),))]
        g = G.MrpGraph(id="u2", flavor=1, framework="ucca", input="word word",
                       tops=(0,), nodes=tuple(nodes), edges=tuple(edges))
        r = S.mrp_f1(g, g)
        assert r["attributes"].gold == 1
        assert r["attributes"].f1 == 1.0


class TestAnchors:
    def test_strict_mode_rejects_whitespace_padding(self):
        g = dm_like()
        padded = list(g.nodes)
        # gold anchor [4,7) over "cat"; pred covers the leading space too
        padded[1] = G.replace(padded[1], anchors=(G.Anchor(3, 7),))
        pred = G.replace(g, nodes=tuple(padded))
        strict = S.mrp_f1(g, pred)
        assert strict["anchors"].matched == 2


class TestReport:
    def make_report(self):
        rep = S.ScoreReport()
        rep.add("dm", S.mrp_f1(dm_like(), dm_like()))
        return rep

    def test_accumulates_micro_counts(self):
        rep = S.ScoreReport()
        g = dm_like()
        rep.add("dm", S.mrp_f1(g, g))
        rep.add("dm", S.mrp_f1(g, G.replace(g, edges=(g.edges[0],))))
        edges = rep.by_framework["dm"]["edges"]
        assert (edges.gold, edges.pred, edges.matched) == (4, 3, 3)

    def test_macro_all_perfect(self):
        rep = S.ScoreReport()
        for fw in G.FRAMEWORKS:
            rep.add(fw, {"all": S.Counts(1, 1, 1)})
        assert rep.macro_f1() == 1.0

    def test_macro_missing_framework_warns_and_counts_zero(self):
        rep = S.ScoreReport()
        for fw in ("dm", "psd", "eds", "ucca"):
            rep.add(fw, {"all": S.Counts(1, 1, 1)})
        with pytest.warns(UserWarning, match="amr"):
            assert rep.macro_f1() == pytest.approx(0.8)

    def test_table_lists_components(self):
        table = self.make_report().format_table()
        for comp in S.COMPONENTS + ("all", "mean"):
            assert comp in table

    def test_json_shape(self):
        doc = self.make_report().to_json()
        assert doc["dm"]["all"]["f1"] == 1.0
        assert "macro_f1" in doc


# ---------------------------------------------------------------------------
# seeded pair generators for the frozen and property tests

AMR_LABELS = ("want-01", "boy", "girl", "go-02", "see-01", "dog", "city")
AMR_ROLES = ("ARG0", "ARG1", "ARG2", "mod", "op1")
UCCA_LABELS = ("A", "P", "C", "D", "E", "H")


def random_amr(rng, n, gid="f"):
    """A single-top DAG over a small label pool (so ties are common),
    with a few node properties and reentrant edges."""
    nodes = []
    for k in range(n):
        props = ()
        if rng.random() < 0.25:
            props = (("op1", str(rng.choice(("x", "y")))),)
        nodes.append(G.MrpNode(k, label=str(rng.choice(AMR_LABELS)),
                               properties=props))
    edges = [G.MrpEdge(int(rng.integers(0, j)), j, str(rng.choice(AMR_ROLES)))
             for j in range(1, n)]
    for _ in range(n // 3):
        j = int(rng.integers(1, n))
        i = int(rng.integers(0, j))
        edges.append(G.MrpEdge(i, j, str(rng.choice(AMR_ROLES))))
    return G.MrpGraph(id=gid, flavor=2, framework="amr", input="x",
                      tops=(0,), nodes=tuple(nodes), edges=tuple(edges))


def perturb(rng, g, drop_nodes=0, drop_edges=0, relabel=0, dup_edges=0,
            add_nodes=0):
    """Renumber the nodes at random and damage the graph."""
    nodes = list(g.nodes)
    edges = list(g.edges)
    for _ in range(drop_nodes):
        gone = nodes.pop(int(rng.integers(0, len(nodes)))).id
        edges = [e for e in edges if gone not in (e.source, e.target)]
    for _ in range(drop_edges):
        if edges:
            edges.pop(int(rng.integers(0, len(edges))))
    for _ in range(relabel):
        k = int(rng.integers(0, len(nodes)))
        nodes[k] = G.replace(nodes[k], label=str(rng.choice(AMR_LABELS)))
    for _ in range(dup_edges):
        if edges:
            edges.append(edges[int(rng.integers(0, len(edges)))])
    top = max(n.id for n in g.nodes) + 1
    for k in range(add_nodes):
        nodes.append(G.MrpNode(top + k, label=str(rng.choice(AMR_LABELS))))
        parent = nodes[int(rng.integers(0, len(nodes) - 1))].id
        edges.append(G.MrpEdge(parent, top + k, str(rng.choice(AMR_ROLES))))
    ids = [n.id for n in nodes]
    new = {old: 10 * int(p) + 3 for old, p in
           zip(ids, rng.permutation(len(ids)))}
    nodes = tuple(G.replace(n, id=new[n.id]) for n in nodes)
    edges = tuple(G.replace(e, source=new[e.source], target=new[e.target])
                  for e in edges)
    tops = tuple(new[t] for t in g.tops if t in new)
    return G.replace(g, nodes=nodes, edges=edges, tops=tops)


def random_ucca(rng, n_tokens, gid="u"):
    """Unanchored internal nodes over anchored terminals, plus remote
    edges carrying the ("remote", True) attribute."""
    words = [f"w{k}" for k in range(n_tokens)]
    text = " ".join(words)
    nodes, edges = [], []
    pos = 0
    for k, w in enumerate(words):
        nodes.append(G.MrpNode(k, anchors=(G.Anchor(pos, pos + len(w)),)))
        pos += len(w) + 1
    frontier = list(range(n_tokens))
    nid = n_tokens
    while len(frontier) > 1:
        take = min(len(frontier), int(rng.integers(2, 4)))
        at = int(rng.integers(0, len(frontier) - take + 1))
        kids = frontier[at:at + take]
        nodes.append(G.MrpNode(nid))
        for c in kids:
            edges.append(G.MrpEdge(nid, c, str(rng.choice(UCCA_LABELS))))
        frontier[at:at + take] = [nid]
        nid += 1
    root = frontier[0]
    for _ in range(max(1, n_tokens // 3)):
        src = int(rng.integers(n_tokens, nid)) if nid > n_tokens else root
        tgt = int(rng.integers(0, n_tokens))
        edges.append(G.MrpEdge(src, tgt, "A", attributes=(("remote", True),)))
    return G.MrpGraph(id=gid, flavor=1, framework="ucca", input=text,
                      tops=(root,), nodes=tuple(nodes), edges=tuple(edges))


def damage_ucca(rng, g):
    """Drop one tree edge, relabel one, strip one remote attribute and
    add a stray unanchored node."""
    edges = list(g.edges)
    edges.pop(int(rng.integers(0, len(edges))))
    k = int(rng.integers(0, len(edges)))
    edges[k] = G.replace(edges[k], label=str(rng.choice(UCCA_LABELS)))
    for k, e in enumerate(edges):
        if e.attributes:
            edges[k] = G.replace(e, attributes=())
            break
    extra = G.MrpNode(max(n.id for n in g.nodes) + 1)
    edges.append(G.MrpEdge(g.tops[0], extra.id, "D"))
    return G.replace(g, nodes=g.nodes + (extra,), edges=tuple(edges))


def padded_dm(rng, n_tokens, pad, gid="d"):
    """Flavor-0 graph over double-spaced tokens; ``pad`` widens some
    anchors over the neighbouring whitespace."""
    words = [f"t{k}" for k in range(n_tokens)]
    text = "  ".join(words)
    nodes, pos = [], 0
    for k, w in enumerate(words):
        s, e = pos, pos + len(w)
        if pad and rng.random() < 0.5:
            s, e = max(0, s - 1), min(len(text), e + 1)
        nodes.append(G.MrpNode(k, label=w, anchors=(G.Anchor(s, e),)))
        pos += len(w) + 2
    edges = tuple(G.MrpEdge(int(rng.integers(0, n_tokens)), k, "ARG1")
                  for k in range(n_tokens) if rng.random() < 0.7)
    return G.MrpGraph(id=gid, flavor=0, framework="dm", input=text,
                      tops=(0,), nodes=tuple(nodes), edges=edges)


def bench_pair(rng, n, gid):
    """A damaged pair shaped like the ``score`` benchmark's: a renumbered
    ``amr.sample_dag`` of ``n`` nodes with its lowest-numbered node
    relabelled and its last edge dropped."""
    g = amr.sample_dag(rng, gid=gid, n_nodes=n)
    p = perturb(rng, g)
    nodes = sorted(p.nodes, key=lambda node: node.id)
    nodes[0] = G.replace(nodes[0], label="perturbed-01")
    return g, G.replace(p, nodes=tuple(nodes), edges=p.edges[:-1])


def frozen_pairs():
    """(name, gold, pred, keyword arguments) for the pinned cases."""
    out = []
    rng = np.random.default_rng(20191003)
    for n in range(2, 9):                       # exhaustive path
        g = random_amr(rng, n)
        p = perturb(rng, g, drop_edges=1, relabel=n // 4)
        out.append((f"amr-exh-{n}", g, p, {}))
    for n in (6, 8):                            # exhaustive, label ties only
        g = random_amr(rng, n)
        out.append((f"amr-exh-renumbered-{n}", g, perturb(rng, g), {}))
    for n in (9, 10, 11, 12):                   # hill-climbing path
        g = random_amr(rng, n)
        p = perturb(rng, g, drop_edges=2, relabel=2)
        out.append((f"amr-hill-{n}", g, p, {}))
    for n in (5, 7):                            # forced hill climbing
        g = random_amr(rng, n)
        p = perturb(rng, g, drop_edges=1, relabel=1)
        out.append((f"amr-forced-hill-{n}", g, p, {"EXHAUSTIVE_LIMIT": 0}))
    g = random_amr(rng, 6)
    out.append(("amr-forced-exh-6", g, perturb(rng, g, relabel=2), {}))
    g = random_amr(rng, 7)                      # G > P, exhaustive
    out.append(("amr-g7-p5", g, perturb(rng, g, drop_nodes=2, relabel=1), {}))
    g = random_amr(rng, 5)                      # G < P, exhaustive
    out.append(("amr-g5-p8", g, perturb(rng, g, add_nodes=3), {}))
    g = random_amr(rng, 11)                     # G > P, hill climbing
    out.append(("amr-g11-p9", g, perturb(rng, g, drop_nodes=2), {}))
    g = random_amr(rng, 9)                      # G < P, hill climbing
    out.append(("amr-g9-p12", g, perturb(rng, g, add_nodes=3, relabel=1), {}))
    g = random_amr(rng, 7)                      # duplicate edges
    dup = G.replace(g, edges=g.edges + g.edges[:2])
    out.append(("amr-dup-exh", dup, perturb(rng, g, dup_edges=3), {}))
    g = random_amr(rng, 10)
    dup = G.replace(g, edges=g.edges + g.edges[1:3])
    out.append(("amr-dup-hill", dup, perturb(rng, g, dup_edges=2, relabel=1),
                {}))
    g = random_amr(rng, 5)                      # self-loop and two tops
    loop = G.replace(g, tops=(0, 2),
                     edges=g.edges + (G.MrpEdge(3, 3, "mod"),))
    out.append(("amr-loop-tops", loop, perturb(rng, loop, relabel=1), {}))
    for k, n in enumerate((4, 6, 9)):           # UCCA remote attributes
        g = random_ucca(rng, n, gid=f"u{k}")
        out.append((f"ucca-remote-{n}", g, damage_ucca(rng, g), {}))
    g = padded_dm(rng, 6, pad=False)             # padded anchors
    p = padded_dm(np.random.default_rng(5), 6, pad=True)
    p = G.replace(p, edges=g.edges[:-1])
    out.append(("dm-padded-lenient-False", g, p, {}))
    rng = np.random.default_rng(20191004)
    for n in range(9, 17):                      # the benchmark's damaged pairs
        g, p = bench_pair(rng, n, gid=f"b{n}")
        out.append((f"amr-bench-{n}", g, p, {}))
    return out


# Correspondence and (gold, pred, matched) per component in COMPONENTS
# order plus "all", recorded from the scorer that recounted every
# candidate mapping in full (the ``amr-bench`` cases: from the incremental
# search before its hill climbs stopped at the ceiling).  The search must
# reproduce them, under the scorer settings each case of ``frozen_pairs``
# names.
FROZEN = {
    'amr-exh-2': (
        {0: 3, 1: 13},
        ((1, 1, 1), (2, 2, 2), (1, 1, 1), (0, 0, 0),
         (1, 0, 0), (0, 0, 0), (5, 4, 4))),
    'amr-exh-3': (
        {0: 3, 1: 23, 2: 13},
        ((1, 1, 1), (3, 3, 3), (1, 1, 1), (0, 0, 0),
         (3, 2, 2), (0, 0, 0), (8, 7, 7))),
    'amr-exh-4': (
        {0: 3, 1: 23, 2: 33, 3: 13},
        ((1, 1, 1), (4, 4, 4), (0, 0, 0), (0, 0, 0),
         (4, 3, 3), (0, 0, 0), (9, 8, 8))),
    'amr-exh-5': (
        {0: 33, 1: 3, 2: 13, 3: 23, 4: 43},
        ((1, 1, 1), (5, 5, 4), (2, 2, 2), (0, 0, 0),
         (5, 4, 4), (0, 0, 0), (13, 12, 11))),
    'amr-exh-6': (
        {0: 33, 1: 3, 2: 43, 3: 53, 4: 23, 5: 13},
        ((1, 1, 1), (6, 6, 5), (3, 3, 3), (0, 0, 0),
         (7, 6, 6), (0, 0, 0), (17, 16, 15))),
    'amr-exh-7': (
        {0: 43, 1: 63, 2: 53, 3: 13, 4: 3, 5: 33, 6: 23},
        ((1, 1, 1), (7, 7, 6), (1, 1, 1), (0, 0, 0),
         (8, 7, 7), (0, 0, 0), (17, 16, 15))),
    'amr-exh-8': (
        {0: 43, 1: 23, 2: 53, 3: 3, 4: 73, 5: 13, 6: 63, 7: 33},
        ((1, 1, 1), (8, 8, 6), (1, 1, 1), (0, 0, 0),
         (9, 8, 8), (0, 0, 0), (19, 18, 16))),
    'amr-exh-renumbered-6': (
        {0: 13, 1: 33, 2: 3, 3: 53, 4: 23, 5: 43},
        ((1, 1, 1), (6, 6, 6), (0, 0, 0), (0, 0, 0),
         (7, 7, 7), (0, 0, 0), (14, 14, 14))),
    'amr-exh-renumbered-8': (
        {0: 13, 1: 23, 2: 33, 3: 73, 4: 63, 5: 3, 6: 53, 7: 43},
        ((1, 1, 1), (8, 8, 8), (1, 1, 1), (0, 0, 0),
         (9, 9, 9), (0, 0, 0), (19, 19, 19))),
    'amr-hill-9': (
        {0: 73, 1: 43, 2: 3, 3: 23, 4: 83, 5: 53, 6: 63, 7: 33, 8: 13},
        ((1, 1, 1), (9, 9, 7), (3, 3, 3), (0, 0, 0),
         (11, 9, 9), (0, 0, 0), (24, 22, 20))),
    'amr-hill-10': (
        {0: 3, 1: 93, 2: 43, 3: 33, 4: 83, 5: 63, 6: 23, 7: 53, 8: 13, 9: 73},
        ((1, 1, 1), (10, 10, 8), (6, 6, 6), (0, 0, 0),
         (12, 10, 10), (0, 0, 0), (29, 27, 25))),
    'amr-hill-11': (
        {0: 83, 1: 13, 2: 73, 3: 103, 4: 33, 5: 23, 6: 3, 7: 63, 8: 43, 9: 93,
         10: 53},
        ((1, 1, 1), (11, 11, 9), (2, 2, 2), (0, 0, 0),
         (13, 11, 11), (0, 0, 0), (27, 25, 23))),
    'amr-hill-12': (
        {0: 63, 1: 113, 2: 13, 3: 93, 4: 33, 5: 83, 6: 53, 7: 73, 8: 23, 9: 3,
         10: 43, 11: 103},
        ((1, 1, 1), (12, 12, 11), (5, 5, 5), (0, 0, 0),
         (15, 13, 13), (0, 0, 0), (33, 31, 30))),
    'amr-forced-hill-5': (
        {0: 23, 1: 43, 2: 3, 3: 33, 4: 13},
        ((1, 1, 1), (5, 5, 4), (1, 1, 1), (0, 0, 0),
         (5, 4, 4), (0, 0, 0), (12, 11, 10))),
    'amr-forced-hill-7': (
        {0: 3, 1: 23, 2: 53, 3: 33, 4: 13, 5: 43, 6: 63},
        ((1, 1, 1), (7, 7, 6), (2, 2, 2), (0, 0, 0),
         (8, 7, 7), (0, 0, 0), (18, 17, 16))),
    'amr-forced-exh-6': (
        {0: 3, 1: 33, 2: 13, 3: 53, 4: 23, 5: 43},
        ((1, 1, 1), (6, 6, 5), (0, 0, 0), (0, 0, 0),
         (7, 7, 7), (0, 0, 0), (14, 14, 13))),
    'amr-g7-p5': (
        {0: 43, 1: 3, 2: 13, 3: 23, 6: 33},
        ((1, 1, 1), (7, 5, 4), (4, 3, 3), (0, 0, 0),
         (8, 4, 4), (0, 0, 0), (20, 13, 12))),
    'amr-g5-p8': (
        {0: 73, 1: 13, 2: 23, 3: 53, 4: 43},
        ((1, 1, 1), (5, 8, 5), (0, 0, 0), (0, 0, 0),
         (5, 8, 5), (0, 0, 0), (11, 17, 11))),
    'amr-g11-p9': (
        {0: 23, 1: 33, 2: 43, 3: 73, 4: 3, 7: 13, 8: 53, 9: 63, 10: 83},
        ((1, 1, 1), (11, 9, 9), (1, 1, 1), (0, 0, 0),
         (13, 9, 9), (0, 0, 0), (26, 20, 20))),
    'amr-g9-p12': (
        {0: 113, 1: 83, 2: 3, 3: 13, 4: 73, 5: 33, 6: 93, 7: 103, 8: 43},
        ((1, 1, 1), (9, 12, 8), (4, 4, 4), (0, 0, 0),
         (11, 14, 11), (0, 0, 0), (25, 31, 24))),
    'amr-dup-exh': (
        {0: 13, 1: 33, 2: 3, 3: 23, 4: 53, 5: 43, 6: 63},
        ((1, 1, 1), (7, 7, 7), (1, 1, 1), (0, 0, 0),
         (10, 11, 8), (0, 0, 0), (19, 20, 17))),
    'amr-dup-hill': (
        {0: 93, 1: 13, 2: 3, 3: 23, 4: 33, 5: 53, 6: 73, 7: 43, 8: 63, 9: 83},
        ((1, 1, 1), (10, 10, 9), (3, 3, 3), (0, 0, 0),
         (14, 14, 12), (0, 0, 0), (28, 28, 25))),
    'amr-loop-tops': (
        {0: 33, 1: 23, 2: 13, 3: 3, 4: 43},
        ((2, 2, 2), (5, 5, 5), (2, 2, 2), (0, 0, 0),
         (6, 6, 6), (0, 0, 0), (15, 15, 15))),
    'ucca-remote-4': (
        {0: 0, 1: 1, 2: 2, 3: 3, 4: 4, 5: 5, 6: 6},
        ((1, 1, 1), (0, 0, 0), (0, 0, 0), (4, 4, 4),
         (7, 7, 5), (1, 0, 0), (13, 12, 10))),
    'ucca-remote-6': (
        {0: 0, 1: 1, 2: 2, 3: 3, 4: 4, 5: 5, 6: 6, 7: 7, 8: 8, 9: 9},
        ((1, 1, 1), (0, 0, 0), (0, 0, 0), (6, 6, 6),
         (11, 11, 10), (2, 1, 1), (20, 19, 18))),
    'ucca-remote-9': (
        {0: 0, 1: 1, 2: 2, 3: 3, 4: 4, 5: 5, 6: 6, 7: 7, 8: 8, 9: 9, 10: 10,
         11: 11, 12: 12},
        ((1, 1, 1), (0, 0, 0), (0, 0, 0), (9, 9, 9),
         (15, 15, 13), (3, 2, 2), (28, 27, 25))),
    'dm-padded-lenient-False': (
        {0: 0, 1: 1, 2: 2, 3: 3, 4: 4, 5: 5},
        ((1, 1, 1), (6, 6, 6), (0, 0, 0), (6, 6, 3),
         (4, 3, 3), (0, 0, 0), (17, 16, 13))),
    'amr-bench-9': (
        {0: 23, 1: 73, 2: 13, 3: 3, 4: 43, 5: 83, 6: 63, 7: 33, 8: 53},
        ((1, 1, 1), (9, 9, 8), (0, 0, 0), (0, 0, 0),
         (8, 7, 7), (0, 0, 0), (18, 17, 16))),
    'amr-bench-10': (
        {0: 33, 1: 93, 2: 23, 3: 83, 4: 53, 5: 3, 6: 43, 7: 73, 8: 63, 9: 13},
        ((1, 1, 1), (10, 10, 9), (0, 0, 0), (0, 0, 0),
         (9, 8, 8), (0, 0, 0), (20, 19, 18))),
    'amr-bench-11': (
        {0: 23, 1: 13, 2: 43, 3: 83, 4: 53, 5: 93, 6: 3, 7: 63, 8: 33, 9: 73,
         10: 103},
        ((1, 1, 1), (11, 11, 10), (0, 0, 0), (0, 0, 0),
         (10, 9, 9), (0, 0, 0), (22, 21, 20))),
    'amr-bench-12': (
        {0: 113, 1: 93, 2: 83, 3: 33, 4: 3, 5: 53, 6: 63, 7: 23, 8: 103, 9: 13,
         10: 43, 11: 73},
        ((1, 1, 1), (12, 12, 11), (0, 0, 0), (0, 0, 0),
         (12, 11, 11), (0, 0, 0), (25, 24, 23))),
    'amr-bench-13': (
        {0: 73, 1: 13, 2: 123, 3: 23, 4: 43, 5: 83, 6: 113, 7: 3, 8: 63, 9: 53,
         10: 33, 11: 103, 12: 93},
        ((1, 1, 1), (13, 13, 12), (0, 0, 0), (0, 0, 0),
         (13, 12, 12), (0, 0, 0), (27, 26, 25))),
    'amr-bench-14': (
        {0: 43, 1: 3, 2: 13, 3: 53, 4: 113, 5: 33, 6: 103, 7: 93, 8: 73, 9: 63,
         10: 133, 11: 83, 12: 123, 13: 23},
        ((1, 1, 1), (14, 14, 13), (0, 0, 0), (0, 0, 0),
         (13, 12, 12), (0, 0, 0), (28, 27, 26))),
    'amr-bench-15': (
        {0: 143, 1: 33, 2: 53, 3: 83, 4: 63, 5: 123, 6: 13, 7: 3, 8: 73,
         9: 113, 10: 103, 11: 93, 12: 133, 13: 43, 14: 23},
        ((1, 1, 1), (15, 15, 14), (0, 0, 0), (0, 0, 0),
         (14, 13, 13), (0, 0, 0), (30, 29, 28))),
    'amr-bench-16': (
        {0: 73, 1: 33, 2: 43, 3: 113, 4: 83, 5: 93, 6: 13, 7: 23, 8: 133,
         9: 123, 10: 53, 11: 153, 12: 63, 13: 3, 14: 143, 15: 103},
        ((1, 1, 1), (16, 16, 15), (0, 0, 0), (0, 0, 0),
         (15, 14, 14), (0, 0, 0), (32, 31, 30))),
}


class TestFrozenPairs:
    @pytest.mark.parametrize("case", frozen_pairs(), ids=lambda c: c[0])
    def test_correspondence_and_counts_unchanged(self, case, monkeypatch):
        name, gold, pred, settings = case
        for setting, value in settings.items():
            monkeypatch.setattr(S, setting, value)
        mapping, counts = FROZEN[name]
        assert S.correspondence(gold, pred) == mapping
        r = S.mrp_f1(gold, pred)
        got = tuple((r[c].gold, r[c].pred, r[c].matched)
                    for c in S.COMPONENTS + ("all",))
        assert got == counts

    def test_every_case_is_pinned(self):
        assert sorted(c[0] for c in frozen_pairs()) == sorted(FROZEN)


def recounted_first_best(gold, pred):
    """The exhaustive search as a full recount of every permutation."""
    matcher = S._PairMatcher(gold, pred)
    g, p = matcher.gold_ids, matcher.pred_ids
    best_m, best = {}, -1
    if len(g) <= len(p):
        maps = (dict(zip(g, c)) for c in itertools.permutations(p, len(g)))
    else:
        maps = (dict(zip(c, p)) for c in itertools.permutations(g, len(p)))
    for m in maps:
        score = matcher.counts(m)["all"].matched
        if score > best:
            best_m, best = m, score
    return best_m


def oracle_pairs():
    """Seeded pairs of every shape the searches meet: AMR with every
    kind of damage, two tops, self-loops and duplicate edges; damaged
    UCCA; DM with padded anchors."""
    rng = np.random.default_rng(20191005)
    out = []
    for k in range(200):
        g = random_amr(rng, int(rng.integers(2, 15)), gid=f"a{k}")
        if k % 3 == 1:
            n = len(g.nodes)
            g = G.replace(g, tops=(0, n - 1), edges=g.edges + g.edges[:1]
                          + (G.MrpEdge(n // 2, n // 2, "mod"),))
        p = perturb(rng, g, drop_nodes=int(rng.integers(0, 2)),
                    drop_edges=int(rng.integers(0, 3)),
                    relabel=int(rng.integers(0, 3)),
                    dup_edges=int(rng.integers(0, 2)),
                    add_nodes=int(rng.integers(0, 2)))
        out.append((g, p))
    for k in range(60):
        g = random_ucca(rng, int(rng.integers(2, 9)), gid=f"u{k}")
        out.append((g, damage_ucca(rng, g)))
    for k in range(60):
        n = int(rng.integers(2, 10))
        out.append((padded_dm(rng, n, pad=False, gid=f"d{k}"),
                    padded_dm(rng, n, pad=True, gid=f"d{k}")))
    return out


def recount_cases():
    """(case, gold, pred): small AMR pairs with duplicate edges, dropped
    and added nodes."""
    rng = np.random.default_rng(9)
    for k in range(10):
        g = random_amr(rng, int(rng.integers(2, 7)))
        if k % 3 == 0:
            g = G.replace(g, edges=g.edges + g.edges[:1])
        p = perturb(rng, g, drop_nodes=k % 2, relabel=1,
                    dup_edges=1, add_nodes=(k // 2) % 2)
        yield k, g, p


def table_cases():
    """(case, matcher, values, mapping) for a random and for the found
    correspondence of damaged AMR (two tops, a self-loop, duplicate
    edges) and UCCA pairs: ``values[r]`` is the column of gold row
    ``r``, ``len(matcher.pred_ids)`` meaning unmapped, and ``mapping``
    the same correspondence by node ids."""
    rng = np.random.default_rng(11)
    for k in range(30):
        if k % 3 == 2:
            g = random_ucca(rng, int(rng.integers(2, 7)))
            p = damage_ucca(rng, g)
        else:
            g = random_amr(rng, int(rng.integers(2, 9)))
            g = G.replace(g, tops=(0, len(g.nodes) - 1), edges=g.edges
                          + g.edges[:1] + (G.MrpEdge(0, 0, "mod"),))
            p = perturb(rng, g, drop_nodes=k % 2, drop_edges=1,
                        relabel=1, dup_edges=1, add_nodes=k % 3)
        matcher = S._PairMatcher(g, p)
        n_gold, n_pred = len(matcher.gold_ids), len(matcher.pred_ids)
        column = {q: j for j, q in enumerate(matcher.pred_ids)}
        cols = [int(c) for c in rng.permutation(n_pred)][:n_gold]
        values = cols + [n_pred] * (n_gold - len(cols))  # n_pred: unmapped
        rng.shuffle(values)
        found = S.correspondence(g, p)
        for values in (values, [column[found[q]] if q in found else n_pred
                                for q in matcher.gold_ids]):
            m = {matcher.gold_ids[i]: matcher.pred_ids[v]
                 for i, v in enumerate(values) if v != n_pred}
            yield k, matcher, values, m


def assert_no_more_matches_than_tuples(matcher, m, what):
    counts = matcher.counts(m)
    for c in S.COMPONENTS + ("all",):
        k = counts[c]
        assert k.matched <= min(k.gold, k.pred), f"{what} {c}"
    assert matcher.ceiling() >= counts["all"].matched, what


class TestScorerProperties:
    def test_no_more_matches_than_tuples(self):
        rng = np.random.default_rng(17)
        for k, (g, p) in enumerate(oracle_pairs()):
            matcher = S._PairMatcher(g, p)
            m = dict(zip(rng.permutation(matcher.gold_ids).tolist(),
                         rng.permutation(matcher.pred_ids).tolist()))
            assert_no_more_matches_than_tuples(matcher, m, f"case {k}")

    def test_a_repeated_gold_top_matches_once(self):
        gold = G.replace(amr_like(), tops=(0, 0))
        pred = amr_like(ids=(7, 5, 3))
        m = S.correspondence(gold, pred)
        assert m == {0: 7, 1: 5, 2: 3}
        assert_no_more_matches_than_tuples(S._PairMatcher(gold, pred), m,
                                           "repeated top")

    def test_self_f1_under_renumbering(self, monkeypatch):
        rng = np.random.default_rng(3)
        limit = S.EXHAUSTIVE_LIMIT
        cases = [(random_amr(rng, n), limit) for n in (1, 3, 5, 8, 9, 12)]
        cases += [(random_amr(rng, n), 0) for n in (4, 7)]  # hill climbing
        cases += [(random_ucca(rng, n), limit) for n in (3, 6, 10)]
        cases += [(padded_dm(rng, n, pad=True), limit) for n in (4, 9)]
        for k, (g, case_limit) in enumerate(cases):
            monkeypatch.setattr(S, "EXHAUSTIVE_LIMIT", case_limit)
            r = S.mrp_f1(g, perturb(rng, g))
            assert r["all"].f1 == 1.0, f"case {k}"

    def test_hillclimb_never_beats_exhaustive(self, monkeypatch):
        rng = np.random.default_rng(5)
        for k in range(12):
            g = random_amr(rng, int(rng.integers(2, 9)))
            p = perturb(rng, g, drop_nodes=int(rng.integers(0, 2)),
                        drop_edges=1, relabel=2,
                        add_nodes=int(rng.integers(0, 2)))
            p = G.replace(p, nodes=p.nodes[:8])
            exh = S.mrp_f1(g, p)["all"].matched
            with monkeypatch.context() as m:
                m.setattr(S, "EXHAUSTIVE_LIMIT", 0)
                hill = S.mrp_f1(g, p)["all"].matched
            assert hill <= exh, f"case {k}"

    def test_exhaustive_is_first_best_of_a_full_recount(self):
        for k, g, p in recount_cases():
            assert (S.correspondence(g, p)
                    == recounted_first_best(g, p)), f"case {k}"

    def test_tables_total_equals_counts(self):
        for k, matcher, values, m in table_cases():
            total = S._sum_rows(matcher.unary, matcher.links, values,
                                range(len(matcher.gold_ids)))
            assert total == matcher.counts(m)["all"].matched, f"case {k}"

    def test_counts_equal_the_tables_under_injective_mappings(self):
        # the identity that lets an anchored pair at the ceiling skip the
        # tables: the count of a mapping is the total its climb starts at
        rng = np.random.default_rng(19)
        for k, (g, p) in enumerate(oracle_pairs()):
            matcher = S._PairMatcher(g, p)
            n_gold, n_pred = len(matcher.gold_ids), len(matcher.pred_ids)
            values = [int(c) for c in rng.permutation(n_pred)][:n_gold]
            values += [n_pred] * (n_gold - len(values))  # n_pred: unmapped
            rng.shuffle(values)
            values = [n_pred if rng.random() < 0.2 else v for v in values]
            m = {matcher.gold_ids[i]: matcher.pred_ids[v]
                 for i, v in enumerate(values) if v != n_pred}
            total = S._sum_rows(matcher.unary, matcher.links, values,
                                range(n_gold))
            assert matcher.counts(m)["all"].matched == total, f"case {k}"

    def test_yields_are_character_sets_as_bitmasks(self):
        for k, (g, _) in enumerate(oracle_pairs()):
            got = S.anchor_signatures(g, S._tree_children(g))
            as_sets = {n: {c for c in range(b.bit_length()) if b >> c & 1}
                       for n, b in got.items()}
            assert as_sets == _reference_signatures(g), f"case {k}"

    def test_an_anchored_pair_at_the_ceiling_builds_no_tables(
            self, monkeypatch):
        built = []
        tables = S._tables

        def counting(*args):
            built.append(1)
            return tables(*args)

        monkeypatch.setattr(S, "_tables", counting)
        gold = dm_like()
        assert S.mrp_f1(gold, dm_like(ids=(2, 1, 0)))["all"].f1 == 1.0
        assert not built
        # the first two labels trade anchors: the greedy mapping falls
        # short of the ceiling, so the climb builds the tables once
        the, cat, sit = gold.nodes
        swapped = G.replace(gold, nodes=(G.replace(the, label="cat"),
                                         G.replace(cat, label="the"), sit))
        matcher = S._PairMatcher(gold, swapped)
        assert S.mrp_f1(gold, swapped)["all"].matched < matcher.ceiling()
        assert len(built) == 1

    def test_ceiling_bounds_the_first_best(self):
        for k, g, p in recount_cases():
            matcher = S._PairMatcher(g, p)
            best = matcher.counts(recounted_first_best(g, p))["all"].matched
            assert matcher.ceiling() >= best, f"case {k}"

    def test_ceiling_bounds_every_table_total(self):
        for k, matcher, values, _ in table_cases():
            total = S._sum_rows(matcher.unary, matcher.links, values,
                                range(len(matcher.gold_ids)))
            assert matcher.ceiling() >= total, f"case {k}"

    def test_ceiling_is_reached_by_renumbered_copies(self):
        rng = np.random.default_rng(13)
        graphs = [random_amr(rng, n) for n in (1, 4, 9, 14)]
        g = random_amr(rng, 10)
        graphs.append(G.replace(g, tops=(0, 0, 9), edges=g.edges
                                + g.edges[:2] + (G.MrpEdge(4, 4, "mod"),)))
        graphs += [random_ucca(rng, n) for n in (3, 7)]
        graphs += [padded_dm(rng, n, pad=True) for n in (4, 9)]
        for k, g in enumerate(graphs):
            p = perturb(rng, g)
            r = S.mrp_f1(g, p)["all"]
            assert r.matched == r.gold, f"case {k}"
            assert S._PairMatcher(g, p).ceiling() == r.matched, f"case {k}"

    def test_hillclimb_stops_once_a_restart_is_perfect(self, monkeypatch):
        calls = []
        climb = S._improve_by_swaps

        def counting(*args):
            calls.append(1)
            return climb(*args)

        monkeypatch.setattr(S, "_improve_by_swaps", counting)
        rng = np.random.default_rng(0)
        g = random_amr(rng, 12)
        assert S.mrp_f1(g, perturb(rng, g))["all"].f1 == 1.0
        assert len(calls) == 1
        calls.clear()
        damaged = perturb(rng, g, relabel=2, drop_edges=1)
        assert S.mrp_f1(g, damaged)["all"].f1 < 1.0
        assert len(calls) == 1  # its optimum reaches the ceiling
        calls.clear()
        # distinct labels pin every node, so the reversed edge cannot
        # match: the optimum stays one below the ceiling
        nodes = tuple(G.MrpNode(k, label=f"n{k}") for k in range(12))
        gold = G.MrpGraph(id="r", flavor=2, framework="amr", input="x",
                          tops=(0,), nodes=nodes,
                          edges=(G.MrpEdge(0, 1, "r"),))
        reversed_edge = G.replace(gold, edges=(G.MrpEdge(1, 0, "r"),))
        assert S.mrp_f1(gold, reversed_edge)["all"].matched == 13
        assert S._PairMatcher(gold, reversed_edge).ceiling() == 14
        assert len(calls) == S.HILL_CLIMB_RESTARTS

    @pytest.mark.parametrize("limit", [S.EXHAUSTIVE_LIMIT, 0],
                             ids=["default-limit", "limit-0"])
    def test_same_mapping_as_the_uncapped_search(self, limit, monkeypatch):
        monkeypatch.setattr(S, "EXHAUSTIVE_LIMIT", limit)
        for k, (g, p) in enumerate(oracle_pairs()):
            assert (S.correspondence(g, p)
                    == reference_correspondence(g, p)), f"case {k}"

    def test_mrp_f1_builds_one_matcher(self, monkeypatch):
        built = []

        class Counting(S._PairMatcher):
            def __init__(self, *args, **kwargs):
                built.append(1)
                super().__init__(*args, **kwargs)

        monkeypatch.setattr(S, "_PairMatcher", Counting)
        S.mrp_f1(amr_like(), amr_like(ids=(7, 5, 3)))
        S.mrp_f1(dm_like(), dm_like(ids=(2, 1, 0)))
        assert len(built) == 2
