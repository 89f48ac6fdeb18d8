"""Deterministic synthetic corpus for desk-scale runs, tests and demos.

Every sentence is drawn from a handful of templates over a small closed
lexicon and ships with gold graphs for all five frameworks plus matching
static and contextual embedding arrays.  Builds are pure functions of
the seed.
"""

from dataclasses import dataclass

import numpy as np

from . import graphs as G
from . import ucca as U
from .eds import ConversionRuleSet, dm_to_eds_surface
from .encoder import ROOT, StaticEmbeddings, ContextualEmbeddings

# (surface, lemma, xpos); upos derived from xpos below
DETS = (("the", "the", "DT"), ("a", "a", "DT"))
NOUNS = (("cat", "cat", "NN"), ("dog", "dog", "NN"), ("bird", "bird", "NN"),
         ("boat", "boat", "NN"), ("book", "book", "NN"), ("tree", "tree", "NN"),
         ("house", "house", "NN"), ("fish", "fish", "NN"))
# (surface, lemma, sense suffix)
VERBS = (("chases", "chase", "01"), ("sees", "see", "01"),
         ("finds", "find", "01"), ("likes", "like", "02"),
         ("paints", "paint", "01"), ("wants", "want", "01"))
BARE_VERBS = (("read", "read", "01"), ("find", "find", "01"),
              ("paint", "paint", "01"))
NAMES = ("Mary", "John", "Ada", "Omar", "Ines", "Tom")
MONTHS = (("November", 11), ("July", 7), ("March", 3), ("August", 8))

UPOS_OF = {"DT": "DET", "NN": "NOUN", "NNP": "PROPN", "VBZ": "VERB",
           "VB": "VERB", "IN": "ADP", "TO": "PART"}

STATIC_DIM = 16
CTX_LAYERS = 2
CTX_WIDTH = 12


def _rows(words):
    """TokenRows with running single-space anchors."""
    rows, pos = [], 0
    for i, (surface, lemma, xpos, ne) in enumerate(words):
        rows.append(G.TokenRow(i, surface, lemma, UPOS_OF[xpos], xpos, ne,
                               G.Anchor(pos, pos + len(surface))))
        pos += len(surface) + 1
    return tuple(rows)


def _text(rows):
    return " ".join(r.surface for r in rows)


def _anchor(rows, i):
    return (rows[i].anchor,)


def _dm(sid, rows, text, content, edges, top, frames):
    """Flavor-0 graph over the given token indices; ids are 0..k-1."""
    nid = {tok: k for k, tok in enumerate(sorted(content))}
    nodes = []
    for tok in sorted(content):
        props = [("pos", rows[tok].xpos)]
        if tok in frames:
            props.append(("frame", frames[tok]))
        nodes.append(G.MrpNode(nid[tok], label=rows[tok].lemma,
                               properties=tuple(props), anchors=_anchor(rows, tok)))
    return G.MrpGraph(id=sid, flavor=0, framework="dm", input=text,
                      tops=(nid[top],), nodes=tuple(nodes),
                      edges=tuple(G.MrpEdge(nid[s], nid[t], l) for s, t, l in edges))


def _psd(sid, rows, text, content, edges, top, frames):
    g = _dm(sid, rows, text, content, edges, top, frames)
    return G.replace(g, framework="psd")


@dataclass
class _AmrBuilder:
    nodes: list
    edges: list

    def concept(self, label, properties=()):
        nid = len(self.nodes) + 10
        self.nodes.append(G.MrpNode(nid, label=label, properties=tuple(properties)))
        return nid

    def arc(self, src, tgt, label):
        self.edges.append(G.MrpEdge(src, tgt, label))

    def person(self, *surfaces):
        head = self.concept("person")
        ops = tuple((f"op{k + 1}", s) for k, s in enumerate(surfaces))
        name = self.concept("name", properties=ops)
        self.arc(head, name, "name")
        return head

    def graph(self, sid, text, top):
        return G.MrpGraph(id=sid, flavor=2, framework="amr", input=text,
                          tops=(top,), nodes=tuple(self.nodes),
                          edges=tuple(self.edges))


def _sense(verb):
    return f"{verb[1]}-{verb[2]}"


def _pick(rng, pool):
    return pool[int(rng.integers(len(pool)))]


def _pick2(rng, pool):
    i = int(rng.integers(len(pool)))
    j = int(rng.integers(len(pool) - 1))
    if j >= i:
        j += 1
    return pool[i], pool[j]


def make_sentence(rng, sid, template=None):
    """One synthetic sentence with gold graphs for all five frameworks.

    Templates: 0 noun-verb-noun, 1 name-verb-noun, 2 noun-verb-name,
    3 control verb with a reentrant subject, 4 possessive, 5 name-verb-
    noun with a month adjunct.
    """
    t = int(rng.integers(6)) if template is None else template
    det1, det2 = _pick(rng, DETS), _pick(rng, DETS)
    n1, n2 = _pick2(rng, NOUNS)
    v = _pick(rng, VERBS)
    name = _pick(rng, NAMES)
    b = _AmrBuilder([], [])

    if t == 0:
        # the cat chases the dog
        words = [(det1[0], det1[1], "DT", "O"), (n1[0], n1[1], "NN", "O"),
                 (v[0], v[1], "VBZ", "O"), (det2[0], det2[1], "DT", "O"),
                 (n2[0], n2[1], "NN", "O")]
        rows = _rows(words)
        content = [0, 1, 2, 3, 4]
        dm_edges = [(0, 1, "BV"), (3, 4, "BV"), (2, 1, "ARG1"), (2, 4, "ARG2")]
        psd_content = [1, 2, 4]
        psd_edges = [(2, 1, "ACT-arg"), (2, 4, "PAT-arg")]
        vb = b.concept(_sense(v))
        x = b.concept(n1[1])
        y = b.concept(n2[1])
        b.arc(vb, x, "ARG0")
        b.arc(vb, y, "ARG1")
        top = vb
        verb_tok = 2
    elif t == 1:
        # Mary sees the boat
        words = [(name, name, "NNP", "PER"), (v[0], v[1], "VBZ", "O"),
                 (det1[0], det1[1], "DT", "O"), (n1[0], n1[1], "NN", "O")]
        rows = _rows(words)
        content = [0, 1, 2, 3]
        dm_edges = [(2, 3, "BV"), (1, 0, "ARG1"), (1, 3, "ARG2")]
        psd_content = [0, 1, 3]
        psd_edges = [(1, 0, "ACT-arg"), (1, 3, "PAT-arg")]
        vb = b.concept(_sense(v))
        p = b.person(name)
        y = b.concept(n1[1])
        b.arc(vb, p, "ARG0")
        b.arc(vb, y, "ARG1")
        top = vb
        verb_tok = 1
    elif t == 2:
        # the dog likes John
        words = [(det1[0], det1[1], "DT", "O"), (n1[0], n1[1], "NN", "O"),
                 (v[0], v[1], "VBZ", "O"), (name, name, "NNP", "PER")]
        rows = _rows(words)
        content = [0, 1, 2, 3]
        dm_edges = [(0, 1, "BV"), (2, 1, "ARG1"), (2, 3, "ARG2")]
        psd_content = [1, 2, 3]
        psd_edges = [(2, 1, "ACT-arg"), (2, 3, "PAT-arg")]
        vb = b.concept(_sense(v))
        x = b.concept(n1[1])
        p = b.person(name)
        b.arc(vb, x, "ARG0")
        b.arc(vb, p, "ARG1")
        top = vb
        verb_tok = 2
    elif t == 3:
        # Ada wants to read the book  (reentrant subject)
        v2 = _pick(rng, BARE_VERBS)
        words = [(name, name, "NNP", "PER"), ("wants", "want", "VBZ", "O"),
                 ("to", "to", "TO", "O"), (v2[0], v2[1], "VB", "O"),
                 (det1[0], det1[1], "DT", "O"), (n1[0], n1[1], "NN", "O")]
        rows = _rows(words)
        content = [0, 1, 3, 4, 5]
        dm_edges = [(4, 5, "BV"), (1, 0, "ARG1"), (1, 3, "ARG2"),
                    (3, 0, "ARG1"), (3, 5, "ARG2")]
        psd_content = [0, 1, 3, 5]
        psd_edges = [(1, 0, "ACT-arg"), (1, 3, "PAT-arg"),
                     (3, 0, "ACT-arg"), (3, 5, "PAT-arg")]
        want = b.concept("want-01")
        p = b.person(name)
        inner = b.concept(_sense(v2))
        y = b.concept(n1[1])
        b.arc(want, p, "ARG0")
        b.arc(want, inner, "ARG1")
        b.arc(inner, p, "ARG0")
        b.arc(inner, y, "ARG1")
        top = want
        verb_tok = 1
        v = ("wants", "want", "01")
    elif t == 4:
        # the tree of Omar hides a bird -> possessive
        words = [(det1[0], det1[1], "DT", "O"), (n1[0], n1[1], "NN", "O"),
                 ("of", "of", "IN", "O"), (name, name, "NNP", "PER"),
                 (v[0], v[1], "VBZ", "O"), (det2[0], det2[1], "DT", "O"),
                 (n2[0], n2[1], "NN", "O")]
        rows = _rows(words)
        content = [0, 1, 3, 4, 5, 6]
        dm_edges = [(0, 1, "BV"), (5, 6, "BV"), (1, 3, "poss"),
                    (4, 1, "ARG1"), (4, 6, "ARG2")]
        psd_content = [1, 3, 4, 6]
        psd_edges = [(4, 1, "ACT-arg"), (4, 6, "PAT-arg"), (1, 3, "APP-arg")]
        vb = b.concept(_sense(v))
        x = b.concept(n1[1])
        p = b.person(name)
        y = b.concept(n2[1])
        b.arc(vb, x, "ARG0")
        b.arc(vb, y, "ARG1")
        b.arc(x, p, "poss")
        top = vb
        verb_tok = 4
    else:
        # John paints the house in November
        mon = _pick(rng, MONTHS)
        words = [(name, name, "NNP", "PER"), (v[0], v[1], "VBZ", "O"),
                 (det1[0], det1[1], "DT", "O"), (n1[0], n1[1], "NN", "O"),
                 ("in", "in", "IN", "O"), (mon[0], mon[0], "NNP", "O")]
        rows = _rows(words)
        content = [0, 1, 2, 3, 5]
        dm_edges = [(2, 3, "BV"), (1, 0, "ARG1"), (1, 3, "ARG2"),
                    (1, 5, "loc")]
        psd_content = [0, 1, 3, 5]
        psd_edges = [(1, 0, "ACT-arg"), (1, 3, "PAT-arg"), (1, 5, "TWHEN-arg")]
        vb = b.concept(_sense(v))
        p = b.person(name)
        y = b.concept(n1[1])
        d = b.concept("date-entity", properties=(("month", str(mon[1])),))
        b.arc(vb, p, "ARG0")
        b.arc(vb, y, "ARG1")
        b.arc(vb, d, "time")
        top = vb
        verb_tok = 1

    text = _text(rows)
    frames = {verb_tok: f"v:{v[1]}"}
    if t == 3:
        frames[3] = f"v:{words[3][1]}"
    dm = _dm(sid, rows, text, content, dm_edges, verb_tok, frames)
    psd_frames = {k: f"{rows[k].lemma}.f1" for k in frames}
    psd = _psd(sid, rows, text, psd_content, psd_edges, verb_tok, psd_frames)
    eds = gold_eds(dm, rows)
    ucca = U.sample_graph(rng, rows, gid=sid, text=text)
    amr = b.graph(sid, text, top)
    return G.Sentence(id=sid, tokens=rows,
                      graphs={"dm": dm, "psd": psd, "eds": eds,
                              "ucca": ucca, "amr": amr})


# ---------------------------------------------------------------------------
# EDS side: conversion rules and rule-consistent gold

def conversion_rules():
    """Rules matching the synthetic DM conventions.

    Common nouns imply a `udef_q` quantifier; proper nouns carry a
    `proper_q` in the gold graphs that is left to the learned detector.
    """
    doc = {
        "surface": [
            {"match": {"pos": "DT"}, "template": "_{label}_q"},
            {"match": {"pos": "NN"}, "template": "_{label}_n_1"},
            {"match": {"pos": "VBZ"}, "template": "_{label}_v_1"},
            {"match": {"pos": "VB"}, "template": "_{label}_v_1"},
            {"match": {"pos": "NNP"}, "template": "_{label}_nnp_1"},
        ],
        "edge_map": {},
        "implications": [
            {"if_label": f"_{lemma}_n_1", "add_label": "udef_q", "edge": "BV"}
            for _, lemma, _ in NOUNS
        ],
        "detect_on_nodes": True,
    }
    return ConversionRuleSet.from_dict(doc)


_GOLD_RULES = conversion_rules()  # read-only; gold_eds runs once per sentence


def gold_eds(dm, rows):
    """Reference EDS: rewritten surface plus anchored abstract nodes.

    Abstract ids continue after the surface ids in implication order
    first, then detector sites, mirroring the generation pass.
    """
    rules = _GOLD_RULES
    surface = dm_to_eds_surface(dm, rules)
    nodes = list(surface.nodes)
    edges = list(surface.edges)
    next_id = max(n.id for n in nodes) + 1
    for imp in rules.implications:
        for n in surface.nodes:
            if n.label == imp.if_label:
                nodes.append(G.MrpNode(next_id, label=imp.add_label,
                                       anchors=n.anchors))
                edges.append(G.MrpEdge(next_id, n.id, imp.edge))
                next_id += 1
    for n in surface.nodes:
        if n.label.endswith("_nnp_1"):
            nodes.append(G.MrpNode(next_id, label="proper_q", anchors=n.anchors))
            edges.append(G.MrpEdge(next_id, n.id, "BV"))
            next_id += 1
    return G.MrpGraph(id=dm.id, flavor=1, framework="eds", input=dm.input,
                      tops=dm.tops, nodes=tuple(nodes), edges=tuple(edges))


# ---------------------------------------------------------------------------
# corpus assembly

@dataclass
class SynthCorpus:
    sentences: list
    rules: ConversionRuleSet
    static: StaticEmbeddings
    contextual: ContextualEmbeddings


def _all_words():
    words = set()
    for surface, lemma, _ in DETS + NOUNS:
        words.update((surface, lemma))
    for surface, lemma, _ in VERBS + BARE_VERBS:
        words.update((surface, lemma))
    words.update(NAMES)
    words.update(m for m, _ in MONTHS)
    words.update(("to", "of", "in", ROOT))
    # concept labels double as feature lookups on the generator side
    words.update(_sense(v) for v in VERBS + BARE_VERBS)
    words.update(("person", "name", "date-entity", "want-01"))
    return sorted(words)


def build_embeddings(sentences, seed):
    rng = np.random.default_rng(seed + 1)
    table = {w: rng.normal(0.0, 0.5, size=STATIC_DIM) for w in _all_words()}
    static = StaticEmbeddings(table, STATIC_DIM, rng)
    arrays = {}
    for sent in sentences:
        arrays[sent.id] = rng.normal(
            0.0, 0.5, size=(CTX_LAYERS, len(sent.tokens), CTX_WIDTH))
    return static, ContextualEmbeddings(arrays)


def build_corpus(n=32, seed=7):
    """Synthetic corpus of n sentences with gold in all five frameworks."""
    rng = np.random.default_rng(seed)
    sentences = [make_sentence(rng, f"s{i:03d}") for i in range(n)]
    static, contextual = build_embeddings(sentences, seed)
    return SynthCorpus(sentences=sentences, rules=conversion_rules(),
                       static=static, contextual=contextual)
