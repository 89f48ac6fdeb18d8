"""AMR parsing: node generation by an extended pointer-generator, then
biaffine edges resolved to a spanning arborescence.

Preprocessing makes graphs generable: entity subgraphs collapse to
anonymized placeholder nodes (PERSON.0 style) aligned to token spans,
sense indices are stripped so labels share vocabulary with lemmas, and
the DAG becomes a tree by replicating reentrant nodes once per extra
incoming edge.  The decoder mixes three strategies per step: copy a
source token, copy an already generated node (which is how reentrancy
is rebuilt), or emit from the node vocabulary.  Postprocessing inverts
everything.
"""

import re
from dataclasses import dataclass, replace

import numpy as np

from . import autodiff as ad
from . import graphs as G
from .encoder import Linear, LstmCell, Mlp

END_LABEL = "<END>"
UNK_LABEL = "<UNK>"
BEAM_WIDTH = 5  # beam_search width unless a caller sets one

_ANON = re.compile(r"^[A-Z][A-Z_]*\.\d+$")
_SENSE = re.compile(r"^(.*[^\d-])-(\d{2,3})$")


def strip_sense(label):
    m = _SENSE.match(label)
    return m.group(1) if m else label


def _most_frequent(pairs):
    """Key -> its most frequent value, from (key, value) pairs; ties go
    alphabetically, keys in first-seen order."""
    counts = {}
    for key, value in pairs:
        c = counts.setdefault(key, {})
        c[value] = c.get(value, 0) + 1
    return {key: min(c, key=lambda v: (-c[v], v)) for key, c in counts.items()}


def build_sense_table(labels):
    """Most frequent full form per stripped base."""
    pairs = ((strip_sense(lab), lab) for lab in labels)
    return _most_frequent((base, lab) for base, lab in pairs if base != lab)


def restore_sense(label, table):
    return table.get(label, label)


# ---------------------------------------------------------------------------
# entity anonymization

MONTHS = {
    1: ("January", "Jan"), 2: ("February", "Feb"), 3: ("March", "Mar"),
    4: ("April", "Apr"), 5: ("May", "May"), 6: ("June", "Jun"),
    7: ("July", "Jul"), 8: ("August", "Aug"), 9: ("September", "Sep"),
    10: ("October", "Oct"), 11: ("November", "Nov"), 12: ("December", "Dec"),
}


def _prefix_match(surface, word):
    a, b = surface.lower(), str(word).lower()
    return bool(a) and bool(b) and (a.startswith(b) or b.startswith(a))


def find_token_span(tokens, word_alternatives):
    """Leftmost longest run of tokens matching the word sequence.

    Each element of ``word_alternatives`` is a tuple of acceptable
    surface prefixes (month 11 also answers to November/Nov).  Returns
    (first, last_exclusive) or None.
    """
    best = None
    for s in range(len(tokens)):
        k = 0
        while (k < len(word_alternatives) and s + k < len(tokens)
               and any(_prefix_match(tokens[s + k].surface, w)
                       for w in word_alternatives[k])):
            k += 1
        if k > 0 and (best is None or k > best[0]):
            best = (k, s)
    if best is None:
        return None
    return best[1], best[1] + best[0]


def _with_month_names(key, value):
    alts = [str(value)]
    if key == "month":
        try:
            alts.extend(MONTHS[int(value)])
        except (ValueError, KeyError):
            pass
    return tuple(alts)


def anon_kind(label):
    if label.endswith("-entity"):
        return label[: -len("-entity")].upper().replace("-", "_")
    return label.upper().replace("-", "_")


@dataclass(frozen=True)
class EntityRecord:
    anon_label: str       # e.g. PERSON.0
    head_label: str       # e.g. person, date-entity
    kind: str             # "name" (op subgraph) or "attribute" (-entity node)
    ops: tuple = ()       # name op values, or aligned surfaces at inference
    properties: tuple = ()
    span: tuple = None    # (first, last_exclusive) token indices


@dataclass
class Anonymization:
    graph: G.MrpGraph
    records: tuple


def _ordered_ops(props):
    keyed = [(k, v) for k, v in props if re.fullmatch(r"op\d+", k)]
    return tuple(v for _, v in sorted(keyed, key=lambda kv: int(kv[0][2:])))


def anonymize(g, tokens):
    """Collapse entity subgraphs to anonymized nodes aligned to tokens."""
    by_id = g.node_by_id()
    name_child = {}
    for e in g.edges:
        if e.label == "name" and by_id[e.target].label == "name":
            name_child[e.source] = e.target

    records = []
    counters = {}
    replaced = {}      # head node id -> anon label
    removed = set()    # name node ids folded into their head

    for n in g.nodes:
        if n.id in name_child:
            kind = anon_kind(n.label)
            ops = _ordered_ops(by_id[name_child[n.id]].properties)
            span = find_token_span(tokens, [(w,) for w in ops])
        elif n.label is not None and n.label.endswith("-entity"):
            kind = anon_kind(n.label)
            props = n.properties
            span = None
            hits = []
            for k, v in props:
                one = find_token_span(tokens, [_with_month_names(k, v)])
                if one is not None:
                    hits.extend(range(one[0], one[1]))
            if hits:
                span = (min(hits), max(hits) + 1)
            ops = ()
        else:
            continue
        if span is None:
            continue  # no token span: the entity stays unanonymized
        idx = counters.get(kind, 0)
        counters[kind] = idx + 1
        anon = f"{kind}.{idx}"
        replaced[n.id] = anon
        if n.id in name_child:
            removed.add(name_child[n.id])
            records.append(EntityRecord(anon, n.label, "name", ops=ops, span=span))
        else:
            records.append(EntityRecord(anon, n.label, "attribute",
                                        properties=n.properties, span=span))

    nodes = []
    for n in g.nodes:
        if n.id in removed:
            continue
        if n.id in replaced:
            nodes.append(G.MrpNode(n.id, label=replaced[n.id]))
        else:
            nodes.append(n)
    edges = tuple(e for e in g.edges if e.target not in removed and e.source not in removed)
    out = G.replace(g, nodes=tuple(nodes), edges=edges)
    return Anonymization(out, tuple(records))


def build_ne_map(observations):
    """NE tag -> most frequent entity head label, from (tag, head) pairs."""
    return _most_frequent(observations)


def records_from_ne(tokens, ne_map):
    """Inference-side records: contiguous NE runs become name entities
    whose ops are the aligned surfaces."""
    records = []
    counters = {}
    i = 0
    while i < len(tokens):
        tag = tokens[i].ne
        if tag == "O" or tag not in ne_map:
            i += 1
            continue
        j = i
        while j < len(tokens) and tokens[j].ne == tag:
            j += 1
        head = ne_map[tag]
        kind = anon_kind(head)
        idx = counters.get(kind, 0)
        counters[kind] = idx + 1
        records.append(EntityRecord(f"{kind}.{idx}", head, "name",
                                    ops=tuple(t.surface for t in tokens[i:j]),
                                    span=(i, j)))
        i = j
    return tuple(records)


def expand_entities(nodes, edges, records_by_label, next_id):
    """Replace anonymized nodes by their original subgraphs in place.

    Returns (nodes, edges, flags); an anonymized-looking label with no
    record is kept verbatim and flagged.
    """
    out_nodes, flags = [], []
    extra_edges = list(edges)
    for n in nodes:
        rec = records_by_label.get(n.label)
        if rec is None:
            if n.label is not None and _ANON.match(n.label):
                flags.append(n.label)
            out_nodes.append(n)
            continue
        if rec.kind == "name":
            out_nodes.append(G.MrpNode(n.id, label=rec.head_label))
            props = tuple((f"op{k + 1}", op) for k, op in enumerate(rec.ops))
            out_nodes.append(G.MrpNode(next_id, label="name", properties=props))
            extra_edges.append(G.MrpEdge(n.id, next_id, "name"))
            next_id += 1
        else:
            out_nodes.append(G.MrpNode(n.id, label=rec.head_label,
                                       properties=rec.properties))
    return out_nodes, extra_edges, flags


# ---------------------------------------------------------------------------
# DAG -> tree

@dataclass(frozen=True)
class TreeNode:
    index: int
    label: str
    parent: int          # tree index; -1 at the root
    edge_label: str = None
    copy_of: int = None  # tree index of the first replica, for leaf copies


@dataclass(frozen=True)
class AmrTree:
    nodes: tuple

    def labels(self):
        return tuple(n.label for n in self.nodes)


def _assert_acyclic(g):
    children = {}
    for e in g.edges:
        children.setdefault(e.source, []).append(e.target)
    color = {}
    def visit(u):
        color[u] = 1
        for v in children.get(u, ()):
            if color.get(v) == 1:
                raise ValueError(f"graph {g.id} has a cycle through node {v}")
            if color.get(v, 0) == 0:
                visit(v)
        color[u] = 2
    for n in g.nodes:
        if color.get(n.id, 0) == 0:
            visit(n.id)


def dag_to_tree(g):
    """Spanning tree by pre-order traversal, replicating reentrant nodes
    once per extra incoming edge; replicas beyond the first are leaves."""
    if len(g.tops) != 1:
        raise ValueError(f"graph {g.id} needs exactly one top, has {len(g.tops)}")
    _assert_acyclic(g)
    by_id = g.node_by_id()
    children = {}
    for e in g.edges:
        children.setdefault(e.source, []).append(e)
    for nid in children:
        children[nid].sort(key=lambda e: (e.label or "",
                                          by_id[e.target].label or "", e.target))

    out = []
    first_idx = {}

    def visit(nid, parent, elabel):
        idx = len(out)
        if nid in first_idx:
            out.append(TreeNode(idx, by_id[nid].label, parent, elabel,
                                copy_of=first_idx[nid]))
            return
        first_idx[nid] = idx
        out.append(TreeNode(idx, by_id[nid].label, parent, elabel))
        for e in children.get(nid, ()):
            visit(e.target, idx, e.label)

    visit(g.tops[0], -1, None)
    if len(first_idx) != len(g.nodes):
        missing = len(g.nodes) - len(first_idx)
        raise ValueError(f"graph {g.id}: {missing} node(s) unreachable from the top")
    return AmrTree(tuple(out))


# ---------------------------------------------------------------------------
# graph assembly: the inverse of dag_to_tree, used by decoding

def resolve_copies(copy_of):
    alias = list(range(len(copy_of)))
    for i, c in enumerate(copy_of):
        if c is not None:
            a = c
            while copy_of[a] is not None:
                a = copy_of[a]
            alias[i] = a
    return alias


def assemble_graph(labels, copy_of, parents, edge_labels, gid, text,
                   records=None, sense_table=None):
    """Merge copies back into reentrancies and emit the flavor-2 graph.

    ``parents[i]`` is the position of node i's head (-1 for the root);
    position 0 is always the top.  Entity expansion and sense
    restoration run when their tables are given.
    """
    alias = resolve_copies(copy_of)
    order = [i for i in range(len(labels)) if alias[i] == i]
    ids = {pos: k for k, pos in enumerate(order)}
    table = sense_table or {}
    nodes = [G.MrpNode(ids[pos], label=restore_sense(labels[pos], table))
             for pos in order]
    edges = []
    for i, p in enumerate(parents):
        if p < 0:
            continue
        edges.append(G.MrpEdge(ids[alias[p]], ids[alias[i]], edge_labels[i]))

    flags = []
    if records is not None:
        by_label = {r.anon_label: r for r in records}
        nodes, edges, flags = expand_entities(nodes, edges, by_label, len(nodes))

    graph = G.MrpGraph(id=gid, flavor=2, framework="amr", input=text,
                       tops=(ids[alias[0]],), nodes=tuple(nodes), edges=tuple(edges))
    return graph, tuple(flags)


# ---------------------------------------------------------------------------
# decoder vocabulary and node features

class DecoderVocab:
    """Node-label inventory; index 0 terminates generation."""

    def __init__(self, labels):
        seen = [END_LABEL, UNK_LABEL]
        for lab in labels:
            if lab not in seen:
                seen.append(lab)
        self.labels = tuple(seen)
        self._index = {lab: i for i, lab in enumerate(self.labels)}

    def __len__(self):
        return len(self.labels)

    def index(self, label):
        return self._index.get(label, self._index[UNK_LABEL])

    @property
    def end_index(self):
        return 0


def node_features(encoder, labels, poses):
    """Previous-node inputs, one (k, F) row per node, through the shared
    feature tables: the lemma slot holds the label, POS only for
    source-copied nodes (``None`` gives a zero row), static vector from
    the label."""
    v = encoder.vocab
    lemma = ad.rows(encoder.lemma_emb, [v.lemma_id(lab) for lab in labels])
    has_pos = np.array([[float(pos is not None)] for pos in poses])
    pos_vec = ad.mul(ad.rows(encoder.pos_emb, [v.pos_id(pos) for pos in poses]),
                     has_pos)
    static_h = encoder.static_mlp(ad.Tensor(encoder.static.matrix(labels)))
    return ad.concat([lemma, pos_vec, static_h], axis=1)


def node_feature_width(encoder):
    return (encoder.config.lemma_dim + encoder.config.pos_dim
            + encoder.config.static_mlp)


# ---------------------------------------------------------------------------
# extended pointer-generator

_NO_HISTORY = np.array([[0.0, -1e30, 0.0]])  # switch bias: no decoder copy
ATT_DIM = 64  # width of the source and history attention keys


class AmrDecoder:
    """Stacked LSTM over generated nodes with a three-way mixture output.

    The mixture concatenates (source-copy over tokens, decoder-copy
    over generated nodes, vocabulary) weighted by a masked softmax
    switch; the decoder-copy segment is masked while empty.  Its L layers
    run as one stack in one :func:`autodiff.lstm_stack` call
    (:meth:`_layers`), and the LSTM state of k rows is one packed
    tensor, (k, 2LH) or (k, 1, 2LH), the rows ``[h_0 | … | h_{L-1} | c_0 |
    … | c_{L-1}]`` the stack returns, bottom layer first; the mixture
    reads only the top layer's h.  Decoding advances k hypotheses of
    equal length together, one row each, as k LSTM sequences of length 1
    (:meth:`step`); teacher forcing runs the whole gold sequence at once
    (:func:`run_teacher_forced`).

    The mixture of a step is six graph nodes over the top-layer states
    whatever k, five while there is no history: the source attention and
    its softmax, the history attention (each one
    :func:`autodiff.additive_attention`), the vocabulary and
    switch logits (two :class:`encoder.Linear` calls), and one
    :func:`autodiff.pointer_mixture` for the switch softmax, the history
    and vocabulary softmaxes, the weighting and the concatenation.
    """

    def __init__(self, params, name, enc_hidden, feat_width, hidden, n_vocab,
                 rng, layers=1, dropout=0.0):
        self.hidden = hidden
        self.feat_width = feat_width
        self.n_layers = layers
        self.dropout = dropout
        self.init_mlp = Mlp(params, f"{name}.init", 4 * enc_hidden,
                            feat_width + 2 * hidden * layers, rng)
        self.cells = []
        width = feat_width
        for l in range(layers):
            self.cells.append(LstmCell(params, f"{name}.cell{l}", width, hidden, rng))
            width = hidden
        # the stack's per-layer (wx, wh, b) lists, bottom first
        self.stack = tuple([getattr(cell, w) for cell in self.cells] for w in ("wx", "wh", "b"))
        self.src_dec = params.new(f"{name}.src.dec", (hidden, ATT_DIM), rng)
        self.src_enc = params.new(f"{name}.src.enc", (2 * enc_hidden, ATT_DIM), rng)
        self.src_v = params.new(f"{name}.src.v", (ATT_DIM, 1), rng)
        self.hist_dec = params.new(f"{name}.hist.dec", (hidden, ATT_DIM), rng)
        self.hist_enc = params.new(f"{name}.hist.enc", (hidden, ATT_DIM), rng)
        self.hist_v = params.new(f"{name}.hist.v", (ATT_DIM, 1), rng)
        self.vocab_head = Linear(params, f"{name}.vocab", hidden, n_vocab, rng)
        self.switch = Linear(params, f"{name}.switch", hidden, 3, rng)

    def initial(self, finals):
        """Initial input ``x0`` (1, F) and packed state (1, 2LH), sliced
        by one split from one MLP over the encoder's top-layer final
        states ``finals`` (1, 4H)."""
        x0, state = ad.split(self.init_mlp(finals),
                             [self.feat_width, 2 * self.n_layers * self.hidden], axis=1)
        return x0, state

    def _layers(self, x, state, masks=None):
        """Every layer over the inputs ``x`` from the packed ``state`` in
        one :func:`autodiff.lstm_stack` call, ``masks`` scaling the upper
        layers' inputs; returns its packed rows and the top layer's h
        rows, (k, H) for (k, 1, F) inputs and (T, H) for (T, F)."""
        out = ad.lstm_stack(x, *self.stack, state=state, masks=masks)
        # each packed row is 2L blocks of H, the top layer's h block L - 1
        blocks = 2 * self.n_layers
        rows = out.data.size // (blocks * self.hidden)
        top = ad.rows(ad.reshape(out, (rows * blocks, self.hidden)),
                      np.arange(rows) * blocks + self.n_layers - 1)
        return out, top

    def source_keys(self, token_states):
        """Projected attention keys of the source tokens, (L, ATT_DIM)."""
        return ad.matmul(token_states, self.src_enc)

    def step(self, x, state, src_keys, hist_keys):
        """Advance k hypotheses of equal length s by one node; returns
        (state, h, p): the packed state after the step, (k, 1, 2LH), the
        top layer's h, (k, H), the only state the mixture reads, and p,
        the (k, L + s + V) mixture.

        ``x`` is (k, F); ``state`` is packed, (k, 2LH) as :meth:`initial`
        gives it or (k, 1, 2LH) as returned.  ``src_keys`` is
        :meth:`source_keys` (L, att) of the token states without the
        <ROOT> row, shared by all rows.  ``hist_keys`` is (k, s, att), row
        i holding the keys of hypothesis i's previous top-layer states,
        each ``h @ hist.enc``; None while s = 0.
        """
        state, h = self._layers(ad.reshape(x, (x.shape[0], 1, self.feat_width)), state)
        p, _ = self._mixture(h, src_keys, hist_keys,
                             gate_bias=_NO_HISTORY if hist_keys is None else None)
        return state, h, p

    def _mixture(self, hx, src_keys, hist_keys, hist_bias=None, gate_bias=None):
        """Mixture rows (k, L + n + V) and source attentions (k, L) of
        the top-layer states ``hx`` (k, H): the two attentions, the
        vocabulary and switch logits, and one :func:`autodiff.pointer_mixture`.
        ``hist_keys`` are shared (n, att) or per row (k, n, att), None
        while there is no history; ``hist_bias`` (k, n) and ``gate_bias``
        (k, 3) are added to the history scores and the switch logits,
        -1e30 masking a cell.  The source attentions stay their own
        softmax node, which the coverage loss reads."""
        a_src = ad.softmax(ad.additive_attention(hx, src_keys, self.src_dec, self.src_v),
                           axis=-1)
        hist = (None if hist_keys is None else
                ad.additive_attention(hx, hist_keys, self.hist_dec, self.hist_v))
        p = ad.pointer_mixture(a_src, hist, self.vocab_head(hx), self.switch(hx),
                               hist_bias, gate_bias)
        return p, a_src


@dataclass
class AmrContext:
    """Everything a decoding run needs for one sentence."""
    encoder: object
    decoder: AmrDecoder
    vocab: DecoderVocab
    token_states: ad.Tensor   # (L, 2H), token rows of the encoder output
    finals: ad.Tensor         # (1, 4H), the encoder's EncoderOutput.finals(1)
    lemmas: tuple
    xpos: tuple


@dataclass
class GoldSequence:
    labels: tuple      # node labels in generation order (END excluded)
    copy_of: tuple     # tree index of the first replica, else None
    src_token: tuple   # copied source position, else None
    targets: tuple     # mixture index per step, END step included


def gold_sequence(tree, ctx):
    """Generation targets with the priority decoder-copy > source-copy >
    vocabulary; the END step closes every sequence."""
    L = len(ctx.lemmas)
    labels, copy_of, src_token, targets = [], [], [], []
    first_lemma = {}
    for j, lemma in enumerate(ctx.lemmas):
        first_lemma.setdefault(lemma, j)
    for i, node in enumerate(tree.nodes):
        labels.append(node.label)
        copy_of.append(node.copy_of)
        if node.copy_of is not None:
            src_token.append(None)
            targets.append(L + node.copy_of)
        elif node.label in first_lemma:
            j = first_lemma[node.label]
            src_token.append(j)
            targets.append(j)
        else:
            src_token.append(None)
            targets.append(L + i + ctx.vocab.index(node.label))
    targets.append(L + len(tree.nodes) + ctx.vocab.end_index)
    return GoldSequence(tuple(labels), tuple(copy_of), tuple(src_token),
                        tuple(targets))


def run_teacher_forced(ctx, gold, rng=None):
    """Mixture rows, source attentions and node states under gold inputs.

    Every input is known before the first step (the initial input, then
    the gold nodes), so the n + 1 steps run as whole-sequence ops: one
    :func:`node_features` batch, one :func:`autodiff.lstm_stack` from
    the packed initial state, one source attention and one history
    attention over the top layer's ``h[:n] @ hist.enc``, and one
    :func:`autodiff.pointer_mixture` whose history bias masks step i to
    the nodes before it and whose switch bias shuts row 0's history
    column.  The source attentions stay a softmax node of their own,
    which :func:`coverage_loss` reads.  Returns the (n + 1, L + n + V)
    mixture rows, whose vocabulary segment starts at L + n on every row
    (:func:`decoder_loss` maps the gold indices), the (n + 1, L) source
    attentions and the (n, H) top-layer node states.

    Given ``rng``, inter-layer dropout masks come from one draw in the
    step-major order of a step-by-step run, so they are the same masks
    (hence no ``ad.dropout``), and the stack scales its upper layers'
    inputs by them; loss terms and gradients agree with
    stepping :meth:`AmrDecoder.step` one node at a time to about 1e-10
    relative, not bit for bit.
    """
    dec = ctx.decoder
    n, hsz, layers = len(gold.labels), dec.hidden, dec.n_layers
    x0, state = dec.initial(ctx.finals)
    poses = [None if j is None else ctx.xpos[j] for j in gold.src_token]
    cur = ad.concat([x0, node_features(ctx.encoder, gold.labels, poses)], axis=0)
    masks = None
    if rng is not None and dec.dropout > 0.0 and layers > 1:
        masks = (rng.random((n + 1, layers - 1, hsz)) >= dec.dropout) / (1.0 - dec.dropout)
    _, cur = dec._layers(cur, state, masks)
    states = ad.split(cur, [n, 1], axis=0)[0]
    gate_bias = np.zeros((n + 1, 3))
    gate_bias[0, 1] = -1e30  # step 0 has no history to copy from
    p, a_src = dec._mixture(cur, dec.source_keys(ctx.token_states),
                            ad.matmul(states, dec.hist_enc),
                            hist_bias=np.triu(np.full((n + 1, n), -1e30)),
                            gate_bias=gate_bias)
    return p, a_src, states


def decoder_loss(p, targets, n_tokens):
    """Summed -log p of the gold mixture indices over the rows of
    :func:`run_teacher_forced`.

    ``targets`` are :class:`GoldSequence` indices, whose vocabulary
    segment starts at L + i on step i; on the rows it starts at L + n,
    so indices at or past L + i move by n - i.
    """
    n = p.shape[0] - 1
    return ad.nll_of_probs(p, [t + n - i if t >= n_tokens + i else t
                               for i, t in enumerate(targets)])


def coverage_loss(attentions):
    """Sum over steps of sum_j min(attention, coverage) for (T, L)
    attention rows, a step's coverage being the sum of the rows before
    it: a strictly lower-triangular product."""
    t = attentions.shape[0]
    cov = ad.matmul(np.tril(np.ones((t, t)), -1), attentions)
    return ad.reduce_sum(ad.minimum(attentions, cov))


# ---------------------------------------------------------------------------
# beam search

@dataclass
class AmrGeneration:
    """A node sequence, the one record of both the beam's hypotheses and
    the decode it returns.  ``states`` holds each node's top-layer
    decoder state: during the search as a (batched step output, row)
    pair, in the returned generation as the (1, H) row, sliced out once."""
    labels: tuple
    copy_of: tuple
    src_token: tuple
    states: tuple
    log_prob: float
    truncated: bool = False


def _decode_index(ctx, idx, labels):
    """Resolve a mixture index to (label, copy_of, src_token)."""
    L = len(ctx.lemmas)
    if idx < L:
        return ctx.lemmas[idx], None, idx
    if idx < L + len(labels):
        return labels[idx - L], idx - L, None
    return ctx.vocab.labels[idx - L - len(labels)], None, None


def _grow(ctx, hyp, idx, logp, top, row):
    """``hyp`` extended by the node at mixture index ``idx``, its state
    being row ``row`` of the step's top-layer states ``top``."""
    label, copy, src = _decode_index(ctx, idx, hyp.labels)
    return AmrGeneration(hyp.labels + (label,), hyp.copy_of + (copy,),
                         hyp.src_token + (src,), hyp.states + ((top, row),), logp)


def _next_inputs(ctx, hyps, parents, state, h, hist_keys, features):
    """Batched decoder inputs for ``hyps``, hypothesis i grown from row
    ``parents[i]`` of the last step: the feature of its new node, its
    parent's row of the packed ``state``, every layer's (h, c) in one
    gather, and its parent's history keys plus the key of the new node,
    the top-layer ``h @ hist.enc`` for all rows in one product.
    ``features`` maps each (label, POS) of the decode so far to its (1, F)
    :func:`node_features` row; the keys not in it yet are built in one
    call and added."""
    keys = [(hyp.labels[-1],
             None if hyp.src_token[-1] is None else ctx.xpos[hyp.src_token[-1]])
            for hyp in hyps]
    new = list(dict.fromkeys(key for key in keys if key not in features))
    if new:
        built = node_features(ctx.encoder, [lab for lab, _ in new], [pos for _, pos in new])
        features.update(zip(new, ad.unstack_rows(built, [1] * len(new))))
    x = ad.stack_rows([features[key] for key in keys])
    new_keys = ad.matmul(ad.rows(h, parents), ctx.decoder.hist_enc)
    new_keys = ad.reshape(new_keys, (len(hyps), 1, new_keys.shape[1]))
    if hist_keys is not None:
        new_keys = ad.concat([ad.rows(hist_keys, parents), new_keys], axis=1)
    return x, ad.rows(state, parents), new_keys


def default_cap(n_tokens):
    return max(8, 2 * n_tokens + 2)


def greedy_decode(ctx):
    """Argmax rollout, which ``beam_search`` runs at width 1: greedy
    decoding, stopping at the first step whose argmax is END.  (The
    batched beam with one slot would not be the same: it files that END
    as finished and keeps extending the runner-up, so it can return a
    longer hypothesis.)  It steps one row (k = 1) through the same
    batched decoder step."""
    L = len(ctx.lemmas)
    cap = default_cap(L)
    dec = ctx.decoder
    keys = dec.source_keys(ctx.token_states)
    x, state = dec.initial(ctx.finals)
    hist_keys, features = None, {}
    hyp = AmrGeneration((), (), (), (), 0.0)
    for step in range(cap + 1):
        state, h, p = dec.step(x, state, keys, hist_keys)
        row = p.data[0]
        end_at = L + len(hyp.labels) + ctx.vocab.end_index
        order = np.argsort(-row, kind="stable")
        idx = int(order[0])
        if idx == end_at and step == 0:
            idx = int(order[1])  # empty graphs are not a thing
        logp = hyp.log_prob + float(np.log(max(row[idx], 1e-12)))
        if idx == end_at:
            hyp.log_prob = logp
            break
        hyp = _grow(ctx, hyp, idx, logp, h, 0)
        x, state, hist_keys = _next_inputs(ctx, [hyp], [0], state, h, hist_keys, features)
    else:
        hyp.truncated = True
    return replace(hyp, states=tuple(ad.rows(t, [j]) for t, j in hyp.states))


def _expand(p, beams, end_at, width, can_finish):
    """The ``width`` best candidates of a beam step and its finishes.

    Row j of the mixture ``p`` (k, ·) extends ``beams[j]``; its ``width
    + 1`` largest entries, in a stable descending argsort, are taken in
    row order, each at its hypothesis's log-probability plus the log of
    the entry (floored at 1e-12), all logs from one array.  A
    candidate is (log prob, row, mixture index); the survivors are the
    first ``width`` of a stable sort on the log-probability, best first.
    An entry at ``end_at``, END, is no candidate: when ``can_finish`` it
    finishes its row's hypothesis, listed as (log prob, row) in row
    order, and otherwise it is dropped."""
    orders = np.argsort(-p, axis=1, kind="stable")[:, : width + 1]
    logps = np.log(np.maximum(np.take_along_axis(p, orders, 1), 1e-12))
    candidates, finishes = [], []
    for j, (hyp, idxs, lps) in enumerate(zip(beams, orders.tolist(), logps.tolist())):
        for idx, lp in zip(idxs, lps):
            logp = hyp.log_prob + lp
            if idx != end_at:
                candidates.append((logp, j, idx))
            elif can_finish:
                finishes.append((logp, j))
    return sorted(candidates, key=lambda cand: -cand[0])[:width], finishes


def beam_search(ctx, width=BEAM_WIDTH):
    """Length-normalized beam over the mixture.

    Finished hypotheses never displace live ones; the first finish with
    the best log-probability per step, the closing step included, wins.
    The search stops once every survivor ``b`` has
    ``b.log_prob / (cap + 1)`` below that score (Huang et al., "When to
    Finish?", EMNLP 2017).  The stop is exact: mixture entries are at
    most 1, so no descendant outscores its ancestor; a finish has at most
    ``cap`` nodes; and rounded ``+`` and ``/`` are monotone.  With no
    finish the search runs to the cap and returns its best live
    hypothesis, ``truncated``.

    Every live hypothesis at step s holds s nodes, so the whole beam
    advances in one (k, ·) call of :meth:`AmrDecoder.step`, its LSTM
    state carried as one packed (k, 1, 2LH) tensor that
    :func:`_next_inputs` reorders with one gather.  A candidate
    is only its parent row, mixture index and log-probability, ranked
    from arrays (:func:`_expand`); history keys are built in one batch
    for the ``width`` candidates that survive the cut, each hypothesis
    carrying its own history-key rows, and each distinct (label, POS)
    node feature once per decode, when it first appears.  Hypotheses
    are :class:`AmrGeneration` records; only the winner's state rows are
    sliced out.

    Candidates are enumerated and ranked as by one step per hypothesis:
    beams in order, a stable argsort per row, a stable sort on the
    log-probability.  The batched products round differently from
    single rows, so log-probabilities and states agree with a
    per-hypothesis decode to about 1e-10, not bit for bit.
    """
    if width < 1:
        raise ValueError("beam width must be positive")
    if width == 1:
        return greedy_decode(ctx)
    L = len(ctx.lemmas)
    cap = default_cap(L)
    dec = ctx.decoder
    keys = dec.source_keys(ctx.token_states)
    x, state = dec.initial(ctx.finals)
    hist_keys, features = None, {}
    beams = [AmrGeneration((), (), (), (), 0.0)]
    best = None  # (rank, hypothesis, log prob) of the first best finish
    def rank(logp, labels):  # per step, then the shorter, then by labels
        return logp / (len(labels) + 1), -len(labels), labels
    for step in range(cap + 1):
        state, h, p = dec.step(x, state, keys, hist_keys)
        survivors, finishes = _expand(p.data, beams, L + step + ctx.vocab.end_index, width,
                                      can_finish=step > 0)  # empty graphs are not a thing
        for logp, j in finishes:
            key = rank(logp, beams[j].labels)
            if best is None or key > best[0]:
                best = (key, beams[j], logp)
        parents = [j for _, j, _ in survivors]
        beams = [_grow(ctx, beams[j], idx, logp, h, j)
                 for logp, j, idx in survivors]
        if not beams or best is not None and all(  # best[0][0]: its score
                b.log_prob / (cap + 1) < best[0][0] for b in beams):
            break
        x, state, hist_keys = _next_inputs(ctx, beams, parents, state, h, hist_keys, features)
    if best is None:
        for hyp in beams:
            hyp.truncated = True
        best = max(((rank(b.log_prob, b.labels), b, b.log_prob) for b in beams),
                   key=lambda entry: entry[0])
    _, hyp, logp = best
    return replace(hyp, log_prob=logp,
                   states=tuple(ad.rows(t, [j]) for t, j in hyp.states))


# ---------------------------------------------------------------------------
# maximum spanning arborescence

def _find_cycle(parents, root):
    n = len(parents)
    color = [0] * n
    for start in range(n):
        if start == root or color[start]:
            continue
        path = []
        u = start
        while u != root and not color[u]:
            color[u] = 1
            path.append(u)
            u = parents[u]
        if u != root and color[u] == 1:
            cyc = [u]
            v = parents[u]
            while v != u:
                cyc.append(v)
                v = parents[v]
            return cyc
        for v in path:
            color[v] = 2
    return None


def chu_liu_edmonds(scores, root=0):
    """Maximum spanning arborescence; returns the parent of each node
    (-1 at the root).  Scores are parent-major: scores[i, j] is edge
    i -> j."""
    n = scores.shape[0]
    parents = np.full(n, -1, dtype=int)
    if n == 1:
        return parents
    s = np.asarray(scores, dtype=float).copy()
    np.fill_diagonal(s, -np.inf)
    s[:, root] = -np.inf
    for j in range(n):
        if j == root:
            continue
        parents[j] = int(np.argmax(s[:, j]))
        if not np.isfinite(s[parents[j], j]):
            raise ValueError("no usable incoming edge; score matrix is degenerate")
    cyc = _find_cycle(parents, root)
    if cyc is None:
        return parents

    in_cycle = set(cyc)
    keep = [v for v in range(n) if v not in in_cycle]
    index = {v: k for k, v in enumerate(keep)}
    super_idx = len(keep)
    m = len(keep) + 1
    s2 = np.full((m, m), -np.inf)
    entry_choice = {}
    exit_choice = {}
    for u in keep:
        for v in keep:
            if u != v:
                s2[index[u], index[v]] = s[u, v]
        gains = [s[u, v] - s[parents[v], v] for v in cyc]
        k = int(np.argmax(gains))
        entry_choice[u] = cyc[k]
        s2[index[u], super_idx] = gains[k]
        outs = [s[v, u] for v in cyc]
        k = int(np.argmax(outs))
        exit_choice[u] = cyc[k]
        s2[super_idx, index[u]] = outs[k]

    # cycle nodes keep their in-cycle parents except where the chosen
    # entry edge breaks the cycle
    sub = chu_liu_edmonds(s2, root=index[root])
    for j2, p2 in enumerate(sub):
        if p2 < 0:
            continue
        if j2 == super_idx:
            u = keep[p2]
            parents[entry_choice[u]] = u
        elif p2 == super_idx:
            parents[keep[j2]] = exit_choice[keep[j2]]
        else:
            parents[keep[j2]] = keep[p2]
    return parents


def decode_graph(gen, edge_probs, label_probs, edge_labels, gid, text,
                 records=None, sense_table=None):
    """Arborescence over generated positions from (n, n) edge
    probabilities, labels by per-edge argmax of the (n, n, classes) label
    probabilities, then copy merging, sense restoration and entity
    expansion."""
    n = len(gen.labels)
    if n == 0:
        node = G.MrpNode(0, label=UNK_LABEL)
        return G.MrpGraph(id=gid, flavor=2, framework="amr", input=text,
                          tops=(0,), nodes=(node,), edges=()), ("empty",)
    parents = chu_liu_edmonds(np.log(np.clip(edge_probs, 1e-9, None)), root=0)
    chosen = [None] * n
    for j, p in enumerate(parents):
        if p >= 0:
            chosen[j] = edge_labels[int(np.argmax(label_probs[p, j]))]
    return assemble_graph(list(gen.labels), list(gen.copy_of), parents, chosen,
                          gid, text, records=records, sense_table=sense_table)


# ---------------------------------------------------------------------------
# synthetic gold DAGs (harness + corpus)

def sample_dag(rng, gid="a0", n_nodes=None):
    """Random single-top acyclic graph with AMR-flavored labels."""
    pool = ["want-01", "believe-01", "dog", "cat", "boy", "girl", "run-02",
            "see-01", "house", "big", "city", "visit-01"]
    roles = ["ARG0", "ARG1", "ARG2", "mod", "time", "location"]
    n = int(rng.integers(2, 9)) if n_nodes is None else n_nodes
    labels = [str(rng.choice(pool)) for _ in range(n)]
    edges = []
    for j in range(1, n):
        p = int(rng.integers(0, j))
        edges.append(G.MrpEdge(p, j, str(rng.choice(roles))))
    pairs = {(e.source, e.target) for e in edges}
    for _ in range(int(rng.integers(0, 3))):
        if n < 3 or rng.random() > 0.4:  # the reentrancy rate
            continue
        j = int(rng.integers(1, n))
        i = int(rng.integers(0, j))
        if (i, j) not in pairs:
            pairs.add((i, j))
            edges.append(G.MrpEdge(i, j, str(rng.choice(roles))))
    nodes = tuple(G.MrpNode(k, label=labels[k]) for k in range(n))
    return G.MrpGraph(id=gid, flavor=2, framework="amr",
                      input=" ".join(labels), tops=(0,),
                      nodes=nodes, edges=tuple(edges))
