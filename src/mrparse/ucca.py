"""UCCA parsing as pointing plus biaffine edge prediction.

Non-terminal generation is a pointing problem: each non-terminal is
inserted immediately left of the starting token of its yield span, so a
graph serializes to a pointer sequence terminated by the <ROOT>
position.  Compound terminals are flattened with virtual CT edges from
the leftmost constituent token.  A pointer network with additive
attention emits the sequence; the interleaved states, positional
encodings and an extra biLSTM feed the shared biaffine scorers (primary
edges + labels, and an independent remote-edge scorer).
"""

from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from . import graphs as G
from .biaffine import decode_flavor0, threshold_pairs
from .encoder import LstmCell, Mlp, pad_index, run_ragged

CT_LABEL = "CT"
REMOTE_ATTR = "remote"
ATT_DIM = 64     # width of the pointer's attention keys
BULLET_DIM = 32  # width of the learned vector behind non-terminal slots
PE_DIM = 16      # positional-encoding width of the slot-state biLSTM input


def is_remote(edge):
    return bool(edge.attribute_map().get(REMOTE_ATTR, False))


# ---------------------------------------------------------------------------
# serialization

ROOT_SLOT = ("root",)


def build_slots(pointers, n_tokens):
    """Interleave non-terminal slots into the token sequence.

    Pointer k (1-based token position; 0 terminates) inserts slot
    ("nt", k) immediately left of the pointed token, after all earlier
    insertions, which puts outer nodes before inner ones at a shared
    position.
    """
    slots = [ROOT_SLOT] + [("tok", j) for j in range(n_tokens)]
    for k, p in enumerate(pointers):
        if p == 0:
            break
        if not 1 <= p <= n_tokens:
            raise ValueError(f"pointer {p} outside 1..{n_tokens}")
        slots.insert(slots.index(("tok", p - 1)), ("nt", k))
    return slots


@dataclass(frozen=True)
class UccaSerialization:
    pointers: tuple        # token positions, 1-based, trailing 0 terminator
    edges: tuple           # (parent slot, child slot, label) incl CT
    tops: tuple            # slot indices
    remotes: tuple         # (parent slot, child slot)


def serialize_ucca(g, tokens):
    """Gold graph -> pointer problem, or None when it cannot be aligned.

    Returns None for graphs with tokenization discrepancies, non-tree
    primary structure, or non-terminals without terminal descendants;
    such graphs are dropped from training.
    """
    align = G.align_ucca_tokens(g, tokens)
    if align is None:
        return None
    terminals = set(align)
    primary = [e for e in g.edges if not is_remote(e) and e.label != CT_LABEL]

    children = {}
    parents = {}
    for e in primary:
        children.setdefault(e.source, []).append(e.target)
        if e.target in parents:
            return None  # reentrant primary structure
        parents[e.target] = e.source

    nonterms = [n.id for n in g.nodes if n.id not in terminals]

    def yield_start(nid):
        best = None
        seen = set()
        stack = [nid]
        while stack:
            cur = stack.pop()
            if cur in seen:
                continue
            seen.add(cur)
            if cur in terminals:
                lo = align[cur][0]
                best = lo if best is None else min(best, lo)
            stack.extend(children.get(cur, ()))
        return best

    depth = {t: 0 for t in g.tops}
    frontier = list(g.tops)
    while frontier:
        nxt = []
        for nid in frontier:
            for ch in children.get(nid, ()):
                if ch not in depth:
                    depth[ch] = depth[nid] + 1
                    nxt.append(ch)
        frontier = nxt

    starts = {}
    for nid in nonterms:
        s = yield_start(nid)
        if s is None or nid not in depth:
            return None
        starts[nid] = s

    order = sorted(nonterms, key=lambda nid: (starts[nid], depth[nid]))
    pointers = tuple(starts[nid] + 1 for nid in order) + (0,)
    slots = build_slots(pointers, len(tokens))

    slot_of = {}
    for k, nid in enumerate(order):
        slot_of[nid] = slots.index(("nt", k))
    for nid, (lo, _) in align.items():
        slot_of[nid] = slots.index(("tok", lo))

    edges = [(slot_of[e.source], slot_of[e.target], e.label) for e in primary]
    for nid, (lo, hi) in align.items():
        head = slots.index(("tok", lo))
        for j in range(lo + 1, hi):
            edges.append((head, slots.index(("tok", j)), CT_LABEL))

    remotes = tuple((slot_of[e.source], slot_of[e.target])
                    for e in g.edges if is_remote(e))
    return UccaSerialization(
        pointers=pointers, edges=tuple(edges), tops=tuple(slot_of[t] for t in g.tops),
        remotes=remotes)


def deserialize_ucca(pointers, edges, tops, remotes, tokens, text, gid):
    """Pointer sequence + slot-level decisions -> flavor-1 graph.

    CT chains merge into one terminal anchored over the full span; slots
    with no primary incidence are dropped; node ids follow slot order.
    """
    slots = build_slots(pointers, len(tokens))

    head = {}
    for i, j, label in edges:
        if label == CT_LABEL and slots[i][0] == "tok" and slots[j][0] == "tok":
            if j not in head or i < head[j]:
                head[j] = i

    def resolve(s):
        seen = set()
        while s in head and s not in seen:
            seen.add(s)
            s = head[s]
        return s

    members = {}
    for j in head:
        members.setdefault(resolve(j), set()).add(j)

    primary = []
    for i, j, label in edges:
        if label == CT_LABEL:
            continue  # consumed by merging; CT never surfaces in output
        ri, rj = resolve(i), resolve(j)
        if ri != rj and (ri, rj, label) not in primary:
            primary.append((ri, rj, label))
    top_slots = sorted({resolve(t) for t in tops})

    incident = set(top_slots)
    for i, j, _ in primary:
        incident.update((i, j))
    kept = [s for s in range(1, len(slots))
            if s in incident and s not in head]

    ids = {s: k for k, s in enumerate(kept)}
    nodes = []
    for s in kept:
        kind = slots[s][0]
        if kind == "nt":
            nodes.append(G.MrpNode(ids[s]))
        else:
            toks = sorted({slots[m][1] for m in members.get(s, ())} | {slots[s][1]})
            anchor = G.Anchor(tokens[toks[0]].anchor.start, tokens[toks[-1]].anchor.end)
            nodes.append(G.MrpNode(ids[s], anchors=(anchor,)))

    out_edges = [G.MrpEdge(ids[i], ids[j], label)
                 for i, j, label in primary if i in ids and j in ids]
    seen_remote = set()
    for i, j in remotes:
        ri, rj = resolve(i), resolve(j)
        if ri in ids and rj in ids and ri != rj and (ri, rj) not in seen_remote:
            seen_remote.add((ri, rj))
            out_edges.append(G.MrpEdge(ids[ri], ids[rj], None,
                                       attributes=((REMOTE_ATTR, True),)))

    return G.MrpGraph(id=gid, flavor=1, framework="ucca", input=text,
                      tops=tuple(ids[s] for s in top_slots if s in ids),
                      nodes=tuple(nodes), edges=tuple(out_edges))


# ---------------------------------------------------------------------------
# pointer network

def sinusoidal_positions(n, dim):
    """The standard fixed position signal: sin/cos pairs over geometric
    wavelengths."""
    pos = np.arange(n)[:, None]
    idx = np.arange(dim)[None, :]
    angles = pos / np.power(10000.0, 2 * (idx // 2) / dim)
    enc = np.where(idx % 2 == 0, np.sin(angles), np.cos(angles))
    return enc


class UccaDecoder:
    """Autoregressive pointer over encoder positions.

    The LSTM state starts from the concatenated final states of the top
    ``use_layers`` encoder layers; additive attention scores every
    position including <ROOT>, whose selection terminates decoding.
    """

    def __init__(self, params, name, enc_hidden, use_layers, rng):
        self.use_layers = use_layers
        self.hidden = 2 * enc_hidden * use_layers
        self.cell = LstmCell(params, f"{name}.cell", 2 * enc_hidden,
                                   self.hidden, rng)
        self.w_dec = params.new(f"{name}.att.dec", (self.hidden, ATT_DIM), rng)
        self.w_enc = params.new(f"{name}.att.enc", (2 * enc_hidden, ATT_DIM), rng)
        self.v = params.new(f"{name}.att.v", (ATT_DIM, 1), rng)
        self.r = params.new(f"{name}.r", (1, BULLET_DIM), rng)
        self.bullet_mlp = Mlp(params, f"{name}.bullet", BULLET_DIM, 2 * enc_hidden, rng)

    def init_state(self, enc_out):
        """(h, c) from the final states of the top ``use_layers`` encoder
        layers, :meth:`encoder.EncoderOutput.finals`."""
        return ad.split(enc_out.finals(self.use_layers), [self.hidden] * 2, axis=1)

    def keys(self, states):
        """Projected attention keys of the encoder positions, (n, att)."""
        return ad.matmul(states, self.w_enc)

    def attend(self, h_dec, keys):
        """Scores (k, n) of the k decoder rows ``h_dec`` over the
        projected ``keys`` of :meth:`keys`."""
        return ad.additive_attention(h_dec, keys, self.w_dec, self.v)

    def bullet(self):
        return self.bullet_mlp(self.r)


@dataclass
class PointerDecode:
    pointers: tuple        # includes the 0 terminator unless truncated
    logits: ad.Tensor      # (steps, n_positions) attention scores
    truncated: bool = False


def pointer_decode(enc_out, decoder, gold_pointers=None):
    """Run the decoder; teacher-forced when gold_pointers is given.

    Under teacher forcing every input is known up front: the <ROOT>
    state, then the gold positions.  So the gold sequence runs as one
    :func:`autodiff.lstm_sequence` from the initial state and one (T, n)
    attention.  Its loss and gradients agree with a step-by-step run to
    about 1e-10 relative, not bit for bit.

    Free-running mode is :func:`pointer_decode_batch` of this one
    sentence.
    """
    if gold_pointers is None:
        return pointer_decode_batch([enc_out], decoder)[0]
    states = enc_out.top
    keys = decoder.keys(states)
    h, c = decoder.init_state(enc_out)
    fed = (0,) + tuple(gold_pointers[:-1])
    hs, _ = decoder.cell.sequence(ad.rows(states, fed), h0=h, c0=c)
    return PointerDecode(tuple(gold_pointers), decoder.attend(hs, keys))


def pointer_decode_batch(enc_outs, decoder):
    """Free-running decodes of a batch in lockstep, one PointerDecode per
    sentence.  Each step runs every live row, fed the state it last
    pointed at (<ROOT> first), in one :func:`autodiff.lstm_sequence` call
    and one attention over each row's keys, padded to the longest
    sentence and blocked there.  A row retires on <ROOT> or after twice
    as many steps as its sentence has tokens (at least one), which sets
    its truncated flag.  A batch of one attends to its (n, att) keys
    unpadded; in a larger one a row's scores are within 1e-12 of its
    lone decode's."""
    tops = [e.top for e in enc_outs]
    sizes = [t.shape[0] for t in tops]
    if len(tops) == 1:
        flat, keys, blocked, starts = tops[0], decoder.keys(tops[0]), None, [0]
        h, c = decoder.init_state(enc_outs[0])
    else:
        flat, pick = ad.concat(tops, axis=0), pad_index(sizes)
        keys = ad.rows(decoder.keys(flat), pick)  # (B, N, att)
        starts, blocked = pick[:, 0].tolist(), np.arange(max(sizes)) >= np.array(sizes)[:, None]
        h, c = ad.split(ad.concat([e.finals(decoder.use_layers) for e in enc_outs], axis=0),
                        [decoder.hidden] * 2, axis=1)
    live = list(range(len(tops)))  # the rows still decoding, in batch order
    fed = [0] * len(tops)          # each row's next input position
    pointers, scores = [[] for _ in tops], [[] for _ in tops]
    while live:
        x = ad.rows(flat, [[starts[i] + fed[i]] for i in live])  # (live, 1, D)
        h, c = decoder.cell.sequence(x, h0=h, c0=c)
        a = decoder.attend(h, keys).data
        best = (a if blocked is None else np.where(blocked, -np.inf, a)).argmax(axis=1)
        keep = []
        for j, i in enumerate(live):
            p = fed[i] = int(best[j])
            pointers[i].append(p)
            scores[i].append(a[j, :sizes[i]])
            if p != 0 and len(pointers[i]) < max(1, 2 * (sizes[i] - 1)):
                keep.append(j)
        if 0 < len(keep) < len(live):
            h, c, keys = (ad.rows(t, keep) for t in (h, c, keys))
            blocked = blocked[keep]
        live = [live[j] for j in keep]
    return [PointerDecode(tuple(p), ad.Tensor(np.array(s)), truncated=p[-1] != 0)
            for p, s in zip(pointers, scores)]


# ---------------------------------------------------------------------------
# node states

def build_node_states(enc_out, pointers, decoder, extra_lstm, rng=None):
    """The (slots, 2 * extra hidden) states of the serialization's slots:
    encoder rows for tokens and <ROOT>, the decoder's bullet for each
    nonterminal, with sinusoidal positions, through ``extra_lstm``."""
    return node_states_batch([enc_out], [pointers], decoder, extra_lstm, rng)[0]


def node_states_batch(enc_outs, pointer_seqs, decoder, extra_lstm, rng=None):
    """:func:`build_node_states` of each sentence of a batch.  One
    ``ad.rows`` gathers every slot row of the batch from its encoder
    rows and the bullet (when a slot reads it), laid one after another,
    and one ``extra_lstm`` run reads them padded to the longest
    (:func:`encoder.run_ragged`), each sentence within 1e-12 of its own;
    a batch of one unpadded."""
    tops = [e.top for e in enc_outs]
    starts = np.cumsum([0] + [t.shape[0] for t in tops]).tolist()  # the last: the bullet
    slots = [build_slots(p, t.shape[0] - 1) for t, p in zip(tops, pointer_seqs)]
    pick = [starts[-1] if slot[0] == "nt" else start + (slot[1] + 1 if slot[0] == "tok" else 0)
            for start, own in zip(starts, slots) for slot in own]
    sizes = [len(own) for own in slots]
    bullet = [decoder.bullet()] if starts[-1] in pick else []  # no gradient unless read
    pre = ad.rows(ad.stack_rows(tops + bullet), pick)
    pe = np.concatenate([sinusoidal_positions(n, PE_DIM) for n in sizes])
    return [out.top for out in run_ragged(extra_lstm, ad.concat([pre, ad.Tensor(pe)], axis=1),
                                          sizes, rng)]


# ---------------------------------------------------------------------------
# decoding and ensembling

@dataclass
class UccaPrediction:
    pointers: tuple
    edge_probs: np.ndarray    # (n_slots, n_slots)
    label_probs: np.ndarray   # (n_slots, n_slots, n_labels)
    remote_probs: np.ndarray  # (n_slots, n_slots)


def decode_graph(pred, labels, tokens, text, gid):
    """Threshold the matrices and rebuild the graph: primary edges and
    tops by :func:`biaffine.decode_flavor0`; the remote matrix
    independently by :func:`biaffine.threshold_pairs`, so it cannot add
    or remove primary structure."""
    primary = decode_flavor0(pred.edge_probs, pred.label_probs, labels)
    remotes = threshold_pairs(pred.remote_probs)
    return deserialize_ucca(pred.pointers, primary.edges, primary.tops, remotes,
                            tokens, text, gid)


def voting_ensemble(members):
    """Two-step combination: majority pointer sequence first (ties break
    toward the lexicographically smaller sequence), then the matrices of
    the winning members are averaged."""
    if not members:
        raise ValueError("voting_ensemble needs at least one member")
    counts = {}
    for m in members:
        counts[m.pointers] = counts.get(m.pointers, 0) + 1
    top_count = max(counts.values())
    best = min(p for p, c in counts.items() if c == top_count)
    chosen = [m for m in members if m.pointers == best]
    return UccaPrediction(
        pointers=best,
        edge_probs=np.mean([m.edge_probs for m in chosen], axis=0),
        label_probs=np.mean([m.label_probs for m in chosen], axis=0),
        remote_probs=np.mean([m.remote_probs for m in chosen], axis=0))


# ---------------------------------------------------------------------------
# synthetic gold graphs (round-trip harness + desk-scale corpora)

def sample_graph(rng, tokens, gid="u0", text=None):
    """Random gold-like UCCA tree over the given tokens.

    Terminals may merge adjacent tokens into compounds; every
    non-terminal dominates at least one terminal; the single top is a
    non-terminal covering the whole sentence.  Used by the round-trip
    harness and the synthetic corpus builder.
    """
    if text is None:
        text = " ".join(t.surface for t in tokens)
    edge_labels = ["A", "C", "D", "E", "H", "L", "P", "U"]

    spans = []
    i = 0
    while i < len(tokens):
        size = 1
        if len(tokens) - i >= 2 and rng.random() < 0.15:
            size = int(rng.integers(2, min(4, len(tokens) - i + 1)))
        spans.append((i, i + size))
        i += size

    nodes = []
    edges = []

    def new_node(**kw):
        nid = len(nodes)
        nodes.append(G.MrpNode(nid, **kw))
        return nid

    def grow(lo, hi, budget):
        # builds a subtree over spans[lo:hi], returns its root node id
        if hi - lo == 1 and (budget <= 0 or rng.random() < 0.5):
            a, b = spans[lo]
            return new_node(anchors=(G.Anchor(tokens[a].anchor.start,
                                              tokens[b - 1].anchor.end),))
        nid = new_node()
        n_children = int(rng.integers(1, min(4, hi - lo) + 1))
        cuts = sorted(rng.choice(np.arange(lo + 1, hi), size=n_children - 1,
                                 replace=False)) if n_children > 1 else []
        bounds = [lo] + [int(c) for c in cuts] + [hi]
        for a, b in zip(bounds[:-1], bounds[1:]):
            child = grow(a, b, budget - 1)
            edges.append(G.MrpEdge(nid, child, str(rng.choice(edge_labels))))
        return nid

    root = grow(0, len(spans), budget=3)
    if nodes[root].anchors:  # ensure a non-terminal top
        top = new_node()
        edges.append(G.MrpEdge(top, root, "H"))
        root = top

    nonterms = [n.id for n in nodes if not n.anchors]
    if len(nodes) > 1 and rng.random() < 0.3:  # the remote-edge rate
        src = int(rng.choice(nonterms))
        existing = {(e.source, e.target) for e in edges}
        candidates = [n.id for n in nodes
                      if n.id != src and (src, n.id) not in existing]
        if candidates:
            tgt = int(rng.choice(candidates))
            edges.append(G.MrpEdge(src, tgt, None, attributes=((REMOTE_ATTR, True),)))

    return G.MrpGraph(id=gid, flavor=1, framework="ucca", input=text,
                      tops=(root,), nodes=tuple(nodes), edges=tuple(edges))
