"""Bilexical dependency heads (DM and PSD).

Edges come from the shared biaffine scorer; this module adds what is
specific to the two frameworks: the DM frame classifier (type plus
arguments two to five), its training loss, the frame lexicons and the
rules that pick a node's frame from them, and ``build_graph``, which
turns decoded positions into a full graph.  No code here compares
framework names: ``training.SdpTask`` picks the inventories, lexicon
rows and frame rule of each framework.
"""

from collections import Counter
from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from . import graphs as G
from .biaffine import decode_flavor0
from .encoder import Linear, Mlp

NONE_ARG = "<NONE>"
UNK_SYM = "<UNK>"

N_ARG_HEADS = 4  # arguments two to five; the first is implied by the type


def parse_frame(s):
    """Split a frame string `type:a1-a2-...` into (type, argument tuple)."""
    if ":" not in s:
        return s, ()
    head, args = s.split(":", 1)
    return head, tuple(a for a in args.split("-") if a)


def render_frame(ftype, args):
    return f"{ftype}:{'-'.join(args)}" if args else ftype


@dataclass(frozen=True)
class FrameEntry:
    lemma: str
    pos: str      # empty when the lexicon keys on lemma alone
    frame: str    # DM: frame type; PSD: frame identifier
    args: tuple   # DM: full argument tuple; PSD: required arguments
    freq: int


class FrameLexicon:
    """Frame inventory with corpus frequencies.

    Entries keep their order, which breaks ties deterministically; a
    bundle carries them as rows of its inventories (``lexicon_rows``).
    """

    def __init__(self, entries):
        self.entries = list(entries)
        self._by_lemma = {}
        self._by_lemma_pos = {}
        for e in self.entries:
            self._by_lemma.setdefault(e.lemma, []).append(e)
            self._by_lemma_pos.setdefault((e.lemma, e.pos), []).append(e)

    def by_lemma(self, lemma):
        return self._by_lemma.get(lemma, [])

    def by_lemma_pos(self, lemma, pos):
        return self._by_lemma_pos.get((lemma, pos), [])

    def first_arg_for_type(self, ftype):
        """Most frequent first argument observed with a frame type."""
        weights = {}
        for e in self.entries:
            if e.frame == ftype and e.args:
                weights[e.args[0]] = weights.get(e.args[0], 0) + e.freq
        if not weights:
            return None
        return max(sorted(weights), key=lambda a: weights[a])


@dataclass
class FramePrediction:
    """Per-node frame logits, one type head and four argument heads, as
    the loss reads them; a prediction keeps their softmaxes."""
    type_logits: ad.Tensor   # (P, n_types)
    arg_logits: list         # N_ARG_HEADS tensors (P, n_arg_classes)

    def type_probs(self):
        return ad.softmax_array(self.type_logits.data)

    def arg_probs(self, k):
        return ad.softmax_array(self.arg_logits[k].data)


class FrameClassifier:
    """A type head and N_ARG_HEADS argument heads over node states, each
    an MLP, dropout at rate ``drop`` and a linear layer over its classes.
    The five MLPs run as one :func:`autodiff.mlp`; their parameters keep
    their own names (``<name>.type.mlp.w``, ``<name>.arg2.out.b``, ...)."""

    def __init__(self, params, name, in_dim, types, arg_classes, rng,
                 hidden=600, drop=0.0):
        if NONE_ARG not in arg_classes:
            raise ValueError(f"argument inventory must contain {NONE_ARG}")
        self.types = list(types)
        self.arg_classes = list(arg_classes)
        self.hidden = hidden
        self.drop = drop
        self.mlps, self.outs = [], []
        for head, n_classes in ([("type", len(self.types))]
                                + [(f"arg{k + 2}", len(self.arg_classes))
                                   for k in range(N_ARG_HEADS)]):
            self.mlps.append(Mlp(params, f"{name}.{head}.mlp", in_dim, hidden, rng))
            self.outs.append(Linear(params, f"{name}.{head}.out", hidden, n_classes, rng))

    def predict(self, states, rng=None):
        """Dropout masks are drawn head by head, the type head first."""
        feats = ad.mlp(states, tuple(m.w for m in self.mlps), tuple(m.b for m in self.mlps),
                       self.drop, rng)
        logits = [out(f) for out, f in
                  zip(self.outs, ad.split(feats, [self.hidden] * len(self.outs), axis=1))]
        return FramePrediction(type_logits=logits[0], arg_logits=logits[1:])

    def frame_targets(self, frame):
        """(type index, four argument class indices) for a gold frame string."""
        ftype, args = parse_frame(frame)
        t = self.types.index(ftype) if ftype in self.types else self.types.index(UNK_SYM)
        arg_ids = []
        for k in range(N_ARG_HEADS):
            sym = args[k + 1] if len(args) > k + 1 else NONE_ARG
            if sym not in self.arg_classes:
                sym = NONE_ARG
            arg_ids.append(self.arg_classes.index(sym))
        return t, arg_ids


def frame_loss(pred, positions, gold_frames, classifier):
    """Summed CE of type and argument heads over the given node positions."""
    if not positions:
        return ad.Tensor(0.0)
    type_targets = []
    arg_targets = [[] for _ in range(N_ARG_HEADS)]
    for frame in gold_frames:
        t, arg_ids = classifier.frame_targets(frame)
        type_targets.append(t)
        for k in range(N_ARG_HEADS):
            arg_targets[k].append(arg_ids[k])
    total = ad.cross_entropy_logits(ad.rows(pred.type_logits, positions),
                                    np.array(type_targets))
    for k in range(N_ARG_HEADS):
        total = ad.add(total, ad.cross_entropy_logits(ad.rows(pred.arg_logits[k], positions),
                                                      np.array(arg_targets[k])))
    return total


# ---------------------------------------------------------------------------
# frame reconstruction

def joint_probability(type_probs, arg_probs_rows, ftype, args, types, arg_classes):
    """y_type * prod over argument heads, 0 when a symbol is unpredictable."""
    if ftype not in types:
        return 0.0
    p = type_probs[types.index(ftype)]
    for k in range(N_ARG_HEADS):
        sym = args[k + 1] if len(args) > k + 1 else NONE_ARG
        if sym not in arg_classes:
            return 0.0
        p *= arg_probs_rows[k][arg_classes.index(sym)]
    return p


def reconstruct_dm_frame(type_probs, arg_probs_rows, lemma, lexicon, types, arg_classes):
    """Highest empirically scaled likelihood among the lexicon candidates.

    score(candidate) = p_joint * freq / sum(candidate freqs); with no
    lexicon entry the unfiltered joint argmax is rendered instead.
    """
    candidates = lexicon.by_lemma(lemma) if lexicon is not None else []
    if not candidates:
        ftype = types[int(np.argmax(type_probs))]
        args = []
        first = lexicon.first_arg_for_type(ftype) if lexicon is not None else None
        if first is not None:
            args.append(first)
            for k in range(N_ARG_HEADS):
                sym = arg_classes[int(np.argmax(arg_probs_rows[k]))]
                if sym == NONE_ARG:
                    break
                args.append(sym)
        return render_frame(ftype, tuple(args))
    total_freq = sum(e.freq for e in candidates)
    best, best_score = None, -1.0
    for e in candidates:
        p = joint_probability(type_probs, arg_probs_rows, e.frame, e.args, types, arg_classes)
        score = p * (e.freq / total_freq if total_freq > 0 else 0.0)
        if score > best_score:
            best, best_score = e, score
    return render_frame(best.frame, best.args)


def strip_label_suffix(label):
    """PSD functor labels drop their role suffix: "ACT-arg" -> "ACT"."""
    return label.split("-", 1)[0]


def reconstruct_psd_frame(lemma, pos, outgoing_labels, lexicon):
    """Most frequent candidate whose required arguments are all present."""
    candidates = lexicon.by_lemma_pos(lemma, pos) if lexicon is not None else []
    if not candidates:
        return None
    present = {strip_label_suffix(l) for l in outgoing_labels}
    survivors = [e for e in candidates if set(e.args) <= present]
    pool = survivors if survivors else candidates
    best = pool[0]
    for e in pool[1:]:
        if e.freq > best.freq:
            best = e
    return best.frame


def assign_node_labels(token_indices, tokens):
    """Node label of each kept token: its lemma."""
    return {i: tokens[i].lemma for i in token_indices}


# ---------------------------------------------------------------------------
# gold extraction and graph building

def node_token_map(graph, tokens):
    """Flavor-0 node -> token index via anchor overlap; must be unique."""
    mapping = {}
    for node in graph.nodes:
        hits = G.covered_tokens(node, tokens)
        if len(hits) != 1:
            raise ValueError(f"{graph.id}: node {node.id} anchors to {len(hits)} tokens")
        mapping[node.id] = hits[0]
    return mapping


def gold_targets(graph, tokens, label_index):
    """Position-space supervision: edges (i, j, class), tops, frames.

    Positions are token index + 1 (0 is <ROOT>).
    """
    tok_of = node_token_map(graph, tokens)
    edges = [(tok_of[e.source] + 1, tok_of[e.target] + 1, label_index[e.label])
             for e in graph.edges]
    tops = [tok_of[t] + 1 for t in graph.tops]
    frames = {}
    for node in graph.nodes:
        props = node.property_map()
        if "frame" in props:
            frames[tok_of[node.id] + 1] = props["frame"]
    return edges, tops, frames


def dm_frame_rule(type_probs, arg_probs, types, arg_classes, lexicon, tokens):
    """``frame_of`` of a DM graph: the lexicon frame that the classifier's
    (P, types) type and N_ARG_HEADS (P, arg_classes) argument
    probabilities make most likely (``reconstruct_dm_frame``)."""
    return lambda i, _: reconstruct_dm_frame(
        type_probs[i + 1], [p[i + 1] for p in arg_probs], tokens[i].lemma,
        lexicon, types, arg_classes)


def psd_frame_rule(lexicon, tokens):
    """``frame_of`` of a PSD graph: the lexicon frame whose required
    arguments the node's outgoing labels hold (``reconstruct_psd_frame``)."""
    return lambda i, labels: reconstruct_psd_frame(tokens[i].lemma, tokens[i].xpos,
                                                   labels, lexicon)


def build_graph(framework, sid, tokens, text, edge_probs, label_probs, edge_labels,
                frame_of):
    """Decode edge and label probabilities (``decode_flavor0``) into a
    complete flavor-0 graph; a node's frame is ``frame_of(token index,
    outgoing labels)``, None for no frame."""
    decoded = decode_flavor0(edge_probs, label_probs, edge_labels)
    token_ids = [p - 1 for p in decoded.kept]
    labels = assign_node_labels(token_ids, tokens)

    node_id_of = {tok: idx for idx, tok in enumerate(token_ids)}
    out_edges_of = {}
    for i, j, lab in decoded.edges:
        out_edges_of.setdefault(i - 1, []).append(lab)

    nodes = []
    for tok_idx in token_ids:
        tok = tokens[tok_idx]
        props = [("pos", tok.xpos)]
        frame = frame_of(tok_idx, out_edges_of.get(tok_idx, []))
        if frame is not None:
            props.append(("frame", frame))
        nodes.append(G.MrpNode(node_id_of[tok_idx], label=labels[tok_idx],
                               properties=tuple(props), anchors=(tok.anchor,)))

    edges = tuple(G.MrpEdge(node_id_of[i - 1], node_id_of[j - 1], lab)
                  for i, j, lab in decoded.edges)
    tops = tuple(node_id_of[p - 1] for p in decoded.tops)
    return G.MrpGraph(id=sid, flavor=0, framework=framework, input=text,
                      tops=tops, nodes=tuple(nodes), edges=edges)


def collect_inventories(gold_graphs):
    """Label/type/argument inventories from training graphs, file order."""
    labels, types, arg_classes = {}, {UNK_SYM: None}, {NONE_ARG: None}
    for g in gold_graphs:
        labels.update(dict.fromkeys(e.label for e in g.edges))
        for n in g.nodes:
            props = n.property_map()
            if "frame" in props:
                ftype, args = parse_frame(props["frame"])
                types[ftype] = None
                arg_classes.update(dict.fromkeys(args))
    return list(labels), list(types), list(arg_classes)


def lexicon_rows(gold_graphs, split_frames):
    """Lexicon rows [lemma, pos, frame, argument list, frequency] of the
    framed nodes, first seen first.  With ``split_frames`` (DM) a row has
    no POS and splits the frame into type and arguments; without (PSD)
    its arguments are the node's outgoing labels, suffixes stripped."""
    counts = Counter()
    for g in gold_graphs:
        outgoing = {}
        for e in g.edges:
            outgoing.setdefault(e.source, set()).add(strip_label_suffix(e.label))
        for n in g.nodes:
            props = n.property_map()
            if "frame" not in props:
                continue
            key = ((n.label, "", *parse_frame(props["frame"])) if split_frames else
                   (n.label, props.get("pos", ""), props["frame"],
                    tuple(sorted(outgoing.get(n.id, ())))))
            if all(isinstance(v, str) for v in key[:3]):  # a row a bundle can carry
                counts[key] += 1
    return [[*key[:3], list(key[3]), freq] for key, freq in counts.items()]
