"""EDS graphs reconstructed from bilexical DM output.

Three stages: every DM node becomes an EDS surface node through an
ordered rewrite table; abstract nodes are added by implication rules
and by logistic-regression detectors over node/edge sites; a small
pointer-style network then assigns each abstract node a token span,
realized as character anchors.
"""

import json
import zlib
from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from . import graphs as G
from .atomic import atomic_open
from .encoder import BiLstm, Mlp

UNK_FEATURE = "<UNK>"
N_BUCKETS = 256  # hashed feature buckets of a freshly fitted detector


# ---------------------------------------------------------------------------
# rule table

@dataclass(frozen=True)
class SurfaceRule:
    """First matching rule rewrites a DM node label via its template.

    ``match`` keys: label, frame_type, pos (all optional, exact match).
    Template placeholders: {label}, {pos}, {frame_type}.
    """
    match: tuple
    template: str

    def matches(self, label, frame_type, pos):
        ctx = {"label": label, "frame_type": frame_type, "pos": pos}
        return all(ctx.get(k) == v for k, v in self.match)

    def apply(self, label, frame_type, pos):
        return self.template.format(label=label, frame_type=frame_type or "",
                                    pos=pos or "")


@dataclass(frozen=True)
class Implication:
    """A label that always brings a companion abstract node with it."""
    if_label: str
    add_label: str
    edge: str
    direction: str = "abstract_to_node"  # or node_to_abstract


class ConversionRuleSet:
    def __init__(self, surface_rules, edge_map, implications,
                 detect_on_nodes=True, detect_on_edges=False):
        self.surface_rules = list(surface_rules)
        self.edge_map = dict(edge_map)
        self.implications = list(implications)
        self.detect_on_nodes = detect_on_nodes
        self.detect_on_edges = detect_on_edges

    @classmethod
    def from_dict(cls, doc):
        rules = [SurfaceRule(tuple(sorted(r.get("match", {}).items())), r["template"])
                 for r in doc.get("surface", [])]
        implications = [Implication(i["if_label"], i["add_label"], i["edge"],
                                    i.get("direction", "abstract_to_node"))
                        for i in doc.get("implications", [])]
        return cls(rules, doc.get("edge_map", {}), implications,
                   detect_on_nodes=doc.get("detect_on_nodes", True),
                   detect_on_edges=doc.get("detect_on_edges", False))

    @classmethod
    def load(cls, path):
        with open(path, encoding="utf-8") as fh:
            return cls.from_dict(json.load(fh))

    def to_dict(self):
        return {
            "surface": [{"match": dict(r.match), "template": r.template}
                        for r in self.surface_rules],
            "edge_map": self.edge_map,
            "implications": [{"if_label": i.if_label, "add_label": i.add_label,
                              "edge": i.edge, "direction": i.direction}
                             for i in self.implications],
            "detect_on_nodes": self.detect_on_nodes,
            "detect_on_edges": self.detect_on_edges,
        }

    def save(self, path):
        with atomic_open(path) as fh:
            json.dump(self.to_dict(), fh, indent=2, sort_keys=True)

    def surface_label(self, label, frame_type, pos):
        for rule in self.surface_rules:
            if rule.matches(label, frame_type, pos):
                return rule.apply(label, frame_type, pos)
        return label

    def map_edge(self, label):
        return self.edge_map.get(label, label)


def dm_to_eds_surface(dm, rules):
    """Step one: node-per-node rewrite; ids, anchors and tops carried over."""
    nodes = []
    for n in dm.nodes:
        props = n.property_map()
        frame_type = props.get("frame", "").split(":", 1)[0] if "frame" in props else None
        label = rules.surface_label(n.label, frame_type, props.get("pos"))
        nodes.append(G.MrpNode(n.id, label=label, anchors=n.anchors))
    edges = tuple(G.MrpEdge(e.source, e.target, rules.map_edge(e.label)) for e in dm.edges)
    return G.MrpGraph(id=dm.id, flavor=1, framework="eds", input=dm.input,
                      tops=dm.tops, nodes=tuple(nodes), edges=edges)


# ---------------------------------------------------------------------------
# logistic regression over hashed string features

def hash_features(feats, n_buckets):
    """Stable multi-hot encoding; independent of process hash seed."""
    x = np.zeros(n_buckets)
    for f in feats:
        x[zlib.crc32(f.encode("utf-8")) % n_buckets] = 1.0
    return x


class LogRegModel:
    """Linear model over hashed features; binary when n_classes == 1."""

    def __init__(self, params, name, n_classes, n_buckets, rng):
        self.n_buckets = n_buckets
        self.classes = None  # set for labelers via attach_classes
        self.w = params.new(f"{name}.w", (n_buckets, n_classes), rng, scale=0.01)
        self.b = params.new_from(f"{name}.b", np.zeros(n_classes))

    def attach_classes(self, classes):
        self.classes = list(classes)
        return self

    def logits(self, feats):
        x = ad.Tensor(hash_features(feats, self.n_buckets).reshape(1, -1))
        return ad.add(ad.matmul(x, self.w), self.b)

    def probability(self, feats):
        """Binary-model probability of the positive class."""
        return float(ad.sigmoid(self.logits(feats)).data[0, 0])

    def best_class(self, feats):
        return self.classes[int(np.argmax(self.logits(feats).data[0]))]


def node_site_features(graph, node):
    """Documented template: label, POS, frame, incident edge labels."""
    props = node.property_map() if node.properties else {}
    feats = [f"label={node.label}"]
    if "pos" in props:
        feats.append(f"pos={props['pos']}")
    if "frame" in props:
        feats.append(f"frame={props['frame']}")
    for e in graph.edges:
        if e.source == node.id:
            feats.append(f"out={e.label}")
        if e.target == node.id:
            feats.append(f"in={e.label}")
    return feats


def edge_site_features(graph, edge):
    by_id = graph.node_by_id()
    return [f"edge={edge.label}",
            f"src={by_id[edge.source].label}",
            f"tgt={by_id[edge.target].label}"]


@dataclass
class AbstractModels:
    detector: LogRegModel        # binary: does this site carry an abstract node
    node_labeler: LogRegModel    # multi-class: abstract node label
    edge_labeler: LogRegModel    # multi-class: connecting edge label


def generate_abstract_nodes(surface, rules, models=None, threshold=0.5):
    """Add rule-implied and detector-fired abstract nodes (unanchored).

    With ``models`` None or an extreme threshold the result is a pure
    function of the surface graph.
    """
    nodes = list(surface.nodes)
    edges = list(surface.edges)
    next_id = max((n.id for n in nodes), default=-1) + 1

    def attach(site_id, label, edge_label, direction):
        nonlocal next_id
        abstract = G.MrpNode(next_id, label=label)
        nodes.append(abstract)
        if direction == "abstract_to_node":
            edges.append(G.MrpEdge(abstract.id, site_id, edge_label))
        else:
            edges.append(G.MrpEdge(site_id, abstract.id, edge_label))
        next_id += 1

    for imp in rules.implications:
        for n in surface.nodes:
            if n.label == imp.if_label:
                attach(n.id, imp.add_label, imp.edge, imp.direction)

    if models is not None:
        if rules.detect_on_nodes:
            for n in surface.nodes:
                feats = node_site_features(surface, n)
                if models.detector.probability(feats) > threshold:
                    attach(n.id, models.node_labeler.best_class(feats),
                           models.edge_labeler.best_class(feats), "abstract_to_node")
        if rules.detect_on_edges:
            for e in surface.edges:
                feats = edge_site_features(surface, e)
                if models.detector.probability(feats) > threshold:
                    attach(e.target, models.node_labeler.best_class(feats),
                           models.edge_labeler.best_class(feats), "abstract_to_node")

    return G.MrpGraph(id=surface.id, flavor=1, framework="eds", input=surface.input,
                      tops=surface.tops, nodes=tuple(nodes), edges=tuple(edges))


# ---------------------------------------------------------------------------
# gold alignment for detector training

def split_surface_abstract(gold_eds, surface_of_dm):
    """Partition gold EDS nodes by whether a surface node shares their anchors."""
    surface_keys = {tuple(n.anchors): n for n in surface_of_dm.nodes}
    surface_ids, abstract_ids = [], []
    for n in gold_eds.nodes:
        hit = surface_keys.get(tuple(n.anchors))
        if hit is not None and hit.label == n.label:
            surface_ids.append(n.id)
        else:
            abstract_ids.append(n.id)
    return surface_ids, abstract_ids


def abstract_training_examples(gold_eds, surface_of_dm, rules):
    """(features, fired, node label, edge label) per node site.

    Implication-generated labels are excluded: the detectors only learn
    what the rules cannot produce.
    """
    surface_ids, abstract_ids = split_surface_abstract(gold_eds, surface_of_dm)
    implied = {imp.add_label for imp in rules.implications}
    gold_by_id = gold_eds.node_by_id()

    # abstract node -> the surface site it hangs off (first incident edge)
    site_of = {}
    edge_label_of = {}
    for a in abstract_ids:
        if gold_by_id[a].label in implied:
            continue
        for e in gold_eds.edges:
            if e.source == a and e.target in surface_ids:
                site_of[a] = e.target
                edge_label_of[a] = e.label
                break
            if e.target == a and e.source in surface_ids:
                site_of[a] = e.source
                edge_label_of[a] = e.label
                break

    # gold anchors equal surface anchors, so sites key 1:1 to surface nodes
    surface_by_anchor = {tuple(n.anchors): n for n in surface_of_dm.nodes}
    fired_at = {}
    for a, site in site_of.items():
        anchor_key = tuple(gold_by_id[site].anchors)
        fired_at[surface_by_anchor[anchor_key].id] = a

    examples = []
    for n in surface_of_dm.nodes:
        feats = node_site_features(surface_of_dm, n)
        if n.id in fired_at:
            a = fired_at[n.id]
            examples.append((feats, 1, gold_by_id[a].label, edge_label_of[a]))
        else:
            examples.append((feats, 0, None, None))
    return examples


def build_abstract_models(params, n_buckets, node_classes, edge_classes, rng):
    """Detector and labelers as the ``det``, ``nlab`` and ``elab``
    parameters of ``params``; an empty class list becomes ``[<UNK>]``."""
    node_classes = list(node_classes) or [UNK_FEATURE]
    edge_classes = list(edge_classes) or [UNK_FEATURE]
    return AbstractModels(
        detector=LogRegModel(params, "det", 1, n_buckets, rng),
        node_labeler=LogRegModel(params, "nlab", len(node_classes), n_buckets,
                                 rng).attach_classes(node_classes),
        edge_labeler=LogRegModel(params, "elab", len(edge_classes), n_buckets,
                                 rng).attach_classes(edge_classes),
    )


def abstract_shape(all_examples):
    """Keyword arguments of :func:`build_abstract_models` for the labels
    that fire in pooled site examples."""
    return {"n_buckets": N_BUCKETS,
            "node_classes": sorted({lab for _, fired, lab, _ in all_examples if fired}),
            "edge_classes": sorted({el for _, fired, _, el in all_examples if fired})}


def train_abstract_models(models, all_examples, epochs=60, lr=0.1):
    """Fit built detector + labelers in place on pooled site examples
    with the shared Adam, which sees only their six tensors."""
    opt = ad.Adam([t for m in (models.detector, models.node_labeler, models.edge_labeler)
                   for t in (m.w, m.b)], lr=lr)
    for _ in range(epochs):
        opt.zero_grad()
        losses = []
        for feats, fired, nlab, elab in all_examples:
            p = ad.sigmoid(models.detector.logits(feats))
            losses.append(ad.binary_cross_entropy(p, np.array([[float(fired)]])))
            if fired:
                losses.append(ad.cross_entropy_logits(
                    models.node_labeler.logits(feats),
                    [models.node_labeler.classes.index(nlab)]))
                losses.append(ad.cross_entropy_logits(
                    models.edge_labeler.logits(feats),
                    [models.edge_labeler.classes.index(elab)]))
        total = losses[0]
        for l in losses[1:]:
            total = ad.add(total, l)
        total.backward()
        opt.step()


# ---------------------------------------------------------------------------
# anchor span prediction

def descendant_token_set(graph, node_id, token_of_node):
    """Token indices of anchored descendants reached via outgoing edges."""
    children = {}
    for e in graph.edges:
        children.setdefault(e.source, []).append(e.target)
    seen = set()
    stack = [node_id]
    tokens = set()
    while stack:
        cur = stack.pop()
        if cur in seen:
            continue
        seen.add(cur)
        if cur in token_of_node:
            tokens.add(token_of_node[cur])
        stack.extend(children.get(cur, []))
    return tokens


class AnchorNet:
    """Span pointer for abstract nodes.

    Per token j the input feature is the abstract node's label when j
    belongs to the node's descendant set, <UNK> otherwise; a biLSTM
    contextualizes the features and two MLP-backed dot products score
    the from/to endpoints over tokens.
    """

    def __init__(self, params, name, label_inventory, encoder_width, rng,
                 emb_dim=32, hidden=32):
        self.labels = [UNK_FEATURE] + [l for l in label_inventory if l != UNK_FEATURE]
        self.emb = params.new(f"{name}.emb", (len(self.labels), emb_dim), rng)
        self.lstm = BiLstm(params, f"{name}.lstm", emb_dim, hidden, 1, rng)
        self.mlp_from = Mlp(params, f"{name}.from", encoder_width, 2 * hidden, rng)
        self.mlp_to = Mlp(params, f"{name}.to", encoder_width, 2 * hidden, rng)

    def _label_id(self, label):
        return self.labels.index(label) if label in self.labels else 0

    def endpoint_logits(self, label, token_set, token_states):
        """(from_logits, to_logits), each (1, L) over tokens."""
        n_tokens = token_states.shape[0]
        ids = [self._label_id(label) if j in token_set else 0 for j in range(n_tokens)]
        feats = ad.rows(self.emb, ids)
        h = self.lstm.run(feats).top                       # (L, 2*hidden)
        from_scores = ad.reduce_sum(ad.mul(h, self.mlp_from(token_states)), axis=1)
        to_scores = ad.reduce_sum(ad.mul(h, self.mlp_to(token_states)), axis=1)
        return ad.reshape(from_scores, (1, n_tokens)), ad.reshape(to_scores, (1, n_tokens))

    def predict_span(self, label, token_set, token_states):
        """(from_token, to_token, swapped_flag) via the two argmaxes."""
        f, t = self.endpoint_logits(label, token_set, token_states)
        i = int(np.argmax(f.data[0]))
        j = int(np.argmax(t.data[0]))
        if i > j:
            return j, i, True
        return i, j, False


def anchor_loss(logit_pairs, gold_spans):
    """Sum of from/to cross-entropies over abstract nodes.

    ``logit_pairs``: [(from_logits, to_logits)], ``gold_spans``: [(i, j)].
    """
    total = ad.Tensor(0.0)
    for (f, t), (i, j) in zip(logit_pairs, gold_spans):
        total = ad.add(total, ad.cross_entropy_logits(f, [i]))
        total = ad.add(total, ad.cross_entropy_logits(t, [j]))
    return total


def attach_anchor_spans(graph, spans, tokens):
    """Set character anchors for abstract nodes from token spans."""
    new_nodes = []
    diagnostics = {"swapped": 0}
    for n in graph.nodes:
        if n.id in spans:
            i, j, swapped = spans[n.id]
            if swapped:
                diagnostics["swapped"] += 1
            anchor = G.Anchor(tokens[i].anchor.start, tokens[j].anchor.end)
            new_nodes.append(G.replace(n, anchors=(anchor,)))
        else:
            new_nodes.append(n)
    return G.replace(graph, nodes=tuple(new_nodes)), diagnostics


def token_of_anchored_node(graph, tokens):
    """node id -> token index for nodes anchored to exactly one token."""
    mapping = {}
    for n in graph.nodes:
        if not n.anchors:
            continue
        hits = [t.index for t in tokens if any(a.overlaps(t.anchor) for a in n.anchors)]
        if len(hits) == 1:
            mapping[n.id] = hits[0]
    return mapping


def convert(dm_graph, tokens, rules, models=None, anchor_net=None,
            token_states=None, threshold=0.5):
    """Full DM -> EDS pipeline; returns (graph, diagnostics)."""
    surface = dm_to_eds_surface(dm_graph, rules)
    full = generate_abstract_nodes(surface, rules, models=models, threshold=threshold)
    diagnostics = {"swapped": 0}
    if anchor_net is not None and token_states is not None:
        token_of_node = token_of_anchored_node(full, tokens)
        spans = {}
        for n in full.nodes:
            if n.anchors:
                continue
            tset = descendant_token_set(full, n.id, token_of_node)
            i, j, swapped = anchor_net.predict_span(n.label, tset, token_states)
            spans[n.id] = (i, j, swapped)
        full, diagnostics = attach_anchor_spans(full, spans, tokens)
    return full, diagnostics
