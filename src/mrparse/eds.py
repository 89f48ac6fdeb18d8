"""EDS graphs reconstructed from bilexical DM output.

Three stages: every DM node becomes an EDS surface node through an
ordered rewrite table; abstract nodes are added by implication rules
and by logistic-regression detectors over node sites; a small
pointer-style network then assigns each abstract node a token span,
realized as character anchors.
"""

import json
import string
import warnings
import zlib
from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from . import graphs as G
from .atomic import atomic_open
from .encoder import BiLstm, Mlp

UNK_FEATURE = "<UNK>"
N_BUCKETS = 256  # hashed feature buckets of a freshly fitted detector
DETECTION_THRESHOLD = 0.5  # a detector fires above this probability
ABSTRACT_EPOCHS = 60  # full-batch Adam steps fitting the detector and labelers
ABSTRACT_LR = 0.1


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
    direction: str = "abstract_to_node"  # one of DIRECTIONS


# which way an implied abstract node's edge points
DIRECTIONS = ("abstract_to_node", "node_to_abstract")

# Switches every saved rule set carries.  The detector runs on node
# sites only, so a rule file may set them to these values alone.
FIXED_KEYS = {"detect_on_nodes": True, "detect_on_edges": False}


def _objects(doc, key):
    """``doc[key]``, which must be a list of JSON objects; [] when absent."""
    items = doc.get(key, [])
    if not isinstance(items, list) or not all(isinstance(i, dict) for i in items):
        raise ValueError(f"rule key {key!r} must be a list of objects")
    return items


def _text(obj, key, what):
    """``obj[key]``, which must be present and a string."""
    if key not in obj:
        raise ValueError(f"{what} has no {key!r}")
    if not isinstance(obj[key], str):
        raise ValueError(f"{what} {key} {obj[key]!r} is not a string")
    return obj[key]


class ConversionRuleSet:
    def __init__(self, surface_rules, edge_map, implications):
        self.surface_rules = list(surface_rules)
        self.edge_map = dict(edge_map)
        self.implications = list(implications)

    @classmethod
    def from_dict(cls, doc):
        if not isinstance(doc, dict):
            raise ValueError(f"a rule set is a JSON object, not {type(doc).__name__}")
        for key, value in FIXED_KEYS.items():
            if doc.get(key, value) is not value:
                raise ValueError(f"rule key {key!r} must be "
                                 f"{json.dumps(value)}, not {json.dumps(doc[key])}")
        fields = ("label", "frame_type", "pos")  # match keys and placeholders
        rules = []
        for r in _objects(doc, "surface"):
            match = r.get("match", {})
            if not isinstance(match, dict):
                raise ValueError(f"surface rule match {match!r} is not an object")
            for key, value in match.items():
                if key not in fields:
                    raise ValueError(f"surface rule match key {key!r} is not one of "
                                     f"{', '.join(fields)}")
                if not isinstance(value, str):
                    raise ValueError(f"surface rule match {key} {value!r} is not a string")
            template = _text(r, "template", "surface rule")
            for _, name, _, _ in string.Formatter().parse(template):
                if name is not None and name not in fields:
                    raise ValueError(f"surface rule template {template!r} has placeholder "
                                     f"{{{name}}}, not one of {', '.join(fields)}")
            rules.append(SurfaceRule(tuple(sorted(match.items())), template))
        implications = []
        for i in _objects(doc, "implications"):
            direction = i.get("direction", "abstract_to_node")
            if direction not in DIRECTIONS:
                raise ValueError(f"implication direction {direction!r} is not "
                                 f"one of {', '.join(DIRECTIONS)}")
            implications.append(Implication(
                *(_text(i, k, "implication") for k in ("if_label", "add_label", "edge")),
                direction))
        edge_map = doc.get("edge_map", {})
        if not (isinstance(edge_map, dict)
                and all(isinstance(v, str) for v in edge_map.values())):
            raise ValueError("rule key 'edge_map' must be an object of edge labels")
        return cls(rules, edge_map, implications)

    @classmethod
    def load(cls, path):
        with open(path, encoding="utf-8") as fh:
            doc = json.load(fh)
        try:
            return cls.from_dict(doc)
        except ValueError as err:
            raise ValueError(f"{path}: {err}") from None

    def to_dict(self):
        return {
            "surface": [{"match": dict(r.match), "template": r.template}
                        for r in self.surface_rules],
            "edge_map": self.edge_map,
            "implications": [{"if_label": i.if_label, "add_label": i.add_label,
                              "edge": i.edge, "direction": i.direction}
                             for i in self.implications],
            **FIXED_KEYS,
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

    def logits(self, rows):
        """(sites, n_classes) scores of the (sites, n_buckets) hashed
        site rows, one product for all of them."""
        return ad.add(ad.matmul(rows, self.w), self.b)


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


@dataclass
class AbstractModels:
    detector: LogRegModel        # binary: does this site carry an abstract node
    node_labeler: LogRegModel    # multi-class: abstract node label
    edge_labeler: LogRegModel    # multi-class: connecting edge label


def generate_abstract_nodes(surface, rules, models=None):
    """Add rule-implied and detector-fired abstract nodes (unanchored).

    Each surface node's site is hashed once into one (sites, n_buckets)
    matrix; the detector scores every row in one product and each
    labeler the rows it fired on in one more.  The detector fires where
    its probability exceeds ``DETECTION_THRESHOLD``.  Implied nodes come
    first, then fired ones in surface order.  With ``models`` None the
    result is a pure function of the surface graph.
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

    if models is not None and surface.nodes:
        x = np.stack([hash_features(node_site_features(surface, n), models.detector.n_buckets)
                      for n in surface.nodes])
        p = ad.sigmoid(models.detector.logits(x)).data[:, 0]
        fired = np.flatnonzero(p > DETECTION_THRESHOLD)
        if fired.size:
            node_best = np.argmax(models.node_labeler.logits(x[fired]).data, axis=1)
            edge_best = np.argmax(models.edge_labeler.logits(x[fired]).data, axis=1)
            for k, nb, eb in zip(fired, node_best, edge_best):
                attach(surface.nodes[k].id, models.node_labeler.classes[nb],
                       models.edge_labeler.classes[eb], "abstract_to_node")

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


def train_abstract_models(models, all_examples):
    """Fit built detector + labelers in place on pooled site examples
    with the shared Adam, which sees only their six tensors.

    Every site is hashed once into one (sites, n_buckets) design matrix.
    Each epoch is then one small graph: the detector's summed BCE over
    all rows plus, when any site fired, each labeler's summed
    cross-entropy over the fired rows.  Without a fired site the
    labelers get no term, so their gradients stay None and Adam leaves
    them as built.  Without any site nothing is fitted and a warning
    says so.
    """
    if not all_examples:
        warnings.warn("eds: no detector site in the training data; the "
                      "abstract-node detectors stay untrained")
        return
    det, nlab, elab = models.detector, models.node_labeler, models.edge_labeler
    x = np.stack([hash_features(feats, det.n_buckets) for feats, _, _, _ in all_examples])
    fired = [k for k, (_, f, _, _) in enumerate(all_examples) if f]
    targets = np.array([[float(f)] for _, f, _, _ in all_examples])
    x_all, x_fired = ad.Tensor(x), ad.Tensor(x[fired])
    node_idx = [nlab.classes.index(all_examples[k][2]) for k in fired]
    edge_idx = [elab.classes.index(all_examples[k][3]) for k in fired]

    opt = ad.Adam([t for m in (det, nlab, elab) for t in (m.w, m.b)], lr=ABSTRACT_LR)
    for _ in range(ABSTRACT_EPOCHS):
        opt.zero_grad()
        total = ad.binary_cross_entropy(ad.sigmoid(det.logits(x_all)), targets)
        if fired:
            total = ad.add(total, ad.cross_entropy_logits(nlab.logits(x_fired), node_idx))
            total = ad.add(total, ad.cross_entropy_logits(elab.logits(x_fired), edge_idx))
        total.backward()
        opt.step()
    opt.release()


# ---------------------------------------------------------------------------
# anchor span prediction

def descendant_token_sets(graph, node_ids, token_of_node):
    """Per node of ``node_ids``, the token indices of its anchored
    descendants reached via outgoing edges; the graph's children map is
    built once for all of them."""
    children = {}
    for e in graph.edges:
        children.setdefault(e.source, []).append(e.target)
    sets = []
    for node_id in node_ids:
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
        sets.append(tokens)
    return sets


class AnchorNet:
    """Span pointer for abstract nodes.

    Per token j the input feature is the abstract node's label when j
    belongs to the node's descendant set, <UNK> otherwise; a biLSTM
    contextualizes the features and two MLP-backed dot products score
    the from/to endpoints over tokens.  The k abstract nodes of a
    sentence run as one (k, L) batch: one embedding gather, one biLSTM
    run over k sequences of the sentence's L tokens, which need no
    padding, and each token MLP once.
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

    def endpoint_logits(self, labels, token_sets, token_states):
        """(from_logits, to_logits), each (k, L) over the L tokens, for
        the k nodes of ``labels`` and their ``token_sets``.  A batch of
        one runs the same rows and ops as a node alone, its products
        broadcast over a leading axis of 1."""
        n_tokens = token_states.shape[0]
        ids = []
        for label, tset in zip(labels, token_sets):
            lid = self._label_id(label)
            ids.append([lid if j in tset else 0 for j in range(n_tokens)])
        h = self.lstm.run(ad.rows(self.emb, ids)).top      # (k, L, 2*hidden)
        from_scores = ad.reduce_sum(ad.mul(h, self.mlp_from(token_states)), axis=-1)
        to_scores = ad.reduce_sum(ad.mul(h, self.mlp_to(token_states)), axis=-1)
        return from_scores, to_scores

    def predict_span(self, labels, token_sets, token_states):
        """One (from_token, to_token, swapped_flag) per node, via the two
        argmaxes of its row of :meth:`endpoint_logits`."""
        if not labels:
            return []
        f, t = self.endpoint_logits(labels, token_sets, token_states)
        spans = []
        for i, j in zip(np.argmax(f.data, axis=1).tolist(), np.argmax(t.data, axis=1).tolist()):
            spans.append((j, i, True) if i > j else (i, j, False))
        return spans


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
        hits = G.covered_tokens(n, tokens)
        if len(hits) == 1:
            mapping[n.id] = hits[0]
    return mapping


def convert(dm_graph, tokens, rules, models=None, anchor_net=None,
            token_states=None):
    """Full DM -> EDS pipeline; returns (graph, diagnostics).

    The learned parts run once per sentence: the detector and labelers
    over all surface sites (:func:`generate_abstract_nodes`), then, with
    ``anchor_net`` and ``token_states``, one :meth:`AnchorNet.predict_span`
    over all unanchored nodes.
    """
    surface = dm_to_eds_surface(dm_graph, rules)
    full = generate_abstract_nodes(surface, rules, models=models)
    diagnostics = {"swapped": 0}
    if anchor_net is not None and token_states is not None:
        token_of_node = token_of_anchored_node(full, tokens)
        open_nodes = [n for n in full.nodes if not n.anchors]
        tsets = descendant_token_sets(full, [n.id for n in open_nodes], token_of_node)
        spans = anchor_net.predict_span([n.label for n in open_nodes], tsets, token_states)
        full, diagnostics = attach_anchor_spans(
            full, {n.id: span for n, span in zip(open_nodes, spans)}, tokens)
    return full, diagnostics
