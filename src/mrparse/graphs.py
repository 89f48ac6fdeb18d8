"""Graph data model and interchange I/O.

Semantic graphs are held in a flavor-agnostic structure: nodes with
optional labels, properties and character anchors; edges with optional
labels and attributes; a graph-level top set.  Files are newline-
delimited JSON (one graph per line) with a fixed field order so that
writing is deterministic and read/write round-trips byte-identically.

Companion morphology (surface, lemma, upos, xpos, ne, anchor per token)
travels in a flat tab-separated file, one `#<id>` header per sentence.
"""

import json
from dataclasses import dataclass, field, replace  # noqa: F401  (replace is part of the API)

from .atomic import atomic_open


class FormatError(ValueError):
    """Malformed graph or companion input."""


@dataclass(frozen=True)
class Anchor:
    """Character range [start, end) into the source sentence."""
    start: int
    end: int

    def overlaps(self, other):
        return self.start < other.end and other.start < self.end


@dataclass(frozen=True)
class MrpNode:
    id: int
    label: str = None
    properties: tuple = ()  # ordered (name, value) pairs
    anchors: tuple = ()     # Anchor ranges

    def property_map(self):
        return dict(self.properties)


@dataclass(frozen=True)
class MrpEdge:
    source: int
    target: int
    label: str = None
    attributes: tuple = ()  # ordered (name, value) pairs, e.g. ("remote", True)

    def attribute_map(self):
        return dict(self.attributes)


@dataclass(frozen=True)
class MrpGraph:
    id: str
    flavor: int
    framework: str
    input: str
    tops: tuple = ()
    nodes: tuple = ()
    edges: tuple = ()

    def node_by_id(self):
        return {n.id: n for n in self.nodes}


@dataclass(frozen=True)
class TokenRow:
    index: int
    surface: str
    lemma: str
    upos: str
    xpos: str
    ne: str
    anchor: Anchor


@dataclass(frozen=True)
class Sentence:
    """One input sentence with its tokens and per-framework gold graphs."""
    id: str
    tokens: tuple
    graphs: dict = field(default_factory=dict)  # framework -> MrpGraph


FRAMEWORKS = ("dm", "psd", "eds", "ucca", "amr")
FLAVOR = {"dm": 0, "psd": 0, "eds": 1, "ucca": 1, "amr": 2}


# ---------------------------------------------------------------------------
# JSON-Lines reading/writing

def _anchor_from_json(obj):
    if not isinstance(obj, dict) or "from" not in obj or "to" not in obj:
        raise FormatError(f"anchor must be an object with from/to, got {obj!r}")
    return Anchor(_int(obj["from"], "anchor from"), _int(obj["to"], "anchor to"))


def _object(obj, what):
    if not isinstance(obj, dict):
        raise FormatError(f"{what} must be a JSON object, not {type(obj).__name__}")
    return obj


def _int(value, what):
    try:
        return int(value)
    except (TypeError, ValueError):
        raise FormatError(f"{what} must be an integer, got {value!r}") from None


def _string(obj, key, absent):
    """``obj[key]``, which must be a string or ``absent``; ``absent``
    when the key is missing."""
    value = obj.get(key, absent)
    if value is not absent and not isinstance(value, str):
        raise FormatError(f"{key} must be a JSON string, not {type(value).__name__}")
    return value


def _array(obj, key):
    value = obj.get(key, [])
    if not isinstance(value, list):
        raise FormatError(f"{key} must be a JSON array, not {type(value).__name__}")
    return value


def _pairs_from_json(obj, names_key, values_key):
    names, values = _array(obj, names_key), _array(obj, values_key)
    if len(names) != len(values):
        raise FormatError(f"{names_key}/{values_key} length mismatch")
    if any(isinstance(v, (list, dict)) for v in names + values):
        raise FormatError(f"{names_key}/{values_key} must hold scalars")
    return tuple(zip(names, values))


def _node_from_json(obj):
    obj = _object(obj, "node")
    return MrpNode(
        id=_int(obj["id"], "node id"),
        label=_string(obj, "label", None),
        properties=_pairs_from_json(obj, "properties", "values"),
        anchors=tuple(_anchor_from_json(a) for a in _array(obj, "anchors")),
    )


def _edge_from_json(obj):
    obj = _object(obj, "edge")
    return MrpEdge(
        source=_int(obj["source"], "edge source"),
        target=_int(obj["target"], "edge target"),
        label=_string(obj, "label", None),
        attributes=_pairs_from_json(obj, "attributes", "values"),
    )


def graph_from_json(obj):
    obj = _object(obj, "graph")
    try:
        g = MrpGraph(
            id=str(obj["id"]),
            flavor=_int(obj.get("flavor", 0), "flavor"),
            framework=obj["framework"],
            input=_string(obj, "input", ""),
            tops=tuple(_int(t, "top") for t in _array(obj, "tops")),
            nodes=tuple(_node_from_json(n) for n in _array(obj, "nodes")),
            edges=tuple(_edge_from_json(e) for e in _array(obj, "edges")),
        )
    except KeyError as e:
        raise FormatError(f"graph object missing key {e}") from None
    return g


def read_mrp(stream):
    """Parse newline-delimited JSON graphs from ``stream`` (text lines).

    Raises :class:`FormatError` with a line number on malformed JSON and
    on graphs violating structural invariants.
    """
    graphs = []
    for lineno, line in enumerate(stream, start=1):
        line = line.strip()
        if not line:
            continue
        try:
            obj = json.loads(line)
        except json.JSONDecodeError as e:
            raise FormatError(f"line {lineno}: malformed JSON ({e.msg})") from None
        try:
            g = graph_from_json(obj)
        except FormatError as e:
            raise FormatError(f"line {lineno}: {e}") from None
        problems = validate_graph(g)
        if problems:
            raise FormatError(f"line {lineno}: {g.id}: " + "; ".join(problems))
        graphs.append(g)
    return graphs


def graph_to_json(g):
    """Graph -> plain dict with the interchange field order; empties omitted."""
    doc = {"id": g.id, "flavor": g.flavor, "framework": g.framework, "input": g.input}
    if g.tops:
        doc["tops"] = list(g.tops)
    if g.nodes:
        out_nodes = []
        for n in g.nodes:
            nd = {"id": n.id}
            if n.label is not None:
                nd["label"] = n.label
            if n.properties:
                nd["properties"] = [p for p, _ in n.properties]
                nd["values"] = [v for _, v in n.properties]
            if n.anchors:
                nd["anchors"] = [{"from": a.start, "to": a.end} for a in n.anchors]
            out_nodes.append(nd)
        doc["nodes"] = out_nodes
    if g.edges:
        out_edges = []
        for e in g.edges:
            ed = {"source": e.source, "target": e.target}
            if e.label is not None:
                ed["label"] = e.label
            if e.attributes:
                ed["attributes"] = [p for p, _ in e.attributes]
                ed["values"] = [v for _, v in e.attributes]
            out_edges.append(ed)
        doc["edges"] = out_edges
    return doc


def write_mrp(graphs, stream):
    """One compact JSON object per line, fixed key order, trailing newline."""
    for g in graphs:
        stream.write(json.dumps(graph_to_json(g), ensure_ascii=False, separators=(",", ":")))
        stream.write("\n")


def _read_file(path, read):
    """``read`` of the file at ``path``; its format errors name the file."""
    with open(path, encoding="utf-8") as fh:
        try:
            return read(fh)
        except FormatError as err:
            raise FormatError(f"{path}: {err}") from None


def load_mrp(path):
    """:func:`read_mrp` of the file at ``path``; its errors name the file."""
    return _read_file(path, read_mrp)


def save_mrp(graphs, path):
    with atomic_open(path) as fh:
        write_mrp(graphs, fh)


# ---------------------------------------------------------------------------
# companion morphology

def read_companion(stream):
    """Tab-separated token rows grouped under `#<id>` headers.

    Columns: index, surface, lemma, upos, xpos, [ne,] from, to.  The ne
    column may be absent for a whole row, in which case it defaults to
    "O".  Token anchors must be ordered and non-overlapping.
    """
    sentences = {}
    current_id = None
    current_rows = []

    def flush():
        if current_id is None:
            return
        _check_token_anchors(current_id, current_rows)
        sentences[current_id] = list(current_rows)

    for lineno, line in enumerate(stream, start=1):
        line = line.rstrip("\n")
        if not line.strip():
            continue
        if line.startswith("#"):
            flush()
            current_id = line[1:].strip()
            if current_id in sentences:
                raise FormatError(f"line {lineno}: repeated sentence id {current_id}")
            current_rows = []
            continue
        if current_id is None:
            raise FormatError(f"line {lineno}: token row before any #id header")
        cols = line.split("\t")
        if len(cols) == 7:
            idx, surface, lemma, upos, xpos, frm, to = cols
            ne = "O"
        elif len(cols) == 8:
            idx, surface, lemma, upos, xpos, ne, frm, to = cols
        else:
            raise FormatError(f"line {lineno}: expected 7 or 8 columns, got {len(cols)}")
        try:
            row = TokenRow(int(idx), surface, lemma, upos, xpos, ne, Anchor(int(frm), int(to)))
        except ValueError:
            raise FormatError(f"line {lineno}: non-integer index or anchor") from None
        current_rows.append(row)
    flush()
    return sentences


def _check_token_anchors(sid, rows):
    for a, b in zip(rows, rows[1:]):
        if b.anchor.start < a.anchor.end:
            raise FormatError(f"{sid}: token anchors overlap or are out of order "
                              f"({a.anchor} then {b.anchor})")
    for i, row in enumerate(rows):
        if row.index != i:
            raise FormatError(f"{sid}: token index {row.index} at position {i}")
        if row.anchor.start >= row.anchor.end:
            raise FormatError(f"{sid}: empty token anchor {row.anchor}")


def load_companion(path):
    return _read_file(path, read_companion)


# ---------------------------------------------------------------------------
# validation

def validate_graph(g):
    """Structural invariant check; returns a list of violation messages."""
    problems = []
    ids = [n.id for n in g.nodes]
    id_set = set(ids)
    if len(ids) != len(id_set):
        dupes = sorted({i for i in ids if ids.count(i) > 1})
        problems.append(f"duplicate node ids {dupes}")
    if g.framework not in FRAMEWORKS:
        problems.append(f"unknown framework {g.framework!r}")
    if g.framework in FLAVOR and g.flavor != FLAVOR[g.framework]:
        problems.append(f"flavor {g.flavor} is not {g.framework}'s {FLAVOR[g.framework]}")
    for t in g.tops:
        if t not in id_set:
            problems.append(f"top {t} is not a node")
    if len(set(g.tops)) != len(g.tops):
        repeated = sorted({t for t in g.tops if g.tops.count(t) > 1})
        problems.append(f"repeated top ids {repeated}")
    for e in g.edges:
        if e.source not in id_set:
            problems.append(f"edge source {e.source} is not a node")
        if e.target not in id_set:
            problems.append(f"edge target {e.target} is not a node")
    n_chars = len(g.input)
    for n in g.nodes:
        names = [p for p, _ in n.properties]
        if len(names) != len(set(names)):
            problems.append(f"node {n.id} has duplicate property names")
        for a in n.anchors:
            if not (0 <= a.start < a.end <= n_chars):
                problems.append(f"node {n.id} anchor [{a.start},{a.end}) outside input "
                                f"of length {n_chars}")
    return problems


# ---------------------------------------------------------------------------
# token alignment for anchored frameworks

def covered_tokens(node, tokens):
    """Indices, in token order, of the tokens some anchor of ``node``
    overlaps."""
    return [t.index for t in tokens if any(a.overlaps(t.anchor) for a in node.anchors)]


def align_ucca_tokens(g, tokens):
    """Map each anchored (terminal) node to a contiguous token span.

    Returns ``{node_id: (first_token, last_token_exclusive)}`` or ``None``
    when the graph's anchoring cannot be reconciled with the given
    tokenization (such graphs are dropped from training).  Spans of
    distinct terminals never share a token.
    """
    spans = {}
    claimed = {}
    for n in g.nodes:
        if not n.anchors:
            continue
        covered = covered_tokens(n, tokens)
        if not covered:
            return None
        lo, hi = covered[0], covered[-1] + 1
        if covered != list(range(lo, hi)):
            return None
        for t in tokens[lo:hi]:
            # token must sit fully inside the terminal's character set
            if not any(a.start <= t.anchor.start and t.anchor.end <= a.end for a in n.anchors):
                return None
        if not _anchors_covered(g.input, n.anchors, tokens[lo:hi]):
            return None
        for idx in range(lo, hi):
            if idx in claimed:
                return None
            claimed[idx] = n.id
        spans[n.id] = (lo, hi)
    return spans


def _anchors_covered(text, anchors, rows):
    """Every non-whitespace anchored character lies inside some token."""
    for a in anchors:
        for pos in range(a.start, a.end):
            if text[pos].isspace():
                continue
            if not any(r.anchor.start <= pos < r.anchor.end for r in rows):
                return False
    return True


# ---------------------------------------------------------------------------
# corpus assembly

def build_corpus(companion, graph_lists):
    """Join companion tokens with any number of per-framework graph lists.

    ``graph_lists`` is an iterable of MrpGraph lists (one per framework
    file, but mixing is fine).  Sentence order follows the companion.  A
    (framework, id) pair given twice is refused.
    """
    by_sid = {}
    for graphs in graph_lists:
        for g in graphs:
            by_framework = by_sid.setdefault(g.id, {})
            if g.framework in by_framework:
                raise FormatError(f"repeated graph {g.framework}/{g.id}")
            by_framework[g.framework] = g
    sentences = []
    for sid, rows in companion.items():
        sentences.append(Sentence(id=sid, tokens=tuple(rows), graphs=by_sid.get(sid, {})))
    return sentences
