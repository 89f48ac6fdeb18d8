"""Component-wise graph scoring.

A predicted graph is compared to gold by first establishing a node
correspondence, then counting matched tuples per component (tops, node
labels, node properties, anchors, labeled edges, edge attributes).
Anchored frameworks get a deterministic correspondence from character
overlap; the unanchored one searches for the bijection that maximizes
matched tuples.  Counts pool across sentences within a framework
(micro) and frameworks average unweighted (macro).

The searches never recount a candidate mapping.  ``_PairMatcher``
tabulates, once per pair, the hits of every gold/pred node pair and of
every pair of edge-linked nodes; since mappings are injective, a
mapping's matched total is a sum over those tables, and a swap is
scored by re-summing only the rows it moves.  Small unanchored graphs
are solved by a depth-first search in ``itertools.permutations`` order
that cuts subtrees which cannot beat the best so far.  Each search
accepts only strict improvements, so it keeps the first strict maximum
and returns the mapping that recounting every candidate would.

Every hill climb, anchored or not, also stops at a ceiling: the
multiset intersection of gold and predicted tuples with the node ids
left out, which no mapping can exceed.  Once a climb's best reaches
it no candidate can gain, so stopping there leaves the mapping the
full climb would; the restarts stop there too.  The exhaustive search
does not build it: on graphs that small the search is cheap and parsed
pairs rarely reach the ceiling, so the bound would cost more than it
saves.

Scores are labeled "MRP-F1 (toolkit)": the official scorer's
correspondence tie-breaking is not public, so bit-equality with it is
not claimed.
"""

import itertools
import warnings
from collections import Counter
from dataclasses import dataclass

import numpy as np

from . import graphs as G

COMPONENTS = ("tops", "labels", "properties", "anchors", "edges", "attributes")
HILL_CLIMB_RESTARTS = 20
EXHAUSTIVE_LIMIT = 8


@dataclass
class Counts:
    gold: int = 0
    pred: int = 0
    matched: int = 0

    def __add__(self, other):
        return Counts(self.gold + other.gold, self.pred + other.pred,
                      self.matched + other.matched)

    @property
    def precision(self):
        return self.matched / self.pred if self.pred else 0.0

    @property
    def recall(self):
        return self.matched / self.gold if self.gold else 0.0

    @property
    def f1(self):
        p, r = self.precision, self.recall
        return 2 * p * r / (p + r) if p + r else 0.0


def _anchor_chars(node):
    out = set()
    for a in node.anchors:
        out.update(range(a.start, a.end))
    return frozenset(out)


def anchor_signatures(g):
    """Character set per node: own anchors, or the union over non-remote
    descendants for unanchored internal nodes (the UCCA yield)."""
    children = {}
    for e in g.edges:
        if e.attribute_map().get("remote"):
            continue
        children.setdefault(e.source, []).append(e.target)
    own = {n.id: _anchor_chars(n) for n in g.nodes}
    memo = {}

    def sig(nid, stack):
        if nid in memo:
            return memo[nid]
        if own[nid] or nid in stack:
            return own[nid]
        stack = stack | {nid}
        acc = set()
        for ch in children.get(nid, ()):
            acc.update(sig(ch, stack))
        memo[nid] = frozenset(acc)
        return memo[nid]

    return {n.id: sig(n.id, frozenset()) for n in g.nodes}


def _anchor_set(node):
    return frozenset((a.start, a.end) for a in node.anchors)


def _id_free_tuples(g):
    """Counters of the label, property, anchor, edge and attribute
    tuples of ``g`` with the node ids left out."""
    return (Counter(n.label for n in g.nodes if n.label is not None),
            Counter(kv for n in g.nodes for kv in n.properties),
            Counter(s for s in map(_anchor_set, g.nodes) if s),
            Counter(e.label for e in g.edges),
            Counter((e.label, k, v) for e in g.edges for k, v in e.attributes))


class _PairMatcher:
    """Precomputed tuple structures for one gold/pred pair.

    ``counts`` reports the per-component tuples of a correspondence.
    The search never calls it: it scores candidates from ``unary`` and
    ``links``, built once over the sorted node ids ``gold_ids`` and
    ``pred_ids``.  ``unary[i][j]`` holds the top, label, property,
    anchor and self-loop hits of gold node ``i`` on predicted node
    ``j``; each row ends in a zero column that stands for "unmapped".
    ``links[i]`` lists ``(k, table)`` for every gold node ``k != i``
    joined to ``i`` by an edge in either direction, and ``table`` maps
    a predicted pair ``(j, l)`` for ``(i, k)`` to its edge and
    attribute hits.  Because a correspondence is injective, a mapped
    gold tuple can meet only the predicted tuple between the images of
    its own endpoints, so the matched total of a correspondence is the
    sum of its unary entries plus, once per linked gold pair, the
    table entry of their images.  This holds with duplicate edges too.
    """

    def __init__(self, gold, pred):
        self.gold, self.pred = gold, pred
        self.gold_label = {n.id: n.label for n in gold.nodes}
        self.pred_label = {n.id: n.label for n in pred.nodes}
        self.gold_props = {n.id: Counter(n.properties) for n in gold.nodes}
        self.pred_props = {n.id: Counter(n.properties) for n in pred.nodes}
        self.gold_anchor = {n.id: _anchor_set(n) for n in gold.nodes}
        self.pred_anchor = {n.id: _anchor_set(n) for n in pred.nodes}
        self.pred_tops = set(pred.tops)
        self.pred_edges = Counter((e.source, e.target, e.label)
                                  for e in pred.edges)
        self.pred_attrs = Counter((e.source, e.target, e.label, k, v)
                                  for e in pred.edges
                                  for k, v in e.attributes)
        self.n_gold_labels = sum(1 for n in gold.nodes if n.label is not None)
        self.n_pred_labels = sum(1 for n in pred.nodes if n.label is not None)
        self.n_gold_props = sum(len(n.properties) for n in gold.nodes)
        self.n_pred_props = sum(len(n.properties) for n in pred.nodes)
        self.n_gold_anchors = sum(1 for s in self.gold_anchor.values() if s)
        self.n_pred_anchors = sum(1 for s in self.pred_anchor.values() if s)
        self.n_gold_attrs = sum(len(e.attributes) for e in gold.edges)
        self.n_pred_attrs = sum(len(e.attributes) for e in pred.edges)
        self.gold_ids = sorted(n.id for n in gold.nodes)
        self.pred_ids = sorted(n.id for n in pred.nodes)
        self._build_tables()

    def _build_tables(self):
        gi = {g: i for i, g in enumerate(self.gold_ids)}
        pj = {p: j for j, p in enumerate(self.pred_ids)}
        top_count = Counter(self.gold.tops)
        self.unary = []
        for g in self.gold_ids:
            lab, props, anch = (self.gold_label[g], self.gold_props[g],
                                self.gold_anchor[g])
            row = []
            for p in self.pred_ids:
                hits = top_count[g] if p in self.pred_tops else 0
                if lab is not None and self.pred_label[p] == lab:
                    hits += 1
                other = self.pred_props[p]
                hits += sum(min(c, other[kv]) for kv, c in props.items())
                if anch and self.pred_anchor[p] == anch:
                    hits += 1
                row.append(hits)
            row.append(0)  # the unmapped column
            self.unary.append(row)

        # predicted tuples grouped by everything but their endpoints
        pred_by_key = {}
        for counter in (self.pred_edges, self.pred_attrs):
            for (s, t, *key), c in counter.items():
                if s in pj and t in pj:
                    pred_by_key.setdefault(tuple(key), []).append(
                        (pj[s], pj[t], c))
        gold_tuples = Counter()
        for e in self.gold.edges:
            if e.source in gi and e.target in gi:
                s, t = gi[e.source], gi[e.target]
                gold_tuples[(s, t, e.label)] += 1
                for k, v in e.attributes:
                    gold_tuples[(s, t, e.label, k, v)] += 1
        tables = {}
        for (s, t, *key), c in gold_tuples.items():
            for j, l, cp in pred_by_key.get(tuple(key), ()):
                if s == t:
                    if j == l:
                        self.unary[s][j] += min(c, cp)
                elif j != l:
                    fwd = tables.setdefault((s, t), Counter())
                    fwd[(j, l)] += min(c, cp)
                    bwd = tables.setdefault((t, s), Counter())
                    bwd[(l, j)] += min(c, cp)
        self.links = [[] for _ in self.gold_ids]
        for (s, t), table in sorted(tables.items()):
            self.links[s].append((t, dict(table)))

    def ceiling(self):
        """An upper bound on the matched total of every correspondence:
        per component, the multiset intersection of gold and predicted
        tuples with the node ids left out.  A gold tuple can match only
        a predicted one equal to it but for the ids, each predicted
        tuple at most once, duplicates and self-loops included.  An
        injective mapping puts at most one gold node on each predicted
        top, so tops add the largest gold top multiplicities, one per
        distinct predicted top.
        """
        tops = sorted(Counter(self.gold.tops).values(), reverse=True)
        return sum(tops[:len(self.pred_tops)]) + sum(
            sum((gold & pred).values()) for gold, pred in
            zip(_id_free_tuples(self.gold), _id_free_tuples(self.pred)))

    def transposed_tables(self):
        """``unary`` and ``links`` with predicted nodes as the rows."""
        n_pred = len(self.pred_ids)
        unary = [[row[j] for row in self.unary] + [0] for j in range(n_pred)]
        tables = {}
        for i, linked in enumerate(self.links):
            for k, table in linked:
                for (j, l), hits in table.items():
                    tables.setdefault((j, l), {})[(i, k)] = hits
        links = [[] for _ in range(n_pred)]
        for (j, l), table in sorted(tables.items()):
            links[j].append((l, table))
        return unary, links

    def counts(self, m):
        g, p = self.gold, self.pred
        out = {}
        top_hits = sum(1 for t in g.tops if m.get(t) in self.pred_tops)
        out["tops"] = Counts(len(g.tops), len(p.tops), top_hits)

        lab_hits = sum(1 for n, lab in self.gold_label.items()
                       if lab is not None and m.get(n) is not None
                       and self.pred_label.get(m[n]) == lab)
        out["labels"] = Counts(self.n_gold_labels, self.n_pred_labels, lab_hits)

        prop_hits = 0
        for n, props in self.gold_props.items():
            if m.get(n) is None:
                continue
            other = self.pred_props.get(m[n], Counter())
            prop_hits += sum(min(c, other[kv]) for kv, c in props.items())
        out["properties"] = Counts(self.n_gold_props, self.n_pred_props,
                                   prop_hits)

        anch_hits = sum(1 for n, s in self.gold_anchor.items()
                        if s and m.get(n) is not None
                        and self.pred_anchor.get(m[n]) == s)
        out["anchors"] = Counts(self.n_gold_anchors, self.n_pred_anchors,
                                anch_hits)

        mapped_edges = Counter()
        mapped_attrs = Counter()
        for e in g.edges:
            s, t = m.get(e.source), m.get(e.target)
            if s is None or t is None:
                continue
            mapped_edges[(s, t, e.label)] += 1
            for k, v in e.attributes:
                mapped_attrs[(s, t, e.label, k, v)] += 1
        edge_hits = sum(min(c, self.pred_edges[key])
                        for key, c in mapped_edges.items())
        attr_hits = sum(min(c, self.pred_attrs[key])
                        for key, c in mapped_attrs.items())
        out["edges"] = Counts(len(g.edges), len(p.edges), edge_hits)
        out["attributes"] = Counts(self.n_gold_attrs, self.n_pred_attrs,
                                   attr_hits)
        out["all"] = sum(out.values(), Counts())
        return out


def _sum_rows(unary, links, values, rows):
    """Matched tuples that depend on a row in ``rows`` when row ``r``
    takes column ``values[r]``: their unary entries and, once per linked
    pair, the link table entry.  Over all rows, the matched total."""
    total = 0
    for r in rows:
        v = values[r]
        total += unary[r][v]
        for k, table in links[r]:
            if k not in rows or k > r:
                total += table.get((v, values[k]), 0)
    return total


def _improve_by_swaps(values, unary, links, cap):
    """Hill climbing over pair swaps (and, for small problems, 3-cycles,
    which plain swaps cannot escape) in deterministic order.

    ``values[r]`` is the column that row ``r`` takes, the zero column
    ``len(unary[0]) - 1`` meaning unmapped.  Rows past ``len(unary)``
    are a spare pool: their values are unmapped predicted nodes
    available to swap in.  The objective is kept incrementally: a
    candidate is scored by re-summing only the rows it moves and their
    links, so it is accepted exactly when the full recount would
    exceed the best so far.  ``cap`` is an upper bound on every total:
    the climb returns as soon as its best reaches it, since no later
    candidate could then gain, so ``values`` ends as the uncapped climb
    would leave it.  Returns the best total.
    """
    n = len(values)
    spare = n - len(unary)
    if spare:  # pool rows match nothing
        unary = unary + [[0] * (max(values) + 1)] * spare
        links = links + [()] * spare
    best = _sum_rows(unary, links, values, range(n))
    improved = best < cap
    while improved:
        improved = False
        for i in range(n):
            for j in range(i + 1, n):
                if values[i] == values[j]:
                    continue
                rows = (i, j)
                before = _sum_rows(unary, links, values, rows)
                values[i], values[j] = values[j], values[i]
                gain = _sum_rows(unary, links, values, rows) - before
                if gain > 0:
                    best += gain
                    if best >= cap:
                        return best
                    improved = True
                else:
                    values[i], values[j] = values[j], values[i]
        if improved or n > 12:
            continue
        for i, j, k in itertools.combinations(range(n), 3):
            rows = (i, j, k)
            before = _sum_rows(unary, links, values, rows)
            for _ in range(2):
                values[i], values[j], values[k] = (values[j], values[k],
                                                   values[i])
                gain = _sum_rows(unary, links, values, rows) - before
                if gain > 0:
                    best += gain
                    if best >= cap:
                        return best
                    improved = True
                    break
            else:
                # third rotation restores the original assignment
                values[i], values[j], values[k] = (values[j], values[k],
                                                   values[i])
            if improved:
                break
    return best


def _node_depths(g):
    """BFS depth from the tops over non-remote edges; unreached nodes
    sit below everything."""
    children = {}
    for e in g.edges:
        if e.attribute_map().get("remote"):
            continue
        children.setdefault(e.source, []).append(e.target)
    depth = {t: 0 for t in g.tops}
    frontier = list(g.tops)
    while frontier:
        new = []
        for u in frontier:
            for v in children.get(u, ()):
                if v not in depth:
                    depth[v] = depth[u] + 1
                    new.append(v)
        frontier = new
    return {n.id: depth.get(n.id, len(g.nodes)) for n in g.nodes}


def _anchored_correspondence(gold, pred, matcher):
    """Greedy by character overlap, then deterministic swap refinement.

    Depth breaks ties between nodes with identical character yields
    (unary chains), so a parent pairs with a parent.
    """
    sig_g = anchor_signatures(gold)
    sig_p = anchor_signatures(pred)
    dep_g, dep_p = _node_depths(gold), _node_depths(pred)
    cands = []
    for gn in gold.nodes:
        for pn in pred.nodes:
            a, b = sig_g[gn.id], sig_p[pn.id]
            union = len(a | b)
            if union == 0:
                jac = 1.0  # both unanchored with empty yields
            else:
                inter = len(a & b)
                if inter == 0:
                    continue
                jac = inter / union
            label_miss = 0 if gn.label == pn.label else 1
            ddiff = abs(dep_g[gn.id] - dep_p[pn.id])
            cands.append((-jac, ddiff, label_miss, gn.id, pn.id))
    cands.sort()
    m = {}
    used = set()
    for _, _, _, gid, pid in cands:
        if gid in m or pid in used:
            continue
        m[gid] = pid
        used.add(pid)

    gold_ids, pred_ids = matcher.gold_ids, matcher.pred_ids
    column = {p: j for j, p in enumerate(pred_ids)}
    unmapped = len(pred_ids)
    values = ([column[m[g]] if g in m else unmapped for g in gold_ids]
              + [column[p] for p in pred_ids if p not in used])
    _improve_by_swaps(values, matcher.unary, matcher.links, matcher.ceiling())
    return {g: pred_ids[v] for g, v in zip(gold_ids, values) if v != unmapped}


def _search_correspondence(matcher):
    gold_ids, pred_ids = matcher.gold_ids, matcher.pred_ids
    if not gold_ids or not pred_ids:
        return {}
    if (len(gold_ids) <= EXHAUSTIVE_LIMIT
            and len(pred_ids) <= EXHAUSTIVE_LIMIT):
        return _exhaustive_correspondence(matcher)
    rng = np.random.default_rng(0)
    unmapped = len(pred_ids)
    slots = (list(range(len(pred_ids)))
             + [unmapped] * max(0, len(gold_ids) - len(pred_ids)))
    ceiling = min(matcher.ceiling(), _suffix_bounds(
        matcher.unary, _earlier_links(matcher.links))[0])
    best_m, best_score = {}, -1
    for _ in range(HILL_CLIMB_RESTARTS):
        work = [slots[i] for i in rng.permutation(len(slots))]
        score = _improve_by_swaps(work, matcher.unary, matcher.links, ceiling)
        if score > best_score:
            best_score = score
            best_m = {g: pred_ids[v] for g, v in zip(gold_ids, work)
                      if v != unmapped}
            if best_score == ceiling:
                break  # no later restart can score strictly higher
    return best_m


def _earlier_links(links):
    """``links`` restricted, per row, to the rows before it."""
    return [[(k, table) for k, table in links[r] if k < r]
            for r in range(len(links))]


def _suffix_bounds(unary, earlier):
    """``bound[r]``: an upper bound on what rows ``r`` onwards can add to
    a total, each row taking its best unary entry and, per link to an
    earlier row, that link table's best entry.  ``bound[0]`` bounds
    every total."""
    bound = [0] * (len(unary) + 1)
    for r in reversed(range(len(unary))):
        bound[r] = (bound[r + 1] + max(unary[r])
                    + sum(max(table.values()) for _, table in earlier[r]))
    return bound


def _first_best_assignment(unary, links, n_cols):
    """Columns for rows 0..R-1, distinct, maximizing the total; among
    equal totals the first in ``itertools.permutations`` order.

    Depth-first search in that order, adding each row's unary entry and
    its links to earlier rows as it goes.  A subtree is cut when the
    partial total plus an upper bound on the rows below it cannot
    exceed the best so far, so no strictly better assignment is ever
    skipped and the first strict maximum is the one kept.
    """
    n_rows = len(unary)
    earlier = _earlier_links(links)
    bound = _suffix_bounds(unary, earlier)
    cols = [0] * n_rows
    used = [False] * n_cols
    best_total, best_cols = -1, None

    def visit(r, partial):
        nonlocal best_total, best_cols
        if partial + bound[r] <= best_total:
            return
        if r == n_rows:
            best_total, best_cols = partial, list(cols)
            return
        row, prev = unary[r], earlier[r]
        for c in range(n_cols):
            if used[c]:
                continue
            gain = row[c]
            for k, table in prev:
                gain += table.get((c, cols[k]), 0)
            cols[r] = c
            used[c] = True
            visit(r + 1, partial + gain)
            used[c] = False

    visit(0, 0)
    return best_cols


def _exhaustive_correspondence(matcher):
    """The first best injective mapping in ``itertools.permutations``
    order over the smaller side."""
    gold_ids, pred_ids = matcher.gold_ids, matcher.pred_ids
    if len(gold_ids) <= len(pred_ids):
        cols = _first_best_assignment(matcher.unary, matcher.links,
                                      len(pred_ids))
        return {g: pred_ids[c] for g, c in zip(gold_ids, cols)}
    unary, links = matcher.transposed_tables()
    cols = _first_best_assignment(unary, links, len(gold_ids))
    return {gold_ids[c]: p for p, c in zip(pred_ids, cols)}


def correspondence(gold, pred, *, _matcher=None):
    """Node mapping gold id -> pred id used for tuple matching.

    Anchored graphs pair nodes greedily by character overlap and then
    hill-climb.  Unanchored graphs of up to ``EXHAUSTIVE_LIMIT`` nodes
    a side get the first best mapping in ``itertools.permutations``
    order, found by a bounded depth-first search; larger ones take the
    best of ``HILL_CLIMB_RESTARTS`` seeded hill climbs.  A hill climb
    ends once its total reaches ``_PairMatcher.ceiling`` (for the
    restarts, the tables' own upper bound when that is lower), and the
    restarts stop at the first climb that does.  No candidate can gain
    past an upper bound, so these stops change no mapping.  Every
    search scores candidates with the incremental objective of
    ``_PairMatcher`` and accepts only strict improvements, so it
    returns the mapping a full recount of every candidate would.

    ``_matcher`` lets ``mrp_f1`` share the tables it reports from.
    """
    matcher = _matcher if _matcher is not None else _PairMatcher(gold, pred)
    if gold.flavor in (0, 1):
        return _anchored_correspondence(gold, pred, matcher)
    return _search_correspondence(matcher)


def mrp_f1(gold, pred):
    """Per-component Counts (plus pooled "all") for one sentence."""
    if gold.framework != pred.framework:
        raise ValueError(f"framework mismatch: {gold.framework} vs "
                         f"{pred.framework} for {gold.id}")
    if gold.id != pred.id:
        raise ValueError(f"sentence id mismatch: {gold.id} vs {pred.id}")
    matcher = _PairMatcher(gold, pred)
    m = correspondence(gold, pred, _matcher=matcher)
    return matcher.counts(m)


class ScoreReport:
    """Accumulated counts per framework with micro P/R/F1 per component
    and an unweighted macro average across frameworks."""

    def __init__(self):
        self.by_framework = {}

    def add(self, framework, component_counts):
        slot = self.by_framework.setdefault(
            framework, {c: Counts() for c in COMPONENTS + ("all",)})
        for c, counts in component_counts.items():
            slot[c] = slot[c] + counts

    def framework_f1(self, framework):
        return self.by_framework[framework]["all"].f1

    def macro_f1(self):
        total = 0.0
        for fw in G.FRAMEWORKS:
            if fw in self.by_framework:
                total += self.framework_f1(fw)
            else:
                warnings.warn(f"no scores for framework {fw}; counted as 0")
        return total / len(G.FRAMEWORKS)

    def to_json(self):
        doc = {}
        for fw, comps in sorted(self.by_framework.items()):
            doc[fw] = {c: {"gold": k.gold, "pred": k.pred, "matched": k.matched,
                           "precision": k.precision, "recall": k.recall,
                           "f1": k.f1}
                       for c, k in comps.items()}
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            doc["macro_f1"] = self.macro_f1()
        return doc

    def format_table(self):
        cols = COMPONENTS + ("all",)
        header = f"{'framework':<10}" + "".join(f"{c:>12}" for c in cols)
        lines = [header, "-" * len(header)]
        for fw in G.FRAMEWORKS:
            if fw not in self.by_framework:
                continue
            comps = self.by_framework[fw]
            row = f"{fw:<10}" + "".join(f"{comps[c].f1:>12.4f}" for c in cols)
            lines.append(row)
        present = [fw for fw in G.FRAMEWORKS if fw in self.by_framework]
        if present:
            mean = sum(self.framework_f1(fw) for fw in present) / len(present)
            lines.append(f"{'mean':<10}" + " " * 12 * (len(cols) - 1)
                         + f"{mean:>12.4f}")
        return "\n".join(lines)


def sdp_labeled_f1(gold, pred):
    """F1 over labeled directed dependencies with the top attachment
    counted as a virtual root dependency.

    Nodes are keyed by their first anchor when they have one, so the two
    graphs may number their nodes differently.
    """
    def tuples(g):
        key = {n.id: (n.anchors[0].start, n.anchors[0].end) if n.anchors else n.id
               for n in g.nodes}
        c = Counter()
        for e in g.edges:
            c[(key[e.source], key[e.target], e.label)] += 1
        for t in g.tops:
            c[("top", key[t])] += 1
        return c

    a, b = tuples(gold), tuples(pred)
    if not a and not b:
        return 1.0  # vacuously perfect
    matched = sum(min(c, b[key]) for key, c in a.items())
    total_a, total_b = sum(a.values()), sum(b.values())
    p = matched / total_b if total_b else 0.0
    r = matched / total_a if total_a else 0.0
    return 2 * p * r / (p + r) if p + r else 0.0
