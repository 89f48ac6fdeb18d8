"""Component-wise graph scoring.

Each graph is read once into one multiset of tuples per component
(tops, node labels, node properties, anchors, labeled edges, edge
attributes).  A tuple starts with the ids of the ``ARITY`` nodes it
belongs to and ends in its payload: ``(id,)`` for a top, ``(id,
label)``, ``(id, name, value)``, ``(id, anchor set)``, ``(source,
target, label)`` and ``(source, target, label, name, value)``.  A
predicted graph is compared to gold by first establishing an injective
node correspondence, then looking up each gold tuple, its ids mapped
through it, among the predicted ones; being injective, the mapping keeps
distinct tuples distinct.  Anchored frameworks get a deterministic
correspondence from character overlap; the unanchored one searches for
the bijection that maximizes matched tuples.  Counts pool across
sentences within a framework (micro) and frameworks average unweighted (macro).

The searches never recount a candidate mapping.  ``_PairMatcher``
tabulates, once per pair and only when a search needs it, the hits of
every gold/pred node pair and of every pair of edge-linked nodes, by
pairing the tuples of equal payload; since mappings are injective, a
mapping's matched total is a sum over those tables, and a swap is
scored by re-summing only the rows it moves.  Small unanchored graphs
are solved by a depth-first search in ``itertools.permutations`` order
that cuts subtrees which cannot beat the best so far.  Each search
accepts only strict improvements, so it keeps the first strict maximum
and returns the mapping that recounting every candidate would.

Every hill climb also stops at a ceiling: the multiset intersection of
gold and predicted tuples with the node ids left out, which no mapping
can exceed, so stopping there leaves the mapping the full climb would;
the restarts stop there too.  An anchored pair whose greedy mapping
already reaches it skips the climb and never builds the tables.  The
exhaustive search does not build the ceiling: on graphs that small the
search is cheap and parsed pairs rarely reach it.

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

# per component, how many node ids lead each of its tuples
ARITY = {"tops": 1, "labels": 1, "properties": 1, "anchors": 1,
         "edges": 2, "attributes": 2}
COMPONENTS = tuple(ARITY)
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
    """The characters of ``node``'s anchors: bit ``c`` for character c."""
    out = 0
    for a in node.anchors:
        if a.end > a.start:
            out |= ((1 << (a.end - a.start)) - 1) << a.start
    return out


def _tree_children(g):
    """Targets per source over the non-remote edges."""
    children = {}
    for e in g.edges:
        if not e.attribute_map().get("remote"):
            children.setdefault(e.source, []).append(e.target)
    return children


def anchor_signatures(g, children):
    """``_anchor_chars`` per node, or for unanchored internal nodes the
    union over ``children`` of ``_tree_children`` (the UCCA yield)."""
    own = {n.id: _anchor_chars(n) for n in g.nodes}
    memo = {}

    def sig(nid, stack):
        if nid in memo:
            return memo[nid]
        if own[nid] or nid in stack:
            return own[nid]
        stack = stack | {nid}
        acc = 0
        for ch in children.get(nid, ()):
            acc |= sig(ch, stack)
        memo[nid] = acc
        return acc

    return {n.id: sig(n.id, frozenset()) for n in g.nodes}


def _tuples(g):
    """Per component, the multiset of the tuples of ``g``, each led by
    the ids of its ``ARITY`` nodes."""
    anchors = ((n.id, frozenset((a.start, a.end) for a in n.anchors))
               for n in g.nodes)
    return {
        "tops": Counter((t,) for t in g.tops),
        "labels": Counter((n.id, n.label) for n in g.nodes
                          if n.label is not None),
        "properties": Counter((n.id, *kv) for n in g.nodes
                              for kv in n.properties),
        "anchors": Counter(t for t in anchors if t[1]),
        "edges": Counter((e.source, e.target, e.label) for e in g.edges),
        "attributes": Counter((e.source, e.target, e.label, *kv)
                              for e in g.edges for kv in e.attributes),
    }


def _tables(rows, cols, row_ids, col_ids):
    """``unary`` and ``links`` (see ``_PairMatcher``) of the tuple
    multisets ``rows`` against ``cols``, over their sorted node ids.

    A row tuple meets every column tuple of its component and payload.
    Under an injective mapping a tuple on one node, or a self-loop, can
    meet only one on the image of that node, and a tuple between two
    nodes only one between their two images.
    """
    col_at = {c: j for j, c in enumerate(col_ids)}
    by_payload = {}
    for comp, arity in ARITY.items():
        for t, k in cols[comp].items():
            by_payload.setdefault((comp, t[arity:]), []).append(
                (col_at[t[0]], col_at[t[arity - 1]], k))
    row_at = {r: i for i, r in enumerate(row_ids)}
    unary = [[0] * (len(col_ids) + 1) for _ in row_ids]  # last: unmapped
    tables = {}
    for comp, arity in ARITY.items():
        for t, k in rows[comp].items():
            s, u = row_at[t[0]], row_at[t[arity - 1]]
            for j, l, kc in by_payload.get((comp, t[arity:]), ()):
                if s == u:
                    if j == l:
                        unary[s][j] += min(k, kc)
                elif j != l:
                    for ends, cell in (((s, u), (j, l)), ((u, s), (l, j))):
                        table = tables.setdefault(ends, {})
                        table[cell] = table.get(cell, 0) + min(k, kc)
    links = [[] for _ in row_ids]
    for (s, u), table in sorted(tables.items()):
        links[s].append((u, table))
    return unary, links


class _PairMatcher:
    """The tuple multisets of one gold/pred pair and the tables the
    searches score a correspondence from.

    ``gold_tuples`` and ``pred_tuples`` hold, per component, the tuples
    of ``_tuples``; ``ceiling`` and ``counts`` (of an injective mapping)
    read them alone.  The searches score candidates from ``unary`` and
    ``links``, built from the same tuples over the sorted node ids
    ``gold_ids`` and ``pred_ids`` on first use.  ``unary[i][j]`` holds
    the top, label, property, anchor and self-loop hits of gold node
    ``i`` on predicted node ``j``; each row ends in a zero column that
    stands for "unmapped".  ``links[i]`` lists ``(k, table)`` for every
    gold node ``k != i`` joined to ``i`` by an edge in either direction,
    and ``table`` maps a predicted pair ``(j, l)`` for ``(i, k)`` to its
    edge and attribute hits.  Because a correspondence is injective, a
    mapped gold tuple can meet only the predicted tuple between the
    images of its own endpoints, so the matched total of a
    correspondence is the sum of its unary entries plus, once per linked
    gold pair, the table entry of their images, duplicates included.
    """

    def __init__(self, gold, pred):
        self.gold_tuples, self.pred_tuples = _tuples(gold), _tuples(pred)
        self.gold_ids = sorted(n.id for n in gold.nodes)
        self.pred_ids = sorted(n.id for n in pred.nodes)
        self._counted = None

    def __getattr__(self, name):
        # ``unary`` and ``links``, built together on first use
        if name not in ("unary", "links"):
            raise AttributeError(name)
        self.unary, self.links = _tables(self.gold_tuples, self.pred_tuples,
                                         self.gold_ids, self.pred_ids)
        return getattr(self, name)

    def ceiling(self):
        """An upper bound on the matched total of every correspondence:
        the intersection of gold and predicted (component, payload)
        multisets.  Mapping the ids of a gold tuple leaves its payload
        as it is, so it can match only a predicted tuple of the same
        payload, each at most once."""
        def payloads(tuples):
            out = Counter()
            for c, arity in ARITY.items():
                for t, k in tuples[c].items():
                    out[c, t[arity:]] += k
            return out
        return (payloads(self.gold_tuples)
                & payloads(self.pred_tuples)).total()

    def counts(self, m):
        """Per component (plus pooled "all"), the gold and predicted
        tuples and those matched under ``m``, which must be injective,
        as every search's mapping is: then each mapped gold tuple meets
        at most one predicted tuple.  The last result is kept for reuse.
        """
        if self._counted is not None and self._counted[0] == m:
            return self._counted[1]
        out = {}
        for c, arity in ARITY.items():
            gold, pred = self.gold_tuples[c], self.pred_tuples[c]
            matched = 0
            for t, k in gold.items():
                ids = tuple(map(m.get, t[:arity]))
                if None not in ids:
                    matched += min(k, pred.get(ids + t[arity:], 0))
            out[c] = Counts(gold.total(), pred.total(), matched)
        out["all"] = sum(out.values(), Counts())
        self._counted = (dict(m), out)
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


def _node_depths(g, children):
    """BFS depth from the tops over ``children`` (``_tree_children``);
    unreached nodes sit below everything."""
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
    (unary chains), so a parent pairs with a parent.  A greedy mapping
    that reaches the ceiling is kept, as the climb would keep it.
    """
    kids_g, kids_p = _tree_children(gold), _tree_children(pred)
    sig_g = anchor_signatures(gold, kids_g)
    sig_p = anchor_signatures(pred, kids_p)
    dep_g, dep_p = _node_depths(gold, kids_g), _node_depths(pred, kids_p)
    cands = []
    for gn in gold.nodes:
        a, dg = sig_g[gn.id], dep_g[gn.id]
        for pn in pred.nodes:
            b = sig_p[pn.id]
            union = (a | b).bit_count()
            if union == 0:
                jac = 1.0  # both unanchored with empty yields
            else:
                inter = (a & b).bit_count()
                if inter == 0:
                    continue
                jac = inter / union
            label_miss = 0 if gn.label == pn.label else 1
            ddiff = abs(dg - dep_p[pn.id])
            cands.append((-jac, ddiff, label_miss, gn.id, pn.id))
    cands.sort()
    m, used = {}, set()
    for _, _, _, gid, pid in cands:
        if gid in m or pid in used:
            continue
        m[gid] = pid
        used.add(pid)
    cap = matcher.ceiling()
    if matcher.counts(m)["all"].matched >= cap:
        return m

    gold_ids, pred_ids = matcher.gold_ids, matcher.pred_ids
    column = {p: j for j, p in enumerate(pred_ids)}
    unmapped = len(pred_ids)
    values = ([column[m[g]] if g in m else unmapped for g in gold_ids]
              + [column[p] for p in pred_ids if p not in used])
    _improve_by_swaps(values, matcher.unary, matcher.links, cap)
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
    unary, links = _tables(matcher.pred_tuples, matcher.gold_tuples,
                           pred_ids, gold_ids)
    cols = _first_best_assignment(unary, links, len(gold_ids))
    return {gold_ids[c]: p for p, c in zip(pred_ids, cols)}


def correspondence(gold, pred, *, _matcher=None):
    """Node mapping gold id -> pred id used for tuple matching.

    Anchored graphs pair nodes greedily by character overlap and then
    hill-climb.  Unanchored graphs of up to ``EXHAUSTIVE_LIMIT`` nodes
    a side get the first best mapping in ``itertools.permutations``
    order, found by a bounded depth-first search; larger ones take the
    best of ``HILL_CLIMB_RESTARTS`` seeded hill climbs.  A climb ends
    once its total reaches ``_PairMatcher.ceiling`` (for the restarts,
    the tables' own upper bound when that is lower), and the restarts
    stop at the first climb that does; no candidate can gain past an
    upper bound, so these stops change no mapping.  Every search scores
    candidates with the incremental objective of ``_PairMatcher`` and
    accepts only strict improvements, so it returns the mapping a full
    recount of every candidate would.

    ``_matcher`` lets ``mrp_f1`` share the matcher it reports from.
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
        present = [fw for fw in G.FRAMEWORKS if fw in self.by_framework]
        lines = [header, "-" * len(header)]
        for fw in present:
            comps = self.by_framework[fw]
            lines.append(f"{fw:<10}" + "".join(f"{comps[c].f1:>12.4f}" for c in cols))
        if present:
            mean = sum(self.framework_f1(fw) for fw in present) / len(present)
            lines.append(f"{'mean':<10}" + " " * 12 * (len(cols) - 1)
                         + f"{mean:>12.4f}")
        return "\n".join(lines)
