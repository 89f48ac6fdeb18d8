"""Biaffine edge/label scoring, the edge loss and threshold decoding.

The same head design serves every framework: specialize the encoder
states through four small MLPs, score all ordered position pairs with a
bilinear-plus-linear form for edge existence, and with per-class
bilinear forms for edge labels.  Position 0 is <ROOT>; a directed edge
from it marks a top node.  Every head trains on
:func:`edge_and_label_loss`; DM, PSD and UCCA decode by :func:`decode_flavor0`.

A head's training score is five autodiff nodes: the input dropout, one
:func:`autodiff.mlp` for the edge MLP pair and one for the label pair,
then :func:`autodiff.biaffine_edge` and :func:`autodiff.biaffine_label`.
Inference draws no dropout; a batch of several concatenates their rows,
runs one mlp per pair and splits it, then the two biaffine nodes per
sentence, and a lone sentence runs the four nodes alone.
"""

from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .encoder import Mlp


@dataclass
class PairScores:
    """All-pairs scores for one sentence, as the losses read them.

    edge_probs[i, j] is the probability of an edge from position i to
    position j (sigmoid applied), the output of one
    :func:`autodiff.biaffine_edge` node.  label_logits holds raw class
    scores for the pair at flat index i * n + j, the output of one
    :func:`autodiff.biaffine_label` node; a prediction keeps their
    softmax (``label_probs``).
    """
    edge_probs: ad.Tensor    # (P, P)
    label_logits: ad.Tensor  # (P*P, C); None for edges alone
    n_positions: int
    labels: list

    def label_logits_at(self, pairs):
        """Rows of label logits for (i, j) position pairs."""
        idx = [i * self.n_positions + j for i, j in pairs]
        return ad.rows(self.label_logits, idx)

    def label_probs(self):
        """(P, P, C) softmax over classes, as plain numpy."""
        n = self.n_positions
        return ad.softmax_array(self.label_logits.data).reshape(n, n, len(self.labels))


class BiaffineHead:
    """Edge and label scorer over a node-state sequence.

    The four MLPs keep their own parameters (``<name>.edge_from.w``, ...);
    ``score`` and ``predict`` run each same-width pair as one
    :func:`autodiff.mlp`, so edge and label widths may differ.
    """

    def __init__(self, params, name, in_dim, labels, rng,
                 edge_mlp=600, label_mlp=600,
                 input_dropout=0.0, edge_dropout=0.0, label_dropout=0.0):
        if not labels:
            raise ValueError("label inventory must be nonempty")
        self.labels = list(labels)
        self.input_dropout = input_dropout
        self.edge_dropout = edge_dropout
        self.label_dropout = label_dropout
        self.edge_from = Mlp(params, f"{name}.edge_from", in_dim, edge_mlp, rng)
        self.edge_to = Mlp(params, f"{name}.edge_to", in_dim, edge_mlp, rng)
        self.label_from = Mlp(params, f"{name}.label_from", in_dim, label_mlp, rng)
        self.label_to = Mlp(params, f"{name}.label_to", in_dim, label_mlp, rng)
        self.u_edge = params.new(f"{name}.u_edge", (edge_mlp, edge_mlp), rng)
        self.w_edge = params.new(f"{name}.w_edge", (2 * edge_mlp, 1), rng)
        self.b_edge = params.new_from(f"{name}.b_edge", 0.0)
        c = len(self.labels)
        self.u_label = params.new(f"{name}.u_label", (c, label_mlp, label_mlp), rng)
        self.w_label = params.new(f"{name}.w_label", (c, 1, label_mlp), rng)

    def score(self, states, rng=None):
        """:meth:`predict` of one (P, d) state matrix: all ordered pairs
        of its positions scored, as training reads them."""
        return self.predict([states], rng)[0]

    def predict(self, batch, rng=None, edges_only=False):
        """:class:`PairScores` of each (n, d) state matrix of a batch,
        without label logits when ``edges_only``.  Each MLP pair runs once
        over the batch's rows (:func:`autodiff.stack_rows`), then
        ``biaffine_edge`` and ``biaffine_label`` per matrix; a batch of
        one runs no concat or split, and in a larger one each matrix is
        within 1e-12 of its own.  Dropout masks are drawn in the order
        input, edge_from, edge_to, label_from, label_to."""
        sizes = [s.shape[0] for s in batch]
        rows = ad.dropout(ad.stack_rows(batch), self.input_dropout, rng)

        def specialized(first, second, p):
            return ad.unstack_rows(ad.mlp(rows, (first.w, second.w), (first.b, second.b),
                                          p, rng), sizes)

        edges = [ad.biaffine_edge(e, self.u_edge, self.w_edge, self.b_edge)
                 for e in specialized(self.edge_from, self.edge_to, self.edge_dropout)]
        logits = ([None] * len(batch) if edges_only else
                  [ad.biaffine_label(x, self.u_label, self.w_label)
                   for x in specialized(self.label_from, self.label_to, self.label_dropout)])
        return [PairScores(e, x, n, self.labels) for e, x, n in zip(edges, logits, sizes)]


@dataclass
class Flavor0Decode:
    """Decoded positions: edges as (from, to, label), tops, kept positions."""
    edges: list
    tops: list
    kept: list


def threshold_pairs(probs):
    """The (i, j) cells of a (P, P) probability matrix between distinct
    real positions (<ROOT> excluded) whose probability strictly exceeds
    0.5, in row-major order, as Python ints."""
    rows, cols = (probs[1:, 1:] > 0.5).nonzero()
    return [(i + 1, j + 1) for i, j in zip(rows.tolist(), cols.tolist()) if i != j]


def decode_flavor0(edge_probs, label_probs, labels):
    """Threshold decoding for token-anchored graphs, from (P, P) edge and
    (P, P, C) label probabilities over the classes ``labels``.

    The edges are :func:`threshold_pairs` of ``edge_probs`` (no
    self-loops), each with its most probable label (ties go to the
    lowest index); row 0 marks top nodes (several allowed); real
    positions that are neither tops nor incident to an edge are dropped.
    """
    best = label_probs.argmax(axis=-1)
    edges = [(i, j, labels[best[i, j]]) for i, j in threshold_pairs(edge_probs)]
    tops = [j for j in range(1, edge_probs.shape[0]) if edge_probs[0, j] > 0.5]
    kept = sorted({k for i, j, _ in edges for k in (i, j)} | set(tops))
    return Flavor0Decode(edges=edges, tops=tops, kept=kept)


def edge_and_label_loss(scores, gold_edges, gold_tops):
    """Summed BCE over every cell plus CE over gold edges.

    ``gold_edges`` are (from, to, class index) in position space (root
    row excluded); ``gold_tops`` are positions j, charged via cell (0, j).
    AMR passes no tops: its first generated position is the root.
    """
    n = scores.n_positions
    target = np.zeros((n, n))
    for i, j, _ in gold_edges:
        target[i, j] = 1.0
    for j in gold_tops:
        target[0, j] = 1.0
    edge_loss = ad.binary_cross_entropy(scores.edge_probs, target)

    if gold_edges:
        logits = scores.label_logits_at([(i, j) for i, j, _ in gold_edges])
        classes = np.array([c for _, _, c in gold_edges], dtype=np.int64)
        label_loss = ad.cross_entropy_logits(logits, classes)
    else:
        label_loss = ad.Tensor(0.0)
    return edge_loss, label_loss
