"""Shared oracles for the test suite.

The central one is a finite-difference gradient check: every
differentiable op must agree with a central-difference estimate to a
relative error of 1e-4 (denominator floored at 1) before downstream
modules get to use it.
"""

import itertools
import json
import os
import zipfile
import zlib
from dataclasses import dataclass

import numpy as np
import pytest

from mrparse import amr
from mrparse import autodiff as ad
from mrparse import eds as E
from mrparse import graphs as G
from mrparse import scoring as S
from mrparse import sdp
from mrparse import training as T
from mrparse import ucca
from mrparse import biaffine

try:  # reference_read_npz's; the suite also collects without the module
    from lzma import LZMAError
except ImportError:
    LZMAError = zlib.error  # caught already: nothing more to catch

FD_STEP = 1e-5
FD_TOL = 1e-4


def numeric_gradient(f, x, h=FD_STEP):
    """Central differences of scalar-valued ``f()`` wrt array ``x``.

    ``x`` is mutated in place and restored; ``f`` must read it live.
    """
    grad = np.zeros_like(x)
    flat = x.reshape(-1)
    gflat = grad.reshape(-1)
    for i in range(flat.size):
        keep = flat[i]
        flat[i] = keep + h
        up = f()
        flat[i] = keep - h
        down = f()
        flat[i] = keep
        gflat[i] = (up - down) / (2.0 * h)
    return grad


def check_gradients(build, leaves, tol=FD_TOL, h=FD_STEP):
    """Backprop through ``build()`` and compare every leaf against FD."""
    for leaf in leaves:
        leaf.zero_grad()
    out = build()
    assert out.data.size == 1, "gradcheck target must be scalar"
    out.backward()
    for leaf in leaves:
        analytic = leaf.grad if leaf.grad is not None else np.zeros_like(leaf.data)
        numeric = numeric_gradient(lambda: build().data.item(), leaf.data, h=h)
        err = np.abs(analytic - numeric) / np.maximum(1.0, np.abs(numeric))
        worst = float(err.max()) if err.size else 0.0
        assert worst <= tol, f"max rel err {worst:.3g} exceeds {tol}"


def scalarize(t, proj):
    """Project a tensor to a scalar with fixed weights so FD applies."""
    return ad.reduce_sum(ad.mul(t, proj))


@pytest.fixture
def gradcheck():
    return check_gradients


def bilinear(x, y, u, w, b):
    """x'Uy + W[x;y] + b  ->  scalar, for one (x, y) pair.

    Per-pair oracle for the vectorized edge scorer of
    ``biaffine.BiaffineHead``.
    """
    x, y = ad.as_tensor(x), ad.as_tensor(y)
    d1 = x.data.shape[0]
    d2 = y.data.shape[0]
    xr = ad.reshape(x, (1, d1))
    yc = ad.reshape(y, (d2, 1))
    quad = ad.matmul(ad.matmul(xr, u), yc)
    lin = ad.matmul(ad.reshape(ad.as_tensor(w), (1, d1 + d2)),
                    ad.reshape(ad.concat([x, y]), (d1 + d2, 1)))
    return ad.reshape(ad.add(ad.add(quad, lin), b), ())


def bilinear_label(x, y, u_classes, w_classes):
    """Per-class x'U_c y + W_c y (no bias, no x linear term) -> (C,) scores.

    Per-pair oracle for the label scorer of ``biaffine.BiaffineHead``.
    """
    x, y = ad.as_tensor(x), ad.as_tensor(y)
    d2 = y.data.shape[0]
    yc = ad.reshape(y, (d2, 1))
    # (C, d1, d2) @ (d2, 1) -> (C, d1, 1); contract with x -> (C,)
    uy = ad.matmul(u_classes, yc)
    quad = ad.reshape(ad.matmul(ad.reshape(x, (1, 1, -1)), uy), (-1,))
    lin = ad.reshape(ad.matmul(w_classes, yc), (-1,))
    return ad.add(quad, lin)


# ---------------------------------------------------------------------------
# the biaffine head and the frame classifier as the elementary ops built
# them before ``ad.mlp``, ``ad.biaffine_edge`` and ``ad.biaffine_label``:
# three nodes and a dropout per MLP, the scorers out of matmul,
# transpose, reshape, split and add.  The fused forwards must equal them
# byte for byte, the fused gradients within 1e-10 relative, dropout on,
# and leave the generator where they leave it.

def reference_elu(a):
    """The rectifier op of the composed MLPs: x above 0, exp(x) - 1 below."""
    a = ad.as_tensor(a)
    neg_part = np.exp(np.minimum(a.data, 0.0)) - 1.0

    def rule(g):
        a.accumulate(g * np.where(a.data > 0, 1.0, neg_part + 1.0))

    return ad._make(np.where(a.data > 0, a.data, neg_part), (a,), rule)


def reference_tanh(a):
    """Elementwise tanh as one node: the op the library had before
    ``ad.additive_attention`` took its last caller."""
    a = ad.as_tensor(a)
    out = np.tanh(a.data)

    def rule(g):
        a.accumulate(g * (1.0 - out * out))

    return ad._make(out, (a,), rule)


def reference_transpose(a):
    """Swap the last two axes."""
    a = ad.as_tensor(a)

    def rule(g):
        a.accumulate(np.swapaxes(g, -1, -2))

    return ad._make(np.swapaxes(a.data, -1, -2), (a,), rule)


def reference_mlp(mlp, x, p, rng):
    """An ``encoder.Mlp`` composed, then dropout."""
    return ad.dropout(reference_elu(ad.add(ad.matmul(x, mlp.w), mlp.b)), p, rng)


def reference_head_score(head, states, rng=None):
    """``biaffine.BiaffineHead.score`` composed: the same ``PairScores``."""
    states = ad.dropout(states, head.input_dropout, rng)
    ef = reference_mlp(head.edge_from, states, head.edge_dropout, rng)
    et = reference_mlp(head.edge_to, states, head.edge_dropout, rng)
    lf = reference_mlp(head.label_from, states, head.label_dropout, rng)
    lt = reference_mlp(head.label_to, states, head.label_dropout, rng)
    n, width = states.shape[0], head.u_edge.shape[0]
    # edge: x'Uy + W[x;y] + b over all pairs at once
    quad = ad.matmul(ad.matmul(ef, head.u_edge), reference_transpose(et))
    w_from, w_to = ad.split(head.w_edge, [width] * 2, axis=0)
    lin = ad.add(ad.matmul(ef, w_from), reference_transpose(ad.matmul(et, w_to)))
    edge_probs = ad.sigmoid(ad.add(ad.add(quad, lin), head.b_edge))
    # labels: per class x'U_c y + W_c y (no bias, no x term)
    c, width = len(head.labels), lf.shape[1]
    lf3 = ad.reshape(lf, (1, n, width))
    tt3 = ad.reshape(reference_transpose(lt), (1, width, n))
    scores = ad.add(ad.matmul(ad.matmul(lf3, head.u_label), tt3),
                    ad.matmul(head.w_label, tt3))
    label_logits = reference_transpose(ad.reshape(scores, (c, n * n)))
    return biaffine.PairScores(edge_probs=edge_probs, label_logits=label_logits,
                               n_positions=n, labels=head.labels)


def reference_frame_predict(clf, states, rng=None):
    """``sdp.FrameClassifier.predict`` composed, head by head."""
    logits = [ad.add(ad.matmul(reference_mlp(mlp, states, clf.drop, rng), out.w), out.b)
              for mlp, out in zip(clf.mlps, clf.outs)]
    return sdp.FramePrediction(type_logits=logits[0], arg_logits=logits[1:])


def reference_sigmoid(x):
    """The two-branch logistic that ``ad._sigmoid`` must equal byte for
    byte."""
    e = np.exp(-np.abs(x))
    return np.where(x >= 0, 1.0 / (1.0 + e), e / (1.0 + e))


def reference_group_drop_mask(cfg, shape, rng):
    """The per-token loop ``Encoder._group_drop`` ran before one (n, 3)
    draw replaced it: three scalar draws per token (lemma, POS, the
    rest), each zeroing its feature group."""
    mask = np.ones(shape)
    lo_lemma = cfg.surface_dim
    lo_pos = lo_lemma + cfg.lemma_dim
    lo_ne = lo_pos + cfg.pos_dim
    for i in range(shape[0]):
        if rng.random() < cfg.lemma_drop:
            mask[i, lo_lemma:lo_pos] = 0.0
        if rng.random() < cfg.pos_drop:
            mask[i, lo_pos:lo_ne] = 0.0
        if rng.random() < cfg.word_drop:
            mask[i, :lo_lemma] = 0.0
            mask[i, lo_ne:] = 0.0
    return mask


def reference_nll_of_probs(probs, targets, g):
    """Value and gradient, under the upstream gradient ``g``, of the
    five ops ``ad.nll_of_probs`` once composed, each rule in numpy as it
    ran: neg(reduce_sum(log(clip_low(pick(probs, targets))))), the
    clip at 1e-9 passing the gradient only where p >= 1e-9.  The fused
    op must equal both byte for byte."""
    idx = (np.arange(probs.shape[0]), np.asarray(targets, dtype=np.int64))
    picked = probs[idx]
    clipped = np.maximum(picked, 1e-9)
    value = -np.log(clipped).sum()
    g_sum = -np.asarray(g)                                  # neg
    g_log = np.broadcast_to(g_sum, picked.shape).copy()     # reduce_sum
    g_clip = g_log / clipped                                # log
    g_pick = g_clip * (picked >= 1e-9)                      # clip_low
    grad = np.zeros_like(probs)
    np.add.at(grad, idx, g_pick)                            # pick
    return value, grad


def reference_lstm_step(x, h, c, wx, wh, b):
    """One LSTM step composed from elementary ops; returns (h', c').

    This per-step composition is the oracle for ``ad.lstm_sequence``:
    its forward must stay within 1e-12 of it, step by step over the rows
    of every sequence it runs, and its gradients within 1e-10 relative.
    """
    hsz = wh.shape[0]
    z = ad.add(ad.add(ad.matmul(x, wx), ad.matmul(h, wh)), b)
    gi, gf, gg, go = ad.split(z, [hsz] * 4, axis=1)
    c2 = ad.add(ad.mul(ad.sigmoid(gf), c), ad.mul(ad.sigmoid(gi), reference_tanh(gg)))
    h2 = ad.mul(ad.sigmoid(go), reference_tanh(c2))
    return h2, c2


def reference_lstm_sequence(x, wx, wh, b, reverse=False, h0=None, c0=None):
    """Composed counterpart of ``ad.lstm_sequence``: (h, c), each (T, H)."""
    x = ad.as_tensor(x)
    n, hsz = x.shape[0], wh.shape[0]
    xs = ad.split(x, [1] * n, axis=0)
    h = c = ad.Tensor(np.zeros((1, hsz)))
    if h0 is not None:
        h, c = h0, c0
    hs, cs = [None] * n, [None] * n
    for t in (range(n - 1, -1, -1) if reverse else range(n)):
        h, c = reference_lstm_step(xs[t], h, c, wx, wh, b)
        hs[t], cs[t] = h, c
    return ad.concat(hs, axis=0), ad.concat(cs, axis=0)


def replication_count(g):
    """Node count ``amr.dag_to_tree(g)`` must have: originals plus one
    replica per extra incoming edge."""
    indeg = {}
    for e in g.edges:
        indeg[e.target] = indeg.get(e.target, 0) + 1
    return len(g.nodes) + sum(max(0, k - 1) for k in indeg.values())


def tree_round_trip(tree, gid, text, records=None, sense_table=None):
    """Graph of a gold ``amr.AmrTree`` through ``amr.assemble_graph``:
    the inverse of ``amr.dag_to_tree``."""
    parents = [n.parent for n in tree.nodes]
    edge_labels = [n.edge_label for n in tree.nodes]
    copy_of = [n.copy_of for n in tree.nodes]
    return amr.assemble_graph(tree.labels(), copy_of, parents, edge_labels,
                              gid, text, records=records, sense_table=sense_table)


def arborescence_score(scores, parents, root=0):
    """Total score of the arcs ``parents[j] -> j``, root excluded."""
    return float(sum(scores[p, j] for j, p in enumerate(parents) if j != root))


# ---------------------------------------------------------------------------
# the per-framework objectives that ``training.multitask_loss`` replaced;
# each single and fine-tuning preset's lam_* fields must reproduce them

def sdp_joint_loss(dm_edge, dm_label, psd_edge, psd_label, dm_frame,
                   lam_label, lam_frame):
    """lam_label (label_dm + label_psd + lam_frame frame_dm)
    + (1 - lam_label)(edge_dm + edge_psd)."""
    label_part = ad.add(ad.add(dm_label, psd_label), ad.mul(dm_frame, lam_frame))
    edge_part = ad.add(dm_edge, psd_edge)
    return ad.add(ad.mul(label_part, lam_label), ad.mul(edge_part, 1.0 - lam_label))


def ucca_loss(edge, label, remote, dec):
    """0.3 edge + 0.3 label + 0.2 remote + 0.2 pointer."""
    total = ad.mul(edge, 0.3)
    total = ad.add(total, ad.mul(label, 0.3))
    total = ad.add(total, ad.mul(remote, 0.2))
    return ad.add(total, ad.mul(dec, 0.2))


def amr_loss(edge, label, dec, cov, biaf, label_weight, cov_weight):
    """biaf (label_weight label + (1 - label_weight) edge) + cov_weight cov
    + the remainder (1 - biaf - cov_weight) on the generator."""
    inner = ad.add(ad.mul(label, label_weight), ad.mul(edge, 1.0 - label_weight))
    total = ad.add(ad.mul(inner, biaf), ad.mul(cov, cov_weight))
    return ad.add(total, ad.mul(dec, 1.0 - biaf - cov_weight))


def per_framework_loss(cfg, terms):
    """The objective a single or fine-tuning preset used to train with,
    chosen by its frameworks."""
    if "amr" in cfg.frameworks:
        return amr_loss(terms["amr.edge"], terms["amr.label"], terms["amr.dec"],
                        terms["amr.cov"], cfg.lam_biaf, cfg.lam_label, cfg.lam_cov)
    if "ucca" in cfg.frameworks:
        return ucca_loss(terms["ucca.edge"], terms["ucca.label"],
                         terms["ucca.remote"], terms["ucca.dec"])
    zero = ad.Tensor(0.0)
    return sdp_joint_loss(*[terms.get(k, zero) for k in
                            ("dm.edge", "dm.label", "psd.edge", "psd.label",
                             "dm.frame")],
                          cfg.lam_label, cfg.lam_frame)


# ---------------------------------------------------------------------------
# the UCCA pointer decoder as it was before teacher forcing ran whole
# sequences: one LSTM step and one attention row per pointer, the keys
# projected inside every step, one cross-entropy term per row.  Teacher
# forcing agrees with it to 1e-10 relative; free-running decoding, which
# projects the keys once, reproduces it bit for bit.

def ucca_slot_of_node(g, ser):
    """Node id -> slot index of the gold UCCA graph ``g`` under its
    serialization ``ser``: ``ucca.serialize_ucca`` writes the tops and
    the primary edges of ``g``, in graph order, as the slots of
    ``ser.tops`` and the slot pairs that open ``ser.edges``."""
    primary = [e for e in g.edges if not ucca.is_remote(e) and e.label != ucca.CT_LABEL]
    slot = dict(zip(g.tops, ser.tops))
    for e, (source, target, _) in zip(primary, ser.edges):
        slot[e.source], slot[e.target] = source, target
    return slot


def reference_pointer_decode(enc_out, decoder, gold_pointers=None):
    """Counterpart of ``ucca.pointer_decode``: (pointers, list of (1, n)
    score rows, truncated)."""
    states = enc_out.top
    cap = max(1, 2 * (states.shape[0] - 1))
    h, c = decoder.init_state(enc_out)
    x_pos, rows, pointers = 0, [], []
    while True:
        h, c = decoder.cell.sequence(ad.rows(states, [x_pos]), h0=h, c0=c)
        mixed = reference_tanh(ad.add(ad.matmul(h, decoder.w_dec),
                               ad.matmul(states, decoder.w_enc)))
        rows.append(ad.reshape(ad.matmul(mixed, decoder.v), (1, states.shape[0])))
        if gold_pointers is not None:
            x_pos = gold_pointers[len(pointers)]
        else:
            x_pos = int(np.argmax(rows[-1].data[0]))
        pointers.append(x_pos)
        if gold_pointers is not None and len(pointers) == len(gold_pointers):
            return tuple(pointers), rows, False
        if gold_pointers is None and (x_pos == 0 or len(pointers) >= cap):
            return tuple(pointers), rows, x_pos != 0


def reference_pointer_loss(rows, gold_pointers):
    """The pointer loss, ``ad.cross_entropy_logits`` of the (T, n)
    attention rows, as one term per row."""
    total = ad.Tensor(0.0)
    for row, p in zip(rows, gold_pointers):
        total = ad.add(total, ad.cross_entropy_logits(row, [p]))
    return total


def reference_node_states(enc_out, pointers, decoder, extra_lstm, rng=None):
    """``ucca.build_node_states`` as it was before one gather took every
    slot row: each slot row its own ``ad.rows`` of the encoder states (the
    bullet for a non-terminal), concatenated, then the positions, through
    ``extra_lstm``."""
    bullet = decoder.bullet()
    states = enc_out.top
    slots = ucca.build_slots(pointers, states.shape[0] - 1)
    pre = ad.concat([bullet if slot[0] == "nt" else
                     ad.rows(states, [slot[1] + 1 if slot[0] == "tok" else 0])
                     for slot in slots], axis=0)
    pe = ad.Tensor(ucca.sinusoidal_positions(len(slots), ucca.PE_DIM))
    return extra_lstm.run(ad.concat([pre, pe], axis=1), rng).top


# ---------------------------------------------------------------------------
# the decoders' attention and the AMR pointer-generator mixture as the
# elementary ops built them before ``ad.additive_attention`` and
# ``ad.pointer_mixture``.  The fused forwards and gradients must equal
# them byte for byte.

def reference_additive_attention(h, keys, w_dec, v):
    """``ad.additive_attention`` composed: matmul, reshape, add, tanh,
    reshape, matmul, reshape."""
    k, att = h.shape[0], w_dec.shape[1]
    query = ad.reshape(ad.matmul(h, w_dec), (k, 1, att))
    mixed = reference_tanh(ad.add(query, keys))  # (k, n, att)
    n = mixed.shape[1]
    return ad.reshape(ad.matmul(ad.reshape(mixed, (k * n, att)), v), (k, n))


def reference_pointer_mixture(a_src, hist_scores, vocab_logits, gate_logits,
                              hist_bias, gate_bias):
    """``ad.pointer_mixture`` composed: the switch softmax split in three,
    the history and vocabulary softmaxes, three products and a concat."""
    vocab_p = ad.softmax(vocab_logits, axis=-1)
    if gate_bias is not None:
        gate_logits = ad.add(gate_logits, gate_bias)
    gate = ad.softmax(gate_logits, axis=-1)
    g_src, g_hist, g_voc = ad.split(gate, [1, 1, 1], axis=1)
    parts = [ad.mul(a_src, g_src)]
    if hist_scores is not None:
        if hist_bias is not None:
            hist_scores = ad.add(hist_scores, hist_bias)
        parts.append(ad.mul(ad.softmax(hist_scores, axis=-1), g_hist))
    parts.append(ad.mul(vocab_p, g_voc))
    return ad.concat(parts, axis=1)


# ---------------------------------------------------------------------------
# the AMR decoder as it was before the inference fast path, the batched
# beam and whole-sequence teacher forcing: one row per step, source and
# history keys projected inside every step, a node feature built for
# every beam candidate, one loss term per step.  Teacher forcing agrees
# with it to 1e-10 relative, dropout masks included; the batched beam
# gives the same discrete decodes, and its floats agree to 1e-10.

@dataclass
class RefHyp:
    labels: tuple = ()
    copy_of: tuple = ()
    src_token: tuple = ()
    states: tuple = ()
    log_prob: float = 0.0
    h: object = None
    c: object = None
    x: object = None
    truncated: bool = False


def _ref_generation(hyp):
    return amr.AmrGeneration(hyp.labels, hyp.copy_of, hyp.src_token,
                             list(hyp.states), hyp.log_prob,
                             truncated=hyp.truncated)


def normalized_score(gen):
    """Log-probability per step of an ``amr.AmrGeneration``, the closing
    step included: the score ``amr.beam_search`` ranks finished
    hypotheses by."""
    return gen.log_prob / max(1, len(gen.labels) + 1)


def reference_node_feature(encoder, label, pos=None):
    """One node's (1, F) input row, as ``amr.node_features`` builds it
    row by row."""
    v = encoder.vocab
    lemma = ad.rows(encoder.lemma_emb, [v.lemma_id(label)])
    if pos is None:
        pos_vec = ad.Tensor(np.zeros((1, encoder.config.pos_dim)))
    else:
        pos_vec = ad.rows(encoder.pos_emb, [v.pos_id(pos)])
    static_h = encoder.static_mlp(ad.Tensor(encoder.static.matrix([label])))
    return ad.concat([lemma, pos_vec, static_h], axis=1)


def _reference_attend(h, keys, w_dec, w_enc, v):
    mixed = reference_tanh(ad.add(ad.matmul(h, w_dec), ad.matmul(keys, w_enc)))
    return ad.reshape(ad.matmul(mixed, v), (1, keys.shape[0]))  # (1, n_keys)


def reference_initial(dec, finals):
    """``amr.AmrDecoder.initial`` with its packed state cut into lists
    ``h`` and ``c`` of one (1, H) tensor per layer, bottom first."""
    x, state = dec.initial(finals)
    parts = ad.split(state, [dec.hidden] * (2 * dec.n_layers), axis=1)
    return x, parts[:dec.n_layers], parts[dec.n_layers:]


def reference_amr_step(dec, x, h, c, token_states, history, train=False,
                       rng=None):
    """``amr.AmrDecoder.step`` of ``dec`` on raw token states, one
    ``LstmCell.sequence`` per layer over the per-layer states ``h`` and
    ``c`` of :func:`reference_initial`, plus the source attention that
    teacher forcing's coverage loss reads; with ``train``, inter-layer
    dropout draws its mask from ``rng``."""
    cur = x
    new_h, new_c = [], []
    for l, cell in enumerate(dec.cells):
        if l > 0 and train:
            cur = ad.dropout(cur, dec.dropout, rng)
        hl, cl = cell.sequence(cur, h0=h[l], c0=c[l])
        new_h.append(hl)
        new_c.append(cl)
        cur = hl
    hx = new_h[-1]
    a_src = ad.softmax(_reference_attend(hx, token_states, dec.src_dec,
                                         dec.src_enc, dec.src_v), axis=-1)
    vocab_p = ad.softmax(dec.vocab_head(hx), axis=-1)
    gate_logits = dec.switch(hx)
    if history:
        hist = ad.concat(history, axis=0)
        a_hist = ad.softmax(_reference_attend(hx, hist, dec.hist_dec,
                                              dec.hist_enc, dec.hist_v), axis=-1)
    else:
        a_hist = None
        gate_logits = ad.add(gate_logits,
                             ad.Tensor(np.array([[0.0, -1e30, 0.0]])))
    gate = ad.softmax(gate_logits, axis=-1)
    g_src, g_hist, g_voc = ad.split(gate, [1, 1, 1], axis=1)
    parts = [ad.mul(a_src, g_src)]
    if a_hist is not None:
        parts.append(ad.mul(a_hist, g_hist))
    parts.append(ad.mul(vocab_p, g_voc))
    return new_h, new_c, ad.concat(parts, axis=1), a_src


def reference_teacher_forced(ctx, gold, train=False, rng=None):
    """Counterpart of ``amr.run_teacher_forced``: per-step lists of
    mixture rows (row i is L + i + V wide), source attentions and
    top-layer node states."""
    x, h, c = reference_initial(ctx.decoder, ctx.finals)
    ps, attns, states = [], [], []
    n = len(gold.labels)
    for i in range(n + 1):
        h, c, p, a_src = reference_amr_step(ctx.decoder, x, h, c,
                                            ctx.token_states, states,
                                            train=train, rng=rng)
        ps.append(p)
        attns.append(a_src)
        if i == n:
            break
        states.append(h[-1])
        pos = None
        if gold.src_token[i] is not None:
            pos = ctx.xpos[gold.src_token[i]]
        x = reference_node_feature(ctx.encoder, gold.labels[i], pos)
    return ps, attns, states


def reference_decoder_loss(ps, targets):
    """Counterpart of ``amr.decoder_loss``: one term per step row."""
    total = ad.Tensor(0.0)
    for p, t in zip(ps, targets):
        total = ad.add(total, ad.nll_of_probs(p, [t]))
    return total


def reference_coverage_loss(attentions):
    """Counterpart of ``amr.coverage_loss``: a running coverage sum."""
    cov = ad.Tensor(np.zeros(attentions[0].shape))
    total = ad.Tensor(0.0)
    for a in attentions:
        total = ad.add(total, ad.reduce_sum(ad.minimum(a, cov)))
        cov = ad.add(cov, a)
    return total


def reference_greedy_decode(ctx):
    """Counterpart of ``amr.greedy_decode``."""
    L = len(ctx.lemmas)
    cap = amr.default_cap(L)
    x, h, c = reference_initial(ctx.decoder, ctx.finals)
    hyp = RefHyp(h=h, c=c, x=x)
    for step in range(cap + 1):
        h, c, p, _ = reference_amr_step(ctx.decoder, hyp.x, hyp.h, hyp.c,
                                        ctx.token_states, list(hyp.states))
        row = p.data[0]
        end_at = L + len(hyp.labels) + ctx.vocab.end_index
        order = np.argsort(-row, kind="stable")
        idx = int(order[0])
        if idx == end_at and step == 0:
            idx = int(order[1])
        logp = hyp.log_prob + float(np.log(max(row[idx], 1e-12)))
        if idx == end_at:
            hyp = RefHyp(hyp.labels, hyp.copy_of, hyp.src_token,
                         hyp.states, logp)
            return _ref_generation(hyp)
        label, copy, src = amr._decode_index(ctx, idx, hyp.labels)
        pos = None if src is None else ctx.xpos[src]
        hyp = RefHyp(hyp.labels + (label,),
                     hyp.copy_of + (copy,), hyp.src_token + (src,),
                     hyp.states + (h[-1],), logp, h=h, c=c,
                     x=reference_node_feature(ctx.encoder, label, pos))
    hyp.truncated = True
    return _ref_generation(hyp)


# the batched beam's products round differently from one step per
# hypothesis: its floats agree with the reference to this much
BEAM_TOL = 1e-10


def assert_same_generation(want, got, tol=0.0):
    """Equal discrete fields; log-probability and states equal bit for
    bit, or within ``tol`` when it is positive."""
    assert got.labels == want.labels
    assert got.copy_of == want.copy_of
    assert got.src_token == want.src_token
    assert got.truncated == want.truncated
    assert len(got.states) == len(want.states)
    pairs = list(zip(want.states, got.states))
    for w, g in pairs:
        assert (g.data.dtype, g.data.shape) == (w.data.dtype, w.data.shape)
    if tol == 0.0:
        assert got.log_prob == want.log_prob
        for w, g in pairs:
            assert g.data.tobytes() == w.data.tobytes()
    else:
        assert abs(got.log_prob - want.log_prob) <= tol
        for w, g in pairs:
            np.testing.assert_allclose(g.data, w.data, rtol=0.0, atol=tol)


def spy(monkeypatch, owner, name):
    """The argument tuples of every call of ``owner.name`` from now on."""
    calls, real = [], getattr(owner, name)
    monkeypatch.setattr(owner, name, lambda *a, **kw: calls.append(a) or real(*a, **kw))
    return calls


def count_decoder_steps(monkeypatch):
    """A list that grows by one entry per ``amr.AmrDecoder.step`` call."""
    steps = []
    step = amr.AmrDecoder.step
    monkeypatch.setattr(amr.AmrDecoder, "step",
                        lambda *args: steps.append(1) or step(*args))
    return steps


def reference_beam_search(ctx, width=5):
    """Counterpart of ``amr.beam_search`` that never stops early: every
    search runs all ``cap + 1`` steps and keeps every finish, so it is the
    run-to-cap oracle for the beam's early stop."""
    if width == 1:
        return reference_greedy_decode(ctx)
    L = len(ctx.lemmas)
    cap = amr.default_cap(L)
    x0, h0, c0 = reference_initial(ctx.decoder, ctx.finals)
    beams = [RefHyp(h=h0, c=c0, x=x0)]
    done = []
    for step in range(cap + 1):
        candidates = []
        for hyp in beams:
            h, c, p, _ = reference_amr_step(ctx.decoder, hyp.x, hyp.h, hyp.c,
                                            ctx.token_states, list(hyp.states))
            row = p.data[0]
            end_at = L + len(hyp.labels) + ctx.vocab.end_index
            order = np.argsort(-row, kind="stable")[: width + 1]
            for idx in order:
                idx = int(idx)
                logp = hyp.log_prob + float(np.log(max(row[idx], 1e-12)))
                if idx == end_at:
                    if step == 0:
                        continue
                    done.append(RefHyp(hyp.labels, hyp.copy_of,
                                       hyp.src_token, hyp.states, logp))
                    continue
                label, copy, src = amr._decode_index(ctx, idx, hyp.labels)
                pos = None if src is None else ctx.xpos[src]
                candidates.append(RefHyp(
                    hyp.labels + (label,),
                    hyp.copy_of + (copy,), hyp.src_token + (src,),
                    hyp.states + (h[-1],), logp, h=h, c=c,
                    x=reference_node_feature(ctx.encoder, label, pos)))
        beams = sorted(candidates, key=lambda c: -c.log_prob)[:width]
        if not beams:
            break
    if not done:
        for hyp in beams:
            hyp.truncated = True
        done = beams
    return _ref_generation(max(
        done, key=lambda h: (normalized_score(_ref_generation(h)),
                             -len(h.labels), tuple(h.labels))))


def reference_expand(p, beams, end_at, width, can_finish):
    """Counterpart of ``amr._expand``: the scalar loop it replaced, one
    ``np.log`` per candidate."""
    orders = np.argsort(-p, axis=1, kind="stable")[:, : width + 1]
    candidates, finishes = [], []
    for j, hyp in enumerate(beams):
        row = p[j]
        for idx in orders[j]:
            idx = int(idx)
            logp = hyp.log_prob + float(np.log(max(row[idx], 1e-12)))
            if idx != end_at:
                candidates.append((logp, j, idx))
            elif can_finish:
                finishes.append((logp, j))
    return sorted(candidates, key=lambda cand: -cand[0])[:width], finishes


def reference_next_inputs(ctx, hyps, parents, state, h, hist_keys, features):
    """Counterpart of ``amr._next_inputs`` that leaves ``features`` alone
    and builds every hypothesis's node feature at every step."""
    poses = [None if hyp.src_token[-1] is None else ctx.xpos[hyp.src_token[-1]]
             for hyp in hyps]
    x = amr.node_features(ctx.encoder, [hyp.labels[-1] for hyp in hyps], poses)
    new_keys = ad.matmul(ad.rows(h, parents), ctx.decoder.hist_enc)
    new_keys = ad.reshape(new_keys, (len(hyps), 1, new_keys.shape[1]))
    if hist_keys is not None:
        new_keys = ad.concat([ad.rows(hist_keys, parents), new_keys], axis=1)
    return x, ad.rows(state, parents), new_keys


# ---------------------------------------------------------------------------
# the synthetic corpus on disk, for the command line tests

def write_companion(sentences, stream):
    """Inverse of ``graphs.read_companion``; ne column always written."""
    for sid in sentences:
        stream.write(f"#{sid}\n")
        for r in sentences[sid]:
            stream.write("\t".join([str(r.index), r.surface, r.lemma, r.upos, r.xpos,
                                    r.ne, str(r.anchor.start), str(r.anchor.end)]))
            stream.write("\n")


def write_corpus(corpus, dirpath):
    """Materialize a ``datagen.SynthCorpus`` in its on-disk formats;
    returns the paths."""
    os.makedirs(dirpath, exist_ok=True)
    paths = {"companion": os.path.join(dirpath, "companion.tsv"),
             "static": os.path.join(dirpath, "glove.txt"),
             "contextual": os.path.join(dirpath, "contextual.npz"),
             "rules": os.path.join(dirpath, "eds_rules.json")}
    with open(paths["companion"], "w", encoding="utf-8") as fh:
        write_companion({s.id: list(s.tokens) for s in corpus.sentences}, fh)
    for fw in G.FRAMEWORKS:
        graphs = [s.graphs[fw] for s in corpus.sentences if fw in s.graphs]
        paths[fw] = os.path.join(dirpath, f"{fw}.mrp")
        G.save_mrp(graphs, paths[fw])
    with open(paths["static"], "w", encoding="utf-8") as fh:
        for word in sorted(corpus.static.table):
            vec = corpus.static.table[word]
            fh.write(word + " " + " ".join(f"{x:.8f}" for x in vec) + "\n")
    with open(paths["contextual"], "wb") as fh:
        np.savez(fh, **corpus.contextual.arrays)
    corpus.rules.save(paths["rules"])
    return paths


# ---------------------------------------------------------------------------
# ensemble selection as it was before it cached member predictions: each
# subset the greedy scan tries re-parses every member on every sentence.
# The cached scan must pick the same members with the same F1.  The
# per-framework predictions are written out here, as they were before
# each framework's handling moved onto a task object, so that the oracle
# shares no code with the path it checks.

def reference_decode_flavor0(scores):
    """``biaffine.decode_flavor0`` as scalar loops, on pair scores: no
    self-loops, labels by the argmax of the label logits."""
    p = scores.edge_probs.data
    n = scores.n_positions
    best = scores.label_logits.data.argmax(axis=-1).reshape(n, n)
    edges = []
    incident = set()
    for i in range(1, n):
        for j in range(1, n):
            if i != j and p[i, j] > 0.5:
                edges.append((i, j, scores.labels[best[i, j]]))
                incident.add(i)
                incident.add(j)
    tops = [j for j in range(1, n) if p[0, j] > 0.5]
    kept = sorted(incident | set(tops))
    return biaffine.Flavor0Decode(edges=edges, tops=tops, kept=kept)


def reference_combine_pair_scores(scores_list):
    """Mean edge probabilities; label distributions averaged in
    probability space and re-expressed as log-prob logits."""
    labels = T._require_same_labels([s.labels for s in scores_list], "edge labels")
    n = scores_list[0].n_positions
    edge = np.mean([s.edge_probs.data for s in scores_list], axis=0)
    probs = np.mean([s.label_probs() for s in scores_list], axis=0)
    logits = np.log(np.clip(probs, 1e-12, None)).reshape(n * n, len(labels))
    return biaffine.PairScores(edge_probs=ad.Tensor(edge),
                               label_logits=ad.Tensor(logits),
                               n_positions=n, labels=labels)


def reference_softmax(x):
    e = np.exp(x - x.max(axis=-1, keepdims=True))
    return e / e.sum(axis=-1, keepdims=True)


@dataclass
class ReferenceFrames:
    """``sdp.FramePrediction`` as it was: the frame classifier's logits
    with its inventories."""
    type_logits: ad.Tensor
    arg_logits: list
    types: list
    arg_classes: list

    def type_probs(self):
        return reference_softmax(self.type_logits.data)

    def arg_probs(self, k):
        return reference_softmax(self.arg_logits[k].data)


def reference_combine_frames(preds):
    """Probability-space average of the frame classifier heads."""
    types = T._require_same_labels([p.types for p in preds], "frame types")
    args = T._require_same_labels([p.arg_classes for p in preds], "frame arguments")

    def log_avg(mats):
        return ad.Tensor(np.log(np.clip(np.mean(mats, axis=0), 1e-12, None)))

    type_logits = log_avg([p.type_probs() for p in preds])
    arg_logits = [log_avg([p.arg_probs(k) for p in preds])
                  for k in range(sdp.N_ARG_HEADS)]
    return ReferenceFrames(type_logits=type_logits, arg_logits=arg_logits,
                           types=types, arg_classes=args)


def reference_lexicon(rows):
    if not rows:
        return None
    return sdp.FrameLexicon([sdp.FrameEntry(lemma, pos, frame, tuple(args), freq)
                             for lemma, pos, frame, args, freq in rows])


def reference_sdp_graph(model, framework, sid, tokens, text, scores, frame_pred):
    """Pair scores decoded into a flavor-0 graph, each framework's frames
    picked by a lexicon built from the model's inventory rows."""
    dm_lexicon = reference_lexicon(model.inv.dm_lexicon_rows)
    psd_lexicon = reference_lexicon(model.inv.psd_lexicon_rows)
    decoded = reference_decode_flavor0(scores)
    token_ids = [p - 1 for p in decoded.kept]
    node_id_of = {tok: idx for idx, tok in enumerate(token_ids)}
    out_edges_of = {}
    for i, j, lab in decoded.edges:
        out_edges_of.setdefault(i - 1, []).append(lab)
    with_frames = framework == "dm" and frame_pred is not None
    if with_frames:
        type_probs = frame_pred.type_probs()
        arg_probs = [frame_pred.arg_probs(k) for k in range(sdp.N_ARG_HEADS)]
    nodes = []
    for tok_idx in token_ids:
        tok = tokens[tok_idx]
        props = [("pos", tok.xpos)]
        if with_frames:
            frame = sdp.reconstruct_dm_frame(
                type_probs[tok_idx + 1], [p[tok_idx + 1] for p in arg_probs],
                tok.lemma, dm_lexicon, frame_pred.types, frame_pred.arg_classes)
            props.append(("frame", frame))
        elif framework == "psd":
            frame = sdp.reconstruct_psd_frame(tok.lemma, tok.xpos,
                                              out_edges_of.get(tok_idx, []),
                                              psd_lexicon)
            if frame is not None:
                props.append(("frame", frame))
        nodes.append(G.MrpNode(node_id_of[tok_idx], label=tok.lemma,
                               properties=tuple(props), anchors=(tok.anchor,)))
    edges = tuple(G.MrpEdge(node_id_of[i - 1], node_id_of[j - 1], lab)
                  for i, j, lab in decoded.edges)
    tops = tuple(node_id_of[p - 1] for p in decoded.tops)
    return G.MrpGraph(id=sid, flavor=0, framework=framework, input=text,
                      tops=tops, nodes=tuple(nodes), edges=edges)


def reference_sdp_prediction(model, sent, fw):
    [enc_out] = model.encode([sent])
    scores = model.heads[fw].score(enc_out.top)
    if fw != "dm":
        return scores, None
    clf = model.frame_clf
    pred = clf.predict(enc_out.top)
    return scores, ReferenceFrames(pred.type_logits, pred.arg_logits,
                                   clf.types, clf.arg_classes)


def reference_ucca_prediction(model, sent):
    [enc_out] = model.encode([sent])
    dec = ucca.pointer_decode(enc_out, model.ucca_decoder)
    states = ucca.build_node_states(enc_out, dec.pointers, model.ucca_decoder,
                                    model.ucca_extra)
    scores = model.heads["ucca"].score(states)
    remote = model.remote_head.score(states)
    return ucca.UccaPrediction(pointers=dec.pointers,
                               edge_probs=scores.edge_probs.data,
                               label_probs=scores.label_probs(),
                               remote_probs=remote.edge_probs.data)


def reference_amr_prediction(model, sent, beam):
    """(generation, edge probabilities, label probabilities) for one
    sentence, the probabilities None for an empty generation."""
    [enc_out] = model.encode([sent])
    ctx = model.amr_context(sent, enc_out)
    gen = amr.beam_search(ctx, width=beam)
    if not gen.labels:
        return gen, None, None
    states = ad.concat(list(gen.states), axis=0)
    scores = model.heads["amr"].score(states)
    return gen, scores.edge_probs.data, scores.label_probs()


@ad.no_grad()
def reference_parse_sentence(model, sent, framework, beam=5):
    """Counterpart of ``training.parse_sentence``."""
    text = T.companion_text(sent.tokens)
    if framework in ("dm", "psd"):
        if framework not in model.heads:
            raise ValueError(f"model has no {framework} head")
        scores, frames = reference_sdp_prediction(model, sent, framework)
        return reference_sdp_graph(model, framework, sent.id, sent.tokens, text,
                                   scores, frames)
    if framework == "ucca":
        if model.ucca_decoder is None:
            raise ValueError("model has no ucca decoder")
        pred = reference_ucca_prediction(model, sent)
        return ucca.decode_graph(pred, model.heads["ucca"].labels,
                                 sent.tokens, text, sent.id)
    if framework == "amr":
        if model.amr_decoder is None:
            raise ValueError("model has no amr decoder")
        gen, edge, label = reference_amr_prediction(model, sent, beam=beam)
        records = amr.records_from_ne(sent.tokens, model.inv.ne_map)
        graph, _ = amr.decode_graph(gen, edge, label, model.heads["amr"].labels,
                                    sent.id, text, records=records,
                                    sense_table=model.inv.sense_table)
        return graph
    raise ValueError(f"cannot parse framework {framework!r} with this model")


@ad.no_grad()
def reference_parse_ensemble(models, sent, framework, beam=5):
    """Counterpart of ``training.parse_ensemble``."""
    if len(models) == 1:
        return reference_parse_sentence(models[0], sent, framework, beam=beam)
    text = T.companion_text(sent.tokens)
    if framework in ("dm", "psd"):
        pairs = [reference_sdp_prediction(m, sent, framework) for m in models]
        scores = reference_combine_pair_scores([s for s, _ in pairs])
        frames = None
        if framework == "dm" and all(f is not None for _, f in pairs):
            frames = reference_combine_frames([f for _, f in pairs])
        return reference_sdp_graph(models[0], framework, sent.id, sent.tokens,
                                   text, scores, frames)
    if framework == "ucca":
        labels = T._require_same_labels([m.heads["ucca"].labels for m in models],
                                        "ucca labels")
        win = ucca.voting_ensemble([reference_ucca_prediction(m, sent) for m in models])
        return ucca.decode_graph(win, labels, sent.tokens, text, sent.id)
    if framework == "amr":
        raise ValueError("amr is served by its single best model, not combined")
    raise ValueError(f"no ensemble rule for framework {framework!r}")


def reference_build_ensemble(models, framework, sentences, beam=5):
    """Counterpart of ``training.build_ensemble``: (spec, F1)."""
    golds = [s.graphs[framework] for s in sentences]

    def score_fn(member_ids):
        if framework == "amr":
            preds = [reference_parse_sentence(models[member_ids[0]], s, "amr",
                                              beam=beam) for s in sentences]
        else:
            subset = [models[i] for i in member_ids]
            preds = [reference_parse_ensemble(subset, s, framework, beam=beam)
                     for s in sentences]
        return T.corpus_report(golds, preds).framework_f1(framework)

    candidates = list(range(len(models)))
    if framework == "amr":
        solo = {i: score_fn((i,)) for i in candidates}
        best = sorted(candidates, key=lambda i: (-solo[i], i))[0]
        return T.EnsembleSpec("amr", (best,), "single"), solo[best]
    members, best = T.greedy_ensemble(candidates, score_fn)
    rule = "vote" if framework == "ucca" else "average"
    return T.EnsembleSpec(framework, members, rule), best


# ---------------------------------------------------------------------------
# the correspondence search as it was before its hill climbs stopped at
# the multiset ceiling: every climb runs until a full pass finds no
# strict gain, and the restarts stop only at the tables' suffix bound;
# anchored pairs always climb, and character yields are sets.
# ``scoring.correspondence`` must return the same mapping.

def _reference_improve_by_swaps(values, unary, links):
    """Counterpart of ``scoring._improve_by_swaps`` without a cap."""
    n = len(values)
    spare = n - len(unary)
    if spare:
        unary = unary + [[0] * (max(values) + 1)] * spare
        links = links + [()] * spare
    best = S._sum_rows(unary, links, values, range(n))
    improved = True
    while improved:
        improved = False
        for i in range(n):
            for j in range(i + 1, n):
                if values[i] == values[j]:
                    continue
                rows = (i, j)
                before = S._sum_rows(unary, links, values, rows)
                values[i], values[j] = values[j], values[i]
                gain = S._sum_rows(unary, links, values, rows) - before
                if gain > 0:
                    best += gain
                    improved = True
                else:
                    values[i], values[j] = values[j], values[i]
        if improved or n > 12:
            continue
        for i, j, k in itertools.combinations(range(n), 3):
            rows = (i, j, k)
            before = S._sum_rows(unary, links, values, rows)
            for _ in range(2):
                values[i], values[j], values[k] = (values[j], values[k],
                                                   values[i])
                gain = S._sum_rows(unary, links, values, rows) - before
                if gain > 0:
                    best += gain
                    improved = True
                    break
            else:
                values[i], values[j], values[k] = (values[j], values[k],
                                                   values[i])
            if improved:
                break
    return best


def _reference_children(g):
    children = {}
    for e in g.edges:
        if e.attribute_map().get("remote"):
            continue
        children.setdefault(e.source, []).append(e.target)
    return children


def _reference_signatures(g):
    """Counterpart of ``scoring.anchor_signatures`` on character sets."""
    children = _reference_children(g)
    own = {}
    for n in g.nodes:
        chars = set()
        for a in n.anchors:
            chars.update(range(a.start, a.end))
        own[n.id] = frozenset(chars)
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


def _reference_depths(g):
    """Counterpart of ``scoring._node_depths``."""
    children = _reference_children(g)
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


def _reference_anchored(gold, pred, matcher):
    sig_g = _reference_signatures(gold)
    sig_p = _reference_signatures(pred)
    dep_g, dep_p = _reference_depths(gold), _reference_depths(pred)
    cands = []
    for gn in gold.nodes:
        for pn in pred.nodes:
            a, b = sig_g[gn.id], sig_p[pn.id]
            union = len(a | b)
            if union == 0:
                jac = 1.0
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
    _reference_improve_by_swaps(values, matcher.unary, matcher.links)
    return {g: pred_ids[v] for g, v in zip(gold_ids, values) if v != unmapped}


def _reference_search(matcher):
    gold_ids, pred_ids = matcher.gold_ids, matcher.pred_ids
    if not gold_ids or not pred_ids:
        return {}
    if (len(gold_ids) <= S.EXHAUSTIVE_LIMIT
            and len(pred_ids) <= S.EXHAUSTIVE_LIMIT):
        return S._exhaustive_correspondence(matcher)
    rng = np.random.default_rng(0)
    unmapped = len(pred_ids)
    slots = (list(range(len(pred_ids)))
             + [unmapped] * max(0, len(gold_ids) - len(pred_ids)))
    ceiling = S._suffix_bounds(matcher.unary,
                               S._earlier_links(matcher.links))[0]
    best_m, best_score = {}, -1
    for _ in range(S.HILL_CLIMB_RESTARTS):
        work = [slots[i] for i in rng.permutation(len(slots))]
        score = _reference_improve_by_swaps(work, matcher.unary,
                                            matcher.links)
        if score > best_score:
            best_score = score
            best_m = {g: pred_ids[v] for g, v in zip(gold_ids, work)
                      if v != unmapped}
            if best_score == ceiling:
                break
    return best_m


def reference_correspondence(gold, pred):
    """Counterpart of ``scoring.correspondence``."""
    matcher = S._PairMatcher(gold, pred)
    if gold.flavor in (0, 1):
        return _reference_anchored(gold, pred, matcher)
    return _reference_search(matcher)


# ---------------------------------------------------------------------------
# the abstract-node fit as it was before it ran on one design matrix:
# every epoch hashes each site again and builds a sigmoid, a BCE and an
# ``add`` per site.  ``eds.train_abstract_models`` must fit the same
# parameters within rounding and make the same decisions.

def reference_train_abstract_models(models, all_examples):
    """Counterpart of ``eds.train_abstract_models`` (per-site graphs, each
    site's hashed row its own (1, n_buckets) matrix)."""
    opt = ad.Adam([t for m in (models.detector, models.node_labeler, models.edge_labeler)
                   for t in (m.w, m.b)], lr=E.ABSTRACT_LR)
    for _ in range(E.ABSTRACT_EPOCHS):
        opt.zero_grad()
        losses = []
        for feats, fired, nlab, elab in all_examples:
            x = E.hash_features(feats, models.detector.n_buckets)[None]
            p = ad.sigmoid(models.detector.logits(x))
            losses.append(ad.binary_cross_entropy(p, np.array([[float(fired)]])))
            if fired:
                losses.append(ad.cross_entropy_logits(
                    models.node_labeler.logits(x),
                    [models.node_labeler.classes.index(nlab)]))
                losses.append(ad.cross_entropy_logits(
                    models.edge_labeler.logits(x),
                    [models.edge_labeler.classes.index(elab)]))
        total = losses[0]
        for l in losses[1:]:
            total = ad.add(total, l)
        total.backward()
        opt.step()


# ---------------------------------------------------------------------------
# the optimizer as it stepped each parameter alone, before the flat store:
# ``ad.Adam`` must give every parameter the same bytes

def reference_adam(params, lr=1e-3, beta1=0.9, beta2=0.999):
    """Counterpart of ``ad.Adam``: returns ``step``, which steps every
    parameter of ``params`` that has a gradient by the per-array loop,
    its moments allocated at its first gradient."""
    params = list(params)
    size = max((p.data.size for p in params), default=0)
    scratch = (np.empty(size), np.empty(size))
    slots = {}

    def step():
        step.t += 1
        b1, b2 = beta1, beta2
        c1, c2 = 1 - b1 ** step.t, 1 - b2 ** step.t
        for k, p in enumerate(params):
            g = p.grad
            if g is None:
                continue
            if k not in slots:
                slots[k] = (np.zeros_like(p.data), np.zeros_like(p.data))
            m, v = slots[k]
            s, r = (a[:g.size].reshape(g.shape) for a in scratch)
            m *= b1
            m += np.multiply(1 - b1, g, out=s)
            v *= b2
            np.multiply(1 - b2, g, out=s)
            s *= g
            v += s
            np.divide(m, c1, out=s)  # m̂
            np.divide(v, c2, out=r)  # v̂
            np.sqrt(r, out=r)
            r += ad.ADAM_EPS
            s *= lr
            s /= r
            p.data -= s

    step.t = 0
    return step


# ---------------------------------------------------------------------------
# checkpoints

def reference_save(ps, path, extra=None):
    """``ps.save(path, extra)`` through ``zipfile`` and
    ``np.lib.format.write_array``, a member at a time: on Python 3.11 and
    later, the bytes the one-pass writer must give."""
    meta = json.dumps({"format_version": ad.CHECKPOINT_FORMAT_VERSION,
                       "extra": extra or {}}).encode("utf-8")
    members = [(name, p.data) for name, p in ps._params.items()]
    members.append(("__meta__", np.frombuffer(meta, dtype=np.uint8)))
    with open(path, "wb") as fh, zipfile.ZipFile(fh, "w", zipfile.ZIP_STORED) as zf:
        for name, arr in members:
            info = zipfile.ZipInfo(f"{name}.npy", date_time=ad.ZIP_DATE_TIME)
            with zf.open(info, "w", force_zip64=True) as member:
                np.lib.format.write_array(member, arr, allow_pickle=False)


def reference_read_npz(fh):
    """``ad.read_npz(fh)`` through ``zipfile``, a member at a time: the
    arrays the one-pass reader must give, and the archives it must
    refuse."""
    try:
        with zipfile.ZipFile(fh) as zf:
            return {info.filename.removesuffix(".npy"): ad._npy_array(zf.read(info))
                    for info in zf.infolist()}
    except (EOFError, KeyError, OSError, RuntimeError,  # KeyError: an unknown .npy version
            zipfile.BadZipFile, zlib.error, LZMAError) as err:
        raise ValueError(f"malformed .npz archive: {err!r}") from None


def reference_read_checkpoint(path):
    """``ParamSet.read`` through ``np.load``: (state, extra) of a bundle."""
    with np.load(path, allow_pickle=False) as npz:
        meta = json.loads(npz["__meta__"].tobytes().decode("utf-8"))
        assert meta["format_version"] == ad.CHECKPOINT_FORMAT_VERSION
        return ({name: npz[name] for name in npz.files if name != "__meta__"},
                meta["extra"])


def assert_same_arrays(want, got):
    """Two state dicts hold the same names, in order, and the same
    arrays in bits, dtype and shape."""
    assert list(got) == list(want)
    for name, arr in want.items():
        assert (got[name].dtype, got[name].shape) == (arr.dtype, arr.shape), name
        assert got[name].tobytes() == arr.tobytes(), name


def byte_flips(path):
    """Rewrite ``path`` with each of its bytes flipped in turn, by XOR
    0x01 and by XOR 0xFF, yielding (offset, mask) after each rewrite;
    the original bytes come back at the end."""
    clean = path.read_bytes()
    try:
        for offset, mask in itertools.product(range(len(clean)), (0x01, 0xFF)):
            data = bytearray(clean)
            data[offset] ^= mask
            path.write_bytes(bytes(data))
            yield offset, mask
    finally:
        path.write_bytes(clean)
