"""Corpus splitting, joint training, checkpointing, parsing, ensembling.

This module owns everything between a corpus of Sentence records and a
servable model: validation carve-outs, inventory extraction, the
shared-encoder multi-framework model, the training objective, early
stopping with pruned snapshots, bundle IO, per framework parsing, and
the greedy ensemble builder.

There is one objective, per-regime coefficients: single-framework,
multi-task and fine-tuning runs all build each sentence's loss with
``multitask_loss`` over ``framework_terms``, and a regime differs only
in the frameworks it trains and the ``lam_*`` fields of its config.
"""

import json
import os
import time
import warnings
from dataclasses import dataclass, field, replace
from types import SimpleNamespace

import numpy as np

from . import autodiff as ad
from . import graphs as G
from . import biaffine as B
from . import sdp as S
from . import ucca as U
from . import amr as A
from . import eds as E
from . import scoring
from .atomic import atomic_open
from .config import TrainConfig, SDP_PAIR
from .encoder import Encoder, BiLstm, Vocabulary

PE_DIM = 16  # positional-encoding width of the slot-state biLSTM input

# validation carve-out sizes at full corpus scale: (tuning, ensembling)
VAL_SIZES = {
    "dm": (500, 1500),
    "psd": (500, 1500),
    "eds": (500, 1500),
    "ucca": (300, 700),
    "amr": (500, 1500),
}

# architecture fields that must agree between a checkpoint and the model
# built from it; everything else may differ between regimes
ARCH_FIELDS = (
    "surface_dim", "lemma_dim", "pos_dim", "ne_dim", "static_mlp",
    "contextual_mlp", "layers", "hidden", "edge_mlp", "label_mlp",
    "frame_mlp", "decoder_hidden", "decoder_layers",
    "anchor_emb", "anchor_hidden", "frameworks",
)


class TrainingDiverged(RuntimeError):
    """Raised when a loss or metric stops being finite."""

    def __init__(self, message, epoch=None, sentence_ids=()):
        super().__init__(message)
        self.epoch = epoch
        self.sentence_ids = tuple(sentence_ids)


def _guard_finite(value, what, epoch=None, sentence_ids=()):
    if not np.all(np.isfinite(value)):
        raise TrainingDiverged(
            f"{what} is not finite"
            + (f" at epoch {epoch}" if epoch is not None else "")
            + (f" (sentences {', '.join(sentence_ids)})" if sentence_ids else ""),
            epoch=epoch, sentence_ids=sentence_ids)


# ---------------------------------------------------------------------------
# splits

@dataclass
class DataSplit:
    """Per-framework train / tuning-validation / ensembling-validation."""
    train: dict
    val_i: dict
    val_ii: dict


def _fit_val_sizes(fw, n_eligible, factor):
    want_i, want_ii = VAL_SIZES[fw]
    want_i = max(1, int(round(want_i * factor)))
    want_ii = max(1, int(round(want_ii * factor)))
    cap = n_eligible // 2  # validation may never eat more than half the pool
    if want_i + want_ii <= cap:
        return want_i, want_ii
    if cap >= 2:
        shrunk_i = max(1, min(cap - 1, int(round(want_i * cap / (want_i + want_ii)))))
        shrunk = (shrunk_i, cap - shrunk_i)
    elif cap == 1:
        shrunk = (1, 0)
    else:
        shrunk = (0, 0)
    warnings.warn(f"{fw}: validation sizes {want_i}+{want_ii} shrunk to "
                  f"{shrunk[0]}+{shrunk[1]} to fit {n_eligible} sentences")
    return shrunk


def split_dataset(sentences, seed=0, factor=1.0):
    """Carve per-framework validation sets and apply the sharing rules.

    UCCA and AMR train only on sentences annotated in more than one
    framework; DM, PSD and EDS train only on sentences that also carry
    UCCA or AMR gold.  Leftover eligible sentences that fail the rule
    are simply unused.  One seeded permutation per framework makes the
    carve-out deterministic.
    """
    rng = np.random.default_rng(seed)
    split = DataSplit(train={}, val_i={}, val_ii={})
    for fw in G.FRAMEWORKS:
        eligible = [s for s in sentences if fw in s.graphs]
        if not eligible:
            split.train[fw], split.val_i[fw], split.val_ii[fw] = [], [], []
            continue
        order = rng.permutation(len(eligible))
        n_i, n_ii = _fit_val_sizes(fw, len(eligible), factor)
        split.val_i[fw] = [eligible[k] for k in order[:n_i]]
        split.val_ii[fw] = [eligible[k] for k in order[n_i:n_i + n_ii]]
        rest = [eligible[k] for k in order[n_i + n_ii:]]
        if fw in ("ucca", "amr"):
            train = [s for s in rest if len(s.graphs) > 1]
        else:
            train = [s for s in rest if "ucca" in s.graphs or "amr" in s.graphs]
        if not train and rest:
            warnings.warn(f"{fw}: no leftover sentence satisfies the sharing "
                          f"rule; training on all {len(rest)} of them")
            train = rest
        split.train[fw] = train
    return split


def _ordered_union(sentence_lists):
    seen = set()
    pool = []
    for lst in sentence_lists:
        for s in lst:
            if s.id not in seen:
                seen.add(s.id)
                pool.append(s)
    return pool


# ---------------------------------------------------------------------------
# inventories

@dataclass
class Inventories:
    """Symbol tables extracted from the training carve-out."""
    dm_labels: list = field(default_factory=list)
    dm_types: list = field(default_factory=list)
    dm_args: list = field(default_factory=list)
    psd_labels: list = field(default_factory=list)
    ucca_labels: list = field(default_factory=list)
    amr_concepts: list = field(default_factory=list)
    amr_edges: list = field(default_factory=list)
    sense_table: dict = field(default_factory=dict)
    ne_map: dict = field(default_factory=dict)
    dm_lexicon_rows: list = field(default_factory=list)
    psd_lexicon_rows: list = field(default_factory=list)

    def to_json(self):
        return {
            "dm_labels": self.dm_labels, "dm_types": self.dm_types,
            "dm_args": self.dm_args, "psd_labels": self.psd_labels,
            "ucca_labels": self.ucca_labels,
            "amr_concepts": self.amr_concepts, "amr_edges": self.amr_edges,
            "sense_table": self.sense_table, "ne_map": self.ne_map,
            "dm_lexicon_rows": [list(r) for r in self.dm_lexicon_rows],
            "psd_lexicon_rows": [list(r) for r in self.psd_lexicon_rows],
        }

    @classmethod
    def from_json(cls, doc):
        inv = cls(**{k: doc[k] for k in doc
                     if k not in ("dm_lexicon_rows", "psd_lexicon_rows")})
        inv.dm_lexicon_rows = [tuple(r) for r in doc.get("dm_lexicon_rows", [])]
        inv.psd_lexicon_rows = [tuple(r) for r in doc.get("psd_lexicon_rows", [])]
        return inv


def _lexicon_from_rows(rows):
    if not rows:
        return None
    entries = [S.FrameEntry(lemma, pos, frame, tuple(args), freq)
               for lemma, pos, frame, args, freq in rows]
    return S.FrameLexicon(entries)


def _dm_lexicon_rows(graphs):
    counts = {}
    for g in graphs:
        for n in g.nodes:
            props = n.property_map()
            if "frame" not in props:
                continue
            ftype, args = S.parse_frame(props["frame"])
            key = (n.label, "", ftype, args)
            counts[key] = counts.get(key, 0) + 1
    return [(*key[:3], list(key[3]), freq) for key, freq in counts.items()]


def _psd_lexicon_rows(graphs):
    counts = {}
    for g in graphs:
        outgoing = {}
        for e in g.edges:
            outgoing.setdefault(e.source, set()).add(S.strip_label_suffix(e.label))
        for n in g.nodes:
            props = n.property_map()
            if "frame" not in props:
                continue
            required = tuple(sorted(outgoing.get(n.id, ())))
            key = (n.label, props.get("pos", ""), props["frame"], required)
            counts[key] = counts.get(key, 0) + 1
    return [(*key[:3], list(key[3]), freq) for key, freq in counts.items()]


def _first_seen(seq):
    out = []
    for x in seq:
        if x not in out:
            out.append(x)
    return out


def build_inventories(train_by_fw):
    inv = Inventories()
    if train_by_fw.get("dm"):
        graphs = [s.graphs["dm"] for s in train_by_fw["dm"]]
        inv.dm_labels, inv.dm_types, inv.dm_args = S.collect_inventories(graphs)
        inv.dm_lexicon_rows = _dm_lexicon_rows(graphs)
    if train_by_fw.get("psd"):
        graphs = [s.graphs["psd"] for s in train_by_fw["psd"]]
        inv.psd_labels, _, _ = S.collect_inventories(graphs)
        inv.psd_lexicon_rows = _psd_lexicon_rows(graphs)
    for s in train_by_fw.get("ucca", ()):
        try:
            ser = _serialize_ucca(s)
        except ValueError as err:
            warnings.warn(f"{s.id}: ucca gold skipped for inventories ({err})")
            continue
        for _, _, label in ser.edges:
            if label not in inv.ucca_labels:
                inv.ucca_labels.append(label)
    sense_obs = []
    ne_obs = []
    for s in train_by_fw.get("amr", ()):
        try:
            anon = A.anonymize(s.graphs["amr"], s.tokens)
            tree = A.dag_to_tree(_strip_graph_senses(anon.graph))
        except ValueError as err:
            warnings.warn(f"{s.id}: amr gold skipped for inventories ({err})")
            continue
        sense_obs.extend(n.label for n in anon.graph.nodes)
        for r in anon.records:
            if r.span is None:
                continue
            tags = {s.tokens[k].ne for k in range(*r.span)}
            ne_obs.extend((tag, r.head_label) for tag in tags if tag != "O")
        inv.amr_concepts = _first_seen(inv.amr_concepts + list(tree.labels()))
        inv.amr_edges = _first_seen(
            inv.amr_edges + [n.edge_label for n in tree.nodes if n.parent >= 0])
    if sense_obs:
        inv.sense_table = A.build_sense_table(sense_obs)
        inv.ne_map = A.build_ne_map(ne_obs)
    return inv


def _strip_graph_senses(g):
    nodes = tuple(G.replace(n, label=A.strip_sense(n.label)) for n in g.nodes)
    return G.replace(g, nodes=nodes)


# ---------------------------------------------------------------------------
# the shared-encoder model

class MultiModel:
    """Shared encoder plus per-framework heads and decoders.

    Construction is deterministic given (config, vocab, inventories).
    Without ``state`` the parameters take initial values drawn from
    ``config.seed``; with ``state`` (name -> array, as a checkpoint or
    snapshot holds) they take its values and nothing is drawn.  Heads
    exist only for frameworks with a nonempty label inventory.
    """

    def __init__(self, config, vocab, inv, static, contextual, state=None):
        self.config = config
        self.vocab = vocab
        self.inv = inv
        self.static = static
        self.contextual = contextual
        self.params = ad.ParamSet(state)
        cfg = config
        rng = np.random.default_rng(cfg.seed)
        self.encoder = Encoder(self.params, vocab, cfg, static,
                               ctx_layers=contextual.n_layers,
                               ctx_width=contextual.width, rng=rng)
        self.heads = {}
        self.frame_clf = None
        self.ucca_decoder = None
        self.ucca_extra = None
        self.remote_head = None
        self.amr_decoder = None
        self.amr_vocab = None
        width = 2 * cfg.hidden

        def head(name, labels, in_dim=width):
            return B.BiaffineHead(
                self.params, name, in_dim, labels, rng,
                edge_mlp=cfg.edge_mlp, label_mlp=cfg.label_mlp,
                input_dropout=cfg.biaffine_input_dropout,
                edge_dropout=cfg.edge_dropout, label_dropout=cfg.label_dropout)

        if "dm" in cfg.frameworks and inv.dm_labels:
            self.heads["dm"] = head("dm", inv.dm_labels)
            self.frame_clf = S.FrameClassifier(
                self.params, "dm.frame", width, inv.dm_types, inv.dm_args, rng,
                hidden=cfg.frame_mlp, drop=cfg.frame_dropout)
        if "psd" in cfg.frameworks and inv.psd_labels:
            self.heads["psd"] = head("psd", inv.psd_labels)
        if "ucca" in cfg.frameworks and inv.ucca_labels:
            self.ucca_decoder = U.UccaDecoder(self.params, "ucca.dec",
                                              enc_hidden=cfg.hidden,
                                              use_layers=cfg.layers, rng=rng)
            self.ucca_extra = BiLstm(self.params, "ucca.extra",
                                     width + PE_DIM, cfg.hidden, 1, rng,
                                     input_dropout=cfg.decoder_dropout)
            self.heads["ucca"] = head("ucca", inv.ucca_labels)
            self.remote_head = head("ucca.remote", ["remote"])
        if "amr" in cfg.frameworks and inv.amr_concepts and inv.amr_edges:
            self.amr_vocab = A.DecoderVocab(inv.amr_concepts)
            self.amr_decoder = A.AmrDecoder(
                self.params, "amr.dec", enc_hidden=cfg.hidden,
                feat_width=A.node_feature_width(self.encoder),
                hidden=cfg.decoder_hidden, n_vocab=len(self.amr_vocab), rng=rng,
                layers=cfg.decoder_layers, dropout=cfg.decoder_dropout)
            self.heads["amr"] = head("amr", inv.amr_edges,
                                     in_dim=cfg.decoder_hidden)
        self._resources = None

    @classmethod
    def derive(cls, config, split, static, contextual):
        """Build vocabulary and inventories from the training carve-out."""
        train_by_fw = {fw: split.train.get(fw, []) for fw in config.frameworks}
        pool = _ordered_union(train_by_fw.values())
        if not pool:
            raise ValueError("no training sentences for any requested framework")
        vocab = Vocabulary.build(pool)
        inv = build_inventories(train_by_fw)
        return cls(config, vocab, inv, static, contextual)

    def encode(self, sent, train=False, rng=None):
        ctx = self.contextual.for_sentence(sent.id, len(sent.tokens))
        return self.encoder.run(sent.tokens, ctx, train=train, rng=rng)

    def sdp_resources(self):
        if self._resources is None:
            self._resources = S.SdpResources(
                dm_lexicon=_lexicon_from_rows(self.inv.dm_lexicon_rows),
                psd_lexicon=_lexicon_from_rows(self.inv.psd_lexicon_rows))
        return self._resources

    def amr_context(self, sent, enc_out):
        n = enc_out.n_positions
        return A.AmrContext(
            encoder=self.encoder, decoder=self.amr_decoder, vocab=self.amr_vocab,
            token_states=ad.rows(enc_out.top, list(range(1, n))),
            finals=enc_out.finals,
            lemmas=tuple(t.lemma for t in sent.tokens),
            xpos=tuple(t.xpos for t in sent.tokens))

    def save(self, path):
        self.params.save(path, extra={
            "kind": "multi",
            "config": self.config.to_json(),
            "vocab": self.vocab.to_json(),
            "inventories": self.inv.to_json(),
        })


def load_model(path, static, contextual):
    """Build a saved MultiModel or EdsModel from its checkpoint; a
    bundle whose content does not fit raises a ValueError naming it."""
    state, extra = ad.ParamSet.read(path)
    kind = extra.get("kind")
    if kind not in ("multi", "eds"):
        raise ValueError(f"{path}: not a model bundle (kind={kind!r})")
    try:
        cfg = TrainConfig.from_json(extra["config"])
        vocab = Vocabulary.from_json(extra["vocab"])
        if kind == "multi":
            return MultiModel(cfg, vocab, Inventories.from_json(extra["inventories"]),
                              static, contextual, state=state)
        return EdsModel(cfg, vocab, E.ConversionRuleSet.from_dict(extra["rules"]),
                        static, contextual, extra["anchor_labels"],
                        abstract_meta=extra["abstract_meta"], state=state)
    except (KeyError, ValueError) as err:
        raise ValueError(f"{path}: {err.args[0]}") from None


# ---------------------------------------------------------------------------
# prepared gold targets

@dataclass
class SdpTargets:
    edges: list
    tops: list
    frames: dict


@dataclass
class UccaTargets:
    pointers: tuple
    edge_cells: list
    tops: list
    remote_cells: list


@dataclass
class AmrTargets:
    tree: object
    gold: object


@dataclass
class EdsTargets:
    token_states: object  # constant: the converter's encoder is frozen
    items: list           # (label, token set, first, last) per abstract node


@dataclass
class Prepared:
    """One sentence with whatever gold targets survived preparation."""
    sent: object
    targets: dict


def companion_text(tokens):
    if not tokens:
        return ""
    chars = [" "] * max(t.anchor.end for t in tokens)
    for t in tokens:
        chars[t.anchor.start:t.anchor.end] = list(t.surface)
    return "".join(chars)


def _prep_sdp(model, fw, sent):
    label_index = {lab: k for k, lab in enumerate(model.heads[fw].labels)}
    edges, tops, frames = S.gold_targets(sent.graphs[fw], sent.tokens, label_index)
    return SdpTargets(edges=edges, tops=tops, frames=frames)


def _serialize_ucca(sent):
    ser = U.serialize_ucca(sent.graphs["ucca"], sent.tokens)
    if ser is None:
        raise ValueError("no pointer problem: misaligned anchors, "
                         "reentrant primary edges or an empty yield")
    return ser


def _prep_ucca(model, sent):
    ser = _serialize_ucca(sent)
    labels = model.heads["ucca"].labels
    cells = [(i, j, labels.index(lab)) for i, j, lab in ser.edges]
    remote = [(i, j, 0) for i, j in ser.remotes]
    return UccaTargets(pointers=ser.pointers, edge_cells=cells,
                       tops=list(ser.tops), remote_cells=remote)


def _prep_amr(model, sent):
    anon = A.anonymize(sent.graphs["amr"], sent.tokens)
    tree = A.dag_to_tree(_strip_graph_senses(anon.graph))
    known = set(model.heads["amr"].labels)
    for n in tree.nodes:
        if n.parent >= 0 and n.edge_label not in known:
            raise ValueError(f"edge label {n.edge_label!r} not in inventory")
    ctx = SimpleNamespace(lemmas=tuple(t.lemma for t in sent.tokens),
                          vocab=model.amr_vocab)
    return AmrTargets(tree=tree, gold=A.gold_sequence(tree, ctx))


def prepare_sentences(model, sentences, frameworks, allowed_ids=None):
    """Precompute per-framework supervision; unusable gold is dropped
    with a warning instead of failing the run."""
    builders = {"dm": lambda s: _prep_sdp(model, "dm", s),
                "psd": lambda s: _prep_sdp(model, "psd", s),
                "ucca": lambda s: _prep_ucca(model, s),
                "amr": lambda s: _prep_amr(model, s)}
    preps = []
    for s in sentences:
        targets = {}
        for fw in frameworks:
            if fw not in s.graphs or fw not in builders:
                continue
            if fw == "ucca" and model.ucca_decoder is None:
                continue
            if fw == "amr" and model.amr_decoder is None:
                continue
            if fw in ("dm", "psd") and fw not in model.heads:
                continue
            if allowed_ids is not None and s.id not in allowed_ids.get(fw, ()):
                continue
            try:
                targets[fw] = builders[fw](s)
            except (ValueError, KeyError) as err:
                warnings.warn(f"{s.id}: {fw} gold dropped ({err})")
        preps.append(Prepared(sent=s, targets=targets))
    return preps


def _train_preps(model, split, frameworks):
    """Training sentences of ``frameworks``, each framework's gold kept
    only on that framework's own training carve-out."""
    allowed = {fw: {s.id for s in split.train.get(fw, [])} for fw in frameworks}
    pool = _ordered_union([split.train.get(fw, []) for fw in frameworks])
    return prepare_sentences(model, pool, frameworks, allowed_ids=allowed)


# ---------------------------------------------------------------------------
# loss terms

def framework_terms(model, prep, frameworks, train=False, rng=None):
    """Per-framework loss pieces for one sentence, keyed "fw.part".

    Frameworks without prepared gold contribute no keys at all, so their
    parameters stay entirely off the backward graph.
    """
    want = [fw for fw in frameworks if fw in prep.targets]
    if not want:
        return {}
    enc_out = model.encode(prep.sent, train=train, rng=rng)
    terms = {}
    for fw in want:
        tgt = prep.targets[fw]
        if fw in ("dm", "psd"):
            scores = model.heads[fw].score(enc_out.top, train=train, rng=rng)
            edge, label = B.edge_and_label_loss(scores, tgt.edges, tgt.tops)
            terms[f"{fw}.edge"] = edge
            terms[f"{fw}.label"] = label
            if fw == "dm" and model.frame_clf is not None:
                if tgt.frames:
                    pred = model.frame_clf.predict(enc_out.top, train=train, rng=rng)
                    positions = sorted(tgt.frames)
                    terms["dm.frame"] = S.frame_loss(
                        pred, positions, [tgt.frames[p] for p in positions],
                        model.frame_clf)
                else:
                    terms["dm.frame"] = ad.Tensor(0.0)
        elif fw == "ucca":
            dec = U.pointer_decode(enc_out, model.ucca_decoder,
                                   gold_pointers=tgt.pointers)
            terms["ucca.dec"] = U.pointer_loss(dec.logits, tgt.pointers)
            ns = U.build_node_states(enc_out, tgt.pointers, model.ucca_decoder,
                                     model.ucca_extra, pe_dim=PE_DIM,
                                     train=train, rng=rng)
            scores = model.heads["ucca"].score(ns.states, train=train, rng=rng)
            edge, label = B.edge_and_label_loss(scores, tgt.edge_cells, tgt.tops)
            terms["ucca.edge"] = edge
            terms["ucca.label"] = label
            rscores = model.remote_head.score(ns.states, train=train, rng=rng)
            redge, _ = B.edge_and_label_loss(rscores, tgt.remote_cells, [])
            terms["ucca.remote"] = redge
        elif fw == "amr":
            ctx = model.amr_context(prep.sent, enc_out)
            p, attns, states = A.run_teacher_forced(ctx, tgt.gold,
                                                    train=train, rng=rng)
            terms["amr.dec"] = A.decoder_loss(p, tgt.gold.targets, len(ctx.lemmas))
            terms["amr.cov"] = A.coverage_loss(attns)
            scores = model.heads["amr"].score(states, train=train, rng=rng)
            edge, label = A.amr_edge_loss(scores, tgt.tree)
            terms["amr.edge"] = edge
            terms["amr.label"] = label
    return terms


def _sum_terms(parts):
    total = parts[0]
    for p in parts[1:]:
        total = ad.add(total, p)
    return total


def multitask_loss(cfg, terms):
    """Assemble the joint objective from whatever pieces are present.

    Absent frameworks are omitted rather than zero-weighted, keeping
    their gradients exactly zero.
    """
    label_parts = [terms[k] for k in ("dm.label", "psd.label", "ucca.label",
                                      "amr.label") if k in terms]
    if "dm.frame" in terms:
        label_parts.append(ad.mul(terms["dm.frame"], cfg.lam_frame))
    edge_parts = [terms[k] for k in ("dm.edge", "psd.edge", "ucca.edge",
                                     "amr.edge") if k in terms]
    pieces = []
    if label_parts or edge_parts:
        inner = None
        if label_parts:
            inner = ad.mul(_sum_terms(label_parts), cfg.lam_label)
        if edge_parts:
            e = ad.mul(_sum_terms(edge_parts), 1.0 - cfg.lam_label)
            inner = e if inner is None else ad.add(inner, e)
        pieces.append(ad.mul(inner, cfg.lam_biaf))
    if "amr.cov" in terms:
        pieces.append(ad.mul(terms["amr.cov"], cfg.lam_cov))
    if "ucca.dec" in terms:
        pieces.append(ad.mul(terms["ucca.dec"], cfg.lam_dec_ucca))
    if "amr.dec" in terms:
        pieces.append(ad.mul(terms["amr.dec"], cfg.lam_dec_amr))
    if "ucca.remote" in terms:
        pieces.append(ad.mul(terms["ucca.remote"], cfg.lam_remote))
    if not pieces:
        return ad.Tensor(0.0)
    return _sum_terms(pieces)


def sentence_loss(model, cfg, prep, frameworks, train=False, rng=None):
    """The joint objective over one sentence's ``frameworks``; None when
    the sentence carries none of their gold."""
    terms = framework_terms(model, prep, frameworks, train=train, rng=rng)
    if not terms:
        return None
    return multitask_loss(cfg, terms)


# ---------------------------------------------------------------------------
# validation metrics

def corpus_report(golds, preds, **kw):
    rep = scoring.ScoreReport()
    for g, p in zip(golds, preds):
        rep.add(g.framework, scoring.mrp_f1(g, p, **kw))
    return rep


def _val_sdp_f1(model, fw, sentences):
    scores = []
    for s in sentences:
        pred = parse_sentence(model, s, fw)
        scores.append(scoring.sdp_labeled_f1(s.graphs[fw], pred))
    return float(np.mean(scores))


def _val_ucca_f1(model, sentences):
    preds = [parse_sentence(model, s, "ucca") for s in sentences]
    rep = corpus_report([s.graphs["ucca"] for s in sentences], preds)
    return rep.framework_f1("ucca")


@ad.no_grad()
def _val_loss(preps, loss_fn, what):
    """Mean of ``loss_fn(prep)`` over the sentences it scores (it returns
    None for the others); None when it scores none."""
    vals = []
    for prep in preps:
        loss = loss_fn(prep)
        if loss is not None:
            vals.append(float(loss.data))
    if not vals:
        return None
    out = float(np.mean(vals))
    _guard_finite(out, f"{what} validation loss")
    return out


# ---------------------------------------------------------------------------
# training loop

class EarlyStopper:
    """Tracks the best epoch of one scalar metric."""

    def __init__(self, mode):
        if mode not in ("max", "min"):
            raise ValueError(f"mode must be max or min, got {mode!r}")
        self.mode = mode
        self.best_epoch = None
        self.best_value = None

    def update(self, epoch, value):
        if value is None:
            return False
        better = (self.best_value is None
                  or (self.mode == "max" and value > self.best_value)
                  or (self.mode == "min" and value < self.best_value))
        if better:
            self.best_epoch = epoch
            self.best_value = value
        return better


@dataclass
class TrainResult:
    model: object
    config: object
    history: list
    best_epochs: dict
    best_values: dict
    snapshots: dict
    run_dir: str = None

    def model_at(self, key):
        """The model at a metric's best epoch (or a given epoch), built
        from that epoch's snapshot."""
        epoch = key if isinstance(key, int) else self.best_epochs[key]
        m = self.model
        return MultiModel(m.config, m.vocab, m.inv, m.static, m.contextual,
                          state=self.snapshots[epoch])


def _checkpoint_path(run_dir, epoch):
    return os.path.join(run_dir, f"epoch-{epoch:04d}.ckpt")


# per-epoch clipping record: steps clipped, smallest factor applied,
# largest global gradient norm before clipping
_NO_CLIPPING = {"clipped_steps": 0, "min_clip_factor": 1.0, "max_grad_norm": 0.0}


def _clip(params, max_norm, stats):
    """Clip gradients and fold the factor and the pre-clip norm into one
    epoch's ``stats``."""
    factor, norm = ad.clip_gradients(params, max_norm)
    stats["max_grad_norm"] = max(stats["max_grad_norm"], norm)
    if factor < 1.0:
        stats["clipped_steps"] += 1
        stats["min_clip_factor"] = min(stats["min_clip_factor"], factor)


def _train_loop(model, cfg, preps, loss_fn, modes, validate, run_dir=None,
                kind="train"):
    """Shared epoch loop: shuffled minibatches, clipped Adam steps,
    per-metric early stopping, snapshots pruned to best-or-last.

    ``validate(model)`` returns, once per epoch, one value (or None) for
    each key of ``modes``, which early-stops it in its mode.  The model
    comes back without gradients.
    """
    usable = [p for p in preps if p.targets]
    if not usable:
        raise ValueError("no sentence carries usable supervision")
    if run_dir:
        os.makedirs(run_dir, exist_ok=True)
        cfg.save(os.path.join(run_dir, "config.json"))
    opt = ad.Adam(model.params.tensors(), lr=cfg.lr,
                  beta1=cfg.beta1, beta2=cfg.beta2)
    rng = np.random.default_rng(cfg.seed + 1)
    stoppers = {key: EarlyStopper(mode) for key, mode in modes.items()}
    snapshots = {}
    on_disk = set()
    history = []
    rows = []  # metrics.jsonl, rewritten whole each epoch
    for epoch in range(cfg.epochs):
        t0 = time.perf_counter()
        order = rng.permutation(len(usable))
        total = 0.0
        clip = dict(_NO_CLIPPING)
        for lo in range(0, len(order), cfg.batch_size):
            chunk = order[lo:lo + cfg.batch_size]
            opt.zero_grad()
            batch_loss = None
            ids = []
            for k in chunk:
                loss = loss_fn(model, usable[k], rng)
                if loss is None:
                    continue
                ids.append(usable[k].sent.id)
                batch_loss = loss if batch_loss is None else ad.add(batch_loss, loss)
            if batch_loss is None:
                continue
            _guard_finite(batch_loss.data, "training loss", epoch, ids)
            batch_loss.backward()
            _clip(model.params.tensors(), cfg.clip, clip)
            opt.step()
            total += float(batch_loss.data)
        vals = validate(model)
        for key, st in stoppers.items():
            st.update(epoch, vals[key])
        snapshots[epoch] = model.params.state_dict()
        keep = {st.best_epoch for st in stoppers.values()
                if st.best_epoch is not None} | {epoch}
        for e in [e for e in snapshots if e not in keep]:
            del snapshots[e]
        record = {"epoch": epoch,
                  "train_loss": total / max(1, len(usable)),
                  "val": vals,
                  "best": {key: st.best_epoch for key, st in stoppers.items()},
                  **clip}
        history.append(dict(record, seconds=time.perf_counter() - t0))
        if run_dir:
            model.params.save(_checkpoint_path(run_dir, epoch),
                              extra={"kind": kind, "epoch": epoch,
                                     "config": cfg.to_json()})
            on_disk.add(epoch)
            for e in [e for e in on_disk if e not in keep]:
                os.remove(_checkpoint_path(run_dir, e))
                on_disk.discard(e)
            # wallclock stays out of the file so reruns are byte-identical
            rows.append(json.dumps(record, sort_keys=True) + "\n")
            with atomic_open(os.path.join(run_dir, "metrics.jsonl")) as fh:
                fh.writelines(rows)
    opt.zero_grad()  # the last minibatch's gradients would outlive training
    last = cfg.epochs - 1
    best_epochs = {key: (st.best_epoch if st.best_epoch is not None else last)
                   for key, st in stoppers.items()}
    best_values = {key: st.best_value for key, st in stoppers.items()}
    return TrainResult(model=model, config=cfg, history=history,
                       best_epochs=best_epochs, best_values=best_values,
                       snapshots=snapshots, run_dir=run_dir)


def _single_validation(model, cfg, split, frameworks):
    """Early-stopping modes and validation of a per-framework regime:
    labeled F1 for DM, PSD and UCCA, the objective for AMR, each on its
    tuning carve-out."""
    modes, fns = {}, {}
    for fw in frameworks:
        val = split.val_i.get(fw, [])
        if not val:
            continue
        if fw in ("dm", "psd") and fw in model.heads:
            modes[fw] = "max"
            fns[fw] = lambda m, fw=fw, val=val: _val_sdp_f1(m, fw, val)
        elif fw == "ucca" and model.ucca_decoder is not None:
            modes[fw] = "max"
            fns[fw] = lambda m, val=val: _val_ucca_f1(m, val)
        elif fw == "amr" and model.amr_decoder is not None:
            preps = prepare_sentences(model, val, ("amr",))
            modes[fw] = "min"
            fns[fw] = lambda m, preps=preps: _val_loss(
                preps, lambda p: sentence_loss(m, cfg, p, ("amr",)), "amr")
    return modes, lambda m: {fw: fn(m) for fw, fn in fns.items()}


def train_single(split, config, static, contextual, run_dir=None):
    """One regime on its own frameworks (DM and PSD train jointly)."""
    cfg = config
    model = MultiModel.derive(cfg, split, static, contextual)
    preps = _train_preps(model, split, cfg.frameworks)
    loss_fn = lambda m, p, rng: sentence_loss(m, cfg, p, cfg.frameworks,
                                              train=True, rng=rng)
    return _train_loop(model, cfg, preps, loss_fn,
                       *_single_validation(model, cfg, split, cfg.frameworks),
                       run_dir=run_dir, kind="single")


def train_multitask(split, config, static, contextual, run_dir=None):
    """Joint pretraining; early stopping tracks one loss per framework
    plus their sum, each on that framework's tuning carve-out."""
    cfg = config
    model = MultiModel.derive(cfg, split, static, contextual)
    preps = _train_preps(model, split, cfg.frameworks)
    loss_fn = lambda m, p, rng: sentence_loss(m, cfg, p, cfg.frameworks,
                                              train=True, rng=rng)
    val_preps = {fw: prepare_sentences(model, split.val_i.get(fw, []), (fw,))
                 for fw in cfg.frameworks}
    scored = [fw for fw in cfg.frameworks if val_preps[fw]]

    def validate(m):
        # each framework's pieces of the objective, then their sum
        vals = {fw: _val_loss(val_preps[fw],
                              lambda p: sentence_loss(m, cfg, p, (fw,)), fw)
                for fw in scored}
        parts = [v for v in vals.values() if v is not None]
        vals["total"] = float(np.sum(parts)) if parts else None
        return vals

    modes = {**{fw: "min" for fw in scored}, "total": "min"}
    return _train_loop(model, cfg, preps, loss_fn, modes, validate,
                       run_dir=run_dir, kind="multitask")


def fine_tune(mtl_result, framework, config, split, static, contextual,
              run_dir=None):
    """Continue from the joint model on a single framework's objective.

    DM and PSD restart from the epoch with the lowest total joint
    validation loss; UCCA and AMR from their own framework-best epoch.
    The other frameworks' modules stay in the model but receive no
    gradient.
    """
    if framework not in ("dm", "psd", "ucca", "amr"):
        raise ValueError(f"fine-tuning is defined for dm/psd/ucca/amr, "
                         f"not {framework!r}")
    base = mtl_result.model
    start_key = "total" if framework in SDP_PAIR else framework
    start_key = start_key if start_key in mtl_result.best_epochs else framework
    arch = {f: getattr(base.config, f) for f in ARCH_FIELDS}
    merged = replace(config, **arch)
    model = MultiModel(merged, base.vocab, base.inv, static, contextual,
                       state=mtl_result.snapshots[mtl_result.best_epochs[start_key]])

    target = SDP_PAIR if framework in SDP_PAIR else (framework,)
    preps = _train_preps(model, split, target)
    loss_fn = lambda m, p, rng: sentence_loss(m, merged, p, target,
                                              train=True, rng=rng)
    return _train_loop(model, merged, preps, loss_fn,
                       *_single_validation(model, merged, split, target),
                       run_dir=run_dir, kind=f"fine-tune-{framework}")


# ---------------------------------------------------------------------------
# the DM -> EDS converter model

class EdsModel:
    """Rule-driven converter with learned detectors and span anchoring.

    The model has one parameter set.  It holds the encoder (values
    copied from the source model, then frozen), the anchoring network,
    which trains here, and, when ``abstract_meta`` (the keyword
    arguments of ``E.build_abstract_models``) is given, the abstract-node
    detector and labelers (``det``, ``nlab``, ``elab``), which
    ``E.train_abstract_models`` fits with an optimizer of their own.
    Without ``state`` the encoder and anchor net draw their initial
    values from ``config.seed`` and the detectors from ``config.seed +
    2``; with ``state`` every parameter takes its value from it.
    """

    def __init__(self, config, vocab, rules, static, contextual, anchor_labels,
                 abstract_meta=None, state=None):
        self.config = config
        self.vocab = vocab
        self.rules = rules
        self.static = static
        self.contextual = contextual
        self.anchor_labels = list(anchor_labels)
        self.params = ad.ParamSet(state)
        rng = np.random.default_rng(config.seed)
        self.encoder = Encoder(self.params, vocab, config, static,
                               ctx_layers=contextual.n_layers,
                               ctx_width=contextual.width, rng=rng)
        self.anchor = E.AnchorNet(self.params, "anchor", self.anchor_labels,
                                  encoder_width=2 * config.hidden, rng=rng,
                                  emb_dim=config.anchor_emb,
                                  hidden=config.anchor_hidden)
        self.abstract = None if abstract_meta is None else E.build_abstract_models(
            self.params, rng=np.random.default_rng(config.seed + 2), **abstract_meta)

    def token_states(self, sent):
        enc_out = self.encode(sent)
        return ad.Tensor(enc_out.top.data[1:])  # constant: the encoder is frozen

    def encode(self, sent):
        ctx = self.contextual.for_sentence(sent.id, len(sent.tokens))
        return self.encoder.run(sent.tokens, ctx)

    @ad.no_grad()
    def parse(self, sent, dm_graph):
        """(EDS graph, conversion diagnostics) from a DM analysis."""
        graph, diag = E.convert(dm_graph, sent.tokens, self.rules,
                                models=self.abstract, anchor_net=self.anchor,
                                token_states=self.token_states(sent))
        return graph, diag

    def save(self, path):
        a = self.abstract
        self.params.save(path, extra={
            "kind": "eds",
            "config": self.config.to_json(),
            "vocab": self.vocab.to_json(),
            "rules": self.rules.to_dict(),
            "anchor_labels": self.anchor_labels,
            # keyword arguments of E.build_abstract_models
            "abstract_meta": None if a is None else {
                "n_buckets": a.detector.n_buckets,
                "node_classes": a.node_labeler.classes,
                "edge_classes": a.edge_labeler.classes},
        })


def _anchor_items(sent, surface):
    """(label, token set, first, last) for each abstract EDS node of
    ``sent`` that covers a token span; ``surface`` is the DM-derived
    surface graph."""
    gold = sent.graphs["eds"]
    _, abstract_ids = E.split_surface_abstract(gold, surface)
    token_of_node = E.token_of_anchored_node(gold, sent.tokens)
    by_id = gold.node_by_id()
    items = []
    for a in abstract_ids:
        node = by_id[a]
        span = _token_span(node, sent.tokens)
        if span is None:
            warnings.warn(f"{sent.id}: abstract node {a} has no token span")
            continue
        tset = E.descendant_token_set(gold, a, token_of_node)
        items.append((node.label, tset, span[0], span[1]))
    return items


def _anchor_loss(model, target):
    """Endpoint cross-entropies of one sentence's abstract nodes."""
    pairs = [model.anchor.endpoint_logits(label, tset, target.token_states)
             for label, tset, _, _ in target.items]
    return E.anchor_loss(pairs, [(i, j) for _, _, i, j in target.items])


def train_eds(split, config, static, contextual, rules, encoder_from=None,
              run_dir=None):
    """Fit the converter: detectors from pooled sites, anchoring by
    gradient descent against gold spans, encoder copied and frozen.

    The anchor net trains through ``_train_loop``, early-stopped on the
    anchor loss of the EDS tuning carve-out; its epoch checkpoints carry
    ``kind: "eds-anchor"``.  Returns (model at the best epoch, history);
    when no training sentence has a spanned abstract node, the anchor
    net stays at initialisation and the history is empty.
    """
    usable = [s for s in split.train.get("eds", [])
              if "eds" in s.graphs and "dm" in s.graphs]
    skipped = len(split.train.get("eds", [])) - len(usable)
    if skipped:
        warnings.warn(f"eds: {skipped} training sentences lack paired DM gold")
    if not usable:
        raise ValueError("eds training needs sentences with both EDS and DM gold")

    if encoder_from is not None:
        cfg = replace(config, **{f: getattr(encoder_from.config, f)
                                 for f in ARCH_FIELDS})
        vocab = encoder_from.vocab
    else:
        warnings.warn("eds: no source model given; the frozen encoder is untrained")
        cfg = config
        vocab = Vocabulary.build(usable)

    # collect detector examples and anchor supervision in one pass
    site_examples = []
    anchor_items = []  # (sentence, items) for sentences with a spanned node
    for s in usable:
        surface = E.dm_to_eds_surface(s.graphs["dm"], rules)
        site_examples.extend(
            E.abstract_training_examples(s.graphs["eds"], surface, rules))
        items = _anchor_items(s, surface)
        if items:
            anchor_items.append((s, items))
    labels_seen = _first_seen(label for _, items in anchor_items
                              for label, _, _, _ in items)

    meta = E.abstract_shape(site_examples)

    def converter(state=None):
        return EdsModel(cfg, vocab, rules, static, contextual, labels_seen,
                        abstract_meta=meta, state=state)

    model = converter()
    if encoder_from is not None:
        # the anchor net and detectors keep the values drawn above
        model = converter({name: encoder_from.params[name].data
                           if name.startswith("encoder.") else arr
                           for name, arr in model.params.state_dict().items()})
    E.train_abstract_models(model.abstract, site_examples)
    if not anchor_items:
        warnings.warn("eds: no training sentence has an abstract node with a "
                      "token span; the anchor net stays untrained")
        return model, []

    # the encoder is frozen, so token states are computed once; its
    # gradients stay None, which keeps Adam and clipping off it
    def prep(sent, items):
        return Prepared(sent=sent,
                        targets={"eds": EdsTargets(model.token_states(sent), items)})

    preps = [prep(s, items) for s, items in anchor_items]
    val_preps = []
    for s in split.val_i.get("eds", []):
        if "dm" in s.graphs:
            items = _anchor_items(s, E.dm_to_eds_surface(s.graphs["dm"], rules))
            if items:
                val_preps.append(prep(s, items))
    loss_fn = lambda m, p, rng: _anchor_loss(m, p.targets["eds"])
    validate = lambda m: {"eds": _val_loss(
        val_preps, lambda p: _anchor_loss(m, p.targets["eds"]), "eds")}
    result = _train_loop(model, cfg, preps, loss_fn, {"eds": "min"}, validate,
                         run_dir=run_dir, kind="eds-anchor")
    return converter(result.snapshots[result.best_epochs["eds"]]), result.history


def _token_span(node, tokens):
    hits = [t.index for t in tokens
            if any(a.overlaps(t.anchor) for a in node.anchors)]
    if not hits:
        return None
    return min(hits), max(hits)


# ---------------------------------------------------------------------------
# parsing

def sdp_prediction(model, sent, fw):
    enc_out = model.encode(sent)
    scores = model.heads[fw].score(enc_out.top)
    frames = None
    if fw == "dm" and model.frame_clf is not None:
        frames = model.frame_clf.predict(enc_out.top)
    return scores, frames


def ucca_prediction(model, sent):
    enc_out = model.encode(sent)
    dec = U.pointer_decode(enc_out, model.ucca_decoder)
    ns = U.build_node_states(enc_out, dec.pointers, model.ucca_decoder,
                             model.ucca_extra, pe_dim=PE_DIM)
    scores = model.heads["ucca"].score(ns.states)
    remote = model.remote_head.score(ns.states)
    return U.UccaPrediction(pointers=dec.pointers,
                            edge_probs=scores.edge_probs.data,
                            label_probs=scores.label_probs(),
                            remote_probs=remote.edge_probs.data)


def amr_prediction(model, sent, beam=5):
    """(generation, pair scores or None) for one sentence."""
    enc_out = model.encode(sent)
    ctx = model.amr_context(sent, enc_out)
    gen = A.beam_search(ctx, width=beam)
    if not gen.labels:
        return gen, None
    states = ad.concat(list(gen.states), axis=0)
    return gen, model.heads["amr"].score(states)


@ad.no_grad()
def parse_sentence(model, sent, framework, beam=5):
    """Decode one framework's graph for one sentence."""
    text = companion_text(sent.tokens)
    if framework in ("dm", "psd"):
        if framework not in model.heads:
            raise ValueError(f"model has no {framework} head")
        scores, frames = sdp_prediction(model, sent, framework)
        return S.build_graph(framework, sent.id, sent.tokens, text, scores,
                             frame_pred=frames, resources=model.sdp_resources())
    if framework == "ucca":
        if model.ucca_decoder is None:
            raise ValueError("model has no ucca decoder")
        pred = ucca_prediction(model, sent)
        return U.decode_graph(pred, model.heads["ucca"].labels,
                              sent.tokens, text, sent.id)
    if framework == "amr":
        if model.amr_decoder is None:
            raise ValueError("model has no amr decoder")
        gen, scores = amr_prediction(model, sent, beam=beam)
        records = A.records_from_ne(sent.tokens, model.inv.ne_map)
        graph, _ = A.decode_graph(gen, scores, model.heads["amr"].labels,
                                  sent.id, text, records=records,
                                  sense_table=model.inv.sense_table)
        return graph
    raise ValueError(f"cannot parse framework {framework!r} with this model")


# ---------------------------------------------------------------------------
# ensembling

@dataclass(frozen=True)
class EnsembleSpec:
    framework: str
    members: tuple        # indices into the caller's model list
    rule: str             # "average" | "vote" | "single"

    def to_json(self):
        return {"framework": self.framework, "members": list(self.members),
                "rule": self.rule}

    @classmethod
    def from_json(cls, doc):
        return cls(doc["framework"], tuple(doc["members"]), doc["rule"])


def _require_same_labels(label_lists, what):
    first = list(label_lists[0])
    for other in label_lists[1:]:
        if list(other) != first:
            raise ValueError(f"ensemble members disagree on {what}")
    return first


def combine_pair_scores(scores_list):
    """Mean edge probabilities; label distributions averaged in
    probability space and re-expressed as log-prob logits."""
    labels = _require_same_labels([s.labels for s in scores_list], "edge labels")
    n = scores_list[0].n_positions
    edge = np.mean([s.edge_probs.data for s in scores_list], axis=0)
    probs = np.mean([s.label_probs() for s in scores_list], axis=0)
    logits = np.log(np.clip(probs, 1e-12, None)).reshape(n * n, len(labels))
    return B.PairScores(edge_probs=ad.Tensor(edge),
                        label_logits=ad.Tensor(logits),
                        n_positions=n, labels=labels)


def combine_frames(preds):
    """Probability-space average of the frame classifier heads."""
    types = _require_same_labels([p.types for p in preds], "frame types")
    args = _require_same_labels([p.arg_classes for p in preds], "frame arguments")

    def log_avg(mats):
        return ad.Tensor(np.log(np.clip(np.mean(mats, axis=0), 1e-12, None)))

    type_logits = log_avg([p.type_probs() for p in preds])
    arg_logits = [log_avg([p.arg_probs(k) for p in preds])
                  for k in range(S.N_ARG_HEADS)]
    return S.FramePrediction(type_logits=type_logits, arg_logits=arg_logits,
                             types=types, arg_classes=args)


@ad.no_grad()
def parse_ensemble(models, sent, framework, beam=5):
    """Combine several models' predictions for one sentence."""
    if len(models) == 1:
        return parse_sentence(models[0], sent, framework, beam=beam)
    text = companion_text(sent.tokens)
    if framework in ("dm", "psd"):
        pairs = [sdp_prediction(m, sent, framework) for m in models]
        scores = combine_pair_scores([s for s, _ in pairs])
        frames = None
        if framework == "dm" and all(f is not None for _, f in pairs):
            frames = combine_frames([f for _, f in pairs])
        return S.build_graph(framework, sent.id, sent.tokens, text, scores,
                             frame_pred=frames,
                             resources=models[0].sdp_resources())
    if framework == "ucca":
        labels = _require_same_labels([m.heads["ucca"].labels for m in models],
                                      "ucca labels")
        win = U.voting_ensemble([ucca_prediction(m, sent) for m in models])
        return U.decode_graph(win, labels, sent.tokens, text, sent.id)
    if framework == "amr":
        raise ValueError("amr is served by its single best model, not combined")
    raise ValueError(f"no ensemble rule for framework {framework!r}")


def greedy_ensemble(candidates, score_fn):
    """Forward selection: order by solo score, then add members while the
    score strictly improves; the first non-improvement stops the scan."""
    if not candidates:
        raise ValueError("greedy_ensemble needs at least one candidate")
    solo = {i: score_fn((i,)) for i in candidates}
    order = sorted(candidates, key=lambda i: (-solo[i], i))
    chosen = [order[0]]
    best = solo[order[0]]
    for i in order[1:]:
        trial = score_fn(tuple(chosen) + (i,))
        if trial > best:
            chosen.append(i)
            best = trial
        else:
            break
    return tuple(chosen), best


def build_ensemble(models, framework, sentences, beam=5, score_fn=None):
    """Pick members on the ensembling carve-out by held-out F1.

    AMR keeps its single best model; DM and PSD average scores; UCCA
    votes.  ``score_fn`` is injectable for tests and takes a member
    index tuple.
    """
    golds = [s.graphs[framework] for s in sentences]
    if score_fn is None:
        def score_fn(member_ids):
            if framework == "amr":
                preds = [parse_sentence(models[member_ids[0]], s, "amr", beam=beam)
                         for s in sentences]
            else:
                subset = [models[i] for i in member_ids]
                preds = [parse_ensemble(subset, s, framework, beam=beam)
                         for s in sentences]
            return corpus_report(golds, preds).framework_f1(framework)

    candidates = list(range(len(models)))
    if framework == "amr":
        solo = {i: score_fn((i,)) for i in candidates}
        best = sorted(candidates, key=lambda i: (-solo[i], i))[0]
        return EnsembleSpec("amr", (best,), "single"), solo[best]
    members, best = greedy_ensemble(candidates, score_fn)
    rule = "vote" if framework == "ucca" else "average"
    return EnsembleSpec(framework, members, rule), best


def parse_with_spec(models, spec, sent, beam=5):
    subset = [models[i] for i in spec.members]
    if spec.rule == "single":
        return parse_sentence(subset[0], sent, spec.framework, beam=beam)
    return parse_ensemble(subset, sent, spec.framework, beam=beam)
