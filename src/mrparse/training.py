"""Corpus splitting, joint training, checkpointing, parsing, ensembling.

This module owns everything between a corpus of Sentence records and a
servable model: validation carve-outs, inventory extraction, the
shared-encoder multi-framework model, the training objective, early
stopping that keeps each best and the last epoch as a bundle file,
bundle IO, parsing, and the greedy ensemble builder.

The model is one shared encoder with one task per framework: ``TASKS``
holds a stateless ``Task`` for each of DM, PSD, UCCA and AMR, which owns
everything framework-specific (its fields of the inventories, modules
and lexicons, gold, loss terms, prediction, graph building and
ensembling, validation, where fine-tuning starts).  The functions
outside the tasks loop over the table or look a framework up in it;
only the carve-out rules of ``split_dataset`` and the DM -> EDS
converter name frameworks themselves.

There is one objective, per-regime coefficients: single-framework,
multi-task and fine-tuning runs all build each sentence's loss with
``multitask_loss`` over ``framework_terms``, and a regime differs only
in the frameworks it trains and the ``lam_*`` fields of its config.
A forward pass trains if and only if it is handed a generator: every
dropout site below ``framework_terms`` draws from its one ``rng``, and
``rng=None`` is inference.
"""

import json
import os
import shutil
import tempfile
import time
import warnings
import weakref
from dataclasses import asdict, dataclass, field, fields, replace
from functools import reduce
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
from .config import ARCH_FIELDS, SDP_PAIR, TrainConfig
from .encoder import PARAM_PREFIX, Encoder, BiLstm, Vocabulary

# validation carve-out sizes at full corpus scale: (tuning, ensembling)
VAL_SIZES = {
    "dm": (500, 1500),
    "psd": (500, 1500),
    "eds": (500, 1500),
    "ucca": (300, 700),
    "amr": (500, 1500),
}


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
    pool = {}
    for lst in sentence_lists:
        for s in lst:
            pool.setdefault(s.id, s)
    return list(pool.values())


# ---------------------------------------------------------------------------
# inventories

@dataclass
class Inventories:
    """Symbol tables of the training carve-out, filled by ``Task.inventory``."""
    dm_labels: list = field(default_factory=list)
    dm_types: list = field(default_factory=list)
    dm_args: list = field(default_factory=list)
    psd_labels: list = field(default_factory=list)
    ucca_labels: list = field(default_factory=list)
    amr_concepts: list = field(default_factory=list)
    amr_edges: list = field(default_factory=list)
    sense_table: dict = field(default_factory=dict)
    ne_map: dict = field(default_factory=dict)
    # lexicon rows: [lemma, pos, frame, argument list, frequency]
    dm_lexicon_rows: list = field(default_factory=list)
    psd_lexicon_rows: list = field(default_factory=list)

    def to_json(self):
        """The fields by name, their lists and dicts shared, not copied."""
        return {f.name: getattr(self, f.name) for f in fields(self)}

    @classmethod
    def from_json(cls, doc):
        if not isinstance(doc, dict):
            raise ValueError(f"inventories must be an object, not {type(doc).__name__}")
        kinds = {f.name: type(f.default_factory()) for f in fields(cls)}
        for name, value in doc.items():
            if name not in kinds:
                raise ValueError(f"unknown inventory key {name!r}")
            if not isinstance(value, kinds[name]):
                raise ValueError(f"inventory {name} must be {kinds[name].__name__}, "
                                 f"not {type(value).__name__}")
            bad = [row for row in value if name.endswith("_lexicon_rows") and not (
                isinstance(row, list) and len(row) == 5 and isinstance(row[3], list)
                and all(isinstance(v, str) for v in row[:3] + row[3]) and type(row[4]) is int)]
            if bad:
                raise ValueError(f"inventory {name}: {bad[0]!r} is not a "
                                 f"[lemma, pos, frame, arguments, frequency] row")
        return cls(**doc)


def _first_seen(seq):
    return list(dict.fromkeys(seq))


def build_inventories(train_by_fw):
    """Each task's inventories from its framework's training sentences."""
    inv = Inventories()
    for task in TASKS.values():
        task.inventory(inv, train_by_fw.get(task.name, ()))
    return inv


# ---------------------------------------------------------------------------
# the shared-encoder model

class MultiModel:
    """Shared encoder plus the modules of the tasks its config names.

    Construction is deterministic given (config, vocab, inventories).
    Without ``state`` the parameters take initial values drawn from
    ``config.seed``, the encoder's first, then each named task's in
    ``TASKS`` order; with ``state`` (name -> array, as a checkpoint
    holds) they take its values and nothing is drawn.  A task
    with an empty inventory builds nothing; any other builds at least
    its framework's entry of ``heads``, so ``name in model.heads`` tells
    whether the model serves a framework.  Unbuilt modules are None.
    ``lexicons`` holds the frame lexicon of each SDP framework it serves.
    """

    def __init__(self, config, vocab, inv, static, contextual, state=None):
        self.config = config
        self.vocab = vocab
        self.inv = inv
        self.static = static
        self.contextual = contextual
        self.params = ad.ParamSet(state)
        rng = np.random.default_rng(config.seed)
        self.encoder = Encoder(self.params, vocab, config, static,
                               ctx_layers=contextual.n_layers,
                               ctx_width=contextual.width, rng=rng)
        self.heads, self.lexicons = {}, {}
        self.frame_clf = self.ucca_decoder = self.ucca_extra = None
        self.remote_head = self.amr_vocab = self.amr_decoder = None
        for task in TASKS.values():
            if task.name in config.frameworks:
                task.build(self, rng)

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

    def biaffine_head(self, name, labels, rng, in_dim=None):
        """A head over ``in_dim``-wide states, by default the encoder's."""
        cfg = self.config
        return B.BiaffineHead(
            self.params, name, in_dim or 2 * cfg.hidden, labels, rng,
            edge_mlp=cfg.edge_mlp, label_mlp=cfg.label_mlp,
            input_dropout=cfg.biaffine_input_dropout,
            edge_dropout=cfg.edge_dropout, label_dropout=cfg.label_dropout)

    def encode(self, sentences, rng=None):
        """One ``EncoderOutput`` per sentence, from one encoder pass."""
        return self.encoder.run([(s.tokens, self.contextual.for_sentence(s.id, len(s.tokens)))
                                 for s in sentences], rng)

    def amr_context(self, sent, enc_out):
        n = enc_out.n_positions
        return A.AmrContext(
            encoder=self.encoder, decoder=self.amr_decoder, vocab=self.amr_vocab,
            token_states=ad.rows(enc_out.top, list(range(1, n))),
            finals=enc_out.finals(1),
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
    return _load_bundle(path, static, contextual)


def _load_bundle(path, static, contextual, settings=None):
    """``load_model``, or a parser built with ``settings`` but the bundle's ``ARCH_FIELDS``."""
    state, extra = ad.ParamSet.read(path)
    kind = extra.get("kind")
    if kind not in ("multi", "eds"):
        raise ValueError(f"{path}: not a model bundle (kind={kind!r})")
    if settings is not None and kind != "multi":
        raise ValueError(f"{path}: not a parser bundle")
    try:
        cfg = TrainConfig.from_json(extra["config"])
        vocab = Vocabulary.from_json(extra["vocab"])
        if kind == "eds":
            return EdsModel(cfg, vocab, E.ConversionRuleSet.from_dict(extra["rules"]),
                            static, contextual, extra["anchor_labels"],
                            abstract_meta=extra["abstract_meta"], state=state)
        if settings is not None:
            cfg = replace(settings, **{f: getattr(cfg, f) for f in ARCH_FIELDS})
        return MultiModel(cfg, vocab, Inventories.from_json(extra["inventories"]),
                          static, contextual, state=state)
    except (KeyError, ValueError) as err:
        raise ValueError(f"{path}: {err.args[0]}") from None


# ---------------------------------------------------------------------------
# prepared gold targets

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


# ---------------------------------------------------------------------------
# one task per framework

class Task:
    """One framework's part of the model; stateless, so each method takes
    the model, or the ensemble members, it acts on.  ``inventory`` fills
    the framework's fields of an ``Inventories`` from its training
    sentences; ``build`` adds the framework's modules and lexicons to a
    model under construction (none when its inventory is empty);
    ``prepare`` turns a sentence's gold into the targets ``terms`` reads,
    or raises ValueError or KeyError; ``terms`` gives the loss pieces,
    keyed "name.part"; ``predict``, given sentences and their encoder
    outputs, the numpy probability arrays each graph is decoded from;
    ``decode`` a graph from one prediction per model, combining several
    by ``rule``; ``validator`` the metric a single-framework run
    early-stops on, in ``mode``.  Fine-tuning restarts from the joint
    run's best epoch of ``start_key`` and trains the frameworks of
    ``group``.
    """
    part = "decoder"  # what a model that cannot serve the framework lacks
    mode = "max"

    def __init__(self, name):
        self.name = name
        self.start_key = name
        self.group = (name,)


class SdpTask(Task):
    """DM or PSD: a biaffine head over the encoder's top layer and a
    frame lexicon.  ``frames`` marks DM, whose frames come from a frame
    classifier and the lexicon; PSD's from the lexicon and each node's
    outgoing labels.  Ensembles average each probability array.  The
    pair fine-tunes jointly, from the epoch of the lowest total joint loss."""
    part = "head"
    rule = "average"

    def __init__(self, name, frames):
        super().__init__(name)
        self.frames = frames
        self.start_key, self.group = "total", SDP_PAIR

    def inventory(self, inv, sents):
        graphs = [s.graphs[self.name] for s in sents]
        if not graphs:
            return
        labels, types, args = S.collect_inventories(graphs)
        rows = S.lexicon_rows(graphs, self.frames)
        if self.frames:
            inv.dm_labels, inv.dm_types, inv.dm_args, inv.dm_lexicon_rows = (
                labels, types, args, rows)
        else:
            inv.psd_labels, inv.psd_lexicon_rows = labels, rows

    def build(self, model, rng):
        inv, cfg = model.inv, model.config
        labels, rows = ((inv.dm_labels, inv.dm_lexicon_rows) if self.frames
                        else (inv.psd_labels, inv.psd_lexicon_rows))
        if not labels:
            return
        model.heads[self.name] = model.biaffine_head(self.name, labels, rng)
        model.lexicons[self.name] = S.FrameLexicon(
            S.FrameEntry(lemma, pos, frame, tuple(args), freq)
            for lemma, pos, frame, args, freq in rows)
        if self.frames:
            model.frame_clf = S.FrameClassifier(
                model.params, f"{self.name}.frame", 2 * cfg.hidden,
                inv.dm_types, inv.dm_args, rng,
                hidden=cfg.frame_mlp, drop=cfg.frame_dropout)

    def prepare(self, model, sent):
        """(edges, tops, frames)."""
        labels = model.heads[self.name].labels
        return S.gold_targets(sent.graphs[self.name], sent.tokens,
                              {lab: k for k, lab in enumerate(labels)})

    def terms(self, model, sent, enc_out, tgt, rng):
        name, (edges, tops, frames) = self.name, tgt
        scores = model.heads[name].score(enc_out.top, rng)
        edge, label = B.edge_and_label_loss(scores, edges, tops)
        out = {f"{name}.edge": edge, f"{name}.label": label}
        if self.frames and frames:
            pred = model.frame_clf.predict(enc_out.top, rng)
            positions = sorted(frames)
            out[f"{name}.frame"] = S.frame_loss(
                pred, positions, [frames[p] for p in positions], model.frame_clf)
        elif self.frames:
            out[f"{name}.frame"] = ad.Tensor(0.0)
        return out

    def predict(self, model, sents, enc_outs, beam):
        """Per sentence, (edge probabilities, label probabilities), then
        for DM the frame type probabilities and those of each argument
        head.  The frame classifier runs once over the batch's rows (a
        lone sentence's own), and its logits are split per sentence."""
        tops = [e.top for e in enc_outs]
        preds = [(p.edge_probs.data, p.label_probs())
                 for p in model.heads[self.name].predict(tops)]
        if not self.frames:
            return preds
        frames = model.frame_clf.predict(ad.stack_rows(tops))
        logits = [ad.unstack_rows(x, [t.shape[0] for t in tops])
                  for x in (frames.type_logits, *frames.arg_logits)]
        own = [S.FramePrediction(t, args) for t, *args in zip(*logits)]
        return [pred + (f.type_probs(), *map(f.arg_probs, range(S.N_ARG_HEADS)))
                for pred, f in zip(preds, own)]

    def decode(self, models, sent, preds, text):
        labels = _require_same_labels([m.heads[self.name].labels for m in models],
                                      "edge labels")
        if self.frames:
            clfs = [m.frame_clf for m in models]
            types = _require_same_labels([c.types for c in clfs], "frame types")
            args = _require_same_labels([c.arg_classes for c in clfs], "frame arguments")
        edge, label, *frames = (preds[0] if len(preds) == 1 else
                                [np.mean(arrays, axis=0) for arrays in zip(*preds)])
        lexicon = models[0].lexicons[self.name]
        frame_of = (S.dm_frame_rule(frames[0], frames[1:], types, args, lexicon,
                                    sent.tokens) if self.frames
                    else S.psd_frame_rule(lexicon, sent.tokens))
        return S.build_graph(self.name, sent.id, sent.tokens, text, edge, label,
                             labels, frame_of)

    def validator(self, model, cfg, val):
        """Mean labeled F1."""
        return lambda m: float(np.mean([
            scoring.sdp_labeled_f1(s.graphs[self.name],
                                   parse_sentence(m, s, self.name))
            for s in val]))


class UccaTask(Task):
    """UCCA: the pointer decoder lays out the nodes, a slot-state biLSTM
    reads them, and two biaffine heads score primary and remote edges.
    Ensembles vote."""
    rule = "vote"

    def _serialize(self, sent):
        ser = U.serialize_ucca(sent.graphs["ucca"], sent.tokens)
        if ser is None:
            raise ValueError("no pointer problem: misaligned anchors, "
                             "reentrant primary edges or an empty yield")
        return ser

    def inventory(self, inv, sents):
        """Edge labels, first seen first."""
        labels = []
        for s in sents:
            try:
                labels += [label for _, _, label in self._serialize(s).edges]
            except ValueError as err:
                warnings.warn(f"{s.id}: ucca gold skipped for inventories ({err})")
        inv.ucca_labels = _first_seen(labels)

    def build(self, model, rng):
        inv, cfg = model.inv, model.config
        if not inv.ucca_labels:
            return
        model.ucca_decoder = U.UccaDecoder(model.params, "ucca.dec",
                                           enc_hidden=cfg.hidden,
                                           use_layers=cfg.layers, rng=rng)
        model.ucca_extra = BiLstm(model.params, "ucca.extra",
                                  2 * cfg.hidden + U.PE_DIM, cfg.hidden, 1, rng,
                                  input_dropout=cfg.decoder_dropout)
        model.heads["ucca"] = model.biaffine_head("ucca", inv.ucca_labels, rng)
        model.remote_head = model.biaffine_head("ucca.remote", ["remote"], rng)

    def prepare(self, model, sent):
        """(pointers, edge cells, tops, remote cells)."""
        ser = self._serialize(sent)
        labels = model.heads["ucca"].labels
        return (ser.pointers, [(i, j, labels.index(lab)) for i, j, lab in ser.edges],
                list(ser.tops), [(i, j, 0) for i, j in ser.remotes])

    def terms(self, model, sent, enc_out, tgt, rng):
        pointers, cells, tops, remote_cells = tgt
        dec = U.pointer_decode(enc_out, model.ucca_decoder, gold_pointers=pointers)
        pointer = ad.cross_entropy_logits(dec.logits, pointers)
        states = U.build_node_states(enc_out, pointers, model.ucca_decoder,
                                     model.ucca_extra, rng)
        scores = model.heads["ucca"].score(states, rng)
        edge, label = B.edge_and_label_loss(scores, cells, tops)
        rscores = model.remote_head.score(states, rng)
        remote, _ = B.edge_and_label_loss(rscores, remote_cells, [])
        return {"ucca.dec": pointer, "ucca.edge": edge, "ucca.label": label,
                "ucca.remote": remote}

    def predict(self, model, sents, enc_outs, beam):
        """A ``UccaPrediction`` per sentence, the remote head's edges only.
        A lone sentence takes ``U.pointer_decode`` and
        ``U.build_node_states``; a batch decodes in lockstep and runs the
        slot-state biLSTM once (their batch forms).  Each head runs once
        over the batch's slot states."""
        dec, extra = model.ucca_decoder, model.ucca_extra
        if len(enc_outs) == 1:
            runs = [U.pointer_decode(enc_outs[0], dec)]
            states = [U.build_node_states(enc_outs[0], runs[0].pointers, dec, extra)]
        else:
            runs = U.pointer_decode_batch(enc_outs, dec)
            states = U.node_states_batch(enc_outs, [r.pointers for r in runs], dec, extra)
        primary = model.heads["ucca"].predict(states)
        remote = model.remote_head.predict(states, edges_only=True)
        return [U.UccaPrediction(run.pointers, p.edge_probs.data, p.label_probs(),
                                 r.edge_probs.data)
                for run, p, r in zip(runs, primary, remote)]

    def decode(self, models, sent, preds, text):
        labels = _require_same_labels([m.heads["ucca"].labels for m in models],
                                      "ucca labels")
        win = preds[0] if len(preds) == 1 else U.voting_ensemble(preds)
        return U.decode_graph(win, labels, sent.tokens, text, sent.id)

    def validator(self, model, cfg, val):
        """Labeled F1 over the corpus."""
        golds = [s.graphs["ucca"] for s in val]
        return lambda m: corpus_report(
            golds, [parse_sentence(m, s, "ucca") for s in val]).framework_f1("ucca")


class AmrTask(Task):
    """AMR: the generator writes the nodes, and a biaffine head over its
    states scores the edges.  An ensemble is its single best model, and
    a single-framework run early-stops on the objective."""
    rule = "single"
    mode = "min"

    def _tree(self, sent):
        """(anonymization, tree of the anonymized graph, senses stripped)."""
        anon = A.anonymize(sent.graphs["amr"], sent.tokens)
        nodes = tuple(G.replace(n, label=A.strip_sense(n.label))
                      for n in anon.graph.nodes)
        return anon, A.dag_to_tree(G.replace(anon.graph, nodes=nodes))

    def inventory(self, inv, sents):
        """Concepts and edge labels, first seen first, the sense table
        and the NE map."""
        concepts, edges, senses, nes = [], [], [], []
        for s in sents:
            try:
                anon, tree = self._tree(s)
            except ValueError as err:
                warnings.warn(f"{s.id}: amr gold skipped for inventories ({err})")
                continue
            concepts += tree.labels()
            edges += [n.edge_label for n in tree.nodes if n.parent >= 0]
            senses += [n.label for n in anon.graph.nodes]
            for r in anon.records:
                if r.span is not None:
                    tags = {s.tokens[k].ne for k in range(*r.span)}
                    nes += [(tag, r.head_label) for tag in tags if tag != "O"]
        inv.amr_concepts, inv.amr_edges = _first_seen(concepts), _first_seen(edges)
        if senses:
            inv.sense_table = A.build_sense_table(senses)
            inv.ne_map = A.build_ne_map(nes)

    def build(self, model, rng):
        inv, cfg = model.inv, model.config
        if not (inv.amr_concepts and inv.amr_edges):
            return
        model.amr_vocab = A.DecoderVocab(inv.amr_concepts)
        model.amr_decoder = A.AmrDecoder(
            model.params, "amr.dec", enc_hidden=cfg.hidden,
            feat_width=A.node_feature_width(model.encoder),
            hidden=cfg.decoder_hidden, n_vocab=len(model.amr_vocab), rng=rng,
            layers=cfg.decoder_layers, dropout=cfg.decoder_dropout)
        model.heads["amr"] = model.biaffine_head("amr", inv.amr_edges, rng,
                                                 in_dim=cfg.decoder_hidden)

    def prepare(self, model, sent):
        """(edge cells, gold sequence): the tree's (parent, node, label
        index) cells in tree-node order."""
        _, tree = self._tree(sent)
        index = {lab: k for k, lab in enumerate(model.heads["amr"].labels)}
        for n in tree.nodes:
            if n.parent >= 0 and n.edge_label not in index:
                raise ValueError(f"edge label {n.edge_label!r} not in inventory")
        cells = [(n.parent, n.index, index[n.edge_label]) for n in tree.nodes if n.parent >= 0]
        ctx = SimpleNamespace(lemmas=tuple(t.lemma for t in sent.tokens),
                              vocab=model.amr_vocab)
        return cells, A.gold_sequence(tree, ctx)

    def terms(self, model, sent, enc_out, tgt, rng):
        cells, gold = tgt
        ctx = model.amr_context(sent, enc_out)
        p, attns, states = A.run_teacher_forced(ctx, gold, rng)
        dec = A.decoder_loss(p, gold.targets, len(ctx.lemmas))
        cov = A.coverage_loss(attns)
        scores = model.heads["amr"].score(states, rng)
        edge, label = B.edge_and_label_loss(scores, cells, [])
        return {"amr.dec": dec, "amr.cov": cov, "amr.edge": edge,
                "amr.label": label}

    def predict(self, model, sents, enc_outs, beam):
        """``_predict_one`` of each sentence, from its own beam search."""
        return [self._predict_one(model, s, e, beam) for s, e in zip(sents, enc_outs)]

    def _predict_one(self, model, sent, enc_out, beam):
        """(generation, edge probabilities, label probabilities), the
        probabilities None for an empty generation, which a sentence
        without tokens gets: the mixture has no source to copy from."""
        gen = (A.beam_search(model.amr_context(sent, enc_out), width=beam) if sent.tokens
               else A.AmrGeneration((), (), (), (), 0.0))
        if not gen.labels:
            return gen, None, None
        [scores] = model.heads["amr"].predict([ad.concat(list(gen.states), axis=0)])
        return gen, scores.edge_probs.data, scores.label_probs()

    def decode(self, models, sent, preds, text):
        if len(preds) > 1:
            raise ValueError("amr is served by its single best model, not combined")
        model = models[0]
        records = A.records_from_ne(sent.tokens, model.inv.ne_map)
        graph, _ = A.decode_graph(*preds[0], model.heads["amr"].labels,
                                  sent.id, text, records=records,
                                  sense_table=model.inv.sense_table)
        return graph

    def validator(self, model, cfg, val):
        """The objective."""
        preps = prepare_sentences(model, val, ("amr",))
        return lambda m: _val_loss(
            preps, lambda p: sentence_loss(m, cfg, p, ("amr",)), "amr")


# the served frameworks, in the order their modules are built
TASKS = {t.name: t for t in (SdpTask("dm", frames=True), SdpTask("psd", frames=False),
                             UccaTask("ucca"), AmrTask("amr"))}


def prepare_sentences(model, sentences, frameworks, allowed_ids=None):
    """Precompute per-framework supervision; unusable gold is dropped
    with a warning instead of failing the run."""
    tasks = [TASKS[name] for name in frameworks if name in model.heads]
    preps = []
    for s in sentences:
        targets = {}
        for task in tasks:
            if task.name not in s.graphs or (
                    allowed_ids is not None and s.id not in allowed_ids.get(task.name, ())):
                continue
            try:
                targets[task.name] = task.prepare(model, s)
            except (ValueError, KeyError) as err:
                warnings.warn(f"{s.id}: {task.name} gold dropped ({err})")
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

def framework_terms(model, prep, frameworks, rng=None):
    """Per-framework loss pieces for one sentence, keyed "fw.part", of a
    training pass (dropout drawn from ``rng``) when ``rng`` is given.

    Frameworks without prepared gold contribute no keys at all, so their
    parameters stay entirely off the backward graph.
    """
    want = [TASKS[name] for name in frameworks if name in prep.targets]
    if not want:
        return {}
    [enc_out] = model.encode([prep.sent], rng)
    terms = {}
    for task in want:
        terms.update(task.terms(model, prep.sent, enc_out,
                                prep.targets[task.name], rng))
    return terms


# the biaffine pieces, summed in table order
_LABEL_TERMS = tuple(f"{name}.label" for name in TASKS)
_EDGE_TERMS = tuple(f"{name}.edge" for name in TASKS)


def multitask_loss(cfg, terms):
    """Assemble the joint objective from whatever pieces are present.

    Absent frameworks are omitted rather than zero-weighted, keeping
    their gradients exactly zero.
    """
    label_parts = [terms[k] for k in _LABEL_TERMS if k in terms]
    if "dm.frame" in terms:
        label_parts.append(ad.mul(terms["dm.frame"], cfg.lam_frame))
    edge_parts = [terms[k] for k in _EDGE_TERMS if k in terms]
    pieces = []
    if label_parts or edge_parts:
        inner = None
        if label_parts:
            inner = ad.mul(reduce(ad.add, label_parts), cfg.lam_label)
        if edge_parts:
            e = ad.mul(reduce(ad.add, edge_parts), 1.0 - cfg.lam_label)
            inner = e if inner is None else ad.add(inner, e)
        pieces.append(ad.mul(inner, cfg.lam_biaf))
    pieces += [ad.mul(terms[k], lam) for k, lam in (
        ("amr.cov", cfg.lam_cov), ("ucca.dec", cfg.lam_dec_ucca),
        ("amr.dec", cfg.lam_dec_amr), ("ucca.remote", cfg.lam_remote)) if k in terms]
    if not pieces:
        return ad.Tensor(0.0)
    return reduce(ad.add, pieces)


def sentence_loss(model, cfg, prep, frameworks, rng=None):
    """The joint objective over one sentence's ``frameworks``; None when
    the sentence carries none of their gold."""
    # positional: the benchmark's tracer files a framework_terms call
    # under training or validation by its fourth positional argument
    terms = framework_terms(model, prep, frameworks, rng)
    if not terms:
        return None
    return multitask_loss(cfg, terms)


# ---------------------------------------------------------------------------
# validation metrics

def corpus_report(golds, preds, scored=None):
    """The summed ``mrp_f1`` counts of each gold and predicted graph,
    read first from ``scored``, which keeps them by (index, predicted
    graph), so an equal graph at its index is not scored again."""
    scored = {} if scored is None else scored
    rep = scoring.ScoreReport()
    for k, (g, p) in enumerate(zip(golds, preds)):
        if (k, p) not in scored:
            scored[k, p] = scoring.mrp_f1(g, p)
        rep.add(g.framework, scored[k, p])
    return rep


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
    history: list
    best_epochs: dict
    best_values: dict
    checkpoints: dict

    def model_at(self, key):
        """The model at the best epoch of metric ``key``, from its bundle."""
        return load_model(self.checkpoints[self.best_epochs[key]],
                          self.model.static, self.model.contextual)


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


def _train_loop(model, cfg, preps, loss_fn, modes, validate, run_dir=None):
    """Shared epoch loop: shuffled minibatches, clipped Adam steps,
    per-metric early stopping, kept epochs pruned to best-or-last.

    ``validate(model)`` returns, once per epoch, one value (or None) for
    each key of ``modes``, which early-stops it in its mode.  Each epoch
    is a bundle (``model.save``), not a copy in memory, in one store:
    ``run_dir``, or a ``mrparse-*`` temporary directory that goes when
    training raises or the returned ``TrainResult`` is collected.  The
    model comes back without gradients.
    """
    usable = [p for p in preps if p.targets]
    if not usable:
        raise ValueError("no sentence carries usable supervision")
    store = run_dir or tempfile.mkdtemp(prefix="mrparse-")
    try:
        os.makedirs(store, exist_ok=True)
        cfg.save(os.path.join(store, "config.json"))
        opt = ad.Adam(model.params.tensors(), lr=cfg.lr,
                      beta1=cfg.beta1, beta2=cfg.beta2)
        rng = np.random.default_rng(cfg.seed + 1)
        stoppers = {key: EarlyStopper(mode) for key, mode in modes.items()}
        checkpoints = {}  # epoch -> bundle path
        history = []
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
            record = {"epoch": epoch,
                      "train_loss": total / max(1, len(usable)),
                      "val": vals,
                      "best": {key: st.best_epoch for key, st in stoppers.items()},
                      **clip}
            history.append(dict(record, seconds=time.perf_counter() - t0))
            checkpoints[epoch] = os.path.join(store, f"epoch-{epoch:04d}.ckpt")
            model.save(checkpoints[epoch])
            # rewritten whole; wallclock stays out so reruns are byte-identical
            with atomic_open(os.path.join(store, "metrics.jsonl")) as fh:
                fh.writelines(json.dumps({k: v for k, v in r.items() if k != "seconds"},
                                         sort_keys=True) + "\n" for r in history)
            keep = {st.best_epoch for st in stoppers.values()
                    if st.best_epoch is not None} | {epoch}
            for e in [e for e in checkpoints if e not in keep]:
                os.remove(checkpoints.pop(e))
    except BaseException:
        if store != run_dir:
            shutil.rmtree(store, ignore_errors=True)
        raise
    opt.release()  # the gradient store would outlive training
    last = cfg.epochs - 1
    best_epochs = {key: (st.best_epoch if st.best_epoch is not None else last)
                   for key, st in stoppers.items()}
    best_values = {key: st.best_value for key, st in stoppers.items()}
    result = TrainResult(model=model, history=history, best_epochs=best_epochs,
                         best_values=best_values, checkpoints=checkpoints)
    if store != run_dir:
        weakref.finalize(result, shutil.rmtree, store, ignore_errors=True)
    return result


def _train_frameworks(model, cfg, split, frameworks, run_dir):
    """Train ``frameworks`` jointly, each early-stopped on its task's
    validation metric over its tuning carve-out: labeled F1 for DM, PSD
    and UCCA, the objective for AMR."""
    preps = _train_preps(model, split, frameworks)
    modes, fns = {}, {}
    for name in frameworks:
        val = split.val_i.get(name, [])
        if val and name in model.heads:
            modes[name] = TASKS[name].mode
            fns[name] = TASKS[name].validator(model, cfg, val)
    loss_fn = lambda m, p, rng: sentence_loss(m, cfg, p, frameworks, rng)
    return _train_loop(model, cfg, preps, loss_fn, modes,
                       lambda m: {name: fn(m) for name, fn in fns.items()},
                       run_dir=run_dir)


def train_single(split, config, static, contextual, run_dir=None):
    """One regime on its own frameworks (DM and PSD train jointly)."""
    model = MultiModel.derive(config, split, static, contextual)
    return _train_frameworks(model, config, split, config.frameworks, run_dir)


def train_multitask(split, config, static, contextual, run_dir=None):
    """Joint pretraining; early stopping tracks one loss per framework
    plus their sum, each on that framework's tuning carve-out."""
    cfg = config
    model = MultiModel.derive(cfg, split, static, contextual)
    preps = _train_preps(model, split, cfg.frameworks)
    loss_fn = lambda m, p, rng: sentence_loss(m, cfg, p, cfg.frameworks, rng)
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
    return _train_loop(model, cfg, preps, loss_fn, modes, validate, run_dir=run_dir)


def fine_tune(mtl_result, framework, config, split, static, contextual,
              run_dir=None):
    """Continue from the joint model on a single framework's objective.

    DM and PSD restart from the bundle of the epoch with the lowest
    total joint validation loss; UCCA and AMR from the bundle of their
    own framework-best epoch.  Only ``best_epochs`` and ``checkpoints``
    of ``mtl_result`` are read: the architecture fields, vocabulary and
    inventories come from the start bundle.  The other frameworks'
    modules stay in the model but receive no gradient.
    """
    task = TASKS.get(framework)
    if task is None:
        raise ValueError(f"fine-tuning is defined for {'/'.join(TASKS)}, "
                         f"not {framework!r}")
    start_key = task.start_key if task.start_key in mtl_result.best_epochs else framework
    model = _load_bundle(mtl_result.checkpoints[mtl_result.best_epochs[start_key]],
                         static, contextual, settings=config)
    return _train_frameworks(model, model.config, split, task.group, run_dir)


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

    @ad.no_grad()
    def token_states(self, sent):
        """Encoder states of the tokens (the root row dropped); a
        constant, since the encoder is frozen."""
        ctx = self.contextual.for_sentence(sent.id, len(sent.tokens))
        [enc_out] = self.encoder.run([(sent.tokens, ctx)])
        return ad.Tensor(enc_out.top.data[1:])

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
    spanned = []
    for a in abstract_ids:
        span = _token_span(by_id[a], sent.tokens)
        if span is None:
            warnings.warn(f"{sent.id}: abstract node {a} has no token span")
        else:
            spanned.append((a, span))
    tsets = E.descendant_token_sets(gold, [a for a, _ in spanned], token_of_node)
    return [(by_id[a].label, tset, i, j) for (a, (i, j)), tset in zip(spanned, tsets)]


def _anchor_loss(model, token_states, items):
    """Endpoint cross-entropies of one sentence's abstract nodes, each its own
    batch of one: a batch of all would sum the gradients in another order."""
    pairs = [model.anchor.endpoint_logits([label], [tset], token_states)
             for label, tset, _, _ in items]
    return E.anchor_loss(pairs, [(i, j) for _, _, i, j in items])


def train_eds(split, config, static, contextual, rules, encoder_from=None,
              run_dir=None):
    """Fit the converter: detectors from pooled sites, anchoring by
    gradient descent against gold spans, encoder copied and frozen.

    The anchor net trains through ``_train_loop``, early-stopped on the
    anchor loss of the EDS tuning carve-out; its epoch checkpoints are
    converter bundles.  Returns (the best epoch's bundle loaded, history);
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
                           if name.startswith(f"{PARAM_PREFIX}.") else arr
                           for name, arr in model.params.state_dict().items()})
    E.train_abstract_models(model.abstract, site_examples)
    if not anchor_items:
        warnings.warn("eds: no training sentence has an abstract node with a "
                      "token span; the anchor net stays untrained")
        return model, []

    # the encoder is frozen, so token states are computed once; its
    # gradients stay None, which keeps Adam and clipping off it.  The
    # targets are (token states, (label, token set, first, last) per
    # abstract node).
    def prep(sent, items):
        return Prepared(sent=sent,
                        targets={"eds": (model.token_states(sent), items)})

    preps = [prep(s, items) for s, items in anchor_items]
    val_preps = []
    for s in split.val_i.get("eds", []):
        if "dm" in s.graphs:
            items = _anchor_items(s, E.dm_to_eds_surface(s.graphs["dm"], rules))
            if items:
                val_preps.append(prep(s, items))
    loss_fn = lambda m, p, rng: _anchor_loss(m, *p.targets["eds"])
    validate = lambda m: {"eds": _val_loss(
        val_preps, lambda p: _anchor_loss(m, *p.targets["eds"]), "eds")}
    result = _train_loop(model, cfg, preps, loss_fn, {"eds": "min"}, validate, run_dir)
    return result.model_at("eds"), result.history


def _token_span(node, tokens):
    hits = G.covered_tokens(node, tokens)
    if not hits:
        return None
    return min(hits), max(hits)


# ---------------------------------------------------------------------------
# parsing

def predict(model, sentences, framework, beam=A.BEAM_WIDTH):
    """One model's prediction for each of ``sentences`` (``Task.predict``),
    the probability arrays its graph is decoded from, from one encoder
    pass over all of them.  UCCA decodes the batch in lockstep; the
    biaffine heads and the frame classifier run once over the batch,
    and the AMR beam per sentence.  A model without the framework's head
    or decoder raises a ValueError."""
    task = TASKS.get(framework)
    if task is None:
        raise ValueError(f"cannot parse framework {framework!r} with this model")
    if task.name not in model.heads:
        raise ValueError(f"model has no {task.name} {task.part}")
    return task.predict(model, sentences, model.encode(sentences), beam) if sentences else []


def decode_predictions(models, sent, framework, preds):
    """One sentence's graph from ``preds[i] = predict(models[i], ...)``.
    A single prediction decodes as it stands; several are combined first
    by the framework's rule: DM and PSD decode from the mean of each
    probability array, UCCA votes, and AMR refuses (it is served by its
    single best model)."""
    return TASKS[framework].decode(models, sent, preds, companion_text(sent.tokens))


@ad.no_grad()
def parse_ensemble(models, sent, framework, beam=A.BEAM_WIDTH):
    """Predict with each model, then combine and decode."""
    preds = [predict(m, [sent], framework, beam=beam)[0] for m in models]
    return decode_predictions(models, sent, framework, preds)


def parse_sentence(model, sent, framework):
    """Decode one framework's graph for one sentence."""
    return parse_ensemble([model], sent, framework)


# ---------------------------------------------------------------------------
# ensembling

@dataclass(frozen=True)
class EnsembleSpec:
    framework: str
    members: tuple        # indices into the caller's model list
    rule: str             # "average" | "vote" | "single"

    def to_json(self):
        return dict(asdict(self), members=list(self.members))

    @classmethod
    def from_json(cls, doc):
        return cls(doc["framework"], tuple(doc["members"]), doc["rule"])


def _require_same_labels(label_lists, what):
    first = list(label_lists[0])
    for other in label_lists[1:]:
        if list(other) != first:
            raise ValueError(f"ensemble members disagree on {what}")
    return first


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


@ad.no_grad()
def build_ensemble(models, framework, sentences, beam=A.BEAM_WIDTH):
    """Pick members on the ensembling carve-out by held-out F1.

    The framework's rule decides: AMR keeps its single best model; DM
    and PSD average probabilities; UCCA votes.  Each model predicts each
    sentence once, in one ``predict`` per member over all of them (one
    encoder pass, each head once; UCCA decodes in lockstep): for k models
    and n sentences the cache holds k × n predictions, each the
    probability arrays one parse builds, softmaxes included, and every
    subset the scan tries is scored by decoding its members' cached
    predictions.  A graph that an earlier subset decoded for the same
    sentence keeps its ``mrp_f1`` counts, so each distinct graph of a
    sentence is scored once.  A batched prediction is within 1e-12 of
    the sentence's own (``parse_ensemble``): the padded GEMMs run over
    more rows, so a sum's last bits may differ.  An empty carve-out
    raises a ValueError.
    """
    if not sentences:
        raise ValueError(f"build_ensemble needs at least one {framework} sentence")
    golds = [s.graphs[framework] for s in sentences]
    cache = [predict(m, sentences, framework, beam=beam) for m in models]
    scored = {}

    def score_fn(member_ids):
        subset = [models[i] for i in member_ids]
        graphs = [decode_predictions(subset, s, framework,
                                     [cache[i][k] for i in member_ids])
                  for k, s in enumerate(sentences)]
        return corpus_report(golds, graphs, scored).framework_f1(framework)

    candidates = list(range(len(models)))
    rule = TASKS[framework].rule
    if rule == "single":
        solo = {i: score_fn((i,)) for i in candidates}
        best = sorted(candidates, key=lambda i: (-solo[i], i))[0]
        return EnsembleSpec(framework, (best,), rule), solo[best]
    members, best = greedy_ensemble(candidates, score_fn)
    return EnsembleSpec(framework, members, rule), best

