"""Command line front end.

Subcommands:
  train      fit a model; bundles, checkpoints and metrics land in --out
  parse      decode graphs for companion sentences with saved bundles
  evaluate   score a prediction file against gold
  convert    DM -> EDS conversion over a parsed or gold DM file
  split      carve a corpus into train/validation id lists
  ensemble   pick ensemble members on a validation carve-out

Exit codes: 0 success, 1 operational failure (bad content, divergence,
invalid output), 2 usage error.  Diagnostics go to stderr; file outputs
are deterministic (sorted JSON keys, fixed graph field order).
"""

import argparse
import json
import sys
import os
import shutil
import warnings
from dataclasses import replace

import numpy as np

from . import graphs as G
from . import eds as E
from . import scoring
from . import training as T
from .amr import BEAM_WIDTH
from .atomic import atomic_open
from .config import (ARCH_FIELDS, SDP_PAIR, TrainConfig, single_config,
                     multitask_config, fine_tune_config)
from .encoder import StaticEmbeddings, ContextualEmbeddings


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(f"{self.prog}: {message}")


def _add_corpus_args(p):
    p.add_argument("--companion", required=True,
                   help="tokenized sentences with lemma/POS/NE columns")
    p.add_argument("--mrp", action="append", required=True,
                   help="gold graph file; repeat for several frameworks")


def _add_embedding_args(p, required=True):
    p.add_argument("--static", required=required,
                   help="word vector table, one token per line")
    p.add_argument("--contextual", required=required,
                   help="npz with per-sentence contextual layers")


def build_parser():
    parser = _Parser(prog="mrparse")
    sub = parser.add_subparsers(dest="cmd")

    p = sub.add_parser("train", help="fit a model")
    _add_corpus_args(p)
    _add_embedding_args(p)
    p.add_argument("--regime", required=True,
                   choices=["single", "multitask", "fine-tune", "eds"])
    p.add_argument("--framework", choices=list(T.TASKS))
    p.add_argument("--config", help="JSON file of setting overrides")
    p.add_argument("--split", help="id-list file written by `mrparse split`")
    p.add_argument("--from-model", dest="from_model",
                   help="bundle to continue from (fine-tune) or to "
                        "transfer the encoder from (eds)")
    p.add_argument("--rules", help="conversion rule file (eds regime)")
    p.add_argument("--bug-compatible", action="store_true",
                   help="replay the historical fine-tune optimizer values")
    p.add_argument("--out", required=True, help="run directory")
    p.add_argument("--seed", type=int)
    p.add_argument("--scale", type=float,
                   help="width multiplier, e.g. 0.05 for a desk-size model")
    p.add_argument("--epochs", type=int)
    p.add_argument("--lr", type=float)
    p.add_argument("--batch-size", dest="batch_size", type=int)
    p.set_defaults(entry=cmd_train)

    p = sub.add_parser("parse", help="decode graphs")
    p.add_argument("--companion", required=True, help="tokenized sentences to parse")
    _add_embedding_args(p)
    members = p.add_mutually_exclusive_group(required=True)
    members.add_argument("--model", action="append", default=[],
                         help="bundle; repeat to combine several")
    members.add_argument("--spec",
                         help="member spec JSON written by `mrparse ensemble`; "
                              "parses with the members it chose")
    p.add_argument("--framework", required=True, choices=G.FRAMEWORKS)
    p.add_argument("--dm-model", dest="dm_model", action="append", default=[],
                   help="DM bundle(s) feeding the EDS converter")
    p.add_argument("--dm-mrp", dest="dm_mrp",
                   help="DM graph file feeding the EDS converter")
    p.add_argument("--beam", type=int, help="AMR beam width")
    p.add_argument("--out", required=True)
    p.set_defaults(entry=cmd_parse)

    p = sub.add_parser("evaluate", help="score predictions against gold")
    p.add_argument("--gold", required=True)
    p.add_argument("--pred", required=True)
    p.add_argument("--out", help="write the JSON report here (else stdout)")
    p.set_defaults(entry=cmd_evaluate)

    p = sub.add_parser("convert", help="DM -> EDS conversion")
    p.add_argument("--companion", required=True)
    p.add_argument("--mrp", required=True, help="DM graph file")
    p.add_argument("--rules", help="conversion rules (defaults to the "
                                   "rules embedded in --model)")
    p.add_argument("--model", help="trained converter bundle; omitting it "
                                   "runs the rules alone")
    _add_embedding_args(p, required=False)
    p.add_argument("--out", required=True)
    p.set_defaults(entry=cmd_convert)

    p = sub.add_parser("split", help="carve validation sets")
    _add_corpus_args(p)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--factor", type=float, default=1.0,
                   help="shrink the stock validation sizes")
    p.add_argument("--out", required=True, help="id-list JSON file")
    p.set_defaults(entry=cmd_split)

    p = sub.add_parser("ensemble", help="select ensemble members")
    p.add_argument("--companion", required=True)
    p.add_argument("--gold", required=True,
                   help="held-out gold graphs for member scoring")
    _add_embedding_args(p)
    p.add_argument("--model", action="append", required=True, default=[])
    p.add_argument("--framework", required=True, choices=list(T.TASKS))
    p.add_argument("--beam", type=int, help="AMR beam width")
    p.add_argument("--out", required=True, help="member spec JSON file")
    p.set_defaults(entry=cmd_ensemble)

    return parser


# ---------------------------------------------------------------------------
# shared loading

def _load(path, kind, static, contextual):
    """The model of the bundle at ``path``, refused unless it is a
    ``kind``: ``T.MultiModel`` (a parser) or ``T.EdsModel`` (a converter)."""
    model = T.load_model(path, static, contextual)
    if not isinstance(model, kind):
        what = "parser" if kind is T.MultiModel else "conversion"
        raise ValueError(f"{path}: not a {what} bundle")
    return model


def _load_sentences(companion_path, mrp_paths):
    companion = G.load_companion(companion_path)
    return G.build_corpus(companion, [G.load_mrp(p) for p in mrp_paths])


def _load_embeddings(args):
    static = StaticEmbeddings.load(args.static, np.random.default_rng(0))
    contextual = ContextualEmbeddings.load(args.contextual)
    return static, contextual


def _beam(args):
    """The AMR beam width; ``--beam`` below 1 or with another framework
    is a usage error, so call this before loading anything."""
    if args.beam is not None and args.framework != "amr":
        raise UsageError(f"{args.cmd} --framework {args.framework} "
                         f"does not use --beam")
    if args.beam is not None and args.beam < 1:
        raise UsageError(f"{args.cmd} --beam must be at least 1, not {args.beam}")
    return BEAM_WIDTH if args.beam is None else args.beam


def _write_json(doc, path):
    with atomic_open(path) as fh:
        fh.write(json.dumps(doc, sort_keys=True, indent=2) + "\n")


def _validate_or_fail(graphs):
    bad = []
    for g in graphs:
        problems = G.validate_graph(g)
        if problems:
            bad.append(g.id)
            for msg in problems:
                print(f"{g.id}: {msg}", file=sys.stderr)
    if bad:
        print(f"refusing to write {len(bad)} invalid graphs: "
              + ", ".join(bad), file=sys.stderr)
        return False
    return True


# ---------------------------------------------------------------------------
# train

def _widths_from_base(args):
    """Whether the regime copies every width (``config.ARCH_FIELDS``)
    from the base model, so that no flag or setting may set one."""
    return args.regime == "fine-tune" or (args.regime == "eds"
                                          and bool(args.from_model))


def _check_train_flags(args):
    """Refuse, before anything is loaded or written, a flag the regime
    needs but lacks, or has but would ignore."""
    regime = args.regime
    needed = {"--framework": regime in ("single", "fine-tune") and not args.framework,
              "--from-model": regime == "fine-tune" and not args.from_model,
              "--rules": regime == "eds" and not args.rules}
    ignored = {"--framework": regime in ("multitask", "eds") and args.framework,
               "--from-model": regime in ("single", "multitask") and args.from_model,
               "--rules": regime != "eds" and args.rules,
               "--scale": _widths_from_base(args) and args.scale is not None}
    for flag, missing in needed.items():
        if missing:
            raise UsageError(f"train --regime {regime} needs {flag}")
    for flag, unused in ignored.items():
        if unused:
            raise UsageError(f"train --regime {regime} does not use {flag}")
    if args.bug_compatible and not (regime == "fine-tune"
                                    and args.framework in SDP_PAIR):
        raise UsageError("--bug-compatible applies only to train --regime "
                         "fine-tune --framework dm|psd")


def _resolve_config(args):
    if args.regime == "single":
        base = single_config(args.framework)
    elif args.regime == "multitask":
        base = multitask_config()
    elif args.regime == "fine-tune":
        base = fine_tune_config(args.framework,
                                bug_compatible=args.bug_compatible)
    else:
        base = single_config("eds")
    doc = base.to_json()
    if args.config:
        with open(args.config, encoding="utf-8") as fh:
            overrides = json.load(fh)
        if not isinstance(overrides, dict):
            raise ValueError(f"{args.config}: settings must be a JSON object, "
                             f"not {type(overrides).__name__}")
        widths = sorted(set(overrides) & {"scale", *ARCH_FIELDS})
        if widths and _widths_from_base(args):
            raise UsageError(f"train --regime {args.regime} does not use --config "
                             f"keys {', '.join(widths)}: the base model sets them")
        doc.update(overrides)
    try:
        cfg = TrainConfig.from_json(doc)
    except ValueError as err:  # only the file's settings can be at fault
        raise ValueError(f"{args.config}: {err}") from None
    overrides = {name: getattr(args, name)
                 for name in ("seed", "scale", "epochs", "lr", "batch_size")
                 if getattr(args, name) is not None}
    if overrides:
        cfg = replace(cfg, **overrides)
    return cfg.scaled()


def _resolve_split(args, sentences, seed):
    if not args.split:
        return T.split_dataset(sentences, seed=seed)
    with open(args.split, encoding="utf-8") as fh:
        doc = json.load(fh)
    by_id = {s.id: s for s in sentences}

    names = ("train", "val_i", "val_ii")
    if not (isinstance(doc, dict) and all(isinstance(doc.get(n), dict) for n in names)):
        raise ValueError(f"{args.split}: not an id-list file written by `mrparse split`")

    def part(name):
        out = {}
        for fw, ids in doc[name].items():
            if not (isinstance(ids, list) and all(isinstance(i, str) for i in ids)):
                raise ValueError(f"{args.split}: {name}/{fw} is not a list of "
                                 f"sentence ids")
            missing = [i for i in ids if i not in by_id]
            if missing:
                raise ValueError(f"{args.split}: {name}/{fw} lists unknown "
                                 f"sentences: {', '.join(missing)}")
            out[fw] = [by_id[i] for i in ids]
        return out

    return T.DataSplit(train=part("train"), val_i=part("val_i"),
                       val_ii=part("val_ii"))


def _pseudo_result(path):
    """Fine-tuning's start: the bundle at ``path``."""
    return T.TrainResult(model=None, history=[], best_values={}, checkpoints={0: path},
                         best_epochs={k: 0 for k in ("total", *T.TASKS)})


def cmd_train(args):
    _check_train_flags(args)
    cfg = _resolve_config(args)
    sentences = _load_sentences(args.companion, args.mrp)
    static, contextual = _load_embeddings(args)
    split = _resolve_split(args, sentences, cfg.seed)
    os.makedirs(args.out, exist_ok=True)

    if args.regime == "eds":
        rules = E.ConversionRuleSet.load(args.rules)
        encoder_from = (T.load_model(args.from_model, static, contextual)
                        if args.from_model else None)
        model, history = T.train_eds(split, cfg, static, contextual, rules,
                                     encoder_from=encoder_from,
                                     run_dir=args.out)
        path = os.path.join(args.out, "model-eds.bundle")
        model.save(path)
        print(f"eds: {len(history)} epochs, bundle at {path}")
        return 0

    if args.regime == "single":
        result = T.train_single(split, cfg, static, contextual,
                                run_dir=args.out)
    elif args.regime == "multitask":
        result = T.train_multitask(split, cfg, static, contextual,
                                   run_dir=args.out)
    else:
        result = T.fine_tune(_pseudo_result(args.from_model), args.framework,
                             cfg, split, static, contextual, run_dir=args.out)

    for key in sorted(result.best_epochs):
        path = os.path.join(args.out, f"model-{key}.bundle")
        with open(result.checkpoints[result.best_epochs[key]], "rb") as src, \
                atomic_open(path, "wb") as dst:
            shutil.copyfileobj(src, dst)
        value = result.best_values.get(key)
        shown = "n/a" if value is None else f"{value:.4f}"
        print(f"{key}: best epoch {result.best_epochs[key]} "
              f"(value {shown}), bundle at {path}")
    return 0


# ---------------------------------------------------------------------------
# parse

def _check_parse_flags(args):
    """Refuse, before anything is loaded, a flag the framework ignores,
    lacks or cannot take as given."""
    fw = args.framework
    for flag, value in (("--dm-model", args.dm_model), ("--dm-mrp", args.dm_mrp)):
        if value and fw != "eds":
            raise UsageError(f"parse --framework {fw} does not use {flag}")
    if fw == "eds" and len(args.model) != 1:
        raise UsageError("parse --framework eds takes one conversion bundle; "
                         "pass a single --model")
    if fw == "eds" and not (args.dm_model or args.dm_mrp):
        raise UsageError("parse --framework eds needs --dm-model or --dm-mrp")
    if fw == "amr" and len(args.model) > 1:
        raise UsageError("amr is served by one bundle; pass a single --model")


def _eds_dm_source(args, sentences, static, contextual):
    if args.dm_mrp:
        dm = {g.id: g for g in G.load_mrp(args.dm_mrp)}
        missing = [s.id for s in sentences if s.id not in dm]
        if missing:
            raise ValueError(f"{args.dm_mrp}: no DM graph for: "
                             + ", ".join(missing))
        return lambda s: dm[s.id]
    dm_models = [_load(p, T.MultiModel, static, contextual) for p in args.dm_model]
    return lambda s: T.parse_ensemble(dm_models, s, "dm")


def _load_spec(args, static, contextual):
    """The member models of the spec of ``--spec``, in spec order."""
    try:
        with open(args.spec, encoding="utf-8") as fh:
            doc = json.load(fh)
        spec = T.EnsembleSpec.from_json(doc)
        paths = list(doc["models"])
        if not spec.members or not all(0 <= i < len(paths) for i in spec.members):
            raise ValueError
    except (ValueError, KeyError, TypeError):
        raise ValueError(f"{args.spec}: not a member spec written by "
                         f"`mrparse ensemble`") from None
    if spec.framework != args.framework:
        raise ValueError(f"{args.spec}: spec is for {spec.framework}, "
                         f"not {args.framework}")
    return [_load(paths[i], T.MultiModel, static, contextual) for i in spec.members]


def cmd_parse(args):
    beam = _beam(args)
    _check_parse_flags(args)
    sentences = _load_sentences(args.companion, [])
    static, contextual = _load_embeddings(args)
    kind = T.EdsModel if args.framework == "eds" else T.MultiModel
    models = (_load_spec(args, static, contextual) if args.spec
              else [_load(p, kind, static, contextual) for p in args.model])

    if args.framework == "eds":
        dm_of = _eds_dm_source(args, sentences, static, contextual)
        graphs = [models[0].parse(s, dm_of(s))[0] for s in sentences]
    else:
        graphs = [T.parse_ensemble(models, s, args.framework, beam=beam)
                  for s in sentences]

    if not _validate_or_fail(graphs):
        return 1
    G.save_mrp(graphs, args.out)
    print(f"wrote {len(graphs)} {args.framework} graphs to {args.out}")
    return 0


# ---------------------------------------------------------------------------
# evaluate

def _empty_like(g):
    return G.MrpGraph(id=g.id, flavor=g.flavor, framework=g.framework,
                      input=g.input, tops=(), nodes=(), edges=())


def _graphs_by_key(path):
    """The graphs of an MRP file by (framework, id).  A repeated key is
    refused: only one of its graphs could be paired and scored."""
    out = {}
    for g in G.load_mrp(path):
        key = (g.framework, g.id)
        if key in out:
            raise ValueError(f"{path}: repeated graph {g.framework}/{g.id}")
        out[key] = g
    return out


def cmd_evaluate(args):
    golds = _graphs_by_key(args.gold)
    by_key = _graphs_by_key(args.pred)
    report = scoring.ScoreReport()
    for g in golds.values():
        p = by_key.pop((g.framework, g.id), None)
        if p is None:
            print(f"warning: no prediction for {g.framework}/{g.id}; "
                  f"scoring an empty graph", file=sys.stderr)
            p = _empty_like(g)
        report.add(g.framework, scoring.mrp_f1(g, p))
    if by_key:
        print(f"warning: {len(by_key)} predictions had no gold and were "
              f"ignored", file=sys.stderr)
    doc = report.to_json()
    if args.out:
        _write_json(doc, args.out)
    else:
        print(json.dumps(doc, sort_keys=True, indent=2))
    print(report.format_table())
    return 0


# ---------------------------------------------------------------------------
# convert

def cmd_convert(args):
    if (args.static or args.contextual) and not args.model:
        raise UsageError("convert --static and --contextual need --model")
    sentences = _load_sentences(args.companion, [args.mrp])
    missing = [s.id for s in sentences if "dm" not in s.graphs]
    if missing:
        raise ValueError(f"{args.mrp}: no DM graph for: " + ", ".join(missing))

    if args.model:
        if not (args.static and args.contextual):
            raise UsageError("convert --model needs --static and --contextual")
        static, contextual = _load_embeddings(args)
        converter = _load(args.model, T.EdsModel, static, contextual)
        if args.rules:
            converter.rules = E.ConversionRuleSet.load(args.rules)
        graphs = [converter.parse(s, s.graphs["dm"])[0] for s in sentences]
    else:
        if not args.rules:
            raise UsageError("convert needs --rules when no --model is given")
        rules = E.ConversionRuleSet.load(args.rules)
        graphs = [E.convert(s.graphs["dm"], s.tokens, rules)[0]
                  for s in sentences]

    if not _validate_or_fail(graphs):
        return 1
    G.save_mrp(graphs, args.out)
    print(f"wrote {len(graphs)} eds graphs to {args.out}")
    return 0


# ---------------------------------------------------------------------------
# split

def cmd_split(args):
    sentences = _load_sentences(args.companion, args.mrp)
    split = T.split_dataset(sentences, seed=args.seed, factor=args.factor)
    doc = {name: {fw: [s.id for s in part[fw]] for fw in sorted(part)}
           for name, part in (("train", split.train), ("val_i", split.val_i),
                              ("val_ii", split.val_ii))}
    _write_json(doc, args.out)
    for fw in G.FRAMEWORKS:
        print(f"{fw}: train {len(split.train[fw])}, "
              f"val_i {len(split.val_i[fw])}, val_ii {len(split.val_ii[fw])}")
    return 0


# ---------------------------------------------------------------------------
# ensemble

def cmd_ensemble(args):
    beam = _beam(args)
    sentences = _load_sentences(args.companion, [args.gold])
    usable = [s for s in sentences if args.framework in s.graphs]
    if not usable:
        raise ValueError(f"{args.gold} holds no {args.framework} graphs "
                         f"for the companion sentences")
    static, contextual = _load_embeddings(args)
    models = [_load(p, T.MultiModel, static, contextual) for p in args.model]
    spec, score = T.build_ensemble(models, args.framework, usable, beam=beam)
    doc = dict(spec.to_json(), score=score, models=list(args.model))
    _write_json(doc, args.out)
    chosen = ", ".join(args.model[i] for i in spec.members)
    print(f"{args.framework}: rule {spec.rule}, score {score:.4f}, "
          f"members: {chosen}")
    return 0


# ---------------------------------------------------------------------------
# entry

def run(argv):
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except UsageError as err:
        print(str(err), file=sys.stderr)
        return 2
    except SystemExit as err:   # --help
        return int(err.code or 0)
    if getattr(args, "entry", None) is None:
        parser.print_usage(sys.stderr)
        return 2
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("always")
            return args.entry(args)
    except UsageError as err:
        print(str(err), file=sys.stderr)
        return 2
    except T.TrainingDiverged as err:
        print(f"training diverged: {err}", file=sys.stderr)
        return 1
    except (OSError, ValueError, KeyError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 1


def main():
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
