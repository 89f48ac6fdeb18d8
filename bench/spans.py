"""In-memory span recorder that wraps mrparse's public layer boundaries.

Nothing inside ``src/`` knows about tracing: :func:`instrument` swaps the
public functions and methods listed in :data:`BOUNDARIES` for wrappers
that record one span per call (name, start, end, parent) and restores the
originals on exit.  ``Tensor`` constructions are counted, not spanned,
because there are hundreds of thousands of them.  Self time is a span's
duration minus the durations of its direct children.
"""

import contextlib
import importlib
import inspect
import json
import sys
import time

from mrparse import autodiff as ad
from mrparse import scoring

# span record fields
NAME, START, END, PARENT, TENSORS0, TENSORS1, ATTRS = range(7)


class Tracer:
    def __init__(self):
        self.spans = []
        self.stack = []
        self.tensors = 0

    def open(self, name):
        parent = self.stack[-1] if self.stack else -1
        idx = len(self.spans)
        self.spans.append([name, time.perf_counter(), None, parent,
                           self.tensors, None, None])
        self.stack.append(idx)
        return idx

    def close(self, idx, attrs=None):
        span = self.spans[idx]
        span[END] = time.perf_counter()
        span[TENSORS1] = self.tensors
        span[ATTRS] = attrs
        self.stack.pop()

    @contextlib.contextmanager
    def span(self, name):
        idx = self.open(name)
        try:
            yield
        finally:
            self.close(idx)

    def self_times(self):
        """Per-span self time, aligned with ``self.spans``."""
        child = [0.0] * len(self.spans)
        for s in self.spans:
            if s[PARENT] >= 0:
                child[s[PARENT]] += s[END] - s[START]
        return [s[END] - s[START] - c for s, c in zip(self.spans, child)]

    def write(self, path):
        """One JSON object per span, in start order."""
        with open(path, "w", encoding="utf-8") as fh:
            for k, s in enumerate(self.spans):
                fh.write(json.dumps({
                    "id": k, "name": s[NAME], "start": s[START], "end": s[END],
                    "parent": s[PARENT], "tensors": s[TENSORS1] - s[TENSORS0],
                    "attrs": s[ATTRS]}) + "\n")


class _NullTracer:
    """Stands in when tracing is off: phase spans cost nothing."""

    @contextlib.contextmanager
    def span(self, name):
        yield


NULL = _NullTracer()


# ---------------------------------------------------------------------------
# boundaries: (module, attribute path, span name, attrs from the result)
#
# A string span name is fixed; a callable receives the call's positional
# and keyword arguments and returns the name.

def _terms_name(args, kwargs):
    train = kwargs.get("train", args[3] if len(args) > 3 else False)
    return "training.forward_train" if train else "training.forward_val"


def _by_flavor(prefix):
    def name(args, kwargs):
        gold = kwargs.get("gold", args[0] if args else None)
        return f"{prefix}.amr" if gold.flavor == 2 else f"{prefix}.anchored"
    return name


def _pointer_attrs(result, args, kwargs):
    return {"steps": len(result.pointers), "truncated": int(result.truncated)}


def _beam_attrs(result, args, kwargs):
    return {"truncated": int(result.truncated)}


def _search_attrs(result, args, kwargs):
    """Which unanchored search path ``correspondence`` took."""
    gold, pred = args[0], args[1]
    if gold.flavor != 2 or not gold.nodes or not pred.nodes:
        return None
    small = max(len(gold.nodes), len(pred.nodes)) <= scoring.EXHAUSTIVE_LIMIT
    return {"exhaustive": int(small), "hillclimb": int(not small)}


BOUNDARIES = (
    ("mrparse.autodiff", "Tensor.backward", "autodiff.backward", None),
    ("mrparse.autodiff", "Adam.step", "autodiff.adam_step", None),
    ("mrparse.autodiff", "clip_gradients", "autodiff.clip", None),
    ("mrparse.autodiff", "ParamSet.save", "autodiff.ckpt_save", None),
    ("mrparse.autodiff", "ParamSet.read", "autodiff.ckpt_read", None),
    ("mrparse.encoder", "Encoder.featurize", "encoder.featurize", None),
    ("mrparse.encoder", "BiLstm.run", "encoder.bilstm", None),
    ("mrparse.biaffine", "BiaffineHead.score", "biaffine.score", None),
    ("mrparse.biaffine", "decode_flavor0", "biaffine.decode_flavor0", None),
    ("mrparse.sdp", "FrameClassifier.predict", "sdp.frame_predict", None),
    ("mrparse.sdp", "build_graph", "sdp.build_graph", None),
    ("mrparse.eds", "convert", "eds.convert", None),
    ("mrparse.eds", "AnchorNet.predict_span", "eds.predict_span", None),
    ("mrparse.ucca", "pointer_decode", "ucca.pointer_decode", _pointer_attrs),
    ("mrparse.ucca", "build_node_states", "ucca.node_states", None),
    ("mrparse.ucca", "voting_ensemble", "ucca.voting_ensemble", None),
    ("mrparse.amr", "run_teacher_forced", "amr.teacher_forced", None),
    ("mrparse.amr", "beam_search", "amr.beam_search", _beam_attrs),
    ("mrparse.amr", "AmrDecoder.step", "amr.decoder_step", None),
    ("mrparse.amr", "chu_liu_edmonds", "amr.cle", None),
    ("mrparse.amr", "decode_graph", "amr.decode_graph", None),
    ("mrparse.training", "framework_terms", _terms_name, None),
    ("mrparse.training", "build_ensemble", "training.build_ensemble", None),
    ("mrparse.training", "parse_sentence", "training.parse_sentence", None),
    ("mrparse.training", "parse_ensemble", "training.parse_ensemble", None),
    ("mrparse.training", "EdsModel.parse", "training.eds_parse", None),
    ("mrparse.scoring", "mrp_f1", _by_flavor("scoring.mrp_f1"), None),
    ("mrparse.scoring", "correspondence", _by_flavor("scoring.correspondence"),
     _search_attrs),
    ("mrparse.graphs", "validate_graph", "graphs.validate", None),
    ("mrparse.datagen", "build_corpus", "datagen.build_corpus", None),
)


def _wrap(tracer, fn, name, attrs_of):
    def wrapper(*args, **kwargs):
        idx = tracer.open(name(args, kwargs) if callable(name) else name)
        result = None
        try:
            result = fn(*args, **kwargs)
            return result
        finally:
            tracer.close(idx, attrs_of(result, args, kwargs)
                         if attrs_of is not None and result is not None else None)
    wrapper.__wrapped__ = fn
    return wrapper


@contextlib.contextmanager
def patched(boundaries, wrap):
    """Replace every boundary by ``wrap(fn, name, attrs_of)`` in the block.

    A module-level function is replaced in every mrparse module that
    bound it by name (``sdp`` imports ``decode_flavor0`` directly), so
    calls resolve to the wrapper wherever they are made.
    """
    undo = []
    try:
        for modname, path, name, attrs_of in boundaries:
            module = importlib.import_module(modname)
            if "." in path:
                cls_name, meth = path.split(".")
                cls = getattr(module, cls_name)
                raw = inspect.getattr_static(cls, meth)
                if isinstance(raw, staticmethod):
                    new = staticmethod(wrap(raw.__func__, name, attrs_of))
                else:
                    new = wrap(raw, name, attrs_of)
                setattr(cls, meth, new)
                undo.append((cls, meth, raw))
                continue
            fn = getattr(module, path)
            wrapped = wrap(fn, name, attrs_of)
            for mod in [m for k, m in sys.modules.items()
                        if k == "mrparse" or k.startswith("mrparse.")]:
                for attr, value in list(vars(mod).items()):
                    if value is fn:
                        setattr(mod, attr, wrapped)
                        undo.append((mod, attr, fn))
        yield
    finally:
        for holder, attr, original in reversed(undo):
            setattr(holder, attr, original)


@contextlib.contextmanager
def instrument(tracer):
    """Record spans at every boundary and count ``Tensor`` constructions."""
    init = ad.Tensor.__init__

    def counting_init(self, *args, **kwargs):
        tracer.tensors += 1
        init(self, *args, **kwargs)

    ad.Tensor.__init__ = counting_init
    try:
        with patched(BOUNDARIES, lambda fn, name, attrs_of:
                     _wrap(tracer, fn, name, attrs_of)):
            yield tracer
    finally:
        ad.Tensor.__init__ = init


# ---------------------------------------------------------------------------
# per-layer metrics from the recorded spans

# metric -> span name whose summed self time it reports
SELF_TIME = {
    "autodiff.backward_s": "autodiff.backward",
    "autodiff.adam_step_s": "autodiff.adam_step",
    "autodiff.clip_s": "autodiff.clip",
    "autodiff.ckpt_save_s": "autodiff.ckpt_save",
    "autodiff.ckpt_read_s": "autodiff.ckpt_read",
    "encoder.featurize_s": "encoder.featurize",
    "encoder.bilstm_s": "encoder.bilstm",
    "biaffine.score_s": "biaffine.score",
    "biaffine.decode_flavor0_s": "biaffine.decode_flavor0",
    "sdp.frame_predict_s": "sdp.frame_predict",
    "sdp.build_graph_s": "sdp.build_graph",
    "eds.convert_s": "eds.convert",
    "eds.predict_span_s": "eds.predict_span",
    "ucca.pointer_decode_s": "ucca.pointer_decode",
    "ucca.node_states_s": "ucca.node_states",
    "ucca.voting_ensemble_s": "ucca.voting_ensemble",
    "amr.teacher_forced_s": "amr.teacher_forced",
    "amr.beam_search_s": "amr.beam_search",
    "amr.decoder_step_s": "amr.decoder_step",
    "amr.cle_s": "amr.cle",
    "amr.decode_graph_s": "amr.decode_graph",
    "training.forward_train_s": "training.forward_train",
    "training.forward_val_s": "training.forward_val",
    "training.build_ensemble_s": "training.build_ensemble",
    "scoring.mrp_f1_s.anchored": "scoring.mrp_f1.anchored",
    "scoring.mrp_f1_s.amr": "scoring.mrp_f1.amr",
    "scoring.correspondence_s.anchored": "scoring.correspondence.anchored",
    "scoring.correspondence_s.amr": "scoring.correspondence.amr",
    "graphs.validate_s": "graphs.validate",
    "datagen.build_corpus_s": "datagen.build_corpus",
}

# metric -> number of spans of that name
CALLS = {
    "encoder.bilstm_calls": "encoder.bilstm",
    "amr.decoder_steps": "amr.decoder_step",
    "amr.cle_calls": "amr.cle",
}

# metric -> (span name, attribute summed over its spans)
ATTR_SUMS = {
    "ucca.pointer_steps": ("ucca.pointer_decode", "steps"),
    "ucca.truncated_decodes": ("ucca.pointer_decode", "truncated"),
    "amr.truncated_decodes": ("amr.beam_search", "truncated"),
    "scoring.pairs_exhaustive": ("scoring.correspondence.amr", "exhaustive"),
    "scoring.pairs_hillclimb": ("scoring.correspondence.amr", "hillclimb"),
}

PARSE_SPANS = ("training.parse_sentence", "training.eds_parse")
SELECTION_PARSES = ("training.parse_sentence", "training.parse_ensemble")

# every span name a boundary records
BOUNDARY_SPANS = frozenset(SELF_TIME.values()) | set(PARSE_SPANS) | set(SELECTION_PARSES)


def _ratio(num, den):
    return num / den if den else 0.0


def layer_metrics(tracer):
    """{metric: value} for every per-layer metric."""
    spans = tracer.spans
    selfs = tracer.self_times()
    out = {}
    for metric, name in SELF_TIME.items():
        out[metric] = sum(t for s, t in zip(spans, selfs) if s[NAME] == name)
    for metric, name in CALLS.items():
        out[metric] = sum(1 for s in spans if s[NAME] == name)
    for metric, (name, key) in ATTR_SUMS.items():
        out[metric] = sum(s[ATTRS][key] for s in spans
                          if s[NAME] == name and s[ATTRS])

    def tensors(s):
        return s[TENSORS1] - s[TENSORS0]

    fwd = [s for s in spans if s[NAME] == "training.forward_train"]
    out["autodiff.tensors_per_train_sent"] = _ratio(
        sum(tensors(s) for s in fwd), len(fwd))
    parses = [s for s in spans if s[NAME] in PARSE_SPANS
              and s[PARENT] >= 0 and spans[s[PARENT]][NAME] == "bench.parse"]
    out["autodiff.tensors_per_parse_sent"] = _ratio(
        sum(tensors(s) for s in parses), len(parses))
    selections = [k for k, s in enumerate(spans)
                  if s[NAME] == "training.build_ensemble"]
    chosen = set(selections)
    inner = sum(1 for s in spans
                if s[NAME] in SELECTION_PARSES and s[PARENT] in chosen)
    out["training.parse_calls_per_selection"] = _ratio(inner, len(selections))
    return out
