"""Shared input featurization and the stacked biLSTM contextualizer.

Every framework head consumes the same token representation: four
trainable symbol embeddings (surface, lemma, POS, NE), a projected
static word vector and a projected mix of precomputed contextual
layers, concatenated per token, with a <ROOT> position prepended so
top nodes have something to attach to.
"""

from dataclasses import dataclass

import numpy as np

from . import autodiff as ad

UNK = "<UNK>"
NUM = "<NUM>"
ROOT = "<ROOT>"
RESERVED = (UNK, NUM, ROOT)

MIN_COUNT = 4  # symbols seen fewer times than this become <UNK>


def is_numeric(s):
    """Mirrors the runtime float() acceptance rule for numeric tokens."""
    try:
        float(s)
    except ValueError:
        return False
    return True


class Vocabulary:
    """Index spaces for the four symbol features.

    Surfaces are lower-cased before counting; lemmas are used verbatim.
    Both map float-parseable strings to <NUM> and rare symbols to <UNK>.
    POS (upos and xpos share one space) and NE inventories are kept whole.
    """

    def __init__(self, surface, lemma, pos, ne):
        self.surface = surface
        self.lemma = lemma
        self.pos = pos
        self.ne = ne

    @staticmethod
    def normalize_surface(s):
        s = s.lower()
        return NUM if is_numeric(s) else s

    @staticmethod
    def normalize_lemma(s):
        return NUM if is_numeric(s) else s

    @classmethod
    def build(cls, sentences, min_count=MIN_COUNT):
        if not sentences:
            raise ValueError("cannot build a vocabulary from an empty corpus")
        surf_counts = {}
        lemma_counts = {}
        pos_symbols = []
        ne_symbols = []
        for sent in sentences:
            for tok in sent.tokens:
                s = cls.normalize_surface(tok.surface)
                surf_counts[s] = surf_counts.get(s, 0) + 1
                le = cls.normalize_lemma(tok.lemma)
                lemma_counts[le] = lemma_counts.get(le, 0) + 1
                for p in (tok.upos, tok.xpos):
                    if p not in pos_symbols:
                        pos_symbols.append(p)
                if tok.ne not in ne_symbols:
                    ne_symbols.append(tok.ne)

        def index(symbols):
            table = {sym: i for i, sym in enumerate(RESERVED)}
            for sym in symbols:
                if sym not in table:
                    table[sym] = len(table)
            return table

        surfaces = [s for s, c in surf_counts.items() if c >= min_count]
        lemmas = [s for s, c in lemma_counts.items() if c >= min_count]
        return cls(index(surfaces), index(lemmas), index(pos_symbols), index(ne_symbols))

    def surface_id(self, s):
        return self.surface.get(self.normalize_surface(s), self.surface[UNK])

    def lemma_id(self, s):
        return self.lemma.get(self.normalize_lemma(s), self.lemma[UNK])

    def pos_id(self, s):
        return self.pos.get(s, self.pos[UNK])

    def ne_id(self, s):
        return self.ne.get(s, self.ne[UNK])

    def to_json(self):
        return {"surface": self.surface, "lemma": self.lemma,
                "pos": self.pos, "ne": self.ne}

    @classmethod
    def from_json(cls, doc):
        return cls(dict(doc["surface"]), dict(doc["lemma"]), dict(doc["pos"]), dict(doc["ne"]))


class StaticEmbeddings:
    """Fixed word vectors from a `<token> <v1> ... <vd>` text file.

    Out-of-file surfaces share a single <UNK> row drawn from
    N(0, 1/sqrt(dim)) unless the file supplies one.
    """

    def __init__(self, table, dim, rng):
        self.table = table
        self.dim = dim
        if UNK not in self.table:
            self.table[UNK] = rng.normal(0.0, 1.0 / np.sqrt(dim), size=dim)

    @classmethod
    def load(cls, path, rng):
        table = {}
        dim = None
        with open(path, encoding="utf-8") as fh:
            for lineno, line in enumerate(fh, start=1):
                parts = line.rstrip("\n").split(" ")
                if len(parts) < 2:
                    raise ValueError(f"{path}:{lineno}: not a token-vector line")
                vec = np.array([float(x) for x in parts[1:]])
                if dim is None:
                    dim = vec.size
                elif vec.size != dim:
                    raise ValueError(f"{path}:{lineno}: width {vec.size} != {dim}")
                table[parts[0]] = vec
        if dim is None:
            raise ValueError(f"{path}: empty embedding file")
        return cls(table, dim, rng)

    def vector(self, surface):
        if surface in self.table:
            return self.table[surface]
        lowered = surface.lower()
        if lowered in self.table:
            return self.table[lowered]
        return self.table[UNK]

    def matrix(self, surfaces):
        return np.stack([self.vector(s) for s in surfaces])


class ContextualEmbeddings:
    """Precomputed deep representations keyed by sentence id.

    Each entry is (layers, tokens, width).  A zero <ROOT> row is
    synthesized at lookup so positions line up with the encoder.  When a
    `<sid>__tok` integer array is present the rows are subword vectors
    and are averaged into tokens by that index.
    """

    def __init__(self, arrays):
        self.arrays = arrays

    @classmethod
    def load(cls, path):
        raw = np.load(path)
        arrays = {}
        for key in raw.files:
            if key.endswith("__tok"):
                continue
            arr = np.asarray(raw[key], dtype=np.float64)
            tok_key = key + "__tok"
            if tok_key in raw.files:
                arr = _average_subwords(arr, np.asarray(raw[tok_key], dtype=np.int64))
            arrays[key] = arr
        return cls(arrays)

    @property
    def n_layers(self):
        first = next(iter(self.arrays.values()))
        return first.shape[0]

    @property
    def width(self):
        first = next(iter(self.arrays.values()))
        return first.shape[2]

    def for_sentence(self, sid, n_tokens):
        if sid not in self.arrays:
            raise ValueError(f"no contextual vectors for sentence {sid}")
        arr = self.arrays[sid]
        if arr.shape[1] != n_tokens:
            raise ValueError(f"{sid}: contextual rows {arr.shape[1]} != tokens {n_tokens}")
        root = np.zeros((arr.shape[0], 1, arr.shape[2]))
        return np.concatenate([root, arr], axis=1)


def _average_subwords(arr, token_index):
    if token_index.size != arr.shape[1]:
        raise ValueError("subword index length does not match rows")
    n_tokens = int(token_index.max()) + 1 if token_index.size else 0
    out = np.zeros((arr.shape[0], n_tokens, arr.shape[2]))
    counts = np.zeros(n_tokens)
    for row, tok in enumerate(token_index):
        out[:, tok, :] += arr[:, row, :]
        counts[tok] += 1
    if (counts == 0).any():
        raise ValueError("token with no subword rows")
    return out / counts[None, :, None]


class Mlp:
    """Single affine layer with the smooth rectifier; output = hidden size."""

    def __init__(self, params, name, in_dim, out_dim, rng):
        self.w = params.new(f"{name}.w", (in_dim, out_dim), rng)
        self.b = params.new_from(f"{name}.b", np.zeros(out_dim))

    def __call__(self, x):
        return ad.elu(ad.add(ad.matmul(x, self.w), self.b))


class Linear:
    def __init__(self, params, name, in_dim, out_dim, rng):
        self.w = params.new(f"{name}.w", (in_dim, out_dim), rng)
        self.b = params.new_from(f"{name}.b", np.zeros(out_dim))

    def __call__(self, x):
        return ad.add(ad.matmul(x, self.w), self.b)


class Classifier:
    """MLP feature layer followed by a linear head over classes."""

    def __init__(self, params, name, in_dim, hidden, n_classes, rng):
        self.mlp = Mlp(params, f"{name}.mlp", in_dim, hidden, rng)
        self.head = Linear(params, f"{name}.out", hidden, n_classes, rng)

    def __call__(self, x, drop=0.0, rng=None, train=False):
        h = self.mlp(x)
        if train and drop > 0.0:
            h = ad.dropout(h, drop, rng)
        return self.head(h)


def additive_attention(h, keys, w_dec, v):
    """Additive attention scores (k, n), ``v . tanh(h_i w_dec + key_j)``,
    of the k rows of ``h`` over projected ``keys``, shared (n, att) or
    per row (k, n, att)."""
    k, att = h.shape[0], w_dec.shape[1]
    query = ad.reshape(ad.matmul(h, w_dec), (k, 1, att))
    mixed = ad.tanh(ad.add(query, keys))  # (k, n, att)
    n = mixed.shape[1]
    return ad.reshape(ad.matmul(ad.reshape(mixed, (k * n, att)), v), (k, n))


GATE_ORDER = "ifgo"  # input, forget, cell candidate, output


class LstmCell:
    """Weights of one LSTM direction, run over a whole sequence
    (:func:`autodiff.lstm_sequence`) or one step at a time
    (:func:`autodiff.lstm_step`); the encoder and every decoder use it."""

    def __init__(self, params, name, in_dim, hidden, rng):
        self.hidden = hidden
        scale = 1.0 / np.sqrt(hidden)
        self.wx = params.new(f"{name}.wx", (in_dim, 4 * hidden), rng, scale=scale)
        self.wh = params.new(f"{name}.wh", (hidden, 4 * hidden), rng, scale=scale)
        bias = np.zeros(4 * hidden)
        bias[hidden:2 * hidden] = 1.0  # forget gate open at init
        self.b = params.new_from(f"{name}.b", bias)

    def sequence(self, xs, reverse=False, h0=None, c0=None):
        """(h, c) as (T, H) tensors over the rows of ``xs`` from the (1,
        H) state ``(h0, c0)``, or from zero when it is not given."""
        out = ad.lstm_sequence(xs, self.wx, self.wh, self.b, reverse=reverse,
                               h0=h0, c0=c0)
        return ad.split(out, [self.hidden] * 2, axis=1)

    def step(self, x, h, c):
        """Advance one step from ``(h, c)`` on input row ``x``; returns (h', c')."""
        out = ad.lstm_step(x, h, c, self.wx, self.wh, self.b)
        return ad.split(out, [self.hidden] * 2, axis=1)


@dataclass
class LayerFinalState:
    h_fwd: ad.Tensor
    c_fwd: ad.Tensor
    h_bwd: ad.Tensor
    c_bwd: ad.Tensor


@dataclass
class EncoderOutput:
    """Per-layer position matrices; layers[0] is the featurized input."""
    layers: list
    finals: list  # LayerFinalState per biLSTM layer

    @property
    def top(self):
        return self.layers[-1]

    @property
    def n_positions(self):
        return self.layers[-1].shape[0]


class BiLstm:
    def __init__(self, params, name, in_dim, hidden, n_layers, rng, input_dropout=0.0):
        self.n_layers = n_layers
        self.input_dropout = input_dropout
        self.dirs = []
        width = in_dim
        for l in range(n_layers):
            fwd = LstmCell(params, f"{name}.l{l}.fwd", width, hidden, rng)
            bwd = LstmCell(params, f"{name}.l{l}.bwd", width, hidden, rng)
            self.dirs.append((fwd, bwd))
            width = 2 * hidden

    def run(self, h0, train=False, rng=None):
        layers = [h0]
        finals = []
        current = h0
        for fwd, bwd in self.dirs:
            if train and self.input_dropout > 0.0:
                current = ad.dropout(current, self.input_dropout, rng)
            f_h, f_c = fwd.sequence(current)
            b_h, b_c = bwd.sequence(current, reverse=True)
            last = [current.shape[0] - 1]
            current = ad.concat([f_h, b_h], axis=1)
            layers.append(current)
            finals.append(LayerFinalState(ad.rows(f_h, last), ad.rows(f_c, last),
                                          ad.rows(b_h, [0]), ad.rows(b_c, [0])))
        return EncoderOutput(layers=layers, finals=finals)


class Encoder:
    """Featurizer plus contextualizer over one sentence.

    ``run`` takes companion TokenRows and the sentence's contextual
    array and returns an :class:`EncoderOutput` whose position 0 is the
    prepended <ROOT>.  ``config`` is a ``TrainConfig``; the encoder
    reads its embedding and MLP widths, ``layers``, ``hidden``, the
    three feature-group drop rates and ``encoder_dropout``.
    """

    def __init__(self, params, vocab, config, static, ctx_layers, ctx_width, rng,
                 name="encoder"):
        self.vocab = vocab
        self.config = config
        self.static = static
        cfg = config
        self.surface_emb = params.new(f"{name}.surface_emb", (len(vocab.surface), cfg.surface_dim), rng)
        self.lemma_emb = params.new(f"{name}.lemma_emb", (len(vocab.lemma), cfg.lemma_dim), rng)
        self.pos_emb = params.new(f"{name}.pos_emb", (len(vocab.pos), cfg.pos_dim), rng)
        self.ne_emb = params.new(f"{name}.ne_emb", (len(vocab.ne), cfg.ne_dim), rng)
        self.static_mlp = Mlp(params, f"{name}.static_mlp", static.dim, cfg.static_mlp, rng)
        self.ctx_mlp = Mlp(params, f"{name}.ctx_mlp", ctx_width, cfg.contextual_mlp, rng)
        self.mix_scores = params.new_from(f"{name}.mix", np.zeros(ctx_layers))
        self.in_dim = (cfg.surface_dim + cfg.lemma_dim + cfg.pos_dim + cfg.ne_dim
                       + cfg.static_mlp + cfg.contextual_mlp)
        self.bilstm = BiLstm(params, f"{name}.lstm", self.in_dim, cfg.hidden, cfg.layers,
                             rng, input_dropout=cfg.encoder_dropout)

    def mix_contextual(self, ctx):
        """Softmax-weighted sum over contextual layers; layers stay constant."""
        const = ctx if isinstance(ctx, ad.Tensor) else ad.Tensor(ctx)
        # const carries no grad: backprop truncates at the precomputed vectors
        weights = ad.reshape(ad.softmax(self.mix_scores, axis=-1), (const.shape[0], 1, 1))
        return ad.reduce_sum(ad.mul(weights, const), axis=0)

    def featurize(self, tokens, ctx_array, train=False, rng=None):
        v = self.vocab
        surf_ids = [v.surface[ROOT]] + [v.surface_id(t.surface) for t in tokens]
        lemma_ids = [v.lemma[ROOT]] + [v.lemma_id(t.lemma) for t in tokens]
        upos_ids = [v.pos[ROOT]] + [v.pos_id(t.upos) for t in tokens]
        xpos_ids = [v.pos[ROOT]] + [v.pos_id(t.xpos) for t in tokens]
        ne_ids = [v.ne[ROOT]] + [v.ne_id(t.ne) for t in tokens]

        surf = ad.rows(self.surface_emb, surf_ids)
        lemma = ad.rows(self.lemma_emb, lemma_ids)
        pos = ad.add(ad.rows(self.pos_emb, upos_ids), ad.rows(self.pos_emb, xpos_ids))
        ne = ad.rows(self.ne_emb, ne_ids)

        static_raw = ad.Tensor(self.static.matrix([ROOT] + [t.surface for t in tokens]))
        static_h = self.static_mlp(static_raw)
        ctx_h = self.ctx_mlp(self.mix_contextual(ctx_array))

        h0 = ad.concat([surf, lemma, pos, ne, static_h, ctx_h], axis=1)
        if train:
            h0 = self._group_drop(h0, rng)
        return h0

    def _group_drop(self, h0, rng):
        """Zero whole feature groups per token: lemma / POS / the rest."""
        cfg = self.config
        n = h0.shape[0]
        mask = np.ones(h0.shape)
        lo_lemma = cfg.surface_dim
        lo_pos = lo_lemma + cfg.lemma_dim
        lo_ne = lo_pos + cfg.pos_dim
        for i in range(n):
            if rng.random() < cfg.lemma_drop:
                mask[i, lo_lemma:lo_pos] = 0.0
            if rng.random() < cfg.pos_drop:
                mask[i, lo_pos:lo_ne] = 0.0
            if rng.random() < cfg.word_drop:
                mask[i, :lo_lemma] = 0.0
                mask[i, lo_ne:] = 0.0
        return ad.mul(h0, ad.Tensor(mask))

    def run(self, tokens, ctx_array, train=False, rng=None):
        h0 = self.featurize(tokens, ctx_array, train=train, rng=rng)
        return self.bilstm.run(h0, train=train, rng=rng)
