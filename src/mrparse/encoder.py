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
PARAM_PREFIX = "encoder"  # of the names of the encoder's parameters


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
    def build(cls, sentences):
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

        surfaces = [s for s, c in surf_counts.items() if c >= MIN_COUNT]
        lemmas = [s for s, c in lemma_counts.items() if c >= MIN_COUNT]
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
        tables = ("surface", "lemma", "pos", "ne")
        if not isinstance(doc, dict) or set(doc) != set(tables):
            raise ValueError(f"vocabulary must be an object with keys {list(tables)}")
        for name in tables:
            if not (isinstance(doc[name], dict)
                    and all(type(i) is int for i in doc[name].values())):
                raise ValueError(f"vocabulary {name} must map symbols to integer ids")
        return cls(*(dict(doc[name]) for name in tables))


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
        with open(path, "rb") as fh:
            try:
                members = ad.read_npz(fh)
            except ValueError:  # empty, pickled, broken
                raise ValueError(f"{path}: not an .npz archive of arrays") from None
        arrays = {}
        for key, arr in members.items():
            if key.endswith("__tok"):
                continue
            if arr.dtype.kind not in "fiu":  # complex, bool, dates, records
                raise ValueError(f"{path}: {key} holds {arr.dtype} values, "
                                 f"not floats or integers")
            arr = np.array(arr, np.float64)  # a copy: none keeps the file's buffer alive
            if arr.ndim != 3:
                raise ValueError(f"{path}: {key} has shape {arr.shape}, "
                                 f"not (layers, tokens, width)")
            first = next(iter(arrays.values()), arr)
            if (arr.shape[0], arr.shape[2]) != (first.shape[0], first.shape[2]):
                raise ValueError(f"{path}: {key} has {arr.shape[0]} layers of "
                                 f"width {arr.shape[2]}, the first array "
                                 f"{first.shape[0]} of width {first.shape[2]}")
            tok_key = key + "__tok"
            if tok_key in members:
                try:
                    arr = _average_subwords(arr, members[tok_key])
                except ValueError as err:
                    raise ValueError(f"{path}: {tok_key}: {err}") from None
            arrays[key] = arr
        if not arrays:
            raise ValueError(f"{path}: no contextual arrays")
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


def _average_subwords(arr, index):
    """The (layers, subwords, width) rows of ``arr`` averaged into tokens
    by ``index``, each row's token: a 1-D integer array, one entry per
    row, in which every token from 0 to the last has a row."""
    if index.dtype.kind not in "iu" or index.shape != arr.shape[1:2]:
        raise ValueError(f"{index.dtype} index of shape {index.shape}, "
                         f"not one integer per row of {arr.shape[1]}")
    index = index.astype(np.int64)  # a uint64 past int64 turns negative
    if index.size and not 0 <= index.min() <= index.max() < index.size:
        raise ValueError(f"tokens {index.min()}..{index.max()} not within 0..{index.size - 1}")
    counts = np.bincount(index)
    if not counts.all():
        raise ValueError("token with no subword rows")
    out = np.zeros((arr.shape[0], counts.size, arr.shape[2]))
    for row, tok in enumerate(index):
        out[:, tok, :] += arr[:, row, :]
    return out / counts[None, :, None]


class Mlp:
    """Single affine layer with the smooth rectifier; output = hidden size.
    A call is one :func:`autodiff.mlp` node."""

    def __init__(self, params, name, in_dim, out_dim, rng):
        self.w = params.new(f"{name}.w", (in_dim, out_dim), rng)
        self.b = params.new_from(f"{name}.b", np.zeros(out_dim))

    def __call__(self, x):
        return ad.mlp(x, self.w, self.b)


class Linear:
    """Affine layer, ``x @ w + b``: one :func:`autodiff.mlp` node without
    the rectifier."""

    def __init__(self, params, name, in_dim, out_dim, rng):
        self.w = params.new(f"{name}.w", (in_dim, out_dim), rng)
        self.b = params.new_from(f"{name}.b", np.zeros(out_dim))

    def __call__(self, x):
        return ad.mlp(x, self.w, self.b, elu=False)


class LstmCell:
    """Weights of one LSTM direction, run by :func:`autodiff.lstm_sequence`:
    the UCCA decoder's through :meth:`sequence`, advancing k rows one
    step as k sequences of length 1 ((k, 1, D) inputs and states (k, 1,
    H) or (k, H), giving (k, 1, H) states), and a :class:`BiLstm` layer's
    two directions together; the AMR decoder's layers run as one
    :func:`autodiff.lstm_stack`."""

    def __init__(self, params, name, in_dim, hidden, rng):
        self.hidden = hidden
        scale = 1.0 / np.sqrt(hidden)
        # gate columns: input, forget, cell candidate, output
        self.wx = params.new(f"{name}.wx", (in_dim, 4 * hidden), rng, scale=scale)
        self.wh = params.new(f"{name}.wh", (hidden, 4 * hidden), rng, scale=scale)
        bias = np.zeros(4 * hidden)
        bias[hidden:2 * hidden] = 1.0  # forget gate open at init
        self.b = params.new_from(f"{name}.b", bias)

    def sequence(self, xs, h0=None, c0=None):
        """(h, c) over ``xs``, (T, H) tensors for (T, D) rows and (B, T,
        H) for B sequences (B, T, D), from the state ``(h0, c0)``, or from
        zero when it is not given."""
        out = ad.lstm_sequence(xs, self.wx, self.wh, self.b, h0=h0, c0=c0)
        return ad.split(out, [self.hidden] * 2, axis=-1)


@dataclass
class EncoderOutput:
    """One sentence's per-layer position matrices, layers[0] being the
    featurized input, and per biLSTM layer its
    :func:`autodiff.lstm_sequence` rows ``[h_fwd | h_bwd | c_fwd |
    c_bwd]``, (T, 4H), whose h half is the next entry of ``layers``; from
    :meth:`BiLstm.run` on a padded batch, (B, T, ·) rows."""
    layers: list
    lstm_out: list

    @property
    def top(self):
        return self.layers[-1]

    @property
    def n_positions(self):
        return self.layers[-1].shape[0]

    def finals(self, n):
        """The final states of the top ``n`` biLSTM layers as one (1, 4nH)
        row: h_fwd of each layer in turn, then h_bwd, c_fwd and c_bwd.  The
        forward direction ends at the last position, the backward one at
        <ROOT>.  Only a decoder's initial state reads them."""
        runs = ad.concat(self.lstm_out[-n:], axis=1)  # (T, 4nH)
        t, width = runs.shape
        hsz = width // (4 * n)
        # row 4n·i + 4l + k of the (4nT, H) view holds position i of layer l's
        # piece k: h_fwd, h_bwd, c_fwd, c_bwd
        last = 4 * n * (t - 1)
        picks = [(0 if k % 2 else last) + 4 * l + k for k in range(4) for l in range(n)]
        return ad.reshape(ad.rows(ad.reshape(runs, (4 * n * t, hsz)), picks), (1, width))


class BiLstm:
    """Stacked biLSTM layers, each one :func:`autodiff.lstm_sequence` over
    the forward and backward :class:`LstmCell` of the layer, whose
    parameters keep their own names (``<name>.l<l>.fwd.wx``, ...)."""

    def __init__(self, params, name, in_dim, hidden, n_layers, rng, input_dropout=0.0):
        self.input_dropout = input_dropout
        self.dirs = []
        width = in_dim
        for l in range(n_layers):
            fwd = LstmCell(params, f"{name}.l{l}.fwd", width, hidden, rng)
            bwd = LstmCell(params, f"{name}.l{l}.bwd", width, hidden, rng)
            self.dirs.append((fwd, bwd))
            width = 2 * hidden

    def run(self, h0, rng=None, lengths=None):
        """The layers over the (T, D) rows ``h0``, or over a (B, T, D)
        batch padded past each sequence's ``lengths``."""
        layers, lstm_out = [h0], []
        current = h0
        for fwd, bwd in self.dirs:
            current = ad.dropout(current, self.input_dropout, rng)
            out = ad.lstm_sequence(current, (fwd.wx, bwd.wx), (fwd.wh, bwd.wh),
                                   (fwd.b, bwd.b), lengths=lengths)
            current = ad.split(out, [2 * fwd.hidden] * 2, axis=-1)[0]
            layers.append(current)
            lstm_out.append(out)
        return EncoderOutput(layers=layers, lstm_out=lstm_out)


def pad_index(lengths):
    """(B, T) indices into B sequences of ``lengths`` laid one after
    another, padded to the longest by repeating each one's last row."""
    starts = np.cumsum([0] + lengths[:-1])
    return starts[:, None] + np.minimum(np.arange(max(lengths)), np.array(lengths)[:, None] - 1)


def run_ragged(bilstm, rows, lengths, rng=None):
    """``bilstm`` over the sequences of ``lengths`` laid one after another
    in ``rows``: one :class:`EncoderOutput` per sequence, from one
    length-masked run over them padded to (B, T, D).  A single sequence
    runs unpadded."""
    if len(lengths) == 1:
        return [bilstm.run(rows, rng)]
    out = bilstm.run(ad.rows(rows, pad_index(lengths)), rng, lengths)
    layers = [ad.split(rows, lengths)] + [_unpad(t, lengths) for t in out.layers[1:]]
    lstm_out = [_unpad(t, lengths) for t in out.lstm_out]
    return [EncoderOutput(layers=list(ls), lstm_out=list(outs))
            for ls, outs in zip(zip(*layers), zip(*lstm_out))]


def _unpad(t, lengths):
    """The rows of each sequence of the padded (B, T, W) ``t``, one (n,
    W) tensor per sequence of ``lengths``."""
    bsz, n, width = t.shape
    keep = np.concatenate([np.arange(k * n, k * n + m) for k, m in enumerate(lengths)])
    return ad.split(ad.rows(ad.reshape(t, (bsz * n, width)), keep), lengths)


class Encoder:
    """Featurizer plus contextualizer over a batch of sentences.

    ``run`` takes (companion TokenRows, contextual array) pairs and
    returns one :class:`EncoderOutput` per sentence, whose position 0 is
    the prepended <ROOT>, from one featurize pass over the concatenated
    rows and one length-masked call per biLSTM layer over them padded to
    (B, T, D).  A batch of one is one sentence's rows, unpadded.
    ``config`` is a ``TrainConfig``; the encoder reads its embedding and
    MLP widths, ``layers``, ``hidden``, the three feature-group drop
    rates and ``encoder_dropout``.
    """

    def __init__(self, params, vocab, config, static, ctx_layers, ctx_width, rng):
        name = PARAM_PREFIX
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

    def featurize(self, batch, rng=None):
        """The rows of every sentence of ``batch``, <ROOT> first, one
        after another."""
        v = self.vocab
        surf_ids, lemma_ids, upos_ids, xpos_ids, ne_ids, surfaces = [], [], [], [], [], []
        for tokens, _ in batch:
            surf_ids += [v.surface[ROOT]] + [v.surface_id(t.surface) for t in tokens]
            lemma_ids += [v.lemma[ROOT]] + [v.lemma_id(t.lemma) for t in tokens]
            upos_ids += [v.pos[ROOT]] + [v.pos_id(t.upos) for t in tokens]
            xpos_ids += [v.pos[ROOT]] + [v.pos_id(t.xpos) for t in tokens]
            ne_ids += [v.ne[ROOT]] + [v.ne_id(t.ne) for t in tokens]
            surfaces += [ROOT] + [t.surface for t in tokens]

        surf = ad.rows(self.surface_emb, surf_ids)
        lemma = ad.rows(self.lemma_emb, lemma_ids)
        pos = ad.add(ad.rows(self.pos_emb, upos_ids), ad.rows(self.pos_emb, xpos_ids))
        ne = ad.rows(self.ne_emb, ne_ids)

        static_h = self.static_mlp(ad.Tensor(self.static.matrix(surfaces)))
        ctx = np.concatenate([arr for _, arr in batch], axis=1)
        ctx_h = self.ctx_mlp(self.mix_contextual(ctx))

        h0 = ad.concat([surf, lemma, pos, ne, static_h, ctx_h], axis=1)
        # _group_drop draws three numbers per token whatever the rates
        return h0 if rng is None else self._group_drop(h0, rng)

    def _group_drop(self, h0, rng):
        """Zero whole feature groups per token: lemma / POS / the rest,
        from one (n, 3) draw, token by token in that order."""
        cfg = self.config
        lemma, pos, word = (rng.random((h0.shape[0], 3))
                            < (cfg.lemma_drop, cfg.pos_drop, cfg.word_drop)).T
        mask = np.ones(h0.shape)
        lo_lemma = cfg.surface_dim
        lo_pos = lo_lemma + cfg.lemma_dim
        lo_ne = lo_pos + cfg.pos_dim
        mask[lemma, lo_lemma:lo_pos] = 0.0
        mask[pos, lo_pos:lo_ne] = 0.0
        mask[word, :lo_lemma] = 0.0
        mask[word, lo_ne:] = 0.0
        return ad.mul(h0, ad.Tensor(mask))

    def run(self, batch, rng=None):
        return run_ragged(self.bilstm, self.featurize(batch, rng),
                          [len(tokens) + 1 for tokens, _ in batch], rng) if batch else []
