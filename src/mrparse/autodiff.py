"""Dense tensors with reverse-mode automatic differentiation.

Small and deliberately boring: a ``Tensor`` wraps a numpy array and
remembers how it was produced, ``backward`` walks the recorded graph
once in reverse topological order, and leaves created with
``requires_grad=True`` accumulate gradients additively.  Float64 so
finite-difference checks are meaningful.

Inside :func:`no_grad` the ops compute the same values but record
nothing: every result is a plain leaf with no parents and no backward
rule, so a forward pass that is never differentiated keeps no graph
alive.  Parsing (``training.parse_ensemble``, which
``training.parse_sentence`` calls), ensemble selection
(``training.build_ensemble``), validation losses
(``training._val_loss``) and EDS conversion
(``training.EdsModel.parse``) run under it.

Training mode is the dropout generator: :func:`dropout` draws a mask
from the ``rng`` it is handed, and with ``rng=None`` (inference) it
draws nothing and returns its input.

One fused op carries every LSTM recurrence: :func:`lstm_sequence` runs
B equal-length sequences together, from a zero state or from given
initial states ``h0, c0``, (B, H) or (B, 1, H), and returns their
``[h_t | c_t]`` rows; a (T, D) input is the one-sequence case.  Given
``(forward, backward)`` weight pairs it runs a biLSTM layer, both
directions in one step loop, and returns ``[h_fwd | h_bwd | c_fwd |
c_bwd]`` rows.  Its stack form, :func:`lstm_stack`, runs L
unidirectional layers on the same kernel, one pass per layer, the
upper layers' inputs optionally scaled by dropout masks, from every
layer's state packed as one ``state`` row, and returns every layer's
rows, ``[h_0 | … | h_{L-1} | c_0 | … | c_{L-1}]``; its backward runs
the layers' BPTT top first.  The encoder runs each layer as a biLSTM
from zero; the UCCA decoder one direction from its initial state,
teacher-forced or advancing its k rows as k sequences of length 1,
keeping its states in the (k, 1, H) layout the op returns; and the AMR
decoder all its layers as one stack, teacher-forced or stepping k beam
rows, its state one packed (k, 2LH) tensor.  One GEMM per direction or
layer projects every step's input, and each step takes its four gates
from one tanh.  Its forward is within 1e-12 of composing the
elementary ops per step, its hand-written backward (backpropagation
through time, reaching the initial state) within 1e-10 relative of the
composition's gradients, and its buffers take the input dtype.  It
creates one graph node however long the sequences.  So does each loss
(:func:`binary_cross_entropy`, :func:`cross_entropy_logits`,
:func:`nll_of_probs`), whatever its number of terms.

Three more fused ops carry the layers every framework head is made of,
each one node with the value of its composition bit for bit:
:func:`mlp`, K same-width affine layers with their rectifier and
dropout, and the two biaffine scorers over a pair of such layers,
:func:`biaffine_edge` (edge probabilities) and :func:`biaffine_label`
(per-class label logits).  Two more carry the decoders' steps the same
way: :func:`additive_attention`, the scores of the UCCA pointer and of
the AMR source and history attentions, and :func:`pointer_mixture`, the
AMR decoder's switch-weighted concatenation of its three distributions.

Also home to the optimizer (:class:`Adam`), global-norm gradient
clipping and :class:`ParamSet`, the named parameter container that
alone writes and reads checkpoints: deterministic, uncompressed zips of
exact ``.npy`` arrays that ``np.load(path, allow_pickle=False)`` opens.
Their writer, ``_write_npz``, writes a bundle in one pass, the bytes of
``zipfile`` (``force_zip64=True``) and ``np.lib.format.write_array`` on
Python 3.11 and later on POSIX: each member's zip and ``.npy`` headers
packed directly, the ``.npy`` header through a memo, and the array's own
buffer, CRC'd as it goes.  Their reader, :func:`read_npz`, also reads
the contextual vectors' files, so it takes the archives of ``np.savez``
and ``np.savez_compressed`` too.  It reads the file once and parses its
end record and central directory directly, with the checks of
``zipfile``'s reader, and checks each member's size and CRC-32.  A
stored member's array is a view of that one buffer; a DEFLATE member is
decompressed; any other compression, an archive comment and bytes
before the archive are refused.  It parses each ``.npy`` header through
a memo, for a bundle repeats few distinct headers.
A model is built from saved values by handing them to its container
as ``state``: the parameters copy them and no initializer draws.
"""

import contextlib
import functools
import io
import json
import struct
import zipfile
import zlib

import numpy as np

from .atomic import atomic_open

_GRAD_ENABLED = True  # False inside no_grad()

CHECKPOINT_FORMAT_VERSION = 2
_META = "__meta__"
ZIP_DATE_TIME = (1980, 1, 1, 0, 0, 0)  # of every checkpoint member
ADAM_EPS = 1e-8  # added to Adam's root second moment


@contextlib.contextmanager
def no_grad():
    """Block (or decorator) in which ops record no graph; the previous
    state comes back on exit, an exception included."""
    global _GRAD_ENABLED
    prev = _GRAD_ENABLED
    _GRAD_ENABLED = False
    try:
        yield
    finally:
        _GRAD_ENABLED = prev


class Tensor:
    """A dense array plus the bookkeeping needed for backprop.

    ``parents`` and ``backward_rule`` are set by the ops below; user
    code only constructs leaves.  ``grad`` is lazily allocated and
    accumulated into, never overwritten.
    """

    __slots__ = ("data", "grad", "requires_grad", "parents", "backward_rule")

    def __init__(self, data, requires_grad=False, parents=(), backward_rule=None):
        if isinstance(data, Tensor):
            data = data.data
        self.data = np.asarray(data, dtype=np.float64)
        self.grad = None
        self.requires_grad = requires_grad
        self.parents = parents if requires_grad else ()
        self.backward_rule = backward_rule if requires_grad else None

    @property
    def shape(self):
        return self.data.shape

    def accumulate(self, g):
        """Add ``g`` into ``grad``.  The first gradient of the same shape
        and dtype is copied into a buffer laid out like ``data``: the
        values of adding it to zeros, except that a -0.0 stays -0.0, and
        the buffer aliases no other array.  Any other first gradient is
        broadcast or cast by adding it to zeros."""
        if self.grad is not None:
            self.grad += g
        elif (isinstance(g, np.ndarray) and g.shape == self.data.shape
                and g.dtype == self.data.dtype):
            self.grad = np.empty_like(self.data)
            self.grad[...] = g
        else:
            self.grad = np.zeros_like(self.data)
            self.grad += g

    def zero_grad(self):
        self.grad = None

    def backward(self):
        """Backpropagate from this tensor, which must be a scalar.

        Visits each node exactly once via an iterative topological sort,
        so arbitrarily deep decoder chains do not hit the recursion
        limit.
        """
        if self.data.size != 1:
            raise ValueError("backward() requires a scalar")
        order = _toposort(self)
        self.accumulate(np.ones_like(self.data))
        for node in order:
            if node.backward_rule is not None and node.grad is not None:
                node.backward_rule(node.grad)

    def __repr__(self):
        return f"Tensor(shape={self.data.shape}, requires_grad={self.requires_grad})"


def _toposort(root):
    """Reverse topological order of the graph rooted at ``root``."""
    order = []
    seen = set()
    stack = [(root, False)]
    while stack:
        node, expanded = stack.pop()
        if expanded:
            order.append(node)
            continue
        if id(node) in seen:
            continue
        seen.add(id(node))
        stack.append((node, True))
        for p in node.parents:
            if id(p) not in seen:
                stack.append((p, False))
    order.reverse()
    return order


def as_tensor(x):
    return x if isinstance(x, Tensor) else Tensor(x)


def _unbroadcast(g, shape):
    """Sum ``g`` back down to ``shape`` after numpy broadcasting."""
    if g.shape == shape:
        return g
    extra = g.ndim - len(shape)
    if extra > 0:
        g = g.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, n in enumerate(shape) if n == 1 and g.shape[i] != 1)
    if axes:
        g = g.sum(axis=axes, keepdims=True)
    return g.reshape(shape)


def _make(data, parents, rule):
    if not _GRAD_ENABLED:
        return Tensor(data)
    req = any(p.requires_grad for p in parents)
    return Tensor(data, requires_grad=req, parents=tuple(parents), backward_rule=rule if req else None)


# ---------------------------------------------------------------------------
# elementwise arithmetic (numpy broadcasting rules apply)

def add(a, b):
    a, b = as_tensor(a), as_tensor(b)
    out_data = a.data + b.data

    def rule(g):
        if a.requires_grad:
            a.accumulate(_unbroadcast(g, a.data.shape))
        if b.requires_grad:
            b.accumulate(_unbroadcast(g, b.data.shape))

    return _make(out_data, (a, b), rule)


def mul(a, b):
    a, b = as_tensor(a), as_tensor(b)
    out_data = a.data * b.data

    def rule(g):
        if a.requires_grad:
            a.accumulate(_unbroadcast(g * b.data, a.data.shape))
        if b.requires_grad:
            b.accumulate(_unbroadcast(g * a.data, b.data.shape))

    return _make(out_data, (a, b), rule)


def minimum(a, b):
    """Elementwise min; ties send the gradient to ``a``."""
    a, b = as_tensor(a), as_tensor(b)
    take_a = a.data <= b.data
    out_data = np.where(take_a, a.data, b.data)

    def rule(g):
        if a.requires_grad:
            a.accumulate(_unbroadcast(g * take_a, a.data.shape))
        if b.requires_grad:
            b.accumulate(_unbroadcast(g * ~take_a, b.data.shape))

    return _make(out_data, (a, b), rule)


# ---------------------------------------------------------------------------
# linear algebra and shape plumbing

def matmul(a, b):
    """Matrix product with numpy ``@`` batch broadcasting; operands >= 2-D."""
    a, b = as_tensor(a), as_tensor(b)
    if a.data.ndim < 2 or b.data.ndim < 2:
        raise ValueError(
            f"matmul needs >=2-D operands, got {a.data.shape} @ {b.data.shape}; reshape vectors first")
    try:
        out_data = a.data @ b.data
    except ValueError as e:
        raise ValueError(f"matmul shape mismatch: {a.data.shape} @ {b.data.shape}") from e

    def rule(g):
        if a.requires_grad:
            a.accumulate(_unbroadcast(g @ np.swapaxes(b.data, -1, -2), a.data.shape))
        if b.requires_grad:
            b.accumulate(_unbroadcast(np.swapaxes(a.data, -1, -2) @ g, b.data.shape))

    return _make(out_data, (a, b), rule)


def reshape(a, shape):
    a = as_tensor(a)
    old_shape = a.data.shape

    def rule(g):
        a.accumulate(g.reshape(old_shape))

    return _make(a.data.reshape(shape), (a,), rule)


def concat(tensors, axis=0):
    tensors = [as_tensor(t) for t in tensors]
    out_data = np.concatenate([t.data for t in tensors], axis=axis)

    def rule(g):
        lead = (slice(None),) * (axis % g.ndim)
        lo = 0
        for t in tensors:
            hi = lo + t.data.shape[axis]
            if t.requires_grad:
                t.accumulate(g[lead + (slice(lo, hi),)])
            lo = hi

    return _make(out_data, tuple(tensors), rule)


def split(a, sizes, axis=0):
    """Inverse of :func:`concat`: slice ``a`` into chunks of the given sizes."""
    a = as_tensor(a)
    if sum(sizes) != a.data.shape[axis]:
        raise ValueError(f"split sizes {sizes} do not cover axis {axis} of {a.data.shape}")
    lead = (slice(None),) * (axis % a.data.ndim)
    idxs = []
    lo = 0
    for size in sizes:
        idxs.append(lead + (slice(lo, lo + size),))
        lo += size
    if not (_GRAD_ENABLED and a.requires_grad):  # no rule would be kept
        return [Tensor(a.data[idx]) for idx in idxs]

    def chunk(idx):
        def rule(g):
            if a.grad is None:
                a.grad = np.zeros_like(a.data)
            a.grad[idx] += g

        return _make(a.data[idx], (a,), rule)

    return [chunk(idx) for idx in idxs]


def stack_rows(mats):
    """The (n_k, d) matrices ``mats`` one after another; a lone one itself."""
    return mats[0] if len(mats) == 1 else concat(mats, axis=0)


def unstack_rows(a, sizes):
    """Inverse of :func:`stack_rows`: row blocks of ``sizes``; one: ``[a]``."""
    return [a] if len(sizes) == 1 else split(a, sizes)


def rows(table, indices):
    """Row lookup ``table[indices]`` with scatter-add backward (embeddings)."""
    table = as_tensor(table)
    indices = np.asarray(indices, dtype=np.int64)

    def rule(g):
        if table.grad is None:
            table.grad = np.zeros_like(table.data)
        np.add.at(table.grad, indices, g)

    return _make(table.data[indices], (table,), rule)


# ---------------------------------------------------------------------------
# nonlinearities

def _sigmoid(x):
    """Logistic function on an array, stable in both tails: 1/(1 + e)
    for x >= 0 and e/(1 + e) below, with e = exp(-|x|)."""
    e = np.exp(-np.abs(x))
    return np.where(x >= 0, 1.0, e) / (1.0 + e)


def sigmoid(a):
    a = as_tensor(a)
    out_data = _sigmoid(a.data)

    def rule(g):
        a.accumulate(g * out_data * (1.0 - out_data))

    return _make(out_data, (a,), rule)


def softmax_array(x, axis=-1):
    """Softmax of a numpy array along ``axis``, shifted by its maximum:
    :func:`softmax`'s forward, and the probabilities a prediction keeps."""
    e = np.exp(x - x.max(axis=axis, keepdims=True))
    return e / e.sum(axis=axis, keepdims=True)


def _softmax_grad(probs, g, axis=-1):
    """Gradient into the logits of a softmax with output ``probs``."""
    return probs * (g - (g * probs).sum(axis=axis, keepdims=True))


def softmax(a, axis=-1):
    a = as_tensor(a)
    out_data = softmax_array(a.data, axis)

    def rule(g):
        a.accumulate(_softmax_grad(out_data, g, axis))

    return _make(out_data, (a,), rule)


def reduce_sum(a, axis=None):
    a = as_tensor(a)
    out_data = a.data.sum(axis=axis)

    def rule(g):
        if axis is not None:
            g = np.expand_dims(g, axis)
        a.accumulate(np.broadcast_to(g, a.data.shape).copy())

    return _make(out_data, (a,), rule)


def dropout(a, p, rng):
    """Inverted dropout: zero with probability ``p``, scale survivors by
    1/(1-p).  ``rng=None`` is inference: ``a`` comes back untouched and
    nothing is drawn, as when ``p <= 0``."""
    a = as_tensor(a)
    if rng is None or p <= 0.0:
        return a
    if p >= 1.0:
        return mul(a, 0.0)
    mask = (rng.random(a.data.shape) >= p) / (1.0 - p)

    def rule(g):
        a.accumulate(g * mask)

    return _make(a.data * mask, (a,), rule)


# ---------------------------------------------------------------------------
# fused layers
#
# Each is one graph node where composing the elementary ops builds
# several.  A forward runs the numpy operations of that composition in
# its order, so its values keep every bit; the backward is written by
# hand and matches the composition's gradients to rounding.

def mlp(x, w, b, p=0.0, rng=None, elu=True):
    """K same-width layers ``elu(x @ w_k + b_k)`` over the rows of ``x``
    (n, D), then inverted dropout at rate ``p`` when handed an ``rng``;
    returns (n, K·M), layer k in columns k·M to (k+1)·M.  ``w`` and
    ``b`` are K-tuples of (D, M) and (M,) tensors, or one of each.
    ``elu=False`` leaves the rectifier out: an affine layer.

    Each layer is its own (n, D) @ (D, M) GEMM and the K masks are one
    ``rng.random((K, n, M))`` draw, the stream of K draws of (n, M), so
    values and draws are those of composing matmul, add, the rectifier
    (x above 0, exp(x) - 1 below) and :func:`dropout` layer by layer.
    As there, nothing is drawn unless 0 < p < 1, and p >= 1 zeroes
    every layer.
    """
    x = as_tensor(x)
    ws, bs = ((tuple(map(as_tensor, w)), tuple(map(as_tensor, b))) if isinstance(w, tuple)
              else ((as_tensor(w),), (as_tensor(b),)))
    (n, _), k, m = x.data.shape, len(ws), ws[0].data.shape[1]
    z = (x.data @ ws[0].data + bs[0].data if k == 1 else
         np.concatenate([x.data @ wk.data + bk.data for wk, bk in zip(ws, bs)], axis=1))
    out = z
    if elu:
        neg = np.minimum(z, 0.0)
        np.exp(neg, out=neg)
        neg -= 1.0
        out = np.where(z > 0, z, neg)
    mask = None
    if rng is not None and p > 0.0:
        mask = 0.0 if p >= 1.0 else ((rng.random((k, n, m)) >= p) / (1.0 - p)).transpose(
            1, 0, 2).reshape(n, k * m)
        out = out * mask

    def rule(g):
        if mask is not None:
            g = g * mask
        if elu:
            g = g * np.where(z > 0, 1.0, neg + 1.0)
        for lo, wk, bk in zip(range(0, k * m, m), ws, bs):
            gk = g[:, lo:lo + m]
            if x.requires_grad:
                x.accumulate(gk @ wk.data.T)
            if wk.requires_grad:
                wk.accumulate(x.data.T @ gk)
            if bk.requires_grad:
                bk.accumulate(gk.sum(axis=0))

    return _make(out, (x, *ws, *bs), rule)


def biaffine_edge(pair, u, w, b):
    """Edge probabilities (n, n) over the rows of ``pair`` (n, 2M), ``[x |
    y]`` as two :func:`mlp` layers give them: ``sigmoid(x_i' U y_j +
    W[x_i; y_j] + b)`` at (i, j), for ``u`` (M, M), ``w`` (2M, 1) and a
    scalar ``b``.  The value is the composition's ``sigmoid((x @ U) @ y'
    + (x @ W_x + (y @ W_y)') + b)``."""
    pair, u, w, b = (as_tensor(t) for t in (pair, u, w, b))
    m = u.data.shape[0]
    x, y = pair.data[:, :m], pair.data[:, m:]
    xu = x @ u.data
    probs = _sigmoid(xu @ y.T + (x @ w.data[:m] + (y @ w.data[m:]).T) + b.data)

    def rule(g):
        ds = g * probs * (1.0 - probs)
        d_x = ds.sum(axis=1, keepdims=True)    # (n, 1), of x_i·W_x
        d_y = ds.sum(axis=0, keepdims=True).T  # (n, 1), of y_j·W_y
        d_xu = ds @ y
        if pair.requires_grad:
            pair.accumulate(np.concatenate([d_xu @ u.data.T + d_x @ w.data[:m].T,
                                            (xu.T @ ds).T + d_y @ w.data[m:].T], axis=1))
        if u.requires_grad:
            u.accumulate(x.T @ d_xu)
        if w.requires_grad:
            w.accumulate(np.concatenate([x.T @ d_x, y.T @ d_y]))
        if b.requires_grad:
            b.accumulate(ds.sum(axis=(0, 1)))

    return _make(probs, (pair, u, w, b), rule)


def biaffine_label(pair, u, w):
    """Label logits (n·n, C) over the rows of ``pair`` (n, 2M), ``[x |
    y]``: ``x_i' U_c y_j + W_c y_j`` for class c, no bias, in row i·n + j,
    for ``u`` (C, M, M) and ``w`` (C, 1, M).  The value is the
    composition's ``(x @ U) @ y' + W @ y'`` over (C, n, n), transposed
    from its (C, n·n) layout."""
    pair, u, w = (as_tensor(t) for t in (pair, u, w))
    c, m = u.data.shape[:2]
    n = pair.data.shape[0]
    x = pair.data[:, :m].reshape(1, n, m)
    yt = pair.data[:, m:].T.reshape(1, m, n)
    xu = x @ u.data  # (C, n, M)
    scores = xu @ yt + w.data @ yt

    def rule(g):
        ds = g.T.reshape(c, n, n)
        d_lin = ds.sum(axis=1, keepdims=True)  # (C, 1, n), of W_c y_j
        d_xu = ds @ yt.swapaxes(1, 2)
        if pair.requires_grad:
            d_yt = (xu.swapaxes(1, 2) @ ds).sum(axis=0) + (w.data.swapaxes(1, 2) @ d_lin).sum(axis=0)
            pair.accumulate(np.concatenate([(d_xu @ u.data.swapaxes(1, 2)).sum(axis=0), d_yt.T],
                                           axis=1))
        if u.requires_grad:
            u.accumulate(x.swapaxes(1, 2) @ d_xu)
        if w.requires_grad:
            w.accumulate(d_lin @ yt.swapaxes(1, 2))

    return _make(scores.reshape(c, n * n).T, (pair, u, w), rule)


def additive_attention(h, keys, w_dec, v):
    """Additive attention scores (k, n), ``v . tanh(h_i w_dec + key_j)``
    (Bahdanau et al., ICLR 2015), of the k rows of ``h``, (k, H) or (k,
    1, H), over projected ``keys``, shared (n, att) or per row (k, n,
    att), for ``w_dec`` (H, att) and ``v`` (att, 1).  The value is the
    composition's: ``h @ w_dec`` reshaped to (k, 1, att), plus ``keys``,
    tanh, reshaped to (k·n, att), ``@ v``, reshaped to (k, n)."""
    h, keys, w_dec, v = (as_tensor(t) for t in (h, keys, w_dec, v))
    k, att = h.data.shape[0], w_dec.data.shape[1]
    query = h.data @ w_dec.data
    mixed = np.tanh(query.reshape(k, 1, att) + keys.data)  # (k, n, att)
    n = mixed.shape[1]
    flat = mixed.reshape(k * n, att)
    scores = (flat @ v.data).reshape(k, n)

    def rule(g):
        g = g.reshape(k * n, 1)
        if v.requires_grad:
            v.accumulate(flat.T @ g)
        if not (h.requires_grad or w_dec.requires_grad or keys.requires_grad):
            return
        d_mixed = (g @ v.data.T).reshape(k, n, att) * (1.0 - mixed * mixed)
        if keys.requires_grad:
            keys.accumulate(_unbroadcast(d_mixed, keys.data.shape))
        d_query = _unbroadcast(d_mixed, (k, 1, att)).reshape(query.shape)
        if h.requires_grad:
            h.accumulate(_unbroadcast(d_query @ w_dec.data.T, h.data.shape))
        if w_dec.requires_grad:
            w_dec.accumulate(_unbroadcast(np.swapaxes(h.data, -1, -2) @ d_query,
                                          w_dec.data.shape))

    return _make(scores, (h, keys, w_dec, v), rule)


def pointer_mixture(a_src, hist_scores, vocab_logits, gate_logits, hist_bias, gate_bias):
    """Pointer-generator mixture rows (k, L + n + V) (See et al., ACL
    2017): the source attentions ``a_src`` (k, L), the softmax of the
    history scores (k, n) and the softmax of the vocabulary logits (k, V),
    weighted by the three columns of the switch, the softmax of
    ``gate_logits`` (k, 3).  ``hist_scores`` is None while there is no
    history, which leaves its segment out; ``hist_bias`` (k, n) and
    ``gate_bias`` (k, 3), unless None, are added to the history scores
    and the switch logits, -1e30 masking a cell.  The value is the
    composition's: the switch softmax split in three columns, each
    multiplying its segment, the segments concatenated."""
    segments = [as_tensor(a_src)] + ([] if hist_scores is None else [as_tensor(hist_scores)])
    vocab_logits, gate_logits = as_tensor(vocab_logits), as_tensor(gate_logits)
    gate = softmax_array(gate_logits.data if gate_bias is None else gate_logits.data + gate_bias)
    probs = [segments[0].data]
    if hist_scores is not None:
        probs.append(softmax_array(hist_scores.data if hist_bias is None
                                   else hist_scores.data + hist_bias))
    probs.append(softmax_array(vocab_logits.data))
    cols = [0, 1, 2] if hist_scores is not None else [0, 2]  # each segment's switch column
    out = np.concatenate([q * gate[:, c:c + 1] for q, c in zip(probs, cols)], axis=1)

    def rule(g):
        d_gate = np.zeros_like(gate)
        lo = 0
        for i, (q, c, t) in enumerate(zip(probs, cols, segments + [vocab_logits])):
            g_seg = g[:, lo:lo + q.shape[1]]
            lo += q.shape[1]
            if t.requires_grad:  # a_src is given as probabilities, the others as logits
                d_q = g_seg * gate[:, c:c + 1]
                t.accumulate(d_q if i == 0 else _softmax_grad(q, d_q))
            if gate_logits.requires_grad:
                d_gate[:, c:c + 1] += _unbroadcast(g_seg * q, (q.shape[0], 1))
        if gate_logits.requires_grad:
            gate_logits.accumulate(_softmax_grad(gate, d_gate))

    return _make(out, (*segments, vocab_logits, gate_logits), rule)


# ---------------------------------------------------------------------------
# fused LSTM recurrence
#
# Gate columns are ordered input, forget, cell candidate, output.  Every
# step takes its four gates from one tanh, a sigmoid gate being
# ½·tanh(z/2) + ½; the backward is written by hand and builds no graph
# nodes.  Inside the kernel the arrays are step-major, (T, …, nd, B, H)
# with nd directions, a gate or state being one contiguous block.

@functools.lru_cache(maxsize=64)
def _gate_blocks(hsz, nd, bsz, dtype):
    """Read-only (4, nd, B, H) blocks ``(scale, shift, slope)`` of the
    gates: with ``y = tanh(z * scale)`` a gate is ``y * scale + shift``
    and its derivative ``slope * (1 - y * y)``."""
    scale = np.full((4, nd, bsz, hsz), 0.5, dtype=dtype)
    scale[2] = 1.0
    blocks = (scale, 1.0 - scale, scale * scale)
    for block in blocks:
        block.flags.writeable = False
    return blocks


def _flip(a, axis):
    """``a`` (T, …) with the steps of the second direction on ``axis``
    reversed: from time order to that direction's step order, last step
    first, and back."""
    if a.shape[axis] == 1:
        return a
    at = (slice(None),) * axis
    return np.concatenate([a[at + (slice(1),)], a[::-1][at + (slice(1, 2),)]], axis=axis)


def _lstm_pass(flat, shape, wxs, whs, bs, h, c, steps, pad=None):
    """Project ``flat``, B·T input rows in (B, T) order (``shape``), by each
    direction's ``wx`` and ``b``, and run the T steps of those directions
    together from the state ``(h, c)``, each (nd, B, H), writing every
    step's (h, c) into ``steps`` (T, 2, nd, B, H), in step order.  A
    ``pad`` (T, nd, B) step holds its row's state.  Returns the steps'
    tanh values (T, 4, nd, B, H) and the (nd, H, 4H) recurrent weights,
    which the backward reads."""
    (bsz, n), nd, hsz = shape, len(wxs), whs[0].data.shape[0]
    scale, shift, _ = _gate_blocks(hsz, nd, bsz, steps.dtype)
    # pre-activations (T, 4, nd, B, H), which each step turns into its tanh values
    ys = [(flat @ w.data + bias.data).reshape(bsz, n, 4, 1, hsz).transpose(1, 2, 3, 0, 4)
          for w, bias in zip(wxs, bs)]
    ys = _flip(np.concatenate(ys, axis=2), 2) if nd == 2 else np.ascontiguousarray(ys[0])
    # one direction's weights are not copied: a decoder's can be large
    wh_all = np.concatenate([w.data[None] for w in whs]) if nd == 2 else whs[0].data[None]
    if pad is not None:
        held = np.array((h, c), dtype=steps.dtype)
    for s in range(n):
        y = ys[s]
        y += (h @ wh_all).reshape(nd, bsz, 4, hsz).transpose(2, 0, 1, 3)
        y *= scale
        np.tanh(y, out=y)
        a = y * scale
        a += shift
        c = np.multiply(a[1], c, out=steps[s, 1])
        c += a[0] * a[2]
        h = np.tanh(c, out=steps[s, 0])
        h *= a[3]
        if pad is not None:  # h and c are views of steps[s]
            np.copyto(steps[s], held, where=pad[s, :, :, None])
            held = steps[s]
    return ys, wh_all


def _lstm_bptt(g, ys, wh_all, steps, start, pad=None):
    """Backpropagation through the steps of one :func:`_lstm_pass`, from
    ``g`` (T, 2, nd, B, H), the gradients of every step's (h, c) in step
    order.  Returns the pre-activations' gradients ``dz`` (T, 4, nd, B,
    H) and the (h, c) each step started from, both in time order, and
    the gradients ``dh`` and ``dc`` of the initial state ``start``."""
    n, _, nd, bsz, hsz = steps.shape
    scale, shift, slope = _gate_blocks(hsz, nd, bsz, steps.dtype)
    # the (h, c) each step started from
    prev = np.concatenate([np.array(start, dtype=steps.dtype)[None], steps[:-1]])
    gates = ys * scale + shift
    tc = np.tanh(steps[:, 1])
    dcell = gates[:, 3] * (1.0 - tc * tc)  # o·(1 − tanh²c): dh into dc
    # slope·(1 − y²) times what dc (i, f, g) or dh (o) meets in each
    # gate: dz once the loop scales the blocks
    dz = slope * (1.0 - ys * ys)
    dz[:, 0] *= gates[:, 2]
    dz[:, 1] *= prev[:, 1]
    dz[:, 2] *= gates[:, 0]
    dz[:, 3] *= tc
    forget = gates[:, 1]
    if pad is not None:  # a padded step passes dh and dc through
        dz *= ~pad[:, None, :, :, None]
        dcell *= ~pad[..., None]
        forget = np.where(pad[..., None], 1.0, forget)
    wh_t = np.swapaxes(wh_all, 1, 2)
    dh = dc = 0.0
    for s in range(n - 1, -1, -1):
        dh = dh + g[s, 0]
        dc = dc + g[s, 1] + dh * dcell[s]
        dz[s, :3] *= dc
        dz[s, 3] *= dh
        dc = dc * forget[s]
        back = dz[s].transpose(1, 2, 0, 3).reshape(nd, bsz, 4 * hsz) @ wh_t
        if pad is not None:
            np.copyto(back, dh, where=pad[s, :, :, None])
        dh = back
    return _flip(dz, 2), _flip(prev, 2), dh, dc


def _lstm_weight_grads(dz, prev, flat, wxs, whs, bs):
    """Accumulate each direction's ``wx``, ``wh`` and ``b`` gradients from
    the time-ordered ``dz`` and ``prev`` of :func:`_lstm_bptt` and the
    pass's input rows ``flat``; returns each direction's ``dz`` as B·T
    rows (B, T order), (B·T, 4H), for its input gradient."""
    n, _, _, bsz, hsz = dz.shape
    rows = []
    for d, (w_x, w_h, bias) in enumerate(zip(wxs, whs, bs)):
        dzd = dz[:, :, d].transpose(2, 0, 1, 3).reshape(bsz * n, 4 * hsz)
        if w_x.requires_grad:
            w_x.accumulate(flat.T @ dzd)
        if w_h.requires_grad:
            w_h.accumulate(prev[:, 0, d].swapaxes(0, 1).reshape(bsz * n, hsz).T @ dzd)
        if bias.requires_grad:
            bias.accumulate(_unbroadcast(dzd, bias.data.shape))
        rows.append(dzd)
    return rows


def lstm_sequence(x, wx, wh, b, h0=None, c0=None, lengths=None):
    """Run an LSTM over ``x`` (B, T, D), B sequences of length T side by
    side; returns (B, T, 2H) with the rows ``[h_t | c_t]`` at ``[:, t]``.
    A (T, D) input is one sequence and returns (T, 2H).  Backward is
    backpropagation through time.

    Given ``(forward, backward)`` pairs of ``wx``, ``wh`` and ``b``, it is
    a biLSTM layer: the backward direction runs over the same input, last
    step first, in the same step loop, which advances both with one
    batched ``h @ wh`` and each gate op once.  The rows are then ``[h_fwd
    | h_bwd | c_fwd | c_bwd]``, (B, T, 4H): their h half is the layer's
    output.  Lists of per-layer weights are a stack, :func:`lstm_stack`'s
    input, and are refused.

    The state starts from ``h0`` and ``c0``, each (B, H) or (B, 1, H),
    (B, 2H) or (B, 1, 2H) for two directions, laid out like the h or c
    half of the rows, when given (a decoder's initial state, or k beam
    rows advanced one step as k sequences of length 1), and from zero
    otherwise; the backward sends their gradients to them in their own
    shapes.

    ``lengths``, one per sequence, makes B ragged sequences of a padded
    (B, T, D) batch: a row's state passes unchanged through the steps
    past its length (for the backward direction, its leading steps), its
    rows there are zero, and the backward sends nothing through them, so
    each row's values are those of running it alone.  Without it every
    step is a sequence's own.

    One GEMM per direction projects every step's input, the bias added
    once; a step then adds ``h @ wh`` and takes its four gates from one
    tanh, whose values it keeps.  The backward forms every step's local
    gate derivatives from them before its loop.  Each direction's values
    are those of running it alone (the backward one's, of the forward
    recurrence over the rows last first), and its weight gradients sum
    over the steps in time order.  The forward is within 1e-12 of
    composing the elementary ops per step, whose sigmoid rounds
    differently, and the gradients within 1e-10 relative of the
    composition's.
    """
    if isinstance(wx, list):
        raise ValueError("lists of per-layer weights are a stack: run them with lstm_stack")
    x = as_tensor(x)
    wxs, whs, bs = (tuple(map(as_tensor, w)) if isinstance(w, tuple) else (as_tensor(w),)
                    for w in (wx, wh, b))
    xs = x.data if x.data.ndim == 3 else x.data[None]
    (bsz, n, dim), nd, hsz = xs.shape, len(wxs), whs[0].data.shape[0]
    dtype = x.data.dtype
    init = () if h0 is None else (as_tensor(h0), as_tensor(c0))
    start = ([t.data.reshape(bsz, nd, hsz).swapaxes(0, 1) for t in init] if init
             else [np.zeros((nd, bsz, hsz), dtype=dtype)] * 2)
    flat = xs.reshape(bsz * n, dim)
    steps = np.empty((n, 2, nd, bsz, hsz), dtype=dtype)  # every step's (h, c)
    pad = None
    if lengths is not None:
        live = np.arange(n) < np.asarray(lengths)[:, None]  # (B, T)
        pad = _flip(np.repeat(~live.T[:, None], nd, axis=1), 1)  # (T, nd, B) in step order
    ys, wh_all = _lstm_pass(flat, (bsz, n), wxs, whs, bs, *start, steps, pad=pad)
    out = _flip(steps, 2).transpose(3, 0, 1, 2, 4).reshape(bsz, n, 2 * nd * hsz)
    if lengths is not None:
        out = np.where(live[:, :, None], out, 0.0)

    def rule(g):
        if lengths is not None:  # the rows past a length are constant
            g = np.where(live[:, :, None], g.reshape(bsz, n, -1), 0.0)
        g = _flip(np.ascontiguousarray(g.reshape(bsz, n, 2, nd, hsz).transpose(1, 2, 3, 0, 4)), 2)
        dz, prev, dh, dc = _lstm_bptt(g, ys, wh_all, steps, start, pad)
        for dzd, w_x in zip(_lstm_weight_grads(dz, prev, flat, wxs, whs, bs), wxs):
            if x.requires_grad:
                x.accumulate((dzd @ w_x.data.T).reshape(x.data.shape))
        # dh and dc are the gradients of the initial state
        for t, d in zip(init, (dh, dc)):
            if t.requires_grad:
                t.accumulate(d.swapaxes(0, 1).reshape(t.data.shape))

    return _make(out if x.data.ndim == 3 else out[0], (x, *wxs, *whs, *bs, *init), rule)


def lstm_stack(x, wx, wh, b, state, masks=None):
    """Run a unidirectional stack of L LSTM layers over ``x`` (B, T, D),
    or one (T, D) sequence, in one op.  ``wx``, ``wh`` and ``b`` are lists
    of the L layers' weights, bottom first, layer l > 0 reading layer l -
    1's h rows.  Returns every layer's rows ``[h_0 | … | h_{L-1} | c_0 |
    … | c_{L-1}]``, (B, T, 2LH) or (T, 2LH), the top layer's h being the
    stack's output.

    ``state`` is the initial state of every layer packed in that layout,
    one step's rows, (B, 2LH) or (B, 1, 2LH): a decoder's initial state,
    or k beam rows advanced one step as k sequences of length 1; the
    backward sends its gradient to it in its own shape.  ``masks``, (B, T,
    L - 1, H) or (T, L - 1, H) for a (T, D) input, scale the rows layer l
    reads by ``masks[..., l - 1, :]``: inter-layer dropout drawn by the
    caller.

    Each layer is one pass of :func:`lstm_sequence`'s kernel over every
    step in turn, so the values are those of L chained
    :func:`lstm_sequence` calls, each upper layer's input multiplied by
    its mask, bit for bit.  The backward runs each layer's
    backpropagation through time, top layer first, adding each layer's
    input gradient (times its mask) to the h gradient of the layer below;
    its gradients are within 1e-10 relative of the chained calls'.
    """
    if not (isinstance(wx, (list, tuple)) and len(wx) == len(wh) == len(b) > 0):
        raise ValueError("a stack takes equal, non-empty lists of per-layer wx, wh and b")
    x = as_tensor(x)
    wxs, whs, bs = (tuple(map(as_tensor, w)) for w in (wx, wh, b))
    xs = x.data if x.data.ndim == 3 else x.data[None]
    (bsz, n, dim), layers, hsz = xs.shape, len(wxs), whs[0].data.shape[0]
    dtype = x.data.dtype
    state = as_tensor(state)
    # every layer's initial (h, c), (2, L, B, H), one contiguous (B, H) block each
    start = np.ascontiguousarray(state.data.reshape(bsz, 2, layers, hsz).transpose(1, 2, 0, 3),
                                 dtype=dtype)
    if masks is not None:
        masks = np.asarray(masks).reshape(bsz * n, layers - 1, hsz)
    steps = np.empty((n, 2, layers, bsz, hsz), dtype=dtype)  # every step's (h, c)
    flats, passes = [], []  # each layer's input rows, and its pass's tanh values and wh
    flat = xs.reshape(bsz * n, dim)
    for l in range(layers):
        if l:
            flat = steps[:, 0, l - 1].swapaxes(0, 1).reshape(bsz * n, hsz)
            if masks is not None:
                flat = flat * masks[:, l - 1]
        at = slice(l, l + 1)
        flats.append(flat)
        passes.append(_lstm_pass(flat, (bsz, n), wxs[at], whs[at], bs[at], *start[:, at],
                                 steps[:, :, at]))
    out = steps.transpose(3, 0, 1, 2, 4).reshape(bsz, n, 2 * layers * hsz)

    def rule(g):
        # a copy, to which each layer adds the gradient of its input rows
        g = np.array(g.reshape(bsz, n, 2, layers, hsz).transpose(1, 2, 3, 0, 4))
        d_start = np.empty_like(start)
        for l in range(layers - 1, -1, -1):
            at = slice(l, l + 1)
            dz, prev, d_start[0, at], d_start[1, at] = _lstm_bptt(
                g[:, :, at], *passes[l], steps[:, :, at], start[:, at])
            dzd, = _lstm_weight_grads(dz, prev, flats[l], wxs[at], whs[at], bs[at])
            if l:  # into the h rows the layer read
                dx = dzd @ wxs[l].data.T
                if masks is not None:
                    dx = dx * masks[:, l - 1]
                g[:, 0, l - 1] += dx.reshape(bsz, n, hsz).swapaxes(0, 1)
            elif x.requires_grad:
                x.accumulate((dzd @ wxs[0].data.T).reshape(x.data.shape))
        if state.requires_grad:
            state.accumulate(d_start.transpose(2, 0, 1, 3).reshape(state.data.shape))

    return _make(out if x.data.ndim == 3 else out[0], (x, *wxs, *whs, *bs, state), rule)


# ---------------------------------------------------------------------------
# losses

_CLIP = 1e-9


def binary_cross_entropy(probs, targets):
    """Summed BCE over all cells; probabilities clipped to [1e-9, 1-1e-9]."""
    probs = as_tensor(probs)
    t = np.asarray(targets, dtype=probs.data.dtype)
    p = np.clip(probs.data, _CLIP, 1.0 - _CLIP)
    out_data = -(t * np.log(p) + (1.0 - t) * np.log(1.0 - p)).sum()

    def rule(g):
        inside = (probs.data > _CLIP) & (probs.data < 1.0 - _CLIP)
        probs.accumulate(g * inside * (-t / p + (1.0 - t) / (1.0 - p)))

    return _make(out_data, (probs,), rule)


def cross_entropy_logits(logits, targets):
    """Summed categorical cross-entropy from raw scores.

    ``targets`` holds class indices along the last axis for every
    remaining position.  Fused log-softmax keeps it stable for confident
    models.
    """
    logits = as_tensor(logits)
    idx = np.asarray(targets, dtype=np.int64)
    shifted = logits.data - logits.data.max(axis=-1, keepdims=True)
    logz = np.log(np.exp(shifted).sum(axis=-1, keepdims=True))
    logp = shifted - logz
    flat = logp.reshape(-1, logp.shape[-1])
    picked = flat[np.arange(flat.shape[0]), idx.reshape(-1)]
    out_data = -picked.sum()

    def rule(g):
        soft = np.exp(logp)
        onehot = np.zeros_like(soft).reshape(-1, soft.shape[-1])
        onehot[np.arange(onehot.shape[0]), idx.reshape(-1)] = 1.0
        logits.accumulate(g * (soft - onehot.reshape(soft.shape)))

    return _make(out_data, (logits,), rule)


def nll_of_probs(probs, targets):
    """Summed -log p[target] over rows of an already-normalized 2-D
    matrix, each picked probability clipped below at 1e-9; a clipped
    entry gets no gradient."""
    probs = as_tensor(probs)
    idx = (np.arange(probs.data.shape[0]), np.asarray(targets, dtype=np.int64))
    picked = probs.data[idx]
    clipped = np.maximum(picked, _CLIP)
    out_data = -np.log(clipped).sum()

    def rule(g):
        if probs.grad is None:
            probs.grad = np.zeros_like(probs.data)
        np.add.at(probs.grad, idx,
                  np.broadcast_to(-g, picked.shape).copy() / clipped * (picked >= _CLIP))

    return _make(out_data, (probs,), rule)


# ---------------------------------------------------------------------------
# optimizer and clipping

def clip_gradients(params, max_norm):
    """Scale all gradients uniformly so their global L2 norm is <= max_norm.

    Returns ``(factor, norm)``: the factor applied (1.0 when already
    within the bound) and the global norm before clipping.
    """
    total = 0.0
    for p in params:
        if p.grad is not None:
            total += float((p.grad * p.grad).sum())
    norm = float(np.sqrt(total))
    if norm <= max_norm or norm == 0.0:
        return 1.0, norm
    factor = max_norm / norm
    for p in params:
        if p.grad is not None:
            p.grad *= factor
    return factor, norm


class Adam:
    """Adam with bias correction.  A parameter's slot pair (moments) is
    allocated at its first gradient; steps without one never touch the
    slots, so updates equal those of slots zeroed up front.

    A step runs the textbook arithmetic in its order, ``m = b1·m + (1 -
    b1)·g``, ``v = b2·v + (1 - b2)·g·g``, then ``lr·m̂ / (√v̂ + eps)`` with
    ``m̂ = m / (1 - b1^t)`` and ``v̂ = v / (1 - b2^t)``, in place: every
    temporary goes to one scratch pair sized to the largest parameter.
    """

    def __init__(self, params, lr=1e-3, beta1=0.9, beta2=0.999):
        self.params = list(params)
        self.lr = lr
        self.beta1 = beta1
        self.beta2 = beta2
        self.t = 0
        self.slots = {}  # parameter index -> (m, v)
        size = max((p.data.size for p in self.params), default=0)
        self._scratch = (np.empty(size), np.empty(size))

    def zero_grad(self):
        for p in self.params:
            p.zero_grad()

    def step(self):
        self.t += 1
        b1, b2 = self.beta1, self.beta2
        c1, c2 = 1 - b1 ** self.t, 1 - b2 ** self.t
        for k, p in enumerate(self.params):
            g = p.grad
            if g is None:
                continue
            if k not in self.slots:
                self.slots[k] = (np.zeros_like(p.data), np.zeros_like(p.data))
            m, v = self.slots[k]
            s, r = (a[:g.size].reshape(g.shape) for a in self._scratch)
            m *= b1
            m += np.multiply(1 - b1, g, out=s)
            v *= b2
            np.multiply(1 - b2, g, out=s)
            s *= g
            v += s
            np.divide(m, c1, out=s)  # m̂
            np.divide(v, c2, out=r)  # v̂
            np.sqrt(r, out=r)
            r += ADAM_EPS
            s *= self.lr
            s /= r
            p.data -= s


# ---------------------------------------------------------------------------
# named parameters and checkpoints

class ParamSet:
    """Ordered name -> parameter tensor registry and checkpoint container.

    Built without ``state``, ``new`` draws each parameter's initial
    values from the rng and ``new_from`` takes the given array.  Built
    with ``state`` (name -> array, as from ``state_dict`` or ``read``),
    both take each parameter's values from it and draw nothing: a name
    missing from ``state`` raises ``KeyError``, an array of another
    shape ``ValueError``, and the values are copied, so the parameters
    never alias the state; the set keeps no reference to an array it
    has taken.  Names in ``state`` that no parameter claims are ignored.

    A checkpoint is an uncompressed zip with one ``<name>.npy`` member
    per parameter, holding its exact array (dtype and 0-d shape kept),
    and a ``__meta__.npy`` member, the UTF-8 JSON of the format version
    and ``extra`` as a uint8 array; ``np.load(path, allow_pickle=False)``
    opens it.  ``save`` writes atomically, in one pass through
    ``_write_npz``, with a fixed member date, so identical parameters give
    identical bytes, the same as ``zipfile`` and ``np.lib.format`` write
    on Python 3.11 and later.  ``read`` is the format's only reader,
    through :func:`read_npz`: one read of the file, whose arrays are
    read-only views of that one buffer; ``_add`` copies them once.  A
    bundle re-zipped with DEFLATE reads the same.  An empty, truncated,
    corrupted or foreign file (other compression, an archive comment or
    bytes before the archive included), an object array, or another
    format version raises one ``ValueError`` naming the path.
    """

    def __init__(self, state=None):
        self._params = {}
        self._state = None if state is None else dict(state)

    def new(self, name, shape, rng, scale=None):
        """Create a parameter initialized uniformly in +-scale.

        ``scale`` defaults to 1/sqrt(fan-in), fan-in being the last dim.
        """
        if scale is None:
            fan = shape[-1] if shape else 1
            scale = 1.0 / np.sqrt(fan)
        return self._add(name, tuple(shape),
                         lambda: rng.uniform(-scale, scale, size=shape))

    def new_from(self, name, data):
        return self._add(name, np.shape(data), lambda: data)

    def _add(self, name, shape, initial):
        if name in self._params:
            raise ValueError(f"duplicate parameter name: {name}")
        if self._state is None:
            data = initial()
        elif name not in self._state:
            raise KeyError(f"missing parameter {name}")
        else:
            data = self._state.pop(name)
            if np.shape(data) != shape:
                raise ValueError(f"shape mismatch for {name}: {np.shape(data)} vs {shape}")
        p = self._params[name] = Tensor(np.array(data), requires_grad=True)
        return p

    def __getitem__(self, name):
        return self._params[name]

    def tensors(self):
        return list(self._params.values())

    def state_dict(self):
        return {name: p.data.copy() for name, p in self._params.items()}

    def save(self, path, extra=None):
        meta = json.dumps({"format_version": CHECKPOINT_FORMAT_VERSION,
                           "extra": extra or {}}).encode("utf-8")
        members = [(name, p.data) for name, p in self._params.items()]
        members.append((_META, np.frombuffer(meta, dtype=np.uint8)))
        with atomic_open(path, "wb") as fh:
            _write_npz(fh, members)

    @staticmethod
    def read(path):
        """Read a checkpoint file into (state_dict, extra)."""
        with open(path, "rb") as fh:
            try:
                state = read_npz(fh)
                meta = json.loads(state.pop(_META).tobytes().decode("utf-8"))
                if (meta["format_version"] != CHECKPOINT_FORMAT_VERSION
                        or not isinstance(meta["extra"], dict)):
                    raise ValueError
                return state, meta["extra"]
            except (KeyError, TypeError, ValueError):
                raise ValueError(f"{path}: not a format-{CHECKPOINT_FORMAT_VERSION} "
                                 "checkpoint") from None


# the zip records _write_npz writes and _zip_members reads, in zipfile's
# layout; _ZIP64_SIZES is a local header's zip64 extra, holding both sizes
_LOCAL_HEADER = struct.Struct("<4s2B4HL2L2H")
_ZIP64_SIZES = struct.Struct("<HHQQ")
_CENTRAL_HEADER = struct.Struct("<4s4B4HL2L5H2L")
_ZIP64_END = struct.Struct("<4sQ2H2L4Q")
_ZIP64_LOCATOR = struct.Struct("<4sLQL")
_END = struct.Struct("<4s4H2LH")
_ZIP64_VERSION = 45  # needed to extract and made by, as force_zip64 sets them
_UNIX = 3  # the creator's system
_UTF8_NAME = 0x800  # flag of a member name that is not ASCII
_IN_ZIP64 = 0xFFFFFFFF  # a 32-bit size or offset that a zip64 record holds


def _write_npz(fh, members):
    """Write the (name, array) pairs ``members`` to the binary file ``fh``
    as an uncompressed ``.npz`` archive of ``<name>.npy`` members, in one
    pass: the bytes that ``zipfile`` of Python 3.11+ on POSIX writes, each
    member opened with ``force_zip64=True`` and filled by
    ``np.lib.format.write_array``.  A member's data is its array's own
    buffer: a Fortran-ordered array is written as its transpose, and only
    an array neither C- nor F-contiguous is copied.  zip64 central extras
    and end records appear where ``zipfile`` writes them, by its limits
    at call time."""
    year, month, day, hour, minute, second = ZIP_DATE_TIME
    dosdate = (year - 1980) << 9 | month << 5 | day
    dostime = hour << 11 | minute << 5 | second // 2
    size_limit, count_limit = zipfile.ZIP64_LIMIT, zipfile.ZIP_FILECOUNT_LIMIT
    offset = 0
    central = []
    for name, arr in members:
        flags = arr.flags
        fortran = flags.f_contiguous and not flags.c_contiguous
        header = _npy_header_bytes(arr.dtype, fortran, arr.shape)
        if fortran:
            arr = arr.T
        elif not flags.c_contiguous:
            arr = np.ascontiguousarray(arr)
        filename = f"{name}.npy"
        try:
            filename, flag = filename.encode("ascii"), 0
        except UnicodeEncodeError:
            filename, flag = filename.encode("utf-8"), _UTF8_NAME
        size = len(header) + arr.nbytes
        crc = zlib.crc32(arr, zlib.crc32(header))
        fh.write(b"".join((
            _LOCAL_HEADER.pack(b"PK\x03\x04", _ZIP64_VERSION, 0, flag, zipfile.ZIP_STORED,
                               dostime, dosdate, crc, _IN_ZIP64, _IN_ZIP64,
                               len(filename), _ZIP64_SIZES.size),
            filename, _ZIP64_SIZES.pack(1, 16, size, size), header)))
        fh.write(arr)
        central.append((filename, flag, crc, size, offset))
        offset += _LOCAL_HEADER.size + len(filename) + _ZIP64_SIZES.size + size

    records = []
    for filename, flag, crc, size, header_offset in central:
        zip64 = []  # the fields past 32 bits, in the zip64 extra's order
        if size > size_limit:
            zip64 += [size, size]
            size = _IN_ZIP64
        if header_offset > size_limit:
            zip64.append(header_offset)
            header_offset = _IN_ZIP64
        extra = (struct.pack(f"<HH{len(zip64)}Q", 1, 8 * len(zip64), *zip64)
                 if zip64 else b"")
        records += (
            _CENTRAL_HEADER.pack(
                b"PK\x01\x02", _ZIP64_VERSION, _UNIX, _ZIP64_VERSION, 0, flag,
                zipfile.ZIP_STORED, dostime, dosdate, crc, size, size,
                len(filename), len(extra), 0, 0, 0, 0o600 << 16,  # ?rw-------
                header_offset),
            filename, extra)
    directory = b"".join(records)
    count, start, length = len(central), offset, len(directory)
    if count > count_limit or start > size_limit or length > size_limit:
        directory += (_ZIP64_END.pack(b"PK\x06\x06", 44, _ZIP64_VERSION, _ZIP64_VERSION,
                                      0, 0, count, count, length, start)
                      + _ZIP64_LOCATOR.pack(b"PK\x06\x07", 0, start + length, 1))
        count, length, start = (min(count, 0xFFFF), min(length, _IN_ZIP64),
                                min(start, _IN_ZIP64))
    fh.write(directory + _END.pack(b"PK\x05\x06", 0, 0, count, count, length, start, 0))


@functools.lru_cache(maxsize=1024)  # process-wide: bundles repeat few headers
def _npy_header_bytes(dtype, fortran_order, shape):
    """The ``.npy`` header ``np.lib.format.write_array`` writes before an
    array of this dtype, order and shape: version 1.0, or 2.0 past 64 KiB."""
    fh = io.BytesIO()
    header = {"descr": np.lib.format.dtype_to_descr(dtype),
              "fortran_order": fortran_order, "shape": shape}
    try:
        np.lib.format.write_array_header_1_0(fh, header)
    except ValueError:  # too long for version 1.0's 16-bit length
        np.lib.format.write_array_header_2_0(fh, header)
    return fh.getvalue()


def read_npz(fh):
    """The arrays of the ``.npz`` archive open as ``fh`` by member name, in
    directory order.  The file is read once and its zip records parsed
    directly (see :func:`_zip_members`).  A stored member's array is a
    read-only view of the one file buffer; a DEFLATE member's is a view of
    its decompressed bytes.  A malformed or unsupported archive, or an
    object array, is a ValueError."""
    buf = fh.read()
    try:
        return {name.removesuffix(".npy"): _npy_array(data) for name, data in _zip_members(buf)}
    except (IndexError, struct.error,  # a record cut off by the end of the file
            KeyError,  # an unknown .npy version
            zlib.error) as err:  # bad DEFLATE data
        raise ValueError(f"malformed .npz archive: {err!r}") from None


_ENCRYPTED = 0x1 | 0x20 | 0x40  # flags of encrypted, patched and strongly encrypted data
_MAX_VERSION = 63  # the newest zip version needed to extract that zipfile reads


def _zip_members(buf):
    """Yield the (name, data) of each member of the zip archive ``buf``,
    read as ``zipfile`` reads the archives that ``ParamSet.save``,
    ``np.savez`` and ``np.savez_compressed`` write: the end record in the
    last 22 bytes, with no comment; the zip64 end record where its locator
    precedes the end record; the central directory at the offset its end
    record gives, filled exactly by its entries; and a local header that
    must name its entry.  Each member must be stored or DEFLATE
    compressed, and its data must have its recorded size and CRC-32."""
    end = len(buf) - _END.size
    if end < 0 or not buf.startswith(b"PK\x05\x06", end) or buf[-2:] != b"\0\0":
        raise ValueError("no end of central directory record, or a comment after it")
    *_, count, size, offset, _ = _END.unpack_from(buf, end)
    locator = end - _ZIP64_LOCATOR.size
    if locator >= 0 and buf.startswith(b"PK\x06\x07", locator):
        _, disk, _, disks = _ZIP64_LOCATOR.unpack_from(buf, locator)
        if disk != 0 or disks > 1 or locator < _ZIP64_END.size:
            raise ValueError("zip64 locator of a split or truncated archive")
        if buf.startswith(b"PK\x06\x06", locator - _ZIP64_END.size):
            end = locator - _ZIP64_END.size
            *_, count, size, offset = _ZIP64_END.unpack_from(buf, end)
    if offset + size != end:
        raise ValueError("central directory not where its end record puts it")
    pos = offset
    view = memoryview(buf)
    for _ in range(count):
        (sig, _, _, version, _, flag, method, _, _, crc, csize, fsize,
         name_len, extra_len, comment_len, _, _, _, header) = _CENTRAL_HEADER.unpack_from(buf, pos)
        pos += _CENTRAL_HEADER.size
        name = buf[pos:pos + name_len].decode("utf-8" if flag & _UTF8_NAME else "cp437")
        extra = buf[pos + name_len:pos + name_len + extra_len]
        fsize, csize, header = _zip64_fields([fsize, csize, header], extra)
        pos += name_len + extra_len + comment_len
        if (sig != b"PK\x01\x02" or version > _MAX_VERSION or flag & _ENCRYPTED
                or method not in (zipfile.ZIP_STORED, zipfile.ZIP_DEFLATED)
                or header >= len(buf)):
            raise ValueError(f"bad or unsupported directory entry of {name!r}")
        sig, _, _, local_flag, *_, name_len, extra_len = _LOCAL_HEADER.unpack_from(buf, header)
        start = header + _LOCAL_HEADER.size
        local_name = buf[start:start + name_len]
        start += name_len + extra_len
        data = view[start:start + csize]
        if (sig != b"PK\x03\x04" or len(data) != csize or local_name.decode(
                "utf-8" if local_flag & _UTF8_NAME else "cp437") != name):
            raise ValueError(f"bad local header of {name!r}")
        if method == zipfile.ZIP_DEFLATED:
            data = zlib.decompressobj(-15).decompress(data)
        if len(data) != fsize or zlib.crc32(data) != crc:
            raise ValueError(f"bad size or CRC-32 of {name!r}")
        yield name, data
    if pos != end:
        raise ValueError("central directory not filled by its entries")


def _zip64_fields(fields, extra):
    """A directory entry's [file size, compressed size, header offset]
    with each 0xFFFFFFFF read, in that order, from the zip64 extras among
    its ``extra`` records."""
    while len(extra) >= 4:
        tag, length = struct.unpack_from("<HH", extra)
        data, extra = extra[4:4 + length], extra[4 + length:]
        if len(data) < length:
            raise ValueError("extra record past its field")
        if tag == 1:
            for k, field in enumerate(fields):
                if field == _IN_ZIP64:
                    (fields[k],), data = struct.unpack_from("<Q", data), data[8:]
    return fields


def _npy_array(data):
    width = 2 if data[6] == 1 else 4  # of the header length, by .npy version
    end = 8 + width + int.from_bytes(data[8:8 + width], "little")
    shape, fortran_order, dtype = _npy_header(bytes(data[:end]))
    arr = np.frombuffer(data, dtype, offset=end)  # the rest is the array's, exactly
    return arr.reshape(shape[::-1]).T if fortran_order else arr.reshape(shape)


@functools.lru_cache(maxsize=1024)  # process-wide: bundles repeat few headers
def _npy_header(header):
    fh = io.BytesIO(header)
    read = {(1, 0): np.lib.format.read_array_header_1_0,
            (2, 0): np.lib.format.read_array_header_2_0}[np.lib.format.read_magic(fh)]
    shape, fortran_order, dtype = read(fh)
    if dtype.hasobject or min(shape, default=0) < 0:
        raise ValueError(f"not a plain array: {dtype}, {shape}")
    return shape, fortran_order, dtype
