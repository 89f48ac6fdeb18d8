"""Dense tensors with reverse-mode automatic differentiation.

Small and deliberately boring: a ``Tensor`` wraps a numpy array and
remembers how it was produced, ``backward`` walks the recorded graph
once in reverse topological order, and leaves created with
``requires_grad=True`` accumulate gradients additively.  Float64 so
finite-difference checks are meaningful.

Inside :func:`no_grad` the ops compute the same values but record
nothing: every result is a plain leaf with no parents and no backward
rule, so a forward pass that is never differentiated keeps no graph
alive.  Parsing (``training.parse_sentence`` and
``training.parse_ensemble``, hence ensemble selection), validation
losses (``training._val_loss``) and EDS conversion
(``training.EdsModel.parse``) run under it.

Two fused ops carry every LSTM recurrence: :func:`lstm_sequence` runs a
whole sequence, from a zero state or from a given (1, H) initial state
``h0, c0``, and returns one (T, 2H) tensor of ``[h_t | c_t]`` rows;
:func:`lstm_step` advances k independent rows one step, returning
(k, 2H).  The encoder runs sequences from zero, the teacher-forced
decoders from their initial states, and free-running decoding steps.
Both share one cell implementation; their forward is bit-identical to
composing the elementary ops per step, their hand-written backward
(backpropagation through time for the sequence, reaching the initial
state) agrees with the composition's gradients to rounding, and their
buffers take the input dtype.  Each creates one graph node however
long the sequence.

Also home to the optimizer (:class:`Adam`), global-norm gradient
clipping and :class:`ParamSet`, the named parameter container that
alone writes and reads checkpoints: deterministic, uncompressed zips of
exact ``.npy`` arrays that ``np.load(path, allow_pickle=False)`` opens.
A model is built from saved values by handing them to its container
as ``state``: the parameters copy them and no initializer draws.
"""

import contextlib
import json
import zipfile

import numpy as np

from .atomic import atomic_open

_DEFAULT_DTYPE = np.float64
_GRAD_ENABLED = True  # False inside no_grad()

CHECKPOINT_FORMAT_VERSION = 2
_META = "__meta__"
ZIP_DATE_TIME = (1980, 1, 1, 0, 0, 0)  # of every checkpoint member


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
        self.data = np.asarray(data, dtype=_DEFAULT_DTYPE)
        self.grad = None
        self.requires_grad = requires_grad
        self.parents = parents if requires_grad else ()
        self.backward_rule = backward_rule if requires_grad else None

    @property
    def shape(self):
        return self.data.shape

    @property
    def size(self):
        return self.data.size

    def item(self):
        return float(self.data.reshape(-1)[0])

    def accumulate(self, g):
        if self.grad is None:
            self.grad = np.zeros_like(self.data)
        self.grad += g

    def zero_grad(self):
        self.grad = None

    def backward(self, seed=None):
        """Backpropagate from this tensor (scalar unless ``seed`` given).

        Visits each node exactly once via an iterative topological sort,
        so arbitrarily deep decoder chains do not hit the recursion
        limit.
        """
        if seed is None:
            if self.data.size != 1:
                raise ValueError("backward() without seed requires a scalar")
            seed = np.ones_like(self.data)
        order = _toposort(self)
        self.accumulate(np.asarray(seed, dtype=self.data.dtype))
        for node in order:
            if node.backward_rule is not None and node.grad is not None:
                node.backward_rule(node.grad)

    # operator sugar; the real work is in the module functions
    def __add__(self, other):
        return add(self, other)

    def __radd__(self, other):
        return add(other, self)

    def __sub__(self, other):
        return sub(self, other)

    def __rsub__(self, other):
        return sub(other, self)

    def __mul__(self, other):
        return mul(self, other)

    def __rmul__(self, other):
        return mul(other, self)

    def __neg__(self):
        return neg(self)

    def __matmul__(self, other):
        return matmul(self, other)

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


def sub(a, b):
    a, b = as_tensor(a), as_tensor(b)
    out_data = a.data - b.data

    def rule(g):
        if a.requires_grad:
            a.accumulate(_unbroadcast(g, a.data.shape))
        if b.requires_grad:
            b.accumulate(_unbroadcast(-g, b.data.shape))

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


def neg(a):
    a = as_tensor(a)

    def rule(g):
        a.accumulate(-g)

    return _make(-a.data, (a,), rule)


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


def transpose(a):
    a = as_tensor(a)

    def rule(g):
        a.accumulate(np.swapaxes(g, -1, -2))

    return _make(np.swapaxes(a.data, -1, -2), (a,), rule)


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


def stack(tensors, axis=0):
    tensors = [as_tensor(t) for t in tensors]
    out_data = np.stack([t.data for t in tensors], axis=axis)

    def rule(g):
        for i, t in enumerate(tensors):
            if t.requires_grad:
                t.accumulate(np.take(g, i, axis=axis))

    return _make(out_data, tuple(tensors), rule)


def rows(table, indices):
    """Row lookup ``table[indices]`` with scatter-add backward (embeddings)."""
    table = as_tensor(table)
    indices = np.asarray(indices, dtype=np.int64)

    def rule(g):
        if table.grad is None:
            table.grad = np.zeros_like(table.data)
        np.add.at(table.grad, indices, g)

    return _make(table.data[indices], (table,), rule)


def pick(a, indices):
    """Per-row gather: ``a[i, indices[i]]`` for a 2-D tensor."""
    a = as_tensor(a)
    indices = np.asarray(indices, dtype=np.int64)
    n = a.data.shape[0]
    arange = np.arange(n)

    def rule(g):
        if a.grad is None:
            a.grad = np.zeros_like(a.data)
        np.add.at(a.grad, (arange, indices), g)

    return _make(a.data[arange, indices], (a,), rule)


# ---------------------------------------------------------------------------
# nonlinearities

def tanh(a):
    a = as_tensor(a)
    out_data = np.tanh(a.data)

    def rule(g):
        a.accumulate(g * (1.0 - out_data * out_data))

    return _make(out_data, (a,), rule)


def _sigmoid(x):
    """Logistic function on an array, stable in both tails."""
    e = np.exp(-np.abs(x))
    return np.where(x >= 0, 1.0 / (1.0 + e), e / (1.0 + e))


def sigmoid(a):
    a = as_tensor(a)
    out_data = _sigmoid(a.data)

    def rule(g):
        a.accumulate(g * out_data * (1.0 - out_data))

    return _make(out_data, (a,), rule)


def exp(a):
    a = as_tensor(a)
    out_data = np.exp(a.data)

    def rule(g):
        a.accumulate(g * out_data)

    return _make(out_data, (a,), rule)


def log(a):
    a = as_tensor(a)

    def rule(g):
        a.accumulate(g / a.data)

    return _make(np.log(a.data), (a,), rule)


def elu(a):
    """Smooth rectifier used inside the MLPs: x for x>0, exp(x)-1 below."""
    a = as_tensor(a)
    neg_part = np.exp(np.minimum(a.data, 0.0)) - 1.0
    out_data = np.where(a.data > 0, a.data, neg_part)

    def rule(g):
        a.accumulate(g * np.where(a.data > 0, 1.0, neg_part + 1.0))

    return _make(out_data, (a,), rule)


def softmax(a, axis=-1):
    a = as_tensor(a)
    shifted = a.data - a.data.max(axis=axis, keepdims=True)
    e = np.exp(shifted)
    out_data = e / e.sum(axis=axis, keepdims=True)

    def rule(g):
        inner = (g * out_data).sum(axis=axis, keepdims=True)
        a.accumulate(out_data * (g - inner))

    return _make(out_data, (a,), rule)


def reduce_sum(a, axis=None, keepdims=False):
    a = as_tensor(a)
    out_data = a.data.sum(axis=axis, keepdims=keepdims)

    def rule(g):
        if axis is None:
            a.accumulate(np.broadcast_to(g, a.data.shape).copy())
        else:
            if not keepdims:
                g = np.expand_dims(g, axis)
            a.accumulate(np.broadcast_to(g, a.data.shape).copy())

    return _make(out_data, (a,), rule)


def dropout(a, p, rng, train=True):
    """Inverted dropout: zero with probability ``p``, scale survivors by 1/(1-p)."""
    a = as_tensor(a)
    if not train or p <= 0.0:
        return a
    if p >= 1.0:
        return mul(a, 0.0)
    mask = (rng.random(a.data.shape) >= p) / (1.0 - p)

    def rule(g):
        a.accumulate(g * mask)

    return _make(a.data * mask, (a,), rule)


# ---------------------------------------------------------------------------
# fused LSTM recurrence
#
# Gate columns are ordered input, forget, cell candidate, output.  The
# forward arithmetic is exactly that of composing ``matmul``, ``add``,
# ``split``, ``sigmoid``, ``tanh`` and ``mul`` per step, so outputs are
# bit-identical to the composition; the backward is written by hand and
# builds no graph nodes.

def _lstm_cell(xw, h, c, wh, b):
    """One step on row arrays, ``xw`` being the input row times ``wx``.

    Returns ``(h', c', saved)``; ``saved`` is what :func:`_lstm_cell_grad`
    needs.
    """
    hsz = h.shape[1]
    z = xw + h @ wh + b
    s = _sigmoid(z)  # one call over all four gates; g's slice goes unused
    i, f, o = s[:, :hsz], s[:, hsz:2 * hsz], s[:, 3 * hsz:]
    g = np.tanh(z[:, 2 * hsz:3 * hsz])
    c2 = f * c + i * g
    tc = np.tanh(c2)
    return o * tc, c2, (i, f, g, o, tc)


def _lstm_cell_grad(dh, dc, c, saved):
    """Backward of :func:`_lstm_cell` given the gradients reaching h'
    and c' and the previous cell state ``c``: ``(dz, dc_prev)``, with
    ``dz`` the gradient of the pre-activation gate row."""
    i, f, g, o, tc = saved
    dc = dc + dh * o * (1.0 - tc * tc)
    dz = np.concatenate([dc * g * i * (1.0 - i), dc * c * f * (1.0 - f),
                         dc * i * (1.0 - g * g), dh * tc * o * (1.0 - o)], axis=1)
    return dz, dc * f


def lstm_step(x, h, c, wx, wh, b):
    """One LSTM step from states ``(h, c)``, each (k, H), on input rows
    ``x`` (k, D); returns the (k, 2H) rows ``[h' | c']``.  The k rows
    are independent recurrences advanced together (a decoder's beam)."""
    x, h, c, wx, wh, b = (as_tensor(t) for t in (x, h, c, wx, wh, b))
    hsz = wh.data.shape[0]
    h2, c2, saved = _lstm_cell(x.data @ wx.data, h.data, c.data, wh.data, b.data)

    def rule(g):
        dz, dc = _lstm_cell_grad(g[:, :hsz], g[:, hsz:], c.data, saved)
        if x.requires_grad:
            x.accumulate(dz @ wx.data.T)
        if h.requires_grad:
            h.accumulate(dz @ wh.data.T)
        if c.requires_grad:
            c.accumulate(dc)
        if wx.requires_grad:
            wx.accumulate(x.data.T @ dz)
        if wh.requires_grad:
            wh.accumulate(h.data.T @ dz)
        if b.requires_grad:
            b.accumulate(_unbroadcast(dz, b.data.shape))

    return _make(np.concatenate([h2, c2], axis=1), (x, h, c, wx, wh, b), rule)


def lstm_sequence(x, wx, wh, b, reverse=False, h0=None, c0=None):
    """Run an LSTM over the rows of ``x`` (T, D), last row first when
    ``reverse``; returns (T, 2H) whose row ``t`` is ``[h_t | c_t]``.
    Backward is backpropagation through time.

    The state starts from ``h0`` and ``c0``, each (1, H), when given
    (a decoder run from its initial state under teacher forcing) and
    from zero otherwise; the backward sends their gradients to them.

    Each row is projected as ``x[t:t+1] @ wx`` inside the loop: one
    batched ``x @ wx`` rounds differently and would break bit equality
    with the per-step composition.
    """
    x, wx, wh, b = (as_tensor(t) for t in (x, wx, wh, b))
    n, hsz = x.data.shape[0], wh.data.shape[0]
    dtype = x.data.dtype
    zero = np.zeros((1, hsz), dtype=dtype)
    init = () if h0 is None else (as_tensor(h0), as_tensor(c0))
    h, c = (init[0].data, init[1].data) if init else (zero, zero)
    out = np.empty((n, 2 * hsz), dtype=dtype)
    order = range(n - 1, -1, -1) if reverse else range(n)
    saved = [None] * n
    for t in order:
        h, c, saved[t] = _lstm_cell(x.data[t:t + 1] @ wx.data, h, c, wh.data, b.data)
        out[t, :hsz] = h[0]
        out[t, hsz:] = c[0]

    def rule(g):
        # the state each step started from: the previous row, the
        # initial state first
        h_prev = np.empty((n, hsz), dtype=dtype)
        c_prev = np.empty((n, hsz), dtype=dtype)
        first = n - 1 if reverse else 0
        h_prev[first] = init[0].data[0] if init else 0.0
        c_prev[first] = init[1].data[0] if init else 0.0
        if reverse:
            h_prev[:-1], c_prev[:-1] = out[1:, :hsz], out[1:, hsz:]
        else:
            h_prev[1:], c_prev[1:] = out[:-1, :hsz], out[:-1, hsz:]
        dz = np.empty((n, 4 * hsz), dtype=dtype)
        dh, dc = zero, zero
        for t in reversed(order):
            row = slice(t, t + 1)
            dz[row], dc = _lstm_cell_grad(dh + g[row, :hsz], dc + g[row, hsz:],
                                          c_prev[row], saved[t])
            dh = dz[row] @ wh.data.T
        if x.requires_grad:
            x.accumulate(dz @ wx.data.T)
        if wx.requires_grad:
            wx.accumulate(x.data.T @ dz)
        if wh.requires_grad:
            wh.accumulate(h_prev.T @ dz)
        if b.requires_grad:
            b.accumulate(_unbroadcast(dz, b.data.shape))
        # dh and dc now hold the gradients of the initial state
        for t, d in zip(init, (dh, dc)):
            if t.requires_grad:
                t.accumulate(d)

    return _make(out, (x, wx, wh, b, *init), rule)


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


def cross_entropy_logits(logits, targets, axis=-1):
    """Summed categorical cross-entropy from raw scores.

    ``targets`` holds class indices along ``axis`` for every remaining
    position.  Fused log-softmax keeps it stable for confident models.
    """
    logits = as_tensor(logits)
    if axis != -1 and axis != logits.data.ndim - 1:
        raise ValueError("cross_entropy_logits expects class axis last")
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
    """Summed -log p[target] over rows of an already-normalized 2-D matrix."""
    picked = pick(probs, targets)
    clipped = _clip_low(picked)
    return neg(reduce_sum(log(clipped)))


def _clip_low(a, lo=_CLIP):
    a = as_tensor(a)
    clipped = np.maximum(a.data, lo)

    def rule(g):
        a.accumulate(g * (a.data >= lo))

    return _make(clipped, (a,), rule)


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
    slots, so updates equal those of slots zeroed up front."""

    def __init__(self, params, lr=1e-3, beta1=0.9, beta2=0.999, eps=1e-8):
        self.params = list(params)
        self.lr = lr
        self.beta1 = beta1
        self.beta2 = beta2
        self.eps = eps
        self.t = 0
        self.slots = {}  # parameter index -> (m, v)

    def zero_grad(self):
        for p in self.params:
            p.zero_grad()

    def step(self):
        self.t += 1
        b1, b2 = self.beta1, self.beta2
        for k, p in enumerate(self.params):
            g = p.grad
            if g is None:
                continue
            if k not in self.slots:
                self.slots[k] = (np.zeros_like(p.data), np.zeros_like(p.data))
            m, v = self.slots[k]
            m *= b1
            m += (1 - b1) * g
            v *= b2
            v += (1 - b2) * g * g
            mhat = m / (1 - b1 ** self.t)
            vhat = v / (1 - b2 ** self.t)
            p.data -= self.lr * mhat / (np.sqrt(vhat) + self.eps)


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
    opens it.  ``save`` writes atomically with a fixed member date, so
    identical parameters give identical bytes.  ``read`` is the format's
    only reader: an empty, truncated or foreign file, or another format
    version, raises one ``ValueError`` naming the path.
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
        with atomic_open(path, "wb") as fh, \
                zipfile.ZipFile(fh, "w", zipfile.ZIP_STORED) as zf:
            for name, arr in members:
                info = zipfile.ZipInfo(f"{name}.npy", date_time=ZIP_DATE_TIME)
                with zf.open(info, "w", force_zip64=True) as member:
                    np.lib.format.write_array(member, arr, allow_pickle=False)

    @staticmethod
    def read(path):
        """Read a checkpoint file into (state_dict, extra)."""
        try:
            npz = np.load(path, allow_pickle=False)
            if not isinstance(npz, np.lib.npyio.NpzFile):  # a bare .npy array
                raise ValueError
            with npz:
                meta = json.loads(npz[_META].tobytes().decode("utf-8"))
                if meta["format_version"] != CHECKPOINT_FORMAT_VERSION:
                    raise ValueError
                state = {name: npz[name] for name in npz.files if name != _META}
                return state, meta["extra"]
        except (EOFError, KeyError, ValueError, zipfile.BadZipFile):
            raise ValueError(f"{path}: not a format-{CHECKPOINT_FORMAT_VERSION} "
                             "checkpoint") from None
