"""The fused LSTM op against the per-step composition it replaces.

``ad.lstm_sequence`` must reproduce the composed forward
(``conftest.reference_lstm_*``) within 1e-12, pass the finite-difference
gradcheck, and give gradients within 1e-10 of the composition: on one
sequence, on B sequences from a given state, on the k rows of a
decoder's step (T = 1), on saturated gates, on both directions of a
biLSTM layer, and through a whole multitask model.  A case with
``reverse`` checks the backward half of a two-direction run, the
composition's ``reverse=True``.  A stack of layers must give the bits
of one single-layer call per layer, and their gradients within 1e-10.
"""

import warnings
from dataclasses import replace

import numpy as np
import pytest

import mrparse.autodiff as ad
import mrparse.training as T
from mrparse import datagen
from mrparse.config import multitask_config

from conftest import (check_gradients, reference_lstm_sequence,
                      reference_lstm_step, scalarize)

D, H = 3, 4
FORWARD_ATOL = 1e-12
GRAD_RTOL = 1e-10


def weights(rng, d=D, h=H):
    return [ad.Tensor(rng.uniform(-1.0, 1.0, size=shape), requires_grad=True)
            for shape in ((d, 4 * h), (h, 4 * h), (4 * h,))]


def initial_state(rng, h=H):
    return [ad.Tensor(rng.uniform(-1.0, 1.0, size=(1, h)), requires_grad=True)
            for _ in range(2)]


def partner(d, h):
    """Constant forward-direction weights to run beside the backward
    direction under test, from a generator of their own so that no
    test's draws move."""
    rng = np.random.default_rng(1000)
    return [ad.Tensor(rng.uniform(-1.0, 1.0, size=shape))
            for shape in ((d, 4 * h), (h, 4 * h), (4 * h,))]


def lstm(x, wx, wh, b, reverse=False, h0=None, c0=None):
    """One direction's ``[h | c]`` rows from ``ad.lstm_sequence``: a
    one-direction run, or with ``reverse`` the backward half of a
    two-direction run beside :func:`partner`, which starts from zero."""
    if not reverse:
        return ad.lstm_sequence(x, wx, wh, b, h0=h0, c0=c0)
    hsz = wh.shape[0]
    fwd = partner(wx.shape[0], hsz)
    init = {}
    if h0 is not None:
        zero = np.zeros(h0.shape)
        init = {"h0": ad.concat([zero, h0], axis=-1), "c0": ad.concat([zero, c0], axis=-1)}
    out = ad.lstm_sequence(x, *zip(fwd, (wx, wh, b)), **init)
    _, h_bwd, _, c_bwd = ad.split(out, [hsz] * 4, axis=-1)
    return ad.concat([h_bwd, c_bwd], axis=-1)


def reference_bilstm(x, fwd, bwd):
    """Composed oracle of a two-direction run over ``x``, (T, D) or (B,
    T, D): per sequence, ``reference_lstm_sequence`` with the ``fwd``
    weights and with the ``bwd`` ones and ``reverse=True``, as rows
    ``[h_fwd | h_bwd | c_fwd | c_bwd]``."""
    if x.data.ndim == 3:
        bsz, n, d = x.shape
        return ad.concat([ad.reshape(reference_bilstm(ad.reshape(s, (n, d)), fwd, bwd),
                                     (1, n, -1))
                          for s in ad.split(x, [1] * bsz, axis=0)], axis=0)
    (h_fwd, c_fwd), (h_bwd, c_bwd) = (reference_lstm_sequence(x, *fwd),
                                      reference_lstm_sequence(x, *bwd, reverse=True))
    return ad.concat([h_fwd, h_bwd, c_fwd, c_bwd], axis=1)


def assert_forward_close(got, want):
    np.testing.assert_allclose(got, want, rtol=0.0, atol=FORWARD_ATOL)


def assert_grads_close(got, want):
    for g, w in zip(got, want):
        scale = max(1.0, float(np.abs(w).max()))
        assert float(np.abs(g - w).max()) <= GRAD_RTOL * scale


class TestLstmSequence:
    @pytest.mark.parametrize("reverse", [False, True])
    @pytest.mark.parametrize("n", [1, 6])
    def test_gradcheck(self, n, reverse):
        rng = np.random.default_rng(n + 10 * reverse)
        x = ad.Tensor(rng.normal(size=(n, D)), requires_grad=True)
        wx, wh, b = weights(rng)
        proj = rng.normal(size=(n, 2 * H))
        check_gradients(
            lambda: scalarize(lstm(x, wx, wh, b, reverse=reverse), proj),
            [x, wx, wh, b])

    @pytest.mark.parametrize("reverse", [False, True])
    @pytest.mark.parametrize("n", [1, 6])
    def test_gradcheck_from_initial_state(self, n, reverse):
        """BPTT reaches the initial state (h0, c0) as well."""
        rng = np.random.default_rng(30 + n + 10 * reverse)
        x = ad.Tensor(rng.normal(size=(n, D)), requires_grad=True)
        wx, wh, b = weights(rng)
        h0, c0 = initial_state(rng)
        proj = rng.normal(size=(n, 2 * H))
        check_gradients(
            lambda: scalarize(lstm(x, wx, wh, b, reverse=reverse, h0=h0, c0=c0), proj),
            [x, wx, wh, b, h0, c0])

    @pytest.mark.parametrize("reverse", [False, True])
    @pytest.mark.parametrize("n", [1, 2, 7])
    def test_forward_close_to_composition(self, n, reverse):
        rng = np.random.default_rng(100 + n)
        x = rng.normal(size=(n, D))
        wx, wh, b = weights(rng)
        for h0, c0 in ((None, None), initial_state(rng)):
            out = lstm(x, wx, wh, b, reverse=reverse, h0=h0, c0=c0).data
            ref_h, ref_c = reference_lstm_sequence(x, wx, wh, b, reverse=reverse,
                                                   h0=h0, c0=c0)
            assert_forward_close(out[:, :H], ref_h.data)
            assert_forward_close(out[:, H:], ref_c.data)

    @pytest.mark.parametrize("reverse", [False, True])
    def test_gradients_match_composition(self, reverse):
        rng = np.random.default_rng(7)
        x = ad.Tensor(rng.normal(size=(9, D)), requires_grad=True)
        wx, wh, b = weights(rng)
        proj = rng.normal(size=(9, 2 * H))
        for init in ([], initial_state(rng)):
            leaves = [x, wx, wh, b] + init
            start = dict(zip(("h0", "c0"), init))
            for p in leaves:
                p.zero_grad()
            out = lstm(x, wx, wh, b, reverse=reverse, **start)
            ad.reduce_sum(ad.mul(out, proj)).backward()
            fused = [p.grad.copy() for p in leaves]
            for p in leaves:
                p.zero_grad()
            ref = ad.concat(reference_lstm_sequence(x, wx, wh, b, reverse=reverse,
                                                    **start), axis=1)
            ad.reduce_sum(ad.mul(ref, proj)).backward()
            assert_grads_close(fused, [p.grad for p in leaves])

    def test_reverse_runs_last_row_first(self):
        """The backward half is, bit for bit, the forward run over the
        rows last first."""
        rng = np.random.default_rng(3)
        x = rng.normal(size=(5, D))
        wx, wh, b = weights(rng)
        back = lstm(x, wx, wh, b, reverse=True).data
        flipped = ad.lstm_sequence(x[::-1].copy(), wx, wh, b).data
        np.testing.assert_array_equal(back, flipped[::-1])

    def test_buffers_take_input_dtype(self, monkeypatch):
        rng = np.random.default_rng(4)
        x = ad.Tensor(rng.normal(size=(3, D)), requires_grad=True)
        wx, wh, b = weights(rng)
        for leaf in (x, wx, wh, b):  # a Tensor built from data is float64
            leaf.data = leaf.data.astype(np.float32)
        made, make = [], ad._make
        monkeypatch.setattr(ad, "_make", lambda data, parents, rule: (
            made.append(data.dtype), make(data, parents, rule))[1])
        out = ad.lstm_sequence(x, wx, wh, b)
        ad.reduce_sum(out).backward()
        assert made[0] == np.float32
        assert x.grad.dtype == np.float32 and wh.grad.dtype == np.float32

    def test_constant_inputs_build_no_graph(self):
        rng = np.random.default_rng(5)
        out = ad.lstm_sequence(rng.normal(size=(3, D)), rng.normal(size=(D, 4 * H)),
                               rng.normal(size=(H, 4 * H)), rng.normal(size=4 * H))
        assert not out.requires_grad and out.parents == ()


class TestTwoDirections:
    """``ad.lstm_sequence`` on ``(forward, backward)`` weight pairs, a
    biLSTM layer: B = 1 is one (T, D) sequence, as the encoder runs it."""

    @staticmethod
    def inputs(seed, n, bsz):
        rng = np.random.default_rng(seed)
        shape = (n, D) if bsz == 1 else (bsz, n, D)
        x = ad.Tensor(rng.normal(size=shape), requires_grad=True)
        fwd, bwd = weights(rng), weights(rng)
        proj = rng.normal(size=shape[:-1] + (4 * H,))
        return x, fwd, bwd, proj

    @pytest.mark.parametrize("bsz", [1, 3])
    @pytest.mark.parametrize("n", [1, 4])
    def test_gradcheck(self, n, bsz):
        x, fwd, bwd, proj = self.inputs(60 + n + 10 * bsz, n, bsz)
        check_gradients(
            lambda: scalarize(ad.lstm_sequence(x, *zip(fwd, bwd)), proj),
            [x, *fwd, *bwd])

    @pytest.mark.parametrize("bsz", [1, 3])
    @pytest.mark.parametrize("n", [1, 4])
    def test_forward_and_gradients_close_to_composition(self, n, bsz):
        x, fwd, bwd, proj = self.inputs(70 + n + 10 * bsz, n, bsz)
        leaves = [x, *fwd, *bwd]
        out = ad.lstm_sequence(x, *zip(fwd, bwd))
        ref = reference_bilstm(x, fwd, bwd)
        assert out.shape == ref.shape
        assert_forward_close(out.data, ref.data)
        ad.reduce_sum(ad.mul(out, proj)).backward()
        fused = [p.grad.copy() for p in leaves]
        for p in leaves:
            p.zero_grad()
        ad.reduce_sum(ad.mul(ref, proj)).backward()
        assert_grads_close(fused, [p.grad for p in leaves])

    def test_forward_direction_keeps_the_bits_of_its_run_alone(self):
        """Values and gradients, whatever the backward direction beside
        it; the backward half's values are those of a forward run over
        the rows last first (``test_reverse_runs_last_row_first``)."""
        x, fwd, bwd, proj = self.inputs(80, 6, 1)
        both = ad.lstm_sequence(x, *zip(fwd, bwd))
        h_fwd, _, c_fwd, _ = ad.split(both, [H] * 4, axis=1)
        ad.reduce_sum(ad.mul(ad.concat([h_fwd, c_fwd], axis=1), proj[:, :2 * H])).backward()
        fused = [p.grad.copy() for p in fwd]
        for p in fwd:
            p.zero_grad()
        alone = ad.lstm_sequence(x, *fwd)
        ad.reduce_sum(ad.mul(alone, proj[:, :2 * H])).backward()
        assert np.concatenate([h_fwd.data, c_fwd.data], axis=1).tobytes() == alone.data.tobytes()
        assert all(a.tobytes() == p.grad.tobytes() for a, p in zip(fused, fwd))

    def test_gradcheck_from_initial_states(self):
        """Each direction starts from its part of ``h0`` and ``c0``,
        laid out like the h and c halves of the rows."""
        x, fwd, bwd, proj = self.inputs(90, 4, 3)
        rng = np.random.default_rng(91)
        h0, c0 = (ad.Tensor(rng.uniform(-1.0, 1.0, size=(3, 2 * H)), requires_grad=True)
                  for _ in range(2))
        check_gradients(
            lambda: scalarize(ad.lstm_sequence(x, *zip(fwd, bwd), h0=h0, c0=c0), proj),
            [x, *fwd, *bwd, h0, c0])
        h_bwd, c_bwd = (ad.Tensor(t.data[:, H:]) for t in (h0, c0))
        back = lstm(x, *bwd, reverse=True, h0=h_bwd, c0=c_bwd).data
        both = ad.lstm_sequence(x, *zip(fwd, bwd), h0=h0, c0=c0).data
        assert both[..., H:2 * H].tobytes() == back[..., :H].tobytes()


STEP_INPUTS = ("x", "h", "c", "wx", "wh", "b")


def composed(x, h, c, wx, wh, b, reverse=False):
    """(B, T, 2H) oracle of ``ad.lstm_sequence`` on a (B, T, D) input from
    the state ``(h, c)``: ``reference_lstm_step`` over the B rows of each
    step."""
    bsz, n, d = x.shape
    hsz = wh.shape[0]
    xs = [ad.reshape(s, (bsz, d)) for s in ad.split(x, [1] * n, axis=1)]
    outs = [None] * n
    for t in (range(n - 1, -1, -1) if reverse else range(n)):
        h, c = reference_lstm_step(xs[t], h, c, wx, wh, b)
        outs[t] = ad.reshape(ad.concat([h, c], axis=1), (bsz, 1, 2 * hsz))
    return ad.concat(outs, axis=1)


class TestLstmStep:
    """``ad.lstm_sequence`` on B sequences from a given (B, H) state
    ``(h, c)``; a decoder's step is the T = 1 case, its k rows being k
    sequences of length 1."""

    def inputs(self, seed, frozen=(), rows=1, steps=1):
        rng = np.random.default_rng(seed)
        shapes = {"x": (rows, steps, D), "h": (rows, H), "c": (rows, H),
                  "wx": (D, 4 * H), "wh": (H, 4 * H), "b": (4 * H,)}
        return {k: ad.Tensor(rng.uniform(-1.0, 1.0, size=shapes[k]),
                             requires_grad=k not in frozen)
                for k in STEP_INPUTS}

    @staticmethod
    def run(t, reverse=False):
        return lstm(t["x"], t["wx"], t["wh"], t["b"], reverse=reverse,
                    h0=t["h"], c0=t["c"])

    @pytest.mark.parametrize("frozen", [None] + list(STEP_INPUTS))
    def test_gradcheck_with_each_input_frozen(self, frozen):
        """B = 3 sequences of T = 4 steps, forward and reverse."""
        t = self.inputs(20, frozen=(frozen,), rows=3, steps=4)
        proj = np.random.default_rng(21).normal(size=(3, 4, 2 * H))
        for reverse in (False, True):
            check_gradients(lambda: scalarize(self.run(t, reverse), proj),
                            [t[k] for k in STEP_INPUTS if k != frozen])
            if frozen is not None:
                assert t[frozen].grad is None

    def test_all_constant_builds_no_graph(self):
        t = self.inputs(22, frozen=STEP_INPUTS, rows=3, steps=4)
        out = self.run(t)
        assert not out.requires_grad and out.parents == ()

    def test_forward_and_gradients_close_to_composition(self):
        self.check_against_composition(self.inputs(23))

    def test_gradcheck_from_states_in_output_layout(self):
        """(B, 1, H) initial states, the layout the op returns for T = 1,
        in which the AMR decoder keeps its lower layers' states: B = 3
        sequences of T = 2 steps give the values of (B, H) states, and
        each state's gradient comes back in its own shape."""
        t = self.inputs(27, rows=3, steps=2)
        flat = self.run(t).data
        for k in ("h", "c"):
            t[k] = ad.Tensor(t[k].data.reshape(3, 1, H), requires_grad=True)
        np.testing.assert_array_equal(self.run(t).data, flat)
        proj = np.random.default_rng(28).normal(size=(3, 2, 2 * H))
        check_gradients(lambda: scalarize(self.run(t), proj),
                        [t[k] for k in STEP_INPUTS])
        assert t["h"].grad.shape == t["c"].grad.shape == (3, 1, H)

    def test_rows_gradcheck(self):
        """k rows advance one step as k independent recurrences (a
        decoder beam)."""
        t = self.inputs(25, rows=3)
        proj = np.random.default_rng(26).normal(size=(3, 1, 2 * H))
        check_gradients(lambda: scalarize(self.run(t), proj),
                        [t[k] for k in STEP_INPUTS])

    def test_rows_forward_and_gradients_close_to_composition(self):
        self.check_against_composition(self.inputs(27, rows=3))

    @pytest.mark.parametrize("reverse", [False, True])
    def test_sequences_forward_and_gradients_close_to_composition(self, reverse):
        self.check_against_composition(self.inputs(28, rows=3, steps=4), reverse)

    def test_one_sequence_is_the_two_dimensional_case(self):
        t = self.inputs(29, steps=5)
        batched = self.run(t, reverse=True)
        x2 = ad.Tensor(t["x"].data[0])
        one = lstm(x2, t["wx"], t["wh"], t["b"], reverse=True, h0=t["h"], c0=t["c"])
        assert one.shape == (5, 2 * H)
        assert one.data.tobytes() == batched.data[0].tobytes()

    def check_against_composition(self, t, reverse=False):
        args = [t[k] for k in STEP_INPUTS]
        proj = np.random.default_rng(24).normal(size=t["x"].shape[:2] + (2 * H,))
        out = self.run(t, reverse)
        ref = composed(*args, reverse=reverse)
        assert_forward_close(out.data, ref.data)
        ad.reduce_sum(ad.mul(out, proj)).backward()
        fused = [a.grad.copy() for a in args]
        for a in args:
            a.zero_grad()
        ad.reduce_sum(ad.mul(ref, proj)).backward()
        assert_grads_close(fused, [a.grad for a in args])


class TestSaturatedGates:
    """Pre-activations of 20-40 in size, where ½·tanh(z/2) + ½ and the
    composition's sigmoid differ most in relative terms: B = 3 sequences
    of T = 4 steps, with and without an initial state."""

    @staticmethod
    def inputs(seed, start):
        rng = np.random.default_rng(seed)
        x = ad.Tensor(rng.normal(size=(3, 4, D)), requires_grad=True)
        wx, wh = (ad.Tensor(rng.uniform(-0.1, 0.1, size=(n, 4 * H)), requires_grad=True)
                  for n in (D, H))
        sizes = rng.uniform(20.0, 40.0, size=4 * H)
        b = ad.Tensor(rng.choice([-1.0, 1.0], size=4 * H) * sizes, requires_grad=True)
        init = ([ad.Tensor(rng.uniform(-1.0, 1.0, size=(3, H)), requires_grad=True)
                 for _ in range(2)] if start else [])
        return [x, wx, wh, b] + init

    @pytest.mark.parametrize("start", [False, True])
    @pytest.mark.parametrize("reverse", [False, True])
    def test_gradcheck(self, reverse, start):
        leaves = self.inputs(40 + 2 * reverse + start, start)
        proj = np.random.default_rng(41).normal(size=(3, 4, 2 * H))
        check_gradients(lambda: scalarize(self.run(leaves, reverse), proj), leaves)

    @pytest.mark.parametrize("start", [False, True])
    @pytest.mark.parametrize("reverse", [False, True])
    def test_forward_close_to_composition(self, reverse, start):
        leaves = self.inputs(50 + 2 * reverse + start, start)
        x, wx, wh, b = leaves[:4]
        state = leaves[4:] or [ad.Tensor(np.zeros((3, H)))] * 2
        ref = composed(x, *state, wx, wh, b, reverse=reverse)
        assert_forward_close(self.run(leaves, reverse).data, ref.data)

    @staticmethod
    def run(leaves, reverse):
        init = dict(zip(("h0", "c0"), leaves[4:]))
        return lstm(*leaves[:4], reverse=reverse, **init)


# per gate: the gates saturated to exactly 1 (pre-activation 40) and the
# initial cell state, so that c' = i, f or g and h' = o·tanh(1); the
# pre-activations left at 0 give g = 0 where f is read
ISOLATE = {"i": ("g", 0.0), "f": ("i", 1.0), "g": ("i", 0.0), "o": ("ig", 0.0)}


def gate_values(gate, z):
    """The kernel's value of one gate on the pre-activations ``z`` (k,
    H), read off a one-step run from a zero hidden state through
    identity input weights."""
    k, hsz = z.shape
    col = {g: slice(j * hsz, (j + 1) * hsz) for j, g in enumerate("ifgo")}
    saturated, cell = ISOLATE[gate]
    pre = np.zeros((k, 4 * hsz))
    for other in saturated:
        pre[:, col[other]] = 40.0
    pre[:, col[gate]] = z
    out = ad.lstm_sequence(pre[:, None], np.eye(4 * hsz), np.zeros((hsz, 4 * hsz)),
                           np.zeros(4 * hsz), h0=np.zeros((k, hsz)),
                           c0=np.full((k, hsz), cell)).data[:, 0]
    return out[:, :hsz] if gate == "o" else out[:, hsz:]


@pytest.mark.parametrize("k", [1, 5])
@pytest.mark.parametrize("hsz", [1, 2, 26, 513])
def test_kernel_gates_match_sigmoid_and_tanh(hsz, k):
    """Each gate the kernel takes from its one tanh is within 1e-15 of
    ``_sigmoid`` (i, f, o) or ``np.tanh`` (g) on the same pre-activation."""
    rng = np.random.default_rng(hsz * 10 + k)
    for draw in range(12):
        scale = (0.3, 3.0, 30.0)[draw % 3]  # tails of both sigmoid branches
        z = rng.normal(scale=scale, size=(k, hsz))
        for gate in "ifgo":
            want = np.tanh(z) if gate == "g" else ad._sigmoid(z)
            if gate == "o":
                want = want * np.tanh(1.0)
            np.testing.assert_allclose(gate_values(gate, z), want, rtol=0.0, atol=1e-15)


# ---------------------------------------------------------------------------
# ragged batches: each row of a padded (B, T, D) batch its own length

class TestRaggedLengths:
    """``lengths`` runs each row of a padded batch as the sequence of its
    own length, in one direction or two, from zero or from a given
    state; the row of length 1 is a <ROOT>-only sentence."""

    LENGTHS = (5, 1, 3)

    @staticmethod
    def inputs(seed, nd, start):
        rng = np.random.default_rng(seed)
        x = ad.Tensor(rng.normal(size=(3, 5, D)), requires_grad=True)
        wx, wh, b = (w if nd == 2 else w[0] for w in zip(*(weights(rng) for _ in range(nd))))
        init = {k: ad.Tensor(rng.uniform(-1.0, 1.0, size=(3, nd * H)), requires_grad=True)
                for k in ("h0", "c0") if start}
        return x, wx, wh, b, init

    @staticmethod
    def leaves(x, wx, wh, b, init):
        return [x] + [w for ws in (wx, wh, b)
                      for w in (ws if isinstance(ws, tuple) else (ws,))] + list(init.values())

    @pytest.mark.parametrize("start", [False, True])
    @pytest.mark.parametrize("nd", [1, 2])
    def test_gradcheck(self, nd, start):
        x, wx, wh, b, init = args = self.inputs(60 + 2 * nd + start, nd, start)
        proj = np.random.default_rng(61).normal(size=(3, 5, 2 * nd * H))
        check_gradients(lambda: scalarize(
            ad.lstm_sequence(x, wx, wh, b, lengths=self.LENGTHS, **init), proj),
            self.leaves(*args))

    @pytest.mark.parametrize("start", [False, True])
    @pytest.mark.parametrize("nd", [1, 2])
    def test_each_row_is_its_own_run(self, nd, start):
        """Rows within 1e-12 of running each alone and zero past their
        length; gradients within 1e-10 of the alone runs', summed over
        the rows for the weights, and zero at the padding."""
        x, wx, wh, b, init = args = self.inputs(70 + 2 * nd + start, nd, start)
        leaves = self.leaves(*args)
        nw = len(leaves) - len(init)  # x and the weights come first
        proj = np.random.default_rng(71).normal(size=(3, 5, 2 * nd * H))
        out = ad.lstm_sequence(x, wx, wh, b, lengths=self.LENGTHS, **init)
        ad.reduce_sum(ad.mul(out, proj)).backward()
        batched = [t.grad.copy() for t in leaves]
        want = [np.zeros_like(t.data) for t in leaves]
        for k, n in enumerate(self.LENGTHS):
            for t in leaves:
                t.zero_grad()
            row = ad.Tensor(x.data[k, :n], requires_grad=True)
            state = {key: ad.Tensor(t.data[k:k + 1], requires_grad=True)
                     for key, t in init.items()}
            alone = ad.lstm_sequence(row, wx, wh, b, **state)
            assert_forward_close(out.data[k, :n], alone.data)
            assert not out.data[k, n:].any()
            ad.reduce_sum(ad.mul(alone, proj[k, :n])).backward()
            want[0][k, :n] = row.grad
            for w, t in zip(want[1:nw], leaves[1:nw]):
                w += t.grad
            for w, t in zip(want[nw:], state.values()):
                w[k] = t.grad[0]
        assert_grads_close(batched, want)

    @pytest.mark.parametrize("nd", [1, 2])
    def test_full_lengths_keep_every_bit(self, nd):
        x, wx, wh, b, init = args = self.inputs(80 + nd, nd, True)
        leaves = self.leaves(*args)
        proj = np.random.default_rng(81).normal(size=(3, 5, 2 * nd * H))
        runs = []
        for lengths in (None, (5, 5, 5)):
            for t in leaves:
                t.zero_grad()
            out = ad.lstm_sequence(x, wx, wh, b, lengths=lengths, **init)
            ad.reduce_sum(ad.mul(out, proj)).backward()
            runs.append([out.data.tobytes()] + [t.grad.tobytes() for t in leaves])
        assert runs[0] == runs[1]


class TestStack:
    """``ad.lstm_stack``: a unidirectional stack of L layers from a
    packed state, the upper layers' inputs scaled by masks, against L
    chained single-layer ``ad.lstm_sequence`` calls."""

    LAYERS = 3

    @classmethod
    def inputs(cls, seed, n, bsz, masked=True):
        rng = np.random.default_rng(seed)
        lead = (n,) if bsz == 1 else (bsz, n)
        x = ad.Tensor(rng.normal(size=lead + (D,)), requires_grad=True)
        layers = [weights(rng, d=D if l == 0 else H) for l in range(cls.LAYERS)]
        state = ad.Tensor(rng.uniform(-1.0, 1.0, size=(bsz, 2 * cls.LAYERS * H)),
                          requires_grad=True)
        masks = (rng.random(lead + (cls.LAYERS - 1, H)) >= 0.3) / 0.7 if masked else None
        proj = rng.normal(size=lead + (2 * cls.LAYERS * H,))
        return x, layers, state, masks, proj

    @staticmethod
    def stacked(x, layers, state, masks):
        return ad.lstm_stack(x, *(list(w) for w in zip(*layers)), state=state, masks=masks)

    @staticmethod
    def chained(x, layers, state, masks):
        return chained_layers(ad.lstm_sequence, x, *(list(w) for w in zip(*layers)),
                              state=state, masks=masks)

    def leaves(self, x, layers, state):
        return [x, *(w for layer in layers for w in layer), state]

    @pytest.mark.parametrize("bsz", [1, 3])
    @pytest.mark.parametrize("n", [1, 4])
    def test_gradcheck(self, n, bsz):
        x, layers, state, masks, proj = self.inputs(200 + n + 10 * bsz, n, bsz)
        stack = [list(w) for w in zip(*layers)]
        check_gradients(lambda: scalarize(ad.lstm_stack(x, *stack, state=state, masks=masks),
                                          proj),
                        self.leaves(x, layers, state))

    @pytest.mark.parametrize("masked", [False, True])
    @pytest.mark.parametrize("bsz", [1, 3])
    @pytest.mark.parametrize("n", [1, 5])
    def test_forward_is_chained_calls_bit_for_bit(self, n, bsz, masked):
        x, layers, state, masks, _ = self.inputs(220 + n + 10 * bsz, n, bsz, masked)
        got = self.stacked(x, layers, state, masks)
        want = self.chained(x, layers, state, masks)
        assert got.shape == want.shape
        assert got.data.tobytes() == want.data.tobytes()

    @pytest.mark.parametrize("masked", [False, True])
    @pytest.mark.parametrize("bsz", [1, 3])
    @pytest.mark.parametrize("n", [1, 5])
    def test_gradients_match_chained_calls(self, n, bsz, masked):
        x, layers, state, masks, proj = self.inputs(240 + n + 10 * bsz, n, bsz, masked)
        leaves = self.leaves(x, layers, state)
        runs = []
        for run in (self.stacked, self.chained):
            for t in leaves:
                t.zero_grad()
            ad.reduce_sum(ad.mul(run(x, layers, state, masks), proj)).backward()
            runs.append([t.grad.copy() for t in leaves])
        assert_grads_close(*runs)

    def test_only_the_top_layer_read(self):
        """Each lower layer's gradient comes from the layer above alone,
        as when a decoder reads only the top layer's h."""
        x, layers, state, masks, proj = self.inputs(260, 6, 1)
        leaves = self.leaves(x, layers, state)
        runs = []
        for run in (self.stacked, self.chained):
            for t in leaves:
                t.zero_grad()
            top = ad.split(run(x, layers, state, masks), [2 * H, H, 3 * H], axis=-1)[1]
            ad.reduce_sum(ad.mul(top, proj[:, :H])).backward()
            runs.append([t.grad.copy() for t in leaves])
        assert_grads_close(*runs)

    def test_a_stack_and_a_layer_refuse_each_others_weights(self):
        """The form is chosen by the function called, never by the
        container: a stack needs equal lists of per-layer weights, and
        ``lstm_sequence`` refuses such lists."""
        x, layers, state, masks, _ = self.inputs(280, 4, 3)
        stacked = [list(w) for w in zip(*layers)]
        with pytest.raises(ValueError):
            ad.lstm_sequence(x, *stacked)
        with pytest.raises(ValueError):
            ad.lstm_stack(x, *layers[0], state=state)
        with pytest.raises(ValueError):
            ad.lstm_stack(x, stacked[0], stacked[1][:2], stacked[2], state=state)
        with pytest.raises(ValueError):
            ad.lstm_stack(x, [], [], [], state=state)


# ---------------------------------------------------------------------------
# a whole multitask model: the fused op against the composed oracle

def chained_layers(single, x, wx, wh, b, state, masks=None):
    """A stack of layers as one ``single`` call per layer (the signature
    of ``ad.lstm_sequence``), each from its part of the packed ``state``
    and each upper layer's input multiplied by its mask, as rows ``[h_0 |
    … | h_{L-1} | c_0 | … | c_{L-1}]``."""
    hsz, n = ad.as_tensor(wh[0]).shape[0], len(wx)
    init = ad.split(state, [hsz] * (2 * n), axis=-1)
    cur, hs, cs = x, [], []
    for l in range(n):
        if l and masks is not None:
            cur = ad.mul(cur, masks[..., l - 1, :])
        out = single(cur, wx[l], wh[l], b[l], h0=init[l], c0=init[n + l])
        cur, c = ad.split(out, [hsz, hsz], axis=-1)
        hs.append(cur)
        cs.append(c)
    return ad.concat(hs + cs, axis=-1)


def composed_op(x, wx, wh, b, h0=None, c0=None, lengths=None):
    """``ad.lstm_sequence`` composed from elementary ops, on the calls a
    model's training makes: a biLSTM layer's (T, D) rows, or one
    direction from a given state or zero."""
    assert lengths is None  # a training sentence is a batch of one
    if isinstance(wx, tuple):
        return reference_bilstm(ad.as_tensor(x), *zip(wx, wh, b))
    x = ad.as_tensor(x)
    xs = x if x.data.ndim == 3 else ad.reshape(x, (1,) + x.shape)
    state = (xs.shape[0], wh.shape[0])
    if h0 is None:
        h0 = c0 = np.zeros(state)
    out = composed(xs, ad.reshape(h0, state), ad.reshape(c0, state), wx, wh, b)
    return out if x.data.ndim == 3 else ad.reshape(out, out.shape[1:])


@pytest.fixture(scope="module")
def tiny_model():
    corpus = datagen.build_corpus(n=6, seed=7)
    fws = ("dm", "psd", "ucca", "amr")
    split = T.DataSplit(train={fw: corpus.sentences for fw in fws},
                        val_i={}, val_ii={})
    cfg = replace(multitask_config(), scale=0.02, seed=5).scaled()
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        model = T.MultiModel.derive(cfg, split, corpus.static, corpus.contextual)
        prep = T.prepare_sentences(model, corpus.sentences[:1], fws)[0]
    assert set(prep.targets) == set(fws)
    return model, prep


def _terms_and_grads(model, prep):
    params = model.params.tensors()
    for p in params:
        p.zero_grad()
    terms = T.framework_terms(model, prep, ("dm", "psd", "ucca", "amr"),
                              np.random.default_rng(9))
    total = None
    for t in terms.values():
        total = t if total is None else ad.add(total, t)
    total.backward()
    losses = {k: v.data.copy() for k, v in terms.items()}
    return losses, [None if p.grad is None else p.grad.copy() for p in params]


def test_framework_terms_match_composed_cells(tiny_model, monkeypatch):
    model, prep = tiny_model
    fused_losses, fused_grads = _terms_and_grads(model, prep)
    monkeypatch.setattr(ad, "lstm_sequence", composed_op)
    monkeypatch.setattr(ad, "lstm_stack", lambda x, *weights, **init:
                        chained_layers(composed_op, x, *weights, **init))
    ref_losses, ref_grads = _terms_and_grads(model, prep)
    assert {k for k in fused_losses if k.startswith(("ucca.", "amr."))}
    assert fused_losses.keys() == ref_losses.keys()
    for k in fused_losses:
        np.testing.assert_allclose(fused_losses[k], ref_losses[k], rtol=0.0,
                                   atol=FORWARD_ATOL, err_msg=k)
    names = list(model.params.state_dict())
    for name, got, want in zip(names, fused_grads, ref_grads):
        assert (got is None) == (want is None), name
        if got is not None:
            scale = max(1.0, float(np.abs(want).max()))
            assert float(np.abs(got - want).max()) <= GRAD_RTOL * scale, name
