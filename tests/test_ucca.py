import numpy as np
import pytest

import mrparse.autodiff as ad
import mrparse.ucca as ucca
from mrparse.config import TrainConfig, single_config
from mrparse.encoder import BiLstm, EncoderOutput
from mrparse.graphs import Anchor, MrpEdge, MrpGraph, MrpNode, TokenRow, validate_graph
from mrparse.training import multitask_loss

from conftest import (reference_node_states, reference_pointer_decode,
                      reference_pointer_loss, spy,
                      ucca_slot_of_node)


def toks(words):
    rows = []
    pos = 0
    for i, w in enumerate(words):
        rows.append(TokenRow(i, w, w, "X", "X", "O", Anchor(pos, pos + len(w))))
        pos += len(w) + 1
    return rows


def term(nid, tokens, lo, hi):
    # terminal anchored over tokens lo..hi inclusive
    return MrpNode(nid, anchors=(Anchor(tokens[lo].anchor.start,
                                        tokens[hi].anchor.end),))


def ugraph(nodes, edges, tops, tokens, gid="u0"):
    return MrpGraph(id=gid, flavor=1, framework="ucca",
                    input=" ".join(t.surface for t in tokens),
                    tops=tuple(tops), nodes=tuple(nodes), edges=tuple(edges))


def gave_example():
    # two non-terminals: the outer one points at the first token, the
    # inner one at the start of its three-token span
    tokens = toks(["John", "gave", "everything", "up"])
    nodes = [MrpNode(0), term(1, tokens, 0, 0), MrpNode(2),
             term(3, tokens, 1, 1), term(4, tokens, 2, 2), term(5, tokens, 3, 3)]
    edges = [MrpEdge(0, 1, "A"), MrpEdge(0, 2, "P"), MrpEdge(2, 3, "C"),
             MrpEdge(2, 4, "A"), MrpEdge(2, 5, "C")]
    return ugraph(nodes, edges, (0,), tokens), tokens


class TestSerialize:
    def test_two_nonterminal_example_order(self):
        g, tokens = gave_example()
        ser = ucca.serialize_ucca(g, tokens)
        assert ser.pointers == (1, 2, 0)
        assert ucca.build_slots(ser.pointers, len(tokens)) == [
            ("root",), ("nt", 0), ("tok", 0), ("nt", 1), ("tok", 1), ("tok", 2),
            ("tok", 3)]

    def test_no_nonterminals_is_bare_terminator(self):
        tokens = toks(["hi"])
        g = ugraph([term(0, tokens, 0, 0)], [], (0,), tokens)
        ser = ucca.serialize_ucca(g, tokens)
        assert ser.pointers == (0,)
        assert ucca.build_slots(ser.pointers, len(tokens)) == [("root",), ("tok", 0)]

    def test_compound_emits_ct_fan(self):
        words = ["no", "feathers", "in", "stock", "!", "!", "!", "!"]
        tokens = toks(words)
        nodes = [MrpNode(0)] + [term(i + 1, tokens, i, i) for i in range(4)]
        nodes.append(term(5, tokens, 4, 7))  # the !!!! compound
        edges = [MrpEdge(0, i, "U" if i == 5 else "C") for i in range(1, 6)]
        g = ugraph(nodes, edges, (0,), tokens)
        ser = ucca.serialize_ucca(g, tokens)
        ct = [(i, j) for i, j, lab in ser.edges if lab == ucca.CT_LABEL]
        slots = ucca.build_slots(ser.pointers, len(tokens))
        head = slots.index(("tok", 4))
        assert ct == [(head, slots.index(("tok", k))) for k in (5, 6, 7)]
        assert len([n for n in g.nodes if n.anchors]) == 5

    def test_single_token_terminal_no_ct(self):
        g, tokens = gave_example()
        ser = ucca.serialize_ucca(g, tokens)
        assert all(lab != ucca.CT_LABEL for _, _, lab in ser.edges)

    def test_shared_start_parent_precedes_child(self):
        tokens = toks(["a", "b", "c"])
        nodes = [MrpNode(0), MrpNode(1), term(2, tokens, 0, 0),
                 term(3, tokens, 1, 1), term(4, tokens, 2, 2)]
        edges = [MrpEdge(0, 1, "H"), MrpEdge(1, 2, "C"), MrpEdge(1, 3, "C"),
                 MrpEdge(0, 4, "U")]
        g = ugraph(nodes, edges, (0,), tokens)
        ser = ucca.serialize_ucca(g, tokens)
        assert ser.pointers == (1, 1, 0)
        smap = ucca_slot_of_node(g, ser)
        assert smap[0] < smap[1] < ucca.build_slots(ser.pointers, 3).index(("tok", 0))

    def test_misaligned_anchor_is_discrepant(self):
        tokens = toks(["John", "ran"])
        nodes = [MrpNode(0), MrpNode(1, anchors=(Anchor(0, 2),)),  # splits "John"
                 term(2, tokens, 1, 1)]
        edges = [MrpEdge(0, 1, "A"), MrpEdge(0, 2, "P")]
        assert ucca.serialize_ucca(ugraph(nodes, edges, (0,), tokens), tokens) is None

    def test_reentrant_primary_is_discrepant(self):
        tokens = toks(["a", "b"])
        nodes = [MrpNode(0), MrpNode(1), term(2, tokens, 0, 0), term(3, tokens, 1, 1)]
        edges = [MrpEdge(0, 1, "H"), MrpEdge(0, 2, "A"), MrpEdge(1, 2, "A"),
                 MrpEdge(1, 3, "C")]
        assert ucca.serialize_ucca(ugraph(nodes, edges, (0,), tokens), tokens) is None

    def test_remote_edges_do_not_break_tree(self):
        g, tokens = gave_example()
        edges = g.edges + (MrpEdge(2, 1, None, attributes=(("remote", True),)),)
        g = MrpGraph(id=g.id, flavor=1, framework="ucca", input=g.input, tops=g.tops,
                     nodes=g.nodes, edges=edges)
        ser = ucca.serialize_ucca(g, tokens)
        assert ser is not None
        smap = ucca_slot_of_node(g, ser)
        assert ser.remotes == ((smap[2], smap[1]),)

    def test_pointer_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            ucca.build_slots((5, 0), 3)


def expected_after_round_trip(g, ser):
    """Gold graph with ids renumbered to slot order, as deserialize emits."""
    smap = ucca_slot_of_node(g, ser)
    kept = sorted(smap.values())
    rank = {s: k for k, s in enumerate(kept)}
    m = {nid: rank[s] for nid, s in smap.items()}
    nodes = set()
    for n in g.nodes:
        nodes.add((m[n.id], n.anchors))
    edges = set()
    for e in g.edges:
        if ucca.is_remote(e):
            edges.add((m[e.source], m[e.target], None, (("remote", True),)))
        else:
            edges.add((m[e.source], m[e.target], e.label, ()))
    return nodes, edges, {m[t] for t in g.tops}


def graph_parts(g):
    nodes = {(n.id, n.anchors) for n in g.nodes}
    edges = {(e.source, e.target, e.label, e.attributes) for e in g.edges}
    return nodes, edges, set(g.tops)


def assert_round_trip(g, tokens):
    ser = ucca.serialize_ucca(g, tokens)
    assert ser is not None
    out = ucca.deserialize_ucca(ser.pointers, ser.edges, ser.tops, ser.remotes,
                                tokens, g.input, g.id)
    validate_graph(out)
    assert graph_parts(out) == expected_after_round_trip(g, ser)


class TestRoundTrip:
    def test_paper_example(self):
        g, tokens = gave_example()
        assert_round_trip(g, tokens)

    def test_ct_merge_restores_compound(self):
        words = ["no", "feathers", "in", "stock", "!", "!", "!", "!"]
        tokens = toks(words)
        nodes = [MrpNode(0)] + [term(i + 1, tokens, i, i) for i in range(4)]
        nodes.append(term(5, tokens, 4, 7))
        edges = [MrpEdge(0, i, "C") for i in range(1, 6)]
        g = ugraph(nodes, edges, (0,), tokens)
        ser = ucca.serialize_ucca(g, tokens)
        out = ucca.deserialize_ucca(ser.pointers, ser.edges, ser.tops, ser.remotes,
                                    tokens, g.input, g.id)
        compound = [n for n in out.nodes
                    if n.anchors and n.anchors[0].start == tokens[4].anchor.start]
        assert len(compound) == 1
        assert compound[0].anchors[0] == Anchor(tokens[4].anchor.start,
                                                tokens[7].anchor.end)
        assert len([n for n in out.nodes if n.anchors]) == 5

    def test_many_random_graphs(self):
        rng = np.random.default_rng(2019)
        names = ["no", "feathers", "in", "stock", "today", "sir", "!", "really",
                 "none", "at", "all", "sorry"]
        for k in range(150):
            n = int(rng.integers(1, 13))
            tokens = toks([names[i % len(names)] for i in range(n)])
            g = ucca.sample_graph(rng, tokens, gid=f"rt{k}")
            assert_round_trip(g, tokens)


class TestPositionalEncoding:
    def test_first_row_alternates_zero_one(self):
        pe = ucca.sinusoidal_positions(4, 6)
        np.testing.assert_allclose(pe[0], [0, 1, 0, 1, 0, 1], atol=1e-12)

    def test_bounded_and_distinct(self):
        pe = ucca.sinusoidal_positions(50, 16)
        assert np.all(np.abs(pe) <= 1.0)
        assert len({tuple(np.round(r, 9)) for r in pe}) == 50

    def test_shared_read_only_and_equal_to_the_formula(self):
        pe = ucca.sinusoidal_positions(7, 6)
        assert ucca.sinusoidal_positions(7, 6) is pe
        assert not pe.flags.writeable
        with pytest.raises(ValueError):
            pe[0, 0] = 1.0
        assert pe.tobytes() == ucca.sinusoidal_positions.__wrapped__(7, 6).tobytes()
        for p in range(7):
            for i in range(6):
                angle = p / 10000.0 ** (2 * (i // 2) / 6)
                want = np.sin(angle) if i % 2 == 0 else np.cos(angle)
                assert pe[p, i] == pytest.approx(want, rel=0.0, abs=1e-15)


def fake_encoder_output(rng, n_pos, hidden, requires_grad=False):
    """One layer of random top states, and random final states in the
    rows of its biLSTM output that hold them: the forward direction's at
    the last position, the backward one's at <ROOT>; zero elsewhere."""
    states = ad.Tensor(rng.normal(size=(n_pos, 2 * hidden)), requires_grad=requires_grad)
    h_fwd, c_fwd, h_bwd, c_bwd = (rng.normal(size=hidden) for _ in range(4))
    out = np.zeros((n_pos, 4, hidden))
    out[-1, 0], out[0, 1], out[-1, 2], out[0, 3] = h_fwd, h_bwd, c_fwd, c_bwd
    out = ad.Tensor(out.reshape(n_pos, 4 * hidden), requires_grad=requires_grad)
    return EncoderOutput(layers=[states], lstm_out=[out])


def make_decoder(hidden, seed=0, att_dim=ucca.ATT_DIM, bullet_dim=ucca.BULLET_DIM):
    params = ad.ParamSet()
    rng = np.random.default_rng(seed)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(ucca, "ATT_DIM", att_dim)
        mp.setattr(ucca, "BULLET_DIM", bullet_dim)
        dec = ucca.UccaDecoder(params, "dec", hidden, 1, rng)
    return dec, params


class TestPointerDecoder:
    def test_attention_rows_are_distributions(self):
        rng = np.random.default_rng(1)
        enc = fake_encoder_output(rng, 5, 4)
        dec, _ = make_decoder(4)
        out = ucca.pointer_decode(enc, dec, gold_pointers=(2, 1, 0))
        probs = ad.softmax(out.logits, axis=-1).data
        assert probs.shape == (3, 5)
        np.testing.assert_allclose(probs.sum(axis=1), 1.0, atol=1e-12)

    def test_teacher_forcing_feeds_gold_positions(self):
        rng = np.random.default_rng(2)
        enc = fake_encoder_output(rng, 6, 4)
        dec, _ = make_decoder(4)
        gold = (3, 5, 2, 0)
        out = ucca.pointer_decode(enc, dec, gold_pointers=gold)
        assert out.pointers == gold
        # step t reads the <ROOT> state, then gold pointer t - 1
        fed = ad.rows(enc.top, (0,) + gold[:-1])
        h, c = dec.init_state(enc)
        hs, _ = dec.cell.sequence(fed, h0=h, c0=c)
        want = dec.attend(hs, dec.keys(enc.top))
        assert out.logits.data.tobytes() == want.data.tobytes()

    def test_free_running_terminates_in_range(self):
        rng = np.random.default_rng(3)
        enc = fake_encoder_output(rng, 5, 4)
        dec, _ = make_decoder(4)
        out = ucca.pointer_decode(enc, dec)
        assert all(0 <= p <= 4 for p in out.pointers)
        if not out.truncated:
            assert out.pointers[-1] == 0

    def test_cap_truncates_with_flag(self):
        class Stubborn(ucca.UccaDecoder):
            def attend(self, h_dec, states):
                row = np.full((1, states.shape[0]), -5.0)
                row[0, 1] = 5.0
                return ad.Tensor(row)

        rng = np.random.default_rng(4)
        enc = fake_encoder_output(rng, 5, 4)
        params = ad.ParamSet()
        dec = Stubborn(params, "d", 4, 1, np.random.default_rng(0))
        out = ucca.pointer_decode(enc, dec)
        assert out.truncated and len(out.pointers) == 8  # 2 * 4 tokens

    def test_gradients_flow_through_decoder(self, gradcheck):
        rng = np.random.default_rng(5)
        enc = fake_encoder_output(rng, 4, 3, requires_grad=True)
        dec, params = make_decoder(3, att_dim=4, bullet_dim=3)
        leaves = [enc.layers[0], enc.lstm_out[0], dec.cell.wx, dec.cell.wh, dec.cell.b,
                  dec.w_dec, dec.w_enc, dec.v]

        def build():
            out = ucca.pointer_decode(enc, dec, gold_pointers=(2, 1, 0))
            return ad.cross_entropy_logits(out.logits, (2, 1, 0))

        gradcheck(build, leaves)

    @pytest.mark.parametrize("gold", [(0,), (3, 5, 2, 0), (1, 1, 4, 2, 5, 3, 0)])
    def test_teacher_forcing_matches_per_step_reference(self, gold):
        """One sequence op and one (T, n) attention give the loss and
        every gradient of one step and one row per pointer, to 1e-10."""
        rng = np.random.default_rng(8)
        enc = fake_encoder_output(rng, 6, 4, requires_grad=True)
        dec, params = make_decoder(4, seed=9)
        leaves = params.tensors() + [enc.layers[0], enc.lstm_out[0]]
        runs = []
        for run in ("batched", "reference"):
            for t in leaves:
                t.zero_grad()
            if run == "batched":
                out = ucca.pointer_decode(enc, dec, gold_pointers=gold)
                loss = ad.cross_entropy_logits(out.logits, gold)
            else:
                _, rows, _ = reference_pointer_decode(enc, dec, gold_pointers=gold)
                loss = reference_pointer_loss(rows, gold)
            loss.backward()
            runs.append((loss.data.item(), [np.zeros_like(t.data) if t.grad is None
                                       else t.grad for t in leaves]))
        (got, got_grads), (want, want_grads) = runs
        assert got == pytest.approx(want, rel=1e-10, abs=0.0)
        for g, w in zip(got_grads, want_grads):
            scale = max(1.0, float(np.abs(w).max()))
            assert float(np.abs(g - w).max()) <= 1e-10 * scale

    @pytest.mark.parametrize("seed", range(4))
    def test_free_running_bitwise_equals_per_step_reference(self, seed):
        """Keys projected once per sentence: the same product on the same
        arrays, so pointers and scores are those of the per-step run."""
        rng = np.random.default_rng(20 + seed)
        enc = fake_encoder_output(rng, 5 + seed, 4)
        dec, _ = make_decoder(4, seed=seed)
        with ad.no_grad():
            out = ucca.pointer_decode(enc, dec)
            pointers, rows, truncated = reference_pointer_decode(enc, dec)
        assert out.pointers == pointers and out.truncated == truncated
        assert out.logits.data.tobytes() == ad.concat(rows, axis=0).data.tobytes()

    def test_overfit_reproduces_gold_sequence(self):
        rng = np.random.default_rng(6)
        enc = fake_encoder_output(rng, 5, 5)
        dec, params = make_decoder(5, seed=7)
        gold = (2, 1, 3, 0)
        opt = ad.Adam(params.tensors(), lr=0.02)
        for _ in range(250):
            opt.zero_grad()
            out = ucca.pointer_decode(enc, dec, gold_pointers=gold)
            ad.cross_entropy_logits(out.logits, gold).backward()
            opt.step()
        free = ucca.pointer_decode(enc, dec)
        assert free.pointers == gold and not free.truncated


class RecordingBiLstm:
    """The extra biLSTM, keeping the interleaved slot rows it is run on
    (its input without the positional columns)."""

    def __init__(self, lstm, width):
        self.lstm, self.width, self.inputs = lstm, width, []

    def run(self, rows, rng=None):
        self.inputs.append(rows.data[:, :self.width])
        return self.lstm.run(rows, rng)


class TestNodeStates:
    def make_parts(self, hidden=4, extra_hidden=3, seed=0):
        params = ad.ParamSet()
        rng = np.random.default_rng(seed)
        dec = ucca.UccaDecoder(params, "dec", hidden, 1, rng)
        extra = BiLstm(params, "extra", 2 * hidden + ucca.PE_DIM, extra_hidden, 1, rng)
        return dec, RecordingBiLstm(extra, 2 * hidden), params

    def test_no_pointers_keeps_token_order(self):
        rng = np.random.default_rng(1)
        enc = fake_encoder_output(rng, 4, 4)
        dec, extra, _ = self.make_parts()
        ucca.build_node_states(enc, (0,), dec, extra)
        np.testing.assert_array_equal(extra.inputs[0], enc.top.data)

    def test_example_has_seven_states(self):
        rng = np.random.default_rng(2)
        enc = fake_encoder_output(rng, 5, 4)  # ROOT + 4 tokens
        dec, extra, _ = self.make_parts()
        states = ucca.build_node_states(enc, (1, 2, 0), dec, extra)
        assert extra.inputs[0].shape[0] == 7
        assert states.shape == (7, 6)  # 2 * extra hidden

    def test_pointer_rows_identical_before_positions_only(self):
        rng = np.random.default_rng(3)
        enc = fake_encoder_output(rng, 5, 4)
        dec, extra, _ = self.make_parts()
        states = ucca.build_node_states(enc, (1, 2, 0), dec, extra)
        slots = ucca.build_slots((1, 2, 0), 4)
        nt_rows = [i for i, s in enumerate(slots) if s[0] == "nt"]
        a, b = nt_rows
        np.testing.assert_array_equal(extra.inputs[0][a], extra.inputs[0][b])
        assert not np.array_equal(states.data[a], states.data[b])


def pinned_encoder_output(rng, n_pos, hidden, dec, position):
    """``fake_encoder_output`` whose key at ``position`` saturates every
    tanh toward the sign of ``dec.v``: that position scores highest at
    every step, whatever the decoder state."""
    enc = fake_encoder_output(rng, n_pos, hidden)
    target = 50.0 * np.sign(dec.v.data[:, 0])
    enc.top.data[position] = np.linalg.lstsq(dec.w_enc.data.T, target, rcond=None)[0]
    return enc


class TestLockstep:
    """A batch decodes in lockstep, each row as it decodes alone: one
    LSTM call per step over the live rows, each row retiring on <ROOT> or
    at its own cap, and one extra-biLSTM run for all the slot states."""

    def parts(self):
        dec, params = make_decoder(4, seed=3, att_dim=4)
        rng = np.random.default_rng(30)
        encs = [pinned_encoder_output(rng, 6, 4, dec, 0),  # <ROOT> at step 1
                pinned_encoder_output(rng, 5, 4, dec, 3),  # token 3 up to its cap, 8
                fake_encoder_output(rng, 1, 4),            # <ROOT> only: cap 1
                fake_encoder_output(rng, 7, 4)]            # as it decodes alone
        extra = BiLstm(params, "extra", 8 + ucca.PE_DIM, 3, 1, np.random.default_rng(1))
        return dec, extra, encs

    def test_each_row_is_its_lone_decode(self, monkeypatch):
        dec, _, encs = self.parts()
        with ad.no_grad():
            alone = [ucca.pointer_decode(e, dec) for e in encs]
            calls = spy(monkeypatch, ad, "lstm_sequence")
            batch = ucca.pointer_decode_batch(encs, dec)
        assert [(d.pointers, d.truncated) for d in alone[:3]] == [
            ((0,), False), ((3,) * 8, True), ((0,), False)]
        steps = [len(d.pointers) for d in alone]
        assert len(set(steps)) == 3 and len(calls) == max(steps) < sum(steps)
        for got, want in zip(batch, alone):
            assert (got.pointers, got.truncated) == (want.pointers, want.truncated)
            assert got.logits.shape == want.logits.shape
            np.testing.assert_allclose(got.logits.data, want.logits.data, rtol=0.0, atol=1e-12)

    def test_padded_positions_are_never_pointed_at(self):
        class Rightmost(ucca.UccaDecoder):
            def attend(self, h_dec, keys):  # the last position scores highest
                a = super().attend(h_dec, keys)
                return ad.Tensor(a.data + 100.0 * np.arange(a.shape[1]))

        dec = Rightmost(ad.ParamSet(), "d", 4, 1, np.random.default_rng(0))
        rng = np.random.default_rng(31)
        encs = [fake_encoder_output(rng, n, 4) for n in (3, 6, 4)]
        with ad.no_grad():
            batch = ucca.pointer_decode_batch(encs, dec)
        assert [d.pointers for d in batch] == [(2,) * 4, (5,) * 10, (3,) * 6]

    def test_node_states_from_one_run(self, monkeypatch):
        dec, extra, encs = self.parts()
        with ad.no_grad():
            pointers = [d.pointers for d in ucca.pointer_decode_batch(encs, dec)]
            alone = [ucca.build_node_states(e, p, dec, extra) for e, p in zip(encs, pointers)]
            runs, gathers = spy(monkeypatch, BiLstm, "run"), spy(monkeypatch, ad, "rows")
            batch = ucca.node_states_batch(encs, pointers, dec, extra)
        assert len(runs) == 1
        # one gather takes every slot row from the encoder rows and the bullet
        tops = [e.top for e in encs]
        table = sum(t.shape[0] for t in tops) + 1
        assert [len(args[1]) for args in gathers if args[0].shape[0] == table] == [
            sum(s.shape[0] for s in batch)]
        assert not any(args[0] is t for args in gathers for t in tops)
        for got, want in zip(batch, alone):
            assert got.shape == want.shape
            np.testing.assert_allclose(got.data, want.data, rtol=0.0, atol=1e-12)


class TestSlotGather:
    """A lone sentence's slot rows come from one ``ad.rows`` over its
    encoder rows and the bullet, with the states and the gradients of one
    ``ad.rows`` per slot, bit for bit."""

    @pytest.mark.parametrize("pointers", [(0,), (1, 0), (1, 1, 4, 2, 5, 3, 0)])
    def test_lone_sentence_matches_per_slot_rows(self, pointers):
        dec, params = make_decoder(4, seed=40)
        rng = np.random.default_rng(40)
        extra = BiLstm(params, "extra", 8 + ucca.PE_DIM, 3, 1, rng, input_dropout=0.3)
        enc = fake_encoder_output(rng, 6, 4, requires_grad=True)
        leaves = params.tensors() + [enc.top]
        runs = []
        for build in (ucca.build_node_states, reference_node_states):
            for t in leaves:
                t.zero_grad()
            states = build(enc, pointers, dec, extra, np.random.default_rng(3))
            weights = np.random.default_rng(4).normal(size=states.shape)
            ad.reduce_sum(ad.mul(states, weights)).backward()
            runs.append([states.data] + [t.grad for t in leaves])
        got, want = runs
        # without a non-terminal, the bullet is not read and gets no gradient
        assert got[-1] is not None and (dec.r.grad is None) == (pointers == (0,))
        for a, b in zip(got, want):
            assert (a is None and b is None) or a.tobytes() == b.tobytes()


UCCA_PARTS = ("ucca.edge", "ucca.label", "ucca.remote", "ucca.dec")


def ucca_objective(cfg, values):
    """The one objective over UCCA's four terms, in UCCA_PARTS order."""
    terms = {k: ad.Tensor(v) for k, v in zip(UCCA_PARTS, values)}
    return float(multitask_loss(cfg, terms).data)


class TestLoss:
    def test_pure_pointer_objective(self):
        cfg = TrainConfig(lam_biaf=0.0, lam_remote=0.0, lam_dec_ucca=1.0)
        assert ucca_objective(cfg, (5.0, 7.0, 11.0, 1.25)) == pytest.approx(1.25)

    def test_submitted_coefficients(self):
        total = ucca_objective(single_config("ucca"), (1.0, 2.0, 3.0, 4.0))
        assert total == pytest.approx(0.3 * 1 + 0.3 * 2 + 0.2 * 3 + 0.2 * 4)

    def test_linearity_in_each_term(self):
        rng = np.random.default_rng(8)
        base = [float(x) for x in rng.uniform(0.5, 2.0, size=4)]
        cfg = single_config("ucca")
        lams = [0.3, 0.3, 0.2, 0.2]  # edge, label, remote, pointer
        f0 = ucca_objective(cfg, base)
        for k in range(4):
            bumped = list(base)
            bumped[k] += 0.25
            f1 = ucca_objective(cfg, bumped)
            assert f1 - f0 == pytest.approx(lams[k] * 0.25, abs=1e-12)


def hand_prediction(tokens, pointers, edge_cells, label_cells, remote_cells, labels):
    n = len(ucca.build_slots(pointers, len(tokens)))
    edge = np.zeros((n, n))
    for i, j in edge_cells:
        edge[i, j] = 0.9
    lab = np.zeros((n, n, len(labels)))
    lab[:, :, 0] = 1.0
    for (i, j), c in label_cells.items():
        lab[i, j] = 0.0
        lab[i, j, c] = 1.0
    rem = np.zeros((n, n))
    for i, j in remote_cells:
        rem[i, j] = 0.9
    return ucca.UccaPrediction(pointers, edge, lab, rem)


class TestDecodeGraph:
    LABELS = ["A", "C", ucca.CT_LABEL]

    def test_hand_case(self):
        tokens = toks(["a", "b"])
        # slots: root, nt0, tok0, tok1
        pred = hand_prediction(tokens, (1, 0), [(0, 1), (1, 2), (1, 3)],
                               {(1, 2): 0, (1, 3): 1}, [], self.LABELS)
        g = ucca.decode_graph(pred, self.LABELS, tokens, "a b", "g1")
        validate_graph(g)
        assert len(g.nodes) == 3 and g.tops == (0,)
        assert {(e.source, e.target, e.label) for e in g.edges} == {(0, 1, "A"), (0, 2, "C")}

    def test_remote_never_alters_primary(self):
        tokens = toks(["a", "b"])
        base = hand_prediction(tokens, (1, 0), [(0, 1), (1, 2), (1, 3)],
                               {(1, 2): 0, (1, 3): 1}, [], self.LABELS)
        with_remote = hand_prediction(tokens, (1, 0), [(0, 1), (1, 2), (1, 3)],
                                      {(1, 2): 0, (1, 3): 1}, [(1, 3)], self.LABELS)
        g0 = ucca.decode_graph(base, self.LABELS, tokens, "a b", "g")
        g1 = ucca.decode_graph(with_remote, self.LABELS, tokens, "a b", "g")
        prim = lambda g: {(e.source, e.target, e.label) for e in g.edges
                          if not ucca.is_remote(e)}
        assert prim(g0) == prim(g1)
        remotes = [e for e in g1.edges if ucca.is_remote(e)]
        assert len(remotes) == 1 and remotes[0].label is None

    def test_predicted_ct_chain_merges(self):
        tokens = toks(["no", "stock", "!"])
        # slots: root, nt0, tok0, tok1, tok2; CT merges tok1+tok2
        pred = hand_prediction(tokens, (1, 0), [(0, 1), (1, 2), (1, 3), (3, 4)],
                               {(1, 2): 0, (1, 3): 1, (3, 4): 2}, [], self.LABELS)
        g = ucca.decode_graph(pred, self.LABELS, tokens, "no stock !", "g2")
        anchored = sorted((n.anchors[0] for n in g.nodes if n.anchors),
                          key=lambda a: a.start)
        assert anchored == [Anchor(0, 2), Anchor(3, 10)]
        assert all(e.label != ucca.CT_LABEL for e in g.edges)

    def test_isolated_slot_dropped(self):
        tokens = toks(["a", "b"])
        pred = hand_prediction(tokens, (1, 0), [(0, 1), (1, 2)], {(1, 2): 0},
                               [], self.LABELS)
        g = ucca.decode_graph(pred, self.LABELS, tokens, "a b", "g3")
        assert len(g.nodes) == 2  # tok1 never attached


class TestVoting:
    def member(self, pointers, fill):
        n = len(pointers) + 2
        return ucca.UccaPrediction(pointers,
                                   np.full((n, n), fill),
                                   np.full((n, n, 2), fill),
                                   np.full((n, n), fill))

    def test_single_member_identity(self):
        m = self.member((1, 0), 0.7)
        out = ucca.voting_ensemble([m])
        assert out.pointers == m.pointers
        np.testing.assert_array_equal(out.edge_probs, m.edge_probs)

    def test_majority_then_average(self):
        a1 = self.member((1, 0), 0.6)
        a2 = self.member((1, 0), 0.8)
        b = self.member((2, 1, 0), 0.1)
        out = ucca.voting_ensemble([a1, b, a2])
        assert out.pointers == (1, 0)
        np.testing.assert_allclose(out.edge_probs, np.full_like(a1.edge_probs, 0.7))

    def test_tie_prefers_lexicographically_smaller(self):
        a = self.member((2, 0), 0.5)
        b = self.member((1, 0), 0.5)
        assert ucca.voting_ensemble([a, b]).pointers == (1, 0)

    def test_prefix_tie(self):
        a = self.member((1, 2, 0), 0.5)
        b = self.member((1, 0), 0.5)
        assert ucca.voting_ensemble([a, b]).pointers == (1, 0)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            ucca.voting_ensemble([])
