"""Vocabulary rules, embedding files, feature mixing, group dropout, biLSTM."""

from dataclasses import asdict
from types import SimpleNamespace

import numpy as np
import pytest

from mrparse import autodiff as ad
from mrparse import encoder as enc
from mrparse import graphs as G
from mrparse.config import TrainConfig

from conftest import byte_flips, reference_group_drop_mask


def mk_tokens(words, lemmas=None, upos=None, ne=None):
    lemmas = lemmas or words
    upos = upos or ["X"] * len(words)
    ne = ne or ["O"] * len(words)
    rows = []
    pos = 0
    for i, w in enumerate(words):
        rows.append(G.TokenRow(i, w, lemmas[i], upos[i], upos[i], ne[i],
                               G.Anchor(pos, pos + len(w))))
        pos += len(w) + 1
    return rows


def mk_sentence(sid, words, **kw):
    return G.Sentence(id=sid, tokens=tuple(mk_tokens(words, **kw)), graphs={})


def small_config(**kw):
    base = dict(surface_dim=6, lemma_dim=5, pos_dim=4, ne_dim=3, static_mlp=7,
                contextual_mlp=8, layers=1, hidden=9, word_drop=0.0, pos_drop=0.0,
                lemma_drop=0.0, encoder_dropout=0.0)
    base.update(kw)
    return TrainConfig(**base)


def certain_drop(e, **rates):
    """``e`` with drop rates of 1.0, which ``TrainConfig`` rejects as a
    training setting; ``_group_drop`` reads them when it runs."""
    e.config = SimpleNamespace(**{**asdict(e.config), **rates})
    return e


def mk_static(words, dim, seed=0):
    rng = np.random.default_rng(seed)
    table = {w: rng.normal(size=dim) for w in list(words) + [enc.ROOT]}
    return enc.StaticEmbeddings(table, dim, rng)


def mk_encoder(vocab, words, seed=1, ctx_layers=2, ctx_width=5, **cfg_kw):
    params = ad.ParamSet()
    config = small_config(**cfg_kw)
    static = mk_static(words, dim=4)
    rng = np.random.default_rng(seed)
    e = enc.Encoder(params, vocab, config, static, ctx_layers, ctx_width, rng)
    return e, params


class TestVocabulary:
    def corpus(self, spec):
        # spec: list of (word, count)
        sents = []
        for w, c in spec:
            for k in range(c):
                sents.append(mk_sentence(f"{w}-{k}", [w]))
        return sents

    def test_three_occurrences_is_unk(self):
        v = enc.Vocabulary.build(self.corpus([("rare", 3), ("common", 10)]))
        assert v.surface_id("rare") == v.surface[enc.UNK]

    def test_four_occurrences_is_kept(self):
        v = enc.Vocabulary.build(self.corpus([("edge", 4)]))
        assert v.surface_id("edge") not in (v.surface[enc.UNK], v.surface[enc.NUM])

    def test_numeric_maps_to_num_regardless_of_frequency(self):
        v = enc.Vocabulary.build(self.corpus([("3.14", 50), ("word", 4)]))
        assert v.surface_id("3.14") == v.surface[enc.NUM]
        assert "3.14" not in v.surface
        assert v.surface_id("7e-3") == v.surface[enc.NUM]  # unseen numeric too

    def test_surfaces_lowercased_lemmas_verbatim(self):
        sents = [mk_sentence(f"s{k}", ["The"], lemmas=["Pierre"]) for k in range(2)]
        sents += [mk_sentence(f"t{k}", ["the"], lemmas=["Pierre"]) for k in range(2)]
        v = enc.Vocabulary.build(sents)
        assert v.surface_id("The") == v.surface_id("the") != v.surface[enc.UNK]
        assert "Pierre" in v.lemma  # 4 occurrences, case preserved

    def test_pos_and_ne_kept_whole(self):
        v = enc.Vocabulary.build([mk_sentence("s", ["x"], upos=["RAREPOS"], ne=["B-GPE"])])
        assert v.pos_id("RAREPOS") != v.pos[enc.UNK]
        assert v.ne_id("B-GPE") != v.ne[enc.UNK]

    def test_empty_corpus_rejected(self):
        with pytest.raises(ValueError):
            enc.Vocabulary.build([])

    def test_json_roundtrip(self):
        v = enc.Vocabulary.build(self.corpus([("word", 5)]))
        again = enc.Vocabulary.from_json(v.to_json())
        assert again.surface == v.surface and again.pos == v.pos


class TestStaticEmbeddings:
    def test_load_and_lookup(self, tmp_path):
        path = tmp_path / "vec.txt"
        path.write_text("cat 1.0 2.0\nDog 3.0 4.0\n")
        emb = enc.StaticEmbeddings.load(path, np.random.default_rng(0))
        np.testing.assert_array_equal(emb.vector("cat"), [1.0, 2.0])
        np.testing.assert_array_equal(emb.vector("Dog"), [3.0, 4.0])
        # raw miss falls back to lower-cased lookup
        np.testing.assert_array_equal(emb.vector("CAT"), [1.0, 2.0])

    def test_unknown_word_gets_shared_unk_row(self, tmp_path):
        path = tmp_path / "vec.txt"
        path.write_text("cat 1.0 2.0\n")
        emb = enc.StaticEmbeddings.load(path, np.random.default_rng(5))
        np.testing.assert_array_equal(emb.vector("zzz"), emb.vector("qqq"))
        assert not np.allclose(emb.vector("zzz"), [1.0, 2.0])

    def test_unk_row_deterministic_by_seed(self):
        a = enc.StaticEmbeddings({"x": np.zeros(16)}, 16, np.random.default_rng(3))
        b = enc.StaticEmbeddings({"x": np.zeros(16)}, 16, np.random.default_rng(3))
        np.testing.assert_array_equal(a.vector("oov"), b.vector("oov"))

    def test_unk_row_scale(self):
        # std 1/sqrt(dim): check aggregate std over a wide row
        dim = 4096
        emb = enc.StaticEmbeddings({"x": np.zeros(dim)}, dim, np.random.default_rng(2))
        assert emb.vector("oov").std() == pytest.approx(1.0 / np.sqrt(dim), rel=0.1)

    def test_file_unk_row_wins(self):
        table = {enc.UNK: np.array([9.0, 9.0])}
        emb = enc.StaticEmbeddings(table, 2, np.random.default_rng(0))
        np.testing.assert_array_equal(emb.vector("oov"), [9.0, 9.0])

    def test_ragged_file_rejected(self, tmp_path):
        path = tmp_path / "vec.txt"
        path.write_text("a 1.0 2.0\nb 3.0\n")
        with pytest.raises(ValueError):
            enc.StaticEmbeddings.load(path, np.random.default_rng(0))


class TestContextualEmbeddings:
    def test_root_row_synthesized(self):
        arr = np.ones((2, 3, 4))
        ctx = enc.ContextualEmbeddings({"s1": arr})
        out = ctx.for_sentence("s1", 3)
        assert out.shape == (2, 4, 4)
        np.testing.assert_array_equal(out[:, 0, :], np.zeros((2, 4)))
        np.testing.assert_array_equal(out[:, 1:, :], arr)

    def test_token_count_mismatch_names_sentence(self):
        ctx = enc.ContextualEmbeddings({"s9": np.ones((2, 3, 4))})
        with pytest.raises(ValueError, match="s9"):
            ctx.for_sentence("s9", 5)

    def test_missing_sentence(self):
        ctx = enc.ContextualEmbeddings({"a": np.ones((1, 1, 1))})
        with pytest.raises(ValueError, match="zz"):
            ctx.for_sentence("zz", 1)

    def test_npz_roundtrip_with_subword_averaging(self, tmp_path):
        rng = np.random.default_rng(8)
        sub = rng.normal(size=(2, 5, 3))
        tok_index = np.array([0, 0, 1, 2, 2])
        path = tmp_path / "ctx.npz"
        np.savez(path, s1=sub, s1__tok=tok_index)
        ctx = enc.ContextualEmbeddings.load(path)
        arr = ctx.arrays["s1"]
        assert arr.shape == (2, 3, 3)
        np.testing.assert_allclose(arr[:, 0], sub[:, :2].mean(axis=1))
        np.testing.assert_allclose(arr[:, 1], sub[:, 2])
        np.testing.assert_allclose(arr[:, 2], sub[:, 3:].mean(axis=1))

    def test_kept_arrays_hold_no_view_of_the_file(self, tmp_path):
        path = tmp_path / "ctx.npz"
        np.savez(path, s1=np.ones((2, 3, 4)), s2=np.ones((2, 5, 4)),
                 s2__tok=np.array([0, 0, 1, 2, 2]),
                 s3=np.arange(24, dtype=np.int32).reshape(2, 3, 4))
        arrays = enc.ContextualEmbeddings.load(path).arrays
        assert list(arrays) == ["s1", "s2", "s3"]
        for key, arr in arrays.items():
            while isinstance(arr, np.ndarray):
                arr = arr.base
            assert arr is None, key  # not the file's buffer

    @pytest.mark.parametrize("index", [
        [0, -1, 1],          # -1 would wrap to the last token
        [0.2, 0.9, 1.5],     # would truncate to [0, 0, 1]
        [[0, 1, 2]],
        [0, 1],
        [0, 2, 2],           # token 1 has no row
        [True, False, True],
        np.array([0, 2**64 - 1, 1], dtype=np.uint64),
    ], ids=["negative", "float", "2-d", "short", "gap", "bool", "uint64"])
    def test_bad_subword_index_is_value_error_naming_path_and_key(self, tmp_path, index):
        path = tmp_path / "ctx.npz"
        np.savez(path, s1=np.ones((2, 3, 4)), s1__tok=np.array(index))
        with pytest.raises(ValueError) as err:
            enc.ContextualEmbeddings.load(path)
        assert str(err.value).startswith(f"{path}: s1__tok: "), err.value

    def test_a_member_failing_its_checksum_is_value_error_naming_path(self, tmp_path):
        path = tmp_path / "ctx.npz"
        np.savez(path, s1=np.full((2, 3, 4), 1.5))
        data = bytearray(path.read_bytes())
        data[data.index(np.float64(1.5).tobytes())] ^= 0xFF
        path.write_bytes(bytes(data))
        with pytest.raises(ValueError) as err:
            enc.ContextualEmbeddings.load(path)
        assert str(err.value) == f"{path}: not an .npz archive of arrays"

    def test_corrupted_byte_loads_the_same_or_is_value_error_naming_path(self, tmp_path):
        """Every byte of an ``np.savez`` file flipped in turn: the load
        gives the saved arrays back or a ValueError naming the file."""
        path = tmp_path / "ctx.npz"
        np.savez(path, s1=np.arange(24.0).reshape(2, 3, 4))
        want = enc.ContextualEmbeddings.load(path).arrays
        for offset, mask in byte_flips(path):
            try:
                got = enc.ContextualEmbeddings.load(path).arrays
            except ValueError as err:
                assert str(err).startswith(f"{path}: "), (offset, mask)
                continue
            assert list(got) == list(want), (offset, mask)
            assert got["s1"].tobytes() == want["s1"].tobytes(), (offset, mask)


def train_vocab_for(words):
    sents = [mk_sentence(f"s{k}", list(words)) for k in range(4)]
    return enc.Vocabulary.build(sents)


class TestMixer:
    def test_equal_scores_give_layer_mean(self):
        words = ["a", "b"]
        vocab = train_vocab_for(words)
        e, _ = mk_encoder(vocab, words, ctx_layers=3, ctx_width=4)
        arr = np.random.default_rng(0).normal(size=(3, 5, 4))
        mixed = e.mix_contextual(arr)
        np.testing.assert_allclose(mixed.data, arr.mean(axis=0), atol=1e-12)

    def test_gradient_reaches_scores_not_contents(self):
        words = ["a", "b"]
        vocab = train_vocab_for(words)
        e, _ = mk_encoder(vocab, words, ctx_layers=2, ctx_width=4)
        const = ad.Tensor(np.random.default_rng(1).normal(size=(2, 3, 4)))
        out = e.mix_contextual(const)
        ad.reduce_sum(ad.mul(out, out)).backward()
        assert const.grad is None  # truncated backpropagation
        assert e.mix_scores.grad is not None
        assert np.abs(e.mix_scores.grad).sum() > 0

    def test_mix_weights_sum_to_one_after_update(self):
        words = ["a"]
        vocab = train_vocab_for(words)
        e, params = mk_encoder(vocab, words, ctx_layers=3, ctx_width=4)
        opt = ad.Adam(params.tensors(), lr=0.01)
        arr = np.random.default_rng(2).normal(size=(3, 2, 4))
        loss = ad.reduce_sum(e.mix_contextual(arr))
        loss.backward()
        opt.step()
        tilde = np.exp(e.mix_scores.data) / np.exp(e.mix_scores.data).sum()
        assert tilde.sum() == pytest.approx(1.0)
        assert (tilde > 0).all()


class TestFeaturize:
    def setup_method(self):
        self.words = ["the", "cat", "sat"]
        self.vocab = train_vocab_for(self.words)
        self.enc, self.params = mk_encoder(self.vocab, self.words)
        self.tokens = mk_tokens(self.words)
        self.ctx = np.random.default_rng(3).normal(size=(2, 4, 5))  # includes root row

    def test_width_is_sum_of_parts(self):
        h0 = self.enc.featurize([(self.tokens, self.ctx)])
        assert h0.shape == (4, 6 + 5 + 4 + 3 + 7 + 8)

    def test_root_prepended_shifts_positions(self):
        h0_full = self.enc.featurize([(self.tokens, self.ctx)])
        root_only = self.enc.featurize([([], self.ctx[:, :1, :])])
        np.testing.assert_allclose(h0_full.data[0, :28], root_only.data[0, :28])

    def test_group_drop_identity_at_zero_probability(self):
        rng = np.random.default_rng(0)
        h0 = self.enc.featurize([(self.tokens, self.ctx)], rng=rng)
        h1 = self.enc.featurize([(self.tokens, self.ctx)])
        np.testing.assert_array_equal(h0.data, h1.data)

    def test_group_drop_probability_one_zeroes_lemma(self):
        e = certain_drop(mk_encoder(self.vocab, self.words)[0], lemma_drop=1.0)
        h0 = e.featurize([(self.tokens, self.ctx)], rng=np.random.default_rng(0))
        np.testing.assert_array_equal(h0.data[:, 6:11], 0.0)
        assert np.abs(h0.data[:, :6]).sum() > 0  # surface group untouched

    def test_group_drop_empirical_rate(self):
        # Monte-Carlo over many tokens: measured drop rate within +-0.02
        e, _ = mk_encoder(self.vocab, self.words, lemma_drop=0.3, pos_drop=0.2,
                          word_drop=0.1)
        n = 12000
        h0 = ad.Tensor(np.ones((n, e.in_dim)))
        dropped = e._group_drop(h0, np.random.default_rng(42)).data
        lemma_rate = (dropped[:, 6:11].sum(axis=1) == 0).mean()
        pos_rate = (dropped[:, 11:15].sum(axis=1) == 0).mean()
        word_rate = (dropped[:, :6].sum(axis=1) == 0).mean()
        assert abs(lemma_rate - 0.3) < 0.02
        assert abs(pos_rate - 0.2) < 0.02
        assert abs(word_rate - 0.1) < 0.02

    @pytest.mark.parametrize("rates", [(0.3, 0.2, 0.1), (0.0, 0.5, 0.0),
                                       (0.9, 0.9, 0.9)])
    def test_group_drop_is_the_per_token_loop(self, rates):
        """One (n, 3) draw gives the masks of three scalar draws per
        token and leaves the generator where the loop left it."""
        lemma, pos, word = rates
        e, _ = mk_encoder(self.vocab, self.words, lemma_drop=lemma, pos_drop=pos,
                          word_drop=word)
        h0 = ad.Tensor(np.random.default_rng(5).normal(size=(40, e.in_dim)))
        rng, ref_rng = np.random.default_rng(6), np.random.default_rng(6)
        got = e._group_drop(h0, rng).data
        want = h0.data * reference_group_drop_mask(e.config, h0.shape, ref_rng)
        assert got.tobytes() == want.tobytes()
        assert rng.random() == ref_rng.random()

    def test_word_group_covers_rest(self):
        e = certain_drop(mk_encoder(self.vocab, self.words)[0], word_drop=1.0)
        h0 = e.featurize([(self.tokens, self.ctx)], rng=np.random.default_rng(0))
        np.testing.assert_array_equal(h0.data[:, :6], 0.0)    # surface
        np.testing.assert_array_equal(h0.data[:, 15:], 0.0)   # ne + projections
        assert np.abs(h0.data[:, 6:11]).sum() > 0             # lemma survives


class TestBiLstm:
    def setup_method(self):
        self.words = ["a", "b", "c", "d"]
        self.vocab = train_vocab_for(self.words)
        self.enc, self.params = mk_encoder(self.vocab, self.words, layers=2, hidden=6)
        self.tokens = mk_tokens(self.words)
        self.ctx = np.random.default_rng(4).normal(size=(2, 5, 5))

    def test_output_shape(self):
        out = self.enc.run([(self.tokens, self.ctx)])[0]
        assert out.n_positions == 5  # 4 tokens + root
        assert out.top.shape == (5, 12)
        assert len(out.layers) == 3  # input + 2 biLSTM layers
        assert len(out.lstm_out) == 2

    def test_deterministic_without_dropout(self):
        a = self.enc.run([(self.tokens, self.ctx)])[0].top.data
        b = self.enc.run([(self.tokens, self.ctx)])[0].top.data
        np.testing.assert_array_equal(a, b)

    def test_backward_direction_sees_future(self):
        out1 = self.enc.run([(self.tokens, self.ctx)])[0].top.data
        other = mk_tokens(["a", "b", "c", "a"])
        out2 = self.enc.run([(other, self.ctx)])[0].top.data
        # changing the last token changes position 0 through the backward pass
        assert np.abs(out1[0] - out2[0]).max() > 1e-12

    def test_gradients_reach_embeddings(self):
        out = self.enc.run([(self.tokens, self.ctx)])[0]
        ad.reduce_sum(ad.mul(out.top, out.top)).backward()
        assert self.enc.surface_emb.grad is not None
        assert np.abs(self.enc.surface_emb.grad).sum() > 0
        assert self.enc.mix_scores.grad is not None

    def test_overfit_probe_separates_token_classes(self):
        # tiny binary probe: tokens 'pos'/'neg' must become linearly separable
        rng = np.random.default_rng(7)
        words = ["pos", "neg", "filler"]
        sents = [["pos", "filler", "neg"], ["neg", "pos", "filler"],
                 ["filler", "neg", "pos"], ["pos", "neg", "filler"],
                 ["neg", "filler", "pos"], ["filler", "pos", "neg"],
                 ["pos", "filler", "filler"], ["neg", "neg", "filler"]]
        vocab = train_vocab_for(words)
        params = ad.ParamSet()
        config = small_config(surface_dim=4, lemma_dim=4, pos_dim=2, ne_dim=2,
                              static_mlp=4, contextual_mlp=4, hidden=8, layers=1)
        e = enc.Encoder(params, vocab, config, mk_static(words, 4), 2, 4,
                        np.random.default_rng(11))
        head = enc.Linear(params, "probe", 16, 1, np.random.default_rng(12))
        ctxs = [rng.normal(size=(2, 4, 4)) for _ in sents]
        opt = ad.Adam(params.tensors(), lr=0.02)
        for _ in range(60):
            opt.zero_grad()
            losses = []
            for ws, ctx in zip(sents, ctxs):
                out = e.run([(mk_tokens(ws), ctx)])[0]
                logits = head(out.top)
                tgt = np.array([[0.0]] + [[1.0 if w == "pos" else 0.0] for w in ws])
                losses.append(ad.binary_cross_entropy(ad.sigmoid(logits), tgt))
            total = losses[0]
            for l in losses[1:]:
                total = ad.add(total, l)
            total.backward()
            opt.step()
        correct = 0
        total_toks = 0
        for ws, ctx in zip(sents, ctxs):
            out = e.run([(mk_tokens(ws), ctx)])[0]
            probs = ad.sigmoid(head(out.top)).data[1:, 0]
            for w, p in zip(ws, probs):
                correct += int((p > 0.5) == (w == "pos"))
                total_toks += 1
        assert correct == total_toks


class TestBatch:
    """A batch of sentences is one featurize pass and one length-masked
    call per biLSTM layer; each sentence's output is within 1e-12 of
    encoding it alone, a <ROOT>-only sentence included."""

    def setup_method(self):
        self.words = ["a", "b", "c", "d"]
        self.vocab = train_vocab_for(self.words)
        self.enc, _ = mk_encoder(self.vocab, self.words, layers=2, hidden=6)
        rng = np.random.default_rng(8)
        self.batch = [(mk_tokens(ws), rng.normal(size=(2, len(ws) + 1, 5)))
                      for ws in (["a", "b", "c", "d"], [], ["d", "a"])]

    def test_each_sentence_as_encoded_alone(self):
        for out, pair in zip(self.enc.run(self.batch), self.batch):
            [alone] = self.enc.run([pair])
            got = out.layers + out.lstm_out + [out.finals(2)]
            want = alone.layers + alone.lstm_out + [alone.finals(2)]
            for a, b in zip(got, want):
                assert a.shape == b.shape
                np.testing.assert_allclose(a.data, b.data, rtol=0.0, atol=1e-12)

    def test_one_featurize_and_one_lstm_call_per_layer(self, monkeypatch):
        calls, op, featurize = [], ad.lstm_sequence, self.enc.featurize

        def spy(x, *args, **kw):
            calls.append((x.shape, kw["lengths"]))
            return op(x, *args, **kw)

        def counted(batch, rng=None):
            calls.append(len(batch))
            return featurize(batch, rng)

        monkeypatch.setattr(ad, "lstm_sequence", spy)
        monkeypatch.setattr(self.enc, "featurize", counted)
        self.enc.run(self.batch)
        assert calls == [3] + [((3, 5, self.enc.in_dim), [5, 1, 3]),
                               ((3, 5, 12), [5, 1, 3])]

    def test_empty_batch(self):
        assert self.enc.run([]) == []


class TestNodeCount:
    """One biLSTM layer is one ``ad.lstm_sequence`` node, whose h half a
    split gives the layer: no concat, and final states only on demand."""

    def setup_method(self):
        self.words = ["a", "b", "c", "d"]
        self.vocab = train_vocab_for(self.words)
        self.tokens = mk_tokens(self.words)
        self.ctx = np.random.default_rng(4).normal(size=(2, 5, 5))

    def test_one_lstm_op_per_layer(self, monkeypatch):
        e, _ = mk_encoder(self.vocab, self.words, layers=3, hidden=6)
        calls, op = [], ad.lstm_sequence

        def spy(x, wx, wh, b, **kw):
            calls.append((wx, wh, b))
            return op(x, wx, wh, b, **kw)

        monkeypatch.setattr(ad, "lstm_sequence", spy)
        e.bilstm.run(e.featurize([(self.tokens, self.ctx)]))
        assert [tuple(map(len, c)) for c in calls] == [(2, 2, 2)] * 3
        for (wx, wh, b), (fwd, bwd) in zip(calls, e.bilstm.dirs):
            assert wx == (fwd.wx, bwd.wx) and wh == (fwd.wh, bwd.wh) and b == (fwd.b, bwd.b)

    def test_tensors_of_a_training_run(self, monkeypatch):
        """17 for featurizing (five lookups, the POS sum, the static
        vectors and their MLP, the contextual mix's five and its MLP, the
        concat, the group-drop mask and product), then per layer a
        dropout, the LSTM op and the split's two chunks."""
        e, _ = mk_encoder(self.vocab, self.words, layers=3, hidden=6,
                          encoder_dropout=0.25, word_drop=0.1)
        made, init = [], ad.Tensor.__init__

        def counting(self, *args, **kwargs):
            made.append(self)
            init(self, *args, **kwargs)

        monkeypatch.setattr(ad.Tensor, "__init__", counting)
        e.run([(self.tokens, self.ctx)], rng=np.random.default_rng(0))[0]
        assert len(made) == 17 + 3 * 4
