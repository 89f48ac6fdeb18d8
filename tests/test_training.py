"""Trainer tests: splits, loss assembly and masking, early stopping,
training loops, bundles, fine-tuning, conversion training, ensembles.

The expensive fixtures (a jointly trained model) are module-scoped and
shrunk hard: two epochs at two percent width over ten synthetic
sentences.
"""

import hashlib
import json
import os
import warnings
from dataclasses import replace

import numpy as np
import pytest

import mrparse.amr as A
import mrparse.autodiff as ad
import mrparse.eds as E
import mrparse.graphs as G
import mrparse.training as T
from mrparse import datagen
from mrparse.config import fine_tune_config, multitask_config, single_config

from conftest import per_framework_loss, reference_beam_search

FWS = ("dm", "psd", "ucca", "amr")


@pytest.fixture(scope="module")
def corpus():
    return datagen.build_corpus(n=10, seed=7)


@pytest.fixture(scope="module")
def split(corpus):
    s = corpus.sentences
    train = {fw: list(s[:6]) for fw in FWS + ("eds",)}
    val_i = {fw: list(s[6:8]) for fw in FWS + ("eds",)}
    val_ii = {fw: list(s[8:]) for fw in FWS + ("eds",)}
    return T.DataSplit(train=train, val_i=val_i, val_ii=val_ii)


def tiny(cfg, **kw):
    return replace(cfg.scaled(0.02), batch_size=4, **kw)


@pytest.fixture(scope="module")
def mtl(split, corpus):
    cfg = tiny(multitask_config(), epochs=2, seed=3)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        return T.train_multitask(split, cfg, corpus.static, corpus.contextual)


# ---------------------------------------------------------------------------
# splits

@pytest.fixture(scope="module")
def big_sents():
    # last 8 sentences keep a single framework each
    return datagen.build_corpus(n=40, seed=11, singles=8).sentences


class TestSplit:
    def test_disjoint(self, big_sents):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            split = T.split_dataset(big_sents, seed=0)
        for fw in G.FRAMEWORKS:
            ids = [{s.id for s in part[fw]}
                   for part in (split.train, split.val_i, split.val_ii)]
            assert not (ids[0] & ids[1]) and not (ids[0] & ids[2])
            assert not (ids[1] & ids[2])

    def test_val_capped_at_half_the_pool(self, big_sents):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            split = T.split_dataset(big_sents, seed=0)
        for fw in G.FRAMEWORKS:
            eligible = sum(1 for s in big_sents if fw in s.graphs)
            assert len(split.val_i[fw]) + len(split.val_ii[fw]) <= eligible // 2

    def test_shrink_warns(self, big_sents):
        with pytest.warns(UserWarning, match="shrunk"):
            T.split_dataset(big_sents, seed=0)

    def test_factor_scales_wanted_sizes(self):
        assert T._fit_val_sizes("dm", 1000, 0.01) == (5, 15)

    def test_degenerate_pools(self):
        with pytest.warns(UserWarning):
            assert T._fit_val_sizes("dm", 2, 1.0) == (1, 0)
        with pytest.warns(UserWarning):
            assert T._fit_val_sizes("dm", 1, 1.0) == (0, 0)

    def test_sharing_rules(self, big_sents):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            split = T.split_dataset(big_sents, seed=0)
        for s in split.train["ucca"] + split.train["amr"]:
            assert len(s.graphs) > 1
        for fw in ("dm", "psd", "eds"):
            for s in split.train[fw]:
                assert "ucca" in s.graphs or "amr" in s.graphs

    def test_deterministic(self, big_sents):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            a = T.split_dataset(big_sents, seed=4)
            b = T.split_dataset(big_sents, seed=4)
        for fw in G.FRAMEWORKS:
            assert [s.id for s in a.train[fw]] == [s.id for s in b.train[fw]]
            assert [s.id for s in a.val_i[fw]] == [s.id for s in b.val_i[fw]]

    def test_fallback_when_rule_empties_train(self, corpus):
        # strip everything but DM: no leftover carries UCCA or AMR gold
        only_dm = [G.replace(s, graphs={"dm": s.graphs["dm"]})
                   for s in corpus.sentences]
        with pytest.warns(UserWarning, match="sharing rule"):
            split = T.split_dataset(only_dm, seed=0)
        assert split.train["dm"]
        assert split.train["ucca"] == []


# ---------------------------------------------------------------------------
# inventories

@pytest.fixture(scope="module")
def inv(corpus):
    train = {fw: corpus.sentences[:6] for fw in FWS}
    return T.build_inventories(train)


class TestInventories:
    def test_sdp_inventories(self, inv):
        assert inv.dm_labels and inv.psd_labels
        assert inv.dm_types[0] is not None and len(inv.dm_args) >= 1
        assert all(freq >= 1 for *_, freq in inv.dm_lexicon_rows)
        assert all(freq >= 1 for *_, freq in inv.psd_lexicon_rows)

    def test_ucca_labels_first_seen_order(self, inv):
        assert inv.ucca_labels == T._first_seen(inv.ucca_labels)

    def test_amr_side_tables(self, inv):
        assert inv.amr_concepts and inv.amr_edges
        assert inv.sense_table  # sensed predicates occur in every template
        assert inv.ne_map       # every synthetic sentence names someone
        for tag, head in inv.ne_map.items():
            assert isinstance(tag, str) and isinstance(head, str)

    def test_json_round_trip(self, inv):
        doc = json.loads(json.dumps(inv.to_json()))
        back = T.Inventories.from_json(doc)
        assert back == inv


def test_companion_text_matches_gold_input(corpus):
    for s in corpus.sentences[:3]:
        assert T.companion_text(s.tokens) == s.graphs["dm"].input


# ---------------------------------------------------------------------------
# loss assembly and masking

@pytest.fixture(scope="module")
def model(mtl):
    return mtl.model


@pytest.fixture(scope="module")
def prep(model, corpus):
    return T.prepare_sentences(model, corpus.sentences[:1], FWS)[0]


class TestMultitaskLoss:
    def hand_total(self, cfg, terms):
        t = lambda k: float(terms[k].data) if k in terms else 0.0
        label = sum(t(f"{fw}.label") for fw in FWS) + cfg.lam_frame * t("dm.frame")
        edge = sum(t(f"{fw}.edge") for fw in FWS)
        return (cfg.lam_biaf * (cfg.lam_label * label + (1 - cfg.lam_label) * edge)
                + cfg.lam_cov * t("amr.cov")
                + cfg.lam_dec_ucca * t("ucca.dec")
                + cfg.lam_dec_amr * t("amr.dec")
                + cfg.lam_remote * t("ucca.remote"))

    def test_full_assembly_matches_hand_formula(self, model, prep, mtl):
        cfg = mtl.config
        terms = T.framework_terms(model, prep, FWS)
        assert len(terms) == 13
        got = float(T.multitask_loss(cfg, terms).data)
        assert abs(got - self.hand_total(cfg, terms)) < 1e-10

    def test_masked_assembly_matches_hand_formula(self, model, prep, mtl):
        cfg = mtl.config
        terms = T.framework_terms(model, prep, ("dm", "psd"))
        assert set(terms) == {"dm.edge", "dm.label", "dm.frame",
                              "psd.edge", "psd.label"}
        got = float(T.multitask_loss(cfg, terms).data)
        assert abs(got - self.hand_total(cfg, terms)) < 1e-10

    def test_absent_frameworks_get_no_gradient(self, model, prep, mtl):
        for p in model.params.tensors():
            p.zero_grad()
        terms = T.framework_terms(model, prep, ("dm", "psd"))
        T.multitask_loss(mtl.config, terms).backward()
        for name, p in model.params._params.items():
            if name.startswith(("ucca.", "amr.")):
                assert p.grad is None, name
        assert any(model.params._params[n].grad is not None
                   for n in model.params._params if n.startswith("encoder."))

    def test_empty_terms_is_zero(self, mtl):
        loss = T.multitask_loss(mtl.config, {})
        assert float(loss.data) == 0.0

    def test_single_sdp_matches_joint_formula(self, model, prep, mtl):
        cfg = replace(mtl.config, frameworks=("dm", "psd"))
        terms = T.framework_terms(model, prep, cfg.frameworks)
        t = lambda k: float(terms[k].data)
        want = (cfg.lam_label * (t("dm.label") + t("psd.label")
                                 + cfg.lam_frame * t("dm.frame"))
                + (1 - cfg.lam_label) * (t("dm.edge") + t("psd.edge")))
        got = float(T.sentence_loss(model, cfg, prep, cfg.frameworks).data)
        assert abs(got - want) < 1e-10

    def test_single_loss_none_without_gold(self, model, mtl, corpus):
        bare = G.replace(corpus.sentences[0], graphs={})
        prep = T.prepare_sentences(model, [bare], FWS)[0]
        assert T.sentence_loss(model, mtl.config, prep, FWS) is None


# every single and fine-tuning preset, by the regime that trains with it
PRESETS = {
    **{f"single-{fw}": single_config(fw) for fw in FWS},
    **{f"fine-tune-{fw}": fine_tune_config(fw) for fw in FWS},
    "fine-tune-dm-bug": fine_tune_config("dm", bug_compatible=True),
    "fine-tune-psd-bug": fine_tune_config("psd", bug_compatible=True),
}


def loss_and_grads(model, loss):
    for p in model.params.tensors():
        p.zero_grad()
    loss.backward()
    return float(loss.data), {name: p.grad for name, p in model.params._params.items()}


@pytest.mark.parametrize("name", sorted(PRESETS))
def test_preset_reproduces_its_per_framework_objective(name, model, corpus):
    """The one objective under a preset's lam_* fields against the
    formula the preset trained with before: DM, PSD and AMR to the bit,
    UCCA (whose sum is regrouped) to rounding."""
    cfg = PRESETS[name]
    preps = T.prepare_sentences(model, corpus.sentences[:3], cfg.frameworks)
    assert all(p.targets for p in preps)
    for prep in preps:
        got, got_grads = loss_and_grads(
            model, T.sentence_loss(model, cfg, prep, cfg.frameworks))
        terms = T.framework_terms(model, prep, cfg.frameworks)
        want, want_grads = loss_and_grads(model, per_framework_loss(cfg, terms))
        assert [g is None for g in got_grads.values()] \
            == [g is None for g in want_grads.values()]
        graded = [n for n, g in want_grads.items() if g is not None]
        assert graded
        if "ucca" not in cfg.frameworks:
            assert got == want
            for n in graded:
                assert np.array_equal(got_grads[n], want_grads[n]), n
            continue
        assert abs(got - want) <= 1e-12 * abs(want)
        for n in graded:
            diff = np.linalg.norm(got_grads[n] - want_grads[n])
            assert diff <= 1e-10 * np.linalg.norm(want_grads[n]), n


def test_train_single_trains_every_named_framework(split, corpus):
    # s000 keeps its DM gold but not its UCCA gold; the old UCCA-only
    # objective dropped DM's terms and failed on that sentence
    train = {**split.train, "ucca": split.train["ucca"][1:]}
    split2 = replace(split, train=train)
    cfg = tiny(replace(single_config("ucca"), frameworks=("ucca", "dm")),
               epochs=1, seed=4)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        init = T.MultiModel.derive(cfg, split2, corpus.static,
                                   corpus.contextual).params.state_dict()
        res = T.train_single(split2, cfg, corpus.static, corpus.contextual)
    after = res.model.params.state_dict()
    for prefix in ("ucca.", "dm."):
        assert any(name.startswith(prefix)
                   and not np.array_equal(after[name], init[name])
                   for name in after), prefix
    assert set(res.best_epochs) == {"ucca", "dm"}


def test_prepare_drops_gold_with_unseen_labels(mtl, corpus):
    s = corpus.sentences[0]
    dm = s.graphs["dm"]
    bad_edges = (G.replace(dm.edges[0], label="never-seen"),) + dm.edges[1:]
    bad = G.replace(s, graphs={"dm": G.replace(dm, edges=bad_edges)})
    with pytest.warns(UserWarning, match="dm gold dropped"):
        prep = T.prepare_sentences(mtl.model, [bad], ("dm",))[0]
    assert "dm" not in prep.targets


def misaligned_ucca(sent):
    """``sent`` with one UCCA terminal anchored to part of its token."""
    ucca = sent.graphs["ucca"]
    nodes = list(ucca.nodes)
    k = next(i for i, n in enumerate(nodes)
             if n.anchors and n.anchors[0].end - n.anchors[0].start > 1)
    a = nodes[k].anchors[0]
    nodes[k] = G.replace(nodes[k], anchors=(G.Anchor(a.start + 1, a.end),))
    bad = G.replace(ucca, nodes=tuple(nodes))
    return G.replace(sent, graphs={**sent.graphs, "ucca": bad})


def test_train_single_drops_misaligned_ucca_gold(split, corpus):
    train = dict(split.train)
    train["ucca"] = [misaligned_ucca(train["ucca"][0])] + train["ucca"][1:]
    cfg = tiny(single_config("ucca"), epochs=1, seed=4)
    with pytest.warns(UserWarning) as record:
        res = T.train_single(replace(split, train=train), cfg, corpus.static,
                             corpus.contextual)
    bad_id = train["ucca"][0].id
    messages = [str(w.message) for w in record]
    assert any(m.startswith(f"{bad_id}: ucca gold skipped for inventories")
               for m in messages)
    assert any(m.startswith(f"{bad_id}: ucca gold dropped") for m in messages)
    assert len(res.history) == 1


def test_prepare_respects_allowed_ids(mtl, corpus):
    s = corpus.sentences[0]
    allowed = {"dm": set(), "psd": {s.id}}
    prep = T.prepare_sentences(mtl.model, [s], ("dm", "psd"),
                               allowed_ids=allowed)[0]
    assert set(prep.targets) == {"psd"}


# ---------------------------------------------------------------------------
# early stopping

class TestEarlyStopper:
    def test_max_mode_tracks_argmax(self):
        st = T.EarlyStopper("max")
        for epoch, v in enumerate([0.1, 0.5, 0.3]):
            st.update(epoch, v)
        assert (st.best_epoch, st.best_value) == (1, 0.5)

    def test_strict_improvement_keeps_first_on_ties(self):
        st = T.EarlyStopper("min")
        assert st.update(0, 2.0) is True
        assert st.update(1, 2.0) is False
        assert st.best_epoch == 0

    def test_none_values_are_skipped(self):
        st = T.EarlyStopper("max")
        assert st.update(0, None) is False
        assert st.best_epoch is None

    def test_bad_mode(self):
        with pytest.raises(ValueError):
            T.EarlyStopper("avg")


# ---------------------------------------------------------------------------
# training loops

def count_clip_calls(monkeypatch):
    """Record the pre-clip norm of every ``clip_gradients`` call (one per
    optimizer step)."""
    calls = []
    clip = ad.clip_gradients

    def counting(params, max_norm):
        factor, norm = clip(params, max_norm)
        calls.append(norm)
        return factor, norm

    monkeypatch.setattr(ad, "clip_gradients", counting)
    return calls


class TestTrainLoop:
    def test_history_and_best_keys(self, mtl):
        assert len(mtl.history) == mtl.config.epochs
        assert set(mtl.best_epochs) == set(FWS) | {"total"}
        for key, epoch in mtl.best_epochs.items():
            assert 0 <= epoch < mtl.config.epochs

    def test_snapshots_pruned_to_best_and_last(self, mtl):
        keep = set(mtl.best_epochs.values()) | {mtl.config.epochs - 1}
        assert set(mtl.snapshots) == keep

    def test_model_at_returns_detached_clone(self, mtl):
        clone = mtl.model_at("total")
        state = mtl.snapshots[mtl.best_epochs["total"]]
        for name, arr in clone.params.state_dict().items():
            assert np.array_equal(arr, state[name])
        name = next(iter(clone.params._params))
        clone.params._params[name].data += 1.0
        assert not np.array_equal(clone.params._params[name].data,
                                  mtl.model.params._params[name].data)

    def test_run_dir_artifacts(self, split, corpus, tmp_path):
        cfg = tiny(single_config("dm"), epochs=2, seed=9)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            res = T.train_single(split, cfg, corpus.static, corpus.contextual,
                                 run_dir=str(tmp_path))
        names = sorted(os.listdir(tmp_path))
        assert "config.json" in names and "metrics.jsonl" in names
        ckpts = [n for n in names if n.endswith(".ckpt")]
        keep = {T._checkpoint_path(str(tmp_path), e)
                for e in set(res.best_epochs.values()) | {cfg.epochs - 1}}
        assert {os.path.join(str(tmp_path), n) for n in ckpts} == keep
        rows = [json.loads(line) for line in
                (tmp_path / "metrics.jsonl").read_text().splitlines()]
        assert [r["epoch"] for r in rows] == [0, 1]
        assert all("seconds" not in r for r in rows)  # rerun-stable file

    def test_rerun_into_run_dir_rewrites_metrics(self, split, corpus, tmp_path):
        cfg = tiny(single_config("dm"), epochs=2, seed=9)
        files = []
        for _ in range(2):
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")
                T.train_single(split, cfg, corpus.static, corpus.contextual,
                               run_dir=str(tmp_path))
            files.append((tmp_path / "metrics.jsonl").read_bytes())
        assert files[1] == files[0]
        assert len(files[0].splitlines()) == 2
        assert not [n for n in os.listdir(tmp_path) if n.endswith(".tmp")]

    def test_multitask_validates_once_per_epoch(self, split, corpus, monkeypatch):
        scored = []
        terms = T.framework_terms

        def counting(model, prep, frameworks, train=False, rng=None):
            if not train:
                scored.append(prep.sent.id)
            return terms(model, prep, frameworks, train=train, rng=rng)

        monkeypatch.setattr(T, "framework_terms", counting)
        cfg = tiny(multitask_config(), epochs=1, seed=3)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            res = T.train_multitask(split, cfg, corpus.static, corpus.contextual)
        assert len(scored) == sum(len(split.val_i[fw]) for fw in cfg.frameworks)
        val = res.history[0]["val"]
        assert val["total"] == float(np.sum([val[fw] for fw in cfg.frameworks]))

    def test_loss_decreases_on_tiny_corpus(self, split, corpus):
        cfg = tiny(single_config("dm"), epochs=3, lr=0.01, seed=5)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            res = T.train_single(split, cfg, corpus.static, corpus.contextual)
        assert res.history[-1]["train_loss"] < res.history[0]["train_loss"]

    def test_deterministic_reruns(self, split, corpus):
        cfg = tiny(single_config("amr"), epochs=1, seed=6)
        states = []
        for _ in range(2):
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")
                res = T.train_single(split, cfg, corpus.static, corpus.contextual)
            states.append(res.model.params.state_dict())
        assert states[0].keys() == states[1].keys()
        for name in states[0]:
            assert np.array_equal(states[0][name], states[1][name]), name

    def test_nan_guard_raises(self, mtl, corpus):
        model = mtl.model_at("total")
        model.params._params["encoder.surface_emb"].data[:] = np.nan
        preps = T.prepare_sentences(model, corpus.sentences[:2], ("dm",))
        cfg = replace(mtl.config, epochs=1)
        loss_fn = lambda m, p, rng: T.sentence_loss(
            m, cfg, p, ("dm", "psd"), train=True, rng=rng)
        with pytest.raises(T.TrainingDiverged) as err:
            T._train_loop(model, cfg, preps, loss_fn, {}, lambda m: {})
        assert err.value.epoch == 0
        assert err.value.sentence_ids

    @pytest.mark.parametrize("clip, clipped", [(1e-12, True), (1e12, False)])
    def test_epoch_records_clipping(self, split, corpus, tmp_path, monkeypatch,
                                    clip, clipped):
        steps = count_clip_calls(monkeypatch)
        cfg = tiny(single_config("dm"), epochs=2, seed=9, clip=clip)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            res = T.train_single(split, cfg, corpus.static, corpus.contextual,
                                 run_dir=str(tmp_path))
        rows = [json.loads(line) for line in
                (tmp_path / "metrics.jsonl").read_text().splitlines()]
        assert len(steps) == 4  # two epochs of two minibatches
        for epoch, (row, hist) in enumerate(zip(rows, res.history)):
            assert row["max_grad_norm"] == max(steps[2 * epoch:2 * epoch + 2]) > 0.0
            assert row["clipped_steps"] == hist["clipped_steps"]
            assert row["clipped_steps"] == (2 if clipped else 0)
            assert (row["min_clip_factor"] < 1e-6) if clipped else (
                row["min_clip_factor"] == 1.0)

    def test_no_usable_supervision_raises(self, mtl, corpus):
        bare = [G.replace(s, graphs={}) for s in corpus.sentences[:2]]
        preps = T.prepare_sentences(mtl.model, bare, FWS)
        with pytest.raises(ValueError, match="supervision"):
            T._train_loop(mtl.model, mtl.config, preps, lambda *a: None, {},
                          lambda m: {})


# ---------------------------------------------------------------------------
# bundles

def assert_same_arrays(want, got):
    """Two state dicts hold the same names, in order, and the same
    arrays in bits, dtype and shape."""
    assert list(got) == list(want)
    for name, arr in want.items():
        assert (got[name].dtype, got[name].shape) == (arr.dtype, arr.shape), name
        assert got[name].tobytes() == arr.tobytes(), name


class TestBundles:
    def test_multi_round_trip(self, mtl, corpus, tmp_path):
        path = str(tmp_path / "joint.bundle")
        model = mtl.model_at("total")
        model.save(path)
        back = T.load_model(path, corpus.static, corpus.contextual)
        saved = model.params.state_dict()
        assert_same_arrays(saved, ad.ParamSet.read(path)[0])
        assert_same_arrays(saved, back.params.state_dict())
        assert any(arr.ndim == 0 for arr in saved.values())  # the *.b_edge scalars
        sent = corpus.sentences[9]
        for fw in FWS:
            a = G.graph_to_json(T.parse_sentence(model, sent, fw, beam=2))
            b = G.graph_to_json(T.parse_sentence(back, sent, fw, beam=2))
            assert a == b, fw

    def test_not_a_bundle(self, tmp_path):
        ps = ad.ParamSet()
        ps.new_from("x", np.zeros(2))
        path = str(tmp_path / "raw.ckpt")
        ps.save(path)
        with pytest.raises(ValueError, match="not a model bundle"):
            T.load_model(path, None, None)

    def test_models_built_from_state_draw_nothing(self, mtl, eds, split, corpus,
                                                  tmp_path, monkeypatch):
        """Bundle loads, ``model_at`` and the start of fine-tuning take
        every value from saved arrays: no initializer draws."""
        paths = [str(tmp_path / "joint.bundle"), str(tmp_path / "eds.bundle")]
        mtl.model.save(paths[0])
        eds[0].save(paths[1])
        draws = []

        class CountingGenerator(np.random.Generator):
            def uniform(self, *args, **kwargs):
                draws.append(kwargs.get("size"))
                return super().uniform(*args, **kwargs)

        class Started(Exception):
            pass

        def started(*args, **kwargs):
            raise Started

        monkeypatch.setattr(np.random, "default_rng",
                            lambda seed=None: CountingGenerator(np.random.PCG64(seed)))
        monkeypatch.setattr(T, "_train_loop", started)
        m = mtl.model
        T.MultiModel(m.config, m.vocab, m.inv, m.static, m.contextual)
        assert draws  # a random build is counted
        draws.clear()
        for path in paths:
            T.load_model(path, corpus.static, corpus.contextual)
        mtl.model_at("total")
        with pytest.raises(Started):
            T.fine_tune(mtl, "dm", tiny(multitask_config(), epochs=1, seed=12),
                        split, corpus.static, corpus.contextual)
        assert draws == []


# ---------------------------------------------------------------------------
# fine-tuning

@pytest.fixture(scope="module")
def ft(mtl, split, corpus):
    cfg = tiny(multitask_config(), epochs=1, seed=12)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        return T.fine_tune(mtl, "ucca", cfg, split,
                           corpus.static, corpus.contextual)


class TestFineTune:
    def test_starts_from_framework_best(self, ft, mtl):
        start = mtl.snapshots[mtl.best_epochs["ucca"]]
        after = ft.model.params.state_dict()
        # untargeted modules never moved off the starting state
        for name in after:
            if name.startswith(("amr.", "dm.", "psd.")):
                assert np.array_equal(after[name], start[name]), name

    def test_target_modules_moved(self, ft, mtl):
        start = mtl.snapshots[mtl.best_epochs["ucca"]]
        after = ft.model.params.state_dict()
        moved = [name for name in after
                 if name.startswith("ucca.")
                 and not np.array_equal(after[name], start[name])]
        assert moved

    def test_sdp_pair_starts_from_total(self, mtl, split, corpus):
        cfg = tiny(multitask_config(), epochs=1, seed=13)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            res = T.fine_tune(mtl, "dm", cfg, split,
                              corpus.static, corpus.contextual)
        start = mtl.snapshots[mtl.best_epochs["total"]]
        after = res.model.params.state_dict()
        for name in after:
            if name.startswith(("ucca.", "amr.")):
                assert np.array_equal(after[name], start[name]), name
        # the pair trains jointly, so the PSD head moves too
        assert any(name.startswith("psd.")
                   and not np.array_equal(after[name], start[name])
                   for name in after)

    def test_rejects_unknown_and_eds(self, mtl, split, corpus):
        for fw in ("eds", "xyz"):
            with pytest.raises(ValueError):
                T.fine_tune(mtl, fw, multitask_config(), split,
                            corpus.static, corpus.contextual)


# ---------------------------------------------------------------------------
# conversion training

@pytest.fixture(scope="module")
def eds(mtl, split, corpus):
    cfg = tiny(multitask_config(), epochs=2, seed=3)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        return T.train_eds(split, cfg, corpus.static, corpus.contextual,
                           corpus.rules, encoder_from=mtl.model)


@pytest.mark.parametrize("clip, clipped", [(1e-12, True), (1e12, False)])
def test_eds_epoch_records_clipping(mtl, split, corpus, monkeypatch, clip, clipped):
    steps = count_clip_calls(monkeypatch)
    cfg = tiny(multitask_config(), epochs=1, seed=3, clip=clip)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        _, history = T.train_eds(split, cfg, corpus.static, corpus.contextual,
                                 corpus.rules, encoder_from=mtl.model)
    assert steps
    assert history[0]["max_grad_norm"] == max(steps) > 0.0
    assert history[0]["clipped_steps"] == (len(steps) if clipped else 0)
    assert (history[0]["min_clip_factor"] < 1e-6) if clipped else (
        history[0]["min_clip_factor"] == 1.0)


# (train_loss, val["eds"]) per epoch of the ``eds`` fixture, recorded
# from the dedicated epoch loop train_eds ran before it moved onto
# _train_loop; the merged loop must reproduce them
EDS_FIXTURE_HISTORY = [(8.992989276219229, 8.149163915523193),
                       (8.992932088889539, 8.149123221075307)]


def unanchored_abstract(sent, rules):
    """``sent`` with the anchors of its abstract EDS nodes removed."""
    gold = sent.graphs["eds"]
    surface = E.dm_to_eds_surface(sent.graphs["dm"], rules)
    _, abstract = E.split_surface_abstract(gold, surface)
    nodes = tuple(G.replace(n, anchors=()) if n.id in abstract else n
                  for n in gold.nodes)
    return G.replace(sent, graphs={**sent.graphs,
                                   "eds": G.replace(gold, nodes=nodes)})


class TestEds:
    def test_history_pinned(self, eds):
        _, history = eds
        got = [(r["train_loss"], r["val"]["eds"]) for r in history]
        np.testing.assert_allclose(got, EDS_FIXTURE_HISTORY, rtol=1e-12, atol=0)
        assert [r["best"] for r in history] == [{"eds": 0}, {"eds": 1}]

    def test_run_dir_artifacts(self, mtl, split, corpus, tmp_path):
        cfg = tiny(multitask_config(), epochs=3, seed=3)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            model, history = T.train_eds(split, cfg, corpus.static,
                                         corpus.contextual, corpus.rules,
                                         encoder_from=mtl.model,
                                         run_dir=str(tmp_path))
        rows = [json.loads(line) for line in
                (tmp_path / "metrics.jsonl").read_text().splitlines()]
        assert [r["epoch"] for r in rows] == [0, 1, 2]
        assert all("seconds" not in r for r in rows)  # rerun-stable file
        assert rows == [{k: v for k, v in h.items() if k != "seconds"}
                        for h in history]
        best = history[-1]["best"]["eds"]
        ckpts = {os.path.join(str(tmp_path), n)
                 for n in os.listdir(tmp_path) if n.endswith(".ckpt")}
        assert ckpts == {T._checkpoint_path(str(tmp_path), e) for e in {best, 2}}
        state, extra = ad.ParamSet.read(T._checkpoint_path(str(tmp_path), best))
        assert extra["kind"] == "eds-anchor"
        for name, arr in model.params.state_dict().items():
            assert np.array_equal(arr, state[name]), name
        with pytest.raises(ValueError, match="not a model bundle"):
            T.load_model(T._checkpoint_path(str(tmp_path), best),
                         corpus.static, corpus.contextual)

    def test_no_spanned_abstract_node_leaves_anchor_untrained(self, mtl, split,
                                                              corpus):
        train = [unanchored_abstract(s, corpus.rules) for s in split.train["eds"]]
        bare = T.DataSplit(train={"eds": train}, val_i=split.val_i, val_ii={})
        cfg = tiny(multitask_config(), epochs=2, seed=3)
        with pytest.warns(UserWarning, match="anchor net stays untrained"):
            model, history = T.train_eds(bare, cfg, corpus.static,
                                         corpus.contextual, corpus.rules,
                                         encoder_from=mtl.model)
        assert history == []
        assert model.abstract is not None
        fresh = T.EdsModel(model.config, model.vocab, model.rules,
                           model.static, model.contextual, model.anchor_labels)
        init = fresh.params.state_dict()
        for name, arr in model.params.state_dict().items():
            if name.startswith("anchor."):
                assert np.array_equal(arr, init[name]), name

    def test_history_and_parse(self, eds, corpus):
        model, history = eds
        assert len(history) == 2
        sent = corpus.sentences[9]
        graph, diag = model.parse(sent, sent.graphs["dm"])
        assert graph.framework == "eds"
        assert G.validate_graph(graph) == []
        assert all(n.anchors for n in graph.nodes)
        assert "swapped" in diag

    def test_encoder_transferred_and_frozen(self, eds, mtl):
        model, _ = eds
        source = mtl.model.params.state_dict()
        for name, arr in model.params.state_dict().items():
            if name.startswith("encoder."):
                assert np.array_equal(arr, source[name]), name

    def test_anchor_trained(self, eds, mtl):
        model, _ = eds
        fresh = T.EdsModel(model.config, model.vocab, model.rules,
                           model.static, model.contextual, model.anchor_labels)
        init = fresh.params.state_dict()
        now = model.params.state_dict()
        assert any(name.startswith("anchor.")
                   and not np.array_equal(now[name], init[name]) for name in now)

    def test_bundle_round_trip(self, eds, corpus, tmp_path):
        model, _ = eds
        path = str(tmp_path / "eds.bundle")
        model.save(path)
        back = T.load_model(path, corpus.static, corpus.contextual)
        saved = model.params.state_dict()
        assert_same_arrays(saved, ad.ParamSet.read(path)[0])
        assert_same_arrays(saved, back.params.state_dict())
        assert {"det.w", "nlab.w", "elab.w"} <= set(saved)
        sent = corpus.sentences[8]
        a = G.graph_to_json(model.parse(sent, sent.graphs["dm"])[0])
        b = G.graph_to_json(back.parse(sent, sent.graphs["dm"])[0])
        assert a == b
        assert back.abstract.node_labeler.classes \
            == model.abstract.node_labeler.classes

    def test_needs_paired_gold(self, corpus, mtl):
        stripped = [G.replace(s, graphs={"eds": s.graphs["eds"]})
                    for s in corpus.sentences[:4]]
        split = T.DataSplit(train={"eds": stripped}, val_i={}, val_ii={})
        with pytest.raises(ValueError, match="both EDS and DM"):
            with pytest.warns(UserWarning, match="lack paired DM"):
                T.train_eds(split, tiny(multitask_config(), epochs=1),
                            mtl.model.static, mtl.model.contextual,
                            datagen.conversion_rules(), encoder_from=mtl.model)


def test_training_releases_gradients(split, corpus):
    """Every regime returns a model without the last minibatch's
    gradients; the release leaves the trained weights as they were."""
    cfg = tiny(multitask_config(), epochs=1, seed=3)
    emb = (corpus.static, corpus.contextual)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        res = T.train_multitask(split, cfg, *emb)
        tuned = T.fine_tune(res, "ucca", replace(cfg, seed=12), split, *emb)
        converter, _ = T.train_eds(split, cfg, *emb, corpus.rules,
                                   encoder_from=res.model)
    for model in (res.model, tuned.model, converter):
        assert all(p.grad is None for p in model.params.tensors())
    for run in (res, tuned):
        last = run.snapshots[len(run.history) - 1]
        for name, arr in run.model.params.state_dict().items():
            assert arr.tobytes() == last[name].tobytes(), name


# ---------------------------------------------------------------------------
# ensembles

class TestEnsembles:
    def test_self_combination_is_identity(self, mtl, corpus):
        # mean of identical probabilities changes nothing
        model = mtl.model
        sent = corpus.sentences[8]
        for fw in ("dm", "psd", "ucca"):
            solo = G.graph_to_json(T.parse_sentence(model, sent, fw))
            both = G.graph_to_json(T.parse_ensemble([model, model], sent, fw))
            assert solo == both, fw

    def test_greedy_single_candidate(self):
        members, best = T.greedy_ensemble([3], lambda ms: 0.7)
        assert members == (3,) and best == 0.7

    def test_greedy_orders_by_solo_then_adds(self):
        table = {(0,): 0.8, (1,): 0.7, (2,): 0.6,
                 (0, 1): 0.85, (0, 1, 2): 0.84}
        members, best = T.greedy_ensemble([0, 1, 2], table.__getitem__)
        assert members == (0, 1) and best == 0.85

    def test_greedy_stops_at_first_non_improvement(self):
        table = {(0,): 0.8, (1,): 0.75, (2,): 0.7, (0, 1): 0.79}
        members, best = T.greedy_ensemble([0, 1, 2], table.__getitem__)
        assert members == (0,) and best == 0.8

    def test_greedy_tie_breaks_on_index(self):
        table = {(0,): 0.5, (1,): 0.5, (1, 0): 0.4, (0, 1): 0.4}
        members, _ = T.greedy_ensemble([1, 0], table.__getitem__)
        assert members == (0,)

    def test_build_ensemble_amr_takes_single_best(self, corpus):
        fake = {(0,): 0.3, (1,): 0.6, (2,): 0.5}
        spec, score = T.build_ensemble([None, None, None], "amr",
                                       corpus.sentences[8:],
                                       score_fn=fake.__getitem__)
        assert spec == T.EnsembleSpec("amr", (1,), "single")
        assert score == 0.6

    def test_build_ensemble_rules(self, corpus):
        fake = {(0,): 0.3, (1,): 0.6, (1, 0): 0.7}
        for fw, rule in (("dm", "average"), ("ucca", "vote")):
            spec, score = T.build_ensemble([None, None], fw,
                                           corpus.sentences[8:],
                                           score_fn=fake.__getitem__)
            assert spec.rule == rule and spec.members == (1, 0)

    def test_spec_json_round_trip(self):
        spec = T.EnsembleSpec("psd", (2, 0), "average")
        assert T.EnsembleSpec.from_json(json.loads(
            json.dumps(spec.to_json()))) == spec

    def test_members_must_agree_on_labels(self, mtl, corpus):
        other = mtl.model_at("total")
        other.heads["dm"].labels = list(mtl.model.heads["dm"].labels)[::-1]
        with pytest.raises(ValueError, match="disagree"):
            T.parse_ensemble([mtl.model, other], corpus.sentences[8], "dm")

    def test_parse_with_spec_dispatch(self, mtl, corpus):
        sent = corpus.sentences[9]
        spec = T.EnsembleSpec("psd", (0,), "average")
        a = G.graph_to_json(T.parse_with_spec([mtl.model], spec, sent))
        b = G.graph_to_json(T.parse_sentence(mtl.model, sent, "psd"))
        assert a == b


# ---------------------------------------------------------------------------
# inference fast path: parsing under ad.no_grad() changes no value; the
# batched AMR beam decodes what one step per hypothesis decodes, its
# floats within 1e-10 (its batched products round differently)

HELD = slice(6, 10)
BEAM_TOL = 1e-10


def assert_same_generation(want, got, tol=0.0):
    """Equal discrete fields; log-probability, states and attentions
    equal bit for bit, or within ``tol`` when it is positive."""
    assert got.labels == want.labels
    assert got.kinds == want.kinds
    assert got.copy_of == want.copy_of
    assert got.src_token == want.src_token
    assert got.truncated == want.truncated
    assert len(got.states) == len(want.states)
    assert len(got.attentions) == len(want.attentions)
    pairs = list(zip(want.states + want.attentions, got.states + got.attentions))
    for w, g in pairs:
        assert (g.data.dtype, g.data.shape) == (w.data.dtype, w.data.shape)
    if tol == 0.0:
        assert got.log_prob == want.log_prob
        for w, g in pairs:
            assert g.data.tobytes() == w.data.tobytes()
    else:
        assert abs(got.log_prob - want.log_prob) <= tol
        for w, g in pairs:
            np.testing.assert_allclose(g.data, w.data, rtol=0.0, atol=tol)


def record_graph_tensors(monkeypatch):
    """A list that collects every tensor constructed with parents."""
    recorded = []
    init = ad.Tensor.__init__

    def spy(self, data, requires_grad=False, parents=(), backward_rule=None):
        init(self, data, requires_grad, parents, backward_rule)
        if self.parents:
            recorded.append(self)

    monkeypatch.setattr(ad.Tensor, "__init__", spy)
    return recorded


class TestInferenceFastPath:
    @pytest.mark.parametrize("width", [1, 2, 5])
    def test_amr_decoder_matches_reference(self, model, corpus, width):
        truncated = 0
        for cap in (None, 2):
            for sent in corpus.sentences[HELD]:
                ctx = model.amr_context(sent, model.encode(sent))
                want = reference_beam_search(ctx, width=width, cap=cap)
                taped = A.beam_search(ctx, width=width, cap=cap)
                assert_same_generation(want, taped, tol=BEAM_TOL)
                with ad.no_grad():
                    got = A.beam_search(ctx, width=width, cap=cap)
                assert_same_generation(taped, got)
                truncated += got.truncated
        assert truncated  # the small cap cuts some decodes short

    @pytest.mark.parametrize("width", [1, 2, 5])
    def test_amr_graphs_match_reference(self, model, corpus, width,
                                        monkeypatch):
        sents = corpus.sentences[HELD]
        got = [G.graph_to_json(T.parse_sentence(model, s, "amr", beam=width))
               for s in sents]
        monkeypatch.setattr(A, "beam_search", reference_beam_search)
        want = [G.graph_to_json(T.parse_sentence(model, s, "amr", beam=width))
                for s in sents]
        assert got == want

    @pytest.mark.parametrize("fw", FWS)
    def test_parse_sentence_same_with_and_without_no_grad(self, model, corpus, fw):
        for sent in corpus.sentences[HELD]:
            taped = T.parse_sentence.__wrapped__(model, sent, fw)
            fast = T.parse_sentence(model, sent, fw)
            assert G.graph_to_json(fast) == G.graph_to_json(taped)

    def test_val_loss_same_with_and_without_no_grad(self, model, corpus, mtl):
        preps = T.prepare_sentences(model, corpus.sentences[HELD], FWS)
        loss_fn = lambda p: T.sentence_loss(model, mtl.config, p, FWS)
        want = T._val_loss.__wrapped__(preps, loss_fn, "all")
        assert T._val_loss(preps, loss_fn, "all") == want

    def test_eds_parse_same_with_and_without_no_grad(self, eds, corpus):
        converter, _ = eds
        for sent in corpus.sentences[HELD]:
            taped = type(converter).parse.__wrapped__(converter, sent,
                                                      sent.graphs["dm"])
            fast = converter.parse(sent, sent.graphs["dm"])
            assert G.graph_to_json(fast[0]) == G.graph_to_json(taped[0])
            assert fast[1] == taped[1]

    def test_inference_records_no_graph(self, model, mtl, eds, corpus,
                                        monkeypatch):
        converter, _ = eds
        for p in model.params.tensors() + converter.params.tensors():
            p.zero_grad()
        preps = T.prepare_sentences(model, corpus.sentences[HELD], FWS)
        recorded = record_graph_tensors(monkeypatch)
        sent = corpus.sentences[8]
        for fw in FWS:
            T.parse_sentence(model, sent, fw)
        T.parse_ensemble([model, model], sent, "dm")
        T._val_loss(preps, lambda p: T.sentence_loss(model, mtl.config, p, FWS),
                    "all")
        converter.parse(sent, sent.graphs["dm"])
        assert recorded == []
        for p in model.params.tensors() + converter.params.tensors():
            assert p.grad is None
        T.sentence_loss(model, mtl.config, preps[0], FWS)
        assert recorded  # the spy sees graphs outside the fast path


# First 16 hex digits of the sha256 of the graph JSON lines (sorted keys)
# that parsing held-out sentences with ``fixed_models`` gives, recorded
# at the commit before teacher forcing ran whole sequences.  The models
# do not depend on decoder training, so parsing must keep these bytes.
PARSE_DIGESTS = {"dm": "ca6ee6e36063c49e", "psd": "10b0823d057616a4",
                 "ucca": "916736e0c28d8596", "amr": "848f6445bb6f980d",
                 "eds": "26eac471af564bea"}


@pytest.fixture(scope="module")
def fixed_models(split, corpus):
    """An untrained multitask model and the converter trained on its
    frozen encoder: neither touches a decoder's training path."""
    cfg = tiny(multitask_config(), epochs=1, seed=11)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        model = T.MultiModel.derive(cfg, split, corpus.static, corpus.contextual)
        converter, _ = T.train_eds(split, cfg, corpus.static, corpus.contextual,
                                   corpus.rules, encoder_from=model)
    return model, converter


@pytest.mark.parametrize("fw", FWS + ("eds",))
def test_parse_output_pinned(fixed_models, corpus, fw):
    model, converter = fixed_models
    graphs = [converter.parse(s, s.graphs["dm"])[0] if fw == "eds"
              else T.parse_sentence(model, s, fw) for s in corpus.sentences[HELD]]
    assert all(g.nodes for g in graphs if fw != "dm")
    text = "\n".join(json.dumps(G.graph_to_json(g), sort_keys=True) for g in graphs)
    assert hashlib.sha256(text.encode()).hexdigest()[:16] == PARSE_DIGESTS[fw]
