"""Trainer tests: splits, loss assembly and masking, early stopping,
training loops, bundles, fine-tuning, conversion training, ensembles.

The expensive fixtures (a jointly trained model) are module-scoped and
shrunk hard: two epochs at two percent width over ten synthetic
sentences.
"""

import gc
import hashlib
import json
import os
import tempfile
import warnings
from dataclasses import asdict, fields, replace
from types import SimpleNamespace

import numpy as np
import pytest

import mrparse.amr as A
import mrparse.autodiff as ad
import mrparse.eds as E
import mrparse.graphs as G
import mrparse.sdp as S
import mrparse.training as T
import mrparse.ucca as U
from mrparse import datagen
from mrparse.config import fine_tune_config, multitask_config, single_config
from mrparse.encoder import PARAM_PREFIX, BiLstm

from conftest import (BEAM_TOL, assert_same_arrays, assert_same_generation,
                      count_decoder_steps, fix_width, per_framework_loss,
                      reference_beam_search, reference_build_ensemble,
                      reference_parse_ensemble, reference_read_checkpoint, spy)

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
    return replace(replace(cfg, scale=0.02).scaled(), batch_size=4, **kw)


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
    # the last 8 sentences keep a single framework each, cycling
    # through the inventory
    sents = datagen.build_corpus(n=40, seed=11).sentences
    for k in range(8):
        s = sents[-1 - k]
        keep = G.FRAMEWORKS[k % len(G.FRAMEWORKS)]
        sents[-1 - k] = G.replace(s, graphs={keep: s.graphs[keep]})
    return sents


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

    @pytest.mark.parametrize("seed", [-1, 1.5, "3"])
    def test_a_bad_seed_is_named(self, corpus, seed):
        with pytest.raises(ValueError, match="^seed must be a non-negative integer"):
            T.split_dataset(corpus.sentences, seed=seed)

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

    def test_json_is_the_dataclass_dump(self, inv):
        """The shallow document dumps to the bytes of ``asdict``'s deep
        copy, key order included, as the checkpoint writer dumps it."""
        assert inv.dm_lexicon_rows and inv.sense_table
        assert json.dumps(inv.to_json()) == json.dumps(asdict(inv))

    def test_lexicons_hold_only_rows_a_bundle_can_carry(self, corpus, inv):
        """A framed node without a label, or with a POS that is not a
        string, gives no lexicon row, so its bundle still loads."""
        def spoil(sent, fw, node):
            g = sent.graphs[fw]
            k = next(i for i, n in enumerate(g.nodes) if "frame" in n.property_map())
            nodes = g.nodes[:k] + (node(g.nodes[k]),) + g.nodes[k + 1:]
            return G.replace(sent, graphs={**sent.graphs,
                                           fw: G.replace(g, nodes=nodes)})

        unlabeled = lambda n: G.replace(n, label=None)
        numeric_pos = lambda n: G.replace(n, properties=tuple(
            (k, 5 if k == "pos" else v) for k, v in n.properties))
        train = {"dm": [spoil(s, "dm", unlabeled) for s in corpus.sentences[:6]],
                 "psd": [spoil(s, "psd", numeric_pos) for s in corpus.sentences[:6]]}
        spoiled = T.build_inventories(train)
        for name in ("dm_lexicon_rows", "psd_lexicon_rows"):
            rows = getattr(spoiled, name)
            assert rows and len(rows) < len(getattr(inv, name)), name
        assert T.Inventories.from_json(json.loads(json.dumps(spoiled.to_json()))) \
            == spoiled


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
        cfg = mtl.model.config
        terms = T.framework_terms(model, prep, FWS)
        assert len(terms) == 13
        got = float(T.multitask_loss(cfg, terms).data)
        assert abs(got - self.hand_total(cfg, terms)) < 1e-10

    def test_masked_assembly_matches_hand_formula(self, model, prep, mtl):
        cfg = mtl.model.config
        terms = T.framework_terms(model, prep, ("dm", "psd"))
        assert set(terms) == {"dm.edge", "dm.label", "dm.frame",
                              "psd.edge", "psd.label"}
        got = float(T.multitask_loss(cfg, terms).data)
        assert abs(got - self.hand_total(cfg, terms)) < 1e-10

    def test_absent_frameworks_get_no_gradient(self, model, prep, mtl):
        for p in model.params.tensors():
            p.zero_grad()
        terms = T.framework_terms(model, prep, ("dm", "psd"))
        T.multitask_loss(mtl.model.config, terms).backward()
        for name, p in model.params._params.items():
            if name.startswith(("ucca.", "amr.")):
                assert p.grad is None, name
        assert any(model.params._params[n].grad is not None
                   for n in model.params._params if n.startswith("encoder."))

    def test_remote_label_branch_gets_no_gradient(self, model, prep, mtl):
        """UCCA discards the remote head's label loss, so its label MLPs
        and scorer end a training backward without a gradient."""
        for p in model.params.tensors():
            p.zero_grad()
        terms = T.framework_terms(model, prep, ("ucca",), np.random.default_rng(0))
        T.multitask_loss(mtl.model.config, terms).backward()
        head = model.remote_head
        dead = [head.label_from.w, head.label_from.b, head.label_to.w, head.label_to.b,
                head.u_label, head.w_label]
        assert all(p.grad is None for p in dead)
        assert head.edge_from.w.grad is not None and head.u_edge.grad is not None
        for p in model.params.tensors():
            p.zero_grad()

    def test_empty_terms_is_zero(self, mtl):
        loss = T.multitask_loss(mtl.model.config, {})
        assert float(loss.data) == 0.0

    def test_single_sdp_matches_joint_formula(self, model, prep, mtl):
        cfg = replace(mtl.model.config, frameworks=("dm", "psd"))
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
        assert T.sentence_loss(model, mtl.model.config, prep, FWS) is None


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


# one early-stop metric: corpus MRP F1, the number ensemble selection and
# ``evaluate`` read, for every task but AMR, which keeps its objective

def corpus_f1(model, sentences, fw):
    return T.corpus_report([s.graphs[fw] for s in sentences],
                           [T.parse_sentence(model, s, fw) for s in sentences]
                           ).framework_f1(fw)


@pytest.mark.parametrize("fw", ("dm", "psd", "ucca"))
def test_validator_is_corpus_mrp_f1(mtl, split, fw):
    model, val = mtl.model, split.val_i[fw]
    assert T.TASKS[fw].validator(model, model.config, val)(model) \
        == corpus_f1(model, val, fw)


def test_single_dm_run_keeps_its_best_corpus_mrp_f1(split, corpus):
    # two layers, so that this tiny run parses DM graphs with edges
    cfg = tiny(single_config("dm"), epochs=2, seed=5, layers=2)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        result = T.train_single(split, cfg, corpus.static, corpus.contextual)
    assert result.best_values["dm"] \
        == corpus_f1(result.model_at("dm"), split.val_i["dm"], "dm") > 0.0


def test_amr_early_stops_on_its_objective():
    assert T.TASKS["amr"].mode == "min"


# ---------------------------------------------------------------------------
# training loops

def epoch_file(run_dir, epoch):
    """The bundle file of a kept epoch in a run directory."""
    return os.path.join(str(run_dir), f"epoch-{epoch:04d}.ckpt")


def kept_state(result, epoch):
    """The parameters of a kept epoch, read from its bundle file."""
    return ad.ParamSet.read(result.checkpoints[epoch])[0]


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
        assert len(mtl.history) == mtl.model.config.epochs
        assert set(mtl.best_epochs) == set(FWS) | {"total"}
        for key, epoch in mtl.best_epochs.items():
            assert 0 <= epoch < mtl.model.config.epochs

    def test_snapshots_pruned_to_best_and_last(self, mtl):
        keep = set(mtl.best_epochs.values()) | {mtl.model.config.epochs - 1}
        assert set(mtl.checkpoints) == keep
        # the store holds exactly the bundles the result names
        store = os.path.dirname(mtl.checkpoints[max(keep)])
        assert {epoch_file(store, e) for e in keep} == set(mtl.checkpoints.values())
        assert {os.path.join(store, n) for n in os.listdir(store)
                if n.endswith(".ckpt")} == set(mtl.checkpoints.values())

    def test_temporary_store_lives_as_long_as_its_result(self, split, corpus,
                                                         tmp_path, monkeypatch):
        monkeypatch.setattr(tempfile, "tempdir", str(tmp_path))
        cfg = tiny(single_config("dm"), epochs=2, seed=9)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            res = T.train_single(split, cfg, corpus.static, corpus.contextual)
        (name,) = os.listdir(tmp_path)
        assert name.startswith("mrparse-")
        assert {os.path.dirname(p) for p in res.checkpoints.values()} \
            == {str(tmp_path / name)}
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            del res
            gc.collect()
        assert os.listdir(tmp_path) == []
        assert not [w for w in caught if issubclass(w.category, ResourceWarning)]

    def test_model_at_returns_detached_clone(self, mtl):
        clone = mtl.model_at("total")
        state = kept_state(mtl, mtl.best_epochs["total"])
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
        keep = {epoch_file(tmp_path, e)
                for e in set(res.best_epochs.values()) | {cfg.epochs - 1}}
        assert {os.path.join(str(tmp_path), n) for n in ckpts} == keep
        rows = [json.loads(line) for line in
                (tmp_path / "metrics.jsonl").read_text().splitlines()]
        assert [r["epoch"] for r in rows] == [0, 1]
        assert all("seconds" not in r for r in rows)  # rerun-stable file
        for key, epoch in res.best_epochs.items():
            back = T.load_model(epoch_file(tmp_path, epoch),
                                corpus.static, corpus.contextual)
            assert_same_arrays(res.model_at(key).params.state_dict(),
                               back.params.state_dict())

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
        """Training calls of ``framework_terms`` pass a generator as the
        fourth positional argument, validation calls None or nothing: the
        benchmark's tracer tells the two apart by that argument alone."""
        calls = []
        terms = T.framework_terms

        def spy(*args, **kwargs):
            calls.append((args, kwargs))
            return terms(*args, **kwargs)

        monkeypatch.setattr(T, "framework_terms", spy)
        cfg = tiny(multitask_config(), epochs=1, seed=3)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            res = T.train_multitask(split, cfg, corpus.static, corpus.contextual)
        assert all(not kwargs and len(args) in (3, 4) for args, kwargs in calls)
        rngs = [args[3] if len(args) > 3 else None for args, _ in calls]
        trained = [r for r in rngs if r is not None]
        assert trained and all(isinstance(r, np.random.Generator) for r in trained)
        assert rngs.count(None) == sum(len(split.val_i[fw]) for fw in cfg.frameworks)
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

    def test_nan_guard_raises(self, mtl, corpus, tmp_path, monkeypatch):
        monkeypatch.setattr(tempfile, "tempdir", str(tmp_path))
        made, mkdtemp = [], tempfile.mkdtemp
        monkeypatch.setattr(tempfile, "mkdtemp",
                            lambda **kw: made.append(mkdtemp(**kw)) or made[-1])
        model = mtl.model_at("total")
        model.params._params["encoder.surface_emb"].data[:] = np.nan
        preps = T.prepare_sentences(model, corpus.sentences[:2], ("dm",))
        cfg = replace(mtl.model.config, epochs=1)
        loss_fn = lambda m, p, rng: T.sentence_loss(m, cfg, p, ("dm", "psd"), rng)
        with pytest.raises(T.TrainingDiverged) as err:
            T._train_loop(model, cfg, preps, loss_fn, {}, lambda m: {})
        assert err.value.epoch == 0
        assert err.value.sentence_ids
        # the run made a temporary store, and the error removed it
        assert len(made) == 1 and os.listdir(tmp_path) == []

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
            T._train_loop(mtl.model, mtl.model.config, preps, lambda *a: None, {},
                          lambda m: {})


# ---------------------------------------------------------------------------
# bundles

class TestBundles:
    def test_multi_round_trip(self, mtl, corpus, tmp_path, monkeypatch):
        path = str(tmp_path / "joint.bundle")
        model = mtl.model_at("total")
        model.save(path)
        back = T.load_model(path, corpus.static, corpus.contextual)
        saved = model.params.state_dict()
        assert_same_arrays(saved, ad.ParamSet.read(path)[0])
        assert_same_arrays(saved, back.params.state_dict())
        assert any(arr.ndim == 0 for arr in saved.values())  # the *.b_edge scalars
        sent = corpus.sentences[9]
        fix_width(monkeypatch, 2)
        for fw in FWS:
            a = G.graph_to_json(T.parse_ensemble([model], sent, fw))
            b = G.graph_to_json(T.parse_ensemble([back], sent, fw))
            assert a == b, fw

    def test_pipeline_size_bundle_reads_as_np_load_does(self, tmp_path):
        """The multitask model of the benchmark's recipe, 148 arrays at
        width 0.05, reads member by member as ``np.load`` reads it."""
        treebank = datagen.build_corpus(n=48, seed=7)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")  # validation sizes shrunk to fit
            split = T.split_dataset(treebank.sentences, seed=7)
        cfg = replace(multitask_config(), scale=0.05, batch_size=4,
                      encoder_dropout=0.1, word_drop=0.0).scaled()
        model = T.MultiModel.derive(cfg, split, treebank.static, treebank.contextual)
        path = str(tmp_path / "multitask.bundle")
        model.save(path)
        want, want_extra = reference_read_checkpoint(path)
        got, extra = ad.ParamSet.read(path)
        assert len(got) == 148 and extra == want_extra
        assert_same_arrays(want, got)

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
        start = kept_state(mtl, mtl.best_epochs["ucca"])
        after = ft.model.params.state_dict()
        # untargeted modules never moved off the starting state
        for name in after:
            if name.startswith(("amr.", "dm.", "psd.")):
                assert np.array_equal(after[name], start[name]), name

    def test_target_modules_moved(self, ft, mtl):
        start = kept_state(mtl, mtl.best_epochs["ucca"])
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
        start = kept_state(mtl, mtl.best_epochs["total"])
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
        assert ckpts == {epoch_file(tmp_path, e) for e in {best, 2}}
        back = T.load_model(epoch_file(tmp_path, best),
                            corpus.static, corpus.contextual)
        assert isinstance(back, T.EdsModel)
        assert_same_arrays(model.params.state_dict(), back.params.state_dict())

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

    def test_bundle_rules_carry_the_detector_switches(self, eds, tmp_path):
        """A bundle stores the two switches at the only values any bundle
        has held, so bundles load across versions either way."""
        model, _ = eds
        path = str(tmp_path / "eds.bundle")
        model.save(path)
        rules = ad.ParamSet.read(path)[1]["rules"]
        assert rules["detect_on_nodes"] is True
        assert rules["detect_on_edges"] is False

    def test_needs_paired_gold(self, corpus, mtl):
        stripped = [G.replace(s, graphs={"eds": s.graphs["eds"]})
                    for s in corpus.sentences[:4]]
        split = T.DataSplit(train={"eds": stripped}, val_i={}, val_ii={})
        with pytest.raises(ValueError, match="both EDS and DM"):
            with pytest.warns(UserWarning, match="lack paired DM"):
                T.train_eds(split, tiny(multitask_config(), epochs=1),
                            mtl.model.static, mtl.model.contextual,
                            datagen.conversion_rules(), encoder_from=mtl.model)

    def test_no_detector_site_leaves_detectors_untrained(self, mtl, split, corpus):
        # DM gold without nodes gives no site to fit the detectors on
        def nodeless_dm(s):
            dm = G.replace(s.graphs["dm"], nodes=(), edges=(), tops=())
            return G.replace(s, graphs={**s.graphs, "dm": dm})

        bare = T.DataSplit(train={"eds": [nodeless_dm(s) for s in split.train["eds"]]},
                           val_i={"eds": [nodeless_dm(s) for s in split.val_i["eds"]]},
                           val_ii={})
        cfg = tiny(multitask_config(), epochs=1, seed=3)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            model, _ = T.train_eds(bare, cfg, corpus.static, corpus.contextual,
                                   corpus.rules, encoder_from=mtl.model)
        untrained = [w for w in caught if "detectors stay untrained" in str(w.message)]
        assert len(untrained) == 1
        fresh = E.build_abstract_models(
            ad.ParamSet(), rng=np.random.default_rng(cfg.seed + 2),
            **E.abstract_shape([]))
        for got, want in zip((model.abstract.detector, model.abstract.node_labeler,
                              model.abstract.edge_labeler),
                             (fresh.detector, fresh.node_labeler, fresh.edge_labeler)):
            assert np.array_equal(got.w.data, want.w.data)
            assert np.array_equal(got.b.data, want.b.data)

    def test_token_states_record_no_graph(self, eds, corpus, monkeypatch):
        converter, _ = eds
        recorded = record_graph_tensors(monkeypatch)
        states = converter.token_states(corpus.sentences[8])
        assert recorded == []
        assert states.parents == () and not states.requires_grad
        assert all(p.grad is None for p in converter.params.tensors())
        sent = corpus.sentences[8]
        ctx = converter.contextual.for_sentence(sent.id, len(sent.tokens))
        [enc] = converter.encoder.run([(sent.tokens, ctx)])
        assert np.array_equal(states.data, enc.top.data[1:])
        assert recorded  # the spy sees the taped encoder pass


def test_training_releases_gradients(split, corpus, monkeypatch):
    """Every regime returns a model without the last minibatch's
    gradients and without a view of the optimizer's gradient store; the
    release leaves the trained weights as they were.  The frozen EDS
    encoder never gets a slot in the store, so no moments."""
    cfg = tiny(multitask_config(), epochs=1, seed=3)
    emb = (corpus.static, corpus.contextual)
    step = ad.Adam.step
    stored = set()  # ids of the parameters with a slot after an EDS step

    def spy(self):
        step(self)
        stored.update(id(p) for p in self.params if p.grad_home is not None)

    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        res = T.train_multitask(split, cfg, *emb)
        tuned = T.fine_tune(res, "ucca", replace(cfg, seed=12), split, *emb)
        monkeypatch.setattr(ad.Adam, "step", spy)
        converter, _ = T.train_eds(split, cfg, *emb, corpus.rules,
                                   encoder_from=res.model)
    for model in (res.model, tuned.model, converter):
        assert all(p.grad is None and p.grad_home is None
                   for p in model.params.tensors())
    encoder = [converter.params[name] for name in converter.params.state_dict()
               if name.startswith(f"{PARAM_PREFIX}.")]
    assert encoder and stored and not stored & {id(p) for p in encoder}
    for run in (res, tuned):
        last = kept_state(run, len(run.history) - 1)
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

    @staticmethod
    def fake_scores(monkeypatch, table):
        """Make a member subset score ``table[member ids]``: each model is
        its own index, its prediction the same, and a decode the tuple
        of the predictions it combines."""
        monkeypatch.setattr(T, "predict", lambda m, sents, fw: [m] * len(sents))
        monkeypatch.setattr(T, "decode_predictions",
                            lambda models, s, fw, preds: tuple(preds))
        monkeypatch.setattr(T, "corpus_report", lambda golds, graphs, scored: SimpleNamespace(
            framework_f1=lambda fw: table[graphs[0]]))

    def test_build_ensemble_amr_takes_single_best(self, corpus, monkeypatch):
        self.fake_scores(monkeypatch, {(0,): 0.3, (1,): 0.6, (2,): 0.5})
        spec, score = T.build_ensemble([0, 1, 2], "amr", corpus.sentences[8:])
        assert spec == T.EnsembleSpec("amr", (1,), "single")
        assert score == 0.6

    def test_build_ensemble_rules(self, corpus, monkeypatch):
        self.fake_scores(monkeypatch, {(0,): 0.3, (1,): 0.6, (1, 0): 0.7})
        for fw, rule in (("dm", "average"), ("ucca", "vote")):
            spec, score = T.build_ensemble([0, 1], fw, corpus.sentences[8:])
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


# ---------------------------------------------------------------------------
# inference fast path: parsing under ad.no_grad() changes no value; the
# batched AMR beam decodes what one step per hypothesis decodes, its
# floats within 1e-10 (its batched products round differently)

HELD = slice(6, 10)


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
    def test_amr_decoder_matches_reference(self, model, corpus, width,
                                           monkeypatch):
        truncated = 0
        fix_width(monkeypatch, width)
        for cap in (A.default_cap, lambda n_tokens: 2):
            monkeypatch.setattr(A, "default_cap", cap)
            for sent in corpus.sentences[HELD]:
                ctx = model.amr_context(sent, *model.encode([sent]))
                want = reference_beam_search(ctx)
                taped = A.beam_search(ctx)
                assert_same_generation(want, taped, tol=BEAM_TOL)
                with ad.no_grad():
                    got = A.beam_search(ctx)
                assert_same_generation(taped, got)
                truncated += got.truncated
        assert truncated  # the small cap cuts some decodes short

    @pytest.mark.parametrize("width", [1, 2, 5])
    def test_amr_graphs_match_reference(self, model, corpus, width,
                                        monkeypatch):
        sents = corpus.sentences[HELD]
        fix_width(monkeypatch, width)
        got = [G.graph_to_json(T.parse_ensemble([model], s, "amr")) for s in sents]
        monkeypatch.setattr(A, "beam_search", reference_beam_search)
        want = [G.graph_to_json(T.parse_ensemble([model], s, "amr")) for s in sents]
        assert got == want

    @pytest.mark.parametrize("width", [2, 5])
    def test_amr_beam_stops_early_as_the_reference_decodes(self, model, corpus,
                                                           width, monkeypatch):
        steps = count_decoder_steps(monkeypatch)
        # The two-epoch fixture spreads its rows thin, about 2.5 nats a
        # node, so no finish clears the live bound before the cap; raising
        # END by 2 nats brings finishes early enough for the stop to fire.
        bias = model.amr_decoder.vocab_head.b
        raised = bias.data.copy()
        raised[model.amr_vocab.end_index] += 2.0
        early = 0
        fix_width(monkeypatch, width)
        for data in (bias.data, raised):
            monkeypatch.setattr(bias, "data", data)
            for sent in corpus.sentences[HELD]:
                ctx = model.amr_context(sent, *model.encode([sent]))
                steps.clear()
                with ad.no_grad():
                    got = A.beam_search(ctx)
                early += len(steps) < A.default_cap(len(ctx.lemmas)) + 1
                assert_same_generation(reference_beam_search(ctx), got, tol=BEAM_TOL)
        assert early

    @pytest.mark.parametrize("fw", FWS)
    def test_parse_sentence_same_with_and_without_no_grad(self, model, corpus, fw):
        for sent in corpus.sentences[HELD]:
            taped = T.parse_ensemble.__wrapped__([model], sent, fw)
            fast = T.parse_sentence(model, sent, fw)
            assert G.graph_to_json(fast) == G.graph_to_json(taped)

    def test_val_loss_same_with_and_without_no_grad(self, model, corpus, mtl):
        preps = T.prepare_sentences(model, corpus.sentences[HELD], FWS)
        loss_fn = lambda p: T.sentence_loss(model, mtl.model.config, p, FWS)
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
        T._val_loss(preps, lambda p: T.sentence_loss(model, mtl.model.config, p, FWS),
                    "all")
        converter.parse(sent, sent.graphs["dm"])
        assert recorded == []
        for p in model.params.tensors() + converter.params.tensors():
            assert p.grad is None
        T.sentence_loss(model, mtl.model.config, preps[0], FWS)
        assert recorded  # the spy sees graphs outside the fast path


# First 16 hex digits of the sha256 of the graph JSON lines (sorted keys)
# that parsing held-out sentences with ``fixed_models`` gives, recorded
# at the commit before teacher forcing ran whole sequences (DM and PSD
# when threshold decoding stopped adopting self-loops).  The models do
# not depend on decoder training, so parsing must keep these bytes.
PARSE_DIGESTS = {"dm": "8cf433fb38c4f077", "psd": "38520552ce112cd7",
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


# First 16 hex digits of the sha256 of every field of the AMR decodes of
# the held-out sentences with ``fixed_models``: labels, copies, source
# tokens, the log-probability's bytes and each node state's bytes.
# ``PARSE_DIGESTS["amr"]`` hashes graph text, which survives a change in
# the last bit of a state; this pins the decoder's floats themselves.
# Recorded before the decoder's layers ran as one stacked LSTM call.
AMR_DECODE_DIGESTS = {"beam": "dd3c0db693988ab0"}


@pytest.mark.parametrize("search", sorted(AMR_DECODE_DIGESTS))
def test_amr_decode_pinned(fixed_models, corpus, search):
    model = fixed_models[0]
    h = hashlib.sha256()
    for sent in corpus.sentences[HELD]:
        ctx = model.amr_context(sent, *model.encode([sent]))
        with ad.no_grad():
            gen = A.beam_search(ctx)
        h.update(json.dumps([gen.labels, gen.copy_of, gen.src_token,
                             gen.truncated]).encode())
        h.update(np.float64(gen.log_prob).tobytes())
        for state in gen.states:
            h.update(state.data.tobytes())
    assert h.hexdigest()[:16] == AMR_DECODE_DIGESTS[search]


@pytest.mark.parametrize("fw", ("dm", "psd", "ucca"))
def test_parsed_graphs_have_no_self_loops(fixed_models, corpus, fw):
    graphs = [T.parse_sentence(fixed_models[0], s, fw) for s in corpus.sentences[HELD]]
    assert all(e.source != e.target for g in graphs for e in g.edges)


# First 16 hex digits of the sha256 of a run's trained parameters (in
# name order) and its history JSON (wall time dropped), recorded when
# the LSTM op became a whole-sequence kernel.  single-psd, fine-tune-dm
# and fine-tune-psd were recorded again when DM and PSD began to
# early-stop on corpus MRP F1 instead of a mean labeled dependency F1:
# their histories hold nonzero validation F1, and only those values
# moved, not the parameters or the best epochs (single-dm's read 0.0
# under both).  Every regime must keep its parameter draws, dropout
# draws and summation order.
TRAINING_DIGESTS = {
    "multitask": "3634c57cab856766",
    "single-dm": "b23ebab1f4c70383", "single-psd": "6ea9ba11a8a30544",
    "single-ucca": "82eb76b3079a2fa5", "single-amr": "1ab293024f959be0",
    "fine-tune-dm": "eac9a66486da29e9", "fine-tune-psd": "ba46f75e0e79d71a",
    "fine-tune-ucca": "6749d53ee56dc167", "fine-tune-amr": "b2f3d8800ddd4132",
}


def training_digest(result):
    h = hashlib.sha256()
    for name, arr in sorted(result.model.params.state_dict().items()):
        h.update(name.encode())
        h.update(arr.tobytes())
    history = [{k: v for k, v in r.items() if k != "seconds"}
               for r in result.history]
    h.update(json.dumps(history, sort_keys=True).encode())
    return h.hexdigest()[:16]


@pytest.mark.parametrize("run", sorted(TRAINING_DIGESTS))
def test_training_pinned(run, mtl, split, corpus):
    emb = (corpus.static, corpus.contextual)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        if run == "multitask":
            result = mtl
        elif run.startswith("single-"):
            fw = run[len("single-"):]
            result = T.train_single(split, tiny(single_config(fw), epochs=2, seed=5),
                                    *emb)
        else:
            fw = run[len("fine-tune-"):]
            result = T.fine_tune(mtl, fw, tiny(fine_tune_config(fw), epochs=1, seed=6),
                                 split, *emb)
    assert training_digest(result) == TRAINING_DIGESTS[run]


# ---------------------------------------------------------------------------
# batched inference: one encoder pass per model over a ragged batch gives
# each sentence the predictions and the graph it gets alone

EMPTY = G.Sentence(id="empty", tokens=(), graphs={})


@pytest.fixture
def with_empty(corpus, monkeypatch):
    """Contextual rows for EMPTY, a sentence without tokens."""
    ctx = corpus.contextual
    monkeypatch.setitem(ctx.arrays, EMPTY.id, np.zeros((ctx.n_layers, 0, ctx.width)))
    held = list(corpus.sentences[HELD])
    return held[:2] + [EMPTY] + held[2:]


def assert_same_prediction(got, want):
    """Arrays and floats within 1e-12, all else equal: a DM or PSD tuple,
    a ``UccaPrediction`` or AMR's (generation, edge, label)."""
    if isinstance(got, ad.Tensor):
        got, want = got.data, want.data
    if isinstance(got, (np.ndarray, float)):
        np.testing.assert_allclose(got, want, rtol=0.0, atol=1e-12)
    elif isinstance(got, (A.AmrGeneration, U.UccaPrediction)):
        for f in fields(got):
            assert_same_prediction(getattr(got, f.name), getattr(want, f.name))
    elif isinstance(got, (tuple, list)):
        assert len(got) == len(want)
        for a, b in zip(got, want):
            assert_same_prediction(a, b)
    else:
        assert got == want


@pytest.mark.parametrize("fw", FWS)
def test_batched_predictions_are_each_sentences_own(model, with_empty, fw, monkeypatch):
    fix_width(monkeypatch, 2)
    with ad.no_grad():
        batched = T.predict(model, with_empty, fw)
        for sent, pred in zip(with_empty, batched):
            [alone] = T.predict(model, [sent], fw)
            assert_same_prediction(pred, alone)
            graphs = [T.decode_predictions([model], sent, fw, [p]) for p in (pred, alone)]
            assert G.graph_to_json(graphs[0]) == G.graph_to_json(graphs[1])


def test_ucca_decodes_a_batch_in_lockstep(model, with_empty, monkeypatch):
    """One LSTM call per encoder layer, per lockstep step (as many as the
    longest lone decode takes) and for all the slot states: one
    ``BiLstm.run`` for the encoder and one for the slot states."""
    with ad.no_grad():
        steps = [len(T.predict(model, [s], "ucca")[0].pointers) for s in with_empty]
        lstm = spy(monkeypatch, ad, "lstm_sequence")
        runs = spy(monkeypatch, BiLstm, "run")
        T.predict(model, with_empty, "ucca")
    assert len(runs) == 2
    assert len(lstm) == model.config.layers + max(steps) + 1 < sum(steps)


def test_ucca_remote_head_scores_edges_only(model, with_empty):
    """Nothing reads its labels, so ``predict`` builds no label scores for
    it; its edge probabilities are its full score's, bit for bit."""
    head, dec, extra = model.remote_head, model.ucca_decoder, model.ucca_extra
    with ad.no_grad():
        with pytest.MonkeyPatch.context() as mp:
            labels = spy(mp, ad, "biaffine_label")
            batched = T.predict(model, with_empty, "ucca")
            [alone] = T.predict(model, with_empty[:1], "ucca")
        [enc] = model.encode(with_empty[:1])
        states = (U.node_states_batch(model.encode(with_empty),
                                      [p.pointers for p in batched], dec, extra)
                  + [U.build_node_states(enc, alone.pointers, dec, extra)])
    assert len(labels) == len(states)
    assert all(args[1] is model.heads["ucca"].u_label for args in labels)
    for pred, slot_states in zip(batched + [alone], states):
        assert pred.remote_probs.tobytes() == head.score(slot_states).edge_probs.data.tobytes()


@pytest.mark.parametrize("fw", ("dm", "psd", "ucca"))
def test_heads_run_once_per_batch(model, with_empty, fw, monkeypatch):
    """Each MLP pair of a head runs once over the batch's rows, and the
    frame classifier once; then each sentence gets one ``biaffine_edge``
    per head and one ``biaffine_label`` per head but the remote one."""
    heads = [model.heads[fw]] + ([model.remote_head] if fw == "ucca" else [])
    with ad.no_grad():
        mlps, edges, labels = (spy(monkeypatch, ad, name)
                               for name in ("mlp", "biaffine_edge", "biaffine_label"))
        frames = spy(monkeypatch, S.FrameClassifier, "predict")
        T.predict(model, with_empty, fw)
    for head in heads:
        n_labels = 0 if head is model.remote_head else 1
        assert [sum(isinstance(args[1], tuple) and args[1][0] is first.w for args in mlps)
                for first in (head.edge_from, head.label_from)] == [1, n_labels]
        assert sum(args[1] is head.u_edge for args in edges) == len(with_empty)
        assert sum(args[1] is head.u_label for args in labels) == n_labels * len(with_empty)
    assert len(frames) == (fw == "dm")


@pytest.mark.parametrize("fw", FWS + ("eds",))
def test_a_sentence_without_tokens_parses_alone_and_in_a_batch(fixed_models,
                                                              with_empty, fw):
    """Every framework parses it to a valid graph, AMR to the graph of an
    empty generation and the others to no nodes at all."""
    model, converter = fixed_models
    source = "dm" if fw == "eds" else fw
    with ad.no_grad():
        pred = T.predict(model, with_empty, source)[2]
        graphs = [T.decode_predictions([model], EMPTY, source, [pred]),
                  T.parse_sentence(model, EMPTY, source)]
    if fw == "eds":
        graphs = [converter.parse(EMPTY, g)[0] for g in graphs]
    assert G.graph_to_json(graphs[0]) == G.graph_to_json(graphs[1])
    assert G.validate_graph(graphs[0]) == []
    assert len(graphs[0].nodes) == (fw == "amr")


# ---------------------------------------------------------------------------
# ensemble selection from cached predictions: the spec and F1 of
# re-parsing every tried subset, the graphs of parse_ensemble for every
# tried subset, and one prediction per member and sentence

@pytest.fixture(scope="module")
def members(mtl, ft, fixed_models):
    """Three different models over the same inventories."""
    return [mtl.model, ft.model, fixed_models[0]]


def count_calls(monkeypatch, name):
    """A list that grows by one on each call of ``T.<name>``."""
    calls = []
    fn = getattr(T, name)

    def counted(*args, **kwargs):
        calls.append(args)
        return fn(*args, **kwargs)

    monkeypatch.setattr(T, name, counted)
    return calls


class TestCachedSelection:
    @pytest.mark.parametrize("fw", FWS)
    def test_same_spec_and_f1_as_reparsing(self, members, corpus, fw, monkeypatch):
        sents = corpus.sentences[HELD]
        fix_width(monkeypatch, 2)
        got = T.build_ensemble(members, fw, sents)
        assert got == reference_build_ensemble(members, fw, sents)

    @pytest.mark.parametrize("fw", ("dm", "psd", "ucca"))
    def test_every_tried_subset_decodes_as_parse_ensemble(self, members, corpus,
                                                          fw, monkeypatch):
        decoded = []
        decode = T.decode_predictions

        def spy(models, sent, framework, preds):
            graph = decode(models, sent, framework, preds)
            decoded.append((models, sent, graph))
            return graph

        monkeypatch.setattr(T, "decode_predictions", spy)
        T.build_ensemble(members, fw, corpus.sentences[HELD])
        monkeypatch.undo()
        assert any(len(models) > 1 for models, _, _ in decoded)
        for models, sent, graph in decoded:
            got = G.graph_to_json(graph)
            assert got == G.graph_to_json(T.parse_ensemble(models, sent, fw))
            assert got == G.graph_to_json(reference_parse_ensemble(models, sent, fw))

    @pytest.mark.parametrize("fw", FWS)
    def test_one_prediction_per_member_and_sentence(self, members, corpus, fw,
                                                    monkeypatch):
        sents = corpus.sentences[HELD]
        calls = count_calls(monkeypatch, "predict")
        parses = count_calls(monkeypatch, "parse_ensemble")
        encodes = []
        encode = T.MultiModel.encode

        def counted_encode(self, sentences, **kwargs):
            encodes.append([s.id for s in sentences])
            return encode(self, sentences, **kwargs)

        monkeypatch.setattr(T.MultiModel, "encode", counted_encode)
        fix_width(monkeypatch, 2)
        T.build_ensemble(members, fw, sents)
        assert [(args[0], list(args[1])) for args in calls] == [(m, sents) for m in members]
        assert {args[2] for args in calls} == {fw}
        # one encoder pass per member, over every sentence
        assert encodes == [[s.id for s in sents]] * len(members)
        assert parses == []

    @pytest.mark.parametrize("fw", FWS)
    def test_each_distinct_graph_is_scored_once(self, members, corpus, fw, monkeypatch):
        decoded = []
        decode = T.decode_predictions

        def recorded(models, sent, framework, preds):
            graph = decode(models, sent, framework, preds)
            decoded.append((sent.id, graph))
            return graph

        monkeypatch.setattr(T, "decode_predictions", recorded)
        scored = spy(monkeypatch, T.scoring, "mrp_f1")
        fix_width(monkeypatch, 2)
        T.build_ensemble(members, fw, corpus.sentences[HELD])
        assert len(scored) == len(set(decoded))
        assert {(gold.id, graph) for gold, graph in scored} == set(decoded)
        if fw != "amr":  # members and subsets often decode the same graph
            assert len(scored) < len(decoded)

    @pytest.mark.parametrize("fw", ("dm", "ucca", "amr"))
    def test_an_empty_carve_out_raises_before_predicting(self, members, fw, monkeypatch):
        calls = count_calls(monkeypatch, "predict")
        with pytest.raises(ValueError, match=f"^build_ensemble needs at least one {fw} sentence$"):
            T.build_ensemble(members, fw, [])
        assert calls == []

    def test_member_without_the_decoder_raises_as_before(self, split, corpus):
        sents = corpus.sentences[HELD]
        for served, fw, message in ((("dm", "psd"), "ucca", "model has no ucca decoder"),
                                    (("dm", "psd"), "amr", "model has no amr decoder"),
                                    (("ucca",), "dm", "model has no dm head")):
            cfg = tiny(multitask_config(), frameworks=served, seed=5)
            model = T.MultiModel.derive(cfg, split, corpus.static, corpus.contextual)
            for build in (T.build_ensemble, reference_build_ensemble):
                with pytest.raises(ValueError, match=f"^{message}$"):
                    build([model], fw, sents)


# ---------------------------------------------------------------------------
# gradient ownership: the first gradient a tensor receives is copied, not
# added to zeros

def zeros_plus_add(self, g):
    """``Tensor.accumulate`` as it was: every gradient added to zeros."""
    if self.grad is None:
        self.grad = np.zeros_like(self.data)
    self.grad += g


class TestGradientOwnership:
    @pytest.fixture(autouse=True)
    def release_gradients(self, model):
        yield
        for p in model.params.tensors():
            p.zero_grad()

    def backward(self, model, cfg, prep):
        """Every tensor of one multitask graph after its backward pass,
        in topological order, and each gradient it received."""
        received = []
        accumulate = ad.Tensor.accumulate

        def spy(self, g):
            received.append((self, g))
            accumulate(self, g)

        for p in model.params.tensors():
            p.zero_grad()
        loss = T.sentence_loss(model, cfg, prep, FWS)
        ad.Tensor.accumulate = spy
        try:
            loss.backward()
        finally:
            ad.Tensor.accumulate = accumulate
        return ad._toposort(loss), received

    def test_gradients_equal_zeros_plus_add(self, model, mtl, prep,
                                            monkeypatch):
        new, _ = self.backward(model, mtl.model.config, prep)
        new = [t.grad for t in new]
        monkeypatch.setattr(ad.Tensor, "accumulate", zeros_plus_add)
        old, _ = self.backward(model, mtl.model.config, prep)
        old = [t.grad for t in old]
        assert len(new) == len(old) and sum(g is not None for g in new) > 100
        for n, o in zip(new, old):
            assert (n is None) == (o is None)
            if n is None:
                continue
            assert (n.dtype, n.shape) == (o.dtype, o.shape)
            assert np.array_equal(n, o)
            signs = np.signbit(n) != np.signbit(o)
            assert np.all(n[signs] == 0.0)  # a -0.0 stays -0.0

    def test_no_gradient_aliases_another_array(self, model, mtl, prep):
        tensors, received = self.backward(model, mtl.model.config, prep)
        datas = [t.data for t in tensors]
        for t in tensors:
            if t.grad is None:
                continue
            incoming = [g for owner, g in received if owner is t]
            grads = [u.grad for u in tensors if u is not t and u.grad is not None]
            for other in incoming + datas + grads:
                if np.may_share_memory(t.grad, other):
                    assert not np.shares_memory(t.grad, other)
