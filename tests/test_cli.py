"""End-to-end command line tests over an on-disk synthetic corpus.

Each training invocation runs at two percent width for a couple of
epochs; the chained fixture trains once per module and the tests poke
at the artifacts.
"""

import io
import json
import os
import subprocess
import sys
import textwrap
import zipfile
from dataclasses import replace
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

import mrparse.autodiff as ad
import mrparse.graphs as G
from mrparse import cli, datagen
from mrparse import training as T
from mrparse.cli import run

from conftest import write_corpus


@pytest.fixture(scope="module")
def ws(tmp_path_factory):
    """Corpus on disk plus one run directory per training regime."""
    root = tmp_path_factory.mktemp("cli")
    corpus = datagen.build_corpus(n=10, seed=7)
    paths = write_corpus(corpus, str(root / "data"))
    paths["root"] = str(root)

    def train(regime, out, *extra):
        argv = ["train", "--companion", paths["companion"],
                "--static", paths["static"], "--contextual", paths["contextual"],
                "--regime", regime, "--out", out,
                "--batch-size", "4", "--seed", "3", *extra]
        for fw in G.FRAMEWORKS:
            argv += ["--mrp", paths[fw]]
        assert run(argv) == 0, regime
        return out

    # fine-tune and eds take their widths from the multitask model
    paths["single"] = train("single", str(root / "single"), "--scale", "0.02",
                            "--framework", "dm", "--epochs", "2")
    paths["mtl"] = train("multitask", str(root / "mtl"), "--scale", "0.02",
                         "--epochs", "1")
    paths["mtl_bundle"] = os.path.join(paths["mtl"], "model-total.bundle")
    with open(paths["mtl_bundle"], "rb") as fh:
        paths["mtl_bundle_bytes"] = fh.read()
    paths["ft"] = train("fine-tune", str(root / "ft"),
                        "--framework", "ucca", "--epochs", "1",
                        "--from-model", paths["mtl_bundle"])
    paths["eds_run"] = train("eds", str(root / "eds"),
                             "--epochs", "2", "--rules", paths["rules"],
                             "--from-model", paths["mtl_bundle"])
    return paths


def embed_args(ws):
    return ["--static", ws["static"], "--contextual", ws["contextual"]]


# ---------------------------------------------------------------------------
# train artifacts

def test_train_single_artifacts(ws):
    names = set(os.listdir(ws["single"]))
    assert {"config.json", "metrics.jsonl",
            "model-dm.bundle", "model-psd.bundle"} <= names
    cfg = json.loads(Path(ws["single"], "config.json").read_text())
    assert cfg["frameworks"] == ["dm", "psd"]
    rows = [json.loads(l) for l in
            Path(ws["single"], "metrics.jsonl").read_text().splitlines()]
    assert [r["epoch"] for r in rows] == [0, 1]


def test_train_multitask_writes_one_bundle_per_metric(ws):
    names = set(os.listdir(ws["mtl"]))
    expect = {f"model-{k}.bundle" for k in ("dm", "psd", "ucca", "amr", "total")}
    assert expect <= names


def test_fine_tune_and_eds_artifacts(ws):
    assert "model-ucca.bundle" in os.listdir(ws["ft"])
    assert "model-eds.bundle" in os.listdir(ws["eds_run"])


def test_train_bundles_are_copies_of_the_kept_epochs(ws):
    for run in ("single", "mtl", "ft"):
        rows = [json.loads(line) for line in
                Path(ws[run], "metrics.jsonl").read_text().splitlines()]
        for key, epoch in rows[-1]["best"].items():
            epoch = len(rows) - 1 if epoch is None else epoch
            with open(os.path.join(ws[run], f"model-{key}.bundle"), "rb") as fh:
                bundle = fh.read()
            with open(os.path.join(ws[run], f"epoch-{epoch:04d}.ckpt"), "rb") as fh:
                assert bundle == fh.read(), (run, key)


def test_training_from_a_bundle_leaves_it_untouched(ws):
    # the fine-tune and eds runs of the fixture both start from it
    with open(ws["mtl_bundle"], "rb") as fh:
        assert fh.read() == ws["mtl_bundle_bytes"]


def test_config_file_and_flag_precedence(ws, tmp_path):
    override = tmp_path / "cfg.json"
    override.write_text(json.dumps({"epochs": 7, "lam_label": 0.5}))
    out = str(tmp_path / "run")
    argv = ["train", "--companion", ws["companion"], *embed_args(ws),
            "--regime", "single", "--framework", "dm", "--out", out,
            "--config", str(override), "--epochs", "1",
            "--scale", "0.02", "--seed", "3"]
    for fw in ("dm", "psd", "ucca", "amr"):
        argv += ["--mrp", ws[fw]]
    assert run(argv) == 0
    cfg = json.loads(Path(out, "config.json").read_text())
    assert cfg["lam_label"] == 0.5   # file beats preset
    assert cfg["epochs"] == 1        # flag beats file


def test_train_rejects_unknown_config_keys(ws, tmp_path):
    override = tmp_path / "cfg.json"
    override.write_text(json.dumps({"learning_rate": 1.0}))
    argv = ["train", "--companion", ws["companion"], *embed_args(ws),
            "--regime", "multitask", "--out", str(tmp_path / "x"),
            "--config", str(override), "--mrp", ws["dm"]]
    assert run(argv) == 1


def test_cli_fine_tuning_loads_no_model(ws, tmp_path, monkeypatch):
    # the fixture's fine-tune run again, with every model load counted:
    # fine-tuning reads its start bundle's header and parameters itself
    loads = []
    load = T.load_model
    monkeypatch.setattr(T, "load_model", lambda *args: loads.append(args) or load(*args))
    out = tmp_path / "ft"
    argv = ["train", "--companion", ws["companion"], *embed_args(ws),
            "--regime", "fine-tune", "--out", str(out), "--batch-size", "4",
            "--seed", "3", "--framework", "ucca", "--epochs", "1",
            "--from-model", ws["mtl_bundle"]]
    for fw in G.FRAMEWORKS:
        argv += ["--mrp", ws[fw]]
    assert run(argv) == 0
    assert loads == []
    assert sorted(os.listdir(out)) == sorted(os.listdir(ws["ft"]))
    for name in os.listdir(out):
        assert (out / name).read_bytes() == Path(ws["ft"], name).read_bytes(), name


@pytest.mark.parametrize("where", ["config", "bundle"])
def test_removed_config_key_is_one_line_error(ws, tmp_path, capsys, where):
    # ucca_edge was one of the four UCCA-only loss weights
    if where == "config":
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"ucca_edge": 0.3}))
        argv = ["train", "--companion", ws["companion"], *embed_args(ws),
                "--regime", "single", "--framework", "ucca",
                "--out", str(tmp_path / "x"), "--config", str(path),
                "--scale", "0.02", "--epochs", "1", "--mrp", ws["ucca"]]
    else:
        state, extra = ad.ParamSet.read(ws["mtl_bundle"])
        extra["config"]["ucca_edge"] = 0.3
        old = ad.ParamSet()
        for name, arr in state.items():
            old.new_from(name, arr)
        path = tmp_path / "old.bundle"
        old.save(path, extra=extra)
        argv = ["parse", "--companion", ws["companion"], *embed_args(ws),
                "--model", str(path), "--framework", "dm",
                "--out", str(tmp_path / "x.mrp")]
    assert run(argv) == 1
    err = capsys.readouterr().err
    assert [line for line in err.splitlines() if line.startswith("error:")] \
        == [f"error: {path}: unknown configuration keys: ['ucca_edge']"]
    assert "Traceback" not in err


@pytest.mark.parametrize("flag, regime, extra", [
    ("--framework", "multitask", ["--framework", "dm"]),
    ("--from-model", "single", ["--framework", "dm", "--from-model", "m"]),
    ("--rules", "single", ["--framework", "dm", "--rules", "r"]),
    ("--bug-compatible", "fine-tune",
     ["--framework", "ucca", "--from-model", "m", "--bug-compatible"]),
    ("--scale", "fine-tune",
     ["--framework", "dm", "--from-model", "m", "--scale", "0.5"]),
    ("--scale", "eds", ["--rules", "r", "--from-model", "m", "--scale", "0.5"]),
    ("--config keys hidden, scale", "fine-tune",
     ["--framework", "dm", "--from-model", "m", "--config", "WIDTHS"]),
    ("--config keys hidden, scale", "eds",
     ["--rules", "r", "--from-model", "m", "--config", "WIDTHS"]),
], ids=["framework", "from-model", "rules", "bug-compatible", "scale-fine-tune",
        "scale-eds-from-model", "config-widths-fine-tune",
        "config-widths-eds-from-model"])
def test_train_rejects_a_flag_its_regime_ignores(tmp_path, capsys, flag,
                                                 regime, extra):
    # no input but the config exists: the usage error comes before
    # anything else is loaded
    widths = tmp_path / "widths.json"
    widths.write_text('{"hidden": 50, "scale": 0.5, "epochs": 2}')
    extra = [str(widths) if a == "WIDTHS" else a for a in extra]
    out = tmp_path / "run"
    code = run(["train", "--companion", str(tmp_path / "c"),
                "--mrp", str(tmp_path / "g"), "--static", str(tmp_path / "s"),
                "--contextual", str(tmp_path / "x"), "--regime", regime,
                "--out", str(out), *extra])
    assert code == 2
    (line,) = capsys.readouterr().err.splitlines()
    assert flag in line
    assert not out.exists()


@pytest.mark.parametrize("regime", ["single", "fine-tune"])
def test_train_has_no_eds_framework(tmp_path, capsys, regime):
    # no input exists: argparse refuses the choice before anything is loaded
    out = tmp_path / "run"
    code = run(["train", "--companion", str(tmp_path / "c"),
                "--mrp", str(tmp_path / "g"), "--static", str(tmp_path / "s"),
                "--contextual", str(tmp_path / "x"), "--regime", regime,
                "--framework", "eds", "--from-model", str(tmp_path / "m"),
                "--out", str(out)])
    assert code == 2
    (line,) = capsys.readouterr().err.splitlines()
    assert "invalid choice: 'eds'" in line
    assert not out.exists()


def test_train_eds_without_detector_sites_finishes(tmp_path, capsys):
    corpus = datagen.build_corpus(n=10, seed=7)
    sents = [G.replace(s, graphs={**s.graphs, "dm": G.replace(
                 s.graphs["dm"], nodes=(), edges=(), tops=())})
             for s in corpus.sentences]
    paths = write_corpus(replace(corpus, sentences=sents), str(tmp_path / "data"))
    out = tmp_path / "eds"
    with pytest.warns(UserWarning, match="detectors stay untrained"):
        code = run(["train", "--companion", paths["companion"],
                    "--static", paths["static"], "--contextual", paths["contextual"],
                    "--regime", "eds", "--out", str(out), "--rules", paths["rules"],
                    "--scale", "0.02", "--batch-size", "4", "--seed", "3",
                    "--epochs", "1", "--mrp", paths["dm"], "--mrp", paths["eds"]])
    assert code == 0
    assert "Traceback" not in capsys.readouterr().err
    assert (out / "model-eds.bundle").exists()


# ---------------------------------------------------------------------------
# parse

@pytest.mark.parametrize("cmd, flag, extra", [
    ("parse", "--beam", ["--model", "m", "--framework", "dm", "--beam", "2"]),
    ("parse", "--dm-model", ["--model", "m", "--framework", "psd",
                             "--dm-model", "d"]),
    ("parse", "--dm-mrp", ["--model", "m", "--framework", "ucca",
                           "--dm-mrp", "d"]),
    ("ensemble", "--beam", ["--gold", "g", "--model", "m", "--framework", "ucca",
                            "--beam", "2"]),
    ("parse", "--beam", ["--model", "m", "--framework", "amr", "--beam", "0"]),
    ("ensemble", "--beam", ["--gold", "g", "--model", "m", "--framework", "amr",
                            "--beam", "-1"]),
], ids=["parse-beam", "parse-dm-model", "parse-dm-mrp", "ensemble-beam",
        "parse-beam-zero", "ensemble-beam-negative"])
def test_a_flag_the_framework_ignores_is_usage_error(tmp_path, capsys, cmd, flag,
                                                      extra):
    # no input exists: the usage error comes before anything is loaded
    out = tmp_path / "out"
    code = run([cmd, "--companion", str(tmp_path / "c"),
                "--static", str(tmp_path / "s"), "--contextual", str(tmp_path / "x"),
                "--out", str(out), *extra])
    assert code == 2
    (line,) = capsys.readouterr().err.splitlines()
    assert flag in line
    assert not out.exists()


def test_parse_each_framework(ws, tmp_path):
    for fw, bundle_dir, key in (("dm", "single", "dm"),
                                ("psd", "single", "psd"),
                                ("ucca", "mtl", "ucca"),
                                ("amr", "mtl", "amr")):
        out = str(tmp_path / f"{fw}.mrp")
        beam = ["--beam", "2"] if fw == "amr" else []
        code = run(["parse", "--companion", ws["companion"], *embed_args(ws),
                    "--model", os.path.join(ws[bundle_dir], f"model-{key}.bundle"),
                    "--framework", fw, *beam, "--out", out])
        assert code == 0, fw
        graphs = G.load_mrp(out)
        assert len(graphs) == 10
        assert all(g.framework == fw for g in graphs)


@pytest.mark.parametrize("fw,bundle_dir", [("dm", "single"), ("psd", "single"),
                                           ("ucca", "mtl"), ("amr", "mtl")])
def test_parse_writes_each_sentences_own_graph(ws, tmp_path, fw, bundle_dir):
    """The file `mrparse parse` writes holds, byte for byte, the graphs of
    ``parse_sentence`` on each sentence alone."""
    bundle = os.path.join(ws[bundle_dir], f"model-{fw}.bundle")
    out = tmp_path / "cli.mrp"
    assert run(["parse", "--companion", ws["companion"], *embed_args(ws),
                "--model", bundle, "--framework", fw, "--out", str(out)]) == 0
    args = SimpleNamespace(static=ws["static"], contextual=ws["contextual"])
    model = cli._load(bundle, T.MultiModel, *cli._load_embeddings(args))
    sentences = cli._load_sentences(ws["companion"], [])
    G.save_mrp([T.parse_sentence(model, s, fw) for s in sentences], str(tmp_path / "alone.mrp"))
    assert out.read_bytes() == (tmp_path / "alone.mrp").read_bytes()


def test_parse_eds_from_gold_dm(ws, tmp_path):
    out = str(tmp_path / "eds.mrp")
    code = run(["parse", "--companion", ws["companion"], *embed_args(ws),
                "--model", os.path.join(ws["eds_run"], "model-eds.bundle"),
                "--framework", "eds", "--dm-mrp", ws["dm"], "--out", out])
    assert code == 0
    assert len(G.load_mrp(out)) == 10


def test_parse_eds_from_dm_bundle(ws, tmp_path):
    out = str(tmp_path / "eds2.mrp")
    code = run(["parse", "--companion", ws["companion"], *embed_args(ws),
                "--model", os.path.join(ws["eds_run"], "model-eds.bundle"),
                "--framework", "eds",
                "--dm-model", os.path.join(ws["single"], "model-dm.bundle"),
                "--out", out])
    assert code == 0
    assert len(G.load_mrp(out)) == 10


def test_parse_is_deterministic(ws, tmp_path):
    outs = []
    for k in range(2):
        out = str(tmp_path / f"run{k}.mrp")
        assert run(["parse", "--companion", ws["companion"], *embed_args(ws),
                    "--model", os.path.join(ws["single"], "model-dm.bundle"),
                    "--framework", "dm", "--out", out]) == 0
        outs.append(Path(out).read_bytes())
    assert outs[0] == outs[1]


def test_parse_ensemble_of_two(ws, tmp_path):
    out = str(tmp_path / "pair.mrp")
    code = run(["parse", "--companion", ws["companion"], *embed_args(ws),
                "--model", os.path.join(ws["single"], "model-dm.bundle"),
                "--model", os.path.join(ws["mtl"], "model-dm.bundle"),
                "--framework", "dm", "--out", out])
    assert code == 0
    assert len(G.load_mrp(out)) == 10


def test_parse_amr_refuses_multiple_models(ws, tmp_path, capsys):
    code = run(["parse", "--companion", ws["companion"], *embed_args(ws),
                "--model", os.path.join(ws["mtl"], "model-amr.bundle"),
                "--model", os.path.join(ws["mtl"], "model-total.bundle"),
                "--framework", "amr", "--out", str(tmp_path / "x.mrp")])
    assert code == 2
    assert "single" in capsys.readouterr().err


def test_parse_eds_refuses_multiple_models(ws, tmp_path, capsys):
    # the second path does not exist: the usage error comes before any load
    code = run(["parse", "--companion", ws["companion"], *embed_args(ws),
                "--model", os.path.join(ws["eds_run"], "model-eds.bundle"),
                "--model", str(tmp_path / "absent.bundle"),
                "--framework", "eds", "--dm-mrp", ws["dm"],
                "--out", str(tmp_path / "x.mrp")])
    assert code == 2
    assert capsys.readouterr().err.splitlines() == [
        "parse --framework eds takes one conversion bundle; pass a single --model"]


def test_parse_rejects_non_bundle(ws, tmp_path, capsys):
    code = run(["parse", "--companion", ws["companion"], *embed_args(ws),
                "--model", ws["dm"], "--framework", "dm",
                "--out", str(tmp_path / "x.mrp")])
    assert code == 1
    assert "error" in capsys.readouterr().err


@pytest.mark.parametrize("kind", ["empty", "truncated", "format-1"])
def test_parse_bad_bundle_is_one_line_error(ws, tmp_path, capsys, kind):
    path = tmp_path / f"{kind}.bundle"
    if kind == "empty":
        path.write_bytes(b"")
    elif kind == "truncated":
        with open(ws["mtl_bundle"], "rb") as fh:
            path.write_bytes(fh.read()[:4096])
    else:  # the JSON-of-floats container of format 1
        path.write_text(json.dumps({"format_version": 1, "params": {},
                                    "extra": {"kind": "multi"}}))
    code = run(["parse", "--companion", ws["companion"], *embed_args(ws),
                "--model", str(path), "--framework", "dm",
                "--out", str(tmp_path / "x.mrp")])
    assert code == 1
    err = capsys.readouterr().err
    assert err.splitlines() == [f"error: {path}: not a format-2 checkpoint"]
    assert "Traceback" not in err


def wrong_kind_argv(ws, case, out):
    """(argv, the bundle of the wrong kind, the kind the command wants)."""
    eds = os.path.join(ws["eds_run"], "model-eds.bundle")
    corpus = ["--companion", ws["companion"], *embed_args(ws)]
    return {
        "fine-tune-from-converter": (
            ["train", *corpus, "--regime", "fine-tune", "--framework", "ucca",
             "--from-model", eds, "--epochs", "1", "--mrp", ws["ucca"],
             "--out", out], eds, "parser"),
        "parse-dm-with-converter": (
            ["parse", *corpus, "--framework", "dm", "--model", eds, "--out", out],
            eds, "parser"),
        "ensemble-dm-with-converter": (
            ["ensemble", *corpus, "--gold", ws["dm"], "--framework", "dm",
             "--model", eds, "--out", out], eds, "parser"),
        "parse-eds-from-converter-dm": (
            ["parse", *corpus, "--framework", "eds", "--model", eds,
             "--dm-model", eds, "--out", out], eds, "parser"),
        "parse-eds-with-parser": (
            ["parse", *corpus, "--framework", "eds", "--model", ws["mtl_bundle"],
             "--dm-mrp", ws["dm"], "--out", out], ws["mtl_bundle"], "conversion"),
        "convert-with-parser": (
            ["convert", "--companion", ws["companion"], "--mrp", ws["dm"],
             *embed_args(ws), "--model", ws["mtl_bundle"], "--out", out],
            ws["mtl_bundle"], "conversion"),
    }[case]


@pytest.mark.parametrize("case", [
    "fine-tune-from-converter", "parse-dm-with-converter",
    "ensemble-dm-with-converter", "parse-eds-from-converter-dm",
    "parse-eds-with-parser", "convert-with-parser"])
def test_a_bundle_of_the_wrong_kind_is_one_line_error(ws, tmp_path, capsys, case):
    out = tmp_path / "out"
    argv, bundle, kind = wrong_kind_argv(ws, case, str(out))
    capsys.readouterr()
    assert run(argv) == 1
    err = capsys.readouterr().err
    assert err.splitlines() == [f"error: {bundle}: not a {kind} bundle"]
    assert not out.exists() or not any(out.iterdir())  # train makes --out first


@pytest.mark.parametrize("fault", ["missing", "shape"])
def test_parse_bundle_member_mismatch_is_one_line_error(ws, tmp_path, capsys,
                                                       fault):
    state, extra = ad.ParamSet.read(ws["mtl_bundle"])
    name = "encoder.mix"
    n = state[name].size
    bad = ad.ParamSet()
    for key, arr in state.items():
        if key != name:
            bad.new_from(key, arr)
        elif fault == "shape":
            bad.new_from(key, np.zeros(n + 1))
    path = tmp_path / f"{fault}.bundle"
    bad.save(path, extra=extra)
    code = run(["parse", "--companion", ws["companion"], *embed_args(ws),
                "--model", str(path), "--framework", "dm",
                "--out", str(tmp_path / "x.mrp")])
    assert code == 1
    want = (f"missing parameter {name}" if fault == "missing"
            else f"shape mismatch for {name}: ({n + 1},) vs ({n},)")
    assert capsys.readouterr().err.splitlines() == [f"error: {path}: {want}"]


@pytest.mark.parametrize("corrupt, want", [
    (lambda extra: extra.update(inventories={"unknown_key": []}),
     "unknown inventory key 'unknown_key'"),
    (lambda extra: extra.update(inventories=[1]),
     "inventories must be an object, not list"),
    (lambda extra: extra["vocab"].update(surface=[1]),
     "vocabulary surface must map symbols to integer ids"),
    (lambda extra: extra["inventories"].update(dm_lexicon_rows=[1]),
     "inventory dm_lexicon_rows: 1 is not a "
     "[lemma, pos, frame, arguments, frequency] row"),
    (lambda extra: extra["inventories"].update(dm_lexicon_rows=[["a", "", "v", 5, 1]]),
     "inventory dm_lexicon_rows: ['a', '', 'v', 5, 1] is not a "
     "[lemma, pos, frame, arguments, frequency] row"),
    (lambda extra: extra["inventories"].update(psd_lexicon_rows=[["a", "", "v", []]]),
     "inventory psd_lexicon_rows: ['a', '', 'v', []] is not a "
     "[lemma, pos, frame, arguments, frequency] row"),
], ids=["unknown-inventory-key", "inventories-list", "vocabulary-list",
        "lexicon-row-int", "lexicon-row-args-int", "lexicon-row-four-items"])
def test_parse_bad_bundle_header_is_one_line_error(ws, tmp_path, capsys, corrupt,
                                                  want):
    state, extra = ad.ParamSet.read(ws["mtl_bundle"])
    corrupt(extra)
    bad = ad.ParamSet()
    for key, arr in state.items():
        bad.new_from(key, arr)
    path = tmp_path / "bad.bundle"
    bad.save(path, extra=extra)
    code = run(["parse", "--companion", ws["companion"], *embed_args(ws),
                "--model", str(path), "--framework", "dm",
                "--out", str(tmp_path / "x.mrp")])
    assert code == 1
    assert capsys.readouterr().err.splitlines() == [f"error: {path}: {want}"]


# ---------------------------------------------------------------------------
# evaluate

def test_evaluate_gold_against_itself(ws, tmp_path, capsys):
    report = str(tmp_path / "report.json")
    code = run(["evaluate", "--gold", ws["dm"], "--pred", ws["dm"],
                "--out", report])
    assert code == 0
    doc = json.loads(Path(report).read_text())
    assert doc["dm"]["all"]["f1"] == pytest.approx(1.0)
    assert "dm" in capsys.readouterr().out  # the table went to stdout


def test_evaluate_missing_prediction_scores_empty(ws, tmp_path, capsys):
    preds = G.load_mrp(ws["dm"])[:-1]
    pred_path = str(tmp_path / "partial.mrp")
    G.save_mrp(preds, pred_path)
    report = str(tmp_path / "report.json")
    code = run(["evaluate", "--gold", ws["dm"], "--pred", pred_path,
                "--out", report])
    assert code == 0
    assert "no prediction" in capsys.readouterr().err
    doc = json.loads(Path(report).read_text())
    assert doc["dm"]["all"]["f1"] < 1.0


@pytest.mark.parametrize("side", ["gold", "pred"])
def test_evaluate_refuses_a_repeated_graph(ws, tmp_path, capsys, side):
    graphs = G.load_mrp(ws["amr"])
    twice = str(tmp_path / "twice.mrp")
    G.save_mrp(graphs + graphs[:1], twice)
    files = {"gold": ws["amr"], "pred": ws["amr"], side: twice}
    code = run(["evaluate", "--gold", files["gold"], "--pred", files["pred"]])
    assert code == 1
    out = capsys.readouterr()
    assert out.out == ""
    assert out.err.splitlines() == [
        f"error: {twice}: repeated graph amr/{graphs[0].id}"]


def test_failed_report_write_keeps_previous_file(tmp_path):
    path = tmp_path / "report.json"
    cli._write_json({"dm": {"f1": 0.5}}, path)
    before = path.read_bytes()
    with pytest.raises(TypeError):
        cli._write_json({"dm": {"f1": object()}}, path)  # not JSON-serializable
    assert path.read_bytes() == before
    assert [p.name for p in tmp_path.iterdir()] == ["report.json"]


def test_evaluate_missing_file(ws, tmp_path):
    assert run(["evaluate", "--gold", ws["dm"],
                "--pred", str(tmp_path / "nope.mrp")]) == 1


# ---------------------------------------------------------------------------
# convert

def test_convert_rule_only(ws, tmp_path):
    out = str(tmp_path / "eds.mrp")
    code = run(["convert", "--companion", ws["companion"], "--mrp", ws["dm"],
                "--rules", ws["rules"], "--out", out])
    assert code == 0
    graphs = G.load_mrp(out)
    assert all(g.framework == "eds" for g in graphs)


def test_convert_with_model(ws, tmp_path):
    out = str(tmp_path / "eds.mrp")
    code = run(["convert", "--companion", ws["companion"], "--mrp", ws["dm"],
                "--model", os.path.join(ws["eds_run"], "model-eds.bundle"),
                *embed_args(ws), "--out", out])
    assert code == 0
    assert len(G.load_mrp(out)) == 10


def test_convert_rules_override_the_embedded_rules(ws, tmp_path):
    doc = json.loads(Path(ws["rules"]).read_text(encoding="utf-8"))
    assert doc["surface"]
    for rule in doc["surface"]:
        rule["template"] = "over_" + rule["template"]
    rules = tmp_path / "rules.json"
    rules.write_text(json.dumps(doc))
    labels = {}
    for name, extra in (("embedded", []), ("override", ["--rules", str(rules)])):
        out = str(tmp_path / f"{name}.mrp")
        assert run(["convert", "--companion", ws["companion"], "--mrp", ws["dm"],
                    "--model", os.path.join(ws["eds_run"], "model-eds.bundle"),
                    *embed_args(ws), *extra, "--out", out]) == 0
        labels[name] = {n.label for g in G.load_mrp(out) for n in g.nodes}
    assert not any(label.startswith("over_") for label in labels["embedded"])
    assert any(label.startswith("over_") for label in labels["override"])


@pytest.mark.parametrize("key, value", [("detect_on_edges", True),
                                        ("detect_on_nodes", False)])
def test_convert_rejects_a_detector_switch_in_one_line(ws, tmp_path, capsys,
                                                       key, value):
    doc = json.loads(Path(ws["rules"]).read_text(encoding="utf-8"))
    doc[key] = value
    rules = tmp_path / "rules.json"
    rules.write_text(json.dumps(doc))
    out = tmp_path / "eds.mrp"
    capsys.readouterr()
    code = run(["convert", "--companion", ws["companion"], "--mrp", ws["dm"],
                "--rules", str(rules), "--out", str(out)])
    assert code == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: ") and key in err[0]
    assert not out.exists()


def test_convert_needs_rules_or_model(ws, tmp_path):
    assert run(["convert", "--companion", ws["companion"], "--mrp", ws["dm"],
                "--out", str(tmp_path / "x.mrp")]) == 2


def test_convert_embeddings_without_model_is_usage_error(ws, tmp_path, capsys):
    out = tmp_path / "x.mrp"
    code = run(["convert", "--companion", ws["companion"], "--mrp", ws["dm"],
                "--rules", ws["rules"], *embed_args(ws), "--out", str(out)])
    assert code == 2
    assert capsys.readouterr().err.splitlines() == [
        "convert --static and --contextual need --model"]
    assert not out.exists()


# ---------------------------------------------------------------------------
# split

def test_split_writes_disjoint_id_lists(ws, tmp_path):
    out = str(tmp_path / "split.json")
    argv = ["split", "--companion", ws["companion"], "--seed", "1",
            "--out", out]
    for fw in G.FRAMEWORKS:
        argv += ["--mrp", ws[fw]]
    assert run(argv) == 0
    doc = json.loads(Path(out).read_text())
    assert set(doc) == {"train", "val_i", "val_ii"}
    for fw in G.FRAMEWORKS:
        parts = [set(doc[name][fw]) for name in ("train", "val_i", "val_ii")]
        assert not (parts[0] & parts[1]) and not (parts[1] & parts[2])


def test_split_feeds_train(ws, tmp_path):
    split_path = str(tmp_path / "split.json")
    argv = ["split", "--companion", ws["companion"], "--out", split_path]
    for fw in G.FRAMEWORKS:
        argv += ["--mrp", ws[fw]]
    assert run(argv) == 0
    out = str(tmp_path / "run")
    argv = ["train", "--companion", ws["companion"], *embed_args(ws),
            "--regime", "single", "--framework", "amr", "--out", out,
            "--split", split_path, "--scale", "0.02", "--epochs", "1",
            "--batch-size", "4", "--seed", "3"]
    for fw in G.FRAMEWORKS:
        argv += ["--mrp", ws[fw]]
    assert run(argv) == 0
    assert "model-amr.bundle" in os.listdir(out)


@pytest.mark.parametrize("where", ["companion", "mrp"])
def test_split_refuses_a_repeated_sentence_id(ws, tmp_path, capsys, where):
    companion, mrps = ws["companion"], [ws["dm"]]
    text = Path(companion).read_text(encoding="utf-8")
    first = text[:text.index("\n#")]  # the first sentence's block
    sid = first.splitlines()[0][1:]
    if where == "companion":
        companion = str(tmp_path / "twice.tsv")
        with open(companion, "w", encoding="utf-8") as fh:
            fh.write(text + first + "\n")
        want = (f"error: {companion}: line {len(text.splitlines()) + 1}: "
                f"repeated sentence id {sid}")
    else:
        mrps, want = mrps * 2, f"error: repeated graph dm/{sid}"
    out = tmp_path / "split.json"
    argv = ["split", "--companion", companion, "--out", str(out)]
    for path in mrps:
        argv += ["--mrp", path]
    assert run(argv) == 1
    assert capsys.readouterr().err.splitlines() == [want]
    assert not out.exists()


# ---------------------------------------------------------------------------
# malformed input files: exit 1 with one line, before anything is written

def zipped_npz(compression, arrays):
    """The bytes of an ``.npz`` archive of ``arrays``, every member
    compressed by ``compression``, as neither numpy nor mrparse writes."""
    fh = io.BytesIO()
    with zipfile.ZipFile(fh, "w", compression) as zf:
        for name, arr in arrays.items():
            with zf.open(f"{name}.npy", "w") as member:
                np.lib.format.write_array(member, arr)
    return fh.getvalue()


MALFORMED = {  # case -> (the file it stands in for, its content)
    "contextual-without-arrays": ("contextual", {}),
    "contextual-npy": ("contextual", np.zeros((2, 3, 4))),
    "contextual-2d": ("contextual", {"s": np.zeros((3, 4))}),
    "contextual-layers-differ": ("contextual", {"a": np.zeros((2, 3, 4)),
                                                "b": np.zeros((3, 3, 4))}),
    "contextual-widths-differ": ("contextual", {"a": np.zeros((2, 3, 4)),
                                                "b": np.zeros((2, 3, 5))}),
    "config-array": ("config", "[1, 2]"),
    "config-string-width": ("config", '{"hidden": "big"}'),
    "config-negative-clip": ("config", '{"clip": -5.0}'),
    "split-array": ("split", "[]"),
    "split-integer-ids": ("split", '{"train": {"dm": [1]}, "val_i": {}, '
                                   '"val_ii": {}}'),
    "rules-array": ("rules", "[]"),
    "rules-integer-template": ("rules", '{"surface": [{"template": 5}]}'),
    "rules-integer-surface": ("rules", '{"surface": [5]}'),
    "rules-list-match": ("rules", '{"surface": [{"match": ["pos"], '
                                  '"template": "x"}]}'),
    "rules-unknown-match-key": ("rules", '{"surface": [{"match": {"lemma": "x"}, '
                                         '"template": "x"}]}'),
    "rules-integer-match-value": ("rules", '{"surface": [{"match": {"pos": 5}, '
                                           '"template": "x"}]}'),
    "rules-unknown-placeholder": ("rules", '{"surface": [{"template": "{lemma}_x"}]}'),
    "rules-integer-implication": ("rules", '{"implications": [5]}'),
    "rules-list-edge-map": ("rules", '{"edge_map": [5]}'),
    "rules-list-edge-label": ("rules", '{"edge_map": {"a": ["b"]}}'),
    "rules-surface-without-template": ("rules", '{"surface": [{"match": {}}]}'),
    "rules-implication-without-add-label": (
        "rules", '{"implications": [{"if_label": "a", "edge": "e"}]}'),
    "rules-sideways-implication": (
        "rules", '{"implications": [{"if_label": "a", "add_label": "b", '
                 '"edge": "e", "direction": "sideways"}]}'),
    "mrp-array": ("mrp", "[]"),
    "mrp-integer-nodes": ("mrp", '{"id": "s", "framework": "dm", "nodes": 5}'),
    "mrp-list-property": ("mrp", '{"id": "s", "framework": "dm", "nodes": '
                                 '[{"id": 0, "properties": ["pos"], '
                                 '"values": [["NN"]]}]}'),
    "mrp-list-node-id": ("mrp", '{"id": "s", "framework": "dm", '
                                '"nodes": [{"id": [0]}]}'),
    "mrp-integer-input": ("mrp", '{"id": "s", "framework": "dm", "input": 5}'),
    "mrp-list-label": ("mrp", '{"id": "s", "framework": "dm", '
                              '"nodes": [{"id": 0, "label": ["a"]}]}'),
    "mrp-repeated-top": ("mrp", '{"id": "s", "framework": "dm", "tops": [0, 0], '
                                '"nodes": [{"id": 0}]}'),
    "mrp-dm-flavor-2": ("mrp", '{"id": "s", "framework": "dm", "flavor": 2, '
                               '"nodes": [{"id": 0}]}'),
    "contextual-truncated-zip": ("contextual", "PK\x03\x04 truncated"),
    "contextual-bzip2": ("contextual", zipped_npz(zipfile.ZIP_BZIP2,
                                                  {"s": np.zeros((2, 3, 4))})),
    "contextual-lzma": ("contextual", zipped_npz(zipfile.ZIP_LZMA, {"s": np.zeros((2, 3, 4))})),
    "contextual-negative-subword-index": ("contextual", {"s": np.zeros((2, 3, 4)),
                                                         "s__tok": np.array([0, -1, 1])}),
    "contextual-float-subword-index": ("contextual", {"s": np.zeros((2, 3, 4)),
                                                      "s__tok": np.array([0.2, 0.9, 1.5])}),
    "contextual-2d-subword-index": ("contextual", {"s": np.zeros((2, 3, 4)),
                                                   "s__tok": np.array([[0], [1], [2]])}),
    "contextual-complex": ("contextual", {"s": np.ones((1, 1, 2), complex)}),
    "contextual-bool": ("contextual", {"s": np.ones((1, 1, 2), bool)}),
    "contextual-datetime": ("contextual", {"s": np.full((1, 1, 2), np.datetime64("2020-01-01"))}),
    "contextual-structured": ("contextual", {"s": np.ones((1, 1, 2), [("x", float)])}),
}


@pytest.mark.parametrize("case", sorted(MALFORMED))
def test_a_malformed_input_file_is_one_line_error(ws, tmp_path, capsys, case):
    kind, content = MALFORMED[case]
    path = tmp_path / f"bad.{kind}"
    with open(path, "wb") as fh:
        if isinstance(content, dict):
            np.savez(fh, **content)
        elif isinstance(content, np.ndarray):
            np.save(fh, content)
        elif isinstance(content, bytes):
            fh.write(content)
        else:
            fh.write(content.encode("utf-8") + b"\n")
    out = tmp_path / "out"
    if kind == "rules":
        argv = ["convert", "--companion", ws["companion"], "--mrp", ws["dm"],
                "--rules", str(path), "--out", str(out)]
    elif kind == "mrp":
        argv = ["evaluate", "--gold", str(path), "--pred", ws["dm"],
                "--out", str(out)]
    else:
        contextual = str(path) if kind == "contextual" else ws["contextual"]
        argv = ["train", "--companion", ws["companion"], "--static", ws["static"],
                "--contextual", contextual, "--regime", "single",
                "--framework", "dm", "--scale", "0.02", "--epochs", "1",
                "--out", str(out), "--mrp", ws["dm"], "--mrp", ws["psd"]]
        if kind != "contextual":
            argv += [f"--{kind}", str(path)]
    capsys.readouterr()
    assert run(argv) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: "), err
    if kind in ("rules", "mrp", "contextual"):
        assert str(path) in err[0], err
    assert not out.exists()


def test_runs_without_bz2_or_lzma(tmp_path):
    """numpy needs neither optional module, so mrparse must not: with
    both blocked, the CLI imports, a bundle saves and reads, and an
    ``np.savez_compressed`` contextual file loads."""
    script = textwrap.dedent("""
        import sys
        sys.modules["bz2"] = sys.modules["lzma"] = None
        import numpy as np
        import mrparse.cli
        from mrparse import autodiff as ad, encoder as enc
        ps = ad.ParamSet()
        ps.new_from("w", np.arange(6.0))
        ps.save("m.bundle", extra={"epoch": 1})
        state, extra = ad.ParamSet.read("m.bundle")
        assert state["w"].tolist() == list(range(6)) and extra == {"epoch": 1}
        np.savez_compressed("ctx.npz", s=np.ones((2, 3, 4)))
        assert enc.ContextualEmbeddings.load("ctx.npz").width == 4
    """)
    src = str(Path(cli.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [src, *filter(None, [os.environ.get("PYTHONPATH")])])}
    done = subprocess.run([sys.executable, "-c", script], cwd=tmp_path, env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr


# ---------------------------------------------------------------------------
# ensemble

def test_ensemble_selection(ws, tmp_path):
    out = str(tmp_path / "spec.json")
    code = run(["ensemble", "--companion", ws["companion"], *embed_args(ws),
                "--gold", ws["psd"], "--framework", "psd",
                "--model", os.path.join(ws["single"], "model-psd.bundle"),
                "--model", os.path.join(ws["mtl"], "model-psd.bundle"),
                "--out", out])
    assert code == 0
    doc = json.loads(Path(out).read_text())
    assert doc["framework"] == "psd" and doc["rule"] == "average"
    assert doc["members"] and 0.0 <= doc["score"] <= 1.0
    assert len(doc["models"]) == 2


def test_ensemble_member_without_decoder_is_one_line_error(ws, tmp_path, capsys):
    out = tmp_path / "spec.json"
    code = run(["ensemble", "--companion", ws["companion"], *embed_args(ws),
                "--gold", ws["ucca"], "--framework", "ucca",
                "--model", os.path.join(ws["single"], "model-psd.bundle"),
                "--out", str(out)])
    assert code == 1
    err = capsys.readouterr().err
    assert err.splitlines() == ["error: model has no ucca decoder"]
    assert "Traceback" not in err and not out.exists()


@pytest.mark.parametrize("fw, gold, bundle", [("psd", "psd", "model-psd.bundle"),
                                              ("amr", "amr", "model-amr.bundle")])
def test_parse_with_ensemble_spec(ws, tmp_path, fw, gold, bundle):
    """`parse --spec` gives the graphs of `parse` with the chosen members."""
    spec = str(tmp_path / "spec.json")
    models = [os.path.join(ws["mtl"], bundle), os.path.join(ws["mtl"], "model-total.bundle")]
    assert run(["ensemble", "--companion", ws["companion"], *embed_args(ws),
                "--gold", ws[gold], "--framework", fw,
                *[a for m in models for a in ("--model", m)],
                "--out", spec]) == 0
    doc = json.loads(Path(spec).read_text())
    chosen = [doc["models"][i] for i in doc["members"]]
    common = ["parse", "--companion", ws["companion"], *embed_args(ws),
              "--framework", fw, *(["--beam", "2"] if fw == "amr" else [])]
    by_spec, by_model = str(tmp_path / "spec.mrp"), str(tmp_path / "model.mrp")
    assert run(common + ["--spec", spec, "--out", by_spec]) == 0
    assert run(common + [a for m in chosen for a in ("--model", m)]
               + ["--out", by_model]) == 0
    assert Path(by_spec).read_bytes() == Path(by_model).read_bytes()


def test_parse_spec_of_another_framework_is_one_line_error(ws, tmp_path, capsys):
    spec = str(tmp_path / "spec.json")
    with open(spec, "w") as fh:
        json.dump({"framework": "psd", "members": [0], "rule": "average",
                   "models": [os.path.join(ws["mtl"], "model-psd.bundle")]}, fh)
    code = run(["parse", "--companion", ws["companion"], *embed_args(ws),
                "--spec", spec, "--framework", "dm",
                "--out", str(tmp_path / "x.mrp")])
    assert code == 1
    err = capsys.readouterr().err
    assert "spec is for psd, not dm" in err
    assert err.count("\n") == 1 and "Traceback" not in err


@pytest.mark.parametrize("doc", ['{"framework": "dm"}', "[]", "not json",
                                 '{"framework": "dm", "members": [3], '
                                 '"rule": "single", "models": []}'])
def test_parse_bad_spec_is_one_line_error(ws, tmp_path, capsys, doc):
    spec = tmp_path / "spec.json"
    spec.write_text(doc)
    code = run(["parse", "--companion", ws["companion"], *embed_args(ws),
                "--spec", str(spec), "--framework", "dm",
                "--out", str(tmp_path / "x.mrp")])
    assert code == 1
    err = capsys.readouterr().err
    assert "not a member spec" in err and err.count("\n") == 1


def test_parse_spec_and_model_are_exclusive(ws, tmp_path, capsys):
    code = run(["parse", "--companion", ws["companion"], *embed_args(ws),
                "--spec", "spec.json",
                "--model", os.path.join(ws["mtl"], "model-dm.bundle"),
                "--framework", "dm", "--out", str(tmp_path / "x.mrp")])
    assert code == 2
    assert "not allowed with" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# usage errors

def test_no_subcommand_is_usage_error():
    assert run([]) == 2


def test_unknown_flag_is_usage_error(ws):
    assert run(["split", "--companion", ws["companion"], "--mrp", ws["dm"],
                "--out", "x", "--frobnicate"]) == 2


def test_help_exits_zero():
    assert run(["--help"]) == 0


@pytest.mark.parametrize("argv", [
    ["train", "--companion", "c", "--mrp", "g", "--static", "s",
     "--contextual", "x", "--regime", "single", "--out", "o"],
    ["parse", "--companion", "c", "--static", "s", "--contextual", "x",
     "--model", "m", "--framework", "dm", "--out", "o"],
    ["ensemble", "--companion", "c", "--gold", "g", "--static", "s",
     "--contextual", "x", "--model", "m", "--framework", "dm", "--out", "o"],
])
def test_jobs_is_usage_error(argv, capsys):
    assert run(argv + ["--jobs", "4"]) == 2
    assert "unrecognized arguments: --jobs 4" in capsys.readouterr().err
