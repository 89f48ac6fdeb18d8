"""End-to-end command line tests over an on-disk synthetic corpus.

Each training invocation runs at two percent width for a couple of
epochs; the chained fixture trains once per module and the tests poke
at the artifacts.
"""

import json
import os

import numpy as np
import pytest

import mrparse.autodiff as ad
import mrparse.graphs as G
from mrparse import cli, datagen
from mrparse.cli import run


@pytest.fixture(scope="module")
def ws(tmp_path_factory):
    """Corpus on disk plus one run directory per training regime."""
    root = tmp_path_factory.mktemp("cli")
    corpus = datagen.build_corpus(n=10, seed=7)
    paths = datagen.write_corpus(corpus, str(root / "data"))
    paths["root"] = str(root)

    def train(regime, out, *extra):
        argv = ["train", "--companion", paths["companion"],
                "--static", paths["static"], "--contextual", paths["contextual"],
                "--regime", regime, "--out", out,
                "--scale", "0.02", "--batch-size", "4", "--seed", "3",
                *extra]
        for fw in G.FRAMEWORKS:
            argv += ["--mrp", paths[fw]]
        assert run(argv) == 0, regime
        return out

    paths["single"] = train("single", str(root / "single"),
                            "--framework", "dm", "--epochs", "2")
    paths["mtl"] = train("multitask", str(root / "mtl"), "--epochs", "1")
    paths["mtl_bundle"] = os.path.join(paths["mtl"], "model-total.bundle")
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
    cfg = json.loads(open(os.path.join(ws["single"], "config.json")).read())
    assert cfg["frameworks"] == ["dm", "psd"]
    rows = [json.loads(l) for l in
            open(os.path.join(ws["single"], "metrics.jsonl"))]
    assert [r["epoch"] for r in rows] == [0, 1]


def test_train_multitask_writes_one_bundle_per_metric(ws):
    names = set(os.listdir(ws["mtl"]))
    expect = {f"model-{k}.bundle" for k in ("dm", "psd", "ucca", "amr", "total")}
    assert expect <= names


def test_fine_tune_and_eds_artifacts(ws):
    assert "model-ucca.bundle" in os.listdir(ws["ft"])
    assert "model-eds.bundle" in os.listdir(ws["eds_run"])


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
    cfg = json.loads(open(os.path.join(out, "config.json")).read())
    assert cfg["lam_label"] == 0.5   # file beats preset
    assert cfg["epochs"] == 1        # flag beats file


def test_train_rejects_unknown_config_keys(ws, tmp_path):
    override = tmp_path / "cfg.json"
    override.write_text(json.dumps({"learning_rate": 1.0}))
    argv = ["train", "--companion", ws["companion"], *embed_args(ws),
            "--regime", "multitask", "--out", str(tmp_path / "x"),
            "--config", str(override), "--mrp", ws["dm"]]
    assert run(argv) == 1


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


# ---------------------------------------------------------------------------
# parse

def test_parse_each_framework(ws, tmp_path):
    for fw, bundle_dir, key in (("dm", "single", "dm"),
                                ("psd", "single", "psd"),
                                ("ucca", "mtl", "ucca"),
                                ("amr", "mtl", "amr")):
        out = str(tmp_path / f"{fw}.mrp")
        code = run(["parse", "--companion", ws["companion"], *embed_args(ws),
                    "--model", os.path.join(ws[bundle_dir], f"model-{key}.bundle"),
                    "--framework", fw, "--beam", "2", "--out", out])
        assert code == 0, fw
        graphs = G.load_mrp(out)
        assert len(graphs) == 10
        assert all(g.framework == fw for g in graphs)


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
        outs.append(open(out, "rb").read())
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


# ---------------------------------------------------------------------------
# evaluate

def test_evaluate_gold_against_itself(ws, tmp_path, capsys):
    report = str(tmp_path / "report.json")
    code = run(["evaluate", "--gold", ws["dm"], "--pred", ws["dm"],
                "--out", report])
    assert code == 0
    doc = json.loads(open(report).read())
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
    doc = json.loads(open(report).read())
    assert doc["dm"]["all"]["f1"] < 1.0


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
    doc = json.loads(open(ws["rules"], encoding="utf-8").read())
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


def test_convert_needs_rules_or_model(ws, tmp_path):
    assert run(["convert", "--companion", ws["companion"], "--mrp", ws["dm"],
                "--out", str(tmp_path / "x.mrp")]) == 2


# ---------------------------------------------------------------------------
# split

def test_split_writes_disjoint_id_lists(ws, tmp_path):
    out = str(tmp_path / "split.json")
    argv = ["split", "--companion", ws["companion"], "--seed", "1",
            "--out", out]
    for fw in G.FRAMEWORKS:
        argv += ["--mrp", ws[fw]]
    assert run(argv) == 0
    doc = json.loads(open(out).read())
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
    doc = json.loads(open(out).read())
    assert doc["framework"] == "psd" and doc["rule"] == "average"
    assert doc["members"] and 0.0 <= doc["score"] <= 1.0
    assert len(doc["models"]) == 2


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
    doc = json.loads(open(spec).read())
    chosen = [doc["models"][i] for i in doc["members"]]
    common = ["parse", "--companion", ws["companion"], *embed_args(ws),
              "--framework", fw, "--beam", "2"]
    by_spec, by_model = str(tmp_path / "spec.mrp"), str(tmp_path / "model.mrp")
    assert run(common + ["--spec", spec, "--out", by_spec]) == 0
    assert run(common + [a for m in chosen for a in ("--model", m)]
               + ["--out", by_model]) == 0
    assert open(by_spec, "rb").read() == open(by_model, "rb").read()


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
