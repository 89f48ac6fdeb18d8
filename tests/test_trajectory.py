"""The BENCH trajectory's aggregation, fed canned ``bench/run.py``
output: no subprocess starts."""

import importlib.util
import json
from pathlib import Path

import pytest

SCRIPT = Path(__file__).resolve().parent.parent / "tools" / "trajectory.py"
_spec = importlib.util.spec_from_file_location("trajectory", SCRIPT)
trajectory = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(trajectory)

MACHINE = {"python": "3.11.7", "numpy": "2.4.6", "blas": "openblas 0.3",
           "nproc": 2, "threads": {"OPENBLAS_NUM_THREADS": "1"}}


def canned_stdout(workload, seed, slowdown, metrics, attempted=10, failed=0,
                  commit="abc123"):
    """What ``bench/run.py`` prints: progress, bench-info, result; the
    metrics are end-to-end (``--trace 0``) or per-layer (``--trace 1``)."""
    info = dict(MACHINE, workload=workload, seed=seed, slowdown=slowdown,
                git_commit=commit, src_lines=7000, rounds=3, measured_s=20.5)
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed,
              "metrics": {name: {"value": value, "unit": "s"}
                          for name, value in metrics.items()}}
    return (f"a progress line\nbench-info {json.dumps(info, sort_keys=True)}\n"
            f"{json.dumps(result)}\n")


LAYERS = {"encoder.bilstm_s": 0.4, "autodiff.tensors_per_parse_sent": 170.5}


def canned_traced(workload, commit="abc123", layers=LAYERS):
    return trajectory.parse_run(canned_stdout(workload, 1, 1.2, layers, commit=commit))


def test_medians_quartiles_and_counts_per_workload():
    pipeline = [(1, 1.2, 0.030), (2, 1.0, 0.010), (3, 1.1, 0.020),
                (4, 1.4, 0.040), (5, 0.9, 0.050)]
    runs = {
        "pipeline": [trajectory.parse_run(canned_stdout(
            "pipeline", seed, slowdown, {"ckpt_load_s": load, "ckpt_mb": 2.6},
            failed=int(seed == 4)))
            for seed, slowdown, load in pipeline],
        "score": [trajectory.parse_run(canned_stdout(
            "score", 1, 1.3, {"ckpt_load_s": 0.007, "ckpt_mb": 2.6}))],
    }
    record = trajectory.aggregate(runs, {w: [canned_traced(w)] * 3 for w in runs})
    assert record["git_commit"] == "abc123" and record["src_lines"] == 7000
    # the median slowdown over all twelve runs, the traced ones included
    assert record["machine"] == dict(MACHINE, slowdown=pytest.approx(1.2))
    load = record["workloads"]["pipeline"]["metrics"]["ckpt_load_s"]
    assert load["values"] == [0.030, 0.010, 0.020, 0.040, 0.050]
    assert (load["q1"], load["median"], load["q3"]) == pytest.approx((0.02, 0.03, 0.04))
    assert load["unit"] == "s"
    assert record["workloads"]["pipeline"]["seeds"] == [1, 2, 3, 4, 5]
    assert record["workloads"]["pipeline"]["attempted"] == 50
    assert record["workloads"]["pipeline"]["failed"] == 1
    single = record["workloads"]["score"]["metrics"]["ckpt_load_s"]
    assert (single["q1"], single["median"], single["q3"]) == (0.007, 0.007, 0.007)
    assert set(record["workloads"]["score"]["metrics"]) == {"ckpt_load_s", "ckpt_mb"}
    for name in runs:
        layers = record["workloads"][name]["per_layer"]
        assert layers["seed"] == 1
        assert layers["metrics"] == {k: {"value": v, "values": [v] * 3, "unit": "s"}
                                     for k, v in LAYERS.items()}
    json.dumps(record)  # all of it serializes


def test_runs_of_different_commits_are_refused():
    runs = {"score": [trajectory.parse_run(canned_stdout("score", seed, 1.0,
                                                         {"ckpt_mb": 2.6},
                                                         commit=commit))
                      for seed, commit in ((1, "abc123"), (2, "def456"))]}
    with pytest.raises(ValueError, match="runs differ in git_commit"):
        trajectory.aggregate(runs, {"score": [canned_traced("score")]})


def test_a_traced_run_of_another_commit_is_refused():
    runs = {"score": [trajectory.parse_run(canned_stdout("score", 1, 1.0, {"ckpt_mb": 2.6}))]}
    with pytest.raises(ValueError, match="runs differ in git_commit"):
        trajectory.aggregate(runs, {"score": [canned_traced("score"),
                                              canned_traced("score", commit="def456")]})


def test_output_without_bench_info_is_refused():
    with pytest.raises(ValueError, match="no bench-info line"):
        trajectory.parse_run('a progress line\n{"correct": true}\n')


def fake_checkout(root):
    (root / "BENCHMARK.json").write_text(json.dumps(
        {"run_seconds": 20, "workloads": [{"name": "score"}]}))
    return str(root)


def canned_run(checkout, workload, seed, seconds, trace=0):
    if trace:
        return canned_traced(workload)
    return trajectory.parse_run(canned_stdout(workload, seed, 1.0, {"ckpt_mb": 2.6}))


def no_run(*args):
    raise AssertionError("a benchmark run started")


@pytest.mark.parametrize("status, want", [
    ([" M src/mrparse/training.py", "?? bench/extra.py"],
     "differ from the commit: src/mrparse/training.py, bench/extra.py"),
    (None, "git cannot read this checkout"),
], ids=["edited", "unreadable"])
def test_a_checkout_off_its_commit_is_refused_before_any_run(tmp_path, monkeypatch,
                                                             status, want):
    monkeypatch.setattr(trajectory, "git_status", lambda checkout: status)
    monkeypatch.setattr(trajectory, "run_once", no_run)
    out = tmp_path / "out.json"
    with pytest.raises(SystemExit, match=want):
        trajectory.main(["--checkout", fake_checkout(tmp_path), "--out", str(out)])
    assert not out.exists()


def test_out_is_replaced_whole_or_left_alone(tmp_path, monkeypatch):
    monkeypatch.setattr(trajectory, "git_status", lambda checkout: [])
    calls = []
    monkeypatch.setattr(trajectory, "run_once", lambda *args, **kwargs: (
        calls.append(args[1:3] + (kwargs.get("trace", 0),)), canned_run(*args, **kwargs))[1])
    out = tmp_path / "out.json"
    out.write_text("old\n")
    argv = ["--checkout", fake_checkout(tmp_path), "--out", str(out), "--seeds", "2"]
    assert trajectory.main(argv) == 0
    # the seeds untraced, then three traced runs at seed 1
    assert calls == [("score", 1, 0), ("score", 2, 0)] + [("score", 1, 1)] * 3
    record = json.loads(out.read_text())["workloads"]["score"]
    assert record["seeds"] == [1, 2]
    assert set(record["per_layer"]["metrics"]) == set(LAYERS)
    # a record that fails to serialize keeps the old file, and no temporary one
    out.write_text("old\n")
    monkeypatch.setattr(trajectory, "aggregate", lambda runs, traced: {"bad": object()})
    with pytest.raises(TypeError):
        trajectory.main(argv)
    assert out.read_text() == "old\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["BENCHMARK.json", "out.json"]


def test_per_layer_figures_are_the_median_of_three_traced_runs(tmp_path, monkeypatch):
    monkeypatch.setattr(trajectory, "git_status", lambda checkout: [])
    backward = iter([0.42, 0.73, 0.51])
    calls = []

    def run(checkout, workload, seed, seconds, trace=0):
        calls.append((seed, trace))
        if not trace:
            return canned_run(checkout, workload, seed, seconds)
        return canned_traced(workload, layers={"autodiff.backward_s": next(backward),
                                               "encoder.bilstm_calls": 36})

    monkeypatch.setattr(trajectory, "run_once", run)
    out = tmp_path / "out.json"
    assert trajectory.main(["--checkout", fake_checkout(tmp_path), "--out", str(out),
                            "--seeds", "1"]) == 0
    assert trajectory.TRACED_RUNS == 3 and calls == [(1, 0)] + [(1, 1)] * 3
    layers = json.loads(out.read_text())["workloads"]["score"]["per_layer"]
    assert layers["seed"] == 1
    assert layers["metrics"]["autodiff.backward_s"] == {
        "unit": "s", "value": 0.51, "values": [0.42, 0.73, 0.51]}
    assert layers["metrics"]["encoder.bilstm_calls"] == {
        "unit": "s", "value": 36, "values": [36, 36, 36]}


# ---------------------------------------------------------------------------
# paired mode: a change against its parent

SPEC = {"run_seconds": 20, "workloads": [{"name": "pipeline"}],
        "end_to_end": [{"name": "train_sents_per_s", "better": "higher"},
                       {"name": "ckpt_save_s", "better": "lower"}]}


def paired_checkouts(tmp_path):
    parent, change = tmp_path / "parent", tmp_path / "change"
    for root in (parent, change):
        root.mkdir()
        (root / "BENCHMARK.json").write_text(json.dumps(SPEC))
    return str(parent), str(change)


def fake_pairs(monkeypatch, parent, values):
    """Route ``run_once`` to canned runs: ``values[checkout is parent]``
    (rate, save) per seed; returns the list of (side, seed, trace) calls."""
    calls = []

    def run(checkout, workload, seed, seconds, trace=0):
        side = "parent" if checkout == parent else "change"
        calls.append((side, seed, trace))
        rate, save = values[side][seed]
        return trajectory.parse_run(canned_stdout(
            workload, seed, 1.0, {"train_sents_per_s": rate, "ckpt_save_s": save,
                                  "unranked": 1.0},
            commit=side, attempted=5, failed=int(side == "change" and seed == 13)))

    monkeypatch.setattr(trajectory, "git_status", lambda checkout: [])
    monkeypatch.setattr(trajectory, "run_once", run)
    return calls


def test_pairs_alternate_and_show_a_gain(tmp_path, monkeypatch, capsys):
    parent, change = paired_checkouts(tmp_path)
    seeds = range(11, 21)
    rates = {"parent": {s: 170.0 + s % 5 for s in seeds},
             "change": {s: 180.0 + s % 5 - 20.0 * (s == 14) for s in seeds}}
    values = {side: {s: (rates[side][s], 0.003 + (side == "change") * 0.0001)
                     for s in seeds} for side in rates}
    values["change"][15] = (values["change"][15][0], 0.003)  # a tie
    calls = fake_pairs(monkeypatch, parent, values)
    out = tmp_path / "pairs.json"
    assert trajectory.main(["--checkout", change, "--against", parent, "--pairs", "10",
                            "--first-seed", "11", "--out", str(out)]) == 0
    # untraced runs only; the parent first in even pairs, the change in odd
    assert [trace for _, _, trace in calls] == [0] * 20
    assert calls[:4] == [("parent", 11, 0), ("change", 11, 0),
                         ("change", 12, 0), ("parent", 12, 0)]
    record = json.loads(out.read_text())["workloads"]["pipeline"]
    assert record["seeds"] == list(seeds)
    assert record["parent"]["git_commit"] == "parent"
    assert (record["change"]["failed"], record["change"]["attempted"]) == (1, 50)
    rate = record["metrics"]["train_sents_per_s"]
    assert rate["parent"]["values"] == [rates["parent"][s] for s in seeds]
    assert (rate["parent"]["q1"], rate["parent"]["median"], rate["parent"]["q3"]) == (
        pytest.approx(171.0), pytest.approx(172.0), pytest.approx(173.0))
    assert (rate["won"], rate["lost"]) == (9, 1)
    assert rate["gap"] == pytest.approx(rate["change"]["median"] - 172.0)
    assert rate["parent_spread"] == pytest.approx(2.0) and rate["gain_shown"]
    save = record["metrics"]["ckpt_save_s"]  # lower is better: the change lost
    assert (save["won"], save["lost"]) == (0, 9) and not save["gain_shown"]
    assert record["metrics"]["unranked"]["better"] is None
    assert "won" not in record["metrics"]["unranked"]
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "pipeline: failed operations, parent 0 of 50, change 1 of 50"
    assert any(line.startswith("pipeline train_sents_per_s: parent 172 [171, 173]")
               and line.endswith("won 9 of 10, gap 9.5 against parent spread 2: gain shown")
               for line in lines)


@pytest.mark.parametrize("pairs, change_rate, want", [
    (10, lambda s: 180.0 - 20.0 * (s in (3, 4)), False),  # 8 of 10 won
    (10, lambda s: 170.0 + s % 5 + 1.0, False),  # 10 of 10, gap 1 within spread 2
    (9, lambda s: 190.0, False),  # every pair won, but fewer than ten
    (10, lambda s: 190.0, True),
], ids=["eight-of-ten", "gap-within-spread", "nine-pairs", "shown"])
def test_the_gain_rule(tmp_path, monkeypatch, pairs, change_rate, want):
    parent, change = paired_checkouts(tmp_path)
    seeds = range(1, pairs + 1)
    values = {"parent": {s: (170.0 + s % 5, 0.003) for s in seeds},
              "change": {s: (change_rate(s), 0.003) for s in seeds}}
    fake_pairs(monkeypatch, parent, values)
    out = tmp_path / "pairs.json"
    trajectory.main(["--checkout", change, "--against", parent, "--pairs", str(pairs),
                     "--out", str(out)])
    rate = json.loads(out.read_text())["workloads"]["pipeline"]["metrics"]["train_sents_per_s"]
    assert rate["gain_shown"] is want


@pytest.mark.parametrize("dirty", ["parent", "change"])
def test_pairs_refuse_a_dirty_checkout_before_any_run(tmp_path, monkeypatch, dirty):
    parent, change = paired_checkouts(tmp_path)
    bad = parent if dirty == "parent" else change
    monkeypatch.setattr(trajectory, "git_status", lambda checkout: (
        [" M src/mrparse/autodiff.py"] if checkout == bad else []))
    monkeypatch.setattr(trajectory, "run_once", no_run)
    out = tmp_path / "pairs.json"
    with pytest.raises(SystemExit, match=f"^{bad}: src/ or bench/ differ"):
        trajectory.main(["--checkout", change, "--against", parent, "--out", str(out)])
    assert not out.exists()
