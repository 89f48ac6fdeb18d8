"""The benchmark's own tests, at a tiny size.

    python -m pytest bench        (from the repository root)
"""

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import spans  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
E2E = {m["name"] for m in SPEC["end_to_end"]}
LAYERS = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
COUNTS = sorted(name for name, unit in LAYERS.items() if unit != "s")
GATES = ("final_val_loss", "mrp_f1")
SEED = 3


def _run(name, traced, tmp_path_factory):
    return workloads.run(name, SEED, seconds=0, traced=traced,
                         work_dir=str(tmp_path_factory.mktemp(name)),
                         shrink=True)


@pytest.fixture(scope="module", params=sorted(workloads.WORKLOADS))
def runs(request, tmp_path_factory):
    name = request.param
    return {"plain": _run(name, False, tmp_path_factory),
            "traced": [_run(name, True, tmp_path_factory) for _ in range(2)]}


def test_workloads_match_the_declared_workloads():
    assert {w["name"] for w in SPEC["workloads"]} == set(workloads.WORKLOADS)


def test_every_metric_is_emitted_and_checks_pass(runs):
    plain = runs["plain"]
    assert set(plain["e2e"]) == E2E
    assert all(math.isfinite(v) and v > 0 for v in plain["e2e"].values())
    assert plain["attempted"] >= 1 and plain["failed"] == 0, plain["messages"]
    for traced in runs["traced"]:
        assert set(traced["layers"]) == set(LAYERS)
        assert traced["failed"] == 0, traced["messages"]


def test_traced_run_records_every_layer_boundary(runs):
    recorded = {s[spans.NAME] for s in runs["traced"][0]["tracer"].spans}
    assert spans.BOUNDARY_SPANS <= recorded, spans.BOUNDARY_SPANS - recorded


def test_traced_runs_repeat_counts_and_quality_gates(runs):
    first, second = runs["traced"]
    assert {m: first["layers"][m] for m in COUNTS} == \
        {m: second["layers"][m] for m in COUNTS}
    for gate in GATES:
        assert first["e2e"][gate] == second["e2e"][gate]
        assert first["e2e"][gate] == runs["plain"]["e2e"][gate]


def test_self_time_excludes_children():
    tracer = spans.Tracer()
    tracer.spans = [["outer", 0.0, 10.0, -1, 0, 5, None],
                    ["inner", 2.0, 5.0, 0, 1, 3, None],
                    ["inner", 6.0, 7.0, 0, 3, 4, None]]
    assert tracer.self_times() == [6.0, 3.0, 1.0]


def test_refuses_to_run_without_the_sources(tmp_path):
    shutil.copytree(ROOT / "bench", tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    out = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "score", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert out.returncode != 0
    assert '"metrics"' not in out.stdout
