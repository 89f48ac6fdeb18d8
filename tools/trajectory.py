"""Run the benchmark over fixed seeds and write one BENCH_<pr>.json file.

    python3 tools/trajectory.py --out BENCH_<pr>.json --seeds 10
    python3 tools/trajectory.py --checkout ../other-clone --out other.json \\
        --seeds 3 --workload pipeline

For each workload (all that ``BENCHMARK.json`` declares unless
``--workload`` names some) and each seed 1..N, it runs
``bench/run.py --trace 0`` of the given checkout as a subprocess, in
turn, and then one ``bench/run.py --trace 1`` at seed 1.  The file
records, per workload, the median and quartiles of every end-to-end
metric over the seeds, with each seed's value, the attempted and failed
operations, and the per-layer metrics of the traced run; the machine
line of ``bench-info`` with the median of the clock's ``slowdown``; and
once, the checkout's commit and ``src/`` line count.  A run that exits
non-zero stops the script.

``bench/run.py`` reads the commit from ``.git`` but counts the lines of
the working tree, so the script refuses, before the first run, a
checkout whose ``src/`` or ``bench/`` differ from its commit, or that
git cannot read.  ``--out`` is written whole or not at all.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))
from mrparse.atomic import atomic_open  # noqa: E402

MACHINE = ("python", "numpy", "blas", "nproc", "threads")


def parse_run(stdout):
    """(bench-info dict, result dict) of one ``bench/run.py`` stdout."""
    lines = stdout.strip().splitlines()
    info_line, result_line = lines[-2], lines[-1]
    if not info_line.startswith("bench-info "):
        raise ValueError(f"no bench-info line before the result: {info_line!r}")
    return json.loads(info_line[len("bench-info "):]), json.loads(result_line)


def quartiles(values):
    """(first quartile, median, third quartile), inclusive method."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    return tuple(statistics.quantiles(values, n=4, method="inclusive"))


def aggregate(runs, traced):
    """The trajectory record of ``runs``, per workload a list of
    (bench-info, result) pairs in seed order, and of ``traced``, per
    workload the (bench-info, result) pair of its traced run."""
    infos = [info for pairs in runs.values() for info, _ in pairs]
    infos += [info for info, _ in traced.values()]
    for key in ("git_commit", "src_lines", *MACHINE):
        if len({json.dumps(info[key]) for info in infos}) != 1:
            raise ValueError(f"runs differ in {key}")
    first = infos[0]
    workloads = {}
    for name, pairs in runs.items():
        metrics = {}
        for metric, entry in pairs[0][1]["metrics"].items():
            values = [result["metrics"][metric]["value"] for _, result in pairs]
            q1, median, q3 = quartiles(values)
            metrics[metric] = {"unit": entry["unit"], "median": median,
                               "q1": q1, "q3": q3, "values": values}
        workloads[name] = {
            "seeds": [info["seed"] for info, _ in pairs],
            "attempted": sum(result["attempted"] for _, result in pairs),
            "failed": sum(result["failed"] for _, result in pairs),
            "metrics": metrics,
            "per_layer": {"seed": traced[name][0]["seed"],
                          "metrics": traced[name][1]["metrics"]},
        }
    machine = {key: first[key] for key in MACHINE}
    machine["slowdown"] = statistics.median(info["slowdown"] for info in infos)
    return {"git_commit": first["git_commit"], "src_lines": first["src_lines"],
            "machine": machine, "workloads": workloads}


def git_status(checkout):
    """``git status --porcelain`` lines of the checkout's ``src/`` and
    ``bench/`` (ignored files are not listed); None when git cannot read it."""
    try:
        proc = subprocess.run(["git", "-C", str(checkout), "status", "--porcelain",
                               "--", "src", "bench"], capture_output=True, text=True)
    except OSError:
        return None
    return proc.stdout.splitlines() if proc.returncode == 0 else None


def require_clean(checkout):
    """Exit naming the edited files unless ``src/`` and ``bench/`` are
    the checkout's commit."""
    lines = git_status(checkout)
    if lines is None:
        raise SystemExit(f"{checkout}: git cannot read this checkout")
    if lines:
        raise SystemExit(f"{checkout}: src/ or bench/ differ from the commit: "
                         + ", ".join(line[3:] for line in lines))


def run_once(checkout, workload, seed, seconds, trace=0):
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        cwd=checkout, capture_output=True, text=True)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"bench/run.py --workload {workload} --seed {seed} "
                         f"--trace {trace} exited with {proc.returncode}")
    return parse_run(proc.stdout)


def main(argv=None):
    p = argparse.ArgumentParser(prog="tools/trajectory.py")
    p.add_argument("--out", required=True, help="the BENCH_<pr>.json to write")
    p.add_argument("--checkout", default=str(ROOT),
                   help="the repository whose bench/run.py runs (default: this one)")
    p.add_argument("--seeds", type=int, default=10, help="seeds 1..N per workload")
    p.add_argument("--seconds", type=float, default=None,
                   help="--seconds of each run (default: BENCHMARK.json's run_seconds)")
    p.add_argument("--workload", action="append",
                   help="a workload to run; repeatable (default: all)")
    args = p.parse_args(argv)
    with open(Path(args.checkout) / "BENCHMARK.json", encoding="utf-8") as fh:
        spec = json.load(fh)
    seconds = spec["run_seconds"] if args.seconds is None else args.seconds
    names = args.workload or [w["name"] for w in spec["workloads"]]
    require_clean(args.checkout)
    runs = {name: [run_once(args.checkout, name, seed, seconds)
                   for seed in range(1, args.seeds + 1)] for name in names}
    traced = {name: run_once(args.checkout, name, 1, seconds, trace=1) for name in names}
    with atomic_open(args.out) as fh:
        json.dump(dict(aggregate(runs, traced), seconds=seconds), fh, indent=1,
                  sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
