"""Run the benchmark over fixed seeds and write one BENCH_<pr>.json file.

    python3 tools/trajectory.py --out BENCH_<pr>.json --seeds 10
    python3 tools/trajectory.py --checkout ../other-clone --out other.json \\
        --seeds 3 --workload pipeline

For each workload (all that ``BENCHMARK.json`` declares unless
``--workload`` names some) and each seed 1..N, it runs
``bench/run.py --trace 0`` of the given checkout as a subprocess, in
turn, and then ``TRACED_RUNS`` runs of ``bench/run.py --trace 1`` at
seed 1.  The file records, per workload, the median and quartiles of
every end-to-end metric over the seeds, with each seed's value, the
attempted and failed operations, and per per-layer metric the median
of the traced runs as its ``value`` and their ``values``; the machine
line of ``bench-info`` with the median of the clock's ``slowdown``; and
once, the checkout's commit and ``src/`` line count.  A run that exits
non-zero stops the script.

With ``--against``, it compares two checkouts instead:

    python3 tools/trajectory.py --against ../parent-clone --pairs 10 \
        --first-seed 11 --workload pipeline --out pairs.json

For each workload and each of ``--pairs`` seeds from ``--first-seed``
on, it runs ``bench/run.py --trace 0`` of both checkouts in turn, the
``--against`` (parent) checkout first in the first pair and the two
alternating after that.  The file records, per workload and end-to-end
metric, each side's median and quartiles with every value, the pairs
the change (``--checkout``) won, lost and tied by the direction
``BENCHMARK.json`` gives the metric, and whether a gain is shown: at
least ten pairs, at least nine tenths of them won (a tie counts for
neither side), and a gap between the medians, in the better direction,
larger than the distance between the parent's quartiles.  One line per
metric goes to stdout.

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
# traced runs per workload; one run's per-layer times move with the machine
TRACED_RUNS = 3


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


def require_same(infos):
    """Raise unless the bench-info dicts name one commit, source size
    and machine."""
    for key in ("git_commit", "src_lines", *MACHINE):
        if len({json.dumps(info[key]) for info in infos}) != 1:
            raise ValueError(f"runs differ in {key}")


def spread(values):
    """{q1, median, q3, values} of a metric's runs."""
    q1, median, q3 = quartiles(values)
    return {"q1": q1, "median": median, "q3": q3, "values": values}


def per_layer(traced):
    """The per-layer record of one workload's ``traced`` (bench-info,
    result) pairs: per metric its median ``value`` and the ``values``."""
    metrics = {}
    for metric, entry in traced[0][1]["metrics"].items():
        values = [result["metrics"][metric]["value"] for _, result in traced]
        metrics[metric] = {"unit": entry["unit"], "value": statistics.median(values),
                           "values": values}
    return {"seed": traced[0][0]["seed"], "metrics": metrics}


def aggregate(runs, traced):
    """The trajectory record of ``runs``, per workload a list of
    (bench-info, result) pairs in seed order, and of ``traced``, per
    workload the (bench-info, result) pairs of its traced runs."""
    infos = [info for pairs in runs.values() for info, _ in pairs]
    infos += [info for pairs in traced.values() for info, _ in pairs]
    require_same(infos)
    first = infos[0]
    workloads = {}
    for name, pairs in runs.items():
        metrics = {}
        for metric, entry in pairs[0][1]["metrics"].items():
            values = [result["metrics"][metric]["value"] for _, result in pairs]
            metrics[metric] = {"unit": entry["unit"], **spread(values)}
        workloads[name] = {
            "seeds": [info["seed"] for info, _ in pairs],
            "attempted": sum(result["attempted"] for _, result in pairs),
            "failed": sum(result["failed"] for _, result in pairs),
            "metrics": metrics,
            "per_layer": per_layer(traced[name]),
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


def compare(pairs, better):
    """The paired record of one workload's ``pairs``, (parent, change)
    (bench-info, result) pairs in run order; ``better`` maps each metric
    with a direction to ``"higher"`` or ``"lower"``."""
    for side in (0, 1):
        require_same([pair[side][0] for pair in pairs])
    record = {"seeds": [parent[0]["seed"] for parent, _ in pairs], "metrics": {}}
    for name, side in (("parent", 0), ("change", 1)):
        record[name] = {"git_commit": pairs[0][side][0]["git_commit"],
                        "src_lines": pairs[0][side][0]["src_lines"],
                        "attempted": sum(pair[side][1]["attempted"] for pair in pairs),
                        "failed": sum(pair[side][1]["failed"] for pair in pairs)}
    for metric, entry in pairs[0][1][1]["metrics"].items():
        values = [[pair[side][1]["metrics"][metric]["value"] for pair in pairs]
                  for side in (0, 1)]
        row = {"unit": entry["unit"], "better": better.get(metric),
               "parent": spread(values[0]), "change": spread(values[1])}
        if row["better"] is not None:
            sign = 1.0 if row["better"] == "higher" else -1.0
            gains = [sign * (c - p) for p, c in zip(*values)]
            row["won"] = sum(g > 0 for g in gains)
            row["lost"] = sum(g < 0 for g in gains)
            row["gap"] = sign * (row["change"]["median"] - row["parent"]["median"])
            row["parent_spread"] = row["parent"]["q3"] - row["parent"]["q1"]
            row["gain_shown"] = (len(pairs) >= 10 and 10 * row["won"] >= 9 * len(pairs)
                                 and row["gap"] > row["parent_spread"])
        record["metrics"][metric] = row
    return record


def summary(workload, metric, row, pairs):
    """One stdout line of a compared metric."""
    line = (f"{workload} {metric}: parent {row['parent']['median']:.6g} "
            f"[{row['parent']['q1']:.6g}, {row['parent']['q3']:.6g}], change "
            f"{row['change']['median']:.6g} [{row['change']['q1']:.6g}, "
            f"{row['change']['q3']:.6g}]")
    if row["better"] is None:
        return line
    return (line + f"; won {row['won']} of {pairs}, gap {row['gap']:.6g} against "
            f"parent spread {row['parent_spread']:.6g}: gain "
            + ("shown" if row["gain_shown"] else "not shown"))


def run_pairs(parent, change, names, seeds, seconds):
    """{workload: (parent, change) run pairs}, the parent first in even
    pairs and the change first in odd ones."""
    runs = {}
    for name in names:
        runs[name] = []
        for k, seed in enumerate(seeds):
            if k % 2 == 0:
                first = run_once(parent, name, seed, seconds)
                runs[name].append((first, run_once(change, name, seed, seconds)))
            else:
                first = run_once(change, name, seed, seconds)
                runs[name].append((run_once(parent, name, seed, seconds), first))
    return runs


def main(argv=None):
    p = argparse.ArgumentParser(prog="tools/trajectory.py")
    p.add_argument("--out", required=True,
                   help="the BENCH_<pr>.json to write; with --against, the paired record")
    p.add_argument("--checkout", default=str(ROOT),
                   help="the repository whose bench/run.py runs (default: this one)")
    p.add_argument("--seeds", type=int, default=10, help="seeds 1..N per workload")
    p.add_argument("--seconds", type=float, default=None,
                   help="--seconds of each run (default: BENCHMARK.json's run_seconds)")
    p.add_argument("--workload", action="append",
                   help="a workload to run; repeatable (default: all)")
    p.add_argument("--against", help="a parent checkout to compare --checkout with, "
                   "in alternating pairs of untraced runs")
    p.add_argument("--pairs", type=int, default=10, help="pairs per workload (--against)")
    p.add_argument("--first-seed", type=int, default=1,
                   help="the seed of the first pair (--against)")
    args = p.parse_args(argv)
    with open(Path(args.checkout) / "BENCHMARK.json", encoding="utf-8") as fh:
        spec = json.load(fh)
    seconds = spec["run_seconds"] if args.seconds is None else args.seconds
    names = args.workload or [w["name"] for w in spec["workloads"]]
    require_clean(args.checkout)
    if args.against is not None:
        require_clean(args.against)
        better = {m["name"]: m["better"] for m in spec["end_to_end"]}
        seeds = range(args.first_seed, args.first_seed + args.pairs)
        runs = run_pairs(args.against, args.checkout, names, seeds, seconds)
        record = {name: compare(pairs, better) for name, pairs in runs.items()}
        with atomic_open(args.out) as fh:
            json.dump({"seconds": seconds, "workloads": record}, fh, indent=1,
                      sort_keys=True)
            fh.write("\n")
        for name, entry in record.items():
            print(f"{name}: failed operations, parent {entry['parent']['failed']} of "
                  f"{entry['parent']['attempted']}, change {entry['change']['failed']} of "
                  f"{entry['change']['attempted']}")
            for metric, row in entry["metrics"].items():
                print(summary(name, metric, row, args.pairs))
        return 0
    runs = {name: [run_once(args.checkout, name, seed, seconds)
                   for seed in range(1, args.seeds + 1)] for name in names}
    traced = {name: [run_once(args.checkout, name, 1, seconds, trace=1)
                     for _ in range(TRACED_RUNS)] for name in names}
    with atomic_open(args.out) as fh:
        json.dump(dict(aggregate(runs, traced), seconds=seconds), fh, indent=1,
                  sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
