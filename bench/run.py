"""Run one benchmark workload and print its result as the last stdout line.

    python3 bench/run.py --workload pipeline --seed 1 --seconds 20 --trace 0

Run from the repository root.  ``--trace 0`` prints the end-to-end
metrics; ``--trace 1`` reruns the same fixed work with every public layer
boundary wrapped and prints the per-layer metrics, and writes the spans
to ``.bench_out/``.  Metric names, units and bounds live in
``BENCHMARK.json``.  See ``bench/README.md``.
"""

import os

# pinned before numpy is imported anywhere in the process
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import shutil  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


def _parser(spec):
    p = argparse.ArgumentParser(prog="bench/run.py")
    p.add_argument("--workload", required=True,
                   choices=[w["name"] for w in spec["workloads"]])
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    return p


def _git_commit():
    """HEAD's commit read from .git without running git; None outside a clone."""
    git = ROOT / ".git"
    head = git / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[len("ref: "):]
    if (git / name).is_file():
        return (git / name).read_text().strip()
    packed = git / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return None


def _src_lines():
    return sum(len(p.read_text(encoding="utf-8").splitlines())
               for p in sorted(SRC.rglob("*.py")))


def provenance(workload, seed):
    import numpy as np
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):   # numpy older than 1.26
        blas = "unknown"
    return {"workload": workload, "seed": seed,
            "python": platform.python_version(), "numpy": np.__version__,
            "blas": blas, "nproc": len(os.sched_getaffinity(0)),
            "threads": {v: os.environ[v] for v in THREAD_VARS},
            "git_commit": _git_commit(), "src_lines": _src_lines()}


def _declared(spec, key):
    return {m["name"]: m["unit"] for m in spec[key]}


def main(argv=None):
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        spec = json.load(fh)
    args = _parser(spec).parse_args(argv)
    if not (SRC / "mrparse").is_dir():
        print(f"bench: no mrparse package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import workloads

    work_dir = ROOT / ".bench_work" / str(os.getpid())
    try:
        result = workloads.run(args.workload, args.seed, args.seconds,
                               bool(args.trace), str(work_dir))
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)

    values = result["layers"] if args.trace else result["e2e"]
    units = _declared(spec, "per_layer" if args.trace else "end_to_end")
    if set(values) != set(units):
        print(f"bench: metrics {sorted(set(values) ^ set(units))} are not "
              f"both measured and declared", file=sys.stderr)
        return 2
    info = dict(provenance(args.workload, args.seed),
                rounds=result["rounds"], measured_s=result["measured_s"],
                slowdown=result["slowdown"])
    if args.trace:
        out_dir = ROOT / ".bench_out"
        out_dir.mkdir(exist_ok=True)
        path = out_dir / f"spans-{args.workload}-seed{args.seed}.jsonl"
        result["tracer"].write(path)
        # the end-to-end figures of the traced run, for the tracing overhead
        info.update(spans=str(path.relative_to(ROOT)),
                    traced_e2e=result["e2e"])
    for msg in result["messages"]:
        print(f"bench: check failed: {msg}", file=sys.stderr)
    print("bench-info " + json.dumps(info, sort_keys=True))
    print(json.dumps({
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {name: {"value": values[name], "unit": units[name]}
                    for name in units},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
