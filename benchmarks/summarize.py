"""Run the benchmark over several seeds and summarise the spread of each metric.

Usage, from the root of a source checkout:

    python3 benchmarks/summarize.py --seeds 1-10 --out summary.json
    python3 benchmarks/summarize.py --seeds 1-10 --against benchmarks/baseline.json

Runs ``benchmarks/run.py`` once per workload and seed, one process at a
time, with ``run_seconds`` and the workloads from ``BENCHMARK.json``. For
every metric it reports the median, the quartiles from
``statistics.quantiles(values, n=4)`` and the spread (third minus first
quartile, as a share of the median), and flags an end-to-end spread that is
not below a third of the metric's bound. With ``--against`` it compares each
seed's digest and exact counts with an earlier summary: a change that only
speeds up the simulator must reproduce them bit for bit. Exits 1 when a run
is incorrect, a spread is too wide or a digest differs.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def _seeds(text: str) -> list[int]:
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def _run(workload: str, seed: int, seconds: int, trace: int) -> tuple[dict, dict]:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed",
         str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=600, check=False,
    )
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or len(lines) < 2:
        raise RuntimeError(f"{workload} seed {seed} exited {proc.returncode}: {proc.stderr[-2000:]}")
    return json.loads(lines[-2]), json.loads(lines[-1])


def _spread(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {
        "median": median, "q1": q1, "q3": q3, "n": len(values),
        "spread": (q3 - q1) / median if median else None,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", default="1-10", help="e.g. 1-10 or 1,3,5")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", help="write the summary JSON here")
    parser.add_argument("--against", help="earlier summary whose digests must match")
    args = parser.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    workloads = [w["name"] for w in spec["workloads"]]
    seconds = spec["run_seconds"]
    seeds = _seeds(args.seeds)

    summary = {"seconds": seconds, "trace": args.trace, "workloads": {}}
    ok = True
    for workload in workloads:
        runs = []
        for seed in seeds:
            record, result = _run(workload, seed, seconds, args.trace)
            runs.append({
                "seed": seed, "correct": result["correct"], "attempted": result["attempted"],
                "failed": result["failed"], "digest": record["digest"],
                "counts": record["counts"], "git_sha": record["git_sha"],
                "metrics": {k: v["value"] for k, v in result["metrics"].items()},
            })
            ok &= result["correct"]
            print(f"{workload} seed {seed}: correct={result['correct']} "
                  + " ".join(f"{k}={v['value']:.6g}" for k, v in result["metrics"].items()
                             if k in bounds or args.trace),
                  flush=True)
        metrics = {}
        for name in runs[0]["metrics"]:
            metrics[name] = _spread([r["metrics"][name] for r in runs]) if len(runs) > 1 else None
            bound = bounds.get(name) if not args.trace else None
            if bound and metrics[name] and metrics[name]["spread"] >= bound / 3:
                print(f"  {workload} {name}: spread {metrics[name]['spread']:.4f} "
                      f"not below a third of its bound {bound}")
                ok = False
        summary["workloads"][workload] = {"metrics": metrics, "runs": runs}
        for name, m in metrics.items():
            if m and (name in bounds or args.trace):
                print(f"  {workload} {name}: median {m['median']:.6g} spread {m['spread']:.4f}")

    if args.against:
        earlier = json.loads(Path(args.against).read_text())
        for workload, data in summary["workloads"].items():
            before = {r["seed"]: r for r in earlier["workloads"].get(workload, {}).get("runs", [])}
            for run in data["runs"]:
                old = before.get(run["seed"])
                if old and (old["digest"], old["counts"]) != (run["digest"], run["counts"]):
                    print(f"  {workload} seed {run['seed']}: digest or counts differ from {args.against}")
                    ok = False

    if args.out:
        Path(args.out).write_text(json.dumps(summary, indent=1, sort_keys=True) + "\n")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
