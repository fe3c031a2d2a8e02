"""Repeat benchmark runs and summarise them: median, quartiles and spread.

    python3 perfbench/record.py --seeds 0 --runs 10 --out perfbench/out/seed0.json
    python3 perfbench/record.py --seeds 1-10 --out perfbench/out/seeds.json
    python3 perfbench/record.py --seeds 0 --runs 2 --trace --out perfbench/out/traced.json

Runs execute one after another from the checkout root, never in parallel.
The spread of a metric is the distance between its first and third
quartiles (``statistics.quantiles(values, n=4)``) as a share of its median.
With ``--trace`` each run is a traced run, and the per-layer counts must
repeat exactly across runs of the same seed.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RUN_TIMEOUT_S = 900


def _seeds(text: str):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def run_once(workload: str, seed: int, seconds: int, trace: bool) -> dict:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds),
           "--trace", "1" if trace else "0"]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=RUN_TIMEOUT_S)
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(cmd)} exited {proc.returncode}:\n{proc.stderr}")
    lines = proc.stdout.strip().splitlines()
    out = json.loads(lines[-1])
    out["digests"] = {}
    for line in lines[:-1]:
        if line.startswith("op "):
            name, csv, js = line.split(" | ")[0].split()[1:4]
            out["digests"][name] = {"csv_sha256": csv.split("=")[1],
                                    "json_sha256": js.split("=")[1]}
        elif line.startswith("ref_rel_err "):
            out["ref_rel_err"] = float(line.split()[1])
    return out


def summarise(values):
    q1, med, q3 = statistics.quantiles(values, n=4)
    return {"median": med, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / med if med else None, "values": values}


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workloads", default=",".join(w["name"] for w in spec["workloads"]))
    ap.add_argument("--seeds", default="0", help="a seed or an inclusive range a-b")
    ap.add_argument("--runs", type=int, default=1, help="runs per seed")
    ap.add_argument("--trace", action="store_true")
    ap.add_argument("--out", type=Path, required=True)
    args = ap.parse_args(argv)
    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"]}
    import numpy
    report = {"machine": {"python": platform.python_version(),
                          "cpus": os.cpu_count(), "numpy": numpy.__version__},
              "run_seconds": spec["run_seconds"], "seeds": args.seeds,
              "runs_per_seed": args.runs, "trace": args.trace, "workloads": {}}
    ok = True
    for workload in args.workloads.split(","):
        runs = [run_once(workload, seed, spec["run_seconds"], args.trace)
                for seed in _seeds(args.seeds) for _ in range(args.runs)]
        entry = {"attempted": sum(r["attempted"] for r in runs),
                 "failed": sum(r["failed"] for r in runs),
                 "correct": all(r["correct"] for r in runs), "metrics": {}}
        ok = ok and entry["correct"]
        for name in runs[0]["metrics"]:
            values = [r["metrics"][name]["value"] for r in runs]
            entry["metrics"][name] = summarise(values) if len(values) >= 2 else values[0]
        if "ref_rel_err" in runs[0]:
            entry["ref_rel_err"] = [r["ref_rel_err"] for r in runs]
        entry["digests"] = runs[0]["digests"]
        if any(r["digests"] != runs[0]["digests"] for r in runs[1:]) and len(_seeds(args.seeds)) == 1:
            entry["digests_vary"] = True
            ok = False
        if args.trace:
            counts = [{k: v["value"] for k, v in r["metrics"].items()
                       if not k.endswith("_s")} for r in runs]
            entry["counts_repeat"] = all(c == counts[0] for c in counts[1:])
            ok = ok and entry["counts_repeat"]
        report["workloads"][workload] = entry
        for name, s in entry["metrics"].items():
            if isinstance(s, dict) and not args.trace:
                bound = bounds.get(name)
                print(f"{workload:13s} {name:12s} median {s['median']:.4f} "
                      f"q1 {s['q1']:.4f} q3 {s['q3']:.4f} spread {s['spread']:.4f} "
                      f"bound {bound}", flush=True)
        print(f"{workload:13s} attempted {entry['attempted']} failed {entry['failed']}",
              flush=True)
    args.out.parent.mkdir(parents=True, exist_ok=True)
    args.out.write_text(json.dumps(report, indent=1) + "\n")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
