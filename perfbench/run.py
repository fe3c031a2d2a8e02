"""The repository benchmark: one workload per run, closed loop, one client.

    python3 perfbench/run.py --workload cone-cantor --seed 0 --seconds 30 --trace 0

Run it from the root of a source checkout; the library is imported from
``src/``. Each run is one process with no threads. It measures set-up in
fresh child processes, then repeats the workload's operations back to back
through ``presets.run_config`` (the call the CLI makes) for ``--seconds``,
with at least two repetitions. Every operation is checked: it
must not raise, must exit 0, must pass its check, and its CSV and JSON must
match its first repetition byte for byte.

With ``--trace 0`` the last line of stdout holds the end-to-end metrics.
With ``--trace 1`` untraced and traced repetitions alternate (at least two
traced), and the last line holds the per-layer metrics: counts, which must
repeat exactly, and median self times over the traced repetitions. The
spans of the first traced repetition are written to ``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_PROBES = 7
MIN_REPS = 2
PROBE_TIMEOUT_S = 60


def _import_library():
    """Import the package from this checkout's src/, and only from there."""
    sys.path.insert(0, str(ROOT / "src"))
    import coarse_entropy
    from coarse_entropy import errors, presets, spaces
    src = (ROOT / "src").resolve()
    if src not in Path(coarse_entropy.__file__).resolve().parents:
        raise ImportError(f"coarse_entropy was imported from "
                          f"{coarse_entropy.__file__}, not from {src}")
    return coarse_entropy, errors, presets, spaces


def _build_ops(workload: str, seed: int):
    import workloads
    pkg, errors, presets, spaces = _import_library()
    return pkg, errors, presets, workloads.WORKLOADS[workload](presets, spaces, seed)


def _setup_probe(workload: str, seed: int) -> float:
    """Seconds from starting a fresh interpreter until the workload's first
    operation is ready: imports plus config generation."""
    cmd = [sys.executable, str(HERE / "run.py"), "--setup-probe",
           "--workload", workload, "--seed", str(seed)]
    t0 = time.perf_counter()
    with subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True) as proc:
        line = proc.stdout.readline()
        elapsed = time.perf_counter() - t0
        proc.stdout.read()
        code = proc.wait(timeout=PROBE_TIMEOUT_S)
    if line.strip() != "ready" or code != 0:
        raise RuntimeError(f"set-up probe failed with exit code {code}")
    return elapsed


class Outcomes:
    """Per-operation outputs of the first repetition and failure counts."""

    def __init__(self):
        self.first = {}      # name -> (csv bytes, json bytes, detail)
        self.attempted = 0
        self.failed = 0
        self.estimates = {}  # name -> (estimate, reference)

    def fail(self, name: str, why: str):
        self.failed += 1
        print(f"FAIL {name}: {why}", file=sys.stderr)


def _report_bytes(result):
    csv = ("\n".join(result.csv_lines) + "\n").encode() if result.csv_lines else b""
    blob = json.dumps(result.report, sort_keys=True).encode()
    return csv, blob


def run_rep(presets, ops, outcomes: Outcomes, tracer=None, rep: int = 0) -> float:
    """Run every operation once; return the seconds spent inside run_config."""
    done = {}
    wall = 0.0
    for op in ops:
        outcomes.attempted += 1
        if tracer is not None:
            tracer.op = f"{rep}:{op.name}"
        t0 = time.perf_counter()
        try:
            result = presets.run_config(op.config)
        except Exception:
            outcomes.fail(op.name, traceback.format_exc())
            continue
        wall += time.perf_counter() - t0
        done[op.name] = result
        try:
            ok, detail = op.check(result, done)
        except Exception:
            ok, detail = False, traceback.format_exc()
        csv, blob = _report_bytes(result)
        first = outcomes.first.setdefault(op.name, (csv, blob, detail))
        if result.exit_code != 0:
            outcomes.fail(op.name, f"exit code {result.exit_code}: {result.summary}")
        elif not ok:
            outcomes.fail(op.name, f"check failed: {detail}")
        elif (csv, blob) != first[:2]:
            outcomes.fail(op.name, "CSV or JSON differs from the first repetition")
        est = result.report.get("entropy", {}).get("extrapolated_value")
        if op.reference is not None and isinstance(est, float):
            outcomes.estimates[op.name] = (est, op.reference)
    return wall


def _print_outputs(outcomes: Outcomes, seed: int):
    """Digests of each operation's outputs; seed-0 digests are compared with
    the recorded ones for information only."""
    recorded = {}
    baseline = HERE / "baseline.json"
    if seed == 0 and baseline.exists():
        recorded = json.loads(baseline.read_text()).get("seed0_digests", {})
    for name, (csv, blob, detail) in outcomes.first.items():
        digest = {"csv_sha256": hashlib.sha256(csv).hexdigest(),
                  "json_sha256": hashlib.sha256(blob).hexdigest()}
        note = ""
        if name in recorded and recorded[name] != digest:
            note = " (differs from the recorded seed-0 digest)"
        print(f"op {name} csv_sha256={digest['csv_sha256']} "
              f"json_sha256={digest['json_sha256']}{note} | {detail}")
    errs = {n: abs(e - r) / r for n, (e, r) in outcomes.estimates.items() if r}
    if errs:
        worst = max(errs, key=errs.get)
        print(f"ref_rel_err {errs[worst]:.6f} ({worst}; "
              f"estimate {outcomes.estimates[worst][0]:.4f} "
              f"vs reference {outcomes.estimates[worst][1]:.4f})")


def _metric(value, unit):
    return {"value": value, "unit": unit}


def _more(reps, start: float, seconds: float) -> bool:
    """Whether to start another repetition: always until MIN_REPS, then only
    if one more (as long as the last) still ends within the run time."""
    if len(reps) < MIN_REPS:
        return True
    return time.perf_counter() - start + reps[-1] <= seconds


def measure(args) -> dict:
    setups = [_setup_probe(args.workload, args.seed) for _ in range(SETUP_PROBES)]
    pkg, errors, presets, ops = _build_ops(args.workload, args.seed)
    import tracing
    outcomes = Outcomes()
    start = time.perf_counter()
    walls = []
    while _more(walls, start, args.seconds):
        walls.append(run_rep(presets, ops, outcomes, rep=len(walls)))
    stray = tracing.installed_wrappers(pkg)
    if stray:
        outcomes.fail("harness", f"untraced run found wrappers: {stray}")
    _print_outputs(outcomes, args.seed)
    print(f"reps {len(walls)} wall_s " + " ".join(f"{w:.4f}" for w in walls))
    peak_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    return {
        "correct": outcomes.failed == 0,
        "attempted": outcomes.attempted,
        "failed": outcomes.failed,
        "metrics": {
            "setup_s": _metric(statistics.median(setups), "s"),
            "wall_s": _metric(statistics.median(walls), "s"),
            "peak_rss_mb": _metric(peak_mib, "MiB"),
        },
    }


# Layer-coverage expectations at seed 0: (metric, workload -> predicate).
COVERAGE = [
    ("maps.apply.calls", {"cone-cantor": lambda v: v == 0,
                          "chain-orbits": lambda v: v > 0}),
    ("orbits.orbit_distance.calls", {"cone-cantor": lambda v: v == 0,
                                     "chain-orbits": lambda v: v == 0,
                                     "catalog-rest": lambda v: v > 0}),
    ("entropy.bcd_estimate.calls", {"cone-cantor": lambda v: v > 0,
                                    "chain-orbits": lambda v: v == 0,
                                    "catalog-rest": lambda v: v == 0}),
]


def _counts(metrics: dict) -> dict:
    return {k: v for k, v in metrics.items() if not k.endswith("_s")}


def measure_traced(args) -> dict:
    pkg, errors, presets, ops = _build_ops(args.workload, args.seed)
    import tracing
    tracer = tracing.Tracer(pkg, errors.BudgetExceededError)
    outcomes = Outcomes()
    start = time.perf_counter()
    untraced, traced, layers = [], [], []
    # alternate untraced and traced repetitions; once time is up, add only
    # the traced repetitions still needed
    while len(traced) < MIN_REPS or _more(traced, start, args.seconds):
        rep = len(untraced) + len(traced)
        if len(untraced) <= len(traced) and (
                not untraced
                or time.perf_counter() - start + untraced[-1] <= args.seconds):
            untraced.append(run_rep(presets, ops, outcomes, rep=rep))
            continue
        tracer.reset()
        with tracer:
            traced.append(run_rep(presets, ops, outcomes, tracer, rep=rep))
        if not tracer.restored():
            outcomes.fail("harness", "a wrapped callable was not restored")
        layers.append(tracing.layer_metrics(tracer.spans, tracer.names))
        if len(layers) == 1:
            (HERE / "out").mkdir(exist_ok=True)
            tracing.write_spans(HERE / "out" / f"spans-{args.workload}.csv", tracer.spans)
    tracer.reset()
    stray = tracing.installed_wrappers(pkg)
    if stray:
        outcomes.fail("harness", f"wrappers left installed: {stray}")
    if any(_counts(m) != _counts(layers[0]) for m in layers[1:]):
        outcomes.fail("harness", "traced counts differ between repetitions")
    metrics = dict(_counts(layers[0]))
    for key in layers[0]:
        if key.endswith("_s"):
            metrics[key] = statistics.median(m[key] for m in layers)
    metrics["trace.overhead_s"] = statistics.median(traced) - statistics.median(untraced)
    if args.seed == 0:
        for key, expect in COVERAGE:
            check = expect.get(args.workload)
            if check is not None and not check(metrics[key]):
                outcomes.fail("harness", f"coverage: {key} = {metrics[key]} "
                                         f"on {args.workload}")
    _print_outputs(outcomes, args.seed)
    print("untraced_s " + " ".join(f"{w:.4f}" for w in untraced)
          + " traced_s " + " ".join(f"{w:.4f}" for w in traced))
    units = _per_layer_units()
    return {
        "correct": outcomes.failed == 0,
        "attempted": outcomes.attempted,
        "failed": outcomes.failed,
        "metrics": {k: _metric(metrics[k], units[k]) for k in units},
    }


def _per_layer_units() -> dict:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec["per_layer"]}


def main(argv=None) -> int:
    import workloads
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if args.setup_probe:
        _build_ops(args.workload, args.seed)
        print("ready", flush=True)
        return 0
    result = measure_traced(args) if args.trace else measure(args)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
