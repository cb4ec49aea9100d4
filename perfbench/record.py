#!/usr/bin/env python3
"""Run the benchmark over several seeds and record a result file.

    python3 perfbench/record.py --seeds 1-10 --write perfbench/results/BENCH_<commit>.json

For each workload in BENCHMARK.json this runs one untraced run per seed and
one traced run (first seed), then reports for every end-to-end metric the
median, the quartiles (``statistics.quantiles(values, n=4)``) and the spread,
the quartile distance as a share of the median, next to the metric's bound,
in the metric's unit and in raw seconds.
Beside them it keeps each run's mean speed-probe reading and the slope of
log raw wall time against log probe time over the runs: the evidence that
scaling by the probe takes out the box's speed (a slope near 1) and that it
is needed (raw spreads above the reference ones).
The traced run gives the per-layer metrics and each layer's share of the wall
time (self time / traced wall time).  Runs on different kernel backends are
refused rather than summarised together.
"""

from __future__ import annotations

import argparse
import datetime
import json
import math
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def parse_seeds(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def run_once(bench, workload, seed, trace, out_dir):
    out = out_dir / f"{workload}-seed{seed}-trace{trace}.json"
    cmd = [sys.executable, *bench["command"][1:], "--workload", workload, "--seed", str(seed),
           "--seconds", str(bench["run_seconds"]), "--trace", str(trace), "--out", str(out)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
    if proc.returncode != 0:
        raise SystemExit(f"{' '.join(cmd)} exited {proc.returncode}:\n{proc.stderr}")
    json.loads(proc.stdout.splitlines()[-1])  # the last line must be the result
    return json.loads(out.read_text(encoding="utf-8"))


def spread_stats(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return {"median": med, "q1": q1, "q3": q3, "spread": (q3 - q1) / med if med else None,
            "values": values}


def log_slope(xs, ys):
    """Least-squares slope of log y against log x."""
    lx, ly = [math.log(x) for x in xs], [math.log(y) for y in ys]
    mx, my = statistics.fmean(lx), statistics.fmean(ly)
    sxx = sum((x - mx) ** 2 for x in lx)
    return sum((x - mx) * (y - my) for x, y in zip(lx, ly)) / sxx if sxx else float("nan")


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--seeds", default="1-10", help="seed range, e.g. 1-10")
    p.add_argument("--label", default="", help="what was measured, e.g. a commit id")
    p.add_argument("--write", help="write the summary JSON here")
    args = p.parse_args(argv)

    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    names = [w["name"] for w in bench["workloads"]]
    seeds = parse_seeds(args.seeds)
    out_dir = HERE / "out" / "record"
    out_dir.mkdir(parents=True, exist_ok=True)

    summary = {"label": args.label, "date": datetime.date.today().isoformat(),
               "run_seconds": bench["run_seconds"], "seeds": seeds, "workloads": {}}
    backends = set()
    for name in names:
        runs = [run_once(bench, name, s, 0, out_dir) for s in seeds]
        traced = run_once(bench, name, seeds[0], 1, out_dir)
        for r in runs + [traced]:
            backends.add((r["backend"]["name"], r["backend"]["reason"]))
        if len(backends) > 1:
            raise SystemExit(f"runs used different kernel backends {sorted(backends)}; not comparing them")
        entry = {"end_to_end": {}, "attempted": sum(r["attempted"] for r in runs),
                 "failed": sum(r["failed"] for r in runs),
                 "passes": [r["passes"] for r in runs],
                 "probe_mean_s": [r["probe_s"]["mean"] for r in runs],
                 "probe_slope": log_slope([r["probe_s"]["mean"] for r in runs],
                                          [r["raw_metrics"]["wall_s"]["value"] for r in runs]),
                 "noise_loop_cpu_s": {k: [r["noise_loop_cpu_s"][k] for r in runs]
                                      for k in ("start", "end")}}
        print(f"{name}: {len(runs)} runs, {entry['attempted']} ops, {entry['failed']} failed")
        for m in bench["end_to_end"]:
            st = spread_stats([r["metrics"][m["name"]]["value"] for r in runs])
            st.update(unit=m["unit"], bound=m["bound"],
                      raw=spread_stats([r["raw_metrics"][m["name"]]["value"] for r in runs]))
            entry["end_to_end"][m["name"]] = st
            flag = "" if st["spread"] is not None and st["spread"] < m["bound"] / 3 else "  (spread >= bound/3)"
            print(f"  {m['name']:14s} median {st['median']:12.5g} {m['unit']:6s} "
                  f"spread {st['spread']:.3f}  bound {m['bound']}  "
                  f"(raw median {st['raw']['median']:.5g}, spread {st['raw']['spread']:.3f}){flag}")
        print(f"  raw wall time against probe time: slope {entry['probe_slope']:.2f} in log-log")
        layer = {k: v["value"] for k, v in traced["metrics"].items()}
        wall = layer["trace.wall_s"]
        entry["traced"] = {
            "seed": traced["seed"], "failed": traced["failed"], "per_layer": traced["metrics"],
            "layer_shares": {k[:-len(".self_s")]: v / wall for k, v in layer.items()
                             if k.endswith(".self_s")},
        }
        shares = ", ".join(f"{k} {v:.2f}" for k, v in entry["traced"]["layer_shares"].items() if v >= 0.01)
        print(f"  layer shares of traced wall {wall:.3f} s: {shares}")
        print(f"  tracing overhead {layer['trace.overhead_s']:.3f} s")
        summary["workloads"][name] = entry
    (backend, reason), = backends
    summary["backend"] = {"name": backend, "reason": reason}
    summary["machine"] = {k: runs[0][k] for k in ("python", "machine", "cpus")}
    if args.write:
        Path(args.write).write_text(json.dumps(summary, indent=1) + "\n", encoding="utf-8")
        print(f"wrote {args.write}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
