#!/usr/bin/env python3
"""Benchmark for liespectra: one workload, one seed, one run.

    python3 perfbench/run.py --workload multiplicities --seed 1 --seconds 12 --trace 0

Runs from the source tree (``src/`` next to this directory), with whichever
kernel backend the default import selects.  The workload's operations run in
passes until ``--seconds`` have passed (at least one pass).

With ``--trace 0`` the result holds the end-to-end metrics.  Their times are
in reference seconds (see speed.py): each operation's raw time scaled by the
box's speed measured around it.  Their units are ``ref_s`` and ``ref_ms``,
except that setup_s, in reference seconds too, keeps the unit ``s`` that
BENCHMARK.json must give it.  The raw times are printed and recorded too.
With ``--trace 1`` one traced pass and one untraced pass run, and the result
holds the per-layer metrics, in raw seconds; the tracing overhead is the
difference of the two passes in reference seconds.

Every operation's output is checked and compared with the reference digest in
``refs/<workload>.json``.  The last line of standard output is the result as
one JSON object; a fuller result file, naming the kernel backend and the
machine-noise readings, is written to ``out/`` (or to ``--out``).

    python3 perfbench/run.py --workload multiplicities --regen-refs

recomputes the reference digests over every pool entry instead of measuring.
"""

from __future__ import annotations

import argparse
import contextlib
import importlib.util
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import speed

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
REFS = HERE / "refs"

# Set-up samples per run, each a fresh import of the package (importtime.py).
SETUP_SAMPLES = 16
# Gap after which the next operation gets a fresh speed reading before it.
PROBE_GAP_S = 0.05


def import_package():
    """Import liespectra from this checkout's src/, and nowhere else."""
    sys.path.insert(0, str(SRC))
    import liespectra

    where = Path(liespectra.__file__).resolve().parent
    if where != SRC / "liespectra":
        raise ImportError(f"liespectra was imported from {where}, not from {SRC}")
    return liespectra


def backend_info(ls):
    name = ls.kernels.BACKEND
    if os.environ.get("LIESPECTRA_PURE"):
        reason = "forced: LIESPECTRA_PURE is set"
    elif name == "pure":
        built = importlib.util.find_spec("liespectra._kernels_c") is not None
        reason = ("import failed: the compiled extension did not load" if built
                  else "import failed: the compiled extension is not built")
    else:
        reason = "default: the compiled extension imported"
    return {"name": name, "reason": reason}


def noise_loop():
    """CPU seconds of a fixed plain-Python loop; a slow reading means a slow box."""
    t0 = time.process_time()
    x = 0
    for i in range(1_500_000):
        x += i * i % 7
    return time.process_time() - t0


def child_env():
    return dict(os.environ, PYTHONPATH=str(SRC))


def setup_times(groups, sampler):
    """Seconds of importing liespectra and building the workload's root data,
    SETUP_SAMPLES times in one fresh interpreter (see importtime.py), in raw
    seconds; and the modules each sample imports.  A speed reading is taken
    between samples."""
    child = subprocess.Popen([sys.executable, str(HERE / "importtime.py"), str(SRC), *groups],
                             stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)
    try:
        modules = child.stdout.readline().split()
        raw = []
        sampler.sample()
        for _ in range(SETUP_SAMPLES):
            child.stdin.write("\n")
            child.stdin.flush()
            raw.append(float(child.stdout.readline()))
            sampler.sample()
    finally:
        child.stdin.close()
        child.wait(timeout=60)
        child.stdout.close()
    return raw, modules


def import_cost():
    """Wall time of a bare ``import liespectra`` process minus ``python -c pass``."""
    def wall(code):
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", code], env=child_env(), check=True,
                       capture_output=True, timeout=120)
        return time.perf_counter() - t0

    imp, base = [], []
    for _ in range(SETUP_SAMPLES):
        imp.append(wall("import liespectra"))
        base.append(wall("pass"))
    return statistics.median(imp) - statistics.median(base)


def percentile(values, q):
    s = sorted(values)
    return s[max(0, math.ceil(q * len(s)) - 1)]


def run_passes(wl, ops, refs, digest, seconds, once, sampler, tracer=None, timer=False):
    """Run the planned operations in passes; time each operation, then check
    it outside the timed part.

    A speed reading is taken before an operation when the last one is older
    than PROBE_GAP_S, at the end of each pass and, with ``timer``, every
    speed.PERIOD_S during operations.  Per pass this returns raw and
    reference-speed wall and CPU sums; per operation, raw and reference-speed
    latencies.
    """
    r = {"lat": [], "ref_lat": [], "pass_wall": [], "pass_cpu": [], "ref_wall": [], "ref_cpu": [],
         "failures": []}
    failures = r["failures"]
    start = time.perf_counter()
    while True:
        timed = []  # (wall, cpu, first reading index, readings before its end)
        with sampler.timer() if timer else contextlib.nullcontext():
            for pool, index, op_input in ops:
                if time.perf_counter() - sampler.last >= PROBE_GAP_S:
                    sampler.sample()
                first = len(sampler.readings) - 1
                sw, sc, child0 = sampler.stolen_wall, sampler.stolen_cpu, wl.child_cpu
                c0, w0 = time.process_time(), time.perf_counter()
                try:
                    out, err = wl.run(pool, op_input), None
                except Exception as exc:  # an operation that raises counts as failed
                    out, err = None, exc
                w1, c1 = time.perf_counter(), time.process_time()
                timed.append((w1 - w0 - (sampler.stolen_wall - sw),
                              c1 - c0 - (sampler.stolen_cpu - sc) + wl.child_cpu - child0,
                              first, len(sampler.readings)))
                if err is not None:
                    failures.append(f"{pool}#{index}: raised {type(err).__name__}: {err}")
                    continue
                if tracer is not None:
                    tracer.active = False
                try:
                    ok, material = wl.check(pool, op_input, out)
                    ref = refs.get(pool, [])
                    if not ok:
                        failures.append(f"{pool}#{index}: output check failed")
                    elif index >= len(ref) or ref[index] != digest(material):
                        failures.append(f"{pool}#{index}: digest differs from the reference")
                finally:
                    if tracer is not None:
                        tracer.active = True
            sampler.sample()
        sums = [0.0, 0.0, 0.0, 0.0]
        for wall, cpu, first, end in timed:
            f = sampler.factor(first, end)
            r["lat"].append(wall)
            r["ref_lat"].append(wall * f)
            for i, v in enumerate((wall, cpu, wall * f, cpu * f)):
                sums[i] += v
        for key, v in zip(("pass_wall", "pass_cpu", "ref_wall", "ref_cpu"), sums):
            r[key].append(v)
        if once or time.perf_counter() - start >= seconds:
            r["attempted"] = len(r["lat"])
            return r


def regen_refs(wl, digest):
    refs = {}
    for pool, entries in wl.pools.items():
        col = []
        for index in range(len(entries)):
            op_input = wl.inputs(pool, index)
            ok, material = wl.check(pool, op_input, wl.run(pool, op_input))
            if not ok:
                raise SystemExit(f"{wl.name}: {pool}#{index} fails its output check")
            col.append(digest(material))
        refs[pool] = col
    path = REFS / f"{wl.name}.json"
    body = ",\n".join(f"{json.dumps(pool)}: {json.dumps(col)}" for pool, col in sorted(refs.items()))
    path.write_text("{\n" + body + "\n}\n", encoding="utf-8")
    print(f"wrote {sum(map(len, refs.values()))} digests to {path}")


def end_to_end(run, n_ops, setup, rss_kb):
    """The end-to-end metrics in reference seconds, and in raw seconds.  An
    operation's latency is the median of its times over the run's passes."""
    def block(wall, cpu, lat, setup_s, prefix):
        lat = [statistics.median(lat[i::n_ops]) for i in range(n_ops)]
        return {
            "wall_s": (statistics.median(wall), prefix + "s"),
            "cpu_s": (statistics.median(cpu), prefix + "s"),
            "setup_s": (statistics.median(setup_s), "s"),
            "peak_rss_mb": (rss_kb / 1024, "MB"),
            "op_p50_ms": (statistics.median(lat) * 1000, prefix + "ms"),
            "op_p90_ms": (percentile(lat, 0.9) * 1000, prefix + "ms"),
        }
    return (block(run["ref_wall"], run["ref_cpu"], run["ref_lat"], setup[1], "ref_"),
            block(run["pass_wall"], run["pass_cpu"], run["lat"], setup[0], ""))


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=12)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--size", choices=("full", "tiny"), default="full",
                   help="tiny: a few operations per workload, for the benchmark's own tests")
    p.add_argument("--out", help="result file (default: out/<workload>-seed<n>-trace<t>.json)")
    p.add_argument("--regen-refs", action="store_true",
                   help="recompute refs/<workload>.json over every pool entry and exit")
    args = p.parse_args(argv)

    try:
        ls = import_package()
    except ImportError as exc:
        print(f"cannot import liespectra from {SRC}: {exc}", file=sys.stderr)
        return 2
    import tracer as tracing
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"unknown workload {args.workload!r}; choose from {', '.join(workloads.WORKLOADS)}",
              file=sys.stderr)
        return 2
    cls = workloads.WORKLOADS[args.workload]
    if cls is workloads.Cli:
        wl = cls(args.size, src=str(SRC), in_process=bool(args.trace))
    else:
        wl = cls(args.size)

    try:
        return measure(args, ls, wl, tracing, workloads)
    finally:
        wl.close()


def measure(args, ls, wl, tracing, workloads):
    if args.regen_refs:
        wl.prepare()
        regen_refs(wl, workloads.digest)
        return 0

    noise_start = noise_loop()
    raw = {}
    spans_path = None
    setup = setup_modules = None
    sampler = speed.Sampler()
    try:
        if not args.trace:
            setup_raw, setup_modules = setup_times(wl.groups, sampler)
        wl.prepare()
        refs = workloads.load_refs(REFS / f"{wl.name}.json")
        ops = [(pool, index, wl.inputs(pool, index)) for pool, index in wl.plan(args.seed)]
        if args.trace:
            tr = tracing.Tracer()
            tr.install()
            try:
                traced = run_passes(wl, ops, refs, workloads.digest, args.seconds, True, sampler, tr)
            finally:
                tr.uninstall()
            untraced = run_passes(wl, ops, refs, workloads.digest, args.seconds, True, sampler)
            runs = [traced, untraced]
            layer = tracing.layer_metrics(tr, traced["pass_wall"][0],
                                          traced["ref_wall"][0] - untraced["ref_wall"][0],
                                          import_cost())
            metrics = {k: {"value": v, "unit": u} for k, (v, u) in layer.items()}
            OUT.mkdir(exist_ok=True)
            spans_path = OUT / f"{wl.name}-seed{args.seed}-spans.json.gz"
            tr.write_spans(spans_path)
        else:
            in_process = not isinstance(wl, workloads.Cli)
            run = run_passes(wl, ops, refs, workloads.digest, args.seconds, False, sampler,
                             timer=in_process)
            runs = [run]
            if in_process:
                rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
            else:
                rss_kb = wl.child_maxrss_kb  # the largest child
            # A set-up sample is too short for the readings beside it to say
            # much about its speed; the median reading of the run does.
            f = speed.scale(statistics.median(sampler.readings))
            setup = (setup_raw, [t * f for t in setup_raw])
            ref_m, raw_m = end_to_end(run, len(ops), setup, rss_kb)
            metrics = {k: {"value": v, "unit": u} for k, (v, u) in ref_m.items()}
            raw = {k: {"value": v, "unit": u} for k, (v, u) in raw_m.items()}
    finally:
        sampler.close()
    noise_end = noise_loop()

    attempted = sum(r["attempted"] for r in runs)
    failures = [f for r in runs for f in r["failures"]]
    result = {"correct": not failures, "attempted": attempted, "failed": len(failures),
              "metrics": metrics}
    backend = backend_info(ls)
    readings = sampler.readings
    record = {
        "workload": wl.name, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
        "size": args.size, "backend": backend,
        "noise_loop_cpu_s": {"start": noise_start, "end": noise_end},
        "probe_s": {"mean": statistics.fmean(readings), "median": statistics.median(readings),
                    "readings": len(readings), "ref_s": speed.REF_S},
        "passes": len(runs[0]["pass_wall"]), "ops_per_pass": len(ops),
        "failed_frac": len(failures) / attempted, "failures": failures[:20],
        "raw_metrics": raw, "pass_wall_s": runs[0]["pass_wall"], "pass_ref_wall_s": runs[0]["ref_wall"],
        "setup_raw_s": setup and setup[0], "setup_ref_s": setup and setup[1],
        "setup_modules": setup_modules,
        "python": platform.python_version(), "machine": platform.machine(), "cpus": os.cpu_count(),
        "spans_file": spans_path and str(spans_path.relative_to(ROOT)),
        **result,
    }
    out_path = Path(args.out) if args.out else OUT / f"{wl.name}-seed{args.seed}-trace{args.trace}.json"
    out_path.parent.mkdir(parents=True, exist_ok=True)
    out_path.write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")

    print(f"workload {wl.name}  seed {args.seed}  backend {backend['name']} ({backend['reason']})")
    print(f"passes {record['passes']}  ops {attempted}  failed {len(failures)}  "
          f"failed_frac {record['failed_frac']:.4f} share")
    print(f"noise loop cpu {noise_start:.3f} s at start, {noise_end:.3f} s at end; "
          f"speed probe median {record['probe_s']['median'] * 1000:.3f} ms (reference {speed.REF_S * 1000} ms)")
    for f in failures[:5]:
        print(f"FAILED {f}")
    print(f"  {'metric':36s} {'value':>15s}" + (f" {'raw':>14s}" if raw else ""))
    for name, m in metrics.items():
        line = f"  {name:36s} {m['value']:>15.6g}"
        if raw:
            line += f" {raw[name]['value']:>14.6g}"
        print(f"{line} {m['unit']}")
    print(f"result file {out_path}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
