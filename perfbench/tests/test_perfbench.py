"""Tests of the benchmark harness itself, not of liespectra.

    python3 -m pytest perfbench/tests -q

Each run here uses ``--size tiny``: a few operations per workload.
"""

import json
import random
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent.parent
ROOT = BENCH_DIR.parent
OUT = BENCH_DIR / "out" / "tests"
BENCH = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
WORKLOADS = [w["name"] for w in BENCH["workloads"]]
REPEATED_COUNTS = (
    "linalg.hnf_calls",
    "kernels.freudenthal_dominants",
    "kernels.orbit_expand_weights",
    "spectra.evaluated_weights",
    "torus.strata_found",
    "verify.classification_sweep_calls",
)


def bench_run(workload, seed, trace, tag="", cwd=ROOT):
    OUT.mkdir(parents=True, exist_ok=True)
    out = OUT / f"{workload}-seed{seed}-trace{trace}{tag}.json"
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", "0.1", "--trace", str(trace), "--size", "tiny", "--out", str(out)],
        cwd=cwd, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    return result, json.loads(out.read_text(encoding="utf-8"))


@pytest.mark.parametrize("workload", WORKLOADS)
def test_tiny_run_emits_every_end_to_end_metric(workload):
    result, record = bench_run(workload, 1, 0)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    for m in BENCH["end_to_end"]:
        got = result["metrics"][m["name"]]
        assert got["unit"] == m["unit"]
        assert got["value"] > 0
    assert set(result["metrics"]) == {m["name"] for m in BENCH["end_to_end"]}
    assert record["backend"]["name"] in ("pure", "compiled") and record["backend"]["reason"]
    assert record["noise_loop_cpu_s"]["start"] > 0 and record["noise_loop_cpu_s"]["end"] > 0
    assert record["probe_s"]["readings"] >= 1 and record["probe_s"]["median"] > 0
    # setup_s imports the standard-library modules liespectra pulls in, not only its own
    assert "liespectra" in record["setup_modules"]
    assert any(not m.startswith("liespectra") for m in record["setup_modules"])


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_counts_repeat_for_one_seed(workload):
    first, _ = bench_run(workload, 3, 1, "a")
    second, _ = bench_run(workload, 3, 1, "b")
    assert first["correct"] and second["correct"]
    assert set(first["metrics"]) == {m["name"] for m in BENCH["per_layer"]}
    for m in BENCH["per_layer"]:
        assert first["metrics"][m["name"]]["unit"] == m["unit"]
    counts = [name for name, m in first["metrics"].items() if m["unit"] == "count"]
    assert set(REPEATED_COUNTS) <= set(counts)
    for name in counts:
        assert first["metrics"][name]["value"] == second["metrics"][name]["value"], name


class _Injected:
    """Stands in for a workload: an operation is CPU-bound arithmetic or random
    reads over a 16 MB list, done once or twice over."""

    child_cpu = 0.0

    def __init__(self):
        rng = random.Random(1)
        self.table = list(range(2_000_000))
        self.index = [rng.randrange(len(self.table)) for _ in range(100_000)]

    def cpu(self):
        x = 0
        for i in range(250_000):
            x += i * i % 7

    def mem(self):
        table = self.table
        acc = 0
        for j in self.index:
            acc += table[j]

    def run(self, pool, reps):
        for _ in range(reps):
            getattr(self, pool)()

    def check(self, pool, reps, out):
        return True, None


def test_injected_slowdown_shows_one_for_one_in_reference_time():
    """Doubling an operation's work, CPU-bound or memory-bound, doubles its
    reference time as it doubles its raw time: the speed probe runs in its
    own process and does not follow the program's working set."""
    sys.path.insert(0, str(BENCH_DIR))
    import run
    import speed

    wl = _Injected()
    ops = [(kind, i, reps) for i in range(16) for kind in ("cpu", "mem") for reps in (1, 2)]
    sampler = speed.Sampler()
    try:
        r = run.run_passes(wl, ops, {}, lambda material: None, 0, True, sampler, timer=True)
    finally:
        sampler.close()
    factors = {}
    for kind in ("cpu", "mem"):
        lat = {reps: [] for reps in (1, 2)}
        for (k, _, reps), raw, ref in zip(ops, r["lat"], r["ref_lat"]):
            if k == kind:
                lat[reps].append((raw, ref))
        raw_ratio = statistics.median(x for x, _ in lat[2]) / statistics.median(x for x, _ in lat[1])
        ref_ratio = statistics.median(y for _, y in lat[2]) / statistics.median(y for _, y in lat[1])
        assert 1.4 < raw_ratio < 2.8, (kind, raw_ratio)
        assert abs(ref_ratio / raw_ratio - 1) < 0.15, (kind, raw_ratio, ref_ratio)
        factors[kind] = statistics.median(y / x for x, y in lat[1] + lat[2])
    # the box's speed, as the probe reads it, is the same beside both kinds
    assert abs(factors["mem"] / factors["cpu"] - 1) < 0.15, factors


def test_refs_cover_every_pool_entry():
    sys.path[:0] = [str(ROOT / "src"), str(BENCH_DIR)]
    import workloads

    for name, cls in workloads.WORKLOADS.items():
        refs = workloads.load_refs(BENCH_DIR / "refs" / f"{name}.json")
        wl = cls()
        assert set(refs) == set(wl.pools), name
        for pool, entries in wl.pools.items():
            assert len(refs[pool]) == len(entries), (name, pool)


def test_fails_without_the_source_tree():
    bare = OUT / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(BENCH_DIR, bare / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", WORKLOADS[0], "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=bare, capture_output=True, text=True, timeout=180,
    )
    shutil.rmtree(bare)
    assert proc.returncode != 0
    assert not proc.stdout.strip()
