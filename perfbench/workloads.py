"""The benchmark's four workloads.

Each workload draws its operations from fixed pools of inputs; the seed picks
which pool entries a run uses and in what order.  Because the pools are fixed,
the reference output digests in ``refs/`` cover every seed.  Pools are split
into bins of entries that cost about the same, and every run takes the same
number of entries from each bin, so runs with different seeds do about the same
amount of work.

Every call into the package goes through a module attribute (``ls.mult.x``,
never a name imported here), so the traced run's wrappers see it.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import random
import subprocess
import sys
from fractions import Fraction

import liespectra as ls
import liespectra.cli  # noqa: F401  (loads the cli module for the traced run)


def digest(obj):
    return hashlib.blake2b(repr(obj).encode(), digest_size=4).hexdigest()


def _pick(rng, items, k):
    return sorted(rng.sample(range(len(items)), min(k, len(items))))


class Workload:
    """A workload's pools, its per-seed plan and its operations.

    ``pools`` maps a pool name to its entries; an operation is a (pool name,
    index) pair.  ``inputs`` makes an operation's input, ``run`` executes it
    (the timed part) and ``check`` returns (ok, material), where material is
    what the reference digest is taken over.
    """

    name = ""
    groups: tuple = ()
    child_cpu = 0.0  # CPU seconds of child processes, for workloads that start them

    def __init__(self, size="full"):
        self.size = size

    def prepare(self):
        """Untimed set-up after import: build the inputs' root data."""
        for g in self.groups:
            ls.parse_group(g)

    def inputs(self, pool, index):
        """The input of one operation, made before the timed part."""
        return self.pools[pool][index]

    def close(self):
        """Stop anything the workload started."""


# -- multiplicities ---------------------------------------------------------------


def _bin(group, coords, picks):
    return {"group": group, "coords": [tuple(c) for c in coords], "picks": picks}


# Rank 1 and 2 modules with large coordinates, where the Freudenthal string
# walk dominates.  Entries of one bin cost within about 20% of each other.
# Most A1 modules come from the top bin, so the slowest tenth of the
# operations (op_p90_ms) is made of near-equal modules whatever the seed.
_KERNEL_BINS = {
    **{f"A1-{lo}": _bin("A1", [(lo + 10 * k,) for k in range(10)], 8 if lo == 1400 else 1)
       for lo in range(800, 1500, 100)},
    "A2-70": _bin("A2", [(a, 70 - a) for a in range(20, 51, 5)], 2),
    "A2-80": _bin("A2", [(a, 80 - a) for a in range(25, 56, 5)], 2),
    "B2-40": _bin("B2", [(a, 40 - a) for a in range(10, 31, 5)], 2),
    "B2-50": _bin("B2", [(a, 50 - a) for a in range(15, 36, 5)], 2),
    "G2-16": _bin("G2", [(a, 16 - a) for a in range(6, 11)], 3),
}

# Modules of rank 3 to 8 with many weights, where Weight construction, orbit
# expansion and the saturated set dominate.  Bins group modules of similar
# cost across groups.
_OBJECT_BINS = {
    "hi-300ms": ({"E8": [(0, 0, 0, 0, 0, 0, 1, 0), (0, 0, 0, 0, 0, 0, 0, 2)],
                  "E7": [(1, 1, 0, 0, 0, 0, 0)]}, 1),
    "hi-200ms": ({"E6": [(1, 0, 1, 0, 0, 1)], "E7": [(0, 1, 0, 0, 0, 0, 1)],
                  "D5": [(2, 0, 1, 0, 2)]}, 1),
    "hi-140ms": ({"A7": [(1, 1, 0, 0, 0, 1, 1), (0, 1, 0, 1, 0, 1, 0)],
                  "D6": [(2, 0, 0, 0, 1, 1)], "D4": [(2, 2, 2, 2)], "A5": [(1, 2, 0, 2, 1)]}, 3),
    "hi-100ms": ({"E6": [(1, 1, 0, 0, 0, 1)], "D6": [(0, 1, 0, 0, 1, 1)], "C4": [(1, 1, 1, 2)],
                  "A5": [(3, 0, 1, 0, 3)], "B4": [(2, 0, 2, 1)]}, 3),
    "hi-90ms": ({"C4": [(1, 2, 1, 1)], "D4": [(3, 1, 1, 3)], "D5": [(1, 0, 1, 1, 1)],
                 "E7": [(2, 0, 0, 0, 0, 0, 0)]}, 3),
    "hi-70ms": ({"C4": [(2, 1, 1, 1)], "D4": [(1, 3, 1, 1)], "F4": [(0, 0, 2, 1)],
                 "E6": [(0, 1, 0, 0, 1, 0)], "A5": [(1, 1, 1, 1, 1), (2, 1, 0, 1, 2)],
                 "A7": [(1, 0, 1, 0, 0, 1, 0)], "E8": [(1, 0, 0, 0, 0, 0, 0, 0)]}, 5),
    "hi-55ms": ({"A4": [(1, 3, 3, 1), (2, 2, 2, 2)], "D6": [(1, 1, 0, 0, 1, 0)],
                 "D5": [(1, 1, 0, 1, 1)], "E7": [(1, 0, 0, 0, 0, 0, 1)], "B4": [(1, 0, 1, 3)],
                 "E6": [(2, 0, 0, 0, 0, 1)], "D4": [(4, 1, 0, 2)]}, 5),
    "hi-45ms": ({"E6": [(1, 0, 0, 0, 0, 2)], "B4": [(2, 1, 0, 2), (1, 1, 1, 1)],
                 "D5": [(0, 1, 1, 1, 0)], "D6": [(1, 0, 0, 0, 1, 1)],
                 "A4": [(3, 1, 1, 3), (4, 1, 2, 1)], "C4": [(3, 1, 0, 1)], "A3": [(5, 5, 5)]}, 5),
    "hi-25ms": ({"F4": [(0, 1, 0, 1), (2, 0, 0, 1)], "E6": [(0, 0, 0, 1, 0, 0)],
                 "E7": [(0, 0, 0, 0, 0, 1, 0), (0, 0, 0, 0, 0, 0, 2)],
                 "B3": [(2, 3, 2)], "C3": [(2, 3, 2), (4, 1, 3)], "A3": [(8, 2, 4)]}, 5),
}


class Multiplicities(Workload):
    """Highest weights put through freudenthal_multiplicities and then
    premet_weight_set; one module is one operation."""

    name = "multiplicities"

    def __init__(self, size="full"):
        super().__init__(size)
        self.bins = {}
        for name, b in _KERNEL_BINS.items():
            self.bins[name] = [(b["group"], c) for c in b["coords"]], b["picks"]
        for name, (by_group, picks) in _OBJECT_BINS.items():
            self.bins[name] = [(g, c) for g, cs in by_group.items() for c in cs], picks
        self.pools = {name: entries for name, (entries, _) in self.bins.items()}
        self.groups = tuple(sorted({g for entries in self.pools.values() for g, _ in entries}))

    def plan(self, seed):
        rng = random.Random(f"multiplicities:{seed}")
        ops = []
        for name, (entries, picks) in self.bins.items():
            if self.size == "tiny":
                if name in ("A1-800", "hi-25ms"):
                    ops.append((name, rng.randrange(len(entries))))
                continue
            ops.extend((name, i) for i in _pick(rng, entries, picks))
        rng.shuffle(ops)
        return ops

    def inputs(self, pool, index):
        group, coords = self.pools[pool][index]
        return ls.parse_group(group).weight(coords)

    def run(self, pool, lam):
        return ls.mult.freudenthal_multiplicities(lam), ls.mult.premet_weight_set(lam)

    def check(self, pool, lam, out):
        ms, wset = out
        ok = ms.total == ls.mult.weyl_dimension(lam) and ms.support() == wset
        return ok, sorted((w.coords, m) for w, m in ms.entries.items())


# -- sweep ---------------------------------------------------------------------------

# (family, rank, dimension bound).  The first four are bound by
# canonical_root_strata and its HNF calls; the rest have few strata and large
# dimension bounds, so module-by-element classification does the work.
_SWEEP_GROUPS = (
    ("D", 5, 60), ("D", 6, 40), ("F", 4, 60), ("D", 4, 300),
    ("A", 3, 300), ("B", 3, 200), ("C", 3, 200), ("A", 4, 150), ("G", 2, 200),
)


class Sweep(Workload):
    """run_check("c99") and then run_check("bounds") with the same arguments,
    at stratum depth 2; one check is one operation."""

    name = "sweep"

    def __init__(self, size="full"):
        super().__init__(size)
        self.pools = {"checks": [(check, fam, rank, dim)
                                 for fam, rank, dim in _SWEEP_GROUPS
                                 for check in ("c99", "bounds")]}
        self.groups = tuple(f"{fam}{rank}" for fam, rank, _ in _SWEEP_GROUPS)
        self.check_seed = 0

    def plan(self, seed):
        rng = random.Random(f"sweep:{seed}")
        self.check_seed = rng.randrange(1000)
        order = list(range(len(_SWEEP_GROUPS)))
        if self.size == "tiny":
            order = [len(_SWEEP_GROUPS) - 1]
        rng.shuffle(order)
        return [("checks", 2 * g + k) for g in order for k in (0, 1)]

    def run(self, pool, op_input):
        check, fam, rank, dim = op_input
        return ls.verify.run_check(check, family=fam, rank=rank, dim_bound=dim, depth=2,
                                   seed=self.check_seed)

    def check(self, pool, op_input, out):
        # check_id echoes the arguments (seed included) and elapsed is a
        # timing, so neither is part of the digest.
        report = out.to_json()
        return out.status == "Pass", (report["status"], report["notes"], report["cases"])


# -- spectra ----------------------------------------------------------------------------

# Groups and dimension bounds of the module lists for the sampled elements
# (as in acceptance criterion 4), and the classical groups for the
# natural-module samples (criterion 7).
_ELEMENT_GROUPS = (("A", 2, 20), ("A", 3, 40), ("C", 2, 35), ("B", 3, 40), ("G", 2, 30), ("D", 4, 50))
_NATURAL_GROUPS = (("B", 3), ("B", 4), ("B", 5), ("C", 2), ("C", 3), ("C", 4), ("C", 5),
                   ("D", 4), ("D", 5), ("D", 6))
_POOL = {"element": 300, "natural": 400, "tensor": 1000}
_PICK = {"element": 150, "natural": 250, "tensor": 500}


def _epsilon_tokens(datum, rng):
    """Random epsilon tuple mixing fresh symbols, repeats, inverses and signs;
    family A gets a determinant-one last entry."""
    count = datum.rank + 1 if datum.family == "A" else datum.rank
    tokens, used = [], []
    for i in range(count - 1 if datum.family == "A" else count):
        torsion = Fraction(1, 2) if rng.random() < 0.25 else Fraction(0)
        roll = rng.random()
        if used and roll < 0.35:
            tokens.append(ls.torus.EpsilonToken(torsion, {rng.choice(used): rng.choice((1, 1, -1))}))
        elif roll < 0.55:
            tokens.append(ls.torus.EpsilonToken(torsion, {}))
        else:
            used.append(f"x{i}")
            tokens.append(ls.torus.EpsilonToken(torsion, {f"x{i}": 1}))
    if datum.family == "A":
        powers = {}
        for t in tokens:
            for k, e in t.powers.items():
                powers[k] = powers.get(k, 0) - e
        total = sum((t.torsion for t in tokens), Fraction(0))
        tokens.append(ls.torus.EpsilonToken(-total, {k: e for k, e in powers.items() if e}))
    return tokens


def _random_spectrum(rng, symmetric):
    values = set()
    while len(values) < rng.randrange(2, 5):
        torsion = Fraction(rng.randrange(4), 4) if rng.random() < 0.3 else Fraction(0)
        values.add(ls.ValueGroupElement(torsion, tuple(rng.randrange(-2, 3) for _ in range(2))))
    d = {}
    for v in values:
        d[v] = 1 if rng.random() < 0.8 else rng.randrange(2, 4)
        if symmetric:
            d[-v] = d[v]
    return ls.Spectrum.from_dict(d)


def _spectrum_material(sp, cls):
    return ([(v.torsion, v.free, m) for v, m in sp.entries],
            cls.kind.value, cls.max_multiplicity)


class Spectra(Workload):
    """Batteries of reads over multisets built once: sampled non-central
    elements over their group's module list, natural-module samples, and
    random tensor-product pairs.  One element, one natural-module sample or
    one tensor pair is one operation."""

    name = "spectra"

    def __init__(self, size="full"):
        super().__init__(size)
        self.groups = tuple(sorted({f"{f}{r}" for f, r, _ in _ELEMENT_GROUPS}
                                   | {f"{f}{r}" for f, r in _NATURAL_GROUPS}))
        self.pools = {}
        for f, r, _ in _ELEMENT_GROUPS:
            self.pools[f"element:{f}{r}"] = range(_POOL["element"])
        for f, r in _NATURAL_GROUPS:
            self.pools[f"natural:{f}{r}"] = range(_POOL["natural"])
        self.pools["tensor"] = range(_POOL["tensor"])

    def prepare(self):
        super().prepare()
        self.modules = {}
        self.strata = {}
        for f, r, bound in _ELEMENT_GROUPS:
            datum = ls.build_root_datum(f, r)
            mods = ls.verify.enumerate_modules(datum, bound)
            self.modules[datum.name] = [ls.freudenthal_multiplicities(lam) for lam in mods]
            self.strata[datum.name] = {d: ls.canonical_root_strata(datum, d) for d in (1, 2)}
        for f, r in _NATURAL_GROUPS:
            datum = ls.build_root_datum(f, r)
            nat = [ls.freudenthal_multiplicities(datum.fundamental_weight(1))]
            if f == "D":
                nat.append(ls.freudenthal_multiplicities(datum.fundamental_weight(2)))
            self.modules[f"natural:{datum.name}"] = nat

    def plan(self, seed):
        rng = random.Random(f"spectra:{seed}")
        ops = []
        for pool, entries in self.pools.items():
            k = 2 if self.size == "tiny" else _PICK[pool.split(":")[0]]
            ops.extend((pool, i) for i in _pick(rng, entries, k))
        rng.shuffle(ops)
        return ops

    def inputs(self, pool, index):
        rng = random.Random(f"{pool}:{index}")
        kind, _, group = pool.partition(":")
        if kind == "tensor":
            return _random_spectrum(rng, index % 2 == 1), _random_spectrum(rng, index % 2 == 1)
        datum = ls.parse_group(group)
        while True:
            s = self._element(datum, rng) if kind == "element" else ls.torus.torus_from_epsilon(
                datum, _epsilon_tokens(datum, rng), label="sample")
            if not ls.torus.is_central(s):
                return s

    def _element(self, datum, rng):
        """A mix of random assignments, epsilon tuples (classical families)
        and generic stratum elements, as in the verification batteries."""
        roll = rng.random()
        if roll < 0.4:
            assignments = tuple(
                ls.ValueGroupElement(Fraction(rng.choice((0, 0, 0, 1, 2, 3)), rng.choice((2, 3, 4))) % 1,
                                     tuple(rng.randrange(-3, 4) for _ in range(2)))
                for _ in range(datum.rank))
            return ls.TorusElement(datum, assignments, label="random-assignments")
        if roll < 0.7 and datum.family in "ABCD":
            return ls.torus.torus_from_epsilon(datum, _epsilon_tokens(datum, rng), label="random-epsilon")
        kernel = rng.choice(self.strata[datum.name][rng.choice((1, 2))])
        spec = ls.StratumSpec(datum, kernel)
        spec = ls.StratumSpec(datum, kernel, rng.choice(ls.torus.stratum_torsion_decorations(spec)))
        return ls.torus.generic_stratum_element(spec, seed=rng.randrange(1 << 30))

    def run(self, pool, op_input):
        kind, _, group = pool.partition(":")
        sp = ls.spectra
        if kind == "tensor":
            s1, s2 = op_input
            t = sp.tensor_spectrum(s1, s2)
            return [(t, sp.classify(t))]
        if kind == "element":
            return [(x, sp.classify(x)) for x in
                    (sp.spectrum_of_multiset(op_input, ms) for ms in self.modules[group])]
        nat = self.modules[pool]
        x = sp.spectrum_of_multiset(op_input, nat[0])
        cls = sp.classify(x)
        out = [ls.torus.is_regular(op_input), (x, cls)]
        if len(nat) > 1 and cls.kind is ls.SpectrumKind.NOT_ALMOST_SIMPLE:
            x2 = sp.spectrum_of_multiset(op_input, nat[1])
            out.append((x2, sp.classify(x2)))
        return out

    def check(self, pool, op_input, out):
        kind, _, group = pool.partition(":")
        if kind == "tensor":
            (t, cls), = out
            s1, s2 = op_input
            return t.total == s1.total * s2.total, _spectrum_material(t, cls)
        pairs = [o for o in out if isinstance(o, tuple)]
        mods = self.modules[group if kind == "element" else pool]
        ok = all(x.total == ms.total for (x, _), ms in zip(pairs, mods))
        return ok, [o if isinstance(o, bool) else _spectrum_material(*o) for o in out]


# -- cli ---------------------------------------------------------------------------------

_ELEMENT_JSON = ('{"omega_values": [{"torsion": "0", "free": [1]}, {"torsion": "0", "free": [2]}, '
                 '{"torsion": "1/2", "free": [1]}]}')

# (argv after "liespectra", expected exit code)
_COMMANDS = (
    (["info", "--group", "E8"], 0),
    (["info", "--group", "E8", "--json"], 0),
    (["weights", "--group", "A2", "--highest", "[1,1]"], 0),
    (["weights", "--group", "A2", "--highest", "[3,2]", "--json"], 0),
    (["weights", "--group", "E6", "--highest", "[1,0,0,0,0,0]", "--json"], 0),
    (["weights", "--group", "E7", "--highest", "[0,0,0,0,0,0,1]"], 0),
    (["weights", "--group", "E8", "--highest", "[0,0,0,0,0,0,0,1]", "--json"], 0),
    (["weights", "--group", "A1", "--highest", "[400]"], 0),
    (["spectrum", "--group", "A3", "--highest", "[0,1,0]", "--epsilon", "a,a,1/a,1/a"], 0),
    (["spectrum", "--group", "C3", "--highest", "[1,1,0]", "--epsilon", "a,-1,b", "--json"], 0),
    (["spectrum", "--group", "A3", "--highest", "[0,1,0]", "--element", _ELEMENT_JSON, "--json"], 0),
    (["levels", "--family", "C", "--rank", "4", "--json"], 0),
    (["levels", "--family", "A", "--rank", "3", "--max-level", "3"], 0),
    (["verify", "--check", "level-table", "--family", "C", "--rank", "4"], 0),
    (["verify", "--check", "witnesses", "--json"], 0),
    (["verify", "--check", "c99", "--family", "A", "--rank", "3", "--dim-bound", "40",
      "--depth", "2", "--seed", "7"], 0),
    (["verify", "--check", "natural", "--family", "C", "--rank", "3", "--samples", "50",
      "--seed", "1", "--json"], 0),
    (["weights", "--group", "A2", "--highest", "[1,-1]"], 2),
    (["info", "--group", "E9"], 2),
    (["weights", "--group", "E8", "--highest", "[1,1,1,1,1,1,1,1]"], 3),
)
_CYCLES = 5


def _cli_material(code, stdout):
    """Exit code and stdout, without the lines that report a timing or the
    kernel backend (which the result file records on its own)."""
    lines = [ln for ln in stdout.splitlines()
             if "elapsed" not in ln and "kernel backend" not in ln and "kernel_backend" not in ln]
    return code, lines


# A child's peak RSS as the kernel reports it includes the RSS of the process
# it was forked from, so the CLI processes are started by this small spawner
# rather than by the benchmark process.  It reads one argv per line and
# answers [exit code, stdout, CPU seconds, peak RSS in KiB].
_SPAWNER = """\
import json, os, subprocess, sys
for line in sys.stdin:
    proc = subprocess.Popen(json.loads(line), stdout=subprocess.PIPE, stderr=subprocess.DEVNULL)
    with proc.stdout:
        out = proc.stdout.read()
    _, status, usage = os.wait4(proc.pid, 0)
    proc.returncode = os.waitstatus_to_exitcode(status)
    print(json.dumps([proc.returncode, out.decode(), usage.ru_utime + usage.ru_stime,
                      usage.ru_maxrss]), flush=True)
"""


class Cli(Workload):
    """Whole-process invocations of the five subcommands, text and --json,
    including inputs that must be rejected; one process is one operation.
    The traced run calls liespectra.cli.run in process instead."""

    name = "cli"
    groups = ("A1", "A2", "A3", "C3", "C4", "E6", "E7", "E8")

    def __init__(self, size="full", src=None, in_process=False):
        super().__init__(size)
        self.pools = {"commands": list(_COMMANDS)}
        self.in_process = in_process
        self.env = dict(os.environ, PYTHONPATH=src or "")
        self.child_maxrss_kb = 0
        self._spawner = None

    def plan(self, seed):
        rng = random.Random(f"cli:{seed}")
        n = len(_COMMANDS)
        if self.size == "tiny":
            return [("commands", i) for i in (2, 17, 18)]
        ops = []
        for _ in range(_CYCLES):
            order = list(range(n))
            rng.shuffle(order)
            ops.extend(("commands", i) for i in order)
        return ops

    def run(self, pool, op_input):
        argv, _ = op_input
        if self.in_process:
            return self._run_in_process(argv)
        if self._spawner is None:
            self._spawner = subprocess.Popen([sys.executable, "-c", _SPAWNER], env=self.env, text=True,
                                             stdin=subprocess.PIPE, stdout=subprocess.PIPE)
        self._spawner.stdin.write(json.dumps([sys.executable, "-m", "liespectra.cli", *argv]) + "\n")
        self._spawner.stdin.flush()
        code, stdout, cpu, maxrss_kb = json.loads(self._spawner.stdout.readline())
        self.child_cpu += cpu
        self.child_maxrss_kb = max(self.child_maxrss_kb, maxrss_kb)
        return code, stdout

    def close(self):
        if self._spawner is not None:
            self._spawner.stdin.close()
            self._spawner.wait(timeout=60)
            self._spawner.stdout.close()
            self._spawner = None

    @staticmethod
    def _run_in_process(argv):
        # A fresh process starts with no root data built; clear the datum
        # cache, and the level cache keyed by datum identity with it.
        ls.rootdata.build_root_datum.cache_clear()
        getattr(ls.weights, "_LEVEL_CACHE", {}).clear()
        out = io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            code = ls.cli.run(list(argv))
        return code, out.getvalue()

    def check(self, pool, op_input, out):
        code, stdout = out
        _, expected = op_input
        return code == expected, _cli_material(code, stdout)


WORKLOADS = {w.name: w for w in (Multiplicities, Sweep, Spectra, Cli)}


def load_refs(path):
    try:
        with open(path, encoding="utf-8") as fh:
            return json.load(fh)
    except FileNotFoundError:
        return {}
