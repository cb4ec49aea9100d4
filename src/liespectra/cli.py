"""Command-line front end.

Exit codes: 0 success (and verification Pass), 1 verification Fail, 2 usage
or input error, 3 resource-limit rejection, 4 internal error (an unexpected
exception, reported in one line).  JSON output is the source of truth; the
text renderings contain the same data.
"""

from __future__ import annotations

import argparse
import json
import sys

from . import CHECK_IDS, mult, spectra, torus, verify, weights
from .exceptions import ResourceLimitError
from .kernels import DEFAULT_DIM_BOUND
from .rootdata import RootDatum, Weight, build_root_datum, e_constant, parse_group


def parse_weight_text(text: str, datum: RootDatum) -> Weight:
    """Parse '[c1,...,cn]' as a weight of datum, or 'FAMILYRANK:[c1,...,cn]'
    whose prefix names the datum's group."""
    body = text.strip()
    if ":" in body:
        gname, _, body = body.partition(":")
        named = parse_group(gname.strip())
        if named.name != datum.name:
            raise ValueError(f"weight {text!r} names {named.name}, but the group is {datum.name}")
    body = body.strip()
    if not (body.startswith("[") and body.endswith("]")):
        raise ValueError(f"weight {text!r}: expected coordinates like [1,0,2]")
    items = [p.strip() for p in body[1:-1].split(",")] if body != "[]" else []
    coords = []
    for p in items:
        if not (p[1:] if p[:1] in ("+", "-") else p).isdecimal():
            raise ValueError(f"weight {text!r}: bad coordinate token {p!r}")
        coords.append(int(p))
    if len(coords) != datum.rank:
        raise ValueError(
            f"weight {text!r} has {len(coords)} coordinates; {datum.name} needs {datum.rank}"
        )
    return datum.weight(coords)


def _build_parser():
    top = argparse.ArgumentParser(
        prog="liespectra",
        description="Exact weight combinatorics and torus-element spectra for simple root systems.",
    )
    sub = top.add_subparsers(dest="command", required=True)

    w = sub.add_parser("weights", help="weight multiplicities of an irreducible module")
    w.add_argument("--group", required=True, help="group name, e.g. A2")
    w.add_argument("--highest", required=True, help="highest weight, e.g. [1,1]")
    w.add_argument("--dim-bound", type=int, default=DEFAULT_DIM_BOUND)
    w.add_argument("--json", action="store_true")

    s = sub.add_parser("spectrum", help="spectrum of a torus element on a module")
    s.add_argument("--group", required=True)
    s.add_argument("--highest", required=True)
    s.add_argument("--element", help="torus element as inline JSON or a path to a JSON file")
    s.add_argument("--epsilon", help="epsilon shorthand for classical families, e.g. a,a,1/a,1/a")
    s.add_argument("--dim-bound", type=int, default=DEFAULT_DIM_BOUND)
    s.add_argument("--json", action="store_true")

    lv = sub.add_parser("levels", help="level stratification of dominant weights")
    lv.add_argument("--family", required=True)
    lv.add_argument("--rank", type=int, required=True)
    lv.add_argument("--max-level", type=int, default=2)
    lv.add_argument("--bound", type=int, default=6, help="coordinate-sum bound")
    lv.add_argument("--json", action="store_true")

    v = sub.add_parser("verify", help="run a verification check")
    v.add_argument("--check", required=True, choices=CHECK_IDS)
    v.add_argument("--family")
    v.add_argument("--rank", type=int)
    v.add_argument("--dim-bound", type=int, default=40)
    v.add_argument("--depth", type=int, default=2, choices=[1, 2])
    v.add_argument("--seed", type=int, default=0)
    v.add_argument("--samples", type=int, default=200)
    v.add_argument("--json", action="store_true")

    i = sub.add_parser("info", help="describe a root datum")
    i.add_argument("--group", required=True)
    i.add_argument("--json", action="store_true")
    return top


def _emit(payload, as_json, render):
    if as_json:
        print(json.dumps(payload, indent=2, sort_keys=True))
    else:
        for line in render(payload):
            print(line)


def _cmd_weights(args):
    datum = parse_group(args.group)
    lam = parse_weight_text(args.highest, datum)
    ms = mult.freudenthal_multiplicities(lam, args.dim_bound)
    payload = {
        "highest": str(lam),
        "dim": ms.total,
        "entries": [
            [f"[{','.join(map(str, coords))}]", m] for coords, m in ms.sorted_entries()
        ],
        "validity": ms.validity,
    }

    def render(p):
        width = max(len(e[0]) for e in p["entries"])
        yield f"{'weight'.ljust(width)}  multiplicity"
        for wtext, m in p["entries"]:
            yield f"{wtext.ljust(width)}  {m}"
        yield f"dim {p['dim']}"
        yield p["validity"]

    _emit(payload, args.json, render)
    return 0


def _element_from_args(datum, args):
    if bool(args.element) == bool(args.epsilon):
        raise ValueError("provide exactly one of --element and --epsilon")
    if args.epsilon:
        return torus.torus_from_epsilon_text(datum, args.epsilon)
    text = args.element.strip()
    if not text.startswith("{"):
        with open(text, "r", encoding="utf-8") as fh:
            text = fh.read()
    try:
        payload = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ValueError(f"bad torus element JSON: {exc}") from None
    return torus.torus_from_json(datum, payload, label=args.element[:40])


def _cmd_spectrum(args):
    datum = parse_group(args.group)
    lam = parse_weight_text(args.highest, datum)
    s = _element_from_args(datum, args)
    ms = mult.freudenthal_multiplicities(lam, args.dim_bound)
    sp = spectra.spectrum_of_multiset(s, ms)
    cls = spectra.classify(sp)
    payload = {
        "group": datum.name,
        "highest": str(lam),
        "element": s.to_json(),
        "total": sp.total,
        "entries": [
            {"value": v.to_json(), "display": s.render_value(v), "multiplicity": m}
            for v, m in sp.entries
        ],
        "classification": {
            "kind": cls.kind.value,
            "max_multiplicity": cls.max_multiplicity,
            "heavy_value": s.render_value(cls.heavy_value) if cls.heavy_value else None,
        },
        "validity": sp.validity,
    }

    def render(p):
        width = max(len(e["display"]) for e in p["entries"])
        yield f"{'value'.ljust(width)}  multiplicity"
        for e in p["entries"]:
            yield f"{e['display'].ljust(width)}  {e['multiplicity']}"
        c = p["classification"]
        line = f"classification: {c['kind']} (max multiplicity {c['max_multiplicity']}"
        if c["heavy_value"] is not None:
            line += f", heavy value {c['heavy_value']}"
        yield line + ")"
        yield p["validity"]

    _emit(payload, args.json, render)
    return 0


def _cmd_levels(args):
    datum = build_root_datum(args.family, args.rank)
    assignments = weights.level_sets(datum, args.max_level, args.bound)
    by_level = {}
    for a in assignments:
        key = str(a.level)
        by_level.setdefault(key, []).append(
            f"[{','.join(str(c) for c in a.weight.coords)}]"
        )
    payload = {"family": datum.family, "rank": datum.rank, "levels": by_level}

    def render(p):
        yield f"{p['family']}{p['rank']} dominant weights by level (coordinate sum <= {args.bound})"
        for lvl in sorted(p["levels"], key=int):
            yield f"level {lvl}: {' '.join(p['levels'][lvl])}"

    _emit(payload, args.json, render)
    return 0


def _cmd_verify(args):
    report = verify.run_check(
        args.check,
        family=args.family,
        rank=args.rank,
        dim_bound=args.dim_bound,
        depth=args.depth,
        seed=args.seed,
        samples=args.samples,
    )
    payload = report.to_json()

    def render(p):
        yield f"check {p['check_id']}: {p['status']}"
        for note in p["notes"]:
            yield f"  note: {note}"
        for c in p["cases"]:
            mark = "ok" if c["ok"] else "MISMATCH"
            yield f"  [{mark}] {c['label']}"
            if not c["ok"]:
                yield f"      expected: {c['expected']}"
                yield f"      actual:   {c['actual']}"
        yield f"  elapsed: {p['elapsed_seconds']}s"

    _emit(payload, args.json, render)
    return 0 if report.status == "Pass" else 1


def _cmd_info(args):
    datum = parse_group(args.group)
    fund = [
        {"index": i, "weight": str(datum.fundamental_weight(i)),
         "dim": mult.weyl_dimension(datum.fundamental_weight(i))}
        for i in range(1, datum.rank + 1)
    ]
    payload = {
        "name": datum.name,
        "family": datum.family,
        "rank": datum.rank,
        "cartan": [list(r) for r in datum.cartan],
        "positive_roots": len(datum.positive_roots),
        "weyl_order": datum.weyl_order(),
        "e_constant": e_constant(datum),
        "highest_root": str(datum.highest_root),
        "highest_short_root": str(datum.highest_short_root),
        "fundamental_modules": fund,
    }

    def render(p):
        yield f"{p['name']}: rank {p['rank']}, {p['positive_roots']} positive roots, |W| = {p['weyl_order']}"
        yield f"e(G) = {p['e_constant']}"
        yield f"highest root {p['highest_root']}, highest short root {p['highest_short_root']}"
        yield "cartan: " + "; ".join(" ".join(f"{x:2d}" for x in row) for row in p["cartan"])
        yield "fundamental module dimensions: " + ", ".join(
            f"w{f['index']}={f['dim']}" for f in p["fundamental_modules"]
        )

    _emit(payload, args.json, render)
    return 0


_DISPATCH = {
    "weights": _cmd_weights,
    "spectrum": _cmd_spectrum,
    "levels": _cmd_levels,
    "verify": _cmd_verify,
    "info": _cmd_info,
}


def run(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code == 0 else 2
    try:
        return _DISPATCH[args.command](args)
    except ResourceLimitError as exc:
        print(f"resource limit: {exc}", file=sys.stderr)
        return 3
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:
        # A bug, not a verdict: exit 1 would read as a verification Fail.
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 4


def main():
    raise SystemExit(run())


if __name__ == "__main__":
    main()
