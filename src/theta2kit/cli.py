"""Command-line front end: nerves, suspensions, L-images, paper checks.

`--bound` defaults to `msset.DEFAULT_BOUND`; `lmap --kind K` takes the flags K's
builder names (`--ks k1,...,km` gives horizontal-segal its m).  An object spec
("[300]", "Sigma [3000]") whose tables, as twocat's size rules count them, pass
a nerve's default limit exits 3 unbuilt.

`verify NAME` runs one row of `CHECKS`, with --json and that row's flags only:
  eq3-pushout: Δ[3]eq is a pushout of marked edges on the nerve of [3]
  hom-bijection --max-m 3 --max-k 2 --max-j 3: maps [i|j,…,j] → θ number
    as the fiber-product formula says
  simplicial-identities --fuzz 200 --seed 0: fuzzed constructions validate
  l-representables: L of each representable is iso to its rs nerve
Exit codes, which `main` returns: 0 success, 1 a failed check, 2 argument or parse
errors (a flag the named check or lmap kind does not take among them), 3 guard errors.
"""

from __future__ import annotations

import argparse
import collections
import hashlib
import itertools
import json
import random
import sys
import time

from . import msset, nerves, suspension, theta, twocat
from .msset import ResourceLimitError

_NERVE_LIMIT = msset.DEFAULT_LIMIT


class SpecError(ValueError):
    pass


def _plain(text: str):
    """n for the spec "[n]", None for any other."""
    plain = text.startswith("[") and text.endswith("]") and "|" not in text
    return int(text[1:-1]) if plain else None


def parse_object(spec: str) -> twocat.Fin2Category:
    """Object mini-grammar: [m|k1,...,km], [m], C0|C1|C2, I, Sigma <spec>.

    A shape or ordinal whose tables, once a nerve has read them all
    (`twocat.theta2_object_size`, `twocat.ordinal_size`), would pass a
    nerve's default limit raises ResourceLimitError before any is built."""
    text = spec.strip()
    if text.startswith("Sigma"):
        return twocat.suspend_category(_parse_1cat(text[len("Sigma"):]))
    if text in ("C0", "C1", "C2"):
        return twocat.cell(int(text[1]))
    if text == "I":
        return twocat.as_two_category(twocat.free_iso())
    try:
        if (n := _plain(text)) is not None:  # [n]'s triples, before n zeros are made
            msset._Guard(_NERVE_LIMIT, "theta2_object").step(twocat.ordinal_size(n))
        shape = twocat.parse_shape(text)
    except ValueError as e:
        raise SpecError(str(e)) from e
    guard = msset._Guard(_NERVE_LIMIT, "theta2_object")
    for part in twocat.theta2_object_size(shape):  # a huge m stops at the first part
        guard.step(part)
    return twocat.theta2_object(shape)


def _parse_1cat(text: str) -> twocat.FinCategory:
    text = text.strip()
    if text == "I":
        return twocat.free_iso()
    if (n := _plain(text)) is not None:
        msset._Guard(_NERVE_LIMIT, "ordinal").step(twocat.ordinal_size(n))
        return twocat.ordinal(n)
    raise SpecError(f"cannot parse 1-category spec {text!r}")


def _content_hash(data: dict) -> str:
    blob = json.dumps(data, sort_keys=True).encode()
    return hashlib.sha256(blob).hexdigest()[:16]


def _emit(data: dict, path):
    text = json.dumps(data, indent=2, sort_keys=True)
    if path:
        with open(path, "w") as fh:
            fh.write(text + "\n")
    else:
        print(text)


def cmd_nerve(args) -> int:
    X = nerves.nerve(parse_object(args.object), args.marking, args.bound)
    _emit(msset.msset_to_json(X), args.out)
    return 0


def cmd_suspend(args) -> int:
    with open(args.input) as fh:
        X = msset.msset_from_json(json.load(fh))
    SX = suspension.suspend_marked(X)
    _emit(msset.msset_to_json(SX), args.out)
    return 0


def _map_to_json(f: msset.MSSetMap) -> dict:
    src = msset.msset_to_json(f.source)
    tgt = msset.msset_to_json(f.target)
    return {
        "schema": "msset-map/1",
        "source_hash": _content_hash(src),
        "target_hash": _content_hash(tgt),
        "assignment": {
            g: {"gen": h, "word": list(w)}
            for g, (h, w) in sorted(f.assignment.items())
        },
    }


class _Given(argparse.Action):
    """Store a flag's value and add its dest to the namespace's `given`."""

    def __call__(self, parser, namespace, values, option_string=None):
        setattr(namespace, self.dest, values)
        namespace.given = namespace.given | {self.dest}


def cmd_lmap(args) -> int:
    kind = args.kind and args.kind.replace("-", "_")
    # a kind takes the flags its builder's parameters name (m is the number
    # of ks), a presentation none; any other exits 2 with lmap's usage
    names = () if args.presentation or not kind else theta.cofibration_params(kind)
    if stray := args.given - (set() if args.presentation else {"kind", *names}):
        what = "--presentation" if args.presentation else f"--kind {args.kind}"
        args.parser.error(f"{what} takes no {' '.join('--' + d for d in sorted(stray))}")
    if args.presentation:
        with open(args.presentation) as fh:
            W = theta.presentation_from_json(json.load(fh))
        _emit(msset.msset_to_json(theta.apply_L(W, args.bound)), args.out)
        return 0
    if not kind:
        raise SpecError("lmap needs --kind or --presentation")
    ks = tuple(int(t) for t in args.ks.split(",")) if args.ks else ()
    values = {"k": args.k, "ks": ks, "m": len(ks)}
    P = theta.elementary_cofibration(kind, *(values[name] for name in names))
    f = theta.apply_L_map(P, args.bound)
    prefix = args.out or "lmap"
    _emit(msset.msset_to_json(f.source), f"{prefix}.source.json")
    _emit(msset.msset_to_json(f.target), f"{prefix}.target.json")
    _emit(_map_to_json(f), f"{prefix}.map.json")
    return 0


# ---------------------------------------------------------------------------
# paper checks: each returns a list of (name, ok, witness) entries


def _shapes(max_m, max_k):
    """Each [m|k_1,...,k_m] with m <= max_m and every k_i <= max_k, [0] first."""
    return [twocat.Theta2Shape(m, ks) for m in range(max_m + 1)
            for ks in itertools.product(range(max_k + 1), repeat=m)]


def check_eq3_pushout():
    N3 = nerves.rs_nerve(twocat.as_two_category(twocat.ordinal(3)), 4)
    D1 = msset.standard_simplex(1, bound=4)
    D1t = msset.standard_simplex(1, "edge_marked", bound=4)
    ends, objects = D1.vertices(), N3.vertices()  # N3's: the objects 0..3 in order

    def edge(a, b):
        return msset.map_by_vertices(D1, N3, dict(zip(ends, (objects[a], objects[b]))))

    incl = msset.MSSetMap(D1, D1t, msset.identity_map(D1).assignment)
    arrows = [(0, 2, edge(0, 2)), (0, 3, incl), (1, 2, edge(1, 3)), (1, 4, incl)]
    P, _ = msset.colimit([D1, D1, N3, D1t, D1t], arrows)
    iso = msset.find_iso(P, msset.standard_simplex(3, "eq3", bound=4))
    return [
        ("pushout is a valid marked simplicial set", msset.validate_msset(P).ok, ""),
        ("pushout isomorphic to the eq-marked 3-simplex", iso is not None,
         "" if iso is None else str(sorted(iso.assignment.items())[:4])),
    ]


def check_hom_bijection(max_m, max_k, max_j):
    for flag, value in (("--max-m", max_m), ("--max-k", max_k), ("--max-j", max_j)):
        if value < 0:
            raise ValueError(f"{flag} must be nonnegative, got {value}")
    shapes = _shapes(max_m, max_k)
    failed = []
    for shape in shapes:
        homs = twocat.theta2_object(shape).hom.values()
        for i in range(max_m + 1):
            for j in range(max_j + 1):
                fs, formula = theta.d_restriction(shape, i, j)
                ok = len(fs) == formula
                if i == 1:
                    ok = ok and len(fs) == sum(twocat.chain_count(H, j) for H in homs)
                if not ok:
                    failed.append((f"hom([{i}|{j},..], {shape})", False,
                                   f"enum={len(fs)} formula={formula}"))
    name = f"all grid cells agree (shapes={len(shapes)}, i<={max_m}, j<={max_j})"
    return failed + [(name, not failed, "")]


def check_simplicial_identities(fuzz, seed):
    if fuzz < 0:
        raise ValueError(f"--fuzz must be nonnegative, got {fuzz}")
    rng = random.Random(seed)
    failed = []
    for t in range(fuzz):
        ell = rng.randint(0, 3)
        variant = rng.choice(["flat", "sharp", "boundary", "horn"])
        horn = rng.randint(0, ell) if variant == "horn" else None
        X = msset.standard_simplex(ell, variant, horn=horn, bound=4)
        mode = rng.choice(["plain", "product", "glue"])
        if mode == "product":
            Y = msset.standard_simplex(rng.randint(0, 2), rng.choice(["flat", "sharp"]),
                                       bound=4)
            X = msset.product(X, Y)
        elif mode == "glue" and X.gens_at(0):
            v, w = rng.choice(X.gens_at(0)), rng.choice(X.gens_at(0))
            pt = msset.standard_simplex(0, bound=4)
            X, _, _ = msset.pushout(msset.MSSetMap(pt, X, {"0": (v, ())}),
                                    msset.MSSetMap(pt, X, {"0": (w, ())}))
        if not msset.validate_msset(X).ok:
            failed.append((f"case {t}", False, f"{variant} {mode}"))
    out = failed + [(f"{fuzz} fuzz cases validate (seed={seed})", not failed, "")]
    # EZ word arithmetic: d_{i} s_i = id and the normal-form round trip
    failed = []
    for t in range(fuzz):
        ref, dims = ("g", ()), rng.randint(0, 3)
        for _ in range(rng.randint(0, 3)):
            ref = msset.degenerate(ref, rng.randint(0, dims))
            dims += 1
        if not msset.normal_word(ref[1]):
            failed.append((f"EZ case {t}", False, str(ref)))
    return out + failed + [(f"{fuzz} degeneracy words stay in normal form", not failed, "")]


def check_l_representables():
    out = []
    for shape in _shapes(2, 2):
        L = theta.apply_L(theta.representable(shape), bound=4)
        R = nerves.rs_nerve(twocat.theta2_object(shape), 4)
        ok = msset.find_iso(L, R) is not None
        out.append((f"L(representable {shape}) ~ nerve", ok, ""))
    return out


# a row: the check's name, the paper fact it tests, its (keyword, CLI default)
# pairs, keyword k being the flag --k, and run(**params) -> the entries
Check = collections.namedtuple("Check", "name statement params run")


CHECKS = (
    Check("eq3-pushout", "Verity's Δ[3]eq is the pushout of two marked edges "
          "Δ[1]t on the nerve of [3] along 0→2 and 1→3", (), check_eq3_pushout),
    Check("hom-bijection", "maps [i|j,…,j] → θ number as the fiber-product formula "
          "says, and for i = 1 as the j-chains of θ's homs",
          (("max_m", 3), ("max_k", 2), ("max_j", 3)), check_hom_bijection),
    Check("simplicial-identities", "random simplices, horns, products and gluings "
          "are marked simplicial sets, and degeneracy words stay in normal form",
          (("fuzz", 200), ("seed", 0)), check_simplicial_identities),
    Check("l-representables", "L of the representable Θ₂-set of each [m|k,…] with "
          "m, k ≤ 2 is isomorphic to its rs nerve", (), check_l_representables),
)


def cmd_verify(args) -> int:
    check = args.check
    t0 = time.perf_counter()
    entries = check.run(**{k: getattr(args, k) for k, _ in check.params})
    seconds = time.perf_counter() - t0
    checks = [{"name": n, "ok": bool(ok), "witness": w} for n, ok, w in entries]
    ok = all(c["ok"] for c in checks)
    if args.json:
        print(json.dumps({"suite": check.name, "ok": ok, "seconds": round(seconds, 3),
                          "checks": checks}, indent=2))
    else:
        print(f"suite {check.name}: {'PASS' if ok else 'FAIL'} ({seconds:.2f}s)")
        for c in checks:
            extra = f"  [{c['witness']}]" if c["witness"] else ""
            print(f"  {'ok ' if c['ok'] else 'FAIL'} {c['name']}{extra}")
    return 0 if ok else 1


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="theta2kit")
    sub = p.add_subparsers(dest="command", required=True)

    pn = sub.add_parser("nerve", help="nerve of a 2-category")
    pn.add_argument("--object", required=True)
    pn.add_argument("--marking", choices=["rs", "duskin", "scaled"],
                    default="rs")
    pn.add_argument("--bound", type=int, default=msset.DEFAULT_BOUND)
    pn.add_argument("--out", default=None)
    pn.set_defaults(run=cmd_nerve, parser=pn)

    ps = sub.add_parser("suspend", help="marked suspension of an msset file")
    ps.add_argument("--input", required=True)
    ps.add_argument("--out", default=None)
    ps.set_defaults(run=cmd_suspend, parser=ps)

    pl = sub.add_parser("lmap", help="L of a cofibration or presentation")
    pl.add_argument("--kind", action=_Given, default=None)
    pl.add_argument("--k", action=_Given, type=int, default=1, help="k of vertical-segal")
    pl.add_argument("--ks", action=_Given, default=None, help="k_1,...,k_m of "
                    "horizontal-segal: m is their number, and none gives the m = 0 map")
    pl.add_argument("--presentation", default=None)
    pl.add_argument("--bound", type=int, default=msset.DEFAULT_BOUND)
    pl.add_argument("--out", default=None)
    pl.set_defaults(run=cmd_lmap, parser=pl, given=frozenset())

    pv = sub.add_parser("verify", help="run one check of the paper")
    names = pv.add_subparsers(dest="name", metavar="CHECK", required=True)
    for check in CHECKS:
        pc = names.add_parser(check.name, help=check.statement, description=check.statement)
        for k, default in check.params:
            pc.add_argument("--" + k.replace("_", "-"), dest=k, type=int, default=default)
        pc.add_argument("--json", action="store_true")
        pc.set_defaults(run=cmd_verify, check=check, parser=pc)
    return p


def main(argv=None) -> int:
    try:
        args, extra = build_parser().parse_known_args(argv)
        if extra:  # argparse would report them against the top-level usage
            args.parser.error(f"unrecognized arguments: {' '.join(extra)}")
        return args.run(args)
    except SystemExit as e:  # argparse has printed its usage or help
        return e.code
    except (OSError, ValueError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except ResourceLimitError as e:
        print(f"resource limit: {e}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
