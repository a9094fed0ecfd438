"""Command-line front end: nerves, suspensions, L-images, verify suites.

Exit codes: 0 success, 2 argument/parse errors, 3 resource-guard errors.
A failed verify suite exits 1.
"""

from __future__ import annotations

import argparse
import hashlib
import itertools
import json
import os
import random
import sys
import time
from dataclasses import dataclass, field

from . import msset, nerves, suspension, theta, twocat
from .msset import ResourceLimitError

DEFAULT_BOUND = msset.DEFAULT_BOUND


def _bound(args) -> int:
    if args.bound is not None:
        return args.bound
    env = os.environ.get("THETA2KIT_BOUND")
    return int(env) if env else DEFAULT_BOUND


class SpecError(ValueError):
    pass


def parse_object(spec: str) -> twocat.Fin2Category:
    """Object mini-grammar: [m|k1,...,km], [m], C0|C1|C2, I, Sigma <spec>."""
    text = spec.strip()
    if text.startswith("Sigma"):
        return twocat.suspend_category(_parse_1cat(text[len("Sigma"):]))
    if text in ("C0", "C1", "C2"):
        return twocat.cell(int(text[1]))
    if text == "I":
        return twocat.as_two_category(twocat.free_iso())
    try:
        return twocat.theta2_object(theta.parse_shape(text))
    except ValueError as e:
        raise SpecError(str(e)) from e


def _parse_1cat(text: str) -> twocat.FinCategory:
    text = text.strip()
    if text == "I":
        return twocat.free_iso()
    if text.startswith("[") and text.endswith("]") and "|" not in text:
        return twocat.ordinal(int(text[1:-1]))
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
    D = parse_object(args.object)
    bound = _bound(args)
    X = nerves.nerve(D, args.marking, bound)
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


def cmd_lmap(args) -> int:
    bound = _bound(args)
    if args.presentation:
        with open(args.presentation) as fh:
            W = theta.presentation_from_json(json.load(fh))
        _emit(msset.msset_to_json(theta.apply_L(W, bound)), args.out)
        return 0
    if not args.kind:
        raise SpecError("lmap needs --kind or --presentation")
    kind = args.kind.replace("-", "_")
    ks = tuple(int(t) for t in args.ks.split(",")) if args.ks else ()
    # the parameters of the kinds that take any; theta dispatches on kind
    params = {"vertical_segal": (args.k,), "horizontal_segal": (args.m, ks)}
    P = theta.elementary_cofibration(kind, *params.get(kind, ()))
    f = theta.apply_L_map(P, bound)
    prefix = args.out or "lmap"
    _emit(msset.msset_to_json(f.source), f"{prefix}.source.json")
    _emit(msset.msset_to_json(f.target), f"{prefix}.target.json")
    _emit(_map_to_json(f), f"{prefix}.map.json")
    return 0


# ---------------------------------------------------------------------------
# verify suites


@dataclass
class VerifySuiteReport:
    suite: str
    checks: list = field(default_factory=list)
    seconds: float = 0.0

    def add(self, name, ok, witness=""):
        self.checks.append({"name": name, "ok": bool(ok), "witness": witness})

    @property
    def ok(self):
        return all(c["ok"] for c in self.checks)

    def to_json(self):
        return {
            "suite": self.suite,
            "ok": self.ok,
            "seconds": round(self.seconds, 3),
            "checks": self.checks,
        }

    def __str__(self):
        lines = [f"suite {self.suite}: {'PASS' if self.ok else 'FAIL'}"
                 f" ({self.seconds:.2f}s)"]
        for c in self.checks:
            mark = "ok " if c["ok"] else "FAIL"
            extra = f"  [{c['witness']}]" if c["witness"] else ""
            lines.append(f"  {mark} {c['name']}{extra}")
        return "\n".join(lines)


def suite_eq3_pushout(args) -> VerifySuiteReport:
    rep = VerifySuiteReport("eq3-pushout")
    N3 = nerves.rs_nerve(twocat.as_two_category(twocat.ordinal(3)), 4)
    D1 = msset.standard_simplex(1, bound=4)
    D1t = msset.standard_simplex(1, "edge_marked", bound=4)

    def edge(a, b):
        return msset.map_by_vertices(D1, N3, {"0": f"{a};;", "1": f"{b};;"})

    incl = msset.MSSetMap(
        D1, D1t, {"0": ("0", ()), "1": ("1", ()), "01": ("01", ())}
    )
    nodes = [D1, D1, N3, D1t, D1t]
    arrows = [(0, 2, edge(0, 2)), (0, 3, incl), (1, 2, edge(1, 3)), (1, 4, incl)]
    P, _ = msset.colimit(nodes, arrows)
    eq3 = msset.standard_simplex(3, "eq3", bound=4)
    iso = msset.find_iso(P, eq3)
    rep.add("pushout is a valid marked simplicial set", msset.validate_msset(P).ok)
    rep.add(
        "pushout isomorphic to the eq-marked 3-simplex",
        iso is not None,
        witness="" if iso is None else str(sorted(iso.assignment.items())[:4]),
    )
    return rep


def suite_hom_bijection(args) -> VerifySuiteReport:
    rep = VerifySuiteReport("hom-bijection")
    max_m, max_k, max_j = args.max_m, args.max_k, args.max_j
    for flag, value in (("--max-m", max_m), ("--max-k", max_k), ("--max-j", max_j)):
        if value < 0:
            raise ValueError(f"{flag} must be nonnegative, got {value}")
    shapes = [twocat.Theta2Shape(0, ())]
    for m in range(1, max_m + 1):
        for ks in itertools.product(range(max_k + 1), repeat=m):
            shapes.append(twocat.Theta2Shape(m, ks))
    for shape in shapes:
        for i in range(max_m + 1):
            for j in range(max_j + 1):
                fs, formula = theta.d_restriction(shape, i, j)
                ok = len(fs) == formula
                if i == 1:
                    th = twocat.theta2_object(shape)
                    ok = ok and len(fs) == sum(
                        twocat.chain_count(H, j) for H in th.hom.values())
                if not ok:
                    rep.add(
                        f"hom([{i}|{j},..], {shape})", False,
                        witness=f"enum={len(fs)} formula={formula}",
                    )
    rep.add(f"all grid cells agree (shapes={len(shapes)}, i<={max_m}, j<={max_j})", rep.ok)
    return rep


def suite_simplicial_identities(args) -> VerifySuiteReport:
    rep = VerifySuiteReport("simplicial-identities")
    rng, cases = random.Random(args.seed), args.fuzz
    if cases < 0:
        raise ValueError(f"--fuzz must be nonnegative, got {cases}")
    variants = ["flat", "sharp", "boundary", "horn"]
    bad = 0
    for t in range(cases):
        ell = rng.randint(0, 3)
        variant = rng.choice(variants)
        horn = rng.randint(0, ell) if variant == "horn" else None
        X = msset.standard_simplex(ell, variant, horn=horn, bound=4)
        mode = rng.choice(["plain", "product", "glue"])
        if mode == "product":
            ell2 = rng.randint(0, 2)
            Y = msset.standard_simplex(ell2, rng.choice(["flat", "sharp"]),
                                       bound=4)
            X = msset.product(X, Y)
        elif mode == "glue" and X.gens_at(0):
            v = rng.choice(X.gens_at(0))
            w = rng.choice(X.gens_at(0))
            pt = msset.standard_simplex(0, bound=4)
            a = msset.MSSetMap(pt, X, {"0": (v, ())})
            b = msset.MSSetMap(pt, X, {"0": (w, ())})
            X, _, _ = msset.pushout(a, b)
        if not msset.validate_msset(X).ok:
            bad += 1
            rep.add(f"case {t}", False, witness=f"{variant} {mode}")
    rep.add(f"{cases} fuzz cases validate (seed={args.seed})", bad == 0)
    # EZ word arithmetic: d_{i} s_i = id and the normal-form round trip
    bad = 0
    for t in range(cases):
        gdim = rng.randint(0, 3)
        ref = ("g", ())
        dims = gdim
        for _ in range(rng.randint(0, 3)):
            ref = msset.degenerate(ref, rng.randint(0, dims))
            dims += 1
        if not msset.normal_word(ref[1]):
            bad += 1
            rep.add(f"EZ case {t}", False, witness=str(ref))
    rep.add(f"{cases} degeneracy words stay in normal form", bad == 0)
    return rep


def suite_l_representables(args) -> VerifySuiteReport:
    rep = VerifySuiteReport("l-representables")
    shapes = [twocat.Theta2Shape(0, ())]
    for m in (1, 2):
        for ks in itertools.product(range(3), repeat=m):
            shapes.append(twocat.Theta2Shape(m, ks))
    for shape in shapes:
        L = theta.apply_L(theta.representable(shape), bound=4)
        R = nerves.rs_nerve(twocat.theta2_object(shape), 4)
        ok = msset.find_iso(L, R) is not None
        rep.add(f"L(representable {shape}) ~ nerve", ok)
    return rep


SUITES = {
    "eq3-pushout": suite_eq3_pushout,
    "hom-bijection": suite_hom_bijection,
    "simplicial-identities": suite_simplicial_identities,
    "l-representables": suite_l_representables,
}


def cmd_verify(args) -> int:
    if args.suite not in SUITES:
        print(f"unknown suite {args.suite!r}; known: {sorted(SUITES)}",
              file=sys.stderr)
        return 2
    t0 = time.perf_counter()
    rep = SUITES[args.suite](args)
    rep.seconds = time.perf_counter() - t0
    if args.json:
        print(json.dumps(rep.to_json(), indent=2))
    else:
        print(rep)
    return 0 if rep.ok else 1


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="theta2kit")
    sub = p.add_subparsers(dest="command", required=True)

    pn = sub.add_parser("nerve", help="nerve of a 2-category")
    pn.add_argument("--object", required=True)
    pn.add_argument("--marking", choices=["rs", "duskin", "scaled"],
                    default="rs")
    pn.add_argument("--bound", type=int, default=None)
    pn.add_argument("--out", default=None)
    pn.set_defaults(run=cmd_nerve)

    ps = sub.add_parser("suspend", help="marked suspension of an msset file")
    ps.add_argument("--input", required=True)
    ps.add_argument("--out", default=None)
    ps.set_defaults(run=cmd_suspend)

    pl = sub.add_parser("lmap", help="L of a cofibration or presentation")
    pl.add_argument("--kind", default=None)
    pl.add_argument("--k", type=int, default=1)
    pl.add_argument("--m", type=int, default=1)
    pl.add_argument("--ks", default=None)
    pl.add_argument("--presentation", default=None)
    pl.add_argument("--bound", type=int, default=None)
    pl.add_argument("--out", default=None)
    pl.set_defaults(run=cmd_lmap)

    pv = sub.add_parser("verify", help="run a verification suite")
    pv.add_argument("suite")
    pv.add_argument("--max-m", dest="max_m", type=int, default=3)
    pv.add_argument("--max-k", dest="max_k", type=int, default=2)
    pv.add_argument("--max-j", dest="max_j", type=int, default=3)
    pv.add_argument("--fuzz", type=int, default=200)
    pv.add_argument("--seed", type=int, default=0)
    pv.add_argument("--json", action="store_true")
    pv.set_defaults(run=cmd_verify)
    return p


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.run(args)
    except (OSError, ValueError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except ResourceLimitError as e:
        print(f"resource limit: {e}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
