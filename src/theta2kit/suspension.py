"""Marked suspension and the nerve comparison map.

Sigma X has two vertices bot/top and one nondegenerate (n+1)-generator
per nondegenerate n-generator of X.  The embedded copy of an n-simplex x
sits with vertex 0 at bot and all later vertices at top, and its faces
run through x in reverse: d_i Sigma(x) = Sigma(d_{n+1-i} x) for i >= 1,
while d_0 collapses to a degenerate top simplex.
"""

from __future__ import annotations

from .msset import DEFAULT_BOUND, MarkedSSet, MSSetMap, degenerate, empty_msset, rebound
from .twocat import FinCategory, as_two_category, suspend_category
from .nerves import _cached_raws, _key_fn, _pairs, _pidx, _ref, _triples, rs_nerve


def cone_ref(dim_fn, ref):
    """Image of a reference under the suspension embedding.

    Pushes degeneracies through the reversal: the simplex s_j(y) maps to
    s_{dim(y)+1-j} applied to the image of y.
    """
    g, w = ref
    if not w:
        return ("^" + g, ())
    j, rest = w[0], w[1:]
    inner = (g, rest)
    d = dim_fn(inner)
    return degenerate(cone_ref(dim_fn, inner), d + 1 - j)


def suspend_marked(X: MarkedSSet) -> MarkedSSet:
    top_dim = max((n for n in X.gens if X.gens_at(n)), default=-1)
    if top_dim + 1 > X.bound:
        raise ValueError(
            f"suspension of a {top_dim}-dimensional set exceeds bound {X.bound}"
        )
    gens = {0: ("bot", "top")}
    faces = {}
    marked = set()
    for n in range(X.bound):
        layer = tuple(sorted("^" + g for g in X.gens_at(n)))
        if layer:
            gens[n + 1] = layer
    for n in range(1, X.bound + 1):
        gens.setdefault(n, ())
    for n in sorted(X.gens):
        for g in X.gens_at(n):
            m = n + 1
            if m == 1:
                faces["^" + g] = (("top", ()), ("bot", ()))
            else:
                fs = [("top", tuple(range(m - 2, -1, -1)))]
                for i in range(1, m + 1):
                    fs.append(cone_ref(X.dim_of, X.face((g, ()), m - i)))
                faces["^" + g] = tuple(fs)
            if g in X.marked:
                marked.add("^" + g)
    return MarkedSSet(X.bound, gens, faces, frozenset(marked))


def suspend_map(f: MSSetMap) -> MSSetMap:
    SX = suspend_marked(f.source)
    SY = suspend_marked(f.target)
    assignment = {"bot": ("bot", ()), "top": ("top", ())}
    for g, ref in f.assignment.items():
        assignment["^" + g] = cone_ref(f.target.dim_of, ref)
    return MSSetMap(SX, SY, assignment)


def suspension_comparison(C: FinCategory, bound=None):
    """The canonical map from the suspended nerve of C to the nerve of
    the suspension 2-category of C."""
    if not C.objects:
        raise ValueError("the comparison needs a nonempty category")
    target_bound = bound if bound is not None else DEFAULT_BOUND
    SC = suspend_category(C)
    N = rs_nerve(SC, target_bound)
    if target_bound == 0:
        # the nerve of C one dimension down has no simplices
        NC, raws = empty_msset(0), []
    else:
        C2 = as_two_category(C)
        NC = rebound(rs_nerve(C2, target_bound - 1), target_bound)
        raws = _cached_raws(C2, target_bound - 1)
    SNC = suspend_marked(NC)

    assignment = {v: _ref(SC, ((v,), (), ())) for v in ("bot", "top")}
    for raw in raws:
        verts, edges, tris = raw
        n = len(verts) - 1
        m, pidx = n + 1, _pidx(n)
        # the image's 2-cell f_{0k} => f_{0j} is raw's edge (m-k, m-j)
        image = (("bot",) + ("top",) * m,
                 tuple(verts[m - j] if i == 0 else "*" for i, j in _pairs(m)),
                 tuple(edges[pidx[(m - k, m - j)]] if i == 0 else "id"
                       for i, j, k in _triples(m)))
        assignment["^" + _key_fn(raw, n)] = _ref(SC, image)
    return MSSetMap(SNC, N, assignment)
