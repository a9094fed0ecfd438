"""Marked suspension of marked simplicial sets and of their maps.

Sigma X has two vertices bot/top and one nondegenerate (n+1)-generator
per nondegenerate n-generator of X.  The embedded copy of an n-simplex x
sits with vertex 0 at bot and all later vertices at top, and its faces
run through x in reverse: d_i Sigma(x) = Sigma(d_{n+1-i} x) for i >= 1,
while d_0 collapses to a degenerate top simplex.  The comparison map into
the nerve of a suspension 2-category is `nerves.suspension_comparison`.
"""

from __future__ import annotations

from .msset import MarkedSSet, MSSetMap, degenerate


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
    # one layer per dimension X lists below its bound: a sparse X stays sparse
    gens = {0: ("bot", "top"), **{n + 1: tuple(sorted("^" + g for g in ids))
                                  for n, ids in X.gens.items() if n < X.bound}}
    faces = {}
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
    return MarkedSSet(X.bound, gens, faces, frozenset("^" + g for g in X.marked))


def suspend_map(f: MSSetMap) -> MSSetMap:
    SX = suspend_marked(f.source)
    SY = suspend_marked(f.target)
    assignment = {"bot": ("bot", ()), "top": ("top", ())}
    for g, ref in f.assignment.items():
        assignment["^" + g] = cone_ref(f.target.dim_of, ref)
    return MSSetMap(SX, SY, assignment)
