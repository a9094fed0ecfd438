"""Nerves of finite 2-categories as marked simplicial sets.

An n-simplex consists of objects x_0..x_n, 1-cells f_ij: x_i -> x_j for
i < j, and 2-cells phi_ijk: f_ik => f_jk . f_ij subject to the cocycle
relation on every quadruple of indices.  The three marking conventions
(none / identity 2-simplices / invertible 2-simplices) share the same
underlying simplicial set.
"""

from __future__ import annotations

import collections
import functools
import itertools
import operator

from .msset import DEFAULT_BOUND, MarkedSSet, MSSetMap, _face_layer, _Guard, degenerate
from .twocat import Fin2Category, TwoFunctor

# raw simplex: (verts, edges, tris) with edges indexed by pairs i<j and
# tris by triples i<j<k, both in lexicographic order


@functools.lru_cache(maxsize=None)
def _pairs(n):
    return [(i, j) for i in range(n + 1) for j in range(i + 1, n + 1)]


@functools.lru_cache(maxsize=None)
def _triples(n):
    return [
        (i, j, k)
        for i in range(n + 1)
        for j in range(i + 1, n + 1)
        for k in range(j + 1, n + 1)
    ]


@functools.lru_cache(maxsize=None)
def _pidx(n):
    return {p: t for t, p in enumerate(_pairs(n))}


@functools.lru_cache(maxsize=None)
def _tidx(n):
    return {p: t for t, p in enumerate(_triples(n))}


def _getter(positions):
    """A function picking the given positions of a sequence, as a tuple."""
    if not positions:
        return lambda seq: ()
    if len(positions) == 1:
        (p,) = positions
        return lambda seq: (seq[p],)
    return operator.itemgetter(*positions)


@functools.lru_cache(maxsize=None)
def _face_getters(n, i):
    """Getters taking the vertices, edges and triangles of a raw
    n-simplex to those of its face d_i."""
    keep = [a for a in range(n + 1) if a != i]
    pidx, tidx = _pidx(n), _tidx(n)
    return (
        _getter(keep),
        _getter([pidx[(keep[a], keep[b])] for a, b in _pairs(n - 1)]),
        _getter([tidx[(keep[a], keep[b], keep[c])] for a, b, c in _triples(n - 1)]),
    )


@functools.lru_cache(maxsize=None)
def _degeneracy_test(n, i):
    """How x == s_i d_{i+1} x reads on the positions of a raw n-simplex x.

    s_i d_{i+1} renames vertex i+1 to i.  Given x_i == x_{i+1} and the
    unit as edge (i, i+1), which the caller checks first, x is s_i d_{i+1} x
    iff
    - each collapsed triangle (i, i+1, c) or (a, i, i+1) is the identity
      2-cell on its long edge (i, c) or (a, i); by the unit laws its
      ends then force edge (i+1, c) == (i, c) and (a, i+1) == (a, i), so
      edges need no check;
    - every other triangle equals the one it is renamed to.
    Returns a getter sending x's triangles to those of s_i d_{i+1} x, with
    collapsed positions sent to themselves, and the collapsed triangles
    as (position, a, c, long edge position).
    """
    r = [i if a == i + 1 else a for a in range(n + 1)]
    pidx, tidx = _pidx(n), _tidx(n)
    tris, collapsed = [], []
    for t, (a, b, c) in enumerate(_triples(n)):
        if len({r[a], r[b], r[c]}) == 3:
            tris.append(tidx[(r[a], r[b], r[c])])
        else:
            tris.append(t)
            collapsed.append((t, a, c, pidx[(r[a], r[c])]))
    return _getter(tris), tuple(collapsed)


@functools.lru_cache(maxsize=None)
def _merge_getters(n):
    """Getters assembling the edges and triangles of a raw n-simplex from
    those of its base d_n followed by the new edges (i, n), ordered by i,
    and the new triangles (i, j, n), ordered as the pairs (i, j)."""
    pidx, tidx = _pidx(n - 1), _tidx(n - 1)
    ne, nt = len(pidx), len(tidx)
    return (
        _getter([pidx[(a, b)] if b < n else ne + a for a, b in _pairs(n)]),
        _getter([
            tidx[(a, b, c)] if c < n else nt + pidx[(a, b)]
            for a, b, c in _triples(n)
        ]),
    )


class _Tables:
    """The composition data nerve extension reads, as plain dicts.

    For each thin hom (x, y) it also holds `down[(x, y)]`: per 1-cell c,
    an int bitmask of the positions in `ones[(x, y)]` of the 1-cells f
    with a 2-cell f => c.
    """

    def __init__(self, D: Fin2Category):
        self.objects = sorted(D.objects)
        self.ones = {k: H.objects for k, H in D.hom.items()}
        self.then = {k: H.compose for k, H in D.hom.items()}
        self.ident = {k: H.identity for k, H in D.hom.items()}
        self.hc1 = D.hcompose1
        self.hc2 = D.hcompose2
        # (x, y) -> {(source 1-cell, target 1-cell): [2-cells]}
        self.two_cells = {}
        # (x, y) -> whether hom(x, y) is thin: at most one 2-cell between
        # two 1-cells, as in every product of ordinals
        self.thin = {}
        self.down = {}
        for k, H in D.hom.items():
            idx = {}
            for m, ends in H.morphisms.items():
                idx.setdefault(ends, []).append(m)
            self.two_cells[k] = idx
            self.thin[k] = all(len(ms) == 1 for ms in idx.values())
            if self.thin[k]:
                pos = {f: p for p, f in enumerate(H.objects)}
                down = dict.fromkeys(H.objects, 0)
                for f, c in idx:
                    down[c] |= 1 << pos[f]
                self.down[k] = down


def _extend(tabs: _Tables, base, n, step):
    """All n-simplices extending the (n-1)-simplex base by a last vertex.

    Edges f_i: x_i -> x_n are chosen for i descending from n-1, and the
    triangles phi_{ijn} over an edge are chosen as soon as the edge is
    fixed, so dead branches die early.  Choosing phi_{ijn} closes the
    cocycle relation on (i, m, j, n) for every i < m < j, and on no
    other quadruple; those relations are checked at once.

    Both sides of such a relation are parallel 2-cells of hom(x_i, x_n).
    So when that hom is thin, the relations hold whatever is chosen:
    there each phi_{ijn} is the one 2-cell f_in => c_j, c_j = f_jn . f_ij,
    if any.  The edges f_in that have all of them are the AND of the
    down-set masks of the c_j (`_Tables.down`); only those are walked,
    in `ones` order, and their triangles read off unchecked.  The guard
    is charged, in one step per edge position, what trying each f on the
    triangles in turn would cost: the sum over k of the number of f
    surviving the first k triangles.  The simplices and their order are
    those of the checked search.
    """
    verts, edges, tris = base
    out = []
    pidx, tidx = _pidx(n - 1), _tidx(n - 1)
    merge_e, merge_t = _merge_getters(n)
    ones, then, ident = tabs.ones, tabs.then, tabs.ident
    hc1, hc2, two_cells, thin = tabs.hc1, tabs.hc2, tabs.two_cells, tabs.thin

    for xn in tabs.objects:
        if any((v, xn) not in ones for v in verts):
            continue
        new_e = [None] * n
        new_t = [None] * len(pidx)
        # per edge position i into a thin hom, per triangle (i, j, n): its
        # slot, f_ij, hc1 into x_n and j; None where hom(x_i, x_n) is not thin
        thin_slots = [
            [
                (pidx[(i, j)], edges[pidx[(i, j)]], hc1[(verts[i], verts[j], xn)], j)
                for j in range(i + 1, n)
            ] if thin[(verts[i], xn)] else None
            for i in range(n)
        ]

        def pick_tris(i, j):
            # the triangle phi_{ijn} over vertex i, then the next one
            xi, xj = verts[i], verts[j]
            tgt = hc1[(xi, xj, xn)][(edges[pidx[(i, j)]], new_e[j])]
            cands = two_cells[(xi, xn)].get((new_e[i], tgt))
            if not cands:
                return
            then_in = then[(xi, xn)]
            id_fjn = ident[(xj, xn)][new_e[j]]
            # (lhs, beta) per m: phi_{ijn} passes iff phi ; beta == lhs
            checks = []
            for m in range(i + 1, j):
                xm = verts[m]
                lhs = then_in[(
                    new_t[pidx[(i, m)]],
                    hc2[(xi, xm, xn)][(ident[(xi, xm)][edges[pidx[(i, m)]]],
                                       new_t[pidx[(m, j)]])],
                )]
                beta = hc2[(xi, xj, xn)][(tris[tidx[(i, m, j)]], id_fjn)]
                checks.append((lhs, beta))
            slot = pidx[(i, j)]
            step(len(cands))
            for phi in cands:
                for lhs, beta in checks:
                    if then_in[(phi, beta)] != lhs:
                        break
                else:
                    new_t[slot] = phi
                    if j + 1 < n:
                        pick_tris(i, j + 1)
                    elif i:
                        pick_edge(i - 1)
                    else:
                        emit()

        def pick_edge(i):
            xi = verts[i]
            fs = ones[(xi, xn)]
            step(len(fs))
            slots = thin_slots[i]
            if slots is not None:
                down = tabs.down[(xi, xn)]
                mask, tried, targets = (1 << len(fs)) - 1, 0, []
                for slot, fij, comp, j in slots:
                    c = comp[(fij, new_e[j])]
                    mask &= down[c]
                    if not mask:
                        break
                    tried += mask.bit_count()
                    targets.append((slot, c))
                step(tried)
                cells = two_cells[(xi, xn)]
                while mask:
                    low = mask & -mask
                    mask ^= low
                    f = new_e[i] = fs[low.bit_length() - 1]
                    for slot, c in targets:
                        new_t[slot] = cells[(f, c)][0]
                    if i:
                        pick_edge(i - 1)
                    else:
                        emit()
                return
            for f in fs:
                new_e[i] = f
                if i + 1 < n:
                    pick_tris(i, i + 1)
                elif i:
                    pick_edge(i - 1)
                else:
                    emit()

        def emit():
            out.append((
                verts + (xn,),
                merge_e(edges + tuple(new_e)),
                merge_t(tris + tuple(new_t)),
            ))

        pick_edge(n - 1)
    return out


_nerve_cache = {}


def _raw_nerve(D: Fin2Category, bound: int, limit=5_000_000):
    """Every raw simplex (degenerate ones included) per dimension."""
    key = (D.signature(), bound)
    if key in _nerve_cache:
        return _nerve_cache[key]
    guard = _Guard(limit, "nerve")
    tabs = _Tables(D)
    by_dim = {0: [((x,), (), ()) for x in tabs.objects]}
    for n in range(1, bound + 1):
        guard.dimension = n
        layer = []
        for base in by_dim[n - 1]:
            layer.extend(_extend(tabs, base, n, guard.step))
        by_dim[n] = layer
    _nerve_cache[key] = by_dim
    return by_dim


def _key_fn(raw, n):
    verts, edges, tris = raw
    return ";".join([",".join(verts), ",".join(edges), ",".join(tris)])


def _build(D: Fin2Category, by_dim, bound, marked_fn):
    """The marked nerve of a raw nerve, and its raw -> reference index.

    Gives what the tests' oracle from_raw gives with the generic raw face
    and degeneracy operators.  Faces are read through position maps
    cached per (n, i), never rebuilt.  x = s_i y needs x_i == x_{i+1}
    joined by the unit 1-cell, so only such i are tried, and each is then
    confirmed exactly on all positions.
    """
    unit1 = D.unit1
    ident = {k: H.identity for k, H in D.hom.items()}
    normal = {}
    gens, faces, marked, seen = {}, {}, set(), set()
    for n in range(bound + 1):
        face_at = [_face_getters(n, i) for i in range(n + 1)]
        tests = [
            (i, _pidx(n)[(i, i + 1)], *_degeneracy_test(n, i), face_at[i + 1])
            for i in range(n)
        ]
        ids = []
        for x in by_dim.get(n, ()):
            verts, edges, tris = x
            for i, unit_pos, same_t, collapsed, (fv, fe, ft) in tests:
                v = verts[i]
                if (
                    v == verts[i + 1]
                    and edges[unit_pos] == unit1[v]
                    and same_t(tris) == tris
                    and all(
                        tris[t] == ident[(verts[a], verts[c])][edges[p]]
                        for t, a, c, p in collapsed
                    )
                ):
                    y = (fv(verts), fe(edges), ft(tris))
                    normal[x] = degenerate(normal[y], i)
                    break
            else:
                gid = _key_fn(x, n)
                if gid in seen:
                    raise ValueError(f"duplicate generator id {gid}")
                seen.add(gid)
                ids.append(gid)
                if n >= 1:
                    faces[gid] = tuple(
                        normal[(fv(verts), fe(edges), ft(tris))]
                        for fv, fe, ft in face_at
                    )
                    if marked_fn(x, n):
                        marked.add(gid)
                normal[x] = (gid, ())
        gens[n] = tuple(sorted(ids))
    return MarkedSSet(bound, gens, faces, frozenset(marked)), normal


def _nerve(D: Fin2Category, marked_fn, bound, limit):
    return _build(D, _raw_nerve(D, bound, limit), bound, marked_fn)


def _phi_of_2simplex(raw):
    return raw[2][0]


def duskin_nerve(D: Fin2Category, bound=DEFAULT_BOUND, limit=5_000_000):
    """The nerve with no marking beyond degenerate simplices."""
    return _nerve(D, lambda raw, n: False, bound, limit)[0]


def _rs_marked(D):
    def marked_fn(raw, n):
        if n >= 3:
            return True
        if n == 2:
            verts = raw[0]
            H = D.hom_at(verts[0], verts[2])
            return H.is_identity(_phi_of_2simplex(raw))
        return False

    return marked_fn


def _scaled_marked(D):
    def marked_fn(raw, n):
        if n >= 3:
            return True
        if n == 2:
            verts = raw[0]
            H = D.hom_at(verts[0], verts[2])
            return H.is_invertible(_phi_of_2simplex(raw))
        return False

    return marked_fn


def rs_nerve(D: Fin2Category, bound=DEFAULT_BOUND, limit=5_000_000):
    """Nerve marked at 2-simplices whose 2-cell is an identity."""
    return _nerve(D, _rs_marked(D), bound, limit)[0]


def rs_nerve_with_index(D: Fin2Category, bound=DEFAULT_BOUND, limit=5_000_000):
    """As rs_nerve, also returning the raw-simplex -> reference index."""
    return _nerve(D, _rs_marked(D), bound, limit)


def scaled_nerve(D: Fin2Category, bound=DEFAULT_BOUND, limit=5_000_000):
    """Nerve marked at 2-simplices whose 2-cell is invertible."""
    return _nerve(D, _scaled_marked(D), bound, limit)[0]


def _apply_raw(F: TwoFunctor, raw):
    verts, edges, tris = raw
    n = len(verts) - 1
    nverts = tuple(F.obj(x) for x in verts)
    nedges = tuple(
        F.one(verts[i], verts[j], edges[t]) for t, (i, j) in enumerate(_pairs(n))
    )
    ntris = tuple(
        F.two(verts[i], verts[k], tris[t])
        for t, (i, j, k) in enumerate(_triples(n))
    )
    return (nverts, nedges, ntris)


def nerve_map(F: TwoFunctor, variant="rs", bound=DEFAULT_BOUND, limit=5_000_000):
    """The simplicial map induced on nerves by a 2-functor."""
    builders = {"rs": _rs_marked, "scaled": _scaled_marked,
                "duskin": lambda D: (lambda raw, n: False)}
    mk = builders[variant]
    X, xindex = _nerve(F.source, mk(F.source), bound, limit)
    Y, yindex = _nerve(F.target, mk(F.target), bound, limit)
    return MSSetMap(X, Y, _nerve_assignment(F, xindex, yindex))


def _nerve_assignment(F: TwoFunctor, xindex, yindex):
    """The generator assignment of the map induced by F, read off the
    raw -> reference indices of its source and target nerves."""
    # each generator is the reference of exactly one raw simplex
    return {
        g: yindex[_apply_raw(F, raw)] for raw, (g, w) in xindex.items() if not w
    }


# ---------------------------------------------------------------------------
# coskeletality


def compatible_boundaries(X: MarkedSSet, n: int, limit=5_000_000):
    """All (n+1)-tuples of (n-1)-simplices matching like a boundary.

    The tuples satisfy d_i sigma_j = d_{j-1} sigma_i for i < j; every
    actual boundary of an n-simplex appears among them. Raises ValueError
    for n < 1.

    The search picks sigma_0, sigma_1, ... depth first, from a pool per
    sigma_j: the cells whose first j faces are the forced d_{j-1} sigma_i,
    i < j.  Every candidate in one pool shares the forced faces
    d_j sigma_0, ..., d_j sigma_{j-1} of sigma_{j+1}, so the cells are
    indexed by face prefix of length k-1, then by face k-1: the prefix is
    looked up once per pool (a miss drops the whole pool), and each
    candidate costs one lookup of its own face d_j.  The guard is charged
    one step per candidate tried, that is per compatible prefix.
    """
    if n < 1:
        raise ValueError(f"boundaries need dimension at least 1, not {n}")
    guard = _Guard(limit, "compatible_boundaries")
    guard.dimension = n
    step = guard.step
    cells = X.all_simplices(n - 1)
    if n == 1:
        # vertices have no faces, so every ordered pair of them matches;
        # one step per prefix, as below
        step(len(cells) * (1 + len(cells)))
        return list(itertools.product(cells, repeat=2))
    # faces as interned integer ids, so that pool keys hash fast
    ids = {}
    faces = [
        tuple([ids.setdefault(r, len(ids)) for r in fs])
        for fs in _face_layer(X, cells, n - 1)
    ]
    # pools[k][fs[:k-1]][fs[k-1]]: the cells, with their faces, whose
    # first k faces are fs[:k]
    pools = [None] + [{} for _ in range(n)]
    for s, fs in zip(cells, faces):
        for k in range(1, n + 1):
            pools[k].setdefault(fs[:k - 1], {}).setdefault(fs[k - 1], []).append((s, fs))
    results = []
    chosen, chosen_faces = [], []

    def extend(j, pool):
        # pool: the cells, with their faces, that sigma_j may be
        step(len(pool))
        # sigma_{j+1} has the faces d_j sigma_0, ..., d_j sigma_j first
        by_face = pools[j + 1].get(tuple([fs[j] for fs in chosen_faces]))
        if by_face is None:
            return
        if j + 1 == n:
            for s, fs in pool:
                last = by_face.get(fs[j])
                if last:
                    step(len(last))
                    results.extend([(*chosen, s, t) for t, _ in last])
            return
        for s, fs in pool:
            following = by_face.get(fs[j])
            if following:
                chosen.append(s)
                chosen_faces.append(fs)
                extend(j + 1, following)
                chosen.pop()
                chosen_faces.pop()

    extend(0, list(zip(cells, faces)))
    return results


def filler_counts(X: MarkedSSet, n: int, limit=5_000_000):
    """For each compatible boundary in dimension n, its number of fillers."""
    boundaries = compatible_boundaries(X, n, limit)
    index = collections.Counter(_face_layer(X, X.all_simplices(n), n))
    return [(b, index.get(b, 0)) for b in boundaries]
