"""Nerves of finite 2-categories as marked simplicial sets.

An n-simplex consists of objects x_0..x_n, 1-cells f_ij: x_i -> x_j for
i < j, and 2-cells phi_ijk: f_ik => f_jk . f_ij subject to the cocycle
relation on every quadruple of indices.  The three marking conventions
(none / identity 2-simplices / invertible 2-simplices) share the same
underlying simplicial set.

The raw simplices are built a layer at a time, each n-simplex from its
base d_n x and one extension of d_0 of that base, so that its faces are
known as indices into the layer below as it is made (`_extend`);
`_build` reads the generators, their faces and the degeneracies off
those indices, dropping each raw simplex once read.  Each process
caches one built nerve per signature of D, bound and marking, and no raw
layers; see `nerve` and `rs_nerve_with_index`.
"""

from __future__ import annotations

import collections
import functools
import itertools
import operator
from array import array

from .msset import (
    DEFAULT_BOUND, MarkedSSet, MSSetMap, _check_int, _face_layer, _Guard, degenerate)
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
def _merge_getter(n):
    """A getter taking the triangles of the base d_n x of a raw n-simplex
    x, followed by x's triangles (0, j, n) ordered by j, to x's triangles
    (0, j, k) in order.

    The rest of x is read off d_0 x: x's edges are those (0, j) of d_n x,
    then f_0n, then the edges of d_0 x, and its triangles (a, b, c) with
    a > 0 are those of d_0 x, all in order.
    """
    tidx = _tidx(n - 1)
    return _getter([
        tidx[(0, j, k)] if k < n else len(tidx) + j - 1
        for i, j, k in _triples(n) if i == 0
    ])


def _plain(table):
    """A (x, y, z) -> {pair: cell} table as a dict of dicts, each inner
    table that several triples share copied once."""
    copies = {}
    for t in table.values():
        if id(t) not in copies:
            copies[id(t)] = dict(t)
    return {k: copies[id(t)] for k, t in table.items()}


class _Tables:
    """The composition data nerve extension reads, as plain dicts.

    The horizontal tables of D, which may be read-only mappings built on
    lookup (as `theta2_object`'s are), are copied once, so that the inner
    loops of `_extend` look up plain dicts.  For each thin hom (x, y) it
    also holds `down[(x, y)]`: per 1-cell c, an int bitmask of the
    positions in `ones[(x, y)]` of the 1-cells f with a 2-cell f => c.
    """

    def __init__(self, D: Fin2Category):
        self.objects = sorted(D.objects)
        self.ones = {k: H.objects for k, H in D.hom.items()}
        self.then = {k: H.compose for k, H in D.hom.items()}
        self.ident = {k: H.identity for k, H in D.hom.items()}
        self.hc1 = _plain(D.hcompose1)
        self.hc2 = _plain(D.hcompose2)
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


def _pick_tris(tabs: _Tables, b, y, xn, f, j, chosen, picks):
    """The checked search for the triangles phi_0jn, phi_0(j+1)n, ... of
    an n-simplex x with base b = d_n x, face y = d_0 x and f_0n = f, given
    the phi_0mn for m < j in `chosen`.

    Choosing phi_0jn closes the cocycle relation on (0, m, j, n) for every
    0 < m < j, and on no other quadruple; those relations are checked at
    once.  Appends each full choice (f, phis) to picks and returns the
    guard steps: the candidates tried for each triangle.
    """
    verts, edges, tris = b
    n = len(verts)
    if j == n:
        picks.append((f, tuple(chosen)))
        return 0
    pidx, tidx = _pidx(n - 1), _tidx(n - 1)
    yedges, ytris = y[1], y[2]
    x0, xj = verts[0], verts[j]
    fjn = yedges[pidx[(j - 1, n - 1)]]
    tgt = tabs.hc1[(x0, xj, xn)][(edges[j - 1], fjn)]
    cands = tabs.two_cells[(x0, xn)].get((f, tgt))
    if not cands:
        return 0
    then_in, ident, hc2 = tabs.then[(x0, xn)], tabs.ident, tabs.hc2
    id_fjn = ident[(xj, xn)][fjn]
    # (lhs, beta) per m: phi_0jn passes iff phi ; beta == lhs
    checks = []
    for m in range(1, j):
        xm = verts[m]
        lhs = then_in[(
            chosen[m - 1],
            hc2[(x0, xm, xn)][(ident[(x0, xm)][edges[m - 1]],
                               ytris[tidx[(m - 1, j - 1, n - 1)]])],
        )]
        beta = hc2[(x0, xj, xn)][(tris[tidx[(0, m, j)]], id_fjn)]
        checks.append((lhs, beta))
    steps = len(cands)
    for phi in cands:
        if all(then_in[(phi, beta)] == lhs for lhs, beta in checks):
            chosen.append(phi)
            steps += _pick_tris(tabs, b, y, xn, f, j + 1, chosen, picks)
            chosen.pop()
    return steps


def _extend(tabs: _Tables, prev, prev_faces, prev_runs, prev_keys, n, top, step):
    """Layer n of the raw nerve from layer n-1, with each simplex's faces
    as indices into layer n-1: a flat array holding the n+1 faces of each
    simplex in turn.  The faces of layer 0 are one 0 per vertex: d_0 of a
    vertex is the empty simplex, the one simplex of layer -1.

    An n-simplex x is its base b = d_n x, a last vertex x_n and what joins
    them, and its face y = d_0 x extends d_0 b to the same x_n.  So for
    each base b (in order), each object x_n and each y in the run of layer
    n-1 extending d_0 b to x_n (in order), only f_0n and the triangles
    phi_0jn are chosen.  (The one extension of the empty simplex to x_n is
    the vertex x_n.)  This gives the simplices, in the same order, that a
    search picking the edges f_in for i descending from n-1, with the
    triangles phi_ijn over each edge, gives.
    - Into a non-thin hom(x_0, x_n), the choice is the checked search
      `_pick_tris`.
    - Into a thin one, both sides of each cocycle relation are parallel
      2-cells of that hom, so the relations hold whatever is chosen: each
      phi_0jn is the one 2-cell f_0n => c_j, c_j = f_jn . f_0j, if any.
      The f_0n that have all of them are the AND of the down-set masks of
      the c_j (`_Tables.down`), walked in `ones` order.

    Faces: d_0 x = y, d_n x = b, and for 0 < i < n, d_i x is the extension
    of d_i b by d_{i-1} y with the same f_0n and the phi_0jn but phi_0in.
    So each layer keys its simplices on (base index, d_0 index), then on
    f_0n, with the phi_0jn added into a non-thin hom; d_i x is one lookup
    in `prev_keys`.

    Guard: the search above costs, for (b, x_n), what it cost for
    (d_0 b, x_n) one layer down (`prev_runs` holds that beside the run),
    plus per y one step per f_0n and, per triangle, the candidates tried;
    into a thin hom, the number of f_0n that survive the triangles so far.
    It is 0 when hom(x_0, x_n) is empty.  The cost from one layer down is
    charged per (b, x_n) and the rest per y, so per-dimension totals are
    those of the search and a limit stops inside a layer.

    Returns the layer, its faces and, below the top layer, its runs
    (base index, x_n) -> (start, stop, cost) and its keys.
    """
    layer, faces, runs, keys = [], array("I"), {}, {}
    ones, thin, down, two_cells, hc1 = (
        tabs.ones, tabs.thin, tabs.down, tabs.two_cells, tabs.hc1)
    merge_t = _merge_getter(n)
    pidx = _pidx(n - 1)
    # the position of edge f_jn, j = 1..n-1, among the edges of y
    ypos = [pidx[(j - 1, n - 1)] for j in range(1, n)]
    for bi, b in enumerate(prev):
        verts, edges, tris = b
        x0 = verts[0]
        fb = prev_faces[bi * n:(bi + 1) * n]
        d0b = fb[0]
        head = edges[:n - 1]
        for xn in tabs.objects:
            fs = ones.get((x0, xn))
            run = prev_runs.get((d0b, xn))
            if fs is None or run is None:
                continue
            start, stop, cost = run
            step(cost)
            first = len(layer)
            is_thin = thin[(x0, xn)]
            if is_thin:
                dn, cells = down[(x0, xn)], two_cells[(x0, xn)]
                full = (1 << len(fs)) - 1
                # per triangle (0, j, n): hc1 into x_n, f_0j and f_jn's position
                slots = [(hc1[(x0, verts[j], xn)], edges[j - 1], ypos[j - 1])
                         for j in range(1, n)]
            for yi in range(start, stop):
                y = prev[yi]
                yverts, yedges, ytris = y
                picks = []
                if is_thin:
                    mask, tried, cs = full, 0, []
                    for comp, f0j, p in slots:
                        c = comp[(f0j, yedges[p])]
                        mask &= dn[c]
                        if not mask:
                            break
                        tried += mask.bit_count()
                        cs.append(c)
                    k = len(fs) + tried
                    while mask:
                        low = mask & -mask
                        mask ^= low
                        f = fs[low.bit_length() - 1]
                        picks.append((f, tuple([cells[(f, c)][0] for c in cs])))
                else:
                    k = len(fs) + sum(
                        _pick_tris(tabs, b, y, xn, f, 1, [], picks) for f in fs)
                step(k)
                cost += k
                if not picks:
                    continue
                fy = prev_faces[yi * n:(yi + 1) * n]
                subs = [prev_keys[(fb[i], fy[i - 1])] for i in range(1, n)]
                xverts = (x0,) + yverts
                if not top:
                    sub = keys[(bi, yi)] = {}
                for f, phis in picks:
                    if is_thin:
                        key = f
                        mid = [s[f] for s in subs]
                    else:
                        key = (f, *phis)
                        mid = [s[key[:i] + key[i + 1:]] for i, s in enumerate(subs, 1)]
                    if not top:
                        sub[key] = len(layer)
                    layer.append((xverts, head + (f,) + yedges,
                                  merge_t(tris + phis) + ytris))
                    faces.extend((yi, *mid, bi))
            if not top:
                runs[(bi, xn)] = (first, len(layer), cost)
    return layer, faces, runs, keys


_nerve_cache = {}


def _raw_nerve(D: Fin2Category, bound: int, limit=5_000_000):
    """Every raw simplex (degenerate ones included) per dimension, and the
    faces of each as indices into the layer below; see `_extend`."""
    guard = _Guard(limit, "nerve")
    tabs = _Tables(D)
    by_dim = {0: [((x,), (), ()) for x in tabs.objects]}
    faces = {0: array("I", [0] * len(tabs.objects))}
    # the empty simplex extends to each vertex at no cost
    runs = {(0, x): (t, t + 1, 0) for t, x in enumerate(tabs.objects)}
    keys = None
    for n in range(1, bound + 1):
        guard.dimension = n
        by_dim[n], faces[n], runs, keys = _extend(
            tabs, by_dim[n - 1], faces[n - 1], runs, keys, n, n == bound, guard.step)
    return by_dim, faces


def _key_fn(raw, n):
    verts, edges, tris = raw
    return ";".join([",".join(verts), ",".join(edges), ",".join(tris)])


def _build(D: Fin2Category, by_dim, faces, bound, marked_fn, index=None):
    """The marked nerve of a raw nerve, dropping each raw simplex once
    read; fills index, if a dict, with each raw simplex's reference.

    faces[n] holds the faces of each raw n-simplex as indices into layer
    n-1, n+1 per simplex in turn, as `_raw_nerve` gives them.  Gives what
    the tests' oracle from_raw gives with the generic raw face and
    degeneracy operators.
    x = s_i z forces d_i x == d_{i+1} x == z, so s_i is tried only where
    those two indices agree; it is then confirmed exactly on all
    positions, and x's reference is z's, degenerated.  A generator's
    faces are the references at its face indices.
    """
    unit1 = D.unit1
    ident = {k: H.identity for k, H in D.hom.items()}
    gens, gen_faces, marked, seen = {}, {}, set(), set()
    below = []
    for n in range(bound + 1):
        tests = [(i, _pidx(n)[(i, i + 1)], *_degeneracy_test(n, i)) for i in range(n)]
        layer, refs, ids = by_dim.pop(n, []), [], []
        # each simplex's n+1 face indices, as a tuple
        face_tuples = zip(*[iter(faces.pop(n, ()))] * (n + 1))
        for at, F in zip(range(len(layer)), face_tuples, strict=True):
            x, layer[at] = layer[at], None
            verts, edges, tris = x
            for i, unit_pos, same_t, collapsed in tests:
                v = verts[i]
                if (
                    F[i] == F[i + 1]
                    and v == verts[i + 1]
                    and edges[unit_pos] == unit1[v]
                    and same_t(tris) == tris
                    and all(
                        tris[t] == ident[(verts[a], verts[c])][edges[p]]
                        for t, a, c, p in collapsed
                    )
                ):
                    ref = degenerate(below[F[i + 1]], i)
                    break
            else:
                gid = _key_fn(x, n)
                if gid in seen:
                    raise ValueError(f"duplicate generator id {gid}")
                seen.add(gid)
                ids.append(gid)
                if n >= 1:
                    gen_faces[gid] = tuple([below[k] for k in F])
                    if marked_fn(x, n):
                        marked.add(gid)
                ref = (gid, ())
            refs.append(ref)
            if index is not None:
                index[x] = ref
        below = refs
        gens[n] = tuple(sorted(ids))
    return MarkedSSet(bound, gens, gen_faces, frozenset(marked))


def _marking(D: Fin2Category, variant):
    """Whether a nondegenerate raw n-simplex of the nerve of D is marked, as
    a function of (raw, n).  duskin marks none; rs and scaled mark every
    simplex above dimension 2, and a 2-simplex whose 2-cell is an
    identity (rs) or invertible (scaled)."""
    if variant not in ("rs", "scaled", "duskin"):
        raise ValueError(
            f"unknown nerve variant {variant!r}; known: rs, scaled, duskin")
    if variant == "duskin":
        return lambda raw, n: False

    def marked_fn(raw, n):
        if n != 2:
            return n >= 3
        verts = raw[0]
        H = D.hom_at(verts[0], verts[2])
        # a 2-simplex has one 2-cell, phi_012
        return (H.is_identity if variant == "rs" else H.is_invertible)(raw[2][0])

    return marked_fn


def _nerve(D: Fin2Category, variant, bound, limit, index=None):
    """The marked nerve, cached unless index is a dict to fill; see `nerve`."""
    _check_int(bound, 0, "a nerve bound")
    # a cache hit builds no guard, so the limit is checked here as well
    _check_int(limit, 0, "nerve: limit")
    marked_fn = _marking(D, variant)
    key = (D.signature(), bound, variant)
    if index is not None or key not in _nerve_cache:
        _nerve_cache[key] = _build(D, *_raw_nerve(D, bound, limit), bound, marked_fn, index)
    return _nerve_cache[key]


def nerve(D: Fin2Category, marking="rs", bound=DEFAULT_BOUND, limit=5_000_000):
    """The nerve of D with the marking rs, scaled or duskin (see `_marking`),
    built once per signature of D, bound and marking in each process; a
    cache hit does not run the guard again."""
    return _nerve(D, marking, bound, limit)


def duskin_nerve(D: Fin2Category, bound=DEFAULT_BOUND, limit=5_000_000):
    """The nerve with no marking beyond degenerate simplices."""
    return nerve(D, "duskin", bound, limit)


def rs_nerve(D: Fin2Category, bound=DEFAULT_BOUND, limit=5_000_000):
    """Nerve marked at 2-simplices whose 2-cell is an identity."""
    return nerve(D, "rs", bound, limit)


def rs_nerve_with_index(D: Fin2Category, bound=DEFAULT_BOUND, limit=5_000_000):
    """As rs_nerve, also returning the raw-simplex -> reference index; it
    always builds from scratch, and the nerve built replaces the cached one."""
    index = {}
    return _nerve(D, "rs", bound, limit, index), index


def scaled_nerve(D: Fin2Category, bound=DEFAULT_BOUND, limit=5_000_000):
    """Nerve marked at 2-simplices whose 2-cell is invertible."""
    return nerve(D, "scaled", bound, limit)


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
    """The simplicial map induced on nerves by a 2-functor; both nerves
    are built from scratch, as in `rs_nerve_with_index`."""
    xindex, yindex = {}, {}
    X = _nerve(F.source, variant, bound, limit, xindex)
    Y = _nerve(F.target, variant, bound, limit, yindex)
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
    for an n that is not an int >= 1 and for n > X.bound + 1.

    The search picks sigma_0, sigma_1, ... depth first, from a pool per
    sigma_j: the cells whose first j faces are the forced d_{j-1} sigma_i,
    i < j.  Every candidate in one pool shares the forced faces
    d_j sigma_0, ..., d_j sigma_{j-1} of sigma_{j+1}, so the cells are
    indexed by face prefix of length k-1, then by face k-1: the prefix is
    looked up once per pool (a miss drops the whole pool), and each
    candidate costs one lookup of its own face d_j.  The guard is charged
    one step per candidate tried, that is per compatible prefix.
    """
    _check_int(n, 1, "a boundary dimension")
    if n > X.bound + 1:
        raise ValueError(f"boundaries in dimension {n} exceed bound {X.bound} + 1")
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
    _extend_boundaries(0, list(zip(cells, faces)), n, pools, [], [], results, step)
    return results


def _extend_boundaries(j, pool, n, pools, chosen, chosen_faces, results, step):
    """Append to results every boundary that extends chosen (sigma_0, ...,
    sigma_{j-1}, with their faces in chosen_faces) by a sigma_j from pool,
    the cells with their faces that sigma_j may be; see
    `compatible_boundaries`.  It recurses once per depth, at most n deep,
    and is a module-level function, not a closure over itself, so a call
    leaves no reference cycle behind."""
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
            _extend_boundaries(j + 1, following, n, pools, chosen, chosen_faces,
                               results, step)
            chosen.pop()
            chosen_faces.pop()


def filler_counts(X: MarkedSSet, n: int, limit=5_000_000):
    """For each compatible boundary in dimension n, its number of fillers.

    A degenerate filler x = s_j y of b has d_j x = d_{j+1} x = y, so the
    degenerate fillers of b are the distinct s_j b[j] with b[j] == b[j+1]
    whose faces are b; the others are the n-generators with faces b.

    s_j b[j] has the faces b exactly when j-1 is in the normal word of
    every b[i], i < j, and j in that of every b[i], i > j+1: its faces
    s_{j-1} d_i b[j] (i < j) and s_j d_{i-1} b[j] (i > j+1) are by
    compatibility s_{j-1} d_{j-1} b[i] and s_j d_j b[i], and a normal ref
    r is s_k d_k r exactly when k is in its word (Eilenberg-Zilber).
    Raises ValueError for an n that is not an int >= 1, and for
    n > X.bound, where X holds no n-simplices to count.
    """
    _check_int(n, 1, "a filler dimension")
    if n > X.bound:
        raise ValueError(f"fillers in dimension {n} exceed bound {X.bound}")
    boundaries = compatible_boundaries(X, n, limit)
    fillers = collections.Counter(X.faces[g] for g in X.gens_at(n))
    return [
        (b, fillers[b] + len({
            degenerate(b[j], j) for j in range(n) if b[j] == b[j + 1]
            and all(j - 1 in r[1] for r in b[:j])
            and all(j in r[1] for r in b[j + 2:])}))
        for b in boundaries
    ]
