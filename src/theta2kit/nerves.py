"""Nerves of finite 2-categories as marked simplicial sets.

An n-simplex consists of objects x_0..x_n, 1-cells f_ij: x_i -> x_j for
i < j, and 2-cells phi_ijk: f_ik => f_jk . f_ij subject to the cocycle
relation on every quadruple of indices.  The three marking conventions
(none / identity 2-simplices / invertible 2-simplices) share the same
underlying simplicial set.

The raw simplices are built a layer at a time, each n-simplex from its
base d_n x and one extension of d_0 of that base, so that its faces are
known as indices into the layer below as it is made (`_extend`).  Its
degeneracies are known too, as a bitmask read off the masks of those
two faces: bit i is set iff x = s_i d_{i+1} x.  `_build` reads the
generators, their faces and the degeneracies off those indices and
masks as the simplices arrive.  A layer below the top is held only
until the next one is made from it, and the top layer, the largest, is
never held: `_raw_nerve` streams it into `_build` simplex by simplex,
with no raw tuple for a degenerate one.
Each process caches one built nerve per `twocat/1` document of D (its
`signature`), bound and marking, and no raw layers; see `nerve`.  Beside
them it keeps, per document and bound, the generator raw simplices,
walked on the first nerve map out of D: a nerve map finds their images
by `_ref`, which tests any raw tuple for degeneracy (`_degeneracy_test`).
Nerve ids are spelled here alone (`_key_fn`, `_ref`, and `_pairs`,
`_triples`, `_pidx`, `_tidx` for the layout of a raw simplex), so the
comparison map into the nerve of a suspension 2-category lives here too.
"""

from __future__ import annotations

import collections
import functools
import heapq
import itertools
import operator
from array import array

from .msset import (
    DEFAULT_BOUND, DEFAULT_LIMIT, MarkedSSet, MSSetMap, _check_int, _face_layer, _Guard,
    degenerate, empty_msset, rebound)
from .suspension import cone_ref, suspend_marked
from .twocat import (
    Fin2Category, FinCategory, TwoFunctor, _copies, as_two_category, suspend_category)

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
    """Whether a raw n-simplex x is s_i d_{i+1} x, as a function of x and
    of D's unit 1-cells and identity 2-cells per hom.

    s_i d_{i+1} renames vertex i+1 to i.  So x is s_i d_{i+1} x iff
    x_i == x_{i+1}, the edge (i, i+1) is the unit, each collapsed
    triangle (i, i+1, c) or (a, i, i+1) is the identity 2-cell on its
    long edge (i, c) or (a, i), and every other edge and triangle through
    i+1 equals the one it is renamed to.  The rest are fixed, so the test
    is exact on any raw tuple; one naming a cell D lacks raises KeyError.
    """
    r = [i if a == i + 1 else a for a in range(n + 1)]
    pidx, tidx = _pidx(n), _tidx(n)
    unit_pos = pidx[(i, i + 1)]
    # the positions through i+1 but (i, i+1), and those s_i d_{i+1} reads there
    moved_e = [(t, pidx[(r[a], r[b])]) for t, (a, b) in enumerate(_pairs(n))
               if i + 1 in (a, b) and r[a] != r[b]]
    moved_t = [(t, tidx[(r[a], r[b], r[c])]) for t, (a, b, c) in enumerate(_triples(n))
               if i + 1 in (a, b, c) and len({r[a], r[b], r[c]}) == 3]
    e_at, e_to, t_at, t_to = (_getter([m[k] for m in moved]) for moved in (moved_e, moved_t)
                              for k in (0, 1))
    collapsed = [(t, a, c, pidx[(r[a], r[c])])
                 for t, (a, b, c) in enumerate(_triples(n)) if len({r[a], r[b], r[c]}) < 3]

    def test(x, unit1, ident):
        verts, edges, tris = x
        return (verts[i] == verts[i + 1] and edges[unit_pos] == unit1[verts[i]]
                and e_at(edges) == e_to(edges) and t_at(tris) == t_to(tris)
                and all(tris[t] == ident[(verts[a], verts[c])][edges[p]]
                        for t, a, c, p in collapsed))

    return test


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


class _Tables:
    """The composition data nerve extension reads, as plain dicts.

    The read-only tables of D and of its homs, whose horizontal tables
    may be built on lookup (as `theta2_object`'s are), are copied once,
    so that the inner loops of `_extend` look up plain dicts; `ident`,
    `two_cells` and `thin` are each hom's identity 2-cells, `homs` and
    `thin`, one dict per hom object however many pairs share it.  For each
    thin hom (x, y)
    it also holds `down[(x, y)]`: per 1-cell c, an int bitmask of the
    positions in `ones[(x, y)]` of the 1-cells f with a 2-cell f => c.
    """

    def __init__(self, D: Fin2Category):
        self.objects = sorted(D.objects)
        self.unit1 = dict(D.unit1)
        self.ones = {k: H.objects for k, H in D.hom.items()}
        self.then = _copies(D.hom, lambda H: dict(H.compose))
        self.ident = _copies(D.hom, lambda H: dict(H.identity))
        self.hc1 = _copies(D.hcompose1, dict)
        self.hc2 = _copies(D.hcompose2, dict)
        self.two_cells = _copies(D.hom, lambda H: dict(H.homs))
        self.thin = {k: H.thin for k, H in D.hom.items()}
        self.down = {}
        for k, H in D.hom.items():
            if H.thin:
                pos = {f: p for p, f in enumerate(H.objects)}
                down = dict.fromkeys(H.objects, 0)
                for f, c in H.homs:
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


def _extend(tabs: _Tables, prev, prev_faces, prev_masks, prev_runs, prev_keys, n,
            step, runs=None, keys=None):
    """Yield layer n of the raw nerve from layer n-1, in order, each
    simplex x with its n+1 faces as indices into layer n-1, a tuple, and
    its degeneracy mask, an int whose bit i is set iff x = s_i d_{i+1} x.
    prev_faces holds the faces of layer n-1 as a flat array, n per simplex
    in turn, and prev_masks its masks; the faces of layer 0 are one 0 per
    vertex: d_0 of a vertex is the empty simplex, the one simplex of layer
    -1.

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

    Degeneracies: s_i d_{i+1} renames vertex i+1 to i, and the positions
    of x it compares (`_degeneracy_test`) lie in b, in y, or are f_0n and
    the phi_0jn.  So bit i of x is read off the masks of b and y:
    - 0 < i < n-1: bit i of b and bit i-1 of y, which make phi_0in =
      phi_0(i+1)n by the cocycle relation on (0, i, i+1, n), whose other
      two 2-cells they make identities;
    - i = 0: bit 0 of b, f_0n = y's f_0(n-1) and phi_01n the identity,
      which make phi_0jn = y's phi_0(j-1)(n-1) by the relation on
      (0, 1, j, n);
    - i = n-1: bit n-2 of y, f_0n = b's f_0(n-1) and phi_0(n-1)n the
      identity, which make phi_0jn = b's phi_0j(n-1) by the relation on
      (0, j, n-1, n);
    - n = 1: x_0 = x_1 and f_01 is the unit.
    Into a thin hom phi_01n and phi_0(n-1)n are then identities too,
    being parallel to them, so they are compared into a non-thin hom only.

    Guard: the search above costs, for (b, x_n), what it cost for
    (d_0 b, x_n) one layer down (`prev_runs` holds that beside the run),
    plus per y one step per f_0n and, per triangle, the candidates tried;
    into a thin hom, the number of f_0n that survive the triangles so far.
    It is 0 when hom(x_0, x_n) is empty.  The cost from one layer down is
    charged per (b, x_n) and the rest per y, so per-dimension totals are
    those of the search and a limit stops inside a layer.

    Below the top layer the caller passes the dicts runs and keys, which
    are filled for layer n+1: the runs (base index, x_n) -> (start, stop,
    cost) and the keys.  At the top layer nothing reads a degenerate
    simplex but its mask, so it is yielded as (None, None, mask), with no
    raw tuple or faces built.
    """
    ones, thin, down, two_cells, hc1, unit1, ident = (
        tabs.ones, tabs.thin, tabs.down, tabs.two_cells, tabs.hc1, tabs.unit1, tabs.ident)
    merge_t = _merge_getter(n)
    pidx = _pidx(n - 1)
    # the position of edge f_jn, j = 1..n-1, among the edges of y
    ypos = [pidx[(j - 1, n - 1)] for j in range(1, n)]
    # for the degeneracy bits: the bits 1..n-2, bit n-1, and the position
    # of the edge (0, n-1) in b and in y
    inner, high, last = (1 << (n - 1)) - 2, 1 << (n - 1), n - 2
    top = keys is None
    count = 0
    for bi, b in enumerate(prev):
        verts, edges, tris = b
        x0 = verts[0]
        fb = prev_faces[bi * n:(bi + 1) * n]
        d0b = fb[0]
        mb = prev_masks[bi]
        head = edges[:n - 1]
        for xn in tabs.objects:
            fs = ones.get((x0, xn))
            run = prev_runs.get((d0b, xn))
            if fs is None or run is None:
                continue
            start, stop, cost = run
            step(cost)
            first = count
            is_thin = thin[(x0, xn)]
            # whether phi_01n and phi_0(n-1)n are identities when their
            # ends agree: into a thin hom, or where there are none
            plain = is_thin or n == 1
            if is_thin:
                dn, cells = down[(x0, xn)], two_cells[(x0, xn)]
                full = (1 << len(fs)) - 1
                # per triangle (0, j, n): hc1 into x_n, f_0j and f_jn's position
                slots = [(hc1[(x0, verts[j], xn)], edges[j - 1], ypos[j - 1])
                         for j in range(1, n)]
            else:
                idn = ident[(x0, xn)]
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
                    # each f's triangles are read off below, when it is
                    # built
                    while mask:
                        low = mask & -mask
                        mask ^= low
                        picks.append((fs[low.bit_length() - 1], None))
                else:
                    k = len(fs) + sum(
                        _pick_tris(tabs, b, y, xn, f, 1, [], picks) for f in fs)
                step(k)
                cost += k
                if not picks:
                    continue
                # the bits 1..n-2, and the f_0n that bits 0 and n-1 need
                # (None where the face's bit is clear)
                if n == 1:
                    mid, lo, hi = 0, unit1[x0] if x0 == yverts[0] else None, None
                else:
                    my = prev_masks[yi]
                    mid = mb & my << 1 & inner
                    lo = yedges[last] if mb & 1 else None
                    hi = edges[last] if my >> last & 1 else None
                subs = None  # the keys of the faces d_i x, 0 < i < n, once read
                xverts = (x0,) + yverts
                if not top:
                    sub = keys[(bi, yi)] = {}
                for f, phis in picks:
                    dmask = mid
                    if f == lo and (plain or phis[0] == idn[f]):
                        dmask |= 1
                    if f == hi and (plain or phis[-1] == idn[f]):
                        dmask |= high
                    count += 1
                    if dmask and top:
                        yield None, None, dmask
                        continue
                    if subs is None:
                        fy = prev_faces[yi * n:(yi + 1) * n]
                        subs = [prev_keys[(fb[i], fy[i - 1])] for i in range(1, n)]
                    if is_thin:
                        phis = tuple([cells[(f, c)][0] for c in cs])
                        key = f
                        mid_faces = [s[f] for s in subs]
                    else:
                        key = (f, *phis)
                        mid_faces = [s[key[:i] + key[i + 1:]] for i, s in enumerate(subs, 1)]
                    if not top:
                        sub[key] = count - 1
                    yield ((xverts, head + (f,) + yedges, merge_t(tris + phis) + ytris),
                           (yi, *mid_faces, bi), dmask)
            if runs is not None:
                runs[(bi, xn)] = (first, count, cost)


_nerve_cache = {}


def _raw_nerve(D: Fin2Category, bound: int, limit=DEFAULT_LIMIT):
    """Yield, for each dimension n = 0..bound in turn, the raw n-simplices
    (degenerate ones included) in order, each with its faces as indices
    into dimension n-1 (a vertex has the face 0) and its degeneracy mask;
    see `_extend`.

    A layer below the top is made when the one before it has been read,
    and kept only until the next one is made from it, its faces in an
    array and its masks in a list beside it (an n-simplex's mask has n
    bits, and n has no bound).  The top layer is never held: it is yielded
    as `_extend` makes it, each degenerate simplex as (None, None, mask).
    """
    guard = _Guard(limit, "nerve")
    tabs = _Tables(D)
    layer = [((x,), (), ()) for x in tabs.objects]
    faces = array("I", [0] * len(layer))
    masks = [0] * len(layer)
    # the empty simplex extends to each vertex at no cost
    runs = {(0, x): (t, t + 1, 0) for t, x in enumerate(tabs.objects)}
    keys = None
    for n in range(bound + 1):
        if n:
            guard.dimension = n
            if n == bound:
                yield _extend(tabs, layer, faces, masks, runs, keys, n, guard.step)
                return
            up, up_faces, up_masks, up_runs, up_keys = [], array("I"), [], {}, {}
            for x, F, mask in _extend(tabs, layer, faces, masks, runs, keys, n,
                                      guard.step, up_runs, up_keys):
                up.append(x)
                up_faces.extend(F)
                up_masks.append(mask)
            layer, faces, masks, runs, keys = up, up_faces, up_masks, up_runs, up_keys
        yield zip(layer, zip(*[iter(faces)] * (n + 1)), masks)


def _key_fn(raw, n):
    verts, edges, tris = raw
    return ";".join([",".join(verts), ",".join(edges), ",".join(tris)])


def _build(D: Fin2Category, layers, bound, marked_fn):
    """The marked nerve of D from the raw simplices that layers gives: for
    each dimension n = 0..bound in turn, the raw n-simplices in order,
    each with its n+1 face indices into dimension n-1 and its degeneracy
    mask, as `_raw_nerve` yields them.

    Each raw simplex is classified as it arrives: degenerate or not, and a
    generator's id, faces and marking.  None is kept; only the references
    of dimension n-1 are held while dimension n is read.  Gives what the
    tests' oracle from_raw gives with the generic raw face and degeneracy
    operators.
    A simplex x is degenerate iff its mask is not 0, and then its
    reference is that of z = d_{i+1} x, degenerated by s_i, for the least
    i with x = s_i d_{i+1} x: the mask's lowest set bit (Eilenberg-Zilber).
    A generator's faces are the references at its face indices.
    Generator ids are checked to be distinct on each dimension's sorted
    list, and across dimensions by their count.
    """
    gens, gen_faces, marked = {}, {}, set()
    below = []
    for n, layer in zip(range(bound + 1), layers, strict=True):
        refs, ids = [], []
        keep = n < bound  # dimension n+1, if any, reads these references
        for x, F, mask in layer:
            if mask:
                if keep:
                    i = (mask & -mask).bit_length() - 1
                    refs.append(degenerate(below[F[i + 1]], i))
                continue
            gid = _key_fn(x, n)
            ids.append(gid)
            if n >= 1:
                gen_faces[gid] = tuple([below[k] for k in F])
                if marked_fn(x, n):
                    marked.add(gid)
            if keep:
                refs.append((gid, ()))
        below = refs
        ids.sort()
        _check_distinct(ids)
        gens[n] = tuple(ids)
    # an id may also repeat across dimensions: a vertex named "a,b" has
    # the id of an edge a -> b named ""
    if (len(gen_faces) + len(gens[0]) < sum(map(len, gens.values()))
            or not gen_faces.keys().isdisjoint(gens[0])):
        _check_distinct(heapq.merge(*gens.values()))
    return MarkedSSet(bound, gens, gen_faces, frozenset(marked))


def _generator_raws(D: Fin2Category, bound, limit=DEFAULT_LIMIT):
    """The raw simplices of the nerve of D that `_build` finds
    nondegenerate, those with mask 0, in order: one per generator, whose
    id is their key.  Each call walks the raw nerve; the nerve maps read
    the raws through `_cached_raws`, which walks them once per process."""
    return [x for layer in _raw_nerve(D, bound, limit) for x, _, mask in layer if not mask]


def _identities(D: Fin2Category):
    """D's identity 2-cells per hom, {(x, y): {1-cell: identity}}, which
    `_ref` reads; a caller that maps many raws makes it once."""
    return {k: H.identity for k, H in D.hom.items()}


def _ref(D: Fin2Category, x, ident=None):
    """The reference of the raw simplex x of the nerve of D by
    Eilenberg-Zilber: s_i of the reference of d_{i+1} x for the least i
    with x == s_i d_{i+1} x, and (_key_fn(x, n), ()) if there is none.
    A tuple that is no simplex of the nerve gets an id of no generator.
    ident is `_identities(D)`, made here when not given."""
    n = len(x[0]) - 1
    if ident is None:
        ident = _identities(D)
    for i in range(n):
        if _degeneracy_test(n, i)(x, D.unit1, ident):
            keep = [a for a in range(n + 1) if a != i + 1]
            pidx, tidx = _pidx(n), _tidx(n)
            face = (tuple([x[0][a] for a in keep]),
                    tuple([x[1][pidx[p]] for p in itertools.combinations(keep, 2)]),
                    tuple([x[2][tidx[t]] for t in itertools.combinations(keep, 3)]))
            return degenerate(_ref(D, face, ident), i)
    return (_key_fn(x, n), ())


def _check_distinct(ids):
    """Raise ValueError on the first id repeated in ids, which are sorted."""
    for gid, after in itertools.pairwise(ids):
        if gid == after:
            raise ValueError(f"duplicate generator id {gid}")


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


def nerve(D: Fin2Category, marking="rs", bound=DEFAULT_BOUND, limit=DEFAULT_LIMIT):
    """The nerve of D with the marking rs, scaled or duskin (see `_marking`),
    built once per process for each `twocat/1` document of D (its
    `signature`), bound and marking; a cache hit runs no guard again."""
    _check_int(bound, 0, "a nerve bound")
    # a cache hit builds no guard, so the limit is checked here as well
    _check_int(limit, 0, "nerve: limit")
    marked_fn = _marking(D, marking)
    key = (D.signature, bound, marking)
    if key not in _nerve_cache:
        _nerve_cache[key] = _build(D, _raw_nerve(D, bound, limit), bound, marked_fn)
    return _nerve_cache[key]


def _cached_raws(D: Fin2Category, bound, limit=DEFAULT_LIMIT):
    """D's generator raws at bound (`_generator_raws`), walked once per
    process for D's document and bound and kept beside the nerves; its
    callers take D's nerve first, which checks bound and limit."""
    key = (D.signature, bound)
    if key not in _nerve_cache:
        _nerve_cache[key] = tuple(_generator_raws(D, bound, limit))
    return _nerve_cache[key]


def duskin_nerve(D: Fin2Category, bound=DEFAULT_BOUND, limit=DEFAULT_LIMIT):
    """The nerve with no marking beyond degenerate simplices."""
    return nerve(D, "duskin", bound, limit)


def rs_nerve(D: Fin2Category, bound=DEFAULT_BOUND, limit=DEFAULT_LIMIT):
    """Nerve marked at 2-simplices whose 2-cell is an identity."""
    return nerve(D, "rs", bound, limit)


def scaled_nerve(D: Fin2Category, bound=DEFAULT_BOUND, limit=DEFAULT_LIMIT):
    """Nerve marked at 2-simplices whose 2-cell is invertible."""
    return nerve(D, "scaled", bound, limit)


def nerve_map(F: TwoFunctor, variant="rs", bound=DEFAULT_BOUND, limit=DEFAULT_LIMIT):
    """The simplicial map induced on nerves by a 2-functor; both nerves
    come from `nerve`, and the source's generator raws are walked once per
    process (`_cached_raws`).  See `_nerve_assignment`."""
    X = nerve(F.source, variant, bound, limit)
    Y = nerve(F.target, variant, bound, limit)
    return MSSetMap(X, Y, _nerve_assignment(F, _cached_raws(F.source, bound, limit), Y))


def _nerve_assignment(F: TwoFunctor, raws, Y: MarkedSSet):
    """F on the generator raw simplices of its source's nerve: each goes
    to the reference of its image in Y, the nerve of F's target.  Raises
    ValueError, naming the generator, where that names no generator of Y."""
    on, hm, assignment = F.on_objects, F.hom_maps, {}
    ident = _identities(F.target)
    for x in raws:
        verts, edges, tris = x
        n = len(verts) - 1
        try:
            image = (
                tuple([on[v] for v in verts]),
                tuple([hm[verts[i], verts[j]][0][f] for (i, j), f in zip(_pairs(n), edges)]),
                tuple([hm[verts[i], verts[k]][1][m] for (i, _, k), m in zip(_triples(n), tris)]))
            ref = _ref(F.target, image, ident)
        except KeyError:  # the image names a cell, or a hom, the target lacks
            ref = (None, ())
        g = _key_fn(x, n)
        if ref[0] not in Y._dim:
            raise ValueError(f"nerve map: the image of generator {g} is not "
                             "a simplex of the target's nerve; not a 2-functor?")
        assignment[g] = ref
    return assignment


def suspension_comparison(C: FinCategory, bound=DEFAULT_BOUND):
    """The canonical map from the suspended nerve of C to the nerve of the
    suspension 2-category SC of C, whose objects, unit 1-cell and identity
    2-cell on the top are read off SC's tables."""
    if not C.objects:
        raise ValueError("the comparison needs a nonempty category")
    SC = suspend_category(C)
    N = rs_nerve(SC, bound)
    if bound == 0:
        # the nerve of C one dimension down has no simplices
        NC, raws = empty_msset(0), []
    else:
        C2 = as_two_category(C)
        NC = rebound(rs_nerve(C2, bound - 1), bound)
        raws = _cached_raws(C2, bound - 1)
    SNC = suspend_marked(NC)
    bot, top = SC.objects
    unit = SC.unit1[top]
    ident = SC.hom[(top, top)].identity[unit]
    idents = _identities(SC)
    # both list the bottom vertex first
    assignment = {v: _ref(SC, ((x,), (), ()), idents)
                  for v, x in zip(SNC.vertices(), SC.objects)}
    for raw in raws:
        verts, edges, tris = raw
        n = len(verts) - 1
        m, pidx = n + 1, _pidx(n)
        # the image's 2-cell f_{0k} => f_{0j} is raw's edge (m-k, m-j)
        image = ((bot,) + (top,) * m,
                 tuple(verts[m - j] if i == 0 else unit for i, j in _pairs(m)),
                 tuple(edges[pidx[(m - k, m - j)]] if i == 0 else ident
                       for i, j, k in _triples(m)))
        cone, _ = cone_ref(NC.dim_of, (_key_fn(raw, n), ()))
        assignment[cone] = _ref(SC, image, idents)
    return MSSetMap(SNC, N, assignment)


# ---------------------------------------------------------------------------
# coskeletality


def compatible_boundaries(X: MarkedSSet, n: int, limit=DEFAULT_LIMIT):
    """All (n+1)-tuples of (n-1)-simplices matching like a boundary.

    The tuples satisfy d_i sigma_j = d_{j-1} sigma_i for i < j; every
    actual boundary of an n-simplex appears among them, sorted by sigma_0,
    then sigma_1, ..., in the order of X.all_simplices.  Raises ValueError
    for an n that is not an int >= 1 and for n > X.bound + 1.  The guard
    is charged one step per compatible prefix (sigma_0, ..., sigma_j), a
    level j at a time before it is built, levels 1 and 2 too, although
    they are built in one step: a ResourceLimitError's `steps` is the
    first level total past the limit.
    """
    cells, columns = _boundary_columns(X, n, limit)
    return list(zip(*[map(cells.__getitem__, col) for col in columns]))


def _boundary_columns(X: MarkedSSet, n: int, limit):
    """X.all_simplices(n - 1) and the compatible boundaries in dimension n
    as n + 1 arrays, array j holding each boundary's sigma_j as a position.

    Levels 1 and 2 are one step over an index of the cells by their first
    two faces, groups[d_0][d_1]: sigma_0 keeps the sigma_1 of
    groups[d_0 sigma_0] under the d_1 keys that it shares with
    groups[d_1 sigma_0], the sigma_2 (it holds s_0 d_1 sigma_0), so no
    prefix (sigma_0, sigma_1) without a sigma_2 is made; level 1 is
    charged from the groups' sizes.  Each level j >= 2 extends every
    prefix at once, by one `map` over the pool of cells whose first j
    faces are d_{j-1} sigma_i, i < j: it appends its array alone where
    every prefix has one candidate, `compress`es the arrays where none has
    two, and else gathers them through one array of parent positions.
    """
    _check_int(n, 1, "a boundary dimension")
    if n > X.bound + 1:
        raise ValueError(f"boundaries in dimension {n} exceed bound {X.bound} + 1")
    guard = _Guard(limit, "compatible_boundaries")
    guard.dimension = n
    cells = X.all_simplices(n - 1)
    # faces as interned integer ids, so that keys hash fast; a vertex has
    # one face, the empty simplex, given here as d_0 and d_1 so that every
    # pair of vertices matches at n = 1
    ids = {}
    faces = [tuple([ids.setdefault(r, len(ids)) for r in fs])
             for fs in (_face_layer(X, cells, n - 1) if n > 1 else [((), ())] * len(cells))]
    # groups[fs[0]][fs[1]], pools[k][fs[:k]] (k >= 3): the positions of the cells
    # with those first faces, each dropped after its level to lower the peak memory
    groups, pools = {}, {k: {} for k in range(3, n + 1)}
    for c, fs in enumerate(faces):
        groups.setdefault(fs[0], {}).setdefault(fs[1], []).append(c)
        for k in range(3, n + 1):
            pools[k].setdefault(fs[:k], []).append(c)
    guard.step(len(cells))
    first, second = [fs[0] for fs in faces], [fs[1] for fs in faces]
    candidates = {d0: sum(map(len, by_d1.values())) for d0, by_d1 in groups.items()}
    guard.step(sum(map(candidates.__getitem__, first)))
    counts, ones = array("I"), []
    for d0, d1 in zip(first, second):
        by_d1, twos = groups[d0], groups[d1]
        kept = sorted(itertools.chain.from_iterable(
            map(by_d1.__getitem__, by_d1.keys() & twos.keys())))
        counts.append(len(kept))
        ones.extend(kept)
    columns = [array("I", itertools.chain.from_iterable(
        map(itertools.repeat, range(len(cells)), counts))), array("I", ones)]
    for j in range(2, n + 1):
        if j == 2:
            found = list(map(dict.__getitem__, map(groups.__getitem__, map(
                second.__getitem__, columns[0])), map(second.__getitem__, columns[1])))
            del groups
        else:
            face = list(map(operator.itemgetter(j - 1), faces)).__getitem__
            found = list(map(pools.pop(j).get, zip(*[map(face, col) for col in columns]),
                             itertools.repeat(())))
        sizes = array("I", map(len, found))
        guard.step(sum(sizes))
        if max(sizes, default=0) > 1:
            parent = array("I", itertools.chain.from_iterable(map(
                itertools.repeat, itertools.compress(range(len(sizes)), sizes),
                itertools.compress(sizes, sizes))))
            columns = [array("I", map(col.__getitem__, parent)) for col in columns]
        elif min(sizes, default=1) == 0:
            columns = [array("I", itertools.compress(col, sizes)) for col in columns]
        columns.append(array("I", itertools.chain.from_iterable(found)))
    return cells, columns


def filler_counts(X: MarkedSSet, n: int, limit=DEFAULT_LIMIT):
    """For each compatible boundary in dimension n, its number of fillers.

    A degenerate filler x = s_j y of b has d_j x = d_{j+1} x = y, so the
    degenerate fillers of b are the distinct s_j b[j] with b[j] == b[j+1]
    whose faces are b; the others are the n-generators with faces b.

    s_j b[j] has the faces b exactly when j-1 is in the normal word of
    every b[i], i < j, and j in that of every b[i], i > j+1: its faces
    s_{j-1} d_i b[j] (i < j) and s_j d_{i-1} b[j] (i > j+1) are by
    compatibility s_{j-1} d_{j-1} b[i] and s_j d_j b[i], and a normal ref
    r is s_k d_k r exactly when k is in its word (Eilenberg-Zilber).  So
    x is s_k b[k] for every k in its word and no other, and is counted
    once, at its word's least index: the j where b[j]'s word has no index
    below j, as s_j raises each index >= j and puts j after them.  Raises
    ValueError for an n that is not an int >= 1, and for n > X.bound,
    where X holds no n-simplices to count.
    """
    _check_int(n, 1, "a filler dimension")
    if n > X.bound:
        raise ValueError(f"fillers in dimension {n} exceed bound {X.bound}")
    fillers = collections.Counter(X.faces[g] for g in X.gens_at(n))
    cells, columns = _boundary_columns(X, n, limit)
    words = [w for _, w in cells]
    least = [min(w, default=n) for w in words]
    degenerate_fillers = array("I", [0]) * len(columns[0])
    for j in range(n):
        at = list(itertools.compress(
            range(len(columns[0])), map(operator.eq, columns[j], columns[j + 1])))
        at = list(itertools.compress(at, map(
            operator.ge, map(least.__getitem__, map(columns[j].__getitem__, at)),
            itertools.repeat(j))))
        for i in itertools.chain(range(j), range(j + 2, n + 1)):
            at = list(itertools.compress(at, map(
                operator.contains, map(words.__getitem__, map(columns[i].__getitem__, at)),
                itertools.repeat(j - 1 if i < j else j))))
        for p in at:
            degenerate_fillers[p] += 1
    boundaries = list(zip(*[map(cells.__getitem__, col) for col in columns]))
    del columns  # not held while the output is built: it lowers the peak memory
    counts = array("I", map(operator.add, map(fillers.get, boundaries, itertools.repeat(0)),
                            degenerate_fillers))
    del fillers, degenerate_fillers  # nor are these
    return list(zip(boundaries, counts))
