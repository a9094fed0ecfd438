"""The all-simplex constructions the library used to run, kept as oracles.

from_raw normalises every simplex of a raw dimensionwise presentation,
degenerate ones included, to a generator or a degeneracy of one.  The
product and colimit below feed it every pair of simplices and every
simplex of every node; the library builds both on generators only, and
the tests compare the two.

raw_nerve extends each raw nerve simplex by a search over all its new
edge positions, and raw_face_index finds each simplex's faces by position
getters and lookup; the library extends from the extensions of d_0 and
records the faces as it goes.

raw_nerve_assignment reads the map a 2-functor induces on nerves off
from_raw's raw -> reference normal maps of both raw nerves, built with
the generic operators of RawOps; the library maps the source's generator
raw simplices and finds each image's reference in the cached target
nerve by Eilenberg-Zilber (nerves._ref).

full_raw_nerve holds every layer of the raw nerve, the top one included,
and layers hands them to nerves._build, with the degeneracy masks
nerves._extend made or, for layers made elsewhere, those oracle_mask
reads off nerves._degeneracy_test; the library streams the top layer
into _build as it is made, with no raw tuple for a degenerate simplex,
and keeps a layer below only while the next one is made from it.

raw_compatible_boundaries searches the boundaries depth first, one
prefix at a time, with every level indexed by face prefix of length k-1,
then by face k-1, and one (cell, faces) tuple per level; the library
extends every prefix of a level at once over columns of cell positions,
and charges its guard a level at a time.

raw_boundary_columns builds those columns a level at a time from level
1, making every prefix (sigma_0, sigma_1) with d_0 sigma_1 = d_0 sigma_0
before level 2 drops those with no sigma_2; the library joins levels 1
and 2 in one step over an index of the cells by their first two faces.

raw_evaluate and raw_evaluate_map build the classes of a presentation's
elements once per call to each and enumerate 2-functors again per arrow;
the library builds them once per presentation in theta._classes.

raw_enumerate_maps recurses once per source generator and
raw_map_by_vertices places one generator at a time, both scanning every
simplex of the target for each generator; the library runs one
explicit-stack search over a face index of the target.

raw_filler_counts counts the fillers of each boundary in a table of the
faces of every n-simplex, degenerate ones included, and
raw_filler_counts_by_face computes every face of each degeneracy a
boundary allows; the library counts the generators' faces and reads
whether such a degeneracy fills the boundary off the boundary's words.

raw_is_mono applies a map to every simplex up to the bound; the library
reads the images of the generators.

raw_enumerate_full tries every tuple of object images and enumerates the
functors of every hom again for each; the library searches object images
through the generating pairs and keeps one functor list per pair of homs.

raw_object_maps finds object images depth first, each object's
candidates read off the images of the earlier objects its generators
join it to; the library narrows every later object's candidates as it
places one, and counts object maps by the candidates they leave.

raw_chain_count counts composable j-chains by the same dynamic
programme as chain_count, anew on each call; the library keeps each count
on the category, one entry per j.

raw_enumerate_two_functors runs raw_object_maps and builds every
2-functor as it goes, charging a free source's combinations one step at a
time; the library charges them together and builds each 2-functor when
it is first read.

raw_functors builds a Functor per hom functor and derives every image
through the target's identity and compose tables; the library keeps the
hom functors as plain tables and, into a thin target, reads each image
off its ends.

raw_fold_hom_maps derives a segment 2-functor's tables from per-cell
decomposition tables, folding the images of each cell's pieces in the
segment homs by hc1 or hc2; raw_theta2_decomposition and
raw_suspension_decomposition give those tables for theta2_object and
suspend_category.  The library derives each hom(a_i, a_j) from
hom(a_i, a_{i+1}) and hom(a_{i+1}, a_j) through the horizontal tables.

raw_vertical_segal and raw_vertical_completeness write the vertical
Segal and completeness maps out cell by cell, with raw_collapse_functor
and raw_identity_presentation_map as helpers; the library builds each
vertical map as the suspension V[1] of its horizontal one
(theta._suspend), and the horizontal maps write their collapse and
identity functors inline.

raw_validate_2cat and raw_validate_two_functor check each law with a loop
of their own and can raise on a table they have flagged; the library
checks every functor law through validate_functor and reports instead.

raw_simplicial_identity_failures checks d_i d_j = d_{j-1} d_i on every
generator through the recursive MarkedSSet.face, twice per pair i < j;
validate_msset reads the faces of faces a dimension at a time through
_face_layer, once per distinct face.

product_map and msset_dumps are helpers only the tests call, kept here
so that the library does not compile them on every import: the map f x g
of products, and the msset/1 document as indented, key-sorted JSON.
"""

import collections
import functools
import itertools
import json
import operator
from array import array

from theta2kit import nerves
from theta2kit.msset import (
    MarkedSSet, MSSetMap, Report, _check_int, _face_layer, _Guard, _product_assignment,
    _top_dim, _UnionFind, degenerate, msset_to_json, product, product_with_index)
from theta2kit.nerves import (
    _getter, _pairs, _pidx, _Tables, _tidx, _triples, compatible_boundaries)
from theta2kit.theta import (
    BoxCell, PresentationMap, Theta2Presentation, _monotone_maps, representable)
from theta2kit.twocat import (
    Functor, Theta2Shape, TwoFunctor, _functors, _generating_homs, _horizontal_failures,
    _poset, enumerate_functors, enumerate_two_functors, shape_functor,
    theta2_object, validate_category)


def _choices(lists, guard):
    """Each tuple with one item from each of lists, in lexicographic
    order, charging one guard step per item tried at each depth, as a
    depth-first search over the lists would."""
    if not lists:
        yield ()
        return
    picked = [-1] * len(lists)
    k = 0
    while k >= 0:
        picked[k] += 1
        if picked[k] == len(lists[k]):
            picked[k] = -1
            k -= 1
        else:
            guard.step()
            if k + 1 < len(lists):
                k += 1
            else:
                yield tuple(items[t] for items, t in zip(lists, picked))


def from_raw(bound, by_dim, face_fn, deg_fn, marked_fn, key_fn):
    """Build a MarkedSSet from a raw dimensionwise presentation.

    by_dim lists every simplex (degenerate ones included) per dimension;
    face_fn/deg_fn are the raw simplicial operators.  Returns the marked
    simplicial set together with the raw -> reference index.
    """
    normal = {}
    gens = {}
    faces = {}
    marked = set()
    seen_ids = set()
    for n in range(bound + 1):
        gens[n] = []
        for x in by_dim.get(n, ()):
            if x in normal:
                continue
            hit = None
            for i in range(n):
                y = face_fn(x, n, i + 1)
                if deg_fn(y, n - 1, i) == x:
                    hit = (i, y)
                    break
            if hit is not None:
                i, y = hit
                normal[x] = degenerate(normal[y], i)
            else:
                gid = key_fn(x, n)
                if gid in seen_ids:
                    raise ValueError(f"duplicate generator id {gid}")
                seen_ids.add(gid)
                gens[n].append(gid)
                if n >= 1:
                    faces[gid] = tuple(
                        normal[face_fn(x, n, i)] for i in range(n + 1)
                    )
                    if marked_fn(x, n):
                        marked.add(gid)
                normal[x] = (gid, ())
        gens[n] = tuple(sorted(gens[n]))
    X = MarkedSSet(bound, gens, faces, frozenset(marked))
    return X, normal


def raw_product_with_index(X: MarkedSSet, Y: MarkedSSet):
    """X x Y through from_raw over every pair of n-simplices; returns the
    product and its pair -> reference index over all those pairs."""
    bound = min(X.bound, Y.bound)
    by_dim = {
        n: [
            (rx, ry)
            for rx in X.all_simplices(n)
            for ry in Y.all_simplices(n)
        ]
        for n in range(bound + 1)
    }

    def face_fn(pair, n, i):
        return (X.face(pair[0], i), Y.face(pair[1], i))

    def deg_fn(pair, n, i):
        return (degenerate(pair[0], i), degenerate(pair[1], i))

    def marked_fn(pair, n):
        return X.is_marked(pair[0]) and Y.is_marked(pair[1])

    def key_fn(pair, n):
        (gx, wx), (gy, wy) = pair
        wxs = ".".join(map(str, wx))
        wys = ".".join(map(str, wy))
        return f"<{gx}|{wxs}*{gy}|{wys}>"

    return from_raw(bound, by_dim, face_fn, deg_fn, marked_fn, key_fn)


def product_map(f: MSSetMap, g: MSSetMap) -> MSSetMap:
    """The induced map f x g between the products."""
    P, pairs = product_with_index(f.source, g.source)
    return MSSetMap(P, product(f.target, g.target), _product_assignment(pairs, f, g))


def msset_dumps(X: MarkedSSet) -> str:
    return json.dumps(msset_to_json(X), indent=2, sort_keys=True)


def raw_colimit(nodes, arrows, bound=None):
    """The colimit through union-find over every simplex of every node
    and from_raw over the classes; returns the colimit and the legs."""
    if bound is None:
        bound = min(X.bound for X in nodes)
    uf = {n: _UnionFind() for n in range(bound + 1)}
    members = {n: {} for n in range(bound + 1)}
    for n in range(bound + 1):
        for i, X in enumerate(nodes):
            for ref in X.all_simplices(n):
                uf[n].add((i, ref))
        for i, j, f in arrows:
            for ref in nodes[i].all_simplices(n):
                img = (j, f.apply(ref))
                uf[n].add(img)
                uf[n].union((i, ref), img)
        for elt in uf[n].parent:
            members[n].setdefault(uf[n].find(elt), []).append(elt)

    def elt_key(elt):
        i, (g, w) = elt
        return f"{i}#{g}#{'.'.join(map(str, w))}"

    canon = {}
    by_dim = {}
    for n in range(bound + 1):
        classes = []
        for root, elts in members[n].items():
            cls = min(elt_key(e) for e in elts)
            for e in elts:
                canon[(n, e)] = cls
            classes.append(cls)
        by_dim[n] = sorted(classes)
    reps = {}
    for n in range(bound + 1):
        for root, elts in members[n].items():
            cls = canon[(n, elts[0])]
            reps[(n, cls)] = elts[0]

    def face_fn(cls, n, i):
        j, ref = reps[(n, cls)]
        return canon[(n - 1, (j, nodes[j].face(ref, i)))]

    def deg_fn(cls, n, i):
        j, ref = reps[(n, cls)]
        return canon[(n + 1, (j, degenerate(ref, i)))]

    def marked_fn(cls, n):
        j, ref = reps[(n, cls)]
        root = uf[n].find((j, ref))
        return any(nodes[i].is_marked(r) for i, r in members[n][root])

    def key_fn(cls, n):
        return cls

    colim, normal = from_raw(bound, by_dim, face_fn, deg_fn, marked_fn, key_fn)
    legs = []
    for i, X in enumerate(nodes):
        assignment = {}
        for n in range(bound + 1):
            for g in X.gens_at(n):
                assignment[g] = normal[canon[(n, (i, (g, ())))]]
        legs.append(MSSetMap(X, colim, assignment))
    return colim, legs


def face_tuples(X: MarkedSSet, cells, n):
    """The n+1 faces of each given n-simplex, each degenerate simplex's
    computed one by one through the recursive MarkedSSet.face."""
    return [
        X.faces[g] if not w else tuple(X.face((g, w), i) for i in range(n + 1))
        for g, w in cells
    ]


# ---------------------------------------------------------------------------
# raw nerves


@functools.lru_cache(maxsize=None)
def face_getters(n, i):
    """Getters taking the vertices, edges and triangles of a raw
    n-simplex to those of its face d_i."""
    keep = [a for a in range(n + 1) if a != i]
    pidx, tidx = _pidx(n), _tidx(n)
    return (
        _getter(keep),
        _getter([pidx[(keep[a], keep[b])] for a, b in _pairs(n - 1)]),
        _getter([tidx[(keep[a], keep[b], keep[c])] for a, b, c in _triples(n - 1)]),
    )


class RawOps:
    """The generic simplicial operators on raw nerve simplices of D, for
    from_raw: the oracle of nerves._build."""

    def __init__(self, D):
        self.D = D

    def _identity_two(self, x, y, f):
        return self.D.hom_at(x, y).identity[f]

    def face(self, raw, n, i):
        verts, edges, tris = raw
        keep = [a for a in range(n + 1) if a != i]
        nverts = tuple(verts[a] for a in keep)
        pidx = _pidx(n)
        tidx = _tidx(n)
        nedges = tuple(
            edges[pidx[(keep[a], keep[b])]] for a, b in _pairs(n - 1)
        )
        ntris = tuple(
            tris[tidx[(keep[a], keep[b], keep[c])]]
            for a, b, c in _triples(n - 1)
        )
        return (nverts, nedges, ntris)

    def degenerate(self, raw, n, p):
        verts, edges, tris = raw
        sig = tuple(a if a <= p else a - 1 for a in range(n + 2))
        nverts = tuple(verts[s] for s in sig)
        pidx = _pidx(n)
        tidx = _tidx(n)
        nedges = []
        for a, b in _pairs(n + 1):
            sa, sb = sig[a], sig[b]
            if sa == sb:
                nedges.append(self.D.unit1[verts[sa]])
            else:
                nedges.append(edges[pidx[(sa, sb)]])
        ntris = []
        for a, b, c in _triples(n + 1):
            sa, sb, sc = sig[a], sig[b], sig[c]
            if sa < sb < sc:
                ntris.append(tris[tidx[(sa, sb, sc)]])
            else:
                # a collapsed edge: the triangle is the identity 2-cell
                # on its long edge
                if sa == sb:
                    f = edges[pidx[(sb, sc)]] if sb != sc else self.D.unit1[verts[sa]]
                else:
                    f = edges[pidx[(sa, sb)]]
                ntris.append(self._identity_two(nverts[a], nverts[c], f))
        return (nverts, tuple(nedges), tuple(ntris))


@functools.lru_cache(maxsize=64)
def raw_nerve_normal(D, variant="rs", bound=4):
    """from_raw over the raw nerve of D (raw_nerve) with the operators of
    RawOps: the nerve and its raw -> reference normal map."""
    ops = RawOps(D)
    return from_raw(bound, raw_nerve(D, bound)[0], ops.face, ops.degenerate,
                    nerves._marking(D, variant), nerves._key_fn)


def raw_apply(F, raw):
    """F on a raw simplex, one cell at a time through F.obj, F.one, F.two."""
    verts, edges, tris = raw
    n = len(verts) - 1
    return (
        tuple(F.obj(x) for x in verts),
        tuple(F.one(verts[i], verts[j], f) for (i, j), f in zip(_pairs(n), edges)),
        tuple(F.two(verts[i], verts[k], m) for (i, _, k), m in zip(_triples(n), tris)),
    )


def raw_nerve_assignment(F, variant="rs", bound=4):
    """The map F induces on nerves, between the nerves from_raw builds
    (raw_nerve_normal), read off their raw -> reference normal maps: each
    generator's raw simplex x goes to the normal reference of F(x)."""
    X, xnormal = raw_nerve_normal(F.source, variant, bound)
    Y, ynormal = raw_nerve_normal(F.target, variant, bound)
    return MSSetMap(X, Y, {
        g: ynormal[raw_apply(F, x)] for x, (g, w) in xnormal.items() if not w
    })


def raw_face_index(by_dim):
    """The faces of each raw simplex as indices into the layer below, laid
    out as nerves._raw_nerve lays them out, read through face_getters and
    looked up by value."""
    faces = {0: array("I", [0] * len(by_dim[0]))}
    for n in range(1, len(by_dim)):
        at = {x: t for t, x in enumerate(by_dim[n - 1])}
        getters = [face_getters(n, i) for i in range(n + 1)]
        faces[n] = array("I", [
            at[(fv(v), fe(e), ft(t))]
            for v, e, t in by_dim[n] for fv, fe, ft in getters
        ])
    return faces


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
    surviving the first k triangles.
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


def raw_nerve(D, bound, checked=()):
    """Every raw simplex of D per dimension, each base extended by the
    search over all its new edge positions, and the guard steps that
    search takes per dimension.  The homs in `checked` take the checked
    search even where they are thin."""
    tabs = _Tables(D)
    for k in checked:
        tabs.thin[k] = False
    by_dim = {0: [((x,), (), ()) for x in tabs.objects]}
    steps = {}
    for n in range(1, bound + 1):
        count = [0]

        def step(k):
            count[0] += k

        by_dim[n] = [x for base in by_dim[n - 1] for x in _extend(tabs, base, n, step)]
        steps[n] = count[0]
    return by_dim, steps


def full_raw_nerve(D, bound, limit=5_000_000):
    """Every raw simplex of D per dimension, the top one included, the
    faces of each as indices into the layer below, n+1 per n-simplex in
    turn, and the degeneracy mask of each: nerves._raw_nerve with every
    layer held, the top one built in full.  The guard, the tables and the
    extension are looked up in nerves at call time, so that a test may
    patch them."""
    guard = nerves._Guard(limit, "nerve")
    tabs = nerves._Tables(D)
    by_dim = {0: [((x,), (), ()) for x in tabs.objects]}
    faces = {0: array("I", [0] * len(tabs.objects))}
    masks = {0: [0] * len(tabs.objects)}
    runs = {(0, x): (t, t + 1, 0) for t, x in enumerate(tabs.objects)}
    keys = None
    for n in range(1, bound + 1):
        guard.dimension = n
        by_dim[n], faces[n], masks[n], up_runs, up_keys = [], array("I"), [], {}, {}
        for x, F, mask in nerves._extend(tabs, by_dim[n - 1], faces[n - 1], masks[n - 1],
                                         runs, keys, n, guard.step, up_runs, up_keys):
            by_dim[n].append(x)
            faces[n].extend(F)
            masks[n].append(mask)
        runs, keys = up_runs, up_keys
    return by_dim, faces, masks


def oracle_mask(D, x):
    """The degeneracy mask of the raw simplex x of the nerve of D by the
    oracle nerves._degeneracy_test: bit i set iff x = s_i d_{i+1} x."""
    n = len(x[0]) - 1
    unit1, ident = D.unit1, {k: H.identity for k, H in D.hom.items()}
    return sum(1 << i for i in range(n) if nerves._degeneracy_test(n, i)(x, unit1, ident))


def layers(D, by_dim, faces, masks=None):
    """The held layers as nerves._build reads them: per dimension n, each
    raw n-simplex of D with its n+1 face indices and its degeneracy mask,
    from masks or, where masks is None, from `oracle_mask`."""
    if masks is None:
        masks = {n: [oracle_mask(D, x) for x in layer] for n, layer in by_dim.items()}
    return (zip(by_dim[n], zip(*[iter(faces[n])] * (n + 1)), masks[n])
            for n in range(len(by_dim)))


# ---------------------------------------------------------------------------
# compatible boundaries


def raw_compatible_boundaries(X: MarkedSSet, n, limit=5_000_000):
    """nerves.compatible_boundaries depth first, with every level indexed
    by face prefix of length k-1, then by face k-1, and a (cell, faces)
    tuple of its own per level.  Same boundaries, order and guard total;
    the guard is charged a pool at a time, so it raises at other steps."""
    _check_int(n, 1, "a boundary dimension")
    if n > X.bound + 1:
        raise ValueError(f"boundaries in dimension {n} exceed bound {X.bound} + 1")
    guard = _Guard(limit, "compatible_boundaries")
    guard.dimension = n
    step = guard.step
    cells = X.all_simplices(n - 1)
    if n == 1:
        step(len(cells) * (1 + len(cells)))
        return list(itertools.product(cells, repeat=2))
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
    step(len(pool))
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


def raw_boundary_columns(X: MarkedSSet, n, limit=5_000_000):
    """nerves._boundary_columns a level at a time from level 1: level j
    extends every prefix (sigma_0, ..., sigma_{j-1}) at once from the pool
    of cells whose first j faces are d_{j-1} sigma_i, i < j, by one `map`,
    and `compress`es the arrays where no prefix has two candidates, else
    gathers them through one array of parent positions.  Same columns,
    order and guard totals per level."""
    _check_int(n, 1, "a boundary dimension")
    if n > X.bound + 1:
        raise ValueError(f"boundaries in dimension {n} exceed bound {X.bound} + 1")
    guard = _Guard(limit, "compatible_boundaries")
    guard.dimension = n
    cells = X.all_simplices(n - 1)
    # a vertex has one face, the empty simplex, so at n = 1 every vertex
    # matches
    ids = {}
    faces = [tuple([ids.setdefault(r, len(ids)) for r in fs])
             for fs in (_face_layer(X, cells, n - 1) if n > 1 else [((),)] * len(cells))]
    # pools[k][fs[:k]]: the positions of the cells whose first k faces are fs[:k]
    pools = [{} for _ in range(n + 1)]
    for c, fs in enumerate(faces):
        for k in range(1, n + 1):
            pools[k].setdefault(fs[:k], []).append(c)
    guard.step(len(cells))
    columns = [array("I", range(len(cells)))]
    for j in range(1, n + 1):
        face = list(map(operator.itemgetter(j - 1), faces)).__getitem__
        found = list(map(pools[j].get, zip(*[map(face, col) for col in columns]),
                         itertools.repeat(())))
        sizes = array("I", map(len, found))
        guard.step(sum(sizes))
        if max(sizes, default=0) > 1:
            parent = array("I", itertools.chain.from_iterable(map(
                itertools.repeat, itertools.compress(range(len(sizes)), sizes),
                itertools.compress(sizes, sizes))))
            columns = [array("I", map(col.__getitem__, parent)) for col in columns]
        else:
            columns = [array("I", itertools.compress(col, sizes)) for col in columns]
        columns.append(array("I", itertools.chain.from_iterable(found)))
    return cells, columns


# ---------------------------------------------------------------------------
# evaluation


def raw_evaluate(W, theta, ell=0, limit=5_000_000):
    """The value of the presented Theta_2-set at (theta, [ell]): the least
    of each class of triples (cell index, functor index, level map),
    quotiented along the diagram arrows, sorted."""
    D = theta2_object(theta)
    per_cell = []
    keyed = []
    for cell in W.cells:
        fs = enumerate_two_functors(D, theta2_object(cell.shape), limit)
        per_cell.append(fs)
        keyed.append({F.key(): t for t, F in enumerate(fs)})
    uf = _UnionFind()
    for i, cell in enumerate(W.cells):
        for t in range(len(per_cell[i])):
            for mu in _monotone_maps(ell, cell.level):
                uf.add((i, t, mu))
    for i, j, G, lam in W.arrows:
        for t, F in enumerate(per_cell[i]):
            img = keyed[j][F.compose(G).key()]
            for mu in _monotone_maps(ell, W.cells[i].level):
                nu = tuple(lam[v] for v in mu)
                uf.add((j, img, nu))
                uf.union((i, t, mu), (j, img, nu))
    classes = {}
    for elt in uf.parent:
        classes.setdefault(uf.find(elt), []).append(elt)
    return sorted(min(elts) for elts in classes.values())


def raw_evaluate_map(P, theta, ell=0, limit=5_000_000):
    """The induced function on evaluations, as a dict on class reps."""
    D = theta2_object(theta)
    src_classes = raw_evaluate(P.source, theta, ell, limit)
    tgt_classes = raw_evaluate(P.target, theta, ell, limit)

    tgt_fs = {}
    tgt_keyed = {}
    for j, cell in enumerate(P.target.cells):
        tgt_fs[j] = enumerate_two_functors(D, theta2_object(cell.shape), limit)
        tgt_keyed[j] = {F.key(): t for t, F in enumerate(tgt_fs[j])}
    uf = _UnionFind()
    for j, cell in enumerate(P.target.cells):
        for t in range(len(tgt_fs[j])):
            for mu in _monotone_maps(ell, cell.level):
                uf.add((j, t, mu))
    for i, j, G, lam in P.target.arrows:
        src_list = enumerate_two_functors(D, theta2_object(P.target.cells[i].shape), limit)
        for t, F in enumerate(src_list):
            img = tgt_keyed[j][F.compose(G).key()]
            for mu in _monotone_maps(ell, P.target.cells[i].level):
                nu = tuple(lam[v] for v in mu)
                uf.add((j, img, nu))
                uf.union((i, t, mu), (j, img, nu))
    classes = {}
    for elt in uf.parent:
        classes.setdefault(uf.find(elt), []).append(elt)
    canon = {}
    for elts in classes.values():
        rep = min(elts)
        for e in elts:
            canon[e] = rep

    src_fs = {}
    for i, cell in enumerate(P.source.cells):
        src_fs[i] = enumerate_two_functors(D, theta2_object(cell.shape), limit)
    out = {}
    for i, t, mu in src_classes:
        j, G, lam = P.cell_map[i]
        img = tgt_keyed[j][src_fs[i][t].compose(G).key()]
        nu = tuple(lam[v] for v in mu)
        out[(i, t, mu)] = canon[(j, img, nu)]
    stray = set(out.values()) - set(tgt_classes)
    if stray:
        raise RuntimeError(
            f"evaluate_map: images outside the target's classes: {sorted(stray)[:3]}"
        )
    return out


# ---------------------------------------------------------------------------
# elementary acyclic cofibrations


def raw_collapse_functor(src):
    """The unique functor to the point shape."""
    point = Theta2Shape(0, ())
    return shape_functor(
        src, point, [0] * (src.m + 1), [[()] * (k + 1) for k in src.ks]
    )


def raw_identity_presentation_map(shape):
    W = representable(shape)
    F = shape_functor(
        shape,
        shape,
        list(range(shape.m + 1)),
        [[(a,) for a in range(k + 1)] for k in shape.ks],
    )
    return PresentationMap(W, W, ((0, F, (0,)),))


def raw_vertical_segal(k):
    """Spine of k vertically stacked 2-cells into Theta2[1|k]."""
    if k < 0:
        raise ValueError("k must be nonnegative")
    if k == 0:
        return raw_identity_presentation_map(Theta2Shape(1, (0,)))
    one_one = Theta2Shape(1, (1,))
    one_zero = Theta2Shape(1, (0,))
    target_shape = Theta2Shape(1, (k,))
    # cells: k copies of [1|1] glued along k-1 copies of [1|0]
    cells = [BoxCell(one_one) for _ in range(k)]
    cells += [BoxCell(one_zero) for _ in range(k - 1)]
    arrows = []
    for t in range(k - 1):
        glue = k + t
        # the shared 1-cell is the top of copy t and the bottom of copy t+1
        arrows.append((glue, t, shape_functor(one_zero, one_one, [0, 1], [[(1,)]]), (0,)))
        arrows.append((glue, t + 1, shape_functor(one_zero, one_one, [0, 1], [[(0,)]]), (0,)))
    source = Theta2Presentation(tuple(cells), tuple(arrows))
    target = representable(target_shape)
    cell_map = []
    for t in range(k):
        cell_map.append(
            (0, shape_functor(one_one, target_shape, [0, 1], [[(t,), (t + 1,)]]), (0,))
        )
    for t in range(k - 1):
        cell_map.append(
            (0, shape_functor(one_zero, target_shape, [0, 1], [[(t + 1,)]]), (0,))
        )
    return PresentationMap(source, target, tuple(cell_map))


def raw_vertical_completeness():
    """Theta2[1|0] into the 02/13 quotient of Theta2[1|3]."""
    edge = Theta2Shape(1, (0,))
    cone = Theta2Shape(1, (1,))
    three = Theta2Shape(1, (3,))
    leg02 = shape_functor(cone, three, [0, 1], [[(0,), (2,)]])
    leg13 = shape_functor(cone, three, [0, 1], [[(1,), (3,)]])
    collapse = shape_functor(cone, edge, [0, 1], [[(0,), (0,)]])
    cells = (
        BoxCell(edge),
        BoxCell(three),
        BoxCell(edge),
        BoxCell(cone),
        BoxCell(cone),
    )
    arrows = (
        (3, 0, collapse, (0,)),
        (3, 1, leg02, (0,)),
        (4, 1, leg13, (0,)),
        (4, 2, collapse, (0,)),
    )
    target = Theta2Presentation(cells, arrows)
    source = representable(edge)
    inclusion = shape_functor(edge, edge, [0, 1], [[(0,)]])
    return PresentationMap(source, target, ((0, inclusion, (0,)),))


# ---------------------------------------------------------------------------
# map search


def _candidates(Y, n, expected_faces, need_marked, guard):
    out = []
    for ref in Y.all_simplices(n):
        guard.step()
        if need_marked and not Y.is_marked(ref):
            continue
        if expected_faces is not None:
            if any(Y.face(ref, i) != expected_faces[i] for i in range(n + 1)):
                continue
        out.append(ref)
    return sorted(out)


def raw_enumerate_maps(X: MarkedSSet, Y: MarkedSSet, limit=2_000_000):
    """All marking-preserving maps X -> Y, canonically ordered."""
    if _top_dim(X) > Y.bound:
        raise ValueError("X has generators above the bound of Y")
    guard = _Guard(limit, "enumerate_maps")
    order = [(n, g) for n in sorted(X.gens) for g in X.gens_at(n)]
    results = []
    assignment = {}

    def extend(k):
        if k == len(order):
            results.append(MSSetMap(X, Y, dict(assignment)))
            return
        n, g = order[k]
        if n == 0:
            expected = None
        else:
            expected = [
                MSSetMap(X, Y, assignment).apply(X.face((g, ()), i))
                for i in range(n + 1)
            ]
        for ref in _candidates(Y, n, expected, g in X.marked, guard):
            assignment[g] = ref
            extend(k + 1)
            del assignment[g]

    extend(0)
    return results


def raw_map_by_vertices(X: MarkedSSet, Y: MarkedSSet, vertex_images):
    """Extend a vertex assignment to the unique compatible map X -> Y.

    Raises if some generator has no candidate or more than one.
    """
    assignment = {v: (vertex_images[v], ()) for v in X.gens_at(0)}
    guard = _Guard(2_000_000, "map_by_vertices")
    for n in sorted(X.gens):
        if n == 0:
            continue
        for g in X.gens_at(n):
            partial = MSSetMap(X, Y, assignment)
            expected = [partial.apply(X.face((g, ()), i)) for i in range(n + 1)]
            cands = _candidates(Y, n, expected, g in X.marked, guard)
            if len(cands) != 1:
                raise ValueError(
                    f"{g}: expected a unique extension, found {len(cands)}"
                )
            assignment[g] = cands[0]
    return MSSetMap(X, Y, assignment)


def raw_filler_counts(X: MarkedSSet, n, limit=5_000_000):
    """nerves.filler_counts through a Counter over the faces of every
    n-simplex of X."""
    index = collections.Counter(_face_layer(X, X.all_simplices(n), n))
    return [(b, index.get(b, 0)) for b in compatible_boundaries(X, n, limit)]


def raw_filler_counts_by_face(X: MarkedSSet, n: int, limit=5_000_000):
    """nerves.filler_counts with each candidate s_j b[j] checked by
    computing all of its faces."""
    _check_int(n, 1, "a filler dimension")
    if n > X.bound:
        raise ValueError(f"fillers in dimension {n} exceed bound {X.bound}")
    boundaries = compatible_boundaries(X, n, limit)
    fillers = collections.Counter(X.faces[g] for g in X.gens_at(n))
    return [
        (b, fillers[b] + sum(
            all(X.face(x, i) == f for i, f in enumerate(b))
            for x in {degenerate(b[j], j) for j in range(n) if b[j] == b[j + 1]}))
        for b in boundaries
    ]


def raw_is_mono(f: MSSetMap) -> bool:
    """msset.is_mono by applying f to every simplex, degenerate ones
    included, of each dimension up to the common bound."""
    bound = min(f.source.bound, f.target.bound)
    for n in range(bound + 1):
        refs = f.source.all_simplices(n)
        if len({f.apply(r) for r in refs}) != len(refs):
            return False
    return True


# ---------------------------------------------------------------------------
# 2-functor enumeration


def raw_atoms(C):
    """Non-identity morphisms admitting no nontrivial factorization."""
    nonid = [f for f in C.morphisms if not C.is_identity(f)]
    atoms = []
    for f in nonid:
        decomposable = any(
            C.compose.get((g, h)) == f
            for g in nonid
            for h in nonid
            if C.tgt(g) == C.src(h)
        )
        if not decomposable:
            atoms.append(f)
    return sorted(atoms)


def raw_factorizations(C, atoms):
    """For each non-identity morphism, one splitting (atom, remainder)."""
    factor = {}
    pending = [f for f in C.morphisms if not C.is_identity(f) and f not in atoms]
    progress = True
    while pending and progress:
        progress = False
        for f in list(pending):
            for g in atoms:
                if C.src(g) != C.src(f):
                    continue
                for h in C.morphisms:
                    if C.compose.get((g, h)) == f and (
                        h in atoms or C.is_identity(h) or h in factor
                    ):
                        factor[f] = (g, h)
                        pending.remove(f)
                        progress = True
                        break
                if f in factor:
                    break
    if pending:
        raise ValueError(f"morphisms without atomic factorization: {pending}")
    return factor


def raw_plan(C):
    """FinCategory.plan by the atoms alone, for a C whose every morphism
    is a composite of atoms (ValueError otherwise).

    Returns (objs, atoms, atom_ends, identities, composites, relations):
    C's sorted objects, its atoms and their ends, (identity, object) per
    object, the composites (f, g, h) with f = g;h in the order in which a
    recursive evaluation over C.morphisms would first reach them, each
    after its factors, and every relation (f, g, f;g) of C.
    """
    atoms = raw_atoms(C)
    factor = raw_factorizations(C, atoms)
    composites = []
    seen = {C.identity[x] for x in C.objects} | set(atoms)
    for root in C.morphisms:
        # post-order walk of root's factorization tree on an explicit stack
        stack = [root]
        while stack:
            f = stack[-1]
            if f in seen:
                stack.pop()
                continue
            g, h = factor[f]
            todo = [e for e in (h, g) if e not in seen]
            if todo:
                stack += todo
                continue
            stack.pop()
            seen.add(f)
            composites.append((f, g, h))
    identities = [(C.identity[x], x) for x in C.objects]
    relations = [
        (f, g, C.then(f, g))
        for f in C.morphisms
        for g in C.morphisms
        if C.tgt(f) == C.src(g)
    ]
    atom_ends = [C.morphisms[f] for f in atoms]
    return sorted(C.objects), atoms, atom_ends, identities, composites, relations


def raw_chain_count(C, j):
    """The composable j-chains of C, counted by the number of chains of
    each length that end at each object, kept nowhere."""
    if j == 0:
        return len(C.objects)
    weights = {f: 1 for f in C.morphisms}
    for _ in range(j - 1):
        ending = {}
        for f, (_, b) in C.morphisms.items():
            ending[b] = ending.get(b, 0) + weights[f]
        weights = {g: ending.get(a, 0) for g, (a, _) in C.morphisms.items()}
    return sum(weights.values())


def raw_object_maps(objs, ends, targets, nonempty, guard):
    """Every map of objs into targets under which each pair (a, b) in ends
    lands on a nonempty hom, in lexicographic order, found depth first
    with backward rules: objs[k]'s candidates are the bits of base[k] (bit
    t for targets[t]) that each masks[image of objs[other]] of (other,
    masks) in rules[k] keeps, read when objs[k] is reached.  The guard is
    charged len(targets) in one step per search node."""
    if not objs:
        return [()]
    pos = {y: t for t, y in enumerate(targets)}
    up, down = [0] * len(targets), [0] * len(targets)
    loops = 0
    for a, b in nonempty:
        up[pos[a]] |= 1 << pos[b]
        down[pos[b]] |= 1 << pos[a]
        if a == b:
            loops |= 1 << pos[a]
    index = {x: k for k, x in enumerate(objs)}
    base = [(1 << len(targets)) - 1] * len(objs)
    rules = [[] for _ in objs]
    for a, b in ends:
        ka, kb = index[a], index[b]
        if ka == kb:
            base[ka] &= loops
        elif ka < kb:
            rules[kb].append((ka, up))
        else:
            rules[ka].append((kb, down))
    images = [0] * len(objs)
    out = []

    def allowed(k):
        guard.step(len(targets))
        mask = base[k]
        for other, masks in rules[k]:
            mask &= masks[images[other]]
        return mask

    pending = [allowed(0)] + [0] * (len(objs) - 1)
    k = 0
    while k >= 0:
        mask = pending[k]
        if not mask:
            k -= 1
            continue
        low = mask & -mask
        pending[k] = mask ^ low
        images[k] = low.bit_length() - 1
        if k + 1 == len(objs):
            out.append(tuple(targets[t] for t in images))
        else:
            k += 1
            pending[k] = allowed(k)
    return out


def raw_functors(C, plan, D, guard):
    """twocat._functors as Functor objects, with C's `raw_plan` given and
    every image derived from D's identity and compose tables: into a thin
    D each atom's image is read off in one guard step of len(atoms) and
    the relations go unchecked; otherwise the atoms are tried one by one
    and every relation f;g = h of C is checked."""
    if not C.objects:
        return [Functor(C, D, {}, {})]
    if not D.objects and C.objects:
        return []
    objs, atoms, atom_ends, identities, composites, relations = plan
    homs = {}
    for f in sorted(D.morphisms):
        homs.setdefault(D.morphisms[f], []).append(f)
    thin = all(len(fs) == 1 for fs in homs.values())
    if thin:
        relations = []
    results = []

    def derive(obj_map, atom_map):
        mor_map = {}
        for i, x in identities:
            mor_map[i] = D.identity[obj_map[x]]
        for f in atoms:
            mor_map[f] = atom_map[f]
        for f, g, h in composites:
            mor_map[f] = D.compose[(mor_map[g], mor_map[h])]
        for f, g, h in relations:
            if mor_map[h] != D.compose[(mor_map[f], mor_map[g])]:
                return None
        return mor_map

    for images in raw_object_maps(objs, atom_ends, sorted(D.objects), homs, guard):
        obj_map = dict(zip(objs, images))
        if thin:
            guard.step(len(atoms))
            atom_map = {
                f: homs[(obj_map[a], obj_map[b])][0]
                for f, (a, b) in zip(atoms, atom_ends)
            }
            results.append(Functor(C, D, obj_map, derive(obj_map, atom_map)))
            continue
        lists = [homs[(obj_map[a], obj_map[b])] for a, b in atom_ends]
        for combo in _choices(lists, guard):
            mor_map = derive(obj_map, dict(zip(atoms, combo)))
            if mor_map is not None:
                results.append(Functor(C, D, dict(obj_map), mor_map))
    return results


def raw_enumerate_full(D, E, guard):
    """The 2-functors D -> E over every tuple of object images and every
    combination of hom functors, each enumerated again per object tuple
    and kept if it preserves units, hc1 and hc2."""
    objs = sorted(D.objects)
    eobjs = sorted(E.objects)
    pairs = sorted(D.hom)
    results = []

    def check(on_objects, maps):
        for x in D.objects:
            om, _ = maps[(x, x)]
            if om[D.unit1[x]] != E.unit1[on_objects[x]]:
                return False
        for x in D.objects:
            for y in D.objects:
                for z in D.objects:
                    if (x, y) not in maps or (y, z) not in maps:
                        continue
                    fx, fy, fz = on_objects[x], on_objects[y], on_objects[z]
                    om1, mm1 = maps[(x, y)]
                    om2, mm2 = maps[(y, z)]
                    om3, mm3 = maps[(x, z)]
                    for f in D.hom_at(x, y).objects:
                        for g in D.hom_at(y, z).objects:
                            guard.step()
                            if om3[D.hc1(x, y, z, f, g)] != E.hc1(
                                fx, fy, fz, om1[f], om2[g]
                            ):
                                return False
                    for a in D.hom_at(x, y).morphisms:
                        for b in D.hom_at(y, z).morphisms:
                            guard.step()
                            if mm3[D.hc2(x, y, z, a, b)] != E.hc2(
                                fx, fy, fz, mm1[a], mm2[b]
                            ):
                                return False
        return True

    for images in itertools.product(eobjs, repeat=len(objs)):
        guard.step()
        on_objects = dict(zip(objs, images))
        choice_lists = []
        feasible = True
        for pair in pairs:
            He = E.hom_at(on_objects[pair[0]], on_objects[pair[1]])
            if He is None:
                feasible = False
                break
            fns = enumerate_functors(D.hom[pair], He, guard.limit)
            if not fns:
                feasible = False
                break
            choice_lists.append(fns)
        if not feasible:
            continue
        for combo in itertools.product(*choice_lists):
            guard.step()
            maps = {
                pair: (fn.obj_map, fn.mor_map) for pair, fn in zip(pairs, combo)
            }
            if check(on_objects, maps):
                results.append(TwoFunctor(D, E, dict(on_objects), dict(maps)))
    return results


def raw_enumerate_two_functors(D, E, guard):
    """The list of 2-functors D -> E in enumerate_two_functors' order,
    with one TwoFunctor built, and one guard step charged, per combination
    of generating hom functors."""
    free = D.segments is not None
    gens = _generating_homs(D)
    objs = sorted(D.objects)
    gen_homs = [D.hom_at(*pair) for pair in gens]
    gen_tables = {}
    results = []
    for images in raw_object_maps(objs, gens, sorted(E.objects), E.hom, guard):
        on_objects = dict(zip(objs, images))
        choice_lists = []
        for (a, b), H in zip(gens, gen_homs):
            He = E.hom[(on_objects[a], on_objects[b])]
            key = (id(H), id(He))
            fns = gen_tables.get(key)
            if fns is None:
                fns = gen_tables[key] = _functors(H, He, guard)
            guard.step(len(fns))
            if not fns:
                break
            choice_lists.append(fns)
        else:
            for combo in itertools.product(*choice_lists):
                guard.step()
                tables = dict(zip(gens, combo))
                if free or next(
                    _horizontal_failures(D, E, on_objects, tables, guard.step), None
                ) is None:
                    results.append(TwoFunctor(D, E, on_objects, tables))
    return results


# ---------------------------------------------------------------------------
# segment 2-functor tables


def _decomposition(built, ks, segments, level, hom):
    """The decomposition entries of hom = (i, j): each 1-cell (level 1)
    or 2-cell (level 2) by its pieces in the segment homs (t, t + 1),
    i <= t < j, whose cell (v,) has index v."""
    i, j = hom
    cells, names, mids, _ = built[ks[i:j]]
    segs = [(segments[t], built[ks[t:t + 1]]) for t in range(i, j)]
    if level == 1:
        return {
            name: tuple((seg, p[1][v]) for v, (seg, p) in zip(a, segs))
            for a, name in zip(cells, names)
        }
    return {
        f: tuple((seg, p[2][v][w]) for v, w, (seg, p) in zip(a, cells[y], segs))
        for a, row in zip(cells, mids)
        for y, f in row.items()
    }


def raw_theta2_decomposition(shape):
    """theta2_object(shape)'s decomposition tables (one, two): (x, y,
    1-cell) and (x, y, 2-cell) -> ((segment, cell), ...)."""
    m, ks = shape.m, shape.ks
    objects = tuple(str(i) for i in range(m + 1))
    segments = tuple(zip(objects, objects[1:]))
    built = {ks[i:j]: _poset(ks[i:j]) for i in range(m + 1) for j in range(i, m + 1)}
    one, two = {}, {}
    for i in range(m + 1):
        for j in range(i, m + 1):
            for level, table in ((1, one), (2, two)):
                pieces = _decomposition(built, ks, segments, level, (i, j))
                for c, p in pieces.items():
                    table[(objects[i], objects[j], c)] = p
    return one, two


def raw_suspension_decomposition(C):
    """suspend_category(C)'s decomposition tables, as for theta2_object:
    the units have no pieces, and each cell of C is its own one piece."""
    one = {("bot", "bot", "*"): (), ("top", "top", "*"): ()}
    two = {("bot", "bot", "id"): (), ("top", "top", "id"): ()}
    for f in C.objects:
        one[("bot", "top", f)] = ((("bot", "top"), f),)
    for m in C.morphisms:
        two[("bot", "top", m)] = ((("bot", "top"), m),)
    return one, two


def raw_fold_hom_maps(F, one_decomp, two_decomp):
    """The hom tables of the segment 2-functor F, each cell's image folded
    from its pieces in one_decomp / two_decomp."""
    D = F.source
    return {
        (x, y): (
            {f: _fold_one(F, one_decomp[(x, y, f)], x) for f in H.objects},
            {m: _fold_two(F, two_decomp[(x, y, m)], x) for m in H.morphisms},
        )
        for (x, y), H in D.hom.items()
    }


def _fold_one(F, pieces, x):
    """The image of a 1-cell out of x: its pieces' images under the
    segment functors, composed by hc1 (the unit of x if none)."""
    E, fx = F.target, F.obj(x)
    cur = None
    for (a, b), atom in pieces:
        g = F.tables[(a, b)][0][atom]
        cur = g if cur is None else E.hc1(fx, F.obj(a), F.obj(b), cur, g)
    return E.unit1[fx] if cur is None else cur


def _fold_two(F, pieces, x):
    """The image of a 2-cell out of x, as `_fold_one`, composed by hc2."""
    E, fx = F.target, F.obj(x)
    cur = None
    for (a, b), atom in pieces:
        g = F.tables[(a, b)][1][atom]
        cur = g if cur is None else E.hc2(fx, F.obj(a), F.obj(b), cur, g)
    return E.hom_at(fx, fx).identity[E.unit1[fx]] if cur is None else cur


# ---------------------------------------------------------------------------
# validators


def raw_validate_2cat(D):
    """validate_2cat as it was before it checked each horizontal composition
    through validate_functor: it reads tables it has flagged, so a missing
    entry can raise KeyError, and it checks the unit and associativity
    laws on 1-cells only."""
    problems = []
    for (x, y), H in D.hom.items():
        sub = validate_category(H)
        for v in sub.violations:
            problems.append(f"hom({x},{y}): {v}")
    for x in D.objects:
        H = D.hom_at(x, x)
        if H is None or D.unit1.get(x) not in H.objects:
            problems.append(f"{x}: missing unit 1-cell")
    # horizontal composition: totality, functoriality, units, associativity
    for x in D.objects:
        for y in D.objects:
            for z in D.objects:
                Hxy, Hyz = D.hom_at(x, y), D.hom_at(y, z)
                if Hxy is None or Hyz is None:
                    continue
                t1 = D.hcompose1.get((x, y, z))
                t2 = D.hcompose2.get((x, y, z))
                Hxz = D.hom_at(x, z)
                if t1 is None or t2 is None or Hxz is None:
                    problems.append(f"hcompose missing at ({x},{y},{z})")
                    continue
                before = len(problems)
                for f in Hxy.objects:
                    for g in Hyz.objects:
                        h = t1.get((f, g))
                        if h is None or h not in Hxz.objects:
                            problems.append(f"hc1 bad on ({x},{y},{z}) ({f},{g})")
                for a in Hxy.morphisms:
                    for b in Hyz.morphisms:
                        c = t2.get((a, b))
                        if c is None or c not in Hxz.morphisms:
                            problems.append(f"hc2 bad on ({x},{y},{z}) ({a},{b})")
                            continue
                        want = (
                            t1[(Hxy.src(a), Hyz.src(b))],
                            t1[(Hxy.tgt(a), Hyz.tgt(b))],
                        )
                        if Hxz.morphisms[c] != want:
                            problems.append(
                                f"hc2 endpoints wrong on ({x},{y},{z}) ({a},{b})"
                            )
                if len(problems) > before:
                    continue
                for f in Hxy.objects:
                    for g in Hyz.objects:
                        if t2[(Hxy.identity[f], Hyz.identity[g])] != Hxz.identity[
                            t1[(f, g)]
                        ]:
                            problems.append(
                                f"hc does not preserve identities at ({f},{g})"
                            )
                # interchange: hc2 preserves vertical composition
                for a in Hxy.morphisms:
                    for a2 in Hxy.morphisms:
                        if Hxy.tgt(a) != Hxy.src(a2):
                            continue
                        for b in Hyz.morphisms:
                            for b2 in Hyz.morphisms:
                                if Hyz.tgt(b) != Hyz.src(b2):
                                    continue
                                lhs = t2[(Hxy.then(a, a2), Hyz.then(b, b2))]
                                rhs = Hxz.then(t2[(a, b)], t2[(a2, b2)])
                                if lhs != rhs:
                                    problems.append(
                                        "interchange fails on "
                                        f"({x},{y},{z}) ({a},{a2},{b},{b2})"
                                    )
    for x in D.objects:
        for y in D.objects:
            Hxy = D.hom_at(x, y)
            if Hxy is None:
                continue
            tl = D.hcompose1.get((x, x, y), {})
            tr = D.hcompose1.get((x, y, y), {})
            for f in Hxy.objects:
                if tl.get((D.unit1[x], f)) != f:
                    problems.append(f"left horizontal unit fails at ({x},{y}) {f}")
                if tr.get((f, D.unit1[y])) != f:
                    problems.append(f"right horizontal unit fails at ({x},{y}) {f}")
    for w in D.objects:
        for x in D.objects:
            for y in D.objects:
                for z in D.objects:
                    if (
                        D.hom_at(w, x) is None
                        or D.hom_at(x, y) is None
                        or D.hom_at(y, z) is None
                    ):
                        continue
                    for f in D.hom_at(w, x).objects:
                        for g in D.hom_at(x, y).objects:
                            for h in D.hom_at(y, z).objects:
                                lhs = D.hc1(w, y, z, D.hc1(w, x, y, f, g), h)
                                rhs = D.hc1(w, x, z, f, D.hc1(x, y, z, g, h))
                                if lhs != rhs:
                                    problems.append(
                                        f"horizontal associativity fails ({f},{g},{h})"
                                    )
    return Report("2-category", problems)


def raw_validate_two_functor(F):
    """validate_two_functor as it was before it checked each hom map through
    validate_functor: an image outside the target hom can raise KeyError."""
    problems = []
    D, E = F.source, F.target
    for x in D.objects:
        if F.obj(x) not in E.objects:
            problems.append(f"{x}: image not an object")
    for (x, y), H in D.hom.items():
        He = E.hom_at(F.obj(x), F.obj(y))
        om, mm = F.hom_maps[(x, y)]
        if He is None:
            problems.append(f"hom({x},{y}): target hom empty")
            continue
        for f in H.objects:
            if om.get(f) not in He.objects:
                problems.append(f"1-cell {f}: bad image")
        for m in H.morphisms:
            img = mm.get(m)
            if img not in He.morphisms:
                problems.append(f"2-cell {m}: bad image")
                continue
            if He.morphisms[img] != (om[H.src(m)], om[H.tgt(m)]):
                problems.append(f"2-cell {m}: image endpoints wrong")
        for f in H.objects:
            if mm[H.identity[f]] != He.identity[om[f]]:
                problems.append(f"identity 2-cell of {f} not preserved")
        for m in H.morphisms:
            for n in H.morphisms:
                if H.tgt(m) != H.src(n):
                    continue
                if mm[H.then(m, n)] != He.then(mm[m], mm[n]):
                    problems.append(f"vertical composition broken on ({m},{n})")
    for x in D.objects:
        u = D.unit1[x]
        if F.one(x, x, u) != E.unit1[F.obj(x)]:
            problems.append(f"unit 1-cell at {x} not preserved")
    for x in D.objects:
        for y in D.objects:
            for z in D.objects:
                if D.hom_at(x, y) is None or D.hom_at(y, z) is None:
                    continue
                fx, fy, fz = F.obj(x), F.obj(y), F.obj(z)
                for f in D.hom_at(x, y).objects:
                    for g in D.hom_at(y, z).objects:
                        lhs = F.one(x, z, D.hc1(x, y, z, f, g))
                        rhs = E.hc1(fx, fy, fz, F.one(x, y, f), F.one(y, z, g))
                        if lhs != rhs:
                            problems.append(
                                f"horizontal 1-composition broken on ({f},{g})"
                            )
                for a in D.hom_at(x, y).morphisms:
                    for b in D.hom_at(y, z).morphisms:
                        lhs = F.two(x, z, D.hc2(x, y, z, a, b))
                        rhs = E.hc2(fx, fy, fz, F.two(x, y, a), F.two(y, z, b))
                        if lhs != rhs:
                            problems.append(
                                f"horizontal 2-composition broken on ({a},{b})"
                            )
    return Report("2-functor", problems)


def raw_simplicial_identity_failures(X):
    """The last stage of validate_msset as it was: its violations, in its
    order, for an X whose earlier stages pass."""
    problems = []
    for n, ids in X.gens.items():
        for g in ids if n >= 2 else ():
            ref = (g, ())
            for j in range(n + 1):
                for i in range(j):
                    if X.face(X.face(ref, j), i) != X.face(X.face(ref, i), j - 1):
                        problems.append(f"simplicial identity fails: d_{i} d_{j} {g}")
    return problems
