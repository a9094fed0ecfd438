"""The all-simplex constructions the library used to run, kept as oracles.

from_raw normalises every simplex of a raw dimensionwise presentation,
degenerate ones included, to a generator or a degeneracy of one.  The
product and colimit below feed it every pair of simplices and every
simplex of every node; the library builds both on generators only, and
the tests compare the two.
"""

from theta2kit.msset import MarkedSSet, MSSetMap, _UnionFind, degenerate


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
