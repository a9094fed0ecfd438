"""Finitely generated simplicial sets with marking.

Objects are stored by their nondegenerate generators; every other simplex
is a degeneracy word (in normal form) applied to a generator.  All values
are immutable after construction and all operations are pure.

Products and colimits never list degenerate simplices: the generators of
X x Y are the pairs (s_I x, s_J y) with I, J disjoint (Eilenberg-Zilber),
and a colimit runs union-find on the generators of its nodes.  A product
with a point and a colimit with no arrows only rename generators.
"""

from __future__ import annotations

import itertools
import operator

DEFAULT_BOUND = 5
# the default step limits: of nerves, boundary and 2-functor searches, and
# of map and functor searches
DEFAULT_LIMIT = 5_000_000
DEFAULT_MAP_LIMIT = 2_000_000

Word = tuple  # strictly decreasing degeneracy indices
Ref = tuple  # (generator id, Word)


class ResourceLimitError(RuntimeError):
    """Raised when an enumeration would exceed its search-space guard.

    operation names the enumeration, dimension the dimension it was
    working on (None where it has none) and steps the steps it used.
    """

    def __init__(self, message, operation=None, dimension=None, steps=None):
        super().__init__(message)
        self.operation = operation
        self.dimension = dimension
        self.steps = steps


def _param_names(fn) -> tuple:
    """The names of fn's positional parameters, in order."""
    code = fn.__code__
    return code.co_varnames[:code.co_argcount]


class _Record:
    """An immutable record.  Its fields are the parameters of its class's
    `__init__`, which stores them in the instance dict; setting or
    deleting any attribute then raises AttributeError.  Two records are
    equal when they are of one class with equal fields, and `hash` is
    that of the field tuple, a TypeError where a field does not hash;
    `_values` reads that tuple at C speed.  A subclass that defines
    `__eq__` gets no `hash`, as Python gives it none.  `cached_property`
    writes to the instance dict, so it works."""

    def __init_subclass__(cls):
        cls._fields = _param_names(cls.__init__)[1:]
        cls._values = operator.attrgetter(*cls._fields)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._values(self) == self._values(other)
        return NotImplemented

    def __hash__(self):
        return hash(self._values(self))

    def __repr__(self):
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__qualname__}({fields})"


def normal_word(word) -> bool:
    return all(word[t] > word[t + 1] for t in range(len(word) - 1))


def degenerate(ref: Ref, i: int) -> Ref:
    """Apply the degeneracy s_i to a normal-form reference.

    Uses s_i s_j = s_{j+1} s_i (i <= j) to reinsert the new index while
    keeping the word strictly decreasing.
    """
    g, w = ref
    out = []
    idx = 0
    k = i
    while idx < len(w) and k <= w[idx]:
        out.append(w[idx] + 1)
        idx += 1
    out.append(k)
    out.extend(w[idx:])
    return (g, tuple(out))


def valid_words(gen_dim: int, n: int):
    """All normal degeneracy words raising dimension gen_dim to n."""
    p = n - gen_dim
    if p < 0:
        return
    for combo in itertools.combinations(range(n - 1, -1, -1), p):
        yield combo


class MarkedSSet(_Record):
    """A marked simplicial set truncated at a dimension bound.

    gens maps each dimension to a sorted tuple of nondegenerate generator
    ids; faces maps each generator of dimension n >= 1 to its n+1 face
    references; marked holds the marked nondegenerate generators
    (degenerate simplices are marked by convention).  Immutable, equal
    when bound, gens, faces and marked are; `hash` raises TypeError, as
    gens and faces are dicts.
    """

    def __init__(self, bound: int, gens: dict, faces: dict, marked: frozenset):
        dims = {}
        for n, ids in gens.items():
            for g in ids:
                dims[g] = n
        self.__dict__.update(bound=bound, gens=gens, faces=faces, marked=marked, _dim=dims)

    def dim_of(self, ref: Ref) -> int:
        return self._dim[ref[0]] + len(ref[1])

    def gens_at(self, n) -> tuple:
        return self.gens.get(n, ())

    def all_simplices(self, n):
        """All simplices (as refs) in dimension n, degenerate ones included."""
        out = []
        for k in range(n + 1):
            for g in self.gens_at(k):
                for w in valid_words(k, n):
                    out.append((g, w))
        return out

    def face(self, ref: Ref, i: int) -> Ref:
        g, w = ref
        if not w:
            return self.faces[g][i]
        j = w[0]
        sub = (g, w[1:])
        if i == j or i == j + 1:
            return sub
        if i < j:
            return degenerate(self.face(sub, i), j - 1)
        return degenerate(self.face(sub, i - 1), j)

    def is_marked(self, ref: Ref) -> bool:
        g, w = ref
        return bool(w) or g in self.marked

    def counts(self) -> tuple:
        return tuple(len(self.gens_at(n)) for n in range(self.bound + 1))

    def marked_counts(self) -> tuple:
        return tuple(
            sum(1 for g in self.gens_at(n) if g in self.marked)
            for n in range(self.bound + 1)
        )

    def vertices(self) -> tuple:
        return self.gens_at(0)


def _face_layer(X: MarkedSSet, refs, n):
    """The n+1 faces of each n-simplex in refs (n >= 1), in order.

    A degenerate s_j y takes its faces from y's, found for all such y at
    once one dimension down, by d_i s_j = s_{j-1} d_i (i < j),
    d_j s_j = d_{j+1} s_j = 1 and d_i s_j = s_j d_{i-1} (i > j + 1).
    """
    subs = list(dict.fromkeys((g, w[1:]) for g, w in refs if len(w) > 1))
    below = dict(zip(subs, _face_layer(X, subs, n - 1))) if subs else {}
    out = []
    for g, w in refs:
        if not w:
            out.append(X.faces[g])
            continue
        j, sub = w[0], (g, w[1:])
        fs = below[sub] if len(w) > 1 else X.faces.get(g)
        out.append(tuple([
            degenerate(fs[i], j - 1) if i < j
            else sub if i <= j + 1 else degenerate(fs[i - 1], j)
            for i in range(n + 1)
        ]))
    return out


def _non_strings(ids, kind=lambda x: isinstance(x, str) or None):
    """The problem "id ... is not a string" for each distinct id in ids of
    no `kind` (by default, each that is not a str)."""
    return [f"id {r} is not a string" for r in dict.fromkeys(
        repr(x) for x in ids if kind(x) is None)]


def validate_msset(X: MarkedSSet):
    """Exhaustive invariant check; returns a Report with witnesses.  In
    three stages, each run only if the ones before it found nothing: every
    id is a str; generators, faces and marks are well formed; and the
    simplicial identities d_i d_j = d_{j-1} d_i (i < j) hold, the faces
    of faces read a dimension at a time through `_face_layer`."""
    if problems := _non_strings(itertools.chain(
            itertools.chain.from_iterable(X.gens.values()),
            (h for fs in X.faces.values() for h, _ in fs), X.marked)):
        return Report("msset", problems)
    seen = set()
    for n, ids in X.gens.items():
        if n < 0 or n > X.bound:
            problems.append(f"generator dimension {n} outside bound")
        for g in ids:
            if g in seen:
                problems.append(f"generator id {g} listed more than once")
            seen.add(g)
            if n == 0:
                continue
            fs = X.faces.get(g)
            if fs is None or len(fs) != n + 1:
                problems.append(f"{g}: expected {n + 1} faces")
                continue
            for i, (h, w) in enumerate(fs):
                if h not in X._dim:
                    problems.append(f"{g}: face {i} targets unknown generator {h}")
                elif not normal_word(w) or (w and w[0] >= n - 1):
                    problems.append(f"{g}: face {i} word {w} not normal")
                elif X._dim[h] + len(w) != n - 1:
                    problems.append(f"{g}: face {i} has wrong dimension")
    for g in X.faces:
        if not X._dim.get(g):
            problems.append(f"faces listed for {g}, not a generator of dimension >= 1")
    for g in X.marked:
        if g not in X._dim:
            problems.append(f"marked id {g} is not a generator")
        elif X._dim[g] == 0:
            problems.append(f"marked id {g} has dimension 0")
    if problems:
        return Report("msset", problems)
    for n, ids in X.gens.items():
        if n < 2:
            continue
        # the faces of each face, one layer at a time, once per distinct face
        faces = [X.faces[g] for g in ids]
        refs = list(dict.fromkeys(itertools.chain.from_iterable(faces)))
        second = dict(zip(refs, _face_layer(X, refs, n - 1)))
        for g, fs in zip(ids, faces):
            for j in range(n + 1):
                for i in range(j):
                    if second[fs[j]][i] != second[fs[i]][j - 1]:
                        problems.append(f"simplicial identity fails: d_{i} d_{j} {g}")
    return Report("msset", problems)


class Report(_Record):
    """The violations a validator found in its subject.  Immutable, equal
    when subject and violations are; `hash` raises TypeError, as
    violations is a list."""

    def __init__(self, subject: str, violations: list):
        self.__dict__.update(subject=subject, violations=violations)

    @property
    def ok(self) -> bool:
        return not self.violations

    def __str__(self):
        if self.ok:
            return f"{self.subject}: ok"
        lines = "\n  ".join(self.violations)
        return f"{self.subject}: {len(self.violations)} violation(s)\n  {lines}"


class MSSetMap(_Record):
    """Marking-preserving simplicial map, given on nondegenerate generators.
    Immutable; equal when the assignments and the generators of source
    and target are, and `hash` raises TypeError."""

    def __init__(self, source: MarkedSSet, target: MarkedSSet, assignment: dict):
        self.__dict__.update(source=source, target=target, assignment=assignment)

    def apply(self, ref: Ref) -> Ref:
        g, w = ref
        out = self.assignment[g]
        if not out[1]:
            # the degeneracies of a normal word w on a generator make s_w
            return (out[0], w)
        for j in reversed(w):
            out = degenerate(out, j)
        return out

    def compose(self, other: "MSSetMap") -> "MSSetMap":
        """self followed by other."""
        assignment = {g: other.apply(r) for g, r in self.assignment.items()}
        return MSSetMap(self.source, other.target, assignment)

    def __eq__(self, other):
        return (
            isinstance(other, MSSetMap)
            and self.assignment == other.assignment
            and self.source.gens == other.source.gens
            and self.target.gens == other.target.gens
        )


def identity_map(X: MarkedSSet) -> MSSetMap:
    return MSSetMap(X, X, {g: (g, ()) for ids in X.gens.values() for g in ids})


def validate_map(f: MSSetMap):
    problems = []
    X, Y = f.source, f.target
    for n in sorted(X.gens):
        for g in X.gens_at(n):
            if g not in f.assignment:
                problems.append(f"{g}: no assignment")
                continue
            img = f.assignment[g]
            if img[0] not in Y._dim:
                problems.append(f"{g}: image targets unknown generator {img[0]}")
                continue
            if Y.dim_of(img) != n:
                problems.append(f"{g}: image has wrong dimension")
                continue
            for i in range(n + 1) if n >= 1 else ():
                if f.apply(X.face((g, ()), i)) != Y.face(img, i):
                    problems.append(f"{g}: does not commute with d_{i}")
            if g in X.marked and not Y.is_marked(img):
                problems.append(f"{g}: marking dropped")
    return Report("map", problems)


# ---------------------------------------------------------------------------
# standard simplices


def _simplex_key(verts):
    """The id of the simplex of a standard simplex with these vertices.

    Vertices 0..9 are written as digits, so Delta[ell] for ell <= 9 has
    ids such as "013"; a larger vertex v is written "(v)", which keeps
    the ids of every Delta[ell] distinct.
    """
    return "".join(str(v) if v < 10 else f"({v})" for v in verts)


def standard_simplex(ell, variant="flat", horn=None, bound=None):
    """Delta[ell] and friends: flat, sharp, boundary, horn(k), edge_marked, eq3."""
    _check_int(ell, 0, "a simplex dimension")
    if bound is None:
        bound = max(DEFAULT_BOUND, ell)
    _check_int(bound, 0, "a bound")
    if variant == "horn":
        _check_int(horn, 0, "a horn index")
        if horn > ell:
            raise ValueError(f"horn index must satisfy 0 <= k <= {ell}")
    elif horn is not None:
        raise ValueError("horn index only valid for the horn variant")
    if variant == "edge_marked" and ell != 1:
        raise ValueError("edge_marked requires ell = 1")
    if variant == "eq3" and ell != 3:
        raise ValueError("eq3 requires ell = 3")
    if variant not in ("flat", "sharp", "boundary", "horn", "edge_marked", "eq3"):
        raise ValueError(f"unknown variant {variant!r}")

    cells = []
    for n in range(min(ell, bound) + 1):
        for verts in itertools.combinations(range(ell + 1), n + 1):
            if variant == "boundary" and len(verts) == ell + 1:
                continue
            if variant == "horn":
                missing = set(range(ell + 1)) - set(verts)
                if len(verts) == ell + 1 or missing == {horn}:
                    continue
            cells.append(verts)

    gens = {n: () for n in range(bound + 1)}
    grouped = {}
    for verts in cells:
        grouped.setdefault(len(verts) - 1, []).append(verts)
    faces = {}
    marked = set()
    for n, vlist in grouped.items():
        ids = []
        for verts in vlist:
            gid = _simplex_key(verts)
            ids.append(gid)
            if n >= 1:
                faces[gid] = tuple(
                    (_simplex_key(verts[:i] + verts[i + 1 :]), ())
                    for i in range(n + 1)
                )
                if variant == "sharp":
                    marked.add(gid)
                elif variant == "edge_marked" and verts == (0, 1):
                    marked.add(gid)
                elif variant == "eq3":
                    if n >= 2 or verts in ((0, 2), (1, 3)):
                        marked.add(gid)
        gens[n] = tuple(sorted(ids))
    return MarkedSSet(bound, gens, faces, frozenset(marked))


def _simplex_ref(vertex_seq):
    """Reference of the simplex with the given monotone vertex sequence
    inside a standard simplex."""
    word = tuple(p for p in range(len(vertex_seq) - 2, -1, -1)
                 if vertex_seq[p] == vertex_seq[p + 1])
    return (_simplex_key(sorted(set(vertex_seq))), word)


def simplex_map(l_src, l_dst, images, variant="sharp", bound=None) -> MSSetMap:
    """Map of standard simplices induced by monotone vertex images."""
    images = tuple(images)
    if len(images) != l_src + 1:
        raise ValueError(f"simplex_map: expected {l_src + 1} vertex images, got {len(images)}")
    if any(a > b for a, b in zip(images, images[1:])):
        raise ValueError(f"simplex_map: vertex images {images} not monotone")
    if any(not 0 <= v <= l_dst for v in images):
        raise ValueError(f"simplex_map: vertex images {images} outside 0..{l_dst}")
    X = standard_simplex(l_src, variant, bound=bound)
    Y = standard_simplex(l_dst, variant, bound=bound)
    assignment = {}
    for n in sorted(X.gens):
        ids = set(X.gens_at(n))
        for verts in itertools.combinations(range(l_src + 1), n + 1):
            g = _simplex_key(verts)
            if g in ids:
                assignment[g] = _simplex_ref(tuple(images[v] for v in verts))
    return MSSetMap(X, Y, assignment)


def _top_dim(X: MarkedSSet) -> int:
    """The highest dimension with a generator (0 for an empty X)."""
    return max((n for n in X.gens if X.gens_at(n)), default=0)


def rebound(X: MarkedSSet, bound: int) -> MarkedSSet:
    """The same marked simplicial set with a different dimension bound."""
    top = _top_dim(X)
    if top > bound:
        raise ValueError(f"generators in dimension {top} exceed bound {bound}")
    gens = {n: X.gens_at(n) for n in range(bound + 1)}
    return MarkedSSet(bound, gens, X.faces, X.marked)


def empty_msset(bound=DEFAULT_BOUND) -> MarkedSSet:
    _check_int(bound, 0, "a bound")
    return MarkedSSet(bound, {n: () for n in range(bound + 1)}, {}, frozenset())


# ---------------------------------------------------------------------------
# products


def _pair_id(rx, ry):
    (gx, wx), (gy, wy) = rx, ry
    return f"<{gx}|{'.'.join(map(str, wx))}*{gy}|{'.'.join(map(str, wy))}>"


def _pair_ref(rx, ry):
    """The reference in a product of the pair (rx, ry) of n-simplices.

    A simplex is in the image of s_i iff i is in its normal word, so the
    pair is s_K of a generator pair, K the indices both words share.
    """
    common = set(rx[1]).intersection(ry[1])
    if not common:
        return (_pair_id(rx, ry), ())

    def drop(ref):
        g, w = ref
        return (g, tuple(i - sum(k < i for k in common) for i in w if i not in common))

    return (_pair_id(drop(rx), drop(ry)), tuple(sorted(common, reverse=True)))


def product_with_index(X: MarkedSSet, Y: MarkedSSet):
    """X x Y, and a dict from each of its generator ids to its pair.

    The nondegenerate n-simplices are the pairs (s_I x, s_J y) with I
    and J disjoint (Eilenberg-Zilber), listed in all_simplices x
    all_simplices order.  A pair is marked iff both sides are, and its
    faces are the pairs of faces, each through _pair_ref, which also
    gives the reference of any other pair.  Y a point up to the bound
    (one vertex, nothing above it) takes _product_with_point.
    """
    bound = min(X.bound, Y.bound)
    if len(Y.gens_at(0)) == 1 and not any(Y.gens_at(n) for n in range(1, bound + 1)):
        return _product_with_point(X, Y.gens_at(0)[0], bound)
    gens, faces, marked, pairs = {}, {}, set(), {}
    refs = {}  # pair of faces -> its reference
    for n in range(bound + 1):
        y_simplices = Y.all_simplices(n)
        cells = []
        for k in range(n + 1):
            partners = [(w, [ry for ry in y_simplices if set(w).isdisjoint(ry[1])])
                        for w in valid_words(k, n)]
            cells += [((g, w), ry)
                      for g in X.gens_at(k) for w, rys in partners for ry in rys]
        ids = [_pair_id(rx, ry) for rx, ry in cells]
        if len(set(ids)) < len(ids):
            raise ValueError(f"duplicate generator ids in dimension {n}")
        pairs.update(zip(ids, cells))
        gens[n] = tuple(sorted(ids))
        if n == 0:
            continue
        xs = list(dict.fromkeys(rx for rx, _ in cells))
        ys = list(dict.fromkeys(ry for _, ry in cells))
        fx = dict(zip(xs, _face_layer(X, xs, n)))
        fy = dict(zip(ys, _face_layer(Y, ys, n)))
        for gid, (rx, ry) in zip(ids, cells):
            fs = []
            for pair in zip(fx[rx], fy[ry]):
                ref = refs.get(pair)
                if ref is None:
                    ref = refs[pair] = _pair_ref(*pair)
                fs.append(ref)
            faces[gid] = tuple(fs)
            if X.is_marked(rx) and Y.is_marked(ry):
                marked.add(gid)
    return MarkedSSet(bound, gens, faces, frozenset(marked)), pairs


def _product_with_point(X: MarkedSSet, v, bound):
    """product_with_index(X, Y) for Y the point v up to bound: X renamed.

    The only n-simplex of Y is s_{n-1}...s_0 v, so the n-generators are
    its pairs with X's n-generators, and _pair_ref sends the pair of a
    face (h, w) of g to (the id of h, w).
    """
    gens, faces, marked, pairs, name = {}, {}, set(), {}, {}
    refs = {}  # face of an X generator -> its reference
    for n in range(bound + 1):
        ry = (v, tuple(range(n - 1, -1, -1)))
        ids = [_pair_id((g, ()), ry) for g in X.gens_at(n)]
        if len(set(ids)) < len(ids):
            raise ValueError(f"duplicate generator ids in dimension {n}")
        gens[n] = tuple(sorted(ids))
        for g, gid in zip(X.gens_at(n), ids):
            name[g] = gid
            pairs[gid] = ((g, ()), ry)
            if n:
                fs = []
                for r in X.faces[g]:
                    ref = refs.get(r)
                    if ref is None:
                        ref = refs[r] = (name[r[0]], r[1])
                    fs.append(ref)
                faces[gid] = tuple(fs)
                if g in X.marked:
                    marked.add(gid)
    return MarkedSSet(bound, gens, faces, frozenset(marked)), pairs


def product(X: MarkedSSet, Y: MarkedSSet) -> MarkedSSet:
    """Categorical product; marked iff marked in both projections."""
    return product_with_index(X, Y)[0]


def _product_assignment(pairs, f: MSSetMap, g: MSSetMap):
    """The generator assignment of f x g, read off the generator pairs of
    its source product."""
    return {
        gid: _pair_ref(f.apply(rx), g.apply(ry)) for gid, (rx, ry) in pairs.items()
    }


# ---------------------------------------------------------------------------
# colimits


class _UnionFind:
    def __init__(self):
        self.parent = {}

    def add(self, x):
        self.parent.setdefault(x, x)

    def find(self, x):
        root = x
        while self.parent[root] != root:
            root = self.parent[root]
        while self.parent[x] != root:
            self.parent[x], x = root, self.parent[x]
        return root

    def union(self, a, b):
        ra, rb = self.find(a), self.find(b)
        if ra != rb:
            self.parent[ra] = rb


def _check_arrows(nodes, arrows):
    """Raise ValueError unless each arrow joins two nodes and sends each
    generator of its source node, and nothing else, to a simplex of the
    same dimension in its target node."""
    for i, j, f in arrows:
        if not (0 <= i < len(nodes) and 0 <= j < len(nodes)):
            raise ValueError(f"arrow {i}->{j}: endpoint out of range")
        src, dst = nodes[i]._dim, nodes[j]._dim
        stray = sorted(src.keys() ^ f.assignment.keys())
        if stray:
            what = "has no image" if stray[0] in src else "is not a generator of its source"
            raise ValueError(f"arrow {i}->{j}: {stray[0]} {what}")
        for g, (h, w) in f.assignment.items():
            if h not in dst:
                raise ValueError(f"arrow {i}->{j}: image of {g} targets unknown generator {h}")
            if dst[h] + len(w) != src[g]:
                raise ValueError(f"arrow {i}->{j}: image of {g} has wrong dimension")


def colimit(nodes, arrows, bound=None):
    """Colimit of a finite diagram of marked simplicial sets.

    nodes is a list of MarkedSSets; arrows a list of (src index, dst
    index, MSSetMap).  Returns the colimit and the cocone legs.  bound
    defaults to, and may not exceed, the least bound of the nodes.

    Per dimension, union-find joins the (node, generator) pairs that an
    arrow sends to one another.  A class with a member some arrow sends
    to a degenerate s_w y is s_w of y's class; every other class is a
    generator with the least "i#g#" of its members as id, the faces of
    one member, and a mark iff some member is marked.  With no arrows
    every class is one generator (_coproduct).
    """
    if not nodes:
        raise ValueError("empty diagram")
    low = min(X.bound for X in nodes)
    bound = low if bound is None else bound
    _check_int(bound, 0, "colimit: bound")
    if bound > low:
        raise ValueError(f"colimit: bound {bound} exceeds the least node bound {low}")
    _check_arrows(nodes, arrows)
    if not arrows:
        return _coproduct(nodes, bound)
    # per node, its generators' references in the colimit, filled per dimension
    legs = [
        MSSetMap(X, None, dict.fromkeys(g for n in range(bound + 1) for g in X.gens_at(n)))
        for X in nodes
    ]
    gens, faces, marked = {}, {}, set()
    for n in range(bound + 1):
        uf = _UnionFind()
        uf.parent = {(i, g): (i, g) for i, X in enumerate(nodes) for g in X.gens_at(n)}
        lowered = []
        for i, j, f in arrows:
            for g in nodes[i].gens_at(n):
                h, w = f.assignment[g]
                if w:
                    lowered.append(((i, g), legs[j], (h, w)))
                else:
                    uf.union((i, g), (j, h))
        classes = {}
        for elt in uf.parent:
            classes.setdefault(uf.find(elt), []).append(elt)
        for elt, leg, ref in lowered:
            for i, g in classes.pop(uf.find(elt), ()):
                legs[i].assignment[g] = leg.apply(ref)
        named = sorted((min([f"{i}#{g}#" for i, g in elts]), elts) for elts in classes.values())
        gens[n] = tuple([cid for cid, _ in named])
        for cid, elts in named:
            for i, g in elts:
                legs[i].assignment[g] = (cid, ())
            if n:
                i, g = elts[0]
                faces[cid] = tuple([legs[i].apply(r) for r in nodes[i].faces[g]])
                if any(g in nodes[i].marked for i, g in elts):
                    marked.add(cid)
    colim = MarkedSSet(bound, gens, faces, frozenset(marked))
    return colim, [MSSetMap(X, colim, leg.assignment) for X, leg in zip(nodes, legs)]


def _coproduct(nodes, bound):
    """colimit(nodes, [], bound): each (i, g) is a class of its own, the
    generator "i#g#" with g's faces renamed and g's mark."""
    legs = [{g: (f"{i}#{g}#", ()) for n in range(bound + 1) for g in X.gens_at(n)}
            for i, X in enumerate(nodes)]
    gens, faces, marked = {}, {}, set()
    for n in range(bound + 1):
        named = sorted((legs[i][g][0], i, g) for i, X in enumerate(nodes) for g in X.gens_at(n))
        gens[n] = tuple([cid for cid, _, _ in named])
        for cid, i, g in named if n else ():
            leg = legs[i]
            faces[cid] = tuple([(leg[h][0], w) if w else leg[h] for h, w in nodes[i].faces[g]])
            if g in nodes[i].marked:
                marked.add(cid)
    colim = MarkedSSet(bound, gens, faces, frozenset(marked))
    return colim, [MSSetMap(X, colim, leg) for X, leg in zip(nodes, legs)]


def pushout(f: MSSetMap, g: MSSetMap):
    """Pushout of X <- A -> Y; returns (P, leg_X, leg_Y)."""
    if f.source is not g.source and f.source.gens != g.source.gens:
        raise ValueError("pushout legs must share their source")
    nodes = [f.source, f.target, g.target]
    P, legs = colimit(nodes, [(0, 1, f), (0, 2, g)])
    return P, legs[1], legs[2]


# ---------------------------------------------------------------------------
# maps: enumeration, mono/iso


def _check_int(value, low, name):
    """Raise ValueError unless value is an int, not a bool, and >= low."""
    if isinstance(value, bool) or not isinstance(value, int) or value < low:
        raise ValueError(f"{name} must be an int >= {low}, not {value!r}")


class _Guard:
    def __init__(self, limit, operation=None):
        _check_int(limit, 0, f"{operation}: limit")
        self.limit = limit
        self.count = 0
        self.operation = operation
        self.dimension = None

    def step(self, k=1):
        self.count += k
        if self.count > self.limit:
            where = f" in {self.operation}" if self.operation else ""
            if self.dimension is not None:
                where += f" at dimension {self.dimension}"
            raise ResourceLimitError(
                f"search-space guard exceeded ({self.limit} steps){where}",
                self.operation, self.dimension, self.count,
            )

    def step_each(self, k):
        """Charge k steps of one, in one call: past the limit this raises
        as the first of k calls of step() over it would, at limit + 1."""
        self.step_times(k, 1)

    def step_times(self, n, k):
        """Charge n steps of k, in one call: past the limit this raises as
        the first of n calls of step(k) over it would."""
        if k:
            self.step(k * min(n, (self.limit - self.count) // k + 1))


def _search(X: MarkedSSet, Y: MarkedSSet, guard, iso=False, vertices=None):
    """Yield the maps X -> Y, placing X's generators in dimension order on
    an explicit stack (a nerve has more generators than recursion frames).

    A generator's candidates are the simplices of Y whose faces are the
    images of its own, read off an index of Y by face tuple in sorted
    order.  iso: nondegenerate images of the same marking, none used
    twice.  vertices: fixed vertex images.  Otherwise a marked generator
    needs a marked image.  Each candidate tried is one guard step.
    """
    order = [(n, g) for n in sorted(X.gens) for g in X.gens_at(n)]
    if not order:
        yield MSSetMap(X, Y, {})
        return
    index = {}
    for n in dict.fromkeys(n for n, _ in order):
        refs = [(h, ()) for h in Y.gens_at(n)] if iso else sorted(Y.all_simplices(n))
        keys = _face_layer(Y, refs, n) if n else [()] * len(refs)
        bucket = index[n] = {}
        for ref, key in zip(refs, keys):
            bucket.setdefault(tuple(key), []).append(ref)
    assignment = {}
    partial = MSSetMap(X, Y, assignment)
    used = set()

    def candidates(k):
        n, g = order[k]
        if n == 0 and vertices is not None:
            return [(vertices[g], ())]
        key = tuple([partial.apply(r) for r in X.faces[g]]) if n else ()
        bucket = index[n].get(key, ())
        if iso:
            return [r for r in bucket if (r[0] in Y.marked) == (g in X.marked)]
        if g in X.marked:
            return [r for r in bucket if Y.is_marked(r)]
        return bucket

    stack = [[candidates(0), 0]]
    while stack:
        n, g = order[len(stack) - 1]
        if g in assignment:
            used.discard(assignment.pop(g))
        cands, idx = stack[-1]
        if idx == len(cands):
            stack.pop()
            continue
        stack[-1][1] = idx + 1
        ref = cands[idx]
        guard.dimension = n
        guard.step()
        if iso:
            if ref in used:
                continue
            used.add(ref)
        assignment[g] = ref
        if len(stack) == len(order):
            yield MSSetMap(X, Y, dict(assignment))
        else:
            stack.append([candidates(len(stack)), 0])


def enumerate_maps(X: MarkedSSet, Y: MarkedSSet, limit=DEFAULT_MAP_LIMIT):
    """All marking-preserving maps X -> Y, canonically ordered."""
    if _top_dim(X) > Y.bound:
        raise ValueError("X has generators above the bound of Y")
    return list(_search(X, Y, _Guard(limit, "enumerate_maps")))


def is_mono(f: MSSetMap) -> bool:
    """Whether f is one-to-one on the simplices of each dimension up to
    the common bound: as f(s_w g) = s_w f(g), whether each generator there
    maps to a nondegenerate simplex (an image s_k z of g is also that of
    s_k d_k g) and no two of one dimension share an image."""
    for n in range(min(f.source.bound, f.target.bound) + 1):
        images = [f.assignment[g] for g in f.source.gens_at(n)]
        if any(w for _, w in images) or len(set(images)) != len(images):
            return False
    return True


def is_iso(f: MSSetMap) -> bool:
    X, Y = f.source, f.target
    top = min(X.bound, Y.bound) + 1
    gens = [g for n in range(top) for g in X.gens_at(n)]
    return (X.counts()[:top] == Y.counts()[:top] and all(g in f.assignment for g in gens)
            and is_mono(f)
            and all((g in X.marked) == (f.assignment[g][0] in Y.marked) for g in gens))


def find_iso(X: MarkedSSet, Y: MarkedSSet, limit=DEFAULT_MAP_LIMIT):
    """Search for an isomorphism of marked simplicial sets; None if absent.

    Raises ValueError if X or Y has a generator above the common bound.
    """
    bound = min(X.bound, Y.bound)
    if max(_top_dim(X), _top_dim(Y)) > bound:
        raise ValueError(f"find_iso: generators above the common bound {bound}")
    if X.counts()[: bound + 1] != Y.counts()[: bound + 1]:
        return None
    if X.marked_counts()[: bound + 1] != Y.marked_counts()[: bound + 1]:
        return None
    return next(_search(X, Y, _Guard(limit, "find_iso"), iso=True), None)


def map_by_vertices(X: MarkedSSet, Y: MarkedSSet, vertex_images):
    """Extend a vertex assignment to the unique compatible map X -> Y.

    Raises ValueError if a vertex of X has no image, an image is not a
    vertex of Y, or no map or more than one extends the assignment.
    """
    for v in X.gens_at(0):
        if v not in vertex_images:
            raise ValueError(f"vertex {v} has no image")
        if Y._dim.get(vertex_images[v]) != 0:
            raise ValueError(f"vertex {v}: image {vertex_images[v]} is not a vertex")
    guard = _Guard(DEFAULT_MAP_LIMIT, "map_by_vertices")
    maps = list(itertools.islice(_search(X, Y, guard, vertices=vertex_images), 2))
    if len(maps) != 1:
        found = "none" if not maps else "more than one"
        raise ValueError(f"expected a unique extension of the vertices, found {found}")
    return maps[0]


# ---------------------------------------------------------------------------
# JSON (schema msset/1)


def msset_to_json(X: MarkedSSet) -> dict:
    return {
        "schema": "msset/1",
        "bound": X.bound,
        "gens": {str(n): list(X.gens_at(n)) for n in sorted(X.gens)},
        "faces": {
            g: [{"gen": h, "word": list(w)} for h, w in X.faces[g]]
            for g in sorted(X.faces)
        },
        "marked": sorted(X.marked),
    }


def _check_json(data, schema, keys):
    """Reject data that is not a JSON object of the schema with every key."""
    if not isinstance(data, dict):
        raise ValueError(f"{schema}: expected a JSON object")
    if data.get("schema") != schema:
        raise ValueError(f"unexpected schema {data.get('schema')!r}")
    missing = [k for k in keys if k not in data]
    if missing:
        raise ValueError(f"{schema}: missing key(s) {', '.join(missing)}")


def _load(what, parse, data, validate=None):
    """parse(data), checked: an AttributeError, KeyError, TypeError or
    ValueError that parse raises becomes ValueError("<what>: malformed
    data: ..."), and the first violation, if any, that validate reports of
    the result becomes ValueError("<what>: <violation> (and N more)")."""
    try:
        obj = parse(data)
    except (AttributeError, KeyError, TypeError, ValueError) as e:
        raise ValueError(f"{what}: malformed data: {e!r}") from e
    if validate is not None and (problems := validate(obj).violations):
        more = f" (and {len(problems) - 1} more)" if len(problems) > 1 else ""
        raise ValueError(f"{what}: {problems[0]}{more}")
    return obj


def _json_value(value, kind, what):
    """value if it is the JSON kind "array" (a list or tuple) or "object" (a
    dict); else ValueError: tuple() would take a str apart, dict() a list."""
    if not isinstance(value, dict if kind == "object" else (list, tuple)):
        raise ValueError(f"{what} must be a JSON {kind}, not {type(value).__name__}")
    return value


def _json_word(entries):
    """A degeneracy word read from JSON, every entry checked to be an int
    >= 0: a bool, a float such as 0.0, a str, a list or a dict is not."""
    word = tuple(entries)
    for i in word:
        _check_int(i, 0, "a face word entry")
    return word


def _msset(data):
    gens = {int(n): tuple(_json_value(ids, "array", "gens"))
            for n, ids in data["gens"].items()}
    faces = {g: tuple((f["gen"], _json_word(f["word"])) for f in fs)
             for g, fs in data["faces"].items()}
    return MarkedSSet(data["bound"], gens, faces,
                      frozenset(_json_value(data["marked"], "array", "marked")))


def msset_from_json(data: dict) -> MarkedSSet:
    """Load schema msset/1; raises ValueError on malformed data, and on a
    set that `validate_msset` rejects."""
    _check_json(data, "msset/1", ("bound", "gens", "faces", "marked"))
    _check_int(data["bound"], 0, "msset/1: bound")
    return _load("msset/1", _msset, data, validate_msset)

