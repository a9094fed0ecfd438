"""Finite 1- and 2-categories with explicit composition tables.

Composition is written diagrammatically throughout: compose(f, g) means
"f then g", and horizontal composition hc(f, g) of 1-cells f: x -> y and
g: y -> z lands in hom(x, z).
"""

from __future__ import annotations

import bisect
import itertools
import math
import operator
from collections.abc import Mapping, Sequence
from functools import cached_property, partial
from types import MappingProxyType

from .msset import (
    DEFAULT_LIMIT, DEFAULT_MAP_LIMIT, Report, _check_int, _check_json, _Guard, _json_value,
    _load, _non_strings, _Record)


# ---------------------------------------------------------------------------
# 1-categories


def _read_only(table):
    """A plain-dict table copied into a read-only view; any other as it is."""
    return MappingProxyType(dict(table)) if isinstance(table, dict) else table


class FinCategory(_Record):
    """A finite category given by its tables: morphisms maps each id to
    (src, tgt), identity each object to a morphism id and compose each
    pair (f, g) to the id of "f then g".  Plain-dict tables are copied
    into read-only views, so what is derived from them (`homs`, `thin`,
    `plan`, and as a target `_as_target` and `_chain_counts`, each made
    on first read and kept) stays true.  Immutable; equal when the
    objects, as sets, and the tables are, and `hash` raises TypeError."""

    def __init__(self, objects: tuple, morphisms: Mapping, identity: Mapping,
                 compose: Mapping):
        self.__dict__.update(objects=objects, morphisms=_read_only(morphisms),
                             identity=_read_only(identity), compose=_read_only(compose))

    def src(self, f):
        return self.morphisms[f][0]

    def tgt(self, f):
        return self.morphisms[f][1]

    def then(self, f, g):
        return self.compose[(f, g)]

    def is_identity(self, f):
        return self.identity.get(self.src(f)) == f and self.src(f) == self.tgt(f)

    @cached_property
    def homs(self):
        """The morphisms grouped by (source, target), each group a sorted
        tuple, as a read-only view; a pair with no morphism has no key."""
        homs = {}
        for f in sorted(self.morphisms):
            ends = self.morphisms[f]
            homs[ends] = homs.get(ends, ()) + (f,)
        return MappingProxyType(homs)

    @cached_property
    def thin(self):
        """Whether each (source, target) pair has at most one morphism:
        as many distinct ends as morphisms."""
        return len(set(self.morphisms.values())) == len(self.morphisms)

    @cached_property
    def _as_target(self):
        """What the object searches into this category read of it: the
        `_order_masks` of its sorted objects by the ends of its morphisms,
        which are the keys of `homs`."""
        return _order_masks(tuple(sorted(self.objects)), self.morphisms.values())

    @cached_property
    def _chain_counts(self):
        """`chain_count(self, j)` by j, filled in as each is asked for."""
        return {}

    @cached_property
    def plan(self):
        """(generators, composites), which fix a functor out of C.

        The generators are sorted: the atoms (the non-identity morphisms
        that no composite of two non-identity ones gives) and, while some
        morphism is unreached, the least unreached one, as an idempotent
        or a cycle needs.  The composites (f, g, h), f = g;h with g a
        generator, come from one breadth-first pass, each after h."""
        ids = set(self.identity.values())
        nonid = [f for f in sorted(self.morphisms) if f not in ids]
        made = {h for (f, g), h in self.compose.items() if f not in ids and g not in ids}
        gens = [f for f in nonid if f not in made]
        into = {}  # object -> the generators that end there
        for g in gens:
            into.setdefault(self.tgt(g), []).append(g)
        reached = ids | set(gens)
        queue, done, composites = list(gens), 0, []
        pending = iter(nonid)
        while True:
            while done < len(queue):
                h = queue[done]
                done += 1
                for g in into.get(self.src(h), ()):
                    f = self.compose[(g, h)]
                    if f not in reached:
                        reached.add(f)
                        composites.append((f, g, h))
                        queue.append(f)
            f = next((f for f in pending if f not in reached), None)
            if f is None:
                return sorted(gens), composites
            # f goes before each reached h from its target, and after the
            # generators into its source
            gens.append(f)
            into.setdefault(self.tgt(f), []).append(f)
            reached.add(f)
            queue += [h for h in queue if self.src(h) == self.tgt(f)] + [f]

    def hom(self, a, b):
        return list(self.homs.get((a, b), ()))

    def is_invertible(self, f):
        a, b = self.morphisms[f]
        return any(
            self.compose.get((f, g)) == self.identity[a]
            and self.compose.get((g, f)) == self.identity[b]
            for g in self.homs.get((b, a), ())
        )

    def __eq__(self, other):
        return (
            isinstance(other, FinCategory)
            and sorted(self.objects) == sorted(other.objects)
            and self.morphisms == other.morphisms
            and self.identity == other.identity
            and self.compose == other.compose
        )


class _ComposedOnRead(FinCategory):
    """A FinCategory given, for compose, a function of no arguments that
    returns the table: the first read of compose calls it and keeps the
    table in the instance, where every later read (equality, `signature`,
    the validators, JSON) finds that one table first.  Only this class
    carries the hook, so reading compose of any other category costs
    nothing more."""

    def __init__(self, objects, morphisms, identity, compose):
        super().__init__(objects, morphisms, identity, compose)
        if callable(compose):
            self.__dict__["_make_compose"] = self.__dict__.pop("compose")

    class _OnFirstRead:
        def __get__(self, C, owner=None):
            table = C.__dict__["compose"] = C.__dict__.pop("_make_compose")()
            return table

    compose = _OnFirstRead()


def _category_ids(C: FinCategory):
    """Every id C's tables name: the objects, the morphisms and their
    ends, the identities and the composable pairs and composites.  Ends
    and pairs that are not tuples are left to the checks that report them."""
    yield from C.objects
    for f, ends in C.morphisms.items():
        yield f
        if isinstance(ends, tuple):
            yield from ends
    for x, i in C.identity.items():
        yield from (x, i)
    for pair, h in C.compose.items():
        if isinstance(pair, tuple):
            yield from pair
        yield h


def _id_kind(x):
    """The kind of x as an id: "str", as the loaders require, the tuple of
    its entries' kinds, as `_product` names cells by pairs, or None."""
    kinds = tuple(map(_id_kind, x)) if isinstance(x, tuple) else (None,)
    return "str" if isinstance(x, str) else None if None in kinds else kinds


def validate_category(C: FinCategory) -> Report:
    """Whether C is a category, in three stages, each run only if the
    ones before it found nothing: every object and morphism id is an id,
    the objects, and the morphisms, are of one `_id_kind`, every
    morphism's ends are objects and every object, and nothing else, has
    an identity;
    compose is defined exactly on the composable pairs of morphisms,
    each time on a morphism with the right ends; and the unit and
    associativity laws hold.  So a missing or foreign entry is reported,
    never looked up, and a bad id before any lookup, since it may not
    even hash."""
    if problems := _non_strings(_category_ids(C), _id_kind):
        return Report("category", problems)
    for what, ids in (("object", C.objects), ("morphism", C.morphisms)):
        if len(kinds := {_id_kind(x): x for x in ids}) > 1:
            problems.append(f"{what} ids mix kinds: {list(kinds.values())}")
    for f, ends in C.morphisms.items():
        if not (isinstance(ends, tuple) and len(ends) == 2
                and all(e in C.objects for e in ends)):
            problems.append(f"{f}: endpoint not an object")
    for x in C.objects:
        i = C.identity.get(x)
        if i is None or C.morphisms.get(i) != (x, x):
            problems.append(f"{x}: bad identity")
    objects = set(C.objects)
    problems += [f"identity defined on {x!r}, not an object"
                 for x in C.identity if x not in objects]
    if problems:
        return Report("category", problems)
    for pair in C.compose:
        if not (isinstance(pair, tuple) and len(pair) == 2
                and all(f in C.morphisms for f in pair)):
            problems.append(f"compose defined on {pair!r}, not a pair of morphisms")
    mor = list(C.morphisms)
    for f in mor:
        for g in mor:
            composable = C.tgt(f) == C.src(g)
            h = C.compose.get((f, g))
            if composable and h is None:
                problems.append(f"compose undefined on ({f}, {g})")
            elif not composable and h is not None:
                problems.append(f"compose defined on non-composable ({f}, {g})")
            elif h is not None and h not in C.morphisms:
                problems.append(f"compose({f}, {g}) = {h} is not a morphism")
            elif h is not None and (
                C.src(h) != C.src(f) or C.tgt(h) != C.tgt(g)
            ):
                problems.append(f"compose({f}, {g}) has wrong endpoints")
    if problems:
        return Report("category", problems)
    for f in mor:
        if C.compose.get((C.identity[C.src(f)], f)) != f:
            problems.append(f"left unit fails at {f}")
        if C.compose.get((f, C.identity[C.tgt(f)])) != f:
            problems.append(f"right unit fails at {f}")
    for f in mor:
        for g in mor:
            if C.tgt(f) != C.src(g):
                continue
            for h in mor:
                if C.tgt(g) != C.src(h):
                    continue
                if C.then(C.then(f, g), h) != C.then(f, C.then(g, h)):
                    problems.append(f"associativity fails on ({f}, {g}, {h})")
    return Report("category", problems)


def ordinal(m: int) -> FinCategory:
    """The linear order with m+1 elements; m = -1 gives the empty category."""
    _check_int(m, -1, "ordinal: m")
    objects = tuple(str(i) for i in range(m + 1))
    morphisms = {
        f"{i}>{j}": (str(i), str(j))
        for i in range(m + 1)
        for j in range(i, m + 1)
    }
    identity = {str(i): f"{i}>{i}" for i in range(m + 1)}
    compose = {
        (f"{i}>{j}", f"{j}>{k}"): f"{i}>{k}"
        for i in range(m + 1)
        for j in range(i, m + 1)
        for k in range(j, m + 1)
    }
    return FinCategory(objects, morphisms, identity, compose)


def ordinal_size(m: int) -> int:
    """The entries of `ordinal(m)`'s compose table, one per i <= j <= l."""
    return math.comb(max(m + 3, 0), 3)


def free_iso() -> FinCategory:
    """The free-living isomorphism: two objects, two mutually inverse arrows."""
    objects = ("a", "b")
    morphisms = {
        "a>a": ("a", "a"),
        "b>b": ("b", "b"),
        "f": ("a", "b"),
        "g": ("b", "a"),
    }
    identity = {"a": "a>a", "b": "b>b"}
    compose = {}
    for u, (s1, t1) in morphisms.items():
        for v, (s2, t2) in morphisms.items():
            if t1 != s2:
                continue
            if u == identity[s1]:
                compose[(u, v)] = v
            elif v == identity[t2]:
                compose[(u, v)] = u
            elif s1 == t2:
                compose[(u, v)] = identity[s1]
            else:
                raise RuntimeError(f"free_iso: no composite of {u} and {v}")
    return FinCategory(objects, morphisms, identity, compose)


def terminal_category() -> FinCategory:
    return FinCategory(("*",), {"id": ("*", "*")}, {"*": "id"}, {("id", "id"): "id"})


def _enc(t) -> str:
    return "(" + ",".join(map(str, t)) + ")"


def _mid(a, b) -> str:
    return f"{_enc(a)}>{_enc(b)}"


def _poset(ks):
    """The tables of the poset [k_1] x ... x [k_r], each id formatted once.

    Returns (cells, names, mids, category). The cells are the coordinate
    tuples in itertools.product order; names[x] is the id of cell x and
    mids[x] maps the index y of each cell above x, in the same order, to
    the id of the morphism x -> y.  The category's compose table, the
    largest of its tables, is built from mids on its first read.
    """
    cells = list(itertools.product(*(range(k + 1) for k in ks)))
    names = [_enc(t) for t in cells]
    # ups[x]: the indices of the cells above x, in product order, made one
    # factor at a time from the last: cell (c, x) of [k] x P has index
    # c * |P| + x
    ups = [[0]]
    for k in reversed(ks):
        n = len(ups)
        ups = [[p * n + y for p in range(c, k + 1) for y in up]
               for c in range(k + 1) for up in ups]
    mids = [{y: name + ">" + names[y] for y in up} for name, up in zip(names, ups)]
    morphisms = {
        f: (names[x], names[y]) for x, row in enumerate(mids) for y, f in row.items()
    }
    identity = {name: mids[x][x] for x, name in enumerate(names)}
    # read-only views of dicts that nothing else holds, so none is copied
    views = map(MappingProxyType, (morphisms, identity))
    return cells, names, mids, _ComposedOnRead(
        tuple(names), *views, partial(_poset_compose, mids))


def _poset_compose(mids):
    """The compose table of `_poset`'s category, from its mids."""
    compose = {}
    for row in mids:
        for y, f in row.items():
            for z, g in mids[y].items():
                compose[(f, g)] = row[z]
    return MappingProxyType(compose)


def product_poset(ks) -> FinCategory:
    """The poset [k_1] x ... x [k_r] as a category; r = 0 gives [0]."""
    ks = tuple(ks)
    for k in ks:
        _check_int(k, 0, "product_poset: each k")
    return _poset(ks)[3]


def chain_count(C: FinCategory, j: int) -> int:
    """Number of composable j-chains (the classical nerve in dimension j).

    Each count is kept on C, one entry per j (`FinCategory._chain_counts`),
    so asking again of one instance only looks it up; an equal category
    built separately counts its own."""
    _check_int(j, 0, "chain_count: j")
    counts = C._chain_counts
    if j in counts:
        return counts[j]
    weights = {f: 1 for f in C.morphisms}
    for _ in range(j - 1):
        # chains of the current length ending at each object
        ending = {}
        for f, (_, b) in C.morphisms.items():
            ending[b] = ending.get(b, 0) + weights[f]
        weights = {g: ending.get(a, 0) for g, (a, _) in C.morphisms.items()}
    counts[j] = sum(weights.values()) if j else len(C.objects)
    return counts[j]


class Functor(_Record):
    """A functor given by its object and morphism tables.  Immutable;
    equal when the tables are (`key`), and `hash` raises TypeError."""

    def __init__(self, source: FinCategory, target: FinCategory, obj_map: dict,
                 mor_map: dict):
        self.__dict__.update(source=source, target=target, obj_map=obj_map, mor_map=mor_map)

    def compose(self, other: "Functor") -> "Functor":
        """self followed by other."""
        return Functor(
            self.source,
            other.target,
            {x: other.obj_map[y] for x, y in self.obj_map.items()},
            {f: other.mor_map[g] for f, g in self.mor_map.items()},
        )

    def key(self):
        return (
            tuple(sorted(self.obj_map.items())),
            tuple(sorted(self.mor_map.items())),
        )

    def __eq__(self, other):
        return isinstance(other, Functor) and self.key() == other.key()


def validate_functor(F: Functor) -> Report:
    """Whether F's tables form a functor between the categories F.source and
    F.target: each object and morphism has an image in the target, each
    morphism's image runs between the images of its ends, and identities
    and composites are preserved.  The last two are checked only once
    every image is sound, so a missing or foreign image is reported, never
    looked up, and so is one that does not hash."""
    problems = []
    C, D = F.source, F.target
    for x in C.objects:
        if F.obj_map.get(x) not in D.objects:
            problems.append(f"{x}: image missing or not an object")
    for f, (a, b) in C.morphisms.items():
        g = F.mor_map.get(f)
        if not _holds(D.morphisms, g):
            problems.append(f"{f}: image missing or not a morphism")
        elif D.morphisms[g] != (F.obj_map.get(a), F.obj_map.get(b)):
            problems.append(f"{f}: image has wrong endpoints")
    if problems:
        return Report("functor", problems)
    for x in C.objects:
        if F.mor_map[C.identity[x]] != D.identity.get(F.obj_map[x]):
            problems.append(f"{x}: identity not preserved")
    for (f, g), h in C.compose.items():
        if F.mor_map[h] != D.compose.get((F.mor_map[f], F.mor_map[g])):
            problems.append(f"composition not preserved on ({f}, {g})")
    return Report("functor", problems)


def _holds(table, key) -> bool:
    """Whether the mapping table has key: False, not TypeError, for a key
    that does not hash, such as a list read from JSON."""
    try:
        return key in table
    except TypeError:
        return False


def _product(A: FinCategory, B: FinCategory) -> FinCategory:
    """A x B, whose objects and morphisms are pairs."""
    pairs = itertools.product
    return FinCategory(
        tuple(pairs(A.objects, B.objects)),
        {
            (a, b): ((A.src(a), B.src(b)), (A.tgt(a), B.tgt(b)))
            for a, b in pairs(A.morphisms, B.morphisms)
        },
        {(x, y): (A.identity[x], B.identity[y]) for x, y in pairs(A.objects, B.objects)},
        {
            ((a, b), (a2, b2)): (A.compose[(a, a2)], B.compose[(b, b2)])
            for (a, a2), (b, b2) in pairs(A.compose, B.compose)
        },
    )


def _order_masks(targets, nonempty):
    """(targets, up, down, loops): what the object searches read of a
    target.  Bit t stands for targets[t]: up[t] and down[t] hold the
    targets that t has a nonempty hom to and from, and loops those with a
    nonempty hom to themselves, read off nonempty, the pairs of targets
    with a nonempty hom.  The masks are tuples, since a target keeps its
    own (`_as_target`) for every search into it."""
    pos = {y: t for t, y in enumerate(targets)}
    up, down = [0] * len(targets), [0] * len(targets)
    loops = 0
    for a, b in nonempty:
        up[pos[a]] |= 1 << pos[b]
        down[pos[b]] |= 1 << pos[a]
        if a == b:
            loops |= 1 << pos[a]
    return targets, tuple(up), tuple(down), loops


def _object_rules(objs, ends, target):
    """(base, later) of the search `_object_maps` and `_count_object_maps`
    run into target, an `_order_masks`: objs[k]'s candidates start as the
    bits of base[k], and placing objs[k] at t narrows those of each later
    objs[j] of (j, masks) in later[k] to & masks[t], the up- or down-set
    masks; a pair (a, a) of ends leaves in base only the loops."""
    targets, up, down, loops = target
    index = {x: k for k, x in enumerate(objs)}
    base = [(1 << len(targets)) - 1] * len(objs)
    later = [[] for _ in objs]
    for a, b in ends:
        ka, kb = index[a], index[b]
        if ka == kb:
            base[ka] &= loops
        elif ka < kb:
            later[ka].append((kb, up))
        else:
            later[kb].append((ka, down))
    return base, later


def _object_maps(objs, ends, target, guard):
    """Every map of objs into the targets of target, an `_order_masks`,
    under which each pair (a, b) in ends lands on a nonempty hom, as image
    tuples in lexicographic order.

    The candidates come from `_object_rules`, narrowed as each object is
    placed, and only their bits are walked, low to high, depth first on
    an explicit stack.  The guard is charged len(targets) in one step per
    search node: what trying each target in turn would cost.
    """
    if not objs:
        return [()]
    targets = target[0]
    base, later = _object_rules(objs, ends, target)
    images = [0] * len(objs)
    out = []
    # left[k][j]: the candidates of objs[j], j >= k, once objs[:k] are
    # placed on this path, less those of objs[k] already tried
    left = [base] + [None] * (len(objs) - 1)
    guard.step(len(targets))
    k = 0
    while k >= 0:
        cands = left[k]
        mask = cands[k]
        if not mask:
            k -= 1
            continue
        low = mask & -mask
        cands[k] = mask ^ low
        t = images[k] = low.bit_length() - 1
        if k + 1 == len(objs):
            out.append(tuple(targets[t] for t in images))
            continue
        cands = cands[:]
        for j, masks in later[k]:
            cands[j] &= masks[t]
        k += 1
        left[k] = cands
        guard.step(len(targets))
    return out


def _count_object_maps(objs, ends, target, guard):
    """len(_object_maps(objs, ends, target, guard)), counted
    one depth at a time without listing a map.  The states after depth k
    map the candidates left to objs[k + 1:] to the number of partial maps
    that leave them, which have as many completions.  The search's nodes,
    one per partial map of each depth but the last and one for the root,
    are charged len(targets) each, a depth's in one `step_times` call:
    every node costs the same, so it raises past the limit at the step
    the search would.
    """
    if not objs:
        return 1
    targets = target[0]
    base, later = _object_rules(objs, ends, target)
    states = {tuple(base): 1}
    for k, rule in enumerate(later):
        guard.step_times(sum(states.values()), len(targets))
        new = {}
        for left, n in states.items():
            mask, rest = left[0], left[1:]
            if not rule:
                if mask:
                    new[rest] = new.get(rest, 0) + n * mask.bit_count()
                continue
            while mask:
                low = mask & -mask
                mask ^= low
                t = low.bit_length() - 1
                cands = list(rest)
                for j, masks in rule:
                    cands[j - k - 1] &= masks[t]
                key = tuple(cands)
                new[key] = new.get(key, 0) + n
        states = new
    return states.get((), 0)


def enumerate_functors(C: FinCategory, D: FinCategory, limit=DEFAULT_MAP_LIMIT):
    """The complete, canonically ordered list of functors C -> D, each
    built when the call returns (unlike `_functors`, whose tables into a
    thin D are built on first read).  Any finite category C is a valid
    source: C.plan adds generators beyond its atoms where it needs them.
    The functors over one object map share their obj_map; do not edit
    it."""
    guard = _Guard(limit, "enumerate_functors")
    return [Functor(C, D, *tables) for tables in _functors(C, D, guard, listed=True)]


def _functors(C, D, guard, listed=False):
    """The functors C -> D as (obj_map, mor_map) tables, in the order and
    key order of `enumerate_functors`, charging guard.  The functors over
    one object map share its obj_map; callers must not edit the tables.

    C.plan gives the generators and composites, D.thin the path taken.
    Object images are the maps `_object_maps` lists into D's kept
    `_as_target`, with the ends of C's generators as the pairs that must
    land on nonempty homs of D.  When D is thin the result is an
    `_OnRead` sequence, each functor's tables built on its first read.
    Its length comes from `_count_object_maps`, which lists no object
    map, and the object maps are listed on the first read, under a guard
    of their own; but when listed is set (the caller reads every functor)
    they are listed once, at the call, under guard.  The steps are the
    listing's either way.  The image of each morphism of C (identities,
    then generators, then composites) is the one morphism between its
    ends' images (D.homs), neither D.identity nor D.compose is read, and
    the generators cost one guard step of len(generators) per object
    map, charged during the call: what trying the single candidate of
    each in turn would cost.
    Otherwise the result is a list: the generators are tried one by one,
    identities and composites are derived through D's tables, and every
    relation f;g = h of C.compose is checked.
    """
    gens, composites = C.plan
    objs, target = sorted(C.objects), D._as_target
    gen_ends = [C.morphisms[g] for g in gens]
    # In a thin D a morphism's image is the one morphism between its ends'
    # images, so both sides of a relation f;g = h agree; only a D that is
    # not thin needs the derivation and the check.
    if D.thin:
        if listed:
            maps = _object_maps(objs, gen_ends, target, guard)
            n = len(maps)
        else:
            maps, n = None, _count_object_maps(objs, gen_ends, target, guard)
        # len(gens) per object map: past the limit this raises at the first
        # object map over it, as a step per map would
        guard.step_times(n, len(gens))
        # on the first read: each morphism of C with its ends, identities,
        # then generators, then composites
        mor_ends = []

        def tables(t):
            nonlocal maps
            if maps is None:
                maps = _object_maps(objs, gen_ends, target,
                                    _Guard(guard.limit, guard.operation))
            if not mor_ends:
                order = [C.identity[x] for x in C.objects] + gens
                order += [f for f, _, _ in composites]
                mor_ends.extend((f, *C.morphisms[f]) for f in order)
            obj_map, homs = dict(zip(objs, maps[t])), D.homs
            return obj_map, {f: homs[(obj_map[a], obj_map[b])][0] for f, a, b in mor_ends}

        return _OnRead(n, tables)
    homs = D.homs
    results = []
    for images in _object_maps(objs, gen_ends, target, guard):
        obj_map = dict(zip(objs, images))
        lists = [homs[(obj_map[a], obj_map[b])] for a, b in gen_ends]
        # a depth-first search over the lists tries prod(len(lists[i]) for
        # i <= k) items at depth k, one guard step each
        guard.step_each(sum(itertools.accumulate(map(len, lists), operator.mul)))
        for combo in itertools.product(*lists):
            mor_map = {C.identity[x]: D.identity[obj_map[x]] for x in C.objects}
            mor_map.update(zip(gens, combo))
            for f, g, h in composites:
                mor_map[f] = D.compose[(mor_map[g], mor_map[h])]
            if all(mor_map[h] == D.compose[(mor_map[f], mor_map[g])]
                   for (f, g), h in C.compose.items()):
                results.append((obj_map, mor_map))
    return results


class _OnRead(Sequence):
    """A read-only sequence of n items, item i made by make(i) on its
    first read and kept, so every read of it gives the same object.
    Negative indices count from the end, a slice gives a list, and the
    sequence equals only itself."""

    __slots__ = ("_n", "_make", "_made")

    def __init__(self, n, make):
        self._n, self._make, self._made = n, make, {}

    def __len__(self):
        return self._n

    def __getitem__(self, i):
        at = range(self._n)[i]
        if isinstance(i, slice):
            return [self[k] for k in at]
        item = self._made.get(at)
        if item is None:
            item = self._made[at] = self._make(at)
        return item


# ---------------------------------------------------------------------------
# 2-categories


class Theta2Shape(_Record):
    """The pasting shape [m|k_1,...,k_m].  Its 2-category is built on the
    first `theta2_object(shape)` and kept on the instance; a copy or a
    pickle carries (m, ks) alone, and builds its own.  Immutable; equal
    and hashed by (m, ks)."""

    def __init__(self, m: int, ks: tuple):
        _check_int(m, 0, "a shape's m")
        if not isinstance(ks, (tuple, list)) or len(ks) != m:
            raise ValueError(f"invalid shape [{m}|{ks}]")
        for k in ks:
            _check_int(k, 0, "each k of a shape")
        self.__dict__.update(m=m, ks=tuple(ks))

    def __str__(self):
        return f"[{self.m}|{','.join(str(k) for k in self.ks)}]"

    def __reduce__(self):
        return type(self), (self.m, self.ks)

    @cached_property
    def _category(self):
        return _build_theta2_object(self)


def parse_shape(text: str) -> Theta2Shape:
    """The shape a `Theta2Shape`'s str names: "[m|k1,...,km]", or "[m]",
    the 1-category [m], i.e. the shape [m|0,...,0]."""
    body = text.strip()
    if not (body.startswith("[") and body.endswith("]")):
        raise ValueError(f"bad shape {text!r}")
    m_str, bar, ks_str = body[1:-1].partition("|")
    m = int(m_str)
    if not bar:
        return Theta2Shape(m, (0,) * m)
    return Theta2Shape(m, tuple(int(t) for t in ks_str.split(",")) if ks_str.strip() else ())


def _one_to_one(table, left, right, cells) -> bool:
    """Whether a total horizontal table {(x, y): z} on left x right sends
    it one to one onto cells."""
    return (
        table is not None
        and len(table) == len(left) * len(right) == len(cells)
        and set(table.values()) == set(cells)
    )


def _copies(table, make):
    """The mapping {key: t} with each value t replaced by make(t), made
    once however many keys share t: a horizontal table's inner tables,
    or the hom categories of a 2-category."""
    made = {}
    for t in table.values():
        if id(t) not in made:
            made[id(t)] = make(t)
    return {k: made[id(t)] for k, t in table.items()}


class Fin2Category(_Record):
    """A finite 2-category given by hom-categories and horizontal tables.

    hom maps object pairs with nonempty mapping category to a FinCategory
    whose objects are the 1-cells and whose morphisms are the 2-cells;
    hcompose1/hcompose2 give horizontal composition per object triple,
    (x, y, z) -> {(f, g): h} and {(alpha, beta): gamma}; unit1 maps each
    object x to its unit 1-cell in hom(x, x).
    The tables are read-only, so `segments`, `signature` and, as a
    target, `_as_target`, derived once, stay true: hom, unit1 and the
    plain-dict horizontal tables, outer and inner, are copied into
    read-only views, one per inner table however many triples share it.
    `theta2_object`'s `_LazyTable`s are read-only.  Immutable; equal and
    hashed by identity.
    """

    __eq__ = object.__eq__
    __hash__ = object.__hash__

    def __init__(self, objects: tuple, hom: Mapping, hcompose1: Mapping,
                 hcompose2: Mapping, unit1: Mapping):
        def copied(table):
            if not isinstance(table, dict):
                return table
            return MappingProxyType(_copies(table, lambda t: MappingProxyType(dict(t))))

        self.__dict__.update(
            objects=objects, hom=MappingProxyType(dict(hom)), hcompose1=copied(hcompose1),
            hcompose2=copied(hcompose2), unit1=MappingProxyType(dict(unit1)))

    @cached_property
    def segments(self):
        """The segments (a_0, a_1), ..., (a_{m-1}, a_m) when the objects,
        ordered by how many nonempty homs leave each, form a free pasting
        scheme, and None otherwise.  Free means: hom(a_i, a_j) is nonempty
        exactly when i <= j, hom(a_i, a_i) holds only the unit, and for
        j > i + 1 horizontal composition sends hom(a_i, a_{i+1}) x
        hom(a_{i+1}, a_j) one to one onto hom(a_i, a_j), on 1-cells and on
        2-cells.  Every choice of segment images is then a 2-functor.
        Only the chain's own homs and tables are read."""
        starts = [x for x, _ in self.hom]
        chain = sorted(self.objects, key=starts.count, reverse=True)
        if set(self.hom) != set(itertools.combinations_with_replacement(chain, 2)):
            return None
        if any(len(self.hom[(a, a)].morphisms) != 1 for a in chain):
            return None
        for i in range(len(chain) - 2):
            a, b = chain[i], chain[i + 1]
            for c in chain[i + 2:]:
                H1, H2, H3 = self.hom[(a, b)], self.hom[(b, c)], self.hom[(a, c)]
                t1, t2 = self.hcompose1.get((a, b, c)), self.hcompose2.get((a, b, c))
                if not (
                    _one_to_one(t1, H1.objects, H2.objects, H3.objects)
                    and _one_to_one(t2, H1.morphisms, H2.morphisms, H3.morphisms)
                ):
                    return None
        return tuple(zip(chain, chain[1:]))

    @cached_property
    def _as_target(self):
        """What the object search of `enumerate_two_functors` into this
        2-category reads of it: the `_order_masks` of its sorted objects by
        its nonempty homs."""
        return _order_masks(tuple(sorted(self.objects)), self.hom)

    def hom_at(self, x, y):
        return self.hom.get((x, y))

    def one_cells(self, x, y):
        H = self.hom.get((x, y))
        return sorted(H.objects) if H else []

    def hc1(self, x, y, z, f, g):
        return self.hcompose1[(x, y, z)][(f, g)]

    def hc2(self, x, y, z, alpha, beta):
        return self.hcompose2[(x, y, z)][(alpha, beta)]

    @cached_property
    def signature(self) -> str:
        """The `twocat/1` document as a repr (tuple ids break json.dumps):
        equal exactly when every table is.  Raises ValueError on an object
        id that holds "|", which the document's keys would not separate."""
        if bad := [x for x in self.objects if "|" in str(x)]:
            raise ValueError(f"object id {bad[0]!r} holds '|'")
        return repr(two_category_to_json(self))


def _two_category_ids(D: Fin2Category):
    """Every object, 1-cell and 2-cell id D's tables name; see `_category_ids`."""
    yield from D.objects
    for H in D.hom.values():
        yield from _category_ids(H)
    yield from itertools.chain.from_iterable(D.unit1.items())
    for t in itertools.chain(D.hcompose1.values(), D.hcompose2.values()):
        for pair, h in t.items():
            yield from (*pair, h) if isinstance(pair, tuple) else (h,)


def validate_2cat(D: Fin2Category) -> Report:
    """Whether D is a 2-category, in four stages, each run only if the
    ones before it found nothing: every object, 1-cell and 2-cell id is a
    str; no object id holds "|" (it separates the names in a `twocat/1`
    key), every hom is a category between two objects and every object
    has a unit 1-cell; for each composable (x, y, z), hc1 and hc2 form a
    functor hom(x, y) x hom(y, z) -> hom(x, z) (`validate_functor`:
    totality, endpoints, identities and interchange); and the units and
    associativity laws hold for hc1 on 1-cells and hc2 on 2-cells."""
    if problems := _non_strings(_two_category_ids(D)):
        return Report("2-category", problems)
    problems = [f"object id {x} holds '|'" for x in D.objects if "|" in x]
    for (x, y), H in D.hom.items():
        if not {x, y} <= set(D.objects):
            problems.append(f"hom({x},{y}): not between two objects")
        for v in validate_category(H).violations:
            problems.append(f"hom({x},{y}): {v}")
    for x in D.objects:
        H = D.hom_at(x, x)
        if H is None or D.unit1.get(x) not in H.objects:
            problems.append(f"{x}: missing unit 1-cell")
    if problems:
        return Report("2-category", problems)
    for x, y, z in itertools.product(D.objects, repeat=3):
        if (x, y) not in D.hom or (y, z) not in D.hom:
            continue
        t1, t2 = D.hcompose1.get((x, y, z)), D.hcompose2.get((x, y, z))
        if t1 is None or t2 is None or (x, z) not in D.hom:
            problems.append(f"hcompose missing at ({x},{y},{z})")
            continue
        hc = Functor(_product(D.hom[(x, y)], D.hom[(y, z)]), D.hom[(x, z)], t1, t2)
        for v in validate_functor(hc).violations:
            problems.append(f"hc on ({x},{y},{z}): {v}")
    if problems:
        return Report("2-category", problems)
    for n, tables, cells, unit in (
        (1, D.hcompose1, lambda H: H.objects, D.unit1.get),
        (2, D.hcompose2, lambda H: H.morphisms,
         lambda x: D.hom[(x, x)].identity[D.unit1[x]]),
    ):
        for (x, y), H in D.hom.items():
            for f in cells(H):
                if tables[(x, x, y)][(unit(x), f)] != f:
                    problems.append(f"left unit fails on {n}-cell {f} of hom({x},{y})")
                if tables[(x, y, y)][(f, unit(y))] != f:
                    problems.append(f"right unit fails on {n}-cell {f} of hom({x},{y})")
        for w, x, y, z in itertools.product(D.objects, repeat=4):
            if not {(w, x), (x, y), (y, z)} <= D.hom.keys():
                continue
            homs = (cells(D.hom[(w, x)]), cells(D.hom[(x, y)]), cells(D.hom[(y, z)]))
            for f, g, h in itertools.product(*homs):
                lhs = tables[(w, y, z)][(tables[(w, x, y)][(f, g)], h)]
                if lhs != tables[(w, x, z)][(f, tables[(x, y, z)][(g, h)])]:
                    problems.append(f"associativity fails on {n}-cells ({f},{g},{h})")
    return Report("2-category", problems)


def suspend_category(C: FinCategory) -> Fin2Category:
    """Two objects bot/top with C as the mapping category bot -> top."""
    T = terminal_category()
    hom = {("bot", "bot"): T, ("top", "top"): T}
    if C.objects:
        hom[("bot", "top")] = C
    hcompose1 = {
        ("bot", "bot", "bot"): {("*", "*"): "*"},
        ("top", "top", "top"): {("*", "*"): "*"},
    }
    hcompose2 = {
        ("bot", "bot", "bot"): {("id", "id"): "id"},
        ("top", "top", "top"): {("id", "id"): "id"},
    }
    if C.objects:
        hcompose1[("bot", "bot", "top")] = {("*", f): f for f in C.objects}
        hcompose1[("bot", "top", "top")] = {(f, "*"): f for f in C.objects}
        hcompose2[("bot", "bot", "top")] = {("id", m): m for m in C.morphisms}
        hcompose2[("bot", "top", "top")] = {(m, "id"): m for m in C.morphisms}
    return Fin2Category(("bot", "top"), hom, hcompose1, hcompose2, {"bot": "*", "top": "*"})


class _LazyTable(Mapping):
    """A read-only mapping whose keys are fixed, each value built on lookup.

    keys maps each key, in iteration order, to its group.  The first
    lookup of a key in a group calls build(group) once and keeps the
    result, which is the value of every key of that group.
    """

    __slots__ = ("_keys", "_build", "_built")

    def __init__(self, keys, build):
        self._keys = keys
        self._build = build
        self._built = {}

    def __getitem__(self, key):
        group = self._keys[key]
        built = self._built.get(group)
        if built is None:
            built = self._built[group] = self._build(group)
        return built

    def __contains__(self, key):
        return key in self._keys

    def __iter__(self):
        return iter(self._keys)

    def __len__(self):
        return len(self._keys)


def _hcompose1(built, pair):
    """The hc1 table of the slice pair (s, t) from the `_poset` tables in
    built: the cells of hom s + t are those of s x t in product order."""
    s, t = pair
    return MappingProxyType(
        dict(zip(itertools.product(built[s][1], built[t][1]), built[s + t][1]))
    )


def _hcompose2(built, pair):
    """The hc2 table as `_hcompose1`: cell a + b of hom s + t has the index
    x * width + y, where x, y index a, b and width = |hom t|."""
    s, t = pair
    mids_jl, mids_il = built[t][2], built[s + t][2]
    width = len(mids_jl)
    t2 = {}
    for x, row in enumerate(built[s][2]):
        for x2, alpha in row.items():
            for y, col in enumerate(mids_jl, x * width):
                out = mids_il[y]
                for y2, beta in col.items():
                    t2[(alpha, beta)] = out[x2 * width + y2]
    return MappingProxyType(t2)


def theta2_object(shape: Theta2Shape) -> Fin2Category:
    """The pasting 2-category [m|k_1,...,k_m] with product-poset homs.

    It is built once per shape instance and kept on it, so every call with
    one instance returns the same object, with what was derived from it
    (`signature`, `segments`, each hom's `homs` and `plan`, the tables
    built on first read).  Equal shapes made separately are built
    separately.  Every table is read-only; callers must not edit them.
    See `_build_theta2_object` for the tables."""
    return shape._category


def _build_theta2_object(shape: Theta2Shape) -> Fin2Category:
    """`theta2_object(shape)`, built anew on each call.

    hom(i, j) is the poset [k_{i+1}] x ... x [k_j].  Its tables are built
    once per distinct slice ks[i:j] in a call, so homs with equal slices
    are one shared FinCategory, as are hom(0, 1) and hom(1, 2) of [2|k,k];
    each hom's compose table is built on its first read (`_poset`).
    The horizontal tables are read-only `_LazyTable`s: a table is built on
    first lookup, once per slice pair (ks[i:j], ks[j:l]), and shared by
    every triple (i, j, l) with that pair.  The segments (i, i + 1)
    generate it freely: cell a + b of hom(i, l) is the composite of cell
    a of hom(i, i + 1) and cell b of hom(i + 1, l).
    """
    m, ks = shape.m, shape.ks
    objects = tuple(str(i) for i in range(m + 1))
    # one slice ks[i:j] per (i, j), shared by every triple that holds it
    cut = {(i, j): ks[i:j] for i in range(m + 1) for j in range(i, m + 1)}
    built = {s: _poset(s) for s in dict.fromkeys(cut.values())}  # per distinct slice
    hom = {(objects[i], objects[j]): built[s][3] for (i, j), s in cut.items()}
    triples = {
        (objects[i], objects[j], objects[l]): (cut[i, j], cut[j, l])
        for i in range(m + 1)
        for j in range(i, m + 1)
        for l in range(j, m + 1)
    }
    return Fin2Category(
        objects,
        hom,
        _LazyTable(triples, partial(_hcompose1, built)),
        _LazyTable(triples, partial(_hcompose2, built)),
        {x: _enc(()) for x in objects},
    )


def theta2_object_size(shape: Theta2Shape):
    """Yield the entries `theta2_object(shape)` holds once each hom's
    compose table is read, as a nerve reads them all, in two parts: one per
    object triple i <= j <= l and per element of the slice ks[i:j] of each
    i <= j, from m alone; then each distinct slice's compose table, so a
    guard charged part by part stops a huge m before that."""
    m, ks = shape.m, shape.ks
    yield ordinal_size(m) + math.comb(m + 2, 3)
    compose = {(): 1}  # each distinct slice of ks -> its poset's compose size
    for i in range(m):
        for j in range(i + 1, m + 1):
            compose[ks[i:j]] = compose[ks[i:j - 1]] * ordinal_size(ks[j - 1])
    yield sum(compose.values())


def cell(j: int) -> Fin2Category:
    """The free j-cell for j = 0, 1, 2."""
    _check_int(j, 0, "cell: j")
    if j == 0:
        return theta2_object(Theta2Shape(0, ()))
    if j == 1:
        return theta2_object(Theta2Shape(1, (0,)))
    if j == 2:
        return theta2_object(Theta2Shape(1, (1,)))
    raise ValueError("j must be 0, 1 or 2")


def as_two_category(C: FinCategory) -> Fin2Category:
    """A 1-category viewed as a 2-category with only identity 2-cells."""
    homs = C.homs
    hom = {}
    for x in C.objects:
        for y in C.objects:
            if (fs := homs.get((x, y))) is not None:
                hom[(x, y)] = FinCategory(
                    fs,
                    {f"id({f})": (f, f) for f in fs},
                    {f: f"id({f})" for f in fs},
                    {(f"id({f})", f"id({f})"): f"id({f})" for f in fs},
                )
    hcompose1, hcompose2 = {}, {}
    for (x, y), (y2, z) in itertools.product(hom, hom):
        if y != y2:
            continue
        t1, t2 = {}, {}
        for f in homs[(x, y)]:
            for g in homs[(y, z)]:
                h = C.then(f, g)
                t1[(f, g)] = h
                t2[(f"id({f})", f"id({g})")] = f"id({h})"
        hcompose1[(x, y, z)] = t1
        hcompose2[(x, y, z)] = t2
    unit1 = {x: C.identity[x] for x in C.objects}
    return Fin2Category(tuple(C.objects), hom, hcompose1, hcompose2, unit1)


# ---------------------------------------------------------------------------
# 2-functors


def _generating_homs(D: Fin2Category):
    """The homs whose tables fix a 2-functor out of D: its segments when D
    is a free pasting scheme, and otherwise every nonempty hom, sorted."""
    return sorted(D.hom) if D.segments is None else D.segments


class TwoFunctor:
    """A 2-functor between Fin2Categories: its object images and its
    tables {(x, y): (1-cell map, 2-cell map)} on homs of the source.

    When the source is a free pasting scheme the tables need cover only
    its segments; `hom_maps` derives the others once, on first use,
    through horizontal composition.  `enumerate_two_functors` builds
    each one when it is first read.  The 2-functors it returns over one
    object map share `on_objects`, and share their hom tables with every
    2-functor that picks the same hom functor; do not edit either.
    """

    def __init__(self, source, target, on_objects, tables):
        self.source = source
        self.target = target
        self.on_objects = on_objects
        self.tables = tables

    def obj(self, x):
        return self.on_objects[x]

    @cached_property
    def hom_maps(self):
        """The tables of every nonempty hom: `tables` when they cover each
        one, and otherwise, in the source's hom order, `tables` with each
        missing one derived by walking the segment chain a_m, ..., a_0:
        hom(a_i, a_i) keeps the unit, and hom(a_i, a_j), j > i + 1, sends
        each hc(f, g) to the target's hc of the images of f and g.  Raises
        ValueError when a table that cannot be derived is missing."""
        D, E, on = self.source, self.target, self.on_objects
        if D.hom.keys() <= self.tables.keys():
            return self.tables
        maps = dict(self.tables)
        for x, y in (p for p in _generating_homs(D) if p not in maps):
            raise ValueError(f"hom({x},{y}): no hom map, and none can be derived")
        segs = D.segments
        chain = [segs[0][0], *(b for _, b in segs)] if segs else D.objects[:1]
        for i in reversed(range(len(chain))):
            a = chain[i]
            if (a, a) not in maps:
                u, fu = D.unit1[a], E.unit1[on[a]]
                maps[(a, a)] = (
                    {u: fu},
                    {D.hom[(a, a)].identity[u]: E.hom[(on[a], on[a])].identity[fu]},
                )
            for c in chain[i + 2:]:
                if (a, c) in maps:
                    continue
                b = chain[i + 1]
                (o1, m1), (o2, m2) = maps[(a, b)], maps[(b, c)]
                key, images = (a, b, c), (on[a], on[b], on[c])
                t1, t2 = E.hcompose1[images], E.hcompose2[images]
                maps[(a, c)] = (
                    {h: t1[(o1[f], o2[g])] for (f, g), h in D.hcompose1[key].items()},
                    {h: t2[(m1[p], m2[q])] for (p, q), h in D.hcompose2[key].items()},
                )
        return {pair: maps[pair] for pair in D.hom}

    def one(self, x, y, f):
        return self.hom_maps[(x, y)][0][f]

    def two(self, x, y, m):
        return self.hom_maps[(x, y)][1][m]

    def key(self):
        return (
            tuple(sorted(self.on_objects.items())),
            tuple(
                (pair, tuple(sorted(om.items())), tuple(sorted(mm.items())))
                for pair, (om, mm) in sorted(self.hom_maps.items())
            ),
        )

    def __eq__(self, other):
        return isinstance(other, TwoFunctor) and self.key() == other.key()

    def __hash__(self):
        return hash(self.key())

    def compose(self, other: "TwoFunctor") -> "TwoFunctor":
        """self followed by other."""
        on_objects = {x: other.obj(y) for x, y in self.on_objects.items()}
        hom_maps = {}
        for (x, y), (om, mm) in self.hom_maps.items():
            fx, fy = self.obj(x), self.obj(y)
            hom_maps[(x, y)] = (
                {f: other.one(fx, fy, g) for f, g in om.items()},
                {m: other.two(fx, fy, n) for m, n in mm.items()},
            )
        return TwoFunctor(self.source, other.target, on_objects, hom_maps)


def identity_two_functor(D: Fin2Category) -> TwoFunctor:
    hom_maps = {
        pair: ({f: f for f in H.objects}, {m: m for m in H.morphisms})
        for pair, H in D.hom.items()
    }
    return TwoFunctor(D, D, {x: x for x in D.objects}, hom_maps)


def validate_two_functor(F: TwoFunctor) -> Report:
    """Whether F is a 2-functor between the 2-categories F.source and
    F.target, in three stages, each run only if the ones before it found
    nothing: each object has an image, each of F.tables is on a nonempty
    hom, and each given or generating hom map is a functor into the hom
    between the images (`validate_functor`); so is each hom map that
    `hom_maps` derives from them; and units, hc1 and hc2 are preserved."""
    problems = []
    D, E, on = F.source, F.target, F.on_objects
    for x in D.objects:
        if on.get(x) not in E.objects:
            problems.append(f"{x}: image not an object")
    problems += [f"hom({x},{y}): not a nonempty hom of the source"
                 for x, y in F.tables if (x, y) not in D.hom]
    gens = _generating_homs(D)
    given = [p for p in D.hom if p in F.tables or p in gens]
    problems += _hom_failures(D, E, on, given, F.tables)
    if not problems:
        problems += _hom_failures(D, E, on, [p for p in D.hom if p not in given], F.hom_maps)
    if not problems:
        problems += _horizontal_failures(D, E, on, F.hom_maps, lambda: None)
    return Report("2-functor", problems)


def _hom_failures(D, E, on_objects, pairs, hom_maps):
    """The violations of the hom tables {(x, y): (1-cell map, 2-cell map)}
    on pairs, each checked by `validate_functor` into the hom of E between
    the images of x and y; with an image that does not hash, that hom is
    empty."""
    for x, y in pairs:
        images = (on_objects.get(x), on_objects.get(y))
        He = E.hom[images] if _holds(E.hom, images) else None
        if He is None:
            yield f"hom({x},{y}): target hom empty"
        elif (x, y) not in hom_maps:
            yield f"hom({x},{y}): no hom map"
        else:
            F = Functor(D.hom[(x, y)], He, *hom_maps[(x, y)])
            for v in validate_functor(F).violations:
                yield f"hom({x},{y}): {v}"


def enumerate_two_functors(D: Fin2Category, E: Fin2Category, limit=DEFAULT_LIMIT):
    """All 2-functors D -> E, duplicate-free and canonically ordered, as a
    read-only `_OnRead` sequence whose members are fixed when the call
    returns.

    A 2-functor is given by its object images and one functor per
    generating hom of D: D's segments when D is a free pasting scheme
    (`Fin2Category.segments`), and every nonempty hom of D, in sorted
    order, otherwise.
    Object images come from `_object_maps` into E's kept `_as_target`,
    with the generating pairs as the pairs that must land on nonempty
    homs of E.  The functors from a
    generating hom to a target hom are enumerated once per call for each
    distinct pair of FinCategory objects, as a `_functors` sequence, so
    homs that are one object (as theta2_object's equal slices are) share
    one; each generating hom's `FinCategory.plan` is made once and kept
    in the hom, so any finite hom is a valid source.  Into a thin
    target hom that sequence has its length from `_count_object_maps`,
    which counts the object maps by the candidates they leave, and lists
    its object images and builds a hom functor's tables only when one is
    read, so counting lists and builds none, and reads no compose table
    of E.  One guard covers the whole call:
    enumerating each sequence charges its steps once, each use of one
    charges its length, and each combination of hom functors charges one
    step.  Every combination of segment functors is a 2-functor, so those
    are charged together and left as the product of their sequences; a
    combination of hom functors is kept only if it preserves D's unit
    1-cells and horizontal compositions, which is checked here.  `len`
    builds nothing; each `TwoFunctor` is built on first read and kept, in
    `itertools.product` order within an object map.  `list(fs)` gives the
    plain list; the sequence equals only itself.  The results over one
    object map share one `on_objects` dict, and hold the hom functors'
    tables themselves, not copies, so every 2-functor that picks a hom
    functor shares its tables; callers must not edit them.
    """
    guard = _Guard(limit, "enumerate_two_functors")
    free = D.segments is not None
    gens = _generating_homs(D)
    objs = sorted(D.objects)
    index = {x: k for k, x in enumerate(objs)}
    # per generating pair: its hom and the positions of its ends in objs
    gen_at = [(D.hom[(a, b)], index[a], index[b]) for a, b in gens]
    # ids of (generating hom, target hom) -> its functors' tables and their
    # number; D and E hold the homs for the call
    gen_tables = {}
    # per object map: (on_objects, choice lists, None) when every
    # combination of one item per list is a 2-functor's tables on gens,
    # and (on_objects, None, the tables that passed) otherwise; starts[b]
    # is the index of block b's first 2-functor
    blocks, starts = [], [0]
    for images in _object_maps(objs, gens, E._as_target, guard):
        choice_lists, size = [], 1
        for H, ka, kb in gen_at:
            He = E.hom[(images[ka], images[kb])]
            key = (id(H), id(He))
            found = gen_tables.get(key)
            if found is None:
                fns = _functors(H, He, guard)
                found = gen_tables[key] = (fns, len(fns))
            fns, n = found
            guard.step(n)
            if not n:
                break
            choice_lists.append(fns)
            size *= n
        else:
            on_objects = dict(zip(objs, images))
            if free:
                guard.step_each(size)
                blocks.append((on_objects, choice_lists, None))
                starts.append(starts[-1] + size)
                continue
            passed = []
            for combo in itertools.product(*choice_lists):
                guard.step()
                tables = dict(zip(gens, combo))
                if next(_horizontal_failures(D, E, on_objects, tables, guard.step),
                        None) is None:
                    passed.append(tables)
            if passed:
                blocks.append((on_objects, None, passed))
                starts.append(starts[-1] + len(passed))

    def member(at):
        """The 2-functor at index at: its block by bisection over the
        blocks' starts, decoded in `itertools.product` order."""
        b = bisect.bisect_right(starts, at) - 1
        on_objects, lists, passed = blocks[b]
        r = at - starts[b]
        if passed is not None:
            return TwoFunctor(D, E, on_objects, passed[r])
        combo = []
        for items in reversed(lists):
            r, t = divmod(r, len(items))
            combo.append(items[t])
        return TwoFunctor(D, E, on_objects, dict(zip(gens, reversed(combo))))

    return _OnRead(starts[-1], member)


def _horizontal_failures(D, E, on_objects, hom_maps, step):
    """The violations, one at a time, of D's unit 1-cells, hc1 and hc2 by
    the hom tables {(x, y): (1-cell map, 2-cell map)} over the object
    images on_objects, which must be sound; step() is called before each
    composite is compared."""
    for x in D.objects:
        if hom_maps[(x, x)][0][D.unit1[x]] != E.unit1[on_objects[x]]:
            yield f"unit 1-cell at {x} not preserved"
    for x, y, z in itertools.product(D.objects, repeat=3):
        if (x, y) not in hom_maps or (y, z) not in hom_maps:
            continue
        images = (on_objects[x], on_objects[y], on_objects[z])
        (o1, m1), (o2, m2) = hom_maps[(x, y)], hom_maps[(y, z)]
        o3, m3 = hom_maps[(x, z)]
        s1, s2 = D.hcompose1[(x, y, z)], D.hcompose2[(x, y, z)]
        t1, t2 = E.hcompose1[images], E.hcompose2[images]
        for f, g in itertools.product(D.hom[(x, y)].objects, D.hom[(y, z)].objects):
            step()
            if o3[s1[(f, g)]] != t1[(o1[f], o2[g])]:
                yield f"horizontal 1-composition broken on ({f},{g})"
        for a, b in itertools.product(D.hom[(x, y)].morphisms, D.hom[(y, z)].morphisms):
            step()
            if m3[s2[(a, b)]] != t2[(m1[a], m2[b])]:
                yield f"horizontal 2-composition broken on ({a},{b})"


# ---------------------------------------------------------------------------
# shape functors between theta objects


def _fits(D: Fin2Category, shape: Theta2Shape) -> bool:
    """Whether D has the objects and segment-hom sizes of the pasting
    2-category of shape, read off D without building the shape: m + 1
    objects, among them "0" and the ends of the segment homs ("t", "t+1")."""
    if len(D.objects) != shape.m + 1 or "0" not in D.unit1:
        return False
    for t, k in enumerate(shape.ks):
        H = D.hom.get((str(t), str(t + 1)))
        if H is None or len(H.objects) != k + 1:
            return False
    return True


def _check_image(value, top, name):
    """Raise ValueError unless value is an int in 0..top."""
    _check_int(value, 0, name)
    if value > top:
        raise ValueError(f"{name} must be at most {top}, not {value}")


def shape_functor(src: Theta2Shape, dst: Theta2Shape, obj_images,
                  seg_images=None) -> TwoFunctor:
    """2-functor between pasting shapes from object images and, per
    source segment, images of the segment hom objects in the product
    poset of the target.  Raises ValueError unless there are m + 1
    monotone object images in 0..m' and, per segment, one image tuple per
    hom object, each of the right length and inside the target's poset."""
    return _shape_functor({}, src, dst, obj_images, seg_images)


def _shape_object(shapes: dict, shape: Theta2Shape) -> Fin2Category:
    """theta2_object(shape) from shapes, a dict {Theta2Shape: theta2_object}
    that the caller holds, built into it when missing."""
    if shape not in shapes:
        shapes[shape] = theta2_object(shape)
    return shapes[shape]


def _shape_functor(shapes: dict, src: Theta2Shape, dst: Theta2Shape, obj_images,
                   seg_images=None) -> TwoFunctor:
    """`shape_functor`, with the pasting 2-categories of src and dst read
    from shapes (see `_shape_object`), so a constructor builds each shape
    once, however many functors it makes."""
    obj_images = list(obj_images)
    seg_images = list(seg_images or ())
    if len(obj_images) != src.m + 1:
        raise ValueError(f"{src} has {src.m + 1} objects, not {len(obj_images)} images")
    for v in obj_images:
        _check_image(v, dst.m, "an object image")
    if obj_images != sorted(obj_images):
        raise ValueError(f"object images {obj_images} not monotone")
    if len(seg_images) != src.m:
        raise ValueError(f"{src} has {src.m} segments, not {len(seg_images)} image lists")
    D, E = _shape_object(shapes, src), _shape_object(shapes, dst)
    on_objects = {str(i): str(obj_images[i]) for i in range(src.m + 1)}
    tables = {}
    for t in range(1, src.m + 1):
        imgs = [tuple(img) for img in seg_images[t - 1]]
        if len(imgs) != src.ks[t - 1] + 1:
            raise ValueError(f"segment {t}: needs {src.ks[t - 1] + 1} images, not {len(imgs)}")
        tops = dst.ks[obj_images[t - 1]:obj_images[t]]
        obj_map, mor_map = {}, {}
        for a, img in enumerate(imgs):
            if len(img) != len(tops):
                raise ValueError(f"segment {t}: image tuple has wrong length")
            for v, top in zip(img, tops):
                _check_image(v, top, f"segment {t}: an image entry")
            obj_map[_enc((a,))] = _enc(img)
            for b in range(a, len(imgs)):
                if any(p > q for p, q in zip(img, imgs[b])):
                    raise ValueError(f"segment {t}: images not monotone")
                mor_map[_mid((a,), (b,))] = _mid(img, imgs[b])
        tables[(str(t - 1), str(t))] = (obj_map, mor_map)
    return TwoFunctor(D, E, on_objects, tables)


# ---------------------------------------------------------------------------
# JSON (schema twocat/1)


def category_to_json(C: FinCategory) -> dict:
    return {
        "objects": sorted(C.objects),
        "morphisms": {f: list(C.morphisms[f]) for f in sorted(C.morphisms)},
        "identity": dict(sorted(C.identity.items())),
        "compose": sorted([f, g, h] for (f, g), h in C.compose.items()),
    }


def _category(data) -> FinCategory:
    return FinCategory(
        tuple(_json_value(data["objects"], "array", "objects")),
        {f: tuple(_json_value(v, "array", "a morphism's ends"))
         for f, v in data["morphisms"].items()},
        dict(_json_value(data["identity"], "object", "identity")),
        {(f, g): h for f, g, h in _json_triples(data["compose"], "compose")},
    )


def category_from_json(data: dict) -> FinCategory:
    """Load a category; raises ValueError on malformed data, and on a
    category that `validate_category` rejects."""
    return _load("category", _category, data, validate_category)


def _json_triples(entries, what):
    """entries, an array of arrays such as a composition table's [f, g, h]."""
    return [_json_value(t, "array", f"an entry of {what}")
            for t in _json_value(entries, "array", what)]


def _json_key(text: str, parts: int) -> tuple:
    """Split a key such as "x|y" into exactly parts object names."""
    names = tuple(text.split("|"))
    if len(names) != parts:
        raise ValueError(f"key {text!r} does not name {parts} objects")
    return names


def two_category_to_json(D: Fin2Category) -> dict:
    return {
        "schema": "twocat/1",
        "objects": sorted(D.objects),
        "hom": {
            f"{x}|{y}": category_to_json(H) for (x, y), H in sorted(D.hom.items())
        },
        "hcompose1": {
            f"{x}|{y}|{z}": sorted([f, g, h] for (f, g), h in t.items())
            for (x, y, z), t in sorted(D.hcompose1.items())
        },
        "hcompose2": {
            f"{x}|{y}|{z}": sorted([a, b, c] for (a, b), c in t.items())
            for (x, y, z), t in sorted(D.hcompose2.items())
        },
        "unit1": dict(sorted(D.unit1.items())),
    }


def _two_category(data) -> Fin2Category:
    hcompose = [
        {_json_key(k, 3): {(f, g): h for f, g, h in _json_triples(triples, name)}
         for k, triples in data[name].items()}
        for name in ("hcompose1", "hcompose2")
    ]
    return Fin2Category(
        tuple(_json_value(data["objects"], "array", "objects")),
        {_json_key(k, 2): _category(v) for k, v in data["hom"].items()},
        *hcompose, dict(_json_value(data["unit1"], "object", "unit1")))


def two_category_from_json(data: dict) -> Fin2Category:
    """Load schema twocat/1; raises ValueError on malformed data, and on a
    2-category that `validate_2cat` rejects."""
    _check_json(data, "twocat/1", ("objects", "hom", "hcompose1", "hcompose2", "unit1"))
    return _load("twocat/1", _two_category, data, validate_2cat)


def _functor_to_json(F: TwoFunctor, src_shape, dst_shape):
    """F as the functor entry of a theta/1 arrow between the two shapes."""
    return {
        "source": str(src_shape),
        "target": str(dst_shape),
        "on_objects": dict(sorted(F.on_objects.items())),
        "hom": {
            f"{x}|{y}": {
                "one": dict(sorted(om.items())),
                "two": dict(sorted(mm.items())),
            }
            for (x, y), (om, mm) in sorted(F.hom_maps.items())
        },
    }


def _functor_from_json(shapes: dict, data) -> TwoFunctor:
    """The 2-functor of a theta/1 functor entry between the pasting
    2-categories of its shapes, read from shapes (see `_shape_object`);
    ValueError on one that `validate_two_functor` rejects."""
    D, E = (_shape_object(shapes, parse_shape(data[end])) for end in ("source", "target"))

    def parse(data):
        tables = {_json_key(k, 2): tuple(dict(_json_value(v[part], "object", "a hom map"))
                                         for part in ("one", "two"))
                  for k, v in data["hom"].items()}
        return TwoFunctor(D, E, dict(_json_value(data["on_objects"], "object", "on_objects")),
                          tables)

    return _load("not a 2-functor", parse, data, validate_two_functor)
