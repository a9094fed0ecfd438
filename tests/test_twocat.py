import collections
import copy
import gc
import itertools
import math
import pickle
import random
import sys
import tracemalloc
from functools import cached_property, partial

import pytest
from hypothesis import assume, given, settings, strategies as st

from theta2kit import twocat as T
from theta2kit.msset import ResourceLimitError

from raw_oracles import (
    raw_atoms, raw_chain_count, raw_enumerate_full, raw_enumerate_two_functors,
    raw_factorizations, raw_fold_hom_maps, raw_functors, raw_object_maps, raw_plan,
    raw_suspension_decomposition, raw_theta2_decomposition, raw_validate_2cat,
    raw_validate_two_functor)


# ---------------------------------------------------------------------------
# 1-categories


def test_ordinal_counts():
    assert T.ordinal(-1).objects == ()
    assert len(T.ordinal(0).morphisms) == 1
    C = T.ordinal(3)
    assert len(C.objects) == 4
    assert len(C.morphisms) == 10
    assert T.validate_category(C).ok


def test_free_iso():
    I = T.free_iso()
    assert len(I.objects) == 2 and len(I.morphisms) == 4
    assert T.validate_category(I).ok
    assert I.is_invertible("f") and I.is_invertible("g")


def test_product_poset():
    P = T.product_poset((2, 0, 1))
    assert len(P.objects) == 6
    assert T.validate_category(P).ok
    assert T.product_poset(()).objects == ("()",)


@given(st.integers(0, 3), st.integers(0, 4))
def test_chain_count_binomial(m, j):
    # composable j-chains in [m] are monotone maps [j] -> [m]
    assert T.chain_count(T.ordinal(m), j) == math.comb(m + j + 1, j + 1)


@pytest.mark.parametrize("make", [
    pytest.param(lambda: T.chain_count(T.product_poset((1,)), -1), id="j=-1"),
    pytest.param(lambda: T.chain_count(T.ordinal(2), 1.5), id="j=1.5"),
    pytest.param(lambda: T.chain_count(T.ordinal(2), True), id="j=True"),
    pytest.param(lambda: T.product_poset((-1,)), id="k=-1"),
    pytest.param(lambda: T.product_poset((1, "2")), id="k='2'"),
    pytest.param(lambda: T.ordinal(-2), id="m=-2"),
    pytest.param(lambda: T.ordinal("3"), id="m='3'"),
    pytest.param(lambda: T.Theta2Shape(1, ("1",)), id="shape ks='1'"),
    pytest.param(lambda: T.Theta2Shape(1.0, (1,)), id="shape m=1.0"),
    pytest.param(lambda: T.Theta2Shape(1, 1), id="shape ks=1"),
    pytest.param(lambda: T.Theta2Shape(True, (1,)), id="shape m=True"),
    pytest.param(lambda: T.Theta2Shape(1, (True,)), id="shape k=True"),
    pytest.param(lambda: T.ordinal(True), id="m=True"),
    pytest.param(lambda: T.cell(True), id="cell j=True"),
    pytest.param(lambda: T.cell(1.0), id="cell j=1.0"),
    pytest.param(lambda: T.product_poset((True,)), id="k=True"),
])
def test_bad_arguments_raise_value_error(make):
    with pytest.raises(ValueError):
        make()


def test_chain_count_free_iso():
    # the classical nerve of the free isomorphism has 2 simplices per
    # dimension beyond the identities: 2 + (2^{j+1} - 2) ... exhaustively:
    I = T.free_iso()
    assert T.chain_count(I, 0) == 2
    assert T.chain_count(I, 1) == 4
    # chains alternate freely: each next arrow is determined by its source
    assert T.chain_count(I, 2) == 8


def test_chain_counts_are_kept_per_category_and_match_the_dp():
    # every hom of the 40 shapes with m <= 3, k <= 2, j <= 3: the count is
    # the uncached one cold and warm, kept once per j, and an equal hom
    # built separately counts its own (homs with equal slices are one)
    for shape in _shapes(3, 2):
        homs = T.theta2_object(shape).hom
        again, counted = T._build_theta2_object(shape).hom, set()
        for pair, H in homs.items():
            want = {j: raw_chain_count(H, j) for j in range(4)}
            for j in (3, 0, 2, 1, 3, 0, 2, 1):
                assert T.chain_count(H, j) == want[j], (shape, pair, j)
            assert H._chain_counts == want
            cold = again[pair]
            assert ("_chain_counts" in vars(cold)) == (id(cold) in counted)
            counted.add(id(cold))
            assert [T.chain_count(cold, j) for j in range(4)] == list(want.values())


def test_enumerate_functors_monotone_count():
    for m, n in [(1, 1), (1, 2), (2, 1), (2, 2)]:
        fs = T.enumerate_functors(T.ordinal(m), T.ordinal(n))
        assert len(fs) == math.comb(m + n + 1, m + 1)
        assert all(T.validate_functor(F).ok for F in fs)


def test_enumerate_functors_to_iso():
    # a functor [1] -> I is any choice of arrow, including identities
    fs = T.enumerate_functors(T.ordinal(1), T.free_iso())
    assert len(fs) == 4
    # nondegenerate chains: exactly 2 per positive dimension
    nondeg = [F for F in fs if F.obj_map["0"] != F.obj_map["1"]]
    assert len(nondeg) == 2


def test_functor_compose():
    f = T.enumerate_functors(T.ordinal(1), T.ordinal(2))[0]
    g = T.enumerate_functors(T.ordinal(2), T.ordinal(1))[0]
    h = f.compose(g)
    assert T.validate_functor(h).ok


def _z2():
    """The group Z/2 as a one-object category: not thin."""
    return T.FinCategory(
        ("*",), {"e": ("*", "*"), "t": ("*", "*")}, {"*": "e"},
        {("e", "e"): "e", ("e", "t"): "t", ("t", "e"): "t", ("t", "t"): "e"},
    )


def _parallel_pair():
    """Two parallel arrows u, v: 0 -> 1: not thin."""
    return T.FinCategory(
        ("0", "1"),
        {"0>0": ("0", "0"), "1>1": ("1", "1"), "u": ("0", "1"), "v": ("0", "1")},
        {"0": "0>0", "1": "1>1"},
        {("0>0", "0>0"): "0>0", ("1>1", "1>1"): "1>1", ("0>0", "u"): "u",
         ("0>0", "v"): "v", ("u", "1>1"): "u", ("v", "1>1"): "v"},
    )


def _free_idempotent():
    """One object, the identity and an idempotent e;e = e: e has no
    factorization into atoms, since it is its own composite."""
    return T.FinCategory(
        ("*",), {"1": ("*", "*"), "e": ("*", "*")}, {"*": "1"},
        {("1", "1"): "1", ("1", "e"): "e", ("e", "1"): "e", ("e", "e"): "e"},
    )


def _transformation_monoid(maps):
    """The monoid of self-maps of {0, 1, 2} that maps generate, as a
    category with one object; a map is named by its images, as "102",
    and f;g is f then g."""
    ident = (0, 1, 2)
    elements, todo = {ident}, [ident]
    while todo:
        f = todo.pop()
        for g in maps:
            h = tuple(g[x] for x in f)
            if h not in elements:
                elements.add(h)
                todo.append(h)

    def name(f):
        return "".join(map(str, f))

    return T.FinCategory(
        ("*",),
        {name(f): ("*", "*") for f in elements},
        {"*": name(ident)},
        {(name(f), name(g)): name(g[x] for x in f) for f in elements for g in elements},
    )


def _functors_by_brute_force(C, D):
    """Every assignment of objects and morphisms that validate_functor
    accepts, as sorted keys."""
    objs, mors = sorted(C.objects), sorted(C.morphisms)
    keys = []
    for images in itertools.product(sorted(D.objects), repeat=len(objs)):
        obj_map = dict(zip(objs, images))
        choices = [D.hom(obj_map[C.src(f)], obj_map[C.tgt(f)]) for f in mors]
        for assigned in itertools.product(*choices):
            F = T.Functor(C, D, obj_map, dict(zip(mors, assigned)))
            if T.validate_functor(F).ok:
                keys.append(F.key())
    return sorted(keys)


def _functor_tables(fs):
    """Each functor's obj_map as a list, so that key order counts, and its
    mor_map sorted: that key order follows the source's plan, which the
    atom-only oracles do not share."""
    return [(list(F.obj_map.items()), sorted(F.mor_map.items())) for F in fs]


@pytest.mark.parametrize("C, D", [
    pytest.param(T.ordinal(1), T.ordinal(2), id="[1]->[2]"),
    pytest.param(T.ordinal(2), T.ordinal(3), id="[2]->[3]"),
    pytest.param(T.ordinal(3), T.ordinal(1), id="[3]->[1]"),
    pytest.param(T.ordinal(2), T.product_poset((1, 2)), id="[2]->[1]x[2]"),
    pytest.param(T.product_poset((1, 1)), T.product_poset((2, 1)),
                 id="[1]x[1]->[2]x[1]"),
    pytest.param(T.ordinal(1), T.free_iso(), id="[1]->I"),
    pytest.param(T.product_poset((1, 1)), T.free_iso(), id="[1]x[1]->I"),
])
def test_thin_target_skips_only_redundant_checks(C, D, monkeypatch):
    thin = T.enumerate_functors(C, D)
    monkeypatch.setattr(T.FinCategory, "thin", property(lambda self: False))
    checked = T.enumerate_functors(C, D)
    # same functors, same order, same key order in every map
    assert _functor_tables(thin) == _functor_tables(checked)
    assert [list(F.mor_map) for F in thin] == [list(F.mor_map) for F in checked]
    assert sorted(F.key() for F in thin) == _functors_by_brute_force(C, D)


@pytest.mark.parametrize("C, D", [
    pytest.param(T.product_poset((1, 1)), _z2(), id="[1]x[1]->Z/2"),
    pytest.param(T.product_poset((1, 1)), _parallel_pair(), id="[1]x[1]->u,v"),
    pytest.param(T.ordinal(2), _z2(), id="[2]->Z/2"),
    pytest.param(_z2(), _z2(), id="Z/2->Z/2"),
])
def test_functors_into_non_thin_targets(C, D):
    # a square can map to two different composites here, so the
    # functoriality check is what rejects the non-functors
    fs = T.enumerate_functors(C, D)
    assert all(T.validate_functor(F).ok for F in fs)
    assert sorted(F.key() for F in fs) == _functors_by_brute_force(C, D)


def test_thinness():
    for D in [T.ordinal(3), T.product_poset((1, 2)), T.free_iso()]:
        assert D.thin
    for D in [_z2(), _parallel_pair()]:
        assert not D.thin


def test_free_idempotent_is_a_source():
    # its atoms generate nothing, so e itself becomes a generator
    E = _free_idempotent()
    assert T.validate_category(E).ok
    assert E.plan == (["e"], [])
    fs = T.enumerate_functors(E, E)
    assert sorted(F.key() for F in fs) == _functors_by_brute_force(E, E)
    assert [F.mor_map["e"] for F in fs] == ["1", "e"]
    SE = T.suspend_category(E)
    gs = T.enumerate_two_functors(SE, SE)
    assert len(gs) == 4 and all(T.validate_two_functor(G).ok for G in gs)


_self_maps = st.tuples(*[st.integers(0, 2)] * 3)


@settings(max_examples=25, deadline=None)
@given(st.lists(_self_maps, min_size=1, max_size=2),
       st.lists(_self_maps, min_size=1, max_size=2))
def test_functors_between_transformation_monoids_match_brute_force(ms, ns):
    # idempotents and cycles hide generators that are not atoms
    M, N = _transformation_monoid(ms), _transformation_monoid(ns)
    assume(len(N.morphisms) ** len(M.morphisms) <= 10_000)
    fs = T.enumerate_functors(M, N)
    want = _functors_by_brute_force(M, N)
    assert sorted(F.key() for F in fs) == want
    gens, composites = M.plan
    assert {f for f, _, _ in composites} | set(gens) | {"012"} == set(M.morphisms)
    assert len(T.enumerate_two_functors(
        T.suspend_category(M), T.suspend_category(N))) == len(want) + 2


# ---------------------------------------------------------------------------
# the one-object-at-a-time search: oracle of the bitmask object search


def _enumerate_functors_by_objects(C, D, guard):
    """enumerate_functors placing objects one at a time, each checked
    against the homs of the atoms it closes, and atoms always tried one
    by one."""
    if not C.objects:
        return [T.Functor(C, D, {}, {})]
    if not D.objects and C.objects:
        return []
    atoms = raw_atoms(C)
    factor = raw_factorizations(C, atoms)
    homs = {}
    for f in sorted(D.morphisms):
        homs.setdefault(D.morphisms[f], []).append(f)

    def hom(a, b):
        return homs.get((a, b), [])

    composites = []
    seen = {C.identity[x] for x in C.objects} | set(atoms)

    def visit(f):
        if f not in seen:
            g, h = factor[f]
            visit(g)
            visit(h)
            seen.add(f)
            composites.append((f, g, h))

    for f in C.morphisms:
        visit(f)
    identities = [(C.identity[x], x) for x in C.objects]
    relations = [] if D.thin else [
        (f, g, C.then(f, g))
        for f in C.morphisms
        for g in C.morphisms
        if C.tgt(f) == C.src(g)
    ]
    objs = sorted(C.objects)
    targets = sorted(D.objects)
    atom_ends = {
        x: [C.morphisms[f] for f in atoms if x in C.morphisms[f]] for x in objs
    }
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

    def assign_atoms(obj_map, k, atom_map):
        if k == len(atoms):
            mor_map = derive(dict(obj_map), dict(atom_map))
            if mor_map is not None:
                results.append(T.Functor(C, D, dict(obj_map), mor_map))
            return
        f = atoms[k]
        a, b = C.morphisms[f]
        for g in hom(obj_map[a], obj_map[b]):
            guard.step()
            atom_map[f] = g
            assign_atoms(obj_map, k + 1, atom_map)
            del atom_map[f]

    def assign_objects(k, obj_map):
        if k == len(objs):
            assign_atoms(obj_map, 0, {})
            return
        x = objs[k]
        for y in targets:
            guard.step()
            obj_map[x] = y
            ok = all(
                hom(obj_map[a], obj_map[b])
                for a, b in atom_ends[x]
                if a in obj_map and b in obj_map
            )
            if ok:
                assign_objects(k + 1, obj_map)
            del obj_map[x]

    assign_objects(0, {})
    return results


def _enumerate_free_uncached(D, E, guard):
    """_enumerate_free placing objects one at a time, with the segment
    functors from _enumerate_functors_by_objects enumerated again at every
    object assignment.  The steps of enumerating them go into guard once
    per distinct (segment hom, target hom) pair, as one call's guard
    counts them."""
    objs = sorted(D.objects)
    eobjs = sorted(E.objects)
    results = []
    seg_homs = {pair: D.hom_at(*pair) for pair in D.segments}
    charged = set()  # ids of the (segment hom, target hom) pairs counted

    def assign(k, on_objects):
        if k == len(objs):
            choice_lists = []
            for pair in D.segments:
                fx, fy = on_objects[pair[0]], on_objects[pair[1]]
                He = E.hom_at(fx, fy)
                if He is None:
                    return
                key = (id(seg_homs[pair]), id(He))
                fns = _enumerate_functors_by_objects(
                    seg_homs[pair], He,
                    T._Guard(guard.limit, "enumerate_functors") if key in charged
                    else guard,
                )
                charged.add(key)
                guard.step(len(fns))
                if not fns:
                    return
                choice_lists.append(fns)
            for combo in itertools.product(*choice_lists):
                guard.step()
                tables = {p: (G.obj_map, G.mor_map) for p, G in zip(D.segments, combo)}
                results.append(T.TwoFunctor(D, E, dict(on_objects), tables))
            return
        x = objs[k]
        for y in eobjs:
            guard.step()
            on_objects[x] = y
            ok = True
            for a, b in D.segments:
                if a in on_objects and b in on_objects:
                    if E.hom_at(on_objects[a], on_objects[b]) is None:
                        ok = False
                        break
            if ok:
                assign(k + 1, on_objects)
            del on_objects[x]

    assign(0, {})
    return results


class _Recorded(T._Guard):
    """A _Guard that keeps every instance, to read its count afterwards."""

    made = []

    def __init__(self, *args):
        super().__init__(*args)
        self.made.append(self)


def _functors_and_steps(C, D):
    """enumerate_functors(C, D) and the steps its guard used."""
    _Recorded.made.clear()
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(T, "_Guard", _Recorded)
        fs = T.enumerate_functors(C, D)
    return fs, (_Recorded.made[0].count if _Recorded.made else 0)


def _oracle_functors_and_steps(C, D):
    guard = T._Guard(2_000_000, "enumerate_functors")
    return _enumerate_functors_by_objects(C, D, guard), guard.count


@pytest.mark.parametrize("C, D", [
    pytest.param(T.ordinal(1), T.ordinal(2), id="[1]->[2]"),
    pytest.param(T.ordinal(2), T.ordinal(3), id="[2]->[3]"),
    pytest.param(T.ordinal(3), T.ordinal(1), id="[3]->[1]"),
    pytest.param(T.ordinal(2), T.ordinal(-1), id="[2]->empty"),
    pytest.param(T.ordinal(-1), T.ordinal(2), id="empty->[2]"),
    pytest.param(T.ordinal(2), T.product_poset((1, 2)), id="[2]->[1]x[2]"),
    pytest.param(T.product_poset((1, 1)), T.product_poset((2, 1)),
                 id="[1]x[1]->[2]x[1]"),
    pytest.param(T.ordinal(1), T.free_iso(), id="[1]->I"),
    pytest.param(T.product_poset((1, 1)), T.free_iso(), id="[1]x[1]->I"),
    pytest.param(T.free_iso(), T.product_poset((1, 1)), id="I->[1]x[1]"),
    pytest.param(T.product_poset((1, 1)), _z2(), id="[1]x[1]->Z/2"),
    pytest.param(T.product_poset((1, 1)), _parallel_pair(), id="[1]x[1]->u,v"),
    pytest.param(T.ordinal(2), _z2(), id="[2]->Z/2"),
    pytest.param(_z2(), _z2(), id="Z/2->Z/2"),
    pytest.param(_parallel_pair(), _parallel_pair(), id="u,v->u,v"),
])
def test_enumerate_functors_matches_object_by_object_oracle(C, D):
    got, steps = _functors_and_steps(C, D)
    want, want_steps = _oracle_functors_and_steps(C, D)
    # same functors, same order, same key order in every map, same steps
    assert _functor_tables(got) == _functor_tables(want)
    assert steps == want_steps


@settings(max_examples=30, deadline=None)
@given(
    st.lists(st.integers(0, 2), max_size=2),
    st.lists(st.integers(0, 2), max_size=2),
)
def test_enumerate_functors_between_product_posets_matches_oracle(ks, ls):
    C, D = T.product_poset(ks), T.product_poset(ls)
    got, steps = _functors_and_steps(C, D)
    want, want_steps = _oracle_functors_and_steps(C, D)
    assert _functor_tables(got) == _functor_tables(want)
    assert steps == want_steps


def _hom_grid_hom_pairs():
    """Each (segment hom, target hom) pair that the hom-grid cells
    [i|j,...,j] -> theta, i, j <= 2, theta among the shapes with m <= 3 and
    k <= 2, hand to _functors, one pair per distinct pair of tables, and
    the test sources into Z/2 and the parallel pair, which are not thin,
    and into free_iso(), which is thin with invertible arrows."""
    pairs = {}
    for shape in _shapes(3, 2):
        E = T.theta2_object(shape)
        for i in range(3):
            for j in range(3):
                D = T.theta2_object(T.Theta2Shape(i, (j,) * i))
                for pair in D.segments:
                    for He in E.hom.values():
                        H = D.hom[pair]
                        key = (tuple(sorted(H.morphisms)), tuple(sorted(He.morphisms)))
                        pairs.setdefault(key, (H, He))
    sources = [T.ordinal(k) for k in range(3)]
    sources += [T.product_poset((1, 1)), _z2(), _parallel_pair(), T.free_iso()]
    for D in [_z2(), _parallel_pair(), T.free_iso()]:
        pairs.update(((id(C), id(D)), (C, D)) for C in sources)
    return list(pairs.values())


def _items(fs):
    """(obj_map, mor_map) pairs as lists of items, as `_functor_tables`
    gives them."""
    return [(list(o.items()), sorted(m.items())) for o, m in fs]


def _steps_and_tables(functors, C, D, read=list):
    """functors(C, D, guard), read by read into a list and given by
    `_items`, and the steps its guard used, reads included."""
    guard = T._Guard(2_000_000, "enumerate_functors")
    fs = read(functors(C, D, guard))
    return guard.count, _items(fs)


def _out_of_order(fs):
    """The items of the sequence fs in index order, read back to front by
    negative index and then again by slices, each slice's items checked to
    be the objects read before."""
    n = len(fs)
    got = [None] * n
    for k in range(1, n + 1):
        got[n - k] = fs[-k]
    for cut in (slice(None, None, -1), slice(1, None, 2), slice(None, None, 3),
                slice(-3, None), slice(n, None)):
        part = fs[cut]
        assert type(part) is list and len(part) == len(range(n)[cut])
        assert all(a is got[i] for i, a in zip(range(n)[cut], part))
    return got


def _raw_functors(C, D, guard):
    return raw_functors(C, raw_plan(C), D, guard)


def _raw_functor_tables(C, D, guard):
    return [(F.obj_map, F.mor_map) for F in _raw_functors(C, D, guard)]


def test_hom_functor_tables_match_the_functor_oracle():
    # same functors, same order, same key order in every map, same steps,
    # whether read in order or out of it
    pairs = _hom_grid_hom_pairs()
    assert len(pairs) > 100
    for C, D in pairs:
        want = _steps_and_tables(_raw_functor_tables, C, D)
        where = (sorted(C.morphisms), sorted(D.morphisms))
        assert _steps_and_tables(T._functors, C, D) == want, where
        assert _steps_and_tables(T._functors, C, D, _out_of_order) == want, where


def test_plan_generators_are_the_atoms_wherever_atoms_suffice():
    # every category the atom-only planner could plan: the ends of the
    # hom-grid pairs, whatever their size, and the product posets
    cats = {id(C): C for pair in _hom_grid_hom_pairs() for C in pair
            if len(C.morphisms) <= 60}
    cats.update((id(C), C) for C in (T.product_poset(s.ks) for s in _shapes(2, 2)))
    assert len(cats) > 20
    for C in cats.values():
        _, atoms, _, _, want, _ = raw_plan(C)
        gens, composites = C.plan
        assert gens == atoms
        assert sorted(c[0] for c in composites) == sorted(c[0] for c in want)
        seen = set(C.identity.values()) | set(gens)
        for f, g, h in composites:
            assert g in gens and h in seen and C.then(g, h) == f
            seen.add(f)


@pytest.mark.parametrize("C, D", [
    pytest.param(T.product_poset((1, 1)), T.product_poset((2, 1)), id="[1]x[1]->[2]x[1]"),
    pytest.param(T.ordinal(2), T.ordinal(3), id="[2]->[3]"),
    pytest.param(T.ordinal(0), T.ordinal(4), id="[0]->[4]"),
    pytest.param(T.ordinal(2), _parallel_pair(), id="[2]->u,v"),
])
def test_hom_functor_guard_stops_where_the_oracle_stops(C, D):
    # the steps of each object map into a thin target are charged at once;
    # below the total, both stop at the same step count
    total, _ = _steps_and_tables(_raw_functor_tables, C, D)
    assert total > 3
    for limit in range(total):
        stops = []
        for functors in (T._functors, _raw_functors):
            guard = T._Guard(limit, "enumerate_functors")
            with pytest.raises(ResourceLimitError) as e:
                functors(C, D, guard)
            stops.append(e.value.steps)
        assert stops[0] == stops[1] > limit, limit


def test_enumerate_functors_builds_every_functor():
    fs = T.enumerate_functors(T.ordinal(2), T.ordinal(3))
    assert type(fs) is list and len(fs) == 20
    assert all(type(F) is T.Functor for F in fs)


def test_enumerate_functors_lists_the_object_maps_once(monkeypatch):
    # every functor is built, so the object maps into a thin target are
    # listed once, under the call's guard, and not counted first
    C, D = T.ordinal(3), T.product_poset((2, 2, 2))
    calls = collections.Counter()
    for name in ("_object_maps", "_count_object_maps"):
        def recorded(*args, name=name, search=getattr(T, name)):
            calls[name] += 1
            return search(*args)

        monkeypatch.setattr(T, name, recorded)
    fs, steps = _functors_and_steps(C, D)
    assert (calls["_count_object_maps"], calls["_object_maps"]) == (0, 1)
    guard = T._Guard(2_000_000, "enumerate_functors")
    want = _raw_functors(C, D, guard)
    assert len(fs) == 3375 and steps == guard.count
    assert _items((F.obj_map, F.mor_map) for F in fs) == _items(
        (F.obj_map, F.mor_map) for F in want)
    for limit in (0, 1, 23, steps // 2, steps - 1):
        with pytest.raises(ResourceLimitError) as got:
            T.enumerate_functors(C, D, limit)
        with pytest.raises(ResourceLimitError) as oracle:
            _raw_functors(C, D, T._Guard(limit, "enumerate_functors"))
        assert got.value.operation == "enumerate_functors"
        assert got.value.steps == oracle.value.steps > limit, limit
    assert len(T.enumerate_functors(C, D, steps)) == 3375


class _ReadImages(list):
    """A list of object images that records each read of its items."""

    def __init__(self, items, reads):
        super().__init__(items)
        self.reads = reads

    def __getitem__(self, i):
        self.reads.append(i)
        return super().__getitem__(i)

    def __iter__(self):
        self.reads.append("iter")
        return super().__iter__()


@pytest.mark.parametrize("source", [(2, (2, 2)), (1, (1,)), (3, (1, 1, 1))])
def test_counting_two_functors_into_thin_homs_builds_no_hom_functor_table(
        monkeypatch, source):
    # a hom functor's tables are made from its object images alone, so a
    # count that reads none of those builds no table
    reads = []
    object_maps = T._object_maps

    def recorded(*args):
        out = object_maps(*args)
        # the images of hom functors, which only _functors' tables asks for,
        # on the first read of a functor's tables
        caller = sys._getframe(1).f_code.co_name
        return _ReadImages(out, reads) if caller == "tables" else out

    monkeypatch.setattr(T, "_object_maps", recorded)
    D = T.theta2_object(T.Theta2Shape(*source))
    E = T.theta2_object(T.Theta2Shape(3, (2, 1, 2)))
    fs = T.enumerate_two_functors(D, E)
    n = len(fs)
    assert n > 100
    assert reads == []
    # reading a 2-functor builds the tables of its own hom functors, once
    F = fs[n // 2]
    assert 0 < len(reads) <= len(D.segments)
    built = len(reads)
    assert fs[n // 2 - n] is F and len(reads) == built
    assert T.validate_two_functor(F).ok


def test_two_functors_share_the_tables_of_a_hom_functor():
    # every 2-functor that picks one hom functor holds its tables, not a copy
    D = T.theta2_object(T.Theta2Shape(2, (1, 1)))
    E = T.theta2_object(T.Theta2Shape(3, (1, 2, 1)))
    fs = T.enumerate_two_functors(D, E)
    held = {}
    for F in _out_of_order(fs):
        for pair, tables in F.tables.items():
            ends = (F.obj(pair[0]), F.obj(pair[1]))
            key = (id(D.hom[pair]), ends, repr(tables))
            assert held.setdefault(key, tables) is tables
    assert len(held) < sum(len(F.tables) for F in fs)


def test_thin_targets_read_images_off_their_ends():
    # into a thin target the images come from its morphisms' ends alone:
    # emptying its identity and compose tables changes nothing
    thin = [
        (C, D) for C, D in _hom_grid_hom_pairs()
        if max(collections.Counter(D.morphisms.values()).values()) == 1
    ]
    assert len(thin) > 100
    for C, D in thin:
        bare = T.FinCategory(D.objects, D.morphisms, {}, {})
        assert _steps_and_tables(T._functors, C, bare) == _steps_and_tables(
            T._functors, C, D)


def test_guard_limit_inside_a_batched_step():
    # the first object search node charges all 4 targets at once
    with pytest.raises(ResourceLimitError) as e:
        T.enumerate_functors(T.ordinal(1), T.ordinal(3), limit=2)
    assert e.value.operation == "enumerate_functors"
    assert e.value.steps == 4  # past the limit of 2 in one step
    # [2] -> [0]: three object nodes of one step, then the two atoms of the
    # one object map in one step
    assert len(T.enumerate_functors(T.ordinal(2), T.ordinal(0), limit=5)) == 1
    with pytest.raises(ResourceLimitError) as e:
        T.enumerate_functors(T.ordinal(2), T.ordinal(0), limit=4)
    assert e.value.operation == "enumerate_functors"
    assert e.value.steps == 5  # past the limit of 4 in one step
    # the segment search charges its 3 target objects at once
    with pytest.raises(ResourceLimitError) as e:
        T.enumerate_two_functors(
            T.cell(1), T.theta2_object(T.Theta2Shape(2, (0, 0))), limit=1
        )
    assert e.value.operation == "enumerate_two_functors"
    assert e.value.steps == 3  # past the limit of 1 in one step


def test_segment_functors_enumerated_once_per_pair_of_homs(monkeypatch):
    D = T.theta2_object(T.Theta2Shape(2, (2, 2)))
    E = T.theta2_object(T.Theta2Shape(3, (2, 2, 2)))
    calls = []
    functors = T._functors

    def counted(C, H, *args):
        calls.append((id(C), id(H)))
        return functors(C, H, *args)

    monkeypatch.setattr(T, "_functors", counted)
    fs = T.enumerate_two_functors(D, E)
    # both segments of D share one hom [2]; E has four distinct homs, the
    # posets of (), (2,), (2, 2) and (2, 2, 2), and every one is reached
    assert D.hom_at("0", "1") is D.hom_at("1", "2")
    assert len({id(H) for H in E.hom.values()}) == 4
    assert len(calls) == len(set(calls)) == 4
    chains = {pair: T.chain_count(H, 2) for pair, H in E.hom.items()}
    assert len(fs) == sum(
        chains[(x, y)] * chains[(y, z)]
        for (x, y) in chains
        for (y2, z) in chains
        if y2 == y
    )


def test_theta2_object_shares_homs_of_equal_slices():
    th = T.theta2_object(T.Theta2Shape(3, (2, 2, 2)))
    assert th.hom_at("0", "1") is th.hom_at("1", "2") is th.hom_at("2", "3")
    assert th.hom_at("0", "2") is th.hom_at("1", "3")
    assert th.hom_at("0", "0") is th.hom_at("3", "3")
    assert th.hom_at("0", "1") is not th.hom_at("0", "2")
    assert T.validate_2cat(th).ok


def test_theta2_object_tables_are_read_only():
    th = T.theta2_object(T.Theta2Shape(2, (1, 1)))
    for table in (th.hcompose1, th.hcompose2):
        key = next(iter(table))
        with pytest.raises(TypeError):
            table[key] = table[key]
    for table in (th.hcompose1, th.hcompose2):
        inner = table[("0", "1", "2")]
        with pytest.raises(TypeError):
            inner[next(iter(inner))] = "()"


def test_theta2_object_is_built_once_per_shape_instance():
    for shape in _shapes(3, 2):
        got = T.theta2_object(shape)
        assert got is T.theta2_object(shape), shape
        assert T.two_category_to_json(got) == T.two_category_to_json(
            T._build_theta2_object(shape)), shape
        # an equal shape made separately builds its own
        twin = T.Theta2Shape(shape.m, shape.ks)
        assert twin == shape and T.theta2_object(twin) is not got
        assert T.theta2_object(twin).signature == got.signature, shape


@pytest.mark.parametrize("copy_of", [
    pytest.param(copy.copy, id="copy"),
    pytest.param(copy.deepcopy, id="deepcopy"),
    pytest.param(lambda shape: pickle.loads(pickle.dumps(shape)), id="pickle"),
])
def test_shape_copies_carry_m_and_ks_alone(copy_of):
    # the kept 2-category holds read-only views, which do not pickle
    shape = T.Theta2Shape(2, (1, 2))
    before = copy_of(shape)
    built = T.theta2_object(shape)
    after = copy_of(shape)
    for twin in (before, after):
        assert twin == shape and vars(twin) == {"m": 2, "ks": (1, 2)}
        assert T.theta2_object(twin) is not built
        assert T.theta2_object(twin).signature == built.signature


def test_hom_bijection_builds_each_shape_once(monkeypatch):
    from theta2kit import cli, theta as TH

    built = []  # the shapes themselves, so that no two share an id
    build = T._build_theta2_object
    monkeypatch.setattr(T, "_build_theta2_object",
                        lambda shape: built.append(shape) or build(shape))
    theta = T.Theta2Shape(2, (1, 2))
    for i in range(3):
        for j in range(3):
            TH.d_restriction(theta, i, j)
    # theta once, and each cell's new source [i|j,...,j]
    assert [s for s in built if s is theta] == [theta] and len(built) == 1 + 9
    built.clear()
    ((_, ok, _),) = cli.check_hom_bijection(2, 1, 2)
    # 7 shapes [m|k_1,...,k_m], m <= 2, k <= 1, each with its 9 sources
    assert ok and len(built) == 7 * (1 + 9)
    assert set(collections.Counter(map(id, built)).values()) == {1}


def test_theta2_object_shares_horizontal_tables_per_slice_pair():
    th = T.theta2_object(T.Theta2Shape(3, (1, 1, 1)))
    # the triples (0, 1, 2) and (1, 2, 3) both compose [1] with [1]
    assert th.hcompose1[("0", "1", "2")] is th.hcompose1[("1", "2", "3")]
    assert th.hcompose2[("0", "1", "2")] is th.hcompose2[("1", "2", "3")]
    assert th.hcompose1[("0", "0", "1")] is th.hcompose1[("2", "2", "3")]
    assert th.hcompose1[("0", "1", "2")] is not th.hcompose1[("0", "1", "3")]


def test_theta2_object_holds_one_slice_per_pair_of_objects():
    # every triple (i, j, l) holds ks[i:j] and ks[j:l] as the one slice
    # made for (i, j) and for (j, l): the groups take O(m^3), not O(m^4)
    ks = (1, 2, 0, 2)
    triples = T.theta2_object(T.Theta2Shape(4, ks)).hcompose1._keys
    for (i, j, l), (s, t) in triples.items():
        assert s == ks[int(i):int(j)] and t == ks[int(j):int(l)]
        assert s is triples[(i, j, "4")][0] and t is triples[(j, l, "4")][0]


def _held_entries(D):
    """What theta2_object's D holds before any lookup, in two parts: one
    entry per object triple and the elements of the one slice per (i, j);
    then the compose table of each distinct hom's poset."""
    triples = D.hcompose1._keys  # (i, j, l) -> (ks[i:j], ks[j:l])
    slices = {t[:2]: s for t, (s, _) in triples.items()}
    posets = {id(H): len(H.compose) for H in D.hom.values()}
    return len(triples) + sum(map(len, slices.values())), sum(posets.values())


@pytest.mark.parametrize("shape", [T.Theta2Shape(m, ks) for m in range(3)
                                   for ks in itertools.product(range(3), repeat=m)]
                         + [T.Theta2Shape(m, (0,) * m) for m in range(3, 41)], ids=str)
def test_theta2_object_size_counts_the_tables_it_holds(shape):
    assert tuple(T.theta2_object_size(shape)) == _held_entries(T.theta2_object(shape))


def test_ordinal_size_counts_its_compose_table():
    assert [T.ordinal_size(n) for n in range(-1, 41)] == [
        len(T.ordinal(n).compose) for n in range(-1, 41)]


def test_theta2_object_tables_are_mappings():
    th = T.theta2_object(T.Theta2Shape(2, (1, 2)))
    want = _theta2_object_by_comparison(T.Theta2Shape(2, (1, 2)))
    for name in ("hcompose1", "hcompose2"):
        table = getattr(th, name)
        assert len(table) == len(getattr(want, name)), name
        assert table.get(("2", "1", "0")) is None
        assert table.get(("0", "1", "2", "3"), 7) == 7
        assert ("2", "1", "0") not in table
    assert ("0", "1", "2") in th.hcompose1
    assert len(th.hcompose1) == 10  # the triples i <= j <= l of 0, 1, 2
    with pytest.raises(KeyError):
        th.hcompose2[("1", "0", "2")]


def _count_table_builds(monkeypatch):
    """Make every lazy table of theta2_object count its builds in the
    list returned, one entry (id of the table, group) per build."""
    builds = []
    init = T._LazyTable.__init__

    def counted(self, keys, build):
        def build_counted(group):
            builds.append((id(self), group))
            return build(group)

        init(self, keys, build_counted)

    monkeypatch.setattr(T._LazyTable, "__init__", counted)
    return builds


def test_enumerating_two_functors_builds_no_horizontal_table(monkeypatch):
    builds = _count_table_builds(monkeypatch)
    D = T.theta2_object(T.Theta2Shape(2, (2, 2)))
    E = T.theta2_object(T.Theta2Shape(3, (2, 2, 2)))
    fs = T.enumerate_two_functors(D, E)
    # deciding that D is free reads D's tables of its one chain triple
    # (0, 1, 2), the slice pair ((2,), (2,)); no table of E is built
    chain = ((2,), (2,))
    assert len(fs) == 4664
    assert sorted(builds) == sorted(
        [(id(D.hcompose1), chain), (id(D.hcompose2), chain)]
    )
    # the tables are there when a caller reads them: a functor's full
    # tables go through D's and E's horizontal composites
    fs[-1].hom_maps
    assert len(builds) > 0
    assert T.validate_two_functor(fs[-1]).ok


def test_horizontal_tables_built_once_per_slice_pair(monkeypatch):
    builds = _count_table_builds(monkeypatch)
    th = T.theta2_object(T.Theta2Shape(3, (2, 2, 2)))
    for key in th.hcompose1:
        th.hcompose1[key]
    pairs = {((2,) * (j - i), (2,) * (l - j))
             for i in range(4) for j in range(i, 4) for l in range(j, 4)}
    assert len(th.hcompose1) == 20 and len(pairs) == 10
    assert sorted(builds) == sorted((id(th.hcompose1), p) for p in pairs)


def test_segment_homs_planned_once_per_call(monkeypatch):
    plan = T.FinCategory.plan.func
    calls = []

    def counted(C):
        calls.append(id(C))
        return plan(C)

    counted_plan = cached_property(counted)
    counted_plan.__set_name__(T.FinCategory, "plan")
    monkeypatch.setattr(T.FinCategory, "plan", counted_plan)
    E = T.theta2_object(T.Theta2Shape(3, (2, 2, 2)))
    # [2|2,2]'s two segments share one hom; [2|1,2]'s do not
    for ks, planned in [((2, 2), 1), ((1, 2), 2)]:
        calls.clear()
        T.enumerate_two_functors(T.theta2_object(T.Theta2Shape(2, ks)), E)
        assert len(calls) == len(set(calls)) == planned, ks


def _cyclic_garbage(fn, *args):
    """The objects the cyclic collector frees after fn(*args) runs with
    the collector off."""
    gc.collect()
    gc.disable()
    try:
        fn(*args)
        return gc.collect()
    finally:
        gc.enable()


def _parallel_pair():
    """Two objects and two parallel arrows u, v: a category that is not thin."""
    return T.FinCategory(
        ("a", "b"),
        {"a>a": ("a", "a"), "b>b": ("b", "b"), "u": ("a", "b"), "v": ("a", "b")},
        {"a": "a>a", "b": "b>b"},
        {("a>a", "a>a"): "a>a", ("b>b", "b>b"): "b>b", ("a>a", "u"): "u",
         ("a>a", "v"): "v", ("u", "b>b"): "u", ("v", "b>b"): "v"},
    )


def test_object_maps_leave_no_cyclic_garbage():
    D = T.theta2_object(T.Theta2Shape(2, (2, 2)))
    E = T.theta2_object(T.Theta2Shape(3, (2, 2, 2)))
    assert _cyclic_garbage(T.enumerate_two_functors, D, E) == 0


def test_functor_plan_leaves_no_cyclic_garbage():
    # [3] has composites of composites, so the factor walk goes deep
    assert len(T.ordinal(3).plan[1]) == 3
    assert _cyclic_garbage(lambda C: C.plan, T.ordinal(3)) == 0


def test_atom_choices_leave_no_cyclic_garbage():
    # a target that is not thin takes the search over each atom's images
    fs = T.enumerate_functors(T.ordinal(2), _parallel_pair())
    assert len(fs) == 6
    assert _cyclic_garbage(T.enumerate_functors, T.ordinal(2), _parallel_pair()) == 0


def _two_functor_tables(fs):
    """Object and segment tables of each 2-functor, as lists, so that key
    order counts too, but for the 2-cell maps, which are sorted as in
    `_functor_tables`."""
    return [
        (
            list(F.on_objects.items()),
            [(pair, [(list(om.items()), sorted(mm.items()))])
             for pair, (om, mm) in F.tables.items()],
        )
        for F in fs
    ]


def test_two_functor_enumeration_matches_uncached_checked_oracle(monkeypatch):
    # the 360 hom-grid cells [i|j,...,j] -> [m|k_1,...,k_m], i, j, k <= 2, m <= 3
    monkeypatch.setattr(T, "_Guard", _Recorded)
    for shape in _shapes(3, 2):
        E = T.theta2_object(shape)
        for i in range(3):
            for j in range(3):
                D = T.theta2_object(T.Theta2Shape(i, (j,) * i))
                _Recorded.made.clear()
                got = T.enumerate_two_functors(D, E)
                steps = _Recorded.made[0].count
                with monkeypatch.context() as checked:
                    checked.setattr(T.FinCategory, "thin", property(lambda self: False))
                    guard = T._Guard(5_000_000, "enumerate_two_functors")
                    want = _enumerate_free_uncached(D, E, guard)
                assert _two_functor_tables(got) == _two_functor_tables(want), (
                    shape, i, j
                )
                assert steps == guard.count, (shape, i, j)


@pytest.mark.parametrize("src, dst", [
    ((2, (1, 2)), (2, (2, 1))),
    ((2, (2, 0)), (3, (1, 2, 0))),
    ((3, (0, 1, 0)), (2, (1, 1))),
])
def test_two_functors_from_unequal_segments_match_oracle(src, dst, monkeypatch):
    # segments with different homs must not share a functor list
    D, E = T.theta2_object(T.Theta2Shape(*src)), T.theta2_object(T.Theta2Shape(*dst))
    monkeypatch.setattr(T, "_Guard", _Recorded)
    _Recorded.made.clear()
    got = T.enumerate_two_functors(D, E)
    steps = _Recorded.made[0].count
    guard = T._Guard(5_000_000, "enumerate_two_functors")
    want = _enumerate_free_uncached(D, E, guard)
    assert _two_functor_tables(got) == _two_functor_tables(want)
    assert steps == guard.count


def test_one_guard_covers_a_two_functor_enumeration(monkeypatch):
    # the steps of enumerating the segment functors count against the
    # call's own limit, and an overrun among them names the call
    D = T.theta2_object(T.Theta2Shape(1, (2,)))
    E = T.theta2_object(T.Theta2Shape(1, (3,)))
    with monkeypatch.context() as recorded:
        recorded.setattr(T, "_Guard", _Recorded)
        _Recorded.made.clear()
        assert len(T.enumerate_two_functors(D, E)) == 22
    assert len(_Recorded.made) == 1
    total = _Recorded.made[0].count
    assert len(T.enumerate_two_functors(D, E, limit=total)) == 22
    for limit in range(total):
        with pytest.raises(ResourceLimitError) as e:
            T.enumerate_two_functors(D, E, limit=limit)
        assert e.value.operation == "enumerate_two_functors", limit


def _thin_hom_pairs(D, E):
    """Each (generating hom of D, hom of E) pair that enumerating D -> E
    could count, once per pair of FinCategory objects."""
    pairs = {}
    for pair in T._generating_homs(D):
        for He in E.hom.values():
            pairs.setdefault((id(D.hom[pair]), id(He)), (D.hom[pair], He))
    return list(pairs.values())


def _nonempty(D):
    """The pairs of objects of D, a category or a 2-category, with a
    nonempty hom, as the oracle's search reads them."""
    return list(D.hom) if isinstance(D, T.Fin2Category) else list(D.morphisms.values())


def _count_and_listing(objs, ends, D, limit=5_000_000):
    """(count, steps) of the counting pass into D's kept order masks and
    (len, steps) of the oracle's listing into D's objects and nonempty
    homs, each under a guard of its own at limit, with the error's steps
    in place of the count where one raises."""
    out = []
    for search, target in ((T._count_object_maps, (D._as_target,)),
                           (lambda *a: len(raw_object_maps(*a)),
                            (sorted(D.objects), _nonempty(D)))):
        guard = T._Guard(limit, "op")
        try:
            out.append((search(objs, ends, *target, guard), guard.count))
        except ResourceLimitError as e:
            out.append(("raised", e.steps))
    return out


def _hom_functor_search(C, D):
    """The object search of C -> D's functors, as `_functors` runs it: C's
    sorted objects, the ends of its generators and the target D."""
    gens, _ = C.plan
    ends = [C.morphisms[g] for g in gens]
    return sorted(C.objects), ends, D


def test_counted_two_functors_match_the_formula_without_listing_a_hom_functor(
        monkeypatch):
    # the grid i, j <= 3 of the hom-bijection check: no hom functor's object
    # maps are listed, and the count is the fiber-product formula
    listed = []
    object_maps = T._object_maps

    def recorded(*args):
        listed.append(sys._getframe(1).f_code.co_name)
        return object_maps(*args)

    monkeypatch.setattr(T, "_object_maps", recorded)
    sources = {(i, j): T.theta2_object(T.Theta2Shape(i, (j,) * i))
               for i in range(4) for j in range(4)}
    for shape in _shapes(3, 2):
        E = T.theta2_object(shape)
        objs = sorted(E.objects)
        chains = [{pair: T.chain_count(H, j) for pair, H in E.hom.items()}
                  for j in range(4)]
        for (i, j), S in sources.items():
            formula = sum(
                math.prod(chains[j].get(pair, 0) for pair in zip(chain, chain[1:]))
                for chain in itertools.product(objs, repeat=i + 1))
            assert len(T.enumerate_two_functors(S, E)) == formula, (shape, i, j)
    assert set(listed) == {"enumerate_two_functors"}


def test_counted_hom_functors_match_the_listing_on_a_slice():
    # every pair of homs of the cells [i|j,...,j] -> [2|2,1], [3|1,2,0] and
    # [3|2,2,2], i, j <= 3: the count and the listing agree, steps too, and
    # a 2-functor sequence reads as many members as its len
    for shape in [(2, (2, 1)), (3, (1, 2, 0)), (3, (2, 2, 2))]:
        E = T.theta2_object(T.Theta2Shape(*shape))
        for i, j in itertools.product(range(1, 4), repeat=2):
            S = T.theta2_object(T.Theta2Shape(i, (j,) * i))
            for C, D in _thin_hom_pairs(S, E):
                count, listing = _count_and_listing(*_hom_functor_search(C, D))
                assert count == listing and count[0] > 0, (shape, i, j)
            if i + j <= 3:
                fs = T.enumerate_two_functors(S, E)
                assert len(list(fs)) == len(fs)


def _long_chain_search():
    """The object search of [10|0,...,0] -> [1|1]: its objects sort as
    "0", "1", "10", "2", ..., so placing "10" narrows the candidates of
    "9", eight depths on."""
    D = T.theta2_object(T.Theta2Shape(10, (0,) * 10))
    E = T.theta2_object(T.Theta2Shape(1, (1,)))
    assert sorted(D.objects)[:4] == ["0", "1", "10", "2"]
    return D, E, (sorted(D.objects), D.segments, E)


@pytest.mark.parametrize("search", [
    pytest.param(lambda: _long_chain_search()[2], id="[10|0,...,0] objects"),
    pytest.param(lambda: _hom_functor_search(T.ordinal(3), _parallel_pair()),
                 id="[3] -> u,v (not thin)"),
    pytest.param(lambda: _hom_functor_search(T.free_iso(), T.free_iso()), id="I -> I"),
    pytest.param(lambda: _hom_functor_search(T.product_poset((1, 1)), T.ordinal(2)),
                 id="[1]x[1] -> [2]"),
])
def test_count_charges_the_guard_as_the_listing_does(search):
    # twice on one target, then on an equal target built separately, whose
    # order masks are made anew
    args, again = search(), search()
    assert again[2] is not args[2] and "_as_target" not in vars(again[2])
    for args in (args, args, again):
        (count, total), listing = _count_and_listing(*args)
        assert (count, total) == listing and count > 1 and total > 3
        for limit in range(total):
            got, want = _count_and_listing(*args, limit=limit)
            assert got == want and got[0] == "raised" and got[1] > limit, limit
        assert _count_and_listing(*args, limit=total)[0] == (count, total)


def _searched(search, args, limit):
    """(result, steps) of search under a guard of its own at limit, or
    ("raised", operation, steps) where it raises."""
    guard = T._Guard(limit, "op")
    try:
        return search(*args, guard), guard.count
    except ResourceLimitError as e:
        return "raised", e.operation, e.steps


def test_object_searches_match_the_backward_rule_walk_on_random_searches():
    # self-loops, repeated ends and pairs in both directions; each search is
    # checked at limit 0, total - 1, total and a few limits between
    rng = random.Random(37)
    for _ in range(200):
        objs = [f"o{k}" for k in range(rng.randint(0, 6))]
        targets = [f"t{t}" for t in range(rng.randint(1, 5))]
        ends = [(rng.choice(objs), rng.choice(objs))
                for _ in range(rng.randint(0, 8) if objs else 0)]
        nonempty = {(rng.choice(targets), rng.choice(targets))
                    for _ in range(rng.randint(0, 12))}
        args = objs, ends, targets, sorted(nonempty)
        want, total = _searched(raw_object_maps, args, 10**9)
        between = rng.randint(0, total), rng.randint(0, total)
        oracle = {limit: _searched(raw_object_maps, args, limit)
                  for limit in {0, total - 1, total, *between} - {-1}}
        # twice on one target's masks, then on masks built separately
        target = T._order_masks(targets, sorted(nonempty))
        for kept in (target, target, T._order_masks(list(targets), sorted(nonempty))):
            for limit, expected in oracle.items():
                got = _searched(T._object_maps, (objs, ends, kept), limit)
                assert got == expected, (args, limit)
                if expected[0] != "raised":
                    expected = (len(expected[0]), total)
                got = _searched(T._count_object_maps, (objs, ends, kept), limit)
                assert got == expected, (args, limit)


def _thin(objects, arrows):
    """The category with one identity per object and one morphism a>b per
    (a, b) in arrows, which no two compose to another but an identity."""
    ids = {x: f"{x}>{x}" for x in objects}
    up = {pair: f"{pair[0]}>{pair[1]}" for pair in arrows}
    morphisms = {f: (x, x) for x, f in ids.items()} | {f: e for e, f in up.items()}
    compose = {(f, f): f for f in ids.values()}
    for (a, b), f in up.items():
        compose[(ids[a], f)] = compose[(f, ids[b])] = f
    return T.FinCategory(tuple(objects), morphisms, ids, compose)


def test_counting_a_cone_keeps_few_states():
    # nine objects below a top: the 4**9 partial maps of the objects below
    # leave the top at most 16 candidate sets, and only those are kept
    low = [str(k) for k in range(9)]
    C = _thin(low + ["top"], [(x, "top") for x in low])
    D = _thin(["0", "1", "2", "3"], [("0", "1")])
    assert T.validate_category(C).ok and T.validate_category(D).ok
    objs, ends, _ = _hom_functor_search(C, D)
    assert objs[-1] == "top" and len(ends) == 9
    target = D._as_target
    guard = T._Guard(5_000_000, "op")
    tracemalloc.start()
    try:
        n = T._count_object_maps(objs, ends, target, guard)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (n, guard.count) == (515, 1_398_100)
    assert peak < 2_000_000


@pytest.mark.parametrize("case", [
    pytest.param(lambda: _long_chain_search()[:2], id="[10|0,...,0] -> [1|1]"),
    pytest.param(lambda: (T.theta2_object(_C2), T.suspend_category(_parallel_pair())),
                 id="[1|1] -> Sigma u,v (not thin)"),
])
def test_two_functor_guard_stops_where_the_listing_stops(case):
    D, E = case()
    _, steps, want, total = _eager_and_lazy(D, E)
    assert steps == total and len(want) > 1
    for limit in range(total):
        with pytest.raises(ResourceLimitError) as got:
            T.enumerate_two_functors(D, E, limit)
        with pytest.raises(ResourceLimitError) as oracle:
            raw_enumerate_two_functors(D, E, T._Guard(limit, "enumerate_two_functors"))
        assert got.value.steps == oracle.value.steps > limit, limit
    assert len(T.enumerate_two_functors(D, E, total)) == len(want)


def test_counting_builds_no_compose_table_of_the_target():
    # a poset's compose table is built on its first read; counting, and
    # reading a 2-functor into thin homs, read none of the target's
    S = T.theta2_object(T.Theta2Shape(2, (2, 2)))
    E = T.theta2_object(T.Theta2Shape(3, (2, 1, 2)))
    fs = T.enumerate_two_functors(S, E)
    assert len(fs) > 100 and len(fs[len(fs) // 2].tables) == 2
    assert not any("compose" in vars(H) for H in E.hom.values())
    H = E.hom[("0", "3")]
    sizes = map(T.ordinal_size, (2, 1, 2))  # [2] x [1] x [2]
    assert len(H.compose) == math.prod(sizes) and H.compose is H.compose
    assert "compose" in vars(H)


# ---------------------------------------------------------------------------
# 2-categories


def test_theta2_shape_validation():
    with pytest.raises(ValueError):
        T.Theta2Shape(2, (1,))
    with pytest.raises(ValueError):
        T.Theta2Shape(1, (-1,))
    assert str(T.Theta2Shape(2, (1, 0))) == "[2|1,0]"


def test_theta2_object_small_cases():
    th = T.theta2_object(T.Theta2Shape(2, (0, 0)))
    assert len(th.objects) == 3
    total_one_cells = sum(len(H.objects) for H in th.hom.values())
    assert total_one_cells == 6
    assert T.validate_2cat(th).ok


def test_theta2_object_hom_is_product_poset():
    th = T.theta2_object(T.Theta2Shape(3, (2, 0, 1)))
    H = th.hom_at("0", "3")
    assert len(H.objects) == 6  # [2] x [0] x [1]
    assert T.validate_2cat(th).ok


def test_theta2_grid_validates():
    for m in range(4):
        for ks in itertools.product(range(3), repeat=m):
            th = T.theta2_object(T.Theta2Shape(m, ks))
            assert T.validate_2cat(th).ok, (m, ks)


def test_cells():
    C0 = T.cell(0)
    assert len(C0.objects) == 1
    C1 = T.cell(1)
    assert len(C1.hom_at("0", "1").objects) == 1
    C2 = T.cell(2)
    assert len(C2.hom_at("0", "1").objects) == 2
    with pytest.raises(ValueError):
        T.cell(3)


def test_suspend_category():
    S = T.suspend_category(T.ordinal(3))
    H = S.hom_at("bot", "top")
    assert len(H.objects) == 4 and len(H.morphisms) == 10
    assert S.hom_at("top", "bot") is None
    assert T.validate_2cat(S).ok
    assert T.validate_2cat(T.suspend_category(T.free_iso())).ok


def test_suspension_of_empty_category_enumerates():
    # no hom(bot, top), so no segment; its objects map anywhere
    S = T.suspend_category(T.ordinal(-1))
    assert S.segments is None
    E = T.theta2_object(T.Theta2Shape(1, (1,)))
    assert len(T.enumerate_two_functors(S, E)) == 4
    assert len(T.enumerate_two_functors(_stripped(S), E)) == 4


def test_suspension_matches_theta_shape():
    # explicit isomorphism pair between Sigma[k] and [1|k]
    for k in range(4):
        S = T.suspend_category(T.ordinal(k))
        th = T.theta2_object(T.Theta2Shape(1, (k,)))
        fwd_seg = (
            {str(a): T._enc((a,)) for a in range(k + 1)},
            {f"{a}>{b}": T._mid((a,), (b,))
             for a in range(k + 1) for b in range(a, k + 1)},
        )
        fwd = T.TwoFunctor(
            S, th, {"bot": "0", "top": "1"}, {("bot", "top"): fwd_seg}
        )
        bwd_seg = (
            {T._enc((a,)): str(a) for a in range(k + 1)},
            {T._mid((a,), (b,)): f"{a}>{b}"
             for a in range(k + 1) for b in range(a, k + 1)},
        )
        bwd = T.TwoFunctor(
            th, S, {"0": "bot", "1": "top"}, {("0", "1"): bwd_seg}
        )
        assert T.validate_two_functor(fwd).ok
        assert T.validate_two_functor(bwd).ok
        assert fwd.compose(bwd) == T.identity_two_functor(S)
        assert bwd.compose(fwd) == T.identity_two_functor(th)


def _fold_grid():
    """The free sources [m|k_1,...,k_m], m <= 2, sum k <= 3, and three
    suspensions, each with its decomposition tables, and 23 targets."""
    sources = [
        (T.theta2_object(s), *raw_theta2_decomposition(s))
        for s in _shapes(2, 3) if sum(s.ks) <= 3
    ]
    sources += [
        (T.suspend_category(C), *raw_suspension_decomposition(C))
        for C in (T.ordinal(2), _z2(), T.free_iso())
    ]
    targets = [T.theta2_object(s) for s in _shapes(3, 2) if s.m < 3 or max(s.ks) < 2]
    targets += [T.suspend_category(_z2()), T.suspend_category(T.ordinal(3))]
    return sources, targets


def test_segment_tables_match_decomposition_fold():
    # every 2-functor of the fold grid: the tables derived through
    # horizontal composition are the ones folded from per-cell
    # decompositions
    sources, targets = _fold_grid()
    count = 0
    for D, one, two in sources:
        for E in targets:
            for F in T.enumerate_two_functors(D, E):
                assert list(F.hom_maps) == list(D.hom)
                assert F.hom_maps == raw_fold_hom_maps(F, one, two)
                count += 1
    assert (len(sources), len(targets), count) == (18, 23, 15_675)


def test_segment_tables_and_full_tables_give_one_two_functor():
    # each 2-functor of the fold grid is enumerated by its segment tables;
    # given all its hom tables instead it is the same 2-functor, and both
    # forms are valid
    sources, targets = _fold_grid()
    for D, _, _ in sources:
        for E in targets:
            for F in T.enumerate_two_functors(D, E):
                assert list(F.tables) == list(D.segments)
                G = T.TwoFunctor(D, E, F.on_objects, F.hom_maps)
                assert G == F
                assert T.validate_two_functor(F).ok
                assert T.validate_two_functor(G).ok


def test_segments_are_derived_for_the_free_constructors():
    # the values theta2_object and suspend_category used to record
    for shape in _shapes(3, 2):
        D = T.theta2_object(shape)
        assert D.segments == tuple(zip(D.objects, D.objects[1:])), shape
    for C in [T.ordinal(m) for m in range(-1, 4)] + [_z2(), T.free_iso()]:
        want = (("bot", "top"),) if C.objects else None
        assert T.suspend_category(C).segments == want, C.objects
    # and the ones nothing recorded: a free 1-category has its arrows
    A = T.as_two_category(T.ordinal(3))
    assert A.segments == (("0", "1"), ("1", "2"), ("2", "3"))
    assert T.as_two_category(T.terminal_category()).segments == ()
    assert T.as_two_category(T.ordinal(-1)).segments == ()


def test_segments_are_none_unless_free():
    # the free isomorphism has homs both ways
    I = T.as_two_category(T.free_iso())
    assert I.segments is None
    # ... and has only its 2 true 2-functors into [1|1], out of the 4
    # choices of images for f and g
    fs = T.enumerate_two_functors(I, T.cell(2))
    assert len(fs) == 2 and all(T.validate_two_functor(F).ok for F in fs)
    # two objects and no hom between them
    discrete = T.FinCategory(
        ("a", "b"), {"a>a": ("a", "a"), "b>b": ("b", "b")}, {"a": "a>a", "b": "b>b"},
        {("a>a", "a>a"): "a>a", ("b>b", "b>b"): "b>b"},
    )
    assert T.as_two_category(discrete).segments is None
    # one object whose unit 1-cell has a 2-cell besides its identity
    loop = _locally_z2("*", {("*", "*")}, lambda x, y, z, i, j: i ^ j)
    assert T.validate_2cat(loop).ok and loop.segments is None
    # hom(0, 2) of [2|1,1] is no longer the product of the segment homs
    # once two 1-cells, or two 2-cells, compose to one
    P11 = T.theta2_object(T.Theta2Shape(2, (1, 1)))
    assert _plain(P11).segments == (("0", "1"), ("1", "2"))
    for table, a, b in [("hcompose1", "(1)", "(0)"), ("hcompose2", "(1)>(1)", "(0)>(0)")]:
        tables = _plain_tables(P11)
        t = tables[table][("0", "1", "2")]
        t[(b, a)] = t[(b, b)]
        assert T.Fin2Category(**tables).segments is None, table


def test_json_round_trip_enumerates_the_same_functors():
    targets = [T.theta2_object(T.Theta2Shape(2, (1, 1))), T.suspend_category(_z2())]
    for shape in _shapes(3, 2):
        D = T.theta2_object(shape)
        loaded = T.two_category_from_json(T.two_category_to_json(D))
        assert loaded.segments == D.segments, shape
        for E in targets:
            want = [F.key() for F in T.enumerate_two_functors(D, E)]
            assert [F.key() for F in T.enumerate_two_functors(loaded, E)] == want


def test_as_two_category():
    A = T.as_two_category(T.ordinal(2))
    assert T.validate_2cat(A).ok
    A2 = T.as_two_category(T.free_iso())
    assert T.validate_2cat(A2).ok


def test_validate_2cat_negative_control():
    th = T.theta2_object(T.Theta2Shape(1, (1,)))
    broken_hc1 = dict(th.hcompose1)
    tbl = dict(broken_hc1[("0", "0", "1")])
    tbl[("()", "(0)")] = "(1)"  # breaks the left unit law
    broken_hc1[("0", "0", "1")] = tbl
    bad = T.Fin2Category(
        th.objects, th.hom, broken_hc1, th.hcompose2, th.unit1
    )
    rep = T.validate_2cat(bad)
    assert not rep.ok
    assert any("unit" in v or "hc" in v for v in rep.violations)


def _plain_tables(D):
    """D's tables as plain dicts, which a test may edit, by field name."""
    return {
        "objects": D.objects, "hom": dict(D.hom),
        "hcompose1": {k: dict(t) for k, t in D.hcompose1.items()},
        "hcompose2": {k: dict(t) for k, t in D.hcompose2.items()},
        "unit1": dict(D.unit1),
    }


def _plain(D):
    """D built again from plain-dict tables."""
    return T.Fin2Category(**_plain_tables(D))


def test_validate_2cat_reports_a_missing_hc1_entry():
    tables = _plain_tables(T.theta2_object(T.Theta2Shape(2, (1, 1))))
    del tables["hcompose1"][("0", "1", "2")][("(0)", "(0)")]
    D = T.Fin2Category(**tables)
    rep = T.validate_2cat(D)  # raised KeyError once the gap was flagged
    assert not rep.ok
    assert all(v.startswith("hc on (0,1,2)") for v in rep.violations)


def _read_only_cases():
    return [
        pytest.param(T.as_two_category(T.ordinal(2)), id="as_two_category"),
        pytest.param(T.suspend_category(T.ordinal(1)), id="suspend_category"),
        pytest.param(T.two_category_from_json(T.two_category_to_json(
            T.theta2_object(T.Theta2Shape(2, (1, 1))))), id="two_category_from_json"),
        pytest.param(_plain(T.theta2_object(T.Theta2Shape(2, (1, 1)))), id="Fin2Category"),
        pytest.param(T.theta2_object(T.Theta2Shape(2, (1, 1))), id="theta2_object"),
    ]


@pytest.mark.parametrize("D", _read_only_cases())
def test_tables_are_read_only(D):
    # once segments is read, no table may change under it
    D.segments
    x, y = next(iter(D.hom))
    with pytest.raises(TypeError):
        D.hom[(x, y)] = D.hom[(x, y)]
    with pytest.raises(TypeError):
        D.unit1[x] = D.unit1[x]
    for tables in (D.hcompose1, D.hcompose2):
        key = next(iter(tables))
        with pytest.raises(TypeError):
            tables[key] = tables[key]
        inner = tables[key]
        pair = next(iter(inner))
        with pytest.raises(TypeError):
            inner[pair] = inner[pair]


def _category_cases():
    theta = T.theta2_object(T.Theta2Shape(2, (1, 1)))
    return [
        pytest.param(T.ordinal(2), id="ordinal"),
        pytest.param(T.free_iso(), id="free_iso"),
        pytest.param(T.terminal_category(), id="terminal_category"),
        pytest.param(T.product_poset((1, 2)), id="product_poset"),
        pytest.param(theta.hom[("0", "1")], id="theta2_object hom"),
        pytest.param(T.as_two_category(T.ordinal(2)).hom[("0", "2")],
                     id="as_two_category hom"),
        pytest.param(T.category_from_json(T.category_to_json(T.free_iso())),
                     id="category_from_json"),
        pytest.param(T._product(T.ordinal(1), T.free_iso()), id="_product"),
    ]


@pytest.mark.parametrize("C", _category_cases())
def test_category_tables_are_read_only(C):
    f = next(iter(C.morphisms))
    x = C.objects[0]
    pair = next(iter(C.compose))
    for table, key in ((C.morphisms, f), (C.morphisms, "new"), (C.identity, x),
                       (C.compose, pair)):
        with pytest.raises(TypeError):
            table[key] = table.get(key)
    assert T.validate_category(C).ok


def test_a_category_holds_a_copy_of_its_plain_tables():
    tables = [{"i": ("a", "a")}, {"a": "i"}, {("i", "i"): "i"}]
    C = T.FinCategory(("a",), *tables)
    tables[0]["f"] = ("a", "a")
    tables[1]["a"] = "f"
    tables[2][("i", "i")] = "f"
    assert dict(C.morphisms) == {"i": ("a", "a")} and dict(C.identity) == {"a": "i"}
    assert dict(C.compose) == {("i", "i"): "i"}


def test_a_two_cell_cannot_be_added_to_a_hom_after_segments_is_read():
    # adding a 2-cell to a hom once segments was read made
    # enumerate_two_functors raise KeyError from the functor planner
    D = T.theta2_object(T.Theta2Shape(2, (1, 1)))
    assert D.segments is not None
    with pytest.raises(TypeError):
        D.hom[("0", "1")].morphisms["bogus"] = ("(0)", "(1)")
    assert len(T.enumerate_two_functors(D, T.cell(2))) == 8


@pytest.mark.parametrize("C, problem", [
    pytest.param(T.FinCategory(("a",), {"i": ("a", "a")}, {"a": "i"}, {("i", "i"): "zz"}),
                 "compose(i, i) = zz is not a morphism", id="composite-not-a-morphism"),
    pytest.param(T.FinCategory(("a", "b"), {"i": ("a", "a"), "f": ("a", "b")}, {"a": "i"},
                               {("i", "i"): "i", ("i", "f"): "f"}),
                 "b: bad identity", id="no-identity"),
    pytest.param(T.FinCategory(("a",), {"i": ("a", "a"), "f": ("a", "b")}, {"a": "i"},
                               {("i", "i"): "i", ("i", "f"): "f"}),
                 "f: endpoint not an object", id="endpoint-not-an-object"),
    pytest.param(T.FinCategory(("a",), {"i": ("a", "a"), "f": ("a",)}, {"a": "i"},
                               {("i", "i"): "i"}),
                 "f: endpoint not an object", id="one-endpoint"),
    pytest.param(T.FinCategory(("a",), {"i": ("a", "a")}, {"a": "i"},
                               {("i", "i"): "i", ("q", "i"): "i"}),
                 "compose defined on ('q', 'i'), not a pair of morphisms",
                 id="compose-on-a-stranger"),
    pytest.param(T.FinCategory(("a",), {"i": ("a", "a"), "t": ("a", "a")}, {"a": "i"},
                               {("i", "i"): "i", ("i", "t"): "i", ("t", "i"): "t",
                                ("t", "t"): "t"}),
                 "left unit fails at t", id="unit-law"),
])
def test_validate_category_reports_and_never_raises(C, problem):
    # each of the first three raised KeyError, from validate_category and
    # from validate_2cat of its suspension
    rep = T.validate_category(C)
    assert problem in rep.violations
    assert f"hom(bot,top): {problem}" in T.validate_2cat(T.suspend_category(C)).violations


def _two_loops(a, b):
    """The category on the objects a and b with identities alone, named
    "i" and "j"; either object may be given an id that is not a str."""
    return T.FinCategory((a, b), {"i": (a, a), "j": (b, b)}, {a: "i", b: "j"},
                         {("i", "i"): "i", ("j", "j"): "j"})


@pytest.mark.parametrize("C, bad", [
    pytest.param(_two_loops("a", 1), [1], id="int object"),
    pytest.param(_two_loops(("a", 1), ("b", "c")), [("a", 1)], id="int in a pair"),
    pytest.param(T.FinCategory(("a",), {0: ("a", "a")}, {"a": 0}, {(0, 0): 0}), [0],
                 id="int morphism"),
    pytest.param(T.FinCategory(("a",), {"i": ("a", "a")}, {"a": ["i"]}, {("i", "i"): "i"}),
                 [["i"]], id="identity a list"),
    pytest.param(T.FinCategory(("a",), {"i": ("a", "a")}, {"a": "i"}, {("i", "i"): ["i"]}),
                 [["i"]], id="composite a list"),
])
def test_validate_category_reports_ids_that_are_not_strings(C, bad):
    # the int object passed, and enumerate_functors(C, C) then raised
    # TypeError from a sort of mixed ids; the next two passed, though no
    # loader takes them; the last two raised TypeError (unhashable type:
    # 'list') from validate_category itself.  Pairs of ids, which
    # _product makes, stay valid (test_category_tables_are_read_only)
    rep = T.validate_category(C)
    assert rep.violations == [f"id {x!r} is not a string" for x in bad]
    # the loader rejects C's tables in its wording
    with pytest.raises(ValueError) as info:
        T.category_from_json(_category_doc(C))
    more = f" (and {len(bad) - 1} more)" if len(bad) > 1 else ""
    assert str(info.value) == f"category: {rep.violations[0]}{more}"


def _category_doc(C):
    """C's tables in the loader's layout, unsorted, so ids of mixed kinds
    pass through as they are."""
    return {"objects": list(C.objects),
            "morphisms": {f: list(ends) for f, ends in C.morphisms.items()},
            "identity": dict(C.identity),
            "compose": [[f, g, h] for (f, g), h in C.compose.items()]}


def _two_category_doc(D):
    """D's tables in the twocat/1 layout, unsorted; see `_category_doc`."""
    def key(names):
        return "|".join(map(str, names))

    return {"schema": "twocat/1", "objects": list(D.objects),
            "hom": {key(k): _category_doc(H) for k, H in D.hom.items()},
            **{name: {key(k): [[*pair, h] for pair, h in t.items()]
                      for k, t in getattr(D, name).items()}
               for name in ("hcompose1", "hcompose2")},
            "unit1": dict(D.unit1)}


def _idempotent_on(t):
    """The category on the object "a" with the identity "i" and an
    idempotent named t, whatever kind of id t is."""
    return T.FinCategory(("a",), {"i": ("a", "a"), t: ("a", "a")}, {"a": "i"},
                         {("i", "i"): "i", ("i", t): t, (t, "i"): t, (t, t): t})


@pytest.mark.parametrize("C, problem", [
    pytest.param(_two_loops("a", ("b", "c")), "object ids mix kinds: ['a', ('b', 'c')]",
                 id="str and pair objects"),
    pytest.param(_two_loops(("a", "b"), ("a", ("d", "e"))),
                 "object ids mix kinds: [('a', 'b'), ('a', ('d', 'e'))]",
                 id="pairs of two shapes"),
    pytest.param(_idempotent_on(("t", "u")), "morphism ids mix kinds: ['i', ('t', 'u')]",
                 id="str and pair morphisms"),
])
def test_validate_category_reports_ids_of_two_kinds(C, problem):
    # each passed, and enumerate_functors(C, C) then raised TypeError from
    # a sort of ids that do not compare
    assert T.validate_category(C).violations == [problem]
    assert T.validate_category(_idempotent_on("t")).ok
    # a product names its cells by pairs, all of one kind
    assert T.validate_category(T._product(T.ordinal(1), _idempotent_on("t"))).ok


def _discrete_2cat(objects, one="*", two="id"):
    """The 2-category on objects with no 1-cell but the units, each named
    one, and no 2-cell but their identities, each named two; any of them
    may be given an id that is not a str."""
    H = T.FinCategory((one,), {two: (one, one)}, {one: two}, {(two, two): two})
    return T.Fin2Category(
        objects, {(x, x): H for x in objects},
        {(x, x, x): {(one, one): one} for x in objects},
        {(x, x, x): {(two, two): two} for x in objects}, dict.fromkeys(objects, one))


@pytest.mark.parametrize("D, bad", [
    pytest.param(_discrete_2cat((0,)), [0], id="int object"),
    pytest.param(_discrete_2cat(("a", ("b", "c"))), [("b", "c")], id="str and pair objects"),
    pytest.param(_discrete_2cat(("a",), one=1), [1], id="int 1-cell"),
    pytest.param(_discrete_2cat(("a",), two=("i", "d")), [("i", "d")], id="pair 2-cell"),
])
def test_validate_2cat_reports_ids_that_are_not_strings(D, bad):
    # the first two passed, and rs_nerve or enumerate_two_functors then
    # raised TypeError from a sort of ids that do not compare
    rep = T.validate_2cat(D)
    assert rep.violations == [f"id {x!r} is not a string" for x in bad]
    # the loader rejects D's tables in its wording
    with pytest.raises(ValueError) as info:
        T.two_category_from_json(_two_category_doc(D))
    assert str(info.value).startswith(f"twocat/1: {rep.violations[0]}")
    assert T.validate_2cat(_discrete_2cat(("a", "b"))).ok


def test_read_only_tables_share_a_view_per_shared_inner_table():
    shared = {("*", "*"): "*"}
    C = T.as_two_category(T.ordinal(0))
    tables = {k: shared for k in C.hcompose1}
    D = T.Fin2Category(C.objects, C.hom, {**tables, ("x",) * 3: shared},
                       C.hcompose2, C.unit1)
    views = list(D.hcompose1.values())
    assert all(v is views[0] for v in views) and dict(views[0]) == shared
    # the view holds a copy: the caller's dict no longer reaches D
    shared[("*", "*")] = "other"
    assert views[0][("*", "*")] == "*"


def _locally_z2(objects, z2_homs, whisker):
    """The 2-category on the ordered objects with one 1-cell xy per hom
    x <= y, 2-cells exy and sxy on the homs in z2_homs and exy alone on
    the others, vertical composition adding mod 2, and hc2 of 2-cells
    numbered i and j on (x, y, z) the cell numbered whisker(x, y, z, i, j)."""
    cells, hom, hc1, hc2 = {}, {}, {}, {}
    for x, y in itertools.combinations_with_replacement(objects, 2):
        f = x + y
        cs = cells[(x, y)] = [f"e{f}", f"s{f}"][: 2 if (x, y) in z2_homs else 1]
        hom[(x, y)] = T.FinCategory(
            (f,), {c: (f, f) for c in cs}, {f: cs[0]},
            {(a, b): cs[(i + j) % 2] for i, a in enumerate(cs) for j, b in enumerate(cs)},
        )
    for x, y, z in itertools.combinations_with_replacement(objects, 3):
        hc1[(x, y, z)] = {(x + y, y + z): x + z}
        hc2[(x, y, z)] = {
            (a, b): cells[(x, z)][whisker(x, y, z, i, j)]
            for i, a in enumerate(cells[(x, y)])
            for j, b in enumerate(cells[(y, z)])
        }
    return T.Fin2Category(tuple(objects), hom, hc1, hc2, {x: x + x for x in objects})


def test_validate_2cat_checks_the_unit_law_on_2_cells():
    # one object, hom(*, *) = Z/2 on the unit 1-cell: Eckmann-Hilton forces
    # hc2 to be the sum, and the first projection breaks the left unit law
    z2 = {("*", "*")}
    assert T.validate_2cat(_locally_z2("*", z2, lambda x, y, z, i, j: i ^ j)).ok
    first = _locally_z2("*", z2, lambda x, y, z, i, j: i)
    assert raw_validate_2cat(first).ok
    rep = T.validate_2cat(first)
    assert rep.violations == ["left unit fails on 2-cell s** of hom(*,*)"]


def test_validate_2cat_checks_associativity_on_2_cells():
    # 0 < 1 < 2 < 3 with Z/2 on hom(i, 3); whiskering by 12 forgets the
    # 2-cell of hom(2, 3), so (id01 id12) s23 = s03 but id01 (id12 s23) = e03
    z2 = {("0", "3"), ("1", "3"), ("2", "3")}
    assert T.validate_2cat(_locally_z2("0123", z2, lambda x, y, z, i, j: i ^ j)).ok
    forget = _locally_z2(
        "0123", z2, lambda x, y, z, i, j: 0 if x + y + z == "123" else i ^ j
    )
    assert raw_validate_2cat(forget).ok
    rep = T.validate_2cat(forget)
    assert "associativity fails on 2-cells (e01,e12,s23)" in rep.violations
    assert all("2-cells" in v for v in rep.violations)


_C2, _P11 = T.Theta2Shape(1, (1,)), T.Theta2Shape(2, (1, 1))


def _first_two_functor():
    """The first 2-functor [1|1] -> [2|1,1]."""
    return T.enumerate_two_functors(T.theta2_object(_C2), T.theta2_object(_P11))[0]


def test_validate_two_functor_reports_a_bogus_image():
    F = _first_two_functor()
    maps = {pair: (dict(om), dict(mm)) for pair, (om, mm) in F.hom_maps.items()}
    maps[("0", "1")][0]["(0)"] = "bogus"
    G = T.TwoFunctor(F.source, F.target, F.on_objects, maps)
    with pytest.raises(KeyError):
        raw_validate_two_functor(G)
    rep = T.validate_two_functor(G)
    assert not rep.ok
    assert "hom(0,1): (0): image missing or not an object" in rep.violations


def test_validate_two_functor_reports_a_bogus_segment_image():
    # the other tables of a segment functor are derived through the
    # target's horizontal tables, which have no entry for "bogus"
    P11 = T.theta2_object(_P11)
    F = T.enumerate_two_functors(P11, P11)[0]
    segs = {pair: (dict(om), dict(mm)) for pair, (om, mm) in F.tables.items()}
    segs[("0", "1")][0]["(0)"] = "bogus"
    G = T.TwoFunctor(P11, P11, F.on_objects, segs)
    rep = T.validate_two_functor(G)
    assert "hom(0,1): (0): image missing or not an object" in rep.violations
    assert all(v.startswith("hom(0,1): ") for v in rep.violations)
    del segs[("1", "2")]
    rep = T.validate_two_functor(G)
    assert "hom(1,2): no hom map" in rep.violations


def test_given_tables_are_kept_and_only_missing_ones_derived():
    P11 = T.theta2_object(_P11)
    F = T.enumerate_two_functors(P11, P11)[0]
    empty = ({}, {})
    G = T.TwoFunctor(P11, P11, F.on_objects, {**F.tables, ("0", "2"): empty})
    assert G.hom_maps[("0", "2")] is empty
    assert {**G.hom_maps, ("0", "2"): F.hom_maps[("0", "2")]} == F.hom_maps
    rep = T.validate_two_functor(G)
    assert "hom(0,2): (0,0): image missing or not an object" in rep.violations
    assert all(v.startswith("hom(0,2): ") for v in rep.violations)


def test_presentation_loader_names_a_bogus_image():
    from theta2kit import theta as TH

    cells = (TH.BoxCell(_C2), TH.BoxCell(_P11))
    data = TH.presentation_to_json(
        TH.Theta2Presentation(cells, ((0, 1, _first_two_functor(), (0,)),))
    )
    data["arrows"][0]["functor"]["hom"]["0|1"]["one"]["(0)"] = "bogus"
    with pytest.raises(ValueError, match="not a 2-functor"):
        TH.presentation_from_json(data)


def test_validators_report_an_image_that_does_not_hash():
    # an object image read from JSON as a list used to escape the loader as
    # TypeError("unhashable type: 'list'") from validate_two_functor
    from theta2kit import theta as TH

    cells = (TH.BoxCell(_C2), TH.BoxCell(_P11))
    data = TH.presentation_to_json(
        TH.Theta2Presentation(cells, ((0, 1, _first_two_functor(), (0,)),))
    )
    data["arrows"][0]["functor"]["on_objects"]["0"] = ["0"]
    with pytest.raises(ValueError, match="not a 2-functor: 0: image not an object"):
        TH.presentation_from_json(data)
    F = _first_two_functor()
    G = T.TwoFunctor(F.source, F.target, {**F.on_objects, "1": ["1"]}, F.tables)
    assert T.validate_two_functor(G).violations == [
        "1: image not an object", "hom(0,1): target hom empty"]
    C = T.ordinal(1)
    H = T.Functor(C, C, {"0": "0", "1": "1"}, {"0>0": "0>0", "1>1": "1>1", "0>1": ["0>1"]})
    assert T.validate_functor(H).violations == ["0>1: image missing or not a morphism"]


def test_category_loader_rejects_an_identity_on_a_non_object():
    # the entry used to load, validate and be written back by category_to_json
    data = T.category_to_json(T.ordinal(1))
    data["identity"]["zz"] = "0>0"
    with pytest.raises(ValueError, match="category: identity defined on 'zz', not an object"):
        T.category_from_json(data)


def _mutate(rng, tables, cells, check, count):
    """count times: pick an entry of one of tables, replace it with one of
    cells or "bogus", or delete it, run check() and restore the entry."""
    entries = [(t, k) for t in tables for k in t]
    for _ in range(count):
        t, k = rng.choice(entries)
        keep, edit = t[k], rng.choice([rng.choice(cells), "bogus", None])
        if edit is None:
            del t[k]
        else:
            t[k] = edit
        check()
        t[k] = keep


def _cells(D):
    """D's 1-cells and 2-cells, each sorted."""
    return (sorted({f for H in D.hom.values() for f in H.objects}),
            sorted({a for H in D.hom.values() for a in H.morphisms}))


def test_validators_agree_with_oracles_under_mutation():
    # the validators never raise, reject wherever the oracles raise, and
    # otherwise agree with them on ok, unless they name a 2-cell law,
    # which the oracle validate_2cat does not check
    rng = random.Random(16)
    outcomes = collections.Counter()

    def agree(new, old):
        rep = new()
        try:
            ok = old().ok
        except KeyError:
            assert not rep.ok
            outcomes["oracle raised"] += 1
            return
        if not any("on 2-cell" in v for v in rep.violations):
            assert rep.ok == ok, rep.violations
            outcomes["ok" if ok else "rejected"] += 1

    shapes = [(1, (1,)), (2, (1, 1)), (2, (2, 0)), (3, (1, 0, 1))]
    sources = [T.theta2_object(T.Theta2Shape(m, ks)) for m, ks in shapes]
    sources += [T.suspend_category(_z2()), T.as_two_category(T.free_iso())]
    def agree_on(tables):
        # the tables are read-only once built: build D again per edit
        D = T.Fin2Category(**tables)
        agree(partial(T.validate_2cat, D), partial(raw_validate_2cat, D))

    for tables in map(_plain_tables, sources):
        one, two = _cells(T.Fin2Category(**tables))
        check = partial(agree_on, tables)
        _mutate(rng, tables["hcompose1"].values(), one, check, 30)
        _mutate(rng, tables["hcompose2"].values(), two, check, 30)
        _mutate(rng, [tables["unit1"]], one, check, 10)
    E, SZ2 = T.theta2_object(T.Theta2Shape(2, (1, 1))), T.suspend_category(_z2())
    pairs = [(T.cell(2), E), (_stripped(E), E), (SZ2, SZ2), (T.cell(2), SZ2)]
    for D, E in pairs:
        one, two = _cells(E)
        fs = T.enumerate_two_functors(D, E)
        for F in fs[:: max(1, len(fs) // 6)]:
            maps = {p: (dict(om), dict(mm)) for p, (om, mm) in F.hom_maps.items()}
            G = T.TwoFunctor(D, E, F.on_objects, maps)
            check = partial(
                agree, partial(T.validate_two_functor, G),
                partial(raw_validate_two_functor, G),
            )
            _mutate(rng, [om for om, _ in maps.values()], one, check, 8)
            _mutate(rng, [mm for _, mm in maps.values()], two, check, 8)
    assert min(outcomes.values()) > 20, outcomes


# ---------------------------------------------------------------------------
# the generic builders: oracles of product_poset and theta2_object


def _product_poset_by_comparison(ks):
    """product_poset formatted and composed by comparing every pair."""
    cells = list(itertools.product(*(range(k + 1) for k in ks)))
    objects = tuple(T._enc(t) for t in cells)
    morphisms = {}
    identity = {}
    pairs = []
    for a in cells:
        for b in cells:
            if all(x <= y for x, y in zip(a, b)):
                morphisms[T._mid(a, b)] = (T._enc(a), T._enc(b))
                pairs.append((a, b))
        identity[T._enc(a)] = T._mid(a, a)
    compose = {}
    for a, b in pairs:
        for b2, c in pairs:
            if b == b2:
                compose[(T._mid(a, b), T._mid(b, c))] = T._mid(a, c)
    return T.FinCategory(objects, morphisms, identity, compose)


def _theta2_object_by_comparison(shape):
    """theta2_object formatted and composed by comparing every pair."""
    m, ks = shape.m, shape.ks
    objects = tuple(str(i) for i in range(m + 1))
    hom = {}
    tuples = {}
    for i in range(m + 1):
        for j in range(i, m + 1):
            hom[(str(i), str(j))] = _product_poset_by_comparison(ks[i:j])
            tuples[(i, j)] = list(
                itertools.product(*(range(k + 1) for k in ks[i:j]))
            )
    hcompose1, hcompose2 = {}, {}
    for i in range(m + 1):
        for j in range(i, m + 1):
            for l in range(j, m + 1):
                key = (str(i), str(j), str(l))
                t1, t2 = {}, {}
                for a in tuples[(i, j)]:
                    for b in tuples[(j, l)]:
                        t1[(T._enc(a), T._enc(b))] = T._enc(a + b)
                for a in tuples[(i, j)]:
                    for a2 in tuples[(i, j)]:
                        if not all(p <= q for p, q in zip(a, a2)):
                            continue
                        for b in tuples[(j, l)]:
                            for b2 in tuples[(j, l)]:
                                if not all(p <= q for p, q in zip(b, b2)):
                                    continue
                                t2[(T._mid(a, a2), T._mid(b, b2))] = T._mid(
                                    a + b, a2 + b2
                                )
                hcompose1[key] = t1
                hcompose2[key] = t2
    unit1 = {str(i): T._enc(()) for i in range(m + 1)}
    return T.Fin2Category(objects, hom, hcompose1, hcompose2, unit1)


def _category_tables(C):
    """Every table of C as lists, so that key order counts too."""
    return (
        C.objects,
        list(C.morphisms.items()),
        list(C.identity.items()),
        list(C.compose.items()),
    )


def _shapes(max_m, max_k):
    return [
        T.Theta2Shape(m, ks)
        for m in range(max_m + 1)
        for ks in itertools.product(range(max_k + 1), repeat=m)
    ]


@pytest.mark.parametrize("ks", [(), (0,), (3,), (1, 2), (2, 0, 1), (3, 3, 3)])
def test_product_poset_matches_comparison_oracle(ks):
    assert _category_tables(T.product_poset(ks)) == _category_tables(
        _product_poset_by_comparison(ks)
    )


@pytest.mark.parametrize("m", range(4))
def test_theta2_object_matches_comparison_oracle(m):
    for shape in _shapes(m, 3):
        if shape.m != m:
            continue
        got, want = T.theta2_object(shape), _theta2_object_by_comparison(shape)
        assert got.objects == want.objects
        assert [(k, _category_tables(H)) for k, H in got.hom.items()] == [
            (k, _category_tables(H)) for k, H in want.hom.items()
        ], shape
        for table in ("hcompose1", "hcompose2"):
            assert [(k, list(t.items())) for k, t in getattr(got, table).items()] == [
                (k, list(t.items())) for k, t in getattr(want, table).items()
            ], (shape, table)
        assert list(got.unit1.items()) == list(want.unit1.items()), shape
        assert got.segments == want.segments == tuple(zip(got.objects, got.objects[1:]))


# ---------------------------------------------------------------------------
# 2-functor enumeration


def test_functors_from_point():
    for E in [T.cell(2), T.theta2_object(T.Theta2Shape(2, (1, 0)))]:
        fs = T.enumerate_two_functors(T.cell(0), E)
        assert len(fs) == len(E.objects)


def test_functors_edge_counts_one_cells():
    fs = T.enumerate_two_functors(
        T.cell(1), T.theta2_object(T.Theta2Shape(2, (0, 0)))
    )
    assert len(fs) == 6  # one per 1-cell of the target


def test_functors_c2_to_c2():
    fs = T.enumerate_two_functors(T.cell(2), T.cell(2))
    assert len(fs) == 5
    assert all(T.validate_two_functor(F).ok for F in fs)
    keys = [F.key() for F in fs]
    assert len(set(keys)) == 5


def test_segment_and_full_enumeration_agree():
    D = T.theta2_object(T.Theta2Shape(1, (1,)))
    E = T.theta2_object(T.Theta2Shape(1, (2,)))
    seg = T.enumerate_two_functors(D, E)
    full = T.enumerate_two_functors(_stripped(D), E)
    assert len(seg) == len(full)
    assert sorted(F.key() for F in seg) == sorted(F.key() for F in full)


def _stripped(D):
    """D with its segments preset to None, so that the 2-functor search
    checks each choice of hom functors against its horizontal tables."""
    S = T.Fin2Category(D.objects, D.hom, D.hcompose1, D.hcompose2, D.unit1)
    vars(S)["segments"] = None
    return S


@pytest.mark.parametrize("D, missing", [
    pytest.param(T.as_two_category(T.free_iso()), ("a", "b"), id="I"),
    pytest.param(_stripped(T.theta2_object(_P11)), ("0", "2"), id="stripped [2|1,1]"),
])
def test_a_missing_table_of_a_source_that_is_not_free(D, missing):
    # no table of such a source can be derived, a composite hom's included
    tables = dict(T.identity_two_functor(D).tables)
    del tables[missing]
    F = T.TwoFunctor(D, D, {x: x for x in D.objects}, tables)
    x, y = missing
    rep = T.validate_two_functor(F)
    assert rep.violations == [f"hom({x},{y}): no hom map"]
    with pytest.raises(ValueError, match=rf"hom\({x},{y}\): no hom map"):
        F.hom_maps


def _metadata_free_sources():
    """2-categories built without a pasting scheme in mind.  The stripped
    ones ([m|k_1,...,k_m] with m <= 2, k_i <= 1 among them) and the free
    isomorphism take the composition-checked search; the ordinals, the
    point and the loaded cell are found free and take the segment search,
    which must give the oracle's functors in its order."""
    out = [(f"[{m}]", T.as_two_category(T.ordinal(m))) for m in range(-1, 4)]
    out += [("I", T.as_two_category(T.free_iso())),
            ("*", T.as_two_category(T.terminal_category()))]
    out += [(f"stripped {s}", _stripped(T.theta2_object(s))) for s in _shapes(2, 1)]
    out += [("stripped S(Z/2)", _stripped(T.suspend_category(_z2()))),
            ("stripped S[1]", _stripped(T.suspend_category(T.ordinal(1)))),
            ("cell(2) from JSON",
             T.two_category_from_json(T.two_category_to_json(T.cell(2))))]
    return out


def _full_search_matches_oracle(D, targets):
    """Compare enumerate_two_functors(D, E) with raw_enumerate_full for each
    E in targets, and check that one step below the steps it used raises
    in enumerate_two_functors."""
    for E in targets:
        _Recorded.made.clear()
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(T, "_Guard", _Recorded)
            got = T.enumerate_two_functors(D, E)
        steps = _Recorded.made[0].count
        want = raw_enumerate_full(D, E, T._Guard(5_000_000, "enumerate_two_functors"))
        assert [F.key() for F in got] == [F.key() for F in want], E.objects
        if steps:
            with pytest.raises(ResourceLimitError) as e:
                T.enumerate_two_functors(D, E, limit=steps - 1)
            assert e.value.operation == "enumerate_two_functors"


@pytest.mark.parametrize(
    "D", [pytest.param(D, id=name) for name, D in _metadata_free_sources()]
)
def test_metadata_free_search_matches_full_oracle(D):
    # the targets: the shapes with m <= 2 and k_i <= 1, and a non-thin one;
    # adding those with k_i <= 2 and [3|k_1,k_2,k_3], k_i <= 1 passes too
    # but takes about 25 s
    targets = [T.theta2_object(s) for s in _shapes(2, 1)]
    targets.append(T.suspend_category(_z2()))
    _full_search_matches_oracle(D, targets)


def test_metadata_free_search_keeps_only_composable_choices(monkeypatch):
    shape = T.Theta2Shape(2, (1, 1))
    D, E = _stripped(T.theta2_object(shape)), T.theta2_object(shape)
    fs = T.enumerate_two_functors(D, E)
    # the 2-functors the segment search finds, each one valid
    seg = T.enumerate_two_functors(T.theta2_object(shape), E)
    assert sorted(F.key() for F in fs) == sorted(F.key() for F in seg)
    assert all(T.validate_two_functor(F).ok for F in fs)
    # the choices of hom functors alone are more
    monkeypatch.setattr(T, "_horizontal_failures", lambda *args: iter(()))
    assert len(T.enumerate_two_functors(D, E)) > len(fs)


def _eager_and_lazy(D, E, limit=5_000_000):
    """enumerate_two_functors(D, E) with its guard's total, and the eager
    oracle's list with its guard's total."""
    _Recorded.made.clear()
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(T, "_Guard", _Recorded)
        got = T.enumerate_two_functors(D, E, limit)
    guard = T._Guard(limit, "enumerate_two_functors")
    want = raw_enumerate_two_functors(D, E, guard)
    return got, _Recorded.made[0].count, want, guard.count


def test_two_functor_sequence_matches_eager_oracle():
    # the fold grid, and the metadata-free sources against their targets.
    # Equal object and given tables, key order included, give equal key()s;
    # key() itself, which derives a free source's other tables, is compared
    # on the metadata-free cases, where that takes little time.
    sources, targets = _fold_grid()
    cases = [(D, E, False) for D, _, _ in sources for E in targets]
    small = [T.theta2_object(s) for s in _shapes(2, 1)] + [T.suspend_category(_z2())]
    cases += [(D, E, True) for _, D in _metadata_free_sources() for E in small]
    count = 0
    for D, E, keyed in cases:
        got, steps, want, oracle_steps = _eager_and_lazy(D, E)
        where = (D.objects, E.objects)
        assert len(got) == len(want), where
        assert _two_functor_tables(got) == _two_functor_tables(want), where
        if keyed:
            assert [F.key() for F in got] == [F.key() for F in want], where
        assert steps == oracle_steps, where
        count += len(got)
    assert count == 15_675 + 964


@pytest.mark.parametrize("D", [
    pytest.param(T.theta2_object(T.Theta2Shape(1, (2,))), id="free [1|2]"),
    pytest.param(_stripped(T.theta2_object(T.Theta2Shape(2, (1, 0)))),
                 id="stripped [2|1,0]"),
])
def test_two_functor_sequence_reads_like_a_list(D):
    E = T.theta2_object(T.Theta2Shape(2, (1, 1)))
    fs = T.enumerate_two_functors(D, E)
    n = len(fs)
    assert n > 10
    listed = list(fs)
    # each member is built once and kept; iteration reads the same members
    assert all(a is b for a, b in zip(listed, (fs[i] for i in range(n))))
    assert all(fs[i] is fs[i] for i in range(n))
    assert len(listed) == n
    for i in range(1, n + 1):
        assert fs[-i] is fs[n - i]
    for cut in (slice(None), slice(2, 7), slice(None, None, -3), slice(-4, None),
                slice(n + 5, None), slice(3, 1)):
        part = fs[cut]
        assert type(part) is list
        assert part == listed[cut] and all(a is b for a, b in zip(part, listed[cut]))
    for bad in (n, -n - 1):
        with pytest.raises(IndexError):
            fs[bad]
    with pytest.raises(TypeError):
        fs["0"]
    assert fs.index(fs[5]) == 5 and fs[3] in fs
    assert list(reversed(fs)) == listed[::-1]
    # equality is by identity, not by members
    assert fs == fs and fs != listed and fs != T.enumerate_two_functors(D, E)


def test_step_each_raises_as_steps_of_one_would():
    for limit in range(8):
        for start in range(limit + 1):
            for k in range(12):
                twin, guard = (T._Guard(limit, "op") for _ in range(2))
                twin.step(start)
                guard.step(start)
                want = None
                try:
                    for _ in range(k):
                        twin.step()
                except ResourceLimitError as e:
                    want = (e.operation, e.dimension, e.steps)
                if want is None:
                    guard.step_each(k)
                    assert guard.count == twin.count == start + k
                    continue
                with pytest.raises(ResourceLimitError) as e:
                    guard.step_each(k)
                assert (e.value.operation, e.value.dimension, e.value.steps) == want
                assert e.value.steps == limit + 1


class _Products(T._Guard):
    """A _Guard that keeps (count before, k) for each step_each call."""

    spans = []

    def step_each(self, k):
        self.spans.append((self.count, k))
        super().step_each(k)


@pytest.mark.parametrize("target", [(1, (3,)), (2, (1, 1))])
def test_guard_trips_inside_a_product_as_the_eager_enumeration_does(target):
    D = T.theta2_object(T.Theta2Shape(1, (2,)))
    E = T.theta2_object(T.Theta2Shape(*target))
    _Products.spans.clear()
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(T, "_Guard", _Products)
        fs = T.enumerate_two_functors(D, E)
    _, _, want, total = _eager_and_lazy(D, E)
    assert len(fs) == len(want)
    if target == (1, (3,)):
        assert len(fs) == 22
    inside = {c + t for c, k in _Products.spans for t in range(k)}
    assert len(inside) == len(fs)
    for limit in range(total):
        with pytest.raises(ResourceLimitError) as got:
            T.enumerate_two_functors(D, E, limit)
        with pytest.raises(ResourceLimitError) as oracle:
            raw_enumerate_two_functors(D, E, T._Guard(limit, "enumerate_two_functors"))
        assert got.value.operation == oracle.value.operation == "enumerate_two_functors"
        assert got.value.steps == oracle.value.steps, limit
        if limit in inside:
            assert got.value.steps == limit + 1
    assert len(T.enumerate_two_functors(D, E, total)) == len(fs)


def test_two_functor_compose_and_identity():
    D = T.cell(2)
    fs = T.enumerate_two_functors(D, D)
    ident = T.identity_two_functor(D)
    for F in fs:
        assert F.compose(ident) == F
        assert ident.compose(F) == F


# ---------------------------------------------------------------------------
# serialization


def test_category_json_round_trip():
    for C in [T.ordinal(2), T.free_iso(), T.product_poset((1, 1))]:
        data = T.category_to_json(C)
        D = T.category_from_json(data)
        assert D == C


def test_two_category_json_round_trip():
    for D in [T.cell(2), T.suspend_category(T.ordinal(1))]:
        data = T.two_category_to_json(D)
        E = T.two_category_from_json(data)
        assert sorted(E.objects) == sorted(D.objects)
        assert E.hom == D.hom
        assert E.hcompose1 == D.hcompose1
        assert E.unit1 == D.unit1


def test_two_category_json_rejects_bad_schema():
    data = T.two_category_to_json(T.cell(0))
    data["schema"] = "nope/0"
    with pytest.raises(ValueError):
        T.two_category_from_json(data)


@pytest.mark.parametrize("damage", [
    pytest.param(lambda d: d.pop("hom"), id="no hom"),
    pytest.param(lambda d: d.pop("unit1"), id="no unit1"),
    pytest.param(lambda d: d.update(hom=[]), id="hom not an object"),
    pytest.param(lambda d: d["hom"].update({"0": d["hom"]["0|1"]}),
                 id="hom key of one object"),
    pytest.param(lambda d: d["hom"]["0|1"].pop("compose"), id="no compose"),
    pytest.param(lambda d: d["hom"]["0|1"].update(compose=[["a", "b"]]),
                 id="compose pair"),
    pytest.param(lambda d: d["hcompose1"].update({"0|1": []}),
                 id="hcompose1 key of two objects"),
    pytest.param(lambda d: d["hcompose2"]["0|0|1"].append([1]),
                 id="hcompose2 entry of one cell"),
    # these two loaded as the free 2-cell: tuple() took "01" apart, and
    # dict() the list of pairs
    pytest.param(lambda d: d.update(objects="01"), id="objects a str"),
    pytest.param(lambda d: d.update(unit1=list(d["unit1"].items())), id="unit1 a list"),
])
def test_two_category_json_rejects_malformed_data(damage):
    data = T.two_category_to_json(T.cell(2))
    damage(data)
    with pytest.raises(ValueError):
        T.two_category_from_json(data)


def _one_loop():
    return {"objects": ["a"], "morphisms": {"i": ["a", "a"]}, "identity": {"a": "i"},
            "compose": [["i", "i", "i"]]}


@pytest.mark.parametrize("data", [
    pytest.param(dict(_one_loop(), identity={"a": ["i"]}), id="identity a list"),
    pytest.param(dict(_one_loop(), compose=[["i", "i", ["i"]]]), id="composite a list"),
    pytest.param(dict(_one_loop(), objects=[["a"]]), id="object a list"),
    pytest.param(dict(_one_loop(), morphisms={"i": [["a"], "a"]}), id="end a list"),
    pytest.param({"objects": [1], "morphisms": {"i": [1, 1]}, "identity": {1: "i"},
                  "compose": [["i", "i", "i"]]}, id="int object"),
    pytest.param({"objects": ["a"], "morphisms": {0: ["a", "a"]}, "identity": {"a": 0},
                  "compose": [[0, 0, 0]]}, id="int morphism"),
])
def test_category_json_rejects_ids_that_are_not_strings(data):
    # each of these loaded, and validate_category then raised TypeError
    # or the int ids broke every sort of mixed ids
    with pytest.raises(ValueError, match="is not a string"):
        T.category_from_json(data)


@pytest.mark.parametrize("data", [
    pytest.param(dict(_one_loop(), objects="a"), id="objects a str"),
    pytest.param(dict(_one_loop(), morphisms={"i": "aa"}), id="ends a str"),
    pytest.param(dict(_one_loop(), identity=["ai"]), id="identity a list"),
    pytest.param(dict(_one_loop(), compose=["iii"]), id="composition a str"),
    pytest.param(dict(_one_loop(), compose={"iii": 0}), id="compose an object"),
])
def test_category_json_rejects_a_str_or_a_list_for_the_other_kind(data):
    # each loaded as the one loop, and validate_category passed: tuple()
    # and dict() took the str, or the list of pairs, apart
    assert T.validate_category(T.category_from_json(_one_loop())).ok
    with pytest.raises(ValueError, match="must be a JSON (array|object)"):
        T.category_from_json(data)


@pytest.mark.parametrize("damage", [
    pytest.param(lambda d: d["objects"].append(2), id="int object"),
    pytest.param(lambda d: d["unit1"].update({"0": ["()"]}), id="unit a list"),
    pytest.param(lambda d: d["unit1"].update({0: "()"}), id="int unit key"),
    pytest.param(lambda d: d["hcompose1"]["0|0|1"][0].__setitem__(2, ["(0)"]),
                 id="hc1 composite a list"),
    pytest.param(lambda d: d["hcompose2"]["0|0|1"][0].__setitem__(0, 0),
                 id="int 2-cell"),
    pytest.param(lambda d: d["hom"]["0|1"]["objects"].append(7), id="int 1-cell"),
])
def test_two_category_json_rejects_ids_that_are_not_strings(damage):
    data = T.two_category_to_json(T.cell(2))
    damage(data)
    with pytest.raises(ValueError, match="is not a string"):
        T.two_category_from_json(data)


def test_category_json_rejects_a_category_missing_a_composite():
    # it loaded, and enumerate_functors of it then raised KeyError
    data = T.category_to_json(T.ordinal(2))
    data["compose"].remove(["0>1", "1>2", "0>2"])
    with pytest.raises(ValueError) as info:
        T.category_from_json(data)
    assert str(info.value).startswith("category: compose undefined on (0>1, 1>2)")


def test_two_category_json_rejects_a_missing_horizontal_composition():
    # it loaded, and rs_nerve of it then raised KeyError
    data = T.two_category_to_json(T.suspend_category(T.ordinal(1)))
    del data["hcompose1"]["bot|bot|top"]
    with pytest.raises(ValueError) as info:
        T.two_category_from_json(data)
    assert str(info.value) == "twocat/1: hcompose missing at (bot,bot,top)"


def test_two_category_json_rejects_a_hom_between_non_objects():
    # validate_2cat raised KeyError on it, looking up its unit laws
    data = T.two_category_to_json(T.suspend_category(T.ordinal(1)))
    data["hom"]["zz|zz"] = data["hom"]["bot|bot"]
    with pytest.raises(ValueError) as info:
        T.two_category_from_json(data)
    assert str(info.value) == "twocat/1: hom(zz,zz): not between two objects"
