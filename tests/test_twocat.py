import itertools
import math

import pytest
from hypothesis import given, strategies as st

from theta2kit import twocat as T


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


def test_chain_count_free_iso():
    # the classical nerve of the free isomorphism has 2 simplices per
    # dimension beyond the identities: 2 + (2^{j+1} - 2) ... exhaustively:
    I = T.free_iso()
    assert T.chain_count(I, 0) == 2
    assert T.chain_count(I, 1) == 4
    # chains alternate freely: each next arrow is determined by its source
    assert T.chain_count(I, 2) == 8


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
    return [(list(F.obj_map.items()), list(F.mor_map.items())) for F in fs]


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
    monkeypatch.setattr(T, "_thin", lambda homs: False)
    checked = T.enumerate_functors(C, D)
    # same functors, same order, same key order in every map
    assert _functor_tables(thin) == _functor_tables(checked)
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
        assert T._thin({(D.src(f), D.tgt(f)): D.hom(D.src(f), D.tgt(f))
                        for f in D.morphisms})
    for D in [_z2(), _parallel_pair()]:
        assert not T._thin({(D.src(f), D.tgt(f)): D.hom(D.src(f), D.tgt(f))
                            for f in D.morphisms})


def _enumerate_free_uncached(D, E, guard):
    """_enumerate_free with enumerate_functors called for every object
    assignment, as it was before the per-call reuse."""
    objs = sorted(D.objects)
    eobjs = sorted(E.objects)
    results = []
    seg_homs = {pair: D.hom_at(*pair) for pair in D.segments}

    def assign(k, on_objects):
        if k == len(objs):
            choice_lists = []
            for pair in D.segments:
                fx, fy = on_objects[pair[0]], on_objects[pair[1]]
                He = E.hom_at(fx, fy)
                if He is None:
                    return
                fns = T.enumerate_functors(seg_homs[pair], He, guard.limit)
                guard.step(len(fns))
                if not fns:
                    return
                choice_lists.append(fns)
            for combo in itertools.product(*choice_lists):
                guard.step()
                seg_maps = dict(zip(D.segments, combo))
                results.append(
                    T.TwoFunctor.from_segments(D, E, dict(on_objects), seg_maps)
                )
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


def test_two_functor_enumeration_matches_uncached_checked_oracle(monkeypatch):
    # the hom-bijection cells [i|j,...,j] -> [m|k_1,...,k_m], i, j <= 2, m <= 3
    guards = []

    class Recorded(T._Guard):
        def __init__(self, *args):
            super().__init__(*args)
            guards.append(self)

    monkeypatch.setattr(T, "_Guard", Recorded)
    for shape in _shapes(3, 2):
        E = T.theta2_object(shape)
        for i in range(3):
            for j in range(3):
                D = T.theta2_object(T.Theta2Shape(i, (j,) * i))
                guards.clear()
                got = T.enumerate_two_functors(D, E)
                steps = guards[0].count
                with monkeypatch.context() as checked:
                    checked.setattr(T, "_thin", lambda homs: False)
                    guard = T._Guard(5_000_000, "enumerate_two_functors")
                    want = _enumerate_free_uncached(D, E, guard)
                assert [F.compact_key() for F in got] == [
                    F.compact_key() for F in want
                ], (shape, i, j)
                assert steps == guard.count, (shape, i, j)


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


def test_suspension_matches_theta_shape():
    # explicit isomorphism pair between Sigma[k] and [1|k]
    for k in range(4):
        S = T.suspend_category(T.ordinal(k))
        th = T.theta2_object(T.Theta2Shape(1, (k,)))
        fwd_seg = T.Functor(
            S.hom_at("bot", "top"),
            th.hom_at("0", "1"),
            {str(a): T._enc((a,)) for a in range(k + 1)},
            {f"{a}>{b}": T._mid((a,), (b,))
             for a in range(k + 1) for b in range(a, k + 1)},
        )
        fwd = T.TwoFunctor.from_segments(
            S, th, {"bot": "0", "top": "1"}, {("bot", "top"): fwd_seg}
        )
        bwd_seg = T.Functor(
            th.hom_at("0", "1"),
            S.hom_at("bot", "top"),
            {T._enc((a,)): str(a) for a in range(k + 1)},
            {T._mid((a,), (b,)): f"{a}>{b}"
             for a in range(k + 1) for b in range(a, k + 1)},
        )
        bwd = T.TwoFunctor.from_segments(
            th, S, {"0": "bot", "1": "top"}, {("0", "1"): bwd_seg}
        )
        assert T.validate_two_functor(fwd).ok
        assert T.validate_two_functor(bwd).ok
        assert fwd.compose(bwd) == T.identity_two_functor(S)
        assert bwd.compose(fwd) == T.identity_two_functor(th)


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
    segments = tuple((str(i), str(i + 1)) for i in range(m))
    one_decomp, two_decomp = {}, {}
    for i in range(m + 1):
        for j in range(i, m + 1):
            for a in tuples[(i, j)]:
                one_decomp[(str(i), str(j), T._enc(a))] = tuple(
                    ((str(i + t), str(i + t + 1)), T._enc((a[t],)))
                    for t in range(j - i)
                )
                for b in tuples[(i, j)]:
                    if all(p <= q for p, q in zip(a, b)):
                        two_decomp[(str(i), str(j), T._mid(a, b))] = tuple(
                            ((str(i + t), str(i + t + 1)), T._mid((a[t],), (b[t],)))
                            for t in range(j - i)
                        )
    return T.Fin2Category(
        objects, hom, hcompose1, hcompose2, unit1,
        segments=segments, one_decomp=one_decomp, two_decomp=two_decomp,
    )


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
        for table in ("unit1", "one_decomp", "two_decomp"):
            assert list(getattr(got, table).items()) == list(
                getattr(want, table).items()
            ), (shape, table)
        assert got.segments == want.segments


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
    stripped = T.Fin2Category(
        D.objects, D.hom, D.hcompose1, D.hcompose2, D.unit1
    )
    full = T.enumerate_two_functors(stripped, E)
    assert len(seg) == len(full)
    assert sorted(F.key() for F in seg) == sorted(F.key() for F in full)


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
])
def test_two_category_json_rejects_malformed_data(damage):
    data = T.two_category_to_json(T.cell(2))
    damage(data)
    with pytest.raises(ValueError):
        T.two_category_from_json(data)
