import pytest

from theta2kit import msset as M
from theta2kit import nerves as N
from theta2kit import suspension as S
from theta2kit import twocat as T
from theta2kit import suspension_comparison


def _corpus():
    out = []
    for ell in range(4):
        out.append(M.standard_simplex(ell))
        out.append(M.standard_simplex(ell, "sharp"))
        if ell >= 1:
            out.append(M.standard_simplex(ell, "boundary"))
    out.append(M.standard_simplex(1, "edge_marked"))
    out.append(M.standard_simplex(3, "eq3"))
    for k in range(4):
        out.append(N.rs_nerve(T.as_two_category(T.ordinal(k)), bound=4))
    return out


# ---------------------------------------------------------------------------
# the counting law


def test_suspension_counting_law():
    for X in _corpus():
        SX = S.suspend_marked(X)
        assert M.validate_msset(SX).ok
        assert SX.counts()[0] == 2
        assert SX.marked_counts()[:2] == (0, 0)
        for n in range(1, SX.bound + 1):
            assert len(SX.gens_at(n)) == len(X.gens_at(n - 1))
            assert SX.marked_counts()[n] == X.marked_counts()[n - 1]


def test_suspension_of_marked_edge():
    SX = S.suspend_marked(M.standard_simplex(1, "edge_marked"))
    assert SX.counts()[:3] == (2, 2, 1)
    assert SX.marked_counts()[:3] == (0, 0, 1)


def test_suspension_of_two_points_is_two_intervals():
    SX = S.suspend_marked(M.standard_simplex(1, "boundary"))
    assert SX.counts()[:3] == (2, 2, 0)
    for g in SX.gens_at(1):
        assert SX.face((g, ()), 0) == ("top", ())
        assert SX.face((g, ()), 1) == ("bot", ())


def test_suspension_rejects_bound_overflow():
    X = M.standard_simplex(2, bound=2)
    with pytest.raises(ValueError):
        S.suspend_marked(X)


def test_suspension_of_point_is_interval():
    SX = S.suspend_marked(M.standard_simplex(0))
    iso = M.find_iso(SX, M.standard_simplex(1))
    assert iso is not None


# ---------------------------------------------------------------------------
# functoriality


def test_suspend_map_of_collapse_validates():
    D1 = M.standard_simplex(1)
    pt = M.standard_simplex(0)
    f = M.map_by_vertices(D1, pt, {"0": "0", "1": "0"})
    sf = S.suspend_map(f)
    assert M.validate_map(sf).ok


def test_suspend_map_of_mono_is_mono():
    D2 = M.standard_simplex(2)
    D1 = M.standard_simplex(1)
    inc = M.map_by_vertices(D1, D2, {"0": "0", "1": "1"})
    sf = S.suspend_map(inc)
    assert M.validate_map(sf).ok
    assert M.is_mono(sf)


def test_suspend_map_respects_composition():
    D1 = M.standard_simplex(1)
    D2 = M.standard_simplex(2)
    pt = M.standard_simplex(0)
    f = M.map_by_vertices(D1, D2, {"0": "0", "1": "2"})
    g = M.map_by_vertices(D2, pt, {"0": "0", "1": "0", "2": "0"})
    lhs = S.suspend_map(f.compose(g))
    rhs = S.suspend_map(f).compose(S.suspend_map(g))
    assert lhs.assignment == rhs.assignment


# ---------------------------------------------------------------------------
# connected colimits


def _sample_pushouts():
    D1 = M.standard_simplex(1)
    D2 = M.standard_simplex(2)
    pt = M.standard_simplex(0)
    edge01 = M.map_by_vertices(D1, D2, {"0": "0", "1": "1"})
    at0 = M.map_by_vertices(pt, D1, {"0": "0"})
    collapse = M.map_by_vertices(D1, pt, {"0": "0", "1": "0"})
    return [
        (edge01, edge01),     # two triangles glued along an edge
        (at0, at0),           # wedge of two intervals
        (edge01, collapse),   # a triangle with one edge collapsed
    ]


def test_suspension_commutes_with_connected_pushouts():
    for f, g in _sample_pushouts():
        P, _, _ = M.pushout(f, g)
        SP = S.suspend_marked(P)
        Q, _, _ = M.pushout(S.suspend_map(f), S.suspend_map(g))
        assert M.find_iso(SP, Q) is not None, (f.assignment, g.assignment)


# ---------------------------------------------------------------------------
# the comparison map


def _comparison_categories():
    return [T.ordinal(k) for k in range(4)] + [T.free_iso()]


def test_comparison_validates():
    for C in _comparison_categories():
        f = suspension_comparison(C, bound=4)
        assert M.validate_map(f).ok, C.objects


def test_comparison_injective_on_low_generators():
    for C in _comparison_categories():
        f = suspension_comparison(C, bound=4)
        seen = set()
        for n in range(3):
            for g in f.source.gens_at(n):
                img = f.assignment[g]
                assert img[1] == (), (g, img)  # lands nondegenerately
                assert img not in seen
                seen.add(img)


def test_comparison_is_iso_for_the_point():
    f = suspension_comparison(T.ordinal(0), bound=4)
    assert M.is_iso(f)


def _lift_functor(F):
    """A 1-functor as a 2-functor between the discrete-hom 2-categories."""
    A = T.as_two_category(F.source)
    B = T.as_two_category(F.target)
    hom_maps = {}
    for (x, y), H in A.hom.items():
        om = {f: F.mor_map[f] for f in H.objects}
        mm = {f"id({f})": f"id({F.mor_map[f]})" for f in H.objects}
        hom_maps[(x, y)] = (om, mm)
    on_objects = {x: F.obj_map[x] for x in A.objects}
    return T.TwoFunctor(A, B, on_objects, hom_maps)


def _suspend_functor(F):
    SC = T.suspend_category(F.source)
    SD = T.suspend_category(F.target)
    seg = (dict(F.obj_map), dict(F.mor_map))
    return T.TwoFunctor(SC, SD, {"bot": "bot", "top": "top"}, {("bot", "top"): seg})


def test_comparison_naturality_squares():
    bound = 4
    comparisons = {
        m: suspension_comparison(T.ordinal(m), bound=bound) for m in range(3)
    }
    for a in range(3):
        for b in range(3):
            for F in T.enumerate_functors(T.ordinal(a), T.ordinal(b)):
                top = S.suspend_map(N.nerve_map(_lift_functor(F), bound=bound - 1))
                bottom = N.nerve_map(_suspend_functor(F), bound=bound)
                lhs = top.compose(comparisons[b])
                rhs = comparisons[a].compose(bottom)
                assert lhs.assignment == rhs.assignment, (a, b, F.obj_map)


@pytest.mark.parametrize("C", [T.ordinal(0), T.ordinal(2), T.free_iso()])
def test_comparison_at_bound_zero_is_the_two_vertices(C):
    # C's nerve one dimension down is empty, and no nerve is built there
    f = suspension_comparison(C, bound=0)
    assert f.source.bound == f.target.bound == 0
    assert f.source.gens == {0: ("bot", "top")}
    assert f.target.counts() == (2,)
    assert sorted(f.assignment.values()) == [(g, ()) for g in f.target.gens_at(0)]
    assert M.validate_map(f).ok


@pytest.mark.parametrize("bound", [-1, 2.5, True])
def test_comparison_rejects_bad_bounds(bound):
    with pytest.raises(ValueError):
        suspension_comparison(T.ordinal(1), bound=bound)
