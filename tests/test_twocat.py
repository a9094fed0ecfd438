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
