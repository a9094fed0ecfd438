"""End-to-end acceptance checks for the whole package.

Each test is exact (no tolerances) and pins one of the headline
combinatorial identities the library is built around.
"""

import itertools
import json
import math

from theta2kit import msset as M
from theta2kit import nerves as N
from theta2kit import suspension as S
from theta2kit import theta as TH
from theta2kit import twocat as T
from theta2kit import suspension_comparison

from raw_oracles import msset_dumps


def _shape_grid(max_m, max_k):
    shapes = [T.Theta2Shape(0, ())]
    for m in range(1, max_m + 1):
        for ks in itertools.product(range(max_k + 1), repeat=m):
            shapes.append(T.Theta2Shape(m, ks))
    return shapes


# ---------------------------------------------------------------------------
# 1. the eq-marked 3-simplex as a pushout


def test_eq3_simplex_is_pushout_of_marked_edges():
    N3 = N.rs_nerve(T.as_two_category(T.ordinal(3)), bound=4)
    D1 = M.standard_simplex(1, bound=4)
    D1t = M.standard_simplex(1, "edge_marked", bound=4)
    incl = M.MSSetMap(
        D1, D1t, {"0": ("0", ()), "1": ("1", ()), "01": ("01", ())}
    )

    def edge(a, b):
        return M.map_by_vertices(D1, N3, {"0": f"{a};;", "1": f"{b};;"})

    nodes = [D1, D1, N3, D1t, D1t]
    arrows = [
        (0, 2, edge(0, 2)), (0, 3, incl),
        (1, 2, edge(1, 3)), (1, 4, incl),
    ]
    P, _ = M.colimit(nodes, arrows)
    assert M.validate_msset(P).ok
    assert M.find_iso(P, M.standard_simplex(3, "eq3", bound=4)) is not None


# ---------------------------------------------------------------------------
# 2. hom bijection grid


def test_hom_bijection_grid():
    for shape in _shape_grid(3, 2):
        th = T.theta2_object(shape)
        for i in range(4):
            for j in range(4):
                fs, formula = TH.d_restriction(shape, i, j)
                assert len(fs) == formula, (shape, i, j)
                if i == 1:
                    n_j = sum(T.chain_count(H, j) for H in th.hom.values())
                    assert len(fs) == n_j, (shape, j)


# ---------------------------------------------------------------------------
# 3. L on representables


def test_L_of_representables_is_the_nerve():
    for shape in _shape_grid(2, 2):
        L = TH.apply_L(TH.representable(shape), bound=4)
        R = N.rs_nerve(T.theta2_object(shape), bound=4)
        assert M.find_iso(L, R) is not None, shape


# ---------------------------------------------------------------------------
# 4. elementary cofibration images


def _nerve_colimit(shapes, arrows, bound=4):
    """Colimit of nerves glued by 2-functors, bypassing the box-cell
    machinery: an independent model for the codomain checks below."""
    nodes = [N.rs_nerve(T.theta2_object(s), bound) for s in shapes]
    ars = [(i, j, N.nerve_map(G, "rs", bound)) for i, j, G in arrows]
    P, _ = M.colimit(nodes, ars, bound=bound)
    return P


def test_vertical_segal_images():
    for k in range(4):
        f = TH.apply_L_map(TH.vertical_segal(k), bound=4)
        assert M.validate_map(f).ok
        assert M.is_mono(f), k
        Y = N.rs_nerve(T.theta2_object(T.Theta2Shape(1, (k,))), bound=4)
        assert M.find_iso(f.target, Y) is not None, k


def test_horizontal_segal_images():
    cases = [(0, ())]
    for m in range(1, 4):
        cases += [(m, ks) for ks in itertools.product(range(2), repeat=m)]
    for m, ks in cases:
        f = TH.apply_L_map(TH.horizontal_segal(m, ks), bound=4)
        assert M.validate_map(f).ok
        assert M.is_mono(f), (m, ks)
        Y = N.rs_nerve(T.theta2_object(T.Theta2Shape(m, ks)), bound=4)
        assert M.find_iso(f.target, Y) is not None, (m, ks)


def test_horizontal_completeness_image():
    f = TH.apply_L_map(TH.horizontal_completeness(), bound=4)
    assert M.validate_map(f).ok
    assert M.is_mono(f)
    # independent model: the nerve of [3|0,0,0] with the 02 and 13 edges
    # collapsed to points
    point = T.Theta2Shape(0, ())
    edge = T.Theta2Shape(1, (0,))
    three = T.Theta2Shape(3, (0, 0, 0))
    leg02 = TH.shape_functor(edge, three, [0, 2], [[(0, 0)]])
    leg13 = TH.shape_functor(edge, three, [1, 3], [[(0, 0)]])
    collapse = TH.shape_functor(edge, point, [0, 0], [[()]])
    P = _nerve_colimit(
        [three, point, point, edge, edge],
        [(3, 1, collapse), (3, 0, leg02), (4, 0, leg13), (4, 2, collapse)],
    )
    assert M.find_iso(f.target, P) is not None


def test_vertical_completeness_image():
    f = TH.apply_L_map(TH.vertical_completeness(), bound=4)
    assert M.validate_map(f).ok
    assert M.is_mono(f)
    # independent model: the nerve of [1|3] with the 02 and 13 sub-2-cells
    # collapsed onto 1-cells
    edge = T.Theta2Shape(1, (0,))
    cone = T.Theta2Shape(1, (1,))
    three = T.Theta2Shape(1, (3,))
    leg02 = TH.shape_functor(cone, three, [0, 1], [[(0,), (2,)]])
    leg13 = TH.shape_functor(cone, three, [0, 1], [[(1,), (3,)]])
    collapse = TH.shape_functor(cone, edge, [0, 1], [[(0,), (0,)]])
    P = _nerve_colimit(
        [three, edge, edge, cone, cone],
        [(3, 1, collapse), (3, 0, leg02), (4, 0, leg13), (4, 2, collapse)],
    )
    assert M.find_iso(f.target, P) is not None


# ---------------------------------------------------------------------------
# 5. suspension laws


def test_suspension_counting_law_over_corpus():
    corpus = []
    for ell in range(4):
        corpus.append(M.standard_simplex(ell))
        corpus.append(M.standard_simplex(ell, "sharp"))
    corpus.append(M.standard_simplex(1, "edge_marked"))
    corpus.append(M.standard_simplex(3, "eq3"))
    for k in range(4):
        corpus.append(N.rs_nerve(T.as_two_category(T.ordinal(k)), bound=4))
    for X in corpus:
        SX = S.suspend_marked(X)
        assert M.validate_msset(SX).ok
        assert SX.counts()[0] == 2
        for n in range(1, SX.bound + 1):
            assert len(SX.gens_at(n)) == len(X.gens_at(n - 1))
            assert SX.marked_counts()[n] == X.marked_counts()[n - 1]


def test_suspension_commutes_with_connected_pushouts():
    D1 = M.standard_simplex(1)
    D2 = M.standard_simplex(2)
    pt = M.standard_simplex(0)
    edge01 = M.map_by_vertices(D1, D2, {"0": "0", "1": "1"})
    at0 = M.map_by_vertices(pt, D1, {"0": "0"})
    collapse = M.map_by_vertices(D1, pt, {"0": "0", "1": "0"})
    for f, g in [(edge01, edge01), (at0, at0), (edge01, collapse)]:
        P, _, _ = M.pushout(f, g)
        Q, _, _ = M.pushout(S.suspend_map(f), S.suspend_map(g))
        assert M.find_iso(S.suspend_marked(P), Q) is not None


# ---------------------------------------------------------------------------
# 6. the suspension comparison map


def _comparison_categories():
    return [T.ordinal(k) for k in range(4)] + [T.free_iso()]


def test_comparison_validates_and_is_injective_low():
    for C in _comparison_categories():
        f = suspension_comparison(C, bound=4)
        assert M.validate_map(f).ok
        seen = set()
        for n in range(3):
            for g in f.source.gens_at(n):
                img = f.assignment[g]
                assert img[1] == ()
                assert img not in seen
                seen.add(img)


def _lift_functor(F):
    A = T.as_two_category(F.source)
    B = T.as_two_category(F.target)
    hom_maps = {}
    for (x, y), H in A.hom.items():
        om = {f: F.mor_map[f] for f in H.objects}
        mm = {f"id({f})": f"id({F.mor_map[f]})" for f in H.objects}
        hom_maps[(x, y)] = (om, mm)
    return T.TwoFunctor(A, B, {x: F.obj_map[x] for x in A.objects}, hom_maps)


def _suspend_functor(F):
    seg = (dict(F.obj_map), dict(F.mor_map))
    return T.TwoFunctor(
        T.suspend_category(F.source),
        T.suspend_category(F.target),
        {"bot": "bot", "top": "top"},
        {("bot", "top"): seg},
    )


def test_comparison_naturality():
    comparisons = {
        m: suspension_comparison(T.ordinal(m), bound=4) for m in range(3)
    }
    for a in range(3):
        for b in range(3):
            for F in T.enumerate_functors(T.ordinal(a), T.ordinal(b)):
                top = S.suspend_map(N.nerve_map(_lift_functor(F), bound=3))
                bottom = N.nerve_map(_suspend_functor(F), bound=4)
                lhs = top.compose(comparisons[b])
                rhs = comparisons[a].compose(bottom)
                assert lhs.assignment == rhs.assignment, (a, b, F.obj_map)


# ---------------------------------------------------------------------------
# 7. nerve structure


def test_rs_nerve_of_ordinals_is_classical_and_marked_above_one():
    for k in range(4):
        X = N.rs_nerve(T.as_two_category(T.ordinal(k)), bound=4)
        for n in range(5):
            assert len(X.gens_at(n)) == math.comb(k + 1, n + 1)
        assert X.marked_counts()[1] == 0
        for n in range(2, 5):
            assert X.marked_counts()[n] == len(X.gens_at(n))


def test_duskin_nerves_are_3_coskeletal_on_grid():
    for shape in _shape_grid(2, 2):
        X = N.duskin_nerve(T.theta2_object(shape), bound=5)
        for n in (4, 5):
            assert all(
                c == 1 for _, c in N.filler_counts(X, n)
            ), (shape, n)


def test_free_2_cell_nerve_has_two_unmarked_triangles():
    X = N.rs_nerve(T.cell(2), bound=4)
    unmarked = [g for g in X.gens_at(2) if g not in X.marked]
    assert len(unmarked) == 2
    assert len(X.gens_at(2)) == 2


# ---------------------------------------------------------------------------
# 8. infrastructure


def test_seeded_fuzz_suite():
    from theta2kit.cli import CHECKS

    check = next(c for c in CHECKS if c.name == "simplicial-identities")
    entries = check.run(fuzz=200, seed=0)
    assert all(ok for _, ok, _ in entries), entries


def test_ez_round_trip():
    import random

    rng = random.Random(13)
    for _ in range(200):
        ref = ("g", ())
        dim = rng.randint(0, 3)
        for _ in range(rng.randint(0, 4)):
            ref = M.degenerate(ref, rng.randint(0, dim))
            dim += 1
        assert M.normal_word(ref[1])


def test_product_oracle():
    P = M.product(M.standard_simplex(1), M.standard_simplex(1))
    assert P.counts()[:3] == (4, 5, 2)


def test_json_round_trips_are_identities():
    X = M.product(
        M.standard_simplex(1, "edge_marked"), M.standard_simplex(1)
    )
    Y = M.msset_from_json(json.loads(msset_dumps(X)))
    assert (Y.bound, Y.gens, Y.faces, Y.marked) == (
        X.bound, X.gens, X.faces, X.marked
    )

    D = T.cell(2)
    E = T.two_category_from_json(T.two_category_to_json(D))
    assert (E.objects, E.hom, E.hcompose1, E.hcompose2, E.unit1) == (
        D.objects, D.hom, D.hcompose1, D.hcompose2, D.unit1
    )

    W = TH.vertical_segal(2).source
    V = TH.presentation_from_json(TH.presentation_to_json(W))
    assert V.cells == W.cells
    for (i, j, F, lam), (i2, j2, G, lam2) in zip(W.arrows, V.arrows):
        assert (i, j, lam) == (i2, j2, lam2) and F == G
