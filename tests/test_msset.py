import itertools
import math
import json

import pytest
from hypothesis import given, settings, strategies as st

from theta2kit import msset as M
from theta2kit import nerves as N
from theta2kit import theta as TH
from theta2kit import twocat as T
from theta2kit.suspension import suspend_marked

from raw_oracles import (
    msset_dumps, product_map, raw_colimit, raw_is_mono, raw_map_by_vertices,
    raw_product_with_index, raw_simplicial_identity_failures)


# ---------------------------------------------------------------------------
# degeneracy-word arithmetic


@st.composite
def refs(draw, max_gen_dim=3, max_extra=4):
    gdim = draw(st.integers(0, max_gen_dim))
    ref = ("g", ())
    dim = gdim
    for _ in range(draw(st.integers(0, max_extra))):
        ref = M.degenerate(ref, draw(st.integers(0, dim)))
        dim += 1
    return gdim, ref


@given(refs())
def test_degenerate_keeps_normal_form(data):
    _, ref = data
    assert M.normal_word(ref[1])


@given(refs(), st.data())
def test_degenerate_word_length_tracks_dimension(data, extra):
    gdim, ref = data
    dim = gdim + len(ref[1])
    i = extra.draw(st.integers(0, dim))
    out = M.degenerate(ref, i)
    assert len(out[1]) == len(ref[1]) + 1


@given(st.lists(st.integers(0, 5), min_size=0, max_size=6))
def test_degenerate_order_independence_on_swapped_pairs(indices):
    # s_i s_j = s_{j+1} s_i for i <= j, checked through the normalizer
    ref1 = ("g", ())
    dim = 6
    for i in indices:
        i = min(i, dim)
        ref1 = M.degenerate(ref1, i)
        dim += 1
    assert M.normal_word(ref1[1])


def test_face_of_degeneracy_cancels():
    X = M.standard_simplex(2)
    ref = ("012", ())
    for i in range(3):
        s = M.degenerate(ref, i)
        assert X.face(s, i) == ref
        assert X.face(s, i + 1) == ref


def test_valid_words_counts():
    # words raising dimension d to n are choices of n-d indices
    assert len(list(M.valid_words(1, 3))) == 3  # C(3,2)
    assert len(list(M.valid_words(0, 2))) == 1
    assert list(M.valid_words(2, 2)) == [()]
    assert list(M.valid_words(3, 2)) == []


# ---------------------------------------------------------------------------
# standard simplices


def test_flat_simplex_counts():
    X = M.standard_simplex(2)
    assert X.counts()[:3] == (3, 3, 1)
    assert X.marked_counts() == (0,) * (X.bound + 1)
    assert M.validate_msset(X).ok


def test_sharp_marks_everything_positive():
    X = M.standard_simplex(2, "sharp")
    assert X.marked_counts()[:3] == (0, 3, 1)


def test_boundary_and_horn():
    B = M.standard_simplex(2, "boundary")
    assert B.counts()[:3] == (3, 3, 0)
    H = M.standard_simplex(2, "horn", horn=1)
    assert H.counts()[:3] == (3, 2, 0)
    with pytest.raises(ValueError):
        M.standard_simplex(2, "horn", horn=5)


@pytest.mark.parametrize("horn", ["1", True, 1.0, None, -1, 3])
def test_horn_index_must_be_an_int_in_range(horn):
    # "1" raised TypeError from the range check; True and 1.0 gave horn 1
    with pytest.raises(ValueError, match="horn index"):
        M.standard_simplex(2, "horn", horn=horn)


def test_edge_marked_and_eq3():
    T = M.standard_simplex(1, "edge_marked")
    assert T.marked == frozenset({"01"})
    E = M.standard_simplex(3, "eq3")
    assert set(E.marked) == {"02", "13", "012", "013", "023", "123", "0123"}
    with pytest.raises(ValueError):
        M.standard_simplex(2, "eq3")


@pytest.mark.parametrize("ell", [9, 10, 12, 14])
def test_standard_simplex_ids_unique_past_nine(ell):
    # digit-string ids made edge (0,12) and triangle (0,1,2) both "012"
    X = M.standard_simplex(ell, bound=2)
    assert M.validate_msset(X).ok
    assert X.counts() == tuple(math.comb(ell + 1, n + 1) for n in range(3))


def test_standard_simplex_ids_below_ten_are_digit_strings():
    X = M.standard_simplex(12, bound=2)
    assert "012" in X.gens_at(2) and "0(12)" in X.gens_at(1)
    assert M.standard_simplex(9, bound=2).gens_at(1)[-1] == "89"


def test_all_simplices_of_delta1():
    X = M.standard_simplex(1)
    # two doubly-degenerate vertices and two degeneracies of the edge
    assert len(X.all_simplices(2)) == 4


# ---------------------------------------------------------------------------
# products


def _shuffle_count(p, q, n):
    """Jointly injective monotone pairs [n] -> [p] x [q]: the
    nondegenerate n-simplices of the product of standard simplices."""
    count = 0
    for a in itertools.product(range(p + 1), repeat=n + 1):
        if any(a[i] > a[i + 1] for i in range(n)):
            continue
        for b in itertools.product(range(q + 1), repeat=n + 1):
            if any(b[i] > b[i + 1] for i in range(n)):
                continue
            if len(set(zip(a, b))) == n + 1:
                count += 1
    return count


def test_square_matches_shuffle_oracle():
    X = M.standard_simplex(1)
    P = M.product(X, X)
    assert P.counts()[:3] == (4, 5, 2)
    for n in range(3):
        assert len(P.gens_at(n)) == _shuffle_count(1, 1, n)
    assert M.validate_msset(P).ok


def test_prism_counts():
    P = M.product(M.standard_simplex(2), M.standard_simplex(1))
    expected = tuple(_shuffle_count(2, 1, n) for n in range(4))
    assert P.counts()[:4] == expected


def test_product_with_point_is_identity_shaped():
    X = M.standard_simplex(2, "sharp")
    P = M.product(X, M.standard_simplex(0))
    iso = M.find_iso(P, X)
    assert iso is not None and M.is_iso(iso)


def test_product_marking_is_componentwise():
    T = M.standard_simplex(1, "edge_marked")
    S = M.standard_simplex(1, "sharp")
    P, pair_of = M.product_with_index(T, S)
    marked_edges = [g for g in P.gens_at(1) if g in P.marked]
    # every nondegenerate edge projects to a marked edge in both factors
    # here (the marked edge or a degenerate one), so all five are marked
    assert len(marked_edges) == 5
    for g in P.gens_at(1):
        rx, ry = pair_of[g]
        assert (g in P.marked) == (T.is_marked(rx) and S.is_marked(ry))


def test_product_map_tracks_projections():
    X = M.standard_simplex(1)
    f = M.MSSetMap(X, X, {"0": ("0", ()), "1": ("0", ()), "01": ("0", (0,))})
    pf = product_map(f, M.identity_map(X))
    assert M.validate_map(pf).ok


def test_product_map_of_a_product():
    # generator ids of a product of products hold several '*'
    X = M.standard_simplex(1)
    P = M.product(X, X)
    f = product_map(M.identity_map(P), M.identity_map(X))
    assert M.validate_map(f).ok
    assert f == M.identity_map(M.product(P, X))


# ---------------------------------------------------------------------------
# colimits


def test_coproduct_of_points():
    pt = M.standard_simplex(0)
    P, legs = M.colimit([pt, pt], [])
    assert P.counts()[0] == 2
    assert all(M.validate_map(l).ok for l in legs)


def test_circle_pushout():
    D1 = M.standard_simplex(1)
    B = M.standard_simplex(1, "boundary")
    inc = M.MSSetMap(B, D1, {"0": ("0", ()), "1": ("1", ())})
    C, l1, l2 = M.pushout(inc, inc)
    assert C.counts()[:2] == (2, 2)
    assert M.validate_msset(C).ok


def test_colimit_quotient_collapses_edge():
    D1 = M.standard_simplex(1)
    pt = M.standard_simplex(0)
    collapse = M.MSSetMap(D1, pt, {"0": ("0", ()), "1": ("0", ()), "01": ("0", (0,))})
    Q, legs = M.colimit([D1, pt], [(0, 1, collapse)])
    assert Q.counts()[:2] == (1, 0)


def test_colimit_marking_rule_union_of_preimages():
    # glue a flat edge onto a marked edge: the class stays marked
    D1 = M.standard_simplex(1)
    T = M.standard_simplex(1, "edge_marked")
    ident = M.MSSetMap(D1, T, {"0": ("0", ()), "1": ("1", ()), "01": ("01", ())})
    Q, _ = M.colimit([D1, T], [(0, 1, ident)])
    assert Q.marked_counts()[1] == 1


def test_colimit_rejects_bogus_arrow():
    D1 = M.standard_simplex(1)
    pt = M.standard_simplex(0)
    bad = M.MSSetMap(pt, D1, {"0": ("nope", ())})
    with pytest.raises(ValueError):
        M.colimit([pt, D1], [(0, 1, bad)])


def test_colimit_rejects_arrow_endpoint_out_of_range():
    pt = M.standard_simplex(0)
    for i, j in ((0, 1), (-1, 0)):
        with pytest.raises(ValueError, match="out of range"):
            M.colimit([pt], [(i, j, M.identity_map(pt))])


def test_colimit_rejects_arrow_missing_a_generator():
    D1 = M.standard_simplex(1)
    partial = M.MSSetMap(D1, D1, {"0": ("0", ()), "01": ("01", ())})
    with pytest.raises(ValueError, match="1 has no image"):
        M.colimit([D1, D1], [(0, 1, partial)])


def test_colimit_rejects_image_of_wrong_dimension():
    # a vertex sent to an edge used to give a colimit with counts (3, 1)
    pt, D1 = M.standard_simplex(0), M.standard_simplex(1)
    up = M.MSSetMap(pt, D1, {"0": ("01", ())})
    with pytest.raises(ValueError, match="wrong dimension"):
        M.colimit([pt, D1], [(0, 1, up)])


def test_colimit_rejects_arrow_from_another_node():
    # a map out of Delta[1] placed on a Delta[0] node
    pt, D1 = M.standard_simplex(0), M.standard_simplex(1)
    with pytest.raises(ValueError, match="not a generator of its source"):
        M.colimit([pt, D1], [(0, 1, M.identity_map(D1))])


@pytest.mark.parametrize("bound, match", [
    pytest.param(5, "bound 5 exceeds the least node bound 2", id="bound=5"),
    pytest.param(True, "bound must be an int >= 0", id="bound=True"),
    pytest.param(-1, "bound must be an int >= 0", id="bound=-1"),
    pytest.param(1.5, "bound must be an int >= 0", id="bound=1.5"),
])
def test_colimit_rejects_a_bad_bound(bound, match):
    # bound 5 over Delta[3] at bound 2 gave counts (4, 6, 4, 0, 0, 0), with
    # no 3-simplex; True and -1 gave sets of those bounds; 1.5 a TypeError
    with pytest.raises(ValueError, match=match):
        M.colimit([M.standard_simplex(3, bound=2)], [], bound=bound)


# ---------------------------------------------------------------------------
# products and colimits on generators against the all-simplex oracles


def assert_same_msset(X, Y):
    """The same generators, faces and marking, orders included."""
    assert X.bound == Y.bound
    assert list(X.gens.items()) == list(Y.gens.items())
    assert list(X.faces.items()) == list(Y.faces.items())
    assert X.marked == Y.marked


def assert_same_colimit(nodes, arrows, bound=None):
    P, legs = M.colimit(nodes, arrows, bound)
    Q, oracle = raw_colimit(nodes, arrows, bound)
    assert_same_msset(P, Q)
    for leg, want in zip(legs, oracle):
        assert list(leg.assignment.items()) == list(want.assignment.items())
    return P, legs


@st.composite
def small_mssets(draw, bound=3):
    """A simplex, horn or boundary of dimension at most 3, with a random
    set of its positive-dimensional generators marked."""
    ell = draw(st.integers(0, 3))
    variant = draw(st.sampled_from(["flat", "boundary", "horn"] if ell else ["flat"]))
    horn = draw(st.integers(0, ell)) if variant == "horn" else None
    X = M.standard_simplex(ell, variant, horn=horn, bound=bound)
    positive = sorted(g for n in range(1, bound + 1) for g in X.gens_at(n))
    marked = draw(st.sets(st.sampled_from(positive))) if positive else set()
    return M.MarkedSSet(X.bound, X.gens, X.faces, frozenset(marked))


def assert_same_product(X, Y):
    """product_with_index against the all-pairs oracle, pair order included;
    returns the product and the oracle's index of every pair."""
    P, pairs = M.product_with_index(X, Y)
    Q, index = raw_product_with_index(X, Y)
    assert_same_msset(P, Q)
    assert list(pairs.items()) == [
        (gid, pair) for pair, (gid, w) in index.items() if not w
    ]
    return P, index


@settings(max_examples=60, deadline=None)
@given(small_mssets(), small_mssets())
def test_product_matches_the_all_pairs_oracle(X, Y):
    _, index = assert_same_product(X, Y)
    # the pair lookup normalises every pair, degenerate ones included
    assert all(M._pair_ref(*pair) == ref for pair, ref in index.items())


_SHAPES = [T.Theta2Shape(m, ks) for m in range(3)
           for ks in itertools.product(range(3), repeat=m)]


@pytest.mark.parametrize("marking", ["rs", "duskin"])
@pytest.mark.parametrize("shape", _SHAPES, ids=str)
def test_product_with_a_point_matches_the_oracle_on_nerves(shape, marking, monkeypatch):
    # the L block of a level-0 cell: the nerve renamed, with no face layers
    X = N.nerve(T.theta2_object(shape), marking, bound=4)
    monkeypatch.setattr(M, "_face_layer", None)
    assert_same_product(X, M.standard_simplex(0, "sharp", bound=4))


@pytest.mark.parametrize("make", [
    pytest.param(lambda: M.standard_simplex(3, bound=4), id="flat"),
    pytest.param(lambda: M.standard_simplex(3, "sharp", bound=4), id="sharp"),
    pytest.param(lambda: M.standard_simplex(3, "horn", horn=1, bound=4), id="horn"),
    pytest.param(lambda: N.rs_nerve(T.suspend_category(T.free_iso()), bound=4),
                 id="suspended free iso"),
])
def test_product_with_a_point_matches_the_oracle(make):
    for variant in ("flat", "sharp"):
        assert_same_product(make(), M.standard_simplex(0, variant, bound=4))


def _one_vertex(v, bound, loops=()):
    """A hand-built simplicial set on the one vertex v, with a loop edge
    for each id in loops."""
    gens = {n: () for n in range(bound + 1)}
    gens[0], gens[1] = (v,), tuple(loops)
    faces = {e: ((v, ()), (v, ())) for e in loops}
    return M.MarkedSSet(bound, gens, faces, frozenset())


def _renamed_out_of_order():
    """Two vertices and a marked edge whose ids sort otherwise once they
    are renamed "<g|..." or "i#g#": "a" < "ab" but "<ab|" < "<a|", and
    "a" < "a!" but "0#a!#" < "0#a#"."""
    faces = {"e": (("ab", ()), ("a", ())), "e!": (("a!", ()), ("a", ()))}
    return M.MarkedSSet(2, {0: ("a", "a!", "ab"), 1: ("e", "e!"), 2: ()},
                        faces, frozenset(["e"]))


def _sphere(n):
    """S^n as the vertex a and one marked n-simplex t whose faces are all
    the degenerate s_{n-2}...s_0 a."""
    face = ("a", tuple(range(n - 2, -1, -1)))
    gens = {k: () for k in range(n + 1)}
    gens[0], gens[n] = ("a",), ("t",)
    return M.MarkedSSet(n, gens, {"t": (face,) * (n + 1)}, frozenset(["t"]))


@pytest.mark.parametrize("make, point", [
    pytest.param(lambda: (_renamed_out_of_order(), M.standard_simplex(0)), True,
                 id="ids sorted otherwise once renamed"),
    pytest.param(lambda: (_sphere(3), M.standard_simplex(0)), True, id="faces s1 s0 a"),
    pytest.param(lambda: (M.standard_simplex(2, "sharp", bound=4), _one_vertex("v", 4)),
                 True, id="vertex not 0"),
    pytest.param(lambda: (N.rs_nerve(T.theta2_object(T.Theta2Shape(1, (1,))), bound=4),
                          M.standard_simplex(0, bound=2)), True, id="point of lower bound"),
    pytest.param(lambda: (M.standard_simplex(2, bound=1), _sphere(2)), True,
                 id="a 2-simplex above the common bound"),
    pytest.param(lambda: (M.standard_simplex(2, "sharp", bound=3),
                          _one_vertex("v", 3, loops=["e"])), False, id="one vertex and a loop"),
])
def test_product_with_one_vertex_matches_the_oracle(make, point, monkeypatch):
    X, Y = make()
    if point:
        # one vertex and nothing above it up to the common bound: X is
        # renamed, and no face layer is computed
        monkeypatch.setattr(M, "_face_layer", None)
    P, _ = assert_same_product(X, Y)
    assert P.bound == min(X.bound, Y.bound)


@pytest.mark.parametrize("Y", [M.standard_simplex(0), M.standard_simplex(1)],
                         ids=["point", "edge"])
def test_product_rejects_generator_ids_that_collide(Y):
    X = M.MarkedSSet(1, {0: ("a", "a"), 1: ()}, {}, frozenset())
    with pytest.raises(ValueError, match="duplicate generator ids in dimension 0"):
        M.product_with_index(X, Y)


@st.composite
def simplex_pushouts(draw, bound=3):
    """Delta[b] <- Delta[a] -> Delta[c] along monotone vertex maps, which
    are composites of face inclusions and degeneracy maps, the targets
    randomly marked."""
    a, b, c = (draw(st.integers(0, 3)) for _ in range(3))
    source = M.standard_simplex(a, bound=bound)
    nodes, arrows = [source], []
    for ell in (b, c):
        images = sorted(draw(st.lists(st.integers(0, ell), min_size=a + 1, max_size=a + 1)))
        flat = TH.simplex_map(a, ell, images, "flat", bound)
        Y = flat.target
        positive = sorted(g for n in range(1, bound + 1) for g in Y.gens_at(n))
        marked = draw(st.sets(st.sampled_from(positive))) if positive else set()
        Y = M.MarkedSSet(Y.bound, Y.gens, Y.faces, frozenset(marked))
        arrows.append((0, len(nodes), M.MSSetMap(source, Y, flat.assignment)))
        nodes.append(Y)
    return nodes, arrows


@settings(max_examples=60, deadline=None)
@given(simplex_pushouts())
def test_colimit_matches_the_all_simplex_oracle(diagram):
    nodes, arrows = diagram
    P, legs = assert_same_colimit(nodes, arrows)
    assert M.validate_msset(P).ok
    assert all(M.validate_map(leg).ok for leg in legs)
    # the legs are jointly surjective on generators
    hit = {ref[0] for leg in legs for ref in leg.assignment.values() if not ref[1]}
    assert hit == {g for n in P.gens for g in P.gens_at(n)}


def test_colimit_matches_the_oracle_on_the_eq3_pushout():
    N3 = N.rs_nerve(T.as_two_category(T.ordinal(3)), bound=4)
    D1 = M.standard_simplex(1, bound=4)
    D1t = M.standard_simplex(1, "edge_marked", bound=4)
    incl = M.MSSetMap(D1, D1t, {"0": ("0", ()), "1": ("1", ()), "01": ("01", ())})

    def edge(a, b):
        return M.map_by_vertices(D1, N3, {"0": f"{a};;", "1": f"{b};;"})

    nodes = [D1, D1, N3, D1t, D1t]
    arrows = [(0, 2, edge(0, 2)), (0, 3, incl), (1, 2, edge(1, 3)), (1, 4, incl)]
    P, _ = assert_same_colimit(nodes, arrows)
    assert M.find_iso(P, M.standard_simplex(3, "eq3", bound=4)) is not None


@settings(max_examples=60, deadline=None)
@given(st.lists(small_mssets(), min_size=1, max_size=3), st.none() | st.integers(0, 3))
def test_arrow_free_colimit_matches_the_oracle(nodes, bound):
    assert_same_colimit(nodes, [], bound)


def _nerve_21():
    return N.rs_nerve(T.theta2_object(T.Theta2Shape(2, (1, 0))), bound=4)


def _horn_20():
    return M.standard_simplex(2, "horn", horn=0, bound=4)


@pytest.mark.parametrize("make, bound", [
    pytest.param(lambda: [_nerve_21()], None, id="one nerve"),
    pytest.param(lambda: [_nerve_21()] * 2, None, id="the same node twice"),
    pytest.param(lambda: [M.empty_msset(4), _horn_20()], None, id="an empty node"),
    pytest.param(lambda: [_nerve_21(), _horn_20(), _nerve_21()], 2,
                 id="a bound below the nodes'"),
    pytest.param(lambda: [_renamed_out_of_order()] * 2, None,
                 id="ids sorted otherwise once renamed"),
    pytest.param(lambda: [_sphere(3), _sphere(4)], None, id="faces s1 s0 a"),
])
def test_arrow_free_colimit_is_a_coproduct(make, bound, monkeypatch):
    nodes = make()
    # nothing to join, so no union-find
    monkeypatch.setattr(M, "_UnionFind", None)
    assert_same_colimit(nodes, [], bound)


@given(st.sets(st.integers(0, 6), max_size=4), st.sets(st.integers(0, 3), max_size=2))
def test_apply_matches_the_degeneracy_loop_on_normal_words(word, image_word):
    w, image = (tuple(sorted(x, reverse=True)) for x in (word, image_word))
    f = M.MSSetMap(None, None, {"g": ("h", image)})
    want = ("h", image)
    for j in reversed(w):
        want = M.degenerate(want, j)
    assert f.apply(("g", w)) == want


# ---------------------------------------------------------------------------
# maps


def test_enumerate_maps_interval_oracle():
    D1 = M.standard_simplex(1)
    maps = M.enumerate_maps(D1, D1)
    assert len(maps) == 3  # monotone maps [1] -> [1]
    assert all(M.validate_map(f).ok for f in maps)


def test_enumerate_maps_respects_marking():
    T = M.standard_simplex(1, "edge_marked")
    D1 = M.standard_simplex(1)
    maps = M.enumerate_maps(T, D1)
    assert len(maps) == 2  # marked edge must collapse
    assert all(f.apply(("01", ()))[1] for f in maps)


def test_enumerate_maps_from_point():
    X = M.standard_simplex(2, "boundary")
    assert len(M.enumerate_maps(M.standard_simplex(0), X)) == 3


def test_mono_iso_checks():
    D2 = M.standard_simplex(2)
    B = M.standard_simplex(2, "boundary")
    inc = M.MSSetMap(
        B, D2, {g: (g, ()) for n in range(2) for g in B.gens_at(n)}
    )
    assert M.is_mono(inc)
    assert not M.is_iso(inc)
    assert M.is_iso(M.identity_map(D2))


def _z2_nerves(bound):
    """The nerves of Z/2 (unit e, t t = e), as a 2-category with identity
    2-cells, and of its suspension."""
    C = T.FinCategory(
        ("*",), {"e": ("*", "*"), "t": ("*", "*")}, {"*": "e"},
        {("e", "e"): "e", ("e", "t"): "t", ("t", "e"): "t", ("t", "t"): "e"},
    )
    return N.rs_nerve(T.as_two_category(C), bound), N.rs_nerve(T.suspend_category(C), bound)


def test_is_mono_and_is_iso_match_the_all_simplex_oracle():
    sets = [M.standard_simplex(ell, v, bound=3) for ell in range(3) for v in ("sharp", "flat")]
    sets.append(M.standard_simplex(2, "horn", horn=1, bound=3))
    sets.append(N.rs_nerve(T.theta2_object(T.Theta2Shape(1, (1,))), 3))
    sets.extend(_z2_nerves(3))
    maps = [f for X in sets for Y in sets for f in M.enumerate_maps(X, Y)]
    monos = [f for f in maps if raw_is_mono(f)]
    assert [f for f in maps if M.is_mono(f)] == monos
    # a mono between sets with as many generators, marked ones included,
    # in each dimension is onto in each
    assert [f for f in maps if M.is_iso(f)] == [
        f for f in monos if f.source.counts() == f.target.counts()
        and f.source.marked_counts() == f.target.marked_counts()]
    assert len(maps) > 300 and 50 < len(monos) < len(maps)
    # the L-maps of the vertical Segal spines are monos
    for k in range(4):
        f = TH.apply_L_map(TH.vertical_segal(k), bound=4)
        assert M.is_mono(f) and raw_is_mono(f), k


def test_find_iso_detects_marking_difference():
    flat = M.standard_simplex(1)
    marked = M.standard_simplex(1, "edge_marked")
    assert M.find_iso(flat, marked) is None


def test_map_by_vertices_unique_extension():
    D2 = M.standard_simplex(2)
    f = M.map_by_vertices(D2, D2, {"0": "0", "1": "1", "2": "2"})
    assert f.assignment["012"] == ("012", ())
    g = M.map_by_vertices(D2, D2, {"0": "0", "1": "0", "2": "0"})
    assert g.assignment["012"][0] == "0"


def test_map_by_vertices_rejects_bad_vertex_images():
    pt, D1 = M.standard_simplex(0), M.standard_simplex(1)
    with pytest.raises(ValueError, match="vertex 0: image 7 is not a vertex"):
        M.map_by_vertices(pt, D1, {"0": "7"})
    with pytest.raises(ValueError, match="vertex 0: image 01 is not a vertex"):
        M.map_by_vertices(pt, D1, {"0": "01"})
    with pytest.raises(ValueError, match="vertex 1 has no image"):
        M.map_by_vertices(D1, D1, {"0": "0"})


def _two_edges_from_0_to_2(triangles):
    """Vertices 0, 1, 2, edges 01, 12 and two edges a, b from 0 to 2, and
    a triangle with boundary (12, e, 01) for each e in triangles."""
    edge = {"01": ("0", "1"), "12": ("1", "2"), "a": ("0", "2"), "b": ("0", "2")}
    faces = {e: ((y, ()), (x, ())) for e, (x, y) in edge.items()}
    faces.update({f"t{e}": (("12", ()), (e, ()), ("01", ())) for e in triangles})
    gens = {0: ("0", "1", "2"), 1: tuple(sorted(edge)),
            2: tuple(sorted(f"t{e}" for e in triangles))}
    return M.MarkedSSet(2, gens, faces, frozenset())


def test_map_by_vertices_fails_only_without_a_unique_extension():
    D2 = M.standard_simplex(2)
    identity = {"0": "0", "1": "1", "2": "2"}
    # the edge 02 has two candidates, and only one bounds a triangle
    f = M.map_by_vertices(D2, _two_edges_from_0_to_2("a"), identity)
    assert f.assignment["02"] == ("a", ()) and M.validate_map(f).ok
    with pytest.raises(ValueError, match="found 2"):
        raw_map_by_vertices(D2, _two_edges_from_0_to_2("a"), identity)
    with pytest.raises(ValueError, match="found more than one"):
        M.map_by_vertices(D2, _two_edges_from_0_to_2("ab"), identity)
    with pytest.raises(ValueError, match="found none"):
        M.map_by_vertices(D2, _two_edges_from_0_to_2(""), identity)


def test_map_by_vertices_matches_the_oracle_on_its_callers(monkeypatch):
    import inspect

    import test_acceptance
    import test_suspension
    from theta2kit import cli

    calls = []
    search = M.map_by_vertices

    def recording(X, Y, vertex_images):
        calls.append((X, Y, dict(vertex_images)))
        return search(X, Y, vertex_images)

    monkeypatch.setattr(M, "map_by_vertices", recording)
    next(c for c in cli.CHECKS if c.name == "eq3-pushout").run()
    callers = [
        fn
        for mod in (test_suspension, test_acceptance)
        for fn in vars(mod).values()
        if inspect.isfunction(fn) and fn.__module__ == mod.__name__
        and "map_by_vertices" in inspect.getsource(fn)
    ]
    for fn in callers:
        fn()
    monkeypatch.undo()
    assert len(callers) == 6 and len(calls) == 14
    for X, Y, images in calls:
        got = M.map_by_vertices(X, Y, images).assignment
        assert list(got.items()) == list(raw_map_by_vertices(X, Y, images).assignment.items())


def test_is_iso_rejects_a_missing_generator():
    D1 = M.standard_simplex(1)
    f = M.MSSetMap(D1, D1, {"0": ("0", ()), "1": ("1", ())})
    assert not M.is_iso(f)


def test_find_iso_rejects_generators_above_the_common_bound():
    # X's generator 012 is above Y's bound, and so outside the search
    X = M.standard_simplex(2, bound=2)
    Y = M.standard_simplex(2, "boundary", bound=1)
    with pytest.raises(ValueError, match="common bound"):
        M.find_iso(X, Y)
    with pytest.raises(ValueError, match="common bound"):
        M.find_iso(Y, X)


def test_map_searches_name_the_dimension_they_exceed_the_guard_in():
    D1 = M.standard_simplex(1)
    # the vertices 0 -> 0 and 1 -> 0 take the only two steps
    with pytest.raises(M.ResourceLimitError, match="in enumerate_maps at dimension 1") as info:
        M.enumerate_maps(D1, D1, limit=2)
    e = info.value
    assert (e.operation, e.dimension, e.steps) == ("enumerate_maps", 1, 3)
    # 1 -> 0 is tried, and skipped as used, before 1 -> 1
    with pytest.raises(M.ResourceLimitError, match="in find_iso at dimension 0") as info:
        M.find_iso(D1, D1, limit=2)
    e = info.value
    assert (e.operation, e.dimension, e.steps) == ("find_iso", 0, 3)
    X = N.rs_nerve(T.theta2_object(T.Theta2Shape(1, (1,))), 4)
    with pytest.raises(M.ResourceLimitError) as info:
        TH.apply_R_at(X, T.Theta2Shape(2, (2, 2)), 0, limit=1000)
    e = info.value
    assert (e.operation, e.steps) == ("enumerate_maps", 1001)
    assert f"at dimension {e.dimension}" in str(e)


# ---------------------------------------------------------------------------
# the face index of find_iso against the linear search


def _linear_find_iso(X, Y, limit=2_000_000):
    """find_iso with every candidate list a scan of Y's generators;
    returns the map (or None) and the guard's step total."""
    bound = min(X.bound, Y.bound)
    if X.counts()[: bound + 1] != Y.counts()[: bound + 1]:
        return None, 0
    if X.marked_counts()[: bound + 1] != Y.marked_counts()[: bound + 1]:
        return None, 0
    guard = M._Guard(limit, "find_iso")
    order = [(n, g) for n in range(bound + 1) for g in X.gens_at(n)]
    if not order:
        return M.MSSetMap(X, Y, {}), 0
    assignment = {}
    used = set()

    def candidates(k):
        n, g = order[k]
        if n == 0:
            return list(Y.gens_at(0))
        partial = M.MSSetMap(X, Y, assignment)
        expected = [partial.apply(X.face((g, ()), i)) for i in range(n + 1)]
        return [
            h
            for h in Y.gens_at(n)
            if list(Y.faces[h]) == expected
            and (g in X.marked) == (h in Y.marked)
        ]

    stack = [[candidates(0), 0]]
    while stack:
        k = len(stack) - 1
        g = order[k][1]
        if g in assignment:
            used.discard(assignment[g][0])
            del assignment[g]
        cands, idx = stack[-1]
        if idx >= len(cands):
            stack.pop()
            continue
        stack[-1][1] = idx + 1
        h = cands[idx]
        guard.step()
        if h in used:
            continue
        assignment[g] = (h, ())
        used.add(h)
        if len(stack) == len(order):
            return M.MSSetMap(X, Y, dict(assignment)), guard.count
        stack.append([candidates(len(stack)), 0])
    return None, guard.count


def _recording_guards(monkeypatch):
    """Replace msset._Guard by a subclass that keeps every instance."""
    guards = []

    class Recording(M._Guard):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            guards.append(self)

    monkeypatch.setattr(M, "_Guard", Recording)
    return guards


def assert_find_iso_matches_scan(X, Y, monkeypatch):
    """find_iso gives the linear search's map, key order included, and
    its step total."""
    expected, steps = _linear_find_iso(X, Y)
    guards = _recording_guards(monkeypatch)
    got = M.find_iso(X, Y)
    monkeypatch.undo()
    if expected is None:
        assert got is None
    else:
        assert list(got.assignment.items()) == list(expected.assignment.items())
        assert got.source is X and got.target is Y
    assert sum(g.count for g in guards) == steps
    return got


def _delta2_marked_at(edge):
    D2 = M.standard_simplex(2)
    return M.MarkedSSet(D2.bound, D2.gens, D2.faces, frozenset({edge}))


def _square():
    return M.product(M.standard_simplex(1, "sharp"), M.standard_simplex(1))


def test_find_iso_matches_the_linear_search(monkeypatch):
    D2 = M.standard_simplex(2)
    sq = _square()
    flipped = M.product(M.standard_simplex(1), M.standard_simplex(1, "sharp"))
    cases = [
        (D2, D2),
        (sq, sq),
        (sq, flipped),
        (M.standard_simplex(3, "eq3", bound=4), M.standard_simplex(3, "eq3", bound=4)),
        (M.standard_simplex(3, "horn", horn=1), M.standard_simplex(3, "horn", horn=1)),
    ]
    for X, Y in cases:
        assert assert_find_iso_matches_scan(X, Y, monkeypatch) is not None


def test_find_iso_matches_the_linear_search_when_only_markings_differ(monkeypatch):
    # same generator and marked counts, so the search runs and fails
    X, Y = _delta2_marked_at("01"), _delta2_marked_at("12")
    assert X.marked_counts() == Y.marked_counts()
    assert assert_find_iso_matches_scan(X, Y, monkeypatch) is None
    assert _linear_find_iso(X, Y)[1] > 0


def test_find_iso_matches_the_linear_search_on_L_images(monkeypatch):
    bound = 4
    for shape in (T.Theta2Shape(0, ()), T.Theta2Shape(1, (1,)),
                  T.Theta2Shape(1, (2,)), T.Theta2Shape(2, (1, 0))):
        L = TH.apply_L(TH.representable(shape), bound)
        R = N.rs_nerve(T.theta2_object(shape), bound)
        assert assert_find_iso_matches_scan(L, R, monkeypatch) is not None
    for P, shape in ((TH.vertical_segal(2), T.Theta2Shape(1, (2,))),
                     (TH.horizontal_segal(2, (1, 0)), T.Theta2Shape(2, (1, 0)))):
        f = TH.apply_L_map(P, bound)
        R = N.rs_nerve(T.theta2_object(shape), bound)
        assert assert_find_iso_matches_scan(f.target, R, monkeypatch) is not None
    # level 1: the nerve times the sharp interval
    cone = T.Theta2Shape(1, (1,))
    L = TH.apply_L(TH.representable(cone, 1), 3)
    R = M.product(
        N.rs_nerve(T.theta2_object(cone), 3), M.standard_simplex(1, "sharp", bound=3)
    )
    assert assert_find_iso_matches_scan(L, R, monkeypatch) is not None


def relabel(X):
    """X with its generators renamed so that their sort order reverses."""
    ids = sorted(g for n in X.gens for g in X.gens_at(n))
    name = {g: f"r{len(ids) - i:04d}" for i, g in enumerate(ids)}
    return M.MarkedSSet(
        X.bound,
        {n: tuple(sorted(name[g] for g in X.gens_at(n))) for n in X.gens},
        {name[g]: tuple((name[h], w) for h, w in fs) for g, fs in X.faces.items()},
        frozenset(name[g] for g in X.marked),
    )


@st.composite
def simplex_variants(draw, max_ell=3, bound=3):
    ell = draw(st.integers(0, max_ell))
    variants = ["flat", "sharp", "boundary", "horn"] if ell else ["flat"]
    variant = draw(st.sampled_from(
        variants + {1: ["edge_marked"], 3: ["eq3"]}.get(ell, [])))
    horn = draw(st.integers(0, ell)) if variant == "horn" else None
    return M.standard_simplex(ell, variant, horn=horn, bound=bound)


@st.composite
def iso_sources(draw):
    """Simplex variants, products with at most six vertices and pushouts
    of simplices."""
    kind = draw(st.sampled_from(["simplex", "product", "pushout"]))
    if kind == "simplex":
        return draw(simplex_variants())
    if kind == "product":
        return M.product(draw(simplex_variants(1)), draw(simplex_variants(2)))
    return M.colimit(*draw(simplex_pushouts()))[0]


@settings(max_examples=60, deadline=None)
@given(iso_sources())
def test_find_iso_finds_a_relabelling(X):
    Y = relabel(X)
    f = M.find_iso(X, Y)
    assert f is not None
    assert M.validate_map(f).ok
    assert M.is_iso(f)


def test_validate_map_reports_dropped_marking():
    T = M.standard_simplex(1, "edge_marked")
    D1 = M.standard_simplex(1)
    f = M.MSSetMap(T, D1, {"0": ("0", ()), "1": ("1", ()), "01": ("01", ())})
    rep = M.validate_map(f)
    assert not rep.ok and any("marking" in v for v in rep.violations)


def test_validate_msset_negative_control():
    X = M.standard_simplex(2)
    broken = M.MarkedSSet(
        X.bound,
        X.gens,
        {**X.faces, "012": (("01", ()), ("01", ()), ("01", ()))},
        X.marked,
    )
    assert not M.validate_msset(broken).ok


def test_simplicial_identities_by_layers_match_the_recursive_oracle():
    # the same violations in the same order: none on nerves in each marking
    # and on simplices, some on a nerve with two faces of a 3-simplex swapped
    Xs = [N.nerve(T.theta2_object(T.Theta2Shape(*s)), bound=4, marking=marking)
          for s in [(2, (1, 1)), (1, (2,)), (3, (1, 0, 1))]
          for marking in ("rs", "duskin", "scaled")]
    Xs += [M.standard_simplex(4), suspend_marked(M.standard_simplex(3))]
    X = Xs[0]
    g = next(g for g in X.gens_at(3) if len(set(X.faces[g][:2])) == 2)
    d0, d1, *rest = X.faces[g]
    Xs.append(M.MarkedSSet(X.bound, X.gens, {**X.faces, g: (d1, d0, *rest)}, X.marked))
    for Y in Xs:
        assert M.validate_msset(Y).violations == raw_simplicial_identity_failures(Y)
    assert len(M.validate_msset(Xs[-1]).violations) > 1


# ---------------------------------------------------------------------------
# serialization


def test_json_round_trip():
    for X in [
        M.standard_simplex(2, "sharp"),
        M.standard_simplex(3, "eq3"),
        M.product(M.standard_simplex(1), M.standard_simplex(1)),
    ]:
        data = json.loads(msset_dumps(X))
        Y = M.msset_from_json(data)
        assert Y.gens == X.gens
        assert Y.faces == X.faces
        assert Y.marked == X.marked
        assert Y.bound == X.bound


def test_json_rejects_unknown_schema():
    data = M.msset_to_json(M.standard_simplex(0))
    data["schema"] = "other/9"
    with pytest.raises(ValueError):
        M.msset_from_json(data)


def _json_of_triangle():
    return M.msset_to_json(M.standard_simplex(2, bound=3))


@pytest.mark.parametrize("key", ["bound", "gens", "faces", "marked"])
def test_json_rejects_missing_key(key):
    data = _json_of_triangle()
    del data[key]
    with pytest.raises(ValueError, match=key):
        M.msset_from_json(data)


def test_json_rejects_face_of_unknown_generator():
    data = _json_of_triangle()
    data["faces"]["012"][1]["gen"] = "nowhere"
    with pytest.raises(ValueError, match="unknown generator nowhere"):
        M.msset_from_json(data)


def test_json_rejects_wrong_number_of_faces():
    data = _json_of_triangle()
    data["faces"]["012"].pop()
    with pytest.raises(ValueError, match="expected 3 faces"):
        M.msset_from_json(data)


def test_json_rejects_malformed_values():
    data = _json_of_triangle()
    data["faces"]["01"] = [{"gen": "0"}, {"gen": "1"}]
    with pytest.raises(ValueError):
        M.msset_from_json(data)
    with pytest.raises(ValueError):
        M.msset_from_json([])


def _json_of_an_edge():
    """An edge e: a -> b, marked, as msset/1 JSON."""
    return {"schema": "msset/1", "bound": 1, "gens": {"0": ["a", "b"], "1": ["e"]},
            "faces": {"e": [{"gen": "b", "word": []}, {"gen": "a", "word": []}]},
            "marked": ["e"]}


@pytest.mark.parametrize("damage", [
    pytest.param(lambda d: d["gens"].update({"0": "ab"}), id="vertices a str"),
    pytest.param(lambda d: d["gens"].update({"1": {"e": 0}}), id="edges an object"),
    pytest.param(lambda d: d.update(marked="e"), id="marked a str"),
])
def test_json_rejects_a_str_or_an_object_for_an_array(damage):
    # each loaded: "ab" as the vertices a and b, {"e": 0} as the edge e,
    # "e" as the marked set {"e"}
    data = _json_of_an_edge()
    assert M.msset_from_json(data).counts() == (2, 1)
    damage(data)
    with pytest.raises(ValueError, match="must be a JSON array"):
        M.msset_from_json(data)


def _json_with_a_degenerate_face():
    """The nerve of the free 2-cell as JSON, and a face entry in it whose
    degeneracy word is [0]."""
    data = M.msset_to_json(N.duskin_nerve(T.cell(2), bound=3))
    face = next(f for _, fs in sorted(data["faces"].items()) for f in fs
                if f["word"] == [0])
    return data, face


@pytest.mark.parametrize("entry", [True, "0", [0], {}, 0.0, -1, None])
def test_json_rejects_a_face_word_entry_that_is_not_an_int(entry):
    # [true] loaded and failed validate_msset with a KeyError, "0" and {}
    # with a TypeError; [0.0] loaded and validated
    data, face = _json_with_a_degenerate_face()
    M.msset_from_json(data)
    face["word"] = [entry]
    with pytest.raises(ValueError, match="face word entry"):
        M.msset_from_json(data)


@pytest.mark.parametrize("bound", [True, False, -1, 2.0, "3", None])
def test_json_rejects_bad_bound(bound):
    data = _json_of_triangle()
    data["bound"] = bound
    with pytest.raises(ValueError, match="bound must be an int >= 0"):
        M.msset_from_json(data)


def test_json_rejects_generator_listed_twice():
    # "01" twice in dimension 1 used to load with counts (3, 4, 1, 0)
    data = _json_of_triangle()
    data["gens"]["1"] = ["01", "01", "02", "12"]
    with pytest.raises(ValueError, match="01 listed more than once"):
        M.msset_from_json(data)
    # and "01" as a vertex too, which loaded with counts (4, 3, 1, 0)
    data = _json_of_triangle()
    data["gens"]["0"].append("01")
    with pytest.raises(ValueError, match="01 listed more than once"):
        M.msset_from_json(data)


@pytest.mark.parametrize("g", ["zz", "0"])
def test_json_rejects_faces_of_a_non_generator_or_a_vertex(g):
    # the entry used to load, pass validate_msset and be written back
    data = M.msset_to_json(M.standard_simplex(1))
    data["faces"][g] = [{"gen": "0", "word": []}, {"gen": "1", "word": []}]
    with pytest.raises(ValueError, match=f"faces listed for {g}, not a generator"):
        M.msset_from_json(data)


def test_json_rejects_a_face_word_too_long_for_its_dimension():
    # s_5 of a vertex passed as an edge: it loaded, and validate_msset then
    # raised KeyError looking up the faces of a vertex
    data = _json_of_triangle()
    data["faces"]["012"][0] = {"gen": "1", "word": [5]}
    T2 = M.standard_simplex(2, bound=3)
    X = M.MarkedSSet(3, T2.gens, {**T2.faces, "012": (("1", (5,)), *T2.faces["012"][1:])},
                     T2.marked)
    assert "012: face 0 word (5,) not normal" in M.validate_msset(X).violations
    with pytest.raises(ValueError, match=r"012: face 0 word \(5,\) not normal"):
        M.msset_from_json(data)


def test_validate_msset_sees_generator_listed_twice():
    X = M.standard_simplex(2, bound=3)
    within = M.MarkedSSet(X.bound, {**X.gens, 1: ("01", "01", "02", "12")},
                          X.faces, X.marked)
    across = M.MarkedSSet(X.bound, {**X.gens, 0: ("0", "01", "1", "2")},
                          X.faces, X.marked)
    for Y in (within, across):
        report = M.validate_msset(Y)
        assert not report.ok
        assert "generator id 01 listed more than once" in report.violations
    assert M.validate_msset(X).ok


@pytest.mark.parametrize("make", [
    pytest.param(lambda: M.standard_simplex(1.5), id="ell=1.5"),
    pytest.param(lambda: M.standard_simplex(True), id="ell=True"),
    pytest.param(lambda: M.standard_simplex(-1), id="ell=-1"),
    pytest.param(lambda: M.standard_simplex(2, bound=-1), id="bound=-1"),
    pytest.param(lambda: M.standard_simplex(2, bound=True), id="bound=True"),
    pytest.param(lambda: M.empty_msset(-1), id="empty bound=-1"),
    pytest.param(lambda: M.empty_msset(2.0), id="empty bound=2.0"),
])
def test_constructors_reject_bad_ints(make):
    # ell = 1.5 used to raise a TypeError, ell = True to give Delta[1]
    # and bound = -1 a set of bound -1
    with pytest.raises(ValueError):
        make()
