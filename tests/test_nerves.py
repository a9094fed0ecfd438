import collections
import functools
import gc
import itertools
import json
import math
import operator
import tracemalloc

import pytest
from hypothesis import given, settings, strategies as st

from theta2kit import msset as M
from theta2kit import nerves as N
from theta2kit import theta as TH
from theta2kit import twocat as T

import raw_oracles
from raw_oracles import (
    RawOps, face_tuples, from_raw, full_raw_nerve, layers, oracle_mask,
    raw_boundary_columns, raw_compatible_boundaries, raw_face_index, raw_filler_counts,
    raw_filler_counts_by_face, raw_nerve, raw_nerve_assignment)


def _ordinal_2cat(m):
    return T.as_two_category(T.ordinal(m))


# ---------------------------------------------------------------------------
# classical degeneration


def test_nerve_of_ordinal_matches_classical_nerve():
    for m in range(4):
        X = N.rs_nerve(_ordinal_2cat(m), bound=4)
        assert M.validate_msset(X).ok
        for n in range(5):
            assert len(X.all_simplices(n)) == math.comb(m + n + 1, n + 1)
        # nondegenerate n-simplices of [m] are strictly increasing chains
        for n in range(5):
            assert len(X.gens_at(n)) == math.comb(m + 1, n + 1)


def test_nerve_of_ordinal_marking():
    X = N.rs_nerve(_ordinal_2cat(3), bound=4)
    assert X.marked_counts()[1] == 0
    # all 2-cells of a 1-category are identities, so every triangle is marked
    assert X.marked_counts()[2] == len(X.gens_at(2))
    assert X.marked_counts()[3] == len(X.gens_at(3))


def test_theta_200_is_triangle():
    X = N.duskin_nerve(
        T.theta2_object(T.Theta2Shape(2, (0, 0))), bound=4
    )
    D2 = M.standard_simplex(2, bound=4)
    assert M.find_iso(X, D2) is not None


def test_rs_nerve_of_point():
    X = N.rs_nerve(T.cell(0), bound=3)
    assert M.find_iso(X, M.standard_simplex(0, bound=3)) is not None


# ---------------------------------------------------------------------------
# the free 2-cell


def test_c2_nerve_generators():
    X = N.duskin_nerve(T.cell(2), bound=5)
    assert X.counts() == (2, 2, 2, 2, 2, 2)
    assert M.validate_msset(X).ok


def test_c2_rs_marking():
    X = N.rs_nerve(T.cell(2), bound=4)
    # both nondegenerate triangles carry the noninvertible 2-cell
    assert X.marked_counts()[:3] == (0, 0, 0)
    assert X.marked_counts()[3] == len(X.gens_at(3))


def test_c2_scaled_marking_matches_rs():
    # in the poset [1] nothing nonidentity is invertible
    X = N.scaled_nerve(T.cell(2), bound=3)
    assert X.marked_counts()[2] == 0


def test_scaled_nerve_of_suspended_iso_marks_triangles():
    D = T.suspend_category(T.free_iso())
    rs = N.rs_nerve(D, bound=3)
    sc = N.scaled_nerve(D, bound=3)
    assert rs.gens == sc.gens
    # the triangles witnessing the isomorphism are scaled-marked only
    assert sc.marked_counts()[2] > rs.marked_counts()[2]


def test_scaled_nerve_of_1_category_marks_all_triangles():
    X = N.scaled_nerve(_ordinal_2cat(2), bound=3)
    assert X.marked_counts()[2] == len(X.gens_at(2))


def test_free_iso_nerve_two_generators_per_dimension():
    X = N.duskin_nerve(T.as_two_category(T.free_iso()), bound=4)
    assert X.counts() == (2, 2, 2, 2, 2)


# ---------------------------------------------------------------------------
# suspension cross-oracle


def test_suspended_point_nerve_is_interval():
    # the nerve of the suspension of [0] is an interval: the shift-by-one
    # picture is exact here, and only here — for larger ordinals the
    # nerve of the suspension strictly exceeds the suspended nerve
    X = N.duskin_nerve(T.suspend_category(T.ordinal(0)), bound=4)
    assert M.find_iso(X, M.standard_simplex(1, bound=4)) is not None


def test_suspended_category_nerve_contains_shifted_nerve():
    for m in range(4):
        D = T.suspend_category(T.ordinal(m))
        X = N.duskin_nerve(D, bound=4)
        C = N.duskin_nerve(_ordinal_2cat(m), bound=3)
        for n in range(1, 5):
            assert len(X.gens_at(n)) >= len(C.gens_at(n - 1)), (m, n)


# ---------------------------------------------------------------------------
# nerves._build against the generic from_raw oracle


def _z2():
    """Z/2 as a one-object category: the unit e and t with t t = e."""
    C = T.FinCategory(
        ("*",), {"e": ("*", "*"), "t": ("*", "*")}, {"*": "e"},
        {("e", "e"): "e", ("e", "t"): "t", ("t", "e"): "t", ("t", "t"): "e"},
    )
    assert T.validate_category(C).ok
    return C


def _z2_suspension():
    # hom(bot, top) has one 1-cell and a non-identity endo 2-cell t, so
    # simplices with a unit edge can still be nondegenerate
    return T.suspend_category(_z2())


def _oracle_cases():
    shapes = [T.Theta2Shape(0, ())]
    for m in (1, 2):
        for ks in itertools.product(range(3), repeat=m):
            shapes.append(T.Theta2Shape(m, ks))
    cases = [pytest.param(T.theta2_object(s), id=str(s)) for s in shapes]
    cases += [
        pytest.param(_z2_suspension(), id="Sigma Z/2"),
        pytest.param(T.suspend_category(T.free_iso()), id="Sigma I"),
        pytest.param(T.as_two_category(T.free_iso()), id="I"),
    ]
    return cases


MARKINGS = {
    v: functools.partial(N._marking, variant=v) for v in ("duskin", "rs", "scaled")
}


@pytest.mark.parametrize("D", _oracle_cases())
def test_build_matches_from_raw(D):
    # on the layers held whole, and on the layers _raw_nerve streams
    bound = 4
    by_dim, faces, masks = full_raw_nerve(D, bound)
    ops = RawOps(D)
    for marking, mk in MARKINGS.items():
        Y, normal = from_raw(bound, by_dim, ops.face, ops.degenerate, mk(D), N._key_fn)
        for how, raw in (("held", layers(D, by_dim, faces, masks)),
                         ("streamed", N._raw_nerve(D, bound))):
            X = N._build(D, raw, bound, mk(D))
            assert X.gens == Y.gens, (marking, how)
            assert X.faces == Y.faces, (marking, how)
            assert X.marked == Y.marked, (marking, how)
    # _ref on every raw simplex, degenerate ones included, is from_raw's
    # normal map, and the generator raws are those it keeps, in its order
    assert sum(map(len, by_dim.values())) == len(normal)
    assert {x: N._ref(D, x) for x in normal} == normal
    assert N._generator_raws(D, bound) == [x for x, (g, w) in normal.items() if not w]


@pytest.mark.parametrize("D", [
    pytest.param(T.theta2_object(T.Theta2Shape(2, (1, 1))), id="[2|1,1]"),
    pytest.param(T.suspend_category(T.free_iso()), id="Sigma I"),
])
def test_ref_with_shared_identities_matches_from_raw_on_degenerate_raws(D):
    # the callers that map many raws make D's identity tables once and
    # pass them to _ref; on the degenerate raws of dimension >= 3, where
    # _ref peels one degeneracy after another, it gives from_raw's reference
    # with the shared tables and with its own
    bound = 5
    by_dim, _, _ = full_raw_nerve(D, bound)
    ops = RawOps(D)
    _, normal = from_raw(bound, by_dim, ops.face, ops.degenerate,
                         N._marking(D, "duskin"), N._key_fn)
    degenerate = {x: ref for x, ref in normal.items() if len(x[0]) > 3 and ref[1]}
    assert max(len(w) for _, w in degenerate.values()) >= 3
    idents = N._identities(D)
    assert {x: N._ref(D, x, idents) for x in degenerate} == degenerate
    assert {x: N._ref(D, x) for x in degenerate} == degenerate


@pytest.mark.parametrize("D", _oracle_cases())
def test_streamed_build_stops_where_the_held_layers_stop(D, monkeypatch):
    # a limit inside each dimension, the top one included, stops the
    # streamed build with the error the held layers give
    bound = 4
    _, _, steps = _raw_nerve_with_steps(D, bound)
    below = 0
    for n in range(1, bound + 1):
        limit = below + steps[n] // 2
        below += steps[n]
        if not steps[n]:
            continue
        with pytest.raises(M.ResourceLimitError) as info:
            full_raw_nerve(D, bound, limit)
        want = info.value
        assert (want.operation, want.dimension) == ("nerve", n)
        for marking in MARKINGS:
            monkeypatch.setattr(N, "_nerve_cache", {})
            with pytest.raises(M.ResourceLimitError) as info:
                N.nerve(D, marking, bound, limit)
            e = info.value
            assert (e.operation, e.dimension, e.steps) == (
                want.operation, want.dimension, want.steps), (n, marking)


def _raw_nerve_checked(D, bound, monkeypatch):
    """The raw nerve with every hom treated as non-thin, so that every
    triangle goes through the checked search."""
    init = N._Tables.__init__

    def checked(self, D):
        init(self, D)
        self.thin = dict.fromkeys(self.thin, False)

    with monkeypatch.context() as m:
        m.setattr(N._Tables, "__init__", checked)
        return full_raw_nerve(D, bound)


@pytest.mark.parametrize("D", _oracle_cases())
def test_thin_extension_matches_checked(D, monkeypatch):
    assert full_raw_nerve(D, 4) == _raw_nerve_checked(D, 4, monkeypatch)


def test_thin_extension_matches_checked_on_incomparable_cells(monkeypatch):
    # hom(bot, top) is the cube [1]^3: its 1-cells have down-sets holding
    # incomparable cells, so the masks ANDed per edge have several bits
    D = T.suspend_category(T.product_poset((1, 1, 1)))
    tabs = N._Tables(D)
    assert tabs.thin[("bot", "top")]
    cube = tabs.down[("bot", "top")]
    assert sorted(m.bit_count() for m in cube.values()) == [1, 2, 2, 2, 4, 4, 4, 8]
    assert full_raw_nerve(D, 5) == _raw_nerve_checked(D, 5, monkeypatch)
    assert _guard_steps(D, 5, monkeypatch) == _guard_steps(
        D, 5, monkeypatch, checked=True)


def _mask_cases():
    cube = T.suspend_category(T.product_poset((1, 1, 1)))
    return _oracle_cases() + [pytest.param(cube, id="Sigma [1]^3")]


@pytest.mark.parametrize("D", _mask_cases())
def test_degeneracy_masks_match_the_oracle(D, monkeypatch):
    # every bit of every raw simplex in every layer against
    # _degeneracy_test, on the thin path and with every hom non-thin, so
    # that the rules on triangles run too
    bound = 4
    for by_dim, _, masks in (full_raw_nerve(D, bound),
                             _raw_nerve_checked(D, bound, monkeypatch)):
        want = {n: [oracle_mask(D, x) for x in layer] for n, layer in by_dim.items()}
        assert masks == want
        # each layer has the simplex degenerate at every position (a
        # vertex's), so every rule is reached
        assert [functools.reduce(operator.or_, masks[n]) for n in by_dim] == [
            (1 << n) - 1 for n in by_dim]
    # the streamed top layer gives the same masks, and no raw tuple or
    # faces for a degenerate simplex
    top = [list(layer) for layer in N._raw_nerve(D, bound)][bound]
    assert [m for _, _, m in top] == masks[bound]
    assert [(x, F) for x, F, m in top if m] == [(None, None)] * sum(map(bool, masks[bound]))
    assert [x for x, _, m in top if not m] == [
        x for x, m in zip(by_dim[bound], masks[bound]) if not m]


def test_degenerate_top_simplices_of_the_grid_cell():
    # [2|2,2] at bound 5: 118 800 raw 5-simplices, 72 177 of them generators
    D = T.theta2_object(T.Theta2Shape(2, (2, 2)))
    top = list(N._raw_nerve(D, 5))[5]
    assert collections.Counter(bool(m) for _, _, m in top) == {True: 46_623, False: 72_177}


def test_thin_flags_of_suspended_group():
    # hom(bot, top) holds two parallel 2-cells, the endo-homs are [0],
    # so one nerve of Sigma Z/2 runs both the thin and the checked path
    thin = N._Tables(_z2_suspension()).thin
    assert thin == {("bot", "top"): False, ("bot", "bot"): True,
                    ("top", "top"): True}


def _record_guards(monkeypatch, module=N):
    """Make module (nerves by default) record every guard it creates, in
    the list returned; each guard lists the steps of each charge in
    `charges`."""
    guards = []

    class Recording(M._Guard):
        def __init__(self, *args):
            super().__init__(*args)
            self.charges = []
            guards.append(self)

        def step(self, k=1):
            self.charges.append(k)
            super().step(k)

    monkeypatch.setattr(module, "_Guard", Recording)
    return guards


def _guard_steps(D, bound, monkeypatch, checked=False):
    guards = _record_guards(monkeypatch)
    if checked:
        _raw_nerve_checked(D, bound, monkeypatch)
    else:
        full_raw_nerve(D, bound)
    return guards[-1].count


@pytest.mark.parametrize("D", [
    pytest.param(T.theta2_object(T.Theta2Shape(2, (1, 2))), id="[2|1,2]"),
    pytest.param(_z2_suspension(), id="Sigma Z/2"),
])
def test_thin_extension_guard(D, monkeypatch):
    # the thin path counts every triangle it tries, as the checked path does
    steps = _guard_steps(D, 3, monkeypatch)
    assert steps == _guard_steps(D, 3, monkeypatch, checked=True)
    with pytest.raises(M.ResourceLimitError) as info:
        full_raw_nerve(D, 3, limit=steps - 1)
    e = info.value
    assert (e.operation, e.dimension, e.steps) == ("nerve", 3, steps)


def test_thin_extension_guard_inside_one_batch(monkeypatch):
    # the thin path charges the triangles of all edges at one position in
    # one step; a limit inside that step still stops the search there
    D = T.theta2_object(T.Theta2Shape(2, (2, 2)))
    widest = max(len(H.objects) for H in D.hom.values())
    calls = []

    class Recording(M._Guard):
        def step(self, k):
            calls.append((self.dimension, self.count, k))
            super().step(k)

    monkeypatch.setattr(N, "_Guard", Recording)
    full_raw_nerve(D, 4)
    # a step larger than any hom is a batch of triangles, not a list of edges
    dimension, before, k = next(c for c in calls if c[2] > widest)
    with pytest.raises(M.ResourceLimitError) as info:
        full_raw_nerve(D, 4, limit=before + 1)
    e = info.value
    assert (e.operation, e.dimension, e.steps) == ("nerve", dimension, before + k)
    assert e.steps > before + 1


# ---------------------------------------------------------------------------
# extension from d_0 against the search over every edge position


def _raw_nerve_with_steps(D, bound, checked=()):
    """The raw nerve, its faces and the guard steps per dimension, with the
    homs in `checked` taking the checked search even where they are thin."""
    init = N._Tables.__init__
    steps = collections.Counter()

    def forced(self, D):
        init(self, D)
        for k in checked:
            self.thin[k] = False

    class Counting(M._Guard):
        def step(self, k=1):
            steps[self.dimension] += k
            super().step(k)

    with pytest.MonkeyPatch.context() as m:
        m.setattr(N._Tables, "__init__", forced)
        m.setattr(N, "_Guard", Counting)
        by_dim, faces, _ = full_raw_nerve(D, bound)
    return by_dim, faces, {n: steps[n] for n in range(1, bound + 1)}


def _check_against_whole_search(D, bound, checked=()):
    want, want_steps = raw_nerve(D, bound, checked)
    by_dim, faces, steps = _raw_nerve_with_steps(D, bound, checked)
    assert by_dim == want  # layers in order
    assert steps == want_steps
    assert faces == raw_face_index(by_dim)


def _whole_search_cases():
    cube = T.suspend_category(T.product_poset((1, 1, 1)))
    cases = []
    for checked in (False, True):
        tag = "checked" if checked else "thin"
        cases += [pytest.param(*c.values, 4, checked, id=f"{c.id} {tag}")
                  for c in _oracle_cases()]
        cases.append(pytest.param(cube, 5, checked, id=f"cube at 5 {tag}"))
    cases.append(pytest.param(T.theta2_object(T.Theta2Shape(2, (2, 2))), 5, False,
                              id="[2|2,2] at 5 thin"))
    return cases


@pytest.mark.parametrize("D, bound, checked", _whole_search_cases())
def test_extension_matches_whole_search(D, bound, checked):
    _check_against_whole_search(D, bound, tuple(D.hom) if checked else ())


@settings(max_examples=20, deadline=None)
@given(st.data())
def test_extension_matches_whole_search_on_random_shapes(data):
    m = data.draw(st.integers(0, 2))
    ks = data.draw(st.lists(st.integers(0, 2), min_size=m, max_size=m))
    D = T.theta2_object(T.Theta2Shape(m, tuple(ks)))
    checked = data.draw(st.sets(st.sampled_from(sorted(D.hom))))
    _check_against_whole_search(D, 4, checked)


def test_extension_guard_stops_inside_a_layer(monkeypatch):
    # the cost from one layer down is charged per (base, last vertex) and
    # the rest per d_0 face, so a limit inside layer 5 stops there
    D = T.theta2_object(T.Theta2Shape(2, (2, 2)))
    _, steps = raw_nerve(D, 5)
    below = sum(steps[n] for n in range(1, 5))
    limit = below + steps[5] // 2
    with pytest.raises(M.ResourceLimitError) as info:
        full_raw_nerve(D, 5, limit=limit)
    e = info.value
    assert (e.operation, e.dimension) == ("nerve", 5)
    assert limit < e.steps < below + steps[5]


def test_nerve_build_leaves_no_cyclic_garbage(monkeypatch):
    D = T.theta2_object(T.Theta2Shape(2, (1, 2)))
    monkeypatch.setattr(N, "_nerve_cache", {})
    gc.collect()
    gc.disable()
    try:
        N.duskin_nerve(D, bound=4)
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_compatible_boundaries_leave_no_cyclic_garbage():
    X = N.duskin_nerve(T.theta2_object(T.Theta2Shape(2, (1, 1))), 4)
    gc.collect()
    gc.disable()
    try:
        assert len(N.compatible_boundaries(X, 4)) > 0
        assert gc.collect() == 0
    finally:
        gc.enable()


def _raw_without_cocycle(D, bound):
    """Every raw simplex of D with the cocycle relations dropped.  The set
    is still closed under faces and degeneracies, so from_raw takes it."""
    by_dim = {}
    for n in range(bound + 1):
        pairs, layer = N._pairs(n), []
        for verts in itertools.product(sorted(D.objects), repeat=n + 1):
            homs = [D.one_cells(verts[i], verts[j]) for i, j in pairs]
            for edges in itertools.product(*homs):
                e = dict(zip(pairs, edges))
                choices = []
                for i, j, k in N._triples(n):
                    ends = (e[(i, k)],
                            D.hc1(verts[i], verts[j], verts[k], e[(i, j)], e[(j, k)]))
                    H = D.hom_at(verts[i], verts[k])
                    choices.append([m for m, st in H.morphisms.items() if st == ends])
                layer.extend((verts, edges, tris)
                             for tris in itertools.product(*choices))
        by_dim[n] = layer
    return by_dim


def test_build_matches_from_raw_without_cocycle():
    # here a unit edge and identity collapsed triangles do not force the
    # other triangles to agree, so the degeneracy test, which gives _build
    # its masks here (oracle_mask), must compare every position
    D = _z2_suspension()
    by_dim = _raw_without_cocycle(D, 4)
    assert len(by_dim[4]) > len(full_raw_nerve(D, 4)[0][4])
    ops = RawOps(D)
    X = N._build(D, layers(D, by_dim, raw_face_index(by_dim)), 4, N._marking(D, "rs"))
    Y, oracle = from_raw(4, by_dim, ops.face, ops.degenerate,
                         N._marking(D, "rs"), N._key_fn)
    assert (X.gens, X.faces, X.marked) == (Y.gens, Y.faces, Y.marked)
    # _ref compares every position too, edges included
    assert {x: N._ref(D, x) for x in oracle} == oracle


def test_ref_compares_edges():
    # a triangle 0 -> 0 -> 1 of Sigma[1] with unit edge 0 -> 0 whose
    # 2-cell is the identity on f_02 = 0 though f_12 = 1: not a simplex of
    # the nerve, and not s_0 of its face d_1, which has f_12 on both
    D = T.suspend_category(T.ordinal(1))
    x = (("bot", "bot", "top"), ("*", "0", "1"), ("0>0",))
    ops = RawOps(D)
    assert ops.degenerate(ops.face(x, 2, 1), 1, 0) != x
    assert N._ref(D, x) == (N._key_fn(x, 2), ())


def _vertex_named_like_an_edge():
    """C1 with its 1-cell named "" and a third object named "0,1": the
    vertex "0,1" and the edge 0 -> 1 both get the id "0,1;;"."""
    data = T.two_category_to_json(T.cell(1))
    text = json.dumps(data).replace('"(0)>(0)"', '"id"').replace('"(0)"', '""')
    data = json.loads(text)
    data["objects"].append("0,1")
    data["hom"]["0,1|0,1"] = data["hom"]["0|0"]
    data["hcompose1"]["0,1|0,1|0,1"] = data["hcompose1"]["0|0|0"]
    data["hcompose2"]["0,1|0,1|0,1"] = data["hcompose2"]["0|0|0"]
    data["unit1"]["0,1"] = "()"
    return T.two_category_from_json(data)


@pytest.mark.parametrize("variant", ["duskin", "rs", "scaled"])
def test_nerve_rejects_an_id_shared_by_a_vertex_and_an_edge(variant):
    # each dimension's ids were distinct, and the two generators were merged
    D = _vertex_named_like_an_edge()
    with pytest.raises(ValueError, match="duplicate generator id 0,1;;"):
        N.nerve(D, variant, 2)
    by_dim = full_raw_nerve(D, 2)[0]
    ops = RawOps(D)
    with pytest.raises(ValueError, match="duplicate generator id 0,1;;"):
        from_raw(2, by_dim, ops.face, ops.degenerate, N._marking(D, variant), N._key_fn)


def test_nerve_rejects_an_id_shared_by_an_edge_and_a_triangle(monkeypatch):
    # give the triangle of [2] the id of its edge 0 -> 1; a nerve of [2]
    # cached by an earlier test would be returned unbuilt
    monkeypatch.setattr(N, "_nerve_cache", {})
    key_fn = N._key_fn
    monkeypatch.setattr(N, "_key_fn", lambda raw, n: key_fn(
        (raw[0][:2], raw[1][:1], ()), 1) if n == 2 else key_fn(raw, n))
    with pytest.raises(ValueError, match="duplicate generator id 0,1;"):
        N.rs_nerve(_ordinal_2cat(2), 2)


def test_cocycle_condition_on_suspended_group():
    # an n-simplex of Sigma G with k vertices at bot and l = n+1-k at top
    # is a functor [k-1] x [l-1] -> BG, and there are |G|^(kl-1) of those:
    # the cocycle relations are exactly functoriality on the grid
    X = N.duskin_nerve(_z2_suspension(), bound=5)
    for n in range(6):
        mixed = sum(2 ** (k * (n + 1 - k) - 1) for k in range(1, n + 1))
        assert len(X.all_simplices(n)) == 2 + mixed, n


def test_nerve_guard_names_operation_dimension_and_steps(monkeypatch):
    monkeypatch.setattr(N, "_nerve_cache", {})
    # dimension 1 of C2 takes 4 steps: one per 1-cell out of each vertex
    with pytest.raises(M.ResourceLimitError) as info:
        N.duskin_nerve(T.cell(2), bound=3, limit=3)
    e = info.value
    assert (e.operation, e.dimension, e.steps) == ("nerve", 1, 4)
    assert "in nerve at dimension 1" in str(e)
    with pytest.raises(M.ResourceLimitError) as info:
        N.duskin_nerve(T.cell(2), bound=3, limit=4)
    assert (info.value.dimension, info.value.steps) == (2, 5)


@pytest.mark.parametrize("bound", [-1, 2.5, True, False, None, "3"])
def test_nerve_entry_points_reject_bad_bounds(bound):
    D = T.cell(1)
    for build in (N.duskin_nerve, N.rs_nerve, N.scaled_nerve):
        with pytest.raises(ValueError, match="bound"):
            build(D, bound=bound)
    with pytest.raises(ValueError, match="bound"):
        N.nerve_map(T.identity_two_functor(D), bound=bound)


def test_nerve_at_bound_zero_is_the_objects():
    X = N.duskin_nerve(T.cell(2), bound=0)
    assert (X.bound, X.counts()) == (0, (2,))


# ---------------------------------------------------------------------------
# functoriality


def _record_builds(monkeypatch):
    """Make nerves record the 2-category of every _build, in the list returned."""
    built = []
    build = N._build

    def counting(D, *args):
        built.append(D)
        return build(D, *args)

    monkeypatch.setattr(N, "_build", counting)
    return built


def test_nerve_map_builds_each_nerve_once(monkeypatch):
    built = _record_builds(monkeypatch)
    monkeypatch.setattr(N, "_nerve_cache", {})
    F = T.enumerate_two_functors(T.cell(1), T.cell(2))[0]
    N.nerve_map(F, bound=3)
    assert built == [F.source, F.target]


# ---------------------------------------------------------------------------
# the nerve cache


def test_nerve_cache_keeps_each_marking_apart(monkeypatch):
    # Sigma Z/2 has a non-identity invertible 2-cell, so the three
    # markings differ in dimension 2
    D = _z2_suspension()
    want = {}
    for marking in ("duskin", "rs", "scaled"):
        monkeypatch.setattr(N, "_nerve_cache", {})
        want[marking] = N.nerve(D, marking, bound=3).marked_counts()
    assert len(set(want.values())) == 3
    for order in itertools.permutations(want):
        monkeypatch.setattr(N, "_nerve_cache", {})
        for marking in order * 2:
            assert N.nerve(D, marking, bound=3).marked_counts() == want[marking], order


@pytest.mark.parametrize("first", ["apply_L", "apply_L_map"])
def test_rs_nerve_returns_the_nerve_an_indexed_build_left(first, monkeypatch):
    # apply_L, with arrows or without, and apply_L_map take every nerve
    # from the nerve cache's entries: each builds a shape's nerve once and
    # leaves it in the cache, where rs_nerve finds it
    shape = T.Theta2Shape(2, (1, 0))
    D = T.theta2_object(shape)
    monkeypatch.setattr(N, "_nerve_cache", {})
    plain = []
    entry = TH.rs_nerve

    def recording(*args):
        X = entry(*args)
        plain.append(X)
        return X

    monkeypatch.setattr(TH, "rs_nerve", recording)
    built = _record_builds(monkeypatch)
    if first == "apply_L":
        TH.apply_L(TH.representable(shape), bound=3)
        assert len(built) == len(plain) == 1
    else:
        # [2|1,0] from the spine [1|1] + [1|0] glued at a point
        TH.apply_L_map(TH.horizontal_segal(2, (1, 0)), bound=3)
        assert len(built) == len(plain) == 4
    # the target's nerve is the last one taken
    left = plain[-1]
    built.clear()
    assert N.rs_nerve(D, bound=3) is left
    assert built == []


def test_nerve_guard_leaves_no_cache_entry(monkeypatch):
    monkeypatch.setattr(N, "_nerve_cache", {})
    with pytest.raises(M.ResourceLimitError):
        N.duskin_nerve(T.cell(2), bound=3, limit=3)
    assert N._nerve_cache == {}
    # so a second call runs the guard again
    with pytest.raises(M.ResourceLimitError):
        N.duskin_nerve(T.cell(2), bound=3, limit=3)


def test_generator_raws_are_walked_once_per_process(monkeypatch):
    monkeypatch.setattr(N, "_nerve_cache", {})
    walked = collections.Counter()
    raw_nerve = N._raw_nerve

    def recording(D, bound, *args):
        walked[D.signature, bound] += 1
        return raw_nerve(D, bound, *args)

    monkeypatch.setattr(N, "_raw_nerve", recording)
    built = _record_builds(monkeypatch)

    def raw_walks():
        """The walks per (signature, bound) that built no nerve."""
        return walked - collections.Counter((D.signature, 4) for D in built)

    P = TH.horizontal_segal(2, (1, 1))
    TH.apply_L_map(P, bound=4)
    first = raw_walks()
    # [2|1,1] from the spine [1|1] + [1|1] glued at a point: the block
    # maps run out of [0] and [1|1], and each is walked once
    sources = {(G.source.signature, 4) for _, _, G, _ in P.source.arrows}
    sources |= {(G.source.signature, 4) for _, G, _ in P.cell_map}
    assert set(first) == sources and set(first.values()) == {1}
    TH.apply_L_map(P, bound=4)
    assert raw_walks() == first
    # a nerve map out of a shape whose nerve is built walks it once, in
    # any marking
    F = T.identity_two_functor(T.theta2_object(T.Theta2Shape(2, (1, 1))))
    key = (F.source.signature, 4)
    for variant in ("rs", "rs", "duskin"):
        N.nerve_map(F, variant, bound=4)
    assert raw_walks() == first + collections.Counter({key: 1})
    # a cache hit still checks the limit, as nerve() does
    with pytest.raises(ValueError, match="nerve: limit"):
        N.nerve_map(F, bound=4, limit=2.5)
    # the raws live in the cache: clearing it clears them, with no garbage
    gc.collect()
    gc.disable()
    try:
        N._nerve_cache.clear()
        assert gc.collect() == 0
        N.nerve_map(F, bound=4)
        assert raw_walks()[key] == 2
        N._nerve_cache.clear()
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_nerve_cache_holds_built_nerves_only(monkeypatch):
    monkeypatch.setattr(N, "_nerve_cache", {})
    X = N.duskin_nerve(T.theta2_object(T.Theta2Shape(2, (2, 2))), bound=4)
    assert [v is X for v in N._nerve_cache.values()] == [True]
    assert all(isinstance(v, M.MarkedSSet) for v in N._nerve_cache.values())


def _suspended_monoid(ee):
    """Sigma of the monoid {i, e} with unit i and e e = ee, on the same
    ids whatever ee is."""
    C = T.FinCategory(
        ("x",), {"i": ("x", "x"), "e": ("x", "x")}, {"x": "i"},
        {("i", "i"): "i", ("i", "e"): "e", ("e", "i"): "e", ("e", "e"): ee},
    )
    return T.suspend_category(C)


def test_nerve_cache_keeps_vertical_composition_apart(monkeypatch):
    # Z/2 (e e = i) and the free idempotent (e e = e) differ only in the
    # vertical composition of hom(bot, top), which the cocycle relation
    # and the scaled marking read
    cases = {ee: _suspended_monoid(ee) for ee in ("i", "e")}
    assert all(T.validate_2cat(D).ok for D in cases.values())
    want = {}
    for (ee, D), marking in itertools.product(cases.items(), ("duskin", "rs", "scaled")):
        monkeypatch.setattr(N, "_nerve_cache", {})
        X = N.nerve(D, marking, bound=3)
        want[ee, marking] = (X.gens, X.faces, X.marked)
    counts = [tuple(map(len, want[ee, "duskin"][0].values())) for ee in "ie"]
    assert counts == [(2, 1, 2, 7), (2, 1, 2, 9)]
    for order in (("i", "e"), ("e", "i")):
        monkeypatch.setattr(N, "_nerve_cache", {})
        for ee, marking in itertools.product(order, ("duskin", "rs", "scaled")):
            X = N.nerve(cases[ee], marking, bound=3)
            assert (X.gens, X.faces, X.marked) == want[ee, marking], (order, marking)


def test_object_ids_holding_a_bar_get_no_nerve(monkeypatch):
    # hom(a, b|c) and hom(a|b, c) share the twocat/1 key "a|b|c", so the
    # document, the nerve store's key, would hold 5 of the 6 homs
    objects = ("a", "a|b", "b|c", "c")
    units = {x: x + "=" for x in objects}
    morphisms = {u: (x, x) for x, u in units.items()} | {"f": ("a", "b|c"), "g": ("a|b", "c")}
    compose = {}
    for f, (x, y) in morphisms.items():
        compose[(units[x], f)] = compose[(f, units[y])] = f
    D = T.as_two_category(T.FinCategory(objects, morphisms, units, compose))
    assert len(D.hom) == 6 and len(T.two_category_to_json(D)["hom"]) == 5
    assert T.validate_2cat(D).violations == [
        "object id a|b holds '|'", "object id b|c holds '|'"]
    with pytest.raises(ValueError, match=r"object id 'a\|b' holds '\|'"):
        D.signature
    monkeypatch.setattr(N, "_nerve_cache", {})
    with pytest.raises(ValueError, match=r"object id 'a\|b' holds '\|'"):
        N.rs_nerve(D, bound=3)
    assert N._nerve_cache == {}


def test_one_two_category_computes_its_key_once(monkeypatch):
    monkeypatch.setattr(N, "_nerve_cache", {})
    calls = []
    to_json = T.two_category_to_json
    monkeypatch.setattr(T, "two_category_to_json", lambda D: calls.append(D) or to_json(D))
    D = T.theta2_object(T.Theta2Shape(2, (1, 1)))
    N.rs_nerve(D, bound=3)
    N.rs_nerve(D, bound=3)
    N.duskin_nerve(D, bound=3)
    N.nerve_map(T.identity_two_functor(D), bound=3)
    assert calls == [D]


@pytest.mark.parametrize("D", _oracle_cases())
def test_nerve_marking_table_matches_named_builders(D):
    builders = {"rs": N.rs_nerve, "scaled": N.scaled_nerve, "duskin": N.duskin_nerve}
    for variant, build in builders.items():
        X, Y = N.nerve(D, variant, bound=4), build(D, bound=4)
        assert (X.gens, X.faces, X.marked) == (Y.gens, Y.faces, Y.marked), variant


def test_nerve_map_rejects_unknown_variant():
    F = T.identity_two_functor(T.cell(1))
    with pytest.raises(ValueError) as info:
        N.nerve_map(F, variant="bogus")
    assert all(v in str(info.value) for v in ("rs", "scaled", "duskin"))
    with pytest.raises(ValueError) as info:
        N.nerve(F.source, "bogus")
    assert all(v in str(info.value) for v in ("rs", "scaled", "duskin"))


def test_nerve_map_identity():
    D = T.cell(2)
    f = N.nerve_map(T.identity_two_functor(D), bound=3)
    assert f.assignment == M.identity_map(f.source).assignment


def test_nerve_map_edge_inclusion():
    fs = T.enumerate_two_functors(T.cell(1), T.cell(2))
    picks = [F for F in fs if F.obj("0") == "0" and F.obj("1") == "1"]
    assert len(picks) == 2
    for F in picks:
        f = N.nerve_map(F, bound=3)
        assert M.validate_map(f).ok
        assert M.is_mono(f)


def test_nerve_map_collapse_marks_degenerates():
    fs = T.enumerate_two_functors(T.cell(2), T.cell(1))
    collapse = [
        F for F in fs if F.obj("0") == "0" and F.obj("1") == "1"
    ]
    assert len(collapse) == 1
    f = N.nerve_map(collapse[0], bound=3)
    assert M.validate_map(f).ok
    for g in f.source.gens_at(2):
        assert f.assignment[g][1]  # both alpha-triangles collapse


def test_nerve_map_composes():
    F = T.enumerate_two_functors(T.cell(1), T.cell(2))[0]
    G = T.enumerate_two_functors(T.cell(2), T.cell(0))[0]
    lhs = N.nerve_map(F.compose(G), bound=3)
    rhs = N.nerve_map(F, bound=3).compose(N.nerve_map(G, bound=3))
    assert lhs.assignment == rhs.assignment


def _grid_shapes(k):
    """The shapes [0], [1|a] and [2|a,b] with a, b <= k."""
    return [T.Theta2Shape(0, ()), *(T.Theta2Shape(1, (a,)) for a in range(k + 1)),
            *(T.Theta2Shape(2, ks) for ks in itertools.product(range(k + 1), repeat=2))]


def _assert_nerve_maps_match_the_oracle(D, targets, bound):
    """The maps on nerves of every 2-functor from D into targets against
    raw_nerve_assignment.  Their assignment does not depend on the
    marking: each one's is checked through _nerve_assignment on D's
    generator raws, walked once, and the first 2-functor into each target
    through nerve_map in all three markings, the nerves included."""
    raws = N._generator_raws(D, bound)
    for E in targets:
        fs = T.enumerate_two_functors(D, E)
        Y = N.rs_nerve(E, bound)
        for F in fs:
            want = raw_nerve_assignment(F, "rs", bound).assignment
            assert list(N._nerve_assignment(F, raws, Y).items()) == list(want.items())
        for variant in MARKINGS:
            f = N.nerve_map(fs[0], variant, bound)
            want = raw_nerve_assignment(fs[0], variant, bound)
            assert f.assignment == want.assignment, variant
            for X, Z in ((f.source, want.source), (f.target, want.target)):
                assert (X.gens, X.faces, X.marked) == (Z.gens, Z.faces, Z.marked), variant
        if E.objects == ("0",):
            # a collapse sends the generators above dimension 0 to
            # degenerate simplices
            assert all(w for g, (_, w) in want.assignment.items()
                       if g not in f.source.gens[0])


@functools.lru_cache(maxsize=None)
def _map_targets(k):
    """The grid shapes with m, k <= k, Sigma Z/2 and I, built once, so
    that the oracle's nerves of each are too."""
    return [T.theta2_object(s) for s in _grid_shapes(k)] + [
        _z2_suspension(), T.as_two_category(T.free_iso())]


@pytest.mark.parametrize("shape", _grid_shapes(1), ids=str)
def test_nerve_map_matches_the_oracle_at_bound_4(shape):
    # every 2-functor among the shapes with m, k <= 1, and into Sigma Z/2 and I
    _assert_nerve_maps_match_the_oracle(T.theta2_object(shape), _map_targets(1), 4)


@pytest.mark.parametrize("shape", _grid_shapes(2), ids=str)
def test_nerve_map_matches_the_oracle_at_bound_2(shape):
    # every 2-functor among the shapes with m, k <= 2, and into Sigma Z/2 and I
    _assert_nerve_maps_match_the_oracle(T.theta2_object(shape), _map_targets(2), 2)


def _not_a_two_functor():
    """Cells [1|1] -> [1|2] sending every 1-cell to (0) and every 2-cell
    to (0)>(2), whose ends are (0) and (2): no 2-functor."""
    D, E = T.cell(2), T.theta2_object(T.Theta2Shape(1, (2,)))
    H = D.hom[("0", "1")]
    table = ({f: "(0)" for f in H.objects}, {a: "(0)>(2)" for a in H.morphisms})
    return T.TwoFunctor(D, E, {"0": "0", "1": "1"}, {("0", "1"): table})


def test_nerve_map_of_a_map_that_is_not_a_two_functor_raises():
    F = _not_a_two_functor()
    assert not T.validate_two_functor(F).ok
    with pytest.raises(ValueError, match="image of generator 0,0,1;"):
        N.nerve_map(F, bound=3)


# ---------------------------------------------------------------------------
# coskeletality


# 3-coskeletality of the Duskin nerves of the m, k <= 2 grid at bound 5 is
# checked in test_acceptance.py.


def _matching(X, b):
    """Whether the simplices b satisfy d_i b_j = d_{j-1} b_i for i < j."""
    return all(X.face(b[j], i) == X.face(b[i], j - 1)
               for j in range(len(b)) for i in range(j))


def _fillers_by_definition(X, n):
    """Every (n+1)-tuple of (n-1)-simplices, in lexicographic order, that
    matches like a boundary, with its number of fillers."""
    cells = X.all_simplices(n - 1)
    fillers = [tuple(X.face(x, i) for i in range(n + 1))
               for x in X.all_simplices(n)]
    return [
        (b, fillers.count(b))
        for b in itertools.product(cells, repeat=n + 1)
        if _matching(X, b)
    ]


@pytest.mark.parametrize("D, most", [
    pytest.param(T.cell(2), 1, id="C2"),
    # the two parallel 2-cells of Sigma Z/2 fill the same boundary
    pytest.param(_z2_suspension(), 2, id="Sigma Z/2"),
])
def test_filler_counts_by_definition(D, most):
    X = N.duskin_nerve(D, bound=3)
    for n in (2, 3):
        assert N.filler_counts(X, n) == _fillers_by_definition(X, n), n
    assert max(c for _, c in N.filler_counts(X, 2)) == most


def test_compatible_boundaries_guard():
    # one step per candidate sigma_j tried: per compatible prefix
    # (sigma_0, ..., sigma_j), j <= n
    X, n = N.duskin_nerve(_z2_suspension(), bound=3), 3
    cells = X.all_simplices(n - 1)
    steps = sum(
        _matching(X, b)
        for j in range(n + 1)
        for b in itertools.product(cells, repeat=j + 1)
    )
    N.compatible_boundaries(X, n, limit=steps)
    with pytest.raises(M.ResourceLimitError) as info:
        N.compatible_boundaries(X, n, limit=steps - 1)
    e = info.value
    assert (e.operation, e.dimension, e.steps) == ("compatible_boundaries", n, steps)


@pytest.mark.parametrize("D", [
    pytest.param(T.cell(1), id="C1"),
    pytest.param(T.cell(2), id="C2"),
    pytest.param(_z2_suspension(), id="Sigma Z/2"),
])
def test_filler_counts_in_dimension_one(D):
    # vertices have no faces to match, so every ordered pair of vertices
    # is a compatible boundary; its fillers are the edges (d_0 e, d_1 e)
    X = N.duskin_nerve(D, bound=2)
    vertices = X.all_simplices(0)
    edges = [(X.face(e, 0), X.face(e, 1)) for e in X.all_simplices(1)]
    want = [(b, edges.count(b)) for b in itertools.product(vertices, repeat=2)]
    assert N.filler_counts(X, 1) == want
    assert N.compatible_boundaries(X, 1) == [b for b, _ in want]
    # one guard step per prefix (sigma_0) and (sigma_0, sigma_1)
    steps = len(vertices) + len(vertices) ** 2
    N.compatible_boundaries(X, 1, limit=steps)
    with pytest.raises(M.ResourceLimitError):
        N.compatible_boundaries(X, 1, limit=steps - 1)


@pytest.mark.parametrize("n", [0, -1, True, 2.0])
def test_filler_counts_reject_dimension_below_one(n):
    X = N.duskin_nerve(T.cell(1), bound=2)
    with pytest.raises(ValueError):
        N.filler_counts(X, n)
    with pytest.raises(ValueError):
        N.compatible_boundaries(X, n)


def _assert_filler_counts_match_oracles(X, n):
    counts = N.filler_counts(X, n)
    assert counts == raw_filler_counts(X, n), n
    assert counts == raw_filler_counts_by_face(X, n), n
    return counts


@pytest.mark.parametrize("D", _oracle_cases())
def test_filler_counts_match_raw_oracle(D):
    for marking in MARKINGS:
        X = N.nerve(D, marking, bound=4)
        for n in range(1, 5):
            _assert_filler_counts_match_oracles(X, n)


@pytest.mark.parametrize("D", [
    pytest.param(T.as_two_category(_z2()), id="Z/2"),
    pytest.param(_z2_suspension(), id="Sigma Z/2"),
])
@pytest.mark.parametrize("marking", ["rs", "duskin"])
def test_filler_counts_match_raw_oracles_where_a_degeneracy_does_not_fill(D, marking):
    # in the nerve of Z/2, s_0 of the edge t has the faces (t, t, e), so
    # the boundary (t, t, t) has b[0] == b[1] and is not filled by s_0 t
    X = N.nerve(D, marking, bound=4)
    refused = 0
    for n in range(1, 5):
        for b, _ in _assert_filler_counts_match_oracles(X, n):
            refused += sum(
                any(X.face(M.degenerate(b[j], j), i) != f for i, f in enumerate(b))
                for j in range(n) if b[j] == b[j + 1])
    assert refused > 0


@pytest.mark.parametrize("build", [
    pytest.param(lambda: M.standard_simplex(3, "horn", horn=1), id="horn(3, 1)"),
    pytest.param(lambda: M.product(M.standard_simplex(1), M.standard_simplex(2)),
                 id="Delta[1] x Delta[2]"),
])
def test_filler_counts_match_raw_oracle_on_missing_and_degenerate_fillers(build):
    X = build()
    empty, degenerate = 0, 0
    for n in range(1, X.bound + 1):
        counts = _assert_filler_counts_match_oracles(X, n)
        fillers = {X.faces[g] for g in X.gens_at(n)}
        empty += sum(c == 0 for _, c in counts)
        degenerate += sum(c > 0 and b not in fillers for b, c in counts)
    # both cases have boundaries with no filler and many filled only by
    # degenerate simplices
    assert empty > 0 and degenerate > 100


def test_filler_counts_reject_dimension_above_bound():
    X = N.duskin_nerve(T.cell(2), bound=3)
    with pytest.raises(ValueError):
        N.filler_counts(X, 4)
    # a boundary in dimension bound + 1 is made of bound-simplices
    assert N.compatible_boundaries(X, 4)
    with pytest.raises(ValueError):
        N.compatible_boundaries(X, 5)


def _compatible_boundaries_one_level(X, n, limit=5_000_000):
    """compatible_boundaries depth first, with one prefix index per level
    and one recursive call per pool.  Returns the boundaries and the guard
    steps charged at each depth j, one per prefix (sigma_0, ..., sigma_j)."""
    guard = M._Guard(limit, "compatible_boundaries")
    guard.dimension = n
    cells = X.all_simplices(n - 1)
    ids = {}
    faces = [
        tuple([ids.setdefault(r, len(ids)) for r in fs])
        for fs in face_tuples(X, cells, n - 1)
    ]
    by_prefix = [{} for _ in range(n + 1)]
    for s, fs in zip(cells, faces):
        for k in range(n + 1):
            by_prefix[k].setdefault(fs[:k], []).append((s, fs))
    results, charges = [], [0] * (n + 1)
    chosen, chosen_faces = [], []

    def extend(j, pool):
        guard.step(len(pool))
        charges[j] += len(pool)
        if j == n:
            results.extend((*chosen, s) for s, _ in pool)
            return
        index = by_prefix[j + 1]
        for s, fs in pool:
            chosen_faces.append(fs)
            following = index.get(tuple(f[j] for f in chosen_faces))
            if following:
                chosen.append(s)
                extend(j + 1, following)
                chosen.pop()
            chosen_faces.pop()

    extend(0, by_prefix[0].get((), []))
    return results, charges


@pytest.mark.parametrize("D, bound", [
    pytest.param(T.theta2_object(T.Theta2Shape(2, (2, 2))), 4, id="[2|2,2]"),
    pytest.param(_z2_suspension(), 4, id="Sigma Z/2"),
    pytest.param(T.cell(2), 4, id="C2"),
    pytest.param(T.cell(1), 3, id="C1"),
])
def test_compatible_boundaries_matches_one_level_oracle(D, bound, monkeypatch):
    X = N.duskin_nerve(D, bound=bound)
    guards = _record_guards(monkeypatch)
    for n in range(2, bound + 1):
        want, charges = _compatible_boundaries_one_level(X, n)
        assert N.compatible_boundaries(X, n) == want, n
        assert guards[-1].count == sum(charges), n


def test_compatible_boundaries_match_nested_pool_oracle(monkeypatch):
    # same boundaries in the same order and the same guard totals
    guards = _record_guards(monkeypatch)
    raw_guards = _record_guards(monkeypatch, raw_oracles)
    for case in _oracle_cases():
        X = N.duskin_nerve(case.values[0], bound=4)
        for n in range(1, 5):
            got = N.compatible_boundaries(X, n)
            assert got == raw_compatible_boundaries(X, n), (case.id, n)
            assert guards[-1].count == raw_guards[-1].count, (case.id, n)


@pytest.mark.parametrize("D", [
    pytest.param(T.theta2_object(T.Theta2Shape(2, (1, 2))), id="[2|1,2]"),
    pytest.param(_z2_suspension(), id="Sigma Z/2"),
])
def test_compatible_boundaries_guard_matches_nested_pool_oracle(D):
    # each level's prefixes are charged at once, before the level is
    # built, so the error's steps is the first running total of the
    # per-depth charges that exceeds the limit
    X = N.duskin_nerve(D, bound=4)
    totals = list(itertools.accumulate(_compatible_boundaries_one_level(X, 4)[1]))
    total = totals[-1]
    N.compatible_boundaries(X, 4, total)
    for limit in (total // 3, total // 2, total - 1):
        with pytest.raises(M.ResourceLimitError) as info:
            raw_compatible_boundaries(X, 4, limit)
        want = info.value
        with pytest.raises(M.ResourceLimitError) as info:
            N.compatible_boundaries(X, 4, limit)
        e = info.value
        assert (e.operation, e.dimension) == (want.operation, want.dimension), limit
        assert e.steps == next(t for t in totals if t > limit), limit


def _assert_boundaries_match_oracles(X, n, monkeypatch):
    """compatible_boundaries gives the nested-pool and the one-level
    oracle's boundaries, in their order, for the same guard total."""
    guards = _record_guards(monkeypatch)
    raw_guards = _record_guards(monkeypatch, raw_oracles)
    got = N.compatible_boundaries(X, n)
    if n > 1:
        want, charges = _compatible_boundaries_one_level(X, n)
    else:  # vertices have no faces to search by: every pair matches
        vertices = X.all_simplices(0)
        want = list(itertools.product(vertices, repeat=2))
        charges = [len(vertices), len(vertices) ** 2]
    assert got == raw_compatible_boundaries(X, n) == want, n
    assert guards[-1].count == raw_guards[-1].count == sum(charges), n
    return got


@pytest.mark.parametrize("D", _oracle_cases())
def test_compatible_boundaries_match_both_oracles_in_every_marking(D, monkeypatch):
    for marking in MARKINGS:
        X = N.nerve(D, marking, bound=3)
        for n in range(1, X.bound + 2):
            _assert_boundaries_match_oracles(X, n, monkeypatch)


@pytest.mark.parametrize("ell, horn", [(2, 0), (2, 1), (2, 2), (3, 1)])
def test_boundaries_and_fillers_of_horns_match_the_oracles(ell, horn, monkeypatch):
    X = M.standard_simplex(ell, "horn", horn=horn, bound=3)
    for n in range(1, X.bound + 2):
        _assert_boundaries_match_oracles(X, n, monkeypatch)
    for n in range(1, X.bound + 1):
        counts = _assert_filler_counts_match_oracles(X, n)
        if ell == 2 and n > 1:
            assert counts == _fillers_by_definition(X, n), n


def test_boundaries_and_fillers_of_the_empty_set_and_a_point(monkeypatch):
    empty = M.empty_msset(bound=3)
    for n in range(1, empty.bound + 2):
        assert _assert_boundaries_match_oracles(empty, n, monkeypatch) == []
    for n in range(1, empty.bound + 1):
        assert N.filler_counts(empty, n) == []
    # a point has one simplex in each dimension, s_{n-1} ... s_0 v, and it
    # is the one filler of the one boundary
    point = M.standard_simplex(0, bound=3)
    (v,) = point.gens_at(0)
    for n in range(1, point.bound + 2):
        (b,) = _assert_boundaries_match_oracles(point, n, monkeypatch)
        assert b == ((v, tuple(range(n - 2, -1, -1))),) * (n + 1), n
    for n in range(1, point.bound + 1):
        counts = _assert_filler_counts_match_oracles(point, n)
        assert [c for _, c in counts] == [1], n
        if n > 1:
            assert _fillers_by_definition(point, n) == counts, n
    # s_0 s_0 v = s_1 s_0 v: two j give one filler, counted once
    assert N.filler_counts(point, 2) == [(((v, (0,)),) * 3, 1)]


def _assert_columns_match_oracle(X, n, monkeypatch):
    """_boundary_columns gives the level-at-a-time oracle's cells and
    columns, charging its guard the same steps level by level.  Returns
    the columns and the charges."""
    guards = _record_guards(monkeypatch)
    raw_guards = _record_guards(monkeypatch, raw_oracles)
    got = N._boundary_columns(X, n, 5_000_000)
    assert got == raw_boundary_columns(X, n), n
    assert guards[-1].charges == raw_guards[-1].charges, n
    assert len(guards[-1].charges) == n + 1, n
    return got[1], guards[-1].charges


@pytest.mark.parametrize("D", _oracle_cases())
def test_boundary_columns_match_the_level_at_a_time_oracle(D, monkeypatch):
    # n = 1 pairs every two vertices in the joined step, n = 2 ends with
    # it, and n = 3, 4 go on to the pools of three and four faces
    for marking in MARKINGS:
        X = N.nerve(D, marking, bound=3)
        for n in range(1, X.bound + 2):
            _assert_columns_match_oracle(X, n, monkeypatch)


@pytest.mark.parametrize("build", [
    pytest.param(lambda: M.standard_simplex(3, "horn", horn=1), id="horn"),
    pytest.param(lambda: M.product(M.standard_simplex(1), M.standard_simplex(2, "sharp")),
                 id="Delta[1] x Delta[2]"),
    pytest.param(lambda: M.pushout(*[M.MSSetMap(
        M.standard_simplex(1, "boundary"), M.standard_simplex(1),
        {"0": ("0", ()), "1": ("1", ())})] * 2)[0], id="circle"),
])
def test_boundary_columns_match_the_oracle_off_nerves(build, monkeypatch):
    X = build()
    for n in range(1, X.bound + 2):
        _assert_columns_match_oracle(X, n, monkeypatch)


def test_boundary_columns_drop_the_level_one_prefixes_without_a_sigma_2(monkeypatch):
    # level 1 of the oracle keeps each (sigma_0, sigma_1) with
    # d_0 sigma_1 = d_0 sigma_0; many of them have no sigma_2, and the
    # joined levels never build them, yet every sigma_0 keeps the
    # boundary of s_0 sigma_0
    X = N.duskin_nerve(_z2_suspension(), bound=3)
    n = 3
    cells = X.all_simplices(n - 1)
    level_one = [(a, b) for a in cells for b in cells if X.face(a, 0) == X.face(b, 0)]
    columns, charges = _assert_columns_match_oracle(X, n, monkeypatch)
    assert charges[1] == len(level_one)
    kept = set(zip(map(cells.__getitem__, columns[0]), map(cells.__getitem__, columns[1])))
    assert kept < set(level_one)
    assert {a for a, _ in kept} == set(cells)


@pytest.mark.parametrize("D", [
    pytest.param(T.theta2_object(T.Theta2Shape(2, (1, 1))), id="[2|1,1]"),
    pytest.param(_z2_suspension(), id="Sigma Z/2"),
])
def test_compatible_boundaries_guard_raises_at_the_joined_level(D, monkeypatch):
    # levels 1 and 2 are built in one step, but charged one after the
    # other: a limit just below the total through level 1 stops at level
    # 1, and a limit of that total at level 2, with the total through it
    X = N.duskin_nerve(D, bound=4)
    for n in range(2, 5):
        raw_guards = _record_guards(monkeypatch, raw_oracles)
        raw_boundary_columns(X, n)
        totals = list(itertools.accumulate(raw_guards[-1].charges))
        assert totals[2] > totals[1], n
        for limit, steps in ((totals[1] - 1, totals[1]), (totals[1], totals[2])):
            with pytest.raises(M.ResourceLimitError) as info:
                N.compatible_boundaries(X, n, limit=limit)
            e = info.value
            assert (e.operation, e.dimension, e.steps) == ("compatible_boundaries", n, steps), n
        N.compatible_boundaries(X, n, limit=totals[-1])


def _traced_peak(fn):
    """The tracemalloc peak, in bytes, of calling fn."""
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_streamed_nerve_peaks_below_the_held_layers(monkeypatch):
    # the top layer is never held whole; building from every layer held
    # peaks well above that
    D = T.theta2_object(T.Theta2Shape(2, (2, 1)))
    marked_fn = N._marking(D, "duskin")
    monkeypatch.setattr(N, "_nerve_cache", {})
    gc.collect()
    streamed = _traced_peak(lambda: N.duskin_nerve(D, 4))
    held = _traced_peak(
        lambda: N._build(D, layers(D, *full_raw_nerve(D, 4)), 4, marked_fn))
    assert streamed <= 0.8 * held, (streamed, held)


def test_compatible_boundaries_peak_below_the_nested_pool_oracle():
    # the columns of positions take less than the oracle's pools of
    # (cell, faces) tuples and its results
    X = N.duskin_nerve(T.theta2_object(T.Theta2Shape(2, (2, 2))), 4)
    gc.collect()
    columns = _traced_peak(lambda: N.compatible_boundaries(X, 4))
    pools = _traced_peak(lambda: raw_compatible_boundaries(X, 4))
    assert columns <= pools, (columns, pools)


@pytest.mark.parametrize("build", [
    pytest.param(lambda: N.duskin_nerve(T.theta2_object(T.Theta2Shape(2, (2, 2))), 4),
                 id="[2|2,2]"),
    pytest.param(lambda: N.rs_nerve(_z2_suspension(), 4), id="Sigma Z/2"),
    pytest.param(lambda: M.product(M.standard_simplex(1), M.standard_simplex(2, "sharp")),
                 id="Delta[1] x Delta[2]"),
])
def test_face_layer_matches_per_simplex_faces(build):
    # the layer table gives the faces the recursive MarkedSSet.face gives
    X = build()
    for n in range(1, X.bound + 1):
        cells = X.all_simplices(n)
        assert M._face_layer(X, cells, n) == face_tuples(X, cells, n), n


def test_compatible_boundaries_guard_totals_on_grid_cell(monkeypatch):
    # the step totals of [2|2,2] at bound 5 are fixed by the search
    X = N.duskin_nerve(T.theta2_object(T.Theta2Shape(2, (2, 2))), bound=5)
    guards = _record_guards(monkeypatch)
    for n in (4, 5):
        N.compatible_boundaries(X, n)
    assert [g.count for g in guards] == [72_084, 894_104]


def test_classical_nerve_fills_from_dimension_two():
    # the nerve of a 1-category is already 2-coskeletal
    X = N.rs_nerve(_ordinal_2cat(3), bound=4)
    for n in (3, 4):
        assert all(c == 1 for _, c in N.filler_counts(X, n))
