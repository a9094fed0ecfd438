import collections
import functools
import gc
import itertools
import math

import pytest
from hypothesis import given, settings, strategies as st

from theta2kit import msset as M
from theta2kit import nerves as N
from theta2kit import theta as TH
from theta2kit import twocat as T

from raw_oracles import (
    face_tuples, from_raw, raw_face_index, raw_filler_counts, raw_filler_counts_by_face,
    raw_nerve)


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


class _RawOps:
    """The generic simplicial operators on raw nerve simplices of D, for
    from_raw: the oracle of nerves._build."""

    def __init__(self, D):
        self.D = D

    def _identity_two(self, x, y, f):
        return self.D.hom_at(x, y).identity[f]

    def face(self, raw, n, i):
        verts, edges, tris = raw
        keep = [a for a in range(n + 1) if a != i]
        nverts = tuple(verts[a] for a in keep)
        pidx = N._pidx(n)
        tidx = N._tidx(n)
        nedges = tuple(
            edges[pidx[(keep[a], keep[b])]] for a, b in N._pairs(n - 1)
        )
        ntris = tuple(
            tris[tidx[(keep[a], keep[b], keep[c])]]
            for a, b, c in N._triples(n - 1)
        )
        return (nverts, nedges, ntris)

    def degenerate(self, raw, n, p):
        verts, edges, tris = raw
        sig = tuple(a if a <= p else a - 1 for a in range(n + 2))
        nverts = tuple(verts[s] for s in sig)
        pidx = N._pidx(n)
        tidx = N._tidx(n)
        nedges = []
        for a, b in N._pairs(n + 1):
            sa, sb = sig[a], sig[b]
            if sa == sb:
                nedges.append(self.D.unit1[verts[sa]])
            else:
                nedges.append(edges[pidx[(sa, sb)]])
        ntris = []
        for a, b, c in N._triples(n + 1):
            sa, sb, sc = sig[a], sig[b], sig[c]
            if sa < sb < sc:
                ntris.append(tris[tidx[(sa, sb, sc)]])
            else:
                # a collapsed edge: the triangle is the identity 2-cell
                # on its long edge
                if sa == sb:
                    f = edges[pidx[(sb, sc)]] if sb != sc else self.D.unit1[verts[sa]]
                else:
                    f = edges[pidx[(sa, sb)]]
                ntris.append(self._identity_two(nverts[a], nverts[c], f))
        return (nverts, tuple(nedges), tuple(ntris))


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


def _build_copy(D, by_dim, faces, bound, marked_fn):
    """nerves._build on its own copy of the raw layers, which it consumes,
    with the raw -> reference index it fills."""
    index = {}
    X = N._build(D, {n: list(layer) for n, layer in by_dim.items()}, dict(faces),
                 bound, marked_fn, index)
    return X, index


@pytest.mark.parametrize("D", _oracle_cases())
def test_build_matches_from_raw(D):
    bound = 4
    by_dim, faces = N._raw_nerve(D, bound)
    ops = _RawOps(D)
    for marking, mk in MARKINGS.items():
        X, index = _build_copy(D, by_dim, faces, bound, mk(D))
        Y, oracle = from_raw(
            bound, by_dim, ops.face, ops.degenerate, mk(D), N._key_fn
        )
        assert X.gens == Y.gens, marking
        assert X.faces == Y.faces, marking
        assert X.marked == Y.marked, marking
        assert index == oracle, marking


def _raw_nerve_checked(D, bound, monkeypatch):
    """The raw nerve with every hom treated as non-thin, so that every
    triangle goes through the checked search."""
    init = N._Tables.__init__

    def checked(self, D):
        init(self, D)
        self.thin = dict.fromkeys(self.thin, False)

    with monkeypatch.context() as m:
        m.setattr(N._Tables, "__init__", checked)
        return N._raw_nerve(D, bound)


@pytest.mark.parametrize("D", _oracle_cases())
def test_thin_extension_matches_checked(D, monkeypatch):
    assert N._raw_nerve(D, 4) == _raw_nerve_checked(D, 4, monkeypatch)


def test_thin_extension_matches_checked_on_incomparable_cells(monkeypatch):
    # hom(bot, top) is the cube [1]^3: its 1-cells have down-sets holding
    # incomparable cells, so the masks ANDed per edge have several bits
    D = T.suspend_category(T.product_poset((1, 1, 1)))
    tabs = N._Tables(D)
    assert tabs.thin[("bot", "top")]
    cube = tabs.down[("bot", "top")]
    assert sorted(m.bit_count() for m in cube.values()) == [1, 2, 2, 2, 4, 4, 4, 8]
    assert N._raw_nerve(D, 5) == _raw_nerve_checked(D, 5, monkeypatch)
    assert _guard_steps(D, 5, monkeypatch) == _guard_steps(
        D, 5, monkeypatch, checked=True)


def test_thin_flags_of_suspended_group():
    # hom(bot, top) holds two parallel 2-cells, the endo-homs are [0],
    # so one nerve of Sigma Z/2 runs both the thin and the checked path
    thin = N._Tables(_z2_suspension()).thin
    assert thin == {("bot", "top"): False, ("bot", "bot"): True,
                    ("top", "top"): True}


def _record_guards(monkeypatch):
    """Make nerves record every guard it creates, in the list returned."""
    guards = []

    class Recording(M._Guard):
        def __init__(self, *args):
            super().__init__(*args)
            guards.append(self)

    monkeypatch.setattr(N, "_Guard", Recording)
    return guards


def _guard_steps(D, bound, monkeypatch, checked=False):
    guards = _record_guards(monkeypatch)
    if checked:
        _raw_nerve_checked(D, bound, monkeypatch)
    else:
        N._raw_nerve(D, bound)
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
        N._raw_nerve(D, 3, limit=steps - 1)
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
    N._raw_nerve(D, 4)
    # a step larger than any hom is a batch of triangles, not a list of edges
    dimension, before, k = next(c for c in calls if c[2] > widest)
    with pytest.raises(M.ResourceLimitError) as info:
        N._raw_nerve(D, 4, limit=before + 1)
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
        by_dim, faces = N._raw_nerve(D, bound)
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
        N._raw_nerve(D, 5, limit=limit)
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
    # other triangles to agree, so _build must compare every position
    D = _z2_suspension()
    by_dim = _raw_without_cocycle(D, 4)
    assert len(by_dim[4]) > len(N._raw_nerve(D, 4)[0][4])
    ops = _RawOps(D)
    X, index = _build_copy(D, by_dim, raw_face_index(by_dim), 4, N._marking(D, "rs"))
    Y, oracle = from_raw(4, by_dim, ops.face, ops.degenerate,
                         N._marking(D, "rs"), N._key_fn)
    assert (X.gens, X.faces, X.marked) == (Y.gens, Y.faces, Y.marked)
    assert index == oracle


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
    for build in (N.duskin_nerve, N.rs_nerve, N.rs_nerve_with_index, N.scaled_nerve):
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


@pytest.mark.parametrize("first", ["rs_nerve_with_index", "apply_L"])
def test_rs_nerve_returns_the_nerve_an_indexed_build_left(first, monkeypatch):
    shape = T.Theta2Shape(2, (1, 0))
    D = T.theta2_object(shape)
    monkeypatch.setattr(N, "_nerve_cache", {})
    indexed = []
    with_index = N.rs_nerve_with_index

    def recording(*args):
        X, index = with_index(*args)
        indexed.append(X)
        return X, index

    monkeypatch.setattr(TH, "rs_nerve_with_index", recording)
    if first == "apply_L":
        TH.apply_L(TH.representable(shape), bound=3)
    else:
        recording(D, 3)
    built = _record_builds(monkeypatch)
    assert len(indexed) == 1
    assert N.rs_nerve(D, bound=3) is indexed[0]
    assert built == []


def test_nerve_guard_leaves_no_cache_entry(monkeypatch):
    monkeypatch.setattr(N, "_nerve_cache", {})
    for build in (N.duskin_nerve, N.rs_nerve_with_index):
        with pytest.raises(M.ResourceLimitError):
            build(T.cell(2), bound=3, limit=3)
        assert N._nerve_cache == {}
    # so a second call runs the guard again
    with pytest.raises(M.ResourceLimitError):
        N.duskin_nerve(T.cell(2), bound=3, limit=3)


def test_nerve_cache_holds_built_nerves_only(monkeypatch):
    monkeypatch.setattr(N, "_nerve_cache", {})
    X = N.duskin_nerve(T.theta2_object(T.Theta2Shape(2, (2, 2))), bound=4)
    assert [v is X for v in N._nerve_cache.values()] == [True]
    assert all(isinstance(v, M.MarkedSSet) for v in N._nerve_cache.values())


@pytest.mark.parametrize("D", _oracle_cases())
def test_nerve_marking_table_matches_named_builders(D):
    builders = {"rs": N.rs_nerve, "scaled": N.scaled_nerve, "duskin": N.duskin_nerve}
    for variant, build in builders.items():
        X, Y = N.nerve(D, variant, bound=4), build(D, bound=4)
        assert (X.gens, X.faces, X.marked) == (Y.gens, Y.faces, Y.marked), variant
    X, Y = N.rs_nerve_with_index(D, bound=4)[0], N.nerve(D, bound=4)
    assert (X.gens, X.faces, X.marked) == (Y.gens, Y.faces, Y.marked)


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
    """compatible_boundaries with one prefix index per level and one
    recursive call per pool: the oracle of the two-level pool index.
    Returns the boundaries and the guard's step total."""
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
    results = []
    chosen, chosen_faces = [], []

    def extend(j, pool):
        guard.step(len(pool))
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
    return results, guard.count


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
        want, steps = _compatible_boundaries_one_level(X, n)
        assert N.compatible_boundaries(X, n) == want, n
        assert guards[-1].count == steps, n


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
