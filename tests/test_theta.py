import collections
import itertools
import re

import pytest

from theta2kit import msset as M
from theta2kit import nerves as N
from theta2kit import theta as TH
from theta2kit import twocat as T
from theta2kit.cli import main

from raw_oracles import (
    msset_dumps,
    raw_collapse_functor,
    raw_colimit,
    raw_enumerate_maps,
    raw_evaluate,
    raw_evaluate_map,
    raw_identity_presentation_map,
    raw_nerve_assignment,
    raw_product_with_index,
    raw_vertical_completeness,
    raw_vertical_segal,
)


POINT = T.Theta2Shape(0, ())
EDGE = T.Theta2Shape(1, (0,))
CONE = T.Theta2Shape(1, (1,))


# ---------------------------------------------------------------------------
# presentations and shapes


def test_parse_shape():
    assert TH.parse_shape("[2|1,0]") == T.Theta2Shape(2, (1, 0))
    assert TH.parse_shape("[0]") == POINT
    assert TH.parse_shape("[3]") == T.Theta2Shape(3, (0, 0, 0))
    assert TH.parse_shape("[1|2]") == T.Theta2Shape(1, (2,))
    with pytest.raises(ValueError):
        TH.parse_shape("2|1")


def test_theta_resolves_the_constructors_it_imports():
    # shape functors and shape names are twocat's, simplex maps msset's and
    # the suspension comparison nerves'; the older paths still resolve
    import theta2kit

    assert (TH.shape_functor, TH.parse_shape) == (T.shape_functor, T.parse_shape)
    assert TH.simplex_map is M.simplex_map
    assert theta2kit.suspension_comparison is N.suspension_comparison


def test_presentation_validates_level_maps():
    cells = (TH.BoxCell(POINT, 1), TH.BoxCell(POINT, 0))
    F = TH.shape_functor(POINT, POINT, [0])
    with pytest.raises(ValueError):
        TH.Theta2Presentation(cells, ((0, 1, F, (0, 1)),))  # image too big
    with pytest.raises(ValueError):
        TH.Theta2Presentation(cells, ((1, 0, F, (1, 0)),))  # not monotone
    with pytest.raises(ValueError):
        TH.Theta2Presentation(cells, ((0, 2, F, (0, 0)),))  # endpoint


def test_presentation_rejects_functor_not_joining_its_cells():
    # the functor starts at the point, not at [1|0]; apply_L used to fail
    # deep in the block map with a bare KeyError: '1'
    cells = (TH.BoxCell(EDGE), TH.BoxCell(CONE))
    F = TH.shape_functor(POINT, CONE, [0])
    with pytest.raises(ValueError, match="does not join"):
        TH.Theta2Presentation(cells, ((0, 1, F, (0,)),))
    # the right source, the wrong target
    G = TH.shape_functor(EDGE, EDGE, [0, 1], [[(0,)]])
    with pytest.raises(ValueError, match="does not join"):
        TH.Theta2Presentation(cells, ((0, 1, G, (0,)),))
    # one object, but named "*", not "0"
    star = T.as_two_category(T.terminal_category())
    (K,) = T.enumerate_two_functors(star, T.theta2_object(POINT))
    with pytest.raises(ValueError, match="does not join"):
        TH.Theta2Presentation((TH.BoxCell(POINT),) * 2, ((0, 1, K, (0,)),))
    H = TH.shape_functor(EDGE, CONE, [0, 1], [[(0,)]])
    TH.Theta2Presentation(cells, ((0, 1, H, (0,)),))


def test_presentation_map_checks_its_cell_map():
    W, V = TH.representable(EDGE), TH.representable(CONE, 1)
    F = TH.shape_functor(EDGE, CONE, [0, 1], [[(1,)]])
    TH.PresentationMap(W, V, ((0, F, (1,)),))
    bad = [
        (),  # no entry for the source cell
        ((0, F, (1,)), (0, F, (1,))),  # one entry too many
        ((1, F, (1,)),),  # target index out of range
        ((0, TH.shape_functor(POINT, CONE, [1]), (1,)),),  # wrong source
        ((0, F, (0, 1)),),  # level map of the wrong length
        ((0, F, (2,)),),  # level image out of range
        ((0, F, (-1,)),),  # negative level image
    ]
    for cell_map in bad:
        with pytest.raises(ValueError):
            TH.PresentationMap(W, V, cell_map)
    G = TH.shape_functor(CONE, CONE, [0, 1], [[(0,), (1,)]])
    with pytest.raises(ValueError):  # not monotone
        TH.PresentationMap(TH.representable(CONE, 1), V, ((0, G, (1, 0)),))


def test_elementary_cofibrations_construct():
    for k in range(4):
        TH.vertical_segal(k)
    for m in range(4):
        for ks in itertools.product(range(3), repeat=m):
            TH.horizontal_segal(m, ks)
    TH.horizontal_completeness()
    TH.vertical_completeness()


def test_shape_functor_rejects_nonmonotone_segment_images():
    with pytest.raises(ValueError):
        TH.shape_functor(CONE, T.Theta2Shape(1, (1,)), [0, 1], [[(1,), (0,)]])


@pytest.mark.parametrize("src, dst, obj_images, seg_images, message", [
    # no segment images: used to raise TypeError
    (EDGE, EDGE, [0, 1], None, "1 segments, not 0 image lists"),
    # one object image short: used to raise IndexError
    (EDGE, EDGE, [0], [[(0,)]], "2 objects, not 1 images"),
    # an object the target lacks: used to return a functor onto "5"
    (EDGE, EDGE, [0, 5], [[(0,) * 5]], "object image must be at most 1"),
    (EDGE, EDGE, [0, 1.0], [[(0,)]], "object image must be an int"),
    (EDGE, EDGE, [0, True], [[(0,)]], "object image must be an int"),
    (T.Theta2Shape(2, (0, 0)), EDGE, [1, 0, 1], [[()], [(0,)]], "not monotone"),
    # one image list too many: used to be dropped
    (EDGE, EDGE, [0, 1], [[(0,)], [(0,)]], "1 segments, not 2 image lists"),
    # one hom object without an image: used to raise IndexError
    (CONE, CONE, [0, 1], [[(0,)]], "needs 2 images, not 1"),
    # a segment image outside the target's poset: used to be kept
    (EDGE, CONE, [0, 1], [[(2,)]], "image entry must be at most 1"),
])
def test_shape_functor_rejects_malformed_images(src, dst, obj_images, seg_images,
                                                message):
    with pytest.raises(ValueError, match=message):
        TH.shape_functor(src, dst, obj_images, seg_images)


# ---------------------------------------------------------------------------
# evaluation


def test_evaluate_representable_counts_functors():
    W = TH.representable(T.Theta2Shape(1, (1,)))
    assert len(TH.evaluate(W, EDGE)) == 4
    assert len(TH.evaluate(W, POINT)) == 2


def test_evaluate_with_levels_counts_monotone_maps():
    W = TH.representable(POINT, level=1)
    assert len(TH.evaluate(W, POINT, ell=0)) == 2
    assert len(TH.evaluate(W, POINT, ell=1)) == 3


def test_evaluate_vertical_segal_source():
    # two free 2-cells glued along a shared 1-cell: at [1|0] each block
    # contributes its four 1-cell images and the gluing identifies three
    W = TH.vertical_segal(2).source
    assert len(TH.evaluate(W, EDGE)) == 4 + 4 - 3
    assert len(TH.evaluate(W, POINT)) == 2


def test_evaluate_is_stable_under_cell_splitting():
    theta = T.Theta2Shape(1, (1,))
    ident = TH.shape_functor(
        theta, theta, [0, 1], [[(0,), (1,)]]
    )
    split = TH.Theta2Presentation(
        (TH.BoxCell(theta), TH.BoxCell(theta)),
        ((0, 1, ident, (0,)), (1, 0, ident, (0,))),
    )
    for probe in (POINT, EDGE, CONE):
        assert len(TH.evaluate(split, probe)) == len(
            TH.evaluate(TH.representable(theta), probe)
        )


def test_evaluate_map_of_spine_is_injective_on_probe():
    P = TH.vertical_segal(2)
    out = TH.evaluate_map(P, EDGE)
    assert len(set(out.values())) == len(out)


def test_evaluate_map_checks_its_images(monkeypatch):
    # the check must hold under python -O, so it may not be an assert
    P = TH.vertical_segal(2)
    classes = TH._classes

    def drop_target_elements(W, D, ell, limit):
        fs, keyed, canon = classes(W, D, ell, limit)
        return fs, keyed, (canon if W is P.source else {})

    monkeypatch.setattr(TH, "_classes", drop_target_elements)
    with pytest.raises(RuntimeError, match="outside the target"):
        TH.evaluate_map(P, EDGE)


@pytest.mark.parametrize("ell", [-1, -2, 1.0, True, False, None, "0"])
def test_evaluation_rejects_bad_ell(ell):
    # ell = -1 used to give a wrong answer, ell = -2 an itertools error
    with pytest.raises(ValueError, match="ell"):
        TH.evaluate(TH.representable(CONE), POINT, ell=ell)
    with pytest.raises(ValueError, match="ell"):
        TH.evaluate_map(TH.vertical_segal(2), EDGE, ell=ell)
    # apply_R_at ran with ell = True as ell = 1; its ell is a box cell's level
    with pytest.raises(ValueError, match="level"):
        TH.apply_R_at(M.standard_simplex(1), POINT, ell)


@pytest.mark.parametrize("limit", [True, 2.5, "100", -1])
def test_apply_R_at_checks_its_limit_before_building_a_block(monkeypatch, limit):
    built = []
    block = TH._block
    monkeypatch.setattr(TH, "_block", lambda *args: built.append(args) or block(*args))
    X = N.rs_nerve(T.theta2_object(T.Theta2Shape(2, (1, 1))), 4)
    with pytest.raises(ValueError, match="enumerate_maps: limit must be an int >= 0"):
        TH.apply_R_at(X, T.Theta2Shape(2, (1, 1)), 1, limit)
    assert built == []


def _evaluation_cases():
    maps = [pytest.param(TH.vertical_segal(k), id=f"vertical_segal({k})")
            for k in range(4)]
    maps += [
        pytest.param(TH.horizontal_segal(m, ks), id=f"horizontal_segal({m}, {ks})")
        for m in range(3) for ks in itertools.product((0, 1), repeat=m)
    ]
    maps += [pytest.param(TH.horizontal_completeness(), id="horizontal_completeness"),
             pytest.param(TH.vertical_completeness(), id="vertical_completeness")]
    return maps


@pytest.mark.parametrize("P", _evaluation_cases())
def test_evaluation_matches_the_oracle(P):
    for probe in (POINT, EDGE, CONE):
        for ell in (0, 1):
            for W in (P.source, P.target):
                assert TH.evaluate(W, probe, ell) == raw_evaluate(W, probe, ell)
            got = TH.evaluate_map(P, probe, ell)
            want = raw_evaluate_map(P, probe, ell)
            assert list(got.items()) == list(want.items()), (probe, ell)


# ---------------------------------------------------------------------------
# degenerate cofibration conventions


def test_degenerate_cofibrations_are_identities():
    for P in (TH.vertical_segal(0), TH.horizontal_segal(0, ())):
        assert P.source.cells == P.target.cells
        for probe in (POINT, EDGE):
            out = TH.evaluate_map(P, probe)
            assert all(k == v for k, v in out.items())


def test_elementary_cofibration_dispatch():
    assert TH.elementary_cofibration("vertical_segal", 2).target.cells[
        0
    ].shape == T.Theta2Shape(1, (2,))
    with pytest.raises(ValueError):
        TH.elementary_cofibration("diagonal_segal")


@pytest.mark.parametrize("kind, params, names", [
    ("vertical_segal", (), "(k)"),  # used to raise TypeError
    ("vertical_segal", (1, 2), "(k)"),
    ("horizontal_segal", (1,), "(m, ks)"),
    ("horizontal_completeness", (1,), "()"),  # the 1 used to be dropped
    ("vertical_completeness", (1,), "()"),
])
def test_elementary_cofibration_checks_its_parameter_count(kind, params, names):
    with pytest.raises(ValueError, match=re.escape(f"{kind} takes the parameters {names}")):
        TH.elementary_cofibration(kind, *params)


# ---------------------------------------------------------------------------
# the vertical cofibrations as suspensions of the horizontal ones


def _functor_parts(F):
    """F's objects, object images and tables, in their key orders."""
    return (F.source.objects, F.target.objects, list(F.on_objects.items()),
            [(pair, list(om.items()), list(mm.items()))
             for pair, (om, mm) in F.tables.items()])


def assert_same_presentation_map(P, Q):
    for W, V in ((P.source, Q.source), (P.target, Q.target)):
        assert W.cells == V.cells
        assert [(i, j, _functor_parts(F), lam) for i, j, F, lam in W.arrows] == [
            (i, j, _functor_parts(F), lam) for i, j, F, lam in V.arrows]
    assert [(j, _functor_parts(F), lam) for j, F, lam in P.cell_map] == [
        (j, _functor_parts(F), lam) for j, F, lam in Q.cell_map]


@pytest.mark.parametrize("k", range(6))
def test_vertical_segal_matches_the_hand_built_diagram(k):
    assert_same_presentation_map(TH.vertical_segal(k), raw_vertical_segal(k))


def test_vertical_completeness_matches_the_hand_built_diagram():
    assert_same_presentation_map(TH.vertical_completeness(),
                                 raw_vertical_completeness())


def test_horizontal_maps_match_their_former_helpers():
    assert_same_presentation_map(TH.horizontal_segal(0, ()),
                                 raw_identity_presentation_map(POINT))
    arrows = TH.horizontal_completeness().target.arrows
    for arrow in (arrows[0], arrows[3]):
        assert _functor_parts(arrow[2]) == _functor_parts(raw_collapse_functor(EDGE))


@pytest.mark.parametrize("make, raw", [
    pytest.param(lambda k=k: TH.vertical_segal(k), lambda k=k: raw_vertical_segal(k),
                 id=f"vertical_segal({k})") for k in range(4)
] + [pytest.param(TH.vertical_completeness, raw_vertical_completeness,
                  id="vertical_completeness")])
def test_vertical_L_maps_match_the_hand_built_diagram(make, raw):
    f, g = TH.apply_L_map(make(), 4), TH.apply_L_map(raw(), 4)
    assert msset_dumps(f.source) == msset_dumps(g.source)
    assert msset_dumps(f.target) == msset_dumps(g.target)
    assert list(f.assignment.items()) == list(g.assignment.items())


def _functors_of(P):
    """The 2-functors of P's arrows and of its cell map."""
    return ([F for W in (P.source, P.target) for _, _, F, _ in W.arrows]
            + [F for _, F, _ in P.cell_map])


@pytest.mark.parametrize("make, most", [
    pytest.param(lambda: TH.horizontal_segal(3, (1, 0, 1)), 1, id="horizontal_segal"),
    pytest.param(lambda: TH.horizontal_segal(0, ()), 1, id="horizontal_segal(0)"),
    pytest.param(TH.horizontal_completeness, 1, id="horizontal_completeness"),
    pytest.param(lambda: TH.vertical_segal(3), 2, id="vertical_segal"),
    pytest.param(TH.vertical_completeness, 2, id="vertical_completeness"),
])
def test_each_constructor_builds_each_shape_once(monkeypatch, make, most):
    # a constructor holds the shapes it builds and hands them to each of
    # its functors; a vertical map builds its horizontal map's shapes, then
    # the suspended ones, so [1|0] is built once in each
    built = []
    build = T.theta2_object
    monkeypatch.setattr(T, "theta2_object", lambda shape: built.append(shape) or build(shape))
    P = make()
    assert built and max(collections.Counter(built).values()) == most
    shared = {}
    for F in _functors_of(P):
        for D in (F.source, F.target):
            assert shared.setdefault(D.signature, D) is D


def test_presentation_loader_builds_each_shape_once(monkeypatch):
    # vertical_segal(3).source has 4 arrows over 2 distinct shapes; each
    # arrow built both its shapes anew, 8 theta2_object calls in all
    W = TH.vertical_segal(3).source
    data = TH.presentation_to_json(W)
    built = []
    build = T.theta2_object
    monkeypatch.setattr(T, "theta2_object", lambda shape: built.append(shape) or build(shape))
    V = TH.presentation_from_json(data)
    assert len(built) == len(set(built)) == 2
    assert V == W and TH.presentation_to_json(V) == data


def test_suspend_rejects_cells_with_nonzero_ks():
    with pytest.raises(ValueError, match="suspended"):
        TH._suspend(TH.horizontal_segal(1, (1,)))


# ---------------------------------------------------------------------------
# the comparison functor L


def test_L_of_point_is_point():
    X = TH.apply_L(TH.representable(POINT), bound=3)
    assert M.find_iso(X, M.standard_simplex(0, bound=3)) is not None


def test_L_of_edge_is_interval():
    X = TH.apply_L(TH.representable(EDGE), bound=3)
    assert M.find_iso(X, M.standard_simplex(1, bound=3)) is not None


def test_L_of_leveled_cell_is_product():
    X = TH.apply_L(TH.representable(EDGE, level=1), bound=3)
    Y = M.product(
        M.standard_simplex(1, bound=3),
        M.standard_simplex(1, "sharp", bound=3),
    )
    assert M.find_iso(X, Y) is not None


def test_L_of_a_huge_level_stops_before_building_the_simplex():
    # Delta[10**6] was built in full, and ran out of memory; the block's
    # simplices are counted per dimension first: in dimension 0, the
    # level + 1 vertices of Delta[level] and as many of the product
    level = 10**6
    with pytest.raises(M.ResourceLimitError) as info:
        TH.apply_L(TH.representable(POINT, level=level), bound=2)
    e = info.value
    assert (e.operation, e.dimension, e.steps) == ("apply_L", 0, 2 * (level + 1))


@pytest.mark.parametrize("shape, level, bound", [
    (POINT, 0, 2), (POINT, 3, 2), (EDGE, 2, 4), (EDGE, 5, 3),
    (T.Theta2Shape(2, (2, 1)), 1, 4), (T.Theta2Shape(1, (2,)), 2, 3),
])
def test_block_sizes_count_what_the_block_lists(shape, level, bound):
    X = N.rs_nerve(T.theta2_object(shape), bound)
    S = M.standard_simplex(level, "sharp", bound=bound)
    P = M.product(X, S)
    assert TH._block_sizes(X, level, bound) == [
        len(S.all_simplices(n)) + len(P.gens_at(n)) for n in range(bound + 1)]


def test_L_stops_at_the_first_level_over_the_block_limit():
    # the product is counted too: Delta[83] alone is well under the limit
    X = N.rs_nerve(T.theta2_object(EDGE), 2)
    assert sum(TH._block_sizes(X, 82, 2)) <= TH._BLOCK_LIMIT
    with pytest.raises(M.ResourceLimitError) as info:
        TH.apply_L(TH.representable(EDGE, level=83), bound=2)
    e = info.value
    assert (e.operation, e.dimension) == ("apply_L", 2)
    assert e.steps == sum(TH._block_sizes(X, 83, 2)) > TH._BLOCK_LIMIT


def test_L_of_glued_presentation():
    W = TH.vertical_segal(2).source
    X = TH.apply_L(W, bound=4)
    assert M.validate_msset(X).ok
    # two free 2-cell nerves share one edge and its two endpoints
    assert X.counts()[0] == 2
    assert X.counts()[1] == 2 + 2 - 1


def test_L_map_of_spine_is_mono_with_nerve_codomain():
    f = TH.apply_L_map(TH.vertical_segal(2), bound=4)
    assert M.validate_map(f).ok
    assert M.is_mono(f)
    Y = N.rs_nerve(T.theta2_object(T.Theta2Shape(1, (2,))), bound=4)
    assert M.find_iso(f.target, Y) is not None


def test_L_map_of_horizontal_spine():
    f = TH.apply_L_map(TH.horizontal_segal(2, (0, 0)), bound=4)
    assert M.validate_map(f).ok
    assert M.is_mono(f)
    Y = N.rs_nerve(T.theta2_object(T.Theta2Shape(2, (0, 0))), bound=4)
    assert M.find_iso(f.target, Y) is not None


# ---------------------------------------------------------------------------
# L's block builder against blocks and block maps built one by one, and
# products and colimits through the all-simplex oracles


def _old_box_nerve(cell, bound):
    return raw_product_with_index(
        N.rs_nerve(T.theta2_object(cell.shape), bound),
        M.standard_simplex(cell.level, "sharp", bound=bound),
    )[0]


def _old_box_map(G, lam, l_src, l_dst, bound):
    """The nerve map of the raw oracle followed by product_map, each
    building its own nerves and products."""
    nf = raw_nerve_assignment(G, "rs", bound)
    X, Y = nf.source, nf.target
    sf = TH.simplex_map(l_src, l_dst, lam, "sharp", bound)
    P, pindex = raw_product_with_index(X, sf.source)
    Q, qindex = raw_product_with_index(Y, sf.target)
    return M.MSSetMap(P, Q, {
        gid: qindex[(nf.apply(rx), sf.apply(ry))]
        for (rx, ry), (gid, w) in pindex.items()
        if not w
    })


def _old_apply_L_with_legs(W, bound):
    nodes = [_old_box_nerve(cell, bound) for cell in W.cells]
    arrows = []
    for i, j, G, lam in W.arrows:
        f = _old_box_map(G, lam, W.cells[i].level, W.cells[j].level, bound)
        arrows.append((i, j, M.MSSetMap(nodes[i], nodes[j], f.assignment)))
    return raw_colimit(nodes, arrows, bound=bound)


def _old_apply_L_map(P, bound):
    src, src_legs = _old_apply_L_with_legs(P.source, bound)
    tgt, tgt_legs = _old_apply_L_with_legs(P.target, bound)
    assignment = {}
    for i, cell in enumerate(P.source.cells):
        j, G, lam = P.cell_map[i]
        f = _old_box_map(G, lam, cell.level, P.target.cells[j].level, bound)
        for g, ref in src_legs[i].assignment.items():
            if not ref[1]:
                assignment.setdefault(ref[0], tgt_legs[j].apply(f.assignment[g]))
    return M.MSSetMap(src, tgt, assignment)


def assert_same_msset(X, Y):
    """The same generators, faces and marking, orders included."""
    assert X.bound == Y.bound
    assert list(X.gens.items()) == list(Y.gens.items())
    assert list(X.faces.items()) == list(Y.faces.items())
    assert X.marked == Y.marked


def assert_same_L_map(P, bound=4):
    f, old = TH.apply_L_map(P, bound), _old_apply_L_map(P, bound)
    assert_same_msset(f.source, old.source)
    assert_same_msset(f.target, old.target)
    assert list(f.assignment.items()) == list(old.assignment.items())
    return f


def _glued_leveled_map():
    """A point glued to the end (1, 1) of [1|0] x Delta[1], mapped into
    [1|1] x Delta[1]: level maps (1,) on the arrow and on the point."""
    glue = TH.shape_functor(POINT, EDGE, [1])
    source = TH.Theta2Presentation(
        (TH.BoxCell(POINT, 0), TH.BoxCell(EDGE, 1)), ((0, 1, glue, (1,)),)
    )
    bottom = TH.shape_functor(EDGE, CONE, [0, 1], [[(0,)]])
    cell_map = ((0, TH.shape_functor(POINT, CONE, [1]), (1,)), (0, bottom, (0, 1)))
    return TH.PresentationMap(source, TH.representable(CONE, 1), cell_map)


def _level_collapse_map():
    """[1|1] x Delta[1] onto [1|1] x Delta[0]: level map (0, 0)."""
    ident = TH.shape_functor(CONE, CONE, [0, 1], [[(0,), (1,)]])
    return TH.PresentationMap(
        TH.representable(CONE, 1), TH.representable(CONE, 0), ((0, ident, (0, 0)),)
    )


@pytest.mark.parametrize("k", range(4))
def test_block_builder_matches_on_vertical_segal(k):
    assert_same_L_map(TH.vertical_segal(k))


@pytest.mark.parametrize(
    "m, ks", [(0, ()), (1, (0,)), (1, (1,)), (1, (2,)),
              (2, (0, 0)), (2, (0, 1)), (2, (1, 0)), (2, (1, 1))]
    + [(3, ks) for ks in itertools.product(range(2), repeat=3)]
)
def test_block_builder_matches_on_horizontal_segal(m, ks):
    assert_same_L_map(TH.horizontal_segal(m, ks))


@pytest.mark.parametrize("kind", ["horizontal_completeness", "vertical_completeness"])
def test_block_builder_matches_on_completeness_maps(kind):
    assert_same_L_map(TH.elementary_cofibration(kind))


def test_block_builder_matches_with_level_maps():
    for P in (_glued_leveled_map(), _level_collapse_map()):
        f = assert_same_L_map(P)
        assert M.validate_map(f).ok


@pytest.mark.parametrize("level", [0, 1])
@pytest.mark.parametrize("shape", [POINT, EDGE, CONE, T.Theta2Shape(1, (2,)),
                                   T.Theta2Shape(2, (1, 0))] + [
    T.Theta2Shape(2, ks) for ks in itertools.product(range(3), repeat=2)
    if ks != (1, 0)
])
def test_block_builder_matches_on_representables(shape, level):
    bound = 4 if level == 0 else 3
    W = TH.representable(shape, level)
    assert_same_msset(TH.apply_L(W, bound), _old_apply_L_with_legs(W, bound)[0])


def test_block_builder_builds_each_block_once(monkeypatch):
    built = []

    def counting(name):
        build = getattr(TH, name)

        def counted(*args):
            built.append(name)
            return build(*args)

        monkeypatch.setattr(TH, name, counted)

    counting("rs_nerve")
    counting("product_with_index")
    TH.apply_L_map(TH.vertical_segal(3), bound=4)
    # one nerve and one product each for [1|1], [1|0] and [1|3]
    assert sorted(built) == ["product_with_index"] * 3 + ["rs_nerve"] * 3


def test_L_of_an_arrow_that_is_not_a_two_functor_raises():
    # [1|1] -> [1|2] sending every 1-cell to (0) and every 2-cell to
    # (0)>(2); the presentation checks only that it joins the shapes
    D, E = T.cell(2), T.theta2_object(T.Theta2Shape(1, (2,)))
    H = D.hom[("0", "1")]
    F = T.TwoFunctor(D, E, {"0": "0", "1": "1"}, {("0", "1"): (
        {f: "(0)" for f in H.objects}, {a: "(0)>(2)" for a in H.morphisms})})
    W = TH.Theta2Presentation(
        (TH.BoxCell(CONE), TH.BoxCell(T.Theta2Shape(1, (2,)))), ((0, 1, F, (0,)),))
    with pytest.raises(ValueError, match="image of generator 0,0,1;"):
        TH.apply_L(W, bound=2)


# ---------------------------------------------------------------------------
# the pointwise right adjoint


def test_R_at_point_block():
    assert len(TH.apply_R_at(M.standard_simplex(0), POINT)) == 1
    assert len(TH.apply_R_at(M.standard_simplex(1), POINT)) == 2


def test_R_matches_maps_out_of_L():
    probes = [
        (POINT, 0),
        (POINT, 1),
        (EDGE, 0),
    ]
    targets = [
        M.standard_simplex(1),
        M.standard_simplex(1, "sharp"),
        M.standard_simplex(2, "boundary"),
    ]
    for X in targets:
        for theta, ell in probes:
            block = TH.apply_L(TH.representable(theta, ell), bound=X.bound)
            assert len(TH.apply_R_at(X, theta, ell)) == len(
                M.enumerate_maps(block, X)
            )


def test_R_at_matches_maps_out_of_the_old_block():
    X = M.standard_simplex(2, "sharp")
    for theta, ell in ((POINT, 1), (EDGE, 0), (EDGE, 1)):
        old = M.enumerate_maps(_old_box_nerve(TH.BoxCell(theta, ell), X.bound), X)
        new = TH.apply_R_at(X, theta, ell)
        assert [list(f.assignment.items()) for f in new] == [
            list(f.assignment.items()) for f in old
        ]


def test_enumerate_maps_matches_the_recursive_oracle():
    targets = [
        M.standard_simplex(1),
        M.standard_simplex(1, "sharp"),
        M.standard_simplex(2, "boundary"),
        M.standard_simplex(2, "sharp"),
    ]
    cases = [
        (TH.apply_L(TH.representable(theta, ell), bound=X.bound), X)
        for X in targets for theta, ell in ((POINT, 0), (POINT, 1), (EDGE, 0))
    ]
    cases += [
        (_old_box_nerve(TH.BoxCell(theta, ell), 5), targets[3])
        for theta, ell in ((POINT, 1), (EDGE, 0), (EDGE, 1))
    ]
    D1, D2 = M.standard_simplex(1), M.standard_simplex(2)
    square = M.product(D1, M.standard_simplex(1, "sharp"))
    cases += [
        (square, D2),
        (D1, square),
        (square, square),
        (M.product(D1, D1), M.product(D2, M.standard_simplex(0))),
        (M.standard_simplex(2, "horn", horn=1), D2),
        (M.standard_simplex(3, "horn", horn=0), D2),
        (D1, M.standard_simplex(3, "horn", horn=2)),
        (M.standard_simplex(1, "edge_marked"), M.standard_simplex(3, "eq3")),
    ]
    for X, Y in cases:
        new = [list(f.assignment.items()) for f in M.enumerate_maps(X, Y)]
        old = [list(f.assignment.items()) for f in raw_enumerate_maps(X, Y)]
        assert new == old and new


def test_R_on_a_nerve_counts_2_functors():
    # 10 maps from a source of 8 396 generators, deeper than one
    # recursion frame per generator can reach
    theta = T.Theta2Shape(2, (2, 2))
    D = T.theta2_object(T.Theta2Shape(1, (1,)))
    R = TH.apply_R_at(N.rs_nerve(D, 4), theta, 0)
    assert len(R) == len(T.enumerate_two_functors(T.theta2_object(theta), D)) == 10


# ---------------------------------------------------------------------------
# hom restriction


def test_d_restriction_formula_matches_enumeration():
    for theta, i, j in [
        (T.Theta2Shape(1, (1,)), 1, 0),
        (T.Theta2Shape(1, (1,)), 1, 1),
        (T.Theta2Shape(2, (0, 0)), 1, 0),
        (T.Theta2Shape(2, (1, 0)), 2, 1),
    ]:
        fs, total = TH.d_restriction(theta, i, j)
        assert len(fs) == total, (theta, i, j)


def test_d_restriction_edge_counts_one_cells():
    fs, total = TH.d_restriction(T.Theta2Shape(2, (0, 0)), 1, 0)
    assert total == 6  # one per 1-cell of [2|0,0]


def test_counting_callers_build_no_two_functor(monkeypatch, capsys):
    made = []
    init = T.TwoFunctor.__init__

    def counting(self, *args):
        made.append(self)
        init(self, *args)

    monkeypatch.setattr(T.TwoFunctor, "__init__", counting)
    for theta, i, j in [(T.Theta2Shape(2, (1, 2)), 2, 1),
                        (T.Theta2Shape(3, (2, 0, 1)), 1, 2)]:
        fs, total = TH.d_restriction(theta, i, j)
        assert len(fs) == total > 0
    assert made == []
    assert main(["verify", "hom-bijection", "--max-m", "2"]) == 0
    capsys.readouterr()
    assert made == []
    # a read builds the one functor read, once
    assert fs[-1] is fs[-1] and made == [fs[-1]]


@pytest.mark.parametrize("i, j", [(-1, 1), (1, -1), (True, 1), (1, True),
                                  (1.0, 1), (1, 1.0), ("1", 1)])
def test_d_restriction_rejects_bad_indices(i, j):
    # i = True used to run as i = 1, and i = 1.0 raised a TypeError
    with pytest.raises(ValueError, match="d_restriction"):
        TH.d_restriction(T.Theta2Shape(1, (1,)), i, j)


# ---------------------------------------------------------------------------
# serialization


def test_presentation_json_round_trip():
    for W in (
        TH.representable(T.Theta2Shape(2, (1, 0)), level=1),
        TH.vertical_segal(2).source,
        TH.horizontal_completeness().target,
    ):
        data = TH.presentation_to_json(W)
        V = TH.presentation_from_json(data)
        assert V.cells == W.cells
        assert len(V.arrows) == len(W.arrows)
        for (i, j, F, lam), (i2, j2, G, lam2) in zip(W.arrows, V.arrows):
            assert (i, j, lam) == (i2, j2, lam2)
            assert F == G


def test_simplex_map_past_nine():
    # ids of Delta[10] and Delta[11] are not one digit per vertex
    images = (0, 1, 1, 2, 4, 5, 6, 7, 8, 9, 11)
    f = TH.simplex_map(10, 11, images, bound=3)
    assert M.validate_map(f).ok
    assert f.assignment["9(10)"] == ("9(11)", ())
    assert f.assignment["12"] == ("1", (0,))


def test_simplex_map_rejects_bad_images():
    for images in ([0], [0, 1, 1], [1, 0], [0, 5], [-1, 0]):
        with pytest.raises(ValueError, match="simplex_map"):
            TH.simplex_map(1, 1, images)


def test_presentation_json_rejects_bad_schema():
    data = TH.presentation_to_json(TH.representable(POINT))
    data["schema"] = "theta/0"
    with pytest.raises(ValueError):
        TH.presentation_from_json(data)


def _functor(d):
    return d["arrows"][0]["functor"]


@pytest.mark.parametrize("damage", [
    pytest.param(lambda d: d.pop("cells"), id="no cells"),
    pytest.param(lambda d: d.pop("arrows"), id="no arrows"),
    pytest.param(lambda d: d.update(cells=5), id="cells not a list"),
    pytest.param(lambda d: d["cells"][0].pop("level"), id="no level"),
    pytest.param(lambda d: d["cells"][0].update(shape="[2|"), id="bad shape"),
    pytest.param(lambda d: d["arrows"][0].pop("functor"), id="no functor"),
    pytest.param(lambda d: d["arrows"][0].update(src=7), id="src out of range"),
    pytest.param(lambda d: d["arrows"][0].update(dst="0"), id="dst a string"),
    pytest.param(lambda d: _functor(d).update(target="[0]"), id="wrong target"),
    pytest.param(lambda d: _functor(d)["on_objects"].update({"1": "0"}),
                 id="not a 2-functor"),
    pytest.param(lambda d: _functor(d)["hom"].update({"0": {"one": {}, "two": {}}}),
                 id="hom key of one object"),
    # these two loaded: dict() took each list of pairs for its dict
    pytest.param(lambda d: _functor(d).update(on_objects=list(_functor(d)["on_objects"].items())),
                 id="on_objects a list"),
    pytest.param(lambda d: [h.update(one=list(h["one"].items()))
                            for h in _functor(d)["hom"].values()], id="hom maps lists"),
])
def test_presentation_json_rejects_malformed_data(damage):
    data = TH.presentation_to_json(TH.vertical_segal(2).source)
    damage(data)
    with pytest.raises(ValueError):
        TH.presentation_from_json(data)


@pytest.mark.parametrize("field, value, message", [
    ("level_map", [0.5, 1], "level map entry"),
    ("level_map", [False, True], "level map entry"),
    ("level_map", [-1, 0], "level map entry"),
    ("src", True, "arrow endpoint"),
    ("dst", True, "arrow endpoint"),
    ("dst", 1.0, "arrow endpoint"),
])
def test_presentation_loader_rejects_non_int_level_maps_and_endpoints(
    field, value, message
):
    # a level map [0.5, 1] or [False, True] and an endpoint True were
    # loaded; evaluate then raised a bare KeyError on the first
    cells = (TH.BoxCell(POINT, 1),) * 2
    F = TH.shape_functor(POINT, POINT, [0])
    W = TH.Theta2Presentation(cells, ((0, 1, F, (0, 1)),))
    assert TH.presentation_from_json(TH.presentation_to_json(W)) == W
    data = TH.presentation_to_json(W)
    arrow = data["arrows"][0]
    arrow[field] = value
    with pytest.raises(ValueError, match=message):
        TH.presentation_from_json(data)
    leg = (arrow["src"], arrow["dst"], F, tuple(arrow["level_map"]))
    with pytest.raises(ValueError, match=message):
        TH.Theta2Presentation(cells, (leg,))


@pytest.mark.parametrize("level", [1.5, True, "a", -1])
def test_box_cell_rejects_bad_levels(level):
    # 1.5 and True were accepted and failed later in apply_L with a bare
    # TypeError; "a" raised a TypeError
    with pytest.raises(ValueError, match="level"):
        TH.BoxCell(CONE, level)
    data = TH.presentation_to_json(TH.representable(CONE))
    data["cells"][0]["level"] = level
    with pytest.raises(ValueError, match="level"):
        TH.presentation_from_json(data)


def test_presentation_loader_rejects_a_stray_functor_table():
    # a table on a pair that is no hom of the source used to load, and the
    # loaded functor's key() then differed from the original's
    data = TH.presentation_to_json(TH.vertical_segal(2).source)
    hom = data["arrows"][0]["functor"]["hom"]
    hom["5|6"] = hom["0|1"]
    with pytest.raises(ValueError, match=r"hom\(5,6\): not a nonempty hom of the source"):
        TH.presentation_from_json(data)


# ---------------------------------------------------------------------------
# search limits


def _searches():
    """name -> (operation named in its errors, call taking a limit) for
    every public search; the nerve twice, on a cache miss and on a hit."""
    C, D = T.ordinal(1), T.ordinal(2)
    cone = T.theta2_object(CONE)
    X = N.rs_nerve(cone, bound=2)

    def nerve_on_a_miss(limit):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(N, "_nerve_cache", {})
            return N.nerve(cone, bound=2, limit=limit)

    return {
        "enumerate_functors": (
            "enumerate_functors", lambda limit: T.enumerate_functors(C, D, limit)),
        "enumerate_two_functors": (
            "enumerate_two_functors",
            lambda limit: T.enumerate_two_functors(T.cell(1), cone, limit)),
        "enumerate_maps": ("enumerate_maps", lambda limit: M.enumerate_maps(X, X, limit)),
        "find_iso": ("find_iso", lambda limit: M.find_iso(X, X, limit)),
        "nerve on a miss": ("nerve", nerve_on_a_miss),
        "nerve on a hit": ("nerve", lambda limit: N.nerve(cone, bound=2, limit=limit)),
        "compatible_boundaries": (
            "compatible_boundaries", lambda limit: N.compatible_boundaries(X, 2, limit)),
        "filler_counts": (
            "compatible_boundaries", lambda limit: N.filler_counts(X, 2, limit)),
        "d_restriction": (
            "enumerate_two_functors", lambda limit: TH.d_restriction(CONE, 1, 1, limit)),
        "apply_R_at": ("enumerate_maps", lambda limit: TH.apply_R_at(X, EDGE, 0, limit)),
    }


@pytest.mark.parametrize("limit", [True, 2.5, "100", None, -1])
def test_searches_reject_a_bad_limit(limit):
    # True ran as 1, 2.5 and -1 were accepted, and "100" and None failed
    # inside the search with a bare TypeError
    for operation, search in _searches().values():
        with pytest.raises(ValueError, match=f"{operation}: limit must be an int >= 0"):
            search(limit)


def test_a_zero_limit_stops_each_search_at_its_first_step():
    searches = _searches()
    # a cache hit runs no search
    cached = N.rs_nerve(T.theta2_object(CONE), bound=2)
    assert searches.pop("nerve on a hit")[1](0) is cached
    for operation, search in searches.values():
        with pytest.raises(M.ResourceLimitError) as e:
            search(0)
        assert e.value.operation == operation
