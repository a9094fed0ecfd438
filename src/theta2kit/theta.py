"""Finitely presented Theta_2-sets, elementary acyclic cofibrations, and
the comparison functor L.

A presentation is a finite colimit diagram of box cells (shape, level),
each denoting the representable of the shape times a standard simplex on
the level.  L replaces every box cell by rs_nerve(shape) x Delta[level]#
and takes the colimit of marked simplicial sets.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from .msset import (
    DEFAULT_BOUND,
    MarkedSSet,
    MSSetMap,
    colimit,
    enumerate_maps,
    product_with_index,
    standard_simplex,
)
from .msset import _check_int, _check_json, _product_assignment, _simplex_key, _UnionFind
from .nerves import _nerve_assignment, rs_nerve_with_index
from .twocat import (
    Fin2Category,
    Theta2Shape,
    TwoFunctor,
    _enc,
    _json_key,
    _mid,
    chain_count,
    enumerate_two_functors,
    theta2_object,
    validate_two_functor,
)


@dataclass(frozen=True)
class BoxCell:
    shape: Theta2Shape
    level: int = 0

    def __post_init__(self):
        _check_int(self.level, 0, "a box cell's level")


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


def _check_endpoint(i, cells):
    """Raise ValueError unless i is an int index into cells."""
    _check_int(i, 0, "an arrow endpoint")
    if i >= len(cells):
        raise ValueError("arrow endpoint out of range")


def _check_leg(src: BoxCell, cells, j, F: TwoFunctor, lam):
    """Raise ValueError unless (F, lam) maps the box cell src to cells[j]:
    j in range, F joins the two shapes, lam a monotone level map of ints."""
    _check_endpoint(j, cells)
    dst = cells[j]
    if not (_fits(F.source, src.shape) and _fits(F.target, dst.shape)):
        raise ValueError(f"2-functor does not join {src.shape} and {dst.shape}")
    if len(lam) != src.level + 1:
        raise ValueError("level map has wrong length")
    for v in lam:
        _check_int(v, 0, "a level map entry")
    if list(lam) != sorted(lam):
        raise ValueError("level map not monotone")
    # monotone, of length at least 1 and >= 0: its last entry bounds its image
    if lam[-1] > dst.level:
        raise ValueError("level map image out of range")


@dataclass(frozen=True)
class Theta2Presentation:
    """A finite colimit diagram of box cells.

    arrows are tuples (src index, dst index, TwoFunctor between the
    shapes, monotone vertex images between the levels).
    """

    cells: tuple
    arrows: tuple = ()

    def __post_init__(self):
        for i, j, F, lam in self.arrows:
            _check_endpoint(i, self.cells)
            _check_leg(self.cells[i], self.cells, j, F, lam)


def representable(shape: Theta2Shape, level: int = 0) -> Theta2Presentation:
    return Theta2Presentation((BoxCell(shape, level),))


@dataclass(frozen=True)
class PresentationMap:
    """A map of presentations: per source cell, a target cell together
    with a shape functor and a level map."""

    source: Theta2Presentation
    target: Theta2Presentation
    cell_map: tuple  # per source cell: (target index, TwoFunctor, level images)

    def __post_init__(self):
        if len(self.cell_map) != len(self.source.cells):
            raise ValueError("cell map needs one entry per source cell")
        for cell, (j, F, lam) in zip(self.source.cells, self.cell_map):
            _check_leg(cell, self.target.cells, j, F, lam)


# ---------------------------------------------------------------------------
# shape functors between theta objects


def shape_functor(src: Theta2Shape, dst: Theta2Shape, obj_images,
                  seg_images=None) -> TwoFunctor:
    """2-functor between pasting shapes from object images and, per
    source segment, images of the segment hom objects in the product
    poset of the target."""
    D, E = theta2_object(src), theta2_object(dst)
    on_objects = {str(i): str(obj_images[i]) for i in range(src.m + 1)}
    tables = {}
    for t in range(1, src.m + 1):
        imgs = seg_images[t - 1]
        width = obj_images[t] - obj_images[t - 1]
        obj_map, mor_map = {}, {}
        for a in range(src.ks[t - 1] + 1):
            img = tuple(imgs[a])
            if len(img) != width:
                raise ValueError(f"segment {t}: image tuple has wrong length")
            obj_map[_enc((a,))] = _enc(img)
            for b in range(a, src.ks[t - 1] + 1):
                if any(p > q for p, q in zip(imgs[a], imgs[b])):
                    raise ValueError(f"segment {t}: images not monotone")
                mor_map[_mid((a,), (b,))] = _mid(tuple(imgs[a]), tuple(imgs[b]))
        tables[(str(t - 1), str(t))] = (obj_map, mor_map)
    return TwoFunctor(D, E, on_objects, tables)


def _collapse_functor(src: Theta2Shape) -> TwoFunctor:
    """The unique functor to the point shape."""
    point = Theta2Shape(0, ())
    return shape_functor(
        src, point, [0] * (src.m + 1), [[()] * (k + 1) for k in src.ks]
    )


# ---------------------------------------------------------------------------
# elementary acyclic cofibrations


def _identity_presentation_map(shape: Theta2Shape) -> PresentationMap:
    W = representable(shape)
    F = shape_functor(
        shape,
        shape,
        list(range(shape.m + 1)),
        [[(a,) for a in range(k + 1)] for k in shape.ks],
    )
    return PresentationMap(W, W, ((0, F, (0,)),))


def vertical_segal(k: int) -> PresentationMap:
    """Spine of k vertically stacked 2-cells into Theta2[1|k]."""
    if k < 0:
        raise ValueError("k must be nonnegative")
    if k == 0:
        return _identity_presentation_map(Theta2Shape(1, (0,)))
    one_one = Theta2Shape(1, (1,))
    one_zero = Theta2Shape(1, (0,))
    target_shape = Theta2Shape(1, (k,))
    # cells: k copies of [1|1] glued along k-1 copies of [1|0]
    cells = [BoxCell(one_one) for _ in range(k)]
    cells += [BoxCell(one_zero) for _ in range(k - 1)]
    arrows = []
    for t in range(k - 1):
        glue = k + t
        # the shared 1-cell is the top of copy t and the bottom of copy t+1
        arrows.append((glue, t, shape_functor(one_zero, one_one, [0, 1], [[(1,)]]), (0,)))
        arrows.append((glue, t + 1, shape_functor(one_zero, one_one, [0, 1], [[(0,)]]), (0,)))
    source = Theta2Presentation(tuple(cells), tuple(arrows))
    target = representable(target_shape)
    cell_map = []
    for t in range(k):
        cell_map.append(
            (0, shape_functor(one_one, target_shape, [0, 1], [[(t,), (t + 1,)]]), (0,))
        )
    for t in range(k - 1):
        cell_map.append(
            (0, shape_functor(one_zero, target_shape, [0, 1], [[(t + 1,)]]), (0,))
        )
    return PresentationMap(source, target, tuple(cell_map))


def horizontal_segal(m: int, ks) -> PresentationMap:
    """Spine of m horizontally composable cells into Theta2[m|ks]."""
    ks = tuple(ks)
    if m < 0 or len(ks) != m:
        raise ValueError("ks must list one entry per segment")
    point = Theta2Shape(0, ())
    if m == 0:
        return _identity_presentation_map(point)
    target_shape = Theta2Shape(m, ks)
    cells = [BoxCell(Theta2Shape(1, (ks[t],))) for t in range(m)]
    cells += [BoxCell(point) for _ in range(m - 1)]
    arrows = []
    for t in range(m - 1):
        glue = m + t
        arrows.append((glue, t, shape_functor(point, Theta2Shape(1, (ks[t],)), [1]), (0,)))
        arrows.append((glue, t + 1, shape_functor(point, Theta2Shape(1, (ks[t + 1],)), [0]), (0,)))
    source = Theta2Presentation(tuple(cells), tuple(arrows))
    target = representable(target_shape)
    cell_map = []
    for t in range(m):
        seg = [[(a,) for a in range(ks[t] + 1)]]
        cell_map.append(
            (0, shape_functor(Theta2Shape(1, (ks[t],)), target_shape, [t, t + 1], seg), (0,))
        )
    for t in range(m - 1):
        cell_map.append((0, shape_functor(point, target_shape, [t + 1]), (0,)))
    return PresentationMap(source, target, tuple(cell_map))


def horizontal_completeness() -> PresentationMap:
    """The inclusion of a point into the 02/13 quotient of Theta2[3|0,0,0]."""
    point = Theta2Shape(0, ())
    edge = Theta2Shape(1, (0,))
    three = Theta2Shape(3, (0, 0, 0))
    leg02 = shape_functor(edge, three, [0, 2], [[(0, 0)]])
    leg13 = shape_functor(edge, three, [1, 3], [[(0, 0)]])
    cells = (
        BoxCell(point),
        BoxCell(three),
        BoxCell(point),
        BoxCell(edge),
        BoxCell(edge),
    )
    arrows = (
        (3, 0, _collapse_functor(edge), (0,)),
        (3, 1, leg02, (0,)),
        (4, 1, leg13, (0,)),
        (4, 2, _collapse_functor(edge), (0,)),
    )
    target = Theta2Presentation(cells, arrows)
    source = representable(point)
    inclusion = shape_functor(point, point, [0])
    return PresentationMap(source, target, ((0, inclusion, (0,)),))


def vertical_completeness() -> PresentationMap:
    """Suspension of the horizontal completeness map: Theta2[1|0] into
    the 02/13 quotient of Theta2[1|3]."""
    edge = Theta2Shape(1, (0,))
    cone = Theta2Shape(1, (1,))
    three = Theta2Shape(1, (3,))
    leg02 = shape_functor(cone, three, [0, 1], [[(0,), (2,)]])
    leg13 = shape_functor(cone, three, [0, 1], [[(1,), (3,)]])
    collapse = shape_functor(cone, edge, [0, 1], [[(0,), (0,)]])
    cells = (
        BoxCell(edge),
        BoxCell(three),
        BoxCell(edge),
        BoxCell(cone),
        BoxCell(cone),
    )
    arrows = (
        (3, 0, collapse, (0,)),
        (3, 1, leg02, (0,)),
        (4, 1, leg13, (0,)),
        (4, 2, collapse, (0,)),
    )
    target = Theta2Presentation(cells, arrows)
    source = representable(edge)
    inclusion = shape_functor(edge, edge, [0, 1], [[(0,)]])
    return PresentationMap(source, target, ((0, inclusion, (0,)),))


def elementary_cofibration(kind: str, *params) -> PresentationMap:
    if kind == "vertical_segal":
        return vertical_segal(*params)
    if kind == "horizontal_segal":
        return horizontal_segal(*params)
    if kind == "horizontal_completeness":
        return horizontal_completeness()
    if kind == "vertical_completeness":
        return vertical_completeness()
    raise ValueError(f"unknown kind {kind!r}")


# ---------------------------------------------------------------------------
# evaluation (the underlying Theta_2-set, pointwise)


def _monotone_maps(l_src, l_dst):
    return sorted(
        itertools.combinations_with_replacement(range(l_dst + 1), l_src + 1)
    )


def _classes(W: Theta2Presentation, D: Fin2Category, ell, limit):
    """The elements of W at (D, [ell]) and their classes.

    Elements are triples (cell index, functor index, level map),
    quotiented along the diagram arrows.  Returns each cell's 2-functors
    from D, their index by key(), and the map from each element to the
    least element of its class.
    """
    _check_int(ell, 0, "ell")
    per_cell = [enumerate_two_functors(D, theta2_object(cell.shape), limit)
                for cell in W.cells]
    keyed = [{F.key(): t for t, F in enumerate(fs)} for fs in per_cell]
    uf = _UnionFind()
    for i, cell in enumerate(W.cells):
        for t in range(len(per_cell[i])):
            for mu in _monotone_maps(ell, cell.level):
                uf.add((i, t, mu))
    for i, j, G, lam in W.arrows:
        for t, F in enumerate(per_cell[i]):
            img = keyed[j][F.compose(G).key()]
            for mu in _monotone_maps(ell, W.cells[i].level):
                uf.union((i, t, mu), (j, img, tuple(lam[v] for v in mu)))
    classes = {}
    for elt in uf.parent:
        classes.setdefault(uf.find(elt), []).append(elt)
    canon = {}
    for elts in classes.values():
        rep = min(elts)
        for e in elts:
            canon[e] = rep
    return per_cell, keyed, canon


def evaluate(W: Theta2Presentation, theta: Theta2Shape, ell: int = 0,
             limit=5_000_000):
    """The value of the presented Theta_2-set at (theta, [ell]): the least
    element of each class, sorted; see `_classes`."""
    _, _, canon = _classes(W, theta2_object(theta), ell, limit)
    return sorted(set(canon.values()))


def evaluate_map(P: PresentationMap, theta: Theta2Shape, ell: int = 0,
                 limit=5_000_000):
    """The induced function on evaluations, as a dict on class reps."""
    D = theta2_object(theta)
    src_fs, _, src_canon = _classes(P.source, D, ell, limit)
    _, tgt_keyed, tgt_canon = _classes(P.target, D, ell, limit)
    out = {}
    for i, t, mu in sorted(set(src_canon.values())):
        j, G, lam = P.cell_map[i]
        img = tgt_keyed[j].get(src_fs[i][t].compose(G).key())
        image = tgt_canon.get((j, img, tuple(lam[v] for v in mu)))
        if image is None:
            raise RuntimeError(
                f"evaluate_map: the image of {(i, t, mu)} is outside the target")
        out[(i, t, mu)] = image
    return out


# ---------------------------------------------------------------------------
# the comparison functor L


def _simplex_ref(vertex_seq):
    """Reference of the simplex with the given monotone vertex sequence
    inside a standard simplex."""
    gid = _simplex_key(sorted(set(vertex_seq)))
    word = tuple(
        p for p in range(len(vertex_seq) - 2, -1, -1)
        if vertex_seq[p] == vertex_seq[p + 1]
    )
    return (gid, word)


def simplex_map(l_src, l_dst, images, variant="sharp", bound=None) -> MSSetMap:
    """Map of standard simplices induced by monotone vertex images."""
    images = tuple(images)
    if len(images) != l_src + 1:
        raise ValueError(
            f"simplex_map: expected {l_src + 1} vertex images, got {len(images)}"
        )
    if any(a > b for a, b in zip(images, images[1:])):
        raise ValueError(f"simplex_map: vertex images {images} not monotone")
    if any(not 0 <= v <= l_dst for v in images):
        raise ValueError(f"simplex_map: vertex images {images} outside 0..{l_dst}")
    X = standard_simplex(l_src, variant, bound=bound)
    Y = standard_simplex(l_dst, variant, bound=bound)
    assignment = {}
    for n in sorted(X.gens):
        ids = set(X.gens_at(n))
        for verts in itertools.combinations(range(l_src + 1), n + 1):
            g = _simplex_key(verts)
            if g in ids:
                assignment[g] = _simplex_ref(tuple(images[v] for v in verts))
    return MSSetMap(X, Y, assignment)


@dataclass(frozen=True)
class _Block:
    """The L block of a box cell: its shape's nerve with the raw index,
    and the product with its level's sharp simplex with the pairs."""

    nerve: MarkedSSet
    nerve_index: dict
    product: MarkedSSet
    product_pairs: dict


def _block(blocks: dict, cell: BoxCell, bound) -> _Block:
    """cell's block, built on first use and kept in blocks, a dict that
    lives for one call."""
    if cell not in blocks:
        X, xindex = rs_nerve_with_index(theta2_object(cell.shape), bound)
        S = standard_simplex(cell.level, "sharp", bound=bound)
        blocks[cell] = _Block(X, xindex, *product_with_index(X, S))
    return blocks[cell]


def _block_map(blocks: dict, G: TwoFunctor, lam, src: BoxCell, dst: BoxCell,
               bound) -> MSSetMap:
    """The map of blocks induced by the shape functor G and the level
    map lam, read off the nerve indices and the source's generator pairs."""
    a, b = _block(blocks, src, bound), _block(blocks, dst, bound)
    nf = MSSetMap(a.nerve, b.nerve, _nerve_assignment(G, a.nerve_index, b.nerve_index))
    sf = simplex_map(src.level, dst.level, lam, "sharp", bound)
    return MSSetMap(a.product, b.product, _product_assignment(a.product_pairs, nf, sf))


def _L_diagram(W: Theta2Presentation, blocks: dict, bound):
    """The nodes and arrows whose colimit is L(W)."""
    nodes = [_block(blocks, cell, bound).product for cell in W.cells]
    arrows = [
        (i, j, _block_map(blocks, G, lam, W.cells[i], W.cells[j], bound))
        for i, j, G, lam in W.arrows
    ]
    return nodes, arrows


def apply_L(W: Theta2Presentation, bound=DEFAULT_BOUND):
    """L of a presentation: colimit of nerve-times-simplex blocks."""
    nodes, arrows = _L_diagram(W, {}, bound)
    return colimit(nodes, arrows, bound=bound)[0]


def apply_L_map(P: PresentationMap, bound=DEFAULT_BOUND) -> MSSetMap:
    blocks = {}
    src_diagram = _L_diagram(P.source, blocks, bound)
    tgt_diagram = _L_diagram(P.target, blocks, bound)
    node_maps = [
        (j, _block_map(blocks, G, lam, cell, P.target.cells[j], bound))
        for cell, (j, G, lam) in zip(P.source.cells, P.cell_map)
    ]
    # every index has been read: free them before the colimits
    del blocks
    src, src_legs = colimit(*src_diagram, bound=bound)
    tgt, tgt_legs = colimit(*tgt_diagram, bound=bound)
    assignment = {}
    for i, leg in enumerate(src_legs):
        j, f = node_maps[i]
        for g, ref in leg.assignment.items():
            if ref[1]:
                continue
            assignment.setdefault(ref[0], tgt_legs[j].apply(f.assignment[g]))
    missing = [
        g for n in src.gens for g in src.gens_at(n) if g not in assignment
    ]
    if missing:
        raise RuntimeError(f"colimit generators without preimage: {missing}")
    return MSSetMap(src, tgt, assignment)


def apply_R_at(X: MarkedSSet, theta: Theta2Shape, ell: int = 0,
               limit=2_000_000):
    """Pointwise right adjoint: maps from the L-image of a box cell."""
    _check_int(limit, 0, "enumerate_maps: limit")
    block = _block({}, BoxCell(theta, ell), X.bound).product
    return enumerate_maps(block, X, limit)


# ---------------------------------------------------------------------------
# hom restriction along d: (i, j) -> [i|j,...,j]


def d_restriction(theta: Theta2Shape, i: int, j: int, limit=5_000_000):
    """Hom from [i|j,...,j] by enumeration and by the fiber-product
    count over chains of objects; returns (functors, formula count)."""
    for name, value in (("i", i), ("j", j)):
        _check_int(value, 0, f"d_restriction: {name}")
    shape = Theta2Shape(i, (j,) * i)
    E = theta2_object(theta)
    fs = enumerate_two_functors(theta2_object(shape), E, limit)
    homs = {}
    for x in E.objects:
        for y in E.objects:
            H = E.hom_at(x, y)
            homs[(x, y)] = chain_count(H, j) if H is not None else 0
    total = 0
    for chain in itertools.product(sorted(E.objects), repeat=i + 1):
        term = 1
        for t in range(i):
            term *= homs[(chain[t], chain[t + 1])]
        total += term
    return fs, total


# ---------------------------------------------------------------------------
# JSON (schema theta/1)


def _functor_to_json(F: TwoFunctor, src_shape, dst_shape):
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


def parse_shape(text: str) -> Theta2Shape:
    body = text.strip()
    if not (body.startswith("[") and body.endswith("]")):
        raise ValueError(f"bad shape {text!r}")
    body = body[1:-1]
    if "|" in body:
        m_str, ks_str = body.split("|", 1)
        m = int(m_str)
        ks = tuple(int(t) for t in ks_str.split(",")) if ks_str.strip() else ()
    else:
        m, ks = int(body), ()
        if m != 0:
            # plain "[k]" is the 1-category [k], i.e. the shape [k|0,...,0]
            ks = (0,) * m
    return Theta2Shape(m, ks)


def _functor_from_json(data, src_shape, dst_shape) -> TwoFunctor:
    if (parse_shape(data["source"]), parse_shape(data["target"])) != (
        src_shape, dst_shape
    ):
        raise ValueError(
            f"functor {data['source']} -> {data['target']} does not join "
            f"{src_shape} and {dst_shape}"
        )
    tables = {
        _json_key(k, 2): (dict(v["one"]), dict(v["two"])) for k, v in data["hom"].items()
    }
    D, E = theta2_object(src_shape), theta2_object(dst_shape)
    F = TwoFunctor(D, E, dict(data["on_objects"]), tables)
    report = validate_two_functor(F)
    if not report.ok:
        raise ValueError(f"not a 2-functor: {report.violations[0]}")
    return F


def presentation_to_json(W: Theta2Presentation) -> dict:
    return {
        "schema": "theta/1",
        "cells": [
            {"shape": str(c.shape), "level": c.level} for c in W.cells
        ],
        "arrows": [
            {
                "src": i,
                "dst": j,
                "functor": _functor_to_json(
                    G, W.cells[i].shape, W.cells[j].shape
                ),
                "level_map": list(lam),
            }
            for i, j, G, lam in W.arrows
        ],
    }


def presentation_from_json(data: dict) -> Theta2Presentation:
    """Load schema theta/1; raises ValueError on malformed data."""
    _check_json(data, "theta/1", ("cells", "arrows"))
    try:
        cells = tuple(
            BoxCell(parse_shape(c["shape"]), c["level"]) for c in data["cells"]
        )
        arrows = []
        for a in data["arrows"]:
            i, j = a["src"], a["dst"]
            _check_endpoint(i, cells)
            _check_endpoint(j, cells)
            F = _functor_from_json(a["functor"], cells[i].shape, cells[j].shape)
            arrows.append((i, j, F, tuple(a["level_map"])))
        return Theta2Presentation(cells, tuple(arrows))
    except (AttributeError, KeyError, TypeError, ValueError) as e:
        raise ValueError(f"theta/1: malformed data: {e!r}") from e
