"""Finitely presented Theta_2-sets, elementary acyclic cofibrations, and
the comparison functor L.

A presentation is a finite colimit diagram of box cells (shape, level),
each denoting the representable of the shape times a standard simplex on
the level.  L replaces every box cell by rs_nerve(shape) x Delta[level]#
and takes the colimit of marked simplicial sets.  A cell at level 0 is
its nerve X itself, never X x Delta[0]#: the colimit spells each of its
generators as its pair with the point, so each is renamed once.

The vertical Segal and completeness maps are the suspensions V[1] of the
Segal and completeness maps of Delta, as in Rezk's cartesian
presentation: `_suspend` turns each horizontal map on cells [m|0,...,0]
into the one on cells [1|m].

Shape functors and shape names are twocat's (`shape_functor`,
`parse_shape`) and simplex maps msset's (`simplex_map`); all three
resolve here too.
"""

from __future__ import annotations

import itertools
import math
from functools import cached_property, partial

from .msset import (
    DEFAULT_BOUND, DEFAULT_LIMIT, DEFAULT_MAP_LIMIT, MarkedSSet, MSSetMap, enumerate_maps,
    product_with_index, simplex_map, standard_simplex)
from .msset import (
    _check_int, _check_json, _colimit, _Guard, _load, _param_names,
    _point_pair_affixes, _product_assignment, _Record, _UnionFind)
from .nerves import _nerve_assignment, rs_nerve
from .twocat import (
    Fin2Category, Theta2Shape, TwoFunctor, _fits, _functor_from_json, _functor_to_json,
    _shape_functor, chain_count, enumerate_two_functors, parse_shape, shape_functor,
    theta2_object)


class BoxCell(_Record):
    """The box cell of a shape at a level.  Immutable; equal and hashed
    by (shape, level)."""

    def __init__(self, shape: Theta2Shape, level: int = 0):
        _check_int(level, 0, "a box cell's level")
        self.__dict__.update(shape=shape, level=level)


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


class Theta2Presentation(_Record):
    """A finite colimit diagram of box cells.

    arrows are tuples (src index, dst index, TwoFunctor between the
    shapes, monotone vertex images between the levels).  Immutable;
    equal and hashed by (cells, arrows).
    """

    def __init__(self, cells: tuple, arrows: tuple = ()):
        for i, j, F, lam in arrows:
            _check_endpoint(i, cells)
            _check_leg(cells[i], cells, j, F, lam)
        self.__dict__.update(cells=cells, arrows=arrows)


def representable(shape: Theta2Shape, level: int = 0) -> Theta2Presentation:
    return Theta2Presentation((BoxCell(shape, level),))


class PresentationMap(_Record):
    """A map of presentations: per source cell, a target cell together
    with a shape functor and a level map, (target index, TwoFunctor,
    level images) in cell_map.  Immutable; equal and hashed by (source,
    target, cell_map)."""

    def __init__(self, source: Theta2Presentation, target: Theta2Presentation,
                 cell_map: tuple):
        if len(cell_map) != len(source.cells):
            raise ValueError("cell map needs one entry per source cell")
        for cell, (j, F, lam) in zip(source.cells, cell_map):
            _check_leg(cell, target.cells, j, F, lam)
        self.__dict__.update(source=source, target=target, cell_map=cell_map)


# ---------------------------------------------------------------------------
# elementary acyclic cofibrations


def _suspend(P: PresentationMap) -> PresentationMap:
    """V[1] of P, whose cells all have shapes [m|0,...,0]: each cell
    [m|0,...,0] becomes [1|m] at its level, and each 2-functor, fixed by
    its object images i_0, ..., i_m, the one that sends the 2-cell
    objects 0, ..., m of [1|m] to i_0, ..., i_m.  Arrows, cell maps and
    level maps keep their order.  Each shape [1|m] is built once."""
    shapes = {}

    def functor(F, src, dst):
        where = {x: i for i, x in enumerate(F.target.objects)}
        images = [(where[F.obj(x)],) for x in F.source.objects]
        return _shape_functor(shapes, src.shape, dst.shape, [0, 1], [images])

    def presentation(W):
        if any(any(c.shape.ks) for c in W.cells):
            raise ValueError("only cells of shape [m|0,...,0] can be suspended")
        cells = tuple(BoxCell(Theta2Shape(1, (c.shape.m,)), c.level) for c in W.cells)
        return Theta2Presentation(cells, tuple(
            (i, j, functor(F, cells[i], cells[j]), lam) for i, j, F, lam in W.arrows))

    source, target = presentation(P.source), presentation(P.target)
    cell_map = tuple(
        (j, functor(F, cell, target.cells[j]), lam)
        for cell, (j, F, lam) in zip(source.cells, P.cell_map))
    return PresentationMap(source, target, cell_map)


def vertical_segal(k: int) -> PresentationMap:
    """Spine of k vertically stacked 2-cells into Theta2[1|k]: V[1] of
    the spine of [k]."""
    if k < 0:
        raise ValueError("k must be nonnegative")
    return _suspend(horizontal_segal(k, (0,) * k))


def horizontal_segal(m: int, ks) -> PresentationMap:
    """Spine of m horizontally composable cells into Theta2[m|ks]; each
    shape is built once."""
    ks = tuple(ks)
    if m < 0 or len(ks) != m:
        raise ValueError("ks must list one entry per segment")
    functor = partial(_shape_functor, {})
    point = Theta2Shape(0, ())
    if m == 0:
        W = representable(point)
        return PresentationMap(W, W, ((0, functor(point, point, [0]), (0,)),))
    target_shape = Theta2Shape(m, ks)
    cells = [BoxCell(Theta2Shape(1, (ks[t],))) for t in range(m)]
    cells += [BoxCell(point) for _ in range(m - 1)]
    arrows = []
    for t in range(m - 1):
        glue = m + t
        arrows.append((glue, t, functor(point, Theta2Shape(1, (ks[t],)), [1]), (0,)))
        arrows.append((glue, t + 1, functor(point, Theta2Shape(1, (ks[t + 1],)), [0]), (0,)))
    source = Theta2Presentation(tuple(cells), tuple(arrows))
    target = representable(target_shape)
    cell_map = []
    for t in range(m):
        seg = [[(a,) for a in range(ks[t] + 1)]]
        cell_map.append(
            (0, functor(Theta2Shape(1, (ks[t],)), target_shape, [t, t + 1], seg), (0,))
        )
    for t in range(m - 1):
        cell_map.append((0, functor(point, target_shape, [t + 1]), (0,)))
    return PresentationMap(source, target, tuple(cell_map))


def horizontal_completeness() -> PresentationMap:
    """The inclusion of a point into the 02/13 quotient of Theta2[3|0,0,0];
    each shape is built once."""
    functor = partial(_shape_functor, {})
    point = Theta2Shape(0, ())
    edge = Theta2Shape(1, (0,))
    three = Theta2Shape(3, (0, 0, 0))
    leg02 = functor(edge, three, [0, 2], [[(0, 0)]])
    leg13 = functor(edge, three, [1, 3], [[(0, 0)]])
    collapse = functor(edge, point, [0, 0], [[()]])
    cells = (
        BoxCell(point),
        BoxCell(three),
        BoxCell(point),
        BoxCell(edge),
        BoxCell(edge),
    )
    arrows = (
        (3, 0, collapse, (0,)),
        (3, 1, leg02, (0,)),
        (4, 1, leg13, (0,)),
        (4, 2, collapse, (0,)),
    )
    target = Theta2Presentation(cells, arrows)
    source = representable(point)
    inclusion = functor(point, point, [0])
    return PresentationMap(source, target, ((0, inclusion, (0,)),))


def vertical_completeness() -> PresentationMap:
    """Theta2[1|0] into the 02/13 quotient of Theta2[1|3]: V[1] of the
    horizontal completeness map."""
    return _suspend(horizontal_completeness())


def cofibration_builder(kind: str):
    """The constructor of the elementary acyclic cofibration kind, whose
    parameters `elementary_cofibration` takes; ValueError for an unknown kind."""
    builders = {
        "vertical_segal": vertical_segal,
        "horizontal_segal": horizontal_segal,
        "horizontal_completeness": horizontal_completeness,
        "vertical_completeness": vertical_completeness,
    }
    if kind not in builders:
        raise ValueError(f"unknown kind {kind!r}")
    return builders[kind]


def cofibration_params(kind: str) -> tuple:
    """The parameter names of kind's constructor (`cofibration_builder`)."""
    return _param_names(cofibration_builder(kind))


def elementary_cofibration(kind: str, *params) -> PresentationMap:
    """The elementary acyclic cofibration kind built from params, which
    must be the parameters its constructor takes; ValueError otherwise."""
    names = cofibration_params(kind)
    if len(params) != len(names):
        raise ValueError(
            f"{kind} takes the parameters ({', '.join(names)}), not {params!r}")
    return cofibration_builder(kind)(*params)


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
             limit=DEFAULT_LIMIT):
    """The value of the presented Theta_2-set at (theta, [ell]): the least
    element of each class, sorted; see `_classes`."""
    _, _, canon = _classes(W, theta2_object(theta), ell, limit)
    return sorted(set(canon.values()))


def evaluate_map(P: PresentationMap, theta: Theta2Shape, ell: int = 0,
                 limit=DEFAULT_LIMIT):
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


class _Block(_Record):
    """The L block of a box cell: its shape's rs nerve X and its level.
    Its node in L's diagram is X at level 0, else the product X x
    Delta[level]#, built with its pairs on first read, as is the renamed
    product of a level-0 block, which only `apply_R_at` reads.  Immutable;
    equal by its two fields, and `hash` raises TypeError."""

    def __init__(self, nerve: MarkedSSet, level: int):
        self.__dict__.update(nerve=nerve, level=level)

    @cached_property
    def product(self):
        """(X x Delta[level]#, the dict from its generator ids to their pairs)."""
        S = standard_simplex(self.level, "sharp", bound=self.nerve.bound)
        return product_with_index(self.nerve, S)

    @property
    def node(self) -> MarkedSSet:
        return self.product[0] if self.level else self.nerve


# The most simplices one block may list.  The largest block of the tests
# and the benchmark lists about 8 400; blocks just under the limit took
# 12-15 s and 450-680 MB peak RSS each (CHANGES.md).
_BLOCK_LIMIT = 500_000


def _block_sizes(X: MarkedSSet, level, bound):
    """Per dimension n <= bound, the simplices that the block X x
    Delta[level] sharp lists as it is built: every n-simplex of
    Delta[level], comb(level + n + 1, n + 1) with the degenerate ones, and
    the product's n-generators.  Those are the pairs (s_I x, s_J y) of a
    k-generator x, an m-generator y and disjoint I, J (Eilenberg-Zilber),
    comb(n, k) * comb(k, n - m) pairs of words for each x and y."""
    gens = [len(X.gens_at(k)) for k in range(bound + 1)]
    return [
        math.comb(level + n + 1, n + 1) + sum(
            g * math.comb(n, k) * math.comb(k, n - m) * math.comb(level + 1, m + 1)
            for k, g in enumerate(gens[:n + 1]) for m in range(n + 1))
        for n in range(bound + 1)
    ]


def _block(blocks: dict, cell: BoxCell, bound) -> _Block:
    """cell's block, built on first use and kept in blocks, a dict that
    lives for one call.  Its nerve is the rs nerve, from the nerve cache
    when it is there.  Its size, that of its product, is counted first:
    over _BLOCK_LIMIT simplices it raises ResourceLimitError naming
    apply_L."""
    if cell not in blocks:
        X = rs_nerve(theta2_object(cell.shape), bound)
        guard = _Guard(_BLOCK_LIMIT, "apply_L")
        for n, size in enumerate(_block_sizes(X, cell.level, bound)):
            guard.dimension = n
            guard.step(size)
        blocks[cell] = _Block(X, cell.level)
    return blocks[cell]


def _block_map(blocks: dict, G: TwoFunctor, lam, src: BoxCell, dst: BoxCell,
               bound) -> MSSetMap:
    """The map of block nodes induced by the shape functor G and the level
    map lam, by Eilenberg-Zilber.  nf is G on the generator raw simplices
    that the source nerve keeps (`nerves._nerve_assignment`): the map of
    level-0 blocks.  Into level 0 a pair (s_I x, s_J pt) goes to
    nf(s_I x); into a level >= 1 a pair, or a level-0 generator g paired
    with the point's simplex in g's dimension, goes through nf x Delta[lam]#."""
    a, b = _block(blocks, src, bound), _block(blocks, dst, bound)
    nf = MSSetMap(a.nerve, b.nerve, _nerve_assignment(G, a.nerve, b.nerve))
    if not (src.level or dst.level):
        return nf
    sf = simplex_map(src.level, dst.level, lam, "sharp", bound)
    pairs = a.product[1] if src.level else {  # g with the point's one n-simplex
        g: ((g, ()), pt) for n in range(bound + 1)
        for pt in sf.source.all_simplices(n) for g in a.nerve.gens_at(n)}
    if dst.level:
        return MSSetMap(a.node, b.node, _product_assignment(pairs, nf, sf))
    return MSSetMap(a.node, b.node, {gid: nf.apply(rx) for gid, (rx, _) in pairs.items()})


def _L_diagram(W: Theta2Presentation, blocks: dict, bound):
    """The nodes, arrows and spellings whose `msset._colimit` is L(W): a
    level-0 block's node is its nerve X, whose generators the colimit
    spells as their pairs with the point, the ids of X x Delta[0]#."""
    point = partial(_point_pair_affixes, standard_simplex(0, bound=0).vertices()[0])
    nodes = [_block(blocks, cell, bound).node for cell in W.cells]
    arrows = [
        (i, j, _block_map(blocks, G, lam, W.cells[i], W.cells[j], bound))
        for i, j, G, lam in W.arrows
    ]
    return nodes, arrows, [None if cell.level else point for cell in W.cells]


def apply_L(W: Theta2Presentation, bound=DEFAULT_BOUND):
    """L of a presentation: colimit of nerve-times-simplex blocks."""
    return _colimit(*_L_diagram(W, {}, bound), bound)[0]


def apply_L_map(P: PresentationMap, bound=DEFAULT_BOUND) -> MSSetMap:
    blocks = {}
    src_diagram = _L_diagram(P.source, blocks, bound)
    tgt_diagram = _L_diagram(P.target, blocks, bound)
    node_maps = [
        (j, _block_map(blocks, G, lam, cell, P.target.cells[j], bound))
        for cell, (j, G, lam) in zip(P.source.cells, P.cell_map)
    ]
    # every block map has been made: free the blocks' products
    del blocks
    src, src_legs = _colimit(*src_diagram, bound)
    tgt, tgt_legs = _colimit(*tgt_diagram, bound)
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
               limit=DEFAULT_MAP_LIMIT):
    """Pointwise right adjoint: maps from the L-image of a box cell."""
    _check_int(limit, 0, "enumerate_maps: limit")
    block = _block({}, BoxCell(theta, ell), X.bound).product[0]
    return enumerate_maps(block, X, limit)


# ---------------------------------------------------------------------------
# hom restriction along d: (i, j) -> [i|j,...,j]


def d_restriction(theta: Theta2Shape, i: int, j: int, limit=DEFAULT_LIMIT):
    """Hom from [i|j,...,j] by enumeration and by the fiber-product
    count over chains of objects; returns (functors, formula count).  The
    functors are `enumerate_two_functors`' sequence: its len is a sum over
    object maps of products of hom-functor counts, each counted by the
    candidates that placed objects leave the others, without listing the
    hom functors' object images, so taking it builds no 2-functor, no hom
    functor's tables and no compose table of theta's homs.  E is theta's
    own 2-category, built on theta's first `theta2_object` call and kept
    on it, and E and each of its homs keep what the searches and
    `chain_count` read of them as targets: their sorted objects, the
    order masks of their nonempty homs and, per hom, its chain count per
    j.  So a loop over (i, j) with one theta builds and derives those
    once; the source [i|j,...,j] is a new shape, built on each call, and
    an equal theta made separately shares nothing."""
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


def _presentation(data) -> Theta2Presentation:
    cells = tuple(BoxCell(parse_shape(c["shape"]), c["level"]) for c in data["cells"])
    shapes = {}  # the arrows' pasting 2-categories, one per shape
    return Theta2Presentation(cells, tuple(
        (a["src"], a["dst"], _functor_from_json(shapes, a["functor"]), tuple(a["level_map"]))
        for a in data["arrows"]))


def presentation_from_json(data: dict) -> Theta2Presentation:
    """Load schema theta/1; raises ValueError on malformed data, a functor
    that is not a 2-functor or does not join its arrow's cells included."""
    _check_json(data, "theta/1", ("cells", "arrows"))
    return _load("theta/1", _presentation, data)
