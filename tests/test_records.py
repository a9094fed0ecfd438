"""The contract of the library's record classes: construction by position
and by keyword, defaults, equality and hashing, read-only fields, repr,
and the properties each keeps on its instance.

Each record is built twice from one set of field values.  `RECORDS`
says how the two compare: "value" records are equal by class and field
values and hash by the field tuple, which raises TypeError where a field
does not hash; "own" records are compared by their class's `__eq__` and
do not hash; "identity" records are equal only to themselves.
"""

import pytest

from theta2kit import msset as M
from theta2kit import theta as TH
from theta2kit import twocat as T


def _category():
    return (("x",), {"1": ("x", "x")}, {"x": "1"}, {("1", "1"): "1"})


def _marked():
    return (1, {0: ("a", "b"), 1: ("f",)}, {"f": (("b", ()), ("a", ()))}, frozenset({"f"}))


def _functor():
    C = T.FinCategory(*_category())
    return (C, C, {"x": "x"}, {"1": "1"})


def _two_category():
    D = T.cell(2)
    return (D.objects, D.hom, D.hcompose1, D.hcompose2, D.unit1)


def _presentation_map():
    P = TH.horizontal_segal(0, ())
    return (P.source, P.target, P.cell_map)


def _block():
    return (M.standard_simplex(1, "sharp", bound=2), 1)


# class, field names in constructor order, field values, equality, hashes
RECORDS = {
    "MarkedSSet": (M.MarkedSSet, ("bound", "gens", "faces", "marked"), _marked,
                   "value", False),
    "Report": (M.Report, ("subject", "violations"), lambda: ("map", ["f: no assignment"]),
               "value", False),
    "MSSetMap": (M.MSSetMap, ("source", "target", "assignment"),
                 lambda: (M.MarkedSSet(*_marked()), M.MarkedSSet(*_marked()),
                          {"a": ("a", ()), "b": ("b", ()), "f": ("f", ())}), "own", False),
    "FinCategory": (T.FinCategory, ("objects", "morphisms", "identity", "compose"),
                    _category, "own", False),
    "Functor": (T.Functor, ("source", "target", "obj_map", "mor_map"), _functor,
                "own", False),
    "Theta2Shape": (T.Theta2Shape, ("m", "ks"), lambda: (2, (1, 0)), "value", True),
    "Fin2Category": (T.Fin2Category, ("objects", "hom", "hcompose1", "hcompose2", "unit1"),
                     _two_category, "identity", True),
    "BoxCell": (TH.BoxCell, ("shape", "level"), lambda: (T.Theta2Shape(1, (2,)), 3),
                "value", True),
    "Theta2Presentation": (TH.Theta2Presentation, ("cells", "arrows"),
                           lambda: ((TH.BoxCell(T.Theta2Shape(0, ())),), ()), "value", True),
    "PresentationMap": (TH.PresentationMap, ("source", "target", "cell_map"),
                        _presentation_map, "value", True),
    "_Block": (TH._Block, ("nerve", "level"), _block, "value", False),
}

NAMES = sorted(RECORDS)


def _pair(name):
    """The record built twice, by position and by keyword, from one set of
    field values, with its field names and values."""
    cls, fields, values, _, _ = RECORDS[name]
    args = values()
    return cls(*args), cls(**dict(zip(fields, args))), fields, args


@pytest.mark.parametrize("name", NAMES)
def test_positional_and_keyword_construction_keep_the_fields(name):
    a, b, fields, args = _pair(name)
    for field, arg in zip(fields, args):
        assert getattr(a, field) == arg
        assert getattr(b, field) == arg


def test_defaults():
    shape = T.Theta2Shape(1, (1,))
    assert TH.BoxCell(shape).level == 0
    cells = (TH.BoxCell(shape),)
    assert TH.Theta2Presentation(cells).arrows == ()
    assert TH.Theta2Presentation(cells) == TH.Theta2Presentation(cells, ())


@pytest.mark.parametrize("name", NAMES)
def test_equality_and_hash(name):
    a, b, _, _ = _pair(name)
    equality, hashes = RECORDS[name][3:]
    assert a == a
    assert (a == b) is (equality != "identity")
    assert a != object()
    if equality == "identity":
        assert hash(a) == object.__hash__(a)
    elif hashes:
        assert hash(a) == hash(b)
    else:
        with pytest.raises(TypeError):
            hash(a)


def test_value_records_of_one_class_differ_by_any_field():
    assert T.Theta2Shape(1, (1,)) != T.Theta2Shape(1, (2,))
    shape = T.Theta2Shape(1, (1,))
    assert TH.BoxCell(shape, 1) != TH.BoxCell(shape, 2)
    assert len({TH.BoxCell(shape), TH.BoxCell(shape, 0), TH.BoxCell(shape, 1)}) == 2
    assert M.Report("msset", []) != M.Report("map", [])


@pytest.mark.parametrize("name", NAMES)
def test_fields_are_read_only(name):
    a, _, fields, args = _pair(name)
    for field, arg in zip(fields, args):
        with pytest.raises(AttributeError):
            setattr(a, field, arg)
        with pytest.raises(AttributeError):
            delattr(a, field)
        assert getattr(a, field) == arg
    with pytest.raises(AttributeError):
        a.extra = 1


@pytest.mark.parametrize("name", NAMES)
def test_repr_lists_the_fields(name):
    a, _, fields, _ = _pair(name)
    shown = ", ".join(f"{field}={getattr(a, field)!r}" for field in fields)
    assert repr(a) == f"{type(a).__qualname__}({shown})"


def test_shape_repr():
    assert repr(T.Theta2Shape(2, [1, 0])) == "Theta2Shape(m=2, ks=(1, 0))"


@pytest.mark.parametrize("make, names", [
    (lambda: T.FinCategory(*_category()), ("homs", "thin", "plan", "_as_target")),
    (lambda: T.theta2_object(T.Theta2Shape(2, (1, 1))),
     ("segments", "signature", "_as_target")),
    (lambda: T.Theta2Shape(1, (1,)), ("_category",)),
    (lambda: TH._Block(*_block()), ("product",)),
], ids=["FinCategory", "Fin2Category", "Theta2Shape", "_Block"])
def test_cached_properties_are_kept_on_the_instance(make, names):
    obj = make()
    for name in names:
        first = getattr(obj, name)
        assert vars(obj)[name] is first
        assert getattr(obj, name) is first
