"""The loader contract: every JSON loader returns an object that its
type's validator accepts, or raises ValueError, whatever the document;
and what loads survives the library's constructions on it, raising
nothing but ValueError or ResourceLimitError."""

import json

import pytest
from hypothesis import given, settings, strategies as st

from theta2kit import msset as M, nerves as N, theta as TH, twocat as T
from theta2kit.msset import ResourceLimitError


def _survives(*calls):
    """Run each call on a nerve cache of its own, so that no later test
    reads a nerve built here; True unless one raises other than ValueError
    or ResourceLimitError, which propagates."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(N, "_nerve_cache", {})
        for call in calls:
            try:
                call()
            except (ValueError, ResourceLimitError):
                pass
    return True


def _two_category_ok(D):
    return T.validate_2cat(D).ok and _survives(lambda: N.rs_nerve(D, 2, limit=2_000))


def _msset_ok(X):
    doc = M.msset_to_json(X)
    return (M.validate_msset(X).ok and M.msset_to_json(M.msset_from_json(doc)) == doc
            and _survives(*(lambda n=n: N.filler_counts(X, n, limit=2_000)
                            for n in range(1, min(2, X.bound) + 1))))


def _presentation_ok(W):
    return (all(T.validate_two_functor(F).ok for _, _, F, _ in W.arrows)
            and _survives(lambda: TH.apply_L(W, 2)))


def _documents():
    """name -> (a valid document, its loader, whether a loaded object is
    valid and survives the constructions on it)."""
    shape = T.theta2_object(T.parse_shape("[2|1,0]"))
    return {
        "category": (T.category_to_json(T.ordinal(2)), T.category_from_json,
                     lambda C: T.validate_category(C).ok
                     and _two_category_ok(T.as_two_category(C))),
        "twocat/1 [2|1,0]": (T.two_category_to_json(shape), T.two_category_from_json,
                             _two_category_ok),
        "twocat/1 Sigma I": (T.two_category_to_json(T.suspend_category(T.free_iso())),
                             T.two_category_from_json, _two_category_ok),
        "msset/1": (M.msset_to_json(N.rs_nerve(shape, 3)), M.msset_from_json, _msset_ok),
        "theta/1": (TH.presentation_to_json(TH.vertical_segal(2).source),
                    TH.presentation_from_json, _presentation_ok),
    }


DOCUMENTS = _documents()


def _leaves(data, path=()):
    """The paths to every value of data that is neither a list nor a dict."""
    if isinstance(data, dict):
        return [p for k, v in data.items() for p in _leaves(v, (*path, k))]
    if isinstance(data, list):
        return [p for i, v in enumerate(data) for p in _leaves(v, (*path, i))]
    return [path]


def _get(data, path):
    for k in path:
        data = data[k]
    return data


_ODD = st.one_of(
    st.none(), st.booleans(), st.integers(-3, -1), st.just(10**20), st.floats(-2, 2),
    st.lists(st.sampled_from(["0", "a", 0, None]), max_size=3),
    st.dictionaries(st.sampled_from(["0", "gen", "word"]), st.sampled_from(["0", 0, []]),
                    max_size=2),
    st.text(",;|#<>*.()", max_size=3),
)


def _lists(data, path=()):
    """The paths to every nonempty list in data."""
    if isinstance(data, dict):
        return [p for k, v in data.items() for p in _lists(v, (*path, k))]
    if isinstance(data, list):
        inner = [p for i, v in enumerate(data) for p in _lists(v, (*path, i))]
        return [path, *inner] if data else inner
    return []


def _ids(doc):
    """The str and int leaves of doc but its schema: the ids a swap
    exchanges."""
    return sorted({v for p in _leaves(doc) if p != ("schema",)
                   if type(v := _get(doc, p)) in (str, int)}, key=repr)


def _swap(data, a, b):
    """data with the ids a and b exchanged wherever one is a leaf or a
    dict key."""
    if isinstance(data, dict):
        return {_swap(k, a, b): _swap(v, a, b) for k, v in data.items()}
    if isinstance(data, list):
        return [_swap(v, a, b) for v in data]
    return b if data == a else a if data == b else data


def _mutate(data, doc):
    """doc after one to three mutations drawn from data: a leaf replaced by
    an odd value or one of doc's own (which lets a damaged document get
    past the parse), a list item deleted or duplicated, or two ids
    exchanged throughout.  The last three mostly keep the document
    loadable, so that what loads reaches the constructions."""
    values = st.one_of(_ODD, st.sampled_from([_get(doc, p) for p in _leaves(doc)]))
    ids = _ids(doc)
    doc = json.loads(json.dumps(doc))
    for _ in range(data.draw(st.integers(1, 3))):
        kind = data.draw(st.sampled_from(["replace", "delete", "duplicate", "swap"]))
        lists = _lists(doc)
        if kind == "replace" or not lists:
            path = data.draw(st.sampled_from(_leaves(doc)))
            _get(doc, path[:-1])[path[-1]] = data.draw(values)
        elif kind == "swap":
            doc = _swap(doc, *data.draw(st.lists(st.sampled_from(ids), min_size=2,
                                                  max_size=2, unique=True)))
        else:
            items = _get(doc, data.draw(st.sampled_from(lists)))
            at = data.draw(st.integers(0, len(items) - 1))
            if kind == "delete":
                del items[at]
            else:
                items.insert(at, json.loads(json.dumps(items[at])))
    return doc


@pytest.mark.parametrize("name", sorted(DOCUMENTS))
@settings(max_examples=80, deadline=None)
@given(data=st.data())
def test_each_loader_returns_a_valid_object_or_raises_value_error(name, data):
    doc, load, valid = DOCUMENTS[name]
    doc = _mutate(data, doc)
    try:
        obj = load(doc)
    except ValueError:
        return
    assert valid(obj), doc
