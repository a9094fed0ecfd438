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


@pytest.mark.parametrize("name", sorted(DOCUMENTS))
@settings(max_examples=80, deadline=None)
@given(data=st.data())
def test_each_loader_returns_a_valid_object_or_raises_value_error(name, data):
    doc, load, valid = DOCUMENTS[name]
    leaves = _leaves(doc)
    # replacements: odd values, and the document's own values, which are
    # what lets a damaged document get past the parse
    values = st.one_of(_ODD, st.sampled_from([_get(doc, p) for p in leaves]))
    doc = json.loads(json.dumps(doc))
    for path in data.draw(st.lists(st.sampled_from(leaves), min_size=1, max_size=3,
                                   unique=True)):
        _get(doc, path[:-1])[path[-1]] = data.draw(values)
    try:
        obj = load(doc)
    except ValueError:
        return
    assert valid(obj), doc
