import ast
import os
import pathlib
import subprocess
import sys

import theta2kit

SOURCES = sorted(pathlib.Path(theta2kit.__file__).parent.glob("*.py"))
TESTS = sorted(pathlib.Path(__file__).parent.glob("*.py"))

# module-level containers the library keeps on purpose: the nerve cache,
# keyed by each 2-category's twocat/1 document (Fin2Category.signature,
# computed once per 2-category), which holds one built nerve per document,
# bound and marking and, per document and bound, the generator raw
# simplices nerve maps read, and no raw layers (the CLI's check table,
# cli.CHECKS, is a tuple)
MODULE_STATE = {"nerves._nerve_cache"}

_CONTAINERS = (ast.Dict, ast.List, ast.Set, ast.DictComp, ast.ListComp, ast.SetComp)
_CONTAINER_CALLS = {"dict", "list", "set", "defaultdict", "OrderedDict",
                    "Counter", "deque"}


def _is_container(node):
    if isinstance(node, _CONTAINERS):
        return True
    if isinstance(node, ast.Call):
        f = node.func
        name = f.attr if isinstance(f, ast.Attribute) else getattr(f, "id", None)
        return name in _CONTAINER_CALLS
    return False


def _module_containers(path):
    """The names bound at module level of path to a dict, list or set."""
    out = []
    for node in ast.parse(path.read_text(), str(path)).body:
        if isinstance(node, ast.Assign):
            targets, value = node.targets, node.value
        elif isinstance(node, ast.AnnAssign) and node.value is not None:
            targets, value = [node.target], node.value
        else:
            continue
        for target in targets:
            if isinstance(target, ast.Tuple) and isinstance(value, ast.Tuple):
                pairs = zip(target.elts, value.elts)
            else:
                pairs = [(target, value)]
            out += [
                f"{path.stem}.{ast.unparse(t)}"
                for t, v in pairs if _is_container(v)
            ]
    return out


def test_library_has_no_assert():
    # python -O drops assert statements, and with them any check they make
    assert SOURCES
    found = [
        f"{path.name}:{node.lineno}"
        for path in SOURCES
        for node in ast.walk(ast.parse(path.read_text(), str(path)))
        if isinstance(node, ast.Assert)
    ]
    assert found == []


def test_library_has_no_new_module_state():
    # tables live on the objects that build them, never in module globals
    found = [name for path in SOURCES for name in _module_containers(path)]
    assert sorted(set(found) - MODULE_STATE) == []


def test_module_state_check_sees_containers(tmp_path):
    path = tmp_path / "mod.py"
    path.write_text(
        "A = {}\nB: list = []\nC, D = set(), 1\nE = collections.defaultdict(int)\n"
        "F = (1, 2)\nG = frozenset()\ndef f():\n    H = {}\n"
    )
    assert _module_containers(path) == ["mod.A", "mod.B", "mod.C", "mod.E"]


# module-level functions that may carry a decorator: the pure index
# helpers of nerves, each a function of small ints alone, memoised with
# functools.lru_cache
DECORATED = {"nerves._pairs", "nerves._triples", "nerves._pidx", "nerves._tidx",
             "nerves._degeneracy_test", "nerves._merge_getter"}

# decorators that keep nothing at module level: per-instance caches and
# descriptors
_PER_INSTANCE = {"property", "cached_property", "staticmethod", "classmethod"}


def _module_memos(path):
    """The functions of path with a decorator that may keep state across
    calls (any but `_PER_INSTANCE`), as 'module.Class.name' or
    'module.name', and the module-level calls of functools.cache or
    lru_cache, as 'module.line'."""
    def name(node):
        node = node.func if isinstance(node, ast.Call) else node
        return node.attr if isinstance(node, ast.Attribute) else getattr(node, "id", None)

    found = []
    tree = ast.parse(path.read_text(), str(path))
    stack = [(tree, path.stem)]
    while stack:
        node, where = stack.pop()
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                inner = f"{where}.{child.name}"
                if not isinstance(child, ast.ClassDef) and any(
                        name(d) not in _PER_INSTANCE for d in child.decorator_list):
                    found.append(inner)
                stack.append((child, inner))
            else:
                stack.append((child, where))
    for stmt in tree.body:
        if not isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            found += [f"{path.stem}.{node.lineno}" for node in ast.walk(stmt)
                      if isinstance(node, ast.Call) and name(node) in ("cache", "lru_cache")]
    return sorted(found)


def test_library_has_no_module_level_memos():
    # a memo decorator keeps its table at module level, where the
    # container scan above does not look; tables live on the objects and
    # in the dicts that callers hold
    found = {name for path in SOURCES for name in _module_memos(path)}
    assert found == DECORATED


def test_memo_scan_sees_every_form(tmp_path):
    path = tmp_path / "mod.py"
    path.write_text(
        "import functools\nfrom functools import cache, lru_cache\n"
        "@functools.lru_cache(maxsize=None)\ndef a(n):\n    return n\n"
        "@cache\ndef b(n):\n    return n\n"
        "@lru_cache\ndef c(n):\n    return n\n"
        "@dataclass(frozen=True)\nclass K:\n"
        "    @property\n    def p(self):\n        return 1\n"
        "    @functools.cached_property\n    def q(self):\n        return 2\n"
        "    @staticmethod\n    @functools.cache\n    def r():\n        return 3\n"
        "def outer():\n    @lru_cache\n    def inner(n):\n        return n\n"
        "    return inner\n"
        "d = functools.lru_cache(maxsize=8)(a)\nE = cache(b)\n"
        "def plain():\n    return 4\n"
    )
    assert _module_memos(path) == [
        "mod.29", "mod.30", "mod.K.r", "mod.a", "mod.b", "mod.c", "mod.outer.inner"]


def _from_raw_uses(path):
    """Where path defines, imports or calls from_raw, as 'line:kind'."""
    out = []
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            hit, kind = node.name == "from_raw", "def"
        elif isinstance(node, ast.ImportFrom):
            hit, kind = any(a.name == "from_raw" for a in node.names), "import"
        elif isinstance(node, ast.Call):
            f = node.func
            name = f.attr if isinstance(f, ast.Attribute) else getattr(f, "id", None)
            hit, kind = name == "from_raw", "call"
        else:
            continue
        if hit:
            out.append(f"{node.lineno}:{kind}")
    return out


def test_library_has_no_from_raw():
    # products and colimits are built on generators; the all-simplex
    # normalisation lives in the tests, as their oracle
    found = [f"{path.name}:{use}" for path in SOURCES for use in _from_raw_uses(path)]
    assert found == []


def test_from_raw_check_sees_definitions_imports_and_calls(tmp_path):
    path = tmp_path / "mod.py"
    path.write_text(
        "from .msset import from_raw\ndef from_raw(x):\n    return x\n"
        "Y = msset.from_raw(1)\nZ = from_raw(2)\nW = from_raw\ndef g():\n    raw(3)\n"
    )
    assert _from_raw_uses(path) == ["1:import", "2:def", "4:call", "5:call"]


def _self_referencing_closures(path):
    """The nested functions of path that refer to their own name, as
    'line:name'.  Such a closure holds itself through its own cell, a
    cycle that keeps everything it reaches alive until the cyclic
    collector runs."""
    functions = (ast.FunctionDef, ast.AsyncFunctionDef)
    found = set()
    for outer in ast.walk(ast.parse(path.read_text(), str(path))):
        if not isinstance(outer, functions):
            continue
        for inner in ast.walk(outer):
            if inner is not outer and isinstance(inner, functions) and any(
                isinstance(node, ast.Name) and node.id == inner.name
                for node in ast.walk(inner)
            ):
                found.add(f"{inner.lineno}:{inner.name}")
    return sorted(found, key=lambda hit: int(hit.split(":")[0]))


def test_library_has_no_self_referencing_closures():
    # a recursive nested function leaves cyclic garbage behind each call;
    # the searches keep explicit stacks or recurse through module-level
    # functions instead
    found = [
        f"{path.name}:{hit}" for path in SOURCES
        for hit in _self_referencing_closures(path)
    ]
    assert found == []


def test_closure_check_sees_nested_self_references(tmp_path):
    path = tmp_path / "mod.py"
    path.write_text(
        "def top(n):\n    return top(n - 1)\n"
        "def f():\n    def walk(k):\n        return walk(k + 1)\n"
        "    def leaf():\n        return 1\n"
        "    def g():\n        def deep():\n            return [deep]\n"
        "        return deep\n"
        "    async def later():\n        await later()\n"
        "    return walk, leaf, g, later\n"
        "class C:\n    def m(self):\n        return self.m()\n"
    )
    assert _self_referencing_closures(path) == ["4:walk", "9:deep", "12:later"]


def _int_checks(path):
    """The calls isinstance(..., int) in path, as 'line:enclosing function'
    ('<module>' at module level); int may be one of a tuple of types."""
    found = []
    stack = [(ast.parse(path.read_text(), str(path)), "<module>")]
    while stack:
        node, where = stack.pop()
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                stack.append((child, child.name))
                continue
            if (
                isinstance(child, ast.Call)
                and getattr(child.func, "id", None) == "isinstance"
                and len(child.args) == 2
            ):
                kinds = child.args[1]
                kinds = kinds.elts if isinstance(kinds, ast.Tuple) else [kinds]
                if any(getattr(k, "id", None) == "int" for k in kinds):
                    found.append(f"{child.lineno}:{where}")
            stack.append((child, where))
    return sorted(found, key=lambda hit: int(hit.split(":")[0]))


def test_library_checks_ints_in_one_place():
    # an int argument is checked by msset._check_int, which also turns
    # away bools; a bare isinstance(x, int) lets True through
    found = {
        f"{path.stem}.{hit.split(':')[1]}" for path in SOURCES
        for hit in _int_checks(path)
    }
    assert found == {"msset._check_int"}


def test_int_check_scan_sees_every_form(tmp_path):
    path = tmp_path / "mod.py"
    path.write_text(
        "A = isinstance(1, int)\n"
        "def f(x):\n    return isinstance(x, bool) or isinstance(x, (str, int))\n"
        "class C:\n    def m(self, x):\n"
        "        def inner():\n            return isinstance(x, int)\n"
        "        return [isinstance(y, float) for y in x]\n"
    )
    assert _int_checks(path) == ["1:<module>", "3:f", "7:inner"]


def _unnamed_definitions(defining, using):
    """The top-level functions and classes of the paths in defining, and
    the non-dunder methods of their top-level classes, that no path in
    using names as a Name, an Attribute or an import alias; as
    'module.name' or 'module.Class.method'."""
    names = set()
    for path in using:
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Name):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                names.add(node.attr)
            elif isinstance(node, ast.alias):
                names.add(node.name.rpartition(".")[2])
    found = []
    functions = (ast.FunctionDef, ast.AsyncFunctionDef)
    for path in defining:
        for node in ast.parse(path.read_text(), str(path)).body:
            if isinstance(node, (*functions, ast.ClassDef)):
                found.append((f"{path.stem}.{node.name}", node.name))
            if isinstance(node, ast.ClassDef):
                found += [
                    (f"{path.stem}.{node.name}.{m.name}", m.name)
                    for m in node.body
                    if isinstance(m, functions)
                    and not (m.name.startswith("__") and m.name.endswith("__"))
                ]
    return [where for where, name in found if name not in names]


def test_library_has_no_dead_definitions():
    # a definition that neither the library nor its tests name is dead code
    assert _unnamed_definitions(SOURCES, SOURCES + TESTS) == []


def test_dead_definition_scan_sees_every_form(tmp_path):
    mod, use = tmp_path / "mod.py", tmp_path / "use.py"
    mod.write_text(
        "def used():\n    pass\ndef unused():\n    return 1\n"
        "async def later():\n    pass\nclass C:\n    def __init__(self):\n"
        "        self.m()\n    def m(self):\n        pass\n"
        "    def n(self):\n        pass\nclass Unused:\n    pass\n"
    )
    use.write_text("from mod import later as soon\nimport mod.used\nmod.C()\n")
    assert _unnamed_definitions([mod], [mod, use]) == [
        "mod.unused", "mod.C.n", "mod.Unused"
    ]


def _attribute_reads(path, name):
    """The lines of path, in order, that read or set an attribute called
    name."""
    return sorted(
        node.lineno
        for node in ast.walk(ast.parse(path.read_text(), str(path)))
        if isinstance(node, ast.Attribute) and node.attr == name
    )


def _read_only_in_twocat(name):
    """The places outside twocat that read or set the attribute name,
    which twocat itself must read."""
    assert any(_attribute_reads(path, name) for path in SOURCES if path.stem == "twocat")
    return [
        f"{path.name}:{line}" for path in SOURCES if path.stem != "twocat"
        for line in _attribute_reads(path, name)
    ]


def test_library_decides_freeness_in_twocat():
    # whether a 2-category is a free pasting scheme is derived, and read,
    # in twocat alone; other modules go through its 2-functor constructors
    assert _read_only_in_twocat("segments") == []


def test_library_keeps_what_a_target_derives_in_twocat():
    # a target's order masks and chain counts are kept on it and read in
    # twocat alone; other modules reach them through its 2-functor
    # constructors and chain_count
    for name in ("_as_target", "_chain_counts"):
        assert _read_only_in_twocat(name) == [], name


def test_segments_scan_sees_every_read(tmp_path):
    path = tmp_path / "mod.py"
    path.write_text(
        "segs = D.segments\nif self.segments is None:\n    pass\n"
        "f(x.y.segments, segments)\nsegments = 1\ndef segments():\n    pass\n"
    )
    assert _attribute_reads(path, "segments") == [1, 2, 4]


def test_library_plans_functors_in_twocat():
    # a category's generators and composites are read by the functor
    # search in twocat alone; other modules count functors through it
    assert _read_only_in_twocat("plan") == []


def test_plan_scan_sees_every_read(tmp_path):
    path = tmp_path / "mod.py"
    path.write_text(
        "gens, comps = C.plan\nx = self.hom[k].plan[0]\nplan = C.planned\n"
        "del H.plan\ndef plan(C):\n    return f(plan)\nD.plan = 1\n"
    )
    assert _attribute_reads(path, "plan") == [1, 2, 4, 7]


def _callers(path, name):
    """The calls of name in path, bare or as nerves.name, as
    'line:enclosing function' ('<module>' at module level)."""
    found = []
    stack = [(ast.parse(path.read_text(), str(path)), "<module>")]
    while stack:
        node, where = stack.pop()
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                stack.append((child, child.name))
                continue
            f = getattr(child, "func", None)
            if isinstance(child, ast.Call) and (
                getattr(f, "id", None) == name
                or (isinstance(f, ast.Attribute) and f.attr == name
                    and getattr(f.value, "id", None) == "nerves")
            ):
                found.append(f"{child.lineno}:{where}")
            stack.append((child, where))
    return sorted(found, key=lambda hit: int(hit.split(":")[0]))


def _names(path, name):
    """The lines of path that name name: as a Name, an Attribute, an
    import alias or a definition."""
    return sorted({
        node.lineno for node in ast.walk(ast.parse(path.read_text(), str(path)))
        if (isinstance(node, ast.Name) and node.id == name)
        or (isinstance(node, ast.Attribute) and node.attr == name)
        or (isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and node.name == name)
        or (isinstance(node, ast.ImportFrom) and any(a.name == name for a in node.names))
    })


def test_nerves_are_built_on_the_cached_path_only():
    # nerves._build runs behind the nerve cache alone, and no module keeps
    # a second, indexed way to a nerve (twocat's _LazyTable calls a
    # self._build of its own)
    found = [
        f"{path.stem}.{hit.split(':')[1]}" for path in SOURCES
        for hit in _callers(path, "_build")
    ]
    assert found == ["nerves.nerve"]
    named = [f"{path.name}:{line}" for path in SOURCES
             for line in _names(path, "rs_nerve_with_index")]
    assert named == []


def test_call_and_name_scans_see_every_form(tmp_path):
    path = tmp_path / "mod.py"
    path.write_text(
        "from .nerves import _build\ndef _build(x):\n    return x\n"
        "def f():\n    return nerves._build(1)\nY = _build(2)\n"
        "class C:\n    def m(self):\n        def g():\n            _build(3)\n"
        "        return self._build(4)\n"
    )
    assert _callers(path, "_build") == ["5:f", "6:<module>", "10:g"]
    assert _names(path, "_build") == [1, 2, 5, 6, 10, 11]


def _namers(path, name):
    """Where path names name, as 'line:enclosing function' ('<module>' at
    module level): as a Name, an Attribute, an import alias, a global or
    nonlocal statement, or a string equal to it."""
    found = []
    stack = [(ast.parse(path.read_text(), str(path)), "<module>")]
    while stack:
        node, where = stack.pop()
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                stack.append((child, child.name))
                continue
            if ((isinstance(child, ast.Name) and child.id == name)
                    or (isinstance(child, ast.Attribute) and child.attr == name)
                    or (isinstance(child, ast.alias) and child.name.rpartition(".")[2] == name)
                    or (isinstance(child, (ast.Global, ast.Nonlocal)) and name in child.names)
                    or (isinstance(child, ast.Constant) and child.value == name)):
                found.append(f"{child.lineno}:{where}")
            stack.append((child, where))
    return sorted(found, key=lambda hit: int(hit.split(":")[0]))


def test_nerve_store_has_one_owner():
    # the nerve cache is defined in nerves and read and filled by nerve()
    # and the generator raws' lookup alone; every other module goes
    # through them
    found = {
        f"{path.stem}.{hit.split(':')[1]}" for path in SOURCES
        for hit in _namers(path, "_nerve_cache")
    }
    assert found == {"nerves.<module>", "nerves.nerve", "nerves._cached_raws"}


def test_owner_scan_sees_every_form(tmp_path):
    path = tmp_path / "mod.py"
    path.write_text(
        "from .nerves import _nerve_cache\n_nerve_cache = {}\n"
        "def f():\n    global _nerve_cache\n    return N._nerve_cache\n"
        "class C:\n    def m(self):\n        def g():\n"
        "            return getattr(N, '_nerve_cache')\n        return g\n"
        "def h():\n    return _nerve_cache_size, nerve_cache\n"
    )
    assert _namers(path, "_nerve_cache") == ["1:<module>", "2:<module>", "4:f", "5:f", "9:g"]


def _function_body_names(path, function):
    """The names that the body of path's top-level function names, as a
    Name or an Attribute (not its signature or annotations), and the
    names it calls, bare or as an attribute: (named, called)."""
    tree = ast.parse(path.read_text(), str(path))
    (node,) = [n for n in tree.body
               if isinstance(n, (ast.FunctionDef, ast.AsyncFunctionDef))
               and n.name == function]
    named, called = set(), set()
    for child in (n for stmt in node.body for n in ast.walk(stmt)):
        if isinstance(child, ast.Name):
            named.add(child.id)
        elif isinstance(child, ast.Attribute):
            named.add(child.attr)
        if isinstance(child, ast.Call):
            f = child.func
            called.add(f.attr if isinstance(f, ast.Attribute) else getattr(f, "id", None))
    return named, called


def test_vertical_cofibrations_are_suspensions():
    # the vertical Segal and completeness maps are V[1] of the horizontal
    # ones; neither writes out a diagram of its own
    (path,) = [p for p in SOURCES if p.stem == "theta"]
    for function in ("vertical_segal", "vertical_completeness"):
        named, called = _function_body_names(path, function)
        assert "_suspend" in called, function
        assert named & {"BoxCell", "Theta2Presentation", "PresentationMap"} == set()


def test_body_name_scan_sees_every_form(tmp_path):
    path = tmp_path / "mod.py"
    path.write_text(
        "def f(x: Ann) -> Ret:\n    return g(TH.h(x), Cell, mod.Attr)\n"
        "def other():\n    return Elsewhere()\n"
    )
    named, called = _function_body_names(path, "f")
    assert named == {"g", "TH", "h", "x", "Cell", "mod", "Attr"}
    assert called == {"g", "h"}


# the helpers that spell each id format, by the module that defines the
# format: twocat the cells of its shapes and the keys of its JSON, msset
# the simplices of standard simplices and the pairs of products, nerves
# the raw simplices of nerves and their index tables
ID_HELPERS = {
    "twocat": ("_enc", "_mid", "_json_key"),
    "msset": ("_simplex_key", "_pair_id"),
    "nerves": ("_key_fn", "_ref", "_pairs", "_triples", "_pidx", "_tidx"),
}


def _foreign_id_helpers(paths):
    """Where a path names an id helper of a module other than its own (see
    `_namers`), as 'file:line:helper'."""
    return [
        f"{path.name}:{hit.split(':')[0]}:{name}"
        for path in paths
        for owner, names in ID_HELPERS.items() if path.stem != owner
        for name in names
        for hit in _namers(path, name)
    ]


def test_each_id_format_is_spelled_by_its_owner_alone():
    # theta, suspension and cli build no other module's ids: they call the
    # constructors of the module that defines the format, or read the ids
    # off the objects that hold them
    for owner, names in ID_HELPERS.items():
        (path,) = [p for p in SOURCES if p.stem == owner]
        assert all(_names(path, name) for name in names), owner
    assert _foreign_id_helpers(SOURCES) == []


def test_id_helper_scan_sees_names_aliases_and_attributes(tmp_path):
    mod, owner = tmp_path / "theta.py", tmp_path / "nerves.py"
    mod.write_text(
        "from .nerves import _key_fn as k\nfrom . import nerves\n"
        "x = nerves._pairs(3)\ndef f(t):\n    return _enc(t)\n"
        "y = _tidx_size, pairs\n"
    )
    owner.write_text("def _key_fn(raw, n):\n    return _pidx(n)\n")
    assert _foreign_id_helpers([mod, owner]) == [
        "theta.py:5:_enc", "theta.py:1:_key_fn", "theta.py:3:_pairs"]


_ENVIRONMENT = {"environ", "environb", "getenv", "getenvb"}


def _environment_reads(path):
    """The lines of path that read the process environment: os.environ or
    os.getenv (or their bytes forms), read off os or imported from it."""
    return sorted({
        node.lineno for node in ast.walk(ast.parse(path.read_text(), str(path)))
        if (isinstance(node, ast.Attribute) and node.attr in _ENVIRONMENT
            and getattr(node.value, "id", None) == "os")
        or (isinstance(node, ast.ImportFrom) and node.module == "os"
            and any(a.name in _ENVIRONMENT for a in node.names))
    })


def test_library_reads_no_environment_variable():
    # a flag or a parameter is the one way to set each value
    found = [f"{path.name}:{line}" for path in SOURCES for line in _environment_reads(path)]
    assert found == []


def test_environment_scan_sees_attribute_reads_and_imports(tmp_path):
    path = tmp_path / "mod.py"
    path.write_text(
        "import os\nx = os.environ.get('A')\nfrom os import getenv\ny = getenv('B')\n"
        "z = os.path.join('a', 'b')\nenviron = {}\nfrom os import path, environ as e\n"
    )
    assert _environment_reads(path) == [2, 3, 7]


# stdlib modules the package does not load: with the code that @dataclass
# compiles per class, dataclasses and inspect (which it imports, with ast,
# dis and tokenize) took about a quarter of a cold `import theta2kit`
UNLOADED = ("dataclasses", "inspect")


def _module_level_imports(path, modules):
    """The lines of path, outside any function, that import one of modules
    or a name from one: what runs on every import of path."""
    found = []
    stack = [ast.parse(path.read_text(), str(path))]
    while stack:
        for child in ast.iter_child_nodes(stack.pop()):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                continue
            if isinstance(child, ast.Import):
                names = [a.name for a in child.names]
            elif isinstance(child, ast.ImportFrom) and not child.level:
                names = [child.module]
            else:
                names = []
            if any(name.partition(".")[0] in modules for name in names):
                found.append(child.lineno)
            stack.append(child)
    return sorted(found)


def test_library_imports_no_dataclasses_or_inspect():
    found = [f"{path.name}:{line}" for path in SOURCES
             for line in _module_level_imports(path, UNLOADED)]
    assert found == []


def test_module_import_scan_sees_every_form(tmp_path):
    path = tmp_path / "mod.py"
    path.write_text(
        "import os, inspect as i\nfrom dataclasses import dataclass\n"
        "import dataclasses.x\nif X:\n    import inspect\nclass C:\n"
        "    from inspect import signature\ndef f():\n    import inspect\n"
        "from .inspect import y\nimport inspection\ng = lambda: __import__('inspect')\n"
    )
    assert _module_level_imports(path, UNLOADED) == [1, 2, 3, 5, 7]


def test_importing_the_package_loads_no_dataclasses_or_inspect():
    # a fresh interpreter, which no other test has imported anything into
    src = str(pathlib.Path(theta2kit.__file__).parent.parent)
    code = ("import sys, theta2kit, theta2kit.cli; "
            f"print(theta2kit.__file__); print(sorted(set(sys.modules) & {set(UNLOADED)}))")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         check=True, env={**os.environ, "PYTHONPATH": src}).stdout
    assert out.splitlines() == [theta2kit.__file__, "[]"]


def _calls(node, name):
    """Whether node calls name, bare or as an attribute, anywhere inside it."""
    return any(isinstance(c, ast.Call)
               and name in (getattr(c.func, "id", None), getattr(c.func, "attr", None))
               for c in ast.walk(node))


def _reads_report(node):
    return any(isinstance(a, ast.Attribute) and a.attr in ("violations", "ok")
               for a in ast.walk(node))


def _raises_a_report(function):
    """Whether function raises on a Report: a raise that names a Report's
    `violations` or `ok`, or one under an if or a for that does."""
    raises = [r for r in ast.walk(function) if isinstance(r, ast.Raise)]
    return any(_reads_report(r) for r in raises) or any(
        _reads_report(node.test if isinstance(node, ast.If) else node.iter)
        and any(isinstance(r, ast.Raise) for stmt in node.body for r in ast.walk(stmt))
        for node in ast.walk(function) if isinstance(node, (ast.If, ast.For)))


def _load_path_breaches(path):
    """The functions of path, nested ones included, that leave the one load
    path: each *_from_json that does not call msset._load, and each other
    function than _load that raises on a Report; as 'module.function'."""
    return [
        f"{path.stem}.{node.name}"
        for node in ast.walk(ast.parse(path.read_text(), str(path)))
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
        and ((node.name.endswith("_from_json") and not _calls(node, "_load"))
             or (node.name != "_load" and _raises_a_report(node)))
    ]


def test_every_loader_takes_the_one_load_path():
    # each JSON loader parses and validates through msset._load, which
    # alone turns a validator's first violation into a ValueError; the
    # old id check beside the validators is gone
    assert [hit for path in SOURCES for hit in _load_path_breaches(path)] == []
    loaders = [node.name for path in SOURCES
               for node in ast.walk(ast.parse(path.read_text(), str(path)))
               if isinstance(node, ast.FunctionDef) and node.name.endswith("_from_json")]
    assert len(loaders) == 5, loaders
    assert [f"{path.name}:{line}" for path in SOURCES + TESTS
            for line in _names(path, "_check_ids")] == []


def test_load_path_scan_sees_loaders_and_raised_reports(tmp_path):
    path = tmp_path / "mod.py"
    path.write_text(
        "def a_from_json(d):\n    return msset._load('a', parse, d, check)\n"
        "def b_from_json(d):\n    def parse(d):\n        return _load('b', f, d)\n"
        "    return parse(d)\n"
        "def c_from_json(d):\n    return C(d)\n"
        "def checked(x):\n    r = check(x)\n    if not r.ok:\n        raise ValueError(r)\n"
        "def first(x):\n    for v in check(x).violations:\n        raise ValueError(v)\n"
        "def merged(x):\n    return [v for v in check(x).violations]\n"
        "def fuzz(n):\n    if n < 0:\n        raise ValueError(n)\n    return check(n).ok\n"
        "def raw(x):\n    raise ValueError(check(x).violations[0])\n"
        "def _load(what, parse, data, validate):\n"
        "    if validate(data).violations:\n        raise ValueError(what)\n"
    )
    assert _load_path_breaches(path) == [
        "mod.c_from_json", "mod.checked", "mod.first", "mod.raw"]
