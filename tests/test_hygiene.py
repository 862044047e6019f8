"""Static hygiene of the ``latconf`` package, read with the stdlib ``ast``.

* No module imports another module's private (``_``-prefixed) name,
  nor reads a private attribute that only another module defines.
* Every name a module imports is used in that module.
* Every public module-level name of the package is used somewhere in
  the repository's code: ``src``, ``tests``, ``demos`` or ``perfbench``.
* Every function the benchmark's tracer wraps by name still exists.
* The elimination kernel ``bareiss`` is called only in ``matrices``, and
  reduces (``reduce=True``) only inside ``echelon``.
* ``snf`` is called only where its transforms are read: the one
  discriminant decomposition of a lattice (u and v) and the isotropic
  basis completion (v).
* ``Matrix.inverse`` is called only in the isotropic basis completion.
* In ``isotropic``, L and the boundary models are built (``transcendental_slice``,
  ``Zpq``, ``hyperbolic``) only by the parameterless cached helpers
  ``_slice`` and ``boundary_models``.
* The congruence diagonalization ``lattices._diagonalize``,
  ``definite_isometries`` and the recursion of ``short_vectors`` name no
  ``Fraction``; ``short_vectors`` reads its norm as one once.
* Outside ``cli``, the Fraction views of a Matrix
  (``entry``, ``column``, ``data``, ``from_columns``) are read only in
  named boundary scopes: the Matrix's own text forms and the
  ``configs`` minors table.
* No function outside another function caches its calls without bound
  (``functools.cache``, ``lru_cache(maxsize=None)``) if it takes
  parameters: such a cache would keep every input the process has seen,
  so a benchmark that repeats its ops would time cached results.
* Every cache outside a function is pinned here with its size, so a
  new memo, or a larger one, is a deliberate edit of this file.
"""

import ast
import importlib.util
from collections import Counter
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "latconf"
MODULES = sorted(PACKAGE.glob("*.py"))
CODE = sorted(
    p for d in ("src", "tests", "demos", "perfbench") for p in (ROOT / d).rglob("*.py")
)


def _is_private(name: str) -> bool:
    return name.startswith("_") and not name.startswith("__")


def _imports(tree):
    """(node, imported name, bound name) for every import in the module."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield node, alias.name, alias.asname or alias.name.split(".")[0]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                yield node, alias.name, alias.asname or alias.name


def _used_names(tree):
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            # quoted annotations such as -> "Lattice"
            if node.value.isidentifier():
                used.add(node.value)
    return used


def _is_internal(node) -> bool:
    if isinstance(node, ast.ImportFrom):
        return node.level > 0 or (node.module or "").split(".")[0] == "latconf"
    return any(alias.name.split(".")[0] == "latconf" for alias in node.names)


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_private_cross_module_imports(path):
    tree = ast.parse(path.read_text(encoding="utf-8"))
    offending = [
        f"line {node.lineno}: {name}"
        for node, name, _bound in _imports(tree)
        if _is_internal(node) and _is_private(name.split(".")[-1])
    ]
    assert not offending, offending


def _private_definitions(tree):
    """Private names a module defines: functions, classes and methods,
    assigned names and attributes, ``__slots__`` entries, and attributes
    set through ``setattr``/``object.__setattr__``."""
    defined = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            defined.add(node.name)
        elif isinstance(node, (ast.Name, ast.Attribute)) and isinstance(node.ctx, ast.Store):
            defined.add(getattr(node, "id", getattr(node, "attr", None)))
        elif isinstance(node, ast.Assign) and any(
            getattr(t, "id", None) == "__slots__" for t in node.targets
        ):
            defined.update(
                c.value for c in ast.walk(node.value) if isinstance(c, ast.Constant)
            )
        elif isinstance(node, ast.Call) and getattr(
            node.func, "attr", getattr(node.func, "id", None)
        ) in ("setattr", "__setattr__"):
            defined.update(
                a.value for a in node.args[1:2] if isinstance(a, ast.Constant)
            )
    return {name for name in defined if isinstance(name, str) and _is_private(name)}


def test_no_private_attributes_of_other_modules():
    trees = {path.name: ast.parse(path.read_text(encoding="utf-8")) for path in MODULES}
    defined = {name: _private_definitions(tree) for name, tree in trees.items()}
    offending = []
    for name, tree in trees.items():
        elsewhere = set().union(*(d for other, d in defined.items() if other != name))
        offending += [
            f"{name} line {node.lineno}: .{node.attr}"
            for node in ast.walk(tree)
            if isinstance(node, ast.Attribute)
            and isinstance(node.ctx, ast.Load)
            and _is_private(node.attr)
            and node.attr not in defined[name]
            and node.attr in elsewhere
        ]
    assert not offending, offending


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_every_import_is_used(path):
    tree = ast.parse(path.read_text(encoding="utf-8"))
    used = _used_names(tree)
    unused = [
        f"line {node.lineno}: {bound}"
        for node, _name, bound in _imports(tree)
        if bound not in used
    ]
    assert not unused, unused


def _loaded_names(tree):
    """Names a module reads: loaded names and attributes, and string
    constants (the benchmark's tracer names the functions it wraps by
    string).  Imports are not reads."""
    loaded = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            loaded.add(node.id)
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            loaded.add(node.attr)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            loaded.add(node.value)
    return loaded


def _public_definitions(tree):
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names = [node.name]
        elif isinstance(node, ast.Assign):
            names = [t.id for t in node.targets if isinstance(t, ast.Name)]
        elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
            names = [node.target.id]
        else:
            continue
        yield from (name for name in names if not name.startswith("_"))


def test_every_public_name_is_used():
    loaded = set()
    for path in CODE:
        loaded |= _loaded_names(ast.parse(path.read_text(encoding="utf-8")))
    unused = [
        f"{path.stem}.{name}"
        for path in MODULES
        for name in _public_definitions(ast.parse(path.read_text(encoding="utf-8")))
        if name not in loaded
    ]
    assert not unused, unused


def test_traced_functions_exist():
    spec = importlib.util.spec_from_file_location(
        "perfbench_tracing", ROOT / "perfbench" / "tracing.py"
    )
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    missing = [
        f"{owner}.{attr}"
        for _layer, _name, owner, attr in tracing.TRACED
        if not (
            hasattr(importlib.import_module(owner), attr)
            if isinstance(owner, str)
            else attr in vars(owner)
        )
    ]
    assert not missing, missing


def _scoped(tree, match):
    """(scope, node) for each node that ``match`` accepts: scope is the
    dotted path of the classes and functions around the node, or None at
    module level."""
    parent = {
        child: node for node in ast.walk(tree) for child in ast.iter_child_nodes(node)
    }
    for node in ast.walk(tree):
        if not match(node):
            continue
        scopes = []
        scope = parent.get(node)
        while scope is not None:
            if isinstance(scope, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                scopes.append(scope.name)
            scope = parent.get(scope)
        yield ".".join(reversed(scopes)) or None, node


def _calls(tree, name):
    """(scope, call) for each call of ``name``."""
    return _scoped(
        tree,
        lambda node: isinstance(node, ast.Call)
        and getattr(node.func, "id", getattr(node.func, "attr", None)) == name,
    )


def _module_calls(name):
    return {
        path.stem: list(_calls(ast.parse(path.read_text(encoding="utf-8")), name))
        for path in MODULES
    }


def _callers(name):
    """The sorted ``module.scope`` of every call of ``name`` in the package."""
    return sorted(
        f"{module}.{scope}" for module, found in _module_calls(name).items() for scope, _ in found
    )


def test_one_reducing_elimination():
    calls = _module_calls("bareiss")
    outside = [name for name, found in calls.items() if found and name != "matrices"]
    assert not outside, outside
    # a call reduces if it passes ``reduce`` at all
    reducing = [
        scope for scope, node in calls["matrices"]
        if len(node.args) > 1 or any(kw.arg == "reduce" for kw in node.keywords)
    ]
    assert reducing == ["echelon"], reducing


def test_snf_only_where_a_transform_is_read():
    """Each caller reads a transform of d = u·m·v: ``Lattice._discriminant``
    reads u and v of one decomposition (the rows of u over the elementary
    divisors lift the generators, and a dual vector's coefficients are
    x·G·v) and ``_complete_to_basis`` reads v (v⁻¹ completes a primitive
    basis)."""
    callers = _callers("snf")
    assert callers == [
        "isotropic._complete_to_basis",
        "lattices.Lattice._discriminant",
    ], callers


def test_inverse_only_in_basis_completion():
    """No caller inverts a matrix except to complete a basis: the
    discriminant coefficients x·u⁻¹·d are read as x·G·v instead."""
    callers = _callers("inverse")
    assert callers == ["isotropic._complete_to_basis"], callers


def test_slice_and_models_built_only_in_cached_helpers():
    """L and the boundary models are built only by two parameterless
    cached helpers, so no classification, certificate check or scan
    rebuilds them, nor their discriminant forms and element tables."""
    tree = ast.parse((PACKAGE / "isotropic.py").read_text(encoding="utf-8"))
    scopes = sorted({scope for name in ("transcendental_slice", "Zpq", "hyperbolic")
                     for scope, _ in _calls(tree, name)})
    assert scopes == ["_slice", "boundary_models"], scopes
    helpers = [node for node in tree.body
               if isinstance(node, ast.FunctionDef) and node.name in scopes]
    assert len(helpers) == 2
    for node in helpers:
        a = node.args
        assert not (a.posonlyargs or a.args or a.kwonlyargs or a.vararg or a.kwarg), node.name
        assert "unbounded" in map(_cache_size, node.decorator_list), node.name


def test_integer_diagonalization_and_short_vectors():
    """The Fincke-Pohst route runs on the Bareiss pivots and rows:
    ``Fraction`` is named in none of the scopes below, and in
    ``short_vectors`` itself once, to read the norm at entry."""
    tree = ast.parse((PACKAGE / "lattices.py").read_text(encoding="utf-8"))
    functions = {
        f"{scope}.{node.name}" if scope else node.name
        for scope, node in _scoped(tree, lambda node: isinstance(node, ast.FunctionDef))
    }
    integer = ("_diagonalize", "definite_isometries", "short_vectors.rec")
    assert set(integer) <= functions, functions
    named = Counter(scope for scope, _ in _scoped(
        tree, lambda node: isinstance(node, ast.Name) and node.id == "Fraction"))
    offending = [scope for scope in named if scope and scope.startswith(integer)]
    assert not offending, offending
    assert named["short_vectors"] == 1, named


FRACTION_VIEWS = ("entry", "column", "data", "from_columns")

# Every scope that reads a Fraction view: the text forms of a Matrix,
# which print its entries as "p/q".
FRACTION_BOUNDARY_SCOPES = [
    "matrices.Matrix.__repr__",
    "matrices.Matrix.to_json",
]


def test_fraction_views_only_at_the_boundary():
    """Every module, the CLI included, reads a Matrix's integer rows
    ``num`` over ``den``.  The Fraction views ``entry``, ``column`` and
    ``data``, and ``Matrix.from_columns``, appear only in the scopes
    named above."""
    scopes = sorted({
        f"{path.stem}.{scope}"
        for path in MODULES
        for scope, _ in _scoped(
            ast.parse(path.read_text(encoding="utf-8")),
            lambda node: isinstance(node, ast.Attribute) and node.attr in FRACTION_VIEWS,
        )
    })
    assert scopes == FRACTION_BOUNDARY_SCOPES, scopes


def _cache_size(decorator):
    """The size of a ``cache`` or ``lru_cache`` decorator, bare or as an
    attribute of ``functools``: "unbounded" for ``cache`` and maxsize
    None, an int otherwise; None for any other decorator."""
    call = decorator if isinstance(decorator, ast.Call) else None
    target = call.func if call else decorator
    name = getattr(target, "id", getattr(target, "attr", None))
    if name == "cache":
        return "unbounded"
    if name != "lru_cache":
        return None
    size = call.args[:1] + [kw.value for kw in call.keywords if kw.arg == "maxsize"] if call else []
    size = ast.literal_eval(size[0]) if size else 128  # lru_cache's default
    return "unbounded" if size is None else size


def _cached_functions(tree):
    """The functions outside any function (module level or in a class)
    that cache their calls: (node, size) pairs, ``_cache_size``'s size."""
    todo = list(tree.body)
    while todo:
        node = todo.pop()
        if isinstance(node, ast.ClassDef):
            todo += node.body
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            for size in map(_cache_size, node.decorator_list):
                if size is not None:
                    yield node, size


def _unbounded_caches(tree):
    """Names of the functions outside any function (module level or in a
    class) that take parameters and cache their calls without bound."""
    found = []
    for node, size in _cached_functions(tree):
        a = node.args
        takes = a.posonlyargs + a.args + a.kwonlyargs + [a.vararg, a.kwarg]
        if any(takes) and size == "unbounded":
            found.append(node.name)
    return sorted(found)


def test_no_unbounded_input_caches():
    """Parameterless caches (``isotropic._signed_permutations``) and
    caches local to one call (``vectors_of_norm``) are allowed."""
    sample = ast.parse(
        "@functools.cache\ndef a(x): pass\n"
        "@lru_cache(maxsize=None)\ndef b(x): pass\n"
        "class C:\n    @lru_cache(None)\n    def c(self): pass\n"
        "@cache\ndef d(): pass\n"
        "@lru_cache(maxsize=1)\ndef e(x): pass\n"
        "def f(x):\n    @cache\n    def g(y): pass\n"
    )
    assert _unbounded_caches(sample) == ["a", "b", "c"]
    offending = [
        f"{path.stem}.{name}"
        for path in MODULES
        for name in _unbounded_caches(ast.parse(path.read_text(encoding="utf-8")))
    ]
    assert not offending, offending


# every cache outside a function, with its size: the one-entry memos of
# the last system and of the last configuration's zero minors, the
# canonical columns of the last two configurations, the 168 elements of
# GL3(F2), and the parameterless builders
PINNED_CACHES = {
    "configs._gale_dual": 1,
    "configs._gl3f2_preimages": 168,
    "configs._recent_canonical_columns": 2,
    "configs._zero_triples": 1,
    "isotropic._signed_permutations": "unbounded",
    "isotropic._slice": "unbounded",
    "isotropic.boundary_models": "unbounded",
    "jacobian._system_data": 1,
}


def test_every_cache_is_pinned():
    """A new cache, or a resized one, could let a benchmark time cached
    results, so it needs an edit of ``PINNED_CACHES``."""
    sample = ast.parse(
        "@functools.lru_cache\ndef a(x): pass\n"
        "@lru_cache(2)\ndef b(x): pass\n"
        "class C:\n    @lru_cache(maxsize=None, typed=True)\n    def c(self): pass\n"
        "@cache\ndef d(): pass\n"
        "@staticmethod\ndef e(x): pass\n"
        "def f(x):\n    @lru_cache(1)\n    def g(y): pass\n"
    )
    assert sorted((node.name, size) for node, size in _cached_functions(sample)) == [
        ("a", 128), ("b", 2), ("c", "unbounded"), ("d", "unbounded"),
    ]
    found = {
        f"{path.stem}.{node.name}": size
        for path in MODULES
        for node, size in _cached_functions(ast.parse(path.read_text(encoding="utf-8")))
    }
    assert found == PINNED_CACHES
