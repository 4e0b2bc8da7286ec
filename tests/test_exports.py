"""Every name a metarl module lists in `__all__` resolves, and has a caller
in the library or the benchmark.

A deletion that leaves its name in `__all__` breaks
`from metarl.<module> import *`; the first test catches it for every module.
A public name that only tests reach is code kept alive for its tests; the
second test catches it with an AST scan of `src/metarl` and `perfbench/`,
the package's own `__all__` included, so a re-export from the package that
nothing imports that way is caught too. Inside its own module a name is used
only when read by module-level code or by a def or class that has a caller
itself, so a helper of dead code is dead too; assigning a name is no use.

A defaulted parameter that only tests set is an option kept alive for its
tests; the last test catches it: every defaulted parameter of a function a
module's `__all__` lists must be passed, by position or by keyword, by some
call in `src/metarl` or `perfbench/`, its callee resolved as `references`
resolves names, or be allowlisted in UNSET_DEFAULTS with a reason.
"""

import ast
import importlib
import pkgutil
from pathlib import Path

import pytest

import metarl

MODULES = ["metarl"] + [f"metarl.{m.name}" for m in pkgutil.iter_modules(metarl.__path__)]

REPO = Path(__file__).resolve().parents[1]
PACKAGE = REPO / "src" / "metarl"
SUBMODULES = {p.stem for p in PACKAGE.glob("*.py")} - {"__init__"}
SCANNED = sorted(PACKAGE.glob("*.py")) + sorted((REPO / "perfbench").glob("*.py"))
# (syntax tree, the metarl module it defines or None) of every scanned file
LIBRARY = [
    (ast.parse(path.read_text(encoding="utf-8")), path.stem if path.parent == PACKAGE else None)
    for path in SCANNED
]

# (module, name) -> why it stays public without a library caller
NO_LIBRARY_CALLER: "dict[tuple[str, str], str]" = {}


@pytest.mark.parametrize("name", MODULES)
def test_every_all_entry_resolves(name):
    module = importlib.import_module(name)
    exported = getattr(module, "__all__", ())  # no __all__: nothing to check
    missing = [entry for entry in exported if not hasattr(module, entry)]
    assert not missing, f"{name}.__all__ lists names it does not define: {missing}"
    assert len(set(exported)) == len(exported), f"{name}.__all__ repeats a name"
    namespace: dict = {}
    exec(f"from {name} import *", namespace)
    assert set(exported) <= set(namespace)


def _metarl_module(node: ast.ImportFrom, own: "str | None") -> "str | None":
    """The metarl module an import reads from: '' for the package itself,
    None for anything outside metarl."""
    if node.level == 1 and own is not None:
        return node.module or ""
    if node.level == 0 and node.module and node.module.split(".")[0] == "metarl":
        return node.module.partition(".")[2]
    return None


def imports(tree: ast.Module, own: "str | None") -> "tuple[dict[str, str], dict[str, tuple[str, str]]]":
    """The local names a file binds by importing from metarl: each alias of
    a metarl module (name -> module), and each name a `from` import binds
    (name -> (module, imported name)). The package's own imports are its
    re-exports, not uses, and bind nothing here."""
    aliases: "dict[str, str]" = {}
    imported: "dict[str, tuple[str, str]]" = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            source = _metarl_module(node, own)
            if source is None or own == "__init__":
                continue
            for alias in node.names:
                if source == "" and alias.name in SUBMODULES:
                    aliases[alias.asname or alias.name] = alias.name
                else:
                    imported[alias.asname or alias.name] = (source or "__init__", alias.name)
        elif isinstance(node, ast.Import):
            for alias in node.names:
                package, _, module = alias.name.partition(".")
                if package == "metarl" and module in SUBMODULES and alias.asname:
                    aliases[alias.asname] = module
    return aliases, imported


def references(tree: ast.Module, own: "str | None", called=frozenset()) -> "set[tuple[str, str]]":
    """(module, name) pairs a file's tree refers to: `from .mod import name`,
    `mod.name` through any alias of a metarl module, and, inside metarl
    module `own`, the bare names read by module-level code or by a top-level
    def or class whose (own, name) is in `called`. The package's own
    re-exports and string constants (`__all__`, docstrings) are not
    references."""
    aliases, imported = imports(tree, own)
    refs: "set[tuple[str, str]]" = set(imported.values())
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
            if node.value.id in aliases:
                refs.add((aliases[node.value.id], node.attr))
    if own is not None:
        for top in tree.body:
            defined = getattr(top, "name", None)  # a def or class; None for module-level code
            if defined is None or (own, defined) in called:
                refs.update(
                    (own, n.id) for n in ast.walk(top)
                    if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)
                )
    return refs


def all_references(files) -> "set[tuple[str, str]]":
    """The references of every (tree, own) file, grown until no def gains
    a caller (a def's uses count only once the def is used)."""
    refs: "set[tuple[str, str]]" = set()
    while True:
        found = set().union(*(references(tree, own, refs) for tree, own in files))
        if found == refs:
            return refs
        refs = found


def exported(tree: ast.Module) -> "list[str]":
    for top in tree.body:
        targets = top.targets if isinstance(top, ast.Assign) else ()
        if any(getattr(t, "id", None) == "__all__" for t in targets):
            return [ast.literal_eval(elt) for elt in top.value.elts]
    return []


def unused_public_names(files) -> "list[tuple[str, str]]":
    """(module, name) for each name a metarl module's `__all__` lists that
    no file refers to; the package itself is module "__init__"."""
    refs = all_references(files)
    return [
        (own, name)
        for tree, own in files
        if own is not None
        for name in exported(tree)
        if (own, name) not in refs
    ]


SYNTHETIC = ast.parse("""
__all__ = ["entry", "helper", "orphan_helper"]

def helper():
    return 1

def orphan_helper():
    return 2

def entry():
    return helper()

def uncalled():
    return orphan_helper()

VALUE = entry()
""")


def test_a_name_used_only_by_an_uncalled_def_is_reported():
    refs = all_references([(SYNTHETIC, "synthetic")])
    assert {("synthetic", "entry"), ("synthetic", "helper")} <= refs
    assert ("synthetic", "orphan_helper") not in refs
    assert unused_public_names([(SYNTHETIC, "synthetic")]) == [("synthetic", "orphan_helper")]


PACKAGE_REEXPORT = ast.parse("""
from .meta import train

__version__ = "0.1.0"
__all__ = ["__version__", "train"]
""")


def test_a_package_name_nothing_imports_from_the_package_is_reported():
    caller = ast.parse("from . import __version__\n")
    files = [(PACKAGE_REEXPORT, "__init__"), (caller, "meta")]
    assert unused_public_names(files) == [("__init__", "train")]


def test_every_public_name_has_a_library_caller():
    unused = unused_public_names(LIBRARY)
    uncalled = [f"{m}.{n}" for m, n in unused if (m, n) not in NO_LIBRARY_CALLER]
    assert not uncalled, f"public names no library or benchmark code uses: {uncalled}"
    public = {(own, name) for tree, own in LIBRARY for name in exported(tree)}
    stale = [f"{m}.{n}" for m, n in NO_LIBRARY_CALLER if (m, n) not in public or (m, n) not in unused]
    assert not stale, f"allowlisted names that are gone or now have a caller: {stale}"


# (module, function, parameter) -> why the default stays settable with no
# library or benchmark call setting it
UNSET_DEFAULTS: "dict[tuple[str, str, str], str]" = {}


def passed_parameters(tree: ast.Module, own: "str | None", signatures) -> "set[tuple[str, str, str]]":
    """(module, function, parameter) for every parameter that some call in
    the file passes, by position or by keyword, to a function in
    `signatures`, which maps (module, function) to its ast.arguments. The
    callee is resolved as `references` resolves names: `mod.name` through a
    module alias, a name a `from` import binds, or, inside metarl module
    `own`, a bare name. A `*args` passes every positional parameter from
    its place on; a `**kwargs` passes every parameter."""
    aliases, imported = imports(tree, own)
    passed: "set[tuple[str, str, str]]" = set()
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        if isinstance(func, ast.Attribute) and isinstance(func.value, ast.Name) and func.value.id in aliases:
            callee = (aliases[func.value.id], func.attr)
        elif isinstance(func, ast.Name):
            callee = imported.get(func.id, (own, func.id))
        else:
            continue
        if callee not in signatures:
            continue
        args = signatures[callee]
        positional = [a.arg for a in args.posonlyargs + args.args]
        everything = positional + [a.arg for a in args.kwonlyargs]
        names: "list[str]" = []
        for i, arg in enumerate(node.args):
            names += positional[i:] if isinstance(arg, ast.Starred) else positional[i : i + 1]
        for kw in node.keywords:
            names += everything if kw.arg is None else [kw.arg]
        passed.update((*callee, name) for name in names)
    return passed


def defaulted_parameters(tree: ast.Module, own: str) -> "list[tuple[str, str, str]]":
    """(own, function, parameter) for each parameter that has a default, of
    each top-level function the module's `__all__` lists."""
    public = set(exported(tree))
    found = []
    for top in tree.body:
        if isinstance(top, ast.FunctionDef) and top.name in public:
            args = top.args
            positional = args.posonlyargs + args.args
            defaulted = positional[len(positional) - len(args.defaults):]
            defaulted += [a for a, d in zip(args.kwonlyargs, args.kw_defaults) if d is not None]
            found += [(own, top.name, a.arg) for a in defaulted]
    return found


def unset_defaults(files) -> "list[tuple[str, str, str]]":
    """(module, function, parameter) for each defaulted parameter of a
    public function that no call in `files` passes."""
    signatures = {
        (own, top.name): top.args
        for tree, own in files
        if own is not None
        for top in tree.body
        if isinstance(top, ast.FunctionDef)
    }
    passed = set().union(*(passed_parameters(tree, own, signatures) for tree, own in files))
    return [
        param
        for tree, own in files
        if own is not None
        for param in defaulted_parameters(tree, own)
        if param not in passed
    ]


DEFAULTS = ast.parse("""
__all__ = ["solve", "helper"]

def solve(x, steps=3, *, tol=1e-6, verbose=False):
    return helper(x, steps)

def helper(x, scale=1.0, shift=0.0):
    return x

def private(x, flag=True):
    return x
""")


def test_a_defaulted_parameter_no_call_sets_is_reported():
    caller = ast.parse("from .synthetic import solve\nsolve(1, tol=1e-3)\n")
    files = [(DEFAULTS, "synthetic"), (caller, "other")]
    # solve's own bare call to helper sets helper's `scale` by position;
    # `private` is not public, so its default is not checked.
    assert unset_defaults(files) == [
        ("synthetic", "solve", "steps"),
        ("synthetic", "solve", "verbose"),
        ("synthetic", "helper", "shift"),
    ]
    spread = ast.parse("from .synthetic import helper, solve as run\nrun(*xs, **kw)\nhelper(1, 2.0, 0.5)\n")
    assert unset_defaults([(DEFAULTS, "synthetic"), (spread, "other")]) == []


def test_every_defaulted_parameter_has_a_library_caller_that_sets_it():
    unset = unset_defaults(LIBRARY)
    unexplained = [".".join(p) for p in unset if p not in UNSET_DEFAULTS]
    assert not unexplained, f"defaulted parameters no library or benchmark call sets: {unexplained}"
    stale = [".".join(p) for p in UNSET_DEFAULTS if p not in unset]
    assert not stale, f"allowlisted parameters that are gone or now set: {stale}"
