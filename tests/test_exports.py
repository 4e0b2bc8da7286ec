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


def references(tree: ast.Module, own: "str | None", called=frozenset()) -> "set[tuple[str, str]]":
    """(module, name) pairs a file's tree refers to: `from .mod import name`,
    `mod.name` through any alias of a metarl module, and, inside metarl
    module `own`, the bare names read by module-level code or by a top-level
    def or class whose (own, name) is in `called`. The package's own
    re-exports and string constants (`__all__`, docstrings) are not
    references."""
    aliases: "dict[str, str]" = {}
    refs: "set[tuple[str, str]]" = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            source = _metarl_module(node, own)
            if source is None or own == "__init__":
                continue
            for alias in node.names:
                if source == "" and alias.name in SUBMODULES:
                    aliases[alias.asname or alias.name] = alias.name
                else:
                    refs.add((source or "__init__", alias.name))
        elif isinstance(node, ast.Import):
            for alias in node.names:
                package, _, module = alias.name.partition(".")
                if package == "metarl" and module in SUBMODULES and alias.asname:
                    aliases[alias.asname] = module
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
