"""Every name a metarl module lists in `__all__` resolves, and has a caller
in the library or the benchmark.

A deletion that leaves its name in `__all__` breaks
`from metarl.<module> import *`; the first test catches it for every module.
A public name that only tests reach is code kept alive for its tests; the
second test catches it with an AST scan of `src/metarl` and `perfbench/`.
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

# (module, name) -> why it stays public without a library caller
NO_LIBRARY_CALLER = {
    ("rl", "rollout"): "the solo-episode reference the lockstep rollout tests compare against",
    ("envs", "empirical_medium"): "acceptance criterion 3's reference for the medium task",
    ("autodiff", "matmul"): "the 1-D/2-D product node that criterion 2, the quadratic oracles "
    "and the golden composite build their objectives with",
    ("autodiff", "powc"): "the constant-power node the golden composite builds its objective with",
}


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


def references(path: Path) -> "set[tuple[str, str]]":
    """(module, name) pairs the file refers to: `from .mod import name`,
    `mod.name` through any alias of a metarl module, and, inside a metarl
    module, the bare names it uses outside their own definition. The
    package's own re-exports and string constants (`__all__`, docstrings)
    are not references."""
    own = path.stem if path.parent == PACKAGE else None
    tree = ast.parse(path.read_text(encoding="utf-8"))
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
                elif source:
                    refs.add((source, alias.name))
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
            defined = getattr(top, "name", None)  # a def or class naming itself is no use
            names = (n.id for n in ast.walk(top) if isinstance(n, ast.Name))
            refs.update((own, n) for n in names if n != defined)
    return refs


def exported(module: str) -> "list[str]":
    tree = ast.parse((PACKAGE / f"{module}.py").read_text(encoding="utf-8"))
    for top in tree.body:
        targets = top.targets if isinstance(top, ast.Assign) else ()
        if any(getattr(t, "id", None) == "__all__" for t in targets):
            return [ast.literal_eval(elt) for elt in top.value.elts]
    return []


def test_every_public_name_has_a_library_caller():
    refs = set().union(*(references(path) for path in SCANNED))
    uncalled = [
        f"{module}.{name}"
        for module in sorted(SUBMODULES)
        for name in exported(module)
        if (module, name) not in refs and (module, name) not in NO_LIBRARY_CALLER
    ]
    assert not uncalled, f"public names no library or benchmark code uses: {uncalled}"
    stale = [f"{m}.{n}" for m, n in NO_LIBRARY_CALLER if n not in exported(m) or (m, n) in refs]
    assert not stale, f"allowlisted names that are gone or now have a caller: {stale}"
