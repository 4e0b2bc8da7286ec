"""Every name a metarl module lists in `__all__` resolves.

A deletion that leaves its name in `__all__` breaks
`from metarl.<module> import *`; this catches it for every module.
"""

import importlib
import pkgutil

import pytest

import metarl

MODULES = ["metarl"] + [f"metarl.{m.name}" for m in pkgutil.iter_modules(metarl.__path__)]


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
