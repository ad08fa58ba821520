"""Every name a module lists in ``__all__`` resolves, and every name the
package re-exports is a public name of the module that defines it, so a
removal cannot leave a stale export behind."""

import importlib
import pkgutil
import types

import pytest

import ambidoa

MODULES = sorted(m.name for m in pkgutil.iter_modules(ambidoa.__path__))


@pytest.mark.parametrize("name", MODULES)
def test_module_all_resolves(name):
    module = importlib.import_module(f"ambidoa.{name}")
    missing = [n for n in getattr(module, "__all__", ()) if not hasattr(module, n)]
    assert not missing, f"ambidoa.{name}.__all__ lists undefined {missing}"


def test_package_exports_are_module_exports():
    exports = {n: obj for n, obj in vars(ambidoa).items()
               if not n.startswith("_") and not isinstance(obj, types.ModuleType)}
    assert exports
    for name, obj in exports.items():
        home = importlib.import_module(obj.__module__)
        assert name in getattr(home, "__all__", ()), \
            f"ambidoa.{name} is not in {obj.__module__}.__all__"
