"""Every name a module lists in ``__all__`` resolves, and every name the
package re-exports is a public name of the module that defines it, so a
removal cannot leave a stale export behind. Importing the cli loads no
scipy beyond the top-level package."""

import importlib
import os
import pkgutil
import subprocess
import sys
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


def test_importing_the_cli_loads_no_scipy_beyond_the_top_level_package():
    # scipy.signal alone drags in scipy.stats, scipy.linalg and scipy.sparse,
    # about 1 s and 50 MB that every command and worker would pay at start,
    # and scipy.fft about 0.25 s; the cli reads only scipy.__version__
    path = [os.path.dirname(os.path.dirname(ambidoa.__file__))]
    path += [os.environ["PYTHONPATH"]] if os.environ.get("PYTHONPATH") else []
    code = ("import sys, scipy; before = set(sys.modules); import ambidoa.cli; "
            "print(*sorted(m for m in set(sys.modules) - before if m.startswith('scipy')))")
    run = subprocess.run([sys.executable, "-c", code],
                         env={**os.environ, "PYTHONPATH": os.pathsep.join(path)},
                         capture_output=True, text=True, check=True)
    assert run.stdout.split() == []
