"""The package's public surface."""

import importlib
import pkgutil

import unselect


def test_every_export_resolves_is_public_and_the_package_reexports_module_exports():
    modules = [importlib.import_module(f"unselect.{info.name}")
               for info in pkgutil.iter_modules(unselect.__path__)]
    exported = set()
    for module in [*modules, unselect]:
        names = getattr(module, "__all__", [])
        for name in names:
            assert hasattr(module, name), f"{module.__name__}.__all__ lists missing {name!r}"
            assert not name.startswith("_"), f"{module.__name__}.__all__ lists private {name!r}"
        if module is not unselect:
            exported.update(names)
    assert set(unselect.__all__) <= exported, set(unselect.__all__) - exported
