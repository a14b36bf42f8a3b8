"""Every exported name exists: a deleted definition left in an ``__all__``
fails here instead of breaking ``from casimir_spheres... import *``."""

import importlib
import pkgutil

import casimir_spheres


def test_every_all_name_resolves_once():
    modules = [casimir_spheres] + [
        importlib.import_module(f"casimir_spheres.{info.name}")
        for info in pkgutil.iter_modules(casimir_spheres.__path__)]
    for mod in modules:
        names = getattr(mod, "__all__", [])
        assert len(names) == len(set(names)), mod.__name__
        missing = [n for n in names if not hasattr(mod, n)]
        assert not missing, (mod.__name__, missing)
