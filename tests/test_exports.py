"""Every public export of the ``repro`` package resolves.

A module's ``__all__`` is its advertised API.  A name listed there whose
definition was deleted or renamed only fails at ``from module import *`` or
at a caller's first use, so this test imports every ``repro`` module and
resolves each exported name.
"""

import importlib
import pkgutil

import pytest

import repro


def _modules_with_all():
    names = [repro.__name__] + [
        info.name for info in pkgutil.walk_packages(repro.__path__, prefix="repro.")
    ]
    modules = [importlib.import_module(name) for name in sorted(names)]
    return [module for module in modules if hasattr(module, "__all__")]


EXPORTING = _modules_with_all()


def test_every_subpackage_declares_its_exports():
    packages = {module.__name__ for module in EXPORTING}
    assert "repro" in packages
    for info in pkgutil.iter_modules(repro.__path__):
        if info.ispkg:
            assert f"repro.{info.name}" in packages


@pytest.mark.parametrize("module", EXPORTING, ids=lambda module: module.__name__)
def test_every_exported_name_resolves(module):
    exported = list(module.__all__)
    assert len(exported) == len(set(exported)), f"{module.__name__}.__all__ repeats a name"
    missing = [name for name in exported if not hasattr(module, name)]
    assert not missing, f"{module.__name__}.__all__ names undefined {missing}"
