"""Each harrisproc module's __all__ names what the module defines, once."""

import importlib
import pkgutil
from collections import Counter

import pytest

import harrisproc

MODULES = [harrisproc] + [
    importlib.import_module(f"harrisproc.{info.name}")
    for info in pkgutil.iter_modules(harrisproc.__path__)]
EXPORTING = [module for module in MODULES if hasattr(module, "__all__")]


def test_the_modules_that_export_are_found():
    assert {module.__name__.rpartition(".")[2] for module in EXPORTING} >= {
        "acceptance", "birth", "distribution", "mixture", "reporting",
        "sampling", "validation"}


@pytest.mark.parametrize("module", EXPORTING, ids=lambda module: module.__name__)
def test_every_exported_name_resolves_once(module):
    assert [name for name in module.__all__ if not hasattr(module, name)] == []
    assert [name for name, count in Counter(module.__all__).items() if count > 1] == []
