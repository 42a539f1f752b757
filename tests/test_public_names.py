"""Every name that the package or one of its modules lists in ``__all__`` is
defined there: a stale entry fails ``from hybridsim import *`` but no other
test.  The package lists exactly its modules' names and ``__version__``."""

import importlib
import pkgutil

import pytest

import hybridsim

MODULES = [hybridsim] + [
    importlib.import_module(f"hybridsim.{info.name}")
    for info in pkgutil.iter_modules(hybridsim.__path__)
]


@pytest.mark.parametrize(
    "module",
    [m for m in MODULES if hasattr(m, "__all__")],
    ids=lambda m: m.__name__,
)
def test_every_listed_name_is_defined(module):
    names = module.__all__
    assert [name for name in names if not hasattr(module, name)] == []
    assert len(set(names)) == len(names)


def test_package_exports_its_modules_names():
    listed = [name for m in MODULES[1:] for name in getattr(m, "__all__", ())]
    assert sorted(hybridsim.__all__) == sorted([*listed, "__version__"])
    assert len(set(hybridsim.__all__)) == len(hybridsim.__all__)
