import importlib
import pkgutil
import types

import leray


def test_submodule_attributes_are_modules():
    import leray.cohomology as m
    assert isinstance(m, types.ModuleType)
    for info in pkgutil.iter_modules(leray.__path__):
        importlib.import_module("leray." + info.name)
        assert isinstance(getattr(leray, info.name), types.ModuleType), \
            info.name
