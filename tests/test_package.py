import ast
import importlib
import importlib.util
import os
import pkgutil
import types

import leray

TRACING = os.path.join(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))), "perfbench", "tracing.py")


def test_submodule_attributes_are_modules():
    import leray.cohomology as m
    assert isinstance(m, types.ModuleType)
    for info in pkgutil.iter_modules(leray.__path__):
        importlib.import_module("leray." + info.name)
        assert isinstance(getattr(leray, info.name), types.ModuleType), \
            info.name


def test_tracer_targets_exist():
    """Every (module, attribute) the benchmark tracer wraps exists, so
    renaming or deleting a traced name fails here and not in a traced
    benchmark run.  A method must be defined on its class itself: the
    tracer patches it in the class __dict__."""
    spec = importlib.util.spec_from_file_location("_leray_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    assert tracing.SPANS
    for name, module, attr in tracing.SPANS:
        owner = importlib.import_module(module)
        if "." in attr:
            cls_name, meth = attr.split(".")
            cls = getattr(owner, cls_name, None)
            assert isinstance(cls, type), (name, module, attr)
            assert callable(vars(cls).get(meth)), (name, module, attr)
        else:
            assert callable(getattr(owner, attr, None)), (name, module, attr)


def test_every_import_is_used():
    """Every name a module of the package imports is used in it."""
    package = os.path.dirname(leray.__file__)
    unused = []
    for info in pkgutil.iter_modules(leray.__path__):
        path = os.path.join(package, info.name + ".py")
        with open(path, encoding="utf-8") as f:
            tree = ast.parse(f.read())
        imported = {}
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and \
                    node.module == "__future__":
                continue
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                for alias in node.names:
                    name = alias.asname or alias.name.split(".")[0]
                    imported[name] = node.lineno
        used = {node.id for node in ast.walk(tree)
                if isinstance(node, ast.Name)}
        unused += ["%s:%d %s" % (info.name, line, name)
                   for name, line in imported.items() if name not in used]
    assert not unused
