import ast
import importlib
import importlib.util
import os
import pkgutil
import subprocess
import sys
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


# Runs in a fresh interpreter, given the source directory in argv:
# prints the modules of interest that importing the CLI loads.
_IMPORT_PROBE = """
import sys
sys.path.insert(0, sys.argv[1])
before = set(sys.modules)
import leray.cli
print(" ".join(m for m in ("dataclasses", "inspect")
               if m in sys.modules and m not in before))
"""


def test_importing_the_cli_loads_no_dataclasses_or_inspect():
    """Every run pays for what ``import leray.cli`` loads: the package
    keeps its records as plain classes, so neither ``dataclasses`` nor
    the ``inspect`` it pulls in is imported.  Modules the interpreter's
    site had loaded already are not counted."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(leray.__file__)))
    res = subprocess.run([sys.executable, "-I", "-c", _IMPORT_PROBE, src],
                         capture_output=True, text=True, timeout=60,
                         check=True)
    assert res.stdout.split() == []


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


# Public names no command reaches, each kept for a stated reader.
UNREACHED_BY_DESIGN = {
    # Read by the benchmark harness, which records the kernel in use.
    ("_kernel", "BACKEND"),
}


def _module_definitions(tree):
    """{name: node} for the module-level definitions and assignments,
    and {name: (module, name)} for the module-level relative imports."""
    defs, imports = {}, {}
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            defs[node.name] = node
        elif isinstance(node, ast.Assign):
            for target in node.targets:
                if isinstance(target, ast.Name):
                    defs[target.id] = node
        elif isinstance(node, ast.ImportFrom) and node.level:
            for alias in node.names:
                imports[alias.asname or alias.name] = (node.module,
                                                       alias.name)
    return defs, imports


def test_every_public_name_is_reached_from_main():
    """Every public module-level name of the package is reached from
    ``cli.main``: it appears, as a name or a relative import, in the
    body of a definition that is reached, starting from ``main``."""
    package = os.path.dirname(leray.__file__)
    modules = {}
    for info in pkgutil.iter_modules(leray.__path__):
        with open(os.path.join(package, info.name + ".py"),
                  encoding="utf-8") as f:
            modules[info.name] = _module_definitions(ast.parse(f.read()))
    reached, todo = set(), [("cli", "main")]
    while todo:
        module, name = todo.pop()
        if (module, name) in reached:
            continue
        reached.add((module, name))
        defs, imports = modules[module]
        for node in ast.walk(defs[name]):
            if isinstance(node, ast.Name):
                if node.id in defs:
                    todo.append((module, node.id))
                elif node.id in imports:
                    todo.append(imports[node.id])
            elif isinstance(node, ast.ImportFrom) and node.level:
                todo += [(node.module, alias.name) for alias in node.names]
    unreached = {(module, name) for module, (defs, _) in modules.items()
                 for name in defs if not name.startswith("_")} - reached
    assert sorted(unreached - UNREACHED_BY_DESIGN) == []
    assert sorted(UNREACHED_BY_DESIGN - unreached) == []
