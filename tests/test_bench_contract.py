"""The benchmark's view of the package: every public name bench/measure.py
uses must exist.

bench/ is outside the default test paths, so a rename or removal there
would go unnoticed until the benchmark runs. This test reads the file with
ast, without importing or running it.
"""

import ast
import importlib
import types
from pathlib import Path

MEASURE = Path(__file__).resolve().parent.parent / "bench" / "measure.py"


def _resolve(module, name):
    """What `from module import name` binds, as Python resolves it: an
    attribute of the module, else its submodule; None if neither exists."""
    value = getattr(importlib.import_module(module), name, None)
    if value is None:
        try:
            value = importlib.import_module(f"{module}.{name}")
        except ModuleNotFoundError:
            pass
    return value


def _package_names(tree):
    """(module, name) of each `from dplqg... import name`, and the local
    names bound to dplqg modules by those imports and `import dplqg...`."""
    imported, modules = [], {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "dplqg":
            for alias in node.names:
                imported.append((node.module, alias.name))
                value = _resolve(node.module, alias.name)
                if isinstance(value, types.ModuleType):
                    modules[alias.asname or alias.name] = value
        elif isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.split(".")[0] == "dplqg":
                    modules[alias.asname or alias.name] = importlib.import_module(alias.name)
    return imported, modules


def test_bench_imports_and_module_attributes_resolve():
    tree = ast.parse(MEASURE.read_text(), filename=str(MEASURE))
    imported, modules = _package_names(tree)
    missing = [f"{module}.{name}" for module, name in imported
               if _resolve(module, name) is None]
    used = {(node.value.id, node.attr) for node in ast.walk(tree)
            if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
            and node.value.id in modules}
    missing += [f"{local}.{attr}" for local, attr in sorted(used)
                if not hasattr(modules[local], attr)]
    assert not missing, f"bench/measure.py uses names the package lacks: {missing}"
    # the check is not vacuous: the names the benchmark depends on are seen
    assert {("dplqg.lqg", "synthesize"), ("dplqg.network", "assemble_network"),
            ("dplqg.riccati", "solve_dare_filter")} <= set(imported)
    assert {("cli", "main"), ("cli", "DEFAULT_SWEEP_GRID")} <= used
