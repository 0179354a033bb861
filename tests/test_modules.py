"""Module boundaries: no module of the package imports another's private
(underscore) name, so each decision sits behind its module's public calls,
and only dplqg.output spells the CSV line ending."""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "dplqg"


def _private_imports(path):
    """(line, module, name) of each `from .mod import _name` or
    `from dplqg.mod import _name` in a source file; dunders are public."""
    found = []
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        if not isinstance(node, ast.ImportFrom):
            continue
        module = node.module or ""
        if not (node.level > 0 or module == "dplqg" or module.startswith("dplqg.")):
            continue
        for alias in node.names:
            name = alias.name
            if name.startswith("_") and not (name.startswith("__") and name.endswith("__")):
                found.append((node.lineno, "." * node.level + module, name))
    return found


def test_no_module_imports_a_private_name_of_another():
    sources = sorted(PACKAGE.glob("*.py"))
    assert len(sources) >= 10
    offenders = [f"{path.name}:{line}: from {module} import {name}"
                 for path in sources for line, module, name in _private_imports(path)]
    assert not offenders, "\n".join(offenders)


def test_private_imports_are_found(tmp_path):
    # the check itself: each spelling of a private import is caught, and
    # public names, dunders and other packages' names pass
    source = tmp_path / "probe.py"
    source.write_text(
        "from .network import _lockstep, run_simulation\n"
        "from dplqg.riccati import _as_pair as pair\n"
        "from . import _private\n"
        "from .output import __all__\n"
        "from numpy import _globals\n"
    )
    assert _private_imports(source) == [(1, ".network", "_lockstep"),
                                        (2, "dplqg.riccati", "_as_pair"),
                                        (3, ".", "_private")]


def _crlf_modules():
    """Names of the package's modules whose code holds a string constant
    with a CRLF line ending in it."""
    return sorted(path.name for path in PACKAGE.glob("*.py")
                  if any(isinstance(node, ast.Constant) and isinstance(node.value, str)
                         and "\r\n" in node.value
                         for node in ast.walk(ast.parse(path.read_text(), str(path)))))


def test_only_output_writes_csv_line_endings():
    # The CSV byte rules sit in dplqg.output alone: every other module
    # writes and checks CSV rows through its row template.
    assert _crlf_modules() == ["output.py"]


AGGREGATES = {"A", "B", "C", "W", "V"}


def _aggregate_subscripts(function):
    """(line, name) of each subscript of model.A, .B, .C, .W or .V in a
    function's ast, directly or through a name assigned from one."""
    def aggregate(node):
        return (isinstance(node, ast.Attribute) and node.attr in AGGREGATES
                and isinstance(node.value, ast.Name) and node.value.id == "model")

    aliases = set()
    for node in ast.walk(function):
        if isinstance(node, ast.Assign):
            for target in node.targets:
                pairs = ((target, node.value),)
                if isinstance(target, ast.Tuple) and isinstance(node.value, ast.Tuple):
                    pairs = zip(target.elts, node.value.elts)
                aliases |= {t.id for t, v in pairs if isinstance(t, ast.Name) and aggregate(v)}
    return [(node.lineno, ast.unparse(node.value)) for node in ast.walk(function)
            if isinstance(node, ast.Subscript) and (aggregate(node.value) or (
                isinstance(node.value, ast.Name) and node.value.id in aliases))]


def _function(path, name):
    tree = ast.parse(path.read_text(), str(path))
    return next(node for node in tree.body
                if isinstance(node, ast.FunctionDef) and node.name == name)


def test_the_engine_reads_the_models_blocks_not_its_aggregates():
    # The lockstep engine steps the model's stacks and factors each W_i
    # from its blocks; it may pass the aggregates whole, as to the filter
    # step, but never slices a block back out of them.
    assert _aggregate_subscripts(_function(PACKAGE / "network.py", "_lockstep")) == []


def test_aggregate_subscripts_are_found(tmp_path):
    # the check itself: direct, aliased and unpacked subscripts are caught,
    # and whole aggregates, other objects' attributes and the stacks pass
    source = tmp_path / "probe.py"
    source.write_text(
        "def engine(model, other):\n"
        "    A, Q = model.A, model.Q\n"
        "    W = model.W\n"
        "    f(model.V[0], A[0, 0], W[1:], Q[0], model.C, other.B[0], model.stacks[0])\n"
    )
    assert _aggregate_subscripts(_function(source, "engine")) == [
        (4, "model.V"), (4, "A"), (4, "W")]
