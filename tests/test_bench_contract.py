"""The benchmark's view of the package: every public name bench/measure.py
uses must exist, every call it makes into the package must bind to the
callee's signature, and every attribute it reads from what the package
returns must exist.

bench/ is outside the default test paths, so a rename or removal there
would go unnoticed until the benchmark runs. These tests read the file with
ast, without importing or running it.
"""

import ast
import importlib
import inspect
import types
from dataclasses import replace
from pathlib import Path

from dplqg.config import build_network, load
from dplqg.lqg import synthesize
from dplqg.network import run_simulation
from dplqg.privacy import sensitivity_bound, verify_dp_inequality

ROOT = Path(__file__).resolve().parent.parent
MEASURE = ROOT / "bench" / "measure.py"


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
    """(module, name) of each `from dplqg... import name`; the local names
    bound to dplqg modules by those imports and `import dplqg...`; and the
    local names bound to the other values those imports resolve to."""
    imported, modules, values = [], {}, {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "dplqg":
            for alias in node.names:
                imported.append((node.module, alias.name))
                value = _resolve(node.module, alias.name)
                if isinstance(value, types.ModuleType):
                    modules[alias.asname or alias.name] = value
                elif value is not None:
                    values[alias.asname or alias.name] = value
        elif isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.split(".")[0] == "dplqg":
                    modules[alias.asname or alias.name] = importlib.import_module(alias.name)
    return imported, modules, values


def test_bench_imports_and_module_attributes_resolve():
    tree = ast.parse(MEASURE.read_text(), filename=str(MEASURE))
    imported, modules, _ = _package_names(tree)
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


def test_bench_calls_bind_to_package_signatures():
    # A parameter the benchmark passes, such as resolve_costs' seed=, must
    # not be removed or renamed. Calls with *args or **kwargs are skipped:
    # what they pass is not known without running the benchmark.
    tree = ast.parse(MEASURE.read_text(), filename=str(MEASURE))
    _, modules, values = _package_names(tree)
    unbound, bound = [], set()
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        if isinstance(func, ast.Name) and func.id in values:
            name, callee = func.id, values[func.id]
        elif (isinstance(func, ast.Attribute) and isinstance(func.value, ast.Name)
              and func.value.id in modules):
            name = f"{func.value.id}.{func.attr}"
            callee = getattr(modules[func.value.id], func.attr, None)
        else:
            continue
        if (callee is None or any(isinstance(arg, ast.Starred) for arg in node.args)
                or any(kw.arg is None for kw in node.keywords)):
            continue  # a missing name fails the test above
        try:
            inspect.signature(callee).bind(
                *node.args, **{kw.arg: kw.value for kw in node.keywords})
        except TypeError as exc:
            unbound.append(f"line {node.lineno}: {name}: {exc}")
        bound.add(name)
    assert not unbound, f"bench/measure.py calls that no longer bind: {unbound}"
    # the check is not vacuous: the calls the benchmark depends on are seen
    assert {"build_network", "resolve_costs", "run_simulation", "synthesize",
            "cli.main"} <= bound


def _returned_objects():
    """A real object of each kind whose attributes bench/measure.py reads,
    keyed by the local name it reads them through: the shipped case study,
    its network, synthesis, a 2-step run, an agent and its privacy audit,
    and, under the names of the lists they sit in, an agent and an audit."""
    cfg = replace(load(ROOT / "configs" / "case_study_2agent.json"), horizon=2)
    model, agents = build_network(cfg)
    syn = synthesize(model)
    ag = agents[0]
    audit = verify_dp_inequality(sensitivity_bound(ag.C, ag.privacy.adjacency_bound),
                                 model.sigmas[0], ag.privacy.epsilon, ag.privacy.delta)
    trace = run_simulation(model, agents, cfg.horizon, cfg.seed, synthesis=syn)
    return {"cfg": cfg, "model": model, "syn": syn, "trace": trace, "ag": ag,
            "audit": audit, "agents": ag, "audits": audit}


def _attribute_reads(tree, names):
    """(name, attr) of each `name.attr` the source reads for a name in
    names. A comprehension variable stands for its iterable's name, so
    `a.n for a in agents` reads agents.n."""
    read = set()
    for node in ast.walk(tree):
        alias = {}
        if isinstance(node, (ast.ListComp, ast.SetComp, ast.GeneratorExp, ast.DictComp)):
            alias = {gen.target.id: gen.iter.id for gen in node.generators
                     if isinstance(gen.target, ast.Name) and isinstance(gen.iter, ast.Name)}
        for sub in ast.walk(node) if alias else [node]:
            if isinstance(sub, ast.Attribute) and isinstance(sub.value, ast.Name):
                name = alias.get(sub.value.id, sub.value.id)
                if name in names:
                    read.add((name, sub.attr))
    return read


def test_bench_attribute_reads_resolve():
    # A renamed field, such as SimulationTrace.x_hat0, must fail here and
    # not only when the benchmark runs.
    tree = ast.parse(MEASURE.read_text(), filename=str(MEASURE))
    objects = _returned_objects()
    read = _attribute_reads(tree, objects)
    missing = [f"{name}.{attr}" for name, attr in sorted(read)
               if not hasattr(objects[name], attr)]
    assert not missing, f"bench/measure.py reads attributes the package lacks: {missing}"
    # the check is not vacuous: every kind of object is read, and the
    # benchmark's wire-log and synthesis reads are seen
    assert {name for name, _ in read} == set(objects)
    assert {("trace", "x_hat0"), ("trace", "messages"), ("syn", "filter"),
            ("model", "sigmas"), ("audit", "min_slack"), ("agents", "n"), ("agents", "m"),
            ("agents", "A"), ("audits", "min_slack")} <= read
