"""Names that code outside the package relies on still resolve.

The benchmark under benchmark/ imports gridplace names and patches Evaluator
methods when it traces a run; its own tests are not part of this suite. The
benchmark sources are read with `ast`, never imported.
"""

import ast
import importlib
from pathlib import Path

import gridplace
from gridplace.cost import Evaluator

BENCHMARK = Path(__file__).resolve().parent.parent / "benchmark"


def _benchmark_trees():
    return {path: ast.parse(path.read_text(), filename=str(path))
            for path in sorted(BENCHMARK.rglob("*.py"))}


def _dotted(node):
    """'a.b.c' for a chain of attribute lookups on a name, else None."""
    parts = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return ".".join(reversed(parts))
    return None


def _used_names(tree):
    """(module, name) pairs a benchmark file takes from gridplace: names
    imported from a gridplace module, and attributes read from a gridplace
    module through an alias (`import gridplace as gp`, `ann =
    gridplace.annealer`) or its full dotted path."""
    aliases = {}
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for a in node.names:
                if a.name.split(".")[0] == "gridplace":
                    aliases[a.asname or a.name] = a.name
        elif isinstance(node, ast.ImportFrom) and node.module and node.module.split(".")[0] == "gridplace":
            for a in node.names:
                used.add((node.module, a.name))
        elif isinstance(node, ast.Assign) and len(node.targets) == 1 and isinstance(node.targets[0], ast.Name):
            target = _dotted(node.value)
            if target and target.split(".")[0] == "gridplace":
                aliases[node.targets[0].id] = target
    if "gridplace" not in aliases and any(m.startswith("gridplace.") for m in aliases.values()):
        aliases["gridplace"] = "gridplace"   # `import gridplace.cost` binds gridplace
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and isinstance(node.value, (ast.Name, ast.Attribute)):
            base = _dotted(node.value)
            if base is None:
                continue
            head, _, rest = base.partition(".")
            if head in aliases:
                module = aliases[head] + ("." + rest if rest else "")
                used.add((module, node.attr))
    return used


def _resolves(dotted):
    """Whether a dotted path of modules and attributes, such as
    gridplace.NodeKind.CLUSTER or gridplace.cost.Evaluator, exists."""
    parts = dotted.split(".")
    obj = importlib.import_module(parts[0])
    for i, part in enumerate(parts[1:], start=2):
        if hasattr(obj, part):
            obj = getattr(obj, part)
            continue
        try:
            obj = importlib.import_module(".".join(parts[:i]))
        except ModuleNotFoundError:
            return False
    return True


def test_all_names_resolve():
    assert [name for name in gridplace.__all__ if not hasattr(gridplace, name)] == []


def test_benchmark_names_resolve():
    seen = set()
    for path, tree in _benchmark_trees().items():
        for module, name in _used_names(tree):
            seen.add((module, name))
            assert _resolves(f"{module}.{name}"), f"{path.name}: {module}.{name}"
    # The reader finds both import forms and the module aliases of the tracer.
    assert ("gridplace", "fd_place") in seen
    assert ("gridplace.geometry", "bbox_inside_canvas") in seen
    assert ("gridplace.cost", "smooth_grid") in seen
    assert ("gridplace.annealer", "INITIALIZERS") in seen


def test_traced_evaluator_methods_exist():
    tree = _benchmark_trees()[BENCHMARK / "tracing.py"]
    methods = next(ast.literal_eval(node.value) for node in ast.walk(tree)
                   if isinstance(node, ast.Assign)
                   and any(isinstance(t, ast.Name) and t.id == "EVALUATOR_METHODS" for t in node.targets))
    assert "net_congestion_from_arrays" in methods
    # The tracer wraps each one found in the class body itself.
    assert [m for m in methods if m not in Evaluator.__dict__] == []
