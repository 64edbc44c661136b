"""Import surface: every name a module lists in __all__ must exist, so a
deletion cannot leave a stale export behind; and every name the benchmark
in perfbench/ wraps or calls must exist, since its tracer skips a missing
name and drops that layer's metrics without failing."""
import ast
import importlib
import importlib.util
import pkgutil
import sys
from pathlib import Path

import pytest

import thermofem

MODULES = ["thermofem"] + sorted(
    f"thermofem.{info.name}" for info in pkgutil.iter_modules(thermofem.__path__))
PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


@pytest.mark.parametrize("module_name", MODULES)
def test_all_names_resolve(module_name):
    module = importlib.import_module(module_name)
    exported = getattr(module, "__all__", None)
    assert exported, f"{module_name} declares no __all__"
    assert len(set(exported)) == len(exported), f"{module_name}.__all__ repeats a name"
    missing = [name for name in exported if not hasattr(module, name)]
    assert not missing, f"{module_name}.__all__ names missing attributes: {missing}"


def _load_spans():
    """perfbench/spans.py as a module, loaded without writing bytecode there."""
    spec = importlib.util.spec_from_file_location("perfbench_spans", PERFBENCH / "spans.py")
    module = importlib.util.module_from_spec(spec)
    dont_write = sys.dont_write_bytecode
    sys.dont_write_bytecode = True
    try:
        spec.loader.exec_module(module)
    finally:
        sys.dont_write_bytecode = dont_write
    return module


def test_benchmark_span_targets_resolve():
    targets = _load_spans().TARGETS
    assert targets
    missing = []
    for module_name, attr, _ in targets:
        module = importlib.import_module(module_name)
        if "." in attr:
            cls_name, method = attr.split(".")
            found = method in vars(getattr(module, cls_name, object))
        else:
            found = hasattr(module, attr)
        if not found:
            missing.append(f"{module_name}.{attr}")
    assert not missing, f"benchmark span targets missing: {missing}"


def test_benchmark_workload_names_resolve():
    # Every <module>.<name> that workloads.py reads from a thermofem module
    # it imports.
    tree = ast.parse((PERFBENCH / "workloads.py").read_text())
    imported = {alias.asname or alias.name: f"{node.module}.{alias.name}"
                for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)
                and node.module == "thermofem" for alias in node.names}
    used = {(imported[node.value.id], node.attr) for node in ast.walk(tree)
            if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
            and node.value.id in imported}
    assert used
    missing = [f"{mod}.{attr}" for mod, attr in sorted(used)
               if not hasattr(importlib.import_module(mod), attr)]
    assert not missing, f"names the benchmark workloads read are missing: {missing}"
