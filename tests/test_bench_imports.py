"""The names the benchmark imports from the package.

``bench/*.py`` import causalog's names directly, some of them inside
functions that only a benchmark run reaches, so a name removed from the
package would otherwise first show as a failed ``bench/run.py``. This test
reads every ``from causalog... import X`` in those files and resolves each
name, and each attribute read off an imported module, such as
``engine.joint_table``. ``bench/tracing.py`` also patches methods by the
names its ``_METHODS`` lists, and each of those must resolve on its class.
"""

import ast
import importlib
import importlib.util
import inspect
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
BENCH = sorted((ROOT / "bench").glob("*.py"))


def _imports(path):
    """Each (line, module, name, alias) a file imports from causalog."""
    tree = ast.parse(path.read_text(encoding="utf-8"), str(path))
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level == 0 \
                and node.module.split(".")[0] == "causalog":
            for alias in node.names:
                yield node.lineno, node.module, alias.name, alias.asname or alias.name


def _attributes(path, alias):
    """The attributes a file reads off the name ``alias``."""
    tree = ast.parse(path.read_text(encoding="utf-8"), str(path))
    return {node.attr for node in ast.walk(tree)
            if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
            and node.value.id == alias}


def test_the_benchmark_imports_something():
    assert any(list(_imports(path)) for path in BENCH)


@pytest.mark.parametrize("path", BENCH, ids=[path.name for path in BENCH])
def test_every_name_the_benchmark_imports_resolves(path):
    for line, module, name, alias in _imports(path):
        where = f"{path.name}:{line}: {module}"
        value = getattr(importlib.import_module(module), name, None)
        if value is None:  # a submodule, which the import statement loads
            assert importlib.util.find_spec(f"{module}.{name}"), f"{where} has no {name}"
            value = importlib.import_module(f"{module}.{name}")
        if inspect.ismodule(value):
            missing = sorted(a for a in _attributes(path, alias) if not hasattr(value, a))
            assert not missing, f"{where}.{name} has no {', '.join(missing)}"


def _traced_methods():
    """Each (line, layer, class, method) that ``_METHODS`` in
    ``bench/tracing.py`` names, read from its source."""
    path = ROOT / "bench" / "tracing.py"
    tree = ast.parse(path.read_text(encoding="utf-8"), str(path))
    for node in tree.body:
        if isinstance(node, ast.Assign) and [t.id for t in node.targets] == ["_METHODS"]:
            for layer, classes in ast.literal_eval(node.value).items():
                for cls_name, methods in classes.items():
                    for method in methods:
                        yield node.lineno, layer, cls_name, method


def test_every_method_the_tracer_patches_resolves():
    methods = list(_traced_methods())
    assert methods
    for line, layer, cls_name, method in methods:
        where = f"tracing.py:{line}: _METHODS names causalog.{layer}.{cls_name}.{method}"
        cls = getattr(importlib.import_module(f"causalog.{layer}"), cls_name, None)
        assert cls is not None, f"{where}, but there is no class {cls_name}"
        try:
            inspect.getattr_static(cls, method)
        except AttributeError:
            pytest.fail(f"{where}, but {cls_name} has no {method}")
