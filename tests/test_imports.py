import ast
from pathlib import Path

import pytest

SOURCES = sorted((Path(__file__).parents[1] / "src" / "ltvkit").glob("*.py"))


def unused_imports(source: str) -> list[str]:
    """Names a module imports but never reads, nor lists in ``__all__``."""
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in ast.walk(tree):
        if (isinstance(node, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)):
            used |= set(ast.literal_eval(node.value))
    return [f"{name} (line {line})" for name, line in imported.items() if name not in used]


def test_the_rule_sees_an_unused_import():
    assert unused_imports("import os\nfrom typing import List, Optional\nx: Optional[int]\n") \
        == ["os (line 1)", "List (line 2)"]
    assert unused_imports("from .core import f\n__all__ = ['f']\n") == []


@pytest.mark.parametrize("path", SOURCES, ids=lambda path: path.name)
def test_no_module_imports_a_name_it_never_uses(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def test_the_package_exports_exactly_the_modules_public_names():
    import ltvkit
    from ltvkit import control, core, diagnostics, sim, solvers

    modules = (core, sim, diagnostics, solvers, control)
    public = {name for module in modules for name in module.__all__}
    assert len(set(ltvkit.__all__)) == len(ltvkit.__all__)
    assert set(ltvkit.__all__) == public | {"__version__"}
    for module in (ltvkit, *modules):
        for name in module.__all__:
            assert hasattr(module, name), f"{module.__name__}.{name}"


def test_the_cli_leaves_every_overflow_refusal_to_the_library():
    """Each library function refuses its own result outside the float range,
    where it computes it; the CLI holds no second copy of such a refusal,
    neither an ``np.errstate`` block nor a ``_require_finite`` call."""
    tree = ast.parse((SOURCES[0].parent / "cli.py").read_text(encoding="utf-8"))
    called = {getattr(node.func, "attr", getattr(node.func, "id", None))
              for node in ast.walk(tree) if isinstance(node, ast.Call)}
    assert "main" in called
    assert not called & {"errstate", "_require_finite"}
