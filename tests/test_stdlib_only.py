"""The package stays stdlib-only: every absolute import is the stdlib or fso."""

import ast
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def absolute_imports(path: Path) -> set[str]:
    """The top-level module of every absolute import in one source file."""
    names = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), str(path))):
        if isinstance(node, ast.Import):
            names.update(alias.name.partition(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names.add(node.module.partition(".")[0])
    return names


def test_package_imports_only_the_stdlib():
    sources = sorted((ROOT / "src" / "fso").glob("*.py"))
    assert sources
    foreign = {
        f"{path.name}: {name}"
        for path in sources
        for name in absolute_imports(path)
        if name != "fso" and name not in sys.stdlib_module_names
    }
    assert not foreign


def test_pyproject_declares_no_dependencies():
    lines = (ROOT / "pyproject.toml").read_text(encoding="utf-8").splitlines()
    assert "dependencies = []" in lines
