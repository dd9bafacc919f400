"""Every module under src/nerrank uses each name it imports. An import left
behind by a refactor costs start-up time and misleads a reader about what
the module depends on. A package's `__init__.py` is exempt: its imports
are its re-exports."""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "nerrank"
MODULES = sorted(p for p in PACKAGE.rglob("*.py") if p.name != "__init__.py")


def imported_names(tree: ast.Module) -> dict[str, int]:
    """Each name an import binds, with the line of its first import."""
    names: dict[str, int] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                # `import a.b` binds `a`
                names.setdefault(alias.asname or alias.name.split(".")[0], node.lineno)
    return names


def unused_imports(source: str) -> list[str]:
    """Each imported name that no expression of the module reads. Under
    `from __future__ import annotations` an annotation is still parsed,
    so a name read only in one counts as read; `np.x` reads `np`."""
    tree = ast.parse(source)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"line {line}: {name}" for name, line in imported_names(tree).items() if name not in used]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: str(p.relative_to(PACKAGE)))
def test_module_uses_every_name_it_imports(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def test_the_scan_sees_what_an_import_binds():
    source = (
        "from __future__ import annotations\n"
        "import os.path\n"
        "import numpy as np\n"
        "from typing import TYPE_CHECKING\n"
        "if TYPE_CHECKING:\n"
        "    from .crf import InternedFeatures\n"
        "from .features import featurize, FeatureTemplateSet\n"
        "def f(x: InternedFeatures) -> np.ndarray:\n"
        "    return os.getcwd()\n"
    )
    assert unused_imports(source) == ["line 7: featurize", "line 7: FeatureTemplateSet"]
