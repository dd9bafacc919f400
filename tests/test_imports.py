"""Every module under src/nerrank uses each name it imports. An import left
behind by a refactor costs start-up time and misleads a reader about what
the module depends on. A package's `__init__.py` is exempt: its imports
are its re-exports.

Only `trace.py` imports `time`: a stage times itself through
`trace.stage`, so its seconds reach the log in the one stage-line form.

No module under `baseline/` multiplies through BLAS (`@`, `matmul`, `dot`,
`einsum`, `tensordot`): the CRF's weights, candidates and probabilities
are byte-identical across BLAS kernels because the CRF makes no BLAS
call."""

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


def clock_imports(source: str) -> list[str]:
    """Each import of the `time` module or of a name from it."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            found += [f"line {node.lineno}: {a.name}" for a in node.names if a.name.split(".")[0] == "time"]
        elif isinstance(node, ast.ImportFrom) and node.level == 0 and node.module == "time":
            found += [f"line {node.lineno}: time.{a.name}" for a in node.names]
    return found


def test_only_the_stage_reporter_imports_time():
    found = {
        str(path.relative_to(PACKAGE)): clock_imports(path.read_text(encoding="utf-8"))
        for path in sorted(PACKAGE.rglob("*.py"))
        if path != PACKAGE / "trace.py"
    }
    assert {name: lines for name, lines in found.items() if lines} == {}


def test_the_clock_scan_sees_every_form_of_import():
    source = (
        "import time as t\n"
        "import os, time\n"
        "from time import perf_counter as now\n"
        "import timeit\n"
        "from .time import x\n"
    )
    assert clock_imports(source) == ["line 1: time", "line 2: time", "line 3: time.perf_counter"]


BLAS_NAMES = {"matmul", "dot", "einsum", "tensordot"}


def blas_uses(source: str) -> list[str]:
    """Each `@` (or `@=`) and each name, attribute or import of `matmul`,
    `dot`, `einsum` or `tensordot`, so `np.dot(a, b)`, `a.dot(b)`,
    `from numpy import dot as d` and `f = np.einsum` all count."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, ast.MatMult):
            found.append((node.lineno, "@"))
        elif isinstance(node, ast.Attribute) and node.attr in BLAS_NAMES:
            found.append((node.lineno, node.attr))
        elif isinstance(node, ast.Name) and node.id in BLAS_NAMES:
            found.append((node.lineno, node.id))
        elif isinstance(node, ast.ImportFrom):
            found += [(node.lineno, a.name) for a in node.names if a.name in BLAS_NAMES]
    return [f"line {line}: {name}" for line, name in sorted(found)]


def test_the_crf_makes_no_blas_call():
    found = {
        str(path.relative_to(PACKAGE)): blas_uses(path.read_text(encoding="utf-8"))
        for path in sorted((PACKAGE / "baseline").rglob("*.py"))
    }
    assert {name: lines for name, lines in found.items() if lines} == {}


def test_the_blas_scan_sees_every_form_of_product():
    source = (
        "import numpy as np\n"
        "from numpy import dot as d, tensordot\n"
        "x = a @ b\n"
        "x @= b\n"
        "y = np.matmul(a, b) + a.dot(b)\n"
        "f = np.einsum\n"
        "z = a * b + np.add.reduce(a) + dotted(a)\n"
    )
    assert blas_uses(source) == [
        "line 2: dot", "line 2: tensordot", "line 3: @", "line 4: @",
        "line 5: dot", "line 5: matmul", "line 6: einsum",
    ]
