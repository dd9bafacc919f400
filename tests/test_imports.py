"""Every module under src/nerrank uses each name it imports. An import left
behind by a refactor costs start-up time and misleads a reader about what
the module depends on. A package's `__init__.py` is exempt: its imports
are its re-exports.

Only `trace.py` imports `time`: a stage times itself through
`trace.stage`, so its seconds reach the log in the one stage-line form.

No module under `baseline/` multiplies through BLAS (`@`, `matmul`, `dot`,
`einsum`, `tensordot`): the CRF's weights, candidates and probabilities
are byte-identical across BLAS kernels because the CRF makes no BLAS
call.

Only two functions write files: `corpus.replacing`, which every output
goes through so that it is replaced whole, and `numerics.npz.write_npz`,
the one npz encoder, which writes into the file `replacing` opened.

Every function and method defined under src/nerrank is referenced in
src/nerrank outside its own body: a form that only tests call is a second
way in that the program never takes."""

import ast
from collections import Counter
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


# calls that always write: numpy's savers, `tofile` and pathlib's writers
WRITE_CALLS = {"save", "savez", "savez_compressed", "savetxt", "tofile", "write_text", "write_bytes"}
MODE_CHARS = set("rwaxbt+")


def _mode(call: ast.Call) -> ast.expr | None:
    """A file-opening call's mode: its `mode=` keyword, else its second
    positional argument, else a lone first one that reads as a mode
    (`path.open("w")`); None when it has none, which means read."""
    for keyword in call.keywords:
        if keyword.arg == "mode":
            return keyword.value
    if len(call.args) > 1:
        return call.args[1]
    if call.args and isinstance(call.args[0], ast.Constant) and set(str(call.args[0].value)) <= MODE_CHARS:
        return call.args[0]
    return None


def _writes(mode: ast.expr | None) -> bool:
    """A mode writes when it holds w, a, x or +, or when it is not a
    string constant, so the scan cannot tell."""
    if mode is None:
        return False
    if isinstance(mode, ast.Constant) and isinstance(mode.value, str):
        return bool(set(mode.value) & set("wax+"))
    return True


def file_writes(source: str) -> list[tuple[str, int, str]]:
    """Each call that can write a file, as (innermost enclosing function or
    `<module>`, line, name): `open`, `x.open` and `ZipFile` with a mode
    that writes, and every call of a name in WRITE_CALLS."""
    found = []

    def visit(node, where):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                visit(child, child.name)
                continue
            if isinstance(child, ast.Call):
                func = child.func
                name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
                if name in WRITE_CALLS or (name in ("open", "ZipFile") and _writes(_mode(child))):
                    found.append((where, child.lineno, name))
            visit(child, where)

    visit(ast.parse(source), "<module>")
    return sorted(found, key=lambda f: (f[1], f[2]))


def test_only_the_writer_and_the_npz_encoder_write_files():
    found = {}
    for path in sorted(PACKAGE.rglob("*.py")):
        for where, _, name in file_writes(path.read_text(encoding="utf-8")):
            found.setdefault((str(path.relative_to(PACKAGE)), where), []).append(name)
    assert found == {
        # the temporary, and a device or FIFO written in place
        ("corpus.py", "replacing"): ["open", "open"],
        # the archive, and each of its entries
        ("numerics/npz.py", "write_npz"): ["ZipFile", "open"],
    }


def test_the_write_scan_sees_every_form_of_write():
    source = (
        "import numpy as np, zipfile\n"
        "from pathlib import Path\n"
        "def reads(p, name):\n"
        "    open(p), open(p, 'rb'), open(p, mode='r', encoding='utf-8'), Path(p).open()\n"
        "    zipfile.ZipFile(p), np.load(p), Path(p).read_text(), zipfile.ZipFile(p).open(name)\n"
        "def writes(p, m):\n"
        "    open(p, 'w'), open(p, mode='ab'), open(p, 'x'), open(p, 'r+'), open(p, m)\n"
        "    Path(p).open('w'), Path(p).write_text('s'), Path(p).write_bytes(b'')\n"
        "    def inner(z):\n"
        "        zipfile.ZipFile(p, 'w'), z.open('a.npy', mode='w'), z.open('a.npy', 'w')\n"
        "    np.save(p, 1), np.savez(p), np.savez_compressed(p), np.arange(2).tofile(p)\n"
        "log = open('log.txt', 'a')\n"
    )
    assert file_writes(source) == [
        ("writes", 7, "open"), ("writes", 7, "open"), ("writes", 7, "open"),
        ("writes", 7, "open"), ("writes", 7, "open"),
        ("writes", 8, "open"), ("writes", 8, "write_bytes"), ("writes", 8, "write_text"),
        ("inner", 10, "ZipFile"), ("inner", 10, "open"), ("inner", 10, "open"),
        ("writes", 11, "save"), ("writes", 11, "savez"), ("writes", 11, "savez_compressed"),
        ("writes", 11, "tofile"),
        ("<module>", 12, "open"),
    ]


# referenced from outside the package only: perfbench/tracer.py wraps the two
# CrfModel methods by name, and argparse calls `error` on its parser
UNREFERENCED = {
    "baseline/crf.py": {"CrfModel.emission_scores", "CrfModel.log_partition"},
    "cli.py": {"_Parser.error"},
}


def definitions(tree: ast.Module) -> list[tuple[str, ast.FunctionDef | ast.AsyncFunctionDef]]:
    """Each function and method a module defines, nested ones included,
    named `Class.method` inside a class body and by its own name elsewhere."""
    found = []

    def visit(node, owner):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.ClassDef):
                visit(child, child.name)
            elif isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                found.append((f"{owner}.{child.name}" if owner else child.name, child))
                visit(child, None)
            else:
                visit(child, owner)

    visit(tree, None)
    return found


def read_names(node: ast.AST) -> Counter:
    """How often each name is read below `node`, as a name (`f`) or as an
    attribute (`x.f`). An import binds a name without reading it."""
    return Counter(
        n.id if isinstance(n, ast.Name) else n.attr
        for n in ast.walk(node)
        if isinstance(n, (ast.Name, ast.Attribute))
    )


def unreferenced(sources: dict[str, str]) -> dict[str, list[str]]:
    """Per module, each function or method whose name no code of any of
    the modules reads outside the definition's own body. Names match by
    name alone, so a method counts as referenced when any `x.name` is read.
    Dunder methods are exempt: Python calls them."""
    trees = {name: ast.parse(source) for name, source in sources.items()}
    total = sum((read_names(tree) for tree in trees.values()), Counter())
    found = {}
    for module, tree in trees.items():
        for qualified, node in definitions(tree):
            name = node.name
            if name.startswith("__") and name.endswith("__"):
                continue
            if total[name] == read_names(node)[name]:
                found.setdefault(module, []).append(qualified)
    return found


def test_every_function_is_referenced_outside_its_body():
    sources = {
        str(path.relative_to(PACKAGE)): path.read_text(encoding="utf-8")
        for path in sorted(PACKAGE.rglob("*.py"))
    }
    found = {
        module: [name for name in names if name not in UNREFERENCED.get(module, set())]
        for module, names in unreferenced(sources).items()
    }
    assert {module: names for module, names in found.items() if names} == {}


def test_the_reference_scan_sees_an_unused_helper():
    sources = {
        "a.py": (
            "from .b import used, exported\n"
            "class Model:\n"
            "    def __len__(self):\n"
            "        return 0\n"
            "    def step(self):\n"
            "        return self.step()\n"
            "    def run(self):\n"
            "        def inner():\n"
            "            return used()\n"
            "        return inner()\n"
            "def go(m):\n"
            "    return m.run()\n"
            "go(Model())\n"
        ),
        "b.py": (
            "def used():\n"
            "    return 1\n"
            "def exported():\n"
            "    return 2\n"
            "def recurse(n):\n"
            "    return recurse(n - 1) if n else 0\n"
        ),
    }
    assert unreferenced(sources) == {"a.py": ["Model.step"], "b.py": ["exported", "recurse"]}
