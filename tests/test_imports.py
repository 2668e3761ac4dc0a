import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SOURCES = sorted((ROOT / "src").rglob("*.py")) + sorted((ROOT / "tests").rglob("*.py"))


def unused_imports(path: Path) -> list[str]:
    """Names ``path`` imports and never reads, skipping ``__future__`` imports,
    names its ``__all__`` re-exports and lines marked ``# noqa: F401``."""
    source = path.read_text()
    lines = source.splitlines()
    tree = ast.parse(source)
    imported: dict[str, int] = {}
    read: set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
            read.add(node.id)
        elif isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            read.update(ast.literal_eval(node.value))
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            span = lines[node.lineno - 1:node.end_lineno]
            if any("# noqa: F401" in line for line in span):
                continue
            for alias in node.names:
                # ``import a.b`` binds ``a``
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
    return [f"{path.relative_to(ROOT)}:{line}: {name}"
            for name, line in imported.items() if name not in read]


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: str(p.relative_to(ROOT)))
def test_no_unused_imports(path):
    assert unused_imports(path) == []


# scipy's f2py wrappers of BLAS and LAPACK hold the interpreter lock; the
# library reaches every routine through gp's lock-free table instead
F2PY_MODULES = ("scipy.linalg.lapack", "scipy.linalg.blas")
F2PY_NAMES = ("cho_solve", "cho_factor", "solve_triangular", "lapack", "blas")


def f2py_imports(source: str) -> list[str]:
    """``line: name`` for each import in ``source`` of scipy's f2py BLAS or
    LAPACK modules, or of a solver from ``scipy.linalg`` that calls them."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            names = [a.name for a in node.names if a.name.startswith(F2PY_MODULES)]
        elif isinstance(node, ast.ImportFrom) and (node.module or "").startswith(F2PY_MODULES):
            names = [f"{node.module}.{a.name}" for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module == "scipy.linalg":
            names = [a.name for a in node.names if a.name in F2PY_NAMES]
        else:
            continue
        found += [f"{node.lineno}: {name}" for name in names]
    return found


@pytest.mark.parametrize("path", sorted((ROOT / "src").rglob("*.py")),
                         ids=lambda p: str(p.relative_to(ROOT)))
def test_no_f2py_blas_or_lapack_in_the_library(path):
    assert f2py_imports(path.read_text()) == []


def test_f2py_scan_finds_each_kind_of_import():
    source = ("import scipy.linalg.lapack\n"
              "from scipy.linalg.blas import dtrmm\n"
              "from scipy.linalg import cho_solve, cython_lapack, lapack\n"
              "from gpcommittee.gp import cho_solve\n")
    assert f2py_imports(source) == ["1: scipy.linalg.lapack", "2: scipy.linalg.blas.dtrmm",
                                    "3: cho_solve", "3: lapack"]
