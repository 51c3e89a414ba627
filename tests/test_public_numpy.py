"""gridfreq uses numpy through its public names only: no import from, and
no attribute of, a numpy module path with a part that starts with "_"
(dunders such as __version__ are public).  Every absolute import in it
is of the standard library or of numpy, its one declared runtime
dependency, so a package that is only installed here (scipy, sympy)
cannot slip in."""

import ast
import sys
from pathlib import Path

import pytest

SOURCE = Path(__file__).resolve().parent.parent / "src" / "gridfreq"


def _private(path: str) -> bool:
    return any(part.startswith("_") and not part.endswith("__")
               for part in path.split("."))


def private_numpy_uses(tree: ast.AST) -> list:
    """(line, dotted path) for each private numpy import or attribute."""
    found, aliases = [], {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.split(".")[0] == "numpy":
                    # "import numpy.linalg" binds numpy; "as la" binds the module
                    if alias.asname:
                        aliases[alias.asname] = alias.name
                    else:
                        aliases["numpy"] = "numpy"
                    if _private(alias.name):
                        found.append((node.lineno, alias.name))
        elif isinstance(node, ast.ImportFrom) and node.level == 0 \
                and (node.module or "").split(".")[0] == "numpy":
            for alias in node.names:
                path = f"{node.module}.{alias.name}"
                aliases[alias.asname or alias.name] = path
                if _private(path):
                    found.append((node.lineno, path))
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute):
            parts, base = [node.attr], node.value
            while isinstance(base, ast.Attribute):
                parts.append(base.attr)
                base = base.value
            if isinstance(base, ast.Name) and base.id in aliases:
                path = ".".join([aliases[base.id], *reversed(parts)])
                if _private(path):
                    found.append((node.lineno, path))
    return sorted(set(found))


@pytest.mark.parametrize("module", sorted(
    str(p.relative_to(SOURCE)) for p in SOURCE.rglob("*.py")))
def test_no_private_numpy(module):
    path = SOURCE / module
    assert private_numpy_uses(ast.parse(path.read_text(encoding="utf-8"))) == []


@pytest.mark.parametrize("text, want", [
    ("from numpy.linalg._umath_linalg import eigvalsh_lo",
     [(1, "numpy.linalg._umath_linalg.eigvalsh_lo")]),
    ("from numpy.linalg import _umath_linalg", [(1, "numpy.linalg._umath_linalg")]),
    ("import numpy.core._multiarray_umath as m", [(1, "numpy.core._multiarray_umath")]),
    ("import numpy as np\nnp.linalg._umath_linalg.eigvalsh_lo(a)",
     [(2, "numpy.linalg._umath_linalg"),
      (2, "numpy.linalg._umath_linalg.eigvalsh_lo")]),
    ("from numpy import linalg as la\nla._umath_linalg", [(2, "numpy.linalg._umath_linalg")]),
    ("import numpy as np\nnp.linalg.eigvalsh(a)\nnp.__version__\nx._private", []),
], ids=["from-private-module", "private-name", "import-private-module",
        "attribute-chain", "aliased-module", "public-names"])
def test_checker_finds_private_paths(text, want):
    assert private_numpy_uses(ast.parse(text)) == want


NEEDS_STDLIB_NAMES = pytest.mark.skipif(
    sys.version_info < (3, 10), reason="sys.stdlib_module_names is new in Python 3.10")


def undeclared_imports(tree: ast.AST) -> list:
    """(line, module) for each absolute import, at any depth, of a top-level
    package outside the standard library and numpy."""
    allowed = set(sys.stdlib_module_names) | {"numpy"}
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names = [node.module]
        else:
            continue
        found += [(node.lineno, name) for name in names
                  if name.split(".")[0] not in allowed]
    return found


@NEEDS_STDLIB_NAMES
@pytest.mark.parametrize("module", sorted(
    str(p.relative_to(SOURCE)) for p in SOURCE.rglob("*.py")))
def test_imports_only_the_standard_library_and_numpy(module):
    path = SOURCE / module
    assert undeclared_imports(ast.parse(path.read_text(encoding="utf-8"))) == []


@NEEDS_STDLIB_NAMES
@pytest.mark.parametrize("text, want", [
    ("import scipy.linalg", [(1, "scipy.linalg")]),
    ("def f():\n    from sympy import Matrix", [(2, "sympy")]),
    ("import os, scipy as sp", [(1, "scipy")]),
    ("import math\nimport numpy.linalg\nfrom numpy import linalg\n"
     "from collections.abc import Mapping\nfrom . import sim\nfrom .sim import x",
     []),
], ids=["module", "nested-from", "one-of-several", "stdlib-numpy-relative"])
def test_checker_finds_undeclared_imports(text, want):
    assert undeclared_imports(ast.parse(text)) == want
