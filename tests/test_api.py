"""No API that nothing calls: every public name of the package is used.

An AST scan collects every public module-level function and class of
``src/hodgelab`` and every public method of its public classes, and every
name or attribute that code under ``src/`` and ``scripts/`` refers to.
Docstrings are strings, not references, so a mention there does not count.
A name is matched by its last component, so a scan can miss an unused name
that shares a name with a used one, but never flags a used one.

A second scan checks that the package caches per-mesh data in one place:
its only call of ``memoized`` is the one in ``mesh.per_mesh``.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "hodgelab"

# public API that only the tests call, each with the reason it stays
ALLOWED = {
    "spectral.dense_reference": "dense LAPACK oracle the solver tests compare against",
    "sphere_oracle.covariant_derivatives": "exact covariant derivatives the oracle "
                                           "tests check the residual formulas with",
    "sphere_oracle.tangent_frame": "orthonormal tangent frame the oracle tests "
                                   "build tangent tensors in",
    "exterior.laplacian1": "the one-form pencil that perfbench/freeze.py and the tests "
                           "solve as the reference",
}


def _public_definitions():
    """{qualified name: bare name} of the package's public functions, classes, methods."""
    found = {}
    for path in sorted(PACKAGE.glob("*.py")):
        module = path.stem
        for node in ast.parse(path.read_text()).body:
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                continue
            if node.name.startswith("_"):
                continue
            found[f"{module}.{node.name}"] = node.name
            if isinstance(node, ast.ClassDef):
                for item in node.body:
                    if isinstance(item, ast.FunctionDef) and not item.name.startswith("_"):
                        found[f"{module}.{node.name}.{item.name}"] = item.name
    return found


def _referenced_names():
    names = set()
    for path in sorted([*(ROOT / "src").rglob("*.py"), *(ROOT / "scripts").rglob("*.py")]):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Name):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                names.add(node.attr)
    return names


def test_every_public_name_is_referenced():
    referenced = _referenced_names()
    unused = sorted(qualified for qualified, name in _public_definitions().items()
                    if name not in referenced and qualified not in ALLOWED)
    assert unused == []


def test_allowlist_names_exist_and_are_unreferenced():
    # an entry whose name is gone, or is now called, is stale
    definitions = _public_definitions()
    referenced = _referenced_names()
    assert all(qualified in definitions for qualified in ALLOWED)
    assert [q for q in ALLOWED if definitions[q] in referenced] == []


def test_only_the_per_mesh_decorator_calls_memoized():
    # every cached quantity goes through mesh.per_mesh, so no module writes a memo key
    callers = [path.name for path in sorted(PACKAGE.glob("*.py"))
               for node in ast.walk(ast.parse(path.read_text()))
               if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
               and node.func.attr == "memoized"]
    assert callers == ["mesh.py"]
