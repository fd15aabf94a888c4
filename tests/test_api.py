"""Every public top-level function and class of the package, and every
public method of its classes, is used by the package itself, apart from
the measurements only the tests call."""

import ast
from pathlib import Path

import torusns

SRC = Path(torusns.__file__).resolve().parent

#: Measured constants and defects that only the test-suite evaluates: the
#: criteria battery checks the analysis' structural assumptions with them.
TEST_ONLY = frozenset({
    "inf_sup_constant", "inverse_constant", "commutator_constant",
    "pressure_commutator_constant", "commutator_defect",
    "pressure_commutator_defect", "estimate_constants",
    # the scalar counterpart of project_velocity, for pressure data
    "project_pressure",
    # the mesh-quality measurement of the mesh tests
    "PeriodicMesh.shape_ratio",
})


def test_every_public_definition_is_referenced():
    defined, referenced = {}, set()
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text())
        for node in tree.body:
            if (isinstance(node, (ast.FunctionDef, ast.ClassDef))
                    and not node.name.startswith("_")):
                defined[node.name] = path.name
            if isinstance(node, ast.ClassDef):
                for item in node.body:
                    if (isinstance(item, ast.FunctionDef)
                            and not item.name.startswith("_")):
                        defined[f"{node.name}.{item.name}"] = path.name
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                referenced.add(node.id)
            elif isinstance(node, ast.Attribute):
                referenced.add(node.attr)
    unused = sorted(f"{defined[name]}:{name}" for name in defined
                    if name.rsplit(".", 1)[-1] not in referenced
                    and name not in TEST_ONLY)
    assert not unused, f"public API with no caller in the package: {unused}"
    assert TEST_ONLY <= defined.keys(), "stale allowlist entries"
