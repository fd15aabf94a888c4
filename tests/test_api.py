"""Every public top-level function and class of the package, and every
public method of its classes, is used by the package itself, apart from
the measurements only the tests call; and every module constant is read
by the package."""

import ast
import re
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


def test_every_module_constant_is_read():
    # an UPPER_CASE name assigned at a module's top level must be loaded
    # somewhere in the package, by name or as a module attribute: a
    # constant whose last reader is deleted is deleted with it
    constant = re.compile(r"_?[A-Z][A-Z0-9_]*$")
    assigned, read = {}, set()
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text())
        for node in tree.body:
            targets = (node.targets if isinstance(node, ast.Assign)
                       else [node.target] if isinstance(node, ast.AnnAssign)
                       else [])
            for target in targets:
                for name in ast.walk(target):
                    if (isinstance(name, ast.Name)
                            and constant.match(name.id)):
                        assigned[name.id] = path.name
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif (isinstance(node, ast.Attribute)
                  and isinstance(node.ctx, ast.Load)):
                read.add(node.attr)
    unread = sorted(f"{path}:{name}" for name, path in assigned.items()
                    if name not in read)
    assert assigned, "no module constant found"
    assert not unread, f"module constants nothing reads: {unread}"


def test_no_module_imports_scipy():
    # the package needs numpy alone: no `import scipy...` or `from
    # scipy... import` anywhere in it, function-local ones included
    found = []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            found += [f"{path.name}:{node.lineno}" for name in names
                      if name.split(".")[0] == "scipy"]
    assert not found, f"scipy imported at {found}"
