"""The public API holds only what the package itself uses.

Every name in liechannel.__all__ must be referenced somewhere in the
package outside its own definition and the export table, or be named
below with the reason it is public anyway.  A scene declaration naming
its runner as "module.function" references that function.  So must every
public method and property of an exported class, named "Class.method"
below.
"""

import ast
from pathlib import Path

import liechannel

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "liechannel"

#: exported names with no caller in the package, and why they stay public
UNCALLED_BY_DESIGN = {
    "make_legendre_from_surface": "acceptance criterion 4 builds the "
                                  "ellipsoid, which is no envelope",
    "ribaucour_partner_curve": "acceptance criterion 9 integrates partners",
    "project_to_euclidean": "acceptance criterion 1 reads lifts back",
    "special_lift": "acceptance criterion 6 gauges the lift",
}


def _exports():
    return set(liechannel.__all__)


def _defined_by(node):
    """Names a top-level statement defines."""
    if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
        return {node.name}
    if isinstance(node, ast.Assign):
        return {n.id for t in node.targets for n in ast.walk(t)
                if isinstance(n, ast.Name)}
    return set()


def _referenced():
    """Names loaded in the package, each outside the top-level statement
    that defines it, and the functions named by the scene declarations
    (`_Decl("module.function", ...)`); import statements do not count as
    uses."""
    used = set()
    for path in PACKAGE.glob("*.py"):
        if path.name == "__init__.py":
            continue
        for node in ast.parse(path.read_text()).body:
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                continue
            names = {n.id for n in ast.walk(node)
                     if isinstance(n, ast.Name)
                     and isinstance(n.ctx, ast.Load)}
            names |= {n.attr for n in ast.walk(node)
                      if isinstance(n, ast.Attribute)}
            names |= {n.args[0].value.rsplit(".", 1)[1]
                      for n in ast.walk(node) if isinstance(n, ast.Call)
                      and getattr(n.func, "id", None) == "_Decl"}
            used |= names - _defined_by(node)
    return used


def _public_members(exports):
    """'Class.name' of each public method and property of the exported
    classes."""
    members = set()
    for path in PACKAGE.glob("*.py"):
        for node in ast.parse(path.read_text()).body:
            if isinstance(node, ast.ClassDef) and node.name in exports:
                members |= {f"{node.name}.{item.name}" for item in node.body
                            if isinstance(item, ast.FunctionDef)
                            and not item.name.startswith("_")}
    return members


def test_every_export_has_a_caller_in_the_package():
    exports, used = _exports(), _referenced()
    unused = sorted(exports - used - set(UNCALLED_BY_DESIGN))
    assert unused == [], f"exported but unused in the package: {unused}"
    # the list stays exact: each entry is exported and still has no caller
    assert set(UNCALLED_BY_DESIGN) <= exports | _public_members(exports)
    assert not {name.split(".")[-1] for name in UNCALLED_BY_DESIGN} & used


def test_every_public_member_of_an_export_has_a_caller_in_the_package():
    used = _referenced()
    members = _public_members(_exports())
    unused = sorted(m for m in members - set(UNCALLED_BY_DESIGN)
                    if m.split(".")[1] not in used)
    assert unused == [], f"public but unused in the package: {unused}"
