"""The public API holds only what the package itself uses.

Every name in liechannel.__all__ must be referenced somewhere in the
package outside its own definition and the export table, or be named
below with the reason it is public anyway.  A scene declaration naming
its runner as "module.function" references that function.  So must every
public method and property of an exported class, named "Class.method"
below.

Every defaulted parameter of an exported function or public method must
be set by some caller in the package, the tests or the benchmark, by
keyword, by position or as a parameter of a scene declaration, or be
named below with the reason it stays a parameter.  A value nobody sets is
a module constant.  Likewise every parameter of a scene op is set by some
shipped scene: a demo at its default grid or a benchmark workload.
"""

import ast
import importlib.util
import inspect
from pathlib import Path

import liechannel
from liechannel.demos import demo_config, demo_names
from liechannel.scene import _OBJECT_KINDS, _OPS

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "liechannel"

#: exported names with no caller in the package, and why they stay public
UNCALLED_BY_DESIGN = {
    "make_legendre_from_surface": "acceptance criterion 4 builds the "
                                  "ellipsoid, which is no envelope",
    "ribaucour_partner_curve": "acceptance criterion 9 integrates partners",
    "project_to_euclidean": "acceptance criterion 1 reads lifts back",
    "special_lift": "acceptance criterion 6 gauges the lift",
}


#: defaulted parameters ("function.parameter") no caller sets, and why
#: they stay parameters
UNSET_BY_DESIGN = {}


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


def _defaulted_parameters():
    """{"function.parameter" or "Class.method.parameter": position} of the
    defaulted parameters of the exported functions and public methods;
    position is None for a keyword-only parameter."""
    found = {}
    for name in _exports():
        obj = getattr(liechannel, name)
        if inspect.isfunction(obj):
            functions = [(name, obj, 0)]
        elif inspect.isclass(obj):
            functions = [(f"{name}.{m}", f, 1) for m, f in vars(obj).items()
                         if inspect.isfunction(f) and not m.startswith("_")]
        else:
            continue
        for qualified, function, skip in functions:
            params = list(inspect.signature(function).parameters.values())
            for i, p in enumerate(params[skip:]):
                if p.default is not p.empty:
                    found[f"{qualified}.{p.name}"] = (
                        i if p.kind == p.POSITIONAL_OR_KEYWORD else None)
    return found


def _set_by_callers():
    """{called name: keywords and positions its calls set} over the
    package, the tests and the benchmark.  A call of functools.partial
    counts for the function it wraps, and a scene declaration sets its
    parameter keys on the function it names."""
    got = {}
    for path in [*(ROOT / "src").rglob("*.py"), *(ROOT / "tests").glob("*.py"),
                 *(ROOT / "perfbench").glob("*.py")]:
        for node in ast.walk(ast.parse(path.read_text())):
            if not isinstance(node, ast.Call):
                continue
            func, args = node.func, node.args
            if getattr(func, "id", getattr(func, "attr", None)) == "partial":
                func, args = args[0], args[1:]
            name = getattr(func, "id", getattr(func, "attr", None))
            given = got.setdefault(name, set())
            if not any(isinstance(a, ast.Starred) for a in args):
                given |= set(range(len(args)))
            given |= {kw.arg for kw in node.keywords if kw.arg is not None}
    for decl in [*_OBJECT_KINDS.values(), *_OPS.values()]:
        got.setdefault(decl.run.rsplit(".", 1)[1], set()).update(decl.params)
    return got


def test_every_defaulted_parameter_is_set_by_some_caller():
    got = _set_by_callers()
    defaulted = _defaulted_parameters()
    unset = {key for key, position in defaulted.items()
             if not {key.split(".")[-1], position}
             & got.get(key.split(".")[-2], set())}
    missing = sorted(unset - set(UNSET_BY_DESIGN))
    assert missing == [], f"defaulted parameters no caller sets: {missing}"
    # the list stays exact: each entry is a defaulted parameter nobody sets
    assert set(UNSET_BY_DESIGN) <= unset


def _shipped_scenes():
    """The demos at their default grid and the benchmark's workload
    scenes."""
    spec = importlib.util.spec_from_file_location(
        "workloads", ROOT / "perfbench" / "workloads.py")
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    return ([demo_config(name) for name in demo_names()]
            + [make(41) for make in workloads.WORKLOADS.values()])


def test_every_op_parameter_is_set_by_a_shipped_scene():
    # object kinds are exempt: their parameters mirror the signatures of
    # the constructors they run, which the test above covers
    set_keys = {name: set() for name in _OPS}
    for config in _shipped_scenes():
        for stage in config["pipeline"]:
            set_keys[stage["op"]] |= set(stage)
    unset = sorted(f"{name}.{key}" for name, op in _OPS.items()
                   for key in op.params if key not in set_keys[name])
    assert unset == [], f"op parameters no shipped scene sets: {unset}"


def test_no_two_object_kinds_run_the_same_constructor():
    runs = [kind.run for kind in _OBJECT_KINDS.values()]
    shared = sorted({run for run in runs if runs.count(run) > 1})
    assert shared == [], f"constructors run by two object kinds: {shared}"


#: the only places that call a stencil (module, enclosing function): the
#: grid's own difference, which the slab passes apply to their halo
#: windows too, and the u-derivatives of sphere curves and of the special
#: lift
STENCIL_CALLERS = {("legendre", "LegendreGrid.diff"),
                   ("channel", "SphereCurve.derivative"),
                   ("channel", "omega0_form")}


def _stencil_callers():
    """(module, enclosing top-level function or Class.method) of every
    use of a `stencils.diff*` function in the package, imported by name
    or read as an attribute."""
    found = set()
    for path in PACKAGE.glob("*.py"):
        if path.stem == "stencils":
            continue
        for node in ast.parse(path.read_text()).body:
            scopes = [(getattr(node, "name", "<module>"), node)]
            if isinstance(node, ast.ClassDef):
                scopes = [(f"{node.name}.{item.name}", item)
                          for item in node.body
                          if isinstance(item, ast.FunctionDef)]
            for name, scope in scopes:
                for n in ast.walk(scope):
                    if (isinstance(n, ast.Attribute)
                            and getattr(n.value, "id", None) == "stencils"
                            and n.attr.startswith("diff")):
                        found.add((path.stem, name))
            if (isinstance(node, ast.ImportFrom) and node.module
                    and node.module.endswith("stencils")):
                found |= {(path.stem, f"import {alias.name}")
                          for alias in node.names}
    return found


def test_only_the_grid_and_the_curves_call_the_stencils():
    assert _stencil_callers() == STENCIL_CALLERS
