"""Tests for the scene runner, the canned demos, and the CLI.

Everything here runs at small grid sizes; the heavier end-to-end checks
live in the acceptance suite.
"""

import importlib.util
import inspect
import json
import os
import subprocess
import sys
import tempfile
import textwrap

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from liechannel import channel, cli, legendre, ops, scene
from liechannel.channel import (
    SphereCurve,
    circle_sphere_curve,
    envelope,
    line_sphere_curve,
)
from liechannel.cli import main
from liechannel.conformal import tube_sphere_curve
from liechannel.demos import demo_config, demo_names
from liechannel.scene import (
    PipelineError,
    SceneError,
    load_scene,
    run_scene,
    validate_scene,
)


def tiny_scene(**overrides):
    config = {
        "version": 1,
        "name": "tiny",
        "seed": 3,
        "objects": {
            "axis": {"kind": "line_curve", "n": 24},
            "offset": {"kind": "line_curve", "n": 24,
                       "origin": [2.0, 0.0, 0.0]},
            "tube_a": {"kind": "tube", "curve": "axis", "radius": 1.0,
                       "n_theta": 16},
        },
        "pipeline": [
            {"id": "pair", "op": "curve_check", "a": "axis", "b": "offset",
             "assert": [{"key": "residual", "max": 1e-10}]},
        ],
        "outputs": {
            "report": "report.json",
            "meshes": [{"object": "tube_a", "path": "tube.obj"}],
        },
    }
    config.update(overrides)
    return config


def _paths(node, path=()):
    """Path of every dict entry and list item under node."""
    items = (node.items() if isinstance(node, dict)
             else enumerate(node) if isinstance(node, list) else ())
    for key, child in items:
        yield path + (key,)
        yield from _paths(child, path + (key,))


def _node(cfg, path):
    for key in path:
        cfg = cfg[key]
    return cfg


# ---------------------------------------------------------------------------
# validation
# ---------------------------------------------------------------------------

def test_demo_configs_validate_clean():
    for name in demo_names():
        assert validate_scene(demo_config(name)) == []


def test_demos_and_workloads_validate_clean():
    # none of them stores over a defined name
    configs = ([demo_config(name) for name in demo_names()]
               + [make(41) for make in _workloads().values()])
    assert len(configs) == 8
    for cfg in configs:
        assert validate_scene(cfg) == []


@pytest.mark.parametrize("store, names", [
    ("cylinder", ["cylinder"]),            # an object
    ("eta", ["eta"]),                      # stored by the omega0 stage
    ("hat", ["hat", "hat_spheres"])])      # stored by the first darboux
def test_a_stage_may_not_store_over_a_defined_name(tmp_path, store, names):
    # a later stage would read the second object under the first's name
    cfg = demo_config("cylinder-darboux", grid=16)
    cfg["pipeline"].append({"id": "again", "op": "darboux",
                            "grid": "cylinder", "omega": "eta", "m": 2.0,
                            "store": store})
    assert validate_scene(cfg) == [
        f"stage 'again': stores '{name}', which is already defined"
        for name in names]
    scene_path = tmp_path / "scene.json"
    scene_path.write_text(json.dumps(cfg))
    assert main(["check", str(scene_path)]) == 2
    assert main(["run", str(scene_path), "--out", str(tmp_path / "o")]) == 2
    assert not (tmp_path / "o").exists()


_CYCLIDE_0 = {"id": "late", "op": "darboux", "grid": "cylinder",
              "omega": "eta", "m": 2.0, "store": "cyclide_0"}


@pytest.mark.parametrize("edit, message", [
    # a later store of a name the congruence's prefix makes at run time
    (lambda cfg: cfg["pipeline"].append(_CYCLIDE_0),
     "stage 'late': stores 'cyclide_0', a name under the prefix 'cyclide' "
     "of an earlier stage"),
    # a prefix whose names an object or an earlier store already holds
    (lambda cfg: cfg["objects"].update(
        cyclide_16={"kind": "line_sphere_curve", "n": 32}),
     "stage 'tangent-cyclides': prefix 'cyclide' would name 'cyclide_16', "
     "which is already defined"),
    (lambda cfg: cfg["pipeline"].insert(5, dict(_CYCLIDE_0,
                                                store="cyclide_16")),
     "stage 'tangent-cyclides': prefix 'cyclide' would name 'cyclide_16', "
     "which is already defined")],
    ids=["store-after", "object-before", "store-before"])
def test_a_prefixed_name_may_not_be_stored_twice(tmp_path, edit, message):
    # congruence_contact stores cyclide_0, cyclide_8, ... under its prefix,
    # and either store would replace the other's object at run time
    cfg = demo_config("cylinder-darboux", grid=32)
    edit(cfg)
    assert validate_scene(cfg) == [message]
    scene_path = tmp_path / "scene.json"
    scene_path.write_text(json.dumps(cfg))
    assert main(["check", str(scene_path)]) == 2
    assert main(["run", str(scene_path), "--out", str(tmp_path / "o")]) == 2
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("demo, name, u_range", [
    ("curve-ribaucour", "axis", {"u_min": 0.5, "u_max": 0.5}),
    ("curve-ribaucour", "offset", {"u_min": 2.0, "u_max": -2.0}),
    ("cylinder-calapso", "generators", {"u_min": 1.0}),
    ("cylinder-calapso", "generators", {"u_max": -1.5})])
def test_an_empty_u_range_exits_2(tmp_path, demo, name, u_range):
    # line_curve and line_sphere_curve sample np.linspace(u_min, u_max,
    # n), whose step must be positive; a bound the config leaves out is
    # the constructor's default
    cfg = demo_config(demo, grid=32)
    cfg["objects"][name].update(u_range)
    low, high = ({**scene._U_RANGE, **u_range}[key]
                 for key in ("u_min", "u_max"))
    assert validate_scene(cfg) == [
        f"object '{name}': u_min {low} must be below u_max {high}"]
    scene_path = tmp_path / "scene.json"
    scene_path.write_text(json.dumps(cfg))
    assert main(["check", str(scene_path)]) == 2
    assert main(["run", str(scene_path), "--out", str(tmp_path / "o")]) == 2
    for kind in ("line_sphere_curve", "line_curve"):
        params = inspect.signature(
            scene._OBJECT_KINDS[kind].runner()).parameters
        assert {key: params[key].default
                for key in scene._U_RANGE} == scene._U_RANGE


def _demo_with(demo, path, value):
    """A demo config at grid 32 with the entry at path set to value."""
    cfg = demo_config(demo, grid=32)
    _node(cfg, path[:-1])[path[-1]] = value
    return cfg


def _dividing_by_zero(*args, **kwargs):
    raise ZeroDivisionError("float division by zero")


@pytest.mark.parametrize("config, runner, error", [
    (tiny_scene, "_op_verify_pair",
     "stage 'pair' failed: float division by zero"),
    (tiny_scene, "_line_curve",
     "stage 'objects.axis' failed: float division by zero"),
    (lambda: _demo_with("curve-ribaucour", ("objects", "tube_a", "radius"),
                        1e200), None,
     "stage 'objects.tube_a' failed: curve is not finite at sample 0"),
    (lambda: _demo_with("cylinder-darboux", ("pipeline", 4, "m"), 1e300),
     None, "stage 'darboux' failed: curve is not finite at sample 1")],
    ids=["ops._op_verify_pair", "ops._line_curve", "huge-tube-radius",
         "huge-darboux-m"])
def test_an_arithmetic_error_exits_one_with_one_line(tmp_path, monkeypatch,
                                                     capsys, config, runner,
                                                     error):
    # whatever division by zero or overflow escapes validation names its
    # stage or object, as every other pipeline error does: an ops runner
    # made to divide by zero, or a parameter so large that the tube sphere
    # curve or the Darboux section overflows, which the sphere curve
    # refuses where it is built
    if runner is not None:
        monkeypatch.setattr(ops, runner, _dividing_by_zero)
    scene_path = tmp_path / "scene.json"
    scene_path.write_text(json.dumps(config()))
    assert main(["run", str(scene_path), "--out", str(tmp_path / "o")]) == 1
    assert capsys.readouterr().err == error + "\n"


def test_tiny_scene_validates():
    assert validate_scene(tiny_scene()) == []


def test_schema_violations_are_reported():
    bad = tiny_scene(version=2)
    bad["pipeline"][0]["assert"] = [{"key": "residual", "max": -1.0}]
    errors = validate_scene(bad)
    assert any("version" in e for e in errors)
    assert any("minimum" in e for e in errors)


def test_semantic_violations_are_reported():
    cfg = tiny_scene()
    cfg["objects"]["weird"] = {"kind": "hexagon"}
    cfg["objects"]["early"] = {"kind": "tube", "curve": "late",
                               "radius": 1.0}
    cfg["objects"]["late"] = {"kind": "line_curve", "n": 8}
    cfg["pipeline"].append({"id": "pair", "op": "curve_check", "a": "axis",
                            "b": "ghost"})
    cfg["pipeline"].append({"id": "zero-m", "op": "darboux", "grid": "tube_a",
                            "omega": "ghost2", "m": 0, "store": "hat"})
    cfg["outputs"]["meshes"].append({"object": "nowhere", "path": "x.obj"})
    cfg["outputs"]["meshes"].append({"object": "tube_a",
                                     "path": "../out.obj"})
    cfg["outputs"]["meshes"].append({"object": "axis", "path": "a.obj"})
    cfg["outputs"]["meshes"].append({"object": "tube_a", "path": "t.obj",
                                     "n": 8})
    errors = validate_scene(cfg)
    joined = "\n".join(errors)
    assert "unknown kind 'hexagon'" in joined
    assert "'late' is not defined before use" in joined
    assert "duplicate id" in joined
    assert "'ghost' is not defined before use" in joined
    assert "m: must be nonzero" in joined
    assert "'nowhere' is never defined" in joined
    assert "must stay inside the artifact directory" in joined
    assert "mesh output 'a.obj': object 'axis' has no mesh" in errors
    assert ("mesh output 't.obj': object 'tube_a' is a grid, meshed at its "
            "own samples; 'n' sizes cyclide meshes only") in errors


def test_a_bad_parameter_does_not_hide_what_the_stage_stores():
    cfg = demo_config("cylinder-darboux", grid=16)
    middle = next(s for s in cfg["pipeline"] if s["id"] == "middle-form")
    middle["q_uu_expected"] = "minus one"
    assert validate_scene(cfg) == [
        "schema: pipeline -> 2 -> q_uu_expected: 'minus one' is not of "
        "type 'number'"]
    # a bad stored name still defines nothing
    middle["q_uu_expected"] = -1.0
    middle["store"] = "e/ta"
    errors = validate_scene(cfg)
    assert errors[0].startswith("schema: pipeline -> 2 -> store:")
    assert "stage 'conserved': reference 'eta' is not defined before use" \
        in errors


def test_unknown_parameters_rejected():
    cfg = tiny_scene()
    cfg["objects"]["axis"]["wobble"] = 3
    cfg["pipeline"][0]["tolerance"] = 1e-3
    errors = validate_scene(cfg)
    assert any("'wobble' was unexpected" in e for e in errors)
    assert any("'tolerance' was unexpected" in e for e in errors)


def test_declarations_match_their_constructors():
    for decl in list(scene._OBJECT_KINDS.values()) + list(scene._OPS.values()):
        assert set(decl.required) <= set(decl.params)
    for name, kind in scene._OBJECT_KINDS.items():
        params = inspect.signature(kind.runner()).parameters
        # references fill the leading positional parameters, then exactly
        # the required parameters lack a library default
        no_default = [key for key, p in params.items() if p.default is p.empty]
        assert no_default == list(params)[:len(kind.refs)] + list(
            kind.required), name
        for key in kind.params:
            assert key in params, (name, key)
            assert params[key].kind in (params[key].POSITIONAL_OR_KEYWORD,
                                        params[key].KEYWORD_ONLY), (name, key)


_BROKEN = {
    "string-radius": ("cylinder-calapso", ("objects", "generators", "radius"),
                      "1.0"),
    "n-3": ("cylinder-calapso", ("objects", "generators", "n"), 3),
    "direction-2": ("cylinder-calapso",
                    ("objects", "generators", "direction"), [0.0, 1.0]),
    "string-lambda": ("cylinder-calapso", ("pipeline", 1, "lambdas"),
                      [0.5, "1.0"]),
    "string-q_uu_expected": ("cylinder-calapso",
                             ("pipeline", 0, "q_uu_expected"), "-1.0"),
    "empty-lambdas": ("cylinder-calapso", ("pipeline", 1, "lambdas"), []),
    "torus-without-radius": ("torus-cyclide", ("pipeline", 3, "torus"),
                             {"ring": 2.0}),
    # which stored objects have a mesh follows from the declarations
    "mesh-of-a-sphere-curve": ("cylinder-darboux",
                               ("outputs", "meshes", 0, "object"),
                               "generators"),
    "mesh-of-omega0": ("cylinder-darboux", ("outputs", "meshes", 0, "object"),
                       "eta"),
    "mesh-of-darboux-spheres": ("cylinder-darboux",
                                ("outputs", "meshes", 0, "object"),
                                "hat_spheres"),
    "n-of-a-grid-mesh": ("cylinder-darboux", ("outputs", "meshes", 1, "n"),
                         32),
    # a radius-0 tube would be the curve's own lift
    "zero-tube-radius": ("curve-ribaucour", ("objects", "tube_a", "radius"),
                         0.0),
}


@pytest.mark.parametrize("demo, path, value", _BROKEN.values(),
                         ids=list(_BROKEN))
def test_broken_scene_exits_2_before_anything_is_built(tmp_path, demo, path,
                                                       value):
    cfg = demo_config(demo, grid=16)
    _node(cfg, path[:-1])[path[-1]] = value
    scene_path = tmp_path / "scene.json"
    scene_path.write_text(json.dumps(cfg))
    out = tmp_path / "o"
    assert main(["check", str(scene_path)]) == 2
    assert main(["run", str(scene_path), "--out", str(out)]) == 2
    with pytest.raises(SceneError, match=str(path[-1])):
        run_scene(cfg, out)
    assert not out.exists()


# a reference names an object of the type it takes: a sphere curve, a
# grid, a cyclide or an omega0 structure
_WRONG_TYPE = {
    "tube-of-a-tube": (
        "curve-ribaucour", ("objects", "tube_b", "curve"), "tube_a",
        "object 'tube_b': reference 'tube_a' is a grid, need a sphere curve"),
    "validate-a-line-curve": (
        "curve-ribaucour", ("pipeline", 0),
        {"id": "lift", "op": "validate", "target": "axis"},
        "stage 'lift': reference 'axis' is a sphere curve, need a grid"),
    "channel-of-darboux-spheres": (
        "cylinder-darboux", ("pipeline", 5, "target"), "hat_spheres",
        "stage 'transform-is-channel': reference 'hat_spheres' is a sphere "
        "curve, need a grid"),
    "darboux-with-a-grid-as-omega": (
        "cylinder-darboux", ("pipeline", 4, "omega"), "cylinder",
        "stage 'darboux': reference 'cylinder' is a grid, need an omega0 "
        "structure"),
    "cyclides-with-omega-as-grid": (
        "cylinder-darboux", ("pipeline", 7, "grid_b"), "eta",
        "stage 'cyclide-family': reference 'eta' is an omega0 structure, "
        "need a grid"),
}


@pytest.mark.parametrize("demo, path, value, error", _WRONG_TYPE.values(),
                         ids=list(_WRONG_TYPE))
def test_wrong_type_reference_exits_2_before_anything_is_built(
        tmp_path, capsys, demo, path, value, error):
    cfg = demo_config(demo, grid=16)
    _node(cfg, path[:-1])[path[-1]] = value
    assert validate_scene(cfg) == [error]
    scene_path = tmp_path / "scene.json"
    scene_path.write_text(json.dumps(cfg))
    out = tmp_path / "o"
    assert main(["check", str(scene_path)]) == 2
    assert main(["run", str(scene_path), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err == f"{error}\ninvalid scene: {error}\n"
    assert not out.exists()


def _assert_checker_matches_jsonschema(cfg, every_schema):
    """The in-package checker reports jsonschema's (path, message) list,
    order included, for cfg under the scene schema and for each object and
    stage under its own kind's or op's schema (or under every kind or op
    schema when every_schema)."""
    pairs = [(scene.SCENE_SCHEMA, cfg)]
    for entries, schemas, name in ((cfg.get("objects"), scene._KIND_SCHEMAS,
                                    "kind"),
                                   (cfg.get("pipeline"), scene._OP_SCHEMAS,
                                    "op")):
        if isinstance(entries, dict):
            entries = list(entries.values())
        for entry in entries if isinstance(entries, list) else ():
            own = entry.get(name) if isinstance(entry, dict) else None
            pairs += [(schema, entry) for key, schema in schemas.items()
                      if every_schema or key == own]
    for schema, instance in pairs:
        assert scene._schema_errors(schema, instance) == \
            oracles.jsonschema_errors(schema, instance)


@pytest.mark.parametrize("name", demo_names())
def test_schema_checker_matches_jsonschema_on_demos(name):
    _assert_checker_matches_jsonschema(demo_config(name, grid=16), True)


@pytest.mark.parametrize("demo, path, value", _BROKEN.values(),
                         ids=list(_BROKEN))
def test_schema_checker_matches_jsonschema_on_broken_scenes(demo, path,
                                                            value):
    cfg = demo_config(demo, grid=16)
    _node(cfg, path[:-1])[path[-1]] = value
    _assert_checker_matches_jsonschema(cfg, True)


def test_schema_checker_orders_equal_messages_as_jsonschema():
    # jsonschema sorts errors by their full description, so among equal
    # messages the instance path decides, compared as text ("[10]" < "[2]")
    cfg = demo_config("cylinder-calapso", grid=16)
    cfg["pipeline"][1]["lambdas"] = ["x"] * 12
    cfg["pipeline"][0]["assert"] = [5, 5, {"key": "b", "max": 0},
                                    {"key": "b", "max": 0}]
    _assert_checker_matches_jsonschema(cfg, True)
    paths = [path for path, _ in scene._schema_errors(
        scene._OP_SCHEMAS["calapso"], cfg["pipeline"][1])]
    assert paths.index(("lambdas", 10)) < paths.index(("lambdas", 2))


_JSON = st.recursive(
    st.none() | st.booleans() | st.integers() | st.text(max_size=4)
    | st.floats(allow_nan=False, allow_infinity=False)
    | st.sampled_from([0, 1, 1.0, 4, 64.0, -1e-3, "u", "a.obj", "r.json"]),
    lambda inner: (st.lists(inner, max_size=4)
                   | st.dictionaries(st.text(max_size=4), inner, max_size=3)),
    max_leaves=6)


@st.composite
def edited_demo(draw):
    """A demo config at grid 16 after one to three edits, each replacing
    a node by any JSON value, deleting a key or adding an unknown key."""
    cfg = demo_config(draw(st.sampled_from(demo_names())), grid=16)
    for _ in range(draw(st.integers(1, 3))):
        paths = list(_paths(cfg))
        keyed = [p for p in paths if isinstance(_node(cfg, p[:-1]), dict)]
        edit = draw(st.sampled_from(["replace", "delete", "add"]))
        if edit == "add" or not keyed:
            path = draw(st.sampled_from(
                [()] + [p for p in paths if isinstance(_node(cfg, p), dict)]))
            _node(cfg, path)[draw(st.text(max_size=6))] = draw(_JSON)
        elif edit == "delete":
            path = draw(st.sampled_from(keyed))
            del _node(cfg, path[:-1])[path[-1]]
        else:
            path = draw(st.sampled_from(paths))
            _node(cfg, path[:-1])[path[-1]] = draw(_JSON)
    return cfg


@settings(max_examples=300, deadline=None, derandomize=True)
@given(edited_demo())
def test_schema_checker_matches_jsonschema_on_edited_demos(cfg):
    _assert_checker_matches_jsonschema(cfg, False)


def test_unimplemented_schema_keyword_raises():
    with pytest.raises(ValueError, match="'maxLength'"):
        scene._Decl("ops._op_validate",
                    params=dict(label={"type": "string", "maxLength": 8}),
                    ).schema({})
    with pytest.raises(ValueError, match="'additionalProperties'"):
        scene._checked({"type": "object", "additionalProperties": {}})
    with pytest.raises(ValueError, match="'enum'"):
        scene._checked({"enum": ["u", "theta"]})


@pytest.mark.parametrize("path, value", [
    (("objects", "generators", "radius"), float("nan")),
    (("pipeline", 1, "lambdas", 0), float("inf")),
])
def test_non_finite_numbers_rejected_by_run_scene(tmp_path, path, value):
    cfg = demo_config("cylinder-calapso", grid=16)
    _node(cfg, path[:-1])[path[-1]] = value
    where = " -> ".join(map(str, path))
    assert validate_scene(cfg) == [f"{where}: {value!r} is not a finite number"]
    with pytest.raises(SceneError, match=where):
        run_scene(cfg, tmp_path / "o")
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("path, value", [
    (("objects", "generators", "radius"), np.float32("nan")),
    (("objects", "generators", "radius"), np.float32("-inf")),
    (("pipeline", 1, "lambdas", 0), np.float64("nan")),
    (("pipeline", 1, "lambdas", 0), np.float64("inf")),
], ids=["float32-nan", "float32-minus-inf", "float64-nan", "float64-inf"])
def test_non_finite_numpy_scalars_rejected(path, value):
    # the contract imports no numpy, yet numpy's float scalars from Python
    # are checked like floats; finite ones pass
    cfg = demo_config("cylinder-calapso", grid=16)
    _node(cfg, path[:-1])[path[-1]] = value
    where = " -> ".join(map(str, path))
    assert validate_scene(cfg) == [f"{where}: {value!r} is not a finite number"]
    _node(cfg, path[:-1])[path[-1]] = type(value)(0.5)
    assert validate_scene(cfg) == []


def test_cli_run_validates_once(tmp_path, monkeypatch):
    calls = []

    def counted(config):
        calls.append(config)
        return validate_scene(config)

    monkeypatch.setattr(scene, "validate_scene", counted)
    monkeypatch.setattr(cli, "validate_scene", counted)
    scene_path = tmp_path / "scene.json"
    scene_path.write_text(json.dumps(tiny_scene()))
    assert main(["run", str(scene_path), "--out", str(tmp_path / "o")]) == 0
    assert len(calls) == 1


def test_validation_does_not_import_jsonschema():
    probe = ("import sys, liechannel\n"
             "cfg = liechannel.demo_config('cylinder-darboux', grid=16)\n"
             "assert liechannel.validate_scene(cfg) == []\n"
             "print(sorted({'jsonschema', 'referencing', 'attrs'}"
             " & set(sys.modules)))\n")
    src = os.path.join(os.path.dirname(os.path.dirname(
        os.path.abspath(__file__))), "src")
    done = subprocess.run([sys.executable, "-c", probe], capture_output=True,
                          text=True, check=True,
                          env={**os.environ, "PYTHONPATH": src})
    assert done.stdout.strip() == "[]"


#: the modules that import numpy, and numpy itself
COMPUTE_MODULES = {"numpy", "liechannel.core", "liechannel.stencils",
                   "liechannel.legendre", "liechannel.channel",
                   "liechannel.transforms", "liechannel.conformal",
                   "liechannel.mesh", "liechannel.ops"}
#: the last line of a probe: which of them it has loaded
_LOADED = f"print(sorted(set(sys.modules) & {COMPUTE_MODULES!r}))\n"


def _fresh(code):
    """Standard output of `code` run by a fresh interpreter on src/."""
    src = os.path.join(os.path.dirname(os.path.dirname(
        os.path.abspath(__file__))), "src")
    done = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, check=True,
                          env={**os.environ, "PYTHONPATH": src})
    return done.stdout.strip().splitlines()


def test_validation_imports_no_compute_module():
    probe = ("import sys, liechannel\n"
             "cfg = liechannel.demo_config('cylinder-darboux', grid=16)\n"
             "assert liechannel.validate_scene(cfg) == []\n" + _LOADED)
    assert _fresh(probe) == ["[]"]


def test_cli_check_imports_no_compute_module(tmp_path):
    good, bad = tmp_path / "good.json", tmp_path / "bad.json"
    good.write_text(json.dumps(demo_config("cylinder-darboux", grid=16)))
    bad.write_text(json.dumps(tiny_scene(version=7)))
    probe = ("import sys\n"
             "from liechannel.cli import main\n"
             f"print(main(['check', {str(good)!r}]),"
             f" main(['check', {str(bad)!r}]))\n" + _LOADED)
    assert _fresh(probe)[-2:] == ["0 2", "[]"]


def test_every_export_is_the_object_of_its_defining_module():
    # resolved lazily in a fresh interpreter: functions and classes are
    # compared with the module named by their __module__, constants with
    # the module the export table names
    probe = textwrap.dedent("""\
        import importlib, inspect, liechannel
        names = liechannel.__all__
        wrong = []
        for name in names:
            obj = getattr(liechannel, name)
            home = (obj.__module__ if inspect.isclass(obj)
                    or inspect.isfunction(obj) else
                    "liechannel." + liechannel._MODULE_OF[name])
            if getattr(importlib.import_module(home), name) is not obj:
                wrong.append(name)
        star = {}
        exec("from liechannel import *", star)
        print(len(names) == len(set(names)), wrong,
              sorted(set(names) - set(dir(liechannel))),
              sorted(set(names) - set(star)))
        """)
    assert _fresh(probe) == ["True [] [] []"]


def test_integer_valued_floats_still_run(tmp_path):
    cfg = tiny_scene()
    cfg["objects"]["axis"]["n"] = 24.0
    cfg["objects"]["tube_a"]["n_theta"] = 16.0
    assert run_scene(cfg, tmp_path / "a") == run_scene(tiny_scene(),
                                                       tmp_path / "b")


def test_stored_names_are_usable_downstream():
    cfg = demo_config("cylinder-darboux", grid=32)
    # the darboux stage stores "hat" and "hat_spheres"; mesh outputs may
    # also use the congruence cyclide prefix
    assert validate_scene(cfg) == []
    cfg["outputs"]["meshes"].append({"object": "cyclide_999",
                                     "path": "extra.obj", "n": 16})
    # prefix names resolve at run time, and a cyclide takes its sampling
    assert validate_scene(cfg) == []


# ---------------------------------------------------------------------------
# execution
# ---------------------------------------------------------------------------

def test_run_scene_writes_report_and_meshes(tmp_path):
    report = run_scene(tiny_scene(), tmp_path)
    assert report["passed"] is True
    assert report["schema"] == "liechannel-report/1"
    assert (tmp_path / "tube.obj").exists()
    on_disk = json.loads((tmp_path / "report.json").read_text())
    assert on_disk == json.loads(json.dumps(report))
    stage = on_disk["stages"][0]
    check = stage["assertions"][0]
    assert check["tolerance"] == 1e-10
    assert check["measured"] <= 1e-10
    assert on_disk["meshes"][0]["vertices"] == 24 * 16


def test_invalid_scene_writes_nothing(tmp_path):
    out = tmp_path / "artifacts"
    with pytest.raises(SceneError):
        run_scene(tiny_scene(version=7), out)
    assert not out.exists()


def test_pipeline_failure_names_the_stage(tmp_path):
    cfg = tiny_scene()
    # touching curves: the Ribaucour check refuses them at run time
    cfg["objects"]["offset"]["origin"] = [0.0, 0.0, 0.0]
    with pytest.raises(PipelineError, match="pair"):
        run_scene(cfg, tmp_path)


def test_object_build_failure_names_the_object(tmp_path):
    cfg = tiny_scene()
    cfg["objects"]["tube_a"]["radius"] = 1e200
    with pytest.raises(PipelineError, match="objects.tube_a"):
        run_scene(cfg, tmp_path)


def _built(cfg, objects=None):
    return ops._build(scene._OBJECT_KINDS[cfg["kind"]], cfg, objects or {})


def test_space_curve_kinds_are_radius_0_sphere_curves():
    line_cfg = {"kind": "line_curve", "n": 24, "u_min": -0.5, "u_max": 2.0,
                "direction": [0.0, 1.0, 1.0], "origin": [2.0, 0.0, 0.0]}
    line = _built(line_cfg)
    expected = line_sphere_curve(n=24, u_min=-0.5, u_max=2.0, radius=0.0,
                                 direction=(0.0, 1.0, 1.0),
                                 origin=(2.0, 0.0, 0.0))
    ring = _built({"kind": "circle_curve", "n": 24, "radius": 3.0})
    expected_ring = circle_sphere_curve(24, ring_radius=3.0, radius=0.0)
    for curve, want in ((line, expected), (ring, expected_ring)):
        assert isinstance(curve, SphereCurve)
        assert np.array_equal(curve.vectors, want.vectors)
        assert np.array_equal(curve.u_values, want.u_values)
        assert curve.periodic_u == want.periodic_u
        for order in (1, 2):
            assert np.array_equal(curve.derivative(order),
                                  want.derivative(order))
        assert np.max(np.abs(curve.vectors[:, 5])) == 0.0   # point spheres
    lift = _built({"kind": "envelope", "sphere_curve": "c",
                   "n_theta": 16}, {"c": line})
    grid = envelope(expected, n_theta=16)
    assert np.array_equal(lift.sigma, grid.sigma)
    assert np.array_equal(lift.tau, grid.tau)


@pytest.mark.parametrize("curve", [
    line_sphere_curve(24, radius=0.0, origin=(2.0, 0.0, 0.0)),
    circle_sphere_curve(24, ring_radius=2.0, radius=0.0)],
    ids=["line", "circle"])
def test_a_tube_is_the_envelope_of_its_tube_sphere_curve(curve):
    grid = _built({"kind": "tube", "curve": "c", "radius": 0.5,
                   "n_theta": 12}, {"c": curve})
    want = envelope(tube_sphere_curve(curve, 0.5), 12)
    assert np.array_equal(grid.sigma, want.sigma)
    assert np.array_equal(grid.tau, want.tau)
    assert grid.periodic_u == want.periodic_u == curve.periodic_u
    assert grid.periodic_theta and want.periodic_theta


def test_curve_ops_take_any_sphere_curve(tmp_path):
    # the curve-level ops read sphere curves, so genuine spheres (radius
    # 0.5) run through the curve-ribaucour demo as the points do
    cfg = demo_config("curve-ribaucour", grid=16)
    cfg["objects"]["axis"] = {"kind": "line_sphere_curve", "n": 16,
                              "radius": 0.5}
    cfg["objects"]["offset"] = {"kind": "line_sphere_curve", "n": 16,
                                "radius": 0.5, "origin": [2.0, 0.0, 0.0]}
    assert validate_scene(cfg) == []
    report = run_scene(cfg, tmp_path / "o")
    assert report["passed"] is True


def test_degenerate_space_curve_fails_at_its_first_use(tmp_path, capsys):
    # a line with no direction is no regular curve; nothing checks it
    # when it is sampled, so the first object built from it fails
    cfg = demo_config("curve-ribaucour", grid=16)
    cfg["objects"]["axis"]["direction"] = [0.0, 0.0, 0.0]
    assert validate_scene(cfg) == []
    with pytest.raises(PipelineError, match="^stage 'objects.tube_a' "
                       "failed: curve is not regular at samples"):
        run_scene(cfg, tmp_path / "o")
    scene_path = tmp_path / "scene.json"
    scene_path.write_text(json.dumps(cfg))
    assert main(["run", str(scene_path), "--out", str(tmp_path / "p")]) == 1
    assert "curve is not regular" in capsys.readouterr().err


def test_dupin_fit_index_outside_the_curve(tmp_path):
    cfg = demo_config("torus-cyclide", grid=16)
    cfg["pipeline"][3]["indices"] = [0, 5, 99]
    assert validate_scene(cfg) == []
    with pytest.raises(PipelineError, match="dupin-through-spheres.*99"):
        run_scene(cfg, tmp_path)
    cfg["pipeline"][3]["indices"] = [0, 5, -1]
    assert any("-1 is less than the minimum of 0" in e
               for e in validate_scene(cfg))


def test_degenerate_cyclide_names_its_u_index(tmp_path):
    # at this seed one sampled cyclide subspace of the congruence is
    # degenerate; the error says which sample it was
    cfg = demo_config("cylinder-darboux", grid=160, seed=7106)
    with pytest.raises(PipelineError,
                       match=r"tangent-cyclides.*congruence u-index 104\b"):
        run_scene(cfg, tmp_path)


def _linalg_calls_while(monkeypatch, inside):
    """The list that every numpy.linalg call made while the list inside
    is non-empty is appended to, by name."""
    calls = []
    for name in np.linalg.__all__:
        original = getattr(np.linalg, name)
        if callable(original) and not isinstance(original, type):
            def counting(*args, _name=name, _original=original, **kwargs):
                if inside:
                    calls.append(_name)
                return _original(*args, **kwargs)
            monkeypatch.setattr(np.linalg, name, counting)
    return calls


def _linalg_calls_inside(monkeypatch, op_name):
    """The list that every numpy.linalg call made inside the op op_name
    is appended to, by name."""
    inside = []
    calls = _linalg_calls_while(monkeypatch, inside)
    _, runner = scene._OPS[op_name].run.split(".")
    op = getattr(ops, runner)

    def run(args, ctx):
        inside.append(True)
        try:
            return op(args, ctx)
        finally:
            inside.pop()

    monkeypatch.setattr(ops, runner, run)
    return calls


def _darboux_stage(tmp_path, calls, stage_id, grid):
    """Measurements of one stage of the cylinder-darboux demo (no meshes)
    and the calls counted during the run."""
    cfg = demo_config("cylinder-darboux", grid=grid)
    del cfg["outputs"]["meshes"]
    del calls[:]
    report = run_scene(cfg, tmp_path / f"{stage_id}-{grid}")
    assert report["passed"]
    stage, = [s for s in report["stages"] if s["id"] == stage_id]
    return stage["measurements"], list(calls)


def test_congruence_contact_makes_as_many_linalg_calls_at_any_grid(
        tmp_path, monkeypatch):
    # every sampled cyclide is measured in one batched pass
    calls = _linalg_calls_inside(monkeypatch, "congruence_contact")
    (small_rep, small), (large_rep, large) = (
        _darboux_stage(tmp_path, calls, "tangent-cyclides", grid)
        for grid in (32, 64))
    assert small_rep["n_cyclides"] < large_rep["n_cyclides"]
    assert 0 < len(small) == len(large)
    assert "svd" not in small and "eigvalsh" not in small


def test_sphericity_makes_as_many_linalg_calls_at_any_grid(monkeypatch):
    # the sphere fit behind the sphericity op fits every requested line in
    # one batched SVD: here every u-line of a cylinder at 32^2 and 64^2
    grids = [envelope(line_sphere_curve(n), n) for n in (32, 64)]
    calls = _linalg_calls_while(monkeypatch, [True])
    counted = []
    for grid in grids:
        del calls[:]
        residuals = legendre.spherical_line_residuals(
            grid, range(grid.shape[0]))
        counted.append(list(calls))
        assert residuals.shape == (grid.shape[0],)
    small, large = counted
    assert small == large and small.count("svd") == 1


def _workloads():
    """The benchmark's workload generators, {name: seed -> config}."""
    path = os.path.join(os.path.dirname(os.path.dirname(
        os.path.abspath(__file__))), "perfbench", "workloads.py")
    spec = importlib.util.spec_from_file_location("workloads", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.WORKLOADS


def _curve_pairs(seed):
    """The curve-pairs scene of the benchmark's workload generators."""
    return _workloads()["curve-pairs"](seed)


def test_still_curve_pair_is_refused_where_it_is_built(tmp_path):
    # both lines standing still: the first tube sphere curve refuses its
    # curve, as envelope does, before any stage runs
    cfg = _curve_pairs(41)
    for name in ("axis", "offset"):
        cfg["objects"][name]["direction"] = [0.0, 0.0, 0.0]
    assert validate_scene(cfg) == []
    with pytest.raises(PipelineError, match=r"^stage 'objects\.spheres_a' "
                       r"failed: curve is not regular at samples \[0, 1"):
        run_scene(cfg, tmp_path)


def test_object_kinds_call_the_constructor_their_module_holds(tmp_path,
                                                              monkeypatch):
    # a declaration looks its constructor up at each call, so a wrapper
    # bound in the defining module (as perfbench's tracer binds one) runs
    calls = []
    envelope = channel.envelope

    def counting(*args, **kwargs):
        calls.append(1)
        return envelope(*args, **kwargs)

    monkeypatch.setattr(channel, "envelope", counting)
    cfg = {"version": 1, "objects": {
        "generators": {"kind": "line_sphere_curve", "n": 16},
        "cylinder": {"kind": "envelope", "sphere_curve": "generators",
                     "n_theta": 8}},
        "pipeline": [{"id": "valid", "op": "validate", "target": "cylinder",
                      "assert": [{"key": "passed", "true": True}]}]}
    assert run_scene(cfg, tmp_path)["passed"]
    assert len(calls) == 1


@pytest.mark.parametrize("config, expected", [
    (lambda: demo_config("cylinder-darboux", grid=32), 3),
    (lambda: demo_config("cylinder-darboux", grid=64), 3),
    (lambda: demo_config("torus-cyclide"), 2),
    (lambda: _curve_pairs(41), 2)],
    ids=["cylinder-darboux-32", "cylinder-darboux-64", "torus-cyclide",
         "curve-pairs"])
def test_each_circle_family_takes_one_eigh_call(config, expected, tmp_path,
                                                monkeypatch):
    # one lightcone_frames call per envelope, Darboux initial condition,
    # congruence and cyclide fit; meshes reuse the cyclides' frames
    calls = []
    eigh = np.linalg.eigh

    def counting(*args, **kwargs):
        calls.append(1)
        return eigh(*args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigh", counting)
    cfg = config()
    assert cfg["outputs"]["meshes"]
    run_scene(cfg, tmp_path / "meshes")
    assert len(calls) == expected
    del cfg["outputs"]["meshes"], calls[:]
    run_scene(cfg, tmp_path / "bare")
    assert len(calls) == expected


def test_curve_ribaucour_takes_no_svd(tmp_path, monkeypatch):
    # its tubes are envelopes, which measure nothing by SVD
    calls = []
    svd = np.linalg.svd

    def counting(*args, **kwargs):
        calls.append(1)
        return svd(*args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", counting)
    cfg = demo_config("curve-ribaucour")
    assert run_scene(cfg, tmp_path)["meshes"]
    assert calls == []


def test_calapso_takes_one_solve_per_lambda_and_no_inverse(tmp_path,
                                                           monkeypatch):
    # each flow's Magnus-Pade increments come from one batched solve, and
    # the gauge is the metric adjoint of the integrated Tinv
    calls = {"inv": 0, "solve": 0}
    for name in calls:
        def counting(*args, _name=name, _call=getattr(np.linalg, name),
                     **kwargs):
            calls[_name] += 1
            return _call(*args, **kwargs)
        monkeypatch.setattr(np.linalg, name, counting)
    cfg = demo_config("cylinder-calapso", grid=32)
    run_scene(cfg, tmp_path)
    stage = next(s for s in cfg["pipeline"] if s["op"] == "calapso")
    assert calls == {"inv": 0, "solve": len(stage["lambdas"])}


@pytest.mark.parametrize("config", [
    lambda: demo_config("cylinder-darboux", grid=32),
    lambda: _curve_pairs(41)], ids=["cylinder-darboux", "curve-pairs"])
def test_each_curve_is_differentiated_at_most_once(config, tmp_path,
                                                   monkeypatch):
    # a curve gets its derivatives from its maker or, on first request,
    # from the stencils, and every later check reads the same arrays
    curves, reads = {}, []
    post_init, derivative = SphereCurve.__post_init__, SphereCurve.derivative

    def building(curve):
        post_init(curve)
        curves[id(curve)] = [curve, {1: int(curve.d1 is not None),
                                     2: int(curve.d2 is not None)}]

    def reading(curve, order):
        curves[id(curve)][1][order] += getattr(curve, f"d{order}") is None
        reads.append(curve)
        return derivative(curve, order)

    monkeypatch.setattr(SphereCurve, "__post_init__", building)
    monkeypatch.setattr(SphereCurve, "derivative", reading)
    run_scene(config(), tmp_path)
    assert max(max(count.values()) for _, count in curves.values()) <= 1
    assert len(reads) > len(curves) > 0


def test_failed_assertion_flips_the_verdict(tmp_path):
    cfg = tiny_scene()
    cfg["pipeline"][0]["assert"] = [{"key": "residual", "max": 1e-30},
                                    {"key": "no_such_key", "true": True}]
    report = run_scene(cfg, tmp_path)
    assert report["passed"] is False
    checks = report["stages"][0]["assertions"]
    assert [c["passed"] for c in checks] == [False, False]
    assert checks[1]["measured"] is None


def test_demo_suite_is_deterministic(tmp_path):
    blobs = []
    for run in ("a", "b"):
        out = tmp_path / run
        for name in demo_names():
            run_scene(demo_config(name), out / name)
        blobs.append(b"".join(
            (out / name / "report.json").read_bytes()
            for name in demo_names()))
    assert blobs[0] == blobs[1]


def _count_grids(monkeypatch, name):
    """Every grid passed to the per-grid pass legendre.<name>, in order."""
    grids = []
    compute = getattr(legendre, name)

    def counting(grid, *args):
        grids.append(grid)
        return compute(grid, *args)

    monkeypatch.setattr(legendre, name, counting)
    return grids


def _label_grids(monkeypatch):
    """(grid, source) of every grid an envelope, a Darboux or a Calapso
    transform makes, in order."""
    sources = []

    def label(module, name, source, grid_of):
        make = getattr(module, name)

        def labelling(*args, **kwargs):
            out = make(*args, **kwargs)
            sources.append((grid_of(out), source))
            return out

        monkeypatch.setattr(module, name, labelling)

    label(channel, "envelope", "envelope", lambda grid: grid)
    label(ops, "darboux_transform", "darboux", lambda result: result.hat_f)
    label(ops, "calapso_transform", "calapso", lambda made: made[1])
    return sources


#: (validation, curvature-extraction, splitting) passes of each demo, by
#: grid source
PER_GRID_PASSES = {
    "cylinder-darboux": (["darboux", "envelope"], ["darboux", "envelope"],
                         ["darboux", "envelope"]),
    "cylinder-calapso": (["calapso"] * 3, ["calapso"] * 3 + ["envelope"],
                         []),
    "torus-cyclide": (["envelope"], ["envelope"], ["envelope"]),
    "helix-channel": (["envelope"], ["envelope"], ["envelope"]),
    "curve-ribaucour": ([], [], []),
}


@pytest.mark.parametrize("name", demo_names())
def test_each_grid_is_extracted_and_validated_once(tmp_path, monkeypatch,
                                                   name):
    # validation, channel detection, the middle form and the cyclide stage
    # all read the same per-grid data: at most one validation pass and one
    # curvature pass per grid (each builds its own quotient frames, slab
    # by slab, which no grid keeps) and at most one splitting pass, shared
    # by the channel and lie_cyclide ops; the middle form and the calapso
    # op read only the rate verdict
    passes = [_count_grids(monkeypatch, name) for name in (
        "_legendre_report", "_extract_curvature", "_split_cyclides")]
    sources = _label_grids(monkeypatch)
    cfg = demo_config(name)
    cfg["outputs"].pop("meshes", None)
    assert run_scene(cfg, tmp_path)["passed"]
    for grids, expected in zip(passes, PER_GRID_PASSES[name]):
        assert len({id(grid) for grid in grids}) == len(grids)
        assert sorted(next(source for made, source in sources
                           if made is grid) for grid in grids) == expected


def test_calapso_scene_builds_no_split_projector(tmp_path, monkeypatch):
    # the middle form and the calapso op read only the rate verdict; each
    # transformed grid's verdict is the one the cross-checked report has
    split_grids = _count_grids(monkeypatch, "_split_cyclides")
    outputs = []
    transform = ops.calapso_transform

    def keeping(*args, **kwargs):
        gauge, out = transform(*args, **kwargs)
        outputs.append(out)
        return gauge, out

    monkeypatch.setattr(ops, "calapso_transform", keeping)
    cfg = demo_config("cylinder-calapso", grid=32)
    del cfg["outputs"]["meshes"]
    report = run_scene(cfg, tmp_path)
    assert report["passed"]
    assert split_grids == []
    per_lambda = report["stages"][1]["measurements"]["per_lambda"]
    assert len(outputs) == len(per_lambda) == 3
    for out, measured in zip(outputs, per_lambda.values()):
        assert (measured["circular_dir"]
                == legendre.is_channel(out).circular_dir)
    # the cross-checked reports do build one each, so the count is live
    assert len(split_grids) == 3


@pytest.mark.parametrize("name", demo_names())
def test_every_demo_runs_at_small_grids(tmp_path, name, capsys):
    # grids 16 and 24 run every stage and write every mesh, and every demo
    # passes there but helix-channel, whose channel direction is misread
    # this coarse; grid 32 passes them all
    out = tmp_path / "o"
    exits = (0, 1) if name == "helix-channel" else (0,)
    for grid in (16, 24):
        assert main(["demo", name, "--grid", str(grid),
                     "--out", str(out)]) in exits
        report = json.loads((out / name / "report.json").read_text())
        config = demo_config(name, grid=grid)
        assert [s["id"] for s in report["stages"]] == [
            s["id"] for s in config["pipeline"]]
        for entry in config["outputs"].get("meshes", []):
            assert (out / name / entry["path"]).exists()
    assert main(["demo", name, "--grid", "32", "--out", str(out)]) == 0


def test_demo_overrides():
    cfg = demo_config("helix-channel", grid=32, seed=11)
    assert cfg["seed"] == 11
    assert cfg["objects"]["helix"]["n"] == 32
    with pytest.raises(KeyError, match="unknown demo"):
        demo_config("moebius-strip")


# ---------------------------------------------------------------------------
# CLI
# ---------------------------------------------------------------------------

def test_cli_check_and_run(tmp_path, capsys):
    scene_path = tmp_path / "scene.json"
    scene_path.write_text(json.dumps(tiny_scene()))
    assert main(["check", str(scene_path)]) == 0
    assert main(["run", str(scene_path), "--out", str(tmp_path / "o")]) == 0
    assert (tmp_path / "o" / "tiny" / "report.json").exists()
    out = capsys.readouterr().out
    assert "tiny: PASSED" in out


def test_cli_rejects_malformed_scene(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert main(["check", str(bad)]) == 2

    bad.write_text(json.dumps(tiny_scene(version=9)))
    assert main(["check", str(bad)]) == 2
    assert main(["run", str(bad), "--out", str(tmp_path / "o")]) == 2
    assert not (tmp_path / "o").exists()
    assert "schema" in capsys.readouterr().err


def test_cli_rejects_non_finite_numbers(tmp_path, capsys):
    for literal in ("NaN", "Infinity", "-Infinity"):
        cfg = demo_config("helix-channel", grid=32)
        cfg["objects"]["helix"]["radius"] = float(literal)
        bad = tmp_path / "helix.json"
        bad.write_text(json.dumps(cfg))
        assert literal in bad.read_text()
        with pytest.raises(SceneError, match="not a number"):
            load_scene(bad)
        assert main(["check", str(bad)]) == 2
        assert main(["run", str(bad), "--out", str(tmp_path / "o")]) == 2
        assert not (tmp_path / "o").exists()
        assert "not a number" in capsys.readouterr().err


def test_cli_soft_failure_exits_one(tmp_path, capsys):
    cfg = tiny_scene()
    cfg["pipeline"][0]["assert"] = [{"key": "residual", "max": 1e-30}]
    scene_path = tmp_path / "scene.json"
    scene_path.write_text(json.dumps(cfg))
    assert main(["run", str(scene_path), "--out", str(tmp_path / "o")]) == 1
    assert "FAILED" in capsys.readouterr().out


@pytest.mark.parametrize("outputs", [
    {"report": "sub/report.json"},
    {"meshes": [{"object": "tube_a", "path": "sub/deeper/tube.obj"}]}],
    ids=["report", "mesh"])
def test_cli_writes_outputs_at_nested_paths(tmp_path, outputs):
    # the artifact-directory rule admits nested paths; their directories
    # are made inside the scene's
    scene_path = tmp_path / "scene.json"
    scene_path.write_text(json.dumps(tiny_scene(outputs=outputs)))
    assert main(["check", str(scene_path)]) == 0
    assert main(["run", str(scene_path), "--out", str(tmp_path / "o")]) == 0
    path = outputs.get("report") or outputs["meshes"][0]["path"]
    assert (tmp_path / "o" / "tiny" / path).is_file()


def test_cli_output_failure_exits_one_with_one_line(tmp_path, capsys):
    # an --out naming a file cannot hold the scene's directory
    scene_path = tmp_path / "scene.json"
    scene_path.write_text(json.dumps(tiny_scene()))
    blocker = tmp_path / "file"
    blocker.write_text("")
    assert main(["run", str(scene_path), "--out", str(blocker)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("stage 'outputs' failed: ") and err.count("\n") == 1


def test_cli_demo_and_env_default(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("LIECHANNEL_OUT", str(tmp_path / "envout"))
    monkeypatch.chdir(tmp_path)
    assert main(["demo", "helix-channel", "--grid", "32"]) == 0
    assert (tmp_path / "envout" / "helix-channel" / "report.json").exists()
    assert main(["demo", "no-such-demo"]) == 2
    assert "unknown demo" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# mutated demo configs
# ---------------------------------------------------------------------------

_OTHER_TYPES = ["text", 7, 0.5, True, None, [1.0], {"a": 1}]


@st.composite
def mutated_demo(draw):
    """A demo config at grid 16 with one random mutation."""
    cfg = demo_config(draw(st.sampled_from(demo_names())), grid=16)
    paths = list(_paths(cfg))
    leaves = [p for p in paths if not isinstance(_node(cfg, p), (dict, list))]
    targets = {
        "type": leaves, "integer": leaves, "number": leaves,
        "length": [p for p in paths if isinstance(_node(cfg, p), list)
                   and all(isinstance(v, (int, float))
                           for v in _node(cfg, p))],
        "drop": [p for p in paths if isinstance(_node(cfg, p[:-1]), dict)],
        "unknown": [()] + [p for p in paths
                           if isinstance(_node(cfg, p), dict)],
    }
    mutation = draw(st.sampled_from([m for m in targets if targets[m]]))
    path = draw(st.sampled_from(targets[mutation]))
    if mutation == "unknown":
        _node(cfg, path)["wobble"] = 1
        return cfg
    parent, old = _node(cfg, path[:-1]), _node(cfg, path)
    if mutation == "drop":
        del parent[path[-1]]
    elif mutation == "length":
        parent[path[-1]] = (old[:2] if draw(st.booleans())
                            else (old + [0.0] * 4)[:4])
    else:
        parent[path[-1]] = draw({
            "type": st.sampled_from([v for v in _OTHER_TYPES
                                     if type(v) is not type(old)]),
            "integer": st.integers(-2, 40),
            "number": st.one_of(st.just(0.0), st.floats(-3.0, 3.0)),
        }[mutation])
    return cfg


def _rejected_or_runs(cfg):
    """cfg either fails validation (exit 2 from check and run, with
    nothing written) or runs to a report or a PipelineError naming the
    stage; any other exception is a bug."""
    with tempfile.TemporaryDirectory() as tmp:
        out = os.path.join(tmp, "out")
        if validate_scene(cfg):
            scene_path = os.path.join(tmp, "scene.json")
            with open(scene_path, "w") as fh:
                json.dump(cfg, fh)
            assert main(["check", scene_path]) == 2
            assert main(["run", scene_path, "--out", out]) == 2
            assert not os.path.exists(out)
        else:
            try:
                run_scene(cfg, out)
            except PipelineError as exc:
                assert exc.stage in (
                    [f"objects.{name}" for name in cfg["objects"]]
                    + [stage["id"] for stage in cfg["pipeline"]]
                    + ["outputs"])


@settings(max_examples=200, deadline=None, derandomize=True)
@given(mutated_demo())
def test_mutated_demo_is_rejected_or_runs(cfg):
    _rejected_or_runs(cfg)


#: the string-valued keys of the demos' objects and stages that are no
#: references
_NOT_REFERENCES = {"kind", "id", "op", "store", "store_prefix"}


@st.composite
def swapped_reference(draw):
    """A demo config at grid 16 with one reference to an object swapped
    for the name of another object the scene makes or uses."""
    cfg = demo_config(draw(st.sampled_from(demo_names())), grid=16)
    entries = list(cfg["objects"].values()) + cfg["pipeline"]
    refs = [(entry, key) for entry in entries
            for key, value in entry.items()
            if isinstance(value, str) and key not in _NOT_REFERENCES]
    names = (set(cfg["objects"]) | {entry[key] for entry, key in refs}
             | {entry["store"] for entry in entries if "store" in entry})
    entry, key = draw(st.sampled_from(refs))
    entry[key] = draw(st.sampled_from(sorted(names - {entry[key]})))
    return cfg


@settings(max_examples=40, deadline=None, derandomize=True)
@given(swapped_reference())
def test_swapped_reference_is_rejected_or_runs(cfg):
    _rejected_or_runs(cfg)
