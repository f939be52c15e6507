"""Declarative scenes: JSON configs that build objects, run diagnostics,
and write meshes plus a machine-readable report.

A scene names its geometric objects (curves, tubes, envelopes), runs an
ordered pipeline of diagnostic operations over them, and requests OBJ
meshes and a JSON report.  Every numeric assertion in the report carries
the tolerance it was tested against and the measured value, and a report
is a pure function of the config: no timestamps, no machine state, floats
written with full repr precision.

Each object kind and each pipeline op has one declaration: what runs it,
the keys naming earlier objects with the type of object each takes, a
JSON-schema type per parameter, and the type of each object it makes.
Its schema, the object builder, the names it stores and their types all
derive from it.  A scene object is a sphere curve (a space curve is the
one of radius 0), a grid, a cyclide or an omega0 structure.  The schema
types are checked in-package: `_errors` implements the JSON Schema
keywords the declarations use, with jsonschema's semantics and messages,
and a declaration using any other keyword fails when this module loads.
The semantic layer on top checks what a schema cannot: that numbers are
finite, that names are defined before use and name an object of the type
the reference takes, that ids are unique, that a mesh output names a grid
or a cyclide (and sizes only a cyclide's), and that output paths stay
inside the artifact directory.

This module is the scene contract and imports neither numpy nor the
library, so validating a scene (`liechannel check`) loads neither.  A
declaration names what runs it as "module.function" in this package; the
runners live in `ops`, which `run_scene` imports on its first call.
"""

from __future__ import annotations

import importlib
import json
import math
import numbers
import os
import re
from typing import Callable, NamedTuple, Optional

REPORT_SCHEMA = "liechannel-report/1"
OUT_ENV_VAR = "LIECHANNEL_OUT"


# ---------------------------------------------------------------------------
# schema checker: the draft 2020-12 keywords the declarations use, with
# jsonschema's semantics and messages
# ---------------------------------------------------------------------------

#: JSON types: bools are neither numbers nor integers, and an
#: integer-valued float is an integer
_TYPES = {
    "object": lambda value: isinstance(value, dict),
    "array": lambda value: isinstance(value, list),
    "string": lambda value: isinstance(value, str),
    "number": lambda value: (isinstance(value, numbers.Number)
                             and not isinstance(value, bool)),
    "integer": lambda value: (
        isinstance(value, int) and not isinstance(value, bool)
        or isinstance(value, float) and value.is_integer()),
}


def _equal(value, wanted):
    """JSON equality with a scalar `wanted`: True and 1 differ."""
    if isinstance(value, bool) or isinstance(wanted, bool):
        return value is wanted
    return value == wanted


# Each keyword check takes (keyword value, instance, enclosing schema) and
# yields either an error message about the instance or, to descend, a tuple
# (part of the instance, its schema, instance path step, schema path step).

def _type(name, value, schema):
    if not _TYPES[name](value):
        yield f"{value!r} is not of type {name!r}"


def _const(wanted, value, schema):
    if not _equal(value, wanted):
        yield f"{wanted!r} was expected"


def _pattern(pattern, value, schema):
    if isinstance(value, str) and not re.search(pattern, value):
        yield f"{value!r} does not match {pattern!r}"


def _minimum(bound, value, schema):
    if _TYPES["number"](value) and value < bound:
        yield f"{value!r} is less than the minimum of {bound!r}"


def _exclusive_minimum(bound, value, schema):
    if _TYPES["number"](value) and value <= bound:
        yield f"{value!r} is less than or equal to the minimum of {bound!r}"


def _nonzero(wanted, value, schema):
    if wanted and _TYPES["number"](value) and value == 0:
        yield "must be nonzero"


def _min_items(count, value, schema):
    if isinstance(value, list) and len(value) < count:
        yield f"{value!r} " + ("should be non-empty" if count == 1
                               else "is too short")


def _max_items(count, value, schema):
    if isinstance(value, list) and len(value) > count:
        yield f"{value!r} " + ("is expected to be empty" if count == 0
                               else "is too long")


def _items(item_schema, value, schema):
    if isinstance(value, list):
        for index, item in enumerate(value):
            yield item, item_schema, (index,), ()


def _properties(subschemas, value, schema):
    if isinstance(value, dict):
        for key, subschema in subschemas.items():
            if key in value:
                yield value[key], subschema, (key,), (key,)


def _pattern_properties(subschemas, value, schema):
    if isinstance(value, dict):
        for pattern, subschema in subschemas.items():
            for key, item in value.items():
                if re.search(pattern, key):
                    yield item, subschema, (key,), (pattern,)


def _no_additional_properties(allowed, value, schema):
    if not isinstance(value, dict):
        return
    known = schema.get("properties", {})
    patterns = "|".join(schema.get("patternProperties", {}))
    extras = {key for key in value if key not in known
              and not (patterns and re.search(patterns, key))}
    if not extras:
        return
    if "patternProperties" in schema:
        verb = "does" if len(extras) == 1 else "do"
        yield (", ".join(map(repr, sorted(extras)))
               + f" {verb} not match any of the regexes: "
               + ", ".join(map(repr, sorted(schema["patternProperties"]))))
    else:
        verb = "was" if len(extras) == 1 else "were"
        yield ("Additional properties are not allowed ("
               + ", ".join(map(repr, sorted(extras, key=str)))
               + f" {verb} unexpected)")


def _required(keys, value, schema):
    if isinstance(value, dict):
        for key in keys:
            if key not in value:
                yield f"{key!r} is a required property"


def _one_of(subschemas, value, schema):
    valid = [sub for sub in subschemas
             if next(_errors(sub, value), None) is None]
    if not valid:
        yield f"{value!r} is not valid under any of the given schemas"
    elif len(valid) > 1:
        listed = ", ".join(map(repr, valid[1:] + valid[:1]))
        yield f"{value!r} is valid under each of {listed}"


def _annotation(value, instance, schema):
    return ()


_KEYWORDS = {
    "$schema": _annotation,
    "type": _type, "const": _const, "pattern": _pattern,
    "minimum": _minimum, "exclusiveMinimum": _exclusive_minimum,
    "nonzero": _nonzero,
    "items": _items, "minItems": _min_items, "maxItems": _max_items,
    "properties": _properties, "patternProperties": _pattern_properties,
    "additionalProperties": _no_additional_properties,
    "required": _required, "oneOf": _one_of,
}

#: the keywords whose value holds subschemas, and how to list them
_SUBSCHEMAS = {"items": lambda value: [value], "oneOf": list,
               "properties": dict.values, "patternProperties": dict.values}


def _checked(schema) -> dict:
    """`schema`, once every keyword in it and in its subschemas is one
    `_errors` implements, in a form it implements; ValueError if not."""
    for keyword, value in schema.items():
        if (keyword not in _KEYWORDS
                or keyword == "type" and value not in _TYPES
                or keyword == "additionalProperties" and value is not False):
            raise ValueError(f"schema keyword {keyword!r} with value "
                             f"{value!r} is not implemented")
        for subschema in _SUBSCHEMAS.get(keyword, lambda value: ())(value):
            _checked(subschema)
    return schema


class _Error(NamedTuple):
    path: tuple          # keys and indices from the instance root
    message: str
    schema_path: tuple   # from the schema root to the keyword that failed


def _errors(schema, instance, path=(), schema_path=()):
    """Every error of `instance` under `schema`, in jsonschema's order."""
    for keyword, value in schema.items():
        where = schema_path + (keyword,)
        for found in _KEYWORDS[keyword](value, instance, schema):
            if isinstance(found, str):
                yield _Error(path, found, where)
            else:
                part, subschema, step, schema_step = found
                yield from _errors(subschema, part, path + step,
                                   where + schema_step)


def _index(path) -> str:
    return "".join(f"[{step!r}]" for step in path)


def _order(err: _Error):
    """Sort key that orders errors as jsonschema's str() does.  That
    string holds, in turn, the message, the keyword's repr, the schema
    path to the keyword's schema, that schema (fixed by its path) and the
    instance path.  Each part is followed by a separator ("\\n", " in",
    ":") below any character that can continue a longer one, so comparing
    the four parts in turn gives the same order."""
    return (err.message, repr(err.schema_path[-1]),
            _index(err.schema_path[:-1]), _index(err.path))


def _schema_errors(schema, instance) -> list:
    """(path, message) of every error of `instance` under `schema`, as
    jsonschema reports them, sorted by their full description."""
    return [(err.path, err.message)
            for err in sorted(_errors(schema, instance), key=_order)]


# ---------------------------------------------------------------------------
# scene schema
# ---------------------------------------------------------------------------

_NAME_PATTERN = "^[A-Za-z0-9_.-]+$"

_ASSERTION_SCHEMA = {
    "type": "object",
    "required": ["key"],
    "properties": {
        "key": {"type": "string"},
        "max": {"type": "number", "exclusiveMinimum": 0},
        "true": {"const": True},
        "equals": {},
    },
    "oneOf": [{"required": ["max"]}, {"required": ["true"]},
              {"required": ["equals"]}],
    "additionalProperties": False,
}

SCENE_SCHEMA = _checked({
    "$schema": "https://json-schema.org/draft/2020-12/schema",
    "type": "object",
    "required": ["version", "objects", "pipeline"],
    "properties": {
        "version": {"const": 1},
        "name": {"type": "string", "pattern": _NAME_PATTERN},
        "seed": {"type": "integer", "minimum": 0},
        "objects": {
            "type": "object",
            "patternProperties": {
                _NAME_PATTERN: {
                    "type": "object",
                    "required": ["kind"],
                    "properties": {"kind": {"type": "string"}},
                },
            },
            "additionalProperties": False,
        },
        "pipeline": {
            "type": "array",
            "items": {
                "type": "object",
                "required": ["id", "op"],
                "properties": {
                    "id": {"type": "string", "pattern": _NAME_PATTERN},
                    "op": {"type": "string"},
                    "assert": {"type": "array", "items": _ASSERTION_SCHEMA},
                },
            },
        },
        "outputs": {
            "type": "object",
            "properties": {
                "report": {"type": "string", "pattern": "\\.json$"},
                "meshes": {
                    "type": "array",
                    "items": {
                        "type": "object",
                        "required": ["object", "path"],
                        "properties": {
                            "object": {"type": "string"},
                            "path": {"type": "string", "pattern": "\\.obj$"},
                            "n": {"type": "integer", "minimum": 4},
                        },
                        "additionalProperties": False,
                    },
                },
            },
            "additionalProperties": False,
        },
    },
    "additionalProperties": False,
})


class SceneError(ValueError):
    """Config rejected before anything was built or written."""

    def __init__(self, errors):
        self.errors = list(errors)
        super().__init__("; ".join(self.errors))


class PipelineError(RuntimeError):
    """A stage failed while executing an otherwise valid scene."""

    def __init__(self, stage: str, message: str):
        self.stage = stage
        super().__init__(f"stage '{stage}' failed: {message}")


# ---------------------------------------------------------------------------
# declarations: one per object kind and per pipeline op
# ---------------------------------------------------------------------------

_NUMBER = {"type": "number"}
_COUNT = {"type": "integer", "minimum": 5}
_STEP = {"type": "integer", "minimum": 1}
_VEC3 = {"type": "array", "items": _NUMBER, "minItems": 3, "maxItems": 3}
_NONZERO = {"type": "number", "nonzero": True}
_LAMBDAS = {"type": "array", "items": _NUMBER, "minItems": 1}
_INDICES = {"type": "array", "items": {"type": "integer", "minimum": 0},
            "minItems": 3, "maxItems": 3}
_TORUS = {"type": "object", "properties": {"ring": _NUMBER, "radius": _NUMBER},
          "required": ["ring", "radius"], "additionalProperties": False}
_NAME = {"type": "string", "pattern": _NAME_PATTERN}


#: the types of scene object, as an error message names them
_OBJECT_TYPES = {"curve": "a sphere curve", "grid": "a grid",
                 "cyclide": "a cyclide", "omega0": "an omega0 structure"}


def _nothing(cfg):
    return {}


class _Decl(NamedTuple):
    """An object kind or a pipeline op: what runs it, as "module.function"
    in this package (a library constructor or an op runner of `ops`), the
    config keys naming earlier objects with the type each takes, as
    {key: type} (required `refs`, optional `optional_refs`), one JSON-schema
    type per parameter, the parameters that must be given, and what it
    makes for later stages, each with its type (a key of _OBJECT_TYPES):
    for an object kind the object itself (`makes`), for an op the object
    names (or name prefixes) it stores, as {name: type}.  No field is ever
    mutated, so the empty defaults are shared."""

    run: str
    refs: dict = {}
    optional_refs: dict = {}
    params: dict = {}
    required: tuple = ()
    stores: Callable = _nothing
    prefixes: Callable = _nothing
    makes: Optional[str] = None

    def runner(self) -> Callable:
        """What runs this declaration, looked up in its module now, so
        that a rebound module attribute is the one called."""
        module, name = self.run.rsplit(".", 1)
        return getattr(importlib.import_module("." + module, __package__),
                       name)

    @property
    def all_refs(self) -> dict:
        return {**self.refs, **self.optional_refs}

    def schema(self, fixed):
        """Schema of one config entry; `fixed` holds the keys every entry
        carries (checked by SCENE_SCHEMA)."""
        refs = dict.fromkeys(self.all_refs, {"type": "string"})
        return _checked({
            "type": "object", "properties": {**fixed, **refs, **self.params},
            "required": list(self.refs) + list(self.required),
            "additionalProperties": False})

    def args(self, cfg, objects):
        """cfg with each reference replaced by the object it names, and
        integer-typed parameters as Python ints (JSON Schema counts 64.0
        as an integer, numpy does not)."""
        args = dict(cfg)
        refs = self.all_refs
        for key, value in cfg.items():
            if key in refs:
                args[key] = objects[value]
            elif self.params.get(key, {}).get("type") == "integer":
                args[key] = int(value)
        return args


_CURVE = dict(n=_COUNT, u_min=_NUMBER, u_max=_NUMBER, direction=_VEC3,
              origin=_VEC3)
_OF_CURVE = {"curve": "curve"}

# line_curve and circle_curve name the radius-0 sphere curves
_OBJECT_KINDS = {
    "line_sphere_curve": _Decl("channel.line_sphere_curve",
                               params=dict(_CURVE, radius=_NUMBER),
                               makes="curve"),
    "circle_sphere_curve": _Decl("channel.circle_sphere_curve", params=dict(
        n=_COUNT, ring_radius=_NUMBER, radius=_NUMBER), makes="curve"),
    "helix_sphere_curve": _Decl("channel.helix_sphere_curve", params=dict(
        n=_COUNT, ring_radius=_NUMBER, pitch=_NUMBER, radius=_NUMBER,
        turns=_NUMBER), makes="curve"),
    "envelope": _Decl("channel.envelope", refs={"sphere_curve": "curve"},
                      params=dict(n_theta=_COUNT), makes="grid"),
    "line_curve": _Decl("ops._line_curve", params=_CURVE, makes="curve"),
    "circle_curve": _Decl("ops._ring_curve",
                          params=dict(n=_COUNT, radius=_NUMBER),
                          makes="curve"),
    "tube": _Decl("conformal.tube", refs=_OF_CURVE, required=("radius",),
                  params=dict(radius=_NUMBER, n_theta=_COUNT), makes="grid"),
    "tube_sphere_curve": _Decl("conformal.tube_sphere_curve", refs=_OF_CURVE,
                               required=("radius",),
                               params=dict(radius=_NUMBER), makes="curve"),
}
_KIND_SCHEMAS = {name: kind.schema({"kind": {}})
                 for name, kind in _OBJECT_KINDS.items()}


# ---------------------------------------------------------------------------
# pipeline operations
# ---------------------------------------------------------------------------

def _key_if_set(key, made):
    return lambda stage: {stage[key]: made} if key in stage else {}


def _stores_darboux(stage):
    if "store" not in stage:
        return {}
    return {stage["store"]: "grid", stage["store"] + "_spheres": "curve"}


def _stores_calapso(stage):
    if "store_prefix" not in stage:
        return {}
    return {f"{stage['store_prefix']}_{float(lam)}": "grid"
            for lam in stage.get("lambdas", [])}


_PAIR = {"a": "curve", "b": "curve"}
_TARGET = {"target": "grid"}
_FLOW = {"grid": "grid", "omega": "omega0"}

_OPS = {
    "validate": _Decl("ops._op_validate", refs=_TARGET),
    "channel": _Decl("ops._op_channel", refs=_TARGET),
    "lie_cyclide": _Decl("ops._op_lie_cyclide", refs=_TARGET),
    "omega0": _Decl("ops._op_omega0",
                    refs={"grid": "grid", "sphere_curve": "curve"},
                    params=dict(store=_NAME, q_uu_expected=_NUMBER),
                    stores=_key_if_set("store", "omega0")),
    "conserved": _Decl("ops._op_conserved", refs={"omega": "omega0"},
                       required=("lambdas",),
                       params=dict(lambdas=_LAMBDAS)),
    "darboux": _Decl("ops._op_darboux", refs=_FLOW, required=("m", "store"),
                     params=dict(m=_NONZERO, store=_NAME),
                     stores=_stores_darboux),
    "calapso": _Decl("ops._op_calapso", refs=_FLOW, required=("lambdas",),
                     params=dict(lambdas=_LAMBDAS, store_prefix=_NAME),
                     stores=_stores_calapso),
    "verify_pair": _Decl("ops._op_verify_pair", refs=_PAIR),
    "cyclides": _Decl("ops._op_cyclides", refs=_PAIR,
                      optional_refs={"grid_a": "grid", "grid_b": "grid"}),
    "congruence_contact": _Decl(
        "ops._op_congruence_contact",
        refs={"grid": "grid", "hat_grid": "grid", "spheres_a": "curve",
              "spheres_b": "curve"},
        params=dict(sample_every=_STEP, store_prefix=_NAME),
        prefixes=_key_if_set("store_prefix", "cyclide")),
    "sphericity": _Decl("ops._op_sphericity", refs=_TARGET),
    "dupin_fit": _Decl("ops._op_dupin_fit", refs={"sphere_curve": "curve"},
                       required=("indices",),
                       params=dict(indices=_INDICES, store=_NAME,
                                   torus=_TORUS),
                       stores=_key_if_set("store", "cyclide")),
    "curve_check": _Decl("ops._op_verify_pair", refs=_PAIR),
    "tube_check": _Decl("ops._op_tube_check", refs=_PAIR,
                        required=("radius",), params=dict(radius=_NUMBER)),
    "circle_congruence": _Decl("ops._op_circle_congruence", refs=_PAIR),
}
_OP_SCHEMAS = {name: op.schema({"id": {}, "op": {}, "assert": {}})
               for name, op in _OPS.items()}


# ---------------------------------------------------------------------------
# validation
# ---------------------------------------------------------------------------

def _safe_path(path: str) -> bool:
    return (not os.path.isabs(path) and ".." not in path.split("/")
            and "\\" not in path)


def _messages(schema_errors, where) -> list:
    errors = []
    for path, message in schema_errors:
        path = " -> ".join(str(p) for p in where + path)
        errors.append("schema: " + (path + ": " if path else "") + message)
    return errors


def _non_finite(node, path=()) -> list:
    """Errors naming each NaN or infinite number under node: every schema
    type admits them, and only load_scene's parser rejects them."""
    if isinstance(node, dict):
        children = node.items()
    elif isinstance(node, list):
        children = enumerate(node)
    else:
        # numpy's float scalars are numbers.Real too; integers are always
        # finite (and may be too large for math.isfinite)
        if (isinstance(node, numbers.Real)
                and not isinstance(node, numbers.Integral)
                and not math.isfinite(node)):
            return [" -> ".join(map(str, path))
                    + f": {node!r} is not a finite number"]
        return []
    return [err for key, child in children
            for err in _non_finite(child, path + (key,))]


#: the stage keys that stored names and prefixes are made from
_NAME_KEYS = {"store", "store_prefix", "lambdas"}


def _reference_errors(owner, decl, cfg, defined) -> list:
    """Each reference must name an object defined before it, of the type
    the reference takes; `defined` maps names to types (None when the
    object's kind is unknown, an error of its own)."""
    errors = []
    for key, wanted in decl.all_refs.items():
        name = cfg.get(key)
        if isinstance(name, str) and name not in defined:
            errors.append(f"{owner}: reference '{name}' is not defined "
                          "before use")
        elif isinstance(name, str) and defined[name] not in (None, wanted):
            errors.append(f"{owner}: reference '{name}' is "
                          f"{_OBJECT_TYPES[defined[name]]}, need "
                          f"{_OBJECT_TYPES[wanted]}")
    return errors


def validate_scene(config) -> list:
    """All schema and semantic errors of a config, empty when runnable."""
    errors = _messages(_schema_errors(SCENE_SCHEMA, config), ())
    if errors:
        return errors
    errors = _non_finite(config)
    if not isinstance(config.get("seed", 0), int):
        errors.append("seed must be an integer")

    defined = {}
    for name, cfg in config["objects"].items():
        kind = _OBJECT_KINDS.get(cfg["kind"])
        if kind is None:
            errors.append(f"object '{name}': unknown kind '{cfg['kind']}'")
        else:
            errors += _messages(
                _schema_errors(_KIND_SCHEMAS[cfg["kind"]], cfg),
                ("objects", name))
            errors += _reference_errors(f"object '{name}'", kind, cfg,
                                        defined)
        defined[name] = kind.makes if kind else None

    prefixes = {}
    seen_ids = set()
    for index, stage in enumerate(config["pipeline"]):
        sid = stage["id"]
        if sid in seen_ids:
            errors.append(f"stage '{sid}': duplicate id")
        seen_ids.add(sid)
        op = _OPS.get(stage["op"])
        if op is None:
            errors.append(f"stage '{sid}': unknown op '{stage['op']}'")
            continue
        stage_errors = _schema_errors(_OP_SCHEMAS[stage["op"]], stage)
        errors += (_messages(stage_errors, ("pipeline", index))
                   + _reference_errors(f"stage '{sid}'", op, stage, defined))
        # a bad parameter elsewhere must not hide what the stage stores,
        # or every later stage using it reports an undefined reference
        if not _NAME_KEYS & {path[0] for path, _ in stage_errors if path}:
            stores = op.stores(stage)
            errors += [f"stage '{sid}': stores '{name}', which is already "
                       "defined" for name in stores if name in defined]
            defined.update(stores)
            prefixes.update(op.prefixes(stage))

    outputs = config.get("outputs", {})
    for entry in outputs.get("meshes", []):
        name, where = entry["object"], f"mesh output '{entry['path']}'"
        types = [defined[name]] if name in defined else [
            made for p, made in prefixes.items() if name.startswith(p + "_")]
        if not types:
            errors.append(f"{where}: object '{name}' is never defined")
        elif types[0] not in ("grid", "cyclide"):
            errors.append(f"{where}: object '{name}' has no mesh")
        elif types[0] == "grid" and "n" in entry:
            errors.append(f"{where}: object '{name}' is a grid, meshed at "
                          "its own samples; 'n' sizes cyclide meshes only")
        if not _safe_path(entry["path"]):
            errors.append(f"{where}: path must stay inside the artifact "
                          "directory")
    report = outputs.get("report")
    if report is not None and not _safe_path(report):
        errors.append(f"report output '{report}': path must stay inside "
                      "the artifact directory")
    return errors


def _reject_constant(name):
    raise SceneError([f"scene is not valid JSON: {name} is not a number"])


def load_scene(path):
    """Parse a scene file; parse errors, NaN and Infinity included, are
    reported as SceneError."""
    try:
        with open(path) as fh:
            config = json.load(fh, parse_constant=_reject_constant)
    except OSError as exc:
        raise SceneError([f"cannot read scene: {exc}"]) from exc
    except json.JSONDecodeError as exc:
        raise SceneError([f"scene is not valid JSON: {exc}"]) from exc
    if not isinstance(config, dict):
        raise SceneError(["scene must be a JSON object"])
    return config


# ---------------------------------------------------------------------------
# execution
# ---------------------------------------------------------------------------

def run_scene(config: dict, out_dir) -> dict:
    """Execute a validated scene and write its artifacts.

    Validation runs first and raises SceneError before anything touches
    the filesystem; stage failures raise PipelineError naming the stage.
    Returns the report dictionary (also written to the report path when
    the config requests one).  The first call imports the execution
    module `ops`, and with it numpy and the library.
    """
    errors = validate_scene(config)
    if errors:
        raise SceneError(errors)

    from . import ops
    return ops.execute(config, out_dir)
