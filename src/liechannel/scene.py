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
types are checked in-package: `_errors` implements the JSON Schema keywords the declarations use, with
jsonschema's semantics and messages, and a declaration using any other
keyword fails when this module loads.  The semantic layer on top checks
what a schema cannot: that numbers are finite, that names are defined
before use and name an object of the type the reference takes, that ids
are unique, that a mesh output names a grid or a cyclide (and sizes only
a cyclide's), and that output paths stay inside the artifact directory.
"""

from __future__ import annotations

import functools
import json
import math
import numbers
import os
import re
from dataclasses import dataclass, field
from typing import Callable, NamedTuple, Optional

import numpy as np

from .channel import (
    SphereCurve,
    circle_sphere_curve,
    conserved_quantity,
    envelope,
    helix_sphere_curve,
    line_sphere_curve,
    omega0_form,
)
from .conformal import circle_congruence_report, tube, tube_sphere_curve
from .core import (DIM, GeometryError, circle_points, containment_gap,
                   first_failure, inner, unit_rows)
from .legendre import (
    channel_verdict,
    curvature_data,
    is_channel,
    lie_cyclide_split,
    spherical_line_residuals,
    validate_legendre,
)
from .mesh import (_pencil_point_spheres, cyclide_mesh, cyclide_point_grid,
                   export_obj, mesh_from_grid)
from .transforms import (
    DupinCyclide,
    calapso_quadratic_form,
    calapso_transform,
    cyclide_point_residual,
    darboux_initial_condition,
    darboux_transform,
    dupin_from_spheres,
    dupin_from_subspaces,
    gauge_edge_residual,
    ribaucour_cyclides,
    verify_ribaucour,
    _cyclide_spans,
)

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


def _enum(options, value, schema):
    if not any(_equal(value, option) for option in options):
        yield f"{value!r} is not one of {options!r}"


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
    "type": _type, "const": _const, "enum": _enum, "pattern": _pattern,
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
_VEC6 = {"type": "array", "items": _NUMBER, "minItems": 6, "maxItems": 6}
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


@dataclass(frozen=True)
class _Decl:
    """An object kind or a pipeline op: the library constructor or op runner,
    the config keys naming earlier objects with the type each takes, as
    {key: type} (required `refs`, optional `optional_refs`), one JSON-schema
    type per parameter, the parameters that must be given, and what it
    makes for later stages, each with its type (a key of _OBJECT_TYPES):
    for an object kind the object itself (`makes`), for an op the object
    names (or name prefixes) it stores, as {name: type}."""

    run: Callable
    refs: dict = field(default_factory=dict)
    optional_refs: dict = field(default_factory=dict)
    params: dict = field(default_factory=dict)
    required: tuple = ()
    stores: Callable = _nothing
    prefixes: Callable = _nothing
    makes: Optional[str] = None

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


def _build(kind, cfg, objects):
    """Referenced objects go positionally, given parameters as keywords:
    every default lives in the library signature."""
    args = kind.args(cfg, objects)
    return kind.run(*(args[ref] for ref in kind.refs),
                    **{key: args[key] for key in kind.params if key in args})


def _ring_curve(n: int = 64, radius: float = 2.0) -> SphereCurve:
    """The point spheres of a round circle of `radius` in the xy-plane."""
    return circle_sphere_curve(n, ring_radius=radius, radius=0.0)


_CURVE = dict(n=_COUNT, u_min=_NUMBER, u_max=_NUMBER, direction=_VEC3,
              origin=_VEC3)
_OF_CURVE = {"curve": "curve"}

# line_curve, circle_curve and curve_legendre_lift name the radius-0 case
# of the sphere-curve kinds and its envelope
_OBJECT_KINDS = {
    "line_sphere_curve": _Decl(line_sphere_curve,
                               params=dict(_CURVE, radius=_NUMBER),
                               makes="curve"),
    "circle_sphere_curve": _Decl(circle_sphere_curve, params=dict(
        n=_COUNT, ring_radius=_NUMBER, radius=_NUMBER), makes="curve"),
    "helix_sphere_curve": _Decl(helix_sphere_curve, params=dict(
        n=_COUNT, ring_radius=_NUMBER, pitch=_NUMBER, radius=_NUMBER,
        turns=_NUMBER), makes="curve"),
    "envelope": _Decl(envelope, refs={"sphere_curve": "curve"},
                      params=dict(n_theta=_COUNT), makes="grid"),
    "line_curve": _Decl(functools.partial(line_sphere_curve, radius=0.0),
                        params=_CURVE, makes="curve"),
    "circle_curve": _Decl(_ring_curve, params=dict(n=_COUNT, radius=_NUMBER),
                          makes="curve"),
    "tube": _Decl(tube, refs=_OF_CURVE, required=("radius",),
                  params=dict(radius=_NUMBER, n_theta=_COUNT), makes="grid"),
    "tube_sphere_curve": _Decl(tube_sphere_curve, refs=_OF_CURVE,
                               required=("radius",),
                               params=dict(radius=_NUMBER), makes="curve"),
    "curve_legendre_lift": _Decl(envelope, refs=_OF_CURVE,
                                 params=dict(n_theta=_COUNT), makes="grid"),
}
_KIND_SCHEMAS = {name: kind.schema({"kind": {}})
                 for name, kind in _OBJECT_KINDS.items()}


# ---------------------------------------------------------------------------
# pipeline operations
# ---------------------------------------------------------------------------

@dataclass
class _Context:
    objects: dict
    seed: int


def _clean(value):
    """Make a measurement JSON-safe; non-finite numbers become null."""
    if isinstance(value, (bool, str)) or value is None:
        return value
    if isinstance(value, (int, np.integer)):
        return int(value)
    if isinstance(value, (float, np.floating)):
        v = float(value)
        return v if np.isfinite(v) else None
    if isinstance(value, dict):
        return {str(k): _clean(v) for k, v in value.items()}
    if isinstance(value, (list, tuple, np.ndarray)):
        return [_clean(v) for v in np.asarray(value).tolist()
                ] if isinstance(value, np.ndarray) else [
                    _clean(v) for v in value]
    raise TypeError(f"cannot report a value of type {type(value).__name__}")


def _given(args, *keys):
    return {key: args[key] for key in keys if key in args}


def _op_validate(args, ctx):
    rep = validate_legendre(args["target"])
    return {"isotropy": rep.isotropy, "contact": rep.contact,
            "immersion": rep.immersion, "passed": rep.passed}


def _op_channel(args, ctx):
    rep = is_channel(args["target"])
    return {"circular_dir": rep.circular_dir,
            "rate_dir1": rep.rates["dir1"], "rate_dir2": rep.rates["dir2"],
            "coupling_dir1": rep.coupling["dir1"],
            "coupling_dir2": rep.coupling["dir2"],
            "consistent": rep.consistent, "notes": list(rep.notes)}


def _op_lie_cyclide(args, ctx):
    split = lie_cyclide_split(args["target"])
    return {"s2_agreement": split.s2_agreement,
            "excluded_fraction": float(np.mean(split.excluded))}


def _op_omega0(args, ctx):
    omega = omega0_form(args["grid"], args["sphere_curve"].vectors)
    if "store" in args:
        ctx.objects[args["store"]] = omega
    out = {"lift_gap": omega.lift_gap,
           "q_uu_min": float(np.min(omega.q_uu)),
           "q_uu_max": float(np.max(omega.q_uu))}
    if "q_uu_expected" in args:
        out["q_uu_deviation"] = float(
            np.max(np.abs(omega.q_uu - args["q_uu_expected"])))
    return out


def _op_conserved(args, ctx):
    p = np.asarray(args.get("p", np.eye(DIM)[5].tolist()), dtype=float)
    rep = conserved_quantity(args["omega"], p, args["lambdas"])
    residuals = {str(float(k)): v for k, v in rep.residuals.items()}
    return {"residuals": residuals, "residual_max": max(residuals.values()),
            "normalisation_defect": rep.normalisation_defect,
            "passed": rep.passed}


def _op_darboux(args, ctx):
    grid, omega = args["grid"], args["omega"]
    phi0 = darboux_initial_condition(np.eye(DIM)[[0, 3, 4]], omega.sigma1[0],
                                     ctx.seed)
    result = darboux_transform(grid, omega, args["m"], phi0,
                               **_given(args, "substeps"))
    ctx.objects[args["store"]] = result.hat_f
    ctx.objects[args["store"] + "_spheres"] = result.hat_s
    out = {"m": float(args["m"]), "null_drift": result.null_drift,
           "validation_passed": validate_legendre(result.hat_f).passed}
    if "holonomy_mismatch" in result.hat_f.metadata:
        out["holonomy_mismatch"] = result.hat_f.metadata["holonomy_mismatch"]
    return out


def _calapso_measurements(args, ctx, lam):
    """One spectral parameter of the calapso op.  Its transformed grid
    and derived arrays are released before the next parameter's."""
    grid, omega = args["grid"], args["omega"]
    gauge, out = calapso_transform(grid, omega, lam,
                                   **_given(args, "substeps"))
    q_dev = float(np.max(np.abs(
        calapso_quadratic_form(gauge, omega) - omega.q_uu)))
    channel = channel_verdict(out)
    pushed = unit_rows(gauge.push(omega.sigma1))
    s1 = unit_rows(curvature_data(out).s1)
    gap = float(np.max(np.minimum(
        np.linalg.norm(s1 - pushed[:, None], axis=-1),
        np.linalg.norm(s1 + pushed[:, None], axis=-1))))
    if "store_prefix" in args:
        ctx.objects[f"{args['store_prefix']}_{float(lam)}"] = out
    return {
        "ortho_defect": gauge.ortho_defect,
        "edge_residual": gauge_edge_residual(gauge, omega),
        "q_deviation": q_dev,
        "circular_dir": channel.circular_dir,
        "dir1_circular": channel.circular("dir1"),
        "sphere_map_gap": gap,
        "validation_passed": validate_legendre(out).passed,
    }


def _op_calapso(args, ctx):
    per_lambda = {str(float(lam)): _calapso_measurements(args, ctx, lam)
                  for lam in args["lambdas"]}
    return {
        "per_lambda": per_lambda,
        "ortho_max": max(v["ortho_defect"] for v in per_lambda.values()),
        "q_deviation_max": max(v["q_deviation"] for v in per_lambda.values()),
        "sphere_map_gap_max": max(v["sphere_map_gap"]
                                  for v in per_lambda.values()),
        "circular_preserved": all(v["dir1_circular"]
                                  for v in per_lambda.values()),
    }


def _op_verify_pair(args, ctx):
    return {"residual": verify_ribaucour(args["a"], args["b"])}


def _op_cyclides(args, ctx):
    rep = ribaucour_cyclides(args["a"], args["b"], f=args.get("grid_a"),
                             f_hat=args.get("grid_b"))
    return {"coincidence": rep.coincidence, "duality": rep.duality,
            "theta_constancy": rep.theta_constancy,
            "intersection_rank_ok": rep.intersection_rank_ok,
            "d2_coincidence": rep.d2_coincidence, "notes": list(rep.notes)}


def _op_congruence_contact(args, ctx):
    """Contact of the u-family of Dupin cyclides with both surfaces.

    At every sample_every-th u the cyclide space is
    span{sigma, sigma_hat, sigma'}; both curvature spheres must lie in it,
    every sphere of the complement family must touch them, and the fixed-u
    parameter lines of both grids must consist of points of the cyclide.
    All sampled u are measured at once; an error names the first bad
    sample, a cyclide's own failures before its grid rows'.
    """
    f, f_hat = args["grid"], args["hat_grid"]
    s, s_hat = args["spheres_a"], args["spheres_b"]
    d1_basis, _ = _cyclide_spans(s, s_hat)
    nu = f.shape[0]
    ks = np.arange(0, nu, args.get("sample_every", max(1, nu // 8)))
    probes = np.linspace(0.0, 2.0 * np.pi, args.get("n_probe", 16),
                         endpoint=False)
    bases = d1_basis[ks]
    cyclides, frames, failures = dupin_from_subspaces(
        bases, [f"congruence u-index {k}" for k in ks])
    pencils = [_pencil_point_spheres(grid.sigma[ks], grid.tau[ks])
               for grid in (f, f_hat)]
    hit = first_failure(failures + [
        (pure.any(axis=-1), lambda i: GeometryError(
            "pencil is entirely made of point spheres"))
        for _, _, pure in pencils])
    if hit is not None:
        raise hit[1]

    spheres = np.stack([s.vectors[ks], s_hat.vectors[ks]], axis=1)
    membership = containment_gap(bases, spheres)
    su = unit_rows(spheres)
    family_b = unit_rows(circle_points(frames[:, 1, None], probes))
    contact = np.abs(inner(family_b[:, :, None], su[:, None]))
    line = max(float(np.max(cyclide_point_residual(frames, vec),
                            where=finite, initial=0.0))
               for vec, finite, _ in pencils)
    prefix = args.get("store_prefix")
    if prefix is not None:
        for k, cyc in zip(ks, cyclides):
            ctx.objects[f"{prefix}_{k}"] = cyc
    return {"contact_residual": float(np.max(contact)),
            "membership_residual": float(np.max(membership)),
            "line_residual": line, "n_cyclides": len(ks),
            "dropped_points": sum(int(np.count_nonzero(~finite))
                                  for _, finite, _ in pencils)}


def _op_sphericity(args, ctx):
    """Worst sphere-fit residual over a sample of parameter lines.

    axis "u" walks the lines of constant u (the theta-circles); axis
    "theta" walks the lines of constant theta.
    """
    grid = args["target"]
    axis = args.get("axis", "u")
    count = grid.shape[0] if axis == "u" else grid.shape[1]
    lines = range(0, count, args.get("stride", max(1, count // 8)))
    residuals, _ = spherical_line_residuals(grid, axis, lines)
    return {"residual_max": float(np.max(residuals)),
            "lines_checked": len(lines)}


def _op_dupin_fit(args, ctx):
    curve = args["sphere_curve"]
    indices = [int(x) for x in args["indices"]]
    if max(indices) >= len(curve.vectors):
        raise GeometryError(f"indices {indices} reach past the curve's "
                            f"{len(curve.vectors)} samples")
    cyc = dupin_from_spheres(*curve.vectors[indices])
    if "store" in args:
        ctx.objects[args["store"]] = cyc
    out = {}
    if "torus" in args:
        ring = float(args["torus"]["ring"])
        radius = float(args["torus"]["radius"])
        positions, finite = cyclide_point_grid(cyc, 48, 48)
        good = positions[finite]
        dev = np.abs(np.hypot(np.hypot(good[:, 0], good[:, 1]) - ring,
                              good[:, 2]) - radius)
        out["torus_deviation"] = float(np.max(dev))
        out["finite_fraction"] = float(np.mean(finite))
    return out


def _op_tube_check(args, ctx):
    a, b, radius = args["a"], args["b"], args["radius"]
    point_level = verify_ribaucour(a, b)
    tube_level = verify_ribaucour(tube_sphere_curve(a, radius),
                                  tube_sphere_curve(b, radius))
    return {"radius": float(radius), "residual": tube_level,
            "point_residual": point_level,
            "agreement": abs(tube_level - point_level)}


def _op_circle_congruence(args, ctx):
    rep = circle_congruence_report(args["a"], args["b"])
    return {"membership": rep.membership, "tangency1": rep.tangency1,
            "tangency2": rep.tangency2,
            "tangency_max": max(rep.tangency1, rep.tangency2),
            "passed": rep.passed, "notes": list(rep.notes)}


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
    "validate": _Decl(_op_validate, refs=_TARGET),
    "channel": _Decl(_op_channel, refs=_TARGET),
    "lie_cyclide": _Decl(_op_lie_cyclide, refs=_TARGET),
    "omega0": _Decl(_op_omega0, refs={"grid": "grid", "sphere_curve": "curve"},
                    params=dict(store=_NAME, q_uu_expected=_NUMBER),
                    stores=_key_if_set("store", "omega0")),
    "conserved": _Decl(_op_conserved, refs={"omega": "omega0"},
                       required=("lambdas",),
                       params=dict(lambdas=_LAMBDAS, p=_VEC6)),
    "darboux": _Decl(_op_darboux, refs=_FLOW, required=("m", "store"),
                     params=dict(m=_NONZERO, store=_NAME, substeps=_STEP),
                     stores=_stores_darboux),
    "calapso": _Decl(_op_calapso, refs=_FLOW, required=("lambdas",),
                     params=dict(lambdas=_LAMBDAS, substeps=_STEP,
                                 store_prefix=_NAME),
                     stores=_stores_calapso),
    "verify_pair": _Decl(_op_verify_pair, refs=_PAIR),
    "cyclides": _Decl(_op_cyclides, refs=_PAIR,
                      optional_refs={"grid_a": "grid", "grid_b": "grid"}),
    "congruence_contact": _Decl(
        _op_congruence_contact,
        refs={"grid": "grid", "hat_grid": "grid", "spheres_a": "curve",
              "spheres_b": "curve"},
        params=dict(sample_every=_STEP, n_probe=_STEP, store_prefix=_NAME),
        prefixes=_key_if_set("store_prefix", "cyclide")),
    "sphericity": _Decl(_op_sphericity, refs=_TARGET,
                        params=dict(axis={"enum": ["u", "theta"]},
                                    stride=_STEP)),
    "dupin_fit": _Decl(_op_dupin_fit, refs={"sphere_curve": "curve"},
                       required=("indices",),
                       params=dict(indices=_INDICES, store=_NAME,
                                   torus=_TORUS),
                       stores=_key_if_set("store", "cyclide")),
    "curve_check": _Decl(_op_verify_pair, refs=_PAIR),
    "tube_check": _Decl(_op_tube_check, refs=_PAIR, required=("radius",),
                        params=dict(radius=_NUMBER)),
    "circle_congruence": _Decl(_op_circle_congruence, refs=_PAIR),
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
        if isinstance(node, (float, np.floating)) and not math.isfinite(node):
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
            defined.update(op.stores(stage))
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

def _eval_assertion(check, measurements):
    key = check["key"]
    value = measurements.get(key)
    entry = {"key": key, "measured": _clean(value)}
    if "max" in check:
        entry["kind"] = "max"
        entry["tolerance"] = float(check["max"])
        ok = (isinstance(value, (int, float, np.floating, np.integer))
              and not isinstance(value, bool)
              and np.isfinite(value) and value <= check["max"])
        entry["passed"] = bool(ok)
    elif "true" in check:
        entry["kind"] = "true"
        entry["passed"] = value is True
    else:
        entry["kind"] = "equals"
        entry["expected"] = _clean(check["equals"])
        entry["passed"] = bool(value == check["equals"])
    return entry


def run_scene(config: dict, out_dir) -> dict:
    """Execute a validated scene and write its artifacts.

    Validation runs first and raises SceneError before anything touches
    the filesystem; stage failures raise PipelineError naming the stage.
    Returns the report dictionary (also written to the report path when
    the config requests one).
    """
    errors = validate_scene(config)
    if errors:
        raise SceneError(errors)

    ctx = _Context(objects={}, seed=int(config.get("seed", 0)))
    for name, cfg in config["objects"].items():
        try:
            ctx.objects[name] = _build(_OBJECT_KINDS[cfg["kind"]], cfg,
                                       ctx.objects)
        except (GeometryError, ValueError, np.linalg.LinAlgError) as exc:
            raise PipelineError(f"objects.{name}", str(exc)) from exc

    stages = []
    all_passed = True
    for stage in config["pipeline"]:
        op = _OPS[stage["op"]]
        try:
            measurements = op.run(op.args(stage, ctx.objects), ctx)
        except (GeometryError, ValueError, KeyError,
                np.linalg.LinAlgError) as exc:
            raise PipelineError(stage["id"], str(exc)) from exc
        checks = [_eval_assertion(a, measurements)
                  for a in stage.get("assert", [])]
        passed = all(c["passed"] for c in checks)
        all_passed = all_passed and passed
        stages.append({"id": stage["id"], "op": stage["op"],
                       "measurements": _clean(measurements),
                       "assertions": checks, "passed": passed})

    os.makedirs(out_dir, exist_ok=True)
    outputs = config.get("outputs", {})
    mesh_entries = []
    for entry in outputs.get("meshes", []):
        name = entry["object"]
        if name not in ctx.objects:
            raise PipelineError(
                "outputs", f"mesh object '{name}' was never stored")
        # validate_scene admits only grids and cyclides here
        obj, n = ctx.objects[name], int(entry.get("n", 48))
        try:
            mesh = (cyclide_mesh(obj, n, n) if isinstance(obj, DupinCyclide)
                    else mesh_from_grid(obj))
            export_obj(mesh, os.path.join(out_dir, entry["path"]))
        except OSError as exc:
            raise PipelineError("outputs", str(exc)) from exc
        mesh_entries.append({"object": name, "path": entry["path"],
                             "vertices": int(mesh.vertices.shape[0]),
                             "faces": int(mesh.faces.shape[0])})

    report = {
        "schema": REPORT_SCHEMA,
        "name": config.get("name", "scene"),
        "version": config["version"],
        "seed": int(config.get("seed", 0)),
        "stages": stages,
        "meshes": mesh_entries,
        "passed": all_passed,
    }
    report_path = outputs.get("report")
    if report_path is not None:
        text = json.dumps(report, sort_keys=True, indent=2,
                          allow_nan=False) + "\n"
        with open(os.path.join(out_dir, report_path), "w") as fh:
            fh.write(text)
    return report
