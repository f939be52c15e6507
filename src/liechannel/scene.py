"""Declarative scenes: JSON configs that build objects, run diagnostics,
and write meshes plus a machine-readable report.

A scene names its geometric objects (curves, tubes, envelopes), runs an
ordered pipeline of diagnostic operations over them, and requests OBJ
meshes and a JSON report.  Every numeric assertion in the report carries
the tolerance it was tested against and the measured value, and a report
is a pure function of the config: no timestamps, no machine state, floats
written with full repr precision.

Structural validation is JSON-Schema based; the semantic layer on top
checks what a schema cannot: that names are defined before use, that
operations know their parameters, and that output paths stay inside the
artifact directory.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass
from typing import Callable

import jsonschema
import numpy as np

from .channel import (
    circle_sphere_curve,
    conserved_quantity,
    envelope,
    helix_sphere_curve,
    line_sphere_curve,
    omega0_form,
)
from .conformal import (
    circle_congruence_report,
    circle_curve,
    curve_legendre_lift,
    line_curve,
    ribaucour_curve_check,
    tube,
    tube_sphere_curve,
)
from .core import DIM, GeometryError, inner, lightcone_circle, span, unit_rows
from .legendre import (
    curvature_data,
    is_channel,
    lie_cyclide_split,
    spherical_line_residual,
    validate_legendre,
)
from .mesh import cyclide_mesh, export_obj, mesh_from_grid, point_sphere_of
from .transforms import (
    DupinCyclide,
    calapso_quadratic_form,
    calapso_transform,
    cyclide_point_residual,
    darboux_initial_condition,
    darboux_transform,
    dupin_from_spheres,
    dupin_from_subspace,
    flatness_check,
    gauge_edge_residual,
    ribaucour_cyclides,
    verify_ribaucour,
)

REPORT_SCHEMA = "liechannel-report/1"
OUT_ENV_VAR = "LIECHANNEL_OUT"

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

SCENE_SCHEMA = {
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
}


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
# object constructors
# ---------------------------------------------------------------------------

def _build_line_sphere_curve(cfg, objs):
    return line_sphere_curve(
        n=int(cfg.get("n", 64)), u_min=cfg.get("u_min", -1.0),
        u_max=cfg.get("u_max", 1.0), radius=cfg.get("radius", 1.0),
        direction=cfg.get("direction", (0.0, 0.0, 1.0)),
        origin=cfg.get("origin", (0.0, 0.0, 0.0)))


def _build_circle_sphere_curve(cfg, objs):
    return circle_sphere_curve(n=int(cfg.get("n", 64)),
                               ring_radius=cfg.get("ring_radius", 2.0),
                               radius=cfg.get("radius", 1.0))


def _build_helix_sphere_curve(cfg, objs):
    return helix_sphere_curve(
        n=int(cfg.get("n", 64)), ring_radius=cfg.get("ring_radius", 2.0),
        pitch=cfg.get("pitch", 0.5), radius=cfg.get("radius", 0.6),
        turns=cfg.get("turns", 1.5))


def _build_envelope(cfg, objs):
    return envelope(objs[cfg["sphere_curve"]],
                    n_theta=int(cfg.get("n_theta", 64)))


def _build_line_curve(cfg, objs):
    return line_curve(n=int(cfg.get("n", 64)), u_min=cfg.get("u_min", -1.0),
                      u_max=cfg.get("u_max", 1.0),
                      direction=cfg.get("direction", (0.0, 0.0, 1.0)),
                      origin=cfg.get("origin", (0.0, 0.0, 0.0)))


def _build_circle_curve(cfg, objs):
    return circle_curve(n=int(cfg.get("n", 64)),
                        radius=cfg.get("radius", 2.0))


def _build_tube(cfg, objs):
    return tube(objs[cfg["curve"]], cfg["radius"],
                n_theta=int(cfg.get("n_theta", 64)))


def _build_tube_sphere_curve(cfg, objs):
    return tube_sphere_curve(objs[cfg["curve"]], cfg["radius"])


def _build_curve_legendre_lift(cfg, objs):
    return curve_legendre_lift(objs[cfg["curve"]],
                               n_theta=int(cfg.get("n_theta", 64)))


_OBJECT_KINDS = {
    "line_sphere_curve": dict(
        build=_build_line_sphere_curve, refs=(),
        params={"n", "u_min", "u_max", "radius", "direction", "origin"}),
    "circle_sphere_curve": dict(
        build=_build_circle_sphere_curve, refs=(),
        params={"n", "ring_radius", "radius"}),
    "helix_sphere_curve": dict(
        build=_build_helix_sphere_curve, refs=(),
        params={"n", "ring_radius", "pitch", "radius", "turns"}),
    "envelope": dict(build=_build_envelope, refs=("sphere_curve",),
                     params={"n_theta"}),
    "line_curve": dict(
        build=_build_line_curve, refs=(),
        params={"n", "u_min", "u_max", "direction", "origin"}),
    "circle_curve": dict(build=_build_circle_curve, refs=(),
                         params={"n", "radius"}),
    "tube": dict(build=_build_tube, refs=("curve",),
                 params={"radius", "n_theta"}),
    "tube_sphere_curve": dict(build=_build_tube_sphere_curve,
                              refs=("curve",), params={"radius"}),
    "curve_legendre_lift": dict(build=_build_curve_legendre_lift,
                                refs=("curve",), params={"n_theta"}),
}


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


def _op_validate(stage, ctx):
    rep = validate_legendre(ctx.objects[stage["target"]])
    return {"isotropy": rep.isotropy, "contact": rep.contact,
            "immersion": rep.immersion,
            "quotient_min_eig": rep.quotient_min_eig,
            "passed": rep.passed, "notes": list(rep.notes)}


def _op_channel(stage, ctx):
    rep = is_channel(ctx.objects[stage["target"]])
    return {"circular_dir": rep.circular_dir,
            "rate_dir1": rep.rates["dir1"], "rate_dir2": rep.rates["dir2"],
            "coupling_dir1": rep.coupling["dir1"],
            "coupling_dir2": rep.coupling["dir2"],
            "consistent": rep.consistent, "notes": list(rep.notes)}


def _op_lie_cyclide(stage, ctx):
    split = lie_cyclide_split(ctx.objects[stage["target"]])
    return {"orthogonality": split.orthogonality,
            "s2_agreement": split.s2_agreement,
            "block_defect": split.block_defect,
            "excluded_fraction": float(np.mean(split.excluded))}


def _op_omega0(stage, ctx):
    grid = ctx.objects[stage["grid"]]
    curve = ctx.objects[stage["sphere_curve"]]
    omega = omega0_form(grid, curve.vectors)
    if "store" in stage:
        ctx.objects[stage["store"]] = omega
    out = {"closedness": omega.closedness, "bracket": omega.bracket,
           "q_uu_min": float(np.min(omega.q_uu)),
           "q_uu_max": float(np.max(omega.q_uu))}
    if "q_uu_expected" in stage:
        out["q_uu_deviation"] = float(
            np.max(np.abs(omega.q_uu - stage["q_uu_expected"])))
    return out


def _op_flatness(stage, ctx):
    omega = ctx.objects[stage["omega"]]
    rep = flatness_check(omega, stage["lambdas"])
    defects = {str(float(k)): v for k, v in rep.defects.items()}
    return {"defects": defects, "defect_max": max(defects.values())}


def _op_conserved(stage, ctx):
    omega = ctx.objects[stage["omega"]]
    p = np.asarray(stage.get("p", np.eye(DIM)[5].tolist()), dtype=float)
    rep = conserved_quantity(omega, p, stage["lambdas"])
    residuals = {str(float(k)): v for k, v in rep.residuals.items()}
    return {"residuals": residuals, "residual_max": max(residuals.values()),
            "normalisation_defect": rep.normalisation_defect,
            "passed": rep.passed}


def _op_darboux(stage, ctx):
    grid = ctx.objects[stage["grid"]]
    omega = ctx.objects[stage["omega"]]
    eye = np.eye(DIM)
    seed_space = span([eye[0], eye[3], eye[4]])
    phi0 = darboux_initial_condition(seed_space, omega.sigma1[0], ctx.seed)
    result = darboux_transform(grid, omega, stage["m"], phi0,
                               substeps=int(stage.get("substeps", 4)))
    ctx.objects[stage["store"]] = result.hat_f
    ctx.objects[stage["store"] + "_spheres"] = result.hat_s
    out = {"m": float(stage["m"]), "null_drift": result.null_drift,
           "validation_passed": validate_legendre(result.hat_f).passed}
    if "holonomy_mismatch" in result.hat_f.metadata:
        out["holonomy_mismatch"] = result.hat_f.metadata["holonomy_mismatch"]
    return out


def _op_calapso(stage, ctx):
    grid = ctx.objects[stage["grid"]]
    omega = ctx.objects[stage["omega"]]
    per_lambda = {}
    for lam in stage["lambdas"]:
        gauge, out = calapso_transform(grid, omega, lam,
                                       substeps=int(stage.get("substeps", 4)))
        q_dev = float(np.max(np.abs(
            calapso_quadratic_form(gauge, omega) - omega.q_uu)))
        channel = is_channel(out)
        pushed = unit_rows(gauge.push(omega.sigma1))
        data = curvature_data(out)
        s1 = unit_rows(data.s1)
        gap = float(np.max(np.minimum(
            np.linalg.norm(s1 - pushed[:, None], axis=-1),
            np.linalg.norm(s1 + pushed[:, None], axis=-1))))
        per_lambda[str(float(lam))] = {
            "ortho_defect": gauge.ortho_defect,
            "edge_residual": gauge_edge_residual(gauge, omega),
            "q_deviation": q_dev,
            "circular_dir": channel.circular_dir,
            "dir1_circular": channel.circular("dir1"),
            "sphere_map_gap": gap,
            "validation_passed": validate_legendre(out).passed,
        }
        if "store_prefix" in stage:
            ctx.objects[f"{stage['store_prefix']}_{float(lam)}"] = out
    return {
        "per_lambda": per_lambda,
        "ortho_max": max(v["ortho_defect"] for v in per_lambda.values()),
        "q_deviation_max": max(v["q_deviation"] for v in per_lambda.values()),
        "sphere_map_gap_max": max(v["sphere_map_gap"]
                                  for v in per_lambda.values()),
        "circular_preserved": all(v["dir1_circular"]
                                  for v in per_lambda.values()),
    }


def _op_verify_pair(stage, ctx):
    residual = verify_ribaucour(ctx.objects[stage["a"]],
                                ctx.objects[stage["b"]])
    return {"residual": residual}


def _op_cyclides(stage, ctx):
    f = ctx.objects[stage["grid_a"]] if "grid_a" in stage else None
    f_hat = ctx.objects[stage["grid_b"]] if "grid_b" in stage else None
    rep = ribaucour_cyclides(ctx.objects[stage["a"]],
                             ctx.objects[stage["b"]], f=f, f_hat=f_hat)
    return {"coincidence": rep.coincidence, "duality": rep.duality,
            "theta_constancy": rep.theta_constancy,
            "intersection_rank_ok": rep.intersection_rank_ok,
            "d2_coincidence": rep.d2_coincidence, "notes": list(rep.notes)}


def _row_point_lifts(grid, k):
    lifts, dropped = [], 0
    for j in range(grid.shape[1]):
        vec = point_sphere_of(grid.sigma[k, j], grid.tau[k, j])
        if vec is None:
            dropped += 1
        else:
            lifts.append(vec / np.linalg.norm(vec))
    return np.asarray(lifts), dropped


def _op_congruence_contact(stage, ctx):
    """Contact of the u-family of Dupin cyclides with both surfaces.

    For each sampled u the cyclide space is span{sigma, sigma', sigma_hat};
    both curvature spheres must lie in it, every sphere of the complement
    family must touch them, and the fixed-u parameter lines of both grids
    must consist of points of the cyclide.
    """
    f = ctx.objects[stage["grid"]]
    f_hat = ctx.objects[stage["hat_grid"]]
    s = ctx.objects[stage["spheres_a"]]
    s_hat = ctx.objects[stage["spheres_b"]]
    rep = ribaucour_cyclides(s, s_hat)
    nu = f.shape[0]
    every = int(stage.get("sample_every", max(1, nu // 8)))
    probes = np.linspace(0.0, 2.0 * np.pi, int(stage.get("n_probe", 16)),
                         endpoint=False)
    prefix = stage.get("store_prefix")

    contact = membership = line = 0.0
    dropped = 0
    count = 0
    for k in range(0, nu, every):
        cyc = dupin_from_subspace(rep.d1_basis[k],
                                  provenance=f"congruence u-index {k}")
        su = unit_rows(np.stack([s.vectors[k], s_hat.vectors[k]]))
        membership = max(membership,
                         float(cyc.d.containment_gap(su[0])),
                         float(cyc.d.containment_gap(su[1])))
        family_b = unit_rows(lightcone_circle(cyc.dperp, probes))
        contact = max(contact, float(np.max(np.abs(inner(
            family_b[:, None], su[None])))))
        for grid in (f, f_hat):
            lifts, miss = _row_point_lifts(grid, k)
            dropped += miss
            if lifts.size:
                line = max(line, float(np.max(
                    cyclide_point_residual(cyc, lifts))))
        if prefix is not None:
            ctx.objects[f"{prefix}_{k}"] = cyc
        count += 1
    return {"contact_residual": contact, "membership_residual": membership,
            "line_residual": line, "n_cyclides": count,
            "dropped_points": dropped}


def _op_sphericity(stage, ctx):
    """Worst sphere-fit residual over a sample of parameter lines.

    axis "u" walks the lines of constant u (the theta-circles); axis
    "theta" walks the lines of constant theta.
    """
    grid = ctx.objects[stage["target"]]
    axis = stage.get("axis", "u")
    count = grid.shape[0] if axis == "u" else grid.shape[1]
    stride = int(stage.get("stride", max(1, count // 8)))
    worst = 0.0
    for index in range(0, count, stride):
        residual, _ = spherical_line_residual(grid, axis, index)
        worst = max(worst, residual)
    return {"residual_max": worst, "lines_checked": len(range(0, count,
                                                              stride))}


def _op_dupin_fit(stage, ctx):
    curve = ctx.objects[stage["sphere_curve"]]
    i, j, k = (int(x) for x in stage["indices"])
    cyc = dupin_from_spheres(curve.vectors[i], curve.vectors[j],
                             curve.vectors[k])
    if "store" in stage:
        ctx.objects[stage["store"]] = cyc
    out = {"signature_d": list(cyc.d.signature),
           "signature_dperp": list(cyc.dperp.signature)}
    if "torus" in stage:
        from .mesh import cyclide_point_grid
        ring = float(stage["torus"]["ring"])
        radius = float(stage["torus"]["radius"])
        positions, finite, *_ = cyclide_point_grid(cyc.d, 48, 48)
        good = positions[finite]
        dev = np.abs(np.hypot(np.hypot(good[:, 0], good[:, 1]) - ring,
                              good[:, 2]) - radius)
        out["torus_deviation"] = float(np.max(dev))
        out["finite_fraction"] = float(np.mean(finite))
    return out


def _op_curve_check(stage, ctx):
    residual = ribaucour_curve_check(ctx.objects[stage["a"]],
                                     ctx.objects[stage["b"]])
    return {"residual": residual}


def _op_tube_check(stage, ctx):
    a, b = ctx.objects[stage["a"]], ctx.objects[stage["b"]]
    radius = stage["radius"]
    point_level = ribaucour_curve_check(a, b)
    tube_level = verify_ribaucour(tube_sphere_curve(a, radius),
                                  tube_sphere_curve(b, radius))
    return {"radius": float(radius), "residual": tube_level,
            "point_residual": point_level,
            "agreement": abs(tube_level - point_level)}


def _op_circle_congruence(stage, ctx):
    rep = circle_congruence_report(ctx.objects[stage["a"]],
                                   ctx.objects[stage["b"]])
    return {"membership": rep.membership, "tangency1": rep.tangency1,
            "tangency2": rep.tangency2,
            "tangency_max": max(rep.tangency1, rep.tangency2),
            "passed": rep.passed, "notes": list(rep.notes)}


def _nothing(stage):
    return []


def _key_if_set(key):
    return lambda stage: [stage[key]] if key in stage else []


def _stores_darboux(stage):
    return [stage["store"], stage["store"] + "_spheres"]


def _stores_calapso(stage):
    if "store_prefix" not in stage:
        return []
    return [f"{stage['store_prefix']}_{float(lam)}"
            for lam in stage.get("lambdas", [])]


@dataclass(frozen=True)
class _Op:
    """A pipeline op: its runner, the config keys it reads, and the object
    names (or name prefixes) it stores for later stages."""

    run: Callable
    refs: tuple = ()
    required: tuple = ()
    params: frozenset = frozenset()
    stores: Callable = _nothing
    prefixes: Callable = _nothing


_OPS = {
    "validate": _Op(_op_validate, refs=("target",), required=("target",)),
    "channel": _Op(_op_channel, refs=("target",), required=("target",)),
    "lie_cyclide": _Op(_op_lie_cyclide, refs=("target",),
                       required=("target",)),
    "omega0": _Op(_op_omega0, refs=("grid", "sphere_curve"),
                  required=("grid", "sphere_curve"),
                  params=frozenset({"store", "q_uu_expected"}),
                  stores=_key_if_set("store")),
    "flatness": _Op(_op_flatness, refs=("omega",), required=("omega",),
                    params=frozenset({"lambdas"})),
    "conserved": _Op(_op_conserved, refs=("omega",), required=("omega",),
                     params=frozenset({"lambdas", "p"})),
    "darboux": _Op(_op_darboux, refs=("grid", "omega"),
                   required=("grid", "omega", "m", "store"),
                   params=frozenset({"m", "store", "substeps"}),
                   stores=_stores_darboux),
    "calapso": _Op(_op_calapso, refs=("grid", "omega"),
                   required=("grid", "omega", "lambdas"),
                   params=frozenset({"lambdas", "substeps", "store_prefix"}),
                   stores=_stores_calapso),
    "verify_pair": _Op(_op_verify_pair, refs=("a", "b"), required=("a", "b")),
    "cyclides": _Op(_op_cyclides, refs=("a", "b", "grid_a", "grid_b"),
                    required=("a", "b")),
    "congruence_contact": _Op(
        _op_congruence_contact,
        refs=("grid", "hat_grid", "spheres_a", "spheres_b"),
        required=("grid", "hat_grid", "spheres_a", "spheres_b"),
        params=frozenset({"sample_every", "n_probe", "store_prefix"}),
        prefixes=_key_if_set("store_prefix")),
    "sphericity": _Op(_op_sphericity, refs=("target",), required=("target",),
                      params=frozenset({"axis", "stride"})),
    "dupin_fit": _Op(_op_dupin_fit, refs=("sphere_curve",),
                     required=("sphere_curve", "indices"),
                     params=frozenset({"indices", "store", "torus"}),
                     stores=_key_if_set("store")),
    "curve_check": _Op(_op_curve_check, refs=("a", "b"), required=("a", "b")),
    "tube_check": _Op(_op_tube_check, refs=("a", "b"),
                      required=("a", "b", "radius"),
                      params=frozenset({"radius"})),
    "circle_congruence": _Op(_op_circle_congruence, refs=("a", "b"),
                             required=("a", "b")),
}


# ---------------------------------------------------------------------------
# validation
# ---------------------------------------------------------------------------

def _safe_path(path: str) -> bool:
    return (not os.path.isabs(path) and ".." not in path.split("/")
            and "\\" not in path)


def validate_scene(config) -> list:
    """All schema and semantic errors of a config, empty when runnable."""
    validator = jsonschema.Draft202012Validator(SCENE_SCHEMA)
    errors = [
        "schema: " + (" -> ".join(str(p) for p in err.absolute_path) + ": "
                      if err.absolute_path else "") + err.message
        for err in sorted(validator.iter_errors(config), key=str)
    ]
    if errors:
        return errors
    if not isinstance(config.get("seed", 0), int):
        errors.append("seed must be an integer")

    defined = set()
    for name, cfg in config["objects"].items():
        kind = _OBJECT_KINDS.get(cfg["kind"])
        if kind is None:
            errors.append(f"object '{name}': unknown kind '{cfg['kind']}'")
            defined.add(name)
            continue
        allowed = {"kind"} | set(kind["refs"]) | kind["params"]
        for key in set(cfg) - allowed:
            errors.append(f"object '{name}': unknown parameter '{key}'")
        for ref in kind["refs"]:
            if ref not in cfg:
                errors.append(f"object '{name}': missing reference '{ref}'")
            elif cfg[ref] not in defined:
                errors.append(f"object '{name}': reference '{cfg[ref]}' "
                              "is not defined before use")
        defined.add(name)

    prefixes = []
    seen_ids = set()
    for stage in config["pipeline"]:
        sid = stage["id"]
        if sid in seen_ids:
            errors.append(f"stage '{sid}': duplicate id")
        seen_ids.add(sid)
        op = _OPS.get(stage["op"])
        if op is None:
            errors.append(f"stage '{sid}': unknown op '{stage['op']}'")
            continue
        allowed = {"id", "op", "assert"} | set(op.refs) | op.params
        for key in set(stage) - allowed:
            errors.append(f"stage '{sid}': unknown parameter '{key}'")
        for req in op.required:
            if req not in stage:
                errors.append(f"stage '{sid}': missing parameter '{req}'")
        for ref in op.refs:
            if ref in stage and stage[ref] not in defined:
                errors.append(f"stage '{sid}': reference '{stage[ref]}' is "
                              "not defined before use")
        if stage["op"] == "darboux" and stage.get("m") == 0:
            errors.append(f"stage '{sid}': the transform parameter m must "
                          "be nonzero")
        if all(req in stage for req in op.required):
            defined.update(op.stores(stage))
            prefixes.extend(op.prefixes(stage))

    outputs = config.get("outputs", {})
    for entry in outputs.get("meshes", []):
        name = entry["object"]
        known = name in defined or any(name.startswith(p + "_")
                                       for p in prefixes)
        if not known:
            errors.append(f"mesh output '{entry['path']}': object '{name}' "
                          "is never defined")
        if not _safe_path(entry["path"]):
            errors.append(f"mesh output '{entry['path']}': path must stay "
                          "inside the artifact directory")
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


def _mesh_of(obj, name, n):
    if isinstance(obj, DupinCyclide):
        return cyclide_mesh(obj.d, n, n)
    if hasattr(obj, "sigma") and hasattr(obj, "tau"):
        return mesh_from_grid(obj)
    raise GeometryError(f"object '{name}' of type {type(obj).__name__} "
                        "has no mesh")


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
            builder = _OBJECT_KINDS[cfg["kind"]]["build"]
            ctx.objects[name] = builder(cfg, ctx.objects)
        except (GeometryError, ValueError, np.linalg.LinAlgError) as exc:
            raise PipelineError(f"objects.{name}", str(exc)) from exc

    stages = []
    all_passed = True
    for stage in config["pipeline"]:
        op = _OPS[stage["op"]]
        try:
            measurements = op.run(stage, ctx)
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
        try:
            mesh = _mesh_of(ctx.objects[name], name, int(entry.get("n", 48)))
            export_obj(mesh, os.path.join(out_dir, entry["path"]))
        except (GeometryError, OSError) as exc:
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
