"""Scene execution: the object builders and op runners that the
declarations of scene.py name, and the run of a validated config.

This module imports numpy and the library, which scene.py does not:
checking a scene loads neither, and `scene.run_scene` imports this module
on its first call.  A declaration names its runner as "module.function"
in this package and looks it up at each call, so rebinding a module
attribute, as a tracer or a test does, is seen.
"""

from __future__ import annotations

import functools
import json
import os
from dataclasses import dataclass

import numpy as np

from .channel import (SphereCurve, circle_sphere_curve, conserved_quantity,
                      envelope, line_sphere_curve, omega0_form)
from .conformal import circle_congruence_report, tube_sphere_curve
from .core import (DIM, GeometryError, circle_points, containment_gap,
                   first_failure, inner, unit_rows)
from .legendre import (LegendreGrid, channel_verdict, curvature_data,
                       is_channel, lie_cyclide_split,
                       spherical_line_residuals, validate_legendre)
from .mesh import (_pencil_point_spheres, cyclide_mesh, cyclide_point_grid,
                   export_obj, mesh_from_grid)
from .scene import _OBJECT_KINDS, _OPS, REPORT_SCHEMA, PipelineError
from .transforms import (DupinCyclide, _d1_spans, _raise_span_failure,
                         calapso_quadratic_form, calapso_transform,
                         cyclide_point_residual, darboux_initial_condition,
                         darboux_transform, dupin_from_spheres,
                         dupin_from_subspaces, gauge_edge_residual,
                         ribaucour_cyclides, verify_ribaucour)


# ---------------------------------------------------------------------------
# object builders
# ---------------------------------------------------------------------------

# line_curve and circle_curve are the radius-0 sphere curves
_line_curve = functools.partial(line_sphere_curve, radius=0.0)


def _ring_curve(n: int = 64, radius: float = 2.0) -> SphereCurve:
    """The point spheres of a round circle of `radius` in the xy-plane."""
    return circle_sphere_curve(n, ring_radius=radius, radius=0.0)


def _tube(curve: SphereCurve, radius: float,
          n_theta: int = 64) -> LegendreGrid:
    """The tube of `radius` about a curve: the envelope of its tube sphere
    curve (the tube's spheres are the curve's, parallel transformed)."""
    return envelope(tube_sphere_curve(curve, radius), n_theta)


def _build(kind, cfg, objects):
    """Referenced objects go positionally, given parameters as keywords:
    every default lives in the library signature."""
    args = kind.args(cfg, objects)
    return kind.runner()(*(args[ref] for ref in kind.refs),
                         **{key: args[key] for key in kind.params
                            if key in args})


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
    rep = conserved_quantity(args["omega"], np.eye(DIM)[5], args["lambdas"])
    residuals = {str(float(k)): v for k, v in rep.residuals.items()}
    return {"residuals": residuals, "residual_max": max(residuals.values()),
            "normalisation_defect": rep.normalisation_defect,
            "passed": rep.passed}


def _op_darboux(args, ctx):
    grid, omega = args["grid"], args["omega"]
    phi0 = darboux_initial_condition(np.eye(DIM)[[0, 3, 4]], omega.sigma1[0],
                                     ctx.seed)
    result = darboux_transform(grid, omega, args["m"], phi0)
    ctx.objects[args["store"]] = result.hat_f
    ctx.objects[args["store"] + "_spheres"] = result.hat_s
    out = {"m": float(args["m"]), "null_drift": result.null_drift,
           "validation_passed": validate_legendre(result.hat_f).passed}
    if result.holonomy_mismatch is not None:
        out["holonomy_mismatch"] = result.holonomy_mismatch
    return out


def _calapso_measurements(args, ctx, lam):
    """One spectral parameter of the calapso op.  Its transformed grid
    and derived arrays are released before the next parameter's."""
    grid, omega = args["grid"], args["omega"]
    gauge, out = calapso_transform(grid, omega, lam)
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


#: complement-family spheres probed against each congruence cyclide
_N_PROBE = 16


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
    d1_basis, _, span_failures = _d1_spans(s, s_hat)
    _raise_span_failure(span_failures, "cyclide span")
    nu = f.shape[0]
    ks = np.arange(0, nu, args.get("sample_every", max(1, nu // 8)))
    probes = np.linspace(0.0, 2.0 * np.pi, _N_PROBE, endpoint=False)
    bases = d1_basis[ks]
    cyclides, frames, failures = dupin_from_subspaces(
        bases, [f"congruence u-index {k}" for k in ks])
    pencils = [_pencil_point_spheres(grid.sigma[ks], grid.tau[ks])
               for grid in (f, f_hat)]
    hit = first_failure(failures + [
        (pure.any(axis=-1), lambda i: GeometryError(
            "pencil is entirely made of point spheres"))
        for *_, pure in pencils])
    if hit is not None:
        raise hit[1]

    spheres = np.stack([s.vectors[ks], s_hat.vectors[ks]], axis=1)
    membership = containment_gap(bases, spheres)
    su = unit_rows(spheres)
    family_b = unit_rows(circle_points(frames[:, 1, None], probes))
    contact = np.abs(inner(family_b[:, :, None], su[:, None]))
    line = max(float(np.max(cyclide_point_residual(frames, vec),
                            where=finite, initial=0.0))
               for vec, _, finite, _ in pencils)
    prefix = args.get("store_prefix")
    if prefix is not None:
        for k, cyc in zip(ks, cyclides):
            ctx.objects[f"{prefix}_{k}"] = cyc
    return {"contact_residual": float(np.max(contact)),
            "membership_residual": float(np.max(membership)),
            "line_residual": line, "n_cyclides": len(ks),
            "dropped_points": sum(int(np.count_nonzero(~finite))
                                  for _, _, finite, _ in pencils)}


def _op_sphericity(args, ctx):
    """Worst sphere-fit residual over the lines of constant u (the
    theta-circles), at stride max(1, nu // 8)."""
    nu = args["target"].shape[0]
    lines = range(0, nu, max(1, nu // 8))
    residuals = spherical_line_residuals(args["target"], lines)
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


# ---------------------------------------------------------------------------
# the run
# ---------------------------------------------------------------------------

def _output_path(out_dir, path) -> str:
    """out_dir/path, with the directories it names made."""
    full = os.path.join(out_dir, path)
    os.makedirs(os.path.dirname(full), exist_ok=True)
    return full


def execute(config: dict, out_dir) -> dict:
    """Build the objects of a config that scene.validate_scene accepts,
    run its pipeline, write its meshes and report, and return the report;
    a stage that fails raises PipelineError naming it.

    Objects are built and stages run under np.errstate(divide, over,
    invalid = "raise"): the first non-finite result of an operation
    raises FloatingPointError, an ArithmeticError, which fails its object
    or stage as any other error does, and prints no warning."""
    ctx = _Context(objects={}, seed=int(config.get("seed", 0)))
    stages = []
    all_passed = True
    with np.errstate(divide="raise", over="raise", invalid="raise"):
        # GeometryError and np.linalg.LinAlgError are ValueErrors
        for name, cfg in config["objects"].items():
            try:
                ctx.objects[name] = _build(_OBJECT_KINDS[cfg["kind"]], cfg,
                                           ctx.objects)
            except (ValueError, ArithmeticError) as exc:
                raise PipelineError(f"objects.{name}", str(exc)) from exc

        for stage in config["pipeline"]:
            op = _OPS[stage["op"]]
            try:
                measurements = op.runner()(op.args(stage, ctx.objects), ctx)
            except (ValueError, KeyError, ArithmeticError) as exc:
                raise PipelineError(stage["id"], str(exc)) from exc
            checks = [_eval_assertion(a, measurements)
                      for a in stage.get("assert", [])]
            passed = all(c["passed"] for c in checks)
            all_passed = all_passed and passed
            stages.append({"id": stage["id"], "op": stage["op"],
                           "measurements": _clean(measurements),
                           "assertions": checks, "passed": passed})

    outputs = config.get("outputs", {})
    report = {
        "schema": REPORT_SCHEMA,
        "name": config.get("name", "scene"),
        "version": config["version"],
        "seed": int(config.get("seed", 0)),
        "stages": stages,
        "meshes": [],
        "passed": all_passed,
    }
    try:
        os.makedirs(out_dir, exist_ok=True)
        for entry in outputs.get("meshes", []):
            name = entry["object"]
            if name not in ctx.objects:
                raise PipelineError(
                    "outputs", f"mesh object '{name}' was never stored")
            # validate_scene admits only grids and cyclides here
            obj, n = ctx.objects[name], int(entry.get("n", 48))
            mesh = (cyclide_mesh(obj, n, n) if isinstance(obj, DupinCyclide)
                    else mesh_from_grid(obj))
            export_obj(mesh, _output_path(out_dir, entry["path"]))
            report["meshes"].append({
                "object": name, "path": entry["path"],
                "vertices": int(mesh.vertices.shape[0]),
                "faces": int(mesh.faces.shape[0])})
        if "report" in outputs:
            text = json.dumps(report, sort_keys=True, indent=2,
                              allow_nan=False) + "\n"
            with open(_output_path(out_dir, outputs["report"]), "w") as fh:
                fh.write(text)
    except OSError as exc:
        raise PipelineError("outputs", str(exc)) from exc
    return report
