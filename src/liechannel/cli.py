"""Command-line entry point: run scenes, run canned demos, check configs.

Exit codes: 0 when every assertion in the executed scene passed, 1 when a
pipeline stage failed or an assertion did not hold, 2 for configuration
problems (malformed JSON, schema violations, unknown demo names).  The
default output directory comes from the LIECHANNEL_OUT environment
variable, falling back to ./artifacts; each scene writes into a
subdirectory named after it.  `check` imports neither numpy nor the
geometry modules; `run` and `demo` load them with their first scene.
"""

from __future__ import annotations

import argparse
import os
import sys

from .demos import demo_config, demo_names
from .scene import (
    OUT_ENV_VAR,
    PipelineError,
    SceneError,
    load_scene,
    run_scene,
    validate_scene,
)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="liechannel",
        description="Channel-surface scenes: meshes and diagnostic reports.")
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="execute a scene config")
    run.add_argument("scene", help="path to a scene JSON file")
    run.add_argument("--out", help="output base directory")

    demo = sub.add_parser("demo", help="execute a canned demo scene")
    demo.add_argument("name", help="demo name, one of: "
                      + ", ".join(demo_names()))
    demo.add_argument("--out", help="output base directory")
    demo.add_argument("--grid", type=int, help="override the grid size")
    demo.add_argument("--seed", type=int, help="override the random seed")

    check = sub.add_parser("check", help="validate a scene config (dry run)")
    check.add_argument("scene", help="path to a scene JSON file")
    return parser


def _out_dir(base, scene_name) -> str:
    if base is None:
        base = os.environ.get(OUT_ENV_VAR, "artifacts")
    return os.path.join(base, scene_name)


def _execute(config, base_out) -> int:
    # run_scene validates the config before it touches the output
    # directory, which is named after the scene
    name = str(config.get("name", "scene"))
    try:
        report = run_scene(config, _out_dir(base_out, name))
    except SceneError as exc:
        for err in exc.errors:
            print(f"invalid scene: {err}", file=sys.stderr)
        return 2
    except PipelineError as exc:
        print(exc, file=sys.stderr)
        return 1

    for stage in report["stages"]:
        mark = "ok " if stage["passed"] else "FAIL"
        print(f"[{mark}] {stage['id']}")
        for check in stage["assertions"]:
            if not check["passed"]:
                bound = check.get("tolerance", check.get("expected"))
                print(f"       {check['key']}: measured "
                      f"{check['measured']!r}, wanted {bound!r} "
                      f"({check['kind']})")
    for mesh in report["meshes"]:
        print(f"mesh: {mesh['path']} ({mesh['vertices']} vertices, "
              f"{mesh['faces']} faces)")
    verdict = "PASSED" if report["passed"] else "FAILED"
    print(f"{name}: {verdict} ({len(report['stages'])} stages)")
    return 0 if report["passed"] else 1


def _invalid(errors) -> int:
    """Print configuration errors, one a line, and return exit code 2."""
    for err in errors:
        print(err, file=sys.stderr)
    return 2


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)

    if args.command == "demo":
        try:
            config = demo_config(args.name, grid=args.grid, seed=args.seed)
        except KeyError as exc:
            return _invalid(exc.args[:1])
        return _execute(config, args.out)

    try:
        config = load_scene(args.scene)
    except SceneError as exc:
        return _invalid(exc.errors)
    if args.command == "run":
        return _execute(config, args.out)
    errors = validate_scene(config)
    if errors:
        return _invalid(errors)
    print(f"scene ok: {len(config['objects'])} objects, "
          f"{len(config['pipeline'])} stages")
    return 0


if __name__ == "__main__":
    sys.exit(main())
