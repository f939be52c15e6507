"""Scene benchmark for liechannel.

    python3 perfbench/run.py --workload dense-darboux --seed 1 --seconds 40 --trace 0

Run from the root of a source checkout; the package is imported from
`src/`.  Each run generates the workload's scene from the seed and
executes it through `liechannel.scene.run_scene` in this one process,
pinned to one core, again and again for `--seconds` (at least twice),
checking every report.  Every time it reports is rescaled to a nominal
machine speed by the reference kernel of reference.py, timed beside
each execution.  The last line of standard output is one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

`--trace 0` reports the end-to-end metrics of BENCHMARK.json, untraced.
`--trace 1` wraps the package's layer functions (see spans.py) and
reports the per-layer metrics of BENCHMARK.json instead.  README.md
explains the workloads, the metrics and which layer should move which
metric.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback

# Pinned before numpy loads, and inherited by the set-up probes, so that
# a run never competes with itself for the machine's cores.
BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)
# One core for the whole run, probes included: the reference kernel only
# tracks the speed of the core the scene runs on if they share it.
PINNED_CPU = min(os.sched_getaffinity(0))
os.sched_setaffinity(0, {PINNED_CPU})

import reference  # noqa: E402  (imports numpy)
import spans  # noqa: E402

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".perfbench_out")

MIN_EXECUTIONS = 2          # report identity and exact counts need two
PROBES_PER_EXECUTION = 2    # fresh set-up interpreters after each execution
KERNELS_PER_SIDE = 4        # reference kernel passes before and after each
SETUP_TIMEOUT = 60
# False assertions measured and documented in README.md ("Known
# failures").  They count in `failed` like any other; they alone do not
# make a run incorrect.
KNOWN_FALSE = {("long-calapso", "darboux", "validation_passed"),
               ("dense-darboux", "darboux", "validation_passed")}

# A fresh interpreter: import the package and validate the scene read
# from stdin; prints the seconds that took.
_SETUP_PROBE = """\
import json, sys, time
config = json.load(sys.stdin)
start = time.perf_counter()
sys.path.insert(0, sys.argv[1])
import liechannel
errors = liechannel.validate_scene(config)
print(repr(time.perf_counter() - start))
sys.exit(1 if errors else 0)
"""


def _fail(message: str) -> None:
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def _nonnegative(text: str) -> int:
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError("the seed must be >= 0")
    return value


def _positive(text: str) -> float:
    value = float(text)
    if not value > 0:
        raise argparse.ArgumentTypeError("seconds must be > 0")
    return value


def _environment(numpy) -> dict:
    deps = numpy.show_config(mode="dicts").get("Build Dependencies", {})
    blas = deps.get("blas", {})
    return {"python": sys.version.split()[0], "numpy": numpy.__version__,
            "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
            "nproc": os.cpu_count(), "blas_threads": BLAS_THREADS,
            "pinned_cpu": PINNED_CPU}


def _setup_probe(payload: str) -> float:
    """Import + validate time of one fresh interpreter."""
    done = subprocess.run(
        [sys.executable, "-c", _SETUP_PROBE, SRC], input=payload,
        capture_output=True, text=True, timeout=SETUP_TIMEOUT)
    if done.returncode != 0:
        _fail(f"set-up probe failed:\n{done.stdout}{done.stderr}")
    return float(done.stdout.strip().splitlines()[-1])


def _count_assertions(config: dict) -> int:
    return sum(len(stage.get("assert", [])) for stage in config["pipeline"])


def _execute(name, make_config, seed, seconds, tracer):
    """Run the scene at least MIN_EXECUTIONS times, and then again while
    one more cycle as long as the last one still ends within `seconds`.
    Each cycle times KERNELS_PER_SIDE passes of the reference kernel
    before and after the execution and, untraced, PROBES_PER_EXECUTION
    fresh set-up interpreters, so that the kernel, set-up and scene times
    sample the same stretch of the machine.

    The correctness tally does not depend on how many executions fit:
    `attempted` is the scene's assertions plus one check that every
    execution's report.json is byte-identical to the first; `failed`
    counts the assertions false in the first report, plus one if any
    later report differs.  An execution that raises fails all of them."""
    from liechannel import scene

    config = make_config(seed)
    attempted = _count_assertions(config) + 1
    payload = json.dumps(config)
    if tracer is None:
        _setup_probe(payload)   # compiles bytecode; not kept
    records, setup_times, unexpected = [], [], []
    known = []
    false_first = 0
    raised = differs = False
    first_report = None
    out_dir = os.path.join(OUT, name)
    start = time.perf_counter()
    cycle = 0.0
    while (len(records) < MIN_EXECUTIONS
           or time.perf_counter() - start + cycle <= seconds):
        cycle_start = time.perf_counter()
        config = make_config(seed)
        shutil.rmtree(out_dir, ignore_errors=True)
        gc.collect()
        kernel_times = [reference.kernel_seconds()
                        for _ in range(KERNELS_PER_SIDE)]
        if tracer is not None:
            tracer.reset()
        t0 = time.perf_counter()
        try:
            report = scene.run_scene(config, out_dir)
        except Exception:  # a raised stage is a counted failure
            elapsed = time.perf_counter() - t0
            raised = True
            unexpected.append(f"execution {len(records) + 1} raised: "
                              + traceback.format_exc(limit=1)
                              .strip().splitlines()[-1])
            report = None
        else:
            elapsed = time.perf_counter() - t0
        record = {"scene_s": elapsed}
        if tracer is not None:
            record["trace"] = tracer.snapshot()
        kernel_times.extend(reference.kernel_seconds()
                            for _ in range(KERNELS_PER_SIDE))
        record["kernel_s"] = statistics.mean(kernel_times)
        records.append(record)
        if tracer is None:
            setup_times.extend((_setup_probe(payload), record["kernel_s"])
                               for _ in range(PROBES_PER_EXECUTION))
        cycle = time.perf_counter() - cycle_start
        if report is None:
            continue

        with open(os.path.join(out_dir, "report.json"), "rb") as fh:
            body = fh.read()
        if first_report is not None:
            if body != first_report and not differs:
                differs = True
                unexpected.append(f"execution {len(records)}: report.json "
                                  "differs from the first execution's")
            continue
        first_report = body
        for stage in report["stages"]:
            for check in stage["assertions"]:
                if check["passed"]:
                    continue
                false_first += 1
                line = (f"{stage['id']}.{check['key']} = "
                        f"{check['measured']!r}")
                if (name, stage["id"], check["key"]) in KNOWN_FALSE:
                    known.append(line)
                else:
                    unexpected.append("false assertion: " + line)
    for line in known:
        print(f"known failure (seed {seed}): {line}")
    failed = attempted if raised else false_first + differs
    return records, setup_times, attempted, failed, unexpected


def _scaled(seconds: float, kernel_s: float) -> float:
    """A time measured beside reference kernel passes of mean `kernel_s`,
    rescaled to the nominal machine speed (see reference.py)."""
    return seconds * reference.NOMINAL_S / kernel_s


def _end_to_end(records, setup_times):
    kernels = [r["kernel_s"] for r in records]
    print(f"reference kernel  median {statistics.median(kernels):.4f} s "
          f"(nominal {reference.NOMINAL_S} s), per execution: "
          + ", ".join(f"{k:.4f}" for k in kernels))
    samples = {
        "scene_s": ([r["scene_s"] for r in records], kernels, "executions"),
        "setup_s": ([t for t, _ in setup_times], [k for _, k in setup_times],
                    "fresh interpreters"),
    }
    values = {}
    for name, (raw, beside, what) in samples.items():
        values[name] = statistics.median(map(_scaled, raw, beside))
        print(f"{name}  scaled median {values[name]:.4f} s; raw median "
              f"{statistics.median(raw):.4f} s over {len(raw)} {what}: "
              + ", ".join(f"{t:.3f}" for t in raw) + "; scaled: "
              + ", ".join(f"{_scaled(t, k):.3f}" for t, k in zip(raw, beside)))
    values["peak_rss_mb"] = (resource.getrusage(resource.RUSAGE_SELF)
                             .ru_maxrss / 1024.0)
    print(f"peak_rss_mb  {values['peak_rss_mb']:.1f} MB")
    return values


def _exact(key: str) -> bool:
    return key.endswith((".calls", ".matrices", ".bytes"))


def _per_layer(records, wanted, problems):
    traces = [r["trace"] for r in records]
    for key in sorted(traces[0]):
        if _exact(key) and any(t.get(key) != traces[0][key]
                               for t in traces[1:]):
            problems.append(f"count {key} differs between executions: "
                            + ", ".join(str(t.get(key)) for t in traces))
    absent = sorted(set(wanted) - set(traces[0]) - {"trace.scene_s"})
    if absent:
        print("trace: no such function in the package, reported as 0: "
              + ", ".join(absent))
    traced_s = statistics.median(r["scene_s"] for r in records)
    values = {}
    for key in wanted:
        if key == "trace.scene_s":
            values[key] = statistics.median(
                _scaled(r["scene_s"], r["kernel_s"]) for r in records)
        elif _exact(key):
            values[key] = traces[0].get(key, 0)
        elif key.endswith("_s"):
            values[key] = statistics.median(
                _scaled(r["trace"].get(key, 0.0), r["kernel_s"])
                for r in records)
        else:
            values[key] = statistics.median(t.get(key, 0.0) for t in traces)

    # the outermost span is run_scene, so the layers' self times must add
    # up to the traced wall time, less only the root wrapper's own cost
    for record in records:
        total = sum(record["trace"][f"{layer}.self_s"]
                    for layer in spans.LAYERS + ("linalg",))
        share = total / record["scene_s"]
        print(f"trace: layer self times sum to {total:.4f} s of "
              f"{record['scene_s']:.4f} s traced run_scene ({share:.2%})")
        if not 0.99 <= share <= 1.0 + 1e-9:
            problems.append(f"layer self times cover {share:.2%} of the "
                            "traced run_scene wall time")
    print(f"trace.scene_s  scaled median {values['trace.scene_s']:.4f} s; raw "
          f"median {traced_s:.4f} s over {len(records)} traced executions; "
          "set it beside scene_s of an untraced run for the tracing overhead")
    ranked = sorted((v, k) for k, v in values.items() if k.endswith(
        ".self_s") and k.count(".") == 1)
    print("trace: scaled self time by layer: " + ", ".join(
        f"{k[:-7]} {v:.3f} s" for v, k in reversed(ranked)))
    return values


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=_nonnegative, required=True)
    parser.add_argument("--seconds", type=_positive, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    try:
        with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
            spec = json.load(fh)
    except (OSError, ValueError) as exc:
        _fail(f"cannot read BENCHMARK.json: {exc}")
    if not os.path.isfile(os.path.join(SRC, "liechannel", "__init__.py")):
        _fail(f"no liechannel package under {SRC}; run from the root of a "
              "source checkout")
    sys.path.insert(0, SRC)

    import numpy
    import workloads
    if args.workload not in workloads.WORKLOADS:
        _fail(f"unknown workload {args.workload!r}; choose from "
              + ", ".join(workloads.WORKLOADS))
    make_config = workloads.WORKLOADS[args.workload]
    print("env: " + json.dumps(_environment(numpy), sort_keys=True))

    section = "per_layer" if args.trace else "end_to_end"
    wanted = {m["name"]: m["unit"] for m in spec[section]}
    problems = []
    tracer = None
    try:
        if args.trace:
            tracer = spans.Tracer()
            import liechannel  # noqa: F401  (every module, before rebinding)
            tracer.install()
        records, setup_times, attempted, failed, unexpected = _execute(
            args.workload, make_config, args.seed, args.seconds, tracer)
    finally:
        if tracer is not None:
            tracer.uninstall()
        shutil.rmtree(OUT, ignore_errors=True)
    problems.extend(unexpected)

    if args.trace:
        values = _per_layer(records, wanted, problems)
    else:
        values = _end_to_end(records, setup_times)
    print(f"failed_frac {failed / attempted:.6f} ({failed} of {attempted}: "
          "the scene's assertions and the report-identity check)")
    missing = sorted(set(wanted) - set(values))
    if missing:
        problems.append("metrics not measured: " + ", ".join(missing))
    for problem in problems:
        print(f"check failed: {problem}")

    print(json.dumps({
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": values[k], "unit": wanted[k]}
                    for k in wanted if k in values},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
