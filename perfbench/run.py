"""Layered benchmark for resolvent-lab.

    python3 perfbench/run.py --workload <name> [--seed N] [--seconds S] [--trace 0|1]

Run from the root of a source checkout; the package is imported from its
``src/`` directory, never from an installed copy.  One run sets the workload
up in this process, then repeats passes of the workload's operations until
the next pass would end after ``--seconds``.  Every pass is checked by the
correctness gates.  Before and after the passes it sets the workload up in
a few fresh processes; the fastest of these set-ups is ``setup_s``.

With ``--trace 0`` the run reports the end-to-end metrics.  With
``--trace 1`` the in-process set-up is traced, passes alternate untraced and
traced, the per-layer metrics come from the traced set-up and the traced
pass of median time, ``trace.overhead_s`` is the fastest traced minus the
fastest untraced pass time, and the spans are written under
``.bench_build/perfbench/trace/``.  The end-to-end metrics of the untraced
passes are printed too, on the line before the last as
``{"end_to_end": {...}}``, so one traced run shows every metric.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  The exit code is 0
when every operation passed its gates, 1 when some did not, and 2 when the
benchmark cannot run (for example without the package sources).
"""

from __future__ import annotations

import time

_T0 = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
BUILD = ROOT / ".bench_build" / "perfbench"
SPEC = json.loads((HERE / "spec.json").read_text())
BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOAD_NAMES = tuple(w["name"] for w in BENCH["workloads"])
# One BLAS thread: OpenBLAS threads spin beside the sweep's own worker
# threads on a small machine, which makes timings depend on other load.
BLAS_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1"}


class BenchError(Exception):
    """The benchmark cannot run in this checkout."""


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    p.add_argument("--seed", type=int, default=SPEC["default_seed"])
    p.add_argument("--seconds", type=float, default=30.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-probe", action="store_true",
                   help="set the workload up once, print the seconds it took "
                        "since interpreter start and exit")
    return p.parse_args(argv)


def import_package():
    """Import resolvent_lab from this checkout's src/ directory."""
    if not (SRC / "resolvent_lab" / "__init__.py").is_file():
        raise BenchError(f"no package sources at {SRC}/resolvent_lab")
    sys.path[:0] = [str(SRC), str(HERE)]
    import resolvent_lab
    if Path(resolvent_lab.__file__).resolve().parent != SRC / "resolvent_lab":
        raise BenchError(f"resolvent_lab imported from {resolvent_lab.__file__}, "
                         f"not from {SRC}")
    import workloads
    return workloads


def environment(args):
    import numpy
    import scipy
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas['name']} {blas.get('version', '')}".strip()
    except (TypeError, KeyError):
        blas_name = "unknown"
    commit = None
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True)
        commit = proc.stdout.strip() or None
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas_name,
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
        "OMP_NUM_THREADS": os.environ.get("OMP_NUM_THREADS"),
        "cpu_count": os.cpu_count(),
        "sweep_threads": SPEC["workloads"][args.workload]["threads"],
        "commit": commit,
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
    }


def probe_setup(args, count):
    """Seconds of ``count`` set-ups of the workload in fresh interpreters.

    ``setup_s`` is the fastest of them, like the other time metrics: set-up
    is mostly imports, whose time swings with the machine's load far more
    than with the code.  Half the probes run before the passes and half
    after, so one slow spell of the machine does not cover them all.
    """
    cmd = [sys.executable, str(Path(__file__).resolve()),
           "--workload", args.workload, "--seed", str(args.seed),
           "--setup-probe"]
    times = []
    for _ in range(count):
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                              timeout=120)
        if proc.returncode != 0:
            raise BenchError(f"set-up probe failed: {proc.stderr.strip()}")
        times.append(float(proc.stdout.split()[-1]))
    return times


def measure(args, workloads, state):
    """Run passes until the next one would overrun; return pass records."""
    import gates
    import tracing
    deadline = time.perf_counter() + args.seconds
    passes = []
    while True:
        traced = args.trace == 1 and len(passes) % 2 == 1
        tracer = tracing.Tracer() if traced else None
        start = time.perf_counter()
        if traced:
            with tracing.installed(tracer):
                result = workloads.run_pass(args.workload, state)
        else:
            result = workloads.run_pass(args.workload, state)
        wall = time.perf_counter() - start
        if traced:
            result.failures += gates.residual_ok(
                tracer.maxima.get("radial.residual_max"))
        passes.append({"wall": wall, "result": result, "tracer": tracer})
        enough = len(passes) >= (2 if args.trace else 1)
        if enough and time.perf_counter() + wall > deadline:
            return passes


def end_to_end(passes, setup_s):
    """Fastest untraced pass, and the median over operations of each one's
    fastest untraced run.

    Best-of-repetitions keeps the figures steady on a machine whose speed
    drifts with other tenants' load.
    """
    plain = [p for p in passes if p["tracer"] is None]
    best = {}
    for p in plain:
        for op, seconds in zip(p["result"].op_ids, p["result"].op_seconds):
            best[op] = min(best.get(op, seconds), seconds)
    return {
        "wall_s": min(p["wall"] for p in plain),
        "setup_s": setup_s,
        "op_s_p50": statistics.median(best.values()) if best else 0.0,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def per_layer(passes, setup):
    """Layer metrics of the traced set-up and of the median traced pass, so
    the parts of each add up."""
    import tracing
    traced = sorted((p for p in passes if p["tracer"] is not None),
                    key=lambda p: p["wall"])
    plain = [p["wall"] for p in passes if p["tracer"] is None]
    middle = traced[(len(traced) - 1) // 2]
    metrics = tracing.layer_metrics(middle["tracer"], middle["wall"])
    metrics["trace.overhead_s"] = traced[0]["wall"] - min(plain)
    metrics.update(tracing.setup_metrics(setup["tracer"], setup["wall"]))
    return metrics


def traced_setup(workloads, args, workdir):
    """Set the workload up with the tracer installed; return state and record."""
    import tracing
    tracer = tracing.Tracer()
    start = time.perf_counter()
    with tracing.installed(tracer):
        state = workloads.setup(args.workload, SPEC, args.seed, workdir)
    return state, {"wall": time.perf_counter() - start, "tracer": tracer}


def write_spans(args, env, setup, passes):
    path = BUILD / "trace" / f"{args.workload}-seed{args.seed}.json"
    path.parent.mkdir(parents=True, exist_ok=True)
    doc = {"env": env,
           "setup": {"wall": setup["wall"],
                     "spans": setup["tracer"].span_dicts()},
           "passes": [{"wall": p["wall"], "spans": p["tracer"].span_dicts()}
                      for p in passes if p["tracer"] is not None]}
    path.write_text(json.dumps(doc))
    return path


def main(argv=None):
    args = parse_args(argv)
    os.environ.update(BLAS_ENV)
    workdir = BUILD / f"work-{args.workload}-{os.getpid()}"
    try:
        workloads = import_package()
        if args.setup_probe:
            workdir.mkdir(parents=True)
            workloads.setup(args.workload, SPEC, args.seed, workdir)
            print(time.perf_counter() - _T0)
            return 0
        probes = SPEC["workloads"][args.workload]["setup_probes"]
        setup_times = probe_setup(args, probes - probes // 2)
        workdir.mkdir(parents=True)
        if args.trace:
            state, setup = traced_setup(workloads, args, workdir)
        else:
            state = workloads.setup(args.workload, SPEC, args.seed, workdir)
        passes = measure(args, workloads, state)
        setup_times += probe_setup(args, probes // 2)
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    env = environment(args)
    tables = {"end_to_end": end_to_end(passes, min(setup_times))}
    if args.trace:
        tables["per_layer"] = per_layer(passes, setup)
        env["spans_file"] = str(
            write_spans(args, env, setup, passes).relative_to(ROOT))
    for key, metrics in tables.items():
        names = sorted(m["name"] for m in BENCH[key])
        if names != sorted(metrics):
            print(f"perfbench: metrics {sorted(metrics)} differ from "
                  f"BENCHMARK.json {names}", file=sys.stderr)
            return 2
        tables[key] = {m["name"]: {"value": metrics[m["name"]],
                                   "unit": m["unit"]} for m in BENCH[key]}
    attempted = sum(len(p["result"].op_ids) for p in passes)
    failed = sum(len(p["result"].failed_ops()) for p in passes)
    env["passes"] = len(passes)
    print(json.dumps({"env": env}))
    print(json.dumps({"samples": {
        "pass_wall_s": [p["wall"] for p in passes],
        "traced": [p["tracer"] is not None for p in passes],
        "setup_s": setup_times,
        "op_s": [p["result"].op_seconds for p in passes]}}))
    for p in passes:
        for op, message in p["result"].failures:
            print(f"gate failed: {op or 'pass'}: {message}")
    for table in tables.values():
        for name, m in table.items():
            print(f"{name:<32} {m['value']:.6g} {m['unit']}")
    if args.trace:
        print(json.dumps({"end_to_end": tables["end_to_end"]}))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": tables["per_layer" if args.trace else "end_to_end"],
    }))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
