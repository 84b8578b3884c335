"""Baseline results and the traced-run report for every workload at one seed.

    python3 perfbench/report.py [--seed N] [--seconds S] [--out DIR] [--workload NAME ...]

For each workload this runs ``run.py --trace 1`` once, prints every
end-to-end metric (from the run's untraced passes) and every per-layer
metric with its unit, then writes into ``--out`` (default
``.bench_build/perfbench/report``):

- ``results-seed<N>.json``: environment, end-to-end and per-layer metrics,
  attempted and failed operations per workload;
- ``spans-<workload>-seed<N>.json``: the spans of the traced set-up and of
  the first traced pass;
- ``report-seed<N>.md``: per workload, each layer's self time and share of
  the median traced pass and of the traced set-up, its other non-zero
  metrics, the end-to-end metrics it should move, the uncovered time, and
  the tracing overhead.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

from tracing import LAYERS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((HERE / "spec.json").read_text())
BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())


def run_traced(workload, seed, seconds):
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "1"]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=600)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode not in (0, 1) or not lines:
        raise SystemExit(f"{' '.join(cmd)} failed:\n{proc.stderr}")
    env = json.loads(lines[0])["env"]
    e2e = json.loads(lines[-2])["end_to_end"]
    result = json.loads(lines[-1])
    gate_lines = [line for line in lines if line.startswith("gate failed:")]
    return env, e2e, result, gate_lines


def values(metrics):
    return {k: v["value"] for k, v in metrics.items()}


def moves(workload, *names):
    found = [m for name in names for m, w in SPEC["moves"].get(name, [])
             if w in ("*", workload)]
    return ", ".join(dict.fromkeys(found)) or "-"


def layer_table(workload, e2e, layer):
    wall = layer["trace.wall_s"]
    setup_wall = layer["setup.wall_s"]
    lines = [f"### {workload}", "",
             f"Fastest untraced pass {e2e['wall_s']:.4f} s, median traced "
             f"pass {wall:.4f} s (the layer figures below are from that "
             f"pass). Tracing overhead (fastest traced minus fastest untraced "
             f"pass): {layer['trace.overhead_s']:+.4f} s. "
             f"{layer['trace.spans']} spans in the pass. Traced in-process "
             f"set-up {setup_wall:.4f} s, after imports; fastest fresh-process "
             f"set-up (`setup_s`) {e2e['setup_s']:.4f} s.", "",
             "| layer | self s | share of traced pass | set-up self s | share of set-up | layer metrics (non-zero) | should move |",
             "|---|---:|---:|---:|---:|---|---|"]
    for name in LAYERS:
        self_s = layer[f"{name}.self_s"]
        setup_s = layer[f"setup.{name}.self_s"]
        counters = [f"{k}={layer[k]:.6g}" for k in layer
                    if k.startswith((f"{name}.", f"setup.{name}."))
                    and not k.endswith(".self_s") and layer[k]]
        should = moves(workload, f"{name}.self_s", f"setup.{name}.self_s")
        lines.append(f"| {name} | {self_s:.4f} | {self_s / wall:.1%} | "
                     f"{setup_s:.4f} | {setup_s / setup_wall:.1%} | "
                     f"{'; '.join(counters) or '-'} | {should} |")
    uncovered = layer["trace.uncovered_s"]
    setup_uncovered = layer["setup.uncovered_s"]
    lines.append(f"| (uncovered) | {uncovered:.4f} | {uncovered / wall:.1%} "
                 f"| {setup_uncovered:.4f} | {setup_uncovered / setup_wall:.1%} "
                 f"| - | - |")
    total = sum(layer[f"{n}.self_s"] for n in LAYERS) + uncovered
    setup_total = (sum(layer[f"setup.{n}.self_s"] for n in LAYERS)
                   + setup_uncovered)
    lines += ["", f"self times plus uncovered: {total:.4f} s of a "
                  f"{wall:.4f} s traced pass; {setup_total:.4f} s of a "
                  f"{setup_wall:.4f} s traced set-up", ""]
    mapped = [f"- `{k}` -> {moves(workload, k)}" for k in layer
              if moves(workload, k) != "-" and not k.endswith(".self_s")]
    return lines + ["Per-layer metric -> end-to-end metric on this workload:",
                    ""] + mapped + [""]


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--seed", type=int, default=SPEC["default_seed"])
    p.add_argument("--seconds", type=int, default=BENCH["run_seconds"])
    p.add_argument("--out", default=str(ROOT / ".bench_build" / "perfbench" / "report"))
    p.add_argument("--workload", nargs="*", default=list(SPEC["workloads"]))
    args = p.parse_args(argv)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    results = {}
    md = [f"# Traced-run report, seed {args.seed}", ""]
    for workload in args.workload:
        env, e2e, traced, gate_lines = run_traced(workload, args.seed,
                                                  args.seconds)
        spans = json.loads((ROOT / env["spans_file"]).read_text())
        spans["passes"] = spans["passes"][:1]
        (out / f"spans-{workload}-seed{args.seed}.json").write_text(
            json.dumps(spans))
        results[workload] = {
            "env": env,
            "attempted": traced["attempted"],
            "failed": traced["failed"],
            "gate_failures": gate_lines,
            "end_to_end": e2e,
            "per_layer": traced["metrics"],
        }
        md += layer_table(workload, values(e2e), values(traced["metrics"]))
        print(f"{workload}: failed {traced['failed']} of "
              f"{traced['attempted']} operations")
        for name, m in {**e2e, **traced["metrics"]}.items():
            print(f"  {name:<32} {m['value']:.6g} {m['unit']}")
        sys.stdout.flush()
    (out / f"results-seed{args.seed}.json").write_text(
        json.dumps(results, indent=2) + "\n")
    (out / f"report-seed{args.seed}.md").write_text("\n".join(md))
    return 0 if all(r["failed"] == 0 for r in results.values()) else 1


if __name__ == "__main__":
    sys.exit(main())
