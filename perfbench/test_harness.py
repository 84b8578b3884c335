"""Self-tests of the benchmark harness at tiny sizes.

    python3 -m pytest -q perfbench/test_harness.py

They check that the printed metric names match BENCHMARK.json, that each
correctness gate trips on a doctored result, that per-pass counts repeat
exactly across traced runs with one seed, and that layer self times plus
uncovered time add up to the traced pass time and to the traced set-up
time.
"""

import copy
import json
import math
import sys
from dataclasses import replace
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import gates  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from resolvent_lab import scaling  # noqa: E402

BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())


def tiny_spec():
    spec = copy.deepcopy(run.SPEC)
    w = spec["workloads"]
    readme = w["readme_sweep"]["config"]
    readme["certify"]["h"] = 0.5
    readme["sweep"].update(h_values=[0.5, 0.45, 0.4, 0.35], l_max=1,
                           tail_tol=0.05)
    holder = w["holder_fast_sweep"]["config"]
    holder["h_values"] = [0.5, 0.4]
    holder["grid_policy"].update(l_max=1, tail_tol=0.05)
    mix = w["verify_mix"]["config"]
    mix["mollify"].update(alphas=[0.5], thetas=[0.1])
    mix["mollify"]["grid"]["points"] = 401
    mix["search"].update(h_values=[0.5], families=mix["search"]["families"][:1])
    mix["recertify"]["h_values"] = [0.2]
    mix["oracle"].update(dims=[3], ls=[1], eps_values=[0.01])
    mix["audit"]["tail_tol"] = 0.01
    return spec


@pytest.fixture
def tiny(monkeypatch):
    spec = tiny_spec()
    monkeypatch.setattr(run, "SPEC", spec)
    return spec


def run_bench(capsys, *argv):
    code, lines = run_lines(capsys, *argv)
    return code, json.loads(lines[-1])


def run_lines(capsys, *argv):
    code = run.main(["--seconds", "0", *argv])
    return code, capsys.readouterr().out.strip().splitlines()


# ---------------------------------------------------------------------------
# printed metrics
# ---------------------------------------------------------------------------

def assert_declared(metrics, key):
    declared = {m["name"]: m["unit"] for m in BENCH[key]}
    assert {k: v["unit"] for k, v in metrics.items()} == declared
    assert all(isinstance(v["value"], (int, float)) for v in metrics.values())


@pytest.mark.parametrize("trace, key", [("0", "end_to_end"), ("1", "per_layer")])
def test_printed_metrics_match_benchmark_json(tiny, capsys, trace, key):
    code, lines = run_lines(capsys, "--workload", "holder_fast_sweep",
                            "--trace", trace)
    result = json.loads(lines[-1])
    assert code == 0
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] >= 1
    assert_declared(result["metrics"], key)
    if trace == "1":
        assert_declared(json.loads(lines[-2])["end_to_end"], "end_to_end")


# ---------------------------------------------------------------------------
# gates trip on doctored results
# ---------------------------------------------------------------------------

def rows(shift=0.0, failed=False, g_small_eps=3.0):
    out = []
    for eps, g in ((1e-2, 2.0), (1e-4, g_small_eps)):
        for sign in (1, -1):
            out.append({"h": 0.1, "eps": eps, "sign": sign,
                        "g": g + (shift if sign < 0 else 0.0), "status": "ok"})
    if failed:
        out[1] = dict(out[1], status="failed: doctored", g=None)
    return out


def test_row_gates_pass_on_clean_rows():
    clean = rows()
    assert gates.rows_ok(clean) == []
    assert gates.sign_pairs_agree(clean) == []
    assert gates.eps_monotone(clean) == []


def test_sign_pair_gate_trips_on_shifted_minus_row():
    failures = gates.sign_pairs_agree(rows(shift=1e-6))
    assert [op for op, _ in failures] == ["h=0.1 eps=0.01 sign=-1",
                                          "h=0.1 eps=0.0001 sign=-1"]


def test_row_gate_trips_on_failed_row():
    assert [op for op, _ in gates.rows_ok(rows(failed=True))] == [
        "h=0.1 eps=0.01 sign=-1"]


def test_eps_monotone_gate_trips():
    assert len(gates.eps_monotone(rows(g_small_eps=2.0 - 2e-6))) == 2
    assert gates.eps_monotone(rows(g_small_eps=2.0 - 5e-7)) == []


def test_scalar_gates_trip():
    assert gates.residual_ok(2e-6) and not gates.residual_ok(1e-6)
    assert gates.cli_ok(2, True) and gates.cli_ok(0, False)
    assert gates.cli_ok(0, None) and not gates.cli_ok(0, True)
    assert gates.certificate_ok(False, [0.1]) and gates.certificate_ok(True, [-1e-300])
    assert not gates.certificate_ok(True, [0.0, 1.0])
    assert gates.oracle_agrees(1.0, 1.0 + 2e-6)
    assert not gates.oracle_agrees(1.0, 1.0 + 5e-7)
    import numpy as np
    tol = np.full(3, 1e-3)
    assert gates.audit_ok(np.array([0.0, -2e-3, 1.0]), tol, 0.0)
    assert gates.audit_ok(np.zeros(3), tol, 2e-6)
    assert not gates.audit_ok(np.array([0.0, -5e-4, 1.0]), tol, 5e-7)


def test_pass_level_failure_charges_every_operation():
    result = workloads.PassResult(op_ids=["a", "b", "c"],
                                  failures=[("b", "x")])
    assert result.failed_ops() == {"b"}
    result.failures.append((None, "exit code 2"))
    assert result.failed_ops() == {"a", "b", "c"}


def test_doctored_sweep_fails_the_run(tiny, capsys, monkeypatch):
    tiny["workloads"]["holder_fast_sweep"]["config"]["signs"] = [1, -1]
    real_sweep = scaling.sweep

    def doctored(*args, **kwargs):
        result = real_sweep(*args, **kwargs)
        out = [replace(r, g_measured=r.g_measured + 1e-6) if r.sign < 0 else r
               for r in result.rows]
        return replace(result, rows=tuple(out))

    monkeypatch.setattr(scaling, "sweep", doctored)
    code, result = run_bench(capsys, "--workload", "holder_fast_sweep")
    assert code == 1
    assert result["correct"] is False
    assert result["failed"] == result["attempted"] // 2


# ---------------------------------------------------------------------------
# tiny workloads pass; traced counts repeat; accounting closes
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("name", list(run.SPEC["workloads"]))
def test_tiny_workload_passes_and_accounting_closes(name, tmp_path):
    state = workloads.setup(name, tiny_spec(), 7, tmp_path)
    plain = workloads.run_pass(name, state)
    assert plain.failures == []
    assert len(plain.op_seconds) == len(plain.op_ids) >= 1
    tracer = tracing.Tracer()
    with tracing.installed(tracer):
        traced = workloads.run_pass(name, state)
    assert traced.failures == []
    wall = max(s[2] for s in tracer.spans) - min(s[1] for s in tracer.spans)
    metrics = tracing.layer_metrics(tracer, wall)
    layer_sum = sum(metrics[f"{layer}.self_s"] for layer in tracing.LAYERS)
    assert math.isclose(layer_sum + metrics["trace.uncovered_s"], wall,
                        rel_tol=1e-9)
    assert metrics["trace.uncovered_s"] >= 0.0


def test_traced_counts_repeat_across_runs(tiny, capsys):
    counts = []
    for _ in range(2):
        code, result = run_bench(capsys, "--workload", "holder_fast_sweep",
                                 "--seed", "11", "--trace", "1")
        assert code == 0
        m = {k: v["value"] for k, v in result["metrics"].items()}
        for prefix, wall in (("", "trace.wall_s"), ("setup.", "setup.wall_s")):
            parts = sum(m[f"{prefix}{layer}.self_s"] for layer in tracing.LAYERS)
            uncovered = m[f"{prefix or 'trace.'}uncovered_s"]
            assert math.isclose(parts + uncovered, m[wall], rel_tol=1e-9)
        assert m["setup.potentials.build_s"] > 0.0
        counts.append({k: m[k] for k in ("radial.matvecs", "radial.unknowns")})
    assert counts[0] == counts[1]
    assert counts[0]["radial.matvecs"] > 0 and counts[0]["radial.unknowns"] > 0


def test_installed_restores_every_attribute():
    before = [(owner, attr, owner.__dict__[attr])
              for owner, attr, *_ in tracing._targets()]
    with tracing.installed(tracing.Tracer()):
        assert all(owner.__dict__[attr] is not fn for owner, attr, fn in before)
    assert all(owner.__dict__[attr] is fn for owner, attr, fn in before)
