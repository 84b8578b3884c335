"""The three benchmark workloads: set-up and one pass of operations each.

``setup(name, config, seed, workdir)`` builds everything a workload needs
before its first operation and returns its state; ``run_pass(state)`` runs
the workload's operations once and returns a ``PassResult``.  Every pass of
one run replays the same inputs, so per-pass counts repeat exactly.  Calls
into the package go through module attributes (``radial.assemble``, not a
name imported from it) so the tracer's rebinding reaches them.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import shutil
import time
from dataclasses import dataclass, field, replace

import numpy as np

from resolvent_lab import carleman, cli, potentials, radial, scaling
from resolvent_lab.carleman import CarlemanConfig, GridSpec, min_ell
from resolvent_lab.radial import AngularSector, ResolventQuery, UniformGridSpec

import gates


@dataclass
class PassResult:
    """Operations of one pass with their seconds, and the gate failures."""

    op_ids: list
    op_seconds: list = field(default_factory=list)
    failures: list = field(default_factory=list)

    def failed_ops(self):
        """Operations charged with a failure; a pass-level failure charges all."""
        if any(op is None for op, _ in self.failures):
            return set(self.op_ids)
        return {op for op, _ in self.failures} & set(self.op_ids)


def _model(block):
    return potentials.build_potential(block["name"], block.get("params", {}))


# ---------------------------------------------------------------------------
# readme_sweep: certify, then sweep with the certificate, through the CLI
# ---------------------------------------------------------------------------

def _setup_readme(config, seed, threads, workdir):
    doc = json.loads(json.dumps(config))
    doc["seed"] = seed
    doc["sweep"]["certificate"] = str(workdir / "out" / "certificate.json")
    path = workdir / "config.json"
    path.write_text(json.dumps(doc, indent=2))
    doc = json.loads(path.read_text())
    _model(doc["sweep"]["potential"])
    block = doc["sweep"]
    op_ids = [gates.row_op({"h": h, "eps": e, "sign": 1 if s == "+" else -1})
              for h in block["h_values"] for e in sorted(block["eps_values"])
              for s in sorted(block["signs"])]
    return {"config_path": str(path), "out": workdir / "out",
            "threads": threads, "op_ids": op_ids}


def _read_json(path):
    try:
        return json.loads(path.read_text())
    except (OSError, ValueError):
        return None


def _pass_readme(state):
    out = state["out"]
    shutil.rmtree(out, ignore_errors=True)
    common = ["--config", state["config_path"], "--out", str(out)]
    with contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(io.StringIO()):
        cert_code = cli.main(["certify", *common])
        sweep_code = cli.main(["sweep", *common,
                               "--threads", str(state["threads"])])
    result = PassResult(op_ids=state["op_ids"])
    cert = _read_json(out / "certificate.json")
    summary = _read_json(out / "summary.json")
    if cert_code != 0 or cert is None:
        result.failures.append((None, f"certify exit code {cert_code}"))
    else:
        result.failures += gates.certificate_ok(
            cert["passed"], [f["min_margin"] for f in cert["families"]])
    result.failures += gates.cli_ok(
        sweep_code, summary["bound_respected"] if summary else None)
    if summary is None:
        return result
    rows = [{"h": r["h"], "eps": r["eps"], "sign": r["sign"],
             "g": r["g_measured"], "status": r["status"]}
            for r in summary["rows"]]
    with open(out / "sweep.csv") as fh:
        runtime_ms = [float(line.split(",")[7]) for line in fh.readlines()[1:]]
    result.op_ids = [gates.row_op(r) for r in rows]
    result.op_seconds = [ms / 1000.0 for ms in runtime_ms]
    result.failures += (gates.rows_ok(rows) + gates.sign_pairs_agree(rows)
                        + gates.eps_monotone(rows))
    return result


# ---------------------------------------------------------------------------
# holder_fast_sweep: the library sweep, one sign, one thread, no certificate
# ---------------------------------------------------------------------------

def _setup_holder(config, seed, threads, workdir):
    model = _model(config["potential"])
    template = ResolventQuery(d=config["d"], E=config["E"], h=1.0, eps=1.0,
                              sign=1, s=config["s"], potential=model)
    return {"template": template, "config": config, "seed": seed,
            "threads": threads,
            "policy": scaling.GridPolicy(**config["grid_policy"])}


def _pass_holder(state):
    cfg = state["config"]
    try:
        swept = scaling.sweep(state["template"], cfg["h_values"],
                              cfg["eps_values"], state["policy"],
                              certificate=None, signs=tuple(cfg["signs"]),
                              seed=state["seed"], threads=state["threads"])
    except Exception as exc:  # a raised error fails every row of the pass
        ids = [gates.row_op({"h": h, "eps": e, "sign": s})
               for h in cfg["h_values"] for e in cfg["eps_values"]
               for s in cfg["signs"]]
        return PassResult(op_ids=ids,
                          failures=[(None, f"{type(exc).__name__}: {exc}")])
    rows = [{"h": r.h, "eps": r.eps, "sign": r.sign, "g": r.g_measured,
             "status": r.status} for r in swept.rows]
    result = PassResult(op_ids=[gates.row_op(r) for r in rows],
                        op_seconds=[r.runtime_ms / 1000.0 for r in swept.rows])
    result.failures += (gates.rows_ok(rows) + gates.sign_pairs_agree(rows)
                        + gates.eps_monotone(rows))
    return result


# ---------------------------------------------------------------------------
# verify_mix: the acceptance suite's verification operations
# ---------------------------------------------------------------------------

def _mollify_grid(cfg, freq):
    g = cfg["grid"]
    kinks = []
    j = 0
    while (0.5 + j) * math.pi / freq <= g["r_max"]:
        kinks.append((0.5 + j) * math.pi / freq)
        j += 1
    ko = g["kink_offsets"]
    offs = np.geomspace(ko["smallest"], ko["largest"], ko["count"])
    offs = np.concatenate([-offs, [0.0], offs])
    extra = np.concatenate([k + offs for k in kinks])
    return np.unique(np.concatenate([
        np.linspace(0.0, g["r_max"], g["points"]),
        extra[(extra >= 0.0) & (extra <= g["r_max"])]]))


def _cert_failures(cert):
    return gates.certificate_ok(cert.passed,
                                [f.min_margin for f in cert.families])


def _mollify_ops(cfg, kernel):
    pot = cfg["potential"]
    grid = _mollify_grid(cfg, pot["params"]["freq"])
    ops = []
    for alpha in cfg["alphas"]:
        model = _model({"name": pot["name"],
                        "params": {**pot["params"], "alpha": alpha}})
        for theta in cfg["thetas"]:
            def op(model=model, theta=theta):
                smoothed = potentials.mollify(model, kernel, theta)
                ratios = (smoothed.error_ratio(grid), smoothed.deriv_ratio(grid))
                if not all(math.isfinite(x) and x > 0 for x in ratios):
                    return [(None, f"mollifier ratios {ratios!r}")]
                return []
            ops.append((f"mollify alpha={alpha!r} theta={theta!r}", op))
    return ops


def _search_ops(cfg):
    ops = []
    for fam in cfg["families"]:
        model = _model(fam["potential"])
        beta = fam["beta"]
        k = 0.25 * min(1.0, beta - 1.0)
        templates = [CarlemanConfig.lipschitz(
            beta, cfg["s"], 4.0, min_ell(k, beta, cfg["s"]), E=cfg["E"], h=h,
            d=cfg["d"]) for h in cfg["h_values"]]

        def op(templates=templates, model=model):
            return [f for t in templates for f in _cert_failures(
                carleman.search_tau0(t, model.envelope, cfg["C"], GridSpec(),
                                     cfg["tau0_max"]))]
        ops.append((f"search {fam['potential']['name']} beta={beta!r}", op))
    fb = cfg["fallback"]
    model = _model(fb["potential"])
    steep = CarlemanConfig.holder(fb["alpha"], fb["s"], 4.0,
                                  min_ell(fb["k"], 4.0, fb["s"]), E=fb["E"],
                                  h=fb["h"], d=fb["d"], k=fb["k"])
    C = carleman.recommended_audit_constant(model)

    def fallback():
        cert, fell_back = carleman.search_tau0_with_fallback(
            steep, model.envelope, C, GridSpec(), fb["tau0_max"],
            r_min=fb["r_min"])
        failures = _cert_failures(cert)
        if not fell_back:
            failures.append((None, "steep weight certified; no fallback ran"))
        return failures
    ops.append((f"search fallback d={fb['d']} h={fb['h']!r}", fallback))
    return ops


def _base_certificate(block):
    model = _model(block["potential"])
    C = carleman.recommended_audit_constant(model)
    if block["regularity"] == "lipschitz":
        k = 0.25 * min(1.0, block["beta"] - 1.0)
        template = CarlemanConfig.lipschitz(
            block["beta"], block["s"], 4.0, min_ell(k, block["beta"], block["s"]),
            E=block["E"], h=block["h"], d=block["d"])
    else:
        template = CarlemanConfig.holder(
            block["alpha"], block["s"], 4.0, min_ell(block["k"], 4.0, block["s"]),
            E=block["E"], h=block["h"], d=block["d"], k=block["k"])
    return model, carleman.search_tau0(template, model.envelope, C, GridSpec(),
                                       4096.0)


def _recertify_ops(cfg):
    ops = []
    for block in cfg["certificates"]:
        model, base = _base_certificate(block)

        def op(model=model, base=base):
            return [f for h in cfg["h_values"] for f in _cert_failures(
                carleman.certify(replace(base.config, h=h), model.envelope,
                                 base.C_used))]
        ops.append((f"recertify {block['potential']['name']}", op))
    return ops


def _oracle_ops(cfg, rng):
    model = _model(cfg["potential"])
    g = cfg["grid"]
    ops = []
    for d in cfg["dims"]:
        gs = UniformGridSpec(dr=g["dr"], r_max=g["r_max"],
                             r_min=g["r_min_d2"] if d == 2 else 0.0,
                             tail_tol=g["tail_tol"])
        for eps in cfg["eps_values"]:
            for l in cfg["ls"]:
                sign = int(rng.choice([1, -1]))
                seed = int(rng.integers(2 ** 31))
                query = ResolventQuery(d=d, E=cfg["E"], h=cfg["h"], eps=eps,
                                       sign=sign, s=cfg["s"], potential=model)

                def op(query=query, gs=gs, l=l, seed=seed):
                    sector = AngularSector(query.d, l, query.h)
                    dense = radial.dense_weighted_norm(query, sector, gs)
                    est = radial.weighted_resolvent_norm(query, gs, l,
                                                         seed=seed, threads=1)
                    return (gates.oracle_agrees(dense, est.sector_values[l])
                            + gates.residual_ok(est.residual))
                ops.append((f"oracle d={d} l={l} eps={eps!r} sign={sign:+d}", op))
    return ops


def _audit_model(p):
    def v(r):
        return p["c"] * (np.asarray(r, dtype=float) + 1.0) ** (-p["power"])

    hc = potentials.holder_seminorm(v, p["alpha"], p["beta"],
                                    potentials.REFERENCE_GRID) * p["holder_safety"]
    model = potentials.PotentialModel("weak_decay", v, v, alpha=p["alpha"],
                                      beta=p["beta"], holder_const=hc)
    model.validate()
    return model


def _audit_ops(cfg, kernel, rng):
    model = _audit_model(cfg["potential"])
    s, h = cfg["s"], cfg["h"]
    template = CarlemanConfig.holder(model.alpha, s, 4.0, min_ell(1.0, 4.0, s),
                                     E=cfg["E"], h=h, d=3, k=1.0)
    cert = carleman.search_tau0(template, model.envelope, cfg["C"], GridSpec(),
                                4096.0)
    ccfg = cert.config
    query = ResolventQuery(d=3, E=cfg["E"], h=h, eps=cfg["eps"], sign=1, s=s,
                           potential=model)
    r_max = max(4.0 * ccfg.a, cfg["tail_tol"] ** (-1.0 / (2.0 * s)) - 1.0)
    gs = UniformGridSpec(dr=cfg["dr"], r_max=r_max, tail_tol=cfg["tail_tol"])
    weight, phase = carleman.build_weight(ccfg), carleman.build_phase(ccfg)
    ops = []
    for _ in range(cfg["count"]):
        centre = float(rng.uniform(*cfg["rhs_centre"]))

        def op(centre=centre):
            smoothed = potentials.mollify(model, kernel, ccfg.theta)
            conj = radial.assemble_conjugated(query, AngularSector(3, 0, h),
                                              gs, phase)
            rhs = np.exp(-(conj.grid - centre) ** 2).astype(complex)
            u = conj.solve(rhs)
            trace = radial.energy_audit(u, query, ccfg, weight, phase, rhs, gs,
                                        v_long=smoothed.evaluate)
            return gates.audit_ok(
                trace.flux_residuals, 10.0 * gs.dr * trace.residual_tolerance,
                abs(trace.integral_value) / trace.integral_scale)
        ops.append((f"audit centre={centre!r}", op))
    return ops


def _setup_verify(config, seed, threads, workdir):
    rng = np.random.default_rng(seed)
    kernel = potentials.bump_kernel()
    ops = (_mollify_ops(config["mollify"], kernel)
           + _search_ops(config["search"])
           + _recertify_ops(config["recertify"])
           + _oracle_ops(config["oracle"], rng)
           + _audit_ops(config["audit"], kernel, rng))
    order = rng.permutation(len(ops))
    return {"ops": [ops[i] for i in order]}


def _pass_verify(state):
    result = PassResult(op_ids=[op_id for op_id, _ in state["ops"]])
    for op_id, op in state["ops"]:
        start = time.perf_counter()
        try:
            failures = op()
        except Exception as exc:  # a raised error is a failed operation
            failures = [(None, f"{type(exc).__name__}: {exc}")]
        result.op_seconds.append(time.perf_counter() - start)
        result.failures += [(op_id, msg) for _, msg in failures]
    return result


WORKLOADS = {
    "readme_sweep": (_setup_readme, _pass_readme),
    "holder_fast_sweep": (_setup_holder, _pass_holder),
    "verify_mix": (_setup_verify, _pass_verify),
}


def setup(name, spec, seed, workdir):
    entry = spec["workloads"][name]
    return WORKLOADS[name][0](entry["config"], seed, entry["threads"], workdir)


def run_pass(name, state):
    return WORKLOADS[name][1](state)
