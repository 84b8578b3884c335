"""Command-line harness.

Subcommands (each takes --config <path> and --out <dir>):

    certify   search for an admissible phase amplitude and write certificate.json
    sweep     measure g over an (h, eps, sign) grid; write sweep.csv,
              summary.json and plotdata.tsv
    mollify   tabulate smoothing-error ratios against theta
    convert   tabulate the frequency map psi(lambda) or decay map omega(t)

The config file is a single JSON document with one block per subcommand and
an optional integer "seed".  Every run that gets as far as its handler
writes manifest.json last (resolved config, artifact version, seed, the
exit code and the environment: Python, numpy and scipy versions, CPU count
and BLAS thread settings); pointing --config at a manifest reproduces the
run.

Exit codes: 0 success, 1 invalid input, 2 mathematical failure (search
exhausted or bound violated), 3 internal error.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

import numpy as np
import scipy

from . import __version__
from .carleman import (C_FLOOR, HOLDER, LIPSCHITZ, TAU0_START, CarlemanConfig,
                       Certificate, GridSpec, recommended_audit_constant,
                       search_tau0, search_tau0_with_fallback)
from .errors import (AccuracyError, EvaluationError, InvalidInputError,
                     ResolventLabError, SearchExhaustedError)
from .potentials import bump_kernel, build_potential, mollify
from .radial import ResolventQuery
from .scaling import (GridPolicy, fit_models, omega_map, psi_map, sweep,
                      write_plotdata_tsv, write_summary_json, write_sweep_csv)

EXIT_OK = 0
EXIT_INVALID = 1
EXIT_MATH = 2
EXIT_INTERNAL = 3

_TOP_KEYS = {"seed", "certify", "sweep", "mollify", "convert"}
_POLICY_KEYS = ("tail_tol", "dr_factor", "l_max", "r_min", "r_max_floor")


def _check_keys(block, allowed, where, required=()):
    """Reject a non-object block, keys not allowed (None: any) and missing ones."""
    if not isinstance(block, dict):
        raise InvalidInputError(
            f"{where} must be a JSON object, got {type(block).__name__}")
    unknown = set(block) - set(block if allowed is None else allowed)
    if unknown:
        raise InvalidInputError(
            f"unknown keys in {where}: {', '.join(sorted(unknown))}")
    missing = [key for key in required if key not in block]
    if missing:
        raise InvalidInputError(f"{where} needs '{missing[0]}'")


def _load_config(path):
    try:
        with open(path) as fh:
            doc = json.load(fh)
    except FileNotFoundError:
        raise InvalidInputError(f"config file not found: {path}")
    except json.JSONDecodeError as exc:
        raise InvalidInputError(f"config is not valid JSON: {exc}")
    if not isinstance(doc, dict):
        raise InvalidInputError("config must be a JSON object")
    if "artifact_version" in doc and "config" in doc:
        doc = doc["config"]  # rerun from a manifest
    _check_keys(doc, _TOP_KEYS, "config")
    return doc


def _environment():
    """Versions, CPU count and BLAS thread settings (None when unset)."""
    env = {"python": "%d.%d.%d" % sys.version_info[:3],
           "numpy": np.__version__,
           "scipy": scipy.__version__,
           "cpu_count": os.cpu_count()}
    env.update({name: os.environ.get(name)
                for name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")})
    return env


def _write_manifest(out_dir, command, seed, config, exit_code):
    manifest = {
        "artifact_version": __version__,
        "command": command,
        "seed": seed,
        "config": config,
        "exit_code": exit_code,
        "environment": _environment(),
    }
    with open(Path(out_dir) / "manifest.json", "w") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _build_model(block, where, **extra_params):
    _check_keys(block, {"name", "params"}, where, required=("name",))
    params = block.get("params", {})
    _check_keys(params, None, f"{where}.params")
    return build_potential(block["name"], dict(params, **extra_params))


def _certify_template(block, model):
    """The search template; keys the block leaves out take the library's defaults."""
    regularity = block.get("regularity")
    kw = {key: block[key] for key in ("ell", "d", "k") if key in block}
    kw.update(E=block.get("E", 1.0), h=block["h"])
    if regularity == LIPSCHITZ:
        _check_keys(block, None, "certify block", required=("beta",))
        kw.pop("k", None)  # follows from beta
        return CarlemanConfig.lipschitz(block["beta"], block["s"], TAU0_START, **kw)
    if regularity == HOLDER:
        return CarlemanConfig.holder(block.get("alpha", model.alpha), block["s"],
                                     TAU0_START, **kw)
    raise InvalidInputError(
        f"certify regularity must be '{LIPSCHITZ}' or '{HOLDER}', got {regularity!r}")


def _cmd_certify(block, out_dir):
    allowed = {"regularity", "alpha", "beta", "k", "s", "ell", "E", "h", "d",
               "C", "tau0_max", "potential", "grid", "r_min"}
    _check_keys(block, allowed, "certify block", required=("s", "h"))
    model = _build_model(block.get("potential", {"name": "zero"}), "certify.potential")
    template = _certify_template(block, model)
    C = block.get("C", C_FLOOR)
    if C == "auto":
        C = recommended_audit_constant(model)
    grid_block = block.get("grid", {})
    _check_keys(grid_block, {"points_per_decade", "span_factor"}, "certify.grid")
    search_kw = {key: block[key] for key in ("tau0_max", "r_min") if key in block}
    search_kw["grid_spec"] = GridSpec(**grid_block)
    moll = None
    if template.regularity == HOLDER:
        kernel = bump_kernel()
        moll = {"holder_const": model.holder_const,
                "moment_alpha": kernel.moment_alpha(template.alpha),
                "moment_alpha_deriv": kernel.moment_alpha_deriv(template.alpha)}
    search_kw["mollifier_constants"] = moll
    try:
        if template.d == 2 and template.regularity == HOLDER:
            cert, fellback = search_tau0_with_fallback(
                template, model.envelope, C, **search_kw)
            if fellback:
                print("steep weight rejected; certified with the shallow pair "
                      "(k, k0) = (1/2, 0)")
        else:
            cert = search_tau0(template, model.envelope, C, **search_kw)
    except SearchExhaustedError as exc:
        print(f"certification failed: {exc}", file=sys.stderr)
        return EXIT_MATH
    cert.save(Path(out_dir) / "certificate.json")
    worst = cert.worst()
    print(f"certified tau0={cert.tau0_found:g} C={cert.C_used:g} "
          f"worst margin {worst.min_margin:.6g} ({worst.name} at "
          f"r={worst.argmin_r:.6g})")
    return EXIT_OK


def _cmd_sweep(block, out_dir, seed, threads):
    allowed = {"d", "E", "s", "potential", "h_values", "eps_values", "signs",
               "certificate", "fit", *_POLICY_KEYS}
    _check_keys(block, allowed, "sweep block", required=("s",))
    model = _build_model(block.get("potential", {"name": "zero"}), "sweep.potential")
    h_values = block.get("h_values", [])
    eps_values = block.get("eps_values", [1e-2])
    signs = block.get("signs", ["+"])
    if not isinstance(signs, list) or not all(sign in ("+", "-") for sign in signs):
        raise InvalidInputError(f"sweep.signs must be a list of '+' and '-', got {signs!r}")
    signs = tuple(1 if sign == "+" else -1 for sign in signs)
    fit_block = block.get("fit")
    if fit_block is not None:
        _check_keys(fit_block, {"candidates", "eps", "sign"}, "sweep.fit",
                    required=("candidates",))
        candidates = fit_block["candidates"]
        if not (isinstance(candidates, list)
                and all(isinstance(c, list) and c for c in candidates)):
            raise InvalidInputError(
                f"sweep.fit.candidates must be a list of nonempty lists, got {candidates!r}")
        candidates = [tuple(c) if len(c) > 1 else c[0] for c in candidates]
    template = ResolventQuery(d=block.get("d", 3), E=block.get("E", 1.0),
                              h=1.0, eps=1.0, sign=1, s=block["s"],
                              potential=model)
    policy = GridPolicy(**{key: block[key] for key in _POLICY_KEYS if key in block})
    certificate = None
    if "certificate" in block:
        cert_path = Path(block["certificate"])
        if not cert_path.exists():
            raise InvalidInputError(f"missing certificate file: {cert_path}")
        certificate = Certificate.load(cert_path)
    result = sweep(template, h_values, eps_values, policy,
                   certificate=certificate, signs=signs, seed=seed,
                   threads=threads)
    if fit_block is not None:
        try:
            outcome = fit_models(result, candidates,
                                 eps=fit_block.get("eps"),
                                 sign=fit_block.get("sign"))
            result = type(result)(rows=result.rows, fit=outcome,
                                  bound_respected=result.bound_respected)
        except InvalidInputError as exc:
            print(f"fit skipped: {exc}", file=sys.stderr)
    write_sweep_csv(result, Path(out_dir) / "sweep.csv")
    write_summary_json(result, Path(out_dir) / "summary.json")
    write_plotdata_tsv(result, Path(out_dir) / "plotdata.tsv")
    ok = sum(1 for r in result.rows if r.status == "ok")
    print(f"sweep complete: {ok}/{len(result.rows)} rows ok"
          + ("" if result.bound_respected is None
             else f", bound_respected={result.bound_respected}"))
    if result.bound_respected is False:
        print("measured norm exceeded the certified bound", file=sys.stderr)
        return EXIT_MATH
    return EXIT_OK


def _cmd_mollify(block, out_dir):
    allowed = {"potential", "alpha", "thetas", "r_max", "points"}
    _check_keys(block, allowed, "mollify block")
    alpha = {"alpha": block["alpha"]} if "alpha" in block else {}
    model = _build_model(block.get("potential", {}), "mollify.potential", **alpha)
    thetas = block.get("thetas", [])
    if not thetas:
        raise InvalidInputError("mollify needs a nonempty theta list")
    kernel = bump_kernel()
    r = np.linspace(0.0, block.get("r_max", 10.0), block.get("points", 4001))
    lines = ["theta\terror_ratio\tderiv_ratio"]
    for theta in thetas:
        smoothed = mollify(model, kernel, theta)
        lines.append(f"{float(theta)!r}\t{smoothed.error_ratio(r)!r}"
                     f"\t{smoothed.deriv_ratio(r)!r}")
    with open(Path(out_dir) / "mollify.tsv", "w") as fh:
        fh.write("\n".join(lines) + "\n")
    print(f"wrote smoothing ratios for {len(thetas)} widths")
    return EXIT_OK


def _cmd_convert(block, out_dir):
    allowed = {"map", "class", "alpha", "radial", "lambda0", "values"}
    _check_keys(block, allowed, "convert block")
    kind = block.get("map")
    cls = block.get("class")
    values = block.get("values", [])
    if not values:
        raise InvalidInputError("convert needs a nonempty value list")
    lines = []
    if kind == "psi":
        table = psi_map(cls, values, block.get("lambda0", 1.0),
                        alpha=block.get("alpha"))
        lines.append("lambda\tpsi\th\tE")
        for lam, psi, h in zip(table.lambdas, table.psi, table.h):
            lines.append(f"{float(lam)!r}\t{float(psi)!r}\t{float(h)!r}"
                         f"\t{float(table.E)!r}")
    elif kind == "omega":
        omega = omega_map(cls, values, alpha=block.get("alpha"),
                          radial=block.get("radial", False))
        lines.append("t\tomega")
        for t, om in zip(values, omega):
            lines.append(f"{float(t)!r}\t{float(om)!r}")
    else:
        raise InvalidInputError(f"convert map must be 'psi' or 'omega', got {kind!r}")
    with open(Path(out_dir) / "convert.tsv", "w") as fh:
        fh.write("\n".join(lines) + "\n")
    print(f"wrote {len(lines) - 1} converted values")
    return EXIT_OK


_HANDLERS = {
    "certify": _cmd_certify,
    "sweep": _cmd_sweep,
    "mollify": _cmd_mollify,
    "convert": _cmd_convert,
}


def main(argv=None):
    parser = argparse.ArgumentParser(
        prog="resolvent-lab",
        description="numerical laboratory for weighted resolvent bounds")
    sub = parser.add_subparsers(dest="command", required=True)
    for name in _HANDLERS:
        p = sub.add_parser(name)
        p.add_argument("--config", required=True)
        p.add_argument("--out", default=".")
        p.add_argument("--threads", type=int,
                       default=min(8, os.cpu_count() or 1))
    args = parser.parse_args(argv)
    out_dir = None
    try:
        doc = _load_config(args.config)
        if args.command not in doc:
            raise InvalidInputError(
                f"config has no '{args.command}' block")
        seed = doc.get("seed", 2024)
        out_dir = Path(args.out)
        out_dir.mkdir(parents=True, exist_ok=True)
        block = doc[args.command]
        if args.command == "sweep":
            code = _cmd_sweep(block, out_dir, seed, max(1, args.threads))
        else:
            code = _HANDLERS[args.command](block, out_dir)
    except InvalidInputError as exc:
        print(f"invalid input: {exc}", file=sys.stderr)
        code = EXIT_INVALID
    except (SearchExhaustedError, AccuracyError, EvaluationError) as exc:
        print(f"mathematical failure: {exc}", file=sys.stderr)
        code = EXIT_MATH
    except ResolventLabError as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        code = EXIT_INTERNAL
    except Exception as exc:  # pragma: no cover - safety net
        print(f"internal error: {exc!r}", file=sys.stderr)
        code = EXIT_INTERNAL
    if out_dir is not None and out_dir.is_dir():
        _write_manifest(out_dir, args.command, seed, doc, code)
    return code


if __name__ == "__main__":
    sys.exit(main())
