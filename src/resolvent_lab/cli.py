"""Command-line harness.

Subcommands (each takes --config <path> and --out <dir>):

    certify   search for an admissible phase amplitude and write certificate.json
    sweep     measure g over an (h, eps, sign) grid; write sweep.csv,
              summary.json and plotdata.tsv
    mollify   tabulate smoothing-error ratios against theta
    convert   tabulate the frequency map psi(lambda) or decay map omega(t)

The config is one JSON document with one block per subcommand and an
optional integer "seed".  Every block it contains is checked before the
command runs, and a key the block leaves out takes the library's default.
A run first removes its command's artifacts and manifest.json, except the
file --config names, and once the config loads writes manifest.json last,
which reproduces the run when given as --config.

Exit codes: 0 success, 1 invalid input (also a command-line usage error),
2 mathematical failure (search exhausted or bound violated), 3 internal
error.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from dataclasses import asdict, replace
from pathlib import Path

import numpy as np
import scipy

from . import __version__
from .carleman import (HOLDER, LIPSCHITZ, TAU0_START, CarlemanConfig,
                       Certificate, GridSpec, recommended_audit_constant,
                       search_tau0, search_tau0_with_fallback)
from .errors import (AccuracyError, EvaluationError, InvalidInputError,
                     ResolventLabError, SearchExhaustedError)
from .potentials import bump_kernel, build_potential, mollify
from .radial import SEED, ResolventQuery
from .scaling import LINF, GridPolicy, fit_models, omega_map, psi_map, sweep

EXIT_OK = 0
EXIT_INVALID = 1
EXIT_MATH = 2
EXIT_INTERNAL = 3


def _is_number(value):
    """A finite JSON number; json.load reads NaN and Infinity as floats."""
    if isinstance(value, float):
        return math.isfinite(value)
    return isinstance(value, int) and not isinstance(value, bool)


def _is_candidate(value):
    return (isinstance(value, list) and len(value) in (1, 2)
            and isinstance(value[0], str) and all(map(_is_number, value[1:])))


# The JSON type of each config value, by the name messages and the README use.
_JSON_TYPES = {
    "a number": _is_number,
    "an integer": lambda v: isinstance(v, int) and not isinstance(v, bool),
    "a string": lambda v: isinstance(v, str),
    "a boolean": lambda v: isinstance(v, bool),
    "an object of numbers": lambda v: (isinstance(v, dict)
                                       and all(map(_is_number, v.values()))),
    "a nonempty list of numbers": lambda v: (isinstance(v, list) and v != []
                                             and all(map(_is_number, v))),
    "a nonempty list of '+' and '-'": lambda v: (
        isinstance(v, list) and v != [] and all(x in ("+", "-") for x in v)),
    "a nonempty list of [class] or [class, alpha] lists": lambda v: (
        isinstance(v, list) and v != [] and all(map(_is_candidate, v))),
    'a number or "auto"': lambda v: v == "auto" or _is_number(v),
}

# Allowed keys and their types, per block; a nested table is the key table of
# a nested object.  A key the config leaves out is not passed on, so its
# default is the library's; the README lists them.
_POTENTIAL_KEYS = {"name": "a string", "params": "an object of numbers"}
_GRID_KEYS = {"points_per_decade": "an integer", "span_factor": "a number"}
_CERTIFY_KEYS = {
    "regularity": "a string", "alpha": "a number", "beta": "a number",
    "k": "a number", "s": "a number", "ell": "a number", "E": "a number",
    "h": "a number", "d": "an integer", "C": 'a number or "auto"',
    "tau0_max": "a number", "potential": _POTENTIAL_KEYS, "grid": _GRID_KEYS,
    "r_min": "a number",
}
_POLICY_KEYS = {"tail_tol": "a number", "dr_factor": "a number",
                "l_max": "an integer", "r_min": "a number", "r_max_floor": "a number"}
_FIT_KEYS = {"candidates": "a nonempty list of [class] or [class, alpha] lists",
             "eps": "a number"}
_SWEEP_KEYS = {
    "d": "an integer", "E": "a number", "s": "a number",
    "potential": _POTENTIAL_KEYS, "h_values": "a nonempty list of numbers",
    "eps_values": "a nonempty list of numbers", "signs": "a nonempty list of '+' and '-'",
    "certificate": "a string", "fit": _FIT_KEYS, **_POLICY_KEYS,
}
_MOLLIFY_KEYS = {"potential": _POTENTIAL_KEYS, "alpha": "a number",
                 "thetas": "a nonempty list of numbers", "r_max": "a number",
                 "points": "an integer"}
_CONVERT_KEYS = {"map": "a string", "class": "a string", "alpha": "a number",
                 "radial": "a boolean", "lambda0": "a number",
                 "values": "a nonempty list of numbers"}
_BLOCK_KEYS = {"certify": _CERTIFY_KEYS, "sweep": _SWEEP_KEYS,
               "mollify": _MOLLIFY_KEYS, "convert": _CONVERT_KEYS}
# Required keys, by the dotted path of their block.
_REQUIRED = {"certify": ("regularity", "s", "h"), "sweep": ("s", "h_values"),
             "sweep.fit": ("candidates",), "mollify": ("thetas",),
             "convert": ("map", "class", "values")}
# Per command: each key that selects a variant, and for each variant the keys
# it requires and the keys that do not apply to it.
_VARIANTS = {
    "certify": (("regularity", {LIPSCHITZ: (("beta",), ("alpha", "k")),
                                HOLDER: ((), ("beta",))}),),
    "convert": (("map", {"psi": ((), ("radial",)), "omega": ((), ("lambda0",))}),
                ("class", {LIPSCHITZ: ((), ("alpha",)), HOLDER: (("alpha",), ()),
                           LINF: ((), ("alpha",))})),
}
# The files each command writes besides manifest.json; a run first removes
# them and manifest.json, so a failed run leaves none of an earlier run's behind.
_ARTIFACTS = {"certify": ("certificate.json",),
              "sweep": ("sweep.csv", "summary.json", "plotdata.tsv"),
              "mollify": ("mollify.tsv",), "convert": ("convert.tsv",)}


def _check_keys(block, types, where):
    """Reject a non-object block and unknown, missing or wrongly typed keys.

    ``where`` is the block's dotted path in the config; ``types`` maps each
    allowed key to its JSON type, to the key table of a nested object, which
    is checked in turn, or to None for a command block, which _check_block
    checks.  Messages call a command block "<command> block".
    """
    name = f"{where} block" if where in _BLOCK_KEYS else where
    if not isinstance(block, dict):
        raise InvalidInputError(
            f"{name} must be a JSON object, got {type(block).__name__}")
    unknown = set(block) - set(types)
    if unknown:
        raise InvalidInputError(
            f"unknown keys in {name}: {', '.join(sorted(unknown))}")
    missing = [key for key in _REQUIRED.get(where, ()) if key not in block]
    if missing:
        raise InvalidInputError(f"{name} needs '{missing[0]}'")
    for key, value in block.items():
        kind = types[key]
        if isinstance(kind, dict):
            _check_keys(value, kind, f"{where}.{key}")
        elif kind is not None and not _JSON_TYPES[kind](value):
            raise InvalidInputError(f"{where}.{key} must be {kind}, got {value!r}")


def _check_block(command, block):
    """Check a command block's keys and types and those of its variants."""
    _check_keys(block, _BLOCK_KEYS[command], command)
    for selector, variants in _VARIANTS.get(command, ()):
        variant = block[selector]
        if variant not in variants:
            raise InvalidInputError(
                f"{command} {selector} must be "
                f"{' or '.join(map(repr, variants))}, got {variant!r}")
        required, excluded = variants[variant]
        for key in required:
            if key not in block:
                raise InvalidInputError(f"{command} block needs '{key}'")
        for key in excluded:
            if key in block:
                raise InvalidInputError(
                    f"{command}.{key} does not apply to {selector} {variant!r}")


def _given(block, keys):
    """The entries of ``block`` among ``keys``: only what the config states."""
    return {key: block[key] for key in keys if key in block}


def _load_config(path, command):
    """The checked config document, which must have a block for ``command``."""
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
    _check_keys(doc, {"seed": "an integer", **dict.fromkeys(_BLOCK_KEYS)}, "config")
    for name, block in doc.items():
        if name in _BLOCK_KEYS:
            _check_block(name, block)
    if command not in doc:
        raise InvalidInputError(f"config has no '{command}' block")
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


def _build_model(block, **extra_params):
    """The block's potential; what it leaves out takes build_potential's defaults."""
    spec = block.get("potential", {})
    if extra_params:
        spec = dict(spec, params=dict(spec.get("params") or {}, **extra_params))
    return build_potential(**spec)


def _certify_template(block, model):
    """The search template; keys the block leaves out take the library's defaults."""
    kw = _given(block, ("ell", "d", "k", "E"))
    if block["regularity"] == LIPSCHITZ:
        return CarlemanConfig.lipschitz(block["beta"], block["s"], TAU0_START,
                                        h=block["h"], **kw)
    return CarlemanConfig.holder(block.get("alpha", model.alpha), block["s"],
                                 TAU0_START, h=block["h"], **kw)


def _cmd_certify(block, out_dir):
    model = _build_model(block)
    template = _certify_template(block, model)
    search_kw = _given(block, ("C", "tau0_max", "r_min"))
    if search_kw.get("C") == "auto":
        search_kw["C"] = recommended_audit_constant(model)
    if "grid" in block:
        search_kw["grid_spec"] = GridSpec(**block["grid"])
    try:
        if template.d == 2 and template.regularity == HOLDER:
            cert, fellback = search_tau0_with_fallback(
                template, model.envelope, **search_kw)
            if fellback:
                print("steep weight rejected; certified with the shallow pair "
                      "(k, k0) = (1/2, 0)")
        else:
            cert = search_tau0(template, model.envelope, **search_kw)
    except SearchExhaustedError as exc:
        print(f"certification failed: {exc}", file=sys.stderr)
        return EXIT_MATH
    if template.regularity == HOLDER:
        kernel = bump_kernel()
        cert = replace(cert, constants=dict(cert.constants, mollifier={
            "holder_const": model.holder_const,
            "moment_alpha": kernel.moment_alpha(template.alpha),
            "moment_alpha_deriv": kernel.moment_alpha_deriv(template.alpha)}))
    cert.save(Path(out_dir) / "certificate.json")
    worst = cert.worst()
    print(f"certified tau0={cert.tau0_found:g} C={cert.C_used:g} "
          f"worst margin {worst.min_margin:.6g} ({worst.name} at "
          f"r={worst.argmin_r:.6g})")
    return EXIT_OK


def _fmt(value):
    return "" if value is None else repr(float(value))


def write_sweep_csv(result, path):
    lines = ["h,eps,sign,g_measured,g_bound,sectors,lmax,runtime_ms,status,"
             "matvecs,residual,r_max,tail"]
    for row in result.rows:
        sign = "+" if row.sign > 0 else "-"
        status = "ok" if row.status == "ok" else "failed"
        lines.append(",".join([
            repr(row.h), repr(row.eps), sign, _fmt(row.g_measured),
            _fmt(row.g_bound), str(row.sectors), str(row.l_max),
            f"{row.runtime_ms:.3f}", status, str(row.matvecs),
            _fmt(row.residual), _fmt(row.r_max), _fmt(row.tail)]))
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


def write_summary_json(result, fit, path):
    """The rows, the bound verdict and ``fit``, a FitOutcome or None for no fit block."""
    doc = {
        "rows": [
            {"h": row.h, "eps": row.eps, "sign": row.sign,
             "g_measured": row.g_measured, "g_bound": row.g_bound,
             "sectors": row.sectors, "lmax": row.l_max, "status": row.status,
             "matvecs": row.matvecs, "residual": row.residual,
             "r_max": row.r_max, "tail": row.tail}
            for row in result.rows
        ],
        "bound_respected": result.bound_respected,
        "fit": None,
    }
    if fit is not None:
        doc["fit"] = {
            "best": None if fit.best is None else {
                key: value for key, value in asdict(fit.best).items()
                if key != "degenerate"},
            "candidates": [asdict(f) for f in fit.fits],
            "degenerate": fit.degenerate,
            "eps": fit.eps,
        }
    with open(path, "w") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True)
        fh.write("\n")


def write_plotdata_tsv(result, path):
    """One g_measured series per eps, in ascending eps, then the g_bound series."""
    blocks = []
    for eps, by_h in sorted(result.curves.items()):
        body = "\n".join(f"{h!r}\t{g!r}" for h, g in by_h.items())
        blocks.append(f"# series: g_measured eps={eps!r}\n" + body)
    bound_pairs = sorted({(row.h, row.g_bound) for row in result.rows
                          if row.g_bound is not None}, reverse=True)
    if bound_pairs:
        body = "\n".join(f"{h!r}\t{g!r}" for h, g in bound_pairs)
        blocks.append("# series: g_bound\n" + body)
    with open(path, "w") as fh:
        fh.write("\n\n".join(blocks) + "\n")


def _cmd_sweep(block, out_dir, **run_kw):
    """Sweep the block; ``run_kw`` holds the seed and threads when given."""
    model = _build_model(block)
    template = ResolventQuery(h=1.0, eps=1.0, sign=1, s=block["s"],
                              potential=model, **_given(block, ("d", "E")))
    for key, field in (("h_values", "h"), ("eps_values", "eps")):
        for value in block.get(key, ()):
            try:  # ResolventQuery's own range check, named by the block's key
                replace(template, **{field: value})
            except InvalidInputError as exc:
                raise InvalidInputError(f"sweep.{key}: {exc}") from None
    sweep_kw = _given(block, ("eps_values",))
    if "signs" in block:
        sweep_kw["signs"] = tuple(1 if sign == "+" else -1 for sign in block["signs"])
    if "certificate" in block:
        try:
            sweep_kw["certificate"] = Certificate.load(block["certificate"])
        except (OSError, ValueError, KeyError, TypeError) as exc:
            raise InvalidInputError(
                f"sweep.certificate {block['certificate']!r} is not a readable "
                f"certificate: {exc!r}")
    policy = GridPolicy(**_given(block, _POLICY_KEYS))
    result = sweep(template, block["h_values"], grid_policy=policy,
                   **sweep_kw, **run_kw)
    outcome = None
    if "fit" in block:
        fit_block = block["fit"]
        candidates = [tuple(c) if len(c) > 1 else c[0]
                      for c in fit_block["candidates"]]
        try:
            outcome = fit_models(result, candidates,
                                 **_given(fit_block, ("eps",)))
        except InvalidInputError as exc:
            print(f"fit skipped: {exc}", file=sys.stderr)
        else:
            best = outcome.best
            if best is None:
                print("fit: no growth")
            else:
                alpha = "" if best.alpha is None else f" {best.alpha:g}"
                print(f"fit: {best.kind}{alpha} C={best.C:.6g}")
    write_sweep_csv(result, Path(out_dir) / "sweep.csv")
    write_summary_json(result, outcome, Path(out_dir) / "summary.json")
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
    model = _build_model(block, **_given(block, ("alpha",)))
    thetas = block["thetas"]
    points, r_max = block.get("points", 4001), block.get("r_max", 10.0)
    if points < 1:
        raise InvalidInputError(f"mollify.points must be positive, got {points}")
    if not r_max > 0:
        raise InvalidInputError(f"mollify.r_max must be positive, got {r_max}")
    kernel = bump_kernel()
    r = np.linspace(0.0, r_max, points)
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
    kind, cls, values = block["map"], block["class"], block["values"]
    lines = []
    if kind == "psi":
        table = psi_map(cls, values, **_given(block, ("lambda0", "alpha")))
        lines.append("lambda\tpsi\th\tE")
        for lam, psi, h in zip(table.lambdas, table.psi, table.h):
            lines.append(f"{float(lam)!r}\t{float(psi)!r}\t{float(h)!r}"
                         f"\t{float(table.E)!r}")
    else:
        omega = omega_map(cls, values, **_given(block, ("alpha", "radial")))
        lines.append("t\tomega")
        for t, om in zip(values, omega):
            lines.append(f"{float(t)!r}\t{float(om)!r}")
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
        description="numerical laboratory for weighted resolvent norms")
    sub = parser.add_subparsers(dest="command", required=True)
    for name in _HANDLERS:
        p = sub.add_parser(name)
        p.add_argument("--config", required=True)
        p.add_argument("--out", default=".")
        if name == "sweep":
            p.add_argument("--threads", type=int,
                           help="sector worker threads (default: potentials.THREADS)")
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse exits 2 on a usage error, 0 after --help
        return EXIT_INVALID if exc.code else EXIT_OK
    out_dir, doc = Path(args.out), None
    try:
        if any(p.exists() and not p.is_dir() for p in (out_dir, *out_dir.parents)):
            raise InvalidInputError(f"--out {args.out!r} is not a directory")
        # before the config loads, so that no failed run leaves an earlier
        # run's outputs behind; the config may be the manifest in --out
        config_path = Path(args.config).resolve()
        for name in (*_ARTIFACTS[args.command], "manifest.json"):
            if (out_dir / name).resolve() != config_path:
                (out_dir / name).unlink(missing_ok=True)
        doc = _load_config(args.config, args.command)
        out_dir.mkdir(parents=True, exist_ok=True)
        block = doc[args.command]
        if args.command == "sweep":
            run_kw = _given(doc, ("seed",))
            if args.threads is not None:
                run_kw["threads"] = args.threads
            code = _cmd_sweep(block, out_dir, **run_kw)
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
    if doc is not None and out_dir.is_dir():
        _write_manifest(out_dir, args.command, doc.get("seed", SEED), doc, code)
    return code


if __name__ == "__main__":
    sys.exit(main())
