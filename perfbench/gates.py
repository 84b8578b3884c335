"""Correctness gates: invariants every workload's outputs must satisfy.

The gates check invariants, not stored values of g, so a change that moves
g for a sound reason (for example a different boundary treatment) still
passes.  Each gate returns a list of ``(op, message)`` failures, where
``op`` names the operation the failure is charged to; ``None`` charges the
whole pass.
"""

from __future__ import annotations

import math

RESIDUAL_TOL = 1e-6
SIGN_PAIR_TOL = 1e-8
EPS_MONOTONE_TOL = 1e-6
ORACLE_REL_TOL = 1e-6
AUDIT_INTEGRAL_TOL = 1e-6


def row_op(row):
    return f"h={row['h']!r} eps={row['eps']!r} sign={row['sign']:+d}"


def rows_ok(rows):
    """Every sweep row succeeded with a finite g."""
    return [(row_op(r), f"row status {r['status']!r}") for r in rows
            if r["status"] != "ok" or r["g"] is None or not math.isfinite(r["g"])]


def residual_ok(residual_max, op=None):
    """The power iteration converged to the residual the library promises."""
    if residual_max is None or residual_max <= RESIDUAL_TOL:
        return []
    return [(op, f"residual {residual_max:.3g} exceeds {RESIDUAL_TOL:g}")]


def sign_pairs_agree(rows):
    """The + and - rows of one (h, eps) measure the same norm."""
    by_key = {}
    for r in rows:
        if r["status"] == "ok":
            by_key.setdefault((r["h"], r["eps"]), {})[r["sign"]] = r
    failures = []
    for pair in by_key.values():
        if 1 in pair and -1 in pair:
            gap = abs(pair[1]["g"] - pair[-1]["g"])
            if not gap <= SIGN_PAIR_TOL:
                failures.append((row_op(pair[-1]),
                                 f"sign pair differs by {gap:.3g}"))
    return failures


def eps_monotone(rows):
    """At each h and sign, g does not drop as eps decreases."""
    groups = {}
    for r in rows:
        if r["status"] == "ok":
            groups.setdefault((r["h"], r["sign"]), []).append(r)
    failures = []
    for group in groups.values():
        group.sort(key=lambda r: r["eps"], reverse=True)
        for larger, smaller in zip(group, group[1:]):
            if smaller["g"] < larger["g"] - EPS_MONOTONE_TOL:
                failures.append((row_op(smaller),
                                 f"g={smaller['g']!r} below g={larger['g']!r} "
                                 f"at eps={larger['eps']!r}"))
    return failures


def cli_ok(exit_code, bound_respected, op=None):
    """The CLI sweep exited 0 and every row stayed under the certified bound."""
    failures = []
    if exit_code != 0:
        failures.append((op, f"exit code {exit_code}"))
    if bound_respected is not True:
        failures.append((op, f"bound_respected={bound_respected!r}"))
    return failures


def certificate_ok(passed, margins, op=None):
    """A certificate passed and none of its family margins is negative."""
    failures = []
    if passed is not True:
        failures.append((op, "certificate did not pass"))
    negative = [m for m in margins if not m >= 0.0]
    if negative:
        failures.append((op, f"{len(negative)} negative margins, "
                             f"worst {min(negative)!r}"))
    return failures


def oracle_agrees(dense, power, op=None):
    """Power-iteration norm matches the dense singular-value oracle."""
    rel = abs(power - dense) / dense
    if rel <= ORACLE_REL_TOL:
        return []
    return [(op, f"oracle mismatch {rel:.3g} (dense {dense!r}, power {power!r})")]


def audit_ok(flux_residuals, tolerance, integral_rel, op=None):
    """Flux residuals clear -tol pointwise and the integral identity holds."""
    failures = []
    below = int((flux_residuals < -tolerance).sum())
    if below:
        failures.append((op, f"{below} flux residuals below -tol"))
    if not integral_rel <= AUDIT_INTEGRAL_TOL:
        failures.append((op, f"integral identity off by {integral_rel:.3g}"))
    return failures
