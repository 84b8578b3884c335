"""One owner for the number checks: every entry point rejects a bool, a string
and a non-finite value, naming the parameter, and the modules that take their
checks from ``errors`` need no LAPACK module to do so."""

import ast
import math
import re
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from resolvent_lab import errors
from resolvent_lab.carleman import (CarlemanConfig, Certificate, FamilySummary,
                                    GridSpec, certify, search_tau0)
from resolvent_lab.errors import InvalidConfigError, InvalidInputError
from resolvent_lab.potentials import (barrier_well, build_potential, bump_kernel,
                                      holder_bump, holder_seminorm, mollify,
                                      power_law, theta_for)
from resolvent_lab.radial import ResolventQuery
from resolvent_lab.scaling import bound_from_certificate, omega_map, psi_map, sweep

from conftest import cheap_policy

SRC = Path(errors.__file__).resolve().parent
LIPSCHITZ = CarlemanConfig.lipschitz(3.0, 0.6, 4.0, h=0.5, d=3)
HOLDER = CarlemanConfig.holder(0.5, 0.6, 4.0, 3.5, h=0.5)
# a passing certificate, as a loaded certificate.json may hold one
PASSED = Certificate(config=LIPSCHITZ, C_used=6.0, r_min=0.0,
                     families=(FamilySummary("carleman_main", 0.1, 1.0),), constants={})


def _sweep_template():
    return ResolventQuery(d=3, E=1.0, h=1.0, eps=1.0, sign=1, s=0.6,
                          potential=power_law())


# (entry point, parameter, a call taking the bad value, the error class)
ENTRY_POINTS = [
    ("CarlemanConfig", "tau0", lambda v: replace(LIPSCHITZ, tau0=v), InvalidConfigError),
    ("CarlemanConfig", "beta", lambda v: replace(LIPSCHITZ, beta=v), InvalidConfigError),
    ("CarlemanConfig.lipschitz", "beta",
     lambda v: CarlemanConfig.lipschitz(v, 0.6, 4.0, h=0.5), InvalidConfigError),
    ("CarlemanConfig", "k", lambda v: replace(LIPSCHITZ, k=v), InvalidConfigError),
    ("CarlemanConfig", "ell", lambda v: replace(LIPSCHITZ, ell=v), InvalidConfigError),
    ("CarlemanConfig", "alpha", lambda v: replace(HOLDER, alpha=v), InvalidConfigError),
    ("GridSpec", "span_factor", lambda v: GridSpec(span_factor=v), InvalidInputError),
    ("certify", "C", lambda v: certify(LIPSCHITZ, power_law().envelope, v),
     InvalidInputError),
    ("search_tau0", "tau0_max",
     lambda v: search_tau0(LIPSCHITZ, power_law().envelope, tau0_max=v),
     InvalidInputError),
    ("power_law", "c", lambda v: power_law(c=v), InvalidInputError),
    ("power_law", "delta", lambda v: power_law(delta=v), InvalidInputError),
    ("holder_bump", "c", lambda v: holder_bump(c=v), InvalidInputError),
    ("holder_bump", "alpha", lambda v: holder_bump(alpha=v), InvalidInputError),
    ("holder_bump", "freq", lambda v: holder_bump(freq=v), InvalidInputError),
    ("barrier_well", "height", lambda v: barrier_well(height=v), InvalidInputError),
    ("barrier_well", "r_well", lambda v: barrier_well(r_well=v), InvalidInputError),
    ("barrier_well", "r_barrier", lambda v: barrier_well(r_barrier=v),
     InvalidInputError),
    ("barrier_well", "smoothness", lambda v: barrier_well(smoothness=v),
     InvalidInputError),
    ("holder_seminorm", "alpha",
     lambda v: holder_seminorm(np.sin, v, 0.0, [0.0, 0.5]), InvalidInputError),
    ("holder_seminorm", "beta",
     lambda v: holder_seminorm(np.sin, 0.5, v, [0.0, 0.5]), InvalidInputError),
    ("mollify", "theta", lambda v: mollify(power_law(), bump_kernel(), v),
     InvalidInputError),
    ("theta_for", "h", lambda v: theta_for(v, 0.5), InvalidInputError),
    ("theta_for", "alpha", lambda v: theta_for(0.5, v), InvalidInputError),
    ("sweep", "h_values",
     lambda v: sweep(_sweep_template(), [v], [1e-2], cheap_policy()),
     InvalidInputError),
    ("sweep", "eps_values",
     lambda v: sweep(_sweep_template(), [0.2], [1e-2, v], cheap_policy()),
     InvalidInputError),
    ("bound_from_certificate", "h_values",
     lambda v: bound_from_certificate(PASSED, [v]), InvalidInputError),
    ("psi_map", "lambda0", lambda v: psi_map("lipschitz", [2.0], v),
     InvalidInputError),
    ("psi_map", "alpha", lambda v: psi_map("holder", [2.0], alpha=v),
     InvalidInputError),
]
# a list's entry is named by its index; a sweep's query holds a number in
# the list to its own h or eps rule
NAMES = {"h_values": r"h_values(\[0\])?|h", "eps_values": r"eps_values\[1\]|eps"}


@pytest.mark.parametrize("value", [True, "1", math.inf, math.nan],
                         ids=["True", "str", "inf", "nan"])
@pytest.mark.parametrize("entry,param,call,error", ENTRY_POINTS,
                         ids=[f"{entry}-{param}" for entry, param, _, _ in ENTRY_POINTS])
def test_every_entry_point_rejects_a_bool_a_string_and_a_non_finite_value(
        entry, param, call, error, value):
    # every parameter in the table needs a finite value
    with pytest.raises(error) as info:
        call(value)
    assert type(info.value) is error
    message = str(info.value)
    assert re.search(rf"(?<!\w)(?:{NAMES.get(param, param)})(?!\w)", message), message
    assert str(value) in message, message


def test_a_cached_model_does_not_stand_in_for_a_bool_parameter():
    build_potential("power_law", {"c": 1})
    with pytest.raises(InvalidInputError, match="^c must be a number, got True$"):
        build_potential("power_law", {"c": True})


@pytest.mark.parametrize("radial", ["yes", 1, None])
def test_omega_map_takes_radial_as_a_bool_only(radial):
    with pytest.raises(InvalidInputError, match="^radial must be True or False, got"):
        omega_map("linfty", [1e6], radial=radial)


@pytest.mark.parametrize("module", ["carleman", "potentials", "errors"])
def test_modules_without_lapack_import_neither_radial_nor_scaling_nor_scipy(module):
    tree = ast.parse((SRC / f"{module}.py").read_text())
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported |= {alias.name for alias in node.names}
        elif isinstance(node, ast.ImportFrom):  # "from . import radial" included
            prefix = "." * node.level
            imported |= ({prefix + node.module} if node.module
                         else {prefix + alias.name for alias in node.names})
    banned = {name for name in imported
              if name in (".radial", ".scaling") or name.partition(".")[0] == "scipy"}
    assert banned == set()
