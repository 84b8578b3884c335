"""Every call site the benchmark's tracer rebinds is still where it looks.

perfbench/tracing.py wraps each (owner, attribute) of its ``_targets()``
through ``owner.__dict__[attribute]``, so a renamed or deleted function
breaks a traced benchmark run and nothing else; this guard fails first.
"""

import importlib.util
from pathlib import Path

import pytest

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def _targets():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module._targets()


TARGETS = _targets()


def test_targets_are_found():
    assert TARGETS


@pytest.mark.parametrize("owner,attr", [target[:2] for target in TARGETS],
                         ids=[f"{target[0].__name__}.{target[1]}" for target in TARGETS])
def test_traced_attribute_is_in_its_owners_dict(owner, attr):
    assert callable(owner.__dict__[attr])
