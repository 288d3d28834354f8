"""The benchmark's tracer rebinds hkforge functions by name; a rename in the
package must fail here, not only in the benchmark's own tests."""

import importlib.util
import pathlib

import pytest

TRACING = pathlib.Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


def _load_tracing():
    spec = importlib.util.spec_from_file_location("_hkforge_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


TARGETS = _load_tracing().TARGETS


@pytest.mark.parametrize(
    "owner,attr", [target[:2] for target in TARGETS], ids=[target[2] for target in TARGETS]
)
def test_every_traced_name_resolves(owner, attr):
    assert callable(vars(owner).get(attr)), f"{owner.__name__}.{attr} is gone"
