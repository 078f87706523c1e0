"""The benchmark's tracer against the library: every name it wraps exists,
and wrapping then unwrapping leaves every module as it was.

``perfbench/tracing.py`` is loaded from its file and only read, so a
library function renamed or moved under a traced name fails here, in the
library's own suite, rather than in a traced benchmark run.
"""

import importlib.util
import sys
from pathlib import Path

import pytest

import doobkit

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


@pytest.fixture(scope="module")
def tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _modules():
    return {name: mod for name, mod in sys.modules.items() if name.split(".")[0] == "doobkit"}


def test_every_traced_name_resolves(tracing):
    missing = [
        f"{short}.{name}"
        for short, names in tracing.TRACED.items()
        for name in names
        if not callable(getattr(getattr(doobkit, short, None), name, None))
    ]
    space_cls = doobkit.space.FilteredSpace
    missing += [f"FilteredSpace.{name}" for name in tracing.SPACE_METHODS
                if name not in space_cls.__dict__]
    assert not missing


def test_install_then_uninstall_restores_every_original(tracing):
    before = {name: dict(vars(mod)) for name, mod in _modules().items()}
    methods = dict(doobkit.space.FilteredSpace.__dict__)
    tracer = tracing.Tracer()
    tracer.install({short: getattr(doobkit, short) for short in tracing.TRACED})
    try:
        assert doobkit.lp.solve is not before["doobkit.lp"]["solve"]
        assert doobkit.pricing.solve is doobkit.lp.solve is doobkit.regularity.solve
    finally:
        tracer.uninstall()
    after = {name: dict(vars(mod)) for name, mod in _modules().items()}
    assert after.keys() == before.keys()
    for name, attrs in before.items():
        changed = [a for a, v in attrs.items() if after[name].get(a) is not v]
        assert not changed, (name, changed)
    assert dict(doobkit.space.FilteredSpace.__dict__) == methods
