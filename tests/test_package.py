import importlib
import pkgutil

import pytest

import collusion_audit

MODULES = sorted(m.name for m in pkgutil.iter_modules(collusion_audit.__path__))


@pytest.mark.parametrize("name", MODULES)
def test_every_export_exists(name):
    # the span tracer of the benchmark reads every __all__ name with getattr
    module = importlib.import_module(f"collusion_audit.{name}")
    assert [n for n in getattr(module, "__all__", ()) if not hasattr(module, n)] == []
