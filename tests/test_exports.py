import importlib
import pkgutil

import pytest

import lambda_sieve

MODULES = sorted(m.name for m in pkgutil.iter_modules(lambda_sieve.__path__))


@pytest.mark.parametrize("name", MODULES)
def test_module_exports_resolve(name):
    mod = importlib.import_module(f"lambda_sieve.{name}")
    assert [n for n in getattr(mod, "__all__", []) if not hasattr(mod, n)] == []


def test_package_exports_resolve():
    assert "modmath" in MODULES
    assert [n for n in lambda_sieve.__all__ if not hasattr(lambda_sieve, n)] == []
