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


def test_criterion_inapplicable_is_one_class():
    from lambda_sieve import jacobi, quadfields

    assert lambda_sieve.CriterionInapplicable is quadfields.CriterionInapplicable
    assert jacobi.CriterionInapplicable is quadfields.CriterionInapplicable
    assert issubclass(quadfields.CriterionInapplicable, ValueError)


def test_benchmark_gate_contract():
    # the perfbench correctness gates import these names from the package
    # and read these values off them
    from lambda_sieve import cornacchia_gold, euler_exact, exceptional_direct, make_field

    assert exceptional_direct(7, 3).xi.value == 2
    assert euler_exact(4)[4] == 5
    assert cornacchia_gold(make_field(7), 19531).verdict is True
    assert cornacchia_gold(make_field(7), 29).verdict is False
