import importlib
import importlib.util
import pkgutil
import re
from pathlib import Path

import pytest

import lambda_sieve

MODULES = sorted(m.name for m in pkgutil.iter_modules(lambda_sieve.__path__))


@pytest.mark.parametrize("name", MODULES)
def test_module_exports_resolve(name):
    mod = importlib.import_module(f"lambda_sieve.{name}")
    assert [n for n in getattr(mod, "__all__", []) if not hasattr(mod, n)] == []


# README's Library routes, the names the benchmark's gates import, the result
# and error types, and run_checks; everything else comes from its module
PACKAGE_EXPORTS = {
    "__version__",
    "exceptional_fq",
    "scan_exceptional",
    "lambda_criterion_jacobi",
    "make_field",
    "euler_criterion",
    "glaisher_criterion",
    "pell_search",
    "pell_implies_nontrivial",
    "exceptional_direct",
    "cornacchia_gold",
    "euler_exact",
    "QuadField",
    "ExceptionalVerdict",
    "LambdaVerdict",
    "PellRecord",
    "CriterionInapplicable",
    "run_checks",
}


def test_package_exports_resolve():
    assert "modmath" in MODULES
    assert [n for n in lambda_sieve.__all__ if not hasattr(lambda_sieve, n)] == []
    assert len(lambda_sieve.__all__) == len(PACKAGE_EXPORTS)
    assert set(lambda_sieve.__all__) == PACKAGE_EXPORTS


def test_readme_library_imports_are_exported():
    readme = (Path(__file__).parents[1] / "README.md").read_text()
    block = readme.split("## Library", 1)[1].split("```python", 1)[1].split("```", 1)[0]
    names = re.search(r"from lambda_sieve import \(([^)]*)\)", block).group(1)
    imported = {n.strip() for n in names.split(",") if n.strip()}
    assert len(imported) == 8
    assert imported <= set(lambda_sieve.__all__)


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


def test_tracer_contract():
    # perfbench/tracer.py looks up each TARGETS name with getattr and calls
    # next() on what sieve_primes returns; a missing name stops --trace 1
    path = Path(__file__).parents[1] / "perfbench" / "tracer.py"
    spec = importlib.util.spec_from_file_location("perfbench_tracer", path)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    missing = [
        (module, attr)
        for module, attr, _, _ in tracer.TARGETS
        if not hasattr(importlib.import_module(f"lambda_sieve.{module}"), attr)
    ]
    assert missing == []
    from lambda_sieve.modmath import sieve_primes

    x = sieve_primes(3, 10)
    assert iter(x) is x
