import concurrent.futures
import importlib
import importlib.util
import pickle
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
    # the tracer swaps this module global for its counting pool; fan_out
    # must look it up there, not import it where it runs
    from lambda_sieve import pell

    assert pell.ProcessPoolExecutor is concurrent.futures.ProcessPoolExecutor
    # the names the package resolves on first access, importing pell and verify
    for name in ("PellRecord", "pell_search", "pell_implies_nontrivial", "run_checks"):
        assert hasattr(lambda_sieve, name), name
    assert not hasattr(lambda_sieve, "fan_out")


def _result_instances():
    from lambda_sieve.modmath import Residue
    from lambda_sieve.pell import PellRecord
    from lambda_sieve.verify import CheckResult

    field = lambda_sieve.make_field(5)
    return [
        (Residue(-1, 7), "Residue(6, mod 7)"),
        (
            lambda_sieve.exceptional_fq(7, 3),
            "ExceptionalVerdict(p=7, m=3, alpha=1, xi=Residue(2, mod 7))",
        ),
        (field, "QuadField(d=5, D=20, discriminant=-20, h=2, maximal=True)"),
        (
            lambda_sieve.lambda_criterion_jacobi(field, 41),
            "LambdaVerdict(field=QuadField(d=5, D=20, discriminant=-20, h=2,"
            " maximal=True), p=41, method='jacobi', criterion_value=1149)",
        ),
        (
            PellRecord(q=5, p_candidate=181, digits=3, status="prime_proven_small", x=104),
            "PellRecord(q=5, p_candidate=181, digits=3, status='prime_proven_small',"
            " x=104)",
        ),
        (
            CheckResult("teichmuller-lift", "modmath", True, "p<=97", 0.25),
            "CheckResult(name='teichmuller-lift', group='modmath', ok=True,"
            " detail='p<=97', elapsed=0.25)",
        ),
    ]


@pytest.mark.parametrize("index", range(6))
def test_result_types(index):
    # the six result types are NamedTuples with the reprs they had as frozen
    # dataclasses; PellRecord crosses the process pool, so they must pickle
    obj, text = _result_instances()[index]
    assert isinstance(obj, tuple)
    assert repr(obj) == text
    back = pickle.loads(pickle.dumps(obj))
    assert back == obj and type(back) is type(obj) and hash(back) == hash(obj)
    with pytest.raises(AttributeError):
        setattr(obj, obj._fields[0], obj[0])
    with pytest.raises(AttributeError):
        obj.extra = 1
