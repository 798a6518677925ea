"""Detection of non-trivial primes of imaginary quadratic fields.

The library decides, along several independent routes, whether a split
prime p has lambda invariant above one for a chosen field: a Jacobi-sum
criterion, a Gauss-factorial power test with a Fermat-quotient shortcut,
a fundamental-unit test for class number one, and special-number
criteria through Euler and Glaisher sequences.  The routes cross-check
each other; `verify.run_checks` exercises the whole web of identities.

pell (with its process pool) and verify load on first use: the names
this package takes from them resolve through the module __getattr__
(PEP 562).
"""

from .gaussfact import (
    ExceptionalVerdict,
    exceptional_direct,
    exceptional_fq,
    scan_exceptional,
)
from .jacobi import (
    CriterionInapplicable,
    LambdaVerdict,
    cornacchia_gold,
    lambda_criterion_jacobi,
)
from .quadfields import QuadField, make_field
from .specialnums import euler_criterion, euler_exact, glaisher_criterion

__version__ = "0.1.0"

# README's Library routes, the independent routes the benchmark's gates check
# them against, the result and error types; every other name is imported from
# its module
__all__ = [
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
]


def __getattr__(name: str):
    if name in ("PellRecord", "pell_search", "pell_implies_nontrivial"):
        from . import pell as module
    elif name == "run_checks":
        from . import verify as module
    else:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(module, name)
