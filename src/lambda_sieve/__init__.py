"""Detection of non-trivial primes of imaginary quadratic fields.

The library decides, along several independent routes, whether a split
prime p has lambda invariant above one for a chosen field: a Jacobi-sum
criterion, a Gauss-factorial power test with a Fermat-quotient shortcut,
a fundamental-unit test for class number one, and special-number
criteria through Euler and Glaisher sequences.  The routes cross-check
each other; `verify.run_checks` exercises the whole web of identities.
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
from .pell import PellRecord, pell_implies_nontrivial, pell_search
from .quadfields import QuadField, make_field
from .specialnums import euler_criterion, euler_exact, glaisher_criterion
from .verify import run_checks

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
