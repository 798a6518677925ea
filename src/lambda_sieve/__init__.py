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
    cut_point_congruence_check,
    exceptional_direct,
    exceptional_fq,
    exceptional_general,
    gauss_factorial,
    scan_exceptional,
)
from .jacobi import (
    CriterionInapplicable,
    LambdaVerdict,
    cornacchia_gold,
    jacobi_sum_mod_p2,
    lambda_criterion_jacobi,
    scan_lambda,
)
from .modmath import (
    PrimeRange,
    Residue,
    fermat_quotient,
    harmonic_mod,
    is_probable_prime,
    sieve_primes,
    teichmuller_lift,
    wilson_quotient,
)
from .pell import PellRecord, pell_implies_nontrivial, pell_search, pell_value
from .quadfields import (
    QuadField,
    character_table,
    chi,
    class_number_charsum,
    class_number_forms,
    kronecker,
    make_field,
    maximal_scan,
    s_set,
    splits,
    squarefree_values,
)
from .specialnums import (
    bernoulli_criterion,
    bernoulli_exact,
    bernoulli_poly_exact,
    euler_criterion,
    euler_exact,
    euler_mod,
    glaisher_criterion,
    glaisher_exact,
    glaisher_mod,
)
from .verify import run_checks

__version__ = "0.1.0"

__all__ = [
    "__version__",
    "Residue",
    "PrimeRange",
    "sieve_primes",
    "is_probable_prime",
    "fermat_quotient",
    "wilson_quotient",
    "harmonic_mod",
    "teichmuller_lift",
    "QuadField",
    "make_field",
    "chi",
    "character_table",
    "kronecker",
    "class_number_charsum",
    "class_number_forms",
    "maximal_scan",
    "squarefree_values",
    "s_set",
    "splits",
    "ExceptionalVerdict",
    "gauss_factorial",
    "exceptional_direct",
    "exceptional_fq",
    "exceptional_general",
    "cut_point_congruence_check",
    "scan_exceptional",
    "bernoulli_exact",
    "bernoulli_poly_exact",
    "euler_exact",
    "glaisher_exact",
    "euler_mod",
    "glaisher_mod",
    "euler_criterion",
    "glaisher_criterion",
    "bernoulli_criterion",
    "CriterionInapplicable",
    "LambdaVerdict",
    "jacobi_sum_mod_p2",
    "lambda_criterion_jacobi",
    "cornacchia_gold",
    "scan_lambda",
    "PellRecord",
    "pell_value",
    "pell_search",
    "pell_implies_nontrivial",
    "run_checks",
]
