"""Imaginary quadratic fields: characters, class numbers, splitting data.

A field is described by a square-free d >= 1 (the field is generated by
a square root of -d).  Attached to it are the discriminant (-d when
d % 4 == 3, else -4d), the even character modulus D (2d respectively
4d), and the quadratic character chi = Kronecker symbol of the
discriminant.  Note chi has conductor |discriminant|, which properly
divides D when d % 4 == 3, so chi can be nonzero on residues sharing a
factor with D; counts over "units mod D" below always mask by
gcd(j, D) == 1 explicitly.  kronecker itself lives in modmath and is
re-exported here.  _check_prime and _applicability are the one home of
the preconditions that every criterion checks its p against.
"""

from __future__ import annotations

import math
from functools import lru_cache
from itertools import compress
from typing import TYPE_CHECKING, NamedTuple

from .modmath import _factorize, is_probable_prime, kronecker

if TYPE_CHECKING:
    import numpy as np

__all__ = [
    "CriterionInapplicable",
    "QuadField",
    "kronecker",
    "make_field",
    "chi",
    "character_table",
    "class_number_charsum",
    "class_number_forms",
    "maximal_scan",
    "squarefree_values",
    "s_set",
    "splits",
]

FORMS_DISC_LIMIT = 10**8


def _is_squarefree(d: int) -> bool:
    return all(e == 1 for e in _factorize(d).values())


def _totient(n: int) -> int:
    out = n
    for q in _factorize(n):
        out -= out // q
    return out


class QuadField(NamedTuple):
    """Invariants of the field generated by sqrt(-d)."""

    d: int
    D: int
    discriminant: int
    h: int
    maximal: bool


def make_field(d: int) -> QuadField:
    """Build the QuadField for square-free d >= 1."""
    if d < 1:
        raise ValueError("d must be positive")
    if not _is_squarefree(d):
        raise ValueError(f"d = {d} is not square-free")
    if d % 4 == 3:
        D, disc = 2 * d, -d
    else:
        D, disc = 4 * d, -4 * d
    h = class_number_forms(disc)
    if d in (1, 3):
        maximal = True
    else:
        chi2 = kronecker(disc, 2)
        maximal = 2 * (2 - chi2) * h == _totient(D)
    return QuadField(d=d, D=D, discriminant=disc, h=h, maximal=maximal)


def chi(field: QuadField, n: int) -> int:
    """The field's quadratic character at n."""
    return kronecker(field.discriminant, n)


@lru_cache(maxsize=64)
def _chi_table(disc: int, D: int) -> np.ndarray:
    import numpy as np

    from . import _kernels

    vals = np.zeros(D, dtype=np.int64)
    if D > 1:
        vals[1] = 1
    spf = _kernels.spf_upto(D - 1)
    for q in _kernels.primes_upto(D - 1):
        vals[q] = kronecker(disc, int(q))
    _kernels._composite_fill(vals, spf, lambda a, b: a * b)
    return vals


def character_table(field: QuadField) -> np.ndarray:
    """chi on 0..D-1 as an int64 array (multiplicative fill over an spf sieve)."""
    return _chi_table(field.discriminant, field.D).copy()


def class_number_charsum(field: QuadField) -> int:
    """Class number from the character sum over lower-half units mod D.

    h = |a+ - a-| / (2 - chi(2)) with a+/- the counts of units
    0 < j < D/2 where chi(j) = +1/-1.  The divisibility is checked and
    a failure raises, since it would mean the character data is wrong.
    d in {1, 3} return 1 directly (extra roots of unity skew the count).
    """
    if field.d in (1, 3):
        return 1
    import numpy as np

    vals = _chi_table(field.discriminant, field.D)
    j = np.arange(field.D // 2, dtype=np.int64)
    unit = np.gcd(j, field.D) == 1
    a_plus = int(np.count_nonzero(unit & (vals[: field.D // 2] == 1)))
    a_minus = int(np.count_nonzero(unit & (vals[: field.D // 2] == -1)))
    num = abs(a_plus - a_minus)
    den = 2 - kronecker(field.discriminant, 2)
    if num % den:
        raise ArithmeticError(
            f"character sum {num} not divisible by {den} for d={field.d}"
        )
    return num // den


def class_number_forms(disc: int) -> int:
    """Class number of a negative discriminant by counting reduced forms.

    Counts primitive (a, b, c) with b*b - 4ac = disc, |b| <= a <= c,
    and b >= 0 when |b| = a or a = c.  Requires disc < 0, disc = 0 or 1
    mod 4, |disc| <= 10**8.
    """
    if disc >= 0:
        raise ValueError("discriminant must be negative")
    if disc % 4 not in (0, 1):
        raise ValueError("discriminant must be 0 or 1 mod 4")
    if -disc > FORMS_DISC_LIMIT:
        raise ValueError(f"|disc| > {FORMS_DISC_LIMIT}")
    count = 0
    b = disc % 2
    while 3 * b * b <= -disc:
        m4 = b * b - disc
        m = m4 // 4
        for a in range(max(b, 1), math.isqrt(m) + 1):
            if m % a:
                continue
            c = m // a
            if math.gcd(math.gcd(a, b), c) != 1:
                continue
            count += 1 if (b == 0 or b == a or a == c) else 2
        b += 2
    return count


def squarefree_values(d_bound: int) -> list[int]:
    """All square-free d with 1 <= d <= d_bound, increasing."""
    if d_bound < 1:
        return []
    flags = bytearray([1]) * (d_bound + 1)
    flags[0] = 0
    for q in range(2, math.isqrt(d_bound) + 1):
        flags[q * q :: q * q] = bytes(len(range(q * q, d_bound + 1, q * q)))
    return list(compress(range(d_bound + 1), flags))


def maximal_scan(d_bound: int) -> list[int]:
    """All square-free d <= d_bound whose field is maximal, increasing."""
    return [d for d in squarefree_values(d_bound) if make_field(d).maximal]


def s_set(i: int, D: int) -> frozenset[int]:
    """S_i(D): units j mod D with i*j landing in the lower half mod D."""
    if D < 3:
        raise ValueError("D must be at least 3")
    return frozenset(
        j
        for j in range(1, D)
        if math.gcd(j, D) == 1 and 2 * ((i * j) % D) < D
    )


def splits(field: QuadField, p: int) -> bool:
    """Whether the rational prime p splits (chi(p) = 1).  p | D raises."""
    if p < 2:
        raise ValueError("p must be prime")
    if field.D % p == 0:
        raise ValueError(f"p = {p} divides D = {field.D}")
    return kronecker(field.discriminant, p) == 1


class CriterionInapplicable(ValueError):
    """A criterion's preconditions fail for this prime (and field)."""


def _check_prime(p: int, m: int = 2) -> None:
    """CriterionInapplicable unless p is a prime = 1 (mod m), for m >= 2."""
    if m < 2:
        raise ValueError("m must be at least 2")
    if p < 3 or (p - 1) % m or not is_probable_prime(p):
        raise CriterionInapplicable(f"need a prime p = 1 (mod {m}), got {p}")


def _applicability(field: QuadField, p: int, r: int = 1) -> None:
    """CriterionInapplicable unless the lambda criteria apply at p, order r.

    They need r >= 1 and an odd prime p with p**r = 1 (mod D) that splits,
    does not divide h, and is not 3 when chi(2) = -1 with d != 3 (this
    keeps the ideal power prime to p).
    """
    _check_prime(p)
    if r < 1 or pow(p, r, field.D) != 1:
        raise CriterionInapplicable(f"p**{r} is not 1 mod D = {field.D}")
    if not splits(field, p):
        raise CriterionInapplicable(f"p = {p} is inert in the field")
    if field.h % p == 0:
        raise CriterionInapplicable(f"p = {p} divides the class number {field.h}")
    if p == 3 and field.d != 3 and chi(field, 2) == -1:
        raise CriterionInapplicable("p = 3 is excluded when chi(2) = -1")
