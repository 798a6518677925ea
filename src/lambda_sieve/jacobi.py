"""Jacobi-sum and quadratic-form routes to the lambda criterion.

For a split prime p = 1 (mod D) the unit whose (p-1)-st power decides
lambda_p > 1 can be assembled from Jacobi sums of the order-D character
psi = omega**((p-1)/D), where omega is the Teichmuller lift mod p**2.
With this sign choice J(psi**-i) is a p-adic unit for 0 < i < D/2 and
equals minus the Gauss-factorial ratio used in gaussfact._ratio_factor
(checked exactly by the verification suite); the opposite sign would
put the p-divisible conjugate there instead.  The sign was fixed by
that numeric pinning and is wired through _PSI_SIGN so tests can flip
it and watch the oracle-equivalence checks fail.

An independent route needs no characters at all, and is the one the
scan runs: Gold's criterion (R. Gold, J. Number Theory 6, 1974).  For
a split p not dividing the class number h, one Cornacchia routine
writes p**h (or 4p**h) as x**2 + d y**2, which gives a generator of
P**h for a prime P over p, and its trace T alone gives the criterion
value, u**(p-1) = 1 + p (q_p(T) + [h = 1] T**-2) (mod p**2).  That is a
few modular operations per prime; scan_lambda applies it to every
prime of the range, and lambda_criterion_jacobi stays as its oracle.
"""

from __future__ import annotations

import math
from functools import lru_cache
from typing import TYPE_CHECKING, NamedTuple

from .modmath import sieve_primes
from .quadfields import (
    CriterionInapplicable,
    QuadField,
    _applicability,
    _check_prime,
    chi,
    splits,
)

if TYPE_CHECKING:
    import numpy as np

__all__ = [
    "CriterionInapplicable",
    "LambdaVerdict",
    "jacobi_sum_mod_p2",
    "lambda_criterion_jacobi",
    "cornacchia_gold",
    "scan_lambda",
]

# Character sign seam: +1 is the convention validated against the
# Gauss-factorial ratio; -1 exists only so tests can inject the fault.
_PSI_SIGN = 1


class LambdaVerdict(NamedTuple):
    """Outcome of one lambda test: verdict true means lambda_p > 1.

    criterion_value is the (p-1)-st power of the criterion unit mod
    p**2, an int in [0, p**2); verdict is read off it: criterion_value = 1.
    """

    field: QuadField
    p: int
    method: str
    criterion_value: int

    @property
    def verdict(self) -> bool:
        return self.criterion_value == 1


@lru_cache(maxsize=8)
def _omega_table(p: int) -> np.ndarray:
    """omega(a) = a**p mod p**2 for a = 0..p-1 (entry 0 stays 0)."""
    import numpy as np

    from . import _kernels

    return _kernels.powmod(np.arange(p, dtype=np.int64), p, p * p)


def _psi_power(p: int, D: int, i: int) -> np.ndarray:
    """psi**i tabulated on 0..p-1, with psi = omega**(_PSI_SIGN*(p-1)/D)."""
    from . import _kernels

    e = (_PSI_SIGN * i * ((p - 1) // D)) % (p - 1)
    return _kernels.powmod(_omega_table(p), e, p * p)


def jacobi_sum_mod_p2(p: int, D: int, i: int) -> int:
    """J(psi**i) = sum over a of psi**i(a) psi**i(1-a), mod p**2.

    An int in [0, p**2).  Requires a prime p = 1 (mod D), checked by
    quadfields._check_prime, and gcd(i, D) = 1.  The entries a = 0, 1
    give no contribution (the character vanishes at 0).  Exact for
    p**2 < 2**61, the range of _kernels.mulmod, which raises above it.
    """
    _check_prime(p, D)
    if math.gcd(i, D) != 1:
        raise ValueError("need gcd(i, D) = 1")
    from . import _kernels

    p2 = p * p
    t = _psi_power(p, D, i % D)
    x = t[2:p]
    y = x[::-1]  # index p + 1 - a runs back down over the same slice
    total = 0
    step = (1 << 62) // p2  # each chunk's int64 sum stays below 2**62
    for lo in range(0, x.size, step):
        part = _kernels.mulmod(x[lo : lo + step], y[lo : lo + step], p2)
        total = (total + int(part.sum())) % p2
    return total


def lambda_criterion_jacobi(field: QuadField, p: int) -> LambdaVerdict:
    """Jacobi-sum criterion for lambda_p > 1 at a split prime p = 1 (mod D).

    Maximal fields need the single unit J(psi**-1); otherwise the
    criterion unit is the product of J(psi**-i)**chi(i) over the units
    0 < i < D/2.  Either way the verdict is whether its (p-1)-st power
    is 1 mod p**2.
    """
    _applicability(field, p)
    D = field.D
    p2 = p * p
    if field.maximal:
        u = jacobi_sum_mod_p2(p, D, -1)
    else:
        u = 1
        for i in range(1, D // 2):
            if math.gcd(i, D) == 1:
                u = u * pow(jacobi_sum_mod_p2(p, D, -i), chi(field, i), p2) % p2
    return LambdaVerdict(field, p, "jacobi", pow(u, p - 1, p2))


def _sqrt_mod_prime(a: int, p: int) -> int | None:
    """A square root of a mod p (Tonelli-Shanks), or None."""
    a %= p
    if a == 0:
        return 0
    if pow(a, (p - 1) // 2, p) != 1:
        return None
    if p % 4 == 3:
        return pow(a, (p + 1) // 4, p)
    # write p - 1 = q * 2^s with q odd
    q, s = p - 1, 0
    while q % 2 == 0:
        q //= 2
        s += 1
    z = 2
    while pow(z, (p - 1) // 2, p) != p - 1:
        z += 1
    m, c, t, r = s, pow(z, q, p), pow(a, q, p), pow(a, (q + 1) // 2, p)
    while t != 1:
        t2, i = t * t % p, 1
        while t2 != 1:
            t2 = t2 * t2 % p
            i += 1
        b = pow(c, 1 << (m - i - 1), p)
        m, c = i, b * b % p
        t, r = t * c % p, r * b % p
    return r


def _cornacchia(
    d: int, p: int, h: int, root: int | None = None
) -> tuple[int, int] | None:
    """Solve x**2 + d y**2 = k p**h with x, y > 0, if possible.

    k = 4 when d = 3 (mod 4) and k = 1 otherwise.  Cornacchia's algorithm
    in one form for both (Cohen, Alg. 1.5.2 and 1.5.3): Euclid on
    (sqrt(k) p**h, t), with t an odd square root of -d mod p**h, stops at
    the first remainder x <= sqrt(k p**h).  t is the Tonelli-Shanks root
    mod p, or root, lifted to mod p**h by Newton doubling.  An odd t keeps
    x = d (mod 2), which k = 4 needs; for k = 1 either root yields the
    same x.
    """
    r = 2 if d % 4 == 3 else 1
    t = _sqrt_mod_prime(-d % p, p) if root is None else root
    if t is None:
        return None
    m, q = p**h, p
    while q < m:  # t**2 = -d (mod q) becomes t**2 = -d (mod min(q**2, m))
        q = min(q * q, m)
        t = (t - (t * t + d) * pow(2 * t, -1, q)) % q
    t %= m
    if t % 2 == 0:
        t = m - t
    a, b = r * m, t
    lim = math.isqrt(r * r * m)
    while b > lim:
        a, b = b, a % b
    rem = r * r * m - b * b
    if rem % d:
        return None
    y = math.isqrt(rem // d)
    if y * y * d != rem:
        return None
    return b, y


def _gold_value(field: QuadField, p: int, root: int | None = None) -> int:
    """Gold's criterion value u**(p-1) mod p**2 at a split prime p, p not | h.

    P**h = (alpha) for a prime P over p, with alpha = (x + y sqrt(-d))/2
    or x + y sqrt(-d) from Cornacchia on 4p**h or p**h, of trace T = x or
    2x.  u is alpha in the embedding into Z/p**2 where it is a unit; its
    conjugate lands in p**h Z, and u + conj = T, so u = T - p/T (mod p**2)
    when h = 1 and u = T when h >= 2.  Hence, with q_p the Fermat quotient,
    u**(p-1) = 1 + p (q_p(T) + [h = 1] T**-2) (mod p**2): no lift of the
    root to p**2 and no choice of embedding.  alpha is prime to p, so
    p does not divide T.  The caller checks p (cornacchia_gold).
    """
    sol = _cornacchia(field.d, p, field.h, root)
    if sol is None:
        k = "4" if field.d % 4 == 3 else ""
        raise CriterionInapplicable(f"{k}p**{field.h} not represented by x^2+{field.d}y^2")
    T = sol[0] if field.d % 4 == 3 else 2 * sol[0]
    p2 = p * p
    value = pow(T, p - 1, p2)
    if field.h == 1:
        value = (value + p * pow(T, -2, p)) % p2
    return value


def cornacchia_gold(
    field: QuadField, p: int, root: int | None = None
) -> LambdaVerdict:
    """Gold's criterion via an explicit generator of P**h, for every h.

    The checked entry point of _gold_value: p must be a prime that splits
    and does not divide h, but unlike the other criteria need not be
    1 (mod D).  The value does not depend on which square root of -d
    Cornacchia starts from; pass root to force one (it must square to -d
    mod p**2).
    """
    _check_prime(p)
    if field.D % p == 0 or not splits(field, p):
        raise CriterionInapplicable(f"p = {p} does not split")
    if field.h % p == 0:
        raise CriterionInapplicable(f"p = {p} divides the class number {field.h}")
    if root is not None and (root * root + field.d) % (p * p):
        raise ValueError("root**2 + d is not 0 mod p**2")
    return LambdaVerdict(field, p, "cornacchia", _gold_value(field, p, root))


def scan_lambda(field: QuadField, bound: int) -> list[LambdaVerdict]:
    """All primes p = 1 (mod D) up to bound with lambda_p > 1, increasing.

    Gold's criterion decides each prime on its own (_gold_value).  A
    sieved prime p = 1 (mod D) splits, and it exceeds D, which exceeds h,
    so it never divides h: no prime needs a check.  A row carries the
    value 1 and the method fermat_quotient for d = 1 and d = 3, jacobi
    otherwise, as the CLI's frozen output has it.
    """
    method = "fermat_quotient" if field.d in (1, 3) else "jacobi"
    return [
        LambdaVerdict(field, p, method, 1)
        for p in sieve_primes(3, bound, field.D)
        if _gold_value(field, p) == 1
    ]
