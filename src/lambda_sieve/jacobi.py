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

An independent route needs no characters at all: for class number one,
writing p (or 4p) as x**2 + d y**2 with one Cornacchia routine embeds the
ideal generator into the integers mod p**2 directly, and the criterion
is Gold's original one.  scan_lambda does not evaluate Jacobi sums: it
reads the same unit off the cut-point factorials of one remainder-tree
pass in gaussfact, for every prime of the range at once.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import TYPE_CHECKING, Iterator

from .gaussfact import _cut_factorials, _xi_batch
from .modmath import sieve_primes
from .quadfields import (
    CriterionInapplicable,
    QuadField,
    _applicability,
    _check_prime,
    character_table,
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


@dataclass(frozen=True)
class LambdaVerdict:
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
        tbl = character_table(field)
        u = 1
        for i in range(1, D // 2):
            if math.gcd(i, D) != 1:
                continue
            j = jacobi_sum_mod_p2(p, D, -i)
            u = u * (j if tbl[i] == 1 else pow(j, -1, p2)) % p2
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


def _cornacchia(d: int, p: int) -> tuple[int, int] | None:
    """Solve x**2 + d y**2 = k p with x, y > 0, if possible.

    k = 4 when d = 3 (mod 4) and k = 1 otherwise.  Cornacchia's algorithm
    in one form for both (Cohen, Alg. 1.5.2 and 1.5.3): Euclid on
    (sqrt(k) p, t), with t an odd square root of -d mod p, stops at the
    first remainder x <= sqrt(k p).  An odd t keeps x = d (mod 2), which
    k = 4 needs; for k = 1 every root yields the same x.
    """
    r = 2 if d % 4 == 3 else 1
    t = _sqrt_mod_prime(-d % p, p)
    if t is None:
        return None
    if t % 2 == 0:
        t = p - t
    a, b = r * p, t
    lim = math.isqrt(r * r * p)
    while b > lim:
        a, b = b, a % b
    rem = r * r * p - b * b
    if rem % d:
        return None
    y = math.isqrt(rem // d)
    if y * y * d != rem:
        return None
    return b, y


def cornacchia_gold(
    field: QuadField, p: int, root: int | None = None
) -> LambdaVerdict:
    """Gold's criterion via an explicit ideal generator (h = 1 only).

    Writes p = x**2 + d y**2 (or 4p = x**2 + d y**2 for d = 3 mod 4),
    maps the generator into Z/p**2 through a lifted square root s of
    -d, picks the embedding that is a unit, and tests its (p-1)-st
    power.  The verdict does not depend on which root s is used; pass
    root to force one (it must square to -d mod p**2).  Unlike the other
    criteria it takes every split prime, not only p = 1 (mod D).
    """
    _check_prime(p)
    if field.h != 1:
        raise CriterionInapplicable(f"class number {field.h} is not 1")
    if field.D % p == 0 or not splits(field, p):
        raise CriterionInapplicable(f"p = {p} does not split")
    d = field.d
    p2 = p * p
    if root is None:
        s0 = _sqrt_mod_prime(-d % p, p)  # p splits, so -d is a square mod p
        # Hensel lift to mod p**2: s -> s - (s**2 + d) / (2s)
        s = (s0 - (s0 * s0 + d) * pow(2 * s0, -1, p2)) % p2
    else:
        s = root % p2
    if (s * s + d) % p2:
        raise ValueError("root**2 + d is not 0 mod p**2")
    sol = _cornacchia(d, p)
    if sol is None:
        kp = "4p" if d % 4 == 3 else "p"
        raise CriterionInapplicable(f"{kp} not represented by x^2+{d}y^2")
    x, y = sol
    half = pow(2, -1, p2) if d % 4 == 3 else 1  # (x + y sqrt(-d))/2 when k = 4
    e1 = (x + y * s) * half % p2
    e2 = (x - y * s) * half % p2
    if (e1 * e2 - p) % p2:
        raise AssertionError("embedding sanity check failed")
    unit = e1 if e1 % p else e2
    if unit % p == 0:
        raise AssertionError("neither embedding is a unit")
    return LambdaVerdict(field, p, "cornacchia", pow(unit, p - 1, p2))


def scan_lambda(field: QuadField, bound: int) -> list[LambdaVerdict]:
    """All primes p = 1 (mod D) up to bound with lambda_p > 1, increasing.

    One remainder-tree pass of gaussfact does every prime.  d = 1 and
    d = 3 test xi = 0 (method fermat_quotient, value (1+p)**xi), every
    other field the value of _cut_point_values (method jacobi).
    """
    D = field.D
    primes = list(sieve_primes(3, bound, D))
    if field.d in (1, 3):
        method = "fermat_quotient"
        rows = ((p, 1 + xi * p) for p, xi in _xi_batch(4 if D == 4 else 3, primes))
    else:
        method, rows = "jacobi", _cut_point_values(field, primes)
    return [LambdaVerdict(field, p, method, 1) for p, v in rows if v == 1]


def _cut_point_values(field: QuadField, primes: list[int]) -> Iterator[tuple[int, int]]:
    """(p, the criterion value of lambda_criterion_jacobi) per prime p = 1 (mod D).

    With n = i(p-1)/D, (n(p+1))_p! = ((p-1)!)**n n! (1 + p H_n)**n (mod p**2),
    so the ratio factor of gaussfact._ratio_factor for the unit i, which is
    -J(psi**-i), is f_i = (2n)!/(n!)**2 ((1 + p H_{2n})/(1 + p H_n))**(2n),
    and C(p-1, k) = (-1)**k (1 - p H_k) (mod p**2) makes the last factor
    ((2n)! (p-1-2n)!/(n! (p-1-n)!))**(2n): points c(p-1)/D < p - 1, c in
    {i, 2i, D-i, D-2i}, of one gaussfact._cut_factorials pass.  The value is
    (prod f_i**chi(i))**(p-1) over the units i < D/2, f_1**(p-1) on a
    maximal field; the sign drops out of the even power.

    On sieved primes only the checks of _applicability for p = 1 (mod D)
    and for p dividing h can fail; a prime = 1 (mod D) splits.
    """
    D, h = field.D, field.h
    for p in primes:
        if p % D != 1 or h % p == 0:
            _applicability(field, p)  # raises CriterionInapplicable
    units = [i for i in range(1, D // 2) if math.gcd(i, D) == 1]
    if field.maximal:
        units = [1]
    signs = {i: chi(field, i) for i in units}
    cs = sorted({c for i in units for c in (i, 2 * i, D - i, D - 2 * i)})
    for p, facts in _cut_factorials(D, cs, primes):
        p2, at = p * p, dict(zip(cs, facts))
        acc = 1
        for i in units:
            e = 2 * i * (p - 1) // D  # 2n
            num = at[2 * i] * pow(at[2 * i] * at[D - 2 * i], e, p2)
            den = at[i] ** 2 * pow(at[i] * at[D - i], e, p2)
            acc = acc * pow(num * pow(den, -1, p2), signs[i], p2) % p2
        yield p, pow(acc, p - 1, p2)
