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
is Gold's original one.  Scans over the Jacobi route fan out per prime
through modmath.fan_out.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache, partial

import numpy as np

from . import _kernels
from .gaussfact import _xi_batch
from .modmath import PrimeRange, Residue, fan_out, is_probable_prime
from .quadfields import QuadField, character_table, splits

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


class CriterionInapplicable(ValueError):
    """The lambda criterion's preconditions fail for this field/prime."""


@dataclass(frozen=True)
class LambdaVerdict:
    """Outcome of one lambda test: verdict true means lambda_p > 1.

    criterion_value is the (p-1)-st power of the criterion unit mod
    p**2; the verdict is equivalent to criterion_value = 1.
    """

    field: QuadField
    p: int
    r: int
    method: str
    criterion_value: Residue
    verdict: bool

    def __post_init__(self) -> None:
        if self.verdict != (self.criterion_value.value == 1):
            raise ValueError("verdict inconsistent with criterion value")


@lru_cache(maxsize=8)
def _omega_table(p: int) -> np.ndarray:
    """omega(a) = a**p mod p**2 for a = 0..p-1 (entry 0 stays 0)."""
    return _kernels.powmod(np.arange(p, dtype=np.int64), p, p * p)


def _psi_power(p: int, D: int, i: int) -> np.ndarray:
    """psi**i tabulated on 0..p-1, with psi = omega**(_PSI_SIGN*(p-1)/D)."""
    e = (_PSI_SIGN * i * ((p - 1) // D)) % (p - 1)
    return _kernels.powmod(_omega_table(p), e, p * p)


def jacobi_sum_mod_p2(p: int, D: int, i: int) -> Residue:
    """J(psi**i) = sum over a of psi**i(a) psi**i(1-a), mod p**2.

    Requires D | p - 1 and gcd(i, D) = 1.  The entries a = 0, 1 give no
    contribution (the character vanishes at 0).
    """
    if D < 2 or (p - 1) % D:
        raise ValueError("need D dividing p - 1")
    if math.gcd(i, D) != 1:
        raise ValueError("need gcd(i, D) = 1")
    p2 = p * p
    t = _psi_power(p, D, i % D)
    x = t[2:p]
    y = x[::-1]  # index p + 1 - a runs back down over the same slice
    total = 0
    step = max(1024, (1 << 62) // p2)  # keep the int64 partial sums exact
    for lo in range(0, x.size, step):
        part = _kernels.mulmod(x[lo : lo + step], y[lo : lo + step], p2)
        total = (total + int(part.sum())) % p2
    return Residue(total, p2)


def _applicability(field: QuadField, p: int, r: int) -> None:
    D = field.D
    if p < 3 or not is_probable_prime(p):
        raise CriterionInapplicable(f"p = {p} is not an odd prime")
    if pow(p, r, D) != 1:
        raise CriterionInapplicable(f"p**{r} is not 1 mod D = {D}")
    if not splits(field, p):
        raise CriterionInapplicable(f"p = {p} is inert in the field")
    if field.h % p == 0:
        raise CriterionInapplicable(f"p = {p} divides the class number")
    tbl = character_table(field).values
    if p == 3 and field.d != 3 and tbl[2 % D] == -1:
        raise CriterionInapplicable("p = 3 is excluded when chi(2) = -1")


def lambda_criterion_jacobi(field: QuadField, p: int) -> LambdaVerdict:
    """Jacobi-sum criterion for lambda_p > 1 at a split prime p = 1 (mod D).

    Maximal fields need the single unit J(psi**-1); otherwise the
    criterion unit is the product of J(psi**-i)**chi(i) over the units
    0 < i < D/2.  Either way the verdict is whether its (p-1)-st power
    is 1 mod p**2.
    """
    _applicability(field, p, 1)
    D = field.D
    p2 = p * p
    if field.maximal:
        u = int(jacobi_sum_mod_p2(p, D, -1))
    else:
        tbl = character_table(field).values
        u = 1
        for i in range(1, D // 2):
            if math.gcd(i, D) != 1:
                continue
            j = int(jacobi_sum_mod_p2(p, D, -i))
            u = u * (j if tbl[i] == 1 else pow(j, -1, p2)) % p2
    v = pow(u, p - 1, p2)
    return LambdaVerdict(
        field=field,
        p=p,
        r=1,
        method="jacobi",
        criterion_value=Residue(v, p2),
        verdict=v == 1,
    )


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
    root to force one (it must square to -d mod p**2).
    """
    if field.h != 1:
        raise CriterionInapplicable(f"class number {field.h} is not 1")
    if field.D % p == 0 or not splits(field, p):
        raise CriterionInapplicable(f"p = {p} does not split")
    d = field.d
    p2 = p * p
    if root is None:
        s0 = _sqrt_mod_prime(-d % p, p)
        if s0 is None:
            raise CriterionInapplicable(f"-{d} is not a square mod {p}")
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
    v = pow(unit, p - 1, p2)
    return LambdaVerdict(
        field=field,
        p=p,
        r=1,
        method="cornacchia",
        criterion_value=Residue(v, p2),
        verdict=v == 1,
    )


def scan_lambda(field: QuadField, bound: int, workers: int = 1) -> list[LambdaVerdict]:
    """All primes p = 1 (mod D) up to bound with lambda_p > 1, increasing.

    Maximal fields with D in {4, 6} go through the Fermat-quotient route,
    all primes in one pass of gaussfact._xi_batch; every other field runs
    the Jacobi-sum criterion per prime through modmath.fan_out over
    workers processes.  The worker count does not affect the result.
    """
    rows = _scan_all(field, bound, workers)
    return [v for v in rows if v.verdict]


def _scan_all(field: QuadField, bound: int, workers: int = 1) -> list[LambdaVerdict]:
    primes = list(PrimeRange(3, bound, (field.D, 1 % field.D)))
    if field.maximal and field.D in (4, 6):
        return [
            LambdaVerdict(
                field=field,
                p=p,
                r=1,
                method="fermat_quotient",
                criterion_value=Residue(1 + xi * p, p * p),  # (1+p)**xi mod p**2
                verdict=xi == 0,
            )
            for p, xi in _xi_batch(4 if field.D == 4 else 3, primes)
        ]
    return list(fan_out(partial(lambda_criterion_jacobi, field), primes, workers))
