"""Bernoulli, Euler, and Glaisher numbers, exact and modular.

Conventions: B_1 = -1/2 (generating function x/(e^x - 1)); Euler
numbers are the integers with generating function 2/(e^x + e^-x);
Glaisher numbers G_n are the rationals with generating function
(3/2)/(e^x + e^-x + 1).  The odd-index entries of all three vanish.

G_0 deserves a note: the generating function gives G_0 = 1/2, and that
is the value used by the recurrence here.  Some tables normalize
G_0 = 1 instead; every identity in this module is stated and tested
against the 1/2 normalization.

E_{p-1} and G_{p-1} mod p**2 come from two routes.  The O(p**2)
recurrence (euler_mod, glaisher_mod and the two criteria) is the series
oracle that verify and the tests run; up to index p - 1 it works over
tables of k! mod p**2, and past p it is the exact integer recurrence of
euler_exact and glaisher_exact, reduced mod p**2 term by term.  The
tables of every prime up to a bound (residues_from_xi, behind
euler-check and glaisher-table) read them off the one batched xi pass of
gaussfact.scan_exceptional, through E_{p-1} = 4p xi(p, 4) and
G_{p-1} = 3p xi(p, 3) (mod p**2).
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import TYPE_CHECKING

from .gaussfact import _xi_fq, scan_exceptional
from .quadfields import QuadField, _check_prime

if TYPE_CHECKING:
    import numpy as np

__all__ = [
    "bernoulli_exact",
    "bernoulli_poly_exact",
    "euler_exact",
    "glaisher_exact",
    "euler_mod",
    "glaisher_mod",
    "euler_criterion",
    "glaisher_criterion",
    "residues_from_xi",
    "bernoulli_criterion",
    "glaisher_bernoulli_identity",
    "raabe_identity",
]

BERNOULLI_EXACT_LIMIT = 600
IDENTITY_INDEX_LIMIT = 250


_bernoulli_cache: list[Fraction] = [Fraction(1)]


def _bernoulli_extend(n_max: int) -> None:
    # B_n = -1/(n+1) * sum_{k<n} C(n+1, k) B_k
    while len(_bernoulli_cache) <= n_max:
        n = len(_bernoulli_cache)
        if n > 1 and n % 2:
            _bernoulli_cache.append(Fraction(0))
            continue
        acc = Fraction(0)
        c = 1  # C(n+1, k), updated incrementally
        for k in range(n):
            acc += c * _bernoulli_cache[k]
            c = c * (n + 1 - k) // (k + 1)
        _bernoulli_cache.append(-acc / (n + 1))


def bernoulli_exact(n_max: int) -> list[Fraction]:
    """B_0..B_n as exact fractions.  n_max is capped to keep cost sane."""
    if not 0 <= n_max <= BERNOULLI_EXACT_LIMIT:
        raise ValueError(f"n_max must be in [0, {BERNOULLI_EXACT_LIMIT}]")
    _bernoulli_extend(n_max)
    return _bernoulli_cache[: n_max + 1]


def bernoulli_poly_exact(n: int, t: Fraction) -> Fraction:
    """B_n(t) = sum_k C(n, k) B_k t**(n-k), exactly."""
    if not 0 <= n <= BERNOULLI_EXACT_LIMIT:
        raise ValueError(f"n must be in [0, {BERNOULLI_EXACT_LIMIT}]")
    _bernoulli_extend(n)
    t = Fraction(t)
    powers = [Fraction(1)]
    for _ in range(n):
        powers.append(powers[-1] * t)
    acc = Fraction(0)
    c = 1
    for k in range(n + 1):
        acc += c * _bernoulli_cache[k] * powers[n - k]
        c = c * (n - k) // (k + 1)
    return acc


def _even_recurrence_exact(n_max: int, g0, mult, modulus: int | None = None) -> list:
    """seq[0..n_max] by the recurrence of _even_recurrence_mod, over int or
    Fraction g0 and mult; odd entries are 0.  With an int modulus (int g0
    and mult only) each entry is reduced mod it."""
    if n_max < 0:
        raise ValueError("n_max must be nonnegative")
    vals = [g0]
    for n in range(1, n_max + 1):
        if n % 2:
            vals.append(0 * g0)
            continue
        acc = mult * sum(math.comb(n, j) * vals[n - j] for j in range(2, n + 1, 2))
        vals.append(acc if modulus is None else acc % modulus)
    return vals


def euler_exact(n_max: int) -> list[int]:
    """Euler numbers E_0..E_n as exact integers."""
    return _even_recurrence_exact(n_max, 1, -1)


def glaisher_exact(n_max: int) -> list[Fraction]:
    """Glaisher numbers G_0..G_n as exact fractions (G_0 = 1/2)."""
    return _even_recurrence_exact(n_max, Fraction(1, 2), Fraction(-2, 3))


def _modulus_prime(modulus: int) -> int:
    p = math.isqrt(modulus)
    if p * p != modulus:
        raise ValueError("modulus must be the square of an odd prime")
    _check_prime(p)
    return p


def _even_recurrence_mod(n_max: int, modulus: int, p: int, g0: int, mult: int):
    """Shared engine for the Euler/Glaisher recurrences mod p**2.

    Computes seq[n] for even n <= n_max where
    seq[n] = mult * sum_{j>=1} C(n, 2j) seq[n-2j], seq[0] = g0.
    Needs n_max < p for its factorial tables, so that every k! is a unit:
    then each row is one vector multiply and one sum.  For n_max >= p it
    returns _even_recurrence_exact reduced mod p**2, an O(n_max**2)
    big-integer recurrence that no criterion or scan reaches.
    """
    # a row adds n_max // 2 residues below modulus in int64; for n_max = p - 1
    # and modulus p**2 that is exact for every prime p <= 2642245
    if (n_max // 2) * (modulus - 1) >= 1 << 63:
        raise ValueError(f"n_max {n_max} mod {modulus} is past the int64 range")
    import numpy as np

    if n_max >= p:
        seq = _even_recurrence_exact(n_max, g0 % modulus, mult, modulus)
        return np.array(seq, dtype=np.int64)

    from . import _kernels

    out = np.zeros(n_max + 1, dtype=np.int64)
    out[0] = g0 % modulus
    kmax = n_max // 2
    arr = np.arange(n_max + 1, dtype=np.int64)
    arr[0] = 1
    fact = _kernels.cumprod_mod(arr, modulus)
    inv_last = pow(int(fact[n_max]), -1, modulus)
    rev = np.concatenate(
        [np.int64([inv_last]), np.arange(n_max, 0, -1, dtype=np.int64)]
    )
    invfact = _kernels.cumprod_mod(rev, modulus)[::-1].copy()
    # invfact[i] = (i!)**-1: entry n_max came first in rev order
    ie = invfact[2::2]  # ie[j-1] = 1/(2j)!
    w = np.zeros(kmax + 1, dtype=np.int64)  # w[i] = seq[2i]/(2i)!
    w[0] = g0 % modulus
    for k in range(1, kmax + 1):
        terms = _kernels.mulmod(ie[:k], w[k - 1 :: -1], modulus)
        s = int(terms.sum() % modulus)
        val = mult * int(fact[2 * k]) % modulus * s % modulus
        out[2 * k] = val
        w[k] = int(_kernels.mulmod(invfact[2 * k], val, modulus))
    return out


def euler_mod(n_max: int, modulus: int) -> np.ndarray:
    """E_0..E_n mod p**2 as an int64 array, all-integer arithmetic throughout."""
    p = _modulus_prime(modulus)
    return _even_recurrence_mod(n_max, modulus, p, 1, modulus - 1)


def glaisher_mod(n_max: int, modulus: int) -> np.ndarray:
    """G_0..G_n mod p**2 as an int64 array, for p > 3 (2 and 3 invertible)."""
    p = _modulus_prime(modulus)
    if p == 3:
        raise ValueError("p must exceed 3 for Glaisher numbers")
    g0 = pow(2, -1, modulus)
    mult = (-2 * pow(3, -1, modulus)) % modulus
    return _even_recurrence_mod(n_max, modulus, p, g0, mult)


def euler_criterion(p: int) -> bool:
    """True iff E_{p-1} = 0 (mod p**2).  Requires a prime p = 1 (mod 4)."""
    _check_prime(p, 4)
    return int(euler_mod(p - 1, p * p)[p - 1]) == 0


def glaisher_criterion(p: int) -> bool:
    """True iff G_{p-1} = 0 (mod p**2).  Requires a prime p = 1 (mod 3)."""
    _check_prime(p, 3)
    return int(glaisher_mod(p - 1, p * p)[p - 1]) == 0


def residues_from_xi(m: int, bound: int) -> list[tuple[int, int]]:
    """(p, r) for every prime p = 1 (mod m) in [3, bound], increasing.

    r is E_{p-1} mod p**2 for m = 4 and G_{p-1} mod p**2 for m = 3, as
    m*p*xi(p, m) mod p**2: E_{p-1} = 4p xi(p, 4) and
    G_{p-1} = 3p xi(p, 3) (mod p**2), so r = 0 exactly when xi = 0.
    test_residues_from_xi_equal_recurrence pins this against euler_mod
    and glaisher_mod for every p <= 3000.
    """
    if m not in (3, 4):
        raise ValueError("m must be 3 (Glaisher) or 4 (Euler)")
    return [
        (v.p, m * v.p * v.xi.value % (v.p * v.p)) for v in scan_exceptional(m, bound)
    ]


def bernoulli_criterion(p: int, field: QuadField) -> bool:
    """Bernoulli-polynomial form of the exceptionality criterion.

    With m = D/2, tests whether B_p(1/m) - 2**p B_p(1/2m) has p-adic
    valuation >= 3, through the Fermat-quotient difference
    xi(m) - 2 xi(2m) (mod p) that it is equivalent to.  The exact
    rational evaluation is the oracle of verify's
    bernoulli-route-vs-quotient-route check, for p <= 500.  Requires a
    prime p = 1 (mod D).
    """
    D = field.D  # at least 4 for every field make_field builds
    _check_prime(p, D)
    return (_xi_fq(p, D // 2) - 2 * _xi_fq(p, D)) % p == 0


def glaisher_bernoulli_identity(n: int) -> bool:
    """Checks B_{2n+1}(1/3) = -(2n+1) G_{2n} / 3**(2n+1) exactly."""
    if not 0 <= n <= IDENTITY_INDEX_LIMIT:
        raise ValueError(f"n must be in [0, {IDENTITY_INDEX_LIMIT}]")
    lhs = bernoulli_poly_exact(2 * n + 1, Fraction(1, 3))
    g = glaisher_exact(2 * n)[2 * n]
    return lhs == Fraction(-(2 * n + 1)) * g / Fraction(3 ** (2 * n + 1))


def raabe_identity(n: int) -> bool:
    """Checks B_{2n+1}(1/6) = ((2**2n + 1)/2**2n) B_{2n+1}(1/3) exactly."""
    if not 0 <= n <= IDENTITY_INDEX_LIMIT:
        raise ValueError(f"n must be in [0, {IDENTITY_INDEX_LIMIT}]")
    lhs = bernoulli_poly_exact(2 * n + 1, Fraction(1, 6))
    rhs = Fraction(4**n + 1, 4**n) * bernoulli_poly_exact(
        2 * n + 1, Fraction(1, 3)
    )
    return lhs == rhs
