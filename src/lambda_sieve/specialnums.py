"""Bernoulli, Euler, and Glaisher numbers, exact and modular.

Conventions: B_1 = -1/2 (generating function x/(e^x - 1)); Euler
numbers are the integers with generating function 2/(e^x + e^-x);
Glaisher numbers G_n are the rationals with generating function
(3/2)/(e^x + e^-x + 1).  The odd-index entries of all three vanish.

G_0 deserves a note: the generating function gives G_0 = 1/2, and that
is the value used by the recurrence here.  Some tables normalize
G_0 = 1 instead; every identity in this module is stated and tested
against the 1/2 normalization.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

import numpy as np

from . import _kernels
from .gaussfact import _xi_fq
from .modmath import is_probable_prime
from .quadfields import QuadField

__all__ = [
    "SpecialSequence",
    "bernoulli_exact",
    "bernoulli_poly_exact",
    "euler_exact",
    "glaisher_exact",
    "euler_mod",
    "glaisher_mod",
    "euler_criterion",
    "glaisher_criterion",
    "bernoulli_criterion",
    "glaisher_bernoulli_identity",
    "raabe_identity",
]

BERNOULLI_EXACT_LIMIT = 600
IDENTITY_INDEX_LIMIT = 250


@dataclass(frozen=True)
class SpecialSequence:
    """Values of a named sequence at indices 0..n; modulus None = exact."""

    kind: str
    values: Sequence
    modulus: int | None = None

    def __len__(self) -> int:
        return len(self.values)

    def __getitem__(self, n: int):
        return self.values[n]


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


def bernoulli_exact(n_max: int) -> SpecialSequence:
    """B_0..B_n as exact fractions.  n_max is capped to keep cost sane."""
    if not 0 <= n_max <= BERNOULLI_EXACT_LIMIT:
        raise ValueError(f"n_max must be in [0, {BERNOULLI_EXACT_LIMIT}]")
    _bernoulli_extend(n_max)
    return SpecialSequence("bernoulli", list(_bernoulli_cache[: n_max + 1]))


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


def euler_exact(n_max: int) -> SpecialSequence:
    """Euler numbers E_0..E_n as exact integers."""
    if n_max < 0:
        raise ValueError("n_max must be nonnegative")
    vals: list[int] = [1]
    for n in range(1, n_max + 1):
        if n % 2:
            vals.append(0)
            continue
        acc = 0
        for j in range(2, n + 1, 2):
            acc += math.comb(n, j) * vals[n - j]
        vals.append(-acc)
    return SpecialSequence("euler", vals)


def glaisher_exact(n_max: int) -> SpecialSequence:
    """Glaisher numbers G_0..G_n as exact fractions (G_0 = 1/2)."""
    if n_max < 0:
        raise ValueError("n_max must be nonnegative")
    vals: list[Fraction] = [Fraction(1, 2)]
    for n in range(1, n_max + 1):
        if n % 2:
            vals.append(Fraction(0))
            continue
        acc = Fraction(0)
        for j in range(2, n + 1, 2):
            acc += math.comb(n, j) * vals[n - j]
        vals.append(Fraction(-2, 3) * acc)
    return SpecialSequence("glaisher", vals)


def _modulus_prime(modulus: int) -> int:
    p = math.isqrt(modulus)
    if p * p != modulus or p < 3 or not is_probable_prime(p):
        raise ValueError("modulus must be the square of an odd prime")
    return p


def _even_recurrence_mod(n_max: int, modulus: int, p: int, g0: int, mult: int):
    """Shared engine for the Euler/Glaisher recurrences mod p**2.

    Computes seq[n] for even n <= n_max where
    seq[n] = mult * sum_{j>=1} C(n, 2j) seq[n-2j], seq[0] = g0.
    Uses factorial tables when n_max < p (one vector multiply and one
    sum per row); falls back to additive Pascal rows otherwise.
    """
    out = np.zeros(n_max + 1, dtype=np.int64)
    out[0] = g0 % modulus
    if n_max < 1:
        return out
    kmax = n_max // 2
    if n_max < p:
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
    # Pascal fallback: maintain the binomial row C(n, .) additively
    row = np.zeros(n_max + 1, dtype=np.int64)
    row[0] = 1
    evens = np.zeros(kmax + 1, dtype=np.int64)  # seq at even indices
    evens[0] = g0 % modulus
    for n in range(1, n_max + 1):
        row[1 : n + 1] = (row[1 : n + 1] + row[:n]) % modulus
        if n % 2:
            continue
        k = n // 2
        coefs = row[2 : n + 1 : 2]  # C(n, 2j), j = 1..k
        terms = _kernels.mulmod(coefs, evens[k - 1 :: -1], modulus)
        evens[k] = mult * int(terms.sum() % modulus) % modulus
        out[n] = evens[k]
    return out


def euler_mod(n_max: int, modulus: int) -> SpecialSequence:
    """E_0..E_n mod p**2, all-integer arithmetic throughout."""
    p = _modulus_prime(modulus)
    vals = _even_recurrence_mod(n_max, modulus, p, 1, modulus - 1)
    return SpecialSequence("euler", vals, modulus)


def glaisher_mod(n_max: int, modulus: int) -> SpecialSequence:
    """G_0..G_n mod p**2 for p > 3 (2 and 3 must be invertible)."""
    p = _modulus_prime(modulus)
    if p == 3:
        raise ValueError("p must exceed 3 for Glaisher numbers")
    g0 = pow(2, -1, modulus)
    mult = (-2 * pow(3, -1, modulus)) % modulus
    vals = _even_recurrence_mod(n_max, modulus, p, g0, mult)
    return SpecialSequence("glaisher", vals, modulus)


def euler_criterion(p: int) -> bool:
    """True iff E_{p-1} = 0 (mod p**2).  Requires p = 1 (mod 4)."""
    if p % 4 != 1 or not is_probable_prime(p):
        raise ValueError("need a prime p = 1 (mod 4)")
    seq = euler_mod(p - 1, p * p)
    return int(seq[p - 1]) == 0


def glaisher_criterion(p: int) -> bool:
    """True iff G_{p-1} = 0 (mod p**2).  Requires p = 1 (mod 3)."""
    if p % 3 != 1 or not is_probable_prime(p):
        raise ValueError("need a prime p = 1 (mod 3)")
    seq = glaisher_mod(p - 1, p * p)
    return int(seq[p - 1]) == 0


def bernoulli_criterion(p: int, field: QuadField) -> bool:
    """Bernoulli-polynomial form of the exceptionality criterion.

    With m = D/2, tests whether B_p(1/m) - 2**p B_p(1/2m) has p-adic
    valuation >= 3, through the Fermat-quotient difference
    xi(m) - 2 xi(2m) (mod p) that it is equivalent to.  The exact
    rational evaluation is the oracle of verify's
    bernoulli-route-vs-quotient-route check, for p <= 500.
    """
    D = field.D
    m = D // 2
    if m < 2:
        raise ValueError("field must have D >= 4")
    if (p - 1) % D:
        raise ValueError(f"need p = 1 (mod {D})")
    return (_xi_fq(p, m) - 2 * _xi_fq(p, D)) % p == 0


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
