"""Bernoulli, Euler, and Glaisher numbers, exact and modular.

Conventions: B_1 = -1/2 (generating function x/(e^x - 1)); Euler
numbers are the integers with generating function 2/(e^x + e^-x);
Glaisher numbers G_n are the rationals with generating function
(3/2)/(e^x + e^-x + 1).  The odd-index entries of all three vanish.

G_0 deserves a note: the generating function gives G_0 = 1/2, and that
is the value used by the recurrence here.  Some tables normalize
G_0 = 1 instead; every identity in this module is stated and tested
against the 1/2 normalization.

E_{p-1} and G_{p-1} mod p**2 come from two routes.  The series
(euler_mod, glaisher_mod and the two criteria), the oracle of verify and
the tests, inverts the generating function as a power series over
Z/p**2 in Python ints up to index p - 1, and past p runs the exact
recurrence of euler_exact and glaisher_exact, reduced mod p**2.  The
tables of every prime up to a bound (residues_from_xi, behind
euler-check and glaisher-table) read them off Gold's criterion for
Q(i) and Q(sqrt(-3)), a few modular operations per prime
(jacobi._gold_values): with v Gold's value u**(p-1) mod p**2,
E_{p-1} = 2 (1 - v) and G_{p-1} = 1 - v (mod p**2).
"""

from __future__ import annotations

import math
from collections.abc import Iterator

from .gaussfact import _xi_fq
from .jacobi import _gold_values
from .quadfields import QuadField, _check_prime, make_field

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


_bernoulli_cache: list[Fraction] = []  # B_0, B_1, ...; seeded on first use


def _bernoulli_extend(n_max: int) -> None:
    # B_n = -1/(n+1) * sum_{k<n} C(n+1, k) B_k
    from fractions import Fraction

    if not _bernoulli_cache:
        _bernoulli_cache.append(Fraction(1))
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
    from fractions import Fraction

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
    from fractions import Fraction

    return _even_recurrence_exact(n_max, Fraction(1, 2), Fraction(-2, 3))


def _modulus_prime(modulus: int) -> int:
    p = math.isqrt(modulus)
    if p * p != modulus:
        raise ValueError("modulus must be the square of an odd prime")
    _check_prime(p)
    return p


def _mul_trunc(a: list[int], b: list[int], n: int, q: int) -> list[int]:
    """The first n coefficients of a*b mod q, by Kronecker substitution:
    each list packed into one int, a slot per coefficient, and one
    multiply.  A slot sums at most n products below q**2, so (n q**2) bits,
    rounded up to bytes, never carry into the next one."""
    width = (n * q * q).bit_length() + 7 >> 3
    pa, pb = (
        int.from_bytes(b"".join(c.to_bytes(width, "little") for c in x[:n]), "little")
        for x in (a, b)
    )
    raw = (pa * pb & ((1 << 8 * width * n) - 1)).to_bytes(width * n, "little")
    return [
        int.from_bytes(raw[i : i + width], "little") % q for i in range(0, len(raw), width)
    ]


def _even_recurrence_mod(n_max: int, modulus: int, p: int, g0: int, mult: int):
    """seq[0..n_max] mod p**2, seq[0] = g0 and, for even n >= 2,
    seq[n] = mult * sum_{j>=1} C(n, 2j) seq[n-2j].  For n_max < p it is
    sum_k seq[2k] y**k / (2k)! = g0 / c over Z/p**2, y = x**2 and
    c = 1 - mult sum_{j>=1} y**j / (2j)!, and Newton's w <- w (2 - c w)
    doubles the precision of 1/c each step (von zur Gathen and Gerhard,
    Modern Computer Algebra, ch. 9).  For n_max >= p, where k! stops
    being a unit, it is _even_recurrence_exact reduced mod p**2."""
    if n_max < 0:
        raise ValueError("n_max must be nonnegative")
    if n_max >= p:
        return _even_recurrence_exact(n_max, g0 % modulus, mult, modulus)
    fact = [1] * (n_max + 1)
    for k in range(1, n_max + 1):
        fact[k] = fact[k - 1] * k % modulus
    invfact = [pow(fact[n_max], -1, modulus)] * (n_max + 1)
    for k in range(n_max, 0, -1):
        invfact[k - 1] = invfact[k] * k % modulus
    c = [1] + [-mult * f % modulus for f in invfact[2::2]]
    w = [1]  # 1/c mod y**m, m = len(w)
    while len(w) < len(c):
        m, n = len(w), min(2 * len(w), len(c))
        # c w = 1 + y**m h (mod y**n), so w (2 - c w) = w - y**m w h
        h = _mul_trunc(c, w, n, modulus)[m:]
        w += [-x % modulus for x in _mul_trunc(w, h, n - m, modulus)]
    out = [0] * (n_max + 1)
    out[::2] = [g0 * x * f % modulus for x, f in zip(w, fact[::2])]
    return out


def euler_mod(n_max: int, modulus: int) -> list[int]:
    """E_0..E_n mod p**2 as a list of ints, all-integer arithmetic throughout."""
    p = _modulus_prime(modulus)
    return _even_recurrence_mod(n_max, modulus, p, 1, modulus - 1)


def glaisher_mod(n_max: int, modulus: int) -> list[int]:
    """G_0..G_n mod p**2 as a list of ints, for p > 3 (2 and 3 invertible)."""
    p = _modulus_prime(modulus)
    if p == 3:
        raise ValueError("p must exceed 3 for Glaisher numbers")
    g0 = pow(2, -1, modulus)
    mult = (-2 * pow(3, -1, modulus)) % modulus
    return _even_recurrence_mod(n_max, modulus, p, g0, mult)


def euler_criterion(p: int) -> bool:
    """True iff E_{p-1} = 0 (mod p**2).  Requires a prime p = 1 (mod 4)."""
    _check_prime(p, 4)
    return euler_mod(p - 1, p * p)[p - 1] == 0


def glaisher_criterion(p: int) -> bool:
    """True iff G_{p-1} = 0 (mod p**2).  Requires a prime p = 1 (mod 3)."""
    _check_prime(p, 3)
    return glaisher_mod(p - 1, p * p)[p - 1] == 0


def residues_from_xi(m: int, bound: int) -> list[tuple[int, int]]:
    """(p, r) for every prime p = 1 (mod m) in [3, bound], increasing.

    r is E_{p-1} mod p**2 for m = 4 and G_{p-1} mod p**2 for m = 3, read
    off Gold's value v = u**(p-1) mod p**2 for Q(i) (m = 4) and
    Q(sqrt(-3)) (m = 3).  Write v = 1 + t p.  Then t = -2 xi(p, 4) for
    Q(i) and t = -3 xi(p, 3) for Q(sqrt(-3)) (mod p), and
    E_{p-1} = 4p xi(p, 4), G_{p-1} = 3p xi(p, 3) (mod p**2), so

        E_{p-1} = 2 (1 - v),   G_{p-1} = 1 - v   (mod p**2),

    and r = 0 exactly when xi(p, m) = 0.  Two tests pin this on values:
    test_residues_from_xi_equal_recurrence against euler_mod and
    glaisher_mod for every p <= 3000, and
    test_residues_from_xi_equal_remainder_tree against m p xi of
    gaussfact.scan_exceptional for every p <= 2*10**5.
    """
    return list(_residues(m, bound))


def _residues(m: int, bound: int) -> Iterator[tuple[int, int]]:
    """residues_from_xi's pairs as they come; m is checked on the call."""
    if m not in (3, 4):
        raise ValueError("m must be 3 (Glaisher) or 4 (Euler)")
    field, c = (make_field(1), 2) if m == 4 else (make_field(3), 1)
    return ((p, c * (1 - v) % (p * p)) for p, v in _gold_values(field, bound))


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
    from fractions import Fraction

    lhs = bernoulli_poly_exact(2 * n + 1, Fraction(1, 3))
    g = glaisher_exact(2 * n)[2 * n]
    return lhs == Fraction(-(2 * n + 1)) * g / Fraction(3 ** (2 * n + 1))


def raabe_identity(n: int) -> bool:
    """Checks B_{2n+1}(1/6) = ((2**2n + 1)/2**2n) B_{2n+1}(1/3) exactly."""
    if not 0 <= n <= IDENTITY_INDEX_LIMIT:
        raise ValueError(f"n must be in [0, {IDENTITY_INDEX_LIMIT}]")
    from fractions import Fraction

    lhs = bernoulli_poly_exact(2 * n + 1, Fraction(1, 6))
    rhs = Fraction(4**n + 1, 4**n) * bernoulli_poly_exact(
        2 * n + 1, Fraction(1, 3)
    )
    return lhs == rhs
