"""Scalar modular arithmetic: residues, Fermat quotients, prime sieves.

Everything here works with plain Python integers or numpy int64 arrays;
the bulk paths live in _kernels and are wrapped by the table functions
below.  As the bottom layer, this module also holds the primitives every
route above shares: the Kronecker symbol, the one process fan-out
(fan_out) and the atomic JSON checkpoint I/O of the resumable searches.
"""

from __future__ import annotations

import json
import math
import os
import random
import tempfile
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from typing import Callable, Iterator, Sequence

import numpy as np

from . import _kernels

try:
    from gmpy2 import mpz
except ImportError:  # pragma: no cover - optional speedup only
    mpz = int

__all__ = [
    "Residue",
    "PrimeRange",
    "mod_pow",
    "teichmuller_lift",
    "fermat_quotient",
    "wilson_quotient",
    "harmonic_mod",
    "sieve_primes",
    "is_probable_prime",
    "MR_DETERMINISTIC_BOUND",
    "kronecker",
    "fan_out",
]


@dataclass(frozen=True)
class Residue:
    """An integer carried modulo a fixed modulus, canonical in [0, modulus)."""

    value: int
    modulus: int

    def __post_init__(self) -> None:
        if self.modulus < 2:
            raise ValueError("modulus must be at least 2")
        object.__setattr__(self, "value", self.value % self.modulus)

    def _coerce(self, other) -> "Residue":
        if isinstance(other, Residue):
            if other.modulus != self.modulus:
                raise ValueError("mixed moduli")
            return other
        if isinstance(other, (int, np.integer)):
            return Residue(int(other), self.modulus)
        return NotImplemented

    def __add__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return o
        return Residue(self.value + o.value, self.modulus)

    __radd__ = __add__

    def __sub__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return o
        return Residue(self.value - o.value, self.modulus)

    def __rsub__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return o
        return Residue(o.value - self.value, self.modulus)

    def __mul__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return o
        return Residue(self.value * o.value, self.modulus)

    __rmul__ = __mul__

    def __pow__(self, exponent: int) -> "Residue":
        return Residue(pow(self.value, exponent, self.modulus), self.modulus)

    def __neg__(self) -> "Residue":
        return Residue(-self.value, self.modulus)

    def inverse(self) -> "Residue":
        return Residue(pow(self.value, -1, self.modulus), self.modulus)

    def __int__(self) -> int:
        return self.value

    def __repr__(self) -> str:
        return f"Residue({self.value}, mod {self.modulus})"


def mod_pow(base: Residue, exponent: int) -> Residue:
    """base**exponent in its residue ring (square-and-multiply)."""
    return base**exponent


def teichmuller_lift(a: int, p: int, k: int = 2) -> Residue:
    """The unique (p-1)-st root of unity mod p**k congruent to a mod p.

    Computed by iterating x -> x**p mod p**k, which converges in at
    most k-1 steps.  Requires 1 <= k <= 3 and gcd(a, p) = 1.
    """
    if not 1 <= k <= 3:
        raise ValueError("k must be 1, 2, or 3")
    if a % p == 0:
        raise ValueError("a must be coprime to p")
    m = p**k
    x = a % m
    for _ in range(k):
        nxt = pow(x, p, m)
        if nxt == x:
            break
        x = nxt
    assert pow(x, p, m) == x
    return Residue(x, m)


def fermat_quotient(a: int, p: int) -> Residue:
    """q_p(a) = (a**(p-1) - 1)/p mod p, for gcd(a, p) = 1."""
    if a % p == 0:
        raise ValueError("a must be coprime to p")
    return Residue((pow(a, p - 1, p * p) - 1) // p, p)


def wilson_quotient(p: int) -> Residue:
    """w_p = ((p-1)! + 1)/p mod p, computed from (p-1)! mod p**2.

    Pairs a with p - a: (p-1)! = prod a*(p - a) over a <= (p-1)/2, so
    only half the range is multiplied.
    """
    if p == 2:
        return Residue((math.factorial(1) + 1) // 2, 2)
    half = np.arange(1, (p - 1) // 2 + 1, dtype=np.int64)
    fact = _kernels.prod_mod(half * (p - half), p * p)
    return Residue((fact + 1) // p, p)


def harmonic_mod(n: int, p: int) -> Residue:
    """H_n = 1 + 1/2 + ... + 1/n mod p.  Requires n < p."""
    if n >= p:
        raise ValueError("harmonic sum needs n < p")
    if n < 1:
        return Residue(0, p)
    inv = _kernels.inverse_table(n, p)
    return Residue(int(inv[1:].sum() % p), p)


@dataclass(frozen=True)
class PrimeRange:
    """Primes in [lower, upper], optionally restricted to a residue class.

    residue_filter = (m, r) keeps only primes p with p % m == r.
    lower must be at least 3 so that residue classes mod even m make
    sense without special-casing 2.
    """

    lower: int
    upper: int
    residue_filter: tuple[int, int] | None = None

    def __post_init__(self) -> None:
        if self.lower < 3:
            raise ValueError("lower bound must be at least 3")
        if self.upper < self.lower:
            raise ValueError("empty range")
        if self.residue_filter is not None:
            m, r = self.residue_filter
            if m < 1 or not 0 <= r < m:
                raise ValueError("bad residue filter")

    def __iter__(self) -> Iterator[int]:
        return sieve_primes(self)


_SEGMENT = 1 << 19


def _prime_blocks(lo: int, hi: int) -> Iterator[np.ndarray]:
    """Primes in [lo, hi] as int64 arrays, one segment at a time."""
    lo = max(lo, 2)
    if hi < lo:
        return
    base = _kernels.primes_upto(math.isqrt(hi))
    for start in range(lo, hi + 1, _SEGMENT):
        stop = min(start + _SEGMENT - 1, hi)
        seg = np.ones(stop - start + 1, dtype=bool)
        for q in base:
            q = int(q)
            first = max(q * q, ((start + q - 1) // q) * q)
            if first > stop:
                continue
            seg[first - start :: q] = False
        block = np.flatnonzero(seg).astype(np.int64) + start
        if block.size:
            yield block


def sieve_primes(rng: PrimeRange) -> Iterator[int]:
    """Iterate the primes of a PrimeRange (segmented sieve of Eratosthenes).

    Memory stays O(sqrt(upper) + segment) regardless of range width.
    """
    for block in _prime_blocks(rng.lower, rng.upper):
        if rng.residue_filter is not None:
            m, r = rng.residue_filter
            block = block[block % m == r]
        for p in block:
            yield int(p)


# Miller-Rabin with this base set is deterministic below 3.3e14
MR_DETERMINISTIC_BOUND = 330_000_000_000_000
_MR_SMALL_BASES = (2, 3, 5, 7, 11, 13, 17)


def _mr_witness(n, a) -> bool:
    """True if a witnesses n composite."""
    d = n - 1
    s = (d & -d).bit_length() - 1
    d >>= s
    x = pow(a, d, n)
    if x == 1 or x == n - 1:
        return False
    for _ in range(s - 1):
        x = x * x % n
        if x == n - 1:
            return False
    return True


def kronecker(a: int, n: int) -> int:
    """Kronecker symbol (a | n), fully multiplicative extension of Legendre."""
    if n == 0:
        return 1 if a in (1, -1) else 0
    k = 1
    if n < 0:
        n = -n
        if a < 0:
            k = -k
    while n % 2 == 0:
        n //= 2
        if a % 2 == 0:
            return 0
        if a % 8 in (3, 5):
            k = -k
    a %= n
    while a:
        while a % 2 == 0:
            a //= 2
            if n % 8 in (3, 5):
                k = -k
        a, n = n, a
        if a % 4 == 3 and n % 4 == 3:
            k = -k
        a %= n
    return k if n == 1 else 0


def _strong_lucas(n) -> bool:
    """Strong Lucas probable-prime test, parameters by Selfridge's method."""
    if math.isqrt(n) ** 2 == n:
        return False
    d = 5
    while True:
        j = kronecker(d, int(n))
        if j == -1:
            break
        if j == 0:
            return False
        d = -(d + 2) if d > 0 else -(d - 2)
    q = (1 - d) // 4
    k = n + 1
    s = (k & -k).bit_length() - 1
    m = k >> s
    # Lucas sequences U_m, V_m by binary ladder on (U, V, Q^j)
    u, v, qk = 0, 2, 1
    inv2 = (n + 1) // 2
    for bit in bin(m)[2:]:
        u, v = u * v % n, (v * v - 2 * qk) % n
        qk = qk * qk % n
        if bit == "1":
            u, v = (u + v) * inv2 % n, (v + d * u) * inv2 % n
            qk = qk * q % n
    if u == 0 or v == 0:
        return True
    for _ in range(s - 1):
        u, v = u * v % n, (v * v - 2 * qk) % n
        qk = qk * qk % n
        if v == 0:
            return True
    return False


def is_probable_prime(n: int) -> bool:
    """Primality verdict: exact below MR_DETERMINISTIC_BOUND, else BPSW-style.

    Above the deterministic bound the test runs Miller-Rabin to 20
    bases drawn reproducibly from the candidate plus a strong Lucas
    test, so verdicts are stable across runs.
    """
    if n < 2:
        return False
    for q in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        if n % q == 0:
            return n == q
    m = mpz(n)
    if n < MR_DETERMINISTIC_BOUND:
        return not any(_mr_witness(m, a) for a in _MR_SMALL_BASES)
    rng = random.Random(n)
    bases = [rng.randrange(2, n - 1) for _ in range(20)]
    if any(_mr_witness(m, mpz(a)) for a in bases):
        return False
    return _strong_lucas(m)


def _factorize(n: int) -> dict[int, int]:
    """Prime factorization by trial division (utility scale only)."""
    out: dict[int, int] = {}
    d = 2
    while d * d <= n:
        while n % d == 0:
            out[d] = out.get(d, 0) + 1
            n //= d
        d += 1 if d == 2 else 2
    if n > 1:
        out[n] = out.get(n, 0) + 1
    return out


def primitive_root(p: int) -> int:
    """Smallest primitive root of an odd prime p."""
    fac = _factorize(p - 1)
    for g in range(2, p):
        if all(pow(g, (p - 1) // q, p) != 1 for q in fac):
            return g
    raise ValueError(f"{p} is not an odd prime")


def fan_out(fn: Callable, items: Sequence, workers: int) -> Iterator:
    """fn over items, yielded in input order, in workers processes.

    With workers <= 1 this is plain map in this process; otherwise one
    ProcessPoolExecutor serves the whole sequence, so fn and the items
    must pickle.  Results stream as they complete in order, and closing
    the iterator early cancels the work not yet started and shuts the
    pool down.  The chunk size follows from the inputs: about 64 chunks
    per worker, at least one item each.
    """
    if workers <= 1:
        yield from map(fn, items)
        return
    chunk = max(1, len(items) // (64 * workers))
    with ProcessPoolExecutor(max_workers=workers) as pool:
        yield from pool.map(fn, items, chunksize=chunk)


def _write_checkpoint(path: str, payload: dict) -> None:
    """Write payload as JSON to path atomically (temp file, then rename)."""
    d = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(dir=d, suffix=".tmp")
    try:
        with os.fdopen(fd, "w") as fh:
            json.dump(payload, fh)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _read_checkpoint(path: str) -> dict | None:
    """The JSON payload saved at path, or None when there is no file."""
    if not os.path.exists(path):
        return None
    with open(path) as fh:
        return json.load(fh)
