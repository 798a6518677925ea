"""Vectorized modular arithmetic on int64 arrays.

Residue vectors are kept as numpy int64 throughout.  Products against
moduli above 2**31.5 cannot be formed directly without overflow, so
`mulmod` splits one operand into limbs small enough that every
intermediate stays below 2**63.  All kernels assume canonical inputs
in [0, m).

This is the only module of the package that imports numpy at module
level, and nothing imports it at module level: the oracle functions of
modmath, gaussfact, jacobi, quadfields and verify import it (and numpy,
where they index arrays themselves) when they run.  The scan, table,
class-numbers and pell subcommands never call them, so a CLI run that
is not verify does not load numpy.
"""

from __future__ import annotations

import math

import numpy as np

__all__ = [
    "mulmod",
    "powmod",
    "prod_mod",
    "cumprod_mod",
    "spf_upto",
    "primes_upto",
    "fq_table",
    "inverse_table",
]

# direct (x*y) % m is exact while m*m < 2**63
_DIRECT_MAX = 3_037_000_499

# largest modulus the limb split supports: need shift = 62 - bits >= 1
_LIMB_MAX = (1 << 61) - 1


def mulmod(x, y, m: int):
    """Elementwise (x * y) % m, exact for any modulus m < 2**61."""
    if m <= _DIRECT_MAX:
        return (x * y) % m
    if m > _LIMB_MAX:
        raise ValueError(f"modulus {m} too large for int64 limb arithmetic")
    bits = m.bit_length()
    shift = 62 - bits
    mask = (1 << shift) - 1
    limbs = -(-bits // shift)
    # Horner over limbs of y: acc < m, so acc << shift < 2**62 and the
    # added partial product x*(limb) < m * 2**shift < 2**62 as well.
    acc = (x * ((y >> ((limbs - 1) * shift)) & mask)) % m
    for k in range(limbs - 2, -1, -1):
        acc = ((acc << shift) + x * ((y >> (k * shift)) & mask)) % m
    return acc


def powmod(base, exponent: int, m: int):
    """Elementwise base**exponent % m for a fixed nonnegative exponent."""
    if exponent < 0:
        raise ValueError("exponent must be nonnegative")
    b = np.asarray(base, dtype=np.int64) % m
    out = np.ones_like(b)
    if m == 1:
        out[...] = 0
        return out
    e = exponent
    while e:
        if e & 1:
            out = mulmod(out, b, m)
        e >>= 1
        if e:
            b = mulmod(b, b, m)
    return out


def prod_mod(values, m: int) -> int:
    """Product of all entries mod m, by pairwise tree reduction."""
    v = np.asarray(values, dtype=np.int64) % m
    if v.size == 0:
        return 1 % m
    while v.size > 1:
        if v.size & 1:
            v[0] = mulmod(v[0], v[-1], m)
            v = v[:-1]
        half = v.size >> 1
        v = mulmod(v[:half], v[half:], m)
    return int(v[0])


def cumprod_mod(values, m: int) -> np.ndarray:
    """Cumulative product mod m (doubling scan, O(n log n) work)."""
    out = np.asarray(values, dtype=np.int64) % m
    out = out.copy()
    n = out.size
    s = 1
    while s < n:
        out[s:] = mulmod(out[s:], out[: n - s], m)
        s <<= 1
    return out


_spf_cache = np.zeros(2, dtype=np.int64)


def spf_upto(n: int) -> np.ndarray:
    """Smallest-prime-factor table for 0..n (entries 0 and 1 are 0)."""
    global _spf_cache
    if _spf_cache.size <= n:
        size = max(n + 1, 2 * _spf_cache.size, 1 << 16)
        spf = np.zeros(size, dtype=np.int64)
        spf[2:] = np.arange(2, size, dtype=np.int64)
        for q in range(2, math.isqrt(size - 1) + 1):
            if spf[q] == q:
                block = spf[q * q :: q]
                np.minimum(block, q, out=block)
        _spf_cache = spf
    return _spf_cache[: n + 1]


def primes_upto(n: int) -> np.ndarray:
    """All primes <= n, increasing."""
    if n < 2:
        return np.zeros(0, dtype=np.int64)
    spf = spf_upto(n)
    idx = np.arange(n + 1, dtype=np.int64)
    return idx[2:][spf[2:] == idx[2:]]


def _composite_fill(table: np.ndarray, spf: np.ndarray, combine) -> None:
    """Fill table at composite indices from its values at smaller indices.

    For composite a with q = spf[a], sets table[a] = combine(table[q],
    table[a // q]).  Processed in doubling waves (b, 2b]: the cofactor
    a // q <= a / 2 <= b is already final, so each wave only reads
    settled entries.
    """
    n = table.size - 1
    idx = np.arange(table.size, dtype=np.int64)
    comp = idx[4:][spf[4:] < idx[4:]]
    b = 2
    lo = 0
    while b <= n:
        hi = int(np.searchsorted(comp, min(2 * b, n), side="right"))
        wave = comp[lo:hi]
        if wave.size:
            q = spf[wave]
            table[wave] = combine(table[q], table[wave // q])
        lo = hi
        b *= 2


def fq_table(p: int, bound: int) -> np.ndarray:
    """Fermat quotients q_p(a) = (a**(p-1) - 1)/p mod p for a = 1..bound.

    Entry a of the returned array is q_p(a); entries at index 0 and at
    multiples of p hold the sentinel -1.  Writing a**(p-1) = 1 + u*p
    (mod p**2) turns multiplicativity of a -> a**(p-1) into additivity
    of u, so only prime indices need a modular exponentiation; composite
    indices are filled by vectorized addition over an spf sieve.
    """
    if bound >= p * p:
        raise ValueError("bound must be below p**2")
    if p * p > _LIMB_MAX:
        raise ValueError("p**2 exceeds the supported modulus range")
    p2 = p * p
    spf = spf_upto(bound)
    u = np.zeros(bound + 1, dtype=np.int64)
    pr = primes_upto(bound)
    pr = pr[pr != p]
    if pr.size:
        u[pr] = (powmod(pr, p - 1, p2) - 1) // p
    _composite_fill(u, spf, lambda a, b: (a + b) % p)
    u[0] = -1
    if p <= bound:
        u[p::p] = -1
    return u


def inverse_table(n: int, p: int) -> np.ndarray:
    """Inverses of 1..n modulo the prime p (index a holds a**-1 mod p).

    n must be below p.  Entry 0 is the sentinel 0.  Same sieve strategy
    as fq_table: exponentiation at prime indices only, multiplicative
    fill elsewhere.
    """
    if n >= p:
        raise ValueError("need n < p")
    inv = np.zeros(n + 1, dtype=np.int64)
    if n >= 1:
        inv[1] = 1 % p
    spf = spf_upto(n)
    pr = primes_upto(n)
    if pr.size:
        inv[pr] = powmod(pr, p - 2, p)
    _composite_fill(inv, spf, lambda a, b: (a * b) % p)
    return inv
