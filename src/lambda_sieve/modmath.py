"""Scalar modular arithmetic: residues, Fermat quotients, prime sieves.

Everything here works with plain Python integers; a residue is an int
in [0, modulus).  As the bottom layer, this module also holds the
primitives every route above shares: the prime sieve (_strike, run by
prime_flags, by sieve_primes on one residue class and by pell's trial
tables), the Kronecker symbol, the BPSW primality test and the atomic
JSON checkpoint I/O of the resumable searches.  The process fan-out
lives in pell, its one caller, so that no other subcommand loads the
process-pool machinery.

The import rule of the package: only _kernels imports numpy at module
level.  The oracle functions import _kernels, and numpy where they index
arrays, when they run (here wilson_quotient and harmonic_mod; specialnums
imports neither), so the scans, tables, class-numbers and pell run on
Python ints alone and never load numpy.
"""

from __future__ import annotations

import math
import os
from collections import namedtuple
from collections.abc import Callable, Iterator
from itertools import compress

__all__ = [
    "Residue",
    "teichmuller_lift",
    "fermat_quotient",
    "wilson_quotient",
    "harmonic_mod",
    "prime_flags",
    "sieve_primes",
    "is_probable_prime",
    "MR_DETERMINISTIC_BOUND",
    "kronecker",
]


class Residue(namedtuple("Residue", "value modulus")):
    """A verdict's xi: an int canonical in [0, modulus)."""

    __slots__ = ()

    def __new__(cls, value: int, modulus: int) -> Residue:
        if modulus < 2:
            raise ValueError("modulus must be at least 2")
        return super().__new__(cls, value % modulus, modulus)

    @classmethod
    def _make(cls, iterable) -> Residue:
        # namedtuple's _make, and _replace through it, would skip __new__
        return cls(*iterable)

    def __int__(self) -> int:
        return self.value

    def __repr__(self) -> str:
        return f"Residue({self.value}, mod {self.modulus})"


def _require_prime(p: int) -> None:
    """ValueError naming p unless is_probable_prime(p)."""
    if not is_probable_prime(p):
        raise ValueError(f"p = {p} is not prime")


def teichmuller_lift(a: int, p: int, k: int = 2) -> int:
    """The unique (p-1)-st root of unity mod p**k congruent to a mod p.

    An int in [0, p**k), computed by iterating x -> x**p mod p**k, which
    converges in at most k-1 steps.  Requires 1 <= k <= 3, a prime p and
    gcd(a, p) = 1.
    """
    if not 1 <= k <= 3:
        raise ValueError("k must be 1, 2, or 3")
    _require_prime(p)
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
    return x


def fermat_quotient(a: int, p: int) -> int:
    """q_p(a) = (a**(p-1) - 1)/p mod p, an int in [0, p), for gcd(a, p) = 1.

    p is not checked for primality: _xi_batch calls this three times per
    prime of a scan, and a primality test there would cost the scan.
    """
    if a % p == 0:
        raise ValueError("a must be coprime to p")
    return (pow(a, p - 1, p * p) - 1) // p


def wilson_quotient(p: int) -> int:
    """w_p = ((p-1)! + 1)/p mod p, an int in [0, p), from (p-1)! mod p**2.

    Pairs a with p - a: (p-1)! = prod a*(p - a) over a <= (p-1)/2, so
    only half the range is multiplied.  Requires a prime p.
    """
    _require_prime(p)
    if p == 2:
        return 1  # (1! + 1)/2
    import numpy as np

    from . import _kernels

    half = np.arange(1, (p - 1) // 2 + 1, dtype=np.int64)
    fact = _kernels.prod_mod(half * (p - half), p * p)
    return (fact + 1) // p % p  # (fact + 1)/p = p at a Wilson prime


def harmonic_mod(n: int, p: int) -> int:
    """H_n = 1 + 1/2 + ... + 1/n mod p, an int in [0, p), for a prime p > n."""
    _require_prime(p)
    if n >= p:
        raise ValueError("harmonic sum needs n < p")
    if n < 1:
        return 0
    from . import _kernels

    inv = _kernels.inverse_table(n, p)
    return int(inv[1:].sum() % p)


def _strike(values: range, primes) -> bytearray:
    """Flags of values: 0 at the multiples q*j, j >= q, of each q in primes
    that does not divide values.step, else 1.  The one striking loop."""
    flags = bytearray([1]) * len(values)
    a, step = values.start, values.step
    for q in primes:
        if step % q:  # else q divides every value or none
            i = len(range(a, q * q, step))  # the values below q*q
            i += (-a * pow(step, -1, q) - i) % q  # then the first multiple of q
            flags[i::q] = bytes(len(range(i, len(flags), q)))
    return flags


def prime_flags(n: int) -> bytearray:
    """flags[i] = 1 if i is prime, else 0, for 0 <= i <= n.

    A sieve of Eratosthenes: _strike on range(n + 1) with the primes up
    to r = isqrt(n), from prime_flags(r), a recursion that ends at r < 2.
    """
    r = math.isqrt(n)
    small = compress(range(r + 1), prime_flags(r)) if r > 1 else ()
    flags = _strike(range(n + 1), small)
    flags[:2] = bytes(min(n + 1, 2))
    return flags


def sieve_primes(lower: int, upper: int, m: int = 1) -> Iterator[int]:
    """The primes p = 1 (mod m) in [lower, upper], increasing.

    _strike on the x = 1 (mod m) from the least x >= lower with the
    primes up to sqrt(upper): a byte per x, none below lower.  lower
    must be at least 3, so that residue classes mod even m need no
    special case for 2.  The bounds are checked on the call; the sieve
    runs when the first prime is asked for.
    """
    if lower < 3:
        raise ValueError("lower bound must be at least 3")
    if upper < lower:
        raise ValueError("empty range")
    if m < 1:
        raise ValueError("m must be at least 1")
    return _sieve(lower, upper, m)


def _sieve(lower: int, upper: int, m: int) -> Iterator[int]:
    values = range(lower + (1 - lower) % m, upper + 1, m)
    r = math.isqrt(upper)
    yield from compress(values, _strike(values, compress(range(r + 1), prime_flags(r))))


# is_probable_prime is exact below this bound; pell labels such primes proven
MR_DETERMINISTIC_BOUND = 330_000_000_000_000


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
    for bit in bin(m)[2:]:
        u, v = u * v % n, (v * v - 2 * qk) % n
        qk = qk * qk % n
        if bit == "1":
            # halve mod the odd n: add n to an odd value, then shift
            u, v = u + v, v + d * u
            u = (u + n if u & 1 else u) >> 1
            v = (v + n if v & 1 else v) >> 1
            u, v = u % n, v % n
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
    """Trial division to 37, then BPSW: Miller-Rabin base 2 + strong Lucas.

    BPSW is due to Baillie and Wagstaff (Math. Comp. 1980).  No composite
    below 2**64 passes it (Feitsma-Galway), so the verdict is exact below
    MR_DETERMINISTIC_BOUND and beyond; above 2**64 none is known.
    """
    if n < 2:
        return False
    for q in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        if n % q == 0:
            return n == q
    return not _mr_witness(n, 2) and _strong_lucas(n)


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


def _write_checkpoint(path: str, payload: dict) -> None:
    """Write payload as JSON to path atomically (temp file, then rename)."""
    import json
    import tempfile

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


class CheckpointError(ValueError):
    """A checkpoint file that cannot be resumed from; the message names it."""


def _read_checkpoint(
    path: str, header: dict, decode: Callable[[dict], object]
) -> object:
    """decode(payload) of the JSON object at path; None unless its header matches.

    decode reads the whole payload up front.  A file at path that cannot be
    read, is not a JSON object with a string kind, or matches header but
    that decode cannot read, raises CheckpointError naming path: a KeyError
    is a missing field, a TypeError or ValueError a malformed one.
    """
    if not os.path.exists(path):
        return None
    import json

    try:
        with open(path) as fh:
            saved = json.load(fh)
    except OSError as exc:  # say, no read permission
        raise CheckpointError(f"{path} cannot be read: {exc.strerror or exc}") from None
    except ValueError as exc:  # not JSON, or not text
        raise CheckpointError(f"{path} is not a checkpoint: {exc}") from None
    if not isinstance(saved, dict):
        raise CheckpointError(f"{path} is not a checkpoint: not a JSON object")
    if not isinstance(saved.get("kind"), str):  # say, the CLI's json output
        raise CheckpointError(f"{path} is not a checkpoint: no field 'kind'")
    if any(saved.get(k) != v for k, v in header.items()):
        return None
    try:
        return decode(saved)
    except KeyError as exc:
        problem = f"no field {exc.args[0]!r}"
    except (TypeError, ValueError) as exc:
        problem = f"malformed payload ({type(exc).__name__}: {exc})"
    raise CheckpointError(f"{path} is not a checkpoint: {problem}")
