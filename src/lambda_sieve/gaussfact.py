"""Gauss factorials and exceptionality tests.

The Gauss factorial N_n! is the product of the integers up to N that
are coprime to n.  A prime p = 1 (mod m) is called exceptional for m
(at order alpha) when

    (((p**(alpha+1) - 1) / m)_p!)**(p-1)  =  1   (mod p**(alpha+1)),

the alpha = 1 case being the one tied to lambda invariants.  Three
independent evaluation routes are provided: the direct product, a
Fermat-quotient form that costs O(p), and a Gauss-factorial-ratio form
coming from Jacobi sums.  They must always agree; the verify module
checks that they do.

Scans do not run the O(p) route once per prime.  scan_exceptional
rewrites its xi through n! and (p-1)! mod p**2, n = (p-1)/m, plus
Lehmer's congruences for the harmonic number H_n, and gets those
factorials for every prime of the range in one quasi-linear pass of an
accumulating remainder tree (_xi_batch, _factorial_residues).  The
single-prime _xi_fq stays as the entry point for one prime and as the
oracle the batched values are tested against.  The pass runs in one
process, whatever worker count is passed; a checkpoint is written every
6400 primes as the walk finishes them, in increasing p.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterator, Sequence

import numpy as np

from . import _kernels
from .modmath import (
    PrimeRange,
    Residue,
    _read_checkpoint,
    _write_checkpoint,
    fermat_quotient,
    harmonic_mod,
    is_probable_prime,
    wilson_quotient,
)
from .quadfields import QuadField, character_table

__all__ = [
    "ExceptionalVerdict",
    "gauss_factorial",
    "exceptional_direct",
    "exceptional_fq",
    "exceptional_ratio",
    "exceptional_general",
    "cut_point_congruence_check",
    "scan_exceptional",
]

_CHUNK = 1 << 20


@dataclass(frozen=True)
class ExceptionalVerdict:
    """Outcome of one exceptionality test.

    xi lives mod p**alpha and is the power in
    product**(p-1) = (1 + p)**xi; the verdict is equivalent to xi = 0.
    """

    p: int
    m: int
    alpha: int
    method: str
    xi: Residue
    verdict: bool

    def __post_init__(self) -> None:
        if self.verdict != (self.xi.value == 0):
            raise ValueError("verdict inconsistent with xi")


def gauss_factorial(N: int, n: int, modulus: int) -> Residue:
    """N_n! mod modulus: the product of i <= N with gcd(i, n) = 1."""
    if N < 0:
        raise ValueError("N must be nonnegative")
    if N >= 1 << 62:
        raise ValueError("N too large for int64 enumeration")
    if modulus < 2:
        raise ValueError("modulus must be at least 2")
    qs = []  # the primes q <= N that divide n
    rest, q = n, 2
    while q <= N and q * q <= rest:
        if rest % q == 0:
            qs.append(q)
            while rest % q == 0:
                rest //= q
        q += 1 if q == 2 else 2
    if 1 < rest <= N:
        qs.append(rest)
    acc = 1 % modulus
    for lo in range(1, N + 1, _CHUNK):
        seg = np.arange(lo, min(N, lo + _CHUNK - 1) + 1, dtype=np.int64)
        for q in qs:
            seg = seg[seg % q != 0]
        acc = acc * _kernels.prod_mod(seg % modulus, modulus) % modulus
    return Residue(acc, modulus)


def exceptional_direct(p: int, m: int, alpha: int = 1) -> ExceptionalVerdict:
    """Exceptionality by direct Gauss-factorial product, O(p**(alpha+1)).

    Requires p = 1 (mod m) and p**(alpha+1) < 2**61.
    """
    _check_pm(p, m)
    if alpha < 1:
        raise ValueError("alpha must be at least 1")
    modulus = p ** (alpha + 1)
    if modulus >= 1 << 61:
        raise ValueError("p**(alpha+1) out of int64 range")
    N = (modulus - 1) // m
    g = int(gauss_factorial(N, p, modulus))
    power = pow(g, p - 1, modulus)
    xi = Residue((power - 1) // p, p**alpha)
    return ExceptionalVerdict(
        p=p, m=m, alpha=alpha, method="direct", xi=xi, verdict=power == 1
    )


def _check_pm(p: int, m: int) -> None:
    if m < 2:
        raise ValueError("m must be at least 2")
    if p < 3 or (p - 1) % m or not is_probable_prime(p):
        raise ValueError(f"need a prime p = 1 (mod {m}), got {p}")


def _xi_fq(p: int, m: int) -> int:
    """xi for (p, m) from Fermat quotients:

    xi = (H_{(p-1)/m} - w_p)/m + sum_{a <= (p-1)/m} q_p(a)  (mod p),

    where w_p is the Wilson quotient and H is a harmonic number mod p.
    The Gauss-factorial power then equals (1+p)**xi mod p**2; the sign
    convention is normalized so that this matches the direct route's
    exponent exactly, not just in the xi = 0 case.
    """
    n0 = (p - 1) // m
    w = int(wilson_quotient(p))
    h = int(harmonic_mod(n0, p))
    if n0 >= 1:
        table = _kernels.fq_table(p, n0)
        s = int(table[1:].sum() % p)
    else:
        s = 0
    inv_m = pow(m, -1, p)
    return (inv_m * (h - w) + s) % p


def exceptional_fq(p: int, m: int) -> ExceptionalVerdict:
    """Exceptionality via the Fermat-quotient form of xi, O(p) time."""
    _check_pm(p, m)
    xi = _xi_fq(p, m)
    return ExceptionalVerdict(
        p=p,
        m=m,
        alpha=1,
        method="fermat_quotient",
        xi=Residue(xi, p),
        verdict=xi == 0,
    )


def _ratio_factor(p: int, i: int, D: int, r: int, p2: int) -> int:
    """The Jacobi-sum surrogate for index i:

    (i*(p**(2r) - 1)/(D/2))_p! / ((i*(p**(2r) - 1)/D)_p!)**2  mod p**2.
    """
    M = p ** (2 * r)
    half = int(gauss_factorial(i * ((M - 1) // (D // 2)), p, p2))
    full = int(gauss_factorial(i * ((M - 1) // D), p, p2))
    return half * pow(full * full % p2, -1, p2) % p2


def _check_ratio_args(p: int, D: int, r: int) -> None:
    if D < 4 or D % 2:
        raise ValueError("D must be an even integer >= 4")
    if r < 1 or pow(p, r, D) != 1:
        raise ValueError(f"need p**r = 1 (mod {D})")
    if p ** (2 * r) >= 1 << 61:
        raise ValueError("p**(2r) out of int64 range")


def exceptional_ratio(p: int, D: int, r: int = 1) -> bool:
    """Single-factor Gauss-factorial-ratio criterion (maximal fields).

    True iff the i = 1 ratio raised to the (p-1)-st power is 1 mod p**2.
    """
    _check_ratio_args(p, D, r)
    p2 = p * p
    return pow(_ratio_factor(p, 1, D, r, p2), p - 1, p2) == 1


def exceptional_general(p: int, field: QuadField, r: int = 1) -> bool:
    """Full double-product criterion for arbitrary imaginary quadratic fields.

    Multiplies the i-th ratio factor to the power chi(i) over the units
    0 < i < D/2, then raises to the (p-1)-st power; the verdict is
    whether the result is 1 mod p**2.  Preconditions: p**r = 1 (mod D),
    p splits, p does not divide the class number, and p != 3 whenever
    chi(2) = -1 with d != 3 (this keeps the ideal power coprime to p).
    """
    D = field.D
    _check_ratio_args(p, D, r)
    if field.h % p == 0:
        raise ValueError(f"p = {p} divides the class number {field.h}")
    tbl = character_table(field).values
    if p == 3 and tbl[2 % D] == -1 and field.d != 3:
        raise ValueError("p = 3 is excluded when chi(2) = -1")
    p2 = p * p
    acc = 1
    for i in range(1, D // 2):
        c = int(tbl[i])
        if math.gcd(i, D) != 1 or c == 0:
            continue
        f = _ratio_factor(p, i, D, r, p2)
        acc = acc * (f if c == 1 else pow(f, -1, p2)) % p2
    return pow(acc, p - 1, p2) == 1


def cut_point_congruence_check(p: int, n: int) -> bool:
    """Gauss-factorial congruence between the /3 and /6 cut points:

    ((p**n - 1)/3)_p!**24 = ((p**n - 1)/6)_p!**12  (mod p**n),

    for p = 1 (mod 6) and n >= 1.
    """
    if p % 6 != 1:
        raise ValueError("need p = 1 (mod 6)")
    if n < 1:
        raise ValueError("n must be at least 1")
    M = p**n
    if M >= 1 << 61:
        raise ValueError("p**n out of int64 range")
    third = int(gauss_factorial((M - 1) // 3, p, M))
    sixth = int(gauss_factorial((M - 1) // 6, p, M))
    return pow(third, 24, M) == pow(sixth, 12, M)


# (p, xi) pairs found between two checkpoint writes
_SCAN_CHECKPOINT_PRIMES = 6400


def _factorial_residues(xs: Sequence[int], moduli: Sequence[int]) -> Iterator[int]:
    """x! mod M for each pair (x, M) of xs and moduli, in order; xs nondecreasing.

    One accumulating remainder tree (Costa, Gerbicz and Harvey, "A search
    for Wilson primes", Math. Comp. 2014) over the gap products
    g_k = prod(x_{k-1} < j <= x_k).  A node receives V, the product of
    the gaps left of it reduced mod the product of its moduli; its left
    child gets V mod M_left and its right child V * A_left mod M_right,
    with A_left the gap product of the left subtree.  The walk is depth
    first and returns each subtree's gap product rather than storing a
    product tree, so besides the moduli tree only the products along one
    root-to-leaf path are alive.  Leaves come out in order, so a caller
    can act on a prefix before the walk ends.
    """
    tree = [list(moduli)]
    while len(tree[-1]) > 1:
        level = tree[-1]
        up = [level[i] * level[i + 1] for i in range(0, len(level) - 1, 2)]
        if len(level) % 2:
            up.append(level[-1])
        tree.append(up)
    if tree[0]:
        yield from _walk(tree, xs, len(tree) - 1, 0, 1, False)


def _walk(
    tree: list[list[int]], xs: Sequence[int], depth: int, j: int, v: int, need: bool
):
    """Yield the leaves under node (depth, j); return its gap product if need."""
    if depth == 0:
        gap = math.prod(range(xs[j - 1] + 1 if j else 1, xs[j] + 1))
        yield v * gap % tree[0][j]
        return gap
    below = tree[depth - 1]
    left, right = 2 * j, 2 * j + 1
    if right == len(below):  # odd node carried up unpaired
        return (yield from _walk(tree, xs, depth - 1, left, v, need))
    a = yield from _walk(tree, xs, depth - 1, left, v % below[left], True)
    b = yield from _walk(tree, xs, depth - 1, right, v * a % below[right], need)
    return a * b if need else None


# Lehmer (Ann. Math. 1938): 2 H_{(p-1)/m} = a q_p(2) + b q_p(3) (mod p)
_LEHMER = {2: (-4, 0), 3: (0, -3), 4: (-6, 0), 6: (-4, -3)}


def _xi_batch(m: int, primes: Sequence[int]) -> Iterator[tuple[int, int]]:
    """(p, xi) for an increasing sequence of primes p = 1 (mod m), in order.

    The xi of _xi_fq, rewritten with q_p(ab) = q_p(a) + q_p(b) as

        xi = (H_n - w_p)/m + q_p(n!)  (mod p),   n = (p-1)/m,

    so each prime needs only n! and (p-1)! mod p**2, which
    _factorial_residues gives for all primes in one pass.  H_n comes
    from Lehmer's congruences when m is in _LEHMER; for any other m from
    a third point, (p+n)! mod p**3 = p (p-1)! prod_{j<=n} (p+j), using
    prod_{j<=n} (p+j) = n! (1 + p H_n) (mod p**2).
    """
    if not primes:
        return
    lehmer = _LEHMER.get(m)
    ps = np.asarray(primes, dtype=np.int64)
    n = (ps - 1) // m
    cols = [n, ps - 1] if lehmer else [n, ps - 1, ps + n]
    xs = np.concatenate(cols)
    order = np.argsort(xs, kind="stable")
    owner = (order % ps.size).tolist()  # point k belongs to primes[owner[k]]
    moduli = [
        p ** (3 if col == 2 else 2)
        for p, col in zip(ps[owner].tolist(), (order // ps.size).tolist())
    ]
    xs = xs[order].tolist()
    del order
    found: dict[int, list[int]] = {}
    for i, r in zip(owner, _factorial_residues(xs, moduli)):
        got = found.setdefault(i, [])
        got.append(r)
        if len(got) < len(cols):
            continue
        del found[i]
        p = primes[i]
        fact_n, fact_p = got[0], got[1]
        w = (fact_p + 1) // p  # Wilson quotient: (p-1)! = -1 + w p (mod p**2)
        if lehmer is None:
            p2 = p * p
            u = r // p * pow(fact_p * fact_n, -1, p2) % p2
            h = (u - 1) // p
        else:
            a, b = lehmer
            h2 = a * int(fermat_quotient(2, p))
            if b:
                h2 += b * int(fermat_quotient(3, p))
            h = h2 * pow(2, -1, p)
        xi = (pow(m, -1, p) * (h - w) + int(fermat_quotient(fact_n, p))) % p
        yield p, xi


def scan_exceptional(
    m: int,
    bound: int,
    workers: int = 1,
    start: int = 3,
    checkpoint: str | None = None,
) -> list[ExceptionalVerdict]:
    """Test every prime p = 1 (mod m) in [start, bound] for exceptionality.

    Returns one ExceptionalVerdict per prime, in increasing order, with
    the xi of _xi_fq.  The primes are done together in one pass of
    _xi_batch, an accumulating remainder tree, rather than with O(p)
    work each; workers is accepted for API compatibility and starts no
    processes.  With checkpoint set, the (p, xi) pairs found so far are
    saved after every 6400 new primes and at the end, and a rerun with
    the same m and start resumes after the last saved prime.  A rerun
    with a smaller bound returns the saved pairs with p <= bound.
    """
    if m < 2:
        raise ValueError("m must be at least 2")
    lo = first = max(start, 3)
    if bound < first:
        raise ValueError("empty range")
    pairs: list[tuple[int, int]] = []
    if checkpoint is not None:
        saved = _read_checkpoint(checkpoint)
        if (
            saved is not None
            and saved.get("kind") == "scan_exceptional"
            and saved.get("m") == m
            and saved.get("start") == first
        ):
            pairs = [(p, x) for p, x in saved["pairs"] if p <= bound]
            lo = max(lo, saved["next_start"])
    primes = list(PrimeRange(lo, bound, (m, 1 % m))) if lo <= bound else []
    for done, pair in enumerate(_xi_batch(m, primes), 1):
        pairs.append(pair)
        if checkpoint is not None and (
            done % _SCAN_CHECKPOINT_PRIMES == 0 or done == len(primes)
        ):
            _write_checkpoint(
                checkpoint,
                {
                    "kind": "scan_exceptional",
                    "m": m,
                    "start": first,
                    "next_start": pair[0] + 1,
                    "pairs": [list(t) for t in pairs],
                },
            )
    return [
        ExceptionalVerdict(
            p=p,
            m=m,
            alpha=1,
            method="fermat_quotient",
            xi=Residue(x, p),
            verdict=x == 0,
        )
        for p, x in pairs
    ]
