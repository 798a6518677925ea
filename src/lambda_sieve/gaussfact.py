"""Gauss factorials and exceptionality tests.

The Gauss factorial N_n! is the product of the integers up to N that
are coprime to n.  A prime p = 1 (mod m) is called exceptional for m
(at order alpha) when

    (((p**(alpha+1) - 1) / m)_p!)**(p-1)  =  1   (mod p**(alpha+1)),

the alpha = 1 case being the one tied to lambda invariants.  Three
independent evaluation routes are provided: the direct product, a
Fermat-quotient form that costs O(p), and the paper's criterion at any
order r, a product of Gauss-factorial ratios coming from Jacobi sums
(exceptional_general).  They must always agree; the verify module
checks that they do.

The ratio route needs N_p! mod p**2 at N = Q p + R (0 <= R < p) with Q
as large as p**(2r) / p.  Each full block of p - 1 consecutive units is
(p-1)! (1 + j p H_{p-1}) = (p-1)! (mod p**2), so

    N_p!  =  ((p-1)!)**Q  R!  (1 + Q p H_R)   (mod p**2),

and one O(p) table of k! mod p**2 and H_k mod p, k < p, gives every
such factorial in O(log Q) (_factorial_table, _block_gauss_factorial).

Scans do not run the O(p) route once per prime.  scan_exceptional
rewrites its xi through n! and (p-1)! mod p**2, n = (p-1)/m, plus
Lehmer's congruences for the harmonic number H_n, and gets those
factorials for every prime of the range in one quasi-linear pass of an
accumulating remainder tree (_xi_batch, _factorial_residues), where
(p-1)! reflects to ((p-1)/2)!, so every point of the pass is k! mod
p**2 at a cut point k = c (p-1)/M < p - 1 (_cut_factorials).  The
single-prime _xi_fq stays as the entry point for one prime and as the
oracle the batched values are tested against.  A checkpoint is written
every 6400 primes as the walk finishes them, in increasing p.
"""

from __future__ import annotations

import math
import operator
from bisect import bisect_left
from typing import Iterator, NamedTuple, Sequence

from .modmath import (
    Residue,
    _factorize,
    _read_checkpoint,
    _write_checkpoint,
    fermat_quotient,
    harmonic_mod,
    sieve_primes,
    wilson_quotient,
)
from .quadfields import QuadField, _applicability, _check_prime, chi

__all__ = [
    "ExceptionalVerdict",
    "gauss_factorial",
    "exceptional_direct",
    "exceptional_fq",
    "exceptional_general",
    "cut_point_congruence_check",
    "scan_exceptional",
]

_CHUNK = 1 << 20


class ExceptionalVerdict(NamedTuple):
    """Outcome of one exceptionality test.

    xi lives mod p**alpha and is the power in
    product**(p-1) = (1 + p)**xi; verdict is read off it: xi = 0.
    """

    p: int
    m: int
    alpha: int
    xi: Residue

    @property
    def verdict(self) -> bool:
        return self.xi.value == 0


def gauss_factorial(N: int, n: int, modulus: int) -> int:
    """N_n! mod modulus, an int in [0, modulus): the product of i <= N
    with gcd(i, n) = 1, for n >= 1."""
    if N < 0:
        raise ValueError("N must be nonnegative")
    if N >= 1 << 62:
        raise ValueError("N too large for int64 enumeration")
    if n < 1:
        raise ValueError("n must be at least 1")
    if modulus < 2:
        raise ValueError("modulus must be at least 2")
    import numpy as np

    from . import _kernels

    qs = [q for q in _factorize(n) if q <= N]
    acc = 1 % modulus
    for lo in range(1, N + 1, _CHUNK):
        seg = np.arange(lo, min(N, lo + _CHUNK - 1) + 1, dtype=np.int64)
        for q in qs:
            seg = seg[seg % q != 0]
        acc = acc * _kernels.prod_mod(seg % modulus, modulus) % modulus
    return acc


def exceptional_direct(p: int, m: int, alpha: int = 1) -> ExceptionalVerdict:
    """Exceptionality by direct Gauss-factorial product, O(p**(alpha+1)).

    Requires p = 1 (mod m) and p**(alpha+1) < 2**61.
    """
    _check_prime(p, m)
    if alpha < 1:
        raise ValueError("alpha must be at least 1")
    modulus = p ** (alpha + 1)
    if modulus >= 1 << 61:
        raise ValueError("p**(alpha+1) out of int64 range")
    N = (modulus - 1) // m
    power = pow(gauss_factorial(N, p, modulus), p - 1, modulus)
    xi = Residue((power - 1) // p, p**alpha)
    return ExceptionalVerdict(p=p, m=m, alpha=alpha, xi=xi)


def _xi_fq(p: int, m: int) -> int:
    """xi for (p, m) from Fermat quotients:

    xi = (H_{(p-1)/m} - w_p)/m + sum_{a <= (p-1)/m} q_p(a)  (mod p),

    where w_p is the Wilson quotient and H is a harmonic number mod p.
    The Gauss-factorial power then equals (1+p)**xi mod p**2; the sign
    convention is normalized so that this matches the direct route's
    exponent exactly, not just in the xi = 0 case.
    """
    n0 = (p - 1) // m
    w = wilson_quotient(p)
    h = harmonic_mod(n0, p)
    if n0 >= 1:
        from . import _kernels

        table = _kernels.fq_table(p, n0)
        s = int(table[1:].sum() % p)
    else:
        s = 0
    inv_m = pow(m, -1, p)
    return (inv_m * (h - w) + s) % p


def exceptional_fq(p: int, m: int) -> ExceptionalVerdict:
    """Exceptionality via the Fermat-quotient form of xi, O(p) time."""
    _check_prime(p, m)
    return ExceptionalVerdict(p=p, m=m, alpha=1, xi=Residue(_xi_fq(p, m), p))


def _factorial_table(p: int) -> tuple[list[int], list[int]]:
    """(k! mod p**2, H_k mod p) for 0 <= k < p, p an odd prime.

    1/k mod p comes from 1/k = -(p // k) / (p % k), so the table is
    built in O(p) multiplications with no modular power.
    """
    p2 = p * p
    fact, harm, inv = [1] * p, [0] * p, [0] * p
    for k in range(1, p):
        inv[k] = -(p // k) * inv[p % k] % p if k > 1 else 1
        fact[k] = fact[k - 1] * k % p2
        harm[k] = (harm[k - 1] + inv[k]) % p
    return fact, harm


def _block_gauss_factorial(
    N: int, p: int, table: tuple[list[int], list[int]]
) -> int:
    """N_p! mod p**2 off table = _factorial_table(p), by the block formula.

    With N = Q p + R, the block jp + 1 .. jp + p - 1 is (p-1)! mod p**2
    for every j < Q, and the partial block Q p + 1 .. Q p + R is
    R! (1 + Q p H_R) mod p**2.
    """
    fact, harm = table
    Q, R = divmod(N, p)
    p2 = p * p
    return pow(fact[p - 1], Q, p2) * fact[R] * (1 + Q * harm[R] % p * p) % p2


def _ratio_factor(
    p: int, i: int, D: int, r: int, table: tuple[list[int], list[int]]
) -> int:
    """The Jacobi-sum surrogate for index i, off table = _factorial_table(p):

    (i*(p**(2r) - 1)/(D/2))_p! / ((i*(p**(2r) - 1)/D)_p!)**2  mod p**2.
    """
    M = p ** (2 * r)
    p2 = p * p
    half = _block_gauss_factorial(i * ((M - 1) // (D // 2)), p, table)
    full = _block_gauss_factorial(i * ((M - 1) // D), p, table)
    return half * pow(full * full, -1, p2) % p2


def exceptional_general(p: int, field: QuadField, r: int = 1) -> bool:
    """Full double-product criterion for arbitrary imaginary quadratic fields.

    Multiplies the i-th ratio factor to the power chi(i) = +-1 over the
    units 0 < i < D/2 (the discriminant divides D), then raises to the
    (p-1)-st power; the verdict is whether the result is 1 mod p**2.
    On a maximal field every such unit has chi(i) = +1, so the product
    is of plain ratio factors.  Every factor is read off one
    _factorial_table(p), so the cost is O(p) at every order r.
    Preconditions are those of quadfields._applicability at order r.
    """
    _applicability(field, p, r)
    D = field.D  # even and at least 4 for every field make_field builds
    table = _factorial_table(p)
    p2 = p * p
    acc = 1
    for i in range(1, D // 2):
        if math.gcd(i, D) == 1:
            f = _ratio_factor(p, i, D, r, table)
            acc = acc * pow(f, chi(field, i), p2) % p2
    return pow(acc, p - 1, p2) == 1


def cut_point_congruence_check(p: int, n: int) -> bool:
    """Gauss-factorial congruence between the /3 and /6 cut points:

    ((p**n - 1)/3)_p!**24 = ((p**n - 1)/6)_p!**12  (mod p**n),

    for a prime p = 1 (mod 6) and n >= 1.
    """
    _check_prime(p, 6)
    if n < 1:
        raise ValueError("n must be at least 1")
    M = p**n
    if M >= 1 << 61:
        raise ValueError("p**n out of int64 range")
    third = gauss_factorial((M - 1) // 3, p, M)
    sixth = gauss_factorial((M - 1) // 6, p, M)
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
        # x!/(x - k)!: the k factors above the previous leaf (above 0 for
        # the first); math.perm splits them in halves, so a long gap is not
        # quadratic
        x = xs[j]
        gap = math.perm(x, x - (xs[j - 1] if j else 0))
        yield v * gap % tree[0][j]
        return gap
    below = tree[depth - 1]
    left, right = 2 * j, 2 * j + 1
    if right == len(below):  # odd node carried up unpaired
        return (yield from _walk(tree, xs, depth - 1, left, v, need))
    a = yield from _walk(tree, xs, depth - 1, left, v % below[left], True)
    b = yield from _walk(tree, xs, depth - 1, right, v * a % below[right], need)
    return a * b if need else None


def _cut_factorials(
    M: int, cs: Sequence[int], primes: Sequence[int]
) -> Iterator[tuple[int, list[int]]]:
    """(p, [k! mod p**2 for k = c (p-1)/M, c in cs]) per prime, in order.

    cs increases with 0 < c < M (else ValueError), so every point is below
    p - 1 and every modulus is p**2; the primes increase and are 1 (mod M).
    Each prime's leaves come in column order.
    """
    if any(not 0 < c < M for c in cs) or list(cs) != sorted(set(cs)):
        raise ValueError(f"need increasing cut points 0 < c < {M}, got {list(cs)}")
    leaves = sorted((c * (p - 1) // M, i) for c in cs for i, p in enumerate(primes))
    xs = [x for x, _ in leaves]
    owner = [i for _, i in leaves]  # leaf j belongs to primes[owner[j]]
    del leaves
    moduli = [primes[i] ** 2 for i in owner]
    found: dict[int, list[int]] = {}
    for i, r in zip(owner, _factorial_residues(xs, moduli)):
        got = found.setdefault(i, [])
        got.append(r)
        if len(got) == len(cs):
            del found[i]
            yield primes[i], got


# Lehmer (Ann. Math. 1938): 2 H_{(p-1)/m} = a q_p(2) + b q_p(3) (mod p)
_LEHMER = {2: (-4, 0), 3: (0, -3), 4: (-6, 0), 6: (-4, -3)}


def _xi_batch(m: int, primes: Sequence[int]) -> Iterator[tuple[int, int]]:
    """(p, xi) for an increasing sequence of primes p = 1 (mod m), in order.

    The xi of _xi_fq, rewritten with q_p(ab) = q_p(a) + q_p(b) as

        xi = (H_n - w_p)/m + q_p(n!)  (mod p),   n = (p-1)/m,

    and (p-1)! = prod k (p-k) over k <= h = (p-1)/2 reflects, as
    H_h = -2 q_p(2) (mod p), to (p-1)! = (-1)**h (h!)**2 (1 + 2p q_p(2)),
    so _cut_factorials gives all each prime needs, n! and h! mod p**2, in
    one pass.  H_n comes from Lehmer's congruences when m is in _LEHMER,
    for any other m from (p-1-n)! too: C(p-1, n) = (-1)**n (1 - p H_n).
    """
    M = m if m % 2 == 0 else 2 * m  # odd primes = 1 (mod m) are 1 (mod M)
    lehmer = _LEHMER.get(m)
    cs = sorted({M // m, M // 2} | ({M - M // m} if lehmer is None else set()))
    for p, facts in _cut_factorials(M, cs, primes):
        at = dict(zip(cs, facts))
        p2, n, half = p * p, (p - 1) // m, (p - 1) // 2
        fact_n, q2 = at[M // m], fermat_quotient(2, p)
        fact_p = (-1) ** half * at[M // 2] ** 2 * (1 + 2 * p * q2) % p2
        w = (fact_p + 1) // p  # Wilson quotient: (p-1)! = -1 + w p (mod p**2)
        if lehmer is None:
            binom = (-1) ** n * fact_p * pow(fact_n * at[M - M // m], -1, p2)
            h = (1 - binom) % p2 // p
        else:
            a, b = lehmer
            q3 = fermat_quotient(3, p) if b else 0  # b != 0: m in {3, 6}, p != 3
            h = (a * q2 + b * q3) * pow(2, -1, p)
        xi = (pow(m, -1, p) * (h - w) + fermat_quotient(fact_n, p)) % p
        yield p, xi


def scan_exceptional(
    m: int,
    bound: int,
    start: int = 3,
    checkpoint: str | None = None,
) -> list[ExceptionalVerdict]:
    """Test every prime p = 1 (mod m) in [start, bound] for exceptionality.

    Returns one ExceptionalVerdict per prime, in increasing order, with
    the xi of _xi_fq.  The primes are done together in one pass of
    _xi_batch, an accumulating remainder tree, rather than with O(p)
    work each.  With checkpoint set, the (p, xi) pairs found so far are
    saved after every 6400 new primes and at the end, and a rerun with
    the same m and start resumes after the last saved prime.  A rerun
    with a smaller bound returns the saved pairs with p <= bound.  A
    saved file whose pairs are not what the scan would have written
    raises CheckpointError (see _decode_scan).
    """
    if m < 2:
        raise ValueError("m must be at least 2")
    first = max(start, 3)
    if bound < first:
        raise ValueError("empty range")
    primes = list(sieve_primes(first, bound, m))
    pairs: list[tuple[int, int]] = []
    if checkpoint is not None:
        header = {"kind": "scan_exceptional", "m": m, "start": first}
        saved = _read_checkpoint(
            checkpoint, header, lambda saved: _decode_scan(saved, primes, bound)
        )
        pairs = saved or []
    todo = primes[len(pairs) :]
    for done, pair in enumerate(_xi_batch(m, todo), 1):
        pairs.append(pair)
        if checkpoint is not None and (
            done % _SCAN_CHECKPOINT_PRIMES == 0 or done == len(todo)
        ):
            _write_checkpoint(
                checkpoint,
                {
                    **header,
                    "next_start": pair[0] + 1,
                    "pairs": [list(t) for t in pairs],
                },
            )
    return [ExceptionalVerdict(p, m, 1, Residue(x, p)) for p, x in pairs]


def _decode_scan(
    saved: dict, primes: list[int], bound: int
) -> list[tuple[int, int]]:
    """The checkpoint's (p, xi) pairs with p <= bound.

    primes are the scan's primes up to bound.  ValueError unless the
    pairs' p are exactly those below the checkpoint's next_start, in
    order, and each xi lies in [0, p).
    """
    pairs = [(operator.index(p), operator.index(x)) for p, x in saved["pairs"]]
    next_start = operator.index(saved["next_start"])
    kept = [(p, x) for p, x in pairs if p <= bound]
    if [p for p, _ in kept] != primes[: bisect_left(primes, next_start)]:
        top = min(bound, next_start - 1)
        raise ValueError(f"the pairs' p are not the scan's primes up to {top}")
    for p, x in kept:
        if not 0 <= x < p:
            raise ValueError(f"xi = {x} is not in [0, {p}) at p = {p}")
    return kept
