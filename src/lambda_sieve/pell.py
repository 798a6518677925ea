"""Pell-sequence candidates: primes p with 4p in the u-sequence.

The sequence u_0 = 2, u_1 = 4, u_{n+1} = 4 u_n - u_{n-1} satisfies
u_n = (2 + sqrt 3)**n + (2 - sqrt 3)**n; for odd n it is divisible by
4.  Candidates are p = u_q / 4 at odd prime q (composite odd q always
yields a composite value, which the tests pin down).  The companion
sequence y_0 = 0, y_1 = 1 with the same recurrence gives the witness
x = (y_q - 1)/2 tying p to the Pell identity
(2p)**2 - 3 (2x + 1)**2 = 1.

Trial division tries only r = 1 (mod 3) with r = +-1 (mod 4q).  With
alpha = 2 + sqrt 3 (norm 1), u_q = alpha**q + alpha**-q, so a prime
r > 3 dividing u_q has alpha**(2q) = -1 in F_r[sqrt 3].  For an odd
prime q the order of alpha is then exactly 4q (order 4 would need
alpha**2 = 7 + 4 sqrt 3 = -1, so r | 8).  If 3 is a square mod r,
alpha lies in F_r and 4q | r - 1; if not, Frobenius sends alpha to its
conjugate 1/alpha, so alpha**(r+1) = 1 and 4q | r + 1.  Either way
r = (3|r) (mod 4q): the law of apparition (D. H. Lehmer, Ann. Math. 31,
1930).  Then quadratic reciprocity fixes r mod 3: if (3|r) = 1, then
r = 1 (mod 4) and (r|3) = (3|r) = 1; if (3|r) = -1, then r = 3 (mod 4)
and (r|3) = -(3|r) = 1.  Either way r = 1 (mod 3).  Neither 2 nor 3
divides a candidate: u_q / 4 is odd, and u_n = 2, 1, 2, 1, ... (mod 3).

The search runs the recurrence once and classifies the candidates in
order through fan_out, one process pool per search.  Its checkpoint
holds what the recurrence cannot rebuild: n and the q and status of each
odd prime q <= n, about 36 bytes a candidate (44 KB at q <= 10**4, where
the format that also held p, x and the recurrence state reached 6.7 MB).
A file in that format resumes too; its other fields are dropped at the
next write.  fan_out lives here, with its one caller, so that only this
module loads the process-pool machinery; the package and the CLI import
this module on first use.
"""

from __future__ import annotations

import decimal
import math
import operator
from concurrent.futures import ProcessPoolExecutor
from collections import namedtuple
from collections.abc import Callable, Iterator, Sequence
from itertools import chain, compress, islice

from .modmath import (
    MR_DETERMINISTIC_BOUND,
    _read_checkpoint,
    _strike,
    _write_checkpoint,
    is_probable_prime,
    prime_flags,
)

__all__ = [
    "PellRecord",
    "pell_value",
    "pell_search",
    "pell_implies_nontrivial",
    "TRIAL_DIVISION_BOUND",
    "fan_out",
]

TRIAL_DIVISION_BOUND = 10**6  # the least trial bound; see _small_factor
_TRIAL_BITS_FACTOR = 10
_SIEVING_PRIMES = [*compress(range(5, 200), prime_flags(199)[5:])]
_CHECKPOINT_EVERY = 100
_STATUSES = ("prime_proven_small", "probable_prime", "composite")


class PellRecord(namedtuple("PellRecord", "q p_candidate digits status x")):
    """One candidate: p_candidate = u_q / 4 (kept as int, may be huge).

    q, digits and x are ints; status is one of _STATUSES.
    """

    __slots__ = ()


def pell_value(q: int) -> int:
    """u_q / 4 for odd q >= 1, by the integer recurrence."""
    if q < 1 or q % 2 == 0:
        raise ValueError("q must be odd and positive")
    prev, cur = 2, 4
    for _ in range(q - 1):
        prev, cur = cur, 4 * cur - prev
    return cur // 4


def _trial_tables(q: int, bound: int) -> list[int]:
    """The r in (1, bound) with r = 1 (mod 3) and r = +-1 (mod 4q), increasing,
    less those with a prime factor below 200 other than themselves.

    Each of the (one or two) progressions mod lcm(4q, 3), from its least
    member above 1, is struck by _strike with the primes 5..199, each
    from its square on: no r here is divisible by 2 or 3, so an
    r = p*j < p**2 has a prime factor of j in 5..199, which strikes it.
    Every prime divisor r < bound of u_q / 4 is in the list (module
    docstring); a composite left, a product of primes above 200, that
    divides u_q / 4 has its prime factors in the same classes and below
    it, so a search in increasing order meets a prime factor first.
    """
    step = math.lcm(4 * q, 3)
    residues = (*range(4 * q + 1, step + 2, 4 * q), *range(4 * q - 1, step, 4 * q))
    tables = [range(c, bound, step) for c in residues if c % 3 == 1]
    return sorted(chain(*(compress(t, _strike(t, _SIEVING_PRIMES)) for t in tables)))


def _small_factor(n: int, q: int) -> int | None:
    """The least prime divisor of n = u_q / 4 below the trial bound, or None.

    q must be an odd prime: then every prime divisor r of n has
    r = 1 (mod 3) and r = +-1 (mod 4q) (module docstring), and only
    those classes, two mod 12q (one mod 12 at q = 3) sieved by
    _trial_tables, are tried, in increasing order.  The bound is
    max(TRIAL_DIVISION_BOUND, 10 b**2) for a b-bit n: a composite caught
    here saves a base-2 Miller-Rabin power, whose cost grows faster with
    b than that of a trial division.  Over the candidates q <= 1500 in
    one process, 10 b**2 gave the least classify time; 3 b**2 and
    30 b**2 took 8-13% more, and 100 b**2 37% more.
    """
    bound = max(TRIAL_DIVISION_BOUND, _TRIAL_BITS_FACTOR * n.bit_length() ** 2)
    for r in _trial_tables(q, bound):
        if n % r == 0:
            return r
    return None


def _digit_count(n: int) -> int:
    """len(str(n)) for n >= 1, from the bit length and one power of 10."""
    d = int((n.bit_length() - 1) * math.log10(2)) + 1
    return d + (n >= 10**d)


def _int_to_str(n: int) -> str:
    """str(n), also past the 4300 digits where CPython's int str() stops."""
    return str(decimal.Decimal(n))


def fan_out(fn: Callable, items: Sequence, workers: int) -> Iterator:
    """fn over items, yielded in input order, in workers processes.

    With workers <= 1 this is plain map in this process; otherwise one
    ProcessPoolExecutor serves the whole sequence, so fn and the items
    must pickle.  Results stream as they complete in order, and closing
    the iterator early cancels the work not yet started and shuts the
    pool down.  The chunk size follows from the inputs: about 64 chunks
    per worker, at least one item each.  ProcessPoolExecutor is read as
    a module global at call time, so that perfbench's tracer can swap in
    its counting pool: keep its import at module level.
    """
    if workers <= 1:
        yield from map(fn, items)
        return
    chunk = max(1, len(items) // (64 * workers))
    with ProcessPoolExecutor(max_workers=workers) as pool:
        yield from pool.map(fn, items, chunksize=chunk)


def _classify(q: int, p: int, x: int) -> PellRecord:
    digits = _digit_count(p)
    f = _small_factor(p, q)
    if f is not None and f != p:
        status = "composite"
    elif not is_probable_prime(p):
        status = "composite"
    elif p < MR_DETERMINISTIC_BOUND:
        status = "prime_proven_small"
    else:
        status = "probable_prime"
    return PellRecord(q=q, p_candidate=p, digits=digits, status=status, x=x)


def _classify_args(args: tuple[int, int, int]) -> PellRecord:
    # the pool's entry point: pickled by name, it finds _classify at call
    # time, so a wrapped _classify (perfbench's tracer) still runs in workers
    return _classify(*args)


def pell_search(
    q_bound: int,
    workers: int = 1,
    checkpoint: str | None = None,
) -> list[PellRecord]:
    """Candidates p = u_q / 4 for odd prime q <= q_bound, composites dropped.

    Runs the recurrence once, then classifies the candidates at prime
    indices by trial division (_small_factor) and a primality test, in order,
    through fan_out: one pool of workers processes per search.
    With checkpoint set, the file is written at every index divisible by
    100 and at q_bound, as soon as every candidate up to that index is
    classified; a rerun classifies only the candidates past the saved
    index, and one with a smaller q_bound leaves the file as it is.
    """
    if q_bound < 3:
        raise ValueError("q_bound must be at least 3")
    n, statuses = 1, []
    if checkpoint is not None:
        saved = _read_checkpoint(checkpoint, {"kind": "pell_search"}, _decode_state)
        n, statuses = saved or (n, statuses)
    is_prime = prime_flags(q_bound)
    candidates: list[tuple[int, int, int]] = []
    marks: list[tuple[int, int]] = []  # (records due by then, index)
    up, uc = 2, 4  # u_{k-1}, u_k
    yp, yc = 0, 1
    for k in range(2, q_bound + 1):
        up, uc = uc, 4 * uc - up
        yp, yc = yc, 4 * yc - yp
        if k % 2 and is_prime[k]:
            candidates.append((k, uc // 4, (yc - 1) // 2))
        at_mark = k % _CHECKPOINT_EVERY == 0 or k == q_bound
        if checkpoint is not None and k > n and at_mark:
            marks.append((len(candidates), k))
    # the saved statuses cover the candidates with q <= n, in order
    restored = [
        PellRecord(q, p, _digit_count(p), status, x)
        for (q, p, x), status in zip(candidates, statuses)
    ]
    results = fan_out(_classify_args, candidates[len(restored) :], workers)
    records, done = chain(restored, results), []
    try:
        for due, k in marks:
            done += islice(records, due - len(done))
            kept = [{"q": r.q, "status": r.status} for r in done]
            _write_checkpoint(checkpoint, dict(kind="pell_search", n=k, records=kept))
        done += records
    finally:
        results.close()
    return [r for r in done if r.status != "composite"]


def _decode_state(saved: dict) -> tuple[int, list[str]]:
    """The checkpoint's n and the status of each odd prime q <= n, in order.

    ValueError unless the records' q are exactly those primes and every
    status is known.
    """
    n = operator.index(saved["n"])
    qs = [operator.index(d["q"]) for d in saved["records"]]
    # a prime lies in (q, 2q]: sieving past twice the last q only finds one
    # the records lack, so a forged n cannot size the sieve
    top = min(n, 2 * max(qs, default=2))
    if qs != [*compress(range(3, top + 1, 2), prime_flags(top)[3::2])]:
        raise ValueError(f"the records' q are not the odd primes up to n = {n}")
    statuses = [d["status"] for d in saved["records"]]
    for s in statuses:
        if s not in _STATUSES:
            raise ValueError(f"unknown status {s!r}")
    return n, statuses


def pell_implies_nontrivial(record: PellRecord) -> bool:
    """Gold's criterion for Q(sqrt -3) at the record's p: True iff p is non-trivial.

    alpha = (x + 1) - x omega, omega a cube root of unity, has norm
    3x**2 + 3x + 1 = p**2 and trace 3x + 2 and is prime to p, so
    (alpha) = P**2 with P over p, and alpha = 3x + 2 in the embedding into
    Z/p**2 where it is a unit.  If P = (beta), alpha = e beta**2 for a
    sixth root of unity e, e**(p-1) = 1, and squaring is a bijection on
    (1 + conj(P))/(1 + conj(P)**2), so P**2 gives P's verdict: p is
    non-trivial iff (3x + 2)**(p-1) = 1 (mod p**2), one power at every
    size.  Requires a non-composite record with p**2 = 3x**2 + 3x + 1 and
    p = 1 (mod 3).
    """
    p, x = record.p_candidate, record.x
    if record.status == "composite":
        raise ValueError("record must not be composite")
    if p * p != 3 * x * x + 3 * x + 1 or p % 3 != 1:
        raise ValueError("need p**2 = 3x**2 + 3x + 1 and p = 1 (mod 3)")
    return pow(3 * x + 2, p - 1, p * p) == 1
