"""Pell-sequence candidates: primes p with 4p in the u-sequence.

The sequence u_0 = 2, u_1 = 4, u_{n+1} = 4 u_n - u_{n-1} satisfies
u_n = (2 + sqrt 3)**n + (2 - sqrt 3)**n; for odd n it is divisible by
4.  Candidates are p = u_q / 4 at odd prime q (composite odd q always
yields a composite value, which the tests pin down).  The companion
sequence y_0 = 0, y_1 = 1 with the same recurrence gives the witness
x = (y_q - 1)/2 tying p to the Pell identity
(2p)**2 - 3 (2x + 1)**2 = 1.

Trial division tries only the primes r = +-1 (mod 4q).  With
alpha = 2 + sqrt 3 (norm 1), u_q = alpha**q + alpha**-q, so a prime
r > 3 dividing u_q has alpha**(2q) = -1 in F_r[sqrt 3].  For an odd
prime q the order of alpha is then exactly 4q (order 4 would need
alpha**2 = 7 + 4 sqrt 3 = -1, so r | 8), and it divides r - 1 or r + 1
because alpha has norm 1.  Neither 2 nor 3 divides a candidate: u_q / 4
is odd, and u_n = 2, 1, 2, 1, ... (mod 3).

The search runs the recurrence once and classifies the candidates in
order through fan_out, one process pool per search; its checkpoint is
the JSON state of the recurrence plus the records so far.  fan_out
lives here, with its one caller, so that only this module loads the
process-pool machinery; the package and the CLI import this module on
first use.
"""

from __future__ import annotations

import decimal
import math
import operator
from concurrent.futures import ProcessPoolExecutor
from functools import cache
from itertools import compress
from typing import Callable, Iterator, NamedTuple, Sequence

from .gaussfact import exceptional_fq
from .modmath import (
    MR_DETERMINISTIC_BOUND,
    _read_checkpoint,
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
    "NONTRIVIAL_SIZE_GUARD",
    "fan_out",
]

TRIAL_DIVISION_BOUND = 10**6
NONTRIVIAL_SIZE_GUARD = 10**7
_CHECKPOINT_EVERY = 100
_STATE = ("u_prev", "u_cur", "y_prev", "y_cur")  # the checkpoint's recurrence state


class PellRecord(NamedTuple):
    """One candidate: p_candidate = u_q / 4 (kept as int, may be huge)."""

    q: int
    p_candidate: int
    digits: int
    status: str  # prime_proven_small | probable_prime | composite
    x: int


def pell_value(q: int) -> int:
    """u_q / 4 for odd q >= 1, by the integer recurrence."""
    if q < 1 or q % 2 == 0:
        raise ValueError("q must be odd and positive")
    prev, cur = 2, 4
    for _ in range(q - 1):
        prev, cur = cur, 4 * cur - prev
    return cur // 4


@cache
def _trial_flags() -> bytearray:
    """prime_flags below TRIAL_DIVISION_BOUND, sieved on first use."""
    return prime_flags(TRIAL_DIVISION_BOUND - 1)


def _trial_tables(q: int) -> list[int]:
    """The primes r < TRIAL_DIVISION_BOUND with r = +-1 (mod 4q), increasing."""
    flags, step = _trial_flags(), 4 * q
    minus = compress(range(step - 1, len(flags), step), flags[step - 1 :: step])
    plus = compress(range(step + 1, len(flags), step), flags[step + 1 :: step])
    return sorted([*minus, *plus])


def _small_factor(n: int, q: int) -> int | None:
    """The least prime divisor of n = u_q / 4 below TRIAL_DIVISION_BOUND, or None.

    q must be an odd prime: then 2 + sqrt 3 has order exactly 4q modulo
    every prime divisor r of n (module docstring), so r = +-1 (mod 4q),
    and only those r, about 2/phi(4q) of the primes, are tried in order.
    """
    for r in _trial_tables(q):
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


def _str_to_int(s: str) -> int:
    """int(s) for a string of digits, also past CPython's 4300-digit int() limit."""
    if not str.isdecimal(s):
        raise ValueError(f"{s!r} is not a string of digits")
    return int(decimal.Decimal(s))


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
    indices by trial division below 10**6 and a primality test, in order,
    through fan_out: one pool of workers processes per search.
    With checkpoint set, the recurrence state and the records are saved
    at every index divisible by 100 and at q_bound, as soon as every
    candidate up to that index is classified, and a rerun resumes from
    the last saved index.  A rerun with a smaller q_bound returns the
    saved records with q <= q_bound.
    """
    if q_bound < 3:
        raise ValueError("q_bound must be at least 3")
    n = 1
    up, uc = 2, 4  # u_{n-1}, u_n
    yp, yc = 0, 1
    done: list[dict] = []
    if checkpoint is not None:
        saved = _read_checkpoint(checkpoint, {"kind": "pell_search"}, _decode_state)
        if saved is not None:
            n, (up, uc, yp, yc), records = saved
            done = [_record_dict(r) for r in records if r.q <= q_bound]
    is_prime = prime_flags(q_bound)
    candidates: list[tuple[int, int, int]] = []
    marks: list[tuple[int, dict]] = []  # (records due by then, state)
    while n < q_bound:
        up, uc = uc, 4 * uc - up
        yp, yc = yc, 4 * yc - yp
        n += 1
        if n % 2 and n >= 3 and is_prime[n]:
            candidates.append((n, uc // 4, (yc - 1) // 2))
        if checkpoint is not None and (n % _CHECKPOINT_EVERY == 0 or n == q_bound):
            state = {"kind": "pell_search", "n": n}
            state.update(zip(_STATE, map(_int_to_str, (up, uc, yp, yc))))
            marks.append((len(done) + len(candidates), state))
    results = fan_out(_classify_args, candidates, workers)
    try:
        for due, state in marks:
            while len(done) < due:
                done.append(_record_dict(next(results)))
            _write_checkpoint(checkpoint, {**state, "records": done})
        done.extend(_record_dict(r) for r in results)
    finally:
        results.close()
    return [_record_from_dict(d) for d in done if d["status"] != "composite"]


def _decode_state(saved: dict) -> tuple[int, list[int], list[PellRecord]]:
    """The checkpoint's index n, recurrence state and records, all decoded."""
    n = operator.index(saved["n"])
    state = [_str_to_int(saved[k]) for k in _STATE]
    return n, state, [_record_from_dict(d) for d in saved["records"]]


def _record_dict(r: PellRecord) -> dict:
    return {
        "q": r.q,
        "p": _int_to_str(r.p_candidate),
        "digits": r.digits,
        "status": r.status,
        "x": _int_to_str(r.x),
    }


def _record_from_dict(d: dict) -> PellRecord:
    return PellRecord(
        q=operator.index(d["q"]),
        p_candidate=_str_to_int(d["p"]),
        digits=operator.index(d["digits"]),
        status=d["status"],
        x=_str_to_int(d["x"]),
    )


def pell_implies_nontrivial(record: PellRecord) -> bool:
    """Check the implication numerically: the candidate must be exceptional.

    Requires a non-composite record with p small enough for the O(p)
    Fermat-quotient test.
    """
    if record.status == "composite":
        raise ValueError("record must not be composite")
    if record.p_candidate > NONTRIVIAL_SIZE_GUARD:
        raise ValueError(f"p exceeds the {NONTRIVIAL_SIZE_GUARD} size guard")
    return exceptional_fq(record.p_candidate, 3).verdict
