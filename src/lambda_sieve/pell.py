"""Pell-sequence candidates: primes p with 4p in the u-sequence.

The sequence u_0 = 2, u_1 = 4, u_{n+1} = 4 u_n - u_{n-1} satisfies
u_n = (2 + sqrt 3)**n + (2 - sqrt 3)**n; for odd n it is divisible by
4.  Candidates are p = u_q / 4 at odd prime q (composite odd q always
yields a composite value, which the tests pin down).  The companion
sequence y_0 = 0, y_1 = 1 with the same recurrence gives the witness
x = (y_q - 1)/2 tying p to the Pell identity
(2p)**2 - 3 (2x + 1)**2 = 1.

The search runs the recurrence once and classifies the candidates in
order through modmath.fan_out, one process pool per search; its
checkpoint is the JSON state of the recurrence plus the records so far.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from . import _kernels
from .gaussfact import exceptional_fq
from .modmath import (
    MR_DETERMINISTIC_BOUND,
    _read_checkpoint,
    _write_checkpoint,
    fan_out,
    is_probable_prime,
)

try:
    from gmpy2 import mpz
except ImportError:  # pragma: no cover - optional speedup only
    mpz = int

__all__ = [
    "PellRecord",
    "pell_value",
    "pell_search",
    "pell_implies_nontrivial",
    "TRIAL_DIVISION_BOUND",
    "NONTRIVIAL_SIZE_GUARD",
]

TRIAL_DIVISION_BOUND = 10**6
NONTRIVIAL_SIZE_GUARD = 10**7
_CHECKPOINT_EVERY = 100


@dataclass(frozen=True)
class PellRecord:
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
    prev, cur = mpz(2), mpz(4)
    for _ in range(q - 1):
        prev, cur = cur, 4 * cur - prev
    return int(cur) // 4


_trial_blocks: list[tuple[int, ...]] | None = None
_trial_products: list[int] | None = None


def _trial_tables() -> tuple[list[tuple[int, ...]], list[int]]:
    global _trial_blocks, _trial_products
    if _trial_blocks is None:
        primes = [int(p) for p in _kernels.primes_upto(TRIAL_DIVISION_BOUND)]
        _trial_blocks = [
            tuple(primes[i : i + 64]) for i in range(0, len(primes), 64)
        ]
        _trial_products = [int(mpz(math.prod(b))) for b in _trial_blocks]
    return _trial_blocks, _trial_products


def _small_factor(n: int) -> int | None:
    """A prime divisor of n below TRIAL_DIVISION_BOUND, or None.

    Blocks of 64 primes are folded into single products so the huge
    candidate is reduced once per block, not once per prime.
    """
    blocks, products = _trial_tables()
    m = mpz(n)
    for block, prod in zip(blocks, products):
        r = int(m % prod)
        for q in block:
            if r % q == 0:
                return q
    return None


def _classify(q: int, p: int, x: int) -> PellRecord:
    digits = len(str(p))
    f = _small_factor(p)
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
    through modmath.fan_out: one pool of workers processes per search.
    With checkpoint set, the recurrence state and the records are saved
    at every index divisible by 100 and at q_bound, as soon as every
    candidate up to that index is classified, and a rerun resumes from
    the last saved index.  A rerun with a smaller q_bound returns the
    saved records with q <= q_bound.
    """
    if q_bound < 3:
        raise ValueError("q_bound must be at least 3")
    sieve = _kernels.spf_upto(q_bound)
    n = 1
    up, uc = mpz(2), mpz(4)  # u_{n-1}, u_n
    yp, yc = mpz(0), mpz(1)
    done: list[dict] = []
    if checkpoint is not None:
        saved = _read_checkpoint(checkpoint)
        if saved is not None and saved.get("kind") == "pell_search":
            n = saved["n"]
            up, uc = mpz(saved["u_prev"]), mpz(saved["u_cur"])
            yp, yc = mpz(saved["y_prev"]), mpz(saved["y_cur"])
            done = [d for d in saved["records"] if d["q"] <= q_bound]
    candidates: list[tuple[int, int, int]] = []
    marks: list[tuple[int, dict]] = []  # (records due by then, state)
    while n < q_bound:
        up, uc = uc, 4 * uc - up
        yp, yc = yc, 4 * yc - yp
        n += 1
        if n % 2 and n >= 3 and sieve[n] == n:
            candidates.append((n, int(uc) // 4, (int(yc) - 1) // 2))
        if checkpoint is not None and (n % _CHECKPOINT_EVERY == 0 or n == q_bound):
            state = {
                "kind": "pell_search",
                "n": n,
                "u_prev": str(int(up)),
                "u_cur": str(int(uc)),
                "y_prev": str(int(yp)),
                "y_cur": str(int(yc)),
            }
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


def _record_dict(r: PellRecord) -> dict:
    return {
        "q": r.q,
        "p": str(r.p_candidate),
        "digits": r.digits,
        "status": r.status,
        "x": str(r.x),
    }


def _record_from_dict(d: dict) -> PellRecord:
    return PellRecord(
        q=d["q"],
        p_candidate=int(d["p"]),
        digits=d["digits"],
        status=d["status"],
        x=int(d["x"]),
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
