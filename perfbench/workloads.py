"""The four CLI workloads and the correctness gate applied to their output.

Seed 0 runs each workload's reference argv; any other seed draws the
bound from the workload's window.  Every window lies inside a range
with no known hit beyond the ones listed, so the hit sets below hold
for every seed, and it is narrow (2-3% of the bound) so that the input
size moves wall time by only a few percent from seed to seed.

The gate checks each output against facts computed here, without the
library: the prime list from an own sieve, the hit sets, the Pell
recurrence.  `oracle` then re-checks a seeded sample of rows through an
independent route of the library, outside the timed region.
"""

from __future__ import annotations

import csv
import io
import json
import os
import random
from dataclasses import dataclass
from typing import Callable


def primes_upto(n: int) -> list[int]:
    """Sieve of Eratosthenes on a bytearray."""
    if n < 2:
        return []
    flags = bytearray([1]) * (n + 1)
    flags[0] = flags[1] = 0
    for q in range(2, int(n**0.5) + 1):
        if flags[q]:
            flags[q * q :: q] = bytes(len(range(q * q, n + 1, q)))
    return [i for i, f in enumerate(flags) if f]


def _rows(text: str, header: list[str]) -> tuple[list[list[str]], list[str]]:
    rows = list(csv.reader(io.StringIO(text)))
    if not rows or rows[0] != header:
        return [], [f"header {rows[:1]} != {header}"]
    return rows[1:], []


@dataclass(frozen=True)
class Workload:
    name: str
    bound0: int
    window: tuple[int, int]
    digest0: str  # SHA-256 of stdout at seed 0, frozen from the seed commit
    argv: Callable[[int, str], list[str]]
    items: Callable[[int], int]
    check: Callable[[int, str, str], list[str]]
    oracle: Callable[[int, str, random.Random], list[str]]

    def bound(self, seed: int) -> int:
        return self.bound0 if seed == 0 else random.Random(seed).randint(*self.window)


# --- exceptional-m3-1e5 -----------------------------------------------------

M3_HITS = {13, 181, 2521, 76543}


def _m3_primes(bound: int) -> list[int]:
    return [p for p in primes_upto(bound) if p % 3 == 1]


def _m3_check(bound: int, text: str, tmp: str) -> list[str]:
    rows, errs = _rows(text, ["p", "m", "xi", "verdict"])
    if errs:
        return errs
    if [int(r[0]) for r in rows] != _m3_primes(bound):
        return ["p column is not the primes = 1 (mod 3) up to the bound"]
    for p, m, xi, verdict in rows:
        if m != "3" or not 0 <= int(xi) < int(p) or verdict != ("true" if xi == "0" else "false"):
            return [f"bad row {p},{m},{xi},{verdict}"]
    hits = {int(r[0]) for r in rows if r[3] == "true"}
    return [] if hits == M3_HITS else [f"hits {sorted(hits)} != {sorted(M3_HITS)}"]


def _m3_oracle(bound: int, text: str, rng: random.Random) -> list[str]:
    from lambda_sieve import exceptional_direct

    rows, _ = _rows(text, ["p", "m", "xi", "verdict"])
    small = [r for r in rows if int(r[0]) < 3000]
    errs = []
    for p, _, xi, _ in rng.sample(small, 5):
        direct = exceptional_direct(int(p), 3).xi.value
        if direct != int(xi):
            errs.append(f"xi({p}) = {xi}, exceptional_direct gives {direct}")
    return errs


# --- lambda-d7-4e4 ----------------------------------------------------------

D7_HITS = {19531}


def _d7_check(bound: int, text: str, tmp: str) -> list[str]:
    rows, errs = _rows(text, ["d", "p", "method", "value"])
    if errs:
        return errs
    expected = [["7", str(p), "jacobi", "1"] for p in sorted(D7_HITS) if p <= bound]
    return [] if rows == expected else [f"rows {rows} != {expected}"]


def _d7_oracle(bound: int, text: str, rng: random.Random) -> list[str]:
    from lambda_sieve import cornacchia_gold, make_field

    field = make_field(7)
    misses = [p for p in primes_upto(bound) if p % 14 == 1 and p not in D7_HITS]
    errs = []
    for p in sorted(D7_HITS) + rng.sample(misses, 5):
        if cornacchia_gold(field, p).verdict != (p in D7_HITS):
            errs.append(f"cornacchia_gold disagrees at p = {p}")
    return errs


# --- pell-q1500-w2 ----------------------------------------------------------

PELL_SURVIVORS = (3, 5, 7, 11, 13, 17, 19, 79, 151, 199, 233, 251, 317, 863, 971)


def _pell_check(bound: int, text: str, tmp: str) -> list[str]:
    rows, errs = _rows(text, ["q", "digits", "status", "p", "x"])
    if errs:
        return errs
    if tuple(int(r[0]) for r in rows) != PELL_SURVIVORS:
        return [f"survivors {[r[0] for r in rows]} != {list(PELL_SURVIVORS)}"]
    u_prev, u = 2, 4  # u_{n+1} = 4 u_n - u_{n-1}; the candidate is u_q / 4
    n = 1
    for q, digits, status, p, x in rows:
        while n < int(q):
            u_prev, u, n = u, 4 * u - u_prev, n + 1
        pv, xv = int(p), int(x)
        want = "prime_proven_small" if int(q) <= 19 else "probable_prime"
        if pv != u // 4 or int(digits) != len(p) or status != want:
            return [f"bad row for q = {q}"]
        if (2 * pv) ** 2 - 3 * (2 * xv + 1) ** 2 != 1:
            return [f"Pell identity fails for q = {q}"]
    try:
        with open(os.path.join(tmp, "p.ckpt")) as fh:
            saved = json.load(fh)
    except (OSError, ValueError) as exc:
        return [f"checkpoint not written: {exc}"]
    if saved.get("n") != bound or len(saved.get("records", ())) != _pell_items(bound):
        return ["checkpoint does not cover every candidate"]
    return []


def _pell_items(bound: int) -> int:
    return len(primes_upto(bound)) - 1  # odd prime indices


def _no_oracle(bound: int, text: str, rng: random.Random) -> list[str]:
    return []  # every pell row is already re-derived by _pell_check


# --- euler-6e3 --------------------------------------------------------------


def _e4_primes(bound: int) -> list[int]:
    return [p for p in primes_upto(bound) if p % 4 == 1]


def _euler_check(bound: int, text: str, tmp: str) -> list[str]:
    rows, errs = _rows(text, ["p", "residue_p2", "verdict"])
    if errs:
        return errs
    if [int(r[0]) for r in rows] != _e4_primes(bound):
        return ["p column is not the primes = 1 (mod 4) up to the bound"]
    for p, r, verdict in rows:
        if verdict != "false" or not 0 < int(r) < int(p) ** 2:
            return [f"bad row {p},{r},{verdict}"]
    return []


def _euler_oracle(bound: int, text: str, rng: random.Random) -> list[str]:
    from lambda_sieve import euler_exact

    rows, _ = _rows(text, ["p", "residue_p2", "verdict"])
    sample = rng.sample([r for r in rows if int(r[0]) < 400], 5)
    exact = euler_exact(max(int(r[0]) for r in sample) - 1)
    return [
        f"E_(p-1) mod p**2 differs at p = {p}"
        for p, r, _ in sample
        if exact[int(p) - 1] % int(p) ** 2 != int(r)
    ]


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="exceptional-m3-1e5",
            bound0=100000,
            window=(98000, 100000),
            digest0="0bf7f8c0f5897bdd075a37246e28e99cd225c9187e8dd3ea74c814e6df4998c4",
            argv=lambda b, tmp: ["scan-exceptional", "--m", "3", "--bound", str(b), "--all", "--format", "csv"],
            items=lambda b: len(_m3_primes(b)),
            check=_m3_check,
            oracle=_m3_oracle,
        ),
        Workload(
            name="lambda-d7-4e4",
            bound0=40000,
            window=(39000, 40000),
            digest0="c0641fb11dfbc5c312c02d9741e6f1c632dab453db82ee1318bad0c64468b506",
            argv=lambda b, tmp: ["scan-lambda", "--d", "7", "--bound", str(b), "--format", "csv"],
            items=lambda b: sum(1 for p in primes_upto(b) if p % 14 == 1),
            check=_d7_check,
            oracle=_d7_oracle,
        ),
        Workload(
            name="pell-q1500-w2",
            bound0=1500,
            window=(1450, 1500),
            digest0="e7b90abbc1ed834303a74ea8a4da7eb01de93ba9a3c9dda1025995402cb3e88c",
            argv=lambda b, tmp: [
                "pell", "--q-bound", str(b), "--workers", "2",
                "--checkpoint", os.path.join(tmp, "p.ckpt"), "--format", "csv",
            ],
            items=_pell_items,
            check=_pell_check,
            oracle=_no_oracle,
        ),
        Workload(
            name="euler-6e3",
            bound0=6000,
            window=(5900, 6000),
            digest0="62ef098272e105aa5d36ec6593ade53edb02ea2fcb04903c78fd1b9c6c14c37b",
            argv=lambda b, tmp: ["euler-check", "--bound", str(b), "--format", "csv"],
            items=lambda b: len(_e4_primes(b)),
            check=_euler_check,
            oracle=_euler_oracle,
        ),
    )
}
