"""End-to-end reproduction gates.

Each test re-derives one headline table or congruence at its published
scale, asserts the result exactly, and prints a PASS/FAIL line with the
elapsed time.  The lines bypass pytest's capture so they show up even
without -s.

The long reproduction jobs (the 5*10^5 scan, and anything beyond) carry
the "extended" marker and are excluded from the default run; select them
with `pytest -m extended`.
"""

from __future__ import annotations

import csv
import io
import time
from contextlib import redirect_stdout

import pytest

from lambda_sieve.cli import main
from lambda_sieve.gaussfact import exceptional_fq, scan_exceptional
from lambda_sieve.modmath import sieve_primes
from lambda_sieve.pell import pell_implies_nontrivial, pell_search
from lambda_sieve.quadfields import (
    class_number_charsum,
    class_number_forms,
    make_field,
    maximal_scan,
    squarefree_values,
)
from lambda_sieve.specialnums import euler_criterion, euler_mod, residues_from_xi
from lambda_sieve.verify import lambda_routes_agree_to, run_checks


def _report(capsys, name: str, ok: bool, elapsed: float, detail: str = "") -> None:
    line = f"{'PASS' if ok else 'FAIL'}  {name}  [{elapsed:.1f}s]"
    if detail:
        line += f"  {detail}"
    with capsys.disabled():
        print(line, flush=True)


def _cli_csv(argv: list[str]) -> list[list[str]]:
    buf = io.StringIO()
    with redirect_stdout(buf):
        rc = main(argv)
    assert rc == 0
    return list(csv.reader(io.StringIO(buf.getvalue())))


# ----------------------------------------------------------------------
# cubic and quartic exceptional-prime scans


M3_HITS = {13, 181, 2521, 76543}
M3_EXTENDED_HITS = M3_HITS | {489061}
M4_HITS = {29789}


def test_m3_scan_finds_known_exceptional_primes(capsys):
    t0 = time.perf_counter()
    hits = {v.p for v in scan_exceptional(3, 10**5) if v.verdict}
    dt = time.perf_counter() - t0
    ok = hits == M3_HITS and dt < 60.0
    _report(capsys, "m3-scan-1e5", ok, dt, f"hits={sorted(hits)}")
    assert hits == M3_HITS
    assert dt < 60.0


def test_m4_scan_finds_known_exceptional_prime(capsys):
    t0 = time.perf_counter()
    hits = {v.p for v in scan_exceptional(4, 10**5) if v.verdict}
    dt = time.perf_counter() - t0
    ok = hits == M4_HITS and dt < 60.0
    _report(capsys, "m4-scan-1e5", ok, dt, f"hits={sorted(hits)}")
    assert hits == M4_HITS
    assert dt < 60.0


@pytest.mark.extended
def test_m3_scan_extended_bound(capsys):
    t0 = time.perf_counter()
    hits = {v.p for v in scan_exceptional(3, 5 * 10**5) if v.verdict}
    dt = time.perf_counter() - t0
    ok = hits == M3_EXTENDED_HITS
    _report(capsys, "m3-scan-5e5", ok, dt, f"hits={sorted(hits)}")
    assert hits == M3_EXTENDED_HITS


# ----------------------------------------------------------------------
# Euler-number route for d = 1


def test_euler_numbers_vanish_only_at_29789(capsys):
    # the big instance first: E_29788 = 0 (mod 29789^2), budgeted separately
    t0 = time.perf_counter()
    big = euler_criterion(29789)
    dt_big = time.perf_counter() - t0
    # every other p = 1 (mod 4) up to 3*10^4 must give a nonzero residue,
    # the same residue as Gold's criterion for Q(i) behind euler-check
    t0 = time.perf_counter()
    from_xi = residues_from_xi(4, 3 * 10**4)
    assert [p for p, _ in from_xi] == list(sieve_primes(5, 3 * 10**4, 4))
    stray = []
    for p, r in from_xi:
        if p == 29789:
            assert r == 0
            continue
        series = int(euler_mod(p - 1, p * p)[p - 1])
        assert series == r, p
        if series == 0:
            stray.append(p)
    dt = dt_big + (time.perf_counter() - t0)
    ok = big and not stray and dt_big < 900.0
    _report(capsys, "euler-vanishing", ok, dt, f"instance={dt_big:.2f}s stray={stray}")
    assert big
    assert stray == []
    assert dt_big < 900.0


def _residue_zeros(m: int, bound: int) -> set[int]:
    return {p for p, r in residues_from_xi(m, bound) if r == 0}


def test_residues_vanish_at_the_scan_hits_to_1e6(capsys):
    # E_{p-1} = 0 and G_{p-1} = 0 (mod p^2) exactly at the non-trivial primes
    # of Q(i) and Q(sqrt(-3)): the scan-exceptional hits to 10^6
    t0 = time.perf_counter()
    euler, glaisher = _residue_zeros(4, 10**6), _residue_zeros(3, 10**6)
    dt = time.perf_counter() - t0
    ok = euler == M4_HITS and glaisher == M3_EXTENDED_HITS
    _report(capsys, "residue-zeros-1e6", ok, dt, f"E={sorted(euler)} G={sorted(glaisher)}")
    assert euler == M4_HITS
    assert glaisher == M3_EXTENDED_HITS


@pytest.mark.extended
def test_residues_vanish_at_the_scan_hits_to_1e7(capsys):
    t0 = time.perf_counter()
    euler, glaisher = _residue_zeros(4, 10**7), _residue_zeros(3, 10**7)
    dt = time.perf_counter() - t0
    ok = euler == M4_HITS and glaisher == M3_EXTENDED_HITS | {6811741}
    _report(capsys, "residue-zeros-1e7", ok, dt, f"E={sorted(euler)} G={sorted(glaisher)}")
    assert euler == M4_HITS
    assert glaisher == M3_EXTENDED_HITS | {6811741}
    # the new zero, by the O(p) Fermat-quotient route
    assert exceptional_fq(6811741, 3).verdict


# ----------------------------------------------------------------------
# Glaisher residue table for d = 3

# (p, G_{p-1} mod p, G_{p-1} mod p^2) for the twenty primes p = 1 (mod 3)
# in [7, 193].  The published table prints 434 in the p = 31 row, but the
# defining series (3/2)/(e^x + e^(-x) + 1) gives
# G_30 = -51215766794507248883047, whose residue mod 961 is 527 (checked
# against an independent symbolic series expansion); 434 = 14*31 against
# 527 = 17*31 looks like a slip in the final reduction, so 527 is frozen
# here.  Every other row matches the published value.
GLAISHER_ROWS = [
    (7, 0, 42),
    (13, 0, 0),
    (19, 0, 342),
    (31, 0, 527),
    (37, 0, 1332),
    (43, 0, 559),
    (61, 0, 3660),
    (67, 0, 3685),
    (73, 0, 803),
    (79, 0, 2844),
    (97, 0, 1940),
    (103, 0, 1133),
    (109, 0, 7521),
    (127, 0, 16002),
    (139, 0, 5282),
    (151, 0, 15855),
    (157, 0, 785),
    (163, 0, 24939),
    (181, 0, 0),
    (193, 0, 26441),
]


def test_glaisher_table_rows_exact(capsys):
    t0 = time.perf_counter()
    rows = _cli_csv(["glaisher-table", "--bound", "193", "--format", "csv"])
    dt = time.perf_counter() - t0
    assert rows[0] == ["p", "residue_p", "residue_p2", "verdict"]
    got = [(int(r[0]), int(r[1]), int(r[2])) for r in rows[1:]]
    verdicts = [r[3] for r in rows[1:]]
    ok = got == GLAISHER_ROWS and dt < 5.0
    _report(capsys, "glaisher-table", ok, dt, f"rows={len(got)}")
    assert got == GLAISHER_ROWS
    # the residue vanishes mod p^2 exactly at the two exceptional primes
    assert verdicts == ["true" if p in (13, 181) else "false" for p, _, _ in GLAISHER_ROWS]
    assert dt < 5.0


# ----------------------------------------------------------------------
# Pell search for primes with p^2 = 3x^2 + 3x + 1

PELL_ROWS = [
    (3, 13),
    (5, 181),
    (7, 2521),
    (11, 489061),
    (13, 6811741),
    (17, 1321442641),
    (19, 18405321661),
    (79, 381765135195632792959100810331957408101589361),
]

PELL_EXTENDED_Q = [151, 199, 233, 251, 317, 863, 971]


def test_pell_search_survivor_table(capsys):
    t0 = time.perf_counter()
    recs = pell_search(79)
    got = [(r.q, r.p_candidate) for r in recs]
    long = pell_search(1000)
    dt = time.perf_counter() - t0
    extra = [r.q for r in long if r.q > 79]
    ok = got == PELL_ROWS and extra == PELL_EXTENDED_Q and dt < 120.0
    _report(capsys, "pell-search", ok, dt, f"q={[q for q, _ in got] + extra}")
    assert got == PELL_ROWS
    assert recs[-1].digits == 45
    assert extra == PELL_EXTENDED_Q
    assert dt < 120.0


def test_pell_primes_are_exceptional_for_m3(capsys):
    t0 = time.perf_counter()
    recs = pell_search(13)
    verdicts = {r.p_candidate: pell_implies_nontrivial(r) for r in recs}
    dt = time.perf_counter() - t0
    ok = all(verdicts.values()) and len(verdicts) == 5 and dt < 30.0
    _report(capsys, "pell-implies-exceptional", ok, dt, f"primes={sorted(verdicts)}")
    assert all(verdicts.values()), verdicts
    assert sorted(verdicts) == [13, 181, 2521, 489061, 6811741]
    assert dt < 30.0


# ----------------------------------------------------------------------
# class numbers and the maximal catalog


def test_maximal_class_number_catalog(capsys):
    t0 = time.perf_counter()
    maximal = maximal_scan(10**4)
    mismatches = []
    for d in squarefree_values(10**4):
        if d in (1, 3):  # unit count is 4 resp. 6, charsum formula assumes 2
            continue
        field = make_field(d)
        if class_number_forms(field.discriminant) != class_number_charsum(field):
            mismatches.append(d)
    dt = time.perf_counter() - t0
    ok = maximal == [1, 2, 3, 5, 6] and not mismatches and dt < 120.0
    _report(capsys, "class-numbers-1e4", ok, dt, f"maximal={maximal}")
    assert maximal == [1, 2, 3, 5, 6]
    assert mismatches == []
    assert dt < 120.0


# ----------------------------------------------------------------------
# cross-route agreement and the invariant battery


def test_all_detection_routes_agree(capsys):
    t0 = time.perf_counter()
    ok, detail = lambda_routes_agree_to(2000)
    dt = time.perf_counter() - t0
    ok = ok and dt < 300.0
    _report(capsys, "route-agreement-2000", ok, dt, detail)
    assert ok, detail
    assert dt < 300.0


@pytest.mark.extended
def test_all_detection_routes_agree_to_2e4(capsys):
    # past verify's bound of 2000: 19531, the first hit for d = 7, joins
    t0 = time.perf_counter()
    ok, detail = lambda_routes_agree_to(2 * 10**4)
    dt = time.perf_counter() - t0
    want = "all routes agree to 20000; hits {3: [13, 181, 2521], 5: [5881], 7: [19531]}"
    ok = ok and detail == want
    _report(capsys, "route-agreement-2e4", ok, dt, detail)
    assert ok, detail


def test_invariant_battery_green(capsys):
    t0 = time.perf_counter()
    results = run_checks()
    dt = time.perf_counter() - t0
    failed = [r.name for r in results if not r.ok]
    ok = not failed
    _report(capsys, "invariant-battery", ok, dt, f"{len(results)} checks")
    assert failed == [], failed
