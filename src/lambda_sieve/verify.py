"""Named self-checks covering the library's cross-route invariants.

Every check recomputes the same quantity along two independent routes
(or tests a structural identity) and reports a counterexample on
failure.  `run_checks` executes them in registration order; `only`
filters by substring against the check name or its group.  The CLI
`verify` subcommand is a thin wrapper around this module.
"""

from __future__ import annotations

import math
import random
import time
from collections import namedtuple
from collections.abc import Callable
from fractions import Fraction

from .gaussfact import (
    cut_point_congruence_check,
    exceptional_direct,
    exceptional_fq,
    gauss_factorial,
    scan_exceptional,
)
from .jacobi import (
    CriterionInapplicable,
    cornacchia_gold,
    jacobi_sum_mod_p2,
    lambda_criterion_jacobi,
)
from .modmath import (
    fermat_quotient,
    harmonic_mod,
    is_probable_prime,
    sieve_primes,
    teichmuller_lift,
    wilson_quotient,
)
from .pell import pell_implies_nontrivial, pell_search, pell_value
from .quadfields import (
    character_table,
    class_number_charsum,
    class_number_forms,
    make_field,
    maximal_scan,
    s_set,
    splits,
    squarefree_values,
)
from .specialnums import (
    bernoulli_criterion,
    bernoulli_exact,
    bernoulli_poly_exact,
    euler_criterion,
    euler_exact,
    euler_mod,
    glaisher_bernoulli_identity,
    glaisher_criterion,
    glaisher_exact,
    glaisher_mod,
    raabe_identity,
)

__all__ = ["CheckResult", "run_checks", "report_lines"]

H_ONE_FIELDS = (1, 2, 3, 7, 11, 19, 43, 67, 163)
STANDARD_FIELDS = (1, 2, 3, 5, 6)


class CheckResult(namedtuple("CheckResult", "name group ok detail elapsed")):
    """One check's outcome: strs name, group and detail, the bool ok and
    elapsed seconds."""

    __slots__ = ()


_REGISTRY: list[tuple[str, str, Callable[[], tuple[bool, str]]]] = []


def _check(group: str):
    def deco(fn: Callable[[], tuple[bool, str]]):
        _REGISTRY.append((fn.__name__.strip("_").replace("_", "-"), group, fn))
        return fn

    return deco


def run_checks(only: str | None = None) -> list[CheckResult]:
    results = []
    for name, group, fn in _REGISTRY:
        if only and only not in name and only not in group:
            continue
        t0 = time.perf_counter()
        try:
            ok, detail = fn()
        except Exception as exc:  # a crash is a failure, not an abort
            ok, detail = False, f"raised {type(exc).__name__}: {exc}"
        results.append(CheckResult(name, group, ok, detail, time.perf_counter() - t0))
    return results


def report_lines(results: list[CheckResult]) -> list[str]:
    lines = []
    for r in results:
        mark = "ok  " if r.ok else "FAIL"
        lines.append(f"{mark} {r.name} ({r.group}) [{r.elapsed:.2f}s] {r.detail}")
    n_bad = sum(not r.ok for r in results)
    lines.append(f"{len(results) - n_bad}/{len(results)} checks passed")
    return lines


# ---------------------------------------------------------------- modmath


@_check("modmath")
def sieve_prime_count() -> tuple[bool, str]:
    import numpy as np

    from . import _kernels

    n = len(_kernels.primes_upto(10**5))
    if n != 9592:
        return False, f"pi(10**5) = {n}, expected 9592"
    m = sum(1 for _ in sieve_primes(3, 10**5))
    if m != 9591:
        return False, f"odd primes to 10**5 = {m}, expected 9591"
    got = sum(1 for _ in sieve_primes(3, 10**5, 3))
    want = int(np.count_nonzero(_kernels.primes_upto(10**5) % 3 == 1))
    if got != want:
        return False, f"residue-filtered count {got} != {want}"
    return True, f"pi(10**5) = {n}, filtered count {got}"


@_check("modmath")
def probable_prime_agrees_with_sieve() -> tuple[bool, str]:
    from . import _kernels

    bound = 20000
    primes = set(int(p) for p in _kernels.primes_upto(bound))
    for n in range(2, bound):
        if is_probable_prime(n) != (n in primes):
            return False, f"disagreement at n = {n}"
    hard = [
        (3215031751, False),
        (3474749660383, False),
        (341550071728321, False),
        (2**61 - 1, True),
        (2**89 - 1, True),
        (10**16 + 61, True),
    ]
    for n, expect in hard:
        if is_probable_prime(n) != expect:
            return False, f"wrong verdict for {n}"
    return True, f"exhaustive to {bound} plus {len(hard)} spot values"


@_check("modmath")
def teichmuller_fixed_point() -> tuple[bool, str]:
    for p in sieve_primes(3, 200):
        p2 = p * p
        for a in range(1, p):
            t = teichmuller_lift(a, p, 2)
            if pow(t, p, p2) != t or t % p != a:
                return False, f"k=2 failed at p={p}, a={a}"
    for p in sieve_primes(3, 50):
        p3 = p**3
        for a in range(1, p):
            t = teichmuller_lift(a, p, 3)
            if pow(t, p, p3) != t or t % p != a:
                return False, f"k=3 failed at p={p}, a={a}"
    return True, "fixed-point and reduction properties hold"


@_check("modmath")
def wilson_quotient_factorial() -> tuple[bool, str]:
    for p in sieve_primes(3, 2000):
        if gauss_factorial(p - 1, p, p) != p - 1:
            return False, f"(p-1)! != -1 mod p at p={p}"
    for p in sieve_primes(3, 500):
        w = wilson_quotient(p)
        if gauss_factorial(p - 1, p, p * p) != (w * p - 1) % (p * p):
            return False, f"quotient mismatch at p={p}"
    return True, "factorial congruences match to stated bounds"


@_check("modmath")
def harmonic_matches_exact() -> tuple[bool, str]:
    for p in sieve_primes(3, 300):
        for n in {1, 2, p // 3, p // 2, p - 2, p - 1}:
            if n < 1:
                continue
            exact = sum(Fraction(1, i) for i in range(1, n + 1))
            want = exact.numerator * pow(exact.denominator, -1, p) % p
            if harmonic_mod(n, p) != want:
                return False, f"H_{n} mod {p} = {harmonic_mod(n, p)} != {want}"
    for p in sieve_primes(5, 1000):
        if harmonic_mod(p - 1, p) != 0:
            return False, f"H_(p-1) nonzero mod p at p={p}"
    return True, "matches exact rationals; full-range sum vanishes"


@_check("modmath")
def fermat_quotient_table_agrees() -> tuple[bool, str]:
    from . import _kernels

    t5 = _kernels.fq_table(5, 4)
    if list(t5[1:5]) != [0, 3, 1, 1]:
        return False, f"p=5 table is {list(t5[1:5])}, expected [0, 3, 1, 1]"
    for p in sieve_primes(3, 500):
        table = _kernels.fq_table(p, p - 1)
        for a in range(1, p):
            if fermat_quotient(a, p) != int(table[a]):
                return False, f"table mismatch at p={p}, a={a}"
    return True, "sieve-filled tables match per-element powering"


@_check("modmath")
def fermat_quotient_rules() -> tuple[bool, str]:
    rng = random.Random(20260819)
    for p in sieve_primes(3, 200):
        for _ in range(20):
            a, b = rng.randrange(1, p), rng.randrange(1, p)
            lhs = fermat_quotient(a * b, p)
            rhs = (fermat_quotient(a, p) + fermat_quotient(b, p)) % p
            if lhs != rhs:
                return False, f"product rule fails at p={p}, a={a}, b={b}"
        for a in range(1, p):
            lhs = fermat_quotient(a + p, p)
            rhs = (fermat_quotient(a, p) - pow(a, -1, p)) % p
            if lhs != rhs:
                return False, f"shift rule fails at p={p}, a={a}"
    for p in sieve_primes(3, 50):
        p2 = p * p
        for b in range(1, p2):
            if b % p == 0:
                continue
            b0, b1 = b % p, b // p
            c = (b1 * pow(b0, -1, p) - fermat_quotient(b0, p)) % p
            if b != pow(b0, p, p2) * (1 + c * p) % p2:
                return False, f"unit decomposition fails at p={p}, b={b}"
    return True, "product, shift and unit-decomposition rules hold"


# ------------------------------------------------------------- quadfields


@_check("quadfields")
def class_number_two_routes() -> tuple[bool, str]:
    ds = squarefree_values(2000)
    for d in ds:
        field = make_field(d)
        h1 = class_number_charsum(field)
        h2 = class_number_forms(field.discriminant)
        if h1 != h2 or h1 != field.h:
            return False, f"d={d}: charsum {h1}, forms {h2}, field {field.h}"
    return True, f"{len(ds)} squarefree d agree on both routes"


@_check("quadfields")
def maximal_catalog_small() -> tuple[bool, str]:
    got = maximal_scan(2000)
    if set(got) != {1, 2, 3, 5, 6}:
        return False, f"maximal d <= 2000: {sorted(got)}"
    return True, "maximal d <= 2000 is exactly {1, 2, 3, 5, 6}"


@_check("quadfields")
def maximal_lower_half_character() -> tuple[bool, str]:
    for d in STANDARD_FIELDS:
        field = make_field(d)
        tbl = character_table(field)
        D = field.D
        for i in range(1, (D + 1) // 2):
            if math.gcd(i, D) == 1 and int(tbl[i]) != 1:
                return False, f"d={d}: chi({i}) = {int(tbl[i])}"
    return True, "all lower-half units have character +1"


@_check("quadfields")
def halfset_structure() -> tuple[bool, str]:
    for D in range(3, 101):
        phi_half = sum(1 for j in range(1, D) if math.gcd(j, D) == 1) // 2
        for i in range(1, D):
            if math.gcd(i, D) != 1:
                continue
            s = s_set(i, D)
            if len(s) != phi_half:
                return False, f"|S_{i}({D})| = {len(s)} != {phi_half}"
            for j in s:
                if 2 * ((i * j) % D) >= D:
                    return False, f"wrong member {j} in S_{i}({D})"
    return True, "sizes and membership agree for D <= 100"


# -------------------------------------------------------------- gaussfact


@_check("gaussfact")
def direct_vs_quotient_route() -> tuple[bool, str]:
    for m in (3, 4, 6):
        for p in sieve_primes(3, 2000, m):
            a = exceptional_direct(p, m)
            b = exceptional_fq(p, m)
            if int(a.xi) != int(b.xi) or a.verdict != b.verdict:
                return False, f"p={p}, m={m}: direct xi {int(a.xi)} vs {int(b.xi)}"
    return True, "exponents match exactly for m in (3, 4, 6), p <= 2000"


@_check("gaussfact")
def half_power_always_trivial() -> tuple[bool, str]:
    for p in sieve_primes(3, 500):
        if not exceptional_direct(p, 2).verdict:
            return False, f"direct m=2 verdict false at p={p}"
    for p in sieve_primes(3, 2000):
        v = exceptional_fq(p, 2)
        if not v.verdict or int(v.xi) != 0:
            return False, f"m=2 exponent {int(v.xi)} at p={p}"
    return True, "m=2 is exceptional for every odd prime tested"


@_check("gaussfact")
def sixth_vs_cubic_verdict() -> tuple[bool, str]:
    hits3, hits6 = [], []
    for p in sieve_primes(7, 2000, 6):
        a, b = exceptional_fq(p, 3), exceptional_fq(p, 6)
        if a.verdict != b.verdict:
            return False, f"m=3 and m=6 verdicts differ at p={p}"
        if a.verdict:
            hits3.append(p)
    return True, f"verdicts agree; common hits {hits3}"


@_check("gaussfact")
def cut_point_power_identity() -> tuple[bool, str]:
    for p in sieve_primes(7, 100, 6):
        for n in (1, 2, 3):
            if not cut_point_congruence_check(p, n):
                return False, f"identity fails at p={p}, n={n}"
    return True, "24th/12th power congruence holds for n <= 3"


@_check("gaussfact")
def scan_matches_single() -> tuple[bool, str]:
    hits = scan_exceptional(3, 3000)
    qs = [v.p for v in hits if v.verdict]
    if qs != [13, 181, 2521]:
        return False, f"m=3 hits to 3000: {qs}"
    for v in hits[:50]:
        if exceptional_direct(v.p, 3).verdict != v.verdict:
            return False, f"scan verdict differs from direct at p={v.p}"
    if [v.p for v in scan_exceptional(4, 3000) if v.verdict]:
        return False, "unexpected m=4 hit below 3000"
    return True, "m=3 hits to 3000 are 13, 181, 2521; no m=4 hits"


# ------------------------------------------------------------ specialnums


@_check("specialnums")
def small_values_match_exact() -> tuple[bool, str]:
    e = euler_exact(10)
    if e[:7:2] != [1, -1, 5, -61] or any(e[1::2]):
        return False, f"euler start {e[:8]}"
    g = glaisher_exact(6)
    if g[0::2] != [Fraction(1, 2), Fraction(-1, 3), Fraction(1), Fraction(-7)]:
        return False, f"glaisher start {g}"
    b = bernoulli_exact(4)
    if b != [Fraction(1), Fraction(-1, 2), Fraction(1, 6), Fraction(0), Fraction(-1, 30)]:
        return False, f"bernoulli start {b}"
    for p in (101, 997):
        modulus = p * p
        em = euler_mod(200, modulus)
        gm = glaisher_mod(200, modulus)
        ee = euler_exact(200)
        ge = glaisher_exact(200)
        for n in range(0, 201, 2):
            if em[n] != ee[n] % modulus:
                return False, f"euler mod {modulus} differs at n={n}"
            want = ge[n].numerator * pow(ge[n].denominator, -1, modulus) % modulus
            if gm[n] != want:
                return False, f"glaisher mod {modulus} differs at n={n}"
    return True, "modular sequences match exact values to n = 200"


@_check("specialnums")
def euler_vanishes_at_quarter() -> tuple[bool, str]:
    for p in sieve_primes(5, 500, 4):
        if euler_mod(p - 1, p * p)[p - 1] % p != 0:
            return False, f"E_(p-1) nonzero mod p at p={p}"
    return True, "E_(p-1) = 0 mod p for p = 1 (mod 4), p <= 500"


@_check("specialnums")
def glaisher_vanishes_at_third() -> tuple[bool, str]:
    for p in sieve_primes(7, 500, 3):
        if glaisher_mod(p - 1, p * p)[p - 1] % p != 0:
            return False, f"G_(p-1) nonzero mod p at p={p}"
    return True, "G_(p-1) = 0 mod p for p = 1 (mod 3), 7 <= p <= 500"


@_check("specialnums")
def euler_route_vs_quotient_route() -> tuple[bool, str]:
    hits = []
    for p in sieve_primes(5, 2000, 4):
        a = euler_criterion(p)
        if a != exceptional_fq(p, 4).verdict:
            return False, f"routes disagree at p={p}"
        if a:
            hits.append(p)
    return True, f"agree for p <= 2000; hits {hits}"


@_check("specialnums")
def glaisher_route_vs_quotient_route() -> tuple[bool, str]:
    hits = []
    for p in sieve_primes(7, 2000, 3):
        a = glaisher_criterion(p)
        if a != exceptional_fq(p, 3).verdict:
            return False, f"routes disagree at p={p}"
        if a:
            hits.append(p)
    if hits != [13, 181]:
        return False, f"hits to 2000: {hits}"
    return True, f"agree for p <= 2000; hits {hits}"


@_check("specialnums")
def bernoulli_route_vs_quotient_route() -> tuple[bool, str]:
    for d in (1, 3):
        field = make_field(d)
        m = field.D // 2
        for p in sieve_primes(5, 1000, field.D):
            want = exceptional_fq(p, field.D).verdict
            if bernoulli_criterion(p, field) != want:
                return False, f"d={d}, p={p}: routes disagree"
            if p <= 500:  # exact: v_p(B_p(1/m) - 2**p B_p(1/2m)) >= 3
                x = bernoulli_poly_exact(p, Fraction(1, m))
                x -= 2**p * bernoulli_poly_exact(p, Fraction(1, 2 * m))
                if (x.numerator % p**3 == 0) != want:
                    return False, f"d={d}, p={p}: exact valuation disagrees"
    return True, "polynomial route matches quotient route, p <= 1000; exact, p <= 500"


@_check("specialnums")
def bernoulli_bridge_identities() -> tuple[bool, str]:
    for n in range(0, 151, 2):
        if not glaisher_bernoulli_identity(n):
            return False, f"bridge identity fails at n={n}"
    for n in range(0, 101):
        if not raabe_identity(n):
            return False, f"multiplication identity fails at n={n}"
    return True, "both exact identities hold on the tested ranges"


# ----------------------------------------------------------------- jacobi


@_check("jacobi")
def jacobi_norm_relation() -> tuple[bool, str]:
    for D in (4, 6, 8, 20, 24):
        for p in sieve_primes(3, 500, D):
            p2 = p * p
            for i in range(1, D):
                if math.gcd(i, D) != 1:
                    continue
                prod = jacobi_sum_mod_p2(p, D, i) * jacobi_sum_mod_p2(p, D, -i) % p2
                if prod != p:
                    return False, f"norm fails at p={p}, D={D}, i={i}"
    return True, "J(i) J(-i) = p mod p**2 on all tested (p, D, i)"


@_check("jacobi")
def jacobi_equals_minus_ratio() -> tuple[bool, str]:
    from .gaussfact import _factorial_table, _ratio_factor

    for D in (4, 6, 8, 20, 24):
        for p in sieve_primes(3, 500, D):
            p2 = p * p
            table = _factorial_table(p)
            for i in range(1, (D + 1) // 2):
                if math.gcd(i, D) != 1:
                    continue
                j = jacobi_sum_mod_p2(p, D, -i)
                r = _ratio_factor(p, i, D, 1, table)
                if (j + r) % p2 != 0:
                    return False, f"sum relation fails at p={p}, D={D}, i={i}"
    return True, "lower-half sums equal minus the factorial ratio"


def lambda_routes_agree_to(bound: int) -> tuple[bool, str]:
    """Route agreement over all check-capable fields, split p <= bound.

    The ratio route's _factorial_table(p) does not depend on the field,
    so it is built once per p, at the first field that applies.
    """
    from .gaussfact import _factorial_table, exceptional_general

    fields = [make_field(d) for d in sorted(set(STANDARD_FIELDS) | set(H_ONE_FIELDS))]
    hits: dict[int, list[int]] = {field.d: [] for field in fields}
    for p in sieve_primes(3, bound):
        table = None
        for field in fields:
            try:
                v = lambda_criterion_jacobi(field, p)
            except CriterionInapplicable:
                continue
            if table is None:
                table = _factorial_table(p)
            verdicts = {"jacobi": v.verdict, "unit": cornacchia_gold(field, p).verdict}
            verdicts["ratio"] = exceptional_general(p, field, table=table)
            if field.d in (1, 3):
                verdicts["series"] = (
                    euler_criterion(p) if field.d == 1 else glaisher_criterion(p)
                )
                verdicts["poly"] = bernoulli_criterion(p, field)
            if len(set(verdicts.values())) != 1:
                return False, f"d={field.d}, p={p}: {verdicts}"
            if v.verdict:
                hits[field.d].append(p)
    found = {d: v for d, v in hits.items() if v}
    return True, f"all routes agree to {bound}; hits {found}"


@_check("jacobi")
def lambda_routes_agree() -> tuple[bool, str]:
    return lambda_routes_agree_to(2000)


@_check("jacobi")
def character_power_order() -> tuple[bool, str]:
    from .jacobi import _omega_table, _psi_power

    for p, D in ((13, 4), (13, 6), (41, 8), (61, 20), (73, 24), (1009, 24)):
        seen = set()
        for i in range(D):
            seen.add(_psi_power(p, D, i)[1:].tobytes())
        if len(seen) != D:
            return False, f"character order below {D} at p={p}"
        ones = _psi_power(p, D, D)[1:]
        if not bool((ones == 1).all()):
            return False, f"psi**D is not trivial at p={p}"
        t = _omega_table(p)
        p2 = p * p
        for a in range(1, p):
            w = int(t[a])
            if pow(w, p, p2) != w or w % p != a:
                return False, f"unit table wrong at p={p}, a={a}"
    return True, "generator has exact order D; unit table is fixed"


@_check("jacobi")
def embedding_root_independence() -> tuple[bool, str]:
    for d in H_ONE_FIELDS + (5,):
        field = make_field(d)
        for p in sieve_primes(3, 300):
            if field.D % p == 0 or not splits(field, p):
                continue
            v1 = cornacchia_gold(field, p)
            # recover a root explicitly, then flip its sign
            p2 = p * p
            root = None
            for s0 in range(1, p):
                if (s0 * s0 + d) % p == 0:
                    root = (s0 - (s0 * s0 + d) * pow(2 * s0, -1, p2)) % p2
                    break
            v2 = cornacchia_gold(field, p, root=p2 - root)
            if v1.verdict != v2.verdict or v1.criterion_value != v2.criterion_value:
                return False, f"root choice changes outcome at d={d}, p={p}"
    return True, "both square roots give identical criterion values"


@_check("jacobi")
def criterion_value_is_unit_power() -> tuple[bool, str]:
    for d in STANDARD_FIELDS:
        field = make_field(d)
        for p in sieve_primes(3, 500):
            try:
                v = lambda_criterion_jacobi(field, p)
            except CriterionInapplicable:
                continue
            if v.criterion_value % p != 1:
                return False, f"value not 1 mod p at d={d}, p={p}"
    return True, "criterion values are principal units mod p"


# ------------------------------------------------------------------- pell


@_check("pell")
def pell_recurrence_identity() -> tuple[bool, str]:
    up, uc, yp, yc = 2, 4, 0, 1
    for n in range(1, 400):
        if uc * uc - 12 * yc * yc != 4:
            return False, f"quadratic identity fails at n={n}"
        if n % 2 and uc % 4:
            return False, f"odd-index value not divisible by 4 at n={n}"
        up, uc = uc, 4 * uc - up
        yp, yc = yc, 4 * yc - yp
    for r in pell_search(100):
        if (2 * r.p_candidate) ** 2 - 3 * (2 * r.x + 1) ** 2 != 1:
            return False, f"witness identity fails at q={r.q}"
    return True, "u**2 - 12 y**2 = 4 and the witness identity hold"


@_check("pell")
def pell_prime_index_values() -> tuple[bool, str]:
    known = {
        3: 13,
        5: 181,
        7: 2521,
        11: 489061,
        13: 6811741,
        17: 1321442641,
        19: 18405321661,
        79: 381765135195632792959100810331957408101589361,
    }
    recs = pell_search(100)
    got = {r.q: r.p_candidate for r in recs}
    if got != known:
        return False, f"q <= 100 survivors {sorted(got)}"
    for q in (9, 15, 21, 25, 27, 33):
        if is_probable_prime(pell_value(q)):
            return False, f"composite index q={q} gave a prime"
    return True, "q <= 100 survivors and composite-index values as expected"


@_check("pell")
def pell_implies_exceptional() -> tuple[bool, str]:
    recs = pell_search(300)
    for r in recs:
        if not pell_implies_nontrivial(r):
            return False, f"candidate at q={r.q} is not exceptional"
        if not cornacchia_gold(make_field(3), r.p_candidate).verdict:
            return False, f"Gold's route disagrees at q={r.q}"
    return True, f"all {len(recs)} survivors with q <= 300 are exceptional by both routes"


# -------------------------------------------------------------------- cli


@_check("cli")
def cli_byte_determinism() -> tuple[bool, str]:
    import contextlib
    import io

    from .cli import main

    outs = []
    for fmt in ("csv", "json"):
        pair = []
        for workers in ("1", "2"):
            buf = io.StringIO()
            with contextlib.redirect_stdout(buf):
                rc = main(
                    ["pell", "--q-bound", "100", "--workers", workers, "--format", fmt]
                )
            if rc != 0:
                return False, f"pell exited {rc} with workers={workers}"
            pair.append(buf.getvalue())
        if pair[0] != pair[1]:
            return False, f"{fmt} output differs between worker counts"
        outs.append(pair[0])
    return True, "csv and json outputs are worker-count independent"
