import json
import math
import random
import subprocess
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lambda_sieve import gaussfact
from lambda_sieve.gaussfact import (
    _LEHMER,
    _block_gauss_factorial,
    _cut_factorials,
    _factorial_table,
    _ratio_factor,
    _xi_batch,
    _xi_fq,
    cut_point_congruence_check,
    exceptional_direct,
    exceptional_fq,
    exceptional_general,
    gauss_factorial,
    scan_exceptional,
)
from lambda_sieve.jacobi import cornacchia_gold
from lambda_sieve.modmath import fermat_quotient, harmonic_mod, sieve_primes
from lambda_sieve.quadfields import CriterionInapplicable, make_field, splits


def reference_gauss_factorial(N, n, modulus):
    acc = 1
    for i in range(1, N + 1):
        if math.gcd(i, n) == 1:
            acc = acc * i % modulus
    return acc


class TestGaussFactorial:
    @given(
        st.integers(min_value=0, max_value=4000),
        st.integers(min_value=1, max_value=60),
        st.integers(min_value=2, max_value=10**9),
    )
    @settings(max_examples=150)
    def test_matches_reference(self, N, n, modulus):
        got = gauss_factorial(N, n, modulus)
        assert type(got) is int and got == reference_gauss_factorial(N, n, modulus)

    def test_wilson(self):
        for p in sieve_primes(3, 500):
            assert gauss_factorial(p - 1, p, p) == p - 1

    def test_rejects_bad_args(self):
        with pytest.raises(ValueError):
            gauss_factorial(-1, 5, 7)
        with pytest.raises(ValueError):
            gauss_factorial(10, 5, 1)
        with pytest.raises(ValueError):
            gauss_factorial(1 << 62, 5, 7)
        for n in (0, -3):  # gcd(i, 0) = i: no i >= 2 is coprime to 0
            with pytest.raises(ValueError):
                gauss_factorial(10, n, 1000003)


# exponents pinned by two independent routes (big product vs quotient sums)
FROZEN_XI = {
    (7, 3): 2, (13, 3): 0, (19, 3): 6, (31, 3): 16, (37, 3): 12,
    (43, 3): 33, (61, 3): 20,
    (5, 4): 4, (13, 4): 12, (17, 4): 4, (29, 4): 18,
    (13, 6): 0, (19, 6): 12,
}


class TestExceptionality:
    def test_frozen_exponents(self):
        for (p, m), xi in FROZEN_XI.items():
            assert int(exceptional_direct(p, m).xi) == xi
            assert int(exceptional_fq(p, m).xi) == xi

    def test_routes_agree_exactly(self):
        for m in (3, 4, 5, 6, 8, 12):
            for p in sieve_primes(3, 700, m):
                a = exceptional_direct(p, m)
                b = exceptional_fq(p, m)
                assert int(a.xi) == int(b.xi)
                assert a.verdict == b.verdict == (int(a.xi) == 0)

    def test_half_case_always_holds(self):
        for p in sieve_primes(3, 1000):
            v = exceptional_fq(p, 2)
            assert v.verdict and int(v.xi) == 0

    def test_verdict_membership(self):
        v = exceptional_fq(13, 3)
        assert (v.p, v.m, v.alpha, v.verdict) == (13, 3, 1, True)
        assert not exceptional_fq(7, 3).verdict

    def test_requires_matching_residue(self):
        with pytest.raises(ValueError):
            exceptional_fq(11, 3)  # 11 is not 1 mod 3
        with pytest.raises(ValueError):
            exceptional_direct(4, 3)

    def test_deeper_levels_direct(self):
        # alpha = 2 compared against a plain big-int reference product
        for p, m in ((7, 3), (13, 3), (13, 4)):
            v = exceptional_direct(p, m, alpha=2)
            M = p**3
            ref = reference_gauss_factorial((M - 1) // m, p, M)
            assert int(v.xi) == (pow(ref, p - 1, M) - 1) // p % (p * p)

    def test_level_two_implies_level_one(self):
        for p in sieve_primes(3, 300, 3):
            if exceptional_direct(p, 3, alpha=2).verdict:
                assert exceptional_direct(p, 3, alpha=1).verdict


class TestRatioRoute:
    def test_matches_quotient_route(self):
        # the maximal fields of D = 4, 6, 8
        for d in (1, 3, 2):
            f = make_field(d)
            for p in sieve_primes(3, 500, f.D):
                assert exceptional_general(p, f) == exceptional_fq(p, f.D).verdict

    def test_general_route_standard_fields(self):
        for d in (1, 3):
            f = make_field(d)
            for p in sieve_primes(5, 500, f.D):
                assert exceptional_general(p, f) == exceptional_fq(p, f.D).verdict

    def test_higher_power_residue_accepted(self):
        # 3 has order 4 mod 20, so r = 4 applies to d = 5
        f = make_field(5)
        assert exceptional_general(3, f, r=4) == cornacchia_gold(f, 3).verdict
        with pytest.raises(ValueError):
            exceptional_general(3, f, r=1)

    def test_block_formula_is_the_gauss_factorial(self):
        # N_p! = ((p-1)!)**Q R! (1 + Q p H_R) (mod p**2), N = Q p + R: every
        # N of the first three blocks and past them, and cut points past p
        for p in sieve_primes(3, 400):
            p2, table = p * p, _factorial_table(p)
            cuts = [(p2 - 1) // m for m in (3, 4, 6) if (p2 - 1) % m == 0]
            for N in [*range(3 * p + 3), *cuts]:
                got = _block_gauss_factorial(N, p, table)
                assert got == gauss_factorial(N, p, p2), (p, N)

    def test_ratio_factor_is_the_factorial_ratio(self):
        for D in (4, 6, 8, 20, 24):
            for p in sieve_primes(3, 500, D):
                p2, table = p * p, _factorial_table(p)
                for i in range(1, D // 2):
                    if math.gcd(i, D) != 1:
                        continue
                    half = gauss_factorial(i * (p2 - 1) // (D // 2), p, p2)
                    full = gauss_factorial(i * (p2 - 1) // D, p, p2)
                    want = half * pow(full, -2, p2) % p2
                    assert _ratio_factor(p, i, D, 1, table) == want, (D, p, i)

    # the hits (p, r) of the order-r criterion on every split p <= 5000
    ORDER_R_HITS = {
        2: [], 5: [], 6: [(131, 2)], 7: [], 10: [], 11: [(5, 5)],
        13: [(113, 3)], 14: [(3, 6)], 15: [(1741, 1)], 21: [(107, 6), (173, 6)],
        23: [],
    }

    def test_order_r_criterion_is_golds(self):
        # every split p not dividing h, at r = the order of p mod D: the
        # ratio route's verdict is Gold's, past p**(2r) = 2**61 too
        hits, refused = {}, []
        for d in self.ORDER_R_HITS:
            f = make_field(d)
            hits[d] = []
            for p in sieve_primes(3, 5000):
                if f.D % p == 0 or f.h % p == 0 or not splits(f, p):
                    continue
                r = next(k for k in range(1, f.D) if pow(p, k, f.D) == 1)
                try:
                    verdict = exceptional_general(p, f, r)
                except CriterionInapplicable:
                    refused.append((d, p))
                    continue
                assert verdict == cornacchia_gold(f, p).verdict, (d, p, r)
                if verdict:
                    hits[d].append((p, r))
        assert hits == self.ORDER_R_HITS
        assert refused == [(11, 3)]  # p = 3 with chi(2) = -1

    def test_runs_without_numpy(self):
        script = """
import sys
from lambda_sieve.gaussfact import exceptional_general
from lambda_sieve.quadfields import make_field
assert exceptional_general(5881, make_field(5))
assert exceptional_general(173, make_field(21), 6)
loaded = sorted(m for m in sys.modules if m.split(".")[0] == "numpy")
assert not loaded, loaded
"""
        proc = subprocess.run(
            [sys.executable, "-c", script], capture_output=True, text=True, timeout=120
        )
        assert proc.returncode == 0, proc.stderr


class TestCutPointIdentity:
    def test_holds_everywhere(self):
        for p in sieve_primes(7, 150, 6):
            for n in (1, 2, 3):
                assert cut_point_congruence_check(p, n)

    def test_guards(self):
        with pytest.raises(ValueError):
            cut_point_congruence_check(11, 1)
        with pytest.raises(ValueError):
            cut_point_congruence_check(13, 0)


class TestScan:
    def test_known_hits(self):
        hits = [v.p for v in scan_exceptional(3, 3000) if v.verdict]
        assert hits == [13, 181, 2521]

    def test_rows_are_all_residue_primes(self):
        rows = scan_exceptional(3, 500)
        assert [v.p for v in rows] == list(sieve_primes(3, 500, 3))
        for v in rows:
            assert v.verdict == (int(v.xi) == 0)

    def test_start_offset(self):
        full = scan_exceptional(3, 2000)
        tail = scan_exceptional(3, 2000, start=100)
        assert tail == [v for v in full if v.p >= 100]

    def test_checkpoint_resume(self, tmp_path):
        cp = tmp_path / "state.json"
        full = scan_exceptional(3, 4000)
        scan_exceptional(3, 2000, checkpoint=str(cp))
        state = json.loads(cp.read_text())
        assert state["kind"] == "scan_exceptional" and state["m"] == 3
        assert state["next_start"] == 2000
        # replay without new primes, then extend past the stored point
        assert scan_exceptional(3, 2000, checkpoint=str(cp)) == [
            v for v in full if v.p <= 2000
        ]
        assert scan_exceptional(3, 4000, checkpoint=str(cp)) == full
        # a different m must not pick up the stored pairs
        assert scan_exceptional(4, 2000, checkpoint=str(cp)) == scan_exceptional(4, 2000)

    def test_resume_past_bound(self, tmp_path):
        # the saved next_start (2522) lies beyond both rerun bounds
        cp = tmp_path / "state.json"
        full = scan_exceptional(3, 2521, checkpoint=str(cp))
        assert json.loads(cp.read_text())["next_start"] == 2522
        assert scan_exceptional(3, 2521, checkpoint=str(cp)) == full
        assert scan_exceptional(3, 2000, checkpoint=str(cp)) == [
            v for v in full if v.p <= 2000
        ]

    def test_interrupted_scan_resumes(self, tmp_path, monkeypatch):
        class Killed(Exception):
            pass

        cp = tmp_path / "state.json"
        write = gaussfact._write_checkpoint
        written = []

        def write_then_die(path, payload):
            write(path, payload)
            written.append(payload["next_start"])
            if len(written) == 2:
                raise Killed

        monkeypatch.setattr(gaussfact, "_SCAN_CHECKPOINT_PRIMES", 50)
        monkeypatch.setattr(gaussfact, "_write_checkpoint", write_then_die)
        with pytest.raises(Killed):
            scan_exceptional(3, 4000, checkpoint=str(cp))
        assert len(json.loads(cp.read_text())["pairs"]) == 100
        monkeypatch.undo()
        assert scan_exceptional(3, 4000, checkpoint=str(cp)) == scan_exceptional(3, 4000)


def _xi_reference(m, bound):
    return [(p, _xi_fq(p, m)) for p in sieve_primes(3, bound, m)]


def _pairs(rows):
    return [(v.p, int(v.xi)) for v in rows]


class TestBatchedXi:
    @pytest.mark.parametrize("m", [2, 3, 4, 5, 6, 7, 8, 12])
    def test_equals_single_prime_route(self, m, tmp_path):
        ref = _xi_reference(m, 20000)
        assert list(_xi_batch(m, [p for p, _ in ref])) == ref
        tail = scan_exceptional(m, 20000, start=7919)
        assert _pairs(tail) == [(p, x) for p, x in ref if p >= 7919]
        cp = str(tmp_path / "state.json")
        scan_exceptional(m, 9000, checkpoint=cp)
        assert _pairs(scan_exceptional(m, 20000, checkpoint=cp)) == ref

    def test_lehmer_harmonic_congruences(self):
        for m, (a, b) in _LEHMER.items():
            for p in sieve_primes(3, 3000, m):
                twice_h = a * fermat_quotient(2, p)
                if b:
                    twice_h += b * fermat_quotient(3, p)
                assert harmonic_mod((p - 1) // m, p) == twice_h * pow(2, -1, p) % p

    def test_empty_and_single(self):
        assert list(_xi_batch(3, [])) == []
        assert list(_xi_batch(5, [11])) == [(11, _xi_fq(11, 5))]

    def test_range_prod_is_the_product(self):
        split = gaussfact._RANGE_PROD_SPLIT
        for lo in (1, 2, 97, 10**5):
            for n in [0, 1, 2, 3 * split, 1000, *range(split - 3, split + 4)]:
                assert gaussfact._range_prod(lo, lo + n) == math.prod(range(lo, lo + n))

    def test_high_start_scan(self):
        # the first gap, 1..(start - 1)/3, is one long leaf product
        rows = scan_exceptional(3, 302000, start=300000)
        assert [v.p for v in rows] == list(sieve_primes(300000, 302000, 3))
        for v in random.Random(0).sample(rows, 8):
            assert int(v.xi) == _xi_fq(v.p, 3), v.p

    @pytest.mark.extended
    @pytest.mark.parametrize("m", [3, 4, 6])
    def test_equals_single_prime_route_to_1e5(self, m):
        ref = _xi_reference(m, 10**5)
        assert list(_xi_batch(m, [p for p, _ in ref])) == ref

    @pytest.mark.extended
    def test_equals_single_prime_route_near_1e6(self):
        # the top of the range, which the 10**5 tests do not reach; _xi_fq
        # costs about 61 ms a prime here, so it checks a seeded sample
        primes = list(sieve_primes(10**6 - 2 * 10**4, 10**6, 3))
        got = dict(_xi_batch(3, primes))
        assert list(got) == primes
        for p in random.Random(0).sample(primes, 40):
            assert got[p] == _xi_fq(p, 3), p


class TestReflection:
    """The two identities that keep every tree point k! at k < p - 1, mod p**2."""

    def test_wilson_from_half_factorial(self):
        # (p-1)! = (-1)**h (h!)**2 (1 + 2p q_p(2)) (mod p**2), h = (p-1)/2
        for p in sieve_primes(3, 5000):
            p2, h = p * p, (p - 1) // 2
            fact_h = math.prod(range(1, h + 1)) % p2
            fact_p = fact_h * math.prod(range(h + 1, p)) % p2
            q2 = fermat_quotient(2, p)
            assert fact_p == (-1) ** h * fact_h**2 * (1 + 2 * p * q2) % p2, p

    @pytest.mark.parametrize("p", [3, 5, 7, 101, 7919])
    def test_binomial_gives_harmonic_number(self, p):
        # C(p-1, k) = (p-1)!/(k! (p-1-k)!) = (-1)**k (1 - p H_k) (mod p**2)
        p2 = p * p
        facts = [1]
        for k in range(1, p):
            facts.append(facts[-1] * k % p2)
        for k in range(p):
            binom = facts[p - 1] * pow(facts[k] * facts[p - 1 - k], -1, p2) % p2
            assert binom == (-1) ** k * (1 - p * harmonic_mod(k, p)) % p2, k

    def test_cut_factorials_are_the_factorials(self):
        primes = list(sieve_primes(3, 2000, 12))
        cs = [1, 5, 6, 11]
        got = list(_cut_factorials(12, cs, primes))
        assert [p for p, _ in got] == primes
        for p, facts in got:
            ks = [c * (p - 1) // 12 for c in cs]
            assert facts == [math.factorial(k) % (p * p) for k in ks], p

    @pytest.mark.parametrize("cs", [[0, 1], [1, 4], [1, 5], [2, 1], [1, 1]])
    def test_cut_points_must_lie_below_p_minus_one(self, cs):
        # 0 < c < M, increasing: every point is below p - 1, every modulus p**2
        with pytest.raises(ValueError):
            next(_cut_factorials(4, cs, [5, 13]))
