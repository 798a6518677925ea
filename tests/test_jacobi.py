import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import lambda_sieve.jacobi as jacobi_mod
from lambda_sieve.gaussfact import _xi_batch, exceptional_fq, exceptional_general
from lambda_sieve.jacobi import (
    CriterionInapplicable,
    cornacchia_gold,
    jacobi_sum_mod_p2,
    lambda_criterion_jacobi,
    scan_lambda,
)
from lambda_sieve.modmath import sieve_primes
from lambda_sieve.quadfields import character_table, make_field, splits


def reference_jacobi_sum(p, D, i):
    """Definitional double loop, no vectorization shared with the library."""
    p2 = p * p
    e = (i * ((p - 1) // D)) % (p - 1)
    omega = [pow(a, p, p2) for a in range(p)]
    total = 0
    for a in range(2, p):
        total += pow(omega[a], e, p2) * pow(omega[(1 - a) % p], e, p2)
    return total % p2


# values pinned by the reference sum; 13 mod 25 is the classical
# quartic sum -1 + 2i under the unit embedding i -> 7
FROZEN_J = {
    (5, 4): 13,
    (13, 4): 32,
    (7, 6): 33,
    (13, 6): 150,
    (17, 8): 45,
}


class TestJacobiSums:
    def test_frozen_values(self):
        for (p, D), want in FROZEN_J.items():
            assert jacobi_sum_mod_p2(p, D, -1) == want
            assert reference_jacobi_sum(p, D, -1) == want

    @given(st.sampled_from([(13, 4), (13, 6), (17, 4), (41, 8), (61, 20), (181, 12)]), st.data())
    @settings(deadline=None)
    def test_matches_reference(self, pd, data):
        import math

        p, D = pd
        units = [k for k in range(-D + 1, D) if k and math.gcd(k, D) == 1]
        i = data.draw(st.sampled_from(units))
        got = jacobi_sum_mod_p2(p, D, i)
        assert type(got) is int and got == reference_jacobi_sum(p, D, i)

    def test_norm_relation(self):
        import math

        for D in (4, 6, 8, 20):
            for p in sieve_primes(3, 300, D):
                p2 = p * p
                for i in range(1, D):
                    if math.gcd(i, D) != 1:
                        continue
                    a = jacobi_sum_mod_p2(p, D, i)
                    b = jacobi_sum_mod_p2(p, D, -i)
                    assert a * b % p2 == p

    def test_chunked_sum_exact_near_1e8(self, monkeypatch):
        # at p**2 ~ 10**16, 1024 terms of p**2 - 1 overflow an int64 sum
        p = 100000037  # prime, 1 (mod 4)
        p2 = p * p
        s = pow(2, (p2 - p) // 4, p2)  # 2 is a non-residue mod p
        assert s * s % p2 == p2 - 1
        table = np.full(2002, s, dtype=np.int64)
        monkeypatch.setattr(jacobi_mod, "_psi_power", lambda p, D, i: table)
        # the 2000 terms a = 2..2001 are each s * s = p**2 - 1
        assert jacobi_sum_mod_p2(p, 4, 1) == -2000 % p2

    def test_requires_divisibility(self):
        with pytest.raises(ValueError):
            jacobi_sum_mod_p2(11, 4, 1)  # 4 does not divide 10
        with pytest.raises(ValueError):
            jacobi_sum_mod_p2(13, 4, 2)  # i shares a factor with D


class TestLambdaCriterion:
    def test_maximal_field_hits(self):
        f3 = make_field(3)
        assert lambda_criterion_jacobi(f3, 13).verdict
        assert lambda_criterion_jacobi(f3, 181).verdict
        assert not lambda_criterion_jacobi(f3, 7).verdict
        f1 = make_field(1)
        assert lambda_criterion_jacobi(f1, 29789).verdict
        assert not lambda_criterion_jacobi(f1, 13).verdict

    def test_nonmaximal_field_hit(self):
        # first detection for d = 5 sits at 5881; pinned by the
        # Gauss-factorial ratio route as the second opinion
        f5 = make_field(5)
        v = lambda_criterion_jacobi(f5, 5881)
        assert v.verdict
        assert exceptional_general(5881, f5)
        assert not lambda_criterion_jacobi(f5, 41).verdict

    def test_inapplicable_cases(self):
        f5 = make_field(5)
        with pytest.raises(CriterionInapplicable):
            lambda_criterion_jacobi(f5, 3)  # split but 3 != 1 mod 20
        f1 = make_field(1)
        with pytest.raises(CriterionInapplicable):
            lambda_criterion_jacobi(f1, 7)  # inert

    def test_nonmaximal_value_is_the_character_product(self):
        # the product over units 0 < i < D/2 of J(psi**-i) or its inverse,
        # as chi(i) from character_table is 1 or -1, pinned as a residue
        count = 0
        for d in (7, 10, 11, 13, 14, 15, 19, 21, 23, 43, 67, 163):
            f = make_field(d)
            assert not f.maximal
            tbl = character_table(f)
            for p in sieve_primes(3, 2000, f.D):
                try:
                    got = lambda_criterion_jacobi(f, p).criterion_value
                except CriterionInapplicable:
                    continue
                p2, u = p * p, 1
                for i in range(1, f.D // 2):
                    if math.gcd(i, f.D) == 1:
                        j = jacobi_sum_mod_p2(p, f.D, -i)
                        u = u * (j if tbl[i] == 1 else pow(j, -1, p2)) % p2
                assert got == pow(u, p - 1, p2), (d, p)
                count += 1
        assert count == 192

    def test_verdict_value_consistency(self):
        f3 = make_field(3)
        for p in sieve_primes(7, 400, 6):
            v = lambda_criterion_jacobi(f3, p)
            assert type(v.criterion_value) is int and 0 <= v.criterion_value < p * p
            assert v.verdict == (int(v.criterion_value) == 1)
            assert int(v.criterion_value) % p == 1


class TestCornacchia:
    def test_agrees_with_jacobi_everywhere(self):
        for d in (1, 2, 3, 7, 11, 19, 43, 67, 163):
            f = make_field(d)
            for p in sieve_primes(3, 400):
                if f.D % p == 0 or not splits(f, p):
                    continue
                try:
                    jv = lambda_criterion_jacobi(f, p)
                except CriterionInapplicable:
                    continue
                assert cornacchia_gold(f, p).verdict == jv.verdict, (d, p)

    def test_one_routine_for_p_and_4p(self):
        # x**2 + d y**2 = k p**h with k = 4 exactly when d = 3 (mod 4); for
        # h > 1 the root of -d is lifted to p**h, and y prime to p means the
        # solution generates P**h, not a multiple of p
        for d in (1, 2, 3, 7, 11, 19, 43, 67, 163, 5, 6, 15, 23, 14, 21):
            k = 4 if d % 4 == 3 else 1
            f = make_field(d)
            for p in sieve_primes(3, 3000):
                if f.D % p == 0 or f.h % p == 0:
                    continue
                sol = jacobi_mod._cornacchia(d, p, f.h)
                if not splits(f, p):
                    assert sol is None, (d, p)
                    continue
                x, y = sol
                assert x > 0 and y % p and x * x + d * y * y == k * p**f.h, (d, p)
        assert {make_field(d).h for d in (5, 23, 14)} == {2, 3, 4}

    def test_rejects_nonsplit_and_class_number(self):
        f3 = make_field(3)
        with pytest.raises(CriterionInapplicable):
            cornacchia_gold(f3, 5)  # inert
        with pytest.raises(CriterionInapplicable):
            cornacchia_gold(f3, 3)  # ramified
        f5 = make_field(5)  # h = 2: Cornacchia on 41**2
        assert cornacchia_gold(f5, 41).verdict == lambda_criterion_jacobi(f5, 41).verdict
        f23 = make_field(23)
        assert f23.h == 3 and splits(f23, 3)
        with pytest.raises(CriterionInapplicable):
            cornacchia_gold(f23, 3)  # p divides h

    @pytest.mark.parametrize("d", [1, 2, 3, 5, 7, 14, 15, 21, 23])
    def test_value_equals_unit_embedding(self, d):
        # definitional route: a generator found by search, embedded into
        # Z/p**2 through a lifted root, the unit embedding's (p-1)-st power
        f = make_field(d)
        k, half = (4, 2) if d % 4 == 3 else (1, 1)
        for p in sieve_primes(3, 200):
            if f.D % p == 0 or f.h % p == 0 or not splits(f, p):
                continue
            n, p2 = k * p**f.h, p * p
            x, y = next(
                (math.isqrt(n - d * y * y), y)
                for y in range(1, math.isqrt(n // d) + 1)
                if y % p and math.isqrt(n - d * y * y) ** 2 == n - d * y * y
            )
            s0 = next(s for s in range(1, p) if (s * s + d) % p == 0)
            s = (s0 - (s0 * s0 + d) * pow(2 * s0, -1, p2)) % p2
            inv = pow(half, -1, p2)
            e1, e2 = (x + y * s) * inv % p2, (x - y * s) * inv % p2
            unit = e1 if e1 % p else e2
            want = pow(unit, p - 1, p2)
            assert cornacchia_gold(f, p).criterion_value == want, (d, p)

    def test_root_choice_irrelevant(self):
        f = make_field(7)
        for p in (11, 23, 29, 37, 53):
            if not splits(f, p):
                continue
            p2 = p * p
            root = next(
                (s - (s * s + 7) * pow(2 * s, -1, p2)) % p2
                for s in range(1, p)
                if (s * s + 7) % p == 0
            )
            a = cornacchia_gold(f, p, root=root)
            b = cornacchia_gold(f, p, root=p2 - root)
            assert a == b

    def test_bad_root_rejected(self):
        f = make_field(7)
        with pytest.raises(ValueError):
            cornacchia_gold(f, 11, root=5)


class TestScan:
    def test_standard_fields_to_3000(self):
        assert [v.p for v in scan_lambda(make_field(3), 3000)] == [13, 181, 2521]
        assert scan_lambda(make_field(1), 3000) == []
        assert scan_lambda(make_field(2), 3000) == []
        assert scan_lambda(make_field(6), 3000) == []

    # c_d = a/b with t_gold = c_d t_jacobi (mod p), where value = 1 + t p
    TIE = {
        2: (1, 1), 5: (2, 1), 6: (2, 1), 7: (-1, 1), 10: (1, 2), 11: (1, 3),
        13: (1, 2), 14: (1, 2), 15: (-1, 1), 21: (1, 2), 23: (-1, 1),
    }

    @pytest.mark.parametrize("d", sorted(TIE))
    def test_gold_value_tied_to_jacobi(self, d):
        # maximal (2, 5, 6) and non-maximal fields of h = 1 to 4: Gold's
        # value, not only its verdict, is a fixed power of the Jacobi one
        a, b = self.TIE[d]
        f = make_field(d)
        for p in sieve_primes(3, 5000, f.D):
            p2 = p * p
            gold = cornacchia_gold(f, p).criterion_value
            jac = lambda_criterion_jacobi(f, p).criterion_value
            assert pow(gold, b, p2) == pow(jac, a, p2), (d, p)

    @pytest.mark.parametrize("d, m, c", [(3, 3, -3), (1, 4, -2)])
    def test_gold_value_reads_xi(self, d, m, c):
        # t_3 = -3 xi(p, 3) and t_1 = -2 xi(p, 4) (mod p) on every prime
        # to 2*10**5, against the remainder tree's xi
        f = make_field(d)
        primes = list(sieve_primes(3, 200000, f.D))
        for p, xi in _xi_batch(m, primes):
            t = (jacobi_mod._gold_value(f, p) - 1) // p
            assert t == c * xi % p, (p, xi)

    # c_d = a/b.  The constants are measured, not derived: on these five
    # maximal fields they are 1/h, h = 1, 1, 1, 2, 2
    RATIO_TIE = {1: (1, 1), 2: (1, 1), 3: (1, 1), 5: (1, 2), 6: (1, 2)}

    @pytest.mark.parametrize("d", sorted(RATIO_TIE))
    def test_ratio_exponent_reads_gold_value(self, d):
        # the paper's correspondence on values: the i = 1 ratio factor is
        # (1 + p)**(xi(p, D/2) - 2 xi(p, D)) after its (p-1)-st power, and
        # that exponent is c_d t_d (mod p) on every p = 1 (mod D) to 10**5
        a, b = self.RATIO_TIE[d]
        f = make_field(d)
        primes = list(sieve_primes(3, 10**5, f.D))
        half = dict(_xi_batch(f.D // 2, primes))
        for p, xi in _xi_batch(f.D, primes):
            t = (jacobi_mod._gold_value(f, p) - 1) // p
            assert (half[p] - 2 * xi) * b % p == a * t % p, (p, xi)

    @pytest.mark.parametrize("d", [2, 7, 15])
    def test_cut_point_values_reject_inapplicable_prime(self, d):
        # the name is kept from the remainder-tree route the scan took
        # before Gold's criterion.  The scan checks no prime; its per-prime
        # value fails on an inert p, and the checked entry point of that
        # value rejects an inert, a ramified and a non-prime p
        f = make_field(d)
        inert = next(p for p in sieve_primes(3, 500) if f.D % p and not splits(f, p))
        ramified = max(q for q in (2, 3, 5, 7) if f.D % q == 0)
        with pytest.raises(CriterionInapplicable):
            jacobi_mod._gold_value(f, inert)
        for p in (inert, ramified, 1):
            with pytest.raises(CriterionInapplicable):
                cornacchia_gold(f, p)

    @pytest.mark.extended
    @pytest.mark.parametrize(
        "d, hits", [(2, []), (5, [5881]), (6, []), (7, [19531]), (15, [1741])]
    )
    def test_scan_equals_per_prime_jacobi_to_4e4(self, d, hits):
        f = make_field(d)
        per_prime = [lambda_criterion_jacobi(f, p) for p in sieve_primes(3, 40000, f.D)]
        assert scan_lambda(f, 40000) == [v for v in per_prime if v.verdict]
        assert [v.p for v in scan_lambda(f, 40000)] == hits

    def test_fast_path_matches_criterion(self):
        # d = 1 rows carry the value 1 and method fermat_quotient, not the
        # Jacobi unit's power; check the verdicts against the full criterion
        f1 = make_field(1)
        flagged = {v.p for v in scan_lambda(f1, 2000)}
        for p in sieve_primes(5, 2000, 4):
            assert (p in flagged) == lambda_criterion_jacobi(f1, p).verdict


def test_sign_seam_breaks_cross_route_agreement(monkeypatch):
    """The pinned character sign is load-bearing: flipping it must be caught."""
    from lambda_sieve.verify import run_checks

    monkeypatch.setattr(jacobi_mod, "_PSI_SIGN", -1)
    results = run_checks(only="lambda-routes-agree")
    assert len(results) == 1 and not results[0].ok
    assert "p=13" in results[0].detail


def test_exceptional_fq_route_matches_jacobi_for_maximal():
    for d, m in ((1, 4), (3, 3)):
        f = make_field(d)
        for p in sieve_primes(5, 1000, f.D):
            assert exceptional_fq(p, f.D).verdict == lambda_criterion_jacobi(f, p).verdict
