import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import lambda_sieve.jacobi as jacobi_mod
from lambda_sieve.gaussfact import exceptional_fq, exceptional_general
from lambda_sieve.jacobi import (
    CriterionInapplicable,
    cornacchia_gold,
    jacobi_sum_mod_p2,
    lambda_criterion_jacobi,
    scan_lambda,
)
from lambda_sieve.modmath import PrimeRange, sieve_primes
from lambda_sieve.quadfields import make_field, splits


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
            assert int(jacobi_sum_mod_p2(p, D, -1)) == want
            assert reference_jacobi_sum(p, D, -1) == want

    @given(st.sampled_from([(13, 4), (13, 6), (17, 4), (41, 8), (61, 20), (181, 12)]), st.data())
    @settings(deadline=None)
    def test_matches_reference(self, pd, data):
        import math

        p, D = pd
        units = [k for k in range(-D + 1, D) if k and math.gcd(k, D) == 1]
        i = data.draw(st.sampled_from(units))
        assert int(jacobi_sum_mod_p2(p, D, i)) == reference_jacobi_sum(p, D, i)

    def test_norm_relation(self):
        import math

        for D in (4, 6, 8, 20):
            for p in sieve_primes(PrimeRange(3, 300, (D, 1))):
                p2 = p * p
                for i in range(1, D):
                    if math.gcd(i, D) != 1:
                        continue
                    a = int(jacobi_sum_mod_p2(p, D, i))
                    b = int(jacobi_sum_mod_p2(p, D, -i))
                    assert a * b % p2 == p

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

    def test_verdict_value_consistency(self):
        f3 = make_field(3)
        for p in sieve_primes(PrimeRange(7, 400, (6, 1))):
            v = lambda_criterion_jacobi(f3, p)
            assert v.verdict == (int(v.criterion_value) == 1)
            assert int(v.criterion_value) % p == 1


class TestCornacchia:
    def test_agrees_with_jacobi_everywhere(self):
        for d in (1, 2, 3, 7, 11, 19, 43, 67, 163):
            f = make_field(d)
            for p in sieve_primes(PrimeRange(3, 400)):
                if f.D % p == 0 or not splits(f, p):
                    continue
                try:
                    jv = lambda_criterion_jacobi(f, p)
                except CriterionInapplicable:
                    continue
                assert cornacchia_gold(f, p).verdict == jv.verdict, (d, p)

    def test_one_routine_for_p_and_4p(self):
        # x**2 + d y**2 = k p with k = 4 exactly when d = 3 (mod 4)
        for d in (1, 2, 3, 7, 11, 19, 43, 67, 163):
            k = 4 if d % 4 == 3 else 1
            f = make_field(d)
            for p in sieve_primes(PrimeRange(3, 3000)):
                if f.D % p == 0:
                    continue
                sol = jacobi_mod._cornacchia(d, p)
                if not splits(f, p):
                    assert sol is None, (d, p)
                    continue
                x, y = sol
                assert x > 0 and y > 0 and x * x + d * y * y == k * p, (d, p)

    def test_rejects_nonsplit_and_class_number(self):
        f3 = make_field(3)
        with pytest.raises(CriterionInapplicable):
            cornacchia_gold(f3, 5)  # inert
        with pytest.raises(CriterionInapplicable):
            cornacchia_gold(f3, 3)  # ramified
        f5 = make_field(5)
        with pytest.raises(CriterionInapplicable):
            cornacchia_gold(f5, 41)  # h = 2

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

    def test_worker_independence(self):
        f = make_field(3)
        assert scan_lambda(f, 4000, workers=2) == scan_lambda(f, 4000)

    def test_fast_path_matches_criterion(self):
        # maximal fields scan through the quotient-sum shortcut; spot-check
        # the verdicts against the full criterion
        f1 = make_field(1)
        flagged = {v.p for v in scan_lambda(f1, 2000)}
        for p in sieve_primes(PrimeRange(5, 2000, (4, 1))):
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
        for p in sieve_primes(PrimeRange(5, 1000, (f.D, 1))):
            assert exceptional_fq(p, f.D).verdict == lambda_criterion_jacobi(f, p).verdict
