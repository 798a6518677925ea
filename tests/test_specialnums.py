from fractions import Fraction

import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

from lambda_sieve.gaussfact import exceptional_fq
from lambda_sieve.modmath import PrimeRange, sieve_primes
from lambda_sieve.quadfields import make_field
from lambda_sieve.specialnums import (
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


def sympy_bernoulli(n):
    # sympy >= 1.12 uses the B_1 = +1/2 convention; this library keeps -1/2
    v = Fraction(int(sympy.bernoulli(n).p), int(sympy.bernoulli(n).q))
    return -v if n == 1 else v


class TestExactSequences:
    def test_bernoulli_against_sympy(self):
        vals = bernoulli_exact(80).values
        for n in range(81):
            assert vals[n] == sympy_bernoulli(n), n

    def test_euler_against_sympy(self):
        vals = euler_exact(60).values
        for n in range(61):
            assert vals[n] == int(sympy.euler(n)), n

    def test_glaisher_against_series_expansion(self):
        # independent oracle: Taylor coefficients of the generating function
        x = sympy.symbols("x")
        f = sympy.Rational(3, 2) / (sympy.exp(x) + sympy.exp(-x) + 1)
        poly = sympy.Poly(sympy.series(f, x, 0, 22).removeO(), x)
        vals = glaisher_exact(20).values
        for n in range(21):
            c = poly.coeff_monomial(x**n) * sympy.factorial(n)
            assert vals[n] == Fraction(int(sympy.Rational(c).p), int(sympy.Rational(c).q)), n

    def test_glaisher_small_values(self):
        g = glaisher_exact(8).values
        assert g[0] == Fraction(1, 2)
        assert g[2] == Fraction(-1, 3)
        assert g[4] == 1
        assert g[6] == -7
        assert g[8] == Fraction(809, 9)
        assert all(g[n] == 0 for n in range(1, 8, 2))

    def test_glaisher_denominators_are_powers_of_three(self):
        # apart from the leading 1/2, denominators only carry 3s
        for n, v in enumerate(glaisher_exact(60).values):
            if n == 0:
                continue
            den = v.denominator
            while den % 3 == 0:
                den //= 3
            assert den == 1, n

    def test_bernoulli_polynomial_against_sympy(self):
        pts = [Fraction(0), Fraction(1), Fraction(1, 2), Fraction(1, 3), Fraction(1, 4), Fraction(2, 3)]
        for n in (0, 1, 2, 3, 5, 10, 23, 40):
            for t in pts:
                want = sympy.bernoulli(n, sympy.Rational(t.numerator, t.denominator))
                got = bernoulli_poly_exact(n, t)
                assert got == Fraction(int(want.p), int(want.q))

    def test_quarter_and_third_polynomial_values(self):
        # B_3(1/3) = 1/27; B_p(1/2) = 0 for odd p
        assert bernoulli_poly_exact(3, Fraction(1, 3)) == Fraction(1, 27)
        for n in (3, 5, 7, 11):
            assert bernoulli_poly_exact(n, Fraction(1, 2)) == 0


class TestModularSequences:
    @pytest.mark.parametrize("p", [11, 101, 293])
    def test_euler_mod_matches_exact(self, p):
        modulus = p * p
        seq = euler_mod(120, modulus)
        exact = euler_exact(120)
        for n in range(0, 121, 2):
            assert int(seq[n]) == exact[n] % modulus

    @pytest.mark.parametrize("p", [11, 101, 293])
    def test_glaisher_mod_matches_exact(self, p):
        modulus = p * p
        seq = glaisher_mod(120, modulus)
        exact = glaisher_exact(120)
        for n in range(0, 121, 2):
            v = exact[n]
            assert int(seq[n]) == v.numerator * pow(v.denominator, -1, modulus) % modulus

    def test_fallback_branch_agrees(self):
        # n_max above p exercises the addition-only path
        for p in (7, 11):
            seq = euler_mod(4 * p, p * p)
            exact = euler_exact(4 * p)
            for n in range(0, 4 * p + 1, 2):
                assert int(seq[n]) == exact[n] % (p * p)

    def test_modulus_must_be_prime_square(self):
        with pytest.raises(ValueError):
            euler_mod(10, 100)
        with pytest.raises(ValueError):
            glaisher_mod(10, 91)


class TestCriteria:
    def test_euler_hits_none_small(self):
        for p in sieve_primes(PrimeRange(5, 1500, (4, 1))):
            assert euler_criterion(p) == exceptional_fq(p, 4).verdict

    def test_glaisher_hits(self):
        hits = [p for p in sieve_primes(PrimeRange(7, 2000, (3, 1))) if glaisher_criterion(p)]
        assert hits == [13, 181]

    def test_residue_guards(self):
        with pytest.raises(ValueError):
            euler_criterion(7)
        with pytest.raises(ValueError):
            glaisher_criterion(5)

    def test_bernoulli_criterion_matches(self):
        for d in (1, 3):
            f = make_field(d)
            m = f.D // 2
            for p in sieve_primes(PrimeRange(5, 600, (f.D, 1))):
                verdict = bernoulli_criterion(p, f)
                assert verdict == exceptional_fq(p, f.D).verdict
                if p <= 500:
                    # exact: v_p(B_p(1/m) - 2**p B_p(1/2m)) >= 3
                    x = bernoulli_poly_exact(p, Fraction(1, m))
                    x -= 2**p * bernoulli_poly_exact(p, Fraction(1, 2 * m))
                    assert (x.numerator % p**3 == 0) == verdict, (d, p)


class TestIdentities:
    @given(st.integers(min_value=0, max_value=120).filter(lambda n: n % 2 == 0))
    @settings(max_examples=40, deadline=None)
    def test_glaisher_bernoulli_bridge(self, n):
        assert glaisher_bernoulli_identity(n)

    @given(st.integers(min_value=0, max_value=90))
    @settings(max_examples=40, deadline=None)
    def test_raabe(self, n):
        assert raabe_identity(n)
