import subprocess
import sys
from fractions import Fraction

import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

from lambda_sieve.gaussfact import exceptional_fq, scan_exceptional
from lambda_sieve.modmath import sieve_primes
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
    residues_from_xi,
)


def sympy_glaisher(n_max):
    """G_0..G_n as Taylor coefficients of the generating function."""
    x = sympy.symbols("x")
    f = sympy.Rational(3, 2) / (sympy.exp(x) + sympy.exp(-x) + 1)
    poly = sympy.Poly(sympy.series(f, x, 0, n_max + 2).removeO(), x)
    vals = []
    for n in range(n_max + 1):
        c = sympy.Rational(poly.coeff_monomial(x**n) * sympy.factorial(n))
        vals.append(Fraction(int(c.p), int(c.q)))
    return vals


def sympy_bernoulli(n):
    # sympy >= 1.12 uses the B_1 = +1/2 convention; this library keeps -1/2
    v = Fraction(int(sympy.bernoulli(n).p), int(sympy.bernoulli(n).q))
    return -v if n == 1 else v


class TestExactSequences:
    def test_bernoulli_against_sympy(self):
        vals = bernoulli_exact(80)
        for n in range(81):
            assert vals[n] == sympy_bernoulli(n), n

    def test_euler_against_sympy(self):
        vals = euler_exact(60)
        for n in range(61):
            assert vals[n] == int(sympy.euler(n)), n

    def test_glaisher_against_series_expansion(self):
        assert glaisher_exact(20) == sympy_glaisher(20)

    def test_glaisher_small_values(self):
        g = glaisher_exact(8)
        assert g[0] == Fraction(1, 2)
        assert g[2] == Fraction(-1, 3)
        assert g[4] == 1
        assert g[6] == -7
        assert g[8] == Fraction(809, 9)
        assert all(g[n] == 0 for n in range(1, 8, 2))

    def test_glaisher_denominators_are_powers_of_three(self):
        # apart from the leading 1/2, denominators only carry 3s
        for n, v in enumerate(glaisher_exact(60)):
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
        # n_max >= p takes the exact recurrence reduced mod p**2, the
        # engine of euler_exact, so the oracle here is sympy's
        for p in (7, 11):
            seq = euler_mod(4 * p, p * p)
            for n in range(4 * p + 1):
                assert int(seq[n]) == int(sympy.euler(n)) % (p * p), (p, n)
        modulus = 49
        seq = glaisher_mod(20, modulus)
        for n, v in enumerate(sympy_glaisher(20)):
            assert int(seq[n]) == v.numerator * pow(v.denominator, -1, modulus) % modulus, n

    def test_values_past_the_int64_range(self):
        modulus = (10**9 + 7) ** 2
        seq = euler_mod(18, modulus)
        exact = euler_exact(18)
        for n in range(0, 19, 2):
            assert int(seq[n]) == exact[n] % modulus
        # Python ints have no int64 row sum to wrap: n = 40 is exact too,
        # for p = 10**9 + 7 and for the Mersenne prime 2**61 - 1
        exact = euler_exact(40)
        for p in (10**9 + 7, 2**61 - 1):
            assert euler_mod(40, p * p) == [e % (p * p) for e in exact], p

    def test_negative_n_max_refused(self):
        for series, n in ((euler_mod, -1), (glaisher_mod, -2)):
            with pytest.raises(ValueError, match="n_max must be nonnegative"):
                series(n, 49)

    def test_runs_without_numpy(self):
        script = """
import sys
sys.modules["numpy"] = None
from lambda_sieve.specialnums import (
    euler_criterion, euler_exact, euler_mod, glaisher_criterion, glaisher_mod,
)
assert euler_mod(40, 101**2) == [e % 101**2 for e in euler_exact(40)]
assert glaisher_mod(12, 49)[:7:2] == [25, 16, 1, 42]
assert not euler_criterion(101)
assert glaisher_criterion(181)
assert "lambda_sieve._kernels" not in sys.modules
"""
        proc = subprocess.run(
            [sys.executable, "-c", script], capture_output=True, text=True, timeout=120
        )
        assert proc.returncode == 0, proc.stderr

    def test_modulus_must_be_prime_square(self):
        with pytest.raises(ValueError):
            euler_mod(10, 100)
        with pytest.raises(ValueError):
            glaisher_mod(10, 91)


class TestCriteria:
    def test_euler_hits_none_small(self):
        for p in sieve_primes(5, 1500, 4):
            assert euler_criterion(p) == exceptional_fq(p, 4).verdict

    def test_glaisher_hits(self):
        hits = [p for p in sieve_primes(7, 2000, 3) if glaisher_criterion(p)]
        assert hits == [13, 181]

    @pytest.mark.parametrize("m, series", [(4, euler_mod), (3, glaisher_mod)])
    def test_residues_from_xi_equal_recurrence(self, m, series):
        # E_{p-1} = 4p xi(p, 4), G_{p-1} = 3p xi(p, 3) (mod p**2), exactly
        rows = residues_from_xi(m, 3000)
        assert [p for p, _ in rows] == list(sieve_primes(3, 3000, m))
        for p, r in rows:
            assert r == int(series(p - 1, p * p)[p - 1]), (m, p)
        with pytest.raises(ValueError):
            residues_from_xi(6, 100)

    @pytest.mark.parametrize("m", [4, 3])
    def test_residues_from_xi_equal_remainder_tree(self, m):
        # Gold's value against m p xi of the batched tree, on every residue
        bound = 2 * 10**5
        tree = [(v.p, m * v.p * int(v.xi) % v.p**2) for v in scan_exceptional(m, bound)]
        assert residues_from_xi(m, bound) == tree

    def test_residue_guards(self):
        with pytest.raises(ValueError):
            euler_criterion(7)
        with pytest.raises(ValueError):
            glaisher_criterion(5)

    def test_bernoulli_criterion_matches(self):
        for d in (1, 3):
            f = make_field(d)
            m = f.D // 2
            for p in sieve_primes(5, 600, f.D):
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
