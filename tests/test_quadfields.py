import math

import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

from lambda_sieve.gaussfact import (
    cut_point_congruence_check,
    exceptional_direct,
    exceptional_general,
)
from lambda_sieve.jacobi import cornacchia_gold, jacobi_sum_mod_p2
from lambda_sieve.quadfields import (
    CriterionInapplicable,
    _is_squarefree,
    character_table,
    chi,
    class_number_charsum,
    class_number_forms,
    kronecker,
    make_field,
    maximal_scan,
    s_set,
    splits,
    squarefree_values,
)
from lambda_sieve.specialnums import bernoulli_criterion, euler_criterion

# class numbers of Q(sqrt(-d)) from standard tables
KNOWN_H = {
    1: 1, 2: 1, 3: 1, 5: 2, 6: 2, 7: 1, 10: 2, 11: 1, 13: 2, 14: 4,
    15: 2, 17: 4, 19: 1, 21: 4, 23: 3, 26: 6, 30: 4, 31: 3, 35: 2,
    39: 4, 43: 1, 47: 5, 67: 1, 89: 12, 163: 1,
}


class TestFieldConstruction:
    def test_period_and_discriminant(self):
        f = make_field(1)
        assert (f.D, f.discriminant) == (4, -4)
        f = make_field(3)
        assert (f.D, f.discriminant) == (6, -3)
        f = make_field(5)
        assert (f.D, f.discriminant) == (20, -20)
        f = make_field(7)
        assert (f.D, f.discriminant) == (14, -7)

    def test_rejects_non_squarefree(self):
        for d in (4, 8, 9, 12, 18):
            with pytest.raises(ValueError):
                make_field(d)

    def test_known_class_numbers(self):
        for d, h in KNOWN_H.items():
            assert make_field(d).h == h, d

    def test_maximal_flags(self):
        assert [d for d in range(1, 40) if _sf(d) and make_field(d).maximal] == [
            1, 2, 3, 5, 6,
        ]


def _sf(d):
    return all(d % (q * q) for q in range(2, math.isqrt(d) + 1))


class TestKronecker:
    @given(
        st.integers(min_value=-10**6, max_value=10**6),
        st.integers(min_value=1, max_value=10**6),
    )
    @settings(max_examples=400)
    def test_matches_sympy_odd_positive(self, a, n):
        n |= 1  # sympy's jacobi_symbol wants odd positive n
        assert kronecker(a, n) == sympy.jacobi_symbol(a, n)

    def test_at_two(self):
        # kronecker(a|2) table: 0 for even, +1 for a = 1,7 mod 8, -1 for 3,5
        vals = [kronecker(a, 2) for a in range(8)]
        assert vals == [0, 1, 0, -1, 0, -1, 0, 1]

    @given(st.integers(min_value=-300, max_value=300), st.integers(min_value=1, max_value=200), st.integers(min_value=1, max_value=200))
    def test_multiplicative_in_n(self, a, n, m):
        assert kronecker(a, n * m) == kronecker(a, n) * kronecker(a, m)


class TestCharacter:
    def test_conductor_is_discriminant(self):
        # the character attached to d = 3 is the mod-3 one even though D = 6
        f = make_field(3)
        assert chi(f, 2) == -1
        assert [chi(f, n) for n in (1, 5, 7, 11)] == [1, -1, 1, -1]

    def test_table_matches_pointwise(self):
        # the Legendre-product table against kronecker at every n < D, on
        # every 2-part and every count of primes l = 3 (mod 4) below 400
        for d in squarefree_values(400):
            f = make_field(d)
            tbl = character_table(f)
            for n in range(f.D):
                assert int(tbl[n]) == chi(f, n)

    @given(st.sampled_from([1, 2, 3, 5, 6, 7, 10, 11]), st.data())
    def test_multiplicative(self, d, data):
        f = make_field(d)
        a = data.draw(st.integers(min_value=0, max_value=3 * f.D))
        b = data.draw(st.integers(min_value=0, max_value=3 * f.D))
        assert chi(f, a * b) == chi(f, a) * chi(f, b)

    def test_periodic_mod_D(self):
        for d in (1, 2, 3, 5, 6):
            f = make_field(d)
            for n in range(2 * f.D):
                assert chi(f, n) == chi(f, n + f.D)


class TestClassNumberRoutes:
    @given(st.integers(min_value=1, max_value=3000))
    @settings(max_examples=200)
    def test_charsum_equals_forms(self, d):
        if not _sf(d):
            return
        f = make_field(d)
        assert class_number_charsum(f) == class_number_forms(f.discriminant) == f.h

    def test_forms_validates_input(self):
        with pytest.raises(ValueError):
            class_number_forms(5)  # positive
        with pytest.raises(ValueError):
            class_number_forms(-5)  # not 0 or 1 mod 4


class TestMaximalScan:
    def test_catalog_to_2000(self):
        assert maximal_scan(2000) == [1, 2, 3, 5, 6]

    def test_squarefree_values(self):
        got = squarefree_values(60)
        assert got == [d for d in range(1, 61) if _sf(d)]
        want = [d for d in range(1, 10**4 + 1) if _is_squarefree(d)]
        assert squarefree_values(10**4) == want


class TestHalfSets:
    @given(st.integers(min_value=3, max_value=200), st.data())
    def test_size_and_membership(self, D, data):
        units = [j for j in range(1, D) if math.gcd(j, D) == 1]
        i = data.draw(st.sampled_from(units))
        s = s_set(i, D)
        assert len(s) == len(units) // 2
        for j in s:
            assert math.gcd(j, D) == 1
            assert 2 * ((i * j) % D) < D

    def test_identity_set(self):
        assert s_set(1, 8) == frozenset({1, 3})
        assert s_set(3, 8) == frozenset({1, 3})


class TestSplits:
    def test_matches_legendre(self):
        for d in (1, 2, 3, 5, 6, 7):
            f = make_field(d)
            for p in sympy.primerange(3, 200):
                if f.D % p == 0:
                    continue
                want = sympy.legendre_symbol(f.discriminant % p, p) == 1
                assert splits(f, p) == want

    def test_ramified_rejected(self):
        f = make_field(5)
        with pytest.raises(ValueError):
            splits(f, 5)
        with pytest.raises(ValueError):
            splits(f, 2)


# a composite p is refused at every entry point that returns a verdict, and by
# jacobi_sum_mod_p2, before any arithmetic: Tonelli-Shanks in cornacchia_gold
# never finds a non-residue mod 25 or 65
COMPOSITE_P_CALLS = {
    "exceptional_general(21, d=5)": lambda: exceptional_general(21, make_field(5)),
    "bernoulli_criterion(21, d=1)": lambda: bernoulli_criterion(21, make_field(1)),
    "cut_point_congruence_check(25, 1)": lambda: cut_point_congruence_check(25, 1),
    "cornacchia_gold(d=1, 65)": lambda: cornacchia_gold(make_field(1), 65),
    "cornacchia_gold(d=1, 25)": lambda: cornacchia_gold(make_field(1), 25),
    "exceptional_direct(9, 4)": lambda: exceptional_direct(9, 4),
    "euler_criterion(21)": lambda: euler_criterion(21),
    "jacobi_sum_mod_p2(21, 4, 1)": lambda: jacobi_sum_mod_p2(21, 4, 1),
    "jacobi_sum_mod_p2(25, 4, 1)": lambda: jacobi_sum_mod_p2(25, 4, 1),
}


@pytest.mark.parametrize("call", COMPOSITE_P_CALLS.values(), ids=COMPOSITE_P_CALLS)
def test_composite_p_is_inapplicable(call):
    with pytest.raises(CriterionInapplicable, match="need a"):
        call()
