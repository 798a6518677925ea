import math
import multiprocessing
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

from lambda_sieve import _kernels
from lambda_sieve.modmath import (
    MR_DETERMINISTIC_BOUND,
    Residue,
    _mr_witness,
    _read_checkpoint,
    _strong_lucas,
    fermat_quotient,
    harmonic_mod,
    is_probable_prime,
    prime_flags,
    sieve_primes,
    teichmuller_lift,
    wilson_quotient,
)
from lambda_sieve.pell import fan_out

PRIMES_200 = [int(p) for p in _kernels.primes_upto(200) if p > 2]

odd_primes = st.sampled_from(PRIMES_200)


class TestResidue:
    def test_canonicalizes(self):
        assert Residue(-1, 7).value == 6
        assert Residue(15, 7).value == 1

    def test_rejects_modulus_below_two(self):
        with pytest.raises(ValueError, match="modulus must be at least 2"):
            Residue(0, 1)
        with pytest.raises(ValueError, match="modulus must be at least 2"):
            Residue._make([0, 1])

    def test_replace_canonicalizes(self):
        assert Residue(2, 7)._replace(value=9) == (2, 7)

    @given(st.integers(), st.integers(min_value=2, max_value=10**9))
    def test_int_round_trip(self, v, m):
        assert int(Residue(v, m)) == v % m


class TestKernels:
    @given(
        st.integers(min_value=0, max_value=(1 << 61) - 1),
        st.integers(min_value=0, max_value=(1 << 61) - 1),
        st.integers(min_value=2, max_value=(1 << 61) - 1),
    )
    def test_mulmod_full_range(self, x, y, m):
        got = _kernels.mulmod(
            np.array([x % m], dtype=np.int64), np.array([y % m], dtype=np.int64), m
        )
        assert int(got[0]) == (x % m) * (y % m) % m

    @given(
        st.lists(st.integers(min_value=1, max_value=10**15), min_size=1, max_size=40),
        st.integers(min_value=2, max_value=10**15),
    )
    def test_prod_mod(self, vals, m):
        arr = np.array([v % m for v in vals], dtype=np.int64)
        assert _kernels.prod_mod(arr, m) == math.prod(v % m for v in vals) % m

    @given(
        st.lists(st.integers(min_value=1, max_value=10**12), min_size=1, max_size=50),
        st.integers(min_value=2, max_value=10**12),
    )
    def test_cumprod_mod(self, vals, m):
        arr = np.array([v % m for v in vals], dtype=np.int64)
        got = _kernels.cumprod_mod(arr, m)
        acc = 1
        for i, v in enumerate(vals):
            acc = acc * (v % m) % m
            assert int(got[i]) == acc

    def test_spf_table(self):
        spf = _kernels.spf_upto(10**4)
        for n in (2, 3, 49, 91, 9991):
            assert n % int(spf[n]) == 0
            assert sympy.isprime(int(spf[n]))
        assert [int(spf[p]) for p in (2, 97, 9973)] == [2, 97, 9973]

    def test_inverse_table(self):
        for p in (5, 101, 499):
            inv = _kernels.inverse_table(p - 1, p)
            for a in range(1, p):
                assert int(inv[a]) * a % p == 1


class TestPrimes:
    def test_counts(self):
        assert len(_kernels.primes_upto(10**4)) == 1229
        assert len(_kernels.primes_upto(10**5)) == 9592

    def test_range_matches_sympy(self):
        got = list(sieve_primes(3, 10**4))
        want = [p for p in sympy.primerange(3, 10**4 + 1)]
        assert got == want

    def test_residue_filter(self):
        got = list(sieve_primes(3, 2000, 4))
        assert got == [p for p in sympy.primerange(3, 2001) if p % 4 == 1]

    @given(
        st.integers(min_value=3, max_value=3000),
        st.integers(min_value=0, max_value=3000),
        st.integers(min_value=1, max_value=500),
    )
    def test_segment_consistency(self, lo, width, m):
        # each window strikes its own class; the spf table is the oracle
        primes = _kernels.primes_upto(lo + width)
        want = [int(p) for p in primes if p >= lo and p % m == 1 % m]
        assert list(sieve_primes(lo, lo + width, m)) == want

    @pytest.mark.parametrize("lo", [3, 2**19 - 1, 2**19, 2**19 + 1])
    def test_segments_match_spf_primes(self, lo):
        hi = 2 * 2**19 + 1000
        primes = [int(p) for p in _kernels.primes_upto(hi) if p >= lo]
        for m in (1, 2, 3, 4, 12, 14):
            want = [p for p in primes if p % m == 1 % m]
            assert list(sieve_primes(lo, hi, m)) == want, m

    def test_resumed_scan_range_matches_spf_primes(self):
        # the narrow window high in the range that a resumed scan sieves
        lo, hi = 980000, 10**6
        primes = [int(p) for p in _kernels.primes_upto(hi) if p >= lo]
        for m in (1, 3, 4, 14):
            want = [p for p in primes if p % m == 1 % m]
            assert list(sieve_primes(lo, hi, m)) == want, m

    # n on and next to prime squares, where the primes below sqrt(n) change
    @pytest.mark.parametrize("n", [0, 1, 2, 3, 4, 8, 9, 24, 25, 48, 49, 120, 121, 10**5])
    def test_prime_flags_match_spf(self, n):
        spf = _kernels.spf_upto(n)
        want = [int(i >= 2 and spf[i] == i) for i in range(n + 1)]
        assert list(prime_flags(n)) == want

    def test_class_scan_holds_only_its_window(self):
        # a byte per member of the class in the window, not a table to upper
        list(sieve_primes(999_000, 10**6, 14))  # imports and caches
        tracemalloc.start()
        try:
            list(sieve_primes(999_000, 10**6, 14))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 64 * 1024, peak

    def test_validation(self):
        # checked on the call, before the first prime is asked for
        with pytest.raises(ValueError, match="at least 3"):
            sieve_primes(2, 10)
        with pytest.raises(ValueError, match="empty range"):
            sieve_primes(3, 2)
        with pytest.raises(ValueError, match="m must be at least 1"):
            sieve_primes(3, 10, 0)


class TestProbablePrime:
    def test_matches_sympy_small(self):
        for n in range(2, 5000):
            assert is_probable_prime(n) == sympy.isprime(n), n

    @given(st.integers(min_value=2, max_value=10**7))
    @settings(max_examples=300)
    def test_matches_sympy_sampled(self, n):
        assert is_probable_prime(n) == sympy.isprime(n)

    def test_pseudoprime_traps(self):
        # Carmichael and strong-pseudoprime classics
        for n in (561, 41041, 3215031751, 3474749660383, 341550071728321):
            assert not is_probable_prime(n)
        # strong Lucas pseudoprimes: only Miller-Rabin base 2 rejects them
        for n in (5459, 5777, 10877, 16109, 18971):
            assert _strong_lucas(n) and _mr_witness(n, 2)
            assert not is_probable_prime(n)
        # strong pseudoprime to every base 2..23, above the bound: only
        # the Lucas stage rejects it
        n = 3825123056546413051
        assert n > MR_DETERMINISTIC_BOUND
        assert not any(_mr_witness(n, a) for a in (2, 3, 5, 7, 11, 13, 17, 19, 23))
        assert not _strong_lucas(n)
        assert not is_probable_prime(n)

    def test_strong_lucas_matches_sympy(self):
        # sympy picks D past a D with |D| = n (so it differs at n = 5 and
        # 11), where _strong_lucas returns False; is_probable_prime divides
        # out every prime up to 37 first, so Lucas never sees those n
        from sympy.ntheory.primetest import is_strong_lucas_prp

        for n in range(39, 2 * 10**5 + 1, 2):
            assert _strong_lucas(n) == is_strong_lucas_prp(n), n
        for n in (5459, 5777, 10877, 16109, 18971):
            assert _strong_lucas(n) and is_strong_lucas_prp(n), n

    def test_large_known(self):
        assert is_probable_prime(2**61 - 1)
        assert is_probable_prime(2**89 - 1)
        assert not is_probable_prime((2**61 - 1) * (2**31 - 1))
        assert not is_probable_prime(10**30 + 1)

    def test_perfect_squares(self):
        # above the deterministic bound, squares must not fool the Lucas stage
        n = math.isqrt(MR_DETERMINISTIC_BOUND) + 1
        for k in range(n, n + 20):
            assert not is_probable_prime(k * k)


class TestQuotients:
    def test_fermat_quotient_known_table(self):
        # q_5(a) for a = 1..4
        assert [fermat_quotient(a, 5) for a in (1, 2, 3, 4)] == [0, 3, 1, 1]

    def test_wieferich(self):
        # the only known primes with q_p(2) = 0 below 10**13
        assert fermat_quotient(2, 1093) == 0
        assert fermat_quotient(2, 3511) == 0
        others = [p for p in PRIMES_200 if fermat_quotient(2, p) == 0]
        assert others == []

    @given(odd_primes, st.data())
    def test_product_rule(self, p, data):
        a = data.draw(st.integers(min_value=1, max_value=p - 1))
        b = data.draw(st.integers(min_value=1, max_value=p - 1))
        lhs = fermat_quotient(a * b, p)
        assert lhs == (fermat_quotient(a, p) + fermat_quotient(b, p)) % p

    def test_wilson_quotient_factorial_definition(self):
        for p in PRIMES_200[:20]:
            assert wilson_quotient(p) == (math.factorial(p - 1) + 1) // p % p

    def test_wilson_primes(self):
        # w_p = 0 mod p exactly at 5, 13, 563 in this range
        hits = [p for p in PRIMES_200 if wilson_quotient(p) == 0]
        assert hits == [5, 13]
        assert wilson_quotient(563) == 0

    def test_residues_are_canonical_ints(self):
        p = 563  # a Wilson prime: ((p-1)! + 1)/p = p before the reduction
        for got, modulus in [
            (fermat_quotient(-2, p), p),
            (wilson_quotient(p), p),
            (harmonic_mod(p - 1, p), p),
            (teichmuller_lift(-2, p, 3), p**3),
        ]:
            assert type(got) is int and 0 <= got < modulus

    @given(odd_primes, st.data())
    def test_harmonic_matches_fractions(self, p, data):
        n = data.draw(st.integers(min_value=1, max_value=p - 1))
        exact = sum(Fraction(1, i) for i in range(1, n + 1))
        want = exact.numerator * pow(exact.denominator, -1, p) % p
        assert harmonic_mod(n, p) == want


@pytest.mark.parametrize(
    "fn, args",
    [
        (teichmuller_lift, (2, 15)),
        (teichmuller_lift, (2, 9)),
        (wilson_quotient, (9,)),
        (harmonic_mod, (3, 9)),
    ],
)
def test_oracles_reject_composite_p(fn, args):
    with pytest.raises(ValueError, match=f"p = {args[-1]} is not prime"):
        fn(*args)


class TestTeichmuller:
    @given(odd_primes, st.data())
    def test_fixed_point_mod_p2(self, p, data):
        a = data.draw(st.integers(min_value=1, max_value=p - 1))
        t = teichmuller_lift(a, p, 2)
        assert t % p == a
        assert pow(t, p, p * p) == t

    def test_depth_three(self):
        for p in (3, 5, 11, 31):
            for a in range(1, p):
                t = teichmuller_lift(a, p, 3)
                assert pow(t, p, p**3) == t

    def test_roots_of_unity(self):
        p = 13
        vals = {teichmuller_lift(a, p, 2) for a in range(1, p)}
        for t in vals:
            assert pow(t, p - 1, p * p) == 1


class TestFanOut:
    @pytest.mark.parametrize("workers", [1, 2])
    def test_results_in_input_order(self, workers):
        items = list(range(10**6, 10**6 + 500))
        assert list(fan_out(math.isqrt, items, workers)) == [math.isqrt(n) for n in items]
        assert list(fan_out(math.isqrt, [], workers)) == []

    def test_early_close_shuts_the_pool_down(self):
        out = fan_out(math.isqrt, list(range(2000)), 2)
        assert next(out) == 0
        out.close()
        assert not multiprocessing.active_children()


class TestCheckpointRead:
    @pytest.mark.parametrize("text", ["hello\n", "[1, 2]\n"])
    def test_rejects_what_is_not_an_object(self, tmp_path, text):
        path = tmp_path / "state.json"
        path.write_text(text)
        with pytest.raises(ValueError, match="state.json is not a checkpoint"):
            _read_checkpoint(str(path), {"kind": "pell_search"}, dict)
        assert path.read_text() == text

    def test_missing_or_other_header_is_none(self, tmp_path):
        path = tmp_path / "state.json"
        assert _read_checkpoint(str(path), {}, dict) is None
        path.write_text('{"kind": "pell_search", "n": 7}')
        assert _read_checkpoint(str(path), {"kind": "scan_exceptional"}, dict) is None
        assert _read_checkpoint(str(path), {"kind": "pell_search"}, dict)["n"] == 7
