import hashlib
import json
import math
import multiprocessing
from collections import Counter

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import lambda_sieve.pell as pell_mod
from lambda_sieve._kernels import primes_upto
from lambda_sieve.gaussfact import exceptional_fq, scan_exceptional
from lambda_sieve.jacobi import cornacchia_gold
from lambda_sieve.modmath import is_probable_prime
from lambda_sieve.pell import (
    _TRIAL_BITS_FACTOR,
    TRIAL_DIVISION_BOUND,
    PellRecord,
    _classify,
    _digit_count,
    _small_factor,
    _trial_tables,
    pell_implies_nontrivial,
    pell_search,
    pell_value,
)
from lambda_sieve.quadfields import make_field

KNOWN = {
    3: 13,
    5: 181,
    7: 2521,
    11: 489061,
    13: 6811741,
    17: 1321442641,
    19: 18405321661,
    79: 381765135195632792959100810331957408101589361,
}


def float_oracle(q):
    # u_q = (2 + sqrt 3)**q + (2 - sqrt 3)**q, then divide by 4
    with mpmath.workdps(40 + int(q * 0.6)):
        g = 2 + mpmath.sqrt(3)
        u = g**q + g**-q
        return int(mpmath.nint(u)) // 4


class TestPellValue:
    def test_known_values(self):
        for q, p in KNOWN.items():
            assert pell_value(q) == p
        assert len(str(KNOWN[79])) == 45

    @given(st.integers(min_value=1, max_value=120).filter(lambda q: q % 2))
    @settings(max_examples=30, deadline=None)
    def test_against_float_oracle(self, q):
        assert pell_value(q) == float_oracle(q)

    def test_even_index_rejected(self):
        with pytest.raises(ValueError):
            pell_value(4)
        with pytest.raises(ValueError):
            pell_value(0)

    def test_composite_odd_index_gives_composite(self):
        for q in (9, 15, 21, 25, 27, 33, 35):
            assert not is_probable_prime(pell_value(q))


def odd_primes_upto(n):
    return [q for q in range(3, n + 1, 2) if is_probable_prime(q)]


@pytest.fixture
def classified(monkeypatch):
    """The q of every candidate that _classify is given, in order."""
    seen, classify = [], pell_mod._classify

    def counting(q, p, x):
        seen.append(q)
        return classify(q, p, x)

    monkeypatch.setattr(pell_mod, "_classify", counting)
    return seen


def least_divisor_plus_minus_one(n, q, bound):
    """The plain search that _small_factor replaces: every r = +-1 (mod 4q)
    below bound in increasing order, with no mod-3 filter and no sieve."""
    step = 4 * q
    for m in range(step, bound + 1, step):
        for r in (m - 1, m + 1):
            if r < bound and n % r == 0:
                return r
    return None


class TestTrialDivision:
    def test_tables_hold_the_primes_of_the_divisor_classes(self):
        primes = primes_upto(10**7)
        small = primes[primes < 200].tolist()
        runs = [(TRIAL_DIVISION_BOUND, odd_primes_upto(1500)), (10**7, [3, 5, 23, 1499])]
        for bound, qs in runs:
            below = primes[primes < bound]
            for q in qs:
                table = _trial_tables(q, bound)
                assert all(a < b for a, b in zip(table, table[1:])), q
                # nothing outside the class r = 1 (mod lcm(4q, 3)), none of
                # the class r = -1 (mod 4q), which holds no divisor, and
                # nothing with a prime factor below 200 but that prime itself
                got = np.array(table)
                assert (got > 1).all() and (got < bound).all(), q
                assert (got % math.lcm(4 * q, 3) == 1).all(), q
                assert not (got % (4 * q) == 4 * q - 1).any(), q
                for r in small:
                    assert not ((got % r == 0) & (got != r)).any(), (q, r)
                # every prime of the class below the bound
                want = below[below % math.lcm(4 * q, 3) == 1]
                assert np.isin(want, got).all(), q

    @pytest.mark.parametrize(
        "q_bound, found", [(300, 32), pytest.param(1500, 123, marks=pytest.mark.extended)]
    )
    def test_small_factor_equals_all_primes_search(self, q_bound, found):
        hits = 0
        for q in odd_primes_upto(q_bound):
            n = pell_value(q)
            bound = max(TRIAL_DIVISION_BOUND, _TRIAL_BITS_FACTOR * n.bit_length() ** 2)
            want = least_divisor_plus_minus_one(n, q, bound)
            assert _small_factor(n, q) == want, q
            hits += want is not None
        # q = 23: 277 and 3037 both divide, so the order of the tries shows
        assert hits == found and _small_factor(pell_value(23), 23) == 277

    def test_prime_divisors_are_one_mod_lcm_4q_3(self):
        # the Lucas-structure fact the tables rest on, checked directly:
        # r = 1 (mod 4q) since (1 + sqrt 3)/sqrt 2 squares to 2 + sqrt 3,
        # r = 1 (mod 3) by quadratic reciprocity
        primes = primes_upto(10**5).tolist()
        divisors = 0
        for q in odd_primes_upto(400):
            n = pell_value(q)
            for r in primes:
                if n % r == 0:
                    assert r % math.lcm(4 * q, 3) == 1, (q, r)
                    divisors += 1
        assert divisors == 35


class TestSearch:
    def test_survivors_to_100(self):
        recs = pell_search(100)
        assert {r.q: r.p_candidate for r in recs} == KNOWN
        by_q = {r.q: r for r in recs}
        assert by_q[19].status == "prime_proven_small"
        assert by_q[79].status == "probable_prime"
        assert by_q[79].digits == 45

    def test_witness_identity(self):
        for r in pell_search(100):
            assert (2 * r.p_candidate) ** 2 - 3 * (2 * r.x + 1) ** 2 == 1

    def test_extension_to_300(self):
        qs = [r.q for r in pell_search(300)]
        assert qs == [3, 5, 7, 11, 13, 17, 19, 79, 151, 199, 233, 251]

    def test_worker_independence(self):
        assert pell_search(200, workers=2) == pell_search(200)

    def test_statuses_to_600_are_pinned(self, tmp_path):
        # the status of every candidate, composites included, as the
        # checkpoint holds them; the digest is that of trial division below
        # 10**6 over all primes r = +-1 (mod 4q), so no verdict moved when
        # the bound began to grow with the candidate
        cp = tmp_path / "state.json"
        pell_search(600, checkpoint=str(cp))
        records = json.loads(cp.read_text())["records"]
        assert Counter(r["status"] for r in records) == {
            "composite": 95,
            "prime_proven_small": 7,
            "probable_prime": 6,
        }
        digest = hashlib.sha256(json.dumps(records).encode()).hexdigest()
        assert digest == "c124e9df339759e6e6a99241b128a02ef4a0fb4807cc3dd00605c24716b9cf0a"

    def test_bound_validation(self):
        with pytest.raises(ValueError):
            pell_search(2)

    def test_checkpoint_resume(self, tmp_path):
        cp = tmp_path / "state.json"
        full = pell_search(240)
        pell_search(120, checkpoint=str(cp))
        state = json.loads(cp.read_text())
        assert state["kind"] == "pell_search" and state["n"] == 120
        resumed = pell_search(240, checkpoint=str(cp))
        assert resumed == full
        # a later run with the same file continues past the stored point
        assert json.loads(cp.read_text())["n"] == 240

    def test_resume_past_bound(self, tmp_path):
        cp = tmp_path / "state.json"
        pell_search(100, checkpoint=str(cp))
        assert pell_search(20, checkpoint=str(cp)) == pell_search(20)
        assert json.loads(cp.read_text())["n"] == 100  # not rolled back

    def test_checkpoint_of_other_kind_ignored(self, tmp_path):
        cp = tmp_path / "state.json"
        scan_exceptional(3, 500, checkpoint=str(cp))
        assert pell_search(120, checkpoint=str(cp)) == pell_search(120)
        assert json.loads(cp.read_text())["kind"] == "pell_search"
        # and the reverse: the scan starts afresh over the pell state
        assert scan_exceptional(3, 500, checkpoint=str(cp)) == scan_exceptional(3, 500)
        assert json.loads(cp.read_text())["kind"] == "scan_exceptional"

    def test_interrupted_pool_search_resumes(self, tmp_path, monkeypatch):
        class Killed(Exception):
            pass

        cp = tmp_path / "state.json"
        write = pell_mod._write_checkpoint
        written = []

        def write_then_die(path, payload):
            write(path, payload)
            written.append(payload["n"])
            if len(written) == 2:
                raise Killed

        monkeypatch.setattr(pell_mod, "_write_checkpoint", write_then_die)
        with pytest.raises(Killed) as killed:
            pell_search(300, workers=2, checkpoint=str(cp))
        # the pool is shut down while the traceback still holds the search
        assert killed.traceback and not multiprocessing.active_children()
        state = json.loads(cp.read_text())
        assert written == [100, 200] and state["n"] == 200
        assert [r["q"] for r in state["records"]] == [
            q for q in range(3, 200) if is_probable_prime(q)
        ]
        monkeypatch.undo()
        assert pell_search(300, workers=2, checkpoint=str(cp)) == pell_search(300)

    def test_checkpoint_grows_linearly(self, tmp_path, monkeypatch):
        cp = tmp_path / "state.json"
        write = pell_mod._write_checkpoint
        sizes = []

        def write_and_measure(path, payload):
            write(path, payload)
            sizes.append((len(payload["records"]), cp.stat().st_size))

        monkeypatch.setattr(pell_mod, "_write_checkpoint", write_and_measure)
        pell_search(300, checkpoint=str(cp))
        assert [k for k, _ in sizes] == [24, 45, 61]  # odd primes <= 100, 200, 300
        for k, size in sizes:
            assert size <= 64 + 48 * k, (k, size)
        state = json.loads(cp.read_text())
        assert set(state) == {"kind", "n", "records"}
        assert all(set(r) == {"q", "status"} for r in state["records"])

    def test_earlier_format_checkpoint_resumes(self, tmp_path, classified):
        # the format that also held the recurrence state and each record's
        # p, digits and x: only q and status are read, the rest is dropped
        u, y = [2, 4], [0, 1]
        for _ in range(99):
            u.append(4 * u[-1] - u[-2])
            y.append(4 * y[-1] - y[-2])
        full = pell_search(240)
        classified.clear()
        status = {r.q: r.status for r in full}
        records = [
            {
                "q": q,
                "p": str(u[q] // 4),
                "digits": len(str(u[q] // 4)),
                "status": status.get(q, "composite"),
                "x": str((y[q] - 1) // 2),
            }
            for q in odd_primes_upto(100)
        ]
        cp = tmp_path / "state.json"
        cp.write_text(
            json.dumps(
                {
                    "kind": "pell_search",
                    "n": 100,
                    "u_prev": str(u[99]),
                    "u_cur": str(u[100]),
                    "y_prev": str(y[99]),
                    "y_cur": str(y[100]),
                    "records": records,
                }
            )
        )
        assert pell_search(240, checkpoint=str(cp)) == full
        assert classified == [q for q in odd_primes_upto(240) if q > 100]
        state = json.loads(cp.read_text())
        assert set(state) == {"kind", "n", "records"} and state["n"] == 240
        assert state["records"][: len(records)] == [
            {"q": r["q"], "status": r["status"]} for r in records
        ]


class TestImplication:
    def test_small_candidates_are_exceptional(self):
        for r in pell_search(16):
            assert pell_implies_nontrivial(r)

    def test_agrees_with_gold_route_at_every_size(self):
        field = make_field(3)
        recs = pell_search(300)
        assert {1321442641, 18405321661, KNOWN[79]} < {r.p_candidate for r in recs}
        for r in recs:
            verdict = pell_implies_nontrivial(r)
            assert verdict == cornacchia_gold(field, r.p_candidate).verdict, r.q
            if r.q <= 13:  # the O(p) Fermat-quotient route, where it is cheap
                assert verdict == exceptional_fq(r.p_candidate, 3).verdict, r.q

    def test_square_of_a_prime_gives_golds_verdict(self):
        # the step the implication rests on, for every prime p = 1 (mod 3)
        # below 1000: any alpha = a + b omega of norm p**2 prime to p has
        # trace 2a - b, and (2a - b)**(p-1) = 1 (mod p**2) is Gold's verdict
        field, verdicts = make_field(3), set()
        for p in range(7, 1000, 6):
            if not is_probable_prime(p):
                continue
            for b in range(1, 2 * p):
                disc = 4 * p * p - 3 * b * b  # a**2 - a b + b**2 = p**2
                r = math.isqrt(max(disc, 0))
                if disc >= 0 and r * r == disc and (b + r) % 2 == 0 and b % p:
                    a = (b + r) // 2
                    verdict = pow(2 * a - b, p - 1, p * p) == 1
                    assert verdict == cornacchia_gold(field, p).verdict, (p, a, b)
                    verdicts.add(verdict)
                    break
            else:
                raise AssertionError(f"no alpha of norm {p}**2 found")
        assert verdicts == {True, False}

    def test_composite_record_rejected(self):
        fake = PellRecord(q=9, p_candidate=pell_value(9), digits=5, status="composite", x=0)
        with pytest.raises(ValueError):
            pell_implies_nontrivial(fake)

    def test_witness_off_the_identity_rejected(self):
        rec = next(r for r in pell_search(20) if r.q == 17)
        with pytest.raises(ValueError):
            pell_implies_nontrivial(rec._replace(x=rec.x + 1))


class TestPastStrLimit:
    """Candidates past the 4300 digits at which CPython's int str() stops."""

    def test_digit_count_equals_str_length(self):
        for q in range(3, 1501, 2):
            if is_probable_prime(q):
                p = pell_value(q)
                assert _digit_count(p) == len(str(p)), q
        for k in range(1, 60):
            for n in (10**k - 1, 10**k, 10**k + 1, 2**k - 1, 2**k):
                assert _digit_count(n) == len(str(n)), n

    def test_classify_at_7603(self):
        p = pell_value(7603)
        rec = _classify(7603, p, 0)
        assert rec.digits == 4348 and 10**4347 <= p < 10**4348
        assert rec.status == "composite" and p % 91237 == 0

    def test_checkpoint_round_trip(self, tmp_path, classified):
        # a saved search to 7601 with every candidate composite: the resumed
        # search classifies the 4348-digit candidate at 7603 and nothing else
        qs = odd_primes_upto(7601)
        cp = tmp_path / "state.json"
        records = [{"q": q, "status": "composite"} for q in qs]
        cp.write_text(json.dumps({"kind": "pell_search", "n": 7601, "records": records}))
        assert pell_search(7603, checkpoint=str(cp)) == []
        assert classified == [7603]
        state = json.loads(cp.read_text())
        assert state["n"] == 7603
        assert state["records"] == [*records, {"q": 7603, "status": "composite"}]
        assert pell_search(7603, checkpoint=str(cp)) == [] and classified == [7603]
