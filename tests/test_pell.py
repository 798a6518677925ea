import json
import multiprocessing

import mpmath
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import lambda_sieve.pell as pell_mod
from lambda_sieve.modmath import is_probable_prime
from lambda_sieve.pell import (
    NONTRIVIAL_SIZE_GUARD,
    PellRecord,
    pell_implies_nontrivial,
    pell_search,
    pell_value,
)

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


class TestImplication:
    def test_small_candidates_are_exceptional(self):
        for r in pell_search(16):
            assert pell_implies_nontrivial(r)

    def test_size_guard(self):
        big = next(r for r in pell_search(20) if r.q == 17)
        assert big.p_candidate > NONTRIVIAL_SIZE_GUARD
        with pytest.raises(ValueError):
            pell_implies_nontrivial(big)

    def test_composite_record_rejected(self):
        fake = PellRecord(q=9, p_candidate=pell_value(9), digits=5, status="composite", x=0)
        with pytest.raises(ValueError):
            pell_implies_nontrivial(fake)
