import decimal
import hashlib
import json
import subprocess
import sys
import tracemalloc
from importlib import resources

import pytest

import lambda_sieve.cli as cli_mod
import lambda_sieve.gaussfact as gaussfact_mod
import lambda_sieve.jacobi as jacobi_mod
import lambda_sieve.modmath as modmath_mod
import lambda_sieve.pell as pell_mod
from lambda_sieve.cli import _FIELDS, main
from lambda_sieve.pell import PellRecord, pell_value
from lambda_sieve.specialnums import euler_mod, glaisher_mod


def run_cli(capsys, *argv):
    rc = main(list(argv))
    out = capsys.readouterr().out
    return rc, out


class TestScanExceptional:
    def test_csv_golden(self, capsys):
        rc, out = run_cli(
            capsys, "scan-exceptional", "--m", "3", "--bound", "3000", "--format", "csv"
        )
        assert rc == 0
        assert out == (
            "p,m,xi,verdict\n"
            "13,3,0,true\n"
            "181,3,0,true\n"
            "2521,3,0,true\n"
        )

    def test_all_rows_flag(self, capsys):
        rc, out = run_cli(
            capsys, "scan-exceptional", "--m", "3", "--bound", "100",
            "--all", "--format", "csv",
        )
        lines = out.splitlines()
        assert lines[0] == "p,m,xi,verdict"
        assert lines[1] == "7,3,2,false"
        assert lines[2] == "13,3,0,true"
        assert lines[3] == "19,3,6,false"

    def test_json_envelope(self, capsys):
        rc, out = run_cli(
            capsys, "scan-exceptional", "--m", "4", "--bound", "2000", "--format", "json"
        )
        doc = json.loads(out)
        assert doc["schema"] == "lambda-sieve/v1"
        assert doc["command"] == "scan-exceptional"
        assert doc["params"] == {"m": 4, "bound": 2000, "all": False}
        assert doc["rows"] == []

    def test_bound_guard(self, capsys, monkeypatch):
        monkeypatch.setenv("LAMBDA_SIEVE_MAX_BOUND", "1000")
        with pytest.raises(SystemExit) as exc:
            main(["scan-exceptional", "--m", "3", "--bound", "2000"])
        assert exc.value.code == 2

    @pytest.mark.parametrize("raw", ["1e8", "10**8", "many"])
    def test_malformed_guard_is_usage_error(self, capsys, monkeypatch, raw):
        monkeypatch.setenv("LAMBDA_SIEVE_MAX_BOUND", raw)
        with pytest.raises(SystemExit) as exc:
            main(["scan-exceptional", "--m", "3", "--bound", "100"])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert err.startswith("usage: ")
        assert f"LAMBDA_SIEVE_MAX_BOUND={raw!r} is not an integer" in err

    def test_default_guard_allows_small(self, capsys, monkeypatch):
        monkeypatch.delenv("LAMBDA_SIEVE_MAX_BOUND", raising=False)
        rc, _ = run_cli(capsys, "scan-exceptional", "--m", "3", "--bound", "100")
        assert rc == 0

    @pytest.mark.parametrize(
        "argv",
        [
            ["--m", "1", "--bound", "100"],
            ["--m", "3", "--bound", "2"],
            ["--m", "3", "--bound", "100", "--workers", "0"],
            ["--m", "3", "--bound", "100", "--workers", "-2"],
        ],
    )
    def test_bad_input_is_usage_error(self, capsys, argv):
        with pytest.raises(SystemExit) as exc:
            main(["scan-exceptional", *argv])
        assert exc.value.code == 2
        assert "must be at least" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv, message",
    [
        (["scan-lambda", "--d", "3", "--bound", "2"], "must be at least 3"),
        (["scan-lambda", "--d", "4", "--bound", "100"], "not square-free"),
        (["scan-lambda", "--d", "0", "--bound", "100"], "must be at least 1"),
        (["glaisher-table", "--bound", "5"], "must be at least 7"),
        (["euler-check", "--bound", "3"], "must be at least 5"),
        (["pell", "--q-bound", "2"], "must be at least 3"),
    ],
)
def test_subcommand_bad_input_is_usage_error(capsys, argv, message):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert err.startswith("usage: ") and message in err


class TestScanLambda:
    def test_text_and_csv(self, capsys):
        rc, out = run_cli(capsys, "scan-lambda", "--d", "3", "--bound", "3000")
        assert rc == 0
        assert out.endswith("3 rows\n")
        rc, out = run_cli(
            capsys, "scan-lambda", "--d", "3", "--bound", "3000", "--format", "csv"
        )
        rows = [line.split(",") for line in out.splitlines()[1:]]
        assert [r[1] for r in rows] == ["13", "181", "2521"]
        assert all(r[3] == "1" for r in rows)

    def test_json_value_is_string(self, capsys):
        rc, out = run_cli(
            capsys, "scan-lambda", "--d", "5", "--bound", "6000", "--format", "json"
        )
        doc = json.loads(out)
        assert [r["p"] for r in doc["rows"]] == [5881]
        assert doc["rows"][0]["value"] == "1"


class TestPellCommand:
    def test_worker_byte_identity(self, capsys):
        # pell is the one subcommand that fans out to processes
        for fmt in ("csv", "json", "text"):
            a, b = (
                run_cli(
                    capsys, "pell", "--q-bound", "300", "--workers", w, "--format", fmt
                )[1]
                for w in ("1", "2")
            )
            assert a == b, fmt

    def test_json_big_ints_are_strings(self, capsys):
        rc, out = run_cli(capsys, "pell", "--q-bound", "80", "--format", "json")
        doc = json.loads(out)
        rows = doc["rows"]
        assert [r["q"] for r in rows] == [3, 5, 7, 11, 13, 17, 19, 79]
        last = rows[-1]
        assert isinstance(last["p"], str)
        assert int(last["p"]) == pell_value(79)
        assert isinstance(last["x"], str)

    def test_checkpoint_flag(self, capsys, tmp_path):
        cp = tmp_path / "cd.json"
        rc, out1 = run_cli(
            capsys, "pell", "--q-bound", "150", "--checkpoint", str(cp), "--format", "csv"
        )
        assert rc == 0 and cp.exists()
        rc, out2 = run_cli(
            capsys, "pell", "--q-bound", "150", "--checkpoint", str(cp), "--format", "csv"
        )
        assert out1 == out2

    def test_record_past_str_limit(self, capsys, monkeypatch):
        p, x = pell_value(7603), 10**5000 + 7
        rec = PellRecord(
            q=7603, p_candidate=p, digits=4348, status="probable_prime", x=x
        )
        monkeypatch.setattr(pell_mod, "pell_search", lambda *a, **k: [rec])
        dp, dx = str(decimal.Decimal(p)), str(decimal.Decimal(x))
        rc, out = run_cli(capsys, "pell", "--q-bound", "7603", "--format", "json")
        (row,) = json.loads(out)["rows"]
        assert rc == 0 and row["digits"] == 4348
        assert row["p"] == dp and row["x"] == dx
        rc, out = run_cli(capsys, "pell", "--q-bound", "7603", "--format", "csv")
        assert out == f"q,digits,status,p,x\n7603,4348,probable_prime,{dp},{dx}\n"
        rc, out = run_cli(capsys, "pell", "--q-bound", "7603")
        line = f"q=7603  digits=4348  status=probable_prime  p={dp}  x={dx}"
        assert out == line + "\n1 rows\n"


SEARCHES = [
    ["scan-exceptional", "--m", "3", "--bound", "100"],
    ["pell", "--q-bound", "50"],
]


class TestPathChecks:
    @pytest.mark.parametrize(
        "target, message",
        [
            ("missing/f.json", "no such directory"),
            ("", "is a directory"),
            pytest.param("x" * 300, "file name longer than", id="long-name"),
        ],
    )
    @pytest.mark.parametrize("flag", ["--out", "--checkpoint"])
    @pytest.mark.parametrize("argv", SEARCHES)
    def test_unwritable_path_stops_before_work(
        self, capsys, monkeypatch, tmp_path, argv, flag, target, message
    ):
        ran = []
        for mod, name in ((cli_mod, "scan_exceptional"), (pell_mod, "pell_search")):
            monkeypatch.setattr(mod, name, lambda *a, **k: ran.append(a))
        with pytest.raises(SystemExit) as exc:
            main([*argv, flag, str(tmp_path / target)])
        assert exc.value.code == 2 and ran == []
        err = capsys.readouterr().err
        assert err.startswith("usage: ") and message in err

    @pytest.mark.parametrize("existing", [False, True])
    @pytest.mark.parametrize("flag", ["--out", "--checkpoint"])
    @pytest.mark.parametrize("argv", SEARCHES)
    def test_permission_denied_stops_before_work(
        self, capsys, monkeypatch, tmp_path, argv, flag, existing
    ):
        # os.access grants root everything, so the refusal is simulated: of an
        # existing --out file itself, else of the directory (a checkpoint is
        # replaced through a temporary file beside it)
        target = tmp_path / "f.json"
        if existing:
            target.write_text("kept\n")
        refused = str(target) if existing and flag == "--out" else str(tmp_path)
        monkeypatch.setattr(cli_mod.os, "access", lambda path, mode: path != refused)
        ran = []
        for mod, name in ((cli_mod, "scan_exceptional"), (pell_mod, "pell_search")):
            monkeypatch.setattr(mod, name, lambda *a, **k: ran.append(a))
        with pytest.raises(SystemExit) as exc:
            main([*argv, flag, str(target)])
        assert exc.value.code == 2 and ran == []
        err = capsys.readouterr().err
        assert err.startswith("usage: ") and "is not writable" in err

    def test_existing_out_file_needs_only_its_own_permission(
        self, capsys, monkeypatch, tmp_path
    ):
        # an existing --out file (/dev/null, or one made beforehand in a
        # directory the user cannot write) is opened in place
        target = tmp_path / "t.csv"
        target.write_text("old\n")
        monkeypatch.setattr(cli_mod.os, "access", lambda path, mode: path != str(tmp_path))
        argv = ["euler-check", "--bound", "200", "--format", "csv"]
        rc, out = run_cli(capsys, *argv)
        assert main([*argv, "--out", str(target)]) == 0
        assert target.read_text() == out

    @pytest.mark.parametrize("argv", SEARCHES)
    def test_read_only_checkpoint_resumes(self, capsys, monkeypatch, tmp_path, argv):
        # only the checkpoint's directory needs write permission
        cp = tmp_path / "s.json"
        argv = [*argv, "--format", "csv", "--checkpoint", str(cp)]
        rc1, out1 = run_cli(capsys, *argv)
        assert rc1 == 0 and cp.exists()
        monkeypatch.setattr(cli_mod.os, "access", lambda path, mode: path != str(cp))
        rc2, out2 = run_cli(capsys, *argv)
        assert rc2 == 0 and out2 == out1

    @pytest.mark.parametrize("text", ["hello\n", "[1, 2]\n"])
    @pytest.mark.parametrize("argv", SEARCHES)
    def test_non_object_checkpoint_is_left_alone(self, capsys, tmp_path, argv, text):
        path = tmp_path / "state.json"
        path.write_text(text)
        with pytest.raises(SystemExit) as exc:
            main([*argv, "--checkpoint", str(path)])
        assert exc.value.code == 2
        assert f"{path} is not a checkpoint" in capsys.readouterr().err
        assert path.read_text() == text

    @pytest.mark.parametrize(
        "argv, text, field",
        [
            (SEARCHES[0], '{"kind": "scan_exceptional", "m": 3, "start": 3}', "pairs"),
            (SEARCHES[1], '{"kind": "pell_search"}', "n"),
            # the json envelope of a run whose --out named the checkpoint
            (SEARCHES[0], '{"schema": "lambda-sieve/v1", "rows": []}', "kind"),
            (SEARCHES[1], '{"schema": "lambda-sieve/v1", "rows": []}', "kind"),
            (SEARCHES[1], '{"kind": ["pell_search"], "n": 5}', "kind"),
        ],
    )
    def test_checkpoint_missing_field_is_left_alone(
        self, capsys, tmp_path, argv, text, field
    ):
        path = tmp_path / "state.json"
        path.write_text(text)
        with pytest.raises(SystemExit) as exc:
            main([*argv, "--checkpoint", str(path)])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert f"{path} is not a checkpoint: no field {field!r}" in err
        assert path.read_text() == text

    @pytest.mark.parametrize("argv", SEARCHES)
    def test_unreadable_checkpoint_is_left_alone(
        self, capsys, monkeypatch, tmp_path, argv
    ):
        # root reads every file, so the refusal is simulated at open
        path = tmp_path / "state.json"
        assert main([*argv, "--checkpoint", str(path)]) == 0
        text = path.read_text()

        def refuse(file, *args, **kwargs):
            raise PermissionError(13, "Permission denied", file)

        monkeypatch.setattr(modmath_mod, "open", refuse, raising=False)
        capsys.readouterr()
        with pytest.raises(SystemExit) as exc:
            main([*argv, "--checkpoint", str(path)])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert err.startswith("usage: ")
        assert f"{path} cannot be read: Permission denied" in err
        assert path.read_text() == text

    @pytest.mark.parametrize("argv", SEARCHES)
    def test_out_at_the_checkpoint_stops_before_work(
        self, capsys, monkeypatch, tmp_path, argv
    ):
        # the output would replace the checkpoint, and the next run exit 2
        path = tmp_path / "state.json"
        assert main([*argv, "--checkpoint", str(path)]) == 0
        text = path.read_text()
        ran = []
        for mod, name in ((cli_mod, "scan_exceptional"), (pell_mod, "pell_search")):
            monkeypatch.setattr(mod, name, lambda *a, **k: ran.append(a))
        capsys.readouterr()
        with pytest.raises(SystemExit) as exc:
            main([*argv, "--checkpoint", str(path), "--out", f"{tmp_path}/./state.json"])
        assert exc.value.code == 2 and ran == []
        err = capsys.readouterr().err
        assert err.startswith("usage: ") and "both name" in err
        assert path.read_text() == text

    @pytest.mark.parametrize(
        "argv, text",
        [
            (
                SEARCHES[0],
                '{"kind": "scan_exceptional", "m": 3, "start": 3,'
                ' "pairs": 5, "next_start": 7}',
            ),
            (
                SEARCHES[1],
                '{"kind": "pell_search", "n": 5, "u_prev": "a", "u_cur": "1",'
                ' "y_prev": "1", "y_cur": "1", "records": []}',
            ),
            (
                SEARCHES[1],
                '{"kind": "pell_search", "n": 5, "u_prev": "1", "u_cur": "1",'
                ' "y_prev": "1", "y_cur": "1", "records": [{"q": 3, "p": "thirteen",'
                ' "digits": 2, "status": "prime_proven_small", "x": "7"}]}',
            ),
        ],
    )
    def test_malformed_checkpoint_is_left_alone(self, capsys, tmp_path, argv, text):
        path = tmp_path / "state.json"
        path.write_text(text)
        with pytest.raises(SystemExit) as exc:
            main([*argv, "--checkpoint", str(path)])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert f"{path} is not a checkpoint: malformed payload" in err
        assert path.read_text() == text

    @pytest.mark.parametrize(
        "edit, problem",
        [
            # the 45-digit survivor at q = 79 would silently go missing
            (lambda recs: [r for r in recs if r["q"] != 79], "not the odd primes"),
            # and a record past n would be classified a second time
            (lambda recs: [*recs, {"q": 101, "status": "composite"}], "not the odd primes"),
            (
                lambda recs: [{**r, "status": "prime"} if r["q"] == 79 else r for r in recs],
                "unknown status 'prime'",
            ),
        ],
        ids=["gap", "record-past-n", "unknown-status"],
    )
    def test_pell_records_are_checked(self, capsys, tmp_path, edit, problem):
        path = tmp_path / "state.json"
        assert main(["pell", "--q-bound", "100", "--checkpoint", str(path)]) == 0
        state = json.loads(path.read_text())
        text = json.dumps({**state, "records": edit(state["records"])})
        path.write_text(text)
        capsys.readouterr()
        with pytest.raises(SystemExit) as exc:
            main(["pell", "--q-bound", "200", "--checkpoint", str(path)])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert f"{path} is not a checkpoint: malformed payload" in err and problem in err
        assert path.read_text() == text

    @pytest.mark.parametrize(
        "edit, problem",
        [
            # the hit 181 would silently go missing
            (
                lambda st: {**st, "pairs": [q for q in st["pairs"] if q[0] != 181]},
                "not the scan's primes up to 2971",
            ),
            # 5 is not 1 (mod 3), yet it would come out as a row
            (
                lambda st: {**st, "pairs": [[5, 0], *st["pairs"]]},
                "not the scan's primes up to 2971",
            ),
            # and a xi of 10**9 would be reduced mod p
            (
                lambda st: {
                    **st,
                    "pairs": [[p, 10**9 if p == 181 else x] for p, x in st["pairs"]],
                },
                "xi = 1000000000 is not in [0, 181) at p = 181",
            ),
            # the primes of (2971, 4000] would be skipped
            (
                lambda st: {**st, "next_start": 10**6},
                "not the scan's primes up to 4000",
            ),
        ],
        ids=["gap", "wrong-class", "xi-out-of-range", "next-start-past-last-pair"],
    )
    def test_scan_pairs_are_checked(self, capsys, tmp_path, edit, problem):
        path = tmp_path / "state.json"
        argv = ["scan-exceptional", "--m", "3", "--checkpoint", str(path)]
        assert main([*argv, "--bound", "3000"]) == 0
        text = json.dumps(edit(json.loads(path.read_text())))
        path.write_text(text)
        capsys.readouterr()
        with pytest.raises(SystemExit) as exc:
            main([*argv, "--bound", "4000"])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert f"{path} is not a checkpoint: malformed payload" in err and problem in err
        assert path.read_text() == text


def test_scans_accept_workers(capsys):
    # accepted for a uniform interface; neither scan starts a process
    for argv in (("scan-exceptional", "--m", "3"), ("scan-lambda", "--d", "7")):
        rc, out = run_cli(capsys, *argv, "--bound", "200", "--workers", "2")
        assert rc == 0 and out.endswith(" rows\n"), argv


def test_cli_runs_without_numpy(tmp_path):
    # numpy backs only the oracle kernels and verify; no other subcommand loads
    # it.  The scans and tables load neither the process pool (pell's),
    # dataclasses nor the pell and verify modules; pell still runs afterwards
    script = f"""
import sys
from lambda_sieve.cli import main
for argv in (
    ["scan-exceptional", "--m", "3", "--bound", "500", "--all"],
    ["scan-exceptional", "--m", "5", "--bound", "500", "--all"],
    ["scan-lambda", "--d", "3", "--bound", "500"],
    ["scan-lambda", "--d", "7", "--bound", "500"],
    ["euler-check", "--bound", "200"],
    ["glaisher-table", "--bound", "200"],
    ["class-numbers", "--bound", "200"],
):
    assert main(argv) == 0, argv
unused = ("numpy", "concurrent.futures", "multiprocessing", "dataclasses", "inspect",
          "lambda_sieve.pell", "lambda_sieve.verify", "fractions", "decimal", "json")
loaded = sorted(m for m in unused if m in sys.modules)
assert not loaded, loaded
argv = ["pell", "--q-bound", "60", "--workers", "2", "--checkpoint", {str(tmp_path / "p.ckpt")!r}]
assert main(argv) == 0, argv
loaded = sorted(m for m in sys.modules if m.split(".")[0] == "numpy")
assert not loaded, loaded
"""
    proc = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True, timeout=120
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.count(" rows\n") == 8


def _run_without_site(script):
    # without the site module, which may import modules itself before any
    # test code runs
    src = str(resources.files("lambda_sieve").parent)
    script = f"import sys\nsys.path.insert(0, {src!r})\n{script}"
    proc = subprocess.run(
        [sys.executable, "-S", "-c", script],
        capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr


def test_cli_startup_leaves_checkpoint_io_unloaded():
    # tempfile is imported by the checkpoint writer alone
    _run_without_site("""
from lambda_sieve.cli import build_parser, main
build_parser()
assert main(["scan-lambda", "--d", "7", "--bound", "500", "--format", "csv"]) == 0
assert main(["euler-check", "--bound", "200"]) == 0
assert "tempfile" not in sys.modules
""")


def test_cli_startup_leaves_typing_unloaded():
    # the result types are collections.namedtuple subclasses
    _run_without_site("""
from lambda_sieve.cli import build_parser, main
build_parser()
assert main(["euler-check", "--bound", "200"]) == 0
assert "typing" not in sys.modules
""")


def test_workers_help_says_what_it_does(capsys):
    def help_text(cmd):
        with pytest.raises(SystemExit) as exc:
            main([cmd, "--help"])
        assert exc.value.code == 0
        return " ".join(capsys.readouterr().out.split())

    scan = help_text("scan-lambda")
    assert "process count" not in scan
    assert "WORKERS accepted for a uniform interface; runs in one process" in scan
    assert "WORKERS worker processes that classify the candidates" in help_text("pell")


class TestTables:
    def test_glaisher_default_bound(self, capsys):
        rc, out = run_cli(capsys, "glaisher-table", "--format", "csv")
        lines = out.splitlines()
        assert lines[0] == "p,residue_p,residue_p2,verdict"
        assert len(lines) == 22  # 21 primes = 1 mod 3 in [7, 200]
        assert lines[1] == "7,0,42,false"
        assert lines[2] == "13,0,0,true"

    def test_euler_check(self, capsys):
        rc, out = run_cli(capsys, "euler-check", "--bound", "100", "--format", "csv")
        lines = out.splitlines()[1:]
        ps = [int(line.split(",")[0]) for line in lines]
        assert ps == [5, 13, 17, 29, 37, 41, 53, 61, 73, 89, 97]
        assert all(line.split(",")[2] == "false" for line in lines)

    def test_tables_run_no_remainder_tree(self, capsys, monkeypatch):
        def tree(*args):
            raise AssertionError("the remainder tree ran")

        monkeypatch.setattr(gaussfact_mod, "_factorial_residues", tree)
        for cmd, series in (("euler-check", euler_mod), ("glaisher-table", glaisher_mod)):
            rc, out = run_cli(capsys, cmd, "--bound", "200", "--format", "csv")
            assert rc == 0
            rows = [line.split(",") for line in out.splitlines()[1:]]
            assert rows
            for row in rows:
                p, r2 = int(row[0]), int(row[-2])
                assert r2 == int(series(p - 1, p * p)[p - 1]), (cmd, p)
                if cmd == "glaisher-table":
                    assert int(row[1]) == r2 % p, p
                assert row[-1] == ("true" if r2 == 0 else "false"), (cmd, p)

    @pytest.mark.parametrize("cmd", ["euler-check", "glaisher-table"])
    @pytest.mark.parametrize("fmt", ["csv", "text"])
    def test_rows_stream_in_bounded_memory(self, tmp_path, cmd, fmt):
        # each row is written as it is produced: the peak does not grow with
        # the row count (about 8300 rows here; 3.5-4.6 MB when buffered)
        out = ["--format", fmt, "--out", str(tmp_path / "t")]
        assert main([cmd, "--bound", "200", *out]) == 0  # imports, cached fields
        tracemalloc.start()
        try:
            assert main([cmd, "--bound", "200000", *out]) == 0
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1.5e6, peak

    @pytest.mark.parametrize(
        "argv, digests",
        [
            (
                ["euler-check", "--bound", "20000"],
                (
                    "73c98eb2c5520d627f2bebe47d8a70f226153aa6bc3a235b08c8c6a64fc53a9c",
                    "4b6c17820a081a21ccdaca0fb0a48e798b429cde27d98696e081c91d5a79fcc4",
                    "954d88620a2d84eb541d3b46136adf6fbf95addf790dd8d6d4a246fef1ef9e2c",
                ),
            ),
            (
                ["glaisher-table", "--bound", "20000"],
                (
                    "e6ad7b75da7ed066c8a9d204dd0b46c28fb20358ab9839f6109ff6d451845a2d",
                    "6c82b574476f8efdbd597407b7fa08a8ce993837674feacb868e18c042a6a79f",
                    "bd93e71b90e4115ae984f690d4fb160d900ddf8d8ceda04e437b38f8b7a16897",
                ),
            ),
            (
                ["class-numbers", "--bound", "300"],
                (
                    "6f8657179833e7701af073581f7254516858ab6c34a19bedf1f67673fa5897b8",
                    "b8454a04231b52bdbf6e6731c39b02f414f40d162d68d2fe28352a80a10b3331",
                    "a7676d1dc2a73ec739db654045c76d05b3709d44e0e47c3a80af4c3ede24f4e6",
                ),
            ),
        ],
    )
    def test_stdout_digests(self, capsys, argv, digests):
        # csv, text and json stdout, pinned from the buffered writer's bytes
        for fmt, digest in zip(("csv", "text", "json"), digests):
            rc, out = run_cli(capsys, *argv, "--format", fmt)
            assert rc == 0
            assert hashlib.sha256(out.encode()).hexdigest() == digest, fmt

    def test_class_numbers(self, capsys):
        rc, out = run_cli(capsys, "class-numbers", "--bound", "30", "--format", "csv")
        lines = out.splitlines()
        assert lines[0] == "d,D,discriminant,h,maximal"
        assert "1,4,-4,1,true" == lines[1]
        assert "5,20,-20,2,true" in lines
        assert "23,46,-23,3,false" in lines


class TestOutFile:
    def test_writes_lf_utf8(self, tmp_path, capsys):
        target = tmp_path / "rows.csv"
        rc, out = run_cli(
            capsys, "scan-exceptional", "--m", "3", "--bound", "3000",
            "--format", "csv", "--out", str(target),
        )
        assert rc == 0 and out == ""
        raw = target.read_bytes()
        assert b"\r" not in raw
        assert raw.decode("utf-8").splitlines()[1] == "13,3,0,true"


class TestVerifyCommand:
    def test_filtered_run_passes(self, capsys):
        rc, out = run_cli(capsys, "verify", "--only", "pell")
        assert rc == 0
        assert "ok   pell-recurrence-identity" in out
        assert out.rstrip().endswith("checks passed")

    def test_unknown_filter_errors(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["verify", "--only", "not-a-check"])
        assert exc.value.code == 2

    def test_detects_injected_fault(self, capsys, monkeypatch):
        monkeypatch.setattr(jacobi_mod, "_PSI_SIGN", -1)
        rc, out = run_cli(capsys, "verify", "--only", "lambda-routes-agree")
        assert rc == 1
        assert "FAIL lambda-routes-agree" in out


def test_schema_resource_is_valid():
    text = resources.files("lambda_sieve").joinpath("schema.json").read_text()
    doc = json.loads(text)
    assert doc["version"] == 1
    for cmd in (
        "scan-exceptional", "scan-lambda", "pell",
        "glaisher-table", "euler-check", "class-numbers", "verify",
    ):
        assert cmd in doc["commands"]


def test_schema_row_fields_match_cli():
    # README: the column order is frozen in schema.json; _emit writes _FIELDS
    text = resources.files("lambda_sieve").joinpath("schema.json").read_text()
    commands = json.loads(text)["commands"]
    for cmd, fields in _FIELDS.items():
        assert fields == list(commands[cmd]["row_fields"]), cmd


def test_console_entry_smoke():
    proc = subprocess.run(
        [sys.executable, "-m", "lambda_sieve.cli", "scan-exceptional",
         "--m", "3", "--bound", "200", "--format", "csv"],
        capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0
    assert proc.stdout.startswith("p,m,xi,verdict\n13,3,0,true")
