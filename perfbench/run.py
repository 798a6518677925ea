"""lambda-sieve benchmark: CLI workloads in a closed loop with one client.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout (the package is imported from
./src).  Each iteration is a fresh `lambda-sieve` CLI process in its own
temporary directory, started only after the previous one has ended, so
every iteration pays the cold caches a user pays on every call.  New
iterations start until S seconds of them have run.  Each output passes
the correctness gate in workloads.py; a failed iteration counts in
`failed` and its timings stay in the medians.

With --trace 0 the last stdout line holds the end-to-end metrics of
BENCHMARK.json, as medians over the iterations.  With --trace 1 the
same loop runs, then one more iteration with spans recorded
(tracer.py), then fixed-prime ξ probes; the last line holds the
per-layer metrics of BENCHMARK.json, and a per-layer table is printed
above it.  Every run also writes a result file under perfbench/out/.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib.util
import json
import os
import platform
import random
import shutil
import statistics
import sys
import tempfile
import time

BENCH = os.path.dirname(os.path.abspath(__file__))
SETUP_REPEATS = 10  # setup-only processes per run, besides one per iteration
PROBE_REPEATS = 3
# first primes = 1 (mod 3) above 10**6 and 10**7
PROBES = {"1e6": 1000003, "1e7": 10000141}


def fingerprint() -> dict:
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next(
                (line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")),
                cpu,
            )
    except OSError:
        pass
    import numpy

    return {
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "gmpy2": importlib.util.find_spec("gmpy2") is not None,
        "platform": platform.platform(),
    }


class Runner:
    """Runs child.py processes, each with a clean environment and a fresh tmp dir."""

    def __init__(self, src: str, tmp_root: str) -> None:
        self.src = src
        self.tmp_root = tmp_root
        self.loadavg: list[float] = []

    def run(self, mode: str, argv, check=None, run_id: str | None = None) -> dict:
        """One child process: wall, rusage, exit code, stdout, the child's report.

        argv(tmp) gives the child's arguments; check(rec, tmp) the gate's
        errors, run before tmp is removed.  With run_id the child records
        spans, returned under "spans".
        """
        tmp = tempfile.mkdtemp(dir=self.tmp_root)
        try:
            # a user's shell: no interpreter tweaks (bytecode caching stays on),
            # no scan-limit override; ./src first, so it shadows any install
            env = {
                k: v
                for k, v in os.environ.items()
                if not k.startswith(("PYTHON", "LAMBDA_SIEVE_", "PERFBENCH_"))
                or k == "PYTHONHOME"
            }
            inherited = os.environ.get("PYTHONPATH")
            env.update(
                PYTHONPATH=os.pathsep.join([self.src] + ([inherited] if inherited else [])),
                TMPDIR=tmp,
                PERFBENCH_REPORT=os.path.join(tmp, "report.json"),
            )
            span_dir = os.path.join(tmp, "spans")
            if run_id is not None:
                os.mkdir(span_dir)
                env.update(PERFBENCH_SPAN_DIR=span_dir, PERFBENCH_RUN_ID=run_id)
            rec = self._spawn([mode, *argv(tmp)], env, tmp)
            if run_id is not None:
                import layers

                rec["spans"] = layers.load(span_dir)
            rec["errors"] = check(rec, tmp) if check else []
            return rec
        finally:
            shutil.rmtree(tmp)

    def _spawn(self, args: list[str], env: dict, tmp: str) -> dict:
        out_path = os.path.join(tmp, "stdout")
        err_path = os.path.join(tmp, "stderr")
        actions = [
            (os.POSIX_SPAWN_OPEN, 0, os.devnull, os.O_RDONLY, 0),
            (os.POSIX_SPAWN_OPEN, 1, out_path, os.O_WRONLY | os.O_CREAT | os.O_TRUNC, 0o644),
            (os.POSIX_SPAWN_OPEN, 2, err_path, os.O_WRONLY | os.O_CREAT | os.O_TRUNC, 0o644),
        ]
        argv = [sys.executable, os.path.join(BENCH, "child.py"), *args]
        self.loadavg.append(os.getloadavg()[0])
        cwd = os.getcwd()
        os.chdir(tmp)
        try:
            t0 = time.perf_counter()
            pid = os.posix_spawn(sys.executable, argv, env, file_actions=actions)
            _, status, ru = os.wait4(pid, 0)
            wall = time.perf_counter() - t0
        finally:
            os.chdir(cwd)
        rec = {
            "wall_s": wall,
            "cpu_s": ru.ru_utime + ru.ru_stime,
            "peak_rss_mb": ru.ru_maxrss / 1024,
            "exit": os.waitstatus_to_exitcode(status),
        }
        try:
            with open(os.path.join(tmp, "report.json")) as fh:
                rec.update(json.load(fh))
        except (OSError, ValueError):
            pass  # the child died before writing it; the exit code says so
        with open(out_path, "rb") as fh:
            rec["stdout"] = fh.read()
        rec["digest"] = hashlib.sha256(rec["stdout"]).hexdigest()
        with open(err_path, "rb") as fh:
            rec["stderr"] = fh.read()[-2000:].decode(errors="replace")
        return rec


def gate(wl, bound: int, seed: int, src: str):
    """check(rec, tmp): everything an iteration's output must satisfy."""

    def check(rec: dict, tmp: str) -> list[str]:
        if rec["exit"] != 0:
            return [f"exit code {rec['exit']}: {rec['stderr'][-300:]}"]
        if not rec.get("module", "").startswith(src + os.sep):
            return [f"lambda_sieve imported from {rec.get('module')}, not {src}"]
        errs = []
        if seed == 0 and rec["digest"] != wl.digest0:
            errs.append(f"stdout digest {rec['digest']} != frozen {wl.digest0}")
        return errs + wl.check(bound, rec["stdout"].decode(), tmp)

    return check


def median(values) -> float:
    """Median, or 0.0 when no iteration produced the value (all crashed)."""
    values = list(values)
    return statistics.median(values) if values else 0.0


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    sys.path.insert(0, BENCH)
    from workloads import WORKLOADS

    root = os.getcwd()
    src = os.path.join(root, "src")
    if not os.path.isfile(os.path.join(src, "lambda_sieve", "cli.py")):
        print(f"error: no lambda_sieve sources under {src}", file=sys.stderr)
        return 2
    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    with open(os.path.join(root, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    wl = WORKLOADS[args.workload]
    bound = wl.bound(args.seed)
    items = wl.items(bound)

    out_dir = os.path.join(BENCH, "out")
    os.makedirs(os.path.join(out_dir, "tmp"), exist_ok=True)
    runner = Runner(src, os.path.join(out_dir, "tmp"))
    result = measure(args, spec, wl, bound, items, runner, src)

    result.update(
        workload=wl.name,
        seed=args.seed,
        seconds=args.seconds,
        trace=args.trace,
        bound=bound,
        items=items,
        argv=wl.argv(bound, "<tmp>"),
        fingerprint=fingerprint(),
        loadavg_before_each_process=runner.loadavg,
    )
    baseline_path = os.path.join(BENCH, "baseline.json")
    if os.path.exists(baseline_path):
        with open(baseline_path) as fh:
            base = json.load(fh)
        result["trajectory"] = [
            {"commit": base["commit"], "metrics": base["workloads"].get(wl.name, {})},
            {"commit": "this checkout", "metrics": {k: v["value"] for k, v in result["metrics"].items()}},
        ]
    stamp = time.strftime("%Y%m%dT%H%M%S")
    name = f"{wl.name}-seed{args.seed}-trace{args.trace}-{stamp}-{os.getpid()}"
    with open(os.path.join(out_dir, name + ".json"), "w") as fh:
        json.dump(result, fh, indent=1)
    for line in result.pop("table", []):
        print(line)
    print(
        json.dumps(
            {
                "correct": result["failed"] == 0,
                "attempted": result["attempted"],
                "failed": result["failed"],
                "metrics": result["metrics"],
            }
        )
    )
    return 0


def measure(args, spec, wl, bound, items, runner, src) -> dict:
    setup = []
    for _ in range(SETUP_REPEATS):
        rec = runner.run("setup", lambda tmp: [])
        if rec["exit"] != 0 or "setup_s" not in rec:
            raise SystemExit(f"error: setup process failed: {rec['stderr']}")
        setup.append(rec["setup_s"])

    check = gate(wl, bound, args.seed, src)
    iterations = []
    spent = 0.0
    while spent < args.seconds or not iterations:
        rec = runner.run("run", lambda tmp: wl.argv(bound, tmp), check)
        spent += rec["wall_s"]
        iterations.append(rec)

    traced = probes = None
    if args.trace:
        traced = runner.run(
            "trace", lambda tmp: wl.argv(bound, tmp), check, f"{wl.name}/seed{args.seed}/traced"
        )
        traced["traced"] = True
        probes = [
            runner.run("probe", lambda tmp: [str(p) for p in PROBES.values()], run_id=f"probe/{k}")
            for k in range(PROBE_REPEATS)
        ]
        for rec in probes:
            if rec["exit"] != 0:
                traced["errors"].append(f"probe exit {rec['exit']}: {rec['stderr'][-300:]}")

    # independent re-check of a seeded sample of rows, once per distinct output
    checked = iterations + ([traced] if traced else [])
    sys.path.insert(0, src)
    rng = random.Random(args.seed)
    oracle_errors = {}
    for rec in checked:
        if rec["exit"] != 0 or rec["digest"] in oracle_errors:
            continue
        try:
            oracle_errors[rec["digest"]] = wl.oracle(bound, rec["stdout"].decode(), rng)
        except Exception as exc:  # a crash in a re-check is a failed check
            oracle_errors[rec["digest"]] = [f"oracle raised {exc!r}"]
    for rec in checked:
        rec["errors"] += oracle_errors.get(rec["digest"], [])

    e2e = {
        "wall_s": median(r["wall_s"] for r in iterations),
        "items_per_s": median(items / r["main_s"] for r in iterations if "main_s" in r),
        "setup_s": median(setup + [r["setup_s"] for r in iterations if "setup_s" in r]),
        "cpu_s": median(r["cpu_s"] for r in iterations),
        "peak_rss_mb": median(r["peak_rss_mb"] for r in iterations),
    }
    result = {"setup_only_s": setup, "end_to_end": e2e}
    values, wanted = e2e, spec["end_to_end"]
    if args.trace:
        values = per_layer(wl, bound, args.seed, traced, probes, e2e["wall_s"], result)
        wanted = spec["per_layer"]
    result["iterations"] = [
        {k: v for k, v in r.items() if k not in ("stdout", "stderr")} for r in checked
    ]
    result["attempted"] = len(checked)
    result["failed"] = sum(1 for r in checked if r["errors"])
    # zero on a healthy run, so it is kept here and not among the metrics
    e2e["fail_ratio"] = result["failed"] / result["attempted"]
    result["errors"] = [r["errors"] for r in checked if r["errors"]]
    result["metrics"] = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted}
    return result


def per_layer(wl, bound, seed, traced, probes, untraced_wall, result) -> dict:
    """Per-layer metrics of the traced iteration and the probes; fills result."""
    import layers

    m = layers.workload_metrics(traced["spans"], traced["wall_s"], len(traced["stdout"]))
    m["trace.overhead_s"] = traced["wall_s"] - untraced_wall
    probe_values = [layers.probe_metrics(rec["spans"], PROBES) for rec in probes]
    for key in probe_values[0]:
        m[key] = median(v[key] for v in probe_values if key in v)
    table = [f"== {wl.name} (bound {bound}, seed {seed}) =="]
    table += layers.table(m, traced["wall_s"])
    table.append(f"trace.overhead_s {m['trace.overhead_s']:.3f} (traced wall minus untraced median)")
    table += [f"{key} {m[key]:.4f}" for key in sorted(m) if "probe_" in key]
    result["per_layer"] = m
    result["table"] = table
    layers.save(
        [p for rec in [traced, *probes] for p in rec.pop("spans")],
        os.path.join(BENCH, "out", f"spans-{wl.name}-seed{seed}.npz"),
    )
    return m


if __name__ == "__main__":
    sys.exit(main())
