"""Span recorder that wraps lambda_sieve's functions from outside the package.

`install()` replaces each function named in TARGETS with a wrapper that
records one span (name, start, end, parent) per call, plus a few counts
taken at the same boundary.  A function imported by name into another
module is replaced there too, since that is where its caller looks it
up (`wilson_quotient` in gaussfact, `_write_checkpoint` in pell, ...).

Spans stay in flat arrays in memory and are written once, when the
process ends, to `spans-<pid>.npz` in the directory named by
PERFBENCH_SPAN_DIR.  Process-pool workers forked from a traced process
drop the spans they inherited and write their own file at exit.
"""

from __future__ import annotations

import importlib
import json
import multiprocessing.util
import os
import time
from array import array
from concurrent.futures import ProcessPoolExecutor

LAYERS = ("_kernels", "modmath", "quadfields", "gaussfact", "jacobi", "specialnums", "pell", "cli")

# (module, attribute, span name, extra bookkeeping)
TARGETS = (
    ("_kernels", "mulmod", "kernels.mulmod", "mulmod"),
    ("_kernels", "powmod", "kernels.powmod", "powmod"),
    ("_kernels", "prod_mod", "kernels.prod_mod", None),
    ("_kernels", "cumprod_mod", "kernels.cumprod_mod", None),
    ("_kernels", "fq_table", "kernels.fq_table", None),
    ("_kernels", "inverse_table", "kernels.inverse_table", None),
    ("_kernels", "_composite_fill", "kernels.composite_fill", None),
    ("_kernels", "spf_upto", "kernels.spf_upto", None),
    ("_kernels", "primes_upto", "kernels.primes_upto", None),
    ("modmath", "wilson_quotient", "modmath.wilson_quotient", None),
    ("modmath", "harmonic_mod", "modmath.harmonic_mod", None),
    ("modmath", "sieve_primes", "modmath.sieve_primes", "generator"),
    ("modmath", "is_probable_prime", "modmath.is_probable_prime", None),
    ("modmath", "_mr_witness", "modmath.mr_witness", None),
    ("modmath", "_strong_lucas", "modmath.strong_lucas", None),
    ("quadfields", "make_field", "quadfields.make_field", None),
    ("quadfields", "character_table", "quadfields.character_table", None),
    ("gaussfact", "_xi_fq", "gaussfact.xi_fq", None),
    ("gaussfact", "scan_exceptional", "gaussfact.scan_exceptional", None),
    ("gaussfact", "_write_checkpoint", "gaussfact.write_checkpoint", "checkpoint"),
    ("jacobi", "_omega_table", "jacobi.omega_table", None),
    ("jacobi", "_psi_power", "jacobi.psi_power", None),
    ("jacobi", "jacobi_sum_mod_p2", "jacobi.jacobi_sum_mod_p2", None),
    ("jacobi", "lambda_criterion_jacobi", "jacobi.lambda_criterion_jacobi", None),
    ("jacobi", "scan_lambda", "jacobi.scan_lambda", None),
    ("specialnums", "euler_mod", "specialnums.euler_mod", None),
    ("pell", "pell_search", "pell.pell_search", None),
    ("pell", "_trial_tables", "pell.trial_tables", None),
    ("pell", "_small_factor", "pell.small_factor", "small_factor"),
    ("pell", "_classify", "pell.classify", "classify"),
    ("cli", "main", "cli.main", None),
    ("cli", "_emit", "cli.emit", None),
)


class Tracer:
    """Flat in-memory span store for one process."""

    def __init__(self, span_dir: str, run_id: str) -> None:
        self.span_dir = span_dir
        self.run_id = run_id
        self.labels: list[str] = []
        self.name = array("i")
        self.parent = array("q")
        self.start = array("d")
        self.end = array("d")
        self.stack: list[int] = []
        self.counts: dict[str, int] = {}

    def label(self, name: str) -> int:
        if name not in self.labels:
            self.labels.append(name)
        return self.labels.index(name)

    def begin(self, name: str) -> int:
        i = len(self.start)
        self.name.append(self.label(name))
        self.parent.append(self.stack[-1] if self.stack else -1)
        self.end.append(0.0)
        self.stack.append(i)
        self.start.append(time.perf_counter())
        return i

    def finish(self, i: int) -> None:
        self.end[i] = time.perf_counter()
        self.stack.remove(i)

    def add(self, key: str, n: int) -> None:
        self.counts[key] = self.counts.get(key, 0) + n

    def wrap(self, fn, name: str, after=None):
        """fn wrapped so that each call records a span; after(args, result)."""
        k = self.label(name)
        names, parents, starts, ends, stack = (
            self.name, self.parent, self.start, self.end, self.stack
        )
        clock = time.perf_counter

        # begin()/finish() inlined: this runs once per call, ~10**6 times a run
        def traced(*args, **kwargs):
            i = len(starts)
            names.append(k)
            parents.append(stack[-1] if stack else -1)
            ends.append(0.0)
            stack.append(i)
            starts.append(clock())
            try:
                out = fn(*args, **kwargs)
            finally:
                ends[i] = clock()
                stack.pop()
            if after is not None:
                after(args, out)
            return out

        traced.__wrapped__ = fn
        return traced

    def wrap_generator(self, fn, name: str):
        """A generator function whose every next() is recorded as a span."""

        def traced(*args, **kwargs):
            gen = fn(*args, **kwargs)
            while True:
                i = self.begin(name)
                try:
                    item = next(gen)
                except StopIteration:
                    return
                finally:
                    self.finish(i)
                yield item

        traced.__wrapped__ = fn
        return traced

    def reset(self) -> None:
        """Forget everything recorded so far (used in forked workers)."""
        for arr in (self.name, self.parent, self.start, self.end):
            del arr[:]
        self.stack.clear()
        self.counts.clear()

    def dump(self) -> None:
        import numpy as np

        path = os.path.join(self.span_dir, f"spans-{os.getpid()}.npz")
        np.savez(
            path,
            name=np.array(self.name, dtype=np.int32),
            parent=np.array(self.parent, dtype=np.int64),
            start=np.array(self.start, dtype=np.float64),
            end=np.array(self.end, dtype=np.float64),
            meta=np.array(
                json.dumps(
                    {
                        "run_id": self.run_id,
                        "pid": os.getpid(),
                        "labels": self.labels,
                        "counts": self.counts,
                    }
                )
            ),
        )


_tracer: Tracer | None = None


def _worker_init() -> None:
    """Pool-worker initializer: start clean and write spans at worker exit."""
    _tracer.reset()
    multiprocessing.util.Finalize(None, _tracer.dump, exitpriority=10)


class CountingPool(ProcessPoolExecutor):
    """ProcessPoolExecutor that counts pools and tasks in the creating process."""

    def __init__(self, *args, **kwargs) -> None:
        kwargs.setdefault("initializer", _worker_init)
        super().__init__(*args, **kwargs)
        _tracer.add("fanout.pools", 1)
        self._span = _tracer.begin("pell.fanout")

    def submit(self, *args, **kwargs):
        _tracer.add("fanout.tasks", 1)
        return super().submit(*args, **kwargs)

    def shutdown(self, *args, **kwargs) -> None:
        try:
            super().shutdown(*args, **kwargs)
        finally:
            if self._span is not None:
                _tracer.finish(self._span)
                self._span = None


def _bookkeeping(t: Tracer, kind: str | None, direct_max: int):
    if kind == "mulmod":

        def after(args, out):
            n = getattr(out, "size", 1)
            t.add("mulmod.elems_direct" if args[2] <= direct_max else "mulmod.elems_limb", n)

        return after
    if kind == "powmod":
        return lambda args, out: t.add("powmod.elems", getattr(out, "size", 1))
    if kind == "checkpoint":
        return lambda args, out: t.add("write_checkpoint.bytes", os.path.getsize(args[0]))
    if kind == "small_factor":

        def after(args, out):
            if out is not None and out != args[0]:
                t.add("small_factor.kills", 1)

        return after
    if kind == "classify":
        return lambda args, out: t.add(f"classify.{out.status}", 1)
    return None


def install(span_dir: str, run_id: str) -> Tracer:
    """Wrap every TARGETS function of the imported lambda_sieve package."""
    global _tracer
    import lambda_sieve

    mods = [importlib.import_module(f"lambda_sieve.{m}") for m in LAYERS]
    mods.append(lambda_sieve)
    by_name = {m.__name__.rsplit(".", 1)[-1]: m for m in mods}
    t = Tracer(span_dir, run_id)
    direct_max = by_name["_kernels"]._DIRECT_MAX
    swaps = {ProcessPoolExecutor: CountingPool}
    for module, attr, name, kind in TARGETS:
        fn = getattr(by_name[module], attr)
        if kind == "generator":
            swaps[fn] = t.wrap_generator(fn, name)
        else:
            swaps[fn] = t.wrap(fn, name, _bookkeeping(t, kind, direct_max))
    for m in mods:
        for key, value in list(vars(m).items()):
            try:
                new = swaps.get(value)
            except TypeError:  # unhashable module global
                continue
            if new is not None:
                setattr(m, key, new)
    _tracer = t
    return t
