"""One lambda-sieve CLI call in a fresh process, timed from the inside.

    python3 child.py setup            import lambda_sieve and build the parser
    python3 child.py run ARGV...      then run cli.main(ARGV)
    python3 child.py trace ARGV...    the same with spans recorded (tracer.py)
    python3 child.py probe P1 P2 ...  traced exceptional_fq(P, 3), one per P

Timings go to the JSON file named by PERFBENCH_REPORT; stdout is left
to the CLI so its bytes can be checked.  The clock starts before the
first import of lambda_sieve, so `setup_s` covers the package import
(numpy included) plus building the argument parser.
"""

import json
import os
import sys
import time


def main() -> int:
    t0 = time.perf_counter()
    import lambda_sieve
    from lambda_sieve import cli

    cli.build_parser()
    report = {"setup_s": time.perf_counter() - t0, "module": lambda_sieve.__file__}
    mode, argv = sys.argv[1], sys.argv[2:]
    rc = 0
    tracer = None
    if mode in ("trace", "probe"):
        import tracer as tracing

        tracer = tracing.install(os.environ["PERFBENCH_SPAN_DIR"], os.environ["PERFBENCH_RUN_ID"])
    if mode == "probe":
        from lambda_sieve import gaussfact

        for p in argv:
            span = tracer.begin(f"probe.{p}")
            gaussfact.exceptional_fq(int(p), 3)
            tracer.finish(span)
    elif mode in ("run", "trace"):
        t1 = time.perf_counter()
        rc = cli.main(argv)
        report["main_s"] = time.perf_counter() - t1
        sys.stdout.flush()
    if tracer is not None:
        tracer.dump()
    with open(os.environ["PERFBENCH_REPORT"], "w") as fh:
        json.dump(report, fh)
    return rc


if __name__ == "__main__":
    sys.exit(main())
