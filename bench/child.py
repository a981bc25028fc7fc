"""Fresh-interpreter side of the benchmark; run.py starts it, never a user.

    child.py setup <workload>   print the seconds from interpreter start until
                                the library is ready for the first op, scaled
                                by a clock.TickSampler, then unscaled
    child.py certify <0|1>      run the verify CLI in-process after importing
                                it, optionally traced, and print a JSON record
    child.py cli ARGS...        run cubicmonodromy.cli as __main__ with ARGS,
                                as `python -m` does, under a clock.TickSampler
                                whose count and total go to stderr at exit

Expects PYTHONPATH to name the checkout's src directory.
"""

import time

START = time.perf_counter()

import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import sys  # noqa: E402

import clock  # noqa: E402


def setup(workload: str) -> tuple[float, float]:
    sampler = clock.TickSampler()
    sampler.start()
    try:
        if workload == "certify":
            import cubicmonodromy.cli  # noqa: F401
        else:
            import workloads
            if workload == "loops":
                workloads.Loops()
        seconds = time.perf_counter() - START
    finally:
        sampler.stop()
    return clock.scale_ticked(seconds, sampler.count, sampler.total_s), seconds


def certify(traced: bool) -> dict:
    import cubicmonodromy.cli
    import spans
    import workloads

    tracer = spans.Tracer()
    buf = io.StringIO()
    with contextlib.ExitStack() as stack:
        if traced:
            stack.enter_context(tracer.installed())
        stack.enter_context(contextlib.redirect_stdout(buf))
        start = time.perf_counter()
        code = cubicmonodromy.cli.main(list(workloads.CLI_ARGS))
        main_ms = (time.perf_counter() - start) * 1e3
    return {"exit": code, "ok": workloads.certify_ok(code, buf.getvalue()),
            "main_ms": main_ms,
            "trace": spans.summarize(tracer.spans, tracer.sizes)}


def cli(args: list[str]) -> None:
    import atexit
    import runpy

    sampler = clock.TickSampler()

    def report():
        sampler.stop()
        sys.stderr.write(f"#ticks {sampler.count} {sampler.total_s!r}\n")
    atexit.register(report)
    sys.argv = ["cubicmonodromy.cli", *args]
    sampler.start()
    runpy.run_module("cubicmonodromy.cli", run_name="__main__", alter_sys=True)


if __name__ == "__main__":
    mode = sys.argv[1]
    if mode == "setup":
        print(*map(repr, setup(sys.argv[2])))
    elif mode == "certify":
        print(json.dumps(certify(sys.argv[2] == "1")))
    elif mode == "cli":
        cli(sys.argv[2:])
    else:
        sys.exit(f"unknown mode {mode!r}")
