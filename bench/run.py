"""Benchmark of the cubicmonodromy certification chain.

    python3 bench/run.py --workload {certify,loops,surfaces} --seed N \
        --seconds S --trace {0,1}

The package is imported from the checkout's src directory.  The last line of
standard output is one JSON object:
{"correct": ..., "attempted": ..., "failed": ..., "metrics": {name: {value, unit}}}.
With --trace 0 the metrics are the end-to-end ones of BENCHMARK.json, timed
without tracing for S seconds; with --trace 1 they are its per-layer ones,
from a fixed traced batch.  The lines before it record the environment, the
op outcomes and the raw (unscaled) timings.

Workloads (the load is one closed-loop client; see BENCHMARK.json for why):
  certify   one cold CLI run `verify --scope all --format json` per op, in a
            child interpreter that runs cubicmonodromy.cli as __main__ the
            way `python -m` does (child.py cli), one child at a time
  loops     in-process monodromy_matrix on seeded loops based at 0,
            checked against the exact word oracle in inputs.py
  surfaces  in-process build_surface_data plus the deck matrix on seeded
            pencil and Hesse members

Op times are wall times scaled to a nominal machine speed (clock.py): loops
and surfaces ops by a kernel timed after each op, certify ops by a kernel
timed every 20 ms inside the CLI process, setup_s the same way inside the
set-up child.  The traced per-layer times are plain wall times.

An op that raises, exits non-zero or returns a wrong answer is failed.  It
misses every latency limit: it sorts as +infinity in the percentiles, and a
percentile that lands on a failed op reports OP_TIMEOUT_S, the time after which
an op is abandoned.  It adds nothing to ops_per_s but its time stays in the
denominator.  `correct` is false when any output, timed or not, was wrong
without an error being raised.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import re
import resource
import select
import statistics
import subprocess
import sys
import tempfile
import time
from collections import Counter
from pathlib import Path

import clock

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"

SETUP_REPEATS = 9
OP_TIMEOUT_S = 90.0
TRACE_OPS = {"loops": 20, "surfaces": 30}
# tracking entry points that track a loop; a call of one of these from
# outside the tracking module is one loop asked for
TRACKERS = ("monodromy_matrix", "track_flexes", "track_roots", "flex_track",
            "root_track")

OK, RAISED, WRONG = "ok", "raised", "wrong"

# defect probes of the traced run: metric -> (inputs.probe_specs kind, inputs,
# outcomes counted).  Close passes fail on a few percent, so they need the most.
PROBES = {
    "probe.keyhole.wrong_frac": ("keyhole", 10, (WRONG,)),
    "probe.close_pass.fail_frac": ("close_pass", 40, (RAISED, WRONG)),
    "probe.hesse.fail_frac": ("hesse", 10, (RAISED, WRONG)),
    "probe.generic.fail_frac": ("generic", 10, (RAISED, WRONG)),
}


# ---------------------------------------------------------------------------
# child interpreters

def spawn(args: list[str], timeout: float = OP_TIMEOUT_S):
    """Run one child to completion: (exit code, stdout, stderr, seconds, maxrss kB).

    The child is reaped with wait4 so its own peak RSS is read, not the
    high-water mark of every child so far.
    """
    env = dict(os.environ, PYTHONPATH=str(SRC))
    with tempfile.TemporaryFile(dir=BENCH) as out, \
            tempfile.TemporaryFile(dir=BENCH) as err:
        start = time.perf_counter()
        proc = subprocess.Popen(args, stdout=out, stderr=err, cwd=ROOT, env=env)
        pidfd = os.pidfd_open(proc.pid)
        try:
            ready, _, _ = select.select([pidfd], [], [], timeout)
        except BaseException:  # interrupted: leave no child behind
            proc.kill()
            proc.wait()
            raise
        finally:
            os.close(pidfd)
        if not ready:
            proc.kill()
            proc.wait()
            return None, "", "timeout", time.perf_counter() - start, 0
        _, status, usage = os.wait4(proc.pid, 0)
        seconds = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        out.seek(0)
        err.seek(0)
        return (proc.returncode, out.read().decode(), err.read().decode(),
                seconds, usage.ru_maxrss)


def checked(result, what: str):
    code, out, err, _, _ = result
    if code != 0:
        raise RuntimeError(f"{what} failed: {err.strip()[-800:]}")
    return out, err


def measure_setup(workload: str) -> tuple[float, float]:
    """Median (scaled, wall) seconds from a fresh interpreter to ready.

    One extra untimed start first writes the bytecode caches, which a user
    pays once per install, not per run.
    """
    args = [sys.executable, str(BENCH / "child.py"), "setup", workload]
    checked(spawn(args), "setup child")
    runs = [tuple(map(float, checked(spawn(args), "setup child")[0].split()))
            for _ in range(SETUP_REPEATS)]
    return tuple(statistics.median(column) for column in zip(*runs))


# ---------------------------------------------------------------------------
# accounting

def percentile(seconds: list[float], q: float) -> float:
    """Nearest-rank percentile; failed ops are math.inf and read as a timeout."""
    ranked = sorted(seconds)
    value = ranked[max(0, math.ceil(q * len(ranked)) - 1)]
    return OP_TIMEOUT_S if math.isinf(value) else value


def end_to_end(records: list[tuple[float, str]], setup_s: float,
               rss_mb: float) -> dict:
    """records: (op seconds, outcome) for every op of the timed phase."""
    n = len(records)
    counts = Counter(outcome for _, outcome in records)
    latency = [s if outcome == OK else math.inf for s, outcome in records]
    return {
        "setup_s": setup_s,
        "op_p50_ms": percentile(latency, 0.5) * 1e3,
        "op_p90_ms": percentile(latency, 0.9) * 1e3,
        "ops_per_s": counts[OK] / sum(s for s, _ in records),
        "ok_frac": counts[OK] / n,
        "no_wrong_frac": 1.0 - counts[WRONG] / n,
        "peak_rss_mb": rss_mb,
    }


def note(notes: Counter, key: str, error: str) -> None:
    notes[f"{key}:{error}" if error else key] += 1


def run_op(workload, spec) -> tuple[float, str, str]:
    """(wall seconds, outcome, error type) of one in-process op."""
    start = time.perf_counter()
    try:
        out = workload.run(spec)
    except Exception as exc:  # a failed op is counted, never fatal
        return time.perf_counter() - start, RAISED, type(exc).__name__
    seconds = time.perf_counter() - start
    return (seconds, OK, "") if workload.check(spec, out) else (seconds, WRONG, "")


def certify_outcome(code: int | None, ok: bool) -> tuple[str, str]:
    """(outcome, error) of a CLI run: a bad report under exit 0 is wrong."""
    if ok:
        return OK, ""
    return (WRONG, "") if code == 0 else (RAISED, f"exit {code}")


def certify_op() -> tuple[float, float, str, str, float]:
    """(wall s, scaled s, outcome, error, child maxrss MB) of one cold CLI run."""
    import workloads
    code, out, err, seconds, rss_kb = spawn(
        [sys.executable, str(BENCH / "child.py"), "cli", *workloads.CLI_ARGS])
    ticks = re.search(r"^#ticks (\d+) (\S+)$", err, re.MULTILINE)
    scaled = clock.scale_ticked(seconds, int(ticks[1]), float(ticks[2])) \
        if ticks else seconds
    outcome, error = certify_outcome(code, workloads.certify_ok(code, out))
    return seconds, scaled, outcome, error, rss_kb / 1024


def ext_loop_ms(notes: Counter) -> float:
    """Median wall time of extended-precision tracking over EXT_LOOPS."""
    import workloads
    loops = workloads.Loops(precision="extended")
    times = []
    for spec in workloads.EXT_LOOPS:
        seconds, outcome, error = run_op(loops, spec)
        note(notes, "ext:" + outcome, error)
        times.append(seconds if outcome == OK else OP_TIMEOUT_S)
    return statistics.median(times) * 1e3


# ---------------------------------------------------------------------------
# untraced run

def timed_run(name: str, seed: int, seconds: float, notes: Counter) -> dict:
    setup_s, setup_wall_s = measure_setup(name)
    import workloads
    wall = []
    start = time.perf_counter()
    if name == "certify":
        records, rss = [], []
        while not wall or time.perf_counter() - start < seconds:
            op_s, scaled_s, outcome, error, rss_mb = certify_op()
            wall.append((op_s, outcome))
            records.append((scaled_s, outcome))
            rss.append(rss_mb)
            note(notes, outcome, error)
        peak_rss = statistics.median(rss)
    else:
        workload = workloads.Loops() if name == "loops" else workloads.Surfaces()
        stream = workload.stream(seed)
        speed = clock.SpeedClock()
        while not wall or time.perf_counter() - start < seconds:
            op_s, outcome, error = run_op(workload, next(stream))
            wall.append((op_s, outcome))
            speed.add(op_s, outcome)
            note(notes, outcome, error)
        records = speed.scaled
        peak_rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    raw = {"op_p50_ms": statistics.median(s for s, _ in wall) * 1e3,
           "setup_s": setup_wall_s, "ops": len(wall)}
    return {"records": records, "raw": raw,
            "metrics": end_to_end(records, setup_s, peak_rss)}


# ---------------------------------------------------------------------------
# traced run

def import_ms(stderr: str) -> dict:
    import spans
    cumulative = spans.parse_importtime(stderr)
    total = max(v for k, v in cumulative.items() if k.startswith("cubicmonodromy"))
    return {"import.total_ms": total,
            **{f"import.{m}_ms": cumulative.get(m, 0.0)
               for m in ("numpy", "mpmath", "jsonschema")}}


def probe_metrics(seed: int, notes: Counter) -> dict:
    """Share of failures on the inputs with known defects (untimed, untraced)."""
    import inputs
    import workloads
    loops, surfaces = workloads.Loops(), workloads.Surfaces()
    out = {}
    for name, (kind, count, bad) in PROBES.items():
        workload = surfaces if kind in ("hesse", "generic") else loops
        outcomes = [run_op(workload, spec)[1]
                    for spec in inputs.probe_specs(kind, seed, count)]
        notes.update(f"probe:{kind}:{outcome}" for outcome in outcomes)
        out[name] = sum(o in bad for o in outcomes) / count
    return out


def layer_metrics(names: list[str], summary: dict, n_ops: int,
                  fixed: dict) -> dict:
    """Per-op values of the `<module>.<function>.{calls,ms,elements}` and
    `<module>.self_ms` names; other names come from `fixed`."""
    tables = {"calls": summary["calls"], "ms": summary["ms"],
              "self_ms": summary["self_ms"], "elements": summary["sizes"]}
    out = {}
    for name in names:
        if name in fixed:
            out[name] = fixed[name]
            continue
        head, _, tail = name.rpartition(".")
        out[name] = tables[tail].get(head, 0) / n_ops
    return out


def traced_run(name: str, seed: int, notes: Counter, names: list[str]) -> dict:
    import spans
    import workloads
    if name == "certify":
        # one untraced and one traced CLI run, each in a child that imports
        # the CLI first and times only cli.main; the traced one also reports
        # its import times
        child = [str(BENCH / "child.py"), "certify"]
        untraced = json.loads(checked(spawn([sys.executable, *child, "0"]),
                                      "certify child")[0])
        out, importtime = checked(spawn([sys.executable, "-X", "importtime",
                                         *child, "1"]), "certify child")
        traced = json.loads(out)
        records = [(r["main_ms"] / 1e3, certify_outcome(r["exit"], r["ok"])[0])
                   for r in (untraced, traced)]
        summary = traced["trace"]
        op_ms = traced["main_ms"]
        overhead = op_ms / untraced["main_ms"] - 1.0
        n_ops = 1
    else:
        workload = workloads.Loops() if name == "loops" else workloads.Surfaces()
        batch = workloads.take(workload.stream(seed), TRACE_OPS[name])
        op_ms = 0.0
        tracer = spans.Tracer()
        plain, traced = clock.SpeedClock(), clock.SpeedClock()
        for spec in batch:
            plain.add(*run_op(workload, spec)[:2])
        with tracer.installed():
            for spec in batch:
                op_s, outcome, _ = run_op(workload, spec)
                traced.add(op_s, outcome)
                op_ms += op_s * 1e3
        records = plain.scaled + traced.scaled
        summary = spans.summarize(tracer.spans, tracer.sizes)
        # the overhead compares scaled times: the two batches may run at
        # different machine speeds
        overhead = (sum(s for s, _ in traced.scaled)
                    / sum(s for s, _ in plain.scaled) - 1.0)
        _, importtime = checked(spawn([sys.executable, "-X", "importtime", "-c",
                                       "import cubicmonodromy"]), "import child")
        n_ops = len(batch)
    for _, outcome in records:
        notes[outcome] += 1
    loops_asked = sum(summary["entries"].get(f"tracking.{fn}", 0) for fn in TRACKERS)
    fixed = {**import_ms(importtime),
             **probe_metrics(seed, notes),
             "tracking.ext_loop_ms": ext_loop_ms(notes),
             "tracking.solves_per_loop":
                 summary["within"].get("numeric.roots_of<tracking", 0) / loops_asked
                 if loops_asked else 0.0,
             "trace.coverage": summary["top_ms"] / op_ms,
             "trace.overhead_frac": overhead}
    return {"records": records, "raw": {"ops": len(records)},
            "metrics": layer_metrics(names, summary, n_ops, fixed)}


# ---------------------------------------------------------------------------

def environment(args) -> dict:
    import mpmath
    import numpy
    head = ROOT / ".git" / "HEAD"
    revision = "unknown (not a git checkout)"
    if head.is_file():
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            target = ROOT / ".git" / ref[5:]
            revision = target.read_text().strip() if target.is_file() else ref
        else:
            revision = ref
    return {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
            "trace": args.trace, "python": platform.python_version(),
            "numpy": numpy.__version__, "mpmath": mpmath.__version__,
            "nproc": len(os.sched_getaffinity(0)), "revision": revision,
            "platform": platform.platform()}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("certify", "loops", "surfaces"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    spec_file = ROOT / "BENCHMARK.json"
    if not (SRC / "cubicmonodromy" / "__init__.py").is_file() or not spec_file.is_file():
        print(f"error: {ROOT} holds no src/cubicmonodromy or no BENCHMARK.json",
              file=sys.stderr)
        return 2
    sys.path[:0] = [str(SRC), str(BENCH)]
    spec = json.loads(spec_file.read_text())
    units = {m["name"]: m["unit"]
             for m in spec["per_layer" if args.trace else "end_to_end"]}

    notes: Counter = Counter()
    if args.trace:
        result = traced_run(args.workload, args.seed, notes, list(units))
    else:
        result = timed_run(args.workload, args.seed, args.seconds, notes)
    metrics = result["metrics"]
    if set(metrics) != set(units):
        raise RuntimeError(f"metric names drifted from BENCHMARK.json: "
                           f"{sorted(set(metrics) ^ set(units))}")
    records = result["records"]
    print("# env " + json.dumps(environment(args)))
    print("# outcomes " + json.dumps(dict(sorted(notes.items()))))
    print("# raw " + json.dumps(result["raw"]))
    print(json.dumps({
        "correct": notes[WRONG] == 0 and notes["ext:" + WRONG] == 0,
        "attempted": len(records),
        "failed": sum(outcome != OK for _, outcome in records),
        "metrics": {name: {"value": metrics[name], "unit": units[name]}
                    for name in units},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
