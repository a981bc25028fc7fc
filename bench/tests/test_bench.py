"""Tests of the benchmark itself: oracle, inputs, accounting, tracing.

Run from the repository root with `python -m pytest bench/tests -q`.
"""

import json
import math
import shutil
import subprocess
import sys

import numpy as np
import pytest

import clock
import inputs
import run
import spans
import workloads
from cubicmonodromy import (TrackingConfig, gamma_minus, gamma_plus,
                            lattice_inverse, monodromy_matrix)

I7 = np.eye(7, dtype=np.int64)


@pytest.fixture(scope="module")
def oracle():
    return inputs.LoopOracle()


def test_oracle_composition_and_inverse(oracle):
    gm, gp = oracle.base["gammaMinus"], oracle.base["gammaPlus"]
    assert not np.array_equal(gm, gp)
    # M(a b) = M(b) @ M(a): a is traversed first
    assert np.array_equal(oracle.word([("gammaMinus", 1), ("gammaPlus", 1)]), gp @ gm)
    assert np.array_equal(oracle.word([("gammaPlus", 1), ("gammaMinus", 1)]), gm @ gp)
    assert np.array_equal(oracle.letter("gammaPlus", -1), lattice_inverse(gp))
    assert np.array_equal(oracle.word([("gammaMinus", 1), ("gammaMinus", -1)]), I7)
    assert np.array_equal(oracle.word([]), I7)
    assert np.array_equal(gm @ gm @ gm, I7)


def test_oracle_circles(oracle):
    assert np.array_equal(oracle.circle(-1.0, 1), oracle.base["gammaMinus"])
    assert np.array_equal(oracle.circle(1.2 + 0.5j, 1), oracle.base["gammaPlus"])
    assert np.array_equal(oracle.circle(0.9, -1), lattice_inverse(oracle.base["gammaPlus"]))
    # centre with |Re c| < 1/2: the circle through 0 encloses neither node
    assert np.array_equal(oracle.circle(0.4 + 1.5j, 1), I7)
    assert np.array_equal(oracle.expected(("keyhole", 1.0, 0.03, -1)),
                          lattice_inverse(oracle.base["gammaPlus"]))


def test_oracle_equals_tracked_base_loops(oracle):
    assert np.array_equal(monodromy_matrix(gamma_minus()), oracle.base["gammaMinus"])
    assert np.array_equal(monodromy_matrix(gamma_plus()), oracle.base["gammaPlus"])


def test_loop_functions_are_closed_loops_at_zero():
    specs = (workloads.take(inputs.loop_stream(5), 10)
             + inputs.probe_specs("keyhole", 5, 2)
             + inputs.probe_specs("close_pass", 5, 2))
    for spec in specs:
        fn = inputs.loop_function(spec)
        assert abs(fn(0.0)) < 1e-12 and abs(fn(1.0)) < 1e-12
    near = [s for s in specs if s[0] == "near"]
    assert near and all(inputs.NEAR_MISS[0] - 1e-12 <= inputs.node_distance(s[1])
                        <= inputs.NEAR_MISS[1] + 1e-12 for s in near[:2])


def test_seeded_inputs_repeat():
    for make in (lambda s: workloads.take(inputs.loop_stream(s), 40),
                 lambda s: workloads.take(inputs.surface_stream(s), 40),
                 lambda s: inputs.probe_specs("close_pass", s, 10),
                 lambda s: inputs.probe_specs("generic", s, 10)):
        assert make(11) == make(11)
        assert make(11) != make(12)
    specs = workloads.take(inputs.loop_stream(3), 60)
    assert [s[0] for s in specs] == list(inputs.LOOP_MIX) * 6
    lengths = [len(s[1]) for s in specs if s[0] == "word"]
    assert lengths == list(inputs.WORD_LENGTHS) * 3


def test_failed_ops_sort_as_infinity():
    ok, raised, wrong = run.OK, run.RAISED, run.WRONG
    timeout_ms = run.OP_TIMEOUT_S * 1e3
    records = [(0.010, ok)] * 8 + [(0.015, raised), (0.005, wrong)]
    m = run.end_to_end(records, setup_s=0.3, rss_mb=40.0)
    assert m["op_p50_ms"] == pytest.approx(10.0)
    assert m["op_p90_ms"] == timeout_ms             # lands on a failure
    assert m["ops_per_s"] == pytest.approx(80.0)    # 8 ok in 0.1 s of ops
    assert m["ok_frac"] == pytest.approx(0.8)
    assert m["no_wrong_frac"] == pytest.approx(0.9)
    # fixing the two failures, even as slow successes, cannot raise a
    # percentile or lower a success share
    fixed = [(0.010, ok)] * 8 + [(30.0, ok), (30.0, ok)]
    f = run.end_to_end(fixed, setup_s=0.3, rss_mb=40.0)
    for name in ("op_p50_ms", "op_p90_ms"):
        assert f[name] <= m[name]
    assert f["ok_frac"] > m["ok_frac"] and f["no_wrong_frac"] > m["no_wrong_frac"]
    most_fail = [(0.001, raised)] * 6 + [(0.010, ok)] * 4
    assert run.end_to_end(most_fail, 0.3, 40.0)["op_p50_ms"] == timeout_ms


def test_percentile_is_nearest_rank():
    assert run.percentile([3.0, 1.0, 2.0], 0.5) == 2.0
    assert run.percentile(list(range(1, 101)), 0.9) == 90
    assert run.percentile([1.0, math.inf], 0.9) == run.OP_TIMEOUT_S


def test_speed_clock_scales_by_the_kernel_around_each_op():
    samples = iter([0.002, 0.003, 0.005])
    speed = clock.SpeedClock(sample=lambda: next(samples))
    speed.add(0.1, "a")                             # kernel 0.002 then 0.003
    speed.add(0.2, "b")                             # kernel 0.003 then 0.005
    nominal = clock.NOMINAL_S
    assert speed.scaled == [(pytest.approx(0.1 * nominal / 0.0025), "a"),
                            (pytest.approx(0.2 * nominal / 0.004), "b")]


def test_summarize_self_time_and_nesting():
    # a.f [0, 10] -> b.g [1, 4] -> b.g [2, 3];  a.f [20, 25]
    raw = [["a.f", 0.0, 0.010, -1], ["b.g", 0.001, 0.004, 0],
           ["b.g", 0.002, 0.003, 1], ["a.f", 0.020, 0.025, -1]]
    s = spans.summarize(raw, {})
    assert s["calls"] == {"a.f": 2, "b.g": 2}
    assert s["ms"]["b.g"] == pytest.approx(3.0)     # recursion counted once
    assert s["self_ms"]["a"] == pytest.approx(12.0)
    assert s["self_ms"]["b"] == pytest.approx(3.0)
    assert s["top_ms"] == pytest.approx(15.0)
    assert s["entries"] == {"a.f": 2, "b.g": 1}
    assert s["within"] == {"b.g<a": 2, "b.g<b": 1}


def test_tick_sampler_scales_by_the_mean_tick():
    assert clock.scale_ticked(2.0, 0, 0.0) == 2.0
    # 10 ticks of twice the nominal tick time: the machine ran at half speed
    total = 10 * 2 * clock.NOMINAL_TICK_S
    assert clock.scale_ticked(1.0 + total, 10, total) == pytest.approx(0.5)


def test_certify_op_is_a_checked_cli_run():
    wall_s, scaled_s, outcome, error, rss_mb = run.certify_op()
    assert (outcome, error) == (run.OK, "")
    assert 0 < scaled_s and scaled_s != wall_s
    assert rss_mb > 50


def test_tracer_wraps_and_restores():
    import cubicmonodromy.lines as lines
    import cubicmonodromy.tracking as tracking
    original = lines.perm_to_lattice_map
    tracer = spans.Tracer()
    with tracer.installed():
        assert tracking.perm_to_lattice_map is lines.perm_to_lattice_map
        assert lines.perm_to_lattice_map is not original
        tracking.monodromy_matrix(gamma_minus(), TrackingConfig())
    assert lines.perm_to_lattice_map is original
    assert tracking.perm_to_lattice_map is original
    names = {name for name, *_ in tracer.spans}
    assert {"tracking.monodromy_matrix", "tracking.track_flexes",
            "numeric.roots_of", "lines.perm_to_lattice_map",
            "lines.base_surface"} <= names


def test_parse_importtime():
    text = ("import time: self [us] | cumulative | imported package\n"
            "import time:      2316 |      99933 |       numpy\n"
            "import time:      1634 |     332130 |   cubicmonodromy\n")
    assert spans.parse_importtime(text) == {"numpy": 99.933,
                                            "cubicmonodromy": 332.13}


def _last_json(text: str) -> dict:
    return json.loads(text.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", ("surfaces", "loops", "certify"))
def test_traced_run_reports_every_layer_metric(workload, capsys):
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert run.main(["--workload", workload, "--seed", "3", "--seconds", "1",
                     "--trace", "1"]) == 0
    result = _last_json(capsys.readouterr().out)
    assert result["correct"] and result["failed"] == 0
    assert list(result["metrics"]) == [m["name"] for m in spec["per_layer"]]
    metrics = {name: m["value"] for name, m in result["metrics"].items()}
    assert all(math.isfinite(v) for v in metrics.values())
    assert metrics["import.total_ms"] > metrics["import.numpy_ms"] > 0
    if workload == "certify":
        assert metrics["trace.coverage"] >= 0.95
        assert metrics["weyl.close.calls"] == 27
        assert metrics["weyl.close.elements"] > 51840
    if workload == "loops":
        assert metrics["tracking.monodromy_matrix.calls"] == 1
        assert metrics["probe.keyhole.wrong_frac"] > 0
    if workload == "surfaces":
        assert metrics["lines.build_surface_data.calls"] == 1
        assert metrics["probe.hesse.fail_frac"] > 0


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(run.BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__", "tests"))
    proc = subprocess.run([sys.executable, "bench/run.py", "--workload", "loops",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
