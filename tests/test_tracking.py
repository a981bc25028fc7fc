"""Loop tracking: roots, inflections, lifted line permutations, matrices."""

import cmath
import itertools
import math
import re
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import cubicmonodromy.cli as cli
import cubicmonodromy.tracking as tracking
from cubicmonodromy.curves import flex_height_squared, flex_quartic
from cubicmonodromy.errors import (AmbiguousMatching, InconsistentProjection,
                                   NonConvergence, NoUniqueMatch,
                                   SingularParameter)
from cubicmonodromy.lines import base_surface, perm_compose, preserves_incidence
from cubicmonodromy.numeric import roots_of
from cubicmonodromy.tracking import (MAX_SAMPLES, TrackingConfig,
                                     constant_loop, custom_loop,
                                     flex_lattice_map, gamma_minus, gamma_plus,
                                     lift_to_lines, monodromy_matrix,
                                     trace_loop, track_flexes)
from cubicmonodromy.verify import (pipeline_checks,
                                   transcribed_flex_permutation,
                                   transcribed_root_permutation)
from cubicmonodromy.weyl import weyl_group


def test_loop_endpoints_close():
    for loop in (gamma_minus(), gamma_plus(), constant_loop()):
        assert abs(loop.at(0.0) - loop.at(1.0)) < 1e-12


def test_loop_kinds():
    assert gamma_minus().kind == "gammaMinus"
    assert gamma_plus().kind == "gammaPlus"
    assert constant_loop().kind == "constant"
    assert custom_loop(lambda t: 0.5j * t * (1 - t)).kind == "custom"


def test_loop_rejects_singular_samples():
    loop = custom_loop(lambda t: 1.0 if t == 0.5 else 0.0)
    with pytest.raises(SingularParameter, match="t=0.5"):
        trace_loop(loop, TrackingConfig(steps=8))


@pytest.mark.parametrize("value", [float("nan"), float("inf"),
                                   complex(0.0, -math.inf)])
def test_loop_rejects_non_finite_values(value):
    loop = custom_loop(lambda t: value if t == 0.25 else 0.0)
    with pytest.raises(ValueError, match="t=0.25 is not finite"):
        trace_loop(loop, TrackingConfig(steps=8))


def test_config_validates_steps():
    with pytest.raises(ValueError):
        TrackingConfig(steps=4)


def test_config_reads_steps_as_an_integer():
    cfg = TrackingConfig(steps=np.int64(50))
    assert cfg.steps == 50 and type(cfg.steps) is int
    with pytest.raises(TypeError):
        TrackingConfig(steps=100.0)


@pytest.mark.parametrize("loop", [
    custom_loop(lambda t: 0.5 * t),
    custom_loop(lambda t: 0.5 + 0.2 * cmath.exp(2j * cmath.pi * t))])
def test_loop_not_based_at_zero_is_refused_before_any_solve(monkeypatch, loop):
    # the end permutations are read against the base surface at 0
    calls = _count_traces(monkeypatch)
    with pytest.raises(ValueError, match="not based at 0"):
        trace_loop(loop)
    assert calls == []


def test_config_bounds_the_sample_count():
    assert TrackingConfig(steps=MAX_SAMPLES).steps == MAX_SAMPLES
    with pytest.raises(ValueError):
        TrackingConfig(steps=MAX_SAMPLES + 1)


def test_refinement_stops_at_max_samples(monkeypatch):
    tried = []

    def ambiguous(loop, steps, cfg):
        tried.append(steps)
        raise NoUniqueMatch("always")

    monkeypatch.setattr(tracking, "MAX_SAMPLES", 32)
    monkeypatch.setattr(tracking, "_trace_once", ambiguous)
    with pytest.raises(AmbiguousMatching, match="up to 32 steps"):
        trace_loop(gamma_minus(), TrackingConfig(steps=8))
    assert tried == [8, 16, 32]


def test_refinement_stops_after_max_refine_doublings(monkeypatch):
    tried = []

    def ambiguous(loop, steps, cfg):
        tried.append(steps)
        raise NoUniqueMatch("always")

    monkeypatch.setattr(tracking, "_trace_once", ambiguous)
    with pytest.raises(AmbiguousMatching, match="up to 6400 steps"):
        trace_loop(gamma_minus())
    assert tried == [100 * 2 ** k for k in range(tracking.MAX_REFINE + 1)]


def test_flex_permutation_must_project_onto_the_root_permutation(monkeypatch):
    # close passes raise this in practice; here a trace of gamma-minus is
    # handed back with its inflections relabelled
    trace = tracking._trace_once(gamma_minus(), 100, TrackingConfig())
    over = {}
    for flex, root in enumerate(trace.root_of_flex, start=1):
        over.setdefault(root, []).append(flex)
    # the two inflections over one root swapped: the projection still holds
    a, b = over[trace.root_of_flex[0]]
    swapped = trace.flex_perm.copy()
    swapped[[a, b]] = swapped[[b, a]]
    for flex_perm, fails in ((trace.flex_perm, False), (swapped, False),
                             (np.arange(9), True)):
        forged = replace(trace, flex_perm=flex_perm)
        monkeypatch.setattr(tracking, "_trace_once", lambda *args: forged)
        if fails:
            with pytest.raises(InconsistentProjection, match="does not project"):
                trace_loop(gamma_minus())
        else:
            assert trace_loop(gamma_minus()) is forged


# the end match always runs at TOL_MATCH: eps_match is not a field, so no
# tolerance can be passed that would disable it
@pytest.mark.parametrize("kwargs", [
    {"eps_match": float("nan")}, {"eps_match": float("inf")},
    {"eps_match": -1.0}, {"eps_match": 0.0}, {"precision": "quad"}])
def test_config_rejects_tolerances_that_disable_checks(kwargs):
    with pytest.raises(TypeError if "eps_match" in kwargs else ValueError):
        TrackingConfig(**kwargs)


def test_root_tracks_match_transcription():
    assert trace_loop(gamma_minus()).root_perm.tolist() == \
        transcribed_root_permutation("gammaMinus").tolist()
    assert trace_loop(gamma_plus()).root_perm.tolist() == \
        transcribed_root_permutation("gammaPlus").tolist()


def test_flex_tracks_match_transcription():
    assert track_flexes(gamma_minus()).tolist() == \
        transcribed_flex_permutation("gammaMinus").tolist()
    assert track_flexes(gamma_plus()).tolist() == \
        transcribed_flex_permutation("gammaPlus").tolist()


def test_loop_permutations_have_order_three():
    for loop in (gamma_minus(), gamma_plus()):
        p = track_flexes(loop)
        p3 = perm_compose(p, perm_compose(p, p))
        assert p3.tolist() == list(range(9))
        r = trace_loop(loop).root_perm
        r3 = perm_compose(r, perm_compose(r, r))
        assert r3.tolist() == list(range(4))


def test_constant_loop_is_identity():
    cfg = TrackingConfig(steps=16)
    assert trace_loop(constant_loop(), cfg).root_perm.tolist() == list(range(4))
    assert track_flexes(constant_loop(), cfg).tolist() == list(range(9))
    m = monodromy_matrix(constant_loop(), cfg)
    assert np.array_equal(m, np.eye(7, dtype=np.int64))


def test_step_invariance():
    for loop in (gamma_minus(), gamma_plus()):
        perms = set()
        for steps in (50, 100, 200):
            cfg = TrackingConfig(steps=steps)
            perms.add(tuple(track_flexes(loop, cfg).tolist()))
        assert len(perms) == 1


def test_track_shapes():
    trace = trace_loop(gamma_minus(), TrackingConfig(steps=32))
    assert len(trace.ts) == len(trace.roots) == len(trace.ys) == 33
    assert all(len(row) == 4 for row in trace.roots)
    assert all(len(row) == 8 for row in trace.ys)
    # two inflections ride on each branch root
    counts = {i: trace.root_of_flex.count(i) for i in set(trace.root_of_flex)}
    assert sorted(counts.values()) == [2, 2, 2, 2]


def _count_traces(monkeypatch) -> list:
    calls = []
    worker = tracking._trace_once

    def counted(*args):
        calls.append(args)
        return worker(*args)

    monkeypatch.setattr(tracking, "_trace_once", counted)
    return calls


def test_monodromy_matrix_tracks_once(monkeypatch):
    calls = _count_traces(monkeypatch)
    monodromy_matrix(gamma_minus())
    assert len(calls) == 1


@pytest.mark.parametrize("fmt", ["text", "json", "csv"])
def test_monodromy_command_tracks_once(monkeypatch, capsys, fmt):
    calls = _count_traces(monkeypatch)
    assert cli.main(["monodromy", "gamma-minus", "--format", fmt]) == 0
    assert len(calls) == 1


def test_pipeline_battery_tracks_seven_times(monkeypatch):
    calls = _count_traces(monkeypatch)
    pipeline_checks()
    # the two bundle loops, 2 loops x the two step-stability resolutions
    # other than the battery's own, constant
    assert len(calls) == 7


def test_close_pass_reads_both_permutations_at_one_resolution():
    # encloses only -1, counterclockwise from 0, passing close to a node;
    # an unrefined root track once disagreed with the refined flex track
    c = -0.509526931490024 + 0.30621316218212435j
    loop = custom_loop(lambda t: c * (1 - cmath.exp(2j * cmath.pi * t)))
    assert np.array_equal(monodromy_matrix(loop), monodromy_matrix(gamma_minus()))


def test_trace_rows_are_the_roots_of_each_sample():
    loop = gamma_minus()
    trace = trace_loop(loop, TrackingConfig(steps=50))
    for t, row in zip(trace.ts, trace.roots):
        fresh = roots_of(flex_quartic(loop.at(t)))
        dist = np.abs(np.subtract.outer(row, fresh))
        assert sorted(dist.argmin(axis=1)) == [0, 1, 2, 3]
        assert dist.min(axis=1).max() < 1e-10


def test_flex_heights_follow_the_nearest_branch():
    # the per-sample rule: the square root nearer the previous y
    loop = gamma_plus()
    trace = trace_loop(loop, TrackingConfig(steps=50))
    ys = base_surface().flexes[1:9, 1]
    for t, roots, got in zip(trace.ts[1:], trace.roots[1:], trace.ys[1:]):
        lam = loop.at(t)
        prev, ys = ys, []
        for r, y_prev in zip(trace.root_of_flex, prev):
            y = cmath.sqrt(flex_height_squared(lam, complex(roots[r])))
            ys.append(min((y, -y), key=lambda v: abs(v - y_prev)))
        assert np.abs(np.array(ys) - got).max() < 1e-12


def test_coincident_inflections_are_ambiguous():
    # eight inflections on one x with one small y: branch choice is clear
    x = -1e-14  # x^3 - x = 1e-14 at lambda 0, so y = 1e-7
    with pytest.raises(NoUniqueMatch, match="lost separation"):
        tracking._flex_heights(np.zeros(2, dtype=complex),
                               np.full((2, 8), x, dtype=complex), [1e-7] * 8)


@pytest.mark.parametrize("jump", [0.5, 0.3j])
def test_newton_predictor_carries_roots_across_a_jump(monkeypatch, jump):
    # unpolished, the nearest root at `jump` misses the factor-2 margin
    loop = custom_loop(lambda t: jump if 0.25 <= t < 0.75 else 0.0)
    monkeypatch.setattr(tracking, "MAX_REFINE", 0)
    trace = trace_loop(loop, TrackingConfig(steps=8))
    assert trace.root_perm.tolist() == [0, 1, 2, 3]


def _count_solves(monkeypatch) -> list:
    calls = []
    for name in ("roots_of", "roots_of_stack"):
        def counted(*args, _fn=getattr(tracking, name), _name=name, **kwargs):
            calls.append((_name, kwargs["precision"]))
            return _fn(*args, **kwargs)
        monkeypatch.setattr(tracking, name, counted)
    return calls


def test_one_base_solve_and_one_batch_per_resolution(monkeypatch):
    calls = _count_solves(monkeypatch)
    cfg = TrackingConfig(steps=50)
    double = trace_loop(gamma_minus(), cfg)
    assert calls == [("roots_of", "double"), ("roots_of_stack", "double")]
    extended = trace_loop(gamma_minus(), replace(cfg, precision="extended"))
    assert calls[2:] == [("roots_of", "extended"), ("roots_of_stack", "extended")]
    assert extended.root_perm.tolist() == double.root_perm.tolist()
    assert extended.flex_perm.tolist() == double.flex_perm.tolist()
    assert np.abs(extended.roots - double.roots).max() < 1e-12


def _quarters(first: complex, second: complex):
    """0 on the first and last quarter of the loop, `first` and `second` on
    the two in between."""
    return custom_loop(lambda t: first if 0.25 <= t < 0.5
                       else second if 0.5 <= t < 0.75 else 0.0)


def _fail_at_1000(monkeypatch):
    """Make the batch solver raise NonConvergence on the quartic at 1000."""
    solve = tracking.roots_of_stack

    def failing_at_1000(coeffs, *args, **kwargs):
        # column 1 of a flex quartic row is 12 lambda
        bad = np.flatnonzero(np.asarray(coeffs)[:, 1] == 12000.0)
        if bad.size:
            raise NonConvergence(f"roots of row {bad[0]} made to fail")
        return solve(coeffs, *args, **kwargs)

    monkeypatch.setattr(tracking, "roots_of_stack", failing_at_1000)


# 10 is a jump no match survives, 1 a node, 1000 a quartic the batch solver
# is made to fail on, NaN a value that is not finite.  Every loop value is
# checked before any quartic is solved, and every quartic before any match:
# the earliest failing value decides, then the solver, then the matching
@pytest.mark.parametrize("first, second, error", [
    (10.0, 1.0, SingularParameter), (1.0, 10.0, SingularParameter),
    (10.0, 1000.0, NonConvergence), (1000.0, 10.0, NonConvergence),
    (1000.0, 1.0, SingularParameter), (1.0, 1000.0, SingularParameter),
    (math.nan, 1.0, ValueError), (1.0, math.nan, SingularParameter)])
def test_earliest_failing_sample_decides(monkeypatch, first, second, error):
    _fail_at_1000(monkeypatch)
    # a failing loop value is named by its t, the first sample of its quarter
    failing = [t for t, value in ((0.25, first), (0.5, second))
               if value == 1.0 or math.isnan(value)]
    named = (re.escape(f"t={failing[0]}") + r"\b"
             if error in (ValueError, SingularParameter) else None)
    with pytest.raises(error, match=named):
        trace_loop(_quarters(first, second), TrackingConfig(steps=8))


def test_a_node_after_a_jump_is_refused_before_any_solve(monkeypatch):
    # the node at t = 0.5 stays a sample at every resolution, so no
    # refinement of the ambiguous jump at t = 0.25 could track the loop
    traces, solves = _count_traces(monkeypatch), _count_solves(monkeypatch)
    with pytest.raises(SingularParameter, match=r"t=0\.5\b"):
        trace_loop(_quarters(10.0, 1.0))
    assert len(traces) == 1
    assert solves == []


def test_a_solver_failure_after_an_ambiguous_step_is_not_refined(monkeypatch):
    # only an ambiguous match refines; the quartic at 1000 stays a sample at
    # every resolution
    traces = _count_traces(monkeypatch)
    _fail_at_1000(monkeypatch)
    with pytest.raises(NonConvergence, match="made to fail"):
        trace_loop(_quarters(10.0, 1000.0))
    assert len(traces) == 1


@pytest.mark.parametrize("value, error", [
    (1.0, SingularParameter), (-1.0, SingularParameter), (math.inf, ValueError)])
def test_a_failing_first_step_raises(value, error):
    # the sample right after the base one is checked like every other
    loop = custom_loop(lambda t: value if t == 0.125 else 0.0)
    with pytest.raises(error, match="t=0.125"):
        trace_loop(loop, TrackingConfig(steps=8))


def test_every_sample_is_read_before_any_is_checked():
    # the loop values of one resolution are checked as one array, so a value
    # that raises after a node raises its own error, not SingularParameter
    seen = []

    def at(t):
        seen.append(t)
        if 0.5 < t < 1.0:
            raise RuntimeError("no value here")
        return 1.0 if t == 0.25 else 0.0

    with pytest.raises(RuntimeError, match="no value here"):
        trace_loop(custom_loop(at), TrackingConfig(steps=8))
    # the two end checks, then samples 0..5 of the resolution
    assert seen == [0.0, 1.0] + [k / 8 for k in range(6)]


def _circle_matrix(c: complex, sign: int) -> np.ndarray:
    """Exact matrix of the circle c (1 - exp(sign 2 pi i t)), centre c and
    radius |c|: it encloses -1 when Re c < -1/2, +1 when Re c > 1/2."""
    if abs(c.real) <= 0.5:
        return np.eye(7, dtype=np.int64)
    kind = "gammaMinus" if c.real < 0 else "gammaPlus"
    m = flex_lattice_map(np.array(transcribed_flex_permutation(kind),
                                  dtype=np.int64))
    return m if sign > 0 else m @ m  # order 3: the inverse is the square


@settings(max_examples=30, deadline=None, derandomize=True, database=None)
@given(radius=st.floats(0.3, 1.6), angle=st.floats(-math.pi, math.pi),
       sign=st.sampled_from((1, -1)))
def test_circles_match_the_word_oracle(radius, angle, sign):
    c = cmath.rect(radius, angle)
    assume(min(abs(abs(node - c) - abs(c)) for node in (-1.0, 1.0)) >= 0.15)
    loop = custom_loop(lambda t: c * (1.0 - cmath.exp(sign * 2j * cmath.pi * t)))
    assert np.array_equal(monodromy_matrix(loop), _circle_matrix(c, sign))


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(st.integers(1, 4).flatmap(lambda m: st.tuples(st.just(m), st.lists(
    st.permutations(range(m)), max_size=130))))
@example((4, [list(p) for p in itertools.islice(
    itertools.cycle(itertools.permutations(range(4))), 100)]))
def test_doubling_scan_equals_sequential_composition(m_steps):
    # step counts 0..130: powers of two, their neighbours and the default 100
    m, steps = m_steps
    paths = [list(range(m))]
    for step in steps:
        paths.append([step[i] for i in paths[-1]])
    got = tracking._compose_paths(np.array(steps, dtype=np.intp).reshape(-1, m))
    assert got.tolist() == paths


def test_lift_to_lines_blocks():
    flex_images = np.array(
        transcribed_flex_permutation("gammaMinus"), dtype=np.int64)
    p = lift_to_lines(flex_images)
    for flex in range(9):
        for n in range(3):
            assert p[3 * flex + n] == 3 * flex_images[flex] + n


def test_lifted_permutation_preserves_incidence():
    s = base_surface()
    for loop in (gamma_minus(), gamma_plus()):
        p = lift_to_lines(track_flexes(loop))
        assert preserves_incidence(p, s.adjacency)


def test_monodromy_matrices_land_in_group():
    s = base_surface()
    deck = s.deck_matrix
    for loop in (gamma_minus(), gamma_plus()):
        m = monodromy_matrix(loop)
        assert m in weyl_group()
        assert weyl_group().element_order(m) == 3
        assert np.array_equal(m @ deck, deck @ m)


def test_extended_precision_tracking_agrees():
    cfg = TrackingConfig(steps=50, precision="extended")
    assert trace_loop(gamma_minus(), cfg).root_perm.tolist() == \
        transcribed_root_permutation("gammaMinus").tolist()


def test_pathological_loop_raises():
    # a loop stepping onto the discriminant point +1 cannot be tracked; its
    # sample there is refused before any solve
    loop = custom_loop(lambda t: 1.0 - 1e-9 if t == 0.5 else 0.0)
    with pytest.raises(SingularParameter, match=r"t=0\.5\b"):
        trace_loop(loop, TrackingConfig(steps=8))


def test_ambiguity_exhaustion_raises(monkeypatch):
    # an endpoint-match tolerance no float can satisfy exhausts refinement
    monkeypatch.setattr(tracking, "TOL_MATCH", 1e-300)
    monkeypatch.setattr(tracking, "MAX_REFINE", 0)
    with pytest.raises(AmbiguousMatching):
        track_flexes(gamma_minus(), TrackingConfig(steps=8))
