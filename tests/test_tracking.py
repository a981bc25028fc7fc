"""Loop tracking: roots, inflections, lifted line permutations, matrices."""

import cmath

import numpy as np
import pytest

import cubicmonodromy.cli as cli
import cubicmonodromy.tracking as tracking
from cubicmonodromy.errors import AmbiguousMatching, SingularParameter
from cubicmonodromy.lines import base_surface, perm_compose, preserves_incidence
from cubicmonodromy.tracking import (TrackingConfig, constant_loop,
                                     custom_loop, gamma_minus, gamma_plus,
                                     lift_to_lines, monodromy_matrix,
                                     trace_loop, track_flexes, track_roots)
from cubicmonodromy.verify import (pipeline_checks,
                                   transcribed_flex_permutation,
                                   transcribed_root_permutation)
from cubicmonodromy.weyl import weyl_group


def test_loop_endpoints_close():
    for loop in (gamma_minus(), gamma_plus(), constant_loop(0.0)):
        assert abs(loop.sample(0.0) - loop.sample(1.0)) < 1e-12


def test_loop_kinds():
    assert gamma_minus().kind == "gammaMinus"
    assert gamma_plus().kind == "gammaPlus"
    assert constant_loop(0.0).kind == "constant"
    assert custom_loop(lambda t: 0.5j * t * (1 - t)).kind == "custom"


def test_loop_rejects_singular_samples():
    loop = custom_loop(lambda t: 1.0 if t == 0.5 else 0.0)
    with pytest.raises(SingularParameter):
        loop.sample(0.5)


def test_config_validates_steps():
    with pytest.raises(ValueError):
        TrackingConfig(steps=4)


@pytest.mark.parametrize("kwargs", [
    {"eps_match": float("nan")}, {"eps_match": float("inf")},
    {"eps_match": -1.0}, {"eps_match": 0.0}, {"precision": "quad"}])
def test_config_rejects_tolerances_that_disable_checks(kwargs):
    with pytest.raises(ValueError):
        TrackingConfig(**kwargs)


def test_root_tracks_match_transcription():
    assert track_roots(gamma_minus()).tolist() == \
        transcribed_root_permutation("gammaMinus").tolist()
    assert track_roots(gamma_plus()).tolist() == \
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
        r = track_roots(loop)
        r3 = perm_compose(r, perm_compose(r, r))
        assert r3.tolist() == list(range(4))


def test_constant_loop_is_identity():
    cfg = TrackingConfig(steps=16)
    assert track_roots(constant_loop(0.0), cfg).tolist() == list(range(4))
    assert track_flexes(constant_loop(0.0), cfg).tolist() == list(range(9))
    m = monodromy_matrix(constant_loop(0.0), cfg)
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


def test_pipeline_battery_tracks_nine_times(monkeypatch):
    calls = _count_traces(monkeypatch)
    pipeline_checks()
    # the two bundle loops, 2 loops x 3 step-stability resolutions, constant
    assert len(calls) == 9


def test_close_pass_reads_both_permutations_at_one_resolution():
    # encloses only -1, counterclockwise from 0, passing close to a node;
    # an unrefined root track once disagreed with the refined flex track
    c = -0.509526931490024 + 0.30621316218212435j
    loop = custom_loop(lambda t: c * (1 - cmath.exp(2j * cmath.pi * t)))
    assert np.array_equal(monodromy_matrix(loop), monodromy_matrix(gamma_minus()))


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
    assert track_roots(gamma_minus(), cfg).tolist() == \
        transcribed_root_permutation("gammaMinus").tolist()


def test_pathological_loop_raises():
    # a loop stepping onto the discriminant point +1 cannot be tracked; it
    # must fail loudly rather than return a permutation
    loop = custom_loop(lambda t: 1.0 - 1e-9 if t == 0.5 else 0.0)
    cfg = TrackingConfig(steps=8, max_refine=0)
    with pytest.raises((AmbiguousMatching, SingularParameter)):
        track_roots(loop, cfg)


def test_ambiguity_exhaustion_raises():
    # an endpoint-match tolerance no float can satisfy exhausts refinement
    cfg = TrackingConfig(steps=8, eps_match=1e-300, max_refine=0)
    with pytest.raises(AmbiguousMatching):
        track_flexes(gamma_minus(), cfg)
