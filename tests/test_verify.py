"""Verification battery internals: transcriptions, transport, scopes."""

import numpy as np
import pytest

import cubicmonodromy.verify as verify
from cubicmonodromy.errors import NotAMember
from cubicmonodromy.fixtures import load_fixtures
from cubicmonodromy.lines import base_surface, perm_compose
from cubicmonodromy.tracking import TrackingConfig
from cubicmonodromy.verify import (build_pipeline, conjugator_carrying_deck,
                                   fixture_group, model_image_of,
                                   pipeline_checks, run_checks,
                                   transcribed_flex_permutation,
                                   transcribed_root_permutation)
from cubicmonodromy.weyl import lattice_inverse


def test_transcribed_root_permutations():
    for kind in ("gammaMinus", "gammaPlus"):
        p = transcribed_root_permutation(kind)
        assert sorted(p.tolist()) == [0, 1, 2, 3]
        p3 = perm_compose(p, perm_compose(p, p))
        assert p3.tolist() == [0, 1, 2, 3]
        assert p.tolist() != [0, 1, 2, 3]


def test_transcribed_flex_permutations():
    for kind in ("gammaMinus", "gammaPlus"):
        p = transcribed_flex_permutation(kind)
        assert sorted(p.tolist()) == list(range(9))
        assert p[0] == 0
        p3 = perm_compose(p, perm_compose(p, p))
        assert p3.tolist() == list(range(9))


def test_transcriptions_reject_unknown_loop():
    with pytest.raises(ValueError):
        transcribed_root_permutation("gammaBoth")
    with pytest.raises(ValueError):
        transcribed_flex_permutation("constant")


def test_fixture_group_cached_and_sized():
    assert fixture_group() is fixture_group()
    assert len(fixture_group()) == 648


def test_model_image_of_deck_is_central():
    fx = load_fixtures()
    assert model_image_of(fx.deck) == ((0, 0, 1), (1, 0, 0, 1))


def test_conjugator_carries_deck():
    fx = load_fixtures()
    pipe_deck = base_surface().deck_matrix
    w = conjugator_carrying_deck(pipe_deck)
    assert np.array_equal(w @ fx.deck @ lattice_inverse(w), pipe_deck)


def test_conjugator_rejects_nonconjugate():
    with pytest.raises(NotAMember):
        conjugator_carrying_deck(np.eye(7, dtype=np.int64))


def test_build_pipeline_bundle():
    bundle = build_pipeline(TrackingConfig(steps=50))
    assert len(bundle.group) == 648
    for g in (bundle.h1, bundle.h2, bundle.g1, bundle.g2):
        assert g.shape == (7, 7)


def test_run_checks_scopes():
    fixtures = run_checks("fixtures")
    assert fixtures.overall == "pass"
    assert len(fixtures.checks) == 14
    pipeline = run_checks("pipeline")
    assert pipeline.overall == "pass"
    assert len(pipeline.checks) == 18
    both = run_checks("all")
    assert both.overall == "pass"
    assert len(both.checks) == 32
    assert len({c.check_id for c in both.checks}) == 32
    both.validated_dict()


def test_run_checks_rejects_unknown_scope():
    with pytest.raises(ValueError):
        run_checks("everything")


def test_pipeline_battery_matches_lines_once(monkeypatch):
    calls = []
    matcher = verify.heisenberg_matrices

    def counted(*args):
        calls.append(args)
        return matcher(*args)

    monkeypatch.setattr(verify, "heisenberg_matrices", counted)
    pipeline_checks()
    # the bundle's torsion matrices; pl-torsion-matrices reads the bundle
    assert len(calls) == 1

