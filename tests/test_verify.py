"""Verification battery internals: transcriptions, transport, scopes."""

import numpy as np
import pytest

import cubicmonodromy.fixtures as fixtures_mod
import cubicmonodromy.verify as verify
from cubicmonodromy.errors import NotAMember
from cubicmonodromy.fixtures import load_fixtures
from cubicmonodromy.lines import base_surface, concurrent_triples, perm_compose
from cubicmonodromy.tracking import TrackingConfig
from cubicmonodromy.verify import (build_pipeline, conjugator_carrying_deck,
                                   fixture_group, fixture_source,
                                   model_image_of, pipeline_checks, run_checks,
                                   transcribed_flex_permutation,
                                   transcribed_root_permutation)
from cubicmonodromy.weyl import lattice_inverse

PAIRS = [("fx-deck-invariants", "pl-deck-matrix"),
         ("fx-torsion-group", "pl-torsion-matrices"),
         ("fx-loop-group", "pl-loop-group"),
         ("fx-set-equality", "pl-set-equality"),
         ("fx-isomorphism", "pl-isomorphism")]


@pytest.fixture(scope="module")
def full_report():
    return {c["id"]: c for c in run_checks("all").to_dict()["checks"]}


# The integer data of the surface at lambda = 0 and of the generators the
# pipeline computes from it; the fixture checksums and the transcribed
# permutations rest on these, so any geometry change must leave them as is.
BASE_SIXER = (0, 4, 7, 10, 16, 23)
BASE_CLASSES = [
    [0, 1, 0, 0, 0, 0, 0], [2, -1, -1, -1, -1, -1, 0], [1, -1, 0, 0, 0, 0, -1],
    [2, -1, -1, -1, 0, -1, -1], [0, 0, 1, 0, 0, 0, 0], [1, 0, -1, 0, -1, 0, 0],
    [1, -1, 0, -1, 0, 0, 0], [0, 0, 0, 1, 0, 0, 0], [2, 0, -1, -1, -1, -1, -1],
    [2, -1, -1, -1, -1, 0, -1], [0, 0, 0, 0, 1, 0, 0], [1, 0, 0, 0, -1, -1, 0],
    [1, -1, -1, 0, 0, 0, 0], [1, 0, 0, 0, 0, -1, -1], [1, 0, 0, -1, -1, 0, 0],
    [2, -1, 0, -1, -1, -1, -1], [0, 0, 0, 0, 0, 1, 0], [1, 0, -1, 0, 0, -1, 0],
    [1, -1, 0, 0, 0, -1, 0], [1, 0, 0, 0, -1, 0, -1], [1, 0, -1, -1, 0, 0, 0],
    [2, -1, -1, 0, -1, -1, -1], [1, 0, 0, -1, 0, 0, -1], [0, 0, 0, 0, 0, 0, 1],
    [1, -1, 0, 0, -1, 0, 0], [1, 0, -1, 0, 0, 0, -1], [1, 0, 0, -1, 0, -1, 0],
]
PIPELINE_MATRICES = {
    "deck": [[4, 2, 1, 2, 1, 1, 2], [-1, -1, 0, 0, 0, 0, -1],
             [-2, -1, -1, -1, 0, -1, -1], [-1, -1, 0, -1, 0, 0, 0],
             [-2, -1, -1, -1, -1, 0, -1], [-2, -1, 0, -1, -1, -1, -1],
             [-1, 0, 0, -1, 0, 0, -1]],
    "h1": [[3, 1, 2, 1, 0, 1, 1], [-2, -1, -1, -1, 0, -1, -1],
           [-1, 0, -1, 0, 0, 0, -1], [-1, 0, -1, 0, 0, -1, 0],
           [-1, -1, -1, 0, 0, 0, 0], [-1, 0, -1, -1, 0, 0, 0],
           [0, 0, 0, 0, 1, 0, 0]],
    "h2": [[3, 1, 0, 1, 1, 2, 1], [-2, -1, 0, -1, -1, -1, -1],
           [-1, -1, 0, 0, 0, -1, 0], [-1, 0, 0, 0, -1, -1, 0],
           [-1, 0, 0, -1, 0, -1, 0], [-1, 0, 0, 0, 0, -1, -1],
           [0, 0, 1, 0, 0, 0, 0]],
    "g1": [[2, 0, 0, 0, 1, 1, 1], [0, 1, 0, 0, 0, 0, 0], [0, 0, 1, 0, 0, 0, 0],
           [-1, 0, 0, 0, -1, 0, -1], [-1, 0, 0, 0, 0, -1, -1],
           [0, 0, 0, 1, 0, 0, 0], [-1, 0, 0, 0, -1, -1, 0]],
    "g2": [[2, 0, 1, 0, 1, 0, 1], [0, 1, 0, 0, 0, 0, 0],
           [-1, 0, 0, 0, -1, 0, -1], [-1, 0, -1, 0, 0, 0, -1],
           [0, 0, 0, 1, 0, 0, 0], [0, 0, 0, 0, 0, 1, 0],
           [-1, 0, -1, 0, -1, 0, 0]],
}


def test_base_surface_and_pipeline_integer_data_are_pinned():
    s = base_surface()
    assert s.sixer == BASE_SIXER
    assert s.classes.tolist() == BASE_CLASSES
    assert concurrent_triples(s.lines, s.adjacency) == [
        (3 * k, 3 * k + 1, 3 * k + 2) for k in range(9)]
    source = build_pipeline()
    for name, want in PIPELINE_MATRICES.items():
        assert getattr(source, name).tolist() == want, name


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
    for target in (base_surface().deck_matrix, fx.deck):
        w = conjugator_carrying_deck(target)
        assert np.array_equal(w @ fx.deck @ lattice_inverse(w), target)


def test_conjugator_rejects_nonconjugate():
    with pytest.raises(NotAMember):
        conjugator_carrying_deck(np.eye(7, dtype=np.int64))


def test_build_pipeline_bundle():
    bundle = build_pipeline(TrackingConfig(steps=50))
    assert len(bundle.group) == 648
    for g in (bundle.h1, bundle.h2, bundle.g1, bundle.g2):
        assert g.shape == (7, 7)
    assert np.array_equal(bundle.deck, base_surface().deck_matrix)
    assert set(bundle.traces) == {"gammaMinus", "gammaPlus"}


def test_fixture_source_reads_the_reference_matrices():
    fx, source = load_fixtures(), fixture_source()
    for name in ("deck", "h1", "h2", "g1", "g2"):
        assert getattr(source, name) is getattr(fx, name)
    assert source.group is fixture_group()
    assert source.traces == {}


@pytest.mark.parametrize("fx_id, pl_id", PAIRS)
def test_paired_checks_expect_the_same(full_report, fx_id, pl_id):
    fx, pl = full_report[fx_id], full_report[pl_id]
    assert fx["status"] == pl["status"] == "pass"
    assert fx["expected"] == pl["expected"]
    assert set(fx["observed"]) == set(pl["observed"])


def test_corrupt_fixtures_fail_checks_not_the_battery(monkeypatch):
    real = fixtures_mod._data_bytes

    def tampered(name):
        if name == "fixtures.json":
            return real("fixtures.json") + b" "
        return real(name)

    monkeypatch.setattr(fixtures_mod, "_data_bytes", tampered)
    load_fixtures.cache_clear()
    fixture_group.cache_clear()
    try:
        report = run_checks("fixtures")
    finally:
        load_fixtures.cache_clear()
        fixture_group.cache_clear()
    status = {c.check_id: c.status for c in report.checks}
    assert len(status) == 14
    assert report.overall == "fail"
    assert status["fx-load"] == "fail"
    assert status["fx-action-property"] == "pass"
    assert list(status.values()).count("fail") == 11


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

