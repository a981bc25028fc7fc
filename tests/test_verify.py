"""Verification battery internals: transcriptions, transport, scopes."""

import dataclasses
import json
import math
from pathlib import Path

import numpy as np
import pytest

import cubicmonodromy.cli as cli
import cubicmonodromy.fixtures as fixtures_mod
import cubicmonodromy.groups as groups
import cubicmonodromy.lines as lines_module
import cubicmonodromy.verify as verify
import cubicmonodromy.weyl as weyl
from cubicmonodromy.curves import flex_quartic
from cubicmonodromy.errors import AmbiguousMatching, GroupError, NotAMember
from cubicmonodromy.fixtures import load_fixtures
from cubicmonodromy.groups import (MODEL_IDENTITY, SemidirectGroup,
                                   semidirect_model)
from cubicmonodromy.lines import (J_FORM, base_surface, concurrent_triples,
                                  perm_compose)
from cubicmonodromy.numeric import nearest_match, roots_of
from cubicmonodromy.report import render_json
from cubicmonodromy.tracking import gamma_minus
from cubicmonodromy.verify import (build_pipeline, conjugator_carrying_deck,
                                   fixture_checks, fixture_group,
                                   fixture_source, model_images_of,
                                   pipeline_checks, run_checks,
                                   transcribed_flex_permutation,
                                   transcribed_root_permutation)
from cubicmonodromy.weyl import (FiniteMatrixGroup, conjugacy_class_size,
                                 lattice_inverse, weyl_group)

GOLDEN = Path(__file__).parent / "data" / "report_all.json"

PAIRS = [("fx-deck-invariants", "pl-deck-matrix"),
         ("fx-torsion-group", "pl-torsion-matrices"),
         ("fx-loop-group", "pl-loop-group"),
         ("fx-set-equality", "pl-set-equality"),
         ("fx-isomorphism", "pl-isomorphism")]


@pytest.fixture(scope="module")
def report_all():
    """The full battery run in this process, as the CLI prints it."""
    return json.loads(render_json(run_checks("all")))


@pytest.fixture(scope="module")
def full_report(report_all):
    return {c["id"]: c for c in report_all["checks"]}


def test_in_process_battery_equals_the_golden_report(report_all):
    golden = json.loads(GOLDEN.read_text())
    assert {**report_all, "checks": [
        {k: v for k, v in c.items() if k != "runtimeMs"}
        for c in report_all["checks"]]} == golden


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
    # the lift's own line permutation, not its complex conjugate's
    "h2": [[3, 2, 1, 1, 1, 1, 0], [-1, -1, -1, 0, 0, 0, 0],
           [0, 0, 0, 0, 0, 0, 1], [-1, -1, 0, 0, -1, 0, 0],
           [-1, -1, 0, -1, 0, 0, 0], [-2, -1, -1, -1, -1, -1, 0],
           [-1, -1, 0, 0, 0, -1, 0]],
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
    got = dict(zip(("h1", "h2", "g1", "g2"), source.group.gens),
               deck=source.deck)
    for name, want in PIPELINE_MATRICES.items():
        assert got[name].tolist() == want, name


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


def test_transcription_closed_forms():
    s3 = math.sqrt(3.0)
    assert verify._A > 0 and verify._B > 0
    assert abs(verify._A ** 2 - (3.0 + 2.0 * s3) / 3.0) < 1e-14
    assert abs(verify._B ** 2 - verify._A * 2.0 * s3 / 3.0) < 1e-14


@pytest.mark.parametrize("table, base", [
    (verify._ROOT_CYCLES, lambda: roots_of(flex_quartic(0.0))),
    (verify._FLEX_CYCLES, lambda: base_surface().flexes[1:, 1])],
    ids=["roots", "flexes"])
def test_each_loop_cycles_every_base_value_once(table, base):
    for cycles in table.values():
        values = np.array([z for cycle in cycles for z in cycle])
        # one to one: raises unless each base value is matched exactly once
        nearest_match(np.abs(values[:, None] - base()), 1e-12)


def _reversed(cycles):
    return (cycles[0][::-1], *cycles[1:])


def _swapped(cycles):
    (x, *xs), (y, *ys) = cycles[:2]
    return ((y, *xs), (x, *ys), *cycles[2:])


def _dropped(cycles):
    return (cycles[0][:-1], *cycles[1:])


def _moved(cycles):
    return ((cycles[0][0] + 1e-3, *cycles[0][1:]), *cycles[1:])


LOOP_KINDS = ["gammaMinus", "gammaPlus"]
# each transcribed table and the check id that reads it, per loop kind
TRANSCRIBED = [("_ROOT_CYCLES", "pl-root-cycle"), ("_FLEX_CYCLES", "pl-flex-perm")]


@pytest.mark.parametrize("slip", [_reversed, _swapped, _dropped, _moved],
                         ids=["reversed", "swapped", "dropped", "moved"])
@pytest.mark.parametrize("kind", LOOP_KINDS)
@pytest.mark.parametrize("table, check", TRANSCRIBED)
def test_a_planted_transcription_slip_fails_exactly_its_check(
        monkeypatch, table, check, kind, slip):
    cycles = getattr(verify, table)
    monkeypatch.setitem(cycles, kind, slip(cycles[kind]))
    assert {c.check_id for c in run_checks("pipeline").checks
            if c.status == "fail"} == {f"{check}-{kind}"}


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
    assert model_images_of(fx.deck[None]) == [((0, 0, 1), (1, 0, 0, 1))]
    with pytest.raises(NotAMember):
        model_images_of(np.stack([fx.deck, -np.eye(7, dtype=np.int64)]))


def test_model_images_are_the_products_along_each_word():
    # the reference rule: multiply the printed images along word(i)
    group, model = fixture_group(), semidirect_model()
    images = [model.index_of(p) for p in SemidirectGroup.generator_images()]
    want = []
    for i in range(len(group)):
        out = model.index_of(MODEL_IDENTITY)
        for g_idx in group.word(i):
            out = model.table[out, images[g_idx]]
        want.append(model.elements[out])
    assert model_images_of(group.elements) == want


def test_conjugator_carries_deck():
    fx = load_fixtures()
    for target in (base_surface().deck_matrix, fx.deck):
        w = conjugator_carrying_deck(target)
        assert np.array_equal(w @ fx.deck @ lattice_inverse(w), target)


def test_conjugator_rejects_nonconjugate():
    with pytest.raises(NotAMember):
        conjugator_carrying_deck(np.eye(7, dtype=np.int64))


def test_conjugator_covers_the_whole_deck_class():
    deck, group = load_fixtures().deck, weyl_group()
    # w deck w^-1 over all 51840 elements, with w^-1 = J w^T J
    w = group.elements
    members = np.unique(w @ deck @ (J_FORM @ w.transpose(0, 2, 1) @ J_FORM), axis=0)
    assert len(members) == 80
    for c in members:
        w = conjugator_carrying_deck(c)
        assert w in group
        assert np.array_equal(w @ deck @ lattice_inverse(w), c)


def test_conjugator_rejects_other_order_three_classes():
    w = weyl_group().elements
    eye = np.eye(7, dtype=np.int64)
    cubes_to_one = np.all(w @ w @ w == eye, axis=(1, 2))
    traces = np.trace(w, axis1=1, axis2=2)
    others = np.flatnonzero(cubes_to_one & (traces != -2) & (traces != 7))
    assert len(others) > 0
    with pytest.raises(NotAMember):
        conjugator_carrying_deck(w[others[0]])


def test_both_decks_have_class_size_80():
    for deck in (load_fixtures().deck, base_surface().deck_matrix):
        assert conjugacy_class_size(deck, weyl_group()) == 80


def test_build_pipeline_bundle():
    bundle = build_pipeline()
    assert len(bundle.group) == 648
    assert len(bundle.group.gens) == 4
    for g in bundle.group.gens:
        assert g.shape == (7, 7)
    assert np.array_equal(bundle.deck, base_surface().deck_matrix)
    assert set(bundle.traces) == {"gammaMinus", "gammaPlus"}


def test_fixture_source_reads_the_reference_matrices():
    fx, source = load_fixtures(), fixture_source()
    assert source.deck is fx.deck
    assert source.group is fixture_group()
    # the generators in the order h1, h2, g1, g2
    for g, want in zip(source.group.gens, fx.generators(), strict=True):
        assert np.array_equal(g, want)
    assert source.lifts == () and source.traces == {}


@pytest.mark.parametrize("fx_id, pl_id", PAIRS)
def test_paired_checks_expect_the_same(full_report, fx_id, pl_id):
    fx, pl = full_report[fx_id], full_report[pl_id]
    assert fx["status"] == pl["status"] == "pass"
    assert fx["expected"] == pl["expected"]
    assert set(fx["observed"]) == set(pl["observed"])


# a tampered fixture file fails every fixture check but the three that do
# not read the reference matrices
CORRUPT_FIXTURE_FAILURES = {
    "fx-load", "fx-deck-invariants", "fx-deck-centralizer", "fx-torsion-group",
    "fx-torsion-commutator", "fx-loop-group", "fx-conjugation-relations",
    "fx-subgroup-structure", "fx-set-equality", "fx-model-structure",
    "fx-isomorphism"}


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
    assert {k for k, v in status.items() if v == "fail"} == CORRUPT_FIXTURE_FAILURES


def _linear(m, h):
    return ((m[0] * h[0] + m[1] * h[1]) % 3, (m[2] * h[0] + m[3] * h[1]) % 3)


def _canonical_twist(m, h):
    a, b = _linear(m, h)
    return (a, b, (h[2] + 2 * (a * b - h[0] * h[1])) % 3)


def _bare_action(m, h):
    return (*_linear(m, h), h[2])


def _not_an_action(m, h):
    return (*_linear(m, h), (h[2] + h[0]) % 3)


MODEL_CHECKS = {"fx-model-structure", "fx-isomorphism", "pl-isomorphism"}


MODEL_TWISTS = [
    # automorphisms, but the generator relations need the conjugation too
    (_canonical_twist, {"fx-isomorphism", "pl-isomorphism"}),
    # an action, but no automorphisms: the table is no group
    (_bare_action, MODEL_CHECKS),
    (_not_an_action, MODEL_CHECKS | {"fx-action-property"})]


@pytest.mark.parametrize("twist, failing", MODEL_TWISTS,
                         ids=["canonical-twist", "bare-action", "not-an-action"])
def test_a_planted_model_twist_fails_exactly_its_checks(monkeypatch, twist,
                                                        failing):
    # the model multiplies with the action that fx-action-property checks
    monkeypatch.setattr(groups, "corrected_action", twist)
    monkeypatch.setattr(verify, "corrected_action", twist)
    semidirect_model.cache_clear()
    try:
        report = run_checks("all")
    finally:
        semidirect_model.cache_clear()
    assert {c.check_id for c in report.checks if c.status == "fail"} == failing


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
    both.to_dict()


def test_run_checks_rejects_unknown_scope():
    with pytest.raises(ValueError):
        run_checks("everything")


# the pipeline checks that read the built source
SOURCE_CHECKS = {
    "pl-deck-matrix", "pl-perm-functor", "pl-plane-change",
    "pl-torsion-matrices",
    "pl-root-cycle-gammaMinus", "pl-root-cycle-gammaPlus",
    "pl-flex-perm-gammaMinus", "pl-flex-perm-gammaPlus", "pl-loop-matrices",
    "pl-loop-group", "pl-set-equality", "pl-isomorphism", "pl-step-stability",
    "pl-incidence-preserved"}


def test_unbuildable_pipeline_fails_its_checks_not_the_battery(capsys,
                                                               monkeypatch):
    calls = []

    def broken(*args):
        calls.append(1)
        raise GroupError("torsion maps made to fail")

    monkeypatch.setattr(verify, "translation", broken)
    code = cli.main(["verify", "--format", "json"])
    out, err = capsys.readouterr()
    assert (code, err, len(calls)) == (1, "", 1)
    checks = json.loads(out)["checks"]
    assert len(checks) == 32
    for c in checks:
        if c["id"] in SOURCE_CHECKS:
            assert (c["status"], c["observed"]) == (
                "fail", "GroupError('torsion maps made to fail')")
        else:
            assert c["status"] == "pass", c["id"]


def test_ambiguous_pipeline_build_aborts_the_battery(capsys, monkeypatch):
    def ambiguous(*args):
        raise AmbiguousMatching("made ambiguous")

    monkeypatch.setattr(verify, "translation", ambiguous)
    assert cli.main(["verify", "--scope", "pipeline"]) == 3
    assert "made ambiguous" in capsys.readouterr().err


def test_pipeline_battery_matches_lines_once(monkeypatch):
    calls = []
    matcher = verify.translation

    def counted(*args):
        calls.append(args)
        return matcher(*args)

    monkeypatch.setattr(verify, "translation", counted)
    pipeline_checks()
    # the bundle's two translations; pl-plane-change and pl-torsion-matrices
    # read the bundle
    assert calls == [(8,), (5,)]


def test_a_wrong_image_flex_fails_the_plane_change(monkeypatch):
    real = lines_module._third_flexes

    def swapped(adjacency, p):
        out = real(adjacency, p)
        out[[1, 2]] = out[[2, 1]]
        return out

    monkeypatch.setattr(lines_module, "_third_flexes", swapped)
    # no plane map sends the flexes to the swapped images: the translation
    # refuses its residual, so the pipeline cannot be built
    failed = {c.check_id: c.observed for c in run_checks("pipeline").checks
              if c.status == "fail"}
    assert set(failed) == SOURCE_CHECKS
    assert failed["pl-plane-change"].startswith("TransformResidual('translation by flex 8")


VERTICAL_SCALES = [
    # r^3 = 1.003 c: the sheet ratios still round to the same cube roots
    (1.001, {"pl-plane-change"}),
    # -r: every sheet ratio falls midway between two cube roots
    (-1.0, SOURCE_CHECKS)]


@pytest.mark.parametrize("factor, failing", VERTICAL_SCALES,
                         ids=["near-cube-root", "negated"])
def test_a_wrong_vertical_scale_fails_its_checks(monkeypatch, factor, failing):
    real = verify.translation

    def rescaled(p):
        a, c, lift = real(p)
        lift = lift.copy()
        lift[3, 3] *= factor
        return a, c, lift

    monkeypatch.setattr(verify, "translation", rescaled)
    assert {c.check_id for c in run_checks("pipeline").checks
            if c.status == "fail"} == failing


def _duplicated_simple_root(monkeypatch):
    # the sixth reflection repeats the fifth: the closure is no longer W(E6),
    # and weyl_group raises WrongOrder, which its cache does not keep
    roots = weyl.SIMPLE_ROOTS.copy()
    roots[5] = roots[4]
    monkeypatch.setattr(weyl, "SIMPLE_ROOTS", roots)
    weyl_group.cache_clear()


def _surface_with(monkeypatch, **changes):
    # the battery's view of the base surface; the translations and the
    # trackers still read the true one
    surface = dataclasses.replace(base_surface(), **changes)
    monkeypatch.setattr(verify, "base_surface", lambda: surface)


def _flipped_incidence(a, b):
    def plant(monkeypatch):
        adj = base_surface().adjacency.copy()
        adj[a, b] = adj[b, a] = not adj[a, b]
        _surface_with(monkeypatch, adjacency=adj)
    return plant


def _meeting_sixer(monkeypatch):
    # lines 0 and 1 lie over one flex, so they meet
    _surface_with(monkeypatch, sixer=(0, 1, 7, 10, 16, 23))


def _swapped_class_rows(monkeypatch):
    classes = base_surface().classes.copy()
    classes[[5, 6]] = classes[[6, 5]]
    _surface_with(monkeypatch, classes=classes)


def _forged_constant_loop(monkeypatch):
    monkeypatch.setattr(verify, "constant_loop", gamma_minus)


def _negated_orbit_row(monkeypatch, row=50):
    # the battery's reflection group with one basis-orbit vector negated: the
    # same digits and tree, but the elements with that column no longer fix
    # the canonical class
    w = weyl_group()
    orbit = w.orbit.copy()
    orbit[row] = -orbit[row]
    negated = FiniteMatrixGroup(w.gens, orbit, w.digits, w.tree, w.moves)
    monkeypatch.setattr(verify, "weyl_group", lambda: negated)


# the checks that read the reflection group
WEYL_CHECKS = {
    "fx-reflection-order", "fx-reflection-invariants", "fx-deck-invariants",
    "fx-deck-centralizer", "fx-torsion-group", "fx-set-equality",
    "fx-model-structure", "fx-isomorphism", "pl-deck-matrix",
    "pl-torsion-matrices", "pl-loop-matrices", "pl-set-equality",
    "pl-isomorphism"}
INCIDENCE_CHECKS = {"pl-line-geometry", "pl-classes-incidence",
                    "pl-incidence-preserved"}

PLANTED_DEFECTS = [
    (_duplicated_simple_root, WEYL_CHECKS),
    # lines 1 and 5 lie over different flexes and do not meet
    (_flipped_incidence(1, 5), INCIDENCE_CHECKS),
    # lines 1 and 2 lie over one flex: its triple is no longer concurrent
    (_flipped_incidence(1, 2), INCIDENCE_CHECKS | {"pl-triples-sixer"}),
    # the deck matrix cannot be built on a sixer that is no basis
    (_meeting_sixer, SOURCE_CHECKS | {"pl-triples-sixer"}),
    (_swapped_class_rows, SOURCE_CHECKS | {"pl-classes-incidence"}),
    (_forged_constant_loop, {"pl-constant-loop"}),
    (_negated_orbit_row, {"fx-reflection-invariants", "fx-deck-centralizer",
                          "fx-set-equality", "fx-model-structure",
                          "pl-set-equality"})]


@pytest.mark.parametrize("plant, failing", PLANTED_DEFECTS, ids=[
    "duplicated-simple-root", "flipped-incidence", "flipped-fiber-incidence",
    "meeting-sixer", "swapped-class-rows", "forged-constant-loop",
    "negated-orbit-row"])
def test_a_planted_defect_fails_exactly_its_checks(monkeypatch, plant, failing):
    plant(monkeypatch)
    assert {c.check_id for c in run_checks("all").checks
            if c.status == "fail"} == failing


@pytest.mark.parametrize("row", [7, 50, 98])
def test_a_negated_orbit_row_fails_the_invariants_on_their_value(monkeypatch, row):
    _negated_orbit_row(monkeypatch, row)
    check = next(c for c in fixture_checks()
                 if c.check_id == "fx-reflection-invariants")
    assert check.status == "fail"
    assert check.observed == {"formPreserved": True, "canonicalFixed": False}


def test_the_planted_defects_fail_every_check():
    pinned = set().union(
        CORRUPT_FIXTURE_FAILURES, SOURCE_CHECKS,
        {f"{check}-{kind}" for _, check in TRANSCRIBED for kind in LOOP_KINDS},
        *(failing for _, failing in MODEL_TWISTS + VERTICAL_SCALES + PLANTED_DEFECTS))
    assert pinned == {c["id"] for c in json.loads(GOLDEN.read_text())["checks"]}
