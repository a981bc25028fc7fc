"""Acceptance gate: the seven headline requirements, each timed.

Each test prints one PASS/FAIL line through the conftest hook.  Together
they certify the full chain: reflection group generation, line geometry,
the deck class, the transcribed reference matrices, loop monodromy, and the
end-to-end identification of the monodromy image with the centralizer and
with the abstract semidirect model.
"""

import time

import numpy as np

from cubicmonodromy.fixtures import load_fixtures
from cubicmonodromy.groups import (HEISENBERG_ALL, SL2_ALL, conjugation_relations,
                                   corrected_action, identify_order24,
                                   intersect, is_normal, semidirect_model,
                                   sl2_mul)
from cubicmonodromy.lines import (CANONICAL_CLASS, J_FORM, base_surface,
                                  build_surface_data, concurrent_triples,
                                  deck_permutation, is_strongly_regular_27,
                                  pairing, perm_compose, perm_to_lattice_map)
from cubicmonodromy.curves import family_lambda
from cubicmonodromy.tracking import (TrackingConfig, constant_loop,
                                     gamma_minus, gamma_plus, lift_to_lines,
                                     monodromy_matrix, trace_loop,
                                     track_flexes)
from cubicmonodromy.verify import (build_pipeline,
                                   transcribed_flex_permutation,
                                   transcribed_root_permutation,
                                   verify_isomorphism_via_transport)
from cubicmonodromy.weyl import (WEYL_ORDER, FiniteMatrixGroup, centralizer,
                                 conjugacy_class_size, weyl_group)


def test_criterion_1_reflection_group_generation():
    start = time.perf_counter()
    w = weyl_group()
    assert len(w) == 51840 == WEYL_ORDER
    stacked = w.stacked()
    form = np.einsum("nja,jk,nkb->nab", stacked, J_FORM, stacked)
    assert (form == J_FORM).all()
    assert (stacked @ CANONICAL_CLASS == CANONICAL_CLASS).all()
    assert time.perf_counter() - start < 30.0


def test_criterion_2_line_geometry():
    start = time.perf_counter()
    s = build_surface_data(family_lambda(0.0), tol=1e-8)
    assert len(s.lines) == 27
    assert is_strongly_regular_27(s.adjacency)
    assert len(concurrent_triples(s.lines, s.adjacency)) == 9
    matches = sum(
        (pairing(s.classes[i], s.classes[j]) == 1) == bool(s.adjacency[i, j])
        for i in range(27) for j in range(i + 1, 27))
    assert matches == 351
    assert time.perf_counter() - start < 2.0


def test_criterion_3_deck_class():
    start = time.perf_counter()
    s = base_surface()
    deck = s.deck_matrix
    w = weyl_group()
    assert w.element_order(deck) == 3
    # trace -2 on the lattice, character -3 on the reflection representation
    assert int(np.trace(deck)) == -2
    assert conjugacy_class_size(deck, w) == 80
    cen = centralizer(deck, w)
    assert len(cen) == 648 == WEYL_ORDER // 80
    assert time.perf_counter() - start < 60.0


def test_criterion_4_fixture_suite():
    start = time.perf_counter()
    fx = load_fixtures()
    w = weyl_group()

    # (a) lattice invariants hold on load; re-assert via the group
    for m in fx.generators() + [fx.deck]:
        assert m in w

    # (b) subgroup orders and structure
    torsion = FiniteMatrixGroup.close([fx.h1, fx.h2], cap=100)
    assert len(torsion) == 27
    loops = FiniteMatrixGroup.close([fx.g1, fx.g2], cap=100)
    assert len(loops) == 24
    census = loops.census()
    assert census.get(4, 0) > 0 and census.get(6, 0) > 0
    order3 = next(m for m in loops.elements if loops.element_order(m) == 3)
    sylow3 = FiniteMatrixGroup.close([order3], cap=10)
    assert not is_normal(sylow3, loops)
    assert identify_order24(loops) == "SL2(F3)"

    # (c) all four conjugation relations, exactly
    rels = conjugation_relations(fx.h1, fx.h2, fx.g1, fx.g2, fx.deck)
    assert len(rels) == 4 and all(r["holds"] for r in rels)

    # (d) trivial intersection, normal torsion part, order 27 * 24
    full = FiniteMatrixGroup.close(fx.generators(), cap=1000)
    assert len(intersect(torsion, loops)) == 1
    assert is_normal(torsion, full)
    assert len(full) == 648 == 27 * 24

    # (e) set equality with the centralizer of the stored deck matrix
    cen = centralizer(fx.deck, w)
    assert {m.tobytes() for m in full.elements} == \
        {m.tobytes() for m in cen.elements}
    assert time.perf_counter() - start < 60.0


def test_criterion_5_monodromy_transcriptions():
    for kind, loop in (("gammaMinus", gamma_minus()),
                       ("gammaPlus", gamma_plus())):
        start = time.perf_counter()
        cfg = TrackingConfig(steps=100)
        assert trace_loop(loop, cfg).root_perm.tolist() == \
            transcribed_root_permutation(kind).tolist()
        assert track_flexes(loop, cfg).tolist() == \
            transcribed_flex_permutation(kind).tolist()
        assert time.perf_counter() - start < 5.0

    for steps in (50, 200):
        cfg = TrackingConfig(steps=steps)
        assert trace_loop(gamma_minus(), cfg).root_perm.tolist() == \
            transcribed_root_permutation("gammaMinus").tolist()
        assert track_flexes(gamma_plus(), cfg).tolist() == \
            transcribed_flex_permutation("gammaPlus").tolist()


def test_criterion_6_end_to_end_theorem():
    start = time.perf_counter()
    s = base_surface()
    bundle = build_pipeline()
    assert len(bundle.group) == 648
    cen = centralizer(s.deck_matrix, weyl_group())
    assert {m.tobytes() for m in bundle.group.elements} == \
        {m.tobytes() for m in cen.elements}
    mapping = verify_isomorphism_via_transport(bundle.group, s.deck_matrix)
    assert len(mapping) == 648
    assert len(set(mapping.values())) == 648
    assert time.perf_counter() - start < 120.0


def test_criterion_7_property_suites():
    # form preservation for every generated element
    stacked = weyl_group().stacked()
    form = np.einsum("nja,jk,nkb->nab", stacked, J_FORM, stacked)
    assert (form == J_FORM).all()

    # the permutation-to-matrix assignment is a homomorphism
    s = base_surface()
    perms = [deck_permutation(s.lines),
             lift_to_lines(track_flexes(gamma_minus())),
             lift_to_lines(track_flexes(gamma_plus()))]
    to_mat = [perm_to_lattice_map(p, s.classes, s.sixer) for p in perms]
    for p, mp in zip(perms, to_mat):
        for q, mq in zip(perms, to_mat):
            assert np.array_equal(
                perm_to_lattice_map(perm_compose(p, q), s.classes, s.sixer),
                mp @ mq)

    # the twisting action is a group action, exhaustively
    for m in SL2_ALL:
        for n in SL2_ALL:
            mn = sl2_mul(m, n)
            for h in HEISENBERG_ALL:
                assert corrected_action(mn, h) == \
                    corrected_action(m, corrected_action(n, h))

    # constant loops act trivially
    assert np.array_equal(monodromy_matrix(constant_loop()),
                          np.eye(7, dtype=np.int64))

    # halving or doubling the step count does not change the answer
    fine = track_flexes(gamma_minus(), TrackingConfig(steps=100))
    assert track_flexes(gamma_minus(), TrackingConfig(steps=50)).tolist() == \
        fine.tolist()

    # the abstract model agrees with the matrix groups on basic statistics
    model = semidirect_model()
    assert len(model) == 648
    assert model.census() == centralizer(base_surface().deck_matrix,
                                         weyl_group()).census()
