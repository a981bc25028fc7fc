"""Abstract model: Heisenberg mod 3, SL(2, F3), twisted product, certification."""

import copy

import numpy as np
import pytest

from cubicmonodromy.errors import NotIsomorphic, WrongOrder
from cubicmonodromy.fixtures import load_fixtures
from cubicmonodromy.groups import (HEISENBERG_ALL, MODEL_IDENTITY, SL2_ALL,
                                   SemidirectGroup, conjugation_relations,
                                   corrected_action, h_inv, h_mul,
                                   identify_order24, index_table, intersect,
                                   is_normal,
                                   phi_action, semidirect_model, sl2_inv,
                                   sl2_mul, verify_generator_map)
from cubicmonodromy.weyl import FiniteMatrixGroup


def test_heisenberg_group_axioms():
    e = (0, 0, 0)
    for x in HEISENBERG_ALL:
        assert h_mul(x, e) == x and h_mul(e, x) == x
        assert h_mul(x, h_inv(x)) == e
    # associativity, exhaustively
    for x in HEISENBERG_ALL:
        for y in HEISENBERG_ALL:
            for z in HEISENBERG_ALL:
                assert h_mul(h_mul(x, y), z) == h_mul(x, h_mul(y, z))


def test_heisenberg_nonabelian_with_central_commutator():
    x, y = (1, 0, 0), (0, 1, 0)
    comm = h_mul(h_mul(x, y), h_inv(h_mul(y, x)))
    assert comm != (0, 0, 0)
    assert comm[0] == 0 and comm[1] == 0


def test_sl2_closure_and_inverses():
    all_set = set(SL2_ALL)
    assert len(all_set) == 24
    for m in SL2_ALL:
        assert (m[0] * m[3] - m[1] * m[2]) % 3 == 1
        assert sl2_mul(m, sl2_inv(m)) == (1, 0, 0, 1)
        for n in SL2_ALL:
            assert sl2_mul(m, n) in all_set


def test_phi_is_group_action():
    e = (1, 0, 0, 1)
    for h in HEISENBERG_ALL:
        assert phi_action(e, h) == h
    for m in SL2_ALL:
        for n in SL2_ALL:
            mn = sl2_mul(m, n)
            for h in HEISENBERG_ALL:
                assert phi_action(mn, h) == phi_action(m, phi_action(n, h))


def test_corrected_action_is_group_action():
    e = (1, 0, 0, 1)
    for h in HEISENBERG_ALL:
        assert corrected_action(e, h) == h
    for m in SL2_ALL:
        for n in SL2_ALL:
            mn = sl2_mul(m, n)
            for h in HEISENBERG_ALL:
                assert corrected_action(mn, h) == \
                    corrected_action(m, corrected_action(n, h))


def test_corrected_action_acts_by_automorphisms():
    for m in SL2_ALL:
        seen = set()
        for h in HEISENBERG_ALL:
            seen.add(corrected_action(m, h))
            for k in HEISENBERG_ALL:
                assert corrected_action(m, h_mul(h, k)) == \
                    h_mul(corrected_action(m, h), corrected_action(m, k))
        assert len(seen) == 27


def test_corrected_action_projects_to_phi():
    # the twist only adjusts the center coordinate; the linear part is phi
    for m in SL2_ALL:
        for h in HEISENBERG_ALL:
            assert corrected_action(m, h)[:2] == phi_action(m, h)[:2]


def test_model_order_and_center():
    model = semidirect_model()
    assert len(model) == 648
    center = model.center()
    assert len(center) == 3
    for z in center:
        assert z[1] == (1, 0, 0, 1)
        assert z[0][0] == 0 and z[0][1] == 0


def test_model_census():
    model = semidirect_model()
    assert model.census() == {1: 1, 2: 9, 3: 98, 4: 54, 6: 234, 9: 144,
                              12: 108}


def test_model_census_raises_on_an_element_without_finite_order():
    model = SemidirectGroup()
    # the powers of element 5 stay at 5 and never reach the identity
    model.table[:, 5] = 5
    with pytest.raises(WrongOrder):
        model.census()


def test_model_associativity_spot_checks():
    # Light's test over the four generator images, which reach every element
    semidirect_model().check_associativity()


def test_model_associativity_catches_one_changed_entry():
    model = SemidirectGroup()
    model.table[5, 7] = model.table[5, 8]
    with pytest.raises(WrongOrder, match="associativity fails"):
        model.check_associativity()


def test_model_associativity_needs_generators_that_reach_everything(monkeypatch):
    # the identity alone passes Light's test but generates nothing else
    model = SemidirectGroup()
    monkeypatch.setattr(SemidirectGroup, "generator_images",
                        staticmethod(lambda: [MODEL_IDENTITY]))
    with pytest.raises(WrongOrder, match="reach 1 of 648"):
        model.check_associativity()


def test_model_inverses():
    model = semidirect_model()
    for p in [((1, 2, 0), (1, 1, 0, 1)), ((0, 1, 2), (2, 1, 1, 1)),
              ((2, 2, 2), (0, 2, 1, 0))]:
        assert model.mul(p, model.inv(p)) == MODEL_IDENTITY
        assert model.mul(model.inv(p), p) == MODEL_IDENTITY


def test_generator_images_generate_whole_model():
    model = semidirect_model()
    frontier = [MODEL_IDENTITY]
    seen = {MODEL_IDENTITY}
    gens = SemidirectGroup.generator_images()
    while frontier:
        nxt = []
        for p in frontier:
            for g in gens:
                q = model.mul(g, p)
                if q not in seen:
                    seen.add(q)
                    nxt.append(q)
        frontier = nxt
    assert len(seen) == 648


def test_verify_generator_map_certifies_printed_images():
    fx = load_fixtures()
    group = FiniteMatrixGroup.close(fx.generators(), cap=1000)
    mapping = verify_generator_map(group, SemidirectGroup.generator_images(),
                                   semidirect_model())
    assert len(mapping) == 648


def test_verify_generator_map_rejects_wrong_order_image():
    fx = load_fixtures()
    group = FiniteMatrixGroup.close(fx.generators(), cap=1000)
    images = list(SemidirectGroup.generator_images())
    # an order-4 image cannot represent an order-3 generator
    images[2] = ((0, 0, 0), (0, 2, 1, 0))
    with pytest.raises(NotIsomorphic):
        verify_generator_map(group, images, semidirect_model())


def test_verify_isomorphism_on_fixture_group():
    fx = load_fixtures()
    group = FiniteMatrixGroup.close(fx.generators(), cap=1000)
    mapping = verify_generator_map(group, SemidirectGroup.generator_images(),
                                   semidirect_model())
    assert len(mapping) == 648
    images = set(mapping.values())
    assert len(images) == 648


def test_conjugation_relations_hold_on_fixtures():
    fx = load_fixtures()
    rels = conjugation_relations(fx.h1, fx.h2, fx.g1, fx.g2, fx.deck)
    assert len(rels) == 4
    assert all(r["holds"] for r in rels)


def test_intersect_and_normality():
    fx = load_fixtures()
    torsion = FiniteMatrixGroup.close([fx.h1, fx.h2], cap=100)
    loops = FiniteMatrixGroup.close([fx.g1, fx.g2], cap=100)
    full = FiniteMatrixGroup.close(fx.generators(), cap=1000)
    assert len(intersect(torsion, loops)) == 1
    assert is_normal(torsion, full)
    assert not is_normal(loops, full)


def test_identify_order24():
    fx = load_fixtures()
    loops = FiniteMatrixGroup.close([fx.g1, fx.g2], cap=100)
    assert identify_order24(loops) == "SL2(F3)"
    with pytest.raises(WrongOrder):
        identify_order24(FiniteMatrixGroup.close([fx.deck], cap=10))


def test_sl2_quotient_structure():
    # model elements with trivial Heisenberg part do not form a subgroup,
    # but the quotient by the normal 27 part is SL2(F3): count cosets
    model = semidirect_model()
    cosets = {}
    for h in HEISENBERG_ALL:
        for m in SL2_ALL:
            cosets.setdefault(m, set()).add((h, m))
    assert len(cosets) == 24
    assert all(len(c) == 27 for c in cosets.values())


def test_model_table_is_the_tuple_product():
    model = semidirect_model()
    act = {g: {h: corrected_action(g, h) for h in HEISENBERG_ALL}
           for g in SL2_ALL}
    at = {p: i for i, p in enumerate(model.elements)}
    want = np.array([[at[(h_mul(h1, act[g1][h2]), sl2_mul(g1, g2))]
                      for (h2, g2) in model.elements]
                     for (h1, g1) in model.elements])
    assert model.table.shape == (648, 648)
    assert np.array_equal(model.table, want)


def test_index_table_indexes_the_codomain():
    table = index_table(sl2_mul, SL2_ALL, SL2_ALL, SL2_ALL)
    for i, m in enumerate(SL2_ALL):
        for j, n in enumerate(SL2_ALL):
            assert SL2_ALL[table[i, j]] == sl2_mul(m, n)


def test_verify_generator_map_replays_every_transition():
    fx = load_fixtures()
    group = FiniteMatrixGroup.close(fx.generators(), cap=1000)
    parent, gen, _ = group.tree
    tree = set(zip(parent[1:].tolist(), gen[1:].tolist()))
    i, j = next((i, j) for i in range(len(group)) for j in range(4)
                if (i, j) not in tree)
    # send one relation off the spanning tree to a wrong element
    corrupt = copy.copy(group)
    corrupt.transitions = group.transitions.copy()
    corrupt.transitions[i, j] = (group.transitions[i, j] + 1) % len(group)
    with pytest.raises(NotIsomorphic, match=r"word \[") as err:
        verify_generator_map(corrupt, SemidirectGroup.generator_images(),
                             semidirect_model())
    witness = group.word(int(corrupt.transitions[i, j]))
    assert str(witness) in str(err.value)
    # the tree alone assigns the same images: only the replay can see it
    assert len(verify_generator_map(group, SemidirectGroup.generator_images(),
                                    semidirect_model())) == 648
