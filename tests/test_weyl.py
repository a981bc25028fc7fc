"""Reflection group closure and lattice-map machinery."""

import numpy as np
import pytest

from cubicmonodromy import weyl
from cubicmonodromy.errors import CapExceeded, GroupError, NotAMember
from cubicmonodromy.fixtures import load_fixtures
from cubicmonodromy.lines import CANONICAL_CLASS, J_FORM
from cubicmonodromy.weyl import (WEYL_ORDER, FiniteMatrixGroup, centralizer,
                                 conjugacy_class_size, is_lattice_map,
                                 lattice_inverse, reflection, regenerate,
                                 trace_character_check, weyl_generators,
                                 weyl_group)


def reference_close(gens):
    """Per-element BFS closure keyed by matrix bytes: the reference.

    Expanding elements in index order is breadth-first order, and each
    (element, generator) product either finds its matrix or appends it.
    """
    gens = [np.asarray(g, dtype=np.int64) for g in gens]
    dim = gens[0].shape[0] if gens else 7
    elements = [np.eye(dim, dtype=np.int64)]
    parents = [None]
    index = {elements[0].tobytes(): 0}
    transitions = []
    for i, m in enumerate(elements):
        row = []
        for j, g in enumerate(gens):
            prod = g @ m
            at = index.setdefault(prod.tobytes(), len(elements))
            if at == len(elements):
                elements.append(prod)
                parents.append((i, j))
            row.append(at)
        transitions.append(row)
    trans = np.array(transitions, dtype=np.int64).reshape(len(elements), len(gens))
    return np.stack(elements), parents, trans


def _generator_sets():
    fx = load_fixtures()
    return {
        "reflections": weyl_generators(),
        "fixtures": fx.generators(),
        "torsion": [fx.h1, fx.h2],
        "single": [fx.deck],
        "empty": [],
        # an order-4 matrix with entries (up to 2^54 + 1) too large for
        # an int64 code of a whole row
        "large-entries": [np.array([[2**27, -2**54 - 1], [1, -2**27]])],
    }


@pytest.mark.parametrize("name", list(_generator_sets()))
def test_close_matches_reference_bfs(name):
    gens = _generator_sets()[name]
    elements, parents, transitions = reference_close(gens)
    group = FiniteMatrixGroup.close(gens)
    assert group.elements.dtype == elements.dtype
    assert group.elements.tobytes() == elements.tobytes()
    assert group.parents == parents
    assert group.transitions.shape == transitions.shape
    assert group.transitions.tobytes() == transitions.tobytes()


def _sign_changes(dim):
    """diag(1, ..., -1, ..., 1) for every coordinate: any two elements of
    their closure that differ in one sign share all other columns."""
    return [np.diag([-1 if i == k else 1 for i in range(dim)]) for k in range(dim)]


@pytest.mark.parametrize("dim", [3, 7])
def test_close_separates_elements_that_share_all_but_one_column(dim):
    gens = _sign_changes(dim)
    elements, parents, transitions = reference_close(gens)
    group = FiniteMatrixGroup.close(gens)
    assert len(group) == 2**dim
    assert group.elements.tobytes() == elements.tobytes()
    assert group.parents == parents
    assert group.transitions.tobytes() == transitions.tobytes()


def test_close_of_an_infinite_group_stops_at_the_cap():
    # the basis orbit of a shear is infinite; it is cut at dim * cap vectors
    with pytest.raises(CapExceeded):
        FiniteMatrixGroup.close([np.array([[1, 1], [0, 1]])], cap=100)


def test_close_rejects_digit_keys_beyond_int64():
    # a 24-cycle: 24 orbit vectors, 24^24 keys do not fit int64
    shift = np.roll(np.eye(24, dtype=np.int64), 1, axis=0)
    with pytest.raises(GroupError):
        FiniteMatrixGroup.close([shift])
    # a 13-cycle's 13^13 keys fit
    small = np.roll(np.eye(13, dtype=np.int64), 1, axis=0)
    assert len(FiniteMatrixGroup.close([small])) == 13


def test_digits_index_the_columns_in_the_orbit():
    w = weyl_group()
    assert w.orbit.shape == (99, 7)
    assert w.digits.dtype == np.uint8
    cols = w.orbit[w.digits].transpose(0, 2, 1)
    assert np.array_equal(cols, w.elements)


def test_generators_are_reflections():
    for g in weyl_generators():
        assert is_lattice_map(g)
        assert np.array_equal(g @ g, np.eye(7, dtype=np.int64))


def test_full_group_order():
    assert len(weyl_group()) == WEYL_ORDER


def test_every_element_preserves_form_and_canonical():
    s = weyl_group().stacked()
    form = np.einsum("nja,jk,nkb->nab", s, J_FORM, s)
    assert (form == J_FORM).all()
    assert (s @ CANONICAL_CLASS == CANONICAL_CLASS).all()


def test_census_spot_values():
    census = weyl_group().census()
    assert census[1] == 1
    assert census[2] == 891
    assert census[12] == 8640
    assert sum(census.values()) == WEYL_ORDER
    assert max(census) == 12


def test_word_reconstructs_elements():
    w = weyl_group()
    rng = np.random.default_rng(3)
    gens = w.gens
    for idx in rng.integers(0, len(w), size=12):
        m = np.eye(7, dtype=np.int64)
        for g_idx in w.word(int(idx)):
            m = m @ gens[g_idx]
        assert np.array_equal(m, w.elements[int(idx)])


def test_element_order_matches_powers():
    w = weyl_group()
    rng = np.random.default_rng(5)
    eye = np.eye(7, dtype=np.int64)
    for idx in rng.integers(0, len(w), size=8):
        m = w.elements[int(idx)]
        k = w.element_order(m)
        acc = np.eye(7, dtype=np.int64)
        for _ in range(k):
            acc = acc @ m
        assert np.array_equal(acc, eye)
        for j in range(1, k):
            acc2 = np.linalg.matrix_power(m, j)
            assert not np.array_equal(acc2, eye)


def test_is_lattice_map_rejections():
    assert not is_lattice_map(np.eye(7) * 1.5)
    bad_form = np.eye(7, dtype=np.int64)
    bad_form[0, 1] = 1  # shear: moves the canonical class and breaks the form
    assert not is_lattice_map(bad_form)
    assert not is_lattice_map(np.eye(6, dtype=np.int64))
    perm = np.eye(7, dtype=np.int64)[[0, 2, 1, 3, 4, 5, 6]]
    # swapping two sixer coordinates preserves both invariants
    assert is_lattice_map(perm)


def test_lattice_inverse():
    w = weyl_group()
    rng = np.random.default_rng(11)
    eye = np.eye(7, dtype=np.int64)
    for idx in rng.integers(0, len(w), size=10):
        m = w.elements[int(idx)]
        assert np.array_equal(m @ lattice_inverse(m), eye)


def test_class_size_times_centralizer_is_group_order():
    w = weyl_group()
    g = w.gens[0]
    size = conjugacy_class_size(g, w)
    cen = centralizer(g, w)
    assert size * len(cen) == WEYL_ORDER


def test_trace_character():
    tr, chi = trace_character_check(np.eye(7, dtype=np.int64))
    assert (tr, chi) == (7, 6)


def test_regenerate_preserves_set():
    w = weyl_group()
    cen = centralizer(w.gens[0], w)
    again = regenerate(cen.elements)
    assert len(again) == len(cen)
    keys = {m.tobytes() for m in cen.elements}
    assert {m.tobytes() for m in again.elements} == keys


def test_close_cap_exceeded():
    with pytest.raises(CapExceeded):
        FiniteMatrixGroup.close(weyl_generators(), cap=100)
    gens = load_fixtures().generators()
    assert len(FiniteMatrixGroup.close(gens, cap=648)) == 648
    with pytest.raises(CapExceeded):
        FiniteMatrixGroup.close(gens, cap=647)


def test_stacked_is_the_read_only_element_stack():
    w = weyl_group()
    assert w.stacked() is w.elements
    assert w.elements.shape == (WEYL_ORDER, 7, 7)
    assert not w.elements.flags.writeable


def test_locate_batches_members_and_outsiders():
    w = weyl_group()
    idx = [0, 5, WEYL_ORDER - 1]
    outsider = -np.eye(7, dtype=np.int64)
    found = w.locate(np.concatenate([w.elements[idx], outsider[None]]))
    assert found.tolist() == idx + [-1]
    assert w.locate(np.eye(6, dtype=np.int64)[None]).tolist() == [-1]


def test_index_of_rejects_outsider():
    w = weyl_group()
    outsider = np.eye(7, dtype=np.int64)
    outsider[0, 0] = -1
    with pytest.raises(NotAMember):
        w.index_of(outsider)


def test_reflection_formula():
    root = np.array([0, 1, -1, 0, 0, 0, 0], dtype=np.int64)
    r = reflection(root)
    assert is_lattice_map(r)
    assert np.array_equal(r @ root, -root)
