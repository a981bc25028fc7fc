"""Reflection group closure and lattice-map machinery."""

import numpy as np
import pytest

from cubicmonodromy import weyl
from cubicmonodromy.errors import (CapExceeded, GroupError, NotAMember,
                                   WrongOrder)
from cubicmonodromy.fixtures import load_fixtures
from cubicmonodromy.lines import CANONICAL_CLASS, J_FORM, base_surface
from cubicmonodromy.weyl import (WEYL_ORDER, ClassWalk, FiniteMatrixGroup,
                                 centralizer,
                                 conjugacy_class, conjugacy_class_size,
                                 element_orders, is_lattice_map, lattice_inverse,
                                 lattice_invariants, reflection, regenerate,
                                 weyl_generators, weyl_group)


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


def reference_orbit(gens, dim):
    """Per-vector orbit of the standard basis in Python integers, with the
    (ng, |orbit|) index of each g_j @ v_k: the reference."""
    rows = [g.tolist() for g in gens]
    vecs = [tuple(int(i == k) for i in range(dim)) for k in range(dim)]
    index = {v: k for k, v in enumerate(vecs)}
    images = []
    for v in vecs:  # grows while it is walked
        for g in rows:
            w = tuple(sum(a * b for a, b in zip(row, v)) for row in g)
            images.append(index.setdefault(w, len(vecs)))
            if images[-1] == len(vecs):
                vecs.append(w)
    return vecs, np.array(images, dtype=np.int64).reshape(len(vecs), len(rows)).T


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


def _tree_links(group):
    """The (parent, generator) link of each element from the BFS tree, in
    reference_close's form."""
    parent, gen, _ = group.tree
    return [None, *zip(parent[1:].tolist(), gen[1:].tolist())]


def _assert_matches_the_references(gens):
    elements, parents, transitions = reference_close(gens)
    group = FiniteMatrixGroup.close(gens)
    assert group.elements.dtype == elements.dtype
    assert group.elements.tobytes() == elements.tobytes()
    assert _tree_links(group) == parents
    assert group.transitions.shape == transitions.shape
    assert group.transitions.tobytes() == transitions.tobytes()
    vecs, moves = reference_orbit(gens, elements.shape[1])
    assert [tuple(v) for v in group.orbit.tolist()] == vecs
    assert group.moves.tolist() == moves.tolist()


@pytest.mark.parametrize("name", list(_generator_sets()))
def test_close_matches_reference_bfs(name):
    _assert_matches_the_references(_generator_sets()[name])


@pytest.mark.parametrize("seed", range(12))
def test_close_of_random_members_matches_reference_bfs(seed):
    # 1-4 random elements of the order-648 group, repeats allowed: subgroups
    # of many orders, levels of many widths, duplicate generators
    group = FiniteMatrixGroup.close(load_fixtures().generators())
    rng = np.random.default_rng(seed)
    picks = rng.integers(len(group), size=rng.integers(1, 5))
    _assert_matches_the_references([group.elements[k] for k in picks])


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
    assert _tree_links(group) == parents
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


def test_close_refuses_a_key_and_visit_beyond_int64():
    # the 12 sign changes: 24^12 digit keys fit int64, but level 1 has 144
    # (element, generator) visits and 24^12 * 2^8 > 2^63
    assert 24**12 < 2**63 < 24**12 * 2**8
    with pytest.raises(GroupError, match=r"2\^63"):
        FiniteMatrixGroup.close(_sign_changes(12))
    # the 11 sign changes' widest level, 462 * 11 visits, fits: 22^11 * 2^13
    assert 22**11 * 2**13 <= 2**63
    assert len(FiniteMatrixGroup.close(_sign_changes(11))) == 2**11


def test_basis_orbit_stops_at_the_first_vector_past_its_limit():
    # a free monoid on two unipotent matrices: an infinite orbit whose
    # levels keep growing, so a check made once per level overshoots
    gens = [np.array([[1, 2], [0, 1]]), np.array([[1, 0], [2, 1]])]
    with pytest.raises(CapExceeded) as info:
        weyl._basis_orbit(gens, 2, 40)
    assert len(info.traceback[-1].frame.f_locals["vecs"]) == 41


def test_basis_orbit_stays_exact_past_int64():
    # an infinite orbit of Fibonacci pairs, two vectors a level: its entries
    # pass 2^63 before the limit, and each is still g times the one two back
    g = np.array([[2, 1], [1, 1]])
    with pytest.raises(CapExceeded) as info:
        weyl._basis_orbit([g], 2, 200)
    vecs = info.traceback[-1].frame.f_locals["vecs"]
    assert max(vecs[-1]) > 2**63
    rows = g.tolist()
    assert all(w == tuple(sum(a * b for a, b in zip(row, v)) for row in rows)
               for v, w in zip(vecs, vecs[2:]))


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


def _reference_invariants(group):
    """The int64 products m^T J m and m @ K over the element stack."""
    s = group.elements
    return (bool((s.transpose(0, 2, 1) @ J_FORM @ s == J_FORM).all()),
            bool((s @ CANONICAL_CLASS == CANONICAL_CLASS).all()))


def test_lattice_invariants_match_the_matrix_products():
    w = weyl_group()
    assert lattice_invariants(w) == _reference_invariants(w) == (True, True)


@pytest.mark.parametrize("element, column", [(1, 0), (WEYL_ORDER // 2, 3),
                                             (WEYL_ORDER - 1, 6)])
def test_lattice_invariants_catch_one_changed_digit(element, column):
    w = weyl_group()
    digits = w.digits.copy()
    digits[element, column] = (digits[element, column] + 1) % len(w.orbit)
    broken = FiniteMatrixGroup(w.gens, w.orbit, digits, w.tree, w.moves)
    assert lattice_invariants(broken)[0] is False
    assert lattice_invariants(broken) == _reference_invariants(broken)


def test_lattice_invariants_read_pairings_away_from_column_0():
    # the new column 3 keeps its norm and its pairing with column 0, so only
    # its pairings with columns 1, 2, 4, 5, 6 can tell
    w = weyl_group()
    table = w.orbit @ J_FORM @ w.orbit.T
    digits = w.digits.copy()
    old = digits[1]
    digits[1, 3] = next(r for r in range(len(w.orbit)) if r != old[3]
                        and table[r, r] == table[old[3], old[3]]
                        and table[r, old[0]] == table[old[3], old[0]])
    broken = FiniteMatrixGroup(w.gens, w.orbit, digits, w.tree, w.moves)
    assert lattice_invariants(broken)[0] is False


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


def test_element_orders_is_one_power_loop():
    # the cyclic group of order 6 as indices added mod 6
    every = np.arange(6)

    def orders(limit):
        return element_orders(every, lambda power: (power + every) % 6,
                              lambda power: power == 0, limit)
    assert orders(6).tolist() == [1, 6, 3, 2, 3, 6]
    with pytest.raises(WrongOrder, match="bound of 5"):
        orders(5)


def test_element_order_without_a_finite_order_raises():
    shear = np.eye(7, dtype=np.int64)
    shear[0, 1] = 1  # its powers never return to the identity
    with pytest.raises(WrongOrder, match="bound of 399"):
        FiniteMatrixGroup.element_order(shear)


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


def _centralizer_inputs():
    w = weyl_group()
    s0, s1 = w.gens[0], w.gens[1]
    assert not np.array_equal(s0 @ s1, s1 @ s0)
    rng = np.random.default_rng(17)
    return {"fixture-deck": load_fixtures().deck,
            "surface-deck": base_surface().deck_matrix,
            "reflection": s0,
            "two-reflections": s0 @ s1,
            "random": w.elements[int(rng.integers(1, WEYL_ORDER))]}


@pytest.mark.parametrize("name", list(_centralizer_inputs()))
def test_tree_centralizer_matches_the_scan_over_the_group(name):
    w = weyl_group()
    g = _centralizer_inputs()[name]
    s = w.stacked()
    scan = np.flatnonzero(np.all(s @ g == g @ s, axis=(1, 2)))
    idx = np.flatnonzero(w.along_tree(weyl._class_walk(g, w).table) == 0)
    assert idx.tolist() == scan.tolist()
    cen = centralizer(g, w)
    assert len(cen) * conjugacy_class_size(g, w) == WEYL_ORDER
    picked = regenerate(s[scan]).gens
    assert len(cen.gens) == len(picked)
    assert all(np.array_equal(a, b) for a, b in zip(cen.gens, picked))


def _copy_with(w, tree=None, walks=None):
    """A copy of w sharing its digits, with another tree or kept walks."""
    copy = FiniteMatrixGroup(w.gens, w.orbit, w.digits, tree or w.tree,
                             w.moves)
    copy.class_walks.update(walks or {})
    return copy


def test_commute_guard_catches_a_false_fixed_point():
    # one table entry sends a non-commuting reflection onto g itself
    w, g = weyl_group(), load_fixtures().deck
    walk = weyl._class_walk(g, w)
    table = walk.table.copy()
    j = next(j for j in range(len(w.gens)) if table[0, j] != 0)
    table[0, j] = 0
    broken = _copy_with(w, walks={g.tobytes(): ClassWalk(walk.carriers, table)})
    with pytest.raises(GroupError, match="commute"):
        centralizer(g, broken)


def test_guards_catch_one_wrong_tree_edge():
    # the last centralizer member is reached through another generator
    w, g = weyl_group(), load_fixtures().deck
    walk = weyl._class_walk(g, w)
    parent, gen, bounds = w.tree
    k = int(np.flatnonzero(w.along_tree(walk.table) == 0)[-1])
    up = w.elements[parent[k]]
    at = list(walk.carriers).index((up @ g @ lattice_inverse(up)).tobytes())
    bad = gen.copy()
    bad[k] = next(j for j in range(len(w.gens)) if walk.table[at, j] != 0)
    broken = _copy_with(w, tree=(parent, bad, bounds))
    with pytest.raises((GroupError, WrongOrder)):
        centralizer(g, broken)


def test_class_walk_is_kept_once_and_read_only():
    w = FiniteMatrixGroup.close(weyl_generators())
    g = load_fixtures().deck
    members = conjugacy_class(g, w)
    assert conjugacy_class(g, w) is members
    assert conjugacy_class_size(g, w) == 80
    centralizer(g, w)
    assert list(w.class_walks) == [g.tobytes()]
    with pytest.raises(TypeError):
        members[b"x"] = g
    with pytest.raises(ValueError):
        members[g.tobytes()][0, 0] = 5
    with pytest.raises(ValueError):
        w.class_walks[g.tobytes()].table[0, 0] = 1


def test_close_keeps_its_bfs_tree():
    w = weyl_group()
    parent, gen, bounds = w.tree
    assert bounds[0] == 0 and bounds[1] == 1 and bounds[-1] == WEYL_ORDER
    for lo, hi, up in zip(bounds[1:-1], bounds[2:], bounds[:-2]):
        assert np.all((up <= parent[lo:hi]) & (parent[lo:hi] < lo))
    idx = np.arange(1, WEYL_ORDER, 997)
    gens = np.stack(w.gens)
    s = w.stacked()
    assert np.array_equal(gens[gen[idx]] @ s[parent[idx]], s[idx])


def test_element_stack_is_built_on_first_use():
    w = FiniteMatrixGroup.close(weyl_generators())
    assert len(w) == WEYL_ORDER
    assert w.locate(np.eye(7, dtype=np.int64)[None]).tolist() == [0]
    assert lattice_invariants(w) == (True, True)
    assert "elements" not in vars(w)
    s = w.stacked()
    assert s is w.elements is w.stacked()
    assert not s.flags.writeable


def test_class_walk_carries_each_member_from_g():
    w = weyl_group()
    g = load_fixtures().deck
    members = conjugacy_class(g, w)
    assert len(members) == conjugacy_class_size(g, w) == 80
    for key, carrier in members.items():
        assert carrier in w
        assert (carrier @ g @ lattice_inverse(carrier)).tobytes() == key


def test_class_walk_rejects_a_non_member():
    with pytest.raises(NotAMember):
        conjugacy_class(-np.eye(7, dtype=np.int64), weyl_group())
    with pytest.raises(NotAMember):
        conjugacy_class_size(-np.eye(7, dtype=np.int64), weyl_group())


def test_regenerate_preserves_set():
    w = weyl_group()
    cen = centralizer(w.gens[0], w)
    again = regenerate(cen.elements)
    assert len(again) == len(cen)
    keys = {m.tobytes() for m in cen.elements}
    assert {m.tobytes() for m in again.elements} == keys


def test_regenerate_rejects_members_that_generate_more():
    # a reflection in place of the identity: the members generate more than
    # 649 elements, which is a member list that is not closed
    w = weyl_group()
    cen = centralizer(load_fixtures().deck, w)
    members = np.concatenate([w.gens[0][None], cen.elements[1:]])
    with pytest.raises(WrongOrder, match="not closed under multiplication"):
        regenerate(members)


def test_along_tree_follows_each_word():
    # with the group's own transitions as the table, element i's word read
    # from element k reaches elements[i] @ elements[k]
    w = FiniteMatrixGroup.close(load_fixtures().generators())
    assert w.along_tree(w.transitions).tolist() == list(range(len(w)))
    k = 100
    want = w.locate(w.elements @ w.elements[k])
    assert w.along_tree(w.transitions, start=k).tolist() == want.tolist()


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
    # -1 and diag(-1, 1, ..., 1) preserve the form but move the canonical class
    flip = np.eye(7, dtype=np.int64)
    flip[0, 0] = -1
    found = w.locate(np.concatenate([w.elements[idx], -np.eye(7, dtype=np.int64)[None],
                                     flip[None]]))
    assert found.tolist() == idx + [-1, -1]
    assert w.locate(np.eye(6, dtype=np.int64)[None]).tolist() == [-1]
    assert w.locate(np.zeros((2, 7, 6), dtype=np.int64)).tolist() == [-1, -1]


def test_locate_refuses_one_matrix_that_is_not_a_stack():
    # read as a stack, the identity's seven rows would be seven non-members
    w = weyl_group()
    with pytest.raises(ValueError, match="stack"):
        w.locate(np.eye(7, dtype=np.int64))
    assert np.eye(7, dtype=np.int64) in w


def test_locate_is_exact_on_entries_up_to_2_to_the_54():
    group = FiniteMatrixGroup.close(_generator_sets()["large-entries"])
    assert len(group) == 4
    assert group.locate(group.elements).tolist() == [0, 1, 2, 3]
    # 2^62 lies beyond the orbit's largest entry, 2^54 + 1
    far = group.elements.copy()
    far[:, 1, 0] = 2**62
    assert group.locate(far).tolist() == [-1] * 4


def test_locate_refuses_non_members():
    w = weyl_group()
    far = np.eye(7, dtype=np.int64)
    far[3, 5] = 2**40
    # every column is an orbit vector, but column 1 repeats column 0
    twice = np.eye(7, dtype=np.int64)[:, [1, 1, 2, 3, 4, 5, 6]]
    assert all((w.orbit == col).all(axis=1).any() for col in twice.T)
    assert w.locate(np.stack([far, twice])).tolist() == [-1, -1]


def test_orbit_vectors_sharing_a_column_code_are_refused():
    # with base B, (0, 1) and (B - 2^64, 0) both have the wrapped code B
    orbit = np.array([[1, 0], [0, 1], [int(weyl._MIX) - 2**64, 0]])
    tree = (np.zeros(1, dtype=np.int64),) * 2 + (np.array([0, 1]),)
    with pytest.raises(GroupError, match="column code"):
        FiniteMatrixGroup([], orbit, np.array([[0, 1]], dtype=np.uint8), tree,
                          np.zeros((0, 3), dtype=np.uint8))


def test_transitions_of_digits_that_are_not_closed_raise():
    group = FiniteMatrixGroup.close(load_fixtures().generators())
    short = FiniteMatrixGroup(group.gens, group.orbit, group.digits[:-1],
                              group.tree, group.moves)
    assert short.locate(group.elements[-1:]).tolist() == [-1]
    with pytest.raises(GroupError, match="not an element"):
        short.transitions
    assert not group.transitions.flags.writeable


def test_reflection_formula():
    root = np.array([0, 1, -1, 0, 0, 0, 0], dtype=np.int64)
    r = reflection(root)
    assert is_lattice_map(r)
    assert np.array_equal(r @ root, -root)
