"""Coordinate change to the diagonal model and the induced symmetries."""

import numpy as np
import pytest

from cubicmonodromy.curves import family_lambda, hesse_form
from cubicmonodromy.errors import GroupError, NoUniqueMatch
from cubicmonodromy.hesse import (OMEGA, _span_distances,
                                  heisenberg_lifts, heisenberg_matrices,
                                  hesse_transform, induced_line_perm)
from cubicmonodromy.lines import (base_surface, deck_permutation,
                                  perm_compose, preserves_incidence)
from cubicmonodromy.numeric import TOL_MATCH, nearest_match
from cubicmonodromy.weyl import lattice_inverse, weyl_group
from cubicmonodromy.groups import identify_order24
from cubicmonodromy.weyl import FiniteMatrixGroup


def test_transform_carries_pencil_to_diagonal():
    a, a4, mu = hesse_transform()
    f = family_lambda(0.0)
    g = hesse_form(mu)
    scale = mu ** 3 - 1.0
    rng = np.random.default_rng(2)
    for _ in range(6):
        p = rng.normal(size=3) + 1j * rng.normal(size=3)
        assert abs(g(a @ p) - scale * f(p)) < 1e-9 * max(1.0, abs(f(p)))


def test_transform_block_structure():
    a, a4, mu = hesse_transform()
    assert a4.shape == (4, 4)
    assert np.allclose(a4[:3, :3], a)
    assert np.allclose(a4[3, :3], 0.0) and np.allclose(a4[:3, 3], 0.0)
    # the vertical scale must cube to the form ratio, lifting the plane
    # change to the triple covers
    assert abs(complex(a4[3, 3]) ** 3 - (mu ** 3 - 1.0)) < 1e-12
    assert abs(np.linalg.det(a)) > 1e-6


def test_heisenberg_lifts_relations():
    xp, yp = heisenberg_lifts()
    eye = np.eye(4, dtype=complex)
    assert np.allclose(np.linalg.matrix_power(xp, 3), eye)
    assert np.allclose(np.linalg.matrix_power(yp, 3), eye)
    comm = xp @ yp @ np.linalg.inv(xp) @ np.linalg.inv(yp)
    want = np.diag([OMEGA ** 2, OMEGA ** 2, OMEGA ** 2, 1.0])
    assert np.allclose(comm, want)


def test_lifts_preserve_diagonal_surface():
    # w^3 - g(x,y,z) must be preserved exactly by both lifts
    _, _, mu = hesse_transform()
    g = hesse_form(mu)
    xp, yp = heisenberg_lifts()
    rng = np.random.default_rng(4)
    for mat in (xp, yp):
        for _ in range(4):
            p = rng.normal(size=4) + 1j * rng.normal(size=4)
            q = mat @ p
            before = p[3] ** 3 - g(p[:3])
            after = q[3] ** 3 - g(q[:3])
            assert abs(after - before) < 1e-9


def test_induced_perm_identity():
    p = induced_line_perm(np.eye(4, dtype=complex))
    assert p.tolist() == list(range(27))


def test_chordal_distance_has_no_cancellation_floor():
    # sqrt(2 - |U V^H|^2) left up to 4e-8 for a base line mapped through the
    # identity and itself, only 25 times below TOL_MATCH
    lines = base_surface().lines
    dist = _span_distances(np.eye(4, dtype=complex), lines, lines)
    assert np.diag(dist).max() < 1e-14


def test_induced_perm_deck_scaling():
    s = base_surface()
    q = deck_permutation(s.lines)
    # the scaling permutes sheets cyclically: w -> omega w carries the sheet-n
    # line, w = omega^n (...), onto sheet n + 1, so diag(1, 1, 1, omega) gives
    # q and diag(1, 1, 1, conj(omega)) gives q∘q
    for w3, want in ((OMEGA, q), (np.conj(OMEGA), perm_compose(q, q))):
        scaling = np.diag([1.0, 1.0, 1.0, w3]).astype(complex)
        assert induced_line_perm(scaling).tolist() == want.tolist()


def test_induced_perm_rejects_off_surface_map():
    rng = np.random.default_rng(9)
    bad = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    with pytest.raises(NoUniqueMatch):
        induced_line_perm(bad)


def test_induced_perm_rejects_a_duplicated_source_line():
    # every line keeps its margin, but two land on the same target
    lines = base_surface().lines
    dist = _span_distances(np.eye(4, dtype=complex), lines[[0, *range(26)]],
                           lines)
    with pytest.raises(NoUniqueMatch, match="not one to one"):
        nearest_match(dist, TOL_MATCH)


def test_heisenberg_matrices_structure():
    s = base_surface()
    h1, h2 = heisenberg_matrices()
    deck = s.deck_matrix
    w = weyl_group()
    for h in (h1, h2):
        assert h in w
        assert w.element_order(h) == 3
        assert np.array_equal(h @ deck, deck @ h)
    comm = h1 @ h2 @ lattice_inverse(h1) @ lattice_inverse(h2)
    assert np.array_equal(comm, deck) or np.array_equal(comm, deck @ deck)
    grp = FiniteMatrixGroup.close([h1, h2], cap=100)
    assert len(grp) == 27
    assert grp.census() == {1: 1, 3: 26}


def test_torsion_and_deck_generate_extraspecial():
    s = base_surface()
    h1, h2 = heisenberg_matrices()
    grp = FiniteMatrixGroup.close([h1, h2, s.deck_matrix], cap=100)
    assert len(grp) == 27


def test_torsion_with_one_loop_gives_81():
    from cubicmonodromy.tracking import gamma_minus, monodromy_matrix
    h1, h2 = heisenberg_matrices()
    g1 = monodromy_matrix(gamma_minus())
    grp = FiniteMatrixGroup.close([h1, h2, g1], cap=1000)
    # one order-3 loop extends the 27 torsion elements to a 3-Sylow only;
    # the second loop is genuinely needed for the full order-648 image
    assert len(grp) == 81
