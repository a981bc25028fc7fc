"""Coordinate change to the diagonal model and the induced symmetries."""

import numpy as np
import pytest

import cubicmonodromy.lines as lines_module
from cubicmonodromy.curves import family_lambda, hesse_form
from cubicmonodromy.errors import NoUniqueMatch
from cubicmonodromy.hesse import (OMEGA, heisenberg_lifts, heisenberg_matrices,
                                  hesse_transform)
from cubicmonodromy.lines import (base_surface, deck_permutation,
                                  induced_line_perm, perm_compose)
from cubicmonodromy.numeric import nearest_match
from cubicmonodromy.weyl import FiniteMatrixGroup, lattice_inverse, weyl_group


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


def _conjugated_lifts():
    _, a4, _ = hesse_transform()
    return [np.linalg.inv(a4) @ lift @ a4 for lift in heisenberg_lifts()]


def test_induced_perm_decides_by_a_wide_margin(monkeypatch):
    # the two distance stacks the rule decides on: each flex image lies on
    # its flex and each sheet ratio on its cube root of unity, while the
    # runners-up are about 0.8 and sqrt(3) away
    seen = []

    def recording(dist, *args, **kwargs):
        seen.append(np.asarray(dist))
        return nearest_match(dist, *args, **kwargs)

    base_surface()
    monkeypatch.setattr(lines_module, "nearest_match", recording)
    for m in [np.eye(4, dtype=complex), *_conjugated_lifts()]:
        seen.clear()
        induced_line_perm(m)
        flexes, sheets = seen
        assert flexes.shape == (9, 9) and sheets.shape == (9, 3)
        for dist, runner_up in ((flexes, 0.8), (sheets, 1.7)):
            ranked = np.sort(dist, axis=1)
            assert ranked[:, 0].max() < 1e-13
            assert ranked[:, 1].min() > runner_up


def test_conjugated_lifts_move_the_lines_as_pinned():
    x_perm, y_perm = (induced_line_perm(m).tolist() for m in _conjugated_lifts())
    assert x_perm == [24, 25, 26, 0, 1, 2, 20, 18, 19, 22, 23, 21, 10, 11, 9,
                      8, 6, 7, 17, 15, 16, 13, 14, 12, 3, 4, 5]
    assert y_perm == [15, 16, 17, 20, 18, 19, 10, 11, 9, 25, 26, 24, 0, 1, 2,
                      12, 13, 14, 23, 21, 22, 5, 3, 4, 7, 8, 6]


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
    # a full 4 x 4 matrix mixes w with the plane: no map diag(A, c)
    bad = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    with pytest.raises(ValueError, match="diag"):
        induced_line_perm(bad)
    # diag(A, 1) for a random A keeps the block shape but moves no flex
    # onto a flex
    block = np.eye(4, dtype=complex)
    block[:3, :3] = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
    with pytest.raises(NoUniqueMatch):
        induced_line_perm(block)
    for shape in (np.eye(3), np.diag([1.0, 1.0, 0.0, 1.0])):
        with pytest.raises(ValueError, match="diag"):
            induced_line_perm(shape)


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
