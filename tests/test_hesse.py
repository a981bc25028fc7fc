"""The Hesse configuration of the base cubic: translations by its nine flexes,
their lifts to the cover, and the lines they move."""

import numpy as np
import pytest

import cubicmonodromy.lines as lines_module
from cubicmonodromy.errors import NoUniqueMatch
from cubicmonodromy.lines import (base_surface, deck_permutation,
                                  induced_line_perm, perm_compose,
                                  perm_to_lattice_map, translation)
from cubicmonodromy.numeric import OMEGA, nearest_match
from cubicmonodromy.verify import build_pipeline
from cubicmonodromy.weyl import FiniteMatrixGroup, lattice_inverse, weyl_group

# the flexes [a : b : 1] and [-a : ib : 1], whose translations give h1 and h2
H1_FLEX, H2_FLEX = 8, 5


def _lattice_map(lift):
    s = base_surface()
    return perm_to_lattice_map(induced_line_perm(lift), s.classes, s.sixer)


def _torsion_matrices():
    return tuple(_lattice_map(translation(k)[2]) for k in (H1_FLEX, H2_FLEX))


def test_translations_scale_the_base_cubic():
    f = base_surface().form
    rng = np.random.default_rng(2)
    for k in range(9):
        a, c, _ = translation(k)
        for _ in range(6):
            p = rng.normal(size=3) + 1j * rng.normal(size=3)
            assert abs(f(a @ p) - c * f(p)) < 1e-9 * max(1.0, abs(c * f(p)))


def test_transform_block_structure():
    for k in range(9):
        a, c, lift = translation(k)
        assert lift.shape == (4, 4)
        assert np.array_equal(lift[:3, :3], a)
        assert not np.any(lift[3, :3]) and not np.any(lift[:3, 3])
        # the vertical scale must cube to the form ratio, lifting the plane
        # map to the triple cover
        assert abs(complex(lift[3, 3]) ** 3 - c) < 1e-12 * abs(c)
        assert abs(np.linalg.det(a)) > 1e-6


def test_heisenberg_lifts_relations():
    # each lift cubes to a scalar; their commutator is a deck rotation up to
    # a scalar: diag(z, z, z, 1) with z a primitive cube root of unity
    xp, yp = (translation(k)[2] for k in (H1_FLEX, H2_FLEX))
    for m in (xp, yp):
        cube = np.linalg.matrix_power(m, 3)
        assert np.allclose(cube, cube[0, 0] * np.eye(4))
    comm = xp @ yp @ np.linalg.inv(xp) @ np.linalg.inv(yp)
    z = comm[0, 0]
    assert np.allclose(comm, np.diag([z, z, z, 1.0]))
    assert min(abs(z - OMEGA), abs(z - OMEGA ** 2)) < 1e-9


def test_lifts_preserve_the_surface():
    # w^3 - f(x, y, z) is scaled by c under the lift of each translation
    f = base_surface().form
    rng = np.random.default_rng(4)
    for k in range(9):
        _, c, lift = translation(k)
        for _ in range(4):
            p = rng.normal(size=4) + 1j * rng.normal(size=4)
            q = lift @ p
            before = p[3] ** 3 - f(p[:3])
            after = q[3] ** 3 - f(q[:3])
            assert abs(after - c * before) < 1e-9 * max(1.0, abs(c * before))


def test_translation_by_the_origin_is_the_identity():
    # flex 0 is O = [0 : 1 : 0]
    assert base_surface().flexes[0].tolist() == [0, 1, 0]
    a, _, lift = translation(0)
    assert np.allclose(a / a[0, 0], np.eye(3))
    assert induced_line_perm(lift).tolist() == list(range(27))


def test_translation_takes_a_flex_index(monkeypatch):
    want = translation(8)
    got = translation(np.int64(8))
    for x, y in zip(got, want, strict=True):
        assert np.array_equal(x, y)

    def unsolved():
        raise AssertionError("the base surface was built")

    # refused before the surface is read
    monkeypatch.setattr(lines_module, "base_surface", unsolved)
    for p in (-1, 9):
        with pytest.raises(ValueError, match=f"no flex {p}"):
            translation(p)
    with pytest.raises(TypeError):
        translation(1.0)


def test_every_translation_has_order_3_in_the_torsion_group():
    torsion = FiniteMatrixGroup.close(list(_torsion_matrices()), cap=100)
    for k in range(9):
        a, _, lift = translation(k)
        cube = np.linalg.matrix_power(a, 3)
        assert np.allclose(cube, cube[0, 0] * np.eye(3))
        if k:
            assert not np.allclose(a, a[0, 0] * np.eye(3))
        m = _lattice_map(lift)
        assert m in torsion
        # line 0, sheet 0 over O, goes to sheet 0 over the flex
        assert induced_line_perm(lift)[0] == 3 * k


def test_induced_perm_identity():
    p = induced_line_perm(np.eye(4, dtype=complex))
    assert p.tolist() == list(range(27))


def test_induced_perm_decides_by_a_wide_margin(monkeypatch):
    # the two distance stacks the rule decides on: each flex image lies on
    # its flex and each sheet ratio on its cube root of unity, while the
    # runners-up are about 0.8 and sqrt(3) away
    seen = []

    def recording(dist, *args, **kwargs):
        seen.append(np.asarray(dist))
        return nearest_match(dist, *args, **kwargs)

    lifts = [translation(k)[2] for k in range(9)]
    monkeypatch.setattr(lines_module, "nearest_match", recording)
    for m in [np.eye(4, dtype=complex), *lifts]:
        seen.clear()
        induced_line_perm(m)
        flexes, sheets = seen
        assert flexes.shape == (9, 9) and sheets.shape == (9, 3)
        for dist, runner_up in ((flexes, 0.8), (sheets, 1.7)):
            ranked = np.sort(dist, axis=1)
            assert ranked[:, 0].max() < 1e-13
            assert ranked[:, 1].min() > runner_up


H1_PERM = [24, 25, 26, 0, 1, 2, 20, 18, 19, 22, 23, 21, 10, 11, 9,
           8, 6, 7, 17, 15, 16, 13, 14, 12, 3, 4, 5]
H2_PERM = [15, 16, 17, 20, 18, 19, 10, 11, 9, 25, 26, 24, 0, 1, 2,
           12, 13, 14, 23, 21, 22, 5, 3, 4, 7, 8, 6]


def test_translations_move_the_lines_as_pinned():
    want = [H1_PERM, H2_PERM]
    assert [induced_line_perm(translation(k)[2]).tolist()
            for k in (H1_FLEX, H2_FLEX)] == want
    # the pipeline names the same two flexes by their y-coordinates
    assert [induced_line_perm(m).tolist() for m in build_pipeline().lifts] == want


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
    h1, h2 = _torsion_matrices()
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
    h1, h2 = _torsion_matrices()
    grp = FiniteMatrixGroup.close([h1, h2, s.deck_matrix], cap=100)
    assert len(grp) == 27


def test_torsion_with_one_loop_gives_81():
    from cubicmonodromy.tracking import gamma_minus, monodromy_matrix
    h1, h2 = _torsion_matrices()
    g1 = monodromy_matrix(gamma_minus())
    grp = FiniteMatrixGroup.close([h1, h2, g1], cap=1000)
    # one order-3 loop extends the 27 torsion elements to a 3-Sylow only;
    # the second loop is genuinely needed for the full order-648 image
    assert len(grp) == 81
