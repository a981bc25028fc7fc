"""The 27 lines: labels, incidence, divisor classes, deck symmetry."""

import numpy as np
import pytest

import cubicmonodromy.lines as lines_module
from cubicmonodromy.curves import family_lambda, hesse_form
from cubicmonodromy.errors import AmbiguousIncidence, NotAFlex
from cubicmonodromy.lines import (CANONICAL_CLASS, J_FORM, Line3, base_surface,
                                  build_surface_data, concurrent_triples,
                                  deck_permutation, incidence_graph,
                                  is_strongly_regular_27, pairing,
                                  perm_compose, perm_inverse,
                                  perm_to_lattice_map, preserves_incidence,
                                  surface_residual)
from cubicmonodromy.numeric import TOL_INC
from cubicmonodromy.weyl import is_lattice_map, weyl_group


def test_base_surface_shape():
    s = base_surface()
    assert len(s.lines) == 27
    assert s.adjacency.shape == (27, 27)
    assert len(s.flexes) == 9
    for i, ln in enumerate(s.lines):
        assert i == 3 * ln.flex + ln.n


def test_lines_lie_on_surface():
    s = base_surface()
    for ln in s.lines:
        assert surface_residual(s.form, ln) < 1e-8


def test_incidence_strongly_regular():
    s = base_surface()
    assert is_strongly_regular_27(s.adjacency)
    assert s.adjacency.sum(axis=1).tolist() == [10] * 27


def test_concurrent_triples_follow_flexes():
    s = base_surface()
    triples = concurrent_triples(s.lines, s.adjacency)
    assert len(triples) == 9
    for t in triples:
        flexes = {s.lines[i].flex for i in t}
        assert len(flexes) == 1


def test_sixer_pairwise_disjoint():
    s = base_surface()
    assert len(s.sixer) == 6
    for i, a in enumerate(s.sixer):
        for b in s.sixer[i + 1:]:
            assert not s.adjacency[a, b]


def test_classes_reproduce_incidence():
    s = base_surface()
    for i in range(27):
        assert pairing(s.classes[i], s.classes[i]) == -1
        assert pairing(s.classes[i], CANONICAL_CLASS) == -1
        for j in range(i + 1, 27):
            meets = pairing(s.classes[i], s.classes[j]) == 1
            assert meets == bool(s.adjacency[i, j])


def test_deck_permutation_cycles_sheets():
    s = base_surface()
    p = deck_permutation(s.lines)
    for i, ln in enumerate(s.lines):
        img = s.lines[p[i]]
        assert img.flex == ln.flex and img.n == (ln.n + 1) % 3
    assert preserves_incidence(p, s.adjacency)
    ident = perm_compose(p, perm_compose(p, p))
    assert ident.tolist() == list(range(27))


def test_deck_matrix_is_lattice_map():
    s = base_surface()
    m = s.deck_matrix
    assert is_lattice_map(m)
    assert m in weyl_group()
    assert np.array_equal(m @ m @ m, np.eye(7, dtype=np.int64))


def test_perm_to_lattice_map_functorial():
    s = base_surface()
    p = deck_permutation(s.lines)
    mp = perm_to_lattice_map(p, s.classes, s.sixer)
    mq = perm_to_lattice_map(perm_compose(p, p), s.classes, s.sixer)
    assert np.array_equal(mq, mp @ mp)
    assert np.array_equal(
        perm_to_lattice_map(perm_inverse(p), s.classes, s.sixer),
        np.linalg.inv(mp).round().astype(np.int64))


def test_perm_helpers_roundtrip():
    rng = np.random.default_rng(7)
    for _ in range(20):
        p = rng.permutation(27)
        q = rng.permutation(27)
        assert perm_compose(p, perm_inverse(p)).tolist() == list(range(27))
        # composition convention: (p . q)[i] = p[q[i]]
        i = int(rng.integers(27))
        assert perm_compose(p, q)[i] == p[q[i]]


@pytest.mark.parametrize("lam", (0.5, 0.3 + 0.1j))
def test_other_family_members(lam):
    s = build_surface_data(family_lambda(lam))
    assert len(s.lines) == 27
    assert is_strongly_regular_27(s.adjacency)
    assert len(concurrent_triples(s.lines, s.adjacency)) == 9


def _hidden_pencil():
    m = np.array([[1.0, 0.4, -0.2], [0.1, 1.0, 0.3], [-0.3, 0.2, 1.0]],
                 dtype=complex)
    return family_lambda(0.0).compose(m)


def test_generic_cubic_through_tangent_reduction():
    # a coordinate change hides the pencil form, forcing the generic path
    s = build_surface_data(_hidden_pencil())
    assert len(s.lines) == 27
    assert is_strongly_regular_27(s.adjacency)


def test_line3_rejects_dependent_covectors():
    h = np.array([1.0, 0.0, 0.0, 1.0], dtype=complex)
    with pytest.raises(ValueError):
        Line3(h, 2.0 * h, 0, 0)


def test_incidence_graph_matches_stored():
    s = base_surface()
    assert np.array_equal(incidence_graph(s.lines), s.adjacency)


@pytest.mark.parametrize("make", [lambda: family_lambda(0.0),
                                  lambda: hesse_form(2.2), _hidden_pencil])
def test_stacked_incidence_matches_pairwise_determinants(make):
    s = build_surface_data(make())
    for i, a in enumerate(s.lines):
        for j, b in enumerate(s.lines[i + 1:], start=i + 1):
            det = np.linalg.det(np.vstack([a.h1, a.h2, b.h1, b.h2]))
            assert s.adjacency[i, j] == (abs(det) < TOL_INC)


def _pair_with_determinant(d: float) -> list[Line3]:
    # det of the unit covectors e0, e1, e2, (e0 + d e3) / |.| is d / sqrt(1 + d^2)
    e = np.eye(4, dtype=complex)
    return [Line3(e[0], e[1], 0, 0), Line3(e[2], e[0] + d * e[3], 1, 0)]


@pytest.mark.parametrize("scale, meets", [(0.5, True), (0.99, True),
                                          (101.0, False), (1e4, False)])
def test_incidence_outside_the_dead_band(scale, meets):
    adj = incidence_graph(_pair_with_determinant(scale * TOL_INC))
    assert adj.tolist() == [[False, meets], [meets, False]]


@pytest.mark.parametrize("scale", [1.01, 10.0, 99.0])
def test_incidence_in_the_dead_band_is_refused(scale):
    with pytest.raises(AmbiguousIncidence, match="dead band"):
        incidence_graph(_pair_with_determinant(scale * TOL_INC))
    # one ambiguous pair refuses the whole graph
    with pytest.raises(AmbiguousIncidence, match="lines 27 and 28"):
        incidence_graph(base_surface().lines
                        + _pair_with_determinant(scale * TOL_INC))


def test_surface_builds_flexes_and_lines_once(monkeypatch):
    flex_calls, made = [], []
    flexes, post_init = lines_module.inflection_points, Line3.__post_init__
    monkeypatch.setattr(lines_module, "inflection_points",
                        lambda *a: flex_calls.append(a) or flexes(*a))
    monkeypatch.setattr(Line3, "__post_init__",
                        lambda self: made.append(self) or post_init(self))
    s = build_surface_data(family_lambda(0.3))
    assert len(flex_calls) == 1
    assert len(made) == 27
    assert [id(line) for line in made] == [id(line) for line in s.lines]


def test_j_form_signature():
    assert J_FORM.tolist() == np.diag([1, -1, -1, -1, -1, -1, -1]).tolist()
    assert CANONICAL_CLASS.tolist() == [-3, 1, 1, 1, 1, 1, 1]
    assert pairing(CANONICAL_CLASS, CANONICAL_CLASS) == 3
