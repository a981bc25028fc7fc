"""The 27 lines: labels, incidence, divisor classes, deck symmetry."""

import cmath
import math

import numpy as np
import pytest

import cubicmonodromy.curves as curves_module
import cubicmonodromy.lines as lines_module
from cubicmonodromy.curves import (MONOMIALS, family_lambda, hesse_form,
                                   inflection_points)
from cubicmonodromy.errors import AmbiguousIncidence, NotAFlex
from cubicmonodromy.lines import (CANONICAL_CLASS, J_FORM, Line3, all_lines,
                                  base_surface, build_surface_data,
                                  concurrent_triples,
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


def _two_switch(adj):
    # swap edges (a, b), (c, d) for the absent (a, c), (b, d): degrees stay
    n = adj.shape[0]
    for a, b in zip(*np.nonzero(np.triu(adj))):
        for c in range(n):
            for d in np.flatnonzero(adj[c]):
                if (len({a, b, c, d}) == 4 and not adj[a, c]
                        and not adj[b, d]):
                    out = adj.copy()
                    out[a, b] = out[b, a] = out[c, d] = out[d, c] = False
                    out[a, c] = out[c, a] = out[b, d] = out[d, b] = True
                    return out
    raise AssertionError("no 2-switch found")


def test_strongly_regular_check_rejects_near_misses():
    adj = base_surface().adjacency
    flipped = adj.copy()
    flipped[0, 1] = flipped[1, 0] = not adj[0, 1]
    switched = _two_switch(adj)
    assert switched.sum(axis=1).tolist() == [10] * 27
    lopsided = adj.copy()
    lopsided[0, 1] = not adj[0, 1]
    for bad in (flipped, switched, lopsided, adj.astype(int)):
        assert not is_strongly_regular_27(bad)


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
    with pytest.raises(ValueError, match="dependent"):
        Line3(h, 2.0 * h, 0, 0)
    with pytest.raises(ValueError, match="zero covector"):
        Line3(h, 0.0 * h, 0, 0)


def test_line3_normalizes_its_covectors():
    line = Line3(np.array([0.0, 2j, 1.0, 0.0]), np.array([3.0, 0.0, 0.0, -4.0]), 0, 0)
    assert np.allclose(line.h1, [0.0, 2.0 / 5 ** 0.5, -1j / 5 ** 0.5, 0.0],
                       rtol=0.0, atol=1e-15)
    assert np.allclose(line.h2, [0.6, 0.0, 0.0, -0.8], rtol=0.0, atol=1e-15)


def _reference_residual(f, line, count=5):
    # the per-line check the batch replaced: an SVD of the line's own pair,
    # then a scalar monomial sum at each of its sample points
    _, _, vh = np.linalg.svd(np.vstack([line.h1, line.h2]))
    b1, b2 = vh[2].conj(), vh[3].conj()
    worst = 0.0
    for k, t in enumerate(np.linspace(0.0, 1.0, count)):
        p = b1 * math.cos(1.0 + t) + b2 * math.sin(1.0 + t) * cmath.exp(0.7j * k)
        x, y, z, w = p / np.linalg.norm(p)
        fval = sum(c * x ** i * y ** j * z ** e
                   for (i, j, e), c in zip(MONOMIALS, f.coeffs) if c != 0)
        worst = max(worst, abs(w ** 3 - fval))
    return worst


def _pairs(lines):
    return np.array([(line.h1, line.h2) for line in lines])


@pytest.mark.parametrize("make", [lambda: family_lambda(0.3),
                                  lambda: hesse_form(2.2), _hidden_pencil])
def test_batched_residuals_match_the_per_line_check(make):
    s = build_surface_data(make())
    # on the surface the residuals are rounding noise; 1e-3 off it they are
    # not, which tests the sampling itself.  Evaluating f rounds in another
    # order, so the bound scales with its largest coefficient (6.6 for Hesse)
    rng = np.random.default_rng(5)
    off = _pairs(s.lines) + 1e-3 * (rng.normal(size=(27, 2, 4))
                                    + 1j * rng.normal(size=(27, 2, 4)))
    bound = 1e-15 * s.form.scale()
    for lines in (s.lines, [Line3(h1, h2, 0, 0) for h1, h2 in off]):
        _, kernel = lines_module._checked_spans(_pairs(lines))
        got = lines_module._residuals(s.form, kernel)
        want = np.array([_reference_residual(s.form, line) for line in lines])
        assert np.max(np.abs(got - want)) <= bound
        single = [surface_residual(s.form, line) for line in lines]
        assert np.max(np.abs(single - want)) <= bound


def test_batched_check_names_the_first_line_off_the_surface():
    s = build_surface_data(family_lambda(0.3))
    pairs = _pairs(s.lines)
    pairs[13, 0] += 1e-3
    with pytest.raises(NotAFlex) as err:
        lines_module._surface_lines(s.form, pairs, s.flexes, 1e-8)
    assert str(s.flexes[4].coords) in str(err.value)


@pytest.mark.parametrize("factor, message", [(2.0 - 1j, "dependent"),
                                             (0.0, "zero covector")])
def test_batched_check_refuses_a_degenerate_pair(factor, message):
    s = build_surface_data(family_lambda(0.3))
    pairs = _pairs(s.lines)
    pairs[20, 1] = factor * pairs[20, 0]
    with pytest.raises(ValueError, match=message):
        lines_module._surface_lines(s.form, pairs, s.flexes, 1e-8)


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
    flex_calls, checked = [], []
    flexes, check = lines_module.inflection_points, lines_module._checked_spans
    monkeypatch.setattr(lines_module, "inflection_points",
                        lambda *a: flex_calls.append(a) or flexes(*a))
    monkeypatch.setattr(lines_module, "_checked_spans",
                        lambda pairs: checked.append(check(pairs)) or checked[-1])
    s = build_surface_data(family_lambda(0.3))
    assert len(flex_calls) == 1
    # one normalization and rank check, on the whole stack; no Line3 is
    # built one by one
    assert [h.shape for h, _ in checked] == [(27, 2, 4)]
    assert all(type(line) is Line3 for line in s.lines)
    assert [(line.flex, line.n) for line in s.lines] == [divmod(k, 3) for k in range(27)]
    assert np.array_equal(_pairs(s.lines), checked[0][0])


@pytest.mark.parametrize("make, counts", [(lambda: family_lambda(0.3), (1, 0)),
                                          (lambda: hesse_form(2.2), (1, 1)),
                                          (_hidden_pencil, (1, 1))])
def test_surface_recognizes_the_cubic_once(monkeypatch, make, counts):
    f = make()
    calls = {"family_parameter": 0, "hesse_parameter": 0}
    for name in calls:
        fn = getattr(curves_module, name)
        monkeypatch.setattr(curves_module, name,
                            lambda g, _fn=fn, _name=name: calls.__setitem__(
                                _name, calls[_name] + 1) or _fn(g))
    s = build_surface_data(f)
    assert (calls["family_parameter"], calls["hesse_parameter"]) == counts
    monkeypatch.undo()
    # each step still works out the route on its own
    alone = all_lines(f, inflection_points(f))
    assert np.array_equal(_pairs(alone), _pairs(s.lines))


def test_j_form_signature():
    assert J_FORM.tolist() == np.diag([1, -1, -1, -1, -1, -1, -1]).tolist()
    assert CANONICAL_CLASS.tolist() == [-3, 1, 1, 1, 1, 1, 1]
    assert pairing(CANONICAL_CLASS, CANONICAL_CLASS) == 3
