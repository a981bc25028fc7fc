"""The 27 lines: labels, incidence, divisor classes, deck symmetry."""

import cmath
import math

import numpy as np
import pytest

import cubicmonodromy.curves as curves_module
import cubicmonodromy.lines as lines_module
from cubicmonodromy.curves import (MONOMIALS, CubicForm, family_lambda,
                                   hesse_form, inflection_points,
                                   phase_normalize, tangent_frames)
from cubicmonodromy.errors import BadIncidencePattern, NoUniqueMatch, NotAFlex
from cubicmonodromy.lines import (CANONICAL_CLASS, J_FORM, all_lines,
                                  base_surface, build_surface_data,
                                  classify_lines, concurrent_triples,
                                  deck_permutation, find_sixer, incidence_graph,
                                  is_strongly_regular_27, line_label, pairing,
                                  perm_compose, perm_to_lattice_map,
                                  preserves_incidence, surface_residual)
from cubicmonodromy.numeric import OMEGA
from cubicmonodromy.weyl import is_lattice_map, weyl_group


def test_base_surface_shape():
    s = base_surface()
    assert s.lines.shape == (27, 2, 4)
    assert s.adjacency.shape == (27, 27)
    assert s.flexes.shape == (9, 3)
    for i in range(27):
        flex, sheet = line_label(i)
        assert i == 3 * flex + sheet and 0 <= flex < 9 and 0 <= sheet < 3


def test_surface_arrays_are_read_only():
    # base_surface() is cached: one caller's write would reach every other
    s = base_surface()
    for name in ("flexes", "lines", "adjacency", "classes", "deck_matrix"):
        arr = getattr(s, name)
        with pytest.raises(ValueError, match="read-only"):
            arr[(0,) * arr.ndim] = arr[(1,) * arr.ndim]


def test_deck_matrix_is_built_once_per_surface(monkeypatch):
    built = []
    make = lines_module.perm_to_lattice_map
    monkeypatch.setattr(lines_module, "perm_to_lattice_map",
                        lambda *a: built.append(a) or make(*a))
    s = build_surface_data(family_lambda(0.3))
    m = s.deck_matrix
    assert s.deck_matrix is m
    assert len(built) == 1
    other = build_surface_data(family_lambda(0.3)).deck_matrix
    assert len(built) == 2 and np.array_equal(other, m)


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


def test_build_surface_data_refuses_a_graph_off_the_pattern(monkeypatch):
    flipped = base_surface().adjacency.copy()
    flipped[0, 1] = flipped[1, 0] = not flipped[0, 1]
    monkeypatch.setattr(lines_module, "incidence_graph", lambda lines: flipped)
    with pytest.raises(BadIncidencePattern,
                       match=r"not the \(27, 10, 1, 5\) graph: 134 meeting pairs"):
        build_surface_data(family_lambda(0.0))


@pytest.mark.parametrize("f", [
    *(family_lambda(lam) for lam in (50.0, 200.0, 2000.0, -2000.0, 1e5, 1e5j,
                                     8.5e5, 1e6, 1.2e6, 1.5e6, 1.7e6, 1.9e6,
                                     -1.5e6, 1.5e6j, 1e6 + 1e6j, -1.9e6, 1.9e6j,
                                     1.0001, 1.00001, 1 - 1e-6)),
    hesse_form(1e3), hesse_form(1e5)],
    ids=["50", "200", "2000", "-2000", "1e5", "1e5j", "8.5e5", "1e6", "1.2e6",
         "1.5e6", "1.7e6", "1.9e6", "-1.5e6", "1.5e6j", "1e6+1e6j", "-1.9e6",
         "1.9e6j", "1.0001", "1.00001", "1-1e-6", "hesse-1e3", "hesse-1e5"])
def test_large_members_get_the_strongly_regular_graph(f):
    # far from the nodes the lines' covectors are lopsided, but the cube-root
    # ratios still read the 135 meeting pairs; the sixer and the classes are
    # built on them.  The near-node members are the other end of the range:
    # their lines pass the surface check with tol 1e-8, which 1.0000011
    # (test_cli) no longer does
    s = build_surface_data(f)
    assert is_strongly_regular_27(s.adjacency)
    assert int(s.adjacency.sum()) // 2 == 135
    assert is_lattice_map(s.deck_matrix)


@pytest.mark.parametrize("c", [2.0, -1.0, 1j, 1e-3], ids=["2", "-1", "1j", "1e-3"])
@pytest.mark.parametrize("make", [lambda: family_lambda(0.3), lambda: family_lambda(1e5),
                                  lambda: hesse_form(2.2)],
                         ids=["pencil-0.3", "pencil-1e5", "hesse-2.2"])
def test_scalar_multiples_of_the_closed_form_members(make, c):
    # c f is recognized as f's member; its forms are f's times c^(1/3)
    s = build_surface_data(CubicForm(c * make().coeffs))
    assert is_strongly_regular_27(s.adjacency)
    d = s.deck_matrix
    assert is_lattice_map(d)
    assert np.array_equal(d @ d @ d, np.eye(7, dtype=np.int64))


def test_concurrent_triples_follow_flexes():
    s = base_surface()
    triples = concurrent_triples(s.lines, s.adjacency)
    assert len(triples) == 9
    for flex, t in enumerate(triples):
        assert [line_label(i) for i in t] == [(flex, 0), (flex, 1), (flex, 2)]
    broken = s.adjacency.copy()
    broken[12, 14] = broken[14, 12] = False
    with pytest.raises(BadIncidencePattern, match="flex 4 is not concurrent"):
        concurrent_triples(s.lines, broken)


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
    for i in range(27):
        flex, sheet = line_label(i)
        assert line_label(int(p[i])) == (flex, (sheet + 1) % 3)
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
        perm_to_lattice_map(np.argsort(p), s.classes, s.sixer),
        np.linalg.inv(mp).round().astype(np.int64))


def test_classify_lines_names_the_first_line_off_the_pattern():
    s = base_surface()
    adj = s.adjacency.copy()
    # a non-member meeting 2 sixer members now meets 3, a later one 4
    first, later = [k for k in range(27) if k not in s.sixer
                    and adj[k, list(s.sixer)].sum() == 2][:2]
    for line, extra in ((first, 1), (later, 2)):
        free = [m for m in s.sixer if not adj[line, m]][:extra]
        adj[line, free] = adj[free, line] = True
    with pytest.raises(BadIncidencePattern,
                       match=f"line {first} meets 3 sixer members"):
        classify_lines(adj, s.sixer)


def test_perm_helpers_roundtrip():
    rng = np.random.default_rng(7)
    for _ in range(20):
        p = rng.permutation(27)
        q = rng.permutation(27)
        # argsort inverts a permutation
        assert perm_compose(p, np.argsort(p)).tolist() == list(range(27))
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


def test_gaussian_cubics_get_their_frames_and_the_27_lines():
    # every flex's frame: q is a unit point of the tangent line t orthogonal
    # to the flex u, and f = l^3 at the sample points of the line that
    # all_lines checks
    rng = np.random.default_rng(11)
    for _ in range(200):
        f = CubicForm(rng.normal(size=10) + 1j * rng.normal(size=10))
        s = build_surface_data(f)
        assert is_strongly_regular_27(s.adjacency)
        d = s.deck_matrix
        assert is_lattice_map(d)
        assert np.array_equal(d @ d @ d, np.eye(7, dtype=np.int64))
        flexes, forms = inflection_points(f)
        units = flexes / np.linalg.norm(flexes, axis=-1, keepdims=True)
        t, q = tangent_frames(f, flexes)
        assert np.max(np.abs(np.linalg.norm(q, axis=-1) - 1.0)) <= 1e-14
        assert np.max(np.abs(np.sum(t * q, axis=-1))) <= 1e-14
        assert np.max(np.abs(np.sum(q.conj() * units, axis=-1))) <= 1e-14
        p = (q[:, None] * lines_module._RESIDUAL_A
             + np.cross(t, q.conj())[:, None] * lines_module._RESIDUAL_B)
        cubes = np.einsum("ni,nsi->ns", forms, p) ** 3
        assert np.max(np.abs(f(p) - cubes)) <= 1e-13 * f.scale()


def _reference_triple(f, tol, u, grad):
    # the per-flex tangent-cube builder the stacked one replaced: two SVDs,
    # a loop over two candidates and two single-point evaluations of f
    tn = np.linalg.norm(grad)
    if tn < tol * f.scale():
        raise NotAFlex("gradient vanishes; not a smooth point")
    t = grad / tn
    _, _, vh = np.linalg.svd(u[None, :])
    m = max([vh[1].conj(), vh[2].conj()],
            key=lambda c: np.linalg.norm(c - (t.conj() @ c) * t))
    m = m - (t.conj() @ m) * t
    m = m / np.linalg.norm(m)
    _, _, vh = np.linalg.svd(t[None, :])
    for cand in (vh[1].conj(), vh[2].conj()):
        d = cand - (u.conj() @ cand) * u
        if np.linalg.norm(d) > 1e-6:
            q = d / np.linalg.norm(d)
            break
    else:
        raise NotAFlex("no independent direction on the tangent line")
    mq = m @ q
    if abs(mq) < 1e-10:
        raise NotAFlex("degenerate chart on the tangent line")
    c = f(q) / mq ** 3
    if abs(c) < tol * f.scale():
        raise NotAFlex("form vanishes on the whole tangent line")
    mid = u + 0.37 * q
    mid = mid / np.linalg.norm(mid)
    if abs(f(mid) - c * (m @ mid) ** 3) > tol * f.scale():
        raise NotAFlex("tangent line meets the curve off the triple point")
    pairs = np.zeros((3, 2, 4), dtype=complex)
    pairs[:, 0, :3] = -lines_module._SHEETS[:, None] * c ** (1.0 / 3.0) * m
    pairs[:, 0, 3] = 1.0
    pairs[:, 1, :3] = t
    return pairs


def _weierstrass(a, b):
    # y^2 z - x^3 - a x z^2 - b z^3
    c = np.zeros(10, dtype=complex)
    for mono, v in (((0, 2, 1), 1.0), ((3, 0, 0), -1.0), ((1, 0, 2), -a),
                    ((0, 0, 3), -b)):
        c[MONOMIALS.index(mono)] = v
    return CubicForm(c)


def _generic_cubics():
    rng = np.random.default_rng(18)
    gaussian = [CubicForm(rng.normal(size=10) + 1j * rng.normal(size=10))
                for _ in range(8)]
    hidden = [family_lambda(lam).compose(
        np.eye(3) + 0.25 * (rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))))
        for lam in (0.0, 0.3 + 0.1j, -2.0)]
    weierstrass = [_weierstrass(a, b) for a, b in ((1.0, 1.0), (-2.0, 0.5),
                                                   (0.3 + 0.1j, 1.7))]
    return [*gaussian, _hidden_pencil(), *hidden, *weierstrass]


@pytest.mark.parametrize("f", _generic_cubics())
def test_stacked_tangent_cubes_match_the_per_flex_builder(f):
    def stacked(rows):
        return all_lines(f, rows, curves_module._tangent_cube_roots(f, 1e-8, rows))

    def per_flex(rows):
        units = rows / np.linalg.norm(rows, axis=-1, keepdims=True)
        return np.stack([_reference_triple(f, 1e-8, u, g)
                         for u, g in zip(units, f.gradient(units))])

    flexes, forms = inflection_points(f)
    # each flex row moved off its flex in turn: both builders refuse it
    rng = np.random.default_rng(3)
    for moved in range(9):
        rows = flexes.copy()
        rows[moved] += 1e-3 * (rng.normal(size=3) + 1j * rng.normal(size=3))
        with pytest.raises(NotAFlex):
            per_flex(rows)
        with pytest.raises(NotAFlex, match=f"flex {moved}: "):
            stacked(rows)
    # the two builders pick their forms m independently, so each flex's l
    # is the reference's times a cube root of unity omega^j, which moves the
    # reference's sheet n + j to sheet n
    want, sheets = per_flex(flexes), lines_module._SHEETS
    ref = -want[:, 0, 0, :3]
    assert np.array_equal(curves_module._tangent_cube_roots(f, 1e-8, flexes), forms)
    j = np.argmin(np.abs(forms[:, None] - sheets[:, None] * ref[:, None]).max(axis=-1),
                  axis=-1)
    assert np.max(np.abs(forms - sheets[j, None] * ref)) <= 1e-12
    want = phase_normalize(want[np.arange(9)[:, None], (np.arange(3) + j[:, None]) % 3]
                           .reshape(27, 2, 4))
    got = stacked(flexes)
    assert got.shape == (27, 2, 4)
    assert np.max(np.abs(got - want)) <= 1e-12
    adj, want_adj = incidence_graph(got), incidence_graph(want)
    assert np.array_equal(adj, want_adj)
    assert is_strongly_regular_27(adj)
    sixer = find_sixer(adj)
    assert sixer == find_sixer(want_adj)
    assert np.array_equal(classify_lines(adj, sixer), classify_lines(want_adj, sixer))


def test_line3_rejects_dependent_covectors():
    h = np.array([1.0, 0.0, 0.0, 1.0], dtype=complex)
    f = family_lambda(0.0)
    with pytest.raises(ValueError, match="dependent"):
        surface_residual(f, np.array([h, 2.0 * h]))
    with pytest.raises(ValueError, match="zero covector"):
        surface_residual(f, np.array([h, 0.0 * h]))


def test_line3_normalizes_its_covectors():
    h1, h2 = phase_normalize(np.array([[0.0, 2j, 1.0, 0.0], [3.0, 0.0, 0.0, -4.0]]))
    assert np.allclose(h1, [0.0, 2.0 / 5 ** 0.5, -1j / 5 ** 0.5, 0.0],
                       rtol=0.0, atol=1e-15)
    assert np.allclose(h2, [0.6, 0.0, 0.0, -0.8], rtol=0.0, atol=1e-15)


def _reference_residual(f, pair, count=5):
    # the per-line check the batch replaced: an SVD of the line's own pair,
    # then a scalar monomial sum at each of its sample points
    _, _, vh = np.linalg.svd(pair)
    b1, b2 = vh[2].conj(), vh[3].conj()
    worst = 0.0
    for k, t in enumerate(np.linspace(0.0, 1.0, count)):
        p = b1 * math.cos(1.0 + t) + b2 * math.sin(1.0 + t) * cmath.exp(0.7j * k)
        x, y, z, w = p / np.linalg.norm(p)
        fval = sum(c * x ** i * y ** j * z ** e
                   for (i, j, e), c in zip(MONOMIALS, f.coeffs) if c != 0)
        worst = max(worst, abs(w ** 3 - fval))
    return worst


@pytest.mark.parametrize("make", [lambda: family_lambda(0.3),
                                  lambda: hesse_form(2.2), _hidden_pencil])
def test_batched_residuals_match_the_per_line_check(make):
    s = build_surface_data(make())
    # on the surface the residuals are rounding noise; 1e-3 off it they are
    # not, which tests the sampling itself.  Evaluating f rounds in another
    # order, so the bound scales with its largest coefficient (6.6 for Hesse)
    rng = np.random.default_rng(5)
    off = s.lines + 1e-3 * (rng.normal(size=(27, 2, 4))
                            + 1j * rng.normal(size=(27, 2, 4)))
    bound = 1e-15 * s.form.scale()
    for lines in (s.lines, phase_normalize(off)):
        # the kernel bases that surface_residual takes, for the whole stack
        kernel = np.linalg.svd(phase_normalize(lines))[2][:, 2:].conj()
        got = lines_module._residuals(s.form, kernel[:, 0], kernel[:, 1])
        want = np.array([_reference_residual(s.form, line) for line in lines])
        assert np.max(np.abs(got - want)) <= bound
        single = [surface_residual(s.form, line) for line in lines]
        assert np.max(np.abs(single - want)) <= bound


def test_batched_check_names_the_first_line_off_the_surface():
    s = build_surface_data(family_lambda(0.3))
    forms = inflection_points(s.form)[1].copy()
    forms[4] *= 1.001
    with pytest.raises(NotAFlex) as err:
        all_lines(s.form, s.flexes, forms)
    point = np.array2string(s.flexes[4], max_line_width=np.inf)
    assert str(err.value).startswith("flex 4: line residual ")
    assert str(err.value).endswith(f" over point {point}")


@pytest.mark.parametrize("make, row", [
    (lambda: family_lambda(0.3), [0.2, 0.5, 1.0]),
    (lambda: family_lambda(0.3), [1.0, 0.5, 0.0]),
    (lambda: hesse_form(2.2), [0.2, 0.5, 1.0]),
    (_hidden_pencil, [0.2, 0.5, 1.0])],
    ids=["pencil-off-scheme", "pencil-at-infinity", "hesse", "generic"])
def test_closed_forms_refuse_a_point_that_is_no_flex(make, row):
    # a row moved off its flex, fed with the form l of the flex it was
    f = make()
    flexes, forms = inflection_points(f)
    flexes = flexes.copy()
    flexes[4] = row
    with pytest.raises(NotAFlex, match="flex 4: line residual .* over point"):
        all_lines(f, flexes, forms)


def test_tangent_cubes_name_the_first_flex_that_fails():
    f = _hidden_pencil()
    flexes = inflection_points(f)[0].copy()
    flexes[[6, 2]] = [[0.2, 0.5, 1.0], [0.3, -0.1, 1.0]]
    with pytest.raises(NotAFlex, match="flex 2: "):
        all_lines(f, flexes, curves_module._tangent_cube_roots(f, 1e-8, flexes))


def _degenerate_pair(factor):
    pair = base_surface().lines[20].copy()
    pair[1] = factor * pair[0]
    return surface_residual(base_surface().form, pair)


def _at_the_node():
    # y^2 z - x^3 - x^2 z is nodal at [0 : 0 : 1], where its gradient is
    # exactly 0; row 0, [0 : 1 : 0], is a smooth point
    c = np.zeros(10, dtype=complex)
    c[[MONOMIALS.index(m) for m in ((0, 2, 1), (3, 0, 0), (2, 0, 1))]] = 1.0, -1.0, -1.0
    return all_lines(CubicForm(c), np.array([[0.0, 1.0, 0.0], [0.0, 0.0, 1.0]]),
                     np.zeros((2, 3)))


def _at_a_coordinate_point():
    # on the Hesse form the gradient at [1 : 0 : 0], off the curve, is
    # (3, 0, 0): the tangent line there holds no point orthogonal to the row
    f = hesse_form(2.2)
    flexes, forms = inflection_points(f)
    return all_lines(f, np.vstack([flexes[:4], [1.0, 0.0, 0.0], flexes[5:]]), forms)


@pytest.mark.parametrize("build, error, message", [
    (lambda: _degenerate_pair(2.0 - 1j), ValueError, "dependent"),
    (lambda: _degenerate_pair(0.0), ValueError, "zero covector"),
    (_at_the_node, NotAFlex, "flex 1: gradient vanishes; not a smooth point"),
    (_at_a_coordinate_point, NotAFlex, "flex 4: not on the curve")],
    ids=["(2-1j)-dependent", "0.0-zero covector", "singular-point", "coordinate-point"])
def test_batched_check_refuses_a_degenerate_pair(build, error, message):
    with pytest.raises(error, match=message):
        build()


def test_incidence_graph_matches_stored():
    s = base_surface()
    assert np.array_equal(incidence_graph(s.lines), s.adjacency)


def _gaussian_cubic(seed):
    rng = np.random.default_rng(seed)
    return CubicForm(rng.normal(size=10) + 1j * rng.normal(size=10))


@pytest.mark.parametrize("make", [
    lambda: family_lambda(0.0), lambda: hesse_form(2.2), _hidden_pencil,
    *(pytest.param(lambda seed=seed: _gaussian_cubic(seed), id=f"gaussian-{seed}")
      for seed in (0, 1, 2))])
def test_stacked_incidence_matches_pairwise_determinants(make):
    # the reference rule: two lines meet when the 4 x 4 determinant of their
    # unit covectors vanishes
    s = build_surface_data(make())
    for i, a in enumerate(s.lines):
        for j, b in enumerate(s.lines[i + 1:], start=i + 1):
            det = np.linalg.det(np.vstack([a, b]))
            assert s.adjacency[i, j] == (abs(det) < 1e-8)


# omega l_4 moves each line over flex 4 to the next sheet: line 12 is the
# old line 13, 13 the old 14 and 14 the old 12
_FLEX_4_NEXT_SHEET = np.r_[0:12, 13, 14, 12, 15:27]


def test_incidence_reads_the_cube_root_ratios():
    # omega times all three sheets of one fiber is a consistent relabelling
    s = base_surface()
    lines = s.lines.copy()
    lines[12:15, 0, :3] *= OMEGA
    perm = _FLEX_4_NEXT_SHEET
    assert np.array_equal(incidence_graph(lines), s.adjacency[np.ix_(perm, perm)])


def _flex_4_turned(scale: float) -> np.ndarray:
    """base_surface().lines with the sheet-0 form l_4 turned by e^{i phi},
    which turns every ratio through flex 4 off its cube root: from 1 to
    omega, q = |r - 1| / |r - omega| runs from 0 to infinity.  A ratio is
    read when q < 1/2 or q > 2 (nearest_match's factor-2 margin) and
    refused in the band between; scale places q on it by
    log2 q = log10 scale - 1, so the band is 1 <= scale <= 100 and 10 is
    its middle, r halfway between two cube roots."""
    q = 2.0 ** (math.log10(scale) - 1)
    # q = sin(phi / 2) / sin(pi / 3 - phi / 2), solved for phi / 2
    phi = 2 * math.atan(q * math.sqrt(3) / (2 + q))
    lines = base_surface().lines.copy()
    lines[12, 0, :3] *= cmath.exp(1j * phi)
    return lines


@pytest.mark.parametrize("scale, meets", [(0.5, True), (0.99, True),
                                          (101.0, False), (1e4, False)])
def test_incidence_outside_the_dead_band(scale, meets):
    # below the band every ratio keeps its cube root; above it l_4 reads as
    # omega l_4, and line 12 meets the line over flex 0 that line 14 met
    ref = base_surface().adjacency
    perm = np.arange(27) if meets else _FLEX_4_NEXT_SHEET
    adj = incidence_graph(_flex_4_turned(scale))
    assert np.array_equal(adj, ref[np.ix_(perm, perm)])
    i = int(np.flatnonzero(ref[12, :3])[0])
    assert adj[12, i] == meets


@pytest.mark.parametrize("scale", [1.01, 10.0, 99.0])
def test_incidence_in_the_dead_band_is_refused(scale):
    # one undecided flex refuses the whole graph
    with pytest.raises(NoUniqueMatch, match="runner-up"):
        incidence_graph(_flex_4_turned(scale))


def test_surface_builds_flexes_and_lines_once(monkeypatch):
    flex_calls, normalized = [], []
    flexes, normalize = lines_module.inflection_points, lines_module.phase_normalize
    monkeypatch.setattr(lines_module, "inflection_points",
                        lambda *a: flex_calls.append(a) or flexes(*a))
    monkeypatch.setattr(lines_module, "phase_normalize",
                        lambda v: normalized.append(normalize(v)) or normalized[-1])
    s = build_surface_data(family_lambda(0.3))
    assert len(flex_calls) == 1
    # one normalization, on the whole stack, which is the surface's lines as
    # they are
    assert [h.shape for h in normalized] == [(27, 2, 4)]
    assert s.lines is normalized[0]
    assert s.flexes.shape == (9, 3)


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
    # the lines follow from inflection_points' flexes and forms alone
    alone = all_lines(f, *inflection_points(f))
    assert np.array_equal(alone, s.lines)


def test_j_form_signature():
    assert J_FORM.tolist() == np.diag([1, -1, -1, -1, -1, -1, -1]).tolist()
    assert CANONICAL_CLASS.tolist() == [-3, 1, 1, 1, 1, 1, 1]
    assert pairing(CANONICAL_CLASS, CANONICAL_CLASS) == 3
