"""Plane cubics: the pencil, the diagonal family, and inflection data."""

import itertools
import math

import numpy as np
import pytest

import cubicmonodromy.curves as curves
import cubicmonodromy.numeric as numeric
from cubicmonodromy.curves import (MONOMIALS, CubicForm, at_base_point, family_lambda,
                                   family_parameter, flex_height_squared,
                                   flex_quartic, hesse_form,
                                   hesse_parameter, hessian_det_form,
                                   inflection_points)
from cubicmonodromy.errors import DegenerateCurve, SingularParameter
from cubicmonodromy.lines import (base_surface, build_surface_data,
                                  is_strongly_regular_27)
from cubicmonodromy.numeric import nearest_match, roots_of

LAMBDAS = (0.0, 0.3, -0.6, 0.3 + 0.1j, -0.7 + 0.2j, 2.5)


def test_family_vanishes_on_its_curve():
    f = family_lambda(0.3)
    # y^2 = (x-1)(x+1)(x-lam) at z=1
    x = 0.8
    y = complex((x * x - 1.0) * (x - 0.3)) ** 0.5
    assert abs(f(np.array([x, y, 1.0], dtype=complex))) < 1e-12
    assert abs(f(np.array([0.0, 1.0, 0.0], dtype=complex))) < 1e-12


def test_family_rejects_discriminant():
    for bad in (1.0, -1.0, 1.0 + 1e-9):
        with pytest.raises(SingularParameter):
            family_lambda(bad)


@pytest.mark.parametrize("lam", [1e12, 1e300, 5e9j])
def test_family_refuses_a_member_out_of_double_range(lam):
    # its y^2 z term is below the relative zero that recognizes a member
    with pytest.raises(DegenerateCurve, match="out of double range"):
        build_surface_data(family_lambda(lam))


def test_the_largest_member_in_range_is_built_and_recognized():
    assert family_parameter(family_lambda(1e9)) == 1e9


@pytest.mark.parametrize("scale", [1.0, 7.703242182250279e-10, 2.0262400099114752e64,
                                   -1.539659308496411e-82, 7e5j])
def test_recognition_never_meets_the_range_refusal(scale):
    # pencil members a rounding step either side of the range edge, scaled:
    # family_parameter recognizes each or returns None, and never raises.
    # Without its second check, f / f[ref] rounds some of these parameters
    # past the edge, 1e9 at phase 2.9 among them
    coeffs = family_lambda(0.0).coeffs.copy()
    at = [MONOMIALS.index((2, 0, 1)), MONOMIALS.index((0, 0, 3))]
    for k, phase in itertools.product(range(-2, 3), (0.7, 1.3, 2.9)):
        lam = 1e9 * (1 + k * 2.0 ** -52) * np.exp(1j * phase)
        coeffs[at] = lam, -lam
        family_parameter(CubicForm(scale * coeffs))


def test_hesse_form_values():
    mu = 1.7 - 0.4j
    f = hesse_form(mu)
    p = np.array([0.3, -1.1, 0.7], dtype=complex)
    want = p[0] ** 3 + p[1] ** 3 + p[2] ** 3 - 3.0 * mu * np.prod(p)
    assert abs(f(p) - want) < 1e-12


def test_parameter_detection_roundtrip():
    assert abs(family_parameter(family_lambda(0.4)) - 0.4) < 1e-9
    assert abs(hesse_parameter(hesse_form(2.2)) - 2.2) < 1e-9
    assert family_parameter(hesse_form(2.2)) is None
    assert hesse_parameter(family_lambda(0.4)) is None


def test_projective_point_normalization():
    p, base = curves._normalized(np.array([[2.0, 4.0, 2.0], [0.0, 5.0, 0.0]]))
    assert abs(p[2] - 1.0) < 1e-15
    assert abs(base[1] - 1.0) < 1e-15
    assert at_base_point(np.array([p, base])).tolist() == [False, True]
    assert curves.chordal_distances(p, p) < 1e-12
    assert curves.chordal_distances(p, base) > 0.1
    for bad in ([0.0, 0.0, 0.0], [1.0, np.nan, 1.0], [np.inf, 0.0, 1.0]):
        with pytest.raises(ValueError, match="invalid homogeneous"):
            curves._normalized(np.array([[1.0, 2.0, 3.0], bad]))


@pytest.mark.parametrize("lam", LAMBDAS)
def test_inflections_are_flexes(lam):
    f = family_lambda(lam)
    pts = inflection_points(f)[0]
    hd = hessian_det_form(f)
    assert pts.shape == (9, 3)
    assert at_base_point(pts).tolist() == [True] + [False] * 8
    for p in pts:
        assert abs(f(p)) < 1e-8
        assert abs(hd(p)) < 1e-7


def test_inflections_deterministic_order():
    a = inflection_points(family_lambda(0.25))[0]
    b = inflection_points(family_lambda(0.25))[0]
    assert curves.chordal_distances(a, b).max() < 1e-12


@pytest.mark.parametrize("lam", (0.0, 0.25, -3.0))
def test_inflection_order_ignores_rounding_noise(monkeypatch, lam):
    # at real lam, conjugate inflections share Re y, which rounding noise
    # in the roots must not order
    want = inflection_points(family_lambda(lam))[0]
    solve = curves.roots_of
    for signs in itertools.product((-1.0, 1.0), repeat=4):
        def noisy(*args, _signs=signs):
            return [z + 1e-15 * s for z, s in zip(solve(*args), _signs)]
        monkeypatch.setattr(curves, "roots_of", noisy)
        got = inflection_points(family_lambda(lam))[0]
        assert np.abs(got - want).max() < 1e-12


def test_distance_has_no_cancellation_floor():
    # sqrt(1 - |<u, v>|^2) left up to 2e-8 for a point and itself
    pts = inflection_points(family_lambda(0.25))[0]
    dist = curves.chordal_distances(pts[:, None], pts[None])
    units = pts / np.linalg.norm(pts, axis=-1, keepdims=True)
    for i, p in enumerate(units):
        assert dist[i, i] < 1e-15
        for j in range(i + 1, 9):
            overlap = min(1.0, abs(np.vdot(p, units[j])))
            assert abs(dist[i, j] - math.sqrt(1.0 - overlap ** 2)) < 1e-12


# Gaussian coefficients; in the route's chart its flexes reach |x| = 6.5,
# and the eigenproblem's starts are within 2e-13 chordal of them before the
# Newton polish
GENERIC = (-0.189 - 1.193j, 1.023 + 2.371j, -0.439 - 1.294j, 0.05 - 1.595j,
           -0.803 + 0.228j, 0.557 - 0.496j, -0.192 - 0.342j, -0.179 + 0.096j,
           0.896 + 0.569j, -2.124 + 1.909j)


def test_generic_cubic_has_nine_inflections():
    f = CubicForm(np.array(GENERIC))
    assert family_parameter(f) is None and hesse_parameter(f) is None
    hd = hessian_det_form(f)
    pts = inflection_points(f)[0]
    assert pts.shape == (9, 3)
    units = pts / np.linalg.norm(pts, axis=-1, keepdims=True)
    assert np.abs(f(units)).max() < 1e-8 * f.scale()
    assert np.abs(hd(units)).max() < 1e-8 * hd.scale()


def _weierstrass(a: complex, b: complex) -> CubicForm:
    """y^2 z - x^3 - a x z^2 - b z^3."""
    c = np.zeros(10, dtype=complex)
    for mono, v in (((0, 2, 1), 1.0), ((3, 0, 0), -1.0), ((1, 0, 2), -a), ((0, 0, 3), -b)):
        c[MONOMIALS.index(mono)] = v
    return CubicForm(c)


def _weierstrass_flexes(a: complex, b: complex) -> np.ndarray:
    # [0:1:0] and [x : +-y : 1] over the roots x of the 3-division
    # polynomial 3 x^4 + 6 a x^2 + 12 b x - a^2, with y^2 = x^3 + a x + b
    pts = [[0.0, 1.0, 0.0]]
    for x in roots_of((-a * a, 12.0 * b, 6.0 * a, 0.0, 3.0)):
        y = complex(x ** 3 + a * x + b) ** 0.5
        pts += [[x, y, 1.0], [x, -y, 1.0]]
    return np.array(pts, dtype=complex)


def _change(seed: int) -> np.ndarray:
    # a seeded complex coordinate change near the identity: far from it the
    # rounding of compose alone moves the flexes of f.compose(m) off
    # m^-1 (flexes of f) by more than the tolerance
    rng = np.random.default_rng(seed)
    return np.eye(3) + 0.25 * (rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3)))


_SHEAR = np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.7, 0.0, 1.0]], dtype=complex)


_HESSE_MUS = (2.2, 1.5 - 0.7j, 0.3j, -1.8)


@pytest.mark.parametrize("f, m", [
    *[(family_lambda(lam), _change(seed)) for seed, lam in enumerate(LAMBDAS)],
    *[(hesse_form(mu), _change(10 + seed)) for seed, mu in enumerate(_HESSE_MUS)],
    (family_lambda(0.3), _SHEAR), (hesse_form(2.2), np.diag([1.0, 1.0, -1.0]))],
    ids=[*(f"pencil-{lam}" for lam in LAMBDAS), *(f"hesse-{mu}" for mu in _HESSE_MUS),
         "pencil-shear", "hesse-identity"])
def test_resultant_route_moves_flexes_with_the_coordinates(f, m):
    # the flexes of f.compose(m) are m^-1 applied to those of f; neither
    # recognizer accepts a composed form, so it takes the chart route.
    # The Hesse member with m = diag(1, 1, -1) has three flexes on z = 0, a
    # structured input that the route's chart moves to a generic position
    g = f.compose(m)
    assert family_parameter(g) is None and hesse_parameter(g) is None
    want = np.linalg.solve(m, inflection_points(f)[0].T).T
    got = inflection_points(g)[0]
    nearest_match(curves.chordal_distances(got[:, None], want[None]), tol=1e-12)


@pytest.mark.parametrize("a, b", [(1.0, 1.0), (-2.0, 0.5), (0.3 + 0.1j, 1.7)])
def test_weierstrass_cubics_have_nine_accurate_flexes(a, b):
    # a flex at [0:1:0] and flexes in pairs [x : +-y : 1] that share x:
    # structured positions that the route's chart does not keep
    f = _weierstrass(a, b)
    assert family_parameter(f) is None and hesse_parameter(f) is None
    got = inflection_points(f)[0]
    want = _weierstrass_flexes(a, b)
    nearest_match(curves.chordal_distances(got[:, None], want[None]), tol=1e-12)


def test_generic_cubic_solves_its_y_polynomials_as_one_stack(monkeypatch):
    calls = {"roots_of": 0, "roots_of_stack": 0, "eig": 0}
    for module, name in ((curves, "roots_of"), (numeric, "roots_of"),
                         (numeric, "roots_of_stack"), (np.linalg, "eig")):
        def counted(*args, _solve=getattr(module, name), _name=name, **kwargs):
            calls[_name] += 1
            return _solve(*args, **kwargs)
        monkeypatch.setattr(module, name, counted)
    assert len(inflection_points(CubicForm(np.array(GENERIC)))[0]) == 9
    # x and y of all nine flexes from one eigenproblem; no polynomial solve
    assert calls == {"roots_of": 0, "roots_of_stack": 0, "eig": 1}


# structured inputs that sit on the coordinate lines: three flexes on z = 0,
# and the pencil's base flex moved to [1:0:0] by x <-> y
_NEAR_SPECIAL = {"hesse-on-z0": hesse_form(2.2).compose(np.diag([1.0, 1.0, -1.0])),
                 "pencil-swapped": family_lambda(0.3).compose(np.eye(3)[[1, 0, 2]])}


@pytest.mark.parametrize("eps", (1e-4, 1e-6, 1e-9))
@pytest.mark.parametrize("name", _NEAR_SPECIAL)
def test_cubics_near_the_coordinate_lines_build_their_surfaces(name, eps):
    # a change of coordinates I + eps (G + i G') puts the flexes just off
    # the coordinate lines; the route's chart sees neither position as special
    f = _NEAR_SPECIAL[name]
    want = inflection_points(f)[0]
    rng = np.random.default_rng(33)
    for _ in range(20):
        m = np.eye(3) + eps * (rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3)))
        g = f.compose(m)
        got = inflection_points(g)[0]
        moved = np.linalg.solve(m, want.T).T
        nearest_match(curves.chordal_distances(got[:, None], moved[None]), tol=1e-12)
        assert is_strongly_regular_27(build_surface_data(g).adjacency)


@pytest.mark.parametrize("scale", (1.0, -1.0, 1j))
def test_a_large_pencil_member_with_x_and_y_swapped_builds(scale):
    f = family_lambda(40.0)
    m = np.eye(3)[[1, 0, 2]] @ np.diag([scale, 1.0, 1.0])
    g = f.compose(m)
    want = np.linalg.solve(m, inflection_points(f)[0].T).T
    got = inflection_points(g)[0]
    nearest_match(curves.chordal_distances(got[:, None], want[None]), tol=1e-12)
    assert is_strongly_regular_27(build_surface_data(g).adjacency)


def test_ill_conditioned_changes_of_a_pencil_member_build():
    # changes of condition 30 to 60 spread the chart's coefficients over
    # four orders of magnitude; an interpolated resultant missed the flexes
    # there by up to 3e-2 and lost some of them (changes 41 and 104 of this
    # stream)
    f = family_lambda(1.043 - 0.882j)
    want = inflection_points(f)[0]
    rng = np.random.default_rng(45)
    built = 0
    while built < 200:
        m = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
        if not 30 < np.linalg.cond(m) < 60:
            continue
        g = f.compose(m)
        got = inflection_points(g)[0]
        moved = np.linalg.solve(m, want.T).T
        nearest_match(curves.chordal_distances(got[:, None], moved[None]), tol=1e-8)
        assert is_strongly_regular_27(build_surface_data(g).adjacency)
        built += 1


@pytest.mark.parametrize("f", [
    hesse_form(2.2).compose(np.diag([1.0, 1.0, -1.0])).compose(np.linalg.inv(curves._CHART)),
    family_lambda(0.3).compose(np.linalg.inv(curves._CHART))],
    ids=["three-flexes-on-the-chart-line", "no-y-cubed-in-the-chart"])
def test_cubics_special_in_the_chart_are_refused(f):
    # in the route's chart these two sit where the pencil and Hesse members
    # sit in the given coordinates: they lose roots and are refused, never
    # answered with fewer or wrong flexes
    with pytest.raises((DegenerateCurve, ValueError)):
        inflection_points(f)


@pytest.mark.filterwarnings("error")
def test_three_concurrent_lines_are_refused():
    # x^3 + y^3 is three lines through [0:0:1]; its Hessian form is 0, which
    # cannot be scaled to unit size
    with pytest.raises(DegenerateCurve, match="Hessian form vanishes"):
        inflection_points(CubicForm(np.array([1, 0, 0, 0, 0, 0, 1, 0, 0, 0])))


@pytest.mark.filterwarnings("error")
def test_the_zero_form_is_refused_before_it_is_scaled():
    # f / f.scale() is 0 / 0 for the zero form: refused as a curve, without
    # a warning and not as a non-finite coefficient
    with pytest.raises(DegenerateCurve, match="zero form"):
        build_surface_data(CubicForm(np.zeros(10)))


@pytest.mark.parametrize("lam", LAMBDAS)
def test_flex_quartic_height_consistency(lam):
    f = family_lambda(lam)
    for alpha in roots_of(flex_quartic(lam)):
        y2 = flex_height_squared(lam, alpha)
        y = complex(y2) ** 0.5
        p = np.array([alpha, y, 1.0], dtype=complex)
        assert abs(f(p)) < 1e-9


def _monomial_derivatives(f, p):
    # gradient and matrix of second partials at p, differentiating each
    # monomial c x^i y^j z^k in turn
    unit = np.eye(3, dtype=int)

    def term(c, e):
        return 0j if min(e) < 0 else c * p[0] ** e[0] * p[1] ** e[1] * p[2] ** e[2]

    grad = np.zeros(3, dtype=complex)
    second = np.zeros((3, 3), dtype=complex)
    for e, c in zip(MONOMIALS, f.coeffs):
        for a in range(3):
            da = np.subtract(e, unit[a])
            grad[a] += e[a] * term(c, da)
            for b in range(3):
                second[a, b] += e[a] * da[b] * term(c, da - unit[b])
    return grad, second


def test_tensor_gradient_and_hessian_match_monomial_derivatives():
    rng = np.random.default_rng(5)
    for _ in range(5):
        f = CubicForm(rng.normal(size=10) + 1j * rng.normal(size=10))
        hess = hessian_det_form(f)
        pts = rng.normal(size=(2, 4, 3)) + 1j * rng.normal(size=(2, 4, 3))
        grads = f.gradient(pts)
        assert grads.shape == (2, 4, 3)
        for idx in np.ndindex(2, 4):
            grad, second = _monomial_derivatives(f, pts[idx])
            assert np.allclose(grads[idx], grad, rtol=1e-12, atol=1e-12)
            assert np.allclose(f.gradient(pts[idx]), grad, rtol=1e-12, atol=1e-12)
            det = np.linalg.det(second)
            assert abs(hess(pts[idx]) - det) <= 1e-12 * max(1.0, abs(det))


def test_compose_changes_coordinates():
    f = family_lambda(0.0)
    m = np.array([[1.0, 0.2, 0.0], [0.0, 1.0, 0.1], [0.3, 0.0, 1.0]],
                 dtype=complex)
    g = f.compose(m)
    p = np.array([0.5, -0.3, 1.0], dtype=complex)
    assert abs(g(p) - f(m @ p)) < 1e-12


def _monomial_sum(f, p):
    # the scalar evaluation the stacked one replaced, with its rounding bound
    x, y, z = p
    terms = [c * x ** i * y ** j * z ** k for (i, j, k), c in zip(MONOMIALS, f.coeffs)]
    return sum(terms), sum(abs(t) for t in terms)


def test_stacked_cubic_matches_monomial_sum():
    rng = np.random.default_rng(11)
    eps = np.finfo(float).eps
    for _ in range(5):
        f = CubicForm(rng.normal(size=10) + 1j * rng.normal(size=10))
        pts = rng.normal(size=(4, 6, 3)) + 1j * rng.normal(size=(4, 6, 3))
        got = f(pts)
        assert got.shape == (4, 6)
        for idx in np.ndindex(4, 6):
            want, bound = _monomial_sum(f, pts[idx])
            assert abs(got[idx] - want) <= 16 * eps * bound
            one = f(pts[idx])
            assert type(one) is complex and abs(one - want) <= 16 * eps * bound


@pytest.mark.parametrize("f", [family_lambda(0.25), hesse_form(2.2),
                               CubicForm(np.array(GENERIC))],
                         ids=["pencil", "hesse", "generic"])
def test_stacked_inflection_distances_match_pairwise(f):
    pts = inflection_points(f)[0]
    i, j = np.triu_indices(9, 1)
    got = curves.chordal_distances(pts[i], pts[j])
    for d, a, b in zip(got, i, j):
        # the pre-stacking formula, in Python floats
        (u0, u1, u2), (v0, v1, v2) = pts[a].tolist(), pts[b].tolist()
        minors = (abs(u0 * v1 - u1 * v0) ** 2 + abs(u1 * v2 - u2 * v1) ** 2
                  + abs(u2 * v0 - u0 * v2) ** 2)
        norms = ((abs(u0) ** 2 + abs(u1) ** 2 + abs(u2) ** 2)
                 * (abs(v0) ** 2 + abs(v1) ** 2 + abs(v2) ** 2))
        assert abs(d - math.sqrt(minors / norms)) <= 1e-15


def test_cubic_form_scale_invariant_checks():
    f = family_lambda(0.3)
    assert f.scale() > 0.0
    doubled = CubicForm(2.0 * f.coeffs)
    p = np.array([0.4, 0.2, 1.0], dtype=complex)
    assert abs(doubled(p) - 2.0 * f(p)) < 1e-12


def test_cubic_form_is_read_only():
    # base_surface() hands one form to every caller; a write to coeffs would
    # set f(p) apart from the tensor behind gradient, compose and the Hessian
    f = base_surface().form
    with pytest.raises(ValueError, match="read-only"):
        f.coeffs[0] = 5
    with pytest.raises(ValueError, match="read-only"):
        f.tensor[0, 0, 0] = 5
    # the caller's array is copied, not frozen
    mine = np.array(GENERIC)
    g = CubicForm(mine)
    mine[0] = 5.0
    assert g.coeffs[0] == GENERIC[0]
