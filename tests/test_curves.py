"""Plane cubics: the pencil, the diagonal family, and inflection data."""

import itertools
import math

import numpy as np
import pytest

import cubicmonodromy.curves as curves
from cubicmonodromy.curves import (MONOMIALS, CubicForm, ProjPoint2, family_lambda,
                                   cubic_route, family_parameter, flex_height_squared,
                                   flex_quartic, hesse_form,
                                   hesse_parameter, hessian_det_form,
                                   inflection_points, tangent_covector_family)
from cubicmonodromy.errors import SingularParameter
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
    p = ProjPoint2(np.array([2.0, 4.0, 2.0]))
    assert abs(p.z - 1.0) < 1e-15
    base = ProjPoint2(np.array([0.0, 5.0, 0.0]))
    assert abs(base.y - 1.0) < 1e-15
    assert base.is_base_point()
    assert p.distance(p) < 1e-12
    assert p.distance(base) > 0.1


@pytest.mark.parametrize("lam", LAMBDAS)
def test_inflections_are_flexes(lam):
    f = family_lambda(lam)
    pts = inflection_points(f)
    hd = hessian_det_form(f)
    assert len(pts) == 9
    assert pts[0].is_base_point()
    for p in pts:
        assert abs(f(p.coords)) < 1e-8
        assert abs(hd(p.coords)) < 1e-7


def test_inflections_deterministic_order():
    a = inflection_points(family_lambda(0.25))
    b = inflection_points(family_lambda(0.25))
    for p, q in zip(a, b):
        assert p.distance(q) < 1e-12


@pytest.mark.parametrize("lam", (0.0, 0.25, -3.0))
def test_inflection_order_ignores_rounding_noise(monkeypatch, lam):
    # at real lam, conjugate inflections share Re y, which rounding noise
    # in the roots must not order
    want = [p.coords for p in inflection_points(family_lambda(lam))]
    solve = curves.roots_of
    for signs in itertools.product((-1.0, 1.0), repeat=4):
        def noisy(*args, _signs=signs):
            return [z + 1e-15 * s for z, s in zip(solve(*args), _signs)]
        monkeypatch.setattr(curves, "roots_of", noisy)
        got = inflection_points(family_lambda(lam))
        assert max(np.abs(p.coords - w).max() for p, w in zip(got, want)) < 1e-12


def test_distance_has_no_cancellation_floor():
    # sqrt(1 - |<u, v>|^2) left up to 2e-8 for a point and itself
    pts = inflection_points(family_lambda(0.25))
    for i, p in enumerate(pts):
        assert p.distance(p) < 1e-15
        for q in pts[i + 1:]:
            overlap = min(1.0, abs(np.vdot(p.unit(), q.unit())))
            assert abs(p.distance(q) - math.sqrt(1.0 - overlap ** 2)) < 1e-12


# Gaussian coefficients; the resultant's root near |x| = 7.8 has
# |p(x)| / max|c| about 5e-12 from Horner rounding alone, its backward error
# about 3e-18
GENERIC = (-0.189 - 1.193j, 1.023 + 2.371j, -0.439 - 1.294j, 0.05 - 1.595j,
           -0.803 + 0.228j, 0.557 - 0.496j, -0.192 - 0.342j, -0.179 + 0.096j,
           0.896 + 0.569j, -2.124 + 1.909j)


def test_generic_cubic_has_nine_inflections():
    f = CubicForm(np.array(GENERIC))
    assert family_parameter(f) is None and hesse_parameter(f) is None
    hd = hessian_det_form(f)
    pts = inflection_points(f)
    assert len(pts) == 9
    for p in pts:
        assert abs(f(p.unit())) < 1e-8 * f.scale()
        assert abs(hd(p.unit())) < 1e-8 * hd.scale()


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
    (family_lambda(0.3), _SHEAR), (hesse_form(2.2), np.eye(3))],
    ids=[*(f"pencil-{lam}" for lam in LAMBDAS), *(f"hesse-{mu}" for mu in _HESSE_MUS),
         "pencil-shear", "hesse-identity"])
def test_resultant_route_moves_flexes_with_the_coordinates(f, m):
    # the flexes of f.compose(m) are m^-1 applied to those of f; the Hesse
    # member with m = I has three flexes on z = 0
    want = np.linalg.solve(m, np.array([p.coords for p in inflection_points(f)]).T).T
    got = np.array([p.coords for p in
                    inflection_points(f.compose(m), route=("generic", None))])
    nearest_match(curves._chordal_distances(got[:, None], want[None]), tol=1e-12)


@pytest.mark.parametrize("a, b", [(1.0, 1.0), (-2.0, 0.5), (0.3 + 0.1j, 1.7)])
def test_weierstrass_cubics_have_nine_accurate_flexes(a, b):
    # y -> -y makes every flex x-coordinate a double root of the resultant
    f = _weierstrass(a, b)
    assert cubic_route(f) == ("generic", None)
    got = np.array([p.coords for p in inflection_points(f)])
    want = _weierstrass_flexes(a, b)
    nearest_match(curves._chordal_distances(got[:, None], want[None]), tol=1e-12)


def test_generic_cubic_solves_its_y_polynomials_as_one_stack(monkeypatch):
    calls = {"roots_of": 0, "roots_of_stack": 0}
    for name in calls:
        def counted(*args, _solve=getattr(curves, name), _name=name, **kwargs):
            calls[_name] += 1
            return _solve(*args, **kwargs)
        monkeypatch.setattr(curves, name, counted)
    assert len(inflection_points(CubicForm(np.array(GENERIC)))) == 9
    # the resultant and the line z = 0 by roots_of; every y-polynomial at once
    assert calls == {"roots_of": 2, "roots_of_stack": 1}


@pytest.mark.parametrize("lam", LAMBDAS)
def test_flex_quartic_height_consistency(lam):
    f = family_lambda(lam)
    for alpha in roots_of(flex_quartic(lam)):
        y2 = flex_height_squared(lam, alpha)
        y = complex(y2) ** 0.5
        p = np.array([alpha, y, 1.0], dtype=complex)
        assert abs(f(p)) < 1e-9


@pytest.mark.parametrize("lam", LAMBDAS)
def test_tangent_covector_matches_gradient(lam):
    # regression: the z-partial once carried a spurious -lam alpha^2 term
    # that only vanished at lam = 0
    f = family_lambda(lam)
    for alpha in roots_of(flex_quartic(lam)):
        y = complex(flex_height_squared(lam, alpha)) ** 0.5
        p = np.array([alpha, y, 1.0], dtype=complex)
        grad = f.gradient(p)
        cov = tangent_covector_family(lam, alpha, y)
        grad = grad / np.linalg.norm(grad)
        cov = cov / np.linalg.norm(cov)
        assert abs(abs(np.vdot(grad, cov)) - 1.0) < 1e-10


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
    pts = inflection_points(f)
    coords = np.array([p.coords for p in pts])
    i, j = np.triu_indices(9, 1)
    got = curves._chordal_distances(coords[i], coords[j])
    for d, a, b in zip(got, i, j):
        assert abs(d - pts[a].distance(pts[b])) <= 1e-15
        # the pre-stacking formula, in Python floats
        (u0, u1, u2), (v0, v1, v2) = pts[a].coords.tolist(), pts[b].coords.tolist()
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
