"""Plane cubic curves: the pencil of interest, Hesse forms, and inflection data.

A cubic form is stored as 10 complex coefficients in the fixed monomial order

    x^3, x^2 y, x^2 z, x y^2, x y z, x z^2, y^3, y^2 z, y z^2, z^3,

and as the (3, 3, 3) coefficient tensor that the gradient, the Hessian form
and coordinate changes are computed from.

inflection_points is the one place that decides how a cubic is solved.
With each flex it gives the linear form l for which f = l^3 on the tangent
line there; the lines over the flex are w = omega^n l (see lines.py).  For
the two families that matter, the y^2 z = cubic pencil and the Hesse normal
forms, and for scalar multiples of their members, points and forms come in
closed form.  Every other smooth cubic takes the chart route in one fixed
unitary chart: the nine flexes are eigenvalues and eigenvectors of the block
companion of the Sylvester matrix of f and its Hessian form in y, and Newton
steps on (f, Hessian) bring them to rounding level.  Its forms come from
each flex's tangent-line frame (tangent_frames): the unit point q of the
tangent line orthogonal to the flex gives l = -(-f(q))^(1/3) conj(q).

The nine inflection points are one (9, 3) complex array: each row scaled so
that its last meaningfully nonzero coordinate (z, else y, else x) is 1, the
rows in a fixed order, and their forms a (9, 3) array row for row.  Row i
is flex i, and the 27 lines are indexed 3 * flex + sheet over it.
"""

from __future__ import annotations

import cmath
import itertools
from dataclasses import dataclass, field

import numpy as np

from .errors import DegenerateCurve, NotAFlex, SingularParameter
from .numeric import OMEGA, TOL_MATCH, order_key, pair_indices, roots_of

MONOMIALS = (
    (3, 0, 0), (2, 1, 0), (2, 0, 1), (1, 2, 0), (1, 1, 1),
    (1, 0, 2), (0, 3, 0), (0, 2, 1), (0, 1, 2), (0, 0, 3),
)
_MONOMIAL_INDEX = {m: i for i, m in enumerate(MONOMIALS)}
_EXPONENTS = np.array(MONOMIALS)

# A cubic's coefficient tensor T holds each monomial's coefficient at its
# sorted index triple (x^2 y at [0, 0, 1]) and zeros elsewhere, so that
# f(p) = sum T_ijk p_i p_j p_k term by term.  _TENSOR_SLOT is that triple as
# a flat index; _FOLD sums the 27 entries of any (3, 3, 3) tensor onto the
# monomials of their index triples, which reads a form back from a tensor.
_TENSOR_SLOT = np.array([np.repeat(np.arange(3), m) for m in MONOMIALS]) @ (9, 3, 1)
_FOLD = np.zeros((27, 10))
_FOLD[np.arange(27), [_MONOMIAL_INDEX[tuple(np.bincount(t, minlength=3).tolist())]
                      for t in itertools.product(range(3), repeat=3)]] = 1.0
# eps_abc: the sign of (a, b, c) as a permutation of (0, 1, 2), else 0
_LEVI_CIVITA = np.fromfunction(lambda a, b, c: (b - a) * (c - a) * (c - b) / 2, (3, 3, 3))
# the chart route's coordinates p = _CHART p': the Q factor of a complex matrix
# with unrelated entries (a DFT, permutation or diagonal would keep structure)
_CHART = np.linalg.qr([[0.62 - 1.37j, -0.91 + 0.28j, 1.43 + 0.77j],
                       [1.18 + 0.46j, 0.35 - 1.52j, -0.67 + 1.09j],
                       [-0.24 + 0.83j, 1.71 + 0.19j, 0.58 - 0.94j]])[0]
_CHART.flags.writeable = False

_REL_ZERO = 1e-9
_UNIT_ZERO = 1e-12
_BASE_POINT_TOL = 1e-8


@dataclass(frozen=True, eq=False)
class CubicForm:
    """Homogeneous cubic in x, y, z; coefficients follow MONOMIALS.

    tensor holds the same coefficients as the (3, 3, 3) array T described
    at _TENSOR_SLOT; the value, the gradient, compose and hessian_det_form
    work on it.  Both are read-only copies, so the two cannot drift apart,
    and a caller's array stays the caller's.
    """

    coeffs: np.ndarray
    tensor: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        arr = np.array(self.coeffs, dtype=complex)
        if arr.shape != (10,):
            raise ValueError("cubic form needs exactly 10 coefficients")
        if not np.all(np.isfinite(arr.view(float))):
            raise ValueError("non-finite coefficient")
        tensor = np.zeros((3, 3, 3), dtype=complex)
        tensor.flat[_TENSOR_SLOT] = arr
        for name, value in (("coeffs", arr), ("tensor", tensor)):
            value.flags.writeable = False
            object.__setattr__(self, name, value)

    def __call__(self, p: np.ndarray) -> complex | np.ndarray:
        """f at one point (a complex) or at each row of an (..., 3) stack."""
        p = np.asarray(p, dtype=complex)
        vals = np.einsum("ijk,...i,...j,...k->...", self.tensor, p, p, p)
        return complex(vals) if p.ndim == 1 else vals

    def gradient(self, p: np.ndarray) -> np.ndarray:
        """(df/dx, df/dy, df/dz) at one point, or along the last axis at each
        row of an (..., 3) stack."""
        t = self.tensor
        # df/dp_a = sum (T_ajk + T_jak + T_jka) p_j p_k
        first = t + t.transpose(1, 0, 2) + t.transpose(2, 0, 1)
        return np.einsum("ajk,...j,...k->...a", first, p, p)

    def scale(self) -> float:
        return float(np.max(np.abs(self.coeffs)))

    def compose(self, m: np.ndarray) -> "CubicForm":
        """The form p -> f(m @ p), expanded back into monomial coefficients."""
        m = np.asarray(m, dtype=complex)
        return _folded(np.einsum("abc,ai,bj,ck->ijk", self.tensor, m, m, m))


def _folded(s: np.ndarray) -> CubicForm:
    """The cubic form sum s_ijk p_i p_j p_k of a (3, 3, 3) tensor s."""
    return CubicForm(s.reshape(27) @ _FOLD)


def family_lambda(lam: complex, tol: float = TOL_MATCH) -> CubicForm:
    """The pencil y^2 z - (x - z)(x + z)(x - lam z).

    Expanded: y^2 z - x^3 + lam x^2 z + x z^2 - lam z^3.  The parameter values
    lam = +-1 give a nodal curve and are rejected; so is |lam| > 1 / _REL_ZERO,
    where family_parameter reads the y^2 z term as zero.
    """
    lam = complex(lam)
    if abs(lam - 1.0) < tol or abs(lam + 1.0) < tol:
        raise SingularParameter(f"lambda = {lam} is on the discriminant")
    out = np.zeros(10, dtype=complex)
    out[_MONOMIAL_INDEX[(3, 0, 0)]] = -1.0
    out[_MONOMIAL_INDEX[(2, 0, 1)]] = lam
    out[_MONOMIAL_INDEX[(1, 0, 2)]] = 1.0
    out[_MONOMIAL_INDEX[(0, 2, 1)]] = 1.0
    out[_MONOMIAL_INDEX[(0, 0, 3)]] = -lam
    form = CubicForm(out)
    if _REL_ZERO * form.scale() > 1.0:
        raise DegenerateCurve(f"inflection points collide: at |lambda| = "
                              f"{abs(lam):.3g} the member is out of double range")
    return form


def hesse_form(mu: complex, tol: float = TOL_MATCH) -> CubicForm:
    """x^3 + y^3 + z^3 - 3 mu x y z; smooth whenever mu^3 != 1."""
    mu = complex(mu)
    if abs(mu ** 3 - 1.0) < tol:
        raise SingularParameter(f"mu = {mu} gives a singular Hesse cubic")
    out = np.zeros(10, dtype=complex)
    out[_MONOMIAL_INDEX[(3, 0, 0)]] = 1.0
    out[_MONOMIAL_INDEX[(0, 3, 0)]] = 1.0
    out[_MONOMIAL_INDEX[(0, 0, 3)]] = 1.0
    out[_MONOMIAL_INDEX[(1, 1, 1)]] = -3.0 * mu
    return CubicForm(out)


def hessian_det_form(f: CubicForm) -> CubicForm:
    """Determinant of the matrix of second partials, as a cubic form.

    The second partials are linear forms, d2f/dp_a dp_b = sum_k H_abk p_k
    with H the sum of T over all six orderings of its axes, so the
    determinant sum eps_abc H(p)_0a H(p)_1b H(p)_2c is one contraction.
    """
    t = f.tensor
    h = sum(t.transpose(axes) for axes in itertools.permutations(range(3)))
    return _folded(np.einsum("abc,ai,bj,ck->ijk", _LEVI_CIVITA, h[0], h[1], h[2]))


def _normalized(pts: np.ndarray) -> np.ndarray:
    """Each row of an (n, 3) stack of homogeneous coordinates scaled so that
    its last entry above _REL_ZERO of the row's largest, checking z then y
    then x, is 1; a zero or non-finite row raises ValueError.  This makes the
    nine inflection points of the curves at hand comparable as arrays."""
    pts = np.asarray(pts, dtype=complex)
    mag = np.abs(pts)
    big = mag.max(axis=-1, keepdims=True)
    if not np.all(np.isfinite(pts.view(float))) or np.any(big == 0.0):
        raise ValueError("invalid homogeneous coordinates")
    last = 2 - np.argmax(mag[:, ::-1] > _REL_ZERO * big, axis=-1)
    return pts / pts[np.arange(len(pts)), last][:, None]


def at_base_point(pts: np.ndarray) -> np.ndarray:
    """Which rows of a normalized (n, 3) stack are the point [0 : 1 : 0]."""
    return np.max(np.abs(pts - (0.0, 1.0, 0.0)), axis=-1) < _BASE_POINT_TOL


def chordal_distances(u: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Chordal distance between the points along the last axis of two
    broadcastable (..., 3) stacks of homogeneous coordinates.

    sqrt(1 - |<u, v>|^2) for their unit vectors u, v, which is the norm of
    v's component orthogonal to u.  Computed by Lagrange's identity as
    |u ^ v| / (|u| |v|) from the minors u_i v_j - u_j v_i, because the
    subtraction 1 - |<u, v>|^2 cancels (up to 2e-8 for a point and itself);
    the minors of a point and itself are exactly 0.
    """
    (u0, u1, u2), (v0, v1, v2) = np.moveaxis(u, -1, 0), np.moveaxis(v, -1, 0)
    minors = (np.abs(u0 * v1 - u1 * v0) ** 2 + np.abs(u1 * v2 - u2 * v1) ** 2
              + np.abs(u2 * v0 - u0 * v2) ** 2)
    uu = np.abs(u0) ** 2 + np.abs(u1) ** 2 + np.abs(u2) ** 2
    vv = np.abs(v0) ** 2 + np.abs(v1) ** 2 + np.abs(v2) ** 2
    return np.sqrt(minors / (uu * vv))


def phase_normalize(v: np.ndarray) -> np.ndarray:
    """Scale each vector along the last axis to unit norm, its first entry
    above _UNIT_ZERO made positive real; a zero vector raises ValueError."""
    v = np.asarray(v, dtype=complex)
    # squares and hypot rather than np.abs, whose complex loop rounds unlike
    # the scalar abs: the sign of the lead entry's rounding-level imaginary
    # part shows when covectors are printed
    norm = np.sqrt(np.sum(v.real ** 2, axis=-1, keepdims=True)
                   + np.sum(v.imag ** 2, axis=-1, keepdims=True))
    if np.any(norm == 0.0):
        raise ValueError("zero covector")
    v = v / norm
    mag = np.hypot(v.real, v.imag)
    first = np.argmax(mag > _UNIT_ZERO, axis=-1)[..., None]
    return v * (np.take_along_axis(mag, first, -1) / np.take_along_axis(v, first, -1))


def _recognize(f: CubicForm, ref: tuple, read, make) -> complex | None:
    """Parameter read off f / f[ref] when that equals make(parameter); else None.

    make runs with a zero singularity tolerance, so recognition never refuses
    a parameter; the routes that use it do.  f[ref] holds at least _REL_ZERO
    of the largest coefficient, checked again on the rounded f / f[ref], so
    a parameter read off one coefficient passes family_lambda's range check.
    """
    c = f.coeffs
    if abs(c[_MONOMIAL_INDEX[ref]]) < _REL_ZERO * f.scale():
        return None
    c = c / c[_MONOMIAL_INDEX[ref]]
    if _REL_ZERO * np.max(np.abs(c)) > 1.0:
        return None
    param = complex(read(c))
    if np.max(np.abs(c - make(param, tol=0.0).coeffs)) < 1e-8:
        return param
    return None


def family_parameter(f: CubicForm) -> complex | None:
    """Recover lam when f is a scalar multiple of the pencil member; else None."""
    return _recognize(f, (0, 2, 1), lambda c: c[_MONOMIAL_INDEX[(2, 0, 1)]],
                      family_lambda)


def hesse_parameter(f: CubicForm) -> complex | None:
    """Recover mu when f is a scalar multiple of a Hesse form; else None."""
    return _recognize(f, (3, 0, 0), lambda c: -c[_MONOMIAL_INDEX[(1, 1, 1)]] / 3.0,
                      hesse_form)


def flex_quartic(lam: complex) -> np.ndarray:
    """Quartic whose roots are the affine x-coordinates of the inflections:
    flex_quartic_stack's (5,) row at lam."""
    return flex_quartic_stack([lam])[0]


def flex_quartic_stack(lams) -> np.ndarray:
    """Flex quartic coefficients at every lam of a 1-d array, one row each.

    For the pencil member at lam the non-base inflection points are
    [alpha : +-y : 1] with alpha a root of

        3 x^4 - 4 lam x^3 - 6 x^2 + 12 lam x - (1 + 4 lam^2);

    the result has shape (n, 5), ascending in x.
    """
    lam = np.asarray(lams, dtype=complex)
    return np.stack([-(1.0 + 4.0 * lam * lam), 12.0 * lam,
                     np.full_like(lam, -6.0), -4.0 * lam,
                     np.full_like(lam, 3.0)], axis=-1)


def flex_height_squared(lam: complex, alpha: complex) -> complex:
    """y^2 over the inflection with x-coordinate alpha (z = 1 chart)."""
    return alpha ** 3 - lam * alpha ** 2 - alpha + lam


def inflection_points(f: CubicForm, tol: float = 1e-8) -> tuple[np.ndarray, np.ndarray]:
    """The nine inflection points as a (9, 3) stack, deterministically
    ordered, and row for row the linear form l with f = l^3 on the tangent
    line there.

    The route is decided here only: f = c g for a pencil or Hesse member g
    takes g's closed forms, l scaled by c^(1/3), and any other cubic the
    chart route and the forms of tangent_frames.  The points are found on
    f / f.scale(), so that no coefficient size overflows; the zero form is
    a DegenerateCurve.  Each row is normalized as in _normalized.
    Ordering: the base point [0:1:0] first when the curve passes through it
    with a vertical-tangent flex there, then ascending (Re y, Im y, Re x,
    Im x), each rounded as in order_key.
    """
    if f.scale() == 0.0:
        raise DegenerateCurve("the zero form defines no curve")
    unit = CubicForm(f.coeffs / f.scale())
    hess = hessian_det_form(unit)
    lam = family_parameter(f)
    mu = None if lam is not None else hesse_parameter(f)
    # c is f's coefficient where the member's is 1
    if lam is not None:
        pts, forms = _inflections_family(lam)
        c = f.coeffs[_MONOMIAL_INDEX[(0, 2, 1)]]
    elif mu is not None:
        pts, forms = _inflections_hesse(mu)
        c = f.coeffs[_MONOMIAL_INDEX[(3, 0, 0)]]
    else:
        pts, forms = _inflections_chart(unit, hess), None
    pts = _normalized(pts)
    if len(pts) != 9:
        raise DegenerateCurve(f"expected 9 inflection points, got {len(pts)}")
    units = pts / np.linalg.norm(pts, axis=-1, keepdims=True)
    if (np.any(np.abs(unit(units)) > tol * unit.scale())
            or np.any(np.abs(hess(units)) > tol * hess.scale())):
        raise DegenerateCurve("inflection residual above tolerance")
    i, j = pair_indices(9)
    if np.any(chordal_distances(pts[i], pts[j]) < 10.0 * TOL_MATCH):
        raise DegenerateCurve("inflection points collide")
    base, rows = at_base_point(pts).tolist(), pts.tolist()
    order = sorted(range(9), key=lambda k: (not base[k], *order_key(rows[k][1]),
                                            *order_key(rows[k][0])))
    pts = pts[order]
    if forms is None:
        return pts, _tangent_cube_roots(f, tol, pts)
    return pts, forms[order] * complex(c) ** (1.0 / 3.0)


def _inflections_family(lam: complex) -> tuple[np.ndarray, np.ndarray]:
    """[0 : 1 : 0] with l = -x, and [alpha : +-y : 1] with l = -x + alpha z
    for the roots alpha of the flex quartic: f, whose x^3 coefficient is
    -1, is l^3 on each tangent line."""
    if abs(lam - 1.0) < TOL_MATCH or abs(lam + 1.0) < TOL_MATCH:
        raise SingularParameter(f"lambda = {lam} is on the discriminant")
    # solved in x / s, so that roots_of never refuses the x^4 term as
    # negligible and the roots are at most about 1 in size
    s = max(1.0, abs(lam))
    alphas = s * np.array(roots_of(flex_quartic(lam) * s ** np.arange(5)))
    pts = [[0.0, 1.0, 0.0]]
    for alpha in alphas:
        y = cmath.sqrt(flex_height_squared(lam, alpha))
        pts += [[alpha, y, 1.0], [alpha, -y, 1.0]]
    forms = np.zeros((len(pts), 3), dtype=complex)
    forms[:, 0] = -1.0
    forms[1:, 2] = np.repeat(alphas, 2)
    return np.array(pts, dtype=complex), forms


def _inflections_hesse(mu: complex) -> tuple[np.ndarray, np.ndarray]:
    """[1 : w : 0], [w : 0 : 1], [0 : 1 : w] for w = -omega^k, with
    l = eta m, m the coordinate that is zero there (z, y, x)."""
    pts = np.array([row for w in (-(OMEGA ** k) for k in range(3))
                    for row in ([1.0, w, 0.0], [w, 0.0, 1.0], [0.0, 1.0, w])],
                   dtype=complex)
    eta = -((complex(mu) ** 3 - 1.0) ** (1.0 / 3.0))
    if abs(eta.imag) > 1e-9:
        eta = complex(-abs(eta))
    return pts, eta * np.eye(3)[[2, 1, 0] * 3]


def _inflections_chart(f: CubicForm, hess: CubicForm) -> np.ndarray:
    """Arbitrary-cubic route: the nine common zeros of f, of unit scale,
    and its Hessian form hess, scaled to unit size here, in the coordinates
    p = _CHART p' at z' = 1, mapped back.  A hess that is 0 (three
    concurrent lines) is refused.

    y is the hidden variable (Cox, Little and O'Shea, Using Algebraic
    Geometry, ch. 3): the 6 x 6 Sylvester matrix of f and hess in y is
    S(x) = sum_k x^k S_k, k = 0..3, with S(x) (y^5, ..., y, 1) = 0 at every
    common zero.  In mu = 1/x, S_0^-1 (S_3 + mu S_2 + mu^2 S_1 + mu^3 S_0) is
    monic, and its 18 x 18 block companion (Gohberg, Lancaster and Rodman,
    Matrix Polynomials) has the nine flex values of mu as its nine
    largest-modulus eigenvalues, the other nine at 0 for x at infinity; the
    first block of each eigenvector is the null vector (y^5, ..., y, 1).
    _flex_newton polishes the nine starts.  S_0 is singular only when a flex
    lies on x' = 0 (np.linalg.LinAlgError, a ValueError), and a flex on
    z' = 0 is lost, so that the nine-point check refuses the cubic; neither
    is answered.  The trade: a unitary chart leaves that failure rate on
    unitarily invariant random cubics as it is, but moves it off the
    coordinate lines where pencil and Hesse members and their swaps sit.
    """
    if hess.scale() == 0.0:
        raise DegenerateCurve("the Hessian form vanishes: three concurrent lines")
    f, hess = f.compose(_CHART), CubicForm(hess.coeffs / hess.scale()).compose(_CHART)
    # blocks[k] is S_k: row r < 3 is y^(2 - r) f, row 3 + r is y^(2 - r) hess,
    # and column c holds the y^(5 - c) terms
    blocks = np.zeros((4, 6, 6), dtype=complex)
    k, c = _EXPONENTS[:, 0], 3 - _EXPONENTS[:, 1]
    for r in range(3):
        blocks[k, r, r + c] = f.coeffs
        blocks[k, 3 + r, r + c] = hess.coeffs
    companion = np.eye(18, 18, 6, dtype=complex)
    companion[12:] = -np.linalg.solve(blocks[0], np.hstack(blocks[:0:-1]))
    mus, vecs = np.linalg.eig(companion)
    top = np.argsort(np.abs(mus))[9:]
    with np.errstate(all="ignore"):
        pts = np.column_stack([1.0 / mus[top], vecs[4, top] / vecs[5, top], np.ones(9)])
    return _flex_newton(f, hess, pts) @ _CHART.T


def _flex_newton(f: CubicForm, hess: CubicForm, pts: np.ndarray) -> np.ndarray:
    """12 Newton steps on (f, hess) = 0 in the z = 1 chart from every row
    [x, y, 1] of an (n, 3) stack, keeping the rows whose last step was below
    1e-9 of their norm.  The system is regular at each of the nine flexes,
    where f and its Hessian curve meet transversally.  A start that is no
    flex diverges (quietly), or converges onto a flex that another start
    also reaches, which the collision check refuses.  The eigenproblem's
    starts were off by a median of 1e-15 chordal on Gaussian cubics and at
    most 4e-4 on changes of condition 30 to 60, and three steps sufficed
    on each; the other nine are margin."""
    with np.errstate(all="ignore"):
        for _ in range(12):
            (fx, fy, _), (hx, hy, _) = f.gradient(pts).T, hess.gradient(pts).T
            fv, hv = f(pts), hess(pts)
            det = fx * hy - fy * hx
            step = np.stack([(fv * hy - hv * fy) / det, (hv * fx - fv * hx) / det,
                             np.zeros_like(det)], axis=-1)
            pts = pts - step
        # an inf or NaN row gives NaN here, and fails
        keep = np.linalg.norm(step, axis=-1) / np.linalg.norm(pts, axis=-1) <= 1e-9
    return pts[keep]


def _first_failing(bad: np.ndarray, message: str) -> None:
    if np.any(bad):
        raise NotAFlex(f"flex {np.argmax(bad)}: {message}")


def tangent_frames(f: CubicForm, flexes: np.ndarray,
                   floor: float = 0.0) -> tuple[np.ndarray, np.ndarray]:
    """The unit tangent covector t and the unit point q = t x conj(u) of
    the tangent line at each unit row u of an (n, 3) stack of flexes.

    t . q = 0 puts q on the line and conj(q) . u = 0 makes it orthogonal
    to u, so the form -conj(q) vanishes at u and is -1 at q.  A flex whose
    gradient norm is at most floor is refused, and so is a row with t
    parallel to conj(u), which t . u = 0 rules out on the curve.
    """
    units = flexes / np.linalg.norm(flexes, axis=-1, keepdims=True)
    grads = f.gradient(units)
    norms = np.linalg.norm(grads, axis=-1, keepdims=True)
    _first_failing(norms[:, 0] <= floor, "gradient vanishes; not a smooth point")
    t = grads / norms
    q = np.cross(t, units.conj())
    lengths = np.linalg.norm(q, axis=-1, keepdims=True)
    _first_failing(lengths[:, 0] == 0.0, "not on the curve")
    return t, q / lengths


def _tangent_cube_roots(f: CubicForm, tol: float, flexes: np.ndarray) -> np.ndarray:
    """l = -(-f(q))^(1/3) conj(q) over each of an arbitrary smooth cubic's
    (n, 3) flexes, q from tangent_frames: on the tangent line f = c m^3 for
    m = -conj(q), which vanishes at the flex, and m(q) = -1 gives c = -f(q).
    A gradient or a c below tol f.scale() is refused; all_lines checks that
    the rows are flexes."""
    floor = tol * f.scale()
    _, q = tangent_frames(f, flexes, floor)
    c = -f(q)
    _first_failing(np.abs(c) < floor, "form vanishes on the whole tangent line")
    return -(c ** (1.0 / 3.0))[:, None] * q.conj()
