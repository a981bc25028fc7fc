"""The 27 lines of the triple-cover cubic surface w^3 = f(x, y, z).

Over each of the nine inflection points of the branch cubic the surface
carries three lines, cut out by the lifted tangent plane together with one
of three hyperplanes indexed by a cube root of unity.  The lines are one
(27, 2, 4) stack of unit covector pairs in (x, y, z, w): line k lies over
flex k // 3 (row k // 3 of the (9, 3) flex stack) on cube-root sheet k % 3,
so line 3 * flex + sheet.  This module is the one that reads flex and sheet
off a line index.  Everything downstream (incidence graph, sixer choice,
divisor classes, lattice maps) is exact integer data once the incidence
pattern is certified.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np

from .curves import (
    CubicForm, at_base_point, cubic_route, flex_height_squared,
    inflection_points, phase_normalize, tangent_covector_family,
)
from .errors import (
    AmbiguousIncidence, BadIncidencePattern, NoSixer, NonIntegralImage,
    FormViolation, NotAFlex,
)
from .numeric import OMEGA, TOL_INC, pair_indices

J_FORM = np.diag([1, -1, -1, -1, -1, -1, -1]).astype(np.int64)
CANONICAL_CLASS = np.array([-3, 1, 1, 1, 1, 1, 1], dtype=np.int64)

# the cube roots of unity omega^n, one per sheet n
_SHEETS = np.array([OMEGA ** n for n in range(3)])
# _residuals samples each line at a u + b v, (u, v) its kernel basis, for
# these five weights (a, b)
_RESIDUAL_SAMPLES = 5
_RESIDUAL_ANGLES = 1.0 + np.linspace(0.0, 1.0, _RESIDUAL_SAMPLES)
_RESIDUAL_A = np.cos(_RESIDUAL_ANGLES)[:, None]
_RESIDUAL_B = (np.sin(_RESIDUAL_ANGLES)
               * np.exp(0.7j * np.arange(_RESIDUAL_SAMPLES)))[:, None]


def _checked_spans(pairs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Phase-normalize every covector of an (m, 2, 4) stack and check that
    each pair spans a plane; returns the stack and its kernel bases.

    One SVD gives both the rank test (smallest singular value below 1e-8
    raises ValueError) and rows 2, 3 of vh, whose conjugates span the line.
    """
    pairs = phase_normalize(pairs)
    _, sv, vh = np.linalg.svd(pairs)
    if np.any(sv[:, -1] < 1e-8):
        raise ValueError("hyperplane covectors are dependent")
    return pairs, vh[:, 2:].conj()


def _residuals(f: CubicForm, kernel: np.ndarray) -> np.ndarray:
    """max |w^3 - f| over _RESIDUAL_SAMPLES unit sample points of each line,
    given the (m, 2, 4) kernel bases of _checked_spans; all the points are
    evaluated in one call."""
    pts = kernel[:, None, 0] * _RESIDUAL_A + kernel[:, None, 1] * _RESIDUAL_B
    pts /= np.linalg.norm(pts, axis=-1, keepdims=True)
    return np.max(np.abs(pts[..., 3] ** 3 - f(pts[..., :3])), axis=-1)


def surface_residual(f: CubicForm, pair: np.ndarray) -> float:
    """max |w^3 - f| over sample points of the line cut out by a (2, 4)
    covector pair, unit-normalized."""
    _, kernel = _checked_spans(np.asarray(pair)[None])
    return float(_residuals(f, kernel)[0])


def _family_triple(lam: complex, flexes: np.ndarray) -> np.ndarray:
    """The (3 len(flexes), 2, 4) covector pairs over the pencil member's
    flexes: h1 = (omega^n, 0, -omega^n alpha, 1) and h2 the tangent plane
    over [alpha : y : 1]; over [0 : 1 : 0] alpha = 0 and h2 is z = 0."""
    base = at_base_point(flexes)
    x, y, z = flexes[~base].T
    if np.any(np.abs(z) < 1e-9):
        raise NotAFlex("family flexes lie in the z != 0 chart")
    if np.any(np.abs(flex_height_squared(lam, x) - y * y) > 1e-8):
        raise NotAFlex("point is not on the inflection scheme")
    pairs = np.zeros((len(flexes), 3, 2, 4), dtype=complex)
    pairs[:, :, 0, 0] = _SHEETS
    pairs[~base, :, 0, 2] = -_SHEETS * x[:, None]
    pairs[:, :, 0, 3] = 1.0
    # w^3 + x^3 factors over the flex at infinity, whose tangent plane is z = 0
    pairs[base, :, 1, 2] = 1.0
    pairs[~base, :, 1, :3] = tangent_covector_family(lam, x, y).T[:, None]
    return pairs.reshape(-1, 2, 4)


def _hesse_triple(eta: complex, flexes: np.ndarray, grads: np.ndarray) -> np.ndarray:
    """The (3 len(flexes), 2, 4) covector pairs over a Hesse member's flexes.

    Each Hesse inflection point has exactly one vanishing coordinate m; the
    cube w^3 - eta^3 m^3 lives on it.  grads holds the form's gradient at
    each flex's unit vector.
    """
    rows = np.arange(len(flexes))
    zero_idx = np.argmin(np.abs(flexes), axis=-1)
    if np.any(np.abs(flexes[rows, zero_idx]) > 1e-8):
        raise NotAFlex("not a Hesse inflection point")
    pairs = np.zeros((len(flexes), 3, 2, 4), dtype=complex)
    pairs[rows, :, 0, zero_idx] = -_SHEETS * eta
    pairs[:, :, 0, 3] = 1.0
    pairs[:, :, 1, :3] = grads[:, None]
    return pairs.reshape(-1, 2, 4)


def _hesse_eta(mu: complex) -> complex:
    eta = -((complex(mu) ** 3 - 1.0) ** (1.0 / 3.0))
    if abs(eta.imag) > 1e-9:
        eta = complex(-abs(eta))
    return eta


def _first_failing(bad: np.ndarray, message: str) -> None:
    if np.any(bad):
        raise NotAFlex(f"flex {np.argmax(bad)}: {message}")


def _generic_triple(f: CubicForm, tol: float, units: np.ndarray,
                    grads: np.ndarray) -> np.ndarray:
    """Tangent-line cube reduction for an arbitrary smooth cubic.

    On the tangent line at a flex the form is c * m^3 for any linear form m
    that vanishes at the point and is independent of the tangent covector;
    the three lines are w = (c)^(1/3) omega^n m inside the tangent plane.
    units holds the (n, 3) flexes as unit vectors, grads f's gradient at
    each; the result is the (3n, 2, 4) stack of the covector pairs.
    """
    rows = np.arange(len(units))
    floor = tol * f.scale()
    tn = np.linalg.norm(grads, axis=-1)
    _first_failing(tn < floor, "gradient vanishes; not a smooth point")
    t = grads / tn[:, None]
    # forms vanishing at u: the null space of the evaluation functional at u,
    # the candidate whose part off t is longest (the first on a tie)
    cands = np.linalg.svd(units[:, None])[2][:, 1:].conj()
    off_t = cands - (cands @ t.conj()[..., None]) * t[:, None]
    m = off_t[rows, np.argmax(np.linalg.norm(off_t, axis=-1), axis=-1)]
    m = m / np.linalg.norm(m, axis=-1, keepdims=True)
    # a third point of the tangent line gives the cube scale: the first basis
    # vector of the line off u by over 1e-6 (two cannot both be that close)
    cands = np.linalg.svd(t[:, None])[2][:, 1:].conj()
    off_u = cands - (cands @ units.conj()[..., None]) * units[:, None]
    lengths = np.linalg.norm(off_u, axis=-1)
    pick = np.where(lengths[:, 0] > 1e-6, 0, 1)
    q = off_u[rows, pick] / lengths[rows, pick][:, None]
    mq = np.einsum("ni,ni->n", m, q)
    _first_failing(np.abs(mq) < 1e-10, "degenerate chart on the tangent line")
    c = f(q) / mq ** 3
    _first_failing(np.abs(c) < floor, "form vanishes on the whole tangent line")
    # flex certificate: f - c m^3 must vanish on the tangent line
    mid = units + 0.37 * q
    mid = mid / np.linalg.norm(mid, axis=-1, keepdims=True)
    _first_failing(np.abs(f(mid) - c * np.einsum("ni,ni->n", m, mid) ** 3) > floor,
                   "tangent line meets the curve off the triple point")
    pairs = np.zeros((len(units), 3, 2, 4), dtype=complex)
    pairs[:, :, 0, :3] = -_SHEETS[:, None] * (c ** (1.0 / 3.0))[:, None, None] * m[:, None]
    pairs[:, :, 0, 3] = 1.0
    pairs[:, :, 1, :3] = t[:, None]
    return pairs.reshape(-1, 2, 4)


def all_lines(f: CubicForm, flexes: np.ndarray, tol: float = 1e-8,
              route: tuple[str, complex | None] | None = None) -> np.ndarray:
    """The (3 len(flexes), 2, 4) stack of the lines over the given (n, 3)
    flexes, line 3 i + n over flex i on sheet n.

    The hyperplane rule is picked once per cubic from route (cubic_route(f)
    when not given): the closed forms for the pencil and the Hesse family,
    the tangent-cube reduction otherwise.  Each line must lie on the surface
    to within tol.
    """
    kind, param = route or cubic_route(f)
    if kind == "family":
        pairs = _family_triple(param, flexes)
    else:
        units = flexes / np.linalg.norm(flexes, axis=-1, keepdims=True)
        grads = f.gradient(units)
        if kind == "hesse":
            pairs = _hesse_triple(_hesse_eta(param), flexes, grads)
        else:
            pairs = _generic_triple(f, tol, units, grads)
    return _surface_lines(f, pairs, flexes, tol)


def _surface_lines(f: CubicForm, pairs: np.ndarray, flexes: np.ndarray,
                   tol: float) -> np.ndarray:
    """The (3 len(flexes), 2, 4) covector stack, three lines per flex,
    normalized, rank-checked and tested on the surface once."""
    pairs, kernel = _checked_spans(pairs)
    resid = _residuals(f, kernel)
    bad = np.flatnonzero(resid > tol)
    if bad.size:
        k = bad[0]
        raise NotAFlex(f"line residual {resid[k]:.2e} over point {flexes[k // 3]}")
    return pairs


def incidence_graph(lines: np.ndarray) -> np.ndarray:
    """Symmetric boolean adjacency matrix of the incidence relation of an
    (n, 2, 4) stack of lines.

    Two lines meet exactly when the 4 x 4 determinant of their stacked unit
    covectors vanishes; one det call covers every pair.  A value inside
    [TOL_INC, 100 TOL_INC) is refused as ambiguous rather than guessed.
    """
    n = len(lines)
    i, j = pair_indices(n)
    mag = np.abs(np.linalg.det(np.concatenate([lines[i], lines[j]], axis=1)))
    ambiguous = np.flatnonzero((mag >= TOL_INC) & (mag < 100.0 * TOL_INC))
    if ambiguous.size:
        k = ambiguous[0]
        raise AmbiguousIncidence(f"incidence determinant {mag[k]:.3e} of lines "
                                 f"{i[k]} and {j[k]} in the dead band")
    adj = np.zeros((n, n), dtype=bool)
    adj[i, j] = adj[j, i] = mag < TOL_INC
    return adj


def is_strongly_regular_27(adj: np.ndarray) -> bool:
    """Check the (27, 10, 1, 5) strongly regular graph conditions.

    Off the diagonal, adj @ adj counts common neighbours: 1 for incident
    pairs, 5 otherwise; on it, the degree 10.
    """
    if adj.shape != (27, 27) or adj.dtype != bool or not np.array_equal(adj, adj.T):
        return False
    if np.any(np.diag(adj)):
        return False
    want = np.where(adj, 1, 5)
    np.fill_diagonal(want, 10)
    return bool(np.array_equal(adj.astype(np.int64) @ adj.astype(np.int64), want))


def concurrent_triples(lines: np.ndarray, adj: np.ndarray) -> list[tuple[int, int, int]]:
    """The triples (3 flex, 3 flex + 1, 3 flex + 2) of lines over a common
    flex; each must be pairwise incident."""
    triples = [(k, k + 1, k + 2) for k in range(0, len(lines), 3)]
    for flex, (i, j, k) in enumerate(triples):
        if not (adj[i, j] and adj[i, k] and adj[j, k]):
            raise BadIncidencePattern(f"triple over flex {flex} is not concurrent")
    return triples


def find_sixer(adj: np.ndarray) -> tuple[int, ...]:
    """Lexicographically first six pairwise non-incident lines."""
    n = adj.shape[0]

    def extend(chosen: list[int], start: int):
        if len(chosen) == 6:
            return tuple(chosen)
        for cand in range(start, n):
            if all(not adj[cand, c] for c in chosen):
                got = extend(chosen + [cand], cand + 1)
                if got is not None:
                    return got
        return None

    found = extend([], 0)
    if found is None:
        raise NoSixer("no six pairwise-disjoint lines in the incidence graph")
    return found


def classify_lines(adj: np.ndarray, sixer: tuple[int, ...]) -> np.ndarray:
    """Divisor classes of all 27 lines relative to the sixer basis.

    Rows are (e0, e1, ..., e6) coefficient vectors: sixer member k is e_{k+1};
    any other line is c e0 - sum of e_{i+1} over the set M of sixer members
    it meets, with c = 1 when |M| = 2 and c = 2 when |M| = 5.
    """
    six = list(sixer)
    meets = adj[:, six].astype(np.int64)
    count = meets.sum(axis=1)
    other = np.ones(len(adj), dtype=bool)
    other[six] = False
    bad = np.flatnonzero(other & (count != 2) & (count != 5))
    if bad.size:
        raise BadIncidencePattern(f"line {bad[0]} meets {count[bad[0]]} sixer "
                                  "members; expected 2 or 5")
    classes = np.column_stack([np.where(count == 2, 1, 2), -meets])
    classes[six] = np.eye(7, dtype=np.int64)[1:]
    return classes


def pairing(u: np.ndarray, v: np.ndarray) -> int:
    """Intersection pairing of signature (1, 6)."""
    u = np.asarray(u, dtype=np.int64)
    v = np.asarray(v, dtype=np.int64)
    return int(u @ J_FORM @ v)


def line_label(k: int) -> tuple[int, int]:
    """(flex, sheet) of line k: it lies over flex k // 3 on sheet k % 3."""
    return divmod(k, 3)


def deck_permutation(lines: np.ndarray) -> np.ndarray:
    """Line permutation induced by the deck rotation of the cover.

    Rotating w by a cube root of unity maps the sheet-n line over a flex to
    the sheet-(n+1) line over the same flex.
    """
    k = np.arange(len(lines))
    return k - k % 3 + (k + 1) % 3


def lift_to_lines(flex_images: np.ndarray) -> np.ndarray:
    """Lift a flex permutation to the 27 lines; the sheet label rides along."""
    return (3 * np.asarray(flex_images, dtype=np.int64)[:, None] + np.arange(3)).ravel()


def perm_compose(p: np.ndarray, q: np.ndarray) -> np.ndarray:
    """(p then-after q) composition: result[i] = p[q[i]]."""
    return p[q]


def preserves_incidence(perm: np.ndarray, adj: np.ndarray) -> bool:
    return bool(np.array_equal(adj[np.ix_(perm, perm)], adj))


def perm_to_lattice_map(perm: np.ndarray, classes: np.ndarray,
                        sixer: tuple[int, ...]) -> np.ndarray:
    """Lattice map of a line permutation in the (e0, ..., e6) basis.

    Column k + 1 is the class of the image of sixer line k; the image of e0
    is forced by fixing the canonical class, and must come out integral.
    The result is checked to preserve the intersection form.
    """
    m = np.zeros((7, 7), dtype=np.int64)
    for k, line in enumerate(sixer):
        m[:, 1 + k] = classes[perm[line]]
    rhs = m[:, 1:].sum(axis=1) - CANONICAL_CLASS
    if np.any(rhs % 3 != 0):
        raise NonIntegralImage("forced image of e0 is not integral")
    m[:, 0] = rhs // 3
    if not np.array_equal(m.T @ J_FORM @ m, J_FORM):
        raise FormViolation("lattice map does not preserve the form")
    return m


@dataclass(frozen=True, eq=False)
class SurfaceData:
    """Everything downstream code needs about one surface in the family.

    flexes is the (9, 3) stack of inflection_points, lines the (27, 2, 4)
    stack of all_lines; these, adjacency, classes and the deck matrix are
    read-only, since base_surface() hands one instance to every caller.
    """

    form: CubicForm
    flexes: np.ndarray
    lines: np.ndarray
    adjacency: np.ndarray
    sixer: tuple[int, ...]
    classes: np.ndarray

    def __post_init__(self):
        for arr in (self.flexes, self.lines, self.adjacency, self.classes):
            arr.flags.writeable = False

    @cached_property
    def deck_matrix(self) -> np.ndarray:
        """Lattice map of the deck rotation, built on first use."""
        m = perm_to_lattice_map(deck_permutation(self.lines), self.classes,
                                self.sixer)
        m.flags.writeable = False
        return m


def build_surface_data(f: CubicForm, tol: float = 1e-8) -> SurfaceData:
    route = cubic_route(f)
    flexes = inflection_points(f, tol, route)
    lines = all_lines(f, flexes, tol, route)
    adj = incidence_graph(lines)
    sixer = find_sixer(adj)
    classes = classify_lines(adj, sixer)
    return SurfaceData(form=f, flexes=flexes, lines=lines, adjacency=adj,
                       sixer=sixer, classes=classes)


@lru_cache(maxsize=1)
def base_surface() -> SurfaceData:
    """Cached geometry of the surface over the pencil member at lambda = 0."""
    from .curves import family_lambda
    return build_surface_data(family_lambda(0.0))
