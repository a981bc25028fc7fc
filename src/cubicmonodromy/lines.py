"""The 27 lines of the triple-cover cubic surface w^3 = f(x, y, z).

Over each of the nine inflection points of the branch cubic the surface
carries three lines, cut out by the lifted tangent plane together with one
of three hyperplanes indexed by a cube root of unity.  Lines are stored as
pairs of 4-covectors plus their (flex, n) label; everything downstream
(incidence graph, sixer choice, divisor classes, lattice maps) is exact
integer data once the incidence pattern is certified.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache, partial

import numpy as np

from .curves import (
    CubicForm, ProjPoint2, cubic_route, flex_height_squared, inflection_points,
    phase_normalize, tangent_covector_family,
)
from .errors import (
    AmbiguousIncidence, BadIncidencePattern, NoSixer, NonIntegralImage,
    FormViolation, NotAFlex,
)
from .numeric import OMEGA, TOL_INC

J_FORM = np.diag([1, -1, -1, -1, -1, -1, -1]).astype(np.int64)
CANONICAL_CLASS = np.array([-3, 1, 1, 1, 1, 1, 1], dtype=np.int64)

# the hyperplane pair (h1, h2) of one line, before Line3 normalizes it
Pair = tuple[np.ndarray, np.ndarray]
_RESIDUAL_SAMPLES = 5


@dataclass(frozen=True, eq=False)
class Line3:
    """A line of P^3 as the intersection of two hyperplanes, with its label.

    Covector order is (x, y, z, w).  flex indexes the branch-curve inflection
    point the line sits over, n in {0, 1, 2} picks the cube-root sheet.
    """

    h1: np.ndarray
    h2: np.ndarray
    flex: int
    n: int

    def __post_init__(self):
        pairs, _ = _checked_spans(np.array([[self.h1, self.h2]]))
        object.__setattr__(self, "h1", pairs[0, 0])
        object.__setattr__(self, "h2", pairs[0, 1])


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
    ts = 1.0 + np.linspace(0.0, 1.0, _RESIDUAL_SAMPLES)
    a, b = np.cos(ts), np.sin(ts) * np.exp(0.7j * np.arange(_RESIDUAL_SAMPLES))
    pts = (kernel[:, None, 0] * a[:, None] + kernel[:, None, 1] * b[:, None])
    pts /= np.linalg.norm(pts, axis=-1, keepdims=True)
    return np.max(np.abs(pts[..., 3] ** 3 - f(pts[..., :3])), axis=-1)


def surface_residual(f: CubicForm, line: Line3) -> float:
    """max |w^3 - f| over sample points of the line, unit-normalized."""
    _, kernel = _checked_spans(np.array([[line.h1, line.h2]]))
    return float(_residuals(f, kernel)[0])


def _family_triple(lam: complex, p: ProjPoint2) -> list[Pair]:
    if p.is_base_point():
        # w^3 + x^3 factors over the flex at infinity; tangent plane is z = 0
        return [(np.array([OMEGA ** n, 0, 0, 1], dtype=complex),
                 np.array([0, 0, 1, 0], dtype=complex)) for n in range(3)]
    if abs(p.z) < 1e-9:
        raise NotAFlex("family flexes lie in the z != 0 chart")
    alpha, y = p.x, p.y
    if abs(flex_height_squared(lam, alpha) - y * y) > 1e-8:
        raise NotAFlex("point is not on the inflection scheme")
    tangent = tangent_covector_family(lam, alpha, y)
    h2 = np.array([tangent[0], tangent[1], tangent[2], 0.0], dtype=complex)
    return [(np.array([OMEGA ** n, 0.0, -(OMEGA ** n) * alpha, 1.0], dtype=complex), h2)
            for n in range(3)]


def _hesse_triple(eta: complex, p: ProjPoint2, grad: np.ndarray) -> list[Pair]:
    # each Hesse inflection point has exactly one vanishing coordinate; the
    # cube w^3 - eta^3 m^3 lives on that coordinate m; grad is the form's
    # gradient at p.unit()
    coords = p.coords
    zero_idx = int(np.argmin(np.abs(coords)))
    if abs(coords[zero_idx]) > 1e-8:
        raise NotAFlex("not a Hesse inflection point")
    h2 = np.array([*grad, 0.0], dtype=complex)
    out = []
    for n in range(3):
        h1 = np.zeros(4, dtype=complex)
        h1[3] = 1.0
        h1[zero_idx] = -(OMEGA ** n) * eta
        out.append((h1, h2))
    return out


def _hesse_eta(mu: complex) -> complex:
    eta = -((complex(mu) ** 3 - 1.0) ** (1.0 / 3.0))
    if abs(eta.imag) > 1e-9:
        eta = complex(-abs(eta))
    return eta


def _generic_triple(f: CubicForm, tol: float, p: ProjPoint2, grad: np.ndarray) -> list[Pair]:
    """Tangent-line cube reduction for an arbitrary smooth cubic.

    On the tangent line at a flex the form is c * m^3 for any linear form m
    that vanishes at the point and is independent of the tangent covector;
    the three lines are w = (c)^(1/3) omega^n m inside the tangent plane.
    grad is f's gradient at p.unit().
    """
    u = p.unit()
    tn = np.linalg.norm(grad)
    if tn < tol * f.scale():
        raise NotAFlex("gradient vanishes; not a smooth point")
    t = grad / tn
    # forms vanishing at p: null space of the evaluation functional at p
    _, _, vh = np.linalg.svd(u[None, :])
    cands = [vh[1].conj(), vh[2].conj()]
    m = max(cands, key=lambda c: np.linalg.norm(c - (t.conj() @ c) * t))
    m = m - (t.conj() @ m) * t
    m = m / np.linalg.norm(m)
    # third point of the tangent line away from p gives the cube scale
    q = _tangent_direction(t, u)
    mq, fq = m @ q, f(q)
    if abs(mq) < 1e-10:
        raise NotAFlex("degenerate chart on the tangent line")
    c = fq / mq ** 3
    if abs(c) < tol * f.scale():
        raise NotAFlex("form vanishes on the whole tangent line")
    # flex certificate: f - c m^3 must vanish on the tangent line
    mid = u + 0.37 * q
    mid = mid / np.linalg.norm(mid)
    if abs(f(mid) - c * (m @ mid) ** 3) > tol * f.scale():
        raise NotAFlex("tangent line meets the curve off the triple point")
    root = c ** (1.0 / 3.0)
    h2 = np.array([*t, 0.0], dtype=complex)
    return [(np.array([*(-(OMEGA ** n) * root * m), 1.0], dtype=complex), h2)
            for n in range(3)]


def _tangent_direction(t: np.ndarray, u: np.ndarray) -> np.ndarray:
    # a unit vector on the tangent line independent of the point itself
    _, _, vh = np.linalg.svd(t[None, :])
    for cand in (vh[1].conj(), vh[2].conj()):
        d = cand - (u.conj() @ cand) * u
        if np.linalg.norm(d) > 1e-6:
            return d / np.linalg.norm(d)
    raise NotAFlex("no independent direction on the tangent line")


def all_lines(f: CubicForm, flexes: list[ProjPoint2], tol: float = 1e-8,
              route: tuple[str, complex | None] | None = None) -> list[Line3]:
    """The three lines over each given inflection point, ordered by (flex index, n).

    The hyperplane rule is picked once per cubic from route (cubic_route(f)
    when not given): the closed forms for the pencil and the Hesse family,
    the tangent-cube reduction otherwise.  Each line must lie on the surface
    to within tol.
    """
    kind, param = route or cubic_route(f)
    if kind == "family":
        pairs = [pair for p in flexes for pair in _family_triple(param, p)]
    else:
        triple = (partial(_hesse_triple, _hesse_eta(param)) if kind == "hesse"
                  else partial(_generic_triple, f, tol))
        grads = f.gradient(np.array([p.unit() for p in flexes]))
        pairs = [pair for p, g in zip(flexes, grads) for pair in triple(p, g)]
    return _surface_lines(f, np.array(pairs, dtype=complex), flexes, tol)


def _surface_lines(f: CubicForm, pairs: np.ndarray, flexes: list[ProjPoint2],
                   tol: float) -> list[Line3]:
    """Lines from the (3 * len(flexes), 2, 4) covector stack, three per flex,
    each normalized, rank-checked and tested on the surface once."""
    pairs, kernel = _checked_spans(pairs)
    resid = _residuals(f, kernel)
    bad = np.flatnonzero(resid > tol)
    if bad.size:
        k = bad[0]
        raise NotAFlex(f"line residual {resid[k]:.2e} over point {flexes[k // 3].coords}")
    out = []
    for k, (h1, h2) in enumerate(zip(pairs[:, 0], pairs[:, 1])):
        # skips __post_init__: _checked_spans has just normalized and
        # rank-checked the whole stack
        line = object.__new__(Line3)
        vars(line).update(h1=h1, h2=h2, flex=k // 3, n=k % 3)
        out.append(line)
    return out


def incidence_graph(lines: list[Line3]) -> np.ndarray:
    """Symmetric boolean adjacency matrix of the incidence relation.

    Two lines meet exactly when the 4 x 4 determinant of their stacked unit
    covectors vanishes; one det call covers every pair.  A value inside
    [TOL_INC, 100 TOL_INC) is refused as ambiguous rather than guessed.
    """
    n = len(lines)
    spans = np.array([(line.h1, line.h2) for line in lines],
                     dtype=complex).reshape(n, 2, 4)
    i, j = np.triu_indices(n, 1)
    mag = np.abs(np.linalg.det(np.concatenate([spans[i], spans[j]], axis=1)))
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


def concurrent_triples(lines: list[Line3], adj: np.ndarray) -> list[tuple[int, int, int]]:
    """The triples over a common flex; each must be pairwise incident."""
    by_flex: dict[int, list[int]] = {}
    for idx, line in enumerate(lines):
        by_flex.setdefault(line.flex, []).append(idx)
    triples = []
    for flex in sorted(by_flex):
        members = tuple(sorted(by_flex[flex]))
        if len(members) != 3:
            raise BadIncidencePattern(f"flex {flex} carries {len(members)} lines")
        i, j, k = members
        if not (adj[i, j] and adj[i, k] and adj[j, k]):
            raise BadIncidencePattern(f"triple over flex {flex} is not concurrent")
        triples.append(members)
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
    a line meeting exactly sixer members i and j is e0 - e_i - e_j; a line
    meeting all but member i is 2 e0 + e_i - sum(e_m).
    """
    n = adj.shape[0]
    where = {line: k for k, line in enumerate(sixer)}
    classes = np.zeros((n, 7), dtype=np.int64)
    for idx in range(n):
        if idx in where:
            classes[idx, 1 + where[idx]] = 1
            continue
        meets = [where[s] for s in sixer if adj[idx, s]]
        if len(meets) == 2:
            i, j = meets
            classes[idx, 0] = 1
            classes[idx, 1 + i] -= 1
            classes[idx, 1 + j] -= 1
        elif len(meets) == 5:
            missing = next(k for k in range(6) if k not in meets)
            classes[idx, 0] = 2
            classes[idx, 1:] -= 1
            classes[idx, 1 + missing] += 1
        else:
            raise BadIncidencePattern(
                f"line {idx} meets {len(meets)} sixer members; expected 2 or 5")
    return classes


def pairing(u: np.ndarray, v: np.ndarray) -> int:
    """Intersection pairing of signature (1, 6)."""
    u = np.asarray(u, dtype=np.int64)
    v = np.asarray(v, dtype=np.int64)
    return int(u @ J_FORM @ v)


def deck_permutation(lines: list[Line3]) -> np.ndarray:
    """Line permutation induced by the deck rotation of the cover.

    Rotating w by a cube root of unity maps the sheet-n line over a flex to
    the sheet-(n+1) line over the same flex.
    """
    by_label = {(line.flex, line.n): idx for idx, line in enumerate(lines)}
    images = np.zeros(len(lines), dtype=np.int64)
    for idx, line in enumerate(lines):
        images[idx] = by_label[(line.flex, (line.n + 1) % 3)]
    return images


def perm_compose(p: np.ndarray, q: np.ndarray) -> np.ndarray:
    """(p then-after q) composition: result[i] = p[q[i]]."""
    return p[q]


def perm_inverse(p: np.ndarray) -> np.ndarray:
    out = np.empty_like(p)
    out[p] = np.arange(len(p))
    return out


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
    """Everything downstream code needs about one surface in the family."""

    form: CubicForm
    flexes: list[ProjPoint2]
    lines: list[Line3]
    adjacency: np.ndarray
    sixer: tuple[int, ...]
    classes: np.ndarray

    @property
    def deck_matrix(self) -> np.ndarray:
        return perm_to_lattice_map(deck_permutation(self.lines),
                                   self.classes, self.sixer)


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
