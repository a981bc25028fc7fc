"""The 27 lines of the triple-cover cubic surface w^3 = f(x, y, z).

Over each of the nine inflection points of the branch cubic the surface
carries three lines, cut out by the lifted tangent plane together with one
of three hyperplanes indexed by a cube root of unity.  Lines are stored as
pairs of 4-covectors plus their (flex, n) label; everything downstream
(incidence graph, sixer choice, divisor classes, lattice maps) is exact
integer data once the incidence pattern is certified.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .curves import (
    CubicForm, ProjPoint2, family_parameter, flex_height_squared,
    gradient, hesse_parameter, inflection_points, tangent_covector_family,
)
from .errors import (
    AmbiguousIncidence, BadIncidencePattern, NoSixer, NonIntegralImage,
    FormViolation, NotAFlex,
)
from .numeric import TOL_INC, TOL_MATCH, constants

OMEGA = cmath.exp(2j * cmath.pi / 3.0)

J_FORM = np.diag([1, -1, -1, -1, -1, -1, -1]).astype(np.int64)
CANONICAL_CLASS = np.array([-3, 1, 1, 1, 1, 1, 1], dtype=np.int64)


def _phase4(v: np.ndarray) -> np.ndarray:
    v = np.asarray(v, dtype=complex)
    v = v / np.linalg.norm(v)
    for entry in v:
        if abs(entry) > 1e-12:
            return v * (abs(entry) / entry)
    raise ValueError("zero covector")


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
        object.__setattr__(self, "h1", _phase4(self.h1))
        object.__setattr__(self, "h2", _phase4(self.h2))
        stacked = np.vstack([self.h1, self.h2])
        smin = np.linalg.svd(stacked, compute_uv=False)[-1]
        if smin < 1e-8:
            raise ValueError("hyperplane covectors are dependent")

    def span_basis(self) -> np.ndarray:
        """Orthonormal basis (2 x 4) of the covector span."""
        q, _ = np.linalg.qr(np.vstack([self.h1, self.h2]).T)
        return q.T.conj()

    def points(self, count: int = 5) -> np.ndarray:
        """Sample points on the line (rows, unit norm)."""
        _, _, vh = np.linalg.svd(np.vstack([self.h1, self.h2]))
        b1, b2 = vh[2].conj(), vh[3].conj()
        ts = np.linspace(0.0, 1.0, count)
        pts = []
        for k, t in enumerate(ts):
            p = b1 * math.cos(1.0 + t) + b2 * math.sin(1.0 + t) * cmath.exp(0.7j * k)
            pts.append(p / np.linalg.norm(p))
        return np.array(pts)


def surface_residual(f: CubicForm, line: Line3, count: int = 5) -> float:
    """max |w^3 - f| over sample points of the line, unit-normalized."""
    worst = 0.0
    for p in line.points(count):
        val = p[3] ** 3 - f(p[:3])
        worst = max(worst, abs(val))
    return worst


def lines_over_flex(f: CubicForm, p: ProjPoint2, tol: float = 1e-8) -> list[Line3]:
    """The three surface lines over one inflection point of the branch curve.

    Uses the closed-form hyperplanes for the two supported families and a
    generic tangent-cube reduction otherwise.  The flex label on the returned
    lines is -1; all_lines stamps the definitive index.
    """
    lam = family_parameter(f)
    mu = hesse_parameter(f)
    if lam is not None:
        triple = _family_triple(lam, p)
    elif mu is not None:
        triple = _hesse_triple(mu, p)
    else:
        triple = _generic_triple(f, p, tol)
    for line in triple:
        resid = surface_residual(f, line)
        if resid > tol:
            raise NotAFlex(f"line residual {resid:.2e} over point {p.coords}")
    return triple


def _family_triple(lam: complex, p: ProjPoint2) -> list[Line3]:
    if p.is_base_point():
        # w^3 + x^3 factors over the flex at infinity; tangent plane is z = 0
        return [
            Line3(np.array([OMEGA ** n, 0, 0, 1], dtype=complex),
                  np.array([0, 0, 1, 0], dtype=complex), -1, n)
            for n in range(3)
        ]
    if abs(p.z) < 1e-9:
        raise NotAFlex("family flexes lie in the z != 0 chart")
    alpha, y = p.x, p.y
    if abs(flex_height_squared(lam, alpha) - y * y) > 1e-8:
        raise NotAFlex("point is not on the inflection scheme")
    tangent = tangent_covector_family(lam, alpha, y)
    h2 = np.array([tangent[0], tangent[1], tangent[2], 0.0], dtype=complex)
    return [
        Line3(np.array([OMEGA ** n, 0.0, -(OMEGA ** n) * alpha, 1.0], dtype=complex),
              h2, -1, n)
        for n in range(3)
    ]


def _hesse_triple(mu: complex, p: ProjPoint2) -> list[Line3]:
    # each Hesse inflection point has exactly one vanishing coordinate; the
    # cube w^3 - eta^3 m^3 lives on that coordinate m
    eta = -((complex(mu) ** 3 - 1.0) ** (1.0 / 3.0))
    if abs(eta.imag) > 1e-9:
        eta = complex(-abs(eta))
    coords = p.coords
    zero_idx = int(np.argmin(np.abs(coords)))
    if abs(coords[zero_idx]) > 1e-8:
        raise NotAFlex("not a Hesse inflection point")
    gx, gy, gz = gradient(_hesse_cached(complex(mu)))
    u = p.unit()
    h2 = np.array([gx(u), gy(u), gz(u), 0.0], dtype=complex)
    out = []
    for n in range(3):
        h1 = np.zeros(4, dtype=complex)
        h1[3] = 1.0
        h1[zero_idx] = -(OMEGA ** n) * eta
        out.append(Line3(h1, h2, -1, n))
    return out


@lru_cache(maxsize=8)
def _hesse_cached(mu: complex) -> CubicForm:
    from .curves import hesse_form
    return hesse_form(mu)


def _generic_triple(f: CubicForm, p: ProjPoint2, tol: float) -> list[Line3]:
    """Tangent-line cube reduction for an arbitrary smooth cubic.

    On the tangent line at a flex the form is c * m^3 for any linear form m
    that vanishes at the point and is independent of the tangent covector;
    the three lines are w = (c)^(1/3) omega^n m inside the tangent plane.
    """
    gx, gy, gz = gradient(f)
    u = p.unit()
    t = np.array([gx(u), gy(u), gz(u)], dtype=complex)
    tn = np.linalg.norm(t)
    if tn < tol * f.scale():
        raise NotAFlex("gradient vanishes; not a smooth point")
    t = t / tn
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
    out = []
    for n in range(3):
        h1 = np.array([*(-(OMEGA ** n) * root * m), 1.0], dtype=complex)
        h2 = np.array([*t, 0.0], dtype=complex)
        out.append(Line3(h1, h2, -1, n))
    return out


def _tangent_direction(t: np.ndarray, u: np.ndarray) -> np.ndarray:
    # a unit vector on the tangent line independent of the point itself
    _, _, vh = np.linalg.svd(t[None, :])
    for cand in (vh[1].conj(), vh[2].conj()):
        d = cand - (u.conj() @ cand) * u
        if np.linalg.norm(d) > 1e-6:
            return d / np.linalg.norm(d)
    raise NotAFlex("no independent direction on the tangent line")


def all_lines(f: CubicForm, tol: float = 1e-8) -> list[Line3]:
    """All 27 lines, ordered by (flex index, n)."""
    out = []
    for idx, p in enumerate(inflection_points(f, tol)):
        for line in lines_over_flex(f, p, tol):
            out.append(Line3(line.h1, line.h2, idx, line.n))
    return out


def incident(a: Line3, b: Line3, tol_inc: float = TOL_INC) -> bool:
    """Whether two disjoint-or-meeting lines intersect in P^3.

    The 4 x 4 determinant of the stacked unit covectors is 0 exactly on
    intersecting pairs; values inside [tol_inc, 100 tol_inc] are refused as
    ambiguous rather than guessed.
    """
    det = np.linalg.det(np.vstack([a.h1, a.h2, b.h1, b.h2]))
    mag = abs(det)
    if mag < tol_inc:
        return True
    if mag < 100.0 * tol_inc:
        raise AmbiguousIncidence(f"incidence determinant {mag:.3e} in the dead band")
    return False


def incidence_graph(lines: list[Line3], tol_inc: float = TOL_INC) -> np.ndarray:
    """Symmetric boolean adjacency matrix of the incidence relation."""
    n = len(lines)
    adj = np.zeros((n, n), dtype=bool)
    for i in range(n):
        for j in range(i + 1, n):
            if incident(lines[i], lines[j], tol_inc):
                adj[i, j] = adj[j, i] = True
    return adj


def is_strongly_regular_27(adj: np.ndarray) -> bool:
    """Check the (27, 10, 1, 5) strongly regular graph conditions."""
    n = adj.shape[0]
    if n != 27 or adj.dtype != bool or not np.array_equal(adj, adj.T):
        return False
    if np.any(np.diag(adj)):
        return False
    deg = adj.sum(axis=1)
    if not np.all(deg == 10):
        return False
    common = (adj.astype(int) @ adj.astype(int))
    for i in range(n):
        for j in range(i + 1, n):
            want = 1 if adj[i, j] else 5
            if common[i, j] != want:
                return False
    return True


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
    flexes = inflection_points(f, tol)
    lines = all_lines(f, tol)
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
