"""The 27 lines of the triple-cover cubic surface w^3 = f(x, y, z).

Over each of the nine inflection points of the branch cubic the surface
carries three lines, cut out by the lifted tangent plane together with one
of three hyperplanes indexed by a cube root of unity: w = omega^n l, with
l the linear form that inflection_points gives with the flex.  The lines
are one (27, 2, 4) stack of unit covector pairs in (x, y, z, w): line k lies
over flex k // 3 (row k // 3 of the (9, 3) flex stack) on cube-root sheet
k % 3, so line 3 * flex + sheet.  Only this module reads flex and sheet off
a line index, and it reads every line correspondence by cube roots of
unity: one per pair of flexes for incidence, one per flex, with flex
images, for a cover automorphism, such as the lift of a translation of
the base curve by a flex, whose group law the incidence graph gives.  As
w^3 = l^3 on every sheet, f = l^3 is checked once per tangent line.
Everything after the certified pattern is exact integer data.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np

from .curves import (CubicForm, chordal_distances, inflection_points,
                     phase_normalize, tangent_frames)
from .errors import (BadIncidencePattern, NoSixer, NonIntegralImage,
                     FormViolation, NotAFlex, TransformResidual)
from .numeric import OMEGA, TOL_MATCH, nearest_match, pair_indices

J_FORM = np.diag([1, -1, -1, -1, -1, -1, -1]).astype(np.int64)
CANONICAL_CLASS = np.array([-3, 1, 1, 1, 1, 1, 1], dtype=np.int64)
# largest relative coefficient residual of f(A x) - c f(x) a plane map passes
TOL_TRANSFORM = 1e-10

# the cube roots of unity omega^n, one per sheet n
_SHEETS = np.array([OMEGA ** n for n in range(3)])
# a line's residual samples it at a u + b v, (u, v) a basis of the line in
# (x, y, z, w), for these five weights (a, b)
_RESIDUAL_SAMPLES = 5
_RESIDUAL_ANGLES = 1.0 + np.linspace(0.0, 1.0, _RESIDUAL_SAMPLES)
_RESIDUAL_A = np.cos(_RESIDUAL_ANGLES)[:, None]
_RESIDUAL_B = (np.sin(_RESIDUAL_ANGLES)
               * np.exp(0.7j * np.arange(_RESIDUAL_SAMPLES)))[:, None]


def _residuals(f: CubicForm, u: np.ndarray, v: np.ndarray) -> np.ndarray:
    """max |w^3 - f| over the unit sample points a u + b v of each line
    spanned by rows u, v of two (m, 4) stacks; all the points are evaluated
    in one call."""
    pts = u[:, None] * _RESIDUAL_A + v[:, None] * _RESIDUAL_B
    pts /= np.linalg.norm(pts, axis=-1, keepdims=True)
    return np.max(np.abs(pts[..., 3] ** 3 - f(pts[..., :3])), axis=-1)


def surface_residual(f: CubicForm, pair: np.ndarray) -> float:
    """max |w^3 - f| over sample points of the line cut out by a (2, 4)
    covector pair, unit-normalized.  One SVD gives the rank test (a smallest
    singular value below 1e-8 raises ValueError) and the line's basis."""
    _, sv, vh = np.linalg.svd(phase_normalize(pair))
    if sv[-1] < 1e-8:
        raise ValueError("hyperplane covectors are dependent")
    return float(_residuals(f, vh[None, 2].conj(), vh[None, 3].conj())[0])


def all_lines(f: CubicForm, flexes: np.ndarray, forms: np.ndarray,
              tol: float = 1e-8) -> np.ndarray:
    """The (3 len(flexes), 2, 4) stack of the lines over the given (n, 3)
    flexes, line 3 i + n over flex i on sheet n, covectors phase-normalized.

    forms holds, row for row, a linear form l vanishing at the flex with
    f = l^3 on its tangent line (inflection_points gives both), so the
    surface over that line is the three lines w = omega^n l: line 3 i + n is
    cut out by h1 = (-omega^n l, 1) and the tangent plane h2 = (t, 0), t from
    tangent_frames.  As w^3 = l^3 on every sheet, only the tangent line
    lifted by w = l must lie on the surface to within tol.
    """
    t, q = tangent_frames(f, flexes)
    # q and r = t x conj(q) span the tangent line; lifted by w = l, they
    # span the line on sheet 0
    resid = _residuals(f, *(np.column_stack([p, np.sum(forms * p, axis=-1)])
                            for p in (q, np.cross(t, q.conj()))))
    # a NaN residual is refused too
    bad = np.flatnonzero(~(resid <= tol))
    if bad.size:
        k = bad[0]
        point = np.array2string(flexes[k], max_line_width=np.inf)
        raise NotAFlex(f"flex {k}: line residual {resid[k]:.2e} over point {point}")
    pairs = np.zeros((len(flexes), 3, 2, 4), dtype=complex)
    pairs[:, :, 0, :3] = -_SHEETS[:, None] * forms[:, None]
    pairs[:, :, 0, 3] = 1.0
    pairs[:, :, 1, :3] = t[:, None]
    return phase_normalize(pairs.reshape(-1, 2, 4))


def _sheet_zero(lines: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(l_k, t_k) of each flex k, off the sheet-0 rows of an all_lines stack."""
    return -lines[::3, 0, :3] / lines[::3, 0, 3:], lines[::3, 1, :3]


def _sheet_offsets(ratios: np.ndarray) -> np.ndarray:
    """The j with omega^j nearest each ratio, by nearest_match."""
    return nearest_match(np.abs(ratios[:, None] - _SHEETS), one_to_one=False)


def incidence_graph(lines: np.ndarray) -> np.ndarray:
    """Symmetric boolean adjacency matrix of the incidence relation of a
    stack labelled as all_lines labels it: line 3 k + n is w = omega^n l_k
    on the tangent line t_k at flex k.  Only sheet 0 is read.

    The lines over one flex meet there.  The tangent lines at flexes a != b
    cross at p = t_a x t_b, off the curve, where l_a^3 = f = l_b^3; so
    l_b(p) / l_a(p) is a cube root omega^j, and lines 3 a + n, 3 b + n'
    meet iff n - n' = j mod 3; an undecided ratio raises NoUniqueMatch.
    """
    ell, t = _sheet_zero(lines)
    a, b = pair_indices(len(t))
    p = np.cross(t[a], t[b])
    offset = np.zeros((len(t), len(t)), dtype=np.int64)
    offset[a, b] = _sheet_offsets(np.sum(ell[b] * p, axis=-1) / np.sum(ell[a] * p, axis=-1))
    offset[b, a] = -offset[a, b]
    flex, sheet = np.divmod(np.arange(len(lines)), 3)
    adj = ((flex[:, None] == flex)
           | ((sheet[:, None] - sheet - offset[np.ix_(flex, flex)]) % 3 == 0))
    np.fill_diagonal(adj, False)
    return adj


def is_strongly_regular_27(adj: np.ndarray) -> bool:
    """Check the (27, 10, 1, 5) strongly regular graph conditions.

    Off the diagonal, adj @ adj counts common neighbours: 1 for incident
    pairs, 5 otherwise; on it, the degree 10.  The counts are at most 27,
    so a float product is exact.
    """
    if adj.shape != (27, 27) or adj.dtype != bool or not np.array_equal(adj, adj.T):
        return False
    if np.any(np.diag(adj)):
        return False
    want = np.where(adj, 1.0, 5.0)
    np.fill_diagonal(want, 10.0)
    counts = adj.astype(float)
    return bool(np.array_equal(counts @ counts, want))


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


def induced_line_perm(transform: np.ndarray) -> np.ndarray:
    """Line permutation of the base surface under a cover automorphism
    diag(A, c), (p, w) -> (A p, c w) with f(A p) = c^3 f(p); ValueError for
    another shape of matrix or a singular A.  Flex k goes to the flex
    sigma(k) nearest A p_k, by nearest_match within TOL_MATCH, one to one.
    At q = t_sigma(k) x t_sigma(k-1), on the tangent at sigma(k) and off the
    curve, c l_k(A^-1 q) / l_sigma(k)(q) is a cube root omega^j, and line
    3 k + n goes to 3 sigma(k) + (n + j) mod 3; NoUniqueMatch when undecided.
    """
    m = np.asarray(transform)
    if (m.shape != (4, 4) or np.any(m[3, :3]) or np.any(m[:3, 3])
            or np.linalg.matrix_rank(m[:3, :3]) < 3):
        raise ValueError("not a cover automorphism diag(A, c) with A invertible")
    a, c, s = m[:3, :3], m[3, 3], base_surface()
    ell, t = _sheet_zero(s.lines)
    sigma = nearest_match(chordal_distances((s.flexes @ a.T)[:, None], s.flexes), TOL_MATCH)
    q = np.cross(t[sigma], t[np.roll(sigma, 1)])
    r = np.sum(c * ell @ np.linalg.inv(a) * q, axis=-1) / np.sum(ell[sigma] * q, axis=-1)
    return (3 * sigma[:, None] + (np.arange(3) + _sheet_offsets(r)[:, None]) % 3).ravel()


def form_ratio(f: CubicForm, a: np.ndarray) -> tuple[complex, float]:
    """(c, residual) for the plane map a: c the least-squares ratio of the
    coefficients of f(a p) to those of f, residual the largest coefficient of
    f(a p) - c f(p) over the largest of f(a p); NaN for a map that kills f."""
    g, h = f.compose(a).coeffs, f.coeffs
    c = complex(np.vdot(h, g) / np.vdot(h, h))
    with np.errstate(invalid="ignore", divide="ignore"):
        return c, float(np.max(np.abs(g - c * h)) / np.max(np.abs(g)))


def _third_flexes(adjacency: np.ndarray, p: int) -> np.ndarray:
    """Row q: the flex r with q, p, r on one line, read off the incidence
    graph.  A plane w = L that holds three pairwise meeting lines over
    distinct flexes cuts f = L^3 in their tangent lines, so L vanishes at
    all three flexes.  Line 3 q meets one line over p, and the one line that
    meets both lies over r; for q = p the first line over p that 3 p meets
    is 3 p + 1, the third line 3 p + 2, so r = p."""
    first = adjacency[::3]
    meet = 3 * p + np.argmax(first[:, 3 * p:3 * p + 3], axis=1)
    return np.argmax(first & adjacency[meet], axis=1) // 3


def translation(p: int) -> tuple[np.ndarray, complex, np.ndarray]:
    """Translation of the base curve by its flex p, as (A, c, lift).

    With flex 0 as origin O the nine flexes are the 3-torsion points, and
    translation by one is a plane map A with f(A x) = c f(x) (Silverman,
    The Arithmetic of Elliptic Curves, ch. III).  The group law is read off
    the incidence graph: flex q goes to q + p = -r, r the third flex on the
    line qp and -r the third flex on the line rO; A spans the null space of
    the 27 x 9 system cross(q + p, A q) = 0, read off one SVD.  A p outside
    0 .. 8 is a ValueError, a float a TypeError.  A relative residual of
    f(A x) - c f(x) above TOL_TRANSFORM raises TransformResidual.  Of the
    three cover automorphisms diag(A, r) with r^3 = c, lift is the one that
    sends line 0, sheet 0 over O, to line 3 p, sheet 0 over p.
    """
    p = operator.index(p)
    if not 0 <= p < 9:
        raise ValueError(f"no flex {p}: the flexes are 0 .. 8")
    s = base_surface()
    images = s.flexes[_third_flexes(s.adjacency, 0)[_third_flexes(s.adjacency, p)]]
    system = (np.cross(images[:, None], np.eye(3))[..., None]
              * s.flexes[:, None, None]).transpose(0, 2, 1, 3).reshape(27, 9)
    a = np.linalg.svd(system)[2][-1].conj().reshape(3, 3)
    c, resid = form_ratio(s.form, a)
    if not resid <= TOL_TRANSFORM:
        raise TransformResidual(f"translation by flex {p} misses the cubic by {resid:.3e}")
    lift = np.zeros((4, 4), dtype=complex)
    lift[:3, :3] = a
    lift[3, 3] = c ** (1.0 / 3.0)
    lift[3, 3] *= _SHEETS[-induced_line_perm(lift)[0] % 3]
    return a, c, lift


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
    flexes, forms = inflection_points(f, tol)
    lines = all_lines(f, flexes, forms, tol)
    adj = incidence_graph(lines)
    if not is_strongly_regular_27(adj):
        raise BadIncidencePattern(
            f"incidence graph is not the (27, 10, 1, 5) graph: "
            f"{int(adj.sum()) // 2} meeting pairs, expected 135")
    sixer = find_sixer(adj)
    classes = classify_lines(adj, sixer)
    return SurfaceData(form=f, flexes=flexes, lines=lines, adjacency=adj,
                       sixer=sixer, classes=classes)


@lru_cache(maxsize=1)
def base_surface() -> SurfaceData:
    """Cached geometry of the surface over the pencil member at lambda = 0."""
    from .curves import family_lambda
    return build_surface_data(family_lambda(0.0))
