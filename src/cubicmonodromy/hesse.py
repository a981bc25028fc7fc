"""Diagonal-coordinate model of the base surface and its torsion symmetries.

The base plane cubic is projectively equivalent to a member of the Hesse
pencil.  That model carries an obvious pair of order-3 symmetries (a
diagonal scaling and a coordinate rotation) which lift to the triple cover
once the vertical coordinate is rescaled by a cube root of the same factor
that relates the two cubic forms.  Conjugating the lifts back through the
equivalence produces explicit surface automorphisms of the original cover,
and their action on the 27 lines lands in the lattice stabilizer.
"""

from __future__ import annotations

import functools
import math
from typing import Sequence

import numpy as np

from .curves import CubicForm, family_lambda, hesse_form
from .errors import GroupError, NoUniqueMatch, TransformResidual
from .lines import Line3, SurfaceData, base_surface, perm_to_lattice_map
from .numeric import OMEGA, TOL_MATCH, constants
from .weyl import lattice_inverse

TOL_TRANSFORM = 1e-10


@functools.lru_cache(maxsize=1)
def hesse_transform() -> tuple[np.ndarray, np.ndarray, float]:
    """Plane change A carrying the base cubic onto a Hesse-pencil member.

    Returns (A, A4, mu) where composing the Hesse form of parameter mu with
    A reproduces the base cubic up to the factor mu**3 - 1, and A4 extends A
    to the ambient space of the cover by scaling the vertical coordinate by
    a real cube root of that factor.
    """
    c = constants()
    s3 = math.sqrt(3.0)
    # (b sqrt(3)/2)^4 == (3 + 2 sqrt(3))/4, the square of half the y^2 z scale
    col_y = 1j * c.b * s3 / 2.0
    a = np.array([
        [1.0, 0.0, -c.a],
        [-(s3 + 1.0) / 2.0, -col_y, -c.a * (s3 - 1.0) / 2.0],
        [-(s3 + 1.0) / 2.0, col_y, -c.a * (s3 - 1.0) / 2.0],
    ], dtype=np.complex128)
    scale = c.mu ** 3 - 1.0
    composed = hesse_form(c.mu).compose(a)
    target = family_lambda(0.0)
    resid = max(abs(composed.coeffs[i] - scale * target.coeffs[i])
                for i in range(10))
    if resid > TOL_TRANSFORM * abs(scale):
        raise TransformResidual(
            f"plane change misses the Hesse model by {resid:.3e}")
    a4 = np.zeros((4, 4), dtype=np.complex128)
    a4[:3, :3] = a
    # -eta is the real cube root of mu**3 - 1
    a4[3, 3] = -c.eta
    return a, a4, c.mu


def heisenberg_lifts() -> tuple[np.ndarray, np.ndarray]:
    """Order-3 cover symmetries of the Hesse model, as 4x4 matrices.

    The first scales the plane coordinates by powers of omega, the second
    rotates them cyclically; both fix the Hesse form on the nose, so they
    lift with the vertical coordinate untouched.
    """
    x_lift = np.diag([1.0 + 0j, OMEGA, OMEGA ** 2, 1.0 + 0j])
    y_lift = np.zeros((4, 4), dtype=np.complex128)
    y_lift[0, 1] = 1.0
    y_lift[1, 2] = 1.0
    y_lift[2, 0] = 1.0
    y_lift[3, 3] = 1.0
    return x_lift, y_lift


def _orthonormal_rows(rows: np.ndarray) -> np.ndarray:
    q, _ = np.linalg.qr(rows.T)
    return q.T


def _chordal(u_rows: np.ndarray, v_rows: np.ndarray) -> float:
    """Chordal distance between the row spans of two 2 x 4 matrices with
    orthonormal rows: the norm of v's component off span u.  That equals
    sqrt(2 - |u v^H|^2), whose subtraction cancels (up to 4e-8 for a span
    and itself)."""
    return float(np.linalg.norm(v_rows - (v_rows @ u_rows.T.conj()) @ u_rows))


def induced_line_perm(transform: np.ndarray,
                      source_lines: Sequence[Line3] | None = None,
                      target_lines: Sequence[Line3] | None = None,
                      tol: float = TOL_MATCH) -> np.ndarray:
    """Permutation induced on lines by a map carrying one surface to another.

    A hyperplane covector h moves to h composed with the inverse transform,
    so each source line's covector span is pushed through the inverse and
    matched to the target lines by chordal span distance; the nearest line
    must beat the runner-up by a factor of two.  Defaults to the base
    surface on both sides, the automorphism case.
    """
    if source_lines is None:
        source_lines = base_surface().lines
    if target_lines is None:
        target_lines = source_lines
    inv = np.linalg.inv(transform)
    targets = [line.span_basis() for line in target_lines]
    images = np.full(len(source_lines), -1, dtype=np.int64)
    for i, line in enumerate(source_lines):
        moved = _orthonormal_rows(line.span_basis() @ inv)
        dists = sorted((_chordal(moved, other), j)
                       for j, other in enumerate(targets))
        (d0, j0), (d1, _) = dists[0], dists[1]
        if d0 > tol or d0 >= 0.5 * d1:
            raise NoUniqueMatch(
                f"line {i} has no certified image (best {d0:.3e}, next {d1:.3e})")
        images[i] = j0
    if len(set(images.tolist())) != len(targets):
        raise NoUniqueMatch("transform did not induce a bijection on lines")
    return images


def heisenberg_matrices(surface: SurfaceData | None = None
                        ) -> tuple[np.ndarray, np.ndarray]:
    """Lattice maps of the two conjugated torsion symmetries.

    The Hesse-model lifts are conjugated back to the base surface through
    the plane change, act on the 27 lines, and are read off as integer
    matrices in the divisor basis.  Their commutator is a power of the deck
    matrix and both commute with it; violations raise GroupError.
    """
    if surface is None:
        surface = base_surface()
    _, a4, _ = hesse_transform()
    a4_inv = np.linalg.inv(a4)
    x_lift, y_lift = heisenberg_lifts()
    out = []
    for lift in (x_lift, y_lift):
        conj = a4_inv @ lift @ a4
        perm = induced_line_perm(conj, surface.lines)
        out.append(perm_to_lattice_map(perm, surface.classes, surface.sixer))
    h1, h2 = out
    deck = surface.deck_matrix
    comm = h1 @ h2 @ lattice_inverse(h1) @ lattice_inverse(h2)
    if not (np.array_equal(comm, deck) or np.array_equal(comm, deck @ deck)):
        raise GroupError("commutator of the torsion maps is not a deck power")
    for h in (h1, h2):
        if not np.array_equal(h @ deck, deck @ h):
            raise GroupError("torsion map does not commute with the deck matrix")
    return h1, h2
