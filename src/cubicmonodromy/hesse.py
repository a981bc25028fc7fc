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

import numpy as np

from .curves import family_lambda, hesse_form
from .errors import GroupError, TransformResidual
from .lines import base_surface, perm_to_lattice_map
from .numeric import OMEGA, TOL_MATCH, constants, nearest_match
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


def _span_distances(transform: np.ndarray, source_lines: np.ndarray,
                    target_lines: np.ndarray) -> np.ndarray:
    """(m, n) chordal distances from each moved source span to each target,
    given as (m, 2, 4) and (n, 2, 4) stacks of lines:
    the norm of the target's orthonormal basis off the moved span, which is
    sqrt(2 - |u^H v|^2) without its cancellation (up to 4e-8 for a span and
    itself).  A source covector h is moved to h @ inverse(transform).
    """
    def spans(lines, move=np.eye(4)):
        return np.linalg.qr(move @ lines.transpose(0, 2, 1))[0]

    moved = spans(source_lines, np.linalg.inv(transform).T)[:, None]
    targets = spans(target_lines)
    off = targets - moved @ (moved.conj().swapaxes(-1, -2) @ targets)
    return np.linalg.norm(off, axis=(-2, -1))


def induced_line_perm(transform: np.ndarray) -> np.ndarray:
    """Permutation induced on the base surface's lines by an automorphism.

    Each line's covector span h is moved to the span of h @ inverse, the
    line's image under transform, and matched to the lines by chordal span
    distance under nearest_match, within TOL_MATCH and one to one.
    """
    lines = base_surface().lines
    return nearest_match(_span_distances(transform, lines, lines), TOL_MATCH)


def heisenberg_matrices() -> tuple[np.ndarray, np.ndarray]:
    """Lattice maps of the base surface's two conjugated torsion symmetries.

    The Hesse-model lifts are conjugated back to the base surface through
    the plane change, act on the 27 lines, and are read off as integer
    matrices in the divisor basis.  Their commutator is a power of the deck
    matrix and both commute with it; violations raise GroupError.
    """
    surface = base_surface()
    _, a4, _ = hesse_transform()
    a4_inv = np.linalg.inv(a4)
    x_lift, y_lift = heisenberg_lifts()
    out = []
    for lift in (x_lift, y_lift):
        conj = a4_inv @ lift @ a4
        perm = induced_line_perm(conj)
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
