"""Monodromy tracking along loops in the smooth locus of the pencil.

A loop samples the family parameter.  One trace per loop continues the four
branch-quartic roots by nearest-neighbour matching, seeded with a Newton
polish of the previous positions, and carries each moving inflection point
along its root: its x coordinate is that root, its y coordinate the square
root branch nearest the previous one.  A match is accepted only when the
nearest candidate beats the runner-up by a factor of two (a heuristic, not a
certificate); otherwise the whole loop is re-run at doubled resolution.  Both
end permutations, of the roots and of the inflections, are read off the same
trace, and the inflection permutation lifts to the 27 lines and lands in the
lattice as an integer matrix.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .curves import flex_height_squared, flex_quartic
from .errors import (AmbiguousMatching, InconsistentProjection, NonConvergence,
                     SingularParameter)
from .lines import base_surface, perm_to_lattice_map
from .numeric import PRECISIONS, TOL_MATCH, newton_polish, roots_of
from .weyl import is_lattice_map

SEPARATION = 10.0 * TOL_MATCH


@dataclass(frozen=True)
class Loop:
    """Closed path of family parameters, sampled at t in [0, 1]."""

    kind: str
    at: Callable[[float], complex]

    def sample(self, t: float) -> complex:
        lam = complex(self.at(t))
        if abs(lam - 1.0) < SEPARATION or abs(lam + 1.0) < SEPARATION:
            raise SingularParameter(f"loop touches the discriminant at t={t}")
        return lam


def gamma_minus() -> Loop:
    """Counterclockwise unit circle around the nodal parameter -1."""
    return Loop("gammaMinus", lambda t: -1.0 + cmath.exp(2j * cmath.pi * t))


def gamma_plus() -> Loop:
    """Clockwise unit circle around the nodal parameter +1."""
    return Loop("gammaPlus", lambda t: 1.0 - cmath.exp(2j * cmath.pi * t))


def constant_loop(lam: complex = 0.0) -> Loop:
    return Loop("constant", lambda t: lam)


def custom_loop(fn: Callable[[float], complex]) -> Loop:
    return Loop("custom", fn)


@dataclass(frozen=True)
class TrackingConfig:
    steps: int = 100
    eps_match: float = TOL_MATCH
    max_refine: int = 6
    precision: str = "double"

    def __post_init__(self):
        if self.steps < 8:
            raise ValueError("need at least 8 steps per loop")
        if self.max_refine < 0:
            raise ValueError("max_refine must be non-negative")
        # a NaN tolerance would make every `> eps_match` test false
        if not (math.isfinite(self.eps_match) and self.eps_match > 0):
            raise ValueError("eps_match must be finite and positive")
        if self.precision not in PRECISIONS:
            raise ValueError(f"unknown precision {self.precision!r}")


class _Ambiguous(Exception):
    """Internal: matching failed at the current resolution."""


@dataclass(frozen=True, eq=False)
class LoopTrace:
    """One loop continued at a single resolution.

    roots[k] holds the four branch-quartic roots at ts[k]; ys[k][i] is the y
    coordinate of inflection i + 1, whose x coordinate is
    roots[k][root_of_flex[i]].  root_perm[i] = j means the root starting at
    base position i lands on base position j; flex_perm is the same for the
    nine inflection points, of which the point at infinity (index 0) never
    moves.
    """

    ts: list[float]
    roots: list[list[complex]]
    ys: list[list[complex]]
    root_of_flex: list[int]
    root_perm: np.ndarray
    flex_perm: np.ndarray


def _nearest(dists: list[float]) -> int:
    """Index of the smallest distance, if it beats the runner-up by a factor
    of two."""
    order = sorted(range(len(dists)), key=dists.__getitem__)
    if len(order) > 1 and dists[order[0]] >= 0.5 * dists[order[1]]:
        raise _Ambiguous("nearest candidate does not dominate the runner-up")
    return order[0]


def _match_to(candidates: list[complex], z: complex) -> int:
    return _nearest([abs(z - w) for w in candidates])


def _end_permutation(dist_rows: list[list[float]], eps: float) -> list[int]:
    """Bijection from path ends (rows) to base points (columns)."""
    images = []
    for row in dist_rows:
        j = _nearest(row)
        if row[j] > eps:
            raise _Ambiguous("endpoint missed the base fibre")
        images.append(j)
    if len(set(images)) != len(images):
        raise _Ambiguous("endpoint matching is not a bijection")
    return images


def _root_step(quartic, current: list[complex], precision: str) -> list[complex]:
    fresh = roots_of(quartic, precision=precision)
    new: list[complex] = []
    used: set[int] = set()
    for z in current:
        try:
            z = newton_polish(quartic, z, precision=precision)
        except NonConvergence:
            pass
        hit = _match_to(fresh, z)
        if hit in used:
            raise _Ambiguous("two tracks collapsed onto one root")
        used.add(hit)
        new.append(fresh[hit])
    for i in range(4):
        for j in range(i + 1, 4):
            if abs(new[i] - new[j]) < SEPARATION:
                raise _Ambiguous("tracked roots lost separation")
    return new


def _flex_step(lam: complex, xs: list[complex],
               ys: list[complex]) -> list[complex]:
    new_ys: list[complex] = []
    for x, y_prev in zip(xs, ys):
        y = cmath.sqrt(flex_height_squared(lam, x))
        cand = min((y, -y), key=lambda v: abs(v - y_prev))
        if abs(cand - y_prev) >= 0.5 * abs(-cand - y_prev):
            raise _Ambiguous("square-root branch choice is ambiguous")
        new_ys.append(cand)
    for i in range(8):
        for j in range(i + 1, 8):
            gap = abs(xs[i] - xs[j]) + abs(new_ys[i] - new_ys[j])
            if gap < SEPARATION:
                raise _Ambiguous("inflection points lost separation")
    return new_ys


def _trace_once(loop: Loop, steps: int, cfg: TrackingConfig) -> LoopTrace:
    """Continue roots and inflections at one resolution; raises _Ambiguous
    when any match misses its margin."""
    # inflections 1..8 move; each rides on one root's x-path
    base_pts = base_surface().flexes[1:9]
    current = roots_of(flex_quartic(loop.sample(0.0)), precision=cfg.precision)
    root_of_flex = [_match_to(current, p.x) for p in base_pts]
    ys = [p.y for p in base_pts]
    ts, roots, all_ys = [0.0], [current], [ys]
    for k in range(1, steps + 1):
        t = k / steps
        lam = loop.sample(t)
        current = _root_step(flex_quartic(lam), current, cfg.precision)
        ys = _flex_step(lam, [current[r] for r in root_of_flex], ys)
        ts.append(t)
        roots.append(current)
        all_ys.append(ys)
    root_images = _end_permutation(
        [[abs(z - b) for b in roots[0]] for z in current], cfg.eps_match)
    flex_images = _end_permutation(
        [[abs(current[r] - p.x) + abs(y - p.y) for p in base_pts]
         for r, y in zip(root_of_flex, ys)], cfg.eps_match)
    return LoopTrace(ts=ts, roots=roots, ys=all_ys, root_of_flex=root_of_flex,
                     root_perm=np.array(root_images, dtype=np.int64),
                     flex_perm=np.array([0] + [1 + j for j in flex_images],
                                        dtype=np.int64))


def _refined(runner: Callable[[int], object], cfg: TrackingConfig):
    steps = cfg.steps
    for _ in range(cfg.max_refine + 1):
        try:
            return runner(steps)
        except _Ambiguous:
            steps *= 2
    raise AmbiguousMatching(
        f"matching stayed ambiguous up to {steps // 2} steps")


def trace_loop(loop: Loop, cfg: TrackingConfig = TrackingConfig()) -> LoopTrace:
    """Track the loop once, doubling the resolution until every match keeps
    its margin, and cross-check that the inflection permutation projects onto
    the root permutation through the x-coordinates."""
    trace = _refined(lambda steps: _trace_once(loop, steps, cfg), cfg)
    for i, r in enumerate(trace.root_of_flex):
        if trace.root_perm[r] != trace.root_of_flex[trace.flex_perm[1 + i] - 1]:
            raise InconsistentProjection(
                "flex permutation does not project onto the root permutation")
    return trace


def track_roots(loop: Loop, cfg: TrackingConfig = TrackingConfig()) -> np.ndarray:
    """End-to-start bijection of the four branch-quartic roots."""
    return trace_loop(loop, cfg).root_perm


def track_flexes(loop: Loop, cfg: TrackingConfig = TrackingConfig()) -> np.ndarray:
    """Permutation of the nine base inflection points induced by the loop."""
    return trace_loop(loop, cfg).flex_perm


def lift_to_lines(flex_images: np.ndarray) -> np.ndarray:
    """Lift a flex permutation to the 27 lines; the sheet label rides along."""
    out = np.zeros(27, dtype=np.int64)
    for flex in range(9):
        for n in range(3):
            out[3 * flex + n] = 3 * int(flex_images[flex]) + n
    return out


def flex_lattice_map(flex_perm: np.ndarray) -> np.ndarray:
    """Lattice map of a flex permutation's action on the 27 lines.

    Checked to live in the lattice stabilizer and to commute with the deck
    matrix before being returned.
    """
    surface = base_surface()
    line_perm = lift_to_lines(flex_perm)
    m = perm_to_lattice_map(line_perm, surface.classes, surface.sixer)
    if not is_lattice_map(m):
        raise InconsistentProjection("monodromy image is not a lattice map")
    deck = surface.deck_matrix
    if not np.array_equal(m @ deck, deck @ m):
        raise InconsistentProjection("monodromy image does not commute with the deck map")
    return m


def monodromy_matrix(loop: Loop, cfg: TrackingConfig = TrackingConfig()) -> np.ndarray:
    """Lattice map of the loop's action on the 27 lines."""
    return flex_lattice_map(track_flexes(loop, cfg))
