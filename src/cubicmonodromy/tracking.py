"""Monodromy tracking along loops in the smooth locus of the pencil.

A loop samples the family parameter.  One trace per loop continues the four
branch-quartic roots by nearest-neighbour matching and carries each moving
inflection point along its root: its x coordinate is that root, its y
coordinate the square root branch nearest the previous one.  All samples of
one resolution are handled as arrays: the loop is read at every sample and
the values are checked as one array, the quartic at the base sample is
solved alone (`numeric.roots_of`, from companion eigenvalues, and
remembered, since every loop starts at the same base), those at samples
1..n in one batch (`numeric.roots_of_stack`, from Ferrari's closed form),
the roots at sample k - 1, Newton polished on quartic k, predict the matches
of every step at once, and the step maps compose into the root paths by a
doubling scan.
Every match is decided by the one rule `numeric.nearest_match`: the nearest
candidate must beat the runner-up by a factor of two (a heuristic, not a
certificate).  When any match fails, the whole loop is re-run at doubled
resolution, at most MAX_REFINE times and never beyond MAX_SAMPLES samples.
Both end permutations, of the roots and of the inflections, are read off the
same trace, and the inflection permutation lifts to the 27 lines and lands
in the lattice as an integer matrix.
"""

from __future__ import annotations

import cmath
import math
import operator
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .curves import flex_height_squared, flex_quartic, flex_quartic_stack
from .errors import (AmbiguousMatching, InconsistentProjection, NonConvergence,
                     NoUniqueMatch, SingularParameter)
from .lines import base_surface, lift_to_lines, perm_to_lattice_map
from .numeric import (PRECISIONS, TOL_MATCH, nearest_match, newton_polish_stack,
                      pair_indices, roots_of, roots_of_stack)
from .weyl import is_lattice_map

SEPARATION = 10.0 * TOL_MATCH
# how far a loop's ends may lie from the base parameter 0, where the end
# permutations are read; near 0 a root moves about as far as lambda does
BASE_TOL = TOL_MATCH
# doublings of the resolution before a match is declared ambiguous
MAX_REFINE = 6
# samples per loop, about ten times the default fully refined (100 * 2**6)
MAX_SAMPLES = 2 ** 16


@dataclass(frozen=True)
class Loop:
    """Closed path of family parameters based at 0, sampled at t in [0, 1]."""

    kind: str
    at: Callable[[float], complex]

    def sample(self, t: float) -> complex:
        return _checked(complex(self.at(t)), t)


def _checked(lam: complex, t: float) -> complex:
    """The loop value lam at t, unless it is not finite (ValueError) or
    within SEPARATION of a node (SingularParameter)."""
    if not (math.isfinite(lam.real) and math.isfinite(lam.imag)):
        raise ValueError(f"loop value {lam} at t={t} is not finite")
    if abs(lam - 1.0) < SEPARATION or abs(lam + 1.0) < SEPARATION:
        raise SingularParameter(f"loop touches the discriminant at t={t}")
    return lam


def _samples(loop: Loop,
             ts: list[float]) -> tuple[np.ndarray, SingularParameter | None]:
    """The loop's values at every t of ts, checked as one array by
    Loop.sample's rule, up to the first singular sample, and that sample's
    SingularParameter (None when there is none).  A first failing sample
    that is not finite, or that is sample 0, raises Loop.sample's error."""
    lams = np.array([complex(loop.at(t)) for t in ts])
    bad = (~np.isfinite(lams) | (np.abs(lams - 1.0) < SEPARATION)
           | (np.abs(lams + 1.0) < SEPARATION))
    if not bad.any():
        return lams, None
    k = int(bad.argmax())
    try:
        _checked(complex(lams[k]), ts[k])
    except SingularParameter as exc:
        if k == 0:
            raise
        return lams[:k], exc
    raise AssertionError(f"sample {k} passes the scalar check")


def gamma_minus() -> Loop:
    """Counterclockwise unit circle around the nodal parameter -1."""
    return Loop("gammaMinus", lambda t: -1.0 + cmath.exp(2j * cmath.pi * t))


def gamma_plus() -> Loop:
    """Counterclockwise unit circle around the nodal parameter +1: the
    winding number of 1 - exp(2 pi i t) around +1 is that of
    -exp(2 pi i t) around 0, which is +1."""
    return Loop("gammaPlus", lambda t: 1.0 - cmath.exp(2j * cmath.pi * t))


def constant_loop() -> Loop:
    return Loop("constant", lambda t: 0.0)


def custom_loop(fn: Callable[[float], complex]) -> Loop:
    return Loop("custom", fn)


@dataclass(frozen=True)
class TrackingConfig:
    steps: int = 100
    precision: str = "double"

    def __post_init__(self):
        # a numpy integer passes, a float is a TypeError
        object.__setattr__(self, "steps", operator.index(self.steps))
        if self.steps < 8:
            raise ValueError("need at least 8 steps per loop")
        if self.steps > MAX_SAMPLES:
            raise ValueError(f"at most {MAX_SAMPLES} steps per loop")
        if self.precision not in PRECISIONS:
            raise ValueError(f"unknown precision {self.precision!r}")


@dataclass(frozen=True, eq=False)
class LoopTrace:
    """One loop continued at a single resolution.

    roots[k] (an (n + 1, 4) array) holds the four branch-quartic roots at
    ts[k]; ys[k][i] (an (n + 1, 8) array) is the y coordinate of inflection
    i + 1, whose x coordinate is roots[k][root_of_flex[i]].  root_perm[i] = j
    means the root starting at base position i lands on base position j;
    flex_perm is the same for the nine inflection points, of which the point
    at infinity (index 0) never moves.
    """

    ts: list[float]
    roots: np.ndarray
    ys: np.ndarray
    root_of_flex: list[int]
    root_perm: np.ndarray
    flex_perm: np.ndarray


def _pair_gaps(a: np.ndarray) -> np.ndarray:
    """|a[k, i] - a[k, j]| for every row k and every pair i < j."""
    i, j = pair_indices(a.shape[1])
    return np.abs(a[:, i] - a[:, j])


def _compose_paths(steps: np.ndarray) -> np.ndarray:
    """The (n + 1, m) paths of the (n, m) step maps: row 0 is the identity,
    row k + 1 is row k mapped by steps[k], so paths[k + 1, i] =
    steps[k, paths[k, i]].

    A doubling scan: after the round with offset d, row k holds the
    composition of steps[max(0, k - 2 d + 1)..k]; about log2(n) array calls.
    """
    acc = np.array(steps, dtype=np.intp)
    n, m = acc.shape
    rows = np.arange(n)[:, None]
    d = 1
    while d < n:
        acc[d:] = acc[rows[d:], acc[:-d]]
        d *= 2
    return np.vstack([np.arange(m)[None], acc])


def _step_maps(coeffs: np.ndarray, fresh: np.ndarray) -> np.ndarray:
    """hits[k - 1, i]: the root at sample k that fresh[k - 1, i] continues to.

    fresh[k] holds the roots of quartic k (coeffs[k - 1]).  The prediction
    for fresh[k - 1, i] is its Newton polish on quartic k, matched one to one
    by nearest_match; the roots must stay SEPARATION apart.
    """
    pred = newton_polish_stack(coeffs, fresh[:-1])
    hits = nearest_match(np.abs(pred[:, :, None] - fresh[1:, None, :]))
    if (_pair_gaps(fresh[1:]) < SEPARATION).any():
        raise NoUniqueMatch("tracked roots lost separation")
    return hits


def _flex_heights(lams: np.ndarray, xs: np.ndarray,
                  base_ys: np.ndarray) -> np.ndarray:
    """y paths over the x paths xs of the moving inflections.

    At each sample y is the square root of flex_height_squared nearer the
    previous y, chosen by nearest_match between the two signs.  The choice
    is a sign relative to the previous principal root, so the signs are a
    cumulative product.
    """
    w = np.vstack([base_ys, np.sqrt(flex_height_squared(lams[1:, None], xs[1:]))])
    flips = nearest_match(np.stack([np.abs(w[1:] - w[:-1]),
                                    np.abs(w[1:] + w[:-1])], axis=-1),
                          one_to_one=False)
    keep = np.cumprod(1 - 2 * flips, axis=0) > 0
    ys = np.vstack([w[:1], np.where(keep, w[1:], -w[1:])])
    if (_pair_gaps(xs[1:]) + _pair_gaps(ys[1:]) < SEPARATION).any():
        raise NoUniqueMatch("inflection points lost separation")
    return ys


def _trace_once(loop: Loop, steps: int, cfg: TrackingConfig) -> LoopTrace:
    """Continue roots and inflections at one resolution; raises NoUniqueMatch
    when any match misses its margin.

    Samples 1..steps are solved in one batch and matched all at once.  The
    loop is read at every sample before any value is checked, so an error
    the loop raises itself comes first.  A singular or non-converged sample
    is raised only when no earlier sample is ambiguous, as if the samples
    were read in order.
    """
    # inflections 1..8 move; each rides on one root's x-path
    base_xs, base_ys = base_surface().flexes[1:9, :2].T
    ts = [k / steps for k in range(steps + 1)]
    lams, stop = _samples(loop, ts)
    base = np.array(roots_of(flex_quartic(lams[0]), precision=cfg.precision))
    coeffs = flex_quartic_stack(lams)
    try:
        fresh = roots_of_stack(coeffs[1:], precision=cfg.precision)
    except NonConvergence as exc:
        stop, lams, coeffs = exc, lams[:1 + exc.row], coeffs[:1 + exc.row]
        fresh = roots_of_stack(coeffs[1:], precision=cfg.precision)
    fresh = np.vstack([base, fresh])
    paths = _compose_paths(_step_maps(coeffs[1:], fresh))
    roots = np.take_along_axis(fresh, paths, axis=1)
    root_of_flex = nearest_match(np.abs(base_xs[:, None] - base),
                                 one_to_one=False).tolist()
    xs = roots[:, root_of_flex]
    ys = _flex_heights(lams, xs, base_ys)
    if stop is not None:
        raise stop
    root_perm = nearest_match(np.abs(roots[-1][:, None] - base), TOL_MATCH)
    flex_images = nearest_match(np.abs(xs[-1][:, None] - base_xs)
                                + np.abs(ys[-1][:, None] - base_ys), TOL_MATCH)
    return LoopTrace(ts=ts, roots=roots, ys=ys, root_of_flex=root_of_flex,
                     root_perm=root_perm,
                     flex_perm=np.concatenate([[0], 1 + flex_images]))


def trace_loop(loop: Loop, cfg: TrackingConfig = TrackingConfig()) -> LoopTrace:
    """Track the loop once, doubling the resolution until every match keeps
    its margin, and cross-check that the inflection permutation projects onto
    the root permutation through the x-coordinates.  A loop whose ends are
    not within BASE_TOL of 0 is a ValueError, raised before any solve."""
    for t in (0.0, 1.0):
        lam = loop.sample(t)
        if abs(lam) > BASE_TOL:
            raise ValueError(f"loop is not based at 0: lambda({t:g}) = {lam}")
    steps = cfg.steps
    for attempt in range(MAX_REFINE + 1):
        try:
            trace = _trace_once(loop, steps, cfg)
            break
        except NoUniqueMatch:
            if attempt == MAX_REFINE or 2 * steps > MAX_SAMPLES:
                raise AmbiguousMatching(
                    f"matching stayed ambiguous up to {steps} steps") from None
            steps *= 2
    for i, r in enumerate(trace.root_of_flex):
        if trace.root_perm[r] != trace.root_of_flex[trace.flex_perm[1 + i] - 1]:
            raise InconsistentProjection(
                "flex permutation does not project onto the root permutation")
    return trace


def track_flexes(loop: Loop, cfg: TrackingConfig = TrackingConfig()) -> np.ndarray:
    """Permutation of the nine base inflection points induced by the loop."""
    return trace_loop(loop, cfg).flex_perm


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
