"""Seeded inputs for the benchmark workloads, and the exact answers they have.

Every input is plain data (a tuple) drawn from a `random.Random(seed)`, so the
same seed gives the same inputs; the program only ever sees the callables and
cubic forms built from that data.

Loop monodromy has an exact oracle.  The parameter space is the plane minus
the nodal values +1 and -1, its fundamental group at 0 is free on gammaMinus
and gammaPlus, and the monodromy of a word is the product of the base-loop
matrices (Hauenstein-Rodriguez-Sottile 2018).  The base matrices come from the
transcribed flex actions, not from tracking.
"""

from __future__ import annotations

import cmath
import itertools
import math
import random

import numpy as np

from cubicmonodromy import (base_surface, family_lambda, hesse_form,
                            lattice_inverse, lift_to_lines, perm_to_lattice_map,
                            transcribed_flex_permutation)
from cubicmonodromy.curves import CubicForm

TWO_PI_I = 2j * math.pi

# One block of the `loops` mix; op k uses LOOP_MIX[k % len(LOOP_MIX)], so the
# share of each kind is the same on every seed.
LOOP_MIX = ("circle", "near", "word", "circle", "circle",
            "word", "circle", "near", "word", "circle")
# Letters per word, in turn.  Five-letter words get 20 of the 100 steps per
# circle and almost always need refinement (about 120 ms against 60); with
# half the words that long they are about 13 % of the ops, so op_p90_ms falls
# inside that slow class instead of on the gap at its edge, where it jumped
# from 70 to 80 ms between seeds.
WORD_LENGTHS = (5, 2, 5, 3, 5, 4)
# Share of a keyhole loop's parameter interval spent on its small circle.
KEYHOLE_ARC = 0.01
# Plain circles keep at least CLEARANCE from the nodal values.  Near-miss
# circles pass at a distance in NEAR_MISS from one node, at most NEAR_ANGLE
# radians off the real axis (seen from 0); about one in twenty then needs
# refinement.  Closer or steeper passes make the tracker raise
# InconsistentProjection now and then (2 to 3 % below 0.03, and at angles
# above 0.8 even at 0.04), so those are left to the defect probes.
CLEARANCE = 0.15
NEAR_MISS = (0.03, 0.05)
NEAR_ANGLE = 0.6
CLOSE_PASS = (0.01, 0.025)

SURFACE_MIX = ("pencil", "hesse", "pencil")


# ---------------------------------------------------------------------------
# the oracle

class LoopOracle:
    """Exact lattice matrices of loops based at lambda = 0."""

    def __init__(self):
        surface = base_surface()
        self.identity = np.eye(7, dtype=np.int64)
        self.base = {
            kind: perm_to_lattice_map(
                lift_to_lines(transcribed_flex_permutation(kind)),
                surface.classes, surface.sixer)
            for kind in ("gammaMinus", "gammaPlus")
        }

    def letter(self, kind: str, sign: int) -> np.ndarray:
        m = self.base[kind]
        return m if sign > 0 else lattice_inverse(m)

    def word(self, letters) -> np.ndarray:
        """Matrix of the word a_1 a_2 ... (a_1 traversed first).

        Monodromy acts on the right: M(a b) = M(b) @ M(a).
        """
        out = self.identity
        for kind, sign in letters:
            out = self.letter(kind, sign) @ out
        return out

    def circle(self, c: complex, sign: int) -> np.ndarray:
        """Matrix of the circle c (1 - exp(sign 2 pi i t)).

        The circle has centre c and radius |c|, so it encloses -1 exactly when
        Re c < -1/2 and +1 exactly when Re c > 1/2; it never encloses both.
        """
        kind = circle_letter(c)
        return self.identity if kind is None else self.letter(kind, sign)

    def expected(self, spec) -> np.ndarray:
        kind = spec[0]
        if kind in ("circle", "near"):
            return self.circle(spec[1], spec[2])
        if kind == "word":
            return self.word((circle_letter(c), s) for c, s in spec[1])
        if kind == "keyhole":
            _, side, _, sign = spec
            return self.circle(complex(side), sign)
        raise ValueError(f"unknown loop kind {kind!r}")


def circle_letter(c: complex) -> str | None:
    if c.real < -0.5:
        return "gammaMinus"
    if c.real > 0.5:
        return "gammaPlus"
    return None


# ---------------------------------------------------------------------------
# loops

def _circle_at(c: complex, sign: int, u: float) -> complex:
    return c * (1.0 - cmath.exp(sign * TWO_PI_I * u))


def loop_function(spec):
    """The parameter path t -> lambda(t) of a loop spec, for custom_loop."""
    kind = spec[0]
    if kind in ("circle", "near"):
        _, c, sign = spec
        return lambda t: _circle_at(c, sign, t)
    if kind == "word":
        parts = spec[1]
        n = len(parts)

        def word_at(t: float) -> complex:
            k = min(int(t * n), n - 1)
            c, sign = parts[k]
            return _circle_at(c, sign, t * n - k)
        return word_at
    if kind == "keyhole":
        _, side, r, sign = spec
        lo, hi = 0.5 - KEYHOLE_ARC / 2, 0.5 + KEYHOLE_ARC / 2

        def keyhole_at(t: float) -> complex:
            if t < lo:
                return side * (1.0 - r) * t / lo
            if t > hi:
                return side * (1.0 - r) * (1.0 - t) / (1.0 - hi)
            return side * (1.0 - r * cmath.exp(sign * TWO_PI_I * (t - lo) / KEYHOLE_ARC))
        return keyhole_at
    raise ValueError(f"unknown loop kind {kind!r}")


def node_distance(c: complex) -> float:
    """Distance from the circle c (1 - exp(2 pi i t)) to the nearer node."""
    return min(abs(abs(node - c) - abs(c)) for node in (-1.0, 1.0))


def _plain_circle(rng: random.Random):
    while True:
        c = cmath.rect(rng.uniform(0.3, 1.6), rng.uniform(-math.pi, math.pi))
        if node_distance(c) >= CLEARANCE:
            return ("circle", c, rng.choice((1, -1)))


def _near_circle(rng: random.Random, gaps=NEAR_MISS, angle=NEAR_ANGLE):
    # |1 - c| = rho + gap (node outside) or rho - gap (node inside), with
    # c = rho exp(i phi); solving for rho gives the circle passing at `gap`.
    gap = rng.uniform(*gaps)
    phi = rng.uniform(-angle, angle)
    inside = rng.choice((1, -1))
    rho = (1.0 - gap * gap) / (2.0 * (math.cos(phi) - inside * gap))
    c = cmath.rect(rho, phi) * rng.choice((1, -1))
    return ("near", c, rng.choice((1, -1)))


def _word(rng: random.Random, letters: int):
    parts = []
    for _ in range(letters):
        node = rng.choice((-1.0, 1.0))
        # a deformed copy of the base circle around `node`, still through 0
        c = node * cmath.rect(rng.uniform(0.8, 1.3), rng.uniform(-0.4, 0.4))
        parts.append((c, rng.choice((1, -1))))
    return ("word", tuple(parts))


def _keyhole(rng: random.Random):
    """Out along the real axis, once round a node at a small radius, back."""
    return ("keyhole", rng.choice((-1.0, 1.0)), rng.uniform(0.02, 0.04),
            rng.choice((1, -1)))


def loop_stream(seed: int):
    """Endless seeded loop specs in the LOOP_MIX proportions."""
    rng = random.Random(seed)
    lengths = itertools.cycle(WORD_LENGTHS)
    for kind in itertools.cycle(LOOP_MIX):
        if kind == "circle":
            yield _plain_circle(rng)
        elif kind == "near":
            yield _near_circle(rng)
        else:
            yield _word(rng, next(lengths))


def probe_specs(kind: str, seed: int, count: int) -> list:
    """Seeded inputs on which the program has a known defect.

    keyhole     keyhole loops (silently wrong at the default step count)
    close_pass  circles passing CLOSE_PASS from a node at up to 1 rad off
                the real axis (InconsistentProjection now and then)
    hesse       Hesse members with mu spread over the complex plane (NotAFlex
                unless mu is real and above 1)
    generic     generic complex cubics with Gaussian coefficients, through the
                resultant and the tangent-cube reduction (NonConvergence)
    """
    rng = random.Random(f"probe-{kind}-{seed}")
    return [_PROBE_MAKERS[kind](rng) for _ in range(count)]


# ---------------------------------------------------------------------------
# surfaces

def _pencil(rng: random.Random):
    while True:
        lam = complex(rng.uniform(-2.5, 2.5), rng.uniform(-1.5, 1.5))
        if min(abs(lam - 1.0), abs(lam + 1.0)) >= 0.1:
            return ("pencil", lam)


def surface_stream(seed: int):
    """Endless pencil members and real Hesse members with mu > 1."""
    rng = random.Random(seed)
    for kind in itertools.cycle(SURFACE_MIX):
        if kind == "pencil":
            yield _pencil(rng)
        else:
            yield ("hesse", complex(rng.uniform(1.1, 4.0)))


def _probe_hesse(rng: random.Random):
    while True:
        mu = cmath.rect(rng.uniform(0.2, 3.0), rng.uniform(-math.pi, math.pi))
        if abs(mu ** 3 - 1.0) >= 0.1:
            return ("hesse", mu)


def _probe_generic(rng: random.Random):
    return ("generic", tuple(complex(rng.gauss(0, 1), rng.gauss(0, 1))
                             for _ in range(10)))


_PROBE_MAKERS = {
    "keyhole": _keyhole,
    "close_pass": lambda rng: _near_circle(rng, CLOSE_PASS, 1.0),
    "hesse": _probe_hesse,
    "generic": _probe_generic,
}


def surface_form(spec) -> CubicForm:
    kind, value = spec
    if kind == "pencil":
        return family_lambda(value)
    if kind == "hesse":
        return hesse_form(value)
    if kind == "generic":
        return CubicForm(np.array(value, dtype=complex))
    raise ValueError(f"unknown surface kind {kind!r}")
