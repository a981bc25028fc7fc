"""Numerics: the flex quartic's roots, Newton polish, and value matching.

All public routines are deterministic for a fixed input.  The one
polynomial solved anywhere is the pencil's flex quartic
(curves.flex_quartic_stack): five coefficients, ascending (entry k is the
z^k term); a stack of quartics is an (n, 5) array, one per row.  The one
root finder, `roots_of_stack`, solves such a stack: start points from
Ferrari's closed form for two or more rows, else from the eigenvalues of the
lone row's 4 x 4 companion matrix, then one array Newton polish of the whole
stack (`newton_polish_stack`) and, for extended precision, an mpmath Newton
polish of every root.  A root is accepted on its backward error: |p(z)|
against sum_k |c_k| |z|^k, the bound on the rounding error of evaluating p
at z (Higham, Accuracy and Stability of Numerical Algorithms, ch. 5).  The
double-precision Newton polish stops at that same bound, evaluating p, p'
and the bound in one Horner pass over the three stacked together, and in
double precision its last evaluation is the acceptance.  `roots_of` is
one sorted row of it; it remembers its last _MEMO_SIZE results, since a
tracker solves the same base quartic on every trace.  `nearest_match` is
the one rule by which roots, inflections, lines and transcribed values are
matched; it finds the nearest and runner-up candidates of every row in one
scan over the candidate columns.
"""

from __future__ import annotations

import cmath
import functools
import math

import numpy as np

from .errors import NonConvergence, NoUniqueMatch

TOL_ROOT = 1e-10
TOL_MATCH = 1e-6
TOL_LEAD = 1e-12

# the primitive cube root of unity exp(2 pi i / 3): the deck rotation of the
# cover and the Hesse pencil's flexes; every module reads this one value
OMEGA = cmath.exp(2j * cmath.pi / 3.0)

_MAX_NEWTON = 60
_EXTENDED_DPS = 50
# extended polish target, relative to the largest coefficient: 10 digits short
_EXTENDED_GOAL = 10.0 ** (10 - _EXTENDED_DPS)

PRECISIONS = ("double", "extended")

# sorted roots_of results kept, keyed by the exact coefficient bytes.  The
# only repeated key is the base quartic at lambda = 0: 400 seeded loops, the
# keyhole and close-pass probes and extended-precision loops use 4 distinct
# keys (three signed-zero variants in double precision, one in extended), and
# verify --scope all one.  The other caller, inflection_points' pencil flex
# quartic, once per surface, never repeats a key; for it the memo costs a
# tobytes and a hash against a 150 us solve.
_MEMO_SIZE = 4


@functools.cache
def pair_indices(n: int) -> tuple[np.ndarray, np.ndarray]:
    """np.triu_indices(n, 1), the pairs i < j of n points, built once per n
    and read-only."""
    i, j = np.triu_indices(n, 1)
    i.flags.writeable = j.flags.writeable = False
    return i, j


def order_key(z: complex) -> tuple[float, float]:
    """Sort key (real, imag), each rounded to 9 decimals, so that rounding
    noise cannot flip the order of two values whose real parts agree (a
    conjugate pair on the imaginary axis, say)."""
    return (round(z.real, 9), round(z.imag, 9))


def nearest_match(dist, tol: float = math.inf,
                  one_to_one: bool = True) -> np.ndarray:
    """Nearest column of every row of a stack of (m, n) distance matrices.

    Returns the argmin along the last axis.  Raises NoUniqueMatch unless
    no distance is NaN, every nearest distance is below half the runner-up
    (a heuristic margin, not a certificate) and at most tol, and, with
    one_to_one, the hits of every matrix form a permutation, so m == n.
    A row with no candidate (n = 0) has no match; an empty one-to-one
    matching (m = n = 0) is the empty permutation.
    """
    dist = np.asarray(dist, dtype=float)
    m, n = dist.shape[-2:]
    if one_to_one and m != n:
        raise NoUniqueMatch(f"a {m} x {n} matching cannot be one to one")
    if n == 0:
        if m:
            raise NoUniqueMatch("no candidate to match")
        return np.zeros(dist.shape[:-1], dtype=np.intp)
    # the nearest and the runner-up of every row, one candidate column at a
    # time; np.minimum carries a NaN anywhere in the row into best
    best, second = dist[..., 0], math.inf
    for j in range(1, n):
        col = dist[..., j]
        second = np.minimum(second, np.maximum(best, col))
        best = np.minimum(best, col)
    if np.isnan(best).any():
        raise NoUniqueMatch("a distance is NaN")
    if n > 1 and not (best < 0.5 * second).all():
        raise NoUniqueMatch("nearest candidate is not below half the runner-up")
    if not (best <= tol).all():
        raise NoUniqueMatch(f"nearest candidate at {best.max():.3e} > {tol:.1e}")
    hits = dist.argmin(axis=-1)
    if one_to_one and (np.sort(hits, axis=-1) != np.arange(n)).any():
        raise NoUniqueMatch("matching is not one to one")
    return hits


def roots_of(coeffs, precision: str = "double") -> list[complex]:
    """The four complex roots of a quartic, with multiplicity, sorted by
    order_key.

    coeffs are its five ascending coefficients; any other shape is a
    ValueError.  The roots are the roots_of_stack row, with its checks, its
    TOL_ROOT residual acceptance and NonConvergence.  Each call returns a
    new list.
    """
    cs = np.asarray(coeffs, dtype=complex)
    if cs.shape != (5,):
        raise ValueError("need a quartic's five coefficients as a 1-d sequence")
    return list(_sorted_roots(cs.tobytes(), precision))


@functools.lru_cache(maxsize=_MEMO_SIZE)
def _sorted_roots(key: bytes, precision: str) -> tuple[complex, ...]:
    """roots_of for the complex coefficients whose bytes are key, so that
    -0.0 and 0.0 are told apart and a hit is bit-identical to a solve."""
    cs = np.frombuffer(key, dtype=complex)
    roots = roots_of_stack(cs[None], precision)[0].tolist()
    return tuple(sorted(roots, key=order_key))


def _value(cs, z):
    """sum_k cs[k] z^k by Horner's rule at one point, in z's own arithmetic."""
    acc = 0 * z
    for c in reversed(cs):
        acc = acc * z + c
    return acc


def _newton_mp(coeffs, z0: complex, tol: float) -> complex:
    import mpmath  # imported here: double precision never needs it

    with mpmath.workdps(_EXTENDED_DPS):
        cs = [mpmath.mpc(c) for c in coeffs]
        dcs = [k * c for k, c in enumerate(cs) if k > 0]
        goal = mpmath.mpf(tol) * max(abs(c) for c in cs)
        z = mpmath.mpc(z0)
        for _ in range(_MAX_NEWTON):
            pz = _value(cs, z)
            if abs(pz) < goal:
                return complex(z)
            dpz = _value(dcs, z)
            if dpz == 0:
                break
            z = z - pz / dpz
        if abs(_value(cs, z)) < goal:
            return complex(z)
        raise NonConvergence("extended-precision Newton stalled")


def _value_terms(cs: np.ndarray) -> np.ndarray:
    """The coefficients of p, p' and sum_j |c_j| x^j for every row of the
    (n, d + 1) stack cs, level k holding the x^k terms: shape (d + 1, 3, n, 1),
    p' padded with a zero on top."""
    n, size = cs.shape
    terms = np.zeros((size, 3, n, 1), dtype=complex)
    terms[:, 0, :, 0] = cs.T
    terms[:-1, 1, :, 0] = (cs[:, 1:] * np.arange(1, size)).T
    terms[:, 2, :, 0] = np.abs(cs).T
    return terms


def _evaluate(terms: np.ndarray,
              z: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """p(z), p'(z) and the backward-error bound sum_j |c_j| |z|^j at every
    entry of row k of z, for the polynomial of row k of _value_terms: one
    Horner pass over the three, from the leading coefficient.  The bound is
    carried as a complex number with zero imaginary part."""
    at = np.empty((3,) + z.shape, dtype=complex)
    at[:2] = z
    at[2] = np.abs(z)
    acc = np.empty_like(at)
    acc[...] = terms[-1]
    for c in terms[-2::-1]:
        acc *= at
        acc += c
    return acc[0], acc[1], acc[2].real


def newton_polish_stack(coeffs, z0) -> np.ndarray:
    """Newton iteration from every entry of z0 at once, in double precision.

    coeffs has shape (n, d + 1), ascending (the tracker's are quartics);
    entry (k, i) of z0, shape (n, m), is polished on row k until
    |p(z)| <= TOL_ROOT * sum_j |c_j| |z|^j, the backward error
    roots_of_stack accepts, for at most _MAX_NEWTON steps.  An entry that
    neither meets the bound nor improves |p| a hundredfold (or meets p' = 0
    on the way) is returned as it was given.
    """
    return _polish(np.asarray(coeffs, dtype=complex),
                   np.asarray(z0, dtype=complex))[0]


def _polish(cs: np.ndarray, z0: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """newton_polish_stack and, for every entry of its result, whether that
    entry meets the bound: an entry returned as given never met it."""
    terms = _value_terms(cs)
    z = z0
    with np.errstate(all="ignore"):
        pz, dpz, bound = _evaluate(terms, z)
        start = np.abs(pz)
        # "<=" so that an exact root passes where the bound is 0 (z = 0 = c_0)
        met = start <= TOL_ROOT * bound
        active = ~met
        for _ in range(_MAX_NEWTON):
            if not active.any():
                break
            active &= dpz != 0
            z = np.where(active, z - pz / dpz, z)
            pz, dpz, bound = _evaluate(terms, z)
            met = np.abs(pz) <= TOL_ROOT * bound
            active &= ~met
        accepted = met | ((start > 0) & (np.abs(pz) < 1e-2 * start))
    return np.where(accepted, z, z0), met


def roots_of_stack(coeffs, precision: str = "double") -> np.ndarray:
    """The four roots of every quartic of a stack, as an (n, 4) array.

    coeffs has shape (n, 5), column k holding the z^k terms; any other shape
    is a ValueError, and so is a leading coefficient at most TOL_LEAD of its
    row's largest one.  The starts are _quartic_starts for two or more rows,
    else the eigenvalues of the companion matrix; row k of the result holds
    the roots of row k in start order, not sorted.  Extended precision
    polishes every root with mpmath Newton toward _EXTENDED_GOAL, then rounds
    it.  Residual acceptance, a backward error: |p(z)| <= TOL_ROOT sum_k
    |c_k| |z|^k for every root, else NonConvergence, which names the first
    failing row.
    """
    if precision not in PRECISIONS:
        raise ValueError(f"unknown precision {precision!r}")
    cs = np.asarray(coeffs, dtype=complex)
    if cs.ndim != 2 or cs.shape[1] != 5:
        raise ValueError("need an (n, 5) stack of quartic coefficients")
    if not np.isfinite(cs).all():
        raise ValueError("non-finite coefficient")
    scale = np.abs(cs).max(axis=1, keepdims=True)
    if (np.abs(cs[:, -1:]) <= TOL_LEAD * scale).any():
        raise ValueError("negligible leading coefficient")
    if len(cs) > 1:
        z = _quartic_starts(cs)
    else:
        companion = np.repeat(np.eye(4, k=-1, dtype=complex)[None], len(cs), axis=0)
        companion[:, :, -1] = -cs[:, :-1] / cs[:, -1:]
        z = np.linalg.eigvals(companion)
    z, ok = _polish(cs, z)
    if precision == "extended":
        z = np.array([[_polish_mp(row, zi) for zi in zs]
                      for row, zs in zip(cs, z)], dtype=complex).reshape(z.shape)
        with np.errstate(all="ignore"):
            pz, _, bound = _evaluate(_value_terms(cs), z)
            ok = np.abs(pz) <= TOL_ROOT * bound
    missed = np.flatnonzero(~ok.all(axis=1))
    if missed.size:
        raise NonConvergence(
            f"roots of row {missed[0]} miss the residual {TOL_ROOT:.1e}")
    return z


def _quartic_starts(cs: np.ndarray) -> np.ndarray:
    """The roots of every row of an (n, 5) stack by Ferrari's method, then
    one Newton step.

    With z = y - b/4 the monic quartic is y^4 + p y^2 + q y + r; at a root m
    of the resolvent m^3 + p m^2 + (p^2/4 - r) m - q^2/8 and S = +-sqrt(2m)
    it splits into y^2 - S y + K, K = p/2 + m + q/(2S).  For stability m is
    the resolvent root of largest modulus, from the cube root of Cardano's
    larger radicand, and each quadratic's smaller root is K over its larger
    one.  The Newton step recovers the digits the shift loses at large |b|.
    On 100 rows this costs a third of the companion eigensolve, on one row
    three times as much, so a lone quartic keeps eigvals.
    """
    b, c, d, e = (cs[:, 3::-1] / cs[:, 4:]).T
    b4 = b / 4
    bb = b4 * b4
    p = c - 6 * bb
    q = d - 2 * b4 * c + 8 * b4 * bb
    r = e - b4 * d + bb * c - 3 * bb * bb
    with np.errstate(all="ignore"):
        # the resolvent in t = m + p/3: t^3 + P t + Q
        P = -p * p / 12 - r
        Q = p * (r / 3 - p * p / 108) - q * q / 8
        Q2 = Q / 2
        h = np.sqrt(Q2 * Q2 + P * P * P / 27)
        w = np.where(np.abs(h - Q2) >= np.abs(h + Q2), h - Q2, -h - Q2)
        u = w[:, None] ** (1 / 3) * np.array([1, OMEGA, OMEGA.conjugate()])
        ms = np.where(u != 0, u - P[:, None] / (3 * u), 0) - p[:, None] / 3
        m = np.take_along_axis(ms, np.abs(ms).argmax(axis=1)[:, None], axis=1)
        S = np.sqrt(2 * m) * np.array([1, -1])
        K = p[:, None] / 2 + m + np.where(S != 0, q[:, None] / (2 * S), 0)
        root = np.sqrt(S * S - 4 * K)
        y = (S + np.where((S.conj() * root).real >= 0, root, -root)) / 2
        z = np.hstack([y, np.where(y != 0, K / y, 0)]) - b4[:, None]
        pz, dpz, _ = _evaluate(_value_terms(cs), z)
        step = z - pz / dpz
    return np.where(np.isfinite(step), step, z)


def _polish_mp(coeffs, z0: complex) -> complex:
    try:
        return _newton_mp(coeffs, z0, _EXTENDED_GOAL)
    except NonConvergence:
        return z0

