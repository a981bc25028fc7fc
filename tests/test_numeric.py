"""Root finding, polishing, and the closed-form constants."""

import cmath
import itertools
import math
import os
import subprocess
import sys
from pathlib import Path

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import cubicmonodromy.numeric as numeric
from cubicmonodromy.curves import flex_quartic, flex_quartic_stack
from cubicmonodromy.errors import NonConvergence, NoUniqueMatch
from cubicmonodromy.numeric import (PRECISIONS, TOL_ROOT, constants,
                                    nearest_match, newton_polish_stack,
                                    order_key, roots_of, roots_of_stack,
                                    trimmed)


def _sorted_by_value(zs):
    return sorted(zs, key=lambda z: (round(z.real, 9), round(z.imag, 9)))


def test_poly_eval_and_derivative():
    cs = [1.0, -2.0, 0.0, 3.0]  # 3z^3 - 2z + 1
    z, h = 0.7 - 0.2j, 1e-7
    value = numeric._value(cs, z)
    assert abs(value - (3 * z ** 3 - 2 * z + 1)) < 1e-15
    p, dp, bound = numeric._evaluate(
        numeric._value_terms(np.array([cs], dtype=complex)), np.array([[z]]))
    assert abs(value - p[0, 0]) < 1e-15
    assert abs(dp[0, 0] - numeric._value([-2.0, 0.0, 9.0], z)) < 1e-15
    assert abs(bound[0, 0] - (3 * abs(z) ** 3 + 2 * abs(z) + 1)) < 1e-15
    diff = (numeric._value(cs, z + h) - numeric._value(cs, z - h)) / (2 * h)
    assert abs(diff - numeric._value([-2.0, 0.0, 9.0], z)) < 1e-6


def test_roots_of_factored_quartic():
    # (z-1)(z-2)(z-3)(z-4) = z^4 - 10z^3 + 35z^2 - 50z + 24
    p = (24.0, -50.0, 35.0, -10.0, 1.0)
    roots = _sorted_by_value(roots_of(p))
    for got, want in zip(roots, (1.0, 2.0, 3.0, 4.0)):
        assert abs(got - want) < 1e-10


def test_roots_of_complex_pairs():
    # z^4 + 1: the primitive eighth roots of unity
    p = (1.0, 0.0, 0.0, 0.0, 1.0)
    roots = roots_of(p)
    assert len(roots) == 4
    for z in roots:
        assert abs(z ** 4 + 1.0) < 1e-10


def test_roots_residuals_small():
    p = (-1.0, 12.0 * 0.3, -6.0, -4.0 * 0.3, 3.0)
    for z in roots_of(p):
        assert abs(numeric._value(p, z)) < 1e-9


def test_extended_precision_agrees_with_double():
    p = (24.0, -50.0, 35.0, -10.0, 1.0)
    dd = _sorted_by_value(roots_of(p))
    mp = _sorted_by_value(roots_of(p, precision="extended"))
    for x, y in zip(dd, mp):
        assert abs(x - y) < 1e-12


def test_roots_of_rejects_unknown_precision():
    p = (1.0, 0.0, 1.0)
    with pytest.raises(ValueError):
        roots_of(p, precision="quad")


def test_newton_polish_recovers_root():
    p = (24.0, -50.0, 35.0, -10.0, 1.0)
    z = newton_polish_stack([p], [[3.0 + 1e-3]])[0, 0]
    assert abs(z - 3.0) < 1e-12


def test_newton_polish_extended():
    # the mpmath polish roots_of_stack applies at extended precision
    p = (24.0, -50.0, 35.0, -10.0, 1.0)
    z = numeric._polish_mp(p, 2.0 + 1e-3)
    assert abs(z - 2.0) < 1e-12


def _newton_polish(coeffs, z0: complex) -> complex:
    """The Newton rule one point at a time, the reference for
    newton_polish_stack: stop at |p(z)| <= TOL_ROOT * sum_k |c_k| |z|^k, and
    after at most _MAX_NEWTON steps accept a hundredfold drop of |p|, else raise
    NonConvergence."""
    cs = trimmed(coeffs)
    dcs = (cs[1:] * np.arange(1, len(cs))).tolist()
    mags, cs = np.abs(cs).tolist(), cs.tolist()
    value = numeric._value
    z = complex(z0)
    start = abs(value(cs, z))
    for _ in range(numeric._MAX_NEWTON):
        pz = value(cs, z)
        if abs(pz) <= TOL_ROOT * value(mags, abs(z)):
            return z
        dpz = value(dcs, z)
        if dpz == 0:
            break
        z = z - pz / dpz
    pz = abs(value(cs, z))
    if pz <= TOL_ROOT * value(mags, abs(z)) or (start > 0 and pz < 1e-2 * start):
        return z
    raise NonConvergence(f"Newton polish stalled at residual {pz:.3e}")


def _horner(cs: np.ndarray, z: np.ndarray) -> np.ndarray:
    """Row k of cs (ascending) evaluated at every entry of row k of z, from
    zero: the reference for numeric._evaluate."""
    acc = np.zeros(z.shape, dtype=np.result_type(cs, z))
    for c in cs.T[::-1]:
        acc *= z
        acc += c[:, None]
    return acc


def _meets_bound(cs, z, tol=TOL_ROOT):
    """|p(z)| <= tol * sum_k |c_k| |z|^k at every entry, by two _horner
    evaluations."""
    cs = np.asarray(cs, dtype=complex)
    with np.errstate(all="ignore"):
        return (np.abs(_horner(cs, z))
                <= tol * _horner(np.abs(cs), np.abs(z)))


def _three_horner_polish(coeffs, z0, tol=TOL_ROOT):
    """newton_polish_stack as three _horner evaluations per step, of p, of p'
    and of the bound: the reference for the one-pass evaluation."""
    cs = np.asarray(coeffs, dtype=complex)
    z0 = np.asarray(z0, dtype=complex)
    dcs = cs[:, 1:] * np.arange(1, cs.shape[1])
    mags = np.abs(cs)
    z = z0
    with np.errstate(all="ignore"):
        pz = _horner(cs, z)
        start = np.abs(pz)
        met = start <= tol * _horner(mags, np.abs(z))
        active = ~met
        for _ in range(numeric._MAX_NEWTON):
            if not active.any():
                break
            dpz = _horner(dcs, z)
            active &= dpz != 0
            z = np.where(active, z - pz / dpz, z)
            pz = _horner(cs, z)
            met = np.abs(pz) <= tol * _horner(mags, np.abs(z))
            active &= ~met
        accepted = met | ((start > 0) & (np.abs(pz) < 1e-2 * start))
    return np.where(accepted, z, z0)


def _random_quartics(count: int) -> np.ndarray:
    rng = np.random.default_rng(7)
    return rng.normal(size=(count, 5)) + 1j * rng.normal(size=(count, 5))


def _same_set(a, b, tol: float) -> bool:
    dist = np.abs(np.subtract.outer(np.asarray(a), np.asarray(b)))
    return (sorted(dist.argmin(axis=1)) == list(range(len(b)))
            and dist.min(axis=1).max() <= tol)


def _polyroots(row) -> list[complex]:
    """The roots of an ascending coefficient row by mpmath at 50 digits."""
    with mpmath.workdps(50):
        exact = mpmath.polyroots([mpmath.mpc(c) for c in row[::-1]],
                                 maxsteps=200, extraprec=100)
    return [complex(z) for z in exact]


@pytest.mark.parametrize("precision", ["double", "extended"])
def test_roots_of_stack_matches_mpmath_polyroots(precision):
    coeffs = _random_quartics(100 if precision == "double" else 10)
    stacked = roots_of_stack(coeffs, precision=precision)
    assert stacked.shape == (len(coeffs), 4)
    for row, roots in zip(coeffs, stacked):
        assert _same_set(roots, _polyroots(row), 1e-12)


def test_extended_stack_roots_are_correctly_rounded():
    coeffs = _random_quartics(10)
    for row, roots in zip(coeffs, roots_of_stack(coeffs, precision="extended")):
        assert _same_set(roots, _polyroots(row), 0.0)


def _bits(zs):
    return np.array(zs, dtype=complex).tobytes()


@pytest.mark.parametrize("precision", PRECISIONS)
def test_a_remembered_root_list_is_bit_identical_to_a_solve(precision):
    p = flex_quartic(0.3 - 0.2j)
    miss = roots_of(p, precision=precision)
    hits = numeric._sorted_roots.cache_info().hits
    hit = roots_of(p, precision=precision)
    assert numeric._sorted_roots.cache_info().hits == hits + 1
    assert _bits(hit) == _bits(miss)
    numeric._sorted_roots.cache_clear()
    assert _bits(roots_of(p, precision=precision)) == _bits(miss)


def test_mutating_a_root_list_leaves_the_memo_alone():
    p = flex_quartic(0.0)
    first = roots_of(p)
    want = list(first)
    first[0] = 99.0
    first.append(1.0)
    second = roots_of(p)
    assert second is not first
    assert _bits(second) == _bits(want)


def test_signed_zero_coefficients_are_distinct_memo_keys():
    roots_of([-1.0, 0.0, 1.0])
    roots_of([-1.0, -0.0, 1.0])
    info = numeric._sorted_roots.cache_info()
    assert (info.misses, info.hits, info.currsize) == (2, 0, 2)
    roots_of(np.array([-1.0, 0.0, 1.0]))
    assert numeric._sorted_roots.cache_info().hits == 1


@pytest.mark.parametrize("n", [0, 1, 4, 9, 27])
def test_pair_indices_are_the_read_only_upper_triangle(n):
    i, j = numeric.pair_indices(n)
    want_i, want_j = np.triu_indices(n, 1)
    assert np.array_equal(i, want_i) and np.array_equal(j, want_j)
    assert numeric.pair_indices(n)[0] is i
    with pytest.raises(ValueError, match="read-only"):
        i[...] = 0


def test_roots_of_is_the_sorted_stack_row():
    p = (-1.0, 12.0 * 0.3, -6.0, -4.0 * 0.3, 3.0, 0.0)
    row = roots_of_stack([p[:-1]])[0]
    assert roots_of(p) == sorted(row.tolist(), key=order_key)
    assert roots_of((2.0, 1e-13)) == []
    # an exact root 0 with c_0 = 0: |p(z)| and its bound are both 0
    assert roots_of((0.0, 1.0, 1.0)) == [-1.0, 0.0]


def test_roots_at_a_large_parameter_pass_the_backward_error():
    # at lambda = 1000 the root near 4 lambda / 3 has |p(z)| / max|c| about
    # 2e-10, Horner rounding alone; its backward error is about 1e-17
    q = flex_quartic(1000.0)
    for precision in ("double", "extended"):
        assert _same_set(roots_of(q, precision=precision), _polyroots(q),
                         1e-12)


def test_polish_stops_at_the_backward_error(monkeypatch):
    # at lambda = 1000 the closed-form starts already meet |p(z)| <= tol sum
    # |c_k||z|^k: one evaluation for their Newton step, one for the polish,
    # from which the acceptance is read
    calls = []
    evaluate = numeric._evaluate

    def counted(terms, z):
        calls.append(1)
        return evaluate(terms, z)

    monkeypatch.setattr(numeric, "_evaluate", counted)
    roots = roots_of_stack(flex_quartic_stack(np.full(100, 1000.0)))
    assert len(calls) == 2
    assert _same_set(roots[0], _polyroots(flex_quartic(1000.0)), 1e-12)


@pytest.mark.parametrize("coeffs, message", [
    ((1.0, float("inf")), "non-finite"), ((0.0, 0.0), "zero polynomial"),
    ((), "zero polynomial"), ([[1.0, 2.0]], "1-d")])
def test_roots_of_rejects_malformed_coefficients(coeffs, message):
    with pytest.raises(ValueError, match=message):
        roots_of(coeffs)


def test_trimmed_drops_negligible_leading_coefficients():
    assert trimmed((1.0, 2.0, 1e-13, 0.0)).tolist() == [1.0, 2.0]
    assert trimmed((1.0, 2.0, 1e-10)).tolist() == [1.0, 2.0, 1e-10]
    assert trimmed((1.0, 2.0, 1e-10), 1e-9).tolist() == [1.0, 2.0]
    assert trimmed((3.0,)).tolist() == [3.0]


def _shift_row_3(out):
    out[3] += 1e-3


def _scale_row_1(out):
    out[1] *= 1 + 1e-9


def _scale_row_0(out):
    out[0] *= 1 + 1e-9


def _missed_row(monkeypatch, owner, name, perturb, coeffs) -> int:
    """The NonConvergence row of roots_of_stack(coeffs) when the starts from
    owner.name are perturbed in place and not polished."""
    solve = getattr(owner, name)

    def perturbed(arg):
        out = solve(arg)
        perturb(out)
        return out

    def unpolished(cs, z, tol):
        return z, _meets_bound(cs, z, tol)

    monkeypatch.setattr(owner, name, perturbed)
    monkeypatch.setattr(numeric, "_polish", unpolished)
    with pytest.raises(NonConvergence) as info:
        roots_of_stack(coeffs)
    return info.value.row


def test_roots_of_stack_raises_on_a_missed_residual(monkeypatch):
    assert _missed_row(monkeypatch, numeric, "_quartic_starts", _shift_row_3,
                       _random_quartics(5)) == 3


def test_a_perturbed_large_root_misses_the_backward_error(monkeypatch):
    assert _missed_row(monkeypatch, numeric, "_quartic_starts", _scale_row_1,
                       flex_quartic_stack([0.0, 1000.0])) == 1


@pytest.mark.parametrize("coeffs, perturb, row", [
    (_random_quartics(5)[:, :4], _shift_row_3, 3),      # a stack of cubics
    (flex_quartic_stack([1000.0]), _scale_row_0, 0)],   # a lone quartic
    ids=["cubic-stack", "lone-quartic"])
def test_the_eigvals_route_raises_on_a_missed_residual(monkeypatch, coeffs,
                                                       perturb, row):
    assert _missed_row(monkeypatch, np.linalg, "eigvals", perturb, coeffs) == row


def test_only_lone_polynomials_and_other_degrees_call_eigvals(monkeypatch):
    calls = []
    eigvals = np.linalg.eigvals
    monkeypatch.setattr(np.linalg, "eigvals",
                        lambda m: calls.append(m.shape) or eigvals(m))
    roots_of_stack(_random_quartics(3))
    assert calls == []
    roots_of_stack(_random_quartics(1))
    roots_of_stack(_random_quartics(3)[:, :4])
    roots_of(flex_quartic(0.5))
    assert calls == [(1, 4, 4), (3, 3, 3), (1, 4, 4)]


@pytest.mark.parametrize("coeffs", [
    _random_quartics(50),
    flex_quartic_stack([0.0, 1000.0, -1000.0, 1000j]),
    flex_quartic_stack([0.0, 0.0, 0.5]),
    np.array([[1.0, 0, 0, 0, 1.0], [-1.0, 0, 2.0, 0, 3.0]])],
    ids=["random", "large", "pencil-at-0", "biquadratic"])
def test_quartic_stack_rows_match_mpmath_and_roots_of(coeffs):
    stacked = roots_of_stack(coeffs)
    for row, roots in zip(coeffs, stacked):
        assert _same_set(roots, _polyroots(row), 1e-12)
        assert _same_set(roots, roots_of(row), 1e-12)


def test_quartic_stack_starts_are_accurate_before_the_polish():
    # the closed form and its one Newton step meet 1e-12 on their own, also
    # at lam = 1000 (3e-11 off without the step) and at the biquadratic
    # lam = 0, where q = 0 and 0 is a root of the resolvent cubic
    coeffs = np.vstack([_random_quartics(50),
                        flex_quartic_stack([1000.0, 0.0, 1000j])])
    for row, roots in zip(coeffs, numeric._quartic_starts(coeffs)):
        assert _same_set(roots, _polyroots(row), 1e-12)


@pytest.mark.parametrize("node", [1.0, -1.0])
@pytest.mark.parametrize("dist", [1e-5, 1e-4, 1e-3, 1e-2, 1e-1])
def test_quartic_stack_near_the_nodes_keeps_four_distinct_roots(node, dist):
    # near lam = +-1 three roots close in on a triple root and no double
    # precision solver meets 1e-12 below dist = 1e-3; there the bound is the
    # worst error of the eigvals route over the same ring of eight members
    coeffs = flex_quartic_stack(node + dist * np.exp(2j * np.pi * np.arange(8) / 8))
    exact = [np.array(_polyroots(row)) for row in coeffs]

    def worst(solved):
        return max(np.abs(np.subtract.outer(z, x)).min(axis=0).max()
                   for z, x in zip(solved, exact))

    stacked = roots_of_stack(coeffs)
    assert worst(stacked) <= max(1e-12, worst([roots_of(row) for row in coeffs]))
    for roots, x in zip(stacked, exact):
        # one stacked root nearest each exact root, none of them repeated
        assert _same_set(roots, x, math.inf)
        assert np.abs(np.subtract.outer(roots, roots))[np.triu_indices(4, 1)].min() > 0


def test_flex_quartic_roots_at_zero_keep_their_labels(monkeypatch):
    # roots -a, -t, t, a with t = i a (2 - sqrt 3); -t and t share a real
    # part, so rounding noise there must not decide their order
    a = constants().a
    t = 1j * a * (2.0 - math.sqrt(3.0))
    want = [-a, -t, t, a]
    got = roots_of(flex_quartic(0.0))
    assert np.abs(np.array(got) - want).max() < 1e-14
    solve = numeric.roots_of_stack
    calls = []
    for signs in itertools.product((-1.0, 1.0), repeat=4):
        def noisy(*args, _signs=signs):
            calls.append(_signs)
            return solve(*args)[:, ::-1] + 1e-15 * np.array(_signs)
        monkeypatch.setattr(numeric, "roots_of_stack", noisy)
        # the memo would answer from the unpatched solve above
        numeric._sorted_roots.cache_clear()
        got = roots_of(flex_quartic(0.0))
        assert np.abs(np.array(got) - want).max() < 1e-14
    assert len(calls) == 16


@pytest.mark.parametrize("coeffs, precision", [
    ([[1.0, 0.0, float("nan")]], "double"), ([[1.0, 2.0, 1e-14]], "double"),
    ([[1.0]], "double"), ([1.0, 2.0], "double"), ([[1.0, 2.0]], "quad")])
def test_roots_of_stack_rejects_malformed_input(coeffs, precision):
    with pytest.raises(ValueError):
        roots_of_stack(coeffs, precision=precision)


def test_newton_polish_stack_matches_newton_polish():
    coeffs = _random_quartics(20)
    starts = _random_quartics(20)[:, :4] + 0.05
    polished = newton_polish_stack(coeffs, starts)
    for row, zs, got in zip(coeffs, starts, polished):
        for z, w in zip(zs, got):
            try:
                want = _newton_polish(row, z)
            except NonConvergence:
                want = z
            assert abs(w - want) < 1e-12


def _polish_cases():
    """(coeffs, starts) stacks for the one-pass polish: random quartics from
    near and far starts, p' = 0 at the start, exact roots where the bound is
    0, a Newton 2-cycle, and flex quartics at large parameters started from
    the roots of other members."""
    rng = np.random.default_rng(11)
    quartics = _random_quartics(30)
    near = quartics[:, :4] + 0.05 * rng.normal(size=(30, 4))
    far = 1e3 * rng.normal(size=(30, 4)) + 1e3j * rng.normal(size=(30, 4))
    yield quartics, near
    yield quartics, far
    yield quartics, np.where(rng.random((30, 4)) < 0.5, near, far)
    # z^2 + 1 at 0 (p' = 0), z^2 + z at its exact roots 0 and -1 (the
    # bound is 0 at 0), z^2 - 2 from an exact zero start
    yield ([[1.0, 0.0, 1.0], [0.0, 1.0, 1.0], [-2.0, 0.0, 1.0]],
           [[0.0, 0.9j, 1e-3], [0.0, -1.0, 0.3], [0.0, 1.4, -1.4]])
    # z^3 - 2z + 2 near its Newton 2-cycle 0, 1: a stalled entry
    yield [[2.0, -2.0, 0.0, 1.0]], [[0.1, 1.0, -1.7, 0.9j]]
    lams = np.array([1000.0, -1000.0, 1000j, 0.3])
    fresh = roots_of_stack(flex_quartic_stack(lams))
    yield flex_quartic_stack(lams[::-1]), fresh


# at tol = 1e-20 almost no entry meets the bound: most run _MAX_NEWTON steps
# and keep their start or their hundredfold improvement
@pytest.mark.parametrize("tol", [TOL_ROOT, 1e-20])
@pytest.mark.parametrize("coeffs, starts", list(_polish_cases()))
def test_one_pass_polish_equals_three_horner_evaluations(coeffs, starts, tol):
    cs = np.asarray(coeffs, dtype=complex)
    z0 = np.asarray(starts, dtype=complex)
    want = _three_horner_polish(cs, z0, tol)
    assert np.array_equal(newton_polish_stack(cs, z0, tol), want)
    z, ok = numeric._polish(cs, z0, tol)
    assert np.array_equal(z, want)
    # the acceptance roots_of_stack reads is the bound at the returned point
    assert np.array_equal(ok, _meets_bound(cs, want, tol))


def test_one_pass_evaluation_is_p_dp_and_the_bound():
    cs = _random_quartics(6)
    z = _random_quartics(6)[:, :3]
    p, dp, bound = numeric._evaluate(numeric._value_terms(cs), z)
    dcs = cs[:, 1:] * np.arange(1, 5)
    assert np.array_equal(p, _horner(cs, z))
    assert np.array_equal(dp, _horner(dcs, z))
    assert np.array_equal(bound, _horner(np.abs(cs), np.abs(z)))


@pytest.mark.parametrize("coeffs, start", [
    ((1.0, 0.0, 1.0), 0.0),              # z^2 + 1 at 0: p' vanishes
    ((2.0, -2.0, 0.0, 1.0), 0.1)])       # z^3 - 2z + 2 near its 2-cycle 0, 1
def test_newton_polish_stack_keeps_a_start_it_cannot_improve(coeffs, start):
    with pytest.raises(NonConvergence):
        _newton_polish(coeffs, start)
    out = newton_polish_stack([coeffs], [[start, 0.9j]])
    assert out[0, 0] == start
    assert abs(numeric._value(coeffs, out[0, 1])) < 1e-10


def test_constants_closed_forms():
    c = constants()
    s3 = math.sqrt(3.0)
    assert abs(c.a ** 2 - (3.0 + 2.0 * s3) / 3.0) < 1e-14
    assert abs(c.b ** 2 - c.a * 2.0 * s3 / 3.0) < 1e-14
    assert abs(c.mu - (s3 + 1.0)) < 1e-14
    assert abs(c.eta ** 3 + (c.mu ** 3 - 1.0)) < 1e-12
    assert abs(c.omega - cmath.exp(2j * cmath.pi / 3.0)) < 1e-14
    assert abs(c.omega ** 3 - 1.0) < 1e-14


def test_importing_the_cli_leaves_mpmath_unloaded():
    # mpmath is only for extended precision; a fresh interpreter that
    # imports the command line front end must not pay for it
    src = Path(__file__).resolve().parent.parent / "src"
    code = "import sys, cubicmonodromy.cli; print('mpmath' in sys.modules)"
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, timeout=120,
                          env=dict(os.environ, PYTHONPATH=str(src)))
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"


def test_extended_precision_still_polishes_with_mpmath():
    z = numeric._newton_mp([-2, 0, 1], 1.4, 1e-40)
    assert abs(z - math.sqrt(2)) < 1e-15


def _scalar_match_rule(dist, tol, one_to_one):
    """The matching rule as its callers wrote it out one row at a time: the
    first smallest distance of a stable sort, which must beat the runner-up
    by a factor of two and lie within tol; with one_to_one the images must
    be a bijection onto the columns.  None where the rule rejects."""
    images = []
    for row in dist.tolist():
        order = sorted(range(len(row)), key=row.__getitem__)
        if len(order) > 1 and row[order[0]] >= 0.5 * row[order[1]]:
            return None
        if row[order[0]] > tol:
            return None
        images.append(order[0])
    if one_to_one and sorted(images) != list(range(dist.shape[1])):
        return None
    return images


# ties, exact factor-two boundaries, and values at and just over tol = 1e-6
_EDGES = [0.0, 0.5, 1.0, 2.0, 1e-6, math.nextafter(1e-6, 1.0), 2e-6]


@st.composite
def _distance_stacks(draw):
    k, m = draw(st.integers(1, 3)), draw(st.integers(1, 5))
    n = draw(st.one_of(st.just(m), st.integers(1, 5)))
    entry = st.one_of(st.sampled_from(_EDGES), st.floats(0.0, 4.0))
    dist = np.array(draw(st.lists(entry, min_size=k * m * n,
                                  max_size=k * m * n))).reshape(k, m, n)
    if draw(st.booleans()):
        # plant a small nearest column in every row, a permutation if square,
        # often with a clear margin to the rest
        dist += draw(st.sampled_from([0.0, 1.0]))
        small = st.sampled_from(_EDGES[:1] + _EDGES[4:6])
        for d in dist:
            cols = draw(st.permutations(range(max(m, n))))
            for i in range(m):
                d[i, cols[i] % n] = draw(small)
    return dist if draw(st.booleans()) else dist[0]


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(_distance_stacks(), st.sampled_from([math.inf, 1e-6, 1.0]),
       st.booleans())
@example(np.array([[1e-6, 1.0], [1.0, 1e-6]]), 1e-6, True)
@example(np.array([[_EDGES[5], 1.0]]), 1e-6, False)
@example(np.array([[1.0, 2.0], [2.0, 0.0]]), math.inf, False)
def test_nearest_match_agrees_with_the_scalar_rule(dist, tol, one_to_one):
    mats = dist if dist.ndim == 3 else dist[None]
    want = [_scalar_match_rule(d, tol, one_to_one) for d in mats]
    if any(w is None for w in want):
        with pytest.raises(NoUniqueMatch):
            nearest_match(dist, tol, one_to_one)
    else:
        got = nearest_match(dist, tol, one_to_one).tolist()
        assert got == (want if dist.ndim == 3 else want[0])


@pytest.mark.parametrize("dist, one_to_one", [
    ([[0.1, math.nan, 5.0]], False), ([[math.nan, 0.1, 5.0]], False),
    ([[0.1, 5.0, math.nan]], False), ([[math.nan]], False),
    ([[0.0, 1.0], [1.0, math.nan]], True), ([[0.0, 1.0], [math.nan, 0.0]], True)])
def test_a_nan_distance_is_no_match(dist, one_to_one):
    # NaN sorts last, out of reach of the margin test, while argmin picks it
    with pytest.raises(NoUniqueMatch, match="NaN"):
        nearest_match(dist, one_to_one=one_to_one)


@pytest.mark.parametrize("shape, one_to_one", [
    ((3, 0), False), ((2, 3, 0), False), ((1, 0), False), ((3, 0), True)])
def test_a_row_without_candidates_has_no_match(shape, one_to_one):
    with pytest.raises(NoUniqueMatch):
        nearest_match(np.zeros(shape), one_to_one=one_to_one)


@pytest.mark.parametrize("shape", [(0, 0), (2, 0, 0), (0, 3)])
@pytest.mark.parametrize("one_to_one", [True, False])
def test_nothing_to_match_is_the_empty_matching(shape, one_to_one):
    if one_to_one and shape[-1] != shape[-2]:
        with pytest.raises(NoUniqueMatch, match="cannot be one to one"):
            nearest_match(np.zeros(shape), one_to_one=one_to_one)
        return
    hits = nearest_match(np.zeros(shape), one_to_one=one_to_one)
    assert hits.shape == shape[:-1] and hits.dtype == np.intp


def _sorted_match(dist, tol: float = math.inf, one_to_one: bool = True):
    """nearest_match by a sort of every row: the reference for its column
    scan, for rows with at least one candidate."""
    dist = np.asarray(dist, dtype=float)
    m, n = dist.shape[-2:]
    if one_to_one and m != n:
        raise NoUniqueMatch(f"a {m} x {n} matching cannot be one to one")
    near = np.sort(dist, axis=-1)
    # NaN sorts last, where the margin test below would not see it
    if np.isnan(near[..., -1]).any():
        raise NoUniqueMatch("a distance is NaN")
    best = near[..., 0]
    if n > 1 and not (best < 0.5 * near[..., 1]).all():
        raise NoUniqueMatch("nearest candidate is not below half the runner-up")
    if not (best <= tol).all():
        raise NoUniqueMatch(f"nearest candidate at {best.max():.3e} > {tol:.1e}")
    hits = dist.argmin(axis=-1)
    if one_to_one and (np.sort(hits, axis=-1) != np.arange(n)).any():
        raise NoUniqueMatch("matching is not one to one")
    return hits


@st.composite
def _wild_distance_stacks(draw):
    """_distance_stacks with some entries made +inf, -inf or NaN."""
    dist = draw(_distance_stacks())
    flat = dist.reshape(-1)
    for i in draw(st.lists(st.integers(0, flat.size - 1), max_size=3)):
        flat[i] = draw(st.sampled_from([math.inf, -math.inf, math.nan]))
    return dist


def _outcome(match, dist, tol, one_to_one):
    try:
        return match(dist, tol, one_to_one)
    except NoUniqueMatch as exc:
        return str(exc)


@settings(max_examples=400, deadline=None, derandomize=True, database=None)
@given(_wild_distance_stacks(), st.sampled_from([math.inf, 1e-6, 1.0, 0.0]),
       st.booleans())
@example(np.array([[math.inf, math.inf]]), math.inf, False)
@example(np.array([[-math.inf, -math.inf], [0.0, 1.0]]), math.inf, False)
@example(np.array([[0.0, math.inf], [math.inf, 0.0]]), math.inf, True)
@example(np.array([[[1.0], [math.nan]]]), math.inf, False)
@example(np.array([[0.0, 1.0, 1.0], [1.0, 0.0, 1.0]]), 1.0, False)
def test_column_scan_agrees_with_the_sorted_rule(dist, tol, one_to_one):
    want = _outcome(_sorted_match, dist, tol, one_to_one)
    got = _outcome(nearest_match, dist, tol, one_to_one)
    if isinstance(want, str):
        assert got == want
    else:
        assert not isinstance(got, str), got
        assert np.array_equal(got, want)


@pytest.mark.parametrize("dist, hits", [
    ([[0.0, 1.0, 1.0], [1.0, 0.0, 1.0]], [0, 1]),
    ([[0.0, 1.0], [1.0, 0.0], [0.0, 1.0]], [0, 1, 0])])
def test_nearest_match_one_to_one_needs_a_square_matrix(dist, hits):
    assert nearest_match(dist, one_to_one=False).tolist() == hits
    with pytest.raises(NoUniqueMatch, match="cannot be one to one"):
        nearest_match(dist)
