"""End-to-end verification battery.

Two independent routes, each a GeneratorSource of a deck matrix and four
generators, produce the same 648-element matrix group: the transcribed
reference matrices, and the geometric pipeline (lines, deck rotation,
the translations of the base curve by two of its 3-torsion flexes, loop
tracking).  Five checks run on both sources with the same expected values,
the others on one route; together they compare both groups against the
centralizer of the deck class and confirm the abstract semidirect model by
exhaustive generator-word checks.  The tracked loop actions are compared
with the paper's, transcribed as cycles on closed forms of the branch roots
and flex heights at lambda = 0 (_ROOT_CYCLES, _FLEX_CYCLES).
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable

import numpy as np

from .curves import flex_quartic
from .errors import AmbiguousMatching, NotAMember
from .fixtures import load_fixtures
from .groups import (HEISENBERG_ALL, MODEL_IDENTITY, SL2_ALL, ModelElement,
                     SemidirectGroup, conjugation_relations, corrected_action,
                     identify_order24, index_table, intersect, is_normal,
                     semidirect_model, sl2_mul, verify_generator_map)
from .lines import (J_FORM, TOL_TRANSFORM, base_surface, concurrent_triples,
                    deck_permutation, form_ratio, induced_line_perm,
                    is_strongly_regular_27, lift_to_lines, perm_compose,
                    perm_to_lattice_map, preserves_incidence, translation)
from .numeric import nearest_match, pair_indices, roots_of
from .report import SCOPES, Check, VerificationReport, jsonable
from .tracking import (LoopTrace, TrackingConfig, constant_loop,
                       flex_lattice_map, gamma_minus, gamma_plus, trace_loop)
from .weyl import (WEYL_ORDER, FiniteMatrixGroup, centralizer, conjugacy_class,
                   conjugacy_class_size, lattice_inverse, lattice_invariants,
                   weyl_group)

TOL_TRANSCRIBE = 1e-6


# ---------------------------------------------------------------------------
# transcribed loop actions: the closed forms of the base data at lambda = 0,
# and the cycles each loop makes of them, matched by value so label order
# cannot drift

_S3 = math.sqrt(3.0)
# a^2 = (3 + 2 sqrt 3) / 3 and b^2 = a 2 sqrt 3 / 3, both positive roots
_A = math.sqrt((3.0 + 2.0 * _S3) / 3.0)
_B = math.sqrt(_A * 2.0 * _S3 / 3.0)
# the branch roots are -a, -t, t, a; the heights of the eight non-base
# flexes are +-b, +-ib, +-p and +-m, with p, m = q(1 + i), q(1 - i)
_T = 1j * _A * (2.0 - _S3)
_Q = _B * (_S3 - 1.0) / 2.0
_P, _M = _Q * (1 + 1j), _Q * (1 - 1j)

# each loop kind's action as cycles that hold every base value once; a
# fixed value is a 1-cycle
_ROOT_CYCLES = {
    "gammaMinus": ((-_A, _T, -_T), (_A,)),
    "gammaPlus": ((_A, -_T, _T), (-_A,)),
}
_FLEX_CYCLES = {
    "gammaMinus": ((-1j * _B, -_M, _P), (1j * _B, _M, -_P), (-_B,), (_B,)),
    "gammaPlus": ((_B, -_P, -_M), (-_B, _P, _M), (-1j * _B,), (1j * _B,)),
}


def _value_permutation(values, table: dict[str, tuple], kind: str) -> np.ndarray:
    """Index of the value that kind's cycles in table send each value to,
    matched one to one by value both ways."""
    if kind not in table:
        raise ValueError(f"no transcribed action for loop kind {kind!r}")
    values = np.array(values)
    keys = np.array([z for cycle in table[kind] for z in cycle])
    images = np.array([z for cycle in table[kind] for z in cycle[1:] + cycle[:1]])
    key_of = nearest_match(np.abs(values[:, None] - keys), TOL_TRANSCRIBE)
    return nearest_match(np.abs(images[key_of, None] - values), TOL_TRANSCRIBE)


def transcribed_root_permutation(kind: str) -> np.ndarray:
    """Expected branch-root action of a loop, matched into the base order."""
    base = roots_of(flex_quartic(0.0))
    return _value_permutation(base, _ROOT_CYCLES, kind)


def transcribed_flex_permutation(kind: str) -> np.ndarray:
    """Expected inflection action of a loop, matched by y-coordinate; the
    base flex [0 : 1 : 0], row 0, stays."""
    inner = _value_permutation(base_surface().flexes[1:, 1], _FLEX_CYCLES, kind)
    return np.concatenate(([0], inner + 1)).astype(np.int64)


# ---------------------------------------------------------------------------
# transport of the verified word map onto the pipeline group

@lru_cache(maxsize=1)
def fixture_group() -> FiniteMatrixGroup:
    fx = load_fixtures()
    return FiniteMatrixGroup.close(fx.generators(), cap=1000)


def model_images_of(mats: np.ndarray) -> list[ModelElement]:
    """Images of a (k, 7, 7) stack of fixture-group members under the printed
    generator map: the fixture group's BFS tree walked once through the
    model's product table.  Raises NotAMember for a matrix outside the group."""
    group, model = fixture_group(), semidirect_model()
    at = group.locate(mats)
    if np.any(at < 0):
        raise NotAMember("matrix is not in the group")
    gen_at = [model.index_of(p) for p in SemidirectGroup.generator_images()]
    imgs = group.along_tree(model.table[gen_at].T,
                            model.index_of(MODEL_IDENTITY))
    return [model.elements[k] for k in imgs[at].tolist()]


def conjugator_carrying_deck(target_deck: np.ndarray) -> np.ndarray:
    """A reflection-group element conjugating the stored deck matrix onto
    the given one, read from the stored deck's class walk; raises NotAMember
    when the two are not conjugate."""
    stored = load_fixtures().deck
    target = np.ascontiguousarray(target_deck, dtype=np.int64)
    carrier = (conjugacy_class(stored, weyl_group()).get(target.tobytes())
               if target.shape == stored.shape else None)
    if carrier is None:
        raise NotAMember("deck matrices are not conjugate in the reflection group")
    return carrier


def verify_isomorphism_via_transport(group: FiniteMatrixGroup,
                                     deck: np.ndarray) -> dict[int, ModelElement]:
    """The word-verified map of a centralizer-of-deck group onto the model.

    The carrier conjugates the stored deck onto the group's deck, so
    conjugating back moves the group's generators into the fixture group,
    whose images in the model are read off its tree; verify_generator_map
    certifies the result for every element.
    """
    carrier = conjugator_carrying_deck(deck)
    images = model_images_of(lattice_inverse(carrier) @ np.stack(group.gens)
                             @ carrier)
    return verify_generator_map(group, images, semidirect_model())


# ---------------------------------------------------------------------------
# generator sources

@dataclass(frozen=True, eq=False)
class GeneratorSource:
    """A deck matrix and the closure of the four generators, from one route.

    group.gens holds the generators h1, h2, g1, g2 in that order.  lifts
    holds the 4 x 4 cover automorphisms whose line permutations give h1 and
    h2, and traces the gammaMinus and gammaPlus traces, keyed by loop kind,
    whose lattice maps are g1 and g2; both are empty for the reference
    matrices.
    """

    deck: np.ndarray
    group: FiniteMatrixGroup
    lifts: tuple[np.ndarray, ...]
    traces: dict[str, LoopTrace]


def fixture_source() -> GeneratorSource:
    return GeneratorSource(load_fixtures().deck, fixture_group(), (), {})


def build_pipeline() -> GeneratorSource:
    """h1 and h2 lifted from the translations by the flexes [a : b : 1] and
    [-a : ib : 1], named by their y-coordinates b and ib; g1 and g2 from
    the gammaMinus and gammaPlus traces."""
    surface = base_surface()
    flexes = 1 + nearest_match(np.abs(np.array([_B, 1j * _B])[:, None]
                                      - surface.flexes[1:, 1]),
                               TOL_TRANSCRIBE, one_to_one=False)
    lifts = tuple(translation(int(k))[2] for k in flexes)
    h1, h2 = (perm_to_lattice_map(induced_line_perm(lift), surface.classes,
                                  surface.sixer) for lift in lifts)
    traces = {loop.kind: trace_loop(loop)
              for loop in (gamma_minus(), gamma_plus())}
    g1, g2 = (flex_lattice_map(t.flex_perm) for t in traces.values())
    group = FiniteMatrixGroup.close([h1, h2, g1, g2], cap=1000)
    return GeneratorSource(surface.deck_matrix, group, lifts, traces)


# ---------------------------------------------------------------------------
# the check battery

def _run(check_id: str, description: str,
         fn: Callable[[], tuple[object, object]]) -> Check:
    start = time.perf_counter()
    try:
        observed, expected = fn()
        status = "pass" if jsonable(observed) == jsonable(expected) else "fail"
    except AmbiguousMatching:
        raise
    except Exception as exc:  # checks must not abort the battery
        observed, expected, status = repr(exc), "no exception", "fail"
    ms = (time.perf_counter() - start) * 1000.0
    return Check(check_id, description, status, observed, expected, ms)


def paired_checks(ids: tuple[str, str, str, str, str],
                  source: Callable[[], GeneratorSource]) -> list[tuple]:
    """The five checks both routes make, as (id, description, fn) under the
    route's ids, expecting the same values.  Each check calls source() itself,
    so a source that cannot be built fails the check, not the battery."""

    def deck():
        m = source().deck
        tr = int(np.trace(m))
        return ({"order": weyl_group().element_order(m), "trace": tr,
                 "character": tr - 1, "inClosure": m in weyl_group(),
                 "classSize": conjugacy_class_size(m, weyl_group())},
                {"order": 3, "trace": -2, "character": -3, "inClosure": True,
                 "classSize": 80})

    def torsion():
        src = source()
        h1, h2 = src.group.gens[:2]
        deck = src.deck
        grp = FiniteMatrixGroup.close([h1, h2], cap=100)
        comm = h1 @ h2 @ lattice_inverse(h1) @ lattice_inverse(h2)
        power = any(np.array_equal(comm, d) for d in (deck, deck @ deck))
        return ({"inClosure": h1 in weyl_group() and h2 in weyl_group(),
                 "order": len(grp), "census": grp.census(),
                 "commutatorIsDeckPower": power},
                {"inClosure": True, "order": 27, "census": {1: 1, 3: 26},
                 "commutatorIsDeckPower": True})

    def loops():
        grp = FiniteMatrixGroup.close(source().group.gens[2:], cap=100)
        census = grp.census()
        return ({"order": len(grp), "has4": census.get(4, 0) > 0,
                 "has6": census.get(6, 0) > 0,
                 "identified": identify_order24(grp)},
                {"order": 24, "has4": True, "has6": True,
                 "identified": "SL2(F3)"})

    def equality():
        src = source()
        cen = centralizer(src.deck, weyl_group())
        return ({"order": len(src.group),
                 "subset": bool(np.all(cen.locate(src.group.elements) >= 0)),
                 "sameOrder": len(src.group) == len(cen)},
                {"order": 648, "subset": True, "sameOrder": True})

    def isomorphism():
        src = source()
        mapping = verify_isomorphism_via_transport(src.group, src.deck)
        # the reference generators carried onto this deck keep their images
        w = conjugator_carrying_deck(src.deck)
        carried = w @ np.stack(fixture_group().gens) @ lattice_inverse(w)
        return ({"elementsMapped": len(mapping), "generatorImages":
                 [mapping.get(i) for i in src.group.locate(carried).tolist()]},
                {"elementsMapped": 648,
                 "generatorImages": SemidirectGroup.generator_images()})

    return list(zip(ids, (
        "deck matrix: order 3, trace -2, class of 80 in the closure",
        "torsion generators close to the 27 group over the deck",
        "loop generators close to the binary tetrahedral group",
        "the generated group is the deck centralizer as a matrix set",
        "word-verified isomorphism, reference generators to printed images"),
        (deck, torsion, loops, equality, isomorphism)))


def fixture_checks() -> list[Check]:
    checks: list[Check] = []
    add = checks.append
    deck, torsion, loops, equality, isomorphism = paired_checks(
        ("fx-deck-invariants", "fx-torsion-group", "fx-loop-group",
         "fx-set-equality", "fx-isomorphism"), fixture_source)

    def reflection_order():
        return len(weyl_group()), WEYL_ORDER
    add(_run("fx-reflection-order",
             "closure of the six reflections has the full order", reflection_order))

    def reflection_invariants():
        form, canonical = lattice_invariants(weyl_group())
        return ({"formPreserved": form, "canonicalFixed": canonical},
                {"formPreserved": True, "canonicalFixed": True})
    add(_run("fx-reflection-invariants",
             "every closure element preserves the form and the canonical class",
             reflection_invariants))

    def fixtures_load():
        fx = load_fixtures()
        return sorted(k for k in ("deck", "h1", "h2", "g1", "g2")
                      if getattr(fx, k).shape == (7, 7)), \
               sorted(("deck", "h1", "h2", "g1", "g2"))
    add(_run("fx-load", "reference matrices load and satisfy lattice invariants",
             fixtures_load))
    add(_run(*deck))

    def deck_centralizer():
        fx = load_fixtures()
        cen = centralizer(fx.deck, weyl_group())
        return len(cen), WEYL_ORDER // 80
    add(_run("fx-deck-centralizer",
             "centralizer of the deck class has order 648", deck_centralizer))
    add(_run(*torsion))

    def torsion_commutator():
        fx = load_fixtures()
        comm = fx.h1 @ fx.h2 @ lattice_inverse(fx.h1) @ lattice_inverse(fx.h2)
        return ({"commutatorIsDeck": bool(np.array_equal(comm, fx.deck)),
                 "h1CommutesDeck": bool(np.array_equal(fx.h1 @ fx.deck,
                                                       fx.deck @ fx.h1)),
                 "h2CommutesDeck": bool(np.array_equal(fx.h2 @ fx.deck,
                                                       fx.deck @ fx.h2))},
                {"commutatorIsDeck": True, "h1CommutesDeck": True,
                 "h2CommutesDeck": True})
    add(_run("fx-torsion-commutator",
             "torsion commutator equals the deck matrix and both commute with it",
             torsion_commutator))
    add(_run(*loops))

    def relations():
        fx = load_fixtures()
        rels = conjugation_relations(fx.h1, fx.h2, fx.g1, fx.g2, fx.deck)
        return ([r["holds"] for r in rels], [True, True, True, True])
    add(_run("fx-conjugation-relations",
             "all four conjugation relations hold exactly", relations))

    def subgroup_structure():
        src = fixture_source()
        torsion = FiniteMatrixGroup.close(src.group.gens[:2], cap=100)
        loops = FiniteMatrixGroup.close(src.group.gens[2:], cap=100)
        cubed = next(m for m in loops.elements if loops.element_order(m) == 3)
        sylow3 = FiniteMatrixGroup.close([cubed], cap=10)
        return ({"intersection": len(intersect(torsion, loops)),
                 "torsionNormal": is_normal(torsion, src.group),
                 "sylow3Normal": is_normal(sylow3, loops),
                 "order": len(src.group)},
                {"intersection": 1, "torsionNormal": True,
                 "sylow3Normal": False, "order": 648})
    add(_run("fx-subgroup-structure",
             "trivial intersection, normal torsion subgroup, loop 3-Sylow not "
             "normal, order 27*24", subgroup_structure))
    add(_run(*equality))

    def model_structure():
        fx = load_fixtures()
        model = semidirect_model()
        cen = centralizer(fx.deck, weyl_group())
        return ({"order": len(model), "censusMatches":
                 model.census() == cen.census(),
                 "centerOrder": len(model.center())},
                {"order": 648, "censusMatches": True, "centerOrder": 3})
    add(_run("fx-model-structure",
             "abstract model: order 648, centralizer census, center of order 3",
             model_structure))

    def action_property():
        act = index_table(corrected_action, SL2_ALL, HEISENBERG_ALL,
                          HEISENBERG_ALL)
        mul = index_table(sl2_mul, SL2_ALL, SL2_ALL, SL2_ALL)
        # [m, n, h]: act(m n, h) against act(m, act(n, h))
        lhs = act[mul]
        rhs = act[np.arange(len(SL2_ALL))[:, None, None], act[None]]
        return ({"checked": lhs.size,
                 "violations": int(np.count_nonzero(lhs != rhs))},
                {"checked": 15552, "violations": 0})
    add(_run("fx-action-property",
             "the twisting action is a group action, exhaustively",
             action_property))
    add(_run(*isomorphism))
    return checks


def pipeline_checks() -> list[Check]:
    checks: list[Check] = []
    add = checks.append
    surface = base_surface()

    # built by the first check that reads it; a build error fails those checks
    @lru_cache(maxsize=1)
    def built() -> GeneratorSource | Exception:
        try:
            return build_pipeline()
        except Exception as exc:
            return exc

    def source() -> GeneratorSource:
        src = built()
        if isinstance(src, Exception):
            raise src
        return src

    deck, torsion, loops, equality, isomorphism = paired_checks(
        ("pl-deck-matrix", "pl-torsion-matrices", "pl-loop-group",
         "pl-set-equality", "pl-isomorphism"), source)

    def line_geometry():
        return ({"lines": len(surface.lines),
                 "stronglyRegular": is_strongly_regular_27(surface.adjacency)},
                {"lines": 27, "stronglyRegular": True})
    add(_run("pl-line-geometry",
             "27 lines with the (27,10,1,5) strongly regular incidence",
             line_geometry))

    def triples_and_sixer():
        triples = concurrent_triples(surface.lines, surface.adjacency)
        six = surface.sixer
        disjoint = all(not surface.adjacency[a, b]
                       for i, a in enumerate(six) for b in six[i + 1:])
        return ({"triples": len(triples), "sixerSize": len(six),
                 "sixerDisjoint": disjoint},
                {"triples": 9, "sixerSize": 6, "sixerDisjoint": True})
    add(_run("pl-triples-sixer",
             "9 concurrent triples and a pairwise disjoint sixer",
             triples_and_sixer))

    def classes_reproduce():
        i, j = pair_indices(27)
        gram = surface.classes @ J_FORM @ surface.classes.T
        good = int(np.count_nonzero((gram[i, j] == 1) == surface.adjacency[i, j]))
        return ({"matches": good, "total": len(i)},
                {"matches": 351, "total": 351})
    add(_run("pl-classes-incidence",
             "divisor classes reproduce incidence through the pairing",
             classes_reproduce))
    add(_run(*deck))

    def perm_functor():
        p_deck = deck_permutation(surface.lines)
        p_loop = lift_to_lines(source().traces["gammaMinus"].flex_perm)
        to_mat = lambda p: perm_to_lattice_map(p, surface.classes, surface.sixer)
        ok = all(np.array_equal(to_mat(perm_compose(p, q)), to_mat(p) @ to_mat(q))
                 for p in (p_deck, p_loop) for q in (p_deck, p_loop))
        return {"homomorphism": ok}, {"homomorphism": True}
    add(_run("pl-perm-functor",
             "lattice map of composed permutations is the matrix product",
             perm_functor))

    def plane_change():
        ok = True
        for lift in source().lifts:
            c, resid = form_ratio(surface.form, lift[:3, :3])
            ok &= (resid <= TOL_TRANSFORM
                   and abs(lift[3, 3] ** 3 - c) <= TOL_TRANSFORM * abs(c))
        return ({"verticalCubeMatchesScale": bool(ok)},
                {"verticalCubeMatchesScale": True})
    add(_run("pl-plane-change",
             "the two flex translations carry the cubic to c times itself; "
             "vertical scales cube to c",
             plane_change))
    add(_run(*torsion))

    for kind in ("gammaMinus", "gammaPlus"):
        def root_cycle(kind=kind):
            return (source().traces[kind].root_perm.tolist(),
                    transcribed_root_permutation(kind).tolist())
        add(_run(f"pl-root-cycle-{kind}",
                 f"{kind} branch roots realize the transcribed 3-cycle",
                 root_cycle))

    for kind in ("gammaMinus", "gammaPlus"):
        def flex_perm(kind=kind):
            return (source().traces[kind].flex_perm.tolist(),
                    transcribed_flex_permutation(kind).tolist())
        add(_run(f"pl-flex-perm-{kind}",
                 f"{kind} inflections realize the transcribed pair of 3-cycles",
                 flex_perm))

    def loop_matrices():
        src, stats = source(), {}
        for name, g in zip(("around-minus-one", "around-plus-one"),
                           src.group.gens[2:]):
            stats[name] = {"inClosure": g in weyl_group(),
                           "order": weyl_group().element_order(g),
                           "commutesDeck": bool(np.array_equal(
                               g @ src.deck, src.deck @ g))}
        want = {"inClosure": True, "order": 3, "commutesDeck": True}
        return stats, {"around-minus-one": want, "around-plus-one": want}
    add(_run("pl-loop-matrices",
             "loop matrices: order 3 closure members commuting with the deck",
             loop_matrices))
    add(_run(*loops))
    add(_run(*equality))
    add(_run(*isomorphism))

    def stability():
        out = {}
        for loop in (gamma_minus(), gamma_plus()):
            perms = []
            for steps in (50, 100, 200):
                # the source already holds the trace at the default steps
                trace = (source().traces[loop.kind]
                         if steps == TrackingConfig().steps
                         else trace_loop(loop, TrackingConfig(steps=steps)))
                perms.append((trace.root_perm.tolist(),
                              trace.flex_perm.tolist()))
            out[loop.kind] = perms[0] == perms[1] == perms[2]
        return out, {"gammaMinus": True, "gammaPlus": True}
    add(_run("pl-step-stability",
             "permutations unchanged across 50/100/200 step resolutions",
             stability))

    def constant():
        trace = trace_loop(constant_loop())
        return ({"rootsIdentity": trace.root_perm.tolist() == [0, 1, 2, 3],
                 "flexesIdentity": trace.flex_perm.tolist() == list(range(9)),
                 "matrixIdentity":
                 bool(np.array_equal(flex_lattice_map(trace.flex_perm),
                                     np.eye(7, dtype=np.int64)))},
                {"rootsIdentity": True, "flexesIdentity": True,
                 "matrixIdentity": True})
    add(_run("pl-constant-loop",
             "constant loop induces identities end to end", constant))

    def incidence_preserved():
        ok_inc = ok_triples = True
        triples = {frozenset(t) for t in
                   concurrent_triples(surface.lines, surface.adjacency)}
        for trace in source().traces.values():
            p = lift_to_lines(trace.flex_perm)
            ok_inc &= preserves_incidence(p, surface.adjacency)
            moved = {frozenset(int(p[i]) for i in t) for t in triples}
            ok_triples &= moved == triples
        return ({"incidence": bool(ok_inc), "triplesSetwise": bool(ok_triples)},
                {"incidence": True, "triplesSetwise": True})
    add(_run("pl-incidence-preserved",
             "lifted loop permutations preserve incidence and the flex triples",
             incidence_preserved))

    return checks


def run_checks(scope: str = "all") -> VerificationReport:
    if scope not in SCOPES:
        raise ValueError(f"unknown scope {scope!r}")
    checks: list[Check] = []
    if scope in ("fixtures", "all"):
        checks.extend(fixture_checks())
    if scope in ("pipeline", "all"):
        checks.extend(pipeline_checks())
    return VerificationReport(scope=scope, checks=checks)
