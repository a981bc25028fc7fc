"""End-to-end verification battery.

Two independent routes, each a GeneratorSource of a deck matrix and four
generators, produce the same 648-element matrix group: the transcribed
reference matrices, and the geometric pipeline (lines, deck rotation,
conjugated torsion symmetries, loop tracking).  Five checks run on both
sources with the same expected values, the others on one route; together
they compare both groups against the centralizer of the deck class and
confirm the abstract semidirect model by exhaustive generator-word checks.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, replace
from functools import lru_cache
from typing import Callable

import numpy as np

from .curves import flex_quartic
from .errors import AmbiguousMatching, NotAMember
from .fixtures import load_fixtures
from .groups import (HEISENBERG_ALL, MODEL_IDENTITY, SL2_ALL, ModelElement,
                     SemidirectGroup, conjugation_relations, identify_order24,
                     index_table, intersect, is_normal, phi_action,
                     semidirect_model, sl2_mul, verify_generator_map)
from .hesse import heisenberg_matrices, hesse_transform
from .lines import (CANONICAL_CLASS, J_FORM, base_surface,
                    concurrent_triples, deck_permutation,
                    is_strongly_regular_27, pairing, perm_compose,
                    perm_to_lattice_map, preserves_incidence)
from .numeric import constants, nearest_match, roots_of
from .report import Check, VerificationReport, jsonable
from .tracking import (LoopTrace, TrackingConfig, constant_loop,
                       flex_lattice_map, gamma_minus, gamma_plus, lift_to_lines,
                       trace_loop)
from .weyl import (WEYL_ORDER, FiniteMatrixGroup, centralizer,
                   conjugacy_class_size, lattice_inverse, trace_character_check,
                   weyl_group)

TOL_TRANSCRIBE = 1e-6


# ---------------------------------------------------------------------------
# transcribed loop actions, matched by value so label order cannot drift

def _root_value_map(kind: str) -> dict[complex, complex]:
    c = constants()
    a = c.a
    t = 1j * a * (2.0 - math.sqrt(3.0))
    if kind == "gammaMinus":
        return {-a: t, t: -t, -t: -a, a: a}
    if kind == "gammaPlus":
        return {a: -t, -t: t, t: a, -a: -a}
    raise ValueError(f"no transcribed action for loop kind {kind!r}")


def _flex_value_map(kind: str) -> dict[complex, complex]:
    c = constants()
    b = c.b
    q = b * (math.sqrt(3.0) - 1.0) / 2.0
    if kind == "gammaMinus":
        return {
            -1j * b: -q * (1 - 1j), -q * (1 - 1j): q * (1 + 1j),
            q * (1 + 1j): -1j * b,
            1j * b: q * (1 - 1j), q * (1 - 1j): -q * (1 + 1j),
            -q * (1 + 1j): 1j * b,
            -b: -b, b: b,
        }
    if kind == "gammaPlus":
        return {
            b: -q * (1 + 1j), -q * (1 + 1j): -q * (1 - 1j),
            -q * (1 - 1j): b,
            -b: q * (1 + 1j), q * (1 + 1j): q * (1 - 1j),
            q * (1 - 1j): -b,
            -1j * b: -1j * b, 1j * b: 1j * b,
        }
    raise ValueError(f"no transcribed action for loop kind {kind!r}")


def _value_permutation(values: list[complex],
                       mapping: dict[complex, complex]) -> np.ndarray:
    """Index of the value that mapping sends each value to, matched by value."""
    values = np.array(values)
    keys, images = np.array(list(mapping)), np.array(list(mapping.values()))
    key_of = nearest_match(np.abs(values[:, None] - keys), TOL_TRANSCRIBE)
    return nearest_match(np.abs(images[key_of, None] - values), TOL_TRANSCRIBE)


def transcribed_root_permutation(kind: str) -> np.ndarray:
    """Expected branch-root action of a loop, matched into the base order."""
    base = roots_of(flex_quartic(0.0))
    return _value_permutation(base, _root_value_map(kind))


def transcribed_flex_permutation(kind: str) -> np.ndarray:
    """Expected inflection action of a loop, matched by y-coordinate."""
    flexes = base_surface().flexes
    ys = [flexes[j].y for j in range(1, 9)]
    inner = _value_permutation(ys, _flex_value_map(kind))
    images = np.zeros(9, dtype=np.int64)
    images[1:] = inner + 1
    return images


# ---------------------------------------------------------------------------
# transport of the verified word map onto the pipeline group

@lru_cache(maxsize=1)
def fixture_group() -> FiniteMatrixGroup:
    fx = load_fixtures()
    return FiniteMatrixGroup.close(fx.generators(), cap=1000)


def model_image_of(mat: np.ndarray) -> ModelElement:
    """Image of a fixture-group member under the printed generator map."""
    group = fixture_group()
    images = SemidirectGroup.generator_images()
    model = semidirect_model()
    out = MODEL_IDENTITY
    for g_idx in group.word(group.index_of(mat)):
        out = model.mul(out, images[g_idx])
    return out


def conjugator_carrying_deck(target_deck: np.ndarray) -> np.ndarray:
    """Some reflection-group element conjugating the stored deck matrix onto
    the given one; raises NotAMember when the two are not conjugate."""
    stored = load_fixtures().deck
    if np.array_equal(stored, target_deck):  # spares the 51840-element scan
        return np.eye(len(stored), dtype=np.int64)
    group = weyl_group()
    hits = group.intertwiners(stored, target_deck)
    if len(hits) == 0:
        raise NotAMember("deck matrices are not conjugate in the reflection group")
    return group.elements[hits[0]]


def transported_images(group: FiniteMatrixGroup,
                       carrier: np.ndarray) -> list[ModelElement]:
    """Model images for a centralizer-of-deck group's generators.

    The carrier conjugates the stored deck onto the group's deck, so
    conjugating back moves the group onto the fixture group, whose word map
    into the model is available; verify_generator_map certifies the result.
    """
    winv = lattice_inverse(carrier)
    return [model_image_of(winv @ np.asarray(g, dtype=np.int64) @ carrier)
            for g in group.gens]


def verify_isomorphism_via_transport(group: FiniteMatrixGroup,
                                     deck: np.ndarray) -> dict[int, ModelElement]:
    carrier = conjugator_carrying_deck(deck)
    return verify_generator_map(group, transported_images(group, carrier),
                                semidirect_model())


# ---------------------------------------------------------------------------
# generator sources

@dataclass(frozen=True, eq=False)
class GeneratorSource:
    """A deck matrix, the four generators and their closure, from one route.

    traces holds the gammaMinus and gammaPlus traces, keyed by loop kind,
    whose lattice maps are g1 and g2; it is empty for the reference matrices.
    """

    deck: np.ndarray
    h1: np.ndarray
    h2: np.ndarray
    g1: np.ndarray
    g2: np.ndarray
    group: FiniteMatrixGroup
    traces: dict[str, LoopTrace]


def fixture_source() -> GeneratorSource:
    fx = load_fixtures()
    return GeneratorSource(fx.deck, *fx.generators(), fixture_group(), {})


def build_pipeline(cfg: TrackingConfig = TrackingConfig()) -> GeneratorSource:
    surface = base_surface()
    h1, h2 = heisenberg_matrices(surface)
    traces = {loop.kind: trace_loop(loop, cfg)
              for loop in (gamma_minus(), gamma_plus())}
    g1, g2 = (flex_lattice_map(t.flex_perm) for t in traces.values())
    group = FiniteMatrixGroup.close([h1, h2, g1, g2], cap=1000)
    return GeneratorSource(surface.deck_matrix, h1, h2, g1, g2, group, traces)


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
        tr, chi = trace_character_check(m)
        return ({"order": weyl_group().element_order(m), "trace": tr,
                 "character": chi, "inClosure": m in weyl_group(),
                 "classSize": conjugacy_class_size(m, weyl_group())},
                {"order": 3, "trace": -2, "character": -3, "inClosure": True,
                 "classSize": 80})

    def torsion():
        src = source()
        h1, h2, deck = src.h1, src.h2, src.deck
        grp = FiniteMatrixGroup.close([h1, h2], cap=100)
        comm = h1 @ h2 @ lattice_inverse(h1) @ lattice_inverse(h2)
        power = any(np.array_equal(comm, d) for d in (deck, deck @ deck))
        return ({"inClosure": h1 in weyl_group() and h2 in weyl_group(),
                 "order": len(grp), "census": grp.census(),
                 "commutatorIsDeckPower": power},
                {"inClosure": True, "order": 27, "census": {1: 1, 3: 26},
                 "commutatorIsDeckPower": True})

    def loops():
        src = source()
        grp = FiniteMatrixGroup.close([src.g1, src.g2], cap=100)
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
        w = conjugator_carrying_deck(src.deck)
        images = transported_images(src.group, w)
        mapping = verify_generator_map(src.group, images, semidirect_model())
        # the reference generators carried onto this deck keep their images
        carried = w @ np.stack(load_fixtures().generators()) @ lattice_inverse(w)
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
        stacked = weyl_group().stacked()
        # J_FORM is diagonal, so m^T J m scales the rows of m by its diagonal
        form = np.matmul(stacked.transpose(0, 2, 1) * np.diag(J_FORM), stacked)
        fixes = stacked @ CANONICAL_CLASS
        return ({"formPreserved": bool((form == J_FORM).all()),
                 "canonicalFixed": bool((fixes == CANONICAL_CLASS).all())},
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
        torsion = FiniteMatrixGroup.close([src.h1, src.h2], cap=100)
        loops = FiniteMatrixGroup.close([src.g1, src.g2], cap=100)
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
        phi = index_table(phi_action, SL2_ALL, HEISENBERG_ALL, HEISENBERG_ALL)
        mul = index_table(sl2_mul, SL2_ALL, SL2_ALL, SL2_ALL)
        # [m, n, h]: phi(m n, h) against phi(m, phi(n, h))
        lhs = phi[mul]
        rhs = phi[np.arange(len(SL2_ALL))[:, None, None], phi[None]]
        return ({"checked": lhs.size,
                 "violations": int(np.count_nonzero(lhs != rhs))},
                {"checked": 15552, "violations": 0})
    add(_run("fx-action-property",
             "the twisting action is a group action, exhaustively",
             action_property))
    add(_run(*isomorphism))
    return checks


def pipeline_checks(cfg: TrackingConfig = TrackingConfig()) -> list[Check]:
    checks: list[Check] = []
    add = checks.append
    surface = base_surface()
    source = build_pipeline(cfg)
    deck, torsion, loops, equality, isomorphism = paired_checks(
        ("pl-deck-matrix", "pl-torsion-matrices", "pl-loop-group",
         "pl-set-equality", "pl-isomorphism"), lambda: source)

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
        pairs = [(i, j) for i in range(27) for j in range(i + 1, 27)]
        good = sum((pairing(surface.classes[i], surface.classes[j]) == 1)
                   == bool(surface.adjacency[i, j]) for i, j in pairs)
        return ({"matches": good, "total": len(pairs)},
                {"matches": 351, "total": 351})
    add(_run("pl-classes-incidence",
             "divisor classes reproduce incidence through the pairing",
             classes_reproduce))
    add(_run(*deck))

    def perm_functor():
        p_deck = deck_permutation(surface.lines)
        p_loop = lift_to_lines(source.traces["gammaMinus"].flex_perm)
        to_mat = lambda p: perm_to_lattice_map(p, surface.classes, surface.sixer)
        ok = all(np.array_equal(to_mat(perm_compose(p, q)), to_mat(p) @ to_mat(q))
                 for p in (p_deck, p_loop) for q in (p_deck, p_loop))
        return {"homomorphism": ok}, {"homomorphism": True}
    add(_run("pl-perm-functor",
             "lattice map of composed permutations is the matrix product",
             perm_functor))

    def plane_change():
        _, a4, mu = hesse_transform()
        cube = complex(a4[3, 3]) ** 3
        return ({"verticalCubeMatchesScale":
                 abs(cube - (mu ** 3 - 1.0)) < 1e-9},
                {"verticalCubeMatchesScale": True})
    add(_run("pl-plane-change",
             "plane change reaches the diagonal model; vertical scale cubes right",
             plane_change))
    add(_run(*torsion))

    for kind, trace in source.traces.items():
        def root_cycle(kind=kind, trace=trace):
            return (trace.root_perm.tolist(),
                    transcribed_root_permutation(kind).tolist())
        add(_run(f"pl-root-cycle-{kind}",
                 f"{kind} branch roots realize the transcribed 3-cycle",
                 root_cycle))

    for kind, trace in source.traces.items():
        def flex_perm(kind=kind, trace=trace):
            return (trace.flex_perm.tolist(),
                    transcribed_flex_permutation(kind).tolist())
        add(_run(f"pl-flex-perm-{kind}",
                 f"{kind} inflections realize the transcribed pair of 3-cycles",
                 flex_perm))

    def loop_matrices():
        stats = {}
        for name, g in (("around-minus-one", source.g1),
                        ("around-plus-one", source.g2)):
            stats[name] = {"inClosure": g in weyl_group(),
                           "order": weyl_group().element_order(g),
                           "commutesDeck": bool(np.array_equal(
                               g @ source.deck, source.deck @ g))}
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
                # the source already holds the trace at the battery's steps
                trace = (source.traces[loop.kind] if steps == cfg.steps
                         else trace_loop(loop, replace(cfg, steps=steps)))
                perms.append((trace.root_perm.tolist(),
                              trace.flex_perm.tolist()))
            out[loop.kind] = perms[0] == perms[1] == perms[2]
        return out, {"gammaMinus": True, "gammaPlus": True}
    add(_run("pl-step-stability",
             "permutations unchanged across 50/100/200 step resolutions",
             stability))

    def constant():
        trace = trace_loop(constant_loop(0.0), cfg)
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
        for trace in source.traces.values():
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


def run_checks(scope: str = "all",
               cfg: TrackingConfig = TrackingConfig()) -> VerificationReport:
    if scope not in ("fixtures", "pipeline", "all"):
        raise ValueError(f"unknown scope {scope!r}")
    checks: list[Check] = []
    if scope in ("fixtures", "all"):
        checks.extend(fixture_checks())
    if scope in ("pipeline", "all"):
        checks.extend(pipeline_checks(cfg))
    return VerificationReport(scope=scope, checks=checks)
