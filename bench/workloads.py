"""The operations the benchmark times, and the rule that says each is correct.

`loops` and `surfaces` run in the benchmark's own process; `certify` runs the
CLI in a fresh interpreter per operation (see run.py), and only its
correctness rule lives here.
"""

from __future__ import annotations

import itertools
import json

import numpy as np

# The ops call through the module so that a traced run sees them; the checks
# are bound here, before any tracing, so they never show up as op work.
from cubicmonodromy import lines, tracking
from cubicmonodromy import (TrackingConfig, concurrent_triples, is_lattice_map,
                            is_strongly_regular_27)
import inputs

CLI_ARGS = ("verify", "--scope", "all", "--format", "json")
CHECK_IDS = frozenset((
    "fx-reflection-order", "fx-reflection-invariants", "fx-load",
    "fx-deck-invariants", "fx-deck-centralizer", "fx-torsion-group",
    "fx-torsion-commutator", "fx-loop-group", "fx-conjugation-relations",
    "fx-subgroup-structure", "fx-set-equality", "fx-model-structure",
    "fx-action-property", "fx-isomorphism", "pl-line-geometry",
    "pl-triples-sixer", "pl-classes-incidence", "pl-deck-matrix",
    "pl-perm-functor", "pl-plane-change", "pl-torsion-matrices",
    "pl-root-cycle-gammaMinus", "pl-root-cycle-gammaPlus",
    "pl-flex-perm-gammaMinus", "pl-flex-perm-gammaPlus", "pl-loop-matrices",
    "pl-loop-group", "pl-set-equality", "pl-isomorphism", "pl-step-stability",
    "pl-constant-loop", "pl-incidence-preserved",
))

# Extended-precision loops for tracking.ext_loop_ms: fixed, so the metric does
# not depend on the seed.  One circle round each node, one of them reversed.
EXT_LOOPS = (("circle", complex(-0.9, 0.3), 1), ("circle", complex(1.1, -0.2), -1))


def certify_ok(returncode: int, stdout: str) -> bool:
    """Exit code 0 and a JSON report with the 32 known check ids, all pass."""
    if returncode != 0:
        return False
    try:
        report = json.loads(stdout)
        checks = report["checks"]
        ids = [c["id"] for c in checks]
        return (len(ids) == len(CHECK_IDS) and set(ids) == CHECK_IDS
                and all(c["status"] == "pass" for c in checks))
    except (ValueError, KeyError, TypeError):
        return False


class Loops:
    """Loop monodromy at the default tracking configuration."""

    def __init__(self, precision: str = "double"):
        self.oracle = inputs.LoopOracle()
        self.cfg = TrackingConfig(precision=precision)

    @staticmethod
    def stream(seed: int):
        return inputs.loop_stream(seed)

    def run(self, spec):
        loop = tracking.custom_loop(inputs.loop_function(spec))
        return tracking.monodromy_matrix(loop, self.cfg)

    def check(self, spec, out) -> bool:
        return bool(np.array_equal(out, self.oracle.expected(spec)))


class Surfaces:
    """Surface geometry and the deck matrix of one cubic."""

    @staticmethod
    def stream(seed: int):
        return inputs.surface_stream(seed)

    @staticmethod
    def run(spec):
        surface = lines.build_surface_data(inputs.surface_form(spec))
        return surface, surface.deck_matrix

    @staticmethod
    def check(spec, out) -> bool:
        surface, deck = out
        identity = np.eye(7, dtype=np.int64)
        return (len(surface.lines) == 27
                and is_strongly_regular_27(surface.adjacency)
                and len(concurrent_triples(surface.lines, surface.adjacency)) == 9
                and is_lattice_map(deck)
                and not np.array_equal(deck, identity)
                and np.array_equal(deck @ deck @ deck, identity))


def take(stream, count: int) -> list:
    return list(itertools.islice(stream, count))
