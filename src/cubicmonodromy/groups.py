"""Finite models: Heisenberg group mod 3, SL2 mod 3, and their semidirect product.

Heisenberg elements are (a, b, c) triples encoding the upper unitriangular
matrix with a above the diagonal left, b above right, c in the corner, so

    (a1, b1, c1) * (a2, b2, c2) = (a1+a2, b1+b2, c1+c2 + a1*b2)   (mod 3).

SL2 elements act on the (a, b) data linearly and shift the center by
q(a, b) = 2ab + a + b, evaluated after minus before:

    m . (a, b, c) = (a', b', c + q(a', b') - q(a, b)),   (a', b') = m (a, b).

The 2ab repairs the cocycle: a1*b2 is the coboundary of 2ab plus
2 (a1*b2 - a2*b1), and a determinant-one map keeps the latter.  The a + b
is conjugation by (1, 2, 0), which makes the standard generator relations
hold with SL2 generators of trivial Heisenberg part.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from .errors import NotIsomorphic, NotASubgroup, WrongOrder
from .weyl import (FiniteMatrixGroup, element_orders, lattice_inverse,
                   regenerate)

Heis = tuple[int, int, int]
SL2 = tuple[int, int, int, int]

H_IDENTITY: Heis = (0, 0, 0)
SL2_IDENTITY: SL2 = (1, 0, 0, 1)

GEN_M: SL2 = (1, 0, 1, 1)
GEN_N: SL2 = (1, 2, 0, 1)

HEISENBERG_ALL: list[Heis] = [(a, b, c) for a in range(3) for b in range(3)
                              for c in range(3)]
SL2_ALL: list[SL2] = [
    (m00, m01, m10, m11)
    for m00 in range(3) for m01 in range(3)
    for m10 in range(3) for m11 in range(3)
    if (m00 * m11 - m01 * m10) % 3 == 1
]


def h_mul(x: Heis, y: Heis) -> Heis:
    return ((x[0] + y[0]) % 3, (x[1] + y[1]) % 3,
            (x[2] + y[2] + x[0] * y[1]) % 3)


def sl2_mul(x: SL2, y: SL2) -> SL2:
    return ((x[0] * y[0] + x[1] * y[2]) % 3,
            (x[0] * y[1] + x[1] * y[3]) % 3,
            (x[2] * y[0] + x[3] * y[2]) % 3,
            (x[2] * y[1] + x[3] * y[3]) % 3)


def corrected_action(m: SL2, h: Heis) -> Heis:
    """m . h, the automorphism m acts by in the model (module docstring)."""
    a, b, c = h
    na, nb = (m[0] * a + m[1] * b) % 3, (m[2] * a + m[3] * b) % 3
    # q(a', b') - q(a, b), q(a, b) = 2ab + a + b
    return (na, nb, (c + 2 * na * nb + na + nb - 2 * a * b - a - b) % 3)


def index_table(fn, rows: list, cols: list, codomain: list) -> np.ndarray:
    """T[i, j] = index in codomain of fn(rows[i], cols[j])."""
    at = {x: k for k, x in enumerate(codomain)}
    return np.array([[at[fn(r, c)] for c in cols] for r in rows])


ModelElement = tuple[Heis, SL2]

MODEL_IDENTITY: ModelElement = (H_IDENTITY, SL2_IDENTITY)


class SemidirectGroup:
    """All 648 pairs (h, g) under the corrected twisted multiplication.

    `table[p, q]` is the index of elements[p] * elements[q], built once from
    the Heisenberg, SL2 and corrected-action tables.
    """

    def __init__(self):
        self.elements: list[ModelElement] = [
            (h, g) for h in HEISENBERG_ALL for g in SL2_ALL
        ]
        self._index = {p: i for i, p in enumerate(self.elements)}
        hmul = index_table(h_mul, HEISENBERG_ALL, HEISENBERG_ALL, HEISENBERG_ALL)
        smul = index_table(sl2_mul, SL2_ALL, SL2_ALL, SL2_ALL)
        act = index_table(corrected_action, SL2_ALL, HEISENBERG_ALL,
                          HEISENBERG_ALL)
        # (h1, g1) (h2, g2) = (h1 act[g1](h2), g1 g2); (h, g) sits at 24 h + g
        h1, g1, h2, g2 = np.ix_(*(range(len(x)) for x in (
            HEISENBERG_ALL, SL2_ALL, HEISENBERG_ALL, SL2_ALL)))
        self.table = (hmul[h1, act[g1, h2]] * len(SL2_ALL)
                      + smul[g1, g2]).reshape(len(self), len(self))

    def index_of(self, p: ModelElement) -> int:
        return self._index[p]

    def __len__(self) -> int:
        return len(self.elements)

    def census(self) -> dict[int, int]:
        every = np.arange(len(self))
        orders = element_orders(every, lambda power: self.table[power, every],
                                lambda power: power == self._index[MODEL_IDENTITY],
                                len(self))
        vals, counts = np.unique(orders, return_counts=True)
        return dict(zip(vals.tolist(), counts.tolist()))

    def center(self) -> list[ModelElement]:
        probes = [self._index[p] for p in self.generator_images()]
        commute = self.table[:, probes] == self.table[probes].T
        return [self.elements[i] for i in np.flatnonzero(commute.all(axis=1))]

    @staticmethod
    def generator_images() -> list[ModelElement]:
        """Model images of the four standard generators, in order.

        The two Heisenberg generators carry center coordinate 1; the two SL2
        generators sit in the split copy with trivial Heisenberg part.
        """
        return [
            ((1, 0, 1), SL2_IDENTITY),
            ((0, 1, 1), SL2_IDENTITY),
            (H_IDENTITY, GEN_M),
            (H_IDENTITY, GEN_N),
        ]

    def check_associativity(self) -> None:
        """Light's test, exactly: (x y) g = x (y g) for all x, y and each of
        the four generator images g.  The g for which that holds are closed
        under products, so once products of the generators reach all 648
        elements the whole table is associative; raises WrongOrder otherwise.
        """
        t = self.table.astype(np.int16)
        gens = np.array([self._index[p] for p in self.generator_images()])
        for g in gens:
            bad = t[:, g].take(t) != t.take(t[:, g], axis=1)
            if bad.any():
                x, y = np.argwhere(bad)[0]
                raise WrongOrder("associativity fails on "
                                 f"{[self.elements[k] for k in (x, y, g)]}")
        reached = np.zeros(len(self), dtype=bool)
        frontier = gens
        while frontier.size:
            reached[frontier] = True
            step = np.zeros_like(reached)
            step[t[np.ix_(frontier, gens)]] = True
            frontier = np.flatnonzero(step & ~reached)
        if not reached.all():
            raise WrongOrder(f"the generator images reach {reached.sum()} "
                             f"of {len(self)} elements")


@lru_cache(maxsize=1)
def semidirect_model() -> SemidirectGroup:
    model = SemidirectGroup()
    model.check_associativity()
    return model


def verify_generator_map(source: FiniteMatrixGroup, images: list[ModelElement],
                         model: SemidirectGroup) -> dict[int, ModelElement]:
    """Extend a generator assignment along the closure and certify it.

    The images are extended along the source's BFS tree (`along_tree`
    through the model's product table), then every product of an element
    and a generator, derived from the digits, source.transitions[i, j]
    indexing (generator j) * (element i), is replayed in the model's table
    at once; any mismatch raises NotIsomorphic with the word of the
    offending element as a witness.  The extension must be a bijection.
    """
    n = len(source)
    if n != len(model):
        raise WrongOrder(f"source order {n} != model order {len(model)}")
    if len(images) != len(source.gens):
        raise ValueError("need one model image per source generator")
    gen_at = np.array([model.index_of(p) for p in images], dtype=np.int64)
    step = model.table[gen_at].T  # [x, j]: image of generator j times x
    imgs = source.along_tree(step, model.index_of(MODEL_IDENTITY))
    trans = source.transitions
    want = step[imgs]
    bad = np.argwhere(imgs[trans] != want)
    if len(bad):
        i, j = bad[0]
        got = model.elements[imgs[trans[i, j]]]
        raise NotIsomorphic(f"word {source.word(int(trans[i, j]))} has two "
                            f"images; {got} vs {model.elements[want[i, j]]}")
    if len(set(imgs.tolist())) != n:
        raise NotIsomorphic("extension is not injective")
    return dict(enumerate(model.elements[k] for k in imgs.tolist()))


def intersect(a: FiniteMatrixGroup, b: FiniteMatrixGroup) -> FiniteMatrixGroup:
    """Intersection of two matrix groups, re-verified closed."""
    return regenerate(a.elements[b.locate(a.elements) >= 0])


def is_normal(sub: FiniteMatrixGroup, ambient: FiniteMatrixGroup) -> bool:
    if np.any(ambient.locate(sub.elements) < 0):
        raise NotASubgroup("claimed subgroup is not contained in the group")
    return all(np.all(sub.locate(g @ sub.elements @ lattice_inverse(g)) >= 0)
               for g in ambient.gens)


def conjugation_relations(h1, h2, g1, g2, omega) -> list[dict]:
    """The four standard conjugation relations, checked exactly."""
    inv = lattice_inverse
    checks = [
        ("g1 h1 g1^-1 = omega h1 h2", g1 @ h1 @ inv(g1), omega @ h1 @ h2),
        ("g2 h1 g2^-1 = h1", g2 @ h1 @ inv(g2), h1),
        ("g1 h2 g1^-1 = h2", g1 @ h2 @ inv(g1), h2),
        ("g2 h2 g2^-1 = omega^-1 h1^-1 h2", g2 @ h2 @ inv(g2),
         inv(omega) @ inv(h1) @ h2),
    ]
    return [
        {"relation": name, "holds": bool(np.array_equal(got, want))}
        for name, got, want in checks
    ]


# element orders of SL(2, F3), the one group of order 24 with a single
# involution and eight elements of order 3
_SL2_CENSUS = {1: 1, 2: 1, 3: 8, 4: 6, 6: 8}


def identify_order24(group: FiniteMatrixGroup) -> str:
    """Name an order-24 group: "SL2(F3)" on SL(2, F3)'s order census, else
    "unrecognized"."""
    if len(group) != 24:
        raise WrongOrder(f"group has order {len(group)}, expected 24")
    return "SL2(F3)" if group.census() == _SL2_CENSUS else "unrecognized"
