"""Finite models: Heisenberg group mod 3, SL2 mod 3, and their semidirect product.

Heisenberg elements are (a, b, c) triples encoding the upper unitriangular
matrix with a above the diagonal left, b above right, c in the corner, so

    (a1, b1, c1) * (a2, b2, c2) = (a1+a2, b1+b2, c1+c2 + a1*b2)   (mod 3).

SL2 elements act on the (a, b) data linearly.  That bare action is exactly
what `phi_action` exposes; note that it is a group action on the data but
not an automorphism of the Heisenberg multiplication, because the cocycle
a1*b2 is only symplectically invariant up to a quadratic correction on the
center coordinate.  The semidirect model therefore uses the corrected
automorphisms: the canonical quadratic twist composed with an inner twist
chosen once so that the standard generator relations hold verbatim.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from .errors import NotIsomorphic, NotASubgroup, WrongOrder
from .weyl import FiniteMatrixGroup, lattice_inverse, regenerate

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


def h_inv(x: Heis) -> Heis:
    a, b, c = x
    return ((-a) % 3, (-b) % 3, (-c + a * b) % 3)


def sl2_mul(x: SL2, y: SL2) -> SL2:
    return ((x[0] * y[0] + x[1] * y[2]) % 3,
            (x[0] * y[1] + x[1] * y[3]) % 3,
            (x[2] * y[0] + x[3] * y[2]) % 3,
            (x[2] * y[1] + x[3] * y[3]) % 3)


def sl2_inv(x: SL2) -> SL2:
    # det is 1, so the adjugate is the inverse
    return (x[3] % 3, (-x[1]) % 3, (-x[2]) % 3, x[0] % 3)


def phi_action(m: SL2, h: Heis) -> Heis:
    """The bare linear action: (a, b) -> m (a, b), center coordinate kept."""
    a, b, c = h
    return ((m[0] * a + m[1] * b) % 3, (m[2] * a + m[3] * b) % 3, c)


def _canonical_aut(m: SL2, h: Heis) -> Heis:
    """Automorphism lift of the linear action via the quadratic twist.

    The twist q_m(v) = 2 ((m v)_1 (m v)_2 - v_1 v_2) repairs the cocycle, and
    m -> psi_m is a genuine homomorphism into Aut(Heis).
    """
    a, b, c = h
    na, nb = (m[0] * a + m[1] * b) % 3, (m[2] * a + m[3] * b) % 3
    q = (2 * (na * nb - a * b)) % 3
    return (na, nb, (c + q) % 3)


# Splitting of the SL2 factor inside the canonically twisted product: the
# generators must carry these Heisenberg parts for the standard conjugation
# relations to come out with trivial-part SL2 generators in the final model.
_SPLIT_M: Heis = (0, 2, 0)
_SPLIT_N: Heis = (2, 0, 0)


def _psi_pair_mul(p, q):
    (h1, g1), (h2, g2) = p, q
    return (h_mul(h1, _canonical_aut(g1, h2)), sl2_mul(g1, g2))


@lru_cache(maxsize=1)
def _corrected_action() -> dict[SL2, dict[Heis, Heis]]:
    """Action table g -> (h -> h') used by the semidirect product.

    Built by closing the split generators ((0,2,0), M) and ((2,0,0), N) in
    the canonically twisted product; the closure must hit each SL2 part
    exactly once (a true splitting), and conjugating the Heisenberg factor
    through those representatives gives the corrected automorphisms.
    """
    seeds = [(_SPLIT_M, GEN_M), (_SPLIT_N, GEN_N)]
    seen = [((0, 0, 0), SL2_IDENTITY)]
    for p in seen:  # grows while it is walked
        seen.extend(q for q in (_psi_pair_mul(p, s) for s in seeds)
                    if q not in seen)
    if len(seen) != 24:
        raise WrongOrder(f"splitting closure has {len(seen)} elements, not 24")
    parts = {g: h for h, g in seen}
    if len(parts) != 24:
        raise WrongOrder("splitting hits some SL2 part twice")
    return {g: {h: h_mul(h_mul(hs, _canonical_aut(g, h)), h_inv(hs))
                for h in HEISENBERG_ALL} for g, hs in parts.items()}


def corrected_action(m: SL2, h: Heis) -> Heis:
    return _corrected_action()[m][h]


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
        self._act = _corrected_action()
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

    def mul(self, p: ModelElement, q: ModelElement) -> ModelElement:
        return self.elements[self.table[self._index[p], self._index[q]]]

    def inv(self, p: ModelElement) -> ModelElement:
        h, g = p
        gi = sl2_inv(g)
        return (h_inv(self._act[gi][h]), gi)

    def __len__(self) -> int:
        return len(self.elements)

    def census(self) -> dict[int, int]:
        every = np.arange(len(self))
        power, orders = every, np.zeros(len(self), dtype=np.int64)
        for k in range(1, len(self) + 1):
            orders[(power == self._index[MODEL_IDENTITY]) & (orders == 0)] = k
            if orders.all():
                break
            power = self.table[power, every]
        if not orders.all():
            raise WrongOrder("an element order exceeded the group order")
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

    def spot_check_associativity(self, trials: int = 1000, seed: int = 0) -> None:
        t = self.table
        x, y, z = np.random.default_rng(seed).integers(0, len(self), (3, trials))
        bad = np.flatnonzero(t[t[x, y], z] != t[x, t[y, z]])
        if len(bad):
            raise WrongOrder("associativity fails on "
                             f"{[self.elements[k[bad[0]]] for k in (x, y, z)]}")


@lru_cache(maxsize=1)
def semidirect_model() -> SemidirectGroup:
    model = SemidirectGroup()
    model.spot_check_associativity()
    return model


def verify_generator_map(source, images: list[ModelElement],
                         model: SemidirectGroup) -> dict[int, ModelElement]:
    """Extend a generator assignment along the closure and certify it.

    source must expose gens, elements, parents, transitions and word() the
    way FiniteMatrixGroup does, with source.transitions[i][j] indexing the
    product (generator j) * (element i).  Images are assigned along the
    parent links, then every one of those product relations is replayed in
    the model's table at once; any mismatch raises NotIsomorphic with the
    word of the offending element as a witness.  The verified extension is
    also required to be a bijection onto the model.
    """
    n = len(source.elements)
    if n != len(model):
        raise WrongOrder(f"source order {n} != model order {len(model)}")
    if len(images) != len(source.gens):
        raise ValueError("need one model image per source generator")
    gen_at = np.array([model.index_of(p) for p in images], dtype=np.int64)
    t = model.table
    imgs = np.full(n, model.index_of(MODEL_IDENTITY))
    for i, (parent, j) in enumerate(source.parents[1:], start=1):
        imgs[i] = t[gen_at[j], imgs[parent]]
    trans = np.asarray(source.transitions, dtype=np.int64).reshape(n, len(images))
    want = t[gen_at[None, :], imgs[:, None]]
    bad = np.argwhere(imgs[trans] != want)
    if len(bad):
        i, j = bad[0]
        got = model.elements[imgs[trans[i, j]]]
        raise NotIsomorphic(f"word {source.word(int(trans[i, j]))} has two "
                            f"images; {got} vs {model.elements[want[i, j]]}")
    if len(set(imgs.tolist())) != n:
        raise NotIsomorphic("extension is not injective")
    return dict(enumerate(model.elements[k] for k in imgs.tolist()))


def verify_isomorphism(group: FiniteMatrixGroup,
                       images: list[ModelElement] | None = None) -> dict[int, ModelElement]:
    """Certify that a 648-element matrix group is the semidirect model.

    The group must come as a closure over four generators matching the
    standard ones (two Heisenberg-type, two SL2-type); images defaults to
    the standard generator assignment.
    """
    if len(group) != 648:
        raise WrongOrder(f"group has order {len(group)}, expected 648")
    model = semidirect_model()
    if images is None:
        images = model.generator_images()
    return verify_generator_map(group, images, model)


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


def identify_order24(group: FiniteMatrixGroup) -> str:
    """Name an order-24 group from its order census and Sylow data.

    The intended hit is SL2 over the field of three elements: non-abelian,
    more than one 3-Sylow, and both an order-4 and an order-6 element.  The
    two classical look-alikes are separated by which of those orders occur.
    """
    if len(group) != 24:
        raise WrongOrder(f"group has order {len(group)}, expected 24")
    census = group.census()
    abelian = all(
        np.array_equal(x @ y, y @ x)
        for i, x in enumerate(group.gens) for y in group.gens[i + 1:]
    )
    if abelian:
        return "abelian"
    if census.get(3, 0) == 2:
        return "normal 3-Sylow"
    has4 = census.get(4, 0) > 0
    has6 = census.get(6, 0) > 0
    if has4 and has6:
        return "SL2(F3)"
    if has4:
        return "S4"
    if has6:
        return "A4 x C2"
    return "unrecognized"
