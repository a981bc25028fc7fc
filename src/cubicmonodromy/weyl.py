"""The Weyl group of E6 as integer matrices on the (1, 6) lattice.

Elements are 7 x 7 integer matrices preserving the diagonal form
diag(1, -1, ..., -1) and fixing the canonical class (-3, 1, ..., 1).  The
group is generated by the six simple reflections and enumerated by a
deterministic breadth-first closure that also records a generator word for
every element, which later feeds the isomorphism verification.

The closure runs level by level over one (n, d, d) element stack.  Elements
are told apart by a 64-bit key <R, M> mod 2^64 with fixed pseudo-random
weights R.  The key is linear, so key(g M) = <g^T R, M>: one small integer
product keys every (frontier element, generator) pair of a level.  Sorting
those keys finds the products not seen before, each at its first visit in
(element, generator) order, and only they are multiplied out.

Keys only propose equalities.  After the last level every recorded relation
g_j @ elements[i] == elements[transitions[i, j]] is checked exactly, on
integer row codes that are one-to-one under an entry bound computed from
the inputs.  So a key collision raises instead of merging two elements,
and elements, parents and transitions are exactly those of the
per-element search.  All products are int64.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from .errors import CapExceeded, GroupError, NotAMember, WrongOrder
from .lines import CANONICAL_CLASS, J_FORM, pairing

SIMPLE_ROOTS = np.array([
    [0, 1, -1, 0, 0, 0, 0],
    [0, 0, 1, -1, 0, 0, 0],
    [0, 0, 0, 1, -1, 0, 0],
    [0, 0, 0, 0, 1, -1, 0],
    [0, 0, 0, 0, 0, 1, -1],
    [1, -1, -1, -1, 0, 0, 0],
], dtype=np.int64)

WEYL_ORDER = 51840
DEFAULT_CAP = 60000


def reflection(root: np.ndarray) -> np.ndarray:
    """x -> x + (x, root) root for a root of self-pairing -2."""
    root = np.asarray(root, dtype=np.int64)
    if pairing(root, root) != -2:
        raise ValueError("reflection requires self-pairing -2")
    return np.eye(7, dtype=np.int64) + np.outer(root, J_FORM @ root)


def weyl_generators() -> list[np.ndarray]:
    return [reflection(r) for r in SIMPLE_ROOTS]


def is_lattice_map(m: np.ndarray) -> bool:
    m = np.asarray(m)
    if m.shape != (7, 7) or not np.issubdtype(m.dtype, np.integer):
        return False
    if not np.array_equal(m.T @ J_FORM @ m, J_FORM):
        return False
    return bool(np.array_equal(m @ CANONICAL_CLASS, CANONICAL_CLASS))


def lattice_inverse(m: np.ndarray) -> np.ndarray:
    """Exact inverse of a form-preserving map: J m^T J."""
    return (J_FORM @ m.T @ J_FORM).astype(np.int64)


@lru_cache(maxsize=None)
def _key_vector(dim: int) -> np.ndarray:
    """The fixed (dim, dim) uint64 key weights R."""
    return np.random.default_rng(dim).integers(0, 2**64, size=(dim, dim),
                                               dtype=np.uint64)


def _flat(mats: np.ndarray) -> np.ndarray:
    """A (k, d, d) integer stack as (k, d*d) uint64, two's complement."""
    mats = np.ascontiguousarray(mats, dtype=np.int64)
    return mats.reshape(len(mats), -1).view(np.uint64)


def _row_codes(stack: np.ndarray, bound: int) -> np.ndarray:
    """Exact codes of the rows of a (n, d, d) stack with entries in +-bound.

    Each run of k entries of a row becomes sum_b m[a, b] base^b with
    base = 2 bound + 1, which is one-to-one on such runs, and k is as long
    as int64 allows.  The codes are linear in the rows, so the codes of
    g @ m are codes(m) @ g.T; shape (n, pieces, d).
    """
    base, d = 2 * bound + 1, stack.shape[2]
    k = d
    while k > 1 and bound * base**k >= 2**63:
        k -= 1
    weights = np.array([base**b for b in range(k)], dtype=np.int64)
    return np.stack([stack[:, :, i:i + k] @ weights[:d - i]
                     for i in range(0, d, k)], axis=1)


class FiniteMatrixGroup:
    """A finite matrix group enumerated by level-synchronous BFS closure.

    `elements` is one read-only (n, d, d) int64 stack in discovery order,
    elements[0] the identity; `parents[i]` stores (parent index, generator
    index) so a generator word can be rebuilt for any element; `transitions`
    maps (element, generator) to the product's index, covering every product
    relation the closure discovered.  Membership goes through the sorted
    element keys and ends in an exact matrix comparison.
    """

    def __init__(self, gens: list[np.ndarray], elements: np.ndarray,
                 parents: list[tuple[int, int] | None],
                 transitions: np.ndarray):
        elements.flags.writeable = False
        self.gens = gens
        self.elements = elements
        self.parents = parents
        self.transitions = transitions
        self._weights = _key_vector(elements.shape[1])
        keys = _flat(elements) @ self._weights.ravel()
        self._order = np.argsort(keys)
        self._keys = keys[self._order]
        self._census: dict[int, int] | None = None

    @classmethod
    def close(cls, gens: list[np.ndarray], cap: int = DEFAULT_CAP) -> "FiniteMatrixGroup":
        """Deterministic BFS closure of the generating set, identity first.

        Raises CapExceeded past cap elements, GroupError on a key collision.
        """
        gens = [np.asarray(g, dtype=np.int64) for g in gens]
        ng = len(gens)
        dim = gens[0].shape[0] if gens else 7
        weights = _key_vector(dim)
        gen_stack = np.array(gens, dtype=np.int64).reshape(ng, dim, dim)
        # column j holds the weights g_j^T R, so frontier keys @ shift gives
        # key(g_j @ m) for every frontier element m and generator j
        shift = np.array([(g.view(np.uint64).T @ weights).ravel() for g in gens],
                         dtype=np.uint64).reshape(ng, dim * dim).T
        gen_max = dim * int(np.abs(gen_stack).max(initial=0))
        frontier = np.eye(dim, dtype=np.int64)[None]
        keys = _flat(frontier) @ weights.ravel()  # sorted keys so far
        slots = np.zeros(1, dtype=np.int64)  # element index of each key
        chunks, rows, born_at = [frontier], [], []
        start, count = 0, 1
        while len(frontier):
            cand = (_flat(frontier) @ shift).ravel()
            order = np.argsort(cand)
            cand = cand[order]
            at = np.searchsorted(keys, cand)
            hit = np.minimum(at, count - 1)
            # one run per distinct key; its earliest (element, generator)
            # visit is the one a per-element search would meet first
            head = np.ones(len(cand), dtype=bool)
            head[1:] = cand[1:] != cand[:-1]
            runs = np.flatnonzero(head)
            first = np.minimum.reduceat(order, runs)
            fresh = keys[hit[runs]] != cand[runs]
            src = np.sort(first[fresh])
            if count + len(src) > cap:
                raise CapExceeded(f"closure exceeded cap {cap}")
            target = slots[hit[runs]]
            target[fresh] = count + np.searchsorted(src, first[fresh])
            row = np.empty(len(cand), dtype=np.int64)
            row[order] = target[np.cumsum(head) - 1]
            born = runs[fresh]
            keys = np.insert(keys, at[born], cand[born])
            slots = np.insert(slots, at[born], target[fresh])
            rows.append(row.reshape(len(frontier), ng))
            born_at.append(start * ng + src)  # (parent, generator) visit
            elem, gen = np.divmod(src, ng)
            frontier = np.matmul(gen_stack[gen], frontier[elem])
            chunks.append(frontier)
            start, count = count, count + len(src)
        elements = np.concatenate(chunks)
        transitions = np.concatenate(rows)
        # the bound covers every entry of every element and product g @ m
        codes = _row_codes(elements, int(np.abs(elements).max()) * max(1, gen_max))
        for j, g in enumerate(gens):
            if not np.array_equal(codes[transitions[:, j]], codes @ g.T):
                raise GroupError("element keys collided; closure not exact")
        parent, g_idx = np.divmod(np.concatenate(born_at), ng)
        parents = [None, *zip(parent.tolist(), g_idx.tolist())]
        return cls(gens, elements, parents, transitions)

    def __len__(self) -> int:
        return len(self.elements)

    def locate(self, mats: np.ndarray) -> np.ndarray:
        """Element index of each matrix of a (k, d, d) stack, -1 if absent."""
        mats = np.asarray(mats, dtype=np.int64)
        if mats.shape[1:] != self.elements.shape[1:]:
            return np.full(len(mats), -1, dtype=np.int64)
        pos = np.searchsorted(self._keys, _flat(mats) @ self._weights.ravel())
        idx = self._order[np.minimum(pos, len(self) - 1)]
        hit = np.all(self.elements[idx] == mats, axis=(1, 2))
        return np.where(hit, idx, -1)

    def intertwiners(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        """Indices, ascending, of the elements m with m @ a == b @ m."""
        a, b = (np.asarray(x, dtype=np.int64) for x in (a, b))
        # key(m a) = <R a^T, m> and key(b m) = <b^T R, m>; equal keys only
        # preselect, the matrices themselves decide
        both = np.stack([(self._weights @ a.view(np.uint64).T).ravel(),
                         (b.view(np.uint64).T @ self._weights).ravel()], axis=1)
        sides = _flat(self.elements) @ both
        cand = np.flatnonzero(sides[:, 0] == sides[:, 1])
        sub = self.elements[cand]
        return cand[np.all(np.matmul(sub, a) == np.matmul(b, sub), axis=(1, 2))]

    def __contains__(self, m: np.ndarray) -> bool:
        return bool(self.locate(np.asarray(m)[None])[0] >= 0)

    def index_of(self, m: np.ndarray) -> int:
        idx = int(self.locate(np.asarray(m)[None])[0])
        if idx < 0:
            raise NotAMember("matrix is not in the group")
        return idx

    def word(self, idx: int) -> list[int]:
        """Generator indices whose left-to-right product is elements[idx]."""
        out: list[int] = []
        while True:
            parent = self.parents[idx]
            if parent is None:
                return out
            idx, g_idx = parent
            # closure builds gen @ parent, so the walk yields leftmost first
            out.append(g_idx)

    def stacked(self) -> np.ndarray:
        """The (n, d, d) element stack itself, read-only, not a copy."""
        return self.elements

    def census(self) -> dict[int, int]:
        """Multiplicative order histogram, computed batched."""
        if self._census is None:
            stack = self.stacked()
            n, dim = stack.shape[0], stack.shape[1]
            identity = np.eye(dim, dtype=np.int64)
            power = stack.copy()
            orders = np.zeros(n, dtype=np.int64)
            for k in range(1, 400):
                hits = np.all(power == identity, axis=(1, 2))
                fresh = hits & (orders == 0)
                orders[fresh] = k
                if np.all(orders > 0):
                    break
                power = np.matmul(power, stack)
            if not np.all(orders > 0):
                raise WrongOrder("an element order exceeded the census bound")
            vals, counts = np.unique(orders, return_counts=True)
            self._census = {int(v): int(c) for v, c in zip(vals, counts)}
        return self._census

    def element_order(self, m: np.ndarray) -> int:
        m = np.asarray(m, dtype=np.int64)
        identity = np.eye(m.shape[0], dtype=np.int64)
        power = m.copy()
        for k in range(1, 400):
            if np.array_equal(power, identity):
                return k
            power = power @ m
        raise WrongOrder("element order exceeded bound")


@lru_cache(maxsize=1)
def weyl_group() -> FiniteMatrixGroup:
    """The full reflection group, 51840 elements, cached per process."""
    group = FiniteMatrixGroup.close(weyl_generators(), cap=DEFAULT_CAP)
    if len(group) != WEYL_ORDER:
        raise WrongOrder(f"reflection closure has {len(group)} elements")
    return group


def conjugacy_class_size(g: np.ndarray, group: FiniteMatrixGroup) -> int:
    """Orbit of g under conjugation by the group's generators."""
    g = np.asarray(g, dtype=np.int64)
    if g not in group:
        raise NotAMember("conjugacy class requested for a non-member")
    orbit = g[None]
    while True:
        conj = [s @ orbit @ lattice_inverse(s) for s in group.gens]
        grown = np.unique(np.concatenate([orbit, *conj]), axis=0)
        if len(grown) == len(orbit):
            return len(orbit)
        orbit = grown


def centralizer(g: np.ndarray, group: FiniteMatrixGroup) -> FiniteMatrixGroup:
    """Subgroup of elements commuting with g, with |orbit| * |centralizer|
    cross-checked against the group order."""
    g = np.asarray(g, dtype=np.int64)
    if g not in group:
        raise NotAMember("centralizer requested for a non-member")
    sub = regenerate(group.elements[group.intertwiners(g, g)])
    orbit = conjugacy_class_size(g, group)
    if orbit * len(sub) != len(group):
        raise WrongOrder("orbit-stabilizer count failed for the centralizer")
    return sub


def regenerate(members: np.ndarray) -> FiniteMatrixGroup:
    """Find a small generating set for a closed member stack, then re-close.

    Greedy: keep adjoining the first member not yet generated.  The final
    closure is asserted to reproduce the member set exactly, which certifies
    that the input really was closed.
    """
    members = np.asarray(members, dtype=np.int64)
    cap = len(members) + 1
    gens: list[np.ndarray] = []
    group = FiniteMatrixGroup.close([np.eye(members.shape[1], dtype=np.int64)],
                                    cap=cap)
    missing = np.flatnonzero(group.locate(members) < 0)
    while len(missing) and len(group) < len(members):
        gens.append(members[missing[0]])
        group = FiniteMatrixGroup.close(gens, cap=cap)
        missing = np.flatnonzero(group.locate(members) < 0)
    if len(missing) or len(group) != len(members):
        raise WrongOrder("member list is not closed under multiplication")
    return group


def trace_character_check(g: np.ndarray) -> tuple[int, int]:
    """(matrix trace, reflection-representation character tr - 1)."""
    g = np.asarray(g, dtype=np.int64)
    tr = int(np.trace(g))
    return tr, tr - 1
