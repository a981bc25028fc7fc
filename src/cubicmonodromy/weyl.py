"""The Weyl group of E6 as integer matrices on the (1, 6) lattice.

Elements are 7 x 7 integer matrices preserving the diagonal form
diag(1, -1, ..., -1) and fixing the canonical class (-3, 1, ..., 1).  The
group is generated by the six simple reflections and enumerated by a
deterministic breadth-first closure that also records a generator word for
every element, which later feeds the isomorphism verification.

The closure works on the orbit of the standard basis under the generators
(for the reflection group 99 vectors: the 27 exceptional classes and the 72
images of e0), found exactly in Python integers by one product per
breadth-first level.  An element is stored as the orbit indices ("digits")
of its columns: g_j @ m is a gather of m's digits through g_j's permutation
of the orbit, and the digits read in base |orbit| are an exact, injective
int64 key (99^7 < 2^47).  A BFS level reads the keys of all its products off
one table, by a gather per column, and one sort of the keys, each packed
with its visit in the low bits, finds the first visit of every key: the one
a per-element search makes.  Elements are exactly those of the per-element
search, transitions derived on first read, and the group keeps the search's
BFS tree as arrays, level by level.  The matrix stack is one gather of
orbit vectors, made on first use only.  A column is found by a wrapped int64
code, distinct on the orbit, and then compared exactly.  The digits also
give the form check of every element as lookups in the orbit's pairing
table.

The tree is read one way, by `FiniteMatrixGroup.along_tree`: given a table
of how each generator moves a state, it gives every element the state its
word reaches from a start, one BFS level at a time.  A conjugacy class is
walked once per group and member and kept on the group, with the class
position of s c s^-1 for each member c and generator s; walking the tree
through that table gives the class position of w g w^-1 for every w, and
the elements landing on g itself are the centralizer, without a pass over
the matrices of the group.  The same walk through a model's product table
extends generator images to the whole group (`groups.verify_generator_map`).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache
from types import MappingProxyType

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
_MIX = np.uint64(0x9E3779B97F4A7C15)  # odd base of the column code


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


def _basis_orbit(gens: list[np.ndarray], dim: int,
                 limit: int) -> tuple[list[tuple[int, ...]], np.ndarray]:
    """Orbit of the standard basis under the generators, exactly.

    Returns the orbit vectors (the basis first, then in discovery order) and
    the (ng, |orbit|) table whose entry [j, k] is the index of g_j @ v_k.
    The orbit grows one breadth-first level at a time, each level by one
    product in Python integers, and its (vector, generator) images are met
    in the order a per-vector search meets them.  CapExceeded as soon as the
    orbit passes limit vectors.
    """
    g_obj = np.array([g.tolist() for g in gens], dtype=object).reshape(
        len(gens), dim, dim)
    vecs = [tuple(int(i == k) for i in range(dim)) for k in range(dim)]
    index = {v: k for k, v in enumerate(vecs)}
    images, lo = [], 0
    while lo < len(vecs):
        level = np.array(vecs[lo:], dtype=object).T
        lo = len(vecs)
        prods = g_obj @ level
        # (vector, generator) order, as the per-vector search takes them
        for w in map(tuple, prods.transpose(2, 0, 1).reshape(-1, dim).tolist()):
            images.append(index.setdefault(w, len(vecs)))
            if images[-1] == len(vecs):
                vecs.append(w)
                if len(vecs) > limit:
                    raise CapExceeded(f"basis orbit exceeded {limit} vectors")
    return vecs, np.array(images, dtype=np.int64).reshape(len(vecs), -1).T


class FiniteMatrixGroup:
    """A finite matrix group enumerated by level-synchronous BFS closure.

    `elements` is one read-only (n, d, d) int64 stack in discovery order,
    elements[0] the identity, built from the digits on first access.
    `digits[i, k]` is the index of column k of elements[i] in `orbit`,
    `moves[j, k]` the index of gens[j] @ orbit[k], and membership goes
    through the sorted digit keys.  `transitions[i, j]`, the index of
    gens[j] @ elements[i], is derived from the digits on first read.

    `tree` is the closure's BFS tree as arrays (parent, generator, bounds):
    element i >= 1 is gens[generator[i]] @ elements[parent[i]], BFS level L
    is the index range bounds[L]:bounds[L + 1], each parent lies one level
    up, and entry 0 of parent and generator is 0.  `word` and `along_tree`
    read it.  `class_walks` keeps each conjugacy class walked in the group,
    keyed by the bytes of the element it started from.
    """

    def __init__(self, gens: list[np.ndarray], orbit: np.ndarray,
                 digits: np.ndarray,
                 tree: tuple[np.ndarray, np.ndarray, np.ndarray],
                 moves: np.ndarray):
        self.gens = gens
        self.orbit = orbit
        self.digits = digits
        self.tree = tree
        self.moves = moves
        self.class_walks: dict[bytes, ClassWalk] = {}
        self._weights = len(orbit) ** np.arange(orbit.shape[1], dtype=np.int64)
        keys = digits @ self._weights
        self._order = np.argsort(keys)
        self._keys = keys[self._order]
        # a wrapped code per orbit vector, sorted, for exact column lookup
        self._mix = _MIX ** np.arange(orbit.shape[1], dtype=np.uint64)
        codes = orbit.view(np.uint64) @ self._mix
        self._code_order = np.argsort(codes)
        self._codes = codes[self._code_order]
        if np.any(self._codes[1:] == self._codes[:-1]):
            raise GroupError("two orbit vectors share a column code")
        self._census: dict[int, int] | None = None

    @classmethod
    def close(cls, gens: list[np.ndarray], cap: int = DEFAULT_CAP) -> "FiniteMatrixGroup":
        """Deterministic BFS closure of the generating set, identity first.

        Raises CapExceeded past cap elements and GroupError unless the basis
        orbit O has |O|^dim * 2^s <= 2^63 at every BFS level, 2^s the least
        power of two not below the level's (element, generator) visits: each
        digit key is packed with its visit into one int64 (for the reflection
        group 99^7 * 2^15 < 2^62).
        """
        gens = [np.asarray(g, dtype=np.int64) for g in gens]
        ng = len(gens)
        dim = gens[0].shape[0] if gens else 7
        # each basis vector's orbit is at most the group order
        vecs, images = _basis_orbit(gens, dim, dim * cap)
        images = images.astype(np.min_scalar_type(len(vecs) - 1))
        weights = len(vecs) ** np.arange(dim, dtype=np.int64)
        # table[k, o, j]: the key part of column k when g_j moves it from o
        table = weights[:, None, None] * images.T
        flat = images.ravel()
        frontier = np.arange(dim, dtype=images.dtype)[None]
        keys = frontier @ weights  # sorted keys so far
        chunks, born_at, start = [frontier], [], 0
        while len(frontier):
            visits = len(frontier) * ng
            shift = (visits - 1).bit_length()
            if len(vecs) ** dim << shift > 2**63:
                raise GroupError(f"{len(vecs)}^{dim} digit keys times 2^{shift}"
                                 f" visits exceed 2^63")
            # keys of g_j @ m in (element, generator) order, each packed
            # with its visit: one sort puts the earliest visit of a key first
            cand = table[0].take(frontier[:, 0], axis=0)
            for k in range(1, dim):
                cand += table[k].take(frontier[:, k], axis=0)
            packed = np.sort((cand.ravel() << shift) | np.arange(visits))
            ordered = packed >> shift
            head = np.ones(visits, dtype=bool)
            head[1:] = ordered[1:] != ordered[:-1]
            # a per-element search meets each key first at its earliest visit
            distinct, first = ordered[head], packed[head] & ((1 << shift) - 1)
            at = np.searchsorted(keys, distinct)
            fresh = keys[np.minimum(at, len(keys) - 1)] != distinct
            src = np.sort(first[fresh])
            if len(keys) + len(src) > cap:
                raise CapExceeded(f"closure exceeded cap {cap}")
            keys = np.insert(keys, at[fresh], distinct[fresh])
            born_at.append(start * ng + src)  # (parent, generator) visit
            start += len(frontier)
            # images[j, frontier[m]] for the fresh (m, j) only
            up, j = np.divmod(src, ng)
            frontier = flat.take(frontier[up] + (j * len(vecs))[:, None])
            chunks.append(frontier)
        parent, g_idx = np.divmod(np.concatenate(born_at), ng)
        bounds = np.cumsum([0, *map(len, chunks[:-1])])  # last one is empty
        tree = (np.concatenate([[0], parent]), np.concatenate([[0], g_idx]),
                bounds)
        return cls(gens, np.array(vecs, dtype=np.int64).reshape(-1, dim),
                   np.concatenate(chunks), tree, images)

    @cached_property
    def elements(self) -> np.ndarray:
        stack = np.ascontiguousarray(self.orbit[self.digits].transpose(0, 2, 1))
        stack.flags.writeable = False
        return stack

    def __len__(self) -> int:
        return len(self.digits)

    @cached_property
    def transitions(self) -> np.ndarray:
        """Read-only (n, ng) index of gens[j] @ elements[i]; GroupError
        when a product is not an element (the digits are not closed)."""
        keys = (self.moves[:, self.digits] @ self._weights).T
        pos = np.minimum(np.searchsorted(self._keys, keys), len(self) - 1)
        if np.any(self._keys[pos] != keys):
            raise GroupError("a product with a generator is not an element")
        table = self._order[pos]
        table.flags.writeable = False
        return table

    def locate(self, mats: np.ndarray) -> np.ndarray:
        """Element index of each matrix of a (k, d, d) stack, -1 if absent."""
        mats = np.ascontiguousarray(mats, dtype=np.int64)
        if mats.ndim != 3:
            raise ValueError(f"locate takes a (k, d, d) stack, not shape {mats.shape}")
        if mats.shape[1:] != (self.digits.shape[1],) * 2:
            return np.full(len(mats), -1, dtype=np.int64)
        codes = self._mix @ mats.view(np.uint64)  # one per column
        at = self._code_order[np.minimum(np.searchsorted(self._codes, codes),
                                         len(self._codes) - 1)]
        keys = at @ self._weights
        pos = np.minimum(np.searchsorted(self._keys, keys), len(self) - 1)
        hit = ((self._keys[pos] == keys)
               & np.all(self.orbit[at] == mats.transpose(0, 2, 1), axis=(1, 2)))
        return np.where(hit, self._order[pos], -1)

    def __contains__(self, m: np.ndarray) -> bool:
        return bool(self.locate(np.asarray(m)[None])[0] >= 0)

    def word(self, idx: int) -> list[int]:
        """Generator indices whose left-to-right product is elements[idx]."""
        parent, gen, _ = self.tree
        out: list[int] = []
        while idx:
            # closure builds gen @ parent, so the walk yields leftmost first
            out.append(int(gen[idx]))
            idx = parent[idx]
        return out

    def along_tree(self, table: np.ndarray, start: int = 0) -> np.ndarray:
        """The state every element's word reaches from start, one BFS level
        at a time: the identity is at start, and element i >= 1 at
        table[state of parent[i], generator[i]]."""
        parent, gen, bounds = self.tree
        out = np.empty(len(self), dtype=table.dtype)
        out[0] = start
        for lo, hi in zip(bounds[1:-1], bounds[2:]):
            out[lo:hi] = table[out[parent[lo:hi]], gen[lo:hi]]
        return out

    def stacked(self) -> np.ndarray:
        """The (n, d, d) element stack itself, read-only, not a copy; the
        first call builds it."""
        return self.elements

    def census(self) -> dict[int, int]:
        """Multiplicative order histogram, computed batched."""
        if self._census is None:
            vals, counts = np.unique(_orders(self.elements), return_counts=True)
            self._census = dict(zip(vals.tolist(), counts.tolist()))
        return self._census

    @staticmethod
    def element_order(m: np.ndarray) -> int:
        """Multiplicative order of one matrix, by the census's power loop."""
        return int(_orders(np.asarray(m, dtype=np.int64)[None])[0])


def element_orders(first: np.ndarray, step, is_identity,
                   limit: int) -> np.ndarray:
    """Multiplicative order of each entry of a stack, by batched powers.

    first is the stack itself, step(power) the next power of every entry,
    and is_identity(power) a boolean per entry; the order of an entry is the
    first k at which its k-th power is the identity.  WrongOrder when an
    order exceeds limit.
    """
    power, orders = first, np.zeros(len(first), dtype=np.int64)
    for k in range(1, limit + 1):
        orders[is_identity(power) & (orders == 0)] = k
        if orders.all():
            return orders
        power = step(power)
    raise WrongOrder(f"an element order exceeded the bound of {limit}")


def _orders(stack: np.ndarray) -> np.ndarray:
    """Orders of the matrices of an (n, d, d) stack, at most 399."""
    identity = np.eye(stack.shape[1], dtype=np.int64)
    return element_orders(stack, lambda power: power @ stack,
                          lambda power: np.all(power == identity, axis=(1, 2)),
                          399)


def lattice_invariants(group: FiniteMatrixGroup) -> tuple[bool, bool]:
    """(every element preserves J_FORM, every element fixes CANONICAL_CLASS).

    Exact over the whole group, read from the stored digits: column k of
    elements[n] is orbit[digits[n, k]], so entry (i, j) of m^T J m is the
    pairing table orbit @ J @ orbit^T at (digits[n, i], digits[n, j]).  The
    form is symmetric, so the 28 entries with i <= j decide it.  Likewise
    m @ K is the sum of K_k times orbit[digits[n, k]].
    """
    orbit, digits = group.orbit, group.digits
    dim = digits.shape[1]
    table = orbit @ J_FORM @ orbit.T
    table = table.astype(np.min_scalar_type(-1 - int(np.abs(table).max())))
    cols = np.ascontiguousarray(digits.T)
    rows = cols.astype(np.int32) * len(orbit)
    form = all(bool((table.take(rows[i] + cols[j]) == int(J_FORM[i, j])).all())
               for i in range(dim) for j in range(i, dim))
    # narrow, but wide enough that a sum of dim rows cannot wrap
    scaled = CANONICAL_CLASS[:, None, None] * orbit
    scaled = scaled.astype(np.min_scalar_type(-1 - dim * int(np.abs(scaled).max())))
    fixes = sum(part.take(digits[:, col], axis=0)
                for col, part in enumerate(scaled))
    return form, bool((fixes == CANONICAL_CLASS).all())


@lru_cache(maxsize=1)
def weyl_group() -> FiniteMatrixGroup:
    """The full reflection group, 51840 elements, cached per process."""
    group = FiniteMatrixGroup.close(weyl_generators(), cap=DEFAULT_CAP)
    if len(group) != WEYL_ORDER:
        raise WrongOrder(f"reflection closure has {len(group)} elements")
    return group


@dataclass(frozen=True)
class ClassWalk:
    """The conjugacy class of g as walked in a group, g first.

    `carriers` maps member.tobytes() to a group element w with
    w g w^-1 = member, in walk order; `table[i, j]` is the walk position of
    s_j c s_j^-1 for the member c at position i.  Both are read-only.
    """

    carriers: MappingProxyType
    table: np.ndarray


def _class_walk(g: np.ndarray, group: FiniteMatrixGroup) -> ClassWalk:
    """g's class walk, made once per group and kept in group.class_walks.

    The orbit algorithm with a transversal (Holt, Eick and O'Brien, Handbook
    of Computational Group Theory, section 4.1), grown breadth-first by
    conjugating every new member with each generator (w for s c s^-1 is s
    times the w of c).  Raises NotAMember when g is not in the group and
    GroupError when a conjugate is not.
    """
    g = np.ascontiguousarray(g, dtype=np.int64)
    key = g.tobytes()
    if key in group.class_walks:
        return group.class_walks[key]
    if g not in group:
        raise NotAMember("conjugacy class requested for a non-member")
    gens = np.stack(group.gens)[:, None]
    invs = np.stack([lattice_inverse(s) for s in group.gens])[:, None]
    eye = np.eye(len(g), dtype=np.int64)
    position = {key: 0}
    members, carriers, rows = [g[None]], [eye[None]], []
    while len(members[-1]):
        # (member, generator) order: s c s^-1 and s w for every pair
        conj = (gens @ members[-1] @ invs).swapaxes(0, 1).reshape(-1, *g.shape)
        carry = (gens @ carriers[-1]).swapaxes(0, 1).reshape(-1, *g.shape)
        start = len(position)
        at = np.array([position.setdefault(m.tobytes(), len(position))
                       for m in conj])
        rows.append(at.reshape(-1, len(gens)))
        # first visits of the new positions, in the order they were given
        new, first = np.unique(at, return_index=True)
        fresh = first[new >= start]
        members.append(conj[fresh])
        carriers.append(carry[fresh])
    if np.any(group.locate(np.concatenate(members)) < 0):
        raise GroupError("a conjugate left the group")
    carriers, table = np.concatenate(carriers), np.concatenate(rows)
    carriers.flags.writeable = table.flags.writeable = False
    walk = ClassWalk(MappingProxyType(dict(zip(position, carriers))), table)
    group.class_walks[key] = walk
    return walk


def conjugacy_class(g: np.ndarray,
                    group: FiniteMatrixGroup) -> MappingProxyType:
    """The conjugacy class of a member g, each member with a conjugator.

    A read-only map from member.tobytes() to a group element w with
    w g w^-1 = member, g first; the walk behind it is made once per group.
    Raises NotAMember when g is not in the group.
    """
    return _class_walk(g, group).carriers


def conjugacy_class_size(g: np.ndarray, group: FiniteMatrixGroup) -> int:
    """Length of g's class walk, whose members all lie in the group."""
    return len(_class_walk(g, group).table)


def centralizer(g: np.ndarray, group: FiniteMatrixGroup) -> FiniteMatrixGroup:
    """Subgroup of elements commuting with g, read off the closure's BFS tree.

    With w g w^-1 at walk position c for an element w, the element s w lies
    at table[c, s]; following the tree level by level gives every element's
    position, and the elements at position 0 (g itself) commute with g.
    Each is checked to commute, and |class| * |centralizer| against the
    group order.
    """
    g = np.ascontiguousarray(g, dtype=np.int64)
    walk = _class_walk(g, group)
    idx = np.flatnonzero(group.along_tree(walk.table) == 0)
    members = group.orbit[group.digits[idx]].transpose(0, 2, 1)
    if not np.array_equal(members @ g, g @ members):
        raise GroupError("a centralizer member does not commute with g")
    sub = regenerate(members)
    if len(walk.table) * len(sub) != len(group):
        raise WrongOrder("orbit-stabilizer count failed for the centralizer")
    return sub


def regenerate(members: np.ndarray) -> FiniteMatrixGroup:
    """Find a small generating set for a closed member stack, then re-close.

    Greedy: keep adjoining the first member not yet generated.  The final
    closure is asserted to reproduce the member set exactly, which certifies
    that the input really was closed; WrongOrder otherwise, also when the
    members generate more elements than there are members.
    """
    members = np.asarray(members, dtype=np.int64)
    cap = len(members) + 1
    gens: list[np.ndarray] = []
    group = FiniteMatrixGroup.close([np.eye(members.shape[1], dtype=np.int64)],
                                    cap=cap)
    missing = np.flatnonzero(group.locate(members) < 0)
    while len(missing) and len(group) < len(members):
        gens.append(members[missing[0]])
        try:
            group = FiniteMatrixGroup.close(gens, cap=cap)
        except CapExceeded:  # missing still holds the member just adjoined
            break
        missing = np.flatnonzero(group.locate(members) < 0)
    if len(missing) or len(group) != len(members):
        raise WrongOrder("member list is not closed under multiplication")
    return group
