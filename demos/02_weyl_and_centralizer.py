"""The reflection group on the divisor lattice and the deck centralizer.

Six reflections generate a group of order 51840 acting on Z^{1,6} with the
signature (1,6) form, fixing the canonical class, so the lattice is the
6-dimensional reflection representation plus that fixed line.  The deck
rotation of the triple cover acts as an order-3 lattice map of trace -2,
character -3 on the reflection representation, whose centralizer has
index 80: a subgroup of order 648.
"""

import numpy as np

from cubicmonodromy import (J_FORM, CANONICAL_CLASS, base_surface, centralizer,
                            conjugacy_class_size, weyl_generators, weyl_group)

gens = weyl_generators()
print(f"reflection generators: {len(gens)}")
print(f"each squares to the identity: "
      f"{all(np.array_equal(g @ g, np.eye(7, dtype=np.int64)) for g in gens)}")

w = weyl_group()
print(f"\nclosure size: {len(w)}")

stacked = w.stacked()
form_ok = (np.einsum("nja,jk,nkb->nab", stacked, J_FORM, stacked) == J_FORM).all()
canon_ok = (stacked @ CANONICAL_CLASS == CANONICAL_CLASS).all()
print(f"all elements preserve the form: {form_ok}")
print(f"all elements fix the canonical class: {canon_ok}")
print(f"element order census: {w.census()}")

deck = base_surface().deck_matrix
print(f"\ndeck rotation as a lattice map:\n{deck}")
tr = int(np.trace(deck))
print(f"order {w.element_order(deck)}, trace {tr}, "
      f"character on the reflection representation {tr - 1}")

size = conjugacy_class_size(deck, w)
cen = centralizer(deck, w)
print(f"conjugacy class size: {size}")
print(f"centralizer order: {len(cen)}  (51840 / {size} = {51840 // size})")
print(f"centralizer census: {cen.census()}")
