"""The 27 lines of one triple-cover surface and their divisor classes.

The surface is w^3 = f(x, y, z) for the base member of the smooth cubic
pencil.  Its 27 lines come in 9 concurrent triples, one over each inflection
point of the branch curve; passing to divisor classes turns the incidence
combinatorics into integer linear algebra.
"""

import numpy as np

from cubicmonodromy import (base_surface, concurrent_triples,
                            is_strongly_regular_27, line_label, pairing,
                            surface_residual)

s = base_surface()
print(f"surface form coefficients: {np.count_nonzero(s.form.coeffs)} nonzero")
print(f"flexes: {s.flexes.shape}, lines: {s.lines.shape}")

worst = max(surface_residual(s.form, pair) for pair in s.lines)
print(f"worst on-surface residual over all lines: {worst:.2e}")

# line k is a pair of covectors (h1, h2) over inflection point k // 3 on
# cube-root sheet k % 3: index = 3*flex + sheet
for k, (h1, _) in enumerate(s.lines[:6]):
    flex, sheet = line_label(k)
    print(f"  line over flex {flex}, sheet {sheet}: h1 = {np.round(h1, 3)}")
print("  ...")

# incidence: every line meets exactly 10 others, adjacent lines share no
# common neighbor, non-adjacent lines share exactly 5
deg = s.adjacency.sum(axis=1)
print(f"\nincidence degrees: min {deg.min()}, max {deg.max()}")
print(f"strongly regular (27, 10, 1, 5): "
      f"{is_strongly_regular_27(s.adjacency)}")

triples = concurrent_triples(s.lines, s.adjacency)
print(f"concurrent triples: {len(triples)}")
print(f"first three: {triples[:3]}")

print(f"\nsix pairwise disjoint lines: {s.sixer}")
meets = [int(s.adjacency[a, b]) for i, a in enumerate(s.sixer)
         for b in s.sixer[i + 1:]]
print(f"pairwise meets among them: {sum(meets)}")

# divisor classes: line i maps to an integer vector; the lattice pairing
# of two classes is 1 exactly when the lines meet
agree = sum(
    (pairing(s.classes[i], s.classes[j]) == 1) == bool(s.adjacency[i, j])
    for i in range(27) for j in range(i + 1, 27))
print(f"\nclass pairing reproduces incidence on {agree}/351 pairs")
print(f"every class has self-pairing -1: "
      f"{all(pairing(c, c) == -1 for c in s.classes)}")
