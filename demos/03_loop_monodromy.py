"""Tracking the 27 lines around the two singular members of the pencil.

As the family parameter runs around a puncture, the four branch points of
the discriminant quartic braid, the eight moving inflection points follow
them, and the induced permutation of the lines is read off at the endpoint.
The result is an integer matrix on the divisor lattice.
"""

import numpy as np

from cubicmonodromy import (TrackingConfig, constant_loop, flex_lattice_map,
                            gamma_minus, gamma_plus, lift_to_lines, trace_loop,
                            weyl_group)


def cycles(perm):
    seen, out = set(), []
    for i in range(len(perm)):
        if i in seen:
            continue
        cyc, j = [i], int(perm[i])
        seen.add(i)
        while j != i:
            cyc.append(j)
            seen.add(j)
            j = int(perm[j])
        if len(cyc) > 1:
            out.append(tuple(cyc))
    return out or "identity"


for name, loop in (("loop around -1", gamma_minus()),
                   ("loop around +1", gamma_plus()),
                   ("constant loop", constant_loop(0.0))):
    trace = trace_loop(loop)
    lines = lift_to_lines(trace.flex_perm)
    print(f"{name}:")
    print(f"  branch roots  {cycles(trace.root_perm)}")
    print(f"  inflections   {cycles(trace.flex_perm)}")
    print(f"  lines         {cycles(lines)}")
    m = flex_lattice_map(trace.flex_perm)
    print(f"  lattice matrix in the reflection group: {m in weyl_group()}, "
          f"order {weyl_group().element_order(m)}")

# the tracked paths themselves: four roots sweeping as the parameter loops
trace = trace_loop(gamma_minus(), TrackingConfig(steps=100))
starts = np.round(trace.roots[0], 4)
ends = np.round(trace.roots[-1], 4)
print(f"\nroot paths around -1 ({len(trace.ts)} samples):")
for k in range(4):
    print(f"  root {k}: {starts[k]} -> {ends[k]}")

# resolution does not matter: the permutations are discrete invariants
for steps in (50, 100, 200):
    p = trace_loop(gamma_minus(), TrackingConfig(steps=steps)).root_perm
    print(f"steps={steps:>3}: root permutation {p.tolist()}")
