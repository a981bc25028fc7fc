"""End to end: the monodromy image equals the deck centralizer.

Two torsion symmetries of the surface (the translations of the branch
cubic by two of its flexes, its 3-torsion points, lifted to the cover) and
the two loop monodromies generate a matrix group.  This script computes that group from scratch, shows it coincides
with the centralizer of the deck class inside the order-51840 reflection
group, and certifies the isomorphism with the abstract semidirect product
of the extraspecial group of order 27 by SL(2, F3).
"""

from cubicmonodromy import (build_pipeline, centralizer, semidirect_model,
                            verify_isomorphism_via_transport, weyl_group)

bundle = build_pipeline()

print("generators, computed from geometry alone:")
# the closure keeps its generators in the order h1, h2, g1, g2
for name, mat in zip(("torsion 1", "torsion 2", "loop around -1",
                      "loop around +1"), bundle.group.gens):
    order = weyl_group().element_order(mat)
    print(f"  {name:>14}: order {order}, trace {mat.trace()}")

print(f"\nclosure of the four generators: {len(bundle.group)} elements")
print(f"order census: {bundle.group.census()}")

cen = centralizer(bundle.deck, weyl_group())
same = {m.tobytes() for m in bundle.group.elements} == \
    {m.tobytes() for m in cen.elements}
print(f"\ncentralizer of the deck class: {len(cen)} elements")
print(f"generated group equals the centralizer as a set: {same}")

model = semidirect_model()
print(f"\nabstract model: {len(model)} elements, census {model.census()}")
print(f"model center size: {len(model.center())}")

mapping = verify_isomorphism_via_transport(bundle.group, bundle.deck)
print(f"word-verified isomorphism onto the model: "
      f"{len(mapping)} elements mapped, "
      f"{len(set(mapping.values()))} distinct images")
print("\nevery product of group elements was checked against the model;")
print("the monodromy image is the full 648-element centralizer.")
