"""Count tensions, flows, and complementary tension-flow pairs, modular and
integral, and watch the decomposition over orientations come out exact.

Every number below is a count from one kernel, a dynamic program over
partial sums; no vector is listed.

Run:  python3 demos/02_counting_tension_flows.py
"""

from ctfpolys import Orientation, OrientationTable, build_graph, count

g = build_graph(3, [(0, 2), (0, 1), (1, 2), (0, 1), (1, 2)])
ref = Orientation.reference(g)

# Nowhere-zero tensions and flows: over a group of order p or q, and over
# the integers with |value| < p or q.
for a in (2, 3):
    print(f"tau_mod({a}) = {count(g, 'tau_mod', p=a)}, phi_mod({a}) = {count(g, 'phi_mod', q=a)}, "
          f"tau_int({a}) = {count(g, 'tau_int', p=a)}, phi_int({a}) = {count(g, 'phi_int', q=a)}")

# Closed boxes depend on the orientation. The reference orientation is
# acyclic, so its only non-negative flow is zero; flipping three edges makes
# it totally cyclic.
strong = ref.with_flipped([0, 3, 4])
print("\ntensions in [0,1]^E:", count(g, "tau_bar_local", p=1, orientation=ref))
print("flows in [0,1]^E:", count(g, "phi_bar_local", q=1, orientation=ref))
print("flows in [0,1]^E, totally cyclic:", count(g, "phi_bar_local", q=1, orientation=strong))

# A complementary pair puts a nonzero tension value or a nonzero flow value
# (never both) on every edge. kappa counts them.
print("\nkappa_mod(3,3) =", count(g, "kappa_mod", p=3, q=3))
print("kappa_int(2,2) =", count(g, "kappa_int", p=2, q=2))

# The integral count decomposes exactly over all 2^|E| orientations.
total = 0
for o in OrientationTable(g).orientations:
    total += count(g, "kappa_local", p=2, q=2, orientation=o)
print("sum of kappa_local over orientations =", total)

# Reduction mod (p, q) sends the integral pairs of each cut-Eulerian class
# onto the same modular pairs: kappa_local summed over the class
# representatives gives kappa_mod, and weighted by class size kappa_int.
classes = OrientationTable(g).classes("cut_eulerian").classes
local = [(len(cls), count(g, "kappa_local", p=3, q=3, orientation=cls[0])) for cls in classes]
print(f"\n{len(classes)} cut-Eulerian classes; at (3,3):")
print(f"  kappa_local summed over representatives = {sum(n for _, n in local)}"
      f" (kappa_mod = {count(g, 'kappa_mod', p=3, q=3)})")
print(f"  weighted by class size = {sum(size * n for size, n in local)}"
      f" (kappa_int = {count(g, 'kappa_int', p=3, q=3)})")

# Group structure does not matter, only the order: Z4 vs Z2 x Z2.
for q in (2, 3, 4):
    a = count(g, "kappa_mod", p=4, q=q, group_a=(4,))
    b = count(g, "kappa_mod", p=4, q=q, group_a=(2, 2))
    print(f"kappa over groups of order 4 x {q}: Z4 -> {a}, Z2xZ2 -> {b}")
