"""Interpolate the counting families into exact polynomials and relate them
to the Tutte and rank generating polynomials.

Run:  python3 demos/03_polynomials.py
"""

from ctfpolys import (
    Orientation,
    OrientationTable,
    build_graph,
    counting_polynomial,
    polynomial_report,
    rank_generating,
    tutte,
)

g = build_graph(3, [(0, 2), (0, 1), (1, 2), (0, 1), (1, 2)])

t = tutte(g)
r = rank_generating(g)
print("T =", t.to_text())
print("R =", r.to_text())
print("R(x,y) == T(x+1,y+1):", r == t.substitute(1, 1, 1, 1))

kappa = counting_polynomial(g, "kappa_mod")
kappa_bar = counting_polynomial(g, "kappa_bar_mod")
print("\nkappa     =", kappa.to_text())
print("kappa_bar =", kappa_bar.to_text())
print("kappa_bar == R:", kappa_bar == r)

# Integral families are integer-valued but need rational coefficients.
kappa_int = counting_polynomial(g, "kappa_int")
print("\nkappa_int =", kappa_int.to_text())
print("kappa_int(2,2) =", kappa_int.evaluate(2, 2))

# Specializations recover the tension and flow polynomials.
tau = counting_polynomial(g, "tau_mod")
phi = counting_polynomial(g, "phi_mod")
print("\nkappa(x,1) == tau:", kappa.set_y(1) == tau)
print("kappa(1,y) == phi:", kappa.set_x(1) == phi)

# Per-orientation families take the orientation as count does; reciprocity
# relates the open and closed boxes, with the sign (-1)^(r + |C(rho)|).
table = OrientationTable(g)
rank = g.stats().rank


def local_pair(o):
    return (counting_polynomial(g, "kappa_local", orientation=o),
            counting_polynomial(g, "kappa_bar_local", orientation=o))


rho = Orientation.from_string(g, "00010")
kappa_rho, kappa_bar_rho = local_pair(rho)
print("\nkappa_rho     =", kappa_rho.to_text(), " (rho = 00010)")
print("kappa_bar_rho =", kappa_bar_rho.to_text())


def reciprocal(o):
    kappa_o, kappa_bar_o = local_pair(o)
    sign = (-1) ** (rank + len(table.circuit(o)))
    return kappa_o.substitute(-1, 0, -1, 0) == sign * kappa_bar_o


print(f"kappa_rho(-x,-y) == +-kappa_bar_rho on all {len(table.orientations)} orientations:",
      all(map(reciprocal, table.orientations)))

# Census values straight off the Tutte polynomial.
for (x, y), label in [
    ((2, 2), "orientations"),
    ((1, 1), "cut-Eulerian classes"),
    ((2, 0), "acyclic orientations"),
    ((0, 2), "totally cyclic orientations"),
]:
    print(f"T({x},{y}) = {t.evaluate(x, y)}  ({label})")

report = polynomial_report(build_graph(2, [(0, 1), (0, 1)]))
print("\ndigon report:")
for name, poly in sorted(report.named().items()):
    print(f"  {name:15s} {poly.to_text()}")
