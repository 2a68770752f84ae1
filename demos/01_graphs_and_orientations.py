"""Walk through the core objects: a multigraph, its minors, orientations,
and the bond/circuit partition.

Run:  python3 demos/01_graphs_and_orientations.py
"""

from ctfpolys import (
    Orientation,
    OrientationTable,
    boundary,
    build_graph,
    is_flow,
    is_tension,
    spanning_structure,
)

# The running example everywhere in this repo: a triangle on u, v, w with the
# u-v and v-w edges doubled. Edge pair order is the reference direction.
g = build_graph(3, [(0, 2), (0, 1), (1, 2), (0, 1), (1, 2)])
stats = g.stats()
print(f"graph: {g.vertex_count} vertices, {g.edge_count} edges")
print(f"components={stats.components} rank={stats.rank} nullity={stats.nullity}")

# Minors keep the original edge labels, so vectors and orientations carry over.
sub = g.restrict({1, 3})
print("\nrestrict to {e2, e4}:", sub.edges, "labels", sub.edge_ids)
merged = g.contract({1, 3})
print("contract {e2, e4}:  ", merged.edges, "labels", merged.edge_ids)

# Edge positions: on a graph built fresh they equal the edge labels. Each
# circuit runs along its non-forest edge, then back through the forest; a
# sign is -1 where the circuit crosses an edge against its reference direction.
forest = spanning_structure(g)
print("\nspanning forest:", list(forest.forest_positions))
for e, rest in forest.circuit_table:
    print(f"  circuit of e{e + 1}:", ((e, 1),) + rest)

# Orientations are flip vectors against the reference direction.
ref = Orientation.reference(g)
print("\nreference orientation:", ref.flip_string(), "arrows", ref.arrows())

f = (2, 1, 1, 1, 1)
print(f"{f} is a tension:", is_tension(ref, f))
gvec = (-1, 1, 1, 0, 0)
print(f"{gvec} is a flow:", is_flow(ref, gvec), "boundary:", boundary(ref, gvec))

# The Minty partition: every edge is either on a directed circuit or in the
# union of directed bonds, never both. The orientation table lists the
# orientations and finds each one's circuit part; acyclic means an empty
# circuit part, totally cyclic an empty bond part.
table = OrientationTable(g)
for bits in ("00000", "00010", "10011"):
    o = Orientation.from_string(g, bits)
    circuit = table.circuit(o)
    bond = [pos for pos in range(g.edge_count) if pos not in circuit]
    print(f"\nflips {bits}: bond part {bond}, circuit part {sorted(circuit)}")
    print(f"  acyclic={not circuit} totally_cyclic={not bond}")

total = len(table.orientations)
acyclic = len(table.members("acyclic"))
strong = len(table.members("totally_cyclic"))
print(f"\norientations: {total} total, {acyclic} acyclic, {strong} totally cyclic")
