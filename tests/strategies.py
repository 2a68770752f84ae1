"""Hypothesis strategies shared by the property tests."""

from hypothesis import strategies as st

from ctfpolys import build_graph


@st.composite
def multigraphs(draw, max_edges=7):
    """Multigraphs with at most 5 vertices and ``max_edges`` edges, loops
    and parallel edges included."""
    n = draw(st.integers(1, 5))
    vertex = st.integers(0, n - 1)
    return build_graph(n, draw(st.lists(st.tuples(vertex, vertex), max_size=max_edges)))
