"""Acceptance suite: each test covers one numbered criterion and prints one
pass/fail line (run with -s to see the lines live)."""

from fractions import Fraction
from itertools import product

import pytest

import oracles
from ctfpolys import (
    BivariatePolynomial,
    Orientation,
    OrientationTable,
    count,
    counting_polynomial,
    local_polynomial,
    tutte,
    verify_corpus,
)
from ctfpolys.cli import main
from ctfpolys.verify import IDENTITY_TAGS

X = BivariatePolynomial.variable("x")
Y = BivariatePolynomial.variable("y")


def _report(criterion: str, passed: bool) -> None:
    print(f"ACCEPTANCE {criterion}: {'PASS' if passed else 'FAIL'}")


@pytest.fixture(scope="module")
def corpus5():
    return list(verify_corpus(5, include_loops=True))


def test_criterion_1_worked_example_polynomials(p8):
    ok = True
    try:
        t = tutte(p8)
        assert t.coefficients == {
            (0, 3): 1, (2, 0): 1, (1, 1): 2, (0, 2): 2, (1, 0): 1, (0, 1): 1,
        }
        kappa = counting_polynomial(p8, "kappa_mod")
        formula = (X - 1) * (X - 2) + 2 * (X - 1) * (Y - 1) + (Y - 1) * (Y - 2) * (Y - 2)
        assert kappa == formula
        assert kappa.coefficients == {
            (0, 3): 1, (2, 0): 1, (1, 1): 2, (0, 2): -5, (1, 0): -5, (0, 1): 6,
        }
        kappa_bar = counting_polynomial(p8, "kappa_bar_mod")
        assert kappa_bar.coefficients == {
            (0, 3): 1, (2, 0): 1, (1, 1): 2, (0, 2): 5, (1, 0): 5, (0, 1): 10,
            (0, 0): 8,
        }
    except AssertionError:
        ok = False
        raise
    finally:
        _report("1 worked-example polynomials", ok)


def test_criterion_2_integral_golden_polynomial(p8):
    ok = True
    try:
        poly = counting_polynomial(p8, "kappa_int")
        corrected = (
            3 * (X - 1) * (X - 2)
            + 8 * (X - 1) * (Y - 1)
            + 2 * (Y - 1) * (Y - 3) * (2 * Y - 3)
            + Fraction(1, 3) * (Y - 1) * Y * (2 * Y - 1)
        )
        # brute force is the authority; a mismatch here means the corrected
        # closed formula loses to the enumerated polynomial
        flips = Orientation.reference(p8).flips
        points = [(p, q) for p in range(1, 5) for q in range(1, 6)] + [(5, 6)]
        for p, q in points:
            brute = len(oracles.complementary_pairs_int(p8, flips, p, q))
            assert poly.evaluate(p, q) == brute, (
                f"interpolated value differs from brute force at ({p},{q})"
            )
        assert poly == corrected, (
            "brute-force polynomial wins: corrected closed formula disagrees"
        )
    except AssertionError:
        ok = False
        raise
    finally:
        _report("2 integral golden polynomial", ok)


def test_criterion_3_census_values(p8):
    ok = True
    try:
        table = OrientationTable(p8)
        assert len(table.orientations) == 32
        assert len(OrientationTable(p8).classes("cut_eulerian", "all").classes) == 8
        assert len(OrientationTable(p8).classes("cut", "acyclic").classes) == 2
        assert len(OrientationTable(p8).classes("eulerian", "totally_cyclic").classes) == 4
        assert len(OrientationTable(p8).classes("cut", "all").classes) == 24
        assert len(OrientationTable(p8).classes("eulerian", "all").classes) == 14
        n_acyclic = len(table.members("acyclic"))
        n_tc = len(table.members("totally_cyclic"))
        assert n_acyclic == 6
        t = tutte(p8)
        assert t.evaluate(0, 2) == n_tc == 18
        assert t.evaluate(2, 0) == n_acyclic
        kappa_int = counting_polynomial(p8, "kappa_int")
        assert abs(kappa_int.evaluate(1, 0)) == n_tc
        assert abs(kappa_int.evaluate(0, 1)) == n_acyclic
    except AssertionError:
        ok = False
        raise
    finally:
        _report("3 worked-example censuses", ok)


def test_criterion_4_tutte_counts_triples(corpus5):
    ok = True
    try:
        for graph, _ in corpus5:
            t = tutte(graph)  # deletion-contraction oracle
            for p, q in product((1, 2, 3), repeat=2):
                triples = count(graph, "kappa_bar_mod", p=p - 1, q=q - 1)
                assert t.evaluate(p, q) == triples, (graph.edges, p, q)
    except AssertionError:
        ok = False
        raise
    finally:
        _report("4 Tutte values count triples", ok)


def test_criterion_5_identity_ledger_corpus(corpus5, p8):
    ok = True
    try:
        expected_ids = [identity for identity, _ in IDENTITY_TAGS]
        assert len(corpus5) == 359
        for graph, report in corpus5:
            assert [c.identity for c in report.checks] == expected_ids
            assert report.all_passed, (graph.vertex_count, graph.edges, report.failures())

        from itertools import permutations

        def canon(graph):
            return min(
                tuple(sorted((min(p[u], p[v]), max(p[u], p[v])) for u, v in graph.edges))
                for p in permutations(range(graph.vertex_count))
            )

        assert any(
            graph.vertex_count == 3 and canon(graph) == canon(p8)
            for graph, _ in corpus5
        ), "corpus must contain the worked-example graph"
    except AssertionError:
        ok = False
        raise
    finally:
        _report("5 identity ledger over 5-edge corpus", ok)


def test_criterion_6_group_structure_independence(p8, digon_loop):
    ok = True
    try:
        for graph in (p8, digon_loop):
            for q in range(1, 5):
                assert count(graph, "kappa_mod", p=4, q=q, group_a=(4,)) == count(
                    graph, "kappa_mod", p=4, q=q, group_a=(2, 2)
                )
            for p in range(1, 5):
                assert count(graph, "kappa_mod", p=p, q=4, group_b=(4,)) == count(
                    graph, "kappa_mod", p=p, q=4, group_b=(2, 2)
                )
    except AssertionError:
        ok = False
        raise
    finally:
        _report("6 group-structure independence", ok)


def test_criterion_7_documented_anomalies(capsys):
    ok = True
    try:
        assert main(["example"]) == 0
        out = capsys.readouterr().out
        assert "kappa(2,2) = 2" in out
        assert "|O_ce| = 8" in out
        assert "#[O_ce] = 2" in out
        assert "states kappa(2,2) = #[O_ce] = 0" in out
    except AssertionError:
        ok = False
        raise
    finally:
        with capsys.disabled():
            _report("7 documented anomalies in example output", ok)


def test_criterion_8_polynomial_reciprocity(corpus5, p8, digon_loop, small_corpus):
    ok = True
    try:
        # direct check on a representative set
        for graph in list(small_corpus) + [p8, digon_loop]:
            if graph.edge_count > 3 and graph not in (p8, digon_loop):
                continue
            stats = graph.stats()
            table = OrientationTable(graph)
            orientations = table.orientations
            locals_ = {
                o.flips: (
                    local_polynomial(graph, o, "kappa_local"),
                    local_polynomial(graph, o, "kappa_bar_local"),
                )
                for o in orientations
            }
            signs = {
                o.flips: (-1) ** (stats.rank + len(table.circuit(o)))
                for o in orientations
            }
            kappa_int = counting_polynomial(graph, "kappa_int")
            kappa_bar_int = counting_polynomial(graph, "kappa_bar_int")
            neg = lambda poly: poly.substitute(-1, 0, -1, 0)

            total_bar = BivariatePolynomial()
            total = BivariatePolynomial()
            for o in orientations:
                total_bar = total_bar + signs[o.flips] * locals_[o.flips][1]
                total = total + signs[o.flips] * locals_[o.flips][0]
            assert (neg(kappa_int) - total_bar).is_zero()
            assert (neg(kappa_bar_int) - total).is_zero()

            reps = OrientationTable(graph).classes("cut_eulerian", "all").representatives
            kappa_mod = counting_polynomial(graph, "kappa_mod")
            kappa_bar_mod = counting_polynomial(graph, "kappa_bar_mod")
            total_bar = BivariatePolynomial()
            total = BivariatePolynomial()
            for rep in reps:
                total_bar = total_bar + signs[rep.flips] * locals_[rep.flips][1]
                total = total + signs[rep.flips] * locals_[rep.flips][0]
            assert (neg(kappa_mod) - total_bar).is_zero()
            assert (neg(kappa_bar_mod) - total).is_zero()

        # the full 5-edge corpus is covered by the ledger's T1c and T2c
        for graph, report in corpus5:
            for check in report.checks:
                if check.identity in ("T1c", "T2c"):
                    assert check.status == "pass", (graph.edges, check)
    except AssertionError:
        ok = False
        raise
    finally:
        _report("8 reciprocity at the polynomial level", ok)
