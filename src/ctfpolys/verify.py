"""Mechanical verification of the tension-flow polynomial identities on one
graph, plus a corpus sweep over all small multigraphs."""

from __future__ import annotations

from itertools import product
from math import prod
from typing import Callable, Iterator

from .counting import CountTable
from .multigraph import MultiGraph, _Record, build_graph, canonical_form
from .orientations import (
    DEFAULT_BUDGET,
    BudgetExceededError,
    Orientation,
    _check_sweep_budget,
    induced_orientation,
)
from .polynomials import (
    BivariatePolynomial,
    InterpolationError,
    _ONE,
    _block_restrictions,
    _compact_key,
    _poly_sum,
    _polynomial,
    _tutte_by_key,
    orientation_sum_polynomial,
    rank_generating,
    tutte,
)

IDENTITY_TAGS = (
    ("T1b", "integral decomposition over orientations"),
    ("T1c", "integral reciprocity"),
    ("T1d", "integral specializations to tension/flow polynomials"),
    ("T1e", "integral convolution over edge subsets"),
    ("T2b", "modular decomposition over class representatives"),
    ("T2c", "modular reciprocity"),
    ("T2d", "modular specializations to tension/flow polynomials"),
    ("T2e", "modular convolution over edge subsets"),
    ("PL", "per-orientation product decomposition, reciprocity, specializations"),
    ("PE", "class cardinality product rule"),
    ("T3", "dual modular polynomial equals the rank generating polynomial"),
    ("RPQ", "rank generating polynomial as sums over modular pairs"),
    ("IM", "integral-modular relations"),
    ("CS", "special-value census identities"),
    ("TC", "Tutte convolution over edge subsets"),
    ("IND", "independence of base orientation and representative choice"),
)


class IdentityCheck(_Record):
    __slots__ = ("identity", "tag", "status", "witness")

    def __init__(self, identity: str, tag: str, status: str, witness: str | None = None):
        object.__setattr__(self, "identity", identity)
        object.__setattr__(self, "tag", tag)
        # "pass" | "fail" | "skip" (a resource limit was hit)
        object.__setattr__(self, "status", status)
        object.__setattr__(self, "witness", witness)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return (self.identity, self.tag, self.status, self.witness) == (
                other.identity, other.tag, other.status, other.witness)
        return NotImplemented

    def __hash__(self):
        return hash((self.identity, self.tag, self.status, self.witness))


class IdentityReport(_Record):
    __slots__ = ("graph", "checks")

    def __init__(self, graph: MultiGraph, checks: tuple[IdentityCheck, ...]):
        object.__setattr__(self, "graph", graph)
        object.__setattr__(self, "checks", checks)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return (self.graph, self.checks) == (other.graph, other.checks)
        return NotImplemented

    def __hash__(self):
        return hash((self.graph, self.checks))

    @property
    def all_passed(self) -> bool:
        return all(c.status == "pass" for c in self.checks)

    @property
    def outcome(self) -> str:
        """"fail" if an identity failed, else "skip" if one was skipped at a
        resource limit, else "pass"."""
        statuses = {c.status for c in self.checks}
        return "fail" if "fail" in statuses else "skip" if "skip" in statuses else "pass"

    def failures(self) -> tuple[IdentityCheck, ...]:
        return tuple(c for c in self.checks if c.status != "pass")

    def to_json_list(self) -> list[dict]:
        return [
            {"id": c.identity, "tag": c.tag, "status": c.status, "witness": c.witness}
            for c in self.checks
        ]

    def to_text(self) -> str:
        width = max(len(c.identity) for c in self.checks)
        lines = []
        for c in self.checks:
            line = f"{c.identity:<{width}}  {c.status:<4}  {c.tag}"
            if c.witness:
                line += f"  [{c.witness}]"
            lines.append(line)
        return "\n".join(lines)


class _Collector:
    def __init__(self):
        self.problems: list[str] = []

    def equal(self, label: str, left, right) -> None:
        if left != right:
            problem = f"{label}: {left} != {right}"
            if isinstance(left, BivariatePolynomial) and isinstance(right, BivariatePolynomial):
                # a nonzero diff of degrees (dx, dy) is not zero on all of {0..dx} x {0..dy}
                diff = left - right
                grid = product(range(diff.degree_x + 1), range(diff.degree_y + 1))
                p, q = next(pq for pq in grid if diff.evaluate(*pq))
                problem += f", first at (p, q) = ({p}, {q}): {left.evaluate(p, q)} != " \
                           f"{right.evaluate(p, q)}"
            self.problems.append(problem)


class _Lazy:
    """Named values, each computed by its maker on first read."""

    def __init__(self, **makers):
        self._makers = makers

    def __getattr__(self, name):
        value = self._makers[name]()
        setattr(self, name, value)
        return value


def _neg_vars(poly: BivariatePolynomial) -> BivariatePolynomial:
    return poly.substitute(-1, 0, -1, 0)


_SIBLING = {"tau_int": "tau_mod", "phi_int": "phi_mod",
            "tau_bar_int": "tau_bar_mod", "phi_bar_int": "phi_bar_mod",
            "tau_local": "tau_bar_local", "phi_local": "phi_bar_local",
            "kappa_local": "kappa_bar_local"}
_SIBLING.update({b: a for a, b in _SIBLING.items()})


class _PolynomialMemo:
    """The ledger's workspace: a graph's minors, and counting polynomials of
    graphs, minors and their blocks kept for a ledger run or a corpus sweep.

    Keys are complete descriptions, not canonical forms: a graph's
    ``_compact_key``, or its orientation's for a per-orientation family. A
    graph of several blocks gets the product of its blocks' polynomials,
    each memoised at its block's key (under the induced orientation), so
    blocks repeated across minors and graphs are counted once. A block's
    family and its ``_SIBLING`` come from one CountTable, dropped once both
    are made: the two kinds of a closed-box sweep share its box counts, the
    other pairs the kernel plans. The ledger keeps the ``minors`` list for
    one run. A resource limit stores nothing."""

    def __init__(self):
        self._polys: dict = {}

    def polynomial(self, graph: MultiGraph, family: str, budget,
                   orientation: Orientation | None = None, key=None) -> BivariatePolynomial:
        """The family on ``graph`` (under ``orientation`` for a per-orientation
        family) at memo key ``key``, by default ``_compact_key(graph,
        orientation)``; a block's miss makes its sibling too."""
        if key is None:
            key = _compact_key(graph, orientation)
        if (key, family) not in self._polys:
            blocks, sibling = _block_restrictions(graph), _SIBLING.get(family)
            if len(blocks) == 1:
                table = CountTable(graph, budget)
                made = _polynomial(table, family, orientation)
                if sibling and (key, sibling) not in self._polys:
                    try:
                        self._polys[key, sibling] = _polynomial(table, sibling, orientation)
                    except (BudgetExceededError, InterpolationError):
                        pass  # raised again if an identity reads it
            else:
                made, keys = _ONE, []
                for block in blocks:
                    o = None if orientation is None else induced_orientation(orientation, block)
                    keys.append(_compact_key(block, o))
                    made = made * self.polynomial(block, family, budget, o, keys[-1])
                # once every block's sibling is stored, so is the graph's
                siblings = [self._polys.get((k, sibling)) for k in keys]
                if sibling and None not in siblings:
                    self._polys[key, sibling] = prod(siblings, start=_ONE)
            self._polys[key, family] = made
        return self._polys[key, family]

    def minors(self, graph: MultiGraph) -> list:
        """(G/S, its key, G|S, its key) per edge subset S, at the mask of its positions."""
        subsets = ([i for pos, i in enumerate(graph.edge_ids) if mask >> pos & 1]
                   for mask in range(1 << graph.edge_count))
        pairs = [(graph.contract(ids), graph.restrict(ids)) for ids in subsets]
        return [(c, _compact_key(c), r, _compact_key(r)) for c, r in pairs]


def verify_graph(graph: MultiGraph, budget: int = DEFAULT_BUDGET) -> IdentityReport:
    """Check every identity in the ledger on one graph; exact polynomial or
    integer equalities throughout. A graph with more than ``budget`` edge
    subsets raises BudgetExceededError; an identity whose computation needs
    a kernel call over the budget is reported as "skip"."""
    return _verify_graph(graph, budget, _PolynomialMemo())


def _verify_graph(graph: MultiGraph, budget: int, memo: _PolynomialMemo) -> IdentityReport:
    # the orientation and edge-subset sweeps below all have 2^|E| items
    _check_sweep_budget(graph.edge_count, budget, "edge subsets")
    r, m = graph.stats().rank, graph.edge_count
    full = (1 << m) - 1

    # every orientation set, partition and circuit part below, and every
    # orientation-sum polynomial of the ledger, is read from this one table
    table = CountTable(graph, budget)
    orientations, classes = table.orientations, table.mask_classes
    ce_size, cu_size, eu_size = (
        {orientations[f]: len(cls) for cls in classes(relation) for f in cls}
        for relation in ("cut_eulerian", "cut", "eulerian")
    )
    reps, acyclic_reps, tc_reps = (
        [orientations[cls[0]] for cls in classes("cut_eulerian", filter_name)]
        for filter_name in ("all", "acyclic", "totally_cyclic")
    )

    def swept(family, members) -> BivariatePolynomial:
        # each member once: the library weights class representatives by
        # class size, and IM checks that weighting instead of assuming it
        return orientation_sum_polynomial(table, family, [(o, 1) for o in members])

    # box counts are constant on the table's orbits (blocks isomorphic up to
    # reversal): each per-orientation polynomial is made at an orbit's first member
    first: dict = {}
    rep = {o: first.setdefault(table.orbit(o), o) for o in orientations}

    def per_orientation(make):
        made = {o: make(o) for o in first.values()}
        return {o: made[rep[o]] for o in orientations}

    sign = {o: -1 if (r + len(table.circuit(o))) % 2 else 1 for o in orientations}

    # the counted polynomials, each computed when an identity first reads it,
    # so that a resource limit skips only the identities that need it
    poly = _Lazy(
        kappa=lambda: per_orientation(lambda o: swept("kappa_local", [o])),
        tau_open=lambda: per_orientation(lambda o: swept("tau_local", [o])),
        phi_open=lambda: per_orientation(lambda o: swept("phi_local", [o])),
        tau_closed=lambda: per_orientation(lambda o: swept("tau_bar_local", [o])),
        phi_closed=lambda: per_orientation(lambda o: swept("phi_bar_local", [o])),
        # kappa_bar_local is the product of the two closed-box counts
        kappa_bar=lambda: per_orientation(lambda o: poly.tau_closed[o] * poly.phi_closed[o]),
        kappa_bar_int=lambda: swept("kappa_bar_int", orientations),
        kappa_bar_mod=lambda: swept("kappa_bar_mod", reps),
        tau_bar_int=lambda: swept("tau_bar_int", table.members("acyclic")),
        phi_bar_int=lambda: swept("phi_bar_int", table.members("totally_cyclic")),
        tau_bar_mod=lambda: swept("tau_bar_mod", acyclic_reps),
        phi_bar_mod=lambda: swept("phi_bar_mod", tc_reps),
        # the definition-level families, counted apart from the table by the
        # workspace, as the minors are: tau/phi _int and _mod share a sweep
        kappa_int=lambda: memo.polynomial(graph, "kappa_int", budget),
        kappa_mod=lambda: memo.polynomial(graph, "kappa_mod", budget),
        tau_int=lambda: memo.polynomial(graph, "tau_int", budget),
        phi_int=lambda: memo.polynomial(graph, "phi_int", budget),
        tau_mod=lambda: memo.polynomial(graph, "tau_mod", budget),
        phi_mod=lambda: memo.polynomial(graph, "phi_mod", budget),
        minors=lambda: memo.minors(graph),
    )

    tutte_poly = tutte(graph)
    rank_poly = rank_generating(graph)

    checks: list[IdentityCheck] = []
    tags = dict(IDENTITY_TAGS)

    def run(identity: str, body: Callable[[_Collector], None]) -> None:
        # a resource limit is no verdict on the identity: it is skipped,
        # unless a failure was found before the limit was hit; a polynomial
        # that fails its interpolation checks fails the identity reading it
        col = _Collector()
        limit_hit = None
        try:
            body(col)
        except BudgetExceededError as exc:
            limit_hit = f"resource limit: {exc}"
        except InterpolationError as exc:
            col.problems.append(str(exc))
        if col.problems:
            witness = col.problems[0]
            if len(col.problems) > 1:
                witness += f" (+{len(col.problems) - 1} more)"
            checks.append(IdentityCheck(identity, tags[identity], "fail", witness))
        elif limit_hit:
            checks.append(IdentityCheck(identity, tags[identity], "skip", limit_hit))
        else:
            checks.append(IdentityCheck(identity, tags[identity], "pass"))

    # ---- Theorems 1 and 2: one body per identity, read for the integral
    # families (summed over every orientation) or the modular ones (summed
    # over the cut-Eulerian class representatives) ----
    def theorem(kind, members, summed):
        # read("kappa") is the graph-level kappa_{kind}; poly.kappa and
        # poly.kappa_bar hold the per-orientation polynomials
        def read(family):
            return getattr(poly, f"{family}_{kind}")

        def b(col):
            for family in ("kappa", "kappa_bar"):
                col.equal(f"{family}_{kind} = {summed}", read(family),
                          _poly_sum(getattr(poly, family)[o] for o in members))

        def c(col):
            for family, other in (("kappa", "kappa_bar"), ("kappa_bar", "kappa")):
                col.equal(f"{family}_{kind}(-x,-y)", _neg_vars(read(family)),
                          _poly_sum(sign[o] * getattr(poly, other)[o] for o in members))

        def d(col):
            col.equal(f"kappa_{kind}(x,1)", read("kappa").set_y(1), read("tau"))
            col.equal(f"kappa_{kind}(1,y)", read("kappa").set_x(1), read("phi"))
            col.equal(f"kappa_bar_{kind}(x,-1)", read("kappa_bar").set_y(-1), read("tau_bar"))
            col.equal(f"kappa_bar_{kind}(-1,y)", read("kappa_bar").set_x(-1), read("phi_bar"))

        def e(col):
            for bar in ("", "_bar"):
                def term(mask, quotient, q_key, restriction, r_key):
                    # G/{} and G|E are G itself: those two factors are the ledger's own
                    tau = read(f"tau{bar}") if mask == 0 else \
                        memo.polynomial(quotient, f"tau{bar}_{kind}", budget, key=q_key)
                    phi = read(f"phi{bar}") if mask == full else \
                        memo.polynomial(restriction, f"phi{bar}_{kind}", budget, key=r_key)
                    return tau * phi

                col.equal(f"kappa{bar}_{kind} convolution", read(f"kappa{bar}"),
                          _poly_sum(term(mask, *minor) for mask, minor in enumerate(poly.minors)))

        return b, c, d, e

    # ---- per-orientation identities ----
    def pl(col):
        zero = BivariatePolynomial()

        def orbit_checks(o):
            # both sides read only the orbit's polynomials: each pair is compared
            # once per orbit, and one that differs is reported at every member
            kappa, kappa_bar, circuit = poly.kappa[o], poly.kappa_bar[o], table.circuit(o)
            sides = (
                ("reciprocity", _neg_vars(kappa), sign[o] * kappa_bar),
                ("kappa(x,1)", kappa.set_y(1), poly.tau_open[o]),
                ("kappa(1,y)", kappa.set_x(1), poly.phi_open[o]),
                # the closed-box specializations survive only where the
                # matching open polytope is nonempty: the tension one needs
                # an empty circuit part, the flow one an empty bond part
                ("kappa_bar(x,-1)", kappa_bar.set_y(-1), zero if circuit else poly.tau_closed[o]),
                ("kappa_bar(-1,y)", kappa_bar.set_x(-1),
                 poly.phi_closed[o] if len(circuit) == m else zero),
            )
            return [side for side in sides if side[1] != side[2]]

        differing = per_orientation(orbit_checks)
        for o in orientations:
            # G/C and G|C for the circuit part C
            quotient, _, restriction, _ = poly.minors[sum(1 << pos for pos in table.circuit(o))]
            o_quot = induced_orientation(o, quotient)
            o_rest = induced_orientation(o, restriction)
            label = f"orientation {o.flip_string() or '-'}"
            for kind, bar in (("", ""), ("closed ", "_bar")):
                col.equal(f"{label} {kind}product decomposition", getattr(poly, f"kappa{bar}")[o],
                          memo.polynomial(quotient, f"tau{bar}_local", budget, o_quot)
                          * memo.polynomial(restriction, f"phi{bar}_local", budget, o_rest))
            for name, left, right in differing[o]:
                col.equal(f"{label} {name}", left, right)

    def pe(col):
        for o in orientations:
            col.equal(f"class sizes at {o.flip_string() or '-'}",
                      ce_size[o], cu_size[o] * eu_size[o])
            col.equal(f"0-1 pair count at {o.flip_string() or '-'}",
                      ce_size[o], poly.kappa_bar[o].evaluate(1, 1))

    def t3(col):
        col.equal("kappa_bar_mod = rank generating", poly.kappa_bar_mod, rank_poly)
        for p, q in product((1, 2, 3), repeat=2):
            triples = table.total("kappa_bar_mod", [(o, 1) for o in reps], p - 1, q - 1)
            col.equal(f"T({p},{q}) as triples", tutte_poly.evaluate(p, q), triples)

    def rpq(col):
        ref = Orientation.reference(graph)
        for p, q in product((1, 2, 3), repeat=2):
            tensions = table.side(ref, "tension", "group", p, "masks")
            flows = table.side(ref, "flow", "group", q, "masks")
            positive = 0
            alternating = 0
            for kmask, tcount in tensions.items():
                for fzmask, fcount in flows.items():
                    smask = full ^ fzmask
                    if smask & ~kmask:
                        continue
                    positive += tcount * fcount * (1 << (kmask & ~smask & full).bit_count())
                    if smask == kmask:
                        alternating += tcount * fcount * (-1 if smask.bit_count() % 2 else 1)
            col.equal(f"R({p},{q}) pair sum", rank_poly.evaluate(p, q), positive)
            r_sign = -1 if r % 2 else 1
            col.equal(f"R(-{p},-{q}) signed pair sum",
                      rank_poly.evaluate(-p, -q), r_sign * alternating)

    def im(col):
        col.equal("kappa_int = weighted class sum", poly.kappa_int,
                  _poly_sum(ce_size[o] * poly.kappa[o] for o in reps))
        col.equal("kappa_bar_int = weighted class sum", poly.kappa_bar_int,
                  _poly_sum(ce_size[o] * poly.kappa_bar[o] for o in reps))
        col.equal("tau_int = weighted acyclic class sum", poly.tau_int,
                  _poly_sum(ce_size[o] * poly.tau_open[o] for o in acyclic_reps))
        col.equal("phi_int = weighted totally cyclic class sum", poly.phi_int,
                  _poly_sum(ce_size[o] * poly.phi_open[o] for o in tc_reps))

    def cs(col):
        n_or = len(orientations)
        n_ac = len(table.members("acyclic"))
        n_tc = len(table.members("totally_cyclic"))
        n_cu = len(table.self_reverse("cut"))
        n_eu = len(table.self_reverse("eulerian"))
        n_ce = len(table.self_reverse("cut_eulerian"))
        kz, kbz = poly.kappa_int, poly.kappa_bar_int
        col.equal("kappa_bar_int(0,0)", kbz.evaluate(0, 0), n_or)
        col.equal("|kappa_int(1,0)|", abs(kz.evaluate(1, 0)), n_tc)
        col.equal("kappa_bar_int(-1,0)", kbz.evaluate(-1, 0), n_tc)
        col.equal("|kappa_int(0,1)|", abs(kz.evaluate(0, 1)), n_ac)
        col.equal("kappa_bar_int(0,-1)", kbz.evaluate(0, -1), n_ac)
        col.equal("kappa_int(1,1)", kz.evaluate(1, 1), kbz.evaluate(-1, -1))
        if m:
            col.equal("kappa_int(1,1) = 0", kz.evaluate(1, 1), 0)
        col.equal("kappa_int(2,1)", kz.evaluate(2, 1), n_cu)
        col.equal("|kappa_bar_int(-2,-1)|", abs(kbz.evaluate(-2, -1)), n_cu)
        col.equal("kappa_int(1,2)", kz.evaluate(1, 2), n_eu)
        col.equal("|kappa_bar_int(-1,-2)|", abs(kbz.evaluate(-1, -2)), n_eu)
        col.equal("kappa_int(2,2)", kz.evaluate(2, 2), n_ce)
        col.equal("kappa_bar_int(1,0)", kbz.evaluate(1, 0), sum(cu_size.values()))
        col.equal("kappa_bar_int(0,1)", kbz.evaluate(0, 1), sum(eu_size.values()))
        col.equal("kappa_bar_int(1,1)", kbz.evaluate(1, 1), sum(ce_size.values()))

        k, kb, t = poly.kappa_mod, poly.kappa_bar_mod, tutte_poly
        classes_in = lambda relation: sum(1 for o in reps if o in table.self_reverse(relation))
        col.equal("T(0,0) chain", t.evaluate(0, 0), kb.evaluate(-1, -1))
        col.equal("kappa_mod(1,1) chain", k.evaluate(1, 1), kb.evaluate(-1, -1))
        if m:
            col.equal("kappa_mod(1,1) = 0", k.evaluate(1, 1), 0)
        col.equal("T(1,1) = class count", t.evaluate(1, 1), len(reps))
        col.equal("kappa_bar_mod(0,0)", kb.evaluate(0, 0), len(reps))
        col.equal("T(2,2) = orientation count", t.evaluate(2, 2), n_or)
        col.equal("kappa_bar_mod(1,1)", kb.evaluate(1, 1), n_or)
        col.equal("kappa_mod(2,2)", k.evaluate(2, 2), classes_in("cut_eulerian"))
        col.equal("|T(0,-1)|", abs(t.evaluate(0, -1)), classes_in("eulerian"))
        col.equal("|kappa_bar_mod(-1,-2)|", abs(kb.evaluate(-1, -2)), classes_in("eulerian"))
        col.equal("kappa_mod(1,2)", k.evaluate(1, 2), classes_in("eulerian"))
        col.equal("|T(-1,0)|", abs(t.evaluate(-1, 0)), classes_in("cut"))
        col.equal("|kappa_bar_mod(-2,-1)|", abs(kb.evaluate(-2, -1)), classes_in("cut"))
        col.equal("kappa_mod(2,1)", k.evaluate(2, 1), classes_in("cut"))
        col.equal("T(1,0)", t.evaluate(1, 0), len(acyclic_reps))
        col.equal("kappa_bar_mod(0,-1)", kb.evaluate(0, -1), len(acyclic_reps))
        col.equal("|kappa_mod(0,1)|", abs(k.evaluate(0, 1)), len(acyclic_reps))
        col.equal("T(0,1)", t.evaluate(0, 1), len(tc_reps))
        col.equal("kappa_bar_mod(-1,0)", kb.evaluate(-1, 0), len(tc_reps))
        col.equal("|kappa_mod(1,0)|", abs(k.evaluate(1, 0)), len(tc_reps))
        col.equal("T(1,2) = cut classes", t.evaluate(1, 2), len(classes("cut")))
        col.equal("kappa_bar_mod(0,1)", kb.evaluate(0, 1), len(classes("cut")))
        col.equal("T(2,1) = Eulerian classes", t.evaluate(2, 1), len(classes("eulerian")))
        col.equal("kappa_bar_mod(1,0)", kb.evaluate(1, 0), len(classes("eulerian")))

    def tc(col):
        total = _poly_sum(_tutte_by_key(q_key).set_y(0) * _tutte_by_key(r_key).set_x(0)
                          for _, q_key, _, r_key in poly.minors)
        col.equal("Tutte convolution", tutte_poly, total)

    def ind(col):
        # a table of its own: the reversed orientation has the reference's orbit key
        alternate = Orientation.reference(graph).reversed()
        recomputed = orientation_sum_polynomial(
            CountTable(graph, budget), "kappa_int", [(alternate, 1)])
        col.equal("kappa_int from reversed orientation", poly.kappa_int, recomputed)
        lex_largest = [orientations[cls[-1]] for cls in classes("cut_eulerian")]
        col.equal(
            "kappa_bar_mod from largest representatives",
            poly.kappa_bar_mod,
            swept("kappa_bar_mod", lex_largest),
        )

    t1b, t1c, t1d, t1e = theorem("int", orientations, "sum of local")
    t2b, t2c, t2d, t2e = theorem("mod", reps, "sum over reps")
    run("T1b", t1b)
    run("T1c", t1c)
    run("T1d", t1d)
    run("T1e", t1e)
    run("T2b", t2b)
    run("T2c", t2c)
    run("T2d", t2d)
    run("T2e", t2e)
    run("PL", pl)
    run("PE", pe)
    run("T3", t3)
    run("RPQ", rpq)
    run("IM", im)
    run("CS", cs)
    run("TC", tc)
    run("IND", ind)

    return IdentityReport(graph, tuple(checks))


def small_multigraphs(max_edges: int, include_loops: bool) -> Iterator[MultiGraph]:
    """All multigraphs with up to ``max_edges`` edges on up to
    ``max_edges + 1`` vertices: the edgeless graphs on each vertex count plus
    one representative per isomorphism class of graphs without isolated
    vertices (isolated vertices change no verified identity)."""
    max_vertices = max_edges + 1
    for k in range(1, max_vertices + 1):
        yield build_graph(k, [])

    seen: set = set()
    stack: list[tuple[tuple[tuple[int, int], ...], int]] = [((), 0)]
    while stack:
        edges, used = stack.pop()
        if edges:
            key = (used, canonical_form(used, edges, directed=False))
            if key not in seen:
                seen.add(key)
                yield build_graph(used, list(edges))
        if len(edges) == max_edges:
            continue
        last = edges[-1] if edges else None
        # next edge must not precede the last one, and a new vertex label must
        # always be the next unused integer (canonical-by-first-appearance)
        for u in range(min(used, max_vertices - 1) + 1):
            used_u = max(used, u + 1)
            v_lo = u if include_loops else u + 1
            for v in range(v_lo, min(used_u, max_vertices - 1) + 1):
                if last is not None and (u, v) < last:
                    continue
                stack.append((edges + ((u, v),), max(used_u, v + 1)))


def verify_corpus(
    max_edges: int,
    include_loops: bool = True,
    budget: int = DEFAULT_BUDGET,
) -> Iterator[tuple[MultiGraph, IdentityReport]]:
    # the sweep reaches a graph with max_edges edges and its 2^|E| subsets:
    # an oversized sweep stops here, before it yields anything
    _check_sweep_budget(max(max_edges, 0), budget, "edge subsets")
    # one memo for the whole sweep: the minors of small graphs repeat
    memo = _PolynomialMemo()
    for graph in small_multigraphs(max_edges, include_loops):
        yield graph, _verify_graph(graph, budget, memo)
