"""Counting of tensions, flows, and complementary tension-flow pairs,
modular and integral, by one kernel (``_partial_sum_dp``).

Edge values are indexed by edge position. Modular values live in a finite
abelian group given as a product of cyclic moduli (``CyclicProduct``), whose
elements the kernel encodes in its carry-free tables.
"""

from __future__ import annotations

from math import prod
from operator import mul
from typing import Sequence

from .multigraph import MultiGraph, _Record, canonical_form, spanning_structure
from .orientations import (
    DEFAULT_BUDGET,
    Orientation,
    OrientationTable,
    _check_budget,
    _flip_signs,
)

#: Every counting family: family -> (tension box, flow box, orientation set).
#: A family counts tensions in its tension box at p, flows in its flow box at
#: q, or pairs of the two. A box is "group" (nowhere zero in a group of order
#: p or q), "int" (nowhere zero with |v| < p or q), "closed" [0, p], "open"
#: [1, p-1], "support" (open on the bond part for tensions and on the circuit
#: part for flows, zero elsewhere) or None (the side is not counted). A family
#: with a closed box starts at 0, every other one at 1 (Ehrhart reciprocity;
#: Beck and Zaslavsky, Adv. Math. 205, 2006). The orientation set is "one"
#: for the definition-level families: the given or the reference orientation,
#: with complementary pairs (ker f = supp g) matched by zero set when both
#: sides count. It is None for the given orientation, which the family then
#: needs, and else (weight, filter): the cut-Eulerian class representatives
#: of the filtered orientations weighted by class size ("size") or by 1. A
#: closed-box count is constant on a class, so "size" sums every filtered
#: orientation. The graph-level rows come in the order of the polys report.
FAMILY_TABLE = {
    "kappa_mod": ("group", "group", "one"),
    "kappa_int": ("int", "int", "one"),
    "kappa_bar_mod": ("closed", "closed", (1, "all")),
    "kappa_bar_int": ("closed", "closed", ("size", "all")),
    "tau_mod": ("group", None, "one"),
    "tau_int": ("int", None, "one"),
    "tau_bar_mod": ("closed", None, (1, "acyclic")),
    "tau_bar_int": ("closed", None, ("size", "acyclic")),
    "phi_mod": (None, "group", "one"),
    "phi_int": (None, "int", "one"),
    "phi_bar_mod": (None, "closed", (1, "totally_cyclic")),
    "phi_bar_int": (None, "closed", ("size", "totally_cyclic")),
    "kappa_local": ("support", "support", None),
    "kappa_bar_local": ("closed", "closed", None),
    "tau_local": ("open", None, None),
    "tau_bar_local": ("closed", None, None),
    "phi_local": (None, "open", None),
    "phi_bar_local": (None, "closed", None),
}

FAMILIES = frozenset(FAMILY_TABLE)

#: Families whose counts need an orientation argument.
LOCAL_FAMILIES = frozenset(f for f, row in FAMILY_TABLE.items() if row[2] is None)


def lowest_argument(family: str) -> int:
    """The family's smallest p and q: 0 on a closed box, else 1."""
    return 0 if "closed" in FAMILY_TABLE[family][:2] else 1


class CyclicProduct(_Record):
    """Finite abelian group Z_m1 x ... x Z_mk, given by its moduli; the
    kernel encodes its elements (``_carry_free_tables``)."""

    __slots__ = ("moduli",)

    def __init__(self, moduli: tuple[int, ...]):
        # type() and not isinstance(): bool is an int subclass and is refused
        if not all(type(m) is int and m >= 1 for m in moduli):
            raise ValueError("moduli must be integers >= 1")
        object.__setattr__(self, "moduli", moduli)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self.moduli == other.moduli
        return NotImplemented

    def __hash__(self):
        return hash((self.moduli,))


def _space(orientation: Orientation, side: str):
    """(free positions, dependent sums) of the tensions (side "tension") or
    the flows (side "flow") of the digraph: the input of _dp_plan. A tension
    is free on the spanning forest, and each cotree edge gets
    (e_pos, ((t_pos, c), ...)) with f(e) = sum c*f(t); a flow is free on the
    cotree, and each forest edge gets (t_pos, ((e_pos, c), ...)) with
    g(t) = sum c*g(e). The free positions come in the forest's assignment
    order (``tension_order`` or ``flow_order``)."""
    signs = _flip_signs(orientation)
    forest = spanning_structure(orientation.graph)
    if side == "tension":
        return forest.tension_order, tuple(
            (e, tuple((t, -signs[e] * d * signs[t]) for t, d in rest))
            for e, rest in forest.circuit_table
        )
    return forest.flow_order, tuple(
        (t, tuple((e, d * signs[t] * signs[e]) for e, d in coeffs))
        for t, coeffs in forest.flow_table
    )


def _carry_free_tables(moduli: tuple[int, ...]):
    """The addition and negation tables of Z_m1 x ... x Z_mk in an encoding
    whose sums carry nothing: component i sits at place prod(2 * m_j, j < i),
    so the integer sum x + v of two elements indexes ``reduced``, which takes
    each component mod m_i. Returns (reduced, negatives, elements), the
    elements being the fixed points of ``reduced``. Each table has 2^k times
    the group's order entries, not its square."""
    reduced, negatives, place = [0], [0], 1
    for m in moduli:  # index a * place + r, with r indexing the moduli before m
        reduced = [r + a % m * place for a in range(2 * m) for r in reduced]
        negatives = [r + -a % m * place for a in range(2 * m) for r in negatives]
        place *= 2 * m
    return reduced, negatives, [s for s, r in enumerate(reduced) if s == r]


def _dp_plan(free, dependent):
    """The schedule of _partial_sum_dp for a space parametrized by free
    values at the positions ``free``, assigned in that order: each dependent
    position (pos, ((free_pos, c), ...)) holds the sum of c * value over its
    free positions, c = +-1. It reads no box, so one plan serves them all.

    Returns (the dependent positions with no free value, identically zero:
    a loop tension or a bridge flow; per free value a step: (position, zeros
    for the sums it opens, kept sums as (slot, coefficient), closed sums as
    (slot, coefficient, position), moves, mirror)). ``moves`` is true when
    the step moves a kept sum, and ``mirror`` marks the first step that
    does, the one the kernel halves on a box closed under negation; a later
    step always follows it, since the sums it moves stay open.
    """
    index = {pos: i for i, pos in enumerate(free)}
    opening = [[] for _ in free]
    zero_positions = []
    for pos, coeffs in dependent:
        if not coeffs:
            zero_positions.append(pos)
            continue
        by_step = {index[t]: c for t, c in coeffs}
        opening[min(by_step)].append((pos, by_step, max(by_step)))

    steps = []
    live: list = []
    unmoved = True  # no step has moved a sum yet
    for i, pos in enumerate(free):
        slots = live + opening[i]
        keep, close = [], []
        for slot, (dep, by_step, last) in enumerate(slots):
            c = by_step.get(i, 0)
            if last == i:
                close.append((slot, c, dep))
            else:
                keep.append((slot, c))
        live = [slots[slot] for slot, _ in keep]
        moves = any(c for _, c in keep)
        steps.append((pos, (0,) * len(opening[i]), tuple(keep), tuple(close), moves,
                      unmoved and moves))
        unmoved = unmoved and not moves
    return tuple(zero_positions), tuple(steps)


def _partial_sum_dp(plan, values, zeros: str, budget):
    """Count the vectors of the space of a _dp_plan with values in
    ``values``: a list of inclusive integer ranges per position, or a
    CyclicProduct whose elements every position may take. ``zeros`` is
    "allowed" (return the count), "forbidden" (return the count of the
    nowhere-zero vectors) or "masks" (return {zero set as a bit mask of
    positions: count}).

    The free values are assigned in the plan's order (transfer-matrix method,
    Stanley, EC1 4.7). The state is the tuple of partial sums of the
    dependent positions that are open: some but not all of their free values
    are assigned. A dependent position is checked and dropped when its last
    free value is assigned; the ranges it allows cut that free value down to
    an interval. A step that moves no open sum counts its values in bulk, and
    only the few values that make a position zero are taken one by one.
    Group sums read the carry-free tables of _carry_free_tables, built per
    call.

    A box closed under negation (every range (-h, h), or a group) halves the
    plan's mirror step. Every sum is 0 before it, so v and -v lead to mirror
    states s and -s, which have the same number of completions with the same
    zero sets. The step takes one value of each pair {v, -v}, and each state
    s != -s it makes stands for -s too, with twice its count.

    The budget counts the states the steps create, checked before each
    source state and after each step; the mirror step creates only its half.
    """
    zero_positions, plan_steps = plan
    group = values if isinstance(values, CyclicProduct) else None
    if group is not None and plan_steps:  # the tables cost 2^k times the group's order
        reduced, neg, elements = _carry_free_tables(group.moduli)

    start_mask = 0
    for pos in zero_positions:
        if zeros == "forbidden" or (group is None and not values[pos][0] <= 0 <= values[pos][1]):
            return {} if zeros == "masks" else 0
        start_mask |= 1 << pos

    track, forbid = zeros != "allowed", zeros == "forbidden"
    states, created = {((), start_mask): 1}, 0
    for pos, pad, keep, close, moving, mirror in plan_steps:
        # the closed sums with their ranges: (slot, coefficient, low, high, bit)
        close = [(slot, c, *((0, 0) if group is not None else values[dep]), 1 << dep)
                 for slot, c, dep in close]
        bit = 1 << pos
        halve = mirror and (group is not None or all(low == -high for low, high in values))
        if group is None:  # halved, v runs over [0, h]; the closed ranges cut only h
            own = (0, values[pos][1]) if halve else values[pos]
        else:
            candidates = [v for v in elements if v <= neg[v]] if halve else elements
        new: dict = {}
        for (sums, mask), n in states.items():
            if created + len(new) > budget:  # a step past the budget stops early
                _check_budget(created + len(new), budget, "DP states")
            sums += pad
            special: dict[int, int] = {}  # value -> zero bits it creates
            if group is None:
                low, high = own
                for slot, c, d_low, d_high, _ in close:
                    x = sums[slot]  # comparisons, not max/min: 10% on W5
                    if c > 0:
                        if d_low - x > low:
                            low = d_low - x
                        if d_high - x < high:
                            high = d_high - x
                    else:
                        if x - d_high > low:
                            low = x - d_high
                        if x - d_low < high:
                            high = x - d_low
                if low > high:
                    continue
                size, candidates = high - low + 1, range(low, high + 1)
                if track:
                    if low <= 0 <= high:
                        special[0] = bit
                    for slot, c, _, _, dep_bit in close:
                        v = -c * sums[slot]
                        if low <= v <= high:
                            special[v] = special.get(v, 0) | dep_bit
            else:
                size = len(elements)
                if track:
                    special[0] = bit
                    for slot, c, _, _, dep_bit in close:
                        v = neg[sums[slot]] if c > 0 else sums[slot]
                        special[v] = special.get(v, 0) | dep_bit
            if not moving:
                rest = tuple([sums[slot] for slot, _ in keep])
                if size > len(special):
                    key = (rest, mask)
                    new[key] = new.get(key, 0) + n * (size - len(special))
                if zeros == "masks":
                    for bits in special.values():
                        key = (rest, mask | bits)
                        new[key] = new.get(key, 0) + n
                continue
            moved = [(sums[slot], c) for slot, c in keep]
            for v in candidates:
                bits = special.get(v, 0)
                if bits and forbid:
                    continue
                if group is None:
                    nxt = tuple([x + c * v for x, c in moved])
                else:
                    pick = (0, v, neg[v])  # the summand for c = 0, +1, -1
                    nxt = tuple([reduced[x + pick[c]] for x, c in moved])
                key = (nxt, mask | bits)
                new[key] = new.get(key, 0) + n
        if halve:  # each state s != -s stands for -s too; one from v = -v is its own
            for key, n in new.items():
                sums = key[0]
                if any(sums) if group is None else any(x != neg[x] for x in sums):
                    new[key] = 2 * n
        states = new
        created += len(new)
        _check_budget(created, budget, "DP states")
    if zeros == "masks":
        return {mask: n for (_, mask), n in states.items()}
    return sum(states.values())


def _count_tensions(plan, values, budget, zeros: str = "allowed"):
    """Tensions with values in per-position integer ranges or in a group,
    counted by running ``plan``, the tension space's _dp_plan; see
    _partial_sum_dp for ``zeros``. The two sides are separate functions so
    that a profile tells them apart."""
    return _partial_sum_dp(plan, values, zeros, budget)


def _count_flows(plan, values, budget, zeros: str = "allowed"):
    """Flows, counted like _count_tensions over the flow space's plan."""
    return _partial_sum_dp(plan, values, zeros, budget)


def _matched_pairs(tension_masks: dict[int, int], flow_masks: dict[int, int], full: int) -> int:
    # pair (f, g) is complementary iff ker f == supp g
    total = 0
    for kmask, tcount in tension_masks.items():
        fcount = flow_masks.get(full ^ kmask)
        if fcount:
            total += tcount * fcount
    return total


def _box_count(plan, m, circuit, side, box, value, budget, zeros):
    """Tensions (side "tension") or flows (side "flow") on m edges in one box
    of FAMILY_TABLE at p or q, counted with ``zeros`` as in _partial_sum_dp
    over ``plan``, the side's _dp_plan; a "group" box takes its moduli for
    ``value`` or the cyclic group of that order. Only the "support" box
    reads ``circuit``, the positions of the orientation's circuit part."""
    if box == "group":
        values = CyclicProduct(value if isinstance(value, tuple) else (value,))
    elif box == "int":
        values = [(1 - value, value - 1)] * m
    else:
        inside = (0, value) if box == "closed" else (1, value - 1)
        if box == "support":
            on_circuit = side == "flow"
            values = [inside if (pos in circuit) == on_circuit else (0, 0) for pos in range(m)]
        else:
            values = [inside] * m
    counter = _count_tensions if side == "tension" else _count_flows
    return counter(plan, values, budget, zeros)


def _orbit_key(orientation: Orientation) -> tuple[int, ...]:
    """The orientation's block-reversal orbit: each flip bit XOR the flip of
    the first edge of its block. Reversing a block changes no kernel input:
    the coefficients read only sign products within fundamental circuits,
    and a reversed directed circuit is still one."""
    flips = orientation.flips
    blocks = spanning_structure(orientation.graph).blocks
    return tuple([flips[pos] ^ flips[first] for pos, first in enumerate(blocks)])


def _isomorphism_key(orientation: Orientation) -> tuple:
    """The orientation's blocks up to isomorphism and reversal: the lesser
    ``canonical_form`` of each block's digraph and its reverse, sorted. A
    scalar box count is the product of its blocks', each invariant under
    both, which carry the circuit part along."""
    graph, blocks = orientation.graph, {}
    for (u, v), flip, first in zip(graph.edges, orientation.flips,
                                   spanning_structure(graph).blocks):
        blocks.setdefault(first, []).append((v, u) if flip else (u, v))
    keys = []
    for arcs in blocks.values():
        names: dict[int, int] = {}  # the block's vertices, renamed 0..k-1
        arcs = [(names.setdefault(u, len(names)), names.setdefault(v, len(names))) for u, v in arcs]
        tails, heads = [0] * len(names), [0] * len(names)
        for u, v in arcs:
            tails[u] += 1
            heads[v] += 1
        # isomorphic digraphs have equal sorted (out, in) degrees: only a
        # side whose degrees sort first can give the lesser form
        forward, backward = sorted(zip(tails, heads)), sorted(zip(heads, tails))
        forms = [canonical_form(len(names), arcs)] if forward <= backward else []
        if backward <= forward:
            forms.append(canonical_form(len(names), [(v, u) for u, v in arcs]))
        keys.append(min(forms))
    return tuple(sorted(keys))


def _bits(positions) -> int:
    """The edge positions as one int, position pos at bit pos."""
    return sum(1 << pos for pos in positions)


class CountStore:
    """The kernel inputs of a run's count tables, each counted once: every
    ``_dp_plan`` gets a small number, and the store keeps the box counts
    made on it and the orientation-sum polynomials made from them.

    * Box counts are keyed by the box's FAMILY_TABLE *name*, the argument
      or moduli and the zero mode, and then by an orbit's count key
      (``CountTable._reader``): its plan number, with the side and the
      circuit bits for "support", the one box that reads them. The name,
      not the ranges it expands to, keeps boxes apart that expand alike: an
      acyclic orientation's "support" tension box is the "open" one, and PL
      compares the two.
    * Orientation-sum polynomials are keyed by the key ``CountTable.sampler``
      returns, made of the count keys, which fix every sample.

    A plan holds every edge position of its space, so its number fixes the
    edge count a box expands over. The store is its tables' one count
    cache. It holds numbers, names, plans and polynomials, never a table,
    a graph or an orientation. A resource limit stores nothing, and a store
    serves one budget."""

    def __init__(self):
        self.plans: dict = {}  # _dp_plan -> (its number, the one copy kept)
        self.counts: dict = {}  # (box, value, zeros) -> {count key: count}
        self.polynomials: dict = {}  # CountTable.sampler's key -> polynomial
        self._steps: dict = {}  # one copy of each plan step: plans share most

    def plan(self, zero_positions, steps) -> tuple[int, tuple]:
        """(number, plan) of the _dp_plan with these parts, numbered on
        first sight."""
        plan = zero_positions, tuple([self._steps.setdefault(step, step) for step in steps])
        found = self.plans.get(plan)
        if found is None:
            found = self.plans[plan] = len(self.plans), plan
        return found


class CountTable(OrientationTable):
    """An orientation table with the box counts of the orientations, each
    read once per orbit (``orbit``) from one kernel plan per orbit and side,
    and the weighted sums the counting families read from them
    (``sampler``). A table lives for one count, one polynomial, one
    ``polys`` report (all twelve graph-level families) or one
    identity-ledger computation. Its ``store`` (``CountStore``), private
    unless one is given, is its one count cache, and makes each count and
    orientation-sum polynomial once per kernel input: the ledger's
    workspace shares one across a sweep's tables, and IND's recount has
    none but its own."""

    def __init__(self, graph: MultiGraph, budget: int = DEFAULT_BUDGET,
                 store: CountStore | None = None):
        super().__init__(graph, budget)
        self.store = CountStore() if store is None else store
        self._plans: dict = {}  # (orbit key, side) -> (plan number, _dp_plan)
        self._circuits: dict = {}  # orbit key -> its first orientation's circuit part
        self._orbits: dict = {}  # flips -> orbit key
        self._merged: dict = {}  # block-reversal key -> orbit key
        self._isomorphic: dict = {}  # _isomorphism_key -> orbit key
        self._first: dict = {}  # orbit key -> the first orientation read in it

    def family_orientation(self, family: str,
                           orientation: Orientation | None = None) -> Orientation | None:
        """The orientation a family counts on, once the family and the
        orientation rule are checked: the given one (a definition-level
        family defaults to the reference one), which a per-orientation
        family needs and which must be an orientation of the table's graph;
        or None for a class-sum family, which refuses one. Sweeps nothing."""
        _require(family in FAMILY_TABLE, f"unknown family {family!r}")
        members = FAMILY_TABLE[family][2]
        if members is None or members == "one":
            _require(orientation is not None or members == "one", f"{family} needs an orientation")
            orientation = orientation or self.orientation(0)
            _require(orientation.graph == self.graph, "orientation belongs to a different graph")
            return orientation
        _require(orientation is None, f"{family} reads no orientation")
        return None

    def sum_members(
        self, family: str, orientation: Orientation | None = None
    ) -> tuple[tuple[Orientation, int], ...]:
        """The (orientation, weight) pairs a family adds up: its
        ``family_orientation``, or the weighted cut-Eulerian class
        representatives, the only members built."""
        return self._members(family, self.family_orientation(family, orientation))

    def _members(self, family: str, orientation: Orientation | None):
        """``sum_members`` of a checked ``family_orientation``."""
        if orientation is not None:
            return ((orientation, 1),)
        weight, filter_name = FAMILY_TABLE[family][2]
        return tuple(
            (self.orientation(cls[0]), len(cls) if weight == "size" else weight)
            for cls in self.mask_classes("cut_eulerian", filter_name)
        )

    def orbit(self, orientation: Orientation) -> tuple[int, ...]:
        """The orientation's orbit key: the block-reversal key (``_orbit_key``)
        of the first orientation read whose blocks are isomorphic to its own
        as digraphs up to reversal (``_isomorphism_key``). A table finds
        those keys once it reads a second block-reversal orbit, one per orbit."""
        found = self._orbits.get(orientation.flips)
        if found is None:
            own = _orbit_key(orientation)
            if own not in self._merged:
                if len(self._merged) == 1:  # a second one: key the first now
                    (first, o), = self._first.items()
                    self._isomorphic[_isomorphism_key(o)] = first
                self._merged[own] = self._isomorphic.setdefault(
                    _isomorphism_key(orientation), own) if self._merged else own
                self._first.setdefault(self._merged[own], orientation)
            found = self._orbits[orientation.flips] = self._merged[own]
        return found

    def representative(self, orientation: Orientation) -> Orientation:
        """The first orientation the table read in the orientation's ``orbit``,
        on which it makes every count of that orbit."""
        return self._first[self.orbit(orientation)]

    def _plan(self, orbit, side: str) -> tuple[int, tuple]:
        """(number, plan) of the side's _dp_plan on the ``orbit``'s first
        orientation, made once per orbit and numbered by the store."""
        found = self._plans.get((orbit, side))
        if found is None:
            space = _space(self._first[orbit], side)
            found = self._plans[orbit, side] = self.store.plan(*_dp_plan(*space))
        return found

    def side(self, orientation: Orientation, side: str, box, value, zeros: str = "allowed"):
        """The count in one box at p or q (a group's moduli on a "group"
        box), with ``zeros`` as in _partial_sum_dp, read by ``_reader``. A
        zero-set histogram, read on the "int" and "group" boxes only, is the
        same for every orientation: flipping an edge negates its value, not
        its zero set."""
        return self._reader([self.orbit(orientation)], side, box, zeros)[1](value)[0]

    def _reader(self, orbits, side: str, box, zeros: str):
        """(keys, read): the orbits' count keys on the side, resolved once
        per orbit, and read(value), their counts in the box at ``value``,
        listed once per value from the store, which makes each once per key.
        A count key is the plan number of the orbit's first orientation,
        with the side and the circuit bits for "support", the one box that
        reads them; None for the box None, whose counts are 1."""
        if box is None:
            ones = [1] * len(orbits)
            return [None] * len(orbits), lambda value: ones
        inputs, listed = [], {}  # (key, plan, circuit) per orbit; value -> counts
        for orbit in orbits:
            number, plan = self._plan(orbit, side)
            if box == "support":
                if orbit not in self._circuits:
                    self._circuits[orbit] = self.circuit(self._first[orbit])
                circuit = self._circuits[orbit]
                inputs.append(((number, side, _bits(circuit)), plan, circuit))
            else:
                inputs.append((number, plan, None))

        def read(value):
            if value not in listed:
                made = self.store.counts.setdefault((box, value, zeros), {})
                for key, plan, circuit in inputs:
                    if key not in made:
                        made[key] = _box_count(plan, self.graph.edge_count, circuit, side, box,
                                               value, self.budget, zeros)
                listed[value] = [made[key] for key, _, _ in inputs]
            return listed[value]

        return [key for key, _, _ in inputs], read

    def _merge(self, pairs) -> list[tuple[Orientation, int]]:
        """The (orientation, weight) pairs merged by ``orbit``, on which
        every count is constant: each orbit's first orientation listed, and
        its summed weight."""
        merged: dict = {}
        for o, w in pairs:
            key = self.orbit(o)
            first, total = merged.get(key, (o, 0))
            merged[key] = first, total + w
        return list(merged.values())

    def sampler(self, family: str, pairs):
        """(key, sampler): sampler(p, q) of the family's weighted sum over
        (orientation, weight) pairs, over the orbits (``_merge``) the weight
        times the tension count at p times the flow count at q (``_reader``);
        key, which fixes it at every point, is the family, rank, nullity,
        edge count and the orbits' (tension, flow) count keys with summed
        weights: the store's polynomial key.

        The family's row picks the zero mode: "allowed" for an orientation
        sum; for a definition-level family "forbidden" on its one side, or
        "masks" on both, the complementary pairs (ker f = supp g) matched by
        zero set (_matched_pairs). Each zero mode is a kernel call of its
        own, so a one-side count is never read off a zero-set histogram."""
        t_box, f_box, members = FAMILY_TABLE[family]
        zeros = "allowed" if members != "one" else "masks" if t_box and f_box else "forbidden"
        m = self.graph.edge_count
        combine = mul if zeros != "masks" else lambda t, f: _matched_pairs(t, f, (1 << m) - 1)
        merged = self._merge(pairs)
        orbits, weights = [self.orbit(o) for o, _ in merged], [w for _, w in merged]
        t_keys, tensions = self._reader(orbits, "tension", t_box, zeros)
        f_keys, flows = self._reader(orbits, "flow", f_box, zeros)
        inputs: dict = {}
        for pair, w in zip(zip(t_keys, f_keys), weights):
            inputs[pair] = inputs.get(pair, 0) + w
        rank = len(spanning_structure(self.graph).forest_positions)
        # one flat tuple, in sorted order: it is kept for the whole sweep
        key = (family, rank, m - rank, m,
               *(x for pair in sorted(inputs) for x in (*pair, inputs[pair])))

        def sampler(a, b):
            return sum(map(mul, weights, map(combine, tensions(a), flows(b))))

        return key, sampler


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise ValueError(message)


def count(
    graph: MultiGraph,
    family: str,
    budget: int = DEFAULT_BUDGET,
    *,
    p: int | None = None,
    q: int | None = None,
    orientation: Orientation | None = None,
    group_a: Sequence[int] | None = None,
    group_b: Sequence[int] | None = None,
) -> int:
    """Exact value of one counting family at (p, q).

    A per-orientation family needs ``orientation``; a definition-level one
    counts on it, or on the reference orientation, and a class-sum family
    refuses it. ``group_a``/``group_b`` give the moduli of a product group of
    order p/q for a "group" box.
    ``budget`` caps the work items of each kernel call and orientation sweep.
    """
    # the family and orientation rule, then the arguments and groups, and
    # only then the sweep of the members, so a bad argument sweeps nothing
    table = CountTable(graph, budget)
    orientation = table.family_orientation(family, orientation)
    t_box, f_box, _ = FAMILY_TABLE[family]
    lowest = lowest_argument(family)
    for name, value, box in (("p", p, t_box), ("q", q, f_box)):
        if box is not None:
            # bool is an int subclass, but True is no argument
            _require(
                isinstance(value, int) and not isinstance(value, bool) and value >= lowest,
                f"{family} needs {name} >= {lowest}",
            )

    _require(group_a is None or t_box == "group", f"{family} reads no tension-side group")
    _require(group_b is None or f_box == "group", f"{family} reads no flow-side group")

    def argument(value, group):
        # a given group's moduli stand in for the argument on its side; ()
        # is the trivial group, not no group
        if group is None:
            return value
        moduli = CyclicProduct(tuple(group)).moduli
        _require(prod(moduli) == value, "group order must match the argument")
        return moduli

    a, b = argument(p, group_a), argument(q, group_b)
    return table.sampler(family, table._members(family, orientation))[1](a, b)
