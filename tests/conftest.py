import importlib
import pkgutil

import pytest

import ctfpolys
from ctfpolys import build_graph, counting, orientations, verify


@pytest.fixture(scope="session")
def package_caches():
    """The package's module-level caches by name: each lru_cache found in
    the namespace of one of its modules."""
    caches = {}
    for info in pkgutil.iter_modules(ctfpolys.__path__):
        if info.name == "__main__":
            continue
        module = importlib.import_module(f"ctfpolys.{info.name}")
        caches.update(
            (name, obj) for name, obj in vars(module).items() if hasattr(obj, "cache_info")
        )
    return caches


@pytest.fixture
def cache_growth(package_caches):
    """A function that runs sweep() and returns how many entries each
    package cache gained."""

    def grow(sweep):
        before = {name: c.cache_info().currsize for name, c in package_caches.items()}
        sweep()
        return {name: c.cache_info().currsize - before[name] for name, c in package_caches.items()}

    return grow


def _once(result):
    return 1


def _call_counter(monkeypatch, module, **sizes):
    """A function that runs sweep() and returns how many calls of the
    functions of ``module`` named in ``sizes`` it made, each weighted by its
    size function of what the call returned; its ``total()`` is the weight of
    every call since the counter was set up, to split one sweep into parts."""
    calls = []

    def counter(original, size):
        def counted(*args, **kwargs):
            result = original(*args, **kwargs)
            calls.append(size(result))
            return result

        return counted

    for name, size in sizes.items():
        monkeypatch.setattr(module, name, counter(getattr(module, name), size))

    def made(sweep):
        before = sum(calls)
        sweep()
        return sum(calls) - before

    made.total = lambda: sum(calls)
    return made


@pytest.fixture
def component_passes(monkeypatch):
    """A function that runs sweep() and returns how many circuit parts it
    found: the 2^|E| masks of each ``orientations._sweep_circuits`` call,
    plus one per ``orientations._circuit_part`` call."""
    return _call_counter(monkeypatch, orientations, _sweep_circuits=len, _circuit_part=_once)


@pytest.fixture
def kernel_calls(monkeypatch):
    """A function that runs sweep() and returns how many counting-kernel
    calls (``counting._partial_sum_dp`` calls) it made."""
    return _call_counter(monkeypatch, counting, _partial_sum_dp=_once)


@pytest.fixture
def isomorphism_keys(monkeypatch):
    """A function that runs sweep() and returns how many orientations a
    count table keyed up to isomorphism (``counting._isomorphism_key``
    calls)."""
    return _call_counter(monkeypatch, counting, _isomorphism_key=_once)


@pytest.fixture
def block_splits(monkeypatch):
    """A function that runs sweep() and returns how many graphs the ledger's
    workspace split into blocks (``verify._block_restrictions`` calls)."""
    return _call_counter(monkeypatch, verify, _block_restrictions=_once)


@pytest.fixture
def unmerged_sampler():
    """A function (family, pairs) -> sampler(p, q), the reference of
    ``CountTable.sampler``: the family's weighted sum over the (orientation,
    weight) pairs as listed, each pair's counts read from a CountTable of its
    own, which reads only that orientation and so merges no orbits. The zero
    mode is chosen here again from the family's FAMILY_TABLE row: nowhere
    zero for one side of a definition-level family, complementary pairs
    matched by zero set for both."""

    def make(family, pairs):
        t_box, f_box, members = counting.FAMILY_TABLE[family]
        tables = [(counting.CountTable(o.graph), o, w) for o, w in pairs]

        def sampler(p, q):
            total = 0
            for table, o, w in tables:
                if members == "one" and t_box and f_box:
                    full = (1 << o.graph.edge_count) - 1
                    total += w * counting._matched_pairs(
                        table.side(o, "tension", t_box, p, "masks"),
                        table.side(o, "flow", f_box, q, "masks"), full)
                else:
                    zeros = "forbidden" if members == "one" else "allowed"
                    total += (w * table.side(o, "tension", t_box, p, zeros)
                              * table.side(o, "flow", f_box, q, zeros))
            return total

        return sampler

    return make


@pytest.fixture(scope="session")
def p8():
    """The worked-example graph: triangle u,v,w with doubled u-v and v-w."""
    return build_graph(3, [(0, 2), (0, 1), (1, 2), (0, 1), (1, 2)])


@pytest.fixture(scope="session")
def k2():
    return build_graph(2, [(0, 1)])


@pytest.fixture(scope="session")
def l1():
    return build_graph(1, [(0, 0)])


@pytest.fixture(scope="session")
def c3():
    return build_graph(3, [(0, 1), (1, 2), (0, 2)])


@pytest.fixture(scope="session")
def digon_loop():
    return build_graph(2, [(0, 1), (0, 1), (0, 0)])


@pytest.fixture(scope="session")
def small_corpus():
    """Hand-picked graphs exercising loops, bridges, parallels, and
    disconnection."""
    return [
        build_graph(1, []),
        build_graph(2, []),
        build_graph(2, [(0, 1)]),
        build_graph(1, [(0, 0)]),
        build_graph(3, [(0, 1), (1, 2)]),
        build_graph(3, [(0, 1), (1, 2), (0, 2)]),
        build_graph(2, [(0, 1), (0, 1)]),
        build_graph(2, [(0, 1), (0, 1), (0, 0)]),
        build_graph(4, [(0, 1), (2, 3)]),
        build_graph(3, [(0, 1), (0, 1), (1, 2), (0, 0)]),
    ]
