import os
import pickle
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

import ctfpolys
from ctfpolys import (
    ClassPartition,
    CyclicProduct,
    ForestData,
    GraphStats,
    IdentityCheck,
    IdentityReport,
    MintyPartition,
    MultiGraph,
    Orientation,
    OrientationClassification,
    PolynomialReport,
    build_graph,
    rank_generating,
    tutte,
)


def test_exports_resolve_once():
    # a stale or doubled name in __all__ fails here, not at a user's import
    repeated = [name for name, n in Counter(ctfpolys.__all__).items() if n > 1]
    assert not repeated
    missing = [name for name in ctfpolys.__all__ if not hasattr(ctfpolys, name)]
    assert not missing


def test_import_leaves_out_slow_modules():
    # every command pays for its imports: dataclasses alone pulls in these.
    # -S: a site's .pth files may import them on their own
    src = str(Path(ctfpolys.__file__).resolve().parent.parent)
    code = (
        "import sys, ctfpolys, ctfpolys.cli\n"
        "print(*(m for m in ('dataclasses', 'inspect', 'ast', 'dis') if m in sys.modules))"
    )
    done = subprocess.run(
        [sys.executable, "-S", "-c", code],
        capture_output=True, text=True, check=True, env={**os.environ, "PYTHONPATH": src},
    )
    assert done.stdout.strip() == ""


_G = build_graph(2, [(0, 1)])
_O = Orientation(_G, (0,))
_MINTY = MintyPartition(frozenset({0}), frozenset())

#: record class -> (keyword fields, (field, another value))
RECORDS = {
    GraphStats: (dict(components=1, rank=1, nullity=0), ("nullity", 1)),
    ForestData: (
        dict(forest_edges=frozenset({0}), fundamental_circuits=(), forest_positions=(0,),
             circuit_table=(), flow_table=((0, ()),), blocks=(0,), tension_order=(0,),
             flow_order=()),
        ("blocks", (1,)),
    ),
    MultiGraph: (dict(vertex_count=2, edges=((0, 1),), edge_ids=(0,)), ("edge_ids", (5,))),
    Orientation: (dict(graph=_G, flips=(0,)), ("flips", (1,))),
    MintyPartition: (dict(bond_part=frozenset({0}), circuit_part=frozenset()),
                     ("bond_part", frozenset())),
    OrientationClassification: (
        dict(is_acyclic=True, is_totally_cyclic=False, partition=_MINTY),
        ("is_acyclic", False),
    ),
    ClassPartition: (dict(relation="cut", classes=((_O,),), representatives=(_O,)),
                     ("relation", "eulerian")),
    CyclicProduct: (dict(moduli=(2, 3)), ("moduli", (6,))),
    PolynomialReport: (
        dict(tutte=tutte(_G), rank_generating=rank_generating(_G), families={}),
        ("families", {"tutte": tutte(_G)}),
    ),
    IdentityCheck: (dict(identity="T1b", tag="t", status="fail", witness="w"),
                    ("witness", None)),
    IdentityReport: (dict(graph=_G, checks=(IdentityCheck("T1b", "t", "pass"),)),
                     ("checks", ())),
}


@pytest.mark.parametrize("cls", RECORDS, ids=lambda cls: cls.__name__)
def test_record_value_semantics(cls):
    fields, (name, value) = RECORDS[cls]
    a, b = cls(**fields), cls(*fields.values())
    assert a == b and not a != b
    assert a != cls(**{**fields, name: value})
    subclass = type("Sub", (cls,), {"__slots__": ()})
    assert a != subclass(**fields) and a != tuple(fields.values())
    if any(isinstance(v, dict) for v in fields.values()):
        with pytest.raises(TypeError):  # unhashable field, unhashable record
            hash(a)
    else:
        assert hash(a) == hash(b)
    with pytest.raises(AttributeError):
        setattr(a, name, value)
    with pytest.raises(AttributeError):
        delattr(a, name)
    with pytest.raises(AttributeError):
        a.extra = 1
    assert getattr(a, name) == fields[name]
    args = ", ".join(f"{k}={v!r}" for k, v in fields.items())
    assert repr(a) == f"{cls.__name__}({args})"


def test_record_defaults_repr_and_pickle():
    assert IdentityCheck("T1b", "t", "pass").witness is None
    assert repr(build_graph(2, [(0, 1)])) == (
        "MultiGraph(vertex_count=2, edges=((0, 1),), edge_ids=(0,))"
    )
    for record in (build_graph(3, [(0, 1), (1, 2), (2, 2)]), _O):
        for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
            copy = pickle.loads(pickle.dumps(record, protocol))
            assert type(copy) is type(record) and copy == record
