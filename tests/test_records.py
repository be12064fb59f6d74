"""The result and bookkeeping records: construction, defaults and equality.

``InducedClaw``, ``InducedNet``, ``LinearOrder``, ``FlipConfiguration`` and
``gadget._Wire`` are named tuples; ``GroupTransform``, ``GroupLocalState``,
``grouploc._GroupArrays``, ``HierarchicalResult``, ``LocalizationTrace`` and
``SeedTetrahedron`` are plain classes.
"""

import json

import numpy as np
import pytest

from hyperloc import grouploc
from hyperloc.cli import main
from hyperloc.errors import InvalidInputError
from hyperloc.gadget import (FlipConfiguration, Hypergraph3U, _Wire,
                             build_gadget, enumerate_groupings)
from hyperloc.grouploc import (GroupLocalState, GroupTransform,
                               HierarchicalResult, hierarchical_localize)
from hyperloc.intervals import (Graph, InducedClaw, InducedNet, LinearOrder,
                                find_claw, find_net, unit_interval_order)
from hyperloc.model import (PointFormation, flagship_building_config,
                            generate_building, strip_ground_truth)
from hyperloc.quadloc import (LocalizationTrace, SeedTetrahedron,
                              find_seed_k4, quadrilaterate)

NET = Graph(range(6), [(0, 1), (1, 2), (0, 2), (0, 3), (1, 4), (2, 5)])
CLAW = Graph(range(4), [(0, 1), (0, 2), (0, 3)])


def test_induced_claw():
    claw = InducedClaw(0, (1, 2, 3))
    assert claw == InducedClaw(center=0, leaves=(1, 2, 3))
    assert (claw.center, claw.leaves) == (0, (1, 2, 3))
    assert find_claw(CLAW) == claw
    assert find_claw(CLAW) != InducedClaw(center=0, leaves=(1, 2, 4))
    assert hash(claw) == hash(InducedClaw(0, (1, 2, 3)))
    with pytest.raises(AttributeError):
        claw.center = 1


def test_induced_net():
    net = InducedNet((0, 1, 2), (3, 4, 5))
    assert net == InducedNet(triangle=(0, 1, 2), pendants=(3, 4, 5))
    assert (net.triangle, net.pendants) == ((0, 1, 2), (3, 4, 5))
    assert find_net(NET) == net
    with pytest.raises(AttributeError):
        net.triangle = (0, 1, 3)


def test_linear_order():
    order = LinearOrder((0, 1, 2))
    assert order == LinearOrder(sequence=(0, 1, 2))
    path = Graph(range(3), [(0, 1), (1, 2)])
    assert unit_interval_order(path) == order
    assert unit_interval_order(path).sequence == (0, 1, 2)
    with pytest.raises(AttributeError):
        order.sequence = (2, 1, 0)


def test_flip_configuration():
    cfg = FlipConfiguration((True, False), (False, False))
    assert cfg == FlipConfiguration(vertical=(True, False),
                                    horizontal=(False, False))
    assert (cfg.vertical, cfg.horizontal) == ((True, False), (False, False))
    # configurations compare, hash and sort as before
    configs = enumerate_groupings(build_gadget(
        Hypergraph3U(5, ((0, 1, 2), (2, 3, 4)))))
    assert configs and len(set(configs)) == len(configs)
    assert all(type(c) is FlipConfiguration for c in configs)
    assert configs[0] == FlipConfiguration(vertical=configs[0].vertical,
                                           horizontal=configs[0].horizontal)


def test_wire():
    w = _Wire("A", (1, 2), (10, 11), (20, 21))
    assert w == _Wire(half="A", end_vertices=(1, 2), end_apexes=(10, 11),
                      token_ids=(20, 21))
    h = Hypergraph3U(5, ((0, 1, 2), (2, 3, 4)))
    g = build_gadget(h)
    a, b = g._wires, build_gadget(h)._wires
    assert a == b and [w.half for w in a] == ["A", "B"] * 2
    # two wires per edge, in edge order: wire c's ends are edge c // 2's
    # apexes, the coupled end first
    assert [w.end_apexes for w in a] == [
        (g.flag_nodes[(w.end_vertices[w.half == "B"], c // 2)][0],
         g.flag_nodes[(w.end_vertices[w.half == "A"], c // 2)][0])
        for c, w in enumerate(a)]


def test_group_transform():
    q, t = np.array([[1.0], [0.0]]), np.array([2.0, 3.0])
    for tr in (GroupTransform(q, t), GroupTransform(linear=q, translation=t)):
        assert tr.linear is q and tr.translation is t
        assert tr.apply([[1.0]]).tolist() == [[3.0, 3.0]]
    with pytest.raises(InvalidInputError) as exc:
        GroupTransform(np.array([[2.0], [0.0]]), t)
    assert exc.value.code == "invalid-input"


def test_group_local_state():
    a, b = GroupLocalState(1), GroupLocalState(group=2)
    assert (a.group, a.status, a.support_vertices, a.transform, a.plane) == \
        (1, "unlocalized", [], None, None)
    a.support_vertices.append((0, np.zeros(2)))
    assert b.support_vertices == [] and a.support_vertices is not \
        b.support_vertices
    supports = [(5, np.ones(2))]
    tr = GroupTransform(np.array([[1.0], [0.0]]), np.zeros(2))
    for s in (GroupLocalState(3, "localized", supports, tr),
              GroupLocalState(group=3, status="localized",
                              support_vertices=supports, transform=tr)):
        assert (s.group, s.status, s.transform) == (3, "localized", tr)
        assert s.support_vertices is supports
        assert s.plane.normal == (0.0, 1.0) and s.plane.offset == 0.0


def test_group_arrays():
    names = ["ids", "local", "starts", "near", "far", "far_group", "length"]
    values = [np.arange(k) for k in range(len(names))]
    by_name = grouploc._GroupArrays(**dict(zip(names, values)))
    by_place = grouploc._GroupArrays(*values)
    for arr in (by_name, by_place):
        assert list(vars(arr)) == names
        assert all(getattr(arr, k) is v for k, v in zip(names, values))


def test_hierarchical_result():
    f = PointFormation(3)
    parts = (f, {0: 0.0}, {0: (0.0, 0.0)}, {1: "localized"}, {})
    names = ("formation", "pos1", "pos2", "line_states", "floor_states")
    for res in (HierarchicalResult(*parts),
                HierarchicalResult(**dict(zip(names, parts)))):
        assert all(getattr(res, k) is v for k, v in zip(names, parts))
        assert res.localized_fraction() == 0.0
    res = hierarchical_localize(strip_ground_truth(
        generate_building(flagship_building_config())))
    assert res.localized_fraction() == 1.0
    assert all(type(s) is GroupLocalState for s in res.floor_states.values())


def test_localization_trace():
    a, b = LocalizationTrace(), LocalizationTrace()
    assert (a.steps, a.formation, a.localized_count) == ([], None, 0)
    a.steps.append((0, np.zeros(3), ()))
    assert b.steps == [] and a.localized_count == 1
    steps, f = [(1, np.zeros(3), ())], PointFormation(3)
    for t in (LocalizationTrace(steps, f),
              LocalizationTrace(steps=steps, formation=f)):
        assert t.steps is steps and t.formation is f
    trace = quadrilaterate(generate_building(flagship_building_config()))
    assert trace.localized_count == len(trace.steps) > 0
    assert trace.formation.localized_fraction() > 0


def test_seed_tetrahedron():
    p = np.zeros((4, 3))
    for s in (SeedTetrahedron((0, 1, 2, 3), p),
              SeedTetrahedron(vertices=(0, 1, 2, 3), positions=p)):
        assert s.vertices == (0, 1, 2, 3) and s.positions is p
    seed = find_seed_k4(generate_building(flagship_building_config()))
    assert type(seed) is SeedTetrahedron and len(seed.vertices) == 4
    assert seed.positions.shape == (4, 3)


def test_named_tuples_reach_json_as_objects(tmp_path):
    """``check-graph`` is the one output path that reads a named-tuple
    record (``verify-hardness`` builds its rows from arrays, not from
    ``FlipConfiguration``): its claw and net stay JSON objects, and its
    path is ``LinearOrder.sequence`` as a list."""
    # a net on 0..5 and a claw centred at 6
    edges = [(0, 1), (1, 2), (0, 2), (0, 3), (1, 4), (2, 5), (6, 7), (6, 8),
             (6, 9)]
    net = {"radius": 1.0, "nodes": [{"id": u} for u in range(10)],
           "edges": [{"u": u, "v": v, "dist": 0.5} for u, v in edges]}
    path = {"radius": 1.0, "nodes": [{"id": u} for u in range(3)],
            "edges": [{"u": 0, "v": 1, "dist": 0.5},
                      {"u": 1, "v": 2, "dist": 0.5}]}
    reports = []
    for name, data in (("net", net), ("path", path)):
        src, out = tmp_path / f"{name}.json", tmp_path / f"{name}-out.json"
        src.write_text(json.dumps(data))
        assert main(["check-graph", "--input", str(src), "-o", str(out)]) == 0
        reports.append(json.loads(out.read_text()))
    assert reports[0] == {"claw": {"center": 6, "leaves": [7, 8, 9]},
                          "net": {"triangle": [0, 1, 2],
                                  "pendants": [3, 4, 5]},
                          "hamiltonian_path": None}
    assert reports[1] == {"claw": None, "net": None,
                          "hamiltonian_path": [0, 1, 2]}
