"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -s`` to see the per-criterion
report. Tolerances are pinned here and nowhere else.
"""

import itertools
import time

import numpy as np
import pytest

from hyperloc.errors import NoSeedError
from hyperloc.evaluate import (BenchConfig, align_isometry, bench_scaling,
                               random_dense_instance)
from hyperloc.gadget import (Hypergraph3U, build_gadget, enumerate_groupings,
                             lift_to_3d, two_colorings, verify_equivalence)
from hyperloc.grouploc import hierarchical_localize, localize_groups
from hyperloc.intervals import (Graph, find_claw, find_net,
                                unit_interval_order)
from hyperloc.model import (COLLINEAR, BuildingConfig, GroupingFunction,
                            NetworkInstance, NodeRecord, PointFormation,
                            build_udg, flagship_building_config,
                            generate_building, make_rng, strip_ground_truth)
from hyperloc.quadloc import quadrilaterate

from graph_oracles import (claw_oracle, hamiltonian_oracle, is_path,
                           net_oracle)

RADIUS = 1.0


def _report(criterion, detail):
    print(f"PASS criterion {criterion}: {detail}")


def random_uig(rng, n):
    gaps = rng.uniform(0.15, 0.95, n - 1)
    xs = np.concatenate([[0.0], np.cumsum(gaps)])
    return Graph.from_instance(build_udg(xs[:, None], RADIUS))


def test_criterion_1_claw_net_lemmas():
    t0 = time.monotonic()
    rng = make_rng(100)
    for _ in range(1000):
        g = random_uig(rng, int(rng.integers(20, 201)))
        assert g.is_connected()
        assert find_claw(g) is None
        assert find_net(g) is None
    # exact agreement with the exhaustive subset oracles on small graphs,
    # including graphs that do contain the forbidden patterns
    for trial in range(8):
        n = int(rng.integers(8, 21)) if trial < 6 else 25
        if trial % 2 == 0:
            g = random_uig(rng, n)
        else:
            edges = [(u, v) for u in range(n) for v in range(u + 1, n)
                     if rng.random() < 0.25]
            g = Graph(range(n), edges)
        assert find_claw(g) == claw_oracle(g)
        assert find_net(g) == net_oracle(g)
    elapsed = time.monotonic() - t0
    assert elapsed < 30.0
    _report(1, f"1000 unit interval graphs claw/net-free; oracle-matched "
               f"on small graphs ({elapsed:.1f}s < 30s)")


def test_criterion_2_hamiltonian_path():
    rng = make_rng(101)
    checked = 0
    for _ in range(500):
        g = random_uig(rng, int(rng.integers(2, 11)))
        path = hamiltonian_oracle(g)
        assert path is not None, "theory guarantees a path on these graphs"
        order = unit_interval_order(g).sequence
        assert sorted(order) == list(g.nodes)
        assert is_path(g, order)
        checked += 1
    _report(2, f"{checked} connected unit interval graphs (n <= 10): "
               "ordering yields a valid Hamiltonian path whenever the "
               "oracle finds one (always)")


def test_criterion_3_quadrilateration_dense():
    worst_rmse, worst_time = 0.0, 0.0
    for seed in range(50):
        inst = random_dense_instance(50, seed=seed)
        assert 2.0 * inst.m / inst.n >= 10.0
        t0 = time.monotonic()
        trace = quadrilaterate(strip_ground_truth(inst))
        elapsed = time.monotonic() - t0
        assert elapsed < 5.0
        assert trace.formation.localized_fraction() == 1.0
        rmse = align_isometry(trace.formation, inst).rmse
        assert rmse < 1e-6
        worst_rmse = max(worst_rmse, rmse)
        worst_time = max(worst_time, elapsed)
    _report(3, f"50 dense rigid instances fully localized; worst rmse "
               f"{worst_rmse:.2e} < 1e-6, worst time {worst_time:.2f}s < 5s")


def test_criterion_4_flagship_head_to_head():
    t0 = time.monotonic()
    inst = generate_building(flagship_building_config())
    stripped = strip_ground_truth(inst)
    try:
        trace = quadrilaterate(stripped)
        quad_note = f"quad localized {trace.localized_count}/{inst.n}"
        assert trace.localized_count < inst.n
    except NoSeedError:
        quad_note = "quad errored no-seed"
    res = hierarchical_localize(stripped)
    assert res.localized_fraction() == 1.0
    rmse = align_isometry(res.formation, inst).rmse
    assert rmse < 1e-6
    elapsed = time.monotonic() - t0
    assert elapsed < 10.0
    _report(4, f"{quad_note}; hierarchical localized 100% with rmse "
               f"{rmse:.2e} < 1e-6 ({elapsed:.1f}s < 10s)")


def _permuted(instance, perm):
    n = instance.n
    nodes = [None] * n
    for nd in instance.nodes:
        nodes[perm[nd.id]] = NodeRecord(
            id=perm[nd.id], true_pos=nd.true_pos, line_group=nd.line_group,
            plane_group=nd.plane_group)
    edges = [(perm[u], perm[v], d) for u, v, d in instance.edges]
    return NetworkInstance(nodes, edges, instance.radius)


def _distance_matrix(formation, ids):
    pts = formation.array(ids)
    return np.linalg.norm(pts[:, None, :] - pts[None, :, :], axis=-1)


def test_criterion_5_invariance_under_relabeling_and_seed():
    rng = make_rng(102)
    worst = 0.0
    for trial in range(20):
        two_floor = trial % 2 == 0
        extent = float(rng.choice([3.6, 4.5, 5.4, 6.3]))
        if two_floor:
            cfg = BuildingConfig(
                floors=2, floor_spacing=0.8, corridors_per_floor=3,
                node_spacing=0.9, corridor_spacing=0.45, extent=extent,
                connector_columns=((round(extent / 1.8) * 0.9, 0.45),))
            inst = generate_building(cfg)
            stripped = strip_ground_truth(inst)
            base = hierarchical_localize(stripped, seed_floor=1)
            alt = hierarchical_localize(stripped, seed_floor=2)
            perm = [int(x) for x in rng.permutation(inst.n)]
            permed = hierarchical_localize(
                strip_ground_truth(_permuted(inst, perm)))
            ids = list(range(inst.n))
            d0 = _distance_matrix(base.formation, ids)
            runs = [_distance_matrix(alt.formation, ids),
                    _distance_matrix(permed.formation, [perm[u] for u in ids])]
        else:
            cfg = BuildingConfig(
                floors=1, corridors_per_floor=2, node_spacing=0.9,
                corridor_spacing=0.45, extent=extent)
            inst = generate_building(cfg)
            stripped = strip_ground_truth(inst)
            grouping = GroupingFunction.from_instance(stripped, COLLINEAR)
            local = {}
            for g in grouping.groups:
                f = PointFormation(1, grouping.members(g))
                for u in grouping.members(g):
                    f.mark(u, (inst.nodes[u].true_pos[0],))
                local[g] = f
            ids = list(range(inst.n))
            f1, _ = localize_groups(stripped, grouping, local, d=2,
                                    seed_group=1)
            f2, _ = localize_groups(stripped, grouping, local, d=2,
                                    seed_group=2)
            d0 = _distance_matrix(f1, ids)
            runs = [_distance_matrix(f2, ids)]
        for d in runs:
            worst = max(worst, float(np.max(np.abs(d - d0))))
            assert np.max(np.abs(d - d0)) < 1e-9
    _report(5, f"20 relabeling/seed-group reruns agree; worst distance "
               f"matrix deviation {worst:.2e} < 1e-9")


def test_criterion_6_hardness_equivalence():
    t0 = time.monotonic()
    rng = make_rng(103)
    cases = [Hypergraph3U(3, ((0, 1, 2),)), Hypergraph3U(4, ())]
    for _ in range(100):
        n = int(rng.integers(3, 6))
        triples = list(itertools.combinations(range(n), 3))
        m = int(rng.integers(1, min(3, len(triples)) + 1))
        idx = rng.choice(len(triples), size=m, replace=False)
        cases.append(Hypergraph3U(n, tuple(triples[i] for i in idx)))
    for h in cases:
        rep = verify_equivalence(build_gadget(h))
        assert rep["agree"] is True
        assert rep["groupable"] is True  # every capped instance is colorable
    fano = Hypergraph3U(7, ((0, 1, 2), (0, 3, 4), (0, 5, 6), (1, 3, 5),
                            (1, 4, 6), (2, 3, 6), (2, 4, 5)))
    assert two_colorings(fano) == []
    elapsed = time.monotonic() - t0
    assert elapsed < 60.0
    _report(6, f"{len(cases)} hypergraphs agree (incl. single-edge and "
               f"empty); Fano certified non-2-colorable by brute force "
               f"({elapsed:.1f}s < 60s)")


def test_criterion_7_lift_preserves_groupability():
    rng = make_rng(104)
    for trial in range(20):
        n = int(rng.integers(3, 6))
        triples = list(itertools.combinations(range(n), 3))
        m = int(rng.integers(1, min(3, len(triples)) + 1))
        idx = rng.choice(len(triples), size=m, replace=False)
        h = Hypergraph3U(n, tuple(triples[i] for i in idx))
        g2 = build_gadget(h)
        g3 = lift_to_3d(g2)
        assert set(enumerate_groupings(g3)) == set(enumerate_groupings(g2))
        # copy-adjacency structure by all-pairs scan
        nn = g2.instance.n
        pos = g3.instance.positions()
        d = np.linalg.norm(pos[:nn, None, :] - pos[None, nn:, :], axis=-1)
        within = d <= RADIUS + 1e-9
        assert np.array_equal(within, np.eye(nn, dtype=bool))
    _report(7, "20 lifted gadgets preserve groupability verdicts; each node "
               "adjacent to exactly its copy across levels")


def test_criterion_8_scaling_smoke():
    cfg = BenchConfig(sizes=(100, 200, 400, 800), algorithms=("group",),
                      timeout_s=60.0)
    rows = bench_scaling(cfg)
    assert all(r["error"] == "" for r in rows)
    assert all(r["k"] == 3 and r["r"] == 12 for r in rows)
    ns = np.array([r["n"] for r in rows], dtype=float)
    ts = np.array([max(r["wall_time_ms"], 1e-3) for r in rows])
    slope = np.polyfit(np.log(ns), np.log(ts), 1)[0]
    assert slope < 2.0
    _report(8, f"group localization sweep n={[r['n'] for r in rows]} "
               f"completed; log-log slope {slope:.2f} < 2")
