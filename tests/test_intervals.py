import itertools
import random
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hyperloc import intervals
from hyperloc.errors import InvalidInputError, NoHamiltonianPathError
from hyperloc.intervals import (Graph, InducedClaw, InducedNet, find_claw,
                                find_net, unit_interval_order)
from hyperloc.model import (BuildingConfig, build_udg,
                            flagship_building_config, generate_building,
                            make_rng, udg_edges)

from graph_oracles import (SizeLimitError, _lbfs, adjacency, claw_oracle,
                           edge_list, hamiltonian_oracle, is_path, net_oracle)


def random_unit_interval_graph(rng, n, twins=0.0):
    """Unit interval graph on ``0..n-1`` in position order. Each gap is
    1e-9 with probability ``twins``, making twins unless a third point lies
    within 1e-9 of distance 1 (the kernel rejects coincident points)."""
    gaps = rng.uniform(0.15, 0.95, n - 1)
    if twins:
        gaps[rng.random(n - 1) < twins] = 1e-9
    xs = np.concatenate([[0.0], np.cumsum(gaps)])
    return Graph.from_instance(build_udg(xs[:, None], 1.0))


def random_graph(rng, n, p):
    edges = [(u, v) for u in range(n) for v in range(u + 1, n)
             if rng.random() < p]
    return Graph(range(n), edges)


NET = Graph(range(6), [(0, 1), (1, 2), (0, 2), (0, 3), (1, 4), (2, 5)])
C4 = Graph(range(4), [(0, 1), (1, 2), (2, 3), (0, 3)])
CLAW = Graph(range(4), [(0, 1), (0, 2), (0, 3)])
# A path whose smallest id, where the first sweep starts, is inside it.
SHUFFLED_PATH = Graph(range(6), [(5, 2), (2, 0), (0, 3), (3, 1), (1, 4)])
# Claw centred at 2 with leaves 0, 1, 4, yet the 3-sweep order 0 2 1 3 4 is
# a Hamiltonian path: consecutive adjacency alone certifies nothing, so the
# order is refused.
CLAW_WITH_PATH = Graph(range(5), [(0, 2), (1, 2), (1, 3), (2, 3), (2, 4),
                                  (3, 4)])


def reference_lbfs(graph, start, tie_order):
    """Quadratic LBFS+: each step rescans every remaining vertex for the
    largest (label, priority); labels are lists of decreasing stamps."""
    if tie_order is None:
        prio = {u: -u for u in graph.nodes}
    else:
        prio = {u: i for i, u in enumerate(tie_order)}
    label = {u: [] for u in graph.nodes}
    visited = set()
    order = []
    adj = adjacency(graph)
    remaining = set(graph.nodes)
    for step in range(graph.n):
        if step == 0:
            u = start
        else:
            u = max(remaining, key=lambda v: (label[v], prio[v]))
        order.append(u)
        visited.add(u)
        remaining.discard(u)
        for w in adj[u]:
            if w not in visited:
                label[w].append(graph.n - step)
    return order


def is_umbrella_order(graph, seq):
    """Every closed neighbourhood takes contiguous positions of ``seq``."""
    pos = {u: i for i, u in enumerate(seq)}
    adj = adjacency(graph)
    spans = [[pos[u], *(pos[w] for w in adj[u])] for u in graph.nodes]
    return all(max(p) - min(p) == len(p) - 1 for p in spans)


def reference_sweeps(graph):
    if graph.n == 0:
        return ()
    s1 = reference_lbfs(graph, graph.nodes[0], None)
    s2 = reference_lbfs(graph, s1[-1], s1)
    return s1, s2, reference_lbfs(graph, s2[-1], s2)


def sweep_order(graph):
    """``graph._sweeps``'s order as ids."""
    return [graph.nodes[i] for i in graph._sweeps[0]]


def check_against_reference(graph):
    """``graph._sweeps`` holds the reference's last sweep, up to reversal,
    and its certificate; ``unit_interval_order`` returns that sweep, the
    smaller end id first, when it is a certified path, and raises else."""
    last = list(reference_sweeps(graph)[-1]) if graph.n else []
    assert sweep_order(graph) in (last, last[::-1])
    assert graph._sweeps[1] == is_umbrella_order(graph, last)
    if graph.n == 0:
        return
    if graph._sweeps[1] and is_path(graph, last):
        want = last[::-1] if last[0] > last[-1] else last
        assert unit_interval_order(graph).sequence == tuple(want)
    else:
        with pytest.raises((InvalidInputError, NoHamiltonianPathError)):
            unit_interval_order(graph)


def reference_net_oracle(graph):
    """Exhaustive 6-subset scan; first net by (triangle, pendants)."""
    nodes = graph.nodes
    idx = {u: i for i, u in enumerate(nodes)}
    bits, adj = [], adjacency(graph)
    for u in nodes:
        b = 0
        for v in adj[u]:
            b |= 1 << idx[v]
        bits.append(b)
    best = None
    for six in itertools.combinations(range(len(nodes)), 6):
        for tri in itertools.combinations(six, 3):
            a, b, c = tri
            if not (bits[a] >> b) & 1 or not (bits[a] >> c) & 1 \
                    or not (bits[b] >> c) & 1:
                continue
            rest = [u for u in six if u not in tri]
            for pend in itertools.permutations(rest):
                x, y, z = pend
                if (bits[x] >> a) & 1 and not (bits[x] >> b) & 1 \
                        and not (bits[x] >> c) & 1 \
                        and (bits[y] >> b) & 1 and not (bits[y] >> a) & 1 \
                        and not (bits[y] >> c) & 1 \
                        and (bits[z] >> c) & 1 and not (bits[z] >> a) & 1 \
                        and not (bits[z] >> b) & 1 \
                        and not (bits[x] >> y) & 1 and not (bits[x] >> z) & 1 \
                        and not (bits[y] >> z) & 1:
                    key = (tri, pend)
                    if best is None or key < best:
                        best = key
    if best is None:
        return None
    tri, pend = best
    return InducedNet(triangle=tuple(nodes[i] for i in tri),
                      pendants=tuple(nodes[i] for i in pend))


def _matrix(graph):
    idx = {u: i for i, u in enumerate(graph.nodes)}
    a = np.zeros((graph.n, graph.n), dtype=bool)
    for u, v in edge_list(graph):
        a[idx[u], idx[v]] = a[idx[v], idx[u]] = True
    return a


def reference_find_claw(graph):
    """Dense-matrix claw search with a vectorized pre-test per center: a
    claw exists iff the complement of the neighbourhood has a triangle."""
    a = _matrix(graph)
    nodes = graph.nodes
    for ci, c in enumerate(nodes):
        nb = np.nonzero(a[ci])[0]
        if len(nb) < 3:
            continue
        comp = ~a[np.ix_(nb, nb)]
        np.fill_diagonal(comp, False)
        if not np.any((comp.astype(np.uint8) @ comp.astype(np.uint8)) * comp):
            continue
        for i, j, k in itertools.combinations(range(len(nb)), 3):
            if comp[i, j] and comp[i, k] and comp[j, k]:
                leaves = (nodes[nb[i]], nodes[nb[j]], nodes[nb[k]])
                return InducedClaw(center=c, leaves=leaves)
    return None


def reference_find_net(graph):
    """Dense-matrix net search over triangles and their pendants."""
    a = _matrix(graph)
    nodes = graph.nodes
    n = graph.n
    for ai in range(n):
        for bi in range(ai + 1, n):
            if not a[ai, bi]:
                continue
            for ci in range(bi + 1, n):
                if not (a[ai, ci] and a[bi, ci]):
                    continue
                tri = (ai, bi, ci)
                cand = []
                for t in tri:
                    others = [o for o in tri if o != t]
                    p = a[t] & ~a[others[0]] & ~a[others[1]]
                    p[list(tri)] = False
                    cand.append(np.nonzero(p)[0])
                if not all(len(c) for c in cand):
                    continue
                for x in cand[0]:
                    for y in cand[1]:
                        if a[x, y] or x == y:
                            continue
                        for z in cand[2]:
                            if z == x or z == y or a[x, z] or a[y, z]:
                                continue
                            return InducedNet(
                                triangle=(nodes[ai], nodes[bi], nodes[ci]),
                                pendants=(nodes[x], nodes[y], nodes[z]))
    return None


@st.composite
def labelled_graphs(draw, max_n=30):
    """Random or unit interval graphs, connected or not, on non-contiguous
    ids unrelated to the vertex positions."""
    n = draw(st.integers(0, max_n))
    ids = draw(st.lists(st.integers(-40, 200), min_size=n, max_size=n,
                        unique=True))
    if draw(st.booleans()):
        # Quarter-unit positions: twins, and pairs at exactly distance 1.
        xs = draw(st.lists(st.integers(0, 4 * n), min_size=n, max_size=n))
        pairs = [(i, j) for i in range(n) for j in range(i + 1, n)
                 if abs(xs[i] - xs[j]) <= 4]
    else:
        p = draw(st.sampled_from((0.05, 0.15, 0.3, 0.5, 0.8)))
        rnd = random.Random(draw(st.integers(0, 2**32 - 1)))
        pairs = [(i, j) for i in range(n) for j in range(i + 1, n)
                 if rnd.random() < p]
    return Graph(ids, [(ids[i], ids[j]) for i, j in pairs])


@st.composite
def umbrella_ordered_graphs(draw):
    """Unit interval graphs with twins, or disjoint unions of two, on
    random ids, each with an umbrella order: its vertices by position."""
    parts = []
    for _ in range(draw(st.integers(1, 2))):
        rng = make_rng(draw(st.integers(0, 2**32 - 1)))
        parts.append(random_unit_interval_graph(
            rng, draw(st.integers(1, 25)),
            twins=draw(st.sampled_from((0.0, 0.2, 0.5)))))
    n = sum(g.n for g in parts)
    ids = draw(st.lists(st.integers(-40, 200), min_size=n, max_size=n,
                        unique=True))
    edges, shift = [], 0
    for g in parts:
        edges += [(ids[shift + u], ids[shift + v]) for u, v in edge_list(g)]
        shift += g.n
    return Graph(ids, edges), ids


def _same_graph(a, b):
    assert a.nodes == b.nodes
    assert edge_list(a) == edge_list(b)
    assert adjacency(a) == adjacency(b)
    assert np.array_equal(a.start, b.start)
    assert np.array_equal(a.nbr, b.nbr)
    assert a._sweeps == b._sweeps


class TestFromInstance:
    @settings(max_examples=150, deadline=None, database=None,
              derandomize=True)
    @given(cells=st.lists(st.tuples(st.integers(0, 9), st.integers(0, 3)),
                          unique=True, max_size=30),
           data=st.data())
    def test_matches_constructor_on_filtered_edges(self, cells, data):
        inst = build_udg(0.3 * np.array(cells, dtype=float).reshape(-1, 2),
                         1.0)
        # members drawn from a range wider than the instance's ids: those
        # outside it stay isolated vertices
        ids = data.draw(st.lists(st.integers(-3, inst.n + 3), max_size=40))
        want = Graph(ids, [(u, v) for u, v, _ in inst.edges
                           if u in ids and v in ids])
        _same_graph(Graph.from_instance(inst, ids), want)
        _same_graph(Graph.from_instance(inst, iter(ids)), want)

    def test_whole_instance_by_default(self):
        inst = build_udg(make_rng(2).uniform(0, 3, (40, 2)), 1.0)
        _same_graph(Graph.from_instance(inst),
                    Graph(range(inst.n), [(u, v) for u, v, _ in inst.edges]))

    def test_outside_ids_only(self):
        inst = build_udg([(0, 0), (0.5, 0)], 1.0)
        g = Graph.from_instance(inst, [-1, 7])
        assert g.nodes == (-1, 7) and edge_list(g) == ()
        assert adjacency(g) == {-1: frozenset(), 7: frozenset()}


def _unique_rows(n, a, b):
    """``intervals._rows`` by one ``np.unique`` over the keys of both
    directions, its path for any input not in ``udg_edges`` order."""
    keys, first = np.unique(np.concatenate([a * n + b, b * n + a]),
                            return_index=True)
    src, nbr = np.divmod(keys, max(n, 1))
    start = np.zeros(n + 1, dtype=np.intp)
    np.cumsum(np.bincount(src, minlength=n), out=start[1:])
    return start, nbr, first % max(len(a), 1)


def _same_rows(got, want):
    for g, w in zip(got, want, strict=True):
        assert (g.dtype, g.shape, g.tobytes()) == (w.dtype, w.shape,
                                                   w.tobytes())


def _forbid_unique(monkeypatch):
    """Make ``np.unique`` fail: edges in ``udg_edges`` order are placed by
    counting, without it."""
    def no_unique(*args, **kwargs):
        raise AssertionError("np.unique called on edges in key order")
    monkeypatch.setattr(np, "unique", no_unique)


class TestRows:
    @settings(max_examples=300, deadline=None, database=None,
              derandomize=True)
    @given(n=st.integers(0, 12), how=st.sampled_from(
        ("ascending", "shuffled", "repeats")), data=st.data())
    def test_matches_the_unique_path(self, n, how, data):
        ends = st.integers(0, max(n - 1, 0))
        pairs = sorted(data.draw(st.sets(st.tuples(ends, ends).filter(
            lambda e: e[0] < e[1]), max_size=30)) if n > 1 else ())
        if how == "shuffled":
            # any order, each edge either way round
            pairs = [(b, a) if data.draw(st.booleans()) else (a, b)
                     for a, b in data.draw(st.permutations(pairs))]
        elif how == "repeats" and pairs:
            # repeated edges and edges given both ways, keys in order: the
            # keys may still ascend strictly, as with (0, 1), (1, 0)
            extra = data.draw(st.lists(st.sampled_from(pairs), min_size=1))
            pairs = sorted(pairs + [(b, a) if data.draw(st.booleans())
                                    else (a, b) for a, b in extra])
        a, b = np.array(pairs, dtype=np.intp).reshape(-1, 2).T
        _same_rows(intervals._rows(n, a, b), _unique_rows(n, a, b))

    @pytest.mark.parametrize("n, pairs", [
        # 3 has only lower neighbours, 0, 1 and 2 only higher ones
        (4, [(0, 3), (1, 3), (2, 3)]),
        (4, [(0, 1), (0, 2), (0, 3), (1, 3), (2, 3)]),
        # 0 and 5 isolated, at both ends
        (6, [(1, 2), (2, 4), (3, 4)]),
        # stars centred first, last and in the middle
        (6, [(0, 1), (0, 2), (0, 3), (0, 4), (0, 5)]),
        (6, [(0, 5), (1, 5), (2, 5), (3, 5), (4, 5)]),
        (6, [(0, 3), (1, 3), (2, 3), (3, 4), (3, 5)]),
        (1, []), (0, []), (5, [])])
    def test_counting_layout_on_small_graphs(self, n, pairs, monkeypatch):
        a, b = np.array(pairs, dtype=np.intp).reshape(-1, 2).T
        want = _unique_rows(n, a, b)
        _forbid_unique(monkeypatch)
        _same_rows(intervals._rows(n, a, b), want)

    def test_counting_layout_on_the_benchmark_building(self, monkeypatch):
        inst = generate_building(BuildingConfig(
            floors=3, floor_spacing=0.8, corridors_per_floor=4,
            node_spacing=0.9, radius=1.0, corridor_spacing=0.45,
            extent=266 * 0.9, stagger=True,
            connector_columns=((119.7, 0.675),)))
        a, b, _ = udg_edges(inst.positions(), inst.radius)
        want = _unique_rows(inst.n, a, b)
        _forbid_unique(monkeypatch)
        got = intervals._rows(inst.n, a, b)
        _same_rows(got, want)
        assert not got[0].flags.writeable and not got[1].flags.writeable
        _same_rows(got[:2], (inst.graph.start, inst.graph.nbr))

    def test_udg_edges_are_merged_without_unique(self, monkeypatch):
        pos = make_rng(4).uniform(0, 6, (300, 2))
        a, b, _ = udg_edges(pos, 1.0)
        want = _unique_rows(300, a, b)
        _forbid_unique(monkeypatch)
        _same_rows(intervals._rows(300, a, b), want)


def _check_pair_slots(g, pairs, u, v):
    """``g.pair_slots(u, v)`` against ``pairs``, the set of its local
    ``(i, j)`` adjacencies: the slot of ``j`` in row ``i``, or -1."""
    got = g.pair_slots(np.array(u, dtype=np.intp), np.array(v, dtype=np.intp))
    assert got.shape == (len(u),)
    for a, b, at in zip(u, v, got.tolist()):
        if (a, b) in pairs:
            assert g.start[a] <= at < g.start[a + 1] and g.nbr[at] == b
        else:
            assert at == -1


class TestPairSlots:
    @settings(max_examples=150, deadline=None, database=None,
              derandomize=True)
    @given(n=st.integers(0, 12), data=st.data())
    def test_matches_set_of_pairs_on_random_graphs(self, n, data):
        ends = st.integers(0, max(n - 1, 0))
        edges = [] if n < 2 else data.draw(st.lists(
            st.tuples(ends, ends).filter(lambda e: e[0] != e[1]),
            max_size=30))
        g = Graph(range(n), edges)
        pairs = {*edges, *((b, a) for a, b in edges)}
        # every pair in range, and drawn ones reaching below 0 and past n
        drawn = data.draw(st.lists(st.tuples(st.integers(-3, n + 3),
                                             st.integers(-3, n + 3)),
                                   max_size=30))
        q = [*itertools.product(range(n), repeat=2), *drawn]
        _check_pair_slots(g, pairs, [a for a, _ in q], [b for _, b in q])

    @settings(max_examples=100, deadline=None, database=None,
              derandomize=True)
    @given(cells=st.lists(st.tuples(st.integers(0, 9), st.integers(0, 3)),
                          unique=True, max_size=30),
           data=st.data())
    def test_matches_set_of_pairs_on_induced_subgraphs(self, cells, data):
        inst = build_udg(0.3 * np.array(cells, dtype=float).reshape(-1, 2),
                         1.0)
        ids = data.draw(st.lists(st.integers(-3, inst.n + 3), max_size=40))
        g = Graph.from_instance(inst, ids)
        local = {u: i for i, u in enumerate(g.nodes)}
        pairs = {(local[a], local[b]) for u, v, _ in inst.edges
                 for a, b in ((u, v), (v, u)) if u in local and v in local}
        q = list(itertools.product(range(-2, g.n + 2), repeat=2))
        _check_pair_slots(g, pairs, [a for a, _ in q], [b for _, b in q])

    def test_out_of_range_ids_alias_no_key(self):
        # keys i * 3 + j: (0, 3), (-1, 4) and (3, -2) would read as the
        # keys of (1, 0), (0, 1) and (2, 1)
        g = Graph(range(3), [(0, 1), (1, 2)])
        got = g.pair_slots(np.array([0, -1, 3, 2, 1]),
                           np.array([3, 4, -2, 1, 0]))
        assert got.tolist() == [-1, -1, -1, 3, 1]
        assert Graph((), ()).pair_slots(np.array([0, -1]),
                                        np.array([0, 0])).tolist() == [-1, -1]
        assert Graph((), ()).pair_slots(np.zeros(0), np.zeros(0)).size == 0


class TestFindClaw:
    def test_star(self):
        claw = find_claw(Graph(range(4), [(0, 1), (0, 2), (0, 3)]))
        assert claw.center == 0 and claw.leaves == (1, 2, 3)

    def test_path4_has_none(self):
        assert find_claw(Graph(range(4), [(0, 1), (1, 2), (2, 3)])) is None

    def test_unit_interval_graphs_claw_free(self):
        rng = make_rng(2)
        for _ in range(25):
            assert find_claw(random_unit_interval_graph(rng, 30)) is None

    def test_oracle_confirms_claw_free_n30(self):
        g = random_unit_interval_graph(make_rng(21), 30)
        assert find_claw(g) is None and claw_oracle(g) is None

    def test_matches_oracle_on_random_graphs(self):
        rng = make_rng(3)
        for _ in range(40):
            g = random_graph(rng, int(rng.integers(4, 14)), 0.35)
            assert find_claw(g) == claw_oracle(g)


class TestFindNet:
    def test_canonical_net_found(self):
        net = find_net(NET)
        assert net.triangle == (0, 1, 2)
        assert net.pendants == (3, 4, 5)

    def test_triangle_too_small(self):
        assert find_net(Graph(range(3), [(0, 1), (1, 2), (0, 2)])) is None

    def test_unit_interval_graphs_net_free(self):
        rng = make_rng(4)
        for _ in range(25):
            assert find_net(random_unit_interval_graph(rng, 30)) is None

    def test_oracle_confirms_net_free_n30(self):
        g = random_unit_interval_graph(make_rng(22), 30)
        assert find_net(g) is None and net_oracle(g) is None

    def test_matches_oracle_on_random_graphs(self):
        rng = make_rng(5)
        for _ in range(30):
            g = random_graph(rng, int(rng.integers(6, 12)), 0.4)
            assert find_net(g) == net_oracle(g)

    def test_oracle_matches_six_subset_scan(self):
        for g in (NET, C4, CLAW, CLAW_WITH_PATH):
            assert net_oracle(g) == reference_net_oracle(g)
        rng = make_rng(5)
        for _ in range(30):
            g = random_graph(rng, int(rng.integers(6, 12)), 0.4)
            assert net_oracle(g) == reference_net_oracle(g)
        rng = make_rng(4)
        for _ in range(25):
            g = random_unit_interval_graph(rng, 12)
            assert net_oracle(g) == reference_net_oracle(g) is None

    @settings(max_examples=300, deadline=None, database=None,
              derandomize=True)
    @given(g=labelled_graphs(max_n=10))
    def test_oracle_matches_six_subset_scan_on_labelled_graphs(self, g):
        assert net_oracle(g) == reference_net_oracle(g)


class TestRowSearchMatchesMatrix:
    """The row searches return the dense-matrix search's first witness."""

    def _check(self, g):
        claw, net = find_claw(g), find_net(g)
        assert claw == reference_find_claw(g)
        assert net == reference_find_net(g)
        return claw, net

    def test_whole_buildings(self):
        for cfg in (BuildingConfig(floors=1, corridors_per_floor=3,
                                   extent=4.5),
                    flagship_building_config()):
            inst = generate_building(cfg)
            claw, _ = self._check(Graph.from_instance(inst))
            assert claw is not None

    def test_random_2d_udgs(self):
        rng = make_rng(3)
        for n in (200, 350, 500):
            side = np.sqrt(n * np.pi / 12)     # mean degree about 12
            g = Graph.from_instance(
                build_udg(rng.uniform(0, side, (n, 2)), 1.0))
            assert not g._sweeps[1]
            claw, net = self._check(g)
            assert claw is not None and net is not None

    def test_no_dense_copy_on_benchmark_building(self):
        # n = 3201; an n x n boolean matrix alone would be n^2 bytes
        inst = generate_building(BuildingConfig(
            floors=3, floor_spacing=0.8, corridors_per_floor=4,
            node_spacing=0.9, radius=1.0, corridor_spacing=0.45,
            extent=266 * 0.9, stagger=True,
            connector_columns=((119.7, 0.675),)))
        g = Graph.from_instance(inst)
        # the O(n + m) sweeps first: measured is the search they fall back to
        assert not g._sweeps[1]
        tracemalloc.start()
        try:
            claw, net = find_claw(g), find_net(g)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert inst.n == 3201
        assert peak < inst.n ** 2 / 4
        assert claw == reference_find_claw(g) is not None
        assert net == reference_find_net(g) is not None


class TestUnitIntervalOrder:
    def test_path(self):
        order = unit_interval_order(Graph([0, 1, 2], [(0, 1), (1, 2)]))
        assert order.sequence == (0, 1, 2)

    def test_collinear_deployment_sorted(self):
        inst = build_udg(np.array([0, 0.4, 0.8, 1.2, 1.6])[:, None], 1.0)
        g = Graph.from_instance(inst)
        order = unit_interval_order(g)
        assert order.sequence == (0, 1, 2, 3, 4)
        assert hamiltonian_oracle(g) is not None

    def test_claw_raises(self):
        with pytest.raises(NoHamiltonianPathError):
            unit_interval_order(Graph(range(4), [(0, 1), (0, 2), (0, 3)]))

    def test_disconnected_rejected(self):
        with pytest.raises(InvalidInputError):
            unit_interval_order(Graph(range(4), [(0, 1), (2, 3)]))

    def test_certified_disconnected_is_invalid_input(self, monkeypatch):
        # two disjoint paths: certified, so the gap between them in the
        # order, not a graph search, shows they are disconnected
        g = Graph([9, 4, 7, 1, 3, 8], [(9, 4), (4, 7), (1, 3), (3, 8)])
        assert g._sweeps[1]

        def no_search(self):
            raise AssertionError("certified graph searched")

        monkeypatch.setattr(Graph, "is_connected", no_search)
        with pytest.raises(InvalidInputError,
                           match="must be connected") as err:
            unit_interval_order(g)
        assert err.value.code == "invalid-input"
        assert unit_interval_order(SHUFFLED_PATH).sequence == \
            (4, 1, 3, 0, 2, 5)

    def test_vertices_appear_once_and_consecutive_adjacent(self):
        rng = make_rng(6)
        for _ in range(50):
            g = random_unit_interval_graph(rng, int(rng.integers(2, 40)))
            seq = unit_interval_order(g).sequence
            assert sorted(seq) == list(g.nodes)
            assert is_path(g, seq)


class TestLbfs:
    @settings(max_examples=400, deadline=None, database=None,
              derandomize=True)
    @given(g=labelled_graphs(), data=st.data())
    def test_matches_quadratic_reference(self, g, data):
        if g.n == 0:
            return
        start = data.draw(st.sampled_from(g.nodes))
        tie = data.draw(st.sampled_from(("none", "sweep", "permutation")))
        if tie == "none":
            tie_order = None
        elif tie == "sweep":
            tie_order = reference_lbfs(
                g, data.draw(st.sampled_from(g.nodes)), None)
        else:
            tie_order = data.draw(st.permutations(g.nodes))
        assert _lbfs(g, start, tie_order) == \
            reference_lbfs(g, start, tie_order)

    @settings(max_examples=400, deadline=None, database=None,
              derandomize=True)
    @given(g=labelled_graphs())
    def test_unit_interval_order_sweeps_match_reference(self, g):
        check_against_reference(g)
        if g.n == 0 or not g.is_connected():
            return
        seq = reference_sweeps(g)[-1]
        # accepted only when certified; then consecutive ids are adjacent
        if is_umbrella_order(g, seq):
            assert is_path(g, seq)
        else:
            with pytest.raises(NoHamiltonianPathError):
                unit_interval_order(g)


class TestSweepShortcut:
    """``Graph._sweeps`` stops at the first certified sweep, which is the
    last sweep up to reversal."""

    @settings(max_examples=300, deadline=None, database=None,
              derandomize=True)
    @given(drawn=umbrella_ordered_graphs())
    def test_lbfs_from_umbrella_order_reverses_it(self, drawn):
        g, by_position = drawn
        assert g._sweeps[1]
        for sigma in (by_position, sweep_order(g)):
            assert _lbfs(g, sigma[-1], sigma) == list(sigma[::-1])

    @pytest.fixture
    def lbfs_calls(self, monkeypatch):
        """The arguments of every ``_lbfs_local`` call from here on."""
        seen = []
        lbfs_local = intervals._lbfs_local

        def counting(*args):
            seen.append(args)
            return lbfs_local(*args)

        monkeypatch.setattr(intervals, "_lbfs_local", counting)
        return seen

    @pytest.mark.parametrize("graph, calls", [
        (SHUFFLED_PATH, 2), (C4, 3), (CLAW_WITH_PATH, 3),
    ], ids=["shuffled path", "C4", "claw with path"])
    def test_sweep_count(self, lbfs_calls, graph, calls):
        fresh = Graph(graph.nodes, edge_list(graph))   # no cached sweeps
        check_against_reference(fresh)
        assert len(lbfs_calls) == calls

    def test_no_sweep_on_building_corridors(self, lbfs_calls):
        # generate_building numbers each corridor's nodes along it
        inst = generate_building(flagship_building_config())
        corridors = {}
        for nd in inst.nodes:
            corridors.setdefault(nd.line_group, []).append(nd.id)
        for members in corridors.values():
            g = Graph.from_instance(inst, members)
            lbfs_calls.clear()
            assert g._sweeps[1]
            assert len(lbfs_calls) == 0
            check_against_reference(g)

    def test_position_ordered_graphs(self, lbfs_calls):
        """Unit interval graphs with twins, and disjoint unions of two, with
        ids in position order take no sweep; they and the same graphs
        relabelled at random get the reference sweeps."""
        rng = make_rng(15)
        for _ in range(60):
            nodes, edges = [], []
            for _ in range(int(rng.integers(1, 3))):
                part = random_unit_interval_graph(
                    rng, int(rng.integers(1, 40)), twins=0.3)
                shift = len(nodes)
                nodes += [shift + u for u in part.nodes]
                edges += [(shift + u, shift + v) for u, v in edge_list(part)]
            g = Graph(nodes, edges)
            lbfs_calls.clear()
            assert g._sweeps[1]
            assert len(lbfs_calls) == 0
            label = rng.permutation(len(nodes)).tolist()
            relabelled = Graph(label, [(label[u], label[v]) for u, v in edges])
            for h in (g, relabelled):
                assert h._sweeps[1]
                check_against_reference(h)


class TestProperIntervalCertificate:
    @settings(max_examples=300, deadline=None, database=None,
              derandomize=True)
    @given(g=labelled_graphs(max_n=10))
    def test_certified_graphs_have_no_claw_or_net(self, g):
        claw, net = claw_oracle(g), net_oracle(g)
        if claw is not None or net is not None:
            assert not g._sweeps[1]
        if g._sweeps[1]:
            assert claw is None and net is None
        assert find_claw(g) == claw and find_net(g) == net

    def test_unit_interval_graphs_certified(self):
        rng = make_rng(9)
        for _ in range(50):
            g = random_unit_interval_graph(rng, int(rng.integers(1, 60)))
            assert g._sweeps[1]

    def test_c4_falls_back_to_the_search(self):
        # Claw- and net-free but not an interval graph.
        assert not C4._sweeps[1]
        assert find_claw(C4) is None and find_net(C4) is None
        with pytest.raises(NoHamiltonianPathError, match=r"\(1,3\)"):
            unit_interval_order(C4)

    def test_claw_not_certified(self):
        assert not CLAW._sweeps[1]
        assert find_claw(CLAW) == InducedClaw(center=0, leaves=(1, 2, 3))
        assert find_net(CLAW) is None
        with pytest.raises(NoHamiltonianPathError):
            unit_interval_order(CLAW)

    def test_hamiltonian_sweep_with_claw_not_certified(self):
        # the last sweep is a Hamiltonian path, but not certified
        assert not CLAW_WITH_PATH._sweeps[1]
        assert sweep_order(CLAW_WITH_PATH) == [0, 2, 1, 3, 4]
        with pytest.raises(NoHamiltonianPathError, match="certified"):
            unit_interval_order(CLAW_WITH_PATH)
        assert find_claw(CLAW_WITH_PATH) == \
            InducedClaw(center=2, leaves=(0, 1, 4))
        assert find_net(CLAW_WITH_PATH) is None

    def test_net_not_certified(self):
        assert not NET._sweeps[1]
        with pytest.raises(NoHamiltonianPathError, match=r"\(2,4\)"):
            unit_interval_order(NET)


class TestHamiltonianOracle:
    def test_triangle_lex_smallest(self):
        assert hamiltonian_oracle(
            Graph(range(3), [(0, 1), (1, 2), (0, 2)])) == [0, 1, 2]

    def test_claw_none(self):
        assert hamiltonian_oracle(
            Graph(range(4), [(0, 1), (0, 2), (0, 3)])) is None

    def test_size_cap(self):
        g = Graph(range(13), [(i, i + 1) for i in range(12)])
        with pytest.raises(SizeLimitError):
            hamiltonian_oracle(g)

    def test_connected_unit_interval_always_has_path(self):
        rng = make_rng(7)
        for _ in range(60):
            g = random_unit_interval_graph(rng, int(rng.integers(2, 11)))
            path = hamiltonian_oracle(g)
            assert path is not None
            assert is_path(g, path)

    def test_order_agrees_with_oracle_feasibility(self):
        rng = make_rng(8)
        for _ in range(40):
            g = random_unit_interval_graph(rng, int(rng.integers(2, 11)))
            if hamiltonian_oracle(g) is not None:
                unit_interval_order(g)  # must not raise
