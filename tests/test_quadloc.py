import itertools

import numpy as np
import pytest

from hyperloc.errors import (DegenerateAnchorsError, DegenerateDistancesError,
                             InconsistentDistancesError, NoSeedError)
from hyperloc.evaluate import ScenarioConfig, random_dense_instance
from hyperloc.model import (BuildingConfig, NetworkInstance, NodeRecord,
                            build_udg,
                            flagship_building_config, generate_building,
                            make_rng, strip_ground_truth)
from hyperloc.quadloc import (_ranges, cayley_menger, find_seed_k4,
                              is_degenerate_tetra, multilaterate, place_seed,
                              quadrilaterate, solve_spheres)


def regular_tetra_dists():
    d = np.ones((4, 4))
    np.fill_diagonal(d, 0.0)
    return d


def brute_force_seed(inst):
    """First 4-subset in lexicographic order that is a clique and not a
    degenerate tetrahedron, by scanning every 4-subset."""
    adj = [set(inst.neighbors(u)) for u in range(inst.n)]
    for quad in itertools.combinations(range(inst.n), 4):
        pairs = list(itertools.combinations(quad, 2))
        if not all(v in adj[u] for u, v in pairs):
            continue
        d2 = np.zeros((4, 4))
        for (i, j), (u, v) in zip(itertools.combinations(range(4), 2), pairs):
            d2[i, j] = d2[j, i] = inst.dist(u, v) ** 2
        if not is_degenerate_tetra(d2):
            return quad
    return None


def seed_by_neighbourhoods(inst):
    """``brute_force_seed`` on each vertex's closed upper neighbourhood in
    turn: the first seed with first vertex i lies in the one of i, and comes
    there before every 4-subset without i."""
    for i in range(inst.n):
        ids = [i] + [v for v in inst.neighbors(i) if v > i]
        edges = [(a, b, inst.dist(ids[a], ids[b]))
                 for a, b in itertools.combinations(range(len(ids)), 2)
                 if inst.has_edge(ids[a], ids[b])]
        sub = NetworkInstance([NodeRecord(id=k) for k in range(len(ids))],
                              edges, inst.radius)
        quad = brute_force_seed(sub)
        if quad is not None and quad[0] == 0:
            return tuple(ids[k] for k in quad)
    return None


def reference_walk(inst):
    """The queue walk of ``quadrilaterate`` by id: counts and positions in
    dicts, anchors from ``neighbors``, their lengths from ``dist``."""
    seed = find_seed_k4(inst)
    placed = dict(zip(seed.vertices, seed.positions))
    steps = [(v, p, ()) for v, p in placed.items()]
    count = dict.fromkeys(range(inst.n), 0)
    queue = list(seed.vertices)
    for u in queue:
        for v in inst.neighbors(u):
            if v in placed:
                continue
            count[v] += 1
            if count[v] < 4:
                continue
            anchors = [w for w in inst.neighbors(v) if w in placed]
            try:
                pos = multilaterate(np.array([placed[w] for w in anchors]),
                                    np.array([inst.dist(v, w)
                                              for w in anchors]))
            except (DegenerateAnchorsError, InconsistentDistancesError):
                continue
            placed[v] = pos
            steps.append((v, pos, tuple(anchors)))
            queue.append(v)
    return steps


def bench_building(floors=3, offset=0):
    """The benchmark's 3 x 4 building, stairwell ``offset`` grid steps from
    the middle; or its first floors alone."""
    return generate_building(BuildingConfig(
        floors=floors, floor_spacing=0.8, corridors_per_floor=4,
        node_spacing=0.9, corridor_spacing=0.45, extent=266 * 0.9,
        stagger=True,
        connector_columns=((round((133 + offset) * 0.9, 12), 0.675),)))


class TestFindSeedK4:
    def test_regular_tetrahedron(self):
        pts = [(0, 0, 0), (1, 0, 0), (0.5, np.sqrt(3) / 2, 0),
               (0.5, np.sqrt(3) / 6, np.sqrt(6) / 3)]
        seed = find_seed_k4(build_udg(pts, 1.0))
        assert seed.vertices == (0, 1, 2, 3)
        p = seed.positions
        assert abs(np.linalg.det(np.stack([p[1] - p[0], p[2] - p[0],
                                           p[3] - p[0]]))) / 6.0 > 1e-3

    def test_coplanar_floor_has_none(self):
        cfg = BuildingConfig(floors=1, corridors_per_floor=3, node_spacing=0.9,
                             corridor_spacing=0.45, extent=3.6)
        inst = generate_building(cfg)
        assert find_seed_k4(inst) is None

    @pytest.mark.parametrize("n", [12, 20, 30, 40])
    def test_lexicographically_smallest_on_random_dense(self, n):
        for seed in range(3):
            inst = random_dense_instance(n, seed=seed)
            assert find_seed_k4(inst).vertices == brute_force_seed(inst)

    def test_lexicographically_smallest_on_flagship(self):
        # five K4s before the seed lie in the first floor: all coplanar
        inst = generate_building(flagship_building_config())
        assert find_seed_k4(inst).vertices == brute_force_seed(inst)

    def test_neighbourhood_oracle_matches_brute_force(self):
        for seed in range(3):
            inst = random_dense_instance(20, seed=seed)
            assert seed_by_neighbourhoods(inst) == brute_force_seed(inst)

    @pytest.mark.parametrize("offset", [-40, 0, 40])
    def test_bench_building_seed_past_the_first_blocks(self, offset):
        # the seed's first vertex is the stairwell node at 133 + offset
        inst = bench_building(offset=offset)
        seed = find_seed_k4(inst)
        assert seed.vertices == seed_by_neighbourhoods(inst)
        assert seed.vertices[0] == 133 + offset

    def test_one_floor_of_the_bench_building_has_none(self):
        inst = bench_building(floors=1)
        assert find_seed_k4(inst) is None
        assert seed_by_neighbourhoods(inst) is None
        # not for want of 4-cliques: every one of them is coplanar
        k4 = sum(all(inst.has_edge(u, v) for u, v in
                     itertools.combinations(three, 2))
                 for i in range(inst.n) for three in itertools.combinations(
                     [v for v in inst.neighbors(i) if v > i], 3))
        assert k4 > 100

    @pytest.mark.parametrize("seed", range(5))
    def test_blocks_cover_every_index_once_within_the_cap(self, seed):
        count = make_rng(seed).integers(0, 40, size=500)
        count[::97] = 300                   # single indices over the cap
        got = list(_ranges(count, 64, 256))
        assert [lo for lo, _ in got] == [0] + [hi for _, hi in got[:-1]]
        assert got[-1][1] == len(count)
        sums = [int(count[lo:hi].sum()) for lo, hi in got]
        assert all(s <= 256 or hi - lo == 1 for s, (lo, hi) in zip(sums, got))
        assert sums[0] <= 64 or got[0] == (0, 1)

    def test_random_dense_membership_and_volume(self):
        inst = random_dense_instance(50, seed=3)
        seed = find_seed_k4(inst)
        assert seed is not None
        for a, b in itertools.combinations(seed.vertices, 2):
            assert inst.has_edge(a, b)
        # independent determinant evaluation of the realized volume
        p = seed.positions
        vol = abs(np.linalg.det(np.stack([p[1] - p[0], p[2] - p[0],
                                          p[3] - p[0]]))) / 6.0
        d2 = np.zeros((4, 4))
        for i, j in itertools.combinations(range(4), 2):
            d2[i, j] = d2[j, i] = inst.dist(seed.vertices[i],
                                            seed.vertices[j]) ** 2
        assert cayley_menger(d2) == pytest.approx(288.0 * vol ** 2, rel=1e-6)


class TestPlaceSeed:
    def test_regular_tetrahedron_canonical(self):
        p = place_seed(regular_tetra_dists())
        expected = np.array([[0, 0, 0], [1, 0, 0],
                             [0.5, np.sqrt(3) / 2, 0],
                             [0.5, np.sqrt(3) / 6, np.sqrt(6) / 3]])
        assert np.allclose(p, expected, atol=1e-12)

    def test_coplanar_distances_rejected(self):
        pts = np.array([[0, 0, 0], [1, 0, 0], [0, 1, 0], [1, 1, 0.0]])
        d = np.linalg.norm(pts[:, None] - pts[None, :], axis=-1)
        with pytest.raises(DegenerateDistancesError):
            place_seed(d)

    def test_random_points_reproduced_isometrically(self):
        rng = make_rng(9)
        for _ in range(20):
            pts = rng.standard_normal((4, 3))
            d = np.linalg.norm(pts[:, None] - pts[None, :], axis=-1)
            if cayley_menger(d ** 2) / max(d.max(), 1e-9) ** 6 < 1e-6:
                continue
            p = place_seed(d)
            got = np.linalg.norm(p[:, None] - p[None, :], axis=-1)
            assert np.max(np.abs(got - d)) < 1e-9
            assert p[3, 2] > 0 and p[2, 1] > 0


class TestMultilaterate:
    def test_algebraic_example(self):
        anchors = [(0, 0, 0), (1, 0, 0), (0, 1, 0), (0, 0, 1)]
        dists = [np.sqrt(3), np.sqrt(2), np.sqrt(2), np.sqrt(2)]
        assert multilaterate(anchors, dists) == pytest.approx((1, 1, 1))

    def test_coplanar_anchors_rejected(self):
        anchors = [(0, 0, 0), (1, 0, 0), (0, 1, 0), (1, 1, 0)]
        with pytest.raises(DegenerateAnchorsError):
            multilaterate(anchors, [0.5, 0.5, 0.5, 0.5])

    def test_round_trip_five_anchors(self):
        rng = make_rng(10)
        for _ in range(25):
            anchors = rng.standard_normal((5, 3))
            hidden = rng.standard_normal(3)
            dists = np.linalg.norm(anchors - hidden, axis=1)
            assert np.linalg.norm(multilaterate(anchors, dists) - hidden) < 1e-9

    def test_inconsistent_distances(self):
        anchors = np.array([(0, 0, 0), (1, 0, 0), (0, 1, 0), (0, 0, 1)], float)
        with pytest.raises(InconsistentDistancesError):
            multilaterate(anchors, [3.0, 2.9, 2.9, 0.1])

    @pytest.mark.parametrize("d", [2, 3])
    def test_stacked_residual_norm_matches_each_candidate(self, d):
        # solve_spheres tests both mirror candidates in one norm over a
        # stack; each row of it is the norm of that candidate alone
        rng = make_rng(40 + d)
        for _ in range(50):
            a = rng.uniform(-240, 240, (rng.integers(d, 9), d))
            xs = list(rng.uniform(-240, 240, (2, d)))
            both = np.linalg.norm(a - np.array(xs)[:, None], axis=-1)
            for x, row in zip(xs, both):
                assert row.tobytes() == \
                    np.linalg.norm(a - x, axis=1).tobytes()

    def test_sphere_pair_candidates(self):
        sol = solve_spheres(np.array([[0.0, 0], [2, 0]]),
                            np.array([np.sqrt(2), np.sqrt(2)]))
        assert sorted(tuple(np.round(s, 9)) for s in sol) == [(1, -1), (1, 1)]


class TestQuadrilaterate:
    def test_dense_instance_fully_localized(self):
        from hyperloc.evaluate import align_isometry
        inst = random_dense_instance(50, seed=0)
        assert 2.0 * inst.m / inst.n >= 10.0
        trace = quadrilaterate(strip_ground_truth(inst))
        assert trace.formation.localized_fraction() == 1.0
        assert align_isometry(trace.formation, inst).rmse < 1e-6

    def test_sparse_building_fails_or_partial(self):
        from hyperloc.model import flagship_building_config
        inst = generate_building(flagship_building_config())
        try:
            trace = quadrilaterate(strip_ground_truth(inst))
            assert trace.localized_count < inst.n
        except NoSeedError:
            pass

    def test_lone_tetrahedron(self):
        pts = [(0, 0, 0), (1, 0, 0), (0.5, np.sqrt(3) / 2, 0),
               (0.5, np.sqrt(3) / 6, np.sqrt(6) / 3)]
        trace = quadrilaterate(build_udg(pts, 1.0))
        assert trace.localized_count == 4
        assert all(a == () for _, _, a in trace.steps)

    def test_no_seed_error(self):
        inst = build_udg([(0, 0, 0), (0.5, 0, 0), (1.0, 0, 0)], 1.0)
        with pytest.raises(NoSeedError):
            quadrilaterate(inst)

    def test_distance_consistency_and_causality(self):
        inst = random_dense_instance(50, seed=1)
        trace = quadrilaterate(strip_ground_truth(inst))
        f = trace.formation
        for u, v, d in inst.edges:
            if f.is_localized(u) and f.is_localized(v):
                got = np.linalg.norm(f.position(u) - f.position(v))
                assert abs(got - d) < 1e-8
        placed = []
        for u, _, anchors in trace.steps:
            assert all(a in placed for a in anchors)
            placed.append(u)

    @pytest.mark.parametrize("make", [
        lambda: generate_building(flagship_building_config()),
        lambda: generate_building(ScenarioConfig.dense_building().building),
        *[lambda s=s: random_dense_instance(50, seed=s) for s in range(3)]],
        ids=["flagship", "dense-building", "dense-0", "dense-1", "dense-2"])
    def test_matches_reference_walk(self, make):
        inst = strip_ground_truth(make())
        trace = quadrilaterate(inst)
        want = reference_walk(inst)
        assert len(trace.steps) == len(want)
        for (u, pos, anchors), (u0, pos0, anchors0) in zip(trace.steps, want):
            assert type(u) is int and u == u0
            assert all(type(a) is int for a in anchors) and anchors == anchors0
            assert np.array_equal(pos, pos0)

    def test_termination_smoke_large_sparse(self):
        cfg = BuildingConfig(floors=3, floor_spacing=0.8, corridors_per_floor=4,
                             node_spacing=0.9, corridor_spacing=0.45,
                             extent=0.9 * 41, connector_columns=((18.0, 0.675),),
                             stagger=True)
        inst = generate_building(cfg)
        assert inst.n >= 500
        trace = quadrilaterate(strip_ground_truth(inst))
        assert 0 <= trace.localized_count <= inst.n
