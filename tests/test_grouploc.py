import hashlib
import json
import math
from collections import Counter
from dataclasses import replace
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hyperloc import evaluate, grouploc
from hyperloc.errors import (AmbiguousPlacementError, ChordInconsistencyError,
                             DegenerateSupportsError,
                             InconsistentDistancesError, InvalidInputError,
                             NonIsometricCorrespondenceError,
                             NotLocalizableError)
from hyperloc.grouploc import (NONEDGE_MARGIN, GroupTransform,
                               compute_group_transform, hierarchical_localize,
                               localize_collinear_group, localize_groups,
                               localize_path, localize_support_vertex,
                               verify_formation)
from hyperloc.intervals import Graph, LinearOrder, unit_interval_order
from hyperloc.model import (COLLINEAR, COPLANAR, DEFAULT_EPS, BuildingConfig,
                            GroupingFunction,
                            NetworkInstance, NodeRecord, PointFormation,
                            build_udg, flagship_building_config,
                            WindowIndex, generate_building, make_rng,
                            group_labels, network_to_json_dict,
                            strip_ground_truth, udg_edges)
from hyperloc.errors import HyperlocError
from hyperloc.quadloc import multilaterate

from graph_oracles import edge_list


def _distance_matrix(formation, ids):
    pts = formation.array(ids)
    return np.linalg.norm(pts[:, None, :] - pts[None, :, :], axis=-1)


class TestLocalizePath:
    def test_prefix_sums(self):
        f = localize_path(LinearOrder((0, 1, 2, 3)), [0.5, 0.7, 0.9])
        assert [float(f.position(u)[0]) for u in range(4)] == \
            pytest.approx([0.0, 0.5, 1.2, 2.1])

    def test_single_vertex(self):
        f = localize_path(LinearOrder((5,)), [])
        assert float(f.position(5)[0]) == 0.0

    def test_running_sum_bit_for_bit(self):
        weights = make_rng(18).uniform(0.01, 1.0, 400).tolist()
        seq = tuple(range(400, -1, -1))
        f = localize_path(LinearOrder(seq), weights)
        x = 0.0
        for i, u in enumerate(seq):
            if i > 0:
                x += weights[i - 1]
            assert f.position(u)[0] == x

    def test_collinear_deployment_up_to_1d_isometry(self):
        xs = np.array([0.0, 0.6, 1.1, 1.9])
        inst = build_udg(xs[:, None], 1.0)
        f = localize_collinear_group(inst, [0, 1, 2, 3])
        got = np.array([float(f.position(u)[0]) for u in range(4)])
        for cand in (got - got[0], got[::-1] - got[-1]):
            if np.allclose(np.abs(cand), xs, atol=1e-12):
                break
        else:
            pytest.fail(f"embedding {got} is not a 1D isometry of {xs}")


class TestLocalizeCollinearGroup:
    def test_generated_corridor_round_trip(self):
        cfg = BuildingConfig(floors=1, corridors_per_floor=1, node_spacing=0.9,
                             extent=4.5)
        inst = generate_building(cfg)
        f = localize_collinear_group(inst, list(range(inst.n)))
        assert f.localized_fraction() == 1.0

    def test_triangle_chord_consistent(self):
        inst = build_udg(np.array([0, 0.4, 0.8])[:, None], 1.0)
        f = localize_collinear_group(inst, [0, 1, 2])
        assert [float(f.position(u)[0]) for u in range(3)] == \
            pytest.approx([0.0, 0.4, 0.8])

    def test_chord_violation_detected(self):
        # bent triangle mislabeled as a collinear group: the path embeds
        # but the closing chord cannot match its measured length
        nodes = [NodeRecord(id=i) for i in range(3)]
        pts = np.array([(0, 0), (0.5, 0), (0.25, 0.4)])
        edges = udg_edges(np.column_stack([pts, np.zeros(3)]), 1.0)
        inst = NetworkInstance(nodes, edges, 1.0)
        with pytest.raises(ChordInconsistencyError) as exc:
            localize_collinear_group(inst, [0, 1, 2])
        assert exc.value.edge is not None


    def test_chord_check_matches_loop_reference(self):
        # noisy distances make some corridors fail the chord check; the
        # error names the first failing chord in edge_list(graph) order
        inst = generate_building(replace(flagship_building_config(),
                                         noise_sigma=1e-6))
        failures = 0
        for gid in sorted({nd.line_group for nd in inst.nodes}):
            members = [nd.id for nd in inst.nodes if nd.line_group == gid]
            graph = Graph.from_instance(inst, members)
            seq = unit_interval_order(graph).sequence
            f = localize_path(LinearOrder(seq), [inst.dist(a, b)
                                                 for a, b in zip(seq, seq[1:])])
            expected = None
            for u, v in edge_list(graph):
                got = abs(float(f.position(u)[0] - f.position(v)[0]))
                if abs(got - inst.dist(u, v)) > DEFAULT_EPS:
                    expected = (f"chord ({u},{v}) embeds at {got}, "
                                f"measured {inst.dist(u, v)}", (u, v))
                    break
            if expected is None:
                localize_collinear_group(inst, members)
                continue
            failures += 1
            with pytest.raises(ChordInconsistencyError) as exc:
                localize_collinear_group(inst, members)
            assert (str(exc.value), exc.value.edge) == expected
        assert failures


class TestLocalizeSupportVertex:
    def test_circle_intersection_pair(self):
        cands = localize_support_vertex([(0, 0), (2, 0)],
                                        [np.sqrt(2), np.sqrt(2)], d=2)
        assert sorted(tuple(np.round(c, 9)) for c in cands) == \
            [(1.0, -1.0), (1.0, 1.0)]

    def test_disjoint_circles(self):
        with pytest.raises(InconsistentDistancesError):
            localize_support_vertex([(0, 0), (2, 0)], [0.5, 0.5], d=2)

    def test_hidden_point_in_pair_3d(self):
        rng = make_rng(12)
        for _ in range(20):
            anchors = rng.standard_normal((3, 3))
            hidden = rng.standard_normal(3)
            dists = np.linalg.norm(anchors - hidden, axis=1)
            cands = localize_support_vertex(anchors, dists, d=3)
            assert any(np.linalg.norm(c - hidden) < 1e-8 for c in cands)

    def test_unique_with_spanning_anchors_matches_multilaterate(self):
        rng = make_rng(13)
        anchors = rng.standard_normal((4, 3))
        hidden = rng.standard_normal(3)
        dists = np.linalg.norm(anchors - hidden, axis=1)
        cands = localize_support_vertex(anchors, dists, d=3)
        assert len(cands) == 1
        assert np.allclose(cands[0], multilaterate(anchors, dists), atol=1e-9)


def _norm_group_transform(local, ambient, eps=DEFAULT_EPS):
    """``compute_group_transform`` with its lengths by ``np.linalg.norm``
    and its maxima by ``np.max``, as it was first written: the linear part
    and the translation, or the exception it raises."""
    loc = np.atleast_2d(np.asarray(local, dtype=float))
    amb = np.atleast_2d(np.asarray(ambient, dtype=float))
    d = amb.shape[1]
    scale = max(1.0, float(np.abs(amb).max()), float(np.abs(loc).max()))
    tol = max(eps, eps * scale)
    dl = np.linalg.norm(loc[:, None, :] - loc[None, :, :], axis=-1)
    da = np.linalg.norm(amb[:, None, :] - amb[None, :, :], axis=-1)
    if np.max(np.abs(dl - da)) > tol:
        raise NonIsometricCorrespondenceError(
            "pairwise local and ambient distances disagree")
    lmat = (loc[1:] - loc[0]).T
    s = np.linalg.svd(lmat, compute_uv=False)
    if s[-1] <= 1e-9 * max(s[0], 1.0):
        raise DegenerateSupportsError(
            "local support points are affinely dependent")
    u, _, vt = np.linalg.svd((amb[1:] - amb[0]).T @ np.linalg.inv(lmat),
                             full_matrices=False)
    q = u @ vt
    if np.max(np.abs(q.T @ q - np.eye(d - 1))) > 1e-8:
        raise InvalidInputError("transform columns are not orthonormal")
    t = amb[0] - q @ loc[0]
    mapped = (loc[:, None, :] @ q.T)[:, 0, :] + t
    if np.max(np.linalg.norm(mapped - amb, axis=1)) > tol:
        raise NonIsometricCorrespondenceError(
            "no distance-preserving map fits the correspondence")
    return q, t


def _fit_inputs(d, rng):
    """Seeded ``(kind, local, ambient)`` fits in R^d: isometric, mirrored,
    perturbed, scaled, affinely dependent and non-finite."""
    def embed(local):
        q, _ = np.linalg.qr(rng.standard_normal((d, d)))
        return np.column_stack([local, np.zeros(d)]) @ q.T \
            + rng.uniform(-240, 240, d)
    for _ in range(20):
        local = rng.uniform(-3, 3, (d, d - 1))
        yield "isometric", local, embed(local)
        flip = np.ones(d - 1)
        flip[0] = -1.0
        yield "mirrored", local * flip, embed(local)
        for size in (1e-12, 1e-9, 1e-6, 1e-3):
            yield "perturbed", local, embed(local) + rng.uniform(
                -size, size, (d, d))
        for scale in (1e-6, 1e-3, 1e3, 1e6):
            yield "scaled", local * scale, embed(local * scale)
        flat = local.copy()
        flat[-1] = flat[0] + 0.5 * (flat[1] - flat[0]) if d == 3 else flat[0]
        yield "dependent", flat, embed(flat)
        for bad in (math.nan, math.inf, -math.inf):
            ambient = embed(local)
            ambient[rng.integers(d), rng.integers(d)] = bad
            yield "non-finite", local, ambient
            spoilt = local.copy()
            spoilt[rng.integers(d), rng.integers(d - 1)] = bad
            yield "non-finite", spoilt, embed(local)


def _fit_outcome(fit, local, ambient):
    try:
        q, t = fit(local, ambient)
    except Exception as exc:    # the type and message are compared
        return type(exc), str(exc)
    return q.dtype, q.shape, q.tobytes(), t.dtype, t.shape, t.tobytes()


class TestComputeGroupTransform:
    @pytest.mark.parametrize("d", [2, 3])
    def test_same_bits_and_errors_as_the_norm_version(self, d):
        def fit(local, ambient):
            t = compute_group_transform(local, ambient)
            return t.linear, t.translation
        seen = Counter()
        with np.errstate(invalid="ignore"):     # nan and inf inputs
            for kind, local, ambient in _fit_inputs(d, make_rng(40 + d)):
                got = _fit_outcome(fit, local, ambient)
                # the norm version fits NaN transforms or ends in NumPy's
                # LinAlgError on these; the fit rejects them
                want = (InvalidInputError, "support coordinates must be "
                        "finite") if kind == "non-finite" else \
                    _fit_outcome(_norm_group_transform, local, ambient)
                assert got == want
                seen[kind, got[0] if isinstance(got[0], type) else "fit"] += 1
        # every kind of input is fitted or rejected as it should be
        assert {("isometric", "fit"), ("mirrored", "fit"),
                ("perturbed", "fit"),
                ("perturbed", NonIsometricCorrespondenceError),
                ("scaled", "fit"), ("dependent", DegenerateSupportsError),
                ("non-finite", InvalidInputError)} <= seen.keys()

    def test_lengths_have_the_bits_of_np_linalg_norm(self):
        # the fit's outcome turns on these lengths' last bits near its
        # tolerance, so they are compared directly
        rng = make_rng(45)
        for d in (1, 2, 3):
            for scale in (1e-6, 1.0, 240.0, 1e6):
                x = rng.standard_normal((200, 3, d)) * scale
                x[0, 0, 0], x[1, 1, 0], x[2, 2, 0] = math.nan, math.inf, 0.0
                want = np.linalg.norm(x, axis=-1)
                got = grouploc._lengths(x)
                assert (got.dtype, got.shape, got.tobytes()) == \
                    (want.dtype, want.shape, want.tobytes())

    def test_orthonormality_check_as_with_np_max(self):
        rng, seen = make_rng(44), set()
        for size in (0.0, 1e-10, 1e-9, 1e-8, 1e-7, 1e-6, math.nan, math.inf):
            for d in (2, 3):
                q, _ = np.linalg.qr(rng.standard_normal((d, d)))
                q = q[:, :d - 1] + size * rng.uniform(-1, 1, (d, d - 1))
                with np.errstate(invalid="ignore"):
                    old = np.max(np.abs(q.T @ q - np.eye(d - 1))) > 1e-8
                    try:
                        GroupTransform(q, np.zeros(d))
                        rejected = False
                    except InvalidInputError:
                        rejected = True
                # NaN > 1e-8 is false, so the np.max test let a NaN q pass
                assert rejected == (old or not np.isfinite(size))
                seen.add(rejected)
        assert seen == {True, False}

    def test_non_finite_entries_are_a_package_error(self):
        # a NaN column, an inf column, a non-finite translation; supports
        # with a NaN or an inf in either point set
        msg = "^transform entries must be finite$"
        for linear, translation in (([[math.nan], [0.0]], [0.0, 0.0]),
                                    ([[math.inf], [0.0]], [0.0, 0.0]),
                                    ([[1.0], [0.0]], [0.0, math.nan]),
                                    ([[1.0], [0.0]], [-math.inf, 0.0])):
            with pytest.raises(InvalidInputError, match=msg):
                GroupTransform(np.array(linear), np.array(translation))
        local, ambient = np.array([[0.0], [1.0]]), np.array([[0.0, 0.0],
                                                             [0.6, 0.8]])
        for bad in (math.nan, math.inf, -math.inf):
            for which in (0, 1):
                pts = [local.copy(), ambient.copy()]
                pts[which][1, 0] = bad
                with np.errstate(invalid="ignore"), \
                        pytest.raises(InvalidInputError,
                                      match="^support coordinates must be "
                                            "finite$"):
                    compute_group_transform(*pts)

    def test_unit_direction_scaling(self):
        t = compute_group_transform(np.array([[0.0], [1.0]]),
                                    np.array([[0.0, 0], [0.6, 0.8]]))
        assert np.allclose(t.apply([[2.0]]), [[1.2, 1.6]])

    def test_identity_embedding(self):
        local = np.array([[0.0, 0], [1, 0], [0, 1]])
        ambient = np.column_stack([local, np.zeros(3)])
        t = compute_group_transform(local, ambient)
        assert np.allclose(t.linear, np.vstack([np.eye(2), np.zeros((1, 2))]),
                           atol=1e-12)
        assert np.allclose(t.translation, 0, atol=1e-12)

    def test_random_rigid_motion_round_trip(self):
        rng = make_rng(15)
        for _ in range(20):
            local = rng.standard_normal((3, 2))
            if abs(np.linalg.det(local[1:] - local[0])) < 1e-3:
                continue
            q, _ = np.linalg.qr(rng.standard_normal((3, 3)))
            t0 = rng.standard_normal(3)
            ambient = np.column_stack([local, np.zeros(3)]) @ q.T + t0
            t = compute_group_transform(local, ambient)
            assert np.max(np.linalg.norm(t.apply(local) - ambient, axis=1)) < 1e-9

    @pytest.mark.parametrize("d", [2, 3])
    def test_block_apply_matches_rows_bit_for_bit(self, d):
        rng = make_rng(17 + d)
        for _ in range(20):
            q, _ = np.linalg.qr(rng.standard_normal((d, d)))
            t = GroupTransform(linear=q[:, :d - 1],
                               translation=rng.uniform(-240, 240, d))
            pts = rng.uniform(-240, 240, (500, d - 1))
            block = t.apply(pts)
            rows = np.array([np.atleast_2d(p) @ t.linear.T + t.translation
                             for p in pts])[:, 0, :]
            assert block.tobytes() == rows.tobytes()
            assert block.tobytes() == \
                np.array([t.apply(p)[0] for p in pts]).tobytes()

    def test_isometry_preserved_on_samples(self):
        rng = make_rng(16)
        local = np.array([[0.0, 0], [1, 0], [0, 1]])
        q, _ = np.linalg.qr(rng.standard_normal((3, 3)))
        ambient = np.column_stack([local, np.zeros(3)]) @ q.T
        t = compute_group_transform(local, ambient)
        pts = rng.standard_normal((10, 2))
        mapped = t.apply(pts)
        dl = np.linalg.norm(pts[:, None] - pts[None, :], axis=-1)
        da = np.linalg.norm(mapped[:, None] - mapped[None, :], axis=-1)
        assert np.max(np.abs(dl - da)) < 1e-9


def two_parallel_corridors():
    """Two staggered corridors 0.45 apart; every node of the second has two
    anchors in the first."""
    pts, labels = [], {}
    for k in range(5):
        labels[len(pts)] = 1
        pts.append((0.9 * k, 0.0))
    for k in range(5):
        labels[len(pts)] = 2
        pts.append((0.45 + 0.9 * k, 0.45))
    nodes = [NodeRecord(id=i) for i in range(len(pts))]
    edges = udg_edges(np.column_stack([np.array(pts), np.zeros(len(pts))]), 1.0)
    inst = NetworkInstance(nodes, edges, 1.0)
    grouping = GroupingFunction(labels)
    local = {}
    for g in (1, 2):
        f = PointFormation(1, grouping.members(g))
        for u in grouping.members(g):
            f.mark(u, (pts[u][0],))
        local[g] = f
    return inst, grouping, local, np.array(pts)


def _reference_check_placement(solver, g, transform):
    """The O(localized) placement check: stack every localized point and run
    one udg_edges over the group's points plus all of them."""
    ids, pts = [], []
    for u in solver.grouping.members(g):
        row = solver.local[g].position(u) \
            if solver.local[g].is_localized(u) else None
        if row is not None:
            ids.append(u)
            pts.append(transform.apply(row)[0])
    if not ids:
        return False
    pts = np.array(pts)
    f = solver.formation
    loc_ids = f.localized_ids()
    if not loc_ids:
        return True
    loc_pts = f.array(loc_ids)
    scale = max(1.0, float(np.abs(pts).max()), float(np.abs(loc_pts).max()))
    tol = max(solver.eps, 1e-9) * scale
    pairs = [(i, v) for i, u in enumerate(ids)
             for v in solver.inst.neighbors(u) if f.is_localized(v)]
    if pairs:
        rows, nbrs = zip(*pairs)
        got = np.linalg.norm(pts[list(rows)] - f.array(nbrs), axis=-1)
        want = [solver.inst.dist(ids[i], v) for i, v in pairs]
        if np.any(np.abs(got - want) > tol):
            return False
    k = len(ids)
    u, v, _ = udg_edges(np.vstack([pts, loc_pts]),
                        solver.inst.radius - NONEDGE_MARGIN, eps=0.0)
    for a, b in zip(u.tolist(), v.tolist()):
        if a < k <= b and not solver.inst.has_edge(ids[a], loc_ids[b - k]):
            return False
    return True


def _bench_building(offset):
    """The benchmark's 3 x 4 building, stairwell `offset` grid steps from
    the middle."""
    cfg = BuildingConfig(floors=3, floor_spacing=0.8, corridors_per_floor=4,
                         node_spacing=0.9, corridor_spacing=0.45,
                         extent=266 * 0.9, stagger=True)
    x = round((133 + offset) * 0.9, 12)
    return generate_building(replace(cfg, connector_columns=((x, 0.675),)))


def _relabelled(inst, line=100, plane=10):
    """The same network with every line label times ``line`` and every
    plane label times ``plane``."""
    nodes = [replace(nd, line_group=nd.line_group * line,
                     plane_group=nd.plane_group * plane) for nd in inst.nodes]
    return NetworkInstance(nodes, inst.edge_arrays(), inst.radius)


def single_cross_edge():
    """Two corridors with exactly one cross pair within range: (0, 6)."""
    pts = [(0.0, 0.0), (0.9, 0.0), (1.8, 0.0),
           (0.45, 0.95), (1.35, 0.95), (2.25, 0.95), (0.0, 0.95)]
    nodes = [NodeRecord(id=i) for i in range(len(pts))]
    edges = udg_edges(np.column_stack([np.array(pts), np.zeros(7)]), 1.0)
    inst = NetworkInstance(nodes, edges, 1.0)
    grouping = GroupingFunction({i: (1 if i < 3 else 2) for i in range(7)})
    local = {}
    for g in (1, 2):
        f = PointFormation(1, grouping.members(g))
        for u in grouping.members(g):
            f.mark(u, (pts[u][0],))
        local[g] = f
    return inst, grouping, local


class TestPlacementCheckReference:
    @pytest.fixture
    def verdicts(self, monkeypatch):
        """Every placement the solver evaluates, with both verdicts."""
        seen = []
        fast = grouploc._GroupSolver._check_placement

        def both(solver, g, transform, *rows):
            got = fast(solver, g, transform, *rows)
            seen.append((got, _reference_check_placement(solver, g,
                                                         transform)))
            return got

        monkeypatch.setattr(grouploc._GroupSolver, "_check_placement", both)
        return seen

    @pytest.mark.parametrize("offset", [-40, 0, 40])
    def test_benchmark_building(self, verdicts, offset):
        hierarchical_localize(strip_ground_truth(_bench_building(offset)))
        assert verdicts and all(a == b for a, b in verdicts)
        assert {a for a, _ in verdicts} == {True, False}

    def test_flagship(self, verdicts):
        inst = generate_building(flagship_building_config())
        hierarchical_localize(strip_ground_truth(inst))
        assert verdicts and all(a == b for a, b in verdicts)

    def test_non_edge_beside_the_group_box(self):
        # group 2 has no measured edge to group 1, so only the non-edge test
        # can reject it; the offending node 2 lies 0.6 beside its box
        pts = [(0.0, 0.0), (0.9, 0.0), (1.8, 0.0), (10.0, 0.0), (10.0, 0.9)]
        nodes = [NodeRecord(id=i) for i in range(5)]
        edges = udg_edges(np.column_stack([np.array(pts), np.zeros(5)]), 1.0)
        inst = NetworkInstance(nodes, edges, 1.0)
        grouping = GroupingFunction({0: 1, 1: 1, 2: 1, 3: 2, 4: 2})
        local = {1: PointFormation(1, [0, 1, 2]), 2: PointFormation(1, [3, 4])}
        local[1].mark_many([0, 1, 2], [(0.0,), (0.9,), (1.8,)])
        local[2].mark_many([3, 4], [(0.0,), (0.9,)])
        solver = grouploc._GroupSolver(inst, grouping, local, 2, DEFAULT_EPS,
                                       seed_group=1)
        solver._apply_transform(1, GroupTransform(
            linear=np.eye(2, 1), translation=np.zeros(2)), supports=[])
        vertical = np.array([[0.0], [1.0]])
        for shift, ok in (((2.4, -0.45), False), ((2.9, -0.45), True),
                          ((10.0, 0.0), True)):
            t = GroupTransform(linear=vertical, translation=np.array(shift))
            assert solver._check_placement(2, t) is ok
            assert _reference_check_placement(solver, 2, t) is ok

    @pytest.mark.parametrize("edge", [True, False])
    def test_pair_at_exactly_reach(self, edge):
        # node 3 lands exactly the reach from node 0, left of group 1: an
        # edge there is measured and passes, a non-edge there fails
        reach = 1.0 - NONEDGE_MARGIN
        nodes = [NodeRecord(id=i) for i in range(5)]
        edges = [(0, 1, 0.9), (1, 2, 0.9), (3, 4, 0.9)]
        inst = NetworkInstance(nodes, edges + [(0, 3, reach)] * edge, 1.0)
        grouping = GroupingFunction({0: 1, 1: 1, 2: 1, 3: 2, 4: 2})
        local = {1: PointFormation(1, [0, 1, 2]), 2: PointFormation(1, [3, 4])}
        local[1].mark_many([0, 1, 2], [(0.0,), (0.9,), (1.8,)])
        local[2].mark_many([3, 4], [(0.0,), (0.9,)])
        solver = grouploc._GroupSolver(inst, grouping, local, 2, DEFAULT_EPS,
                                       seed_group=1)
        solver._apply_transform(1, GroupTransform(
            linear=np.eye(2, 1), translation=np.zeros(2)), supports=[])
        t = GroupTransform(linear=np.array([[0.0], [1.0]]),
                           translation=np.array([-reach, 0.0]))
        assert np.linalg.norm(t.apply([[0.0]])[0]) == reach
        assert solver._check_placement(2, t, [0, 1]) is edge
        assert _reference_check_placement(solver, 2, t) is edge

    @pytest.mark.parametrize("shuffled", [False, True])
    @pytest.mark.parametrize("config", [
        # a tall building: the localized floors stack past three cells on z
        BuildingConfig(floors=12, corridors_per_floor=4, extent=27.0,
                       connector_columns=((13.5, 0.0),)),
        # a 32-corridor floor: the localized corridors span 14 across
        BuildingConfig(corridors_per_floor=32, extent=27.0)],
        ids=["tall", "wide"])
    def test_shapes_that_cut_strips(self, verdicts, monkeypatch, config,
                                    shuffled):
        """Where the index over the localized points cuts strips, with ids
        as generated and shuffled."""
        inst = generate_building(config)
        if shuffled:
            inst = _renumbered(inst, make_rng(5).permutation(inst.n))
        cut = []
        strip_of = WindowIndex._strip_of

        def spy_strip_of(index, points):
            cut.append(len(points))
            return strip_of(index, points)

        monkeypatch.setattr(WindowIndex, "_strip_of", spy_strip_of)
        hierarchical_localize(strip_ground_truth(inst))
        assert cut and verdicts and all(a == b for a, b in verdicts)

    def test_small_fixtures(self, verdicts):
        inst, grouping, local, _ = two_parallel_corridors()
        localize_groups(inst, grouping, local, d=2)
        inst, grouping, local = single_cross_edge()
        with pytest.raises(NotLocalizableError):
            localize_groups(inst, grouping, local, d=2)
        assert verdicts and all(a == b for a, b in verdicts)


def corridor_beside_a_spanned_floor(left=True):
    """Seed corridor 2 along y = 0; corridor 3 beside its right end,
    anchored only on it; with ``left``, corridor 1 beside its left end."""
    rows = [(2, 0.0, [0.9 * k for k in range(11)]), (3, 0.45, [7.65, 8.55])]
    if left:
        rows.append((1, 0.45, [0.45, 1.35]))
    pts, labels = [], {}
    for label, y, xs in rows:
        for x in xs:
            labels[len(pts)] = label
            pts.append((x, y))
    grouping = GroupingFunction(labels)
    local = {}
    for g in grouping.groups:
        members = grouping.members(g)
        local[g] = PointFormation(1, members)
        local[g].mark_many(members, [(pts[u][0],) for u in members])
    return build_udg(pts, 1.0), grouping, local


class TestLocalizeGroups:
    def test_mirror_after_the_plane_is_spanned_is_ambiguous(self):
        # corridor 1 is placed first, so the localized set spans the plane;
        # both mirrors of corridor 3 across the seed line then survive
        inst, grouping, local = corridor_beside_a_spanned_floor()
        with pytest.raises(AmbiguousPlacementError) as exc:
            localize_groups(inst, grouping, local, d=2)
        assert exc.value.code == "ambiguous-placement"
        assert exc.value.group == 3

    def test_mirror_on_a_line_is_a_free_choice(self):
        inst, grouping, local = corridor_beside_a_spanned_floor(left=False)
        formation, states = localize_groups(inst, grouping, local, d=2)
        assert states[3].status == "localized"
        # the first mirror combination: the positive side of the seed line
        assert np.all(formation.array(grouping.members(3))[:, 1] > 0)

    def test_two_parallel_corridors(self):
        inst, grouping, local, pts = two_parallel_corridors()
        formation, states = localize_groups(inst, grouping, local, d=2)
        assert all(st.status == "localized" for st in states.values())
        assert verify_formation(inst, formation) < 1e-9

    def test_single_group_trivial(self):
        inst, grouping, local, _ = two_parallel_corridors()
        sub = GroupingFunction({u: 1 for u in grouping.members(1)})
        formation, states = localize_groups(inst, sub, {1: local[1]}, d=2)
        assert states[1].status == "localized"
        assert formation.localized_fraction() == 1.0

    def test_single_cross_edge_not_localizable(self):
        inst, grouping, local = single_cross_edge()
        cross = [(u, v) for u, v, _ in inst.edges if (u < 3) != (v < 3)]
        assert len(cross) == 1
        with pytest.raises(NotLocalizableError) as exc:
            localize_groups(inst, grouping, local, d=2)
        assert exc.value.group == 2     # the seed: group 2 is the larger

    def test_grouping_node_outside_the_instance_is_invalid_input(self):
        inst = build_udg([(0, 0), (0.5, 0), (1, 0), (0, 0.5), (0.5, 0.5)],
                         1.0)
        for node in (7, -1):
            grouping = GroupingFunction({0: 1, 1: 1, 2: 2, 3: 2, node: 2})
            with pytest.raises(InvalidInputError, match=f"node {node},"):
                localize_groups(inst, grouping, {}, d=2)


class TestPlacementWork:
    def test_checks_and_non_edge_queries_on_the_bench_building(
            self, monkeypatch):
        """A search stops at its first survivor while the mirror is free,
        a mirror whose supports land on localized nodes is rejected before
        the full non-edge query (19 checks and 16 queries before), and the
        reflection gauge costs no rank test while only the seed is placed
        or once the localized nodes span the space."""
        net = strip_ground_truth(_bench_building(0))
        checks, queries, ranks = [], [], []
        check = grouploc._GroupSolver._check_placement
        query = WindowIndex.pairs
        rank = np.linalg.matrix_rank

        def counted_check(solver, *args):
            checks.append(solver.d)
            return check(solver, *args)

        def counted_query(index, pos=None):
            queries.append(len(pos))
            return query(index, pos)

        monkeypatch.setattr(grouploc._GroupSolver, "_check_placement",
                            counted_check)
        def counted_rank(*args, **kwargs):
            ranks.append(args)
            return rank(*args, **kwargs)

        monkeypatch.setattr(WindowIndex, "pairs", counted_query)
        monkeypatch.setattr(np.linalg, "matrix_rank", counted_rank)
        hierarchical_localize(net)
        # a full query asks with every point of a group (266 or more), a
        # support query with the d support rows; 3 checks fail the residual
        # test before either
        full = sum(k > 3 for k in queries)
        assert (checks.count(2), checks.count(3), full) == (12, 3, 11)
        assert len(queries) - full == 12
        # 14 support independence tests and 4 gauge tests
        assert len(ranks) == 18

    @pytest.mark.parametrize("offset", [-40, 0, 40])
    def test_traced_counts_on_the_bench_building(self, monkeypatch, offset):
        """The counts that the benchmark's traced run reports, taken by
        wrapping the three names it wraps in this module: 25 support
        solves, 27 transform fits of which 12 raise, and 11 groups placed,
        3 on each floor and 2 floors."""
        calls, raised, placed = Counter(), Counter(), []

        def counted(name, fn):
            def wrapper(*args, **kwargs):
                calls[name] += 1
                try:
                    return fn(*args, **kwargs)
                except Exception:
                    raised[name] += 1
                    raise
            return wrapper

        for name in ("localize_support_vertex", "compute_group_transform"):
            monkeypatch.setattr(grouploc, name,
                                counted(name, getattr(grouploc, name)))
        place = grouploc.localize_groups

        def counted_place(*args, **kwargs):
            formation, states = place(*args, **kwargs)
            placed.append(sum(st.status == "localized"
                              for st in states.values()) - 1)
            return formation, states

        monkeypatch.setattr(grouploc, "localize_groups", counted_place)
        hierarchical_localize(strip_ground_truth(_bench_building(offset)))
        assert (calls["localize_support_vertex"],
                calls["compute_group_transform"],
                raised["compute_group_transform"], sum(placed)) == \
            (25, 27, 12, 11)
        assert placed == [3, 3, 3, 2]

    def test_one_adjacency_pass_per_level(self, monkeypatch):
        """Stage 1's Graph.within reads every node's row once, and each
        localize_groups call (three floors at d = 2, the building at d = 3)
        reads its scope's rows in one pass: 5 reads, not 1 + one per group."""
        net = strip_ground_truth(_bench_building(0))
        rows, levels = [], []
        entries, place = Graph.row_entries, grouploc.localize_groups

        def counted_entries(graph, r):
            rows.append(len(r))
            return entries(graph, r)

        def counted_place(instance, grouping, local, d, **kwargs):
            levels.append(d)
            return place(instance, grouping, local, d, **kwargs)

        monkeypatch.setattr(Graph, "row_entries", counted_entries)
        monkeypatch.setattr(grouploc, "localize_groups", counted_place)
        hierarchical_localize(net)
        floors = np.bincount(group_labels(net, COPLANAR))[1:].tolist()
        assert levels == [2, 2, 2, 3]
        assert rows == [net.n, *floors, net.n] and len(floors) == 3


def _reference_group_arrays(inst, grouping, local, d):
    """The per-group set-up that the one pass replaced: each group's own
    rows of the adjacency, np.isin for its local rows, and a formation row
    search for each far end; with the formation it starts from."""
    formation = PointFormation(d, ids=grouping.assignment)
    count = len(grouping.assignment)
    nodes = np.fromiter(grouping.assignment, np.intp, count)
    labels = np.array(grouping.groups, dtype=np.int64)
    group_at = np.full(inst.n, -1, dtype=np.intp)
    group_at[nodes] = labels.searchsorted(
        np.fromiter(grouping.assignment.values(), np.int64, count))
    arrays = {}
    for g in grouping.groups:
        members = np.array(grouping.members(g), dtype=int)
        f = local.get(g)
        has_row = np.zeros(len(members), dtype=bool) if f is None else \
            np.isin(members, f.ids[f.mask])
        ids = members[has_row]
        index = np.where(has_row, np.cumsum(has_row) - 1, -1)
        owner, to, slots = inst.graph.row_entries(members)
        at = group_at[to]
        keep = (at >= 0) & (at != labels.searchsorted(g))
        owner, to, slots, at = owner[keep], to[keep], slots[keep], at[keep]
        arrays[g] = grouploc._GroupArrays(
            ids=ids,
            local=f.array(ids) if len(ids) else np.zeros((0, d - 1)),
            starts=np.searchsorted(owner, np.arange(len(members) + 1)),
            near=index[owner], far=formation.rows_of(to),
            far_group=labels[at], length=inst.length[slots])
    return formation, arrays


@st.composite
def _group_levels(draw):
    """A small building, ids as generated or shuffled, one grouping level
    (d = 2: one floor's corridors; d = 3: the floors) and local formations
    that may be whole, leave rows unlocalized, miss members, hold ids of
    other groups or outside the instance, or be absent (the seed's too)."""
    cfg = BuildingConfig(
        floors=draw(st.integers(1, 3)),
        corridors_per_floor=draw(st.integers(1, 3)),
        node_spacing=draw(st.sampled_from((0.45, 0.9))),
        extent=draw(st.sampled_from((0.9, 2.7, 4.5))),
        stagger=draw(st.booleans()),
        connector_columns=draw(st.sampled_from(((), ((1.8, 0.45),)))))
    inst = generate_building(cfg)
    if draw(st.booleans()):
        inst = _renumbered(inst, np.array(draw(st.permutations(
            range(inst.n)))))
    d = draw(st.sampled_from((2, 3)))
    line, plane = group_labels(inst, COLLINEAR), group_labels(inst, COPLANAR)
    if d == 2:
        floor = draw(st.sampled_from(np.unique(plane).tolist()))
        grouping = GroupingFunction({u: int(line[u]) for u in
                                     np.flatnonzero(plane == floor).tolist()})
    else:
        grouping = GroupingFunction(dict(enumerate(plane.tolist())))
    rng = make_rng(draw(st.integers(0, 2**16)))
    local = {}
    for g in grouping.groups:
        members = grouping.members(g)
        how = draw(st.sampled_from(("none", "whole", "partial", "missing",
                                    "foreign")))
        if how == "none":
            continue
        ids = members
        if how == "missing":
            ids = [u for u in members if rng.random() < 0.6]
        elif how == "foreign":
            mine = set(members)
            others = [u for u in range(inst.n) if u not in mine]
            ids = members + rng.permutation(others)[:3].tolist() + \
                [-2, inst.n + 3]
        f = PointFormation(d - 1, ids)
        marked = [u for u in f.ids.tolist()
                  if how != "partial" or rng.random() < 0.6]
        f.mark_many(marked, rng.normal(size=(len(marked), d - 1)))
        local[g] = f
    return inst, grouping, local, d


class TestGroupArrays:
    @settings(max_examples=80, deadline=None, database=None,
              derandomize=True)
    @given(level=_group_levels())
    def test_one_pass_matches_the_per_group_builder(self, level):
        inst, grouping, local, d = level
        solver = grouploc._GroupSolver(inst, grouping, local, d,
                                       DEFAULT_EPS, None)
        formation, arrays = _reference_group_arrays(inst, grouping, local, d)
        for field in ("ids", "points", "mask"):
            got, want = (getattr(f, field) for f in (solver.formation,
                                                     formation))
            assert (got.dtype, got.shape, got.tobytes()) == \
                (want.dtype, want.shape, want.tobytes())
        assert list(solver.arrays) == list(arrays)
        for g, want in arrays.items():
            for field in vars(want):
                got, ref = getattr(solver.arrays[g], field), getattr(want,
                                                                     field)
                assert (got.dtype, got.shape, got.tobytes()) == \
                    (ref.dtype, ref.shape, ref.tobytes()), (g, field)
        sizes = {g: len(grouping.members(g)) for g in grouping.groups}
        assert solver.seed == min(sizes, key=lambda g: (-sizes[g], g))

def _result_digest(results):
    """SHA-256 over the exact bits of hierarchical results: the formation,
    pos1, pos2, line states, and each floor's status, support ids and
    transform."""
    h = hashlib.sha256()
    for res in results:
        f = res.formation
        h.update(f.ids.astype(np.int64).tobytes())
        h.update(f.points.tobytes())
        h.update(f.mask.tobytes())
        for pos in (res.pos1, res.pos2):
            keys = sorted(pos)
            h.update(np.array(keys, dtype=np.int64).tobytes())
            h.update(np.array([pos[u] for u in keys], dtype=float).tobytes())
        h.update(repr(sorted(res.line_states.items())).encode())
        for g, st in sorted(res.floor_states.items()):
            h.update(repr((g, st.status,
                           [u for u, _ in st.support_vertices])).encode())
            if st.transform is not None:
                h.update(st.transform.linear.tobytes())
                h.update(st.transform.translation.tobytes())
    return h.hexdigest()


class TestStageDicts:
    """``pos1`` and ``pos2`` are made from stages 1 and 2 on first read:
    the dicts an eager build makes from the formations those stages hand
    on, keys in the same order, values of the same types and bits."""

    @staticmethod
    def _eager(net, monkeypatch):
        lines, floors = {}, []
        place = grouploc.localize_groups

        def spy(instance, grouping, local, d, **kwargs):
            formation, states = place(instance, grouping, local, d, **kwargs)
            if d == 2:
                lines.update(local)
                floors.append(formation)
            return formation, states

        monkeypatch.setattr(grouploc, "localize_groups", spy)
        res = hierarchical_localize(net)
        pos1 = {u: x for g in sorted(lines) for u, x in zip(
            lines[g].ids.tolist(), lines[g].points[:, 0].tolist())}
        pos2 = {u: tuple(p) for f in floors for u, p in zip(
            f.ids[f.mask].tolist(), f.points[f.mask].tolist())}
        return res, pos1, pos2

    @pytest.mark.parametrize("name", ["flagship", "bench"])
    def test_equal_to_the_eager_dicts(self, name, monkeypatch):
        inst = (generate_building(flagship_building_config())
                if name == "flagship" else _bench_building(0))
        res, pos1, pos2 = self._eager(strip_ground_truth(inst), monkeypatch)
        assert "pos1" not in vars(res) and "pos2" not in vars(res)
        for got, want in ((res.pos1, pos1), (res.pos2, pos2)):
            assert type(got) is dict and len(got) == len(want) == inst.n
            # repr gives each float's exact bits, and the key order
            assert repr(list(got.items())) == repr(list(want.items()))
        assert {type(u) for u in (*res.pos1, *res.pos2)} == {int}
        assert {type(x) for x in res.pos1.values()} == {float}
        assert {type(p) for p in res.pos2.values()} == {tuple}
        assert {type(x) for p in res.pos2.values() for x in p} == {float}
        assert {len(p) for p in res.pos2.values()} == {2}
        assert res.pos1 is res.pos1 and res.pos2 is res.pos2


class TestPinnedOutputs:
    # Exact bits on this platform's NumPy/LAPACK; a platform whose LAPACK
    # rounds differently may need a re-pin.
    PINNED = "4efd94a1782446c430282392b5d68fa1c301917cdb6bbc62acca77360afe32fd"

    def test_flagship_and_bench_building(self):
        insts = [generate_building(flagship_building_config())]
        insts += [_bench_building(offset) for offset in (-40, 0, 40)]
        results = [hierarchical_localize(strip_ground_truth(inst))
                   for inst in insts]
        assert _result_digest(results) == self.PINNED


class TestPinnedNetworkBytes:
    """The bytes of ``json.dumps(network_to_json_dict(x), indent=1)``, as
    ``save_network`` writes them, of generated and stripped buildings."""

    PINNED = {
        "flagship": (
            "c476f718fe77a6da22d4b65e929e1543ac40d84858dadf4b6639d4202eb03a2a",
            "37cc12c3c478913990c9380ad48cf4b1343a0cb66e08031b8aa6d5e6de7e474d"),
        "bench": (
            "e7298f5216de17a5e3b526ce776bc26548233e7450f37ecf55a02490361ea8f1",
            "3d313d3887805d4c3a1cd124c3c73d305887c6b8800c6b500df3af842cfe47b0"),
    }

    @staticmethod
    def _digest(inst):
        text = json.dumps(network_to_json_dict(inst), indent=1)
        return hashlib.sha256(text.encode()).hexdigest()

    @pytest.mark.parametrize("name", sorted(PINNED))
    def test_generated_and_stripped(self, name):
        inst = (generate_building(flagship_building_config())
                if name == "flagship" else _bench_building(0))
        if name == "bench":
            assert (inst.n, inst.m) == (3201, 11782)
        for x, want in zip((inst, strip_ground_truth(inst)),
                           self.PINNED[name]):
            assert self._digest(x) == want
            # the same network built from its records and edge arrays
            again = NetworkInstance(x.nodes, x.edge_arrays(), x.radius)
            assert self._digest(again) == want
            for level in (COLLINEAR, COPLANAR):
                assert np.array_equal(group_labels(again, level),
                                      group_labels(x, level))


def _crossing_floor_stage2():
    """Stage 2 alone on a crossing-grid floor: the seed corridor, one placed
    beside it, and the two anchor-starved cross corridors left unplaced."""
    cfg = BuildingConfig(floors=1, corridors_per_floor=(2, 2),
                         node_spacing=0.9, corridor_spacing=0.45, extent=4.5)
    inst = strip_ground_truth(generate_building(cfg))
    lines = GroupingFunction.from_instance(inst, COLLINEAR)
    local = {g: localize_collinear_group(inst, lines.members(g))
             for g in lines.groups}
    formation, states = localize_groups(inst, lines, local, d=2)
    return formation, states, lines


class TestPlanesAndSupports:
    @pytest.fixture(params=["stage3-flagship", "stage2-crossing-floor"])
    def placed(self, request):
        """(formation, states, grouping, seed label, d) of one placement."""
        if request.param == "stage2-crossing-floor":
            return (*_crossing_floor_stage2(), 1, 2)
        inst = strip_ground_truth(generate_building(flagship_building_config()))
        res = hierarchical_localize(inst)
        planes = GroupingFunction.from_instance(inst, COPLANAR)
        return res.formation, res.floor_states, planes, 1, 3

    def test_plane_holds_every_member(self, placed):
        formation, states, grouping, _, _ = placed
        scale = max(1.0, float(np.abs(formation.points).max()))
        for g, st in states.items():
            if st.status != "localized":
                continue
            plane = st.plane
            assert plane is not None
            pts = formation.array(grouping.members(g))
            assert np.all(np.abs(pts @ np.array(plane.normal) - plane.offset)
                          <= 1e-9 * scale)

    def test_unplaced_group_has_no_plane(self):
        _, states, _ = _crossing_floor_stage2()
        unplaced = [g for g, st in states.items() if st.status != "localized"]
        assert unplaced == [3, 4]
        for g in unplaced:
            assert states[g].plane is None and states[g].transform is None

    def test_seed_plane_is_the_last_axis(self, placed):
        _, states, _, seed, d = placed
        plane = states[seed].plane
        assert plane.normal == tuple(np.eye(d)[-1]) and plane.offset == 0.0
        assert states[seed].support_vertices == []

    def test_supports_independent_and_placed(self, placed):
        formation, states, _, seed, d = placed
        others = [st for g, st in states.items()
                  if g != seed and st.status == "localized"]
        assert others
        for st in others:
            assert len(st.support_vertices) == d
            ids = [u for u, _ in st.support_vertices]
            pts = np.array([p for _, p in st.support_vertices])
            assert np.array_equal(pts, formation.array(ids))
            assert np.linalg.matrix_rank(pts[1:] - pts[0]) == d - 1


class TestHierarchical:
    def test_flagship_full_localization_where_quad_fails(self):
        from hyperloc.evaluate import align_isometry
        from hyperloc.quadloc import quadrilaterate
        inst = generate_building(flagship_building_config())
        stripped = strip_ground_truth(inst)
        res = hierarchical_localize(stripped)
        assert res.localized_fraction() == 1.0
        assert align_isometry(res.formation, inst).rmse < 1e-6
        assert verify_formation(inst, res.formation) < 1e-9
        trace = quadrilaterate(stripped)
        assert trace.localized_count < inst.n

    def test_off_grid_stairwell_on_long_building(self):
        # coordinates reach 240 here, so the placement check's edge
        # tolerance has to scale with them, as compute_group_transform's does
        cfg = BuildingConfig(floors=3, floor_spacing=0.8, corridors_per_floor=4,
                             node_spacing=0.9, corridor_spacing=0.45,
                             extent=266 * 0.9,
                             connector_columns=((154.633, 0.799),))
        inst = generate_building(cfg)
        res = hierarchical_localize(strip_ground_truth(inst))
        assert res.localized_fraction() == 1.0
        assert verify_formation(inst, res.formation) < 1e-8

    def test_single_floor_single_corridor(self):
        cfg = BuildingConfig(floors=1, corridors_per_floor=1, node_spacing=0.9,
                             extent=4.5)
        inst = generate_building(cfg)
        res = hierarchical_localize(strip_ground_truth(inst))
        assert res.localized_fraction() == 1.0
        # canonical embedding of the chain: all nodes on one axis
        pts = res.formation.array(res.formation.localized_ids())
        assert np.allclose(pts[:, 1:], 0.0, atol=1e-9)

    def test_pos1_pos2_filled(self):
        inst = generate_building(flagship_building_config())
        res = hierarchical_localize(strip_ground_truth(inst))
        assert set(res.pos1) == {nd.id for nd in inst.nodes}
        assert set(res.pos2) == {nd.id for nd in inst.nodes}
        assert res.formation.localized_ids() == list(range(inst.n))

    def test_underconnected_floor_stays_unlocalized(self):
        # third floor linked by only two support columns worth of anchors:
        # no stairwell densification, so no node on an upper floor ever has
        # three non-collinear anchors below
        cfg = BuildingConfig(floors=3, floor_spacing=0.8, corridors_per_floor=4,
                             node_spacing=0.9, corridor_spacing=0.45,
                             extent=4.5, connector_columns=())
        inst = generate_building(cfg)
        for net, seed in ((inst, 1), (_relabelled(inst), 10)):
            with pytest.raises(NotLocalizableError) as exc:
                hierarchical_localize(strip_ground_truth(net))
            assert (exc.value.stage, exc.value.group) == ("building", seed)

    def test_crossing_grid_partial_without_error(self):
        # y-parallel corridors of a crossing grid are anchor-starved; they
        # must stay unlocalized rather than abort the run
        cfg = BuildingConfig(floors=1, corridors_per_floor=(2, 2),
                             node_spacing=0.9, corridor_spacing=0.45,
                             extent=4.5)
        inst = generate_building(cfg)
        inst.validate_exact()
        res = hierarchical_localize(strip_ground_truth(inst))
        assert 0.0 < res.localized_fraction() < 1.0
        assert verify_formation(inst, res.formation) < 1e-9

    def test_seed_floor_invariance_distance_matrix(self):
        cfg = BuildingConfig(floors=2, floor_spacing=0.8, corridors_per_floor=3,
                             node_spacing=0.9, corridor_spacing=0.45,
                             extent=4.5, connector_columns=((2.7, 0.45),))
        inst = generate_building(cfg)
        stripped = strip_ground_truth(inst)
        r1 = hierarchical_localize(stripped, seed_floor=1)
        r2 = hierarchical_localize(stripped, seed_floor=2)
        ids = list(range(inst.n))
        assert r1.formation.localized_ids() == ids
        assert r2.formation.localized_ids() == ids
        d1 = _distance_matrix(r1.formation, ids)
        d2 = _distance_matrix(r2.formation, ids)
        assert np.max(np.abs(d1 - d2)) < 1e-9

    def test_groups_keyed_by_their_labels(self):
        inst = strip_ground_truth(_bench_building(0))
        base = hierarchical_localize(inst)
        res = hierarchical_localize(_relabelled(inst))
        for f in ("ids", "points", "mask"):
            assert np.array_equal(getattr(res.formation, f),
                                  getattr(base.formation, f))
        assert res.pos1 == base.pos1 and res.pos2 == base.pos2
        assert res.line_states == {100 * g: st
                                   for g, st in base.line_states.items()}
        assert list(res.floor_states) == [10, 20, 30]
        for g, st in res.floor_states.items():
            old = base.floor_states[g // 10]
            assert st.group == g and st.status == old.status
            assert [u for u, _ in st.support_vertices] == \
                [u for u, _ in old.support_vertices]
            assert np.array_equal(st.transform.linear, old.transform.linear)

    def test_seed_floor_is_a_label(self):
        cfg = BuildingConfig(floors=2, floor_spacing=0.8, corridors_per_floor=3,
                             node_spacing=0.9, corridor_spacing=0.45,
                             extent=4.5, connector_columns=((2.7, 0.45),))
        inst = strip_ground_truth(generate_building(cfg))
        base = hierarchical_localize(inst, seed_floor=2)
        res = hierarchical_localize(_relabelled(inst), seed_floor=20)
        assert np.array_equal(res.formation.points, base.formation.points)
        assert res.floor_states[20].support_vertices == []
        with pytest.raises(InvalidInputError, match="unknown seed group 2$"):
            hierarchical_localize(_relabelled(inst), seed_floor=2)

    def test_rejects_a_line_label_shared_by_two_floors(self):
        # corridors numbered 1..3 on each floor once merged across floors
        # and failed as no-hamiltonian-path
        cfg = BuildingConfig(floors=2, floor_spacing=0.8, corridors_per_floor=3,
                             node_spacing=0.9, corridor_spacing=0.45,
                             extent=4.5, connector_columns=((2.7, 0.45),))
        inst = strip_ground_truth(generate_building(cfg))
        first = {}
        for nd in inst.nodes:
            first.setdefault(nd.plane_group, nd.line_group)
        nodes = [replace(nd, line_group=nd.line_group
                         - first[nd.plane_group] + 1) for nd in inst.nodes]
        assert {nd.line_group for nd in nodes} == {1, 2, 3}
        net = NetworkInstance(nodes, inst.edge_arrays(), inst.radius)
        with pytest.raises(InvalidInputError,
                           match=r"line label 1 is on floors \[1, 2\]") as exc:
            hierarchical_localize(net)
        assert exc.value.payload()["stage"] == "collinear"
        assert exc.value.payload()["group"] == 1

    def test_floor_error_names_the_corridor_label(self):
        # sigma = 1e-2 breaks stage 2 on floor 1 at corridor 2
        inst = generate_building(replace(flagship_building_config(),
                                         noise_sigma=1e-2))
        for net, corridor in ((inst, 2), (_relabelled(inst), 200)):
            with pytest.raises(InconsistentDistancesError) as exc:
                hierarchical_localize(strip_ground_truth(net), eps=5e-2)
            assert exc.value.payload()["stage"] == "floor"
            assert exc.value.payload()["group"] == corridor


def _reference_verify_formation(instance, formation):
    """The per-edge loop that the array form replaced."""
    worst = 0.0
    for u, v, d in instance.edges:
        if formation.is_localized(u) and formation.is_localized(v):
            got = float(np.linalg.norm(formation.position(u)
                                       - formation.position(v)))
            worst = max(worst, abs(got - d))
    return worst


class TestVerifyFormation:
    def test_matches_per_edge_reference(self):
        for seed in range(60):
            rng = make_rng(seed)
            n = int(rng.integers(2, 50))
            inst = build_udg(rng.uniform(0, 3, (n, 3)), 1.0, noise_sigma=0.01,
                             rng=make_rng(seed))
            dim = int(rng.integers(1, 4))
            # ids beyond the instance and unlocalized rows are skipped
            f = PointFormation(dim, range(n + 3))
            for u in np.flatnonzero(rng.random(n + 3) < 0.7).tolist():
                f.mark(u, rng.uniform(-5, 5, dim) * 10 ** rng.uniform(-3, 3))
            assert verify_formation(inst, f) == \
                _reference_verify_formation(inst, f)

    def test_nothing_localized(self):
        inst = build_udg([(0, 0), (0.5, 0)], 1.0)
        assert verify_formation(inst, PointFormation(2, [0, 1])) == 0.0


# ---------------------------------------------------------------------------
# stage 1: the whole-building pass against the per-corridor entry point
# ---------------------------------------------------------------------------

def _renumbered(inst, perm, edges=None):
    """``inst``, with ``edges`` (arrays) if given, and node ``perm[i]``
    renumbered ``i``."""
    new = np.argsort(perm)
    u, v, d = inst.edge_arrays() if edges is None else edges
    nodes = [replace(inst.nodes[p], id=i) for i, p in enumerate(perm.tolist())]
    return NetworkInstance(nodes, (new[u], new[v], d), inst.radius)


def _outcome(error, pos1=None, formations=None):
    """What stage 1 gave, to the bit: the error's class, code, message,
    stage, group and edge; or ``pos1`` in order and each corridor
    formation's ids, points and mask."""
    if error is not None:
        return ("error", type(error).__name__, error.code, str(error),
                error.stage, error.group, getattr(error, "edge", None))
    return ("ok", repr(list(pos1.items())),
            [(g, f.dim, f.ids.tolist(), f.points.tobytes(), f.mask.tobytes())
             for g, f in formations.items()])


def _stage1(inst, eps=DEFAULT_EPS):
    """``hierarchical_localize`` with stages 2 and 3 stubbed out: its
    ``pos1`` and the corridor formations it hands to stage 2."""
    fed = {}

    def stub(instance, grouping, local, d, eps=DEFAULT_EPS, seed_group=None):
        if d == 2:
            fed.update(local)
        return PointFormation(d, grouping.assignment), {}

    with mock.patch.object(grouploc, "localize_groups", stub):
        try:
            pos1 = hierarchical_localize(inst, eps=eps).pos1
        except HyperlocError as exc:
            return _outcome(exc)
    return _outcome(None, pos1, dict(sorted(fed.items())))


def _reference_stage1(inst, eps=DEFAULT_EPS):
    """The per-corridor loop: ``localize_collinear_group`` on each line
    label in turn, the first error named as the driver names it."""
    lines = GroupingFunction.from_instance(inst, COLLINEAR)
    formations = {}
    for g in lines.groups:
        try:
            formations[g] = localize_collinear_group(inst, lines.members(g),
                                                     eps)
        except HyperlocError as exc:
            exc.stage, exc.group = "collinear", g
            return _outcome(exc)
    pos1 = {u: x for f in formations.values()
            for u, x in zip(f.ids.tolist(), f.points[:, 0].tolist())}
    return _outcome(None, pos1, formations)


@st.composite
def _relabelled_buildings(draw, spacings=(0.3, 0.45, 0.9)):
    """A small building, ``perm`` for ``_renumbered`` that keeps, reverses
    or shuffles each corridor's ids among themselves, and whether any was
    shuffled. A kept or reversed corridor passes the index-order pass; a
    shuffled one mostly takes the sweeps, and may fail on twins swapped
    against their geometric order."""
    cfg = BuildingConfig(
        floors=draw(st.integers(1, 2)),
        corridors_per_floor=draw(st.integers(1, 3)),
        node_spacing=draw(st.sampled_from(spacings)),
        extent=draw(st.sampled_from((0.9, 2.7, 4.5))),
        stagger=draw(st.booleans()),
        connector_columns=draw(st.sampled_from(((), ((1.8, 0.45),)))))
    inst = generate_building(cfg)
    line = np.array([nd.line_group for nd in inst.nodes])
    perm, shuffled = np.arange(inst.n), False
    for g in np.unique(line).tolist():
        members = np.flatnonzero(line == g)
        how = draw(st.sampled_from(("keep", "reverse", "shuffle")))
        if how == "reverse":
            perm[members] = members[::-1]
        elif how == "shuffle":
            perm[members] = draw(st.permutations(members.tolist()))
            shuffled = True
    return inst, perm, shuffled


class TestStageOnePass:
    @settings(max_examples=80, deadline=None, database=None,
              derandomize=True)
    @given(drawn=_relabelled_buildings())
    def test_matches_the_per_corridor_loop(self, drawn):
        inst, perm, shuffled = drawn
        net = strip_ground_truth(_renumbered(inst, perm))
        got = _stage1(net)
        assert got == _reference_stage1(net)
        assert shuffled or got[0] == "ok"

    @settings(max_examples=80, deadline=None, database=None,
              derandomize=True)
    @given(drawn=_relabelled_buildings(spacings=(0.3, 0.45)), data=st.data())
    def test_first_failing_corridor_raises_as_the_loop_does(self, drawn,
                                                             data):
        # corrupt a chord of corridor k and cut a later corridor j in two
        inst, perm, _ = drawn
        line = np.array([nd.line_group for nd in inst.nodes])
        labels = np.unique(line).tolist()
        k = data.draw(st.sampled_from(labels))
        j = data.draw(st.sampled_from([g for g in labels if g > k] or [k]))
        x = inst.positions()[:, 0]
        u, v, d = (a.copy() for a in inst.edge_arrays())
        lo, hi = np.minimum(x[u], x[v]), np.maximum(x[u], x[v])
        inner = (line[u] == line[v])
        between = [np.any((line == k) & (x > a) & (x < b))
                   for a, b in zip(lo.tolist(), hi.tolist())]
        chords = np.flatnonzero(inner & (line[u] == k) & between)
        if chords.size:
            d[chords[data.draw(st.integers(0, chords.size - 1))]] -= 0.05
        xs = np.sort(x[line == j])
        cut = (xs[len(xs) // 2 - 1] + xs[len(xs) // 2]) / 2
        keep = ~(inner & (line[u] == j) & (lo < cut) & (cut < hi))
        net = strip_ground_truth(_renumbered(
            inst, perm, (u[keep], v[keep], d[keep])))
        got = _stage1(net)
        assert got == _reference_stage1(net)
        if chords.size or not keep.all():
            assert got[0] == "error" and got[4] == "collinear"


class TestStageOneFallback:
    """On the bench building, stage 1 runs no sweep and builds one induced
    graph of every corridor; a corridor whose ids are shuffled alone goes
    through ``localize_collinear_group``, which builds its graph once."""

    @pytest.fixture
    def calls(self, monkeypatch):
        seen = {"within": [], "unit_interval_order": 0, "fallback": []}
        within = Graph.within
        order = grouploc.unit_interval_order
        one_group = grouploc.localize_collinear_group

        def spy_within(whole, ids, block):
            seen["within"].append(sorted(map(int, ids)))
            return within(whole, ids, block)

        def spy_order(graph):
            seen["unit_interval_order"] += 1
            return order(graph)

        def spy_one_group(instance, members, eps=DEFAULT_EPS):
            seen["fallback"].append(sorted(map(int, members)))
            return one_group(instance, members, eps)

        monkeypatch.setattr(Graph, "within", staticmethod(spy_within))
        monkeypatch.setattr(grouploc, "unit_interval_order", spy_order)
        monkeypatch.setattr(grouploc, "localize_collinear_group",
                            spy_one_group)
        return seen

    @pytest.fixture(scope="class")
    def bench(self):
        return generate_building(evaluate._bench_building(3201, 0))

    def test_ids_in_position_order_take_no_sweep(self, bench, calls):
        res = hierarchical_localize(strip_ground_truth(bench))
        assert calls == {"within": [list(range(bench.n))],
                         "unit_interval_order": 0, "fallback": []}
        assert res.localized_fraction() == 1.0

    def test_a_shuffled_corridor_alone_falls_back(self, bench, calls):
        line = np.array([nd.line_group for nd in bench.nodes])
        members = np.flatnonzero(line == 6)
        perm = np.arange(bench.n)
        perm[members] = make_rng(6).permutation(members)
        net = strip_ground_truth(_renumbered(bench, perm))
        res = hierarchical_localize(net)
        assert calls == {"within": [list(range(bench.n)), members.tolist()],
                         "unit_interval_order": 1,
                         "fallback": [members.tolist()]}
        assert res.localized_fraction() == 1.0
        assert _stage1(net) == _reference_stage1(net)
