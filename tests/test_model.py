import itertools
import json
import math
import re
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from hyperloc.errors import InvalidConfigError, InvalidInputError
from hyperloc.model import (DEFAULT_EPS, BuildingConfig, GroupingFunction,
                            Hyperplane, NetworkInstance, NodeRecord,
                            PointFormation, WindowIndex, axis_distances,
                            build_udg,
                            flagship_building_config, generate_building,
                            group_labels, make_rng, network_from_json_dict,
                            network_to_json_dict, strip_ground_truth,
                            udg_edges)
from hyperloc import model
from hyperloc.model import (_MIN_NODE_SEP, _STAIR_OFFSETS, _STAIR_REACH,
                            _stacked_edges, _with_noise)


def _all_pairs(pos, radius, eps):
    """Dense all-pairs reference for udg_edges."""
    n = len(pos)
    if n < 2:
        return []
    d = np.linalg.norm(pos[:, None, :] - pos[None, :, :], axis=-1)
    return [(u, v, float(d[u, v])) for u in range(n) for v in range(u + 1, n)
            if d[u, v] <= radius + eps]


# Half-unit grid coordinates give coincident points, ties on every axis and
# pairs at exactly radius and at exactly radius + eps; free floats fill in.
_coord = st.one_of(st.integers(-6, 6).map(lambda k: k * 0.5),
                   st.floats(-3.0, 3.0, allow_nan=False))


@st.composite
def _points(draw):
    dim = draw(st.sampled_from((1, 2, 3)))
    rows = draw(st.lists(st.tuples(*[_coord] * dim), max_size=40))
    return np.array(rows, dtype=float).reshape(len(rows), dim)


def _lines(xs, ys, step=0.3, top=10.0):
    """Points ``step`` apart on [0, top] along vertical lines at ``xs`` and
    horizontal lines at ``ys``, stacked as the hardness gadget stacks its
    nodes: many cells on both axes, dozens of points per coordinate."""
    t = np.arange(0.0, top + step / 2, step)
    return np.array([(x, y) for x in xs for y in t]
                    + [(x, y) for y in ys for x in t])


def _layers(p, gap=1.0):
    """``p`` at z = 0 and again at z = ``gap``."""
    return np.column_stack([np.tile(p, (2, 1)), np.repeat([0.0, gap], len(p))])


def _lattice(*sizes):
    """Integer points of a box: neighbours exactly 1 apart, each a few ulps
    inside a strip boundary of a query within 1."""
    return np.array(list(itertools.product(*map(range, sizes))), dtype=float)


_GADGET_LIKE = _lines([0.0, 2.5, 5.0, 7.5], [4.5, 6.5])


class TestUdgEdges:
    @settings(max_examples=300, deadline=None, database=None,
              derandomize=True)
    @given(pos=_points(), radius=st.sampled_from((0.5, 1.0, 1.5)),
           eps=st.sampled_from((0.0, 1e-9, 0.5)))
    # n = 0 and n = 1; coincident points; eleven points tied on the sweep
    # axis with a pair at exactly radius; a pair at exactly radius + eps
    @example(pos=np.zeros((0, 3)), radius=1.0, eps=1e-9)
    @example(pos=np.zeros((1, 2)), radius=1.0, eps=1e-9)
    @example(pos=np.zeros((5, 3)), radius=1.0, eps=0.0)
    @example(pos=np.array([[0.1 * i, 0.0] for i in range(11)] + [[0.0, 5.0]]),
             radius=1.0, eps=0.0)
    @example(pos=np.array([[0.0, 0.0, 0.0], [1.5, 0.0, 0.0], [0.0, 0.5, 1.5]]),
             radius=1.0, eps=0.5)
    # 200 points on one vertical line, as in the gadget: their candidates
    # span many chunks; the same pair at radius + eps offset by 1e6; a pair
    # whose rounded gap is the radius although the rounded window end
    # (-1.0584... + 1.0) falls short of it
    @example(pos=np.array([[0.0, 0.01 * i] for i in range(200)]
                          + [[-3.0, 0.0], [3.0, 0.0]]), radius=1.0, eps=1e-9)
    @example(pos=np.array([[1e6, 1e6], [1e6 + 1.5, 1e6]]), radius=1.0, eps=0.5)
    @example(pos=np.array([[-1.0584364135603508], [-0.058436413560350765]]),
             radius=1.0, eps=0.0)
    # strips: the gadget's vertical and horizontal lines in 2D, and lifted
    # to two z-layers exactly the radius apart; lattices whose neighbours
    # sit exactly radius + eps apart across strip boundaries, on one strip
    # axis and on two; the lines offset by 1e6
    @example(pos=_GADGET_LIKE, radius=1.0, eps=1e-9)
    @example(pos=_layers(_GADGET_LIKE), radius=1.0, eps=0.0)
    @example(pos=_lattice(7, 5), radius=0.5, eps=0.5)
    @example(pos=_lattice(7, 5, 5), radius=1.0, eps=0.0)
    @example(pos=np.vstack([_lattice(7, 5, 5), _lattice(7, 5, 5) * 1.0000001
                            + 0.5]), radius=1.0, eps=1e-9)
    @example(pos=_GADGET_LIKE + 1e6, radius=1.0, eps=1e-9)
    def test_matches_all_pairs_reference(self, pos, radius, eps):
        u, v, d = udg_edges(pos, radius, eps)
        assert list(zip(u.tolist(), v.tolist(), d.tolist())) == \
            _all_pairs(pos, radius, eps)

    @pytest.mark.parametrize("corridors", [4, (4, 4)])
    def test_tall_building_matches_reference(self, corridors):
        # eight floors: z spans more than three cells, and with corridors
        # along y so does y
        pos = generate_building(BuildingConfig(
            floors=8, corridors_per_floor=corridors, extent=9.0,
            connector_columns=((4.5, 0.675),))).positions()
        u, v, d = udg_edges(pos, 1.0)
        assert list(zip(u.tolist(), v.tolist(), d.tolist())) == \
            _all_pairs(pos, 1.0, DEFAULT_EPS)


def _all_cross_pairs(a, b, radius, eps):
    """Dense all-pairs reference for the pairs of ``a`` and ``b``."""
    d = np.linalg.norm(a[:, None, :] - b[None, :, :], axis=-1)
    return [(i, j, float(d[i, j])) for i in range(len(a))
            for j in range(len(b)) if d[i, j] <= radius + eps]


@st.composite
def _point_pairs(draw):
    dim = draw(st.sampled_from((1, 2, 3)))
    sets = [draw(st.lists(st.tuples(*[_coord] * dim), min_size=1,
                          max_size=25))
            for _ in range(2)]
    return tuple(np.array(rows, dtype=float).reshape(len(rows), dim)
                 for rows in sets)


class TestCrossPairs:
    @settings(max_examples=300, deadline=None, database=None,
              derandomize=True)
    @given(ab=_point_pairs(), radius=st.sampled_from((0.5, 1.0, 1.5)),
           eps=st.sampled_from((0.0, 1e-9, 0.5)))
    # coincident points across the sets; ties on the sweep axis with a pair
    # at exactly radius; a pair at exactly radius + eps
    @example(ab=(np.zeros((3, 3)), np.zeros((2, 3))), radius=1.0, eps=0.0)
    @example(ab=(np.array([[0.5 * i, 0.0] for i in range(6)]),
                 np.array([[0.5 * i, 1.0] for i in range(6)] + [[0.0, 5.0]])),
             radius=1.0, eps=0.0)
    @example(ab=(np.array([[0.0, 0.0, 0.0]]),
                 np.array([[1.5, 0.0, 0.0], [0.0, 0.5, 1.5]])),
             radius=1.0, eps=0.5)
    # two vertical lines of 100 and 120 points on one sweep coordinate: many
    # chunks; a pair at radius + eps offset by 1e6; a pair whose rounded gap
    # is the radius although the rounded window start (0.5699... - 1.0)
    # lies above it; b outside every window of a
    @example(ab=(np.array([[0.0, 0.02 * i] for i in range(100)]),
                 np.array([[0.0, 0.015 * i + 0.001] for i in range(120)]
                          + [[-3.0, 0.0], [3.0, 0.0]])),
             radius=1.0, eps=1e-9)
    @example(ab=(np.array([[1e6, 1e6]]), np.array([[1e6 + 1.5, 1e6]])),
             radius=1.0, eps=0.5)
    @example(ab=(np.array([[0.5699835785823403]]),
                 np.array([[-0.43001642141765983]])), radius=1.0, eps=0.0)
    @example(ab=(np.array([[0.0, 0.0], [1.0, 1.0], [2.0, 0.5]]),
                 np.array([[-5.0, 0.0], [9.0, 1.0], [6.0, 3.0]])),
             radius=1.5, eps=0.5)
    # strips: two sets of gadget lines; query points in the set's edge
    # strips, one strip outside them and far outside them, each at exactly
    # radius + eps from the set; the same at a 1e6 offset; two z-layers
    # exactly the radius apart
    @example(ab=(_lines([0.0, 2.5], [4.5]), _lines([1.25, 3.75], [5.5])),
             radius=1.0, eps=1e-9)
    @example(ab=(np.array([[3.0, y] for y in (-9.0, -1.0, 0.0, 4.0, 5.0,
                                              12.0)]), _lattice(7, 5)),
             radius=0.5, eps=0.5)
    @example(ab=(np.array([[3.0, y] for y in (-9.0, -1.0, 0.0, 4.0, 5.0,
                                              12.0)]) + 1e6,
                 _lattice(7, 5) + 1e6), radius=0.5, eps=0.5)
    @example(ab=(np.column_stack([_lattice(7, 5), np.zeros(35)]),
                 np.column_stack([_lattice(7, 5), np.ones(35)])),
             radius=1.0, eps=0.0)
    def test_matches_all_pairs_reference(self, ab, radius, eps):
        a, b = ab
        i, j, d = WindowIndex(b, radius + eps).pairs(a)
        keep = np.lexsort((j, i))
        assert list(zip(i[keep].tolist(), j[keep].tolist(),
                        d[keep].tolist())) == \
            _all_cross_pairs(a, b, radius, eps)


@st.composite
def _stacked_clouds(draw):
    """A cloud and one to three query clouds on a quarter-unit grid, in up
    to 12 layers a unit apart on z, at a drawn offset: pairs at exactly
    radius 1 on every axis, and once the layers stack past three cells the
    windows outgrow a chunk and the index cuts strips."""
    layers = draw(st.integers(1, 12))
    offset = draw(st.sampled_from((0.0, 0.1, 1e6)))
    cell = st.tuples(st.integers(0, 16), st.integers(0, 4),
                     st.integers(0, layers - 1))

    def cloud():
        rows = draw(st.lists(cell, min_size=1, max_size=80))
        return np.array(rows, dtype=float) * (0.25, 0.25, 1.0) + offset

    return cloud(), [cloud() for _ in range(draw(st.integers(1, 3)))]


class TestWindowIndex:
    @settings(max_examples=150, deadline=None, database=None,
              derandomize=True)
    @given(clouds=_stacked_clouds())
    # twelve full layers, queried with themselves and then with the top
    # layer: the first query cuts strips, the second reuses them
    @example(clouds=(_lattice(17, 5, 12) * (0.25, 0.25, 1.0),
                     [_lattice(17, 5, 12) * (0.25, 0.25, 1.0),
                      _lattice(17, 5, 1) * (0.25, 0.25, 1.0) + (0, 0, 11)]))
    def test_queries_of_one_index_match_cross_pairs(self, clouds):
        """One index queried in turn returns, per query, the pairs, order
        aside, and the distance bits of a fresh index over the same set."""
        b, queries = clouds
        index = WindowIndex(b, 1.0)
        for q in queries:
            i, j, d = index.pairs(q)
            keep = np.lexsort((j, i))
            got = list(zip(i[keep].tolist(), j[keep].tolist(),
                           d[keep].tolist()))
            i, j, d = WindowIndex(b, 1.0).pairs(q)
            keep = np.lexsort((j, i))
            assert got == list(zip(i[keep].tolist(), j[keep].tolist(),
                                   d[keep].tolist()))
            assert got == _all_cross_pairs(q, b, 1.0, 0.0)


# Every float: squares that overflow (|x| above about 1.34e154) or underflow
# (|x| below about 1.5e-162), subnormals, signed zeros, inf and NaN.
_any_coord = st.one_of(
    st.floats(width=64),
    st.floats(-3.0, 3.0),
    st.sampled_from((1e154, -1.4e154, 1e200, 1e-160, -2e-162, 5e-324, -0.0,
                     float("inf"), -float("inf"), float("nan"))))


@st.composite
def _gathers(draw):
    """Two point sets of one dim and a gather of row pairs from them."""
    dim = draw(st.sampled_from((1, 2, 3)))
    p, q = (np.array(draw(st.lists(st.tuples(*[_any_coord] * dim),
                                   min_size=1, max_size=12)),
                     dtype=float).reshape(-1, dim) for _ in range(2))
    size = draw(st.integers(0, 30))
    i, j = (np.array(draw(st.lists(st.integers(0, len(x) - 1),
                                   min_size=size, max_size=size)),
                     dtype=np.intp) for x in (p, q))
    return p, i, q, j


class TestAxisDistances:
    @settings(max_examples=400, deadline=None, database=None,
              derandomize=True)
    @given(case=_gathers())
    @example(case=(np.array([[1e154, -1e154, 1e154]]), np.zeros(1, np.intp),
                   np.array([[-1e154, 1e154, 0.0]]), np.zeros(1, np.intp)))
    @example(case=(np.array([[1e-160, 3e-161], [float("inf"), 0.0]]),
                   np.array([0, 1, 1], np.intp),
                   np.array([[0.0, 0.0], [float("inf"), float("nan")]]),
                   np.array([0, 0, 1], np.intp)))
    @example(case=(np.array([[0.1], [-0.0]]), np.array([0, 1], np.intp),
                   np.array([[0.3], [0.0]]), np.array([0, 1], np.intp)))
    def test_same_bits_as_the_norm_of_the_row_differences(self, case):
        """Rows as strided columns (the placement check's residual) and
        as contiguous ones (the kernel's index) give the norm's bits."""
        p, i, q, j = case
        with np.errstate(all="ignore"):
            want = np.linalg.norm(p[i] - q[j], axis=-1)
            for cols in (lambda x: x.T, lambda x: x.T.copy()):
                got = axis_distances(cols(p), i, cols(q), j)
                assert got.dtype == want.dtype and got.shape == want.shape
                assert got.tobytes() == want.tobytes()


class _DictFormation:
    """The dict-of-rows formation, as a reference for PointFormation."""

    def __init__(self, ids):
        self.status = {u: False for u in ids}
        self.rows = {}

    def mark(self, u, pos):
        self.rows[u] = np.asarray(pos, dtype=float)
        self.status[u] = True

    def localized_ids(self):
        return sorted(u for u, s in self.status.items() if s)


class TestPointFormation:
    def _agrees(self, f, ref):
        loc = ref.localized_ids()
        assert f.ids.tolist() == sorted(ref.status)
        assert f.localized_ids() == loc
        assert f.localized_fraction() == len(loc) / len(ref.status)
        for u in ref.status:
            assert f.is_localized(u) == ref.status[u]
            if ref.status[u]:
                assert f.position(u).tobytes() == ref.rows[u].tobytes()
            else:
                with pytest.raises(KeyError):
                    f.position(u)
        if loc:
            assert f.array(loc[::-1]).tobytes() == \
                np.array([ref.rows[u] for u in loc[::-1]]).tobytes()

    @settings(max_examples=100, deadline=None, database=None,
              derandomize=True)
    @given(dim=st.sampled_from((1, 2, 3)),
           ids=st.lists(st.integers(0, 30), unique=True, max_size=12),
           data=st.data())
    def test_matches_dict_reference(self, dim, ids, data):
        f, ref = PointFormation(dim, ids=ids), _DictFormation(ids)
        assert f.localized_fraction() == 0.0
        for _ in range(data.draw(st.integers(1, 6))):
            # ids given at construction and ids that were not
            batch = data.draw(st.lists(st.integers(0, 40), unique=True,
                                       min_size=1, max_size=5))
            pts = np.array(data.draw(st.lists(
                st.tuples(*[st.floats(-240, 240)] * dim),
                min_size=len(batch), max_size=len(batch))))
            if len(batch) == 1 and data.draw(st.booleans()):
                f.mark(batch[0], pts[0])
            else:
                f.mark_many(batch, pts)
            for u, p in zip(batch, pts):
                ref.mark(u, p)
            self._agrees(f, ref)

    def test_unlocalized_and_unknown_ids_raise_key_error(self):
        f = PointFormation(2, ids=[4, 2])
        f.mark(4, (1.0, 2.0))
        for u in (2, 7):
            with pytest.raises(KeyError):
                f.position(u)
            with pytest.raises(KeyError):
                f.array([4, u])
        assert not f.is_localized(7)

    def test_empty_formation(self):
        f = PointFormation(3)
        assert f.localized_fraction() == 0.0
        assert f.localized_ids() == [] and f.ids.tolist() == []

    @pytest.mark.parametrize("pos", [(np.nan, 0.0), (0.0, np.inf), (1.0,),
                                     (1.0, 2.0, 3.0), [[1.0, 2.0]]])
    def test_bad_positions_rejected(self, pos):
        f = PointFormation(2, ids=[0, 1])
        with pytest.raises(InvalidInputError):
            f.mark(0, pos)
        with pytest.raises(InvalidInputError):
            f.mark_many([0, 1], [pos, pos])
        assert f.localized_ids() == []

    def test_bulk_mark_shape_must_match_ids(self):
        f = PointFormation(1, ids=[0, 1, 2])
        with pytest.raises(InvalidInputError):
            f.mark_many([0, 1], [(0.0,), (1.0,), (2.0,)])
        with pytest.raises(InvalidInputError):
            f.mark_many([0, 1], [0.0, 1.0])


class TestBuildUdg:
    def test_three_points_one_edge(self):
        inst = build_udg([(0, 0), (0.5, 0), (2, 0)], 1.0)
        assert inst.edges == ((0, 1, 0.5),)

    def test_single_point(self):
        inst = build_udg([(0.3, 0.7)], 1.0)
        assert inst.edges == ()

    def test_matches_brute_force_all_pairs(self):
        rng = make_rng(11)
        pts = rng.uniform(0, 2, size=(20, 2))
        inst = build_udg(pts, 1.0)
        expected = set()
        for u in range(20):
            for v in range(u + 1, 20):
                d = float(np.hypot(*(pts[u] - pts[v])))
                if d <= 1.0:
                    expected.add((u, v, round(d, 12)))
        got = {(u, v, round(d, 12)) for u, v, d in inst.edges}
        assert got == expected

    def test_non_finite_rejected(self):
        with pytest.raises(InvalidInputError):
            build_udg([(0, 0), (np.nan, 1)], 1.0)

    def test_symmetry_of_lookups(self):
        inst = build_udg([(0, 0), (0.5, 0), (0.9, 0)], 1.0)
        for u, v, _ in inst.edges:
            assert inst.has_edge(u, v) and inst.has_edge(v, u)
            assert inst.dist(u, v) == inst.dist(v, u)

    def test_noise_changes_dists_not_edges(self):
        pts = [(0, 0), (0.5, 0), (0.9, 0)]
        exact = build_udg(pts, 1.0)
        noisy = build_udg(pts, 1.0, noise_sigma=0.05, rng=make_rng(1))
        assert [(u, v) for u, v, _ in noisy.edges] == \
               [(u, v) for u, v, _ in exact.edges]
        assert any(abs(a[2] - b[2]) > 1e-6
                   for a, b in zip(exact.edges, noisy.edges))


def reference_edges(n, edges, radius):
    """The per-edge constructor check the array check replaced: edges in
    input order, each checked for a self-loop, range, repetition and
    distance in turn; the first failure raises. Returns the sorted edges."""
    norm_edges = []
    seen = set()
    for u, v, d in edges:
        if u == v:
            raise InvalidInputError(f"self-loop at node {u}")
        if not (0 <= u < n and 0 <= v < n):
            raise InvalidInputError(f"edge ({u},{v}) out of range")
        if u > v:
            u, v = v, u
        if (u, v) in seen:
            raise InvalidInputError(f"duplicate edge ({u},{v})")
        if not (0.0 < d <= radius + DEFAULT_EPS):
            raise InvalidInputError(
                f"edge ({u},{v}) has dist {d!r} outside (0, radius]")
        seen.add((u, v))
        norm_edges.append((u, v, float(d)))
    return tuple(sorted(norm_edges))


def _outcome(build):
    try:
        return build()
    except InvalidInputError as exc:
        return ("error", str(exc))


_dists = st.one_of(
    st.sampled_from((0.0, -0.5, 0.5, 1.0, 1.0 + 1e-10, 1.0 + 1e-8, 1.5,
                     float("nan"), float("inf"), 1)),
    st.floats(-0.5, 1.5, allow_nan=False))


@st.composite
def _edge_lists(draw):
    n = draw(st.integers(0, 6))
    ends = st.integers(-2, n + 1)
    edges = draw(st.lists(st.tuples(ends, ends, _dists), max_size=12))
    return n, edges


def _lookup_dict(inst):
    adj = {u: set() for u in range(inst.n)}
    dist = {}
    for u, v, d in inst.edges:
        adj[u].add(v)
        adj[v].add(u)
        dist[(u, v)] = dist[(v, u)] = d
    return adj, dist


class TestNetworkInstance:
    # each row: the edges, then what the per-edge check says about them
    CRAFTED = [
        [(0, 0, 0.5)],
        [(0, 5, 0.5)],
        [(-1, 2, 0.5)],
        [(0, 1, 0.5), (1, 0, 0.5)],
        [(0, 1, 1.5)],
        [(1, 0, 0.0)],
        [(0, 1, float("nan"))],
        [(2, 1, 0.5), (3, 3, 0.1)],
        [(0, 1, 0.5), (2, 3, 2.0), (1, 0, 0.3)],
        [(3, 1, -1.0), (1, 1, 0.3)],
        [(0, 1, 2)],
        [(3, 2, 0.5), (0, 1, 1.0 + 1e-10), (2, 3, 0.1)],
        [(1, 2, 0.5), (0, 3, 0.5), (4, 0, 0.5)],
        [(2, 3, 0.9), (0, 1, 0.2), (1, 3, 1.0)],
    ]

    @pytest.mark.parametrize("edges", CRAFTED)
    def test_crafted_edges_match_per_edge_reference(self, edges):
        nodes = [NodeRecord(id=i) for i in range(4)]
        want = _outcome(lambda: reference_edges(4, edges, 1.0))
        got = _outcome(lambda: NetworkInstance(nodes, edges, 1.0).edges)
        assert got == want

    @settings(max_examples=400, deadline=None, database=None,
              derandomize=True)
    @given(case=_edge_lists())
    def test_drawn_edges_match_per_edge_reference(self, case):
        n, edges = case
        nodes = [NodeRecord(id=i) for i in range(n)]
        want = _outcome(lambda: reference_edges(n, edges, 1.0))
        assert _outcome(lambda: NetworkInstance(nodes, edges, 1.0).edges) \
            == want
        # the array form, with float distances, says the same
        floats = [(u, v, float(d)) for u, v, d in edges]
        arrays = tuple(np.array(x, dtype=dt) for x, dt in zip(
            zip(*floats) if floats else ((), (), ()), (int, int, float)))
        assert _outcome(lambda: NetworkInstance(nodes, arrays, 1.0).edges) \
            == _outcome(lambda: reference_edges(n, floats, 1.0))

    @settings(max_examples=100, deadline=None, database=None,
              derandomize=True)
    @given(cells=st.lists(st.tuples(st.integers(0, 7), st.integers(0, 7)),
                          unique=True, max_size=30))
    def test_lookups_agree_with_edge_dict(self, cells):
        inst = build_udg(0.35 * np.array(cells, dtype=float).reshape(-1, 2),
                         1.0)
        adj, dist = _lookup_dict(inst)
        for u in range(inst.n):
            assert inst.neighbors(u) == tuple(sorted(adj[u]))
            for v in range(inst.n):
                assert inst.has_edge(u, v) == (v in adj[u])
                if (u, v) in dist:
                    assert inst.dist(u, v) == dist[(u, v)]
                    assert inst.length[inst.graph.pair_slots(
                        [u], [v])].tolist() == [dist[(u, v)]]
                else:
                    with pytest.raises(KeyError):
                        inst.dist(u, v)
                    assert inst.graph.pair_slots([u], [v]).tolist() == [-1]
        # the instance rebuilt from its own arrays is the same instance
        again = NetworkInstance(inst.nodes, inst.edge_arrays(), inst.radius)
        assert again.edges == inst.edges
        assert np.array_equal(again.graph.start, inst.graph.start)
        assert np.array_equal(again.graph.nbr, inst.graph.nbr)
        assert np.array_equal(again.length, inst.length)

    def test_adjacency_is_read_only(self):
        inst = build_udg([(0, 0), (0.5, 0)], 1.0)
        for x in (inst.graph.start, inst.graph.nbr, inst.length):
            with pytest.raises(ValueError):
                x[0] = 0

    def test_adjacency_matches_lookups(self):
        inst = generate_building(flagship_building_config())
        start, nbr, length = inst.graph.start, inst.graph.nbr, inst.length
        for u in range(inst.n):
            row = slice(start[u], start[u + 1])
            assert nbr[row].tolist() == sorted(inst.neighbors(u))
            assert length[row].tolist() == \
                [inst.dist(u, v) for v in nbr[row].tolist()]
        u, v, d = inst.edge_arrays()
        assert inst.length[inst.graph.pair_slots(u, v)].tolist() == d.tolist()
        assert inst.length[inst.graph.pair_slots(v, u)].tolist() == d.tolist()
        with pytest.raises(KeyError):
            inst.dist(0, inst.n - 1)
        with pytest.raises(KeyError):
            inst.neighbors(inst.n)

    def test_rejects_duplicate_and_self_loop(self):
        nodes = [NodeRecord(id=0), NodeRecord(id=1)]
        with pytest.raises(InvalidInputError):
            NetworkInstance(nodes, [(0, 1, 0.5), (1, 0, 0.5)], 1.0)
        with pytest.raises(InvalidInputError):
            NetworkInstance(nodes, [(0, 0, 0.5)], 1.0)

    def test_rejects_dist_above_radius(self):
        nodes = [NodeRecord(id=0), NodeRecord(id=1)]
        with pytest.raises(InvalidInputError):
            NetworkInstance(nodes, [(0, 1, 1.5)], 1.0)

    def test_validate_exact_catches_wrong_dist(self):
        nodes = [NodeRecord(id=0, true_pos=(0, 0, 0)),
                 NodeRecord(id=1, true_pos=(0.5, 0, 0))]
        inst = NetworkInstance(nodes, [(0, 1, 0.4)], 1.0)
        with pytest.raises(InvalidInputError):
            inst.validate_exact()


def _error_of(build):
    """The class and message of the input error ``build`` raises, or
    None; any other exception fails the test."""
    try:
        build()
    except InvalidInputError as exc:
        return type(exc), str(exc)
    return None


@st.composite
def _ascending_with_one_defect(draw):
    """Edges ``u < v`` in ascending key order, as ``udg_edges`` gives them,
    with at most one defect kept in place: a self-loop, an end out of
    range, a copy right after its edge, or a distance outside (0, radius]
    (radius 1)."""
    n = draw(st.integers(2, 8))
    pairs = draw(st.lists(st.tuples(st.integers(0, n - 1),
                                    st.integers(0, n - 1))
                          .filter(lambda e: e[0] < e[1]),
                          min_size=1, max_size=16, unique=True))
    edges = [(u, v, draw(st.floats(0.01, 1.0))) for u, v in sorted(pairs)]
    kind = draw(st.sampled_from(("none", "loop", "range", "copy", "dist")))
    at = draw(st.integers(0, len(edges) - 1))
    u, v, d = edges[at]
    if kind == "loop":
        edges[at] = (u, u, d)
    elif kind == "range":
        edges[at] = (u, draw(st.sampled_from((n, n + 3))), d)
    elif kind == "copy":
        edges.insert(at + 1, (u, v, draw(st.floats(0.01, 1.0))))
    elif kind == "dist":
        edges[at] = (u, v, draw(st.sampled_from(
            (0.0, -0.5, 1.0 + 2 * DEFAULT_EPS, 1.5, float("nan")))))
    return n, edges, kind, draw(st.permutations(range(len(edges))))


class TestCheckedAdjacencyOrder:
    @settings(max_examples=300, deadline=None, database=None,
              derandomize=True)
    @given(case=_ascending_with_one_defect())
    def test_ascending_input_raises_as_shuffled_input_does(self, case):
        """Keys already ascending skip the duplicate test's sort: the
        instance, or the error class and message, is what the same edges
        give shuffled, and what the per-edge reference says."""
        n, edges, kind, perm = case
        nodes = [NodeRecord(id=i) for i in range(n)]

        def arrays(rows):
            return tuple(np.array(x, dtype=dt) for x, dt in
                         zip(zip(*rows), (np.intp, np.intp, float)))

        shuffled = [edges[k] for k in perm]
        want = _error_of(lambda: reference_edges(n, edges, 1.0))
        assert (want is None) == (kind == "none")
        for rows in (edges, shuffled):
            assert _error_of(lambda: NetworkInstance(nodes, arrays(rows),
                                                     1.0)) == want
            assert _error_of(lambda: NetworkInstance(nodes, rows, 1.0)) \
                == want
        if want is None:
            ascending = NetworkInstance(nodes, arrays(edges), 1.0)
            again = NetworkInstance(nodes, arrays(shuffled), 1.0)
            assert ascending.edges == again.edges == \
                reference_edges(n, edges, 1.0)

    # each row: triples with an integer u, then the error they raise; v is
    # an integer in the first two rows, a float in the rest
    MIXED = [
        ([(-1, 2, 0.5)], "edge (-1,2) out of range"),
        ([(0, 1, 0.5), (3, -2, 0.5)], "edge (3,-2) out of range"),
        ([(0, 1.5, 0.5)], "edge (0,1.5) out of range"),
        ([(0, -1.0, 0.5)], "edge (0,-1.0) out of range"),
        ([(2, 1.0, 0.5), (0, 2.5, 0.3)], "edge (0,2.5) out of range"),
        ([(0, 0.0, 0.5)], "self-loop at node 0"),
        ([(0, 1.0, 0.5), (1, 0.0, 0.5)], "duplicate edge (0.0,1)"),
        ([(1, 0.0, 0.5), (3, 2.0, 1.5)],
         "edge (2.0,3) has dist 1.5 outside (0, radius]"),
        ([(1, 0.0, 0.5), (3, 2.0, 0.5)], None),
    ]

    @pytest.mark.parametrize("edges, message", MIXED)
    def test_arrays_raise_as_their_triples_do(self, edges, message):
        """Only integer ``u`` and ``v`` arrays are checked as arrays; with a
        float ``v`` they are the triples they hold, quoted as given."""
        nodes = [NodeRecord(id=i) for i in range(4)]
        dtypes = (np.intp, type(edges[0][1]), float)
        arrays = tuple(np.array(x, dtype=dt) for x, dt in
                       zip(zip(*edges), dtypes))
        for given in (arrays, edges):
            assert _error_of(lambda: NetworkInstance(nodes, given, 1.0)) == \
                (None if message is None else (InvalidInputError, message))
        if message is None:
            assert NetworkInstance(nodes, arrays, 1.0).edges == \
                NetworkInstance(nodes, edges, 1.0).edges == \
                ((0, 1, 0.5), (2, 3, 0.5))


class TestDist:
    """``dist`` bisects the neighbour ids of one row and reads its slot."""

    def test_every_edge_both_ways(self):
        inst = generate_building(flagship_building_config())
        u, v, d = (x.tolist() for x in inst.edge_arrays())
        assert [inst.dist(a, b) for a, b in zip(u, v)] == d
        assert [inst.dist(b, a) for a, b in zip(u, v)] == d
        assert {type(inst.dist(a, b)) for a, b in zip(u, v)} == {float}

    @pytest.mark.parametrize("u, v", [(0, 2), (2, 0), (1, 1), (0, 0)])
    def test_non_edge_is_a_key_error_on_the_sorted_pair(self, u, v):
        inst = build_udg([(0, 0), (0.5, 0), (1.4, 0)], 1.0)
        with pytest.raises(KeyError) as exc:
            inst.dist(u, v)
        assert exc.value.args[0] == (min(u, v), max(u, v))

    @pytest.mark.parametrize("u, v", [(3, 1), (1, 3), (-1, 0), (0, -1),
                                      (-3, -1), (10**9, 2), (2, 10**9)])
    def test_a_non_node_is_a_key_error_not_an_index_error(self, u, v):
        inst = build_udg([(0, 0), (0.5, 0), (1.4, 0)], 1.0)
        with pytest.raises(KeyError) as exc:
            inst.dist(u, v)
        assert exc.value.args[0] == (min(u, v), max(u, v))


def reference_hyperplane(normal, offset):
    """The NumPy formula ``Hyperplane`` normalized with before its scalar
    steps moved to Python floats: ``(normal, offset)``, or the
    ``InvalidInputError`` it raised."""
    n = np.asarray(normal, dtype=float)
    nrm = np.linalg.norm(n)
    if nrm == 0 or not np.all(np.isfinite(n)):
        raise InvalidInputError("hyperplane normal must be nonzero and finite")
    n, b = n / nrm, offset / nrm
    nz = np.nonzero(np.abs(n) > 1e-12)[0]
    if len(nz) == 0:
        raise InvalidInputError("degenerate hyperplane normal")
    if n[nz[0]] < 0:
        n, b = -n, -b
    return tuple(float(x) for x in n), float(b)


def _hyperplane_inputs(rng, count):
    """Normals in 2D and 3D at scales 1e-8 to 1e8, negative components
    included; every third has its leading one or two components within
    0.1 % of 1e-12 of the norm, on either side, and every third a zero or
    negative zero. Offsets are floats, NumPy floats and ints."""
    for k in range(count):
        dim = 2 + k % 2
        v = rng.normal(size=dim)
        if k % 3 == 1:
            tiny = 1 + (dim == 3 and k % 4 == 3)
            v[:tiny] = (1e-12 * np.linalg.norm(v[tiny:])
                        * rng.choice([-1.0, 1.0], size=tiny)
                        * (1 + rng.uniform(-1e-3, 1e-3, size=tiny)))
        elif k % 3 == 2:
            v[rng.integers(dim)] = rng.choice([0.0, -0.0])
        normal = tuple((v * 10.0 ** rng.uniform(-8, 8)).tolist())
        offset = rng.normal() * 10.0 ** rng.uniform(-8, 8)
        yield normal, (float(offset), offset, int(offset * 1e4))[k // 3 % 3]


def _bits(plane):
    return [x.hex() for x in plane[0]], plane[1].hex()


class TestHyperplane:
    def test_same_bits_as_the_numpy_formula(self):
        leads = set()
        for normal, offset in _hyperplane_inputs(make_rng(41), 3000):
            want = reference_hyperplane(normal, offset)
            got = Hyperplane(normal, offset)
            assert {type(x) for x in (*got.normal, got.offset)} == {float}
            assert _bits((got.normal, got.offset)) == _bits(want), normal
            n = np.asarray(normal) / np.linalg.norm(normal)
            leads.add((normal[0] < 0, abs(n[0]) > 1e-12))
        # the first component was negative and positive, on both sides of
        # the lead threshold
        assert len(leads) == 4

    @pytest.mark.parametrize("normal", [
        (0.0, 0.0), (0.0, -0.0, 0.0), (math.nan, 1.0), (1.0, math.inf),
        (-math.inf, 0.0, 0.0),
        (1e-170, 0.0),              # the squares underflow: a zero norm
        (1e200, 1e200),             # they overflow: every component 0
        (1e300, -1e300, 1e300)])
    def test_same_invalid_input_on_bad_normals(self, normal):
        with np.errstate(over="ignore"), \
                pytest.raises(InvalidInputError) as want:
            reference_hyperplane(normal, 1.0)
        with np.errstate(over="ignore"), \
                pytest.raises(InvalidInputError) as got:
            Hyperplane(normal, 1.0)
        assert str(got.value) == str(want.value)

    @pytest.mark.parametrize("normal, offset", [
        ((1.0, 0.0), math.nan), ((1.0, 0.0), math.inf),
        ((0.0, -2.0, 0.0), -math.inf), ((1.0, 0.0), np.float64("nan")),
        ((1e-160, 0.0), 1e300)])    # finite, but infinite once normalized
    def test_rejects_a_non_finite_offset(self, normal, offset):
        with pytest.raises(InvalidInputError,
                           match="^hyperplane offset must be finite$"):
            Hyperplane(normal, offset)


def _scanned_corridor_coords(offset, extent, spacing, stair_points):
    """One corridor's coordinates by the plain rule: the lattice by repeated
    addition, each point rounded to 12 places, then each stair point in
    ``[0, extent]`` kept, rounded, unless within ``_MIN_NODE_SEP`` of any
    coordinate kept before it, found by scanning them all."""
    coords = []
    t = offset
    while t <= extent + 1e-12:
        coords.append(round(t, 12))
        t += spacing
    for s in stair_points:
        if -1e-12 <= s <= extent + 1e-12:
            if all(abs(s - c) > _MIN_NODE_SEP for c in coords):
                coords.append(round(s, 12))
    coords.sort()
    return coords


def _reference_generate_building(config: BuildingConfig) -> NetworkInstance:
    """Per-node generator: each floor laid out anew, each point tested
    against the kept points of its floor in a dict of cells."""
    config.validate()
    nx, ny = config.counts()
    half = config.node_spacing / 2.0
    nodes: list[NodeRecord] = []
    line_gid = 0
    for f in range(config.floors):
        z = f * config.floor_spacing
        plane_gid = f + 1
        # Cells of side 2 * _MIN_NODE_SEP: a point within _MIN_NODE_SEP per
        # axis then lies in one of the 3x3 cells around, with a margin that
        # rounding in x / side cannot cross.
        cells: dict[tuple[int, int], list[tuple[float, float]]] = {}

        def _emit(x: float, y: float) -> None:
            cx = math.floor(x / (2.0 * _MIN_NODE_SEP))
            cy = math.floor(y / (2.0 * _MIN_NODE_SEP))
            for i in (cx - 1, cx, cx + 1):
                for j in (cy - 1, cy, cy + 1):
                    for (px, py) in cells.get((i, j), ()):
                        if abs(px - x) <= _MIN_NODE_SEP and \
                                abs(py - y) <= _MIN_NODE_SEP:
                            return
            cells.setdefault((cx, cy), []).append((x, y))
            nodes.append(NodeRecord(id=len(nodes), true_pos=(x, y, z),
                                    line_group=line_gid, plane_group=plane_gid))

        for i in range(nx):
            line_gid += 1
            y = i * config.corridor_spacing
            offset = half if (config.stagger and i % 2 == 1) else 0.0
            stair = [sx + t for (sx, sy) in config.connector_columns
                     if abs(y - sy) <= _STAIR_REACH for t in _STAIR_OFFSETS]
            for x in _scanned_corridor_coords(offset, config.extent,
                                              config.node_spacing, stair):
                _emit(x, y)
        for j in range(ny):
            line_gid += 1
            x = j * config.corridor_spacing
            offset = half if (config.stagger and j % 2 == 1) else 0.0
            stair = [sy + t for (sx, sy) in config.connector_columns
                     if abs(x - sx) <= _STAIR_REACH for t in _STAIR_OFFSETS]
            for y in _scanned_corridor_coords(offset, config.extent,
                                              config.node_spacing, stair):
                _emit(x, y)

    if not nodes:
        raise InvalidConfigError("configuration produces no nodes")
    positions = np.array([nd.true_pos for nd in nodes])
    edges = udg_edges(positions, config.radius)
    if config.noise_sigma > 0:
        edges = _with_noise(edges, config.noise_sigma, config.radius,
                            make_rng(config.rng_seed))
    return NetworkInstance(nodes, edges, config.radius)


# spacings below _MIN_NODE_SEP make corridors and stair points clash
_spacing = st.one_of(st.sampled_from((0.03, 0.04, 0.08, 0.45, 0.9)),
                     st.floats(0.02, 1.0))


@st.composite
def _building_configs(draw):
    node_spacing = draw(_spacing)
    corridor_spacing = draw(_spacing)
    corridors = draw(st.one_of(
        st.integers(1, 4),
        st.tuples(st.integers(0, 3), st.integers(0, 3)).filter(any)))
    # at most about 20 lattice points per corridor
    extent = node_spacing * draw(st.floats(0.01, 20.0))
    span = corridor_spacing * 3
    # columns anywhere near the floor, or on the half-spacing lattice
    x = st.one_of(st.floats(-0.5, extent + 0.5),
                  st.integers(0, 40).map(lambda m: m * node_spacing / 2))
    y = st.one_of(st.floats(-0.5, span + 0.5),
                  st.integers(0, 6).map(lambda m: m * corridor_spacing / 2))
    return BuildingConfig(
        floors=draw(st.integers(1, 4)),
        floor_spacing=draw(st.sampled_from((0.04, 0.5, 0.8, 1.0))),
        corridors_per_floor=corridors,
        node_spacing=node_spacing,
        corridor_spacing=corridor_spacing,
        extent=extent,
        connector_columns=tuple(draw(st.lists(st.tuples(x, y), max_size=3))),
        stagger=draw(st.booleans()),
        noise_sigma=draw(st.sampled_from((0.0, 1e-3))),
        rng_seed=draw(st.integers(0, 3)))


def _generated(generate, config):
    """Nodes, the type of every coordinate and each edge array's dtype and
    bytes; or the config error raised."""
    try:
        inst = generate(config)
    except InvalidConfigError as exc:
        return ("error", str(exc))
    return (inst.nodes, [tuple(map(type, nd.true_pos)) for nd in inst.nodes],
            [(a.dtype, a.tobytes()) for a in inst.edge_arrays()])


class TestGenerateBuilding:
    @settings(max_examples=100, deadline=None, database=None,
              derandomize=True)
    @given(config=_building_configs())
    # the flagship; the benchmark building with its stairwell in the middle;
    # a crossing grid finer than the separation, where points clash across
    # corridors and stair points; staggered corridors 0.04 apart, whose
    # points clash on the diagonal, 0.057 apart
    @example(config=flagship_building_config())
    @example(config=BuildingConfig(
        floors=3, floor_spacing=0.8, corridors_per_floor=4, node_spacing=0.9,
        corridor_spacing=0.45, extent=266 * 0.9,
        connector_columns=((round(133 * 0.9, 12), 0.675),)))
    @example(config=BuildingConfig(
        floors=2, corridors_per_floor=(2, 2), node_spacing=0.03,
        corridor_spacing=0.04, extent=1.0, connector_columns=((0.5, 0.02),)))
    @example(config=BuildingConfig(
        floors=2, corridors_per_floor=(2, 2), node_spacing=0.08,
        corridor_spacing=0.04, extent=1.0))
    # stair points exactly _MIN_NODE_SEP from a lattice point, dropped: 0.05
    # right of 0.0 on the first corridor, 0.075 left of 0.125 on the second
    @example(config=BuildingConfig(
        corridors_per_floor=2, node_spacing=0.25, corridor_spacing=2.0,
        extent=1.0, connector_columns=((0.05, 0.0), (0.075, 2.0))))
    # stair points of two columns within _MIN_NODE_SEP of each other: 2.03
    # after 2.0 (its left neighbour), then 3.4 after 3.43 (its right one)
    @example(config=BuildingConfig(
        floors=2, corridors_per_floor=2, node_spacing=0.9,
        corridor_spacing=0.45, extent=6.3, connector_columns=(
            (2.0, 0.0), (2.03, 0.0), (3.43, 0.45), (3.4, 0.45))))
    # 1.27 after 1.24, its left neighbour, on the y-parallel corridor: the
    # floor rule drops the kept 1.24 for (0, 1.2) of an x-parallel corridor,
    # and 1.27 is 0.07 from that point, so only the stair rule drops it
    @example(config=BuildingConfig(
        floors=2, corridors_per_floor=(4, 1), node_spacing=0.9,
        corridor_spacing=0.6, extent=2.7,
        connector_columns=((0.3, 1.24), (0.3, 1.27))))
    # stair points at 0 and at extent, on the staggered corridor, between
    # its lattice and the ends
    @example(config=BuildingConfig(
        floors=2, corridors_per_floor=2, node_spacing=0.9,
        corridor_spacing=0.45, extent=4.5,
        connector_columns=((0.45, 0.45), (4.05, 0.45))))
    @example(config=replace(flagship_building_config(), stagger=False))
    # y-parallel corridors only, both offsets, and a stairwell
    @example(config=BuildingConfig(
        floors=2, corridors_per_floor=(0, 3), node_spacing=0.9,
        corridor_spacing=0.45, extent=4.5, connector_columns=((0.45, 2.7),)))
    def test_matches_per_node_reference(self, config):
        assert _generated(generate_building, config) == \
            _generated(_reference_generate_building, config)

    def test_separation_per_floor_on_both_axes_over_kept_points(self):
        # One floor, in emission order: (0, 0) and (0.08, 0) on the
        # x-parallel corridor; (0, 0) again, dropped, and (0, 0.08) on the
        # first y-parallel one; (0.04, 0.04) on the second, 0.057 from
        # (0, 0) but within 0.05 on both axes, dropped; (0.08, 0) again,
        # dropped, and (0.08, 0.08) on the third, within 0.05 of the dropped
        # (0.04, 0.04) only, kept. The floors are 0.04 apart, so a rule
        # across floors would drop the whole second floor.
        cfg = BuildingConfig(floors=2, floor_spacing=0.04,
                             corridors_per_floor=(1, 3), node_spacing=0.08,
                             corridor_spacing=0.04, extent=0.1)
        inst = generate_building(cfg)
        layout = [((0.0, 0.0), 1), ((0.08, 0.0), 1), ((0.0, 0.08), 2),
                  ((0.08, 0.08), 4)]
        assert [(nd.true_pos, nd.line_group, nd.plane_group)
                for nd in inst.nodes] == \
            [((*xy, z), line + 4 * f, f + 1)
             for f, z in enumerate((0.0, 0.04)) for xy, line in layout]

    def test_non_finite_corridor_spacing_rejected(self):
        with pytest.raises(InvalidConfigError):
            generate_building(BuildingConfig(corridor_spacing=float("nan")))
        with pytest.raises(InvalidConfigError):
            generate_building(BuildingConfig(
                corridors_per_floor=(0, 3), corridor_spacing=1e308))

    @pytest.mark.parametrize("spacing", [float("nan"), float("inf")])
    def test_non_finite_floor_spacing_rejected_on_any_floor_count(self,
                                                                  spacing):
        # one floor once generated its nodes at z = nan with no edges
        for floors in (1, 2):
            with pytest.raises(InvalidConfigError):
                generate_building(BuildingConfig(floors=floors,
                                                 floor_spacing=spacing))

    def test_one_floor_ignores_the_floor_spacing_range(self):
        inst = generate_building(BuildingConfig(floor_spacing=5.0))
        assert inst.n == 6 and inst.positions()[:, 2].tolist() == [0.0] * 6

    def test_every_node_has_vertical_interplanar_edge(self):
        cfg = BuildingConfig(floors=3, floor_spacing=0.8, corridors_per_floor=2,
                             node_spacing=0.9, corridor_spacing=0.45,
                             extent=2.7, radius=1.0)
        inst = generate_building(cfg)
        pos = inst.positions()
        for nd in inst.nodes:
            if nd.plane_group == 3:
                continue
            x, y, z = nd.true_pos
            partners = [v for v in inst.neighbors(nd.id)
                        if abs(pos[v][0] - x) < 1e-9 and abs(pos[v][1] - y) < 1e-9
                        and abs(pos[v][2] - (z + 0.8)) < 1e-9]
            assert partners, f"node {nd.id} has no upstairs neighbor"

    def test_single_corridor_chain(self):
        cfg = BuildingConfig(floors=1, corridors_per_floor=1, node_spacing=0.9,
                             extent=4.5, radius=1.0)
        inst = generate_building(cfg)
        assert inst.n == 6
        order = sorted(range(inst.n), key=lambda u: inst.nodes[u].true_pos[0])
        for a, b in zip(order, order[1:]):
            assert inst.has_edge(a, b)

    def test_deterministic_given_seed(self):
        cfg = flagship_building_config(seed=42)
        a = json.dumps(network_to_json_dict(generate_building(cfg)))
        b = json.dumps(network_to_json_dict(generate_building(cfg)))
        assert a == b

    def test_noise_keeps_pairs_and_seed_reproduces_bytes(self):
        exact = generate_building(flagship_building_config())
        cfg = replace(flagship_building_config(), noise_sigma=1e-3)
        noisy = generate_building(cfg)
        assert [(u, v) for u, v, _ in noisy.edges] == \
               [(u, v) for u, v, _ in exact.edges]
        assert any(abs(a[2] - b[2]) > 1e-6
                   for a, b in zip(exact.edges, noisy.edges))
        again = generate_building(cfg)
        assert json.dumps(network_to_json_dict(again)) == \
               json.dumps(network_to_json_dict(noisy))

    def test_invalid_config_rejected(self):
        with pytest.raises(InvalidConfigError):
            generate_building(BuildingConfig(floors=0))
        with pytest.raises(InvalidConfigError):
            generate_building(BuildingConfig(node_spacing=1.5, radius=1.0))

    def test_same_corridor_consecutive_adjacent(self):
        inst = generate_building(flagship_building_config())
        by_group = {}
        for nd in inst.nodes:
            by_group.setdefault(nd.line_group, []).append(nd.id)
        for gid, members in by_group.items():
            members.sort(key=lambda u: (inst.nodes[u].true_pos[0],
                                        inst.nodes[u].true_pos[1]))
            for a, b in zip(members, members[1:]):
                assert inst.has_edge(a, b)
                assert inst.nodes[a].line_group == inst.nodes[b].line_group

    def test_edge_classes_partition(self):
        inst = generate_building(flagship_building_config())
        counts = {"collinear": 0, "interlinear": 0, "interplanar": 0}
        for u, v, _ in inst.edges:
            counts[classify_edge(inst, u, v)] += 1
        assert sum(counts.values()) == inst.m
        assert all(c > 0 for c in counts.values())


def _bench_config(offset):
    """The benchmark's 3 x 4 building, stairwell ``offset`` grid steps from
    the middle."""
    return BuildingConfig(
        floors=3, floor_spacing=0.8, corridors_per_floor=4, node_spacing=0.9,
        corridor_spacing=0.45, extent=266 * 0.9,
        connector_columns=((round((133 + offset) * 0.9, 12), 0.675),))


def _array_bytes(arrays):
    return [(a.dtype, a.tobytes()) for a in arrays]


class TestStackedEdges:
    """``_stacked_edges`` gives the arrays of one kernel query over the
    stacked points: the same pairs, distance bits, order and dtypes."""

    @staticmethod
    def check(xy, z, radius):
        stacked = np.column_stack([np.tile(xy, (len(z), 1)),
                                   np.repeat(z, len(xy))])
        got = _stacked_edges(xy, udg_edges(xy, radius), z, radius)
        assert _array_bytes(got) == _array_bytes(udg_edges(stacked, radius))

    def test_seeded_clouds_and_heights(self):
        # coincident points and lattice ties, uneven and repeated heights
        rng = make_rng(61)
        for case in range(150):
            xy = rng.uniform(0.0, rng.uniform(0.5, 5.0),
                             (int(rng.integers(1, 50)), 2))
            if case % 3 == 0:
                xy = np.round(xy * 4) / 4
            z = np.sort(rng.uniform(0.0, rng.uniform(0.1, 4.0),
                                    int(rng.integers(1, 8))))
            if case % 4 == 0:
                z = np.round(z * 2) / 2
            self.check(xy, z, float(rng.choice([0.7, 1.0, 1.3])))

    def test_pairs_exactly_at_the_limit(self):
        # radius + DEFAULT_EPS is exactly 1.0 here: lattice neighbours and
        # each point's copy one layer up sit on the limit and are kept
        radius = 1.0 - DEFAULT_EPS
        assert radius + DEFAULT_EPS == 1.0
        self.check(_lattice(4, 3), np.arange(4.0), radius)
        self.check(_lattice(4, 3) * 0.6, np.array([0.0, 0.8, 1.6]), radius)


class TestStackedFloors:
    """``generate_building`` queries the kernel over one floor and lifts
    the pairs to every floor. Its edges, and the lift's raw arrays, must be
    those of one kernel query over all the nodes, the oracle here: the same
    pairs, distance bits and order (noise is drawn in edge order)."""

    @staticmethod
    def check(config):
        inst = generate_building(config)
        want = udg_edges(inst.true_pos, config.radius)
        floor = inst.n // config.floors
        xy = inst.true_pos[:floor, :2]
        z = inst.true_pos[::floor, 2]
        lifted = _stacked_edges(xy, udg_edges(xy, config.radius), z,
                                config.radius)
        assert _array_bytes(lifted) == _array_bytes(want), config
        if config.noise_sigma > 0:
            want = _with_noise(want, config.noise_sigma, config.radius,
                               make_rng(config.rng_seed))
        assert _array_bytes(inst.edge_arrays()) == _array_bytes(want), config
        return inst, want

    def test_floors_spacings_and_layouts(self):
        # floors up to ten spacings apart connect (0.1 of radius 1.0)
        for floors, spacing, corridors, stagger, columns in itertools.product(
                range(1, 7), (0.1, 0.3, 0.45, 0.5, 0.8, 1.0), (3, (2, 1)),
                (True, False), ((), ((2.7, 0.45),))):
            self.check(BuildingConfig(
                floors=floors, floor_spacing=spacing,
                corridors_per_floor=corridors, stagger=stagger,
                connector_columns=columns, extent=4.5))

    def test_one_node_per_floor(self):
        for floors in range(1, 7):
            for spacing in (0.1, 0.5, 1.0):
                inst, want = self.check(BuildingConfig(
                    floors=floors, floor_spacing=spacing, extent=0.5))
                assert inst.n == floors
        # 1.0 apart, each floor reaches only the next one
        assert len(want[0]) == floors - 1

    def test_noise_draws_in_edge_order(self):
        for floors, spacing in ((2, 0.3), (4, 0.45), (3, 0.8)):
            self.check(BuildingConfig(
                floors=floors, floor_spacing=spacing, corridors_per_floor=3,
                connector_columns=((2.7, 0.45),), extent=4.5,
                noise_sigma=1e-3, rng_seed=floors))

    def test_every_benchmark_stairwell_offset(self):
        for offset in range(-40, 41):
            self.check(_bench_config(offset))

    def test_one_planar_kernel_call(self, monkeypatch):
        shapes = []

        def counted(positions, *args, **kwargs):
            shapes.append(np.shape(positions))
            return udg_edges(positions, *args, **kwargs)

        monkeypatch.setattr(model, "udg_edges", counted)
        inst = generate_building(_bench_config(0))
        assert shapes == [(inst.n // 3, 2)]


def classify_edge(inst, u, v):
    """collinear, interlinear-but-coplanar, or interplanar."""
    a, b = inst.nodes[u], inst.nodes[v]
    if a.plane_group != b.plane_group:
        return "interplanar"
    return "interlinear" if a.line_group != b.line_group else "collinear"


class TestStripGroundTruth:
    def test_positions_removed_graph_kept(self):
        inst = generate_building(flagship_building_config())
        stripped = strip_ground_truth(inst)
        assert not stripped.has_positions()
        assert stripped.edges == inst.edges
        assert [nd.line_group for nd in stripped.nodes] == \
               [nd.line_group for nd in inst.nodes]

    def test_shares_the_checked_arrays(self):
        inst = generate_building(flagship_building_config())
        stripped = strip_ground_truth(inst)
        assert stripped.graph is inst.graph and stripped.length is inst.length
        assert all(nd.true_pos is None for nd in stripped.nodes)
        assert inst.has_positions()

    def test_idempotent(self):
        inst = generate_building(flagship_building_config())
        once = strip_ground_truth(inst)
        twice = strip_ground_truth(once)
        assert network_to_json_dict(once) == network_to_json_dict(twice)

    def test_localizer_blind_to_positions(self):
        # identical outputs whether or not hidden positions are present
        from hyperloc.grouploc import hierarchical_localize
        inst = generate_building(flagship_building_config())
        r_full = hierarchical_localize(inst)
        r_stripped = hierarchical_localize(strip_ground_truth(inst))
        ids = r_full.formation.localized_ids()
        assert ids == r_stripped.formation.localized_ids()
        assert np.array_equal(r_full.formation.array(ids),
                              r_stripped.formation.array(ids))

    @pytest.mark.parametrize("make", [
        lambda: generate_building(flagship_building_config()),
        lambda: network_from_json_dict(network_to_json_dict(
            generate_building(flagship_building_config())))],
        ids=["generated", "json"])
    def test_records_read_first_do_not_leak(self, make):
        inst = make()
        records, pos = inst.nodes, inst.positions()
        stripped = strip_ground_truth(inst)
        assert all(nd.true_pos is None for nd in stripped.nodes)
        assert [nd.line_group for nd in stripped.nodes] == \
            [nd.line_group for nd in records]
        with pytest.raises(InvalidInputError) as exc:
            stripped.positions()
        assert exc.value.code == "invalid-input"
        assert inst.nodes is records
        assert all(nd.true_pos is not None for nd in records)
        assert np.array_equal(inst.positions(), pos)


class TestNodeColumns:
    """Nodes are kept as columns; ``nodes`` is a view of them as records."""

    def test_records_are_the_per_node_records(self):
        inst = generate_building(flagship_building_config())
        stripped = strip_ground_truth(inst)
        loaded = network_from_json_dict(network_to_json_dict(inst))
        assert stripped.nodes == tuple(
            NodeRecord(nd.id, None, nd.line_group, nd.plane_group)
            for nd in inst.nodes)
        assert loaded.nodes == inst.nodes
        pts = [(0.0, 0.0), (0.5, 0.25), (1.0, 1.0)]
        assert build_udg(pts, 1.0).nodes == tuple(
            NodeRecord(i, (x, y, 0.0)) for i, (x, y) in enumerate(pts))

    def test_view_is_made_once_and_columns_are_read_only(self):
        inst = generate_building(flagship_building_config())
        assert inst.nodes is inst.nodes
        for col in (inst.true_pos, inst.has_pos):
            with pytest.raises(ValueError):
                col[0] = 0
        pos = inst.positions()
        pos[0] = -1.0
        assert not np.shares_memory(pos, inst.true_pos)
        assert inst.nodes[0].true_pos == tuple(inst.true_pos[0].tolist())

    @pytest.mark.parametrize("pos", [(0.0, 1.0), (0.0, 1.0, 2.0, 3.0), 1.0])
    def test_a_record_position_must_be_three_numbers(self, pos):
        nodes = [NodeRecord(0, pos), NodeRecord(1, (1.0, 0.0, 0.0))]
        with pytest.raises(InvalidInputError,
                           match="^a true_pos must be 3 numbers$"):
            NetworkInstance(nodes, [], 1.0)

    def test_missing_labels_raise_as_records_do(self):
        inst = build_udg([(0.0, 0.0), (0.5, 0.0)], 1.0)
        again = NetworkInstance(inst.nodes, inst.edge_arrays(), inst.radius)
        for x in (inst, again):
            with pytest.raises(InvalidInputError,
                               match="^node 0 has no plane_group; "):
                group_labels(x, "coplanar")
        assert inst.line_group_ids() == inst.plane_group_ids() == []


class TestLabelColumns:
    """``group_labels`` keeps each level's checked column on the instance:
    handed in by the generator, shared by the stripped view, made on first
    read for an instance built from records or JSON."""

    @staticmethod
    def _instances():
        gen = generate_building(flagship_building_config())
        return gen, {
            "generated": gen,
            "stripped": strip_ground_truth(gen),
            "json": network_from_json_dict(network_to_json_dict(gen)),
            "records": NetworkInstance(gen.nodes, gen.edge_arrays(),
                                       gen.radius)}

    @pytest.mark.parametrize("level, attr", [("collinear", "line_group"),
                                             ("coplanar", "plane_group")])
    def test_equal_read_only_int64_columns(self, level, attr):
        gen, instances = self._instances()
        want = np.array([getattr(nd, attr) for nd in gen.nodes],
                        dtype=np.int64)
        for name, x in instances.items():
            got = group_labels(x, level)
            assert got.dtype == np.int64, name
            assert got.tobytes() == want.tobytes(), name
            assert not got.flags.writeable, name
            with pytest.raises(ValueError):
                got[0] = 0
            assert group_labels(x, level) is got, name
        assert group_labels(instances["stripped"], level) is \
            group_labels(gen, level)

    @pytest.mark.parametrize("bad", ["a", 1.5, True, None, 2**63])
    def test_a_bad_label_raises_on_every_call(self, bad):
        nodes = [NodeRecord(0, line_group=1, plane_group=1),
                 NodeRecord(1, line_group=bad, plane_group=1)]
        inst = NetworkInstance(nodes, [], 1.0)
        for stripped in (False, True, False):
            x = strip_ground_truth(inst) if stripped else inst
            with pytest.raises(InvalidInputError) as exc:
                group_labels(x, "collinear")
            assert exc.value.code == "invalid-input"
            assert group_labels(x, "coplanar").tolist() == [1, 1]
        with pytest.raises(InvalidInputError):
            GroupingFunction.from_instance(inst, "collinear")


class TestGroupingFunction:
    def test_keeps_labels_as_given(self):
        g = GroupingFunction({0: 12, 1: 7, 2: 7})
        assert g.assignment == {0: 12, 1: 7, 2: 7}
        assert g.groups == [7, 12]
        assert g.members(7) == [1, 2] and g.members(12) == [0]

    def test_allows_gap_in_labels(self):
        g = GroupingFunction({0: 1, 1: 3, 2: -5})
        assert g.groups == [-5, 1, 3]
        assert g.members(2) == []

    @pytest.mark.parametrize("label", ["1", 1.0, True, None, 2**63, -2**63 - 1])
    def test_rejects_non_integer_labels(self, label):
        with pytest.raises(InvalidInputError):
            GroupingFunction({0: 1, 1: label})

    @pytest.mark.parametrize("assignment, message", [
        ({"a": 1, 0: 1}, "node id 'a' is not an integer"),
        ({0.5: 1, 1: 2}, "node id 0.5 is not an integer"),
        ({0: 1, True: 2}, "node id True is not an integer"),
        ({0: 1, np.float64(2.0): 2}, "is not an integer"),
        ({None: 1}, "node id None is not an integer"),
        ({2**63: 1}, "node ids must fit in 64 bits"),
    ])
    def test_rejects_non_integer_node_ids(self, assignment, message):
        with pytest.raises(InvalidInputError, match=re.escape(message)) as exc:
            GroupingFunction(assignment)
        assert exc.value.code == "invalid-input"

    def test_accepts_numpy_integer_node_ids(self):
        g = GroupingFunction({np.int64(2): 1, np.int32(0): 1, 1: 2})
        assert g.members(1) == [0, 2] and g.members(2) == [1]

    def test_accepts_numpy_integer_labels(self):
        g = GroupingFunction({0: np.int64(4), 1: np.int32(2), 2: 2**63 - 1})
        assert g.groups == [2, 4, 2**63 - 1]
        assert all(type(lab) is int for lab in g.groups)

    def test_rejects_unknown_level(self):
        inst = NetworkInstance([NodeRecord(id=0, line_group=1)], [], 1.0)
        with pytest.raises(InvalidInputError):
            GroupingFunction.from_instance(inst, "linear")

    def test_members_match_sorted_scan(self):
        rng = make_rng(3)
        labels = {int(u): int(rng.integers(0, 9))
                  for u in rng.permutation(200)}
        g = GroupingFunction(labels)
        assert g.groups == sorted(set(labels.values()))
        for gid in range(-1, 10):
            assert g.members(gid) == sorted(
                u for u, h in g.assignment.items() if h == gid)
        g.members(1).append(-1)     # callers get their own list
        assert -1 not in g.members(1)

    @pytest.mark.parametrize("labels", [
        [], [1, "b", 2.5], [1.0, 2], [True, 1], [2**63, 1],
        [np.uint64(2**63), 1], [7, np.int32(-4), 2**63 - 1, 7]])
    def test_instance_labels_are_checked_as_a_mapping_is(self, labels):
        # the one reader of an instance's labels raises what the
        # constructor raises on the same labels, else gives them as int64
        nodes = [NodeRecord(id=i, line_group=lab)
                 for i, lab in enumerate(labels)]
        inst = NetworkInstance(nodes, [], 1.0)
        try:
            want = GroupingFunction(dict(enumerate(labels)))
        except InvalidInputError as exc:
            with pytest.raises(InvalidInputError,
                               match=re.escape(str(exc)) + "$"):
                group_labels(inst, "collinear")
            return
        got = group_labels(inst, "collinear")
        assert got.dtype == np.int64
        assert got.tolist() == [int(x) for x in labels]
        g = GroupingFunction.from_instance(inst, "collinear")
        assert g.assignment == want.assignment and g.groups == want.groups

    def test_requires_total_assignment_on_instance(self):
        nodes = [NodeRecord(id=0, line_group=1), NodeRecord(id=1)]
        inst = NetworkInstance(nodes, [], 1.0)
        with pytest.raises(InvalidInputError):
            GroupingFunction.from_instance(inst, "collinear")


class TestJson:
    def test_round_trip(self):
        inst = generate_building(flagship_building_config())
        again = network_from_json_dict(network_to_json_dict(inst))
        assert network_to_json_dict(again) == network_to_json_dict(inst)

    def test_malformed_rejected(self):
        with pytest.raises(InvalidInputError):
            network_from_json_dict({"radius": 1.0, "nodes": [{"id": 0}]})

    @pytest.mark.parametrize("pos", [[0.5], [0.0, 0.0, 0.0, 1.0],
                                     [0.0, float("nan")], [float("inf"), 0.0]])
    def test_pos_must_be_two_or_three_finite_numbers(self, pos):
        with pytest.raises(InvalidInputError, match="node 0 pos"):
            network_from_json_dict({"radius": 1.0, "edges": [],
                                    "nodes": [{"id": 0, "pos": pos}]})
