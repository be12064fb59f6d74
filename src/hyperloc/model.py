"""Core data model: unit disk graphs, groupings, formations, scenario generation.

Distances are radio-radius-normalized lengths. A deployment is exact by
default: edge distances equal the Euclidean distances of the hidden true
positions. Localizers must only ever see the output of
:func:`strip_ground_truth`.
"""

from __future__ import annotations

import bisect
import functools
import json
import math
from dataclasses import dataclass, fields
from typing import Iterable, Mapping, Sequence

import numpy as np

from .errors import InvalidConfigError, InvalidInputError
from .intervals import Graph

DEFAULT_EPS = 1e-9

COLLINEAR = "collinear"
COPLANAR = "coplanar"


def make_rng(seed: int) -> np.random.Generator:
    """Counter-based generator so identical seeds reproduce bit-exactly."""
    return np.random.Generator(np.random.Philox(seed))


# ---------------------------------------------------------------------------
# node / instance
# ---------------------------------------------------------------------------

@dataclass
class NodeRecord:
    """One sensor node.

    ``true_pos`` is hidden ground truth (never read by localizers).
    """

    id: int
    true_pos: tuple[float, float, float] | None = None
    line_group: int | None = None
    plane_group: int | None = None


EdgeArrays = tuple[np.ndarray, np.ndarray, np.ndarray]


def _checked_adjacency(edges, n: int, radius: float
                       ) -> tuple[Graph, np.ndarray]:
    """Graph over ``0..n-1`` of validated edges, and the measured length of
    each of its adjacency slots.

    ``radius`` must be positive and finite. Edges are checked as if one by
    one in input order: the first edge that is a self-loop, is out of
    range, repeats an earlier edge or has its distance outside
    ``(0, radius]`` raises, named by the first of these checks it fails.
    Integer ``u`` and ``v`` arrays are checked as they are; other input is
    converted to float triples once, and the error message quotes the
    offending triple as given.
    """
    if radius <= 0 or not math.isfinite(radius):
        raise InvalidInputError("radius must be positive and finite")
    rows = None
    if isinstance(edges, tuple) and len(edges) == 3 and all(
            isinstance(x, np.ndarray) and x.ndim == 1 for x in edges) \
            and edges[0].dtype.kind in "iu":
        if edges[1].dtype.kind in "iu":
            a, b, d = edges[0], edges[1], np.asarray(edges[2], dtype=float)
        else:   # the triples the arrays hold, quoted as a list of them is
            rows = list(zip(*(x.tolist() for x in edges)))
    else:
        rows = list(edges)
    if rows is not None:
        e = np.array(rows, dtype=float)
        if e.size == 0:
            e = e.reshape(0, 3)
        if e.ndim != 2 or e.shape[1] != 3:
            raise ValueError("edges must be (u, v, dist) triples")
        a, b, d = e.T
    m = len(a)
    loop = a == b
    inside = (a >= 0) & (a < n) & (b >= 0) & (b < n)
    if rows is not None:
        with np.errstate(invalid="ignore"):     # inf % 1 is nan: not inside
            inside &= (a % 1 == 0) & (b % 1 == 0)
    lo = np.where(inside, np.minimum(a, b), 0).astype(np.intp)
    hi = np.where(inside, np.maximum(a, b), 0).astype(np.intp)
    key = np.where(inside & ~loop, lo * n + hi, -1 - np.arange(m))
    dup = np.zeros(m, dtype=bool)
    if not (key[1:] > key[:-1]).all():  # udg_edges gives ascending keys
        order = np.argsort(key, kind="stable")
        dup[order[1:]] = key[order[1:]] == key[order[:-1]]
    far = ~((d > 0.0) & (d <= radius + DEFAULT_EPS))
    bad = loop | ~inside | dup | far
    if bad.any():
        i = int(np.argmax(bad))
        u, v, dist = rows[i] if rows is not None else \
            (int(a[i]), int(b[i]), float(d[i]))
        if loop[i]:
            raise InvalidInputError(f"self-loop at node {u}")
        if not inside[i]:
            raise InvalidInputError(f"edge ({u},{v}) out of range")
        if u > v:
            u, v = v, u
        raise InvalidInputError(
            f"duplicate edge ({u},{v})" if dup[i] else
            f"edge ({u},{v}) has dist {dist!r} outside (0, radius]")
    graph, edge = Graph.from_pairs(n, lo, hi)
    length = d[edge]
    length.flags.writeable = False
    return graph, length


class NetworkInstance:
    """Immutable unit disk graph with measured edge distances.

    Edges are undirected, with no duplicates, no self loops and
    ``0 < dist <= radius``. They are stored once: ``graph`` is an
    :class:`~hyperloc.intervals.Graph` over the node ids ``0..n-1``, and
    ``length`` holds the measured distance of each of its adjacency slots:
    node u's neighbours are ``graph.nbr[graph.start[u]:graph.start[u + 1]]``
    in ascending order, at the lengths in the same slice of ``length``.
    ``edges`` is a tuple view of them.

    The nodes are stored once too, as read-only columns indexed by id:
    ``line_group`` and ``plane_group`` hold the labels as given (``None``
    where a node has none), ``true_pos`` the hidden positions as one
    ``(n, 3)`` float array, and ``has_pos`` marks the nodes that have one.
    ``nodes`` is a view of them as :class:`NodeRecord` s, made on first
    read, and :func:`group_labels` keeps each level's checked labels as an
    int64 column the first time it reads them.

    ``edges`` may be any iterable of ``(u, v, dist)`` triples, or the
    ``(u, v, dist)`` arrays that :func:`udg_edges` and :meth:`edge_arrays`
    return (integer ``u`` and ``v``).
    """

    def __init__(self, nodes: Sequence[NodeRecord],
                 edges: Iterable[tuple[int, int, float]] | EdgeArrays,
                 radius: float):
        nodes = tuple(nodes)
        if [nd.id for nd in nodes] != list(range(len(nodes))):
            raise InvalidInputError("node ids must be contiguous 0..n-1")
        has_pos = np.array([nd.true_pos is not None for nd in nodes],
                           dtype=bool)
        try:
            true_pos = np.array([nd.true_pos if nd.true_pos is not None
                                 else (math.nan,) * 3 for nd in nodes],
                                dtype=float).reshape(len(nodes), 3)
        except ValueError:
            raise InvalidInputError("a true_pos must be 3 numbers") from None
        self._set_columns(tuple(nd.line_group for nd in nodes),
                          tuple(nd.plane_group for nd in nodes),
                          true_pos, has_pos, radius,
                          _checked_adjacency(edges, len(nodes), radius))

    @classmethod
    def _from_columns(cls, *columns) -> "NetworkInstance":
        """The instance of ``columns``, as :meth:`_set_columns` takes them."""
        instance = cls.__new__(cls)
        instance._set_columns(*columns)
        return instance

    def _set_columns(self, line_group: tuple, plane_group: tuple,
                     true_pos: np.ndarray, has_pos: np.ndarray,
                     radius: float, adjacency: tuple[Graph, np.ndarray],
                     labels: Mapping[str, np.ndarray] | None = None
                     ) -> None:
        """The one constructor body: the node columns, the radius and
        adjacency that :func:`_checked_adjacency` checked, and any level's
        labels as :func:`group_labels` gives them (int64 by node id)."""
        labels = dict(labels or {})
        true_pos.flags.writeable = has_pos.flags.writeable = False
        for column in labels.values():
            column.flags.writeable = False
        self.line_group, self.plane_group = line_group, plane_group
        self.true_pos, self.has_pos = true_pos, has_pos
        self.radius = float(radius)
        self.graph, self.length = adjacency
        self._labels = labels

    @functools.cached_property
    def nodes(self) -> tuple[NodeRecord, ...]:
        """Every node as a record, by id, made from the columns once."""
        pos = map(tuple, self.true_pos.tolist())
        return tuple(map(NodeRecord, range(self.n), [
            p if has else None for p, has in zip(pos, self.has_pos.tolist())],
            self.line_group, self.plane_group))

    # -- basic accessors ----------------------------------------------------

    @property
    def n(self) -> int:
        return len(self.has_pos)

    @property
    def m(self) -> int:
        return len(self.length) // 2

    @functools.cached_property
    def edges(self) -> tuple[tuple[int, int, float], ...]:
        """Every edge as ``(u, v, dist)`` with ``u < v``, in lexicographic
        order."""
        u, v, d = self.edge_arrays()
        return tuple(zip(u.tolist(), v.tolist(), d.tolist()))

    def edge_arrays(self) -> EdgeArrays:
        """The arrays ``u``, ``v``, ``dist`` of ``edges``: the adjacency
        entries whose neighbour is the larger id."""
        u, v, slots = self.graph.edge_ends()
        return u, v, self.length[slots]

    def neighbors(self, u: int) -> tuple[int, ...]:
        """Neighbour ids of ``u``, ascending."""
        if not 0 <= u < self.n:
            raise KeyError(u)
        return tuple(self.graph.row(u))

    def has_edge(self, u: int, v: int) -> bool:
        return v in self.neighbors(u)

    def dist(self, u: int, v: int) -> float:
        """Measured length of edge ``(u, v)``, read at the slot a bisection
        of row ``u`` finds; ``KeyError`` for a non-edge or a non-node."""
        start, nbr = self.graph._lists
        if 0 <= u < self.n:
            at = bisect.bisect_left(nbr, v, start[u], start[u + 1])
            if at < start[u + 1] and nbr[at] == v:
                return float(self.length[at])
        raise KeyError((u, v) if u < v else (v, u))

    def has_positions(self) -> bool:
        return bool(self.has_pos.all())

    def positions(self) -> np.ndarray:
        if not self.has_positions():
            raise InvalidInputError("instance has no ground-truth positions")
        return self.true_pos.copy()

    def line_group_ids(self) -> list[int]:
        return sorted(set(self.line_group) - {None})

    def plane_group_ids(self) -> list[int]:
        return sorted(set(self.plane_group) - {None})

    def validate_exact(self, eps: float = DEFAULT_EPS) -> None:
        """Check edges are exactly the pairs within radius, dists exact."""
        eu, ev, ed = udg_edges(self.positions(), self.radius, eps)
        u, v, w = self.edge_arrays()
        if not (np.array_equal(eu, u) and np.array_equal(ev, v)):
            raise InvalidInputError("edge set does not match UDG of positions")
        bad = np.flatnonzero(np.abs(w - ed) > eps)
        if bad.size:
            i = bad[0]
            raise InvalidInputError(
                f"edge ({int(u[i])},{int(v[i])}) dist {float(w[i])} != "
                f"true distance {float(ed[i])}")


def build_udg(points: Sequence[Sequence[float]], radius: float, *,
              noise_sigma: float = 0.0,
              rng: np.random.Generator | None = None) -> NetworkInstance:
    """Unit disk graph of ``points`` in R^1/R^2/R^3.

    Edges connect exactly the pairs within ``radius``; recorded distances
    are exact unless ``noise_sigma`` > 0, in which case each measured
    distance is scaled by ``1 + sigma * N(0, 1)`` (clipped into
    ``(0, radius]``).
    """
    pts = np.asarray(points, dtype=float)
    if pts.ndim == 1:
        pts = pts[:, None]
    if pts.ndim != 2 or pts.shape[1] not in (1, 2, 3):
        raise InvalidInputError("points must be in R^1, R^2 or R^3")
    if pts.size and not np.all(np.isfinite(pts)):
        raise InvalidInputError("non-finite coordinate in points")
    full = np.zeros((pts.shape[0], 3))
    full[:, :pts.shape[1]] = pts
    edges = udg_edges(full, radius)
    if noise_sigma > 0.0:
        edges = _with_noise(edges, noise_sigma, radius,
                            make_rng(0) if rng is None else rng)
    n = len(full)
    return NetworkInstance._from_columns(
        (None,) * n, (None,) * n, full, np.ones(n, dtype=bool), radius,
        _checked_adjacency(edges, n, radius))


_FP = np.finfo(float).eps


def axis_distances(p: np.ndarray, i: np.ndarray, q: np.ndarray,
                   j: np.ndarray) -> np.ndarray:
    """Distances from points ``i`` of ``p`` to points ``j`` of ``q``, each
    given as one row per axis: an axis at a time, ``(dx*dx + dy*dy) +
    dz*dz``, the order in which ``np.linalg.norm(a - b, axis=-1)`` adds a
    row's squares, so with its bits but without its ``(k, dim)`` copies."""
    total = None
    for a, b in zip(p, q):
        gap = a.take(i)
        gap -= b.take(j)
        gap *= gap
        total = gap if total is None else np.add(total, gap, out=total)
    total = np.sqrt(total, out=total)
    # NumPy's add may keep either of two NaNs, the norm its first operand's
    if (odd := np.flatnonzero(np.isnan(total))).size:
        total[odd] = np.linalg.norm(p.T[i[odd]] - q.T[j[odd]], axis=-1)
    return total


class WindowIndex:
    """Fixed-radius near-neighbour index of ``points`` (a non-empty
    ``(n, dim)`` array) for pairs within distance ``lim``, over cells
    (Bentley, Stanat & Williams 1977): this is the searched half of the
    kernel, and :meth:`pairs` the query half.

    The points are sorted once along their widest axis and kept in that
    order as one row of coordinates per axis. Every other axis that spans
    more than three cells of side about ``lim`` can cut them into strips;
    the first query whose windows on the sweep axis hold more candidates
    than one chunk sorts them by (strip, sweep coordinate), and later
    queries reuse both orders.
    """

    def __init__(self, points: np.ndarray, lim: float):
        self.points, self.lim = points, lim
        self.low = points.min(axis=0)
        span = points.max(axis=0) - self.low
        self.axis = int(np.argmax(span))
        self.wide = lim * (1.0 + 4.0 * _FP)
        self.order = np.argsort(points[:, self.axis])
        self.cols = points.T.take(self.order, axis=1)     # a row per axis
        self.xs = self.cols[self.axis]
        self.cuts = []      # (axis, side, cells) of each axis that cuts
        for a, extent in enumerate(span.tolist()):
            # the side outgrows the rounding of (x - low) / side, so a pair
            # within wide on this axis is never two cells apart; at most
            # 2**16 cells
            side = max(self.wide + 4.0 * _FP * extent, extent / 2.0 ** 16)
            if a != self.axis and 3.0 * side < extent < np.inf:
                # the set's cells are 2 .. cells - 3; a query point outside
                # them is clipped to a cell two away from every one of them
                self.cuts.append((a, side, int(extent / side) + 5))

    def _strip_of(self, p: np.ndarray) -> np.ndarray:
        """Each point's strip: its cells on the cut axes as one index."""
        strip = np.zeros(len(p), dtype=np.intp)
        for a, side, cells in self.cuts:
            strip = strip * cells + np.clip(
                np.floor((p[:, a] - self.low[a]) / side) + 2, 0,
                cells - 1).astype(np.intp)
        return strip

    @functools.cached_property
    def _by_strip(self) -> tuple[np.ndarray, np.ndarray, np.ndarray,
                                 np.ndarray, list[int]]:
        """The points sorted by (strip, rank on the sweep axis), so that the
        points of a strip within a window of ranks are one range of keys
        ``strip * n + rank``: that order, the points' columns in it, their
        keys and ranks, and the linear offsets of a strip's neighbours."""
        n = len(self.points)
        rank = np.empty(n, dtype=np.intp)
        rank[self.order] = np.arange(n)
        strip = self._strip_of(self.points)
        order = self.order[np.argsort(strip[self.order], kind="stable")]
        steps = [0]
        for _, _, cells in self.cuts:
            steps = [t * cells + o for t in steps for o in (-1, 0, 1)]
        return (order, self.points.T.take(order, axis=1),
                strip[order] * n + rank[order], rank[order], steps)

    def pairs(self, pos: np.ndarray | None = None) -> EdgeArrays:
        """Index pairs within distance ``lim``, with their distances: the
        pairs ``u < v`` of the indexed points, each once, or with ``pos``
        the pairs ``(i, j)`` of ``pos[i]`` and ``points[j]``.

        ``searchsorted`` gives each query point the window of indexed
        points within ``lim`` on the sweep axis, over a bound widened by a
        few ulps so that no pair whose rounded gap is within ``lim`` is
        missed; with strips, a window in its own strip and in each
        neighbouring one. An indexed point searches its own strip forward
        and only the neighbours in its half-shell, so each pair comes once.
        The windows are expanded into candidates in chunks of fewer than
        twice as many as there are points, so no n x n array is built.
        Each chunk's distances are :func:`axis_distances` of the gathered
        columns, and ``d <= lim`` decides (a pair's distance is never
        below its gap on any axis).
        """
        n, axis, wide = len(self.points), self.axis, self.wide
        order, sb, xs = self.order, self.cols, self.xs
        qx, hold = (xs, n) if pos is None else (pos[:, axis], len(pos) + n)
        # the sweep: each query point's window on the sweep axis; an
        # indexed point looks only forward from itself
        above = np.searchsorted(xs, qx + wide, side="right")
        below = (np.arange(1, n + 1) if pos is None
                 else np.searchsorted(xs, qx - wide))
        starts, stops = [below], [above]
        # strips pay only where the sweep's windows outgrow one chunk
        if (above - below).sum() > 2 * hold and self.cuts:
            order, sb, keys, rank, steps = self._by_strip
            if pos is None:
                # the indexed points in the new order: own strip forward,
                # then the strips of the half-shell
                qs, above = keys // n, above[rank]
                below = np.searchsorted(xs, sb[axis] - wide)
                starts = [np.arange(1, n + 1)]
                stops = [np.searchsorted(keys, qs * n + above)]
                steps = [t for t in steps if t > 0]
            else:
                qs, starts, stops = self._strip_of(pos), [], []
            for t in steps:
                starts.append(np.searchsorted(keys, (qs + t) * n + below))
                stops.append(np.searchsorted(keys, (qs + t) * n + above))
        qp = sb if pos is None else pos.T
        lo = np.concatenate(starts)
        count = np.concatenate(stops) - lo
        end = np.cumsum(count)
        shift = lo - end + count    # window w's flat candidate f is column shift[w]+f
        # each chunk holds fewer than step + count.max() = 2 * hold candidates
        step = 2 * hold - count.max()
        cuts = np.searchsorted(end, np.arange(step, end[-1], step), side="right")
        bounds = sorted({0, *cuts.tolist(), len(lo)})
        out = []
        for w0, w1 in zip(bounds, bounds[1:]):
            win = np.repeat(np.arange(w0, w1), count[w0:w1])
            cols = shift[win] + np.arange(end[w0] - count[w0], end[w1 - 1])
            rows = win if len(lo) == len(qx) else win % len(qx)
            d = axis_distances(qp, rows, sb, cols)
            near = np.flatnonzero(d <= self.lim)
            u, v = rows[near], order[cols[near]]
            if pos is None:
                u, v = np.minimum(order[u], v), np.maximum(order[u], v)
            out.append((u, v, d[near]))
        return tuple(np.concatenate(parts) for parts in zip(*out))


def udg_edges(positions: np.ndarray, radius: float,
              eps: float = DEFAULT_EPS) -> EdgeArrays:
    """All pairs within ``radius`` with their exact distances.

    Returns the arrays ``u``, ``v`` and ``dist``, pairs with ``u < v`` in
    lexicographic order, found by one :class:`WindowIndex` over them.
    """
    pos = np.asarray(positions, dtype=float)
    if len(pos) < 2:
        return np.zeros(0, dtype=np.intp), np.zeros(0, dtype=np.intp), \
            np.zeros(0)
    u, v, d = WindowIndex(pos, radius + eps).pairs()
    keep = np.argsort(u * len(pos) + v)     # each pair is there once
    return u[keep], v[keep], d[keep]


def _with_noise(edges: EdgeArrays, sigma: float, radius: float,
                rng: np.random.Generator) -> EdgeArrays:
    """Scale each distance by ``1 + sigma * N(0, 1)``, clipped into
    ``(0, radius]``; one draw per edge, in edge order."""
    u, v, d = edges
    scaled = d * (1.0 + sigma * rng.standard_normal(len(d)))
    return u, v, np.minimum(np.maximum(scaled, 1e-12), radius)


def strip_ground_truth(instance: NetworkInstance) -> NetworkInstance:
    """Localizer-facing view: graph, dists and groupings without positions.

    It shares the instance's read-only ``graph``, ``length`` and label
    columns, checked when the instance was built, with the int64 labels
    that :func:`group_labels` has kept, and nothing else: no record, no
    position."""
    n = instance.n
    return NetworkInstance._from_columns(
        instance.line_group, instance.plane_group,
        np.full((n, 3), math.nan), np.zeros(n, dtype=bool), instance.radius,
        (instance.graph, instance.length), instance._labels)


# ---------------------------------------------------------------------------
# grouping functions
# ---------------------------------------------------------------------------

def _non_integer(values: list, kinds: set) -> int:
    """Index of the first of ``values`` that is not an integer (a bool is
    not), else -1; ``kinds`` is ``set(map(type, values))``."""
    bad = {kind for kind in kinds if kind is bool
           or not issubclass(kind, (int, np.integer))}
    return next(i for i, x in enumerate(values) if type(x) in bad) \
        if bad else -1


def _int64_labels(nodes: Sequence[int], labels: list, kinds: set
                  ) -> np.ndarray:
    """``labels`` as int64, checked as a grouping's labels: at least one,
    each an integer (no bool) of 64 bits. ``nodes[i]`` has ``labels[i]``,
    and ``kinds`` is ``set(map(type, labels))``."""
    if not labels:
        raise InvalidInputError("empty grouping")
    if (i := _non_integer(labels, kinds)) >= 0:
        raise InvalidInputError(f"node {nodes[i]} has group label "
                                f"{labels[i]!r}; labels must be integers")
    try:
        return np.fromiter(labels, np.int64, len(labels))
    except OverflowError:
        raise InvalidInputError("group labels must fit in 64 bits") from None


def group_labels(instance: NetworkInstance, level: str) -> np.ndarray:
    """Every node's label at ``level``, by node id, as a read-only int64
    column: the one reader of the labels, raising what
    ``GroupingFunction`` raises. The instance keeps the column its first
    successful read makes; a read that raises keeps nothing."""
    if level not in (COLLINEAR, COPLANAR):
        raise InvalidInputError(f"unknown grouping level {level!r}")
    if (kept := instance._labels.get(level)) is not None:
        return kept
    attr = "line_group" if level == COLLINEAR else "plane_group"
    labels = getattr(instance, attr)
    kinds = set(map(type, labels))
    if type(None) in kinds:     # node ids are 0..n-1
        u = next(u for u, lab in enumerate(labels) if lab is None)
        raise InvalidInputError(f"node {u} has no {attr}; "
                                "grouping must be total")
    column = _int64_labels(range(len(labels)), labels, kinds)
    column.flags.writeable = False
    instance._labels[level] = column
    return column


class GroupingFunction:
    """Map node id -> group label, kept as given (gaps allowed): a group is
    named by the label its nodes carry. Labels must be 64-bit integers.

    ``blocks`` lays the map out as arrays: the nodes in (label, id) order,
    each label once, ascending, and the offset of its first node, so that
    group k is ``nodes[first[k]:first[k + 1]]``."""

    def __init__(self, assignment: Mapping[int, int]):
        ids, labels = list(assignment), list(assignment.values())
        if (i := _non_integer(ids, set(map(type, ids)))) >= 0:
            raise InvalidInputError(f"node id {ids[i]!r} is not an integer")
        labels = _int64_labels(ids, labels, set(map(type, labels)))
        try:
            ids = np.fromiter(ids, np.intp, len(ids))
        except OverflowError:
            raise InvalidInputError("node ids must fit in 64 bits") from None
        self.assignment = assignment
        self.blocks = self.from_arrays(ids, labels).blocks

    @classmethod
    def from_instance(cls, instance: NetworkInstance, level: str) -> "GroupingFunction":
        return cls.from_arrays(np.arange(instance.n),
                               group_labels(instance, level))

    @classmethod
    def from_arrays(cls, nodes: np.ndarray, labels: np.ndarray
                    ) -> "GroupingFunction":
        """``nodes[i] -> labels[i]`` for distinct ids and labels that
        ``group_labels`` gave, taken without a second check."""
        order = np.lexsort((nodes, labels))
        nodes, labels = nodes[order], labels[order]
        first = np.flatnonzero(np.append(True, labels[1:] != labels[:-1]))
        grouping = cls.__new__(cls)
        grouping.blocks = nodes, labels[first], first
        return grouping

    @functools.cached_property
    def assignment(self) -> dict[int, int]:
        """The map as given to the constructor, else built from ``blocks``
        on first use."""
        nodes, labels, first = self.blocks
        return dict(zip(nodes.tolist(), np.repeat(
            labels, np.diff(first, append=len(nodes))).tolist()))

    @functools.cached_property
    def _members(self) -> dict[int, list[int]]:
        """Label -> its nodes, both ascending, built once."""
        nodes, labels, first = self.blocks
        return {g: m.tolist()
                for g, m in zip(labels.tolist(), np.split(nodes, first[1:]))}

    @property
    def groups(self) -> list[int]:
        """The labels, ascending."""
        return self.blocks[1].tolist()

    def members(self, label: int) -> list[int]:
        """Nodes of the group labelled ``label``, ascending."""
        return list(self._members.get(label, ()))


# ---------------------------------------------------------------------------
# point formations and hyperplanes
# ---------------------------------------------------------------------------

class PointFormation:
    """Node id -> position table in R^dim, meaningful up to isometry.

    Positions live in one ``(len(ids), dim)`` array, ``points``, whose rows
    follow the sorted ids in ``ids``, found by ``searchsorted`` over them;
    ``mask`` flags the localized rows. Given ``points``, the formation
    takes ``ids`` (an ascending array of distinct ids) and ``points`` as
    they are, every row localized.
    """

    def __init__(self, dim: int, ids: Iterable[int] = (), points=None):
        if dim not in (1, 2, 3):
            raise InvalidInputError("formation dim must be 1, 2 or 3")
        self.dim = dim
        given = points is not None
        self.ids = ids if given else np.array(sorted(set(ids)), dtype=int)
        self.points = points if given else np.zeros((len(self.ids), dim))
        self.mask = np.full(len(self.ids), given)

    def rows_of(self, ids: Sequence[int]) -> np.ndarray:
        """Row of each id in ``points``; ``KeyError`` for an unknown id."""
        want = np.asarray(ids, dtype=int).reshape(-1)
        rows = np.searchsorted(self.ids, want)
        found = rows < len(self.ids)
        found[found] = self.ids[rows[found]] == want[found]
        if not found.all():
            raise KeyError(int(want[~found][0]))
        return rows

    def mark(self, u: int, pos) -> None:
        self.mark_many([u], np.atleast_1d(np.asarray(pos, dtype=float))[None])

    def mark_many(self, ids: Sequence[int], positions) -> None:
        """Mark ``ids[i]`` localized at ``positions[i]``, adding new ids."""
        p = np.asarray(positions, dtype=float)
        if p.shape != (len(ids), self.dim) or not np.all(np.isfinite(p)):
            label = f"node {ids[0]}" if len(ids) == 1 else "nodes"
            raise InvalidInputError(
                f"position for {label} must be a finite point in R^{self.dim}")
        try:
            rows = self.rows_of(ids)
        except KeyError:
            every = np.union1d(self.ids, np.asarray(ids, dtype=int))
            old = np.searchsorted(every, self.ids)
            points = np.zeros((len(every), self.dim))
            mask = np.zeros(len(every), dtype=bool)
            points[old], mask[old] = self.points, self.mask
            self.ids, self.points, self.mask = every, points, mask
            rows = self.rows_of(ids)
        self.points[rows] = p
        self.mask[rows] = True

    def is_localized(self, u: int) -> bool:
        row = self.ids.searchsorted(u)      # the search of rows_of, one id
        return bool(row < len(self.ids) and self.ids[row] == u
                    and self.mask[row])

    def localized_ids(self) -> list[int]:
        return self.ids[self.mask].tolist()

    def localized_fraction(self) -> float:
        return int(self.mask.sum()) / max(len(self.ids), 1)

    def position(self, u: int) -> np.ndarray:
        if not self.is_localized(u):
            raise KeyError(u)
        return self.points[self.ids.searchsorted(u)].copy()

    def array(self, ids: Sequence[int]) -> np.ndarray:
        """Positions of ``ids``; ``KeyError`` if one is not localized."""
        rows = self.rows_of(ids)
        off = ~self.mask[rows]
        if off.any():
            raise KeyError(int(self.ids[rows[off][0]]))
        return self.points[rows]


@dataclass(frozen=True)
class Hyperplane:
    """Normalized equation ``normal . x = offset`` with canonical sign."""

    normal: tuple[float, ...]
    offset: float

    def __post_init__(self):
        n = np.asarray(self.normal, dtype=float)
        # np.linalg.norm's sum of squares, then the same IEEE steps on
        # Python floats, so the same bits without NumPy scalar round trips
        nrm = math.sqrt(n.dot(n))
        n = n.tolist()
        if nrm == 0 or not all(map(math.isfinite, n)):
            raise InvalidInputError("hyperplane normal must be nonzero and finite")
        n, b = [x / nrm for x in n], float(self.offset) / nrm
        if not math.isfinite(b):
            raise InvalidInputError("hyperplane offset must be finite")
        lead = next((x for x in n if abs(x) > 1e-12), None)
        if lead is None:
            raise InvalidInputError("degenerate hyperplane normal")
        if lead < 0:
            n, b = [-x for x in n], -b
        object.__setattr__(self, "normal", tuple(n))
        object.__setattr__(self, "offset", b)

    @classmethod
    def _normalized(cls, normal: tuple[float, ...], offset: float
                    ) -> "Hyperplane":
        """The record of a ``normal`` of Python floats that is already unit
        length and in canonical sign, with its ``offset``, taken without a
        second check."""
        plane = object.__new__(cls)
        object.__setattr__(plane, "normal", normal)
        object.__setattr__(plane, "offset", offset)
        return plane


# ---------------------------------------------------------------------------
# building scenario generation
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class BuildingConfig:
    """Corridor-grid building deployment.

    ``corridors_per_floor`` is either an int (corridors parallel to the
    x-axis) or a pair ``(nx, ny)`` adding y-parallel corridors. Consecutive
    corridors are offset by half a node spacing when ``stagger`` is set so
    that neighboring chains interleave.
    """

    floors: int = 1
    floor_spacing: float = 0.8
    corridors_per_floor: int | tuple[int, int] = 1
    node_spacing: float = 0.9
    radius: float = 1.0
    connector_columns: tuple[tuple[float, float], ...] = ()
    rng_seed: int = 0
    corridor_spacing: float = 0.45
    extent: float = 4.5
    stagger: bool = True
    noise_sigma: float = 0.0

    def counts(self) -> tuple[int, int]:
        c = self.corridors_per_floor
        if isinstance(c, int):
            return (c, 0)
        nx, ny = c
        return (int(nx), int(ny))

    def validate(self) -> None:
        nx, ny = self.counts()
        if self.floors < 1:
            raise InvalidConfigError("floors must be >= 1")
        if nx + ny < 1:
            raise InvalidConfigError("need at least one corridor per floor")
        if nx < 0 or ny < 0:
            raise InvalidConfigError("corridor counts must be nonnegative")
        if self.radius <= 0:
            raise InvalidConfigError("radius must be positive")
        if not (0 < self.node_spacing <= self.radius):
            raise InvalidConfigError("node_spacing must be in (0, radius]")
        if not math.isfinite(self.floor_spacing):
            raise InvalidConfigError("floor_spacing must be finite")
        if self.floors > 1 and not (0 < self.floor_spacing <= self.radius):
            raise InvalidConfigError("floor_spacing must be in (0, radius]")
        if self.extent <= 0 or self.corridor_spacing <= 0:
            raise InvalidConfigError("extent and corridor_spacing must be positive")
        if max(nx - 1, 0) * self.corridor_spacing > 100 * self.extent:
            raise InvalidConfigError("floor geometry does not fit a bounded box")
        if self.noise_sigma < 0:
            raise InvalidConfigError("noise_sigma must be >= 0")

    def to_json_dict(self) -> dict:
        out = {f.name: getattr(self, f.name) for f in fields(self)}
        out["corridors_per_floor"] = list(self.counts())
        out["connector_columns"] = [list(c) for c in self.connector_columns]
        return out

    @classmethod
    def from_json_dict(cls, d: Mapping) -> "BuildingConfig":
        kwargs = dict(d)

        # JSON numbers only: no strings, and no booleans where numbers go
        def num(v, kind=(int, float)) -> bool:
            return isinstance(v, kind) and not isinstance(v, bool)

        def pair(v, kind=(int, float)) -> bool:
            return (isinstance(v, (list, tuple)) and len(v) == 2
                    and all(num(x, kind) for x in v))

        checks = {"int": (lambda v: num(v, int), "an integer"),
                  "float": (num, "a number"),
                  "bool": (lambda v: isinstance(v, bool), "true or false"),
                  "corridors_per_floor": (lambda v: num(v, int) or pair(v, int),
                                          "an integer or a pair of integers"),
                  "connector_columns": (lambda v: isinstance(v, (list, tuple))
                                        and all(map(pair, v)),
                                        "a list of number pairs")}
        for f in fields(cls):
            ok, what = checks.get(f.name) or checks[f.type]
            if f.name in kwargs and not ok(v := kwargs[f.name]):
                raise InvalidConfigError(f"{f.name} must be {what}, got {v!r}")
        if not isinstance(c := kwargs.get("corridors_per_floor", 1), int):
            kwargs["corridors_per_floor"] = tuple(c)
        kwargs["connector_columns"] = tuple(
            (float(x), float(y)) for x, y in kwargs.get("connector_columns", ()))
        try:
            return cls(**kwargs)
        except TypeError as exc:
            raise InvalidConfigError(f"bad building config: {exc}") from exc


# Stairwell densification: corridors within this perpendicular distance of a
# connector column get extra nodes at these offsets along the corridor, so
# that nodes on the floor above gain several cross-floor anchors.
_STAIR_REACH = 0.6
_STAIR_OFFSETS = (-0.45, 0.0, 0.45)
_MIN_NODE_SEP = 0.05


def _lattice(offset: float, extent: float, spacing: float) -> list[float]:
    """A corridor's points before stair points: from ``offset`` in steps
    of ``spacing`` up to ``extent``, each rounded to 12 places."""
    coords = []
    t = offset
    while t <= extent + 1e-12:
        coords.append(round(t, 12))
        t += spacing
    return coords


def _corridor_coords(lattice: list[float], extent: float,
                     stair_points: Sequence[float]) -> list[float]:
    """A copy of ``lattice`` (ascending) with the stair points in
    ``[0, extent]`` added in turn, rounded to 12 places, each unless within
    ``_MIN_NODE_SEP`` of a coordinate already kept. Subtraction is
    monotone, so on either side the nearest kept coordinate is the closest:
    each point is tested against its two neighbours in the sorted list."""
    coords = list(lattice)
    for s in stair_points:
        if -1e-12 <= s <= extent + 1e-12:
            i = bisect.bisect_left(coords, s)
            near = coords[max(i - 1, 0):i + 1]
            if all(abs(s - c) > _MIN_NODE_SEP for c in near):
                coords.insert(i, round(s, 12))
    return coords


def generate_building(config: BuildingConfig) -> NetworkInstance:
    """Deterministic corridor-grid deployment per the config.

    Nodes are placed along corridor lines at ``node_spacing`` intervals;
    connector columns densify the corridors passing near them. A point
    within ``_MIN_NODE_SEP`` on both axes of an earlier kept point of its
    floor is dropped. Every floor has this same layout, and floors stack at
    ``floor_spacing``. Ids run floor by floor, then corridor by corridor
    (x-parallel first), then along the corridor. ``line_group`` ids are
    unique across the whole building, ``plane_group`` is the floor index
    (both 1-based).
    """
    config.validate()
    nx, ny = config.counts()
    half = config.node_spacing / 2.0
    xs, ys, ks = [], [], []     # one floor's candidate points and corridors
    lattices = {}               # one per stagger offset, for this call
    for k in range(nx + ny):
        i, a = (k, 0) if k < nx else (k - nx, 1)   # a: the axis run along
        c = i * config.corridor_spacing
        offset = half if (config.stagger and i % 2 == 1) else 0.0
        if offset not in lattices:
            lattices[offset] = _lattice(offset, config.extent,
                                        config.node_spacing)
        stair = [col[a] + t for col in config.connector_columns
                 if abs(c - col[1 - a]) <= _STAIR_REACH
                 for t in _STAIR_OFFSETS]
        along = _corridor_coords(lattices[offset], config.extent, stair)
        xs += along if a == 0 else [c] * len(along)
        ys += [c] * len(along) if a == 0 else along
        ks += [k] * len(along)
    if not xs:
        raise InvalidConfigError("configuration produces no nodes")
    xy = np.array([xs, ys], dtype=float).T
    if not np.isfinite(xy).all():
        raise InvalidConfigError("corridor coordinates must be finite")
    # pairs within _MIN_NODE_SEP on both axes, taken by their later point:
    # it is dropped iff the earlier one is kept
    u, v, _ = WindowIndex(xy, 2 * _MIN_NODE_SEP).pairs()
    clash = np.all(np.abs(xy[u] - xy[v]) <= _MIN_NODE_SEP, axis=1)
    keep = [True] * len(xs)
    for later, earlier in sorted(zip(v[clash].tolist(), u[clash].tolist())):
        if keep[earlier]:
            keep[later] = False
    keep = np.array(keep)
    floors, k = np.arange(config.floors), np.array(ks)[keep]
    positions = np.column_stack([np.tile(xy[keep], (len(floors), 1)),
                                 np.repeat(floors * config.floor_spacing,
                                           len(k))])
    edges = udg_edges(positions, config.radius)
    if config.noise_sigma > 0:
        edges = _with_noise(edges, config.noise_sigma, config.radius,
                            make_rng(config.rng_seed))
    n = len(positions)
    line = (floors[:, None] * (nx + ny) + 1 + k).ravel().astype(np.int64)
    plane = np.repeat(floors + 1, len(k)).astype(np.int64)
    return NetworkInstance._from_columns(
        tuple(line.tolist()), tuple(plane.tolist()), positions,
        np.ones(n, dtype=bool), config.radius,
        _checked_adjacency(edges, n, config.radius),
        {COLLINEAR: line, COPLANAR: plane})


def flagship_building_config(seed: int = 42) -> BuildingConfig:
    """The 3-floor sparse corridor building with a single stairwell column."""
    return BuildingConfig(
        floors=3, floor_spacing=0.8, corridors_per_floor=4, node_spacing=0.9,
        radius=1.0, connector_columns=((3.6, 0.675),), rng_seed=seed,
        corridor_spacing=0.45, extent=6.3, stagger=True)


# ---------------------------------------------------------------------------
# JSON interchange
# ---------------------------------------------------------------------------

def network_to_json_dict(instance: NetworkInstance) -> dict:
    nodes = []
    for u, (line, plane, pos, has) in enumerate(zip(
            instance.line_group, instance.plane_group,
            instance.true_pos.tolist(), instance.has_pos.tolist())):
        rec = {"id": u}
        if line is not None:
            rec["line_group"] = line
        if plane is not None:
            rec["plane_group"] = plane
        if has:
            rec["pos"] = pos
        nodes.append(rec)
    u, v, d = (x.tolist() for x in instance.edge_arrays())
    return {
        "radius": instance.radius,
        "nodes": nodes,
        "edges": [{"u": a, "v": b, "dist": w} for a, b, w in zip(u, v, d)],
    }


def network_from_json_dict(data: Mapping) -> NetworkInstance:
    try:
        radius = float(data["radius"])
        nodes = []
        for rec in data["nodes"]:
            pos = rec.get("pos")
            if pos is not None:
                pos = tuple(float(x) for x in pos)
                if len(pos) not in (2, 3) or not all(map(math.isfinite, pos)):
                    raise ValueError(f"node {rec['id']} pos {rec['pos']} is "
                                     "not 2 or 3 finite numbers")
                if len(pos) == 2:
                    pos = (pos[0], pos[1], 0.0)
            nodes.append(NodeRecord(int(rec["id"]), pos, rec.get("line_group"),
                                    rec.get("plane_group")))
        nodes.sort(key=lambda nd: nd.id)
        edges = [(int(e["u"]), int(e["v"]), float(e["dist"]))
                 for e in data["edges"]]
    except (KeyError, TypeError, ValueError) as exc:
        raise InvalidInputError(f"malformed network JSON: {exc}") from exc
    return NetworkInstance(nodes, edges, radius)


def save_network(instance: NetworkInstance, path: str) -> None:
    with open(path, "w") as fh:
        json.dump(network_to_json_dict(instance), fh, indent=1)


def load_network(path: str) -> NetworkInstance:
    with open(path) as fh:
        return network_from_json_dict(json.load(fh))
