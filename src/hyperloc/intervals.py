"""The package's graph type, claw and net detection, and linear orders.

The searches operate on the induced subgraph of one collinear group, which
on a valid deployment is a connected unit interval graph and therefore
admits a Hamiltonian path readable off a proper-interval vertex ordering.
"""

from __future__ import annotations

import functools
import itertools
from typing import Iterable, NamedTuple, Sequence

import numpy as np

from .errors import InvalidInputError, NoHamiltonianPathError


def _rows(n: int, a: np.ndarray, b: np.ndarray
          ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Read-only ``start`` and ``nbr`` of the edges ``(a[i], b[i])`` over
    ``0..n-1``, and per slot the ``i`` of its edge (the first of repeats).

    Edges in ``udg_edges`` order (``a < b``, keys ``a * n + b`` strictly
    ascending) are placed by counting. Row u is its lower neighbours, the
    edges with ``b == u`` in input order, then its higher ones, the edges
    with ``a == u``, which are one run of the input. So ``start`` is the
    cumulative sum of the two ``bincount``s, and each slot is its run's
    offset in the row plus its rank in the run: one stable ``argsort`` of
    ``b`` groups the lower runs. Any other input goes through one
    ``np.unique`` over the keys of both directions."""
    a, b = np.asarray(a, dtype=np.intp), np.asarray(b, dtype=np.intp)
    m, keys = len(a), a * n + b
    if (a < b).all() and (keys[1:] > keys[:-1]).all():
        lower, higher = np.bincount(b, minlength=n), np.bincount(a, minlength=n)
        start = np.zeros(n + 1, dtype=np.intp)
        np.cumsum(lower + higher, out=start[1:])
        # a slot is its edge's place in the input (or in b's order) plus,
        # per vertex, the shift from where its run starts there to where it
        # starts in the row: after the lower run for the higher one
        by_b, edges = np.argsort(b, kind="stable"), np.arange(m)
        up = edges + (start[:-1] + lower - (np.cumsum(higher) - higher))[a]
        down = edges + (start[:-1] - (np.cumsum(lower) - lower))[b[by_b]]
        nbr, first = np.empty(2 * m, np.intp), np.empty(2 * m, np.intp)
        nbr[up], nbr[down] = b, a[by_b]
        first[up], first[down] = edges, by_b
    else:
        keys, first = np.unique(np.concatenate([keys, b * n + a]),
                                return_index=True)
        src, nbr = np.divmod(keys, max(n, 1))
        start = np.zeros(n + 1, dtype=np.intp)
        np.cumsum(np.bincount(src, minlength=n), out=start[1:])
        first %= max(m, 1)
    start.flags.writeable = nbr.flags.writeable = False
    return start, nbr, first


class Graph:
    """Immutable undirected graph keyed by arbitrary integer ids.

    Vertex ``i`` is ``nodes[i]``, ids ascending (in ``within``, per block).
    The adjacency, the package's one layout, is compressed over these local
    indices: vertex i's neighbours are ``nbr[start[i]:start[i + 1]]``,
    ascending, and each position of ``nbr`` is a slot. The row methods work
    on local indices, and ``pair_slots`` is the one array lookup of pairs.
    """

    def __init__(self, nodes: Iterable[int], edges: Iterable[tuple[int, int]]):
        self.nodes = tuple(sorted(set(nodes)))
        idx = {u: i for i, u in enumerate(self.nodes)}
        ends = []
        for u, v in edges:
            if u == v or u not in idx or v not in idx:
                raise InvalidInputError(f"bad edge ({u},{v})")
            ends.append((idx[u], idx[v]))
        a, b = np.array(ends, dtype=np.intp).reshape(-1, 2).T
        self.start, self.nbr, _ = _rows(self.n, a, b)

    @classmethod
    def from_pairs(cls, n: int, a: np.ndarray, b: np.ndarray
                   ) -> tuple["Graph", np.ndarray]:
        """Graph on ``0..n-1`` with the edges ``(a[i], b[i])``, ``a[i] !=
        b[i]``, both in range; and per slot the index ``i`` of its edge, so
        that per-edge values can be laid out along the rows."""
        graph = cls.__new__(cls)
        graph.nodes = tuple(range(n))
        graph.start, graph.nbr, edge = _rows(n, a, b)
        return graph, edge

    @property
    def n(self) -> int:
        return len(self.nodes)

    @functools.cached_property
    def _lists(self) -> tuple[list[int], list[int]]:
        """``start`` and ``nbr`` as lists: the one-row reads come from
        Python loops, where a list slice is cheaper than an array slice."""
        return self.start.tolist(), self.nbr.tolist()

    def degrees(self) -> np.ndarray:
        return np.diff(self.start)

    def row(self, i: int) -> list[int]:
        """Neighbours of vertex ``i``, ascending."""
        start, nbr = self._lists
        return nbr[start[i]:start[i + 1]]

    def row_entries(self, rows: np.ndarray
                    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Every entry of the given rows, row after row: the position in
        ``rows`` of its row, its neighbour and its slot."""
        rows = np.asarray(rows, dtype=np.intp)
        counts = self.start[rows + 1] - self.start[rows]
        owner = np.repeat(np.arange(len(rows)), counts)
        # each row's slots, shifted from its offset in the output
        slots = np.arange(counts.sum()) + np.repeat(
            self.start[rows] - (np.cumsum(counts) - counts), counts)
        return owner, self.nbr[slots], slots

    @functools.cached_property
    def _keys(self) -> np.ndarray:
        """Slot keys ``i * n + j``, ascending, and ``n * n`` to end them."""
        src = np.repeat(np.arange(self.n), self.degrees())
        return np.append(src * self.n + self.nbr, self.n * self.n)

    def pair_slots(self, u, v) -> np.ndarray:
        """Slot of ``v[i]`` in row ``u[i]``, or -1 where the row does not
        hold it or either is not a vertex, by one ``searchsorted`` over the
        slot keys; without the range check ``(0, n)`` would read ``(1, 0)``."""
        u, v = np.asarray(u, dtype=np.intp), np.asarray(v, dtype=np.intp)
        n, keys = self.n, self._keys
        inside = (np.minimum(u, v) >= 0) & (np.maximum(u, v) < n)
        q = np.where(inside, u * n + v, -1)     # -1: below every key
        at = keys.searchsorted(q)
        return np.where(keys[at] == q, at, -1)

    def edge_ends(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Local indices ``a < b`` of every edge, in lexicographic order,
        and the slot of ``b`` in row ``a``."""
        src = np.repeat(np.arange(self.n), self.degrees())
        up = np.flatnonzero(self.nbr > src)
        return src[up], self.nbr[up], up

    def is_connected(self) -> bool:
        start, nbr = self._lists
        seen, stack = {0}, [0]
        while stack and len(seen) < self.n:
            u = stack.pop()
            new = set(nbr[start[u]:start[u + 1]]) - seen
            seen |= new
            stack += new
        return len(seen) >= self.n

    @functools.cached_property
    def _sweeps(self) -> tuple[list[int], bool]:
        """The order of the 3-sweep unit-interval recognition (Corneil
        2004), in local indices, run once per graph with LBFS+ sweeps of
        O(n + m) each, and whether it is a proper-interval ordering.

        The certificate is the umbrella property: every closed neighbourhood
        occupies contiguous positions of the order (Looges & Olariu 1993).
        It is checked, not assumed, so it is sound whatever the sweeps
        return. A proper interval graph has no induced claw and no induced
        net, whose pendants form an asteroidal triple (Roberts 1969).

        The sweeps stop at the first certified one, which is then the last
        sweep up to reversal: on an umbrella order s, LBFS+ from s[-1], ties
        going to the latest in s, returns reversed(s). Proof: by induction
        the visited set is a suffix of s. An unvisited vertex v's closed
        neighbourhood is contiguous, so its visited neighbours are the
        visited positions up to its last neighbour's position r(v), and its
        label grows with r(v). r is non-decreasing along s (if u before v
        has a neighbour w after v, v is adjacent to w too), so the last
        unvisited vertex of s has the largest label and, the latest in s
        among its ties, goes next. Twins and disconnected graphs need no
        special case.

        The first sweep is LBFS+ from the last vertex of the reversed index
        order, ties going to the latest in it, so it returns the index order
        whenever that order is certified. That is tested first, and then no
        sweep runs (``generate_building`` numbers each corridor in order).
        """
        s1 = list(range(self.n))
        if self.n == 0 or self.umbrella(s1).all() or self.umbrella(
                s1 := _lbfs_local(self, 0, None)).all():
            return s1, True
        s2 = _lbfs_local(self, s1[-1], s1)
        if self.umbrella(s2).all():
            return s2, True
        s3 = _lbfs_local(self, s2[-1], s2)
        return s3, bool(self.umbrella(s3).all())

    def umbrella(self, order) -> np.ndarray:
        """Per vertex, whether its closed neighbourhood occupies contiguous
        positions of ``order`` (local indices): one min and one max per row."""
        pos = np.empty(self.n, dtype=np.intp)
        pos[order] = np.arange(self.n)
        deg = self.degrees()
        lo, hi = pos.copy(), pos.copy()
        rows = np.flatnonzero(deg)
        if rows.size:
            at = pos[self.nbr]
            lo[rows] = np.minimum(lo[rows],
                                  np.minimum.reduceat(at, self.start[rows]))
            hi[rows] = np.maximum(hi[rows],
                                  np.maximum.reduceat(at, self.start[rows]))
        return hi - lo == deg

    @classmethod
    def from_instance(cls, instance, node_ids: Iterable[int] | None = None) -> "Graph":
        """The instance's own graph (all nodes, the default), or its induced
        subgraph on ``node_ids``, sliced from the instance's rows. Ids the
        instance does not have stay isolated vertices."""
        if node_ids is None:
            return instance.graph
        ids = np.array(sorted(set(node_ids)), dtype=np.intp)
        graph, _ = cls.within(instance.graph, ids, np.zeros_like(ids))
        return graph

    @classmethod
    def within(cls, whole: "Graph", ids: np.ndarray, block: np.ndarray
               ) -> tuple["Graph", np.ndarray]:
        """The edges of ``whole`` between ids of one block, as a graph whose
        vertex i is ``ids[i]`` in block ``block[i]`` (ids ascend within a
        block, so ``nodes`` ascends when there is one block; ids ``whole``
        lacks are isolated), and per slot its slot in ``whole``."""
        known = np.flatnonzero((ids >= 0) & (ids < whole.n))
        local = np.full(whole.n, -1, dtype=np.intp)
        local[ids[known]] = known
        owner, to, slot = whole.row_entries(ids[known])
        owner, to = known[owner], local[to]
        keep = (to >= 0) & (block[to] == block[owner])
        graph = cls.__new__(cls)
        graph.nodes = tuple(ids.tolist())
        # rows follow ids, and within a block so do their neighbours
        graph.start = np.searchsorted(owner[keep], np.arange(len(ids) + 1))
        graph.nbr = to[keep]
        graph.start.flags.writeable = graph.nbr.flags.writeable = False
        return graph, slot[keep]


class InducedClaw(NamedTuple):
    """K_{1,3}: center adjacent to three pairwise non-adjacent leaves."""

    center: int
    leaves: tuple[int, int, int]


class InducedNet(NamedTuple):
    """Triangle with one pendant per triangle vertex, pendants independent."""

    triangle: tuple[int, int, int]
    pendants: tuple[int, int, int]


def find_claw(graph: Graph) -> InducedClaw | None:
    """First induced claw by (center, sorted leaves), or None.

    Returns None at once when the graph's cached sweeps certify a proper
    interval graph (see ``Graph._sweeps``: the index order, else O(n + m)
    LBFS+ sweeps, stopped at the first umbrella order). Otherwise searches each
    center's row, in order, for three pairwise non-adjacent neighbours,
    narrowing the later leaves to each first leaf's non-neighbours.
    """
    if graph._sweeps[1]:
        return None
    rows = [graph.row(i) for i in range(graph.n)]
    nodes = graph.nodes
    for c, nb in enumerate(rows):
        for i, x in enumerate(nb):
            far = [y for y in nb[i + 1:] if y not in rows[x]]
            for j, y in enumerate(far):
                for z in far[j + 1:]:
                    if z not in rows[y]:
                        return InducedClaw(
                            center=nodes[c],
                            leaves=(nodes[x], nodes[y], nodes[z]))
    return None


def find_net(graph: Graph) -> InducedNet | None:
    """First induced net by (sorted triangle, pendants), or None.

    Returns None at once when the graph's cached sweeps certify a proper
    interval graph (see ``Graph._sweeps``: the index order, else O(n + m)
    LBFS+ sweeps, stopped at the first umbrella order). Otherwise scans the
    triangles ``a < b < c`` over the rows in order; a corner's pendant can
    only be one of its private neighbours (adjacent to neither other
    corner), tried in order until three are pairwise non-adjacent.
    """
    if graph._sweeps[1]:
        return None
    rows = [graph.row(i) for i in range(graph.n)]
    nodes = graph.nodes
    for a, row_a in enumerate(rows):
        for b in row_a:
            if b <= a:
                continue
            for c in rows[b]:
                if c <= b or c not in row_a:
                    continue
                private = [[x for x in rows[t] if x not in rows[o]
                            and x not in rows[p]]
                           for t, o, p in ((a, b, c), (b, a, c), (c, a, b))]
                for x, y, z in itertools.product(*private):
                    if not (y in rows[x] or z in rows[x] or z in rows[y]):
                        return InducedNet(
                            triangle=(nodes[a], nodes[b], nodes[c]),
                            pendants=(nodes[x], nodes[y], nodes[z]))
    return None


# ---------------------------------------------------------------------------
# proper-interval ordering via LBFS+ sweeps
# ---------------------------------------------------------------------------

class LinearOrder(NamedTuple):
    """A Hamiltonian path of a group's induced subgraph."""

    sequence: tuple[int, ...]


def _lbfs_local(graph: Graph, start: int,
                tie_order: Sequence[int] | None) -> list[int]:
    """Lexicographic BFS by partition refinement (Habib, McConnell, Paul &
    Viennot 2000), O(n + m) per sweep, over local vertex indices.

    ``start`` goes first. Among vertices with equal labels the one latest in
    ``tie_order`` goes first (LBFS+), or the smallest index when there is no
    tie order.
    """
    n = graph.n
    rest = range(n) if tie_order is None else reversed(tie_order)
    init = np.array([start] + [u for u in rest if u != start], dtype=np.intp)
    rank = np.empty(n, dtype=np.intp)
    rank[init] = np.arange(n)
    # Neighbour ranks of each rank in ascending order, so that the part
    # split off a class keeps the tie order of the class it came from:
    # nbrs[off[r]:off[r + 1]] for rank r.
    deg = graph.degrees()
    by_rank = np.argsort(rank[np.repeat(np.arange(n), deg)] * n
                         + rank[graph.nbr])
    nbrs = rank[graph.nbr][by_rank].tolist()
    off = [0, *np.cumsum(deg[init]).tolist()]
    # Classes of equal label, in decreasing label order, form a linked list
    # behind the sentinel class 0. Class c lists its ranks in ascending order
    # in members[c] from head[c] on; a listed rank r is still in c only while
    # where[r] == c (a visited rank is in class 0). A split inserts the new
    # class right before the old one, so c was split at this step exactly
    # when prv[c] is at least ``fresh``, the first class made at this step.
    where = [1] * n
    members = [[], list(range(n))]
    head = [0, 0]
    nxt = [1, -1]
    prv = [-1, 0]
    order = []
    for _ in range(n):
        c = nxt[0]
        while True:
            m, h = members[c], head[c]
            while h < len(m) and where[m[h]] != c:
                h += 1
            if h < len(m):
                break
            c = nxt[c]
            nxt[0], prv[c] = c, 0
        head[c] = h + 1
        u = m[h]
        where[u] = 0
        order.append(u)
        fresh = len(members)
        for w in nbrs[off[u]:off[u + 1]]:
            c = where[w]
            if c == 0:
                continue
            new = prv[c]
            if new < fresh:
                p, new = new, len(members)
                members.append([w])
                head.append(0)
                nxt.append(c)
                prv.append(p)
                nxt[p] = prv[c] = new
            else:
                members[new].append(w)
            where[w] = new
    return init[order].tolist()


def unit_interval_order(graph: Graph) -> LinearOrder:
    """Hamiltonian path consistent with a 1D realization of the graph.

    Reads the graph's cached order (Corneil 2004; see ``Graph._sweeps``),
    the smaller end id first. The order is accepted only when certified and
    its consecutive vertices are adjacent: failure signals the group is not
    a realizable collinear group. On a certified order a gap between
    consecutive vertices means the graph is disconnected (by the umbrella
    property, any edge across the gap would make its two ends adjacent), so
    only an uncertified graph is searched for connectivity.
    """
    if graph.n == 0:
        raise InvalidInputError("empty graph")
    order, certified = graph._sweeps
    if not certified and not graph.is_connected():
        raise InvalidInputError("group subgraph must be connected")
    seq = [graph.nodes[i] for i in order]
    gaps = np.flatnonzero(graph.pair_slots(order[:-1], order[1:]) < 0)
    if gaps.size:
        if certified:
            raise InvalidInputError("group subgraph must be connected")
        a, b = seq[gaps[0]], seq[gaps[0] + 1]
        raise NoHamiltonianPathError(
            f"ordering breaks at ({a},{b}); no monotone 1D order found")
    if not certified:
        raise NoHamiltonianPathError("no certified proper-interval order")
    if seq[0] > seq[-1]:
        seq.reverse()
    return LinearOrder(sequence=tuple(seq))
