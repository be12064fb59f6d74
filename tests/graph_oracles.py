"""Brute-force oracles for the claw, net and Hamiltonian-path searches of
:mod:`hyperloc.intervals`, an id-keyed form of its LBFS, and id-keyed views
of a graph's adjacency, used only by the tests."""

from __future__ import annotations

import itertools

from hyperloc.errors import HyperlocError
from hyperloc.intervals import Graph, InducedClaw, InducedNet, _lbfs_local


class SizeLimitError(HyperlocError):
    """An oracle's input is beyond its size cap."""

    code = "size-limit"


def adjacency(graph: Graph) -> dict[int, frozenset[int]]:
    """Each vertex id's neighbour ids."""
    nodes = graph.nodes
    return {u: frozenset(nodes[w] for w in graph.row(i))
            for i, u in enumerate(nodes)}


def edge_list(graph: Graph) -> tuple[tuple[int, int], ...]:
    """Every edge as ``(u, v)`` by id with ``u < v``, in lexicographic
    order."""
    nodes = graph.nodes
    a, b, _ = graph.edge_ends()
    return tuple((nodes[i], nodes[j]) for i, j in zip(a.tolist(), b.tolist()))


def is_path(graph: Graph, seq) -> bool:
    """True if every two consecutive ids of ``seq`` are adjacent."""
    adj = adjacency(graph)
    return all(b in adj[a] for a, b in zip(seq, seq[1:]))


def _lbfs(graph: Graph, start: int, tie_order) -> list[int]:
    """``intervals._lbfs_local`` on ids: ``start`` first, ties going to the
    latest in ``tie_order`` (LBFS+), or to the smallest id without one."""
    idx = {u: i for i, u in enumerate(graph.nodes)}
    order = _lbfs_local(graph, idx[start], None if tie_order is None
                        else [idx[u] for u in tie_order])
    return [graph.nodes[i] for i in order]


def claw_oracle(graph: Graph) -> InducedClaw | None:
    """Exhaustive 4-subset scan; first claw by (center, sorted leaves)."""
    best, adj = None, adjacency(graph)
    for quad in itertools.combinations(graph.nodes, 4):
        for c in quad:
            leaves = tuple(sorted(u for u in quad if u != c))
            if all(u in adj[c] for u in leaves) and \
                    not any(v in adj[u]
                            for u, v in itertools.combinations(leaves, 2)):
                key = (c, leaves)
                if best is None or key < best:
                    best = key
    if best is None:
        return None
    return InducedClaw(center=best[0], leaves=best[1])


def net_oracle(graph: Graph) -> InducedNet | None:
    """Exhaustive net search; first net by (triangle, pendants).

    Triangles are scanned in index order; for each, only the private
    neighbours of its corners (adjacent to that corner alone) can be its
    pendants, tried in index order until three are pairwise non-adjacent.
    """
    nodes = graph.nodes
    idx = {u: i for i, u in enumerate(nodes)}
    adj = adjacency(graph)
    bits = [sum(1 << idx[v] for v in adj[u]) for u in nodes]

    def members(mask: int) -> list[int]:
        return [i for i in range(mask.bit_length()) if (mask >> i) & 1]

    for a in range(len(nodes)):
        for b in members(bits[a] >> (a + 1) << (a + 1)):
            for c in members((bits[a] & bits[b]) >> (b + 1) << (b + 1)):
                private = [members(bits[u] & ~bits[v] & ~bits[w])
                           for u, v, w in ((a, b, c), (b, a, c), (c, a, b))]
                for x, y, z in itertools.product(*private):
                    if not ((bits[x] >> y) & 1 or (bits[x] >> z) & 1
                            or (bits[y] >> z) & 1):
                        return InducedNet(
                            triangle=(nodes[a], nodes[b], nodes[c]),
                            pendants=(nodes[x], nodes[y], nodes[z]))
    return None


def hamiltonian_oracle(graph: Graph) -> list[int] | None:
    """Exhaustive Hamiltonian path search, lexicographically smallest.

    Capped at n <= 12; raises a size-limit error beyond that.
    """
    if graph.n > 12:
        raise SizeLimitError(f"hamiltonian_oracle capped at n=12, got {graph.n}")
    if graph.n == 0:
        return []
    if graph.n == 1:
        return [graph.nodes[0]]
    n = graph.n
    nodes = graph.nodes
    adj_bits = []
    idx = {u: i for i, u in enumerate(nodes)}
    adj = adjacency(graph)
    for u in nodes:
        bits = 0
        for v in adj[u]:
            bits |= 1 << idx[v]
        adj_bits.append(bits)
    dead: set[tuple[int, int]] = set()

    def dfs(last: int, mask: int, path: list[int]) -> list[int] | None:
        if mask == (1 << n) - 1:
            return path
        if (last, mask) in dead:
            return None
        nxt = adj_bits[last] & ~mask
        while nxt:
            b = nxt & -nxt
            nxt ^= b
            v = b.bit_length() - 1
            res = dfs(v, mask | b, path + [v])
            if res is not None:
                return res
        dead.add((last, mask))
        return None

    for start in range(n):
        res = dfs(start, 1 << start, [start])
        if res is not None:
            return [nodes[i] for i in res]
    return None
