"""Constructive hardness gadget: hypergraph 2-coloring vs line groupability.

A 3-uniform hypergraph is materialized as a 2D unit disk deployment on a
set of axis-parallel lines: one black vertical line per hypergraph vertex,
a black main line and support line, and a red/blue mirrored pair of edge
lines per hyperedge. Each edge's three member lines carry flag triangles on
the edge-line pair, joined by chains of relay tokens; the recorded graph
pins which placements of the movable parts (per-line vertical/horizontal
flips, per-chain side choice) realize the graph exactly with every node on
a line. A per-line vertical flip encodes the vertex color (the side of the
edge-line pair its flags vacate). The reduction is sound: every
configuration that realizes the graph induces a proper coloring (tested on
every hypergraph with at most 6 vertices and 4 edges). Completeness is
open: some proper colorings are induced by no valid configuration, the
smallest case being edges {012, 013, 023} (8 colorings, 6 configurations).

Within the desk-scale caps every 3-uniform hypergraph is 2-colorable (the
smallest non-2-colorable one has seven edges), so the canonical layout can
be built from a brute-forced proper coloring and is itself a valid
configuration.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field, replace
from typing import NamedTuple

import numpy as np

from .errors import HyperlocError, InvalidInputError, SizeCapError
from .model import (Hyperplane, NetworkInstance, _checked_adjacency,
                    _non_integer, _stacked_edges, udg_edges)

MAX_VERTICES = 8
MAX_EDGES = 4
COLORING_CAP = 20

RADIUS = 1.0
VSPACE = 2.5            # vertex-line spacing, inside the open interval (2, 3)
FOOT_Y = 0.95           # first vertex-line node above/below the main line
LOW_FILL_TOP = 3.4      # vertex-line chain stops a safe unit below edge lines
APEX_DX = 0.8           # flag apex offset: facing apexes sit 2.5 - 1.6 apart
BASE_DY = 0.5           # flag base nodes at edge-line height +- this
EDGE_Y0 = 4.5           # first edge-line offset from the main line
EDGE_DY = 2.0           # consecutive same-color edge-line spacing
TOKEN_END = 1.25        # chain endpoints this far from their member lines
TOKEN_STEP = 0.85
SUPPORT_Y = 0.3

RED, BLUE = 0, 1
COLOR_NAMES = {RED: "red", BLUE: "blue"}


# ---------------------------------------------------------------------------
# hypergraphs and 2-colorings
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Hypergraph3U:
    """3-uniform hypergraph on vertices 0..n-1; the vertex count and ids
    are integers, Python or NumPy, and not bools."""

    n_vertices: int
    edges: tuple[tuple[int, int, int], ...]

    def __post_init__(self):
        n = self.n_vertices
        if _non_integer([n], {type(n)}) >= 0:
            raise InvalidInputError(f"vertex count {n!r} is not an integer")
        if n < 0:
            raise InvalidInputError("vertex count must be nonnegative")
        ids = [v for e in self.edges for v in e]
        if (i := _non_integer(ids, set(map(type, ids)))) >= 0:
            raise InvalidInputError(f"vertex id {ids[i]!r} is not an integer")
        norm = []
        seen = set()
        for e in self.edges:
            t = tuple(sorted(int(v) for v in e))
            if len(set(t)) != 3:
                raise InvalidInputError(f"edge {e} must have 3 distinct vertices")
            if not all(0 <= v < self.n_vertices for v in t):
                raise InvalidInputError(f"edge {e} out of vertex range")
            if t in seen:
                raise InvalidInputError(f"duplicate edge {t}")
            seen.add(t)
            norm.append(t)
        object.__setattr__(self, "edges", tuple(norm))

    @classmethod
    def from_text(cls, text: str) -> "Hypergraph3U":
        """Line 1: ``n m``; then exactly m non-empty lines of three 0-based
        vertex indices."""
        lines = [ln for ln in text.splitlines() if ln.strip()]
        if not lines:
            raise InvalidInputError("empty hypergraph file")
        try:
            n, m = (int(t) for t in lines[0].split())
            edges = [tuple(int(t) for t in ln.split()) for ln in lines[1:]]
        except ValueError as exc:
            raise InvalidInputError(f"malformed hypergraph text: {exc}") from exc
        if len(edges) != m:
            raise InvalidInputError("edge count does not match header")
        return cls(n_vertices=n, edges=tuple(edges))

    def to_text(self) -> str:
        out = [f"{self.n_vertices} {len(self.edges)}"]
        out += [" ".join(str(v) for v in e) for e in self.edges]
        return "\n".join(out) + "\n"


def two_colorings(h: Hypergraph3U) -> list[tuple[int, ...]]:
    """Exhaustive list of proper 2-colorings (no monochromatic edge)."""
    if h.n_vertices > COLORING_CAP:
        raise SizeCapError(f"two_colorings capped at {COLORING_CAP} vertices")
    # bit v of a mask is vertex v's color; an edge is monochromatic under a
    # mask holding none or all of its three bits
    masks = np.arange(1 << h.n_vertices)
    proper = np.ones(len(masks), dtype=bool)
    for a, b, c in h.edges:
        edge = (1 << a) | (1 << b) | (1 << c)
        held = masks & edge
        proper &= (held != 0) & (held != edge)
    bits = (masks[proper, None] >> np.arange(h.n_vertices)) & 1
    return [tuple(colors) for colors in bits.tolist()]


# ---------------------------------------------------------------------------
# gadget construction
# ---------------------------------------------------------------------------

class FlipConfiguration(NamedTuple):
    """Per vertex line: vertical-flip bit and horizontal-flip bit."""

    vertical: tuple[bool, ...]
    horizontal: tuple[bool, ...]


class _Wire(NamedTuple):
    half: str                   # "A" (left..mid) or "B" (mid..right)
    end_vertices: tuple[int, int]
    end_apexes: tuple[int, int]  # node id of coupled apex, node id of probed apex
    token_ids: tuple[int, ...]


@dataclass(frozen=True)
class _NodeArrays:
    """The gadget's node table, one row per node id: kind (fixed | line |
    apex | token) and owner (hypergraph vertex of a line or apex node, wire
    of a token, else -1); the canonical positions are the instance's first
    ``len(kind)`` rows. Built once per gadget with what the flip rule reads:
    the x of each vertex line and the ids of the nodes a flip moves (line
    and apex nodes; apexes; tokens)."""

    kind: np.ndarray
    owner: np.ndarray
    line_x: np.ndarray
    flips: np.ndarray
    apexes: np.ndarray
    tokens: np.ndarray


@dataclass
class GadgetInstance:
    """Generated deployment plus the bookkeeping tying it back to H.

    Hyperplane v is vertex v's line, and a flag's first node is its apex."""

    hypergraph: Hypergraph3U
    instance: NetworkInstance
    hyperplanes: list[tuple[Hyperplane, str, str]]   # (plane, color, label)
    dim: int = 2
    base_coloring: tuple[int, ...] = ()
    order: tuple[int, ...] = ()                      # vertex per line position
    flag_nodes: dict[tuple[int, int], tuple[int, ...]] = field(default_factory=dict)
    _wires: list[_Wire] = field(default_factory=list)
    _arrays: _NodeArrays | None = None


def _line_x(pos):
    return VSPACE * pos


def _edge_line_y(f: int) -> float:
    return EDGE_Y0 + EDGE_DY * f


def _sign(color: int) -> int:
    # flags of a red vertex sit on the blue (lower) side and vice versa
    return 1 if color == BLUE else -1


def _choose_order(h: Hypergraph3U) -> tuple[int, ...]:
    """Left-to-right layout of the vertex lines.

    An edge is clean when its positionally middle vertex is the middle of
    no other edge and an end of none, which keeps that vertex's horizontal
    flip free to witness the edge's constraint. The layout is the first
    order, in lexicographic permutation order, with the most clean edges.

    An edge's middle is the second of its members placed, so the layout is
    found by a memoized search over states, after Held & Karp 1962; a
    search, as exact betweenness ordering is NP-complete (Opatrny 1979).
    A state is one int: bits 0-7 the edge vertices placed, 8-15 the fixed
    middles, 16-23 the vertices that disqualify a fixed middle (one fixed
    twice, or another member of an edge whose middle is fixed), and from
    24 the count of fixed middles. Partial orders that agree on these
    reach the same states, so they are searched once. The bound, the edges
    not yet fixed plus those whose middle is not disqualified (and so fixed
    once), is ``m - fixed + popcount(middles & ~disqualified)``. It never
    rises and is the exact score once every vertex is placed. The target
    is the best bound over all choices of one middle per edge, lowered
    until the empty state reaches it; the order then takes, slot by slot,
    the smallest vertex whose next state still reaches it. A step touches
    only the edges that hold its vertex; the search branches only over
    vertices in some edge.
    """
    n = h.n_vertices
    if not h.edges or n > 8:
        return tuple(range(n))
    m = len(h.edges)
    masks = [(1 << a) | (1 << b) | (1 << c) for a, b, c in h.edges]
    full = 0
    for mask in masks:
        full |= mask
    verts = [v for v in range(n) if full >> v & 1]
    touch = [[mask for mask in masks if mask >> v & 1] for v in range(n)]

    def bound(state: int) -> int:
        alive = state >> 8 & ~(state >> 16) & 255
        return m - (state >> 24) + alive.bit_count()

    def fix(state: int, mask: int, bit: int) -> int:
        # the vertex `bit` becomes the middle of the edge `mask`
        dead = (state >> 8 & bit) | (mask ^ bit)
        return (state | dead << 16 | bit << 8) + (1 << 24)

    def step(state: int, v: int) -> int:
        # v fixes the middle of each edge of which it is the second placed
        placed, bit = state & 255, 1 << v
        for mask in touch[v]:
            if (placed & mask).bit_count() == 1:
                state = fix(state, mask, bit)
        return state | (bit & full)

    def ok(state: int) -> bool:
        # whether the state can still reach `target` clean edges, memoized
        # in `memo`; both are rebound below when the target is lowered
        if state not in memo:
            placed = state & 255
            memo[state] = bound(state) >= target and (placed == full or any(
                ok(step(state, v)) for v in verts if not placed >> v & 1))
        return memo[state]

    # the states that every choice of one middle per edge leaves
    chosen = {0}
    for mask, edge in zip(masks, h.edges):
        chosen = {fix(s, mask, 1 << v) for s in chosen for v in edge}
    target = max(map(bound, chosen))
    memo: dict = {}
    while not ok(0):
        target, memo = target - 1, {}
    state, order = 0, []
    while len(order) < n:
        v = next(v for v in range(n) if v not in order and ok(step(state, v)))
        state = step(state, v)
        order.append(v)
    return tuple(order)


def build_gadget(h: Hypergraph3U) -> GadgetInstance:
    """Materialize the reduction gadget for a capped 3-uniform hypergraph."""
    if h.n_vertices > MAX_VERTICES:
        raise SizeCapError(
            f"gadget capped at {MAX_VERTICES} vertices, got {h.n_vertices}")
    if len(h.edges) > MAX_EDGES:
        raise SizeCapError(
            f"gadget capped at {MAX_EDGES} edges, got {len(h.edges)}")
    if h.n_vertices == 0:
        raise InvalidInputError("hypergraph must have at least one vertex")
    colorings = two_colorings(h)
    if not colorings:
        raise HyperlocError("capped hypergraph is unexpectedly non-2-colorable")
    base = colorings[0]

    order = _choose_order(h)
    n = h.n_vertices
    x_of = _line_x(np.argsort(order))        # vertex v's line is at x_of[v]

    # hyperplanes: vertex lines, main, support, edge-line pairs
    hyperplanes = [(Hyperplane(normal=(1.0, 0.0), offset=x_of[v]),
                    "black", f"vertex-{v}") for v in range(n)]
    hyperplanes += [(Hyperplane(normal=(0.0, 1.0), offset=0.0),
                     "black", "main"),
                    (Hyperplane(normal=(0.0, 1.0), offset=SUPPORT_Y),
                     "black", "support")]
    for f in range(len(h.edges)):
        yf = _edge_line_y(f)
        hyperplanes += [(Hyperplane(normal=(0.0, 1.0), offset=yf),
                         "red", f"r{f + 1}"),
                        (Hyperplane(normal=(0.0, 1.0), offset=-yf),
                         "blue", f"b{f + 1}")]

    def edge_plane(f: int, sgn: int) -> int:
        # the red line of edge f above the main line, its blue mirror below
        return n + 2 + 2 * f + (sgn < 0)

    # the node table, one (kind, x, y, owner, plane) row per node id
    rows: list[tuple[str, float, float, int, int]] = []

    def add(kind, x, y, owner=-1, plane=-1) -> int:
        rows.append((kind, float(x), float(y), owner, plane))
        return len(rows) - 1

    # main line: vertex-line feet, thirds fill past every line (the last
    # one included), and a left extension whose first two interior points
    # pair with the support line into a K4 (the first line is at x = 0)
    main_xs = set(x_of.tolist())
    for p in range(n):
        main_xs.add(_line_x(p) + VSPACE / 3.0)
        main_xs.add(_line_x(p) + 2.0 * VSPACE / 3.0)
    main_xs.update([-2.5, -2.0, -1.25, -0.625])
    for x in sorted(main_xs):
        add("fixed", x, 0.0, plane=n)
    add("fixed", -2.0, SUPPORT_Y, plane=n + 1)
    add("fixed", -1.25, SUPPORT_Y, plane=n + 1)

    # vertex lines: symmetric chain from the feet up to a safe height
    step = (LOW_FILL_TOP - FOOT_Y) / 3.0
    chain = [FOOT_Y + step * k for k in range(4)]
    for v in range(n):
        for mag in chain:
            for s in (1.0, -1.0):
                add("line", x_of[v], s * mag, v, v)

    # flags: one triangle per (vertex, covering edge), an edge's members
    # taken left, mid, right; the apex vacates the mirror slot, whose color
    # is the vertex color
    members = [sorted(e, key=x_of.__getitem__) for e in h.edges]
    flag_nodes: dict[tuple[int, int], tuple[int, ...]] = {}
    for fi, (left, mid, right) in enumerate(members):
        yf = _edge_line_y(fi)
        mid_side = -1 if base[mid] != base[left] else 1
        for v, side in ((left, 1), (mid, mid_side), (right, -1)):
            sgn = _sign(base[v])
            flag_nodes[(v, fi)] = (
                add("apex", x_of[v] + side * APEX_DX, sgn * yf, v,
                    edge_plane(fi, sgn)),
                add("line", x_of[v], sgn * (yf - BASE_DY), v, v),
                add("line", x_of[v], sgn * (yf + BASE_DY), v, v))

    # relay token chains along each edge-line pair between its members, on
    # the side of the coupled end
    wires: list[_Wire] = []
    for fi, (left, mid, right) in enumerate(members):
        yf = _edge_line_y(fi)
        for half, (va, vb) in (("A", (left, mid)), ("B", (mid, right))):
            coupled, probed = (va, vb) if half == "A" else (vb, va)
            sgn = _sign(base[coupled])
            x_start = x_of[va] + TOKEN_END
            x_end = x_of[vb] - TOKEN_END
            span = x_end - x_start
            count = max(1, int(np.ceil(span / TOKEN_STEP)) + 1)
            xs = np.linspace(x_start, x_end, count) if span > 0 else [x_start]
            token_ids = tuple(add("token", x, sgn * yf, len(wires),
                                  edge_plane(fi, sgn)) for x in xs)
            wires.append(_Wire(half=half, end_vertices=(va, vb),
                               end_apexes=(flag_nodes[(coupled, fi)][0],
                                           flag_nodes[(probed, fi)][0]),
                               token_ids=token_ids))

    kind, x, y, owner, plane = zip(*rows)
    kind = np.array(kind)
    arrays = _NodeArrays(
        kind=kind, owner=np.array(owner, dtype=np.intp), line_x=x_of,
        flips=np.flatnonzero((kind == "line") | (kind == "apex")),
        apexes=np.flatnonzero(kind == "apex"),
        tokens=np.flatnonzero(kind == "token"))
    n, xy = len(kind), np.column_stack([x, y])
    instance = NetworkInstance._from_columns(
        tuple(pl + 1 for pl in plane), (None,) * n,
        np.column_stack([xy, np.zeros(n)]), np.ones(n, dtype=bool),
        RADIUS, _checked_adjacency(udg_edges(xy, RADIUS), n, RADIUS))

    g = GadgetInstance(
        hypergraph=h, instance=instance, hyperplanes=hyperplanes, dim=2,
        base_coloring=base, order=order, flag_nodes=flag_nodes,
        _wires=wires, _arrays=arrays)
    _audit_gadget(g)
    return g


def _audit_gadget(g: GadgetInstance) -> None:
    """Build-time checks of the stated geometric constraints."""
    h = g.hypergraph
    n_lines = h.n_vertices
    if n_lines >= 2 and not (2.0 < VSPACE < 3.0):
        raise HyperlocError("vertex-line spacing outside (2, 3)")
    n_horizontal = sum(1 for _, _, label in g.hyperplanes
                       if label in ("main", "support") or label[0] in "rb")
    if n_horizontal != 2 * len(h.edges) + 2:
        raise HyperlocError("horizontal line count is not 2|F| + 2")
    inst, table = g.instance, g._arrays
    x, y = inst.true_pos[:, :2].T
    fixed = table.kind == "fixed"
    on_main = fixed & (y == 0.0)
    # support K4 with two main-line nodes
    sup = np.flatnonzero(fixed & (y == SUPPORT_Y))
    partners = np.flatnonzero(
        on_main & (np.abs(x[:, None] - x[sup]) < 1e-9).any(axis=1))
    quad = sup.tolist() + partners.tolist()
    if len(quad) != 4 or not all(inst.has_edge(a, b) for a, b
                                 in itertools.combinations(quad, 2)):
        raise HyperlocError("support line does not form a K4 with the main line")
    # main-line chain gaps stay under one unit
    if np.any(np.diff(np.sort(x[on_main])) > RADIUS):
        raise HyperlocError("main-line nodes are not uniformly distributed")
    # each apex neighbors exactly its two base nodes on the vertex line
    for (v, fi), (apex, b1, b2) in g.flag_nodes.items():
        line_nbrs = [w for w in inst.neighbors(apex)
                     if table.kind[w] == "line"]
        if sorted(line_nbrs) != sorted((b1, b2)):
            raise HyperlocError(
                f"flag apex of vertex {v}, edge {fi} does not neighbor "
                "exactly its two base nodes")
    # coupled chain ends touch their apex, probed ends do not
    for w in g._wires:
        if not inst.has_edge(w.token_ids[0 if w.half == "A" else -1],
                             w.end_apexes[0]):
            raise HyperlocError("chain is not coupled to its endpoint flag")
        if inst.has_edge(w.token_ids[-1 if w.half == "A" else 0],
                         w.end_apexes[1]):
            raise HyperlocError("chain must not touch the probed flag")
    # minimum separation so the 3D lift keeps copies isolated; a pair that
    # close is an edge of the instance, whose lengths are the kernel's bits
    if np.any(inst.length < 0.1):
        raise HyperlocError("node separation too small for the 3D lift")


# ---------------------------------------------------------------------------
# configuration enumeration
# ---------------------------------------------------------------------------

def _config_positions(g: GadgetInstance, vertical, horizontal,
                      wire_signs) -> np.ndarray:
    """2D node positions implied by per-line flips and per-chain side
    choices, for a stack of k configurations: ``vertical`` and
    ``horizontal`` hold k rows of one bit per vertex line, ``wire_signs``
    k rows of one side (+1 or -1) per chain. Returns one position array
    per configuration, shape (k, nodes, 2).

    The gadget's one flip rule: a line's vertical bit mirrors its nodes and
    apexes across the main line, its horizontal bit mirrors its apexes
    across the line itself, and a chain's tokens take its sign's side.
    """
    a = g._arrays
    vertical = np.asarray(vertical, dtype=bool)
    horizontal = np.asarray(horizontal, dtype=bool)
    pos = np.repeat(g.instance.true_pos[None, :len(a.kind), :2],
                    len(vertical), axis=0)
    y = pos[:, a.flips, 1]
    pos[:, a.flips, 1] = np.where(vertical[:, a.owner[a.flips]], -y, y)
    apex_owner = a.owner[a.apexes]
    x = pos[:, a.apexes, 0]
    pos[:, a.apexes, 0] = np.where(horizontal[:, apex_owner],
                                   2.0 * a.line_x[apex_owner] - x, x)
    pos[:, a.tokens, 1] = (np.asarray(wire_signs)[:, a.owner[a.tokens]]
                           * np.abs(pos[:, a.tokens, 1]))
    return pos


def _row_pairs(cloud: np.ndarray, layers: int
               ) -> tuple[np.ndarray, np.ndarray]:
    """Each pair ``(i, j)`` of distinct rows within ``RADIUS``, once, of
    the planar ``cloud`` stacked at z = 0, ..., ``layers - 1``: row
    ``layer * len(cloud) + r`` is row ``r`` at z = ``layer``.

    Coinciding rows are queried once, which keeps the kernel's candidate
    pairs and peak memory down; each pair of positions in range, and each
    position with itself, stands for every pair of their rows. The planar
    positions are queried once and lifted to every layer by
    ``_stacked_edges``: position ``layer * K + p`` is planar position ``p``
    at z = ``layer``."""
    by_pos = np.lexsort(cloud.T[::-1])
    ordered = cloud[by_pos]
    first = np.flatnonzero(np.concatenate(
        [[True], (ordered[1:] != ordered[:-1]).any(axis=1)]))
    count = np.tile(np.diff(first, append=len(ordered)), layers)
    unique = ordered[first]
    pu, pv, _ = _stacked_edges(unique, udg_edges(unique, RADIUS),
                               np.arange(layers, dtype=float), RADIUS)
    shift = len(cloud) * np.arange(layers)[:, None]
    by_pos, first = (by_pos + shift).ravel(), (first + shift).ravel()
    pu = np.concatenate([pu, np.arange(len(first))])
    pv = np.concatenate([pv, np.arange(len(first))])
    reps = count[pu] * count[pv]
    du, dv = np.divmod(np.arange(reps.sum())
                       - np.repeat(np.cumsum(reps) - reps, reps),
                       np.repeat(count[pv], reps))
    i = by_pos[np.repeat(first[pu], reps) + du]
    j = by_pos[np.repeat(first[pv], reps) + dv]
    keep = np.repeat(pu != pv, reps) | (i < j)
    return i[keep], j[keep]


class _ConfigChecker:
    """Compiled tables over the gadget's blocks, read off one kernel query.

    The blocks are the fixed nodes (one state), each vertex line with its
    apexes (4 states ``vertical | horizontal << 1``) and each chain's
    tokens (2 sides); a lifted node's z = 1 copy joins its node's block.
    Under the one flip rule (``_config_positions``) a node's position
    depends only on its block's state, and ``udg_edges`` decides a pair
    from its two positions alone. So a configuration realizes the graph
    exactly iff, for every two blocks in their states and every block in
    its state, the pairs in range are the recorded edges.

    The labelled cloud holds every node in each of its block's states,
    placed by one stacked call of the flip rule for the four uniform
    states (every line in state s, every chain on side s & 1), in the
    plane; a lift's cloud is that one again at z = 1. The pairs in range
    are read off one planar kernel query over the distinct positions, in a
    lift lifted to both levels (``_row_pairs``). Mismatches
    (edges out of range, non-edges in range) are tallied per pair of block
    states over all pairs (``exact[A, sA, B, sB]``, with ``A == B`` inside
    a block), over apex pairs (the consecutive-line ``pair_tables``) and
    over chain tokens against their end apexes (the per-side
    ``wire_tables``); each tally is one ``np.bincount`` over the three
    layers, made symmetric by adding its transpose.
    """

    def __init__(self, g: GadgetInstance):
        self.g = g
        self.n = n = g.hypergraph.n_vertices
        a, inst = g._arrays, g.instance
        n2, n_inst = len(a.kind), inst.n
        nb = 1 + n + len(g._wires)
        block = np.zeros(n2, dtype=np.intp)
        block[a.flips] = 1 + a.owner[a.flips]
        block[a.tokens] = 1 + n + a.owner[a.tokens]
        block = np.tile(block, n_inst // n2)
        # placed[s]: every line in state s, every chain on side s & 1
        s = np.arange(4)[:, None]
        placed = _config_positions(g, (s & 1).repeat(n, axis=1),
                                   (s >> 1).repeat(n, axis=1),
                                   (2 * (s & 1) - 1).repeat(len(g._wires),
                                                            axis=1))
        rows = [np.arange(n2), np.concatenate([a.flips, a.tokens]), a.flips,
                a.flips]
        cloud = np.vstack([p[r] for p, r in zip(placed, rows)])
        # a lift's rows go on at z = 1: node n2 + u is node u's copy
        layers = g.dim - 1
        node = np.tile(np.concatenate(rows), layers)
        node[len(cloud):] += n2
        state = np.tile(np.repeat(np.arange(4), [len(r) for r in rows]),
                        layers)

        def key(x, y):
            return np.minimum(x, y) * n_inst + np.maximum(x, y)

        def among(keys, q):
            # membership of q in the sorted keys, without hashing
            return np.append(keys, -1)[np.searchsorted(keys, q)] == q

        apex = np.zeros(n_inst, dtype=bool)
        apex[a.apexes] = True
        ends = np.array([w.end_apexes for w in g._wires],
                        dtype=np.intp).reshape(-1, 2)
        links = np.sort(key(a.tokens[:, None], ends[a.owner[a.tokens]]),
                        axis=None)

        def tally(x, y, q, i, j, size, negative):
            # per layer (all pairs, apex pairs, chain tokens with their end
            # apexes), how often each pair (i, j) occurs either way round,
            # so a pair with i == j counts twice on the diagonal; pairs
            # marked `negative` count -1, the others +1. The two signs and
            # three layers are one flat index, counted by one bincount
            cells = 3 * size * size
            cell = i * size + j + negative * cells
            flat = np.concatenate([cell, cell[apex[x] & apex[y]] + size * size,
                                   cell[among(links, q)] + 2 * size * size])
            count = np.bincount(flat, minlength=2 * cells).reshape(
                2, 3, size, size)
            count = count + count.transpose(0, 1, 3, 2)
            return count[0] - count[1]

        eu, ev, _ = inst.edge_arrays()
        # the recorded edges' keys, ascending: edge_arrays runs eu < ev in
        # lexicographic order
        edge_keys = eu * n_inst + ev
        # miss: recorded edges, less those in range, plus non-edges in range
        want = tally(eu, ev, edge_keys, block[eu], block[ev], nb, False)
        miss = want.repeat(4, axis=1).repeat(4, axis=2)
        i, j = _row_pairs(cloud, layers)
        (x, y), (sx, sy) = node[[i, j]], state[[i, j]]
        keep = (x != y) & ((block[x] != block[y]) | (sx == sy))
        x, y, sx, sy = x[keep], y[keep], sx[keep], sy[keep]
        q = key(x, y)
        miss += tally(x, y, q, 4 * block[x] + sx, 4 * block[y] + sy, 4 * nb,
                      among(edge_keys, q))
        ok = (miss == 0).reshape(3, nb, 4, nb, 4)
        self.exact = ok[0]
        flagged = set(a.owner[a.apexes].tolist())
        self.pair_tables: list[tuple[int, int, np.ndarray]] = [
            (va, vb, ok[1, 1 + va, :, 1 + vb, :])
            for va, vb in zip(g.order, g.order[1:]) if {va, vb} <= flagged]
        # agree[k][s, side]: the chain on that side agrees with end k in s
        self.wire_tables: list[tuple[int, int, np.ndarray]] = []
        for c, w in enumerate(g._wires):
            agree = [ok[2, 1 + n + c, :2, 1 + v, :].T for v in w.end_vertices]
            self.wire_tables.append((*w.end_vertices,
                                     agree[0][:, None, :] & agree[1][None]))

    def admitted_states(self) -> np.ndarray:
        """Per-vertex line states that every pair table and every chain
        table admits, one row per configuration, found by a level-by-level
        walk along ``g.order``: at each slot the surviving partial rows are
        repeated once per state of that slot's line and filtered by one
        table lookup per check that the slot completes. Sorted by the key
        ``sum(state[v] << 2v)``."""
        order = self.g.order
        slot = {v: p for p, v in enumerate(order)}
        # checks[p]: (u, w, ok) tested once the line at slot p has a state
        checks: list[list] = [[] for _ in range(self.n)]
        for va, vb, table in self.pair_tables:
            checks[max(slot[va], slot[vb])].append((va, vb, table))
        for va, vb, table in self.wire_tables:
            checks[max(slot[va], slot[vb])].append((va, vb, table.any(axis=2)))
        rows = np.zeros((1, self.n), dtype=np.intp)
        for p, v in enumerate(order):
            rows = rows.repeat(4, axis=0)
            rows[:, v] = np.tile(np.arange(4), len(rows) // 4)
            for u, w, ok in checks[p]:
                rows = rows[ok[rows[:, u], rows[:, w]]]
        key = (rows << 2 * np.arange(self.n)).sum(axis=1)
        return rows[np.argsort(key)]


def _valid_rows(g: GadgetInstance) -> np.ndarray:
    """The per-vertex line states (``vertical | horizontal << 1``) of every
    flip configuration whose implied placements realize the unit disk graph
    exactly, every node on its assigned line: one row of n ints per
    configuration.

    Each configuration the pair and chain tables admit puts every chain on
    side -1 where its table allows that side, else on side +1, and is then
    checked exactly by looking up every pair of blocks, and every block, in
    ``_ConfigChecker.exact``. The rows are in increasing order of the key
    ``sum(state[v] << 2v)``.
    """
    if g.hypergraph.n_vertices > MAX_VERTICES:
        raise SizeCapError("configuration enumeration beyond the size cap")
    checker = _ConfigChecker(g)
    lines = checker.admitted_states()
    # the walk admits only states where every chain has a feasible side, so
    # a chain's block state is 1 (side +1) exactly where side -1 is not
    sides = [~table[lines[:, va], lines[:, vb], 0]
             for va, vb, table in checker.wire_tables]
    # states[k, A]: block A's state in configuration k; only the block
    # pairs A <= B that some states fail need a lookup
    exact = checker.exact
    states = np.column_stack([np.zeros(len(lines), dtype=np.intp), lines,
                              *sides])
    blk_a, blk_b = np.nonzero(np.triu(~exact.all(axis=(1, 3))))
    valid = exact[blk_a, states[:, blk_a], blk_b, states[:, blk_b]].all(axis=1)
    return lines[valid]


def enumerate_groupings(g: GadgetInstance) -> list[FlipConfiguration]:
    """All flip configurations whose implied placements realize the unit
    disk graph exactly, every node on its assigned line: the rows of
    ``_valid_rows`` as records, in the same order, which is increasing in
    the key that puts vertex v's vertical bit at bit 2v and its horizontal
    bit at bit 2v + 1.
    """
    rows = _valid_rows(g)
    bits = np.stack([rows & 1, rows >> 1], axis=1).astype(bool).tolist()
    return [FlipConfiguration(vertical=tuple(v), horizontal=tuple(h))
            for v, h in bits]


# ---------------------------------------------------------------------------
# equivalence report and 3D lift
# ---------------------------------------------------------------------------

def _equivalence_rows(g: GadgetInstance) -> tuple[dict, np.ndarray]:
    """The equivalence report's head (``colorable``, ``groupable``,
    ``agree``, ``n_colorings``, ``n_valid_configs``) and its correspondence
    as one int array of shape (k, 3, n): per valid configuration, in the
    order of ``_valid_rows``, its vertical bits, its horizontal bits and
    the color (``RED`` or ``BLUE``) it induces on each vertex."""
    colorings = two_colorings(g.hypergraph)
    colorable = bool(colorings)
    rows = _valid_rows(g)
    groupable = bool(len(rows))
    vertical = rows & 1
    # a vertex's color is that of the edge line side its flags vacate
    colors = np.asarray(g.base_coloring, dtype=np.intp) ^ vertical
    head = {
        "colorable": colorable,
        "groupable": groupable,
        "agree": colorable == groupable,
        "n_colorings": len(colorings),
        "n_valid_configs": len(rows),
    }
    return head, np.stack([vertical, rows >> 1, colors], axis=1)


def verify_equivalence(g: GadgetInstance) -> dict:
    """Brute-force both sides of the reduction for a built gadget's
    hypergraph and report agreement: the head of ``_equivalence_rows``,
    then one correspondence row per valid configuration, in their order,
    holding its vertical and horizontal bits as ints and the color name it
    induces on each vertex."""
    head, table = _equivalence_rows(g)
    correspondence = [
        {"vertical": v, "horizontal": h,
         "coloring": [COLOR_NAMES[c] for c in colors]}
        for v, h, colors in table.tolist()
    ]
    return {**head, "correspondence": correspondence}


def lift_to_3d(g: GadgetInstance) -> GadgetInstance:
    """Copy every node to z = 1; each node is adjacent to its own copy and
    to no other copy, flags become triangle prisms, lines become planes.

    Exact by construction: the 2D edges repeat on the copy, a copy edge is
    1, and the audit's 0.1 separation puts other cross pairs >= sqrt(1.01)."""
    if g.dim != 2:
        raise InvalidInputError("lift starts from a 2D gadget")
    base = g.instance
    n = base.n
    u, v, d = base.edge_arrays()
    copy = np.arange(n)
    edges = (np.concatenate([u, u + n, copy]),
             np.concatenate([v, v + n, copy + n]),
             np.concatenate([d, d, np.ones(n)]))
    pos = np.vstack([base.true_pos, base.true_pos])
    pos[n:, 2] = 1.0
    inst3 = NetworkInstance._from_columns(
        base.line_group * 2, base.plane_group * 2, pos,
        np.tile(base.has_pos, 2), RADIUS,
        _checked_adjacency(edges, 2 * n, RADIUS))
    # a 2D normal is unit length and in canonical sign, and a 0.0 appended
    # changes neither
    planes3 = [(Hyperplane._normalized((*p.normal, 0.0), p.offset), color,
                label) for p, color, label in g.hyperplanes]
    return replace(g, instance=inst3, hyperplanes=planes3, dim=3)
