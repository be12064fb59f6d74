import itertools
from collections import namedtuple
from dataclasses import replace

import numpy as np
import pytest

from hyperloc import gadget
from hyperloc.errors import HyperlocError, InvalidInputError, SizeCapError
from hyperloc.gadget import (COLOR_NAMES, RADIUS, FlipConfiguration,
                             Hypergraph3U,
                             _choose_order, _config_positions, _ConfigChecker,
                             _valid_rows, build_gadget, enumerate_groupings,
                             lift_to_3d, two_colorings, verify_equivalence)
from hyperloc.model import (Hyperplane, NetworkInstance, NodeRecord,
                            make_rng, udg_edges)

FANO = Hypergraph3U(7, (
    (0, 1, 2), (0, 3, 4), (0, 5, 6), (1, 3, 5), (1, 4, 6), (2, 3, 6),
    (2, 4, 5)))


def is_proper_coloring(h, colors):
    """No hyperedge of ``h`` is monochromatic under ``colors``."""
    return all(len({colors[a], colors[b], colors[c]}) > 1
               for a, b, c in h.edges)


def coloring_of(g, config):
    """Reference rule: the vertex colors a configuration induces, the color
    of the edge line side a vertex line's flags vacate."""
    return tuple(c ^ int(v) for c, v in zip(g.base_coloring, config.vertical))


Node = namedtuple("Node", "kind x y owner")


def nodes_of(g):
    """The gadget's node table as one ``Node`` per node id, at the base
    rows of the instance's positions."""
    t = g._arrays
    xy = g.instance.true_pos[:len(t.kind), :2]
    return [Node(k, x, y, o) for k, (x, y), o
            in zip(t.kind.tolist(), xy.tolist(), t.owner.tolist())]


def apex_of(g):
    """The apex node id of each (vertex, edge) flag: its first node."""
    return {key: ids[0] for key, ids in g.flag_nodes.items()}


def positions_of(g, config, signs):
    """One configuration's 2D positions by the package's stacked flip
    rule, as a stack of one."""
    return _config_positions(g, [config.vertical], [config.horizontal],
                             [signs])[0]


def random_hypergraph(rng, max_n=5, max_m=3, min_n=3):
    n = int(rng.integers(min_n, max_n + 1))
    triples = list(itertools.combinations(range(n), 3))
    m = int(rng.integers(1, min(max_m, len(triples)) + 1))
    idx = rng.choice(len(triples), size=m, replace=False)
    return Hypergraph3U(n, tuple(triples[i] for i in idx))


class TestHypergraph:
    def test_text_round_trip(self):
        h = Hypergraph3U(5, ((0, 1, 2), (2, 3, 4)))
        assert Hypergraph3U.from_text(h.to_text()) == h

    def test_rejects_degenerate_edge(self):
        with pytest.raises(InvalidInputError):
            Hypergraph3U(4, ((0, 1, 1),))

    def test_rejects_duplicates_and_range(self):
        with pytest.raises(InvalidInputError):
            Hypergraph3U(4, ((0, 1, 2), (2, 1, 0)))
        with pytest.raises(InvalidInputError):
            Hypergraph3U(3, ((0, 1, 5),))

    @pytest.mark.parametrize("n, edges", [
        (3, ((0, 1, 2.7),)),
        (3, ((0, True, 2),)),
        (3, (("0", "1", "2"),)),
        (3.5, ((0, 1, 2),)),
        (3.0, ()),
        (True, ()),
        (np.bool_(True), ())])
    def test_rejects_non_integer_ids_and_counts(self, n, edges):
        with pytest.raises(InvalidInputError,
                           match="is not an integer$") as exc:
            Hypergraph3U(n, edges)
        assert exc.value.code == "invalid-input"

    def test_accepts_numpy_integers(self):
        h = Hypergraph3U(np.int64(4), ((np.int32(3), 1, np.int64(2)),))
        assert h.edges == ((1, 2, 3),)
        assert all(type(v) is int for v in h.edges[0])
        assert Hypergraph3U.from_text("4 1\n3 1 2\n").edges == h.edges

    @pytest.mark.parametrize("text", ["3 1\n0 1 2\n0 1 2\n1 2 0\n",
                                      "4 1\n0 1 2\n\n1 2 3\n",
                                      "4 2\n0 1 2\n"])
    def test_text_edge_lines_must_match_the_header(self, text):
        # lines past the header's m edges were once dropped unread
        with pytest.raises(InvalidInputError,
                           match="^edge count does not match header$"):
            Hypergraph3U.from_text(text)


class TestTwoColorings:
    def test_single_edge_six_of_eight(self):
        assert len(two_colorings(Hypergraph3U(3, ((0, 1, 2),)))) == 6

    def test_complete_on_four_vertices(self):
        h = Hypergraph3U(4, tuple(itertools.combinations(range(4), 3)))
        cols = two_colorings(h)
        # brute force over all 16 colorings: exactly the 2-2 splits survive
        expected = [c for c in itertools.product((0, 1), repeat=4)
                    if sum(c) == 2]
        assert sorted(cols) == sorted(expected)

    def test_fano_plane_not_2_colorable(self):
        assert two_colorings(FANO) == []

    def test_size_cap(self):
        with pytest.raises(SizeCapError):
            two_colorings(Hypergraph3U(21, ()))


class TestBuildGadget:
    def test_line_counts_six_vertices_three_edges(self):
        h = Hypergraph3U(6, ((0, 1, 2), (1, 2, 3), (3, 4, 5)))
        g = build_gadget(h)
        labels = [lab for _, _, lab in g.hyperplanes]
        assert sum(lab.startswith("vertex") for lab in labels) == 6
        horizontal = [lab for lab in labels if not lab.startswith("vertex")]
        assert len(horizontal) == 8
        assert sum(lab.startswith("r") for lab in horizontal) == 3
        assert sum(lab.startswith("b") for lab in horizontal) == 3

    def test_single_edge_four_horizontal_lines(self):
        g = build_gadget(Hypergraph3U(3, ((0, 1, 2),)))
        horizontal = [lab for _, _, lab in g.hyperplanes
                      if not lab.startswith("vertex")]
        assert len(horizontal) == 4

    def test_facing_flag_nodes_are_adjacent(self):
        # all-pairs scan: any two movable flag-structure nodes within the
        # radio radius are graph neighbors
        g = build_gadget(Hypergraph3U(4, ((0, 1, 2), (1, 2, 3))))
        pos = g.instance.positions()
        movable = [i for i, nd in enumerate(nodes_of(g))
                   if nd.kind in ("apex", "token")]
        for a, b in itertools.combinations(movable, 2):
            d = np.linalg.norm(pos[a] - pos[b])
            assert (d <= RADIUS + 1e-9) == g.instance.has_edge(a, b)

    def test_node_table_agrees_with_the_instance(self):
        # hyperplane v is vertex v's line, a flag's first node is its apex
        # and the other two sit on the flag vertex's line; the table's
        # positions are the instance's
        for h in BENCH_SHAPES:
            g = build_gadget(h)
            nodes, n = nodes_of(g), h.n_vertices
            assert [lab for _, _, lab in g.hyperplanes[:n]] == \
                [f"vertex-{v}" for v in range(n)]
            for (v, _), (apex, *base) in g.flag_nodes.items():
                assert (nodes[apex].kind, nodes[apex].owner) == ("apex", v)
                assert [(nodes[b].kind, nodes[b].owner) for b in base] == \
                    [("line", v)] * 2
                assert {g.instance.nodes[b].line_group for b in base} == \
                    {v + 1}
            assert len(g._arrays.kind) == g.instance.n

    def test_vertex_line_spacing_in_open_interval(self):
        g = build_gadget(Hypergraph3U(3, ((0, 1, 2),)))
        xs = sorted(p.offset for p, _, lab in g.hyperplanes
                    if lab.startswith("vertex"))
        for a, b in zip(xs, xs[1:]):
            assert 2.0 < b - a < 3.0

    def test_size_caps(self):
        with pytest.raises(SizeCapError):
            build_gadget(Hypergraph3U(9, ()))
        with pytest.raises(SizeCapError):
            build_gadget(FANO)

    def test_crowded_nodes_fail_the_separation_audit(self, monkeypatch):
        # relay tokens 0.05 apart on the chain from line 1 to line 3 (a
        # chain between neighbouring lines is one token): every other
        # audited constraint holds, so the 0.1 separation check fires
        monkeypatch.setattr(gadget, "TOKEN_STEP", 0.05)
        with pytest.raises(HyperlocError,
                           match="^node separation too small for the 3D lift$"):
            build_gadget(Hypergraph3U(4, ((0, 1, 3),)))

    def test_instance_is_exact_udg(self):
        g = build_gadget(Hypergraph3U(4, ((0, 1, 2), (0, 2, 3))))
        g.instance.validate_exact()
        # the lift is exact by construction and does not check itself
        for h in BENCH_SHAPES:
            lift_to_3d(build_gadget(h)).instance.validate_exact()


class TestEnumerateGroupings:
    def test_two_colorable_instances_are_groupable(self):
        rng = make_rng(30)
        for _ in range(10):
            h = random_hypergraph(rng)
            g = build_gadget(h)
            assert enumerate_groupings(g), f"no valid config for {h}"

    def test_every_valid_config_induces_a_proper_coloring(self):
        rng = make_rng(31)
        for _ in range(10):
            h = random_hypergraph(rng)
            g = build_gadget(h)
            configs = enumerate_groupings(g)
            rows = verify_equivalence(g)["correspondence"]
            assert len(rows) == len(configs)
            for config, row in zip(configs, rows):
                coloring = coloring_of(g, config)
                assert is_proper_coloring(h, coloring)
                assert row["coloring"] == [COLOR_NAMES[c] for c in coloring]
                assert row["vertical"] == [int(b) for b in config.vertical]
                assert row["horizontal"] == [int(b) for b in config.horizontal]

    def test_global_vertical_toggle_symmetry(self):
        g = build_gadget(Hypergraph3U(4, ((0, 1, 2), (1, 2, 3))))
        valid = set(enumerate_groupings(g))
        for c in valid:
            toggled = FlipConfiguration(
                vertical=tuple(not b for b in c.vertical),
                horizontal=c.horizontal)
            assert toggled in valid

    def test_monochromatic_placement_rejected(self):
        # the configuration whose induced coloring makes the edge
        # monochromatic must fail the realization check
        h = Hypergraph3U(3, ((0, 1, 2),))
        g = build_gadget(h)
        mono_vert = tuple(bool(c ^ 0) for c in g.base_coloring)
        for horiz in itertools.product((False, True), repeat=3):
            cfg = FlipConfiguration(vertical=mono_vert, horizontal=horiz)
            assert cfg not in set(enumerate_groupings(g))

    def test_records_are_the_rows_of_the_core(self):
        # the records, in order, are the valid state rows read as bits:
        # vertical = state & 1, horizontal = state >> 1
        rng = make_rng(46)
        for h0 in BENCH_SHAPES:
            for h in (h0, relabel(h0, rng.permutation(h0.n_vertices))):
                g = build_gadget(h)
                for gd in (g, lift_to_3d(g)):
                    rows = _valid_rows(gd)
                    assert rows.shape[1] == h.n_vertices and len(rows)
                    want = [FlipConfiguration(
                        vertical=tuple(bool(s & 1) for s in row),
                        horizontal=tuple(bool(s >> 1) for s in row))
                        for row in rows.tolist()]
                    got = enumerate_groupings(gd)
                    assert got == want
                    assert {type(b) for c in got for b in c.vertical
                            + c.horizontal} == {bool}

    def test_pipeline_matches_direct_check_on_samples(self):
        # the compiled tables must agree with a from-scratch placement check
        h = Hypergraph3U(4, ((0, 1, 2), (1, 2, 3)))
        g = build_gadget(h)
        want = np.zeros((g.instance.n, g.instance.n), dtype=bool)
        for u, v, _ in g.instance.edges:
            want[u, v] = want[v, u] = True
        valid = set(enumerate_groupings(g))
        rng = make_rng(32)
        for _ in range(200):
            vert = tuple(bool(b) for b in rng.integers(0, 2, 4))
            horiz = tuple(bool(b) for b in rng.integers(0, 2, 4))
            cfg = FlipConfiguration(vertical=vert, horizontal=horiz)
            ok = False
            for signs in itertools.product((-1, 1), repeat=len(g._wires)):
                pos = positions_of(g, cfg, signs)
                d = np.linalg.norm(pos[:, None] - pos[None, :], axis=-1)
                np.fill_diagonal(d, np.inf)
                if np.array_equal(d <= RADIUS + 1e-9, want):
                    ok = True
                    break
            assert ok == (cfg in valid)


# the benchmark's hardness shapes: 8 vertices / 4 edges, 6 vertices / 3 edges
BENCH_SHAPES = (
    Hypergraph3U(8, ((0, 4, 5), (1, 3, 6), (1, 5, 7), (2, 6, 7))),
    Hypergraph3U(6, ((0, 1, 4), (0, 3, 4), (2, 3, 4))),
)


def relabel(h, perm):
    return Hypergraph3U(h.n_vertices, tuple(tuple(int(perm[v]) for v in e)
                                            for e in h.edges))


def _positions_valid(want: list[tuple[int, int]], pts: np.ndarray) -> bool:
    """Exact unit-disk realization check: edges iff within radius."""
    u, v, _ = udg_edges(pts, RADIUS)
    return list(zip(u.tolist(), v.tolist())) == want


def state(config, v):
    return int(config.vertical[v]) | (int(config.horizontal[v]) << 1)


def wire_signs(checker, config):
    """Per chain, side -1 where its table allows that side for the states
    of its end lines, else +1 where it allows that one; None when some
    chain has no feasible side."""
    signs = []
    for va, vb, table in checker.wire_tables:
        sa, sb = state(config, va), state(config, vb)
        feas = [bit for bit in (0, 1) if table[sa, sb, bit]]
        if not feas:
            return None
        signs.append(1 if feas[0] else -1)
    return signs


def reference_admitted(g):
    """Every one of the 4^n flip configurations in key order that the pair
    tables and the chain tables admit, with its placement (both levels of
    a lift)."""
    checker = _ConfigChecker(g)
    n = g.hypergraph.n_vertices
    for bits in range(4 ** n):
        vert = tuple(bool((bits >> (2 * v)) & 1) for v in range(n))
        horiz = tuple(bool((bits >> (2 * v + 1)) & 1) for v in range(n))
        config = FlipConfiguration(vertical=vert, horizontal=horiz)
        if not all(table[state(config, va), state(config, vb)]
                   for va, vb, table in checker.pair_tables):
            continue
        signs = wire_signs(checker, config)
        if signs is None:
            continue
        pos = positions_of(g, config, signs)
        if g.dim == 3:
            pos = np.column_stack([np.tile(pos, (2, 1)),
                                   np.repeat([0.0, 1.0], len(pos))])
        yield config, pos


def reference_groupings(g):
    """The admitted configurations filtered by the exact realization
    check, one kernel call over the whole placement each."""
    want = [(u, v) for u, v, _ in g.instance.edges]
    return [config for config, pos in reference_admitted(g)
            if _positions_valid(want, pos)]


class TestPrunedWalk:
    """The table-pruned walk returns what the full 4^n scan returns, in
    the same order, in 2D and in the 3D lift."""

    def check(self, h):
        g = build_gadget(h)
        for gd in (g, lift_to_3d(g)):
            assert enumerate_groupings(gd) == reference_groupings(gd), h

    def test_benchmark_shapes_under_relabelling(self):
        rng = make_rng(35)
        for h in BENCH_SHAPES:
            self.check(h)
            self.check(relabel(h, rng.permutation(h.n_vertices)))

    def test_random_hypergraphs_up_to_eight_vertices(self):
        rng = make_rng(36)
        for n in (4, 6, 7, 8):
            self.check(random_hypergraph(rng, min_n=n, max_n=n, max_m=4))


def range_by_states(g):
    """Scan of the labelled cloud: every node placed node by node in each
    of the four line states, chains on side ``s & 1``, at both levels of a
    lift. Maps each pair ``u < v`` within the radius in some states to the
    possible state pairs ``(su, sv)`` of its blocks that put it in range,
    and to all possible state pairs; and gives each node's block (a lifted
    node's z = 1 copy is in its node's block)."""
    n = g.hypergraph.n_vertices
    placed = [reference_positions(
        g, FlipConfiguration(vertical=(bool(s & 1),) * n,
                             horizontal=(bool(s >> 1),) * n),
        [1 if s & 1 else -1] * len(g._wires)) for s in range(4)]
    if g.dim == 3:
        placed = [np.column_stack([np.tile(p, (2, 1)),
                                   np.repeat([0.0, 1.0], len(p))])
                  for p in placed]
    k = len(placed[0])
    block = [("line", nd.owner) if nd.kind == "apex" else (nd.kind, nd.owner)
             for nd in nodes_of(g)] * (k // len(g._arrays.kind))
    n_states = {"fixed": 1, "line": 4, "token": 2}
    near = {}
    u, v, _ = udg_edges(np.vstack(placed), RADIUS)
    for a, b in zip(u.tolist(), v.tolist()):
        (u, sa), (v, sb) = sorted((divmod(a, k)[::-1], divmod(b, k)[::-1]))
        if u != v:
            near.setdefault((u, v), set()).add((sa, sb))
    out = {}
    for (u, v), states in near.items():
        su, sv = (range(n_states[block[w][0]]) for w in (u, v))
        possible = ({(s, s) for s in su} if block[u] == block[v]
                    else set(itertools.product(su, sv)))
        out[(u, v)] = (states & possible, possible)
    return out, block


def table_pairs(g):
    """The pairs the pair and chain tables compare: apexes of consecutive
    lines, and each chain's tokens against its two end apexes."""
    owner = {aid: v for (v, _), aid in apex_of(g).items()}
    lines = {frozenset(p) for p in zip(g.order, g.order[1:])}
    out = {(a, b) for a, b in itertools.combinations(sorted(owner), 2)
           if frozenset((owner[a], owner[b])) in lines}
    return out | {tuple(sorted((t, e))) for w in g._wires
                  for t in w.token_ids for e in w.end_apexes}


def flipped(g, pairs):
    """The gadget with the recorded status of each pair flipped."""
    flip = set(pairs)
    edges = [e for e in g.instance.edges if e[:2] not in flip]
    edges += [(u, v, RADIUS) for u, v in
              flip - {e[:2] for e in g.instance.edges}]
    return replace(g, instance=NetworkInstance(g.instance.nodes, edges,
                                               RADIUS))


def relaid(g, moves):
    """The 2D gadget with nodes moved in its canonical layout and its edges
    recorded afresh from the moved layout."""
    xy = g.instance.true_pos[:, :2].copy()
    for i, p in moves.items():
        xy[i] = p
    nodes = [replace(nd, true_pos=(x, y, 0.0))
             for nd, (x, y) in zip(g.instance.nodes, xy.tolist())]
    return replace(g, instance=NetworkInstance(nodes, udg_edges(xy, RADIUS),
                                               RADIUS))


def moving_pairs(g):
    """Pairs whose range depends on their blocks' states, and those of
    them in different blocks that no pair or chain table compares."""
    ranges, block = range_by_states(g)
    moving = {p for p, (near, possible) in ranges.items()
              if near and near != possible}
    return moving, {(u, v) for u, v in moving - table_pairs(g)
                    if block[u] != block[v]}


class TestTamperedGadget:
    """The exact check must catch what the pair and chain tables cannot.

    In a built gadget the tables compare every pair whose range depends on
    the flip states, and those pairs take one status in every admitted
    configuration; so flipping any recorded pair, or the z = 1 copy of a
    compared pair, makes the exact check reject all admitted configurations.
    Splitting them takes a layout where a pair no table compares moves
    with a free state: a main-line node lifted next to a line without
    flags."""

    H = (Hypergraph3U(5, ((0, 1, 2), (2, 3, 4))), BENCH_SHAPES[1])

    def test_built_gadget_tables_see_every_state_dependent_pair(self):
        for h in self.H:
            moving, uncovered = moving_pairs(build_gadget(h))
            assert moving and not uncovered, h

    def test_flipped_pair_rejects_every_configuration(self):
        for h in self.H:
            g = build_gadget(h)
            k = len(g._arrays.kind)
            ranges, block = range_by_states(g)
            # a pair inside one line's block, in range in every state
            inside = min(p for p, (near, possible) in ranges.items()
                         if near == possible and block[p[0]] == block[p[1]]
                         and block[p[0]][0] == "line")
            u, v = min(moving_pairs(g)[0])
            g3 = lift_to_3d(g)
            for bad in (flipped(g, [inside]),
                        flipped(g3, [inside, (inside[0] + k, inside[1] + k)]),
                        flipped(g3, [(u + k, v + k)])):
                assert next(reference_admitted(bad), None) is not None
                assert reference_groupings(bad) == []
                assert enumerate_groupings(bad) == []

    def test_moved_node_rejects_a_proper_subset(self):
        g = build_gadget(Hypergraph3U(4, ((0, 1, 2),)))
        x3 = g._arrays.line_x[3]
        right = next(i for i, nd in enumerate(nodes_of(g))
                     if nd.kind == "fixed" and nd.y == 0.0 and nd.x > x3)
        g = relaid(g, {right: (x3 + 0.5, 0.3)})
        assert moving_pairs(g)[1]
        for gd in (g, lift_to_3d(g)):
            admitted = [c for c, _ in reference_admitted(gd)]
            valid = reference_groupings(gd)
            assert valid and len(valid) < len(admitted), gd.dim
            assert enumerate_groupings(gd) == valid

    def test_one_kernel_call_per_enumeration(self, monkeypatch):
        calls = []

        def counted(*args, **kwargs):
            calls.append(args)
            return udg_edges(*args, **kwargs)

        g = build_gadget(BENCH_SHAPES[0])
        g3 = lift_to_3d(g)
        monkeypatch.setattr(gadget, "udg_edges", counted)
        for gd in (g, g3):
            calls.clear()
            assert enumerate_groupings(gd)
            # the lift's query too is planar: its z = 1 copies are lifted
            assert len(calls) == 1 and calls[0][0].shape[1] == 2


def reference_positions(g, config, signs):
    """The flip rule node by node: vertical flips mirror line and apex nodes
    across the main line, horizontal flips mirror apexes across their
    line, and tokens take their chain's side."""
    line_x = {v: g.hyperplanes[v][0].offset
              for v in range(g.hypergraph.n_vertices)}
    pos = np.empty((len(g._arrays.kind), 2))
    for i, nd in enumerate(nodes_of(g)):
        x, y = nd.x, nd.y
        if nd.kind in ("line", "apex") and config.vertical[nd.owner]:
            y = -y
        if nd.kind == "apex" and config.horizontal[nd.owner]:
            x = 2.0 * line_x[nd.owner] - x
        if nd.kind == "token":
            y = signs[nd.owner] * abs(y)
        pos[i] = x, y
    return pos


class TestAuditGadget:
    """Each build-time check of ``_audit_gadget`` fires on a layout that
    breaks its constraint and keeps every check before it."""

    H = Hypergraph3U(4, ((0, 1, 3),))

    @pytest.mark.parametrize("name, value, message", [
        ("VSPACE", 3.2, r"vertex-line spacing outside \(2, 3\)"),
        ("SUPPORT_Y", 0.9,
         "support line does not form a K4 with the main line"),
        ("BASE_DY", 0.9, "flag apex of vertex 0, edge 0 does not neighbor "
                         "exactly its two base nodes"),
        ("TOKEN_END", 2.0, "chain is not coupled to its endpoint flag"),
    ], ids=["VSPACE", "SUPPORT_Y", "BASE_DY", "TOKEN_END"])
    def test_layout_constant_fires_its_check(self, monkeypatch, name, value,
                                             message):
        monkeypatch.setattr(gadget, name, value)
        with pytest.raises(HyperlocError, match=f"^{message}$"):
            build_gadget(self.H)

    def test_missing_horizontal_line(self):
        g = build_gadget(self.H)
        with pytest.raises(HyperlocError,
                           match=r"^horizontal line count is not 2\|F\| \+ 2$"):
            gadget._audit_gadget(replace(g, hyperplanes=g.hyperplanes[:-1]))

    def test_main_line_gap(self):
        # the main-line node a third of the spacing past the first line
        # moves far below the gadget, leaving a gap of two thirds of it
        g = build_gadget(self.H)
        third = next(i for i, nd in enumerate(nodes_of(g))
                     if nd.kind == "fixed" and nd.y == 0.0
                     and nd.x == gadget.VSPACE / 3.0)
        with pytest.raises(HyperlocError, match="^main-line nodes are not "
                                                "uniformly distributed$"):
            gadget._audit_gadget(relaid(g, {third: (gadget.VSPACE / 3.0,
                                                    -30.0)}))

    def test_chain_touching_its_probed_flag(self):
        g = build_gadget(self.H)
        w = g._wires[0]
        probe_end = w.token_ids[-1 if w.half == "A" else 0]
        with pytest.raises(HyperlocError,
                           match="^chain must not touch the probed flag$"):
            gadget._audit_gadget(flipped(g, [(w.end_apexes[1], probe_end)]))


class TestFlipRule:
    def test_matches_node_by_node_placement(self):
        rng = make_rng(41)
        for h in BENCH_SHAPES + (Hypergraph3U(5, ((0, 1, 2), (2, 3, 4))),):
            g = build_gadget(h)
            n = h.n_vertices
            for _ in range(20):
                cfg = FlipConfiguration(
                    vertical=tuple(bool(b) for b in rng.integers(0, 2, n)),
                    horizontal=tuple(bool(b) for b in rng.integers(0, 2, n)))
                signs = [int(s) for s in rng.choice((-1, 1), len(g._wires))]
                got = positions_of(g, cfg, signs)
                assert got.tobytes() == \
                    reference_positions(g, cfg, signs).tobytes()

    @pytest.mark.parametrize("k", [1, 4, 16])
    def test_stacked_rule_matches_node_by_node_placement(self, k):
        # one call places a stack of k configurations, each with the bits
        # of the node-by-node rule
        rng = make_rng(45 + k)
        for h0 in BENCH_SHAPES:
            for h in (h0, relabel(h0, rng.permutation(h0.n_vertices))):
                g = build_gadget(h)
                n, w = h.n_vertices, len(g._wires)
                vertical = rng.integers(0, 2, (k, n)).astype(bool)
                horizontal = rng.integers(0, 2, (k, n)).astype(bool)
                signs = rng.choice((-1, 1), (k, w))
                got = _config_positions(g, vertical, horizontal, signs)
                assert got.shape == (k, len(g._arrays.kind), 2)
                for c in range(k):
                    cfg = FlipConfiguration(
                        vertical=tuple(vertical[c].tolist()),
                        horizontal=tuple(horizontal[c].tolist()))
                    want = reference_positions(g, cfg, signs[c].tolist())
                    assert got[c].tobytes() == want.tobytes(), (h, c)


def cross_pairs(first, second):
    """Index pairs (i, j) with first[i] within the radius of second[j]."""
    k = len(first)
    u, v, _ = udg_edges(np.vstack([first, second]), RADIUS)
    return {(a, b - k) for a, b in zip(u.tolist(), v.tolist()) if a < k <= b}


def reference_tables(g):
    """The checker's pair and chain tables built entry by entry: every
    apex placed by its own flip, one kernel call on the two stacked point
    sets per (sa, sb) or (sa, sb, side) entry."""
    inst, nodes = g.instance, nodes_of(g)
    line_x = {v: g.hyperplanes[v][0].offset
              for v in range(g.hypergraph.n_vertices)}

    def apex_pos(aid, state):
        nd = nodes[aid]
        x, y = nd.x, nd.y
        if state & 1:
            y = -y
        if state >> 1:
            x = 2.0 * line_x[nd.owner] - x
        return np.array([x, y])

    by_vertex, apexes = {v: [] for v in line_x}, apex_of(g)
    for (v, _), aid in apexes.items():
        by_vertex[v].append(aid)
    pair_tables = []
    for va, vb in zip(g.order, g.order[1:]):
        left, right = by_vertex[va], by_vertex[vb]
        if not (left and right):
            continue
        want = {(i, j) for i, a in enumerate(left)
                for j, b in enumerate(right) if inst.has_edge(a, b)}
        table = np.ones((4, 4), dtype=bool)
        for sa, sb in itertools.product(range(4), range(4)):
            pa = np.array([apex_pos(a, sa) for a in left])
            pb = np.array([apex_pos(b, sb) for b in right])
            table[sa, sb] = cross_pairs(pa, pb) == want
        pair_tables.append((va, vb, table))
    wire_tables = []
    for c, w in enumerate(g._wires):
        va, vb = w.end_vertices
        yf = abs(nodes[w.token_ids[0]].y)
        txs = np.array([nodes[t].x for t in w.token_ids])
        # two wires per edge, in edge order
        apex_ids = [apexes[(va, c // 2)], apexes[(vb, c // 2)]]
        want = {(i, j) for i, tid in enumerate(w.token_ids)
                for j, aid in enumerate(apex_ids) if inst.has_edge(tid, aid)}
        table = np.zeros((4, 4, 2), dtype=bool)
        for sa, sb, side in itertools.product(range(4), range(4), range(2)):
            tpos = np.column_stack([txs, np.full(len(txs),
                                                 (1 if side else -1) * yf)])
            aps = np.array([apex_pos(aid, state)
                            for aid, state in zip(apex_ids, (sa, sb))])
            table[sa, sb, side] = cross_pairs(tpos, aps) == want
        wire_tables.append((va, vb, table))
    return pair_tables, wire_tables


def reference_exact(g):
    """``_ConfigChecker.exact`` built entry by entry from the scan of
    ``range_by_states``: blocks A and B in states sA and sB (a block has
    one state at a time) agree iff the node pairs between them in range in
    those states are the recorded edges between them. A state a block does
    not take places none of its nodes."""
    ranges, block = range_by_states(g)
    n, w = g.hypergraph.n_vertices, len(g._wires)
    index = {("fixed", -1): 0, **{("line", v): 1 + v for v in range(n)},
             **{("token", c): 1 + n + c for c in range(w)}}
    nb = len(index)
    near, edges = {}, {}
    for (u, v), (states, _) in ranges.items():
        a, b = index[block[u]], index[block[v]]
        for su, sv in states:
            near.setdefault((a, su, b, sv), set()).add((u, v))
            near.setdefault((b, sv, a, su), set()).add((u, v))
    for u, v, _ in g.instance.edges:
        a, b = index[block[u]], index[block[v]]
        edges.setdefault((a, b), set()).add((u, v))
        edges.setdefault((b, a), set()).add((u, v))
    table = np.zeros((nb, 4, nb, 4), dtype=bool)
    for a, sa, b, sb in itertools.product(range(nb), range(4), range(nb),
                                          range(4)):
        table[a, sa, b, sb] = (near.get((a, sa, b, sb), set())
                               == edges.get((a, b), set()))
    return table


def table_bytes(tables):
    return [(va, vb, t.dtype, t.shape, t.tobytes()) for va, vb, t in tables]


class TestCheckerTables:
    """The tables read off the checker's one kernel query equal the
    entry-by-entry construction byte for byte, in 2D and in the lift."""

    def check(self, h):
        g = build_gadget(h)
        for gd in (g, lift_to_3d(g)):
            checker = _ConfigChecker(gd)
            pair_tables, wire_tables = reference_tables(gd)
            assert table_bytes(checker.pair_tables) == \
                table_bytes(pair_tables), h
            assert table_bytes(checker.wire_tables) == \
                table_bytes(wire_tables), h

    def test_benchmark_shapes_under_relabelling(self):
        rng = make_rng(39)
        for h in BENCH_SHAPES:
            self.check(h)
            self.check(relabel(h, rng.permutation(h.n_vertices)))

    def test_five_vertices_two_edges(self):
        self.check(Hypergraph3U(5, ((0, 1, 2), (2, 3, 4))))

    def test_random_hypergraphs_three_to_eight_vertices(self):
        rng = make_rng(40)
        for n in range(3, 9):
            for _ in range(4):
                self.check(random_hypergraph(rng, min_n=n, max_n=n, max_m=4))

    def check_exact(self, h):
        g = build_gadget(h)
        for gd in (g, lift_to_3d(g)):
            got, want = _ConfigChecker(gd).exact, reference_exact(gd)
            assert (got.dtype, got.shape) == (want.dtype, want.shape), h
            assert got.tobytes() == want.tobytes(), (h, gd.dim)

    def test_exact_table_entry_by_entry_on_benchmark_shapes(self):
        # a same-block pair counts twice on the tally's diagonal; a miscount
        # there in a state no admitted configuration reads would leave the
        # enumeration unchanged, so the table itself is compared
        rng = make_rng(47)
        for h in BENCH_SHAPES:
            self.check_exact(h)
            self.check_exact(relabel(h, rng.permutation(h.n_vertices)))

    def test_exact_table_entry_by_entry_on_random_hypergraphs(self):
        rng = make_rng(48)
        for n in range(3, 9):
            self.check_exact(random_hypergraph(rng, min_n=n, max_n=n,
                                               max_m=4))

    def test_one_kernel_call_per_checker(self, monkeypatch):
        calls = []

        def counted(*args, **kwargs):
            calls.append(args)
            return udg_edges(*args, **kwargs)

        g = build_gadget(BENCH_SHAPES[0])
        g3 = lift_to_3d(g)
        monkeypatch.setattr(gadget, "udg_edges", counted)
        for gd in (g, g3):
            calls.clear()
            _ConfigChecker(gd)
            assert len(calls) == 1


def reference_order(h):
    """First vertex order, by lexicographic permutation, with the most
    clean edges; stops at the first order where every edge is clean."""
    n = h.n_vertices
    if not h.edges or n > 8:
        return tuple(range(n))
    best, best_score = None, -1
    for perm in itertools.permutations(range(n)):
        pos = {v: i for i, v in enumerate(perm)}
        mids, ends = [], set()
        for e in h.edges:
            by_pos = sorted(e, key=lambda v: pos[v])
            mids.append(by_pos[1])
            ends.update((by_pos[0], by_pos[2]))
        clean = sum(1 for m in mids if mids.count(m) == 1 and m not in ends)
        if clean > best_score:
            best, best_score = perm, clean
            if clean == len(h.edges):
                break
    return tuple(best)


class TestChooseOrder:
    def test_matches_permutation_scan_on_random_hypergraphs(self):
        rng = make_rng(37)
        for i in range(220):
            n = 8 if i % 40 == 0 else int(rng.integers(3, 8))
            triples = list(itertools.combinations(range(n), 3))
            m = int(rng.integers(0, min(6, len(triples)) + 1))
            idx = rng.choice(len(triples), size=m, replace=False)
            h = Hypergraph3U(n, tuple(triples[j] for j in idx))
            assert _choose_order(h) == reference_order(h), h

    def test_benchmark_shapes_scan_every_order(self):
        rng = make_rng(38)
        for h in BENCH_SHAPES:
            for hh in (h, relabel(h, rng.permutation(h.n_vertices))):
                assert _choose_order(hh) == reference_order(hh)

    def test_early_exit_at_first_all_clean_order(self):
        h = Hypergraph3U(6, ((0, 1, 2), (3, 4, 5)))
        assert _choose_order(h) == reference_order(h) == tuple(range(6))
        h = Hypergraph3U(5, ((0, 1, 4), (1, 2, 3)))
        assert _choose_order(h) == reference_order(h)

    def test_every_hypergraph_on_five_vertices(self):
        triples = list(itertools.combinations(range(5), 3))
        cases = [Hypergraph3U(5, edges) for m in range(5)
                 for edges in itertools.combinations(triples, m)]
        assert len(cases) == 386
        for h in cases:
            assert _choose_order(h) == reference_order(h), h

    def test_identity_without_edges_or_beyond_eight_vertices(self):
        assert _choose_order(Hypergraph3U(5, ())) == tuple(range(5))
        assert _choose_order(Hypergraph3U(9, ((0, 1, 2),))) == tuple(range(9))


class TestVerifyEquivalence:
    def test_random_sample_agrees(self):
        rng = make_rng(33)
        for _ in range(15):
            rep = verify_equivalence(build_gadget(random_hypergraph(rng)))
            assert rep["agree"] is True

    def test_empty_edge_set(self):
        rep = verify_equivalence(build_gadget(Hypergraph3U(3, ())))
        assert rep["colorable"] and rep["groupable"] and rep["agree"]

    def test_over_cap_raises(self):
        with pytest.raises(SizeCapError):
            verify_equivalence(build_gadget(FANO))

    def test_correspondence_colorings_are_proper(self):
        h = Hypergraph3U(5, ((0, 1, 2), (2, 3, 4)))
        rep = verify_equivalence(build_gadget(h))
        assert rep["n_valid_configs"] == len(rep["correspondence"])
        for entry in rep["correspondence"]:
            colors = [0 if c == "red" else 1 for c in entry["coloring"]]
            assert is_proper_coloring(h, colors)


def isomorphism_classes(max_n=6, max_m=4):
    """One hypergraph per isomorphism class of the 3-uniform hypergraphs
    with 3..max_n vertices, 1..max_m edges and no isolated vertex, and the
    number of labelled ones. A class is keyed by the least bitmask, over
    all vertex permutations, of its edges as indices into the triples."""
    reps, labelled = [], 0
    for n in range(3, max_n + 1):
        triples = list(itertools.combinations(range(n), 3))
        index = {t: i for i, t in enumerate(triples)}
        # weight[p, t]: the bit of triple t's image under permutation p
        weight = np.array([[1 << index[tuple(sorted(p[v] for v in t))]
                            for t in triples]
                           for p in itertools.permutations(range(n))])
        seen = set()
        for m in range(1, max_m + 1):
            for edges in itertools.combinations(range(len(triples)), m):
                if len({v for i in edges for v in triples[i]}) < n:
                    continue
                labelled += 1
                key = int(weight[:, edges].sum(axis=1).min())
                if key not in seen:
                    seen.add(key)
                    reps.append(Hypergraph3U(n, tuple(triples[i]
                                                      for i in edges)))
    return reps, labelled


class TestSoundness:
    def test_every_valid_configuration_colors_properly(self):
        # soundness of the reduction on every small hypergraph, each class
        # as enumerated and under eight relabellings (the layout and the
        # base coloring depend on the labels): a configuration that
        # realizes the graph induces a proper coloring. Completeness is not
        # claimed.
        classes, labelled = isomorphism_classes()
        assert (len(classes), labelled) == (32, 4422)
        rng = make_rng(44)
        for h0 in classes:
            n = h0.n_vertices
            for perm in [range(n)] + [rng.permutation(n) for _ in range(8)]:
                h = relabel(h0, perm)
                g = build_gadget(h)
                configs = enumerate_groupings(g)
                assert configs, h
                for config in configs:
                    assert is_proper_coloring(h, coloring_of(g, config)), h


def tiled_row_pairs(cloud, layers):
    """The checker's row pairs as one 3D kernel query finds them: the
    planar cloud tiled at z = 0 and z = 1 for a lift, its distinct
    positions taken in 3D lexicographic order."""
    if layers == 2:
        cloud = np.column_stack([np.tile(cloud, (2, 1)),
                                 np.repeat([0.0, 1.0], len(cloud))])
    by_pos = np.lexsort(cloud.T[::-1])
    ordered = cloud[by_pos]
    first = np.flatnonzero(np.concatenate(
        [[True], (ordered[1:] != ordered[:-1]).any(axis=1)]))
    count = np.diff(first, append=len(ordered))
    pu, pv, _ = udg_edges(ordered[first], RADIUS)
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


# tests/test_cli.py's SLOW_LAYOUT: a relabelling of the 8v/4e shape
SLOW_LAYOUT = Hypergraph3U(8, ((3, 6, 7), (0, 1, 4), (2, 4, 7), (1, 2, 5)))


class TestLiftedChecker:
    """The lifted checker reads its z = 1 pairs off the planar query; its
    tables equal, byte for byte, those of one 3D query over the tiled
    cloud."""

    @staticmethod
    def tables(checker):
        return (checker.exact.dtype, checker.exact.shape,
                checker.exact.tobytes(), table_bytes(checker.pair_tables),
                table_bytes(checker.wire_tables))

    def check(self, monkeypatch, h):
        g3 = lift_to_3d(build_gadget(h))
        got = self.tables(_ConfigChecker(g3))
        with monkeypatch.context() as m:
            m.setattr(gadget, "_row_pairs", tiled_row_pairs)
            want = self.tables(_ConfigChecker(g3))
        assert got == want, h

    def test_benchmark_shapes_and_the_slow_layout(self, monkeypatch):
        for h in BENCH_SHAPES + (SLOW_LAYOUT,):
            self.check(monkeypatch, h)

    def test_small_isomorphism_classes(self, monkeypatch):
        classes, _ = isomorphism_classes()
        assert len(classes) == 32
        for h in classes:
            self.check(monkeypatch, h)


class TestLift:
    @pytest.mark.parametrize("h", BENCH_SHAPES)
    def test_records_are_the_per_node_copies(self, h):
        g = build_gadget(h)
        base, n = g.instance.nodes, g.instance.n
        assert base == tuple(
            NodeRecord(i, (node.x, node.y, 0.0), nd.line_group)
            for i, (nd, node) in enumerate(zip(base, nodes_of(g))))
        assert {type(nd.line_group) for nd in base} == {int}
        want = base + tuple(
            NodeRecord(nd.id + n, (*nd.true_pos[:2], 1.0), nd.line_group,
                       nd.plane_group) for nd in base)
        assert lift_to_3d(g).instance.nodes == want

    @pytest.mark.parametrize("h", BENCH_SHAPES)
    def test_lifted_planes_equal_the_checked_ones(self, h):
        g = build_gadget(h)
        lifted = lift_to_3d(g).hyperplanes
        assert len(lifted) == len(g.hyperplanes)
        for (p, color, label), (p3, color3, label3) in zip(g.hyperplanes,
                                                           lifted):
            want = Hyperplane(normal=(p.normal[0], p.normal[1], 0.0),
                              offset=p.offset)
            # repr tells -0.0 from 0.0, which == does not
            assert p3 == want and repr(p3) == repr(want)
            assert all(type(x) is float for x in (*p3.normal, p3.offset))
            assert (color3, label3) == (color, label)

    def test_counts_double(self):
        g = build_gadget(Hypergraph3U(3, ((0, 1, 2),)))
        g3 = lift_to_3d(g)
        n, m = g.instance.n, g.instance.m
        assert g3.instance.n == 2 * n
        assert g3.instance.m == 2 * m + n

    def test_each_2d_edge_at_both_levels(self):
        g = build_gadget(Hypergraph3U(3, ((0, 1, 2),)))
        g3 = lift_to_3d(g)
        n = g.instance.n
        edges3 = {(u, v) for u, v, _ in g3.instance.edges}
        for u, v, _ in g.instance.edges:
            assert (u, v) in edges3
            assert (u + n, v + n) in edges3

    def test_copy_adjacency_structure_all_pairs(self):
        g = build_gadget(Hypergraph3U(4, ((0, 1, 2), (1, 2, 3))))
        g3 = lift_to_3d(g)
        n = g.instance.n
        pos = g3.instance.positions()
        for i in range(n):
            for j in range(n, 2 * n):
                d = np.linalg.norm(pos[i] - pos[j])
                is_copy = (j - n == i)
                assert (d <= RADIUS + 1e-9) == is_copy == \
                    g3.instance.has_edge(i, j)

    def test_groupability_verdict_preserved(self):
        rng = make_rng(34)
        for _ in range(5):
            h = random_hypergraph(rng)
            g = build_gadget(h)
            c2 = set(enumerate_groupings(g))
            c3 = set(enumerate_groupings(lift_to_3d(g)))
            assert c2 == c3
