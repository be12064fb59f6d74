"""Group-aware localization: 1D chains, group-relative placement, full driver.

Each hyperplanar group is first localized internally in dimension d-1, then
groups are placed relative to each other in dimension d by fixing support
vertices from cross-group distance measurements and mapping the whole group
through one distance-preserving transform.
"""

from __future__ import annotations

import functools
import itertools
from typing import Mapping, Sequence

import numpy as np

from .errors import (AmbiguousPlacementError, ChordInconsistencyError,
                     DegenerateAnchorsError, DegenerateSupportsError,
                     HyperlocError, InconsistentDistancesError, InvalidInputError,
                     NonIsometricCorrespondenceError, NotLocalizableError)
from .intervals import Graph, LinearOrder, unit_interval_order
from .model import (COLLINEAR, COPLANAR, DEFAULT_EPS, GroupingFunction,
                    Hyperplane, NetworkInstance, PointFormation,
                    WindowIndex, axis_distances, group_labels)
from .quadloc import solve_spheres

# Placements that bring a non-adjacent pair this far inside the radio radius
# are rejected as inconsistent with the unit disk model.
NONEDGE_MARGIN = 1e-7


def localize_path(path: LinearOrder, weights: Sequence[float]) -> PointFormation:
    """Embed a simple path on a line: cumulative sums of its edge lengths."""
    seq = path.sequence
    if len(weights) != max(len(seq) - 1, 0):
        raise InvalidInputError("need one weight per path edge")
    formation = PointFormation(1, ids=seq)
    # cumsum adds in sequence, so each position is the running sum exactly
    xs = np.cumsum(np.array([0.0, *weights], dtype=float))[:len(seq)]
    formation.mark_many(seq, xs[:, None])
    return formation


def _line_pass(instance: NetworkInstance, ids: np.ndarray, first: np.ndarray,
               eps: float, sweep: bool = False
               ) -> tuple[np.ndarray, np.ndarray]:
    """Stage 1 for the blocks ``ids[first[k]:first[k + 1]]`` (ascending, with
    the edges inside them) at once: positions along each index order, and
    per block whether it is an umbrella order of adjacent consecutive nodes
    whose chords are all within ``eps``. With ``sweep``, lays the one block
    out along ``unit_interval_order`` of its graph; the first chord off
    raises."""
    n, k = len(ids), len(first)
    block = np.repeat(np.arange(k), np.diff(first, append=n))
    graph, slot = Graph.within(instance.graph, ids, block)
    length = instance.length[slot]
    path = np.arange(n)
    if sweep:
        path = np.searchsorted(ids, unit_interval_order(graph).sequence)
    at = graph.pair_slots(path[:-1], path[1:])
    inner = block[1:] == block[:-1]
    joined = inner & (at >= 0)
    step = np.zeros(n)
    step[1:][joined] = length[at[joined]]
    # one running sum per block, as localize_path adds: a global cumsum
    # less each block's start would drift off these bits
    x, bounds = np.empty((n, 1)), [*first.tolist(), n]
    x[path, 0] = np.concatenate([np.cumsum(step[s:e])
                                 for s, e in zip(bounds, bounds[1:])])
    a, b, ab = graph.edge_ends()
    got = np.abs(x[a, 0] - x[b, 0])
    off = np.abs(got - length[ab]) > eps
    if sweep and off.any():
        i = int(np.argmax(off))
        u, v = int(ids[a[i]]), int(ids[b[i]])
        raise ChordInconsistencyError(
            f"chord ({u},{v}) embeds at {float(got[i])}, "
            f"measured {float(length[ab][i])}", edge=(u, v))
    fails = np.concatenate([block[~graph.umbrella(path)],
                            block[1:][inner & ~joined], block[a[off]]])
    return x, np.bincount(fails, minlength=k) == 0


def localize_collinear_group(instance: NetworkInstance,
                             members: Sequence[int],
                             eps: float = DEFAULT_EPS) -> PointFormation:
    """1D embedding of one collinear group's induced subgraph.

    Orders the vertices (``unit_interval_order``), accumulates path-edge
    lengths and validates every chord, all on one induced subgraph
    (``_line_pass``): a violated chord means the order is not geometrically
    monotone (or the grouping is wrong).
    """
    ids = np.array(sorted(set(members)), dtype=np.intp)
    x, _ = _line_pass(instance, ids, np.zeros(1, dtype=np.intp), eps,
                      sweep=True)
    return PointFormation(1, ids, x)


def localize_support_vertex(anchors, dists, d: int,
                            eps: float = DEFAULT_EPS) -> list[np.ndarray]:
    """Candidate ambient positions of a node from cross-group anchors.

    With anchors spanning only a (d-1)-flat the result is the mirror pair
    across that flat; with anchors affinely spanning R^d it is unique.
    """
    a = np.asarray(anchors, dtype=float)
    if a.ndim != 2 or a.shape[1] != d:
        raise InvalidInputError(f"anchors must be points in R^{d}")
    return solve_spheres(a, np.asarray(dists, dtype=float), eps=eps)


class GroupTransform:
    """Distance-preserving affine map from R^(d-1) into R^d: ``linear``, a
    d x (d-1) matrix with orthonormal columns, then ``translation``."""

    def __init__(self, linear: np.ndarray, translation: np.ndarray):
        q = np.asarray(linear, dtype=float)
        # written so that a NaN, from any non-finite entry of q, fails it
        if not np.abs(q.T @ q - np.eye(q.shape[1])).max() <= 1e-8:
            _require_finite("transform entries", q)
            raise InvalidInputError("transform columns are not orthonormal")
        _require_finite("transform entries", translation)
        self.linear, self.translation = linear, translation

    def apply(self, points) -> np.ndarray:
        """Map each row of ``points``. Each row is its own 1 x (d-1) product,
        so a block maps to the same bits as its rows one at a time (a plain
        block matmul may round differently)."""
        pts = np.atleast_2d(np.asarray(points, dtype=float))
        return (pts[:, None, :] @ self.linear.T)[:, 0, :] + self.translation


def _require_finite(what: str, *arrays) -> None:
    """Raise ``InvalidInputError`` when an entry of the arrays is NaN or
    infinite."""
    if not all(np.isfinite(a).all() for a in arrays):
        raise InvalidInputError(f"{what} must be finite")


def _lengths(x: np.ndarray) -> np.ndarray:
    """Euclidean length along the last axis: what ``np.linalg.norm(x,
    axis=-1)`` computes for a real array, without its dispatch."""
    return np.sqrt(np.add.reduce(x * x, axis=-1))


def compute_group_transform(local, ambient,
                            eps: float = DEFAULT_EPS) -> GroupTransform:
    """Transform mapping d local (d-1)-dim points onto d ambient points.

    The correspondence must be isometric: pairwise local distances equal
    pairwise ambient distances. The linear part is the polar-orthonormalized
    solution of the difference-basis system.
    """
    loc = np.atleast_2d(np.asarray(local, dtype=float))
    amb = np.atleast_2d(np.asarray(ambient, dtype=float))
    d = amb.shape[1]
    if loc.shape != (d, d - 1) or amb.shape != (d, d):
        raise InvalidInputError(
            f"need {d} local points in R^{d - 1} and {d} ambient points in R^{d}")
    scale = max(1.0, float(np.abs(amb).max()), float(np.abs(loc).max()))
    tol = max(eps, eps * scale)
    dl = _lengths(loc[:, None, :] - loc[None, :, :])
    da = _lengths(amb[:, None, :] - amb[None, :, :])
    # written so that a NaN gap fails it: a non-finite entry makes its own
    # point's distance to itself NaN, so such input stops here, before the
    # SVD, and only this failure path looks for it
    if not np.abs(dl - da).max() <= tol:
        _require_finite("support coordinates", loc, amb)
        raise NonIsometricCorrespondenceError(
            "pairwise local and ambient distances disagree")
    lmat = (loc[1:] - loc[0]).T
    s = np.linalg.svd(lmat, compute_uv=False)
    if s[-1] <= 1e-9 * max(s[0], 1.0):
        raise DegenerateSupportsError("local support points are affinely dependent")
    mmat = (amb[1:] - amb[0]).T
    q0 = mmat @ np.linalg.inv(lmat)
    u, _, vt = np.linalg.svd(q0, full_matrices=False)
    q = u @ vt
    t = amb[0] - q @ loc[0]
    transform = GroupTransform(linear=q, translation=t)
    if not _lengths(transform.apply(loc) - amb).max() <= tol:
        raise NonIsometricCorrespondenceError(
            "no distance-preserving map fits the correspondence")
    return transform


class GroupLocalState:
    """Placement record of one hyperplanar group (``group`` is its label):
    the first d affinely independent supports in member order with their
    positions (none for the seed), and the transform; ``plane`` is read off
    the transform, ``None`` while the group is unplaced."""

    def __init__(self, group: int, status: str = "unlocalized",
                 support_vertices: list[tuple[int, np.ndarray]] | None = None,
                 transform: GroupTransform | None = None):
        self.group, self.status, self.transform = group, status, transform
        self.support_vertices = [] if support_vertices is None \
            else support_vertices

    @property
    def plane(self) -> Hyperplane | None:
        if self.transform is None:
            return None
        q, t = self.transform.linear, self.transform.translation
        normal = np.cross(*q.T) if len(t) == 3 else np.array([-q[1, 0], q[0, 0]])
        return Hyperplane(normal=tuple(normal), offset=float(normal @ t))


# ---------------------------------------------------------------------------
# group-vs-group localization
# ---------------------------------------------------------------------------

class _GroupArrays:
    """One group's members and its measured edges to the other groups in
    scope. A group's arrays are read only while it is unplaced, when an
    edge inside it has no localized end, so those edges are left out.

    Edges run member by member, each member's far ends in ascending id
    order; member ``m`` of the group owns edges ``starts[m]:starts[m + 1]``.
    The edge fields are slices of arrays built once per level.
    """

    def __init__(self, ids, local, starts, near, far, far_group, length):
        self.ids = ids              # members with a local row, ascending
        self.local = local          # their local coordinates, (len(ids), d - 1)
        self.starts = starts        # (members + 1,) edge offsets
        self.near = near            # per edge: its member's index in ids, or -1
        self.far = far              # per edge: the far end's formation row
        self.far_group = far_group  # per edge: the far end's group label
        self.length = length        # per edge: the measured length


class _GroupSolver:
    """Single run of the two-phase group placement over one grouping level.

    The level is set up in one pass over its nodes in (label, id) order,
    each group a block of them (``GroupingFunction.blocks``): one
    ``Graph.row_entries`` reads all their rows, and each far end's group
    and formation row, and each member's local row, come from node-indexed
    maps. Each group's members and edges are then slices of the level's.
    """

    def __init__(self, instance: NetworkInstance, grouping: GroupingFunction,
                 local_formations: Mapping[int, PointFormation], d: int,
                 eps: float, seed_group: int | None):
        if d not in (2, 3):
            raise InvalidInputError("group localization runs in d=2 or d=3")
        self.inst, self.grouping, self.d, self.eps = instance, grouping, d, eps
        self.local = local_formations
        for g, f in local_formations.items():
            if f.dim != d - 1:
                raise InvalidInputError(
                    f"group {g} local formation has dim {f.dim}, expected {d - 1}")
        nodes, labels, first = grouping.blocks
        n, count = instance.n, len(nodes)
        if np.any((nodes < 0) | (nodes >= n)):
            u = next(u for u in grouping.assignment if not 0 <= u < n)
            raise InvalidInputError(f"grouping names node {u}, outside the "
                                    f"instance's nodes 0..{n - 1}")
        self.groups = labels.tolist()
        bounds = np.append(first, count)
        group = np.repeat(np.arange(len(first)), np.diff(bounds))
        # node-indexed maps: group index (-1 out of scope), formation row
        group_at = np.full(n, -1, dtype=np.intp)
        group_at[nodes] = group
        row = np.cumsum(group_at >= 0) - 1
        self.formation = PointFormation(d, np.flatnonzero(group_at >= 0),
                                        np.zeros((count, d)))
        self.formation.mask[:] = False      # no row localized yet
        # every node's row of the adjacency, then only the edges whose far
        # end is in scope and in another group (taken by position: one
        # mask scan, not one per array)
        owner, to, slots = instance.graph.row_entries(nodes)
        at = group_at[to]
        keep = np.flatnonzero((at >= 0) & (at != group[owner]))
        owner, to, slots, at = owner[keep], to[keep], slots[keep], at[keep]
        starts = np.append(0, np.cumsum(np.bincount(owner, minlength=count)))
        far, far_group = row[to], labels[at]
        length = instance.length[slots]
        # every group's formation rows, stacked in group order; a node's
        # local row is the localized one of its own group's formation
        empty = PointFormation(d - 1)
        fs = [local_formations.get(g, empty) for g in self.groups]
        fids = np.concatenate([f.ids for f in fs])
        of_group = np.repeat(np.arange(len(fs)), [len(f.ids) for f in fs])
        mine = (np.concatenate([f.mask for f in fs]) & (fids >= 0)
                & (fids < n) & (group_at[np.clip(fids, 0, n - 1)] == of_group))
        local_row = np.full(n, -1, dtype=np.intp)
        local_row[fids[mine]] = np.flatnonzero(mine)
        r = local_row[nodes]
        ok = r >= 0
        ids = nodes[ok]
        local = np.concatenate([f.points for f in fs])[r[ok]]
        # a member's index among its group's members with a local row
        seen = np.cumsum(ok)
        base = np.append(0, seen)[bounds]
        near = np.where(ok, seen - 1 - base[group], -1)[owner]
        self.arrays = {}
        for g, s, e, lo, hi, a, b in zip(
                self.groups, first.tolist(), bounds[1:].tolist(),
                starts[first].tolist(), starts[bounds[1:]].tolist(),
                base[:-1].tolist(), base[1:].tolist()):
            self.arrays[g] = _GroupArrays(
                ids=ids[a:b], local=local[a:b],
                starts=starts[s:e + 1] - lo, near=near[lo:hi],
                far=far[lo:hi], far_group=far_group[lo:hi],
                length=length[lo:hi])
        # the kernel's index over the localized points and their largest
        # |coordinate|, built at the first check after each placement
        self._near: tuple[WindowIndex | None, float] | None = None
        self.states = {g: GroupLocalState(group=g) for g in self.groups}
        self.gauge, self.placed = True, 0
        if seed_group is None:      # the largest, the smallest label on a tie
            seed_group = self.groups[int(np.argmax(np.diff(bounds)))]
        elif seed_group not in self.arrays:
            raise InvalidInputError(f"unknown seed group {seed_group}")
        self.seed = seed_group

    # -- helpers ------------------------------------------------------------

    def _apply_transform(self, g: int, transform: GroupTransform,
                         supports: list[tuple[int, np.ndarray]],
                         pts: np.ndarray | None = None) -> None:
        """Place group g by ``transform`` at ``pts``, its members' positions
        under it (mapped here if not given)."""
        arr = self.arrays[g]
        self.placed += 1
        self.formation.mark_many(
            arr.ids, transform.apply(arr.local) if pts is None else pts)
        self.states[g] = GroupLocalState(g, "localized", supports, transform)
        self._near = None

    # -- mirror/sign resolution ----------------------------------------------

    def _place_group(self, g: int, rows: list[int],
                     cands: list[list[np.ndarray]]) -> None:
        """Place group g from its d supports' local ``rows`` and candidate
        positions: the first surviving mirror combination while the mirror
        is a free global reflection, else the only one; raise otherwise.
        Each candidate maps the group once, and those points are checked,
        marked and read for the supports (``apply`` maps row by row)."""
        arr = self.arrays[g]
        locs = arr.local[rows]
        survivor = None
        for combo in itertools.product(*[range(len(c)) for c in cands]):
            ambient = np.array([c[ci] for c, ci in zip(cands, combo)])
            try:
                transform = compute_group_transform(locs, ambient, eps=self.eps)
            except (NonIsometricCorrespondenceError, DegenerateSupportsError):
                continue
            pts = transform.apply(arr.local)
            if not self._check_placement(g, transform, rows, pts):
                continue
            if survivor is not None:
                raise AmbiguousPlacementError(
                    "multiple placements survive all distance constraints",
                    group=g)
            survivor = transform, pts
            if self._is_reflection_gauge():
                break
        if survivor is None:
            raise InconsistentDistancesError(
                "no mirror-candidate combination reproduces the measurements",
                group=g)
        transform, pts = survivor
        self._apply_transform(g, transform, list(zip(
            arr.ids[rows].tolist(), pts[rows])), pts)

    def _check_placement(self, g: int, transform: GroupTransform,
                         rows: Sequence[int] = (),
                         pts: np.ndarray | None = None) -> bool:
        """True if group g's positions under the transform (``pts``, mapped
        here if not given) satisfy every measured edge to the localized set
        and bring no other localized point within the radius less
        ``NONEDGE_MARGIN`` (reach).

        The measured edges are tested first, in one residual test. The
        non-edges are then searched in the kernel's index over the
        localized points, first from the support ``rows`` (a wrong mirror
        usually lands one on a localized node), then from the whole group.
        A query finds every measured edge within reach, at the same bits
        as the residual test (the same operands), and g has no localized
        member, so its pairs are all measured edges exactly when it finds
        as many as there are."""
        arr = self.arrays[g]
        f = self.formation
        if self._near is None:
            loc = f.points[f.mask]
            self._near = (WindowIndex(loc, self.inst.radius - NONEDGE_MARGIN)
                          if len(loc) else None,
                          float(np.abs(loc).max(initial=0.0)))
        index, extent = self._near
        if index is None:
            return True
        if pts is None:
            pts = transform.apply(arr.local)
        tol = max(self.eps, 1e-9) * max(1.0, float(np.abs(pts).max()), extent)
        measured = (arr.near >= 0) & f.mask[arr.far]
        near = arr.near[measured]
        got = axis_distances(pts.T, near, f.points.T, arr.far[measured])
        if np.any(np.abs(got - arr.length[measured]) > tol):
            return False
        # each measured edge within reach, by its member's row
        within = near[got <= index.lim]
        rows = np.asarray(rows, dtype=np.intp)
        if len(rows) and len(index.pairs(pts[rows])[0]) != \
                np.count_nonzero(within[:, None] == rows):
            return False
        return len(index.pairs(pts)[0]) == len(within)

    def _is_reflection_gauge(self) -> bool:
        """True while every localized node lies in one hyperplane, so a
        mirror across it is still a global isometry (free choice): always
        while the seed group alone is placed, and never again once false."""
        if self.gauge and self.placed > 1:
            pts = self.formation.points[self.formation.mask]
            self.gauge = len(pts) <= self.d or \
                np.linalg.matrix_rank(pts[1:] - pts[0], tol=1e-9) < self.d
        return self.gauge

    # -- phases ---------------------------------------------------------------

    def _scan_group(self, g: int, group_filter: int | None,
                    min_anchors: int) -> bool:
        """Solve supports in member order, keeping each whose local row is
        affinely independent of those kept; the d-th places the group."""
        arr = self.arrays[g]
        f = self.formation
        usable = f.mask[arr.far]
        if group_filter is not None:
            usable &= arr.far_group == group_filter
        seen = np.concatenate([[0], np.cumsum(usable)])
        enough = np.flatnonzero(
            seen[arr.starts[1:]] - seen[arr.starts[:-1]] >= min_anchors)
        # each edge's near is its member's local row (-1: none), and a member
        # with enough anchors has at least one edge
        rows = arr.near[arr.starts[enough]]
        chosen: list[int] = []
        cands: list[list[np.ndarray]] = []
        for m, row in zip(enough[rows >= 0].tolist(), rows[rows >= 0].tolist()):
            edges = slice(arr.starts[m], arr.starts[m + 1])
            take = usable[edges]
            try:
                cand = localize_support_vertex(
                    f.points[arr.far[edges][take]], arr.length[edges][take],
                    self.d, eps=self.eps)
            except (DegenerateAnchorsError, InconsistentDistancesError):
                continue
            trial = arr.local[chosen + [row]]
            if chosen and np.linalg.matrix_rank(trial[1:] - trial[0],
                                                tol=1e-9) < len(chosen):
                continue
            chosen.append(row)
            cands.append(cand)
            if len(chosen) == self.d:
                self._place_group(g, chosen, cands)
                return True
        return False

    def run(self) -> tuple[PointFormation, dict[int, GroupLocalState]]:
        self._apply_transform(self.seed, GroupTransform(
            linear=np.eye(self.d, self.d - 1), translation=np.zeros(self.d)),
            supports=[])
        # Phase A: groups adjacent to the seed, supports anchored in the seed.
        placed = False
        for g in self.groups:
            if g != self.seed and np.any(
                    self.arrays[g].far_group == self.seed):
                placed |= self._scan_group(g, group_filter=self.seed,
                                           min_anchors=self.d)
        if len(self.groups) > 1 and not placed:
            raise NotLocalizableError(
                "no group could be localized against the seed group",
                group=self.seed)
        # Phase B: remaining groups from nodes notified d+1 times, repeated
        # until no further group can be placed.
        progress = True
        while progress:
            progress = False
            for g in self.groups:
                if self.states[g].status != "localized" and self._scan_group(
                        g, group_filter=None, min_anchors=self.d + 1):
                    progress = True
        return self.formation, self.states


def localize_groups(instance: NetworkInstance, grouping: GroupingFunction,
                    local_formations: Mapping[int, PointFormation], d: int,
                    eps: float = DEFAULT_EPS, seed_group: int | None = None
                    ) -> tuple[PointFormation, dict[int, GroupLocalState]]:
    """Place every hyperplanar group of one level in ambient dimension d.

    Groups are keyed by their labels: ``local_formations``, ``seed_group``
    and the returned states all use ``grouping.groups``. The default seed
    is the largest group, the smallest label on a tie.

    Phase A fixes support vertices of seed-adjacent groups from d anchors in
    the seed group (a mirror pair each), in member order; the first d with
    affinely independent local rows decide the group. Its mirror
    combinations are checked in order: while the localized nodes lie in
    one hyperplane the first survivor is placed, otherwise the only one is,
    and a second is ambiguous-placement; none is inconsistent-distances.
    The placing transform also gives the group's plane.
    Phase B places the remaining groups from nodes with d+1
    localized-neighbor notifications. Raises a not-localizable error,
    naming the seed group, when phase A places nothing beyond the seed.
    """
    return _GroupSolver(instance, grouping, local_formations, d, eps,
                        seed_group).run()


# ---------------------------------------------------------------------------
# hierarchical corridor -> floor -> building driver
# ---------------------------------------------------------------------------

class HierarchicalResult:
    """Stage outputs of the corridor/floor/building pipeline.

    ``hierarchical_localize`` keeps stages 1 and 2 as arrays, ids and
    positions; ``pos1`` and ``pos2`` are made from them on first read and
    kept. The constructor takes the dicts and keeps them as given."""

    def __init__(self, formation: PointFormation, pos1: dict[int, float],
                 pos2: dict[int, tuple[float, float]],
                 line_states: dict[int, str],
                 floor_states: dict[int, GroupLocalState]):
        self.formation, self.pos1, self.pos2 = formation, pos1, pos2
        self.line_states, self.floor_states = line_states, floor_states

    @classmethod
    def _of_stages(cls, formation: PointFormation,
                   stage1: tuple[np.ndarray, np.ndarray],
                   stage2: tuple[np.ndarray, np.ndarray],
                   line_states: dict[int, str],
                   floor_states: dict[int, GroupLocalState]
                   ) -> "HierarchicalResult":
        """The result of each stage's ``(ids, positions)`` arrays, its
        ``pos1`` and ``pos2`` not made yet."""
        result = cls.__new__(cls)
        result.formation, result._stage1, result._stage2 = \
            formation, stage1, stage2
        result.line_states, result.floor_states = line_states, floor_states
        return result

    @functools.cached_property
    def pos1(self) -> dict[int, float]:
        """Stage 1's coordinate of each node along its corridor, the nodes
        in (line label, id) order."""
        ids, x = self._stage1
        return dict(zip(ids.tolist(), x[:, 0].tolist()))

    @functools.cached_property
    def pos2(self) -> dict[int, tuple[float, float]]:
        """Stage 2's position of each localized node in its floor's plane,
        floor by floor in label order, each floor's nodes by id."""
        ids, pts = self._stage2
        return dict(zip(ids.tolist(), zip(*pts.T.tolist())))

    def localized_fraction(self) -> float:
        return self.formation.localized_fraction()


def _annotate(exc: HyperlocError, stage: str, group: int | None = None):
    if exc.stage is None:
        exc.stage = stage
    if exc.group is None and group is not None:
        exc.group = group
    return exc


def hierarchical_localize(instance: NetworkInstance,
                          eps: float = DEFAULT_EPS,
                          seed_floor: int | None = None) -> HierarchicalResult:
    """Corridors in 1D, corridors per floor in 2D, floors in 3D.

    Requires both grouping levels on every node, and each corridor on one
    floor: a line label shared by two floors is ``invalid-input`` in stage
    ``collinear``. Every group is keyed by its own label: ``line_states``
    by corridor label, ``floor_states`` and ``seed_floor`` by floor label.
    An error names its stage and, where one group is at fault, that
    group's label: a corridor in stages ``collinear`` and ``floor``, a
    floor in stage ``building``. Output positions satisfy every measured
    edge distance; nodes of groups that never acquire enough supports stay
    unlocalized.
    """
    line_of = group_labels(instance, COLLINEAR)
    plane_of = group_labels(instance, COPLANAR)

    # stage 1: every corridor at once, its nodes sorted by (label, id); a
    # corridor that fails, in label order, takes localize_collinear_group
    order, labels, first = GroupingFunction.from_arrays(
        np.arange(instance.n), line_of).blocks
    floor, groups = plane_of[order], labels.tolist()
    bounds = [*first.tolist(), instance.n]
    x, ok = _line_pass(instance, order, first, eps)
    ok &= np.minimum.reduceat(floor, first) == np.maximum.reduceat(floor,
                                                                     first)
    for k in np.flatnonzero(~ok).tolist():
        s, e = bounds[k], bounds[k + 1]
        try:
            if len(floors := sorted(set(floor[s:e].tolist()))) > 1:
                raise InvalidInputError(
                    f"line label {groups[k]} is on floors {floors}; line "
                    "labels must be unique across floors")
            x[s:e] = localize_collinear_group(instance, order[s:e], eps).points
        except HyperlocError as exc:
            raise _annotate(exc, "collinear", groups[k])
    line_formations = {g: PointFormation(1, order[s:e], x[s:e])
                       for g, s, e in zip(groups, bounds, bounds[1:])}
    line_states = dict.fromkeys(groups, "localized")

    # stage 2: corridors against each other, one floor at a time, each
    # floor's nodes a block of the planes grouping
    planes = GroupingFunction.from_arrays(np.arange(instance.n), plane_of)
    nodes, floors, first = planes.blocks
    bounds = [*first.tolist(), instance.n]
    floor_formations: dict[int, PointFormation] = {}
    for fg, s, e in zip(floors.tolist(), bounds, bounds[1:]):
        corridors = GroupingFunction.from_arrays(nodes[s:e],
                                                 line_of[nodes[s:e]])
        local = {g: line_formations[g] for g in corridors.groups}
        try:
            floor_formations[fg], _ = localize_groups(
                instance, corridors, local, d=2, eps=eps)
        except HyperlocError as exc:
            raise _annotate(exc, "floor")

    stage2 = tuple(np.concatenate(a) for a in zip(*[
        (f.ids[f.mask], f.points[f.mask]) for f in floor_formations.values()]))

    # stage 3: floors against each other in 3D
    try:
        formation3, floor_states = localize_groups(
            instance, planes, floor_formations, d=3, eps=eps,
            seed_group=seed_floor)
    except HyperlocError as exc:
        raise _annotate(exc, "building")

    return HierarchicalResult._of_stages(formation3, (order, x), stage2,
                                         line_states, floor_states)


def verify_formation(instance: NetworkInstance, formation: PointFormation,
                     eps: float = DEFAULT_EPS) -> float:
    """Largest |embedded - measured| edge residual over localized pairs."""
    u, v, d = instance.edge_arrays()
    at = formation.ids[formation.mask]
    placed = np.zeros(instance.n, dtype=bool)
    placed[at[(at >= 0) & (at < instance.n)]] = True
    both = placed[u] & placed[v]
    if not both.any():
        return 0.0
    diff = formation.array(u[both]) - formation.array(v[both])
    # one 1 x dim by dim x 1 product per row: the same bits as the norm of
    # each row on its own
    got = np.sqrt((diff[:, None, :] @ diff[:, :, None])[:, 0, 0])
    return float(np.max(np.abs(got - d[both])))
