"""Baseline localizer: seed K4 search, canonical placement, queue propagation.

A node is localized once it has accumulated enough localized neighbors in
general position; with exact distances the placement is the unique
least-squares solution of the linearized sphere system.
"""

from __future__ import annotations

import numpy as np

from .errors import (DegenerateAnchorsError, DegenerateDistancesError,
                     InconsistentDistancesError, NoSeedError)
from .model import DEFAULT_EPS, NetworkInstance, PointFormation

# Scale-free non-coplanarity threshold: the Cayley-Menger determinant of a
# 4-point distance tuple, normalized by (max distance)^6, must exceed this.
DEFAULT_TAU = 1e-12


def cayley_menger(d2: np.ndarray) -> float | np.ndarray:
    """Cayley-Menger determinant of a squared-distance matrix (4 points), or
    an array of them for a stack of matrices."""
    m = np.ones(d2.shape[:-2] + (d2.shape[-1] + 1,) * 2)
    m[..., 0, 0] = 0.0
    m[..., 1:, 1:] = d2
    det = np.linalg.det(m)
    return det if det.ndim else float(det)


class SeedTetrahedron:
    """Non-degenerate 4-clique with its canonical-frame positions."""

    def __init__(self, vertices: tuple[int, int, int, int],
                 positions: np.ndarray):
        self.vertices, self.positions = vertices, positions


class LocalizationTrace:
    """Placement order with the anchors that fixed each non-seed node."""

    def __init__(self, steps: list[tuple[int, np.ndarray, tuple[int, ...]]]
                 | None = None, formation: PointFormation | None = None):
        self.steps = [] if steps is None else steps
        self.formation = formation

    @property
    def localized_count(self) -> int:
        return len(self.steps)


def _is_flat(cm: float, dmax: float, tau: float) -> bool:
    # on Python floats: NumPy's vector power may round dmax ** 6 otherwise
    return dmax == 0 or abs(cm) / dmax ** 6 <= tau


def is_degenerate_tetra(dists: np.ndarray, tau: float = DEFAULT_TAU) -> bool:
    """True if the 6-distance tuple is not realizable as a proper tetrahedron."""
    d2 = np.asarray(dists, dtype=float)
    return _is_flat(cayley_menger(d2), float(np.sqrt(d2.max())), tau)


def _ranges(count: np.ndarray, size: int, cap: int):
    """Consecutive ranges ``[lo, hi)`` of ``count``'s indices whose sums
    start near ``size`` and double up to ``cap``, or hold one index."""
    end = np.cumsum(count)
    lo = 0
    while lo < len(count):
        hi = max(int(np.searchsorted(end, end[lo] - count[lo] + size,
                                     side="right")), lo + 1)
        yield lo, hi
        lo, size = hi, min(2 * size, cap)


def find_seed_k4(instance: NetworkInstance,
                 tau: float = DEFAULT_TAU) -> SeedTetrahedron | None:
    """Lexicographically smallest 4-clique realizing a proper tetrahedron.

    The 4-cliques ``i < j < k < l`` are built in that order from the edges
    ``a < b``, in blocks: edge ``(i, j)`` with each later ``(i, k)`` of row
    i is a triangle if ``(j, k)`` is an edge, and a triangle with each later
    ``(i, l)`` a 4-clique if ``(j, l)`` and ``(k, l)`` are. A block holds
    O(n + m) candidates, so a graph with no seed is scanned in that memory.
    """
    graph = instance.graph
    a, b, slot = graph.edge_ends()
    later = graph.start[a + 1] - slot - 1   # the rest of ascending row a
    pairs = np.triu_indices(4, 1)           # (0, 1), (0, 2), ..., (2, 3)

    def extend(e):      # each edge e[t] = (i, x) with each later one of row i
        c = later[e]
        t = np.repeat(np.arange(len(e)), c)
        return t, np.arange(len(t)) + np.repeat(e + 1 - np.cumsum(c) + c, c)

    cap = 2 * (instance.n + len(a))
    for lo, hi in _ranges(later, 256, cap):
        t, ik = extend(np.arange(lo, hi))
        jk = graph.pair_slots(b[t + lo], b[ik])
        ok = jk >= 0
        ij, ik, jk = t[ok] + lo, ik[ok], jk[ok]
        for lo2, hi2 in _ranges(later[ik], cap, cap):
            t, il = extend(ik[lo2:hi2])
            t += lo2
            jl = graph.pair_slots(b[ij[t]], b[il])
            kl = graph.pair_slots(b[ik[t]], b[il])
            ok = (jl >= 0) & (kl >= 0)
            # (i, j), (i, k), (i, l) per 4-clique; its six slots, as ``pairs``
            first = np.stack([ij[t], ik[t], il], 1)[ok]
            six = np.column_stack([slot[first], jk[t][ok], jl[ok], kl[ok]])
            length = instance.length[six]
            d2 = np.zeros((len(six), 4, 4))
            d2[:, pairs[0], pairs[1]] = d2[:, pairs[1], pairs[0]] = \
                length * length
            top = np.sqrt(d2.max(axis=(1, 2), initial=0.0)).tolist()
            for q, cm in enumerate(cayley_menger(d2).tolist()):
                if not _is_flat(cm, top[q], tau):
                    quad = (a[first[q, 0]], *b[first[q]])
                    return SeedTetrahedron(
                        vertices=tuple(int(v) for v in quad),
                        positions=place_seed(np.sqrt(d2[q]), tau=tau))
    return None


def place_seed(dists: np.ndarray, tau: float = DEFAULT_TAU,
               eps: float = DEFAULT_EPS) -> np.ndarray:
    """Canonical-frame positions for 4 points given their 6 distances.

    First point at the origin, second on the positive x-axis, third in the
    y > 0 half plane, fourth with z > 0.
    """
    d = np.asarray(dists, dtype=float)
    d2 = d * d
    if is_degenerate_tetra(d2, tau):
        raise DegenerateDistancesError("distance tuple is (near-)coplanar")
    p = np.zeros((4, 3))
    p[1, 0] = d[0, 1]
    x2 = (d2[0, 1] + d2[0, 2] - d2[1, 2]) / (2 * d[0, 1])
    y2sq = d2[0, 2] - x2 * x2
    if y2sq <= 0:
        raise DegenerateDistancesError("first three distances are collinear")
    p[2] = (x2, np.sqrt(y2sq), 0.0)
    x3 = (d2[0, 1] + d2[0, 3] - d2[1, 3]) / (2 * d[0, 1])
    y3 = (d2[0, 3] - d2[2, 3] + p[2, 0] ** 2 + p[2, 1] ** 2
          - 2 * x3 * p[2, 0]) / (2 * p[2, 1])
    z3sq = d2[0, 3] - x3 * x3 - y3 * y3
    if z3sq <= 0:
        raise DegenerateDistancesError("fourth point is coplanar with the rest")
    p[3] = (x3, y3, np.sqrt(z3sq))
    got = np.linalg.norm(p[:, None, :] - p[None, :, :], axis=-1)
    if np.max(np.abs(got - d)) > max(eps, 1e-7 * d.max()):
        raise DegenerateDistancesError("distances are not realizable in R^3")
    return p


def solve_spheres(anchors: np.ndarray, dists: np.ndarray,
                  eps: float = DEFAULT_EPS) -> list[np.ndarray]:
    """Intersection of spheres |x - a_i| = r_i via linearized differences.

    Returns one point when the anchors affinely span the full space, the
    two mirror points when they span a hyperplane, and raises otherwise.
    """
    a = np.asarray(anchors, dtype=float)
    r = np.asarray(dists, dtype=float)
    m, d = a.shape
    if m < d:
        raise DegenerateAnchorsError(f"need at least {d} anchors in R^{d}")
    A = 2.0 * (a[1:] - a[0])
    b = (r[0] ** 2 - r[1:] ** 2) + (np.sum(a[1:] ** 2, axis=1)
                                    - np.sum(a[0] ** 2))
    u, s, vt = np.linalg.svd(A, full_matrices=True)
    tol = max(s[0], 1.0) * 1e-8 if len(s) else 0.0
    rank = int(np.sum(s > tol))
    scale = max(float(r.max()), 1.0)

    def _residual_ok(xs: list[np.ndarray]) -> list[bool]:
        # every candidate in one pass, each row's norm as for one candidate
        res = np.abs(np.linalg.norm(a - np.array(xs)[:, None], axis=-1) - r)
        return (res.max(axis=1) <= max(eps, 1e-9 * scale)).tolist()

    if rank == d:
        x, *_ = np.linalg.lstsq(A, b, rcond=None)
        if not _residual_ok([x])[0]:
            raise InconsistentDistancesError("sphere system has no common point")
        return [x]
    if rank == d - 1:
        x0 = vt[:rank].T @ ((u.T @ b)[:rank] / s[:rank])
        nrm = vt[-1]
        nz = np.nonzero(np.abs(nrm) > 1e-12)[0]
        if len(nz) and nrm[nz[0]] < 0:
            nrm = -nrm
        w = x0 - a[0]
        beta = float(nrm @ w)
        gamma = float(w @ w) - r[0] ** 2
        disc = beta * beta - gamma
        if disc < -max(eps, 1e-9 * scale ** 2):
            raise InconsistentDistancesError("spheres do not intersect")
        disc = max(disc, 0.0)
        t1 = -beta + np.sqrt(disc)
        t2 = -beta - np.sqrt(disc)
        cands = [x0 + t1 * nrm, x0 + t2 * nrm]
        cands = [x for x, ok in zip(cands, _residual_ok(cands)) if ok]
        if not cands:
            raise InconsistentDistancesError("sphere system has no common point")
        return cands
    raise DegenerateAnchorsError(
        f"anchors span a flat of dimension {rank} < {d - 1}")


def multilaterate(anchors, dists, eps: float = DEFAULT_EPS) -> np.ndarray:
    """Unique point at the given distances from >= d+1 spanning anchors."""
    a = np.asarray(anchors, dtype=float)
    d = a.shape[1]
    if a.shape[0] < d + 1:
        raise DegenerateAnchorsError(
            f"need at least {d + 1} anchors in R^{d}, got {a.shape[0]}")
    s = np.linalg.svd(a[1:] - a[0], compute_uv=False)
    if s[-1] <= max(s[0], 1.0) * 1e-8:
        raise DegenerateAnchorsError("anchors do not affinely span the space")
    sol = solve_spheres(a, np.asarray(dists, dtype=float), eps=eps)
    return sol[0]


def quadrilaterate(instance: NetworkInstance, eps: float = DEFAULT_EPS,
                   tau: float = DEFAULT_TAU) -> LocalizationTrace:
    """Propagate positions from a seed tetrahedron through the queue.

    Whenever a node accumulates four or more localized neighbors it is
    placed from all of them at once, provided they affinely span R^3;
    nodes that never do stay unlocalized in the returned partial formation.
    """
    seed = find_seed_k4(instance, tau=tau)
    if seed is None:
        raise NoSeedError("no non-coplanar K4 exists in the instance")
    graph, length = instance.graph, instance.length
    # rows are read as slices in place: the baseline stalls after a few
    # rows, so a list copy of the whole adjacency would mostly go unread
    start, nbr = graph.start, graph.nbr
    # node ids are 0..n-1, so each node's row of the formation is its id
    formation = PointFormation(3, np.arange(instance.n),
                               np.zeros((instance.n, 3)))
    mask, points = formation.mask, formation.points
    mask[:] = False
    trace = LocalizationTrace()
    count = [0] * instance.n
    queue: list[int] = []
    for v, pos in zip(seed.vertices, seed.positions):
        formation.mark(v, pos)
        trace.steps.append((v, np.asarray(pos), ()))
        queue.append(v)
    head = 0
    while head < len(queue):
        u = queue[head]
        head += 1
        for v in nbr[start[u]:start[u + 1]].tolist():
            if mask[v]:
                continue
            count[v] += 1
            if count[v] < 4:
                continue
            # v's localized neighbours and their lengths: one masked row
            row = slice(start[v], start[v + 1])
            held = mask[nbr[row]]
            anchors = nbr[row][held]
            try:
                pos = multilaterate(points[anchors], length[row][held],
                                    eps=eps)
            except (DegenerateAnchorsError, InconsistentDistancesError):
                continue
            formation.mark(v, pos)
            trace.steps.append((v, pos, tuple(anchors.tolist())))
            queue.append(v)
    trace.formation = formation
    return trace
