"""One benchmark workload, run in a fresh process.

``run.py`` starts this file once per sample; it never imports it. Modes:

* ``setup``   -- import the package and make the first input, print setup_s.
* ``measure`` -- as ``setup``, then run whole rounds for ``--seconds``.
* ``trace``   -- as ``measure``, with the layer wrappers of ``tracer.py``
  installed after set-up.

A round is one closed-loop operation: describe the round's input (untimed),
generate it (timed: generate_s; ``GENERATES`` times, so that workloads
whose build is short next to their solve still get enough samples),
prepare it (untimed: strip ground truth, write files), solve it (timed:
solve_s) and check the output (untimed, with checks that share no code with
the package). The last stdout line is one JSON object.

Every timed sample is bracketed by two runs of a fixed speed probe, and the
reported times are scaled by ``PROBE_REF_S`` over the probe's time around
them: the host this runs on changes speed by up to ~1.7x for seconds to
minutes at a time, and the scaling takes most of that out. The wall times
are reported alongside (``*_wall_s``).
"""

from __future__ import annotations

import argparse
import contextlib
import io
import itertools
import json
import resource
import statistics
import sys
import tempfile
import time
import traceback
from dataclasses import replace
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent

# Modules bound by _bind_package() once sys.path holds the checkout's src/.
# Calls go through these module objects so that the traced run's wrappers,
# installed on the same attributes, see them.
cli = gadget = grouploc = intervals = model = quadloc = None
np = None

RMSE_LIMIT = 1e-6
COORD_LIMIT = 1e-6

# The speed probe: the median of PROBE_REPS runs of a fixed ~10-ms kernel
# mixing interpreted dict/sort work with small numpy array work, as the
# package does. Its arrays take under 100 kB, so peak_rss_mb stays the
# program's. PROBE_REF_S is the probe's time on an idle host (2 vCPU Xeon,
# Python 3.11, one BLAS thread); a time scaled by PROBE_REF_S / probe reads
# as the same work would take on that host when idle.
PROBE_REPS = 3
PROBE_REF_S = 0.008
_PROBE_PTS = None


class CheckFailed(Exception):
    """An output that the benchmark's own check rejects."""


def _rng(seed: int, round_index: int):
    return np.random.default_rng([seed, round_index])


def _probe() -> float:
    global _PROBE_PTS
    if _PROBE_PTS is None:
        _PROBE_PTS = np.random.default_rng(20240611).random((60, 3))
    reps = []
    for _ in range(PROBE_REPS):
        t0 = time.perf_counter()
        d: dict[int, int] = {}
        for i in range(24000):
            d[i % 61] = d.get(i % 61, 0) + i
        sorted(range(6000), key=lambda v: (v * 7919) % 6007)
        for _ in range(20):
            diff = _PROBE_PTS[:, None, :] - _PROBE_PTS[None, :, :]
            np.nonzero((diff ** 2).sum(-1) < 0.1)
        reps.append(time.perf_counter() - t0)
    return statistics.median(reps)


def _timed(fn, arg, probe_before: float):
    """Run fn(arg); return (result, wall seconds, probe around, probe after).

    The probe after the call is for the next sample to reuse as its
    probe_before.
    """
    t0 = time.perf_counter()
    out = fn(arg)
    wall = time.perf_counter() - t0
    probe_after = _probe()
    return out, wall, (probe_before + probe_after) / 2, probe_after


def _procrustes_rmse(est, truth) -> float:
    """RMSE after the best orthogonal map (reflections allowed) plus shift."""
    a = est - est.mean(axis=0)
    b = truth - truth.mean(axis=0)
    u, _, vt = np.linalg.svd(a.T @ b)
    mapped = a @ (u @ vt)
    return float(np.sqrt(np.mean(np.sum((mapped - b) ** 2, axis=1))))


def _full_formation(formation, n: int):
    missing = [u for u in range(n) if not formation.is_localized(u)]
    if missing:
        raise CheckFailed(f"{len(missing)} of {n} nodes unlocalized, "
                          f"first {missing[:5]}")
    return np.array([formation.position(u) for u in range(n)], dtype=float)


def _truth(instance):
    return np.array([nd.true_pos for nd in instance.nodes], dtype=float)


def _line_members(instance) -> list[list[int]]:
    groups: dict[int, list[int]] = {}
    for nd in instance.nodes:
        groups.setdefault(nd.line_group, []).append(nd.id)
    return [groups[g] for g in sorted(groups)]


# ---------------------------------------------------------------------------
# workloads
# ---------------------------------------------------------------------------

class Building:
    """3 floors x 4 corridors, one stairwell column, n = 3201.

    The operation is the paper's pipeline on one deployment: certify every
    corridor claw- and net-free (the precondition of the 1D stage), run
    the group-aware ``hierarchical_localize``, then the conventional
    ``quadrilaterate`` baseline on the same input.
    """

    # The stairwell stands on a node-spacing grid point at most OFFSETS
    # grid steps from the middle, as in the reference row (x = 133 * 0.9).
    # All 81 of these positions localize fully; off-grid positions can
    # fail on exact inputs (see CHANGES.md), so they are left out.
    MIDDLE = 133
    OFFSETS = 40
    GENERATES = 2       # a round has room for a single solve (~3.3 s)

    def __init__(self, seed: int):
        self.seed = seed
        self.base = model.BuildingConfig(
            floors=3, floor_spacing=0.8, corridors_per_floor=4,
            node_spacing=0.9, radius=1.0, corridor_spacing=0.45,
            extent=266 * 0.9, stagger=True)

    def describe(self, r: int):
        k = int(_rng(self.seed, r).integers(-self.OFFSETS, self.OFFSETS + 1))
        x = round((self.MIDDLE + k) * self.base.node_spacing, 12)
        return replace(self.base, connector_columns=((x, 0.675),))

    def generate(self, cfg):
        return model.generate_building(cfg)

    def prepare(self, inst):
        hidden = model.strip_ground_truth(inst)
        return hidden, _line_members(hidden)

    def solve(self, prepared):
        hidden, corridors = prepared
        forbidden = []
        for members in corridors:
            graph = intervals.Graph.from_instance(hidden, members)
            forbidden.append((intervals.find_claw(graph),
                              intervals.find_net(graph)))
        result = grouploc.hierarchical_localize(hidden)
        baseline = quadloc.quadrilaterate(hidden)
        return forbidden, result, baseline

    def check(self, inst, prepared, out) -> None:
        _, corridors = prepared
        forbidden, result, baseline = out
        # A connected unit interval graph has no induced claw or net.
        for claw, net in forbidden:
            if claw is not None or net is not None:
                raise CheckFailed(f"claw {claw} / net {net} on a corridor")
        truth = _truth(inst)
        est = _full_formation(result.formation, inst.n)
        rmse = _procrustes_rmse(est, truth)
        if not rmse <= RMSE_LIMIT:
            raise CheckFailed(f"aligned RMSE {rmse:.3e} > {RMSE_LIMIT}")
        # Stage 1 alone: each corridor's 1D positions are its true x up to
        # translation and reflection (every corridor is x-parallel).
        for members in corridors:
            x = truth[members, 0]
            p = np.array([result.pos1[u] for u in members])
            err = min(np.ptp(p - x), np.ptp(p + x))
            if not err <= COORD_LIMIT:
                raise CheckFailed(f"1D positions off the truth by {err:.3e} "
                                  "after translation and reflection")
        # The paper's headline: the conventional baseline stalls here.
        if len(baseline.formation.localized_ids()) >= inst.n:
            raise CheckFailed("quadrilateration localized every node")


def _proper(edges, colors) -> bool:
    return all(len({colors[a], colors[b], colors[c]}) == 2
               for a, b, c in edges)


def _two_colorable(n: int, edges) -> bool:
    return any(_proper(edges, colors)
               for colors in itertools.product((0, 1), repeat=n))


class Hardness:
    """verify-hardness --lift-3d --full-correspondence on 8v/4e and 6v/3e."""

    # Fixed shapes, relabelled per round. In the 8-vertex shape the edge
    # (1, 5, 7) shares every vertex with another edge, and in the 6-vertex
    # shape vertex 4 is in every edge, so no vertex order makes all edges
    # "clean" and _choose_order always scans all n! orders.
    SHAPES = (
        (8, ((0, 4, 5), (1, 3, 6), (1, 5, 7), (2, 6, 7))),
        (6, ((0, 1, 4), (0, 3, 4), (2, 3, 4))),
    )
    GENERATES = 3       # one build (~0.3 s) is short next to the solve (~3.5 s)

    def __init__(self, seed: int, workdir: Path):
        self.seed = seed
        self.workdir = workdir

    def describe(self, r: int):
        rng = _rng(self.seed, r)
        out = []
        for n, edges in self.SHAPES:
            perm = rng.permutation(n)
            out.append(gadget.Hypergraph3U(
                n, tuple(tuple(int(perm[v]) for v in e) for e in edges)))
        return out

    def generate(self, hypergraphs):
        return [(h, gadget.lift_to_3d(gadget.build_gadget(h)))
                for h in hypergraphs]

    def prepare(self, built):
        paths = []
        for i, (h, _) in enumerate(built):
            path = self.workdir / f"h{i}.txt"
            path.write_text(h.to_text())
            paths.append(str(path))
        return paths

    def solve(self, paths):
        out = []
        for path in paths:
            buf = io.StringIO()
            with contextlib.redirect_stdout(buf):
                code = cli.main(["verify-hardness", "--hypergraph", path,
                                 "--lift-3d", "--full-correspondence"])
            out.append((code, buf.getvalue()))
        return out

    def check(self, built, paths, out) -> None:
        for (h, lifted), (code, text) in zip(built, out):
            if code != 0:
                raise CheckFailed(f"verify-hardness exited {code}")
            rep = json.loads(text)
            colorable = _two_colorable(h.n_vertices, h.edges)
            if rep["groupable"] != colorable or rep["colorable"] != colorable:
                raise CheckFailed(f"verdict {rep['groupable']} but "
                                  f"2-colourable is {colorable}")
            lift = rep["lift_3d"]
            if lift["groupable"] != rep["groupable"] or \
                    lift["n_valid_configs"] != rep["n_valid_configs"]:
                raise CheckFailed("3D lift disagrees with the 2D gadget")
            if lift["nodes"] != lifted.instance.n:
                raise CheckFailed("CLI lift differs from the generated lift")
            corr = rep["correspondence"]
            if len(corr) != rep["n_valid_configs"]:
                raise CheckFailed("correspondence is not the full list")
            for entry in corr:
                colors = [entry["coloring"][v] for v in range(h.n_vertices)]
                if not _proper(h.edges, colors):
                    raise CheckFailed(f"improper colouring {colors}")


# ---------------------------------------------------------------------------
# run loop
# ---------------------------------------------------------------------------

def _bind_package() -> None:
    src = ROOT / "src"
    if not (src / "hyperloc" / "__init__.py").is_file():
        raise SystemExit(f"no package source at {src}/hyperloc")
    sys.path.insert(0, str(src))
    global cli, gadget, grouploc, intervals, model, quadloc, np
    import numpy as np
    import hyperloc
    from hyperloc import cli, gadget, grouploc, intervals, model, quadloc
    if Path(hyperloc.__file__).resolve().parent != (src / "hyperloc").resolve():
        raise SystemExit(f"imported hyperloc from {hyperloc.__file__}")


def _make(name: str, seed: int, workdir: Path):
    if name == "building":
        return Building(seed)
    if name == "hardness":
        return Hardness(seed, workdir)
    raise SystemExit(f"unknown workload {name!r}")


def run(args, workdir: Path) -> dict:
    _bind_package()
    wl = _make(args.workload, args.seed, workdir)
    wl.prepare(wl.generate(wl.describe(0)))
    setup_wall_s = time.monotonic() - args.spawned_at
    probe = _probe()
    setup = {"setup_s": setup_wall_s * PROBE_REF_S / probe,
             "setup_wall_s": setup_wall_s}
    if args.mode == "setup":
        return setup

    tracer = None
    if args.mode == "trace":
        import tracer as tracer_mod
        tracer = tracer_mod.Tracer()
        tracer.install()

    def recording(r: int, first: bool = True):
        # Spans cover one generate and one solve per round, never checks.
        if tracer is None or not first:
            return contextlib.nullcontext()
        return tracer.op(r)

    samples = {k: [] for k in ("generate_s", "solve_s", "generate_wall_s",
                               "solve_wall_s", "generate_probe_s",
                               "solve_probe_s")}

    def record(kind: str, wall: float, probe: float) -> None:
        samples[f"{kind}_wall_s"].append(wall)
        samples[f"{kind}_probe_s"].append(probe)
        samples[f"{kind}_s"].append(wall * PROBE_REF_S / probe)

    attempted = failed = 0
    wrong = []
    start = time.perf_counter()
    while attempted == 0 or time.perf_counter() - start < args.seconds:
        r = attempted
        attempted += 1
        try:
            desc = wl.describe(r)
            probe = _probe()
            for g in range(wl.GENERATES):
                with recording(r, first=g == 0):
                    inp, wall, around, probe = _timed(wl.generate, desc, probe)
                record("generate", wall, around)
            prepared = wl.prepare(inp)
            probe = _probe()
            with recording(r):
                out, wall, around, probe = _timed(wl.solve, prepared, probe)
            record("solve", wall, around)
            wl.check(inp, prepared, out)
        except CheckFailed as exc:
            failed += 1
            wrong.append(f"round {r}: {exc}")
            print(f"[{args.workload}] check failed, round {r}: {exc}",
                  file=sys.stderr)
        except Exception:  # a failed operation is counted, not fatal
            failed += 1
            print(f"[{args.workload}] round {r} raised:", file=sys.stderr)
            traceback.print_exc()

    result = {
        **setup,
        "attempted": attempted,
        "failed": failed,
        "correct": not wrong,
        **{k: statistics.median(v) if v else None
           for k, v in samples.items()},
        "samples": samples,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        / 1024.0,
    }
    if tracer is not None:
        result["layers"] = tracer.layer_metrics(
            rounds=len(samples["solve_s"]))
        result["trace_file"] = str(tracer.write(
            BENCH_DIR / "results"
            / f"trace-{args.workload}-seed{args.seed}.json"))
    return result


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=0.0)
    p.add_argument("--mode", choices=("setup", "measure", "trace"),
                   required=True)
    p.add_argument("--spawned-at", type=float, required=True,
                   help="time.monotonic() of the parent just before it "
                        "started this process (CLOCK_MONOTONIC on Linux, "
                        "shared by all processes)")
    args = p.parse_args(argv)
    with tempfile.TemporaryDirectory(prefix="tmp-", dir=BENCH_DIR) as tmp:
        result = run(args, Path(tmp))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
