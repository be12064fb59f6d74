"""Isometry-aware accuracy metrics, experiment runner, scaling benchmarks."""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass, field
from typing import Mapping, Sequence

import numpy as np

from .errors import HyperlocError, InvalidConfigError, TooFewPointsError
from .grouploc import hierarchical_localize
from .model import (BuildingConfig, NetworkInstance, PointFormation,
                    build_udg, flagship_building_config, generate_building,
                    make_rng, strip_ground_truth)
from .quadloc import quadrilaterate


@dataclass(frozen=True)
class AlignmentResult:
    """Optimal rigid alignment (reflections allowed) of a formation onto truth."""

    rotation: np.ndarray
    translation: np.ndarray
    rmse: float
    residuals: dict[int, float]

    def apply(self, points) -> np.ndarray:
        pts = np.atleast_2d(np.asarray(points, dtype=float))
        return pts @ self.rotation.T + self.translation


def align_isometry(formation: PointFormation,
                   truth: Mapping[int, Sequence[float]] | NetworkInstance
                   ) -> AlignmentResult:
    """Least-squares orthogonal alignment over commonly localized nodes.

    Centroid subtraction plus SVD of the cross-covariance; the orthogonal
    factor may be a reflection, matching the sign ambiguity of anchor-free
    localization.
    """
    if isinstance(truth, NetworkInstance):
        at = np.flatnonzero(truth.has_pos)
        truth = dict(zip(at.tolist(), truth.true_pos[at].tolist()))
    d = formation.dim
    ids = [u for u in formation.localized_ids() if u in truth]
    if len(ids) < d + 1:
        raise TooFewPointsError(
            f"need at least {d + 1} common localized nodes, got {len(ids)}")
    a = formation.array(ids)
    b = np.array([np.asarray(truth[u], dtype=float)[:d] for u in ids])
    ca, cb = a.mean(axis=0), b.mean(axis=0)
    h = (a - ca).T @ (b - cb)
    u, _, vt = np.linalg.svd(h)
    rot = (u @ vt).T
    t = cb - rot @ ca
    mapped = a @ rot.T + t
    res = np.linalg.norm(mapped - b, axis=1)
    return AlignmentResult(rotation=rot, translation=t,
                           rmse=float(np.sqrt(np.mean(res ** 2))),
                           residuals={uid: float(r) for uid, r in zip(ids, res)})


# ---------------------------------------------------------------------------
# scenarios
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ScenarioConfig:
    """One experiment scenario: a generated instance plus algorithms to run."""

    name: str = "scenario"
    kind: str = "building"
    building: BuildingConfig | None = None
    n: int = 50
    target_degree: float = 35.0
    seed: int = 0
    algorithms: tuple[str, ...] = ("quad", "group")

    @classmethod
    def flagship(cls, seed: int = 42) -> "ScenarioConfig":
        return cls(name="flagship-3floor", kind="building",
                   building=flagship_building_config(seed), seed=seed)

    @classmethod
    def dense_building(cls, seed: int = 7) -> "ScenarioConfig":
        # two floors: dense enough that seed propagation reaches every node
        cfg = BuildingConfig(floors=2, floor_spacing=0.8, corridors_per_floor=4,
                             node_spacing=0.45, radius=1.0,
                             connector_columns=((3.6, 0.675),), rng_seed=seed,
                             corridor_spacing=0.45, extent=5.4, stagger=True)
        return cls(name="dense-building", kind="building", building=cfg,
                   seed=seed)

    @classmethod
    def from_json_dict(cls, data: Mapping) -> "ScenarioConfig":
        kwargs = dict(data)
        if "building" in kwargs and kwargs["building"] is not None:
            kwargs["building"] = BuildingConfig.from_json_dict(kwargs["building"])
        if "algorithms" in kwargs:
            kwargs["algorithms"] = tuple(kwargs["algorithms"])
        try:
            return cls(**kwargs)
        except TypeError as exc:
            raise InvalidConfigError(f"bad scenario config: {exc}") from exc


def random_dense_instance(n: int, target_degree: float = 35.0,
                          seed: int = 0) -> NetworkInstance:
    """Dense random 3D deployment with unit radius.

    Box side chosen so the expected degree hits the target; resamples until
    the minimum degree is 5, the average degree is at least 10 and the
    graph is connected (instance-level preconditions, not outcome checks).
    """
    rng = make_rng(seed)
    side = (n * 4.0 / 3.0 * np.pi / target_degree) ** (1.0 / 3.0)
    for _ in range(200):
        pts = rng.uniform(0.0, side, size=(n, 3))
        inst = build_udg(pts, 1.0)
        if inst.graph.degrees().min() < 5 or 2.0 * inst.m / n < 10.0:
            continue
        if inst.graph.is_connected():
            return inst
    raise InvalidConfigError("could not sample a dense connected instance")


def build_scenario_instance(config: ScenarioConfig) -> NetworkInstance:
    if config.kind == "building":
        bc = config.building or flagship_building_config(config.seed)
        return generate_building(bc)
    if config.kind == "dense_random":
        return random_dense_instance(config.n, config.target_degree, config.seed)
    raise InvalidConfigError(f"unknown scenario kind {config.kind!r}")


# ---------------------------------------------------------------------------
# experiment runner
# ---------------------------------------------------------------------------

@dataclass
class AlgorithmOutcome:
    localized_fraction: float = 0.0
    rmse: float | None = None
    wall_time_ms: float = 0.0
    error_code: str | None = None


@dataclass
class ExperimentReport:
    scenario: str
    n: int
    m: int
    k: int
    r: int
    outcomes: dict[str, AlgorithmOutcome] = field(default_factory=dict)

    def to_json_dict(self) -> dict:
        return {
            "scenario": self.scenario,
            "instance": {"n": self.n, "m": self.m, "k": self.k, "r": self.r},
            "algorithms": {
                name: {
                    "localized_fraction": oc.localized_fraction,
                    "rmse": oc.rmse,
                    "wall_time_ms": oc.wall_time_ms,
                    "error": oc.error_code,
                } for name, oc in self.outcomes.items()
            },
        }

    def csv_rows(self) -> list[str]:
        rows = []
        for name, oc in self.outcomes.items():
            rmse = "" if oc.rmse is None else f"{oc.rmse:.3e}"
            err = oc.error_code or ""
            rows.append(f"{self.scenario},{name},{self.n},{self.m},{self.k},"
                        f"{self.r},{oc.localized_fraction:.6f},{rmse},"
                        f"{oc.wall_time_ms:.3f},{err}")
        return rows


CSV_HEADER = "scenario,algo,n,m,k,r,localized_fraction,rmse,wall_time_ms,error"


def run_algorithm(name: str, instance: NetworkInstance) -> PointFormation:
    stripped = strip_ground_truth(instance)
    if name == "quad":
        return quadrilaterate(stripped).formation
    if name == "group":
        return hierarchical_localize(stripped).formation
    raise InvalidConfigError(f"unknown algorithm {name!r}")


def _timed_outcome(name: str, instance: NetworkInstance) -> AlgorithmOutcome:
    """The one timed run: strip and localize, the clock stopped when the
    localizer returns or raises; then its coverage and alignment RMSE, or
    the code it raised. ``experiment`` and ``bench`` both report this."""
    t0 = time.monotonic()
    try:
        formation = run_algorithm(name, instance)
    except HyperlocError as exc:
        return AlgorithmOutcome(wall_time_ms=(time.monotonic() - t0) * 1e3,
                                error_code=exc.code)
    ms = (time.monotonic() - t0) * 1e3
    rmse = (align_isometry(formation, instance).rmse
            if len(formation.localized_ids()) >= formation.dim + 1 else None)
    return AlgorithmOutcome(formation.localized_fraction(), rmse, ms)


def _shape(instance: NetworkInstance) -> dict[str, int]:
    """The instance columns of a report or bench row: n, m, k, r."""
    return {"n": instance.n, "m": instance.m,
            "k": len(instance.plane_group_ids()),
            "r": len(instance.line_group_ids())}


def run_experiment(config: ScenarioConfig) -> ExperimentReport:
    """Generate, then one timed run per algorithm (``_timed_outcome``)."""
    instance = build_scenario_instance(config)
    report = ExperimentReport(scenario=config.name, **_shape(instance))
    for name in config.algorithms:
        report.outcomes[name] = _timed_outcome(name, instance)
    return report


# ---------------------------------------------------------------------------
# scaling benchmark
# ---------------------------------------------------------------------------

# Every bench building has this many floors and corridors per floor.
BENCH_FLOORS = 3
BENCH_CORRIDORS = 4


@dataclass(frozen=True)
class BenchConfig:
    sizes: tuple[int, ...] = (100, 200, 400, 800)
    algorithms: tuple[str, ...] = ("group", "quad")
    seed: int = 0
    timeout_s: float = 60.0

    def __post_init__(self):
        if not self.sizes or min(self.sizes) <= 0:
            raise InvalidConfigError("bench sizes must be positive")
        # a longer wait in the worker raises OverflowError
        if not 0 < self.timeout_s <= threading.TIMEOUT_MAX:
            raise InvalidConfigError(
                f"bench timeout must be in (0, {threading.TIMEOUT_MAX}] s, "
                f"got {self.timeout_s}")


def _bench_building(n_target: int, seed: int) -> BuildingConfig:
    per_corridor = max(2, round(n_target / (BENCH_FLOORS * BENCH_CORRIDORS)))
    extent = (per_corridor - 1) * 0.9
    return BuildingConfig(floors=BENCH_FLOORS, floor_spacing=0.8,
                          corridors_per_floor=BENCH_CORRIDORS,
                          node_spacing=0.9, radius=1.0,
                          connector_columns=((round(extent / 2 / 0.9) * 0.9, 0.675),),
                          rng_seed=seed, corridor_spacing=0.45, extent=extent,
                          stagger=True)


def _bench_row(name: str, instance: NetworkInstance, timeout_s: float
               ) -> dict:
    """One timed run in a worker process so a timeout can kill it."""
    import multiprocessing  # here, so that `import hyperloc` does not load it
    row = {**_shape(instance), "algo": name, "wall_time_ms": None,
           "error": "timeout"}
    ctx = multiprocessing.get_context("fork")
    with ctx.Pool(processes=1) as pool:
        async_res = pool.apply_async(_timed_outcome, (name, instance))
        try:
            outcome = async_res.get(timeout=timeout_s)
        except multiprocessing.TimeoutError:
            return row
    row.update(wall_time_ms=outcome.wall_time_ms,
               error=outcome.error_code or "")
    return row


def bench_scaling(config: BenchConfig) -> list[dict]:
    """Wall-time sweep over instance sizes; per-run timeouts are recorded,
    not fatal. Returns one row per (size, algorithm)."""
    instances = (generate_building(_bench_building(size, config.seed))
                 for size in config.sizes)
    return [_bench_row(name, instance, config.timeout_s)
            for instance in instances for name in config.algorithms]


def bench_rows_to_csv(rows: Sequence[Mapping]) -> list[str]:
    out = ["n,m,k,r,algo,wall_time_ms,error"]
    for row in rows:
        wt = "" if row["wall_time_ms"] is None else f"{row['wall_time_ms']:.3f}"
        out.append(f"{row['n']},{row['m']},{row['k']},{row['r']},"
                   f"{row['algo']},{wt},{row['error']}")
    return out
