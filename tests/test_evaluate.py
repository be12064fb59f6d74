import math
import os
import subprocess
import sys
import time
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

import hyperloc
from hyperloc import evaluate
from hyperloc.errors import InvalidConfigError, TooFewPointsError
from hyperloc.evaluate import (BenchConfig, ScenarioConfig, align_isometry,
                               bench_scaling, random_dense_instance,
                               run_experiment)
from hyperloc.model import BuildingConfig, PointFormation, build_udg, make_rng


def formation_from(points):
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    f = PointFormation(pts.shape[1], range(len(pts)))
    for i, p in enumerate(pts):
        f.mark(i, p)
    return f


def brute_force_rmse_2d(a, b, steps=720, rounds=4):
    """Grid-refined search over rotations and reflections, translation
    solved by centroid matching."""
    a = a - a.mean(axis=0)
    bc = b - b.mean(axis=0)
    best = np.inf
    for reflect in (1.0, -1.0):
        ar = a * np.array([1.0, reflect])
        lo, hi = 0.0, 2 * np.pi
        for _ in range(rounds):
            thetas = np.linspace(lo, hi, steps)
            vals = []
            for th in thetas:
                rot = np.array([[np.cos(th), -np.sin(th)],
                                [np.sin(th), np.cos(th)]])
                vals.append(np.sqrt(np.mean(
                    np.sum((ar @ rot.T - bc) ** 2, axis=1))))
            k = int(np.argmin(vals))
            best = min(best, vals[k])
            width = (hi - lo) / steps
            lo, hi = thetas[k] - 2 * width, thetas[k] + 2 * width
    return best


class TestAlignIsometry:
    def test_reflection_gives_zero_rmse(self):
        truth = np.array([(0, 0, 0), (1, 0, 0), (0, 1, 0), (0.3, 0.4, 0.8)])
        mirrored = truth * np.array([-1, 1, 1])
        res = align_isometry(formation_from(mirrored),
                             dict(enumerate(truth)))
        assert res.rmse < 1e-12
        assert np.linalg.det(res.rotation) == pytest.approx(-1.0)

    def test_translation_gives_zero_rmse(self):
        truth = np.array([(0, 0, 0), (1, 0, 0), (0, 1, 0), (0, 0, 1)])
        res = align_isometry(formation_from(truth + np.array([5.0, 0, 0])),
                             dict(enumerate(truth)))
        assert res.rmse < 1e-12

    def test_self_alignment_zero(self):
        rng = make_rng(20)
        pts = rng.standard_normal((8, 3))
        res = align_isometry(formation_from(pts), dict(enumerate(pts)))
        assert res.rmse < 1e-12

    def test_perturbation_bounds(self):
        rng = make_rng(21)
        truth = rng.standard_normal((10, 3))
        noise = rng.standard_normal((10, 3))
        noise *= 1e-3 / np.linalg.norm(noise, axis=1, keepdims=True)
        res = align_isometry(formation_from(truth + noise),
                             dict(enumerate(truth)))
        assert 0.0 < res.rmse <= 1e-3

    def test_too_few_points(self):
        with pytest.raises(TooFewPointsError):
            align_isometry(formation_from([(0, 0, 0), (1, 1, 1)]),
                           {0: (0, 0, 0), 1: (1, 1, 1)})

    def test_matches_brute_force_rotation_search_2d(self):
        rng = make_rng(22)
        for _ in range(5):
            k = int(rng.integers(4, 7))
            a = rng.standard_normal((k, 2))
            b = rng.standard_normal((k, 2))
            res = align_isometry(formation_from(a), dict(enumerate(b)))
            assert res.rmse == pytest.approx(brute_force_rmse_2d(a, b),
                                             abs=1e-6)


class TestRunExperiment:
    def test_flagship_head_to_head(self):
        rep = run_experiment(ScenarioConfig.flagship())
        quad, group = rep.outcomes["quad"], rep.outcomes["group"]
        assert group.localized_fraction == 1.0
        assert group.rmse < 1e-6
        assert quad.error_code == "no-seed" or quad.localized_fraction < 1.0

    def test_dense_scenario_both_accurate(self):
        rep = run_experiment(ScenarioConfig.dense_building())
        for name in ("quad", "group"):
            oc = rep.outcomes[name]
            assert oc.error_code is None
            assert oc.rmse < 1e-6

    def test_seed_repetition_identical(self):
        a = run_experiment(ScenarioConfig.flagship(seed=9))
        b = run_experiment(ScenarioConfig.flagship(seed=9))
        da, db = a.to_json_dict(), b.to_json_dict()
        for rep in (da, db):
            for alg in rep["algorithms"].values():
                alg.pop("wall_time_ms")
        assert da == db

    def test_dense_random_instance_degree_floor(self):
        inst = random_dense_instance(50, seed=4)
        assert 2.0 * inst.m / inst.n >= 10.0

    def test_dense_random_instance_matches_per_edge_reference(self):
        # the degree loop and dict DFS the adjacency arrays replaced; the
        # same draw is accepted, so the same instance comes back
        def reference(n, target_degree, seed):
            rng = make_rng(seed)
            side = (n * 4.0 / 3.0 * np.pi / target_degree) ** (1.0 / 3.0)
            for _ in range(200):
                inst = build_udg(rng.uniform(0.0, side, size=(n, 3)), 1.0)
                deg = np.zeros(n, dtype=int)
                for u, v, _ in inst.edges:
                    deg[u] += 1
                    deg[v] += 1
                if deg.min() < 5 or 2.0 * inst.m / n < 10.0:
                    continue
                seen, stack = {0}, [0]
                while stack:
                    for v in inst.neighbors(stack.pop()):
                        if v not in seen:
                            seen.add(v)
                            stack.append(v)
                if len(seen) == n:
                    return inst
            return None

        for n, target, seed in ((60, 35.0, 0), (80, 20.0, 1), (200, 35.0, 7),
                                (120, 44.0, 3)):
            assert random_dense_instance(n, target, seed).edges == \
                reference(n, target, seed).edges
        # too sparse: every draw is rejected by both
        assert reference(60, 12.0, 5) is None
        with pytest.raises(InvalidConfigError):
            random_dense_instance(60, 12.0, 5)


class TestBenchScaling:
    def test_rejects_empty_or_nonpositive(self):
        with pytest.raises(InvalidConfigError):
            bench_scaling(BenchConfig(sizes=()))
        with pytest.raises(InvalidConfigError):
            bench_scaling(BenchConfig(sizes=(0,)))

    @pytest.mark.parametrize("timeout", [0, -1, math.nan, math.inf, 1e12])
    def test_rejects_a_timeout_a_worker_cannot_wait(self, timeout):
        with pytest.raises(InvalidConfigError, match="timeout"):
            BenchConfig(timeout_s=timeout)

    def test_failed_run_keeps_its_time(self):
        # the experiment outcome and the bench row of the same failed run
        rep = run_experiment(ScenarioConfig(algorithms=("nope",)))
        rows = bench_scaling(BenchConfig(sizes=(60,), algorithms=("nope",)))
        oc = rep.outcomes["nope"]
        assert oc.error_code == "invalid-config"
        assert [r["error"] for r in rows] == [oc.error_code]
        assert rows[0]["wall_time_ms"] is not None
        assert rows[0]["wall_time_ms"] > 0 and oc.wall_time_ms > 0

    def test_small_sweep_columns_deterministic(self):
        cfg = BenchConfig(sizes=(60, 120), algorithms=("group",),
                          timeout_s=60.0)
        rows1 = bench_scaling(cfg)
        rows2 = bench_scaling(cfg)
        cols1 = [(r["n"], r["m"], r["k"], r["r"]) for r in rows1]
        cols2 = [(r["n"], r["m"], r["k"], r["r"]) for r in rows2]
        assert cols1 == cols2
        assert all(r["error"] == "" for r in rows1)
        assert all(r["wall_time_ms"] is not None for r in rows1)


# what one timed run did, in order, and the run the spy below wraps
_EVENTS = []
_TIMED_OUTCOME = None


def _spied_outcome(name, instance):
    """``evaluate._timed_outcome``, its outcome's error naming the clock
    reads and alignments it made, in order: the bench worker's events come
    back in its row."""
    _EVENTS.clear()
    outcome = _TIMED_OUTCOME(name, instance)
    outcome.error_code = " ".join(_EVENTS)
    return outcome


def test_experiment_and_bench_share_one_timed_run(monkeypatch):
    def monotonic():
        _EVENTS.append("clock")
        return time.monotonic()

    def align(*args):
        _EVENTS.append("align")
        return align_isometry(*args)

    monkeypatch.setattr(evaluate, "time", SimpleNamespace(monotonic=monotonic))
    monkeypatch.setattr(evaluate, "align_isometry", align)
    monkeypatch.setitem(globals(), "_TIMED_OUTCOME", evaluate._timed_outcome)
    monkeypatch.setattr(evaluate, "_timed_outcome", _spied_outcome)
    # the alignment runs after the clock stops, in both commands
    floors = BuildingConfig(floors=2, corridors_per_floor=3, extent=4.5,
                            connector_columns=((2.7, 0.45),))
    rep = run_experiment(ScenarioConfig(building=floors, algorithms=("group",)))
    assert rep.outcomes["group"].error_code == "clock clock align"
    rows = bench_scaling(BenchConfig(sizes=(60,), algorithms=("group",)))
    assert [r["error"] for r in rows] == ["clock clock align"]


def _fresh_python(code):
    """Exit code of ``code`` run in a new interpreter that imports this
    checkout's package."""
    src = str(Path(hyperloc.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [src, os.environ.get("PYTHONPATH", "")])}
    return subprocess.run([sys.executable, "-c", code], env=env,
                          timeout=60).returncode


def test_import_does_not_load_multiprocessing():
    # only bench_scaling's worker uses it; importing it costs every process
    code = "import sys, hyperloc; sys.exit('multiprocessing' in sys.modules)"
    assert _fresh_python(code) == 0


def test_evaluate_loads_on_first_use():
    # the modules the benchmark binds, and the CLI, leave it unloaded; each
    # of its names in __all__ then resolves to the object in the module
    code = """
import sys, hyperloc
from hyperloc import cli, gadget, grouploc, intervals, model, quadloc
assert 'hyperloc.evaluate' not in sys.modules
lazy = [name for name in hyperloc.__all__ if name not in vars(hyperloc)]
assert sorted(lazy) == ['AlignmentResult', 'BenchConfig', 'ExperimentReport',
                        'ScenarioConfig', 'align_isometry', 'bench_scaling',
                        'run_experiment'], lazy
import hyperloc.evaluate as ev
assert hyperloc.evaluate is ev
assert all(getattr(hyperloc, name) is getattr(ev, name) for name in lazy)
names = {}
exec('from hyperloc import *', names)
assert all(names[name] is getattr(hyperloc, name) for name in hyperloc.__all__)
try:
    hyperloc.no_such_name
except AttributeError as exc:
    assert 'no_such_name' in str(exc)
else:
    sys.exit(1)
"""
    assert _fresh_python(code) == 0


def test_dir_lists_the_lazy_names_without_loading_them():
    code = """
import sys, hyperloc
assert set(hyperloc.__all__) <= set(dir(hyperloc))
sys.exit('hyperloc.evaluate' in sys.modules)
"""
    assert _fresh_python(code) == 0


def test_evaluate_attribute_imports_it():
    code = """
import sys, hyperloc
sys.exit(hyperloc.evaluate is not sys.modules['hyperloc.evaluate'])
"""
    assert _fresh_python(code) == 0


def test_localize_does_not_load_numpy_ma():
    # a plain np.unique imports numpy.ma, about 15 ms of a first localize
    code = """
import sys
from hyperloc import (flagship_building_config, generate_building,
                      hierarchical_localize, quadrilaterate)
inst = generate_building(flagship_building_config())
hierarchical_localize(inst)
quadrilaterate(inst)
sys.exit('numpy.ma' in sys.modules)
"""
    assert _fresh_python(code) == 0
