"""Layer spans for the traced run, recorded from outside the package.

Each listed public function is replaced, under the name by which its caller
looks it up, with a wrapper that records a span (name, start, end, parent
span, operation). Spans and counts stay in memory until ``write``. Only the
``trace`` mode of ``workloads.py`` installs these wrappers; the runs that
give the end-to-end numbers never do.
"""

from __future__ import annotations

import functools
import importlib
import json
import time
from collections import Counter, defaultdict
from contextlib import contextmanager
from pathlib import Path


def _stage_name(args, kwargs) -> str:
    d = kwargs.get("d", args[3] if len(args) > 3 else None)
    return f"grouploc.stage{d}"


# (module, class or None, attribute, span name). One function can sit under
# several names: each caller's module binds its own reference at import.
TARGETS = (
    ("hyperloc.model", None, "udg_edges", "model.udg_edges"),
    ("hyperloc.gadget", None, "udg_edges", "model.udg_edges"),
    ("hyperloc.model", None, "generate_building", "model.generate_building"),
    ("hyperloc.model", "NetworkInstance", "validate_exact",
     "model.validate_exact"),
    ("hyperloc.intervals", "Graph", "from_instance",
     "intervals.graph_from_instance"),
    ("hyperloc.grouploc", None, "unit_interval_order",
     "intervals.unit_interval_order"),
    ("hyperloc.intervals", None, "find_claw", "intervals.find_claw"),
    ("hyperloc.intervals", None, "find_net", "intervals.find_net"),
    ("hyperloc.grouploc", None, "localize_collinear_group",
     "grouploc.stage1"),
    ("hyperloc.grouploc", None, "localize_groups", _stage_name),
    ("hyperloc.grouploc", None, "localize_support_vertex",
     "grouploc.localize_support_vertex"),
    ("hyperloc.grouploc", None, "solve_spheres", "grouploc.solve_spheres"),
    ("hyperloc.grouploc", None, "compute_group_transform",
     "grouploc.compute_group_transform"),
    ("hyperloc.quadloc", None, "quadrilaterate", "quadloc.quadrilaterate"),
    ("hyperloc.quadloc", None, "find_seed_k4", "quadloc.find_seed_k4"),
    ("hyperloc.quadloc", None, "multilaterate", "quadloc.multilaterate"),
    ("hyperloc.quadloc", None, "solve_spheres", "quadloc.solve_spheres"),
    ("hyperloc.gadget", None, "build_gadget", "gadget.build_gadget"),
    ("hyperloc.cli", None, "build_gadget", "gadget.build_gadget"),
    ("hyperloc.gadget", None, "lift_to_3d", "gadget.lift_to_3d"),
    ("hyperloc.cli", None, "lift_to_3d", "gadget.lift_to_3d"),
    ("hyperloc.gadget", None, "enumerate_groupings",
     "gadget.enumerate_groupings"),
    ("hyperloc.cli", None, "enumerate_groupings",
     "gadget.enumerate_groupings"),
    ("hyperloc.gadget", None, "two_colorings", "gadget.two_colorings"),
)


def _placed_groups(result) -> int:
    _, states = result
    return sum(st.status == "localized" for st in states.values()) - 1


# Counts taken from a traced call's return value.
RESULT_COUNTS = {
    "grouploc.stage2": ("grouploc.groups_placed", _placed_groups),
    "grouploc.stage3": ("grouploc.groups_placed", _placed_groups),
    "quadloc.quadrilaterate": ("quadloc.nodes_placed",
                               lambda trace: trace.localized_count),
    "gadget.enumerate_groupings": ("gadget.valid_configs", len),
}


class Tracer:
    """In-memory span and count recorder; records only inside ``op``."""

    def __init__(self):
        self.spans: list[tuple[str, float, float, int, int]] = []
        self.child_s: list[float] = []
        self.raised: Counter = Counter()
        self.counts: Counter = Counter()
        self._stack: list[int] = []
        self._op: int | None = None

    @contextmanager
    def op(self, index: int):
        self._op = index
        try:
            yield
        finally:
            self._op = None

    def _wrap(self, fn, name):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if tracer._op is None:
                return fn(*args, **kwargs)
            label = name(args, kwargs) if callable(name) else name
            parent = tracer._stack[-1] if tracer._stack else -1
            sid = len(tracer.spans)
            tracer.spans.append((label, 0.0, 0.0, parent, tracer._op))
            tracer.child_s.append(0.0)
            tracer._stack.append(sid)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except Exception:
                tracer.raised[label] += 1
                raise
            finally:
                end = time.perf_counter()
                tracer._stack.pop()
                tracer.spans[sid] = (label, start, end, parent, tracer._op)
                if parent >= 0:
                    tracer.child_s[parent] += end - start
            if label in RESULT_COUNTS:
                key, count = RESULT_COUNTS[label]
                tracer.counts[key] += count(result)
            return result

        return traced

    def install(self) -> None:
        for module_name, cls_name, attr, name in TARGETS:
            owner = importlib.import_module(module_name)
            if cls_name is not None:
                owner = getattr(owner, cls_name)
                raw = owner.__dict__[attr]
                if isinstance(raw, classmethod):
                    setattr(owner, attr,
                            classmethod(self._wrap(raw.__func__, name)))
                    continue
            setattr(owner, attr, self._wrap(getattr(owner, attr), name))

    def _totals(self):
        total, self_s, calls = defaultdict(float), defaultdict(float), Counter()
        for (label, start, end, _, _), child in zip(self.spans, self.child_s):
            total[label] += end - start
            self_s[label] += end - start - child
            calls[label] += 1
        return total, self_s, calls

    def layer_metrics(self, rounds: int) -> dict[str, tuple[float, str]]:
        """Per-layer metrics per operation, as (value, unit)."""
        total, self_s, calls = self._totals()
        per = 1.0 / max(rounds, 1)
        fits = calls["grouploc.compute_group_transform"]
        placed = self.counts["grouploc.groups_placed"]
        m = {
            "model.udg_edges_s": (total["model.udg_edges"], "s"),
            "model.udg_edges.calls": (calls["model.udg_edges"], "count"),
            "model.generate_building.self_s":
                (self_s["model.generate_building"], "s"),
            "model.validate_exact_s": (total["model.validate_exact"], "s"),
            "intervals.graph_from_instance_s":
                (total["intervals.graph_from_instance"], "s"),
            "intervals.unit_interval_order_s":
                (total["intervals.unit_interval_order"], "s"),
            "intervals.unit_interval_order.calls":
                (calls["intervals.unit_interval_order"], "count"),
            "intervals.find_claw_s": (total["intervals.find_claw"], "s"),
            "intervals.find_net_s": (total["intervals.find_net"], "s"),
            "grouploc.stage1_s": (total["grouploc.stage1"], "s"),
            "grouploc.stage1.self_s": (self_s["grouploc.stage1"], "s"),
            "grouploc.stage2_s": (total["grouploc.stage2"], "s"),
            "grouploc.stage3_s": (total["grouploc.stage3"], "s"),
            "grouploc.stage2.self_s": (self_s["grouploc.stage2"], "s"),
            "grouploc.stage3.self_s": (self_s["grouploc.stage3"], "s"),
            "grouploc.support_solves":
                (calls["grouploc.localize_support_vertex"], "count"),
            "grouploc.support_rejects":
                (self.raised["grouploc.localize_support_vertex"], "count"),
            "grouploc.transform_fits": (fits, "count"),
            "grouploc.transform_rejects":
                (self.raised["grouploc.compute_group_transform"], "count"),
            "grouploc.groups_placed": (placed, "count"),
            "quadloc.find_seed_k4_s": (total["quadloc.find_seed_k4"], "s"),
            "quadloc.multilaterate_s": (total["quadloc.multilaterate"], "s"),
            "quadloc.multilaterate.calls":
                (calls["quadloc.multilaterate"], "count"),
            "quadloc.multilaterate.rejects":
                (self.raised["quadloc.multilaterate"], "count"),
            "quadloc.quadrilaterate.self_s":
                (self_s["quadloc.quadrilaterate"], "s"),
            "quadloc.solve_spheres.calls":
                (calls["quadloc.solve_spheres"], "count"),
            "quadloc.nodes_placed":
                (self.counts["quadloc.nodes_placed"], "count"),
            "gadget.build_gadget_s": (total["gadget.build_gadget"], "s"),
            "gadget.build_gadget.calls":
                (calls["gadget.build_gadget"], "count"),
            "gadget.lift_to_3d_s": (total["gadget.lift_to_3d"], "s"),
            "gadget.enumerate_groupings_s":
                (total["gadget.enumerate_groupings"], "s"),
            "gadget.enumerate_groupings.calls":
                (calls["gadget.enumerate_groupings"], "count"),
            "gadget.two_colorings_s": (total["gadget.two_colorings"], "s"),
            "gadget.valid_configs":
                (self.counts["gadget.valid_configs"], "count"),
        }
        out = {k: (v * per, unit) for k, (v, unit) in m.items()}
        # A ratio of two per-operation counts: not divided again.
        out["grouploc.fits_per_group"] = (fits / placed if placed else 0.0,
                                          "ratio")
        return out

    def write(self, path: Path) -> Path:
        """All spans plus per-name totals, as one JSON file."""
        total, self_s, calls = self._totals()
        path.parent.mkdir(parents=True, exist_ok=True)
        names = sorted(calls)
        index = {n: i for i, n in enumerate(names)}
        doc = {
            "names": names,
            "totals": {n: {"calls": calls[n], "total_s": total[n],
                           "self_s": self_s[n], "raised": self.raised[n]}
                       for n in names},
            "counts": dict(self.counts),
            "span_fields": ["name", "start_s", "end_s", "parent", "op"],
            "spans": [[index[label], start, end, parent, op]
                      for label, start, end, parent, op in self.spans],
        }
        path.write_text(json.dumps(doc))
        return path
