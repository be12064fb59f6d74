"""Range-based sensor network localization with hyperplanar group structure.

Library + CLI for localizing unit disk graph deployments whose nodes form
collinear corridors and coplanar floors, together with a constructive
hardness gadget tying line groupability to hypergraph 2-coloring.
"""

from .errors import HyperlocError
from .gadget import (FlipConfiguration, GadgetInstance, Hypergraph3U,
                     build_gadget, enumerate_groupings, lift_to_3d,
                     two_colorings, verify_equivalence)
from .grouploc import (GroupLocalState, GroupTransform, HierarchicalResult,
                       compute_group_transform, hierarchical_localize,
                       localize_collinear_group, localize_groups,
                       localize_path, localize_support_vertex)
from .intervals import (Graph, InducedClaw, InducedNet, LinearOrder,
                        find_claw, find_net, unit_interval_order)
from .model import (BuildingConfig, GroupingFunction, Hyperplane,
                    NetworkInstance, NodeRecord, PointFormation, build_udg,
                    flagship_building_config,
                    generate_building, load_network, network_from_json_dict,
                    network_to_json_dict, save_network, strip_ground_truth)
from .quadloc import (LocalizationTrace, SeedTetrahedron, find_seed_k4,
                      multilaterate, place_seed, quadrilaterate)

__all__ = [
    "AlignmentResult", "BenchConfig", "BuildingConfig", "ExperimentReport",
    "FlipConfiguration", "GadgetInstance", "Graph", "GroupLocalState",
    "GroupTransform", "GroupingFunction", "HierarchicalResult",
    "Hypergraph3U", "Hyperplane", "HyperlocError", "InducedClaw",
    "InducedNet", "LinearOrder", "LocalizationTrace", "NetworkInstance",
    "NodeRecord", "PointFormation", "ScenarioConfig", "SeedTetrahedron",
    "align_isometry", "bench_scaling", "build_gadget", "build_udg",
    "compute_group_transform", "enumerate_groupings",
    "find_claw", "find_net", "find_seed_k4", "flagship_building_config",
    "generate_building", "hierarchical_localize",
    "lift_to_3d", "load_network", "localize_collinear_group",
    "localize_groups", "localize_path", "localize_support_vertex",
    "multilaterate", "network_from_json_dict", "network_to_json_dict",
    "place_seed", "quadrilaterate", "run_experiment", "save_network",
    "strip_ground_truth", "two_colorings", "unit_interval_order",
    "verify_equivalence",
]

# ``evaluate`` (experiments, benchmarks) loads on first use: no run needs it
_EVALUATE = {"AlignmentResult", "BenchConfig", "ExperimentReport",
             "ScenarioConfig", "align_isometry", "bench_scaling",
             "run_experiment"}


def __getattr__(name):
    if name != "evaluate" and name not in _EVALUATE:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    import importlib
    evaluate = importlib.import_module(".evaluate", __name__)
    return evaluate if name == "evaluate" else getattr(evaluate, name)


def __dir__():
    return sorted({*globals(), *_EVALUATE, "evaluate"})
