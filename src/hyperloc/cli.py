"""Command-line entry point.

Exit codes: 0 success, 1 domain error (machine-readable JSON on stderr),
2 usage or I/O error. Results go to stdout or ``-o``; logs go to stderr.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys

from .errors import HyperlocError
from .gadget import Hypergraph3U, build_gadget, enumerate_groupings, \
    lift_to_3d, verify_equivalence
from .grouploc import hierarchical_localize
from .intervals import Graph, find_claw, find_net, unit_interval_order
from .model import (BuildingConfig, generate_building, load_network,
                    network_to_json_dict, save_network, strip_ground_truth)
from .quadloc import quadrilaterate


def _emit(text: str, out_path: str | None) -> None:
    if out_path:
        with open(out_path, "w") as fh:
            fh.write(text if text.endswith("\n") else text + "\n")
    else:
        print(text)


def _cmd_generate(args) -> int:
    with open(args.config) as fh:
        cfg = BuildingConfig.from_json_dict(json.load(fh))
    overrides = {}
    if args.seed is not None:
        overrides["rng_seed"] = args.seed
    if args.noise_sigma is not None:
        overrides["noise_sigma"] = args.noise_sigma
    if overrides:
        cfg = BuildingConfig.from_json_dict({**cfg.to_json_dict(), **overrides})
    instance = generate_building(cfg)
    if args.output:
        save_network(instance, args.output)
    else:
        _emit(json.dumps(network_to_json_dict(instance), indent=1), None)
    return 0


def _cmd_localize(args) -> int:
    instance = load_network(args.input)
    stripped = strip_ground_truth(instance)
    result: dict = {"algorithm": args.algorithm}
    if args.algorithm == "quad":
        trace = quadrilaterate(stripped, eps=args.epsilon, tau=args.tau)
        formation = trace.formation
        result["trace"] = [
            {"node": u, "pos": [float(c) for c in p], "anchors": list(a)}
            for u, p, a in trace.steps]
    else:
        res = hierarchical_localize(stripped, eps=args.epsilon)
        formation = res.formation
        result["groups"] = [
            {"group": g, "status": st.status,
             "supports": [u for u, _ in st.support_vertices],
             "plane": {"normal": list(st.plane.normal),
                       "offset": st.plane.offset} if st.plane else None}
            for g, st in sorted(res.floor_states.items())]
    result["formation"] = {
        str(u): p if held else None for u, p, held in zip(
            formation.ids.tolist(), formation.points.tolist(),
            formation.mask.tolist())}
    result["localized_fraction"] = formation.localized_fraction()
    if instance.has_positions() and len(formation.localized_ids()) >= 4:
        from .evaluate import align_isometry
        result["aligned_rmse"] = align_isometry(formation, instance).rmse
    _emit(json.dumps(result, indent=1), args.output)
    return 0


def _cmd_check_graph(args) -> int:
    instance = load_network(args.input)
    graph = Graph.from_instance(instance)
    claw = find_claw(graph)
    net = find_net(graph)
    try:
        ham = list(unit_interval_order(graph).sequence)
    except HyperlocError:
        ham = None
    report = {
        "claw": {"center": claw.center, "leaves": list(claw.leaves)}
        if claw else None,
        "net": {"triangle": list(net.triangle), "pendants": list(net.pendants)}
        if net else None,
        "hamiltonian_path": ham,
    }
    _emit(json.dumps(report, indent=1), args.output)
    return 0


def _cmd_verify_hardness(args) -> int:
    with open(args.hypergraph) as fh:
        h = Hypergraph3U.from_text(fh.read())
    g2 = build_gadget(h)
    report = verify_equivalence(g2)
    if args.lift_3d:
        g3 = lift_to_3d(g2)
        lifted = enumerate_groupings(g3)
        report["lift_3d"] = {
            "groupable": bool(lifted),
            "n_valid_configs": len(lifted),
            "preserves_verdict": bool(lifted) == report["groupable"],
            "nodes": g3.instance.n,
            "edges": g3.instance.m,
        }
    if not args.full_correspondence:
        report["correspondence"] = report["correspondence"][:8]
    _emit(_hardness_json(report), args.output)
    return 0


def _hardness_json(report: dict) -> str:
    """``json.dumps(report, indent=1)``, with the correspondence rows, most
    of the bytes, filled into one template: with ``indent`` the encoder runs
    in Python, value by value. Every row has the first row's keys, each
    holding a list of scalars as long as the first row's; a report with no
    rows, or with an empty list in its first row, goes to ``json.dumps``."""
    rows = report["correspondence"]
    if not rows or not all(rows[0].values()):
        return json.dumps(report, indent=1)
    text = json.dumps({**report, "correspondence": []}, indent=1)
    leaves = [x for row in rows for v in row.values() for x in v]
    # one C-encoder call; no encoded scalar holds a raw newline
    codes = json.dumps(leaves, separators=("\n", ": "))[1:-1].split("\n")
    entry = "  {\n" + ",\n".join(
        f"   {json.dumps(k)}: [\n".replace("%", "%%")
        + ",\n".join(["    %s"] * len(v)) + "\n   ]"
        for k, v in rows[0].items()) + "\n  }"
    body = "[\n" + ",\n".join([entry] * len(rows)) % tuple(codes) + "\n ]"
    return text.replace('"correspondence": []', '"correspondence": ' + body, 1)


def _cmd_experiment(args) -> int:
    from .evaluate import CSV_HEADER, ScenarioConfig, run_experiment
    if args.scenario in ("flagship", None):
        cfg = ScenarioConfig.flagship(args.seed)
    elif args.scenario == "dense":
        cfg = ScenarioConfig.dense_building(args.seed)
    else:
        with open(args.scenario) as fh:
            cfg = ScenarioConfig.from_json_dict(json.load(fh))
    report = run_experiment(cfg)
    if args.format == "csv":
        _emit("\n".join([CSV_HEADER] + report.csv_rows()), args.output)
    else:
        _emit(json.dumps(report.to_json_dict(), indent=1), args.output)
    return 0


def _cmd_bench(args) -> int:
    from .evaluate import BenchConfig, bench_rows_to_csv, bench_scaling
    cfg = BenchConfig(sizes=args.sizes,
                      algorithms=tuple(args.algorithms.split(",")),
                      seed=args.seed, timeout_s=args.timeout)
    rows = bench_scaling(cfg)
    _emit("\n".join(bench_rows_to_csv(rows)), args.output)
    return 0


def _int_list(text: str) -> tuple[int, ...]:
    try:
        return tuple(int(t) for t in text.split(","))
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"not a comma-separated list of integers: {text!r}") from None


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process: ``main`` reuses it."""
    parser = argparse.ArgumentParser(
        prog="hyperloc",
        description="Localize unit-disk sensor networks with hyperplanar "
                    "group structure; verify the associated hardness gadget.")
    parser.add_argument("--epsilon", type=float, default=1e-9,
                        help="distance-consistency tolerance (default 1e-9)")
    parser.add_argument("--tau", type=float, default=1e-12,
                        help="normalized volume degeneracy threshold")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("generate", help="generate a building deployment")
    p.add_argument("--config", required=True, help="building config JSON")
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--noise-sigma", type=float, default=None,
                   dest="noise_sigma",
                   help="multiplicative distance noise (default: config value)")
    p.add_argument("-o", "--output")
    p.set_defaults(func=_cmd_generate)

    p = sub.add_parser("localize", help="run a localizer on a network JSON")
    p.add_argument("--algorithm", choices=("quad", "group"), required=True)
    p.add_argument("--input", required=True)
    p.add_argument("-o", "--output")
    p.set_defaults(func=_cmd_localize)

    p = sub.add_parser("check-graph",
                       help="claw/net/Hamiltonian-path report for a network")
    p.add_argument("--input", required=True)
    p.add_argument("-o", "--output")
    p.set_defaults(func=_cmd_check_graph)

    p = sub.add_parser("verify-hardness",
                       help="2-colorability vs groupability report")
    p.add_argument("--hypergraph", required=True,
                   help="text file: 'n m' then m lines of 3 vertex indices")
    p.add_argument("--lift-3d", action="store_true", dest="lift_3d")
    p.add_argument("--full-correspondence", action="store_true")
    p.add_argument("-o", "--output")
    p.set_defaults(func=_cmd_verify_hardness)

    p = sub.add_parser("experiment", help="head-to-head localizer comparison")
    p.add_argument("--scenario", default="flagship",
                   help="'flagship', 'dense', or a scenario JSON path")
    p.add_argument("--seed", type=int, default=42)
    p.add_argument("--format", choices=("json", "csv"), default="json")
    p.add_argument("-o", "--output")
    p.set_defaults(func=_cmd_experiment)

    p = sub.add_parser("bench", help="scaling sweep, CSV output")
    p.add_argument("--sizes", type=_int_list, default="100,200,400,800")
    p.add_argument("--algorithms", default="group,quad")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--timeout", type=float, default=60.0)
    p.add_argument("-o", "--output")
    p.set_defaults(func=_cmd_bench)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        return args.func(args)
    except HyperlocError as exc:
        print(json.dumps(exc.payload()), file=sys.stderr)
        return 1
    except OSError as exc:
        print(json.dumps({"error": "io", "message": str(exc)}),
              file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
