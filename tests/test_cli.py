import hashlib
import json

import numpy as np
import pytest

from hyperloc.cli import main
from hyperloc.gadget import (BLUE, COLOR_NAMES, RED, Hypergraph3U,
                             build_gadget, enumerate_groupings, lift_to_3d,
                             two_colorings, verify_equivalence)
from hyperloc.model import flagship_building_config, network_to_json_dict

from test_gadget import random_hypergraph


@pytest.fixture
def building_config_file(tmp_path):
    path = tmp_path / "building.json"
    path.write_text(json.dumps(flagship_building_config().to_json_dict()))
    return str(path)


@pytest.fixture
def network_file(tmp_path, building_config_file):
    net = str(tmp_path / "net.json")
    rc = main(["generate", "--config", building_config_file,
               "--seed", "42", "-o", net])
    assert rc == 0
    return net


def test_generate_writes_file(network_file):
    data = json.loads(open(network_file).read())
    assert data["radius"] == 1.0
    assert len(data["nodes"]) > 0


def test_generate_seed_deterministic(tmp_path, building_config_file):
    a, b = str(tmp_path / "a.json"), str(tmp_path / "b.json")
    main(["generate", "--config", building_config_file, "--seed", "7", "-o", a])
    main(["generate", "--config", building_config_file, "--seed", "7", "-o", b])
    assert open(a).read() == open(b).read()


def test_localize_group_full(tmp_path, network_file):
    out = str(tmp_path / "loc.json")
    rc = main(["localize", "--algorithm", "group", "--input", network_file,
               "-o", out])
    assert rc == 0
    res = json.loads(open(out).read())
    assert res["localized_fraction"] == 1.0
    assert res["aligned_rmse"] < 1e-6
    assert all(v is not None for v in res["formation"].values())


def test_localize_quad_partial(tmp_path, network_file):
    out = str(tmp_path / "loc.json")
    rc = main(["localize", "--algorithm", "quad", "--input", network_file,
               "-o", out])
    assert rc == 0
    res = json.loads(open(out).read())
    assert res["localized_fraction"] < 1.0


def test_localize_no_seed_exit_code(tmp_path, capsys):
    flat = {
        "floors": 1, "corridors_per_floor": 3, "node_spacing": 0.9,
        "corridor_spacing": 0.45, "extent": 3.6, "radius": 1.0,
    }
    cfg = tmp_path / "flat.json"
    cfg.write_text(json.dumps(flat))
    net = str(tmp_path / "flat_net.json")
    assert main(["generate", "--config", str(cfg), "-o", net]) == 0
    rc = main(["localize", "--algorithm", "quad", "--input", net])
    captured = capsys.readouterr()
    assert rc == 1
    assert json.loads(captured.err.strip())["error"] == "no-seed"


def test_check_graph_report(tmp_path, network_file):
    out = str(tmp_path / "check.json")
    assert main(["check-graph", "--input", network_file, "-o", out]) == 0
    rep = json.loads(open(out).read())
    assert set(rep) == {"claw", "net", "hamiltonian_path"}
    assert rep["claw"] is not None       # building graphs contain claws
    assert rep["hamiltonian_path"] is None


def test_verify_hardness(tmp_path):
    hg = tmp_path / "h.txt"
    hg.write_text("5 2\n0 1 2\n2 3 4\n")
    out = str(tmp_path / "rep.json")
    rc = main(["verify-hardness", "--hypergraph", str(hg), "--lift-3d",
               "-o", out])
    assert rc == 0
    rep = json.loads(open(out).read())
    assert rep["colorable"] and rep["groupable"] and rep["agree"]
    assert rep["lift_3d"]["preserves_verdict"]


# A relabelling of the benchmark's 8-vertex shape (round 5 at seed 0) on
# which the layout search is slow: about 3 ms of search when it was pinned.
SLOW_LAYOUT = "8 4\n3 6 7\n0 1 4\n2 4 7\n1 2 5\n"

# SHA-256 of `verify-hardness --lift-3d --full-correspondence` stdout,
# recorded while each admitted configuration was still placed and checked
# by its own kernel call; the block-table check must keep these bytes.
PINNED_HARDNESS = {
    "8 4\n0 4 5\n1 3 6\n1 5 7\n2 6 7\n":
        "184d9cde335f189fba379421e0b461b752e2c0e9f2805c2bb19a226e6a0884b9",
    "6 3\n0 1 4\n0 3 4\n2 3 4\n":
        "474b9ad44283644bcb694d31ccee383a603d45a4197fe1e9ea8297b2bced8745",
    "5 2\n0 1 2\n2 3 4\n":
        "9449f167ec454d4d072599bf24e6680521b0d61ae5a33f46acdcd585119b5264",
    SLOW_LAYOUT:
        "a5d04bfe16572d3f0165ce5013b36a97aab00df1b9f1d2caac8c689f27b332ba",
}


@pytest.mark.parametrize("text", sorted(PINNED_HARDNESS))
def test_verify_hardness_bytes_pinned(tmp_path, capsys, text):
    hg = tmp_path / "h.txt"
    hg.write_text(text)
    assert main(["verify-hardness", "--hypergraph", str(hg), "--lift-3d",
                 "--full-correspondence"]) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == PINNED_HARDNESS[text]


# SHA-256 of the 8-vertex shape's report under the other three flag
# combinations, recorded while the report was still built from
# `FlipConfiguration` records.
PINNED_FLAGS = {
    (): "94369820f1b4e46f11208a56b00af3889e30eddb67a7fd2bb89972fd259f0672",
    ("--lift-3d",):
        "3b83289f2790ca189ee2cc9d4c2a1fe0898d5a4cf25d8c635f0ccd1cebde8871",
    ("--full-correspondence",):
        "f303b72a4e4e9d9f7aab484bbb69b57e1b136579c590d27c0be65a9dea43358e",
}


@pytest.mark.parametrize("flags", sorted(PINNED_FLAGS),
                         ids=["no-flags", "full-correspondence", "lift-3d"])
def test_verify_hardness_other_flags_pinned(tmp_path, capsys, flags):
    hg = tmp_path / "h.txt"
    hg.write_text("8 4\n0 4 5\n1 3 6\n1 5 7\n2 6 7\n")
    assert main(["verify-hardness", "--hypergraph", str(hg), *flags]) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == PINNED_FLAGS[flags]


def _record_equivalence(g):
    """The equivalence report as it was built from ``enumerate_groupings``'
    records, before ``verify_equivalence`` read the valid rows."""
    colorings = two_colorings(g.hypergraph)
    colorable = bool(colorings)
    configs = enumerate_groupings(g)
    groupable = bool(configs)
    bits = np.array([c.vertical + c.horizontal for c in configs],
                    dtype=np.intp).reshape(-1, 2, g.hypergraph.n_vertices)
    names = np.array([COLOR_NAMES[RED], COLOR_NAMES[BLUE]])
    colors = names[np.asarray(g.base_coloring, dtype=np.intp) ^ bits[:, 0]]
    correspondence = [
        {"vertical": v, "horizontal": h, "coloring": c}
        for (v, h), c in zip(bits.tolist(), colors.tolist())
    ]
    return {
        "colorable": colorable,
        "groupable": groupable,
        "agree": colorable == groupable,
        "n_colorings": len(colorings),
        "n_valid_configs": len(configs),
        "correspondence": correspondence,
    }


@pytest.mark.parametrize("inputs", [
    [Hypergraph3U.from_text(text) for text in sorted(PINNED_HARDNESS)],
    [Hypergraph3U(4, ())],
    [random_hypergraph(np.random.default_rng(100 + i), min_n=3, max_n=8,
                       max_m=4) for i in range(40)],
], ids=["pinned", "no-edges", "random"])
def test_verify_equivalence_matches_the_record_based_report(inputs):
    # equal values and equal JSON bytes: the bits stay ints, not bools
    for h in inputs:
        g = build_gadget(h)
        got, want = verify_equivalence(g), _record_equivalence(g)
        assert got == want, h
        assert json.dumps(got) == json.dumps(want), h


def _gadget_geometry(g):
    """A built or lifted gadget's node ids, positions, labels, edges,
    hyperplanes, flag nodes, line order and wires, as JSON values."""
    return [network_to_json_dict(g.instance),
            [[list(p.normal), p.offset, color, label]
             for p, color, label in g.hyperplanes],
            sorted([v, f, list(ids)] for (v, f), ids in g.flag_nodes.items()),
            list(g.order),
            [[list(w.end_vertices), list(w.end_apexes), list(w.token_ids)]
             for w in g._wires]]


# SHA-256 over the 2D gadget and its lift for the other three shapes above,
# recorded before the gadget's node bookkeeping was folded into one table;
# the report pins do not cover node ids or positions, this one does.
PINNED_GEOMETRY = \
    "4d673a853c56bd17bcb31a8087bf7731b0d36633e2cd7e5055ea82eb41e90bcf"


def test_gadget_geometry_pinned():
    values = []
    for text in sorted(PINNED_HARDNESS.keys() - {SLOW_LAYOUT}):
        g = build_gadget(Hypergraph3U.from_text(text))
        values += [_gadget_geometry(g), _gadget_geometry(lift_to_3d(g))]
    digest = hashlib.sha256(json.dumps(values).encode()).hexdigest()
    assert digest == PINNED_GEOMETRY


def _hardness_report(h, lift, full):
    """The verify-hardness report, built as the command builds it."""
    g2 = build_gadget(h)
    report = verify_equivalence(g2)
    if lift:
        g3 = lift_to_3d(g2)
        lifted = enumerate_groupings(g3)
        report["lift_3d"] = {
            "groupable": bool(lifted),
            "n_valid_configs": len(lifted),
            "preserves_verdict": bool(lifted) == report["groupable"],
            "nodes": g3.instance.n,
            "edges": g3.instance.m,
        }
    if not full:
        report["correspondence"] = report["correspondence"][:8]
    return report


_WRITER_INPUTS = [random_hypergraph(np.random.default_rng(seed), min_n=3,
                                    max_n=8, max_m=4) for seed in range(6)]
_WRITER_INPUTS.append(Hypergraph3U(4, ()))


@pytest.mark.parametrize("h", _WRITER_INPUTS,
                         ids=[f"seed{i}" for i in range(6)] + ["no-edges"])
def test_verify_hardness_writes_the_json_module_bytes(tmp_path, capsys, h):
    hg = tmp_path / "h.txt"
    hg.write_text(h.to_text())
    for lift, full in ((True, True), (True, False), (False, True),
                       (False, False)):
        flags = ["--lift-3d"] * lift + ["--full-correspondence"] * full
        assert main(["verify-hardness", "--hypergraph", str(hg), *flags]) == 0
        want = json.dumps(_hardness_report(h, lift, full), indent=1) + "\n"
        assert capsys.readouterr().out == want


@pytest.mark.parametrize("rows", [
    [],
    [{"vertical": [], "horizontal": [1], "coloring": ["red"]}],
    [{"a%s": [True, None, 1.5], "b": ["\u00e9\n\"%d", "x"]},
     {"a%s": [0, -2, 1e300], "b": ["", "%%"]}],
], ids=["no-rows", "empty-list", "escapes"])
def test_hardness_writer_matches_json_module(rows):
    from hyperloc.cli import _hardness_json
    report = {"groupable": True, "correspondence": rows, "lift_3d": {"n": 1}}
    assert _hardness_json(report) == json.dumps(report, indent=1)


def test_verify_hardness_over_cap_is_domain_error(tmp_path, capsys):
    fano = "7 7\n0 1 2\n0 3 4\n0 5 6\n1 3 5\n1 4 6\n2 3 6\n2 4 5\n"
    hg = tmp_path / "fano.txt"
    hg.write_text(fano)
    rc = main(["verify-hardness", "--hypergraph", str(hg)])
    captured = capsys.readouterr()
    assert rc == 1
    assert json.loads(captured.err.strip())["error"] == "size-cap"


def test_verify_hardness_rejects_edges_past_the_header(tmp_path, capsys):
    hg = tmp_path / "h.txt"
    hg.write_text("3 1\n0 1 2\n0 1 2\n1 2 0\n")
    rc = main(["verify-hardness", "--hypergraph", str(hg), "--lift-3d"])
    captured = capsys.readouterr()
    assert rc == 1 and captured.out == ""
    assert json.loads(captured.err) == {
        "error": "invalid-input", "message": "edge count does not match header"}


def test_missing_file_is_io_error(capsys):
    rc = main(["verify-hardness", "--hypergraph", "/does/not/exist.txt"])
    captured = capsys.readouterr()
    assert rc == 2
    assert json.loads(captured.err.strip())["error"] == "io"


def test_experiment_csv(tmp_path):
    out = str(tmp_path / "exp.csv")
    rc = main(["experiment", "--scenario", "flagship", "--format", "csv",
               "-o", out])
    assert rc == 0
    lines = open(out).read().strip().splitlines()
    assert lines[0].startswith("scenario,algo,n,m,k,r,")
    assert len(lines) == 3


def test_bench_csv(tmp_path):
    out = str(tmp_path / "bench.csv")
    rc = main(["bench", "--sizes", "60", "--algorithms", "group",
               "-o", out])
    assert rc == 0
    lines = open(out).read().strip().splitlines()
    assert lines[0] == "n,m,k,r,algo,wall_time_ms,error"
    assert len(lines) == 2


def test_usage_error_exit_code():
    assert main(["localize", "--algorithm", "bogus", "--input", "x"]) == 2


@pytest.mark.parametrize("sizes", ["abc", "60,x", ""])
def test_bench_sizes_not_integers_is_a_usage_error(capsys, sizes):
    assert main(["bench", "--sizes", sizes]) == 2
    assert "--sizes" in capsys.readouterr().err


@pytest.mark.parametrize("timeout", ["0", "-1", "nan", "inf", "1e12"])
def test_bench_timeout_out_of_range_is_invalid_config(capsys, timeout):
    assert main(["bench", "--sizes", "60", "--timeout", timeout]) == 1
    assert json.loads(capsys.readouterr().err)["error"] == "invalid-config"


def test_stdout_is_pure_json(tmp_path, capsys):
    hg = tmp_path / "h.txt"
    hg.write_text("3 1\n0 1 2\n")
    assert main(["verify-hardness", "--hypergraph", str(hg)]) == 0
    captured = capsys.readouterr()
    json.loads(captured.out)  # must parse as a single JSON document


@pytest.mark.parametrize("labels", [("a", 2), ("a", "b")])
def test_localize_rejects_non_integer_labels(tmp_path, capsys, labels):
    # mixed str/int labels once escaped as a TypeError traceback
    net = tmp_path / "labels.json"
    net.write_text(json.dumps({
        "radius": 1.0,
        "nodes": [{"id": i, "line_group": lab, "plane_group": 1}
                  for i, lab in enumerate(labels)],
        "edges": [{"u": 0, "v": 1, "dist": 0.5}]}))
    rc = main(["localize", "--algorithm", "group", "--input", str(net)])
    assert rc == 1
    assert json.loads(capsys.readouterr().err)["error"] == "invalid-input"


def test_localize_rejects_line_label_shared_by_floors(tmp_path, capsys):
    net = tmp_path / "shared.json"
    net.write_text(json.dumps({
        "radius": 1.0,
        "nodes": [{"id": 0, "line_group": 1, "plane_group": 1},
                  {"id": 1, "line_group": 1, "plane_group": 2}],
        "edges": [{"u": 0, "v": 1, "dist": 0.5}]}))
    rc = main(["localize", "--algorithm", "group", "--input", str(net)])
    assert rc == 1
    err = json.loads(capsys.readouterr().err)
    assert (err["error"], err["stage"], err["group"]) == \
        ("invalid-input", "collinear", 1)


def test_localize_rejects_a_one_coordinate_pos(tmp_path, capsys,
                                               network_file):
    with open(network_file) as fh:
        data = json.load(fh)
    for node in data["nodes"]:
        node["pos"] = node["pos"][:1]
    net = tmp_path / "pos.json"
    net.write_text(json.dumps(data))
    rc = main(["localize", "--algorithm", "group", "--input", str(net)])
    assert rc == 1
    assert json.loads(capsys.readouterr().err)["error"] == "invalid-input"


def test_parser_is_built_once_and_survives_a_usage_error(tmp_path,
                                                         building_config_file):
    from hyperloc.cli import build_parser
    assert build_parser() is build_parser()
    assert main(["generate"]) == 2
    out = str(tmp_path / "net.json")
    assert main(["generate", "--config", building_config_file, "-o", out]) == 0
    assert json.loads(open(out).read())["nodes"]


def test_generate_rejects_non_finite_corridor_spacing(tmp_path, capsys):
    # a NaN spacing once escaped as a ValueError traceback
    cfg = tmp_path / "nan.json"
    cfg.write_text('{"corridor_spacing": NaN}')
    assert main(["generate", "--config", str(cfg)]) == 1
    assert json.loads(capsys.readouterr().err)["error"] == "invalid-config"


@pytest.mark.parametrize("spacing", ["NaN", "Infinity"])
def test_generate_rejects_non_finite_floor_spacing(tmp_path, capsys, spacing):
    # a one-floor config once generated its nodes at z = nan
    cfg = tmp_path / "floor.json"
    cfg.write_text('{"floors": 1, "floor_spacing": %s}' % spacing)
    assert main(["generate", "--config", str(cfg)]) == 1
    assert json.loads(capsys.readouterr().err)["error"] == "invalid-config"


@pytest.mark.parametrize(
    "text", ['{"floor_spacing": "a"}', '{"radius": "1"}',
             '{"corridors_per_floor": "3"}', '{"corridors_per_floor": [true, 1]}',
             '{"corridors_per_floor": ["a", 1]}',
             '{"corridors_per_floor": [1, 2, 3]}',
             '{"connector_columns": [["1", 2]]}', '{"stagger": "yes"}'],
    ids=["floor_spacing", "radius", "corridors_str", "corridors_bool",
         "corridors_pair_str", "corridors_triple", "connector_str", "stagger"])
def test_generate_rejects_non_numeric_fields(tmp_path, capsys, text):
    # a string in a numeric field once escaped as a TypeError traceback
    cfg = tmp_path / "bad.json"
    cfg.write_text(text)
    assert main(["generate", "--config", str(cfg)]) == 1
    assert json.loads(capsys.readouterr().err)["error"] == "invalid-config"
