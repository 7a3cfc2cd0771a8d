"""End-to-end CLI coverage over the documented verbs and exit codes."""
import re
import subprocess
import sys

import numpy as np
import pytest

from repbublik import exact_br, exact_rwcc_many, generate_polarized
import repbublik.cli
from repbublik.cli import main
from repbublik.exact import parochial_nodes
from repbublik.graph import build_graph
from repbublik.errors import NonStochasticRow, ParseError, UnknownColor, ZeroOutDegree
from repbublik.harness import load_dataset


@pytest.fixture
def g2_files(tmp_path):
    edges = tmp_path / "g2.edges.tsv"
    colors = tmp_path / "g2.colors.tsv"
    edges.write_text(
        "0\t1\t1.0\n1\t2\t1.0\n2\t0\t0.5\n2\t3\t0.5\n3\t0\t1.0\n"
    )
    colors.write_text("0\tR\n1\tR\n2\tR\n3\tB\n")
    return edges, colors


@pytest.mark.filterwarnings("ignore:estimation epsilon")
def test_stats_verb(g2_files, capsys):
    edges, colors = g2_files
    for backend in ("exact", "mc"):
        code = main([
            "stats", "--edges", str(edges), "--colors", str(colors),
            "--t", "4", "--theta-good", "1.5", "--theta-bad", "2.0", "--backend", backend,
        ])
        assert code == 0
        assert capsys.readouterr().out == (
            "metric\tvalue\n"
            "n_red\t3\n"
            "n_blue\t1\n"
            "edges_red_to_blue\t1\n"
            "edges_blue_to_red\t1\n"
            "edge_count\t5\n"
            "pct_parochial_red\t100.0000\n"
            "pct_parochial_blue\t0.0000\n"
        ), backend


def test_br_verb_writes_table(g2_files, tmp_path, capsys):
    edges, colors = g2_files
    out_file = tmp_path / "br.tsv"
    code = main([
        "br", "--edges", str(edges), "--colors", str(colors),
        "--t", "4", "--theta-good", "1.5", "--theta-bad", "2.0",
        "--output", str(out_file),
    ])
    assert code == 0
    lines = out_file.read_text().splitlines()
    assert lines[0] == "node\tbr"
    assert lines[1] == "0\t3.5"


def test_empty_dataset_gives_both_backends_the_same_output(tmp_path, capsys):
    # Blank edge and color files: no node, so the Monte Carlo table is the
    # exact backend's empty one rather than a sizing error.
    edges, colors = tmp_path / "empty.edges.tsv", tmp_path / "empty.colors.tsv"
    edges.write_text("")
    colors.write_text("\n")
    outputs = {}
    for backend in ("exact", "mc"):
        for verb in ("br", "stats"):
            out_file = tmp_path / f"{verb}.{backend}.tsv"
            code = main([
                verb, "--edges", str(edges), "--colors", str(colors), "--t", "10",
                "--theta-good", "2", "--theta-bad", "5", "--backend", backend,
                "--output", str(out_file),
            ])
            assert code == 0, capsys.readouterr().err
            outputs[backend, verb] = out_file.read_bytes()
    assert outputs["exact", "br"] == b"node\tbr\n"
    for verb in ("br", "stats"):
        assert outputs["mc", verb] == outputs["exact", verb]


def test_rwcc_single_node(g2_files, capsys):
    edges, colors = g2_files
    code = main([
        "rwcc", "--edges", str(edges), "--colors", str(colors),
        "--t", "4", "--theta-good", "1.5", "--theta-bad", "2.0",
        "--node", "2", "--horizon", "4",
    ])
    out = capsys.readouterr().out
    assert code == 0
    assert out.splitlines()[1].startswith("2\t")


def _rwcc_lines(values, nodes, original_ids):
    return ["node\trwcc"] + [
        f"{int(original_ids[v])}\t{x:.9g}" for v, x in zip(nodes.tolist(), values)
    ]


def test_rwcc_without_node_scores_every_parochial_node(tmp_path, capsys):
    graph = generate_polarized(12, 12, 0.3, 0.12, seed=0)
    # Original ids in another order than the generated ones.
    original = [(7 * v) % graph.n * 5 + 1 for v in range(graph.n)]
    src = np.repeat(np.arange(graph.n), np.diff(graph.indptr))
    edges, colors = tmp_path / "e.tsv", tmp_path / "c.tsv"
    edges.write_text("".join(
        f"{original[v]}\t{original[w]}\t{m!r}\n"
        for v, w, m in zip(src.tolist(), graph.targets.tolist(), graph.weights.tolist())
    ))
    colors.write_text("".join(f"{original[v]}\t{c}\n" for v, c in enumerate(graph.colors)))
    code = main([
        "rwcc", "--edges", str(edges), "--colors", str(colors),
        "--t", "6", "--theta-good", "2", "--theta-bad", "3",
    ])
    assert code == 0
    loaded = load_dataset(edges, colors)
    g, br = loaded.graph, exact_br(loaded.graph, 6)
    expected = {}
    for color in ("R", "B"):
        pool = parochial_nodes(g.colors, br, color, 3.0)
        assert 0 < pool.size < g.nodes_of(color).size
        expected.update(zip(pool.tolist(), exact_rwcc_many(g, pool, pool, 4).tolist()))
    nodes = np.array(sorted(expected))
    lines = _rwcc_lines([expected[v] for v in nodes.tolist()], nodes, loaded.original_ids)
    assert capsys.readouterr().out.splitlines() == lines
    ids = [int(line.split("\t")[0]) for line in lines[1:]]
    assert ids == sorted(ids)


def test_rwcc_node_of_a_color_without_parochial_nodes(tmp_path, capsys):
    # Red 0 -> 1 -> 2 -> {0, 3} is parochial at t=4; every blue node leaves
    # for red with probability 1/2 per step, so no blue node is.
    edges, colors = tmp_path / "e.tsv", tmp_path / "c.tsv"
    edges.write_text(
        "0\t1\t1.0\n1\t2\t1.0\n2\t0\t0.5\n2\t3\t0.5\n"
        "3\t4\t0.5\n3\t0\t0.5\n4\t5\t0.5\n4\t1\t0.5\n5\t3\t0.5\n5\t2\t0.5\n"
    )
    colors.write_text("0\tR\n1\tR\n2\tR\n3\tB\n4\tB\n5\tB\n")
    code = main([
        "rwcc", "--edges", str(edges), "--colors", str(colors),
        "--t", "4", "--theta-good", "1.5", "--theta-bad", "2.0", "--node", "4",
    ])
    assert code == 0
    loaded = load_dataset(edges, colors)
    g = loaded.graph
    assert parochial_nodes(g.colors, exact_br(g, 4), "B", 2.0).size == 0
    # The pool falls back to every blue node.
    value = exact_rwcc_many(g, [4], [3, 4, 5], 2)
    assert value[0] > 0
    lines = _rwcc_lines(value, np.array([4]), loaded.original_ids)
    assert capsys.readouterr().out.splitlines() == lines


def test_rwcc_unknown_node_is_a_typed_error(g2_files, capsys):
    edges, colors = g2_files
    code = main([
        "rwcc", "--edges", str(edges), "--colors", str(colors),
        "--t", "4", "--theta-good", "1.5", "--theta-bad", "2.0", "--node", "99",
    ])
    assert code == 1
    assert "error: node 99 has no color entry" in capsys.readouterr().err


def test_recommend_verb(g2_files, capsys):
    edges, colors = g2_files
    code = main([
        "recommend", "--edges", str(edges), "--colors", str(colors),
        "--t", "4", "--theta-good", "1.5", "--theta-bad", "2.0",
        "--color", "R", "-k", "1", "--algorithm", "repbublik",
    ])
    out = capsys.readouterr().out.splitlines()
    assert code == 0
    assert out[0] == "src\tdst\tweight"
    assert len(out) == 2


def test_main_calls_share_no_state(g2_files, tmp_path, capsys):
    """``main`` parses with one parser per process, and no call's options
    carry over to the next: a call after one with other options writes the
    bytes the same call wrote first."""
    edges, colors = g2_files
    common = ["--edges", str(edges), "--colors", str(colors), "--theta-good", "1.5"]
    plain = {
        "br": ["br", *common, "--t", "4"],
        "recommend": ["recommend", *common, "--t", "4", "--color", "R", "-k", "1"],
    }
    other = {
        "br": ["br", *common, "--t", "6", "--theta-bad", "5", "--backend", "mc",
               "--seed", "9", "--epsilon", "0.9"],
        "recommend": ["recommend", *common, "--t", "5", "--color", "B", "-k", "2",
                      "--algorithm", "pure-random", "--seed", "3"],
    }
    repbublik.cli._parser.cache_clear()
    for verb in plain:
        outputs = []
        for argv in (plain[verb], other[verb], plain[verb]):
            path = tmp_path / f"{verb}.{len(outputs)}.tsv"
            assert main([*argv, "--output", str(path)]) == 0
            outputs.append(path.read_bytes())
        assert outputs[0] == outputs[2] != outputs[1]
        assert vars(repbublik.cli._parser().parse_args(plain[verb])) == vars(
            repbublik.cli.build_parser().parse_args(plain[verb])
        )
    assert repbublik.cli._parser.cache_info().misses == 1


def test_sweep_verb_and_plots(g2_files, tmp_path, capsys):
    edges, colors = g2_files
    csv = tmp_path / "sweep.csv"
    plots = tmp_path / "plots"
    code = main([
        "sweep", "--edges", str(edges), "--colors", str(colors),
        "--t", "4", "--theta-good", "1.5", "--theta-bad", "2.0",
        "--algorithms", "repbublik-plus,pure-random",
        "--k-list", "0,1", "--seeds", "1,2",
        "--output", str(csv), "--plot-dir", str(plots),
    ])
    assert code == 0
    assert csv.read_text().splitlines()[0] == (
        "algo,K,pct_candidate,delta,pct_parochial,seed,runtime_ms"
    )
    assert (plots / "delta_pure-random.tsv").exists()


def test_generators_roundtrip(tmp_path, capsys):
    prefix = tmp_path / "gadget"
    assert main([
        "gen-gadget", "--elements", "2", "--sets", "0,1;1", "--t", "6",
        "--output", str(prefix),
    ]) == 0
    assert main([
        "stats", "--edges", f"{prefix}.edges.tsv",
        "--colors", f"{prefix}.colors.tsv", "--t", "6",
        "--theta-good", "2", "--theta-bad", "3",
    ]) == 0
    out = capsys.readouterr().out
    assert "n_blue\t1" in out

    prefix2 = tmp_path / "pol"
    assert main([
        "gen-polarized", "--n-red", "10", "--n-blue", "10",
        "--p-within", "0.3", "--p-cross", "0.05", "--seed", "3",
        "--output", str(prefix2),
    ]) == 0


def test_output_defaults_match_an_explicit_output(g2_files, tmp_path, monkeypatch, capsys):
    """Without --output, sweep writes sweep.csv and the generators write
    gadget.*.tsv and polarized.*.tsv in the working directory, with the bytes
    an explicit --output gets."""
    edges, colors = g2_files
    work, explicit = tmp_path / "work", tmp_path / "explicit"
    work.mkdir()
    explicit.mkdir()
    monkeypatch.chdir(work)
    cases = [
        ([
            "sweep", "--edges", str(edges), "--colors", str(colors),
            "--t", "4", "--theta-good", "1.5", "--theta-bad", "2.0",
            "--algorithms", "repbublik-plus,pure-random", "--k-list", "0,1", "--seeds", "1,2",
        ], "sweep.csv", ["sweep.csv"]),
        ([
            "gen-gadget", "--elements", "2", "--sets", "0,1;1", "--t", "6",
        ], "gadget", ["gadget.edges.tsv", "gadget.colors.tsv"]),
        ([
            "gen-polarized", "--n-red", "10", "--n-blue", "10",
            "--p-within", "0.3", "--p-cross", "0.05", "--seed", "3",
        ], "polarized", ["polarized.edges.tsv", "polarized.colors.tsv"]),
    ]
    for argv, output, names in cases:
        assert main(argv) == 0
        assert main([*argv, "--output", str(explicit / output)]) == 0
        for name in names:
            assert (work / name).read_bytes() == (explicit / name).read_bytes()
    assert sorted(p.name for p in work.iterdir()) == sorted(
        name for _, _, names in cases for name in names
    )


@pytest.mark.parametrize("argv,flag", [
    (["gen-polarized", "--n-red", "4", "--n-blue", "4", "--p-within", "0.5",
      "--p-cross", "0.1", "--backend", "mc"], "--backend mc"),
    (["gen-gadget", "--elements", "2", "--sets", "0,1;1", "--seed", "3"], "--seed 3"),
])
def test_generators_reject_walk_flags_they_do_not_read(argv, flag, tmp_path, capsys):
    with pytest.raises(SystemExit) as exit_:
        main(argv + ["--output", str(tmp_path / "g")])
    assert exit_.value.code == 2
    assert f"unrecognized arguments: {flag}" in capsys.readouterr().err
    assert not list(tmp_path.iterdir())


def test_validation_error_exit_code(tmp_path, capsys):
    edges = tmp_path / "bad.edges.tsv"
    colors = tmp_path / "bad.colors.tsv"
    edges.write_text("0\t1\tbogus\n")
    colors.write_text("0\tR\n1\tB\n")
    code = main(["stats", "--edges", str(edges), "--colors", str(colors)])
    assert code == 1
    assert "error:" in capsys.readouterr().err


# Loader fault injection: each bad file ends in a typed error and exit code 1.
LOADER_FAULTS = {
    "truncated-line": ("0\t1\t1.0\n1\t0\n", "0\tR\n1\tB\n", ParseError,
                       "expected 3 fields"),
    "nan-weight": ("0\t1\tnan\n1\t0\t1.0\n", "0\tR\n1\tB\n", NonStochasticRow,
                   "must be positive"),
    "inf-weight": ("0\t1\tinf\n1\t0\t1.0\n", "0\tR\n1\tB\n", NonStochasticRow,
                   "must be positive"),
    "empty-edges": ("", "0\tR\n1\tB\n", ZeroOutDegree, "no outgoing edge"),
    "duplicate-color": ("0\t1\t1.0\n1\t0\t1.0\n", "0\tR\n1\tB\n0\tB\n", ParseError,
                        "duplicate color"),
    "long-color-label": ("0\t1\t1.0\n1\t0\t1.0\n", "0\tR\n1\tRed\n", UnknownColor,
                         "c.tsv:2: color 'Red' is not 'R' or 'B'"),
    "color-id-too-large": ("0\t1\t1.0\n1\t0\t1.0\n", f"0\tR\n1\tB\n{2**63}\tB\n",
                           ParseError, f"c.tsv:3: node id must be below 2**63, got {2**63}"),
    "edge-id-too-large": (f"0\t1\t1.0\n1\t0\t0.5\n{2**63}\t0\t0.5\n", "0\tR\n1\tB\n",
                          ParseError, "e.tsv:3: source id must be below 2**63"),
    "colorless-node": ("0\t1\t1.0\n1\t0\t0.5\n1\t7\t0.5\n", "0\tR\n1\tB\n", UnknownColor,
                       "e.tsv:3: node 7 has no color entry"),
    "colorless-node-between-ids": ("0\t2\t1.0\n2\t0\t0.5\n2\t1\t0.5\n", "0\tR\n2\tB\n",
                                   UnknownColor, "e.tsv:3: node 1 has no color entry"),
    "digit-separator": ("0\t1\t1.0\n1\t0\t1.0\n", "0\tR\n1_0\tB\n", ParseError,
                        "c.tsv:2: bad node id '1_0'"),
}


@pytest.mark.parametrize("fault", sorted(LOADER_FAULTS))
def test_loader_fault_is_a_typed_error(fault, tmp_path, capsys):
    edge_text, color_text, error, message = LOADER_FAULTS[fault]
    edges, colors = tmp_path / "e.tsv", tmp_path / "c.tsv"
    edges.write_text(edge_text)
    colors.write_text(color_text)
    with pytest.raises(error, match=re.escape(message)):
        load_dataset(edges, colors)
    code = main(["stats", "--edges", str(edges), "--colors", str(colors)])
    err = capsys.readouterr().err
    assert code == 1
    assert err.startswith("error:") and message in err
    assert "Traceback" not in err


def _reference_load(edge_path, color_path):
    """The per-line loader the array loader replaced, kept as the reference.

    Ids follow the documented grammar (ASCII decimal digits with an optional
    sign, in [0, 2**63)); otherwise this is the old loop line for line.
    """
    def parse_int(token, path, line_no, what):
        digits = token.strip()
        digits = digits[1:] if digits[:1] in ("+", "-") else digits
        if not (digits.isascii() and digits.isdigit()):
            raise ParseError(path, line_no, f"bad {what} {token!r}")
        value = int(token)
        if value < 0:
            raise ParseError(path, line_no, f"{what} must be non-negative, got {value}")
        if value >= 2**63:
            raise ParseError(path, line_no, f"{what} must be below 2**63, got {value}")
        return value

    colors_by_node = {}
    for line_no, line in enumerate(color_path.read_text().splitlines(), start=1):
        if not line.strip():
            continue
        parts = line.split("\t")
        if len(parts) != 2:
            raise ParseError(str(color_path), line_no, f"expected 2 fields, got {len(parts)}")
        node = parse_int(parts[0], str(color_path), line_no, "node id")
        if node in colors_by_node:
            raise ParseError(str(color_path), line_no, f"duplicate color for node {node}")
        if parts[1] not in ("R", "B"):
            raise UnknownColor(f"{color_path}:{line_no}: color {parts[1]!r} is not 'R' or 'B'")
        colors_by_node[node] = parts[1]
    original_ids = np.asarray(sorted(colors_by_node), dtype=np.int64)
    dense_ids = {int(orig): i for i, orig in enumerate(original_ids)}

    edges = []
    for line_no, line in enumerate(edge_path.read_text().splitlines(), start=1):
        if not line.strip():
            continue
        parts = line.split("\t")
        if len(parts) != 3:
            raise ParseError(str(edge_path), line_no, f"expected 3 fields, got {len(parts)}")
        src = parse_int(parts[0], str(edge_path), line_no, "source id")
        dst = parse_int(parts[1], str(edge_path), line_no, "target id")
        try:
            weight = float(parts[2])
        except ValueError:
            raise ParseError(str(edge_path), line_no, f"bad weight {parts[2]!r}") from None
        for node in (src, dst):
            if node not in dense_ids:
                raise UnknownColor(f"{edge_path}:{line_no}: node {node} has no color entry")
        edges.append((dense_ids[src], dense_ids[dst], weight))
    graph = build_graph([colors_by_node[int(v)] for v in original_ids], edges)
    return graph, original_ids, dense_ids


def _write_lines(path, lines, rng, noise):
    """Write TSV lines, with blank and whitespace-only lines, CRLF and a
    missing final newline mixed in when ``noise`` is set."""
    if noise:
        for _ in range(int(rng.integers(1, 4))):
            pos = int(rng.integers(0, len(lines) + 1))
            lines.insert(pos, str(rng.choice(["", " ", "\t", " \t ", "  "])))
    newline = "\r\n" if noise and rng.random() < 0.5 else "\n"
    text = newline.join(lines)
    if not (noise and rng.random() < 0.5):
        text += newline
    path.write_bytes(text.encode())


def test_array_loader_matches_per_line_reference(tmp_path):
    from conftest import random_polarized

    rng = np.random.default_rng(2101)
    edges_path, colors_path = tmp_path / "e.tsv", tmp_path / "c.tsv"
    for case in range(30):
        graph, _ = random_polarized(rng)
        if case % 3 == 0:  # already dense
            ids = np.arange(graph.n)
        else:  # sparse, up to the largest id
            ids = np.unique(rng.integers(0, 2**63 - 1, size=3 * graph.n, dtype=np.int64))
            ids = rng.permutation(ids)[: graph.n]
            ids[0] = 2**63 - 1
        src = np.repeat(np.arange(graph.n), np.diff(graph.indptr))
        edge_lines = [
            f"{ids[s]}\t{ids[d]}\t{w!r}"
            for s, d, w in zip(src.tolist(), graph.targets.tolist(), graph.weights.tolist())
        ]
        color_lines = [f"{ids[v]}\t{graph.color_of(v)}" for v in range(graph.n)]
        noise = case % 2 == 1
        _write_lines(edges_path, [edge_lines[i] for i in rng.permutation(len(edge_lines))],
                     rng, noise)
        _write_lines(colors_path, [color_lines[i] for i in rng.permutation(graph.n)],
                     rng, noise)

        loaded = load_dataset(edges_path, colors_path)
        ref_graph, ref_ids, ref_dense = _reference_load(edges_path, colors_path)
        for name in ("colors", "indptr", "targets", "weights"):
            got, expected = getattr(loaded.graph, name), getattr(ref_graph, name)
            assert got.dtype == expected.dtype and np.array_equal(got, expected)
        assert np.array_equal(loaded.original_ids, ref_ids)
        assert loaded.dense_ids == ref_dense
        assert np.array_equal(np.sort(ids), loaded.original_ids)


@pytest.mark.parametrize("fault", sorted(LOADER_FAULTS))
def test_loader_fault_matches_per_line_reference(fault, tmp_path):
    edge_text, color_text, error, _ = LOADER_FAULTS[fault]
    edges, colors = tmp_path / "e.tsv", tmp_path / "c.tsv"
    edges.write_text(edge_text)
    colors.write_text(color_text)
    with pytest.raises(error) as ref:
        _reference_load(edges, colors)
    with pytest.raises(error) as got:
        load_dataset(edges, colors)
    assert type(got.value) is type(ref.value)
    assert str(got.value) == str(ref.value)
    assert getattr(got.value, "line_no", None) == getattr(ref.value, "line_no", None)


def test_crlf_files_load_like_lf(g2_files, tmp_path, capsys):
    edges, colors = g2_files
    crlf_edges, crlf_colors = tmp_path / "crlf.edges.tsv", tmp_path / "crlf.colors.tsv"
    crlf_edges.write_bytes(edges.read_bytes().replace(b"\n", b"\r\n"))
    crlf_colors.write_bytes(colors.read_bytes().replace(b"\n", b"\r\n"))
    outputs = []
    for e, c in ((edges, colors), (crlf_edges, crlf_colors)):
        assert main(["br", "--edges", str(e), "--colors", str(c), "--t", "4",
                     "--theta-good", "1.5", "--theta-bad", "2.0"]) == 0
        outputs.append(capsys.readouterr().out)
    assert outputs[0] == outputs[1]
    assert outputs[0].splitlines()[1] == "0\t3.5"


@pytest.mark.parametrize("backend", ["exact", "mc"])
def test_rwcc_horizon_below_one_exits_1(tmp_path, backend, capsys):
    # Nothing is parochial on the two-node swap graph, so no closeness call
    # would ever see the horizon.
    edges, colors = tmp_path / "swap.edges.tsv", tmp_path / "swap.colors.tsv"
    edges.write_text("0\t1\t1.0\n1\t0\t1.0\n")
    colors.write_text("0\tR\n1\tB\n")
    for horizon in ("0", "-2"):
        code = main([
            "rwcc", "--edges", str(edges), "--colors", str(colors), "--t", "4",
            "--theta-good", "1.5", "--theta-bad", "2.0", "--backend", backend,
            "--horizon", horizon,
        ])
        captured = capsys.readouterr()
        assert code == 1
        assert f"error: horizon must be >= 1, got {horizon}" in captured.err
        assert captured.out == ""


def test_epsilon_one_reaches_the_estimator(g2_files, monkeypatch, capsys):
    import repbublik.bias

    seen = []
    original = repbublik.bias.estimate_br

    def spy(graph, t, epsilon, *args, **kwargs):
        seen.append(epsilon)
        return original(graph, t, epsilon, *args, **kwargs)

    monkeypatch.setattr(repbublik.bias, "estimate_br", spy)
    edges, colors = g2_files
    assert main([
        "br", "--edges", str(edges), "--colors", str(colors), "--t", "4",
        "--theta-good", "1.5", "--theta-bad", "2.0", "--backend", "mc",
        "--epsilon", "1", "--delta", "0.5",
    ]) == 0
    assert seen == [1.0]


@pytest.mark.parametrize("epsilon,delta", [("0", "0.05"), ("1.5", "0.05"), ("0.5", "1")])
def test_accuracy_outside_range_exits_1(g2_files, epsilon, delta, capsys):
    edges, colors = g2_files
    code = main([
        "br", "--edges", str(edges), "--colors", str(colors), "--t", "4",
        "--theta-good", "1.5", "--theta-bad", "2.0", "--backend", "mc",
        "--epsilon", epsilon, "--delta", delta,
    ])
    assert code == 1
    assert "must lie in" in capsys.readouterr().err


def test_partial_sweep_failure_exit_code(g2_files, tmp_path, monkeypatch, capsys):
    """Failed cells are named on stderr, also when --plot-dir then finds no
    successful record to plot and the run exits 1."""
    from repbublik.errors import RepbublikError
    from repbublik.recommend import ALGORITHMS

    class Boom(RepbublikError):
        pass

    def broken(graph, color, budget, cfg, backend="exact"):
        raise Boom("boom")

    monkeypatch.setitem(ALGORITHMS, "broken", broken)
    edges, colors = g2_files
    report = ["cell broken K=1 seed=1: Boom: boom", "1 of 1 cells failed"]
    no_plot = ["error: no successful experiment records to plot"]
    for plot, want_code, tail in (
        ([], 2, []),
        (["--plot-dir", str(tmp_path / "plots")], 1, no_plot),
    ):
        code = main([
            "sweep", "--edges", str(edges), "--colors", str(colors),
            "--t", "4", "--theta-good", "1.5", "--theta-bad", "2.0",
            "--algorithms", "broken", "--k-list", "1", "--seeds", "1",
            "--output", str(tmp_path / "s.csv"), *plot,
        ])
        assert code == want_code
        assert capsys.readouterr().err.splitlines() == report + tail


def test_sweep_computes_br_only_for_the_default_ladder(g2_files, tmp_path, monkeypatch):
    import repbublik.cli
    import repbublik.harness

    calls = []

    def counting(fn):
        def wrapper(*args, **kwargs):
            calls.append(fn)
            return fn(*args, **kwargs)
        return wrapper

    # The CLI's own BR, plus the stats row load_dataset computes when given a config.
    for module in (repbublik.cli, repbublik.harness):
        monkeypatch.setattr(module, "br_table", counting(module.br_table))
    monkeypatch.setattr(repbublik.cli, "run_sweep", lambda *a, **kw: [])
    edges, colors = g2_files
    argv = [
        "sweep", "--edges", str(edges), "--colors", str(colors),
        "--t", "4", "--theta-good", "1.5", "--theta-bad", "2.0",
        "--output", str(tmp_path / "s.csv"),
    ]
    assert main([*argv, "--k-list", "1,2"]) == 0
    assert len(calls) == 0
    assert main(argv) == 0
    assert len(calls) == 1  # candidate_universe for the default budget ladder


def test_negative_k_max_rejected(g2_files, tmp_path, capsys):
    edges, colors = g2_files
    out = tmp_path / "s.csv"
    code = main([
        "sweep", "--edges", str(edges), "--colors", str(colors),
        "--t", "4", "--theta-good", "1.5", "--theta-bad", "2.0",
        "--k-max", "-3", "--output", str(out),
    ])
    assert code == 1
    assert "error: k_max must be >= 0, got -3" in capsys.readouterr().err
    assert not out.exists()


# The verbs whose --output is not "results instead of stdout", and what its
# help says instead.
_OUTPUT_HELP = {
    "sweep": "CSV file to write (default sweep.csv)",
    "gen-gadget": "file prefix: write PREFIX.edges.tsv and PREFIX.colors.tsv (default gadget)",
    "gen-polarized":
        "file prefix: write PREFIX.edges.tsv and PREFIX.colors.tsv (default polarized)",
}


@pytest.mark.parametrize("verb", sorted(_OUTPUT_HELP))
def test_output_help_says_what_the_verb_writes(verb, capsys):
    with pytest.raises(SystemExit) as exit_info:
        main([verb, "--help"])
    assert exit_info.value.code == 0
    text = " ".join(capsys.readouterr().out.split())
    assert f"--output OUTPUT {_OUTPUT_HELP[verb]}" in text
    assert "instead of stdout" not in text


def test_overflowing_row_sum_exits_1_without_a_warning(tmp_path):
    # Two weights of 1e308 sum to inf: a typed NonStochasticRow, and no
    # numpy overflow warning on stderr before it.
    edges, colors = tmp_path / "e.tsv", tmp_path / "c.tsv"
    edges.write_text("0\t1\t1e308\n0\t2\t1e308\n1\t0\t1.0\n2\t0\t1.0\n")
    colors.write_text("0\tR\n1\tB\n2\tR\n")
    proc = subprocess.run(
        [sys.executable, "-m", "repbublik.cli", "stats",
         "--edges", str(edges), "--colors", str(colors)],
        capture_output=True, text=True,
    )
    assert proc.returncode == 1
    assert "error:" in proc.stderr
    assert "Warning" not in proc.stderr


@pytest.mark.parametrize("argv", [
    ["br", "--t", "100000000000"],
    ["rwcc", "--t", "100000"],
    ["recommend", "--color", "R", "-k", "1", "--t", "100000"],
])
def test_work_past_the_bound_exits_1_at_once(tmp_path, argv):
    # Three nodes and four edges: the requests are tiny in items but long
    # in steps, a BR pass of 1e11 products and a closeness renewal of about
    # 5e9 vector operations.
    edges, colors = tmp_path / "e.tsv", tmp_path / "c.tsv"
    edges.write_text("0\t1\t0.5\n0\t2\t0.5\n1\t0\t1.0\n2\t0\t1.0\n")
    colors.write_text("0\tR\n1\tR\n2\tB\n")
    proc = subprocess.run(
        [sys.executable, "-m", "repbublik.cli", *argv, "--edges", str(edges),
         "--colors", str(colors), "--theta-good", "1.5", "--theta-bad", "2"],
        capture_output=True, text=True, timeout=5,
    )
    assert proc.returncode == 1
    assert "exceed the work limit of 2**40" in proc.stderr


def test_polarized_draws_past_the_bound_exit_1_and_write_nothing(tmp_path, capsys):
    code = main([
        "gen-polarized", "--n-red", "2000000", "--n-blue", "1",
        "--p-within", "0.5", "--p-cross", "0.1", "--output", str(tmp_path / "g"),
    ])
    assert code == 1
    assert "exceed the work limit of 2**40" in capsys.readouterr().err
    assert not list(tmp_path.iterdir())


def test_long_closeness_horizon_finishes(tmp_path):
    # t' = 22998 passes the work bound; the renewal solve is t' - 1 array
    # operations, so the request finishes in seconds.
    edges, colors = tmp_path / "e.tsv", tmp_path / "c.tsv"
    edges.write_text("0\t1\t0.5\n0\t2\t0.5\n1\t0\t1.0\n2\t0\t1.0\n")
    colors.write_text("0\tR\n1\tR\n2\tB\n")
    proc = subprocess.run(
        [sys.executable, "-m", "repbublik.cli", "rwcc", "--t", "23000",
         "--edges", str(edges), "--colors", str(colors), "--theta-good", "1.5",
         "--theta-bad", "2"],
        capture_output=True, text=True, timeout=20,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[0] == "node\trwcc"


def test_huge_br_horizon_stops_when_every_walk_dies(tmp_path):
    # 1e8 products pass the work bound, but survival on this graph is all
    # +0.0 after about 2,150 of them, and every later product adds +0.0.
    edges, colors = tmp_path / "e.tsv", tmp_path / "c.tsv"
    edges.write_text("0\t1\t.5\n0\t2\t.5\n1\t0\t1\n2\t0\t1\n")
    colors.write_text("0\tR\n1\tR\n2\tB\n")
    proc = subprocess.run(
        [sys.executable, "-m", "repbublik.cli", "br", "--t", "100000000",
         "--edges", str(edges), "--colors", str(colors), "--theta-good", "1.5",
         "--theta-bad", "2"],
        capture_output=True, text=True, timeout=10,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == ["node\tbr", "0\t3", "1\t4", "2\t1"]


@pytest.mark.filterwarnings("ignore:estimation epsilon")
@pytest.mark.parametrize("ring,horizon,code", [(3, 200, 0), (5000, 3000, 1)])
def test_long_monte_carlo_closeness_horizon_on_a_trap(tmp_path, capsys, ring, horizon, code):
    # A red ring that no walk leaves: every walk lives to t' and revisits
    # the ring's nodes.  The small ring's passes hold at most 3 first visits
    # per walk and finish; the large one's would hold 2,999 per walk for
    # 16,384 walks, past the draw bound, and is refused before any walk.
    edges, colors = tmp_path / "e.tsv", tmp_path / "c.tsv"
    edges.write_text("".join(f"{v}\t{(v + 1) % ring}\t1\n" for v in range(ring))
                     + f"{ring}\t0\t1\n")
    colors.write_text("".join(f"{v}\tR\n" for v in range(ring)) + f"{ring}\tB\n")
    got = main([
        "rwcc", "--backend", "mc", "--t", "2", "--horizon", str(horizon),
        "--theta-good", "1.5", "--theta-bad", "2", "--epsilon", "1",
        "--delta", "0.5",
        "--edges", str(edges), "--colors", str(colors),
    ])
    err = capsys.readouterr().err
    assert got == code
    assert "Traceback" not in err and "MemoryError" not in err
    if code:
        assert "first-visit records" in err


def test_coarse_epsilon_warns_once_per_verb_that_classifies(g2_files, tmp_path):
    # Epsilon 0.5 cannot separate thresholds 0.5 apart.  `br` classifies
    # nothing; the other verbs classify from estimates and warn once, the
    # sweep for all of its algorithms.  g2 has at most two legal edges.
    edges, colors = g2_files
    verbs = {
        "br": [], "stats": [], "rwcc": [], "recommend": ["--color", "R", "-k", "9"],
        "sweep": ["--algorithms", "repbublik-plus,pure-random", "--k-list", "1,2",
                  "--seeds", "0,1", "--output", str(tmp_path / "s.csv")],
    }
    stderr = {}
    for verb, argv in verbs.items():
        proc = subprocess.run(
            [sys.executable, "-W", "always", "-m", "repbublik.cli", verb, *argv,
             "--edges", str(edges), "--colors", str(colors), "--t", "4",
             "--theta-good", "1.5", "--theta-bad", "2.0", "--backend", "mc"],
            capture_output=True, text=True, timeout=60,
        )
        assert proc.returncode == 0, proc.stderr
        stderr[verb] = proc.stderr
    counts = {verb: err.count("estimation epsilon=0.5 exceeds") for verb, err in stderr.items()}
    assert counts == {"br": 0, "stats": 1, "rwcc": 1, "recommend": 1, "sweep": 1}
    # The recommend verb reports its short plan at a line of its own.
    short = r"cli\.py:\d+: RuntimeWarning: only [0-2] of 9 insertions were possible"
    assert re.search(short, stderr["recommend"])


def test_console_entry_point_runs():
    proc = subprocess.run(
        [sys.executable, "-m", "repbublik.cli", "--help"],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0
    assert "recommend" in proc.stdout
