"""End-to-end CLI coverage over the documented verbs and exit codes."""
import subprocess
import sys

import pytest

from repbublik.cli import main
from repbublik.errors import NonStochasticRow, ParseError, ZeroOutDegree
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


def test_stats_verb(g2_files, capsys):
    edges, colors = g2_files
    code = main([
        "stats", "--edges", str(edges), "--colors", str(colors),
        "--t", "4", "--theta-good", "1.5", "--theta-bad", "2.0",
    ])
    out = capsys.readouterr().out
    assert code == 0
    assert "n_red\t3" in out and "edges_red_to_blue\t1" in out


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
}


@pytest.mark.parametrize("fault", sorted(LOADER_FAULTS))
def test_loader_fault_is_a_typed_error(fault, tmp_path, capsys):
    edge_text, color_text, error, message = LOADER_FAULTS[fault]
    edges, colors = tmp_path / "f.edges.tsv", tmp_path / "f.colors.tsv"
    edges.write_text(edge_text)
    colors.write_text(color_text)
    with pytest.raises(error, match=message):
        load_dataset(edges, colors)
    code = main(["stats", "--edges", str(edges), "--colors", str(colors)])
    err = capsys.readouterr().err
    assert code == 1
    assert err.startswith("error:") and message in err
    assert "Traceback" not in err


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


def test_partial_sweep_failure_exit_code(g2_files, tmp_path, monkeypatch):
    from repbublik.errors import RepbublikError
    from repbublik.recommend import ALGORITHMS

    class Boom(RepbublikError):
        pass

    def broken(graph, color, budget, cfg, seed=None, backend="exact"):
        raise Boom("boom")

    monkeypatch.setitem(ALGORITHMS, "broken", broken)
    edges, colors = g2_files
    code = main([
        "sweep", "--edges", str(edges), "--colors", str(colors),
        "--t", "4", "--theta-good", "1.5", "--theta-bad", "2.0",
        "--algorithms", "broken", "--k-list", "1", "--seeds", "1",
        "--output", str(tmp_path / "s.csv"),
    ])
    assert code == 2


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


def test_kappa_reaches_the_recommenders(g2_files, tmp_path, monkeypatch):
    import repbublik.recommend

    seen = []
    original = repbublik.recommend.estimate_rwcc

    def spy(*args, **kwargs):
        seen.append(kwargs["kappa"])
        return original(*args, **kwargs)

    monkeypatch.setattr(repbublik.recommend, "estimate_rwcc", spy)
    edges, colors = g2_files
    assert main([
        "recommend", "--edges", str(edges), "--colors", str(colors),
        "--t", "4", "--theta-good", "1.5", "--theta-bad", "2.0",
        "--epsilon", "0.9", "--delta", "0.5", "--backend", "mc",
        "--kappa", "3", "--color", "R", "-k", "1",
        "--output", str(tmp_path / "plan.tsv"),
    ]) == 0
    assert seen and set(seen) == {3}


def test_console_entry_point_runs():
    proc = subprocess.run(
        [sys.executable, "-m", "repbublik.cli", "--help"],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0
    assert "recommend" in proc.stdout
