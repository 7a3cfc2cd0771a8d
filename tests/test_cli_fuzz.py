"""Property test of the CLI contract: any dataset and flags end in exit code
0, 1 or 2, with no escaping exception, no traceback and no foreign warning."""
import contextlib
import io
import re
import tempfile
import warnings
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st

from repbublik import cli

# Valid ids include the largest the loader takes; 2**63 is one past it.
VALID_IDS = [0, 1, 2, 3, 7, 2**63 - 1]
BAD_WEIGHTS = st.sampled_from(["nan", "inf", "1e308", "5e-324", "0", "-0.5"])
BLANK = st.sampled_from(["", "   ", "\t", " \t "])
FAULTS = st.sampled_from([
    "blank lines", "duplicate color", "duplicate edge", "blank id", "huge id",
    "bad weight", "tiny weight", "unknown color",
])

# Horizons: small ones and two far past the work bound.  Horizons between
# about 10**3 and the bound are left out: MAX_WORK = 2**40 element
# operations admits minutes of work there by design.
HORIZONS = st.sampled_from([*range(12, 0, -1), 10**11, 10**20])
ACCURACY = st.sampled_from(["0.5", "0.9", "0.2", "0.5", "0.9", "1", "0", "nan", "1e-9"])
K_LISTS = st.sampled_from(["0", "1", "0,2", "3,1", "1,x", ""])
ALGORITHMS = st.sampled_from(sorted(cli.ALGORITHMS))

# The package's two RuntimeWarnings: a short plan and a coarse epsilon.
KNOWN_WARNINGS = re.compile(
    r"only \d+ of \d+ insertions were possible|estimation epsilon=.* exceeds"
)


@st.composite
def datasets(draw):
    """A graph of 1-6 nodes with stochastic rows, then up to two faults."""
    n = draw(st.sampled_from([4, 2, 3, 5, 6, 1]))
    ids = sorted(draw(st.permutations(VALID_IDS))[:n])
    colors = [[str(v), draw(st.sampled_from(["R", "B"]))] for v in ids]
    edges = []
    for v in ids:
        others = [w for w in ids if w != v]
        if others:
            targets = draw(st.lists(st.sampled_from(others), min_size=1,
                                    max_size=min(3, len(others)), unique=True))
            edges += [[str(v), str(w), repr(1.0 / len(targets))] for w in targets]
    for fault in draw(st.lists(FAULTS, max_size=2)):
        rows = draw(st.sampled_from([colors, edges])) if edges else colors
        row = draw(st.sampled_from(rows))
        if fault == "blank lines":
            rows.insert(draw(st.integers(0, len(rows))), [draw(BLANK)])
        elif fault in ("duplicate color", "duplicate edge"):
            rows.append(list(row))
        elif fault in ("blank id", "huge id"):
            row[0] = "" if fault == "blank id" else str(2**63)
        elif fault == "bad weight" and len(row) == 3:
            row[2] = draw(BAD_WEIGHTS)
        elif fault == "tiny weight" and edges:
            v = draw(st.sampled_from(ids))
            edges.append([str(v), str(draw(st.sampled_from(ids))), "5e-324"])
        elif fault == "unknown color" and len(row) == 2:
            row[1] = "X"
    return ("\n".join("\t".join(r) for r in edges) + "\n",
            "\n".join("\t".join(r) for r in colors) + "\n")


@st.composite
def commands(draw):
    verb = draw(st.sampled_from(["stats", "br", "rwcc", "recommend", "sweep"]))
    t = draw(HORIZONS)
    argv = [
        verb, "--backend", draw(st.sampled_from(["exact", "mc"])), "--t", str(t),
        "--theta-good", draw(st.sampled_from(["1.5", "1", "2"])),
        "--epsilon", draw(ACCURACY), "--delta", draw(ACCURACY),
        "--seed", str(draw(st.integers(0, 3))),
    ]
    theta_bad = draw(st.sampled_from([None, str(t), "2.5", "5"]))
    if theta_bad is not None:
        argv += ["--theta-bad", theta_bad]
    if verb == "rwcc" and draw(st.booleans()):
        argv += ["--node", draw(st.sampled_from(["0", "1", "5", "-1"]))]
    if verb == "recommend":
        argv += ["--color", draw(st.sampled_from(["R", "B"])),
                 "-k", str(draw(st.integers(0, 3))), "--algorithm", draw(ALGORITHMS)]
    if verb == "sweep":
        algos = draw(st.lists(ALGORITHMS, min_size=1, max_size=2))
        argv += ["--algorithms", ",".join(algos), "--k-list", draw(K_LISTS),
                 "--seeds", draw(st.sampled_from(["0", "0,1"]))]
    return argv


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(data=datasets(), argv=commands())
def test_cli_ends_in_an_exit_code(data, argv):
    edges_text, colors_text = data
    with tempfile.TemporaryDirectory() as tmp:
        edges, colors = Path(tmp, "e.tsv"), Path(tmp, "c.tsv")
        edges.write_text(edges_text)
        colors.write_text(colors_text)
        full = [*argv, "--edges", str(edges), "--colors", str(colors),
                "--output", str(Path(tmp, "out"))]
        out, err = io.StringIO(), io.StringIO()
        with warnings.catch_warnings(record=True) as caught, \
                contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            warnings.simplefilter("always")
            code = cli.main(full)
    assert code in (0, 1, 2), (full, err.getvalue())
    assert "Traceback" not in err.getvalue()
    for w in caught:
        assert w.category is RuntimeWarning and KNOWN_WARNINGS.search(str(w.message)), (
            full, w.category, str(w.message)
        )
