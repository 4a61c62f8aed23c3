"""Commands driven in process with generated input files.

Whatever the files hold, a command exits 0, 1 or 2, and an exit 1 or 2
names the file at fault, with its line for a row fault. An exit 3 or an
uncaught exception is a program defect.
"""

import io
import math
import re
import struct
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from retrobio.cli import EXIT_EMPTY, EXIT_INPUT, EXIT_OK, main
from retrobio.neural import RELU, SIGMOID, LayerSpec, initialize, save_weights

from synthdata import build_corpus

# SMILES-alphabet tokens, generic placeholders and bracket atoms the parser
# refuses, so that rows mix valid, repairable and broken compounds.
TOKENS = (
    ["C"] * 6 + ["c", "N", "n", "O", "o", "S", "P", "F", "Cl", "Br", "I"]
    + ["X", "R", "R#", "[NH4+]", "[O-]", "[nH]", "[N+]", "[CH2-]", "[H]", "[C:1]"]
    + ["[Fe]", "[13C]", "[C@H]", "[Cx]", "*"]
    + ["=", "#", "(", ")", "1", "2", "%10", "c1ccccc1", "C1CC1", "C(=O)O"]
)
# Whole molecules, so that many rows survive cleaning, among them products
# that share no atom with their reactants.
MOLECULES = ["CCO", "CC=O", "O", "N", "CCCCCCCC", "OC(=O)CC", "c1ccccc1O", "CCX", "RCO",
             "R#CC=O", "[NH4+]", "[O-]C(=O)C", "ClCl", "N#N", "C1CCCCC1"]
# At most 12 tokens of at most 6 atoms each keeps molecules to about 40 atoms.
smiles = st.one_of(
    st.lists(st.sampled_from(TOKENS), max_size=12).map("".join),
    st.sampled_from(MOLECULES),
)
compound_ids = st.sampled_from(["c1", "c2", "c3"])


def molecule_list(draw) -> str:
    """A '.'-separated side: SMILES, compound ids, UNRESOLVED and empty
    pieces."""
    piece = st.one_of(
        st.sampled_from(MOLECULES), smiles, compound_ids, st.sampled_from(["UNRESOLVED", ""])
    )
    return ".".join(draw(st.lists(piece, min_size=1, max_size=3)))


def row(draw, fields: list[str]) -> str:
    """``fields`` tab-joined, sometimes with one field too few or too many."""
    change = draw(st.sampled_from([0] * 28 + [-1, 1]))
    if change < 0:
        fields = fields[:change]
    elif change > 0:
        fields = fields + [draw(smiles)]
    return "\t".join(fields)


@st.composite
def reactions_text(draw) -> str:
    lines = ["# reaction_id\tec_numbers\treactants\tproducts"]
    for i in range(draw(st.integers(0, 5))):
        if draw(st.integers(0, 9)) == 0:
            lines.append(draw(st.sampled_from(["", "# a comment"])))
            continue
        lines.append(row(draw, [
            draw(st.sampled_from([f"r{i}"] * 8 + ["r1", ""])),
            draw(st.sampled_from(["", "1.1.1.1", "1.1.1.1;2.3.1.-"])),
            molecule_list(draw),
            molecule_list(draw),
        ]))
    return "\n".join(lines) + "\n"


@st.composite
def compounds_text(draw) -> str:
    lines = ["# compound_id\traw_smiles"]
    for i in range(draw(st.integers(0, 3))):
        raw = draw(st.one_of(smiles, st.just("UNRESOLVED")))
        lines.append(row(draw, [draw(st.sampled_from([f"c{i}"] * 8 + ["c1"])), raw]))
    return "\n".join(lines) + "\n"


def run(argv: list[str]) -> tuple[int, str]:
    err = io.StringIO()
    with redirect_stdout(io.StringIO()), redirect_stderr(err):
        code = main(argv)
    return code, err.getvalue()


def assert_names_file_and_line(err: str, files: dict[str, str]) -> None:
    """``err`` is one error line naming one of ``files`` (path -> text) and
    a line of it."""
    paths = "|".join(re.escape(path) for path in files)
    found = re.fullmatch(rf"error: ({paths}):(\d+): [^\n]+\n", err)
    assert found, err
    path, line = found.group(1), int(found.group(2))
    assert 1 <= line <= len(files[path].splitlines()), err


class TestIngestFuzz:
    @given(reactions_text(), st.one_of(st.none(), compounds_text()))
    @settings(max_examples=300, deadline=None)
    def test_exits_0_1_or_2_naming_file_and_line(self, reactions, compounds):
        with tempfile.TemporaryDirectory() as tmp:
            files = {str(Path(tmp, "reactions.tsv")): reactions}
            argv = ["ingest", "--reactions", str(Path(tmp, "reactions.tsv"))]
            if compounds is not None:
                files[str(Path(tmp, "compounds.tsv"))] = compounds
                argv += ["--compounds", str(Path(tmp, "compounds.tsv"))]
            for path, text in files.items():
                Path(path).write_text(text, encoding="utf-8")
            out = Path(tmp, "out")
            code, err = run(argv + ["--out-dir", str(out)])
            assert code in (EXIT_OK, EXIT_INPUT, EXIT_EMPTY), err
            if code == EXIT_INPUT:
                assert_names_file_and_line(err, files)
                assert not out.exists()
            elif code == EXIT_EMPTY:
                reactions_path = argv[2]
                assert err == f"ingest: reactions file {reactions_path} holds no usable reactions\n"
            else:
                assert err == ""
                assert (out / "mono_reactions.tsv").is_file()
                assert (out / "corpus_stats.json").is_file()


# --- eval -------------------------------------------------------------------


def _dataset_groups() -> dict[int, list[list[tuple[str, str, str, str]]]]:
    """Valid synthdata groups of (label, group, target, precursors) rows
    per step count: each group's positive, then up to three negatives that
    pair its target with other groups' precursors."""
    _, _, positives, chains = build_corpus(max_length=5)
    windows = {
        1: [(p.product_key, ".".join(p.reactant_keys)) for p in positives],
        2: [(c.target_key, f"{'.'.join(c.step1_keys)};{'.'.join(c.step2_keys)}")
            for c in chains],
    }
    groups = {}
    for steps, pairs in windows.items():
        groups[steps] = [
            [("positive", f"g{i}", target, precursors)]
            + [("negative", f"g{i}", target, other) for _, other in pairs
               if other != precursors][:3]
            for i, (target, precursors) in enumerate(pairs)
        ]
    return groups


GROUPS = _dataset_groups()
# The kind of each weight file is its input width; a hidden layer of four
# keeps the files small.
WIDTHS = {"nn1pr": 1024, "nn2pr": 1536}
ROW_FAULTS = ("label", "weight", "empty step", "smiles", "three steps")
FAULTS = ROW_FAULTS + ("none", "mixed steps", "no positive", "no rows",
                       "flipped byte", "truncated", "wrong width", "nan parameter")


def tiny_weights(in_dim: int, outputs: int = 1) -> bytes:
    rng = np.random.default_rng(in_dim)
    return save_weights(initialize(
        (LayerSpec(in_dim, 4, RELU), LayerSpec(4, outputs, SIGMOID)), rng
    ))


WEIGHTS = {kind: tiny_weights(width) for kind, width in WIDTHS.items()}


@st.composite
def eval_case(draw):
    """(model kind, weight file edit, dataset text, fault, line of a row
    fault)."""
    kind = draw(st.sampled_from(sorted(WIDTHS)))
    fault = draw(st.sampled_from(FAULTS))
    steps = 2 if kind == "nn2pr" else draw(st.sampled_from([1, 2]))
    groups = draw(st.lists(st.sampled_from(GROUPS[steps]), min_size=1, max_size=3,
                           unique_by=lambda group: group[0][1]))
    rows = [list(row) + ["1"] for group in groups for row in group]
    rows = draw(st.permutations(rows))
    line = None
    if fault in ROW_FAULTS:
        i = draw(st.integers(0, len(rows) - 1))
        line = i + 2  # after the header line
        if fault == "label":
            rows[i][0] = draw(st.sampled_from(["", "Positive", "neg", "1"]))
        elif fault == "weight":
            rows[i][4] = draw(st.sampled_from(["nan", "NaN", "-1", "-0.5", "-inf"]))
        elif fault == "empty step":
            rows[i][3] = draw(st.sampled_from(["", ";", f"{rows[i][3]};", f";{rows[i][3]}"]))
        elif fault == "smiles":
            field = draw(st.sampled_from([2, 3]))
            rows[i][field] = draw(st.sampled_from(["C(C", "CCxO", "C1CC", "C=", "[Cx]"]))
        else:
            extra = draw(st.lists(st.sampled_from(["C", "CC=O", "O.CC(=O)O"]),
                                  min_size=3 - steps, max_size=3))
            rows[i][3] = ";".join([rows[i][3], *extra])
    elif fault == "mixed steps":
        i = draw(st.integers(0, len(rows) - 1))
        step = rows[i][3].split(";")[0]
        rows[i][3] = step if steps == 2 else f"{step};{step}"
    elif fault == "no positive":
        group = rows[0][1]
        for row in rows:
            if row[1] == group:
                row[0] = "negative"
    elif fault == "no rows":
        rows = []
    text = "# label\tgroup_key\ttarget\tprecursors\tweight\n"
    text += "".join("\t".join(row) + "\n" for row in rows)

    size = len(WEIGHTS[kind])
    if fault == "flipped byte":
        at = draw(st.one_of(st.integers(0, 40), st.integers(0, size - 1)))
        edit = (at, bytes([WEIGHTS[kind][at] ^ draw(st.integers(1, 255))]), at + 1)
    elif fault == "truncated":
        edit = (draw(st.integers(0, size - 1)), b"", size)
    elif fault == "wrong width":
        edit = draw(st.sampled_from([(512, 1), (2048, 1), (WIDTHS[kind], 2)]))
    elif fault == "nan parameter":
        at = 12 + 13 + 4 * draw(st.integers(0, WIDTHS[kind] * 4 - 1))  # first-layer weights
        edit = (at, struct.pack("<f", math.nan), at + 4)
    else:
        edit = None
    return kind, edit, text, fault, line


def weight_file(kind: str, edit: tuple | None) -> bytes:
    """``kind``'s weight file with bytes [start, end) replaced, or a file of
    another (input width, outputs)."""
    if edit is None or len(edit) == 2:
        return WEIGHTS[kind] if edit is None else tiny_weights(*edit)
    start, replacement, end = edit
    return WEIGHTS[kind][:start] + replacement + WEIGHTS[kind][end:]


class TestEvalFuzz:
    @given(eval_case())
    @settings(max_examples=300, deadline=None)
    def test_exits_0_1_or_2_naming_file_and_line(self, case):
        kind, edit, text, fault, line = case
        with tempfile.TemporaryDirectory() as tmp:
            weights_path, data = Path(tmp, f"{kind}.weights"), Path(tmp, "test.tsv")
            weights_path.write_bytes(weight_file(kind, edit))
            data.write_text(text, encoding="utf-8")
            report = Path(tmp, "report.json")
            code, err = run([
                "eval", "--weights", str(weights_path), "--data", str(data),
                "--out", str(report),
            ])
            assert code in (EXIT_OK, EXIT_INPUT, EXIT_EMPTY), err
            if code == EXIT_OK:
                assert fault in ("none", "mixed steps", "flipped byte"), err
                assert err == "" and report.is_file()
                return
            assert not report.exists()
            if fault in ROW_FAULTS:
                assert err.startswith(f"error: {data}:{line}: "), err
            elif code == EXIT_EMPTY:
                assert err == f"eval: test data {data} holds no rows\n"
            else:
                paths = "|".join(re.escape(str(path)) for path in (data, weights_path))
                assert re.match(rf"error: ({paths}): ", err), err
            assert err.count("\n") == 1, err
