"""Commands driven in process with generated input files.

Whatever the files hold, a command exits 0, 1 or 2, and an exit 1 or 2
names the file at fault, with its line for a row fault. An exit 3 or an
uncaught exception is a program defect.
"""

import io
import re
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st

from retrobio.cli import EXIT_EMPTY, EXIT_INPUT, EXIT_OK, main

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
