"""The shared TSV reader/writer and the formats built on it."""

import pytest

from retrobio import dataset as ds
from retrobio.molgraph import EmptyInput, SmilesSyntaxError, canonicalize
from retrobio.pattern import load_templates
from retrobio.pipeline import (
    Pathway, PathwayStep, SearchConfig, SearchReport, read_gold_tsv, read_stop_set,
)
from retrobio.tsv import read_tsv, write_json, write_tsv

SMARTS = "[C:1][O:2]>>[C:1][S:2]"

# format -> (reader, good row, short or unparsable row); each file gets a
# comment line first, so the bad row is always line 3.
READERS = {
    "reactions": (
        ds.read_reactions_tsv, "r1\t1.1.1.1\tCCO\tCC=O", "r2\t1.1.1.1\tCCO",
    ),
    "compounds": (ds.read_compounds_tsv, "C1\tCCO", "C2"),
    "pathways": (ds.read_pathways_tsv, "p1\tr1;r2", "p2"),
    "dataset": (
        ds.read_examples_tsv, "positive\tg\tCCO\tCC=O\t1", "positive\tg\tCCO\tCC=O\tone",
    ),
    "templates": (load_templates, f"T01\tbwd\t2\t-\t{SMARTS}", f"T02\tbwd\ttwo\t-\t{SMARTS}"),
    "stop set": (read_stop_set, "OC(=O)CCO", "C(("),
    "gold": (read_gold_tsv, "OCCCO\tO=CCCO", "O=CCCO"),
}


# More bad rows for some formats: a reactions row holding byte 0xe9 (Latin-1
# 'e acute'), which is not UTF-8 and is written through surrogateescape so the
# raw byte lands in the file, and dataset rows whose fields split but whose
# values are wrong.
_DATASET_GOOD = READERS["dataset"][1]
BAD_INPUTS = {
    **READERS,
    "reactions, not UTF-8": (
        ds.read_reactions_tsv, READERS["reactions"][1], "r2\t1.1.1.1\tCCO\tCC\udce9O",
    ),
    "reactions, repeated id": (
        lambda path: ds.read_reactions_tsv(path, unique_ids=True),
        READERS["reactions"][1], "r1\t1.1.1.2\tCCCO\tCCC=O",
    ),
    "compounds, repeated id": (ds.read_compounds_tsv, "C1\tCCO", "C1\tCCCC"),
    "templates, repeated id": (load_templates, READERS["templates"][1], READERS["templates"][1]),
    **{
        f"dataset, {what}": (ds.read_examples_tsv, _DATASET_GOOD, bad)
        for what, bad in (
            ("label", "maybe\tg\tCCO\tCC=O\t1"),
            ("empty target", "positive\tg\t\tCC=O\t1"),
            ("empty step", "positive\tg\tCCO\t\t1"),
            ("empty second step", "positive\tg\tCCO\tCC=O;\t1"),
            ("nan weight", "positive\tg\tCCO\tCC=O\tnan"),
            ("infinite weight", "positive\tg\tCCO\tCC=O\tinf"),
            ("negative weight", "positive\tg\tCCO\tCC=O\t-1"),
        )
    },
}


@pytest.mark.parametrize("name", sorted(BAD_INPUTS))
def test_bad_row_names_path_and_line(tmp_path, name):
    reader, good, bad = BAD_INPUTS[name]
    path = tmp_path / "input.tsv"
    path.write_bytes(
        f"# a comment\n{good}\n{bad}\n".encode("utf-8", "surrogateescape")
    )
    with pytest.raises(ValueError) as info:
        reader(path)
    assert str(info.value).startswith(f"{path}:3: ")


def test_crlf_line_endings_read_as_lf(tmp_path):
    path = tmp_path / "rows.tsv"
    path.write_bytes(b"# h\r\na\tb\r\n\r\nc\td\n")
    assert read_tsv(path, 2, lambda a, b: (a, b)) == [("a", "b"), ("c", "d")]


@pytest.mark.parametrize("name", sorted(READERS))
def test_good_rows_parse(tmp_path, name):
    reader, good, _ = READERS[name]
    path = tmp_path / "input.tsv"
    path.write_text(f"# a comment\n\n{good}\n", encoding="utf-8")
    assert len(reader(path)) == 1


def test_row_error_keeps_class_and_attributes(tmp_path):
    path = tmp_path / "stop.txt"
    path.write_text("C((\n", encoding="utf-8")
    with pytest.raises(SmilesSyntaxError) as info:
        read_stop_set(path)
    assert str(info.value).startswith(f"{path}:1: ")
    assert info.value.offset >= 0


def test_field_count_error_class(tmp_path):
    class RowError(ValueError):
        pass

    path = tmp_path / "rows.tsv"
    path.write_text("a\tb\tc\n", encoding="utf-8")
    with pytest.raises(RowError, match=r"rows\.tsv:1: expected 2 tab-separated fields, got 3"):
        read_tsv(path, 2, lambda a, b: (a, b), error=RowError)


def test_reader_skips_comments_and_blank_lines(tmp_path):
    path = tmp_path / "rows.tsv"
    path.write_text("# h\n\na\tb\n#x\ty\nc\td\n", encoding="utf-8")
    assert read_tsv(path, 2, lambda a, b: (a, b)) == [("a", "b"), ("c", "d")]


def test_strip_keeps_stop_set_whitespace_rules(tmp_path):
    path = tmp_path / "stop.txt"
    path.write_text("  CCO  \n   \n  # indented comment\n", encoding="utf-8")
    assert read_tsv(path, 1, str, strip=True) == ["CCO"]
    assert read_tsv(path, 1, str) == ["  CCO  ", "   ", "  # indented comment"]


def test_gold_rows_are_canonical_keys(tmp_path):
    path = tmp_path / "gold.tsv"
    path.write_text("[OH:1]CC\tO.C(C)=O\n", encoding="utf-8")
    [(product_key, product, precursor_keys)] = read_gold_tsv(path)
    assert (product_key, precursor_keys) == ("CCO", ("CC=O", "O"))
    # the product graph is the molecule its key names, map indices dropped
    assert canonicalize(product) == product_key
    assert all(atom.map_index is None for atom in product.atoms)


def test_gold_empty_precursor_piece_names_path_and_line(tmp_path):
    path = tmp_path / "gold.tsv"
    path.write_text("# gold\nCCO\tCC=O..O\n", encoding="utf-8")
    with pytest.raises(EmptyInput) as info:
        read_gold_tsv(path)
    assert str(info.value).startswith(f"{path}:2: ")


def test_json_writer_layout(tmp_path):
    path = tmp_path / "out.json"
    write_json(path, {"b": [1, 2], "a": {"y": None, "x": "é"}})
    assert path.read_bytes() == (
        b'{\n  "a": {\n    "x": "\\u00e9",\n    "y": null\n  },\n'
        b'  "b": [\n    1,\n    2\n  ]\n}\n'
    )


def test_writer_layout(tmp_path):
    path = tmp_path / "out.tsv"
    write_tsv(path, ("a", "b"), [("1", "2"), ("x", "")])
    assert path.read_bytes() == b"# a\tb\n1\t2\nx\t\n"
    assert read_tsv(path, 2, lambda a, b: (a, b)) == [("1", "2"), ("x", "")]


def test_pathways_tsv_layout(tmp_path):
    steps = (
        PathwayStep("OCCO", ("O=CCO",), ("1.1.1.1",), "T01", 0.5),
        PathwayStep("O=CCO", ("O", "OC(=O)CO"), (), "T02", 0.125),
    )
    report = SearchReport("OCCO", SearchConfig(), pathways=[Pathway(steps, 0.25, 1)])
    path = tmp_path / "pathways.tsv"
    report.save_pathways_tsv(path)
    assert path.read_bytes() == (
        b"# rank\taggregate_score\tsteps\n1\t0.250000\tOCCO>O=CCO;O=CCO>O.OC(=O)CO\n"
    )
