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
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from retrobio.cli import EXIT_EMPTY, EXIT_INPUT, EXIT_OK, main
from retrobio.neural import RELU, SIGMOID, LayerSpec, initialize, save_weights

from conftest import overflowing_weights
from synthdata import TEMPLATE_ROWS, build_corpus, write_corpus_files

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


def tree(directory) -> set[str]:
    """Every path under ``directory``, relative to it, hidden ones included:
    a staged output left behind shows here."""
    return {str(path.relative_to(directory)) for path in Path(directory).rglob("*")}


def missing_error(option: str, path) -> str:
    return f"error: {option}: file not found: {path}\n"


def clash_error(input_option: str, output_option: str, path) -> str:
    return f"error: {input_option} and {output_option} both name {Path(path).resolve()}\n"


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
                assert not out.exists()
            else:
                assert err == ""
                assert tree(out) == {"mono_reactions.tsv", "corpus_stats.json"}

    # Twenty cases for each of the 3 path faults: 60 in all.
    @pytest.mark.parametrize("fault", ["missing reactions", "missing compounds", "names an input"])
    @given(reactions=reactions_text(), compounds=compounds_text(), data=st.data())
    @settings(max_examples=20, deadline=None)
    def test_path_fault_exits_1_naming_the_options(self, fault, reactions, compounds, data):
        with tempfile.TemporaryDirectory() as tmp:
            out = Path(tmp, "out")
            inputs = {"--reactions": Path(tmp, "reactions.tsv"),
                      "--compounds": Path(tmp, "compounds.tsv")}
            if fault == "names an input":
                option = data.draw(st.sampled_from(sorted(inputs)))
                out.mkdir()
                inputs[option] = out / data.draw(st.sampled_from(
                    ["mono_reactions.tsv", "corpus_stats.json"]))
                expected = clash_error(option, "--out-dir", inputs[option])
            else:
                option = f"--{fault.split()[1]}"
                expected = missing_error(option, inputs[option])
            for (name, path), text in zip(inputs.items(), (reactions, compounds)):
                if not (fault.startswith("missing") and name == option):
                    path.write_text(text, encoding="utf-8")
            before = tree(tmp)
            argv = ["ingest", "--out-dir", str(out)]
            argv += [part for name, path in inputs.items() for part in (name, str(path))]
            assert run(argv) == (EXIT_INPUT, expected)
            assert tree(tmp) == before


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
                       "flipped byte", "truncated", "wrong width", "nan parameter",
                       "overflowing weights", "missing weights", "missing data",
                       "names an input")


def tiny_weights(in_dim: int, outputs: int = 1) -> bytes:
    rng = np.random.default_rng(in_dim)
    return save_weights(initialize(
        (LayerSpec(in_dim, 4, RELU), LayerSpec(4, outputs, SIGMOID)), rng
    ))


WEIGHTS = {kind: tiny_weights(width) for kind, width in WIDTHS.items()}
OVERFLOWING = {kind: overflowing_weights(width) for kind, width in WIDTHS.items()}


def dataset_text(draw, steps: int, fault: str | None) -> tuple[str, int | None]:
    """(text, line of a row fault) of a dataset of one to three synthdata
    groups of ``steps``-step rows, with ``fault`` if it is a dataset
    fault."""
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
    elif fault == "one class":
        label = draw(st.sampled_from(["positive", "negative"]))
        for row in rows:
            row[0] = label
    elif fault == "no rows":
        rows = []
    text = "# label\tgroup_key\ttarget\tprecursors\tweight\n"
    return text + "".join("\t".join(row) + "\n" for row in rows), line


@st.composite
def eval_case(draw, fault: str):
    """(model kind, weight file edit, dataset text, line of a row fault)
    with ``fault``."""
    kind = draw(st.sampled_from(sorted(WIDTHS)))
    steps = 2 if kind == "nn2pr" else draw(st.sampled_from([1, 2]))
    text, line = dataset_text(draw, steps, fault)

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
    elif fault == "overflowing weights":
        edit = "overflow"
    else:
        edit = None
    return kind, edit, text, line


def weight_file(kind: str, edit: tuple | str | None) -> bytes:
    """``kind``'s weight file with bytes [start, end) replaced, a file of
    another (input width, outputs), or for "overflow" its overflowing one."""
    if edit == "overflow":
        return OVERFLOWING[kind]
    if edit is None or len(edit) == 2:
        return WEIGHTS[kind] if edit is None else tiny_weights(*edit)
    start, replacement, end = edit
    return WEIGHTS[kind][:start] + replacement + WEIGHTS[kind][end:]


class TestEvalFuzz:
    # Twenty-three cases for each of the 17 faults, "none" among them: 391.
    @pytest.mark.parametrize("fault", FAULTS)
    @given(draws=st.data())
    @settings(max_examples=23, deadline=None)
    def test_exits_0_1_or_2_naming_file_and_line(self, fault, draws):
        kind, edit, text, line = draws.draw(eval_case(fault))
        with tempfile.TemporaryDirectory() as tmp:
            weights_path, data = Path(tmp, f"{kind}.weights"), Path(tmp, "test.tsv")
            weights_path.write_bytes(weight_file(kind, edit))
            data.write_text(text, encoding="utf-8")
            report = Path(tmp, "report.json")
            inputs = {"--weights": weights_path, "--data": data}
            expected = None
            if fault == "names an input":
                option = draws.draw(st.sampled_from(sorted(inputs)))
                report = inputs[option]
                expected = clash_error(option, "--out", report)
            elif fault.startswith("missing"):
                option = f"--{fault.split()[1]}"
                inputs[option].unlink()
                expected = missing_error(option, inputs[option])
            before = tree(tmp)
            code, err = run([
                "eval", "--weights", str(weights_path), "--data", str(data),
                "--out", str(report),
            ])
            assert code in (EXIT_OK, EXIT_INPUT, EXIT_EMPTY), err
            if code == EXIT_OK:
                assert fault in ("none", "flipped byte"), err
                assert err == "" and tree(tmp) == before | {"report.json"}
                return
            assert tree(tmp) == before
            if expected is not None:
                assert err == expected
            elif fault == "overflowing weights":
                assert err.startswith(f"error: {weights_path}: "), err
            elif fault in ROW_FAULTS:
                assert err.startswith(f"error: {data}:{line}: "), err
            elif code == EXIT_EMPTY:
                assert err == f"eval: test data {data} holds no rows\n"
            else:
                paths = "|".join(re.escape(str(path)) for path in (data, weights_path))
                assert re.match(rf"error: ({paths}): ", err), err
            assert err.count("\n") == 1, err


# --- train ------------------------------------------------------------------

# The faults per input. "dataset" is the --data file and "config" the
# --config file, an "option" fault is a bad value of that option given as a
# flag or in the config file, "out" and "history" are output paths, and
# "training" is a learning rate that overflows float32. "names an input"
# points --out or --history at --data or --config.
TRAIN_FAULTS = {
    "dataset": ROW_FAULTS + ("mixed steps", "one class", "no rows", "nn2pr on one step",
                             "missing file"),
    "config": ("missing file",),
    "option": ("epochs", "batch", "lr", "dropout", "pos-weight"),
    "out": ("missing directory", "file as directory", "names an input"),
    "history": ("missing directory", "file as directory", "names the out file"),
    "training": ("diverging lr",),
}
BAD_OPTIONS = {
    "epochs": ["-1", "1.5", "ten"],
    "batch": ["0", "-2", "2.5"],
    "lr": ["0", "-0.1", "nan", "inf"],
    "dropout": ["1", "-0.5", "nan"],
    "pos-weight": ["-1", "nan", "inf", "many"],
}
TRAIN_CASES = [(None, None)] + [
    (name, fault) for name, faults in TRAIN_FAULTS.items() for fault in faults
]


@st.composite
def train_case(draw, name: str | None, fault: str | None):
    """(model kind, dataset text, line of a row fault, option flags, config
    text) with ``fault`` in input ``name``, or no fault. One epoch over at
    most a dozen rows keeps a case to milliseconds."""
    kind = "nn2pr" if fault == "nn2pr on one step" else draw(st.sampled_from(sorted(WIDTHS)))
    steps = 1 if kind == "nn1pr" or fault == "nn2pr on one step" else 2
    text, line = dataset_text(draw, steps, fault if name == "dataset" else None)
    options = {
        "epochs": "1",
        "batch": draw(st.sampled_from(["1", "4", "128"])),
        "pos-weight": draw(st.sampled_from(["", "auto", "2"])),
    }
    config = "[train]\nseed = 3\n"
    if fault == "diverging lr":
        options.update(epochs="30", lr=draw(st.sampled_from(["1e38", "3e38", "1e37"])))
    if name == "option":
        bad = draw(st.sampled_from(BAD_OPTIONS[fault]))
        if draw(st.booleans()):
            options[fault] = bad
        else:  # a flag would override the file
            options.pop(fault, None)
            config += f"{fault} = {bad}\n"
    return kind, text, line, options, config


class TestTrainFuzz:
    # Sixteen cases for each of the 23 faults and for no fault: 384 in all.
    @pytest.mark.parametrize("name, fault", TRAIN_CASES)
    @given(data=st.data(), with_history=st.booleans())
    @settings(max_examples=16, deadline=None)
    def test_exits_0_1_or_2_naming_file_and_line(self, name, fault, data, with_history):
        kind, text, line, options, config_text = data.draw(train_case(name, fault))
        with_history = with_history or name == "history"
        with tempfile.TemporaryDirectory() as tmp:
            dataset, config = Path(tmp, "train.tsv"), Path(tmp, "train.ini")
            dataset.write_text(text, encoding="utf-8")
            config.write_text(config_text, encoding="utf-8")
            inputs = {"--data": dataset, "--config": config}
            outputs = {"out": Path(tmp, "w.nnpr"), "history": Path(tmp, "h.csv")}
            expected = None
            if fault == "missing file":
                option = {"dataset": "--data", "config": "--config"}[name]
                inputs[option].unlink()
                expected = missing_error(option, inputs[option])
            elif fault == "names an input":
                option = data.draw(st.sampled_from(sorted(inputs)))
                output = data.draw(st.sampled_from(["out", "history"][:1 + with_history]))
                outputs[output] = inputs[option]
                expected = clash_error(option, f"--{output}", inputs[option])
            elif fault == "names the out file":
                outputs[name] = outputs["out"]
            elif name in outputs:
                parent = Path(tmp, "missing") if fault == "missing directory" else dataset
                outputs[name] = parent / outputs[name].name
            argv = ["--config", str(config), "train", "--model", kind,
                    "--data", str(dataset), "--out", str(outputs["out"])]
            if with_history:
                argv += ["--history", str(outputs["history"])]
            argv += [f"--{option}={value}" for option, value in options.items()]
            before = tree(tmp)
            code, err = run(argv)
            assert code in (EXIT_OK, EXIT_INPUT, EXIT_EMPTY), err
            if code == EXIT_OK:
                assert name is None, err
                assert err == ""
                assert tree(tmp) == before | {"w.nnpr", *["h.csv"][:with_history]}
                return
            assert tree(tmp) == before, err
            assert err.count("\n") == 1, err
            if expected is not None:
                assert err == expected
            elif fault in ROW_FAULTS:
                assert err.startswith(f"error: {dataset}:{line}: "), err
            elif fault == "no rows":
                assert err == f"train: training data {dataset} holds no rows\n"
            elif fault == "nn2pr on one step":
                assert err == (f"train: {dataset}: feature width 1024 does not match "
                               "nn2pr input width 1536\n")
            elif name == "dataset":
                assert err.startswith(f"error: {dataset}: "), err
            elif name == "option":
                assert err.startswith((f"error: --{fault}", f"error: {config}: [train] {fault}")), err
            elif name == "training":
                assert err.startswith("train: training diverged ("), err
                assert err.endswith("); try a lower --lr\n"), err
            elif fault == "names the out file":
                path = outputs["out"].resolve()
                assert err == f"error: --out and --history both name {path}\n", err
            else:
                path = outputs[name]
                assert err == (f"error: --{name}: cannot write {path}: "
                               f"{path.parent} is not a directory\n")
            empty = ("no rows", "nn2pr on one step", "diverging lr")
            assert code == (EXIT_EMPTY if fault in empty else EXIT_INPUT)


# --- augment ----------------------------------------------------------------


def _valid_rows() -> list[list[list[str]]]:
    """The data rows, split into fields, of the valid corpus and pathways
    files of ``write_corpus_files(max_length=4)``: six reactions, three
    pathways."""
    with tempfile.TemporaryDirectory() as tmp:
        corpus, pathways, _ = write_corpus_files(Path(tmp), max_length=4)
        return [
            [line.split("\t") for line in path.read_text(encoding="utf-8").splitlines()
             if not line.startswith("#")]
            for path in (corpus, pathways)
        ]


CORPUS_ROWS, PATHWAY_ROWS = _valid_rows()
TEMPLATE_FIELDS = [[t, "bwd", str(d), ec, smarts] for t, ec, d, smarts in TEMPLATE_ROWS]
BAD_SMILES = ["C(C", "CCxO", "C1CC", "C=", "[Cx]"]
# The faults per file. A corpus row that loses a side is dropped, so the
# command exits 2 when no corpus row is left, and every other fault names
# its file: with the line of the row at fault, or the file left without rows.
AUGMENT_FAULTS = {
    "corpus": ("field count", "emptied side", "bad smiles", "every row unusable",
               "missing file"),
    "templates": ("direction", "diameter", "smarts", "repeated id", "comment only",
                  "missing file"),
    "pathways": ("field count", "missing file"),
    "out-dir": ("names an input",),
}
EMPTY_MESSAGES = {
    "corpus": "corpus file {} holds no usable reactions",
    "templates": "template file {} holds no templates",
}


def tsv_text(rows: list[list[str]]) -> str:
    return "# a header\n" + "".join("\t".join(row) + "\n" for row in rows)


@st.composite
def augment_case(draw, name: str | None, fault: str | None):
    """(file texts, the exit code, the line of a row fault) with ``fault``
    in file ``name``, or no fault. At most three corpus rows keep a case to
    a few milliseconds."""
    rows = {
        "corpus": draw(st.lists(st.sampled_from(CORPUS_ROWS), min_size=1, max_size=3,
                                unique_by=tuple)),
        "templates": draw(st.lists(st.sampled_from(TEMPLATE_FIELDS), min_size=1,
                                   max_size=6, unique_by=lambda row: row[0])),
        "pathways": draw(st.lists(st.sampled_from(PATHWAY_ROWS), min_size=1, max_size=3,
                                  unique_by=tuple)),
    }
    rows = {file: [list(row) for row in file_rows] for file, file_rows in rows.items()}
    code, line = EXIT_INPUT, None
    if fault in ("field count", "emptied side", "bad smiles", "direction", "diameter",
                 "smarts"):
        i = draw(st.integers(0, len(rows[name]) - 1))
        row, line = rows[name][i], i + 2  # after the header line
        if fault == "field count":
            rows[name][i] = row[:-1] if draw(st.booleans()) else row + ["C"]
        elif fault in ("emptied side", "bad smiles"):
            row[draw(st.sampled_from([2, 3]))] = (
                "" if fault == "emptied side" else draw(st.sampled_from(BAD_SMILES))
            )
            code = EXIT_OK if len(rows[name]) > 1 else EXIT_EMPTY
        elif fault == "direction":
            row[1] = draw(st.sampled_from(["fwd", "BWD", ""]))
        elif fault == "diameter":
            row[2] = draw(st.sampled_from(["two", "", "1.5", "0x2", "-1"]))
        else:
            row[4] = draw(st.sampled_from(["[C:1]>>", "[C:1", "C>>C>>C", "[Xx:1]>>[C:1]"]))
    elif fault == "every row unusable":
        for row in rows["corpus"]:
            row[draw(st.sampled_from([2, 3]))] = draw(st.sampled_from(["", *BAD_SMILES]))
        code = EXIT_EMPTY
    elif fault == "repeated id":
        rows["templates"].append(list(draw(st.sampled_from(rows["templates"]))))
        line = len(rows["templates"]) + 1
    elif fault == "comment only":
        rows["templates"] = []
        code = EXIT_EMPTY
    elif fault is None:
        code = EXIT_OK
    texts = {file: tsv_text(file_rows) for file, file_rows in rows.items()}
    return texts, code, line


AUGMENT_CASES = [(None, None)] + [
    (name, fault) for name, faults in AUGMENT_FAULTS.items() for fault in faults
]


class TestAugmentFuzz:
    # Twenty-seven cases for each of the 14 faults and for no fault: 405 in all.
    @pytest.mark.parametrize("name, fault", AUGMENT_CASES)
    @given(data=st.data(), with_pathways=st.booleans())
    @settings(max_examples=27, deadline=None)
    def test_exits_0_1_or_2_naming_file_and_line(self, name, fault, data, with_pathways):
        texts, expected, line = data.draw(augment_case(name, fault))
        with_pathways = with_pathways or name == "pathways"
        with tempfile.TemporaryDirectory() as tmp:
            paths = {file: Path(tmp, f"{file}.tsv") for file in texts}
            out = Path(tmp, "out")
            if fault == "names an input":
                clashing = data.draw(st.sampled_from(["corpus", "templates", "pathways"][
                    :2 + with_pathways]))
                out.mkdir()
                paths[clashing] = out / data.draw(st.sampled_from([
                    "onestep_train.tsv", "onestep_test.tsv", "twostep_train.tsv",
                    "twostep_test.tsv", "augment_stats.json",
                ]))
            for file, text in texts.items():
                if not (fault == "missing file" and file == name):
                    paths[file].write_text(text, encoding="utf-8")
            argv = ["augment", "--corpus", str(paths["corpus"]),
                    "--templates", str(paths["templates"]), "--out-dir", str(out)]
            if with_pathways:
                argv += ["--pathways", str(paths["pathways"])]
            before = tree(tmp)
            code, err = run(argv)
            assert code == expected, err
            if code == EXIT_OK:
                outputs = {"onestep_train.tsv", "onestep_test.tsv", "augment_stats.json"}
                if with_pathways:
                    outputs |= {"twostep_train.tsv", "twostep_test.tsv"}
                assert err == ""
                assert {p.name for p in out.iterdir()} == outputs
                return
            assert tree(tmp) == before, err
            if fault == "missing file":
                assert err == missing_error(f"--{name}", paths[name])
            elif fault == "names an input":
                assert err == clash_error(f"--{clashing}", "--out-dir", paths[clashing])
            elif code == EXIT_EMPTY:
                assert err == f"augment: {EMPTY_MESSAGES[name].format(paths[name])}\n"
            else:
                assert err.startswith(f"error: {paths[name]}:{line}: "), err
                assert err.count("\n") == 1, err


# --- retro ------------------------------------------------------------------

# Stop-set and gold molecules that parse; a search rarely reaches them, which
# is fine, since each case checks how the inputs are read.
GOOD_SMILES = ["CCO", "CC=O", "O", "N", "OC(=O)C", "c1ccccc1O", "[NH4+]", "N#N", "OCC"]
CONFIG = "[retro]\nbeam = 3\nmax-steps = 1\n"
# The faults per input. "target" is the --target text; the others are files.
RETRO_FAULTS = {
    "templates": ("field count", "direction", "diameter", "smarts", "repeated id",
                  "comment only", "missing file"),
    "target": ("smiles",),
    "stop-set": ("smiles", "comment only", "missing file"),
    "gold": ("field count", "smiles", "empty piece", "missing file"),
    "nn1": ("flipped byte", "truncated", "wrong width", "overflowing weights", "missing file"),
    "nn2": ("flipped byte", "truncated", "wrong width", "overflowing weights", "missing file"),
    "config": ("no section", "no value", "duplicate key", "unknown key", "unknown section",
               "bad value", "percent", "missing file"),
    "out": ("names an input",),
}
CONFIG_FAULTS = {
    "no section": "beam = 3\n",
    "no value": "[retro]\nbeam\n",
    "duplicate key": "[retro]\nbeam = 3\nbeam = 4\n",
    "unknown key": "[retro]\nbeem = 3\n",
    "unknown section": CONFIG + "[search]\nbeam = 3\n",
    "percent": "[retro]\nbeam = 3%\n",
}
RETRO_EMPTY = {
    "templates": "retro: template file {} holds no templates\n",
    "stop-set": "retro: stop-set file {} holds no SMILES\n",
}


def weight_edit(draw, kind: str, fault: str):
    """A weight-file edit as ``weight_file`` takes it: one flipped byte, a
    cut, or a file of another shape."""
    size = len(WEIGHTS[kind])
    if fault == "flipped byte":
        at = draw(st.one_of(st.integers(0, 40), st.integers(0, size - 1)))
        return at, bytes([WEIGHTS[kind][at] ^ draw(st.integers(1, 255))]), at + 1
    if fault == "truncated":
        return draw(st.integers(0, size - 1)), b"", size
    other = 1536 if kind == "nn1pr" else 1024
    return draw(st.sampled_from([(other, 1), (WIDTHS[kind], 2)]))


@st.composite
def retro_case(draw, name: str | None, fault: str | None):
    """(file texts, weight edits, target, the line of a row fault) with
    ``fault`` in input ``name``, or no fault."""
    from conftest import molecules
    from retrobio.molgraph import write_smiles

    rows = {
        "templates": [list(row) for row in draw(st.lists(
            st.sampled_from(TEMPLATE_FIELDS), min_size=1, max_size=4,
            unique_by=lambda row: row[0]))],
        "stop-set": [[s] for s in draw(st.lists(st.sampled_from(GOOD_SMILES), min_size=1,
                                                max_size=3))],
        "gold": [list(pair) for pair in draw(st.lists(
            st.tuples(st.sampled_from(GOOD_SMILES), st.sampled_from(GOOD_SMILES)),
            min_size=1, max_size=3))],
    }
    target = write_smiles(draw(molecules(max_heavy=4)))
    config = CONFIG
    edits = {"nn1": None, "nn2": None}
    line = None
    if fault in ("missing file", "names an input"):
        pass  # the inputs stay valid; the check removes or names one
    elif fault == "long pattern":
        # One template whose lhs is a chain longer than the recursion limit,
        # on a chain target it matches whole, in part or not at all.
        n = draw(st.integers(1000, 1100))
        chain = "[C]" * (n - 2)
        rows[name] = [["T", "bwd", "0", "-", f"[C:1]{chain}[O:2]>>[C:1]{chain}[S:2]"]]
        target = "C" * (n - 1 + draw(st.sampled_from([-5, 0, 5]))) + "O"
    elif name in rows and fault != "comment only":
        i = draw(st.integers(0, len(rows[name]) - 1))
        row, line = rows[name][i], i + 2  # after the header line
        if fault == "field count":
            rows[name][i] = row[:-1] if draw(st.booleans()) else row + ["C"]
        elif fault == "direction":
            row[1] = draw(st.sampled_from(["fwd", "BWD", ""]))
        elif fault == "diameter":
            row[2] = draw(st.sampled_from(["two", "", "1.5", "-1"]))
        elif fault == "smarts":
            row[4] = draw(st.sampled_from(["[C:1]>>", "[C:1", "C>>C>>C", "[Xx:1]>>[C:1]"]))
        elif fault == "repeated id":
            rows[name].append(list(row))
            line = len(rows[name]) + 1
        elif fault == "smiles":
            row[draw(st.integers(0, len(row) - 1))] = draw(st.sampled_from(BAD_SMILES))
        else:  # an empty '.' piece among the precursors
            row[1] = draw(st.sampled_from([".", f"{row[1]}.", f".{row[1]}"]))
    elif fault == "comment only":
        rows[name] = []
    elif name == "target":
        target = draw(st.sampled_from(BAD_SMILES + ["", "C.."]))
    elif fault == "overflowing weights":
        # A two-level search that scores with both models: T05 matches
        # every carbon of the target and of its precursors.
        edits[name] = "overflow"
        rows["templates"] = [list(TEMPLATE_FIELDS[4])]
        target = "CCCCO"
        config = "[retro]\nbeam = 3\nmax-steps = 2\n"
    elif name in edits:
        edits[name] = weight_edit(draw, "nn1pr" if name == "nn1" else "nn2pr", fault)
    elif name == "config":
        config = CONFIG_FAULTS.get(fault) or draw(st.sampled_from([
            "[retro]\nbeam = ten\n", "[retro]\nbeam = 0\n", "[retro]\nprune = nan\n",
            "[retro]\nmax-steps = 1.5\n",
        ]))
    texts = {file: tsv_text(file_rows) for file, file_rows in rows.items()}
    texts["config"] = config
    return texts, edits, target, line


RETRO_CASES = [(None, None)] + [
    (name, fault) for name, faults in RETRO_FAULTS.items() for fault in faults
]


class TestRetroFuzz:
    # Twelve cases for each of the 34 faults and for no fault: 420 in all.
    @pytest.mark.parametrize("name, fault", RETRO_CASES)
    @given(data=st.data(), with_nn2=st.booleans())
    @settings(max_examples=12, deadline=None)
    def test_exits_0_1_or_2_naming_file_and_line(self, name, fault, data, with_nn2):
        self.check(name, fault, data, with_nn2)

    # A template lhs longer than the recursion limit. A case canonicalizes
    # two chains of a thousand atoms, about 0.5 s, so it gets four cases.
    @given(data=st.data(), with_nn2=st.booleans())
    @settings(max_examples=4, deadline=None)
    def test_pattern_longer_than_recursion_limit(self, data, with_nn2):
        self.check("templates", "long pattern", data, with_nn2)

    @staticmethod
    def check(name, fault, data, with_nn2):
        texts, edits, target, line = data.draw(retro_case(name, fault))
        with_nn2 = with_nn2 or name == "nn2"
        with tempfile.TemporaryDirectory() as tmp:
            paths = {file: Path(tmp, f"{file}.txt") for file in [*texts, "nn1", "nn2"]}
            for file, text in texts.items():
                paths[file].write_text(text, encoding="utf-8")
            for file, kind in (("nn1", "nn1pr"), ("nn2", "nn2pr")):
                paths[file].write_bytes(weight_file(kind, edits[file]))
            report = Path(tmp, "report.json")
            expected = None
            if fault == "missing file":
                paths[name].unlink()
                expected = missing_error(f"--{name}", paths[name])
            elif fault == "names an input":
                clashing = data.draw(st.sampled_from(
                    sorted(set(paths) - {"nn2"}) + ["nn2"][:with_nn2]))
                report = paths[clashing]
                expected = clash_error(f"--{clashing}", "--out", report)
            before = tree(tmp)
            argv = ["--config", str(paths["config"]), "retro", "--target", target,
                    "--templates", str(paths["templates"]), "--nn1", str(paths["nn1"]),
                    "--stop-set", str(paths["stop-set"]), "--gold", str(paths["gold"]),
                    "--out", str(report)]
            if with_nn2:
                argv += ["--nn2", str(paths["nn2"])]
            code, err = run(argv)
            assert code in (EXIT_OK, EXIT_INPUT, EXIT_EMPTY), err
            if code == EXIT_OK:
                assert name is None or fault in ("flipped byte", "long pattern"), err
                assert err == "" and tree(tmp) == before | {"report.json"}
                return
            assert tree(tmp) == before
            assert err.count("\n") == 1, err
            if expected is not None:
                assert err == expected
            elif code == EXIT_EMPTY:
                assert err == RETRO_EMPTY[name].format(paths[name])
            elif line is not None:
                assert err.startswith(f"error: {paths[name]}:{line}: "), err
            elif name == "target":
                assert err.startswith("error: cannot parse target: "), err
            else:
                assert err.startswith(f"error: {paths[name]}: "), err
