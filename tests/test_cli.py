import errno
import json
import os
import shutil
import stat
import subprocess
import sys
from collections import Counter
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import numpy as np
import pytest

import retrobio.neural
import retrobio.pipeline
from retrobio import cli
from retrobio.cli import EXIT_EMPTY, EXIT_INPUT, EXIT_INTERNAL, EXIT_OK, main
from retrobio.molgraph import parse_smiles
from retrobio.neural import SIGMOID, LayerSpec, initialize, nn2pr_spec, save_weights

from conftest import overflowing_weights
from synthdata import write_corpus_files

GOLDEN = Path(__file__).resolve().parent / "golden"


@pytest.fixture(scope="module")
def corpus_files(tmp_path_factory):
    directory = tmp_path_factory.mktemp("corpus")
    reactions, pathways, templates = write_corpus_files(directory, max_length=5)
    return directory, reactions, pathways, templates


BAD_ROWS = pytest.mark.parametrize(
    "row",
    [
        "positive\tg\tCCO\tCC=O\tnan",
        "positive\tg\t\tCC=O\t1",
        "positive\tg\tCCxO\tCC=O\t1",
        "positive\tg\tCCO\tCC=O.C(C\t1",
        # The one-step model would score its first two steps, dropping one.
        "positive\tg\tCCO\tCC=O;CC(=O)O;CC(=O)OC\t1",
    ],
    ids=["nan weight", "empty target", "bad target", "bad precursor", "three steps"],
)


def two_output_weights(path, width):
    """A valid weight file whose last layer has two outputs."""
    rng = np.random.default_rng(0)
    path.write_bytes(save_weights(initialize((LayerSpec(width, 2, SIGMOID),), rng)))
    return path


@pytest.fixture(scope="module")
def staged(corpus_files, tmp_path_factory):
    """Run ingest + augment + train once; reuse across CLI tests."""
    directory, reactions, pathways, templates = corpus_files
    work = tmp_path_factory.mktemp("staged")
    assert main([
        "ingest", "--reactions", str(reactions), "--out-dir", str(work / "ingest"),
    ]) == EXIT_OK
    assert main([
        "augment",
        "--corpus", str(work / "ingest" / "mono_reactions.tsv"),
        "--templates", str(templates),
        "--pathways", str(pathways),
        "--out-dir", str(work / "augment"),
        "--seed", "7",
    ]) == EXIT_OK
    assert main([
        "train", "--model", "nn1pr",
        "--data", str(work / "augment" / "onestep_train.tsv"),
        "--out", str(work / "nn1.weights"),
        "--history", str(work / "nn1_history.csv"),
        "--epochs", "3", "--seed", "7", "--pos-weight", "auto",
    ]) == EXIT_OK
    return work


class TestIngest:
    def test_writes_corpus_and_stats(self, corpus_files, tmp_path):
        _, reactions, _, _ = corpus_files
        out = tmp_path / "out"
        assert main([
            "ingest", "--reactions", str(reactions), "--out-dir", str(out),
        ]) == EXIT_OK
        stats = json.loads((out / "corpus_stats.json").read_text())
        assert stats["mono_reactions"] > 0
        assert (out / "mono_reactions.tsv").exists()

    def test_broken_reaction_counted(self, tmp_path):
        reactions = tmp_path / "reactions.tsv"
        reactions.write_text(
            "r1\t1.1.1.1\tCCO\tCC=O\n"
            "r2\t1.1.1.1\tC((\tCC=O\n"
            "r3\t\tCC\tC1CC\n",
            encoding="utf-8",
        )
        out = tmp_path / "out"
        assert main([
            "ingest", "--reactions", str(reactions), "--out-dir", str(out),
        ]) == EXIT_OK
        stats = json.loads((out / "corpus_stats.json").read_text())
        assert stats["reactions_in"] == 3
        assert stats["reactions_dropped"] == 2

    def test_generic_fixed_counts_table_and_raw_repairs(self, tmp_path):
        reactions = tmp_path / "reactions.tsv"
        reactions.write_text("r1\t\tCCX\tCCO\nr2\t\tc1\tCCCO\n", encoding="utf-8")
        compounds = tmp_path / "compounds.tsv"
        compounds.write_text("c1\tCCCX\n", encoding="utf-8")
        out = tmp_path / "out"
        assert main([
            "ingest", "--reactions", str(reactions), "--compounds", str(compounds),
            "--out-dir", str(out),
        ]) == EXIT_OK
        stats = json.loads((out / "corpus_stats.json").read_text())
        assert stats["generic_fixed"] == 2

    def test_empty_corpus_exits_2(self, tmp_path, capsys):
        reactions = tmp_path / "empty.tsv"
        reactions.write_text("# nothing here\n", encoding="utf-8")
        assert main([
            "ingest", "--reactions", str(reactions),
            "--out-dir", str(tmp_path / "out"),
        ]) == EXIT_EMPTY
        err = capsys.readouterr().err
        assert err == f"ingest: reactions file {reactions} holds no usable reactions\n"
        assert not (tmp_path / "out").exists()

    def test_missing_file_exits_1(self, tmp_path, capsys):
        assert main([
            "ingest", "--reactions", str(tmp_path / "nope.tsv"),
            "--out-dir", str(tmp_path / "out"),
        ]) == EXIT_INPUT
        assert capsys.readouterr().err == (
            f"error: --reactions: file not found: {tmp_path / 'nope.tsv'}\n"
        )
        assert list(tmp_path.iterdir()) == []

    def test_short_row_exits_1_naming_file_and_line(self, tmp_path, capsys):
        reactions = tmp_path / "reactions.tsv"
        reactions.write_text(
            "# reaction_id\tecs\treactants\tproducts\n"
            "r1\t1.1.1.1\tCCO\tCC=O\n"
            "r2\t1.1.1.1\tCCO\n",
            encoding="utf-8",
        )
        assert main([
            "ingest", "--reactions", str(reactions),
            "--out-dir", str(tmp_path / "out"),
        ]) == EXIT_INPUT
        err = capsys.readouterr().err
        assert f"{reactions}:3: expected 4 tab-separated fields, got 3" in err
        assert "internal error" not in err

    @pytest.mark.parametrize(
        "reactions_text, compounds_text, bad_file, message",
        [
            (
                "r1\t\tc1\tCCO\n",
                "# id\tsmiles\nc1\tCCX\nc1\tCCCC\n",
                "compounds", "repeated compound id 'c1'",
            ),
            (
                "# id\tecs\treactants\tproducts\nr1\t1.1.1.1\tCCO\tCC=O\n"
                "r1\t1.1.1.2\tCCCO\tCCC=O\n",
                "", "reactions", "repeated reaction id 'r1'",
            ),
        ],
        ids=["compound", "reaction"],
    )
    def test_repeated_id_exits_1_naming_file_and_line(
        self, tmp_path, capsys, reactions_text, compounds_text, bad_file, message
    ):
        files = {"reactions": tmp_path / "reactions.tsv", "compounds": tmp_path / "compounds.tsv"}
        files["reactions"].write_text(reactions_text, encoding="utf-8")
        files["compounds"].write_text(compounds_text, encoding="utf-8")
        out = tmp_path / "out"
        assert main([
            "ingest", "--reactions", str(files["reactions"]),
            "--compounds", str(files["compounds"]), "--out-dir", str(out),
        ]) == EXIT_INPUT
        assert f"{files[bad_file]}:3: {message}" in capsys.readouterr().err
        assert not out.exists()

    def test_rerun_byte_identical(self, corpus_files, tmp_path):
        _, reactions, _, _ = corpus_files
        outs = []
        for name in ("a", "b"):
            out = tmp_path / name
            main(["ingest", "--reactions", str(reactions), "--out-dir", str(out)])
            outs.append(
                (out / "mono_reactions.tsv").read_bytes()
                + (out / "corpus_stats.json").read_bytes()
            )
        assert outs[0] == outs[1]


class TestAugment:
    def test_zero_templates_exits_2(self, staged, tmp_path, capsys):
        empty = tmp_path / "templates.tsv"
        empty.write_text("# no rows\n", encoding="utf-8")
        assert main([
            "augment",
            "--corpus", str(staged / "ingest" / "mono_reactions.tsv"),
            "--templates", str(empty),
            "--out-dir", str(tmp_path / "out"),
        ]) == EXIT_EMPTY
        assert capsys.readouterr().err == f"augment: template file {empty} holds no templates\n"

    def test_repeated_template_id_exits_1_naming_file_and_line(
        self, corpus_files, staged, tmp_path, capsys
    ):
        _, _, _, templates = corpus_files
        rows = [line for line in templates.read_text(encoding="utf-8").splitlines()
                if line and not line.startswith("#")]
        doubled = tmp_path / "templates.tsv"
        doubled.write_text("\n".join([rows[0], rows[1], rows[0]]) + "\n", encoding="utf-8")
        template_id = rows[0].split("\t")[0]
        assert main([
            "augment",
            "--corpus", str(staged / "ingest" / "mono_reactions.tsv"),
            "--templates", str(doubled),
            "--out-dir", str(tmp_path / "out"),
        ]) == EXIT_INPUT
        err = capsys.readouterr().err
        assert f"{doubled}:3: repeated template id {template_id!r}" in err

    @pytest.mark.parametrize(
        "text", ["# no rows\n", "r1\t\tC(C\tCCO\n"], ids=["empty", "every row unusable"]
    )
    def test_corpus_without_usable_reactions_exits_2_before_writing(
        self, corpus_files, tmp_path, capsys, text
    ):
        _, _, _, templates = corpus_files
        corpus = tmp_path / "corpus.tsv"
        corpus.write_text(text, encoding="utf-8")
        out = tmp_path / "out"
        assert main([
            "augment", "--corpus", str(corpus), "--templates", str(templates),
            "--out-dir", str(out),
        ]) == EXIT_EMPTY
        assert capsys.readouterr().err == (
            f"augment: corpus file {corpus} holds no usable reactions\n"
        )
        assert not out.exists()

    def test_corpus_rows_may_share_a_reaction_id(self, corpus_files, tmp_path):
        # ingest writes one row per product of a reaction, each under the
        # reaction's id, and augment reads that file back.
        _, _, _, templates = corpus_files
        reactions = tmp_path / "reactions.tsv"
        reactions.write_text("r1\t1.1.1.1\tOCCCO\tO=CCCO.O\n", encoding="utf-8")
        assert main([
            "ingest", "--reactions", str(reactions), "--out-dir", str(tmp_path / "in"),
        ]) == EXIT_OK
        corpus = tmp_path / "in" / "mono_reactions.tsv"
        ids = [line.split("\t")[0] for line in corpus.read_text().splitlines()[1:]]
        assert ids == ["r1", "r1"]
        assert main([
            "augment", "--corpus", str(corpus), "--templates", str(templates),
            "--out-dir", str(tmp_path / "out"),
        ]) == EXIT_OK

    def test_outputs_exist(self, staged):
        for name in (
            "onestep_train.tsv", "onestep_test.tsv",
            "twostep_train.tsv", "twostep_test.tsv", "augment_stats.json",
        ):
            assert (staged / "augment" / name).exists()

    def test_pathway_chains_survive_ingest(self, staged):
        # pathway reaction ids must join against the ingested mono corpus
        rows = [
            line
            for name in ("twostep_train.tsv", "twostep_test.tsv")
            for line in (staged / "augment" / name).read_text().splitlines()
            if line and not line.startswith("#")
        ]
        assert any(line.startswith("positive") for line in rows)
        assert any(line.startswith("negative") for line in rows)

    def test_neg_fraction_subsamples(self, corpus_files, staged, tmp_path):
        _, _, _, templates = corpus_files
        out = tmp_path / "sub"
        assert main([
            "augment",
            "--corpus", str(staged / "ingest" / "mono_reactions.tsv"),
            "--templates", str(templates),
            "--out-dir", str(out),
            "--seed", "7", "--neg-fraction", "0.3",
        ]) == EXIT_OK
        full = sum(
            1 for line in (staged / "augment" / "onestep_train.tsv").read_text().splitlines()
            if line.startswith("negative")
        ) + sum(
            1 for line in (staged / "augment" / "onestep_test.tsv").read_text().splitlines()
            if line.startswith("negative")
        )
        sub = sum(
            1 for name in ("onestep_train.tsv", "onestep_test.tsv")
            for line in (out / name).read_text().splitlines()
            if line.startswith("negative")
        )
        assert sub == round(0.3 * full)

    @pytest.mark.parametrize(
        "option",
        [
            "--neg-fraction=-0.5", "--neg-fraction=2", "--neg-fraction=nan",
            "--test-fraction=1.5", "--test-fraction=0",
            "--seed=-1", "--threads=0", "--threads=-3",
        ],
    )
    def test_bad_option_exits_1_before_work(
        self, corpus_files, staged, tmp_path, capsys, monkeypatch, option
    ):
        def refuse(*args, **kwargs):
            raise AssertionError("augmentation ran before the options were checked")

        monkeypatch.setattr(cli.ds, "augment_negatives", refuse)
        _, _, _, templates = corpus_files
        out = tmp_path / "out"
        assert main([
            "augment",
            "--corpus", str(staged / "ingest" / "mono_reactions.tsv"),
            "--templates", str(templates),
            "--out-dir", str(out), option,
        ]) == EXIT_INPUT
        assert option.split("=")[0] in capsys.readouterr().err
        assert not out.exists()


class TestTrain:
    @BAD_ROWS
    def test_bad_dataset_row_exits_1_naming_file_and_line(
        self, tmp_path, capsys, row
    ):
        data = tmp_path / "data.tsv"
        data.write_text(f"negative\tg\tCCO\tCC\t1\n{row}\n", encoding="utf-8")
        weights = tmp_path / "out.weights"
        assert main([
            "train", "--model", "nn1pr", "--data", str(data),
            "--out", str(weights), "--epochs", "1",
        ]) == EXIT_INPUT
        assert f"{data}:2: " in capsys.readouterr().err
        assert not weights.exists()

    @pytest.mark.parametrize("dropout", ["1.0", "-0.5"])
    def test_dropout_outside_unit_interval_exits_1(self, staged, tmp_path, dropout):
        # load_weights rejects such a file, so train must not write one
        weights = tmp_path / "out.weights"
        assert main([
            "train", "--model", "nn1pr",
            "--data", str(staged / "augment" / "onestep_train.tsv"),
            "--out", str(weights), "--epochs", "1", f"--dropout={dropout}",
        ]) == EXIT_INPUT
        assert not weights.exists()

    @pytest.mark.parametrize(
        "option",
        [
            "--pos-weight=nan", "--pos-weight=inf", "--pos-weight=-3", "--pos-weight=abc",
            "--epochs=-1", "--lr=nan", "--lr=inf", "--lr=0", "--batch=0",
            "--seed=-1", "--epochs=1.5",
        ],
    )
    def test_bad_option_exits_1_before_writing(self, staged, tmp_path, capsys, option):
        # eval and retro refuse a NaN weight file, dataset rows carry no
        # negative weight, a negative epoch count is no run at all, a
        # learning rate that is not positive and finite trains nothing useful,
        # a batch needs a row, and the generator takes no negative seed
        weights, history = tmp_path / "out.weights", tmp_path / "history.csv"
        assert main([
            "train", "--model", "nn1pr",
            "--data", str(staged / "augment" / "onestep_train.tsv"),
            "--out", str(weights), "--history", str(history), "--epochs", "1", option,
        ]) == EXIT_INPUT
        assert option.split("=")[0] in capsys.readouterr().err
        assert not weights.exists() and not history.exists()

    @pytest.mark.parametrize(
        "rows, message",
        [
            (
                "positive\tg\tCCO\tCC=O\t1\nnegative\tg\tCCO\tCC;CC\t1\n",
                "mixed one-step and two-step rows in one dataset",
            ),
            (
                "positive\tg\tCCO\tCC=O\t1\npositive\th\tCCCO\tCCC=O\t1\n",
                "training data needs both classes",
            ),
        ],
        ids=["mixed steps", "one class"],
    )
    def test_bad_dataset_exits_1_naming_file(self, tmp_path, capsys, rows, message):
        data = tmp_path / "data.tsv"
        data.write_text(rows, encoding="utf-8")
        weights = tmp_path / "out.weights"
        assert main([
            "train", "--model", "nn1pr", "--data", str(data),
            "--out", str(weights), "--epochs", "1",
        ]) == EXIT_INPUT
        assert capsys.readouterr().err == f"error: {data}: {message}\n"
        assert not weights.exists()

    def test_width_mismatch_exits_2(self, staged, capsys):
        data = staged / "augment" / "onestep_train.tsv"
        assert main([
            "train", "--model", "nn2pr", "--data", str(data),
            "--out", str(staged / "bad.weights"), "--epochs", "1",
        ]) == EXIT_EMPTY
        assert capsys.readouterr().err == (
            f"train: {data}: feature width 1024 does not match nn2pr input width 1536\n"
        )
        assert not (staged / "bad.weights").exists()

    def test_empty_dataset_exits_2(self, tmp_path, capsys):
        data = tmp_path / "data.tsv"
        data.write_text("# label\tgroup\ttarget\tprecursors\tweight\n", encoding="utf-8")
        weights = tmp_path / "out.weights"
        assert main([
            "train", "--model", "nn1pr", "--data", str(data), "--out", str(weights),
        ]) == EXIT_EMPTY
        assert capsys.readouterr().err == f"train: training data {data} holds no rows\n"
        assert not weights.exists()

    def test_diverged_training_exits_2_writing_nothing(self, tmp_path, capsys, monkeypatch):
        steps = []
        adam_step = retrobio.neural._adam_step

        def counting(param, grad, m, v, learning_rate, step, rows=None):
            steps.append(step)
            adam_step(param, grad, m, v, learning_rate, step, rows)

        monkeypatch.setattr(retrobio.neural, "_adam_step", counting)
        weights, history = tmp_path / "out.weights", tmp_path / "history.csv"
        assert main([
            "train", "--model", "nn1pr",
            "--data", str(GOLDEN / "augment" / "onestep_train.tsv"),
            "--out", str(weights), "--history", str(history),
            "--epochs", "30", "--lr", "1e38",
        ]) == EXIT_EMPTY
        assert capsys.readouterr().err == (
            "train: training diverged (a first-layer delta is not finite); "
            "try a lower --lr\n"
        )
        assert not weights.exists() and not history.exists()
        # The first update at this rate overflows the second step's forward
        # pass; training stops there, 29 epochs early.
        assert set(steps) == {1}

    def test_diverged_training_prints_one_stderr_line(self, staged, tmp_path):
        # In a process of its own, where numpy's overflow warnings would
        # reach stderr ahead of the error line.
        src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
        done = subprocess.run(
            [sys.executable, "-m", "retrobio.cli", "train", "--model", "nn1pr",
             "--data", str(staged / "augment" / "onestep_train.tsv"),
             "--out", str(tmp_path / "out.weights"), "--epochs", "3", "--lr", "1e38"],
            env=dict(os.environ, PYTHONPATH=src), capture_output=True, text=True,
            timeout=300,
        )
        assert done.returncode == EXIT_EMPTY
        assert done.stderr.startswith("train: training diverged")
        assert done.stderr.count("\n") == 1, done.stderr

    def test_history_has_one_row_per_epoch(self, staged):
        lines = (staged / "nn1_history.csv").read_text().splitlines()
        assert lines[0] == "epoch,loss,accuracy"
        assert len(lines) == 4  # header + 3 epochs

    def test_parameter_count_printed(self, staged, capsys):
        main([
            "train", "--model", "nn1pr",
            "--data", str(staged / "augment" / "onestep_train.tsv"),
            "--out", str(staged / "nn1_again.weights"),
            "--epochs", "0", "--seed", "7",
        ])
        assert "262657" in capsys.readouterr().out

    def test_seeded_training_reproducible(self, staged):
        out1 = staged / "repro1.weights"
        out2 = staged / "repro2.weights"
        for out in (out1, out2):
            assert main([
                "train", "--model", "nn1pr",
                "--data", str(staged / "augment" / "onestep_train.tsv"),
                "--out", str(out),
                "--epochs", "2", "--seed", "123", "--pos-weight", "auto",
            ]) == EXIT_OK
        assert out1.read_bytes() == out2.read_bytes()


class TestEval:
    def test_report_written(self, staged, tmp_path):
        report = tmp_path / "report.json"
        tsv = tmp_path / "report.tsv"
        assert main([
            "eval",
            "--weights", str(staged / "nn1.weights"),
            "--data", str(staged / "augment" / "onestep_test.tsv"),
            "--out", str(report), "--tsv", str(tsv),
        ]) == EXIT_OK
        payload = json.loads(report.read_text())
        names = {r["scorer"] for r in payload["reports"]}
        assert names == {"nn1pr", "baseline"}
        assert tsv.exists()

    def test_two_step_train_and_eval(self, staged, tmp_path):
        weights = tmp_path / "nn2.weights"
        assert main([
            "train", "--model", "nn2pr",
            "--data", str(staged / "augment" / "twostep_train.tsv"),
            "--out", str(weights),
            "--epochs", "2", "--seed", "7", "--pos-weight", "auto",
        ]) == EXIT_OK
        report = tmp_path / "report2.json"
        assert main([
            "eval",
            "--weights", str(weights),
            "--data", str(staged / "augment" / "twostep_test.tsv"),
            "--out", str(report),
        ]) == EXIT_OK
        payload = json.loads(report.read_text())
        assert {r["scorer"] for r in payload["reports"]} == {"nn2pr", "baseline"}


    @BAD_ROWS
    def test_bad_dataset_row_exits_1_naming_file_and_line(
        self, staged, tmp_path, capsys, row
    ):
        data = tmp_path / "data.tsv"
        data.write_text(f"negative\tg\tCCO\tCC\t1\n{row}\n", encoding="utf-8")
        report = tmp_path / "report.json"
        assert main([
            "eval", "--weights", str(staged / "nn1.weights"),
            "--data", str(data), "--out", str(report),
        ]) == EXIT_INPUT
        assert f"{data}:2: " in capsys.readouterr().err
        assert not report.exists()

    @pytest.mark.parametrize("model", ["nn1", "nn2", "nn1 mixed steps"])
    def test_bad_dataset_exits_1_naming_file(self, staged, tmp_path, capsys, model):
        data = tmp_path / "data.tsv"
        if model == "nn1":
            weights = staged / "nn1.weights"
            data.write_text(
                "positive\tg0\tCCO\tCC=O\t1\nnegative\tg1\tCCO\tCC\t1\n",
                encoding="utf-8",
            )
            message = "group 'g1' has no positive row"
        elif model == "nn1 mixed steps":
            # train refuses this file with the same message
            weights = staged / "nn1.weights"
            data.write_text(
                "positive\tg\tCCO\tCC=O\t1\nnegative\tg\tCCO\tCC;CC\t1\n",
                encoding="utf-8",
            )
            message = "mixed one-step and two-step rows in one dataset"
        else:
            weights = tmp_path / "nn2.weights"
            weights.write_bytes(
                save_weights(initialize(nn2pr_spec(), np.random.default_rng(0)))
            )
            data.write_text("positive\tg\tCCO\tCC=O\t1\n", encoding="utf-8")
            message = "nn2pr scores two-step rows only"
        report = tmp_path / "report.json"
        assert main([
            "eval", "--weights", str(weights), "--data", str(data), "--out", str(report),
        ]) == EXIT_INPUT
        assert capsys.readouterr().err == f"error: {data}: {message}\n"
        assert not report.exists()

    def test_overflowing_weights_exit_1_naming_file(self, staged, tmp_path, capsys):
        weights = tmp_path / "nn1.weights"
        weights.write_bytes(overflowing_weights(1024))
        report, tsv = tmp_path / "report.json", tmp_path / "report.tsv"
        assert main([
            "eval", "--weights", str(weights),
            "--data", str(staged / "augment" / "onestep_test.tsv"),
            "--out", str(report), "--tsv", str(tsv),
        ]) == EXIT_INPUT
        assert capsys.readouterr().err == (
            f"error: {weights}: the model scores a row NaN (its weights overflow float32)\n"
        )
        assert not report.exists() and not tsv.exists()

    def test_empty_dataset_exits_2(self, staged, tmp_path, capsys):
        data = tmp_path / "data.tsv"
        data.write_text("", encoding="utf-8")
        report = tmp_path / "report.json"
        assert main([
            "eval", "--weights", str(staged / "nn1.weights"),
            "--data", str(data), "--out", str(report),
        ]) == EXIT_EMPTY
        assert capsys.readouterr().err == f"eval: test data {data} holds no rows\n"
        assert not report.exists()


class TestRetro:
    def test_search_report(self, corpus_files, staged, tmp_path):
        _, _, _, templates = corpus_files
        stop = tmp_path / "stop.txt"
        stop.write_text("OC(=O)CCO\n", encoding="utf-8")
        gold = tmp_path / "gold.tsv"
        gold.write_text("OCCCO\tO=CCCO\nO=CCCO\tOC(=O)CCO\n", encoding="utf-8")
        report_path = tmp_path / "retro.json"
        assert main([
            "retro", "--target", "OCCCO",
            "--templates", str(templates),
            "--nn1", str(staged / "nn1.weights"),
            "--out", str(report_path),
            "--max-steps", "2", "--beam", "50",
            "--stop-set", str(stop), "--gold", str(gold),
            "--pathways-tsv", str(tmp_path / "paths.tsv"),
        ]) == EXIT_OK
        payload = json.loads(report_path.read_text())
        assert payload["gold_ranks"][0]["found"] is True
        assert payload["pathways"]
        assert (tmp_path / "paths.tsv").exists()

    @pytest.mark.parametrize("model", ["nn1", "nn2"])
    def test_overflowing_weights_exit_1_naming_file(
        self, corpus_files, staged, tmp_path, capsys, model
    ):
        _, _, _, templates = corpus_files
        good = {"nn1": (staged / "nn1.weights").read_bytes(),
                "nn2": save_weights(initialize(nn2pr_spec(), np.random.default_rng(0)))}
        weights = {name: tmp_path / f"{name}.weights" for name in good}
        for name, path in weights.items():
            path.write_bytes(
                overflowing_weights({"nn1": 1024, "nn2": 1536}[name]) if name == model
                else good[name]
            )
        report = tmp_path / "retro.json"
        assert main([
            "retro", "--target", "OCCCC(C)CCCC", "--templates", str(templates),
            "--nn1", str(weights["nn1"]), "--nn2", str(weights["nn2"]),
            "--max-steps", "2", "--out", str(report),
        ]) == EXIT_INPUT
        assert capsys.readouterr().err == (
            f"error: {weights[model]}: the model scores a row NaN "
            "(its weights overflow float32)\n"
        )
        assert not report.exists()

    def test_each_gold_molecule_is_parsed_once(
        self, corpus_files, staged, tmp_path, monkeypatch
    ):
        # Gold molecules not written canonically, none of them the target.
        _, _, _, templates = corpus_files
        gold = tmp_path / "gold.tsv"
        gold.write_text("C(O)CCCO\tC(=O)CCCO\nOCCCC=O\tC(CCCO)(=O)O\n", encoding="utf-8")
        parsed = Counter()

        def counting(text):
            parsed[text] += 1
            return parse_smiles(text)

        for module in list(sys.modules.values()):
            if module.__name__.startswith("retrobio.") and (
                vars(module).get("parse_smiles") is parse_smiles
            ):
                monkeypatch.setattr(module, "parse_smiles", counting)
        assert main([
            "retro", "--target", "OCCCO",
            "--templates", str(templates),
            "--nn1", str(staged / "nn1.weights"),
            "--out", str(tmp_path / "retro.json"),
            "--max-steps", "2", "--gold", str(gold),
        ]) == EXIT_OK
        assert parsed == Counter(["OCCCO", "C(O)CCCO", "C(=O)CCCO", "OCCCC=O", "C(CCCO)(=O)O"])

    def test_zero_templates_exits_2(self, staged, tmp_path, capsys):
        empty = tmp_path / "templates.tsv"
        empty.write_text("# template_id\tdirection\tdiameter\tec_numbers\tsmarts\n",
                         encoding="utf-8")
        assert main([
            "retro", "--target", "OCCCO", "--templates", str(empty),
            "--nn1", str(staged / "nn1.weights"), "--out", str(tmp_path / "r.json"),
        ]) == EXIT_EMPTY
        assert capsys.readouterr().err == f"retro: template file {empty} holds no templates\n"
        assert not (tmp_path / "r.json").exists()

    def test_unparsable_target_exits_1(self, corpus_files, staged, tmp_path):
        _, _, _, templates = corpus_files
        assert main([
            "retro", "--target", "C1CC",
            "--templates", str(templates),
            "--nn1", str(staged / "nn1.weights"),
            "--out", str(tmp_path / "r.json"),
        ]) == EXIT_INPUT

    def test_bad_stop_set_smiles_exits_1_naming_file_and_line(
        self, corpus_files, staged, tmp_path, capsys
    ):
        _, _, _, templates = corpus_files
        stop = tmp_path / "stop.txt"
        stop.write_text("# stop set\nOC(=O)CCO\nC((\n", encoding="utf-8")
        assert main([
            "retro", "--target", "OCCCO",
            "--templates", str(templates),
            "--nn1", str(staged / "nn1.weights"),
            "--out", str(tmp_path / "r.json"),
            "--stop-set", str(stop),
        ]) == EXIT_INPUT
        err = capsys.readouterr().err
        assert f"{stop}:3: " in err
        assert "internal error" not in err

    @pytest.mark.parametrize("precursors", ["O=CCCCCC(", "CC=O..O"])
    def test_bad_gold_smiles_exits_1_naming_file_and_line_before_search(
        self, corpus_files, staged, tmp_path, capsys, monkeypatch, precursors
    ):
        def refuse(*args, **kwargs):
            raise AssertionError("the search ran before the gold file was read")

        monkeypatch.setattr(retrobio.pipeline, "run_retro", refuse)
        _, _, _, templates = corpus_files
        gold = tmp_path / "g.tsv"
        gold.write_text(f"OCCCCCC\t{precursors}\n", encoding="utf-8")
        assert main([
            "retro", "--target", "OCCCO",
            "--templates", str(templates),
            "--nn1", str(staged / "nn1.weights"),
            "--out", str(tmp_path / "r.json"),
            "--gold", str(gold),
        ]) == EXIT_INPUT
        err = capsys.readouterr().err
        assert err.startswith(f"error: {gold}:1: ")
        assert not (tmp_path / "r.json").exists()

    @pytest.mark.parametrize("role", ["nn1", "nn2"])
    def test_weight_file_of_other_model_exits_1_naming_file(
        self, corpus_files, staged, tmp_path, capsys, role
    ):
        # The same file for both roles: its width is right for one of them.
        _, _, _, templates = corpus_files
        if role == "nn1":
            wrong = tmp_path / "nn2.weights"
            wrong.write_bytes(
                save_weights(initialize(nn2pr_spec(), np.random.default_rng(0)))
            )
            width, expected = 1536, 1024
        else:
            wrong = staged / "nn1.weights"
            width, expected = 1024, 1536
        assert main([
            "retro", "--target", "OCCCO",
            "--templates", str(templates),
            "--nn1", str(wrong), "--nn2", str(wrong),
            "--out", str(tmp_path / "r.json"),
        ]) == EXIT_INPUT
        assert (
            f"{wrong}: {role} weight file has input width {width}, "
            f"expected {expected}"
        ) in capsys.readouterr().err

    @pytest.mark.parametrize("role", ["nn1", "nn2", "eval"])
    def test_weight_file_with_two_outputs_exits_1_naming_file(
        self, corpus_files, staged, tmp_path, capsys, role
    ):
        _, _, _, templates = corpus_files
        wrong = two_output_weights(tmp_path / "two.weights", 1536 if role == "nn2" else 1024)
        if role == "eval":
            argv = [
                "eval", "--weights", str(wrong),
                "--data", str(staged / "augment" / "onestep_test.tsv"),
            ]
            what = "weight file"
        else:
            argv = [
                "retro", "--target", "OCCCO", "--templates", str(templates),
                "--nn1", str(staged / "nn1.weights"), f"--{role}", str(wrong),
            ]
            what = f"{role} weight file"
        assert main(argv + ["--out", str(tmp_path / "r.json")]) == EXIT_INPUT
        assert capsys.readouterr().err == (
            f"error: {wrong}: {what} has 2 outputs, expected 1\n"
        )
        assert not (tmp_path / "r.json").exists()

    @pytest.mark.parametrize(
        "option",
        [
            "--beam=0", "--max-steps=0", "--max-steps=-2", "--prune=nan",
            "--max-nodes=0", "--max-nodes=-1", "--threads=0", "--beam=ten",
        ],
    )
    def test_bad_search_option_exits_1_before_work(
        self, corpus_files, staged, tmp_path, capsys, monkeypatch, option
    ):
        def refuse(*args, **kwargs):
            raise AssertionError("templates were read before the options were checked")

        monkeypatch.setattr(cli, "load_templates", refuse)
        _, _, _, templates = corpus_files
        assert main([
            "retro", "--target", "OCCCO", "--templates", str(templates),
            "--nn1", str(staged / "nn1.weights"),
            "--out", str(tmp_path / "r.json"), option,
        ]) == EXIT_INPUT
        flag = option.split("=")[0]
        assert capsys.readouterr().err.startswith((f"error: {flag} must be", f"error: {flag}: "))

    def test_thread_count_invariant(self, corpus_files, staged, tmp_path):
        _, _, _, templates = corpus_files
        payloads = []
        for threads in ("1", "4"):
            path = tmp_path / f"retro{threads}.json"
            assert main([
                "retro", "--target", "OCCCO",
                "--templates", str(templates),
                "--nn1", str(staged / "nn1.weights"),
                "--out", str(path),
                "--max-steps", "2", "--threads", threads,
            ]) == EXIT_OK
            payloads.append(path.read_bytes())
        assert payloads[0] == payloads[1]

    def test_search_starts_no_thread_pool(
        self, corpus_files, staged, tmp_path, monkeypatch
    ):
        def refuse(self, *args, **kwargs):
            raise AssertionError("the search submitted work to a thread pool")

        monkeypatch.setattr(ThreadPoolExecutor, "submit", refuse)
        _, _, _, templates = corpus_files
        assert main([
            "retro", "--target", "OCCCO",
            "--templates", str(templates),
            "--nn1", str(staged / "nn1.weights"),
            "--out", str(tmp_path / "r.json"),
            "--max-steps", "2", "--threads", "4",
        ]) == EXIT_OK

    def test_empty_stop_set_exits_2_before_search(
        self, corpus_files, staged, tmp_path, capsys, monkeypatch
    ):
        def refuse(*args, **kwargs):
            raise AssertionError("the search ran without a stop set")

        monkeypatch.setattr(retrobio.pipeline, "run_retro", refuse)
        _, _, _, templates = corpus_files
        stop = tmp_path / "stop.txt"
        stop.write_text("# no SMILES here\n", encoding="utf-8")
        assert main([
            "retro", "--target", "OCCCO",
            "--templates", str(templates),
            "--nn1", str(staged / "nn1.weights"),
            "--out", str(tmp_path / "r.json"),
            "--stop-set", str(stop),
        ]) == EXIT_EMPTY
        assert capsys.readouterr().err == f"retro: stop-set file {stop} holds no SMILES\n"
        assert not (tmp_path / "r.json").exists()

    def test_stop_set_chain_longer_than_recursion_limit(
        self, corpus_files, staged, tmp_path, capsys
    ):
        _, _, _, templates = corpus_files
        stop = tmp_path / "stop.txt"
        stop.write_text("C" * 1100 + "\n", encoding="utf-8")
        assert main([
            "retro", "--target", "OCCCO",
            "--templates", str(templates),
            "--nn1", str(staged / "nn1.weights"),
            "--out", str(tmp_path / "r.json"),
            "--max-steps", "1",
            "--stop-set", str(stop),
        ]) == EXIT_OK, capsys.readouterr().err


    def test_template_chain_longer_than_recursion_limit(self, staged, tmp_path, capsys):
        # The matcher places one pattern atom per depth without a Python
        # frame per depth, so a 1000-atom template lhs matches.
        chain = "[C]" * 998
        templates = tmp_path / "templates.tsv"
        templates.write_text(
            f"T\tbwd\t0\t\t[C:1]{chain}[O:2]>>[C:1]{chain}[S:2]\n", encoding="utf-8"
        )
        report = tmp_path / "r.json"
        assert main([
            "retro", "--target", "C" * 999 + "O",
            "--templates", str(templates),
            "--nn1", str(staged / "nn1.weights"),
            "--out", str(report),
            "--max-steps", "1",
        ]) == EXIT_OK, capsys.readouterr().err
        (pathway,) = json.loads(report.read_text())["pathways"]
        assert pathway["steps"][0]["precursors"] == ["C" * 999 + "S"]


class TestOutputPaths:
    """Every output path is checked before any input is read, so a command
    that cannot write one of its outputs exits 1 and writes none."""

    @staticmethod
    def argv(command, staged, corpus_files, out, extra):
        data = staged / "augment" / "onestep_test.tsv"
        return {
            "train": ["train", "--model", "nn1pr", "--data", str(data), "--epochs", "1"],
            "eval": ["eval", "--weights", str(staged / "nn1.weights"), "--data", str(data)],
            "retro": ["retro", "--target", "OCCCO", "--templates", str(corpus_files[3]),
                      "--nn1", str(staged / "nn1.weights"), "--max-steps", "1"],
        }[command] + ["--out", str(out), *extra]

    @pytest.mark.parametrize("command, option", [
        ("train", "--history"), ("eval", "--tsv"), ("retro", "--pathways-tsv"),
    ])
    @pytest.mark.parametrize("fault", ["missing directory", "file as directory", "directory"])
    def test_second_output_unwritable_exits_1_writing_nothing(
        self, staged, corpus_files, tmp_path, capsys, command, option, fault
    ):
        (tmp_path / "file").touch()
        bad = {
            "missing directory": tmp_path / "missing" / "second",
            "file as directory": tmp_path / "file" / "second",
            "directory": tmp_path,
        }[fault]
        out = tmp_path / "first"
        assert main(self.argv(command, staged, corpus_files, out, [option, str(bad)])) == EXIT_INPUT
        err = capsys.readouterr().err
        assert err.startswith(f"error: {option}: cannot write {bad}: "), err
        assert not out.exists()
        assert sorted(p.name for p in tmp_path.iterdir()) == ["file"]

    @pytest.mark.parametrize("command, option", [
        ("train", "--history"), ("eval", "--tsv"), ("retro", "--pathways-tsv"),
    ])
    def test_two_outputs_naming_one_file_exit_1_writing_nothing(
        self, staged, corpus_files, tmp_path, capsys, monkeypatch, command, option
    ):
        def refuse(*args, **kwargs):
            raise AssertionError("an input was read before the output paths were checked")

        monkeypatch.setattr(cli, "load_templates", refuse)
        monkeypatch.setattr(cli.ds, "read_examples_tsv", refuse)
        monkeypatch.chdir(tmp_path)
        out = tmp_path / "out"
        argv = self.argv(command, staged, corpus_files, out, [option, "./out"])
        assert main(argv) == EXIT_INPUT
        assert capsys.readouterr().err == f"error: --out and {option} both name {out.resolve()}\n"
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("via", ["same path", "symlink"])
    @pytest.mark.parametrize("command, input_option, output_option", [
        ("train", "--data", "--out"), ("train", "--data", "--history"),
        ("eval", "--weights", "--out"), ("eval", "--data", "--tsv"),
        ("retro", "--templates", "--out"), ("retro", "--nn1", "--pathways-tsv"),
    ])
    def test_output_naming_an_input_exits_1_writing_nothing(
        self, staged, corpus_files, tmp_path, capsys, command, input_option, output_option, via
    ):
        argv = self.argv(command, staged, corpus_files, tmp_path / "out", [])
        at = argv.index(input_option) + 1
        original = Path(argv[at])
        copy = tmp_path / original.name
        shutil.copyfile(original, copy)
        argv[at] = str(copy)
        target = copy
        if via == "symlink":
            target = tmp_path / "link"
            target.symlink_to(copy)
        if output_option == "--out":
            argv[argv.index("--out") + 1] = str(target)
        else:
            argv += [output_option, str(target)]
        assert main(argv) == EXIT_INPUT
        assert capsys.readouterr().err == (
            f"error: {input_option} and {output_option} both name {copy.resolve()}\n"
        )
        assert copy.read_bytes() == original.read_bytes()
        assert sorted(tmp_path.iterdir()) == sorted({copy, target})

    @pytest.mark.parametrize("command, input_option, name", [
        ("ingest", "--reactions", "mono_reactions.tsv"),
        ("ingest", "--compounds", "corpus_stats.json"),
        ("augment", "--corpus", "onestep_test.tsv"),
        ("augment", "--templates", "augment_stats.json"),
        ("augment", "--pathways", "twostep_train.tsv"),
    ])
    def test_out_dir_file_naming_an_input_exits_1_writing_nothing(
        self, staged, corpus_files, tmp_path, capsys, command, input_option, name
    ):
        _, reactions, pathways, templates = corpus_files
        compounds = tmp_path / "compounds.tsv"
        compounds.write_text("# no compounds\n")
        out_dir = tmp_path / "out"
        out_dir.mkdir()
        options = {
            "ingest": {"--reactions": reactions, "--compounds": compounds},
            "augment": {"--corpus": staged / "ingest" / "mono_reactions.tsv",
                        "--templates": templates, "--pathways": pathways},
        }[command]
        original = options[input_option]
        options[input_option] = out_dir / name
        shutil.copyfile(original, out_dir / name)
        argv = [command, "--out-dir", str(out_dir)]
        argv += [str(part) for option in options.items() for part in option]
        assert main(argv) == EXIT_INPUT
        assert capsys.readouterr().err == (
            f"error: {input_option} and --out-dir both name {(out_dir / name).resolve()}\n"
        )
        assert (out_dir / name).read_bytes() == Path(original).read_bytes()
        assert [p.name for p in out_dir.iterdir()] == [name]

    def test_output_naming_the_config_file_exits_1_writing_nothing(
        self, staged, corpus_files, tmp_path, capsys
    ):
        config = tmp_path / "config.ini"
        config.write_text("[train]\nepochs = 1\n", encoding="utf-8")
        argv = self.argv("train", staged, corpus_files, config, [])
        assert main(["--config", str(config), *argv]) == EXIT_INPUT
        assert capsys.readouterr().err == (
            f"error: --config and --out both name {config.resolve()}\n"
        )
        assert config.read_text(encoding="utf-8") == "[train]\nepochs = 1\n"

    def test_out_dir_files_checked_are_the_files_written(self, staged):
        for command in ("ingest", "augment"):
            written = sorted(path.name for path in (staged / command).iterdir())
            assert written == sorted(cli._DIR_OUTPUTS[command])

    @pytest.mark.parametrize("command", ["train", "eval", "retro"])
    def test_out_in_missing_directory_exits_1_before_reading(
        self, staged, corpus_files, tmp_path, capsys, monkeypatch, command
    ):
        def refuse(*args, **kwargs):
            raise AssertionError("an input was read before the output paths were checked")

        monkeypatch.setattr(cli, "load_templates", refuse)
        monkeypatch.setattr(cli.ds, "read_examples_tsv", refuse)
        out = tmp_path / "missing" / "out"
        assert main(self.argv(command, staged, corpus_files, out, [])) == EXIT_INPUT
        assert capsys.readouterr().err == (
            f"error: --out: cannot write {out}: {out.parent} is not a directory\n"
        )

    @pytest.mark.parametrize("command", ["ingest", "augment"])
    @pytest.mark.parametrize("fault", ["file", "under a file"])
    def test_out_dir_not_a_directory_exits_1_before_reading(
        self, staged, corpus_files, tmp_path, capsys, monkeypatch, command, fault
    ):
        def refuse(*args, **kwargs):
            raise AssertionError("an input was read before the output paths were checked")

        monkeypatch.setattr(cli, "load_templates", refuse)
        for reader in ("read_reactions_tsv", "read_pathways_tsv"):
            monkeypatch.setattr(cli.ds, reader, refuse)
        _, reactions, pathways, templates = corpus_files
        file = tmp_path / "file"
        file.write_text("kept\n")
        out_dir = file if fault == "file" else file / "sub" / "out"
        argv = {
            "ingest": ["ingest", "--reactions", str(reactions)],
            "augment": ["augment", "--corpus", str(staged / "ingest" / "mono_reactions.tsv"),
                        "--templates", str(templates), "--pathways", str(pathways)],
        }[command]
        assert main([*argv, "--out-dir", str(out_dir)]) == EXIT_INPUT
        assert capsys.readouterr().err == (
            f"error: --out-dir: cannot write into {out_dir}: {file} is not a directory\n"
        )
        assert [p.name for p in tmp_path.iterdir()] == ["file"]
        assert file.read_text() == "kept\n"


class TestCommit:
    """A command writes each new or regular output to a staged file beside
    it, and renames them into place only once it has written them all: any
    other ending leaves every such output as it was and no staged file
    behind. Any other output is written in place."""

    @staticmethod
    def eval_argv(staged, out):
        return ["eval", "--weights", str(staged / "nn1.weights"),
                "--data", str(staged / "augment" / "onestep_test.tsv"), "--out", str(out)]

    @pytest.mark.parametrize("error", [
        lambda path: OSError(errno.ENOSPC, "No space left on device"),
        lambda path: OSError(errno.ENOSPC, "No space left on device", path),
        lambda path: KeyboardInterrupt(),
    ], ids=["no space", "no space naming the staged file", "interrupt"])
    def test_failed_history_write_leaves_no_output(
        self, staged, tmp_path, capsys, monkeypatch, error
    ):
        def fail(history, path):
            Path(path).write_text("epoch,loss,accuracy\n")
            raise error(path)

        monkeypatch.setattr(retrobio.neural.TrainingHistory, "save_csv", fail)
        argv = ["train", "--model", "nn1pr", "--epochs", "1",
                "--data", str(staged / "augment" / "onestep_test.tsv"),
                "--out", str(tmp_path / "w.nnpr"), "--history", str(tmp_path / "h.csv")]
        if isinstance(error(""), KeyboardInterrupt):
            with pytest.raises(KeyboardInterrupt):
                main(argv)
            assert capsys.readouterr() == ("", "")
        else:
            assert main(argv) == EXIT_INPUT
            named = f": '{tmp_path / 'h.csv'}'" if error("").filename is not None else ""
            assert capsys.readouterr() == (
                "", f"error: [Errno 28] No space left on device{named}\n"
            )
        assert list(tmp_path.iterdir()) == []

    def test_failed_write_keeps_every_previous_output(
        self, staged, corpus_files, tmp_path, capsys, monkeypatch
    ):
        _, _, pathways, templates = corpus_files
        out = tmp_path / "out"
        shutil.copytree(staged / "augment", out)
        before = {path.name: path.read_bytes() for path in out.iterdir()}
        write, calls = cli.ds.write_examples_tsv, []

        def fail_at_fourth_row(path, rows):  # of the one-step test set, written second
            calls.append(path)
            write(path, rows[:3] + [None] if len(calls) == 2 else rows)

        monkeypatch.setattr(cli.ds, "write_examples_tsv", fail_at_fourth_row)
        assert main([
            "augment", "--corpus", str(staged / "ingest" / "mono_reactions.tsv"),
            "--templates", str(templates), "--pathways", str(pathways),
            "--out-dir", str(out), "--seed", "3",
        ]) == EXIT_INTERNAL
        assert capsys.readouterr().err.startswith("internal error: ")
        assert {path.name: path.read_bytes() for path in out.iterdir()} == before

    def test_new_output_mode_follows_the_umask(self, staged, tmp_path):
        umask = os.umask(0o027)
        try:
            open(tmp_path / "plain", "w").close()
            assert main(self.eval_argv(staged, tmp_path / "report.json")) == EXIT_OK
        finally:
            os.umask(umask)
        modes = {stat.S_IMODE(path.stat().st_mode) for path in tmp_path.iterdir()}
        assert modes == {0o640}

    def test_output_through_a_link_rewrites_its_file(self, staged, tmp_path):
        (tmp_path / "real").mkdir()
        target = tmp_path / "real" / "report.json"
        target.write_text("old\n")
        link = tmp_path / "link.json"
        link.symlink_to(target)
        assert main(self.eval_argv(staged, link)) == EXIT_OK
        assert main(self.eval_argv(staged, tmp_path / "direct.json")) == EXIT_OK
        assert os.readlink(link) == str(target)
        assert target.read_bytes() == (tmp_path / "direct.json").read_bytes()
        assert sorted(path.name for path in tmp_path.rglob("*")) == [
            "direct.json", "link.json", "real", "report.json",
        ]

    def test_device_output_is_written_in_place(self, staged, monkeypatch):
        replace = os.replace

        def replace_but_devnull(source, target):  # so a fault cannot break the device
            assert os.path.realpath(target) != os.path.realpath(os.devnull)
            replace(source, target)

        monkeypatch.setattr(os, "replace", replace_but_devnull)
        assert main(self.eval_argv(staged, os.devnull)) == EXIT_OK
        assert stat.S_ISCHR(os.stat(os.devnull).st_mode)

    @pytest.mark.parametrize("barrier", ["directory not writable", "sticky directory"])
    def test_output_it_may_not_replace_is_written_in_place(
        self, staged, tmp_path, monkeypatch, barrier
    ):
        assert main(self.eval_argv(staged, tmp_path / "direct.json")) == EXIT_OK
        target = tmp_path / "report.json"
        target.write_text("old\n")
        inode = target.stat().st_ino
        if barrier == "directory not writable":
            monkeypatch.setattr(os, "access", lambda path, mode: False)
        else:  # the file and the directory belong to another user
            tmp_path.chmod(0o1777)
            monkeypatch.setattr(os, "geteuid", lambda: os.stat(tmp_path).st_uid + 1)
        assert main(self.eval_argv(staged, target)) == EXIT_OK
        assert target.stat().st_ino == inode
        assert target.read_bytes() == (tmp_path / "direct.json").read_bytes()
        assert sorted(path.name for path in tmp_path.iterdir()) == ["direct.json", "report.json"]

    def test_output_name_of_255_bytes(self, staged, tmp_path):
        assert main(self.eval_argv(staged, tmp_path / ("r" * 250 + ".json"))) == EXIT_OK
        assert [path.name for path in tmp_path.iterdir()] == ["r" * 250 + ".json"]


class TestConfigFile:
    def test_file_supplies_defaults_flags_override(self, corpus_files, tmp_path):
        _, reactions, _, _ = corpus_files
        config = tmp_path / "config.ini"
        out_from_file = tmp_path / "from_file"
        config.write_text(
            f"[ingest]\nreactions = {reactions}\nout-dir = {out_from_file}\n",
            encoding="utf-8",
        )
        assert main(["--config", str(config), "ingest"]) == EXIT_OK
        assert (out_from_file / "mono_reactions.tsv").exists()

        out_override = tmp_path / "override"
        assert main([
            "--config", str(config), "ingest", "--out-dir", str(out_override),
        ]) == EXIT_OK
        assert (out_override / "mono_reactions.tsv").exists()

    def test_default_keys_and_other_sections_are_not_checked(self, corpus_files, tmp_path):
        _, reactions, _, _ = corpus_files
        config = tmp_path / "config.ini"
        out = tmp_path / "out"
        config.write_text(
            "[DEFAULT]\nseed = 3\n[augment]\nthreads = 2\n"
            f"[ingest]\nreactions = {reactions}\nout-dir = {out}\n",
            encoding="utf-8",
        )
        assert main(["--config", str(config), "ingest"]) == EXIT_OK
        assert (out / "mono_reactions.tsv").exists()

    def test_missing_config_file(self, tmp_path):
        assert main([
            "--config", str(tmp_path / "nope.ini"), "ingest",
            "--reactions", "x", "--out-dir", "y",
        ]) == EXIT_INPUT

    def test_missing_required_option(self):
        assert main(["ingest"]) == EXIT_INPUT

    @pytest.mark.parametrize(
        "content,command,names",
        [
            (b"reactions = r.tsv\n", "ingest", ""),  # no section header
            (b"[ingest]\nreactions = a.tsv\nreactions = b.tsv\n", "ingest", ""),
            (b"[ingest]\nreactions = 100%\n", "ingest", ""),  # bad interpolation
            (b"[ingest]\nreactions = caf\xe9.tsv\n", "ingest", ""),  # not UTF-8
            (b"[retro]\nbeam = ten\n", "retro", "[retro] beam: "),
            (b"[retro]\nbeam = 0\n", "retro", "[retro] beam must be"),
            (b"[retro]\nbeem = 1\n", "retro", "[retro] beem: "),
            (b"[retor]\nbeam = 1\n", "retro", "unknown section [retor]"),
        ],
        ids=[
            "no-section", "duplicate-key", "percent", "not-utf8", "bad-value",
            "bad-range", "unknown-key", "unknown-section",
        ],
    )
    def test_malformed_config_exits_1_naming_file(
        self, tmp_path, capsys, content, command, names
    ):
        config = tmp_path / "config.ini"
        config.write_bytes(content)
        inputs = tmp_path / "t", tmp_path / "w"
        for path in inputs:
            path.touch()
        flags = {
            "ingest": ["--out-dir", "out"],
            "retro": ["--target", "CCO", "--templates", str(inputs[0]), "--nn1", str(inputs[1]),
                      "--out", "o"],
        }[command]
        assert main(["--config", str(config), command, *flags]) == EXIT_INPUT
        assert capsys.readouterr().err.startswith(f"error: {config}: {names}")


# One bad value for every option whose schema entry can refuse a value:
# a rule, or a converter other than str (which gives the text as it is).
MISSING = "no-such-directory/input"
BAD_VALUES = {
    ("ingest", "reactions"): MISSING,
    ("ingest", "compounds"): MISSING,
    ("ingest", "out-dir"): os.devnull,
    ("augment", "corpus"): MISSING,
    ("augment", "templates"): MISSING,
    ("augment", "pathways"): MISSING,
    ("augment", "out-dir"): os.path.join(os.devnull, "out"),
    ("augment", "seed"): "-1",
    ("augment", "neg-fraction"): "nan",
    ("augment", "test-fraction"): "1",
    ("augment", "threads"): "0",
    ("train", "model"): "nn3pr",
    ("train", "epochs"): "-1",
    ("train", "batch"): "0",
    ("train", "lr"): "-0.1",
    ("train", "dropout"): "1",
    ("train", "seed"): "-1",
    ("train", "pos-weight"): "-1",
    ("train", "data"): MISSING,
    ("train", "out"): ".",
    ("train", "history"): "no-such-directory/history.csv",
    ("eval", "weights"): MISSING,
    ("eval", "data"): MISSING,
    ("eval", "out"): "no-such-directory/report.json",
    ("eval", "tsv"): ".",
    ("retro", "templates"): MISSING,
    ("retro", "nn1"): MISSING,
    ("retro", "nn2"): MISSING,
    ("retro", "stop-set"): MISSING,
    ("retro", "gold"): MISSING,
    ("retro", "out"): ".",
    ("retro", "pathways-tsv"): "no-such-directory/pathways.tsv",
    ("retro", "max-steps"): "0",
    ("retro", "beam"): "0",
    ("retro", "prune"): "nan",
    ("retro", "max-nodes"): "0",
    ("retro", "threads"): "-5",
}

# Every path option a command requires: an empty value names no file.
REQUIRED_PATHS = sorted(
    (command, name)
    for command, options in cli._SCHEMA.items()
    for name, (kind, default, _, _) in options.items()
    if default is None and kind is not str
)


class TestOptions:
    def test_every_refusing_option_has_a_bad_value(self):
        assert set(BAD_VALUES) == {
            (command, name)
            for command, options in cli._SCHEMA.items()
            for name, (kind, _, _, valid) in options.items()
            if valid or kind is not str
        }

    @pytest.mark.parametrize("source", ["flag", "config"])
    @pytest.mark.parametrize("command, option", sorted(BAD_VALUES))
    def test_bad_value_exits_1_naming_it_before_reading_files(
        self, tmp_path, capsys, monkeypatch, command, option, source
    ):
        names, err = self.refused(
            tmp_path, capsys, monkeypatch, command, option, source, BAD_VALUES[command, option]
        )
        assert err.startswith((f"{names} must be ", f"{names}: ")), err

    @pytest.mark.parametrize("source", ["flag", "config"])
    @pytest.mark.parametrize("command, option", REQUIRED_PATHS)
    def test_empty_required_path_exits_1_naming_it_before_reading_files(
        self, tmp_path, capsys, monkeypatch, command, option, source
    ):
        names, err = self.refused(tmp_path, capsys, monkeypatch, command, option, source, "")
        assert err == f"{names}: a required option may not be empty\n"

    @staticmethod
    def refused(tmp_path, capsys, monkeypatch, command, option, source, bad):
        """(option as the error names it, stderr) of a run with every other
        required option given and ``option`` set to ``bad``, which must exit 1
        having read and written no file, the working directory included."""
        monkeypatch.chdir(tmp_path)

        def refuse(*args, **kwargs):
            raise AssertionError("a file was read before the options were checked")

        monkeypatch.setattr(cli, "load_templates", refuse)
        monkeypatch.setattr(retrobio.neural, "load_weights", refuse)
        for reader in ("read_stop_set", "read_gold_tsv"):
            monkeypatch.setattr(retrobio.pipeline, reader, refuse)
        for reader in (
            "read_reactions_tsv", "read_compounds_tsv",
            "read_pathways_tsv", "read_examples_tsv",
        ):
            monkeypatch.setattr(cli.ds, reader, refuse)
        argv = [command]
        for name, (kind, default, _, _) in cli._SCHEMA[command].items():
            if default is None and name != option:
                path = tmp_path / name
                if kind is cli._input_path:
                    path.touch()
                argv += [f"--{name}", {"model": "nn1pr", "target": "CCO"}.get(name, str(path))]
        if source == "flag":
            argv.append(f"--{option}={bad}")
            names = f"error: --{option}"
        else:
            config = tmp_path / "config.ini"
            config.write_text(f"[{command}]\n{option} = {bad}\n", encoding="utf-8")
            argv = ["--config", str(config), *argv]
            names = f"error: {config}: [{command}] {option}"
        before = sorted(tmp_path.iterdir())
        assert main(argv) == EXIT_INPUT
        assert sorted(tmp_path.iterdir()) == before
        assert all(path.stat().st_size == 0 for path in before if path.name != "config.ini")
        return names, capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv",
        [["retro", "--bogus", "1"], ["bogus"], [], ["--config"]],
        ids=["unknown-flag", "unknown-command", "no-command", "flag-without-value"],
    )
    def test_usage_error_exits_1_with_usage(self, capsys, argv):
        assert main(argv) == EXIT_INPUT
        assert capsys.readouterr().err.startswith("usage: retrobio")

    def test_help_exits_0_and_shows_each_rule(self, capsys):
        assert main(["retro", "--help"]) == EXIT_OK
        text = " ".join(capsys.readouterr().out.split())
        assert "beam width per level (default 10; at least 1)" in text
        assert "target SMILES --templates" in text  # required: no note
