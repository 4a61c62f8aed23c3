"""The package's public names and what each command loads."""

import importlib
import json
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import retrobio
import retrobio.cli
from synthdata import write_corpus_files

# Every name ``retrobio`` exports, by the module that defines it.
EXPORTS = {
    "molgraph": (
        "Atom", "Bond", "MolecularGraph", "add_explicit_hydrogens", "canonicalize",
        "parse_smiles", "remove_explicit_hydrogens", "write_smiles",
    ),
    "pattern": (
        "CandidatePrecursor", "ReactionTemplate", "apply_template", "enumerate_precursors",
        "find_matches", "load_templates", "parse_smarts", "parse_smarts_template",
    ),
    "fingerprint": (
        "Fingerprint", "Fingerprinter", "ReactionFeature", "molecule_fingerprints",
        "reaction_feature", "tanimoto", "tversky",
    ),
    "neural": (
        "MlpModel", "TrainConfig", "forward", "gradient_check", "load_weights",
        "nn1pr_spec", "nn2pr_spec", "save_weights", "train",
    ),
    "ranking": (
        "evaluate_ranking", "rank_candidates", "score_baseline",
    ),
    "pipeline": ("Pathway", "SearchConfig", "SearchNode", "run_retro"),
}
NAMES = [(module, name) for module, names in EXPORTS.items() for name in names]


class TestExports:
    @pytest.mark.parametrize("module, name", NAMES)
    def test_name_is_the_defining_modules_object(self, module, name):
        defined = getattr(importlib.import_module(f"retrobio.{module}"), name)
        assert getattr(retrobio, name) is defined
        assert name in dir(retrobio)
        namespace = {}
        exec(f"from retrobio import {name}", namespace)
        assert namespace[name] is defined

    def test_all_lists_every_export(self):
        assert sorted(retrobio.__all__) == sorted(name for _, name in NAMES)

    @pytest.mark.parametrize(
        "module", sorted(info.name for info in pkgutil.iter_modules(retrobio.__path__))
    )
    def test_module_all_lists_only_names_it_defines(self, module):
        namespace = importlib.import_module(f"retrobio.{module}")
        for name in getattr(namespace, "__all__", ()):
            assert name in vars(namespace), f"retrobio.{module} has no {name!r}"
            defined_in = getattr(vars(namespace)[name], "__module__", namespace.__name__)
            assert defined_in == namespace.__name__, f"{name!r} comes from {defined_in}"

    def test_unknown_name_raises_attribute_error(self):
        with pytest.raises(AttributeError, match="no_such_name"):
            retrobio.no_such_name
        assert not hasattr(retrobio, "no_such_name")
        assert retrobio.__version__ == "0.1.0"


def test_cli_holds_no_file_format():
    # Each format lives with its records; cli only wires options to them.
    import retrobio.cli

    for name in ("read_tsv", "write_tsv", "parse_smiles", "canonicalize"):
        assert name not in vars(retrobio.cli), name


NUMPY_BACKED = {
    "numpy", "retrobio.fingerprint", "retrobio.neural", "retrobio.ranking",
    "retrobio.pipeline",
}


def fresh_run(argv, directory, **environ):
    """Run the command ``argv`` in a fresh interpreter, which must exit 0,
    with ``environ`` added to this process's environment less any
    OPENBLAS_THREAD_TIMEOUT. Give the modules it has loaded after the
    command and the OPENBLAS_THREAD_TIMEOUT it held when numpy was first
    imported, or None if numpy never was; this interpreter has loaded every
    module already."""
    tests = Path(__file__).resolve().parent
    env = dict(os.environ, PYTHONPATH=str(tests.parent / "src"), **environ)
    if "OPENBLAS_THREAD_TIMEOUT" not in environ:
        env.pop("OPENBLAS_THREAD_TIMEOUT", None)
    child = (
        "import json, os, sys\n"
        "seen = []\n"
        "class NumpySpy:\n"
        "    def find_spec(self, name, path=None, target=None):\n"
        "        if name == 'numpy' and not seen:\n"
        "            seen.append(os.environ.get('OPENBLAS_THREAD_TIMEOUT'))\n"
        "sys.meta_path.insert(0, NumpySpy())\n"
        "import retrobio.cli\n"
        "code = retrobio.cli.main(sys.argv[2:])\n"
        "modules = sorted(sys.modules)\n"
        "open(sys.argv[1], 'w').write(json.dumps([modules, seen]))\n"
        "sys.exit(code)\n"
    )
    result = directory / "fresh_run.json"
    done = subprocess.run(
        [sys.executable, "-c", child, str(result), *map(str, argv)],
        env=env, capture_output=True, text=True, timeout=300,
    )
    assert done.returncode == 0, done.stderr
    modules, seen = json.loads(result.read_text())
    return set(modules), (seen[0] if seen else None)


def test_augment_loads_no_numpy(tmp_path):
    reactions, pathways, templates = write_corpus_files(tmp_path / "corpus", max_length=5)
    loaded, timeout = fresh_run(
        [
            "augment", "--corpus", reactions, "--templates", templates,
            "--pathways", pathways, "--out-dir", tmp_path / "out", "--threads", "2",
        ],
        tmp_path,
    )
    assert {"retrobio.cli", "retrobio.dataset", "retrobio.pattern"} <= loaded
    assert not NUMPY_BACKED & loaded
    assert timeout is None  # numpy's import was never tried
    assert (tmp_path / "out" / "onestep_train.tsv").is_file()


def test_ingest_of_word_sharing_products_loads_no_numpy(tmp_path):
    # Every product of the synthetic corpus shares an atom word with its
    # reactants, so no reaction needs a fingerprint.
    reactions, _, _ = write_corpus_files(tmp_path / "corpus", max_length=5)
    loaded, timeout = fresh_run(
        ["ingest", "--reactions", reactions, "--out-dir", tmp_path / "out"], tmp_path
    )
    assert {"retrobio.cli", "retrobio.dataset", "retrobio.molgraph"} <= loaded
    assert not NUMPY_BACKED & loaded
    assert timeout is None
    stats = json.loads((tmp_path / "out" / "corpus_stats.json").read_text())
    assert stats["disjoint_product_reactions"] == 0
    assert stats["mono_reactions"] > 0


GOLDEN_AUGMENT = Path(__file__).resolve().parent / "golden" / "augment"


class TestBlasWorkerTimeout:
    """``cli.main`` shortens the OpenBLAS worker's busy-wait before a command
    loads numpy, unless the caller chose a value or numpy is loaded already."""

    @staticmethod
    def argv(command, directory):
        from retrobio.neural import initialize, nn1pr_spec, save_weights

        data = GOLDEN_AUGMENT / "onestep_test.tsv"
        if command == "train":
            return ["train", "--model", "nn1pr", "--epochs", "1", "--data", data,
                    "--out", directory / "out"]
        weights = directory / "nn1.weights"
        weights.write_bytes(save_weights(initialize(nn1pr_spec(), np.random.default_rng(0))))
        if command == "eval":
            return ["eval", "--weights", weights, "--data", data, "--out", directory / "out"]
        _, _, templates = write_corpus_files(directory / "corpus", max_length=5)
        return ["retro", "--target", "OCCCO", "--templates", templates, "--nn1", weights,
                "--max-steps", "1", "--out", directory / "out"]

    @pytest.mark.parametrize("command", ["train", "eval", "retro"])
    def test_numpy_loads_with_the_default(self, tmp_path, command):
        loaded, timeout = fresh_run(self.argv(command, tmp_path), tmp_path)
        assert "numpy" in loaded
        assert timeout == "23"

    def test_exported_value_is_kept(self, tmp_path):
        argv = self.argv("train", tmp_path)
        assert fresh_run(argv, tmp_path, OPENBLAS_THREAD_TIMEOUT="28")[1] == "28"

    def test_caller_that_loaded_numpy_keeps_its_environment(self, monkeypatch):
        monkeypatch.delenv("OPENBLAS_THREAD_TIMEOUT", raising=False)
        assert "numpy" in sys.modules
        retrobio.cli.main(["ingest"])  # exits 1: no --reactions
        assert "OPENBLAS_THREAD_TIMEOUT" not in os.environ

    def test_timeout_changes_no_bits(self, tmp_path):
        written = {}
        for timeout in ("4", "30"):
            out = tmp_path / timeout
            out.mkdir()
            runs = (
                ["train", "--model", "nn1pr", "--epochs", "3", "--data",
                 GOLDEN_AUGMENT / "onestep_train.tsv", "--out", out / "nn1.weights",
                 "--history", out / "history.csv"],
                ["eval", "--weights", out / "nn1.weights", "--data",
                 GOLDEN_AUGMENT / "onestep_test.tsv", "--out", out / "report.json",
                 "--tsv", out / "ranks.tsv"],
            )
            for argv in runs:
                _, seen = fresh_run(
                    argv, out, OPENBLAS_NUM_THREADS="2", OPENBLAS_THREAD_TIMEOUT=timeout
                )
                assert seen == timeout
            written[timeout] = {
                name: (out / name).read_bytes()
                for name in ("nn1.weights", "history.csv", "report.json", "ranks.tsv")
            }
        assert written["4"] == written["30"]
