"""The package's public names and what each command loads."""

import importlib
import json
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import pytest

import retrobio
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
        "evaluate_ranking", "rank_candidates", "score_baseline", "score_nn1", "score_nn2",
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


def modules_loaded_by(argv, directory):
    """The modules a fresh interpreter has loaded after running the command
    ``argv``, which must exit 0; this interpreter has loaded every module
    already."""
    tests = Path(__file__).resolve().parent
    env = dict(os.environ, PYTHONPATH=str(tests.parent / "src"))
    child = (
        "import sys\n"
        "import retrobio.cli\n"
        "code = retrobio.cli.main(sys.argv[2:])\n"
        "open(sys.argv[1], 'w').write('\\n'.join(sorted(sys.modules)))\n"
        "sys.exit(code)\n"
    )
    modules = directory / "modules.txt"
    done = subprocess.run(
        [sys.executable, "-c", child, str(modules), *map(str, argv)],
        env=env, capture_output=True, text=True, timeout=300,
    )
    assert done.returncode == 0, done.stderr
    return set(modules.read_text().split())


def test_augment_loads_no_numpy(tmp_path):
    reactions, pathways, templates = write_corpus_files(tmp_path / "corpus", max_length=5)
    loaded = modules_loaded_by(
        [
            "augment", "--corpus", reactions, "--templates", templates,
            "--pathways", pathways, "--out-dir", tmp_path / "out", "--threads", "2",
        ],
        tmp_path,
    )
    assert {"retrobio.cli", "retrobio.dataset", "retrobio.pattern"} <= loaded
    assert not NUMPY_BACKED & loaded
    assert (tmp_path / "out" / "onestep_train.tsv").is_file()


def test_ingest_of_word_sharing_products_loads_no_numpy(tmp_path):
    # Every product of the synthetic corpus shares an atom word with its
    # reactants, so no reaction needs a fingerprint.
    reactions, _, _ = write_corpus_files(tmp_path / "corpus", max_length=5)
    loaded = modules_loaded_by(
        ["ingest", "--reactions", reactions, "--out-dir", tmp_path / "out"], tmp_path
    )
    assert {"retrobio.cli", "retrobio.dataset", "retrobio.molgraph"} <= loaded
    assert not NUMPY_BACKED & loaded
    stats = json.loads((tmp_path / "out" / "corpus_stats.json").read_text())
    assert stats["disjoint_product_reactions"] == 0
    assert stats["mono_reactions"] > 0
