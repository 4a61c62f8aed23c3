"""Acceptance suite: one test per release criterion.

Each test prints one `[acceptance] PASS/FAIL` line (visible with -s) and
enforces the criterion's tolerance and runtime budget. Run with:

    pytest tests/test_acceptance.py -v -s
"""

import random
import time
from contextlib import contextmanager

import numpy as np

from retrobio import dataset as ds
from retrobio.cli import EXIT_OK, main
from retrobio.fingerprint import (
    Fingerprint,
    Fingerprinter,
    reaction_feature,
    tanimoto,
    tversky,
)
from retrobio.molgraph import add_explicit_hydrogens, canonicalize, parse_smiles
from retrobio.neural import (
    LayerSpec,
    RELU,
    SIGMOID,
    TrainConfig,
    gradient_check,
    initialize,
    nn1pr_spec,
    nn2pr_spec,
    train,
)
from retrobio.pattern import find_matches, parse_smarts_template
from retrobio.pipeline import SearchConfig, run_retro
from retrobio.ranking import evaluate_ranking, group_rows, row_scorer

from synthdata import write_corpus_files
from test_pattern import (
    LOOSE_SMARTS,
    PRODUCT_FIXTURE,
    TIGHT_SMARTS,
    brute_force_matches,
    random_molecule,
    random_pattern,
)


@contextmanager
def criterion(number: int, description: str, budget_seconds: float):
    start = time.monotonic()
    try:
        yield
    except Exception:
        print(f"[acceptance] FAIL {number:2d}: {description}")
        raise
    elapsed = time.monotonic() - start
    print(f"[acceptance] PASS {number:2d}: {description} ({elapsed:.1f}s)")
    assert elapsed < budget_seconds, (
        f"criterion {number} exceeded its {budget_seconds:.0f}s budget"
    )


def test_criterion_01_parameter_counts():
    with criterion(1, "model parameter counts 262657 / 852737", 1.0):
        rng = np.random.default_rng(0)
        one = initialize(nn1pr_spec(), rng)
        two = initialize(nn2pr_spec(), rng)
        assert one.parameter_count == 262657
        assert [l.parameter_count for l in one.layers] == [262400, 257]
        assert two.parameter_count == 852737
        assert [l.parameter_count for l in two.layers] == [786944, 65664, 129]


def test_criterion_02_feature_widths():
    with criterion(2, "reaction feature widths 1024 / 1536", 1.0):
        fp = Fingerprinter()
        block = fp.of_key("CCO")
        assert reaction_feature(block, [block]).width == 1024
        assert reaction_feature(block, [block, block]).width == 1536


def test_criterion_03_similarity_math():
    with criterion(3, "tanimoto hand cases; tversky(1,1) == tanimoto", 5.0):
        nonzero = Fingerprint(0b1011, 512)
        assert tanimoto(nonzero, nonzero) == 1.0
        assert tanimoto(Fingerprint(0b1100, 512), Fingerprint(0b0011, 512)) == 0.0
        assert abs(
            tanimoto(Fingerprint(0b1100, 512), Fingerprint(0b1010, 512)) - 1 / 3
        ) < 1e-12
        rng = random.Random(42)
        for _ in range(10_000):
            a = Fingerprint(rng.getrandbits(64), 64)
            b = Fingerprint(rng.getrandbits(64), 64)
            assert abs(tversky(a, b, 1, 1) - tanimoto(a, b)) < 1e-12


def test_criterion_04_matcher_oracle_equivalence():
    with criterion(4, "matcher equals brute force on 200 random pairs", 30.0):
        rng = random.Random(20240417)
        for _ in range(200):
            target = random_molecule(rng, max_atoms=10)
            pattern = random_pattern(rng, max_atoms=4)
            assert find_matches(pattern, target) == brute_force_matches(
                pattern, target
            )


def test_criterion_05_template_specificity():
    with criterion(5, "template specificity 15 / 2 outcomes, 48 raw matches", 5.0):
        from retrobio.pattern import apply_template

        loose = parse_smarts_template(LOOSE_SMARTS, template_id="loose")
        tight = parse_smarts_template(TIGHT_SMARTS, template_id="tight")
        target = parse_smiles(PRODUCT_FIXTURE)
        assert len(loose.mapping) == 4
        assert len(tight.mapping) == 11
        assert len(apply_template(loose, target)) == 15
        assert len(apply_template(tight, target)) == 2
        raw = find_matches(tight.lhs, add_explicit_hydrogens(target))
        assert len(raw) == 48


def test_criterion_06_gradient_correctness():
    with criterion(6, "analytic vs finite-difference gradients, 50 models", 30.0):
        from retrobio.neural import DenseLayer, MlpModel

        shapes = [
            (LayerSpec(4, 3, RELU), LayerSpec(3, 1, SIGMOID)),
            (LayerSpec(5, 2, RELU), LayerSpec(2, 1, SIGMOID)),
            (LayerSpec(3, 3, RELU), LayerSpec(3, 2, RELU), LayerSpec(2, 1, SIGMOID)),
        ]
        rng = np.random.default_rng(6)

        def random_model(spec):
            # random biases keep pre-activations off the relu kink, where
            # two-sided differences are ill-defined
            return MlpModel(
                tuple(
                    DenseLayer(
                        rng.normal(size=(s.in_dim, s.out_dim)).astype(np.float32),
                        rng.normal(size=s.out_dim).astype(np.float32),
                        s.activation,
                    )
                    for s in spec
                )
            )

        for trial in range(50):
            spec = shapes[trial % len(shapes)]
            model = random_model(spec)
            assert model.parameter_count <= 64
            report = gradient_check(
                model, rng.normal(size=spec[0].in_dim), trial % 2,
                tolerance=1e-4,
            )
            assert report.max_relative_error <= 1e-4


def _featurized(examples):
    import os
    import tempfile

    handle, path = tempfile.mkstemp(suffix=".tsv")
    os.close(handle)
    try:
        ds.write_examples_tsv(path, examples)
        rows = ds.read_examples_tsv(path)
    finally:
        os.unlink(path)
    return rows


def test_criterion_07_toy_end_to_end_learning(synth_corpus, synth_negatives):
    with criterion(
        7,
        "NN1PR beats Tanimoto and NN2PR >= NN1PR on held-out data, 4/5 seeds",
        600.0,
    ):
        _, _, positives, chains = synth_corpus
        negatives, _ = synth_negatives
        assert len(positives) >= 50
        rows_one = _featurized(positives + negatives)
        negatives_by_product: dict[str, list[tuple[str, ...]]] = {}
        for neg in negatives:
            negatives_by_product.setdefault(neg.product_key, []).append(
                neg.reactant_keys
            )
        chain_negatives = ds.make_pathway_pairs(chains, negatives_by_product)
        rows_two = _featurized(chains + chain_negatives)
        x1, y1, w1 = ds.features_for(rows_one)
        x2, y2, w2 = ds.features_for(rows_two)
        fingerprinter = Fingerprinter()

        def split_indices(rows, seed):
            train_rows, test_rows = ds.split_train_test(rows, 0.15, seed)
            index = {id(r): i for i, r in enumerate(rows)}
            return (
                [index[id(r)] for r in train_rows],
                test_rows,
            )

        nn1_wins = 0
        nn2_wins = 0
        for seed in range(5):
            train_idx, test_rows = split_indices(rows_one, seed)
            ratio = float((len(train_idx) - y1[train_idx].sum()) / y1[train_idx].sum())
            model1, _ = train(
                nn1pr_spec(), x1[train_idx], y1[train_idx],
                TrainConfig(epochs=30, seed=seed, positive_weight=ratio),
                w1[train_idx],
            )
            units = group_rows(test_rows)
            nn1_cov = evaluate_ranking(
                row_scorer("nn1pr", fingerprinter, model1), units
            ).coverage.at(10)
            base_cov = evaluate_ranking(
                row_scorer("baseline", fingerprinter), units
            ).coverage.at(10)
            if nn1_cov > base_cov:
                nn1_wins += 1

            chain_train_idx, chain_test_rows = split_indices(rows_two, seed)
            ratio2 = float(
                (len(chain_train_idx) - y2[chain_train_idx].sum())
                / y2[chain_train_idx].sum()
            )
            model2, _ = train(
                nn2pr_spec(), x2[chain_train_idx], y2[chain_train_idx],
                TrainConfig(epochs=30, seed=seed, positive_weight=ratio2),
                w2[chain_train_idx],
            )
            chain_units = group_rows(chain_test_rows)
            nn2_cov = evaluate_ranking(
                row_scorer("nn2pr", fingerprinter, model2), chain_units
            ).coverage.at(10)
            nn1_chain_cov = evaluate_ranking(
                row_scorer("nn1pr", fingerprinter, model1), chain_units
            ).coverage.at(10)
            if nn2_cov >= nn1_chain_cov:
                nn2_wins += 1
        assert nn1_wins >= 4, f"NN1PR beat the baseline in only {nn1_wins}/5 seeds"
        assert nn2_wins >= 4, f"NN2PR matched NN1PR in only {nn2_wins}/5 seeds"


def test_criterion_08_planted_pathway_recovery(synth_corpus):
    with criterion(8, "planted 3-step chain recovered with valid invariants", 60.0):
        _, templates, _, _ = synth_corpus
        rng = np.random.default_rng(1234)
        nn1 = initialize(nn1pr_spec(), rng)
        nn2 = initialize(nn2pr_spec(), rng)
        # planted chain on 1,4-butanediol:
        # diol -> hydroxy-aldehyde -> hydroxy-acid -> oxo-acid
        diol = canonicalize(parse_smiles("OCCCCO"))
        hydroxy_aldehyde = canonicalize(parse_smiles("O=CCCCO"))
        hydroxy_acid = canonicalize(parse_smiles("OC(=O)CCCO"))
        oxo_acid = canonicalize(parse_smiles("O=CCCC(=O)O"))
        config = SearchConfig(
            max_steps=3,
            beam_width=10_000,
            prune_threshold=0.0,
            stop_set=frozenset({oxo_acid}),
            max_nodes=10**9,
        )
        report = run_retro("OCCCCO", templates, nn1, nn2, config)
        gold = [
            (diol, (hydroxy_aldehyde,), "T01"),
            (hydroxy_aldehyde, (hydroxy_acid,), "T02"),
            (hydroxy_acid, (oxo_acid,), "T01"),
        ]
        found = [
            [(s.product_key, s.precursor_keys, s.template_id) for s in p.steps]
            for p in report.pathways
        ]
        assert gold in found, "gold pathway missing from reconstruction"
        for pathway in report.pathways:
            assert pathway.chain_is_valid()
            assert 1 <= len(pathway.steps) <= config.max_steps


def test_criterion_09_candidate_set_invariance(synth_corpus):
    with criterion(9, "NN1-only and NN1+NN2 generate identical candidate sets", 60.0):
        _, templates, _, _ = synth_corpus
        rng = np.random.default_rng(77)
        nn1 = initialize(nn1pr_spec(), rng)
        nn2 = initialize(nn2pr_spec(), rng)
        config = SearchConfig(
            max_steps=2, beam_width=10**6, prune_threshold=0.0, max_nodes=10**9
        )
        without = run_retro("OCCCC(C)CO", templates, nn1, None, config)
        with_nn2 = run_retro("OCCCC(C)CO", templates, nn1, nn2, config)

        def candidate_sets(report):
            return {
                (p.steps[-1].product_key, p.steps[-1].precursor_keys)
                for p in report.pathways
            }

        assert candidate_sets(without) == candidate_sets(with_nn2)
        assert [lvl["generated"] for lvl in without.levels] == [
            lvl["generated"] for lvl in with_nn2.levels
        ]


def test_criterion_10_determinism_suite(tmp_path):
    with criterion(
        10, "ingest/augment/train/retro byte-identical across runs and threads", 600.0
    ):
        corpus_dir = tmp_path / "corpus"
        reactions, pathways, templates = write_corpus_files(corpus_dir, max_length=5)

        def run_stack(tag: str, threads: str) -> dict[str, bytes]:
            work = tmp_path / tag
            assert main([
                "ingest", "--reactions", str(reactions),
                "--out-dir", str(work / "ingest"),
            ]) == EXIT_OK
            assert main([
                "augment",
                "--corpus", str(work / "ingest" / "mono_reactions.tsv"),
                "--templates", str(templates),
                "--pathways", str(pathways),
                "--out-dir", str(work / "augment"),
                "--seed", "11", "--threads", threads,
            ]) == EXIT_OK
            assert main([
                "train", "--model", "nn1pr",
                "--data", str(work / "augment" / "onestep_train.tsv"),
                "--out", str(work / "nn1.weights"),
                "--history", str(work / "history.csv"),
                "--epochs", "3", "--seed", "11", "--pos-weight", "auto",
            ]) == EXIT_OK
            assert main([
                "retro", "--target", "OCCCCO",
                "--templates", str(templates),
                "--nn1", str(work / "nn1.weights"),
                "--out", str(work / "retro.json"),
                "--max-steps", "2", "--beam", "25", "--threads", threads,
            ]) == EXIT_OK
            outputs = {}
            for rel in (
                "ingest/mono_reactions.tsv",
                "ingest/corpus_stats.json",
                "augment/onestep_train.tsv",
                "augment/onestep_test.tsv",
                "augment/twostep_train.tsv",
                "augment/twostep_test.tsv",
                "augment/augment_stats.json",
                "nn1.weights",
                "history.csv",
                "retro.json",
            ):
                outputs[rel] = (work / rel).read_bytes()
            return outputs

        first = run_stack("run1_t1", "1")
        second = run_stack("run2_t1", "1")
        threaded = run_stack("run3_t4", "4")
        for rel in first:
            assert first[rel] == second[rel], f"{rel} differs between runs"
            assert first[rel] == threaded[rel], f"{rel} differs across threads"
