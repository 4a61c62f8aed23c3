from collections import Counter

import numpy as np
import pytest

import retrobio.pattern
import retrobio.pipeline
from retrobio.fingerprint import Fingerprinter, reaction_feature
from retrobio.molgraph import canonicalize, parse_smiles
from retrobio.neural import forward, initialize, nn1pr_spec, nn2pr_spec
from retrobio.pattern import enumerate_precursors, parse_smarts_template
from retrobio.pipeline import (
    NodeBudgetExceeded,
    SearchConfig,
    SearchNode,
    TargetParseError,
    expand_level,
    gold_step_ranks,
    parse_gold_step,
    rank_level,
    run_retro,
)
from make_golden import SEARCH_TARGET
from synthdata import make_templates, skeleton_smiles


@pytest.fixture(scope="module")
def models():
    rng = np.random.Generator(np.random.PCG64(42))
    return initialize(nn1pr_spec(), rng), initialize(nn2pr_spec(), rng)


@pytest.fixture(scope="module")
def diol_setup(models):
    """BDO-style fixture: alcohol -> aldehyde -> acid chain on a diol."""
    t01 = parse_smarts_template(
        "[C:1]([H])([H:2])[O:3][H]>>[C:1]([H:2])=[O:3]",
        template_id="T01", ec_numbers=("1.1.1.-",),
    )
    t02 = parse_smarts_template(
        "[C:1]([H])=[O:2]>>[C:1](=[O:2])[O][H]",
        template_id="T02", ec_numbers=("1.2.1.-",),
    )
    t03 = parse_smarts_template(
        "[C:1][O:2]>>[C:1][S:2]", template_id="T03", ec_numbers=("2.8.1.-",)
    )
    t05 = parse_smarts_template(
        "[C:1][H]>>[C:1]F", template_id="T05", ec_numbers=("1.14.1.-",)
    )
    return [t01, t02, t03, t05]


@pytest.mark.parametrize(
    "field, value",
    [
        ("max_steps", 0), ("beam_width", 0), ("beam_width", -1),
        ("max_nodes", 0), ("max_nodes", -1), ("prune_threshold", float("nan")),
    ],
)
def test_search_config_rejects_values_that_make_no_search(field, value):
    with pytest.raises(ValueError, match=field):
        SearchConfig(**{field: value})


def canon(smiles: str) -> str:
    return canonicalize(parse_smiles(smiles))


def root_node(smiles: str) -> SearchNode:
    key = canon(smiles)
    return SearchNode(key, (), 0, 1.0, None, molecule=parse_smiles(key))


class TestExpand:
    def test_no_matching_templates(self, models):
        nn1, _ = models
        t = parse_smarts_template("[N:1][N:2]>>[N:1].[N:2]", template_id="X")
        root = root_node("CCO")
        children, stats = expand_level(
            [root], [t], nn1, SearchConfig(), Fingerprinter(), 0
        )
        assert children == [] and stats["generated"] == 0

    def test_zero_threshold_keeps_everything(self, models, diol_setup):
        nn1, _ = models
        root = root_node("OCCCCO")
        config = SearchConfig(prune_threshold=0.0)
        children, stats = expand_level(
            [root], diol_setup, nn1, config, Fingerprinter(), 0
        )
        assert stats["pruned"] == 0
        assert len(children) == stats["generated"] - stats["cycle_dropped"]

    def test_impossible_threshold_prunes_everything(self, models, diol_setup):
        nn1, _ = models
        root = root_node("OCCCCO")
        config = SearchConfig(prune_threshold=1.0)  # scores are always < 1
        children, stats = expand_level(
            [root], diol_setup, nn1, config, Fingerprinter(), 0
        )
        assert children == []
        assert stats["pruned"] == stats["generated"] > 0

    def test_budget_exceeded(self, models, diol_setup):
        nn1, _ = models
        root = root_node("OCCCCO")
        config = SearchConfig(max_nodes=3)
        with pytest.raises(NodeBudgetExceeded):
            expand_level(
                [root], diol_setup, nn1, config, Fingerprinter(), 0
            )

    def test_cycle_guard(self, models):
        nn1, _ = models
        # identity-ish rewrite regenerating the same molecule gets dropped
        t = parse_smarts_template(
            "[C:1][O:2]>>[C:1][O:2]", template_id="ID"
        )
        root = root_node("CCO")
        children, stats = expand_level(
            [root], [t], nn1, SearchConfig(), Fingerprinter(), 0
        )
        assert children == []
        assert stats["cycle_dropped"] == 1

    def test_level_scores_equal_candidates_scored_alone(self, models, diol_setup):
        nn1, _ = models
        fp = Fingerprinter()
        config = SearchConfig()
        frontier, _ = expand_level(
            [root_node("OCC(O)CCO")], diol_setup, nn1, config, fp, 0
        )
        children, _ = expand_level(frontier, diol_setup, nn1, config, fp, 0)
        assert len(children) > 64
        for child in children:
            feature = reaction_feature(
                fp.of_key(child.parent.molecule_key), [fp.of_keys(child.precursor_keys)]
            )
            packed = feature.bits.to_bytes(feature.width // 8, "little")
            row = np.frombuffer(packed, np.uint8)[None, :]
            assert forward(nn1, row).tolist() == [child.step_score]


def node_fields(node: SearchNode) -> tuple:
    return (
        node.molecule_key, node.precursor_keys, node.depth, node.step_score,
        node.template_id, node.ec_numbers, node.nn2_score, node.molecule,
        node.parent.molecule_key,
    )


def fresh_memo_per_call(target, templates, keys_of=None):
    return enumerate_precursors(target, templates)


class TestLevelKeyMemo:
    """One canonical-key memo per level must give what one memo per
    frontier node gives."""

    @pytest.fixture(scope="class")
    def frontier(self, models):
        nn1, _ = models
        config = SearchConfig(max_steps=3)
        frontier, _ = expand_level(
            [root_node("OCC(O)CCO")], make_templates(), nn1, config, Fingerprinter(), 0
        )
        assert len(frontier) > 20
        return frontier

    def expand(self, frontier, nn1):
        scored = []

        def recording_forward(model, features):
            scored.extend(map(bytes, features))
            return forward(model, features)

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(retrobio.pipeline, "forward", recording_forward)
            children, stats = expand_level(
                frontier, make_templates(), nn1, SearchConfig(max_steps=3), Fingerprinter(), 0
            )
        return [node_fields(c) for c in children], stats, scored

    def test_shared_memo_equals_fresh_memo_per_call(self, models, frontier, monkeypatch):
        nn1, _ = models
        shared = self.expand(frontier, nn1)
        monkeypatch.setattr(retrobio.pipeline, "enumerate_precursors", fresh_memo_per_call)
        assert shared == self.expand(frontier, nn1)
        assert len(shared[0]) > 500

    def test_one_canonicalize_per_distinct_graph_per_level(self, models, frontier, monkeypatch):
        nn1, _ = models
        calls = Counter()

        def counting(mol):
            calls[mol.atoms, mol.bonds] += 1
            return canonicalize(mol)

        monkeypatch.setattr(retrobio.pattern, "canonicalize", counting)
        self.expand(frontier, nn1)
        assert calls and max(calls.values()) == 1
        shared = sum(calls.values())
        calls.clear()
        monkeypatch.setattr(retrobio.pipeline, "enumerate_precursors", fresh_memo_per_call)
        self.expand(frontier, nn1)
        # sibling nodes do rebuild the same graphs
        assert sum(calls.values()) > shared


class TestGoldReusesSearch:
    """Gold steps rank the candidate lists the search built for their
    products exactly as a fresh enumeration of each product ranks them."""

    GOLD = [
        parse_gold_step(product, precursors)
        for product, precursors in (
            ("C(O)CCCO", ("O=CCCCO",)),  # the target, not written canonically
            ("O=CCC[CH2:3]O", ("OC(=O)CCCO",)),  # a mapped level-1 product
            ("OCCO", ("O=CCO",)),  # never reached by the search
            ("OCCCC=O", ("OCCCC(=O)O",)),  # the aldehyde again
            ("OCCCCO", ("CCCC",)),  # a gold set no template makes
        )
    ]

    def test_equals_fresh_enumeration(self, models, diol_setup, monkeypatch):
        nn1, nn2 = models
        config = SearchConfig(max_steps=2, beam_width=10**6)
        fresh = gold_step_ranks(
            self.GOLD, diol_setup, nn1, Fingerprinter(), {}
        )
        assert [entry["found"] for entry in fresh] == [True, True, True, True, False]
        assert all(entry["total"] for entry in fresh)
        searched = []

        def counting(target, templates, keys_of=None):
            searched.append(canonicalize(target))
            return enumerate_precursors(target, templates, keys_of)

        monkeypatch.setattr(retrobio.pipeline, "enumerate_precursors", counting)
        plain = run_retro("OCCCCO", diol_setup, nn1, nn2, config)
        calls = len(searched)
        report = run_retro("OCCCCO", diol_setup, nn1, nn2, config, gold_steps=self.GOLD)
        assert report.gold_ranks == fresh
        # only the product the search never expanded is enumerated again
        assert searched[2 * calls:] == [canon("OCCO")]
        assert report.to_dict() | {"gold_ranks": []} == plain.to_dict()

    def test_budget_cut_search_still_ranks_every_step(self, models, diol_setup):
        nn1, nn2 = models
        config = SearchConfig(max_steps=2, beam_width=10**6, max_nodes=30)
        report = run_retro("OCCCCO", diol_setup, nn1, nn2, config, gold_steps=self.GOLD)
        assert report.budget_exceeded
        assert report.gold_ranks == gold_step_ranks(
            self.GOLD, diol_setup, nn1, Fingerprinter(), {}
        )


class TestRankLevel:
    def test_depth_one_uses_one_step_order(self, models, diol_setup):
        nn1, nn2 = models
        root = root_node("OCCCCO")
        children, _ = expand_level(
            [root], diol_setup, nn1, SearchConfig(), Fingerprinter(), 0
        )
        with_nn2 = rank_level(children, nn2, SearchConfig(beam_width=100), Fingerprinter())
        without = rank_level(children, None, SearchConfig(beam_width=100), Fingerprinter())
        assert [n.precursor_keys for n in with_nn2] == [
            n.precursor_keys for n in without
        ]

    def test_beam_width_bounds_survivors(self, models, diol_setup):
        nn1, _ = models
        root = root_node("OCCCCO")
        children, _ = expand_level(
            [root], diol_setup, nn1, SearchConfig(), Fingerprinter(), 0
        )
        assert len(rank_level(children, None, SearchConfig(beam_width=2), Fingerprinter())) == 2
        assert len(
            rank_level(children, None, SearchConfig(beam_width=999), Fingerprinter())
        ) == len(children)


class TestRunRetro:
    def test_target_parse_error(self, models, diol_setup):
        nn1, _ = models
        with pytest.raises(TargetParseError):
            run_retro("C1CC", diol_setup, nn1)

    def test_max_steps_one_is_single_level(self, models, diol_setup):
        nn1, _ = models
        report = run_retro(
            "OCCCCO", diol_setup, nn1,
            config=SearchConfig(max_steps=1, beam_width=100),
        )
        assert len(report.levels) == 1
        assert all(len(p.steps) == 1 for p in report.pathways)

    def test_planted_chain_recovered(self, models, diol_setup):
        nn1, nn2 = models
        acid = canon("OC(=O)CCCO")
        config = SearchConfig(
            max_steps=2, beam_width=100, prune_threshold=0.0,
            stop_set=frozenset({acid}),
        )
        report = run_retro("OCCCCO", diol_setup, nn1, nn2, config)
        planted = [
            (canon("OCCCCO"), (canon("O=CCCCO"),), "T01"),
            (canon("O=CCCCO"), (acid,), "T02"),
        ]
        found = [
            [(s.product_key, s.precursor_keys, s.template_id) for s in p.steps]
            for p in report.pathways
        ]
        assert planted in found

    def test_every_pathway_chain_valid_and_depth_bounded(self, models, diol_setup):
        nn1, nn2 = models
        config = SearchConfig(max_steps=3, beam_width=10)
        report = run_retro("OCCCCO", diol_setup, nn1, nn2, config)
        assert report.pathways
        for p in report.pathways:
            assert p.chain_is_valid()
            assert 1 <= len(p.steps) <= 3

    def test_no_repeated_molecule_on_any_path(self, models, diol_setup):
        nn1, _ = models
        report = run_retro(
            "OCCCCO", diol_setup, nn1,
            config=SearchConfig(max_steps=3, beam_width=20),
        )
        for p in report.pathways:
            seen = [p.steps[0].product_key] + [
                s.product_key for s in p.steps[1:]
            ]
            assert len(seen) == len(set(seen))

    def test_two_planted_chains_both_found(self, models):
        # two independent decompositions planted via dedicated templates
        ta = parse_smarts_template(
            "[C:1]([H])([H:2])[O:3][H]>>[C:1]([H:2])=[O:3]",
            template_id="TA", ec_numbers=("1.1.1.-",),
        )
        tb = parse_smarts_template(
            "[O:1][H]>>[Cl:1]", template_id="TB", ec_numbers=("3.8.1.-",)
        )
        nn1, _ = models
        stop = frozenset({canon("O=CCCO"), canon("ClCCCO")})
        report = run_retro(
            "OCCCO", [ta, tb], nn1,
            config=SearchConfig(max_steps=1, beam_width=100, stop_set=stop),
        )
        found_keys = {p.steps[-1].precursor_keys for p in report.pathways}
        assert (canon("O=CCCO"),) in found_keys
        assert (canon("ClCCCO"),) in found_keys
        ranks = [p.aggregate_rank for p in report.pathways]
        assert ranks == sorted(ranks)

    def test_candidate_sets_invariant_under_nn2(self, models, diol_setup):
        nn1, nn2 = models
        config = SearchConfig(max_steps=2, beam_width=10**6, prune_threshold=0.0)
        one = run_retro("OCCCCO", diol_setup, nn1, None, config)
        two = run_retro("OCCCCO", diol_setup, nn1, nn2, config)

        def keys(report):
            return {
                (p.steps[-1].product_key, p.steps[-1].precursor_keys)
                for p in report.pathways
            }

        assert keys(one) == keys(two)

    def test_deterministic_across_runs_and_workers(self, models, diol_setup):
        nn1, nn2 = models
        config = SearchConfig(max_steps=2, beam_width=15)
        reports = [
            run_retro("OCCCCO", diol_setup, nn1, nn2, config)
            for _ in range(3)
        ]
        dicts = [r.to_dict() for r in reports]
        assert dicts[0] == dicts[1] == dicts[2]

    def test_search_parses_only_the_target(self, models, diol_setup, monkeypatch):
        # Candidates carry their graphs: neither the expansion nor the
        # fingerprint cache parses a key the rewrite already built. The
        # target and each gold molecule are parsed once; the target's graph,
        # map indices dropped, searches as its unmapped key would.
        import retrobio.fingerprint
        import retrobio.pipeline

        nn1, nn2 = models
        config = SearchConfig(max_steps=3, beam_width=10**6)
        gold = [parse_gold_step("OCC(O)CCO", ["O=CC(O)CCO"])]
        unmapped = run_retro("[H]OCC(O)CCO", diol_setup, nn1, nn2, config, gold_steps=gold)
        parsed = []

        def counting_parse(text):
            parsed.append(text)
            return parse_smiles(text)

        monkeypatch.setattr(retrobio.pipeline, "parse_smiles", counting_parse)
        monkeypatch.setattr(retrobio.fingerprint, "parse_smiles", counting_parse)
        gold = [parse_gold_step("OCC(O)CCO", ["O=CC(O)CCO"])]
        report = run_retro("[H:1]OCC(O)CCO", diol_setup, nn1, nn2, config, gold_steps=gold)
        assert sum(level["generated"] for level in report.levels) > 100
        assert parsed == ["OCC(O)CCO", "O=CC(O)CCO", "[H:1]OCC(O)CCO"]
        assert report.to_dict() == unmapped.to_dict()

    def test_only_expandable_nodes_hold_graphs(self, models, diol_setup):
        nn1, _ = models
        config = SearchConfig(max_steps=2)
        children, _ = expand_level(
            [root_node("OCCCCO")], diol_setup, nn1, config, Fingerprinter(), 0
        )
        assert children
        for child in children:
            assert canonicalize(child.molecule) == child.molecule_key
        leaves, _ = expand_level(
            children[:1], diol_setup, nn1, config, Fingerprinter(), 0
        )
        assert leaves and all(leaf.molecule is None for leaf in leaves)

    def test_budget_flagged_not_raised(self, models, diol_setup):
        nn1, _ = models
        config = SearchConfig(max_steps=3, beam_width=50, max_nodes=5)
        report = run_retro("OCCCCO", diol_setup, nn1, config=config)
        assert report.budget_exceeded

    def test_gold_rank_annotation(self, models, diol_setup):
        nn1, _ = models
        gold = [parse_gold_step("OCCCCO", ["O=CCCCO"]), parse_gold_step("O=CCCCO", ["OC(=O)CCCO"])]
        report = run_retro(
            "OCCCCO", diol_setup, nn1,
            config=SearchConfig(max_steps=1), gold_steps=gold,
        )
        assert len(report.gold_ranks) == 2
        for entry in report.gold_ranks:
            assert entry["found"] is True
            assert 1 <= entry["rank"] <= entry["total"]
        assert report.gold_ranks[0]["ec_numbers"] == ["1.1.1.-"]

    def test_report_json_schema(self, models, diol_setup, tmp_path):
        nn1, _ = models
        report = run_retro(
            "OCCCCO", diol_setup, nn1, config=SearchConfig(max_steps=1)
        )
        path = tmp_path / "report.json"
        report.save_json(path)
        import json

        payload = json.loads(path.read_text())
        assert payload["schema_version"] == 1
        assert payload["config"]["max_steps"] == 1
        assert isinstance(payload["levels"], list)
        assert isinstance(payload["pathways"], list)


class TestOnePathwayPerLeaf:
    """With no stop set, every survivor at max_steps gives one pathway and
    no two pathways share their steps: a node's candidates are merged by
    precursor keys, so equal steps from the root name one search node."""

    @pytest.mark.parametrize(
        "target, with_nn2",
        [(SEARCH_TARGET, False), (skeleton_smiles(5)[-1], True)],
        ids=["search_levels", "synthdata-nn2"],
    )
    def test_one_pathway_per_survivor(self, models, target, with_nn2):
        nn1, nn2 = models
        config = SearchConfig(max_steps=2, beam_width=10**9, prune_threshold=0.0)
        report = run_retro(target, make_templates(), nn1, nn2 if with_nn2 else None, config)
        assert report.levels[-1]["depth"] == config.max_steps
        assert len(report.pathways) == report.levels[-1]["kept"] > 0
        steps = {tuple((s.product_key, s.precursor_keys) for s in p.steps) for p in report.pathways}
        assert len(steps) == len(report.pathways)


class TestSearchWorkCounts:
    """The work of the 2-step, unbounded-beam search that
    ``tests/golden/search_levels.tsv`` records, counted per level. A speed-up
    of matching or rewriting must leave these totals as they are: a lower
    figure means it pruned work, which needs its own proof of equal output."""

    # per level: matches find_matches returned, match sites rewritten,
    # apply_template outcomes, canonicalize calls
    LEVELS = [(167, 66, 58, 71), (8000, 3320, 2902, 1893)]

    def test_per_level_totals(self, models, monkeypatch):
        nn1, _ = models
        counts = Counter()

        def counted(name, size):
            fn = getattr(retrobio.pattern, name)

            def wrapper(*args, **kwargs):
                result = fn(*args, **kwargs)
                counts[name] += size(result)
                return result

            monkeypatch.setattr(retrobio.pattern, name, wrapper)

        counted("find_matches", len)
        counted("_rewrite", lambda _: 1)
        counted("apply_template", len)
        counted("canonicalize", lambda _: 1)
        config = SearchConfig(max_steps=2, beam_width=10**9, prune_threshold=0.0)
        fingerprinter = Fingerprinter()
        frontier, nodes_made, levels = [root_node("OCCCC(C)CCCC")], 0, []
        for _ in range(config.max_steps):
            counts.clear()
            children, stats = expand_level(
                frontier, make_templates(), nn1, config, fingerprinter, nodes_made
            )
            nodes_made += stats["generated"]
            frontier = rank_level(children, None, config, fingerprinter)
            levels.append(tuple(counts[name] for name in (
                "find_matches", "_rewrite", "apply_template", "canonicalize"
            )))
        assert levels == self.LEVELS
