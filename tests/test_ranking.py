import random

import numpy as np
import pytest

from retrobio.dataset import DatasetRow
from retrobio.fingerprint import (
    Fingerprint,
    Fingerprinter,
    WidthMismatch,
    reaction_feature,
)
from retrobio.neural import (
    DenseLayer,
    MlpModel,
    forward,
    initialize,
    nn1pr_spec,
    nn2pr_spec,
)
from retrobio.ranking import (
    GroupWithoutPositive,
    evaluate_ranking,
    group_rows,
    rank_candidates,
    row_scorer,
    score_baseline,
    write_report_json,
    write_report_tsv,
)


def zero_model(spec):
    layers = tuple(
        DenseLayer(
            np.zeros((s.in_dim, s.out_dim), np.float32),
            np.zeros(s.out_dim, np.float32),
            s.activation,
        )
        for s in spec
    )
    return MlpModel(layers)


def row(label, group, target="CCO", steps="CC=O", weight=1.0):
    parsed = tuple(tuple(s.split(".")) for s in steps.split(";"))
    return DatasetRow(label, group, target, parsed, weight)


class TestScorers:
    def test_baseline_identity(self):
        fp = Fingerprinter().of_key("CCO")
        assert score_baseline(fp, [fp]) == 1.0

    def test_baseline_disjoint(self):
        assert score_baseline(Fingerprint(0b11, 512), [Fingerprint(0b1100, 512)]) == 0.0

    def test_baseline_hand_case(self):
        a = Fingerprint(0b1100, 512)
        b = Fingerprint(0b1010, 512)
        assert score_baseline(a, [b]) == pytest.approx(1 / 3)

    def test_zero_model_scores_half(self):
        fp = Fingerprinter()
        one = zero_model(nn1pr_spec())
        two = zero_model(nn2pr_spec())
        step1 = fp.features([(("CCO",), ("CC=O",))] * 2)
        step2 = fp.features([(("CCO",), ("CC=O",), ("CC",))])
        assert forward(one, step1).tolist() == [0.5, 0.5]
        assert forward(two, step2).tolist() == [0.5]

    def test_scoring_deterministic(self):
        fp = Fingerprinter()
        model = initialize(nn1pr_spec(), np.random.default_rng(0))
        features = fp.features([(("CCO",), ("CC=O",))])
        a = forward(model, features)
        b = forward(model, features)
        assert np.array_equal(a, b)

    def test_batch_scores_equal_features_scored_alone(self):
        fp = Fingerprinter()
        model = initialize(nn1pr_spec(), np.random.default_rng(2))
        keys = ["C" * n + "O" for n in range(1, 8)] + ["OCC(O)CO", "CC(=O)O"]
        rows = [((t,), (p,)) for t in keys for p in keys]
        batch = forward(model, fp.features(rows))
        assert len(batch) == len(rows) > 64
        assert np.array_equal(
            batch, np.concatenate([forward(model, fp.features([r])) for r in rows])
        )
        for (t,), (p,) in rows[:3]:
            feature = reaction_feature(fp.of_key(t), [fp.of_key(p)])
            packed = feature.bits.to_bytes(feature.width // 8, "little")
            assert np.array_equal(
                forward(model, fp.features([((t,), (p,))])),
                forward(model, np.frombuffer(packed, np.uint8)[None, :]),
            )

    def test_features_of_one_batch_share_a_width(self):
        fp = Fingerprinter()
        model = initialize(nn1pr_spec(), np.random.default_rng(0))
        with pytest.raises(WidthMismatch):
            forward(model, fp.features([(("CCO",), ("CC=O",)), (("CCO",), ("CC=O",), ("CC",))]))


def tied_by_name(scored):
    """(name, score) pairs as rank_candidates triples whose tie key is the name."""
    return [(name, score, (name,)) for name, score in scored]


class TestRankCandidates:
    def test_unique_scores_sort_position(self):
        ranked = rank_candidates(tied_by_name([("a", 0.2), ("b", 0.9), ("c", 0.5)]))
        assert ranked == ["b", "c", "a"]

    def test_ties_follow_canonical_key_order(self):
        ranked = rank_candidates(tied_by_name([("z", 0.5), ("a", 0.5), ("m", 0.5)]))
        assert ranked == ["a", "m", "z"]

    def test_ties_follow_the_given_key_not_the_candidate(self):
        ranked = rank_candidates([("a", 0.5, ("y",)), ("b", 0.5, ("x",)), ("c", 0.7, ("z",))])
        assert ranked == ["c", "b", "a"]

    def test_equal_score_and_key_keep_input_order(self):
        ranked = rank_candidates([("late", 0.5, ("k",)), ("early", 0.5, ("k",))])
        assert ranked == ["late", "early"]

    def test_input_order_never_matters(self):
        rng = random.Random(13)
        scored = tied_by_name((f"c{i}", rng.choice([0.1, 0.5, 0.9])) for i in range(30))
        reference = rank_candidates(scored)
        for _ in range(20):
            rng.shuffle(scored)
            assert rank_candidates(scored) == reference

    def test_score_rank_consistency(self):
        rng = random.Random(3)
        score_of = {f"c{i}": rng.random() for i in range(50)}
        ranked = rank_candidates(tied_by_name(score_of.items()))
        for a, b in zip(ranked, ranked[1:]):
            assert score_of[a] >= score_of[b]

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            rank_candidates([])


class TestEvaluate:
    def _units(self, n_groups=10, negatives=5):
        rows = []
        for g in range(n_groups):
            rows.append(row("positive", f"g{g}", steps="CC=O"))
            for i in range(negatives):
                rows.append(row("negative", f"g{g}", steps="C" * (i + 1)))
        return group_rows(rows)

    def test_perfect_scorer_coverage_one(self):
        units = self._units()
        report = evaluate_ranking(
            lambda rows: [1.0 if r.is_positive else 0.3 for r in rows], units
        )
        assert report.coverage.at(1) == 1.0
        assert all(r["rank"] == 1 for r in report.rows)

    def test_random_scorer_mean_rank(self):
        rng = random.Random(777)
        units = self._units(n_groups=300, negatives=99)
        report = evaluate_ranking(lambda rows: [rng.random() for _ in rows], units)
        mean_rank = sum(r["rank"] for r in report.rows) / len(report.rows)
        assert mean_rank == pytest.approx(50.5, abs=5.0)

    def test_coverage_monotone_and_bounded(self):
        rng = random.Random(5)
        report = evaluate_ranking(lambda rows: [rng.random() for _ in rows], self._units(50, 20))
        fractions = [f for _, f in report.coverage.points]
        assert fractions == sorted(fractions)
        assert fractions[-1] <= 1.0

    def test_positive_first_of_23(self):
        units = self._units(n_groups=1, negatives=22)
        report = evaluate_ranking(
            lambda rows: [0.99 if r.is_positive else 0.5 for r in rows], units
        )
        [entry] = report.rows
        assert entry["rank"] == 1 and entry["total"] == 23
        assert entry["rank_percent"] == pytest.approx(100 / 23)

    def test_ties_break_on_the_joined_step_keys(self):
        # As key tuples ("C", "O") < ("C#N",); as joined text "C#N" < "C.O".
        dotted, nitrile = (("C", "O"),), (("C#N",),)
        assert dotted < nitrile
        for positive, negative, rank in ((dotted, nitrile, 2), (nitrile, dotted, 1)):
            unit = (DatasetRow("positive", "g", "CCO", positive),
                    [DatasetRow("negative", "g", "CCO", negative)])
            report = evaluate_ranking(lambda rows: [0.5] * len(rows), [unit])
            assert report.rows[0]["rank"] == rank

    def test_group_without_positive(self):
        with pytest.raises(GroupWithoutPositive):
            group_rows([row("negative", "g0")])

    def test_two_positives_share_negatives(self):
        rows = [
            row("positive", "g", steps="CC=O"),
            row("positive", "g", steps="CC(=O)O"),
            row("negative", "g", steps="CCS"),
        ]
        units = group_rows(rows)
        assert len(units) == 2
        assert all(len(negs) == 1 for _, negs in units)

    def test_report_files(self, tmp_path):
        report = evaluate_ranking(
            lambda rows: [1.0 if r.is_positive else 0.0 for r in rows],
            self._units(3, 2),
            scorer_name="nn1pr",
        )
        tsv = tmp_path / "report.tsv"
        js = tmp_path / "report.json"
        write_report_tsv(tsv, report)
        write_report_json(js, [report])
        lines = [l for l in tsv.read_text().splitlines() if not l.startswith("#")]
        assert len(lines) == 3
        import json

        payload = json.loads(js.read_text())
        assert payload["schema_version"] == 1
        assert payload["reports"][0]["scorer"] == "nn1pr"
        assert payload["reports"][0]["coverage"][0] == [1, 1.0]


class TestRowScorer:
    def test_nn1_on_two_step_rows_ignores_target(self):
        fp = Fingerprinter()
        model = initialize(nn1pr_spec(), np.random.default_rng(1))
        scorer = row_scorer("nn1pr", fp, model)
        a, b = scorer([
            row("positive", "g", target="CCO", steps="CC=O;CC(=O)O"),
            row("positive", "g", target="CCCCCCCC", steps="CC=O;CC(=O)O"),
        ])
        assert a == b

    def test_nn2_requires_two_steps(self):
        fp = Fingerprinter()
        model = initialize(nn2pr_spec(), np.random.default_rng(1))
        scorer = row_scorer("nn2pr", fp, model)
        with pytest.raises(ValueError):
            scorer([row("positive", "g", steps="CC=O")])

    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            row_scorer("svm", Fingerprinter())

    def test_model_kinds_need_a_model(self):
        for kind in ("nn1pr", "nn2pr"):
            with pytest.raises(ValueError):
                row_scorer(kind, Fingerprinter())

    @pytest.mark.parametrize("kind", ["baseline", "nn1pr", "nn2pr"])
    def test_batch_equals_rows_scored_alone(self, kind):
        spec = nn2pr_spec() if kind == "nn2pr" else nn1pr_spec()
        model = initialize(spec, np.random.default_rng(4))
        scorer = row_scorer(kind, Fingerprinter(), model)
        steps = ["CC=O;CC(=O)O", "CCC=O;CCC(=O)O", "OCC=O;OCC(=O)O"]
        if kind != "nn2pr":
            steps += ["CC=O", "CCCC=O"]
        rows = [
            row(label, f"g{i}", target=target, steps=s)
            for i, target in enumerate(["CCO", "CCCO", "OCCO"] * 30)
            for label, s in (("positive", steps[i % len(steps)]),
                             ("negative", steps[(i + 1) % len(steps)]))
        ]
        batch = [float(s) for s in scorer(rows)]
        assert batch == [float(scorer([r])[0]) for r in rows]


class TestEvaluateScoresEachRowOnce:
    def test_negatives_shared_by_positives_are_scored_once(self):
        rows = [
            row("positive", "g", steps="CC=O"),
            row("positive", "g", steps="CC(=O)O"),
            row("negative", "g", steps="CCS"),
            row("negative", "g", steps="CCN"),
            row("positive", "h", steps="CCCC=O"),
            row("negative", "h", steps="CCS"),
        ]
        calls = []

        def scorer(batch):
            calls.append(list(batch))
            return [0.9 if r.is_positive else 0.1 for r in batch]

        report = evaluate_ranking(scorer, group_rows(rows))
        assert len(calls) == 1
        assert sorted(calls[0], key=repr) == sorted(rows, key=repr)
        assert [r["rank"] for r in report.rows] == [1, 1, 1]
        assert [r["total"] for r in report.rows] == [3, 3, 2]

    def test_model_report_equals_rows_scored_alone(self):
        fp = Fingerprinter()
        model = initialize(nn1pr_spec(), np.random.default_rng(5))
        rows = []
        for g in range(40):
            rows.append(row("positive", f"g{g}", steps="C" * (g % 7 + 1) + "=O"))
            rows.extend(
                row("negative", f"g{g}", steps="C" * (g % 5 + i + 1) + "O")
                for i in range(3)
            )
        scorer = row_scorer("nn1pr", fp, model)
        report = evaluate_ranking(scorer, group_rows(rows))
        alone = evaluate_ranking(
            lambda batch: [scorer([r])[0] for r in batch], group_rows(rows)
        )
        assert report.rows == alone.rows
