"""
Candidate scoring, deterministic ranking and coverage evaluation.

Three scorers rank precursor candidates for a target: the Tanimoto
baseline (similarity of the target to the OR-combined precursor block),
the one-step neural ranker on the 1024-bit pair row, and the two-step
neural ranker on the 1536-bit chain row. A neural score is
``neural.forward`` over the packed rows of ``Fingerprinter.features``; the
baseline reads molecule fingerprints from the memo. Ranks are 1-based and
contiguous; ties break on the canonical precursor key so shuffling the
input never changes an assigned rank.

Evaluation follows the rank-among-negatives protocol: each positive is
mixed with the negatives of its group, every candidate is scored, and the
positive's rank feeds the coverage curve (fraction of positives ranked
within top-k) and the rank histograms.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field

from .dataset import DatasetRow
from .fingerprint import Fingerprint, Fingerprinter, combine_fingerprints, tanimoto
from .neural import MlpModel, forward
from .tsv import write_json, write_tsv

__all__ = [
    "RankedCandidate",
    "CoverageCurve",
    "EvaluationReport",
    "GroupWithoutPositive",
    "score_baseline",
    "rank_candidates",
    "group_rows",
    "evaluate_ranking",
    "row_scorer",
    "write_report_tsv",
    "write_report_json",
    "DEFAULT_COVERAGE_KS",
]

DEFAULT_COVERAGE_KS = (1, 5, 10, 50, 100, 1000)


class GroupWithoutPositive(ValueError):
    pass


def score_baseline(
    target: Fingerprint, precursors: list[Fingerprint]
) -> float:
    """Tanimoto similarity between target and the combined precursor block."""
    return tanimoto(target, combine_fingerprints(precursors))


def _tie_key(candidate) -> tuple:
    """Deterministic tie-break key: the canonical precursor identity."""
    if isinstance(candidate, str):
        return (candidate,)
    if isinstance(candidate, DatasetRow):
        return tuple(".".join(step) for step in candidate.steps)
    return tuple(candidate.precursor_keys)


@dataclass(frozen=True)
class RankedCandidate:
    candidate: object
    score: float
    rank: int  # 1-based, contiguous
    rank_percent: float  # 100 * rank / total


def rank_candidates(scored: list[tuple[object, float]]) -> list[RankedCandidate]:
    """Sort by score descending, ties by canonical key ascending."""
    if not scored:
        raise ValueError("cannot rank an empty candidate list")
    ordered = sorted(scored, key=lambda cs: (-cs[1], _tie_key(cs[0])))
    total = len(ordered)
    return [
        RankedCandidate(cand, score, i + 1, 100.0 * (i + 1) / total)
        for i, (cand, score) in enumerate(ordered)
    ]


@dataclass(frozen=True)
class CoverageCurve:
    points: tuple[tuple[int, float], ...]  # (k, fraction of positives <= k)

    def at(self, k: int) -> float:
        for kk, fraction in self.points:
            if kk == k:
                return fraction
        raise KeyError(k)


@dataclass
class EvaluationReport:
    scorer_name: str
    rows: list[dict] = field(default_factory=list)  # per evaluation unit
    coverage: CoverageCurve | None = None
    rank_histogram: dict[int, int] = field(default_factory=dict)
    percent_histogram: dict[int, int] = field(default_factory=dict)

    def to_dict(self) -> dict:
        return {
            "scorer": self.scorer_name,
            "units": len(self.rows),
            "coverage": [list(p) for p in self.coverage.points],
            "rank_histogram": {
                str(k): v for k, v in sorted(self.rank_histogram.items())
            },
            "percent_histogram": {
                str(k): v for k, v in sorted(self.percent_histogram.items())
            },
        }


def group_rows(rows: list[DatasetRow]) -> list[tuple[DatasetRow, list[DatasetRow]]]:
    """Evaluation units: one per positive, sharing its group's negatives.

    Raises GroupWithoutPositive when a group key has no positive row.
    """
    by_group: dict[str, list[DatasetRow]] = {}
    for row in rows:
        by_group.setdefault(row.group_key, []).append(row)
    units = []
    for key in sorted(by_group):
        members = by_group[key]
        positives = [r for r in members if r.is_positive]
        negatives = [r for r in members if not r.is_positive]
        if not positives:
            raise GroupWithoutPositive(f"group {key!r} has no positive row")
        for pos in positives:
            units.append((pos, negatives))
    return units


def row_scorer(kind: str, fp: Fingerprinter, model: MlpModel | None = None):
    """Batch scorer over DatasetRows for 'baseline', 'nn1pr' or 'nn2pr': it
    maps a list of rows to their scores, in order, after fingerprinting
    the rows' molecules in one batch with ``fp``.

    On two-step rows the baseline compares the target with both steps'
    precursors combined, and the one-step model scores the most recent step
    (the [step1 || step2] pair), using no information about the target.
    """
    if kind == "baseline":
        def baseline(rows: list[DatasetRow]) -> list[float]:
            fp.memoize((key, None) for row in rows for key in row.molecule_keys)
            return [score_baseline(fp.of_key(r.target_key), [fp.of_keys(r.molecule_keys[1:])])
                    for r in rows]

        return baseline
    if kind not in ("nn1pr", "nn2pr"):
        raise ValueError(f"unknown scorer kind {kind!r}")
    if model is None:
        raise ValueError(f"{kind} scorer needs a model")

    def feature_row(row: DatasetRow) -> tuple:
        if kind == "nn2pr" and len(row.steps) != 2:
            raise ValueError("nn2pr scores two-step rows only")
        if kind == "nn1pr" and len(row.steps) != 1:
            return row.steps
        return ((row.target_key,), *row.steps)

    return lambda rows: forward(model, fp.features([feature_row(row) for row in rows]))


def evaluate_ranking(
    scorer,
    units: list[tuple[DatasetRow, list[DatasetRow]]],
    scorer_name: str = "scorer",
) -> EvaluationReport:
    """Rank each positive among its negatives and summarize coverage at
    each k of DEFAULT_COVERAGE_KS.

    ``scorer`` maps a list of rows to their scores; it gets every distinct
    row of the units once, in one call.
    """
    report = EvaluationReport(scorer_name=scorer_name)
    distinct = list(dict.fromkeys(r for pos, negs in units for r in (pos, *negs)))
    score_of = dict(zip(distinct, [float(s) for s in scorer(distinct)]))
    for positive, negatives in units:
        ranked = rank_candidates([(r, score_of[r]) for r in (positive, *negatives)])
        entry = next(rc for rc in ranked if rc.candidate is positive)
        report.rows.append({
            "group_key": positive.group_key, "rank": entry.rank, "total": len(ranked),
            "rank_percent": entry.rank_percent, "score": entry.score,
        })
    ranks = [row["rank"] for row in report.rows]
    n = len(ranks)
    report.coverage = CoverageCurve(
        tuple((k, sum(1 for r in ranks if r <= k) / n) for k in DEFAULT_COVERAGE_KS)
    )
    report.rank_histogram = dict(Counter(ranks))
    report.percent_histogram = dict(
        Counter(min(int(row["rank_percent"]), 100) for row in report.rows)
    )
    return report


def write_report_tsv(path, report: EvaluationReport) -> None:
    write_tsv(
        path,
        ("group_key", "rank", "total", "rank_percent", "score"),
        (
            (
                row["group_key"],
                str(row["rank"]),
                str(row["total"]),
                f"{row['rank_percent']:.4f}",
                f"{row['score']:.6f}",
            )
            for row in report.rows
        ),
    )


def write_report_json(path, reports: list[EvaluationReport]) -> None:
    payload = {
        "schema_version": 1,
        "reports": [r.to_dict() for r in reports],
    }
    write_json(path, payload)
