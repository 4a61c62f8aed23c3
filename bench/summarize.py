"""Turn span files into the per-layer table.

    python3 bench/summarize.py SPANS_JSON...

prints every per-layer metric, summed over the given files, one
``name value unit`` line each.

A span's self time is its duration minus the union of its children's
intervals on the same thread. Children on other threads (the pool threads of
a fan-out) keep the fan-out call as their parent but do not reduce its self
time, so per thread the self times add up to the busy time.
"""

from __future__ import annotations

import json
import sys
from collections import defaultdict
from dataclasses import dataclass


@dataclass(frozen=True)
class Span:
    id: int
    name: str
    start: float
    end: float
    parent: int | None
    thread: int
    op: int
    counts: dict | None

    @property
    def duration(self) -> float:
        return self.end - self.start


def load(path) -> tuple[dict, list[Span]]:
    """(header, spans) of one span file written by `Tracer.dump`."""
    with open(path, encoding="utf-8") as fh:
        data = json.load(fh)
    spans = [Span(*record) for record in data.pop("spans")]
    return data, spans


def self_times(spans: list[Span]) -> dict[tuple[int, int], float]:
    """Self time of each span, keyed by (operation, span id)."""
    children = defaultdict(list)
    for s in spans:
        if s.parent is not None:
            children[(s.op, s.parent)].append(s)
    out = {}
    for s in spans:
        intervals = sorted(
            (max(c.start, s.start), min(c.end, s.end))
            for c in children.get((s.op, s.id), ())
            if c.thread == s.thread
        )
        covered = 0.0
        run_start = run_end = None
        for a, b in intervals:
            if b <= a:
                continue
            if run_end is None or a > run_end:
                if run_end is not None:
                    covered += run_end - run_start
                run_start, run_end = a, b
            else:
                run_end = max(run_end, b)
        if run_end is not None:
            covered += run_end - run_start
        out[(s.op, s.id)] = s.duration - covered
    return out


# (span name, stats reported for it). Stats: calls, s (total duration),
# self_s, repeat_ratio (calls / distinct inputs per operation), hit_ratio,
# outcome_ratio, rows_per_call, or a count summed from the spans.
LAYER_STATS = (
    ("molgraph.parse_smiles", ("calls", "self_s", "repeat_ratio")),
    ("molgraph.canonicalize", ("calls", "self_s")),
    ("molgraph.add_explicit_hydrogens", ("calls", "self_s")),
    ("molgraph.remove_explicit_hydrogens", ("calls", "self_s")),
    ("pattern.find_matches", ("calls", "self_s", "matches")),
    ("pattern.apply_template", ("calls", "self_s", "outcomes", "outcome_ratio")),
    ("pattern.enumerate_precursors", ("calls", "self_s", "candidates", "repeat_ratio")),
    ("fingerprint.molecule_fingerprint", ("calls", "self_s")),
    ("fingerprint.of_key", ("calls", "hit_ratio")),
    ("fingerprint.to_array", ("calls", "self_s")),
    ("neural.forward", ("calls", "rows", "rows_per_call", "self_s")),
    ("neural.train", ("calls", "self_s")),
    ("dataset.augment_negatives", ("self_s",)),
    ("dataset.features_for", ("self_s",)),
    ("dataset.read_examples_tsv", ("self_s",)),
    ("dataset.write_examples_tsv", ("self_s",)),
    ("ranking.score_nn1", ("calls",)),
    ("ranking.score_nn2", ("calls",)),
    ("ranking.rank_candidates", ("calls", "self_s")),
    ("ranking.evaluate_ranking", ("self_s",)),
    ("pipeline.expand_level", ("self_s",)),
    ("pipeline.rank_level", ("self_s",)),
    ("pipeline.reconstruct_pathways", ("self_s",)),
    ("pipeline.gold_step_ranks", ("self_s",)),
    *((f"cli.{c}", ("s", "self_s")) for c in ("ingest", "augment", "train", "eval", "retro")),
)

# Search counters, summed from the return values of expand_level/rank_level.
PIPELINE_COUNTS = ("generated", "pruned", "cycle_dropped", "kept")

UNITS = {
    "calls": "count",
    "s": "s",
    "self_s": "s",
    "repeat_ratio": "ratio",
    "hit_ratio": "ratio",
    "outcome_ratio": "ratio",
    "rows_per_call": "rows/call",
}

# Computed by the runner from operation walls rather than from spans.
TRACE_METRICS = {"trace.overhead_s": "s", "trace.uncovered_s": "s"}


def metric_units() -> dict[str, str]:
    """Every per-layer metric name, in report order, with its unit."""
    units = {}
    for name, stats in LAYER_STATS:
        for stat in stats:
            units[f"{name}.{stat}"] = UNITS.get(stat, "count")
    for stat in PIPELINE_COUNTS:
        units[f"pipeline.{stat}"] = "count"
    units["pipeline.kept_ratio"] = "ratio"
    units.update(TRACE_METRICS)
    return units


def _ratio(a: float, b: float) -> float:
    return a / b if b else 0.0


def layer_metrics(spans: list[Span]) -> dict[str, float]:
    """Every span-derived per-layer metric over ``spans``."""
    own = self_times(spans)
    by_name: dict[str, list[Span]] = defaultdict(list)
    by_id = {}
    for s in spans:
        by_name[s.name].append(s)
        by_id[(s.op, s.id)] = s

    def total(name: str, key: str) -> int:
        return sum(s.counts[key] for s in by_name[name] if s.counts)

    def distinct_per_op(name: str) -> int:
        keys = {(s.op, s.counts["key"]) for s in by_name[name] if s.counts}
        return len(keys)

    def of_key_misses() -> int:
        missed = set()
        for s in by_name["fingerprint.molecule_fingerprint"]:
            cur = by_id.get((s.op, s.parent))
            while cur is not None and cur.name != "fingerprint.of_key":
                cur = by_id.get((cur.op, cur.parent))
            if cur is not None:
                missed.add((cur.op, cur.id))
        return len(missed)

    values = {}
    for name, stats in LAYER_STATS:
        group = by_name.get(name, [])
        calls = len(group)
        for stat in stats:
            if stat == "calls":
                value = calls
            elif stat == "s":
                value = sum(s.duration for s in group)
            elif stat == "self_s":
                value = sum(own[(s.op, s.id)] for s in group)
            elif stat == "repeat_ratio":
                value = _ratio(calls, distinct_per_op(name))
            elif stat == "hit_ratio":
                value = _ratio(calls - of_key_misses(), calls)
            elif stat == "outcome_ratio":
                value = _ratio(total(name, "outcomes"), total("pattern.find_matches", "matches"))
            elif stat == "rows_per_call":
                value = _ratio(total(name, "rows"), calls)
            else:
                value = total(name, stat)
            values[f"{name}.{stat}"] = value
    for stat in ("generated", "pruned", "cycle_dropped"):
        values[f"pipeline.{stat}"] = total("pipeline.expand_level", stat)
    values["pipeline.kept"] = total("pipeline.rank_level", "kept")
    values["pipeline.kept_ratio"] = _ratio(values["pipeline.kept"], values["pipeline.generated"])
    return values


def cli_covered(spans: list[Span]) -> float:
    """Seconds covered by the top-level ``cli.<command>`` spans."""
    return sum(s.duration for s in spans if s.parent is None and s.name.startswith("cli."))


def main(paths: list[str]) -> int:
    spans = []
    for path in paths:
        spans.extend(load(path)[1])
    units = metric_units()
    for name, value in layer_metrics(spans).items():
        print(f"{name} {value:.6g} {units[name]}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
