"""Tests of the benchmark itself.

    python3 -m pytest -q bench
"""

import json
import re
import sys
import threading
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests")]

import retrobio  # noqa: E402
from retrobio import dataset, pattern, pipeline  # noqa: E402
from retrobio.fingerprint import Fingerprint, Fingerprinter  # noqa: E402
from retrobio.molgraph import canonicalize, parse_smiles  # noqa: E402
from synthdata import build_corpus, make_templates  # noqa: E402

import run  # noqa: E402
import summarize  # noqa: E402
import workloads  # noqa: E402
from summarize import Span  # noqa: E402
from tracer import Tracer  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9_.-]+")


def traced_spans(tracer: Tracer) -> list[Span]:
    return [Span(*record) for record in tracer.spans]


def test_uninstall_restores_every_patched_name():
    originals = {
        (ns, name): vars(ns)[name]
        for ns in (retrobio, pattern, pipeline, dataset)
        for name in ("enumerate_precursors", "ThreadPoolExecutor")
        if name in vars(ns)
    }
    originals[(Fingerprinter, "of_key")] = vars(Fingerprinter)["of_key"]
    originals[(Fingerprint, "to_array")] = vars(Fingerprint)["to_array"]
    tracer = Tracer()
    tracer.install()
    patched = list(tracer._patches)
    try:
        # every module that bound enumerate_precursors sees the wrapper
        assert pipeline.enumerate_precursors is dataset.enumerate_precursors
        assert pipeline.enumerate_precursors is not originals[(pattern, "enumerate_precursors")]
        assert vars(Fingerprinter)["of_key"] is not originals[(Fingerprinter, "of_key")]
    finally:
        tracer.uninstall()
    assert len(patched) > 50
    for owner, attr, original in patched:
        assert vars(owner)[attr] is original, f"{owner}.{attr} not restored"
    for (owner, attr), original in originals.items():
        assert vars(owner)[attr] is original


def test_self_time_on_nested_spans():
    spans = [
        Span(1, "a", 0.0, 10.0, None, 1, 0, None),
        Span(2, "b", 1.0, 4.0, 1, 1, 0, None),
        Span(3, "c", 2.0, 3.0, 2, 1, 0, None),
        Span(4, "d", 5.0, 6.0, 1, 1, 0, None),
        Span(1, "a", 0.0, 2.0, None, 1, 7, None),  # same id, other operation
    ]
    own = summarize.self_times(spans)
    assert own == {(0, 1): 6.0, (0, 2): 2.0, (0, 3): 1.0, (0, 4): 1.0, (7, 1): 2.0}


def test_self_time_on_spans_across_threads():
    spans = [
        Span(1, "fanout", 0.0, 10.0, None, 1, 0, None),
        Span(2, "merge", 1.0, 3.0, 1, 1, 0, None),
        Span(3, "work", 2.0, 8.0, 1, 2, 0, None),  # pool thread
        Span(4, "work", 2.5, 9.0, 1, 3, 0, None),  # pool thread
        Span(5, "leaf", 4.0, 5.0, 3, 2, 0, None),
    ]
    own = summarize.self_times(spans)
    assert own[(0, 1)] == 8.0  # only the same-thread child counts
    assert own[(0, 3)] == 5.0
    assert own[(0, 4)] == 6.5


def test_pool_threads_get_the_fan_out_call_as_parent():
    _, templates, positives, _ = build_corpus(max_length=5)
    tracer = Tracer()
    tracer.install()
    try:
        dataset.augment_negatives(positives, templates, max_workers=2)
    finally:
        tracer.uninstall()
    spans = traced_spans(tracer)
    (fanout,) = [s for s in spans if s.name == "dataset.augment_negatives"]
    pool = [s for s in spans if s.name == "pattern.enumerate_precursors"]
    assert pool and all(s.parent == fanout.id for s in pool)
    assert {s.thread for s in pool} != {threading.get_ident()}
    own = summarize.self_times(spans)
    assert own[(0, fanout.id)] > 0.0


def test_metric_names_and_units_match_the_benchmark_file():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    end_to_end = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    per_layer = {m["name"]: m["unit"] for m in spec["per_layer"]}
    assert end_to_end == run.END_TO_END_UNITS
    assert per_layer == summarize.metric_units()
    assert {w["name"] for w in spec["workloads"]} == set(workloads.WORKLOADS)
    for name in [*end_to_end, *per_layer]:
        assert NAME.fullmatch(name), name


def test_seed_gives_the_same_targets_and_weight_files(tmp_path):
    def weights(seed, tag):
        work = tmp_path / tag
        ops = workloads.setup_plan(work, seed, cli=None)
        return ops, (work / "inputs" / "nn1.nnpr").read_bytes(), (work / "inputs" / "nn2.nnpr").read_bytes()

    ops_a, nn1_a, nn2_a = weights(1, "a")
    ops_b, nn1_b, nn2_b = weights(1, "b")
    ops_c, nn1_c, nn2_c = weights(2, "c")
    assert workloads.plan_targets(1) == workloads.plan_targets(1)
    assert workloads.plan_targets(1) != workloads.plan_targets(2)
    assert [op.argv[2] for op in ops_a] == workloads.plan_targets(1)
    assert (nn1_a, nn2_a) == (nn1_b, nn2_b)
    assert nn1_a != nn1_c and nn2_a != nn2_c
    assert workloads.nnpr_parameter_count(nn1_a) == workloads.NN1_PARAMETERS
    assert workloads.nnpr_parameter_count(nn2_a) == workloads.NN2_PARAMETERS


def test_gold_steps_are_the_planted_oxidations():
    alcohols, _, positives, _ = build_corpus(max_length=7)
    made_from = {p.product_key: p.reactant_keys[0] for p in positives}
    for target in workloads.plan_targets(3):
        aldehyde, acid = (canonicalize(parse_smiles(s)) for s in workloads.oxidized(target))
        alcohol = canonicalize(parse_smiles(target))
        assert made_from[alcohol] == aldehyde and made_from[aldehyde] == acid


def test_check_retro_flags_broken_chains_and_missing_gold(tmp_path):
    step = {"product": "A", "precursors": ["B"]}
    report = {
        "pathways": [{"steps": [step, {"product": "C", "precursors": ["D"]}]}],
        "gold_ranks": [{"found": True}, {"found": False}],
    }
    path = tmp_path / "report.json"
    path.write_text(json.dumps(report))
    problems = workloads.check_retro(path)
    assert any("broken chain" in p for p in problems)
    assert any("gold" in p for p in problems)
    report = {"pathways": [{"steps": [step]}], "gold_ranks": [{"found": True}] * 2}
    path.write_text(json.dumps(report))
    assert workloads.check_retro(path) == []


def test_count_wrappers_reproduce_the_depth_one_figure():
    templates = make_templates()
    target = parse_smiles("OCCCC(C)CCCC")
    tracer = Tracer()
    tracer.install()
    try:
        candidates = pattern.enumerate_precursors(target, templates)
    finally:
        tracer.uninstall()
    values = summarize.layer_metrics(traced_spans(tracer))
    assert values["pattern.find_matches.matches"] == 167
    assert values["pattern.apply_template.outcomes"] == 58
    assert values["pattern.enumerate_precursors.candidates"] == len(candidates) == 58
    assert values["pattern.apply_template.calls"] == len(templates)


def test_tail_percentile_needs_ten_samples_beyond():
    assert run.tail_percentile(9) is None
    assert run.tail_percentile(20) == 50
    assert run.tail_percentile(100) == 90
    assert run.tail_percentile(1000) == 99
