"""The benchmark's workloads: inputs from a seed, CLI operations, checks.

Each workload's `setup(work, seed, cli)` writes the inputs under ``work``
and returns the operations of one pass. ``cli(argv, name)`` runs a retrobio
command as a child process and raises if it fails. An operation's ``check``
returns the problems found in its outputs.

Inputs come from ``tests/synthdata.py`` and from the seed only; weight files
are written here in the documented NNPR layout, so they do not depend on
the program's own initialisation or training code.
"""

from __future__ import annotations

import csv
import json
import math
import random
import shutil
import struct
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np
from synthdata import TEMPLATE_ROWS, skeleton_smiles, write_corpus_files


@dataclass
class Op:
    name: str
    argv: list[str]
    outputs: list[Path]
    check: Callable[[], list[str]]


@dataclass(frozen=True)
class Workload:
    name: str
    cores: int  # worker threads and BLAS threads the operations use
    setup: Callable[[Path, int, Callable], list[Op]]


# ---------------------------------------------------------------------------
# Shared inputs

RELU, SIGMOID = 0, 1
NN1_LAYERS = ((1024, 256, RELU, 0.2), (256, 1, SIGMOID, 0.0))
NN2_LAYERS = ((1536, 512, RELU, 0.2), (512, 128, RELU, 0.2), (128, 1, SIGMOID, 0.0))
NN1_PARAMETERS, NN2_PARAMETERS = 262657, 852737


def nnpr_bytes(layers, rng: np.random.Generator) -> bytes:
    """Glorot-uniform weights and zero biases in the NNPR weight layout."""
    chunks = [b"NNPR", struct.pack("<II", 1, len(layers))]
    for n_in, n_out, activation, dropout in layers:
        limit = math.sqrt(6.0 / (n_in + n_out))
        chunks.append(struct.pack("<IIBf", n_in, n_out, activation, dropout))
        chunks.append(rng.uniform(-limit, limit, (n_in, n_out)).astype("<f4").tobytes())
        chunks.append(np.zeros(n_out, dtype="<f4").tobytes())
    return b"".join(chunks)


def nnpr_parameter_count(blob: bytes) -> int:
    """Parameters in an NNPR weight file; ValueError if it does not parse."""
    if blob[:4] != b"NNPR" or len(blob) < 12:
        raise ValueError("bad magic or truncated header")
    version, n_layers = struct.unpack_from("<II", blob, 4)
    if version != 1:
        raise ValueError(f"version {version}")
    offset, total = 12, 0
    for _ in range(n_layers):
        n_in, n_out, _, _ = struct.unpack_from("<IIBf", blob, offset)
        offset += 13 + 4 * (n_in * n_out + n_out)
        total += n_in * n_out + n_out
    if offset != len(blob):
        raise ValueError("size does not match the layer headers")
    return total


def write_templates(path: Path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("# template_id\tdirection\tdiameter\tec_numbers\tsmarts\n")
        for template_id, ec, diameter, smarts in TEMPLATE_ROWS:
            fh.write(f"{template_id}\tbwd\t{diameter}\t{ec}\t{smarts}\n")


def write_corpus(directory: Path, max_length: int, seed: int) -> tuple[Path, Path, Path]:
    """synthdata corpus files with the reaction rows in a seeded order."""
    reactions, pathways, templates = write_corpus_files(directory, max_length)
    lines = reactions.read_text(encoding="utf-8").splitlines(keepends=True)
    header, rows = lines[:1], lines[1:]
    random.Random(seed).shuffle(rows)
    reactions.write_text("".join(header + rows), encoding="utf-8")
    return reactions, pathways, templates


def fresh_dir(path: Path) -> Path:
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
    return path


def read_rows(path: Path) -> list[list[str]]:
    with open(path, encoding="utf-8") as fh:
        return [line.rstrip("\n").split("\t") for line in fh if not line.startswith("#")]


# ---------------------------------------------------------------------------
# plan: route planning on the chemistry hot path

PLAN_CARBONS = 6  # the draw pool: skeletons with this many carbons
PLAN_TARGETS = 3
PLAN_STEPS = 2


def plan_targets(seed: int) -> list[str]:
    """A seeded draw of targets from ``skeleton_smiles(12)``.

    The pool is the skeletons with PLAN_CARBONS carbons, whose searches do
    nearly equal work, so a different seed changes the inputs but not the
    size of the pass.
    """
    pool = [s for s in skeleton_smiles(12) if s.count("C") == PLAN_CARBONS]
    return random.Random(seed).sample(pool, PLAN_TARGETS)


def oxidized(alcohol: str) -> tuple[str, str]:
    """(aldehyde, acid) of a primary alcohol written ``OC...``."""
    return "O=" + alcohol[1:], "OC(=O)" + alcohol[2:]


def check_retro(report_path: Path) -> list[str]:
    report = json.loads(report_path.read_text(encoding="utf-8"))
    problems = []
    for pathway in report["pathways"]:
        steps = pathway["steps"]
        if not 1 <= len(steps) <= PLAN_STEPS:
            problems.append(f"pathway of {len(steps)} steps")
        for a, b in zip(steps, steps[1:]):
            if b["product"] not in a["precursors"]:
                problems.append(f"broken chain at {b['product']}")
    gold = report["gold_ranks"]
    if len(gold) != 2 or not all(step["found"] for step in gold):
        problems.append(f"gold steps not found: {gold}")
    return problems


def setup_plan(work: Path, seed: int, cli) -> list[Op]:
    inputs = fresh_dir(work / "inputs")
    out = fresh_dir(work / "out")
    templates = inputs / "templates.tsv"
    write_templates(templates)
    rng = np.random.default_rng(seed)
    nn1, nn2 = inputs / "nn1.nnpr", inputs / "nn2.nnpr"
    nn1.write_bytes(nnpr_bytes(NN1_LAYERS, rng))
    nn2.write_bytes(nnpr_bytes(NN2_LAYERS, rng))
    ops = []
    for i, target in enumerate(plan_targets(seed)):
        aldehyde, acid = oxidized(target)
        stop, gold = inputs / f"stop{i}.smi", inputs / f"gold{i}.tsv"
        stop.write_text(acid + "\n", encoding="utf-8")
        gold.write_text(f"{target}\t{aldehyde}\n{aldehyde}\t{acid}\n", encoding="utf-8")
        report = out / f"retro{i}.json"
        ops.append(Op(
            f"retro{i}",
            ["retro", "--target", target, "--templates", str(templates),
             "--nn1", str(nn1), "--nn2", str(nn2), "--out", str(report),
             "--max-steps", str(PLAN_STEPS), "--beam", "100000", "--prune", "0",
             "--threads", "1", "--stop-set", str(stop), "--gold", str(gold)],
            [report],
            lambda report=report: check_retro(report),
        ))
    return ops


# ---------------------------------------------------------------------------
# curate: chemistry across many products

CURATE_LENGTH = 9
CURATE_THREADS = 2


def check_augment(directory: Path, n_skeletons: int) -> list[str]:
    rows = read_rows(directory / "onestep_train.tsv") + read_rows(directory / "onestep_test.tsv")
    stats = json.loads((directory / "augment_stats.json").read_text(encoding="utf-8"))
    positives = {(r[2], r[3]) for r in rows if r[0] == "positive"}
    negatives = [(r[2], r[3]) for r in rows if r[0] == "negative"]
    n_positive = sum(1 for r in rows if r[0] == "positive")
    problems = []
    if len(negatives) != stats["negatives_generated"]:
        problems.append(f"{len(negatives)} negative rows, {stats['negatives_generated']} generated")
    if n_positive != 2 * n_skeletons:
        problems.append(f"{n_positive} positive rows for {n_skeletons} skeletons")
    repeats = [n for n in negatives if n in positives]
    if repeats:
        problems.append(f"negatives repeat a positive: {repeats[:3]}")
    return problems


def setup_curate(work: Path, seed: int, cli) -> list[Op]:
    reactions, pathways, templates = write_corpus(fresh_dir(work / "inputs"), CURATE_LENGTH, seed)
    out = fresh_dir(work / "out")
    ingest, augment = out / "ingest", out / "augment"
    n_skeletons = len(skeleton_smiles(CURATE_LENGTH))
    return [
        Op(
            "ingest",
            ["ingest", "--reactions", str(reactions), "--out-dir", str(ingest)],
            [ingest / "mono_reactions.tsv", ingest / "corpus_stats.json"],
            lambda: [],
        ),
        Op(
            "augment",
            ["augment", "--corpus", str(ingest / "mono_reactions.tsv"),
             "--templates", str(templates), "--pathways", str(pathways),
             "--out-dir", str(augment), "--seed", str(seed),
             "--threads", str(CURATE_THREADS)],
            [augment / f"{name}.tsv" for name in
             ("onestep_train", "onestep_test", "twostep_train", "twostep_test")]
            + [augment / "augment_stats.json"],
            lambda: check_augment(augment, n_skeletons),
        ),
    ]


# ---------------------------------------------------------------------------
# learn: the numeric path

LEARN_LENGTH = 8
LEARN_EPOCHS = 10
LEARN_MODELS = (("nn1pr", "onestep", NN1_PARAMETERS), ("nn2pr", "twostep", NN2_PARAMETERS))


def check_weights(weights: Path, history: Path, parameters: int) -> list[str]:
    problems = []
    try:
        count = nnpr_parameter_count(weights.read_bytes())
    except (ValueError, struct.error) as exc:
        return [f"{weights.name} does not load: {exc}"]
    if count != parameters:
        problems.append(f"{weights.name} has {count} parameters, expected {parameters}")
    with open(history, encoding="utf-8") as fh:
        values = [float(v) for row in csv.DictReader(fh) for k, v in row.items() if k != "epoch"]
    if len(values) != 2 * LEARN_EPOCHS or not all(math.isfinite(v) for v in values):
        problems.append(f"{history.name} is short or holds a non-finite value")
    return problems


def top10(report: Path) -> dict[str, float]:
    data = json.loads(report.read_text(encoding="utf-8"))
    return {r["scorer"]: dict(r["coverage"])[10] for r in data["reports"]}


def check_eval(report: Path, model: str) -> list[str]:
    coverage = top10(report)
    if model == "nn1pr" and coverage["nn1pr"] < coverage["baseline"]:
        return [f"nn1pr top-10 coverage {coverage['nn1pr']} below baseline {coverage['baseline']}"]
    return []


def setup_learn(work: Path, seed: int, cli) -> list[Op]:
    reactions, pathways, templates = write_corpus(fresh_dir(work / "inputs"), LEARN_LENGTH, seed)
    data = work / "inputs" / "datasets"
    cli(["ingest", "--reactions", str(reactions), "--out-dir", str(data / "ingest")], "setup-ingest")
    cli(["augment", "--corpus", str(data / "ingest" / "mono_reactions.tsv"),
         "--templates", str(templates), "--pathways", str(pathways),
         "--out-dir", str(data), "--seed", str(seed), "--threads", "1"], "setup-augment")
    out = fresh_dir(work / "out")
    ops = []
    for model, kind, parameters in LEARN_MODELS:
        weights, history = out / f"{model}.nnpr", out / f"{model}.csv"
        ops.append(Op(
            f"train-{model}",
            ["train", "--model", model, "--data", str(data / f"{kind}_train.tsv"),
             "--out", str(weights), "--history", str(history),
             "--epochs", str(LEARN_EPOCHS), "--seed", str(seed), "--pos-weight", "auto"],
            [weights, history],
            lambda w=weights, h=history, p=parameters: check_weights(w, h, p),
        ))
    for model, kind, _ in LEARN_MODELS:
        report = out / f"eval-{model}.json"
        ops.append(Op(
            f"eval-{model}",
            ["eval", "--weights", str(out / f"{model}.nnpr"),
             "--data", str(data / f"{kind}_test.tsv"), "--out", str(report)],
            [report],
            lambda r=report, m=model: check_eval(r, m),
        ))
    return ops


WORKLOADS = {
    "plan": Workload("plan", 1, setup_plan),
    "curate": Workload("curate", CURATE_THREADS, setup_curate),
    "learn": Workload("learn", 2, setup_learn),
}
