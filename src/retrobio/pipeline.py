"""
Multistep retrobiosynthesis search.

Level-synchronous backward expansion from a target molecule: each level
applies every template to the frontier, scores the candidate precursor
sets with the one-step ranker against their parent molecule, prunes below
a threshold, guards against cycles along each path, and keeps the
beam_width best per level. From the second level on, survivors can be
re-ranked by the two-step model over the (grandparent, parent precursors,
child precursors) window; the first level is ordered by the one-step score
alone.

Chaining follows the main substrate: the precursor component with the most
heavy atoms (ties broken by canonical key) continues the chain, the rest
are recorded as co-substrates. Pathway reconstruction backtracks parent
links from every node whose precursor set intersects the stop set (or from
all max-depth leaves when no stop set is given); a pathway's aggregate
score is the geometric mean of its two-step window scores, or of its
one-step scores when only the one-step model is used.

Reports are deterministic for fixed models, templates and configuration.
The module owns retro's files: the stop set, the gold pathway and the reports.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Iterable

from .fingerprint import Fingerprinter
from .molgraph import MolecularGraph, _without_map_indices, canonicalize, parse_smiles
from .pattern import CandidatePrecursor, ReactionTemplate, enumerate_precursors
from .ranking import rank_candidates
from .neural import MlpModel, forward
from .tsv import read_tsv, write_json, write_tsv

__all__ = [
    "SearchConfig",
    "SearchNode",
    "PathwayStep",
    "Pathway",
    "SearchReport",
    "TargetParseError",
    "NodeBudgetExceeded",
    "expand_level",
    "rank_level",
    "reconstruct_pathways",
    "run_retro",
    "gold_step_ranks",
    "parse_gold_step",
    "read_gold_tsv",
    "read_stop_set",
]

# (product key, product graph, sorted precursor keys) of one gold step.
GoldStep = tuple[str, MolecularGraph, tuple[str, ...]]


class TargetParseError(ValueError):
    pass


class NodeBudgetExceeded(RuntimeError):
    pass


@dataclass(frozen=True)
class SearchConfig:
    max_steps: int = 3
    beam_width: int = 10
    prune_threshold: float = 0.0
    stop_set: frozenset[str] = frozenset()
    max_nodes: int = 100000

    def __post_init__(self):
        if self.max_steps < 1:
            raise ValueError("max_steps must be at least 1")
        if self.beam_width < 1:
            raise ValueError("beam_width must be at least 1")
        if self.max_nodes < 1:
            raise ValueError("max_nodes must be at least 1")
        if math.isnan(self.prune_threshold):
            raise ValueError("prune_threshold must not be NaN")

    def to_dict(self) -> dict:
        return {
            "max_steps": self.max_steps,
            "beam_width": self.beam_width,
            "prune_threshold": self.prune_threshold,
            "stop_set": sorted(self.stop_set),
            "max_nodes": self.max_nodes,
        }


@dataclass(eq=False)
class SearchNode:
    """One expansion: ``molecule_key`` is the main substrate carried on, and
    ``molecule`` its graph while the node may still be expanded."""

    molecule_key: str
    precursor_keys: tuple[str, ...]
    depth: int
    step_score: float
    parent: "SearchNode | None"
    template_id: str = ""
    ec_numbers: tuple[str, ...] = ()
    nn2_score: float | None = None
    molecule: MolecularGraph | None = field(default=None, repr=False)

    def ancestors_keys(self) -> set[str]:
        keys = set()
        node = self.parent
        while node is not None:
            keys.add(node.molecule_key)
            node = node.parent
        return keys


@dataclass(frozen=True)
class PathwayStep:
    product_key: str
    precursor_keys: tuple[str, ...]
    ec_numbers: tuple[str, ...]
    template_id: str
    step_score: float


@dataclass
class Pathway:
    steps: tuple[PathwayStep, ...]
    aggregate_score: float
    aggregate_rank: int = 0

    def chain_is_valid(self) -> bool:
        """Step i's continuing precursor must be step i+1's product."""
        for a, b in zip(self.steps, self.steps[1:]):
            if b.product_key not in a.precursor_keys:
                return False
        return True

    def to_dict(self) -> dict:
        return {
            "aggregate_score": self.aggregate_score,
            "aggregate_rank": self.aggregate_rank,
            "steps": [
                {
                    "product": s.product_key,
                    "precursors": list(s.precursor_keys),
                    "ec_numbers": list(s.ec_numbers),
                    "template_id": s.template_id,
                    "step_score": s.step_score,
                }
                for s in self.steps
            ],
        }


def _main_substrate(cand: CandidatePrecursor) -> tuple[str, MolecularGraph]:
    """(key, graph) of the precursor with the most heavy atoms; the
    canonical key breaks ties."""
    return min(
        zip(cand.precursor_keys, cand.precursors),
        key=lambda pair: (-pair[1].heavy_atom_count(), pair[0]),
    )


def expand_level(
    frontier: list[SearchNode],
    templates: list[ReactionTemplate],
    nn1: MlpModel,
    config: SearchConfig,
    fingerprinter: Fingerprinter,
    nodes_made: int,
    enumerated: dict[str, list[CandidatePrecursor] | None] | None = None,
) -> tuple[list[SearchNode], dict]:
    """Enumerate every frontier node, score the whole level with the
    one-step model in one batch, then prune and cycle-guard.

    ``nodes_made`` counts the nodes created before this level; crossing
    config.max_nodes raises NodeBudgetExceeded. ``enumerated`` holds the
    molecule keys whose candidate lists the caller wants; a frontier node
    with such a key stores its list there.
    """
    stats = {"generated": 0, "pruned": 0, "cycle_dropped": 0}
    # Siblings rewrite subgraphs in one atom order, so the level's precursor
    # graphs repeat across nodes: one memo canonicalizes each once.
    keys_of: dict = {}
    # Each candidate as a node, holding its main substrate's graph only if
    # the next level expands it. The level's molecules, one graph per key,
    # are fingerprinted in one batch, and its candidates scored in another.
    candidates = []
    graphs = {node.molecule_key: node.molecule for node in frontier}
    for node in frontier:
        ancestor_keys = node.ancestors_keys() | {node.molecule_key}
        expandable = node.depth + 1 < config.max_steps
        listed = enumerate_precursors(node.molecule, templates, keys_of)
        if enumerated is not None and node.molecule_key in enumerated:
            enumerated[node.molecule_key] = listed
        for cand in listed:
            stats["generated"] += 1
            if nodes_made + stats["generated"] > config.max_nodes:
                raise NodeBudgetExceeded(
                    f"node budget {config.max_nodes} exceeded at depth "
                    f"{node.depth + 1}"
                )
            for key, graph in zip(cand.precursor_keys, cand.precursors):
                graphs.setdefault(key, graph)
            main, graph = _main_substrate(cand)
            child = SearchNode(
                main, cand.precursor_keys, node.depth + 1, 0.0, node,
                *cand.provenance[0], molecule=graph if expandable else None,
            )
            candidates.append((child, main in ancestor_keys))
    fingerprinter.memoize(graphs.items())
    features = fingerprinter.features(
        [((child.parent.molecule_key,), child.precursor_keys) for child, _ in candidates]
    )
    scores = forward(nn1, features).tolist() if candidates else []
    children: list[SearchNode] = []
    for (child, cycle), score in zip(candidates, scores):
        if score < config.prune_threshold:
            stats["pruned"] += 1
        elif cycle:
            stats["cycle_dropped"] += 1
        else:
            child.step_score = score
            children.append(child)
    return children, stats


def rank_level(
    children: list[SearchNode],
    nn2: MlpModel | None,
    config: SearchConfig,
    fingerprinter: Fingerprinter,
) -> list[SearchNode]:
    """Order a level and keep the beam_width best.

    Depth-1 children are ordered by the one-step score. Deeper levels use
    the two-step score over (grandparent product, parent precursors, child
    precursors) when a two-step model is given, scored in one batch.
    """
    if not children:
        return []
    if nn2 is not None and children[0].depth >= 2:
        features = fingerprinter.features([
            ((c.parent.parent.molecule_key,), c.parent.precursor_keys, c.precursor_keys)
            for c in children
        ])
        for child, score in zip(children, forward(nn2, features).tolist()):
            child.nn2_score = score
        ranked = rank_candidates([(c, c.nn2_score) for c in children])
    else:
        ranked = rank_candidates([(c, c.step_score) for c in children])
    return [rc.candidate for rc in ranked[: config.beam_width]]


def reconstruct_pathways(
    nodes: list[SearchNode],
    stop_set: frozenset[str],
    use_nn2: bool,
    max_depth: int,
) -> list[Pathway]:
    """Backtrack parent links from stop-set hits (or max-depth leaves).

    Pathways are ranked by aggregate score (geometric mean of window
    scores) with the canonical tie rule; duplicates by step identity
    collapse.
    """
    if stop_set:
        hits = [
            n for n in nodes if any(k in stop_set for k in n.precursor_keys)
        ]
    else:
        hits = [n for n in nodes if n.depth == max_depth]
    seen: set[tuple] = set()
    pathways = []
    for node in hits:
        chain: list[SearchNode] = []
        cur = node
        while cur.parent is not None:
            chain.append(cur)
            cur = cur.parent
        chain.reverse()  # depth 1 .. depth L
        steps = [
            PathwayStep(
                product_key=n.parent.molecule_key,
                precursor_keys=n.precursor_keys,
                ec_numbers=n.ec_numbers,
                template_id=n.template_id,
                step_score=n.step_score,
            )
            for n in chain
        ]
        identity = tuple(
            (s.product_key, s.precursor_keys, s.template_id) for s in steps
        )
        if identity in seen:
            continue
        seen.add(identity)
        if use_nn2 and len(chain) >= 2:
            scores = [n.nn2_score for n in chain[1:] if n.nn2_score is not None]
        else:
            scores = [n.step_score for n in chain]
        aggregate = math.exp(sum(math.log(s) for s in scores) / len(scores))
        pathways.append(Pathway(tuple(steps), aggregate))
    pathways.sort(
        key=lambda p: (
            -p.aggregate_score,
            tuple((s.product_key, s.precursor_keys) for s in p.steps),
        )
    )
    for position, pathway in enumerate(pathways, 1):
        pathway.aggregate_rank = position
    return pathways


@dataclass
class SearchReport:
    target_key: str
    config: SearchConfig
    levels: list[dict] = field(default_factory=list)
    pathways: list[Pathway] = field(default_factory=list)
    gold_ranks: list[dict] = field(default_factory=list)
    budget_exceeded: bool = False
    used_nn2: bool = False

    def to_dict(self) -> dict:
        return {
            "schema_version": 1,
            "target": self.target_key,
            "config": self.config.to_dict(),
            "used_nn2": self.used_nn2,
            "budget_exceeded": self.budget_exceeded,
            "levels": self.levels,
            "gold_ranks": self.gold_ranks,
            "pathways": [p.to_dict() for p in self.pathways],
        }

    def save_json(self, path) -> None:
        write_json(path, self.to_dict())

    def save_pathways_tsv(self, path) -> None:
        """One row per pathway: rank, aggregate score and the ';'-joined
        steps, each ``product>precursors`` with '.'-joined precursors."""
        rows = (
            (str(p.aggregate_rank), f"{p.aggregate_score:.6f}",
             ";".join(f"{s.product_key}>{'.'.join(s.precursor_keys)}" for s in p.steps))
            for p in self.pathways
        )
        write_tsv(path, ("rank", "aggregate_score", "steps"), rows)


def read_stop_set(path) -> frozenset[str]:
    """Canonical keys of a file of SMILES, one per line; surrounding
    whitespace is trimmed."""
    return frozenset(read_tsv(path, 1, lambda s: canonicalize(parse_smiles(s)), strip=True))


def parse_gold_step(product: str, precursors: Iterable[str]) -> GoldStep:
    """One gold step from its SMILES, each molecule parsed and canonicalized
    once; the product graph, map indices dropped, is the molecule its key
    names."""
    product_mol = _without_map_indices(parse_smiles(product))
    keys = sorted(canonicalize(parse_smiles(p)) for p in precursors)
    return canonicalize(product_mol), product_mol, tuple(keys)


def read_gold_tsv(path) -> list[GoldStep]:
    """Gold steps of a product_smiles, precursor_smiles ('.'-sep) file, so a
    bad SMILES, or an empty '.' piece, names its line before a search."""
    return read_tsv(
        path, 2, lambda product, precursors: parse_gold_step(product, precursors.split("."))
    )


def gold_step_ranks(
    gold: list[GoldStep],
    templates: list[ReactionTemplate],
    nn1: MlpModel,
    fingerprinter: Fingerprinter,
    enumerated: dict[str, list[CandidatePrecursor] | None],
) -> list[dict]:
    """Rank each gold step's precursor set among the candidates generated
    for its product; the per-step annotation protocol.

    ``gold`` holds one ``parse_gold_step`` result per step. ``enumerated``
    maps product keys to the candidate lists a search already built; a
    product without one is enumerated here. Candidate
    keys, provenance and fingerprints do not depend on the atom order of
    the graph enumerated, so either list ranks alike.
    """
    out = []
    for step_no, (product_key, product_mol, gold_key) in enumerate(gold, 1):
        candidates = enumerated.get(product_key)
        if candidates is None:
            candidates = enumerate_precursors(product_mol, templates)
        entry = {
            "step": step_no,
            "product": product_key,
            "gold_precursors": list(gold_key),
            "found": False,
            "rank": None,
            "total": len(candidates),
            "ec_numbers": [],
        }
        if candidates:
            fingerprinter.memoize(
                [(product_key, product_mol)]
                + [pair for c in candidates for pair in zip(c.precursor_keys, c.precursors)]
            )
            features = fingerprinter.features(
                [((product_key,), c.precursor_keys) for c in candidates]
            )
            scores = forward(nn1, features).tolist()
            for rc in rank_candidates(list(zip(candidates, scores))):
                if rc.candidate.precursor_keys == gold_key:
                    entry["found"] = True
                    entry["rank"] = rc.rank
                    entry["ec_numbers"] = sorted(
                        {ec for _, ecs in rc.candidate.provenance for ec in ecs}
                    )
                    break
        out.append(entry)
    return out


def run_retro(
    target_smiles: str,
    templates: list[ReactionTemplate],
    nn1: MlpModel,
    nn2: MlpModel | None = None,
    config: SearchConfig | None = None,
    gold_steps: list[GoldStep] | None = None,
) -> SearchReport:
    """Full multistep search; with nn2 absent the one-step model both
    prunes and ranks every level. ``gold_steps``, from ``parse_gold_step``
    or ``read_gold_tsv``, are ranked per step after the search."""
    config = config or SearchConfig()
    fingerprinter = Fingerprinter()
    try:
        target = _without_map_indices(parse_smiles(target_smiles))
        target_key = canonicalize(target)
    except ValueError as exc:
        raise TargetParseError(f"cannot parse target: {exc}") from exc
    # The search's candidate lists for the gold products it expands; None
    # for a product it never expands.
    enumerated = dict.fromkeys(product_key for product_key, _, _ in gold_steps or ())

    report = SearchReport(target_key, config, used_nn2=nn2 is not None)
    frontier = [SearchNode(target_key, (), 0, 1.0, None, molecule=target)]
    survivors_all: list[SearchNode] = []
    nodes_made = 0
    for depth in range(1, config.max_steps + 1):
        if not frontier:
            break
        try:
            children, stats = expand_level(
                frontier, templates, nn1, config, fingerprinter, nodes_made,
                enumerated,
            )
        except NodeBudgetExceeded:
            report.budget_exceeded = True
            break
        nodes_made += stats["generated"]
        survivors = rank_level(children, nn2, config, fingerprinter)
        stats["kept"] = len(survivors)
        stats["depth"] = depth
        report.levels.append(stats)
        survivors_all.extend(survivors)
        frontier = survivors
    report.pathways = reconstruct_pathways(
        survivors_all, config.stop_set, nn2 is not None, config.max_steps
    )
    if gold_steps:
        report.gold_ranks = gold_step_ranks(
            gold_steps, templates, nn1, fingerprinter, enumerated
        )
    return report
