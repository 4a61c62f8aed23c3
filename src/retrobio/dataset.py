"""
Corpus ingestion, cleaning and template-driven data augmentation.

The pipeline mirrors how metabolic reaction corpora are prepared for the
ranking models. One function, clean_reactions, turns raw reactions into the
mono-product corpus: every compound string, whether a compound-table entry
or a raw SMILES token of a reaction, is repaired (generic atom symbols
X -> Cl and R/R# -> C) and canonicalized, reactions drop unresolved
compounds and die when a whole side vanishes, canonical duplicates merge,
and each reaction is split into one child per product; its repairs and
losses are counted in one CorpusStats. Negative examples are generated by
applying the full template set to every unique product and removing
anything that is actually a known positive (the strict check).

DatasetRow is the one example type: a label, a group key, a target, one or
two precursor steps and a weight. augment_negatives and make_pathway_pairs
return rows, a corpus reaction or a pathway chain becomes a positive row
through its row() method, and write_examples_tsv writes the rows that
read_examples_tsv gives back to train and eval. The TSV columns are label,
group_key, target, precursors, weight; the precursors column joins
molecules of one step with '.' and steps with ';', so one-step and two-step
datasets share the schema. All randomness is seeded; identical inputs and
seeds give byte-identical files. numpy and fingerprint are imported only by
the two functions that fingerprint, so augmentation runs without numpy, and
ingestion loads it only for a product that shares no atom word with its
reactants.
"""

from __future__ import annotations

import math
from collections import Counter
from concurrent.futures import ThreadPoolExecutor
from contextlib import contextmanager
from dataclasses import asdict, dataclass, field
from functools import cache, partial

from .molgraph import atom_words, canonicalize, parse_smiles
from .pattern import ReactionTemplate, enumerate_precursors
from .tsv import read_tsv, write_tsv

__all__ = [
    "Unfixable",
    "CleanedCompound",
    "RawReaction",
    "MonoProductReaction",
    "PathwayChain",
    "CorpusStats",
    "clean_compound",
    "clean_reactions",
    "flag_disjoint_products",
    "augment_negatives",
    "extract_chains",
    "make_pathway_pairs",
    "split_train_test",
    "subsample_negatives",
    "read_reactions_tsv",
    "write_reactions_tsv",
    "read_compounds_tsv",
    "read_pathways_tsv",
    "write_examples_tsv",
    "DatasetRow",
    "read_examples_tsv",
    "naming_dataset",
    "require_uniform_steps",
    "features_for",
]

POSITIVE = "positive"
NEGATIVE = "negative"


class Unfixable(ValueError):
    """A compound string that still fails to parse after the repairs."""


@dataclass(frozen=True)
class CleanedCompound:
    key: str  # canonical SMILES
    repaired: bool  # a generic symbol was replaced


@dataclass(frozen=True)
class RawReaction:
    reaction_id: str
    ec_numbers: tuple[str, ...]
    reactants: tuple[str, ...]  # compound ids or raw SMILES
    products: tuple[str, ...]


@dataclass(frozen=True)
class DatasetRow:
    label: str
    group_key: str
    target_key: str
    steps: tuple[tuple[str, ...], ...]
    weight: float = 1.0

    @property
    def is_positive(self) -> bool:
        return self.label == POSITIVE

    @property
    def molecule_keys(self) -> tuple[str, ...]:
        """The target key, then every step's precursor keys in order."""
        return (self.target_key, *sum(self.steps, ()))


@dataclass(frozen=True)
class MonoProductReaction:
    parent_id: str
    ec_numbers: tuple[str, ...]
    reactant_keys: tuple[str, ...]
    product_key: str

    def row(self) -> DatasetRow:
        """The positive one-step row, grouped by its product."""
        return DatasetRow(POSITIVE, self.product_key, self.product_key, (self.reactant_keys,))


@dataclass(frozen=True)
class PathwayChain:
    """A 2-step backward chain: target <- step1 precursors <- step2."""

    chain_id: str
    target_key: str
    step1_keys: tuple[str, ...]
    step2_keys: tuple[str, ...]
    link_key: str  # the step-1 precursor that step 2 produces

    def row(self) -> DatasetRow:
        """The positive two-step row, grouped by its chain."""
        return DatasetRow(
            POSITIVE, self.chain_id, self.target_key, (self.step1_keys, self.step2_keys)
        )


@dataclass
class CorpusStats:
    reactions_in: int = 0
    reactions_dropped: int = 0
    reactions_degraded: int = 0  # kept, but lost compounds on one side
    duplicates_merged: int = 0
    compounds_unresolved: int = 0  # per table entry and per token occurrence
    generic_fixed: int = 0  # per repaired table entry and raw token occurrence
    mono_reactions: int = 0
    unique_products: int = 0
    disjoint_product_reactions: int = 0  # product shares no bit with reactants
    negatives_generated: int = 0
    negatives_per_positive_histogram: dict[int, int] = field(default_factory=dict)

    def to_dict(self) -> dict:
        out = asdict(self)
        out["negatives_per_positive_histogram"] = {
            str(k): v
            for k, v in sorted(self.negatives_per_positive_histogram.items())
        }
        return out


# ---------------------------------------------------------------------------
# Compound cleaning


def clean_compound(raw_smiles: str) -> CleanedCompound:
    """Repair generic atom symbols and canonicalize.

    'X' (any halogen placeholder) becomes Cl and the alkyl placeholders
    'R#'/'R' become C. Raises Unfixable when the repaired string still does
    not parse.
    """
    fixed = raw_smiles.replace("R#", "C").replace("R", "C").replace("X", "Cl")
    try:
        key = canonicalize(parse_smiles(fixed))
    except ValueError as exc:
        raise Unfixable(f"cannot repair compound {raw_smiles!r}: {exc}") from exc
    return CleanedCompound(key, fixed != raw_smiles)


def _cleaned(raw: str) -> tuple[str | None, bool]:
    """(canonical key, repaired) of ``raw``; the key is None for
    UNRESOLVED or an unfixable string."""
    if raw == "UNRESOLVED":
        return None, False
    try:
        cleaned = clean_compound(raw)
    except Unfixable:
        return None, False
    return cleaned.key, cleaned.repaired


def clean_reactions(
    records: list[RawReaction], compounds: list[tuple[str, str]]
) -> tuple[list[MonoProductReaction], CorpusStats]:
    """The mono-product corpus of ``records`` in one pass: clean every
    compound (a token is a ``compounds`` id or else a raw SMILES), drop the
    unresolved ones and any reaction losing a whole side, merge canonical
    duplicates (first id, union of EC numbers), then split each reaction
    into one child per product, the children sharing its reactants.

    Each distinct string is cleaned once; a repair or an unresolved
    compound still counts at every occurrence."""
    stats = CorpusStats(reactions_in=len(records))
    cleaned = cache(_cleaned)

    def clean(raw: str) -> str | None:
        key, repaired = cleaned(raw)
        stats.generic_fixed += repaired
        return key

    table: dict[str, str | None] = {}
    for compound_id, raw in compounds:
        table[compound_id] = key = clean(raw)
        stats.compounds_unresolved += key is None
    merged: dict[tuple, tuple[str, tuple[str, ...]]] = {}
    for raw in records:
        sides = []
        lost_any = False
        for tokens in (raw.reactants, raw.products):
            keys = []
            for token in tokens:
                key = table[token] if token in table else clean(token)
                if key is None:
                    stats.compounds_unresolved += 1
                    lost_any = True
                else:
                    keys.append(key)
            sides.append(tuple(sorted(keys)))
        if not sides[0] or not sides[1]:
            stats.reactions_dropped += 1
            continue
        if lost_any:
            stats.reactions_degraded += 1
        reaction = tuple(sides)
        if reaction in merged:
            stats.duplicates_merged += 1
            reaction_id, ecs = merged[reaction]
            merged[reaction] = reaction_id, tuple(sorted({*ecs, *raw.ec_numbers}))
        else:
            merged[reaction] = raw.reaction_id, raw.ec_numbers
    monos = [
        MonoProductReaction(reaction_id, ecs, reactants, product)
        for (reactants, products), (reaction_id, ecs) in merged.items()
        for product in products
    ]
    stats.mono_reactions = len(monos)
    stats.unique_products = len({mono.product_key for mono in monos})
    return monos, stats


# ---------------------------------------------------------------------------
# Augmentation


def _augment_product(product_key, templates, keys_of):
    # Keys only: the graphs are not held until the merge.
    candidates = enumerate_precursors(parse_smiles(product_key), templates, keys_of)
    return [c.precursor_keys for c in candidates]


def flag_disjoint_products(
    monos: list[MonoProductReaction],
    stats: CorpusStats,
) -> list[str]:
    """Count mono reactions whose product shares no fingerprint bit with
    any reactant. Such rows (typically small by-products promoted to the
    product slot) are kept but reported, since a structure-based ranker
    has nothing to connect them with.

    A product that shares an atom word with a reactant shares that word's
    r=0 bit with it, so only the reactions whose product shares no word are
    fingerprinted, and a corpus without them never loads numpy."""
    words: dict[str, frozenset[int]] = {}

    def words_of(key: str) -> frozenset[int]:
        if key not in words:
            words[key] = frozenset(atom_words(parse_smiles(key)))
        return words[key]

    undecided = [
        mono for mono in monos
        if words_of(mono.product_key).isdisjoint(
            word for key in mono.reactant_keys for word in words_of(key)
        )
    ]
    flagged = []
    if undecided:
        from .fingerprint import Fingerprinter

        fp = Fingerprinter()
        fp.memoize((key, None) for mono in undecided for key in mono.row().molecule_keys)
        flagged = [
            mono.parent_id for mono in undecided
            if fp.of_key(mono.product_key).bits & fp.of_keys(mono.reactant_keys).bits == 0
        ]
    stats.disjoint_product_reactions = len(flagged)
    return flagged


def augment_negatives(
    positives: list[MonoProductReaction],
    templates: list[ReactionTemplate],
    max_workers: int = 1,
    stats: CorpusStats | None = None,
) -> list[DatasetRow]:
    """Template-generated hypothetical precursors, minus every true one, as
    negative one-step rows grouped by their product.

    Works per unique product; the strict check removes any precursor
    multiset equal to the reactants of ANY positive with that product.
    Output order is (product key, candidate order) regardless of the
    worker count. All products share one key memo; threads that race store equal keys.
    """
    true_sets: dict[str, set[tuple[str, ...]]] = {}
    for pos in positives:
        true_sets.setdefault(pos.product_key, set()).add(pos.reactant_keys)
    products = sorted(true_sets)
    augment = partial(_augment_product, templates=templates, keys_of={})
    if max_workers > 1 and len(products) > 1:
        with ThreadPoolExecutor(max_workers=max_workers) as pool:
            candidate_lists = list(pool.map(augment, products))
    else:
        candidate_lists = [augment(p) for p in products]

    negatives: list[DatasetRow] = []
    histogram: Counter = Counter()
    for product_key, candidates in zip(products, candidate_lists):
        rows = [
            DatasetRow(NEGATIVE, product_key, product_key, (keys,))
            for keys in candidates
            if keys not in true_sets[product_key]
        ]
        negatives += rows
        histogram[len(rows)] += 1
    if stats is not None:
        stats.negatives_generated = len(negatives)
        stats.negatives_per_positive_histogram = dict(histogram)
    return negatives


def extract_chains(
    pathways: list[tuple[str, tuple[str, ...]]],
    mono_reactions: list[MonoProductReaction],
) -> list[PathwayChain]:
    """Positive 2-step chains from consecutive reactions of each pathway.

    For a consecutive pair (rA, rB), rB's product must appear among rA's
    reactants; the chain is (rA product, rA reactants, rB reactants).
    """
    by_id: dict[str, list[MonoProductReaction]] = {}
    for mono in mono_reactions:
        by_id.setdefault(mono.parent_id, []).append(mono)
    chains = []
    for pathway_id, reaction_ids in pathways:
        for i in range(len(reaction_ids) - 1):
            for ra in by_id.get(reaction_ids[i], []):
                for rb in by_id.get(reaction_ids[i + 1], []):
                    if rb.product_key not in ra.reactant_keys:
                        continue
                    chains.append(
                        PathwayChain(
                            chain_id=f"{pathway_id}:{i + 1}",
                            target_key=ra.product_key,
                            step1_keys=ra.reactant_keys,
                            step2_keys=rb.reactant_keys,
                            link_key=rb.product_key,
                        )
                    )
    return chains


def make_pathway_pairs(
    chains: list[PathwayChain], negatives: list[DatasetRow]
) -> list[DatasetRow]:
    """Negative two-step rows: each one-step negative of a chain's target
    replaces its step 1, then each one of its link replaces its step 2.

    The strict check removes any generated chain identical to a positive;
    each negative is grouped with its positive chain.
    """
    alternatives: dict[str, list[tuple[str, ...]]] = {}
    for neg in negatives:
        alternatives.setdefault(neg.target_key, []).append(neg.steps[0])
    positive_triples = {(c.target_key, c.step1_keys, c.step2_keys) for c in chains}
    out: list[DatasetRow] = []
    for chain in chains:
        swaps = [
            (alt, chain.step2_keys) for alt in alternatives.get(chain.target_key, [])
        ] + [
            (chain.step1_keys, alt) for alt in alternatives.get(chain.link_key, [])
        ]
        out += [
            DatasetRow(NEGATIVE, chain.chain_id, chain.target_key, steps)
            for steps in swaps
            if (chain.target_key, *steps) not in positive_triples
        ]
    return out


# ---------------------------------------------------------------------------
# Splits and subsampling


def split_train_test(examples: list[DatasetRow], fraction: float, seed: int):
    """Group-aware split: a positive and all its negatives stay together.

    Groups are keyed by ``group_key``; the seeded shuffle picks
    round(fraction * n_groups) test groups. Returns (train, test) with the
    original example order preserved inside each side.
    """
    if not 0 < fraction < 1:
        raise ValueError("fraction must be in (0, 1)")
    import random

    groups = sorted({ex.group_key for ex in examples})
    rng = random.Random(seed)
    rng.shuffle(groups)
    n_test = int(round(fraction * len(groups)))
    test_groups = set(groups[:n_test])
    train = [ex for ex in examples if ex.group_key not in test_groups]
    test = [ex for ex in examples if ex.group_key in test_groups]
    return train, test


def subsample_negatives(
    examples: list[DatasetRow], fraction: float, seed: int
) -> list[DatasetRow]:
    """Keep all positives and a seeded shuffled prefix of the negatives."""
    if not 0 <= fraction <= 1:
        raise ValueError("fraction must be in [0, 1]")
    import random

    positives = [ex for ex in examples if ex.label == POSITIVE]
    negatives = [ex for ex in examples if ex.label == NEGATIVE]
    rng = random.Random(seed)
    rng.shuffle(negatives)
    keep = negatives[: int(round(fraction * len(negatives)))]
    keep_ids = {id(ex) for ex in keep}
    return [
        ex
        for ex in examples
        if ex.label == POSITIVE or id(ex) in keep_ids
    ]


# ---------------------------------------------------------------------------
# File formats


def _pieces(text: str, sep: str) -> tuple[str, ...]:
    return tuple(piece for piece in text.split(sep) if piece)


def read_reactions_tsv(path, unique_ids: bool = False) -> list[RawReaction]:
    """reaction_id, ec_numbers (';'-sep), reactant_smiles ('.'-sep),
    product_smiles ('.'-sep). With ``unique_ids``, a repeated reaction id
    raises ValueError naming path:line; without, rows may share one, as the
    mono-product children of one reaction do."""
    return read_tsv(
        path,
        4,
        lambda reaction_id, ecs, reactants, products: RawReaction(
            reaction_id,
            _pieces(ecs, ";"),
            _pieces(reactants, "."),
            _pieces(products, "."),
        ),
        unique="reaction id" if unique_ids else "",
    )


def write_reactions_tsv(path, monos: list[MonoProductReaction]) -> None:
    """The mono-product corpus in read_reactions_tsv's columns. The parent
    reaction id is kept verbatim (children of one parent share it) so
    pathway files can still reference their reactions."""
    rows = (
        (m.parent_id, ";".join(m.ec_numbers), ".".join(m.reactant_keys), m.product_key)
        for m in monos
    )
    write_tsv(path, ("reaction_id", "ec_numbers", "reactant_smiles", "product_smiles"), rows)


def read_compounds_tsv(path) -> list[tuple[str, str]]:
    """compound_id, raw_smiles | UNRESOLVED; a repeated compound id raises
    ValueError naming path:line."""
    return read_tsv(
        path, 2, lambda compound_id, raw: (compound_id, raw), unique="compound id"
    )


def read_pathways_tsv(path) -> list[tuple[str, tuple[str, ...]]]:
    """pathway_id, ordered ';'-separated reaction ids."""
    return read_tsv(
        path, 2, lambda pathway_id, ids: (pathway_id, _pieces(ids, ";"))
    )


def write_examples_tsv(path, rows: list[DatasetRow]) -> None:
    """label, group_key, target, precursors (steps ';'-sep, molecules
    '.'-sep), weight."""
    write_tsv(
        path,
        ("label", "group_key", "target", "precursors", "weight"),
        (
            (
                row.label,
                row.group_key,
                row.target_key,
                ";".join(".".join(step) for step in row.steps),
                f"{row.weight:g}",
            )
            for row in rows
        ),
    )


def _dataset_row(label, group_key, target, precursors, weight) -> DatasetRow:
    if label not in (POSITIVE, NEGATIVE):
        raise ValueError(f"label must be {POSITIVE} or {NEGATIVE}, got {label!r}")
    if not target:
        raise ValueError("empty target")
    steps = tuple(_pieces(step, ".") for step in precursors.split(";"))
    if not all(steps):
        raise ValueError(f"empty precursor step in {precursors!r}")
    if len(steps) > 2:
        raise ValueError(f"{len(steps)} precursor steps in {precursors!r}, at most 2 are scored")
    value = float(weight)
    if not (math.isfinite(value) and value >= 0):
        raise ValueError(f"weight must be finite and at least 0, got {weight!r}")
    return DatasetRow(label, group_key, target, steps, value)


def read_examples_tsv(path) -> list[DatasetRow]:
    """Rows as written by write_examples_tsv; a bad label, an empty target
    or step, more than two steps, or a weight that is not finite or is
    negative raises ValueError naming path:line."""
    return read_tsv(path, 5, _dataset_row)


@contextmanager
def naming_dataset(path):
    """Name dataset ``path`` in a ValueError raised while using its rows:
    the line of the first row whose SMILES does not parse, else the file.
    Only this error path parses the file's SMILES a second time."""
    try:
        yield
    except ValueError as exc:
        def row(*fields):
            parsed = _dataset_row(*fields)
            for key in parsed.molecule_keys:
                parse_smiles(key)

        read_tsv(path, 5, row)
        raise ValueError(f"{path}: {exc}") from exc


def require_uniform_steps(rows: list[DatasetRow]) -> None:
    """ValueError when a dataset mixes one-step and two-step rows."""
    if len({len(row.steps) for row in rows}) > 1:
        raise ValueError("mixed one-step and two-step rows in one dataset")


def features_for(rows: list[DatasetRow]):
    """The packed ranker rows of ``Fingerprinter.features``, labels and
    weights for one- or two-step rows, as ``neural.train`` takes them."""
    if not rows:
        raise ValueError("no rows to featurize")
    require_uniform_steps(rows)
    import numpy as np

    from .fingerprint import Fingerprinter

    features = Fingerprinter().features([((row.target_key,), *row.steps) for row in rows])
    labels = np.array(
        [1.0 if row.is_positive else 0.0 for row in rows], dtype=np.float32
    )
    weights = np.array([row.weight for row in rows], dtype=np.float32)
    return features, labels, weights
