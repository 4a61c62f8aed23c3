"""Writer of the reference outputs in ``tests/golden/``.

Every file is plain text computed from ``tests/synthdata.py`` and a
fixed-seed ``random.Random`` graph builder, so a diff shows exactly which
string moved. Nothing here depends on BLAS: no file holds a weight or a score.

- ``canonical_keys.tsv``: canonical SMILES of the corpus molecules, of
  rings, cages and ``C(CO)(CO)`` repeats, of random graphs and of permuted
  atom orders of all of those (the input column is ``write_smiles`` of the
  graph as built, so it records the atom order);
- ``precursors.tsv``: ``enumerate_precursors`` output, in order, for the
  ``skeleton_smiles(6)`` products under ``make_templates()``: keys,
  provenance and ``write_smiles`` of each precursor graph;
- ``fingerprints.tsv``: the default 512-bit fingerprint, in hex, of every
  molecule of the two files above;
- ``augment/``: the ``ingest`` and ``augment --pathways`` outputs for
  ``write_corpus_files(max_length=6)`` at seed 7;
- ``ingest/``: the ``ingest`` outputs for the hand-written
  ``INGEST_REACTIONS`` and ``INGEST_COMPOUNDS`` below, which reach every
  cleaning rule: compound-table ids, ``UNRESOLVED`` and unfixable entries,
  generic ``X``/``R``/``R#`` symbols in both files, merged duplicates,
  partial and whole-side loss, a multi-product split and a disjoint product;
- ``search_levels.tsv``: the candidates each level of a 2-step search of
  ``SEARCH_TARGET`` keeps under ``make_templates()``, sorted. The beam is
  unbounded and the prune threshold 0, which no sigmoid score falls below,
  so the sets do not depend on the seeded random one-step model that
  scores them, and the file holds no scores.

``tests/test_golden.py`` recomputes each file and compares. Regenerating
them is a declared re-baseline:

    PYTHONPATH=src python3 tests/make_golden.py
"""

from __future__ import annotations

import random
import tempfile
from pathlib import Path

import numpy as np

from retrobio.cli import main
from retrobio.fingerprint import Fingerprinter, molecule_fingerprints
from retrobio.molgraph import (
    DOUBLE,
    SINGLE,
    Atom,
    Bond,
    MolecularGraph,
    canonicalize,
    effective_valences,
    lowest_feasible_valence,
    parse_smiles,
    write_smiles,
)
from retrobio.neural import initialize, nn1pr_spec
from retrobio.pattern import enumerate_precursors
from retrobio.pipeline import SearchConfig, SearchNode, expand_level, rank_level
from synthdata import build_corpus, make_templates, skeleton_smiles, write_corpus_files

HERE = Path(__file__).resolve().parent
GOLDEN = HERE / "golden"
SEED = 7

RINGS = [f"C1{'C' * (n - 1)}1" for n in (3, 4, 5, 6, 7, 8, 9, 10, 12, 16, 20, 24, 30)]
SHAPES = [
    "C12C3C4C1C5C2C3C45",  # cubane
    "C1C2CC3CC1CC(C2)C3",  # adamantane
    "C12C3C1C23",  # tetrahedrane
    "C1CC2CCC1CC2",  # bicyclo[2.2.2]octane
    "C1CC2CCC1C2",
    "C1CCC2(CC1)CCCCC2",  # spiro
    "C1CC2CCC3CCC1C23",
    "c1ccccc1",
    "c1ccncc1",
    "c1cc[nH]c1",
    "c1ccc2ccccc2c1",
    "c1ccc2c(c1)ccc1ccccc12",
    "c1ccc(cc1)-c1ccccc1",
    "Cc1ccc(C)cc1",
    "OC(=O)c1ccccc1O",
    "C=CC=CC=C",
    "C#CC#N",
    "CC(C)(C)C(C)(C)C",
    "[NH4+].[O-]C(=O)C",
    "[H][H]",
    "[H]OC([H])([H])C",
    "O=C1CCC(=O)CC1",
    "OCC(O)C(O)C(O)C(O)CO",
] + ["C" + "C(CO)(CO)" * k for k in range(1, 7)]
# Larger symmetric graphs, each also written once in a permuted atom order.
# Their lines come after all others and draw from their own random stream,
# and their keys stay out of ``fingerprints.tsv``, so adding them moved no
# earlier line.
SYMMETRIC = [("ring", f"C1{'C' * (n - 1)}1") for n in (40, 60, 100)] + [
    ("shape", "C" + "C(CO)(CO)" * k) for k in range(7, 11)
]


def random_graph(rng: random.Random, max_heavy: int = 9) -> MolecularGraph:
    """A C/N/O/S graph with charges, double bonds, up to two ring closures
    and some hydrogens as explicit [H] atoms; a tree bond that finds no
    free valence is skipped, so some graphs have several components."""
    n = rng.randint(1, max_heavy)
    elements = [rng.choice("CCCNOS") for _ in range(n)]
    charges = [
        rng.choice({"N": (0, 0, 1), "O": (0, 0, -1)}.get(e, (0,))) for e in elements
    ]
    free = [max(effective_valences(e, c)) for e, c in zip(elements, charges)]
    bonds: dict[tuple[int, int], str] = {}

    def add(j: int, i: int, double: bool):
        order = DOUBLE if double and min(free[i], free[j]) >= 2 else SINGLE
        if (j, i) not in bonds and min(free[i], free[j]) >= 1:
            bonds[(j, i)] = order
            free[i] -= 1 + (order == DOUBLE)
            free[j] -= 1 + (order == DOUBLE)

    for i in range(1, n):
        add(rng.randrange(i), i, rng.random() < 0.2)
    for _ in range(rng.choice((0, 0, 1, 2))):
        if n > 2:
            i = rng.randrange(2, n)
            add(rng.randrange(i - 1), i, False)
    atoms, extra = [], []
    for i, (e, c) in enumerate(zip(elements, charges)):
        used = sum(1 + (o == DOUBLE) for pair, o in bonds.items() if i in pair)
        h = lowest_feasible_valence(e, used, c) - used
        explicit = rng.randint(0, h) if rng.random() < 0.3 else 0
        atoms.append(Atom(e, hydrogens=h - explicit, charge=c))
        extra += [i] * explicit
    for anchor in extra:
        bonds[(anchor, len(atoms))] = SINGLE
        atoms.append(Atom("H"))
    return MolecularGraph(
        tuple(atoms), tuple(Bond(a, b, o) for (a, b), o in bonds.items())
    )


def permuted(mol: MolecularGraph, rng: random.Random) -> MolecularGraph:
    order = list(range(len(mol.atoms)))
    rng.shuffle(order)
    inverse = {old: new for new, old in enumerate(order)}
    bonds = [Bond(inverse[b.a], inverse[b.b], b.order) for b in mol.bonds]
    rng.shuffle(bonds)
    return MolecularGraph(tuple(mol.atoms[old] for old in order), tuple(bonds))


def _corpus_keys() -> list[str]:
    alcohols, _, positives, _ = build_corpus(max_length=9)
    return list(dict.fromkeys(alcohols + [k for p in positives for k in p.reactant_keys]))


def canonical_keys() -> tuple[str, list[str]]:
    """The file text and the keys it lists, in order, but for ``SYMMETRIC``."""
    rng = random.Random(SEED)
    graphs = [("corpus", parse_smiles(s)) for s in _corpus_keys()]
    graphs += [("ring", parse_smiles(s)) for s in RINGS]
    graphs += [("shape", parse_smiles(s)) for s in SHAPES]
    graphs += [("random", random_graph(rng)) for _ in range(120)]
    graphs += [
        ("permuted", permuted(mol, rng))
        for _, mol in list(graphs)
        for _ in range(2 if len(mol.atoms) <= 20 else 1)
    ]
    lines = ["# kind\twrite_smiles\tcanonical"]
    keys = []
    for kind, mol in graphs:
        key = canonicalize(mol)
        keys.append(key)
        lines.append(f"{kind}\t{write_smiles(mol)}\t{key}")
    rng = random.Random(SEED)
    for kind, smiles in SYMMETRIC:
        mol = parse_smiles(smiles)
        for graph in (mol, permuted(mol, rng)):
            lines.append(f"{kind}\t{write_smiles(graph)}\t{canonicalize(graph)}")
    return "\n".join(lines) + "\n", keys


def precursors() -> tuple[str, list[str]]:
    templates = make_templates()
    lines = ["# product\tprecursor_keys\tprovenance\tprecursor_graphs"]
    keys = []
    for smiles in skeleton_smiles(6):
        product = parse_smiles(smiles)
        key = canonicalize(product)
        keys.append(key)
        for cand in enumerate_precursors(product, templates):
            keys += cand.precursor_keys
            provenance = ";".join(
                f"{tid}:{','.join(ecs)}" for tid, ecs in cand.provenance
            )
            graphs = ".".join(write_smiles(g) for g in cand.precursors)
            lines.append(
                f"{key}\t{'.'.join(cand.precursor_keys)}\t{provenance}\t{graphs}"
            )
    return "\n".join(lines) + "\n", keys


def fingerprints(keys: list[str]) -> str:
    lines = ["# canonical\tbits_hex"]
    distinct = sorted(set(keys))
    fps = molecule_fingerprints(parse_smiles(key) for key in distinct)
    for key, fp in zip(distinct, fps):
        lines.append(f"{key}\t{fp.bits:0128x}")
    return "\n".join(lines) + "\n"


def augment_outputs(work: Path) -> dict[str, str]:
    """ingest then augment --pathways on the max_length=6 corpus."""
    reactions, pathways, templates = write_corpus_files(work / "in", max_length=6)
    out = work / "out"
    for argv in (
        ["ingest", "--reactions", str(reactions), "--out-dir", str(out)],
        [
            "augment", "--corpus", str(out / "mono_reactions.tsv"),
            "--templates", str(templates), "--pathways", str(pathways),
            "--out-dir", str(out), "--seed", str(SEED),
        ],
    ):
        if main(argv) != 0:
            raise RuntimeError(f"{argv[0]} failed")
    return {
        f"augment/{path.name}": path.read_text(encoding="utf-8")
        for path in sorted(out.iterdir())
    }


INGEST_COMPOUNDS = """\
# compound_id\traw_smiles
cpd_ethanol\tCCO
cpd_acetaldehyde\tCC=O
cpd_chloroethane\tCCX
cpd_propanoate\tR#CC(=O)O
cpd_methanol\tRO
cpd_chloroform\tC(X)(X)X
cpd_lost\tUNRESOLVED
cpd_broken\tC1CC
"""

INGEST_REACTIONS = """\
# reaction_id\tec_numbers\treactants\tproducts
r01\t1.1.1.1\tcpd_ethanol\tcpd_acetaldehyde
r02\t1.1.1.2;1.1.1.1\tCCO\tCC=O
r03\t2.3.1.1\tcpd_chloroethane.cpd_lost\tCCCO
r04\t3.1.1.1\tcpd_broken\tCCO
r05\t3.1.1.2\tCCO\tcpd_lost
r06\t3.1.1.3\tcpd_propanoate.RCCO\tCCCOC(=O)CC.O
r07\t4.2.1.1\tCCX.O\tCCO.cpd_missing
r08\t1.2.1.1\tR#CC=O.cpd_methanol\tCCC(=O)OC
r09\t2.6.1.1\tCCO.N\tCCN.O
"""


def ingest_outputs(work: Path) -> dict[str, str]:
    """ingest of INGEST_REACTIONS with the INGEST_COMPOUNDS table."""
    work.mkdir(parents=True, exist_ok=True)
    reactions, compounds = work / "reactions.tsv", work / "compounds.tsv"
    reactions.write_text(INGEST_REACTIONS, encoding="utf-8")
    compounds.write_text(INGEST_COMPOUNDS, encoding="utf-8")
    out = work / "out"
    argv = [
        "ingest", "--reactions", str(reactions), "--compounds", str(compounds),
        "--out-dir", str(out),
    ]
    if main(argv) != 0:
        raise RuntimeError("ingest failed")
    return {
        f"ingest/{path.name}": path.read_text(encoding="utf-8")
        for path in sorted(out.iterdir())
    }


SEARCH_TARGET = "OCCCC(C)CCCC"


def search_levels(seed: int = SEED) -> str:
    """depth, product and precursor keys of every candidate each level of
    the search keeps, a level's lines sorted; ``run_retro``'s level loop,
    scored by a one-step model drawn from ``seed``."""
    templates = make_templates()
    nn1 = initialize(nn1pr_spec(), np.random.default_rng(seed))
    config = SearchConfig(max_steps=2, beam_width=10**9, prune_threshold=0.0)
    fingerprinter = Fingerprinter()
    target = parse_smiles(SEARCH_TARGET)
    frontier = [SearchNode(canonicalize(target), (), 0, 1.0, None, molecule=target)]
    lines = ["# depth\tproduct\tprecursor_keys"]
    nodes_made = 0
    for depth in range(1, config.max_steps + 1):
        children, stats = expand_level(
            frontier, templates, nn1, config, fingerprinter, nodes_made
        )
        nodes_made += stats["generated"]
        frontier = rank_level(children, None, config, fingerprinter)
        lines += sorted(
            f"{depth}\t{node.parent.molecule_key}\t{'.'.join(node.precursor_keys)}"
            for node in frontier
        )
    return "\n".join(lines) + "\n"


def golden_files(work: Path) -> dict[str, str]:
    """Every golden file's path under ``tests/golden`` and its text."""
    keys_text, keys = canonical_keys()
    precursor_text, precursor_keys = precursors()
    return {
        "canonical_keys.tsv": keys_text,
        "precursors.tsv": precursor_text,
        "fingerprints.tsv": fingerprints(keys + precursor_keys),
        **augment_outputs(work),
        **ingest_outputs(work / "ingest"),
        "search_levels.tsv": search_levels(),
    }


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        for name, text in golden_files(Path(tmp)).items():
            path = GOLDEN / name
            path.parent.mkdir(parents=True, exist_ok=True)
            path.write_text(text, encoding="utf-8", newline="\n")
            print(f"wrote {path.relative_to(HERE.parent)} ({len(text)} bytes)")
