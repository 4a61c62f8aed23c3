import random
import sys
from pathlib import Path

import pytest
from hypothesis import settings
from hypothesis import strategies as st

sys.path.insert(0, str(Path(__file__).parent))

from retrobio.molgraph import (
    DOUBLE,
    SINGLE,
    Atom,
    Bond,
    MolecularGraph,
    effective_valences,
    lowest_feasible_valence,
)

settings.register_profile("deterministic", derandomize=True)
settings.load_profile("deterministic")


@pytest.fixture(scope="session")
def synth_corpus():
    """(alcohols, templates, positives, chains) for the full toy family."""
    from synthdata import build_corpus

    return build_corpus(max_length=9)


@pytest.fixture(scope="session")
def synth_negatives(synth_corpus):
    """Augmented negatives plus the populated corpus stats."""
    from retrobio import dataset as ds

    _, templates, positives, _ = synth_corpus
    stats = ds.CorpusStats()
    negatives = ds.augment_negatives(positives, templates, stats=stats)
    return negatives, stats


def overflowing_weights(in_dim: int) -> bytes:
    """A weight file load_weights accepts whose model scores every ranker
    row NaN: each first-layer weight is 3e38, so the two or more bits a row
    sets overflow every hidden unit to inf, and output weights of both
    signs then add inf and -inf."""
    import numpy as np

    from retrobio.neural import RELU, SIGMOID, DenseLayer, MlpModel, save_weights

    return save_weights(MlpModel((
        DenseLayer(np.full((in_dim, 4), 3e38, np.float32), np.zeros(4, np.float32), RELU),
        DenseLayer(np.array([[1], [-1], [1], [-1]], np.float32), np.zeros(1, np.float32),
                   SIGMOID),
    )))


def permute_graph(mol: MolecularGraph, rng: random.Random) -> MolecularGraph:
    """Random atom/bond reordering of the same labeled graph."""
    order = list(range(len(mol.atoms)))
    rng.shuffle(order)
    inverse = {old: new for new, old in enumerate(order)}
    atoms = tuple(mol.atoms[old] for old in order)
    bonds = [Bond(inverse[b.a], inverse[b.b], b.order) for b in mol.bonds]
    rng.shuffle(bonds)
    return MolecularGraph(atoms, tuple(bonds))


@st.composite
def molecules(draw, max_heavy: int = 7):
    """C/N/O graphs with charged atoms (N+, O-), some hydrogens as explicit
    [H] atoms, an optional ring bond and an optional [H][H] component."""
    n = draw(st.integers(1, max_heavy))
    elements = [draw(st.sampled_from("CCNO")) for _ in range(n)]
    charges = [
        draw(st.sampled_from({"N": (0, 0, 1), "O": (0, 0, -1)}.get(e, (0,))))
        for e in elements
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
        add(draw(st.integers(0, i - 1)), i, draw(st.integers(0, 4)) == 0)
    if n > 2 and draw(st.booleans()):
        add(0, n - 1, False)
    atoms, extra = [], []
    for i, (e, c) in enumerate(zip(elements, charges)):
        used = sum(1 + (o == DOUBLE) for pair, o in bonds.items() if i in pair)
        h = lowest_feasible_valence(e, used, c) - used
        explicit = draw(st.integers(0, h))
        atoms.append(Atom(e, hydrogens=h - explicit, charge=c))
        extra += [i] * explicit
    for anchor in extra:
        bonds[(anchor, len(atoms))] = SINGLE
        atoms.append(Atom("H"))
    if draw(st.booleans()):
        bonds[(len(atoms), len(atoms) + 1)] = SINGLE
        atoms += [Atom("H"), Atom("H")]
    return MolecularGraph(
        tuple(atoms), tuple(Bond(a, b, o) for (a, b), o in bonds.items())
    )
