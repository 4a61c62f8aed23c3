"""Canonical labelling: the same keys as the old recursive labelling, a
bounded search on symmetric graphs, and ring labels above 99.

``tests/canon_oracle.py`` keeps the labelling that refined fresh tuples,
recursed once per tied atom and wrote a string per branch;
``canonicalize`` must give its keys on every graph here.
"""

import random
import sys
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from canon_oracle import reference_canonicalize
from conftest import molecules, permute_graph
from make_golden import SHAPES
from retrobio.molgraph import (
    Atom,
    Bond,
    MolecularGraph,
    RingLabelsExhausted,
    _Node,
    _canonical_component,
    _component_tables,
    canonicalize,
    parse_smiles,
    write_smiles,
)
from retrobio.pattern import enumerate_precursors
from synthdata import make_templates, skeleton_smiles


def ring(n: int) -> str:
    return "C1" + "C" * (n - 1) + "1"


def repeats(k: int) -> str:
    return "C" + "C(CO)(CO)" * k


def leaves(mol: MolecularGraph) -> int:
    """The strings that one ``canonicalize`` of ``mol`` writes."""
    return sum(
        _canonical_component(_component_tables(mol, comp, False))[1]
        for comp in mol.components()
    )


def grid(k: int) -> MolecularGraph:
    """A k x k square grid of carbons: (k - 1)^2 ring closures."""
    bonds = [Bond(i, i + 1) for i in range(k * k) if (i + 1) % k]
    bonds += [Bond(i, i + k) for i in range(k * (k - 1))]
    degree = [0] * (k * k)
    for bond in bonds:
        degree[bond.a] += 1
        degree[bond.b] += 1
    return MolecularGraph(tuple(Atom("C", hydrogens=4 - d) for d in degree), tuple(bonds))


def ladder(rungs: int) -> MolecularGraph:
    """Two rails joined by ``rungs`` rungs, numbered so that ``write_smiles``
    walks down one rail and back up the other: every rung but the last
    is a ring closure, and all of them are open at once."""
    n = 2 * rungs
    bonds = [Bond(i, i + 1) for i in range(n - 1)]
    bonds += [Bond(i, n - 1 - i) for i in range(rungs - 1)]
    return MolecularGraph(tuple(Atom("C", hydrogens=1) for _ in range(n)), tuple(bonds))


def cubic(n: int, rng: random.Random) -> MolecularGraph:
    """A random connected graph of n CH atoms with three bonds each: every
    atom has the same invariants, and refinement alone splits nothing."""
    while True:
        ends = [i for i in range(n) for _ in range(3)]
        rng.shuffle(ends)
        pairs = {(min(a, b), max(a, b)) for a, b in zip(ends[::2], ends[1::2]) if a != b}
        if len(pairs) == 3 * n // 2:
            mol = MolecularGraph(
                tuple(Atom("C", hydrogens=1) for _ in range(n)),
                tuple(Bond(a, b) for a, b in sorted(pairs)),
            )
            if len(mol.components()) == 1:
                return mol


def assert_same_as_reference(mol: MolecularGraph):
    assert canonicalize(mol) == reference_canonicalize(mol)


class TestOracle:
    def test_corpus(self, synth_corpus):
        alcohols, _, positives, _ = synth_corpus
        keys = alcohols + sorted({k for p in positives for k in p.reactant_keys})
        for key in keys:
            assert_same_as_reference(parse_smiles(key))

    def test_precursor_graphs(self):
        templates = make_templates()
        checked = 0
        for smiles in skeleton_smiles(9):
            for cand in enumerate_precursors(parse_smiles(smiles), templates):
                for graph, key in zip(cand.precursors, cand.precursor_keys):
                    assert key == reference_canonicalize(graph), smiles
                    checked += 1
        assert checked > 2000

    @given(molecules(), st.randoms(use_true_random=False))
    @settings(max_examples=150, deadline=None)
    def test_permuted_molecules(self, mol, rng):
        reference = reference_canonicalize(mol)
        assert canonicalize(mol) == reference
        assert canonicalize(permute_graph(mol, rng)) == reference

    @pytest.mark.parametrize("n", list(range(3, 17)) + [20, 25, 30, 40, 50, 60])
    def test_bare_rings(self, n):
        assert_same_as_reference(parse_smiles(ring(n)))

    @pytest.mark.parametrize("k", range(1, 10))
    def test_symmetric_branching(self, k):
        assert_same_as_reference(parse_smiles(repeats(k)))

    def test_comb(self):
        assert_same_as_reference(parse_smiles("C" + "C(C)(C)" * 30 + "C"))

    def test_cubic_graphs(self):
        """Ties that refinement leaves between atoms no automorphism maps
        onto each other: the leaves under them write different strings."""
        rng = random.Random(5)
        for _ in range(30):
            mol = cubic(rng.choice((8, 10, 12)), rng)
            reference = reference_canonicalize(mol)
            for _ in range(3):
                assert canonicalize(permute_graph(mol, rng)) == reference

    @pytest.mark.parametrize("smiles", SHAPES)
    def test_golden_shapes_permuted(self, smiles):
        mol = parse_smiles(smiles)
        rng = random.Random(smiles)
        reference = reference_canonicalize(mol)
        for _ in range(5):
            assert canonicalize(permute_graph(mol, rng)) == reference


class TestWorkBound:
    """The tie-break search writes few leaves where the old one wrote one
    per branch: 200 per level on a bare 200-atom ring, 2^k on the repeats."""

    @pytest.mark.parametrize(
        "smiles, most",
        [(ring(200), 8), (repeats(20), 2 * 20 + 2)],
        ids=["ring200", "repeats20"],
    )
    def test_few_leaves(self, smiles, most):
        mol = parse_smiles(smiles)
        began = time.perf_counter()
        count = leaves(mol)
        key = canonicalize(permute_graph(mol, random.Random(1)))
        assert time.perf_counter() - began < 5.0
        assert count <= most
        assert canonicalize(parse_smiles(key)) == key

    def test_comb_needs_no_recursion(self):
        """Each tie-break level was one more Python frame; 250 levels here."""
        mol = parse_smiles("C" + "C(C)(C)" * 250 + "C")
        frame, depth = sys._getframe(), 0
        while frame is not None:
            frame, depth = frame.f_back, depth + 1
        limit = sys.getrecursionlimit()
        sys.setrecursionlimit(depth + 150)
        try:
            key = canonicalize(mol)
        finally:
            sys.setrecursionlimit(limit)
        assert key == "CC(C)(C)" + "C(C)(C)" * 249 + "C"


class TestOrbitPruning:
    """A node skips a member only by an automorphism that fixes the atoms
    individualized on the way to it; one that moves them says nothing
    about the subtrees below the node."""

    def node(self, automorphism):
        tables = _component_tables(parse_smiles("C1CCCCC1"), list(range(6)), False)
        # Atom 0 individualized: its neighbours 1 and 5 tie, and so do 2 and 4.
        rank = [5, 0, 2, 4, 2, 0]
        node = _Node(rank, {0: [1, 5], 2: [2, 4]}, (0,), tables[2])
        tried = []
        while (m := node.next_member([automorphism] if tried else [])) is not None:
            tried.append(m)
        return tried

    def test_an_automorphism_fixing_the_path_prunes(self):
        assert self.node({1: 5, 5: 1, 2: 4, 4: 2}) == [1]

    def test_an_automorphism_moving_the_path_does_not(self):
        # The rotation by four maps 1 onto 5, but 0 onto 4.
        assert self.node({i: (i + 4) % 6 for i in range(6)}) == [1, 5]


class TestRingLabels:
    def test_grid_beyond_99_closures_round_trips(self):
        mol = grid(12)
        key = canonicalize(mol)
        again = parse_smiles(key)
        assert (len(again.atoms), len(again.bonds)) == (144, 264)
        assert canonicalize(again) == key
        written = parse_smiles(write_smiles(mol))
        assert (len(written.atoms), len(written.bonds)) == (144, 264)
        assert canonicalize(written) == key

    def test_99_closures_keep_their_own_labels(self):
        text = write_smiles(ladder(100))
        assert "%99" in text and text.count("%") == 2 * 90

    def test_100_open_closures_raise(self):
        with pytest.raises(RingLabelsExhausted):
            write_smiles(ladder(101))
