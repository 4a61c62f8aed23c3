import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from retrobio import fingerprint
from retrobio.fingerprint import (
    Fingerprint,
    NegativeParameter,
    WidthMismatch,
    combine_fingerprints,
    hash_words,
    mix64,
    molecule_fingerprints,
    reaction_feature,
    tanimoto,
    tversky,
)
from retrobio.molgraph import (
    ELEMENT_NUMBER,
    Atom,
    Bond,
    MolecularGraph,
    atom_words,
    parse_smiles,
)

from conftest import molecules, permute_graph


def molecule_fingerprint(mol, width=512, radius=2):
    """One molecule's fingerprint, as a batch of one."""
    return molecule_fingerprints([mol], width, radius)[0]

# Frozen test vectors pin the documented mixing hash; these define the
# cross-implementation bit layout together with the invariant encoding.
HASH_VECTORS = [
    (mix64(0), 0),
    (mix64(1), 6238072747940578789),
    # splitmix64's first output for seed 0:
    (mix64(0x9E3779B97F4A7C15), 16294208416658607535),
    (hash_words([]), 0x243F6A8885A308D3),
    (hash_words([1, 2, 3]), 4789262180378904735),
]


def test_hash_test_vectors():
    for actual, expected in HASH_VECTORS:
        assert actual == expected


fp_pairs = st.tuples(
    st.integers(min_value=0, max_value=(1 << 64) - 1),
    st.integers(min_value=0, max_value=(1 << 64) - 1),
)


class TestMoleculeFingerprint:
    def test_methane_two_environment_bits(self):
        fp = molecule_fingerprint(parse_smiles("C"), 512, 2)
        assert fp.popcount() <= 2
        # larger radius adds nothing: the ball saturated after r=1
        assert molecule_fingerprint(parse_smiles("C"), 512, 6).bits == fp.bits

    def test_permutation_invariance(self):
        assert (
            molecule_fingerprint(parse_smiles("CCO")).bits
            == molecule_fingerprint(parse_smiles("OCC")).bits
        )

    def test_100_random_reorderings(self):
        rng = random.Random(99)
        for smiles in ["CC(C)C(=O)O", "c1ccccc1CO", "OCCC(C)(C)CCCCC"]:
            mol = parse_smiles(smiles)
            reference = molecule_fingerprint(mol).bits
            for _ in range(100):
                assert molecule_fingerprint(permute_graph(mol, rng)).bits == reference

    def test_similarity_ordering_sanity(self):
        benzene = molecule_fingerprint(parse_smiles("c1ccccc1"))
        toluene = molecule_fingerprint(parse_smiles("Cc1ccccc1"))
        butane = molecule_fingerprint(parse_smiles("CCCC"))
        assert tanimoto(benzene, toluene) > tanimoto(benzene, butane)

    def test_width_must_be_power_of_two(self):
        with pytest.raises(ValueError):
            molecule_fingerprint(parse_smiles("C"), width=500)

    def test_multi_component_is_or_of_parts(self):
        both = molecule_fingerprint(parse_smiles("CCO.CC"))
        ethanol = molecule_fingerprint(parse_smiles("CCO"))
        ethane = molecule_fingerprint(parse_smiles("CC"))
        assert both.bits == ethanol.bits | ethane.bits


def atom_invariant_word(mol, idx: int) -> int:
    atom = mol.atoms[idx]
    number = ELEMENT_NUMBER.get(atom.element, 0)
    return (
        number
        | (min(mol.degree(idx), 15) << 8)
        | ((atom.charge & 0xFF) << 12)
        | (min(mol.total_hydrogens(idx), 15) << 20)
        | (int(atom.aromatic) << 24)
    )


def scalar_fingerprint(mol, width=512, radius=2):
    """The fingerprint rule atom by atom on Python ints, with every
    eccentricity taken in full by an all-pairs BFS: the reference for the
    batched arrays and for the capped ball growth."""
    n = len(mol.atoms)
    ecc = []
    for start in range(n):
        dist = {start: 0}
        queue = [start]
        while queue:
            nxt = []
            for u in queue:
                for v, _ in mol.neighbors(u):
                    if v not in dist:
                        dist[v] = dist[u] + 1
                        nxt.append(v)
            queue = nxt
        ecc.append(max(dist.values()))
    codes = [hash_words([atom_invariant_word(mol, i)]) for i in range(n)]
    bits = 0
    for code in codes:
        bits |= 1 << (code % width)
    for r in range(1, radius + 1):
        nxt = []
        for i in range(n):
            words = [codes[i]]
            for pair in sorted((fingerprint._BOND_CODE[o], codes[j]) for j, o in mol.neighbors(i)):
                words += pair
            nxt.append(hash_words(words))
        codes = nxt
        for i in range(n):
            if r <= ecc[i] + 1:
                bits |= 1 << (codes[i] % width)
    return Fingerprint(bits, width)


@st.composite
def graphs(draw):
    """One or two generated molecules side by side, with up to two isolated
    atoms: several components, isolated atoms and [H][H] pieces."""
    parts = [draw(molecules()) for _ in range(draw(st.integers(1, 2)))]
    parts += [
        MolecularGraph((Atom(draw(st.sampled_from("CNOH"))),), ())
        for _ in range(draw(st.integers(0, 2)))
    ]
    atoms, bonds = [], []
    for part in parts:
        bonds += [Bond(b.a + len(atoms), b.b + len(atoms), b.order) for b in part.bonds]
        atoms += part.atoms
    return MolecularGraph(tuple(atoms), tuple(bonds))


class TestAtomWords:
    """``molgraph.atom_words`` is the documented invariant word, and it alone
    sets each atom's r=0 bit, so a shared word means a shared bit."""

    @given(graphs())
    @settings(max_examples=200, deadline=None)
    def test_equals_the_documented_word(self, mol):
        assert atom_words(mol) == [atom_invariant_word(mol, i) for i in range(len(mol.atoms))]

    @given(graphs(), st.integers(0, 3), st.sampled_from([8, 512]))
    @settings(max_examples=100, deadline=None)
    def test_every_word_sets_its_bit_at_any_radius(self, mol, radius, width):
        bits = molecule_fingerprint(mol, width, radius).bits
        for word in atom_words(mol):
            assert bits >> (hash_words([word]) % width) & 1


class TestBallGrowthDepth:
    """Following ball growth for only ``radius`` rounds must set the bits
    that full eccentricities set."""

    @given(graphs(), st.integers(0, 6), st.sampled_from([8, 64, 512, 2048]))
    @settings(max_examples=300, deadline=None)
    def test_equals_full_eccentricity_reference(self, mol, radius, width):
        assert molecule_fingerprint(mol, width, radius) == scalar_fingerprint(
            mol, width, radius
        )

    @pytest.mark.parametrize(
        "smiles",
        ["C", "[H][H]", "C.C", "O.[H][H]", "CCCCCCCCCCCC", "C1CCCCC1CCO", "c1ccccc1CO.N"],
    )
    def test_fixed_molecules(self, smiles):
        mol = parse_smiles(smiles)
        for radius in range(7):
            for width in (8, 512):
                assert molecule_fingerprint(mol, width, radius) == (
                    scalar_fingerprint(mol, width, radius)
                )


def int_mix64(x: int) -> int:
    """SplitMix64 finalizer on Python ints: the reference for the uint64
    array mixer."""
    m64 = (1 << 64) - 1
    x ^= x >> 30
    x = (x * 0xBF58476D1CE4E5B9) & m64
    x ^= x >> 27
    x = (x * 0x94D049BB133111EB) & m64
    return x ^ (x >> 31)


class TestBatchedEqualsScalar:
    """One batch of many molecules sets, for each molecule, the bits of the
    scalar rule run on that molecule alone."""

    @given(st.lists(st.integers(0, (1 << 64) - 1), max_size=20))
    @settings(max_examples=200)
    def test_array_mixer_equals_int_mixer(self, values):
        mixed = fingerprint._mix64(np.array(values, dtype=np.uint64))
        assert [int(v) for v in mixed] == [int_mix64(v) for v in values]
        assert [mix64(v) for v in values] == [int_mix64(v) for v in values]

    @given(st.lists(st.one_of(molecules(), graphs()), min_size=1, max_size=12),
           st.integers(0, 3), st.sampled_from([64, 512]))
    @settings(max_examples=200, deadline=None)
    def test_generated_batches(self, mols, radius, width):
        assert molecule_fingerprints(mols, width, radius) == [
            scalar_fingerprint(m, width, radius) for m in mols
        ]

    def test_corpus_in_one_batch(self):
        from synthdata import build_corpus

        _, _, positives, _ = build_corpus(max_length=6)
        keys = sorted({k for p in positives for k in (p.product_key, *p.reactant_keys)})
        mols = [parse_smiles(k) for k in keys]
        for width in (64, 512):
            for radius in range(4):
                assert molecule_fingerprints(iter(mols), width, radius) == [
                    scalar_fingerprint(m, width, radius) for m in mols
                ]

    def test_empty_batch(self):
        assert molecule_fingerprints([]) == []

    def test_fingerprinter_batch_equals_batches_of_one(self):
        keys = ["CCO", "OCC", "c1ccccc1", "[H][H]", "C.N", "CC(=O)[O-]"]
        batched = fingerprint.Fingerprinter()
        batched.memoize((k, None) for k in keys)
        # A key may come with its graph, and a key already held is skipped.
        batched.memoize([("CCC", parse_smiles("CCC")), ("CCO", None)])
        for key in keys + ["CCC"]:
            assert batched.of_key(key) == fingerprint.Fingerprinter().of_key(key)
            assert batched.of_key(key) == scalar_fingerprint(parse_smiles(key))


class TestSimilarity:
    def test_identical_nonzero_is_one(self):
        fp = molecule_fingerprint(parse_smiles("CCO"))
        assert tanimoto(fp, fp) == 1.0

    def test_disjoint_is_zero(self):
        assert tanimoto(Fingerprint(0b1100, 512), Fingerprint(0b0011, 512)) == 0.0

    def test_hand_case_one_third(self):
        assert tanimoto(Fingerprint(0b1100, 512), Fingerprint(0b1010, 512)) == pytest.approx(1 / 3)

    def test_zero_vectors_score_zero(self):
        zero = Fingerprint(0, 512)
        assert tanimoto(zero, zero) == 0.0
        assert tversky(zero, zero, 1, 1) == 0.0

    def test_width_mismatch(self):
        with pytest.raises(WidthMismatch):
            tanimoto(Fingerprint(1, 512), Fingerprint(1, 1024))
        with pytest.raises(WidthMismatch):
            tversky(Fingerprint(1, 512), Fingerprint(1, 1024), 1, 1)

    def test_negative_parameter(self):
        with pytest.raises(NegativeParameter):
            tversky(Fingerprint(1, 512), Fingerprint(1, 512), -0.1, 1)

    def test_tversky_subset_alpha_only(self):
        a = Fingerprint(0b1000, 512)
        b = Fingerprint(0b1100, 512)
        assert tversky(a, b, 1, 0) == 1.0

    @given(fp_pairs)
    @settings(max_examples=300)
    def test_tversky_11_equals_tanimoto(self, pair):
        a = Fingerprint(pair[0], 64)
        b = Fingerprint(pair[1], 64)
        assert tversky(a, b, 1, 1) == tanimoto(a, b)

    @given(fp_pairs)
    @settings(max_examples=300)
    def test_tanimoto_symmetric_and_bounded(self, pair):
        a = Fingerprint(pair[0], 64)
        b = Fingerprint(pair[1], 64)
        s = tanimoto(a, b)
        assert 0.0 <= s <= 1.0
        assert s == tanimoto(b, a)

    @given(st.integers(min_value=1, max_value=(1 << 64) - 1),
           st.floats(0, 8), st.floats(0, 8))
    @settings(max_examples=200)
    def test_self_similarity_one_for_any_parameters(self, bits, alpha, beta):
        fp = Fingerprint(bits, 64)
        assert tversky(fp, fp, alpha, beta) == 1.0


class TestReactionFeature:
    def test_one_step_layout(self):
        target = Fingerprint(0b1100, 512)
        precursor = Fingerprint(0b1010, 512)
        feature = reaction_feature(target, [precursor])
        assert feature.width == 1024
        assert feature.block(0) == target
        assert feature.block(1) == precursor

    def test_two_step_layout(self):
        blocks = [Fingerprint(7, 512), Fingerprint(9, 512), Fingerprint(5, 512)]
        feature = reaction_feature(blocks[0], blocks[1:])
        assert feature.width == 1536
        for k in range(3):
            assert feature.block(k) == blocks[k]

    def test_zero_inputs_zero_output(self):
        zero = Fingerprint(0, 512)
        feature = reaction_feature(zero, [zero])
        assert feature.bits == 0 and feature.width == 1024

    def test_width_mismatch(self):
        with pytest.raises(WidthMismatch):
            reaction_feature(Fingerprint(1, 512), [Fingerprint(1, 256)])

    def test_precursor_count_bounds(self):
        with pytest.raises(ValueError):
            reaction_feature(Fingerprint(1, 512), [])
        with pytest.raises(ValueError):
            reaction_feature(Fingerprint(1, 512), [Fingerprint(1, 512)] * 3)

    def test_array_round_trip(self):
        feature = reaction_feature(Fingerprint(0b110, 512), [Fingerprint(0b1, 512)])
        arr = feature.to_array()
        assert arr.shape == (1024,)
        assert arr[1] == arr[2] == 1.0 and arr[0] == 0.0
        assert arr[512] == 1.0
        # Bits either side of a byte boundary, and the top bit of a block.
        edges = 1 << 7 | 1 << 8 | 1 << 511
        feature = reaction_feature(Fingerprint(edges, 512), [Fingerprint(edges, 512)])
        arr = feature.to_array()
        assert arr.dtype == np.float32
        assert sorted(np.flatnonzero(arr)) == [7, 8, 511, 519, 520, 1023]
        top = reaction_feature(
            Fingerprint(0, 512), [Fingerprint(0, 512), Fingerprint(1 << 511, 512)]
        )
        arr = top.to_array()
        assert arr.shape == (1536,)
        assert list(np.flatnonzero(arr)) == [1535]
        # Every value at widths up to one byte, random ones at full width.
        rng = random.Random(0)
        cases = [(bits, w) for w in (1, 2, 4, 8) for bits in range(1 << w)]
        cases += [(rng.getrandbits(512), 512) for _ in range(20)]
        for bits, width in cases:
            arr = Fingerprint(bits, width).to_array()
            assert arr.shape == (width,)
            assert [int(v) for v in arr] == [bits >> i & 1 for i in range(width)]

    def test_combine_is_or(self):
        fps = [Fingerprint(0b01, 16), Fingerprint(0b10, 16)]
        assert combine_fingerprints(fps).bits == 0b11



class TestFingerprinterFeatures:
    TARGETS = ["CCO", "CCCO", "OCC(C)C"]
    STEPS = [("CC=O",), ("CC(=O)O", "O"), ("c1ccccc1", "C.N", "[H][H]")]

    @staticmethod
    def reference(row):
        """The row's feature from batches of one, without a memo."""
        blocks = [
            combine_fingerprints([molecule_fingerprint(parse_smiles(k)) for k in group])
            for group in row
        ]
        return reaction_feature(blocks[0], blocks[1:])

    @classmethod
    def reference_bytes(cls, rows):
        """The rows' features packed, little-endian."""
        features = [cls.reference(row) for row in rows]
        return [f.bits.to_bytes(f.width // 8, "little") for f in features]

    def rows(self):
        one_step = [((t,), s) for t in self.TARGETS for s in self.STEPS]
        two_step = [((t,), s1, s2) for t in self.TARGETS for s1 in self.STEPS
                    for s2 in self.STEPS]
        step_pairs = [(s1, s2) for s1 in self.STEPS for s2 in self.STEPS]
        return one_step, two_step, step_pairs

    def test_rows_equal_hand_built_features(self):
        for rows, nbytes in zip(self.rows(), (128, 192, 128)):
            features = fingerprint.Fingerprinter().features(rows)
            assert features.dtype == np.uint8
            assert features.shape == (len(rows), nbytes)
            assert [bytes(f) for f in features] == self.reference_bytes(rows)
            assert np.array_equal(
                np.unpackbits(features, axis=1, bitorder="little"),
                np.array([self.reference(row).to_array() for row in rows]),
            )

    def test_rows_of_one_call_share_a_block_count(self):
        one_step, two_step, _ = self.rows()
        with pytest.raises(WidthMismatch):
            fingerprint.Fingerprinter().features(one_step[:1] + two_step[:1])

    def test_no_rows_give_an_empty_array(self):
        features = fingerprint.Fingerprinter().features([])
        assert features.dtype == np.uint8 and features.shape == (0, 0)

    def test_memoized_and_missing_keys_give_the_same_bits(self):
        held = fingerprint.Fingerprinter()
        held.memoize((k, None) for k in self.TARGETS[:2] + ["CC=O", "O", "C.N"])
        for rows in self.rows():
            assert np.array_equal(held.features(rows), fingerprint.Fingerprinter().features(rows))
        # Everything is held now, so these calls read the memo only.
        for rows in self.rows():
            assert [bytes(f) for f in held.features(rows)] == self.reference_bytes(rows)

    def test_one_batch_per_call(self, monkeypatch):
        batches = []

        def counting(mols, *args):
            mols = list(mols)
            batches.append(len(mols))
            return molecule_fingerprints(mols, *args)

        monkeypatch.setattr(fingerprint, "molecule_fingerprints", counting)
        for rows in self.rows():
            fp = fingerprint.Fingerprinter()
            fp.memoize([("CCO", None)])
            batches.clear()
            fp.features(rows)
            distinct = {k for row in rows for group in row for k in group}
            assert batches == [len(distinct - {"CCO"})]
