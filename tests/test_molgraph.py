import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from retrobio.molgraph import (
    AROMATIC,
    Atom,
    Bond,
    DOUBLE,
    EmptyInput,
    MalformedBracketAtom,
    MolecularGraph,
    SINGLE,
    SmilesSyntaxError,
    UnbalancedRingClosure,
    UnknownElement,
    ValenceExceeded,
    add_explicit_hydrogens,
    canonicalize,
    parse_smiles,
    remove_explicit_hydrogens,
    write_smiles,
)
from retrobio.pattern import PatternAtom, parse_smarts, parse_smarts_template

from conftest import permute_graph

FIXTURES = [
    "CCO",
    "c1ccccc1",
    "C1=CC=CC=C1",
    "CC(C)C(=O)O",
    "c1ccc(cc1)C(=O)O",
    "C1CC1.CC",
    "OCC1CCCCC1O",
    "CC(C)(C)c1ccccc1",
    "[NH4+].[O-]S(=O)(=O)[O-].[NH4+]",
    "OCCC(C)(C)CCCCC",
    "C[N+](C)(C)C",
    "N#Cc1ccccc1",
]

# Longer than Python's default recursion limit of 1000 frames. The ring
# carries an N and an O on neighbouring atoms: canonicalizing the bare ring
# breaks its ties by trying every atom, which takes minutes at this size.
LONG_CHAIN = "C" * 1100
LONG_RING = "NC1" + "C" * 1098 + "C1O"


class TestParse:
    def test_simple_chain(self):
        mol = parse_smiles("CCO")
        assert [a.element for a in mol.atoms] == ["C", "C", "O"]
        assert all(b.order == SINGLE for b in mol.bonds)
        assert [a.hydrogens for a in mol.atoms] == [3, 2, 1]

    def test_aromatic_benzene(self):
        mol = parse_smiles("c1ccccc1")
        assert len(mol.atoms) == 6
        assert all(a.aromatic for a in mol.atoms)
        assert all(b.order == AROMATIC for b in mol.bonds)
        assert all(a.hydrogens == 1 for a in mol.atoms)

    def test_kekule_not_aromatized(self):
        mol = parse_smiles("C1=CC=CC=C1")
        assert not any(a.aromatic for a in mol.atoms)
        orders = sorted(b.order for b in mol.bonds)
        assert orders == [DOUBLE] * 3 + [SINGLE] * 3
        assert canonicalize(mol) != canonicalize(parse_smiles("c1ccccc1"))

    def test_bracket_atom_properties(self):
        mol = parse_smiles("[CH3:1][O-:2]")
        c, o = mol.atoms
        assert (c.hydrogens, c.map_index) == (3, 1)
        assert (o.charge, o.map_index, o.hydrogens) == (-1, 2, 0)

    def test_components_via_dot(self):
        mol = parse_smiles("CC.O")
        assert len(mol.components()) == 2

    def test_biphenyl_connecting_bond_is_single(self):
        mol = parse_smiles("c1ccccc1-c1ccccc1")
        singles = [b for b in mol.bonds if b.order == SINGLE]
        assert len(singles) == 1

    @pytest.mark.parametrize(
        "text,exc",
        [
            ("", EmptyInput),
            ("C1CC", UnbalancedRingClosure),
            ("C%1CC", UnbalancedRingClosure),
            ("CQ", UnknownElement),
            ("C[Zz]C", UnknownElement),
            ("C[C", MalformedBracketAtom),
            ("C[]", MalformedBracketAtom),
            ("C[CH3:0]", MalformedBracketAtom),
            ("C((C))", SmilesSyntaxError),
            ("cc", SmilesSyntaxError),
            ("C=#C", SmilesSyntaxError),
        ],
    )
    def test_errors_carry_offsets(self, text, exc):
        with pytest.raises(exc) as excinfo:
            parse_smiles(text)
        assert excinfo.value.offset >= 0

    def test_valence_exceeded_at_parse(self):
        with pytest.raises(ValenceExceeded):
            parse_smiles("C(=O)(=O)(=O)=O")

    def test_lowercase_heteroatom_needs_ring(self):
        with pytest.raises(SmilesSyntaxError):
            parse_smiles("co")

    def test_multivalent_sulfur(self):
        assert parse_smiles("S").atoms[0].hydrogens == 2
        mol = parse_smiles("OS(=O)(=O)O")
        assert mol.atoms[1].hydrogens == 0


# One atom token read by both dialects: the first atom of parse_smiles, or
# the (exception class, offset) it raises for a token SMILES rejects, and
# the first atom of parse_smarts or what it raises. A pattern field written
# as zero is 0, one not written is None.
ATOM_TOKENS = {
    "C": (Atom("C", hydrogens=4), PatternAtom("C", False)),
    "[C]": (Atom("C"), PatternAtom("C", False)),
    "[CH0]": (Atom("C"), PatternAtom("C", False, h_count=0)),
    "[CH]": (Atom("C", hydrogens=1), PatternAtom("C", False, h_count=1)),
    "[C+0]": (Atom("C"), PatternAtom("C", False, charge=0)),
    "[N+]": (Atom("N", charge=1), PatternAtom("N", False, charge=1)),
    "[O--]": (Atom("O", charge=-2), PatternAtom("O", False, charge=-2)),
    "[S-2]": (Atom("S", charge=-2), PatternAtom("S", False, charge=-2)),
    "[C:7]": (Atom("C", map_index=7), PatternAtom("C", False, map_index=7)),
    "[CD3]": ((MalformedBracketAtom, 2), PatternAtom("C", False, degree=3)),
    "[Cx]": ((MalformedBracketAtom, 2), (MalformedBracketAtom, 2)),
    "*": ((SmilesSyntaxError, 0), PatternAtom()),
    "[*]": ((UnknownElement, 1), PatternAtom()),
    "c1ccccc1": (Atom("C", aromatic=True, hydrogens=1), PatternAtom("C", True)),
    "Cl": (Atom("Cl", hydrogens=1), PatternAtom("Cl", False)),
    "[Br-]": (Atom("Br", charge=-1), PatternAtom("Br", False, charge=-1)),
    "[C+10]": (Atom("C", charge=10), PatternAtom("C", False, charge=10)),
    "[C-99]": (Atom("C", charge=-99), PatternAtom("C", False, charge=-99)),
    "[C+100]": ((MalformedBracketAtom, 5), (MalformedBracketAtom, 5)),
    # A property written twice is an error at the repeat.
    "[N+-]": ((MalformedBracketAtom, 3), (MalformedBracketAtom, 3)),
    "[O-2-]": ((MalformedBracketAtom, 4), (MalformedBracketAtom, 4)),
    "[CH2H3]": ((MalformedBracketAtom, 4), (MalformedBracketAtom, 4)),
    "[CHH]": ((MalformedBracketAtom, 3), (MalformedBracketAtom, 3)),
    "[C:1:2]": ((MalformedBracketAtom, 4), (MalformedBracketAtom, 4)),
    "[CD2D3]": ((MalformedBracketAtom, 2), (MalformedBracketAtom, 4)),
}

SMILES_ALPHABET = "CNOPSFIBrlcnops*()[]=#-:.%0123456789+HD>"


def _check_first_atom(parse, text, expected):
    if isinstance(expected, tuple):
        exc, offset = expected
        with pytest.raises(exc) as info:
            parse(text)
        assert type(info.value) is exc
        assert info.value.offset == offset
    else:
        assert parse(text).atoms[0] == expected


class TestAtomTokens:
    @pytest.mark.parametrize("text", list(ATOM_TOKENS))
    def test_smiles_atom(self, text):
        _check_first_atom(parse_smiles, text, ATOM_TOKENS[text][0])

    @pytest.mark.parametrize("text", list(ATOM_TOKENS))
    def test_pattern_atom(self, text):
        _check_first_atom(parse_smarts, text, ATOM_TOKENS[text][1])

    # Ring numbers, '%nn', H counts, charges, Dn and map indices are ASCII
    # 0-9 only; another Unicode digit is a syntax error inside the text.
    @pytest.mark.parametrize("text", ["C²", "[CH²]", "C[C:１]", "C１CC1", "[C+²]"])
    @pytest.mark.parametrize("parse", [parse_smiles, parse_smarts])
    def test_non_ascii_digit_rejected(self, parse, text):
        with pytest.raises(SmilesSyntaxError) as info:
            parse(text)
        assert 0 <= info.value.offset < len(text)

    @pytest.mark.parametrize("sign", "+-")
    def test_every_charge_read_is_written_back(self, sign):
        # The writer writes |charge| > 1 as a sign and its digits, so the
        # reader takes up to two digits and refuses a magnitude above 99 in
        # any form: a canonical key always parses again.
        for magnitude in range(100):
            forms = [f"[C{sign}{magnitude}]", f"[C{sign}{magnitude:02d}]"]
            forms += [f"[C{sign * magnitude}]"] if magnitude else []
            for text in forms:
                key = canonicalize(parse_smiles(text))
                assert parse_smiles(key).atoms[0].charge == int(f"{sign}{magnitude}")
                assert canonicalize(parse_smiles(key)) == key
        for text in (f"[C{sign}100]", f"[C{sign * 100}]"):
            with pytest.raises(MalformedBracketAtom):
                parse_smiles(text)

    @given(st.text(SMILES_ALPHABET, max_size=24))
    @settings(max_examples=300, deadline=None)
    def test_random_text_raises_only_value_errors(self, text):
        for parse in (parse_smiles, parse_smarts, parse_smarts_template):
            try:
                parse(text)
            except SmilesSyntaxError as exc:
                assert 0 <= exc.offset <= len(text)
            except ValueError:
                pass


class TestWrite:
    @pytest.mark.parametrize("fixture", FIXTURES)
    def test_round_trip_isomorphic(self, fixture):
        mol = parse_smiles(fixture)
        again = parse_smiles(write_smiles(mol))
        assert canonicalize(again) == canonicalize(mol)

    def test_single_carbon(self):
        assert write_smiles(parse_smiles("C")) == "C"

    def test_two_components_write_one_dot(self):
        text = write_smiles(parse_smiles("CCO.CC"))
        assert text.count(".") == 1
        assert len(parse_smiles(text).components()) == 2

    def test_map_indices_preserved(self):
        assert write_smiles(parse_smiles("[CH3:1][OH:2]")) == "[CH3:1][OH:2]"

    @pytest.mark.parametrize(
        "text",
        [LONG_CHAIN, "C1" + "C" * 1098 + "C1", LONG_RING],
        ids=["chain", "ring", "substituted ring"],
    )
    def test_long_chain_and_ring_round_trip(self, text):
        assert write_smiles(parse_smiles(text)) == text


class TestCanonicalize:
    def test_same_molecule_different_traversal(self):
        assert canonicalize(parse_smiles("OCC")) == canonicalize(parse_smiles("CCO"))

    def test_methane_stable(self):
        assert canonicalize(parse_smiles("C")) == "C"

    def test_idempotent_on_own_output(self):
        for fixture in FIXTURES:
            canonical = canonicalize(parse_smiles(fixture))
            assert canonicalize(parse_smiles(canonical)) == canonical

    def test_1000_permutations_of_12_atom_fixture(self):
        rng = random.Random(20240901)
        mol = parse_smiles("OCC(N)C(=O)c1ccccc1")
        assert len(mol.atoms) == 12
        forms = {canonicalize(permute_graph(mol, rng)) for _ in range(1000)}
        assert len(forms) == 1

    @pytest.mark.parametrize("fixture", FIXTURES)
    def test_100_permutations_each_fixture(self, fixture):
        rng = random.Random(hash(fixture) & 0xFFFF)
        mol = parse_smiles(fixture)
        reference = canonicalize(mol)
        for _ in range(100):
            assert canonicalize(permute_graph(mol, rng)) == reference

    def test_strips_map_indices(self):
        assert canonicalize(parse_smiles("[CH3:1][OH:2]")) == "CO"
        assert canonicalize(parse_smiles("[NH3:3].[CH3:1][OH:2]")) == "CO.N"

    def test_long_chain_and_ring_round_trip(self):
        assert canonicalize(parse_smiles(LONG_CHAIN)) == LONG_CHAIN
        canonical = canonicalize(parse_smiles(LONG_RING))
        assert canonicalize(parse_smiles(canonical)) == canonical


class TestHydrogens:
    def test_methane_gains_four(self):
        mol = add_explicit_hydrogens(parse_smiles("C"))
        assert sum(1 for a in mol.atoms if a.element == "H") == 4
        assert len(mol.atoms) == 5

    def test_water_gains_two(self):
        mol = add_explicit_hydrogens(parse_smiles("O"))
        assert sum(1 for a in mol.atoms if a.element == "H") == 2

    def test_formaldehyde_valence_arithmetic(self):
        mol = parse_smiles("C=O")
        assert [a.hydrogens for a in mol.atoms] == [2, 0]
        expanded = add_explicit_hydrogens(mol)
        assert sum(1 for a in expanded.atoms if a.element == "H") == 2

    @pytest.mark.parametrize("fixture", FIXTURES)
    def test_idempotent(self, fixture):
        once = add_explicit_hydrogens(parse_smiles(fixture))
        assert add_explicit_hydrogens(once) == once

    @pytest.mark.parametrize("fixture", FIXTURES)
    def test_remove_is_inverse(self, fixture):
        mol = parse_smiles(fixture)
        assert canonicalize(remove_explicit_hydrogens(add_explicit_hydrogens(mol))) == canonicalize(mol)

    def test_remove_keeps_atoms_that_gain_nothing(self):
        mol = parse_smiles("[H]OC(=O)C")
        folded = remove_explicit_hydrogens(mol)
        assert folded == parse_smiles("OC(=O)C")
        assert all(folded.atoms[i] is mol.atoms[i + 1] for i in (1, 2, 3))

    def test_molecular_hydrogen_kept(self):
        mol = parse_smiles("[H][H]")
        assert remove_explicit_hydrogens(mol) == mol

    def test_valence_exceeded(self):
        bad = MolecularGraph(
            (Atom("C"), Atom("O"), Atom("O"), Atom("O")),
            (Bond(0, 1, DOUBLE), Bond(0, 2, DOUBLE), Bond(0, 3, DOUBLE)),
        )
        with pytest.raises(ValenceExceeded):
            add_explicit_hydrogens(bad)


class TestGraphInvariants:
    def test_zero_atom_graph_invalid(self):
        with pytest.raises(ValueError):
            MolecularGraph((), ())

    def test_no_self_loops(self):
        with pytest.raises(ValueError):
            Bond(2, 2)

    def test_no_parallel_bonds(self):
        with pytest.raises(ValueError):
            MolecularGraph(
                (Atom("C"), Atom("C")), (Bond(0, 1), Bond(1, 0, DOUBLE))
            )

    @pytest.mark.parametrize("fixture", FIXTURES)
    def test_aromatic_atoms_always_cyclic(self, fixture):
        mol = parse_smiles(fixture)
        ring_atoms = {i for pair in mol.ring_bonds() for i in pair}
        for idx, atom in enumerate(mol.atoms):
            if atom.aromatic:
                assert idx in ring_atoms
