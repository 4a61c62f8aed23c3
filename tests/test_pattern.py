import random
import time
from dataclasses import replace
from functools import partial
from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import molecules, permute_graph
from retrobio import pattern
from retrobio.fingerprint import molecule_fingerprints
from retrobio.molgraph import (
    AROMATIC,
    Atom,
    Bond,
    DOUBLE,
    MolecularGraph,
    ORDER_VALENCE,
    SINGLE,
    VALENCES,
    _fold_anchor,
    _with_gained,
    add_explicit_hydrogens,
    canonicalize,
    implied_hydrogens,
    lowest_feasible_valence,
    parse_smiles,
    remove_explicit_hydrogens,
)
from retrobio.pattern import (
    DuplicateMapIndexOnSide,
    MissingArrow,
    PatternAtom,
    PatternBond,
    PatternGraph,
    ReactionTemplate,
    RewriteProducedEmptyGraph,
    TemplateError,
    UnmappedRewriteReference,
    apply_template,
    enumerate_precursors,
    find_matches,
    load_templates,
    parse_smarts,
    parse_smarts_template,
)
from synthdata import make_templates

# The two reconstruction templates: a reaction-center-only rewrite (three
# carbons, one hydrogen) and the same rewrite constrained by every
# distance-1 neighbour. Applied to 3,3-dimethyloctan-1-ol they give 15 and
# 2 distinct precursor sets, with 48 raw matches for the constrained one.
LOOSE_SMARTS = "[C:1]([H:2])[C:3][C:4]>>[C:1]=[C:3].[C:4][H:2]"
TIGHT_SMARTS = (
    "[*:8][C:1]([H:10])([H:11])[C:2]([H:4])([H:9])[C:3]([C:5])([C:6])[C:7]"
    ">>[*:8][C:1]([H:11])=[C:2]([H:4])[H:9].[C:3]([C:5])([C:6])([C:7])[H:10]"
)
PRODUCT_FIXTURE = "OCCC(C)(C)CCCCC"


def brute_force_matches(pattern: PatternGraph, target: MolecularGraph):
    """Exhaustive injective assignment enumeration; the matcher oracle.

    Every tuple of target atoms that meet each pattern atom's constraints is
    tried, the same set as every permutation that meets them, but without
    walking the permutations that fail an atom constraint."""
    n = len(pattern.atoms)
    orders = {(b.a, b.b): b.order for b in target.bonds}
    allowed = [
        [t for t in range(len(target.atoms)) if atom.matches(target, t)]
        for atom in pattern.atoms
    ]
    found = []
    for perm in product(*allowed):
        ok = len(set(perm)) == n
        if ok:
            for bond in pattern.bonds:
                lo, hi = sorted((perm[bond.a], perm[bond.b]))
                order = orders.get((lo, hi))
                if order not in bond.orders:
                    ok = False
                    break
        if ok:
            found.append(tuple(perm))
    return sorted(found)


def random_molecule(rng: random.Random, max_atoms: int = 10) -> MolecularGraph:
    """Random valence-respecting connected graph over C/N/O."""
    n = rng.randint(1, max_atoms)
    elements = [rng.choice("CCCNO") for _ in range(n)]
    free = [max(VALENCES[e]) for e in elements]
    bonds = []
    for i in range(1, n):
        j = rng.randrange(i)
        if free[i] >= 1 and free[j] >= 1:
            order = DOUBLE if (rng.random() < 0.2 and free[i] > 1 and free[j] > 1) else SINGLE
            k = 2 if order == DOUBLE else 1
            bonds.append(Bond(j, i, order))
            free[i] -= k
            free[j] -= k
    atoms = []
    for i, element in enumerate(elements):
        used = sum(
            2 if b.order == DOUBLE else 1 for b in bonds if i in (b.a, b.b)
        )
        hydrogens = lowest_feasible_valence(element, used) - used
        atoms.append(Atom(element, hydrogens=hydrogens))
    return MolecularGraph(tuple(atoms), tuple(bonds))


def random_pattern(rng: random.Random, max_atoms: int = 4) -> PatternGraph:
    """Random small chain/star pattern with random constraint subsets."""
    n = rng.randint(1, max_atoms)
    atoms = []
    for _ in range(n):
        atoms.append(
            PatternAtom(
                element=rng.choice([None, "C", "C", "N", "O"]),
                aromatic=rng.choice([None, False]),
                h_count=rng.choice([None, None, None, 0, 1, 2, 3]),
                degree=rng.choice([None, None, None, 1, 2]),
            )
        )
    bonds = []
    for i in range(1, n):
        j = rng.randrange(i) if rng.random() < 0.7 else i - 1
        order = rng.choice([None, None, SINGLE, DOUBLE])
        bonds.append((min(i, j), max(i, j), order))
    unique = {}
    for a, b, order in bonds:
        unique[(a, b)] = order
    return PatternGraph(
        tuple(atoms), tuple(PatternBond(a, b, o) for (a, b), o in unique.items())
    )


def unpruned(fn, *args):
    """``fn(*args)`` with every match rewritten: each atom is its own site
    token, so no two matches share a site."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(pattern, "_site_tokens", lambda mol: list(range(len(mol.atoms))))
        return fn(*args)


def outcome(fn, *args):
    """``fn(*args)`` as (keys, provenance, graphs) triples, since candidate
    equality skips the graphs."""
    try:
        return [(c.precursor_keys, c.provenance, c.precursors) for c in fn(*args)]
    except RewriteProducedEmptyGraph:
        return RewriteProducedEmptyGraph


def enumerated(target, templates):
    """enumerate_precursors with the graphs, which candidate equality skips."""
    return [
        (c.precursor_keys, c.provenance, c.precursors)
        for c in enumerate_precursors(target, templates)
    ]


# Corpus templates plus ones that stress the site key: the two
# reconstruction templates, an H bonded to a wildcard, an H bonded to no
# pattern atom (so only the site key says which atom it hangs on), and
# charge rewrites.
ORACLE_TEMPLATES = make_templates() + [
    parse_smarts_template(s, template_id=f"X{i}")
    for i, s in enumerate(
        (
            LOOSE_SMARTS,
            TIGHT_SMARTS,
            "[*:1][H]>>[*:1]",
            "[H:1]>>[F:1]",
            "[N+:1][H]>>[N+0:1]",
            "[O-:1]>>[O+0:1][H]",
        )
    )
]


# ---------------------------------------------------------------------------
# The rewrite before it copied only claimed hydrogens, kept as the reference
# for ``pattern._rewrite``: it copies the whole hydrogen-expanded target,
# rewrites it and folds every plain H back. The two must give the same
# graphs, atom order, adjacency and keys at every site whose deleted atoms
# are all hydrogens; where a heavy atom is deleted, this one leaves that
# atom's unclaimed hydrogens behind (see TestUnclaimedHydrogens).


def reference_rewrite(
    template: ReactionTemplate,
    work: MolecularGraph,
    match: tuple[int, ...],
    plan,
    keys_of: dict,
) -> tuple[tuple[MolecularGraph, ...], tuple[str, ...]] | None:
    """Apply the rewrite at one match site; ``plan`` is the template's
    ``_rewrite_plan``, ``keys_of`` the canonical keys by (atoms, bonds).

    Returns (precursor graphs, sorted canonical keys), or None when the
    result fails valence/aromaticity sanitization.
    """
    deleted_lhs, broken, made = plan
    rhs = template.rhs
    atoms: list[Atom] = list(work.atoms)
    bonds: dict[tuple[int, int], str] = {
        (b.a, b.b): b.order for b in work.bonds
    }
    rhs_to_target = {r: match[l] for _, l, r in template.mapping}

    # Unmapped lhs atoms delete their matched target atom.
    deleted = {match[i] for i in deleted_lhs}

    dirty: set[int] = set()

    def drop_bond(u: int, v: int):
        key = (min(u, v), max(u, v))
        if key in bonds:
            del bonds[key]
            dirty.update(key)

    def set_bond(u: int, v: int, order: str):
        key = (min(u, v), max(u, v))
        if bonds.get(key) != order:
            bonds[key] = order
            dirty.update(key)

    for t in deleted:
        for v, _ in work.neighbors(t):
            drop_bond(t, v)

    # Fresh atoms for unmapped rhs atoms.
    for r, p in enumerate(rhs.atoms):
        if p.map_index is not None:
            continue
        idx = len(atoms)
        atoms.append(
            Atom(
                element=p.element,
                aromatic=bool(p.aromatic),
                hydrogens=p.h_count or 0,
                charge=p.charge or 0,
            )
        )
        rhs_to_target[r] = idx
        if p.h_count is None:
            dirty.add(idx)

    # Property updates on mapped atoms.
    h_fixed: set[int] = set()
    for _, l, r in template.mapping:
        t = match[l]
        p = rhs.atoms[r]
        atom = atoms[t]
        if p.element is not None and p.element != atom.element:
            atom = replace(atom, element=p.element)
        if p.aromatic is not None and p.aromatic != atom.aromatic:
            atom = replace(atom, aromatic=p.aromatic)
        if p.charge is not None and p.charge != atom.charge:
            atom = replace(atom, charge=p.charge)
        if p.h_count is not None:
            atom = replace(atom, hydrogens=p.h_count)
            h_fixed.add(t)
        atoms[t] = atom
        dirty.add(t)

    # lhs bonds between two mapped atoms: deleted unless rhs repeats them.
    for a, b in broken:
        drop_bond(match[a], match[b])

    # rhs bonds, covering order changes, new bonds and fresh-atom bonds.
    for a, b, order in made:
        set_bond(rhs_to_target[a], rhs_to_target[b], order)

    # Recompute stored hydrogens where the environment changed.
    survivors = [i for i in range(len(atoms)) if i not in deleted]
    adjacency: dict[int, list[tuple[int, str]]] = {i: [] for i in survivors}
    for (u, v), order in bonds.items():
        adjacency[u].append((v, order))
        adjacency[v].append((u, order))
    for t in sorted(dirty - deleted):
        if t in h_fixed:
            continue
        atom = atoms[t]
        if atom.element not in VALENCES:
            continue
        bond_valence = sum(ORDER_VALENCE[o] for _, o in adjacency[t])
        h = implied_hydrogens(atom.element, bond_valence, atom.charge)
        if h is None:
            return None  # valence blown; sanitization failure
        if h != atom.hydrogens:
            atoms[t] = replace(atom, hydrogens=h)

    if not survivors:
        raise RewriteProducedEmptyGraph(
            f"template {template.template_id or template.smarts!r} deleted "
            "every atom of the target"
        )
    precursors = []
    keys = []
    for sub in reference_fold_and_split(atoms, bonds, survivors, adjacency):
        # Only sanitized graphs get a key, so a known graph is sane.
        key = keys_of.get(graph := (sub.atoms, sub.bonds))
        if key is None:
            if not pattern._sanitize(sub):
                return None
            key = keys_of[graph] = canonicalize(sub)
        precursors.append(sub)
        keys.append(key)
    order_idx = sorted(range(len(keys)), key=lambda i: keys[i])
    return (
        tuple(precursors[i] for i in order_idx),
        tuple(keys[i] for i in order_idx),
    )


def reference_fold_and_split(
    atoms: list[Atom],
    bonds: dict[tuple[int, int], str],
    survivors: list[int],
    adjacency: dict[int, list[tuple[int, str]]],
) -> list[MolecularGraph]:
    """One graph per connected component of the rewritten atoms, with plain
    explicit H folded into their anchors.

    Each graph equals ``remove_explicit_hydrogens`` of the component's
    induced subgraph, atom and bond order included: components come in
    order of their lowest atom index, atoms keep index order, bonds are
    sorted by their (low, high) indices.
    """
    folded: set[int] = set()
    gained: dict[int, int] = {}
    for t in survivors:
        anchor = _fold_anchor(atoms[t], adjacency[t], atoms)
        if anchor is not None:
            folded.add(t)
            gained[anchor] = gained.get(anchor, 0) + 1
    comp_of: dict[int, int] = {}
    local: dict[int, int] = {}
    members: list[list[int]] = []
    for start in survivors:
        if start in comp_of:
            continue
        comp_of[start] = len(members)
        stack, comp = [start], []
        while stack:
            u = stack.pop()
            comp.append(u)
            for v, _ in adjacency[u]:
                if v not in comp_of:
                    comp_of[v] = len(members)
                    stack.append(v)
        kept = [i for i in sorted(comp) if i not in folded]
        local.update((old, new) for new, old in enumerate(kept))
        members.append(kept)
    comp_bonds: list[list[Bond]] = [[] for _ in members]
    for (u, v), order in sorted(bonds.items()):
        if u not in folded and v not in folded:
            comp_bonds[comp_of[u]].append(Bond(local[u], local[v], order))
    return [
        MolecularGraph(
            tuple(_with_gained(atoms[i], gained.get(i, 0)) for i in kept),
            tuple(comp_bond),
        )
        for kept, comp_bond in zip(members, comp_bonds)
    ]


# The oracle templates plus rewrites whose outcome depends on how an
# anchor's unclaimed hydrogens are counted: an rhs-fixed count, a raised
# bond order on multivalent S and P with and without named hydrogens, and
# two claimed hydrogens that stay atoms; and a ring closure, which bonds
# two atoms of the target that were not bonded.
REWRITE_TEMPLATES = ORACLE_TEMPLATES + [
    parse_smarts_template(s, template_id=f"R{i}")
    for i, s in enumerate(
        (
            "[C:1]([H])[O:2][H]>>[CH0:1]=[O:2]",
            "[*:1]([H])[*:2]>>[*:1]=[*:2]",
            "[C:1][S:2]>>[C:1]=[S:2]",
            "[C:1]([H:2])[H:3]>>[C:1]([F:2])[Cl:3]",
            "[CH3:1][C:2][C:3][CH3:4]>>[C:1]1[C:2][C:3][C:4]1",
        )
    )
]


def rewrite_pairs(template, target):
    """(``_rewrite``, ``reference_rewrite``) of ``template`` at the first
    match of every site on ``target``, skipping sites that delete a heavy
    atom; each side as graphs with their adjacency and keys, None, or the
    exception class."""
    prepared = pattern._Prepared(target, {})
    work, tokens = prepared.form(template.uses_explicit_hydrogens)
    plan = pattern._rewrite_plan(template)
    sites, pairs = set(), []
    for match in find_matches(template.lhs, work):
        site = tuple(tokens[i] for i in match)
        if site in sites or any(work.atoms[match[i]].element != "H" for i in plan[0]):
            continue
        sites.add(site)
        pairs.append(
            (
                rewritten(pattern._rewrite, template, work, match, plan, prepared),
                rewritten(reference_rewrite, template, work, match, plan, {}),
            )
        )
    return pairs


def rewritten(fn, *args):
    try:
        result = fn(*args)
    except RewriteProducedEmptyGraph:
        return RewriteProducedEmptyGraph
    if result is None:
        return None
    graphs, keys = result
    return [(g.atoms, g.bonds, g._adjacency) for g in graphs], keys


class TestParseTemplate:
    def test_minimal_mapped_template(self):
        t = parse_smarts_template("[CH3:1][OH:2]>>[CH3:1][O-:2]")
        assert len(t.lhs.atoms) == 2
        assert len(t.rhs.atoms) == 2
        assert len(t.mapping) == 2

    def test_reaction_center_template_has_4_pairs(self):
        assert len(parse_smarts_template(LOOSE_SMARTS).mapping) == 4

    def test_neighbourhood_template_has_11_pairs(self):
        assert len(parse_smarts_template(TIGHT_SMARTS).mapping) == 11

    def test_missing_arrow(self):
        with pytest.raises(MissingArrow):
            parse_smarts_template("[C:1][C:2]")
        with pytest.raises(MissingArrow):
            parse_smarts_template("[C:1]>>[C:1]>>[C:1]")

    def test_duplicate_map_index_on_side(self):
        with pytest.raises(DuplicateMapIndexOnSide):
            parse_smarts_template("[C:1][C:1]>>[C:1][C:1]")

    def test_unmapped_rewrite_reference(self):
        with pytest.raises(UnmappedRewriteReference):
            parse_smarts_template("[C:1]>>[C:2]")
        with pytest.raises(UnmappedRewriteReference):
            parse_smarts_template("[C:1][C:2]>>[C:1]")

    def test_fresh_rhs_atom_needs_element(self):
        with pytest.raises(ValueError):
            parse_smarts_template("[C:1]>>[C:1]*")

    def test_wildcard_and_constraints(self):
        p = parse_smarts("[*:1][CH2D2:2]")
        assert p.atoms[0].element is None
        assert p.atoms[1].h_count == 2
        assert p.atoms[1].degree == 2


class TestFindMatches:
    def test_single_carbon_vs_ethane(self):
        assert len(find_matches(parse_smarts("C"), parse_smiles("CC"))) == 2

    def test_aliphatic_pattern_vs_benzene(self):
        assert find_matches(parse_smarts("CC"), parse_smiles("c1ccccc1")) == []

    def test_interchangeable_hydrogens_multiply_matches(self):
        # two mapped H constraints on one carbon: every match comes in pairs
        pattern = parse_smarts("[O:1][C:2]([H:3])[H:4]")
        target = add_explicit_hydrogens(parse_smiles("OCC"))
        matches = find_matches(pattern, target)
        assert matches and len(matches) % 2 == 0

    def test_results_sorted_lexicographically(self):
        matches = find_matches(parse_smarts("CC"), parse_smiles("CCC"))
        assert matches == sorted(matches)

    def test_chain_longer_than_recursion_limit(self):
        # The matcher keeps one candidate iterator per placed atom on its own
        # stack, not one Python frame, and picks each next atom among the
        # placed atoms' neighbours, so a long chain matches in linear time.
        n = 1500
        pattern = parse_smarts("[CH3:1]" + "[C]" * (n - 2) + "[O]")
        target = parse_smiles("C" * (n - 1) + "O")
        start = time.perf_counter()
        assert find_matches(pattern, target) == [tuple(range(n))]
        assert time.perf_counter() - start < 0.5

    def test_oracle_equivalence_200_random_pairs(self):
        rng = random.Random(1127)
        for _ in range(200):
            target = random_molecule(rng)
            pattern = random_pattern(rng)
            assert find_matches(pattern, target) == brute_force_matches(
                pattern, target
            )

    def test_shared_candidate_memo_oracle_on_both_hydrogen_forms(self):
        # The templates of one search node share one candidate memo per
        # hydrogen form; every pattern must still match as if alone. The
        # targets are the 200 above.
        rng, patterns = random.Random(1127), random.Random(31)
        for _ in range(200):
            target = random_molecule(rng)
            random_pattern(rng)  # the pattern drawn above, so the targets agree
            for form in (target, add_explicit_hydrogens(target)):
                memo = {}
                for _ in range(12):
                    pattern = random_pattern(patterns)
                    assert find_matches(pattern, form, memo) == brute_force_matches(
                        pattern, form
                    )

    def test_ring_patterns_through_a_shared_memo(self):
        # A ring's last atom bonds to two placed atoms: the matcher walks
        # from one and checks the other bond on its own. The random
        # patterns above are trees.
        rng, matched = random.Random(7), 0
        for smiles in ("C1CC1C", "OC1CCC1", "C1CCNC1", "CC1=CCC1", "C1CC12CC2"):
            for form in (parse_smiles(smiles), add_explicit_hydrogens(parse_smiles(smiles))):
                memo = {}
                for _ in range(60):
                    size = rng.choice([3, 4])
                    atoms = tuple(
                        PatternAtom(
                            element=rng.choice([None, "C", "C", "C", "O"]),
                            h_count=rng.choice([None, None, None, 1, 2]),
                        )
                        for _ in range(size + rng.choice([0, 1]))
                    )
                    ring = [(i, (i + 1) % size) for i in range(size)]
                    bonds = tuple(
                        PatternBond(min(a, b), max(a, b), rng.choice([None] * 4 + [SINGLE, DOUBLE]))
                        for a, b in ring + [(0, size)] * (len(atoms) > size)
                    )
                    pattern = PatternGraph(atoms, bonds)
                    found = find_matches(pattern, form, memo)
                    assert found == brute_force_matches(pattern, form)
                    matched += bool(found)
        assert matched > 10


class TestApplyTemplate:
    @given(molecules())
    @settings(max_examples=60, deadline=None)
    def test_one_prepared_target_equals_a_fresh_one_per_template(self, target):
        # enumerate_precursors hands all templates one _Prepared, whose
        # candidate memo and hydrogen forms they share. The two D templates
        # ask for one degree on both forms, where H neighbours count in one.
        prepared = pattern._Prepared(target, {})
        degree = [
            parse_smarts_template("[CD1:1][H]>>[C:1]F", template_id="D1"),
            parse_smarts_template("[CD1:1]>>[N:1]", template_id="D2"),
        ]
        for template in make_templates() + degree:
            assert outcome(
                partial(apply_template, prepared=prepared), template, target
            ) == outcome(apply_template, template, target)

    def test_loose_template_15_outcomes(self):
        template = parse_smarts_template(LOOSE_SMARTS, template_id="loose")
        apps = apply_template(template, parse_smiles(PRODUCT_FIXTURE))
        assert len(apps) == 15

    def test_tight_template_2_outcomes_48_raw_matches(self):
        template = parse_smarts_template(TIGHT_SMARTS, template_id="tight")
        work = add_explicit_hydrogens(parse_smiles(PRODUCT_FIXTURE))
        assert len(find_matches(template.lhs, work)) == 48
        apps = apply_template(template, parse_smiles(PRODUCT_FIXTURE))
        assert len(apps) == 2

    def test_tight_template_rewrites_each_site_once(self, monkeypatch):
        # The 48 matches are 2 sites x 6 orders of the three carbons on C3
        # x 4 swaps of sibling H on C1 and C2; the H swaps are not rewritten.
        calls = []
        rewrite = pattern._rewrite

        def counted(*args):
            calls.append(args[2])
            return rewrite(*args)

        monkeypatch.setattr(pattern, "_rewrite", counted)
        template = parse_smarts_template(TIGHT_SMARTS, template_id="tight")
        target = parse_smiles(PRODUCT_FIXTURE)
        assert len(find_matches(template.lhs, add_explicit_hydrogens(target))) == 48
        assert len(apply_template(template, target)) == 2
        assert len(calls) == 12

    def test_tight_outcomes_subset_of_loose(self):
        loose = parse_smarts_template(LOOSE_SMARTS)
        tight = parse_smarts_template(TIGHT_SMARTS)
        target = parse_smiles(PRODUCT_FIXTURE)
        loose_keys = {a.precursor_keys for a in apply_template(loose, target)}
        tight_keys = {a.precursor_keys for a in apply_template(tight, target)}
        assert tight_keys < loose_keys

    def test_identity_template_on_methane(self):
        template = parse_smarts_template("[C:1]>>[C:1]")
        apps = apply_template(template, parse_smiles("C"))
        assert [a.precursor_keys for a in apps] == [("C",)]

    def test_alcohol_to_aldehyde(self):
        template = parse_smarts_template(
            "[C:1]([H])([H:2])[O:3][H]>>[C:1]([H:2])=[O:3]"
        )
        apps = apply_template(template, parse_smiles("OCCCCO"))
        assert [a.precursor_keys for a in apps] == [
            (canonicalize(parse_smiles("O=CCCCO")),)
        ]

    def test_outcomes_reparse_and_pass_valence(self):
        template = parse_smarts_template(LOOSE_SMARTS)
        for app in apply_template(template, parse_smiles(PRODUCT_FIXTURE)):
            for key in app.precursor_keys:
                mol = parse_smiles(key)  # re-parses cleanly
                add_explicit_hydrogens(mol)  # would raise on bad valence

    def test_no_duplicate_outcome_keys(self):
        template = parse_smarts_template(LOOSE_SMARTS)
        apps = apply_template(template, parse_smiles(PRODUCT_FIXTURE))
        keys = [a.precursor_keys for a in apps]
        assert len(keys) == len(set(keys))

    def test_element_rewrite(self):
        template = parse_smarts_template("[C:1][O:2]>>[C:1][S:2]")
        apps = apply_template(template, parse_smiles("CCO"))
        assert [a.precursor_keys for a in apps] == [("CCS",)]

    def test_deleted_atom_rehydrogenates_mapped_neighbour(self):
        template = parse_smarts_template("[C:1][O]>>[C:1]")
        apps = apply_template(template, parse_smiles("CCO"))
        assert [a.precursor_keys for a in apps] == [("CC",)]

    def test_deleted_atom_rehydrogenates_spectator_neighbour(self):
        template = parse_smarts_template("[O:1][C]>>[O:1]")
        apps = apply_template(template, parse_smiles("CCO"))
        assert [a.precursor_keys for a in apps] == [("C", "O")]

    def test_aromatic_ring_cut_fails_sanitization(self):
        template = parse_smarts_template("[c:1][c:2]>>[c:1].[c:2]")
        assert apply_template(template, parse_smiles("c1ccccc1")) == []

    def test_bond_order_change(self):
        template = parse_smarts_template("[C:1]=[O:2]>>[C:1][O:2]")
        apps = apply_template(template, parse_smiles("CC(=O)C"))
        assert [a.precursor_keys for a in apps] == [("CC(C)O",)]

    def test_charge_rewrite(self):
        template = parse_smarts_template("[CH3:1][OH:2]>>[CH3:1][O-:2]")
        apps = apply_template(template, parse_smiles("CO"))
        assert [a.precursor_keys for a in apps] == [("C[O-]",)]

    def test_monotonic_specificity(self):
        # Adding a constraint to a pattern atom never increases matches.
        rng = random.Random(5)
        for _ in range(50):
            target = random_molecule(rng)
            pattern = random_pattern(rng, max_atoms=3)
            base = len(find_matches(pattern, target))
            idx = rng.randrange(len(pattern.atoms))
            before = pattern.atoms[idx]
            if before.h_count is None:
                import dataclasses

                constrained = dataclasses.replace(before, h_count=1)
                atoms = list(pattern.atoms)
                atoms[idx] = constrained
                tighter = PatternGraph(tuple(atoms), pattern.bonds)
                assert len(find_matches(tighter, target)) <= base


class TestEnumeratePrecursors:
    def test_empty_template_list(self):
        assert enumerate_precursors(parse_smiles("CCO"), []) == []

    def test_redundant_templates_merge_provenance(self):
        t1 = parse_smarts_template(
            "[C:1]([H])([H:2])[O:3][H]>>[C:1]([H:2])=[O:3]",
            template_id="A",
            ec_numbers=("1.1.1.1",),
        )
        t2 = parse_smarts_template(
            "[O:3]([H])[C:1]([H])[H:2]>>[C:1]([H:2])=[O:3]",
            template_id="B",
            ec_numbers=("1.1.1.2",),
        )
        candidates = enumerate_precursors(parse_smiles("CCO"), [t1, t2])
        assert len(candidates) == 1
        assert candidates[0].provenance == (
            ("A", ("1.1.1.1",)),
            ("B", ("1.1.1.2",)),
        )

    def test_bdo_yields_hydroxybutyraldehyde(self, synth_corpus):
        _, templates, _, _ = synth_corpus
        candidates = enumerate_precursors(parse_smiles("OCCCCO"), templates)
        expected = canonicalize(parse_smiles("O=CCCCO"))
        assert any(c.precursor_keys == (expected,) for c in candidates)

    def test_no_two_candidates_share_key(self, synth_corpus):
        _, templates, _, _ = synth_corpus
        candidates = enumerate_precursors(parse_smiles("OCCCC(C)CO"), templates)
        keys = [c.precursor_keys for c in candidates]
        assert len(keys) == len(set(keys))

    def test_worker_count_does_not_change_output(self, synth_corpus):
        _, templates, _, _ = synth_corpus
        target = parse_smiles("OCCCCC")
        assert enumerate_precursors(target, templates) == enumerate_precursors(
            target, templates
        )

    def test_candidate_graphs_stand_for_their_keys(self):
        # The search fingerprints and expands the graphs a rewrite built
        # instead of parsing their keys, so each must behave as the parse.
        from synthdata import build_corpus

        _, templates, positives, _ = build_corpus(max_length=5)
        true_precursors = {}
        for pos in positives:
            product = parse_smiles(pos.product_key)
            for cand in enumerate_precursors(product, templates):
                assert len(cand.precursors) == len(cand.precursor_keys)
                for key, graph in zip(cand.precursor_keys, cand.precursors):
                    parsed = parse_smiles(key)
                    assert canonicalize(graph) == key
                    built, read = molecule_fingerprints([graph, parsed])
                    assert built == read
                    assert graph.heavy_atom_count() == parsed.heavy_atom_count()
                if cand.precursor_keys == pos.reactant_keys:
                    true_precursors.update(zip(cand.precursor_keys, cand.precursors))
        # every aldehyde and acid of the corpus, each built by a rewrite
        assert set(true_precursors) == {k for p in positives for k in p.reactant_keys}
        for key, graph in true_precursors.items():
            assert enumerate_precursors(graph, templates) == enumerate_precursors(
                parse_smiles(key), templates
            )

    def test_shared_key_memo_equals_fresh_memo(self, synth_corpus):
        # A search level hands one canonical-key memo to all its nodes.
        alcohols, templates, positives, _ = synth_corpus
        keys_of = {}
        for key in alcohols + [p.reactant_keys[0] for p in positives]:
            target = parse_smiles(key)
            shared = [
                (c.precursor_keys, c.provenance, c.precursors)
                for c in enumerate_precursors(target, templates, keys_of)
            ]
            assert shared == enumerated(target, templates)


class TestSitePruning:
    """Rewriting one match per site must give exactly what rewriting every
    match gives: the same outcomes, in order, graphs included."""

    def test_pruned_equals_unpruned_on_corpus(self, synth_corpus):
        alcohols, templates, positives, _ = synth_corpus
        aldehydes = [p.reactant_keys[0] for p in positives[::2]]
        for key in alcohols + aldehydes:
            target = parse_smiles(key)
            assert enumerated(target, templates) == unpruned(
                enumerated, target, templates
            )

    @given(molecules())
    @settings(max_examples=60, deadline=None)
    def test_pruned_equals_unpruned_on_generated_molecules(self, target):
        for template in ORACLE_TEMPLATES:
            assert outcome(apply_template, template, target) == unpruned(
                outcome, apply_template, template, target
            )
        assert enumerated(target, ORACLE_TEMPLATES) == unpruned(
            enumerated, target, ORACLE_TEMPLATES
        )

    def test_bracket_hydrogens_and_charges(self):
        for smiles in ("[H]OCC", "[H]C([H])([H])CO", "C[NH3+]", "CC(=O)[O-]", "[H]N([H])CC=O"):
            target = parse_smiles(smiles)
            assert enumerated(target, ORACLE_TEMPLATES) == unpruned(
                enumerated, target, ORACLE_TEMPLATES
            )

    @given(molecules(), st.randoms(use_true_random=False))
    @settings(max_examples=40, deadline=None)
    def test_atom_order_does_not_change_candidates(self, target, rng):
        templates = make_templates()

        def keyed(mol):
            return [
                (c.precursor_keys, c.provenance)
                for c in enumerate_precursors(mol, templates)
            ]

        assert keyed(permute_graph(target, rng)) == keyed(target)


class TestRewriteOracle:
    """``_rewrite`` on the target plus the claimed hydrogens gives what
    ``reference_rewrite`` gives on the whole expanded target."""

    def test_corpus(self, synth_corpus):
        alcohols, _, positives, _ = synth_corpus
        keys = alcohols + sorted({k for p in positives for k in p.reactant_keys})
        checked = 0
        for key in keys:
            for template in REWRITE_TEMPLATES:
                for new, ref in rewrite_pairs(template, parse_smiles(key)):
                    assert new == ref, (key, template.smarts)
                    checked += new is not None
        assert checked > 3000

    @given(molecules())
    @settings(max_examples=80, deadline=None)
    def test_generated_molecules(self, target):
        for template in REWRITE_TEMPLATES:
            for new, ref in rewrite_pairs(template, target):
                assert new == ref, template.smarts

    @pytest.mark.parametrize(
        "smiles",
        [
            "[H]OCC", "[H]C([H])([H])CO", "C[NH3+]", "CC(=O)[O-]", "[H]N([H])CC=O",
            "OCC.[H][H]", "CS", "OCCS", "CCP", "CS(C)=O",
        ],
    )
    def test_other_targets(self, smiles):
        pairs = [p for t in REWRITE_TEMPLATES for p in rewrite_pairs(t, parse_smiles(smiles))]
        assert pairs and all(new == ref for new, ref in pairs)


class TestUnclaimedHydrogens:
    """Hydrogens a match does not claim stay counts, whether or not the
    template names hydrogens: a deleted atom's go with it instead of being
    left behind as H2."""

    @pytest.mark.parametrize(
        "smarts, smiles, expected",
        [
            ("[C:1][O]>>[C:1]", "CCO", [("CC",)]),
            ("[C:1]([H])[O]>>[C:1]", "CCO", [("CC",)]),
            ("[O:1][C]>>[O:1]", "OCC", [("C", "O")]),
            ("[O:1][C][H]>>[O:1]", "OCC", [("C", "O")]),
            ("[O:1][C]([H])[H]>>[O:1]", "OCC", [("C", "O")]),
        ],
    )
    def test_no_hydrogen_left_behind(self, smarts, smiles, expected):
        template = parse_smarts_template(smarts)
        apps = apply_template(template, parse_smiles(smiles))
        assert [a.precursor_keys for a in apps] == expected

    def test_untouched_hydrogen_molecule_keeps_its_form(self):
        # An [HH] the match does not claim stays one atom with a count, as
        # it does under a template that names no hydrogens.
        named = parse_smarts_template("[C:1]([H])([H:2])[O:3][H]>>[C:1]([H:2])=[O:3]")
        unnamed = parse_smarts_template("[C:1][O:2]>>[C:1][S:2]")
        target = parse_smiles("OCC.[HH]")
        assert [a.precursor_keys for a in apply_template(named, target)] == [("CC=O", "[HH]")]
        assert [a.precursor_keys for a in apply_template(unnamed, target)] == [("CCS", "[HH]")]


class TestFoldAndSplit:
    @given(molecules(), st.randoms(use_true_random=False))
    @settings(max_examples=80, deadline=None)
    def test_equals_fold_of_each_component_subgraph(self, mol, rng):
        # A rewrite builds its precursors straight from its atom list and
        # bond table; they must equal the old three-step construction, atom
        # and bond order included, with deleted atoms leaving index gaps.
        mol = permute_graph(mol, rng)
        survivors = sorted(rng.sample(range(len(mol.atoms)), rng.randint(1, len(mol.atoms))))
        kept = set(survivors)
        items = [((b.a, b.b), b.order) for b in mol.bonds if b.a in kept and b.b in kept]
        rng.shuffle(items)
        bonds = dict(items)
        adjacency = {i: [] for i in survivors}
        for (u, v), order in bonds.items():
            adjacency[u].append((v, order))
            adjacency[v].append((u, order))
        adjacency = {i: tuple(sorted(row)) for i, row in adjacency.items()}
        remap = {old: new for new, old in enumerate(survivors)}
        rest = MolecularGraph(
            tuple(mol.atoms[i] for i in survivors),
            tuple(Bond(remap[u], remap[v], o) for (u, v), o in sorted(bonds.items())),
        )
        expected = [remove_explicit_hydrogens(rest.subgraph(c)) for c in rest.components()]
        built = pattern._fold_and_split(list(mol.atoms), survivors, adjacency)
        assert built == expected
        assert [g._adjacency for g in built] == [g._adjacency for g in expected]


def eager_sanitize(mol: MolecularGraph) -> bool:
    """``_sanitize`` with the ring search run up front on every graph."""
    ring_atoms = {i for pair in mol.ring_bonds() for i in pair}
    for idx, atom in enumerate(mol.atoms):
        if atom.aromatic and idx not in ring_atoms:
            return False
        if atom.element in VALENCES:
            valence = sum(ORDER_VALENCE[o] for _, o in mol.neighbors(idx)) + atom.hydrogens
            if lowest_feasible_valence(atom.element, valence, atom.charge) is None:
                return False
    return all(
        mol.atoms[b.a].aromatic and mol.atoms[b.b].aromatic
        for b in mol.bonds
        if b.order == AROMATIC
    )


class TestSanitize:
    @given(molecules(), st.randoms(use_true_random=False))
    @settings(max_examples=300, deadline=None)
    def test_lazy_ring_search_equals_eager(self, mol, rng):
        # Aromatic flags and bonds dropped at random on chains and rings,
        # so aromatic atoms land both on and off cycles.
        atoms = tuple(
            replace(a, aromatic=a.element != "H" and rng.random() < 0.4) for a in mol.atoms
        )
        bonds = tuple(
            replace(b, order=AROMATIC) if rng.random() < 0.3 else b for b in mol.bonds
        )
        mol = MolecularGraph(atoms, bonds)
        assert pattern._sanitize(mol) == eager_sanitize(mol)

    @pytest.mark.parametrize(
        "smiles, flagged, sane",
        [
            ("c1ccccc1", (), True),
            ("c1ccccc1CCO", (), True),
            ("CCO", (), True),
            ("C1CCCC1", (), True),
            ("c1ccccc1C", (6,), False),  # an aromatic atom after a ring one
            ("Cc1ccccc1", (0,), False),  # ... and before it
            ("CCO", (1,), False),
        ],
    )
    def test_aromatic_atoms_on_and_off_rings(self, smiles, flagged, sane):
        mol = parse_smiles(smiles)
        atoms = tuple(
            replace(a, aromatic=True) if i in flagged else a for i, a in enumerate(mol.atoms)
        )
        mol = MolecularGraph(atoms, mol.bonds)
        assert pattern._sanitize(mol) == eager_sanitize(mol) == sane


class TestTemplateFile:
    def test_load_round_trip(self, tmp_path):
        path = tmp_path / "templates.tsv"
        path.write_text(
            "# template_id\tdirection\tdiameter\tec_numbers\tsmarts\n"
            f"T01\tbwd\t2\t1.1.1.-;1.1.1.1\t{LOOSE_SMARTS}\n",
            encoding="utf-8",
        )
        (template,) = load_templates(path)
        assert template.template_id == "T01"
        assert template.ec_numbers == ("1.1.1.-", "1.1.1.1")
        assert len(template.mapping) == 4

    def test_bad_direction_rejected(self, tmp_path):
        path = tmp_path / "templates.tsv"
        path.write_text("T01\tsideways\t2\t-\t[C:1]>>[C:1]\n", encoding="utf-8")
        with pytest.raises(TemplateError):
            load_templates(path)

    def test_forward_direction_rejected(self, tmp_path):
        # only backward templates are applied; a 'fwd' row would otherwise
        # be matched against the target as if it were 'bwd'
        path = tmp_path / "templates.tsv"
        path.write_text(
            "# template_id\tdirection\tdiameter\tec_numbers\tsmarts\n"
            f"T01\tbwd\t2\t-\t{LOOSE_SMARTS}\n"
            f"T02\tfwd\t2\t-\t{LOOSE_SMARTS}\n",
            encoding="utf-8",
        )
        with pytest.raises(TemplateError, match=r"templates\.tsv:3: direction"):
            load_templates(path)

    def test_bad_diameter_is_template_error(self, tmp_path):
        path = tmp_path / "templates.tsv"
        path.write_text(f"T01\tbwd\ttwo\t-\t{LOOSE_SMARTS}\n", encoding="utf-8")
        with pytest.raises(TemplateError, match=r"templates\.tsv:1: diameter"):
            load_templates(path)

    def test_negative_diameter_is_template_error(self, tmp_path):
        # A diameter is a non-negative radius, so -1 names the file and line.
        path = tmp_path / "templates.tsv"
        path.write_text(
            f"T01\tbwd\t0\t-\t{LOOSE_SMARTS}\nT02\tbwd\t-1\t-\t{LOOSE_SMARTS}\n",
            encoding="utf-8",
        )
        with pytest.raises(TemplateError, match=r"templates\.tsv:2: diameter"):
            load_templates(path)
