"""The canonical labelling before per-component tables and orbit pruning,
kept as the reference for ``molgraph.canonicalize``.

It refines a fresh invariant tuple per atom, breaks each tie by
recursing once per member of the first tied class (only tied leaf
siblings are skipped), and writes one full string per leaf with a ring
pre-walk. ``canonicalize`` must return the same string on every graph.
``reference_canonicalize`` takes time cubic in the size of a bare ring and
exponential in the depth of symmetric branching, so keep its inputs small.
"""

from __future__ import annotations

from dataclasses import replace

from retrobio.molgraph import (
    AROMATIC,
    AROMATIC_SUBSET,
    DOUBLE,
    ORDER_VALENCE,
    ORGANIC_SUBSET,
    SINGLE,
    TRIPLE,
    MolecularGraph,
    implied_hydrogens,
)

_ORDER_CODE = {SINGLE: 1, DOUBLE: 2, TRIPLE: 3, AROMATIC: 4}
ORDER_SYMBOLS = {SINGLE: "-", DOUBLE: "=", TRIPLE: "#", AROMATIC: ":"}


def _atom_token(mol: MolecularGraph, idx: int) -> str:
    atom = mol.atoms[idx]
    bond_valence = sum(ORDER_VALENCE[o] for _, o in mol.neighbors(idx))
    symbol = atom.element.lower() if atom.aromatic else atom.element
    bare_ok = (
        atom.charge == 0
        and atom.map_index is None
        and atom.element != "H"
        and atom.element in ORGANIC_SUBSET
        and (not atom.aromatic or atom.element in AROMATIC_SUBSET)
        and atom.hydrogens == implied_hydrogens(atom.element, bond_valence)
    )
    if bare_ok:
        return symbol
    parts = [symbol]
    if atom.hydrogens == 1:
        parts.append("H")
    elif atom.hydrogens > 1:
        parts.append(f"H{atom.hydrogens}")
    if atom.charge != 0:
        sign = "+" if atom.charge > 0 else "-"
        parts.append(sign if abs(atom.charge) == 1 else f"{sign}{abs(atom.charge)}")
    if atom.map_index is not None:
        parts.append(f":{atom.map_index}")
    return "[" + "".join(parts) + "]"


def _bond_token(mol: MolecularGraph, a: int, b: int, order: str) -> str:
    both_aromatic = mol.atoms[a].aromatic and mol.atoms[b].aromatic
    if order == SINGLE:
        return "-" if both_aromatic else ""
    if order == AROMATIC:
        return "" if both_aromatic else ":"
    return ORDER_SYMBOLS[order]


def _write_component(mol: MolecularGraph, start: int, rank: list[int]) -> str:
    by_rank = lambda pair: rank[pair[0]]
    ring_lookup: dict[tuple[int, int], tuple[str, str]] = {}
    parent: dict[int, int | None] = {start: None}
    ordered = {start: sorted(mol.neighbors(start), key=by_rank)}
    stack = [(start, iter(ordered[start]))]
    while stack:
        u, rest = stack[-1]
        for v, o in rest:
            edge = (min(u, v), max(u, v))
            if v == parent[u] or edge in ring_lookup:
                continue
            if v in parent:
                n = len(ring_lookup) + 1
                digit = str(n) if n < 10 else f"%{n:02d}"
                ring_lookup[edge] = (digit, o)
            else:
                parent[v] = u
                ordered[v] = sorted(mol.neighbors(v), key=by_rank)
                stack.append((v, iter(ordered[v])))
                break
        else:
            stack.pop()

    opened: set[tuple[int, int]] = set()
    parts: list[str] = []
    pending: list[int | str] = [start]
    while pending:
        u = pending.pop()
        if isinstance(u, str):
            parts.append(u)
            continue
        parts.append(_atom_token(mol, u))
        branches = []
        for v, o in ordered[u]:
            edge = (min(u, v), max(u, v))
            if edge in ring_lookup:
                digit, order = ring_lookup[edge]
                if edge in opened:
                    parts.append(digit)
                else:
                    opened.add(edge)
                    parts.append(_bond_token(mol, u, v, order) + digit)
            elif v != parent[u]:
                branches.append((v, _bond_token(mol, u, v, o)))
        for pos, (v, bond) in enumerate(reversed(branches)):
            pending += [v, bond] if pos == 0 else [")", v, "(" + bond]
    return "".join(parts)


def _initial_invariants(mol: MolecularGraph) -> list[tuple]:
    return [
        (atom.element, mol.degree(idx), atom.charge, mol.total_hydrogens(idx), atom.aromatic)
        for idx, atom in enumerate(mol.atoms)
    ]


def _dense_ranks(keys: list) -> tuple[list[int], int]:
    rank_of = {k: r for r, k in enumerate(sorted(set(keys)))}
    return [rank_of[k] for k in keys], len(rank_of)


def _refine(mol: MolecularGraph, keys: list) -> list[int]:
    ranks, n_classes = _dense_ranks(keys)
    while True:
        keys2 = [
            (
                ranks[i],
                tuple(sorted((_ORDER_CODE[o], ranks[j]) for j, o in mol.neighbors(i))),
            )
            for i in range(len(mol.atoms))
        ]
        ranks, n_classes2 = _dense_ranks(keys2)
        if n_classes2 == n_classes:
            return ranks
        n_classes = n_classes2


def _leaf_signature(mol: MolecularGraph, idx: int):
    if mol.degree(idx) > 1:
        return ("nonleaf", idx)
    nbr = mol.neighbors(idx)
    anchor = nbr[0] if nbr else None
    return ("leaf", mol.atoms[idx], anchor)


def _canonical_component(mol: MolecularGraph, base_keys: list) -> str:
    ranks = _refine(mol, base_keys)
    n = len(mol.atoms)
    class_members: dict[int, list[int]] = {}
    for i, r in enumerate(ranks):
        class_members.setdefault(r, []).append(i)
    ambiguous = sorted(
        (r, members) for r, members in class_members.items() if len(members) > 1
    )
    if not ambiguous:
        return _write_component(mol, ranks.index(min(ranks)), ranks)
    _, members = ambiguous[0]
    candidates = []
    seen_sigs = set()
    for m in members:
        sig = _leaf_signature(mol, m)
        if sig[0] == "leaf" and sig in seen_sigs:
            continue
        seen_sigs.add(sig)
        promoted = [(ranks[i], 1 if i == m else 0) for i in range(n)]
        candidates.append(_canonical_component(mol, promoted))
    return min(candidates)


def reference_canonicalize(mol: MolecularGraph) -> str:
    """The canonical SMILES by the old recursive labelling."""
    if any(a.map_index is not None for a in mol.atoms):
        atoms = tuple(replace(a, map_index=None) for a in mol.atoms)
        mol = MolecularGraph(atoms, mol.bonds)
    pieces = []
    for comp in mol.components():
        sub = mol.subgraph(comp)
        pieces.append(_canonical_component(sub, _initial_invariants(sub)))
    return ".".join(sorted(pieces))
