"""
Molecular graphs and a SMILES subset parser/writer.

Molecules are immutable labeled graphs parsed from a SMILES subset:
the organic subset (C, N, O, P, S, F, Cl, Br, I), aromatic lowercase
atoms, ring closures (single digit or %nn), branches, '.'-separated
components, and bracket atoms carrying charge, explicit hydrogen count
and an atom-atom map index. Stereo markers, isotopes and wildcards are
not supported. The atom tokenizer and the chain reader are shared with the
SMARTS parser in ``pattern``, which also accepts wildcards and ``Dn``.

Kekule structures are NOT auto-aromatized: "C1=CC=CC=C1" and "c1ccccc1"
parse to different graphs with different canonical forms. Aromatic
heteroatoms that donate a lone pair to the ring (furan oxygen, pyrrole
nitrogen) must be written in brackets ([o], [nH]) because implicit
hydrogen counting treats an aromatic bond as order 1.5.

Canonicalization uses iterative invariant refinement with deterministic
tie-breaking, so any atom permutation of the same graph yields the same
string. The canonical string is the molecule identity used across the
whole engine.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

__all__ = [
    "Atom",
    "Bond",
    "MolecularGraph",
    "SmilesSyntaxError",
    "EmptyInput",
    "UnknownElement",
    "MalformedBracketAtom",
    "UnbalancedRingClosure",
    "ValenceExceeded",
    "parse_smiles",
    "write_smiles",
    "canonicalize",
    "add_explicit_hydrogens",
    "remove_explicit_hydrogens",
    "SINGLE",
    "DOUBLE",
    "TRIPLE",
    "AROMATIC",
    "VALENCES",
]

# Bond orders.
SINGLE = "single"
DOUBLE = "double"
TRIPLE = "triple"
AROMATIC = "aromatic"

BOND_SYMBOLS = {"-": SINGLE, "=": DOUBLE, "#": TRIPLE, ":": AROMATIC}
ORDER_SYMBOLS = {SINGLE: "-", DOUBLE: "=", TRIPLE: "#", AROMATIC: ":"}
#: Fractional contribution of each bond order to an atom's valence.
ORDER_VALENCE = {SINGLE: 1.0, DOUBLE: 2.0, TRIPLE: 3.0, AROMATIC: 1.5}

#: Allowed valences per element, lowest first. Multi-valent elements use
#: the lowest valence able to host the atom's bonds.
VALENCES: dict[str, tuple[int, ...]] = {
    "C": (4,),
    "N": (3,),
    "O": (2,),
    "P": (3, 5),
    "S": (2, 4, 6),
    "F": (1,),
    "Cl": (1,),
    "Br": (1,),
    "I": (1,),
    "H": (1,),
}

#: Elements writable without brackets.
ORGANIC_SUBSET = {"C", "N", "O", "P", "S", "F", "Cl", "Br", "I"}
#: Elements with a lowercase aromatic form.
AROMATIC_SUBSET = {"C", "N", "O", "P", "S"}


class SmilesSyntaxError(ValueError):
    """Malformed SMILES input; ``offset`` is the byte position at fault."""

    def __init__(self, message: str, offset: int):
        super().__init__(f"{message} (offset {offset})")
        self.offset = offset


class EmptyInput(SmilesSyntaxError):
    pass


class UnknownElement(SmilesSyntaxError):
    pass


class MalformedBracketAtom(SmilesSyntaxError):
    pass


class UnbalancedRingClosure(SmilesSyntaxError):
    pass


class ValenceExceeded(ValueError):
    """An atom's bonds exceed the largest valence allowed for its element."""


@dataclass(frozen=True, slots=True)
class Atom:
    """A labeled atom. ``hydrogens`` counts hydrogens not present as graph
    atoms; explicit H neighbours are counted separately."""

    element: str
    aromatic: bool = False
    hydrogens: int = 0
    charge: int = 0
    map_index: int | None = None


@dataclass(frozen=True, slots=True)
class Bond:
    """An undirected bond between two atom indices (stored low, high)."""

    a: int
    b: int
    order: str = SINGLE

    def __post_init__(self):
        if self.a == self.b:
            raise ValueError("self-loop bond")
        if self.a > self.b:
            lo, hi = self.b, self.a
            object.__setattr__(self, "a", lo)
            object.__setattr__(self, "b", hi)


@dataclass(frozen=True)
class MolecularGraph:
    """An immutable simple graph of atoms and bonds."""

    atoms: tuple[Atom, ...]
    bonds: tuple[Bond, ...]
    _adjacency: tuple[tuple[tuple[int, str], ...], ...] = field(
        init=False, repr=False, compare=False
    )

    def __post_init__(self):
        if not self.atoms:
            raise ValueError("a molecular graph must contain at least one atom")
        n = len(self.atoms)
        seen: set[tuple[int, int]] = set()
        adj: list[list[tuple[int, str]]] = [[] for _ in range(n)]
        for bond in self.bonds:
            if not (0 <= bond.a < n and 0 <= bond.b < n):
                raise ValueError(f"bond endpoint out of range: {bond}")
            key = (bond.a, bond.b)
            if key in seen:
                raise ValueError(f"parallel bond: {bond}")
            seen.add(key)
            adj[bond.a].append((bond.b, bond.order))
            adj[bond.b].append((bond.a, bond.order))
        object.__setattr__(self, "_adjacency", tuple(tuple(x) for x in adj))

    @classmethod
    def _built(cls, atoms, bonds, adjacency) -> "MolecularGraph":
        """A graph whose caller vouches for its atoms and bonds and gives
        the ``_adjacency`` that ``__post_init__`` would build."""
        mol = object.__new__(cls)
        for name, value in (("atoms", atoms), ("bonds", bonds), ("_adjacency", adjacency)):
            object.__setattr__(mol, name, value)
        return mol

    def neighbors(self, idx: int) -> tuple[tuple[int, str], ...]:
        """(neighbor index, bond order) pairs for one atom."""
        return self._adjacency[idx]

    def degree(self, idx: int) -> int:
        return len(self._adjacency[idx])

    def total_hydrogens(self, idx: int) -> int:
        """Stored hydrogen count plus explicit H neighbours."""
        return self.atoms[idx].hydrogens + sum(
            1 for j, _ in self._adjacency[idx] if self.atoms[j].element == "H"
        )

    def heavy_atom_count(self) -> int:
        return sum(1 for a in self.atoms if a.element != "H")

    def components(self) -> list[list[int]]:
        """Connected components as sorted atom-index lists."""
        seen = [False] * len(self.atoms)
        comps = []
        for start in range(len(self.atoms)):
            if seen[start]:
                continue
            stack, comp = [start], []
            seen[start] = True
            while stack:
                u = stack.pop()
                comp.append(u)
                for v, _ in self._adjacency[u]:
                    if not seen[v]:
                        seen[v] = True
                        stack.append(v)
            comps.append(sorted(comp))
        return comps

    def subgraph(self, indices: list[int]) -> "MolecularGraph":
        """Induced subgraph; ``indices`` order defines the new atom order."""
        remap = {old: new for new, old in enumerate(indices)}
        atoms = tuple(self.atoms[i] for i in indices)
        bonds = tuple(
            Bond(remap[b.a], remap[b.b], b.order)
            for b in self.bonds
            if b.a in remap and b.b in remap
        )
        return MolecularGraph(atoms, bonds)

    def ring_bonds(self) -> set[tuple[int, int]]:
        """Bonds lying on a cycle, as (low, high) index pairs."""
        return _ring_bonds(len(self.atoms), [(b.a, b.b) for b in self.bonds])


def _ring_bonds(n: int, pairs: list[tuple[int, int]]) -> set[tuple[int, int]]:
    """The bond ``pairs`` of atom indices that are non-bridge edges, found
    with one DFS low-link pass."""
    adj: list[list[tuple[int, int]]] = [[] for _ in range(n)]
    for k, (a, b) in enumerate(pairs):
        adj[a].append((b, k))
        adj[b].append((a, k))
    index = [-1] * n
    low = [0] * n
    bridges: set[int] = set()
    counter = 0
    for root in range(n):
        if index[root] != -1:
            continue
        stack = [(root, -1, iter(adj[root]))]
        index[root] = low[root] = counter
        counter += 1
        while stack:
            u, in_edge, it = stack[-1]
            advanced = False
            for v, k in it:
                if k == in_edge:
                    continue
                if index[v] == -1:
                    index[v] = low[v] = counter
                    counter += 1
                    stack.append((v, k, iter(adj[v])))
                    advanced = True
                    break
                low[u] = min(low[u], index[v])
            if advanced:
                continue
            stack.pop()
            if stack:
                p = stack[-1][0]
                low[p] = min(low[p], low[u])
                if low[u] > index[p]:
                    bridges.add(in_edge)
    # Non-bridge edges are exactly the edges lying on a cycle.
    return {pair for k, pair in enumerate(pairs) if k not in bridges}


def effective_valences(element: str, charge: int = 0) -> tuple[int, ...] | None:
    """Allowed valences adjusted for formal charge.

    Lone-pair bearers (N, O, P, S) gain a bond per positive charge and lose
    one per negative; carbon and halogens lose a bond either way. None when
    the element is unknown or no non-negative valence remains.
    """
    base = VALENCES.get(element)
    if base is None:
        return None
    if charge == 0:
        return base
    if element in ("N", "O", "P", "S"):
        shifted = tuple(v + charge for v in base)
    else:
        shifted = tuple(v - abs(charge) for v in base)
    shifted = tuple(v for v in shifted if v >= 0)
    return shifted or None


def lowest_feasible_valence(
    element: str, bond_valence: float, charge: int = 0
) -> int | None:
    """Smallest allowed valence holding ``bond_valence``; None if exceeded."""
    allowed = effective_valences(element, charge)
    if allowed is None:
        return None
    needed = int(bond_valence)
    for v in allowed:
        if v >= needed:
            return v
    return None


def implied_hydrogens(
    element: str, bond_valence: float, charge: int = 0
) -> int | None:
    """Hydrogens the parser would infer for a bare organic-subset atom."""
    v = lowest_feasible_valence(element, bond_valence, charge)
    if v is None:
        return None
    return v - int(bond_valence)


# ---------------------------------------------------------------------------
# Parsing


def _read_chain(text: str, pattern: bool = False):
    """Read a SMILES or, with ``pattern``, a SMARTS chain: atoms, branches,
    ring closures, bond symbols and '.'.

    Returns the atom tokens of ``_parse_atom`` and the bonds as (atom,
    atom, order) triples, order None where no bond symbol was written.
    """
    if not text:
        raise EmptyInput("empty SMILES input", 0)
    atoms: list[dict] = []
    bonds: list[tuple[int, int, str | None]] = []
    prev: int | None = None
    pending: str | None = None
    pending_pos = 0
    branch_stack: list[int | None] = []
    open_rings: dict[int, tuple[int, str | None, int]] = {}
    just_opened = False
    i = 0
    while i < len(text):
        ch = text[i]
        if ch == "(":
            if pending is not None:
                raise SmilesSyntaxError("bond symbol before '('", pending_pos)
            if prev is None:
                raise SmilesSyntaxError("branch before any atom", i)
            if just_opened:
                raise SmilesSyntaxError("branch cannot start with '('", i)
            branch_stack.append(prev)
            just_opened = True
            i += 1
        elif ch == ")":
            if pending is not None:
                raise SmilesSyntaxError("bond symbol before ')'", pending_pos)
            if not branch_stack:
                raise SmilesSyntaxError("unmatched ')'", i)
            if just_opened:
                raise SmilesSyntaxError("empty branch", i)
            prev = branch_stack.pop()
            i += 1
        elif ch in BOND_SYMBOLS:
            if pending is not None:
                raise SmilesSyntaxError("two bond symbols in a row", i)
            pending = BOND_SYMBOLS[ch]
            pending_pos = i
            i += 1
        elif ch == ".":
            if pending is not None:
                raise SmilesSyntaxError("bond symbol before '.'", pending_pos)
            if branch_stack:
                raise SmilesSyntaxError("'.' inside a branch", i)
            if prev is None:
                raise SmilesSyntaxError("'.' before any atom", i)
            prev = None
            i += 1
        elif ch in _DIGITS or ch == "%":
            if prev is None:
                raise UnbalancedRingClosure("ring closure before any atom", i)
            if ch == "%":
                if i + 2 >= len(text) or not _DIGITS.issuperset(text[i + 1 : i + 3]):
                    raise UnbalancedRingClosure("malformed '%nn' ring number", i)
                number = int(text[i + 1 : i + 3])
                i += 3
            else:
                number = int(ch)
                i += 1
            if number in open_rings:
                other, other_order, other_pos = open_rings.pop(number)
                order = pending if pending is not None else other_order
                if (
                    pending is not None
                    and other_order is not None
                    and pending != other_order
                ):
                    raise UnbalancedRingClosure(
                        f"conflicting bond orders on ring closure {number}",
                        pending_pos,
                    )
                if other == prev:
                    raise UnbalancedRingClosure(
                        f"ring closure {number} bonds an atom to itself", i - 1
                    )
                bonds.append((other, prev, order))
            else:
                open_rings[number] = (prev, pending, i - 1)
            pending = None
        else:
            token, end = _parse_atom(text, i, pattern)
            idx = len(atoms)
            atoms.append(token)
            if prev is not None:
                bonds.append((prev, idx, pending))
            elif pending is not None:
                raise SmilesSyntaxError("dangling bond symbol", pending_pos)
            pending = None
            prev = idx
            just_opened = False
            i = end
    if pending is not None:
        raise SmilesSyntaxError("dangling bond symbol at end", pending_pos)
    if branch_stack:
        raise SmilesSyntaxError("unclosed '('", len(text) - 1)
    if open_rings:
        number, (_, _, pos) = sorted(open_rings.items())[0]
        raise UnbalancedRingClosure(f"unclosed ring closure {number}", pos)
    if not atoms:
        raise EmptyInput("no atoms in input", 0)
    return atoms, bonds


_TWO_LETTER = {"Cl", "Br"}
# Numbers are ASCII 0-9 only; ``str.isdigit`` also takes '²' and '１'.
_DIGITS = frozenset("0123456789")


def _parse_atom(text: str, pos: int, pattern: bool = False) -> tuple[dict, int]:
    """The atom token at ``pos`` and the index just past it.

    A token is a bare organic-subset atom, a bracket atom or, in a pattern,
    the bare wildcard ``*``. It holds ``element`` and ``aromatic`` (None
    for a wildcard), ``offset``, ``bracket``, and ``hydrogens``,
    ``charge``, ``map_index`` and ``degree``, each None when the token does
    not write it. Wildcards and ``Dn`` are accepted only in a pattern.
    """
    bracket = text[pos] == "["
    if bracket:
        end = text.find("]", pos)
        if end == -1:
            raise MalformedBracketAtom("unterminated bracket atom", pos)
        if end == pos + 1:
            raise MalformedBracketAtom("empty bracket atom", pos)
    at = pos + 1 if bracket else pos  # the element symbol
    ch = text[at]
    if ch == "*" and (pattern or bracket):
        if not pattern:
            raise UnknownElement("wildcard atom outside a pattern", at)
        element = aromatic = None
    elif ch.isupper():
        element = text[at : at + 2]
        if element not in _TWO_LETTER:
            element = ch
            # Only a bracket may hold hydrogen as an atom.
            if element not in (VALENCES if bracket else ORGANIC_SUBSET):
                raise UnknownElement(f"unknown element {ch!r}", at)
        aromatic = False
    elif ch.islower():
        element = ch.upper()
        if element not in AROMATIC_SUBSET:
            raise UnknownElement(f"unknown aromatic element {ch!r}", at)
        aromatic = True
    elif bracket:
        raise MalformedBracketAtom(f"bad bracket atom start {ch!r}", at)
    else:
        raise SmilesSyntaxError(f"unexpected character {ch!r}", at)
    token = {
        "element": element,
        "aromatic": aromatic,
        "offset": pos,
        "bracket": bracket,
        "hydrogens": None,
        "charge": None,
        "map_index": None,
        "degree": None,
    }
    width = 2 if element in _TWO_LETTER else 1
    if not bracket:
        return token, at + width
    # Properties, in SMILES order: Hn, Dn, charge, :map. ``body[i]`` is
    # ``text[pos + 1 + i]``, the offset each error names.
    body = text[pos + 1 : end]
    i = width
    while i < len(body):
        c = body[i]
        if c == "H":
            i += 1
            count = 1
            if i < len(body) and body[i] in _DIGITS:
                count = int(body[i])
                i += 1
            token["hydrogens"] = count
        elif c == "D":
            if not pattern:
                raise MalformedBracketAtom("degree constraint outside a pattern", pos + 1 + i)
            i += 1
            if i >= len(body) or body[i] not in _DIGITS:
                raise MalformedBracketAtom("'D' needs a digit", pos + 1 + i)
            token["degree"] = int(body[i])
            i += 1
        elif c in "+-":
            sign = 1 if c == "+" else -1
            i += 1
            if i < len(body) and body[i] in _DIGITS:
                token["charge"] = sign * int(body[i])
                i += 1
            else:
                magnitude = 1
                while i < len(body) and body[i] == c:
                    magnitude += 1
                    i += 1
                token["charge"] = sign * magnitude
        elif c == ":":
            i += 1
            j = i
            while j < len(body) and body[j] in _DIGITS:
                j += 1
            if j == i:
                raise MalformedBracketAtom("':' needs a map number", pos + 1 + i)
            token["map_index"] = int(body[i:j])
            if token["map_index"] <= 0:
                raise MalformedBracketAtom("map index must be positive", pos + 1 + i)
            i = j
        else:
            raise MalformedBracketAtom(f"unsupported bracket token {c!r}", pos + 1 + i)
    return token, end + 1


def parse_smiles(text: str) -> MolecularGraph:
    """Parse a SMILES string into a MolecularGraph.

    Raises EmptyInput, UnknownElement, MalformedBracketAtom,
    UnbalancedRingClosure or SmilesSyntaxError with the byte offset of the
    problem, and ValenceExceeded when a bare atom's bonds exceed its element's
    largest allowed valence.
    """
    tokens, links = _read_chain(text)
    n = len(tokens)
    # Ring membership depends on topology only, not on bond orders, and
    # only aromatic atoms read it.
    in_ring = (
        _ring_bonds(n, [(a, b) for a, b, _ in links])
        if any(token["aromatic"] for token in tokens)
        else set()
    )

    # A bond written without a symbol is aromatic when both ends are
    # aromatic atoms and it lies in a ring, single otherwise.
    bonds = []
    for a, b, order in links:
        if order is None:
            both = tokens[a]["aromatic"] and tokens[b]["aromatic"]
            order = AROMATIC if both and (a, b) in in_ring else SINGLE
        bonds.append(Bond(a, b, order))

    # Aromatic atoms must sit on a ring; aromatic bonds need aromatic ends.
    ring_atoms = {i for pair in in_ring for i in pair}
    for idx, token in enumerate(tokens):
        if token["aromatic"] and idx not in ring_atoms:
            raise SmilesSyntaxError("aromatic atom outside any ring", token["offset"])
    for bond in bonds:
        if bond.order == AROMATIC and not (
            tokens[bond.a]["aromatic"] and tokens[bond.b]["aromatic"]
        ):
            raise SmilesSyntaxError(
                "aromatic bond between non-aromatic atoms",
                tokens[bond.a]["offset"],
            )

    # Implicit hydrogens for bare atoms; valence check while we are at it.
    # A bracket atom has exactly the hydrogens and charge it writes.
    bond_valence = [0.0] * n
    for bond in bonds:
        bond_valence[bond.a] += ORDER_VALENCE[bond.order]
        bond_valence[bond.b] += ORDER_VALENCE[bond.order]
    atoms = []
    for idx, token in enumerate(tokens):
        if token["bracket"]:
            hydrogens = token["hydrogens"] or 0
        else:
            hydrogens = implied_hydrogens(token["element"], bond_valence[idx])
            if hydrogens is None:
                raise ValenceExceeded(
                    f"atom {token['element']} at offset {token['offset']} has "
                    f"bond valence {bond_valence[idx]:g} exceeding its maximum"
                )
        atoms.append(
            Atom(
                element=token["element"],
                aromatic=token["aromatic"],
                hydrogens=hydrogens,
                charge=token["charge"] or 0,
                map_index=token["map_index"],
            )
        )
    return MolecularGraph(tuple(atoms), tuple(bonds))


# ---------------------------------------------------------------------------
# Writing


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
    """Write one connected component, visiting neighbours by ascending rank.

    Both walks keep an explicit stack, so chain length is not bounded by
    Python's recursion limit.
    """
    by_rank = lambda pair: rank[pair[0]]

    # Pre-walk (depth first) to split edges into tree edges and ring
    # closures; the ring digit for each closure is fixed by traversal order,
    # so the output is a pure function of (graph, rank).
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

    # Emit in the same pre-order: an atom, its ring digits (with the bond
    # symbol where the ring opens), then its branches, the last unbracketed.
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
        # Stacked in reverse, so the first branch is written first.
        for pos, (v, bond) in enumerate(reversed(branches)):
            pending += [v, bond] if pos == 0 else [")", v, "(" + bond]
    return "".join(parts)


def write_smiles(mol: MolecularGraph) -> str:
    """Write a SMILES string that re-parses to a graph isomorphic to ``mol``.

    Components are joined with '.'; atom order follows the input graph.
    """
    rank = list(range(len(mol.atoms)))
    return ".".join(_write_component(mol, comp[0], rank) for comp in mol.components())


# ---------------------------------------------------------------------------
# Canonicalization


def _initial_invariants(mol: MolecularGraph) -> list[tuple]:
    out = []
    for idx, atom in enumerate(mol.atoms):
        out.append(
            (
                atom.element,
                mol.degree(idx),
                atom.charge,
                mol.total_hydrogens(idx),
                atom.aromatic,
            )
        )
    return out


_ORDER_CODE = {SINGLE: 1, DOUBLE: 2, TRIPLE: 3, AROMATIC: 4}


def _refine(mol: MolecularGraph, keys: list) -> list[int]:
    """Iteratively refine atom classes until the partition stabilizes."""
    ranks, n_classes = _dense_ranks(keys)
    while True:
        keys2 = [
            (
                ranks[i],
                tuple(
                    sorted(
                        (_ORDER_CODE[o], ranks[j]) for j, o in mol.neighbors(i)
                    )
                ),
            )
            for i in range(len(mol.atoms))
        ]
        ranks, n_classes2 = _dense_ranks(keys2)
        if n_classes2 == n_classes:
            return ranks
        n_classes = n_classes2


def _dense_ranks(keys: list) -> tuple[list[int], int]:
    """Each key's index among the sorted distinct keys, and their count."""
    rank_of = {k: r for r, k in enumerate(sorted(set(keys)))}
    return [rank_of[k] for k in keys], len(rank_of)


def _leaf_signature(mol: MolecularGraph, idx: int):
    """Signature making leaf siblings (e.g. hydrogens on one atom)
    recognizably automorphic so tie-breaking skips duplicates."""
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


def _without_map_indices(mol: MolecularGraph) -> MolecularGraph:
    """``mol`` with every atom map index dropped; ``mol`` itself if none."""
    if all(a.map_index is None for a in mol.atoms):
        return mol
    atoms = tuple(replace(a, map_index=None) for a in mol.atoms)
    return MolecularGraph._built(atoms, mol.bonds, mol._adjacency)


def canonicalize(mol: MolecularGraph) -> str:
    """Canonical SMILES: invariant under atom permutation, map indices
    stripped, components sorted. ``canonicalize(parse_smiles(s))`` is a fixed
    point for any s already in canonical form."""
    mol = _without_map_indices(mol)
    comps = mol.components()
    if len(comps) == 1:
        return _canonical_component(mol, _initial_invariants(mol))
    pieces = []
    for comp in comps:
        sub = mol.subgraph(comp)
        pieces.append(_canonical_component(sub, _initial_invariants(sub)))
    return ".".join(sorted(pieces))


# ---------------------------------------------------------------------------
# Hydrogen handling


def add_explicit_hydrogens(mol: MolecularGraph) -> MolecularGraph:
    """Materialize every stored hydrogen count as explicit H atoms.

    Idempotent: a second application is a no-op because all counts are zero
    afterwards. Raises ValenceExceeded if an uncharged atom's bonds already
    exceed its element's largest valence.
    """
    atoms = list(mol.atoms)
    bonds = list(mol.bonds)
    for idx, atom in enumerate(mol.atoms):
        allowed = effective_valences(atom.element, atom.charge)
        if allowed is not None:
            bond_valence = sum(ORDER_VALENCE[o] for _, o in mol.neighbors(idx))
            if int(bond_valence) > max(allowed):
                raise ValenceExceeded(
                    f"atom {idx} ({atom.element}) exceeds its maximum valence"
                )
        if atom.hydrogens:
            for _ in range(atom.hydrogens):
                atoms.append(Atom("H"))
                bonds.append(Bond(idx, len(atoms) - 1))
            atoms[idx] = replace(atom, hydrogens=0)
    return MolecularGraph(tuple(atoms), tuple(bonds))


def _fold_anchor(atom: Atom, nbrs, atoms) -> int | None:
    """The atom a plain explicit H folds into, or None when it is not plain.

    ``nbrs`` are the H's (neighbour index, bond order) pairs and ``atoms``
    is indexed by neighbour index. A plain H is uncharged, unmapped, stores
    no hydrogens and has one single bond, to a non-hydrogen atom; anything
    else (e.g. [H][H]) stays an atom.
    """
    if atom.element != "H" or atom.charge != 0 or atom.map_index is not None:
        return None
    if atom.hydrogens != 0 or len(nbrs) != 1:
        return None
    nbr, order = nbrs[0]
    if order != SINGLE or atoms[nbr].element == "H":
        return None
    return nbr


def remove_explicit_hydrogens(mol: MolecularGraph) -> MolecularGraph:
    """Fold plain explicit H atoms back into their neighbour's count.

    An H atom is folded when it is uncharged, unmapped and single-bonded to
    exactly one non-hydrogen atom; anything else (e.g. [H][H]) is kept.
    """
    drop: set[int] = set()
    gained: dict[int, int] = {}
    for idx, atom in enumerate(mol.atoms):
        anchor = _fold_anchor(atom, mol.neighbors(idx), mol.atoms)
        if anchor is not None:
            drop.add(idx)
            gained[anchor] = gained.get(anchor, 0) + 1
    if not drop:
        return mol
    keep = [i for i in range(len(mol.atoms)) if i not in drop]
    remap = {old: new for new, old in enumerate(keep)}
    atoms = tuple(_with_gained(mol.atoms[i], gained.get(i, 0)) for i in keep)
    bonds = tuple(
        Bond(remap[b.a], remap[b.b], b.order)
        for b in mol.bonds
        if b.a in remap and b.b in remap
    )
    return MolecularGraph(atoms, bonds)


def _with_gained(atom: Atom, gained: int) -> Atom:
    """``atom`` holding ``gained`` more stored hydrogens; itself if none."""
    if not gained:
        return atom
    # The constructor, not dataclasses.replace: this runs for every anchor
    # of every rewrite, and replace costs several times as much.
    return Atom(
        atom.element, atom.aromatic, atom.hydrogens + gained, atom.charge, atom.map_index
    )
