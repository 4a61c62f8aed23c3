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
tie-breaking, pruned by the automorphisms it finds, so any atom permutation
of the same graph yields the same string. The canonical string is the
molecule identity used across the whole engine.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from functools import cache

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
    "RingLabelsExhausted",
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
    "ELEMENT_NUMBER",
    "atom_words",
]

# Bond orders.
SINGLE = "single"
DOUBLE = "double"
TRIPLE = "triple"
AROMATIC = "aromatic"

BOND_SYMBOLS = {"-": SINGLE, "=": DOUBLE, "#": TRIPLE, ":": AROMATIC}
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

#: Atomic number of every element the parser accepts; the low byte of an
#: atom's invariant word (``atom_words``).
ELEMENT_NUMBER: dict[str, int] = {
    "H": 1, "C": 6, "N": 7, "O": 8, "F": 9,
    "P": 15, "S": 16, "Cl": 17, "Br": 35, "I": 53,
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


class RingLabelsExhausted(ValueError):
    """A SMILES string of the graph would need more than 99 ring labels
    open at once."""


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


def atom_words(mol: MolecularGraph) -> list[int]:
    """Per atom, the invariant word that seeds its circular fingerprint codes
    (see ``fingerprint``):

        element number | min(degree, 15) << 8 | (charge & 0xFF) << 12
        | min(total hydrogens, 15) << 20 | aromatic << 24

    where degree and total hydrogens count explicit H neighbours."""
    atoms, adjacency = mol.atoms, mol._adjacency
    hydrogens = [atom.hydrogens for atom in atoms]
    for j in [j for j, atom in enumerate(atoms) if atom.element == "H"]:
        for i, _ in adjacency[j]:
            hydrogens[i] += 1
    # Conditional expressions, not min(): this runs for every fingerprinted atom.
    return [
        ELEMENT_NUMBER.get(atom.element, 0) | (len(nbrs) if len(nbrs) < 15 else 15) << 8
        | (atom.charge & 0xFF) << 12 | (h if h < 15 else 15) << 20 | atom.aromatic << 24
        for atom, nbrs, h in zip(atoms, adjacency, hydrogens)
    ]


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
# The token field of each bracket property, and the most digits it reads:
# up to two of a charge, all the writer writes, and any number of a map.
_PROPERTIES = {"H": "hydrogens", "D": "degree", "+": "charge", "-": "charge", ":": "map_index"}
_MOST_DIGITS = {"H": 1, "D": 1, "+": 2, "-": 2}


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
    # Properties, in SMILES order: Hn, Dn, charge, :map, each at most once.
    # ``body[i]`` is ``text[pos + 1 + i]``, the offset each error names.
    body = text[pos + 1 : end]
    i = width
    while i < len(body):
        c = body[i]
        field = _PROPERTIES.get(c)
        if field is None:
            raise MalformedBracketAtom(f"unsupported bracket token {c!r}", pos + 1 + i)
        if token[field] is not None:
            raise MalformedBracketAtom(f"{field.replace('_', ' ')} written twice", pos + 1 + i)
        if c == "D" and not pattern:
            raise MalformedBracketAtom("degree constraint outside a pattern", pos + 1 + i)
        i = j = i + 1
        most = _MOST_DIGITS.get(c, len(body))
        while j < len(body) and j - i < most and body[j] in _DIGITS:
            j += 1
        if j == i and c in "D:":
            raise MalformedBracketAtom(
                "'D' needs a digit" if c == "D" else "':' needs a map number", pos + 1 + i
            )
        value = int(body[i:j]) if j > i else 1
        if j == i and c in "+-":  # a sign without digits, perhaps repeated
            while j < len(body) and body[j] == c:
                j += 1
            value = j - i + 1
            if value > 99:
                raise MalformedBracketAtom("charge magnitude above 99", pos + i)
        if c == ":" and value <= 0:
            raise MalformedBracketAtom("map index must be positive", pos + 1 + i)
        token[field] = -value if c == "-" else value
        i = j
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


_ORDER_CODE = {SINGLE: 1, DOUBLE: 2, TRIPLE: 3, AROMATIC: 4}
#: A bond's token, indexed by whether both of its atoms are aromatic.
_BOND_TOKENS = {SINGLE: ("", "-"), DOUBLE: ("=", "="), TRIPLE: ("#", "#"), AROMATIC: (":", "")}


@cache
def _token(element, aromatic, hydrogens, charge, bond_valence, map_index) -> str:
    """The SMILES token of an atom with these fields and bond valence."""
    symbol = element.lower() if aromatic else element
    bare_ok = (
        charge == 0
        and map_index is None
        and element in ORGANIC_SUBSET
        and (not aromatic or element in AROMATIC_SUBSET)
        and hydrogens == implied_hydrogens(element, bond_valence)
    )
    if bare_ok:
        return symbol
    parts = [symbol]
    if hydrogens == 1:
        parts.append("H")
    elif hydrogens > 1:
        parts.append(f"H{hydrogens}")
    if charge != 0:
        sign = "+" if charge > 0 else "-"
        parts.append(sign if abs(charge) == 1 else f"{sign}{abs(charge)}")
    if map_index is not None:
        parts.append(f":{map_index}")
    return "[" + "".join(parts) + "]"


def _component_tables(mol: MolecularGraph, comp: list[int], keep_maps: bool) -> tuple:
    """What labelling and writing read of one connected component, built
    once; ``comp`` lists its atoms in index order, and they are numbered
    0..n-1 in that order. The tables are:

    - ``tokens``: each atom's SMILES token, with its map index only if
      ``keep_maps``;
    - ``invariants``: (element, degree, charge, total hydrogens, aromatic);
    - ``nbrs``: per atom, (bond order code * n, neighbour, bond token)
      triples, so that ``code + rank[neighbour]`` sorts as the pair (code,
      rank) does;
    - ``cyclic``: whether the component has a ring.
    """
    n = len(comp)
    atoms, adjacency = mol.atoms, mol._adjacency
    local = None if n == len(atoms) else {old: new for new, old in enumerate(comp)}
    code_of = {order: code * n for order, code in _ORDER_CODE.items()}
    tokens, invariants, nbrs = [], [], []
    bond_ends = 0
    for old in comp:
        atom = atoms[old]
        valence = 0.0
        hydrogens = atom.hydrogens
        row = []
        for j, order in adjacency[old]:
            other = atoms[j]
            valence += ORDER_VALENCE[order]
            if other.element == "H":
                hydrogens += 1
            bond = _BOND_TOKENS[order][atom.aromatic and other.aromatic]
            row.append((code_of[order], j if local is None else local[j], bond))
        bond_ends += len(row)
        tokens.append(
            _token(
                atom.element, atom.aromatic, atom.hydrogens, atom.charge, valence,
                atom.map_index if keep_maps else None,
            )
        )
        invariants.append((atom.element, len(row), atom.charge, hydrogens, atom.aromatic))
        nbrs.append(row)
    return tokens, invariants, nbrs, bond_ends // 2 >= n


def _write_component(tables: tuple, start: int, rank: list[int]) -> tuple[str, list[int]]:
    """Write one component from ``start`` in one depth-first pass that
    visits neighbours by ascending ``rank`` (distinct per atom): each atom,
    its ring digits (with the bond symbol where a ring opens), then its
    branches, each but the last in parentheses. Also the atoms in writing
    order. The pass keeps an explicit stack, so chain length is not bounded
    by Python's recursion limit."""
    tokens, _, nbrs, cyclic = tables
    n = len(tokens)
    labels = _ring_labels(nbrs, start, rank) if cyclic else None
    opened: set[int] = set()
    parts, order = [], []
    parent = [-1] * n
    lead = [""] * n  # what precedes an atom: its bond, after "(" on a branch
    pending = [start]  # atoms, and -1 where a branch closes
    while pending:
        u = pending.pop()
        if u < 0:
            parts.append(")")
            continue
        parts.append(lead[u])
        parts.append(tokens[u])
        order.append(u)
        p = parent[u]
        kids = [(rank[v], v, bond) for _, v, bond in nbrs[u] if v != p]
        kids.sort()
        if labels:
            branches = []
            for kid in kids:
                _, v, bond = kid
                ring = u * n + v if u < v else v * n + u
                label = labels.get(ring)
                if label is None:
                    branches.append(kid)
                elif ring in opened:
                    parts.append(label)
                else:
                    opened.add(ring)
                    parts.append(bond + label)
            kids = branches
        if not kids:
            continue
        # Stacked in reverse, so the first branch is written first.
        _, v, lead[v] = kids.pop()
        parent[v] = u
        pending.append(v)
        for _, v, bond in reversed(kids):
            parent[v] = u
            lead[v] = "(" + bond
            pending += (-1, v)
    return "".join(parts), order


def _ring_labels(nbrs: list, start: int, rank: list[int]) -> dict[int, str]:
    """The label text of each ring closure that writing from ``start`` by
    ``rank`` makes, keyed by bond (low * n + high).

    A depth-first walk in writing order finds the closures: the bonds to a
    visited atom other than the parent. Labels 1 to 99 go to the closures
    in the order found, so the output is a pure function of (graph, rank).
    Then, in the order they open, each further closure takes the lowest
    label that no other closure holds anywhere from its opening to its
    closing. Raises RingLabelsExhausted when there is none.
    """
    n = len(nbrs)
    by_rank = lambda link: rank[link[1]]
    parent = [-1] * n
    ordered: list = [None] * n
    ordered[start] = sorted(nbrs[start], key=by_rank)
    visit = [start]
    found: dict[int, int] = {}  # bond -> its place in ``ends``
    ends: list[tuple[int, int]] = []  # per closure: (opening, closing) atom
    stack = [(start, iter(ordered[start]))]
    while stack:
        u, rest = stack[-1]
        for _, v, _ in rest:
            if v == parent[u]:
                continue
            if ordered[v] is None:
                parent[v] = u
                ordered[v] = sorted(nbrs[v], key=by_rank)
                visit.append(v)
                stack.append((v, iter(ordered[v])))
                break
            # A visited atom other than the parent is an ancestor, which
            # opens the ring; each closure is met first from its far end.
            bond = u * n + v if u < v else v * n + u
            if bond not in found:
                found[bond] = len(ends)
                ends.append((v, u))
        else:
            stack.pop()
    numbers = list(range(1, len(ends) + 1))
    if len(ends) > 99:
        # Positions in writing order: an atom's place in ``visit``, then
        # its ring digits in the order of its ``ordered`` neighbours.
        place = [0] * n
        for pos, u in enumerate(visit):
            place[u] = pos

        def position(x: int, y: int) -> int:  # of the digit atom x writes for y
            return place[x] * n + [w for _, w, _ in ordered[x]].index(y)

        spans = [(position(a, b), position(b, a)) for a, b in ends]
        last_close = [-1] * 100
        for k in sorted(range(99, len(ends)), key=lambda k: spans[k][0]):
            opens, closes = spans[k]
            for label in range(1, 100):
                first_open, first_close = spans[label - 1]
                if last_close[label] < opens and (first_close < opens or first_open > closes):
                    numbers[k] = label
                    last_close[label] = closes
                    break
            else:
                raise RingLabelsExhausted("ring closures need more than 99 labels at once")
    return {
        bond: str(numbers[k]) if numbers[k] < 10 else f"%{numbers[k]:02d}"
        for bond, k in found.items()
    }


def write_smiles(mol: MolecularGraph) -> str:
    """Write a SMILES string that re-parses to a graph isomorphic to ``mol``.

    Components are joined with '.'; atom order follows the input graph.
    Raises RingLabelsExhausted when more than 99 rings are open at once.
    """
    return ".".join(
        _write_component(_component_tables(mol, comp, True), 0, list(range(len(comp))))[0]
        for comp in mol.components()
    )


# ---------------------------------------------------------------------------
# Canonicalization
#
# Refine-then-break-ties labelling (Weininger et al., JCICS 29:97, 1989)
# with pruning by the automorphisms that equal leaves reveal (McKay &
# Piperno, J. Symb. Comput. 60:94, 2014). An atom's rank is the position
# where its class starts in the ordered partition, so splitting one class
# moves no other atom's rank, and ranks compare as dense class numbers do.


def _place(rank: list[int], cells: dict, start: int, parts: dict) -> list[int]:
    """Lay the parts of a class (key -> members in index order) out in key
    order from ``start``: each member's rank becomes its part's start, and
    a part of more than one atom becomes a tied class. Returns the atoms
    whose rank moved."""
    moved = []
    at = start
    for key in sorted(parts):
        part = parts[key]
        if at != start:
            for i in part:
                rank[i] = at
            moved += part
        if len(part) > 1:
            cells[at] = part
        at += len(part)
    return moved


def _refine(rank: list[int], cells: dict, nbrs: list, moved: list[int] | None) -> None:
    """Split tied classes in place by their members' sorted (bond order,
    neighbour rank) lists until no class splits. Each round reads only the
    classes next to an atom whose rank the previous round moved (every
    class when ``moved`` is None): no other class can split. Stops once
    every atom has its own class."""
    todo = list(cells) if moved is None else {rank[j] for i in moved for _, j, _ in nbrs[i]}
    while cells:
        splits = []
        for start in todo:
            members = cells.get(start)
            if members is None:
                continue
            parts: dict[tuple, list[int]] = {}
            for i in members:
                key = tuple(sorted([code + rank[j] for code, j, _ in nbrs[i]]))
                part = parts.get(key)
                if part is None:
                    parts[key] = [i]
                else:
                    part.append(i)
            if len(parts) > 1:
                splits.append((start, parts))
        if not splits:
            return
        moved = []
        for start, parts in splits:
            del cells[start]
            moved += _place(rank, cells, start, parts)
        todo = {rank[j] for i in moved for _, j, _ in nbrs[i]}


class _Node:
    """A node of the tie-break search: a refined partition, the atoms
    individualized on the way to it, and the members of its first tied
    class still to try. Of tied leaf atoms on one anchor only the first is
    tried (they are interchangeable), and a member is skipped when an
    automorphism that fixes ``path`` maps it to one already tried."""

    __slots__ = ("rank", "cells", "path", "members", "tried", "orbit", "seen")

    def __init__(self, rank, cells, path, nbrs):
        self.rank, self.cells, self.path = rank, cells, path
        anchors = set()
        self.members = []
        for m in cells[min(cells)]:
            if len(nbrs[m]) == 1:
                anchor = nbrs[m][0][1]
                if anchor in anchors:
                    continue
                anchors.add(anchor)
            self.members.append(m)
        self.members.reverse()
        self.tried: list[int] = []
        self.orbit: dict[int, int] = {}  # union-find parent links
        self.seen = 0  # automorphisms already merged into ``orbit``

    def _root(self, i: int) -> int:
        orbit = self.orbit
        while i in orbit:
            i = orbit[i]
        return i

    def next_member(self, automorphisms: list[dict[int, int]]) -> int | None:
        for gamma in automorphisms[self.seen :]:
            if gamma.keys().isdisjoint(self.path):
                for i, j in gamma.items():
                    a, b = self._root(i), self._root(j)
                    if a != b:
                        self.orbit[max(a, b)] = min(a, b)
        self.seen = len(automorphisms)
        while self.members:
            m = self.members.pop()
            root = self._root(m)
            if all(self._root(t) != root for t in self.tried):
                self.tried.append(m)
                return m
        return None


def _canonical_component(tables: tuple) -> tuple[str, int]:
    """The least string any leaf of the tie-break search writes, and the
    number of leaves written. The search runs on an explicit stack; when
    two leaves write the same string, the map between their writing orders
    is an automorphism, kept for pruning."""
    _, invariants, nbrs, _ = tables
    rank, cells = [0] * len(nbrs), {}
    classes: dict[tuple, list[int]] = {}
    for i, key in enumerate(invariants):
        classes.setdefault(key, []).append(i)
    _place(rank, cells, 0, classes)
    _refine(rank, cells, nbrs, None)
    if not cells:
        return _write_component(tables, rank.index(0), rank)[0], 1
    best, leaves = None, 0
    first_order: dict[str, list[int]] = {}
    automorphisms: list[dict[int, int]] = []  # each maps the atoms it moves
    stack = [_Node(rank, cells, (), nbrs)]
    while stack:
        node = stack[-1]
        m = node.next_member(automorphisms)
        if m is None:
            stack.pop()
            continue
        if not node.members:
            stack.pop()  # its last member: the path is all a child needs
        # m gets a class of its own, ordered just after the rest of its own.
        rank, cells = node.rank.copy(), dict(node.cells)
        start = rank[m]
        members = cells.pop(start)
        rank[m] = start + len(members) - 1
        if len(members) > 2:
            cells[start] = [i for i in members if i != m]
        _refine(rank, cells, nbrs, [m])
        if cells:
            stack.append(_Node(rank, cells, node.path + (m,), nbrs))
            continue
        text, order = _write_component(tables, rank.index(0), rank)
        leaves += 1
        first = first_order.setdefault(text, order)
        if first is not order:
            automorphisms.append({a: b for a, b in zip(first, order) if a != b})
        if best is None or text < best:
            best = text
    return best, leaves


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
    return ".".join(
        sorted(
            _canonical_component(_component_tables(mol, comp, False))[0]
            for comp in mol.components()
        )
    )


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
